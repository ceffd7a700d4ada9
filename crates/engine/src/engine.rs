//! The container-engine framework: pull → prepare (convert/cache/mount) →
//! run, with capability-gated feature paths.
//!
//! Every engine of Table 1 is an [`Engine`] value whose capabilities select
//! *different code paths through real mechanisms*: a Suid engine mounts its
//! squash image through the setuid-helper policy branch, a SquashFUSE
//! engine through the user-namespace FUSE branch, a directory engine
//! unpacks, Docker requires its per-machine root daemon, engines without
//! transparent conversion demand an explicit convert step, and so on.
//! The Table 1–3 generators probe these paths.

use crate::caps::{
    EncryptionSupport, EngineCaps, EngineInfo, GpuSupport, HookSupport, LibHookup, MonitorModel,
    NativeFormat, RootlessFsMech, SignatureSupport,
};
use crate::hookup;
use crate::sif::{SifError, SifImage};
use hpcc_codec::archive::{Archive, ArchiveError};
use hpcc_crypto::aead::AeadKey;
use hpcc_crypto::sha256::Digest;
use hpcc_crypto::wots::Keypair;
use hpcc_oci::cas::CasError;
use hpcc_oci::hooks::{HookError, HookRegistry};
use hpcc_oci::image::{ImageConfig, ImageError, Manifest};
use hpcc_oci::layer;
use hpcc_oci::spec::{HookRef, HookStage, IdMapping, Namespace, ProcessSpec, RuntimeSpec};
use hpcc_registry::proxy::{ProxyError, ProxyRegistry};
use hpcc_registry::registry::{Registry, RegistryError};
use hpcc_registry::tiered::TierClient;
use hpcc_runtime::container::{Container, ContainerError, LowLevelRuntime, ProcessWork};
use hpcc_runtime::rootless::{
    check_mount, ImageProvenance, MountCredentials, MountRequestKind, PolicyViolation,
};
use hpcc_sim::sym;
use hpcc_sim::{
    BreakerConfig, CircuitBreaker, CrashInjector, Crashed, Executor, FaultInjector, RetryErr,
    RetryPolicy, SimClock, SimSpan, SimTime, SpanId, Stage, Symbol, TaskFinish, TaskGraph, Tracer,
};
use hpcc_storage::blobstore::BlobStore;
use hpcc_storage::journal::JournaledStore;
use hpcc_storage::local::ConversionCache;
use hpcc_vfs::driver::{DirDriver, FsDriver, OverlayDriver, SquashDriver};
use hpcc_vfs::fs::MemFs;
use hpcc_vfs::overlay::OverlayFs;
use hpcc_vfs::path::VPath;
use hpcc_vfs::squash::{SquashError, SquashImage};
use parking_lot::RwLock;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::collections::HashMap;
use std::sync::Arc;

/// Host-node state an engine runs against.
pub struct Host {
    /// The host filesystem (driver stacks, MPI, device nodes).
    pub fs: MemFs,
    pub gpu_present: bool,
    /// Root daemons currently running on the node.
    pub daemons: BTreeSet<&'static str>,
    pub userns_enabled: bool,
}

impl Host {
    /// A typical GPU compute node with no extra daemons.
    pub fn compute_node() -> Host {
        Host {
            fs: hookup::sample_host_fs((2, 31)),
            gpu_present: true,
            daemons: BTreeSet::new(),
            userns_enabled: true,
        }
    }

    /// The same node with dockerd running (cloud-style provisioning).
    pub fn with_daemon(mut self, name: &'static str) -> Host {
        self.daemons.insert(name);
        self
    }
}

/// Errors across the engine pipeline.
#[derive(Debug)]
pub enum EngineError {
    Registry(RegistryError),
    Cas(CasError),
    Image(ImageError),
    Archive(ArchiveError),
    Fs(hpcc_vfs::fs::FsError),
    Squash(SquashError),
    Sif(SifError),
    Policy(PolicyViolation),
    Container(ContainerError),
    Hook(HookError),
    /// The engine needs its daemon and it is not running.
    DaemonNotRunning(&'static str),
    /// The engine cannot convert transparently; an explicit step is
    /// required first.
    ExplicitConversionRequired,
    /// A requested feature is not supported by this engine.
    Unsupported(&'static str),
    /// A pipeline stage exhausted its retry policy (attempts or deadline);
    /// the last underlying error is boxed. This is the typed give-up the
    /// WLM and k8s layers surface instead of a panic.
    Exhausted {
        op: &'static str,
        attempts: u32,
        last: Box<EngineError>,
    },
    /// The engine process died at a crash point. Never transient — the
    /// retry loop must not mask a death; the caller recovers the journal
    /// and starts over.
    Crash(Crashed),
}

macro_rules! from_err {
    ($from:ty, $variant:ident) => {
        impl From<$from> for EngineError {
            fn from(e: $from) -> Self {
                EngineError::$variant(e)
            }
        }
    };
}
from_err!(RegistryError, Registry);
from_err!(CasError, Cas);
from_err!(ImageError, Image);
from_err!(ArchiveError, Archive);
from_err!(hpcc_vfs::fs::FsError, Fs);
from_err!(SquashError, Squash);
from_err!(SifError, Sif);
from_err!(PolicyViolation, Policy);
from_err!(ContainerError, Container);
from_err!(HookError, Hook);
from_err!(Crashed, Crash);

impl From<ProxyError> for EngineError {
    fn from(e: ProxyError) -> Self {
        match e {
            ProxyError::Registry(e) => EngineError::Registry(e),
            ProxyError::ProxyingUnsupported => EngineError::Unsupported("registry proxying"),
        }
    }
}

impl EngineError {
    /// Whether retrying the same operation could plausibly succeed:
    /// registry rate limits, 5xx and timeouts are; semantic failures
    /// (unknown repo, digest mismatch, policy violations) are not.
    pub fn is_transient(&self) -> bool {
        matches!(self, EngineError::Registry(e) if e.is_transient())
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Registry(e) => write!(f, "registry: {e}"),
            EngineError::Cas(e) => write!(f, "cas: {e}"),
            EngineError::Image(e) => write!(f, "image: {e}"),
            EngineError::Archive(e) => write!(f, "archive: {e}"),
            EngineError::Fs(e) => write!(f, "fs: {e}"),
            EngineError::Squash(e) => write!(f, "squash: {e}"),
            EngineError::Sif(e) => write!(f, "sif: {e}"),
            EngineError::Policy(e) => write!(f, "policy: {e}"),
            EngineError::Container(e) => write!(f, "container: {e}"),
            EngineError::Hook(e) => write!(f, "hook: {e}"),
            EngineError::DaemonNotRunning(d) => write!(f, "required daemon {d} not running"),
            EngineError::ExplicitConversionRequired => {
                f.write_str("engine requires an explicit image conversion step")
            }
            EngineError::Unsupported(what) => write!(f, "engine does not support {what}"),
            EngineError::Exhausted { op, attempts, last } => {
                write!(f, "{op}: gave up after {attempts} attempts: {last}")
            }
            EngineError::Crash(c) => write!(f, "{c}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// A pulled OCI image: manifest + decoded layers.
#[derive(Debug, Clone)]
pub struct PulledImage {
    pub manifest: Manifest,
    pub config: ImageConfig,
    pub layers: Vec<Archive>,
}

/// A fetched, not yet decoded image: the manifest plus its verified raw
/// blobs, config first, then the layers in manifest order.
struct FetchedImage {
    manifest: Manifest,
    blobs: Vec<Arc<Vec<u8>>>,
}

/// The prepared (converted + mountable) image, ready to run.
pub struct Prepared {
    /// Which mechanism provides the root ("overlay-fuse", "squash-kernel",
    /// "squash-fuse", "dir", "sif-kernel", "sif-fuse").
    pub root_kind: &'static str,
    /// Cost-modelled file access for the running container.
    pub driver: Box<dyn FsDriver>,
    /// The flattened root tree the container process sees.
    pub rootfs: MemFs,
    pub config: ImageConfig,
    /// Was the converted artifact served from the cache?
    pub cache_hit: bool,
}

/// What to enable for a run (§4.1.6 features).
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    pub gpu: bool,
    pub mpi: Option<MpiFlavor>,
    /// Device grant from the WLM allocation (SPANK passes it down).
    pub wlm_granted_devices: Option<String>,
    pub work: ProcessWork,
}

/// MPI implementation families (Shifter's hookup is MPICH-only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MpiFlavor {
    Mpich,
    OpenMpi,
}

/// Result of a run.
#[derive(Debug)]
pub struct RunReport {
    pub container: Container,
    /// Monitor process attached, if any ("conmon" per container, or the
    /// per-machine daemon's name).
    pub monitor: Option<&'static str>,
    /// Hook/engine state captured at exit.
    pub state: BTreeMap<String, String>,
}

/// The pull ladder's hops in degradation order. A hop's label names its
/// circuit breaker, its side of the `degrade.<op>.<from>_to_<to>` counters
/// and the source reported to the caller.
const HOPS: [&str; 4] = ["primary", "tier", "proxy", "mirror"];
/// Label of the source past the last hop: the engine's in-memory pull memo.
const WARM_CACHE: &str = "warm-cache";
/// `retry.<stem>.*` metric stem of each hop for whole-image pulls; the
/// first also keys `degrade.<stem>.*`.
const PULL_OPS: [&str; 4] = [
    "engine.pull",
    "engine.pull.tier",
    "engine.pull.proxy",
    "engine.pull.mirror",
];
/// The same stems for a lazy container's index and chunk fetches.
pub(crate) const LAZY_FETCH_OPS: [&str; 4] = [
    "engine.lazy.fetch",
    "engine.lazy.fetch.tier",
    "engine.lazy.fetch.proxy",
    "engine.lazy.fetch.mirror",
];

/// Where a pull may fetch from, in degradation order: the authoritative
/// registry first, the node's tiered cache hierarchy next, then a site
/// pull-through proxy, then a mirror. [`Engine::pull`] is the ladder over
/// the primary alone; [`Engine::pull_resilient`] and
/// [`Engine::pull_lazy`] walk whatever is present.
pub struct PullSources<'a> {
    pub primary: &'a Registry,
    /// The node's handle on the rack → row → site cache hierarchy.
    pub tier: Option<&'a TierClient>,
    pub proxy: Option<&'a ProxyRegistry>,
    pub mirror: Option<&'a Registry>,
}

impl<'a> PullSources<'a> {
    /// Just the primary registry: a ladder of one hop.
    pub fn primary_only(primary: &'a Registry) -> PullSources<'a> {
        PullSources {
            primary,
            tier: None,
            proxy: None,
            mirror: None,
        }
    }
}

/// Endpoint health for the pull ladder: one circuit breaker per hop,
/// shared by every whole-image pull and lazy chunk fetch of the engine it
/// is attached to, so what one request learns about an endpoint
/// short-circuits the next. Attach with [`Engine::set_pull_resilience`];
/// without it every hop is always consulted (retry-until-exhausted).
pub struct PullResilience {
    breakers: [CircuitBreaker; 4],
}

impl PullResilience {
    /// Breakers for the four ladder hops.
    pub fn new(cfg: BreakerConfig) -> PullResilience {
        PullResilience {
            breakers: HOPS.map(|label| CircuitBreaker::new(label, cfg)),
        }
    }

    /// The breaker guarding `endpoint` ("primary", "tier", "proxy" or
    /// "mirror").
    pub fn breaker(&self, endpoint: &str) -> &CircuitBreaker {
        let hop = HOPS.iter().position(|label| *label == endpoint);
        &self.breakers[hop.expect("endpoint is a ladder hop label")]
    }
}

/// A manifest/blob source the pull pipeline can fetch from. Implemented by
/// the registry itself and by the pull-through proxy so the same verified
/// pull loop runs against either (and by the lazy page-in path, which
/// faults individual chunks through the same degradation chain).
pub(crate) trait PullBackend {
    fn manifest(
        &self,
        repo: &str,
        tag: &str,
        arrival: SimTime,
    ) -> Result<(Manifest, SimTime), EngineError>;
    fn blob(
        &self,
        digest: &Digest,
        arrival: SimTime,
    ) -> Result<(Arc<Vec<u8>>, SimTime), EngineError>;
}

impl PullBackend for Registry {
    fn manifest(
        &self,
        repo: &str,
        tag: &str,
        arrival: SimTime,
    ) -> Result<(Manifest, SimTime), EngineError> {
        Ok(self.pull_manifest(repo, tag, arrival)?)
    }
    fn blob(
        &self,
        digest: &Digest,
        arrival: SimTime,
    ) -> Result<(Arc<Vec<u8>>, SimTime), EngineError> {
        Ok(self.pull_blob(digest, arrival)?)
    }
}

impl PullBackend for TierClient {
    fn manifest(
        &self,
        repo: &str,
        tag: &str,
        arrival: SimTime,
    ) -> Result<(Manifest, SimTime), EngineError> {
        Ok(self.pull_manifest(repo, tag, arrival)?)
    }
    fn blob(
        &self,
        digest: &Digest,
        arrival: SimTime,
    ) -> Result<(Arc<Vec<u8>>, SimTime), EngineError> {
        Ok(self.pull_blob(digest, arrival)?)
    }
}

impl PullBackend for ProxyRegistry {
    fn manifest(
        &self,
        repo: &str,
        tag: &str,
        arrival: SimTime,
    ) -> Result<(Manifest, SimTime), EngineError> {
        Ok(self.pull_manifest(repo, tag, arrival)?)
    }
    fn blob(
        &self,
        digest: &Digest,
        arrival: SimTime,
    ) -> Result<(Arc<Vec<u8>>, SimTime), EngineError> {
        Ok(self.pull_blob(digest, arrival)?)
    }
}

/// Every settable knob of an [`Engine`] as one value. Setters write one
/// field; each public operation takes one snapshot when it starts and
/// passes it down by reference, so an operation in flight sees a single
/// configuration whatever setters run meanwhile.
#[derive(Clone)]
pub(crate) struct PullCtx {
    pub(crate) retry: RetryPolicy,
    pub(crate) faults: Arc<FaultInjector>,
    pub(crate) tracer: Arc<Tracer>,
    /// Pipeline worker count: how many blob fetches / per-layer
    /// conversions may overlap. 1 reproduces the sequential pipeline.
    parallelism: usize,
    /// Optional node-local content-addressed layer store, shared across
    /// engines on the same node.
    pub(crate) store: Option<Arc<BlobStore>>,
    /// Optional write-ahead intent journal over the blob store; when
    /// attached, pulls and conversions run as journalled intents and
    /// resume idempotently after a crash.
    pub(crate) journal: Option<Arc<JournaledStore>>,
    /// Crash-point injector; the default disabled one never fires.
    pub(crate) crash: Arc<CrashInjector>,
    /// Optional per-hop circuit breakers over the pull ladder.
    breakers: Option<Arc<PullResilience>>,
}

impl PullCtx {
    /// The one degradation loop. Each present hop of `sources`, in
    /// [`HOPS`] order: consult its breaker (open: skip without burning
    /// retry budget), record the degrade decision, run `fetch` under the
    /// retry policy as `ops[hop]`, settle the breaker with the outcome
    /// ([`CircuitBreaker::settle`]: only an exhausted retry ladder counts
    /// against an endpoint) and advance the clock. A
    /// *fatal* error on the primary (unknown repo, digest mismatch)
    /// returns at once with the clock untouched, since no fallback can
    /// fix the request itself; a fatal error on a fallback (a cold proxy
    /// reporting the repo unknown) only moves the chain along. Past the
    /// last hop `warm` may still serve. Returns the value, the label of
    /// the source that served it and the attempts spent across all hops.
    pub(crate) fn ladder<T>(
        &self,
        ops: &[&'static str; 4],
        sources: &PullSources<'_>,
        clock: &SimClock,
        fetch: impl Fn(&dyn PullBackend, SimTime) -> Result<(T, SimTime), EngineError>,
        warm: impl FnOnce() -> Option<T>,
    ) -> Result<(T, &'static str, u32), EngineError> {
        let backends: [Option<&dyn PullBackend>; 4] = [
            Some(sources.primary),
            sources.tier.map(|t| t as _),
            sources.proxy.map(|p| p as _),
            sources.mirror.map(|m| m as _),
        ];
        let mut from = HOPS[0];
        let mut attempts = 0;
        // What a chain that never got to ask anyone reports.
        let mut last = EngineError::Registry(RegistryError::Unavailable { status: 503 });
        for (hop, backend) in backends.into_iter().enumerate() {
            let Some(backend) = backend else { continue };
            let breaker = self.breakers.as_ref().map(|b| &b.breakers[hop]);
            if let Some(b) = breaker {
                if !b.allow(&self.faults, &self.crash, clock.now())? {
                    continue;
                }
            }
            if hop > 0 {
                self.faults
                    .note_degrade(ops[0], from, HOPS[hop], clock.now());
                from = HOPS[hop];
            }
            let run = self.retry.run_timed(
                &self.faults,
                ops[hop],
                Stage::Pull,
                clock.now(),
                EngineError::is_transient,
                |_, at| fetch(backend, at),
            );
            if let Some(b) = breaker {
                b.settle(&self.faults, &run, |e| matches!(e, EngineError::Crash(_)));
            }
            match run {
                Ok(ok) => {
                    clock.advance_to(ok.done);
                    return Ok((ok.value, HOPS[hop], attempts + ok.attempts));
                }
                Err(err) if hop == 0 && !err.gave_up => {
                    return Err(Engine::unwrap_retry(ops[hop], err))
                }
                Err(err) => {
                    clock.advance_to(err.at);
                    attempts += err.attempts;
                    last = Engine::unwrap_retry(ops[hop], err);
                }
            }
        }
        match warm() {
            Some(value) => {
                self.faults
                    .note_degrade(ops[0], from, "warm_cache", clock.now());
                Ok((value, WARM_CACHE, attempts))
            }
            None => Err(last),
        }
    }
}

/// A configured container engine.
pub struct Engine {
    pub info: EngineInfo,
    pub caps: EngineCaps,
    pub runtime: LowLevelRuntime,
    hooks: HookRegistry,
    cache: ConversionCache,
    ctx: RwLock<PullCtx>,
    /// Successfully pulled images by (repo, tag) — the degradation path's
    /// last resort when every remote source is down.
    pull_memo: RwLock<HashMap<(String, String), PulledImage>>,
}

/// Local blob-store read: latency floor plus node-local NVMe-class
/// bandwidth — what a layer-cache hit costs instead of a registry fetch.
pub(crate) const BLOB_STORE_READ_LATENCY: SimSpan = SimSpan(10_000); // 10us
pub(crate) const BLOB_STORE_READ_BPS: f64 = (8u64 << 30) as f64;

impl Engine {
    pub fn new(info: EngineInfo, caps: EngineCaps, runtime: LowLevelRuntime) -> Engine {
        let mut hooks = HookRegistry::new();
        hookup::register_standard_hooks(&mut hooks);
        let cache = if caps.native_sharing {
            ConversionCache::shared()
        } else {
            ConversionCache::per_user()
        };
        Engine {
            info,
            caps,
            runtime,
            hooks,
            cache,
            ctx: RwLock::new(PullCtx {
                retry: RetryPolicy::default(),
                faults: FaultInjector::disabled(),
                tracer: Tracer::disabled(),
                parallelism: 1,
                store: None,
                journal: None,
                crash: CrashInjector::disabled(),
                breakers: None,
            }),
            pull_memo: RwLock::new(HashMap::new()),
        }
    }

    /// The snapshot an operation runs under.
    pub(crate) fn ctx(&self) -> PullCtx {
        self.ctx.read().clone()
    }

    /// Attach (or clear) per-endpoint circuit breakers over the pull
    /// ladder. `None` restores plain retry-per-hop behaviour.
    pub fn set_pull_resilience(&self, resilience: Option<Arc<PullResilience>>) {
        self.ctx.write().breakers = resilience;
    }

    /// Set how many pipeline tasks (blob fetches, per-layer conversions)
    /// may run concurrently. Clamped to at least 1; the default of 1
    /// reproduces the strictly sequential pipeline byte-for-byte.
    pub fn set_parallelism(&self, workers: usize) {
        self.ctx.write().parallelism = workers.max(1);
    }

    /// Attach a shared content-addressed blob store. Subsequent pulls
    /// consult it before fetching from the registry (layer dedup across
    /// images and engines, §3.1) and deposit verified blobs into it.
    pub fn set_blob_store(&self, store: Arc<BlobStore>) {
        self.ctx.write().store = Some(store);
    }

    /// Attach a journalled blob store: the engine's pulls and conversions
    /// run as write-ahead intents (begin → stage → commit) against its
    /// underlying store, which also becomes the engine's blob store, so a
    /// crashed pull resumes idempotently — committed layers are read back
    /// instead of re-fetched.
    pub fn set_journaled_store(&self, journal: Arc<JournaledStore>) {
        let mut ctx = self.ctx.write();
        ctx.store = Some(journal.store());
        ctx.journal = Some(journal);
    }

    /// Install a crash-point injector; the pull/convert pipeline passes
    /// named crash points through it from now on.
    pub fn set_crash_injector(&self, crash: Arc<CrashInjector>) {
        self.ctx.write().crash = crash;
    }

    /// Conversion-cache statistics.
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.cache.hit_count(), self.cache.miss_count())
    }

    /// Install a fault schedule; pulls and deploys consult it (and record
    /// their retry/degrade decisions to it) from now on.
    pub fn set_fault_injector(&self, injector: Arc<FaultInjector>) {
        self.ctx.write().faults = injector;
    }

    /// The engine's current fault injector (trace/metrics inspection).
    pub fn fault_injector(&self) -> Arc<FaultInjector> {
        self.ctx.read().faults.clone()
    }

    /// Replace the pipeline retry policy.
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        self.ctx.write().retry = policy;
    }

    /// Install a tracer; pull/prepare/run record stage spans to it from
    /// now on. The default disabled tracer makes every span call a no-op,
    /// leaving timing and behaviour bit-identical to an uninstrumented
    /// engine.
    pub fn set_tracer(&self, tracer: Arc<Tracer>) {
        self.ctx.write().tracer = tracer;
    }

    /// The engine's current tracer (span inspection/export).
    pub fn tracer(&self) -> Arc<Tracer> {
        self.ctx.read().tracer.clone()
    }

    /// The one span wrapper: open `name`, run `body` (which adds its own
    /// attrs), tag a failure and close the span at the clock. With
    /// `dies_here` — the spans crash points fire directly under — a
    /// crash first stops the clock where the process died, so the
    /// enclosing spans close covering every task span recorded before
    /// death, and leaves one `crash.engine` span marking the spot.
    pub(crate) fn spanned<T>(
        tracer: &Tracer,
        name: Symbol,
        stage: Stage,
        dies_here: bool,
        clock: &SimClock,
        body: impl FnOnce(SpanId) -> Result<T, EngineError>,
    ) -> Result<T, EngineError> {
        let span = tracer.begin(name, stage, clock.now());
        let result = body(span);
        if let Err(e) = &result {
            tracer.attr(span, sym!("error"), e);
        }
        if let (Err(EngineError::Crash(c)), true) = (&result, dies_here) {
            clock.advance_to(c.at);
            let now = clock.now();
            tracer.record(
                sym!("crash.engine"),
                Stage::Other,
                now,
                now,
                &[("point", c.point.to_string()), ("seq", c.seq.to_string())],
            );
        }
        tracer.end(span, clock.now());
        result
    }

    // ------------------------------------------------------------- pull

    /// The fetch half of one pull attempt against any backend: manifest
    /// first, then the config and layer blobs as independent tasks on the
    /// engine's bounded worker pool, verifying layer digests on the client
    /// side. Blobs already resident in the attached [`BlobStore`] are read
    /// locally instead of fetched; fetched blobs are deposited there.
    /// With parallelism 1 the schedule degenerates to the sequential
    /// config-then-layers order this method used to hard-code. The blobs
    /// come back raw (possibly still encrypted) for [`Engine::decode`].
    fn fetch_via(
        ctx: &PullCtx,
        source: &dyn PullBackend,
        repo: &str,
        tag: &str,
        arrival: SimTime,
    ) -> Result<(FetchedImage, SimTime), EngineError> {
        let (manifest, t) = source.manifest(repo, tag, arrival)?;
        let PullCtx {
            crash,
            faults,
            journal,
            ..
        } = ctx;
        let store = ctx.store.as_deref();
        crash.crash_point("pull.manifest.post", t)?;

        // Open a journalled pull intent: every fetched blob is staged
        // under it and only a commit makes the batch durable.
        let intent = match journal {
            Some(j) => Some(j.begin("engine.pull", &format!("{repo}:{tag}"), t)?),
            None => None,
        };

        // Task 0 is the config blob, tasks 1..N the layers; layers carry
        // client-side digest verification (the config is covered by the
        // manifest digest chain).
        let blobs: Vec<(Digest, u64, bool)> =
            std::iter::once((manifest.config.digest, manifest.config.size, false))
                .chain(manifest.layers.iter().map(|d| (d.digest, d.size, true)))
                .collect();
        let fetched: RefCell<Vec<Option<Arc<Vec<u8>>>>> = RefCell::new(vec![None; blobs.len()]);
        // Pins taken by plain (non-journalled) inserts, released after the
        // run — an in-flight pull must pin its blobs against eviction, but
        // the pins must not outlive it (they would defeat the LRU).
        let pinned: RefCell<Vec<Digest>> = RefCell::new(Vec::new());
        let mut graph: TaskGraph<'_, EngineError> = TaskGraph::new();
        for (i, &(digest, size, verify)) in blobs.iter().enumerate() {
            let fetched = &fetched;
            let pinned = &pinned;
            graph.add(sym!("pull.blob"), Stage::Pull, &[], move |at| {
                let (bytes, done, cached) = match store.and_then(|s| s.get(&digest)) {
                    Some(bytes) => {
                        let cost = BLOB_STORE_READ_LATENCY
                            + SimSpan::from_secs_f64(bytes.len() as f64 / BLOB_STORE_READ_BPS);
                        (bytes, at + cost, true)
                    }
                    None => {
                        crash.crash_point("pull.blob.fetch.pre", at)?;
                        let (bytes, done) = source.blob(&digest, at)?;
                        faults
                            .metrics()
                            .add("engine.pull.fetched_bytes", bytes.len() as u64);
                        if verify {
                            let actual = hpcc_crypto::sha256::sha256(&bytes);
                            if actual != digest {
                                return Err(EngineError::Cas(CasError::DigestMismatch {
                                    claimed: digest,
                                    actual,
                                }));
                            }
                        }
                        match (journal, intent) {
                            (Some(j), Some(intent)) => {
                                j.stage(intent, digest, Arc::clone(&bytes), at)?;
                            }
                            _ => {
                                if let Some(s) = store {
                                    s.insert(digest, Arc::clone(&bytes));
                                    pinned.borrow_mut().push(digest);
                                }
                            }
                        }
                        (bytes, done, false)
                    }
                };
                fetched.borrow_mut()[i] = Some(bytes);
                Ok(TaskFinish::at(done)
                    .attr("bytes", size)
                    .attr("cached", cached))
            });
        }
        let run = Executor::new(ctx.parallelism).run(graph, t, &ctx.tracer);
        // Whatever happened, the plain path's in-flight pins end here.
        if let Some(s) = store {
            for digest in pinned.borrow().iter() {
                s.release(digest);
            }
        }
        let report = match run {
            Ok(report) => {
                if let (Some(j), Some(intent)) = (journal, intent) {
                    j.commit(intent, report.end)?;
                }
                report
            }
            Err(e) => {
                let stopped = e.stopped_at;
                let mut error = e.error;
                match &mut error {
                    EngineError::Crash(c) => {
                        // A crash means the process died — the intent
                        // stays open for recovery. The death is only
                        // observable once the schedule stopped, which may
                        // be after in-flight sibling fetches completed.
                        c.at = c.at.max(stopped);
                    }
                    _ => {
                        // Any other error rolls the intent back.
                        if let (Some(j), Some(intent)) = (journal, intent) {
                            j.abort(intent, t)?;
                        }
                    }
                }
                return Err(error);
            }
        };

        let blobs = fetched
            .into_inner()
            .into_iter()
            .map(|bytes| bytes.expect("every blob task ran"))
            .collect();
        Ok((FetchedImage { manifest, blobs }, report.end))
    }

    /// The decode half of a pull: parse the (plaintext) config and layer
    /// blobs of a fetched image.
    fn decode(fetched: FetchedImage) -> Result<PulledImage, EngineError> {
        let config = ImageConfig::from_bytes(&fetched.blobs[0])?;
        let layers = fetched.blobs[1..]
            .iter()
            .map(|bytes| Archive::from_bytes(bytes))
            .collect::<Result<_, _>>()?;
        Ok(PulledImage {
            manifest: fetched.manifest,
            config,
            layers,
        })
    }

    /// Collapse a retry failure into a typed engine error: fatal causes
    /// pass through unchanged, exhaustion is wrapped in
    /// [`EngineError::Exhausted`], and a stage timeout becomes a registry
    /// timeout.
    fn unwrap_retry(op: &'static str, err: RetryErr<EngineError>) -> EngineError {
        let last = err
            .cause
            .into_op(|after| EngineError::Registry(RegistryError::Timeout { after }));
        if err.gave_up {
            EngineError::Exhausted {
                op,
                attempts: err.attempts,
                last: Box::new(last),
            }
        } else {
            last
        }
    }

    /// Pull an image from a registry, charging the clock with transfer
    /// time and verifying layer digests. Transient registry failures are
    /// retried per the engine's [`RetryPolicy`]; exhaustion surfaces as
    /// [`EngineError::Exhausted`] with the clock at the last attempt.
    /// Without an installed fault schedule the first attempt always
    /// succeeds or fails fatally, so behaviour (and timing) is identical
    /// to a retry-free pull. This is [`Engine::pull_resilient`] over the
    /// primary alone, minus the warm-memo last resort.
    pub fn pull(
        &self,
        registry: &Registry,
        repo: &str,
        tag: &str,
        clock: &SimClock,
    ) -> Result<PulledImage, EngineError> {
        let sources = PullSources::primary_only(registry);
        self.pull_with(&self.ctx(), &sources, false, repo, tag, clock)
            .map(|(pulled, _)| pulled)
    }

    /// Pull with graceful degradation: walk the pull ladder over `sources`
    /// — primary, then the tiered cache hierarchy, the proxy cache and the
    /// mirror, each retried per the engine's [`RetryPolicy`] and each
    /// fallback recorded as a degrade decision in the fault injector's
    /// metrics — and, when every remote source is down, serve the engine's
    /// warm in-memory copy of an earlier pull. A *fatal* primary error
    /// (unknown repo, digest mismatch) propagates immediately; fatal
    /// errors at fallback sources only move the chain along. Returns the
    /// image plus the label of the source that served it: "primary",
    /// "tier", "proxy", "mirror" or "warm-cache".
    pub fn pull_resilient(
        &self,
        sources: &PullSources<'_>,
        repo: &str,
        tag: &str,
        clock: &SimClock,
    ) -> Result<(PulledImage, &'static str), EngineError> {
        self.pull_with(&self.ctx(), sources, true, repo, tag, clock)
    }

    fn pull_with(
        &self,
        ctx: &PullCtx,
        sources: &PullSources<'_>,
        memo_fallback: bool,
        repo: &str,
        tag: &str,
        clock: &SimClock,
    ) -> Result<(PulledImage, &'static str), EngineError> {
        let key = (repo.to_string(), tag.to_string());
        let warm = || {
            memo_fallback
                .then(|| self.pull_memo.read().get(&key).cloned())
                .flatten()
        };
        let plaintext = |fetched| Ok((fetched, SimSpan(0)));
        let (pulled, source) = Self::pull_spanned(ctx, sources, repo, tag, clock, plaintext, warm)?;
        if source != WARM_CACHE {
            self.pull_memo.write().insert(key, pulled.clone());
        }
        Ok((pulled, source))
    }

    /// The `engine.pull` span around one walk of the ladder whose attempts
    /// are [`Engine::fetch_via`] → `decrypt` (to plaintext blobs, plus the
    /// CPU time that took) → [`Engine::decode`].
    fn pull_spanned(
        ctx: &PullCtx,
        sources: &PullSources<'_>,
        repo: &str,
        tag: &str,
        clock: &SimClock,
        decrypt: impl Fn(FetchedImage) -> Result<(FetchedImage, SimSpan), EngineError>,
        warm: impl FnOnce() -> Option<PulledImage>,
    ) -> Result<(PulledImage, &'static str), EngineError> {
        let name = sym!("engine.pull");
        Self::spanned(&ctx.tracer, name, Stage::Pull, true, clock, |span| {
            ctx.tracer
                .attr(span, sym!("image"), format_args!("{repo}:{tag}"));
            let (pulled, source, attempts) = ctx.ladder(
                &PULL_OPS,
                sources,
                clock,
                |backend, at| {
                    let (fetched, done) = Self::fetch_via(ctx, backend, repo, tag, at)?;
                    let (plain, cpu) = decrypt(fetched)?;
                    Ok((Self::decode(plain)?, done + cpu))
                },
                warm,
            )?;
            ctx.tracer.attr(span, sym!("source"), source);
            ctx.tracer.attr(span, sym!("attempts"), attempts);
            Ok((pulled, source))
        })
    }

    /// Pull by parsed [`hpcc_oci::reference::ImageRef`]. When the
    /// reference carries a digest pin, the pulled manifest must hash to
    /// it (immutable references).
    pub fn pull_ref(
        &self,
        registry: &Registry,
        image: &hpcc_oci::reference::ImageRef,
        clock: &SimClock,
    ) -> Result<PulledImage, EngineError> {
        let pulled = self.pull(registry, &image.repository, &image.tag, clock)?;
        if let Some(pin) = &image.digest {
            let actual = pulled.manifest.digest();
            if actual != *pin {
                return Err(EngineError::Cas(CasError::DigestMismatch {
                    claimed: *pin,
                    actual,
                }));
            }
        }
        Ok(pulled)
    }

    /// Pull an image whose layers may be ocicrypt-style encrypted
    /// (§7 outlook): [`Engine::pull`]'s ladder, span, journal intent and
    /// crash points around the fetch, then decrypt, then the same decode.
    /// Engines without full encryption support refuse encrypted content;
    /// plaintext images pass through unchanged. The result never enters
    /// the pull memo — a later keyless pull must not be served plaintext.
    pub fn pull_with_decryption(
        &self,
        registry: &Registry,
        repo: &str,
        tag: &str,
        key: Option<&AeadKey>,
        clock: &SimClock,
    ) -> Result<PulledImage, EngineError> {
        let decrypt = |fetched: FetchedImage| {
            let manifest = &fetched.manifest;
            if !hpcc_oci::encryption::is_encrypted(manifest) {
                return Ok((fetched, SimSpan(0)));
            }
            if !matches!(self.caps.encryption, EncryptionSupport::Yes) {
                return Err(EngineError::Unsupported("encrypted container images"));
            }
            let key = key.ok_or(EngineError::Unsupported("decryption without a key"))?;
            // Decrypt through a client-side CAS (~1 GiB/s of CPU).
            let cas = hpcc_oci::cas::Cas::new();
            let descriptors = std::iter::once(&manifest.config).chain(manifest.layers.iter());
            for (d, bytes) in descriptors.zip(&fetched.blobs) {
                cas.put(d.media_type, bytes.as_ref().clone());
            }
            let cpu =
                SimSpan::from_secs_f64(manifest.total_layer_size() as f64 / (1u64 << 30) as f64);
            let plain = hpcc_oci::encryption::decrypt_layers(manifest, &cas, key)
                .map_err(|_| EngineError::Unsupported("decryption failed (wrong key?)"))?;
            let blobs = std::iter::once(&plain.config)
                .chain(plain.layers.iter())
                .map(|d| cas.get(&d.digest))
                .collect::<Result<_, _>>()?;
            let plain = FetchedImage {
                manifest: plain,
                blobs,
            };
            Ok((plain, cpu))
        };
        let sources = PullSources::primary_only(registry);
        Self::pull_spanned(&self.ctx(), &sources, repo, tag, clock, decrypt, || None)
            .map(|(pulled, _)| pulled)
    }

    // ---------------------------------------------------------- prepare

    /// Convert/cache/mount the pulled image per the engine's native
    /// format. `explicit` marks a user-requested conversion (engines
    /// without transparent conversion require it).
    pub fn prepare(
        &self,
        pulled: &PulledImage,
        user: u32,
        _host: &Host,
        explicit: bool,
        clock: &SimClock,
    ) -> Result<Prepared, EngineError> {
        self.prepare_with(&self.ctx(), pulled, user, explicit, clock)
    }

    fn prepare_with(
        &self,
        ctx: &PullCtx,
        pulled: &PulledImage,
        user: u32,
        explicit: bool,
        clock: &SimClock,
    ) -> Result<Prepared, EngineError> {
        let name = sym!("engine.prepare");
        Self::spanned(&ctx.tracer, name, Stage::Convert, true, clock, |span| {
            let p = self.prepare_inner(ctx, pulled, user, explicit, clock)?;
            ctx.tracer.attr(span, sym!("root_kind"), p.root_kind);
            ctx.tracer.attr(span, sym!("cache_hit"), p.cache_hit);
            Ok(p)
        })
    }

    fn prepare_inner(
        &self,
        ctx: &PullCtx,
        pulled: &PulledImage,
        user: u32,
        explicit: bool,
        clock: &SimClock,
    ) -> Result<Prepared, EngineError> {
        let PullCtx {
            tracer,
            crash,
            journal,
            ..
        } = ctx;
        let rootfs = layer::flatten(&pulled.layers)?;

        let needs_conversion = !matches!(self.caps.native_format, NativeFormat::OciLayers);
        if needs_conversion && !self.caps.transparent_conversion && !explicit {
            return Err(EngineError::ExplicitConversionRequired);
        }

        let userns_creds = MountCredentials::in_own_userns(user);

        match self.caps.native_format {
            NativeFormat::OciLayers => {
                // Mount layers through (fuse-)overlayfs in a user
                // namespace, or kernel overlay when a root daemon does it.
                let lowers: Vec<Arc<MemFs>> = pulled
                    .layers
                    .iter()
                    .map(|l| {
                        let mut fs = MemFs::new();
                        layer::apply(&mut fs, l).map(|_| Arc::new(fs))
                    })
                    .collect::<Result<_, _>>()?;
                // Topmost-first for the overlay.
                let lowers: Vec<Arc<MemFs>> = lowers.into_iter().rev().collect();
                let overlay = Arc::new(OverlayFs::new(lowers));
                let (driver, root_kind): (Box<dyn FsDriver>, _) = if self.caps.requires_daemon {
                    // dockerd mounts as root with the kernel driver.
                    check_mount(
                        &MountCredentials::host_root(),
                        MountRequestKind::Overlay,
                        ImageProvenance::trusted(),
                    )?;
                    (Box::new(OverlayDriver::kernel(overlay)), "overlay-kernel")
                } else {
                    check_mount(
                        &userns_creds,
                        MountRequestKind::Fuse,
                        ImageProvenance::trusted(),
                    )?;
                    (Box::new(OverlayDriver::fuse(overlay)), "overlay-fuse")
                };
                Ok(Prepared {
                    root_kind,
                    driver,
                    rootfs,
                    config: pulled.config.clone(),
                    cache_hit: false,
                })
            }
            NativeFormat::SquashFile | NativeFormat::Sif => {
                let key = pulled.manifest.digest().oci();
                let total_bytes = rootfs.total_file_bytes(&VPath::root());
                let is_sif = matches!(self.caps.native_format, NativeFormat::Sif);
                let t_cache = clock.now();
                let cached = self.cache.lookup(&key, user);
                let hit = cached.is_some();
                tracer.record(
                    sym!("engine.cache"),
                    Stage::Cache,
                    t_cache,
                    clock.now(),
                    &[("hit", hit.to_string())],
                );
                let artifact = match cached {
                    Some(artifact) => artifact,
                    None => {
                        // Conversion runs as a journalled intent: the
                        // artifact only becomes durable (cache insert)
                        // after the conversion work — and its crash
                        // points — completed, so a crash mid-convert
                        // never leaves a cached artifact behind.
                        let intent = match journal {
                            Some(j) => Some(j.begin("engine.convert", &key, clock.now())?),
                            None => None,
                        };
                        // Simulated cost: each layer is compressed
                        // independently (~500 MiB/s) on the engine's
                        // worker pool, then one assemble pass (~1 GiB/s
                        // over the flattened tree) that depends on every
                        // layer stitches the image. The host work below
                        // has the same shape — `SquashImage::build`
                        // compresses its per-file blocks side by side,
                        // then lays them out in order — but it only sees
                        // bytes, never the clock, so it cannot move a
                        // simulated number.
                        let t_conv = clock.now();
                        let conv_span =
                            tracer.begin(sym!("engine.convert"), Stage::Convert, t_conv);
                        tracer.attr(
                            conv_span,
                            sym!("format"),
                            if is_sif { "sif" } else { "squash" },
                        );
                        tracer.attr(conv_span, sym!("bytes"), total_bytes);
                        let mut graph: TaskGraph<'_, EngineError> = TaskGraph::new();
                        let mut deps = Vec::with_capacity(pulled.layers.len());
                        for layer in &pulled.layers {
                            let bytes = layer.total_size();
                            deps.push(graph.add(
                                sym!("convert.layer"),
                                Stage::Convert,
                                &[],
                                move |at| {
                                    crash.crash_point("convert.layer.pre", at)?;
                                    Ok(TaskFinish::at(
                                        at + SimSpan::from_secs_f64(
                                            bytes as f64 / (500.0 * (1u64 << 20) as f64),
                                        ),
                                    )
                                    .attr("bytes", bytes))
                                },
                            ));
                        }
                        graph.add(sym!("convert.assemble"), Stage::Convert, &deps, move |at| {
                            crash.crash_point("convert.assemble.pre", at)?;
                            Ok(TaskFinish::at(
                                at + SimSpan::from_secs_f64(
                                    total_bytes as f64 / (1u64 << 30) as f64,
                                ),
                            )
                            .attr("bytes", total_bytes))
                        });
                        let run = Executor::new(ctx.parallelism).run(graph, t_conv, tracer);
                        let report = match run {
                            Ok(report) => report,
                            Err(e) => {
                                let stopped = e.stopped_at;
                                let mut error = e.error;
                                if let EngineError::Crash(c) = &mut error {
                                    // Close the convert span where the
                                    // schedule stopped so the task spans
                                    // the executor already recorded stay
                                    // nested inside it.
                                    c.at = c.at.max(stopped);
                                    clock.advance_to(c.at);
                                    tracer.end(conv_span, clock.now());
                                } else if let (Some(j), Some(intent)) = (journal, intent) {
                                    j.abort(intent, t_conv)?;
                                }
                                return Err(error);
                            }
                        };
                        clock.advance_to(report.end);
                        tracer.end(conv_span, clock.now());

                        crash.crash_point("convert.publish.pre", clock.now())?;
                        let artifact = if is_sif {
                            let sif = SifImage::build("Bootstrap: oci\n", &rootfs)
                                .expect("conversion of a flattened tree succeeds");
                            Arc::new(sif.to_bytes())
                        } else {
                            SquashImage::build(
                                &rootfs,
                                &VPath::root(),
                                hpcc_codec::compress::Codec::Lz,
                            )
                            .expect("conversion of a flattened tree succeeds")
                            .into_bytes()
                        };
                        self.cache.insert(&key, user, Arc::clone(&artifact));
                        if let (Some(j), Some(intent)) = (journal, intent) {
                            j.commit(intent, clock.now())?;
                        }
                        artifact
                    }
                };

                let squash = if is_sif {
                    let sif = SifImage::from_bytes(&artifact)?;
                    Arc::new(sif.open_partition()?)
                } else {
                    // The cache and the mount share one copy of the image.
                    Arc::new(SquashImage::from_bytes(artifact)?)
                };

                // Mount: suid-kernel or FUSE, by capability.
                let use_suid = self.caps.rootless_fs.contains(&RootlessFsMech::Suid);
                let (driver, root_kind): (Box<dyn FsDriver>, &'static str) = if use_suid {
                    // The conversion/caching service produced the image:
                    // not user-writable, not user-supplied.
                    check_mount(
                        &MountCredentials::setuid_helper(user),
                        MountRequestKind::KernelBlockImage,
                        ImageProvenance::trusted(),
                    )?;
                    (
                        Box::new(SquashDriver::kernel(squash)),
                        if is_sif {
                            "sif-kernel"
                        } else {
                            "squash-kernel"
                        },
                    )
                } else {
                    check_mount(
                        &userns_creds,
                        MountRequestKind::Fuse,
                        ImageProvenance::trusted(),
                    )?;
                    (
                        Box::new(SquashDriver::fuse(squash)),
                        if is_sif { "sif-fuse" } else { "squash-fuse" },
                    )
                };
                Ok(Prepared {
                    root_kind,
                    driver,
                    rootfs,
                    config: pulled.config.clone(),
                    cache_hit: hit,
                })
            }
            NativeFormat::UnpackedDir => {
                // Unpack: each layer extracts independently (~1 GiB/s)
                // on the engine's worker pool.
                let total_bytes = rootfs.total_file_bytes(&VPath::root());
                let t_conv = clock.now();
                let conv_span = tracer.begin(sym!("engine.convert"), Stage::Convert, t_conv);
                tracer.attr(conv_span, sym!("format"), "dir");
                tracer.attr(conv_span, sym!("bytes"), total_bytes);
                let mut graph: TaskGraph<'_, EngineError> = TaskGraph::new();
                for layer in &pulled.layers {
                    let bytes = layer.total_size();
                    graph.add(sym!("convert.unpack"), Stage::Convert, &[], move |at| {
                        Ok(TaskFinish::at(
                            at + SimSpan::from_secs_f64(bytes as f64 / (1u64 << 30) as f64),
                        )
                        .attr("bytes", bytes))
                    });
                }
                let report = Executor::new(ctx.parallelism)
                    .run(graph, t_conv, tracer)
                    .map_err(|e| e.error)?;
                clock.advance_to(report.end);
                tracer.end(conv_span, clock.now());
                let driver = Box::new(DirDriver::local(Arc::new(rootfs.clone()), VPath::root()));
                Ok(Prepared {
                    root_kind: "dir",
                    driver,
                    rootfs,
                    config: pulled.config.clone(),
                    cache_hit: false,
                })
            }
        }
    }

    // -------------------------------------------------------------- run

    /// Run a prepared image. Applies GPU/MPI/WLM enablement per the
    /// engine's capabilities, assembles the runtime spec and drives the
    /// OCI lifecycle to completion.
    pub fn run(
        &self,
        prepared: Prepared,
        user: u32,
        host: &Host,
        opts: RunOptions,
        clock: &SimClock,
    ) -> Result<RunReport, EngineError> {
        self.run_with(&self.ctx().tracer, prepared, user, host, opts, clock)
    }

    fn run_with(
        &self,
        tracer: &Tracer,
        prepared: Prepared,
        user: u32,
        host: &Host,
        opts: RunOptions,
        clock: &SimClock,
    ) -> Result<RunReport, EngineError> {
        let name = sym!("engine.run");
        Self::spanned(tracer, name, Stage::Run, false, clock, |span| {
            let report = self.run_inner(prepared, user, host, opts, clock)?;
            tracer.attr(span, sym!("exit"), report.container.exit_code.unwrap_or(-1));
            Ok(report)
        })
    }

    fn run_inner(
        &self,
        prepared: Prepared,
        user: u32,
        host: &Host,
        opts: RunOptions,
        clock: &SimClock,
    ) -> Result<RunReport, EngineError> {
        // Daemon requirement (Docker).
        if self.caps.requires_daemon && !host.daemons.contains("dockerd") {
            return Err(EngineError::DaemonNotRunning("dockerd"));
        }
        if !host.userns_enabled && !self.caps.requires_daemon {
            return Err(EngineError::Policy(PolicyViolation::NoMountCapability));
        }

        let mut rootfs = prepared.rootfs;
        let mut state: BTreeMap<String, String> = BTreeMap::new();
        if host.gpu_present {
            state.insert("host.gpu".into(), "present".into());
        }
        if let Some(devs) = &opts.wlm_granted_devices {
            state.insert("wlm.granted_devices".into(), devs.clone());
        }

        // Which enablement hooks run, and how.
        let runtime_runs_hooks = self.runtime.supports_oci_hooks
            && matches!(
                self.caps.oci_hooks,
                HookSupport::Yes | HookSupport::ManualRootOnly
            );
        let mut hook_names: Vec<&'static str> = Vec::new();
        if opts.gpu {
            match self.caps.gpu {
                GpuSupport::Builtin | GpuSupport::NvidiaOnly | GpuSupport::ViaOciHooks => {
                    hook_names.push("gpu-nvidia");
                    hook_names.push("wlm-devices");
                }
                GpuSupport::Manual => {
                    return Err(EngineError::Unsupported(
                        "automatic GPU enablement (manual setup required)",
                    ))
                }
                GpuSupport::No => return Err(EngineError::Unsupported("GPU enablement")),
            }
        }
        if let Some(flavor) = opts.mpi {
            match self.caps.lib_hookup {
                LibHookup::MpichOnly if flavor != MpiFlavor::Mpich => {
                    return Err(EngineError::Unsupported("non-MPICH MPI hookup"))
                }
                LibHookup::Manual => {
                    return Err(EngineError::Unsupported(
                        "automatic MPI hookup (manual setup required)",
                    ))
                }
                _ => {
                    hook_names.push("mpi-hookup");
                    if self.caps.abi_checks {
                        hook_names.push("abi-check");
                    }
                }
            }
        }

        // Assemble the spec.
        let namespaces = match self.caps.namespacing {
            crate::caps::ExecNamespacing::Full => Namespace::full_set(),
            crate::caps::ExecNamespacing::UserAndMount
            | crate::caps::ExecNamespacing::UserAndMountPlus => Namespace::hpc_set(),
        };
        let mut spec = RuntimeSpec {
            process: ProcessSpec {
                argv: prepared.config.argv(),
                env: prepared.config.env.clone(),
                cwd: prepared.config.working_dir.clone(),
                uid: 0,
                gid: 0,
            },
            namespaces,
            uid_mappings: vec![IdMapping::identity_single(user, 0)],
            gid_mappings: vec![IdMapping::identity_single(100, 0)],
            mounts: Vec::new(),
            hooks: Vec::new(),
            readonly_rootfs: true,
            resources: Default::default(),
            annotations: BTreeMap::new(),
        };
        if self.caps.requires_daemon {
            // Rootful daemon path: full id range available.
            spec.uid_mappings = vec![IdMapping {
                inside: 0,
                outside: 0,
                count: u32::MAX,
            }];
            spec.gid_mappings = spec.uid_mappings.clone();
        }

        if runtime_runs_hooks {
            for name in &hook_names {
                spec.hooks.push(HookRef {
                    stage: HookStage::CreateRuntime,
                    name: name.to_string(),
                });
            }
        } else {
            // Built-in / custom-framework enablement: the engine executes
            // the same logic itself before invoking the runtime.
            let mut tmp_spec = spec.clone();
            tmp_spec.hooks = hook_names
                .iter()
                .map(|n| HookRef {
                    stage: HookStage::CreateRuntime,
                    name: n.to_string(),
                })
                .collect();
            self.hooks.run_stage(
                HookStage::CreateRuntime,
                &mut rootfs,
                &mut tmp_spec,
                &host.fs,
                &mut state,
            )?;
            spec.process.env = tmp_spec.process.env;
        }

        // Credentials: daemon path is root, otherwise the user.
        let creds = if self.caps.requires_daemon {
            MountCredentials::host_root()
        } else {
            MountCredentials::unprivileged(user)
        };

        let mut container = self.runtime.create_with_state(
            spec,
            rootfs,
            &creds,
            &host.fs,
            &self.hooks,
            clock,
            state.clone(),
        )?;
        self.runtime
            .start(&mut container, opts.work, &host.fs, &self.hooks, clock)?;
        self.runtime
            .stop(&mut container, 0, &host.fs, &self.hooks, clock)?;

        // Merge runtime-hook state into the engine-collected state.
        for (k, v) in container.hook_state() {
            state.entry(k.clone()).or_insert_with(|| v.clone());
        }

        let monitor = match self.caps.monitor {
            MonitorModel::PerMachineDaemon(d) => Some(d),
            MonitorModel::PerContainer(m) => Some(m),
            MonitorModel::None => None,
        };

        Ok(RunReport {
            container,
            monitor,
            state,
        })
    }

    // ------------------------------------------------------- signatures

    /// Sign an image per the engine's signature model. For SIF engines
    /// this embeds a signature; for registry-attached models it returns
    /// the detached signature bytes to attach.
    pub fn sign_sif(&self, sif: &mut SifImage, key: &mut Keypair) -> Result<(), EngineError> {
        match self.caps.signature {
            SignatureSupport::GpgSifOnly => {
                sif.sign(key)?;
                Ok(())
            }
            _ => Err(EngineError::Unsupported("SIF signing")),
        }
    }

    /// Detached signing over a manifest digest (Notary / GPG+sigstore).
    pub fn sign_manifest(
        &self,
        manifest: &Manifest,
        key: &mut Keypair,
    ) -> Result<Vec<u8>, EngineError> {
        match self.caps.signature {
            SignatureSupport::Notary | SignatureSupport::GpgSigstore => {
                let sig = key
                    .sign(&manifest.digest())
                    .map_err(|_| EngineError::Unsupported("signing key exhausted"))?;
                let mut out = key.public().to_bytes();
                out.extend_from_slice(&sig.to_bytes());
                Ok(out)
            }
            SignatureSupport::GpgSifOnly => Err(EngineError::Unsupported(
                "signature verification of imported OCI containers",
            )),
            SignatureSupport::None => Err(EngineError::Unsupported("signing")),
        }
    }

    /// Verify a SIF's embedded signatures per capability.
    pub fn verify_sif(&self, sif: &SifImage) -> Result<Vec<String>, EngineError> {
        match self.caps.signature {
            SignatureSupport::GpgSifOnly => Ok(sif.verify()?),
            _ => Err(EngineError::Unsupported("SIF verification")),
        }
    }

    // ------------------------------------------------------- encryption

    /// Encrypt a SIF (engines with SIF-only encryption).
    pub fn encrypt_sif(&self, sif: &mut SifImage, key: &AeadKey) -> Result<(), EngineError> {
        match self.caps.encryption {
            EncryptionSupport::SifOnly | EncryptionSupport::Yes => {
                sif.encrypt(key, [0x42; 12])?;
                Ok(())
            }
            _ => Err(EngineError::Unsupported("container encryption")),
        }
    }

    /// Decrypt a SIF.
    pub fn decrypt_sif(&self, sif: &mut SifImage, key: &AeadKey) -> Result<(), EngineError> {
        match self.caps.encryption {
            EncryptionSupport::SifOnly | EncryptionSupport::Yes => {
                sif.decrypt(key)?;
                Ok(())
            }
            _ => Err(EngineError::Unsupported("container decryption")),
        }
    }

    // ------------------------------------------------------------ build

    /// Build an image as an unprivileged user (§4.1.2's fakeroot
    /// discussion, `apptainer build --fakeroot` style).
    ///
    /// Build steps expect root-like behaviour (chown, package-manager
    /// writes), so engines without a build tool refuse, and the requested
    /// fakeroot mechanism must both be available to the engine and work
    /// for the step's binaries: LD_PRELOAD fails on static tooling,
    /// ptrace needs CAP_SYS_PTRACE, user namespaces must be enabled.
    #[allow(clippy::too_many_arguments)]
    pub fn build_rootless(
        &self,
        cas: &hpcc_oci::cas::Cas,
        builder: hpcc_oci::builder::ImageBuilder<'_>,
        mode: hpcc_runtime::fakeroot::FakerootMode,
        build_workload: hpcc_runtime::fakeroot::SyscallWorkload,
        caps: &hpcc_runtime::caps::CapSet,
        host_cfg: hpcc_runtime::fakeroot::HostConfig,
        clock: &SimClock,
    ) -> Result<hpcc_oci::builder::BuiltImage, EngineError> {
        use hpcc_runtime::fakeroot::FakerootMode;
        if !self.caps.build_tool {
            return Err(EngineError::Unsupported("image building"));
        }
        let mode_available = match mode {
            FakerootMode::UserNs => self
                .caps
                .rootless
                .contains(&crate::caps::RootlessMech::UserNs),
            FakerootMode::LdPreload | FakerootMode::Ptrace => self
                .caps
                .rootless
                .contains(&crate::caps::RootlessMech::Fakeroot),
        };
        if !mode_available {
            return Err(EngineError::Unsupported(
                "this fakeroot mechanism on this engine",
            ));
        }
        // Pay the build's syscall-interception cost up front; failure
        // modes (static binaries, missing caps, disabled userns) abort
        // the build exactly like the real tools do.
        hpcc_runtime::fakeroot::run(
            mode,
            build_workload,
            caps,
            host_cfg,
            hpcc_runtime::fakeroot::FakerootCosts::default(),
            clock,
        )
        .map_err(|e| {
            EngineError::Container(ContainerError::Hook(hpcc_oci::hooks::HookError::Failed(
                e.to_string(),
            )))
        })?;
        builder.build(cas).map_err(|e| {
            EngineError::Container(ContainerError::Hook(hpcc_oci::hooks::HookError::Failed(
                e.to_string(),
            )))
        })
    }

    /// Convenience: the full pull→prepare→run pipeline against one
    /// registry, returning the wall-clock span it took.
    #[allow(clippy::too_many_arguments)]
    pub fn deploy(
        &self,
        registry: &Registry,
        repo: &str,
        tag: &str,
        user: u32,
        host: &Host,
        opts: RunOptions,
        clock: &SimClock,
    ) -> Result<(RunReport, SimSpan), EngineError> {
        let sources = PullSources::primary_only(registry);
        self.deploy_with(&sources, false, repo, tag, user, host, opts, clock)
            .map(|(report, took, _)| (report, took))
    }

    /// [`Engine::deploy`] with [`Engine::pull_resilient`] as its pull:
    /// the pull degrades across `sources` (and to the warm memo) when the
    /// primary is down; prepare and run are the same. Returns the report,
    /// the wall-clock span, and which source served the image.
    #[allow(clippy::too_many_arguments)]
    pub fn deploy_resilient(
        &self,
        sources: &PullSources<'_>,
        repo: &str,
        tag: &str,
        user: u32,
        host: &Host,
        opts: RunOptions,
        clock: &SimClock,
    ) -> Result<(RunReport, SimSpan, &'static str), EngineError> {
        self.deploy_with(sources, true, repo, tag, user, host, opts, clock)
    }

    #[allow(clippy::too_many_arguments)]
    fn deploy_with(
        &self,
        sources: &PullSources<'_>,
        memo_fallback: bool,
        repo: &str,
        tag: &str,
        user: u32,
        host: &Host,
        opts: RunOptions,
        clock: &SimClock,
    ) -> Result<(RunReport, SimSpan, &'static str), EngineError> {
        let ctx = self.ctx();
        let tracer = &ctx.tracer;
        let t0 = clock.now();
        let name = sym!("engine.deploy");
        Self::spanned(tracer, name, Stage::Other, false, clock, |span| {
            tracer.attr(span, sym!("image"), format_args!("{repo}:{tag}"));
            let (pulled, source) =
                self.pull_with(&ctx, sources, memo_fallback, repo, tag, clock)?;
            tracer.attr(span, sym!("source"), source);
            let prepared = self.prepare_with(&ctx, &pulled, user, true, clock)?;
            tracer.attr(
                span,
                sym!("root_kind"),
                format_args!("{:?}", prepared.root_kind),
            );
            tracer.attr(span, sym!("cache_hit"), prepared.cache_hit);
            let report = self.run_with(tracer, prepared, user, host, opts, clock)?;
            Ok((report, clock.now().since(t0), source))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines;
    use hpcc_oci::builder::samples;
    use hpcc_oci::cas::Cas;
    use hpcc_registry::registry::RegistryCaps;
    use hpcc_runtime::container::ContainerState;
    use hpcc_sim::{FaultKind, FaultRule};

    fn registry_with_solver(name: &'static str) -> Arc<Registry> {
        let reg = Registry::new(name, RegistryCaps::open());
        reg.create_namespace("hpc", None).unwrap();
        let cas = Cas::new();
        let img = samples::mpi_solver(&cas);
        reg.push_image("hpc/solver", "v1", &img.manifest, &cas)
            .unwrap();
        Arc::new(reg)
    }

    fn outage_forever(seed: u64) -> Arc<FaultInjector> {
        Arc::new(FaultInjector::new(
            seed,
            vec![FaultRule::sticky(
                FaultKind::RegistryUnavailable,
                SimTime::ZERO,
                SimTime(u64::MAX),
            )],
        ))
    }

    #[test]
    fn pull_retries_through_a_registry_blip() {
        let reg = registry_with_solver("site");
        // A 50ms 5xx window: the first attempt fails, the ~100ms backed-off
        // retry lands after it closes.
        let inj = Arc::new(FaultInjector::new(
            3,
            vec![FaultRule::sticky(
                FaultKind::RegistryUnavailable,
                SimTime::ZERO,
                SimTime::ZERO + SimSpan::millis(50),
            )],
        ));
        reg.set_fault_injector(Arc::clone(&inj));
        let engine = engines::apptainer();
        engine.set_fault_injector(Arc::clone(&inj));
        let clock = SimClock::new();
        let pulled = engine.pull(&reg, "hpc/solver", "v1", &clock).unwrap();
        assert!(!pulled.layers.is_empty());
        assert!(clock.now() > SimTime::ZERO + SimSpan::millis(50));
        assert_eq!(inj.metrics().get("retry.engine.pull.recovered"), 1);
        assert!(inj.metrics().get("faults.injected.registry_unavailable") >= 1);
    }

    #[test]
    fn wide_pull_pins_do_not_outlive_the_pull() {
        // Regression: the pull pipeline inserts fetched blobs into the
        // blob store (taking a refcount pin each) but used to never
        // release them, so every pulled blob stayed pinned forever and
        // the LRU had nothing it was allowed to evict. Race a wide
        // (P=16) pull against a store small enough that every insert is
        // under eviction pressure: in-flight pins must protect the blobs
        // *during* the pull, and must all be gone after it.
        let reg = registry_with_solver("site");
        let engine = engines::apptainer();
        engine.set_parallelism(16);
        let store = BlobStore::new(1, 4 * 1024);
        engine.set_blob_store(Arc::clone(&store));
        let clock = SimClock::new();
        let pulled = engine.pull(&reg, "hpc/solver", "v1", &clock).unwrap();
        assert!(!pulled.layers.is_empty());
        assert!(
            store.pinned().is_empty(),
            "pins outlived the pull: {:?}",
            store.pinned()
        );
        // With the pins gone the LRU can actually evict under pressure.
        let filler = Arc::new(vec![0xAAu8; 8 * 1024]);
        let d = hpcc_crypto::sha256::sha256(&filler);
        store.insert(d, filler);
        store.release(&d);
        assert!(store.stats().evictions >= 1, "{:?}", store.stats());
        // And a failed pull must not leak pins either.
        let inj = outage_forever(5);
        reg.set_fault_injector(Arc::clone(&inj));
        engine.set_fault_injector(inj);
        let _ = engine.pull(&reg, "hpc/solver", "v1", &clock).unwrap_err();
        assert!(store.pinned().is_empty());
    }

    #[test]
    fn pull_exhaustion_is_a_typed_error() {
        let reg = registry_with_solver("site");
        let inj = outage_forever(3);
        reg.set_fault_injector(Arc::clone(&inj));
        let engine = engines::apptainer();
        engine.set_fault_injector(Arc::clone(&inj));
        let clock = SimClock::new();
        let err = engine.pull(&reg, "hpc/solver", "v1", &clock).unwrap_err();
        match err {
            EngineError::Exhausted { op, attempts, last } => {
                assert_eq!(op, "engine.pull");
                assert_eq!(attempts, 5);
                assert!(matches!(
                    *last,
                    EngineError::Registry(RegistryError::Unavailable { .. })
                ));
            }
            other => panic!("expected Exhausted, got {other}"),
        }
        assert_eq!(inj.metrics().get("retry.engine.pull.giveup"), 1);
    }

    #[test]
    fn failed_pull_leaves_the_clock_where_the_ladder_stopped() {
        // Regression: `pull` used to return `Exhausted` without advancing
        // the clock, so seconds of simulated backoff vanished — the
        // caller's clock still read the start time and the `engine.pull`
        // span closed with zero duration.
        let reg = registry_with_solver("site");
        let inj = outage_forever(3);
        reg.set_fault_injector(Arc::clone(&inj));
        let engine = engines::apptainer();
        engine.set_fault_injector(inj);
        engine.set_retry_policy(RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::default()
        });
        let tracer = Tracer::new();
        engine.set_tracer(Arc::clone(&tracer));
        let clock = SimClock::new();
        let err = engine.pull(&reg, "hpc/solver", "v1", &clock).unwrap_err();
        assert!(matches!(err, EngineError::Exhausted { attempts: 5, .. }));
        // Four backoffs between five attempts: 100 + 200 + 400 + 800 ms.
        let backoffs = SimSpan::millis(1500);
        assert!(clock.now() >= SimTime::ZERO + backoffs, "{:?}", clock.now());
        let spans = tracer.finished();
        let pull = spans.iter().find(|s| s.name == "engine.pull").unwrap();
        assert!(pull.duration() >= backoffs);

        // A fatal first attempt, by contrast, costs no simulated time.
        let healthy = registry_with_solver("healthy");
        let clock = SimClock::new();
        engine
            .pull(&healthy, "hpc/ghost", "v1", &clock)
            .unwrap_err();
        assert_eq!(clock.now(), SimTime::ZERO);
    }

    #[test]
    fn setters_reach_the_next_operation_and_never_one_in_flight() {
        let reg = registry_with_solver("site");
        reg.set_fault_injector(outage_forever(1));
        let engine = engines::apptainer();
        let first = Arc::new(FaultInjector::new(1, Vec::new()));
        let three_tries = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        };
        // Two setters between operations: the next snapshot has both.
        engine.set_fault_injector(Arc::clone(&first));
        engine.set_retry_policy(three_tries);
        let ctx = engine.ctx();
        assert!(Arc::ptr_eq(&ctx.faults, &first));
        assert_eq!(ctx.retry, three_tries);

        // In flight, every attempt re-points the engine at another
        // injector and policy; the ladder keeps the snapshot it began with.
        let second = Arc::new(FaultInjector::new(2, Vec::new()));
        let clock = SimClock::new();
        let fetch = |_: &dyn PullBackend, _| -> Result<((), SimTime), EngineError> {
            engine.set_fault_injector(Arc::clone(&second));
            engine.set_retry_policy(RetryPolicy::no_retries());
            Err(RegistryError::Unavailable { status: 503 }.into())
        };
        let sources = PullSources::primary_only(&reg);
        let err = ctx
            .ladder(&PULL_OPS, &sources, &clock, fetch, || None)
            .unwrap_err();
        assert!(matches!(err, EngineError::Exhausted { attempts: 3, .. }));
        assert_eq!(first.metrics().get("retry.engine.pull.attempts"), 3);
        assert_eq!(second.metrics().get("retry.engine.pull.attempts"), 0);

        // The operation after that runs under what the setters left.
        let err = engine.pull(&reg, "hpc/solver", "v1", &clock).unwrap_err();
        assert!(matches!(err, EngineError::Exhausted { attempts: 1, .. }));
        assert_eq!(first.metrics().get("retry.engine.pull.attempts"), 3);
        assert_eq!(second.metrics().get("retry.engine.pull.attempts"), 1);
    }

    #[test]
    fn unknown_repo_is_fatal_not_retried() {
        let reg = registry_with_solver("site");
        let engine = engines::apptainer();
        let clock = SimClock::new();
        let err = engine.pull(&reg, "hpc/ghost", "v1", &clock).unwrap_err();
        assert!(matches!(err, EngineError::Registry(_)));
        let m = engine.fault_injector();
        assert_eq!(m.metrics().get("retry.engine.pull.attempts"), 1);
        assert_eq!(m.metrics().get("retry.engine.pull.fatal"), 1);
    }

    #[test]
    fn resilient_pull_degrades_to_warm_proxy() {
        let hub = registry_with_solver("hub");
        let site = Arc::new(Registry::new("site-cache", RegistryCaps::open()));
        let proxy = ProxyRegistry::new(Arc::clone(&site), Arc::clone(&hub)).unwrap();
        // Warm the proxy cache while the hub is healthy, then lose the hub.
        proxy
            .pull_manifest("hpc/solver", "v1", SimTime::ZERO)
            .unwrap();
        let inj = outage_forever(9);
        hub.set_fault_injector(Arc::clone(&inj));
        let engine = engines::apptainer();
        engine.set_fault_injector(Arc::clone(&inj));
        let clock = SimClock::new();
        let sources = PullSources {
            primary: &hub,
            tier: None,
            proxy: Some(&proxy),
            mirror: None,
        };
        let (pulled, source) = engine
            .pull_resilient(&sources, "hpc/solver", "v1", &clock)
            .unwrap();
        assert_eq!(source, "proxy");
        assert!(!pulled.layers.is_empty());
        assert_eq!(inj.metrics().get("degrade.engine.pull.primary_to_proxy"), 1);
        assert_eq!(inj.metrics().get("retry.engine.pull.giveup"), 1);
    }

    #[test]
    fn resilient_pull_degrades_to_warm_tier() {
        use hpcc_registry::{StormConfig, StormTopology};
        let hub = registry_with_solver("hub");
        let topo = StormTopology::with_origin(StormConfig::two_tier(8, 4), Arc::clone(&hub));
        let client = TierClient::new(Arc::clone(&topo), 0);
        // Warm the rack cache while the hub is healthy, then lose the hub.
        let (manifest, warm) = client
            .pull_manifest("hpc/solver", "v1", SimTime::ZERO)
            .unwrap();
        for d in std::iter::once(&manifest.config).chain(manifest.layers.iter()) {
            client.pull_blob(&d.digest, warm).unwrap();
        }
        let origin_before = topo.origin_requests();
        let inj = outage_forever(11);
        hub.set_fault_injector(Arc::clone(&inj));
        let engine = engines::apptainer();
        engine.set_fault_injector(Arc::clone(&inj));
        let clock = SimClock::new();
        let sources = PullSources {
            primary: &hub,
            tier: Some(&client),
            proxy: None,
            mirror: None,
        };
        let (pulled, source) = engine
            .pull_resilient(&sources, "hpc/solver", "v1", &clock)
            .unwrap();
        assert_eq!(source, "tier");
        assert!(!pulled.layers.is_empty());
        assert_eq!(inj.metrics().get("degrade.engine.pull.primary_to_tier"), 1);
        // The warm tier served the whole image without going back to origin.
        assert_eq!(topo.origin_requests(), origin_before);
    }

    #[test]
    fn resilient_pull_falls_back_to_warm_cache_when_everything_is_down() {
        let reg = registry_with_solver("site");
        let engine = engines::apptainer();
        let clock = SimClock::new();
        // A healthy pull warms the engine's memo.
        engine.pull(&reg, "hpc/solver", "v1", &clock).unwrap();
        // Then the registry goes away permanently.
        let inj = outage_forever(4);
        reg.set_fault_injector(Arc::clone(&inj));
        engine.set_fault_injector(Arc::clone(&inj));
        let (pulled, source) = engine
            .pull_resilient(&PullSources::primary_only(&reg), "hpc/solver", "v1", &clock)
            .unwrap();
        assert_eq!(source, "warm-cache");
        assert!(!pulled.layers.is_empty());
        assert_eq!(
            inj.metrics()
                .get("degrade.engine.pull.primary_to_warm_cache"),
            1
        );
    }

    #[test]
    fn deploy_resilient_completes_from_mirror() {
        let hub = registry_with_solver("hub");
        let mirror = registry_with_solver("mirror");
        let inj = outage_forever(6);
        hub.set_fault_injector(Arc::clone(&inj));
        let engine = engines::apptainer();
        engine.set_fault_injector(Arc::clone(&inj));
        let clock = SimClock::new();
        let host = Host::compute_node();
        let sources = PullSources {
            primary: &hub,
            tier: None,
            proxy: None,
            mirror: Some(&mirror),
        };
        let (report, span, source) = engine
            .deploy_resilient(
                &sources,
                "hpc/solver",
                "v1",
                1000,
                &host,
                RunOptions::default(),
                &clock,
            )
            .unwrap();
        assert_eq!(source, "mirror");
        assert_eq!(report.container.state(), ContainerState::Stopped);
        assert!(span > SimSpan::ZERO);
        assert_eq!(
            inj.metrics().get("degrade.engine.pull.primary_to_mirror"),
            1
        );
    }

    #[test]
    fn retry_plumbing_is_free_without_faults() {
        // With no fault schedule installed, the retry wrapper must not
        // change deploy timing at all (determinism of the seed experiments).
        let run = || {
            let reg = registry_with_solver("site");
            let engine = engines::apptainer();
            let clock = SimClock::new();
            let host = Host::compute_node();
            engine
                .deploy(
                    &reg,
                    "hpc/solver",
                    "v1",
                    1000,
                    &host,
                    RunOptions::default(),
                    &clock,
                )
                .unwrap();
            clock.now()
        };
        assert_eq!(run(), run());
    }
}
