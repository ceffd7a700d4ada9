//! The only file that calls into the `hpcc-*` crates. Every function is
//! one call (or one short fixed sequence) into one layer's public API, so
//! the workloads can put a span around each, and so a later change to the
//! program's entry points is a change to this file alone. Errors cross
//! the boundary as strings: the harness counts them, it does not handle
//! them.

use crate::gen::{Fnv, GenFile};
use hpcc_adapt::traces::{generate, TraceConfig, TraceShape};
use hpcc_adapt::{presets, FixedCri, RunSpec};
use hpcc_build::{
    build_fleet, sign_and_push, verified_pull, BuildCache, BuildRequest, BuildSpec, MpiFamily,
};
use hpcc_codec::compress::{compress, decompress, Codec};
use hpcc_crypto::sha256::{sha256, Digest};
use hpcc_crypto::translog::{verify_inclusion, TransparencyLog};
use hpcc_crypto::wots::{self, Keypair};
use hpcc_engine::engine::{Engine, Host, PullSources, RunOptions};
use hpcc_engine::engines;
use hpcc_engine::lazy::{publish_seekable, LazyContainer};
use hpcc_oci::builder::ImageBuilder;
use hpcc_oci::cas::Cas;
use hpcc_oci::layer;
use hpcc_registry::registry::{Registry, RegistryCaps, RegistryError};
use hpcc_registry::tiered::{ImageSpec, StormConfig, StormTopology};
use hpcc_sim::net::{Fabric, NodeId};
use hpcc_sim::obs::{trace_digest, Tracer};
use hpcc_sim::resilience::{BreakerConfig, CircuitBreaker};
use hpcc_sim::{
    des, Bytes, CrashInjector, DomainSchedule, DomainTopology, Executor, FaultInjector,
    MetricsRegistry, OutageKind, QueueServer, Recoverable, RetryPolicy, SimClock, SimSpan, SimTime,
    Stage, TaskFinish, TaskGraph,
};
use hpcc_storage::journal::JournaledStore;
use hpcc_storage::p2p::{broadcast_tree_from_seeds, chunk_count, DistributionTree, TreeSpec};
use hpcc_storage::BlobStore;
use hpcc_vfs::path::VPath;
use hpcc_vfs::seekable::{SeekableIndex, DEFAULT_CHUNK_SIZE};
use hpcc_vfs::squash::SquashImage;
use std::fmt::Display;
use std::sync::Arc;

pub use hpcc_adapt::TimedWorkload;
pub use hpcc_build::{BuildOutput, SignedImage};
pub use hpcc_codec::archive::Archive;
pub use hpcc_engine::engine::{Prepared, PulledImage};
pub use hpcc_oci::builder::BuiltImage;
pub use hpcc_vfs::fs::MemFs;

pub type SutResult<T> = Result<T, String>;

fn err(e: impl Display) -> String {
    e.to_string()
}

fn since_zero(t: SimTime) -> u64 {
    t.since(SimTime::ZERO).as_nanos()
}

/// Pipeline width of the eager path and the build fleet: the width the
/// repository's own goldens and suites run at.
pub const PARALLELISM: usize = 4;

// ---------------------------------------------------------------- images

/// A root tree holding `files`.
pub fn memfs_from(files: &[GenFile]) -> SutResult<MemFs> {
    let mut fs = MemFs::new();
    for (path, data) in files {
        fs.write_p(&VPath::parse(path), data.as_ref().clone())
            .map_err(err)?;
    }
    Ok(fs)
}

/// `ImageBuilder::build`: one layer per file, in order.
pub fn build_image(files: &[GenFile]) -> SutResult<(Cas, BuiltImage)> {
    let cas = Cas::new();
    let mut b = ImageBuilder::from_scratch();
    for (i, (path, data)) in files.iter().enumerate() {
        b = b.run(&format!("bulk-{i}"), move |fs| {
            fs.write_p(&VPath::parse(path), data.as_ref().clone())
                .map_err(|e| e.to_string())
        });
    }
    let entry = files.first().map_or("/bin/true", |(p, _)| p.as_str());
    let img = b.entrypoint(&[entry]).build(&cas).map_err(err)?;
    Ok((cas, img))
}

pub fn new_registry(name: &'static str) -> Registry {
    Registry::new(name, RegistryCaps::open())
}

/// `push_blob` for every blob of `img`, then `push_manifest`. Returns the
/// bytes pushed.
pub fn push_image(registry: &Registry, cas: &Cas, repo: &str, img: &BuiltImage) -> SutResult<u64> {
    let mut bytes = 0;
    for d in std::iter::once(&img.manifest.config).chain(img.manifest.layers.iter()) {
        let data = cas.get(&d.digest).map_err(err)?;
        bytes += data.len() as u64;
        registry
            .push_blob(d.media_type, d.digest, data.as_ref().clone())
            .map_err(err)?;
    }
    registry
        .push_manifest(repo, "v1", &img.manifest)
        .map_err(err)?;
    Ok(bytes)
}

pub fn create_namespace(registry: &Registry, name: &str) -> SutResult<()> {
    registry.create_namespace(name, None).map_err(err)
}

/// Manifest and blob pulls the registry has served so far.
pub fn registry_requests(registry: &Registry) -> u64 {
    let s = registry.stats();
    s.manifest_pulls + s.blob_pulls
}

pub type SutRegistry = Registry;

/// A live simulation tracer shared by one world.
pub fn sim_tracer() -> Arc<Tracer> {
    Tracer::new()
}

pub type SimTracer = Arc<Tracer>;

/// Digest and span count of what the simulation tracer holds, then
/// `Tracer::reset` so span memory does not grow with the op count.
pub fn take_sim_trace(tracer: &Tracer) -> (u64, u64) {
    let spans = tracer.finished();
    let out = (trace_digest(&spans), spans.len() as u64);
    tracer.reset();
    out
}

// ----------------------------------------------------------- eager_bulk

pub fn compute_host() -> Host {
    Host::compute_node()
}

pub type SutHost = Host;

/// A fresh compute node on the conventional path: `podman_hpc`, its own
/// node-local blob store, pipeline width [`PARALLELISM`].
pub struct EagerNode {
    engine: Engine,
    store: Arc<BlobStore>,
    faults: Arc<FaultInjector>,
    clock: SimClock,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EagerCounts {
    pub fetched_bytes: u64,
    pub convert_hits: u64,
    pub convert_misses: u64,
    pub store_hits: u64,
    pub store_misses: u64,
}

impl EagerNode {
    pub fn new(tracer: &SimTracer) -> EagerNode {
        let engine = engines::podman_hpc();
        engine.set_parallelism(PARALLELISM);
        let store = BlobStore::node_local();
        engine.set_blob_store(Arc::clone(&store));
        let faults = Arc::new(FaultInjector::new(0, Vec::new()));
        engine.set_fault_injector(Arc::clone(&faults));
        engine.set_tracer(Arc::clone(tracer));
        EagerNode {
            engine,
            store,
            faults,
            clock: SimClock::new(),
        }
    }

    pub fn pull(&self, registry: &Registry, repo: &str) -> SutResult<PulledImage> {
        self.engine
            .pull(registry, repo, "v1", &self.clock)
            .map_err(err)
    }

    pub fn prepare(&self, pulled: &PulledImage, host: &Host) -> SutResult<Prepared> {
        self.engine
            .prepare(pulled, 1000, host, true, &self.clock)
            .map_err(err)
    }

    /// Every file through the prepared driver, as `(path, bytes)`.
    pub fn read_all(&self, prepared: &Prepared) -> SutResult<Vec<(String, Vec<u8>)>> {
        prepared
            .driver
            .file_paths()
            .into_iter()
            .map(|p| {
                let data = prepared.driver.read_file(&p, &self.clock).map_err(err)?;
                Ok((p, data))
            })
            .collect()
    }

    /// Run to completion; returns the exit code.
    pub fn run(&self, prepared: Prepared, host: &Host) -> SutResult<i32> {
        let report = self
            .engine
            .run(prepared, 1000, host, RunOptions::default(), &self.clock)
            .map_err(err)?;
        Ok(report.container.exit_code.unwrap_or(-1))
    }

    pub fn sim_ns(&self) -> u64 {
        since_zero(self.clock.now())
    }

    pub fn counts(&self) -> EagerCounts {
        let (convert_hits, convert_misses) = self.engine.cache_stats();
        let s = self.store.stats();
        EagerCounts {
            fetched_bytes: self.faults.metrics().get("engine.pull.fetched_bytes"),
            convert_hits,
            convert_misses,
            store_hits: s.hits,
            store_misses: s.misses,
        }
    }
}

// ------------------------------------------------------ lazy_smallfiles

/// A registry holding one seekable image.
pub struct LazyWorld {
    pub registry: Registry,
    index_digest: Digest,
    index: SeekableIndex,
}

impl LazyWorld {
    /// `publish_seekable` of `rootfs` into a fresh registry.
    pub fn publish(rootfs: &MemFs) -> SutResult<LazyWorld> {
        let registry = new_registry("bench-lazy");
        let (index_digest, index) =
            publish_seekable(&registry, rootfs, &VPath::root(), DEFAULT_CHUNK_SIZE).map_err(err)?;
        Ok(LazyWorld {
            registry,
            index_digest,
            index,
        })
    }

    pub fn orig_bytes(&self) -> u64 {
        self.index.total_orig_bytes()
    }

    pub fn index_bytes(&self) -> Vec<u8> {
        self.index.to_bytes()
    }

    /// The stored (compressed) chunks of `path`, fetched from the
    /// registry's store without going through a pull.
    pub fn stored_chunks(&self, path: &str) -> SutResult<Vec<Arc<Vec<u8>>>> {
        let (_, chunks) = self
            .index
            .file_chunks(path.trim_start_matches('/'))
            .map_err(err)?;
        chunks
            .iter()
            .map(|c| self.registry.cas().get(&c.digest).map_err(err))
            .collect()
    }

    /// `assemble_file` for `path` from the registry's store.
    pub fn assemble(&self, path: &str) -> SutResult<Vec<u8>> {
        self.index
            .assemble_file(path.trim_start_matches('/'), |d| {
                self.registry.cas().get(d).ok()
            })
            .map_err(err)
    }

    /// `Registry::pull_blob` of the first chunk of `path`.
    pub fn pull_first_chunk(&self, path: &str) -> SutResult<usize> {
        let (_, chunks) = self
            .index
            .file_chunks(path.trim_start_matches('/'))
            .map_err(err)?;
        let first = chunks.first().ok_or("file has no chunks")?;
        let (data, _) = self
            .registry
            .pull_blob(&first.digest, SimTime::ZERO)
            .map_err(err)?;
        Ok(data.len())
    }
}

/// `SeekableIndex::from_bytes`; returns the entry count.
pub fn seekable_parse(bytes: &[u8]) -> SutResult<usize> {
    SeekableIndex::from_bytes(bytes)
        .map(|i| i.entry_count())
        .map_err(err)
}

/// A fresh node on the lazy path: `podman_hpc` over a journalled store.
pub struct LazyNode {
    engine: Engine,
    journal: Arc<JournaledStore>,
    faults: Arc<FaultInjector>,
    clock: SimClock,
}

/// A launched lazy container and the clock its reads charge.
pub struct Launched<'a> {
    container: LazyContainer<'a>,
    clock: &'a SimClock,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LazyCounts {
    pub chunk_misses: u64,
    pub chunk_hits: u64,
    pub chunks_prefetched: u64,
    pub bytes_fetched: u64,
}

impl Launched<'_> {
    pub fn read(&self, path: &str) -> SutResult<Vec<u8>> {
        self.container
            .read_file(path.trim_start_matches('/'), self.clock)
            .map_err(err)
    }

    pub fn counts(&self) -> LazyCounts {
        let s = self.container.stats();
        LazyCounts {
            chunk_misses: s.chunk_misses,
            chunk_hits: s.chunk_hits,
            chunks_prefetched: s.chunks_prefetched,
            bytes_fetched: s.bytes_fetched,
        }
    }
}

impl LazyNode {
    pub fn new() -> LazyNode {
        let engine = engines::podman_hpc();
        let journal = JournaledStore::new(BlobStore::node_local());
        engine.set_journaled_store(Arc::clone(&journal));
        let faults = Arc::new(FaultInjector::new(0, Vec::new()));
        engine.set_fault_injector(Arc::clone(&faults));
        LazyNode {
            engine,
            journal,
            faults,
            clock: SimClock::new(),
        }
    }

    pub fn pull_lazy<'a>(&'a self, world: &'a LazyWorld) -> SutResult<Launched<'a>> {
        let container = self
            .engine
            .pull_lazy(
                PullSources::primary_only(&world.registry),
                &world.index_digest,
                &self.clock,
            )
            .map_err(err)?;
        Ok(Launched {
            container,
            clock: &self.clock,
        })
    }

    /// `journal.recover()` as a node restart runs it; returns the intents
    /// rolled forward.
    pub fn recover(&self) -> SutResult<u64> {
        let report = self.journal.recover(self.clock.now()).map_err(err)?;
        self.clock.advance(report.took);
        Ok(report.rolled_forward)
    }

    pub fn journal_len(&self) -> u64 {
        self.journal.len() as u64
    }

    pub fn fetched_bytes(&self) -> u64 {
        self.faults.metrics().get("engine.lazy.fetched_bytes")
    }

    /// `(hits, misses)` of the node's blob store.
    pub fn store_lookups(&self) -> (u64, u64) {
        let s = self.journal.store().stats();
        (s.hits, s.misses)
    }

    pub fn sim_ns(&self) -> u64 {
        since_zero(self.clock.now())
    }
}

// -------------------------------------------------------- build_publish

/// Height of a tenant's WOTS key: 16 one-time leaves, three used per op.
pub const KEY_HEIGHT: u8 = 4;

pub fn keygen(seed: &[u8]) -> Keypair {
    Keypair::generate(seed, KEY_HEIGHT)
}

/// One site's build plane: origin registry, cross-tenant build cache,
/// push journal and transparency log, all growing as tenants onboard.
pub struct BuildWorld {
    pub registry: Registry,
    cache: Arc<BuildCache>,
    journal: Arc<JournaledStore>,
    crash: Arc<CrashInjector>,
    log: TransparencyLog,
    signer: Engine,
    pub tracer: SimTracer,
    clock: SimClock,
}

/// One app of a tenant: name and the payload of its own layer.
pub struct AppInput {
    pub name: String,
    pub payload: Arc<Vec<u8>>,
}

impl BuildWorld {
    pub fn new() -> BuildWorld {
        let tracer = sim_tracer();
        let signer = engines::podman_hpc();
        signer.set_tracer(Arc::clone(&tracer));
        let cache = BuildCache::new(BlobStore::node_local());
        let journal = JournaledStore::new(Arc::clone(cache.store()));
        let crash = CrashInjector::disabled();
        journal.set_crash_injector(Arc::clone(&crash));
        BuildWorld {
            registry: new_registry("origin"),
            cache,
            journal,
            crash,
            log: TransparencyLog::new(),
            signer,
            tracer,
            clock: SimClock::new(),
        }
    }

    pub fn onboard(&self, tenant: &str) -> SutResult<()> {
        self.registry.create_namespace(tenant, None).map_err(err)
    }

    /// `build_fleet` of the tenant's apps, each `libc` + `mpi_base` +
    /// its own payload, into a fresh builder-local image store.
    pub fn build(
        &self,
        tenant: &str,
        libc: &[u8],
        apps: &[AppInput],
    ) -> SutResult<(Cas, Vec<BuildOutput>)> {
        let requests: Vec<BuildRequest> = apps
            .iter()
            .map(|app| {
                let bin = format!("/opt/app/{}", app.name);
                let spec = BuildSpec::from_scratch(&app.name)
                    .run("base", &[("/usr/lib/libc.so", libc)])
                    .mpi_base(MpiFamily::Mpich)
                    .copy(&bin, app.payload.as_ref().clone())
                    .env("TENANT", tenant)
                    .entrypoint(&[&bin]);
                BuildRequest::new(tenant, &app.name, "v1", spec)
            })
            .collect();
        let cas = Cas::new();
        let outs = build_fleet(
            &requests,
            PARALLELISM,
            &self.cache,
            &cas,
            &self.tracer,
            &self.clock,
        )
        .map_err(err)?;
        Ok((cas, outs))
    }

    pub fn sign_and_push(
        &mut self,
        key: &mut Keypair,
        out: &BuildOutput,
        cas: &Cas,
    ) -> SutResult<SignedImage> {
        sign_and_push(
            &self.signer,
            key,
            &mut self.log,
            &self.registry,
            out,
            cas,
            &self.journal,
            &self.crash,
            &self.clock,
        )
        .map_err(err)
    }

    /// `verified_pull` on a fresh engine against the head `signed` was
    /// minted at; returns the files of the flattened pulled image.
    pub fn verified_pull(&self, signed: &SignedImage) -> SutResult<PulledImage> {
        let engine = engines::podman_hpc();
        engine.set_tracer(Arc::clone(&self.tracer));
        verified_pull(
            &engine,
            &self.registry,
            &signed.repo,
            &signed.tag,
            &signed.proof,
            &signed.head,
            &self.clock,
        )
        .map_err(err)
    }

    /// `(hits, misses)` of the build cache.
    pub fn cache_lookups(&self) -> (u64, u64) {
        let s = self.cache.stats();
        (s.hits, s.misses)
    }

    pub fn journal_len(&self) -> u64 {
        self.journal.len() as u64
    }

    pub fn log_size(&self) -> u64 {
        self.log.size()
    }

    pub fn sim_ns(&self) -> u64 {
        since_zero(self.clock.now())
    }
}

/// The file at `path` in the root that `pulled`'s layers flatten to, and
/// whether that root's tree digest is the one the build recorded.
pub fn pulled_file(
    pulled: &PulledImage,
    built: &BuildOutput,
    path: &str,
) -> SutResult<(Arc<Vec<u8>>, bool)> {
    let root = layer::flatten(&pulled.layers).map_err(err)?;
    let same_tree = root.tree_digest(&VPath::root()).map_err(err)? == built.root_digest;
    let data = root.read(&VPath::parse(path)).map_err(err)?;
    Ok((data, same_tree))
}

pub fn output_layers(out: &BuildOutput) -> &[Archive] {
    &out.image.layers
}

pub fn pulled_layers(pulled: &PulledImage) -> &[Archive] {
    &pulled.layers
}

// ---------------------------------------------------------- fleet_storm

/// Mirror replica a tripped breaker or an exhausted ladder falls back
/// to: slower than a healthy tiered pull, always reachable.
const MIRROR_RTT: SimSpan = SimSpan(2_000_000);
const MIRROR_BANDWIDTH_BPS: f64 = (1u64 << 30) as f64;
const MIRROR_SLOTS: usize = 16;

/// A fleet behind the tiered registry on a seeded game-day schedule.
pub struct StormWorld {
    nodes: usize,
    topo: Arc<StormTopology>,
    schedule: Arc<DomainSchedule>,
    faults: Arc<FaultInjector>,
    crash: Arc<CrashInjector>,
    mirror: QueueServer,
    breaker: CircuitBreaker,
    policy: RetryPolicy,
    tree: DistributionTree,
    fabric: Fabric,
    ids: Vec<NodeId>,
    p2p_metrics: MetricsRegistry,
    pub tracer: SimTracer,
}

pub type SutImageSpec = ImageSpec;

/// Modelled size of every fleet image: 4 blobs, 256 MiB.
pub fn synthetic_image(label: &str) -> ImageSpec {
    ImageSpec::synthetic(label, 4, Bytes::mib(256))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WaveOutcome {
    pub pulls: u64,
    pub down_skipped: u64,
    pub mirror_fallbacks: u64,
    pub breaker_rejects: u64,
    pub gave_up: u64,
    /// Completion of the slowest pull, ns since time zero.
    pub last_done_ns: u64,
    /// FNV-1a over every pull's completion time, in node order.
    pub done_digest: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TierCounts {
    pub rack_hits: u64,
    pub rack_requests: u64,
    pub origin_requests: u64,
}

/// Outage windows of the game-day schedule: three back-to-back windows
/// of `GAME_DAY_OUTAGE` starting at `GAME_DAY_WARMUP`.
pub const GAME_DAY_WARMUP: SimSpan = SimSpan(20_000_000_000);
pub const GAME_DAY_OUTAGE: SimSpan = SimSpan(20_000_000_000);

impl StormWorld {
    /// The game day is the first of the seeds following `seed` whose row
    /// partition hits a middle row. The breaker trips on the first nodes
    /// of that row and sends the rest of the wave to the mirror, so the
    /// row's place in node order decides how much of the wave is pulled
    /// for real: anywhere from none to all of it, were it left to chance.
    pub fn new(nodes: usize, seed: u64) -> StormWorld {
        let domain = DomainTopology::default_for(nodes);
        let middle = domain.rows() / 2;
        let (seed, schedule) = (0..)
            .map(|k| {
                let seed = seed.wrapping_add(k);
                let day = DomainSchedule::game_day(domain, seed, GAME_DAY_WARMUP, GAME_DAY_OUTAGE);
                (seed, day)
            })
            .find(|(_, day)| {
                day.events().iter().any(|e| {
                    matches!(e.kind, OutageKind::RowPartition { row } if row.abs_diff(middle) <= 1)
                })
            })
            .expect("some seed partitions a middle row");
        let schedule = Arc::new(schedule);
        let faults = Arc::new(FaultInjector::new(seed, schedule.fault_rules()));
        let crash = CrashInjector::disabled();
        let topo = StormTopology::new(StormConfig::default_for(nodes));
        topo.set_domain_schedule(
            Arc::clone(&schedule),
            Arc::clone(&faults),
            Arc::clone(&crash),
        );
        let tracer = sim_tracer();
        topo.set_tracer(Arc::clone(&tracer));
        let tree = DistributionTree::build(
            nodes,
            TreeSpec {
                seeds: (nodes / 256).clamp(2, 16).min(nodes),
                ..TreeSpec::default()
            },
        );
        let ids: Vec<NodeId> = (0..nodes as u32).map(NodeId).collect();
        let fabric = Fabric::with_defaults(ids.iter().copied());
        StormWorld {
            nodes,
            topo,
            schedule,
            faults,
            crash,
            mirror: QueueServer::new(MIRROR_SLOTS),
            breaker: CircuitBreaker::new("origin", BreakerConfig::default()),
            // Three attempts, half-second base backoff: what the ladder
            // cannot save inside ~20 s belongs on the mirror.
            policy: RetryPolicy {
                max_attempts: 3,
                base_backoff: SimSpan(500_000_000),
                max_backoff: SimSpan(4_000_000_000),
                multiplier: 2.0,
                jitter: 0.0,
                deadline: SimSpan(20_000_000_000),
                attempt_timeout: None,
            },
            tree,
            fabric,
            ids,
            p2p_metrics: MetricsRegistry::new(),
            tracer,
        }
    }

    pub fn racks(&self) -> usize {
        self.schedule.topology().racks()
    }

    fn mirror_pull(&self, image: &ImageSpec, at: SimTime) -> SimTime {
        let xfer = SimSpan::from_secs_f64(image.total_bytes() as f64 / MIRROR_BANDWIDTH_BPS);
        self.mirror.submit(at + MIRROR_RTT, xfer).1
    }

    /// One pull behind the breaker and the retry ladder, with mirror
    /// fallback: always delivers.
    fn pull_once(
        &self,
        node: usize,
        image: &ImageSpec,
        start: SimTime,
        out: &mut WaveOutcome,
    ) -> SutResult<SimTime> {
        if !self
            .breaker
            .allow(&self.faults, &self.crash, start)
            .map_err(err)?
        {
            out.breaker_rejects += 1;
            out.mirror_fallbacks += 1;
            return Ok(self.mirror_pull(image, start));
        }
        let run = self.policy.run_timed(
            &self.faults,
            "storm.pull",
            Stage::Pull,
            start,
            |e: &RegistryError| e.is_transient(),
            |_, at| {
                self.topo
                    .pull_image_sized(node, 0, image, at)
                    .map(|(done, _)| ((), done))
            },
        );
        match run {
            Ok(ok) => {
                self.breaker.on_success(&self.faults, ok.done);
                Ok(ok.done)
            }
            Err(e) => {
                if e.gave_up {
                    out.gave_up += 1;
                    self.breaker.on_failure(&self.faults, e.at);
                }
                out.mirror_fallbacks += 1;
                Ok(self.mirror_pull(image, e.at))
            }
        }
    }

    /// One wave: every live node pulls its rack's image, 1 ms apart
    /// from `base_ns`.
    pub fn wave(&self, images: &[ImageSpec], base_ns: u64) -> SutResult<WaveOutcome> {
        let rack_size = self.schedule.topology().rack_size;
        let base = SimTime(base_ns);
        let mut out = WaveOutcome::default();
        let mut done_digest = Fnv::new();
        for node in 0..self.nodes {
            let start = base + SimSpan::millis(node as u64);
            if self.schedule.node_down(node, start) {
                out.down_skipped += 1;
                continue;
            }
            out.pulls += 1;
            let done = self.pull_once(node, &images[node / rack_size], start, &mut out)?;
            let done_ns = since_zero(done);
            out.last_done_ns = out.last_done_ns.max(done_ns);
            done_digest.u64(done_ns);
        }
        out.done_digest = done_digest.finish();
        Ok(out)
    }

    /// The seeds pull `image` through the tiers at `start_ns`, then push
    /// it down `broadcast_tree_from_seeds`. Returns when the slowest
    /// node finished, ns since time zero.
    pub fn broadcast(&self, image: &ImageSpec, start_ns: u64) -> SutResult<u64> {
        let start = SimTime(start_ns);
        let spec = self.tree.spec();
        let mut seed_chunk_done = Vec::with_capacity(spec.seeds);
        for s in 0..spec.seeds {
            let node = self.tree.assignments()[self.tree.seed_root(s)];
            let done = match self.topo.pull_image_sized(node, 0, image, start) {
                Ok((done, _)) => done,
                // A seed inside an outage fetches from the mirror.
                Err(_) => self.mirror_pull(image, start),
            };
            let chunks = chunk_count(Bytes::new(image.total_bytes()), spec.chunk);
            seed_chunk_done.push(vec![done; chunks]);
        }
        let report = broadcast_tree_from_seeds(
            &self.fabric,
            Bytes::new(image.total_bytes()),
            &self.ids,
            &self.tree,
            &seed_chunk_done,
            start,
            &self.faults,
            &self.tracer,
            &self.p2p_metrics,
        );
        Ok(since_zero(report.all_done))
    }

    pub fn tier_counts(&self) -> TierCounts {
        let rack = self.topo.tier_stats(0);
        TierCounts {
            rack_hits: rack.hits,
            rack_requests: rack.hits + rack.misses,
            origin_requests: self.topo.origin_requests(),
        }
    }

    /// `DomainSchedule::node_down` for every node at `at_ns`; returns how
    /// many are down.
    pub fn nodes_down(&self, at_ns: u64) -> usize {
        (0..self.nodes)
            .filter(|n| self.schedule.node_down(*n, SimTime(at_ns)))
            .count()
    }
}

// -------------------------------------------------------- adapt_control

pub const ADAPT_NODES: u32 = 64;
pub const ADAPT_PRESETS: [&str; 3] = ["static", "queue-threshold", "ewma-forecast"];
pub const ADAPT_SHAPES: [&str; 3] = ["bursty", "diurnal", "poisson"];

/// Arrival window, jobs and pods of one trace. The controller costs
/// 10–20 µs of host time per one-second tick on 64 nodes and the longest
/// job alone keeps it ticking for most of an hour, so this is the size at
/// which one op (three runs) is ≈0.1 s and every preset finishes the
/// trace inside its six-hour horizon.
const ADAPT_WINDOW: SimSpan = SimSpan(900 * 1_000_000_000);
const ADAPT_JOBS: usize = 12;
const ADAPT_PODS: usize = 18;
const ADAPT_BURSTS: u32 = 3;

/// A trace for 64 nodes, shape by index.
pub fn adapt_trace(seed: u64, shape: usize) -> TimedWorkload {
    let shape = match shape % ADAPT_SHAPES.len() {
        0 => TraceShape::Bursty {
            bursts: ADAPT_BURSTS,
            pods_per_burst: ADAPT_PODS as u32 / ADAPT_BURSTS,
            spacing: SimSpan::secs(300),
            first_at: SimSpan::secs(60),
        },
        1 => TraceShape::Diurnal {
            period: SimSpan::secs(450),
        },
        _ => TraceShape::Poisson,
    };
    generate(&TraceConfig {
        seed,
        shape,
        duration: ADAPT_WINDOW,
        nodes: ADAPT_NODES,
        n_jobs: ADAPT_JOBS,
        n_pods: ADAPT_PODS,
        job_window: ADAPT_WINDOW,
    })
}

/// What `trace` alone says about how long the controller will tick:
/// seconds from time zero until its last job or pod would end if nothing
/// ever queued, and the node-seconds its jobs ask the WLM for.
pub fn trace_load(trace: &TimedWorkload) -> (u64, u64) {
    let jobs = trace.jobs.iter().map(|(j, at)| *at + j.actual_runtime);
    let pods = trace.pods.iter().map(|(p, at)| *at + p.duration);
    let span_ns = jobs.chain(pods).map(since_zero).max().unwrap_or(0);
    let node_ns: u64 = trace
        .jobs
        .iter()
        .map(|(j, _)| j.nodes as u64 * j.actual_runtime.as_nanos())
        .sum();
    (span_ns / 1_000_000_000, node_ns / 1_000_000_000)
}

pub fn trace_sizes(trace: &TimedWorkload) -> (usize, usize) {
    (trace.jobs.len(), trace.pods.len())
}

#[derive(Debug, Clone, PartialEq)]
pub struct AdaptSummary {
    pub makespan_ns: u64,
    pub decisions: u64,
    pub reprovisions: u64,
    pub jobs_completed: u64,
    pub pods_succeeded: u64,
    /// Control-loop ticks the run covered.
    pub ticks: u64,
    /// FNV-1a of the whole outcome struct.
    pub digest: u64,
}

/// `hpcc_adapt::run` of `trace` under preset `preset` with a fixed
/// 1.2 s container start-up.
pub fn adapt_run(trace: &TimedWorkload, preset: usize) -> AdaptSummary {
    let (policy, config) = match preset % ADAPT_PRESETS.len() {
        0 => presets::static_partition(ADAPT_NODES),
        1 => presets::on_demand_reallocation(ADAPT_NODES),
        _ => presets::ewma_forecast(ADAPT_NODES, SimSpan::secs(300), 2),
    };
    let tick = config.tick;
    let out = hpcc_adapt::run(RunSpec {
        workload: trace,
        policy,
        config,
        cri: Arc::new(FixedCri(SimSpan::millis(1200))),
        tracer: Tracer::disabled(),
        faults: FaultInjector::disabled(),
        domains: None,
        scenario: "hostbench",
    });
    let mut digest = Fnv::new();
    digest.bytes(format!("{out:?}").as_bytes());
    AdaptSummary {
        makespan_ns: out.makespan.0,
        decisions: out.decisions.len() as u64,
        reprovisions: out.reprovisions as u64,
        jobs_completed: out.jobs_completed as u64,
        pods_succeeded: out.pods_succeeded as u64,
        ticks: out.makespan.0 / tick.0.max(1),
        digest: digest.finish(),
    }
}

// ------------------------------------------------------- layer replays

pub fn compress_lz(data: &[u8]) -> Vec<u8> {
    compress(Codec::Lz, data)
}

pub fn decompress_any(stored: &[u8]) -> SutResult<Vec<u8>> {
    decompress(stored).map_err(err)
}

pub fn archive_encode(a: &Archive) -> Vec<u8> {
    a.to_bytes()
}

pub fn archive_decode(bytes: &[u8]) -> SutResult<Archive> {
    Archive::from_bytes(bytes).map_err(err)
}

pub fn sha256_of(data: &[u8]) -> [u8; 32] {
    sha256(data).0
}

pub fn flatten(layers: &[Archive]) -> SutResult<MemFs> {
    layer::flatten(layers).map_err(err)
}

/// `layer::diff`; returns the entry count of the changeset.
pub fn diff(base: &MemFs, target: &MemFs) -> SutResult<usize> {
    layer::diff(base, target).map(|a| a.len()).map_err(err)
}

pub fn file_count(fs: &MemFs) -> usize {
    fs.file_count(&VPath::root())
}

pub fn file_bytes(fs: &MemFs) -> u64 {
    fs.total_file_bytes(&VPath::root())
}

/// `SquashImage::build` with LZ; returns the image size.
pub fn squash_build(rootfs: &MemFs) -> SutResult<u64> {
    SquashImage::build(rootfs, &VPath::root(), Codec::Lz)
        .map(|s| s.len_bytes())
        .map_err(err)
}

/// WOTS `sign` then `verify` of `msg` under a fresh key; the two calls
/// are handed to `timed` separately.
pub fn wots_round(
    seed: &[u8],
    msg: [u8; 32],
    mut timed: impl FnMut(&'static str, &mut dyn FnMut()),
) -> SutResult<bool> {
    let mut key = keygen(seed);
    let public = key.public();
    let digest = Digest(msg);
    let mut sig = None;
    timed("probe.crypto.wots_sign", &mut || {
        sig = Some(key.sign(&digest))
    });
    let sig = sig.expect("sign ran").map_err(err)?;
    let mut ok = false;
    timed("probe.crypto.wots_verify", &mut || {
        ok = wots::verify(&public, &digest, &sig)
    });
    Ok(ok)
}

/// A transparency log of `size` entries for the append/verify replays.
pub struct ProbeLog(TransparencyLog);

impl ProbeLog {
    pub fn with_entries(size: u64) -> ProbeLog {
        let mut log = TransparencyLog::new();
        for i in 0..size {
            log.append(&i.to_le_bytes());
        }
        ProbeLog(log)
    }

    /// `append` + `prove_inclusion`, then `verify_inclusion`, each handed
    /// to `timed`.
    pub fn round(
        &mut self,
        entry: &[u8],
        mut timed: impl FnMut(&'static str, &mut dyn FnMut()),
    ) -> bool {
        let log = &mut self.0;
        let mut minted = None;
        timed("probe.crypto.translog_append", &mut || {
            let idx = log.append(entry);
            minted = log.prove_inclusion(idx).map(|p| (p, log.head()));
        });
        let Some((proof, head)) = minted else {
            return false;
        };
        let mut ok = false;
        timed("probe.crypto.translog_verify", &mut || {
            ok = verify_inclusion(&head, entry, &proof)
        });
        ok
    }
}

/// Insert then get each blob in a fresh node-local store.
pub fn blobstore_round(blobs: &[Arc<Vec<u8>>]) -> usize {
    let store = BlobStore::node_local();
    let digests: Vec<Digest> = blobs.iter().map(|b| sha256(b)).collect();
    let mut found = 0;
    for (d, b) in digests.iter().zip(blobs) {
        store.insert(*d, Arc::clone(b));
    }
    for d in &digests {
        found += store.get(d).is_some() as usize;
    }
    found
}

/// One `begin`/`stage`…/`commit` intent staging `blobs`; returns the
/// records written.
pub fn journal_round(blobs: &[Arc<Vec<u8>>]) -> SutResult<u64> {
    let journal = JournaledStore::new(BlobStore::node_local());
    let digests: Vec<Digest> = blobs.iter().map(|b| sha256(b)).collect();
    let intent = journal
        .begin("probe", "replay", SimTime::ZERO)
        .map_err(err)?;
    for (d, b) in digests.iter().zip(blobs) {
        journal
            .stage(intent, *d, Arc::clone(b), SimTime::ZERO)
            .map_err(err)?;
    }
    journal.commit(intent, SimTime::ZERO).map_err(err)?;
    Ok(journal.len() as u64)
}

/// `Executor::run` over `chains` chains of `depth` no-op tasks on
/// [`PARALLELISM`] workers — the shape of a build fleet's DAG.
pub fn exec_round(chains: usize, depth: usize) -> SutResult<usize> {
    let mut graph: TaskGraph<'_, String> = TaskGraph::new();
    for _ in 0..chains {
        let mut prev = None;
        for _ in 0..depth {
            let deps: Vec<_> = prev.into_iter().collect();
            prev = Some(graph.add("probe.task", Stage::Request, &deps, |at| {
                Ok(TaskFinish::at(at + SimSpan(1_000)))
            }));
        }
    }
    let n = graph.len();
    Executor::new(PARALLELISM)
        .run(graph, SimTime::ZERO, &Tracer::disabled())
        .map_err(|e| e.to_string())?;
    Ok(n)
}

/// A self-rescheduling tick on `des::Engine`, `ticks` events long.
pub fn des_round(ticks: u64) -> u64 {
    fn tick(engine: &mut des::Engine<u64>, left: &mut u64) {
        if *left > 0 {
            *left -= 1;
            engine.after(SimSpan(1_000_000), tick);
        }
    }
    let mut engine: des::Engine<u64> = des::Engine::new();
    let mut left = ticks;
    engine.after(SimSpan(1_000_000), tick);
    engine.run_to_completion(&mut left, ticks + 2)
}

/// `Tracer::begin`/`end` pairs on a live tracer.
pub fn obs_round(spans: u64) -> u64 {
    let tracer = Tracer::new();
    for i in 0..spans {
        let id = tracer.begin("probe.span", Stage::Request, SimTime(i));
        tracer.end(id, SimTime(i + 1));
    }
    tracer.span_count() as u64
}

/// `QueueServer::submit` on a 16-slot server.
pub fn queue_round(submits: u64) -> u64 {
    let q = QueueServer::new(16);
    let mut last = 0;
    for i in 0..submits {
        last = since_zero(q.submit(SimTime(i * 1_000), SimSpan(50_000)).1);
    }
    last
}

/// `CircuitBreaker::allow` + `RetryPolicy::run_timed` around an attempt
/// that succeeds at once.
pub fn resilience_round(decisions: u64) -> SutResult<u64> {
    let faults = FaultInjector::new(0, Vec::new());
    let crash = CrashInjector::disabled();
    let breaker = CircuitBreaker::new("probe", BreakerConfig::default());
    let policy = RetryPolicy::default();
    let mut allowed = 0;
    for i in 0..decisions {
        let now = SimTime(i * 1_000);
        if breaker.allow(&faults, &crash, now).map_err(err)? {
            let ok = policy
                .run_timed(
                    &faults,
                    "probe",
                    Stage::Request,
                    now,
                    |_: &String| false,
                    |_, at| Ok(((), at + SimSpan(1_000))),
                )
                .map_err(|e| e.cause.to_string())?;
            breaker.on_success(&faults, ok.done);
            allowed += 1;
        }
    }
    Ok(allowed)
}
