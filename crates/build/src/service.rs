//! Lowering build specs onto the bounded-worker DAG executor.
//!
//! Every [`BuildRequest`] becomes a linear chain of `build.step` tasks in
//! one shared [`TaskGraph`] — a fleet of N tenants × M builds is one
//! deterministic `Executor::run` over logical time, exactly the machinery
//! the pull→convert pipeline already rides. Each task probes the shared
//! [`BuildCache`] first: a hit replays the cached layer at metadata speed
//! (`CACHE_HIT_COST`), a miss executes the step (latency + bytes/bandwidth)
//! and populates the cache, so unchanged prefixes rebuild in ~zero logical
//! time and identical steps dedup across tenants.

use crate::cache::{BuildCache, CachedLayer};
use crate::spec::BuildSpec;
use hpcc_crypto::sha256::Digest;
use hpcc_oci::builder::BuiltImage;
use hpcc_oci::cas::Cas;
use hpcc_oci::image::{Manifest, MediaType};
use hpcc_oci::layer::{self, SealedLayer};
use hpcc_sim::obs::{Stage, Tracer};
use hpcc_sim::sym;
use hpcc_sim::{Executor, SimClock, SimSpan, SimTime, TaskFinish, TaskGraph};
use hpcc_vfs::fs::{FsError, MemFs};
use hpcc_vfs::path::VPath;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Fixed per-step process overhead of a cache miss (spawn, snapshot).
pub(crate) const STEP_LATENCY: SimSpan = SimSpan(2_000_000); // 2 ms
/// Write bandwidth a cold step's payload pays.
pub(crate) const STEP_WRITE_BPS: u64 = 256 << 20;
/// Probing the cache index (either outcome pays this).
pub(crate) const CACHE_PROBE_COST: SimSpan = SimSpan(10_000); // 10 µs
/// Replaying a cached layer: metadata-speed, the incremental-rebuild win.
pub(crate) const CACHE_HIT_COST: SimSpan = SimSpan(20_000); // 20 µs
/// Config-only steps (env/entrypoint) are bookkeeping.
pub(crate) const CONFIG_STEP_COST: SimSpan = SimSpan(5_000); // 5 µs

/// One tenant's build order: where the image goes once built.
#[derive(Debug, Clone)]
pub struct BuildRequest {
    /// Tenant name == registry namespace the push is charged to.
    pub tenant: String,
    /// Repository (must live under the tenant namespace, `tenant/name`).
    pub repo: String,
    pub tag: String,
    pub spec: BuildSpec,
}

impl BuildRequest {
    pub fn new(tenant: &str, name: &str, tag: &str, spec: BuildSpec) -> BuildRequest {
        BuildRequest {
            tenant: tenant.to_string(),
            repo: format!("{tenant}/{name}"),
            tag: tag.to_string(),
            spec,
        }
    }
}

/// A finished build, ready to sign and push.
#[derive(Debug)]
pub struct BuildOutput {
    pub tenant: String,
    pub repo: String,
    pub tag: String,
    pub image: BuiltImage,
    /// Tree digest of the flattened root — the byte-identity the
    /// round-trip test compares against the pulled image.
    pub root_digest: Digest,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub started: SimTime,
    pub finished: SimTime,
}

/// Errors out of the build plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A step's filesystem effect failed (bad path, write over dir, …).
    Step {
        step: String,
        reason: String,
    },
    Fs(FsError),
}

impl From<FsError> for BuildError {
    fn from(e: FsError) -> BuildError {
        BuildError::Fs(e)
    }
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Step { step, reason } => write!(f, "build step {step} failed: {reason}"),
            BuildError::Fs(e) => write!(f, "build filesystem: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Mutable state threaded down one request's task chain.
struct ChainState {
    fs: MemFs,
    layers: Vec<SealedLayer>,
    config: hpcc_oci::image::ImageConfig,
    hits: u64,
    misses: u64,
}

fn span_nanos_for_bytes(bytes: u64, bps: u64) -> SimSpan {
    SimSpan(bytes.saturating_mul(1_000_000_000) / bps.max(1))
}

/// Build a whole fleet of requests on `workers` bounded workers, sharing
/// `cache` for cross-tenant step dedup. Finished images' blobs land in
/// `cas` (the builder-local image store the push stage reads from).
///
/// The executor's schedule — and therefore every span and cache hit/miss
/// count — is deterministic: ties break on (earliest-start, lowest task
/// id), and task bodies run in schedule order.
pub fn build_fleet(
    requests: &[BuildRequest],
    workers: usize,
    cache: &Arc<BuildCache>,
    cas: &Cas,
    tracer: &Arc<Tracer>,
    clock: &SimClock,
) -> Result<Vec<BuildOutput>, BuildError> {
    let start = clock.now();
    let mut graph: TaskGraph<'_, BuildError> = TaskGraph::new();
    let mut chains: Vec<Arc<Mutex<ChainState>>> = Vec::with_capacity(requests.len());
    let mut task_ranges: Vec<Vec<hpcc_sim::TaskId>> = Vec::with_capacity(requests.len());

    for req in requests {
        let base_fs = layer::flatten(&req.spec.base_layers)?;
        let chain = Arc::new(Mutex::new(ChainState {
            fs: base_fs,
            layers: req
                .spec
                .base_layers
                .iter()
                .cloned()
                .map(SealedLayer::seal)
                .collect(),
            config: req.spec.base_config.clone(),
            hits: 0,
            misses: 0,
        }));
        chains.push(Arc::clone(&chain));

        let states = req.spec.state_chain();
        let mut tids = Vec::with_capacity(req.spec.steps.len());
        for (i, step) in req.spec.steps.iter().enumerate() {
            let deps: Vec<hpcc_sim::TaskId> = tids.last().copied().into_iter().collect();
            let chain = Arc::clone(&chain);
            let cache = Arc::clone(cache);
            let tracer = Arc::clone(tracer);
            let step = step.clone();
            let state = states[i];
            let label = step.label();
            let tid = graph.add(sym!("build.step"), Stage::Convert, &deps, move |at| {
                let mut st = chain.lock();
                step.apply_config(&mut st.config);
                if !step.produces_layer() {
                    return Ok(TaskFinish::at(at + CONFIG_STEP_COST)
                        .attr(sym!("step"), &label)
                        .attr(sym!("cache"), "config"));
                }
                let probe_done = at + CACHE_PROBE_COST;
                match cache.lookup(&state) {
                    Some(cached) => {
                        let done = probe_done + CACHE_HIT_COST;
                        if let CachedLayer::Layer(sealed) = cached {
                            layer::apply(&mut st.fs, sealed.archive())?;
                            st.layers.push(sealed);
                        }
                        st.hits += 1;
                        tracer.metrics().incr("build.cache.hit");
                        tracer.record(
                            sym!("build.cache"),
                            Stage::Cache,
                            at,
                            probe_done,
                            [
                                (sym!("result"), "hit".into()),
                                (sym!("step"), label.clone().into()),
                            ],
                        );
                        Ok(TaskFinish::at(done)
                            .attr(sym!("step"), &label)
                            .attr(sym!("cache"), "hit"))
                    }
                    None => {
                        st.misses += 1;
                        tracer.metrics().incr("build.cache.miss");
                        tracer.record(
                            sym!("build.cache"),
                            Stage::Cache,
                            at,
                            probe_done,
                            [
                                (sym!("result"), "miss".into()),
                                (sym!("step"), label.clone().into()),
                            ],
                        );
                        let before = st.fs.clone();
                        let mut bytes = 0u64;
                        for (path, data) in step.writes() {
                            bytes += data.len() as u64;
                            st.fs.write_p(&VPath::parse(&path), data).map_err(|e| {
                                BuildError::Step {
                                    step: label.clone(),
                                    reason: e.to_string(),
                                }
                            })?;
                        }
                        let delta = layer::diff(&before, &st.fs)?;
                        if delta.is_empty() {
                            cache.insert(state, None);
                        } else {
                            let sealed = SealedLayer::seal(delta);
                            cache.insert(state, Some(&sealed));
                            st.layers.push(sealed);
                        }
                        let done =
                            probe_done + STEP_LATENCY + span_nanos_for_bytes(bytes, STEP_WRITE_BPS);
                        Ok(TaskFinish::at(done)
                            .attr(sym!("step"), &label)
                            .attr(sym!("cache"), "miss")
                            .attr(sym!("bytes"), bytes))
                    }
                }
            });
            tids.push(tid);
        }
        task_ranges.push(tids);
    }

    let report = Executor::new(workers)
        .run(graph, start, tracer)
        .map_err(|e| e.error)?;
    clock.advance_to(report.end);

    let mut outputs = Vec::with_capacity(requests.len());
    for ((req, chain), tids) in requests.iter().zip(chains).zip(task_ranges) {
        let mut st = chain.lock();
        let root_digest = st.fs.tree_digest(&VPath::parse("/"))?;
        let layers = std::mem::take(&mut st.layers);
        let image = assemble_image(layers, st.config.clone(), cas);
        let (started, finished) = match (tids.first(), tids.last()) {
            (Some(a), Some(b)) => (report.started[a.0], report.finished[b.0]),
            _ => (start, start),
        };
        outputs.push(BuildOutput {
            tenant: req.tenant.clone(),
            repo: req.repo.clone(),
            tag: req.tag.clone(),
            image,
            root_digest,
            cache_hits: st.hits,
            cache_misses: st.misses,
            started,
            finished,
        });
    }
    Ok(outputs)
}

/// Store layers/config/manifest in `cas` and assemble the [`BuiltImage`]
/// (mirrors `ImageBuilder::build`'s tail, but over layers that were
/// sealed when their step ran or replayed: the store shares their bytes
/// and the manifest names the digests they carry).
fn assemble_image(
    layers: Vec<SealedLayer>,
    config: hpcc_oci::image::ImageConfig,
    cas: &Cas,
) -> BuiltImage {
    let layer_descs = layers.iter().map(|l| cas.put_sealed(l)).collect();
    let manifest = Manifest {
        config: cas.put(MediaType::Config, config.to_bytes()),
        layers: layer_descs,
        annotations: BTreeMap::new(),
    };
    cas.put(MediaType::Manifest, manifest.to_bytes());
    BuiltImage {
        manifest,
        config,
        layers: layers.into_iter().map(SealedLayer::into_archive).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::MpiFamily;

    fn spec(tag: &str) -> BuildSpec {
        BuildSpec::from_scratch("app")
            .run("base", &[("/usr/lib/libc.so", &[0xB0; 4096][..])])
            .mpi_base(MpiFamily::Mpich)
            .copy("/opt/app/run", format!("binary-{tag}").into_bytes())
            .env("APP_MODE", "prod")
            .entrypoint(&["/opt/app/run"])
    }

    #[test]
    fn cold_then_warm_rebuild_hits_every_layer() {
        let cache = BuildCache::node_local();
        let cas = Cas::new();
        let tracer = Tracer::new();
        let clock = SimClock::new();
        let reqs = vec![BuildRequest::new("acme", "app", "v1", spec("a"))];

        let t0 = clock.now();
        let cold = build_fleet(&reqs, 4, &cache, &cas, &tracer, &clock).unwrap();
        let cold_span = clock.now().since(t0);
        assert_eq!(cold[0].cache_hits, 0);
        assert_eq!(cold[0].cache_misses, 3, "three layer steps miss cold");

        let t1 = clock.now();
        let warm = build_fleet(&reqs, 4, &cache, &cas, &tracer, &clock).unwrap();
        let warm_span = clock.now().since(t1);
        assert_eq!(warm[0].cache_misses, 0);
        assert_eq!(warm[0].cache_hits, 3, "every layer step replays warm");
        assert_eq!(
            warm[0].root_digest, cold[0].root_digest,
            "cache replay reproduces the exact root"
        );
        assert_eq!(
            warm[0].image.manifest.digest(),
            cold[0].image.manifest.digest()
        );
        assert!(
            warm_span.as_nanos() * 10 < cold_span.as_nanos(),
            "warm rebuild must be structurally faster: warm={warm_span:?} cold={cold_span:?}"
        );
    }

    #[test]
    fn shared_base_dedups_across_tenants() {
        let cache = BuildCache::node_local();
        let cas = Cas::new();
        let tracer = Tracer::new();
        let clock = SimClock::new();
        let reqs: Vec<BuildRequest> = (0..4)
            .map(|i| {
                let spec = BuildSpec::from_scratch("app")
                    .run("base", &[("/usr/lib/libc.so", &[0xB0; 4096][..])])
                    .mpi_base(MpiFamily::Mpich)
                    .copy("/opt/app/run", format!("tenant-{i}").into_bytes());
                BuildRequest::new(&format!("tenant{i}"), "app", "v1", spec)
            })
            .collect();
        let outs = build_fleet(&reqs, 8, &cache, &cas, &tracer, &clock).unwrap();
        let total_misses: u64 = outs.iter().map(|o| o.cache_misses).sum();
        // 2 shared base steps execute once; only the per-tenant leaf
        // misses everywhere.
        assert_eq!(total_misses, 2 + 4, "shared prefix executes once");
        // Distinct layer blobs: 2 shared + 4 leaves.
        let distinct: std::collections::BTreeSet<_> = outs
            .iter()
            .flat_map(|o| o.image.manifest.layers.iter().map(|d| d.digest))
            .collect();
        assert_eq!(distinct.len(), 6);
    }

    #[test]
    fn editing_a_step_busts_only_the_suffix() {
        let cache = BuildCache::node_local();
        let cas = Cas::new();
        let tracer = Tracer::new();
        let clock = SimClock::new();
        let v1 = vec![BuildRequest::new("acme", "app", "v1", spec("a"))];
        build_fleet(&v1, 4, &cache, &cas, &tracer, &clock).unwrap();
        // Same base+mpi prefix, new app binary.
        let v2 = vec![BuildRequest::new("acme", "app", "v2", spec("b"))];
        let outs = build_fleet(&v2, 4, &cache, &cas, &tracer, &clock).unwrap();
        assert_eq!(outs[0].cache_hits, 2, "unchanged prefix replays");
        assert_eq!(outs[0].cache_misses, 1, "edited leaf re-runs");
    }

    #[test]
    fn determinism_two_fleets_identical() {
        let run = || {
            let cache = BuildCache::node_local();
            let cas = Cas::new();
            let tracer = Tracer::new();
            let clock = SimClock::new();
            let reqs: Vec<BuildRequest> = (0..3)
                .map(|i| BuildRequest::new(&format!("t{i}"), "app", "v1", spec("x")))
                .collect();
            let outs = build_fleet(&reqs, 2, &cache, &cas, &tracer, &clock).unwrap();
            (
                clock.now(),
                outs.iter().map(|o| o.root_digest).collect::<Vec<_>>(),
                outs.iter()
                    .map(|o| (o.cache_hits, o.cache_misses))
                    .collect::<Vec<_>>(),
                cas.stats(),
            )
        };
        let first = run();
        assert_eq!(first, run(), "double run is byte-identical");
        // Counted before layers were sealed, when every put encoded and
        // hashed its own copy: sharing the bytes must not change what the
        // image store is told.
        assert_eq!(
            first.3,
            hpcc_oci::cas::CasStats {
                blobs: 5,
                stored_bytes: 266_732,
                logical_bytes: 800_196,
                dedup_hits: 10,
            }
        );
    }

    #[test]
    fn a_layer_keeps_one_encoding_and_digest_from_step_to_image_store() {
        let cache = BuildCache::node_local();
        let tracer = Tracer::new();
        let clock = SimClock::new();
        let v1 = BuildRequest::new("acme", "app", "v1", spec("a"));
        let cold = std::slice::from_ref(&v1);
        build_fleet(cold, 4, &cache, &Cas::new(), &tracer, &clock).unwrap();
        // v1 replays whole, v2 replays the prefix and runs its own leaf.
        let v2 = BuildRequest::new("acme", "app", "v2", spec("b"));
        let cas = Cas::new();
        let outs = build_fleet(&[v1, v2], 4, &cache, &cas, &tracer, &clock).unwrap();
        let hits: u64 = outs.iter().map(|o| o.cache_hits).sum();
        let misses: u64 = outs.iter().map(|o| o.cache_misses).sum();
        assert_eq!((hits, misses), (5, 1));

        for out in &outs {
            let image = &out.image;
            assert_eq!(image.manifest.layers.len(), image.layers.len());
            for (desc, archive) in image.manifest.layers.iter().zip(&image.layers) {
                let bytes = archive.to_bytes();
                assert_eq!(
                    (desc.digest, desc.size),
                    (hpcc_crypto::sha256::sha256(&bytes), bytes.len() as u64),
                    "descriptor names the archive's own encoding"
                );
                let blob = cas.get(&desc.digest).unwrap();
                assert_eq!(*blob, bytes);
                let cached = cache.store().get(&desc.digest).unwrap();
                assert!(
                    Arc::ptr_eq(&blob, &cached),
                    "image store and build cache share one allocation"
                );
            }
        }
    }
}
