//! Golden-trace corpus: canonical observability traces for the stack.
//!
//! Each golden is a deterministic trace builder — a fixed workload driven
//! through the instrumented stack with a [`Tracer`] attached — paired with
//! a checked-in TSV file under `tests/goldens/`. The integration harness
//! (`tests/integration_traces.rs`) diffs rebuilt traces against the files;
//! `cargo run -p hpcc-bench --bin repro -- --bless` regenerates
//! them after an intentional timing-model change.
//!
//! The corpus covers the paper's quantitative claims that have a temporal
//! structure worth pinning: the quickstart pull→convert→cache→run
//! pipeline (cold + warm), the same pipeline crashed mid-convert and
//! recovered, Q5's degraded pull through a site proxy during a hub
//! outage, Q10's peer-to-peer image broadcast, and every §6 integration
//! scenario in [`scenarios::ALL`].

use crate::scenarios::{self, ClusterConfig, MixedWorkload};
use hpcc_engine::engine::{EngineError, Host, PullSources, RunOptions};
use hpcc_engine::engines;
use hpcc_oci::builder::ImageBuilder;
use hpcc_oci::cas::Cas;
use hpcc_registry::proxy::ProxyRegistry;
use hpcc_registry::registry::{Registry, RegistryCaps};
use hpcc_registry::tiered::{StormConfig, StormTopology, TierClient};
use hpcc_runtime::container::ProcessWork;
use hpcc_sim::net::{Fabric, NodeId};
use hpcc_sim::obs::{diff_traces, export_tsv, parse_tsv, SpanRecord, Tracer};
use hpcc_sim::{
    Bytes, CrashInjector, FaultInjector, FaultKind, FaultRule, MetricsRegistry, Recoverable,
    SimClock, SimSpan, SimTime,
};
use hpcc_storage::p2p::{broadcast_p2p, broadcast_tree, TreeSpec};
use hpcc_storage::shared_fs::SharedFs;
use hpcc_storage::{BlobStore, JournaledStore};
use hpcc_vfs::path::VPath;
use std::path::PathBuf;
use std::sync::Arc;

/// One golden trace: a stable name (also the TSV file stem) and the
/// deterministic builder that regenerates it from scratch.
pub struct Golden {
    pub name: String,
    pub build: Box<dyn Fn() -> Vec<SpanRecord>>,
}

/// Directory holding the checked-in golden TSV files.
pub fn goldens_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/goldens"))
}

/// Path of one golden's TSV file.
pub fn golden_path(name: &str) -> PathBuf {
    goldens_dir().join(format!("{name}.tsv"))
}

/// The full corpus, in a fixed order: the pipeline traces, then one
/// `scenario_<name>` per entry of [`scenarios::ALL`].
pub fn all_goldens() -> Vec<Golden> {
    let golden = |name: &str, build: fn() -> Vec<SpanRecord>| Golden {
        name: name.to_string(),
        build: Box::new(build),
    };
    let mut all = vec![
        golden("quickstart", quickstart_trace),
        golden("quickstart_crash_recover", quickstart_crash_recover_trace),
        golden("q5_degraded_pull", q5_degraded_pull_trace),
        golden("q10_p2p_broadcast", q10_p2p_broadcast_trace),
        golden("storm_64_tiered", storm_64_tiered_trace),
        golden("build_plane", build_plane_trace),
    ];
    all.extend(scenarios::ALL.map(|(name, run)| Golden {
        name: format!("scenario_{name}"),
        build: Box::new(move || scenario_trace(run)),
    }));
    all
}

/// Rebuild a golden and structurally diff it against its checked-in file.
/// `Ok(())` on a byte-for-byte structural match; `Err` carries a readable
/// diff (or the reason the file could not be read/parsed).
pub fn check_golden(golden: &Golden) -> Result<(), String> {
    let path = golden_path(&golden.name);
    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "{0}: cannot read golden {1} ({e}); create it with `repro --bless {0}`",
            golden.name,
            path.display()
        )
    })?;
    let expected =
        parse_tsv(&text).map_err(|e| format!("{}: bad golden file: {e}", golden.name))?;
    let actual = (golden.build)();
    let diffs = diff_traces(&expected, &actual);
    if diffs.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{0}: trace diverged from {1} ({2} difference(s)):\n{3}\nif intentional, re-bless with `repro --bless {0}`",
            golden.name,
            path.display(),
            diffs.len(),
            diffs.join("\n")
        ))
    }
}

/// Rebuild a golden and overwrite its checked-in file.
pub fn bless_golden(golden: &Golden) -> std::io::Result<()> {
    std::fs::create_dir_all(goldens_dir())?;
    std::fs::write(golden_path(&golden.name), export_tsv(&(golden.build)()))
}

// --------------------------------------------------------- trace builders

/// The site registry of examples/quickstart.rs: the two-layer demo image
/// built from scratch and pushed as `demo/app:v1`.
fn quickstart_registry() -> Registry {
    let cas = Cas::new();
    let image = ImageBuilder::from_scratch()
        .run("install-base", |fs| {
            fs.write_p(&VPath::parse("/usr/lib/libc.so.6"), vec![0xC1; 4096])
                .map_err(|e| e.to_string())
        })
        .run("install-app", |fs| {
            fs.write_p(&VPath::parse("/opt/app/run"), vec![0xAB; 8192])
                .map_err(|e| e.to_string())
        })
        .entrypoint(&["/opt/app/run"])
        .env("OMP_NUM_THREADS", "8")
        .build(&cas)
        .expect("image builds");

    let registry = Registry::new("site", RegistryCaps::open());
    registry.create_namespace("demo", None).unwrap();
    registry
        .push_image("demo/app", "v1", &image.manifest, &cas)
        .unwrap();
    registry
}

/// The quickstart pipeline (examples/quickstart.rs) with a tracer attached:
/// build → push → cold deploy (pull, convert, cache miss, run) → warm
/// deploy (cache hit).
pub fn quickstart_trace() -> Vec<SpanRecord> {
    let registry = quickstart_registry();
    let tracer = Tracer::new();
    registry.set_tracer(Arc::clone(&tracer));
    let engine = engines::sarus();
    engine.set_tracer(Arc::clone(&tracer));
    // Overlapped pipeline against a node-local layer store: the cold
    // deploy pins the parallel fetch/convert schedule, the warm deploy
    // pins the blob-store + conversion-cache hits.
    engine.set_parallelism(4);
    engine.set_blob_store(BlobStore::node_local());
    let host = Host::compute_node();
    let clock = SimClock::new();
    engine
        .deploy(
            &registry,
            "demo/app",
            "v1",
            1000,
            &host,
            RunOptions {
                work: ProcessWork {
                    compute: SimSpan::secs(30),
                    writes: vec![("results/out.dat".into(), vec![42; 100])],
                },
                ..RunOptions::default()
            },
            &clock,
        )
        .expect("cold deploy succeeds");
    // Warm re-run on the same clock: the conversion cache hits.
    engine
        .deploy(
            &registry,
            "demo/app",
            "v1",
            1000,
            &host,
            RunOptions::default(),
            &clock,
        )
        .expect("warm deploy succeeds");
    tracer.finished()
}

/// The quickstart pipeline killed mid-convert and recovered: the cold
/// deploy dies at the squash-assembly step (after the pull intent has
/// committed), fsck recovery rolls the committed layers forward, and a
/// restarted engine finishes the deploy without re-fetching them. The
/// trace pins the crash span, the recovery span, and the resumed
/// pipeline's cache-hit timing.
pub fn quickstart_crash_recover_trace() -> Vec<SpanRecord> {
    let registry = quickstart_registry();
    let tracer = Tracer::new();
    registry.set_tracer(Arc::clone(&tracer));
    // Durable state shared across the crash: journalled blob store.
    let journal = JournaledStore::new(BlobStore::node_local());
    journal.set_tracer(Arc::clone(&tracer));
    let crash = CrashInjector::enabled();
    journal.set_crash_injector(Arc::clone(&crash));
    let attach = |e: &hpcc_engine::engine::Engine| {
        e.set_tracer(Arc::clone(&tracer));
        e.set_parallelism(4);
        e.set_journaled_store(Arc::clone(&journal));
        e.set_crash_injector(Arc::clone(&crash));
    };
    let host = Host::compute_node();
    let clock = SimClock::new();

    // Cold deploy dies assembling the squash image.
    crash.arm("convert.assemble.pre", 1);
    let engine = engines::sarus();
    attach(&engine);
    match engine.deploy(
        &registry,
        "demo/app",
        "v1",
        1000,
        &host,
        RunOptions::default(),
        &clock,
    ) {
        Err(EngineError::Crash(dead)) => assert_eq!(dead.point, "convert.assemble.pre"),
        Err(other) => panic!("expected a crash mid-convert, got {other}"),
        Ok(_) => panic!("deploy survived an armed crash point"),
    }

    // fsck over the journal, then a restarted engine finishes the job.
    journal
        .recover(clock.now())
        .expect("recovery after mid-convert crash");
    let engine = engines::sarus();
    attach(&engine);
    engine
        .deploy(
            &registry,
            "demo/app",
            "v1",
            1000,
            &host,
            RunOptions {
                work: ProcessWork {
                    compute: SimSpan::secs(30),
                    writes: vec![("results/out.dat".into(), vec![42; 100])],
                },
                ..RunOptions::default()
            },
            &clock,
        )
        .expect("recovered deploy succeeds");
    tracer.finished()
}

/// Q5's failure mode with the Q10-era degradation path: the hub goes down
/// permanently mid-experiment, the engine exhausts its retries against the
/// primary, and the warm site proxy serves the image. The trace pins the
/// retry/degrade timing of `deploy_resilient`.
pub fn q5_degraded_pull_trace() -> Vec<SpanRecord> {
    let hub = Registry::new("hub", RegistryCaps::open());
    hub.create_namespace("hpc", None).unwrap();
    let cas = Cas::new();
    let img = hpcc_oci::builder::samples::python_app(&cas, 16);
    hub.push_image("hpc/pyapp", "v1", &img.manifest, &cas)
        .unwrap();
    let hub = Arc::new(hub);

    let site = Arc::new(Registry::new("site-cache", RegistryCaps::open()));
    let proxy = ProxyRegistry::new(Arc::clone(&site), Arc::clone(&hub)).unwrap();
    // Warm the proxy while the hub is healthy, then lose the hub for good.
    proxy
        .pull_manifest("hpc/pyapp", "v1", SimTime::ZERO)
        .unwrap();
    let inj = Arc::new(FaultInjector::new(
        9,
        vec![FaultRule::sticky(
            FaultKind::RegistryUnavailable,
            SimTime::ZERO,
            SimTime(u64::MAX),
        )],
    ));
    hub.set_fault_injector(Arc::clone(&inj));

    let tracer = Tracer::new();
    hub.set_tracer(Arc::clone(&tracer));
    proxy.set_tracer(Arc::clone(&tracer));
    let engine = engines::apptainer();
    engine.set_fault_injector(Arc::clone(&inj));
    engine.set_tracer(Arc::clone(&tracer));
    engine.set_parallelism(4);

    let clock = SimClock::new();
    let sources = PullSources {
        primary: &hub,
        tier: None,
        proxy: Some(&proxy),
        mirror: None,
    };
    let (_, _, source) = engine
        .deploy_resilient(
            &sources,
            "hpc/pyapp",
            "v1",
            1000,
            &Host::compute_node(),
            RunOptions::default(),
            &clock,
        )
        .expect("degraded deploy succeeds via proxy");
    assert_eq!(source, "proxy");
    tracer.finished()
}

/// Q10's swarm on a small allocation: 16 nodes, 2 seeds, one 2 GiB image.
/// The trace pins the seed pulls from shared storage and the logarithmic
/// fan-out of peer transfers over the high-speed fabric.
pub fn q10_p2p_broadcast_trace() -> Vec<SpanRecord> {
    let tracer = Tracer::new();
    let shared = SharedFs::with_defaults();
    shared.set_tracer(Arc::clone(&tracer));
    let ids: Vec<NodeId> = (0..16).map(NodeId).collect();
    let fabric = Fabric::with_defaults(ids.iter().copied());
    broadcast_p2p(
        &shared,
        &fabric,
        Bytes::gib(2),
        &ids,
        2,
        SimTime::ZERO,
        &FaultInjector::disabled(),
        &tracer,
    );
    tracer.finished()
}

/// A 64-node two-tier pull storm against a real origin registry, followed
/// by a tree broadcast of the pulled image across the allocation. The
/// trace pins the coalesced tier fills (one origin fetch per blob no
/// matter how many racks ask), the per-node rack-served pulls, and the
/// pipelined fan-out of the distribution tree.
pub fn storm_64_tiered_trace() -> Vec<SpanRecord> {
    let hub = Registry::new("hub", RegistryCaps::open());
    hub.create_namespace("hpc", None).unwrap();
    let cas = Cas::new();
    let img = hpcc_oci::builder::samples::python_app(&cas, 8);
    hub.push_image("hpc/pyapp", "v1", &img.manifest, &cas)
        .unwrap();
    let hub = Arc::new(hub);

    let tracer = Tracer::new();
    hub.set_tracer(Arc::clone(&tracer));
    let topo = StormTopology::with_origin(StormConfig::two_tier(64, 16), Arc::clone(&hub));
    topo.set_tracer(Arc::clone(&tracer));

    // Every node pulls the real image through its rack cache at t=0; the
    // racks coalesce onto the site tier and the site onto the origin.
    let mut storm_done = SimTime::ZERO;
    for node in 0..64 {
        let client = TierClient::new(Arc::clone(&topo), node);
        let (manifest, mdone) = client
            .pull_manifest("hpc/pyapp", "v1", SimTime::ZERO)
            .unwrap();
        let mut done = mdone;
        for d in std::iter::once(&manifest.config).chain(manifest.layers.iter()) {
            let (_, t) = client.pull_blob(&d.digest, mdone).unwrap();
            done = done.max(t);
        }
        storm_done = storm_done.max(done);
    }

    // Then the allocation fans the image out peer-to-peer for the next
    // (larger) artifact: a 2 GiB dataset seeded from shared storage.
    let shared = SharedFs::with_defaults();
    shared.set_tracer(Arc::clone(&tracer));
    let ids: Vec<NodeId> = (0..64).map(NodeId).collect();
    let fabric = Fabric::with_defaults(ids.iter().copied());
    broadcast_tree(
        &shared,
        &fabric,
        Bytes::gib(2),
        &ids,
        TreeSpec::default(),
        storm_done,
        &FaultInjector::disabled(),
        &tracer,
        &MetricsRegistry::new(),
    );
    tracer.finished()
}

/// The build plane end to end, two tenants sharing a base: both specs
/// lower onto the fleet executor against one site-wide build cache (the
/// second tenant's base steps replay as cache hits), each image is
/// WOTS-signed, appended to the transparency log and pushed under its
/// namespace, then tenant one's image is pulled back with provenance
/// verification and run. The trace pins the `build.step` / `build.cache`
/// / `build.sign` / `build.push` span schedule and the verified pull's
/// engine timing.
pub fn build_plane_trace() -> Vec<SpanRecord> {
    use hpcc_build::{
        build_fleet, sign_and_push, verified_pull, BuildCache, BuildRequest, BuildSpec, MpiFamily,
    };

    let tracer = Tracer::new();
    let registry = Registry::new("site", RegistryCaps::open());
    registry.set_tracer(Arc::clone(&tracer));
    registry.create_namespace("acme", None).unwrap();
    registry.create_namespace("umbrella", None).unwrap();
    let engine = engines::podman_hpc();
    engine.set_tracer(Arc::clone(&tracer));
    let cache = BuildCache::node_local();
    let journal = JournaledStore::new(BlobStore::node_local());
    journal.set_tracer(Arc::clone(&tracer));
    let crash = CrashInjector::disabled();
    journal.set_crash_injector(Arc::clone(&crash));
    let cas = Cas::new();
    let mut key = hpcc_crypto::wots::Keypair::generate(b"build-plane-golden", 3);
    let mut log = hpcc_crypto::translog::TransparencyLog::new();
    let clock = SimClock::new();

    let spec = |tenant: &str| {
        BuildSpec::from_scratch("app")
            .run("base", &[("/usr/lib/libc.so", &[0xB0; 8192][..])])
            .mpi_base(MpiFamily::Mpich)
            .copy("/opt/app/run", format!("#!solver {tenant}").into_bytes())
            .env("OMP_NUM_THREADS", "8")
            .entrypoint(&["/opt/app/run"])
    };
    let reqs = vec![
        BuildRequest::new("acme", "solver", "v1", spec("acme")),
        BuildRequest::new("umbrella", "solver", "v1", spec("umbrella")),
    ];
    let outs = build_fleet(&reqs, 4, &cache, &cas, &tracer, &clock).expect("fleet builds");

    let mut proofs = Vec::new();
    for out in &outs {
        let signed = sign_and_push(
            &engine, &mut key, &mut log, &registry, out, &cas, &journal, &crash, &clock,
        )
        .expect("signed push succeeds");
        proofs.push(signed);
    }

    // Tenant one's image comes back verified and runs. The first proof
    // is stale by now (tenant two's publish moved the log), so re-mint.
    let fresh = log
        .prove_inclusion(proofs[0].log_index)
        .expect("entry still proves");
    let pulled = verified_pull(
        &engine,
        &registry,
        "acme/solver",
        "v1",
        &fresh,
        &log.head(),
        &clock,
    )
    .expect("verified pull succeeds");
    let host = Host::compute_node();
    let prepared = engine
        .prepare(&pulled, 1000, &host, true, &clock)
        .expect("prepare succeeds");
    engine
        .run(prepared, 1000, &host, RunOptions::default(), &clock)
        .expect("run succeeds");
    tracer.finished()
}

/// Drive one §6 scenario with a fresh tracer over the canonical small
/// workload (the same `(seed, jobs, pods)` triple the integration tests
/// use) and return the trace.
fn scenario_trace(runner: scenarios::Runner) -> Vec<SpanRecord> {
    let cfg = ClusterConfig { nodes: 16 };
    let wl = MixedWorkload::generate(42, 6, 12, &cfg);
    let tracer = Tracer::new();
    runner(&cfg, &wl, &tracer);
    tracer.finished()
}
