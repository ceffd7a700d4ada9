//! Chaos suite: the pull→convert→cache→run pipeline under a seeded fault
//! schedule, exercised across crate boundaries.
//!
//! Each test drives a realistic failure from the fault model (DESIGN.md
//! §"Fault model") through the stack and asserts the *decision* the
//! pipeline made — recovered, degraded, or gave up with a typed error —
//! plus the metrics that record it. The final test prints a metrics dump
//! whose byte-identity across runs `scripts/ci.sh` checks by diffing two
//! executions with the same seed.

use hpcc_engine::engine::{EngineError, Host, PullResilience, PullSources};
use hpcc_engine::{engines, publish_seekable};
use hpcc_k8s::bridge::VirtualKubelet;
use hpcc_k8s::kubelet::{EngineCri, Kubelet, KubeletMode};
use hpcc_k8s::objects::{ApiServer, PodPhase, PodSpec, Resources};
use hpcc_k8s::scheduler::Scheduler;
use hpcc_oci::builder::samples;
use hpcc_oci::cas::Cas;
use hpcc_registry::registry::{Registry, RegistryCaps};
use hpcc_registry::tiered::TierClient;
use hpcc_registry::{ProxyRegistry, StormConfig, StormTopology};
use hpcc_runtime::cgroup::{CgroupTree, CgroupVersion};
use hpcc_sim::net::{Fabric, NodeId};
use hpcc_sim::{
    BreakerConfig, BreakerState, Bytes, FaultInjector, FaultKind, FaultRule, RetryPolicy, SimClock,
    SimSpan, SimTime, Stage, Tracer,
};
use hpcc_storage::local::{stage_image_to_nodes, NodeLocalDisk};
use hpcc_storage::p2p::broadcast_p2p;
use hpcc_storage::shared_fs::SharedFs;
use hpcc_vfs::fs::MemFs;
use hpcc_vfs::path::VPath;
use hpcc_vfs::squash::SquashImage;
use hpcc_wlm::slurm::Slurm;
use hpcc_wlm::types::NodeSpec;
use std::collections::BTreeMap;
use std::sync::Arc;

// ------------------------------------------------------------ fixtures

/// A hub registry holding `hpc/app:v1` (a small sample image).
fn hub_with_image() -> Arc<Registry> {
    registry_with_image("hub")
}

/// A registry named `name` holding `hpc/app:v1`.
fn registry_with_image(name: &'static str) -> Arc<Registry> {
    let reg = Registry::new(name, RegistryCaps::open());
    reg.create_namespace("hpc", None).unwrap();
    let cas = Cas::new();
    let img = samples::python_app(&cas, 8);
    reg.push_image("hpc/app", "v1", &img.manifest, &cas)
        .unwrap();
    Arc::new(reg)
}

fn site_registry() -> Arc<Registry> {
    let reg = Registry::new("site", RegistryCaps::open());
    reg.create_namespace("hpc", None).unwrap();
    Arc::new(reg)
}

fn forever() -> SimTime {
    SimTime(u64::MAX)
}

// ------------------------------------------------------------ registry

/// A hub outage that begins *mid-pull* (after the manifest transfer has
/// started) exhausts the primary's retries; the warm proxy cache serves
/// the image and the degrade decision lands in the metrics.
#[test]
fn registry_outage_mid_pull_recovers_via_proxy_cache() {
    let hub = hub_with_image();
    let proxy = ProxyRegistry::new(site_registry(), Arc::clone(&hub)).unwrap();
    // Warm the proxy before anything goes wrong.
    proxy.pull_manifest("hpc/app", "v1", SimTime::ZERO).unwrap();

    let engine = engines::podman();
    let clock = SimClock::new();
    clock.advance(SimSpan::secs(20));
    // The outage opens 1ms after this pull's first request goes out: the
    // manifest fetch may land, but the blob fetches behind it will not.
    let inj = Arc::new(FaultInjector::new(
        11,
        vec![FaultRule::sticky(
            FaultKind::RegistryUnavailable,
            clock.now() + SimSpan::millis(1),
            forever(),
        )],
    ));
    hub.set_fault_injector(Arc::clone(&inj));
    engine.set_fault_injector(Arc::clone(&inj));

    let sources = PullSources {
        proxy: Some(&proxy),
        ..PullSources::primary_only(&hub).with_warm_memo()
    };
    let pulled = engine.pull(sources, "hpc/app", "v1", &clock).unwrap();
    assert_eq!(pulled.source, "proxy");
    assert!(!pulled.manifest.layers.is_empty());

    let m = inj.metrics();
    assert_eq!(m.get("retry.engine.pull.giveup"), 1, "primary exhausted");
    assert_eq!(
        m.get("degrade.engine.pull.primary_to_proxy"),
        1,
        "degrade decision recorded"
    );
    assert!(m.get("faults.injected.registry_unavailable") >= 1);
}

// ------------------------------------------------------------ pull ladder

/// The lazy image every ladder row faults from: one single-chunk file.
const LAZY_FILE: &str = "opt/tool/run.py";

fn outage_forever(seed: u64) -> Arc<FaultInjector> {
    Arc::new(FaultInjector::new(
        seed,
        vec![FaultRule::sticky(
            FaultKind::RegistryUnavailable,
            SimTime::ZERO,
            forever(),
        )],
    ))
}

/// The warm memo is a rung a pull asks for: after a warm pull and a
/// permanent outage, a plain pull of the registry still exhausts, and the
/// same ladder with the memo serves the earlier copy.
#[test]
fn the_warm_memo_serves_only_the_pulls_that_ask_for_it() {
    let hub = hub_with_image();
    let engine = engines::podman();
    let clock = SimClock::new();
    engine.pull(&hub, "hpc/app", "v1", &clock).unwrap();
    let inj = outage_forever(8);
    hub.set_fault_injector(Arc::clone(&inj));
    engine.set_fault_injector(inj);
    let err = engine.pull(&hub, "hpc/app", "v1", &clock).unwrap_err();
    assert!(matches!(err, EngineError::Exhausted { .. }), "{err}");
    let warm = PullSources::primary_only(&hub).with_warm_memo();
    let pulled = engine.pull(warm, "hpc/app", "v1", &clock).unwrap();
    assert_eq!(pulled.source, "warm-cache");
    assert!(!pulled.layers.is_empty());
}

/// The memo is keyed by the primary too: an image pulled from registry
/// `a` never answers a warm pull of the same name whose primary is `b`.
#[test]
fn a_warm_pull_is_served_only_what_its_own_primary_served() {
    let (a, b) = (registry_with_image("a"), registry_with_image("b"));
    let engine = engines::podman();
    let clock = SimClock::new();
    engine.pull(&a, "hpc/app", "v1", &clock).unwrap();
    let inj = outage_forever(8);
    a.set_fault_injector(Arc::clone(&inj));
    b.set_fault_injector(Arc::clone(&inj));
    engine.set_fault_injector(inj);
    let from_b = PullSources::primary_only(&b).with_warm_memo();
    let err = engine.pull(from_b, "hpc/app", "v1", &clock).unwrap_err();
    assert!(matches!(err, EngineError::Exhausted { .. }), "{err}");
    let from_a = PullSources::primary_only(&a).with_warm_memo();
    let pulled = engine.pull(from_a, "hpc/app", "v1", &clock).unwrap();
    assert_eq!(pulled.source, "warm-cache");
}

/// A bare registry converts to the one-hop ladder: both pulls leave the
/// same trace, span for span.
#[test]
fn a_registry_pulls_as_its_primary_only_ladder() {
    let digest = |primary_only: bool| {
        let hub = hub_with_image();
        let engine = engines::podman();
        let tracer = Tracer::new();
        hub.set_tracer(Arc::clone(&tracer));
        engine.set_tracer(Arc::clone(&tracer));
        let clock = SimClock::new();
        let pulled = if primary_only {
            engine.pull(PullSources::primary_only(&hub), "hpc/app", "v1", &clock)
        } else {
            engine.pull(&hub, "hpc/app", "v1", &clock)
        };
        assert_eq!(pulled.unwrap().source, "primary");
        hpcc_sim::obs::trace_digest(&tracer.finished())
    };
    assert_eq!(digest(false), digest(true));
}

/// The one degradation ladder, at both granularities it serves — a
/// whole-image `pull` and a `LazyContainer`'s blob fetches (the
/// index at launch, then a chunk fault) — through every serving hop.
/// Everything upstream of the serving hop is out for good: the hub is
/// down, the tier and proxy in front of it are cold unless they are the
/// hop under test, and for the warm-cache row the mirror is down too. Each
/// row pins the label the caller gets back and the exact `degrade.*` /
/// `retry.*.giveup` counters: one per link walked, none past the hop that
/// served. Last, the breakers are one set for both granularities: a
/// breaker an image pull opened short-circuits the next chunk fault.
#[test]
fn pull_ladder_serves_both_granularities_from_every_hop() {
    const CHAIN: [&str; 5] = ["primary", "tier", "proxy", "mirror", "warm_cache"];
    let stems = |op: &str| {
        [
            op.to_string(),
            format!("{op}.tier"),
            format!("{op}.proxy"),
            format!("{op}.mirror"),
        ]
    };
    let mut lazy_fs = MemFs::new();
    lazy_fs
        .write_p(&VPath::parse("/opt/tool/run.py"), vec![0x5A; 3000])
        .unwrap();

    for (serving, label) in ["primary", "tier", "proxy", "mirror", "warm-cache"]
        .into_iter()
        .enumerate()
    {
        for lazy in [false, true] {
            if lazy && label == "warm-cache" {
                continue; // blobs have no memo past the mirror
            }
            let row = format!("{label}/{}", if lazy { "blob" } else { "image" });
            // Hub and mirror publish identically; tier and proxy front the hub.
            let hub = hub_with_image();
            let mirror = hub_with_image();
            let (index_digest, index) =
                publish_seekable(&hub, &lazy_fs, &VPath::root(), 4096).unwrap();
            publish_seekable(&mirror, &lazy_fs, &VPath::root(), 4096).unwrap();
            let topo = StormTopology::with_origin(StormConfig::two_tier(8, 4), Arc::clone(&hub));
            let tier = TierClient::new(topo, 0);
            let proxy = ProxyRegistry::new(site_registry(), Arc::clone(&hub)).unwrap();
            let sources = || PullSources {
                tier: Some(&tier),
                proxy: Some(&proxy),
                mirror: Some(&mirror),
                ..PullSources::primary_only(&hub).with_warm_memo()
            };

            // Warm only the cache hop under test, while the hub is healthy.
            let (_, chunks) = index.file_chunks(LAZY_FILE).unwrap();
            let blobs = std::iter::once(index_digest).chain(chunks.iter().map(|c| c.digest));
            let t0 = SimTime::ZERO;
            match label {
                "tier" => {
                    let (m, _) = tier.pull_manifest("hpc/app", "v1", t0).unwrap();
                    let image = std::iter::once(&m.config).chain(m.layers.iter());
                    for d in image.map(|d| d.digest).chain(blobs) {
                        tier.pull_blob(&d, t0).unwrap();
                    }
                }
                "proxy" => {
                    proxy.pull_manifest("hpc/app", "v1", t0).unwrap();
                    for d in blobs {
                        proxy.pull_blob(&d, t0).unwrap();
                    }
                }
                _ => {}
            }
            let engine = engines::podman();
            let clock = SimClock::new();
            if label == "warm-cache" {
                engine.pull(sources(), "hpc/app", "v1", &clock).unwrap();
            }

            // Then everything upstream of the serving hop goes away.
            let inj = outage_forever(31);
            if serving > 0 {
                hub.set_fault_injector(Arc::clone(&inj));
            }
            if label == "warm-cache" {
                mirror.set_fault_injector(Arc::clone(&inj));
            }
            engine.set_fault_injector(Arc::clone(&inj));

            let (op, ops_per_row) = if lazy {
                let c = engine.pull_lazy(sources(), &index_digest, &clock).unwrap();
                assert_eq!(c.index_source(), label, "{row}");
                assert_eq!(c.read_file(LAZY_FILE, &clock).unwrap(), [0x5A; 3000]);
                assert_eq!(c.stats().chunk_misses, 1, "{row}");
                ("engine.lazy.fetch", 2) // the index, then the chunk
            } else {
                let pulled = engine.pull(sources(), "hpc/app", "v1", &clock).unwrap();
                assert_eq!(pulled.source, label, "{row}");
                assert!(!pulled.layers.is_empty());
                ("engine.pull", 1)
            };

            let m = inj.metrics();
            for link in 0..4 {
                let walked = if link < serving { ops_per_row } else { 0 };
                let degrade = format!("degrade.{op}.{}_to_{}", CHAIN[link], CHAIN[link + 1]);
                assert_eq!(m.get(&degrade), walked, "{row}: {degrade}");
                let giveup = format!("retry.{}.giveup", stems(op)[link]);
                assert_eq!(m.get(&giveup), walked, "{row}: {giveup}");
            }
        }
    }

    // Shared breakers: an exhausted image pull opens the primary's
    // breaker, and the next chunk fault on the same engine skips the
    // primary without spending a single attempt on it.
    let hub = hub_with_image();
    let mirror = hub_with_image();
    let (index_digest, _) = publish_seekable(&hub, &lazy_fs, &VPath::root(), 4096).unwrap();
    publish_seekable(&mirror, &lazy_fs, &VPath::root(), 4096).unwrap();
    let sources = || PullSources {
        mirror: Some(&mirror),
        ..PullSources::primary_only(&hub).with_warm_memo()
    };
    let engine = engines::podman();
    let res = Arc::new(PullResilience::new(BreakerConfig {
        failure_threshold: 1,
        ..BreakerConfig::default()
    }));
    engine.set_pull_resilience(Some(Arc::clone(&res)));
    let clock = SimClock::new();
    let container = engine.pull_lazy(sources(), &index_digest, &clock).unwrap();
    assert_eq!(container.index_source(), "primary");

    let inj = outage_forever(37);
    hub.set_fault_injector(Arc::clone(&inj));
    engine.set_fault_injector(Arc::clone(&inj));
    let pulled = engine.pull(sources(), "hpc/app", "v1", &clock).unwrap();
    assert_eq!(pulled.source, "mirror");
    let m = inj.metrics();
    assert_eq!(m.get("breaker.primary.open"), 1);
    assert!(matches!(
        res.breaker("primary").state(),
        BreakerState::Open { probe_at } if clock.now() < probe_at
    ));

    container.read_file(LAZY_FILE, &clock).unwrap();
    assert_eq!(m.get("breaker.primary.short_circuit"), 1);
    assert_eq!(m.get("retry.engine.lazy.fetch.attempts"), 0);
    assert_eq!(m.get("retry.engine.lazy.fetch.mirror.attempts"), 1);
    assert_eq!(m.get("degrade.engine.lazy.fetch.primary_to_mirror"), 1);
}

/// A half-open probe that ends in a *non-transient* answer must still
/// leave `HalfOpen`: the probe of a recovered primary happens to be a pull
/// of an unknown repo (fatal, never retried), and an unknown repo is still
/// an answer — the endpoint is alive, the breaker closes, and the pulls
/// after it go back to the primary instead of the mirror forever.
#[test]
fn fatal_probe_answer_closes_the_breaker_instead_of_wedging_it() {
    let hub = hub_with_image();
    let mirror = hub_with_image();
    let sources = PullSources {
        mirror: Some(&mirror),
        ..PullSources::primary_only(&hub).with_warm_memo()
    };
    let inj = Arc::new(FaultInjector::new(
        41,
        vec![FaultRule::sticky(
            FaultKind::RegistryUnavailable,
            SimTime::ZERO,
            SimTime::ZERO + SimSpan::secs(10),
        )],
    ));
    hub.set_fault_injector(Arc::clone(&inj));
    let engine = engines::podman();
    engine.set_fault_injector(Arc::clone(&inj));
    let res = Arc::new(PullResilience::new(BreakerConfig {
        failure_threshold: 1,
        cooldown: SimSpan::secs(5),
        probe_jitter: 0.0,
        ..BreakerConfig::default()
    }));
    engine.set_pull_resilience(Some(Arc::clone(&res)));
    let clock = SimClock::new();

    // The outage: the ladder exhausts on the primary, the mirror serves.
    let pulled = engine.pull(sources, "hpc/app", "v1", &clock).unwrap();
    assert_eq!(pulled.source, "mirror");
    assert!(matches!(
        res.breaker("primary").state(),
        BreakerState::Open { .. }
    ));

    // Healed and cooled down: the probe is a pull nobody can serve.
    clock.advance_to(SimTime::ZERO + SimSpan::secs(30));
    let err = engine.pull(sources, "hpc/ghost", "v1", &clock).unwrap_err();
    assert!(!err.is_transient(), "{err}");
    assert_eq!(inj.metrics().get("breaker.primary.half_open"), 1);
    assert_eq!(res.breaker("primary").state(), BreakerState::Closed);

    for minute in 1..=5 {
        clock.advance_to(SimTime::ZERO + SimSpan::secs(30 + 60 * minute));
        let pulled = engine.pull(sources, "hpc/app", "v1", &clock).unwrap();
        assert_eq!(pulled.source, "primary", "pull {minute} after the probe");
    }
    assert_eq!(inj.metrics().get("breaker.primary.close"), 1);
}

// ------------------------------------------------------------ shared FS

/// A metadata-server brownout makes shared-filesystem reads overrun their
/// stage timeout; the launcher degrades to the image copy already staged
/// on node-local disk and the job still gets its bytes.
#[test]
fn shared_fs_brownout_degrades_to_node_local_cache() {
    // Build a squash image and stage it to four nodes while healthy.
    let mut fs = MemFs::new();
    fs.mkdir_p(&VPath::parse("/app")).unwrap();
    fs.write_p(&VPath::parse("/app/solver"), vec![7u8; 4096])
        .unwrap();
    let img = SquashImage::build(&fs, &VPath::root(), hpcc_codec::compress::Codec::Lz).unwrap();

    let shared = SharedFs::with_defaults();
    let disks: Vec<Arc<NodeLocalDisk>> = (0..4).map(|_| Arc::new(NodeLocalDisk::new())).collect();
    stage_image_to_nodes(&shared, &img, &disks, SimTime::ZERO).unwrap();

    // Brownout from t=10s on.
    let inj = Arc::new(FaultInjector::new(
        3,
        vec![FaultRule::sticky(
            FaultKind::MdsBrownout,
            SimTime::ZERO + SimSpan::secs(10),
            forever(),
        )],
    ));
    shared.set_fault_injector(Arc::clone(&inj));

    // At t=20s a launcher re-opens the image from shared storage under a
    // per-stage timeout sized for the healthy filesystem (~0.2ms per
    // small read; the ×40 brownout pushes it near 5ms).
    let t = SimTime::ZERO + SimSpan::secs(20);
    let policy = RetryPolicy::no_retries().with_attempt_timeout(SimSpan::millis(1));
    let err = policy
        .run_timed(
            &inj,
            "image.open.shared",
            Stage::Storage,
            t,
            |_e: &String| true,
            |_, at| Ok::<_, String>(((), shared.read_bulk(Bytes::new(img.len_bytes()), at))),
        )
        .unwrap_err();
    assert!(err.gave_up, "stage timeout exhausts the (single) attempt");

    // Degrade: read the staged copy from node-local disk instead.
    let (bytes, local_done) = disks[0]
        .read(&VPath::parse("/scratch/image.sqsh"), err.at)
        .unwrap();
    inj.note_degrade("image.open", "shared_fs", "node_local", err.at);
    assert_eq!(bytes.as_slice(), img.as_bytes(), "staged copy is intact");
    assert!(local_done < t + SimSpan::secs(1), "local read is prompt");

    let m = inj.metrics();
    assert_eq!(m.get("retry.image.open.shared.stage_timeout"), 1);
    assert_eq!(m.get("degrade.image.open.shared_fs_to_node_local"), 1);
    assert!(m.get("faults.injected.mds_brownout") >= 1);
}

// ------------------------------------------------------------ p2p (Q10)

/// Peer churn removes holders from the swarm mid-broadcast; the Q10
/// broadcast still delivers the image to every node (the last holder can
/// never depart), it just takes at least as long as the churn-free run.
#[test]
fn p2p_broadcast_survives_seed_churn() {
    let nodes = 64usize;
    let ids: Vec<NodeId> = (0..nodes as u32).map(NodeId).collect();
    let shared = SharedFs::with_defaults();
    let fabric = Fabric::with_defaults(ids.iter().copied());
    let size = Bytes::new(2 * 1024 * 1024 * 1024);

    let quiet = Tracer::disabled();
    let calm = broadcast_p2p(
        &shared,
        &fabric,
        size,
        &ids,
        4,
        SimTime::ZERO,
        &FaultInjector::disabled(),
        &quiet,
    );

    shared.reset_contention();
    let inj = FaultInjector::new(29, vec![FaultRule::background(FaultKind::PeerChurn, 0.3)]);
    let churned = broadcast_p2p(&shared, &fabric, size, &ids, 4, SimTime::ZERO, &inj, &quiet);

    assert_eq!(churned.per_node_done.len(), nodes, "every node served");
    assert!(
        churned.all_done >= calm.all_done,
        "churn cannot speed up the broadcast"
    );
    assert!(
        inj.metrics().get("faults.injected.peer_churn") >= 1,
        "churn actually fired"
    );
}

// ------------------------------------------------------------ giveups

/// Exhausting the retry budget against a dead registry is a typed error —
/// `EngineError::Exhausted` with the real attempt count — not a panic.
#[test]
fn pull_giveup_is_typed_through_the_engine() {
    let hub = hub_with_image();
    let inj = Arc::new(FaultInjector::new(
        17,
        vec![FaultRule::sticky(
            FaultKind::RegistryUnavailable,
            SimTime::ZERO,
            forever(),
        )],
    ));
    hub.set_fault_injector(Arc::clone(&inj));
    let engine = engines::podman();
    engine.set_fault_injector(Arc::clone(&inj));
    let clock = SimClock::new();

    match engine.pull(&hub, "hpc/app", "v1", &clock) {
        Err(EngineError::Exhausted { op, attempts, .. }) => {
            assert_eq!(op, "engine.pull");
            assert_eq!(attempts, 5, "default policy budget");
        }
        other => panic!("expected Exhausted, got {other:?}"),
    }
    assert_eq!(inj.metrics().get("retry.engine.pull.giveup"), 1);
}

/// Prolog failures that exhaust the WLM's requeue budget surface through
/// the virtual kubelet as a `Failed` pod, with the WLM's reason attached.
#[test]
fn prolog_faults_surface_as_failed_pods_through_the_bridge() {
    let api = ApiServer::new();
    let mut slurm = Slurm::new();
    slurm.add_partition("batch", NodeSpec::cpu_node(), 2);
    let inj = Arc::new(FaultInjector::new(
        5,
        vec![FaultRule::sticky(
            FaultKind::PrologFailure,
            SimTime::ZERO,
            forever(),
        )],
    ));
    slurm.set_fault_injector(Arc::clone(&inj));
    slurm.set_max_requeues(1);

    let aggregate = Resources {
        cpu_millis: 2 * 128_000,
        memory_mb: 2 * 256 * 1024,
        gpus: 0,
    };
    let mut vk = VirtualKubelet::start("knoc", "batch", aggregate, &api).unwrap();
    api.create_pod(PodSpec::simple("doomed", "hpc/app:v1", SimSpan::secs(30)))
        .unwrap();
    Scheduler::new().schedule(&api);

    // One prolog attempt per reconcile pass; budget of 1 requeue means
    // the third pass at the latest observes the Failed job.
    for i in 0..4u64 {
        vk.reconcile(&api, &mut slurm, SimTime::ZERO + SimSpan::secs(i));
    }

    match api.pod("doomed").unwrap().phase {
        PodPhase::Failed { reason } => {
            assert!(reason.contains("failed before start"), "{reason}")
        }
        other => panic!("expected Failed pod, got {other:?}"),
    }
    let m = inj.metrics();
    assert_eq!(m.get("wlm.prolog.requeues"), 1);
    assert_eq!(m.get("wlm.prolog.job_failed"), 1);
}

/// A permanently flapping CRI exhausts the kubelet's launch retries into
/// an image-pull-backoff `Failed` phase — through the *real* engine CRI,
/// not a stub.
#[test]
fn cri_flaps_exhaust_into_image_pull_backoff() {
    let api = ApiServer::new();
    let clock = SimClock::new();
    let hub = hub_with_image();
    let cri = EngineCri {
        engine: engines::podman(),
        registry: Arc::clone(&hub),
        host: Host::compute_node(),
        user: 1000,
    };
    let mut cg = CgroupTree::new(CgroupVersion::V1);
    let mut kubelet = Kubelet::start(
        "n0",
        KubeletMode::Rootful,
        Arc::new(cri),
        &mut cg,
        Resources {
            cpu_millis: 64_000,
            memory_mb: 128 * 1024,
            gpus: 0,
        },
        BTreeMap::new(),
        &api,
        &clock,
    )
    .unwrap();
    let inj = Arc::new(FaultInjector::new(
        23,
        vec![FaultRule::sticky(
            FaultKind::CriFlap,
            SimTime::ZERO,
            forever(),
        )],
    ));
    kubelet.set_fault_injector(Arc::clone(&inj));

    api.create_pod(PodSpec::simple("p", "hpc/app:v1", SimSpan::secs(60)))
        .unwrap();
    Scheduler::new().schedule(&api);
    kubelet.sync(&api, &clock);

    match api.pod("p").unwrap().phase {
        PodPhase::Failed { reason } => {
            assert!(reason.contains("backoff"), "{reason}");
            assert!(reason.contains("gave up after 5 attempts"), "{reason}");
        }
        other => panic!("expected Failed pod, got {other:?}"),
    }
    assert_eq!(inj.metrics().get("retry.kubelet.start_pod.giveup"), 1);

    // And the same kubelet launches fine once the flap schedule is gone —
    // no sticky poisoned state.
    kubelet.set_fault_injector(FaultInjector::disabled());
    api.create_pod(PodSpec::simple("q", "hpc/app:v1", SimSpan::secs(60)))
        .unwrap();
    Scheduler::new().schedule(&api);
    let started = kubelet.sync(&api, &clock);
    assert_eq!(started, vec!["q"]);
}

// ------------------------------------------------------------ determinism

/// One combined chaos pass: a registry blip a pull retries through, a
/// brownout probe, a churned broadcast and a doomed prolog. Returns the
/// injector for trace/metrics inspection.
fn chaos_scenario(seed: u64) -> Arc<FaultInjector> {
    let t0 = SimTime::ZERO;
    let inj = Arc::new(FaultInjector::new(
        seed,
        vec![
            // Registry blip: down for 300ms starting just into the pull.
            FaultRule::sticky(
                FaultKind::RegistryUnavailable,
                t0 + SimSpan::millis(1),
                t0 + SimSpan::millis(300),
            ),
            FaultRule::sticky(FaultKind::MdsBrownout, t0 + SimSpan::secs(10), forever()),
            FaultRule::background(FaultKind::PeerChurn, 0.25),
            FaultRule::sticky(FaultKind::PrologFailure, t0, forever()),
        ],
    ));

    // Pull through the blip.
    let hub = hub_with_image();
    hub.set_fault_injector(Arc::clone(&inj));
    let engine = engines::podman();
    engine.set_fault_injector(Arc::clone(&inj));
    let clock = SimClock::new();
    engine.pull(&hub, "hpc/app", "v1", &clock).unwrap();

    // Brownout probe.
    let shared = SharedFs::with_defaults();
    shared.set_fault_injector(Arc::clone(&inj));
    let _ = shared.metadata_op(t0 + SimSpan::secs(20));

    // Churned broadcast.
    let ids: Vec<NodeId> = (0..32u32).map(NodeId).collect();
    let fabric = Fabric::with_defaults(ids.iter().copied());
    let bcast_fs = SharedFs::with_defaults();
    broadcast_p2p(
        &bcast_fs,
        &fabric,
        Bytes::new(1024 * 1024 * 1024),
        &ids,
        2,
        t0,
        &inj,
        &Tracer::disabled(),
    );

    // Doomed prolog.
    let mut slurm = Slurm::new();
    slurm.add_partition("batch", NodeSpec::cpu_node(), 1);
    slurm.set_fault_injector(Arc::clone(&inj));
    slurm.set_max_requeues(1);
    let job = slurm
        .submit(
            hpcc_wlm::types::JobRequest::batch("doomed", 1, 1, SimSpan::secs(10)),
            t0,
        )
        .unwrap();
    for i in 0..3u64 {
        slurm.schedule(t0 + SimSpan::secs(i));
    }
    assert!(slurm.job(job).unwrap().is_failed());

    inj
}

/// The chaos scenario is seed-stable across the whole seed sweep, not
/// just the CI seed: running it twice under each of eight seeds must
/// reproduce the decision trace digest and the metrics dump exactly.
#[test]
fn chaos_digests_are_stable_across_eight_seeds() {
    for seed in [1u64, 2, 3, 5, 8, 13, 21, 42] {
        let a = chaos_scenario(seed);
        let b = chaos_scenario(seed);
        assert_eq!(
            a.trace_digest(),
            b.trace_digest(),
            "trace digest diverged under seed {seed}"
        );
        assert_eq!(a.trace(), b.trace(), "decision trace diverged, seed {seed}");
        assert_eq!(
            a.metrics().render(),
            b.metrics().render(),
            "metrics diverged under seed {seed}"
        );
    }
}

/// Degradation-order contract: with the primary registry permanently
/// down but a warm proxy tier available, `pull` must walk the
/// fallback chain — it may never surface `Exhausted` while an untried
/// tier remains, under any seed.
#[test]
fn resilient_pull_never_exhausts_while_a_fallback_remains() {
    for seed in [1u64, 2, 3, 5, 8, 13, 21, 42] {
        let hub = hub_with_image();
        let proxy = ProxyRegistry::new(site_registry(), Arc::clone(&hub)).unwrap();
        proxy.pull_manifest("hpc/app", "v1", SimTime::ZERO).unwrap();
        let inj = Arc::new(FaultInjector::new(
            seed,
            vec![FaultRule::sticky(
                FaultKind::RegistryUnavailable,
                SimTime::ZERO,
                forever(),
            )],
        ));
        hub.set_fault_injector(Arc::clone(&inj));
        let engine = engines::podman();
        engine.set_fault_injector(Arc::clone(&inj));
        let clock = SimClock::new();
        let sources = PullSources {
            proxy: Some(&proxy),
            ..PullSources::primary_only(&hub).with_warm_memo()
        };
        match engine.pull(sources, "hpc/app", "v1", &clock) {
            Ok(pulled) => {
                assert_ne!(pulled.source, "primary", "primary was down, seed {seed}");
                assert!(!pulled.layers.is_empty());
            }
            Err(e) => panic!("seed {seed}: gave up with '{e}' though the proxy tier was untried"),
        }
        assert_eq!(
            inj.metrics().get("degrade.engine.pull.primary_to_proxy"),
            1,
            "the fallback tier must actually have been tried, seed {seed}"
        );
    }
}

/// The combined scenario is bit-reproducible, and its metrics dump is
/// printed for `scripts/ci.sh` to diff across two runs with the same
/// `CHAOS_SEED`.
#[test]
fn chaos_scenario_is_reproducible() {
    let seed = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42u64);
    let a = chaos_scenario(seed);
    let b = chaos_scenario(seed);
    assert_eq!(a.trace(), b.trace(), "fault/retry traces diverged");
    assert_eq!(a.trace_digest(), b.trace_digest());
    assert_eq!(a.metrics().render(), b.metrics().render());

    println!("CHAOS seed={seed} trace_digest={:016x}", a.trace_digest());
    for line in a.metrics().render().lines() {
        println!("CHAOS {line}");
    }
}
