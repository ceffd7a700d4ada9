//! Crash matrix: kill the pipeline at every registered crash point,
//! recover, and prove the invariants hold.
//!
//! The harness runs the canonical pull→convert→cache→run workload once
//! uncrashed to enumerate the crash points the journalled pipeline
//! registers, then replays it once per point (first and last visit),
//! killing the process there, running fsck-style recovery over the
//! durable state (journal + blob store), and finishing the workload on a
//! fresh engine — the way a restarted daemon would. After every cell:
//!
//! - no orphaned staged blobs survive recovery,
//! - no refcount pins outlive the crashed process,
//! - the final store is byte-identical to the uncrashed run,
//! - the resumed pull re-fetches no more bytes than a cold pull, and
//!   strictly fewer whenever any committed layer survived the crash.
//!
//! A property test layers crash-during-recovery on top and checks that
//! recovery is idempotent. Slurm requeue and kubelet replay close the
//! loop on the "no duplicate execution" invariant.

use hpcc_crypto::sha256::Digest;
use hpcc_engine::engine::{Engine, EngineError, Host, PullResilience, RunOptions};
use hpcc_engine::{engines, publish_seekable, PullSources};
use hpcc_k8s::kubelet::{EngineCri, Kubelet, KubeletMode};
use hpcc_k8s::objects::{ApiServer, PodPhase, PodSpec, Resources};
use hpcc_k8s::scheduler::Scheduler;
use hpcc_oci::builder::samples;
use hpcc_oci::cas::Cas;
use hpcc_registry::registry::{Registry, RegistryCaps, RegistryError};
use hpcc_registry::tiered::{ImageSpec, StormConfig, StormTopology};
use hpcc_runtime::cgroup::{CgroupTree, CgroupVersion};
use hpcc_sim::resilience::{
    BreakerConfig, BreakerState, ADMISSION_SHED_CRASH_POINT, BREAKER_PROBE_CRASH_POINT,
};
use hpcc_sim::{
    Bytes, CrashInjector, DomainSchedule, DomainTopology, FaultInjector, FaultKind, FaultRule,
    OutageEvent, OutageKind, Recoverable, SimClock, SimSpan, SimTime,
};
use hpcc_storage::{BlobStore, JournaledStore, JOURNAL_SITES};
use hpcc_vfs::{MemFs, VPath};
use hpcc_wlm::slurm::Slurm;
use hpcc_wlm::types::{JobRequest, JobState, NodeSpec};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};

// ------------------------------------------------------------ fixtures

/// A hub registry holding `hpc/app:v1` (a small sample image).
fn hub_with_image() -> Arc<Registry> {
    let hub = Registry::new("hub", RegistryCaps::open());
    hub.create_namespace("hpc", None).unwrap();
    let cas = Cas::new();
    let img = samples::python_app(&cas, 8);
    hub.push_image("hpc/app", "v1", &img.manifest, &cas)
        .unwrap();
    Arc::new(hub)
}

/// One matrix cell's durable state plus the shared injectors. The engine
/// is deliberately *not* part of the cell: a crash kills the engine
/// process, so each (re)run attaches a fresh one to the same journal.
struct Cell {
    hub: Arc<Registry>,
    store: Arc<BlobStore>,
    journal: Arc<JournaledStore>,
    crash: Arc<CrashInjector>,
    inj: Arc<FaultInjector>,
    clock: SimClock,
}

fn cell() -> Cell {
    cell_with(Arc::new(FaultInjector::new(0, Vec::new())))
}

fn cell_with(inj: Arc<FaultInjector>) -> Cell {
    let store = BlobStore::new(8, 1 << 30);
    let journal = JournaledStore::new(Arc::clone(&store));
    let crash = CrashInjector::enabled();
    crash.set_fault_injector(Arc::clone(&inj));
    journal.set_crash_injector(Arc::clone(&crash));
    Cell {
        hub: hub_with_image(),
        store,
        journal,
        crash,
        inj,
        clock: SimClock::new(),
    }
}

/// A freshly (re)started engine daemon attached to the cell's durable
/// state — what comes up after a crash.
fn attach_engine(c: &Cell) -> Engine {
    let engine = engines::sarus();
    engine.set_parallelism(4);
    engine.set_journaled_store(Arc::clone(&c.journal));
    engine.set_crash_injector(Arc::clone(&c.crash));
    engine.set_fault_injector(Arc::clone(&c.inj));
    engine
}

/// The canonical workload: cold deploy of `hpc/app:v1` (pull → convert →
/// cache → run) through a conversion-needing engine.
fn deploy_once(engine: &Engine, c: &Cell) -> Result<(), EngineError> {
    engine
        .deploy(
            &c.hub,
            "hpc/app",
            "v1",
            1000,
            &Host::compute_node(),
            RunOptions::default(),
            &c.clock,
        )
        .map(|_| ())
}

/// Crash points registered by one clean run of the workload, in
/// first-visit order (shared by the matrix and the property test).
fn registered_points() -> &'static [&'static str] {
    static POINTS: OnceLock<Vec<&'static str>> = OnceLock::new();
    POINTS.get_or_init(|| {
        let c = cell();
        deploy_once(&attach_engine(&c), &c).expect("uncrashed reference deploy");
        c.crash.points()
    })
}

fn fetched_bytes(c: &Cell) -> u64 {
    c.inj.metrics().get("engine.pull.fetched_bytes")
}

// ---------------------------------------------------------- the matrix

/// Kill at every registered crash point (first and last visit), recover,
/// finish on a fresh engine, and hold the recovery invariants.
#[test]
fn crash_matrix_kill_recover_at_every_point() {
    // Uncrashed reference run: enumerates the points and pins the final
    // durable state every crashed cell must converge back to.
    let reference = cell();
    deploy_once(&attach_engine(&reference), &reference).expect("reference deploy");
    let points = reference.crash.points();
    let cold_fetched = fetched_bytes(&reference);
    assert!(cold_fetched > 0, "cold pull must fetch bytes");
    let ref_digests = reference.store.digests();
    let ref_checkpoint = reference.journal.checkpoint(reference.clock.now());
    assert!(
        points.len() >= 10,
        "expected a dense crash-point surface, got {points:?}"
    );

    let mut observed: BTreeSet<String> = points.iter().map(|p| p.to_string()).collect();
    let mut strict_savings = 0u64;
    for point in &points {
        let total_visits = reference.crash.visits(point);
        assert!(total_visits >= 1);
        let mut nths = vec![1];
        if total_visits > 1 {
            nths.push(total_visits);
        }
        for nth in nths {
            let c = cell();
            c.crash.arm(point, nth);
            match deploy_once(&attach_engine(&c), &c) {
                Err(EngineError::Crash(dead)) => assert_eq!(dead.point, *point),
                Err(other) => panic!("{point}#{nth}: expected a crash, got {other}"),
                Ok(()) => panic!("{point}#{nth}: workload survived its own death"),
            }
            assert!(
                !c.crash.is_armed(),
                "{point}#{nth}: the arm must have fired"
            );
            assert_eq!(c.crash.crashes(), 1);

            // fsck over the durable state, as a restarted daemon would.
            let journal_len = c.journal.len();
            let now = c.clock.now();
            let report = c.journal.recover(now).expect("recovery completes");
            assert!(
                c.journal.open_intents().is_empty(),
                "{point}#{nth}: recovery must close every intent"
            );
            assert!(
                c.journal.orphaned_staged().is_empty(),
                "{point}#{nth}: orphaned staged blobs survived recovery"
            );
            assert!(
                c.store.pinned().is_empty(),
                "{point}#{nth}: refcount pins outlived the crashed process"
            );
            let resident = c.store.digests().len();

            // Finish the workload on a fresh engine over the recovered
            // store; committed layers must not be re-fetched.
            let before = fetched_bytes(&c);
            deploy_once(&attach_engine(&c), &c).expect("deploy after recovery");
            let refetched = fetched_bytes(&c) - before;
            assert!(
                refetched <= cold_fetched,
                "{point}#{nth}: resumed pull fetched more than a cold pull"
            );
            if resident > 0 {
                assert!(
                    refetched < cold_fetched,
                    "{point}#{nth}: {resident} committed blobs survived but were re-fetched"
                );
                strict_savings += 1;
            }

            // Converged: the store is byte-identical to the uncrashed run.
            assert_eq!(
                c.store.digests(),
                ref_digests,
                "{point}#{nth}: final store diverged from the uncrashed run"
            );
            assert_eq!(
                c.journal.checkpoint(c.clock.now()),
                ref_checkpoint,
                "{point}#{nth}: store checkpoint diverged from the uncrashed run"
            );
            assert!(c.journal.orphaned_staged().is_empty());
            assert!(c.store.pinned().is_empty());

            observed.extend(c.crash.points().into_iter().map(|p| p.to_string()));
            println!(
                "CRASHCELL point={point} nth={nth} journal_len={journal_len} \
                 recovery_ns={} rolled={} discarded={} rebuilt={} \
                 resident={resident} refetched={refetched} cold={cold_fetched}",
                report.took.0, report.rolled_forward, report.discarded, report.rebuilt
            );
        }
    }
    assert!(
        strict_savings > 0,
        "at least one cell must demonstrate a strictly cheaper resumed pull"
    );

    // A non-crash pull failure takes the abort path (registering the
    // abort sites) and leaves no residue either. The outage opens just
    // after the manifest lands, so the intent is already open.
    let c = cell_with(Arc::new(FaultInjector::new(
        7,
        vec![FaultRule::sticky(
            FaultKind::RegistryUnavailable,
            SimTime::ZERO + SimSpan::millis(1),
            SimTime(u64::MAX),
        )],
    )));
    c.hub.set_fault_injector(Arc::clone(&c.inj));
    let engine = attach_engine(&c);
    deploy_once(&engine, &c).expect_err("pull through a permanent outage fails");
    assert!(
        c.journal.open_intents().is_empty(),
        "a failed (non-crashed) pull must abort its intent"
    );
    assert!(c.journal.orphaned_staged().is_empty());
    assert!(c.store.pinned().is_empty());
    observed.extend(c.crash.points().into_iter().map(|p| p.to_string()));

    // Every journal write site registered both of its crash points
    // somewhere in the matrix — an unregistered site cannot be killed,
    // so it would never be proven recoverable.
    for site in JOURNAL_SITES {
        for suffix in [".pre", ".post"] {
            let want = format!("{site}{suffix}");
            assert!(
                observed.contains(&want),
                "journal site point {want} never registered in the matrix"
            );
        }
    }
}

// ------------------------------------------- lazy page-in crash matrix

/// One lazy-pull matrix cell: a seekable image on the hub plus the
/// node's durable state. 4 KiB chunks over 6 KB files give every file
/// two ranges, so kills land *between* the chunks of a single file too.
struct LazyCell {
    hub: Registry,
    index_digest: Digest,
    store: Arc<BlobStore>,
    journal: Arc<JournaledStore>,
    crash: Arc<CrashInjector>,
    inj: Arc<FaultInjector>,
    clock: SimClock,
}

fn lazy_tree() -> MemFs {
    let mut fs = MemFs::new();
    for i in 0..12 {
        let data: Vec<u8> = (0..6000).map(|j| ((i * 31 + j * 7) % 251) as u8).collect();
        fs.write_p(
            &VPath::parse(&format!("/srv/app/pkg{}/mod{i}.py", i % 4)),
            data,
        )
        .unwrap();
    }
    fs
}

fn lazy_cell() -> LazyCell {
    let store = BlobStore::new(8, 1 << 30);
    let journal = JournaledStore::new(Arc::clone(&store));
    let crash = CrashInjector::enabled();
    let inj = Arc::new(FaultInjector::new(0, Vec::new()));
    crash.set_fault_injector(Arc::clone(&inj));
    journal.set_crash_injector(Arc::clone(&crash));
    let hub = Registry::new("lazy-hub", RegistryCaps::open());
    let (index_digest, _) = publish_seekable(&hub, &lazy_tree(), &VPath::root(), 4096).unwrap();
    LazyCell {
        hub,
        index_digest,
        store,
        journal,
        crash,
        inj,
        clock: SimClock::new(),
    }
}

fn lazy_attach(c: &LazyCell) -> Engine {
    let engine = engines::sarus();
    engine.set_journaled_store(Arc::clone(&c.journal));
    engine.set_crash_injector(Arc::clone(&c.crash));
    engine.set_fault_injector(Arc::clone(&c.inj));
    engine
}

/// Launch lazily and touch every range — the lazy analogue of
/// [`deploy_once`]. Returns the materialized tree's digest.
fn lazy_deploy_once(engine: &Engine, c: &LazyCell) -> Result<Digest, EngineError> {
    let container =
        engine.pull_lazy(PullSources::primary_only(&c.hub), &c.index_digest, &c.clock)?;
    let fs = container.materialize(&c.clock)?;
    Ok(fs
        .tree_digest(&VPath::root())
        .expect("materialized tree digests"))
}

fn lazy_fetched_bytes(c: &LazyCell) -> u64 {
    c.inj.metrics().get("engine.lazy.fetched_bytes")
}

/// Kill a lazy pull at every crash point it registers — the index fetch,
/// every page-in fault, and each journal write inside their intents —
/// recover, and hold the same invariants as the eager matrix: no
/// orphaned staged chunks, no surviving pins, the resumed lazy pull
/// fetches strictly fewer bytes than cold whenever committed chunks
/// survived, and the materialized tree converges to the uncrashed one.
#[test]
fn lazy_page_in_crash_matrix_kill_recover_at_every_point() {
    let reference = lazy_cell();
    let ref_tree = lazy_deploy_once(&lazy_attach(&reference), &reference).expect("reference run");
    let points = reference.crash.points();
    let cold_fetched = lazy_fetched_bytes(&reference);
    assert!(cold_fetched > 0, "cold lazy pull must fetch bytes");
    let ref_digests = reference.store.digests();
    for want in ["lazy.index.fetch.pre", "lazy.fault.fetch.pre"] {
        assert!(
            points.contains(&want),
            "lazy pipeline must register {want}, got {points:?}"
        );
    }

    let mut strict_savings = 0u64;
    for point in &points {
        let total_visits = reference.crash.visits(point);
        assert!(total_visits >= 1);
        let mut nths = vec![1];
        if total_visits > 1 {
            nths.push(total_visits);
        }
        for nth in nths {
            let c = lazy_cell();
            c.crash.arm(point, nth);
            match lazy_deploy_once(&lazy_attach(&c), &c) {
                Err(EngineError::Crash(dead)) => assert_eq!(dead.point, *point),
                Err(other) => panic!("{point}#{nth}: expected a crash, got {other}"),
                Ok(_) => panic!("{point}#{nth}: lazy pull survived its own death"),
            }
            assert!(
                !c.crash.is_armed(),
                "{point}#{nth}: the arm must have fired"
            );

            // fsck, as the restarted node daemon would.
            c.journal
                .recover(c.clock.now())
                .expect("recovery completes");
            assert!(
                c.journal.open_intents().is_empty(),
                "{point}#{nth}: recovery must close every page-in intent"
            );
            assert!(
                c.journal.orphaned_staged().is_empty(),
                "{point}#{nth}: orphaned staged chunks survived recovery"
            );
            assert!(
                c.store.pinned().is_empty(),
                "{point}#{nth}: refcount pins outlived the crashed process"
            );
            let resident = c.store.digests().len();

            // Resume on a fresh engine: committed chunks are mapped from
            // the store, never re-fetched.
            let before = lazy_fetched_bytes(&c);
            let tree = lazy_deploy_once(&lazy_attach(&c), &c).expect("resume after recovery");
            assert_eq!(
                tree, ref_tree,
                "{point}#{nth}: resumed tree diverged from the uncrashed run"
            );
            let refetched = lazy_fetched_bytes(&c) - before;
            assert!(
                refetched <= cold_fetched,
                "{point}#{nth}: resumed lazy pull fetched more than cold"
            );
            if resident > 0 {
                assert!(
                    refetched < cold_fetched,
                    "{point}#{nth}: {resident} committed blobs survived but were re-fetched"
                );
                strict_savings += 1;
            }
            assert_eq!(
                c.store.digests(),
                ref_digests,
                "{point}#{nth}: final store diverged from the uncrashed run"
            );
        }
    }
    assert!(
        strict_savings > 0,
        "at least one cell must demonstrate a strictly cheaper resumed lazy pull"
    );
}

// ------------------------------------------------- push crash matrix

/// One kill-during-push cell: a built image plus the publisher's durable
/// state (journal + store + transparency log + signing key). The engine
/// is not part of the cell — a crash kills the publisher process, so
/// every (re)attempt runs under a freshly attached one.
struct PushCell {
    registry: Registry,
    cas: Cas,
    store: Arc<BlobStore>,
    journal: Arc<JournaledStore>,
    crash: Arc<CrashInjector>,
    log: hpcc_crypto::translog::TransparencyLog,
    key: hpcc_crypto::wots::Keypair,
    out: hpcc_build::BuildOutput,
    clock: SimClock,
}

fn push_cell() -> PushCell {
    let registry = Registry::new("origin", RegistryCaps::open());
    registry.create_namespace("acme", None).unwrap();
    let store = BlobStore::new(8, 1 << 30);
    let journal = JournaledStore::new(Arc::clone(&store));
    let crash = CrashInjector::enabled();
    journal.set_crash_injector(Arc::clone(&crash));
    let cache = hpcc_build::BuildCache::node_local();
    let cas = Cas::new();
    let clock = SimClock::new();
    let tracer = hpcc_sim::obs::Tracer::new();
    let spec = hpcc_build::BuildSpec::from_scratch("app")
        .run("base", &[("/usr/lib/libc.so", &[0xB0; 4096][..])])
        .copy("/opt/app/run", b"#!solver".to_vec())
        .entrypoint(&["/opt/app/run"]);
    let reqs = vec![hpcc_build::BuildRequest::new("acme", "app", "v1", spec)];
    let out = hpcc_build::build_fleet(&reqs, 4, &cache, &cas, &tracer, &clock)
        .expect("build succeeds")
        .remove(0);
    PushCell {
        registry,
        cas,
        store,
        journal,
        crash,
        log: hpcc_crypto::translog::TransparencyLog::new(),
        key: hpcc_crypto::wots::Keypair::generate(b"push-matrix", 3),
        out,
        clock,
    }
}

/// One publish attempt through a freshly started publisher daemon.
fn push_once(c: &mut PushCell) -> Result<hpcc_build::SignedImage, hpcc_build::PublishError> {
    let engine = engines::podman_hpc();
    hpcc_build::sign_and_push(
        &engine,
        &mut c.key,
        &mut c.log,
        &c.registry,
        &c.out,
        &c.cas,
        &c.journal,
        &c.crash,
        &c.clock,
    )
}

/// Provenance for the signature a verifier would actually fetch (the
/// registry's earliest attached artifact): its log entry re-proved
/// against the *current* tree head. A crashed first attempt may have
/// attached its signature before dying; a resumed push always appends a
/// fresh log entry — either way the earliest signature must still prove.
fn first_signature_proof(c: &PushCell) -> hpcc_crypto::translog::InclusionProof {
    let digest = c.out.image.manifest.digest();
    let descs = c.registry.signatures_of(&digest).unwrap();
    let (sig, _) = c
        .registry
        .pull_blob(&descs[0].digest, c.clock.now())
        .unwrap();
    let mut entry = digest.0.to_vec();
    entry.extend_from_slice(&sig);
    let idx = (0..c.log.size())
        .find(|i| c.log.entry(*i) == Some(entry.as_slice()))
        .expect("attached signature must have a transparency-log entry");
    c.log.prove_inclusion(idx).unwrap()
}

/// Kill the signed push at every crash point it registers — the three
/// `build.push.*` sites plus every journal write inside the push intent —
/// recover, and resume on a fresh publisher. After every cell: recovery
/// leaves no open intents, orphaned staged blobs, or pins; the resumed
/// push converges (tag resolves, earliest signature proves against the
/// current log head, verified pull returns the byte-identical tree).
#[test]
fn push_crash_matrix_kill_recover_at_every_point() {
    let mut reference = push_cell();
    push_once(&mut reference).expect("uncrashed reference push");
    let points = reference.crash.points();
    for want in [
        "build.push.blob.pre",
        "build.push.manifest.pre",
        "build.push.commit.pre",
    ] {
        assert!(
            points.contains(&want),
            "push path must register {want}, got {points:?}"
        );
    }
    let manifest_digest = reference.out.image.manifest.digest();

    for point in &points {
        let total_visits = reference.crash.visits(point);
        assert!(total_visits >= 1);
        let mut nths = vec![1];
        if total_visits > 1 {
            nths.push(total_visits);
        }
        for nth in nths {
            let mut c = push_cell();
            c.crash.arm(point, nth);
            match push_once(&mut c) {
                Err(hpcc_build::PublishError::Crash(dead)) => assert_eq!(dead.point, *point),
                Err(other) => panic!("{point}#{nth}: expected a crash, got {other}"),
                Ok(_) => panic!("{point}#{nth}: push survived its own death"),
            }
            assert!(
                !c.crash.is_armed(),
                "{point}#{nth}: the arm must have fired"
            );

            // fsck, as the restarted publisher would.
            c.journal
                .recover(c.clock.now())
                .expect("recovery completes");
            assert!(
                c.journal.open_intents().is_empty(),
                "{point}#{nth}: recovery must close the push intent"
            );
            assert!(
                c.journal.orphaned_staged().is_empty(),
                "{point}#{nth}: orphaned staged blobs survived recovery"
            );
            assert!(
                c.store.pinned().is_empty(),
                "{point}#{nth}: refcount pins outlived the crashed publisher"
            );

            // Resume: content-addressed uploads dedup against whatever the
            // first attempt landed, so the retry must converge cleanly.
            push_once(&mut c).expect("resumed push succeeds");
            assert!(
                c.journal.open_intents().is_empty(),
                "{point}#{nth}: resumed push must commit its intent"
            );
            assert_eq!(
                c.registry.resolve_tag("acme/app", "v1").unwrap(),
                manifest_digest,
                "{point}#{nth}: tag must resolve to the built manifest"
            );

            // The full loop closes: a verifier pulls through the normal
            // engine path and gets the byte-identical tree back.
            let proof = first_signature_proof(&c);
            let verifier = engines::podman_hpc();
            let pulled = hpcc_build::verified_pull(
                &verifier,
                &c.registry,
                "acme/app",
                "v1",
                &proof,
                &c.log.head(),
                &c.clock,
            )
            .unwrap_or_else(|e| panic!("{point}#{nth}: verified pull failed: {e}"));
            let root = hpcc_oci::layer::flatten(&pulled.layers).unwrap();
            assert_eq!(
                root.tree_digest(&VPath::root()).unwrap(),
                c.out.root_digest,
                "{point}#{nth}: pulled tree diverged from the build output"
            );
        }
    }
}

// ----------------------------------------------- recovery idempotence

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Recovery is idempotent and survives crashing *during* recovery:
    /// kill the workload at an arbitrary point, optionally kill the first
    /// recovery pass too, and a subsequent pass must still converge —
    /// after which further passes are no-ops.
    #[test]
    fn recovery_is_idempotent_even_when_recovery_crashes(
        idx in 0usize..64,
        rec in 0usize..4,
    ) {
        let points = registered_points();
        let point = points[idx % points.len()];
        let c = cell();
        c.crash.arm(point, 1);
        let err = deploy_once(&attach_engine(&c), &c);
        prop_assert!(err.is_err(), "{point}: workload must crash");

        let now = c.clock.now();
        // Three of four cases also kill the recovery pass itself; the
        // armed point may legitimately never be reached (e.g. nothing to
        // abort), so disarm before the retry.
        let recovery_points = [
            "recover.scan.pre",
            "journal.recover.abort.pre",
            "journal.recover.abort.post",
        ];
        if rec < recovery_points.len() {
            c.crash.arm(recovery_points[rec], 1);
            let _ = c.journal.recover(now); // may die mid-fsck
            c.crash.disarm();
        }
        c.journal.recover(now).expect("recovery completes once not crashed");
        let settled = c.journal.checkpoint(now);
        let rerun = c.journal.recover(now).expect("recovery is re-runnable");
        prop_assert_eq!(rerun.discarded, 0, "{}: second pass must find nothing to GC", point);
        prop_assert_eq!(c.journal.checkpoint(now), settled);
        prop_assert!(c.journal.open_intents().is_empty());
        prop_assert!(c.journal.orphaned_staged().is_empty());
        prop_assert!(c.store.pinned().is_empty());
    }
}

// --------------------------------------------- resilience crash cells

/// Kill the daemon at `resilience.breaker.probe.pre` — the instant a
/// cooled-down breaker grants its half-open probe. The crash fires
/// *before* the open→half-open transition, so the shared endpoint-health
/// view stays `Open` and a restarted daemon simply re-probes; it never
/// inherits a wedged half-open breaker that no in-flight request will
/// ever feed an outcome.
#[test]
fn breaker_probe_crash_leaves_the_breaker_open_and_reprobes() {
    // A 30 s primary brownout; one exhausted retry ladder trips the
    // (threshold-1) breaker open.
    let inj = Arc::new(FaultInjector::new(
        11,
        vec![FaultRule::sticky(
            FaultKind::RegistryUnavailable,
            SimTime::ZERO,
            SimTime::ZERO + SimSpan::secs(30),
        )],
    ));
    let c = cell_with(Arc::clone(&inj));
    c.hub.set_fault_injector(Arc::clone(&inj));
    let res = Arc::new(PullResilience::new(BreakerConfig {
        failure_threshold: 1,
        ..BreakerConfig::default()
    }));
    let sources = PullSources::primary_only(&c.hub);

    let engine = attach_engine(&c);
    engine.set_pull_resilience(Some(Arc::clone(&res)));
    engine
        .pull_resilient(&sources, "hpc/app", "v1", &c.clock)
        .unwrap_err();
    let probe_at = match res.breaker("primary").state() {
        BreakerState::Open { probe_at } => probe_at,
        s => panic!("exhausted ladder must open the breaker, got {s:?}"),
    };

    // Cooldown elapses; the next consult would grant the probe — and the
    // process dies right there.
    c.clock.advance_to(probe_at);
    c.crash.arm(BREAKER_PROBE_CRASH_POINT, 1);
    let err = engine
        .pull_resilient(&sources, "hpc/app", "v1", &c.clock)
        .unwrap_err();
    assert!(matches!(err, EngineError::Crash(_)), "{err}");
    assert_eq!(c.crash.visits(BREAKER_PROBE_CRASH_POINT), 1);
    assert!(
        matches!(res.breaker("primary").state(), BreakerState::Open { .. }),
        "mid-probe crash must leave the breaker open, not half-open"
    );

    // Restart after the brownout heals: the re-granted probe succeeds
    // against the healthy primary and closes the breaker.
    let healed = SimTime::ZERO + SimSpan::secs(31);
    c.clock
        .advance_to(if probe_at > healed { probe_at } else { healed });
    let engine = attach_engine(&c);
    engine.set_pull_resilience(Some(Arc::clone(&res)));
    let (pulled, source) = engine
        .pull_resilient(&sources, "hpc/app", "v1", &c.clock)
        .expect("re-probe after the brownout heals");
    assert_eq!(source, "primary");
    assert!(!pulled.layers.is_empty());
    assert!(matches!(
        res.breaker("primary").state(),
        BreakerState::Closed
    ));
}

/// Kill the process at `resilience.admission.shed.pre` — the instant the
/// overloaded origin decides to shed a request. A shed holds no slot and
/// the crash fires before any queue state moves, so recovery sees an
/// unchanged admission queue: the admitted backlog drains on schedule and
/// the next request is admitted normally. No slot leaks with the dead
/// request.
#[test]
fn admission_shed_crash_holds_no_slot() {
    // A long origin brownout: the domain gate runs a single live egress
    // slot with a 2 s admission-wait bound.
    let t0 = SimTime::ZERO + SimSpan::secs(10);
    let schedule = Arc::new(DomainSchedule::new(
        DomainTopology::default_for(64),
        vec![OutageEvent {
            kind: OutageKind::OriginOverload,
            from: t0,
            until: t0 + SimSpan::secs(600),
        }],
    ));
    let faults = Arc::new(FaultInjector::new(13, Vec::new()));
    let crash = CrashInjector::enabled();
    let topo = StormTopology::new(StormConfig::default_for(64));
    topo.set_domain_schedule(
        Arc::clone(&schedule),
        Arc::clone(&faults),
        Arc::clone(&crash),
    );
    crash.arm(ADMISSION_SHED_CRASH_POINT, 1);

    // Stampede distinct 1 GiB single-layer images (≈1 s origin service
    // each) at 1 ms spacing: the projected wait on the lone slot soon
    // exceeds the bound, and the first shed decision kills the process.
    let mut survivors = 0u32;
    let mut crashed = false;
    for node in 0..16usize {
        let image = ImageSpec::synthetic(&format!("crash/shed/{node}"), 1, Bytes::gib(1));
        let at = t0 + SimSpan::millis(node as u64);
        match topo.pull_image_sized(node, 0, &image, at) {
            Ok(_) => survivors += 1,
            Err(err) => {
                // The dead process's request surfaces through the tier
                // as a 503; it simply never completes.
                assert!(
                    matches!(err, RegistryError::Unavailable { status: 503 }),
                    "{err}"
                );
                crashed = true;
                break;
            }
        }
    }
    assert!(crashed, "the stampede must reach a shed decision");
    assert_eq!(crash.visits(ADMISSION_SHED_CRASH_POINT), 1);
    assert!(survivors >= 1, "earlier requests were admitted and served");
    // The crash fired before the shed was recorded and before any slot
    // state moved: no shed metric on either side of the gate.
    assert_eq!(faults.metrics().get("admission.origin.shed"), 0);
    assert_eq!(topo.metrics().get("storm.origin.shed"), 0);
    let admitted_before = faults.metrics().get("admission.origin.admitted");
    assert!(admitted_before >= 1);

    // Recovery: once the admitted backlog drains (still mid-brownout),
    // the queue admits again — the crashed shed leaked nothing.
    let image = ImageSpec::synthetic("crash/shed/after", 1, Bytes::mib(64));
    let later = t0 + SimSpan::secs(120);
    let (done, _) = topo
        .pull_image_sized(0, 0, &image, later)
        .expect("a drained brownout queue admits after the crash");
    assert!(done > later);
    assert!(faults.metrics().get("admission.origin.admitted") > admitted_before);
}

// ------------------------------------------------- WLM / k8s restarts

/// A node crash mid-job requeues exactly the unfinished work: the
/// journalled job epochs guarantee completed jobs are never re-executed
/// and every job lands in the accounting ledger exactly once.
#[test]
fn node_crash_requeues_without_double_execution() {
    let mut s = Slurm::new();
    s.add_partition("batch", NodeSpec::cpu_node(), 2);
    let done = s
        .submit(
            JobRequest::batch("done", 1, 1, SimSpan::secs(100)),
            SimTime::ZERO,
        )
        .unwrap();
    let victim = s
        .submit(
            JobRequest::batch("victim", 1, 1, SimSpan::secs(500)),
            SimTime::ZERO,
        )
        .unwrap();
    s.schedule(SimTime::ZERO);
    let t = SimTime::ZERO + SimSpan::secs(150);
    s.advance_to(t); // `done` finished at t=100s; `victim` still running
    let node = s.allocated_nodes(victim)[0];

    let requeued = s.node_crash(node, t).unwrap();
    assert_eq!(requeued, vec![victim], "only unfinished work requeues");
    s.node_recover(node, t).unwrap();
    s.schedule(t);
    s.advance_to(t + SimSpan::secs(501));
    assert!(matches!(
        s.job(victim).unwrap().state,
        JobState::Completed { .. }
    ));
    assert_eq!(s.epoch(victim), 2, "the victim restarted under a new epoch");
    assert_eq!(s.epoch(done), 1, "the completed job never re-executed");
    for id in [done, victim] {
        let runs = s
            .ledger()
            .records()
            .iter()
            .filter(|r| r.job == Some(id))
            .count();
        assert_eq!(runs, 1, "job {} accounted exactly once", id.0);
    }
}

/// A kubelet agent crash mid-pod replays the pod from the API server
/// through its restart back-off — through the real engine CRI — and the
/// pod still completes exactly once.
#[test]
fn kubelet_replays_pods_through_restart_backoff() {
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
    api.create_pod(PodSpec::simple("p", "hpc/app:v1", SimSpan::secs(60)))
        .unwrap();
    Scheduler::new().schedule(&api);
    kubelet.sync(&api, &clock);
    let started = match api.pod("p").unwrap().phase {
        PodPhase::Running { started, .. } => started,
        other => panic!("expected Running pod, got {other:?}"),
    };

    let before = clock.now();
    let adopted = kubelet.crash_restart(&api, &clock);
    assert_eq!(adopted, vec!["p"], "the running pod is re-adopted");
    assert!(
        clock.now().since(before) >= SimSpan::secs(10),
        "restart back-off must be paid"
    );
    match api.pod("p").unwrap().phase {
        PodPhase::Running { started: s, .. } => {
            assert_eq!(s, started, "replay must not relaunch the container")
        }
        other => panic!("expected Running pod, got {other:?}"),
    }
    assert!(kubelet.sync(&api, &clock).is_empty());

    let finished = kubelet.advance_to(&api, started + SimSpan::secs(61));
    assert_eq!(finished.len(), 1, "the adopted pod completes exactly once");
    assert!(matches!(
        api.pod("p").unwrap().phase,
        PodPhase::Succeeded { .. }
    ));
}
