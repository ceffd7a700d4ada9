//! Property-based tests over cross-crate invariants: random filesystem
//! trees through diff/apply/flatten/squash, random job streams through
//! the scheduler, random blobs through the CAS.

use hpcc_oci::cas::Cas;
use hpcc_oci::image::MediaType;
use hpcc_oci::layer;
use hpcc_sim::{FaultInjector, FaultKind, FaultRule, SimClock, SimSpan, SimTime};
use hpcc_vfs::fs::MemFs;
use hpcc_vfs::path::VPath;
use hpcc_vfs::squash::SquashImage;
use hpcc_wlm::slurm::Slurm;
use hpcc_wlm::types::{JobRequest, JobState, NodeSpec};
use proptest::prelude::*;
use std::sync::Arc;

// ------------------------------------------------------------ fixtures

/// A random filesystem operation.
#[derive(Debug, Clone)]
enum FsOp {
    Write(String, Vec<u8>),
    Mkdir(String),
    Symlink(String, String),
    Remove(String),
    Chmod(String, u32),
}

fn arb_path() -> impl Strategy<Value = String> {
    proptest::collection::vec("[a-d]{1,3}", 1..4).prop_map(|segs| format!("/{}", segs.join("/")))
}

fn arb_op() -> impl Strategy<Value = FsOp> {
    prop_oneof![
        (arb_path(), proptest::collection::vec(any::<u8>(), 0..64))
            .prop_map(|(p, d)| FsOp::Write(p, d)),
        arb_path().prop_map(FsOp::Mkdir),
        (arb_path(), "[a-d]{1,4}").prop_map(|(p, t)| FsOp::Symlink(p, t)),
        arb_path().prop_map(FsOp::Remove),
        (arb_path(), 0u32..0o777).prop_map(|(p, m)| FsOp::Chmod(p, m)),
    ]
}

fn apply_ops(fs: &mut MemFs, ops: &[FsOp]) {
    for op in ops {
        // Operations may legitimately fail (removing a missing path,
        // writing under a file); failures are skipped like a shell would.
        match op {
            FsOp::Write(p, d) => {
                let _ = fs.write_p(&VPath::parse(p), d.clone());
            }
            FsOp::Mkdir(p) => {
                let _ = fs.mkdir_p(&VPath::parse(p));
            }
            FsOp::Symlink(p, t) => {
                let path = VPath::parse(p);
                if let Some(parent) = path.parent() {
                    let _ = fs.mkdir_p(&parent);
                }
                let _ = fs.symlink(&path, t);
            }
            FsOp::Remove(p) => {
                let _ = fs.remove_all(&VPath::parse(p));
            }
            FsOp::Chmod(p, m) => {
                let _ = fs.chmod(&VPath::parse(p), *m);
            }
        }
    }
}

/// One full fault-laden pipeline pass: registry pulls under retry, then
/// node-local writes and shared-FS metadata ops, all sharing one seeded
/// injector. Returns everything observable about the run — the fault/
/// retry trace, its digest, and the final metrics dump.
fn fault_pipeline_run(seed: u64, windows: &[(u8, u64, u64)]) -> (Vec<String>, u64, String) {
    const KINDS: [FaultKind; 5] = [
        FaultKind::RegistryRateLimit,
        FaultKind::RegistryUnavailable,
        FaultKind::RegistryTimeout,
        FaultKind::MdsBrownout,
        FaultKind::DiskFull,
    ];
    let rules: Vec<FaultRule> = windows
        .iter()
        .map(|&(k, from_ms, len_ms)| {
            let from = SimTime::ZERO + SimSpan::millis(from_ms);
            FaultRule::transient(
                KINDS[k as usize % KINDS.len()],
                from,
                from + SimSpan::millis(len_ms),
                0.7,
            )
        })
        .collect();
    let inj = Arc::new(FaultInjector::new(seed, rules));

    use hpcc_registry::registry::{Registry, RegistryCaps};
    let reg = Registry::new("hub", RegistryCaps::open());
    reg.create_namespace("hpc", None).unwrap();
    let cas = Cas::new();
    let img = hpcc_oci::builder::samples::python_app(&cas, 4);
    reg.push_image("hpc/app", "v1", &img.manifest, &cas)
        .unwrap();
    reg.set_fault_injector(Arc::clone(&inj));

    let engine = hpcc_engine::engines::podman();
    engine.set_fault_injector(Arc::clone(&inj));
    let clock = SimClock::new();
    for _ in 0..3 {
        // Pulls may recover, give up or fail fatally — all outcomes are
        // part of the observable behaviour under test.
        let _ = engine.pull(&reg, "hpc/app", "v1", &clock);
        clock.advance(SimSpan::millis(200));
    }

    let disk = hpcc_storage::local::NodeLocalDisk::new();
    disk.set_fault_injector(Arc::clone(&inj));
    for i in 0..3u64 {
        let _ = disk.write(
            &VPath::parse("/scratch/blob"),
            vec![i as u8; 32],
            clock.now() + SimSpan::millis(i * 50),
        );
    }
    let shared = hpcc_storage::shared_fs::SharedFs::with_defaults();
    shared.set_fault_injector(Arc::clone(&inj));
    for i in 0..3u64 {
        let _ = shared.metadata_op(clock.now() + SimSpan::millis(i * 30));
    }

    (inj.trace(), inj.trace_digest(), inj.metrics().render())
}

// ------------------------------------------------------------ properties

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// diff(A, B) applied to A reproduces B exactly, for arbitrary trees.
    #[test]
    fn layer_diff_apply_roundtrip(
        ops_a in proptest::collection::vec(arb_op(), 0..25),
        ops_b in proptest::collection::vec(arb_op(), 0..25),
    ) {
        let mut a = MemFs::new();
        apply_ops(&mut a, &ops_a);
        let mut b = a.clone();
        apply_ops(&mut b, &ops_b);

        let delta = layer::diff(&a, &b).unwrap();
        let mut rebuilt = a.clone();
        layer::apply(&mut rebuilt, &delta).unwrap();
        prop_assert_eq!(
            rebuilt.tree_digest(&VPath::root()).unwrap(),
            b.tree_digest(&VPath::root()).unwrap()
        );
    }

    /// Splitting a mutation sequence into layers and flattening them is
    /// the same as applying everything to one tree.
    #[test]
    fn layer_stack_flatten_equivalence(
        chunks in proptest::collection::vec(
            proptest::collection::vec(arb_op(), 0..10), 1..5),
    ) {
        let mut direct = MemFs::new();
        let mut layers = Vec::new();
        let mut prev = MemFs::new();
        for chunk in &chunks {
            apply_ops(&mut direct, chunk);
            let mut next = prev.clone();
            apply_ops(&mut next, chunk);
            layers.push(layer::diff(&prev, &next).unwrap());
            prev = next;
        }
        let flat = layer::flatten(&layers).unwrap();
        prop_assert_eq!(
            flat.tree_digest(&VPath::root()).unwrap(),
            direct.tree_digest(&VPath::root()).unwrap()
        );
    }

    /// Squash pack/unpack preserves the tree bit-for-bit.
    #[test]
    fn squash_roundtrip(ops in proptest::collection::vec(arb_op(), 0..30)) {
        let mut fs = MemFs::new();
        apply_ops(&mut fs, &ops);
        let img = SquashImage::build(&fs, &VPath::root(), hpcc_codec::compress::Codec::Lz).unwrap();
        let restored = img.unpack().unwrap();
        prop_assert_eq!(
            restored.tree_digest(&VPath::root()).unwrap(),
            fs.tree_digest(&VPath::root()).unwrap()
        );
        // And the serialized image reparses identically.
        let reparsed = SquashImage::from_bytes(img.as_bytes().to_vec()).unwrap();
        prop_assert_eq!(reparsed.digest(), img.digest());
    }

    /// CAS: logical ≥ stored, and content always reads back verbatim.
    #[test]
    fn cas_invariants(blobs in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..128), 1..24)) {
        let cas = Cas::new();
        let mut descs = Vec::new();
        for b in &blobs {
            descs.push(cas.put(MediaType::Layer, b.clone()));
        }
        for (b, d) in blobs.iter().zip(&descs) {
            prop_assert_eq!(&*cas.get(&d.digest).unwrap(), b);
        }
        let stats = cas.stats();
        prop_assert!(stats.stored_bytes <= stats.logical_bytes);
        prop_assert_eq!(
            stats.blobs as usize,
            blobs.iter().collect::<std::collections::HashSet<_>>().len()
        );
    }

    /// Scheduler: exclusive jobs never share nodes; accounting equals
    /// cores x wall time for every completed job.
    #[test]
    fn scheduler_invariants(jobs in proptest::collection::vec(
        (1u32..5, 1u64..200, 1u64..400), 1..20)) {
        let mut slurm = Slurm::new();
        slurm.add_partition("batch", NodeSpec::cpu_node(), 8);
        let mut ids = Vec::new();
        for (i, (nodes, runtime, limit)) in jobs.iter().enumerate() {
            let mut req = JobRequest::batch(
                &format!("j{i}"), 1000, *nodes, SimSpan::secs(*runtime));
            req.walltime_limit = SimSpan::secs(*limit);
            ids.push(slurm.submit(req, SimTime::ZERO).unwrap());
        }
        // Drive in steps, checking no-overlap after each scheduling pass.
        let mut t = SimTime::ZERO;
        for _ in 0..600 {
            slurm.advance_to(t);
            let mut seen = std::collections::HashSet::new();
            for id in &ids {
                for node in slurm.allocated_nodes(*id) {
                    prop_assert!(seen.insert(node), "node double-allocated");
                }
            }
            if slurm.pending_count() == 0 && slurm.running_count() == 0 {
                break;
            }
            t += SimSpan::secs(5);
        }
        prop_assert_eq!(slurm.running_count(), 0, "all jobs should finish");
        // Accounting check.
        let mut expected = 0.0;
        for id in &ids {
            let job = slurm.job(*id).unwrap();
            match &job.state {
                JobState::Completed { started, ended, nodes } => {
                    expected += (nodes.len() as f64) * 128.0
                        * ended.since(*started).as_secs_f64();
                }
                JobState::TimedOut { started, ended } => {
                    expected += (job.request.nodes as f64) * 128.0
                        * ended.since(*started).as_secs_f64();
                }
                other => prop_assert!(false, "job left in {other:?}"),
            }
        }
        let actual = slurm.ledger().user_core_seconds(1000);
        prop_assert!((actual - expected).abs() < 1e-6,
            "ledger {actual} vs computed {expected}");
    }

    /// Fault injection is deterministic: the same seed and fault windows
    /// produce byte-identical fault schedules, retry traces and final
    /// metrics across independent runs of the whole pipeline.
    #[test]
    fn fault_injection_is_deterministic(
        seed in any::<u64>(),
        windows in proptest::collection::vec(
            (any::<u8>(), 0u64..3_000, 1u64..2_000), 0..6),
    ) {
        let (trace_a, digest_a, metrics_a) = fault_pipeline_run(seed, &windows);
        let (trace_b, digest_b, metrics_b) = fault_pipeline_run(seed, &windows);
        prop_assert_eq!(trace_a, trace_b);
        prop_assert_eq!(digest_a, digest_b);
        prop_assert_eq!(metrics_a, metrics_b);
    }

    /// SBOM audit is empty exactly when the tree is unchanged.
    #[test]
    fn sbom_audit_detects_all_mutations(
        ops in proptest::collection::vec(arb_op(), 0..20),
        extra in proptest::collection::vec(arb_op(), 1..6),
    ) {
        let mut fs = MemFs::new();
        apply_ops(&mut fs, &ops);
        let sbom = hpcc_oci::sbom::Sbom::generate(&fs, None).unwrap();
        prop_assert!(sbom.audit(&fs).unwrap().is_empty());

        let mut mutated = fs.clone();
        apply_ops(&mut mutated, &extra);
        let changed = mutated.tree_digest(&VPath::root()).unwrap()
            != fs.tree_digest(&VPath::root()).unwrap();
        let findings = sbom.audit(&mutated).unwrap();
        // If file contents/sets changed, audit must notice. (Pure dir/
        // symlink-target changes are invisible to a file-level SBOM, so
        // only assert in the direction that matters.)
        let files_changed = {
            let a = hpcc_oci::sbom::Sbom::generate(&fs, None).unwrap();
            let b = hpcc_oci::sbom::Sbom::generate(&mutated, None).unwrap();
            a != b
        };
        if files_changed {
            prop_assert!(!findings.is_empty(), "changed files must be flagged");
        }
        let _ = changed;
    }
}
