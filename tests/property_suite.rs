//! Property-based tests over cross-crate invariants: random filesystem
//! trees through diff/apply/flatten/squash, random job streams through
//! the scheduler, random blobs through the CAS.

use hpcc_codec::compress::Codec;
use hpcc_oci::cas::Cas;
use hpcc_oci::image::MediaType;
use hpcc_oci::layer;
use hpcc_sim::{FaultInjector, FaultKind, FaultRule, SimClock, SimSpan, SimTime};
use hpcc_vfs::fs::{FileType, MemFs};
use hpcc_vfs::path::VPath;
use hpcc_vfs::seekable::SeekableIndex;
use hpcc_vfs::squash::SquashImage;
use hpcc_wlm::slurm::Slurm;
use hpcc_wlm::types::{JobRequest, JobState, NodeSpec};
use proptest::prelude::*;
use std::collections::HashMap;
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
        let img = SquashImage::build(&fs, &VPath::root(), Codec::Lz).unwrap();
        let restored = img.unpack().unwrap();
        prop_assert_eq!(
            restored.tree_digest(&VPath::root()).unwrap(),
            fs.tree_digest(&VPath::root()).unwrap()
        );
        // And the serialized image reparses identically.
        let reparsed = SquashImage::from_bytes(img.as_bytes().to_vec()).unwrap();
        prop_assert_eq!(reparsed.digest(), img.digest());
    }

    /// Every real path, and every path through a symlinked directory,
    /// reads alike from `MemFs`, a squash image and a seekable index: all
    /// three `Ok` with equal bytes, or all three `Err`.
    #[test]
    fn image_reads_follow_symlinks_like_memfs(
        ops in proptest::collection::vec(arb_op(), 0..30),
        links in proptest::collection::vec((any::<u8>(), "[a-d]{1,3}"), 1..4),
        probes in proptest::collection::vec(arb_path(), 0..8),
    ) {
        let mut fs = MemFs::new();
        apply_ops(&mut fs, &ops);
        // Link a few directories the ops made, from beside them or from
        // the root, so paths through a directory symlink are never rare.
        for (pick, name) in &links {
            let dirs: Vec<VPath> = fs.walk(&VPath::root()).unwrap().into_iter()
                .filter(|p| fs.lstat(p).is_ok_and(|st| st.kind == FileType::Dir))
                .collect();
            if let Some(dir) = dirs.get(*pick as usize % dirs.len().max(1)) {
                let _ = if pick % 2 == 0 {
                    let parent = dir.parent().unwrap_or_else(VPath::root);
                    fs.symlink(&parent.child(name), dir.file_name().unwrap())
                } else {
                    fs.symlink(&VPath::root().child(name), dir.to_string().trim_start_matches('/'))
                };
            }
        }
        let mut paths = fs.walk(&VPath::root()).unwrap();
        for link in paths.clone() {
            if fs.lstat(&link).unwrap().kind != FileType::Symlink {
                continue;
            }
            // Two levels below each symlinked directory.
            let mut level = vec![link];
            for _ in 0..2 {
                level = level.iter()
                    .flat_map(|dir| fs.list(dir).into_iter().flatten().map(|name| dir.child(&name)))
                    .collect();
                paths.extend(level.iter().cloned());
            }
        }
        paths.extend(probes.iter().map(|p| VPath::parse(p)));

        let squash = SquashImage::build(&fs, &VPath::root(), Codec::Lz).unwrap();
        let (index, chunks) = SeekableIndex::build(&fs, &VPath::root(), Codec::Lz, 16).unwrap();
        let chunks: HashMap<_, _> = chunks.into_iter().collect();
        for path in &paths {
            let rel = path.to_string();
            let rel = rel.trim_start_matches('/');
            let want = fs.read(path).ok().map(|data| data.to_vec());
            prop_assert_eq!(squash.read_file(rel).ok(), want.clone(), "squash {}", rel);
            let seekable = index.assemble_file(rel, |d| chunks.get(d).cloned());
            prop_assert_eq!(seekable.ok(), want, "seekable {}", rel);
        }
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
}
