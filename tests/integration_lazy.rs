//! Lazy-pull integration: the seekable indexed format end to end.
//!
//! - A property test proves the core correctness claim: a lazily pulled
//!   container, once every range has been touched, materializes a tree
//!   byte-identical to unpacking the eagerly pulled squash image of the
//!   same source — across random tree shapes and chunk sizes.
//! - A brownout registry (sticky outage shorter than the retry budget)
//!   degrades lazy pulls to *slow first-touch latency*, never to failed
//!   starts, and the bytes read through the brownout are still correct.
//! - A permanently dead primary degrades the index fetch and every
//!   page-in to the mirror, recorded as degrade decisions.
//! - A lazy pull resumed over a warm journalled store (the post-crash /
//!   second-boot shape) fetches strictly fewer bytes than the cold pull.

use hpcc_codec::compress::Codec;
use hpcc_engine::engine::{Engine, PullSources};
use hpcc_engine::{engines, publish_seekable};
use hpcc_registry::registry::{Registry, RegistryCaps};
use hpcc_sim::{FaultInjector, FaultKind, FaultRule, SimClock, SimSpan, SimTime};
use hpcc_storage::{BlobStore, JournaledStore};
use hpcc_vfs::{MemFs, SquashImage, VPath};
use proptest::prelude::*;
use std::sync::Arc;

// ------------------------------------------------------------ fixtures

/// A deterministic tree: `files` files spread over a few directories,
/// sizes and contents derived from the index so chunk boundaries land
/// differently per file.
fn sample_tree(files: usize, max_size: usize) -> MemFs {
    let mut fs = MemFs::new();
    for i in 0..files {
        let size = (i * 977 + 123) % (max_size + 1);
        let data: Vec<u8> = (0..size).map(|j| ((i * 31 + j * 7) % 251) as u8).collect();
        fs.write_p(
            &VPath::parse(&format!("/srv/app/pkg{}/mod{i}.py", i % 5)),
            data,
        )
        .unwrap();
    }
    fs
}

fn registry_with(fs: &MemFs, chunk_size: u64) -> (Registry, hpcc_crypto::sha256::Digest) {
    let reg = Registry::new("lazy-int", RegistryCaps::open());
    let (index_digest, _) = publish_seekable(&reg, fs, &VPath::root(), chunk_size).unwrap();
    (reg, index_digest)
}

fn journalled_engine() -> (Engine, Arc<BlobStore>) {
    let engine = engines::sarus();
    let store = BlobStore::new(8, 1 << 30);
    engine.set_journaled_store(JournaledStore::new(Arc::clone(&store)));
    (engine, store)
}

// ----------------------------------------------- byte-identical claim

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Once all ranges are touched, a lazily pulled image is
    /// byte-identical to the eagerly pulled one: materializing the
    /// [`hpcc_engine::LazyContainer`] yields the same tree digest as
    /// unpacking the squash image built from the same source tree.
    #[test]
    fn lazily_materialized_image_is_byte_identical_to_eager(
        spec in proptest::collection::vec((0usize..6, 0usize..5000), 1..24),
        chunk_kb in 1u64..9,
    ) {
        let mut fs = MemFs::new();
        for (i, (dir, size)) in spec.iter().enumerate() {
            let data: Vec<u8> = (0..*size).map(|j| ((i * 13 + j * 11) % 251) as u8).collect();
            fs.write_p(&VPath::parse(&format!("/opt/d{dir}/f{i}.bin")), data).unwrap();
        }
        let (reg, index_digest) = {
            let reg = Registry::new("prop", RegistryCaps::open());
            let (d, _) = publish_seekable(&reg, &fs, &VPath::root(), chunk_kb * 1024).unwrap();
            (reg, d)
        };

        // Eager path: one squash image, pulled whole and unpacked.
        let eager = SquashImage::build(&fs, &VPath::root(), Codec::Lz)
            .unwrap()
            .unpack()
            .unwrap();

        // Lazy path: launch on the index, touch everything.
        let (engine, _store) = journalled_engine();
        let clock = SimClock::new();
        let container = engine
            .pull_lazy(PullSources::primary_only(&reg), &index_digest, &clock)
            .unwrap();
        let lazy = container.materialize(&clock).unwrap();

        let want = fs.tree_digest(&VPath::root()).unwrap();
        prop_assert_eq!(eager.tree_digest(&VPath::root()).unwrap(), want);
        prop_assert_eq!(lazy.tree_digest(&VPath::root()).unwrap(), want);
    }
}

// ------------------------------------------------- brownout degradation

/// A registry brownout shorter than the retry budget turns into slow
/// first-touch latency, not failed starts: the launch and every page-in
/// succeed, later and byte-identical, with no retry give-ups.
#[test]
fn brownout_registry_slows_first_touch_but_never_fails_starts() {
    let fs = sample_tree(8, 6000);
    let chunk = 4096;

    // Clean reference run.
    let (reg, index_digest) = registry_with(&fs, chunk);
    let (engine, _store) = journalled_engine();
    let clock = SimClock::new();
    let container = engine
        .pull_lazy(PullSources::primary_only(&reg), &index_digest, &clock)
        .unwrap();
    let clean_data = container.read_file("srv/app/pkg3/mod3.py", &clock).unwrap();
    let clean_done = clock.now();

    // Same workload through a brownout covering launch and first touch.
    // The outage (600 ms) ends inside the default retry budget
    // (backoffs ~100/200/400/800 ms), so every fetch rides it out.
    let (reg, index_digest) = registry_with(&fs, chunk);
    let inj = Arc::new(FaultInjector::new(
        3,
        vec![FaultRule::sticky(
            FaultKind::RegistryUnavailable,
            SimTime::ZERO,
            SimTime::ZERO + SimSpan::millis(600),
        )],
    ));
    reg.set_fault_injector(Arc::clone(&inj));
    let (engine, _store) = journalled_engine();
    engine.set_fault_injector(Arc::clone(&inj));
    let clock = SimClock::new();
    let container = engine
        .pull_lazy(PullSources::primary_only(&reg), &index_digest, &clock)
        .expect("launch must survive the brownout");
    let data = container
        .read_file("srv/app/pkg3/mod3.py", &clock)
        .expect("first touch must survive the brownout");

    assert_eq!(data, clean_data, "brownout reads stay byte-identical");
    assert!(
        clock.now() > clean_done,
        "the brownout must cost latency: {:?} vs clean {:?}",
        clock.now(),
        clean_done
    );
    assert_eq!(
        inj.metrics().get("retry.engine.lazy.fetch.giveup"),
        0,
        "no fetch may give up during a ride-out-able brownout"
    );
}

/// A permanently dead primary degrades the index fetch and page-ins to
/// the mirror: the container still launches and reads correctly, and
/// every fallback is recorded as a degrade decision.
#[test]
fn dead_primary_degrades_lazy_pulls_to_the_mirror() {
    let fs = sample_tree(6, 4000);

    // Primary and mirror both carry the image; the primary is down forever.
    let (primary, index_digest) = registry_with(&fs, 4096);
    let (mirror, mirror_digest) = registry_with(&fs, 4096);
    assert_eq!(index_digest, mirror_digest, "replicas publish identically");
    let outage = Arc::new(FaultInjector::new(
        7,
        vec![FaultRule::sticky(
            FaultKind::RegistryUnavailable,
            SimTime::ZERO,
            SimTime(u64::MAX),
        )],
    ));
    primary.set_fault_injector(outage);

    let (engine, _store) = journalled_engine();
    let inj = Arc::new(FaultInjector::new(0, Vec::new()));
    engine.set_fault_injector(Arc::clone(&inj));
    let clock = SimClock::new();
    let sources = PullSources {
        mirror: Some(&mirror),
        ..PullSources::primary_only(&primary)
    };
    let container = engine
        .pull_lazy(sources, &index_digest, &clock)
        .expect("mirror must carry the launch");
    assert_eq!(container.index_source(), "mirror");
    let data = container.read_file("srv/app/pkg0/mod0.py", &clock).unwrap();
    assert_eq!(
        &data,
        fs.read(&VPath::parse("/srv/app/pkg0/mod0.py"))
            .unwrap()
            .as_ref()
    );
    assert!(
        inj.metrics()
            .get("degrade.engine.lazy.fetch.primary_to_mirror")
            >= 2,
        "index fetch and page-ins must each record the degrade"
    );
}

// --------------------------------------------------- warm-store resume

/// Resuming a lazy pull over a warm journalled store (second boot on the
/// same node) fetches strictly fewer bytes than the cold pull — the
/// resident chunks are mapped, not re-fetched.
#[test]
fn resumed_lazy_pull_fetches_strictly_fewer_bytes_than_cold() {
    let fs = sample_tree(10, 8000);
    let (reg, index_digest) = registry_with(&fs, 4096);
    let inj = Arc::new(FaultInjector::new(0, Vec::new()));
    let store = BlobStore::new(8, 1 << 30);
    let journal = JournaledStore::new(Arc::clone(&store));
    let clock = SimClock::new();

    // Cold boot: touch part of the image, then "shut down".
    let engine = engines::sarus();
    engine.set_journaled_store(Arc::clone(&journal));
    engine.set_fault_injector(Arc::clone(&inj));
    let container = engine
        .pull_lazy(PullSources::primary_only(&reg), &index_digest, &clock)
        .unwrap();
    for i in 0..5 {
        container
            .read_file(&format!("srv/app/pkg{}/mod{i}.py", i % 5), &clock)
            .unwrap();
    }
    drop(container);
    let cold_partial = inj.metrics().get("engine.lazy.fetched_bytes");
    assert!(cold_partial > 0);

    // Cold total on a fresh node, for the strict comparison.
    let cold_inj = Arc::new(FaultInjector::new(0, Vec::new()));
    let (cold_engine, _cold_store) = journalled_engine();
    cold_engine.set_fault_injector(Arc::clone(&cold_inj));
    cold_engine
        .pull_lazy(PullSources::primary_only(&reg), &index_digest, &clock)
        .unwrap()
        .materialize(&clock)
        .unwrap();
    let cold_total = cold_inj.metrics().get("engine.lazy.fetched_bytes");

    // Resume: a fresh engine over the same journal/store.
    let engine = engines::sarus();
    engine.set_journaled_store(Arc::clone(&journal));
    engine.set_fault_injector(Arc::clone(&inj));
    let container = engine
        .pull_lazy(PullSources::primary_only(&reg), &index_digest, &clock)
        .unwrap();
    assert_eq!(container.index_source(), "store", "the index is resident");
    let resumed = container.materialize(&clock).unwrap();
    assert_eq!(
        resumed.tree_digest(&VPath::root()).unwrap(),
        fs.tree_digest(&VPath::root()).unwrap()
    );
    let refetched = inj.metrics().get("engine.lazy.fetched_bytes") - cold_partial;
    assert!(
        refetched < cold_total,
        "resume fetched {refetched} of a {cold_total}-byte cold pull"
    );
    let stats = container.stats();
    assert!(
        stats.chunk_hits > 0,
        "resident chunks must be mapped, not re-fetched"
    );
}
