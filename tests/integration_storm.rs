//! Fleet-scale distribution invariants: the tiered pull-through
//! hierarchy (`hpcc-registry::tiered`) and the P2P distribution trees
//! (`hpcc-storage::p2p`) that `bench_storm` measures.
//!
//! Four families of checks:
//!
//! 1. **Tree construction** — proptests over (nodes, fanout, seeds,
//!    placement seed): the placement is a permutation (every node holds
//!    exactly one position), depth respects the ⌈log_f⌉ bound of its
//!    segment, parent/child pointers agree, and the same spec always
//!    builds the same forest.
//! 2. **Coalescing** — one upstream fetch per distinct blob no matter
//!    how many nodes storm the hierarchy at once.
//! 3. **Byte fidelity** — data-plane pulls through the tiers hand every
//!    node bytes identical to a direct origin pull, digest-verified,
//!    and `replicate_to_stores` lands the same content in every node's
//!    blob store.
//! 4. **Churn repair** — seeded chaos: interior nodes killed
//!    mid-broadcast, the forest repairs around them, everyone converges.
//!
//! Plus the de-flake guard: two identical storm runs produce identical
//! per-node timings (the full-document version lives in `bench_storm`
//! itself, which refuses to emit a non-reproducible JSON).

use hpcc_crypto::sha256::sha256;
use hpcc_oci::builder::samples;
use hpcc_oci::cas::Cas;
use hpcc_registry::registry::{Registry, RegistryCaps};
use hpcc_registry::tiered::{ImageSpec, StormConfig, StormTopology};
use hpcc_sim::net::{Fabric, NodeId};
use hpcc_sim::obs::Tracer;
use hpcc_sim::{Bytes, FaultInjector, FaultKind, FaultRule, MetricsRegistry, SimTime};
use hpcc_storage::p2p::{
    broadcast_tree, replicate_to_stores, tree_depth_bound, DistributionTree, TreeSpec,
};
use hpcc_storage::BlobStore;
use proptest::prelude::*;
use std::sync::Arc;

// --------------------------------------------------------- tree invariants

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every node occupies exactly one tree position, depth stays within
    /// the ⌈log_f⌉ bound of the largest segment, and parent/child edges
    /// agree with each other.
    #[test]
    fn tree_placement_is_a_bounded_depth_permutation(
        nodes in 1usize..2000,
        fanout in 2usize..8,
        seeds in 1usize..6,
        placement_seed in any::<u64>(),
    ) {
        let spec = TreeSpec { fanout, seeds, placement_seed, ..TreeSpec::default() };
        let tree = DistributionTree::build(nodes, spec);
        // Permutation: every node index appears exactly once.
        let mut seen = vec![false; nodes];
        for &node in tree.assignments() {
            prop_assert!(!seen[node], "node {node} placed twice");
            seen[node] = true;
        }
        prop_assert!(seen.iter().all(|s| *s));
        // Depth bound: the largest segment has ceil(nodes/seeds) slots.
        let largest = nodes.div_ceil(tree.spec().seeds);
        prop_assert!(
            tree.max_depth() <= tree_depth_bound(largest, fanout),
            "depth {} exceeds bound {} for {largest}-slot segments",
            tree.max_depth(),
            tree_depth_bound(largest, fanout)
        );
        // Parent/child agreement, and roots are exactly the seeds.
        for pos in 0..nodes {
            match tree.parent(pos) {
                Some(p) => {
                    prop_assert!(p < pos, "parent {p} not before child {pos}");
                    prop_assert!(tree.children(p).contains(&pos));
                }
                None => prop_assert_eq!(pos, tree.seed_root(tree.segment_of(pos))),
            }
        }
    }

    /// Same spec, same forest — placement is a pure function of the spec.
    #[test]
    fn tree_construction_is_deterministic(
        nodes in 1usize..500,
        fanout in 2usize..6,
        seeds in 1usize..4,
        placement_seed in any::<u64>(),
    ) {
        let spec = TreeSpec { fanout, seeds, placement_seed, ..TreeSpec::default() };
        let a = DistributionTree::build(nodes, spec);
        let b = DistributionTree::build(nodes, spec);
        prop_assert_eq!(a.assignments(), b.assignments());
        prop_assert_eq!(a.max_depth(), b.max_depth());
    }

    /// Request coalescing: however many nodes storm the hierarchy at
    /// once, each distinct blob is fetched from the origin exactly once.
    #[test]
    fn one_upstream_fetch_per_blob_for_any_waiter_count(
        nodes in 2usize..400,
        layers in 1usize..6,
    ) {
        let topo = StormTopology::new(StormConfig::default_for(nodes));
        let image = ImageSpec::synthetic("coalesce-prop", layers, Bytes::mib(256));
        for node in 0..nodes {
            topo.pull_image_sized(node, 0, &image, SimTime::ZERO).unwrap();
        }
        prop_assert_eq!(topo.origin_requests(), image.blobs.len() as u64 + 1);
    }

    /// Seeded churn chaos: interior nodes die mid-broadcast, the forest
    /// re-attaches their subtrees, and every node still converges.
    #[test]
    fn tree_broadcast_converges_under_seeded_churn(chaos_seed in 1u64..500) {
        let ids: Vec<NodeId> = (0..96).map(NodeId).collect();
        let shared = hpcc_storage::shared_fs::SharedFs::with_defaults();
        let fabric = Fabric::with_defaults(ids.iter().copied());
        let faults = FaultInjector::new(
            chaos_seed,
            vec![FaultRule::sticky(
                FaultKind::PeerChurn,
                SimTime::ZERO,
                SimTime::ZERO + hpcc_sim::SimSpan::secs(600),
            )],
        );
        let metrics = MetricsRegistry::new();
        let disabled = Tracer::disabled();
        let report = broadcast_tree(
            &shared,
            &fabric,
            Bytes::gib(1),
            &ids,
            TreeSpec { seeds: 2, ..TreeSpec::default() },
            SimTime::ZERO,
            &faults,
            &disabled,
            &metrics,
        );
        // Convergence: the broadcast returned (it asserts internally that
        // every node holds every chunk) and reported a time per node.
        prop_assert_eq!(report.per_node_done.len(), ids.len());
        prop_assert!(report.per_node_done.iter().all(|t| *t > SimTime::ZERO));
        prop_assert_eq!(
            report.all_done,
            *report.per_node_done.iter().max().unwrap()
        );
        prop_assert_eq!(metrics.get("p2p.tree.repairs"), report.repairs);
        // Churn can only add transfers, never remove payload.
        prop_assert!(report.p2p_bytes.as_u64() >= Bytes::gib(1).as_u64() * (ids.len() as u64 - 2));
    }
}

// ------------------------------------------------------------ byte fidelity

fn hub_with_pyapp(layers: usize) -> (Arc<Registry>, Cas, hpcc_oci::builder::BuiltImage) {
    let hub = Registry::new("hub", RegistryCaps::open());
    hub.create_namespace("hpc", None).unwrap();
    let cas = Cas::new();
    let img = samples::python_app(&cas, layers);
    hub.push_image("hpc/pyapp", "v1", &img.manifest, &cas)
        .unwrap();
    (Arc::new(hub), cas, img)
}

/// Every node's tier-served bytes are identical to a direct origin pull:
/// same manifest, digest-verified blobs, and the same content landing in
/// each node's blob store as a direct fetch would.
#[test]
fn tier_pulls_are_byte_identical_to_direct_pulls() {
    let (hub, cas, img) = hub_with_pyapp(12);
    let topo = StormTopology::with_origin(StormConfig::two_tier(8, 4), Arc::clone(&hub));
    for node in 0..8 {
        let (manifest, _) = topo
            .pull_manifest(node, 0, "hpc/pyapp", "v1", SimTime::ZERO)
            .unwrap();
        assert_eq!(manifest, img.manifest, "node {node}: manifest differs");
        let store = BlobStore::new(2, 1 << 30);
        let mut blobs = Vec::new();
        for d in std::iter::once(&manifest.config).chain(manifest.layers.iter()) {
            let (data, _) = topo.pull_blob(node, 0, &d.digest, SimTime::ZERO).unwrap();
            // Digest-verified: the tiers moved the exact origin bytes.
            assert_eq!(
                sha256(&data),
                d.digest,
                "node {node}: blob corrupted in transit"
            );
            assert_eq!(
                data,
                cas.get(&d.digest).unwrap(),
                "node {node}: tier bytes differ from a direct pull"
            );
            blobs.push((d.digest, data));
        }
        replicate_to_stores(&[Arc::clone(&store)], &blobs);
        for (digest, data) in &blobs {
            assert_eq!(
                store.get(digest).as_deref(),
                Some(data.as_ref()),
                "node {node}: store content differs from direct pull"
            );
        }
    }
    // Warm hierarchy: the origin was asked once per distinct blob even
    // though 8 nodes each pulled the full image.
    assert_eq!(topo.origin_requests(), img.manifest.layers.len() as u64 + 2);
}

// ---------------------------------------------------------------- de-flake

/// Two identical storm+tree runs must produce identical per-node
/// timings — logical time admits no noise. (The full-document guard
/// lives in `bench_storm`, which refuses to write non-reproducible JSON.)
#[test]
fn storm_and_tree_timings_are_run_to_run_identical() {
    let run = || {
        let topo = StormTopology::new(StormConfig::default_for(256));
        let image = ImageSpec::synthetic("deflake", 4, Bytes::gib(1));
        let pulls: Vec<u64> = (0..256)
            .map(|n| {
                topo.pull_image_sized(n, 0, &image, SimTime::ZERO)
                    .unwrap()
                    .0
                    .as_nanos()
            })
            .collect();
        let ids: Vec<NodeId> = (0..256).map(NodeId).collect();
        let shared = hpcc_storage::shared_fs::SharedFs::with_defaults();
        let fabric = Fabric::with_defaults(ids.iter().copied());
        let tree = broadcast_tree(
            &shared,
            &fabric,
            Bytes::gib(1),
            &ids,
            TreeSpec::default(),
            SimTime::ZERO,
            &FaultInjector::disabled(),
            &Tracer::disabled(),
            &MetricsRegistry::new(),
        );
        (pulls, tree.per_node_done, tree.p2p_bytes)
    };
    assert_eq!(run(), run(), "storm timings differ between identical runs");
}
