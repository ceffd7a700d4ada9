//! Peer-to-peer image distribution — the Dragonfly direction of §7.
//!
//! Section 7 points at "registries like Quay or Dragonfly" as the
//! cloud-side answer to image distribution. For an HPC allocation, the
//! alternative to every node pulling from shared storage is a
//! Dragonfly-style swarm: a few seed nodes fetch the image, then every
//! completed node serves peers over the high-speed network — turning a
//! bandwidth bottleneck into a logarithmic-depth broadcast.
//!
//! The model: time-stepped rounds; in each round every completed node can
//! upload to one peer (full-image granularity, the conservative variant;
//! chunked swarms are strictly faster). Compared against the baseline of
//! all nodes pulling from the shared filesystem (`quant10`).

use crate::blobstore::BlobStore;
use crate::shared_fs::SharedFs;
use hpcc_crypto::sha256::Digest;
use hpcc_sim::net::{Fabric, LinkClass, NodeId};
use hpcc_sim::sym;
use hpcc_sim::{
    Bytes, DetRng, Executor, FaultInjector, FaultKind, MetricsRegistry, SimSpan, SimTime, Stage,
    TaskFinish, TaskGraph, Tracer,
};
use std::cell::RefCell;
use std::convert::Infallible;
use std::sync::Arc;

/// Outcome of a distribution strategy.
#[derive(Debug, Clone)]
pub struct BroadcastReport {
    /// Completion time per node (node order = input order).
    pub per_node_done: Vec<SimTime>,
    /// When the slowest node finished (job start gate).
    pub all_done: SimTime,
    /// Total bytes served by the shared filesystem.
    pub shared_fs_bytes: Bytes,
    /// Total bytes moved peer-to-peer.
    pub p2p_bytes: Bytes,
}

/// Baseline: every node pulls the full image from the shared filesystem
/// (what `stage_image_to_nodes` does, summarized here for comparison).
pub fn broadcast_via_shared_fs(
    shared: &SharedFs,
    image_size: Bytes,
    nodes: usize,
    start: SimTime,
) -> BroadcastReport {
    let mut per_node_done = Vec::with_capacity(nodes);
    for _ in 0..nodes {
        per_node_done.push(shared.read_bulk(image_size, start));
    }
    let all_done = per_node_done.iter().copied().max().unwrap_or(start);
    BroadcastReport {
        per_node_done,
        all_done,
        shared_fs_bytes: Bytes::new(image_size.as_u64() * nodes as u64),
        p2p_bytes: Bytes::ZERO,
    }
}

/// Dragonfly-style swarm: `seeds` nodes pull from the shared filesystem;
/// afterwards every node holding the image serves one peer at a time over
/// the high-speed fabric.
///
/// Under a fault schedule, each time a holder is picked to serve a
/// [`FaultKind::PeerChurn`] fault makes it leave the swarm instead (node
/// reclaimed by its job, daemon restarted). Departed holders stop serving
/// but keep their copy; the broadcast completes as long as at least one
/// holder remains, which the seed set guarantees — the last holder is
/// never allowed to depart. With a live tracer the whole broadcast becomes
/// a `p2p.broadcast` span with one `p2p.seed_pull` child per seed fetch and
/// one `p2p.send` child per peer transfer. [`FaultInjector::disabled`] and
/// [`Tracer::disabled`] switch either off.
// Fleet, image, seeding and observers are independent inputs of one broadcast.
#[allow(clippy::too_many_arguments)]
pub fn broadcast_p2p(
    shared: &SharedFs,
    fabric: &Fabric,
    image_size: Bytes,
    node_ids: &[NodeId],
    seeds: usize,
    start: SimTime,
    faults: &FaultInjector,
    tracer: &Tracer,
) -> BroadcastReport {
    assert!(seeds >= 1 && !node_ids.is_empty());
    let seeds = seeds.min(node_ids.len());
    let root = tracer.begin(sym!("p2p.broadcast"), Stage::Storage, start);
    tracer.attr(root, sym!("nodes"), node_ids.len());
    tracer.attr(root, sym!("seeds"), seeds);
    tracer.attr(root, sym!("bytes"), image_size.as_u64());

    // Seeds fetch from shared storage (contending with each other): one
    // executor task per seed on a pool as wide as the seed set, so every
    // seed pull starts together and the schedule is pinned by task id.
    let mut done: Vec<Option<SimTime>> = vec![None; node_ids.len()];
    {
        let seed_done: RefCell<Vec<Option<SimTime>>> = RefCell::new(vec![None; seeds]);
        let mut graph: TaskGraph<'_, Infallible> = TaskGraph::new();
        for (i, node) in node_ids.iter().take(seeds).enumerate() {
            let seed_done = &seed_done;
            graph.add(sym!("p2p.seed_pull"), Stage::Storage, &[], move |at| {
                let t = shared.read_bulk(image_size, at);
                seed_done.borrow_mut()[i] = Some(t);
                Ok(TaskFinish::at(t).attr(sym!("node"), node.0))
            });
        }
        Executor::new(seeds)
            .run(graph, start, tracer)
            .expect("seed pulls are infallible");
        for (d, t) in done.iter_mut().zip(seed_done.into_inner()) {
            *d = Some(t.expect("every seed pulled"));
        }
    }

    // Swarm rounds: earliest-finished holder serves the next waiting node.
    // Holders become available again after each upload completes.
    let mut holder_free: Vec<(SimTime, usize)> = done
        .iter()
        .enumerate()
        .filter_map(|(i, t)| t.map(|t| (t, i)))
        .collect();
    let mut p2p_bytes = 0u64;
    for i in 0..node_ids.len() {
        if done[i].is_some() {
            continue;
        }
        // Earliest-available holder, skipping any that churn away when
        // called on to serve.
        holder_free.sort();
        while holder_free.len() > 1
            && faults
                .roll(FaultKind::PeerChurn, holder_free[0].0)
                .is_some()
        {
            let (_, departed) = holder_free.remove(0);
            faults.note(format!(
                "- {} p2p holder {} left the swarm",
                done[departed].unwrap_or(start),
                node_ids[departed].0
            ));
        }
        let (free_at, holder) = holder_free[0];
        let arrival = fabric
            .send(
                node_ids[holder],
                node_ids[i],
                LinkClass::HighSpeed,
                image_size,
                free_at,
            )
            .expect("nodes on fabric");
        tracer.record(
            sym!("p2p.send"),
            Stage::Storage,
            free_at,
            arrival,
            [
                (sym!("from"), node_ids[holder].0.into()),
                (sym!("to"), node_ids[i].0.into()),
            ],
        );
        done[i] = Some(arrival);
        p2p_bytes += image_size.as_u64();
        // The holder frees when its NIC is done (≈ arrival minus latency,
        // approximated as arrival); the receiver becomes a holder too.
        holder_free[0] = (arrival, holder);
        holder_free.push((arrival, i));
    }

    let per_node_done: Vec<SimTime> = done.into_iter().map(|t| t.expect("all served")).collect();
    let all_done = per_node_done.iter().copied().max().unwrap_or(start);
    tracer.end(root, all_done);
    BroadcastReport {
        per_node_done,
        all_done,
        shared_fs_bytes: Bytes::new(image_size.as_u64() * seeds as u64),
        p2p_bytes: Bytes::new(p2p_bytes),
    }
}

// ---------------------------------------------------------------------------
// Deterministic distribution trees (fleet-scale storms)
// ---------------------------------------------------------------------------

/// Time a churned interior node (or its orphaned children) spends
/// re-registering with the nearest live ancestor before transfers resume.
pub const TREE_REPAIR_LATENCY: SimSpan = SimSpan(50 * 1_000_000);

/// Shape of a [`DistributionTree`]: a forest of `seeds` fan-out-`fanout`
/// trees over a seeded placement permutation, moving the image in `chunk`
/// sized pieces so interior nodes forward while still receiving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeSpec {
    /// Children per interior node (≥ 2).
    pub fanout: usize,
    /// Roots of the forest; each seed fetches the image upstream.
    pub seeds: usize,
    /// Pipelining granularity: interior nodes forward chunk `c` while
    /// chunk `c + 1` is still in flight to them.
    pub chunk: Bytes,
    /// Seed for the placement permutation (which node lands at which tree
    /// position). Same seed → same tree, run to run.
    pub placement_seed: u64,
}

impl Default for TreeSpec {
    fn default() -> TreeSpec {
        TreeSpec {
            fanout: 4,
            seeds: 2,
            chunk: Bytes::mib(64),
            placement_seed: 0x5eed,
        }
    }
}

/// A deterministic fan-out forest over an allocation's nodes.
///
/// Positions are laid out heap-style within each seed's contiguous
/// segment: position `p`'s children are `p·f + 1 ..= p·f + f` (segment
/// local), so the structure is fully determined by `(nodes, spec)` and
/// every parent index is strictly smaller than its children's — one
/// index-order sweep per chunk is a BFS of the whole forest.
///
/// Invariants (property-tested in `tests/integration_storm.rs`):
/// * the placement is a permutation — every node appears exactly once;
/// * depth ≤ ⌈log_fanout(segment size)⌉ in every segment.
#[derive(Debug, Clone)]
pub struct DistributionTree {
    spec: TreeSpec,
    /// `order[position] = index into the node slice` (a permutation).
    order: Vec<usize>,
    /// Segment boundaries, one per seed: `seg[s] .. seg[s + 1]`.
    seg: Vec<usize>,
}

impl DistributionTree {
    /// Build the forest for `nodes` participants. `spec.seeds` is clamped
    /// to the node count; `spec.fanout` must be ≥ 2.
    pub fn build(nodes: usize, spec: TreeSpec) -> DistributionTree {
        assert!(nodes >= 1, "a tree needs at least one node");
        assert!(spec.fanout >= 2, "fanout must be at least 2");
        assert!(spec.seeds >= 1, "at least one seed");
        assert!(spec.chunk.as_u64() > 0, "chunk size must be positive");
        let spec = TreeSpec {
            seeds: spec.seeds.min(nodes),
            ..spec
        };
        let mut order: Vec<usize> = (0..nodes).collect();
        DetRng::seeded(spec.placement_seed).shuffle(&mut order);
        // Segments as even as possible; earlier seeds take the remainder.
        let (base, rem) = (nodes / spec.seeds, nodes % spec.seeds);
        let mut seg = Vec::with_capacity(spec.seeds + 1);
        let mut at = 0;
        seg.push(0);
        for s in 0..spec.seeds {
            at += base + usize::from(s < rem);
            seg.push(at);
        }
        DistributionTree { spec, order, seg }
    }

    /// The spec the tree was built from (with `seeds` clamped).
    pub fn spec(&self) -> TreeSpec {
        self.spec
    }

    /// Number of participating nodes.
    pub(crate) fn node_count(&self) -> usize {
        self.order.len()
    }

    /// Placement permutation: `assignments()[position]` is the index of
    /// the node occupying that tree position.
    pub fn assignments(&self) -> &[usize] {
        &self.order
    }

    /// Root position of segment `s` — the slot its seed occupies.
    pub fn seed_root(&self, s: usize) -> usize {
        assert!(s < self.spec.seeds);
        self.seg[s]
    }

    /// Segment (= seed tree) containing `pos`.
    pub fn segment_of(&self, pos: usize) -> usize {
        debug_assert!(pos < self.order.len());
        // seg is sorted; find the last boundary ≤ pos.
        match self.seg.binary_search(&pos) {
            Ok(s) if s < self.spec.seeds => s,
            Ok(s) => s - 1,
            Err(s) => s - 1,
        }
    }

    /// Parent position, or `None` for a segment root.
    pub fn parent(&self, pos: usize) -> Option<usize> {
        let s = self.segment_of(pos);
        let local = pos - self.seg[s];
        (local > 0).then(|| self.seg[s] + (local - 1) / self.spec.fanout)
    }

    /// Child positions of `pos` (empty for leaves).
    pub fn children(&self, pos: usize) -> Vec<usize> {
        let s = self.segment_of(pos);
        let (lo, hi) = (self.seg[s], self.seg[s + 1]);
        let local = pos - lo;
        let first = local * self.spec.fanout + 1;
        (first..first + self.spec.fanout)
            .map(|l| lo + l)
            .filter(|p| *p < hi)
            .collect()
    }

    /// Hops from `pos` up to its segment root.
    pub(crate) fn depth_of(&self, pos: usize) -> u32 {
        let mut d = 0;
        let mut at = pos;
        while let Some(p) = self.parent(at) {
            at = p;
            d += 1;
        }
        d
    }

    /// Deepest position in the forest.
    pub fn max_depth(&self) -> u32 {
        (0..self.spec.seeds)
            .filter(|s| self.seg[*s + 1] > self.seg[*s])
            .map(|s| self.depth_of(self.seg[s + 1] - 1))
            .max()
            .unwrap_or(0)
    }
}

/// Smallest `d` with `fanout^d ≥ n` — the ⌈log_f(n)⌉ depth bound a
/// heap-layout fan-out tree satisfies.
pub fn tree_depth_bound(nodes: usize, fanout: usize) -> u32 {
    assert!(fanout >= 2);
    let mut d = 0;
    let mut cap = 1u128;
    while cap < nodes as u128 {
        cap *= fanout as u128;
        d += 1;
    }
    d
}

/// Outcome of a tree broadcast.
#[derive(Debug, Clone)]
pub struct TreeBroadcastReport {
    /// Completion time per node (node order = input order).
    pub per_node_done: Vec<SimTime>,
    /// When the slowest node finished.
    pub all_done: SimTime,
    /// Bytes the seeds pulled upstream (shared fs or registry tier).
    pub shared_fs_bytes: Bytes,
    /// Bytes moved over the fabric, including churn catch-up resends.
    pub p2p_bytes: Bytes,
    /// Depth of the (pre-churn) forest.
    pub depth: u32,
    /// Interior nodes that churned away and were repaired around.
    pub repairs: u64,
    /// Chunk transfers performed.
    pub chunks_sent: u64,
}

/// Full tree broadcast: seeds fetch the image from the shared filesystem
/// in chunks (executor tasks, so the schedule rides the DES), then each
/// seed's segment receives it down a fan-out tree with chunk pipelining.
/// A [`FaultKind::PeerChurn`] fault fired against an interior node kills
/// it mid-broadcast; its children (and the node itself, once its daemon
/// restarts) re-attach to the nearest live ancestor and catch up.
/// [`FaultInjector::disabled`] and [`Tracer::disabled`] switch faults and
/// spans off.
// faults, tracer and metrics go on to broadcast_tree_from_seeds, frozen until ROADMAP 9(a).
#[allow(clippy::too_many_arguments)]
pub fn broadcast_tree(
    shared: &SharedFs,
    fabric: &Fabric,
    image_size: Bytes,
    node_ids: &[NodeId],
    spec: TreeSpec,
    start: SimTime,
    faults: &FaultInjector,
    tracer: &Tracer,
    metrics: &MetricsRegistry,
) -> TreeBroadcastReport {
    assert!(!node_ids.is_empty());
    let tree = DistributionTree::build(node_ids.len(), spec);
    let chunks = chunk_count(image_size, tree.spec().chunk);

    // Seeds fetch from shared storage chunk by chunk, contending with each
    // other: one executor task per seed on a pool as wide as the seed set.
    let seeds = tree.spec().seeds;
    // One task per (seed, chunk), chained per seed, so reads from
    // different seeds hit the filesystem interleaved in simulated-time
    // order instead of one seed's whole sequence monopolizing the queue.
    let seed_chunk_done: Vec<Vec<SimTime>> = {
        let done: RefCell<Vec<Vec<SimTime>>> = RefCell::new(vec![Vec::new(); seeds]);
        let mut graph: TaskGraph<'_, Infallible> = TaskGraph::new();
        let mut prev = vec![None; seeds];
        let chunk = tree.spec().chunk;
        for c in 0..chunks {
            for (s, prev) in prev.iter_mut().enumerate() {
                let done = &done;
                let node = node_ids[tree.assignments()[tree.seg[s]]];
                let deps: Vec<_> = prev.iter().copied().collect();
                let id = graph.add(sym!("tree.seed_pull"), Stage::Storage, &deps, move |at| {
                    let t = shared.read_bulk(chunk_size(image_size, chunk, c), at);
                    done.borrow_mut()[s].push(t);
                    Ok(TaskFinish::at(t)
                        .attr(sym!("node"), node.0)
                        .attr(sym!("chunk"), c))
                });
                *prev = Some(id);
            }
        }
        Executor::new(seeds)
            .run(graph, start, tracer)
            .expect("seed pulls are infallible");
        done.into_inner()
    };

    let mut report = broadcast_tree_from_seeds(
        fabric,
        image_size,
        node_ids,
        &tree,
        &seed_chunk_done,
        start,
        faults,
        tracer,
        metrics,
    );
    report.shared_fs_bytes = Bytes::new(image_size.as_u64() * seeds as u64);
    report
}

/// Result of one whole-subtree forest repair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RepairStats {
    /// Dead positions disconnected (requested minus protected roots).
    pub dead: usize,
    /// Parent pointers rewritten: one per orphaned live subtree root.
    pub rewired_edges: usize,
}

/// Whole-subtree re-parent fast path: disconnect every position in `dead`
/// from the forest at once and re-attach each *orphaned live subtree
/// root* (a live node whose parent died) to its nearest live ancestor.
///
/// This is the correlated-failure counterpart of the broadcast's inline
/// one-at-a-time churn repair: when a whole rack dies, the one-peer path
/// would rewire every lost position individually, while this touches only
/// the dead set and its boundary — cost is O(lost subtree), independent
/// of fleet size (pinned by a property test). Subtrees hanging under a
/// dead node move as a unit: their internal edges are untouched.
///
/// Forest roots (positions with no parent) are never disconnected — the
/// seed set must survive — so a `dead` entry naming a root is skipped.
/// Callers decide separately whether (and when) dead positions rejoin.
pub(crate) fn repair_forest(
    parent: &mut [Option<usize>],
    children: &mut [Vec<usize>],
    alive: &mut [bool],
    dead: &[usize],
) -> RepairStats {
    let mut marked = 0usize;
    for &d in dead {
        if parent[d].is_some() && alive[d] {
            alive[d] = false;
            marked += 1;
        }
    }
    let mut rewired = 0usize;
    for &d in dead {
        if alive[d] {
            continue; // root, or duplicate entry already processed
        }
        // Detach from the (possibly live) parent; a dead parent's list
        // is drained below anyway.
        let p = parent[d].expect("non-root");
        if alive[p] {
            children[p].retain(|&c| c != d);
        }
    }
    for &d in dead {
        if alive[d] {
            continue;
        }
        let orphans: Vec<usize> = children[d].drain(..).filter(|&c| alive[c]).collect();
        if orphans.is_empty() {
            continue;
        }
        // Nearest live ancestor adopts the whole orphaned subtrees.
        let mut anc = parent[d].expect("non-root");
        while !alive[anc] {
            anc = parent[anc].expect("roots stay alive");
        }
        for o in orphans {
            parent[o] = Some(anc);
            children[anc].push(o);
            rewired += 1;
        }
    }
    RepairStats {
        dead: marked,
        rewired_edges: rewired,
    }
}

/// The fan-out phase of a tree broadcast, starting from per-seed chunk
/// availability times (`seed_chunk_done[s][c]` = when seed `s` holds chunk
/// `c`). Lets callers feed the seeds from any upstream — shared fs here,
/// the tiered registry in `bench storm`. The outage-free call of
/// [`broadcast_tree_from_seeds_gated`].
// hostbench calls this; thaw in ROADMAP 9(a).
#[allow(clippy::too_many_arguments)]
pub fn broadcast_tree_from_seeds(
    fabric: &Fabric,
    image_size: Bytes,
    node_ids: &[NodeId],
    tree: &DistributionTree,
    seed_chunk_done: &[Vec<SimTime>],
    start: SimTime,
    faults: &FaultInjector,
    tracer: &Tracer,
    metrics: &MetricsRegistry,
) -> TreeBroadcastReport {
    broadcast_tree_from_seeds_gated(
        fabric,
        image_size,
        node_ids,
        tree,
        seed_chunk_done,
        start,
        faults,
        tracer,
        metrics,
        None,
    )
}

/// [`broadcast_tree_from_seeds`] under a correlated outage: `outage =
/// (dead_positions, heal_at)` kills the named tree positions before the
/// first chunk moves. Their live subtrees are re-parented around the
/// hole in one `repair_forest` pass (rack-scale repair, not
/// peer-at-a-time), and the dead nodes themselves rejoin as leaves of
/// their nearest live ancestor, gated so no chunk reaches them before
/// `heal_at` + the re-registration latency. With `None` this is exactly
/// [`broadcast_tree_from_seeds`].
// broadcast_tree_from_seeds, frozen for hostbench, is this minus `outage`; fold in ROADMAP 9(a).
#[allow(clippy::too_many_arguments)]
pub fn broadcast_tree_from_seeds_gated(
    fabric: &Fabric,
    image_size: Bytes,
    node_ids: &[NodeId],
    tree: &DistributionTree,
    seed_chunk_done: &[Vec<SimTime>],
    start: SimTime,
    faults: &FaultInjector,
    tracer: &Tracer,
    metrics: &MetricsRegistry,
    outage: Option<(&[usize], SimTime)>,
) -> TreeBroadcastReport {
    let n = node_ids.len();
    assert_eq!(tree.node_count(), n, "tree built for a different fleet");
    let spec = tree.spec();
    assert_eq!(
        seed_chunk_done.len(),
        spec.seeds,
        "one chunk clock per seed"
    );
    let chunks = chunk_count(image_size, spec.chunk);

    let root_span = tracer.begin(sym!("tree.broadcast"), Stage::Storage, start);
    tracer.attr(root_span, sym!("nodes"), n);
    tracer.attr(root_span, sym!("seeds"), spec.seeds);
    tracer.attr(root_span, sym!("fanout"), spec.fanout);
    tracer.attr(root_span, sym!("chunks"), chunks);
    tracer.attr(root_span, sym!("bytes"), image_size.as_u64());
    tracer.attr(root_span, sym!("depth"), tree.max_depth());

    // Mutable forest state (repair rewires it around churned nodes).
    let mut parent: Vec<Option<usize>> = (0..n).map(|p| tree.parent(p)).collect();
    let mut children: Vec<Vec<usize>> = (0..n).map(|p| tree.children(p)).collect();
    let mut alive = vec![true; n];
    // Next chunk index each position still needs (roots need none).
    let mut next_needed = vec![0usize; n];
    // Transfers to a re-attached node cannot start before its repair ends.
    let mut ready_floor = vec![SimTime::ZERO; n];
    let mut rx: Vec<Vec<SimTime>> = vec![vec![SimTime::ZERO; chunks]; n];
    for (s, seed_done) in seed_chunk_done.iter().enumerate() {
        let root = tree.seg[s];
        assert_eq!(seed_done.len(), chunks, "seed {s} chunk clock");
        rx[root].copy_from_slice(seed_done);
        next_needed[root] = chunks;
    }

    let mut p2p_bytes = 0u64;
    let mut chunks_sent = 0u64;
    let mut repairs = 0u64;

    // Correlated outage: kill the named positions up front, rewire their
    // live subtrees around the hole in one whole-subtree pass, then
    // re-attach the dead nodes as leaves of their nearest live ancestor,
    // gated so no chunk reaches them before the domain heals.
    if let Some((dead_positions, heal_at)) = outage {
        let stats = repair_forest(&mut parent, &mut children, &mut alive, dead_positions);
        repairs += stats.dead as u64;
        for &d in dead_positions {
            if alive[d] {
                continue; // protected forest root
            }
            let mut anc = parent[d].expect("non-root");
            while !alive[anc] {
                anc = parent[anc].expect("roots stay alive");
            }
            parent[d] = Some(anc);
            children[anc].push(d);
            alive[d] = true;
            ready_floor[d] = ready_floor[d].max(heal_at + TREE_REPAIR_LATENCY);
        }
        faults.note(format!(
            "- {heal_at} tree outage repair: {} dead, {} subtree edges rewired",
            stats.dead, stats.rewired_edges,
        ));
        metrics.add("p2p.tree.outage_rewired", stats.rewired_edges as u64);
    }

    // One index-order sweep per chunk is a BFS of the forest (parents sit
    // at strictly smaller indices, and repair only moves nodes to
    // ancestors, which preserves that order). The catch-up `while` brings
    // re-attached nodes back level, so a final drain loop below is enough
    // to guarantee convergence under arbitrary churn.
    let mut sweep = |c: usize,
                     parent: &mut Vec<Option<usize>>,
                     children: &mut Vec<Vec<usize>>,
                     alive: &mut Vec<bool>,
                     next_needed: &mut Vec<usize>,
                     ready_floor: &mut Vec<SimTime>,
                     rx: &mut Vec<Vec<SimTime>>,
                     roll_churn: bool|
     -> bool {
        let mut progressed = false;
        for p in 0..n {
            if !alive[p] || children[p].is_empty() {
                continue;
            }
            let is_root = parent[p].is_none();
            let have = if is_root { chunks } else { next_needed[p] };
            if have == 0 {
                continue; // re-attached and not caught up yet
            }
            // Interior, non-root nodes may churn away the moment they are
            // called on to forward a chunk they just received.
            if roll_churn
                && !is_root
                && c < have
                && faults.roll(FaultKind::PeerChurn, rx[p][c]).is_some()
            {
                let at = rx[p][c];
                repairs += 1;
                alive[p] = false;
                // Nearest live ancestor adopts the orphans — and the
                // churned node itself, which rejoins as a leaf after its
                // daemon restarts.
                let mut anc = parent[p].expect("non-root has a parent");
                while !alive[anc] {
                    anc = parent[anc].expect("roots never churn");
                }
                let orphans: Vec<usize> = children[p].drain(..).collect();
                for o in &orphans {
                    parent[*o] = Some(anc);
                    ready_floor[*o] = ready_floor[*o].max(at + TREE_REPAIR_LATENCY);
                }
                children[anc].extend(orphans.iter().copied());
                parent[p] = Some(anc);
                children[anc].push(p);
                ready_floor[p] = ready_floor[p].max(at + TREE_REPAIR_LATENCY);
                faults.note(format!(
                    "- {at} tree node {} churned; {} orphans re-attached",
                    node_ids[tree.assignments()[p]].0,
                    orphans.len(),
                ));
                tracer.record(
                    sym!("tree.repair"),
                    Stage::Storage,
                    at,
                    at + TREE_REPAIR_LATENCY,
                    [
                        (sym!("node"), node_ids[tree.assignments()[p]].0.into()),
                        (sym!("orphans"), orphans.len().into()),
                    ],
                );
                continue;
            }
            // Serve every child up through the current chunk (catch-up for
            // re-attached children included), bounded by what we hold.
            let kids: Vec<usize> = children[p].clone();
            for child in kids {
                while next_needed[child] <= c && next_needed[child] < have {
                    let cc = next_needed[child];
                    let size = chunk_size(image_size, spec.chunk, cc);
                    let dep = rx[p][cc].max(ready_floor[child]);
                    let t = fabric
                        .send(
                            node_ids[tree.assignments()[p]],
                            node_ids[tree.assignments()[child]],
                            LinkClass::HighSpeed,
                            size,
                            dep,
                        )
                        .expect("nodes on fabric");
                    rx[child][cc] = t;
                    next_needed[child] = cc + 1;
                    p2p_bytes += size.as_u64();
                    chunks_sent += 1;
                    progressed = true;
                }
            }
        }
        progressed
    };

    for c in 0..chunks {
        sweep(
            c,
            &mut parent,
            &mut children,
            &mut alive,
            &mut next_needed,
            &mut ready_floor,
            &mut rx,
            true,
        );
    }
    // Drain: nodes re-attached late in the last rounds finish catching up.
    // Each pass pushes every behind node at least one chunk further down
    // its (topologically ordered) ancestor chain, so this terminates.
    while sweep(
        chunks - 1,
        &mut parent,
        &mut children,
        &mut alive,
        &mut next_needed,
        &mut ready_floor,
        &mut rx,
        false,
    ) {}

    let mut per_node_done = vec![SimTime::ZERO; n];
    for p in 0..n {
        assert_eq!(next_needed[p], chunks, "node at position {p} converged");
        per_node_done[tree.assignments()[p]] = rx[p][chunks - 1];
    }
    let all_done = per_node_done.iter().copied().max().unwrap_or(start);

    metrics.add("p2p.tree.chunks_sent", chunks_sent);
    metrics.add("p2p.tree.bytes", p2p_bytes);
    metrics.add("p2p.tree.repairs", repairs);
    metrics.observe("p2p.tree.depth", u64::from(tree.max_depth()));
    tracer.end(root_span, all_done);

    TreeBroadcastReport {
        per_node_done,
        all_done,
        shared_fs_bytes: Bytes::ZERO,
        p2p_bytes: Bytes::new(p2p_bytes),
        depth: tree.max_depth(),
        repairs,
        chunks_sent,
    }
}

/// Number of `chunk`-sized pieces covering `image_size` (≥ 1).
pub fn chunk_count(image_size: Bytes, chunk: Bytes) -> usize {
    (image_size.as_u64().div_ceil(chunk.as_u64()).max(1)) as usize
}

/// Size of chunk `c` (the last chunk may be short).
pub fn chunk_size(image_size: Bytes, chunk: Bytes, c: usize) -> Bytes {
    let off = c as u64 * chunk.as_u64();
    Bytes::new(chunk.as_u64().min(image_size.as_u64().saturating_sub(off)))
}

/// Replicate the broadcast payload into every receiving node's local blob
/// store — what the transfer delivers. Content addressing makes the
/// result byte-identical to a direct per-node pull of the same blobs,
/// which `tests/integration_storm.rs` pins.
pub fn replicate_to_stores(stores: &[Arc<BlobStore>], blobs: &[(Digest, Arc<Vec<u8>>)]) {
    for store in stores {
        for (digest, data) in blobs {
            store.insert(*digest, Arc::clone(data));
        }
    }
}

/// A rough analytic check: binary-tree broadcast depth.
pub fn ideal_p2p_rounds(nodes: usize, seeds: usize) -> u32 {
    let mut have = seeds.max(1);
    let mut rounds = 0;
    while have < nodes {
        have *= 2;
        rounds += 1;
    }
    rounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared_fs::SharedFs;

    fn setup(nodes: usize) -> (SharedFs, Fabric, Vec<NodeId>) {
        let ids: Vec<NodeId> = (0..nodes as u32).map(NodeId).collect();
        (
            SharedFs::with_defaults(),
            Fabric::with_defaults(ids.iter().copied()),
            ids,
        )
    }

    /// A fault-free, untraced swarm broadcast from time zero.
    fn swarm(
        shared: &SharedFs,
        fabric: &Fabric,
        image: Bytes,
        ids: &[NodeId],
        seeds: usize,
    ) -> BroadcastReport {
        let (faults, tracer) = (FaultInjector::disabled(), Tracer::disabled());
        broadcast_p2p(
            shared,
            fabric,
            image,
            ids,
            seeds,
            SimTime::ZERO,
            &faults,
            &tracer,
        )
    }

    #[test]
    fn p2p_beats_shared_fs_at_scale() {
        let image = Bytes::gib(2);
        let (shared_a, _, _) = setup(0);
        let base = broadcast_via_shared_fs(&shared_a, image, 256, SimTime::ZERO);
        let (shared_b, fabric, ids) = setup(256);
        let p2p = swarm(&shared_b, &fabric, image, &ids, 4);
        assert!(
            p2p.all_done < base.all_done,
            "p2p {:?} should beat shared-fs {:?} at 256 nodes",
            p2p.all_done,
            base.all_done
        );
        // And it offloads the shared filesystem dramatically.
        assert_eq!(p2p.shared_fs_bytes, Bytes::gib(8));
        assert_eq!(base.shared_fs_bytes, Bytes::gib(512));
    }

    #[test]
    fn all_nodes_receive_the_image() {
        let image = Bytes::mib(512);
        let (shared, fabric, ids) = setup(33);
        let report = swarm(&shared, &fabric, image, &ids, 2);
        assert_eq!(report.per_node_done.len(), 33);
        assert!(report.per_node_done.iter().all(|t| *t > SimTime::ZERO));
        // 31 non-seed nodes each moved one image copy over p2p.
        assert_eq!(report.p2p_bytes, Bytes::new(512 * (1 << 20) * 31));
    }

    #[test]
    fn completion_grows_logarithmically() {
        let image = Bytes::gib(1);
        let t64 = {
            let (shared, fabric, ids) = setup(64);
            swarm(&shared, &fabric, image, &ids, 1).all_done
        };
        let t512 = {
            let (shared, fabric, ids) = setup(512);
            swarm(&shared, &fabric, image, &ids, 1).all_done
        };
        let ratio =
            t512.since(SimTime::ZERO).as_secs_f64() / t64.since(SimTime::ZERO).as_secs_f64();
        // 8x the nodes should cost ~log2(8)=3 extra doubling rounds, far
        // below linear 8x.
        assert!(ratio < 2.5, "expected sub-linear growth, got {ratio}");
        assert_eq!(ideal_p2p_rounds(64, 1), 6);
        assert_eq!(ideal_p2p_rounds(512, 1), 9);
    }

    #[test]
    fn broadcast_completes_despite_seed_churn() {
        use hpcc_sim::{FaultRule, SimSpan};
        let image = Bytes::mib(256);
        let (shared, fabric, ids) = setup(64);
        // Aggressive churn: every holder asked to serve in the first 10
        // minutes departs (unless it is the last one standing).
        let inj = FaultInjector::new(
            17,
            vec![FaultRule::sticky(
                FaultKind::PeerChurn,
                SimTime::ZERO,
                SimTime::ZERO + SimSpan::secs(600),
            )],
        );
        let report = broadcast_p2p(
            &shared,
            &fabric,
            image,
            &ids,
            4,
            SimTime::ZERO,
            &inj,
            &Tracer::disabled(),
        );
        assert_eq!(report.per_node_done.len(), 64);
        assert!(report.per_node_done.iter().all(|t| *t > SimTime::ZERO));
        assert!(inj.metrics().get("faults.injected.peer_churn") > 0);
        // Churn costs time against the fault-free swarm.
        let (shared2, fabric2, ids2) = setup(64);
        let clean = swarm(&shared2, &fabric2, image, &ids2, 4);
        assert!(report.all_done >= clean.all_done);
    }

    #[test]
    fn more_seeds_speed_up_the_swarm() {
        let image = Bytes::gib(1);
        let t1 = {
            let (shared, fabric, ids) = setup(128);
            swarm(&shared, &fabric, image, &ids, 1).all_done
        };
        let t8 = {
            let (shared, fabric, ids) = setup(128);
            swarm(&shared, &fabric, image, &ids, 8).all_done
        };
        assert!(t8 <= t1);
    }

    #[test]
    fn single_node_is_just_a_seed_pull() {
        let image = Bytes::mib(64);
        let (shared, fabric, ids) = setup(1);
        let report = swarm(&shared, &fabric, image, &ids, 1);
        assert_eq!(report.p2p_bytes, Bytes::ZERO);
        assert_eq!(report.per_node_done.len(), 1);
    }

    // ------------------------------------------------ distribution trees

    #[test]
    fn tree_positions_form_a_permutation_with_bounded_depth() {
        for nodes in [1usize, 2, 7, 16, 64, 257] {
            let spec = TreeSpec {
                seeds: 3,
                ..TreeSpec::default()
            };
            let tree = DistributionTree::build(nodes, spec);
            let mut seen = tree.assignments().to_vec();
            seen.sort_unstable();
            assert_eq!(seen, (0..nodes).collect::<Vec<_>>(), "{nodes} nodes");
            assert!(
                tree.max_depth() <= tree_depth_bound(nodes, spec.fanout),
                "{nodes} nodes: depth {} over bound {}",
                tree.max_depth(),
                tree_depth_bound(nodes, spec.fanout)
            );
        }
    }

    #[test]
    fn tree_broadcast_reaches_every_node() {
        let image = Bytes::gib(2);
        let (shared, fabric, ids) = setup(100);
        let report = broadcast_tree(
            &shared,
            &fabric,
            image,
            &ids,
            TreeSpec::default(),
            SimTime::ZERO,
            &FaultInjector::disabled(),
            &Tracer::disabled(),
            &MetricsRegistry::new(),
        );
        assert_eq!(report.per_node_done.len(), 100);
        assert!(report.per_node_done.iter().all(|t| *t > SimTime::ZERO));
        assert_eq!(report.repairs, 0);
        // 98 non-seed nodes each received the full image over the fabric.
        assert_eq!(report.p2p_bytes, Bytes::new(image.as_u64() * 98));
        assert_eq!(report.shared_fs_bytes, Bytes::new(image.as_u64() * 2));
    }

    #[test]
    fn tree_pipelining_beats_whole_image_swarm_at_scale() {
        let image = Bytes::gib(2);
        let (shared_a, fabric_a, ids_a) = setup(512);
        let swarm = swarm(&shared_a, &fabric_a, image, &ids_a, 4);
        let (shared_b, fabric_b, ids_b) = setup(512);
        let spec = TreeSpec {
            seeds: 4,
            ..TreeSpec::default()
        };
        let tree = broadcast_tree(
            &shared_b,
            &fabric_b,
            image,
            &ids_b,
            spec,
            SimTime::ZERO,
            &FaultInjector::disabled(),
            &Tracer::disabled(),
            &MetricsRegistry::new(),
        );
        assert!(
            tree.all_done < swarm.all_done,
            "pipelined tree {:?} should beat whole-image swarm {:?}",
            tree.all_done,
            swarm.all_done
        );
    }

    #[test]
    fn tree_broadcast_converges_despite_interior_churn() {
        use hpcc_sim::{FaultRule, SimSpan};
        let image = Bytes::mib(512);
        let (shared, fabric, ids) = setup(128);
        let inj = FaultInjector::new(
            23,
            vec![FaultRule::sticky(
                FaultKind::PeerChurn,
                SimTime::ZERO,
                SimTime::ZERO + SimSpan::secs(600),
            )],
        );
        let tracer = Tracer::disabled();
        let metrics = MetricsRegistry::new();
        let churned = broadcast_tree(
            &shared,
            &fabric,
            image,
            &ids,
            TreeSpec::default(),
            SimTime::ZERO,
            &inj,
            &tracer,
            &metrics,
        );
        assert_eq!(churned.per_node_done.len(), 128);
        assert!(churned.per_node_done.iter().all(|t| *t > SimTime::ZERO));
        assert!(churned.repairs > 0, "aggressive churn window never fired");
        assert_eq!(metrics.get("p2p.tree.repairs"), churned.repairs);
        let (shared2, fabric2, ids2) = setup(128);
        let clean = broadcast_tree(
            &shared2,
            &fabric2,
            image,
            &ids2,
            TreeSpec::default(),
            SimTime::ZERO,
            &FaultInjector::disabled(),
            &Tracer::disabled(),
            &MetricsRegistry::new(),
        );
        assert!(
            churned.all_done >= clean.all_done,
            "repair should not be free"
        );
    }

    #[test]
    fn chunk_arithmetic_covers_the_image_exactly() {
        let image = Bytes::new(5 * (1 << 20) + 17);
        let chunk = Bytes::mib(2);
        let n = chunk_count(image, chunk);
        let total: u64 = (0..n).map(|c| chunk_size(image, chunk, c).as_u64()).sum();
        assert_eq!(total, image.as_u64());
        assert!(chunk_size(image, chunk, n - 1).as_u64() > 0);
    }

    /// Forest state (parent / children / alive) lifted straight off a
    /// freshly built tree, for repair tests.
    fn forest_of(tree: &DistributionTree) -> (Vec<Option<usize>>, Vec<Vec<usize>>, Vec<bool>) {
        let n = tree.node_count();
        (
            (0..n).map(|p| tree.parent(p)).collect(),
            (0..n).map(|p| tree.children(p)).collect(),
            vec![true; n],
        )
    }

    #[test]
    fn repair_forest_reparents_whole_subtrees_and_protects_roots() {
        let tree = DistributionTree::build(64, TreeSpec::default());
        let (mut parent, mut children, mut alive) = forest_of(&tree);
        // Kill positions 1 and 2 (children of the segment-0 root) plus the
        // root itself, which must be protected.
        let stats = repair_forest(&mut parent, &mut children, &mut alive, &[0, 1, 2]);
        assert_eq!(stats.dead, 2, "root 0 is protected");
        assert!(alive[0] && !alive[1] && !alive[2]);
        // The orphaned subtree roots (positions 5..=12, children of 1 and
        // 2) hang off the segment root now; their own subtrees moved as
        // units — internal edges untouched.
        assert_eq!(stats.rewired_edges, 8);
        for o in 5..=12 {
            assert_eq!(parent[o], Some(0));
            assert!(children[0].contains(&o));
            assert_eq!(
                children[o],
                tree.children(o),
                "subtree interior moved as a unit"
            );
        }
        // Every live non-root still has a live parent that lists it.
        for p in 0..64 {
            if !alive[p] {
                continue;
            }
            if let Some(pp) = parent[p] {
                assert!(alive[pp], "live node {p} hangs off dead parent {pp}");
                assert!(children[pp].contains(&p));
            }
        }
    }

    #[test]
    fn repair_forest_skips_dead_interior_chains() {
        let tree = DistributionTree::build(64, TreeSpec::default());
        let (mut parent, mut children, mut alive) = forest_of(&tree);
        // Position 5 is a child of 1; kill both so orphans of 5 must climb
        // through the dead chain 5 → 1 up to the live root 0.
        let stats = repair_forest(&mut parent, &mut children, &mut alive, &[1, 5]);
        assert_eq!(stats.dead, 2);
        for o in tree.children(5) {
            assert_eq!(parent[o], Some(0), "orphan {o} climbs past the dead chain");
        }
        // 5 itself is dead, so it is not counted as a rewired edge of 1.
        let orphans_of_1 = tree.children(1).len() - 1;
        assert_eq!(stats.rewired_edges, orphans_of_1 + tree.children(5).len());
    }

    #[test]
    fn gated_broadcast_converges_and_gates_dead_nodes_on_heal() {
        let image = Bytes::mib(256);
        let (_, fabric, ids) = setup(64);
        let tree = DistributionTree::build(64, TreeSpec::default());
        let chunks = chunk_count(image, tree.spec().chunk);
        let seed_clock: Vec<SimTime> = (0..chunks)
            .map(|c| SimTime::ZERO + hpcc_sim::SimSpan::millis(c as u64 + 1))
            .collect();
        let seed_done = vec![seed_clock; tree.spec().seeds];
        let tracer = Tracer::disabled();
        let metrics = MetricsRegistry::new();
        let dead = [1usize, 2, 5];
        let heal = SimTime::ZERO + hpcc_sim::SimSpan::secs(3);
        let report = broadcast_tree_from_seeds_gated(
            &fabric,
            image,
            &ids,
            &tree,
            &seed_done,
            SimTime::ZERO,
            &FaultInjector::disabled(),
            &tracer,
            &metrics,
            Some((&dead, heal)),
        );
        assert_eq!(report.repairs, 3);
        assert!(report.per_node_done.iter().all(|t| *t > SimTime::ZERO));
        let floor = heal + TREE_REPAIR_LATENCY;
        for d in dead {
            let node = tree.assignments()[d];
            assert!(
                report.per_node_done[node] >= floor,
                "dead position {d} finished before its domain healed"
            );
        }
        // Orphans: 3 live children of 1 (5 is dead too), 4 of 2, 4 of 5.
        assert_eq!(metrics.get("p2p.tree.outage_rewired"), 11);

        // `None` is byte-for-byte the ungated broadcast.
        let (_, fabric2, ids2) = setup(64);
        let gated_none = broadcast_tree_from_seeds_gated(
            &fabric2,
            image,
            &ids2,
            &tree,
            &seed_done,
            SimTime::ZERO,
            &FaultInjector::disabled(),
            &tracer,
            &MetricsRegistry::new(),
            None,
        );
        let (_, fabric3, ids3) = setup(64);
        let plain = broadcast_tree_from_seeds(
            &fabric3,
            image,
            &ids3,
            &tree,
            &seed_done,
            SimTime::ZERO,
            &FaultInjector::disabled(),
            &tracer,
            &MetricsRegistry::new(),
        );
        assert_eq!(gated_none.per_node_done, plain.per_node_done);
        assert_eq!(gated_none.p2p_bytes, plain.p2p_bytes);
        assert_eq!(gated_none.chunks_sent, plain.chunks_sent);
        assert_eq!(gated_none.repairs, plain.repairs);
    }
}

#[cfg(test)]
mod repair_props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Losing the same block of tree positions costs the same number
        /// of rewired edges at 256 nodes as at 4096: repair touches the
        /// lost subtree and its boundary, never the fleet.
        #[test]
        fn repair_cost_is_o_lost_subtree_not_o_fleet(start in 1usize..20, len in 1usize..8) {
            let spec = TreeSpec::default();
            // Dead locals stay ≤ 26, so every child index (≤ 4·26+4) sits
            // inside segment 0 of even the 256-node tree — the lost
            // boundary is structurally identical across fleet sizes.
            let dead: Vec<usize> = (start..start + len).collect();
            let mut stats = Vec::new();
            for n in [256usize, 4096] {
                let tree = DistributionTree::build(n, spec);
                let mut parent: Vec<Option<usize>> = (0..n).map(|p| tree.parent(p)).collect();
                let mut children: Vec<Vec<usize>> = (0..n).map(|p| tree.children(p)).collect();
                let mut alive = vec![true; n];
                let s = repair_forest(&mut parent, &mut children, &mut alive, &dead);
                // Bounded by the lost-subtree boundary, not the fleet.
                prop_assert!(s.rewired_edges <= s.dead * spec.fanout);
                // The forest stays consistent: every live non-root hangs
                // off a live parent that lists it exactly once.
                for p in 0..n {
                    if !alive[p] {
                        continue;
                    }
                    if let Some(pp) = parent[p] {
                        prop_assert!(alive[pp]);
                        let listed = children[pp].iter().filter(|c| **c == p).count();
                        prop_assert!(listed == 1);
                    }
                }
                stats.push(s);
            }
            prop_assert!(stats[0] == stats[1]);
        }
    }
}
