//! Fleet-scale pull-storm benchmark + the `bench-storm` CI gate.
//!
//! Every number here is *logical* time, so runs are bit-for-bit
//! deterministic: the harness's double-run guard asserts the rendered
//! JSON is byte-identical, and any drift from `BENCH_storm.json` is a real
//! timing-model change, not noise.
//!
//! Three distribution strategies pull the same multi-GiB image across a
//! node sweep from 16 to 10,000:
//!
//! * **direct** — every node pulls straight from the origin registry.
//!   Total bytes scale with the fleet, so per-node latency grows
//!   ~linearly: the pull storm the tiered topology exists to kill.
//! * **tiered** — rack → row → site pull-through caches with request
//!   coalescing ([`hpcc_registry::tiered`]). Rack size stays constant as
//!   the fleet grows, so per-node latency stays near-flat and the origin
//!   sees exactly one fetch per distinct blob.
//! * **tiered-tree** — only the seeds pull through the tiers; everyone
//!   else receives the image down a chunk-pipelined fan-out tree over
//!   the node fabric ([`hpcc_storage::p2p`]).
//!
//! Gates, enforced by `bench storm --check` (the `bench-storm` ci.sh
//! stage):
//!
//! * **Flat-latency floor** — tiered p50 per-node latency at 10k nodes
//!   must stay within `FLAT_LATENCY_CEILING`× of the 16-node run,
//!   while the direct path must degrade by at least
//!   `DIRECT_BLOWUP_FLOOR`× over the same sweep (proving the contrast
//!   is real, not an easy workload).
//! * **Coalescing** — every tiered run must reach the origin exactly
//!   once per distinct blob, regardless of fleet size, while the direct
//!   path's origin requests grow with the fleet (one per node and blob).
//! * **Golden** — the whole document, tenant rows and request counts
//!   included, is `BENCH_storm.json` byte for byte.

use crate::harness::{self, GateResult};
use crate::json::Json;
use hpcc_registry::tiered::{ImageSpec, StormConfig, StormTopology, TenantPolicy};
use hpcc_sim::net::{Fabric, NodeId};
use hpcc_sim::obs::Tracer;
use hpcc_sim::{Bytes, FaultInjector, MetricsRegistry, QueueServer, SimSpan, SimTime};
use hpcc_storage::p2p::{broadcast_tree_from_seeds, chunk_count, DistributionTree, TreeSpec};

/// Fleet sizes swept by every strategy.
pub(crate) const NODE_COUNTS: &[usize] = &[16, 64, 256, 1024, 4096, 10_000];

/// Tiered p50 per-node latency at the largest sweep point must stay
/// within this factor of the smallest.
pub(crate) const FLAT_LATENCY_CEILING: f64 = 2.0;

/// The direct path must degrade by at least this factor over the same
/// sweep, or the workload is too easy to prove anything.
pub(crate) const DIRECT_BLOWUP_FLOOR: f64 = 50.0;

/// The image every storm pulls: 4 layers, 2 GiB total, plus config and
/// manifest blobs.
pub(crate) fn storm_image() -> ImageSpec {
    ImageSpec::synthetic("bench-storm", 4, Bytes::gib(2))
}

// ------------------------------------------------------------ measurements

/// One (strategy, fleet-size) measurement. All times are logical ns from
/// `SimTime::ZERO`; per-node latency is each node's image-complete time.
#[derive(Debug, Clone)]
pub struct StormRow {
    pub mode: &'static str,
    pub nodes: usize,
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub max_ns: u64,
    pub makespan_ns: u64,
    /// Requests that reached the origin.
    pub origin_requests: u64,
    /// Bottom-tier (rack) hit ratio, hits + coalesced joins over total.
    pub rack_hit_ratio: f64,
}

pub(crate) fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty());
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

fn row_from_latencies(mode: &'static str, nodes: usize, mut lat: Vec<u64>) -> StormRow {
    lat.sort_unstable();
    StormRow {
        mode,
        nodes,
        p50_ns: percentile(&lat, 0.50),
        p95_ns: percentile(&lat, 0.95),
        max_ns: *lat.last().unwrap(),
        makespan_ns: *lat.last().unwrap(),
        origin_requests: 0,
        rack_hit_ratio: 0.0,
    }
}

/// Every node pulls straight from the origin: one shared egress pool,
/// [`hpcc_registry::tiered::OriginParams`]-shaped (8 slots at 1 GiB/s,
/// 2 ms per-request admission). Manifests first, then each node's blobs
/// once its manifest landed — total bytes scale with the fleet.
fn direct_storm(nodes: usize, image: &ImageSpec) -> StormRow {
    let origin = hpcc_registry::tiered::OriginParams::default();
    let q = QueueServer::new(origin.egress);
    let mut requests = 0;
    let mut fetch = |after: SimTime, size: u64| {
        requests += 1;
        let service = SimSpan::from_secs_f64(size as f64 / origin.bandwidth_bps);
        q.submit(after + origin.request_latency, service).1
    };
    let manifest_done: Vec<SimTime> = (0..nodes)
        .map(|_| fetch(SimTime::ZERO, image.manifest.1))
        .collect();
    let lat: Vec<u64> = manifest_done
        .into_iter()
        .map(|mdone| {
            let blobs = image.blobs.iter().map(|(_, size)| fetch(mdone, *size));
            blobs.max().unwrap_or(mdone).as_nanos()
        })
        .collect();
    let mut row = row_from_latencies("direct", nodes, lat);
    row.origin_requests = requests;
    row
}

fn attach_tier_stats(row: &mut StormRow, topo: &StormTopology) {
    row.origin_requests = topo.origin_requests();
    row.rack_hit_ratio = topo.tier_stats(0).hit_ratio();
}

/// Every node pulls through the rack → row → site hierarchy.
fn tiered_storm(nodes: usize, image: &ImageSpec) -> StormRow {
    let topo = StormTopology::new(StormConfig::default_for(nodes));
    let lat: Vec<u64> = (0..nodes)
        .map(|node| {
            let (done, _) = topo
                .pull_image_sized(node, 0, image, SimTime::ZERO)
                .expect("model-plane pull cannot fail");
            done.as_nanos()
        })
        .collect();
    let mut row = row_from_latencies("tiered", nodes, lat);
    attach_tier_stats(&mut row, &topo);
    row
}

/// Map a seed's per-blob completion times onto per-chunk availability of
/// the concatenated image stream (manifest, then blobs in pull order):
/// chunk `c` is held once every blob overlapping its byte range landed.
/// Clocks are made monotone so pipelined sends never run backwards.
fn chunk_clocks(
    image: &ImageSpec,
    mdone: SimTime,
    blob_done: &[SimTime],
    chunk: Bytes,
) -> Vec<SimTime> {
    let total = image.total_bytes();
    let chunks = chunk_count(Bytes::new(total), chunk);
    let mut ranges: Vec<(u64, u64, SimTime)> = Vec::with_capacity(blob_done.len() + 1);
    let mut off = image.manifest.1;
    ranges.push((0, off, mdone));
    for ((_, size), done) in image.blobs.iter().zip(blob_done) {
        ranges.push((off, off + size, *done));
        off += size;
    }
    let mut clocks = Vec::with_capacity(chunks);
    let mut floor = SimTime::ZERO;
    for c in 0..chunks {
        let (lo, hi) = (
            c as u64 * chunk.as_u64(),
            ((c + 1) as u64 * chunk.as_u64()).min(total),
        );
        let at = ranges
            .iter()
            .filter(|(blo, bhi, _)| *blo < hi && *bhi > lo)
            .map(|(_, _, t)| *t)
            .max()
            .unwrap_or(mdone);
        floor = floor.max(at);
        clocks.push(floor);
    }
    clocks
}

/// Every seed root of `tree` pulls `image` through the tiers at time zero.
/// Returns each seed's `(node, image-complete time)` and, per seed, the
/// chunk availability clocks the tree broadcast starts from.
pub(crate) fn seed_pulls(
    topo: &StormTopology,
    tree: &DistributionTree,
    image: &ImageSpec,
) -> (Vec<(usize, SimTime)>, Vec<Vec<SimTime>>) {
    (0..tree.spec().seeds)
        .map(|s| {
            let node = tree.assignments()[tree.seed_root(s)];
            let (done, blob_done) = topo
                .pull_image_sized(node, 0, image, SimTime::ZERO)
                .expect("model-plane pull cannot fail");
            let mdone = done.min(*blob_done.iter().min().unwrap_or(&done));
            let clocks = chunk_clocks(image, mdone, &blob_done, tree.spec().chunk);
            ((node, done), clocks)
        })
        .unzip()
}

/// Seeds (scaled with the fleet) pull through the tiers; the rest of the
/// fleet receives the image down the chunk-pipelined distribution tree.
fn tiered_tree_storm(nodes: usize, image: &ImageSpec) -> StormRow {
    let topo = StormTopology::new(StormConfig::default_for(nodes));
    let spec = TreeSpec {
        seeds: (nodes / 256).clamp(2, 16).min(nodes),
        ..TreeSpec::default()
    };
    let tree = DistributionTree::build(nodes, spec);
    let (seed_done, seed_chunk_done) = seed_pulls(&topo, &tree, image);

    let ids: Vec<NodeId> = (0..nodes as u32).map(NodeId).collect();
    let fabric = Fabric::with_defaults(ids.iter().copied());
    let disabled = Tracer::disabled();
    let report = broadcast_tree_from_seeds(
        &fabric,
        Bytes::new(image.total_bytes()),
        &ids,
        &tree,
        &seed_chunk_done,
        SimTime::ZERO,
        &FaultInjector::disabled(),
        &disabled,
        &MetricsRegistry::new(),
    );
    let mut lat: Vec<u64> = report.per_node_done.iter().map(|t| t.as_nanos()).collect();
    for (node, done) in seed_done {
        lat[node] = lat[node].max(done.as_nanos());
    }
    let mut row = row_from_latencies("tiered-tree", nodes, lat);
    attach_tier_stats(&mut row, &topo);
    row
}

/// The multi-tenant variant at a fixed 1024-node fleet: three tenants
/// share the hierarchy — an unlimited batch tenant, a rate-limited
/// interactive tenant, and a cache-quota'd guest tenant — with nodes
/// assigned round-robin. Rows are per tenant.
fn tenant_storm(image: &ImageSpec) -> (Vec<StormRow>, u64) {
    const NODES: usize = 1024;
    let tenants = vec![
        TenantPolicy {
            name: "batch",
            rate: None,
            cache_quota: None,
        },
        // Tight enough to actually bind: the rack egress alone paces one
        // tenant's pulls to a few dozen per second, so a generous bucket
        // would never throttle anything.
        TenantPolicy {
            name: "interactive",
            rate: Some((20.0, 8)),
            cache_quota: None,
        },
        TenantPolicy {
            name: "guest",
            rate: None,
            cache_quota: Some(Bytes::gib(4)),
        },
    ];
    let mut cfg = StormConfig::default_for(NODES);
    cfg.tenants = tenants.clone();
    let topo = StormTopology::new(cfg);
    let mut lat: Vec<Vec<u64>> = vec![Vec::new(); tenants.len()];
    for node in 0..NODES {
        let tenant = node % tenants.len();
        let (done, _) = topo
            .pull_image_sized(node, tenant, image, SimTime::ZERO)
            .expect("model-plane pull cannot fail");
        lat[tenant].push(done.as_nanos());
    }
    let rows = tenants
        .iter()
        .zip(lat)
        .map(|(t, l)| {
            let mut row = row_from_latencies(t.name, NODES, l);
            attach_tier_stats(&mut row, &topo);
            row
        })
        .collect();
    (rows, topo.metrics().get("storm.tenant.rate_wait_ns"))
}

/// Everything one full run produces.
#[derive(Debug, Clone)]
pub struct StormResults {
    /// The node-count sweep: every strategy at every fleet size.
    pub sweep: Vec<StormRow>,
    /// The multi-tenant variant (per-tenant rows at 1024 nodes).
    pub tenants: Vec<StormRow>,
    /// Total admission delay the rate-limited tenant absorbed.
    pub tenant_rate_wait_ns: u64,
}

// ------------------------------------------------------------------ gates

fn sweep_row<'a>(results: &'a StormResults, mode: &str, nodes: usize) -> Option<&'a StormRow> {
    results
        .sweep
        .iter()
        .find(|r| r.mode == mode && r.nodes == nodes)
}

// ----------------------------------------------------------------- render

fn render_row(r: &StormRow) -> Json {
    Json::obj([
        ("mode", Json::Str(r.mode.to_string())),
        ("nodes", Json::Num(r.nodes as f64)),
        ("p50_ns", Json::Num(r.p50_ns as f64)),
        ("p95_ns", Json::Num(r.p95_ns as f64)),
        ("max_ns", Json::Num(r.max_ns as f64)),
        ("makespan_ns", Json::Num(r.makespan_ns as f64)),
        ("origin_requests", Json::Num(r.origin_requests as f64)),
        (
            "rack_hit_ratio",
            Json::Num((r.rack_hit_ratio * 10_000.0).round() / 10_000.0),
        ),
    ])
}

/// Render results as the BENCH_storm.json document.
fn render(results: &StormResults) -> Json {
    let image = storm_image();
    Json::obj([
        ("schema", Json::Str("hpcc-bench-storm/v1".to_string())),
        (
            "image",
            Json::obj([
                ("blobs", Json::Num(image.blobs.len() as f64 + 1.0)),
                ("bytes", Json::Num(image.total_bytes() as f64)),
            ]),
        ),
        (
            "sweep",
            Json::Arr(results.sweep.iter().map(render_row).collect()),
        ),
        (
            "tenants",
            Json::Arr(results.tenants.iter().map(render_row).collect()),
        ),
        (
            "tenant_rate_wait_ns",
            Json::Num(results.tenant_rate_wait_ns as f64),
        ),
    ])
}

/// `bench storm`.
pub(crate) struct Storm;

impl harness::Suite for Storm {
    const NAME: &'static str = "storm";
    const GOLDEN: harness::Render<Self::Results> = render;
    type Results = StormResults;

    /// Run the full sweep + the multi-tenant variant. Pure logical time:
    /// identical output every run.
    fn run() -> StormResults {
        let image = storm_image();
        let mut sweep = Vec::with_capacity(NODE_COUNTS.len() * 3);
        for &nodes in NODE_COUNTS {
            sweep.push(direct_storm(nodes, &image));
            sweep.push(tiered_storm(nodes, &image));
            sweep.push(tiered_tree_storm(nodes, &image));
        }
        let (tenants, tenant_rate_wait_ns) = tenant_storm(&image);
        StormResults {
            sweep,
            tenants,
            tenant_rate_wait_ns,
        }
    }

    /// The structural acceptance gates: flat tiered latency, a genuinely
    /// degrading direct path, and origin requests that grow with the fleet
    /// on the direct path but stay at one per blob behind the tiers.
    fn gates(results: &StormResults) -> GateResult {
        let mut report = Vec::new();
        let mut errors = Vec::new();
        let (lo, hi) = (NODE_COUNTS[0], *NODE_COUNTS.last().unwrap());
        for mode in ["tiered", "tiered-tree"] {
            match (sweep_row(results, mode, lo), sweep_row(results, mode, hi)) {
                (Some(small), Some(large)) => {
                    let growth = large.p50_ns as f64 / small.p50_ns.max(1) as f64;
                    if growth <= FLAT_LATENCY_CEILING {
                        report.push(format!(
                            "{mode}: p50 grows {growth:.2}x from {lo} to {hi} nodes (ceiling {FLAT_LATENCY_CEILING}x)"
                        ));
                    } else {
                        errors.push(format!(
                            "{mode}: p50 grows {growth:.2}x from {lo} to {hi} nodes, above the {FLAT_LATENCY_CEILING}x ceiling"
                        ));
                    }
                }
                _ => errors.push(format!("{mode}: sweep rows missing")),
            }
        }
        match (
            sweep_row(results, "direct", lo),
            sweep_row(results, "direct", hi),
        ) {
            (Some(small), Some(large)) => {
                let growth = large.p50_ns as f64 / small.p50_ns.max(1) as f64;
                if growth >= DIRECT_BLOWUP_FLOOR {
                    report.push(format!(
                        "direct: p50 grows {growth:.0}x from {lo} to {hi} nodes (the storm is real)"
                    ));
                } else {
                    errors.push(format!(
                        "direct: p50 grows only {growth:.1}x from {lo} to {hi} nodes, below the {DIRECT_BLOWUP_FLOOR}x floor — workload too easy"
                    ));
                }
            }
            _ => errors.push("direct: sweep rows missing".to_string()),
        }
        let distinct_blobs = storm_image().blobs.len() as u64 + 1;
        for row in &results.sweep {
            let (expected, why) = if row.mode == "direct" {
                let every = row.nodes as u64 * distinct_blobs;
                (every, "every node fetches every blob itself")
            } else {
                (distinct_blobs, "coalescing broke")
            };
            if row.origin_requests != expected {
                errors.push(format!(
                    "{} @ {} nodes: {} origin requests, expected exactly {expected} ({why})",
                    row.mode, row.nodes, row.origin_requests
                ));
            }
        }
        report.push(format!(
            "origin requests: direct grows {} -> {} with the fleet, tiered stays at {distinct_blobs}",
            lo as u64 * distinct_blobs,
            hi as u64 * distinct_blobs
        ));
        if errors.is_empty() {
            Ok(report)
        } else {
            Err(errors)
        }
    }

    /// The latency-vs-node-count table of EXPERIMENTS.md.
    fn table(results: &StormResults) -> Vec<Vec<String>> {
        let ms = |ns: u64| format!("{:.1} ms", ns as f64 / 1e6);
        let header = [
            "nodes",
            "direct p50",
            "tiered p50",
            "tiered+tree p50",
            "tiered rack hit",
            "origin reqs",
        ];
        let row = |nodes: &usize| {
            let d = sweep_row(results, "direct", *nodes).expect("direct row");
            let t = sweep_row(results, "tiered", *nodes).expect("tiered row");
            let tt = sweep_row(results, "tiered-tree", *nodes).expect("tree row");
            [
                nodes.to_string(),
                ms(d.p50_ns),
                ms(t.p50_ns),
                ms(tt.p50_ns),
                format!("{:.1}%", t.rack_hit_ratio * 100.0),
                t.origin_requests.to_string(),
            ]
        };
        harness::table(header, NODE_COUNTS.iter().map(row))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Suite;

    /// A miniature sweep must satisfy both gates end to end and render a
    /// well-formed document.
    #[test]
    fn small_sweep_passes_structural_gates() {
        let image = storm_image();
        let small = tiered_storm(16, &image);
        let large = tiered_storm(1024, &image);
        let growth = large.p50_ns as f64 / small.p50_ns.max(1) as f64;
        assert!(
            growth <= FLAT_LATENCY_CEILING,
            "tiered p50 grew {growth:.2}x from 16 to 1024 nodes"
        );
        assert_eq!(small.origin_requests, image.blobs.len() as u64 + 1);
        assert_eq!(large.origin_requests, image.blobs.len() as u64 + 1);
        let direct = direct_storm(256, &image);
        assert!(
            direct.p50_ns > large.p50_ns,
            "direct should already lose at 256 nodes"
        );
    }

    #[test]
    fn direct_mode_counts_one_origin_request_per_node_and_blob() {
        let image = storm_image();
        let distinct_blobs = image.blobs.len() as u64 + 1;
        for nodes in [16, 64, 256] {
            let row = direct_storm(nodes, &image);
            assert_eq!(row.origin_requests, nodes as u64 * distinct_blobs);
        }
    }

    /// The two fleet sizes the gates read, with latencies every latency
    /// gate accepts and the given origin requests at 10,000 nodes.
    fn fabricated(direct: u64, tiered: u64) -> StormResults {
        let row = |mode, nodes, p50_ns, origin_requests| StormRow {
            mode,
            nodes,
            p50_ns,
            p95_ns: p50_ns,
            max_ns: p50_ns,
            makespan_ns: p50_ns,
            origin_requests,
            rack_hit_ratio: 0.0,
        };
        StormResults {
            sweep: vec![
                row("direct", 16, 1_000, 96),
                row("tiered", 16, 1_000, 6),
                row("tiered-tree", 16, 1_000, 6),
                row("direct", 10_000, 100_000, direct),
                row("tiered", 10_000, 1_100, tiered),
                row("tiered-tree", 10_000, 1_050, 6),
            ],
            tenants: Vec::new(),
            tenant_rate_wait_ns: 0,
        }
    }

    #[test]
    fn gates_hold_direct_requests_to_the_fleet_and_tiered_to_the_blob_count() {
        let report = Storm::gates(&fabricated(60_000, 6)).unwrap();
        let last = report.last().unwrap();
        assert!(last.contains("direct grows 96 -> 60000"), "{last}");
        let stopped_counting = Storm::gates(&fabricated(0, 6)).unwrap_err();
        assert_eq!(stopped_counting.len(), 1, "{stopped_counting:?}");
        let expected = "direct @ 10000 nodes: 0 origin requests, expected exactly 60000";
        assert!(stopped_counting[0].starts_with(expected));
        let leaked = Storm::gates(&fabricated(60_000, 7)).unwrap_err();
        assert_eq!(leaked.len(), 1, "{leaked:?}");
        assert!(leaked[0].starts_with("tiered @ 10000 nodes: 7 origin requests"));
        assert!(leaked[0].ends_with("(coalescing broke)"));
    }

    #[test]
    fn tree_strategy_reaches_every_node_and_stays_flat() {
        let image = storm_image();
        let small = tiered_tree_storm(16, &image);
        let large = tiered_tree_storm(1024, &image);
        assert!(small.p50_ns > 0 && large.p50_ns > 0);
        let growth = large.p50_ns as f64 / small.p50_ns.max(1) as f64;
        assert!(
            growth <= FLAT_LATENCY_CEILING,
            "tiered-tree p50 grew {growth:.2}x from 16 to 1024 nodes"
        );
        assert_eq!(large.origin_requests, image.blobs.len() as u64 + 1);
    }

    #[test]
    fn chunk_clocks_cover_the_stream_monotonically() {
        let image = storm_image();
        let blob_done: Vec<SimTime> = (0..image.blobs.len())
            .map(|i| SimTime((image.blobs.len() - i) as u64 * 1_000_000))
            .collect();
        let clocks = chunk_clocks(&image, SimTime(500), &blob_done, Bytes::mib(64));
        assert_eq!(
            clocks.len(),
            chunk_count(Bytes::new(image.total_bytes()), Bytes::mib(64))
        );
        assert!(
            clocks.windows(2).all(|w| w[0] <= w[1]),
            "clocks not monotone"
        );
        // The last chunk needs the last blob; the first chunk needs the
        // (late-finishing) first blob.
        assert_eq!(*clocks.last().unwrap(), clocks[0]);
    }

    #[test]
    fn two_runs_render_identical_documents() {
        let image = storm_image();
        let a = tiered_storm(64, &image);
        let b = tiered_storm(64, &image);
        assert_eq!(render_row(&a).render(), render_row(&b).render());
    }
}
