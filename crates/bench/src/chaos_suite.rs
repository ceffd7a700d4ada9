//! Game-day chaos benchmark + the `bench-chaos` CI gate.
//!
//! `bench storm` proves the pull plane is *fast*; this suite proves it is
//! *survivable*. A 1024-node fleet runs the same tiered pull workload
//! while one correlated outage after another strikes the topology
//! ([`hpcc_sim::DomainSchedule`]): a rack loses power, a row switch
//! partitions every cache below it from the origin (split-brain), and
//! the origin itself saturates and sheds load. Each scenario is swept
//! across two resilience modes:
//!
//! * **none** — a single raw pull per node. Outages surface as failed
//!   pulls; this row proves the chaos is real.
//! * **breakers** — pulls run under a fleet-shared per-origin circuit
//!   breaker plus a bounded retry ladder; retry give-ups fail over to an
//!   always-on mirror replica, and a tripped breaker short-circuits
//!   straight to the mirror instead of burning a retry ladder per pull
//!   ([`hpcc_sim::resilience`]).
//!
//! Every number is logical DES time, so the whole document is
//! bit-for-bit deterministic (the driver double-runs and compares).
//!
//! Gates, enforced by `bench chaos --check` (the `bench-chaos` ci.sh
//! stage):
//!
//! * **Chaos is real** — the `none` row of every scenario must lose
//!   pulls (failures or dead-rack skips).
//! * **Zero give-ups** — resilient rows must complete every admitted
//!   pull while the mirror replica path stays reachable.
//! * **Bounded recovery** — after the outage heals, the slowest
//!   post-heal pull must land within [`RECOVERY_CEILING`] of the heal
//!   instant, with the breaker probing closed again on its own.
//! * **Rack-scale tree repair** — a mid-broadcast rack power loss must
//!   be repaired in one whole-subtree pass and every dead node
//!   re-attached and served only after its domain heals.
//! * **Golden** — the whole document, recovery times and the tree cell
//!   included, is `BENCH_chaos.json` byte for byte.

use crate::harness::{self, GateResult};
use crate::json::Json;
use crate::storm_suite::{percentile, seed_pulls};
use hpcc_registry::registry::RegistryError;
use hpcc_registry::tiered::{ImageSpec, StormConfig, StormTopology};
use hpcc_sim::net::{Fabric, NodeId};
use hpcc_sim::obs::Tracer;
use hpcc_sim::resilience::{BreakerConfig, CircuitBreaker};
use hpcc_sim::{
    Bytes, CrashInjector, DomainSchedule, DomainTopology, FaultInjector, MetricsRegistry,
    OutageEvent, OutageKind, QueueServer, RetryPolicy, SimSpan, SimTime, Stage,
};
use hpcc_storage::p2p::{
    broadcast_tree_from_seeds_gated, DistributionTree, TreeSpec, TREE_REPAIR_LATENCY,
};
use std::sync::Arc;

/// Fleet size every scenario runs at.
pub const NODES: usize = 1024;

/// The correlated outages swept (each is one [`OutageKind`] striking
/// domain 0 of its tier).
pub const SCENARIOS: &[&str] = &["rack-power", "row-partition", "origin-overload"];

/// Resilience modes swept per scenario.
pub const MODES: &[&str] = &["none", "breakers"];

/// The outage window: strikes at 60 s, timed recovery at 120 s.
pub const OUTAGE_FROM: SimSpan = SimSpan(60_000_000_000);
/// Outage duration (heal = [`OUTAGE_FROM`] + [`OUTAGE_LEN`]).
pub const OUTAGE_LEN: SimSpan = SimSpan(60_000_000_000);

/// Post-heal recovery budget: the slowest recovery-wave pull of a
/// resilient row must land within this span of the heal instant.
pub const RECOVERY_CEILING: SimSpan = SimSpan(5_000_000_000);

fn outage_from() -> SimTime {
    SimTime::ZERO + OUTAGE_FROM
}

fn heal_at() -> SimTime {
    outage_from() + OUTAGE_LEN
}

// ----------------------------------------------------------- mirror replica

/// Mirror round-trip floor.
const MIRROR_RTT: SimSpan = SimSpan(2_000_000); // 2 ms
/// Mirror egress bandwidth per slot.
const MIRROR_BANDWIDTH_BPS: f64 = (1u64 << 30) as f64; // 1 GiB/s
/// Concurrent transfers the mirror serves.
const MIRROR_SLOTS: usize = 16;

/// One whole-image fetch from the always-on mirror replica. The mirror
/// is deliberately *slower* than a healthy tiered pull (it is a shared
/// queue sized for failover, not for the whole fleet), so falling back
/// has a visible cost the latency percentiles expose.
fn mirror_pull(mirror: &QueueServer, image: &ImageSpec, at: SimTime) -> SimTime {
    let xfer = SimSpan::from_secs_f64(image.total_bytes() as f64 / MIRROR_BANDWIDTH_BPS);
    let (_, fin) = mirror.submit(at + MIRROR_RTT, xfer);
    fin
}

// ------------------------------------------------------------ measurements

/// One (scenario, mode) cell. All times are logical ns.
#[derive(Debug, Clone)]
pub struct ChaosRow {
    /// Scenario label (see [`SCENARIOS`]).
    pub scenario: &'static str,
    /// Resilience mode (see [`MODES`]).
    pub mode: &'static str,
    /// Fleet size.
    pub nodes: usize,
    /// Pulls attempted across the outage + recovery waves (dead-rack
    /// skips excluded).
    pub pulls: u64,
    /// Pulls that delivered bytes (any path: primary, retry, mirror).
    pub ok: u64,
    /// Pulls that delivered nothing after every configured fallback.
    pub failed: u64,
    /// Retry ladders that exhausted their budget (before mirror
    /// fallback; a resilient row converts these into `mirror_fallbacks`).
    pub gave_up: u64,
    /// Wave slots skipped because the node itself was dead.
    pub down_skipped: u64,
    /// Requests the origin admission queue shed during the overload.
    pub shed: u64,
    /// Pulls served by the mirror after a give-up or open breaker.
    pub mirror_fallbacks: u64,
    /// Pulls short-circuited by an open breaker (subset of
    /// `mirror_fallbacks`).
    pub breaker_rejects: u64,
    /// Median pull latency over the outage + recovery waves.
    pub p50_ns: u64,
    /// p95 pull latency over the outage + recovery waves.
    pub p95_ns: u64,
    /// Slowest recovery-wave completion, measured from the heal instant.
    pub recovery_ns: u64,
}

/// The rack-scale P2P repair measurement: one rack dies mid-broadcast,
/// its subtrees are rewired in one pass, and the dead nodes rejoin as
/// leaves once the domain heals.
#[derive(Debug, Clone)]
pub struct TreeRehealRow {
    /// Fleet size.
    pub nodes: usize,
    /// Nodes killed by the outage (one rack).
    pub dead: usize,
    /// Repairs the broadcast performed (must equal `dead`).
    pub repairs: u64,
    /// Live subtree edges rewired by the whole-subtree repair pass.
    pub rewired_edges: u64,
    /// When the rack's power came back.
    pub heal_ns: u64,
    /// Slowest completion among the re-attached (previously dead) nodes.
    pub reattach_done_ns: u64,
    /// When the whole fleet finished.
    pub all_done_ns: u64,
}

/// Everything one full run produces.
#[derive(Debug, Clone)]
pub struct ChaosResults {
    /// The scenario × mode sweep.
    pub cells: Vec<ChaosRow>,
    /// The mid-broadcast tree repair measurement.
    pub tree: TreeRehealRow,
}

fn scenario_schedule(topo: DomainTopology, scenario: &str) -> DomainSchedule {
    let kind = match scenario {
        "rack-power" => OutageKind::RackPower { rack: 0 },
        "row-partition" => OutageKind::RowPartition { row: 0 },
        "origin-overload" => OutageKind::OriginOverload,
        other => panic!("unknown scenario {other}"),
    };
    DomainSchedule::new(
        topo,
        vec![OutageEvent {
            kind,
            from: outage_from(),
            until: heal_at(),
        }],
    )
}

#[derive(Debug, Default)]
struct Counters {
    pulls: u64,
    ok: u64,
    failed: u64,
    gave_up: u64,
    down_skipped: u64,
    mirror_fallbacks: u64,
    breaker_rejects: u64,
}

struct CellCtx<'a> {
    topo: &'a StormTopology,
    schedule: &'a DomainSchedule,
    faults: &'a FaultInjector,
    crash: &'a CrashInjector,
    mirror: &'a QueueServer,
    breaker: &'a CircuitBreaker,
    policy: &'a RetryPolicy,
    mode: &'static str,
}

/// One pull under the cell's resilience mode; `None` means no bytes were
/// delivered after every configured fallback.
fn pull_once(
    ctx: &CellCtx<'_>,
    node: usize,
    image: &ImageSpec,
    start: SimTime,
    c: &mut Counters,
) -> Option<SimTime> {
    if ctx.mode == "none" {
        return match ctx.topo.pull_image_sized(node, 0, image, start) {
            Ok((done, _)) => Some(done),
            Err(_) => None,
        };
    }
    let allowed = ctx
        .breaker
        .allow(ctx.faults, ctx.crash, start)
        .expect("no crash points armed in the bench");
    if !allowed {
        // Open breaker: skip the doomed retry ladder, go straight to the
        // mirror. This is the load-shedding half of the breaker's job.
        c.breaker_rejects += 1;
        c.mirror_fallbacks += 1;
        return Some(mirror_pull(ctx.mirror, image, start));
    }
    let run = ctx.policy.run_timed(
        ctx.faults,
        "chaos.pull",
        Stage::Pull,
        start,
        RegistryError::is_transient,
        |_attempt, at| {
            ctx.topo
                .pull_image_sized(node, 0, image, at)
                .map(|(done, _)| ((), done))
        },
    );
    // A registry error is never a process death.
    ctx.breaker.settle(ctx.faults, &run, |_| false);
    match run {
        Ok(ok) => Some(ok.done),
        Err(err) => {
            if err.gave_up {
                c.gave_up += 1;
            }
            c.mirror_fallbacks += 1;
            Some(mirror_pull(ctx.mirror, image, err.at))
        }
    }
}

/// One fleet sweep: every live node pulls its rack's image, staggered
/// 1 ms apart from `base`. Breaker state evolves in (wave, node)
/// processing order — a deliberate determinism choice that models the
/// fleet sharing one breaker view.
#[allow(clippy::too_many_arguments)]
fn run_wave(
    ctx: &CellCtx<'_>,
    nodes: usize,
    images: &[ImageSpec],
    base: SimTime,
    measure_recovery_from: Option<SimTime>,
    lat: &mut Vec<u64>,
    c: &mut Counters,
    recovery_ns: &mut u64,
) {
    let rack_size = ctx.schedule.topology().rack_size;
    for node in 0..nodes {
        let start = base + SimSpan::millis(node as u64);
        if ctx.schedule.node_down(node, start) {
            c.down_skipped += 1;
            continue;
        }
        c.pulls += 1;
        let image = &images[node / rack_size];
        match pull_once(ctx, node, image, start, c) {
            Some(done) => {
                c.ok += 1;
                lat.push(done.since(start).as_nanos());
                if let Some(heal) = measure_recovery_from {
                    *recovery_ns = (*recovery_ns).max(done.since(heal).as_nanos());
                }
            }
            None => c.failed += 1,
        }
    }
}

/// Per-rack fresh images so every rack leader must fetch cold content
/// through the hierarchy — a warm shared image would let the tiers hide
/// the outage entirely.
fn rack_images(scenario: &str, wave: &str, racks: usize) -> Vec<ImageSpec> {
    (0..racks)
        .map(|r| {
            ImageSpec::synthetic(
                &format!("chaos/{scenario}/{wave}/rack{r}"),
                4,
                Bytes::mib(256),
            )
        })
        .collect()
}

fn run_cell(nodes: usize, scenario: &'static str, mode: &'static str, seed: u64) -> ChaosRow {
    let domain = DomainTopology::default_for(nodes);
    let schedule = Arc::new(scenario_schedule(domain, scenario));
    let faults = Arc::new(FaultInjector::new(seed, schedule.fault_rules()));
    let crash = CrashInjector::disabled();
    let topo = StormTopology::new(StormConfig::default_for(nodes));
    topo.set_domain_schedule(
        Arc::clone(&schedule),
        Arc::clone(&faults),
        Arc::clone(&crash),
    );
    let mirror = QueueServer::new(MIRROR_SLOTS);
    let breaker = CircuitBreaker::new("origin", BreakerConfig::default());
    // A short ladder: three attempts, half-second base backoff. Anything
    // the ladder cannot save inside ~20 s belongs on the mirror.
    let policy = RetryPolicy {
        max_attempts: 3,
        base_backoff: SimSpan(500_000_000),
        max_backoff: SimSpan(4_000_000_000),
        multiplier: 2.0,
        jitter: 0.0,
        deadline: SimSpan(20_000_000_000),
        attempt_timeout: None,
    };
    let ctx = CellCtx {
        topo: &topo,
        schedule: &schedule,
        faults: &faults,
        crash: &crash,
        mirror: &mirror,
        breaker: &breaker,
        policy: &policy,
        mode,
    };

    // Wave 1 (not measured): a shared warm image fills the tiers before
    // the outage lands, so the chaos waves measure outage response, not
    // cold-start noise.
    let warm = ImageSpec::synthetic(&format!("chaos/{scenario}/warm"), 4, Bytes::mib(256));
    for node in 0..nodes {
        let at = SimTime::ZERO + SimSpan::millis(1 + node as u64);
        topo.pull_image_sized(node, 0, &warm, at)
            .expect("warmup runs before the outage");
    }

    let racks = domain.racks();
    let mut lat = Vec::with_capacity(nodes * 2);
    let mut c = Counters::default();
    let mut recovery_ns = 0u64;

    // Wave 2 (mid-outage): fresh per-rack images one second into the
    // outage window.
    let w2 = rack_images(scenario, "w2", racks);
    run_wave(
        &ctx,
        nodes,
        &w2,
        outage_from() + SimSpan::secs(1),
        None,
        &mut lat,
        &mut c,
        &mut recovery_ns,
    );

    // Wave 3 (recovery): fresh per-rack images at the heal instant; the
    // slowest completion minus the heal instant is the recovery time the
    // gate bounds.
    let w3 = rack_images(scenario, "w3", racks);
    run_wave(
        &ctx,
        nodes,
        &w3,
        heal_at(),
        Some(heal_at()),
        &mut lat,
        &mut c,
        &mut recovery_ns,
    );

    lat.sort_unstable();
    ChaosRow {
        scenario,
        mode,
        nodes,
        pulls: c.pulls,
        ok: c.ok,
        failed: c.failed,
        gave_up: c.gave_up,
        down_skipped: c.down_skipped,
        shed: topo.metrics().get("storm.origin.shed"),
        mirror_fallbacks: c.mirror_fallbacks,
        breaker_rejects: c.breaker_rejects,
        p50_ns: percentile(&lat, 0.50),
        p95_ns: percentile(&lat, 0.95),
        recovery_ns,
    }
}

/// One rack dies the moment a 1024-node tree broadcast starts; the gated
/// broadcast must rewire its live subtrees in a single whole-subtree
/// pass and serve the re-attached nodes only after the rack heals.
fn tree_reheal() -> TreeRehealRow {
    const N: usize = 1024;
    let image = ImageSpec::synthetic("chaos/tree/reheal", 4, Bytes::mib(256));
    let topo = StormTopology::new(StormConfig::default_for(N));
    let tree = DistributionTree::build(
        N,
        TreeSpec {
            seeds: 4,
            ..TreeSpec::default()
        },
    );
    let (_, seed_chunk_done) = seed_pulls(&topo, &tree, &image);

    // Rack 1 loses power (rack 0 holds seed roots, which repair
    // protects); it heals two seconds in.
    let domain = DomainTopology::default_for(N);
    let sched = DomainSchedule::new(
        domain,
        vec![OutageEvent {
            kind: OutageKind::RackPower { rack: 1 },
            from: SimTime::ZERO,
            until: SimTime::ZERO + SimSpan::secs(2),
        }],
    );
    let dead_nodes = sched.dead_nodes(SimTime::ZERO);
    let heal = sched.heal_time(SimTime::ZERO).expect("outage is active");

    // The broadcast kills *positions*; invert the tree's node assignment.
    let mut pos_of_node = vec![0usize; N];
    for (pos, &node) in tree.assignments().iter().enumerate() {
        pos_of_node[node] = pos;
    }
    let dead_positions: Vec<usize> = dead_nodes.iter().map(|&n| pos_of_node[n]).collect();

    let ids: Vec<NodeId> = (0..N as u32).map(NodeId).collect();
    let fabric = Fabric::with_defaults(ids.iter().copied());
    let metrics = MetricsRegistry::new();
    let disabled = Tracer::disabled();
    let report = broadcast_tree_from_seeds_gated(
        &fabric,
        Bytes::new(image.total_bytes()),
        &ids,
        &tree,
        &seed_chunk_done,
        SimTime::ZERO,
        &FaultInjector::disabled(),
        &disabled,
        &metrics,
        Some((&dead_positions, heal)),
    );
    let reattach_done = dead_nodes
        .iter()
        .map(|&n| report.per_node_done[n])
        .max()
        .expect("dead rack is non-empty");
    TreeRehealRow {
        nodes: N,
        dead: dead_nodes.len(),
        repairs: report.repairs,
        rewired_edges: metrics.get("p2p.tree.outage_rewired"),
        heal_ns: heal.as_nanos(),
        reattach_done_ns: reattach_done.as_nanos(),
        all_done_ns: report.all_done.as_nanos(),
    }
}

// ------------------------------------------------------------------ gates

fn cell<'a>(results: &'a ChaosResults, scenario: &str, mode: &str) -> Option<&'a ChaosRow> {
    results
        .cells
        .iter()
        .find(|r| r.scenario == scenario && r.mode == mode)
}

// ----------------------------------------------------------------- render

fn render_cell(r: &ChaosRow) -> Json {
    Json::obj([
        ("scenario", Json::Str(r.scenario.to_string())),
        ("mode", Json::Str(r.mode.to_string())),
        ("nodes", Json::Num(r.nodes as f64)),
        ("pulls", Json::Num(r.pulls as f64)),
        ("ok", Json::Num(r.ok as f64)),
        ("failed", Json::Num(r.failed as f64)),
        ("gave_up", Json::Num(r.gave_up as f64)),
        ("down_skipped", Json::Num(r.down_skipped as f64)),
        ("shed", Json::Num(r.shed as f64)),
        ("mirror_fallbacks", Json::Num(r.mirror_fallbacks as f64)),
        ("breaker_rejects", Json::Num(r.breaker_rejects as f64)),
        ("p50_ns", Json::Num(r.p50_ns as f64)),
        ("p95_ns", Json::Num(r.p95_ns as f64)),
        ("recovery_ns", Json::Num(r.recovery_ns as f64)),
    ])
}

/// Render results as the BENCH_chaos.json document.
fn render(results: &ChaosResults) -> Json {
    let t = &results.tree;
    Json::obj([
        ("schema", Json::Str("hpcc-bench-chaos/v1".to_string())),
        ("nodes", Json::Num(NODES as f64)),
        (
            "outage",
            Json::obj([
                ("from_ns", Json::Num(OUTAGE_FROM.0 as f64)),
                ("len_ns", Json::Num(OUTAGE_LEN.0 as f64)),
            ]),
        ),
        (
            "cells",
            Json::Arr(results.cells.iter().map(render_cell).collect()),
        ),
        (
            "tree",
            Json::obj([
                ("nodes", Json::Num(t.nodes as f64)),
                ("dead", Json::Num(t.dead as f64)),
                ("repairs", Json::Num(t.repairs as f64)),
                ("rewired_edges", Json::Num(t.rewired_edges as f64)),
                ("heal_ns", Json::Num(t.heal_ns as f64)),
                ("reattach_done_ns", Json::Num(t.reattach_done_ns as f64)),
                ("all_done_ns", Json::Num(t.all_done_ns as f64)),
            ]),
        ),
    ])
}

/// `bench chaos`.
pub struct Chaos;

impl harness::Suite for Chaos {
    const NAME: &'static str = "chaos";
    const GOLDEN: Option<harness::Render<Self::Results>> = Some(render);
    type Results = ChaosResults;

    /// Run the full scenario × mode sweep plus the tree-repair cell. Pure
    /// logical time: identical output every run.
    fn run() -> ChaosResults {
        let mut cells = Vec::with_capacity(SCENARIOS.len() * MODES.len());
        for (si, scenario) in SCENARIOS.iter().enumerate() {
            for (mi, mode) in MODES.iter().enumerate() {
                let seed = 0xC4A0_5EED ^ ((si as u64) << 8) ^ mi as u64;
                cells.push(run_cell(NODES, scenario, mode, seed));
            }
        }
        ChaosResults {
            cells,
            tree: tree_reheal(),
        }
    }

    /// The structural acceptance gates: real chaos in the `none` rows, zero
    /// give-ups and bounded recovery in the resilient rows, and exact
    /// rack-scale tree repair.
    fn gates(results: &ChaosResults) -> GateResult {
        let mut report = Vec::new();
        let mut errors = Vec::new();
        for &scenario in SCENARIOS {
            match cell(results, scenario, "none") {
                Some(none) => {
                    if none.failed + none.down_skipped == 0 {
                        errors.push(format!(
                            "{scenario}/none: no failed pulls and no dead nodes — the outage did nothing"
                        ));
                    } else {
                        report.push(format!(
                            "{scenario}/none: {} failed, {} dead-rack skips, {} shed (chaos is real)",
                            none.failed, none.down_skipped, none.shed
                        ));
                    }
                }
                None => errors.push(format!("{scenario}/none: row missing")),
            }
            for &mode in &MODES[1..] {
                let Some(r) = cell(results, scenario, mode) else {
                    errors.push(format!("{scenario}/{mode}: row missing"));
                    continue;
                };
                if r.failed > 0 {
                    errors.push(format!(
                        "{scenario}/{mode}: {} pulls delivered nothing while the mirror stayed reachable",
                        r.failed
                    ));
                } else {
                    report.push(format!(
                        "{scenario}/{mode}: {}/{} pulls ok ({} mirror fallbacks, {} breaker rejects)",
                        r.ok, r.pulls, r.mirror_fallbacks, r.breaker_rejects
                    ));
                }
                if r.recovery_ns == 0 {
                    errors.push(format!("{scenario}/{mode}: recovery wave measured nothing"));
                } else if r.recovery_ns > RECOVERY_CEILING.0 {
                    errors.push(format!(
                        "{scenario}/{mode}: recovery took {:.1} s, above the {:.1} s ceiling",
                        r.recovery_ns as f64 / 1e9,
                        RECOVERY_CEILING.0 as f64 / 1e9
                    ));
                } else {
                    report.push(format!(
                        "{scenario}/{mode}: recovered {:.2} s after heal (ceiling {:.0} s)",
                        r.recovery_ns as f64 / 1e9,
                        RECOVERY_CEILING.0 as f64 / 1e9
                    ));
                }
            }
        }
        let t = &results.tree;
        if t.repairs != t.dead as u64 {
            errors.push(format!(
                "tree: {} repairs for {} dead nodes — repair is not rack-scale",
                t.repairs, t.dead
            ));
        }
        if t.rewired_edges == 0 {
            errors.push(
                "tree: no subtree edges rewired — the dead rack held no subtrees".to_string(),
            );
        }
        if t.reattach_done_ns < t.heal_ns + TREE_REPAIR_LATENCY.0 {
            errors.push(format!(
                "tree: a dead node finished {} ns after start, before heal+repair at {} ns",
                t.reattach_done_ns,
                t.heal_ns + TREE_REPAIR_LATENCY.0
            ));
        }
        if errors.is_empty() {
            report.push(format!(
                "tree: {} dead repaired in one pass ({} edges rewired), re-attached nodes served {:.2} s after heal",
                t.dead,
                t.rewired_edges,
                (t.reattach_done_ns - t.heal_ns) as f64 / 1e9
            ));
            Ok(report)
        } else {
            Err(errors)
        }
    }

    /// The game-day recovery table of EXPERIMENTS.md.
    fn table(results: &ChaosResults) -> Vec<Vec<String>> {
        let ms = |ns: u64| format!("{:.1} ms", ns as f64 / 1e6);
        let header = [
            "scenario", "mode", "pulls", "failed", "shed", "mirror", "p50", "p95", "recovery",
        ];
        let row = |r: &ChaosRow| {
            [
                r.scenario.to_string(),
                r.mode.to_string(),
                r.pulls.to_string(),
                r.failed.to_string(),
                r.shed.to_string(),
                r.mirror_fallbacks.to_string(),
                ms(r.p50_ns),
                ms(r.p95_ns),
                format!("{:.2} s", r.recovery_ns as f64 / 1e9),
            ]
        };
        harness::table(header, results.cells.iter().map(row))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scaled-down cells: the `none` row must bleed under every
    /// scenario, and the breaker row must absorb all of it.
    #[test]
    fn resilient_modes_absorb_every_scenario() {
        for (i, &scenario) in SCENARIOS.iter().enumerate() {
            let none = run_cell(256, scenario, "none", 1000 + i as u64);
            assert!(
                none.failed + none.down_skipped > 0,
                "{scenario}/none: outage had no effect"
            );
            let res = run_cell(256, scenario, "breakers", 2000 + i as u64);
            assert_eq!(res.failed, 0, "{scenario}/breakers left pulls unserved");
            assert_eq!(res.ok, res.pulls);
            assert!(res.recovery_ns > 0, "{scenario}: recovery not measured");
        }
    }

    /// Breakers convert doomed retry ladders into cheap short-circuits:
    /// once tripped, later pulls are rejected at the breaker rather than
    /// burning a full ladder each.
    #[test]
    fn breaker_sheds_retry_ladders_during_the_outage() {
        let r = run_cell(256, "row-partition", "breakers", 11);
        assert!(
            r.gave_up > 0,
            "some ladders must exhaust to trip the breaker"
        );
        assert!(
            r.breaker_rejects > r.gave_up,
            "most of the fleet should short-circuit (rejects {} vs give-ups {})",
            r.breaker_rejects,
            r.gave_up
        );
    }

    #[test]
    fn two_runs_render_identical_documents() {
        let a = run_cell(64, "rack-power", "breakers", 42);
        let b = run_cell(64, "rack-power", "breakers", 42);
        assert_eq!(render_cell(&a).render(), render_cell(&b).render());
        let ta = tree_reheal();
        let tb = tree_reheal();
        assert_eq!(ta.reattach_done_ns, tb.reattach_done_ns);
        assert_eq!(ta.rewired_edges, tb.rewired_edges);
    }

    #[test]
    fn tree_reheal_repairs_exactly_the_dead_rack() {
        let t = tree_reheal();
        assert_eq!(t.dead, 16, "one 16-node rack dies");
        assert_eq!(t.repairs, 16, "one repair per dead node, in one pass");
        assert!(t.rewired_edges > 0);
        assert!(
            t.reattach_done_ns >= t.heal_ns + TREE_REPAIR_LATENCY.0,
            "no chunk may land on a dead node before its rack heals"
        );
        assert!(t.all_done_ns >= t.reattach_done_ns);
    }
}
