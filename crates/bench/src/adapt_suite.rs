//! Policy × trace sweep for the adaptive partition control plane, behind
//! `bench adapt` and the CI `bench-adapt` stage.
//!
//! Each of the three shipped policies (static carve-out, queue-threshold
//! reaction, EWMA forecasting with a warm pool) runs over each of the
//! three trace shapes (bursty, diurnal, Poisson) on the same 16-node
//! cluster, charging the measured container-startup cost per pod.
//!
//! Everything runs on the logical clock with seeded traces, so two sweeps
//! of the same tree produce byte-identical JSON and `--check` holds the
//! sweep to the checked-in `BENCH_adapt.json` byte for byte — any drift
//! is a timing-model change, and must come with a `--bless`.

use crate::harness::{self, GateResult};
use crate::json::Json;
use hpcc_adapt::presets;
use hpcc_adapt::traces::{generate, TraceConfig, TraceShape};
use hpcc_adapt::{RunSpec, TimedWorkload};
use hpcc_core::scenarios::common::{MeasuredCri, HORIZON};
use hpcc_k8s::kubelet::CriRuntime;
use hpcc_sim::{FaultInjector, SimSpan, Tracer};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Cluster width every sweep configuration uses.
pub const NODES: u32 = 16;

/// Seed the trace generator runs on.
pub const TRACE_SEED: u64 = 2024;

/// Policy names in sweep order.
pub const POLICIES: [&str; 3] = ["static", "queue-threshold", "ewma-forecast"];

/// Trace-shape labels in sweep order.
pub const TRACES: [&str; 3] = ["bursty", "diurnal", "poisson"];

/// The canonical trace of one shape: 16 nodes, ~30 pods over an hour,
/// twelve front-loaded batch jobs as WLM backdrop. The job pressure is
/// deliberately above what half the cluster can absorb (~18–30 node-peak
/// demand against static's 8 WLM nodes) so a fixed split queues jobs and
/// the utilization cost of stranded capacity is visible in the sweep.
pub fn trace_config(shape_label: &str) -> TraceConfig {
    let shape = match shape_label {
        "bursty" => TraceShape::Bursty {
            bursts: 3,
            pods_per_burst: 10,
            spacing: SimSpan::secs(1200),
            first_at: SimSpan::secs(180),
        },
        "diurnal" => TraceShape::Diurnal {
            period: SimSpan::secs(1800),
        },
        "poisson" => TraceShape::Poisson,
        other => panic!("unknown trace shape `{other}` (expected one of {TRACES:?})"),
    };
    TraceConfig {
        seed: TRACE_SEED,
        shape,
        duration: SimSpan::secs(3600),
        nodes: NODES,
        n_jobs: 20,
        n_pods: 30,
        job_window: SimSpan::secs(600),
    }
}

/// One (policy × trace) measurement.
#[derive(Debug, Clone)]
pub struct AdaptRun {
    pub policy: &'static str,
    pub trace: &'static str,
    pub makespan_ns: u64,
    pub work_makespan_ns: u64,
    pub combined_utilization: f64,
    pub wlm_utilization: f64,
    pub k8s_utilization: f64,
    pub p50_pod_start_ns: u64,
    pub p95_pod_start_ns: u64,
    pub reprovisions: u32,
    pub releases: u32,
    pub slo_violations: usize,
    pub pods_succeeded: usize,
    pub pods_failed: usize,
    pub jobs_completed: usize,
    pub decisions: usize,
}

/// The controller preset behind one of [`POLICIES`], on `nodes` nodes.
pub fn preset(
    policy: &str,
    nodes: u32,
) -> (
    Box<dyn hpcc_adapt::PartitionPolicy>,
    hpcc_adapt::ControllerConfig,
) {
    match policy {
        "static" => presets::static_partition(nodes),
        "queue-threshold" => presets::on_demand_reallocation(nodes),
        "ewma-forecast" => presets::ewma_forecast(nodes, SimSpan::secs(300), 2),
        other => panic!("unknown policy `{other}` (expected one of {POLICIES:?})"),
    }
}

/// Run one (policy × trace) configuration from scratch.
pub fn run_config(policy: &'static str, trace: &'static str) -> AdaptRun {
    let workload = generate(&trace_config(trace));
    run_cell(
        policy,
        trace,
        &workload,
        NODES,
        HORIZON,
        Arc::new(MeasuredCri),
    )
}

/// One cell of a sweep, whatever its size: `policy`'s preset on `nodes`
/// nodes over `workload` (labelled `trace`), stopped at `horizon`.
pub fn run_cell(
    policy: &'static str,
    trace: &'static str,
    workload: &TimedWorkload,
    nodes: u32,
    horizon: SimSpan,
    cri: Arc<dyn CriRuntime>,
) -> AdaptRun {
    let (p, mut config) = preset(policy, nodes);
    config.horizon = horizon;
    let out = hpcc_adapt::run(RunSpec {
        workload,
        policy: p,
        config,
        cri,
        tracer: Tracer::disabled(),
        faults: FaultInjector::disabled(),
        domains: None,
        scenario: "adapt_cell",
    });
    AdaptRun {
        policy,
        trace,
        makespan_ns: out.makespan.0,
        work_makespan_ns: out.work_makespan.0,
        combined_utilization: out.combined_utilization,
        wlm_utilization: out.wlm_utilization,
        k8s_utilization: out.k8s_utilization,
        p50_pod_start_ns: out.p50_pod_start.map_or(0, |s| s.0),
        p95_pod_start_ns: out.p95_pod_start.map_or(0, |s| s.0),
        reprovisions: out.reprovisions,
        releases: out.releases,
        slo_violations: out.slo_violations,
        pods_succeeded: out.pods_succeeded,
        pods_failed: out.pods_failed,
        jobs_completed: out.jobs_completed,
        decisions: out.decisions.len(),
    }
}

/// Run the full sweep: every policy over every trace shape.
pub fn run_suite() -> Vec<AdaptRun> {
    let mut runs = Vec::new();
    for trace in TRACES {
        for policy in POLICIES {
            runs.push(run_config(policy, trace));
        }
    }
    runs
}

fn round6(x: f64) -> f64 {
    (x * 1e6).round() / 1e6
}

/// Render a sweep as the JSON document written to `BENCH_adapt.json`.
pub fn render(runs: &[AdaptRun]) -> Json {
    let run_objs: Vec<Json> = runs
        .iter()
        .map(|r| {
            Json::obj([
                ("policy", Json::Str(r.policy.into())),
                ("trace", Json::Str(r.trace.into())),
                ("makespan_ns", Json::Num(r.makespan_ns as f64)),
                ("work_makespan_ns", Json::Num(r.work_makespan_ns as f64)),
                (
                    "combined_utilization",
                    Json::Num(round6(r.combined_utilization)),
                ),
                ("wlm_utilization", Json::Num(round6(r.wlm_utilization))),
                ("k8s_utilization", Json::Num(round6(r.k8s_utilization))),
                ("p50_pod_start_ns", Json::Num(r.p50_pod_start_ns as f64)),
                ("p95_pod_start_ns", Json::Num(r.p95_pod_start_ns as f64)),
                ("reprovisions", Json::Num(r.reprovisions as f64)),
                ("releases", Json::Num(r.releases as f64)),
                ("slo_violations", Json::Num(r.slo_violations as f64)),
                ("pods_succeeded", Json::Num(r.pods_succeeded as f64)),
                ("pods_failed", Json::Num(r.pods_failed as f64)),
                ("jobs_completed", Json::Num(r.jobs_completed as f64)),
                ("decisions", Json::Num(r.decisions as f64)),
            ])
        })
        .collect();
    let summary: BTreeMap<String, Json> = TRACES
        .iter()
        .map(|trace| {
            let per_policy: BTreeMap<String, Json> = runs
                .iter()
                .filter(|r| r.trace == *trace)
                .map(|r| {
                    (
                        r.policy.to_string(),
                        Json::obj([
                            (
                                "combined_utilization",
                                Json::Num(round6(r.combined_utilization)),
                            ),
                            ("p95_pod_start_ns", Json::Num(r.p95_pod_start_ns as f64)),
                        ]),
                    )
                })
                .collect();
            (trace.to_string(), Json::Obj(per_policy))
        })
        .collect();
    Json::obj([
        ("schema", Json::Str("hpcc-adapt-bench/v1".into())),
        ("nodes", Json::Num(NODES as f64)),
        ("trace_seed", Json::Num(TRACE_SEED as f64)),
        ("runs", Json::Arr(run_objs)),
        ("summary", Json::Obj(summary)),
    ])
}

/// Structural sanity of a fresh sweep, independent of any golden: the
/// acceptance properties of the adaptive control plane itself.
pub fn structural_check(runs: &[AdaptRun]) -> GateResult {
    let mut errors = Vec::new();
    let mut report = Vec::new();
    let find = |p: &str, t: &str| runs.iter().find(|r| r.policy == p && r.trace == t);
    for r in runs {
        if r.pods_failed > 0 || r.pods_succeeded == 0 {
            errors.push(format!(
                "{}@{}: workload did not complete ({} ok, {} failed)",
                r.policy, r.trace, r.pods_succeeded, r.pods_failed
            ));
        }
    }
    if let (Some(ewma), Some(stat), Some(qt)) = (
        find("ewma-forecast", "bursty"),
        find("static", "bursty"),
        find("queue-threshold", "bursty"),
    ) {
        if ewma.combined_utilization <= stat.combined_utilization {
            errors.push(format!(
                "bursty: ewma-forecast combined utilization ({:.4}) must beat static ({:.4})",
                ewma.combined_utilization, stat.combined_utilization
            ));
        }
        if ewma.p95_pod_start_ns >= qt.p95_pod_start_ns {
            errors.push(format!(
                "bursty: ewma-forecast p95 pod start ({} ns) must beat queue-threshold ({} ns) — \
                 the warm pool exists to absorb recurring bursts",
                ewma.p95_pod_start_ns, qt.p95_pod_start_ns
            ));
        }
        report.push(format!(
            "bursty: ewma-forecast utilization {:.4} vs static {:.4}, p95 pod start {} ns vs \
             queue-threshold {} ns",
            ewma.combined_utilization,
            stat.combined_utilization,
            ewma.p95_pod_start_ns,
            qt.p95_pod_start_ns
        ));
    } else {
        errors.push("bursty sweep is missing a policy".into());
    }
    harness::verdict(report, errors)
}

/// `bench adapt`.
pub struct Adapt;

impl harness::Suite for Adapt {
    const NAME: &'static str = "adapt";
    const GOLDEN: Option<harness::Render<Self::Results>> = Some(|rows| render(rows));
    type Results = Vec<AdaptRun>;

    fn run() -> Vec<AdaptRun> {
        run_suite()
    }

    fn gates(runs: &Vec<AdaptRun>) -> GateResult {
        structural_check(runs)
    }

    fn table(runs: &Vec<AdaptRun>) -> Vec<Vec<String>> {
        let secs = |ns: u64, digits: usize| format!("{:.digits$} s", ns as f64 / 1e9);
        let pct = |x: f64| format!("{:.1}%", x * 100.0);
        let header = [
            "policy",
            "trace",
            "makespan",
            "combined util",
            "k8s util",
            "p50 pod start",
            "p95 pod start",
            "reprovisions",
            "SLO misses",
        ];
        harness::table(
            header,
            runs.iter().map(|r| {
                [
                    r.policy.to_string(),
                    r.trace.to_string(),
                    secs(r.makespan_ns, 1),
                    pct(r.combined_utilization),
                    pct(r.k8s_utilization),
                    secs(r.p50_pod_start_ns, 3),
                    secs(r.p95_pod_start_ns, 3),
                    r.reprovisions.to_string(),
                    r.slo_violations.to_string(),
                ]
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_cell_is_deterministic() {
        let a = run_config("queue-threshold", "bursty");
        let b = run_config("queue-threshold", "bursty");
        assert_eq!(a.makespan_ns, b.makespan_ns);
        assert_eq!(a.p95_pod_start_ns, b.p95_pod_start_ns);
        assert_eq!(a.reprovisions, b.reprovisions);
        assert_eq!(a.decisions, b.decisions);
    }
}
