//! Q11 (§6.1, §6.6 at site scale): the three partition policies over a
//! six-hour arrival window on 64 nodes — 400 batch jobs and 600 pods per
//! trace, one row per (trace shape × policy) cell.

use crate::adapt_suite::{run_cell, POLICIES};
use crate::tables::render_table;
use hpcc_adapt::traces::{generate, TraceConfig, TraceShape};
use hpcc_adapt::FixedCri;
use hpcc_sim::SimSpan;
use std::io::{self, Write};
use std::sync::Arc;

const NODES: u32 = 64;
const JOBS: usize = 400;
const PODS: usize = 600;
const TRACE_SEED: u64 = 2023;
const WINDOW: SimSpan = SimSpan(6 * 3600 * 1_000_000_000);
/// The static split queues jobs on half the cluster and needs most of a
/// day to drain what arrived in six hours; the controller's default
/// six-hour horizon would cut it off mid-queue.
const HORIZON: SimSpan = SimSpan(24 * 3600 * 1_000_000_000);

fn trace(shape: TraceShape) -> TraceConfig {
    TraceConfig {
        seed: TRACE_SEED,
        shape,
        duration: WINDOW,
        nodes: NODES,
        n_jobs: JOBS,
        n_pods: PODS,
        job_window: WINDOW,
    }
}

pub fn run(out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "Q11 — partition policies at site scale (§6.1 on-demand reallocation, §6.6 static split)\n"
    )?;
    writeln!(
        out,
        "cluster: {NODES} nodes; per trace: {JOBS} HPC jobs and {PODS} pods arriving over {:.0} h; \
         horizon {:.0} h\n",
        WINDOW.as_secs_f64() / 3600.0,
        HORIZON.as_secs_f64() / 3600.0
    )?;
    let shapes = [
        TraceShape::Bursty {
            bursts: 12,
            pods_per_burst: PODS as u32 / 12,
            spacing: SimSpan::secs(1800),
            first_at: SimSpan::secs(300),
        },
        TraceShape::Diurnal {
            period: SimSpan::secs(2 * 3600),
        },
        TraceShape::Poisson,
    ];
    let mut rows = vec![[
        "trace",
        "policy",
        "makespan",
        "combined",
        "wlm",
        "k8s",
        "p50 start",
        "p95 start",
        "reprov",
        "releases",
        "SLO misses",
        "decisions",
        "jobs",
        "pods",
    ]
    .map(String::from)
    .to_vec()];
    for shape in shapes {
        let workload = generate(&trace(shape));
        for policy in POLICIES {
            let cri = Arc::new(FixedCri(SimSpan::millis(1200)));
            let r = run_cell(policy, shape.label(), &workload, NODES, HORIZON, cri);
            let hours = |ns: u64| format!("{:.2} h", ns as f64 / 3.6e12);
            let pct = |x: f64| format!("{:.1}%", x * 100.0);
            let secs = |ns: u64| format!("{:.1} s", ns as f64 / 1e9);
            rows.push(vec![
                r.trace.to_string(),
                r.policy.to_string(),
                hours(r.makespan_ns),
                pct(r.combined_utilization),
                pct(r.wlm_utilization),
                pct(r.k8s_utilization),
                secs(r.p50_pod_start_ns),
                secs(r.p95_pod_start_ns),
                r.reprovisions.to_string(),
                r.releases.to_string(),
                r.slo_violations.to_string(),
                r.decisions.to_string(),
                format!("{}/{}", r.jobs_completed, workload.jobs.len()),
                format!("{}/{}", r.pods_succeeded, workload.pods.len()),
            ]);
        }
    }
    write!(out, "{}", render_table(&rows))?;
    writeln!(
        out,
        "\nThe static split strands half the cluster behind a job queue that takes twenty hours to"
    )?;
    writeln!(
        out,
        "drain; moving the boundary finishes the same trace in ten, at the price of reprovision"
    )?;
    writeln!(
        out,
        "cycles. On recurring bursts the forecasting policy's warm pool cuts p95 pod start sevenfold"
    )?;
    writeln!(
        out,
        "against the reactive policy and pays for it in idle agent time (the k8s column)."
    )?;
    Ok(())
}
