//! A containerized workflow DAG executed on both recommended backends:
//! WLM jobs (the §6.4 bridge modality) and Kubernetes pods (the §6.5
//! agents-in-allocation modality) — same results, different scheduling.
//!
//! Run with: `cargo run -p hpcc-core --example workflow_orchestration`

use hpcc_adapt::cosim::World;
use hpcc_core::scenarios::common::MeasuredCri;
use hpcc_core::workflow::{run_on_k8s, run_on_wlm, Step, Workflow};
use hpcc_k8s::kubelet::KubeletMode;
use hpcc_sim::{SimSpan, Tracer};
use hpcc_wlm::types::NodeSpec;
use std::sync::Arc;

fn pipeline() -> Workflow {
    Workflow::new()
        .step(Step::new("fetch", "bio/fetch:v1", SimSpan::secs(45)).with_cores(4))
        .step(
            Step::new("align-1", "bio/align:v1", SimSpan::secs(240))
                .after("fetch")
                .with_cores(64),
        )
        .step(
            Step::new("align-2", "bio/align:v1", SimSpan::secs(240))
                .after("fetch")
                .with_cores(64),
        )
        .step(
            Step::new("qc", "bio/qc:v1", SimSpan::secs(90))
                .after("fetch")
                .with_cores(8),
        )
        .step(
            Step::new("merge", "bio/merge:v1", SimSpan::secs(60))
                .after("align-1")
                .after("align-2")
                .with_cores(16),
        )
        .step(
            Step::new("report", "bio/report:v1", SimSpan::secs(20))
                .after("merge")
                .after("qc")
                .with_cores(2),
        )
}

fn main() {
    let wf = pipeline();
    println!(
        "workflow: 6 steps, critical path {}\n",
        wf.critical_path().unwrap()
    );

    // One world, two backends: a two-node WLM partition beside a standing
    // control plane with two whole-node agents.
    let cri = Arc::new(MeasuredCri);
    let node = NodeSpec::cpu_node();
    let mut w = World::new("workflow", &Tracer::disabled(), cri, node, 2);

    // Backend 1: WLM jobs (bridge modality).
    let wlm_run = run_on_wlm(&wf, &mut w.slurm).unwrap();
    println!("== WLM backend (pods as shared-allocation jobs) ==");
    for r in &wlm_run.records {
        println!(
            "  {:<8} {} → {}",
            r.step,
            r.started.since(hpcc_sim::SimTime::ZERO),
            r.ended.since(hpcc_sim::SimTime::ZERO)
        );
    }
    println!("  makespan {}", wlm_run.makespan);
    println!(
        "  WLM accounted {:.0} core-seconds\n",
        w.slurm.ledger().user_core_seconds(2000)
    );

    // Backend 2: pods on kubelets (agents-in-allocation modality).
    let names = (0..2).map(|i| format!("agent-{i}"));
    let mut kubelets = w.boot_fleet(names, KubeletMode::Rootful);
    let k8s_run = run_on_k8s(&wf, &mut w.k8s, &mut kubelets, &w.clock).unwrap();
    println!("== Kubernetes backend (pods on allocation agents) ==");
    for r in &k8s_run.records {
        println!(
            "  {:<8} {} → {}",
            r.step,
            r.started.since(hpcc_sim::SimTime::ZERO),
            r.ended.since(hpcc_sim::SimTime::ZERO)
        );
    }
    println!("  makespan {}", k8s_run.makespan);

    println!(
        "\nboth backends honored the DAG; critical path {} is the floor.",
        wf.critical_path().unwrap()
    );
}
