//! Regenerate Figure 1: "Principle of running Kubernetes Kubelets
//! dynamically within a WLM job allocation" — the §6.5 proof of concept.
//!
//! A standing control plane runs on a service node; a Slurm allocation
//! boots rootless kubelets on its compute nodes, which join the cluster
//! over the high-speed network; pods then run transparently on the
//! allocation with full WLM accounting.

use hpcc_core::scenarios::common::{ClusterConfig, MixedWorkload};
use hpcc_core::scenarios::kubelet_in_allocation;
use std::io::{self, Write};

pub fn run(out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "Figure 1 — Kubelets dynamically inside a WLM job allocation (§6.5 PoC)\n"
    )?;
    writeln!(
        out,
        "  +--------------------+        high-speed network         +----------------+"
    )?;
    writeln!(
        out,
        "  | standing K8s       |  <-- kubelet joins (measured) --  | Slurm job      |"
    )?;
    writeln!(
        out,
        "  | control plane      |  --- pod bindings / status ---->  |  allocation:   |"
    )?;
    writeln!(
        out,
        "  | (service node)     |                                   |  rootless      |"
    )?;
    writeln!(
        out,
        "  +--------------------+                                   |  kubelets      |"
    )?;
    writeln!(
        out,
        "                                                           +----------------+\n"
    )?;

    let cfg = ClusterConfig { nodes: 32 };
    let wl = MixedWorkload::generate(2023, 8, 24, &cfg);
    writeln!(
        out,
        "cluster: {} nodes x {} cores; workload: {} HPC jobs + {} pods\n",
        cfg.nodes,
        cfg.spec().cores,
        wl.jobs.len(),
        wl.pods.len()
    )?;

    let (outcome, joins) =
        kubelet_in_allocation::run_detailed(&cfg, &wl, &hpcc_sim::Tracer::disabled());

    writeln!(
        out,
        "kubelet → apiserver join over the HSN (1 MiB handshake each):"
    )?;
    for (i, j) in joins.iter().enumerate() {
        writeln!(out, "  agent-{i}: joined in {j}")?;
    }
    let max_join = joins.iter().max().copied().unwrap_or_default();
    writeln!(out, "  slowest join: {max_join}\n")?;

    writeln!(out, "outcome:")?;
    writeln!(
        out,
        "  first pod running     {}",
        outcome
            .first_pod_start
            .map(|s| s.to_string())
            .unwrap_or_else(|| "-".into())
    )?;
    writeln!(out, "  workload makespan     {}", outcome.makespan)?;
    writeln!(
        out,
        "  utilization           {:.1}%",
        outcome.utilization * 100.0
    )?;
    writeln!(
        out,
        "  WLM accounting        {:.0}% of all usage",
        outcome.accounting_coverage * 100.0
    )?;
    writeln!(
        out,
        "  pods                  {} succeeded, {} failed",
        outcome.pods_succeeded, outcome.pods_failed
    )?;
    writeln!(out, "  HPC jobs completed    {}", outcome.jobs_completed)?;
    writeln!(out, "\n  {}", outcome.notes)?;
    Ok(())
}
