//! Q4 (§6.6): the five Kubernetes/WLM integration scenarios (plus a
//! static-partition baseline) on the same mixed workload — startup
//! overhead, makespan, utilization and accounting coverage.

use hpcc_core::scenarios::{self, ClusterConfig, MixedWorkload};
use std::io::{self, Write};

pub fn run(out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "Q4 — §6 integration scenarios under a mixed HPC+cloud workload\n"
    )?;
    let cfg = ClusterConfig { nodes: 32 };
    let wl = MixedWorkload::generate(2023, 10, 40, &cfg);
    writeln!(
        out,
        "cluster: {} nodes x {} cores; workload: {} HPC jobs, {} pods\n",
        cfg.nodes,
        cfg.spec().cores,
        wl.jobs.len(),
        wl.pods.len()
    )?;
    let outcomes = scenarios::run_all(&cfg, &wl);
    write!(out, "{}", scenarios::render_outcomes(&outcomes))?;
    writeln!(out)?;
    for o in &outcomes {
        writeln!(out, "{:<26} {}", o.name, o.notes)?;
    }

    writeln!(
        out,
        "\nablation: pod-heavy vs job-heavy mixes (accounting coverage)"
    )?;
    writeln!(
        out,
        "{:<26} {:>10} {:>10}",
        "scenario", "pod-heavy", "job-heavy"
    )?;
    let pod_heavy = MixedWorkload::generate(7, 4, 60, &cfg);
    let job_heavy = MixedWorkload::generate(7, 16, 8, &cfg);
    let a = scenarios::run_all(&cfg, &pod_heavy);
    let b = scenarios::run_all(&cfg, &job_heavy);
    for (x, y) in a.iter().zip(&b) {
        writeln!(
            out,
            "{:<26} {:>9.0}% {:>9.0}%",
            x.name,
            x.accounting_coverage * 100.0,
            y.accounting_coverage * 100.0
        )?;
    }
    Ok(())
}
