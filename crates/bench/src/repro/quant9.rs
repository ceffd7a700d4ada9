//! Q9 (§3.2): monitor daemons and OS-noise amplification in
//! bulk-synchronous jobs — "Spinning up a daemon on each compute node
//! ... is wasteful and may introduce extra jitter."

use hpcc_engine::caps::MonitorModel;
use hpcc_engine::engines;
use hpcc_sim::noise::{bsp_run, NoiseProfile};
use hpcc_sim::rng::DetRng;
use hpcc_sim::SimSpan;
use std::io::{self, Write};

fn profile_for(monitor: MonitorModel) -> (NoiseProfile, &'static str) {
    let base = NoiseProfile::quiet_node();
    match monitor {
        MonitorModel::PerMachineDaemon(_) => {
            (base.plus(NoiseProfile::per_machine_daemon()), "root daemon")
        }
        MonitorModel::PerContainer(_) => {
            (base.plus(NoiseProfile::per_container_monitor()), "conmon")
        }
        MonitorModel::None => (base, "none"),
    }
}

pub(crate) fn run(out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "Q9 — monitor-process jitter amplified by BSP barriers (§3.2)\n"
    )?;
    let iterations = 200;
    let compute = SimSpan::millis(5);

    writeln!(
        out,
        "slowdown vs noise-free execution (5 ms iterations x {iterations}):\n"
    )?;
    write!(out, "{:<16} {:<12}", "engine", "monitor")?;
    for ranks in [16usize, 64, 256, 1024] {
        write!(out, " {:>9}", format!("{ranks}r"))?;
    }
    writeln!(out)?;
    for engine in engines::all() {
        let (noise, label) = profile_for(engine.caps.monitor);
        write!(out, "{:<16} {:<12}", engine.info.name, label)?;
        for ranks in [16usize, 64, 256, 1024] {
            let mut rng = DetRng::seeded(42);
            let outcome = bsp_run(ranks, iterations, compute, noise, &mut rng);
            write!(out, " {:>8.3}x", outcome.slowdown())?;
        }
        writeln!(out)?;
    }

    writeln!(out, "\nablation: daemon wakeup rate at 1024 ranks")?;
    writeln!(out, "{:>14} {:>12} {:>12}", "events/s", "steal", "slowdown")?;
    for rate in [10.0, 30.0, 60.0, 120.0, 240.0] {
        let noise = NoiseProfile {
            events_per_sec: rate,
            event_duration: SimSpan::micros(40),
        };
        let mut rng = DetRng::seeded(42);
        let outcome = bsp_run(1024, iterations, compute, noise, &mut rng);
        writeln!(
            out,
            "{:>14} {:>11.3}% {:>11.3}x",
            rate,
            noise.steal_fraction() * 100.0,
            outcome.slowdown()
        )?;
    }
    writeln!(
        out,
        "\nNote how a <1% serial steal becomes a multi-percent slowdown at"
    )?;
    writeln!(out, "scale: the §3.2 argument for daemonless HPC engines.")?;
    Ok(())
}
