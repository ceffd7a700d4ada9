//! Q7: end-to-end engine deployment latency (pull → convert → launch),
//! cold and warm cache, for every engine — the synthesis of Section 4's
//! architecture differences.

use crate::workloads::site_registry_with_samples;
use hpcc_engine::engine::{DeployRequest, Host};
use hpcc_engine::engines;
use hpcc_sim::SimClock;
use std::io::{self, Write};

pub(crate) fn run(out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "Q7 — engine deployment latency, cold vs warm conversion cache\n"
    )?;
    let registry = site_registry_with_samples(400);
    writeln!(
        out,
        "{:<16} {:>12} {:>12} {:>10} {:>14}",
        "engine", "cold", "warm", "speedup", "mechanism"
    )?;
    for engine in engines::all() {
        let host = if engine.caps.requires_daemon {
            Host::compute_node().with_daemon("dockerd")
        } else {
            Host::compute_node()
        };
        let c1 = SimClock::new();
        let cold = engine
            .deploy(
                &DeployRequest::new(&registry, "hpc/pyapp", "v1", 1000, &host),
                &c1,
            )
            .map(|(_, s, _)| s);
        let c2 = SimClock::new();
        let warm = engine
            .deploy(
                &DeployRequest::new(&registry, "hpc/pyapp", "v1", 1000, &host),
                &c2,
            )
            .map(|(_, s, _)| s);
        match (cold, warm) {
            (Ok(cold), Ok(warm)) => {
                // Mechanism: what the prepare step produced.
                let clock = SimClock::new();
                let pulled = engine.pull(&registry, "hpc/pyapp", "v1", &clock).unwrap();
                let kind = engine
                    .prepare(&pulled, 1000, &host, true, &clock)
                    .map(|p| p.root_kind)
                    .unwrap_or("?");
                writeln!(
                    out,
                    "{:<16} {:>12} {:>12} {:>9.2}x {:>14}",
                    engine.info.name,
                    cold.to_string(),
                    warm.to_string(),
                    cold.as_secs_f64() / warm.as_secs_f64().max(1e-9),
                    kind
                )?;
            }
            (Err(e), _) | (_, Err(e)) => {
                writeln!(out, "{:<16} deploy failed: {e}", engine.info.name)?;
            }
        }
    }

    writeln!(
        out,
        "\nablation: cache sharing across users (second user's deploy)"
    )?;
    writeln!(
        out,
        "{:<16} {:>12} {:>10}",
        "engine", "2nd user", "cache hit"
    )?;
    for engine in [
        engines::sarus(),
        engines::podman_hpc(),
        engines::apptainer(),
    ] {
        let host = Host::compute_node();
        let c = SimClock::new();
        engine
            .deploy(
                &DeployRequest::new(&registry, "hpc/pyapp", "v1", 1000, &host),
                &c,
            )
            .unwrap();
        let c2 = SimClock::new();
        let pulled = engine.pull(&registry, "hpc/pyapp", "v1", &c2).unwrap();
        let p = engine.prepare(&pulled, 2000, &host, true, &c2).unwrap();
        let (_, span, _) = engine
            .deploy(
                &DeployRequest::new(&registry, "hpc/pyapp", "v1", 2000, &host),
                &SimClock::new(),
            )
            .unwrap();
        writeln!(
            out,
            "{:<16} {:>12} {:>10}",
            engine.info.name,
            span.to_string(),
            if p.cache_hit { "shared" } else { "per-user" }
        )?;
    }
    Ok(())
}
