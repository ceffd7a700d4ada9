//! The five workloads and the one function that runs any of them.

mod adapt_control;
mod build_publish;
mod eager_bulk;
mod fleet_storm;
mod lazy_smallfiles;

use crate::harness::{self, RunConfig, Workload};
use crate::report::{common_values, Pass};
use crate::trace::Trace;

/// Spans allocated up front for a traced pass.
const SPAN_CAPACITY: usize = 1 << 18;

/// How many ops a pass runs: the window `--seconds` asks for, or a count.
#[derive(Debug, Clone, Copy)]
pub enum Length {
    Seconds(f64),
    #[cfg_attr(not(test), allow(dead_code))]
    Ops(usize),
}

fn run_one<W: Workload>(seed: u64, length: Length, traced: bool) -> Result<Pass, String> {
    let mut trace = Trace::new(traced, SPAN_CAPACITY);
    // A run sized by the clock is a measurement and repeats its set-up;
    // a run sized by hand is a test and does not.
    let (ops, min_setups, setup_budget) = match length {
        Length::Seconds(s) => (harness::window_ops::<W>(s), 5, harness::SETUP_BUDGET),
        Length::Ops(n) => (n, 1, std::time::Duration::ZERO),
    };
    let cfg = RunConfig {
        seed,
        ops,
        min_setups,
        setup_budget,
    };
    let (world, stats) = harness::run::<W>(&cfg, &mut trace)?;
    let mut values = common_values(&stats, traced);
    if traced {
        values.extend(world.layer_metrics(&trace, &stats));
    }
    Ok(Pass {
        workload: W::NAME,
        seed,
        traced,
        classes: world.classes(),
        stats,
        values,
        trace,
    })
}

pub fn run_by_name(name: &str, seed: u64, length: Length, traced: bool) -> Result<Pass, String> {
    match name {
        eager_bulk::EagerBulk::NAME => run_one::<eager_bulk::EagerBulk>(seed, length, traced),
        lazy_smallfiles::LazySmallfiles::NAME => {
            run_one::<lazy_smallfiles::LazySmallfiles>(seed, length, traced)
        }
        build_publish::BuildPublish::NAME => {
            run_one::<build_publish::BuildPublish>(seed, length, traced)
        }
        fleet_storm::FleetStorm::NAME => run_one::<fleet_storm::FleetStorm>(seed, length, traced),
        adapt_control::AdaptControl::NAME => {
            run_one::<adapt_control::AdaptControl>(seed, length, traced)
        }
        other => Err(format!("unknown workload {other}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Spec;

    /// Three ops of every workload, untraced and traced: nothing fails,
    /// every end-to-end metric is measured, and the traced pass measures
    /// only metrics `BENCHMARK.json` lists.
    #[test]
    fn three_op_smoke_run_of_each_workload() {
        let spec = Spec::load().expect("BENCHMARK.json parses");
        for (name, _) in &spec.workloads {
            let pass = run_by_name(name, 7, Length::Ops(3), false).expect(name);
            assert_eq!((pass.stats.attempted, pass.stats.failed), (6, 0), "{name}");
            assert_eq!(pass.stats.samples_ms.len(), 3, "{name}");
            for m in &spec.end_to_end {
                let v = pass.values.get(m.name.as_str()).copied();
                assert!(v.is_some_and(|v| v > 0.0), "{name}: {} = {v:?}", m.name);
            }

            let traced = run_by_name(name, 7, Length::Ops(3), true).expect(name);
            assert_eq!(traced.stats.failed, 0, "{name} traced");
            assert!(!traced.trace.spans().is_empty(), "{name} recorded no span");
            let mut measured = 0;
            for (metric, value) in &traced.values {
                if ["fail_ratio"].contains(metric) {
                    continue;
                }
                assert!(
                    spec.per_layer.iter().any(|m| m.name == *metric),
                    "{name} measures {metric}, which BENCHMARK.json does not list"
                );
                measured += (*value != 0.0) as usize;
            }
            assert!(
                measured >= 8,
                "{name} measured only {measured} layer metrics"
            );
            // The model must not notice that the harness was tracing: the
            // classes both passes reached have the same logical outcome.
            let both = traced.stats.reference.len().min(pass.stats.reference.len());
            assert!(both >= 3, "{name}");
            assert_eq!(
                traced.stats.reference[..both],
                pass.stats.reference[..both],
                "{name}"
            );
        }
    }

    #[test]
    fn the_seed_decides_the_inputs() {
        let spec = Spec::load().expect("BENCHMARK.json parses");
        for (name, _) in &spec.workloads {
            let digest = |seed| {
                let pass = run_by_name(name, seed, Length::Ops(1), false).expect(name);
                assert_eq!(pass.stats.failed, 0, "{name} seed {seed}");
                pass.stats.input_digest
            };
            assert_eq!(digest(11), digest(11), "{name}: same seed, other inputs");
            assert_ne!(digest(11), digest(12), "{name}: other seed, same inputs");
        }
    }
}
