//! `adapt_control`: the paper's own subject, WLM↔Kubernetes partition
//! control, and the only path that drives `sim::des`.
//!
//! One op generates a seeded trace for 64 nodes (bursty, diurnal or
//! poisson by op index) and runs it under each of the three presets:
//! static, queue-threshold and EWMA forecast.
//! Set-up picks every class's trace seed and keeps the trace's digest, for
//! the input digest and for the oracle to compare each op's trace with.

use crate::gen::{Fnv, Rng};
use crate::harness::{stage_coverage_pct, Outcome, RunStats, Workload};
use crate::sut;
use crate::trace::Trace;
use std::collections::BTreeMap;

/// Two trace seeds for each of the three shapes.
const CLASSES: usize = 6;
/// Set-up draws [`CANDIDATES`] seeded traces per class and keeps the one
/// closest to this load. Host time is per control-loop tick, and a
/// trace's longest job, drawn from an exponential, decides how long the
/// controller ticks; how much its jobs ask for decides how long the
/// static preset queues them. Picked blindly, two seeds differ by a
/// fifth in cost, which no bound on a timing could absorb; picked this
/// way they differ in every arrival, size and runtime and by a fiftieth
/// in cost.
const TARGET_SPAN_S: u64 = 2400;
const TARGET_JOB_NODE_S: u64 = 36_000;
const CANDIDATES: usize = 1024;

/// Distance of `trace` from the target load, in thousandths; the span
/// counts fourfold because every preset ticks for at least that long.
fn mismatch(trace: &sut::TimedWorkload) -> u64 {
    let (span_s, job_node_s) = sut::trace_load(trace);
    4 * span_s.abs_diff(TARGET_SPAN_S) * 1000 / TARGET_SPAN_S
        + job_node_s.abs_diff(TARGET_JOB_NODE_S) * 1000 / TARGET_JOB_NODE_S
}

struct TraceInput {
    seed: u64,
    /// Hash of the trace generated in set-up.
    digest: u64,
}

pub struct AdaptControl {
    inputs: Vec<TraceInput>,
    input_digest: u64,
    last_ticks: u64,
}

pub struct Done {
    trace_digest: u64,
    sizes: (usize, usize),
    runs: Vec<sut::AdaptSummary>,
}

fn trace_digest(trace: &sut::TimedWorkload) -> u64 {
    let mut d = Fnv::new();
    d.bytes(format!("{trace:?}").as_bytes());
    d.finish()
}

impl Workload for AdaptControl {
    const NAME: &'static str = "adapt_control";
    const NOMINAL_OPS_PER_S: f64 = 17.0;
    type Done = Done;

    fn setup(seed: u64, trace: &mut Trace) -> Result<Self, String> {
        let mut digest = Fnv::new();
        let inputs = (0..CLASSES)
            .map(|class| {
                let mut rng = Rng::stream(seed, class as u64);
                let (trace_seed, generated) = trace.leaf("adapt.trace_select", || {
                    (0..CANDIDATES)
                        .map(|_| {
                            let candidate = rng.next();
                            (candidate, sut::adapt_trace(candidate, class))
                        })
                        .min_by_key(|(_, t)| mismatch(t))
                        .expect("at least one candidate")
                });
                let d = trace_digest(&generated);
                digest.u64(d);
                TraceInput {
                    seed: trace_seed,
                    digest: d,
                }
            })
            .collect();
        Ok(AdaptControl {
            inputs,
            input_digest: digest.finish(),
            last_ticks: 0,
        })
    }

    fn input_digest(&self) -> u64 {
        self.input_digest
    }

    fn classes(&self) -> usize {
        CLASSES
    }

    fn op(&mut self, i: usize, trace: &mut Trace) -> Result<Done, String> {
        let class = i % CLASSES;
        let generated = trace.leaf("adapt.trace_generate", || {
            sut::adapt_trace(self.inputs[class].seed, class)
        });
        let runs = (0..sut::ADAPT_PRESETS.len())
            .map(|preset| trace.leaf("adapt.run", || sut::adapt_run(&generated, preset)))
            .collect();
        Ok(Done {
            trace_digest: trace_digest(&generated),
            sizes: sut::trace_sizes(&generated),
            runs,
        })
    }

    fn check(&mut self, i: usize, done: Done) -> Outcome {
        let (jobs, pods) = done.sizes;
        // Every preset must finish the whole trace it was given.
        let ok = done.trace_digest == self.inputs[i % CLASSES].digest
            && done
                .runs
                .iter()
                .all(|r| r.jobs_completed == jobs as u64 && r.pods_succeeded == pods as u64);
        let sum = |f: fn(&sut::AdaptSummary) -> u64| done.runs.iter().map(f).sum::<u64>();
        let mut digest = Fnv::new();
        done.runs.iter().for_each(|r| digest.u64(r.digest));
        self.last_ticks = sum(|r| r.ticks);
        Outcome {
            ok,
            sim_ns: sum(|r| r.makespan_ns),
            digest: digest.finish(),
            counts: vec![
                ("decisions", sum(|r| r.decisions)),
                ("reprovisions", sum(|r| r.reprovisions)),
                ("jobs_completed", sum(|r| r.jobs_completed)),
                ("pods_succeeded", sum(|r| r.pods_succeeded)),
                ("ticks", self.last_ticks),
            ],
        }
    }

    fn probes(&mut self, _: usize, trace: &mut Trace) -> Result<(), String> {
        let all = trace.begin("probes");
        let ticks = self.last_ticks;
        let ran = trace.work("probe.sim.des", ticks as f64, || sut::des_round(ticks));
        trace.end(all);
        if ran < ticks {
            return Err(format!("DES replay ran {ran} of {ticks} events"));
        }
        Ok(())
    }

    fn layer_metrics(&self, t: &Trace, run: &RunStats) -> BTreeMap<&'static str, f64> {
        let stage = |name| t.floor_self_ms(name, CLASSES);
        // Counts and stage times are both summed over an op's three runs.
        let op_run_s = stage("adapt.run") / 1e3;
        let per_s = |count: &str| {
            if op_run_s > 0.0 {
                run.count_per_op(count) / op_run_s
            } else {
                0.0
            }
        };
        BTreeMap::from([
            ("adapt.run_ms", stage("adapt.run")),
            ("adapt.trace_generate_ms", stage("adapt.trace_generate")),
            ("adapt.decisions_per_op", run.count_per_op("decisions")),
            (
                "adapt.reprovisions_per_op",
                run.count_per_op("reprovisions"),
            ),
            ("wlm.jobs_per_s", per_s("jobs_completed")),
            ("k8s.pods_per_s", per_s("pods_succeeded")),
            ("sim.des_events_per_s", t.per_second("probe.sim.des")),
            ("harness.stage_coverage_pct", stage_coverage_pct(t)),
        ])
    }
}
