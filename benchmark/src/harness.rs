//! The closed loop every workload runs in: one client, one op at a time,
//! the timer around the op and the oracle outside it.
//!
//! A run sets the world up several times (the median is `setup_s`), warms
//! up with five untimed ops, then runs a fixed number of ops. The count
//! is `--seconds` times the workload's nominal rate, calibrated once on
//! the commit that defined the benchmark: registries, journals and logs
//! grow with every op, so a window closed by the clock would charge a
//! faster build, which fits more ops, with more memory. Ops cycle
//! through a fixed number of input classes; the first op of a class is
//! the reference every later op of that class must reproduce exactly —
//! simulated time, logical digest and every exact count — or it counts
//! as failed.
//!
//! Because every op of a class is the same deterministic work, whatever
//! separates two of them in host time is the host: on the shared machines
//! this runs on, a neighbour on the same core or cache adds a tenth to a
//! third to memory-bound code for seconds at a time, and never takes any
//! away. Medians and means over a ten-second window follow those
//! episodes (two runs of one binary differ by 10–40 %); the fastest op of
//! each class does not (1–3 %). So every timing reported is a floor: an
//! op's latency is the fastest its class ran in the window, and the
//! percentiles and the rate are taken over the window's ops at their
//! class floors. The as-run numbers are printed beside them.

use crate::gen::Fnv;
use crate::stats;
use crate::trace::Trace;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Untimed ops before the window opens.
pub const WARMUP_OPS: usize = 5;

/// What one op produced, as the oracle saw it.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Every byte read back equals the generated one and no call failed.
    pub ok: bool,
    /// Logical-clock duration of the op.
    pub sim_ns: u64,
    /// Hash of the op's logical outcome.
    pub digest: u64,
    /// Counts that must repeat exactly for the same input class.
    pub counts: Vec<(&'static str, u64)>,
}

impl Outcome {
    pub fn failed() -> Outcome {
        Outcome {
            ok: false,
            sim_ns: 0,
            digest: 0,
            counts: Vec::new(),
        }
    }
}

pub trait Workload: Sized {
    const NAME: &'static str;
    /// Ops per second of `--seconds`: the op rate measured on the commit
    /// that defined the benchmark, so a run there lasts `--seconds`.
    const NOMINAL_OPS_PER_S: f64;
    /// What a finished op hands the oracle (read-back bytes, handles
    /// whose drop should stay outside the timer).
    type Done;

    /// Generate the inputs from `seed` and stand the world up.
    fn setup(seed: u64, trace: &mut Trace) -> Result<Self, String>;
    /// Hash of the generated inputs.
    fn input_digest(&self) -> u64;
    /// Number of input classes ops cycle through.
    fn classes(&self) -> usize;
    /// One op, timed by the caller.
    fn op(&mut self, i: usize, trace: &mut Trace) -> Result<Self::Done, String>;
    /// The oracle, outside the timer: compare with what was generated,
    /// collect the logical outcome, reset per-op state.
    fn check(&mut self, i: usize, done: Self::Done) -> Outcome;
    /// Traced pass only: feed op `i`'s own inputs through the layers'
    /// public functions under `probe.*` spans.
    fn probes(&mut self, i: usize, trace: &mut Trace) -> Result<(), String>;
    /// Per-layer metrics this workload measures, by `BENCHMARK.json` name.
    fn layer_metrics(&self, trace: &Trace, run: &RunStats) -> BTreeMap<&'static str, f64>;
}

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    /// Ops in the end-to-end window; the traced pass runs a fifth of
    /// them untraced and a fifth traced.
    pub ops: usize,
    /// Set-ups to time at least.
    pub min_setups: usize,
    /// More set-ups are timed until this much time has gone into them,
    /// half of it before the window and half after.
    pub setup_budget: Duration,
}

/// The window's op count for `--seconds`.
pub fn window_ops<W: Workload>(seconds: f64) -> usize {
    ((seconds * W::NOMINAL_OPS_PER_S).round() as usize).max(1)
}

/// The fastest sample of each class; sample `k` belongs to class
/// `(first + k) % classes`. A class without a sample reads infinity.
pub fn class_floors(samples: &[f64], first: usize, classes: usize) -> Vec<f64> {
    let mut floor = vec![f64::INFINITY; classes];
    for (k, s) in samples.iter().enumerate() {
        let class = (first + k) % classes;
        floor[class] = floor[class].min(*s);
    }
    floor
}

/// What the loop learnt, before it is shaped into named metrics.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    pub attempted: u64,
    pub failed: u64,
    pub setup_runs: usize,
    /// The fastest set-up.
    pub setup_s: f64,
    /// Host latency of each window op, ms, in op order, as it ran.
    pub samples_ms: Vec<f64>,
    /// The same ops, each at the floor of its class.
    pub floored_ms: Vec<f64>,
    /// The floor of each class, class order.
    pub class_floor_ms: Vec<f64>,
    /// Per-class reference outcomes, class order.
    pub reference: Vec<Outcome>,
    pub input_digest: u64,
    /// Traced pass: ops per second of the untraced block run first.
    pub untraced_ops_per_s: f64,
}

fn rate_per_s(samples_ms: &[f64]) -> f64 {
    let total: f64 = samples_ms.iter().sum();
    if total > 0.0 {
        samples_ms.len() as f64 * 1e3 / total
    } else {
        0.0
    }
}

fn percentile_of(samples_ms: &[f64], p: f64) -> f64 {
    let mut v = samples_ms.to_vec();
    v.sort_by(f64::total_cmp);
    stats::percentile(&v, p)
}

impl RunStats {
    pub fn ops_per_s(&self) -> f64 {
        rate_per_s(&self.floored_ms)
    }

    pub fn op_p50_ms(&self) -> f64 {
        percentile_of(&self.floored_ms, 0.50)
    }

    pub fn op_p90_ms(&self) -> f64 {
        percentile_of(&self.floored_ms, 0.90)
    }

    /// Rate, median and 90th percentile of the window as it ran.
    pub fn as_run(&self) -> (f64, f64, f64) {
        (
            rate_per_s(&self.samples_ms),
            percentile_of(&self.samples_ms, 0.50),
            percentile_of(&self.samples_ms, 0.90),
        )
    }

    /// Median simulated duration of one op over the class references:
    /// independent of how many ops the window held.
    pub fn sim_op_ms(&self) -> f64 {
        let v: Vec<f64> = self
            .reference
            .iter()
            .map(|o| o.sim_ns as f64 / 1e6)
            .collect();
        stats::median(&v)
    }

    /// FNV-1a over the class references' digests, class order.
    pub fn sim_digest(&self) -> u64 {
        let mut h = Fnv::new();
        for o in &self.reference {
            h.u64(o.digest);
            h.u64(o.sim_ns);
        }
        h.finish()
    }

    /// Mean over the class references of exact count `name`.
    pub fn count_per_op(&self, name: &str) -> f64 {
        let v: Vec<f64> = self
            .reference
            .iter()
            .filter_map(|o| o.counts.iter().find(|(n, _)| *n == name))
            .map(|(_, c)| *c as f64)
            .collect();
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    }

    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Set-ups are repeated while they are cheap, so that a millisecond
/// set-up gets a floor as firm as a second-long one.
const SETUP_ROUND_MAX: usize = 16;
pub const SETUP_BUDGET: Duration = Duration::from_millis(2500);

struct Loop<'a, W: Workload> {
    world: &'a mut W,
    trace: &'a mut Trace,
    stats: &'a mut RunStats,
    classes: usize,
    next: usize,
}

impl<W: Workload> Loop<'_, W> {
    /// Run op `self.next`; returns its host time.
    fn step(&mut self, probe: bool) -> Duration {
        let i = self.next;
        self.next += 1;
        self.trace.set_op(i as u32);
        let span = self.trace.begin("op");
        let start = Instant::now();
        let done = self.world.op(i, self.trace);
        let took = start.elapsed();
        self.trace.end(span);

        // Say why the first few failures failed; the count tells the rest.
        let complain = |failed_so_far: u64, what: String| {
            if failed_so_far < 8 {
                eprintln!("{}: op {i} {what}", W::NAME);
            }
        };
        let outcome = match done {
            Ok(done) => self.world.check(i, done),
            Err(e) => {
                complain(self.stats.failed, format!("failed: {e}"));
                Outcome::failed()
            }
        };
        self.stats.attempted += 1;
        let class = i % self.classes;
        let agrees = match self.stats.reference.get(class) {
            Some(reference) => *reference == outcome,
            None => {
                debug_assert_eq!(class, self.stats.reference.len());
                self.stats.reference.push(outcome.clone());
                true
            }
        };
        if !outcome.ok || !agrees {
            if outcome.ok {
                complain(
                    self.stats.failed,
                    format!("differs from the first op of class {class}"),
                );
            }
            self.stats.failed += 1;
        }
        if probe {
            if let Err(e) = self.world.probes(i, self.trace) {
                complain(
                    self.stats.failed,
                    format!("was followed by a failed probe: {e}"),
                );
                self.stats.failed += 1;
            }
        }
        took
    }
}

pub fn run<W: Workload>(cfg: &RunConfig, trace: &mut Trace) -> Result<(W, RunStats), String> {
    let mut stats = RunStats::default();

    // Set-ups are timed in two rounds, one before the window and one
    // after it, so that one slow episode on the host cannot cover them
    // all. Each replaces the world of the one before.
    let mut setup_times = Vec::new();
    let mut setup_round = |world: Option<W>, at_least: usize, trace: &mut Trace| {
        let started = Instant::now();
        let mut world = world;
        let mut n = 0;
        while n < at_least || (n < SETUP_ROUND_MAX && started.elapsed() < cfg.setup_budget / 2) {
            drop(world.take());
            trace.set_setup(setup_times.len() as u32);
            let t = Instant::now();
            world = Some(W::setup(cfg.seed, trace)?);
            setup_times.push(t.elapsed().as_secs_f64());
            n += 1;
        }
        Ok::<_, String>(world)
    };
    let before = cfg.min_setups.div_ceil(2).max(1);
    let mut world = setup_round(None, before, trace)?.expect("set up at least once");
    stats.input_digest = world.input_digest();

    let classes = world.classes().max(1);
    let traced = trace.is_on();
    trace.set_on(false);
    let mut lp = Loop {
        world: &mut world,
        trace: &mut *trace,
        stats: &mut stats,
        classes,
        next: 0,
    };
    for _ in 0..WARMUP_OPS.min(cfg.ops) {
        lp.step(false);
    }

    // `ops` timed ops: as they ran, each at its class floor, the floors.
    let timed = |lp: &mut Loop<W>, ops: usize, probe: bool| {
        let first = lp.next;
        let samples: Vec<f64> = (0..ops)
            .map(|_| lp.step(probe).as_secs_f64() * 1e3)
            .collect();
        let floors = class_floors(&samples, first, classes);
        let floored: Vec<f64> = (0..ops).map(|k| floors[(first + k) % classes]).collect();
        (samples, floored, floors)
    };
    let window = if traced {
        // An untraced block first, as the reference for the overhead.
        let ops = cfg.ops.div_ceil(5);
        let (_, untraced, _) = timed(&mut lp, ops, false);
        lp.stats.untraced_ops_per_s = rate_per_s(&untraced);
        lp.trace.set_on(true);
        timed(&mut lp, ops, true)
    } else {
        timed(&mut lp, cfg.ops, false)
    };
    (stats.samples_ms, stats.floored_ms, stats.class_floor_ms) = window;
    // The traced pass keeps the world its ops ran in: it holds what the
    // layer metrics are made from, and reports no set-up time.
    if !traced {
        let after = cfg.min_setups.saturating_sub(before);
        world = setup_round(Some(world), after, trace)?.expect("still set up");
    }
    stats.setup_runs = setup_times.len();
    stats.setup_s = setup_times.iter().copied().fold(f64::INFINITY, f64::min);
    Ok((world, stats))
}

/// Share of the median op's host time that lies inside named stage spans
/// (the op span's direct children).
pub fn stage_coverage_pct(trace: &Trace) -> f64 {
    let spans = trace.spans();
    let mut covered: BTreeMap<usize, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            if spans[p].name == "op" {
                *covered.entry(p).or_default() += s.dur_ns();
            }
        }
    }
    let shares: Vec<f64> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "op" && s.dur_ns() > 0)
        .map(|(i, s)| 100.0 * covered.get(&i).copied().unwrap_or(0) as f64 / s.dur_ns() as f64)
        .collect();
    stats::median(&shares)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_op_is_timed_at_the_floor_of_its_class() {
        // Three classes; the first sample is op 4, so of class 1.
        let samples = [5.0, 9.0, 1.0, 4.0, 7.0, 2.0, 6.0];
        let floors = class_floors(&samples, 4, 3);
        assert_eq!(floors, vec![1.0, 4.0, 7.0]);
        // A class the window never reached has no floor to offer.
        assert_eq!(class_floors(&samples[..2], 0, 3)[2], f64::INFINITY);
    }

    #[test]
    fn rate_and_percentiles_read_the_floored_window() {
        let stats = RunStats {
            samples_ms: vec![30.0, 10.0, 20.0, 50.0],
            floored_ms: vec![20.0, 10.0, 20.0, 10.0],
            ..RunStats::default()
        };
        assert_eq!(stats.ops_per_s(), 4.0 * 1e3 / 60.0);
        assert_eq!(stats.op_p50_ms(), 10.0);
        assert_eq!(stats.op_p90_ms(), 20.0);
        let (rate, p50, p90) = stats.as_run();
        assert_eq!((rate, p50, p90), (4.0 * 1e3 / 110.0, 20.0, 50.0));
    }
}
