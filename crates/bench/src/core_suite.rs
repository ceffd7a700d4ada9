//! Raw-speed microbenches for the simulator core + the `bench-core` gate.
//!
//! Every other benchmark in this crate measures *logical* time; this suite
//! measures *wall-clock* time of the primitives everything sits on: DES
//! event dispatch (timing wheel vs the retained `BinaryHeap` reference),
//! schedule/cancel/reschedule churn, blobstore get/put, span open/close,
//! and counter bumps (string-keyed vs batched typed handles).
//!
//! Host time cannot be pinned in a file, so the suite has no golden
//! ([`Suite::GOLDEN`] is `None`) and one verdict, machine-independent by
//! construction: the event-dispatch speedup is the ratio of the reference
//! heap to the timing wheel under the same live tracer, *measured in the
//! same run*, so it compares code, not machines. It fails below
//! [`DISPATCH_SPEEDUP_FLOOR`]. Claims about absolute host time are made
//! with `benchmark/run.sh compare`, under alternating pairs.
//!
//! All workloads are seeded and deterministic in *what* they execute; only
//! the wall-clock measurement varies run to run, which is why the suite
//! keeps the best of several repeats.

use crate::harness::{self, GateResult, Suite};
use hpcc_crypto::sha256::Digest;
use hpcc_sim::des::{DesBackend, Engine};
use hpcc_sim::obs::{Stage, Tracer};
use hpcc_sim::time::{SimSpan, SimTime};
use hpcc_sim::{sym, CounterBatch, MetricsRegistry};
use hpcc_storage::BlobStore;
use std::sync::Arc;
use std::time::Instant;

/// Live gate: timing-wheel dispatch must beat the reference heap by at
/// least this factor (events/sec), both under the live tracer, measured in
/// the same process. Three quarters of the lowest of ten measured ratios
/// (1.98–2.53x; EXPERIMENTS.md §"Simulator-core microbenches").
pub const DISPATCH_SPEEDUP_FLOOR: f64 = 1.4;

// ------------------------------------------------------------- workloads

/// Deterministic 64-bit LCG (same constants as the engine's lazy layer);
/// benches must not depend on process entropy.
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Lcg {
        Lcg(seed | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }
}

/// Concurrent self-rescheduling chains during dispatch benches. This is the
/// held queue occupancy, and it is what separates the structures: a
/// [`BinaryHeap`] pays O(log n) sifts over a heap array too big for L1/L2
/// while the wheel stays O(1) per event — a sim with per-node timers,
/// heartbeats and in-flight pulls holds thousands of pending events.
const CHAINS: u64 = 65_536;

/// Delay spread for chain rescheduling; with [`CHAINS`] chains this keeps
/// the mean inter-event gap around one tick so wheel slot scans stay
/// amortized and cascades shallow.
const DISPATCH_SPREAD: u64 = 1 << 16;

struct DispatchWorld {
    remaining: u64,
    fired: u64,
    rng: Lcg,
    tracer: Arc<Tracer>,
}

impl DispatchWorld {
    fn new(events: u64) -> DispatchWorld {
        DispatchWorld {
            remaining: events.saturating_sub(CHAINS),
            fired: 0,
            rng: Lcg::new(0x5eed_c0de),
            tracer: Tracer::new(),
        }
    }
}

/// One event of the dispatch pair: record a span through the live
/// tracer (interned name, batched metric emission), then reschedule.
fn chain(eng: &mut Engine<DispatchWorld>, w: &mut DispatchWorld) {
    let now = eng.now();
    w.tracer.record(
        sym!("core.dispatch"),
        Stage::Other,
        now,
        now + SimSpan::nanos(64),
        &[],
    );
    w.fired += 1;
    if w.remaining > 0 {
        w.remaining -= 1;
        let dt = w.rng.next() % DISPATCH_SPREAD + 1;
        eng.after(SimSpan::nanos(dt), chain);
    }
}

fn run_dispatch(ops: u64, backend: DesBackend) -> u64 {
    let mut eng = Engine::<DispatchWorld>::with_backend(backend);
    let mut w = DispatchWorld::new(ops);
    for i in 0..CHAINS {
        eng.at(SimTime(i * 31 + 1), chain);
    }
    let start = Instant::now();
    eng.run_to_completion(&mut w, ops + CHAINS + 16);
    w.tracer.flush(); // the sim barrier belongs to the measured path
    let elapsed = start.elapsed().as_nanos() as u64;
    assert!(w.fired >= ops, "dispatch bench fired {} < {ops}", w.fired);
    elapsed
}

fn dispatch_wheel(ops: u64) -> u64 {
    run_dispatch(ops, DesBackend::TimingWheel)
}

fn dispatch_heap(ops: u64) -> u64 {
    run_dispatch(ops, DesBackend::ReferenceHeap)
}

struct ChurnWorld {
    fired: u64,
}

/// Schedule `ops` events at scattered times, cancel roughly a third,
/// schedule replacements, then drain — the WLM/adapt tick pattern.
fn run_churn(ops: u64, backend: DesBackend) -> u64 {
    let mut eng = Engine::<ChurnWorld>::with_backend(backend);
    let mut w = ChurnWorld { fired: 0 };
    let mut rng = Lcg::new(0xc4a5_7e11);
    let fire = |_: &mut Engine<ChurnWorld>, w: &mut ChurnWorld| w.fired += 1;
    let start = Instant::now();
    let mut ids = Vec::with_capacity(ops as usize);
    for i in 0..ops {
        ids.push(eng.at(SimTime(rng.next() % (1 << 22) + 1), fire));
        if i % 3 == 0 {
            let victim = ids[rng.next() as usize % ids.len()];
            eng.cancel(victim);
            ids.push(eng.at(SimTime(rng.next() % (1 << 22) + 1), fire));
        }
    }
    eng.run_to_completion(&mut w, 2 * ops + 16);
    let elapsed = start.elapsed().as_nanos() as u64;
    assert!(w.fired > 0);
    elapsed
}

fn churn_wheel(ops: u64) -> u64 {
    run_churn(ops, DesBackend::TimingWheel)
}

fn churn_heap(ops: u64) -> u64 {
    run_churn(ops, DesBackend::ReferenceHeap)
}

/// Mixed blobstore traffic: 1 insert per 3 hits over a fixed pool of
/// 4 KiB blobs, the shape of a warm node-local cache.
fn blobstore_get_put(ops: u64) -> u64 {
    const POOL: usize = 512;
    let store = BlobStore::new(8, 1 << 30);
    let mut rng = Lcg::new(0xb10b_5701);
    let blobs: Vec<(Digest, Arc<Vec<u8>>)> = (0..POOL)
        .map(|_| {
            let mut d = [0u8; 32];
            for chunk in d.chunks_mut(8) {
                let b = rng.next().to_le_bytes();
                chunk.copy_from_slice(&b[..chunk.len()]);
            }
            (Digest(d), Arc::new(vec![0xA5u8; 4096]))
        })
        .collect();
    let start = Instant::now();
    for i in 0..ops {
        let (d, data) = &blobs[rng.next() as usize % POOL];
        if i % 4 == 0 {
            store.insert(*d, Arc::clone(data));
        } else {
            std::hint::black_box(store.get(d));
        }
    }
    start.elapsed().as_nanos() as u64
}

/// Current span lifecycle: `sym!`-cached names/keys, batched emission.
fn span_open_close_interned(ops: u64) -> u64 {
    let tr = Tracer::new();
    let start = Instant::now();
    for i in 0..ops {
        let t0 = SimTime(i * 10);
        let id = tr.begin(sym!("core.span"), Stage::Other, t0);
        tr.attr(id, sym!("worker"), i & 7);
        tr.end(id, SimTime(i * 10 + 5));
    }
    tr.flush();
    start.elapsed().as_nanos() as u64
}

/// String-keyed counter bump: one registry lock + `BTreeMap` walk per op.
fn counter_direct(ops: u64) -> u64 {
    let registry = MetricsRegistry::new();
    let start = Instant::now();
    for _ in 0..ops {
        registry.incr("core.counter");
    }
    start.elapsed().as_nanos() as u64
}

/// Batched typed-handle bump: local saturating accumulate, one flush.
fn counter_batched(ops: u64) -> u64 {
    let registry = MetricsRegistry::new();
    let mut batch = CounterBatch::new(registry.typed_counter("core.counter"));
    let start = Instant::now();
    for _ in 0..ops {
        batch.incr();
    }
    batch.flush();
    let elapsed = start.elapsed().as_nanos() as u64;
    assert_eq!(registry.get("core.counter"), ops);
    elapsed
}

// -------------------------------------------------------------- the suite

/// One microbench: a workload sized in ops, returning elapsed wall ns.
pub struct CoreBenchDef {
    pub name: &'static str,
    pub ops: u64,
    pub run: fn(u64) -> u64,
}

pub const CORE_BENCHES: &[CoreBenchDef] = &[
    CoreBenchDef {
        name: "des.event_dispatch.wheel",
        ops: 200_000,
        run: dispatch_wheel,
    },
    CoreBenchDef {
        name: "des.event_dispatch.heap",
        ops: 200_000,
        run: dispatch_heap,
    },
    CoreBenchDef {
        name: "des.sched_churn.wheel",
        ops: 200_000,
        run: churn_wheel,
    },
    CoreBenchDef {
        name: "des.sched_churn.heap",
        ops: 200_000,
        run: churn_heap,
    },
    CoreBenchDef {
        name: "blobstore.get_put",
        ops: 400_000,
        run: blobstore_get_put,
    },
    CoreBenchDef {
        name: "obs.span_open_close.interned",
        ops: 200_000,
        run: span_open_close_interned,
    },
    CoreBenchDef {
        name: "metrics.counter_bump.direct",
        ops: 1_000_000,
        run: counter_direct,
    },
    CoreBenchDef {
        name: "metrics.counter_bump.batched",
        ops: 1_000_000,
        run: counter_batched,
    },
];

/// Whole-suite measurement rounds; each bench keeps its best.
const ROUNDS: usize = 5;

/// Best-of-repeats measurement of one bench.
#[derive(Debug, Clone)]
pub struct BenchResult {
    pub name: &'static str,
    pub ops: u64,
    pub best_total_ns: u64,
}

impl BenchResult {
    pub fn ns_per_op(&self) -> f64 {
        self.best_total_ns as f64 / self.ops as f64
    }

    pub fn ops_per_sec(&self) -> f64 {
        if self.best_total_ns == 0 {
            0.0
        } else {
            self.ops as f64 * 1e9 / self.best_total_ns as f64
        }
    }
}

fn find<'a>(results: &'a [BenchResult], name: &str) -> Option<&'a BenchResult> {
    results.iter().find(|r| r.name == name)
}

/// Live speedups: reference/current ns-per-op ratios from the same run.
pub fn speedups(results: &[BenchResult]) -> Vec<(&'static str, f64)> {
    let pairs: [(&'static str, &str, &str); 3] = [
        (
            "event_dispatch",
            "des.event_dispatch.heap",
            "des.event_dispatch.wheel",
        ),
        (
            "sched_churn",
            "des.sched_churn.heap",
            "des.sched_churn.wheel",
        ),
        (
            "counter_bump",
            "metrics.counter_bump.direct",
            "metrics.counter_bump.batched",
        ),
    ];
    pairs
        .iter()
        .filter_map(|(label, old, new)| {
            let old = find(results, old)?;
            let new = find(results, new)?;
            (new.ns_per_op() > 0.0).then(|| (*label, old.ns_per_op() / new.ns_per_op()))
        })
        .collect()
}

/// `bench core`.
pub struct Core;

impl Suite for Core {
    const NAME: &'static str = "core";
    const GOLDEN: Option<harness::Render<Self::Results>> = None;
    type Results = Vec<BenchResult>;

    /// Repeats are interleaved in whole-suite rounds (per-bench min across
    /// rounds) rather than run back to back: a transient machine-load spike
    /// then dents every bench a little instead of landing squarely on one
    /// side of a speedup pair.
    fn run() -> Vec<BenchResult> {
        // Warmup round at a fraction of each size.
        for def in CORE_BENCHES {
            (def.run)(def.ops / 10);
        }
        let mut best = vec![u64::MAX; CORE_BENCHES.len()];
        for _ in 0..ROUNDS {
            for (best, def) in best.iter_mut().zip(CORE_BENCHES) {
                *best = (*best).min((def.run)(def.ops));
            }
        }
        CORE_BENCHES
            .iter()
            .zip(best)
            .map(|(def, best)| BenchResult {
                name: def.name,
                ops: def.ops,
                best_total_ns: best.max(1),
            })
            .collect()
    }

    /// The machine-independent acceptance gate: dispatch speedup measured
    /// in this very run must clear [`DISPATCH_SPEEDUP_FLOOR`].
    fn gates(results: &Vec<BenchResult>) -> GateResult {
        let sp = speedups(results);
        let mut errors = Vec::new();
        match sp.iter().find(|(l, _)| *l == "event_dispatch") {
            Some((_, x)) if *x >= DISPATCH_SPEEDUP_FLOOR => {}
            Some((_, x)) => errors.push(format!(
                "event dispatch speedup {x:.2}x below the {DISPATCH_SPEEDUP_FLOOR:.1}x floor"
            )),
            None => errors.push("event dispatch benches missing from run".to_string()),
        }
        let report = sp
            .iter()
            .map(|(label, x)| format!("{label}: {x:.2}x over the reference path"))
            .collect();
        harness::verdict(report, errors)
    }

    fn table(results: &Vec<BenchResult>) -> Vec<Vec<String>> {
        harness::table(
            ["bench", "ops", "ns/op", "ops/sec"],
            results.iter().map(|r| {
                [
                    r.name.to_string(),
                    r.ops.to_string(),
                    format!("{:.1}", r.ns_per_op()),
                    format!("{:.0}", r.ops_per_sec()),
                ]
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny workloads: the suite must run end to end and every bench pair
    /// needed by the gates must exist.
    #[test]
    fn suite_runs_and_exposes_gate_pairs() {
        let benches: Vec<BenchResult> = CORE_BENCHES
            .iter()
            .map(|def| BenchResult {
                name: def.name,
                ops: 500,
                best_total_ns: (def.run)(500).max(1),
            })
            .collect();
        let sp = speedups(&benches);
        assert_eq!(sp.len(), 3, "{sp:?}");
        assert_eq!(Core::table(&benches).len(), 1 + CORE_BENCHES.len());
    }

    /// The suite's only verdict: every bench at 100 ns/op but the heap
    /// side of the dispatch pair.
    #[test]
    fn dispatch_below_the_speedup_floor_is_red() {
        let run = |heap_total_ns: u64| -> Vec<BenchResult> {
            let total = |name| match name {
                "des.event_dispatch.heap" => heap_total_ns,
                _ => 100_000,
            };
            CORE_BENCHES
                .iter()
                .map(|def| BenchResult {
                    name: def.name,
                    ops: 1_000,
                    best_total_ns: total(def.name),
                })
                .collect()
        };
        let report = Core::gates(&run(200_000)).unwrap();
        assert_eq!(report[0], "event_dispatch: 2.00x over the reference path");
        assert!(Core::gates(&run(140_000)).is_ok());
        let errors = Core::gates(&run(139_000)).unwrap_err();
        assert_eq!(
            errors,
            ["event dispatch speedup 1.39x below the 1.4x floor"]
        );
        let errors = Core::gates(&Vec::new()).unwrap_err();
        assert_eq!(errors, ["event dispatch benches missing from run"]);
    }
}
