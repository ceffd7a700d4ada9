//! Golden-trace harness for the observability layer (`hpcc_sim::obs`).
//!
//! Three families of checks:
//!
//! 1. **Golden matching** — every trace in the corpus (`hpcc_core::goldens`)
//!    is rebuilt from scratch and structurally diffed against its
//!    checked-in TSV under `tests/goldens/`. A timing-model change must be
//!    re-blessed (`cargo run -p hpcc-bench --bin repro -- --bless`)
//!    to land.
//! 2. **Span invariants** — deterministic checks on the corpus plus a
//!    proptest sweep over random workloads through all five §6 scenarios:
//!    unique ids, proper nesting, child ⊆ parent intervals, monotone
//!    clock, and stage-time conservation for `engine.deploy`.
//! 3. **Reproducibility** — in-process double-build digests (printed as
//!    `TRACE <name> <digest>` lines that `scripts/ci.sh` diffs across two
//!    executions) and a cross-process re-exec check that the quickstart
//!    trace is byte-identical between independent runs.

use hpcc_core::goldens::{all_goldens, check_golden, q5_degraded_pull_trace, quickstart_trace};
use hpcc_core::scenarios::{self, ClusterConfig, MixedWorkload};
use hpcc_sim::des::{DesBackend, Engine};
use hpcc_sim::obs::{
    check_conservation, check_invariants, export_tsv, trace_digest, SpanRecord, Stage, Tracer,
};
use hpcc_sim::sym;
use hpcc_sim::time::{SimSpan, SimTime};
use proptest::prelude::*;
use std::process::Command;
use std::sync::Arc;

// ------------------------------------------------------- golden matching

#[test]
fn golden_traces_match_checked_in_files() {
    let mut failures = Vec::new();
    for golden in all_goldens() {
        if let Err(err) = check_golden(&golden) {
            failures.push(err);
        }
    }
    assert!(
        failures.is_empty(),
        "stale golden traces:\n{}",
        failures.join("\n\n")
    );
}

// -------------------------------------------------------- span invariants

#[test]
fn golden_traces_satisfy_span_invariants() {
    for golden in all_goldens() {
        let trace = (golden.build)();
        assert!(!trace.is_empty(), "{}: empty trace", golden.name);
        let errs = check_invariants(&trace);
        assert!(errs.is_empty(), "{}: {}", golden.name, errs.join("\n"));
    }
}

/// The deploy pipeline's stages must tile the end-to-end span exactly:
/// pull + convert/cache + run account for every nanosecond of a deploy.
#[test]
fn pipeline_traces_conserve_stage_time() {
    for (name, trace) in [
        ("quickstart", quickstart_trace()),
        ("q5_degraded_pull", q5_degraded_pull_trace()),
    ] {
        let deploys = trace.iter().filter(|s| s.name == "engine.deploy").count();
        assert!(deploys > 0, "{name}: no engine.deploy span");
        let errs = check_conservation(&trace, "engine.deploy");
        assert!(errs.is_empty(), "{name}: {}", errs.join("\n"));
    }
}

fn trace_all_scenarios(
    cfg: &ClusterConfig,
    wl: &MixedWorkload,
) -> Vec<(&'static str, Vec<SpanRecord>)> {
    scenarios::ALL
        .into_iter()
        .map(|(name, run)| {
            let tracer = Tracer::new();
            run(cfg, wl, &tracer);
            (name, tracer.finished())
        })
        .collect()
}

/// The scenario goldens are exactly the scenario table: a scenario added
/// to [`scenarios::ALL`] needs a checked-in `scenario_<name>.tsv`, and a
/// golden file whose scenario left the table must go with it.
#[test]
fn scenario_goldens_are_exactly_the_scenario_table() {
    let mut files: Vec<String> = std::fs::read_dir(hpcc_core::goldens::goldens_dir())
        .expect("goldens dir")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|f| f.starts_with("scenario_"))
        .collect();
    files.sort();
    let mut table: Vec<String> = scenarios::ALL
        .iter()
        .map(|(name, _)| format!("scenario_{name}.tsv"))
        .collect();
    table.sort();
    assert_eq!(files, table);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Any workload through any scenario of the table yields a sound span
    /// tree: one root `scenario` span covering everything, children inside
    /// parent intervals, monotone clock.
    #[test]
    fn scenario_traces_satisfy_span_invariants(
        seed in 1u64..1000,
        jobs in 1usize..5,
        pods in 1usize..8,
    ) {
        let cfg = ClusterConfig { nodes: 8 };
        let wl = MixedWorkload::generate(seed, jobs, pods, &cfg);
        for (name, trace) in trace_all_scenarios(&cfg, &wl) {
            let errs = check_invariants(&trace);
            prop_assert!(errs.is_empty(), "{}: {}", name, errs.join("\n"));
            let roots: Vec<_> = trace.iter().filter(|s| s.parent.is_none()).collect();
            prop_assert!(
                roots.iter().any(|s| s.name == "scenario"),
                "{}: no root scenario span", name
            );
            // Every other span nests (transitively) under the root.
            prop_assert_eq!(
                roots.len(), 1,
                "{}: expected a single root, got {:?}",
                name,
                roots.iter().map(|s| s.name).collect::<Vec<_>>()
            );
        }
    }
}

// -------------------------------------------------------- reproducibility

/// Build every golden twice in one process and compare digests. The
/// `TRACE` lines this prints are diffed across two executions by
/// `scripts/ci.sh`, pinning cross-run determinism of the whole corpus.
#[test]
fn golden_traces_are_reproducible() {
    for golden in all_goldens() {
        let first = trace_digest(&(golden.build)());
        let second = trace_digest(&(golden.build)());
        assert_eq!(
            first, second,
            "{}: trace differs between two in-process builds",
            golden.name
        );
        println!("TRACE {} {first:016x}", golden.name);
    }
}

/// Backend equivalence, in process: the same event-driven workload run on
/// the timing wheel and on the reference heap must export byte-identical
/// traces — the wheel's FIFO same-instant tie-break reproduces heap
/// `(at, id)` order exactly, including around cancellations.
#[test]
fn engine_trace_is_backend_independent() {
    struct W {
        tracer: Arc<Tracer>,
        left: u64,
    }
    fn tick(eng: &mut Engine<W>, w: &mut W) {
        let now = eng.now();
        w.tracer.record(
            sym!("des.tick"),
            Stage::Other,
            now,
            now + SimSpan::nanos(5),
            [],
        );
        if w.left > 0 {
            w.left -= 1;
            eng.after(SimSpan::nanos(w.left % 9 * 17 + 1), tick);
        }
    }
    let build = |backend: DesBackend| {
        let mut eng = Engine::<W>::with_backend(backend);
        let mut w = W {
            tracer: Tracer::new(),
            left: 400,
        };
        // Colliding start instants exercise the same-tick FIFO tie-break.
        for i in 0..8u64 {
            eng.at(SimTime(i % 3 + 1), tick);
        }
        let doomed = eng.at(SimTime(2), |eng: &mut Engine<W>, w: &mut W| {
            let now = eng.now();
            w.tracer
                .record(sym!("des.doomed"), Stage::Other, now, now, []);
        });
        eng.cancel(doomed);
        eng.run_to_completion(&mut w, 10_000);
        w.tracer.finished()
    };
    let wheel = build(DesBackend::TimingWheel);
    let heap = build(DesBackend::ReferenceHeap);
    assert!(
        wheel.len() > 400,
        "workload too small: {} spans",
        wheel.len()
    );
    assert!(
        !wheel.iter().any(|s| s.name == "des.doomed"),
        "cancelled event fired"
    );
    assert_eq!(
        trace_digest(&wheel),
        trace_digest(&heap),
        "trace digest differs between wheel and reference heap"
    );
    assert_eq!(
        export_tsv(&wheel),
        export_tsv(&heap),
        "trace bytes differ between wheel and reference heap"
    );
}

/// Re-exec helper: emits the quickstart trace between markers when asked.
/// As a normal test-suite member (no env var) it is a no-op.
#[test]
fn child_emit_quickstart_trace() {
    if std::env::var("TRACE_CHILD").is_err() {
        return;
    }
    println!("TRACE-BEGIN");
    print!("{}", export_tsv(&quickstart_trace()));
    println!("TRACE-END");
}

/// Re-exec this binary's `child_emit_quickstart_trace` and return the TSV
/// it emitted between the markers.
fn run_trace_child() -> String {
    let exe = std::env::current_exe().expect("test binary path");
    let out = Command::new(&exe)
        .args(["child_emit_quickstart_trace", "--exact", "--nocapture"])
        .env("TRACE_CHILD", "1")
        .output()
        .expect("child test run");
    assert!(out.status.success(), "child failed: {out:?}");
    let text = String::from_utf8(out.stdout).expect("utf8 output");
    let begin = text.find("TRACE-BEGIN\n").expect("begin marker") + "TRACE-BEGIN\n".len();
    let end = text.find("TRACE-END").expect("end marker");
    text[begin..end].to_string()
}

/// Seed-stability regression: two independent processes must serialize the
/// identical quickstart trace, byte for byte — no hidden dependence on
/// process state (ASLR, hash seeds, wall clock).
#[test]
fn quickstart_trace_is_stable_across_processes() {
    let first = run_trace_child();
    let second = run_trace_child();
    assert!(first.lines().count() > 1, "child emitted no spans");
    assert_eq!(first, second, "trace differs across processes");
}
