//! Properties of the parallel pull→convert pipeline (the `hpcc-sim`
//! executor plus the engine that drives it):
//!
//! * with one worker the executor is **byte-identical** to the plain
//!   sequential fold it replaced — same spans, same makespan;
//! * any worker count yields the same work (every task runs once, same
//!   completion semantics) with a makespan never above the sequential
//!   one, and never more than `workers` tasks in flight;
//! * at the engine level, pipeline parallelism is a pure schedule
//!   knob: pulled digests and blob-store contents are identical at every
//!   parallelism, and the cold makespan never grows with more workers.

use hpcc_engine::engine::Host;
use hpcc_engine::engines;
use hpcc_oci::builder::samples;
use hpcc_oci::cas::Cas;
use hpcc_registry::registry::{Registry, RegistryCaps};
use hpcc_sim::obs::{diff_traces, SpanRecord, Stage, Tracer};
use hpcc_sim::sym;
use hpcc_sim::{Executor, SimClock, SimSpan, SimTime, TaskFinish, TaskGraph, TaskId};
use hpcc_storage::BlobStore;
use proptest::prelude::*;
use std::convert::Infallible;
use std::sync::Arc;

/// A random DAG: per task, a duration and dependencies on earlier tasks.
/// Dep indices come from raw `u64`s reduced modulo the task's id, so the
/// shape is valid by construction.
fn arb_dag() -> impl Strategy<Value = Vec<(u64, Vec<usize>)>> {
    collection::vec((0u64..50_000, any::<[u64; 3]>(), 0usize..4), 1..32).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (dur, picks, n_deps))| {
                let mut deps: Vec<usize> = if i == 0 {
                    Vec::new()
                } else {
                    picks[..n_deps.min(3)]
                        .iter()
                        .map(|r| (*r % i as u64) as usize)
                        .collect()
                };
                deps.sort_unstable();
                deps.dedup();
                (dur, deps)
            })
            .collect()
    })
}

/// Run a DAG on the executor; return its trace and per-task report.
fn run_on_executor(
    dag: &[(u64, Vec<usize>)],
    workers: usize,
) -> (Vec<SpanRecord>, hpcc_sim::ExecReport) {
    let tracer = Tracer::new();
    let mut graph: TaskGraph<'_, Infallible> = TaskGraph::new();
    let mut ids: Vec<TaskId> = Vec::new();
    for (i, (dur, deps)) in dag.iter().enumerate() {
        let deps: Vec<TaskId> = deps.iter().map(|d| ids[*d]).collect();
        let dur = SimSpan(*dur);
        ids.push(
            graph.add(format!("task{i}"), Stage::Other, &deps, move |est| {
                Ok(TaskFinish::at(est + dur))
            }),
        );
    }
    let report = Executor::new(workers)
        .run(graph, SimTime::ZERO, &tracer)
        .expect("infallible tasks");
    (tracer.finished(), report)
}

/// The pre-executor reference: tasks in id order, each starting where the
/// previous one finished, spans recorded the way the executor records
/// them (worker 0 throughout).
fn run_sequential_reference(dag: &[(u64, Vec<usize>)]) -> (Vec<SpanRecord>, SimTime) {
    let tracer = Tracer::new();
    let mut now = SimTime::ZERO;
    for (i, (dur, _)) in dag.iter().enumerate() {
        let done = now + SimSpan(*dur);
        tracer.record(
            format!("task{i}"),
            Stage::Other,
            now,
            done,
            [(sym!("task"), i.into()), (sym!("worker"), 0usize.into())],
        );
        now = done;
    }
    (tracer.finished(), now)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn one_worker_is_byte_identical_to_sequential_fold(dag in arb_dag()) {
        let (seq_trace, seq_end) = run_sequential_reference(&dag);
        let (exec_trace, report) = run_on_executor(&dag, 1);
        let diffs = diff_traces(&seq_trace, &exec_trace);
        prop_assert!(diffs.is_empty(), "P=1 trace diverged: {}", diffs.join("\n"));
        prop_assert_eq!(report.end, seq_end);
    }

    #[test]
    fn any_parallelism_completes_all_work_no_later_than_sequential(
        dag in arb_dag(),
        workers in 2usize..9,
    ) {
        let (_, seq) = run_on_executor(&dag, 1);
        let (trace, par) = run_on_executor(&dag, workers);
        // Same work: every task ran exactly once.
        prop_assert_eq!(trace.len(), dag.len());
        let mut names: Vec<&str> = trace.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        let mut expected: Vec<String> = (0..dag.len()).map(|i| format!("task{i}")).collect();
        expected.sort();
        prop_assert_eq!(names, expected.iter().map(|s| s.as_str()).collect::<Vec<_>>());
        // A work-conserving schedule never loses to the sequential one.
        prop_assert!(
            par.end <= seq.end,
            "makespan grew: {} workers {:?} vs sequential {:?}",
            workers, par.end, seq.end
        );
        // The worker bound holds.
        prop_assert!(par.peak_concurrency() <= workers);
        // Dependencies are respected in the realized schedule.
        for (i, (_, deps)) in dag.iter().enumerate() {
            for d in deps {
                prop_assert!(par.finished[*d] <= par.started[i]);
            }
        }
    }
}

// ------------------------------------------------- engine-level properties

fn bench_registry() -> Registry {
    let cas = Cas::new();
    let img = samples::python_app(&cas, 48);
    let registry = Registry::new("par-site", RegistryCaps::open());
    registry.create_namespace("hpc", None).unwrap();
    registry
        .push_image("hpc/pyapp", "v1", &img.manifest, &cas)
        .unwrap();
    registry
}

/// Pull + prepare at one parallelism; return (store digests, cold ns).
fn pull_at(registry: &Registry, parallelism: usize) -> (Vec<hpcc_crypto::sha256::Digest>, u64) {
    let engine = engines::podman_hpc();
    engine.set_parallelism(parallelism);
    let store = BlobStore::node_local();
    engine.set_blob_store(Arc::clone(&store));
    let clock = SimClock::new();
    let t0 = clock.now();
    let pulled = engine
        .pull(registry, "hpc/pyapp", "v1", &clock)
        .expect("pull succeeds");
    engine
        .prepare(&pulled, 1000, &Host::compute_node(), true, &clock)
        .expect("prepare succeeds");
    (store.digests(), clock.now().since(t0).0)
}

#[test]
fn engine_parallelism_changes_only_the_schedule() {
    let registry = bench_registry();
    let (digests_p1, cold_p1) = pull_at(&registry, 1);
    assert!(!digests_p1.is_empty(), "cold pull populates the blob store");
    for parallelism in [2, 4, 16] {
        let (digests, cold) = pull_at(&registry, parallelism);
        assert_eq!(
            digests, digests_p1,
            "blob-store contents must not depend on parallelism"
        );
        assert!(
            cold <= cold_p1,
            "parallelism {parallelism} cold makespan {cold} ns exceeds sequential {cold_p1} ns"
        );
    }
}

#[test]
fn engine_pull_is_deterministic_at_fixed_parallelism() {
    let registry = bench_registry();
    let a = pull_at(&registry, 4);
    let b = pull_at(&registry, 4);
    assert_eq!(a, b);
}
