//! Deterministic parallel task execution over logical time.
//!
//! The image-distribution hot path (pull → convert → cache → run) is a DAG
//! of arrival→completion operations: blob fetches, per-layer conversions,
//! seed pulls, stage-ins. The surveyed engines win startup time by running
//! those tasks concurrently (Sarus-style parallel layer distribution,
//! SquashFS conversion pipelines), so the testbed needs a way to *overlap*
//! simulated work without giving up determinism.
//!
//! [`Executor`] is a greedy list scheduler over a bounded worker pool:
//!
//! * Tasks are added to a [`TaskGraph`] in program order and receive dense
//!   [`TaskId`]s. Dependency edges only point backwards (a task may depend
//!   only on already-added tasks), so the graph is a DAG by construction.
//! * Scheduling is fully deterministic: at every step the earliest-free
//!   worker (ties broken by lowest worker index) is paired with the ready
//!   task that can start earliest (ties broken by lowest task id).
//! * A task body is an arrival→completion closure: it receives its start
//!   time and returns its completion time (plus optional span attributes).
//!   Bodies run sequentially on the caller's thread in schedule order —
//!   the *parallelism is logical*, which keeps fault-injector RNG draws
//!   and metrics updates in a reproducible order.
//! * With `workers == 1` the schedule degenerates to running the tasks in
//!   id order, each starting at the previous completion — byte-identical
//!   to the sequential fold the pipeline used before this module existed.
//!
//! Every executed task is recorded as a span on the provided [`Tracer`]
//! (name, stage, worker index, caller attributes), so golden traces keep
//! pinning the overlap structure.

use crate::intern::Symbol;
use crate::obs::{AttrValue, Stage, Tracer};
use crate::time::SimTime;

/// Identifier of a task within one [`TaskGraph`] (dense, creation order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub usize);

/// What a finished task body reports back: its completion instant and any
/// attributes to attach to the task's trace span.
#[derive(Debug, Clone)]
pub struct TaskFinish {
    pub done: SimTime,
    pub attrs: Vec<(Symbol, AttrValue)>,
}

impl TaskFinish {
    /// A completion with no extra span attributes.
    pub fn at(done: SimTime) -> TaskFinish {
        TaskFinish {
            done,
            attrs: Vec::new(),
        }
    }

    /// Attach a span attribute.
    pub fn attr(mut self, key: impl Into<Symbol>, value: impl Into<AttrValue>) -> TaskFinish {
        self.attrs.push((key.into(), value.into()));
        self
    }
}

type TaskBody<'a, E> = Box<dyn FnOnce(SimTime) -> Result<TaskFinish, E> + 'a>;

struct Task<'a, E> {
    name: Symbol,
    stage: Stage,
    deps: Vec<TaskId>,
    body: TaskBody<'a, E>,
}

/// A DAG of arrival→completion tasks, built in program order.
pub struct TaskGraph<'a, E> {
    tasks: Vec<Task<'a, E>>,
}

impl<'a, E> Default for TaskGraph<'a, E> {
    fn default() -> Self {
        TaskGraph::new()
    }
}

impl<'a, E> TaskGraph<'a, E> {
    pub fn new() -> TaskGraph<'a, E> {
        TaskGraph { tasks: Vec::new() }
    }

    /// Add a task. `deps` must reference previously-added tasks (the only
    /// kind of [`TaskId`] obtainable), which makes cycles unrepresentable.
    pub fn add(
        &mut self,
        name: impl Into<Symbol>,
        stage: Stage,
        deps: &[TaskId],
        body: impl FnOnce(SimTime) -> Result<TaskFinish, E> + 'a,
    ) -> TaskId {
        let id = TaskId(self.tasks.len());
        debug_assert!(
            deps.iter().all(|d| d.0 < id.0),
            "deps must be earlier tasks"
        );
        self.tasks.push(Task {
            name: name.into(),
            stage,
            deps: deps.to_vec(),
            body: Box::new(body),
        });
        id
    }

    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }
}

/// A task body failed; scheduling stops at the first failure (which is
/// deterministic, because the schedule is).
#[derive(Debug)]
pub struct ExecError<E> {
    pub task: TaskId,
    pub name: Symbol,
    pub error: E,
    /// Latest instant the schedule reached before stopping: the failed
    /// task's start or the finish of any already-recorded task,
    /// whichever is later. Callers closing enclosing spans on failure
    /// must use this (not their pre-executor clock) so recorded task
    /// spans stay nested.
    pub stopped_at: SimTime,
}

impl<E: std::fmt::Display> std::fmt::Display for ExecError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task #{} ({}): {}", self.task.0, self.name, self.error)
    }
}

impl<E: std::fmt::Display + std::fmt::Debug> std::error::Error for ExecError<E> {}

/// Per-task timing of a completed schedule.
#[derive(Debug, Clone)]
pub struct ExecReport {
    /// Start instant per task (task-id order).
    pub started: Vec<SimTime>,
    /// Completion instant per task (task-id order).
    pub finished: Vec<SimTime>,
    /// Completion of the whole graph: max finish, or the start time for an
    /// empty graph.
    pub end: SimTime,
}

impl ExecReport {
    /// The maximum number of tasks in flight at any instant (a schedule
    /// with `workers = p` never exceeds `p`).
    pub fn peak_concurrency(&self) -> usize {
        let mut events: Vec<(SimTime, i32)> = Vec::with_capacity(self.started.len() * 2);
        for (s, f) in self.started.iter().zip(&self.finished) {
            events.push((*s, 1));
            events.push((*f, -1));
        }
        // Ends sort before starts at the same instant (-1 < 1), so a task
        // starting exactly when another finishes does not double-count.
        events.sort();
        let mut cur = 0i32;
        let mut peak = 0i32;
        for (_, d) in events {
            cur += d;
            peak = peak.max(cur);
        }
        peak.max(0) as usize
    }
}

/// Bounded-worker greedy list scheduler over logical time.
#[derive(Debug, Clone, Copy)]
pub struct Executor {
    workers: usize,
}

impl Executor {
    /// An executor with `workers` slots (clamped to at least 1).
    pub fn new(workers: usize) -> Executor {
        Executor {
            workers: workers.max(1),
        }
    }

    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Run the graph to completion starting at `start`. Each executed task
    /// is recorded as a span on `tracer`. Returns per-task timing, or the
    /// first task failure in schedule order.
    pub fn run<'a, E>(
        &self,
        graph: TaskGraph<'a, E>,
        start: SimTime,
        tracer: &Tracer,
    ) -> Result<ExecReport, ExecError<E>> {
        let n = graph.tasks.len();
        let mut indegree = vec![0usize; n];
        let mut successors: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, t) in graph.tasks.iter().enumerate() {
            indegree[i] = t.deps.len();
            for d in &t.deps {
                successors[d.0].push(i);
            }
        }

        // `ready_at[i]` is meaningful once indegree[i] == 0: the earliest
        // instant the task's dependencies allow it to start.
        let mut ready_at = vec![start; n];
        let mut ready: std::collections::BTreeSet<usize> = indegree
            .iter()
            .enumerate()
            .filter_map(|(i, d)| (*d == 0).then_some(i))
            .collect();

        let mut workers = vec![start; self.workers];
        let mut started = vec![start; n];
        let mut finished = vec![start; n];
        let mut bodies: Vec<Option<TaskBody<'a, E>>> = graph.tasks.iter().map(|_| None).collect();
        let mut names = Vec::with_capacity(n);
        let mut stages = Vec::with_capacity(n);
        for (slot, t) in bodies.iter_mut().zip(graph.tasks) {
            names.push(t.name);
            stages.push(t.stage);
            *slot = Some(t.body);
        }

        let mut scheduled = 0usize;
        while scheduled < n {
            // Earliest-free worker; ties broken by lowest index.
            let (widx, wfree) = workers
                .iter()
                .copied()
                .enumerate()
                .min_by_key(|(i, t)| (*t, *i))
                .expect("worker pool is non-empty");
            // Ready task that can start earliest; ties broken by task id.
            let (tid, est) = ready
                .iter()
                .map(|&t| (t, ready_at[t].max(wfree)))
                .min_by_key(|&(t, est)| (est, t))
                .expect("a DAG always has a ready task while unscheduled remain");
            ready.remove(&tid);

            let body = bodies[tid].take().expect("each task runs once");
            let fin = body(est).map_err(|error| ExecError {
                task: TaskId(tid),
                name: names[tid],
                error,
                stopped_at: finished.iter().copied().max().unwrap_or(start).max(est),
            })?;
            let done = fin.done.max(est);
            tracer.record(
                names[tid],
                stages[tid],
                est,
                done,
                [
                    (crate::sym!("task"), tid.into()),
                    (crate::sym!("worker"), widx.into()),
                ]
                .into_iter()
                .chain(fin.attrs),
            );
            started[tid] = est;
            finished[tid] = done;
            workers[widx] = done;
            scheduled += 1;

            for &s in &successors[tid] {
                ready_at[s] = ready_at[s].max(done);
                indegree[s] -= 1;
                if indegree[s] == 0 {
                    ready.insert(s);
                }
            }
        }

        // Sim barrier: the schedule is complete, land buffered span metrics.
        tracer.flush();

        let end = finished.iter().copied().max().unwrap_or(start);
        Ok(ExecReport {
            started,
            finished,
            end,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimSpan;
    use std::convert::Infallible;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimSpan::millis(ms)
    }

    /// A fixed-duration task body.
    fn cost(ms: u64) -> impl FnOnce(SimTime) -> Result<TaskFinish, Infallible> {
        move |at| Ok(TaskFinish::at(at + SimSpan::millis(ms)))
    }

    #[test]
    fn single_worker_runs_in_id_order_sequentially() {
        let tracer = Tracer::disabled();
        let mut g: TaskGraph<'_, Infallible> = TaskGraph::new();
        for ms in [5, 3, 7] {
            g.add("t", Stage::Other, &[], cost(ms));
        }
        let report = Executor::new(1).run(g, t(0), &tracer).unwrap();
        assert_eq!(report.started, vec![t(0), t(5), t(8)]);
        assert_eq!(report.finished, vec![t(5), t(8), t(15)]);
        assert_eq!(report.end, t(15));
        assert_eq!(report.peak_concurrency(), 1);
    }

    #[test]
    fn parallel_workers_overlap_independent_tasks() {
        let tracer = Tracer::disabled();
        let mut g: TaskGraph<'_, Infallible> = TaskGraph::new();
        for _ in 0..4 {
            g.add("t", Stage::Other, &[], cost(10));
        }
        let report = Executor::new(4).run(g, t(0), &tracer).unwrap();
        assert_eq!(report.end, t(10));
        assert_eq!(report.peak_concurrency(), 4);
        let two = {
            let mut g: TaskGraph<'_, Infallible> = TaskGraph::new();
            for _ in 0..4 {
                g.add("t", Stage::Other, &[], cost(10));
            }
            Executor::new(2).run(g, t(0), &tracer).unwrap()
        };
        assert_eq!(two.end, t(20));
        assert_eq!(two.peak_concurrency(), 2);
    }

    #[test]
    fn dependencies_serialize_chains() {
        let tracer = Tracer::disabled();
        let mut g: TaskGraph<'_, Infallible> = TaskGraph::new();
        let a = g.add("a", Stage::Other, &[], cost(10));
        let b = g.add("b", Stage::Other, &[a], cost(10));
        g.add("c", Stage::Other, &[b], cost(10));
        g.add("d", Stage::Other, &[], cost(5));
        let report = Executor::new(8).run(g, t(0), &tracer).unwrap();
        // Chain a→b→c takes 30ms regardless of workers; d overlaps.
        assert_eq!(report.end, t(30));
        assert_eq!(report.started[3], t(0));
        assert_eq!(report.finished[3], t(5));
    }

    #[test]
    fn tie_break_is_by_task_id() {
        let tracer = Tracer::new();
        let mut g: TaskGraph<'_, Infallible> = TaskGraph::new();
        g.add("late", Stage::Other, &[], cost(1));
        g.add("early", Stage::Other, &[], cost(1));
        let report = Executor::new(1).run(g, t(0), &tracer).unwrap();
        // Equal estimated starts: lower id (added first) wins the worker.
        assert!(report.started[0] < report.started[1]);
        let spans = tracer.finished();
        assert_eq!(spans[0].name, "late");
        assert_eq!(spans[1].name, "early");
    }

    #[test]
    fn errors_abort_in_schedule_order() {
        let tracer = Tracer::disabled();
        let mut g: TaskGraph<'_, String> = TaskGraph::new();
        g.add("ok", Stage::Other, &[], |at| {
            Ok(TaskFinish::at(at + SimSpan::millis(1)))
        });
        g.add("boom", Stage::Other, &[], |_| Err("exploded".to_string()));
        g.add("never", Stage::Other, &[], |_| {
            panic!("must not run after a failure")
        });
        let err = Executor::new(1).run(g, t(0), &tracer).unwrap_err();
        assert_eq!(err.task, TaskId(1));
        assert_eq!(err.name, "boom");
        assert_eq!(err.error, "exploded");
    }

    #[test]
    fn spans_carry_worker_and_custom_attrs() {
        let tracer = Tracer::new();
        let mut g: TaskGraph<'_, Infallible> = TaskGraph::new();
        g.add("fetch", Stage::Pull, &[], |at| {
            Ok(TaskFinish::at(at + SimSpan::millis(2)).attr("bytes", 512))
        });
        Executor::new(3).run(g, t(0), &tracer).unwrap();
        let spans = tracer.finished();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "fetch");
        assert_eq!(spans[0].stage, Stage::Pull);
        let attrs: std::collections::BTreeMap<_, _> = spans[0]
            .attrs
            .iter()
            .map(|(k, v)| (k.as_str(), v.clone()))
            .collect();
        assert_eq!(attrs["worker"], AttrValue::U64(0));
        assert_eq!(attrs["task"], AttrValue::U64(0));
        assert_eq!(attrs["bytes"], AttrValue::U64(512));
    }

    #[test]
    fn empty_graph_ends_at_start() {
        let tracer = Tracer::disabled();
        let g: TaskGraph<'_, Infallible> = TaskGraph::new();
        let report = Executor::new(4).run(g, t(7), &tracer).unwrap();
        assert_eq!(report.end, t(7));
        assert_eq!(report.peak_concurrency(), 0);
    }

    #[test]
    fn makespan_never_increases_with_more_workers() {
        let durations: Vec<u64> = (0..20).map(|i| (i * 7) % 13 + 1).collect();
        let run = |workers: usize| {
            let tracer = Tracer::disabled();
            let mut g: TaskGraph<'_, Infallible> = TaskGraph::new();
            let mut prev: Option<TaskId> = None;
            for (i, ms) in durations.iter().enumerate() {
                // Every third task chains on the previous one.
                let deps: Vec<TaskId> = match prev {
                    Some(p) if i % 3 == 0 => vec![p],
                    _ => vec![],
                };
                prev = Some(g.add("t", Stage::Other, &deps, cost(*ms)));
            }
            Executor::new(workers).run(g, t(0), &tracer).unwrap().end
        };
        let mut last = run(1);
        for w in [2, 4, 8, 16] {
            let now = run(w);
            assert!(now <= last, "{w} workers regressed: {now} > {last}");
            last = now;
        }
    }
}
