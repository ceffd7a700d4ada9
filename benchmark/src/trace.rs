//! The harness's own wall-clock tracing: spans around every call it makes
//! into a layer, kept in memory and written out once at exit, plus a
//! ledger of work done inside named spans so a rate is measured where the
//! work happens. Switched off, every entry point is a branch and nothing
//! else, which is how the end-to-end pass runs.
//!
//! What is read back out is a floor, as everywhere in this harness (see
//! `harness.rs`): a stage's time is the fastest its class of op spent in
//! it, a rate is the best any one op reached.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The op this span belongs to; see [`is_setup`].
    pub op: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Trace::begin`]; `None` inside when tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// Work booked under one name during one op.
#[derive(Debug, Clone, Copy)]
struct Work {
    op: u32,
    amount: f64,
    ns: u64,
}

/// Set-up repetition `k` records its spans under op id `u32::MAX - k`.
const SETUP_OPS: u32 = 1 << 10;

pub fn is_setup(op: u32) -> bool {
    op > u32::MAX - SETUP_OPS
}

pub struct Trace {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u32,
    work: BTreeMap<&'static str, Vec<Work>>,
}

impl Trace {
    /// `capacity` spans are allocated up front so recording one never
    /// reallocates inside a timed region in the common case.
    pub fn new(on: bool, capacity: usize) -> Trace {
        Trace {
            on,
            origin: Instant::now(),
            spans: Vec::with_capacity(if on { capacity } else { 0 }),
            stack: Vec::with_capacity(16),
            op: u32::MAX,
            work: BTreeMap::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    /// What follows belongs to set-up repetition `k`.
    pub fn set_setup(&mut self, k: u32) {
        self.op = u32::MAX - k.min(SETUP_OPS - 1);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(idx);
        SpanId(Some(idx))
    }

    /// Close `id` (and anything left open inside it, which an early
    /// return can cause); returns its duration in ns, 0 when off.
    pub fn end(&mut self, id: SpanId) -> u64 {
        let Some(idx) = id.0 else { return 0 };
        let now = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = now;
            if top == idx {
                break;
            }
        }
        self.spans[idx].dur_ns()
    }

    /// A span around `f`.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// A span around `f` whose duration is also booked in the ledger
    /// against `amount` units of work (bytes, calls, records).
    pub fn work<T>(&mut self, name: &'static str, amount: f64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        let ns = self.end(id);
        self.book(name, amount, ns);
        out
    }

    /// Book `amount` units done in `ns` under `name` (for work whose size
    /// is only known once it is done).
    pub fn book(&mut self, name: &'static str, amount: f64, ns: u64) {
        if !self.on {
            return;
        }
        let booked = self.work.entry(name).or_default();
        match booked.last_mut() {
            Some(w) if w.op == self.op => {
                w.amount += amount;
                w.ns += ns;
            }
            _ => booked.push(Work {
                op: self.op,
                amount,
                ns,
            }),
        }
    }

    /// Nanoseconds per unit of work booked under `name`, in the op that
    /// did it fastest; 0 if none.
    pub fn ns_per_unit(&self, name: &str) -> f64 {
        self.work
            .get(name)
            .into_iter()
            .flatten()
            .filter(|w| w.amount > 0.0 && w.ns > 0)
            .map(|w| w.ns as f64 / w.amount)
            .min_by(f64::total_cmp)
            .unwrap_or(0.0)
    }

    /// Units of work per second booked under `name`, in the op that did
    /// it fastest; 0 if none.
    pub fn per_second(&self, name: &str) -> f64 {
        match self.ns_per_unit(name) {
            ns if ns > 0.0 => 1e9 / ns,
            _ => 0.0,
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its direct children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Host time per op inside the spans called `name`, in ms: their
    /// self times summed per op, the fastest op of each of `classes`
    /// classes (set-up repetitions are one class), the median class.
    pub fn floor_self_ms(&self, name: &str, classes: usize) -> f64 {
        let own = self.self_ns();
        let mut per_op: BTreeMap<u32, u64> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(own) {
            if s.name == name {
                *per_op.entry(s.op).or_default() += ns;
            }
        }
        let mut floor: BTreeMap<usize, u64> = BTreeMap::new();
        for (op, ns) in per_op {
            let class = if is_setup(op) {
                usize::MAX
            } else {
                op as usize % classes.max(1)
            };
            let f = floor.entry(class).or_insert(u64::MAX);
            *f = (*f).min(ns);
        }
        let floors: Vec<f64> = floor.values().map(|ns| *ns as f64 / 1e6).collect();
        crate::stats::median(&floors)
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one
    /// complete event per span, microsecond timestamps.
    pub fn chrome_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 2);
        out.push('[');
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let op = if is_setup(s.op) { -1 } else { s.op as i64 };
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{}.{:03},\"dur\":{}.{:03},\"args\":{{\"op\":{}}}}}",
                s.name,
                s.start_ns / 1000,
                s.start_ns % 1000,
                s.dur_ns() / 1000,
                s.dur_ns() % 1000,
                op
            );
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut t = Trace::new(true, 8);
        t.spans = vec![
            span("op", 0, 100, None),
            span("pull", 10, 40, Some(0)),
            span("fetch", 15, 25, Some(1)),
            span("prepare", 40, 90, Some(0)),
        ];
        assert_eq!(t.self_ns(), vec![20, 20, 10, 50]);
        assert_eq!(t.floor_self_ms("prepare", 1), 50.0 / 1e6);
        assert_eq!(t.floor_self_ms("absent", 1), 0.0);
    }

    #[test]
    fn stage_time_is_the_median_class_at_its_fastest_op() {
        let mut t = Trace::new(true, 8);
        let stage = |op: u32, ns: u64| Span {
            op,
            ..span("stage", 0, ns, None)
        };
        // Two classes: ops 0 and 2 (floor 10), ops 1 and 3 (floor 30);
        // op 3 spends its time in two spans.
        t.spans = vec![
            stage(0, 10),
            stage(1, 50),
            stage(2, 90),
            stage(3, 10),
            stage(3, 20),
        ];
        assert_eq!(t.floor_self_ms("stage", 2), 20.0 / 1e6);
        assert_eq!(t.floor_self_ms("stage", 1), 10.0 / 1e6);
    }

    #[test]
    fn spans_nest_and_early_exit_closes_children() {
        let mut t = Trace::new(true, 8);
        let op = t.begin("op");
        let _inner = t.begin("inner");
        t.end(op);
        let next = t.begin("next");
        t.end(next);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[2].parent, None);
        assert!(t.spans()[1].end_ns <= t.spans()[0].end_ns);
    }

    #[test]
    fn off_records_nothing_and_still_runs_the_work() {
        let mut t = Trace::new(false, 8);
        let v = t.work("x", 10.0, || 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
        assert_eq!(t.per_second("x"), 0.0);
    }

    #[test]
    fn ledger_turns_work_into_the_best_ops_rate() {
        let mut t = Trace::new(true, 8);
        t.set_op(0);
        t.book("hash", 2e6, 1_000_000_000);
        t.book("hash", 2e6, 1_000_000_000);
        t.set_op(1);
        t.book("hash", 4e6, 4_000_000_000);
        assert_eq!(t.per_second("hash"), 2e6);
        assert_eq!(t.ns_per_unit("hash"), 500.0);
        assert_eq!(t.per_second("absent"), 0.0);
    }

    #[test]
    fn chrome_json_has_one_event_per_span() {
        let mut t = Trace::new(true, 8);
        t.leaf("a", || ());
        t.leaf("b", || ());
        let json = t.chrome_json();
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.trim_start().starts_with('[') && json.trim_end().ends_with(']'));
    }
}
