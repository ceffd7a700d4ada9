//! Observability over logical time: hierarchical spans and exporters.
//!
//! The survey's quantitative claims are where-does-the-time-go arguments:
//! §4.1.4 metadata pressure, §5.1.3 registry limits, §6 startup/utilization
//! trade-offs. This module lets every experiment answer them per stage. A
//! [`Tracer`] collects [`SpanRecord`]s keyed to the logical clock —
//! hierarchical (parent ids), stage-tagged, attributed — next to the
//! counters/histograms of a shared [`MetricsRegistry`].
//!
//! Two properties the rest of the testbed depends on:
//!
//! * **Zero cost when disabled.** Every component defaults to
//!   [`Tracer::disabled`]; all operations early-return without touching a
//!   lock, the clock, or the RNG, so instrumented code is bit-identical to
//!   uninstrumented code unless a tracer is installed (the same contract as
//!   [`crate::FaultInjector::disabled`]).
//! * **Byte determinism.** The clock is logical and the RNG seeded, so an
//!   exported trace is a pure function of (workload, seed). The golden-trace
//!   harness in `tests/integration_traces.rs` diffs exports byte-for-byte
//!   across runs and structurally against checked-in goldens.
//!
//! Exporter: a flat TSV that round-trips through [`parse_tsv`] for golden
//! storage.

use crate::intern::Symbol;
use crate::metrics::{CounterBatch, Histogram, MetricsRegistry};
use crate::time::{SimSpan, SimTime};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};

/// Pipeline stage a span (or a fault-layer retry) belongs to. The same tag
/// is threaded through [`crate::RetryPolicy`] trace lines so obs spans and
/// fault traces join on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Image pull from a registry (direct, proxy or mirror).
    Pull,
    /// Format conversion (OCI layers → squash/SIF/unpacked).
    Convert,
    /// Image cache lookup/population.
    Cache,
    /// Container create/start/stop.
    Run,
    /// Registry/proxy request handling.
    Request,
    /// Shared-FS and P2P data movement.
    Storage,
    /// WLM scheduling, prolog/epilog, job lifecycle.
    Schedule,
    /// Kubelet pod lifecycle.
    Pod,
    /// Adaptive partition control plane: controller decisions, node
    /// reprovision/return cycles (§6.1's dynamic partitioning, closed-loop).
    Adapt,
    /// Anything else (tests, harness plumbing).
    Other,
}

impl Stage {
    /// Stable lower-case label used in trace lines and exports.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Pull => "pull",
            Stage::Convert => "convert",
            Stage::Cache => "cache",
            Stage::Run => "run",
            Stage::Request => "request",
            Stage::Storage => "storage",
            Stage::Schedule => "schedule",
            Stage::Pod => "pod",
            Stage::Adapt => "adapt",
            Stage::Other => "other",
        }
    }

    /// Parse a label produced by [`Stage::label`].
    pub(crate) fn from_label(s: &str) -> Option<Stage> {
        Some(match s {
            "pull" => Stage::Pull,
            "convert" => Stage::Convert,
            "cache" => Stage::Cache,
            "run" => Stage::Run,
            "request" => Stage::Request,
            "storage" => Stage::Storage,
            "schedule" => Stage::Schedule,
            "pod" => Stage::Pod,
            "adapt" => Stage::Adapt,
            "other" => Stage::Other,
            _ => return None,
        })
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Identifier of a span within one tracer. `0` is the invalid id returned
/// by a disabled tracer; real ids start at 1 and increase in creation order.
pub type SpanId = u64;

/// A span attribute value. Ids, sizes, counts and flags stay numbers until
/// an exporter formats them, so a query over spans reads them without
/// parsing; free text (error messages, image references) is `Str`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttrValue {
    U64(u64),
    Bool(bool),
    /// An interned label (a tier, a policy): a copy, not an allocation.
    Sym(Symbol),
    Str(String),
}

impl AttrValue {
    /// The value as the flat formats write it: numbers in decimal, flags
    /// as `true`/`false`, text with the separators mapped away. A `\r`
    /// goes too: the parser's line split drops one that ends a line.
    fn write_sanitized(&self, out: &mut String) {
        let text = |out: &mut String, text: &str| {
            out.extend(text.chars().map(|c| match c {
                '\t' | '\n' | '\r' => ' ',
                ',' => ';',
                c => c,
            }))
        };
        match self {
            AttrValue::U64(n) => {
                let _ = write!(out, "{n}");
            }
            AttrValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            AttrValue::Sym(s) => text(out, s.as_str()),
            AttrValue::Str(s) => text(out, s),
        }
    }

    /// The inverse of [`AttrValue::write_sanitized`] up to type: a
    /// canonical decimal (no sign, no leading zero, fits a `u64`) reads
    /// back as `U64`, `true`/`false` as `Bool`, anything else as `Str`.
    fn parse(v: &str) -> AttrValue {
        match v {
            "true" => return AttrValue::Bool(true),
            "false" => return AttrValue::Bool(false),
            _ => {}
        }
        let canonical = v.bytes().all(|b| b.is_ascii_digit()) && (v == "0" || !v.starts_with('0'));
        match v.parse() {
            Ok(n) if canonical => AttrValue::U64(n),
            _ => AttrValue::Str(v.to_string()),
        }
    }
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> AttrValue {
        AttrValue::U64(v)
    }
}

impl From<u32> for AttrValue {
    fn from(v: u32) -> AttrValue {
        AttrValue::U64(v.into())
    }
}

impl From<usize> for AttrValue {
    fn from(v: usize) -> AttrValue {
        AttrValue::U64(v as u64)
    }
}

/// A negative number has no `U64`; it is kept as the text the exporter
/// would write, which the parser reads back the same way.
impl From<i32> for AttrValue {
    fn from(v: i32) -> AttrValue {
        u64::try_from(v).map_or_else(|_| AttrValue::Str(v.to_string()), AttrValue::U64)
    }
}

impl From<bool> for AttrValue {
    fn from(v: bool) -> AttrValue {
        AttrValue::Bool(v)
    }
}

impl From<Symbol> for AttrValue {
    fn from(v: Symbol) -> AttrValue {
        AttrValue::Sym(v)
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> AttrValue {
        AttrValue::Str(v)
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> AttrValue {
        AttrValue::Str(v.to_string())
    }
}

impl From<&String> for AttrValue {
    fn from(v: &String) -> AttrValue {
        AttrValue::Str(v.clone())
    }
}

/// Text built by `format_args!`: [`Tracer::attr`] converts its value only
/// once it knows the tracer is enabled, so a disabled tracer formats
/// nothing.
impl From<fmt::Arguments<'_>> for AttrValue {
    fn from(v: fmt::Arguments<'_>) -> AttrValue {
        AttrValue::Str(v.to_string())
    }
}

/// A finished span's attributes, frozen: snapshots of the trace share the
/// list instead of copying it.
type Attrs = Arc<[(Symbol, AttrValue)]>;

/// The one attribute list of every span that has none, so such a span
/// allocates nothing for it.
fn no_attrs() -> Attrs {
    static EMPTY: OnceLock<Attrs> = OnceLock::new();
    Arc::clone(EMPTY.get_or_init(|| Arc::new([])))
}

fn freeze(attrs: Vec<(Symbol, AttrValue)>) -> Attrs {
    if attrs.is_empty() {
        no_attrs()
    } else {
        attrs.into()
    }
}

/// One finished span: a named interval on the logical timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    pub id: SpanId,
    /// Enclosing span at the time this one was begun/recorded, if any.
    pub parent: Option<SpanId>,
    /// Interned name — hot-path copies and comparisons are integer ops;
    /// exporters resolve the string via [`Symbol::as_str`].
    pub name: Symbol,
    pub stage: Stage,
    pub start: SimTime,
    pub end: SimTime,
    /// Ordered key=value attributes (source, attempts, bytes, ...). Keys
    /// are interned (drawn from a small fixed vocabulary); values are
    /// typed. Shared: cloning a record copies no attribute.
    pub attrs: Attrs,
}

impl SpanRecord {
    pub fn duration(&self) -> SimSpan {
        self.end.since(self.start)
    }
}

fn write_attrs(out: &mut String, attrs: &[(Symbol, AttrValue)]) {
    for (i, (k, v)) in attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k.as_str());
        out.push('=');
        v.write_sanitized(out);
    }
}

#[derive(Debug)]
struct OpenSpan {
    id: SpanId,
    parent: Option<SpanId>,
    name: Symbol,
    stage: Stage,
    start: SimTime,
    attrs: Vec<(Symbol, AttrValue)>,
}

/// Cached per-span-name instruments: resolved from the registry once (one
/// `format!` + admission per name per tracer), then bumped through typed
/// handles. `samples` is scratch reused across flushes.
#[derive(Debug)]
struct SpanMetricHandles {
    count: CounterBatch,
    ns: Arc<Histogram>,
    samples: Vec<u64>,
}

/// Buffered metric emissions flush automatically once this many span ends
/// accumulate; explicit [`Tracer::flush`] calls mark sim barriers.
const METRIC_BATCH: usize = 256;

#[derive(Debug, Default)]
struct TracerState {
    next_id: SpanId,
    /// Innermost-last stack of spans begun but not yet ended.
    open: Vec<OpenSpan>,
    finished: Vec<SpanRecord>,
    /// Span (name, duration) pairs whose metric emission is buffered.
    pending_metrics: Vec<(Symbol, u64)>,
    /// Metric handles keyed by symbol id. Lookup only — iteration order is
    /// never observed, so the HashMap cannot leak nondeterminism.
    handles: HashMap<u32, SpanMetricHandles>,
}

/// Span collector over the logical clock.
///
/// Experiments are single-threaded over logical time (the scenario drive
/// loops), so a simple open-span stack resolves parenthood; concurrent
/// scenarios (e.g. `run_all`'s scoped threads) must each use their own
/// tracer.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    metrics: Arc<MetricsRegistry>,
    state: Mutex<TracerState>,
}

impl Tracer {
    /// A tracer that records nothing. This is the default every component
    /// starts with; all operations are cheap no-ops.
    pub fn disabled() -> Arc<Tracer> {
        Arc::new(Tracer {
            enabled: false,
            metrics: Arc::new(MetricsRegistry::new()),
            state: Mutex::new(TracerState::default()),
        })
    }

    /// A live tracer with a private metrics registry.
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            enabled: true,
            metrics: Arc::new(MetricsRegistry::new()),
            state: Mutex::new(TracerState::default()),
        })
    }

    /// A live tracer routing span metrics into an existing registry.
    pub fn with_metrics(metrics: Arc<MetricsRegistry>) -> Arc<Tracer> {
        Arc::new(Tracer {
            enabled: true,
            metrics,
            state: Mutex::new(TracerState::default()),
        })
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The registry where per-span duration histograms and counters land.
    /// Flushes buffered emissions first, so the view is always consistent
    /// with every span ended so far.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        if self.enabled {
            let mut st = self.state.lock();
            self.flush_metrics_locked(&mut st);
        }
        &self.metrics
    }

    /// Open a span starting at `now`. Returns `0` when disabled.
    pub fn begin(&self, name: impl Into<Symbol>, stage: Stage, now: SimTime) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let name = name.into();
        let mut st = self.state.lock();
        st.next_id += 1;
        let id = st.next_id;
        let parent = st.open.last().map(|s| s.id);
        st.open.push(OpenSpan {
            id,
            parent,
            name,
            stage,
            start: now,
            attrs: Vec::new(),
        });
        id
    }

    /// Attach an attribute to an open span.
    pub fn attr(&self, id: SpanId, key: impl Into<Symbol>, value: impl Into<AttrValue>) {
        if !self.enabled || id == 0 {
            return;
        }
        let (key, value) = (key.into(), value.into());
        let mut st = self.state.lock();
        if let Some(s) = st.open.iter_mut().find(|s| s.id == id) {
            s.attrs.push((key, value));
        }
    }

    /// Close a span at `now`. Any spans begun inside it and left open are
    /// force-closed at the same instant so nesting stays proper.
    pub fn end(&self, id: SpanId, now: SimTime) {
        if !self.enabled || id == 0 {
            return;
        }
        let mut st = self.state.lock();
        let Some(pos) = st.open.iter().position(|s| s.id == id) else {
            return;
        };
        // Innermost first: children land in `finished` before the parent.
        while st.open.len() > pos {
            let open = st.open.pop().expect("pos < len");
            let record = SpanRecord {
                id: open.id,
                parent: open.parent,
                name: open.name,
                stage: open.stage,
                start: open.start,
                end: now.max(open.start),
                attrs: freeze(open.attrs),
            };
            st.pending_metrics
                .push((record.name, record.duration().as_nanos()));
            st.finished.push(record);
        }
        if st.pending_metrics.len() >= METRIC_BATCH {
            self.flush_metrics_locked(&mut st);
        }
    }

    /// Record a complete span retrospectively (arrival→completion style
    /// operations that only know both endpoints at the end). The parent is
    /// the innermost span currently open. Attributes are collected straight
    /// into the record's shared list; a disabled tracer drops them unread.
    pub fn record(
        &self,
        name: impl Into<Symbol>,
        stage: Stage,
        start: SimTime,
        end: SimTime,
        attrs: impl IntoIterator<Item = (Symbol, AttrValue)>,
    ) {
        if !self.enabled {
            return;
        }
        let attrs = attrs.into_iter();
        let attrs = if attrs.size_hint().1 == Some(0) {
            no_attrs()
        } else {
            attrs.collect()
        };
        self.push_record(name.into(), stage, start, end, attrs);
    }

    /// The body of [`Tracer::record`], kept out of the generic part so
    /// each call site instantiates only the check and the collect.
    fn push_record(&self, name: Symbol, stage: Stage, start: SimTime, end: SimTime, attrs: Attrs) {
        let mut st = self.state.lock();
        st.next_id += 1;
        let id = st.next_id;
        let parent = st.open.last().map(|s| s.id);
        let record = SpanRecord {
            id,
            parent,
            name,
            stage,
            start,
            end: end.max(start),
            attrs,
        };
        st.pending_metrics
            .push((record.name, record.duration().as_nanos()));
        st.finished.push(record);
        if st.pending_metrics.len() >= METRIC_BATCH {
            self.flush_metrics_locked(&mut st);
        }
    }

    /// Flush buffered metric emissions to the registry. Call at sim
    /// barriers (end of a drive loop, before reading the registry
    /// directly). Reads through the tracer ([`Tracer::metrics`],
    /// [`Tracer::finished`], …) flush implicitly, and dropping the tracer
    /// flushes too, so an explicit call is only needed when someone else
    /// holds the registry `Arc` and reads it mid-run.
    pub fn flush(&self) {
        if !self.enabled {
            return;
        }
        let mut st = self.state.lock();
        self.flush_metrics_locked(&mut st);
    }

    /// Apply every buffered (name, duration) pair: per distinct name, one
    /// saturating counter add and one histogram lock. Handle creation (the
    /// only remaining `format!` + registry admission) happens once per
    /// name per tracer; admission order is first-emission order, exactly
    /// as the old per-event path admitted series.
    fn flush_metrics_locked(&self, st: &mut TracerState) {
        if st.pending_metrics.is_empty() {
            return;
        }
        let mut pending = std::mem::take(&mut st.pending_metrics);
        let mut touched: Vec<Symbol> = Vec::new();
        for (sym, dur) in pending.drain(..) {
            let handle = st.handles.entry(sym.id()).or_insert_with(|| {
                let name = sym.as_str();
                SpanMetricHandles {
                    count: CounterBatch::new(
                        self.metrics.typed_counter(&format!("span.{name}.count")),
                    ),
                    ns: self.metrics.histogram(&format!("span.{name}.ns")),
                    samples: Vec::new(),
                }
            });
            if handle.samples.is_empty() {
                touched.push(sym);
            }
            handle.count.incr();
            handle.samples.push(dur);
        }
        st.pending_metrics = pending; // keep the allocation
        for sym in touched {
            let handle = st.handles.get_mut(&sym.id()).expect("touched handle");
            handle.count.flush();
            handle.ns.record_batch(&handle.samples);
            handle.samples.clear();
        }
    }

    /// All finished spans, in completion order. Flushes buffered metrics
    /// (this is the canonical end-of-run barrier). The snapshot shares each
    /// span's attribute list with the tracer.
    pub fn finished(&self) -> Vec<SpanRecord> {
        let mut st = self.state.lock();
        self.flush_metrics_locked(&mut st);
        st.finished.clone()
    }

    /// Number of finished spans.
    pub fn span_count(&self) -> usize {
        let mut st = self.state.lock();
        self.flush_metrics_locked(&mut st);
        st.finished.len()
    }

    /// Drop all span state (between benchmark iterations). Buffered
    /// metrics are flushed first — the registry outlives the reset, as it
    /// did when emission was per-event.
    pub fn reset(&self) {
        let mut st = self.state.lock();
        self.flush_metrics_locked(&mut st);
        st.open.clear();
        st.finished.clear();
        st.next_id = 0;
    }
}

impl Drop for Tracer {
    fn drop(&mut self) {
        // Don't lose buffered emissions when a tracer routing into a
        // shared registry (`with_metrics`) is dropped before a barrier.
        let mut st = self.state.lock();
        self.flush_metrics_locked(&mut st);
    }
}

fn sorted_for_export(spans: &[SpanRecord]) -> Vec<&SpanRecord> {
    let mut v: Vec<&SpanRecord> = spans.iter().collect();
    v.sort_by_key(|s| (s.start, s.id));
    v
}

const TSV_HEADER: &str = "id\tparent\tname\tstage\tstart_ns\tdur_ns\tattrs\n";

/// One span as one TSV line, newline included: the only line formatter,
/// shared by [`export_tsv`] and [`trace_digest`].
fn write_tsv_line(out: &mut String, s: &SpanRecord) {
    let _ = write!(out, "{}\t", s.id);
    match s.parent {
        Some(p) => {
            let _ = write!(out, "{p}\t");
        }
        None => out.push_str("-\t"),
    }
    let _ = write!(
        out,
        "{}\t{}\t{}\t{}\t",
        s.name,
        s.stage,
        s.start.as_nanos(),
        s.duration().as_nanos()
    );
    write_attrs(out, &s.attrs);
    out.push('\n');
}

/// Export spans as a flat TSV: one line per span, sorted by (start, id).
/// Round-trips through [`parse_tsv`]; this is the golden-file format.
pub fn export_tsv(spans: &[SpanRecord]) -> String {
    let mut out = String::from(TSV_HEADER);
    for s in sorted_for_export(spans) {
        write_tsv_line(&mut out, s);
    }
    out
}

/// Parse the output of [`export_tsv`].
pub fn parse_tsv(text: &str) -> Result<Vec<SpanRecord>, String> {
    let mut spans = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if i == 0 {
            if !line.starts_with("id\t") {
                return Err(format!("line 1: missing TSV header, got {line:?}"));
            }
            continue;
        }
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() != 7 {
            return Err(format!(
                "line {}: expected 7 fields, got {}",
                i + 1,
                fields.len()
            ));
        }
        let bad = |what: &str| format!("line {}: bad {what}: {line:?}", i + 1);
        let id: SpanId = fields[0].parse().map_err(|_| bad("id"))?;
        let parent = match fields[1] {
            "-" => None,
            p => Some(p.parse().map_err(|_| bad("parent"))?),
        };
        let stage = Stage::from_label(fields[3]).ok_or_else(|| bad("stage"))?;
        let start_ns: u64 = fields[4].parse().map_err(|_| bad("start_ns"))?;
        let dur_ns: u64 = fields[5].parse().map_err(|_| bad("dur_ns"))?;
        let end_ns = start_ns.checked_add(dur_ns).ok_or_else(|| bad("dur_ns"))?;
        let attrs = if fields[6].is_empty() {
            Vec::new()
        } else {
            fields[6]
                .split(',')
                .map(|kv| match kv.split_once('=') {
                    Some((k, v)) => Ok((Symbol::intern(k), AttrValue::parse(v))),
                    None => Err(bad("attrs")),
                })
                .collect::<Result<Vec<_>, _>>()?
        };
        spans.push(SpanRecord {
            id,
            parent,
            name: Symbol::intern(fields[2]),
            stage,
            start: SimTime(start_ns),
            end: SimTime(end_ns),
            attrs: freeze(attrs),
        });
    }
    Ok(spans)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// FNV-1a digest of the TSV export — a cheap fingerprint two runs compare.
/// Hashed line by line through one reused buffer, so the whole export is
/// never held at once.
pub fn trace_digest(spans: &[SpanRecord]) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, TSV_HEADER.as_bytes());
    let mut line = String::new();
    for s in sorted_for_export(spans) {
        line.clear();
        write_tsv_line(&mut line, s);
        h = fnv1a(h, line.as_bytes());
    }
    h
}

fn name_path(span: &SpanRecord, by_id: &std::collections::BTreeMap<SpanId, &SpanRecord>) -> String {
    let mut parts = vec![span.name.as_str().to_string()];
    let mut cur = span.parent;
    let mut hops = 0;
    while let Some(p) = cur {
        hops += 1;
        if hops > 64 {
            parts.push("<cycle>".to_string());
            break;
        }
        match by_id.get(&p) {
            Some(parent) => {
                parts.push(parent.name.as_str().to_string());
                cur = parent.parent;
            }
            None => {
                parts.push("<missing>".to_string());
                break;
            }
        }
    }
    parts.reverse();
    parts.join("/")
}

/// Canonical structural form of a trace: one line per span, sorted, with
/// the full ancestor path instead of raw ids (so id assignment can change
/// without a structural diff).
pub(crate) fn canonical_lines(spans: &[SpanRecord]) -> Vec<String> {
    let by_id: std::collections::BTreeMap<SpanId, &SpanRecord> =
        spans.iter().map(|s| (s.id, s)).collect();
    sorted_for_export(spans)
        .into_iter()
        .map(|s| {
            let mut line = format!(
                "{} stage={} start={} dur={} attrs=[",
                name_path(s, &by_id),
                s.stage,
                s.start.as_nanos(),
                s.duration().as_nanos()
            );
            write_attrs(&mut line, &s.attrs);
            line.push(']');
            line
        })
        .collect()
}

/// Structurally diff two traces (span tree + durations + attributes).
/// Returns human-readable mismatch descriptions; empty means identical.
pub fn diff_traces(expected: &[SpanRecord], actual: &[SpanRecord]) -> Vec<String> {
    const MAX_REPORTED: usize = 20;
    let want = canonical_lines(expected);
    let got = canonical_lines(actual);
    let mut out = Vec::new();
    if want.len() != got.len() {
        out.push(format!(
            "span count differs: expected {}, got {}",
            want.len(),
            got.len()
        ));
    }
    for (i, (w, g)) in want.iter().zip(got.iter()).enumerate() {
        if w != g {
            out.push(format!("span {i}:\n  expected {w}\n  actual   {g}"));
            if out.len() >= MAX_REPORTED {
                out.push("... (further diffs suppressed)".to_string());
                return out;
            }
        }
    }
    for (i, w) in want.iter().enumerate().skip(got.len()) {
        out.push(format!("span {i}: missing (expected {w})"));
        if out.len() >= MAX_REPORTED {
            break;
        }
    }
    for (i, g) in got.iter().enumerate().skip(want.len()) {
        out.push(format!("span {i}: unexpected (actual {g})"));
        if out.len() >= MAX_REPORTED {
            break;
        }
    }
    out
}

/// Check the span invariants every trace must satisfy: unique nonzero ids,
/// parents finished before their children were assigned ids, monotone clock
/// within each span (`start <= end`), and child intervals contained in
/// their parent's. Returns violation descriptions; empty means sound.
pub fn check_invariants(spans: &[SpanRecord]) -> Vec<String> {
    let mut out = Vec::new();
    let mut by_id: std::collections::BTreeMap<SpanId, &SpanRecord> =
        std::collections::BTreeMap::new();
    for s in spans {
        if s.id == 0 {
            out.push(format!("span {}: id 0 is reserved", s.name));
        }
        if by_id.insert(s.id, s).is_some() {
            out.push(format!("span {}: duplicate id {}", s.name, s.id));
        }
    }
    for s in spans {
        if s.end < s.start {
            out.push(format!(
                "span {} #{}: clock not monotone: end {} < start {}",
                s.name, s.id, s.end, s.start
            ));
        }
        let Some(pid) = s.parent else { continue };
        if pid >= s.id {
            out.push(format!(
                "span {} #{}: parent id {pid} not older than child",
                s.name, s.id
            ));
        }
        match by_id.get(&pid) {
            None => out.push(format!("span {} #{}: parent {pid} missing", s.name, s.id)),
            Some(p) => {
                if s.start < p.start || s.end > p.end {
                    out.push(format!(
                        "span {} #{} [{}, {}] escapes parent {} #{} [{}, {}]",
                        s.name, s.id, s.start, s.end, p.name, p.id, p.start, p.end
                    ));
                }
            }
        }
    }
    out
}

/// Check time conservation for every span named `parent_name`: its direct
/// children must tile the parent interval exactly (contiguous, gap-free),
/// so the sum of stage times equals the end-to-end time.
pub fn check_conservation(spans: &[SpanRecord], parent_name: &str) -> Vec<String> {
    let mut out = Vec::new();
    for parent in spans.iter().filter(|s| s.name == parent_name) {
        let mut kids: Vec<&SpanRecord> = spans
            .iter()
            .filter(|s| s.parent == Some(parent.id))
            .collect();
        kids.sort_by_key(|s| (s.start, s.id));
        if kids.is_empty() {
            if !parent.duration().is_zero() {
                out.push(format!(
                    "{parent_name} #{}: nonzero duration but no stage children",
                    parent.id
                ));
            }
            continue;
        }
        let mut cursor = parent.start;
        for k in &kids {
            if k.start != cursor {
                out.push(format!(
                    "{parent_name} #{}: gap before {} #{} ({} != {})",
                    parent.id, k.name, k.id, k.start, cursor
                ));
            }
            cursor = cursor.max(k.end);
        }
        if cursor != parent.end {
            out.push(format!(
                "{parent_name} #{}: children end at {} but parent ends at {}",
                parent.id, cursor, parent.end
            ));
        }
        let stage_sum: SimSpan = kids.iter().map(|k| k.duration()).sum();
        if stage_sum != parent.duration() {
            out.push(format!(
                "{parent_name} #{}: stage sum {} != end-to-end {}",
                parent.id,
                stage_sum,
                parent.duration()
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimSpan::millis(ms)
    }

    fn sample_trace() -> Vec<SpanRecord> {
        let tr = Tracer::new();
        let root = tr.begin("engine.deploy", Stage::Other, t(0));
        let pull = tr.begin("engine.pull", Stage::Pull, t(0));
        tr.attr(pull, "repo", "library/pyapp");
        tr.end(pull, t(10));
        let prep = tr.begin("engine.prepare", Stage::Convert, t(10));
        tr.record(
            "engine.cache",
            Stage::Cache,
            t(10),
            t(12),
            [(crate::sym!("hit"), false.into())],
        );
        tr.end(prep, t(30));
        let run = tr.begin("engine.run", Stage::Run, t(30));
        tr.end(run, t(45));
        tr.end(root, t(45));
        tr.finished()
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::disabled();
        let id = tr.begin("x", Stage::Other, t(0));
        assert_eq!(id, 0);
        tr.attr(id, "k", "v");
        tr.end(id, t(5));
        tr.record("y", Stage::Other, t(0), t(1), []);
        assert_eq!(tr.span_count(), 0);
        assert_eq!(tr.metrics().render(), "");
    }

    #[test]
    fn nesting_and_parents_resolve_from_the_stack() {
        let spans = sample_trace();
        assert_eq!(spans.len(), 5);
        let root = spans.iter().find(|s| s.name == "engine.deploy").unwrap();
        for child in ["engine.pull", "engine.prepare", "engine.run"] {
            let c = spans.iter().find(|s| s.name == child).unwrap();
            assert_eq!(c.parent, Some(root.id), "{child}");
        }
        let cache = spans.iter().find(|s| s.name == "engine.cache").unwrap();
        let prep = spans.iter().find(|s| s.name == "engine.prepare").unwrap();
        assert_eq!(cache.parent, Some(prep.id));
        assert!(check_invariants(&spans).is_empty());
    }

    #[test]
    fn conservation_holds_for_contiguous_stages() {
        let spans = sample_trace();
        assert!(check_conservation(&spans, "engine.deploy").is_empty());
    }

    #[test]
    fn conservation_detects_gaps() {
        let mut spans = sample_trace();
        let pull = spans.iter_mut().find(|s| s.name == "engine.pull").unwrap();
        pull.end = t(8); // 2ms hole before prepare
        let errs = check_conservation(&spans, "engine.deploy");
        assert!(!errs.is_empty());
        assert!(errs.iter().any(|e| e.contains("gap")), "{errs:?}");
    }

    #[test]
    fn invariants_catch_escaping_children() {
        let mut spans = sample_trace();
        let run = spans.iter_mut().find(|s| s.name == "engine.run").unwrap();
        run.end = t(60); // past the parent's end
        let errs = check_invariants(&spans);
        assert!(
            errs.iter().any(|e| e.contains("escapes parent")),
            "{errs:?}"
        );
    }

    #[test]
    fn unclosed_children_are_force_closed_with_the_parent() {
        let tr = Tracer::new();
        let root = tr.begin("outer", Stage::Other, t(0));
        let _leak = tr.begin("inner", Stage::Other, t(1));
        tr.end(root, t(9));
        let spans = tr.finished();
        assert_eq!(spans.len(), 2);
        assert!(check_invariants(&spans).is_empty());
        assert!(spans.iter().all(|s| s.end == t(9)));
    }

    #[test]
    fn tsv_round_trips() {
        let spans = sample_trace();
        let tsv = export_tsv(&spans);
        let parsed = parse_tsv(&tsv).unwrap();
        let mut sorted: Vec<SpanRecord> = spans.clone();
        sorted.sort_by_key(|s| (s.start, s.id));
        assert_eq!(parsed, sorted);
        assert_eq!(export_tsv(&parsed), tsv);
    }

    #[test]
    fn tsv_rejects_malformed_input() {
        assert!(parse_tsv("nonsense").is_err());
        assert!(parse_tsv("id\tparent\tname\tstage\tstart_ns\tdur_ns\tattrs\n1\t-\tx\n").is_err());
        assert!(parse_tsv(
            "id\tparent\tname\tstage\tstart_ns\tdur_ns\tattrs\n1\t-\tx\tnostage\t0\t1\t\n"
        )
        .is_err());
    }

    /// A span whose end does not fit in a `u64` is malformed: it used to
    /// overflow (a panic in debug builds, a span ending before its start
    /// in release builds).
    #[test]
    fn tsv_rejects_an_end_past_u64_max() {
        let line = |start: u64, dur: u64| {
            format!("id\tparent\tname\tstage\tstart_ns\tdur_ns\tattrs\n1\t-\tx\tother\t{start}\t{dur}\t\n")
        };
        assert!(parse_tsv(&line(u64::MAX, 1)).is_err());
        assert!(parse_tsv(&line(1, u64::MAX)).is_err());
        let edge = parse_tsv(&line(u64::MAX - 1, 1)).unwrap();
        assert_eq!(edge[0].end, SimTime(u64::MAX));
    }

    #[test]
    fn diff_is_empty_for_identical_traces_and_reports_changes() {
        let a = sample_trace();
        let b = sample_trace();
        assert!(diff_traces(&a, &b).is_empty());
        let mut c = sample_trace();
        c.iter_mut().find(|s| s.name == "engine.run").unwrap().end = t(50);
        let diffs = diff_traces(&a, &c);
        assert!(!diffs.is_empty());
        assert!(diffs.iter().any(|d| d.contains("engine.run")), "{diffs:?}");
    }

    #[test]
    fn diff_ignores_id_assignment_but_not_structure() {
        let mut a = sample_trace();
        // Renumber ids (e.g. another run interleaved unrelated spans).
        for s in &mut a {
            s.id += 100;
            if let Some(p) = s.parent.as_mut() {
                *p += 100;
            }
        }
        assert!(diff_traces(&sample_trace(), &a).is_empty());
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let a = sample_trace();
        assert_eq!(trace_digest(&a), trace_digest(&sample_trace()));
        let mut b = sample_trace();
        b[0].end = t(46);
        assert_ne!(trace_digest(&a), trace_digest(&b));
    }

    #[test]
    fn span_durations_land_in_metrics() {
        let tr = Tracer::new();
        let id = tr.begin("engine.pull", Stage::Pull, t(0));
        tr.end(id, t(10));
        assert_eq!(tr.metrics().get("span.engine.pull.count"), 1);
        assert_eq!(tr.metrics().histogram("span.engine.pull.ns").count(), 1);
    }

    #[test]
    fn explicit_flush_lands_buffered_metrics() {
        let tr = Tracer::new();
        tr.record("flushtest.op", Stage::Other, t(0), t(3), []);
        tr.flush();
        // Read the registry through its own Arc, bypassing the tracer:
        // the explicit barrier must have landed the emission.
        let m = Arc::clone(tr.metrics());
        assert_eq!(m.get("span.flushtest.op.count"), 1);
    }

    #[test]
    fn dropping_a_tracer_flushes_into_the_shared_registry() {
        let registry = Arc::new(MetricsRegistry::new());
        {
            let tr = Tracer::with_metrics(Arc::clone(&registry));
            tr.record("droptest.op", Stage::Other, t(0), t(2), []);
            // No barrier reached; the drop must not lose the emission.
        }
        assert_eq!(registry.get("span.droptest.op.count"), 1);
    }

    #[test]
    fn auto_flush_triggers_at_batch_capacity() {
        let tr = Tracer::new();
        for i in 0..super::METRIC_BATCH {
            tr.record("autoflush.op", Stage::Other, t(0), t(1), []);
            let _ = i;
        }
        // Registry read without going through the tracer: the batch
        // threshold alone must have flushed.
        let m = Arc::clone(&tr.metrics);
        assert_eq!(m.get("span.autoflush.op.count"), super::METRIC_BATCH as u64);
    }

    // ------------------------------------------------ batching equivalence

    use proptest::prelude::*;

    /// One step of a random span workload. Times advance by the embedded
    /// deltas so the program is a pure function of the op list.
    #[derive(Debug, Clone)]
    enum ObsOp {
        /// Begin a span named `NAMES[i]` after advancing `dt` ms.
        Begin(usize, u64),
        /// End the innermost open span after advancing `dt` ms.
        End(u64),
        /// Record a retrospective span of `dur` ms after advancing `dt`.
        Record(usize, u64, u64),
        /// Attach `KEYS[i]=v` to the innermost open span.
        Attr(usize, u64),
    }

    const NAMES: [&str; 5] = [
        "obsbatch.pull",
        "obsbatch.convert",
        "obsbatch.run",
        "obsbatch.cache",
        "obsbatch.deploy",
    ];
    const KEYS: [&str; 3] = ["attempts", "bytes", "source"];

    fn obs_op_strategy() -> impl Strategy<Value = ObsOp> {
        prop_oneof![
            (0usize..NAMES.len(), 0u64..50).prop_map(|(n, dt)| ObsOp::Begin(n, dt)),
            (0u64..50).prop_map(ObsOp::End),
            (0usize..NAMES.len(), 0u64..50, 0u64..80)
                .prop_map(|(n, dt, dur)| ObsOp::Record(n, dt, dur)),
            (0usize..KEYS.len(), 0u64..1000).prop_map(|(k, v)| ObsOp::Attr(k, v)),
        ]
    }

    /// Run the program. `flush_every_op` is the difference under test: the
    /// aggressive variant flushes after every op, the lazy one only at the
    /// implicit end-of-run barrier.
    fn apply_obs(ops: &[ObsOp], flush_every_op: bool) -> Arc<Tracer> {
        let tr = Tracer::new();
        let mut now = SimTime::ZERO;
        let mut open: Vec<SpanId> = Vec::new();
        for op in ops {
            match *op {
                ObsOp::Begin(n, dt) => {
                    now += SimSpan::millis(dt);
                    open.push(tr.begin(NAMES[n], Stage::Other, now));
                }
                ObsOp::End(dt) => {
                    now += SimSpan::millis(dt);
                    if let Some(id) = open.pop() {
                        tr.end(id, now);
                    }
                }
                ObsOp::Record(n, dt, dur) => {
                    now += SimSpan::millis(dt);
                    tr.record(
                        NAMES[n],
                        Stage::Other,
                        now,
                        now + SimSpan::millis(dur),
                        [(crate::sym!("kind"), "retro".into())],
                    );
                }
                ObsOp::Attr(k, v) => {
                    if let Some(&id) = open.last() {
                        tr.attr(id, KEYS[k], v);
                    }
                }
            }
            if flush_every_op {
                tr.flush();
            }
        }
        while let Some(id) = open.pop() {
            tr.end(id, now);
        }
        tr
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Flush granularity is unobservable: per-event flushing and
        /// flush-at-barrier yield byte-identical TSV exports
        /// and an identical registry (values, admission, drops).
        #[test]
        fn flush_granularity_does_not_change_observables(
            ops in proptest::collection::vec(obs_op_strategy(), 1..60)
        ) {
            let a = apply_obs(&ops, true);
            let b = apply_obs(&ops, false);
            let sa = a.finished();
            let sb = b.finished();
            prop_assert_eq!(export_tsv(&sa), export_tsv(&sb));
            prop_assert_eq!(a.metrics().render(), b.metrics().render());
            prop_assert_eq!(
                a.metrics().dropped_series(),
                b.metrics().dropped_series()
            );
        }
    }

    // ------------------------------------------------ hostile TSV input

    /// A number near either end of the `u64` range, or not a number.
    fn tsv_number() -> impl Strategy<Value = String> {
        prop_oneof![
            (0u64..4).prop_map(|k| (u64::MAX - k).to_string()),
            (0u64..1000).prop_map(|v| v.to_string()),
            any::<u64>().prop_map(|v| v.to_string()),
            "[-+]?[0-9]{0,21}",
        ]
    }

    /// One line of seven tab-separated fields, shaped like an export.
    fn tsv_line() -> impl Strategy<Value = String> {
        let parent = prop_oneof![Just("-".to_string()), tsv_number()];
        let stage = prop_oneof![
            Just("pull".to_string()),
            Just("other".to_string()),
            "[a-z]{0,8}",
        ];
        let kv = prop_oneof!["[a-z]{1,6}=[ -~]{0,8}", "[a-z=;]{0,6}"];
        let attrs = proptest::collection::vec(kv, 0..5).prop_map(|kvs: Vec<String>| kvs.join(","));
        let ids = (tsv_number(), parent);
        let times = (tsv_number(), tsv_number());
        (ids, "[a-z.]{0,10}", stage, times, attrs).prop_map(
            |((id, parent), name, stage, (start, dur), attrs): (
                (String, String),
                String,
                String,
                (String, String),
                String,
            )| [id, parent, name, stage, start, dur, attrs].join("\t"),
        )
    }

    /// A span as the program makes one: names and attribute keys are
    /// code vocabulary, values are arbitrary text (error messages) with
    /// the separators the exporter has to neutralise.
    fn arb_span() -> impl Strategy<Value = SpanRecord> {
        const STAGES: [Stage; 10] = [
            Stage::Pull,
            Stage::Convert,
            Stage::Cache,
            Stage::Run,
            Stage::Request,
            Stage::Storage,
            Stage::Schedule,
            Stage::Pod,
            Stage::Adapt,
            Stage::Other,
        ];
        let attr = ("[a-z_]{1,8}", arb_value())
            .prop_map(|(k, v): (String, AttrValue)| (Symbol::intern(&k), v));
        let parent = prop_oneof![Just(None), any::<u64>().prop_map(Some)];
        let name = "[a-z._]{1,12}".prop_map(|n: String| Symbol::intern(&n));
        let when = (0usize..STAGES.len(), any::<u64>(), any::<u64>());
        (
            (any::<u64>(), parent, name),
            when,
            proptest::collection::vec(attr, 0..4),
        )
            .prop_map(|((id, parent, name), (stage, a, b), attrs)| SpanRecord {
                id,
                parent,
                name,
                stage: STAGES[stage],
                start: SimTime(a.min(b)),
                end: SimTime(a.max(b)),
                attrs: freeze(attrs),
            })
    }

    /// A value of every type; text carries the separators the exporter
    /// has to neutralise and shapes that look almost like numbers.
    fn arb_value() -> impl Strategy<Value = AttrValue> {
        prop_oneof![
            any::<u64>().prop_map(AttrValue::U64),
            any::<bool>().prop_map(AttrValue::Bool),
            "[a-c \t\n\r,=;é]{0,10}".prop_map(|v: String| AttrValue::Sym(Symbol::intern(&v))),
            "[0-9a-c \t\n\r,=;é+-]{0,10}".prop_map(AttrValue::Str),
        ]
    }

    /// The digest's definition: FNV-1a over the whole export, built as one
    /// string. [`trace_digest`] streams the same bytes.
    fn trace_digest_reference(spans: &[SpanRecord]) -> u64 {
        fnv1a(FNV_OFFSET, export_tsv(spans).as_bytes())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Structure-aware garbage never panics the parser, and whatever
        /// it accepts is a span that ends no earlier than it starts.
        #[test]
        fn parse_tsv_never_panics_on_hostile_lines(
            lines in proptest::collection::vec(tsv_line(), 0..6)
        ) {
            let text = format!("id\tparent\tname\tstage\tstart_ns\tdur_ns\tattrs\n{}\n", lines.join("\n"));
            if let Ok(spans) = parse_tsv(&text) {
                for s in spans {
                    prop_assert!(s.start <= s.end);
                }
            }
        }

        /// Export is a fixpoint of parse: what the exporter writes, the
        /// parser reads back into spans that export to the same bytes, for
        /// values of every type.
        #[test]
        fn export_parse_export_is_a_fixpoint(
            spans in proptest::collection::vec(arb_span(), 0..8)
        ) {
            let once = export_tsv(&spans);
            let parsed = parse_tsv(&once).expect("an export parses");
            prop_assert_eq!(export_tsv(&parsed), once);
        }

        /// Streaming the digest did not change what it digests: it equals
        /// FNV-1a over the whole export, separators in text included.
        #[test]
        fn streamed_digest_equals_the_digest_of_the_export(
            spans in proptest::collection::vec(arb_span(), 0..8)
        ) {
            prop_assert_eq!(trace_digest(&spans), trace_digest_reference(&spans));
        }
    }

    #[test]
    fn parse_reads_canonical_numbers_and_flags_back_typed() {
        let line = |attrs: &str| {
            format!(
                "id\tparent\tname\tstage\tstart_ns\tdur_ns\tattrs\n1\t-\tx\tother\t0\t1\t{attrs}\n"
            )
        };
        let parsed = parse_tsv(&line(
            "a=0,b=42,c=18446744073709551615,d=true,e=false,f=tier",
        ))
        .unwrap();
        let values: Vec<&AttrValue> = parsed[0].attrs.iter().map(|(_, v)| v).collect();
        assert_eq!(
            values,
            [
                &AttrValue::U64(0),
                &AttrValue::U64(42),
                &AttrValue::U64(u64::MAX),
                &AttrValue::Bool(true),
                &AttrValue::Bool(false),
                &AttrValue::Str("tier".into()),
            ]
        );
        // Not canonical, or not a u64: the text is kept as it was.
        for text in ["007", "-1", "+1", "18446744073709551616", "", "1e3", "True"] {
            let parsed = parse_tsv(&line(&format!("k={text}"))).unwrap();
            assert_eq!(
                parsed[0].attrs[0].1,
                AttrValue::Str(text.into()),
                "{text:?}"
            );
            assert_eq!(export_tsv(&parsed), line(&format!("k={text}")));
        }
    }

    #[test]
    fn typed_values_export_as_their_text() {
        let tr = Tracer::new();
        let id = tr.begin("typed", Stage::Other, t(0));
        tr.attr(id, "n", 7u64);
        tr.attr(id, "neg", -1);
        tr.attr(id, "flag", true);
        tr.attr(id, "tier", crate::sym!("rack,row"));
        tr.attr(id, "msg", "a\tb,c");
        tr.end(id, t(1));
        let tsv = export_tsv(&tr.finished());
        assert!(
            tsv.ends_with("\tn=7,neg=-1,flag=true,tier=rack;row,msg=a b;c\n"),
            "{tsv}"
        );
        // An attribute pair stays four words: a symbol and a 24-byte value.
        assert_eq!(std::mem::size_of::<(Symbol, AttrValue)>(), 32);
    }

    /// A snapshot copies no attribute: two snapshots share every list,
    /// spans without attributes share one empty list, and a reset drops
    /// the tracer's reference without touching a snapshot taken before.
    #[test]
    fn snapshots_share_attribute_lists_and_outlive_a_reset() {
        let tr = Tracer::new();
        let id = tr.begin("outer", Stage::Other, t(0));
        tr.attr(id, "k", 1u64);
        tr.record(
            "inner",
            Stage::Other,
            t(0),
            t(1),
            [(crate::sym!("bytes"), 2u64.into())],
        );
        tr.record("bare", Stage::Other, t(1), t(2), []);
        tr.end(id, t(3));
        tr.record("bare", Stage::Other, t(3), t(4), []);
        let a = tr.finished();
        let b = tr.finished();
        assert_eq!(a.len(), 4);
        for (x, y) in a.iter().zip(&b) {
            assert!(Arc::ptr_eq(&x.attrs, &y.attrs), "{} copied", x.name);
        }
        let bare: Vec<&SpanRecord> = a.iter().filter(|s| s.name == "bare").collect();
        assert!(Arc::ptr_eq(&bare[0].attrs, &bare[1].attrs));
        let before = export_tsv(&a);
        tr.reset();
        assert_eq!(tr.span_count(), 0);
        assert_eq!(export_tsv(&a), before);
        assert_eq!(a, b);
    }

    /// The cardinality cap trips at the same counts with interned keys,
    /// whether emission is flushed per event or batched: same number of
    /// refused series, same overflow-sentinel absorption.
    #[test]
    fn cardinality_cap_trips_identically_batched_and_unbatched() {
        use crate::metrics::{MAX_SERIES, OVERFLOW_SERIES};
        const EXTRA: usize = 25;
        let run = |flush_every: bool| {
            let tr = Tracer::new();
            for i in 0..MAX_SERIES + EXTRA {
                tr.record(format!("capsym.{i}"), Stage::Other, t(0), t(1), []);
                if flush_every {
                    tr.flush();
                }
            }
            tr.flush();
            (
                tr.metrics().dropped_series(),
                tr.metrics().get(OVERFLOW_SERIES),
                tr.metrics().histogram(OVERFLOW_SERIES).count(),
            )
        };
        let per_event = run(true);
        let batched = run(false);
        assert_eq!(per_event, batched);
        // Counter and histogram maps each refused EXTRA names...
        assert_eq!(batched.0, 2 * EXTRA as u64);
        // ...and the sentinel absorbed every refused bump on both sides.
        assert_eq!(batched.1, EXTRA as u64);
        assert_eq!(batched.2, EXTRA as u64);
    }
}
