//! Metrics collection for experiments.
//!
//! Every experiment reports through a [`MetricsRegistry`]: counters for
//! event counts (cache hits, pulls, scheduling decisions) and log-binned
//! histograms for latency distributions. Snapshots render as aligned text
//! tables, which is what the `table*`/`quant*` binaries print.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Log-binned histogram over `u64` samples (typically nanoseconds).
///
/// Bins are powers of two scaled by 16 sub-buckets, giving ≤ ~6% relative
/// error on quantiles — plenty for simulator-scale comparisons.
#[derive(Debug, Default)]
pub(crate) struct Histogram {
    inner: Mutex<HistogramState>,
}

#[derive(Debug, Default, Clone)]
struct HistogramState {
    counts: BTreeMap<u64, u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

/// Lower bound of the histogram bucket a sample lands in. Values below 16
/// are exact; above, the top 5 significant bits are kept (≤ ~6% relative
/// error). Public so tests and exporters can reason about bucket edges.
pub(crate) fn bucket_lower_bound(v: u64) -> u64 {
    if v < 16 {
        return v;
    }
    let shift = 63 - v.leading_zeros() as u64 - 4;
    // Keep the top 5 significant bits: bucket lower bound.
    (v >> shift) << shift
}

fn bucket_of(v: u64) -> u64 {
    bucket_lower_bound(v)
}

impl Histogram {
    pub(crate) fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one sample.
    pub(crate) fn record(&self, v: u64) {
        self.record_batch(std::slice::from_ref(&v));
    }

    /// Record many samples under one lock acquisition. State-equivalent to
    /// calling [`Histogram::record`] per sample, in order — the batched
    /// observability path relies on that equivalence.
    pub(crate) fn record_batch(&self, samples: &[u64]) {
        if samples.is_empty() {
            return;
        }
        let mut st = self.inner.lock();
        for &v in samples {
            if st.count == 0 {
                st.min = v;
                st.max = v;
            } else {
                st.min = st.min.min(v);
                st.max = st.max.max(v);
            }
            st.count += 1;
            st.sum += v as u128;
            *st.counts.entry(bucket_of(v)).or_insert(0) += 1;
        }
    }

    /// Number of samples recorded.
    pub(crate) fn count(&self) -> u64 {
        self.inner.lock().count
    }

    /// Mean of samples (0 when empty).
    pub(crate) fn mean(&self) -> f64 {
        let st = self.inner.lock();
        if st.count == 0 {
            0.0
        } else {
            st.sum as f64 / st.count as f64
        }
    }

    pub(crate) fn min(&self) -> u64 {
        self.inner.lock().min
    }

    pub(crate) fn max(&self) -> u64 {
        self.inner.lock().max
    }

    /// Approximate quantile `q` in `[0, 1]` (bucket lower bound).
    pub(crate) fn quantile(&self, q: f64) -> u64 {
        let st = self.inner.lock();
        if st.count == 0 {
            return 0;
        }
        let target = ((st.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (bucket, n) in &st.counts {
            seen += n;
            if seen >= target {
                return *bucket;
            }
        }
        st.max
    }

    /// A point-in-time copy of summary statistics.
    pub(crate) fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            mean: self.mean(),
            min: self.min(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            max: self.max(),
        }
    }
}

/// Summary statistics of a histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct HistogramSummary {
    count: u64,
    mean: f64,
    min: u64,
    p50: u64,
    p95: u64,
    p99: u64,
    max: u64,
}

/// Maximum distinct series per instrument kind. Dynamic names (per-op
/// retry counters, per-span histograms) are bounded in practice; the cap is
/// a backstop against an attribute leaking into a metric name and growing
/// the registry without bound.
pub(crate) const MAX_SERIES: usize = 4096;

/// Series that absorbs samples once [`MAX_SERIES`] is reached.
pub(crate) const OVERFLOW_SERIES: &str = "metrics.overflow";

/// Typed handle to one counter: cheap to clone, saturating on overflow.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn incr(&self) {
        self.add(1);
    }

    /// Saturating increment: a counter pegged at `u64::MAX` stays there
    /// instead of wrapping back to small values mid-experiment.
    pub fn add(&self, n: u64) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_add(n))
            });
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Locally-accumulated increments for one [`Counter`], applied in a single
/// saturating add on [`CounterBatch::flush`].
///
/// Both the local accumulator and the final apply saturate, so a batch
/// whose sum overflows pegs the counter at `u64::MAX` — exactly the value
/// the same sequence of per-event [`Counter::incr`]/[`Counter::add`] calls
/// would have produced. The batched `Tracer` emission path depends on this
/// equivalence (see `counter_batch_saturates_like_per_event_bumps`).
#[derive(Debug)]
pub struct CounterBatch {
    counter: Counter,
    pending: u64,
}

impl CounterBatch {
    pub fn new(counter: Counter) -> CounterBatch {
        CounterBatch {
            counter,
            pending: 0,
        }
    }

    /// Buffer one increment.
    pub fn incr(&mut self) {
        self.add(1);
    }

    /// Buffer `n` increments, saturating locally at `u64::MAX`.
    pub fn add(&mut self, n: u64) {
        self.pending = self.pending.saturating_add(n);
    }

    /// Increments buffered but not yet applied.
    pub fn pending(&self) -> u64 {
        self.pending
    }

    /// Apply all buffered increments in one saturating add.
    pub fn flush(&mut self) {
        if self.pending > 0 {
            self.counter.add(std::mem::take(&mut self.pending));
        }
    }
}

impl Drop for CounterBatch {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Named counters and histograms for one experiment.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    /// Series requests refused by the [`MAX_SERIES`] cap.
    dropped_series: AtomicU64,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Apply the cardinality cap: an unseen name beyond [`MAX_SERIES`]
    /// folds into [`OVERFLOW_SERIES`] and is counted as dropped.
    fn admit<'a>(&self, len: usize, name: &'a str) -> &'a str {
        if len < MAX_SERIES || name == OVERFLOW_SERIES {
            name
        } else {
            self.dropped_series.fetch_add(1, Ordering::Relaxed);
            OVERFLOW_SERIES
        }
    }

    /// Get or create a counter. An existing series is returned without
    /// allocating its key; only a new one copies `name` into the map.
    pub fn counter(&self, name: &str) -> Arc<AtomicU64> {
        let mut map = self.counters.lock();
        if let Some(c) = map.get(name) {
            return Arc::clone(c);
        }
        let name = self.admit(map.len(), name);
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(AtomicU64::new(0))),
        )
    }

    /// Typed handle to a counter (saturating arithmetic).
    pub fn typed_counter(&self, name: &str) -> Counter {
        Counter(self.counter(name))
    }

    /// Increment a counter by `n`, saturating at `u64::MAX`.
    pub fn add(&self, name: &str, n: u64) {
        Counter(self.counter(name)).add(n);
    }

    /// Increment a counter by one.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Number of series requests refused by the cardinality cap.
    pub(crate) fn dropped_series(&self) -> u64 {
        self.dropped_series.load(Ordering::Relaxed)
    }

    /// Current counter value (0 if never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.counters
            .lock()
            .get(name)
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Get or create a histogram.
    pub(crate) fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock();
        if let Some(h) = map.get(name) {
            return Arc::clone(h);
        }
        let name = self.admit(map.len(), name);
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// Record one histogram sample.
    pub fn observe(&self, name: &str, v: u64) {
        self.histogram(name).record(v);
    }

    /// Render all metrics as an aligned text table (sorted by name).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let counters = self.counters.lock();
        if !counters.is_empty() {
            out.push_str("counters:\n");
            for (k, v) in counters.iter() {
                let _ = writeln!(out, "  {:<48} {}", k, v.load(Ordering::Relaxed));
            }
        }
        let hists = self.histograms.lock();
        if !hists.is_empty() {
            out.push_str("histograms (ns):\n");
            for (k, h) in hists.iter() {
                let s = h.summary();
                let _ = writeln!(
                    out,
                    "  {:<48} n={} mean={:.0} p50={} p95={} p99={} max={}",
                    k, s.count, s.mean, s.p50, s.p95, s.p99, s.max
                );
            }
        }
        let dropped = self.dropped_series();
        if dropped > 0 {
            let _ = writeln!(out, "dropped series: {dropped}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = MetricsRegistry::new();
        m.incr("pulls");
        m.add("pulls", 4);
        assert_eq!(m.get("pulls"), 5);
        assert_eq!(m.get("unknown"), 0);
    }

    #[test]
    fn histogram_summary_tracks_extremes() {
        let h = Histogram::new();
        for v in [10, 20, 30, 40, 1000] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 10);
        assert_eq!(s.max, 1000);
        assert!((s.mean - 220.0).abs() < 1e-9);
    }

    #[test]
    fn quantiles_are_monotone_and_bounded() {
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        let p95 = h.quantile(0.95);
        let p99 = h.quantile(0.99);
        assert!(p50 <= p95 && p95 <= p99);
        // Log-binned: within ~7% relative error of the true quantile.
        assert!((p50 as f64 - 5000.0).abs() / 5000.0 < 0.07, "p50={p50}");
        assert!((p95 as f64 - 9500.0).abs() / 9500.0 < 0.07, "p95={p95}");
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 15);
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.99), 0);
    }

    #[test]
    fn render_contains_all_kinds() {
        let m = MetricsRegistry::new();
        m.incr("c");
        m.observe("h", 5);
        let text = m.render();
        assert!(text.contains("counters:"));
        assert!(text.contains("histograms"));
        assert!(text.contains('c') && text.contains('h'));
    }

    #[test]
    fn same_name_returns_same_instrument() {
        let m = MetricsRegistry::new();
        let a = m.counter("x");
        let b = m.counter("x");
        a.fetch_add(1, Ordering::Relaxed);
        assert_eq!(b.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn bucket_boundaries_are_exact_below_16_and_top5_bits_above() {
        for v in 0..16u64 {
            assert_eq!(bucket_lower_bound(v), v);
        }
        assert_eq!(bucket_lower_bound(16), 16);
        assert_eq!(bucket_lower_bound(31), 31);
        assert_eq!(bucket_lower_bound(32), 32);
        assert_eq!(bucket_lower_bound(33), 32);
        assert_eq!(bucket_lower_bound(47), 46);
        assert_eq!(bucket_lower_bound(1000), 992);
        assert_eq!(bucket_lower_bound(1024), 1024);
        // A bucket's lower bound is a fixed point, and relative error is
        // bounded by one sub-bucket (~1/16).
        for v in [17u64, 100, 999, 12_345, u64::MAX / 3, u64::MAX] {
            let b = bucket_lower_bound(v);
            assert_eq!(bucket_lower_bound(b), b, "v={v}");
            assert!(b <= v && (v - b) as f64 <= v as f64 / 16.0, "v={v} b={b}");
        }
    }

    #[test]
    fn counter_add_saturates_instead_of_wrapping() {
        let m = MetricsRegistry::new();
        m.add("near_max", u64::MAX - 1);
        m.add("near_max", 5);
        assert_eq!(m.get("near_max"), u64::MAX);
        let c = m.typed_counter("near_max");
        c.add(u64::MAX);
        c.incr();
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn record_batch_matches_per_sample_records() {
        let a = Histogram::new();
        let b = Histogram::new();
        let samples: Vec<u64> = (0..500u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9) >> 3)
            .collect();
        for &v in &samples {
            a.record(v);
        }
        b.record_batch(&samples);
        assert_eq!(a.summary(), b.summary());
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(a.quantile(q), b.quantile(q), "q={q}");
        }
    }

    /// The batched-emission audit: a batch whose local sum overflows must
    /// leave the counter exactly where the same per-event bumps would —
    /// pegged at `u64::MAX`, never wrapped.
    #[test]
    fn counter_batch_saturates_like_per_event_bumps() {
        let m = MetricsRegistry::new();
        // Per-event reference path.
        let per_event = m.typed_counter("audit.per_event");
        per_event.add(u64::MAX - 3);
        for _ in 0..10 {
            per_event.incr();
        }
        // Batched path with the identical sequence.
        let mut batch = CounterBatch::new(m.typed_counter("audit.batched"));
        batch.add(u64::MAX - 3);
        for _ in 0..10 {
            batch.incr();
        }
        assert_eq!(batch.pending(), u64::MAX); // local accumulator saturated
        batch.flush();
        assert_eq!(m.get("audit.batched"), m.get("audit.per_event"));
        assert_eq!(m.get("audit.batched"), u64::MAX);
        // Flushing in the middle changes nothing either: saturating adds
        // compose the same way whether applied in one piece or two.
        let mut split = CounterBatch::new(m.typed_counter("audit.split"));
        split.add(u64::MAX - 3);
        split.flush();
        split.add(10);
        split.flush();
        assert_eq!(m.get("audit.split"), u64::MAX);
    }

    #[test]
    fn counter_batch_flushes_on_drop() {
        let m = MetricsRegistry::new();
        {
            let mut b = CounterBatch::new(m.typed_counter("audit.dropped"));
            b.add(7);
        }
        assert_eq!(m.get("audit.dropped"), 7);
    }

    #[test]
    fn series_cardinality_is_capped() {
        let m = MetricsRegistry::new();
        for i in 0..MAX_SERIES + 50 {
            m.incr(&format!("series.{i}"));
        }
        assert_eq!(m.dropped_series(), 50);
        // Overflow folded into the sentinel series, not silently lost.
        assert_eq!(m.get(OVERFLOW_SERIES), 50);
        // Existing series keep working at the cap.
        m.incr("series.0");
        assert_eq!(m.get("series.0"), 2);
        assert!(m.render().contains("dropped series: 50"));
    }
}
