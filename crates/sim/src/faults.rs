//! Deterministic fault injection and retry policy.
//!
//! The survey's operational sections (registry rate limits, shared-FS
//! contention, node churn) describe *failure handling* as much as steady
//! state. This module supplies the two halves every layer shares:
//!
//! * [`FaultInjector`] — a seeded, rule-driven injector that components
//!   consult before each modelled operation. Rules are time windows with a
//!   firing probability, so both *sticky* outages (probability 1.0 over a
//!   window: a registry down for a minute, a disk that stays full) and
//!   *transient* blips (a 2% 503 rate, peer churn) are expressible. The
//!   injector draws from a [`DetRng`], so a fixed seed yields the same fault
//!   schedule on every run — the chaos suites diff two runs byte-for-byte.
//! * [`RetryPolicy`] — exponential backoff with deterministic jitter, an
//!   overall deadline and an optional per-attempt (stage) timeout, executed
//!   over *logical* time. Retries never sleep; they advance `SimTime`.
//!
//! Every decision — injected fault, retry, stage timeout, recovery, give-up,
//! degrade — is recorded in the injector's [`MetricsRegistry`] and appended
//! to an ordered trace, which is what the determinism contract is asserted
//! against: same seed ⇒ identical trace ⇒ identical metrics.

use crate::obs::Stage;
use crate::{DetRng, MetricsRegistry, SimClock, SimSpan, SimTime};
use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The failure classes the testbed models, one per choke point in the
/// pull → convert → cache → run pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// Registry answers 429 Too Many Requests (over and above the token
    /// bucket's modelled delay — this is the hard reject).
    RegistryRateLimit,
    /// Registry answers a transient 5xx.
    RegistryUnavailable,
    /// Registry connection times out.
    RegistryTimeout,
    /// Shared-FS metadata servers brown out: metadata ops still complete
    /// but at a large service-time multiple.
    MdsBrownout,
    /// Node-local scratch disk is full; writes fail until the window ends.
    DiskFull,
    /// A P2P peer leaves the swarm mid-broadcast.
    PeerChurn,
    /// Kubelet/CRI flap: the container runtime rejects a start transiently.
    CriFlap,
    /// SPANK prolog fails on an allocated node (bad mount, stale cache).
    PrologFailure,
    /// A node flaps during a partition reprovision (reimage fails, BMC
    /// reset, boot loop): the drain→reprovision cycle must restart.
    NodeFlap,
    /// A process crash: the component dies at a named crash point
    /// ([`crate::crash::CrashInjector`]) and must come back through its
    /// journal / recovery path rather than a retry loop.
    Crash,
}

impl FaultKind {
    /// Stable lower-case label used in metric names and trace lines.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::RegistryRateLimit => "registry_rate_limit",
            FaultKind::RegistryUnavailable => "registry_unavailable",
            FaultKind::RegistryTimeout => "registry_timeout",
            FaultKind::MdsBrownout => "mds_brownout",
            FaultKind::DiskFull => "disk_full",
            FaultKind::PeerChurn => "peer_churn",
            FaultKind::CriFlap => "cri_flap",
            FaultKind::PrologFailure => "prolog_failure",
            FaultKind::NodeFlap => "node_flap",
            FaultKind::Crash => "crash",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One injection rule: while `from <= now < until`, operations of `kind`
/// fail with `probability`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRule {
    pub kind: FaultKind,
    pub from: SimTime,
    pub until: SimTime,
    /// Firing probability per consultation. `>= 1.0` is sticky: every
    /// operation in the window fails, and no randomness is consumed.
    pub probability: f64,
}

impl FaultRule {
    /// A sticky outage over `[from, until)`.
    pub fn sticky(kind: FaultKind, from: SimTime, until: SimTime) -> FaultRule {
        FaultRule {
            kind,
            from,
            until,
            probability: 1.0,
        }
    }

    /// A transient failure rate over `[from, until)`.
    pub fn transient(
        kind: FaultKind,
        from: SimTime,
        until: SimTime,
        probability: f64,
    ) -> FaultRule {
        FaultRule {
            kind,
            from,
            until,
            probability,
        }
    }

    /// A transient failure rate active for the whole experiment.
    pub fn background(kind: FaultKind, probability: f64) -> FaultRule {
        FaultRule::transient(kind, SimTime::ZERO, SimTime(u64::MAX), probability)
    }

    fn active_at(&self, now: SimTime) -> bool {
        self.from <= now && now < self.until
    }
}

/// A fault the injector decided to fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    pub kind: FaultKind,
    /// When the affected operation was attempted.
    pub at: SimTime,
    /// Position in the injector's global fire order (1-based).
    pub seq: u64,
}

/// Seeded fault scheduler shared by every modelled component.
///
/// Components call [`FaultInjector::roll`] at each operation they want to be
/// injectable; outside any active rule window the call is free and consumes
/// no randomness, so enabling the subsystem with an empty rule set leaves
/// every existing experiment bit-identical.
#[derive(Debug)]
pub struct FaultInjector {
    rules: Vec<FaultRule>,
    rng: Mutex<DetRng>,
    metrics: Arc<MetricsRegistry>,
    trace: Mutex<Vec<String>>,
    seq: AtomicU64,
    enabled: bool,
}

impl FaultInjector {
    /// An injector with no rules that never fires. This is the default every
    /// component starts with; `roll` is a cheap no-op.
    pub fn disabled() -> Arc<FaultInjector> {
        Arc::new(FaultInjector {
            rules: Vec::new(),
            rng: Mutex::new(DetRng::seeded(0)),
            metrics: Arc::new(MetricsRegistry::new()),
            trace: Mutex::new(Vec::new()),
            seq: AtomicU64::new(0),
            enabled: false,
        })
    }

    /// A live injector with the given seed and rule set.
    pub fn new(seed: u64, rules: Vec<FaultRule>) -> FaultInjector {
        FaultInjector {
            rules,
            rng: Mutex::new(DetRng::seeded(seed)),
            metrics: Arc::new(MetricsRegistry::new()),
            trace: Mutex::new(Vec::new()),
            seq: AtomicU64::new(0),
            enabled: true,
        }
    }

    /// Route fault/retry metrics into an experiment's registry instead of a
    /// private one.
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> FaultInjector {
        self.metrics = metrics;
        self
    }

    /// The registry where every injection/retry/degrade decision lands.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// True when at least one rule can ever fire.
    pub fn is_enabled(&self) -> bool {
        self.enabled && !self.rules.is_empty()
    }

    /// Consult the schedule: does an operation of `kind` at `now` fail?
    ///
    /// Deterministic: with a fixed seed and a fixed call order (the
    /// experiments are single-threaded over logical time) the same calls
    /// return the same answers.
    pub fn roll(&self, kind: FaultKind, now: SimTime) -> Option<Fault> {
        if !self.enabled {
            return None;
        }
        let rule = self
            .rules
            .iter()
            .find(|r| r.kind == kind && r.active_at(now))?;
        let fire = rule.probability >= 1.0 || self.rng.lock().chance(rule.probability);
        if !fire {
            return None;
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        self.metrics
            .incr(&format!("faults.injected.{}", kind.label()));
        self.note(format!("#{seq} {now} inject {kind}"));
        Some(Fault { kind, at: now, seq })
    }

    /// Run a closure against the injector's RNG (deterministic jitter,
    /// peer selection under churn, ...).
    pub(crate) fn with_rng<R>(&self, f: impl FnOnce(&mut DetRng) -> R) -> R {
        f(&mut self.rng.lock())
    }

    /// Append a line to the ordered decision trace.
    pub fn note(&self, line: String) {
        self.trace.lock().push(line);
    }

    /// Record a degrade decision (fallback to a secondary source) so
    /// experiments can report how often each path saved a request.
    pub fn note_degrade(&self, op: &str, from: &str, to: &str, now: SimTime) {
        self.metrics.incr(&format!("degrade.{op}.{from}_to_{to}"));
        self.note(format!("- {now} degrade {op}: {from} -> {to}"));
    }

    /// The full decision trace, in order.
    pub fn trace(&self) -> Vec<String> {
        self.trace.lock().clone()
    }

    /// FNV-1a digest of the trace — a cheap fingerprint two runs can compare.
    pub fn trace_digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for line in self.trace.lock().iter() {
            for b in line.as_bytes() {
                h ^= *b as u64;
                h = h.wrapping_mul(0x1_0000_01b3);
            }
            h ^= b'\n' as u64;
            h = h.wrapping_mul(0x1_0000_01b3);
        }
        h
    }
}

/// Exponential-backoff retry policy executed over logical time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts including the first (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: SimSpan,
    /// Backoff growth cap.
    pub max_backoff: SimSpan,
    /// Growth factor per retry.
    pub multiplier: f64,
    /// Symmetric jitter fraction: the pause is scaled by a deterministic
    /// draw from `[1 - jitter, 1 + jitter]`.
    pub jitter: f64,
    /// Overall budget from the first attempt's start; once `now + backoff`
    /// would cross it, the policy gives up.
    pub deadline: SimSpan,
    /// Per-attempt (stage) timeout: an attempt whose modelled completion
    /// exceeds this is abandoned at the limit and treated as transient.
    pub attempt_timeout: Option<SimSpan>,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 5,
            base_backoff: SimSpan::millis(100),
            max_backoff: SimSpan::secs(10),
            multiplier: 2.0,
            jitter: 0.1,
            deadline: SimSpan::secs(60),
            attempt_timeout: None,
        }
    }
}

impl RetryPolicy {
    /// A policy that fails fast: one attempt, no backoff.
    pub fn no_retries() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// Builder: set the per-attempt timeout.
    pub fn with_attempt_timeout(mut self, t: SimSpan) -> RetryPolicy {
        self.attempt_timeout = Some(t);
        self
    }

    /// The pause after `failures` failed attempts (1-based), with jitter
    /// drawn deterministically from `rng`. Saturates at `max_backoff` for
    /// arbitrarily large failure counts: `powi` takes an `i32`, so a raw
    /// `as i32` cast of a huge count would wrap negative (shrinking the
    /// pause), and an exponent past ~1000 overflows `f64` to `+inf`, which
    /// [`SimSpan::scale`] clamps to zero — both would turn a retry storm
    /// into a zero-pause spin.
    pub fn backoff(&self, failures: u32, rng: &mut DetRng) -> SimSpan {
        let exp = failures.saturating_sub(1).min(i32::MAX as u32) as i32;
        let factor = self.multiplier.powi(exp);
        let capped = if factor.is_finite() {
            self.base_backoff.scale(factor).min(self.max_backoff)
        } else {
            self.max_backoff
        };
        if self.jitter <= 0.0 {
            return capped;
        }
        let factor = 1.0 + self.jitter * (2.0 * rng.unit() - 1.0);
        capped.scale(factor)
    }

    /// Retry an arrival→completion operation over logical time.
    ///
    /// `attempt_fn(attempt, arrival)` models one try: it returns the value
    /// plus the completion instant, or a typed error. `transient` decides
    /// whether an error is worth retrying; fatal errors propagate
    /// immediately with `gave_up == false`. `stage` tags every trace line
    /// (`[pull]`, `[request]`, ...) so retry traces and obs spans join on
    /// the same pipeline stage; metric names stay keyed by `op` alone.
    pub fn run_timed<T, E: fmt::Display>(
        &self,
        injector: &FaultInjector,
        op: &str,
        stage: Stage,
        start: SimTime,
        transient: impl FnMut(&E) -> bool,
        attempt_fn: impl FnMut(u32, SimTime) -> Result<(T, SimTime), E>,
    ) -> Result<RetryOk<T>, RetryErr<E>> {
        self.drive(injector, op, stage, start, transient, attempt_fn)
    }

    /// Retry an operation that charges its own costs to a [`SimClock`].
    ///
    /// Backoff pauses advance the clock. The clock cannot rewind, so an
    /// attempt that overruns `attempt_timeout` stays fully charged — the
    /// timeout only governs the retry decision.
    pub fn run_clocked<T, E: fmt::Display>(
        &self,
        injector: &FaultInjector,
        op: &str,
        stage: Stage,
        clock: &SimClock,
        transient: impl FnMut(&E) -> bool,
        mut attempt_fn: impl FnMut(u32) -> Result<T, E>,
    ) -> Result<RetryOk<T>, RetryErr<E>> {
        self.drive(injector, op, stage, clock, transient, |attempt, _| {
            attempt_fn(attempt).map(|value| (value, clock.now()))
        })
    }

    /// The one retry state machine: attempt → stage-timeout check →
    /// recovered / fatal / give-up (attempts, then deadline) → jittered
    /// backoff, with `time` deciding what an abandoned attempt and a pause
    /// cost.
    fn drive<T, E: fmt::Display>(
        &self,
        injector: &FaultInjector,
        op: &str,
        stage: Stage,
        mut time: impl RetryTime,
        mut transient: impl FnMut(&E) -> bool,
        mut attempt_fn: impl FnMut(u32, SimTime) -> Result<(T, SimTime), E>,
    ) -> Result<RetryOk<T>, RetryErr<E>> {
        let m = injector.metrics();
        let start = time.now();
        let hard_deadline = start + self.deadline;
        let mut attempts = 0;
        loop {
            attempts += 1;
            m.incr(&format!("retry.{op}.attempts"));
            let began = time.now();
            let cause = match attempt_fn(attempts, began) {
                Ok((value, done)) => {
                    let took = done.since(began);
                    match self.attempt_timeout {
                        Some(limit) if took > limit => {
                            time.abandon(limit);
                            m.incr(&format!("retry.{op}.stage_timeout"));
                            injector.note(format!(
                                "- {} {op} [{stage}] attempt {attempts} hit stage timeout {limit} (op needed {took})",
                                time.now()
                            ));
                            RetryCause::StageTimeout { limit, took }
                        }
                        _ => {
                            if attempts > 1 {
                                m.incr(&format!("retry.{op}.recovered"));
                                m.observe(
                                    &format!("retry.{op}.recovery_ns"),
                                    done.since(start).as_nanos(),
                                );
                                injector.note(format!(
                                    "- {done} {op} [{stage}] recovered on attempt {attempts}"
                                ));
                            }
                            return Ok(RetryOk {
                                value,
                                done,
                                attempts,
                            });
                        }
                    }
                }
                Err(e) => RetryCause::Op(e),
            };
            let now = time.now();
            let stop = |cause, gave_up| RetryErr {
                cause,
                at: now,
                attempts,
                gave_up,
            };
            if matches!(&cause, RetryCause::Op(e) if !transient(e)) {
                m.incr(&format!("retry.{op}.fatal"));
                return Err(stop(cause, false));
            }
            // Transient failure: back off or give up.
            if attempts >= self.max_attempts {
                m.incr(&format!("retry.{op}.giveup"));
                injector.note(format!(
                    "- {now} {op} [{stage}] gave up after {attempts} attempts: {cause}"
                ));
                return Err(stop(cause, true));
            }
            let pause = injector.with_rng(|rng| self.backoff(attempts, rng));
            if now + pause > hard_deadline {
                m.incr(&format!("retry.{op}.giveup"));
                injector.note(format!(
                    "- {now} {op} [{stage}] gave up: deadline {} exhausted after {attempts} attempts: {cause}",
                    self.deadline
                ));
                return Err(stop(cause, true));
            }
            time.pause(pause);
            m.incr(&format!("retry.{op}.backoff"));
        }
    }
}

/// Where a retry loop's time lives: a free [`SimTime`] cursor
/// ([`RetryPolicy::run_timed`]) or a shared [`SimClock`] the attempts
/// charge themselves ([`RetryPolicy::run_clocked`]).
trait RetryTime {
    fn now(&self) -> SimTime;
    /// The attempt begun at `now()` was abandoned at its stage timeout.
    fn abandon(&mut self, limit: SimSpan);
    /// Wait out one backoff.
    fn pause(&mut self, span: SimSpan);
}

impl RetryTime for SimTime {
    fn now(&self) -> SimTime {
        *self
    }
    /// The client aborts at the timeout: charge the limit, not the full
    /// (browned-out) completion.
    fn abandon(&mut self, limit: SimSpan) {
        *self += limit;
    }
    fn pause(&mut self, span: SimSpan) {
        *self += span;
    }
}

impl RetryTime for &SimClock {
    fn now(&self) -> SimTime {
        SimClock::now(self)
    }
    /// The clock cannot rewind: the attempt stays fully charged.
    fn abandon(&mut self, _limit: SimSpan) {}
    fn pause(&mut self, span: SimSpan) {
        self.advance(span);
    }
}

/// Successful retry-loop result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryOk<T> {
    pub value: T,
    /// Completion instant of the successful attempt.
    pub done: SimTime,
    /// Attempts used, including the successful one.
    pub attempts: u32,
}

/// Why an individual attempt failed.
#[derive(Debug, Clone, PartialEq)]
pub enum RetryCause<E> {
    /// The operation itself returned an error.
    Op(E),
    /// The attempt overran the policy's per-stage timeout.
    StageTimeout { limit: SimSpan, took: SimSpan },
}

impl<E> RetryCause<E> {
    /// Collapse into the caller's error type: the attempt's own error, or
    /// `timeout(limit)` — the caller's typed timeout — when the stage limit
    /// was what fired.
    pub fn into_op(self, timeout: impl FnOnce(SimSpan) -> E) -> E {
        match self {
            RetryCause::Op(e) => e,
            RetryCause::StageTimeout { limit, .. } => timeout(limit),
        }
    }
}

impl<E: fmt::Display> fmt::Display for RetryCause<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RetryCause::Op(e) => e.fmt(f),
            RetryCause::StageTimeout { limit, took } => {
                write!(f, "stage timeout after {limit} (needed {took})")
            }
        }
    }
}

/// Failed retry-loop result: either retries were exhausted (`gave_up`) or
/// the last error was fatal and never retried.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryErr<E> {
    pub cause: RetryCause<E>,
    /// Logical time at which the loop stopped.
    pub at: SimTime,
    pub attempts: u32,
    /// True when the policy exhausted attempts or its deadline; false when
    /// the error was non-transient.
    pub gave_up: bool,
}

impl<E: fmt::Display> fmt::Display for RetryErr<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.gave_up {
            write!(
                f,
                "gave up after {} attempts: {}",
                self.attempts, self.cause
            )
        } else {
            write!(f, "fatal on attempt {}: {}", self.attempts, self.cause)
        }
    }
}

impl<E: fmt::Display + fmt::Debug> std::error::Error for RetryErr<E> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn outage(kind: FaultKind, from_s: u64, until_s: u64) -> FaultRule {
        FaultRule::sticky(
            kind,
            SimTime::ZERO + SimSpan::secs(from_s),
            SimTime::ZERO + SimSpan::secs(until_s),
        )
    }

    #[test]
    fn disabled_injector_never_fires() {
        let inj = FaultInjector::disabled();
        for s in 0..100 {
            assert!(inj
                .roll(FaultKind::RegistryUnavailable, SimTime(s * 1_000_000_000))
                .is_none());
        }
        assert!(inj.trace().is_empty());
    }

    #[test]
    fn sticky_rule_fires_only_inside_window() {
        let inj = FaultInjector::new(7, vec![outage(FaultKind::DiskFull, 10, 20)]);
        assert!(inj
            .roll(FaultKind::DiskFull, SimTime::ZERO + SimSpan::secs(9))
            .is_none());
        assert!(inj
            .roll(FaultKind::DiskFull, SimTime::ZERO + SimSpan::secs(10))
            .is_some());
        assert!(inj
            .roll(FaultKind::DiskFull, SimTime::ZERO + SimSpan::secs(19))
            .is_some());
        assert!(inj
            .roll(FaultKind::DiskFull, SimTime::ZERO + SimSpan::secs(20))
            .is_none());
        // A different kind in the same window is unaffected.
        assert!(inj
            .roll(FaultKind::PeerChurn, SimTime::ZERO + SimSpan::secs(15))
            .is_none());
    }

    #[test]
    fn same_seed_same_schedule() {
        let rules = vec![FaultRule::background(FaultKind::RegistryUnavailable, 0.3)];
        let a = FaultInjector::new(99, rules.clone());
        let b = FaultInjector::new(99, rules);
        let fires_a: Vec<bool> = (0..500)
            .map(|i| a.roll(FaultKind::RegistryUnavailable, SimTime(i)).is_some())
            .collect();
        let fires_b: Vec<bool> = (0..500)
            .map(|i| b.roll(FaultKind::RegistryUnavailable, SimTime(i)).is_some())
            .collect();
        assert_eq!(fires_a, fires_b);
        assert_eq!(a.trace(), b.trace());
        assert_eq!(a.trace_digest(), b.trace_digest());
        assert!(fires_a.iter().any(|f| *f) && fires_a.iter().any(|f| !*f));
    }

    #[test]
    fn injection_counts_land_in_metrics() {
        let inj = FaultInjector::new(1, vec![outage(FaultKind::CriFlap, 0, 1)]);
        inj.roll(FaultKind::CriFlap, SimTime::ZERO);
        inj.roll(FaultKind::CriFlap, SimTime::ZERO);
        assert_eq!(inj.metrics().get("faults.injected.cri_flap"), 2);
    }

    #[test]
    fn backoff_grows_and_caps() {
        let policy = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        let mut rng = DetRng::seeded(0);
        let b1 = policy.backoff(1, &mut rng);
        let b2 = policy.backoff(2, &mut rng);
        let b3 = policy.backoff(3, &mut rng);
        assert_eq!(b1, SimSpan::millis(100));
        assert_eq!(b2, SimSpan::millis(200));
        assert_eq!(b3, SimSpan::millis(400));
        // Far beyond the cap.
        assert_eq!(policy.backoff(30, &mut rng), policy.max_backoff);
    }

    #[test]
    fn backoff_saturates_at_huge_failure_counts() {
        let policy = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        let mut rng = DetRng::seeded(0);
        // failures == 0 behaves like the first retry (exponent clamps at 0).
        assert_eq!(policy.backoff(0, &mut rng), policy.base_backoff);
        // Every count past the cap crossover pins to max_backoff — in
        // particular the ones whose raw `as i32` cast used to wrap negative
        // (2^31..) or whose exponent overflows f64 to +inf (~1100 for 2.0).
        for failures in [
            64,
            1_100,
            i32::MAX as u32,
            i32::MAX as u32 + 1,
            u32::MAX - 1,
            u32::MAX,
        ] {
            assert_eq!(
                policy.backoff(failures, &mut rng),
                policy.max_backoff,
                "failures={failures}"
            );
        }
        // With jitter on, huge counts stay within the band around the cap
        // instead of collapsing to zero.
        let jittered = RetryPolicy::default();
        for failures in [i32::MAX as u32 + 7, u32::MAX] {
            let b = jittered.backoff(failures, &mut rng);
            assert!(
                b >= jittered.max_backoff.scale(0.9) && b <= jittered.max_backoff.scale(1.1),
                "failures={failures}: {b}"
            );
        }
    }

    #[test]
    fn jitter_stays_within_band() {
        let policy = RetryPolicy::default();
        let mut rng = DetRng::seeded(3);
        for failures in 1..6 {
            let nominal = policy
                .base_backoff
                .scale(policy.multiplier.powi(failures as i32 - 1))
                .min(policy.max_backoff);
            let b = policy.backoff(failures, &mut rng);
            assert!(
                b >= nominal.scale(0.9) && b <= nominal.scale(1.1),
                "{b} vs {nominal}"
            );
        }
    }

    #[test]
    fn run_timed_recovers_after_transient_failures() {
        let inj = FaultInjector::new(5, Vec::new());
        let policy = RetryPolicy::default();
        let out = policy
            .run_timed(
                &inj,
                "pull",
                Stage::Pull,
                SimTime::ZERO,
                |_e: &String| true,
                |attempt, arrival| {
                    if attempt < 3 {
                        Err("503".to_string())
                    } else {
                        Ok((42u32, arrival + SimSpan::millis(10)))
                    }
                },
            )
            .unwrap();
        assert_eq!(out.value, 42);
        assert_eq!(out.attempts, 3);
        // Completion includes two backoffs (~100ms + ~200ms) plus the op.
        assert!(
            out.done > SimTime::ZERO + SimSpan::millis(250),
            "{}",
            out.done
        );
        assert_eq!(inj.metrics().get("retry.pull.attempts"), 3);
        assert_eq!(inj.metrics().get("retry.pull.recovered"), 1);
        assert_eq!(inj.metrics().get("retry.pull.giveup"), 0);
    }

    #[test]
    fn run_timed_gives_up_after_max_attempts() {
        let inj = FaultInjector::new(5, Vec::new());
        let policy = RetryPolicy::default();
        let err = policy
            .run_timed(
                &inj,
                "pull",
                Stage::Pull,
                SimTime::ZERO,
                |_e: &String| true,
                |_, _| Err::<((), SimTime), String>("503".to_string()),
            )
            .unwrap_err();
        assert!(err.gave_up);
        assert_eq!(err.attempts, 5);
        assert_eq!(inj.metrics().get("retry.pull.giveup"), 1);
        assert_eq!(inj.metrics().get("retry.pull.attempts"), 5);
    }

    #[test]
    fn run_timed_respects_deadline() {
        let inj = FaultInjector::new(5, Vec::new());
        let policy = RetryPolicy {
            max_attempts: 100,
            deadline: SimSpan::millis(350),
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        let err = policy
            .run_timed(
                &inj,
                "pull",
                Stage::Pull,
                SimTime::ZERO,
                |_e: &String| true,
                |_, _| Err::<((), SimTime), String>("503".to_string()),
            )
            .unwrap_err();
        assert!(err.gave_up);
        // 100ms + 200ms fit in 350ms; the third backoff (400ms) does not.
        assert_eq!(err.attempts, 3);
        assert!(err.at <= SimTime::ZERO + SimSpan::millis(350));
    }

    #[test]
    fn run_timed_fatal_errors_skip_retry() {
        let inj = FaultInjector::new(5, Vec::new());
        let err = RetryPolicy::default()
            .run_timed(
                &inj,
                "pull",
                Stage::Pull,
                SimTime::ZERO,
                |e: &String| e != "not found",
                |_, _| Err::<((), SimTime), String>("not found".to_string()),
            )
            .unwrap_err();
        assert!(!err.gave_up);
        assert_eq!(err.attempts, 1);
        assert_eq!(inj.metrics().get("retry.pull.fatal"), 1);
    }

    #[test]
    fn run_timed_stage_timeout_abandons_slow_attempts() {
        let inj = FaultInjector::new(5, Vec::new());
        let policy = RetryPolicy::default().with_attempt_timeout(SimSpan::millis(50));
        let out = policy
            .run_timed(
                &inj,
                "read",
                Stage::Storage,
                SimTime::ZERO,
                |_e: &String| true,
                |attempt, arrival| {
                    // First attempt is browned out (10× the timeout); the
                    // retry is healthy.
                    let cost = if attempt == 1 {
                        SimSpan::millis(500)
                    } else {
                        SimSpan::millis(5)
                    };
                    Ok((attempt, arrival + cost))
                },
            )
            .unwrap();
        assert_eq!(out.value, 2);
        // Charged the 50ms timeout, not the 500ms brownout.
        assert!(
            out.done < SimTime::ZERO + SimSpan::millis(200),
            "{}",
            out.done
        );
        assert_eq!(inj.metrics().get("retry.read.stage_timeout"), 1);
    }

    #[test]
    fn run_clocked_charges_backoff_to_the_clock() {
        let inj = FaultInjector::new(5, Vec::new());
        let clock = SimClock::new();
        let policy = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        let out = policy
            .run_clocked(
                &inj,
                "start",
                Stage::Pod,
                &clock,
                |_e: &String| true,
                |attempt| {
                    clock.advance(SimSpan::millis(1));
                    if attempt < 2 {
                        Err("flap".to_string())
                    } else {
                        Ok(attempt)
                    }
                },
            )
            .unwrap();
        assert_eq!(out.value, 2);
        // 1ms + 100ms backoff + 1ms.
        assert_eq!(clock.now(), SimTime::ZERO + SimSpan::millis(102));
    }

    #[test]
    fn retry_trace_lines_carry_the_stage_tag() {
        let inj = FaultInjector::new(5, Vec::new());
        let _ = RetryPolicy::default().run_timed(
            &inj,
            "engine.pull",
            Stage::Pull,
            SimTime::ZERO,
            |_e: &String| true,
            |_, _| Err::<((), SimTime), String>("503".to_string()),
        );
        let trace = inj.trace();
        assert!(
            trace
                .iter()
                .any(|l| l.contains("engine.pull [pull] gave up")),
            "{trace:?}"
        );
    }

    /// One scripted outcome per attempt: `Err` is a transient 503 (or the
    /// fatal `not found`), `Ok(ms)` a completion `ms` after the attempt began.
    type Script = &'static [Result<u64, &'static str>];

    /// Four loops on one injector — recovered through a stage timeout,
    /// give-up by attempts, give-up by deadline, fatal — through either
    /// adapter.
    fn transcript(clocked: bool) -> (Vec<String>, String) {
        let inj = FaultInjector::new(17, Vec::new());
        let clock = SimClock::new();
        clock.advance(SimSpan::secs(1));
        let ladder = RetryPolicy {
            max_attempts: 4,
            ..RetryPolicy::default().with_attempt_timeout(SimSpan::millis(50))
        };
        let short = RetryPolicy {
            max_attempts: 100,
            deadline: SimSpan::millis(350),
            ..RetryPolicy::default()
        };
        let runs: [(&str, RetryPolicy, Script); 4] = [
            (
                "t.recover",
                ladder,
                &[Err("503"), Ok(500), Err("503"), Ok(5)],
            ),
            ("t.attempts", ladder, &[Err("503"); 4]),
            ("t.deadline", short, &[Err("503"); 100]),
            ("t.fatal", ladder, &[Err("503"), Err("not found")]),
        ];
        for (op, policy, script) in runs {
            let transient = |e: &String| e != "not found";
            let step = |n: u32| script[n as usize - 1].map_err(str::to_string);
            let stop = if clocked {
                policy
                    .run_clocked(&inj, op, Stage::Pull, &clock, transient, |n| {
                        step(n).map(|ms| clock.advance(SimSpan::millis(ms)))
                    })
                    .map_or_else(|e| e.at, |ok| ok.done)
            } else {
                policy
                    .run_timed(&inj, op, Stage::Pull, clock.now(), transient, |n, at| {
                        step(n).map(|ms| ((), at + SimSpan::millis(ms)))
                    })
                    .map_or_else(|e| e.at, |ok| ok.done)
            };
            clock.advance_to(stop);
        }
        (inj.trace(), inj.metrics().render())
    }

    /// The trace and metrics of [`transcript`], captured from the two
    /// hand-written loops the one driver replaced: every line, every
    /// counter and the emission order are frozen. The adapters differ only
    /// in what the abandoned 500 ms attempt cost (50 ms vs all of it).
    #[test]
    fn both_adapters_reproduce_the_frozen_transcript() {
        let counters = "counters:
  retry.t.attempts.attempts                        4
  retry.t.attempts.backoff                         3
  retry.t.attempts.giveup                          1
  retry.t.deadline.attempts                        3
  retry.t.deadline.backoff                         2
  retry.t.deadline.giveup                          1
  retry.t.fatal.attempts                           2
  retry.t.fatal.backoff                            1
  retry.t.fatal.fatal                              1
  retry.t.recover.attempts                         4
  retry.t.recover.backoff                          3
  retry.t.recover.recovered                        1
  retry.t.recover.stage_timeout                    1
histograms (ns):
  retry.t.recover.recovery_ns                      ";
        let (trace, metrics) = transcript(false);
        assert_eq!(
            trace,
            [
                "- t+1.153s t.recover [pull] attempt 2 hit stage timeout 50.00ms (op needed 500.00ms)",
                "- t+1.801s t.recover [pull] recovered on attempt 4",
                "- t+2.552s t.attempts [pull] gave up after 4 attempts: 503",
                "- t+2.875s t.deadline [pull] gave up: deadline 350.00ms exhausted after 3 attempts: 503",
            ]
        );
        assert_eq!(
            metrics,
            format!("{counters}n=1 mean=800887474 p50=771751936 p95=771751936 p99=771751936 max=800887474\n")
        );
        let (trace, metrics) = transcript(true);
        assert_eq!(
            trace,
            [
                "- t+1.603s t.recover [pull] attempt 2 hit stage timeout 50.00ms (op needed 500.00ms)",
                "- t+2.251s t.recover [pull] recovered on attempt 4",
                "- t+3.002s t.attempts [pull] gave up after 4 attempts: 503",
                "- t+3.325s t.deadline [pull] gave up: deadline 350.00ms exhausted after 3 attempts: 503",
            ]
        );
        assert_eq!(
            metrics,
            format!("{counters}n=1 mean=1250887474 p50=1207959552 p95=1207959552 p99=1207959552 max=1250887474\n")
        );
    }

    #[test]
    fn retry_trace_is_deterministic() {
        let run = || {
            let inj = FaultInjector::new(21, vec![FaultRule::background(FaultKind::CriFlap, 0.5)]);
            let policy = RetryPolicy::default();
            let clock = SimClock::new();
            for _ in 0..20 {
                let _ = policy.run_clocked(
                    &inj,
                    "start",
                    Stage::Pod,
                    &clock,
                    |_e: &String| true,
                    |a| {
                        clock.advance(SimSpan::millis(3));
                        match inj.roll(FaultKind::CriFlap, clock.now()) {
                            Some(f) => Err(format!("flap #{}", f.seq)),
                            None if a > 0 => Ok(()),
                            None => Ok(()),
                        }
                    },
                );
            }
            (inj.trace(), inj.metrics().render(), inj.trace_digest())
        };
        let (t1, m1, d1) = run();
        let (t2, m2, d2) = run();
        assert_eq!(t1, t2);
        assert_eq!(m1, m2);
        assert_eq!(d1, d2);
        assert!(!t1.is_empty());
    }

    mod props {
        use super::*;
        use proptest::prelude::*;
        use std::cell::Cell;

        /// One scripted attempt: a transient error, a fatal one, or a
        /// success `ms` after it began. Errors cost nothing in either mode.
        #[derive(Debug, Clone, Copy)]
        enum Step {
            Transient,
            Fatal,
            Done(u64),
        }

        fn step() -> impl Strategy<Value = Step> {
            prop_oneof![
                Just(Step::Transient),
                Just(Step::Transient),
                Just(Step::Fatal),
                (0u64..400).prop_map(Step::Done),
            ]
        }

        /// What one loop did: attempts, `gave_up` (`None` on success),
        /// stop instant, cost of the last attempt, trace + metrics.
        type Stopped = (u32, Option<bool>, SimTime, SimSpan, String);

        /// Drive `script` (cycled) through one adapter on a fresh injector.
        fn run(policy: &RetryPolicy, script: &[Step], seed: u64, clocked: bool) -> Stopped {
            let inj = FaultInjector::new(seed, Vec::new());
            let clock = SimClock::new();
            let last = Cell::new(SimSpan(0));
            let step = |n: u32| {
                last.set(SimSpan(0));
                match script[(n as usize - 1) % script.len()] {
                    Step::Transient => Err("503"),
                    Step::Fatal => Err("not found"),
                    Step::Done(ms) => {
                        last.set(SimSpan::millis(ms));
                        Ok(last.get())
                    }
                }
            };
            let transient = |e: &&str| *e == "503";
            let outcome = if clocked {
                policy.run_clocked(&inj, "p", Stage::Pull, &clock, transient, |n| {
                    step(n).map(|cost| {
                        clock.advance(cost);
                    })
                })
            } else {
                policy.run_timed(&inj, "p", Stage::Pull, SimTime::ZERO, transient, |n, at| {
                    step(n).map(|cost| ((), at + cost))
                })
            };
            let (attempts, gave_up, at) = match outcome {
                Ok(ok) => (ok.attempts, None, ok.done),
                Err(e) => (e.attempts, Some(e.gave_up), e.at),
            };
            let log = format!("{:?}\n{}", inj.trace(), inj.metrics().render());
            (attempts, gave_up, at, last.get(), log)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Under any policy and any outcome script the loop is bounded
            /// — by `max_attempts`, and in time by the deadline plus the
            /// attempt that was in flight when it ran out — and the two
            /// adapters are the same machine: unless an attempt overruns
            /// `attempt_timeout` (the one place they charge differently)
            /// they agree on the verdict, the stop instant, every trace
            /// line and every metric.
            #[test]
            fn loop_is_bounded_and_adapters_agree(
                seed in 0u64..10_000,
                max_attempts in 1u32..8,
                base_ms in 1u64..500,
                multiplier in (100u64..300).prop_map(|m| m as f64 / 100.0),
                jitter in (0u64..50).prop_map(|j| j as f64 / 100.0),
                deadline_ms in 1u64..5_000,
                timeout_ms in 0u64..600,
                script in collection::vec(step(), 1..6),
            ) {
                let policy = RetryPolicy {
                    max_attempts,
                    base_backoff: SimSpan::millis(base_ms),
                    max_backoff: SimSpan::secs(2),
                    multiplier,
                    jitter,
                    deadline: SimSpan::millis(deadline_ms),
                    // The low sixth of the range stands for "no timeout".
                    attempt_timeout: (timeout_ms >= 100).then(|| SimSpan::millis(timeout_ms)),
                };
                let runs = [false, true].map(|clocked| run(&policy, &script, seed, clocked));
                for (attempts, _, at, last, log) in &runs {
                    prop_assert!(*attempts <= max_attempts, "{log}");
                    prop_assert!(*at <= SimTime::ZERO + policy.deadline + *last, "{log}");
                }
                let overruns = |s: &Step| match (s, policy.attempt_timeout) {
                    (Step::Done(ms), Some(limit)) => SimSpan::millis(*ms) > limit,
                    _ => false,
                };
                if !script.iter().any(overruns) {
                    prop_assert_eq!(&runs[0], &runs[1]);
                }
            }
        }
    }
}
