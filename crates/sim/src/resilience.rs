//! Reusable self-healing primitives: circuit breakers and
//! admission-control load shedding.
//!
//! [`crate::faults::RetryPolicy`] handles *per-request* failure; this
//! module adds the *per-endpoint* layer the survey's multi-domain
//! deployments survive on. All state advances over logical time and all
//! jitter is drawn from the shared [`FaultInjector`] RNG, so every
//! decision is a pure function of (seed, call order):
//!
//! * [`CircuitBreaker`] — closed → open → half-open per endpoint. After
//!   [`BreakerConfig::failure_threshold`] consecutive failures the
//!   breaker opens and short-circuits callers (they fail over instead of
//!   burning retry budget against a dead endpoint); after a seeded
//!   cooldown a single half-open probe decides whether to close.
//!   [`CircuitBreaker::settle`] is the one rule that turns a retry
//!   loop's outcome into breaker feedback.
//! * [`AdmissionQueue`] — bounded-wait admission control for the origin
//!   registry: a request whose projected queue wait exceeds the bound is
//!   shed immediately (with a retry-after hint) instead of timing out
//!   after holding a slot — the queue-saturation half of a brownout.
//!
//! Both the half-open probe and the shed decision pass named crash
//! points (`resilience.breaker.probe.pre`, `resilience.admission.shed.pre`)
//! so the crash matrix can kill a process mid-probe and mid-shed and
//! prove the state machines recover.

use crate::crash::{CrashInjector, Crashed};
use crate::faults::{FaultInjector, RetryCause, RetryErr, RetryOk};
use crate::time::{SimSpan, SimTime};
use parking_lot::Mutex;

/// Crash point passed immediately before a half-open probe is granted.
pub const BREAKER_PROBE_CRASH_POINT: &str = "resilience.breaker.probe.pre";
/// Crash point passed immediately before a shed decision is returned.
pub const ADMISSION_SHED_CRASH_POINT: &str = "resilience.admission.shed.pre";

// ------------------------------------------------------------- breakers

/// Circuit-breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub failure_threshold: u32,
    /// Minimum open time before a half-open probe is allowed.
    pub cooldown: SimSpan,
    /// The probe instant is `cooldown * (1 + probe_jitter * u)` with `u`
    /// drawn from the injector RNG in `[0, 1)` — jitter only *delays*
    /// the probe, so co-tripped breakers de-synchronize their probes
    /// without ever probing before the cooldown.
    pub probe_jitter: f64,
    /// Successful half-open probes required to close again.
    pub success_to_close: u32,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            cooldown: SimSpan::secs(5),
            probe_jitter: 0.2,
            success_to_close: 1,
        }
    }
}

/// Observable breaker state (the classic three-state machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Requests flow; consecutive failures are counted.
    Closed,
    /// Requests are short-circuited until `probe_at`.
    Open {
        /// Earliest instant a half-open probe will be granted.
        probe_at: SimTime,
    },
    /// One probe is in flight; its outcome closes or re-opens.
    HalfOpen,
}

#[derive(Debug)]
struct BreakerInner {
    state: BreakerState,
    consecutive_failures: u32,
    half_open_successes: u32,
}

/// A per-endpoint circuit breaker over logical time.
///
/// Callers ask [`allow`](CircuitBreaker::allow) before each request and
/// [`settle`](CircuitBreaker::settle) its outcome afterwards. Every
/// transition lands in the injector's metrics (`breaker.<name>.*`) and
/// ordered trace.
#[derive(Debug)]
pub struct CircuitBreaker {
    name: String,
    cfg: BreakerConfig,
    inner: Mutex<BreakerInner>,
}

impl CircuitBreaker {
    /// A closed breaker for one named endpoint.
    pub fn new(name: impl Into<String>, cfg: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            name: name.into(),
            cfg,
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                half_open_successes: 0,
            }),
        }
    }

    /// The endpoint name transitions are tagged with.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current state snapshot.
    pub fn state(&self) -> BreakerState {
        self.inner.lock().state
    }

    /// May a request proceed at `now`? `Ok(false)` is a short-circuit:
    /// the caller should fail over immediately without attempting the
    /// endpoint. When the cooldown has elapsed this grants exactly one
    /// half-open probe (passing [`BREAKER_PROBE_CRASH_POINT`] first, so
    /// a crash mid-probe leaves the breaker open — re-probed, not
    /// wedged, after recovery).
    pub fn allow(
        &self,
        injector: &FaultInjector,
        crash: &CrashInjector,
        now: SimTime,
    ) -> Result<bool, Crashed> {
        let mut inner = self.inner.lock();
        match inner.state {
            BreakerState::Closed => Ok(true),
            BreakerState::HalfOpen => {
                // One probe at a time; everyone else keeps failing over.
                injector
                    .metrics()
                    .incr(&format!("breaker.{}.short_circuit", self.name));
                Ok(false)
            }
            BreakerState::Open { probe_at } => {
                if now < probe_at {
                    injector
                        .metrics()
                        .incr(&format!("breaker.{}.short_circuit", self.name));
                    return Ok(false);
                }
                // The crash point fires *before* the transition: a
                // process that dies mid-probe comes back with the
                // breaker still open and simply probes again.
                crash.crash_point(BREAKER_PROBE_CRASH_POINT, now)?;
                inner.state = BreakerState::HalfOpen;
                inner.half_open_successes = 0;
                injector
                    .metrics()
                    .incr(&format!("breaker.{}.half_open", self.name));
                injector.note(format!("- {now} breaker {} half-open (probe)", self.name));
                Ok(true)
            }
        }
    }

    /// Report a successful request at `now`.
    pub fn on_success(&self, injector: &FaultInjector, now: SimTime) {
        let mut inner = self.inner.lock();
        match inner.state {
            BreakerState::Closed => inner.consecutive_failures = 0,
            BreakerState::HalfOpen => {
                inner.half_open_successes += 1;
                if inner.half_open_successes >= self.cfg.success_to_close {
                    inner.state = BreakerState::Closed;
                    inner.consecutive_failures = 0;
                    injector
                        .metrics()
                        .incr(&format!("breaker.{}.close", self.name));
                    injector.note(format!("- {now} breaker {} closed", self.name));
                }
            }
            // A success against an open breaker means the caller raced a
            // request that was admitted before the trip; ignore it.
            BreakerState::Open { .. } => {}
        }
    }

    /// Report a failed request at `now`. Trips the breaker after
    /// [`BreakerConfig::failure_threshold`] consecutive failures; a
    /// failed half-open probe re-opens immediately with a fresh seeded
    /// cooldown.
    pub fn on_failure(&self, injector: &FaultInjector, now: SimTime) {
        let mut inner = self.inner.lock();
        match inner.state {
            BreakerState::Closed => {
                inner.consecutive_failures += 1;
                if inner.consecutive_failures >= self.cfg.failure_threshold {
                    self.trip(&mut inner, injector, now, "open");
                }
            }
            BreakerState::HalfOpen => self.trip(&mut inner, injector, now, "reopen"),
            BreakerState::Open { .. } => {}
        }
    }

    /// Settle the breaker with the outcome of the retry loop a granted
    /// [`allow`](CircuitBreaker::allow) admitted — the one place a
    /// request's fate becomes breaker feedback, so a half-open probe
    /// always leaves `HalfOpen` whatever way it ends. Success, and equally
    /// a *non-transient* answer (unknown repo, digest mismatch): the
    /// endpoint is alive, so [`on_success`](CircuitBreaker::on_success).
    /// An exhausted ladder: [`on_failure`](CircuitBreaker::on_failure).
    /// A process death (`crashed` recognises it in the caller's error
    /// type) says nothing about the endpoint: a crashed probe re-opens so
    /// the restarted process probes again, anything else is left alone.
    pub fn settle<T, E>(
        &self,
        injector: &FaultInjector,
        outcome: &Result<RetryOk<T>, RetryErr<E>>,
        crashed: impl FnOnce(&E) -> bool,
    ) {
        match outcome {
            Ok(ok) => self.on_success(injector, ok.done),
            Err(err) if err.gave_up => self.on_failure(injector, err.at),
            Err(err) => match &err.cause {
                RetryCause::Op(e) if crashed(e) => {
                    let mut inner = self.inner.lock();
                    if inner.state == BreakerState::HalfOpen {
                        self.trip(&mut inner, injector, err.at, "reopen");
                    }
                }
                _ => self.on_success(injector, err.at),
            },
        }
    }

    fn trip(&self, inner: &mut BreakerInner, injector: &FaultInjector, now: SimTime, what: &str) {
        let jitter = if self.cfg.probe_jitter > 0.0 {
            1.0 + self.cfg.probe_jitter * injector.with_rng(|rng| rng.unit())
        } else {
            1.0
        };
        let probe_at = now + self.cfg.cooldown.scale(jitter);
        inner.state = BreakerState::Open { probe_at };
        inner.consecutive_failures = 0;
        injector
            .metrics()
            .incr(&format!("breaker.{}.{what}", self.name));
        injector.note(format!(
            "- {now} breaker {} {what} (probe at {probe_at})",
            self.name
        ));
    }
}

// ------------------------------------------------------------ admission

/// Admission-control tuning for a shedding queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Service slots (the origin's egress concurrency).
    pub slots: usize,
    /// Shed any request whose projected queue wait exceeds this.
    pub max_wait: SimSpan,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig {
            slots: 8,
            max_wait: SimSpan::secs(2),
        }
    }
}

/// Outcome of one admission decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The request was admitted: service starts at `start`, completes at
    /// `done`.
    Admitted { start: SimTime, done: SimTime },
    /// The request was shed: the projected wait exceeded the bound. The
    /// caller should retry no sooner than `retry_after` or fail over.
    Shed { retry_after: SimSpan },
}

/// A bounded-wait admission queue: the load-shedding front door of the
/// origin registry. Unlike a raw [`QueueServer`](crate::QueueServer),
/// which queues unboundedly and converts overload into unbounded latency,
/// this sheds early — overload shows up as fast, explicit rejections the
/// resilience layer can fail over on, not as timeouts that hold slots.
#[derive(Debug)]
pub struct AdmissionQueue {
    name: String,
    cfg: AdmissionConfig,
    next_free: Mutex<Vec<SimTime>>,
}

impl AdmissionQueue {
    /// A new queue named for its metrics (`admission.<name>.*`).
    pub fn new(name: impl Into<String>, cfg: AdmissionConfig) -> AdmissionQueue {
        AdmissionQueue {
            name: name.into(),
            cfg,
            next_free: Mutex::new(vec![SimTime::ZERO; cfg.slots.max(1)]),
        }
    }

    /// The configured (healthy) slot count.
    pub fn slots(&self) -> usize {
        self.cfg.slots.max(1)
    }

    /// Admit-or-shed one request arriving at `now` needing `service`.
    /// `slots_now` is the capacity currently live (≤ configured slots;
    /// an overloaded origin runs degraded). The shed decision passes
    /// [`ADMISSION_SHED_CRASH_POINT`] before returning, so the crash
    /// matrix can kill a process mid-shed — a shed holds no slot, so
    /// recovery sees an unchanged queue.
    pub fn admit(
        &self,
        injector: &FaultInjector,
        crash: &CrashInjector,
        now: SimTime,
        service: SimSpan,
        slots_now: usize,
    ) -> Result<Admission, Crashed> {
        let mut next_free = self.next_free.lock();
        let live = slots_now.clamp(1, next_free.len());
        let (slot, free_at) = next_free[..live]
            .iter()
            .copied()
            .enumerate()
            .min_by_key(|(i, t)| (*t, *i))
            .expect("at least one slot");
        let start = free_at.max(now);
        let wait = start.since(now);
        if wait > self.cfg.max_wait {
            crash.crash_point(ADMISSION_SHED_CRASH_POINT, now)?;
            injector
                .metrics()
                .incr(&format!("admission.{}.shed", self.name));
            injector.note(format!(
                "- {now} admission {} shed (projected wait {wait} > {})",
                self.name, self.cfg.max_wait
            ));
            return Ok(Admission::Shed { retry_after: wait });
        }
        let done = start + service;
        next_free[slot] = done;
        let m = injector.metrics();
        m.incr(&format!("admission.{}.admitted", self.name));
        m.add(&format!("admission.{}.wait_ns", self.name), wait.as_nanos());
        Ok(Admission::Admitted { start, done })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultInjector;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimSpan::millis(ms)
    }

    #[test]
    fn breaker_trips_after_threshold_and_short_circuits() {
        let crash = CrashInjector::disabled();
        let inj = FaultInjector::new(1, Vec::new());
        let b = CircuitBreaker::new("origin", BreakerConfig::default());
        for i in 0..3 {
            assert!(b.allow(&inj, &crash, t(i)).unwrap());
            b.on_failure(&inj, t(i));
        }
        let BreakerState::Open { probe_at } = b.state() else {
            panic!("breaker should be open, got {:?}", b.state());
        };
        assert!(probe_at >= t(2) + SimSpan::secs(5), "cooldown respected");
        assert!(!b.allow(&inj, &crash, t(3)).unwrap(), "short-circuited");
        assert_eq!(inj.metrics().get("breaker.origin.open"), 1);
        assert_eq!(inj.metrics().get("breaker.origin.short_circuit"), 1);
    }

    #[test]
    fn breaker_probe_closes_on_success_and_reopens_on_failure() {
        let crash = CrashInjector::disabled();
        let inj = FaultInjector::new(2, Vec::new());
        let b = CircuitBreaker::new(
            "tier",
            BreakerConfig {
                probe_jitter: 0.0,
                ..BreakerConfig::default()
            },
        );
        for i in 0..3 {
            b.on_failure(&inj, t(i));
        }
        let BreakerState::Open { probe_at } = b.state() else {
            panic!()
        };
        // Probe granted exactly at probe_at; siblings still blocked.
        assert!(b.allow(&inj, &crash, probe_at).unwrap());
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.allow(&inj, &crash, probe_at).unwrap(), "one probe only");
        // Failed probe re-opens with a fresh cooldown.
        b.on_failure(&inj, probe_at + SimSpan::millis(1));
        let BreakerState::Open { probe_at: again } = b.state() else {
            panic!()
        };
        assert!(again > probe_at);
        assert_eq!(inj.metrics().get("breaker.tier.reopen"), 1);
        // Second probe succeeds and closes.
        assert!(b.allow(&inj, &crash, again).unwrap());
        b.on_success(&inj, again + SimSpan::millis(1));
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(inj.metrics().get("breaker.tier.close"), 1);
        // Closed again: successes reset the failure streak.
        b.on_failure(&inj, t(10_000));
        b.on_success(&inj, t(10_001));
        b.on_failure(&inj, t(10_002));
        b.on_failure(&inj, t(10_003));
        assert_eq!(b.state(), BreakerState::Closed, "streak was reset");
    }

    #[test]
    fn breaker_crash_mid_probe_stays_open() {
        let inj = FaultInjector::new(3, Vec::new());
        let crash = CrashInjector::enabled();
        let b = CircuitBreaker::new("origin", BreakerConfig::default());
        for i in 0..3 {
            b.on_failure(&inj, t(i));
        }
        let BreakerState::Open { probe_at } = b.state() else {
            panic!()
        };
        crash.arm(BREAKER_PROBE_CRASH_POINT, 1);
        let err = b.allow(&inj, &crash, probe_at).unwrap_err();
        assert_eq!(err.point, BREAKER_PROBE_CRASH_POINT);
        // The transition never happened: still open, probe still due.
        assert_eq!(b.state(), BreakerState::Open { probe_at });
        // Recovery (same process state) probes again cleanly.
        assert!(b.allow(&inj, &crash, probe_at).unwrap());
        assert_eq!(b.state(), BreakerState::HalfOpen);
    }

    /// Every way a granted half-open probe can end leaves `HalfOpen`.
    #[test]
    fn settle_never_leaves_a_probe_half_open() {
        let crash = CrashInjector::disabled();
        let inj = FaultInjector::new(4, Vec::new());
        let cfg = BreakerConfig {
            failure_threshold: 1,
            probe_jitter: 0.0,
            ..BreakerConfig::default()
        };
        let err = |cause: &'static str, gave_up| {
            Err::<RetryOk<()>, _>(RetryErr {
                cause: RetryCause::Op(cause),
                at: t(9_000),
                attempts: 1,
                gave_up,
            })
        };
        let probe_ends = |outcome: &Result<RetryOk<()>, RetryErr<&'static str>>| {
            let b = CircuitBreaker::new("e", cfg);
            b.on_failure(&inj, t(0));
            assert!(b.allow(&inj, &crash, t(9_000)).unwrap());
            assert_eq!(b.state(), BreakerState::HalfOpen);
            b.settle(&inj, outcome, |e| *e == "crashed");
            b.state()
        };
        let ok = Ok(RetryOk {
            value: (),
            done: t(9_001),
            attempts: 1,
        });
        assert_eq!(probe_ends(&ok), BreakerState::Closed);
        // A fatal answer is still an answer: the endpoint is alive.
        assert_eq!(probe_ends(&err("not found", false)), BreakerState::Closed);
        let reopened = BreakerState::Open {
            probe_at: t(9_000) + cfg.cooldown,
        };
        assert_eq!(probe_ends(&err("503", true)), reopened);
        assert_eq!(probe_ends(&err("crashed", false)), reopened);
        // A crash under a closed breaker is no verdict on the endpoint.
        let b = CircuitBreaker::new("e", cfg);
        b.settle(&inj, &err("crashed", false), |e| *e == "crashed");
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn admission_queue_sheds_past_the_wait_bound() {
        let crash = CrashInjector::disabled();
        let inj = FaultInjector::new(8, Vec::new());
        let q = AdmissionQueue::new(
            "origin",
            AdmissionConfig {
                slots: 2,
                max_wait: SimSpan::millis(100),
            },
        );
        let service = SimSpan::millis(300);
        // Two slots fill instantly; the third projects a 300 ms wait.
        for _ in 0..2 {
            let a = q.admit(&inj, &crash, SimTime::ZERO, service, 2).unwrap();
            assert!(matches!(a, Admission::Admitted { start, .. } if start == SimTime::ZERO));
        }
        match q.admit(&inj, &crash, SimTime::ZERO, service, 2).unwrap() {
            Admission::Shed { retry_after } => assert_eq!(retry_after, SimSpan::millis(300)),
            other => panic!("expected shed, got {other:?}"),
        }
        assert_eq!(inj.metrics().get("admission.origin.admitted"), 2);
        assert_eq!(inj.metrics().get("admission.origin.shed"), 1);
        // After the backlog drains, admission resumes.
        let later = SimTime::ZERO + SimSpan::millis(250);
        let a = q.admit(&inj, &crash, later, service, 2).unwrap();
        assert!(matches!(a, Admission::Admitted { .. }));
    }

    #[test]
    fn degraded_slots_shed_earlier_and_crash_mid_shed_holds_no_slot() {
        let inj = FaultInjector::new(9, Vec::new());
        let crash = CrashInjector::enabled();
        let q = AdmissionQueue::new(
            "origin",
            AdmissionConfig {
                slots: 4,
                max_wait: SimSpan::millis(50),
            },
        );
        let service = SimSpan::millis(200);
        // Degraded to one live slot: the second request is shed even
        // though three healthy slots exist.
        let a = q.admit(&inj, &crash, SimTime::ZERO, service, 1).unwrap();
        assert!(matches!(a, Admission::Admitted { .. }));
        crash.arm(ADMISSION_SHED_CRASH_POINT, 1);
        let err = q
            .admit(&inj, &crash, SimTime::ZERO, service, 1)
            .unwrap_err();
        assert_eq!(err.point, ADMISSION_SHED_CRASH_POINT);
        // The crashed shed held nothing: after "recovery" the queue
        // state is exactly one busy slot, and the retried decision is
        // the same shed.
        match q.admit(&inj, &crash, SimTime::ZERO, service, 1).unwrap() {
            Admission::Shed { retry_after } => assert_eq!(retry_after, SimSpan::millis(200)),
            other => panic!("expected shed, got {other:?}"),
        }
        // Full capacity admits in parallel.
        let a = q.admit(&inj, &crash, SimTime::ZERO, service, 4).unwrap();
        assert!(matches!(a, Admission::Admitted { start, .. } if start == SimTime::ZERO));
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// A breaker can never wedge permanently open while probes
            /// succeed: under any seed and any interleaving of failures,
            /// once the endpoint heals, one granted probe plus its
            /// success closes the breaker again.
            #[test]
            fn breaker_never_wedges_open_while_probes_succeed(
                seed in 0u64..10_000,
                threshold in 1u32..6,
                cooldown_ms in 1u64..5_000,
                jitter_pct in (0u64..90).prop_map(|j| j as f64 / 100.0),
                failures in 1usize..40,
            ) {
                let inj = FaultInjector::new(seed, Vec::new());
                let crash = CrashInjector::disabled();
                let b = CircuitBreaker::new("e", BreakerConfig {
                    failure_threshold: threshold,
                    cooldown: SimSpan::millis(cooldown_ms),
                    probe_jitter: jitter_pct,
                    success_to_close: 1,
                });
                let mut now = SimTime::ZERO;
                for _ in 0..failures {
                    if b.allow(&inj, &crash, now).unwrap() {
                        b.on_failure(&inj, now);
                    }
                    now += SimSpan::millis(1);
                }
                // Endpoint heals. Drive time forward; every granted
                // probe succeeds. The breaker must close in at most a
                // few probe cycles, never staying open forever.
                let mut closed = b.state() == BreakerState::Closed;
                for _ in 0..(failures + 2) {
                    if closed { break; }
                    match b.state() {
                        BreakerState::Closed => closed = true,
                        BreakerState::Open { probe_at } => {
                            now = probe_at;
                            prop_assert!(b.allow(&inj, &crash, now).unwrap(),
                                "probe due at {probe_at} must be granted");
                            b.on_success(&inj, now);
                        }
                        BreakerState::HalfOpen => {
                            b.on_success(&inj, now);
                        }
                    }
                }
                prop_assert!(closed || b.state() == BreakerState::Closed,
                    "breaker wedged in {:?}", b.state());
            }

            /// Under any seed, a tripped breaker never half-opens before
            /// its configured cooldown: jitter may only delay the probe.
            #[test]
            fn breaker_never_half_opens_before_cooldown(
                seed in 0u64..10_000,
                cooldown_ms in 1u64..10_000,
                jitter_pct in (0u64..90).prop_map(|j| j as f64 / 100.0),
                trip_ms in 0u64..1_000,
            ) {
                let inj = FaultInjector::new(seed, Vec::new());
                let crash = CrashInjector::disabled();
                let b = CircuitBreaker::new("e", BreakerConfig {
                    failure_threshold: 1,
                    cooldown: SimSpan::millis(cooldown_ms),
                    probe_jitter: jitter_pct,
                    success_to_close: 1,
                });
                let trip_at = SimTime::ZERO + SimSpan::millis(trip_ms);
                b.on_failure(&inj, trip_at);
                let BreakerState::Open { probe_at } = b.state() else {
                    panic!("must be open");
                };
                let earliest = trip_at + SimSpan::millis(cooldown_ms);
                prop_assert!(probe_at >= earliest,
                    "probe at {probe_at} before cooldown end {earliest}");
                // One tick before the cooldown ends, the probe must be
                // refused and the breaker must still be fully open.
                let before = SimTime::ZERO
                    + SimSpan::millis(trip_ms + cooldown_ms - 1);
                prop_assert!(!b.allow(&inj, &crash, before).unwrap());
                prop_assert!(matches!(b.state(), BreakerState::Open { .. }));
                // At the seeded probe instant it must be granted.
                prop_assert!(b.allow(&inj, &crash, probe_at).unwrap());
            }
        }
    }
}
