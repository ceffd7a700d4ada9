//! # hpcc-sim
//!
//! Simulation substrate for the HPC containerization testbed.
//!
//! The surveyed systems (container engines, registries, workload managers,
//! Kubernetes) are reproduced as executable models. Those models need a
//! common notion of *logical time*, *cost accounting*, *contention* and
//! *randomized workloads*. This crate provides:
//!
//! * [`time`] — logical time ([`SimTime`]) and spans ([`SimSpan`]) with
//!   nanosecond resolution.
//! * [`clock`] — a shareable, thread-safe logical clock that components
//!   charge costs to.
//! * [`crash`] — named crash points with a deterministic, armable
//!   [`CrashInjector`], plus the [`Recoverable`] checkpoint/recover
//!   contract behind the kill-at-every-step crash matrix.
//! * [`des`] — a classic discrete-event simulation engine (event queue with
//!   scheduled callbacks) used by the scheduling experiments.
//! * [`exec`] — a deterministic bounded-worker task executor (dependency
//!   DAGs, greedy list scheduling, task-id tie-breaking) that lets the
//!   pull→convert pipeline overlap work over logical time.
//! * [`domains`] — failure-domain topology (node → rack → row → site plus
//!   named links) and seeded correlated-outage schedules (rack power loss,
//!   row partitions, origin overload) with timed recovery, feeding both
//!   the fault injector and the adaptive control loop.
//! * [`resilience`] — self-healing primitives: per-endpoint circuit
//!   breakers (one `settle` rule from a retry outcome to breaker feedback)
//!   and an admission-control/load-shedding queue, all over logical time.
//! * [`rng`] — deterministic random number generation (uniform,
//!   Bernoulli, exponential, shuffle).
//! * [`faults`] — seeded fault injection (registry 429/5xx/timeouts,
//!   metadata brownouts, disk-full, peer churn, CRI flaps) and the shared
//!   retry policy (exponential backoff + jitter, deadlines, stage timeouts):
//!   one loop executed over logical time, on a time cursor or a clock.
//! * [`metrics`] — counters and log-binned histograms collected into
//!   a registry, used by every experiment to report results.
//! * [`obs`] — zero-cost-when-disabled hierarchical span tracing over the
//!   logical clock, with a TSV exporter and the
//!   structural diff / invariant checks behind the golden-trace harness.
//! * [`resource`] — token buckets and queueing servers used to model rate
//!   limits (registry pulls, metadata IOPS) and contention.
//! * [`net`] — a two-class (management / high-speed) network fabric model,
//!   sufficient for the Figure 1 proof of concept.
//! * [`units`] — byte-size newtype with human-readable formatting.

pub mod clock;
pub mod crash;
pub mod des;
pub mod domains;
pub mod exec;
pub mod faults;
pub mod intern;
pub mod metrics;
pub mod net;
pub mod noise;
pub mod obs;
pub mod resilience;
pub mod resource;
pub mod rng;
pub mod time;
pub mod units;

pub use clock::SimClock;
pub use crash::{CrashInjector, Crashed, Recoverable, RecoveryReport, StateDigest};
pub use des::{DesBackend, Engine};
pub use domains::{DomainHealth, DomainSchedule, DomainTopology, OutageEvent, OutageKind};
pub use exec::{ExecError, ExecReport, Executor, TaskFinish, TaskGraph, TaskId};
pub use faults::{Fault, FaultInjector, FaultKind, FaultRule, RetryErr, RetryOk, RetryPolicy};
pub use intern::Symbol;
pub use metrics::{CounterBatch, MetricsRegistry};
pub use net::{Fabric, LinkClass};
pub use noise::{bsp_run, BspOutcome, NoiseProfile};
pub use obs::{AttrValue, SpanId, SpanRecord, Stage, Tracer};
pub use resilience::{
    Admission, AdmissionConfig, AdmissionQueue, BreakerConfig, BreakerState, CircuitBreaker,
};
pub use resource::{QueueServer, TokenBucket};
pub use rng::DetRng;
pub use time::{SimSpan, SimTime};
pub use units::Bytes;
