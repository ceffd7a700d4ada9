//! # hpcc-adapt
//!
//! Closed-loop adaptive partition control plane over the WLM/Kubernetes
//! scenario substrate.
//!
//! The survey's §6 integration scenarios probe the startup-overhead vs
//! utilization trade-off at two fixed policy points: a static split
//! (§6.6's baseline) and hard-coded on-demand reallocation (§6.1). The
//! interesting regime — the one the paper's title word *adaptive* points
//! at — is demand-driven: a controller that observes queue pressure and
//! idle capacity and *moves* the partition boundary, paying §6.1's slow
//! drain/reprovision cycles only when the forecast says they amortize.
//!
//! The control loop is the classic autoscaler shape:
//!
//! ```text
//!   signals ──────────▶ policy ──────────▶ actuation
//!   (queue depth,       (Static /          (cordon → drain →
//!    pending pods,       QueueThreshold /   reprovision → hand-over,
//!    idle time)          EwmaForecast)      budget + cooldowns)
//! ```
//!
//! * [`signals`] — the [`signals::DemandSignals`] snapshot the controller
//!   hands a policy each tick.
//! * [`policy`] — the [`policy::PartitionPolicy`] trait and the three
//!   shipped policies.
//! * [`cosim`] — the one Slurm + Kubernetes co-simulation world: WLM
//!   partition beside a control plane, kubelet boot, the *drained*
//!   predicate, the one fixed-step driver and the outcome epilogue. The
//!   controller and every hand-written §6 scenario in `hpcc-core` run on it.
//! * [`controller`] — per-node state machines, hysteresis/cooldowns, the
//!   reprovision-budget limiter, and [`run`]: one trace under one policy.
//! * [`traces`] — the seeded workload generator: everything at t=0 for the
//!   §6 table, bursty/diurnal/Poisson arrivals for policy sweeps.
//! * [`presets`] — the controller instantiations that *are* the §6
//!   static-partition and on-demand-reallocation scenarios.
//!
//! Everything runs on the logical clock with seeded randomness: a run's
//! outcome — including the full decision log — is a pure function of
//! (workload trace, policy, controller config, fault seed).

pub mod controller;
pub mod cosim;
pub mod policy;
pub mod presets;
pub mod signals;
pub mod traces;

pub use controller::{
    run, AccountingModel, AdaptOutcome, ControllerConfig, Decision, DecisionKind, FixedCri,
    NodePhase, RunSpec,
};
pub use policy::{EwmaForecastPolicy, PartitionPolicy, QueueThresholdPolicy, StaticPolicy};
pub use signals::DemandSignals;
pub use traces::{TimedWorkload, TraceConfig, TraceShape};
