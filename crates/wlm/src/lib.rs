//! # hpcc-wlm
//!
//! A Slurm-class workload manager simulator:
//!
//! * [`types`] — nodes, partitions, job requests and lifecycle states.
//! * [`slurm`] — FIFO + EASY-backfill scheduling, exclusive and shared
//!   allocations, wall-time enforcement, drain/offline/return node
//!   administration (the §6.1 reallocation primitives).
//! * [`spank`] — the SPANK plugin interface with a container-launch
//!   plugin in the Shifter/ENROOT mold (Table 3's WLM integration).
//! * [`accounting`] — the usage ledger with WLM-vs-external source
//!   tracking, accounting-coverage and utilization metrics (§6.6).

#![forbid(unsafe_code)]

pub mod accounting;
pub mod slurm;
pub mod spank;
pub mod types;

pub use accounting::{Ledger, UsageRecord, UsageSource};
pub use slurm::{Slurm, WlmError};
pub use spank::{ContainerSpank, SpankContext, SpankError, SpankPlugin};
pub use types::{Job, JobId, JobRequest, JobState, NodeId, NodeSpec};
