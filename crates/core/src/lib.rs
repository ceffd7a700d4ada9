//! # hpcc-core — Adaptive Containerization for HPC
//!
//! The paper's contribution layer, composing every substrate crate:
//!
//! * [`requirements`] — the executable decision document: site
//!   requirements scored against the engines (Tables 1–3) and registries
//!   (Tables 4–5), reproducing the survey's §4.2/§5.2 conclusions.
//! * [`pipeline`] — the adaptive deployment pipeline: site proxy →
//!   pull → convert/cache → stage to node-local storage → parallel launch.
//! * [`scenarios`] — the five §6 Kubernetes/WLM integration scenarios
//!   (plus a static-partition baseline) run against the same mixed
//!   workload, measuring startup overhead, makespan, utilization and
//!   accounting coverage; `kubelet_in_allocation` is the Figure 1 proof
//!   of concept.
//! * [`goldens`] — the golden-trace corpus: deterministic traces of the
//!   instrumented stack (quickstart pipeline, Q5 degraded pull, Q10 P2P
//!   broadcast, the five scenarios) diffed against checked-in TSV files.

#![forbid(unsafe_code)]

pub mod goldens;
pub mod pipeline;
pub mod requirements;
pub mod scenarios;
pub mod workflow;

pub use pipeline::{deploy_to_allocation, DeploymentReport, PipelineError};
pub use requirements::{
    select_engine, select_registry, EngineScore, RegistryRequirements, RegistryScore,
    SiteRequirements,
};
pub use scenarios::{run_all, ClusterConfig, MixedWorkload, ScenarioOutcome};
pub use workflow::{run_on_k8s, run_on_wlm, Step, Workflow, WorkflowError, WorkflowRun};
