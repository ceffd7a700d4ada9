//! Baseline: static partitioning of the cluster between the WLM and
//! Kubernetes.
//!
//! §6.6: "Static partitioning leads to reduced utilisation and/or a load
//! imbalance." Half the nodes run Slurm, half run rootful kubelets on a
//! dedicated Kubernetes cluster; neither side can borrow the other's idle
//! capacity, and pod usage never reaches the WLM's accounting.
//!
//! The scenario is a preset of the generic `hpcc-adapt` controller: the
//! [`hpcc_adapt::StaticPolicy`] never moves a node, the half-cluster
//! carve-out boots as permanent kubelets, and pod usage lands as per-pod
//! external ledger records. The controller steps the same
//! [`hpcc_adapt::cosim::World`] as the hand-written scenarios next door.

use super::common::{run_preset, ClusterConfig, MixedWorkload, ScenarioOutcome};
use hpcc_adapt::presets;
use hpcc_sim::Tracer;
use std::sync::Arc;

/// Run the static-partition baseline under `tracer`'s root `scenario` span.
pub fn run(cfg: &ClusterConfig, wl: &MixedWorkload, tracer: &Arc<Tracer>) -> ScenarioOutcome {
    run_preset(
        "static-partition",
        "fixed split; idle capacity stranded on either side; pod usage unaccounted",
        presets::static_partition(cfg.nodes),
        cfg,
        wl,
        tracer,
    )
}
