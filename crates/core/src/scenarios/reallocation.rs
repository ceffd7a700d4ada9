//! §6.1 — On-demand reallocation of compute nodes.
//!
//! A minimal dedicated Kubernetes control plane runs on separate hardware;
//! when pods queue, idle WLM nodes are drained, taken offline,
//! reprovisioned as Kubernetes agents (a slow operation), and handed to
//! the cluster. Idle agents are returned to the WLM. §6.1's verdict:
//! dynamic partitioning at this granularity is cumbersome, slow and
//! introduces disturbances.
//!
//! The scenario is a preset of the generic `hpcc-adapt` controller: the
//! [`hpcc_adapt::QueueThresholdPolicy`] with zero hysteresis is §6.1's
//! trigger (`wanted = ceil(demand / node)` vs supply in flight), and the
//! controller's drain → offline → reprovision → hand-over actuation runs
//! around the same [`hpcc_adapt::cosim::World`] and Kubernetes tick as the
//! hand-written scenarios next door.

use super::common::{run_preset, ClusterConfig, MixedWorkload, ScenarioOutcome};
use hpcc_adapt::presets;
use hpcc_sim::Tracer;
use std::sync::Arc;

/// Run the on-demand reallocation scenario under `tracer`'s root
/// `scenario` span (controller decisions nest inside it).
pub fn run(cfg: &ClusterConfig, wl: &MixedWorkload, tracer: &Arc<Tracer>) -> ScenarioOutcome {
    run_preset(
        "on-demand-reallocation",
        "slow drain/reprovision cycles; k8s usage invisible to WLM accounting",
        presets::on_demand_reallocation(cfg.nodes),
        cfg,
        wl,
        tracer,
    )
}
