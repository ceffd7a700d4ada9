//! Controller instantiations of the §6 scenarios.
//!
//! The survey's two partition-moving points — static split, on-demand
//! reallocation — as (policy, config) pairs for the generic controller,
//! plus the forecasting point its *adaptive* framing asks about. The
//! `hpcc-core` scenario table and the `bench adapt` sweep both run them
//! through [`crate::run`], i.e. over [`crate::cosim::World`] like every
//! other §6 architecture.

use crate::controller::{AccountingModel, ControllerConfig};
use crate::policy::{EwmaForecastPolicy, PartitionPolicy, QueueThresholdPolicy, StaticPolicy};
use hpcc_sim::SimSpan;

/// §6.1 on-demand reallocation: every node starts in the WLM, pending pod
/// demand claims nodes one drain/reprovision cycle at a time, idle agents
/// drain back after 120 s. The queue-threshold policy with zero
/// hysteresis is §6.1's trigger: grow whenever demand exceeds supply.
pub fn on_demand_reallocation(nodes: u32) -> (Box<dyn PartitionPolicy>, ControllerConfig) {
    (
        Box::new(QueueThresholdPolicy::default()),
        ControllerConfig::new(nodes, 0),
    )
}

/// §6.6 static partition: half the cluster runs the WLM, half runs
/// permanent kubelets, and no node ever crosses. Pod usage lands as
/// per-pod external records — visible in the ledger, invisible to WLM
/// accounting.
pub fn static_partition(nodes: u32) -> (Box<dyn PartitionPolicy>, ControllerConfig) {
    let wlm_nodes = nodes / 2;
    let mut cfg = ControllerConfig::new(wlm_nodes, nodes - wlm_nodes);
    cfg.accounting = AccountingModel::PerPod;
    (Box::new(StaticPolicy), cfg)
}

/// The adaptive point between the two: EWMA demand forecasting with a
/// warm standing pool of `min_agents`, so recurring bursts land on
/// already-provisioned agents instead of paying the 60 s reprovision
/// latency every time.
pub fn ewma_forecast(
    nodes: u32,
    half_life: SimSpan,
    min_agents: u32,
) -> (Box<dyn PartitionPolicy>, ControllerConfig) {
    (
        Box::new(EwmaForecastPolicy::new(half_life, min_agents, nodes)),
        ControllerConfig::new(nodes, 0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_cover_the_survey_points() {
        let (p, cfg) = on_demand_reallocation(32);
        assert_eq!(p.name(), "queue-threshold");
        assert_eq!(cfg.wlm_nodes, 32);
        assert_eq!(cfg.static_agents, 0);
        assert_eq!(cfg.accounting, AccountingModel::AgentTenure);

        let (p, cfg) = static_partition(32);
        assert_eq!(p.name(), "static");
        assert_eq!((cfg.wlm_nodes, cfg.static_agents), (16, 16));
        assert_eq!(cfg.accounting, AccountingModel::PerPod);

        let (p, cfg) = ewma_forecast(32, SimSpan::secs(300), 2);
        assert_eq!(p.name(), "ewma-forecast");
        assert_eq!(cfg.wlm_nodes, 32);
    }
}
