//! Pluggable partition policies: how many nodes to move, and when.
//!
//! A policy is consulted twice per controller tick with a
//! [`DemandSignals`] snapshot:
//!
//! * [`PartitionPolicy::grow`] — at the top of the tick: how many
//!   *additional* WLM nodes to claim for Kubernetes. The controller
//!   applies its own limits (cooldown, reprovision budget, idle-node
//!   availability) on top of the request.
//! * [`PartitionPolicy::release`] — at the end of the tick: how many of
//!   the agents that have been idle past the return threshold to hand
//!   back. The controller never releases more than
//!   [`DemandSignals::agents_idle_ready`].
//!
//! Decisions must be pure functions of the signal stream: no wall clock,
//! no ambient randomness. `tests/integration_adapt.rs` property-tests
//! exactly that by replaying traces and diffing the decision logs.

use crate::signals::DemandSignals;
use hpcc_sim::{SimSpan, SimTime};

/// A partition-movement policy (see module docs for the call protocol).
pub trait PartitionPolicy {
    /// Stable name used in outcomes, benches and trace attributes.
    fn name(&self) -> &'static str;

    /// Additional nodes to claim for Kubernetes this tick.
    fn grow(&mut self, s: &DemandSignals) -> u32;

    /// Idle-ready agents to hand back to the WLM this tick.
    fn release(&mut self, s: &DemandSignals) -> u32;
}

/// Never moves a node. With a fixed carve-out in the controller config
/// this reproduces the §6.6 static-partition baseline: half the cluster
/// runs Slurm, half runs kubelets, and neither side can borrow.
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticPolicy;

impl PartitionPolicy for StaticPolicy {
    fn name(&self) -> &'static str {
        "static"
    }

    fn grow(&mut self, _s: &DemandSignals) -> u32 {
        0
    }

    fn release(&mut self, _s: &DemandSignals) -> u32 {
        0
    }
}

/// React to the instantaneous pod queue: claim exactly the nodes the
/// pending demand needs beyond the supply in flight, return agents as
/// soon as they have idled past the threshold with an empty queue.
///
/// With `grow_hysteresis_millis == 0` this is bit-identical to the §6.1
/// on-demand-reallocation scenario's original hard-coded trigger:
/// `wanted = ceil(demand / node)` vs `supplying`. A non-zero hysteresis
/// widens the dead band, trading pod latency for fewer reprovisions.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueueThresholdPolicy {
    /// Pending demand must exceed committed supply by more than this many
    /// millicores before the policy grows (the upward hysteresis band).
    pub grow_hysteresis_millis: u64,
}

impl PartitionPolicy for QueueThresholdPolicy {
    fn name(&self) -> &'static str {
        "queue-threshold"
    }

    fn grow(&mut self, s: &DemandSignals) -> u32 {
        // Reprovisioning boots a kubelet that immediately pulls images
        // through the origin registry; growing while the origin is
        // saturated only deepens the overload, so hold the line and let
        // the pending queue ride it out.
        if s.domain.origin_overloaded {
            return 0;
        }
        let supply_millis = s.supplying() as u64 * s.node_cpu_millis;
        let excess = s.pending_pod_millis.saturating_sub(supply_millis);
        if excess > self.grow_hysteresis_millis {
            excess.div_ceil(s.node_cpu_millis.max(1)) as u32
        } else {
            0
        }
    }

    fn release(&mut self, s: &DemandSignals) -> u32 {
        // Drain around partitions: agents idling through a row partition
        // can't pull anything anyway, so hand them back even while pods
        // are still queued — the controller re-grows on healthy racks.
        if s.domain.nodes_partitioned > 0 || s.pending_pods == 0 {
            s.agents_idle_ready as u32
        } else {
            0
        }
    }
}

/// Forecast demand with an exponentially-weighted moving average and keep
/// a warm standing pool, so recurring bursts land on already-provisioned
/// agents instead of paying the reprovision latency every time.
///
/// The EWMA tracks total pod CPU demand (pending + running) with a
/// configurable half-life; the target supply is the forecast plus
/// headroom, clamped to `[min_agents, max_agents]`. Growth reacts to
/// `max(forecast, instantaneous demand)` so a surprise burst is still
/// served; release only trims supply the *decayed* forecast no longer
/// justifies — the decay itself is the downward hysteresis band.
#[derive(Debug, Clone, Copy)]
pub struct EwmaForecastPolicy {
    /// Time for the forecast to shed half its weight.
    pub half_life: SimSpan,
    /// Warm standing pool: never release below this many agents (the
    /// controller drains the pool once the workload is fully done).
    pub min_agents: u32,
    /// Never grow beyond this many agents.
    pub max_agents: u32,
    /// Extra supply on top of the forecast, in percent.
    pub headroom_pct: u32,
    ewma_millis: f64,
    last_update: Option<SimTime>,
}

impl EwmaForecastPolicy {
    pub fn new(half_life: SimSpan, min_agents: u32, max_agents: u32) -> EwmaForecastPolicy {
        EwmaForecastPolicy {
            half_life,
            min_agents,
            max_agents,
            headroom_pct: 25,
            ewma_millis: 0.0,
            last_update: None,
        }
    }

    fn observe(&mut self, s: &DemandSignals) {
        let demand = (s.pending_pod_millis + s.running_pod_millis) as f64;
        match self.last_update {
            None => self.ewma_millis = demand,
            Some(prev) => {
                let dt = s.now.since(prev).as_secs_f64();
                let hl = self.half_life.as_secs_f64().max(1e-9);
                let alpha = 1.0 - 0.5_f64.powf(dt / hl);
                self.ewma_millis += alpha * (demand - self.ewma_millis);
            }
        }
        self.last_update = Some(s.now);
    }

    fn target(&self, s: &DemandSignals, instant_floor: bool) -> u32 {
        let mut demand = self.ewma_millis;
        if instant_floor {
            demand = demand.max((s.pending_pod_millis + s.running_pod_millis) as f64);
        }
        let with_headroom = demand * (1.0 + self.headroom_pct as f64 / 100.0);
        let nodes = (with_headroom / s.node_cpu_millis.max(1) as f64).ceil() as u32;
        nodes.clamp(self.min_agents, self.max_agents)
    }
}

impl PartitionPolicy for EwmaForecastPolicy {
    fn name(&self) -> &'static str {
        "ewma-forecast"
    }

    fn grow(&mut self, s: &DemandSignals) -> u32 {
        self.observe(s);
        if s.domain.origin_overloaded {
            // Keep the forecast warm but don't provision into a
            // saturated origin (same reasoning as the queue policy).
            return 0;
        }
        self.target(s, true).saturating_sub(s.supplying() as u32)
    }

    fn release(&mut self, s: &DemandSignals) -> u32 {
        // No re-observation: grow() already folded this tick's demand in.
        // Only supply the decayed forecast no longer justifies is trimmed,
        // and only from agents that are actually idle-ready.
        let target = self.target(s, true);
        let excess = (s.supplying() as u32).saturating_sub(target);
        excess.min(s.agents_idle_ready as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcc_sim::SimTime;

    fn signals(pending_millis: u64, agents: usize, provisioning: usize) -> DemandSignals {
        DemandSignals {
            now: SimTime::ZERO,
            pending_pods: usize::from(pending_millis > 0),
            pending_pod_millis: pending_millis,
            running_pod_millis: 0,
            wlm_pending_jobs: 0,
            wlm_idle_nodes: 8,
            agents,
            provisioning,
            agents_idle_ready: agents,
            node_cpu_millis: 128_000,
            domain: hpcc_sim::DomainHealth::all_healthy(8),
        }
    }

    #[test]
    fn static_policy_never_moves() {
        let mut p = StaticPolicy;
        assert_eq!(p.grow(&signals(1_000_000, 0, 0)), 0);
        assert_eq!(p.release(&signals(0, 4, 0)), 0);
    }

    #[test]
    fn queue_threshold_matches_the_original_trigger() {
        // grow == max(0, ceil(demand/node) - supplying), the §6.1 rule.
        let mut p = QueueThresholdPolicy::default();
        for (demand, agents, prov, want) in [
            (0u64, 0usize, 0usize, 0u32),
            (1_000, 0, 0, 1),
            (128_000, 0, 0, 1),
            (128_001, 0, 0, 2),
            (130_000, 1, 0, 1),
            (128_000, 0, 1, 0),
            (512_000, 1, 1, 2),
        ] {
            let s = signals(demand, agents, prov);
            let wanted = demand.div_ceil(128_000) as u32;
            let old_rule = wanted.saturating_sub((agents + prov) as u32);
            assert_eq!(p.grow(&s), old_rule, "demand={demand}");
            assert_eq!(p.grow(&s), want);
        }
    }

    #[test]
    fn queue_threshold_hysteresis_widens_the_dead_band() {
        let mut p = QueueThresholdPolicy {
            grow_hysteresis_millis: 64_000,
        };
        assert_eq!(p.grow(&signals(64_000, 0, 0)), 0, "inside the band");
        assert_eq!(p.grow(&signals(64_001, 0, 0)), 1, "past the band");
    }

    #[test]
    fn queue_threshold_release_waits_for_empty_queue() {
        let mut p = QueueThresholdPolicy::default();
        assert_eq!(p.release(&signals(1_000, 3, 0)), 0);
        assert_eq!(p.release(&signals(0, 3, 0)), 3);
    }

    #[test]
    fn ewma_keeps_a_warm_floor_and_decays_toward_it() {
        let mut p = EwmaForecastPolicy::new(SimSpan::secs(60), 2, 16);
        // Idle cluster: the floor alone asks for the standing pool.
        assert_eq!(p.grow(&signals(0, 0, 0)), 2);
        // A burst raises the target immediately (instantaneous floor).
        let mut s = signals(512_000, 2, 0);
        s.now = SimTime::ZERO + SimSpan::secs(1);
        let grown = p.grow(&s);
        assert!(grown >= 3, "burst must out-claim the pool, got {grown}");
        // Long after the burst the forecast decays back to the floor and
        // the excess becomes releasable.
        let mut quiet = signals(0, 6, 0);
        quiet.now = SimTime::ZERO + SimSpan::secs(3600);
        assert_eq!(p.grow(&quiet), 0);
        let released = p.release(&quiet);
        assert_eq!(released, 4, "everything above the pool goes back");
    }

    #[test]
    fn ewma_release_respects_idle_readiness() {
        let mut p = EwmaForecastPolicy::new(SimSpan::secs(60), 0, 16);
        let mut s = signals(0, 5, 0);
        p.grow(&s);
        s.now = SimTime::ZERO + SimSpan::secs(600);
        s.agents_idle_ready = 2;
        assert_eq!(p.release(&s), 2, "capped by idle-ready agents");
    }

    #[test]
    fn origin_overload_pauses_growth_until_it_heals() {
        let mut q = QueueThresholdPolicy::default();
        let mut e = EwmaForecastPolicy::new(SimSpan::secs(60), 2, 16);
        let mut s = signals(512_000, 0, 0);
        s.domain.origin_overloaded = true;
        assert_eq!(q.grow(&s), 0, "queue policy holds during overload");
        assert_eq!(e.grow(&s), 0, "forecast policy holds during overload");
        s.domain.origin_overloaded = false;
        assert!(q.grow(&s) > 0, "healed origin unblocks growth");
        assert!(e.grow(&s) > 0);
    }

    #[test]
    fn partition_drains_idle_agents_despite_pending_pods() {
        let mut p = QueueThresholdPolicy::default();
        let mut s = signals(256_000, 4, 0);
        s.agents_idle_ready = 3;
        assert_eq!(p.release(&s), 0, "healthy: queued pods hold the agents");
        s.domain.nodes_partitioned = 16;
        assert_eq!(p.release(&s), 3, "partition: drain everything idle");
    }

    #[test]
    fn ewma_half_life_controls_decay_speed() {
        let mut fast = EwmaForecastPolicy::new(SimSpan::secs(30), 0, 64);
        let mut slow = EwmaForecastPolicy::new(SimSpan::secs(600), 0, 64);
        let burst = signals(1_024_000, 0, 0);
        fast.grow(&burst);
        slow.grow(&burst);
        let mut later = signals(0, 8, 0);
        later.now = SimTime::ZERO + SimSpan::secs(120);
        fast.grow(&later);
        slow.grow(&later);
        assert!(
            fast.ewma_millis < slow.ewma_millis,
            "shorter half-life must decay faster ({} vs {})",
            fast.ewma_millis,
            slow.ewma_millis
        );
    }
}
