//! The demand-signal snapshot the controller feeds its policy.
//!
//! Signals are collected at the top of every controller tick, before any
//! actuation, so a policy sees a consistent view of the world: pod queue
//! pressure on the Kubernetes side, job queue pressure and idle capacity
//! on the WLM side, and the supply already committed (serving agents plus
//! nodes mid-reprovision). The release-side callback receives a refreshed
//! snapshot at the end of the tick where only the idle-agent ages moved —
//! mirroring the §6.1 scenario's original semantics, where return
//! decisions looked at post-sync idleness but top-of-tick queue depth.

use hpcc_sim::{DomainHealth, SimTime};

/// One consistent observation of demand and supply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DemandSignals {
    /// Controller tick this snapshot was taken at.
    pub now: SimTime,
    /// Pods waiting for capacity (phase `Pending`).
    pub pending_pods: usize,
    /// Aggregate CPU demand of pending pods, in millicores.
    pub pending_pod_millis: u64,
    /// Aggregate CPU of pods currently bound or running on agents.
    pub running_pod_millis: u64,
    /// Jobs queued in the WLM.
    pub wlm_pending_jobs: usize,
    /// WLM nodes currently idle (claimable without draining work).
    pub wlm_idle_nodes: usize,
    /// Dynamic agents currently serving Kubernetes.
    pub agents: usize,
    /// Nodes mid-reprovision toward Kubernetes (supply in flight).
    pub provisioning: usize,
    /// Dynamic agents idle long enough to be returnable this tick.
    pub agents_idle_ready: usize,
    /// CPU capacity of one node, in millicores.
    pub node_cpu_millis: u64,
    /// Failure-domain health at this tick ([`DomainHealth::all_healthy`]
    /// when the run has no domain schedule). Policies use this to stop
    /// provisioning into dead racks and to drain around partitions.
    pub domain: DomainHealth,
}

impl DemandSignals {
    /// Supply already committed to Kubernetes: serving + in flight.
    pub(crate) fn supplying(&self) -> usize {
        self.agents + self.provisioning
    }
}
