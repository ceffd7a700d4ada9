//! Core WLM types: nodes, partitions, jobs.

use hpcc_sim::{SimSpan, SimTime};
use serde::{Deserialize, Serialize};

/// Node identifier within the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// Job identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct JobId(pub u64);

/// Hardware of one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeSpec {
    pub cores: u32,
    pub memory_mb: u64,
    pub gpus: u32,
}

impl NodeSpec {
    /// A typical CPU compute node.
    pub fn cpu_node() -> NodeSpec {
        NodeSpec {
            cores: 128,
            memory_mb: 256 * 1024,
            gpus: 0,
        }
    }

    /// A dense GPU node (the §3.2 high-density case).
    pub fn gpu_node() -> NodeSpec {
        NodeSpec {
            cores: 64,
            memory_mb: 512 * 1024,
            gpus: 4,
        }
    }
}

/// Node availability state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum NodeState {
    Idle,
    /// Allocated to a job.
    Allocated(JobId),
    /// Being drained (no new work; §6.1's reallocation path).
    Draining,
    /// Removed from the WLM's control (handed to Kubernetes in §6.1).
    Offline,
}

/// A job submission.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobRequest {
    pub name: String,
    pub user: u32,
    /// Nodes requested.
    pub nodes: u32,
    /// Cores used per node (accounting).
    pub cores_per_node: u32,
    pub gpus_per_node: u32,
    /// Requested wall-time limit (what the scheduler plans with).
    pub walltime_limit: SimSpan,
    /// Actual runtime (hidden from the scheduler; drives completion).
    pub actual_runtime: SimSpan,
    pub partition: String,
    /// Exclusive node allocation (the HPC default, §3.2).
    pub exclusive: bool,
}

impl JobRequest {
    /// A simple exclusive batch job.
    pub fn batch(name: &str, user: u32, nodes: u32, runtime: SimSpan) -> JobRequest {
        JobRequest {
            name: name.to_string(),
            user,
            nodes,
            cores_per_node: 128,
            gpus_per_node: 0,
            walltime_limit: runtime * 2,
            actual_runtime: runtime,
            partition: "batch".to_string(),
            exclusive: true,
        }
    }
}

/// Job lifecycle state.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobState {
    Pending,
    Running {
        started: SimTime,
        nodes: Vec<NodeId>,
    },
    Completed {
        started: SimTime,
        ended: SimTime,
        nodes: Vec<NodeId>,
    },
    /// Killed at the wall-time limit.
    TimedOut {
        started: SimTime,
        ended: SimTime,
    },
    Cancelled,
    /// Never started: prolog failures exhausted the automatic requeues.
    Failed {
        at: SimTime,
        reason: String,
    },
}

/// A job record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Job {
    pub id: JobId,
    pub request: JobRequest,
    pub state: JobState,
    pub submitted: SimTime,
}

impl Job {
    /// True while running.
    pub fn is_running(&self) -> bool {
        matches!(self.state, JobState::Running { .. })
    }

    /// True when the job failed before start (requeues exhausted).
    pub fn is_failed(&self) -> bool {
        matches!(self.state, JobState::Failed { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_request_defaults() {
        let r = JobRequest::batch("solve", 1000, 4, SimSpan::secs(600));
        assert_eq!(r.nodes, 4);
        assert!(r.exclusive);
        assert_eq!(r.walltime_limit, SimSpan::secs(1200));
    }
}
