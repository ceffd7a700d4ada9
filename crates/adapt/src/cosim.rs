//! The one Slurm + Kubernetes co-simulation world.
//!
//! Every §6 architecture — the four hand-written scenarios in
//! `hpcc-core::scenarios` and the partition [`crate::controller`] behind
//! the other two — runs on this module: one [`World`] (a `batch` WLM
//! partition, a standing [`ControlPlane`], the shared Kubernetes clock and
//! the root `scenario` span), one way to boot a kubelet into it, one
//! *drained* predicate, one fixed-step driver, and one epilogue that turns
//! the final state into [`Stats`]. The Kubernetes tick itself is
//! [`ControlPlane::tick`]; an architecture is only what differs: how it
//! fills the world, and the per-tick step it hands [`World::drive`].

use hpcc_k8s::k3s::{ControlPlane, FinishedPod};
use hpcc_k8s::kubelet::{CriRuntime, Kubelet, KubeletError, KubeletMode};
use hpcc_k8s::objects::PodPhase;
use hpcc_runtime::cgroup::{CgroupTree, CgroupVersion};
use hpcc_sim::obs::SpanId;
use hpcc_sim::sym;
use hpcc_sim::{SimClock, SimSpan, SimTime, Stage, Tracer};
use hpcc_wlm::accounting::{UsageRecord, UsageSource};
use hpcc_wlm::slurm::Slurm;
use hpcc_wlm::types::{JobId, JobRequest, JobState, NodeId, NodeSpec};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A WLM partition and a Kubernetes control plane over the same hardware.
pub struct World {
    pub slurm: Slurm,
    pub k8s: ControlPlane,
    /// The clock kubelets launch pods on; [`ControlPlane::tick`] keeps it
    /// at the tick time.
    pub clock: SimClock,
    /// Nodes of the `batch` partition, in registration order.
    pub wlm_nodes: Vec<NodeId>,
    /// Workload jobs accepted by [`World::submit`].
    pub job_ids: Vec<JobId>,
    pub tracer: Arc<Tracer>,
    /// The root `scenario` span every other span nests under.
    pub span: SpanId,
    cri: Arc<dyn CriRuntime>,
    node: NodeSpec,
}

/// Final state of a run, as both `ScenarioOutcome` and `AdaptOutcome`
/// report it.
#[derive(Debug, Clone, PartialEq)]
pub struct Stats {
    pub pods_succeeded: usize,
    pub pods_failed: usize,
    /// Name and start time of every pod that got to run, in name order.
    pub pod_starts: Vec<(String, SimTime)>,
    pub first_pod_start: Option<SimSpan>,
    pub mean_pod_start: Option<SimSpan>,
    pub jobs_completed: usize,
    /// Last pod/job completion.
    pub work_makespan: SimSpan,
    /// The later of that and the tick the run settled on; a run the
    /// horizon stopped reports its last completion.
    pub makespan: SimSpan,
    /// Ledger usage (WLM + external) over capacity × makespan.
    pub utilization: f64,
    pub accounting_coverage: f64,
}

/// The cgroup tree the WLM prologue leaves on a node for a kubelet of
/// `mode`: cgroup v2, delegated to the user when the kubelet is rootless
/// (the §6.5 requirement set).
pub fn node_cgroups(mode: KubeletMode) -> CgroupTree {
    let mut cg = CgroupTree::new(CgroupVersion::V2);
    if let KubeletMode::Rootless { uid } = mode {
        cg.delegate("", 0, uid).expect("root delegates on v2");
    }
    cg
}

/// A finished pod's usage as the ledger sees it when Kubernetes, not the
/// WLM, ran it: visible, billed to `user`, outside WLM accounting.
pub fn external_pod_usage(user: u32, pod: &FinishedPod<'_>) -> UsageRecord {
    UsageRecord {
        job: None,
        user,
        cores: pod.resources.cpu_millis.div_ceil(1000),
        gpus: pod.resources.gpus as u64,
        start: pod.started,
        end: pod.ended,
        source: UsageSource::External,
    }
}

impl World {
    /// Open the root `scenario` span and stand up a `batch` partition of
    /// `wlm_nodes` × `node` next to an empty control plane.
    pub fn new(
        scenario: &str,
        tracer: &Arc<Tracer>,
        cri: Arc<dyn CriRuntime>,
        node: NodeSpec,
        wlm_nodes: u32,
    ) -> World {
        let span = tracer.begin(sym!("scenario"), Stage::Other, SimTime::ZERO);
        tracer.attr(span, sym!("name"), scenario);
        let mut slurm = Slurm::new();
        let wlm_nodes = slurm.add_partition("batch", node, wlm_nodes);
        slurm.set_tracer(Arc::clone(tracer));
        World {
            slurm,
            k8s: ControlPlane::default(),
            clock: SimClock::new(),
            wlm_nodes,
            job_ids: Vec::new(),
            tracer: Arc::clone(tracer),
            span,
            cri,
            node,
        }
    }

    /// Submit one workload job; a refused job is dropped, as `sbatch`
    /// would, and never counts as completed.
    pub fn submit(&mut self, job: JobRequest, at: SimTime) {
        if let Ok(id) = self.slurm.submit(job, at) {
            self.job_ids.push(id);
        }
    }

    /// Boot a kubelet for one whole node and join it to the control plane,
    /// charging its startup to `clock`.
    pub fn boot_kubelet(
        &self,
        name: &str,
        mode: KubeletMode,
        cgroups: &mut CgroupTree,
        clock: &SimClock,
    ) -> Result<Kubelet, KubeletError> {
        let mut kubelet = Kubelet::start(
            name,
            mode,
            Arc::clone(&self.cri),
            cgroups,
            self.node.into(),
            BTreeMap::new(),
            &self.k8s.api,
            clock,
        )?;
        kubelet.set_tracer(Arc::clone(&self.tracer));
        Ok(kubelet)
    }

    /// Boot one kubelet per name on nodes prepared for `mode`, all at once:
    /// each charges its startup to a fresh clock, so a fleet costs the
    /// shared clock nothing.
    pub fn boot_fleet(
        &self,
        names: impl IntoIterator<Item = String>,
        mode: KubeletMode,
    ) -> Vec<Kubelet> {
        let boot = |name: String| {
            self.boot_kubelet(&name, mode, &mut node_cgroups(mode), &SimClock::new())
                .expect("a node prepared for the mode boots its kubelet")
        };
        names.into_iter().map(boot).collect()
    }

    /// True once `total_pods` pods are terminal.
    pub fn pods_done(&self, total_pods: usize) -> bool {
        self.k8s.api.pod_tallies().terminal == total_pods
    }

    /// The *drained* predicate: `total_pods` pods are terminal and nothing
    /// is queued or running in the WLM.
    pub fn drained(&self, total_pods: usize) -> bool {
        self.pods_done(total_pods)
            && self.slurm.pending_count() == 0
            && self.slurm.running_count() == 0
    }

    /// The one loop over ticks: run `step` at t = 0, `tick`, 2·`tick`, …
    /// below `horizon` until it reports the run settled. The step *is* the
    /// architecture — admit what arrived, advance the WLM to `t`, then the
    /// Kubernetes tick. Returns the tick the run settled on, `None` on
    /// horizon.
    pub fn drive(
        &mut self,
        tick: SimSpan,
        horizon: SimSpan,
        mut step: impl FnMut(&mut World, SimTime) -> bool,
    ) -> Option<SimTime> {
        let mut t = SimTime::ZERO;
        while t.since(SimTime::ZERO) < horizon {
            if step(self, t) {
                return Some(t);
            }
            t += tick;
        }
        None
    }

    /// Close the root span and read the outcome off the final state.
    /// `done_at` is what [`World::drive`] returned; `capacity_cores` is the
    /// whole cluster, both sides of the boundary.
    pub fn finish(&self, done_at: Option<SimTime>, horizon: SimSpan, capacity_cores: u64) -> Stats {
        let mut pods_succeeded = 0;
        let mut pods_failed = 0;
        let mut last_end = SimTime::ZERO;
        let mut pod_starts = Vec::new();
        for p in self.k8s.api.list_pods(|_| true) {
            match p.phase {
                PodPhase::Succeeded { started, ended, .. } => {
                    pods_succeeded += 1;
                    last_end = last_end.max(ended);
                    pod_starts.push((p.spec.name, started));
                }
                PodPhase::Running { started, .. } => pod_starts.push((p.spec.name, started)),
                PodPhase::Failed { .. } => pods_failed += 1,
                PodPhase::Pending | PodPhase::Scheduled { .. } => {}
            }
        }
        let first = pod_starts.iter().map(|(_, started)| *started).min();
        let total_start_ns: u128 = pod_starts.iter().map(|(_, s)| s.as_nanos() as u128).sum();
        let mean_pod_start = (!pod_starts.is_empty())
            .then(|| SimSpan((total_start_ns / pod_starts.len() as u128) as u64));

        let mut jobs_completed = 0;
        for id in &self.job_ids {
            if let Ok(JobState::Completed { ended, .. }) = self.slurm.job(*id).map(|j| &j.state) {
                jobs_completed += 1;
                last_end = last_end.max(*ended);
            }
        }

        let work_makespan = last_end.since(SimTime::ZERO);
        let makespan = done_at.map_or(work_makespan, |t| t.max(last_end).since(SimTime::ZERO));
        let stopped_at = done_at.unwrap_or(SimTime::ZERO + horizon);
        self.tracer
            .end(self.span, stopped_at.max(SimTime::ZERO + makespan));

        Stats {
            pods_succeeded,
            pods_failed,
            pod_starts,
            first_pod_start: first.map(|t| t.since(SimTime::ZERO)),
            mean_pod_start,
            jobs_completed,
            work_makespan,
            makespan,
            utilization: self.slurm.ledger().utilization(capacity_cores, makespan),
            accounting_coverage: self.slurm.ledger().accounting_coverage(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::FixedCri;
    use hpcc_k8s::objects::PodSpec;

    const ROOTLESS: KubeletMode = KubeletMode::Rootless { uid: 2000 };

    fn world(tracer: &Arc<Tracer>, wlm_nodes: u32) -> World {
        let cri = Arc::new(FixedCri(SimSpan::secs(2)));
        World::new("test", tracer, cri, NodeSpec::cpu_node(), wlm_nodes)
    }

    #[test]
    fn boot_refuses_rootless_without_v2_delegation() {
        let w = world(&Tracer::disabled(), 0);
        let clock = SimClock::new();
        let mut v1 = CgroupTree::new(CgroupVersion::V1);
        assert!(matches!(
            w.boot_kubelet("n0", ROOTLESS, &mut v1, &clock),
            Err(KubeletError::CgroupV2Required)
        ));
        let mut bare = CgroupTree::new(CgroupVersion::V2);
        assert!(matches!(
            w.boot_kubelet("n0", ROOTLESS, &mut bare, &clock),
            Err(KubeletError::CgroupDelegationMissing(2000))
        ));
        assert_eq!(clock.now(), SimTime::ZERO, "a refused boot costs nothing");
        assert!(w.k8s.api.list_nodes().is_empty());

        // What the scenarios `expect`: the delegated tree boots rootless,
        // and a rootful kubelet needs nothing from the tree at all.
        w.boot_kubelet("n0", ROOTLESS, &mut node_cgroups(ROOTLESS), &clock)
            .unwrap();
        w.boot_kubelet("n1", KubeletMode::Rootful, &mut v1, &clock)
            .unwrap();
        let node = w.k8s.api.node("n1").unwrap();
        assert_eq!(node.allocatable, NodeSpec::cpu_node().into());
    }

    /// A pod larger than any node never schedules, so the run ends on the
    /// horizon: `drive` says so, and the outcome reports what did finish.
    #[test]
    fn horizon_stops_a_run_that_cannot_drain() {
        let tracer = Tracer::new();
        let mut w = world(&tracer, 1);
        let mut agents = w.boot_fleet(["k0".to_string()], KubeletMode::Rootful);
        w.submit(
            JobRequest::batch("job", 1000, 1, SimSpan::secs(30)),
            SimTime::ZERO,
        );
        w.submit(
            JobRequest::batch("too-wide", 1000, 2, SimSpan::secs(30)),
            SimTime::ZERO,
        );
        assert_eq!(w.job_ids.len(), 1, "a refused job is not tracked");
        let fits = PodSpec::simple("fits", "a/b:v1", SimSpan::secs(10));
        let mut huge = PodSpec::simple("huge", "a/b:v1", SimSpan::secs(10));
        huge.resources.cpu_millis = 129_000;
        w.k8s.api.create_pod(fits).unwrap();
        w.k8s.api.create_pod(huge).unwrap();

        let horizon = SimSpan::secs(120);
        let done_at = w.drive(SimSpan::secs(1), horizon, |w, t| {
            w.slurm.advance_to(t);
            w.k8s.tick(&mut agents, &w.clock, t, |_| {});
            w.drained(2)
        });
        assert_eq!(done_at, None);
        assert!(!w.drained(2) && w.drained(1));

        let stats = w.finish(done_at, horizon, 256);
        assert_eq!((stats.pods_succeeded, stats.pods_failed), (1, 0));
        assert_eq!(stats.jobs_completed, 1);
        assert_eq!(
            stats.pod_starts,
            [("fits".to_string(), SimTime::ZERO + SimSpan::secs(2))]
        );
        assert_eq!(stats.first_pod_start, Some(SimSpan::secs(2)));
        // Makespan is the last completion (the 30 s job), not the horizon.
        assert_eq!(stats.makespan, SimSpan::secs(30));
        assert_eq!(stats.work_makespan, stats.makespan);
        // The root span still covers the whole simulated window.
        let spans = tracer.finished();
        let root = spans.iter().find(|s| s.parent.is_none()).unwrap();
        assert_eq!(root.end, SimTime::ZERO + horizon);
        let errs = hpcc_sim::obs::check_invariants(&spans);
        assert!(errs.is_empty(), "{}", errs.join("\n"));
    }

    /// The stop rule: `step` runs at 0, tick, 2·tick, … strictly below the
    /// horizon, and the first tick it reports settled on is the last.
    #[test]
    fn drive_stops_where_the_step_settles_or_short_of_the_horizon() {
        let mut w = world(&Tracer::disabled(), 0);
        let at = |s: u64| SimTime::ZERO + SimSpan::secs(s);
        let mut ticks = |horizon: u64, settles_at: Option<u64>| {
            let mut seen = Vec::new();
            let done_at = w.drive(SimSpan::secs(2), SimSpan::secs(horizon), |_, t| {
                seen.push(t);
                settles_at.is_some_and(|s| t == at(s))
            });
            (done_at, seen)
        };
        assert_eq!(ticks(7, None), (None, vec![at(0), at(2), at(4), at(6)]));
        assert_eq!(ticks(6, None), (None, vec![at(0), at(2), at(4)]));
        assert_eq!(ticks(0, Some(0)), (None, vec![]));
        assert_eq!(ticks(7, Some(0)), (Some(at(0)), vec![at(0)]));
        assert_eq!(ticks(7, Some(4)), (Some(at(4)), vec![at(0), at(2), at(4)]));
        // Settling off the tick grid, or on the horizon, is never seen.
        assert_eq!(ticks(6, Some(3)).0, None);
        assert_eq!(ticks(6, Some(6)).0, None);
    }

    #[test]
    fn finish_of_an_empty_world_reports_nothing() {
        let w = world(&Tracer::disabled(), 1);
        assert!(w.drained(0));
        let stats = w.finish(Some(SimTime::ZERO), SimSpan::secs(1), 128);
        assert_eq!((stats.pods_succeeded, stats.pods_failed), (0, 0));
        assert!(stats.first_pod_start.is_none() && stats.mean_pod_start.is_none());
        assert_eq!(stats.makespan, SimSpan::ZERO);
        assert_eq!(stats.utilization, 0.0);
    }
}
