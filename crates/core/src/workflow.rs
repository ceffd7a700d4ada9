//! Containerized workflows — the end-user capability adaptive
//! containerization promises: "the integration of HPC-centric and
//! specific container engines, registries, and orchestration tools, to
//! deliver full workflow capabilities to an end user" (§1), motivated by
//! the bioinformatics/data-science pipelines of §2.
//!
//! A [`Workflow`] is a DAG of container steps. It executes on either
//! backend the Section 6 analysis ends up recommending: WLM jobs
//! (bridge/KNoC style) or Kubernetes pods on an agent allocation — with
//! identical results, differing only in scheduling behaviour.

use hpcc_k8s::k3s::ControlPlane;
use hpcc_k8s::kubelet::Kubelet;
use hpcc_k8s::objects::{PodPhase, PodSpec, Resources};
use hpcc_sim::{SimClock, SimSpan, SimTime};
use hpcc_wlm::slurm::Slurm;
use hpcc_wlm::types::{JobId, JobRequest, JobState};
use std::collections::{BTreeMap, BTreeSet};

/// One step of a workflow.
#[derive(Debug, Clone)]
pub struct Step {
    pub name: String,
    /// `repo:tag` on the site registry.
    pub image: String,
    /// Names of steps that must complete first.
    pub deps: Vec<String>,
    pub duration: SimSpan,
    pub cores: u32,
}

impl Step {
    pub fn new(name: &str, image: &str, duration: SimSpan) -> Step {
        Step {
            name: name.to_string(),
            image: image.to_string(),
            deps: Vec::new(),
            duration,
            cores: 8,
        }
    }

    pub fn after(mut self, dep: &str) -> Step {
        self.deps.push(dep.to_string());
        self
    }

    pub fn with_cores(mut self, cores: u32) -> Step {
        self.cores = cores;
        self
    }
}

/// A DAG of steps.
#[derive(Debug, Clone, Default)]
pub struct Workflow {
    pub steps: Vec<Step>,
}

/// Errors from workflow validation/execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkflowError {
    DuplicateStep(String),
    UnknownDependency {
        step: String,
        dep: String,
    },
    Cycle(String),
    /// Execution exceeded the horizon without completing.
    Stalled,
    StepFailed {
        step: String,
        reason: String,
    },
}

impl std::fmt::Display for WorkflowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkflowError::DuplicateStep(s) => write!(f, "duplicate step {s}"),
            WorkflowError::UnknownDependency { step, dep } => {
                write!(f, "step {step} depends on unknown {dep}")
            }
            WorkflowError::Cycle(s) => write!(f, "dependency cycle through {s}"),
            WorkflowError::Stalled => f.write_str("workflow did not complete"),
            WorkflowError::StepFailed { step, reason } => {
                write!(f, "step {step} failed: {reason}")
            }
        }
    }
}

impl std::error::Error for WorkflowError {}

impl Workflow {
    pub fn new() -> Workflow {
        Workflow::default()
    }

    pub fn step(mut self, step: Step) -> Workflow {
        self.steps.push(step);
        self
    }

    /// Validate: unique names, known deps, acyclic. Returns a topological
    /// order.
    pub(crate) fn validate(&self) -> Result<Vec<&Step>, WorkflowError> {
        let mut by_name: BTreeMap<&str, &Step> = BTreeMap::new();
        for s in &self.steps {
            if by_name.insert(&s.name, s).is_some() {
                return Err(WorkflowError::DuplicateStep(s.name.clone()));
            }
        }
        for s in &self.steps {
            for d in &s.deps {
                if !by_name.contains_key(d.as_str()) {
                    return Err(WorkflowError::UnknownDependency {
                        step: s.name.clone(),
                        dep: d.clone(),
                    });
                }
            }
        }
        // Kahn's algorithm.
        let mut indeg: BTreeMap<&str, usize> = self
            .steps
            .iter()
            .map(|s| (s.name.as_str(), s.deps.len()))
            .collect();
        let mut order = Vec::new();
        let mut ready: Vec<&str> = indeg
            .iter()
            .filter(|(_, d)| **d == 0)
            .map(|(n, _)| *n)
            .collect();
        while let Some(n) = ready.pop() {
            order.push(by_name[n]);
            for s in &self.steps {
                if s.deps.iter().any(|d| d == n) {
                    let e = indeg.get_mut(s.name.as_str()).expect("known step");
                    *e -= 1;
                    if *e == 0 {
                        ready.push(&s.name);
                    }
                }
            }
        }
        if order.len() != self.steps.len() {
            let stuck = indeg
                .iter()
                .find(|(_, d)| **d > 0)
                .map(|(n, _)| n.to_string())
                .unwrap_or_default();
            return Err(WorkflowError::Cycle(stuck));
        }
        Ok(order)
    }

    /// The DAG's critical path (lower bound on makespan with infinite
    /// resources).
    pub fn critical_path(&self) -> Result<SimSpan, WorkflowError> {
        let order = self.validate()?;
        let mut finish: BTreeMap<&str, SimSpan> = BTreeMap::new();
        for s in order {
            let start = s
                .deps
                .iter()
                .map(|d| finish[d.as_str()])
                .max()
                .unwrap_or(SimSpan::ZERO);
            finish.insert(&s.name, start + s.duration);
        }
        Ok(finish.values().copied().max().unwrap_or(SimSpan::ZERO))
    }
}

/// Per-step timing of a completed run.
#[derive(Debug, Clone)]
pub struct RunRecord {
    pub step: String,
    pub started: SimTime,
    pub ended: SimTime,
}

/// A completed workflow run.
#[derive(Debug, Clone)]
pub struct WorkflowRun {
    pub records: Vec<RunRecord>,
    pub makespan: SimSpan,
}

const HORIZON_TICKS: u64 = 6 * 3600;

/// Execute on a WLM backend: each ready step becomes a shared-allocation
/// job (the §6.4 bridge modality).
pub fn run_on_wlm(wf: &Workflow, slurm: &mut Slurm) -> Result<WorkflowRun, WorkflowError> {
    wf.validate()?;
    let mut done: BTreeMap<String, RunRecord> = BTreeMap::new();
    let mut running: BTreeMap<String, JobId> = BTreeMap::new();
    let mut t = SimTime::ZERO;
    for _ in 0..HORIZON_TICKS {
        slurm.advance_to(t);
        // Collect completions.
        let finished: Vec<(String, JobId)> = running
            .iter()
            .map(|(n, id)| (n.clone(), *id))
            .filter(|(_, id)| {
                matches!(
                    slurm.job(*id).map(|j| &j.state),
                    Ok(JobState::Completed { .. })
                )
            })
            .collect();
        for (name, id) in finished {
            let job = slurm.job(id).expect("completed job exists");
            if let JobState::Completed { started, ended, .. } = &job.state {
                done.insert(
                    name.clone(),
                    RunRecord {
                        step: name.clone(),
                        started: *started,
                        ended: *ended,
                    },
                );
            }
            running.remove(&name);
        }
        // Submit newly ready steps.
        for s in &wf.steps {
            if done.contains_key(&s.name) || running.contains_key(&s.name) {
                continue;
            }
            if s.deps.iter().all(|d| done.contains_key(d)) {
                let mut req = JobRequest::batch(&format!("wf-{}", s.name), 2000, 1, s.duration);
                req.exclusive = false;
                req.cores_per_node = s.cores;
                let id = slurm
                    .submit(req, t)
                    .map_err(|e| WorkflowError::StepFailed {
                        step: s.name.clone(),
                        reason: e.to_string(),
                    })?;
                running.insert(s.name.clone(), id);
            }
        }
        slurm.schedule(t);
        if done.len() == wf.steps.len() {
            let makespan = done
                .values()
                .map(|r| r.ended)
                .max()
                .unwrap_or(SimTime::ZERO)
                .since(SimTime::ZERO);
            let mut records: Vec<RunRecord> = done.into_values().collect();
            records.sort_by(|a, b| a.started.cmp(&b.started).then(a.step.cmp(&b.step)));
            return Ok(WorkflowRun { records, makespan });
        }
        t += SimSpan::secs(1);
    }
    Err(WorkflowError::Stalled)
}

/// Execute on a Kubernetes backend: each ready step becomes a pod on the
/// provided kubelet fleet (the §6.5 modality; kubelets typically live in
/// a WLM allocation).
pub fn run_on_k8s(
    wf: &Workflow,
    k8s: &mut ControlPlane,
    kubelets: &mut [Kubelet],
    clock: &SimClock,
) -> Result<WorkflowRun, WorkflowError> {
    wf.validate()?;
    let mut submitted: BTreeSet<String> = BTreeSet::new();
    let mut done: BTreeMap<String, RunRecord> = BTreeMap::new();
    let mut t = clock.now();
    for _ in 0..HORIZON_TICKS {
        // Submit ready steps as pods.
        for s in &wf.steps {
            if submitted.contains(&s.name) {
                continue;
            }
            if s.deps.iter().all(|d| done.contains_key(d)) {
                let mut pod = PodSpec::simple(&format!("wf-{}", s.name), &s.image, s.duration);
                pod.resources = Resources {
                    cpu_millis: s.cores as u64 * 1000,
                    memory_mb: 2048,
                    gpus: 0,
                };
                pod.user = 2000;
                k8s.api
                    .create_pod(pod)
                    .map_err(|e| WorkflowError::StepFailed {
                        step: s.name.clone(),
                        reason: e.to_string(),
                    })?;
                submitted.insert(s.name.clone());
            }
        }
        k8s.tick(kubelets.iter_mut(), clock, t, |pod| {
            let step = pod.name.trim_start_matches("wf-").to_string();
            done.insert(
                step.clone(),
                RunRecord {
                    step,
                    started: pod.started,
                    ended: pod.ended,
                },
            );
        });
        // Surface pod failures.
        for pod in k8s
            .api
            .list_pods(|p| matches!(p.phase, PodPhase::Failed { .. }))
        {
            if let PodPhase::Failed { reason } = pod.phase {
                return Err(WorkflowError::StepFailed {
                    step: pod.spec.name,
                    reason,
                });
            }
        }
        if done.len() == wf.steps.len() {
            let makespan = done
                .values()
                .map(|r| r.ended)
                .max()
                .unwrap_or(SimTime::ZERO)
                .since(SimTime::ZERO);
            let mut records: Vec<RunRecord> = done.into_values().collect();
            records.sort_by(|a, b| a.started.cmp(&b.started).then(a.step.cmp(&b.step)));
            return Ok(WorkflowRun { records, makespan });
        }
        t += SimSpan::secs(1);
    }
    Err(WorkflowError::Stalled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::common::MeasuredCri;
    use hpcc_adapt::cosim::World;
    use hpcc_k8s::kubelet::KubeletMode;
    use hpcc_sim::Tracer;
    use hpcc_wlm::types::NodeSpec;
    use std::sync::Arc;

    fn diamond() -> Workflow {
        Workflow::new()
            .step(Step::new("fetch", "bio/fetch:v1", SimSpan::secs(60)))
            .step(Step::new("align", "bio/align:v1", SimSpan::secs(300)).after("fetch"))
            .step(Step::new("qc", "bio/qc:v1", SimSpan::secs(120)).after("fetch"))
            .step(
                Step::new("report", "bio/report:v1", SimSpan::secs(30))
                    .after("align")
                    .after("qc"),
            )
    }

    #[test]
    fn validation_catches_structural_errors() {
        let dup = Workflow::new()
            .step(Step::new("a", "i:v", SimSpan::secs(1)))
            .step(Step::new("a", "i:v", SimSpan::secs(1)));
        assert!(matches!(
            dup.validate(),
            Err(WorkflowError::DuplicateStep(_))
        ));

        let unknown = Workflow::new().step(Step::new("a", "i:v", SimSpan::secs(1)).after("ghost"));
        assert!(matches!(
            unknown.validate(),
            Err(WorkflowError::UnknownDependency { .. })
        ));

        let cycle = Workflow::new()
            .step(Step::new("a", "i:v", SimSpan::secs(1)).after("b"))
            .step(Step::new("b", "i:v", SimSpan::secs(1)).after("a"));
        assert!(matches!(cycle.validate(), Err(WorkflowError::Cycle(_))));
    }

    #[test]
    fn critical_path_of_diamond() {
        // fetch(60) + align(300) + report(30) = 390s.
        assert_eq!(diamond().critical_path().unwrap(), SimSpan::secs(390));
    }

    #[test]
    fn wlm_backend_respects_dependencies() {
        let mut slurm = Slurm::new();
        slurm.add_partition("batch", NodeSpec::cpu_node(), 4);
        let run = run_on_wlm(&diamond(), &mut slurm).unwrap();
        assert_eq!(run.records.len(), 4);
        let by_name: BTreeMap<&str, &RunRecord> =
            run.records.iter().map(|r| (r.step.as_str(), r)).collect();
        assert!(by_name["align"].started >= by_name["fetch"].ended);
        assert!(by_name["qc"].started >= by_name["fetch"].ended);
        assert!(by_name["report"].started >= by_name["align"].ended);
        assert!(by_name["report"].started >= by_name["qc"].ended);
        // align and qc overlap (parallel branches).
        assert!(by_name["qc"].started < by_name["align"].ended);
        // Makespan ≥ critical path; close to it on an idle cluster.
        let cp = diamond().critical_path().unwrap();
        assert!(run.makespan >= cp);
        assert!(run.makespan < cp + SimSpan::secs(30), "{}", run.makespan);
    }

    #[test]
    fn k8s_backend_matches_wlm_semantics() {
        let cri = Arc::new(MeasuredCri);
        let mut w = World::new("test", &Tracer::disabled(), cri, NodeSpec::cpu_node(), 0);
        let mut kubelets = w.boot_fleet((0..2).map(|i| format!("n{i}")), KubeletMode::Rootful);
        let run = run_on_k8s(&diamond(), &mut w.k8s, &mut kubelets, &w.clock).unwrap();
        assert_eq!(run.records.len(), 4);
        let by_name: BTreeMap<&str, &RunRecord> =
            run.records.iter().map(|r| (r.step.as_str(), r)).collect();
        assert!(by_name["report"].started >= by_name["align"].ended);
        let cp = diamond().critical_path().unwrap();
        assert!(run.makespan >= cp);
    }

    #[test]
    fn constrained_cluster_serializes_branches() {
        // One node, steps demanding most of it: align and qc cannot
        // overlap, stretching the makespan beyond the critical path.
        let wide = Workflow::new()
            .step(Step::new("a", "i:v", SimSpan::secs(100)).with_cores(100))
            .step(Step::new("b", "i:v", SimSpan::secs(100)).with_cores(100))
            .step(Step::new("c", "i:v", SimSpan::secs(100)).with_cores(100));
        let mut slurm = Slurm::new();
        slurm.add_partition("batch", NodeSpec::cpu_node(), 1);
        let run = run_on_wlm(&wide, &mut slurm).unwrap();
        // 3 independent 100s steps at 100/128 cores: strictly serial.
        assert!(run.makespan >= SimSpan::secs(300), "{}", run.makespan);
    }

    #[test]
    fn empty_workflow_completes_immediately() {
        let mut slurm = Slurm::new();
        slurm.add_partition("batch", NodeSpec::cpu_node(), 1);
        let run = run_on_wlm(&Workflow::new(), &mut slurm).unwrap();
        assert_eq!(run.makespan, SimSpan::ZERO);
        assert!(run.records.is_empty());
    }
}
