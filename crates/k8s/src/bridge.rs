//! Bridging Kubernetes and the WLM (§6.4).
//!
//! Two modalities, as in the paper:
//!
//! * [`BridgeOperator`] — "allowing Kubernetes to schedule external
//!   resources ... the drawback of this approach is the required explicit
//!   formulation in the resource description": only pods carrying the
//!   `bridge.wlm/submit` annotation are translated into WLM jobs.
//! * [`VirtualKubelet`] — the KNoC approach: "a separate service acts as a
//!   regular Kubelet. It schedules Pods as jobs by starting containers
//!   ... within WLM allocations, then tracks their execution and reports
//!   back", transparently to the user.

use crate::objects::{ApiServer, PodPhase, Resources};
use hpcc_sim::SimTime;
use hpcc_wlm::slurm::Slurm;
use hpcc_wlm::types::{JobId, JobRequest, JobState};
use std::collections::BTreeMap;

/// Annotation that opts a pod into the bridge operator.
pub const BRIDGE_ANNOTATION: &str = "bridge.wlm/submit";

fn pod_to_job(pod: &crate::objects::Pod, partition: &str) -> JobRequest {
    let cores = (pod.spec.resources.cpu_millis.div_ceil(1000)).max(1) as u32;
    JobRequest {
        name: format!("pod-{}", pod.spec.name),
        user: pod.spec.user,
        nodes: 1,
        cores_per_node: cores,
        gpus_per_node: pod.spec.resources.gpus,
        walltime_limit: pod.spec.duration * 2,
        actual_runtime: pod.spec.duration,
        partition: partition.to_string(),
        exclusive: false,
    }
}

fn track_job(api: &ApiServer, slurm: &Slurm, pod_name: &str, job: JobId, node_label: &str) {
    let Ok(pod) = api.pod(pod_name) else { return };
    let Ok(j) = slurm.job(job) else { return };
    match (&j.state, &pod.phase) {
        (JobState::Running { started, .. }, PodPhase::Scheduled { .. })
        | (JobState::Running { started, .. }, PodPhase::Pending) => {
            let _ = api.set_pod_phase(
                pod_name,
                pod.resource_version,
                PodPhase::Running {
                    node: node_label.to_string(),
                    started: *started,
                },
            );
        }
        (JobState::Completed { started, ended, .. }, PodPhase::Running { .. })
        | (JobState::Completed { started, ended, .. }, PodPhase::Scheduled { .. })
        | (JobState::Completed { started, ended, .. }, PodPhase::Pending) => {
            let _ = api.set_pod_phase(
                pod_name,
                pod.resource_version,
                PodPhase::Succeeded {
                    node: node_label.to_string(),
                    started: *started,
                    ended: *ended,
                },
            );
        }
        (JobState::TimedOut { .. }, _) | (JobState::Cancelled, _) => {
            let _ = api.set_pod_phase(
                pod_name,
                pod.resource_version,
                PodPhase::Failed {
                    reason: "WLM job did not complete".into(),
                },
            );
        }
        (JobState::Failed { reason, .. }, _) => {
            let _ = api.set_pod_phase(
                pod_name,
                pod.resource_version,
                PodPhase::Failed {
                    reason: format!("WLM job failed before start: {reason}"),
                },
            );
        }
        _ => {}
    }
}

/// The explicit bridge operator.
pub struct BridgeOperator {
    partition: String,
    submitted: BTreeMap<String, JobId>,
}

impl BridgeOperator {
    pub fn new(partition: &str) -> BridgeOperator {
        BridgeOperator {
            partition: partition.to_string(),
            submitted: BTreeMap::new(),
        }
    }

    /// Pods handled so far.
    pub fn submitted_count(&self) -> usize {
        self.submitted.len()
    }

    /// One reconciliation pass: submit annotated pending pods, track
    /// phases of submitted ones.
    pub fn reconcile(&mut self, api: &ApiServer, slurm: &mut Slurm, now: SimTime) {
        // Submit newly annotated pods.
        for pod in api.list_pods(|p| p.phase == PodPhase::Pending) {
            if pod
                .spec
                .annotations
                .get(BRIDGE_ANNOTATION)
                .map(String::as_str)
                != Some("true")
            {
                continue; // the explicit-formulation drawback
            }
            if self.submitted.contains_key(&pod.spec.name) {
                continue;
            }
            if let Ok(job) = slurm.submit(pod_to_job(&pod, &self.partition), now) {
                self.submitted.insert(pod.spec.name.clone(), job);
            }
        }
        slurm.schedule(now);
        // Track running/completed jobs back into pod phases.
        for (pod_name, job) in &self.submitted {
            track_job(api, slurm, pod_name, *job, "wlm-bridge");
        }
    }
}

/// The KNoC-style virtual kubelet: registers as a (virtual) node so the
/// ordinary scheduler binds pods to it; every bound pod becomes a WLM job
/// with no annotation needed.
pub struct VirtualKubelet {
    pub node_name: String,
    partition: String,
    submitted: BTreeMap<String, JobId>,
}

impl VirtualKubelet {
    /// Register the virtual node. Its allocatable mirrors the partition's
    /// aggregate capacity so pods always "fit".
    pub fn start(
        node_name: &str,
        partition: &str,
        aggregate: Resources,
        api: &ApiServer,
    ) -> Result<VirtualKubelet, crate::objects::ApiError> {
        let mut labels = BTreeMap::new();
        labels.insert("type".to_string(), "virtual-kubelet".to_string());
        api.register_node(node_name, aggregate, labels)?;
        Ok(VirtualKubelet {
            node_name: node_name.to_string(),
            partition: partition.to_string(),
            submitted: BTreeMap::new(),
        })
    }

    /// One reconciliation pass: translate bound pods to jobs, mirror job
    /// states back.
    pub fn reconcile(&mut self, api: &ApiServer, slurm: &mut Slurm, now: SimTime) {
        for pod in api.scheduled_pods(&self.node_name) {
            if self.submitted.contains_key(&pod.spec.name) {
                continue;
            }
            if let Ok(job) = slurm.submit(pod_to_job(&pod, &self.partition), now) {
                self.submitted.insert(pod.spec.name.clone(), job);
            }
        }
        slurm.schedule(now);
        for (pod_name, job) in &self.submitted {
            track_job(api, slurm, pod_name, *job, &self.node_name);
        }
    }

    pub fn submitted_count(&self) -> usize {
        self.submitted.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objects::PodSpec;
    use crate::scheduler::Scheduler;
    use hpcc_sim::SimSpan;
    use hpcc_wlm::types::NodeSpec;

    fn slurm(nodes: u32) -> Slurm {
        let mut s = Slurm::new();
        s.add_partition("batch", NodeSpec::cpu_node(), nodes);
        s
    }

    fn annotated_pod(name: &str) -> PodSpec {
        let mut p = PodSpec::simple(name, "hpc/app:v1", SimSpan::secs(100));
        p.annotations
            .insert(BRIDGE_ANNOTATION.to_string(), "true".to_string());
        p
    }

    #[test]
    fn bridge_operator_requires_annotation() {
        let api = ApiServer::new();
        let mut s = slurm(2);
        let mut op = BridgeOperator::new("batch");
        api.create_pod(PodSpec::simple("plain", "hpc/app:v1", SimSpan::secs(10)))
            .unwrap();
        api.create_pod(annotated_pod("bridged")).unwrap();
        op.reconcile(&api, &mut s, SimTime::ZERO);
        assert_eq!(op.submitted_count(), 1, "only the annotated pod crosses");
        // Plain pod stays pending forever under the operator alone.
        assert_eq!(api.pod("plain").unwrap().phase, PodPhase::Pending);
    }

    #[test]
    fn bridge_operator_tracks_lifecycle() {
        let api = ApiServer::new();
        let mut s = slurm(2);
        let mut op = BridgeOperator::new("batch");
        api.create_pod(annotated_pod("p")).unwrap();
        op.reconcile(&api, &mut s, SimTime::ZERO);
        op.reconcile(&api, &mut s, SimTime::ZERO);
        assert!(matches!(
            api.pod("p").unwrap().phase,
            PodPhase::Running { .. }
        ));
        s.advance_to(SimTime::ZERO + SimSpan::secs(100));
        op.reconcile(&api, &mut s, SimTime::ZERO + SimSpan::secs(100));
        assert!(matches!(
            api.pod("p").unwrap().phase,
            PodPhase::Succeeded { .. }
        ));
        // The WLM accounted the pod's usage — the whole point of §6.4.
        assert!(s.ledger().user_core_seconds(1000) > 0.0);
    }

    #[test]
    fn virtual_kubelet_is_transparent() {
        let api = ApiServer::new();
        let mut s = slurm(4);
        let aggregate = Resources {
            cpu_millis: 4 * 128_000,
            memory_mb: 4 * 256 * 1024,
            gpus: 0,
        };
        let mut vk = VirtualKubelet::start("knoc", "batch", aggregate, &api).unwrap();
        // A *plain* pod, no annotations: the normal scheduler binds it to
        // the virtual node.
        api.create_pod(PodSpec::simple("plain", "hpc/app:v1", SimSpan::secs(50)))
            .unwrap();
        let mut sched = Scheduler::new();
        let bindings = sched.schedule(&api);
        assert_eq!(bindings[0].1, "knoc");
        vk.reconcile(&api, &mut s, SimTime::ZERO);
        vk.reconcile(&api, &mut s, SimTime::ZERO);
        assert!(matches!(
            api.pod("plain").unwrap().phase,
            PodPhase::Running { .. }
        ));
        s.advance_to(SimTime::ZERO + SimSpan::secs(50));
        vk.reconcile(&api, &mut s, SimTime::ZERO + SimSpan::secs(50));
        assert!(matches!(
            api.pod("plain").unwrap().phase,
            PodPhase::Succeeded { .. }
        ));
        assert_eq!(vk.submitted_count(), 1);
    }

    #[test]
    fn failed_wlm_jobs_surface_as_failed_pods() {
        let api = ApiServer::new();
        let mut s = slurm(1);
        let mut op = BridgeOperator::new("batch");
        // Pod whose duration exceeds the walltime limit: pod_to_job sets
        // limit = 2*duration, so force a timeout by cancelling instead.
        api.create_pod(annotated_pod("doomed")).unwrap();
        op.reconcile(&api, &mut s, SimTime::ZERO);
        let job = *op.submitted.values().next().unwrap();
        s.cancel(job, SimTime::ZERO).unwrap();
        op.reconcile(&api, &mut s, SimTime::ZERO);
        assert!(matches!(
            api.pod("doomed").unwrap().phase,
            PodPhase::Failed { .. }
        ));
    }

    #[test]
    fn pod_to_job_resource_translation() {
        let api = ApiServer::new();
        let mut pod = annotated_pod("p");
        pod.resources.cpu_millis = 6500; // → 7 cores
        pod.resources.gpus = 2;
        api.create_pod(pod).unwrap();
        let p = api.pod("p").unwrap();
        let job = pod_to_job(&p, "batch");
        assert_eq!(job.cores_per_node, 7);
        assert_eq!(job.gpus_per_node, 2);
        assert!(!job.exclusive, "pods share nodes");
    }
}
