//! The pod scheduler: binds pending pods to nodes with sufficient
//! free allocatable resources, honoring node selectors.

use crate::objects::{ApiServer, NodeObject, Pod, PodPhase, Resources};
use std::collections::BTreeMap;

/// Tracks committed resources per node across scheduling passes.
#[derive(Debug, Default)]
pub struct Scheduler {
    committed: BTreeMap<String, Resources>,
}

impl Scheduler {
    pub fn new() -> Scheduler {
        Scheduler::default()
    }

    fn free_on(&self, node: &NodeObject) -> Resources {
        match self.committed.get(&node.name) {
            Some(used) => node.allocatable.minus(used),
            None => node.allocatable,
        }
    }

    fn selector_matches(pod: &Pod, node: &NodeObject) -> bool {
        pod.spec
            .node_selector
            .iter()
            .all(|(k, v)| node.labels.get(k) == Some(v))
    }

    /// Release the resources of a finished pod.
    pub fn release(&mut self, node: &str, resources: &Resources) {
        if let Some(used) = self.committed.get_mut(node) {
            *used = used.minus(resources);
        }
    }

    /// One scheduling pass: bind every pending pod that fits somewhere.
    /// Returns (pod, node) bindings made.
    pub fn schedule(&mut self, api: &ApiServer) -> Vec<(String, String)> {
        if api.pod_tallies().pending == 0 {
            return Vec::new();
        }
        // Placement reads only the nodes and what this scheduler has
        // committed, so all of it is decided on borrowed objects before
        // the first binding is written.
        let placed: Vec<(String, u64, String)> = api.view(|pods, nodes| {
            let mut placed = Vec::new();
            for pod in pods.values().filter(|p| p.phase == PodPhase::Pending) {
                // Score: most free CPU first (spreading).
                let mut best: Option<(&NodeObject, Resources)> = None;
                for node in nodes.values() {
                    if !Self::selector_matches(pod, node) {
                        continue;
                    }
                    let free = self.free_on(node);
                    if !pod.spec.resources.fits_in(&free) {
                        continue;
                    }
                    if best
                        .as_ref()
                        .is_none_or(|(_, bf)| free.cpu_millis > bf.cpu_millis)
                    {
                        best = Some((node, free));
                    }
                }
                if let Some((node, _)) = best {
                    let entry = self.committed.entry(node.name.clone()).or_default();
                    *entry = entry.plus(&pod.spec.resources);
                    placed.push((
                        pod.spec.name.clone(),
                        pod.resource_version,
                        node.name.clone(),
                    ));
                }
            }
            placed
        });
        let mut bindings = Vec::with_capacity(placed.len());
        for (pod, rv, node) in placed {
            let bound = PodPhase::Scheduled { node: node.clone() };
            if api.set_pod_phase(&pod, rv, bound).is_ok() {
                bindings.push((pod, node));
            }
        }
        bindings
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objects::PodSpec;
    use hpcc_sim::SimSpan;

    fn node_alloc() -> Resources {
        Resources {
            cpu_millis: 16_000,
            memory_mb: 32 * 1024,
            gpus: 2,
        }
    }

    fn pod(name: &str, cpu: u64, gpus: u32) -> PodSpec {
        let mut p = PodSpec::simple(name, "app:v1", SimSpan::secs(10));
        p.resources = Resources {
            cpu_millis: cpu,
            memory_mb: 1024,
            gpus,
        };
        p
    }

    #[test]
    fn binds_to_fitting_node() {
        let api = ApiServer::new();
        api.register_node("n0", node_alloc(), BTreeMap::new())
            .unwrap();
        api.create_pod(pod("p", 4000, 0)).unwrap();
        let mut sched = Scheduler::new();
        let bindings = sched.schedule(&api);
        assert_eq!(bindings, vec![("p".to_string(), "n0".to_string())]);
        assert!(matches!(
            api.pod("p").unwrap().phase,
            PodPhase::Scheduled { .. }
        ));
    }

    #[test]
    fn tracks_commitments_across_passes() {
        let api = ApiServer::new();
        api.register_node("n0", node_alloc(), BTreeMap::new())
            .unwrap();
        let mut sched = Scheduler::new();
        // 16000 milli-cores: four 4000m pods fit; the fifth waits.
        for i in 0..5 {
            api.create_pod(pod(&format!("p{i}"), 4000, 0)).unwrap();
        }
        let n = sched.schedule(&api).len();
        assert_eq!(n, 4);
        assert_eq!(api.pod_tallies().pending, 1);
        // Releasing one pod's resources lets the fifth bind.
        sched.release("n0", &pod("_", 4000, 0).resources);
        assert_eq!(sched.schedule(&api).len(), 1);
    }

    #[test]
    fn gpu_pods_need_gpu_nodes() {
        let api = ApiServer::new();
        let mut cpu_only = node_alloc();
        cpu_only.gpus = 0;
        api.register_node("cpu", cpu_only, BTreeMap::new()).unwrap();
        api.create_pod(pod("g", 1000, 1)).unwrap();
        let mut sched = Scheduler::new();
        assert!(sched.schedule(&api).is_empty());
        api.register_node("gpu", node_alloc(), BTreeMap::new())
            .unwrap();
        let bindings = sched.schedule(&api);
        assert_eq!(bindings[0].1, "gpu");
    }

    #[test]
    fn selectors_restrict_placement() {
        let api = ApiServer::new();
        api.register_node("plain", node_alloc(), BTreeMap::new())
            .unwrap();
        let mut labels = BTreeMap::new();
        labels.insert("hpc/partition".to_string(), "gpu".to_string());
        api.register_node("labelled", node_alloc(), labels.clone())
            .unwrap();
        let mut p = pod("sel", 1000, 0);
        p.node_selector = labels;
        api.create_pod(p).unwrap();
        let mut sched = Scheduler::new();
        let bindings = sched.schedule(&api);
        assert_eq!(bindings[0].1, "labelled");
    }

    #[test]
    fn spreads_by_free_cpu() {
        let api = ApiServer::new();
        api.register_node("a", node_alloc(), BTreeMap::new())
            .unwrap();
        api.register_node("b", node_alloc(), BTreeMap::new())
            .unwrap();
        let mut sched = Scheduler::new();
        api.create_pod(pod("p1", 4000, 0)).unwrap();
        sched.schedule(&api);
        api.create_pod(pod("p2", 4000, 0)).unwrap();
        let b2 = sched.schedule(&api);
        // Second pod goes to the emptier node.
        let first_node = match api.pod("p1").unwrap().phase {
            PodPhase::Scheduled { node } => node,
            other => panic!("{other:?}"),
        };
        assert_ne!(b2[0].1, first_node);
    }
}
