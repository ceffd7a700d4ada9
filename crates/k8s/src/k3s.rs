//! K3s-lite: a single-binary control plane bundling API server and
//! scheduler, with a startup-cost model and the one Kubernetes tick every
//! simulation in the tree runs ([`ControlPlane::tick`]).
//!
//! §6.3: running a whole Kubernetes inside a WLM allocation "can introduce
//! considerable startup overhead. Until the Kubernetes cluster is ready,
//! scheduling Pods or running workflows is not possible." The boot spans
//! here are what the scenario experiments measure.

use crate::kubelet::Kubelet;
use crate::objects::{ApiServer, Resources};
use crate::scheduler::Scheduler;
use hpcc_sim::{SimClock, SimSpan, SimTime};

/// Control-plane flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlPlaneFlavor {
    /// Full kubeadm-style control plane.
    Full,
    /// K3s single binary (lighter, but still seconds).
    K3s,
}

/// Boot cost of the control plane.
pub fn control_plane_boot_span(flavor: ControlPlaneFlavor) -> SimSpan {
    match flavor {
        ControlPlaneFlavor::Full => SimSpan::secs(45),
        ControlPlaneFlavor::K3s => SimSpan::secs(12),
    }
}

/// A pod a kubelet reaped during [`ControlPlane::tick`].
#[derive(Debug, Clone, Copy)]
pub struct FinishedPod<'a> {
    pub node: &'a str,
    pub name: &'a str,
    pub resources: Resources,
    pub started: SimTime,
    pub ended: SimTime,
}

/// A running control plane. `default()` is one that is already up; one
/// booted at job time pays [`control_plane_boot_span`] first.
#[derive(Default)]
pub struct ControlPlane {
    pub api: ApiServer,
    pub scheduler: Scheduler,
}

impl ControlPlane {
    /// One control loop turn at `t`: bind pending pods, bring the shared
    /// clock to `t`, then let every kubelet start what was bound to it and
    /// reap what finished by `t`. A reaped pod's resources go back to the
    /// scheduler and `finished` is called once for it.
    pub fn tick<'k>(
        &mut self,
        kubelets: impl IntoIterator<Item = &'k mut Kubelet>,
        clock: &SimClock,
        t: SimTime,
        mut finished: impl FnMut(FinishedPod<'_>),
    ) {
        self.scheduler.schedule(&self.api);
        clock.advance_to(t);
        // Nothing is bound while the kubelets take their turns: if no pod
        // waits on any node now, no kubelet has anything to start.
        let any_bound = self.api.pod_tallies().scheduled > 0;
        for kubelet in kubelets {
            if any_bound {
                kubelet.sync(&self.api, clock);
            }
            for (name, resources, started, ended) in kubelet.advance_to(&self.api, t) {
                self.scheduler.release(&kubelet.node_name, &resources);
                finished(FinishedPod {
                    node: &kubelet.node_name,
                    name: &name,
                    resources,
                    started,
                    ended,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kubelet::{CriRuntime, KubeletMode};
    use crate::objects::{PodPhase, PodSpec};
    use hpcc_runtime::cgroup::{CgroupTree, CgroupVersion};
    use std::collections::BTreeMap;
    use std::sync::Arc;

    struct InstantCri;
    impl CriRuntime for InstantCri {
        fn start_pod(&self, _pod: &PodSpec) -> Result<SimSpan, String> {
            Ok(SimSpan::ZERO)
        }
    }

    fn node() -> Resources {
        Resources {
            cpu_millis: 64_000,
            memory_mb: 64 * 1024,
            gpus: 0,
        }
    }

    #[test]
    fn k3s_boots_faster_than_full() {
        let full = control_plane_boot_span(ControlPlaneFlavor::Full);
        let k3s = control_plane_boot_span(ControlPlaneFlavor::K3s);
        assert!(k3s < full);
        assert!(k3s >= SimSpan::secs(1), "but K3s still pays seconds");
    }

    #[test]
    fn tick_schedules() {
        let clock = SimClock::new();
        let mut cp = ControlPlane::default();
        cp.api.register_node("n0", node(), BTreeMap::new()).unwrap();
        cp.api
            .create_pod(PodSpec::simple("p", "a/b:v1", SimSpan::secs(1)))
            .unwrap();
        let t = clock.now();
        cp.tick([], &clock, t, |_| panic!("no kubelet, nothing finishes"));
        let bound = cp.api.pod("p").unwrap();
        assert!(matches!(bound.phase, PodPhase::Scheduled { .. }));
        cp.tick([], &clock, t, |_| {});
        assert_eq!(
            cp.api.pod("p").unwrap().resource_version,
            bound.resource_version,
            "idempotent once bound"
        );
    }

    /// Two single-slot nodes, three node-filling pods: the third can only
    /// run if the tick hands a finished pod's resources back to the
    /// scheduler, and every pod must reach the hook exactly once.
    #[test]
    fn tick_over_two_kubelets_releases_capacity_and_reports_each_pod_once() {
        let clock = SimClock::new();
        let mut cp = ControlPlane::default();
        let mut kubelets: Vec<Kubelet> = (0..2)
            .map(|i| {
                Kubelet::start(
                    &format!("n{i}"),
                    KubeletMode::Rootful,
                    Arc::new(InstantCri),
                    &mut CgroupTree::new(CgroupVersion::V2),
                    node(),
                    BTreeMap::new(),
                    &cp.api,
                    &SimClock::new(),
                )
                .unwrap()
            })
            .collect();
        for i in 0..3 {
            let mut pod = PodSpec::simple(&format!("p{i}"), "a/b:v1", SimSpan::secs(10));
            pod.resources = node();
            cp.api.create_pod(pod).unwrap();
        }
        let mut seen: Vec<(String, String, SimTime, SimTime)> = Vec::new();
        for s in 0..=25 {
            let t = SimTime::ZERO + SimSpan::secs(s);
            cp.tick(&mut kubelets, &clock, t, |f| {
                assert_eq!(f.resources, node());
                assert!(f.ended <= t, "{} reported before it ended", f.name);
                seen.push((f.node.to_string(), f.name.to_string(), f.started, f.ended));
            });
            assert_eq!(clock.now(), t, "the tick brings the shared clock to t");
        }
        let mut pods: Vec<&str> = seen.iter().map(|(_, p, ..)| p.as_str()).collect();
        pods.sort_unstable();
        assert_eq!(pods, ["p0", "p1", "p2"], "each finished pod exactly once");
        // Capacity freed by the reap at t=10 is seen by the next tick's
        // scheduling pass.
        let (_, _, started, ended) = seen.iter().find(|(_, p, ..)| p == "p2").unwrap();
        assert_eq!(*started, SimTime::ZERO + SimSpan::secs(11));
        assert_eq!(*ended, SimTime::ZERO + SimSpan::secs(21));
        assert!(kubelets.iter().all(|k| k.running_count() == 0));
    }
}
