//! §6.4 — Bridged Kubernetes and WLM via a virtual kubelet (KNoC).
//!
//! A standing control plane runs outside the cluster; a virtual kubelet
//! registers as a node and turns every pod bound to it into a WLM job —
//! transparently, with all accounting inside the WLM. The measured
//! container startup cost is folded into each pod's job runtime (the
//! container really is started by an engine inside the allocation).

use super::common::{
    self, measured_container_startup, ClusterConfig, MixedWorkload, ScenarioOutcome,
};
use hpcc_k8s::bridge::VirtualKubelet;
use hpcc_k8s::objects::Resources;
use hpcc_sim::Tracer;
use std::sync::Arc;

/// Run the bridged (virtual-kubelet) scenario under `tracer`'s root
/// `scenario` span; every pod→job translation shows as WLM spans inside it.
pub fn run(cfg: &ClusterConfig, wl: &MixedWorkload, tracer: &Arc<Tracer>) -> ScenarioOutcome {
    const NAME: &str = "bridge-virtual-kubelet";
    let w = common::world(NAME, cfg, cfg.nodes, wl, |_| {}, tracer);
    let aggregate = Resources {
        cpu_millis: cfg.capacity_cores() * 1000,
        memory_mb: cfg.nodes as u64 * cfg.spec().memory_mb,
        gpus: cfg.nodes * cfg.spec().gpus,
    };
    let mut vk =
        VirtualKubelet::start("knoc", "batch", aggregate, &w.k8s.api).expect("vk registers");
    let startup = measured_container_startup();
    for pod in &wl.pods {
        let mut pod = pod.clone();
        // The engine startup happens inside the WLM job.
        pod.duration += startup;
        w.k8s.api.create_pod(pod).unwrap();
    }
    let notes =
        "transparent pod→job translation; full WLM accounting; non-standard pod environment";
    common::drive(NAME, notes, cfg, wl, w, |w, t| {
        // No kubelets to tick: the scheduler binds pods to the virtual
        // node and the virtual kubelet turns them into WLM jobs.
        w.k8s.scheduler.schedule(&w.k8s.api);
        vk.reconcile(&w.k8s.api, &mut w.slurm, t);
    })
}
