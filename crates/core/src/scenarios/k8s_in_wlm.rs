//! §6.3 — Kubernetes inside a WLM allocation.
//!
//! The user's pod batch becomes one WLM job; when it starts, a K3s
//! control plane boots on the first allocated node and rootless kubelets
//! join from the rest. "While this approach permits perfect isolation
//! between Kubernetes clusters started by different users, it can
//! introduce considerable startup overhead. Until the Kubernetes cluster
//! is ready, scheduling Pods or running workflows is not possible."
//! Everything runs inside the allocation, so the WLM accounts 100%.

use super::common::{self, running, ClusterConfig, MixedWorkload, ScenarioOutcome};
use hpcc_k8s::k3s::{control_plane_boot_span, ControlPlaneFlavor};
use hpcc_k8s::kubelet::{kubelet_startup_span, KubeletMode};
use hpcc_sim::Tracer;
use std::sync::Arc;

/// Rootless kubelets: the §6.5 requirements apply inside the allocation too.
const MODE: KubeletMode = KubeletMode::Rootless { uid: 2000 };

/// Run the Kubernetes-in-WLM scenario under `tracer`'s root `scenario` span.
pub fn run(cfg: &ClusterConfig, wl: &MixedWorkload, tracer: &Arc<Tracer>) -> ScenarioOutcome {
    const NAME: &str = "k8s-in-wlm";
    // HPC jobs go to the WLM directly; the pod batch becomes one allocation.
    let mut w = common::world(NAME, cfg, cfg.nodes, wl, |_| {}, tracer);
    let allocation = common::submit_allocation(&mut w.slurm, "k8s-cluster@inside", cfg, wl);
    let mut cluster_ready_at = None;
    let mut kubelets = Vec::new();
    let notes =
        "full WLM accounting, but cluster boot delays every pod; allocation billed while idle";
    common::drive(NAME, notes, cfg, wl, w, |w, t| {
        // When the allocation starts, the server boots on node 0 and the
        // kubelets join in parallel.
        if cluster_ready_at.is_none() && running(&w.slurm, allocation).is_some() {
            let boot =
                control_plane_boot_span(ControlPlaneFlavor::K3s) + kubelet_startup_span(MODE);
            cluster_ready_at = Some(t + boot);
        }
        if kubelets.is_empty() && cluster_ready_at.is_some_and(|ready| t >= ready) {
            w.clock.advance_to(t);
            let nodes = allocation.map_or(0, |id| w.slurm.allocated_nodes(id).len());
            kubelets = w.boot_fleet((0..nodes).map(|i| format!("alloc-{i}")), MODE);
            // Only now can pods be submitted/scheduled.
            common::create_pods(w, wl);
        }
        w.k8s.tick(&mut kubelets, &w.clock, t, |_| {});
        // Tear down the allocation once pods drain.
        if w.pods_done(wl.pods.len()) {
            if let Some(id) = running(&w.slurm, allocation) {
                w.slurm.cancel(id, t).unwrap();
            }
        }
    })
}
