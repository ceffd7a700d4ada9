//! §6.5 / Figure 1 — Kubernetes agents inside a WLM allocation.
//!
//! The paper's proposed integration: a continuously running control plane
//! (on service nodes), and a WLM job whose allocation boots *rootless*
//! kubelets — one per node, joining the standing cluster over the
//! high-speed network — so pods run transparently on compute nodes with
//! full Slurm accounting and a mainline Kubernetes environment.
//!
//! Requirements exercised (per §6.5): rootless kubelets demand cgroup v2
//! with delegation; the kubelet↔apiserver join rides the HSN fabric; the
//! allocation is cancelled when the pod queue drains.

use super::common::{self, running, ClusterConfig, MixedWorkload, ScenarioOutcome};
use hpcc_k8s::kubelet::{Kubelet, KubeletMode};
use hpcc_sim::net::{Fabric, LinkClass, NodeId as NetNode};
use hpcc_sim::{Bytes, SimSpan, Tracer};
use hpcc_wlm::types::NodeId;
use std::sync::Arc;

const MODE: KubeletMode = KubeletMode::Rootless { uid: 2000 };

/// Run the kubelet-in-allocation scenario under `tracer`'s root `scenario`
/// span. Returns the outcome plus the per-kubelet join latencies over the
/// HSN (the Figure 1 detail).
pub fn run_detailed(
    cfg: &ClusterConfig,
    wl: &MixedWorkload,
    tracer: &Arc<Tracer>,
) -> (ScenarioOutcome, Vec<SimSpan>) {
    const NAME: &str = "kubelet-in-allocation";
    let mut w = common::world(NAME, cfg, cfg.nodes, wl, |_| {}, tracer);
    common::create_pods(&w, wl);
    let allocation = common::submit_allocation(&mut w.slurm, "k8s-agents", cfg, wl);
    // The standing control plane sits on a service node (net node 0);
    // compute nodes are net nodes 1..=N.
    let fabric = Fabric::with_defaults((0..=cfg.nodes).map(NetNode));
    let mut kubelets: Vec<Kubelet> = Vec::new();
    let mut join_spans = Vec::new();
    let notes = "standing control plane + rootless agents in allocation: full accounting, mainline k8s env, no cluster boot";
    let outcome = common::drive(NAME, notes, cfg, wl, w, |w, t| {
        // Allocation granted → boot rootless kubelets on its nodes, each
        // joining the standing control plane over the high-speed network.
        if kubelets.is_empty() {
            if let Some(id) = running(&w.slurm, allocation) {
                let nodes = w.slurm.allocated_nodes(id);
                // Join handshake over the HSN: ~1 MiB of TLS + node-sync
                // traffic to the apiserver.
                let join = |node: &NodeId| {
                    let (from, to) = (NetNode(node.0 + 1), NetNode(0));
                    let sent = fabric.send(from, to, LinkClass::HighSpeed, Bytes::mib(1), t);
                    sent.expect("HSN reachable").since(t)
                };
                join_spans = nodes.iter().map(join).collect();
                let names = nodes.iter().map(|node| format!("agent-{}", node.0));
                kubelets = w.boot_fleet(names, MODE);
            }
        }
        w.k8s.tick(&mut kubelets, &w.clock, t, |_| {});
        // Pod queue drained → agents leave the cluster, then the job ends.
        if w.pods_done(wl.pods.len()) {
            if let Some(id) = running(&w.slurm, allocation) {
                for kubelet in &mut kubelets {
                    kubelet.shutdown(&w.k8s.api);
                }
                w.slurm.cancel(id, t).unwrap();
            }
        }
    });
    (outcome, join_spans)
}
