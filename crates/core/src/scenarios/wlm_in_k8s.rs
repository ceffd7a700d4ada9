//! §6.2 — Running the WLM inside Kubernetes.
//!
//! The whole cluster is Kubernetes; Slurm's daemons run as privileged
//! pods pinned to a subset of nodes and schedule classic HPC jobs there.
//! "This approach does not enable running containerized workloads within
//! the WLM" — user pods run beside it on the remaining nodes, their usage
//! never reaching the WLM's books — and "any possible performance
//! penalties incurred by the additional layer introduced must be
//! verified": HPC job runtimes stretch by the virtualization-layer factor.

use super::common::{self, ClusterConfig, MixedWorkload, ScenarioOutcome};
use hpcc_adapt::cosim::external_pod_usage;
use hpcc_k8s::kubelet::KubeletMode;
use hpcc_sim::Tracer;
use hpcc_wlm::types::JobRequest;
use std::sync::Arc;

/// Runtime stretch from running slurmd inside pods on a shared substrate.
const WLM_IN_K8S_PENALTY: f64 = 1.05;

/// Run the WLM-in-Kubernetes scenario under `tracer`'s root `scenario` span.
pub fn run(cfg: &ClusterConfig, wl: &MixedWorkload, tracer: &Arc<Tracer>) -> ScenarioOutcome {
    const NAME: &str = "wlm-in-k8s";
    // 3/4 of nodes carry pinned slurmd pods, the rest serve user pods.
    let wlm_nodes = (cfg.nodes * 3 / 4).max(1);
    let layer_penalty = |job: &mut JobRequest| {
        job.actual_runtime = job.actual_runtime.scale(WLM_IN_K8S_PENALTY);
        job.walltime_limit = job.walltime_limit.scale(WLM_IN_K8S_PENALTY);
    };
    let w = common::world(NAME, cfg, wlm_nodes, wl, layer_penalty, tracer);
    let names = (0..cfg.nodes - wlm_nodes).map(|i| format!("user-{i}"));
    let mut kubelets = w.boot_fleet(names, KubeletMode::Rootful);
    common::create_pods(&w, wl);
    let notes = "HPC jobs pay a layer penalty; pod usage not in WLM accounting";
    common::drive(NAME, notes, cfg, wl, w, |w, t| {
        // Pod usage is visible to the ledger, but not WLM-accounted.
        w.k8s.tick(&mut kubelets, &w.clock, t, |pod| {
            w.slurm
                .record_external_usage(external_pod_usage(2000, &pod))
        });
    })
}
