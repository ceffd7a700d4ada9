//! The Figure 1 proof of concept as a narrated walkthrough: a standing
//! Kubernetes control plane, a Slurm allocation booting rootless kubelets
//! over the high-speed network, and pods running with full WLM
//! accounting (§6.5). It stands on the same `cosim::World` and steps the same
//! `ControlPlane::tick` as the `kubelet-in-allocation` scenario,
//! one call at a time so each step can be narrated.
//!
//! Run with: `cargo run -p hpcc-core --example k8s_in_slurm`

use hpcc_adapt::cosim::{node_cgroups, World};
use hpcc_core::scenarios::common::{ClusterConfig, MeasuredCri};
use hpcc_k8s::kubelet::KubeletMode;
use hpcc_k8s::objects::PodSpec;
use hpcc_sim::net::{Fabric, LinkClass, NodeId as NetNode};
use hpcc_sim::{Bytes, SimClock, SimSpan, SimTime, Tracer};
use hpcc_wlm::types::JobRequest;
use std::sync::Arc;

fn main() {
    let cfg = ClusterConfig { nodes: 8 };
    println!("§6.5 walkthrough: Kubelets inside a Slurm allocation\n");

    // The cluster under its WLM, beside a standing control plane on the
    // service node.
    let cri = Arc::new(MeasuredCri);
    let mut w = World::new(
        "k8s-in-slurm",
        &Tracer::disabled(),
        cri,
        cfg.spec(),
        cfg.nodes,
    );
    println!("[t=0] standing control plane up on service node (no boot cost at job time)");
    let fabric = Fabric::with_defaults((0..=cfg.nodes).map(NetNode));

    // A user submits the agent job: 4 nodes for their k8s workload.
    let mut agent_job = JobRequest::batch("k8s-agents", 2000, 4, SimSpan::secs(3600));
    agent_job.walltime_limit = SimSpan::secs(7200);
    let job = w.slurm.submit(agent_job, SimTime::ZERO).unwrap();
    w.slurm.schedule(SimTime::ZERO);
    let alloc = w.slurm.allocated_nodes(job);
    println!(
        "[t=0] Slurm granted allocation {:?} to job {}",
        alloc.iter().map(|n| n.0).collect::<Vec<_>>(),
        job.0
    );

    // Rootless kubelets boot on each allocated node, joining over the HSN.
    let mode = KubeletMode::Rootless { uid: 2000 };
    let mut kubelets = Vec::new();
    for node in &alloc {
        let join = fabric
            .send(
                NetNode(node.0 + 1),
                NetNode(0),
                LinkClass::HighSpeed,
                Bytes::mib(1),
                SimTime::ZERO,
            )
            .unwrap();
        let boot_clock = SimClock::new();
        let kubelet = w
            .boot_kubelet(
                &format!("nid{:05}", node.0),
                mode,
                &mut node_cgroups(mode),
                &boot_clock,
            )
            .unwrap();
        println!(
            "[t~0] rootless kubelet on nid{:05}: cgroup-v2 delegation ok, HSN join {} , boot {}",
            node.0,
            join.since(SimTime::ZERO),
            boot_clock.now().since(SimTime::ZERO)
        );
        kubelets.push(kubelet);
    }

    // A workflow submits pods to the standing cluster — no changes needed.
    for i in 0..6 {
        let mut pod = PodSpec::simple(&format!("wf-step-{i}"), "hpc/pyapp:v1", SimSpan::secs(90));
        pod.resources.cpu_millis = 8000;
        pod.user = 2000;
        w.k8s.api.create_pod(pod).unwrap();
    }
    println!("\n[t=0] workflow submitted 6 pods to the standing cluster");

    // Drive until the pods finish.
    let mut t = SimTime::ZERO;
    loop {
        w.k8s.tick(&mut kubelets, &w.clock, t, |pod| {
            println!(
                "[t={}] pod {} finished on {} ({} → {})",
                t.since(SimTime::ZERO),
                pod.name,
                pod.node,
                pod.started.since(SimTime::ZERO),
                pod.ended.since(SimTime::ZERO),
            );
        });
        if w.pods_done(6) {
            break;
        }
        t += SimSpan::secs(1);
    }

    // Tear down: kubelets leave, allocation ends, Slurm accounts it all.
    for kubelet in &mut kubelets {
        kubelet.shutdown(&w.k8s.api);
    }
    w.slurm.cancel(job, t).unwrap();
    println!(
        "\n[t={}] allocation released; Slurm accounted {:.0} core-seconds to user 2000",
        t.since(SimTime::ZERO),
        w.slurm.ledger().user_core_seconds(2000)
    );
    println!(
        "accounting coverage: {:.0}% (everything ran inside the allocation)",
        w.slurm.ledger().accounting_coverage() * 100.0
    );
}
