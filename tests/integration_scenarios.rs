//! Integration: WLM + Kubernetes scenario properties at a larger scale
//! than the unit tests, plus the SPANK-driven container job path.

use hpcc_core::scenarios::{self, common::ClusterConfig, common::MixedWorkload};
use hpcc_engine::engine::{Host, RunOptions};
use hpcc_engine::engines;
use hpcc_oci::builder::samples;
use hpcc_oci::cas::Cas;
use hpcc_registry::registry::{Registry, RegistryCaps};
use hpcc_sim::{SimClock, SimSpan, SimTime, Tracer};
use hpcc_wlm::slurm::Slurm;
use hpcc_wlm::spank::ContainerSpank;
use hpcc_wlm::types::{JobRequest, NodeSpec};

#[test]
fn scenario_ranking_matches_section_6_6() {
    let cfg = ClusterConfig { nodes: 32 };
    let wl = MixedWorkload::generate(99, 8, 32, &cfg);
    let outcomes = scenarios::run_all(&cfg, &wl);
    let get = |name: &str| outcomes.iter().find(|o| o.name == name).expect(name);

    // The two §6.6 "winners" account fully.
    assert!(get("bridge-virtual-kubelet").accounting_coverage > 0.999);
    assert!(get("kubelet-in-allocation").accounting_coverage > 0.999);
    // Static partition wastes capacity relative to the shared-pool
    // scenarios under the same workload.
    let static_util = get("static-partition").utilization;
    let bridge_util = get("bridge-virtual-kubelet").utilization;
    assert!(
        bridge_util >= static_util,
        "shared pool ({bridge_util:.3}) should beat static split ({static_util:.3})"
    );
    // The whole-cluster-in-a-job scenario pays the largest pod startup.
    let boot_heavy = get("k8s-in-wlm").first_pod_start.unwrap();
    let standing = get("static-partition").first_pod_start.unwrap();
    assert!(boot_heavy > standing);
    // Everything completes everywhere.
    for o in &outcomes {
        assert_eq!(o.pods_succeeded, wl.pods.len(), "{}", o.name);
        assert_eq!(o.jobs_completed, wl.jobs.len(), "{}", o.name);
    }
}

#[test]
fn pod_heavy_mix_widens_the_accounting_gap() {
    let cfg = ClusterConfig { nodes: 16 };
    let pod_heavy = MixedWorkload::generate(5, 2, 48, &cfg);
    let job_heavy = MixedWorkload::generate(5, 10, 4, &cfg);
    let a = scenarios::static_partition::run(&cfg, &pod_heavy, &Tracer::disabled());
    let b = scenarios::static_partition::run(&cfg, &job_heavy, &Tracer::disabled());
    assert!(
        a.accounting_coverage < b.accounting_coverage,
        "more pods → more unaccounted usage ({} vs {})",
        a.accounting_coverage,
        b.accounting_coverage
    );
}

#[test]
fn spank_container_job_launches_a_real_engine() {
    // The Table 3 WLM-integration path end to end: a container job goes
    // through Slurm; the SPANK plugin stages the image reference and the
    // GPU grant; the engine (ENROOT: SPANK-integrated) consumes them.
    let registry = {
        let reg = Registry::new("site", RegistryCaps::open());
        reg.create_namespace("hpc", None).unwrap();
        let cas = Cas::new();
        let img = samples::mpi_solver(&cas);
        reg.push_image("hpc/solver", "v1", &img.manifest, &cas)
            .unwrap();
        reg
    };

    let mut slurm = Slurm::new();
    slurm.add_partition("gpu", NodeSpec::gpu_node(), 4);
    slurm.register_plugin(Box::new(ContainerSpank::default()));

    let mut req = JobRequest::batch("solve@hpc/solver:v1", 3000, 2, SimSpan::secs(300));
    req.partition = "gpu".into();
    req.gpus_per_node = 2;
    let job = slurm.submit(req, SimTime::ZERO).unwrap();
    slurm.schedule(SimTime::ZERO);

    // The prolog staged everything the engine needs.
    let ctx = slurm.context(job).unwrap().clone();
    let image = ctx.get("container.image").unwrap();
    let (repo, tag) = image.rsplit_once(':').unwrap();
    let devices = ctx.get("wlm.granted_devices").cloned();
    assert_eq!(devices.as_deref(), Some("0,1"));

    // Launch per node with the granted devices.
    let engine = engines::enroot();
    let host = Host::compute_node();
    let clock = SimClock::new();
    let (report, _) = engine
        .deploy(
            &registry,
            repo,
            tag,
            3000,
            &host,
            RunOptions {
                gpu: true,
                wlm_granted_devices: devices,
                ..RunOptions::default()
            },
            &clock,
        )
        .unwrap();
    assert_eq!(
        report.state.get("gpu.enabled").map(String::as_str),
        Some("true")
    );
    // The WLM grant made it into the container environment.
    assert!(report
        .container
        .spec
        .process
        .env
        .iter()
        .any(|e| e == "CUDA_VISIBLE_DEVICES=0,1"));

    // Job completes, accounting covers it, epilog cleans up.
    slurm.advance_to(SimTime::ZERO + SimSpan::secs(300));
    assert!(slurm.ledger().user_core_seconds(3000) > 0.0);
    assert_eq!(
        slurm
            .context(job)
            .unwrap()
            .get("container.cleaned")
            .map(String::as_str),
        Some("true")
    );
}

#[test]
fn backfill_keeps_pods_flowing_around_big_jobs() {
    // Bridged pods are small, non-exclusive jobs: they must backfill
    // around large exclusive HPC jobs rather than queue behind them.
    let cfg = ClusterConfig { nodes: 8 };
    let mut wl = MixedWorkload::generate(3, 2, 10, &cfg);
    // Make the HPC jobs chunky so the queue head blocks.
    for j in &mut wl.jobs {
        j.nodes = 6;
        j.actual_runtime = SimSpan::secs(1200);
        j.walltime_limit = SimSpan::secs(2400);
    }
    let outcome = scenarios::bridge_vk::run(&cfg, &wl, &Tracer::disabled());
    assert_eq!(outcome.pods_succeeded, wl.pods.len());
    // Pods started long before the second big job finished.
    let first = outcome.first_pod_start.unwrap();
    assert!(
        first < SimSpan::secs(1200),
        "pods should backfill, first start {first}"
    );
}

#[test]
fn reallocation_disturbs_hpc_jobs() {
    // §6.6: dynamic partitioning "introduces disturbances" — taking nodes
    // for pods delays HPC work relative to the bridge scenario.
    let cfg = ClusterConfig { nodes: 8 };
    let wl = MixedWorkload::generate(17, 6, 30, &cfg);
    let realloc = scenarios::reallocation::run(&cfg, &wl, &Tracer::disabled());
    let bridge = scenarios::bridge_vk::run(&cfg, &wl, &Tracer::disabled());
    assert!(
        realloc.makespan >= bridge.makespan,
        "reallocation ({}) should not beat the integrated scheduler ({})",
        realloc.makespan,
        bridge.makespan
    );
    assert!(realloc.accounting_coverage < 1.0);
}
