//! `hpcc` — command-line front end to the adaptive-containerization
//! testbed.
//!
//! ```text
//! hpcc select [strict|classic|cloud]      rank engines+registries for a site
//! hpcc deploy <engine> <repo:tag> [nodes] deploy a sample image to an allocation
//! hpcc scenarios [nodes] [jobs] [pods]    run the §6 integration comparison
//! hpcc workflow                           run the demo DAG on both backends
//! ```
//!
//! Argument parsing is deliberately dependency-free.

use hpcc_core::pipeline::deploy_to_allocation;
use hpcc_core::requirements::{
    select_engine, select_registry, RegistryRequirements, SiteRequirements,
};
use hpcc_core::scenarios::{self, common::ClusterConfig, common::MixedWorkload};
use hpcc_core::workflow::{run_on_wlm, Step, Workflow};
use hpcc_engine::engine::{Host, RunOptions};
use hpcc_engine::engines;
use hpcc_oci::builder::samples;
use hpcc_oci::cas::Cas;
use hpcc_registry::products;
use hpcc_registry::proxy::ProxyRegistry;
use hpcc_registry::registry::{Registry, RegistryCaps};
use hpcc_sim::{SimClock, SimSpan};
use hpcc_storage::local::NodeLocalDisk;
use hpcc_storage::shared_fs::SharedFs;
use hpcc_wlm::slurm::Slurm;
use hpcc_wlm::types::NodeSpec;
use std::sync::Arc;

fn sample_registry() -> Arc<Registry> {
    let reg = Registry::new("site", RegistryCaps::open());
    reg.create_namespace("hpc", None).unwrap();
    let cas = Cas::new();
    for (repo, img) in [
        ("hpc/base", samples::base_os(&cas)),
        ("hpc/pyapp", samples::python_app(&cas, 200)),
        ("hpc/solver", samples::mpi_solver(&cas)),
    ] {
        reg.push_image(repo, "v1", &img.manifest, &cas).unwrap();
    }
    Arc::new(reg)
}

fn cmd_select(site: &str) -> Result<(), String> {
    let req = match site {
        "strict" => SiteRequirements::strict_hpc(),
        "classic" => SiteRequirements::classic_hpc(),
        "cloud" => SiteRequirements::cloud_converged(),
        other => {
            return Err(format!(
                "unknown site profile {other:?} (strict|classic|cloud)"
            ))
        }
    };
    println!("engine ranking for the '{site}' profile:");
    for (i, s) in select_engine(&engines::all(), &req).iter().enumerate() {
        if s.qualified() {
            println!("  {:>2}. {:<14} score {}", i + 1, s.name, s.score);
        } else {
            println!("   -. {:<14} out: {}", s.name, s.violations.join("; "));
        }
    }
    println!("\nregistry ranking (HPC-centric criteria):");
    for s in select_registry(&products::all(), &RegistryRequirements::hpc_centric()) {
        if s.qualified() {
            println!("  {:<12} qualified, score {}", s.name, s.score);
        } else {
            println!("  {:<12} out: {}", s.name, s.violations.join("; "));
        }
    }
    Ok(())
}

fn cmd_deploy(engine_name: &str, image: &str, nodes: usize, gpu: bool) -> Result<(), String> {
    let engine = engines::all()
        .into_iter()
        .find(|e| e.info.name.eq_ignore_ascii_case(engine_name))
        .ok_or_else(|| {
            format!(
                "unknown engine {engine_name:?}; known: {}",
                engines::all()
                    .iter()
                    .map(|e| e.info.name)
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })?;
    let (repo, tag) = image
        .rsplit_once(':')
        .ok_or_else(|| format!("image must be repo:tag, got {image:?}"))?;

    let hub = sample_registry();
    let local = Registry::new("cache", RegistryCaps::open());
    local.create_namespace("hpc", None).unwrap();
    let proxy = ProxyRegistry::new(Arc::new(local), hub).map_err(|e| e.to_string())?;
    let shared = SharedFs::with_defaults();
    let disks: Vec<Arc<NodeLocalDisk>> =
        (0..nodes).map(|_| Arc::new(NodeLocalDisk::new())).collect();
    let host = if engine.caps.requires_daemon {
        Host::compute_node().with_daemon("dockerd")
    } else {
        Host::compute_node()
    };
    let clock = SimClock::new();
    let report = deploy_to_allocation(
        &engine,
        &proxy,
        repo,
        tag,
        1000,
        &host,
        &shared,
        &disks,
        RunOptions {
            gpu,
            ..RunOptions::default()
        },
        &clock,
    )
    .map_err(|e| e.to_string())?;
    println!(
        "deployed {image} with {} to {nodes} node(s):",
        engine.info.name
    );
    println!("  pull     {}", report.pull);
    println!(
        "  convert  {} ({})",
        report.convert,
        if report.cache_hit {
            "cache hit"
        } else {
            "cache miss"
        }
    );
    println!("  stage    {}", report.stage);
    println!("  launch   {}", report.launch);
    println!("  total    {}", report.total);
    Ok(())
}

fn cmd_scenarios(nodes: u32, jobs: usize, pods: usize, seed: u64) -> Result<(), String> {
    if nodes < 2 {
        return Err(format!(
            "scenarios need at least 2 nodes (the static-partition split), got {nodes}"
        ));
    }
    let cfg = ClusterConfig { nodes };
    let wl = MixedWorkload::generate(seed, jobs, pods, &cfg);
    println!(
        "running 6 integration scenarios on {} nodes ({} jobs, {} pods, seed {seed})...\n",
        nodes, jobs, pods
    );
    let outcomes = scenarios::run_all(&cfg, &wl);
    print!("{}", scenarios::render_outcomes(&outcomes));
    Ok(())
}

fn cmd_workflow() -> Result<(), String> {
    let wf = Workflow::new()
        .step(Step::new("fetch", "hpc/pyapp:v1", SimSpan::secs(45)))
        .step(Step::new("process", "hpc/solver:v1", SimSpan::secs(300)).after("fetch"))
        .step(Step::new("qc", "hpc/pyapp:v1", SimSpan::secs(90)).after("fetch"))
        .step(
            Step::new("report", "hpc/pyapp:v1", SimSpan::secs(20))
                .after("process")
                .after("qc"),
        );
    println!(
        "critical path: {}",
        wf.critical_path().map_err(|e| e.to_string())?
    );
    let mut slurm = Slurm::new();
    slurm.add_partition("batch", NodeSpec::cpu_node(), 2);
    let run = run_on_wlm(&wf, &mut slurm).map_err(|e| e.to_string())?;
    for r in &run.records {
        println!(
            "  {:<8} {} → {}",
            r.step,
            r.started.since(hpcc_sim::SimTime::ZERO),
            r.ended.since(hpcc_sim::SimTime::ZERO)
        );
    }
    println!("makespan: {}", run.makespan);
    Ok(())
}

fn usage() -> String {
    "usage:\n  \
     hpcc select [strict|classic|cloud]\n  \
     hpcc deploy <engine> <repo:tag> [nodes] [--gpu]\n  \
     hpcc scenarios [nodes] [jobs] [pods] [seed]\n  \
     hpcc workflow\n\n\
     sample images available: hpc/base:v1 hpc/pyapp:v1 hpc/solver:v1"
        .to_string()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("select") => cmd_select(args.get(1).map(String::as_str).unwrap_or("strict")),
        Some("deploy") => {
            let engine = args.get(1).cloned().unwrap_or_default();
            let image = args.get(2).cloned().unwrap_or_default();
            if engine.is_empty() || image.is_empty() {
                Err(usage())
            } else {
                let nodes = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(4usize);
                let gpu = args.iter().any(|a| a == "--gpu");
                cmd_deploy(&engine, &image, nodes, gpu)
            }
        }
        Some("scenarios") => {
            let nodes = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(16);
            let jobs = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(6);
            let pods = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(12);
            let seed = args.get(4).and_then(|s| s.parse().ok()).unwrap_or(2023);
            cmd_scenarios(nodes, jobs, pods, seed)
        }
        Some("workflow") => cmd_workflow(),
        _ => Err(usage()),
    };
    if let Err(msg) = result {
        eprintln!("{msg}");
        std::process::exit(2);
    }
}
