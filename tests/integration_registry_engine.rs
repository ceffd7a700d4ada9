//! Integration: engines × registry products, mirroring topologies,
//! module-system deployment and the adaptive pipeline.

use hpcc_core::pipeline::deploy_to_allocation;
use hpcc_core::requirements::{select_engine, SiteRequirements};
use hpcc_engine::engine::{Host, RunOptions};
use hpcc_engine::engines;
use hpcc_engine::shpc;
use hpcc_oci::builder::samples;
use hpcc_oci::cas::Cas;
use hpcc_registry::products;
use hpcc_registry::proxy::{mirror_sync, ProxyRegistry};
use hpcc_registry::registry::{Registry, RegistryCaps};
use hpcc_sim::{SimClock, SimTime};
use hpcc_storage::local::NodeLocalDisk;
use hpcc_storage::shared_fs::SharedFs;
use std::sync::Arc;

fn populate(reg: &Registry, repo: &str) {
    let cas = Cas::new();
    let img = samples::python_app(&cas, 60);
    reg.push_image(repo, "v1", &img.manifest, &cas).unwrap();
}

#[test]
fn every_daemonless_engine_pulls_from_every_oci_product() {
    // Engines (rootless) must interoperate with every OCI-speaking
    // registry product — the OCI standard's whole point (§3.1).
    let host = Host::compute_node();
    for product in products::all() {
        let caps = product.registry.caps();
        let speaks_oci = caps.protocols.iter().any(|p| {
            matches!(
                p,
                hpcc_registry::registry::Protocol::OciV1 | hpcc_registry::registry::Protocol::OciV2
            )
        });
        if !speaks_oci {
            continue; // Library-API-only products (shpc)
        }
        let repo = if caps.tenancy != hpcc_registry::registry::Tenancy::None {
            product.registry.create_namespace("hpc", None).unwrap();
            "hpc/pyapp"
        } else {
            "pyapp"
        };
        populate(&product.registry, repo);
        for engine in engines::all() {
            if engine.caps.requires_daemon {
                continue;
            }
            let clock = SimClock::new();
            engine
                .deploy(
                    &product.registry,
                    repo,
                    "v1",
                    1000,
                    &host,
                    RunOptions::default(),
                    &clock,
                )
                .unwrap_or_else(|e| panic!("{} from {}: {e}", engine.info.name, product.info.name));
        }
    }
}

#[test]
fn hub_to_harbor_mirror_to_engines() {
    // The recommended §5.2 deployment: mirror public content into Harbor
    // on-site, engines pull only from the mirror.
    let hub = Registry::new("hub", RegistryCaps::open());
    hub.create_namespace("library", None).unwrap();
    populate(&hub, "library/pyapp");

    let harbor = products::harbor().registry;
    harbor.create_namespace("library", None).unwrap();
    let copied = mirror_sync(&hub, &harbor, &["library/pyapp"]).unwrap();
    assert!(copied > 0);

    let engine = engines::podman_hpc();
    let host = Host::compute_node();
    let clock = SimClock::new();
    let (report, _) = engine
        .deploy(
            &harbor,
            "library/pyapp",
            "v1",
            1000,
            &host,
            RunOptions::default(),
            &clock,
        )
        .unwrap();
    assert_eq!(report.container.exit_code, Some(0));
    // The hub saw zero pulls from the engine.
    assert_eq!(
        hub.stats().manifest_pulls,
        1,
        "only the mirror sync touched the hub"
    );
}

#[test]
fn shpc_module_wraps_a_runnable_deployment() {
    // §4.1.7: generate a module for a container, then perform the exact
    // run the module's alias encodes.
    let engine = engines::apptainer();
    let module = shpc::generate_module(&engine, "hpc/pyapp", "v1", &["python3"]).unwrap();
    assert!(module
        .module_file
        .contains("apptainer run hpc/pyapp:v1 python3"));

    let reg = Registry::new("site", RegistryCaps::open());
    reg.create_namespace("hpc", None).unwrap();
    populate(&reg, "hpc/pyapp");
    let host = Host::compute_node();
    let clock = SimClock::new();
    engine
        .deploy(
            &reg,
            "hpc/pyapp",
            "v1",
            1000,
            &host,
            RunOptions::default(),
            &clock,
        )
        .unwrap();
}

#[test]
fn adaptive_pipeline_uses_the_selected_engine() {
    // Selection → deployment: pick the best engine for a strict site and
    // push a workload through the full pipeline with it.
    let ranking = select_engine(&engines::all(), &SiteRequirements::strict_hpc());
    let winner_name = ranking[0].name;
    let engine = engines::all()
        .into_iter()
        .find(|e| e.info.name == winner_name)
        .unwrap();

    let hub = Registry::new("hub", RegistryCaps::open());
    hub.create_namespace("hpc", None).unwrap();
    populate(&hub, "hpc/pyapp");
    let site = Registry::new("site", RegistryCaps::open());
    site.create_namespace("hpc", None).unwrap();
    let proxy = ProxyRegistry::new(Arc::new(site), Arc::new(hub)).unwrap();
    let shared = SharedFs::with_defaults();
    let disks: Vec<Arc<NodeLocalDisk>> = (0..16).map(|_| Arc::new(NodeLocalDisk::new())).collect();
    let clock = SimClock::new();
    let report = deploy_to_allocation(
        &engine,
        &proxy,
        "hpc/pyapp",
        "v1",
        1000,
        &Host::compute_node(),
        &shared,
        &disks,
        RunOptions::default(),
        &clock,
    )
    .unwrap();
    assert_eq!(report.nodes, 16);
    assert!(report.total > hpcc_sim::SimSpan::ZERO);
}

#[test]
fn quota_protects_shared_registries_under_engine_traffic() {
    let reg = Registry::new("quota-site", RegistryCaps::open());
    reg.create_namespace("small", Some(8 * 1024)).unwrap();
    let cas = Cas::new();
    let img = samples::python_app(&cas, 120); // well over 8 KiB of layers
    assert!(reg
        .push_image("small/pyapp", "v1", &img.manifest, &cas)
        .is_err());
}

#[test]
fn rate_limited_hub_with_proxy_keeps_allocation_start_fast() {
    let mut caps = RegistryCaps::open();
    caps.pull_rate_limit_per_hour = Some(60.0); // one pull a minute
    let hub = Registry::new("hub", caps);
    hub.create_namespace("hpc", None).unwrap();
    populate(&hub, "hpc/pyapp");

    let site = Registry::new("site", RegistryCaps::open());
    site.create_namespace("hpc", None).unwrap();
    let proxy = ProxyRegistry::new(Arc::new(site), Arc::new(hub)).unwrap();

    // Warm the proxy once.
    proxy
        .pull_manifest("hpc/pyapp", "v1", SimTime::ZERO)
        .unwrap();
    // 100 node-level pulls complete fast despite the upstream limit.
    let mut worst = SimTime::ZERO;
    for _ in 0..100 {
        let (_, done) = proxy
            .pull_manifest("hpc/pyapp", "v1", SimTime::ZERO)
            .unwrap();
        worst = worst.max(done);
    }
    assert!(
        worst.since(SimTime::ZERO).as_secs_f64() < 1.0,
        "proxied pulls stay sub-second, got {worst:?}"
    );
}
