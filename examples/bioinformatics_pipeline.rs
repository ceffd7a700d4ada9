//! A bioinformatics workflow — the §2 motivating case: "multiple tools
//! with sometimes competing build and runtime environment requirements in
//! complex data processing pipelines."
//!
//! Three pipeline stages ship as separate container images (with
//! conflicting library versions), get signed, pushed through a site proxy,
//! converted once, staged to an allocation and run in sequence — each
//! stage reading the previous stage's output from the shared filesystem.
//!
//! Run with: `cargo run -p hpcc-core --example bioinformatics_pipeline`

use hpcc_core::pipeline::deploy_to_allocation;
use hpcc_crypto::wots::Keypair;
use hpcc_engine::engine::{Host, RunOptions};
use hpcc_engine::engines;
use hpcc_oci::builder::ImageBuilder;
use hpcc_oci::cas::Cas;
use hpcc_registry::proxy::ProxyRegistry;
use hpcc_registry::registry::{Registry, RegistryCaps};
use hpcc_sim::{SimClock, SimTime};
use hpcc_storage::local::NodeLocalDisk;
use hpcc_storage::shared_fs::SharedFs;
use hpcc_vfs::path::VPath;
use std::sync::Arc;

fn tool_image(cas: &Cas, name: &str, libversion: u8) -> hpcc_oci::builder::BuiltImage {
    let name = name.to_string();
    let entry = format!("/usr/bin/{name}");
    ImageBuilder::from_scratch()
        .run("install", move |fs| {
            // Each tool bundles its own (conflicting) library version —
            // the reason these can't share one environment.
            fs.write_p(&VPath::parse("/usr/lib/libhts.so"), vec![libversion; 4096])
                .map_err(|e| e.to_string())?;
            fs.write_p(
                &VPath::parse(&format!("/usr/bin/{name}")),
                vec![0xB1; 16384],
            )
            .map_err(|e| e.to_string())
        })
        .entrypoint(&[entry.as_str()])
        .label("pipeline.stage", "tool")
        .build(cas)
        .expect("tool image builds")
}

fn main() {
    // Public hub with the three pipeline tools, each with a different
    // libhts version.
    let hub = {
        let mut caps = RegistryCaps::open();
        caps.pull_rate_limit_per_hour = Some(100.0); // rate-limited, like DockerHub
        let hub = Registry::new("hub", caps);
        hub.create_namespace("bio", None).unwrap();
        let cas = Cas::new();
        let mut signer = Keypair::generate(b"bio-lab-signing-key", 4);
        for (tool, lib) in [("aligner", 10u8), ("dedup", 11), ("caller", 12)] {
            let img = tool_image(&cas, tool, lib);
            let desc = hub
                .push_image(&format!("bio/{tool}"), "v1", &img.manifest, &cas)
                .unwrap();
            // Cosign-style detached signature attached in the registry.
            let sig = signer.sign(&desc.digest).unwrap();
            hub.attach_signature(desc.digest, sig.to_bytes()).unwrap();
        }
        Arc::new(hub)
    };

    // Site infrastructure: proxy registry, shared FS, an 8-node
    // allocation, Podman-HPC as the engine.
    let site = Registry::new("site", RegistryCaps::open());
    site.create_namespace("bio", None).unwrap();
    let proxy = ProxyRegistry::new(Arc::new(site), hub).unwrap();
    let shared = SharedFs::with_defaults();
    let disks: Vec<Arc<NodeLocalDisk>> = (0..8).map(|_| Arc::new(NodeLocalDisk::new())).collect();
    let engine = engines::podman_hpc();
    let host = Host::compute_node();
    let clock = SimClock::new();

    println!("bioinformatics pipeline: aligner → dedup → caller on 8 nodes\n");
    let mut sample_bytes = 64 << 20; // the dataset as it flows through
    for tool in ["aligner", "dedup", "caller"] {
        // Verify the registry-attached signature before running.
        let (manifest, _) = proxy
            .pull_manifest(&format!("bio/{tool}"), "v1", clock.now())
            .unwrap();
        let sigs = proxy.upstream.signatures_of(&manifest.digest()).unwrap();
        println!(
            "stage {tool}: {} signature(s) attached upstream",
            sigs.len()
        );

        let report = deploy_to_allocation(
            &engine,
            &proxy,
            &format!("bio/{tool}"),
            "v1",
            1000,
            &host,
            &shared,
            &disks,
            RunOptions::default(),
            &clock,
        )
        .unwrap();
        println!(
            "  pull {} | convert {} (cache {}) | stage {} | launch {} | total {}",
            report.pull,
            report.convert,
            if report.cache_hit { "hit" } else { "miss" },
            report.stage,
            report.launch,
            report.total
        );

        // Stage output lands on the shared filesystem for the next stage.
        sample_bytes = sample_bytes * 2 / 3;
        let done = shared
            .write_file(
                &VPath::parse(&format!("/project/sample1/{tool}.out")),
                vec![0xD4; 1024], // metadata record; size accounted below
                clock.now(),
            )
            .unwrap();
        let xfer = shared.read_bulk(hpcc_sim::Bytes::new(sample_bytes), done);
        clock.advance_to(xfer);
        println!(
            "  stage output ({} MiB) on shared FS at {}\n",
            sample_bytes >> 20,
            clock.now()
        );
    }

    println!(
        "pipeline complete at {} (logical)",
        clock.now().since(SimTime::ZERO)
    );
    println!(
        "proxy shielded the rate-limited hub: {} upstream requests total",
        proxy.stats().upstream_requests
    );
}
