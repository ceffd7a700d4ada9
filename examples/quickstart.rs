//! Quickstart: build an image, push it to a registry, pull and run it
//! through an HPC container engine — the whole stack in ~80 lines.
//!
//! Run with: `cargo run -p hpcc-core --example quickstart`

use hpcc_engine::engine::{DeployRequest, Host, RunOptions};
use hpcc_engine::engines;
use hpcc_oci::builder::ImageBuilder;
use hpcc_oci::cas::Cas;
use hpcc_registry::registry::{Registry, RegistryCaps};
use hpcc_runtime::container::ProcessWork;
use hpcc_sim::{SimClock, SimSpan};
use hpcc_vfs::path::VPath;

fn main() {
    // 1. Build an image the Dockerfile way: base + app layer + config.
    let cas = Cas::new();
    let image = ImageBuilder::from_scratch()
        .run("install-base", |fs| {
            fs.write_p(&VPath::parse("/usr/lib/libc.so.6"), vec![0xC1; 4096])
                .map_err(|e| e.to_string())
        })
        .run("install-app", |fs| {
            fs.write_p(&VPath::parse("/opt/app/run"), vec![0xAB; 8192])
                .map_err(|e| e.to_string())
        })
        .entrypoint(&["/opt/app/run"])
        .env("OMP_NUM_THREADS", "8")
        .build(&cas)
        .expect("image builds");
    println!("built image {}", image.manifest.digest());
    println!("  layers: {}", image.manifest.layers.len());

    // 2. Push it to a site registry.
    let registry = Registry::new("site", RegistryCaps::open());
    registry.create_namespace("demo", None).unwrap();
    registry
        .push_image("demo/app", "v1", &image.manifest, &cas)
        .unwrap();
    println!("pushed to site registry as demo/app:v1");

    // 3. Pull + convert + run it with Sarus (setuid squash engine) as an
    // unprivileged user on a compute node.
    let engine = engines::sarus();
    let host = Host::compute_node();
    let clock = SimClock::new();
    let (report, span, _) = engine
        .deploy(
            &DeployRequest {
                opts: RunOptions {
                    work: ProcessWork {
                        compute: SimSpan::secs(30),
                        writes: vec![("results/out.dat".into(), vec![42; 100])],
                    },
                    ..RunOptions::default()
                },
                ..DeployRequest::new(
                    &registry, "demo/app", "v1", 1000, // our uid
                    &host,
                )
            },
            &clock,
        )
        .expect("deploy succeeds");

    println!("\nran through {} in {span}", engine.info.name);
    println!("  exit code: {:?}", report.container.exit_code);
    let stat = report
        .container
        .rootfs
        .stat(&VPath::parse("/results/out.dat"))
        .unwrap();
    println!(
        "  /results/out.dat written with uid {} (container root mapped back to us)",
        stat.meta.uid
    );

    // 4. Second run hits the conversion cache.
    let clock2 = SimClock::new();
    let (_, warm, _) = engine
        .deploy(
            &DeployRequest::new(&registry, "demo/app", "v1", 1000, &host),
            &clock2,
        )
        .unwrap();
    println!("  warm re-run: {warm} (cold was {span})");
}
