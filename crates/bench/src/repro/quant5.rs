//! Q5 (§5.1.3): DockerHub-style rate limits and the pull-through proxy.
//!
//! Paper claim: "Any site with a small number of public IP addresses for
//! a large number of clients is quickly affected by this ... a proxy
//! server to cache the requests" works around it.

use crate::workloads::site_registry_with_samples;
use hpcc_oci::cas::Cas;
use hpcc_registry::proxy::ProxyRegistry;
use hpcc_registry::registry::{Registry, RegistryCaps};
use hpcc_sim::SimTime;
use std::io::{self, Write};
use std::sync::Arc;

fn rate_limited_hub() -> Arc<Registry> {
    let mut caps = RegistryCaps::open();
    // 100 pulls/hour per site IP: the DockerHub anonymous tier.
    caps.pull_rate_limit_per_hour = Some(100.0);
    let hub = Registry::new("dockerhub", caps);
    hub.create_namespace("library", None).unwrap();
    let cas = Cas::new();
    let img = hpcc_oci::builder::samples::python_app(&cas, 100);
    hub.push_image("library/pyapp", "v1", &img.manifest, &cas)
        .unwrap();
    Arc::new(hub)
}

pub fn run(out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "Q5 — registry pulls under an upstream rate limit: direct vs site proxy\n"
    )?;
    let clients = [1usize, 8, 32, 128, 512];
    writeln!(
        out,
        "{:>8} {:>16} {:>16} {:>14}",
        "clients", "direct (p100)", "via proxy", "upstream reqs"
    )?;
    for n in clients {
        // Direct: every client pulls from the hub.
        let hub = rate_limited_hub();
        let mut worst_direct = SimTime::ZERO;
        for _ in 0..n {
            let (_, done) = hub
                .pull_manifest("library/pyapp", "v1", SimTime::ZERO)
                .unwrap();
            worst_direct = worst_direct.max(done);
        }

        // Proxy: clients hit the site cache; only misses go upstream.
        let hub2 = rate_limited_hub();
        let local = Registry::new("site", RegistryCaps::open());
        local.create_namespace("library", None).unwrap();
        let proxy = ProxyRegistry::new(Arc::new(local), hub2).unwrap();
        let mut worst_proxy = SimTime::ZERO;
        for _ in 0..n {
            let (_, done) = proxy
                .pull_manifest("library/pyapp", "v1", SimTime::ZERO)
                .unwrap();
            worst_proxy = worst_proxy.max(done);
        }
        writeln!(
            out,
            "{:>8} {:>15.1}s {:>15.3}s {:>14}",
            n,
            worst_direct.since(SimTime::ZERO).as_secs_f64(),
            worst_proxy.since(SimTime::ZERO).as_secs_f64(),
            proxy.stats().upstream_requests
        )?;
    }

    writeln!(
        out,
        "\nproxy statistics detail (512 clients, layered image):"
    )?;
    let hub = rate_limited_hub();
    let local = Registry::new("site", RegistryCaps::open());
    local.create_namespace("library", None).unwrap();
    let proxy = ProxyRegistry::new(Arc::new(local), hub).unwrap();
    for _ in 0..512 {
        proxy
            .pull_manifest("library/pyapp", "v1", SimTime::ZERO)
            .unwrap();
    }
    let s = proxy.stats();
    writeln!(out, "  cache hits       {}", s.cache_hits)?;
    writeln!(out, "  cache misses     {}", s.cache_misses)?;
    writeln!(out, "  upstream reqs    {}", s.upstream_requests)?;
    writeln!(out, "  bytes cached     {}", s.bytes_cached)?;
    // Mirror comparison: a pre-synced mirror needs zero upstream traffic.
    let (site, _) = site_registry_with_samples(100);
    let (_, done) = site
        .pull_manifest("hpc/pyapp", "v1", SimTime::ZERO)
        .unwrap();
    writeln!(
        out,
        "  fully mirrored pull (no upstream): {:.3}s",
        done.since(SimTime::ZERO).as_secs_f64()
    )?;
    Ok(())
}
