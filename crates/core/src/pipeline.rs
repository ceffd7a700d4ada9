//! The adaptive containerization deployment pipeline.
//!
//! "Adaptive containerization focuses on accelerating the deployment of
//! applications and workflows using containers" (§1). The pipeline wires
//! the whole stack: site proxy registry (shielding the public hub) →
//! engine pull → native-format conversion with caching → staging the
//! converted image to the allocation's node-local disks over the shared
//! filesystem → parallel launch on every node.

use hpcc_engine::engine::{Engine, EngineError, Host, RunOptions};
use hpcc_registry::proxy::{ProxyError, ProxyRegistry};
use hpcc_sim::{SimClock, SimSpan, SimTime};
use hpcc_storage::local::{stage_image_to_nodes, NodeLocalDisk};
use hpcc_storage::shared_fs::SharedFs;
use hpcc_vfs::path::VPath;
use hpcc_vfs::squash::SquashImage;
use std::sync::Arc;

/// Timing breakdown of one deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeploymentReport {
    /// Pulling manifest + blobs through the proxy.
    pub pull: SimSpan,
    /// Conversion to the engine's native format (0 on cache hit).
    pub convert: SimSpan,
    /// Staging the converted image to all nodes.
    pub stage: SimSpan,
    /// Container startup on the slowest node.
    pub launch: SimSpan,
    /// End-to-end.
    pub total: SimSpan,
    /// Whether conversion came from cache.
    pub cache_hit: bool,
    /// Nodes deployed to.
    pub nodes: usize,
}

/// Errors across the pipeline.
#[derive(Debug)]
pub enum PipelineError {
    Proxy(ProxyError),
    Engine(EngineError),
    Squash(hpcc_vfs::squash::SquashError),
}

impl From<ProxyError> for PipelineError {
    fn from(e: ProxyError) -> Self {
        PipelineError::Proxy(e)
    }
}
impl From<EngineError> for PipelineError {
    fn from(e: EngineError) -> Self {
        PipelineError::Engine(e)
    }
}
impl From<hpcc_vfs::squash::SquashError> for PipelineError {
    fn from(e: hpcc_vfs::squash::SquashError) -> Self {
        PipelineError::Squash(e)
    }
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Proxy(e) => write!(f, "proxy: {e}"),
            PipelineError::Engine(e) => write!(f, "engine: {e}"),
            PipelineError::Squash(e) => write!(f, "squash: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// Deploy `repo:tag` through `engine` onto an allocation of nodes.
///
/// Steps: proxy pull (once, landing layers on the shared filesystem) →
/// engine conversion with caching → stage the converted single-file image
/// to each node's local disk → launch one container per node.
#[allow(clippy::too_many_arguments)]
pub fn deploy_to_allocation(
    engine: &Engine,
    proxy: &ProxyRegistry,
    repo: &str,
    tag: &str,
    user: u32,
    host: &Host,
    shared: &SharedFs,
    node_disks: &[Arc<NodeLocalDisk>],
    opts: RunOptions,
    clock: &SimClock,
) -> Result<DeploymentReport, PipelineError> {
    let t0 = clock.now();

    // 1. Pull through the site proxy (cache-aware).
    let (_, pull_done) = proxy.pull_manifest(repo, tag, clock.now())?;
    clock.advance_to(pull_done);
    let pulled = engine.pull(&proxy.local, repo, tag, clock)?;
    let t_pull = clock.now();

    // 2. Convert to native format (engine caches per its capability).
    let prepared = engine.prepare(&pulled, user, host, true, clock)?;
    let cache_hit = prepared.cache_hit;
    let t_convert = clock.now();

    // 3. Stage a single-file image to node-local disks (the §4.1.2
    // workaround for shared-filesystem small-file load). Engines whose
    // native root is already a single file stage that; directory engines
    // stage a squash of the flattened tree.
    let image = SquashImage::build(
        &prepared.rootfs,
        &VPath::root(),
        hpcc_codec::compress::Codec::Lz,
    )?;
    let report = stage_image_to_nodes(shared, &image, node_disks, clock.now())?;
    clock.advance_to(report.all_done);
    let t_stage = clock.now();

    // 4. Launch on every node (parallel: charge the max single-node
    // launch, not the sum).
    let mut max_launch = SimSpan::ZERO;
    for _ in node_disks {
        let node_clock = SimClock::new();
        let prepared_node = engine.prepare(&pulled, user, host, true, &node_clock)?;
        engine.run(prepared_node, user, host, opts.clone(), &node_clock)?;
        max_launch = max_launch.max(node_clock.now().since(SimTime::ZERO));
    }
    clock.advance(max_launch);
    let t_end = clock.now();

    Ok(DeploymentReport {
        pull: t_pull.since(t0),
        convert: t_convert.since(t_pull),
        stage: t_stage.since(t_convert),
        launch: t_end.since(t_stage),
        total: t_end.since(t0),
        cache_hit,
        nodes: node_disks.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcc_engine::engines;
    use hpcc_oci::builder::samples;
    use hpcc_oci::cas::Cas;
    use hpcc_registry::registry::{Registry, RegistryCaps};

    fn hub() -> Arc<Registry> {
        let mut caps = RegistryCaps::open();
        caps.pull_rate_limit_per_hour = Some(7200.0);
        let hub = Registry::new("hub", caps);
        hub.create_namespace("hpc", None).unwrap();
        let cas = Cas::new();
        let img = samples::python_app(&cas, 150);
        hub.push_image("hpc/pyapp", "v1", &img.manifest, &cas)
            .unwrap();
        Arc::new(hub)
    }

    fn site_proxy() -> ProxyRegistry {
        let local = Registry::new("site", RegistryCaps::open());
        local.create_namespace("hpc", None).unwrap();
        ProxyRegistry::new(Arc::new(local), hub()).unwrap()
    }

    fn disks(n: usize) -> Vec<Arc<NodeLocalDisk>> {
        (0..n).map(|_| Arc::new(NodeLocalDisk::new())).collect()
    }

    #[test]
    fn full_pipeline_reports_phases() {
        let proxy = site_proxy();
        let shared = SharedFs::with_defaults();
        let engine = engines::sarus();
        let host = Host::compute_node();
        let clock = SimClock::new();
        let report = deploy_to_allocation(
            &engine,
            &proxy,
            "hpc/pyapp",
            "v1",
            1000,
            &host,
            &shared,
            &disks(8),
            RunOptions::default(),
            &clock,
        )
        .unwrap();
        assert!(report.pull > SimSpan::ZERO);
        assert!(report.convert > SimSpan::ZERO, "first deploy converts");
        assert!(report.stage > SimSpan::ZERO);
        assert!(report.launch > SimSpan::ZERO);
        assert!(!report.cache_hit);
        assert_eq!(report.nodes, 8);
        assert!(report.total >= report.pull + report.stage);
    }

    #[test]
    fn second_deploy_is_faster_via_caches() {
        let proxy = site_proxy();
        let shared = SharedFs::with_defaults();
        let engine = engines::sarus();
        let host = Host::compute_node();
        let c1 = SimClock::new();
        let first = deploy_to_allocation(
            &engine,
            &proxy,
            "hpc/pyapp",
            "v1",
            1000,
            &host,
            &shared,
            &disks(4),
            RunOptions::default(),
            &c1,
        )
        .unwrap();
        shared.reset_contention();
        let c2 = SimClock::new();
        let second = deploy_to_allocation(
            &engine,
            &proxy,
            "hpc/pyapp",
            "v1",
            1000,
            &host,
            &shared,
            &disks(4),
            RunOptions::default(),
            &c2,
        )
        .unwrap();
        assert!(second.cache_hit);
        assert!(
            second.total < first.total,
            "cached deploy {} should beat cold {}",
            second.total,
            first.total
        );
    }

    #[test]
    fn more_nodes_cost_more_staging() {
        let engine = engines::podman_hpc();
        let host = Host::compute_node();
        let small = {
            let proxy = site_proxy();
            let shared = SharedFs::with_defaults();
            let clock = SimClock::new();
            deploy_to_allocation(
                &engine,
                &proxy,
                "hpc/pyapp",
                "v1",
                1000,
                &host,
                &shared,
                &disks(2),
                RunOptions::default(),
                &clock,
            )
            .unwrap()
        };
        let big = {
            let proxy = site_proxy();
            let shared = SharedFs::with_defaults();
            let clock = SimClock::new();
            deploy_to_allocation(
                &engine,
                &proxy,
                "hpc/pyapp",
                "v1",
                1000,
                &host,
                &shared,
                &disks(64),
                RunOptions::default(),
                &clock,
            )
            .unwrap()
        };
        assert!(big.stage > small.stage);
    }

    #[test]
    fn unknown_image_fails_cleanly() {
        let proxy = site_proxy();
        let shared = SharedFs::with_defaults();
        let engine = engines::podman();
        let host = Host::compute_node();
        let clock = SimClock::new();
        assert!(deploy_to_allocation(
            &engine,
            &proxy,
            "hpc/ghost",
            "v1",
            1000,
            &host,
            &shared,
            &disks(1),
            RunOptions::default(),
            &clock,
        )
        .is_err());
    }
}
