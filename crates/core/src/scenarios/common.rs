//! What the Section 6 integration scenarios share on top of
//! [`hpcc_adapt::cosim`]: cluster configuration, mixed workload
//! generation, the measured container startup cost, the world a
//! hand-written scenario starts from, and outcome metrics.

use hpcc_adapt::cosim::World;
use hpcc_adapt::traces::{self, TimedWorkload, TraceConfig, TraceShape};
use hpcc_adapt::{ControllerConfig, PartitionPolicy, RunSpec};
use hpcc_engine::engine::{DeployRequest, Host};
use hpcc_engine::engines;
use hpcc_k8s::kubelet::CriRuntime;
use hpcc_k8s::objects::{PodSpec, Resources};
use hpcc_oci::builder::samples;
use hpcc_oci::cas::Cas;
use hpcc_registry::registry::{Registry, RegistryCaps};
use hpcc_sim::{FaultInjector, SimClock, SimSpan, SimTime, Tracer};
use hpcc_storage::BlobStore;
use hpcc_wlm::slurm::Slurm;
use hpcc_wlm::types::{JobId, JobRequest, NodeSpec};
use std::sync::{Arc, OnceLock};

/// Cluster shape shared by every scenario.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    pub nodes: u32,
}

impl ClusterConfig {
    pub fn spec(&self) -> NodeSpec {
        NodeSpec::cpu_node()
    }

    pub fn capacity_cores(&self) -> u64 {
        self.nodes as u64 * self.spec().cores as u64
    }
}

/// The mixed HPC + cloud-native workload of the §6.6 comparison.
#[derive(Debug, Clone)]
pub struct MixedWorkload {
    pub jobs: Vec<JobRequest>,
    pub pods: Vec<PodSpec>,
}

impl MixedWorkload {
    /// Deterministically generate a workload: `n_jobs` multi-node batch
    /// jobs (1..nodes/4 nodes, exp-distributed runtimes around 10 min)
    /// and `n_pods` single-node pods (2–16 cores, exp runtimes ~2 min) —
    /// [`hpcc_adapt::traces`]' everything-at-t0 shape, arrival times
    /// dropped: four of the six architectures cannot honour them yet.
    pub fn generate(seed: u64, n_jobs: usize, n_pods: usize, cfg: &ClusterConfig) -> MixedWorkload {
        let timed = traces::generate(&TraceConfig {
            seed,
            shape: TraceShape::AtZero,
            duration: SimSpan::ZERO,
            nodes: cfg.nodes,
            n_jobs,
            n_pods,
            job_window: SimSpan::ZERO,
        });
        MixedWorkload {
            jobs: timed.jobs.into_iter().map(|(job, _)| job).collect(),
            pods: timed.pods.into_iter().map(|(pod, _)| pod).collect(),
        }
    }
}

/// Result of running one scenario.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    pub name: &'static str,
    /// Time from submission to the first pod actually running.
    pub first_pod_start: Option<SimSpan>,
    /// Mean pod queue+startup latency.
    pub mean_pod_start: Option<SimSpan>,
    /// Completion of the whole workload.
    pub makespan: SimSpan,
    /// Core-seconds used / capacity over the makespan.
    pub utilization: f64,
    /// Fraction of usage the WLM accounted (§6.6's central metric).
    pub accounting_coverage: f64,
    pub pods_succeeded: usize,
    pub pods_failed: usize,
    pub jobs_completed: usize,
    pub notes: &'static str,
}

/// The one place a [`ScenarioOutcome`] is filled: `Stats` and
/// `AdaptOutcome` report the eight shared values under the same names.
macro_rules! outcome {
    ($name:expr, $notes:expr, $from:expr) => {{
        let from = &$from;
        ScenarioOutcome {
            name: $name,
            first_pod_start: from.first_pod_start,
            mean_pod_start: from.mean_pod_start,
            makespan: from.makespan,
            utilization: from.utilization,
            accounting_coverage: from.accounting_coverage,
            pods_succeeded: from.pods_succeeded,
            pods_failed: from.pods_failed,
            jobs_completed: from.jobs_completed,
            notes: $notes,
        }
    }};
}

/// Simulation step and horizon used by the scenario drivers.
pub(crate) const TICK: SimSpan = SimSpan(1_000_000_000);
pub const HORIZON: SimSpan = SimSpan(6 * 3600 * 1_000_000_000);

/// Pipeline worker count used by the scenario startup measurement: blob
/// fetches and per-layer conversions overlap four wide, the typical
/// containerd/`podman --max-parallel-downloads` default class.
pub(crate) const SCENARIO_PIPELINE_PARALLELISM: usize = 4;

/// The measured single-node container startup latency (pull through a
/// local registry + convert + launch, via the real Podman-HPC pipeline,
/// with the pipeline overlapping work [`SCENARIO_PIPELINE_PARALLELISM`]
/// wide against a node-local layer store).
/// Measured once and cached — every scenario charges the same real cost.
pub(crate) fn measured_container_startup() -> SimSpan {
    static STARTUP: OnceLock<SimSpan> = OnceLock::new();
    *STARTUP.get_or_init(|| {
        let registry = Registry::new("scenario-site", RegistryCaps::open());
        registry.create_namespace("hpc", None).unwrap();
        let cas = Cas::new();
        let img = samples::python_app(&cas, 120);
        registry
            .push_image("hpc/pyapp", "v1", &img.manifest, &cas)
            .unwrap();
        let engine = engines::podman_hpc();
        engine.set_parallelism(SCENARIO_PIPELINE_PARALLELISM);
        engine.set_blob_store(BlobStore::node_local());
        let host = Host::compute_node();
        let clock = SimClock::new();
        let (_, span, _) = engine
            .deploy(
                &DeployRequest::new(&registry, "hpc/pyapp", "v1", 1000, &host),
                &clock,
            )
            .expect("startup measurement deploy succeeds");
        span
    })
}

/// A CRI charging the measured startup latency per pod. The measurement
/// comes from the real engine pipeline (above); scenarios use this so the
/// scheduling loops stay decoupled from the engine's internal clock.
pub struct MeasuredCri;

impl CriRuntime for MeasuredCri {
    fn start_pod(&self, _pod: &PodSpec) -> Result<SimSpan, String> {
        Ok(measured_container_startup())
    }
}

/// The world a hand-written scenario starts from: `wlm_nodes` of the
/// cluster under Slurm with the workload's jobs submitted at t=0 (after
/// `stretch` had its way with each), the measured-startup CRI behind every
/// kubelet, and the root span named `name`.
pub(super) fn world(
    name: &'static str,
    cfg: &ClusterConfig,
    wlm_nodes: u32,
    wl: &MixedWorkload,
    stretch: impl Fn(&mut JobRequest),
    tracer: &Arc<Tracer>,
) -> World {
    let mut w = World::new(name, tracer, Arc::new(MeasuredCri), cfg.spec(), wlm_nodes);
    for job in &wl.jobs {
        let mut job = job.clone();
        stretch(&mut job);
        w.submit(job, SimTime::ZERO);
    }
    w
}

/// Create `wl`'s pods on `w`'s control plane.
pub(super) fn create_pods(w: &World, wl: &MixedWorkload) {
    for pod in &wl.pods {
        w.k8s.api.create_pod(pod.clone()).unwrap();
    }
}

/// Advance the WLM and run `step` over `w` tick by tick until `wl` drains,
/// and report the outcome.
pub(super) fn drive(
    name: &'static str,
    notes: &'static str,
    cfg: &ClusterConfig,
    wl: &MixedWorkload,
    mut w: World,
    mut step: impl FnMut(&mut World, SimTime),
) -> ScenarioOutcome {
    let done_at = w.drive(TICK, HORIZON, |w, t| {
        w.slurm.advance_to(t);
        step(w, t);
        w.drained(wl.pods.len())
    });
    outcome!(
        name,
        notes,
        w.finish(done_at, HORIZON, cfg.capacity_cores())
    )
}

/// Run a partition-controller preset as a §6 scenario: the workload all
/// arrives at t=0 and pods start through the measured-startup CRI.
pub(super) fn run_preset(
    name: &'static str,
    notes: &'static str,
    (policy, mut config): (Box<dyn PartitionPolicy>, ControllerConfig),
    cfg: &ClusterConfig,
    wl: &MixedWorkload,
    tracer: &Arc<Tracer>,
) -> ScenarioOutcome {
    config.node_spec = cfg.spec();
    let out = hpcc_adapt::run(RunSpec {
        workload: &TimedWorkload::at_zero(wl.jobs.clone(), wl.pods.clone()),
        policy,
        config,
        cri: Arc::new(MeasuredCri),
        tracer: Arc::clone(tracer),
        faults: FaultInjector::disabled(),
        domains: None,
        scenario: name,
    });
    outcome!(name, notes, out)
}

/// The WLM job a user's whole pod batch runs inside (§6.3, §6.5): sized
/// for the pods' aggregate CPU demand — the user must guess a size, a
/// usability drawback of both — capped at half the cluster, and held until
/// cancelled.
pub(super) fn submit_allocation(
    slurm: &mut Slurm,
    name: &str,
    cfg: &ClusterConfig,
    wl: &MixedWorkload,
) -> Option<JobId> {
    let demand: u64 = wl.pods.iter().map(|p| p.resources.cpu_millis).sum();
    let node = Resources::from(cfg.spec());
    let nodes = (demand.div_ceil(node.cpu_millis).max(1) as u32)
        .min(cfg.nodes / 2)
        .max(1);
    let mut job = JobRequest::batch(name, 2000, nodes, HORIZON);
    job.walltime_limit = HORIZON * 2;
    slurm.submit(job, SimTime::ZERO).ok()
}

/// `job` if it is running now.
pub(super) fn running(slurm: &Slurm, job: Option<JobId>) -> Option<JobId> {
    job.filter(|id| slurm.job(*id).is_ok_and(|j| j.is_running()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_generation_is_deterministic_and_bounded() {
        let cfg = ClusterConfig { nodes: 16 };
        let a = MixedWorkload::generate(7, 10, 20, &cfg);
        let b = MixedWorkload::generate(7, 10, 20, &cfg);
        assert_eq!(a.jobs.len(), 10);
        assert_eq!(a.pods.len(), 20);
        for (ja, jb) in a.jobs.iter().zip(&b.jobs) {
            assert_eq!(ja, jb);
        }
        for j in &a.jobs {
            assert!(j.nodes >= 1 && j.nodes <= 4);
            assert!(j.actual_runtime >= SimSpan::secs(60));
        }
        for p in &a.pods {
            assert!(p.resources.cpu_millis >= 2000 && p.resources.cpu_millis <= 16_000);
        }
    }

    /// `quant4`'s workload, byte for byte as PR 20 generated it — before the
    /// generator moved to `hpcc_adapt::traces`.
    #[test]
    fn quant4_workload_is_pinned() {
        let wl = MixedWorkload::generate(2023, 10, 40, &ClusterConfig { nodes: 32 });
        assert_eq!(
            hpcc_crypto::sha256(format!("{wl:?}").as_bytes()).oci(),
            "sha256:c8d0cd70d19b5cc92eb506b494f0f40f80cc76c7314c9c9639d7376c139efe0e"
        );
    }

    #[test]
    fn measured_startup_is_positive_and_stable() {
        let a = measured_container_startup();
        let b = measured_container_startup();
        assert_eq!(a, b);
        assert!(a > SimSpan::millis(1), "startup {a} should be nontrivial");
        assert!(a < SimSpan::secs(300), "startup {a} should be bounded");
    }
}
