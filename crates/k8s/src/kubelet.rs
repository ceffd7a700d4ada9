//! Kubelets: node agents that run pods through a CRI runtime.
//!
//! Two properties from Section 6 are modelled faithfully:
//!
//! * **Rootless kubelets** (§6.5) require cgroup v2 *with a delegated
//!   subtree* for the kubelet's uid — starting one on a v1 host or
//!   without delegation fails, exactly the configuration requirement the
//!   paper lists.
//! * The CRI boundary: pods start through a real container-engine
//!   pipeline ([`EngineCri`] wraps `hpcc-engine`), so pod startup pays
//!   pull/convert/launch costs.

use crate::objects::{ApiServer, PodPhase, PodSpec, Resources};
use hpcc_engine::engine::{Engine, Host, RunOptions};
use hpcc_registry::registry::Registry;
use hpcc_runtime::cgroup::{CgroupLimits, CgroupTree, CgroupVersion};
use hpcc_sim::sym;
use hpcc_sim::{FaultInjector, FaultKind, RetryPolicy, SimClock, SimSpan, SimTime, Stage, Tracer};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The container-runtime interface a kubelet drives.
///
/// `start_pod` returns the *startup latency* of the pod's container
/// (pull + prepare + launch) so that startups on different nodes remain
/// parallel in scenario simulations — implementations measure the real
/// pipeline on a scratch clock rather than advancing shared time.
pub trait CriRuntime: Send + Sync {
    /// Launch a pod's container. Returns the startup latency, or an error
    /// string (mapped to `PodPhase::Failed`).
    fn start_pod(&self, pod: &PodSpec) -> Result<SimSpan, String>;
}

/// CRI backed by a real engine + registry + host.
pub struct EngineCri {
    pub engine: Engine,
    pub registry: Arc<Registry>,
    pub host: Host,
    pub user: u32,
}

impl CriRuntime for EngineCri {
    fn start_pod(&self, pod: &PodSpec) -> Result<SimSpan, String> {
        let (repo, tag) = pod
            .spec_image_parts()
            .ok_or_else(|| format!("bad image reference {}", pod.image))?;
        let scratch = SimClock::new();
        self.engine
            .deploy(
                &self.registry,
                repo,
                tag,
                self.user,
                &self.host,
                RunOptions {
                    gpu: pod.resources.gpus > 0,
                    ..RunOptions::default()
                },
                &scratch,
            )
            .map(|(_, span)| span)
            .map_err(|e| e.to_string())
    }
}

impl PodSpec {
    /// Split `repo:tag` (helper for CRI implementations).
    pub fn spec_image_parts(&self) -> Option<(&str, &str)> {
        self.image.rsplit_once(':')
    }
}

/// Kubelet privilege mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KubeletMode {
    Rootful,
    /// Runs as an unprivileged user (§6.5's requirement set applies).
    Rootless {
        uid: u32,
    },
}

/// Errors starting or driving a kubelet.
#[derive(Debug)]
pub enum KubeletError {
    /// Rootless mode requires cgroup v2.
    CgroupV2Required,
    /// Rootless mode requires a delegated cgroup subtree for the uid.
    CgroupDelegationMissing(u32),
    Api(crate::objects::ApiError),
}

impl From<crate::objects::ApiError> for KubeletError {
    fn from(e: crate::objects::ApiError) -> Self {
        KubeletError::Api(e)
    }
}

impl std::fmt::Display for KubeletError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KubeletError::CgroupV2Required => f.write_str("rootless kubelet requires cgroup v2"),
            KubeletError::CgroupDelegationMissing(uid) => {
                write!(f, "no cgroup subtree delegated to uid {uid}")
            }
            KubeletError::Api(e) => write!(f, "api: {e}"),
        }
    }
}

impl std::error::Error for KubeletError {}

#[derive(Debug)]
struct RunningPod {
    started: SimTime,
    duration: SimSpan,
    rv: u64,
    resources: Resources,
}

/// A node agent.
pub struct Kubelet {
    pub node_name: String,
    pub mode: KubeletMode,
    cri: Arc<dyn CriRuntime>,
    running: BTreeMap<String, RunningPod>,
    /// Fault source for CRI flaps ([`FaultKind::CriFlap`]); disabled by
    /// default so un-faulted scenarios are byte-identical to before.
    faults: Arc<FaultInjector>,
    /// Back-off applied to failed pod launches — the real mechanism
    /// behind what `kubectl` surfaces as `ImagePullBackOff`.
    retry: RetryPolicy,
    /// Tracer recording pod lifecycle spans; disabled by default.
    tracer: Arc<Tracer>,
}

impl std::fmt::Debug for Kubelet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kubelet")
            .field("node_name", &self.node_name)
            .field("mode", &self.mode)
            .field("running", &self.running.len())
            .finish()
    }
}

/// Startup cost of a kubelet process (join, TLS bootstrap, node sync).
pub fn kubelet_startup_span(mode: KubeletMode) -> SimSpan {
    match mode {
        KubeletMode::Rootful => SimSpan::secs(3),
        // Rootless pays extra for user-namespace and cgroup setup.
        KubeletMode::Rootless { .. } => SimSpan::secs(5),
    }
}

/// Supervisor back-off before a crashed kubelet process is restarted
/// (systemd `RestartSec`-class delay), paid on top of the normal startup.
const KUBELET_RESTART_BACKOFF: SimSpan = SimSpan(10_000_000_000); // 10s

impl Kubelet {
    /// Start a kubelet: validate privileges, charge startup, register the
    /// node with the API server.
    #[allow(clippy::too_many_arguments)]
    pub fn start(
        node_name: &str,
        mode: KubeletMode,
        cri: Arc<dyn CriRuntime>,
        cgroups: &mut CgroupTree,
        allocatable: Resources,
        labels: BTreeMap<String, String>,
        api: &ApiServer,
        clock: &SimClock,
    ) -> Result<Kubelet, KubeletError> {
        if let KubeletMode::Rootless { uid } = mode {
            if cgroups.version() != CgroupVersion::V2 {
                return Err(KubeletError::CgroupV2Required);
            }
            // The kubelet must be able to create its own subtree.
            let group = format!("kubelet-{node_name}");
            cgroups
                .create(&group, uid, CgroupLimits::default())
                .map_err(|_| KubeletError::CgroupDelegationMissing(uid))?;
        }
        clock.advance(kubelet_startup_span(mode));
        api.register_node(node_name, allocatable, labels)?;
        Ok(Kubelet {
            node_name: node_name.to_string(),
            mode,
            cri,
            running: BTreeMap::new(),
            faults: FaultInjector::disabled(),
            retry: RetryPolicy::default(),
            tracer: Tracer::disabled(),
        })
    }

    /// Install a fault injector; `sync` rolls [`FaultKind::CriFlap`]
    /// before every CRI launch attempt.
    pub fn set_fault_injector(&mut self, faults: Arc<FaultInjector>) {
        self.faults = faults;
    }

    /// Replace the launch retry policy (pull back-off behaviour).
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// Attach a tracer recording pod start/run spans.
    pub fn set_tracer(&mut self, tracer: Arc<Tracer>) {
        self.tracer = tracer;
    }

    /// Pods currently running on this node.
    pub fn running_count(&self) -> usize {
        self.running.len()
    }

    /// Start pods the scheduler bound to this node. Returns names started.
    ///
    /// Every launch runs under the kubelet's [`RetryPolicy`]: a failed
    /// `start_pod` (or an injected CRI flap) backs off on the shared
    /// clock and retries; only exhausting the policy marks the pod
    /// `Failed`, with a reason carrying the real attempt count.
    pub fn sync(&mut self, api: &ApiServer, clock: &SimClock) -> Vec<String> {
        let mut launched = Vec::new();
        // In pod-name order: launches back off on the shared clock, so
        // the order pods start in is observable.
        for pod in api.scheduled_pods(&self.node_name) {
            let cri = Arc::clone(&self.cri);
            let faults = Arc::clone(&self.faults);
            let span = self
                .tracer
                .begin(sym!("kubelet.start_pod"), Stage::Pod, clock.now());
            self.tracer.attr(span, sym!("pod"), &pod.spec.name);
            self.tracer.attr(span, sym!("node"), &self.node_name);
            let outcome = self.retry.run_clocked(
                &faults,
                "kubelet.start_pod",
                Stage::Pod,
                clock,
                |_e: &String| true, // every launch failure is back-off-able
                |_attempt| {
                    if let Some(f) = faults.roll(FaultKind::CriFlap, clock.now()) {
                        return Err(format!("CRI runtime unavailable (flap #{})", f.seq));
                    }
                    cri.start_pod(&pod.spec)
                },
            );
            match &outcome {
                Ok(ok) => {
                    self.tracer.attr(span, sym!("attempts"), ok.attempts);
                    self.tracer.attr(span, sym!("outcome"), "running");
                }
                Err(err) => {
                    self.tracer.attr(span, sym!("attempts"), err.attempts);
                    self.tracer.attr(span, sym!("outcome"), "failed");
                }
            }
            self.tracer.end(span, clock.now());
            match outcome.map(|ok| ok.value) {
                Ok(startup) => {
                    let started = clock.now() + startup;
                    if let Ok(rv) = api.set_pod_phase(
                        &pod.spec.name,
                        pod.resource_version,
                        PodPhase::Running {
                            node: self.node_name.clone(),
                            started,
                        },
                    ) {
                        self.running.insert(
                            pod.spec.name.clone(),
                            RunningPod {
                                started,
                                duration: pod.spec.duration,
                                rv,
                                resources: pod.spec.resources,
                            },
                        );
                        launched.push(pod.spec.name);
                    }
                }
                Err(err) => {
                    // Retry budget exhausted (or deadline hit): surface
                    // the kubelet's back-off verdict, not a bare string.
                    let reason = format!("image pull backoff: {err}");
                    let _ = api.set_pod_phase(
                        &pod.spec.name,
                        pod.resource_version,
                        PodPhase::Failed { reason },
                    );
                }
            }
        }
        launched
    }

    /// Complete pods whose duration elapsed by `now`. Returns
    /// (pod name, resources, start, end) for release/accounting.
    pub fn advance_to(
        &mut self,
        api: &ApiServer,
        now: SimTime,
    ) -> Vec<(String, Resources, SimTime, SimTime)> {
        if self.running.is_empty() {
            return Vec::new();
        }
        let done: Vec<String> = self
            .running
            .iter()
            .filter(|(_, r)| r.started + r.duration <= now)
            .map(|(name, _)| name.clone())
            .collect();
        let mut out = Vec::with_capacity(done.len());
        for name in done {
            let r = self.running.remove(&name).expect("present");
            let ended = r.started + r.duration;
            self.tracer.record(
                sym!("kubelet.pod.run"),
                Stage::Pod,
                r.started,
                ended,
                &[("pod", name.clone()), ("node", self.node_name.clone())],
            );
            let _ = api.set_pod_phase(
                &name,
                r.rv,
                PodPhase::Succeeded {
                    node: self.node_name.clone(),
                    started: r.started,
                    ended,
                },
            );
            out.push((name, r.resources, r.started, ended));
        }
        out
    }

    /// Leave the cluster (ephemeral agents at allocation end, §6.5).
    pub fn shutdown(&mut self, api: &ApiServer) {
        let _ = api.deregister_node(&self.node_name);
        self.running.clear();
    }

    /// The kubelet process crashes and comes back: its volatile running-pod
    /// map dies with it, the supervisor waits out the restart back-off,
    /// pays process startup again, and the new process *replays* pod state
    /// from the API server — the durable source of truth — re-adopting
    /// every pod the control plane still records as running on this node.
    /// Containers keep running across the agent crash (as they do under a
    /// real kubelet restart), so re-adoption neither relaunches them nor
    /// re-pays their startup. Returns the re-adopted pod names.
    pub fn crash_restart(&mut self, api: &ApiServer, clock: &SimClock) -> Vec<String> {
        let died = clock.now();
        self.tracer.record(
            sym!("crash.kubelet"),
            Stage::Pod,
            died,
            died,
            &[
                ("node", self.node_name.clone()),
                ("lost_volatile", self.running.len().to_string()),
            ],
        );
        self.faults.metrics().incr("kubelet.crashes");
        self.running.clear();

        clock.advance(KUBELET_RESTART_BACKOFF);
        clock.advance(kubelet_startup_span(self.mode));

        let mine = api.list_pods(
            |p| matches!(&p.phase, PodPhase::Running { node, .. } if *node == self.node_name),
        );
        let mut adopted = Vec::with_capacity(mine.len());
        for pod in mine {
            let started = match &pod.phase {
                PodPhase::Running { started, .. } => *started,
                _ => continue,
            };
            self.running.insert(
                pod.spec.name.clone(),
                RunningPod {
                    started,
                    duration: pod.spec.duration,
                    rv: pod.resource_version,
                    resources: pod.spec.resources,
                },
            );
            adopted.push(pod.spec.name);
        }
        self.faults
            .metrics()
            .add("kubelet.recover.adopted", adopted.len() as u64);
        self.tracer.record(
            sym!("recover.kubelet.replay"),
            Stage::Pod,
            died,
            clock.now(),
            &[
                ("node", self.node_name.clone()),
                ("adopted", adopted.len().to_string()),
            ],
        );
        adopted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcc_sim::SimSpan;

    /// A CRI that launches instantly (kubelet mechanics tests); the
    /// engine-backed CRI is exercised in the integration tests.
    struct NullCri;
    impl CriRuntime for NullCri {
        fn start_pod(&self, _pod: &PodSpec) -> Result<SimSpan, String> {
            Ok(SimSpan::millis(100))
        }
    }

    /// A CRI whose launches always fail — the "backoff" in the surfaced
    /// reason must come from the kubelet's retry policy, not from here.
    struct FailingCri;
    impl CriRuntime for FailingCri {
        fn start_pod(&self, _pod: &PodSpec) -> Result<SimSpan, String> {
            Err("registry unreachable".into())
        }
    }

    fn alloc() -> Resources {
        Resources {
            cpu_millis: 64_000,
            memory_mb: 128 * 1024,
            gpus: 0,
        }
    }

    fn delegated_cgroups(uid: u32) -> CgroupTree {
        let mut t = CgroupTree::new(CgroupVersion::V2);
        t.create("user", 0, CgroupLimits::default()).unwrap();
        t.delegate("user", 0, uid).unwrap();
        t
    }

    #[test]
    fn rootless_requires_v2_and_delegation() {
        let api = ApiServer::new();
        let clock = SimClock::new();
        // v1: refused.
        let mut v1 = CgroupTree::new(CgroupVersion::V1);
        let err = Kubelet::start(
            "n0",
            KubeletMode::Rootless { uid: 1000 },
            Arc::new(NullCri),
            &mut v1,
            alloc(),
            BTreeMap::new(),
            &api,
            &clock,
        )
        .unwrap_err();
        assert!(matches!(err, KubeletError::CgroupV2Required));
        // v2 without delegation: refused.
        let mut v2 = CgroupTree::new(CgroupVersion::V2);
        let err = Kubelet::start(
            "n0",
            KubeletMode::Rootless { uid: 1000 },
            Arc::new(NullCri),
            &mut v2,
            alloc(),
            BTreeMap::new(),
            &api,
            &clock,
        )
        .unwrap_err();
        assert!(matches!(err, KubeletError::CgroupDelegationMissing(1000)));
        // With delegation: ok. (Group paths live under the delegated
        // subtree in real systems; the model accepts any creatable path.)
        let mut good = delegated_cgroups(1000);
        good.delegate("", 0, 1000).unwrap();
        Kubelet::start(
            "n0",
            KubeletMode::Rootless { uid: 1000 },
            Arc::new(NullCri),
            &mut good,
            alloc(),
            BTreeMap::new(),
            &api,
            &clock,
        )
        .unwrap();
        assert!(api.node("n0").unwrap().ready);
    }

    #[test]
    fn rootful_kubelet_just_starts() {
        let api = ApiServer::new();
        let clock = SimClock::new();
        let mut cg = CgroupTree::new(CgroupVersion::V1);
        Kubelet::start(
            "n1",
            KubeletMode::Rootful,
            Arc::new(NullCri),
            &mut cg,
            alloc(),
            BTreeMap::new(),
            &api,
            &clock,
        )
        .unwrap();
        assert_eq!(clock.now().since(SimTime::ZERO), SimSpan::secs(3));
    }

    fn started_kubelet(api: &ApiServer, clock: &SimClock, cri: Arc<dyn CriRuntime>) -> Kubelet {
        let mut cg = CgroupTree::new(CgroupVersion::V2);
        Kubelet::start(
            "n0",
            KubeletMode::Rootful,
            cri,
            &mut cg,
            alloc(),
            BTreeMap::new(),
            api,
            clock,
        )
        .unwrap()
    }

    #[test]
    fn pod_lifecycle_through_kubelet() {
        let api = ApiServer::new();
        let clock = SimClock::new();
        let mut kubelet = started_kubelet(&api, &clock, Arc::new(NullCri));
        api.create_pod(PodSpec::simple("p", "hpc/app:v1", SimSpan::secs(60)))
            .unwrap();
        let mut sched = crate::scheduler::Scheduler::new();
        sched.schedule(&api);
        let started = kubelet.sync(&api, &clock);
        assert_eq!(started, vec!["p"]);
        assert!(matches!(
            api.pod("p").unwrap().phase,
            PodPhase::Running { .. }
        ));
        // Not done yet.
        assert!(kubelet.advance_to(&api, clock.now()).is_empty());
        // Done after 60s (+100ms startup).
        let done = kubelet.advance_to(&api, clock.now() + SimSpan::secs(62));
        assert_eq!(done.len(), 1);
        assert!(matches!(
            api.pod("p").unwrap().phase,
            PodPhase::Succeeded { .. }
        ));
        assert_eq!(kubelet.running_count(), 0);
    }

    #[test]
    fn failed_launch_marks_pod_failed() {
        let api = ApiServer::new();
        let clock = SimClock::new();
        let mut kubelet = started_kubelet(&api, &clock, Arc::new(FailingCri));
        api.create_pod(PodSpec::simple("p", "hpc/app:v1", SimSpan::secs(60)))
            .unwrap();
        let mut sched = crate::scheduler::Scheduler::new();
        sched.schedule(&api);
        kubelet.sync(&api, &clock);
        match api.pod("p").unwrap().phase {
            PodPhase::Failed { reason } => {
                // The policy retried for real before giving up, and the
                // phase reports the genuine attempt count.
                assert!(reason.contains("backoff"), "{reason}");
                assert!(reason.contains("gave up after 5 attempts"), "{reason}");
                assert!(reason.contains("registry unreachable"), "{reason}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn cri_flap_is_retried_through() {
        use hpcc_sim::faults::FaultRule;
        let api = ApiServer::new();
        let clock = SimClock::new();
        let mut kubelet = started_kubelet(&api, &clock, Arc::new(NullCri));
        // A flap window covering the first launch attempt only: the
        // back-off pushes the retry past the window and the pod starts.
        let window_end = clock.now() + SimSpan::millis(50);
        let inj = Arc::new(FaultInjector::new(
            42,
            vec![FaultRule::sticky(
                FaultKind::CriFlap,
                SimTime::ZERO,
                window_end,
            )],
        ));
        kubelet.set_fault_injector(Arc::clone(&inj));
        api.create_pod(PodSpec::simple("p", "hpc/app:v1", SimSpan::secs(60)))
            .unwrap();
        let mut sched = crate::scheduler::Scheduler::new();
        sched.schedule(&api);
        let started = kubelet.sync(&api, &clock);
        assert_eq!(started, vec!["p"]);
        assert!(matches!(
            api.pod("p").unwrap().phase,
            PodPhase::Running { .. }
        ));
        let m = inj.metrics();
        assert_eq!(m.get("faults.injected.cri_flap"), 1);
        assert_eq!(m.get("retry.kubelet.start_pod.recovered"), 1);
        assert_eq!(m.get("retry.kubelet.start_pod.giveup"), 0);
    }

    /// Launches back off on the shared clock, so which pod goes first is
    /// visible in when each starts. `b` is bound before `a`; the kubelet
    /// still starts them in name order, at the instants it always has.
    #[test]
    fn bound_pods_start_in_name_order_under_cri_flaps() {
        use hpcc_sim::faults::FaultRule;
        let api = ApiServer::new();
        let clock = SimClock::new();
        let mut kubelet = started_kubelet(&api, &clock, Arc::new(NullCri));
        kubelet.set_fault_injector(Arc::new(FaultInjector::new(
            2,
            vec![FaultRule::background(FaultKind::CriFlap, 0.5)],
        )));
        for name in ["b", "a"] {
            api.create_pod(PodSpec::simple(name, "hpc/app:v1", SimSpan::secs(60)))
                .unwrap();
            let rv = api.pod(name).unwrap().resource_version;
            api.set_pod_phase(name, rv, PodPhase::Scheduled { node: "n0".into() })
                .unwrap();
        }
        assert_eq!(kubelet.sync(&api, &clock), ["a", "b"]);
        let started = |name: &str| match api.pod(name).unwrap().phase {
            PodPhase::Running { started, .. } => started.since(SimTime::ZERO),
            other => panic!("{name}: {other:?}"),
        };
        // Literals from the commit before the per-node sets, where `sync`
        // filtered `list_pods`: both launches flap, `a` first, and `b`
        // starts from wherever `a` left the clock.
        assert_eq!(started("a"), SimSpan(3_414_424_435));
        assert_eq!(started("b"), SimSpan(3_721_724_441));
    }

    #[test]
    fn permanent_cri_flap_exhausts_into_backoff() {
        use hpcc_sim::faults::FaultRule;
        let api = ApiServer::new();
        let clock = SimClock::new();
        let mut kubelet = started_kubelet(&api, &clock, Arc::new(NullCri));
        let inj = Arc::new(FaultInjector::new(
            7,
            vec![FaultRule::sticky(
                FaultKind::CriFlap,
                SimTime::ZERO,
                SimTime(u64::MAX),
            )],
        ));
        kubelet.set_fault_injector(Arc::clone(&inj));
        api.create_pod(PodSpec::simple("p", "hpc/app:v1", SimSpan::secs(60)))
            .unwrap();
        let mut sched = crate::scheduler::Scheduler::new();
        sched.schedule(&api);
        kubelet.sync(&api, &clock);
        match api.pod("p").unwrap().phase {
            PodPhase::Failed { reason } => {
                assert!(reason.contains("backoff"), "{reason}");
                assert!(reason.contains("flap"), "{reason}");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(inj.metrics().get("retry.kubelet.start_pod.giveup"), 1);
        assert_eq!(inj.metrics().get("retry.kubelet.start_pod.attempts"), 5);
    }

    #[test]
    fn crash_restart_replays_running_pods_without_relaunch() {
        let api = ApiServer::new();
        let clock = SimClock::new();
        let mut kubelet = started_kubelet(&api, &clock, Arc::new(NullCri));
        api.create_pod(PodSpec::simple("p", "hpc/app:v1", SimSpan::secs(60)))
            .unwrap();
        let mut sched = crate::scheduler::Scheduler::new();
        sched.schedule(&api);
        kubelet.sync(&api, &clock);
        let started_at = match api.pod("p").unwrap().phase {
            PodPhase::Running { started, .. } => started,
            other => panic!("{other:?}"),
        };

        // The agent dies mid-run and comes back through its back-off.
        let before = clock.now();
        let adopted = kubelet.crash_restart(&api, &clock);
        assert_eq!(adopted, vec!["p"]);
        assert_eq!(kubelet.running_count(), 1);
        assert!(
            clock.now().since(before) >= SimSpan::secs(10),
            "restart back-off must be paid"
        );
        // Replay, not relaunch: the pod's start instant is unchanged and
        // a sync finds nothing new to start.
        match api.pod("p").unwrap().phase {
            PodPhase::Running { started, .. } => assert_eq!(started, started_at),
            other => panic!("{other:?}"),
        }
        assert!(kubelet.sync(&api, &clock).is_empty());

        // The adopted pod still completes exactly once.
        let done = kubelet.advance_to(&api, started_at + SimSpan::secs(61));
        assert_eq!(done.len(), 1);
        assert!(matches!(
            api.pod("p").unwrap().phase,
            PodPhase::Succeeded { .. }
        ));
        // A second restart after completion adopts nothing.
        assert!(kubelet.crash_restart(&api, &clock).is_empty());
        assert_eq!(kubelet.running_count(), 0);
    }

    #[test]
    fn shutdown_deregisters() {
        let api = ApiServer::new();
        let clock = SimClock::new();
        let mut kubelet = started_kubelet(&api, &clock, Arc::new(NullCri));
        kubelet.shutdown(&api);
        assert!(api.node("n0").is_err());
    }

    #[test]
    fn image_parts_helper() {
        let pod = PodSpec::simple("p", "bio/samtools:1.17", SimSpan::secs(1));
        assert_eq!(pod.spec_image_parts(), Some(("bio/samtools", "1.17")));
        let bad = PodSpec::simple("p", "noTag", SimSpan::secs(1));
        assert_eq!(bad.spec_image_parts(), None);
    }
}
