//! The Kubernetes object model and API server: typed objects with
//! resource versions.
//!
//! Only the objects the Section 6 scenarios need exist: Nodes and Pods.
//! The API server is the coordination point — kubelets read the pods
//! bound to them, the scheduler reads the pending pods, and both read
//! counts the server keeps as pods change phase.

use hpcc_sim::{SimSpan, SimTime};
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Resource quantities of a pod or node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Resources {
    pub cpu_millis: u64,
    pub memory_mb: u64,
    pub gpus: u32,
}

impl Resources {
    pub(crate) fn fits_in(&self, avail: &Resources) -> bool {
        self.cpu_millis <= avail.cpu_millis
            && self.memory_mb <= avail.memory_mb
            && self.gpus <= avail.gpus
    }

    pub(crate) fn minus(&self, used: &Resources) -> Resources {
        Resources {
            cpu_millis: self.cpu_millis.saturating_sub(used.cpu_millis),
            memory_mb: self.memory_mb.saturating_sub(used.memory_mb),
            gpus: self.gpus.saturating_sub(used.gpus),
        }
    }

    pub fn plus(&self, other: &Resources) -> Resources {
        Resources {
            cpu_millis: self.cpu_millis + other.cpu_millis,
            memory_mb: self.memory_mb + other.memory_mb,
            gpus: self.gpus + other.gpus,
        }
    }
}

/// Allocatable resources of a whole WLM node offered as a Kubernetes node.
impl From<hpcc_wlm::types::NodeSpec> for Resources {
    fn from(spec: hpcc_wlm::types::NodeSpec) -> Resources {
        Resources {
            cpu_millis: spec.cores as u64 * 1000,
            memory_mb: spec.memory_mb,
            gpus: spec.gpus,
        }
    }
}

/// A pod specification.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PodSpec {
    pub name: String,
    /// Image reference (`repo:tag` on the site registry).
    pub image: String,
    pub resources: Resources,
    /// How long the workload runs once started.
    pub duration: SimSpan,
    /// Label selector the target node must match.
    pub node_selector: BTreeMap<String, String>,
    /// Free-form annotations. Nothing in the model reads them; the field
    /// stays because `quant4`'s pinned workload digest covers its debug
    /// form.
    pub annotations: BTreeMap<String, String>,
    /// The user the workload belongs to (accounting).
    pub user: u32,
}

impl PodSpec {
    /// A small CPU pod.
    pub fn simple(name: &str, image: &str, duration: SimSpan) -> PodSpec {
        PodSpec {
            name: name.to_string(),
            image: image.to_string(),
            resources: Resources {
                cpu_millis: 4000,
                memory_mb: 8192,
                gpus: 0,
            },
            duration,
            node_selector: BTreeMap::new(),
            annotations: BTreeMap::new(),
            user: 1000,
        }
    }
}

/// Pod lifecycle.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PodPhase {
    Pending,
    /// Bound to a node, not yet started.
    Scheduled {
        node: String,
    },
    Running {
        node: String,
        started: SimTime,
    },
    Succeeded {
        node: String,
        started: SimTime,
        ended: SimTime,
    },
    Failed {
        reason: String,
    },
}

/// A pod object.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Pod {
    pub spec: PodSpec,
    pub phase: PodPhase,
    pub resource_version: u64,
}

/// A node object.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeObject {
    pub name: String,
    pub allocatable: Resources,
    pub labels: BTreeMap<String, String>,
    pub resource_version: u64,
}

/// API errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApiError {
    PodExists(String),
    PodNotFound(String),
    NodeExists(String),
    NodeNotFound(String),
    /// Optimistic-concurrency failure.
    Conflict {
        name: String,
        expected: u64,
        actual: u64,
    },
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApiError::PodExists(n) => write!(f, "pod {n} exists"),
            ApiError::PodNotFound(n) => write!(f, "pod {n} not found"),
            ApiError::NodeExists(n) => write!(f, "node {n} exists"),
            ApiError::NodeNotFound(n) => write!(f, "node {n} not found"),
            ApiError::Conflict {
                name,
                expected,
                actual,
            } => {
                write!(f, "conflict on {name}: rv {expected} != {actual}")
            }
        }
    }
}

impl std::error::Error for ApiError {}

/// What control loops ask of the pod set every tick, counted where pods
/// change phase instead of recounted from [`ApiServer::list_pods`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PodTallies {
    /// Pods in phase `Pending`, and their aggregate CPU request.
    pub pending: usize,
    pub pending_cpu_millis: u64,
    /// Pods in phase `Scheduled`: bound to a node, not yet started.
    pub scheduled: usize,
    /// Aggregate CPU of pods holding a node: `Scheduled` + `Running`.
    pub bound_cpu_millis: u64,
    /// Pods in phase `Succeeded` or `Failed`.
    pub terminal: usize,
}

#[derive(Default)]
struct ApiState {
    pods: BTreeMap<String, Pod>,
    nodes: BTreeMap<String, NodeObject>,
    rv: u64,
    /// Invariant: equal to a recount over `pods`.
    tallies: PodTallies,
    /// Names of the `Scheduled` pods of each node that has any.
    /// Invariant: equal to a regrouping of `pods`.
    scheduled_on: BTreeMap<String, BTreeSet<String>>,
}

fn shift<T: std::ops::AddAssign + std::ops::SubAssign>(tally: &mut T, by: T, enter: bool) {
    if enter {
        *tally += by;
    } else {
        *tally -= by;
    }
}

impl ApiState {
    /// Count a pod requesting `cpu_millis` into (`enter`) or out of the
    /// tallies and the per-node set of the phase it is in.
    fn tally(&mut self, name: &str, cpu_millis: u64, phase: &PodPhase, enter: bool) {
        let t = &mut self.tallies;
        match phase {
            PodPhase::Pending => {
                shift(&mut t.pending, 1, enter);
                shift(&mut t.pending_cpu_millis, cpu_millis, enter);
            }
            PodPhase::Scheduled { node } => {
                shift(&mut t.scheduled, 1, enter);
                shift(&mut t.bound_cpu_millis, cpu_millis, enter);
                if enter {
                    let on_node = self.scheduled_on.entry(node.clone()).or_default();
                    on_node.insert(name.to_string());
                } else if let Some(on_node) = self.scheduled_on.get_mut(node) {
                    on_node.remove(name);
                    if on_node.is_empty() {
                        self.scheduled_on.remove(node);
                    }
                }
            }
            PodPhase::Running { .. } => shift(&mut t.bound_cpu_millis, cpu_millis, enter),
            PodPhase::Succeeded { .. } | PodPhase::Failed { .. } => {
                shift(&mut t.terminal, 1, enter)
            }
        }
    }
}

/// The API server.
#[derive(Default)]
pub struct ApiServer {
    state: RwLock<ApiState>,
}

impl ApiServer {
    pub fn new() -> ApiServer {
        ApiServer::default()
    }

    fn bump(state: &mut ApiState) -> u64 {
        state.rv += 1;
        state.rv
    }

    // ------------------------------------------------------------- pods

    /// Create a pod (phase Pending).
    pub fn create_pod(&self, spec: PodSpec) -> Result<(), ApiError> {
        let mut st = self.state.write();
        if st.pods.contains_key(&spec.name) {
            return Err(ApiError::PodExists(spec.name));
        }
        let rv = Self::bump(&mut st);
        let pod = Pod {
            spec,
            phase: PodPhase::Pending,
            resource_version: rv,
        };
        st.tally(
            &pod.spec.name,
            pod.spec.resources.cpu_millis,
            &pod.phase,
            true,
        );
        st.pods.insert(pod.spec.name.clone(), pod);
        Ok(())
    }

    /// Get a pod by name.
    pub fn pod(&self, name: &str) -> Result<Pod, ApiError> {
        self.state
            .read()
            .pods
            .get(name)
            .cloned()
            .ok_or_else(|| ApiError::PodNotFound(name.to_string()))
    }

    /// List pods, optionally filtered by a phase predicate.
    pub fn list_pods(&self, filter: impl Fn(&Pod) -> bool) -> Vec<Pod> {
        self.state
            .read()
            .pods
            .values()
            .filter(|p| filter(p))
            .cloned()
            .collect()
    }

    /// The `Scheduled` pods bound to `node`, in name order: what a kubelet
    /// has to start.
    pub(crate) fn scheduled_pods(&self, node: &str) -> Vec<Pod> {
        let st = self.state.read();
        st.scheduled_on.get(node).map_or_else(Vec::new, |names| {
            names.iter().map(|name| st.pods[name].clone()).collect()
        })
    }

    /// Pod counts and CPU sums by phase.
    pub fn pod_tallies(&self) -> PodTallies {
        self.state.read().tallies
    }

    /// The scheduler's view: every pod and node, borrowed under the read
    /// lock for the length of `f`.
    pub(crate) fn view<R>(
        &self,
        f: impl FnOnce(&BTreeMap<String, Pod>, &BTreeMap<String, NodeObject>) -> R,
    ) -> R {
        let st = self.state.read();
        f(&st.pods, &st.nodes)
    }

    /// Update a pod's phase with optimistic concurrency.
    pub(crate) fn set_pod_phase(
        &self,
        name: &str,
        expected_rv: u64,
        phase: PodPhase,
    ) -> Result<u64, ApiError> {
        let mut st = self.state.write();
        let rv = Self::bump(&mut st);
        let pod = st
            .pods
            .get_mut(name)
            .ok_or_else(|| ApiError::PodNotFound(name.to_string()))?;
        if pod.resource_version != expected_rv {
            return Err(ApiError::Conflict {
                name: name.to_string(),
                expected: expected_rv,
                actual: pod.resource_version,
            });
        }
        // Past the refusals: from here the update happens, and is counted.
        let was = std::mem::replace(&mut pod.phase, phase);
        pod.resource_version = rv;
        let now = pod.phase.clone();
        let cpu_millis = pod.spec.resources.cpu_millis;
        st.tally(name, cpu_millis, &was, false);
        st.tally(name, cpu_millis, &now, true);
        Ok(rv)
    }

    // ------------------------------------------------------------ nodes

    /// Register a node.
    pub(crate) fn register_node(
        &self,
        name: &str,
        allocatable: Resources,
        labels: BTreeMap<String, String>,
    ) -> Result<(), ApiError> {
        let mut st = self.state.write();
        if st.nodes.contains_key(name) {
            return Err(ApiError::NodeExists(name.to_string()));
        }
        let rv = Self::bump(&mut st);
        let node = NodeObject {
            name: name.to_string(),
            allocatable,
            labels,
            resource_version: rv,
        };
        st.nodes.insert(name.to_string(), node);
        Ok(())
    }

    /// Remove a node (ephemeral agents leaving).
    pub(crate) fn deregister_node(&self, name: &str) -> Result<(), ApiError> {
        let mut st = self.state.write();
        st.nodes
            .remove(name)
            .ok_or_else(|| ApiError::NodeNotFound(name.to_string()))?;
        Self::bump(&mut st);
        Ok(())
    }

    /// Node by name.
    pub fn node(&self, name: &str) -> Result<NodeObject, ApiError> {
        self.state
            .read()
            .nodes
            .get(name)
            .cloned()
            .ok_or_else(|| ApiError::NodeNotFound(name.to_string()))
    }

    /// All nodes.
    pub fn list_nodes(&self) -> Vec<NodeObject> {
        self.state.read().nodes.values().cloned().collect()
    }

    /// Current resource version.
    pub fn resource_version(&self) -> u64 {
        self.state.read().rv
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn spec(name: &str) -> PodSpec {
        PodSpec::simple(name, "hpc/app:v1", SimSpan::secs(60))
    }

    /// The reference the kept counts answer to: tallies and per-node
    /// `Scheduled` names recounted from `list_pods`.
    fn recount(api: &ApiServer) -> (PodTallies, BTreeMap<String, Vec<String>>) {
        let mut t = PodTallies::default();
        let mut scheduled_on: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for p in api.list_pods(|_| true) {
            let cpu = p.spec.resources.cpu_millis;
            match p.phase {
                PodPhase::Pending => {
                    t.pending += 1;
                    t.pending_cpu_millis += cpu;
                }
                PodPhase::Scheduled { node } => {
                    t.scheduled += 1;
                    t.bound_cpu_millis += cpu;
                    scheduled_on.entry(node).or_default().push(p.spec.name);
                }
                PodPhase::Running { .. } => t.bound_cpu_millis += cpu,
                PodPhase::Succeeded { .. } | PodPhase::Failed { .. } => t.terminal += 1,
            }
        }
        (t, scheduled_on)
    }

    fn phase(kind: u8, node: u8) -> PodPhase {
        let node = format!("n{node}");
        let (started, ended) = (SimTime(1), SimTime(2));
        match kind {
            0 => PodPhase::Pending,
            1 => PodPhase::Scheduled { node },
            2 => PodPhase::Running { node, started },
            3 => PodPhase::Succeeded {
                node,
                started,
                ended,
            },
            _ => PodPhase::Failed {
                reason: "test".into(),
            },
        }
    }

    proptest! {
        /// Any stream of creates and phase updates — accepted, refused as
        /// stale, or aimed at a pod that does not exist — leaves the
        /// tallies and every per-node set equal to a recount.
        #[test]
        fn tallies_and_scheduled_sets_equal_a_recount(
            ops in proptest::collection::vec(
                (0u8..4u8, 0u8..7u8, 0u8..5u8, 0u8..3u8, any::<bool>()),
                1..60,
            ),
        ) {
            let api = ApiServer::new();
            for (op, pod, kind, node, stale) in ops {
                // `p6` is never created: updates to it are `PodNotFound`.
                let name = format!("p{pod}");
                if op == 0 && pod < 6 {
                    let mut spec = spec(&name);
                    spec.resources.cpu_millis = 500 * (u64::from(pod) + 1);
                    let _ = api.create_pod(spec);
                } else {
                    let rv = api.pod(&name).map_or(0, |p| p.resource_version);
                    let sent = if stale { rv.wrapping_sub(1) } else { rv };
                    let updated = api.set_pod_phase(&name, sent, phase(kind, node));
                    prop_assert_eq!(updated.is_ok(), pod < 6 && rv != 0 && !stale);
                }
                let (tallies, scheduled_on) = recount(&api);
                prop_assert_eq!(api.pod_tallies(), tallies);
                for n in 0..3 {
                    let node = format!("n{n}");
                    let mine: Vec<String> = api
                        .scheduled_pods(&node)
                        .into_iter()
                        .map(|p| p.spec.name)
                        .collect();
                    // `list_pods` yields name order, so this checks order too.
                    let expected = scheduled_on.get(&node).cloned().unwrap_or_default();
                    prop_assert_eq!(mine, expected, "Scheduled on {}", node);
                }
                // No set outlives its last pod.
                let kept: Vec<String> = api.state.read().scheduled_on.keys().cloned().collect();
                let nonempty: Vec<String> = scheduled_on.keys().cloned().collect();
                prop_assert_eq!(kept, nonempty);
            }
        }
    }

    #[test]
    fn pod_crud() {
        let api = ApiServer::new();
        api.create_pod(spec("a")).unwrap();
        assert_eq!(
            api.create_pod(spec("a")),
            Err(ApiError::PodExists("a".into()))
        );
        let p = api.pod("a").unwrap();
        assert_eq!(p.phase, PodPhase::Pending);
        assert!(matches!(api.pod("ghost"), Err(ApiError::PodNotFound(_))));
    }

    #[test]
    fn optimistic_concurrency() {
        let api = ApiServer::new();
        api.create_pod(spec("a")).unwrap();
        let p = api.pod("a").unwrap();
        let rv = api
            .set_pod_phase(
                "a",
                p.resource_version,
                PodPhase::Scheduled { node: "n0".into() },
            )
            .unwrap();
        // Stale update rejected.
        assert!(matches!(
            api.set_pod_phase("a", p.resource_version, PodPhase::Pending),
            Err(ApiError::Conflict { .. })
        ));
        // Fresh update accepted.
        api.set_pod_phase(
            "a",
            rv,
            PodPhase::Running {
                node: "n0".into(),
                started: SimTime::ZERO,
            },
        )
        .unwrap();
    }

    #[test]
    fn node_lifecycle() {
        let api = ApiServer::new();
        let alloc = Resources {
            cpu_millis: 128_000,
            memory_mb: 256 * 1024,
            gpus: 4,
        };
        api.register_node("n0", alloc, BTreeMap::new()).unwrap();
        assert_eq!(api.node("n0").unwrap().allocatable, alloc);
        api.deregister_node("n0").unwrap();
        assert!(matches!(api.node("n0"), Err(ApiError::NodeNotFound(_))));
    }

    #[test]
    fn resource_fit_math() {
        let avail = Resources {
            cpu_millis: 10_000,
            memory_mb: 1000,
            gpus: 1,
        };
        let small = Resources {
            cpu_millis: 4000,
            memory_mb: 500,
            gpus: 0,
        };
        let big = Resources {
            cpu_millis: 4000,
            memory_mb: 500,
            gpus: 2,
        };
        assert!(small.fits_in(&avail));
        assert!(!big.fits_in(&avail));
        let rest = avail.minus(&small);
        assert_eq!(rest.cpu_millis, 6000);
        assert_eq!(rest.plus(&small).cpu_millis, 10_000);
    }

    #[test]
    fn list_pods_filters() {
        let api = ApiServer::new();
        api.create_pod(spec("a")).unwrap();
        api.create_pod(spec("b")).unwrap();
        let p = api.pod("a").unwrap();
        api.set_pod_phase(
            "a",
            p.resource_version,
            PodPhase::Scheduled { node: "n".into() },
        )
        .unwrap();
        let pending = api.list_pods(|p| p.phase == PodPhase::Pending);
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].spec.name, "b");
    }
}
