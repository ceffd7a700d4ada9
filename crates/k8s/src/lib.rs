//! # hpcc-k8s
//!
//! A miniature Kubernetes sufficient for the Section 6 integration
//! scenarios:
//!
//! * [`objects`] — Pods and Nodes in a typed store with resource versions,
//!   optimistic concurrency and a watch stream.
//! * [`scheduler`] — binds pending pods to ready nodes by resources and
//!   selectors, tracking commitments.
//! * [`kubelet`] — node agents running pods through a CRI boundary backed
//!   by real container engines; rootless kubelets enforce the §6.5
//!   cgroup-v2 + delegation requirements.
//! * [`bridge`] — the two §6.4 bridge modalities: the explicit
//!   annotation-driven [`bridge::BridgeOperator`] and the transparent
//!   KNoC-style [`bridge::VirtualKubelet`].
//! * [`k3s`] — control-plane bootstrap with the startup costs §6.3 warns
//!   about, and [`ControlPlane::tick`], the one schedule → sync → reap
//!   turn every simulation in the tree runs.

pub mod bridge;
pub mod k3s;
pub mod kubelet;
pub mod objects;
pub mod scheduler;

pub use bridge::{BridgeOperator, VirtualKubelet, BRIDGE_ANNOTATION};
pub use k3s::{control_plane_boot_span, ControlPlane, ControlPlaneFlavor, FinishedPod};
pub use kubelet::{
    kubelet_startup_span, CriRuntime, EngineCri, Kubelet, KubeletError, KubeletMode,
};
pub use objects::{ApiError, ApiServer, Event, NodeObject, Pod, PodPhase, PodSpec, Resources};
pub use scheduler::Scheduler;
