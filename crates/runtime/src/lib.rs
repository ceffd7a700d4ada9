//! # hpcc-runtime
//!
//! The kernel-semantics model under every container engine in the testbed:
//!
//! * [`caps`] — Linux capabilities with namespace scoping.
//! * [`rootless`] — the §4.1.2 mount/pivot_root policy engine: what a
//!   user namespace permits, what only a setuid helper (with safeguards)
//!   or real root may do.
//! * [`cgroup`] — cgroup v1/v2 trees with limits, accounting and v2
//!   subtree delegation (the §6.5 rootless-Kubelet requirement).
//! * [`fakeroot`] — the LD_PRELOAD / ptrace / user-namespace root
//!   emulation mechanisms with their documented failure modes and costs.
//! * [`container`] — the OCI lifecycle executed by low-level runtimes
//!   (runc, crun, and the bespoke HPC launchers), including uid/gid
//!   mapping of files the containerized process writes.

pub mod caps;
pub mod cgroup;
pub mod container;
pub mod fakeroot;
pub mod rootless;

pub use caps::{CapSet, Capability};
pub use cgroup::{CgroupError, CgroupTree, CgroupVersion};
pub use container::{
    ch_run, crun, enroot_exec, runc, shifter_exec, Container, ContainerError, ContainerState,
    LowLevelRuntime, ProcessWork,
};
pub use fakeroot::{FakerootError, FakerootMode, HostConfig, SyscallWorkload};
pub use rootless::{
    check_mount, ImageProvenance, MountCredentials, MountRequestKind, PolicyViolation,
};
