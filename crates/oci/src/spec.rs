//! OCI runtime specification analogue (the `config.json` a low-level
//! runtime like runc/crun consumes).
//!
//! Engines assemble a `RuntimeSpec` describing the process, the root
//! filesystem, the bind mounts (host library hookup!), the namespaces to
//! create and the uid/gid mappings. The `hpcc-runtime` crate consumes it.
//! Tables 1–3 differences (which namespaces, suid vs userns, hook support)
//! are all visible in the specs the engines emit.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Linux namespace kinds (§3.2's isolation interface).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Namespace {
    User,
    Mount,
    Pid,
    Network,
    Ipc,
    Uts,
    Cgroup,
}

impl Namespace {
    /// The full isolation set cloud runtimes configure by default.
    pub fn full_set() -> Vec<Namespace> {
        vec![
            Namespace::User,
            Namespace::Mount,
            Namespace::Pid,
            Namespace::Network,
            Namespace::Ipc,
            Namespace::Uts,
            Namespace::Cgroup,
        ]
    }

    /// The weakened HPC set: "Unused isolations such as network or IPC
    /// namespaces are not set up" (§3.2).
    pub fn hpc_set() -> Vec<Namespace> {
        vec![Namespace::User, Namespace::Mount]
    }
}

/// One uid/gid range mapping inside a user namespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IdMapping {
    /// First id inside the namespace.
    pub inside: u32,
    /// First id outside (on the host).
    pub outside: u32,
    /// Number of consecutive ids mapped.
    pub count: u32,
}

impl IdMapping {
    /// The single-user mapping HPC engines use: host uid ↔ container uid,
    /// one id ("User namespacing is limited to a single user", §3.2).
    pub fn identity_single(host_id: u32, container_id: u32) -> IdMapping {
        IdMapping {
            inside: container_id,
            outside: host_id,
            count: 1,
        }
    }

    /// Map a container id to the host id through this mapping.
    pub(crate) fn to_host(self, inside: u32) -> Option<u32> {
        if inside >= self.inside && inside < self.inside + self.count {
            Some(self.outside + (inside - self.inside))
        } else {
            None
        }
    }
}

/// A mount entry: bind mounts are how host libraries, GPU driver stacks
/// and shared filesystems enter the container (§4.1.6).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mount {
    /// Host path (bind) or device identifier.
    pub source: String,
    /// Path inside the container.
    pub destination: String,
    pub kind: MountKind,
    pub read_only: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MountKind {
    /// Bind mount from the host.
    Bind,
    /// tmpfs.
    Tmpfs,
    /// Device node exposure (GPUs, interconnect).
    Device,
}

/// The process to run.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ProcessSpec {
    pub argv: Vec<String>,
    pub env: Vec<String>,
    pub cwd: String,
    /// uid/gid *inside* the container.
    pub uid: u32,
    pub gid: u32,
}

/// Lifecycle stages at which OCI hooks run (§4.1.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum HookStage {
    /// After the runtime environment exists, before pivot_root.
    CreateRuntime,
    /// After pivot_root, before exec (in the runtime namespace).
    Prestart,
    /// After the container process starts.
    Poststart,
    /// After the container process exits.
    Poststop,
}

impl HookStage {
    pub fn all() -> [HookStage; 4] {
        [
            HookStage::CreateRuntime,
            HookStage::Prestart,
            HookStage::Poststart,
            HookStage::Poststop,
        ]
    }
}

/// A named hook to invoke at a stage. The executable behaviour is
/// registered separately in a [`crate::hooks::HookRegistry`] — the spec
/// carries only the identity, like the `path`+`args` of a real OCI hook.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HookRef {
    pub stage: HookStage,
    pub name: String,
}

/// The assembled runtime spec.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RuntimeSpec {
    pub process: ProcessSpec,
    /// Namespaces the runtime must create.
    pub namespaces: Vec<Namespace>,
    pub uid_mappings: Vec<IdMapping>,
    pub gid_mappings: Vec<IdMapping>,
    pub mounts: Vec<Mount>,
    pub hooks: Vec<HookRef>,
    /// Root filesystem is read-only.
    pub readonly_rootfs: bool,
    /// Cgroup resource limits.
    pub resources: Resources,
    /// Free-form annotations (engines stash provenance here).
    pub annotations: BTreeMap<String, String>,
}

/// Cgroup resource limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Resources {
    /// CPU cores (micro-units of 1/1000 core; 0 = unlimited).
    pub cpu_millis: u64,
    /// Memory bytes (0 = unlimited).
    pub memory_bytes: u64,
    /// Process count limit (0 = unlimited).
    pub pids: u64,
}

impl RuntimeSpec {
    /// True if the spec creates the given namespace.
    pub fn has_namespace(&self, ns: Namespace) -> bool {
        self.namespaces.contains(&ns)
    }

    /// Hooks registered for one stage, in order.
    pub(crate) fn hooks_at(&self, stage: HookStage) -> impl Iterator<Item = &HookRef> {
        self.hooks.iter().filter(move |h| h.stage == stage)
    }

    /// Map a container uid to the host through the uid mappings.
    pub fn uid_to_host(&self, inside: u32) -> Option<u32> {
        self.uid_mappings.iter().find_map(|m| m.to_host(inside))
    }

    /// Map a container gid to the host through the gid mappings.
    pub fn gid_to_host(&self, inside: u32) -> Option<u32> {
        self.gid_mappings.iter().find_map(|m| m.to_host(inside))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn namespace_sets_differ_as_the_paper_says() {
        let full = Namespace::full_set();
        let hpc = Namespace::hpc_set();
        assert!(full.contains(&Namespace::Network));
        assert!(!hpc.contains(&Namespace::Network), "HPC drops netns");
        assert!(!hpc.contains(&Namespace::Ipc), "HPC drops ipcns");
        assert!(hpc.contains(&Namespace::User) && hpc.contains(&Namespace::Mount));
    }

    #[test]
    fn single_user_mapping() {
        let m = IdMapping::identity_single(12345, 0);
        assert_eq!(m.to_host(0), Some(12345));
        assert_eq!(m.to_host(1), None, "only one id mapped");
    }

    #[test]
    fn range_mapping() {
        let m = IdMapping {
            inside: 0,
            outside: 100_000,
            count: 65536,
        };
        assert_eq!(m.to_host(0), Some(100_000));
        assert_eq!(m.to_host(65535), Some(165_535));
        assert_eq!(m.to_host(65536), None);
    }

    #[test]
    fn spec_queries() {
        let spec = RuntimeSpec {
            namespaces: Namespace::hpc_set(),
            uid_mappings: vec![IdMapping::identity_single(1000, 1000)],
            gid_mappings: vec![IdMapping::identity_single(100, 100)],
            hooks: vec![
                HookRef {
                    stage: HookStage::Prestart,
                    name: "gpu".into(),
                },
                HookRef {
                    stage: HookStage::Poststop,
                    name: "cleanup".into(),
                },
                HookRef {
                    stage: HookStage::Prestart,
                    name: "mpi".into(),
                },
            ],
            ..RuntimeSpec::default()
        };
        assert!(spec.has_namespace(Namespace::User));
        assert!(!spec.has_namespace(Namespace::Pid));
        let prestart: Vec<&str> = spec
            .hooks_at(HookStage::Prestart)
            .map(|h| h.name.as_str())
            .collect();
        assert_eq!(prestart, vec!["gpu", "mpi"], "order preserved");
        assert_eq!(spec.uid_to_host(1000), Some(1000));
        assert_eq!(spec.uid_to_host(0), None, "root not mapped");
        assert_eq!(spec.gid_to_host(100), Some(100));
    }

    #[test]
    fn hook_stages_enumerated() {
        assert_eq!(HookStage::all().len(), 4);
    }
}
