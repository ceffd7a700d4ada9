//! Container lifecycle driven by a low-level runtime (runc/crun class).
//!
//! The engine hands a [`RuntimeSpec`] plus a root filesystem to a
//! [`LowLevelRuntime`]; the runtime validates namespace/mount requests
//! against the rootless policy, runs the OCI lifecycle (createRuntime →
//! pivot_root → prestart → start → poststart → ... → poststop) and
//! executes simulated process work with uid/gid mapping applied to files
//! the container writes — "files created by processes in the container
//! have the UID/GID of the user launching the job" (§3.2).

use crate::rootless::{check_pivot_root, MountCredentials, PolicyViolation};
use hpcc_oci::hooks::{HookError, HookRegistry};
use hpcc_oci::spec::{HookStage, Namespace, RuntimeSpec};
use hpcc_sim::{SimClock, SimSpan};
use hpcc_vfs::fs::{MemFs, Meta};
use hpcc_vfs::path::VPath;
use std::collections::BTreeMap;

/// A low-level OCI (or pre-OCI) runtime implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LowLevelRuntime {
    pub name: &'static str,
    /// Implementation language, as reported in Table 1.
    pub language: &'static str,
    /// Whether the runtime executes OCI hooks (Table 1's "OCI Hooks").
    pub supports_oci_hooks: bool,
    /// Process setup overhead (clone/unshare/pivot/exec path).
    pub startup_overhead: SimSpan,
}

/// The OCI reference runtime (Go).
pub fn runc() -> LowLevelRuntime {
    LowLevelRuntime {
        name: "runc",
        language: "Go",
        supports_oci_hooks: true,
        startup_overhead: SimSpan::millis(45),
    }
}

/// The C rewrite, faster to start.
pub fn crun() -> LowLevelRuntime {
    LowLevelRuntime {
        name: "crun",
        language: "C",
        supports_oci_hooks: true,
        startup_overhead: SimSpan::millis(18),
    }
}

/// Shifter's bespoke launcher (no OCI hooks).
pub fn shifter_exec() -> LowLevelRuntime {
    LowLevelRuntime {
        name: "shifter-exec",
        language: "C",
        supports_oci_hooks: false,
        startup_overhead: SimSpan::millis(12),
    }
}

/// Charliecloud's `ch-run` (no OCI hooks).
pub fn ch_run() -> LowLevelRuntime {
    LowLevelRuntime {
        name: "ch-run",
        language: "C",
        supports_oci_hooks: false,
        startup_overhead: SimSpan::millis(8),
    }
}

/// ENROOT's launcher (custom hook framework, not OCI hooks).
pub fn enroot_exec() -> LowLevelRuntime {
    LowLevelRuntime {
        name: "enroot",
        language: "C/Bash",
        supports_oci_hooks: false,
        startup_overhead: SimSpan::millis(15),
    }
}

/// Lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContainerState {
    Created,
    Running,
    Stopped,
}

/// Errors creating or driving a container.
#[derive(Debug)]
pub enum ContainerError {
    Policy(PolicyViolation),
    Hook(HookError),
    /// Hooks requested from a runtime that cannot run them.
    HooksUnsupported(&'static str),
    /// Lifecycle misuse (start twice, stop before start...).
    BadState {
        expected: ContainerState,
        actual: ContainerState,
    },
    Fs(hpcc_vfs::fs::FsError),
}

impl From<PolicyViolation> for ContainerError {
    fn from(e: PolicyViolation) -> Self {
        ContainerError::Policy(e)
    }
}
impl From<HookError> for ContainerError {
    fn from(e: HookError) -> Self {
        ContainerError::Hook(e)
    }
}
impl From<hpcc_vfs::fs::FsError> for ContainerError {
    fn from(e: hpcc_vfs::fs::FsError) -> Self {
        ContainerError::Fs(e)
    }
}

impl std::fmt::Display for ContainerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContainerError::Policy(e) => write!(f, "policy: {e}"),
            ContainerError::Hook(e) => write!(f, "hook: {e}"),
            ContainerError::HooksUnsupported(rt) => {
                write!(f, "runtime {rt} does not execute OCI hooks")
            }
            ContainerError::BadState { expected, actual } => {
                write!(
                    f,
                    "bad lifecycle state: expected {expected:?}, got {actual:?}"
                )
            }
            ContainerError::Fs(e) => write!(f, "fs: {e}"),
        }
    }
}

impl std::error::Error for ContainerError {}

/// Materialize one mount into the rootfs.
fn apply_mount(
    rootfs: &mut MemFs,
    host: &MemFs,
    mount: &hpcc_oci::spec::Mount,
) -> Result<(), ContainerError> {
    use hpcc_oci::spec::MountKind;
    let dest = VPath::parse(&mount.destination);
    match mount.kind {
        MountKind::Bind => {
            let src = VPath::parse(&mount.source);
            let st = host.stat(&src).map_err(ContainerError::Fs)?;
            match st.kind {
                hpcc_vfs::fs::FileType::Dir => {
                    // Copy the host subtree under the destination.
                    let archive = host.to_archive(&src).map_err(ContainerError::Fs)?;
                    rootfs.mkdir_p(&dest).map_err(ContainerError::Fs)?;
                    rootfs
                        .apply_archive(&dest, &archive)
                        .map_err(ContainerError::Fs)?;
                }
                _ => {
                    let data = host.read(&src).map_err(ContainerError::Fs)?;
                    if let Some(parent) = dest.parent() {
                        rootfs.mkdir_p(&parent).map_err(ContainerError::Fs)?;
                    }
                    rootfs
                        .write(&dest, data, st.meta)
                        .map_err(ContainerError::Fs)?;
                }
            }
        }
        MountKind::Tmpfs => {
            rootfs.mkdir_p(&dest).map_err(ContainerError::Fs)?;
        }
        MountKind::Device => {
            let src = VPath::parse(&mount.source);
            let data = host.read(&src).map_err(ContainerError::Fs)?;
            if let Some(parent) = dest.parent() {
                rootfs.mkdir_p(&parent).map_err(ContainerError::Fs)?;
            }
            rootfs
                .write(&dest, data, Meta::file())
                .map_err(ContainerError::Fs)?;
        }
    }
    Ok(())
}

/// Work a container process performs.
#[derive(Debug, Clone, Default)]
pub struct ProcessWork {
    /// Pure compute to charge.
    pub compute: SimSpan,
    /// Files the process writes (path inside the container, contents).
    /// Written with the container-process uid/gid, then mapped.
    pub writes: Vec<(String, Vec<u8>)>,
}

/// A created/running/stopped container.
#[derive(Debug)]
pub struct Container {
    pub runtime: LowLevelRuntime,
    pub spec: RuntimeSpec,
    pub rootfs: MemFs,
    state: ContainerState,
    hook_state: BTreeMap<String, String>,
    /// CPU time the main process consumed.
    pub cpu_used: SimSpan,
    pub exit_code: Option<i32>,
    /// Namespaces actually created.
    pub namespaces: Vec<Namespace>,
}

impl Container {
    pub fn state(&self) -> ContainerState {
        self.state
    }

    /// Hook-visible shared state (engines read results out of it).
    pub fn hook_state(&self) -> &BTreeMap<String, String> {
        &self.hook_state
    }
}

impl LowLevelRuntime {
    /// OCI `create`: validate, run createRuntime hooks, pivot_root.
    pub fn create(
        &self,
        spec: RuntimeSpec,
        rootfs: MemFs,
        creds: &MountCredentials,
        host: &MemFs,
        hooks: &HookRegistry,
        clock: &SimClock,
    ) -> Result<Container, ContainerError> {
        self.create_with_state(spec, rootfs, creds, host, hooks, clock, BTreeMap::new())
    }

    /// [`create`](Self::create) with an initial hook-state map (engines
    /// seed host facts like GPU presence or WLM device grants here).
    // The OCI create inputs plus the seeded hook state; no two of them travel together.
    #[allow(clippy::too_many_arguments)]
    pub fn create_with_state(
        &self,
        mut spec: RuntimeSpec,
        mut rootfs: MemFs,
        creds: &MountCredentials,
        host: &MemFs,
        hooks: &HookRegistry,
        clock: &SimClock,
        initial_state: BTreeMap<String, String>,
    ) -> Result<Container, ContainerError> {
        if !spec.hooks.is_empty() && !self.supports_oci_hooks {
            return Err(ContainerError::HooksUnsupported(self.name));
        }

        // Entering a user namespace upgrades in-namespace credentials.
        let effective = if spec.has_namespace(Namespace::User) && !creds.in_user_ns {
            MountCredentials {
                in_user_ns: true,
                caps: crate::caps::CapSet::full(),
                ..creds.clone()
            }
        } else {
            creds.clone()
        };

        // Apply the spec's mounts: bind mounts materialize host subtrees
        // inside the rootfs (the §4.1.6 "bind-mounting host directories
        // into the container namespace" mechanism), tmpfs creates empty
        // scratch dirs, device mounts expose single device nodes.
        for mount in &spec.mounts {
            apply_mount(&mut rootfs, host, mount)?;
        }

        let mut hook_state = initial_state;
        if self.supports_oci_hooks {
            hooks.run_stage(
                HookStage::CreateRuntime,
                &mut rootfs,
                &mut spec,
                host,
                &mut hook_state,
            )?;
        }

        // The change of root (§3.2's interface).
        check_pivot_root(&effective)?;

        clock.advance(self.startup_overhead);

        let namespaces = spec.namespaces.clone();
        Ok(Container {
            runtime: *self,
            spec,
            rootfs,
            state: ContainerState::Created,
            hook_state,
            cpu_used: SimSpan::ZERO,
            exit_code: None,
            namespaces,
        })
    }

    /// OCI `start`: prestart hooks, exec, poststart hooks, run the work.
    pub fn start(
        &self,
        container: &mut Container,
        work: ProcessWork,
        host: &MemFs,
        hooks: &HookRegistry,
        clock: &SimClock,
    ) -> Result<(), ContainerError> {
        if container.state != ContainerState::Created {
            return Err(ContainerError::BadState {
                expected: ContainerState::Created,
                actual: container.state,
            });
        }
        if self.supports_oci_hooks {
            let mut spec = container.spec.clone();
            hooks.run_stage(
                HookStage::Prestart,
                &mut container.rootfs,
                &mut spec,
                host,
                &mut container.hook_state,
            )?;
            container.spec = spec;
        }
        container.state = ContainerState::Running;
        if self.supports_oci_hooks {
            let mut spec = container.spec.clone();
            hooks.run_stage(
                HookStage::Poststart,
                &mut container.rootfs,
                &mut spec,
                host,
                &mut container.hook_state,
            )?;
            container.spec = spec;
        }

        // Execute the work: compute + file writes with uid mapping.
        clock.advance(work.compute);
        container.cpu_used += work.compute;
        let proc_uid = container.spec.process.uid;
        let proc_gid = container.spec.process.gid;
        // The uid recorded on disk is the *host* uid the mapping yields;
        // unmapped ids surface as the overflow id (65534, "nobody").
        let disk_uid = container.spec.uid_to_host(proc_uid).unwrap_or(65534);
        let disk_gid = container.spec.gid_to_host(proc_gid).unwrap_or(65534);
        for (path, data) in work.writes {
            let at = VPath::root().join(&path);
            if let Some(parent) = at.parent() {
                container.rootfs.mkdir_p(&parent)?;
            }
            container.rootfs.write(
                &at,
                data,
                Meta {
                    mode: 0o644,
                    uid: disk_uid,
                    gid: disk_gid,
                },
            )?;
        }
        Ok(())
    }

    /// OCI `kill`+`delete`: stop, run poststop hooks.
    pub fn stop(
        &self,
        container: &mut Container,
        exit_code: i32,
        host: &MemFs,
        hooks: &HookRegistry,
        _clock: &SimClock,
    ) -> Result<(), ContainerError> {
        if container.state != ContainerState::Running {
            return Err(ContainerError::BadState {
                expected: ContainerState::Running,
                actual: container.state,
            });
        }
        container.state = ContainerState::Stopped;
        container.exit_code = Some(exit_code);
        if self.supports_oci_hooks {
            let mut spec = container.spec.clone();
            hooks.run_stage(
                HookStage::Poststop,
                &mut container.rootfs,
                &mut spec,
                host,
                &mut container.hook_state,
            )?;
            container.spec = spec;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcc_oci::spec::{HookRef, IdMapping, ProcessSpec};

    fn p(s: &str) -> VPath {
        VPath::parse(s)
    }

    fn spec_rootless(uid: u32) -> RuntimeSpec {
        RuntimeSpec {
            process: ProcessSpec {
                argv: vec!["/bin/app".into()],
                uid: 0, // root inside the container
                gid: 0,
                ..ProcessSpec::default()
            },
            namespaces: Namespace::hpc_set(),
            uid_mappings: vec![IdMapping::identity_single(uid, 0)],
            gid_mappings: vec![IdMapping::identity_single(100, 0)],
            ..RuntimeSpec::default()
        }
    }

    fn run_simple(rt: LowLevelRuntime) -> Container {
        let clock = SimClock::new();
        let hooks = HookRegistry::new();
        let host = MemFs::new();
        let creds = MountCredentials::unprivileged(1000);
        let mut c = rt
            .create(
                spec_rootless(1000),
                MemFs::new(),
                &creds,
                &host,
                &hooks,
                &clock,
            )
            .unwrap();
        rt.start(
            &mut c,
            ProcessWork {
                compute: SimSpan::secs(1),
                writes: vec![("results/out.dat".into(), vec![1, 2, 3])],
            },
            &host,
            &hooks,
            &clock,
        )
        .unwrap();
        rt.stop(&mut c, 0, &host, &hooks, &clock).unwrap();
        c
    }

    #[test]
    fn full_lifecycle() {
        let c = run_simple(crun());
        assert_eq!(c.state(), ContainerState::Stopped);
        assert_eq!(c.exit_code, Some(0));
        assert_eq!(c.cpu_used, SimSpan::secs(1));
    }

    #[test]
    fn container_root_files_map_to_host_uid() {
        // The §3.2 single-user mapping property.
        let c = run_simple(runc());
        let st = c.rootfs.stat(&p("/results/out.dat")).unwrap();
        assert_eq!(
            st.meta.uid, 1000,
            "container-root writes appear as the user"
        );
        assert_eq!(st.meta.gid, 100);
    }

    #[test]
    fn unmapped_uid_becomes_nobody() {
        let clock = SimClock::new();
        let hooks = HookRegistry::new();
        let host = MemFs::new();
        let mut spec = spec_rootless(1000);
        spec.process.uid = 33; // www-data: not in the single-id map
        let rt = crun();
        let mut c = rt
            .create(
                spec,
                MemFs::new(),
                &MountCredentials::unprivileged(1000),
                &host,
                &hooks,
                &clock,
            )
            .unwrap();
        rt.start(
            &mut c,
            ProcessWork {
                compute: SimSpan::ZERO,
                writes: vec![("f".into(), vec![0])],
            },
            &host,
            &hooks,
            &clock,
        )
        .unwrap();
        assert_eq!(c.rootfs.stat(&p("/f")).unwrap().meta.uid, 65534);
    }

    #[test]
    fn rootless_without_userns_is_rejected() {
        let clock = SimClock::new();
        let hooks = HookRegistry::new();
        let host = MemFs::new();
        let mut spec = spec_rootless(1000);
        spec.namespaces = vec![Namespace::Mount]; // no user namespace
        let err = crun()
            .create(
                spec,
                MemFs::new(),
                &MountCredentials::unprivileged(1000),
                &host,
                &hooks,
                &clock,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            ContainerError::Policy(PolicyViolation::PivotRootDenied)
        ));
    }

    #[test]
    fn root_can_skip_userns() {
        let clock = SimClock::new();
        let hooks = HookRegistry::new();
        let host = MemFs::new();
        let mut spec = spec_rootless(0);
        spec.namespaces = vec![Namespace::Mount];
        let c = runc()
            .create(
                spec,
                MemFs::new(),
                &MountCredentials::host_root(),
                &host,
                &hooks,
                &clock,
            )
            .unwrap();
        assert_eq!(c.state(), ContainerState::Created);
    }

    #[test]
    fn non_oci_runtime_rejects_hooks() {
        let clock = SimClock::new();
        let hooks = HookRegistry::new();
        let host = MemFs::new();
        let mut spec = spec_rootless(1000);
        spec.hooks.push(HookRef {
            stage: HookStage::Prestart,
            name: "gpu".into(),
        });
        let err = ch_run()
            .create(
                spec,
                MemFs::new(),
                &MountCredentials::unprivileged(1000),
                &host,
                &hooks,
                &clock,
            )
            .unwrap_err();
        assert!(matches!(err, ContainerError::HooksUnsupported("ch-run")));
    }

    #[test]
    fn hooks_fire_in_lifecycle_order() {
        let clock = SimClock::new();
        let mut hooks = HookRegistry::new();
        for (name, mark) in [
            ("h-create", "create"),
            ("h-prestart", "prestart"),
            ("h-poststart", "poststart"),
            ("h-poststop", "poststop"),
        ] {
            hooks.register(name, move |ctx| {
                let log = ctx.state.entry("log".into()).or_default();
                log.push_str(mark);
                log.push(';');
                Ok(())
            });
        }
        let mut spec = spec_rootless(1000);
        spec.hooks = vec![
            HookRef {
                stage: HookStage::CreateRuntime,
                name: "h-create".into(),
            },
            HookRef {
                stage: HookStage::Prestart,
                name: "h-prestart".into(),
            },
            HookRef {
                stage: HookStage::Poststart,
                name: "h-poststart".into(),
            },
            HookRef {
                stage: HookStage::Poststop,
                name: "h-poststop".into(),
            },
        ];
        let host = MemFs::new();
        let rt = runc();
        let mut c = rt
            .create(
                spec,
                MemFs::new(),
                &MountCredentials::unprivileged(1000),
                &host,
                &hooks,
                &clock,
            )
            .unwrap();
        rt.start(&mut c, ProcessWork::default(), &host, &hooks, &clock)
            .unwrap();
        rt.stop(&mut c, 0, &host, &hooks, &clock).unwrap();
        assert_eq!(
            c.hook_state().get("log").map(String::as_str),
            Some("create;prestart;poststart;poststop;")
        );
    }

    #[test]
    fn lifecycle_misuse_is_rejected() {
        let clock = SimClock::new();
        let hooks = HookRegistry::new();
        let host = MemFs::new();
        let rt = crun();
        let mut c = rt
            .create(
                spec_rootless(1000),
                MemFs::new(),
                &MountCredentials::unprivileged(1000),
                &host,
                &hooks,
                &clock,
            )
            .unwrap();
        // Stop before start.
        assert!(matches!(
            rt.stop(&mut c, 0, &host, &hooks, &clock),
            Err(ContainerError::BadState { .. })
        ));
        rt.start(&mut c, ProcessWork::default(), &host, &hooks, &clock)
            .unwrap();
        // Start twice.
        assert!(matches!(
            rt.start(&mut c, ProcessWork::default(), &host, &hooks, &clock),
            Err(ContainerError::BadState { .. })
        ));
    }

    #[test]
    fn bind_mounts_materialize_host_content() {
        use hpcc_oci::spec::{Mount, MountKind};
        let clock = SimClock::new();
        let hooks = HookRegistry::new();
        let mut host = MemFs::new();
        host.write_p(&p("/opt/cray/lib/libmpi.so"), vec![0x71; 256])
            .unwrap();
        host.write_p(&p("/opt/cray/lib/libfabric.so"), vec![0x1F; 128])
            .unwrap();
        host.write_p(&p("/dev/nvidia0"), b"gpu".to_vec()).unwrap();

        let mut spec = spec_rootless(1000);
        spec.mounts = vec![
            Mount {
                source: "/opt/cray/lib".into(),
                destination: "/usr/lib/host".into(),
                kind: MountKind::Bind,
                read_only: true,
            },
            Mount {
                source: "/dev/nvidia0".into(),
                destination: "/dev/nvidia0".into(),
                kind: MountKind::Device,
                read_only: false,
            },
            Mount {
                source: "".into(),
                destination: "/tmp/scratch".into(),
                kind: MountKind::Tmpfs,
                read_only: false,
            },
        ];
        let c = crun()
            .create(
                spec,
                MemFs::new(),
                &MountCredentials::unprivileged(1000),
                &host,
                &hooks,
                &clock,
            )
            .unwrap();
        assert_eq!(
            &**c.rootfs.read(&p("/usr/lib/host/libmpi.so")).unwrap(),
            &vec![0x71; 256][..]
        );
        assert!(c.rootfs.exists(&p("/usr/lib/host/libfabric.so")));
        assert!(c.rootfs.exists(&p("/dev/nvidia0")));
        assert!(c.rootfs.list(&p("/tmp/scratch")).unwrap().is_empty());
    }

    #[test]
    fn bind_mount_of_missing_source_fails_create() {
        use hpcc_oci::spec::{Mount, MountKind};
        let clock = SimClock::new();
        let hooks = HookRegistry::new();
        let host = MemFs::new();
        let mut spec = spec_rootless(1000);
        spec.mounts = vec![Mount {
            source: "/does/not/exist".into(),
            destination: "/mnt".into(),
            kind: MountKind::Bind,
            read_only: true,
        }];
        assert!(matches!(
            crun().create(
                spec,
                MemFs::new(),
                &MountCredentials::unprivileged(1000),
                &host,
                &hooks,
                &clock
            ),
            Err(ContainerError::Fs(_))
        ));
    }

    #[test]
    fn crun_starts_faster_than_runc() {
        let c1 = SimClock::new();
        let c2 = SimClock::new();
        let hooks = HookRegistry::new();
        let host = MemFs::new();
        let creds = MountCredentials::unprivileged(1000);
        runc()
            .create(
                spec_rootless(1000),
                MemFs::new(),
                &creds,
                &host,
                &hooks,
                &c1,
            )
            .unwrap();
        crun()
            .create(
                spec_rootless(1000),
                MemFs::new(),
                &creds,
                &host,
                &hooks,
                &c2,
            )
            .unwrap();
        assert!(c2.now() < c1.now(), "crun's C implementation starts faster");
    }
}
