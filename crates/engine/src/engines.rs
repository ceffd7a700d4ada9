//! The nine surveyed container engines (Tables 1–3), each a configured
//! [`Engine`] whose capabilities select real code paths in the framework.
//!
//! Versions, champions, affiliations, contributor counts and documentation
//! grades are survey-reported metadata (August 2023); everything else is
//! probed from the running engine by the table generators.

use crate::caps::*;
use crate::engine::Engine;
use hpcc_runtime::container::{ch_run, crun, enroot_exec, runc, shifter_exec};

/// Docker — the cloud baseline: root daemon, full isolation, OCI-native.
pub fn docker() -> Engine {
    Engine::new(
        EngineInfo {
            name: "Docker",
            version: "v24.0.5 (Jul. 24, 2023)",
            champion: "Docker",
            affiliation: "Docker",
            language: "Go",
            contributors: 486,
            docs: ("+++", "+", "+"),
        },
        EngineCaps {
            rootless: vec![RootlessMech::UserNs],
            rootless_fs: vec![RootlessFsMech::FuseOverlayfs],
            monitor: MonitorModel::PerMachineDaemon("dockerd"),
            oci_hooks: HookSupport::Yes,
            oci_container: OciContainerSupport::Full,
            native_format: NativeFormat::OciLayers,
            transparent_conversion: false, // no conversion: OCI is native
            native_caching: false,
            native_sharing: false,
            namespacing: ExecNamespacing::Full,
            signature: SignatureSupport::Notary,
            encryption: EncryptionSupport::ViaExtensions,
            gpu: GpuSupport::ViaOciHooks,
            accel: AccelSupport::ViaOciHooks,
            lib_hookup: LibHookup::ViaOciHooks,
            wlm: WlmIntegration::No,
            module_system: ModuleIntegration::ViaShpc,
            build_tool: true,
            requires_daemon: true,
            abi_checks: false,
        },
        runc(),
    )
}

/// Podman — daemonless Docker-compatible engine.
pub fn podman() -> Engine {
    Engine::new(
        EngineInfo {
            name: "Podman",
            version: "v4.6.1 (Aug. 10, 2023)",
            champion: "RedHat/IBM",
            affiliation: "Kubernetes",
            language: "Go",
            contributors: 461,
            docs: ("+", "N/A", "++"),
        },
        EngineCaps {
            rootless: vec![RootlessMech::UserNs],
            rootless_fs: vec![RootlessFsMech::FuseOverlayfs],
            monitor: MonitorModel::PerContainer("conmon"),
            oci_hooks: HookSupport::Yes,
            oci_container: OciContainerSupport::Full,
            native_format: NativeFormat::OciLayers,
            transparent_conversion: false,
            native_caching: false,
            native_sharing: false,
            namespacing: ExecNamespacing::Full,
            signature: SignatureSupport::GpgSigstore,
            encryption: EncryptionSupport::Yes,
            gpu: GpuSupport::ViaOciHooks,
            accel: AccelSupport::ViaOciHooks,
            lib_hookup: LibHookup::ViaOciHooks,
            wlm: WlmIntegration::No,
            module_system: ModuleIntegration::ViaShpc,
            build_tool: true,
            requires_daemon: false,
            abi_checks: false,
        },
        crun(),
    )
}

/// Podman-HPC — NERSC's wrapper: squash conversion + builtin enablement.
pub fn podman_hpc() -> Engine {
    Engine::new(
        EngineInfo {
            name: "Podman-HPC",
            version: "v1.0.2 (Jun. 15, 2023)",
            champion: "NERSC",
            affiliation: "-",
            language: "Python, C",
            contributors: 3,
            docs: ("N/A", "N/A", "(+)"),
        },
        EngineCaps {
            rootless: vec![RootlessMech::UserNs],
            rootless_fs: vec![RootlessFsMech::SquashFuse, RootlessFsMech::FuseOverlayfs],
            monitor: MonitorModel::PerContainer("conmon"),
            oci_hooks: HookSupport::Yes,
            oci_container: OciContainerSupport::Full,
            native_format: NativeFormat::SquashFile,
            transparent_conversion: true,
            native_caching: true,
            native_sharing: false, // per-user squash cache
            namespacing: ExecNamespacing::UserAndMountPlus,
            signature: SignatureSupport::GpgSigstore,
            encryption: EncryptionSupport::Yes,
            gpu: GpuSupport::Builtin,
            accel: AccelSupport::ViaOciHooksOrPatch,
            lib_hookup: LibHookup::Builtin,
            wlm: WlmIntegration::No,
            module_system: ModuleIntegration::ShpcParenthesized,
            build_tool: true,
            requires_daemon: false,
            abi_checks: false,
        },
        crun(),
    )
}

/// Shifter — NERSC's original suid engine.
pub fn shifter() -> Engine {
    Engine::new(
        EngineInfo {
            name: "Shifter",
            version: "Git 0784ae5 (Oct. 22, 2022)",
            champion: "NERSC",
            affiliation: "-",
            language: "C",
            contributors: 17,
            docs: ("+", "+", "++"),
        },
        EngineCaps {
            rootless: vec![RootlessMech::UserNs],
            rootless_fs: vec![RootlessFsMech::Suid],
            monitor: MonitorModel::None,
            oci_hooks: HookSupport::No,
            oci_container: OciContainerSupport::Partial,
            native_format: NativeFormat::SquashFile,
            transparent_conversion: true,
            native_caching: true,
            native_sharing: false,
            namespacing: ExecNamespacing::UserAndMount,
            signature: SignatureSupport::None,
            encryption: EncryptionSupport::No,
            gpu: GpuSupport::No,
            accel: AccelSupport::No,
            lib_hookup: LibHookup::MpichOnly,
            wlm: WlmIntegration::SpankPlugin,
            module_system: ModuleIntegration::ShpcAnnounced,
            build_tool: false,
            requires_daemon: false,
            abi_checks: false,
        },
        shifter_exec(),
    )
}

/// Sarus — CSCS's OCI-ish suid engine with ABI checks and shared caches.
pub fn sarus() -> Engine {
    Engine::new(
        EngineInfo {
            name: "Sarus",
            version: "v1.6.0 (May 5, 2023)",
            champion: "CSCS",
            affiliation: "-",
            language: "C++",
            contributors: 6,
            docs: ("++", "++", "+"),
        },
        EngineCaps {
            rootless: vec![RootlessMech::UserNs],
            rootless_fs: vec![RootlessFsMech::Suid],
            monitor: MonitorModel::None,
            oci_hooks: HookSupport::Yes,
            oci_container: OciContainerSupport::Partial,
            native_format: NativeFormat::SquashFile,
            transparent_conversion: true,
            native_caching: true,
            native_sharing: true, // the setuid service shares across users
            namespacing: ExecNamespacing::UserAndMount,
            signature: SignatureSupport::None,
            encryption: EncryptionSupport::No,
            gpu: GpuSupport::Builtin,
            accel: AccelSupport::ViaOciHooks,
            lib_hookup: LibHookup::Builtin,
            wlm: WlmIntegration::PartialViaHooks,
            module_system: ModuleIntegration::ShpcAnnounced,
            build_tool: false,
            requires_daemon: false,
            abi_checks: true,
        },
        runc(),
    )
}

/// Charliecloud — LANL's fully unprivileged engine.
pub fn charliecloud() -> Engine {
    Engine::new(
        EngineInfo {
            name: "Charliecloud",
            version: "v0.33 (Jun. 9, 2023)",
            champion: "LANL",
            affiliation: "-",
            language: "C",
            contributors: 31,
            docs: ("+++", "+", "++"),
        },
        EngineCaps {
            rootless: vec![RootlessMech::UserNs],
            rootless_fs: vec![RootlessFsMech::Dir, RootlessFsMech::SquashFuse],
            monitor: MonitorModel::None,
            oci_hooks: HookSupport::No,
            oci_container: OciContainerSupport::Partial,
            native_format: NativeFormat::UnpackedDir,
            transparent_conversion: false, // explicit ch-convert
            native_caching: false,
            native_sharing: false,
            namespacing: ExecNamespacing::UserAndMount,
            signature: SignatureSupport::None,
            encryption: EncryptionSupport::No,
            gpu: GpuSupport::Manual,
            accel: AccelSupport::Manual,
            lib_hookup: LibHookup::Manual,
            wlm: WlmIntegration::NoUnreleasedPlugin,
            module_system: ModuleIntegration::No,
            build_tool: false,
            requires_daemon: false,
            abi_checks: false,
        },
        ch_run(),
    )
}

/// Apptainer — the Linux Foundation fork of Singularity.
pub fn apptainer() -> Engine {
    Engine::new(
        EngineInfo {
            name: "Apptainer",
            version: "v1.2.2 (Jul. 27, 2023)",
            champion: "LLNL, CIQ",
            affiliation: "Linux Foundation",
            language: "Go",
            contributors: 148,
            docs: ("++", "+", "+"),
        },
        EngineCaps {
            rootless: vec![RootlessMech::UserNs, RootlessMech::Fakeroot],
            rootless_fs: vec![
                RootlessFsMech::Suid,
                RootlessFsMech::Fakeroot,
                RootlessFsMech::SquashFuse,
            ],
            monitor: MonitorModel::PerContainer("conmon"),
            oci_hooks: HookSupport::ManualRootOnly,
            oci_container: OciContainerSupport::Partial,
            native_format: NativeFormat::Sif,
            transparent_conversion: true,
            native_caching: true,
            native_sharing: true,
            namespacing: ExecNamespacing::UserAndMountPlus,
            signature: SignatureSupport::GpgSifOnly,
            encryption: EncryptionSupport::SifOnly,
            gpu: GpuSupport::Builtin,
            accel: AccelSupport::No,
            lib_hookup: LibHookup::Manual,
            wlm: WlmIntegration::No,
            module_system: ModuleIntegration::ViaShpc,
            build_tool: true,
            requires_daemon: false,
            abi_checks: false,
        },
        runc(), // Apptainer defaults to runc (§4.1.1)
    )
}

/// SingularityCE — Sylabs' community edition.
pub fn singularity_ce() -> Engine {
    Engine::new(
        EngineInfo {
            name: "SingularityCE",
            version: "v3.11.4 (Jun. 22, 2023)",
            champion: "Sylabs",
            affiliation: "-",
            language: "Go",
            contributors: 130,
            docs: ("++", "N/A", "+"),
        },
        EngineCaps {
            rootless: vec![RootlessMech::UserNs, RootlessMech::Fakeroot],
            rootless_fs: vec![
                RootlessFsMech::Suid,
                RootlessFsMech::Fakeroot,
                RootlessFsMech::SquashFuse,
            ],
            monitor: MonitorModel::PerContainer("conmon"),
            oci_hooks: HookSupport::ManualRootOnly,
            oci_container: OciContainerSupport::Partial,
            native_format: NativeFormat::Sif,
            transparent_conversion: true,
            native_caching: true,
            native_sharing: true,
            namespacing: ExecNamespacing::UserAndMountPlus,
            signature: SignatureSupport::GpgSifOnly,
            encryption: EncryptionSupport::SifOnly,
            gpu: GpuSupport::Builtin,
            accel: AccelSupport::No,
            lib_hookup: LibHookup::Manual,
            wlm: WlmIntegration::No,
            module_system: ModuleIntegration::ViaShpc,
            build_tool: true,
            requires_daemon: false,
            abi_checks: false,
        },
        crun(), // SingularityCE defaults to crun (§4.1.1)
    )
}

/// ENROOT — NVIDIA's unpacked-rootfs engine.
pub fn enroot() -> Engine {
    Engine::new(
        EngineInfo {
            name: "ENROOT",
            version: "v3.4.1 (Feb. 8, 2023)",
            champion: "Nvidia",
            affiliation: "Nvidia",
            language: "C, Bash",
            contributors: 9,
            docs: ("N/A", "N/A", "+"),
        },
        EngineCaps {
            rootless: vec![RootlessMech::UserNs],
            rootless_fs: vec![RootlessFsMech::Dir],
            monitor: MonitorModel::None,
            oci_hooks: HookSupport::Custom,
            oci_container: OciContainerSupport::Partial,
            native_format: NativeFormat::UnpackedDir,
            transparent_conversion: false,
            native_caching: false,
            native_sharing: false,
            namespacing: ExecNamespacing::UserAndMount,
            signature: SignatureSupport::None,
            encryption: EncryptionSupport::No,
            gpu: GpuSupport::NvidiaOnly,
            accel: AccelSupport::ViaCustomHooks,
            lib_hookup: LibHookup::ViaCustomHooks,
            wlm: WlmIntegration::SpankPlugin,
            module_system: ModuleIntegration::No,
            build_tool: false,
            requires_daemon: false,
            abi_checks: false,
        },
        enroot_exec(),
    )
}

/// All nine engines in the paper's row order.
pub fn all() -> Vec<Engine> {
    vec![
        docker(),
        podman(),
        podman_hpc(),
        shifter(),
        sarus(),
        charliecloud(),
        apptainer(),
        singularity_ce(),
        enroot(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineError, Host, MpiFlavor, RunOptions};
    use hpcc_oci::builder::samples;
    use hpcc_oci::cas::Cas;
    use hpcc_registry::registry::{Registry, RegistryCaps};
    use hpcc_runtime::container::ContainerState;
    use hpcc_sim::SimClock;
    use hpcc_vfs::path::VPath;
    use std::sync::Arc;

    fn registry_with_solver() -> Registry {
        let reg = Registry::new("site", RegistryCaps::open());
        reg.create_namespace("hpc", None).unwrap();
        let cas = Cas::new();
        let img = samples::mpi_solver(&cas);
        reg.push_image("hpc/solver", "v1", &img.manifest, &cas)
            .unwrap();
        reg
    }

    #[test]
    fn nine_engines_in_order() {
        let names: Vec<&str> = all().iter().map(|e| e.info.name).collect();
        assert_eq!(
            names,
            vec![
                "Docker",
                "Podman",
                "Podman-HPC",
                "Shifter",
                "Sarus",
                "Charliecloud",
                "Apptainer",
                "SingularityCE",
                "ENROOT"
            ]
        );
    }

    #[test]
    fn every_hpc_engine_deploys_the_solver() {
        let reg = registry_with_solver();
        let host = Host::compute_node();
        for engine in all() {
            if engine.caps.requires_daemon {
                continue; // Docker handled separately
            }
            let clock = SimClock::new();
            let (report, span) = engine
                .deploy(
                    &reg,
                    "hpc/solver",
                    "v1",
                    1000,
                    &host,
                    RunOptions::default(),
                    &clock,
                )
                .unwrap_or_else(|e| panic!("{} failed: {e}", engine.info.name));
            assert_eq!(report.container.state(), ContainerState::Stopped);
            assert!(span > hpcc_sim::SimSpan::ZERO);
        }
    }

    #[test]
    fn docker_needs_its_daemon() {
        let reg = registry_with_solver();
        let engine = docker();
        let clock = SimClock::new();
        let host = Host::compute_node(); // no dockerd
        let err = engine
            .deploy(
                &reg,
                "hpc/solver",
                "v1",
                1000,
                &host,
                RunOptions::default(),
                &clock,
            )
            .unwrap_err();
        assert!(matches!(err, EngineError::DaemonNotRunning("dockerd")));
        // With the daemon it works.
        let host = Host::compute_node().with_daemon("dockerd");
        engine
            .deploy(
                &reg,
                "hpc/solver",
                "v1",
                1000,
                &host,
                RunOptions::default(),
                &clock,
            )
            .unwrap();
    }

    #[test]
    fn root_kinds_match_table1() {
        let reg = registry_with_solver();
        let host = Host::compute_node();
        let expect = [
            ("Podman", "overlay-fuse"),
            ("Podman-HPC", "squash-fuse"),
            ("Shifter", "squash-kernel"),
            ("Sarus", "squash-kernel"),
            ("Charliecloud", "dir"),
            ("Apptainer", "sif-kernel"),
            ("SingularityCE", "sif-kernel"),
            ("ENROOT", "dir"),
        ];
        for (name, kind) in expect {
            let engine = all().into_iter().find(|e| e.info.name == name).unwrap();
            let clock = SimClock::new();
            let pulled = engine.pull(&reg, "hpc/solver", "v1", &clock).unwrap();
            let prepared = engine.prepare(&pulled, 1000, &host, true, &clock).unwrap();
            assert_eq!(prepared.root_kind, kind, "{name}");
        }
    }

    #[test]
    fn charliecloud_and_enroot_require_explicit_conversion() {
        let reg = registry_with_solver();
        let host = Host::compute_node();
        for engine in [charliecloud(), enroot()] {
            let clock = SimClock::new();
            let pulled = engine.pull(&reg, "hpc/solver", "v1", &clock).unwrap();
            assert!(matches!(
                engine.prepare(&pulled, 1000, &host, false, &clock),
                Err(EngineError::ExplicitConversionRequired)
            ));
            engine.prepare(&pulled, 1000, &host, true, &clock).unwrap();
        }
    }

    #[test]
    fn transparent_engines_convert_without_explicit_flag() {
        let reg = registry_with_solver();
        let host = Host::compute_node();
        for engine in [podman_hpc(), shifter(), sarus(), apptainer()] {
            let clock = SimClock::new();
            let pulled = engine.pull(&reg, "hpc/solver", "v1", &clock).unwrap();
            engine
                .prepare(&pulled, 1000, &host, false, &clock)
                .unwrap_or_else(|e| panic!("{}: {e}", engine.info.name));
        }
    }

    #[test]
    fn caching_engines_hit_on_second_prepare() {
        let reg = registry_with_solver();
        let host = Host::compute_node();
        let engine = sarus();
        let clock = SimClock::new();
        let pulled = engine.pull(&reg, "hpc/solver", "v1", &clock).unwrap();
        let p1 = engine.prepare(&pulled, 1000, &host, false, &clock).unwrap();
        assert!(!p1.cache_hit);
        let p2 = engine.prepare(&pulled, 1000, &host, false, &clock).unwrap();
        assert!(p2.cache_hit);
    }

    #[test]
    fn sarus_shares_cache_across_users_podman_hpc_does_not() {
        let reg = registry_with_solver();
        let host = Host::compute_node();
        for (engine, expect_hit) in [(sarus(), true), (podman_hpc(), false)] {
            let clock = SimClock::new();
            let pulled = engine.pull(&reg, "hpc/solver", "v1", &clock).unwrap();
            engine.prepare(&pulled, 1000, &host, false, &clock).unwrap();
            let p = engine.prepare(&pulled, 2000, &host, false, &clock).unwrap();
            assert_eq!(p.cache_hit, expect_hit, "{}", engine.info.name);
        }
    }

    #[test]
    fn gpu_enablement_matrix() {
        let reg = registry_with_solver();
        let host = Host::compute_node();
        let opts = RunOptions {
            gpu: true,
            ..RunOptions::default()
        };
        // Builtin / hook-based engines succeed.
        for engine in [podman(), podman_hpc(), sarus(), apptainer(), enroot()] {
            let clock = SimClock::new();
            let (report, _) = engine
                .deploy(&reg, "hpc/solver", "v1", 1000, &host, opts.clone(), &clock)
                .unwrap_or_else(|e| panic!("{}: {e}", engine.info.name));
            assert_eq!(
                report.state.get("gpu.enabled").map(String::as_str),
                Some("true"),
                "{}",
                engine.info.name
            );
            assert!(report
                .container
                .rootfs
                .exists(&VPath::parse(crate::hookup::HOST_CUDA_LIB)));
        }
        // Shifter has no GPU support; Charliecloud is manual.
        for engine in [shifter(), charliecloud()] {
            let clock = SimClock::new();
            assert!(matches!(
                engine.deploy(&reg, "hpc/solver", "v1", 1000, &host, opts.clone(), &clock),
                Err(EngineError::Unsupported(_))
            ));
        }
    }

    #[test]
    fn shifter_mpi_is_mpich_only() {
        let reg = registry_with_solver();
        let host = Host::compute_node();
        let engine = shifter();
        let clock = SimClock::new();
        let ok = engine.deploy(
            &reg,
            "hpc/solver",
            "v1",
            1000,
            &host,
            RunOptions {
                mpi: Some(MpiFlavor::Mpich),
                ..RunOptions::default()
            },
            &clock,
        );
        ok.unwrap();
        assert!(matches!(
            engine.deploy(
                &reg,
                "hpc/solver",
                "v1",
                1000,
                &host,
                RunOptions {
                    mpi: Some(MpiFlavor::OpenMpi),
                    ..RunOptions::default()
                },
                &clock,
            ),
            Err(EngineError::Unsupported(_))
        ));
    }

    #[test]
    fn sarus_abi_check_runs_on_mpi_hookup() {
        let reg = registry_with_solver();
        let host = Host::compute_node(); // host libs need glibc 2.31
        let engine = sarus();
        let clock = SimClock::new();
        let pulled = engine.pull(&reg, "hpc/solver", "v1", &clock).unwrap();
        let mut prepared = engine.prepare(&pulled, 1000, &host, false, &clock).unwrap();
        crate::hookup::stamp_container_glibc(&mut prepared.rootfs, (2, 34));
        let report = engine
            .run(
                prepared,
                1000,
                &host,
                RunOptions {
                    mpi: Some(MpiFlavor::Mpich),
                    ..RunOptions::default()
                },
                &clock,
            )
            .unwrap();
        assert_eq!(
            report.state.get("abi.checked").map(String::as_str),
            Some("true")
        );
    }

    #[test]
    fn sarus_abi_check_rejects_incompatible_container() {
        let reg = registry_with_solver();
        let mut host = Host::compute_node();
        host.fs = crate::hookup::sample_host_fs((2, 38)); // newer than container glibc
        let engine = sarus();
        let clock = SimClock::new();
        let pulled = engine.pull(&reg, "hpc/solver", "v1", &clock).unwrap();
        let mut prepared = engine.prepare(&pulled, 1000, &host, false, &clock).unwrap();
        crate::hookup::stamp_container_glibc(&mut prepared.rootfs, (2, 31));
        let err = engine
            .run(
                prepared,
                1000,
                &host,
                RunOptions {
                    mpi: Some(MpiFlavor::Mpich),
                    ..RunOptions::default()
                },
                &clock,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::Hook(_) | EngineError::Container(_)
        ));
    }

    #[test]
    fn monitor_models_match_table1() {
        assert!(matches!(
            docker().caps.monitor,
            MonitorModel::PerMachineDaemon("dockerd")
        ));
        assert!(matches!(
            podman().caps.monitor,
            MonitorModel::PerContainer("conmon")
        ));
        assert!(matches!(shifter().caps.monitor, MonitorModel::None));
        assert!(matches!(sarus().caps.monitor, MonitorModel::None));
    }

    #[test]
    fn sif_engines_sign_and_encrypt_others_do_not() {
        use hpcc_crypto::aead::AeadKey;
        use hpcc_crypto::wots::Keypair;
        use hpcc_vfs::fs::MemFs;

        let mut rootfs = MemFs::new();
        rootfs.write_p(&VPath::parse("/bin/x"), vec![1]).unwrap();
        let make_sif = || crate::sif::SifImage::build("From: base", &rootfs).unwrap();

        for engine in [apptainer(), singularity_ce()] {
            let mut sif = make_sif();
            let mut key = Keypair::generate(b"k", 2);
            engine.sign_sif(&mut sif, &mut key).unwrap();
            assert_eq!(engine.verify_sif(&sif).unwrap().len(), 1);
            let aead = AeadKey::derive(b"s");
            engine.encrypt_sif(&mut sif, &aead).unwrap();
            engine.decrypt_sif(&mut sif, &aead).unwrap();
        }
        for engine in [shifter(), sarus(), charliecloud(), enroot()] {
            let mut sif = make_sif();
            let mut key = Keypair::generate(b"k", 2);
            assert!(
                engine.sign_sif(&mut sif, &mut key).is_err(),
                "{}",
                engine.info.name
            );
            let aead = AeadKey::derive(b"s");
            assert!(engine.encrypt_sif(&mut sif, &aead).is_err());
        }
    }

    #[test]
    fn detached_signing_for_industry_engines() {
        use hpcc_crypto::wots::Keypair;
        let reg = registry_with_solver();
        let clock = SimClock::new();
        let engine = podman();
        let pulled = engine.pull(&reg, "hpc/solver", "v1", &clock).unwrap();
        let mut key = Keypair::generate(b"cosign", 2);
        let sig = engine.sign_manifest(&pulled.manifest, &mut key).unwrap();
        assert!(!sig.is_empty());
        // SIF-only engines refuse detached OCI signing (§4.1.5: imported
        // OCI containers are not verified).
        assert!(apptainer()
            .sign_manifest(&pulled.manifest, &mut key)
            .is_err());
        // Shifter has no signing at all.
        assert!(shifter().sign_manifest(&pulled.manifest, &mut key).is_err());
    }

    #[test]
    fn namespacing_full_vs_hpc() {
        let reg = registry_with_solver();
        let host = Host::compute_node();
        // Podman: full isolation set; Sarus: user+mount only.
        for (engine, expect_net) in [(podman(), true), (sarus(), false)] {
            let clock = SimClock::new();
            let (report, _) = engine
                .deploy(
                    &reg,
                    "hpc/solver",
                    "v1",
                    1000,
                    &host,
                    RunOptions::default(),
                    &clock,
                )
                .unwrap();
            use hpcc_oci::spec::Namespace;
            assert_eq!(
                report.container.namespaces.contains(&Namespace::Network),
                expect_net,
                "{}",
                engine.info.name
            );
        }
    }

    #[test]
    fn files_written_in_container_get_user_uid() {
        let reg = registry_with_solver();
        let host = Host::compute_node();
        let engine = sarus();
        let clock = SimClock::new();
        let opts = RunOptions {
            work: hpcc_runtime::container::ProcessWork {
                compute: hpcc_sim::SimSpan::secs(1),
                writes: vec![("results/out.h5".into(), vec![0xDA; 64])],
            },
            ..RunOptions::default()
        };
        let (report, _) = engine
            .deploy(&reg, "hpc/solver", "v1", 4242, &host, opts, &clock)
            .unwrap();
        let st = report
            .container
            .rootfs
            .stat(&VPath::parse("/results/out.h5"))
            .unwrap();
        assert_eq!(st.meta.uid, 4242);
    }

    /// A registry holding `hpc/secret:v1`, the solver image with its
    /// layers encrypted under `key`.
    fn registry_with_secret(key: &hpcc_crypto::aead::AeadKey) -> Registry {
        let cas = Cas::new();
        let img = samples::mpi_solver(&cas);
        let enc_manifest = hpcc_oci::encryption::encrypt_layers(&img.manifest, &cas, key).unwrap();
        let reg = Registry::new("enc", hpcc_registry::registry::RegistryCaps::open());
        reg.create_namespace("hpc", None).unwrap();
        reg.push_image("hpc/secret", "v1", &enc_manifest, &cas)
            .unwrap();
        reg
    }

    #[test]
    fn encrypted_layer_images_work_for_full_encryption_engines() {
        use hpcc_crypto::aead::AeadKey;
        let key = AeadKey::derive(b"ocicrypt-key");
        let reg = registry_with_secret(&key);

        let host = Host::compute_node();
        let clock = SimClock::new();
        // Podman (encryption: yes) decrypts and runs.
        let engine = podman();
        let pulled = engine
            .pull_with_decryption(&reg, "hpc/secret", "v1", Some(&key), &clock)
            .unwrap();
        let prepared = engine.prepare(&pulled, 1000, &host, true, &clock).unwrap();
        assert!(prepared
            .rootfs
            .exists(&VPath::parse("/opt/solver/bin/solve")));
        // Wrong key fails.
        let wrong = AeadKey::derive(b"wrong");
        assert!(engine
            .pull_with_decryption(&reg, "hpc/secret", "v1", Some(&wrong), &clock)
            .is_err());
        // Shifter (no encryption) refuses encrypted content outright.
        assert!(matches!(
            shifter().pull_with_decryption(&reg, "hpc/secret", "v1", Some(&key), &clock),
            Err(EngineError::Unsupported(_))
        ));
        // Plain images pass through the same entry point.
        let reg2 = registry_with_solver();
        let plain = engine
            .pull_with_decryption(&reg2, "hpc/solver", "v1", None, &clock)
            .unwrap();
        assert_eq!(plain.layers.len(), 3);
    }

    /// The encrypted path is the ordinary pull ladder: a 50 ms registry
    /// blip is retried through, under the same `engine.pull` span.
    #[test]
    fn encrypted_pull_retries_through_a_registry_blip() {
        use hpcc_crypto::aead::AeadKey;
        use hpcc_sim::{FaultInjector, FaultKind, FaultRule, SimSpan, SimTime, Tracer};
        let key = AeadKey::derive(b"ocicrypt-key");
        let reg = registry_with_secret(&key);
        let blip = SimTime::ZERO + SimSpan::millis(50);
        let inj = Arc::new(FaultInjector::new(
            3,
            vec![FaultRule::sticky(
                FaultKind::RegistryUnavailable,
                SimTime::ZERO,
                blip,
            )],
        ));
        reg.set_fault_injector(Arc::clone(&inj));
        let engine = podman();
        engine.set_fault_injector(Arc::clone(&inj));
        let tracer = Tracer::new();
        engine.set_tracer(Arc::clone(&tracer));

        let clock = SimClock::new();
        let pulled = engine
            .pull_with_decryption(&reg, "hpc/secret", "v1", Some(&key), &clock)
            .unwrap();
        assert_eq!(pulled.layers.len(), 3);
        assert!(clock.now() > blip, "the pull waited the blip out");
        assert_eq!(inj.metrics().get("retry.engine.pull.recovered"), 1);
        let spans = tracer.finished();
        let pulls = spans.iter().filter(|s| s.name.as_str() == "engine.pull");
        assert_eq!(
            pulls.count(),
            1,
            "one engine.pull span covers the encrypted pull"
        );
    }

    #[test]
    fn digest_pinned_references_are_immutable() {
        use hpcc_oci::reference::ImageRef;
        let reg = registry_with_solver();
        let engine = podman();
        let clock = SimClock::new();
        // Pin to the real digest: pull succeeds.
        let (manifest, _) = reg
            .pull_manifest("hpc/solver", "v1", hpcc_sim::SimTime::ZERO)
            .unwrap();
        let pinned = ImageRef::new("site", "hpc/solver", "v1").with_digest(manifest.digest());
        engine.pull_ref(&reg, &pinned, &clock).unwrap();
        // Pin to a different digest: the pull is rejected even though the
        // tag resolves (tag moved / registry compromised).
        let wrong = ImageRef::new("site", "hpc/solver", "v1")
            .with_digest(hpcc_crypto::sha256::sha256(b"other manifest"));
        assert!(matches!(
            engine.pull_ref(&reg, &wrong, &clock),
            Err(EngineError::Cas(_))
        ));
        // Unpinned references just pull.
        let plain = ImageRef::new("site", "hpc/solver", "v1");
        engine.pull_ref(&reg, &plain, &clock).unwrap();
    }

    #[test]
    fn rootless_builds_follow_fakeroot_rules() {
        use hpcc_oci::builder::ImageBuilder;
        use hpcc_runtime::caps::{CapSet, Capability};
        use hpcc_runtime::fakeroot::{FakerootMode, HostConfig, SyscallWorkload};

        let workload = |static_binary| SyscallWorkload {
            intercepted_syscalls: 10_000,
            other_syscalls: 40_000,
            compute: hpcc_sim::SimSpan::millis(50),
            static_binary,
        };
        let builder = || {
            ImageBuilder::from_scratch().run("install", |fs| {
                fs.write_p(&VPath::parse("/opt/pkg/bin/tool"), vec![0xAA; 512])
                    .map_err(|e| e.to_string())
            })
        };

        // Apptainer supports both userns and fakeroot builds.
        let apptainer = apptainer();
        let cas = Cas::new();
        let clock = SimClock::new();
        let img = apptainer
            .build_rootless(
                &cas,
                builder(),
                FakerootMode::UserNs,
                workload(false),
                &CapSet::empty(),
                HostConfig::default(),
                &clock,
            )
            .unwrap();
        assert!(cas.has(&img.manifest.digest()));

        // LD_PRELOAD fakeroot fails on static build tooling.
        let err = apptainer
            .build_rootless(
                &cas,
                builder(),
                FakerootMode::LdPreload,
                workload(true),
                &CapSet::empty(),
                HostConfig::default(),
                &clock,
            )
            .unwrap_err();
        assert!(err.to_string().contains("statically linked"));

        // ptrace fakeroot needs the capability...
        assert!(apptainer
            .build_rootless(
                &cas,
                builder(),
                FakerootMode::Ptrace,
                workload(true),
                &CapSet::empty(),
                HostConfig::default(),
                &clock,
            )
            .is_err());
        // ...and succeeds with it, even on static binaries.
        apptainer
            .build_rootless(
                &cas,
                builder(),
                FakerootMode::Ptrace,
                workload(true),
                &CapSet::empty().with(Capability::SysPtrace),
                HostConfig::default(),
                &clock,
            )
            .unwrap();

        // Podman has no fakeroot mechanism — userns builds only.
        let podman = podman();
        assert!(podman
            .build_rootless(
                &cas,
                builder(),
                FakerootMode::LdPreload,
                workload(false),
                &CapSet::empty(),
                HostConfig::default(),
                &clock,
            )
            .is_err());
        podman
            .build_rootless(
                &cas,
                builder(),
                FakerootMode::UserNs,
                workload(false),
                &CapSet::empty(),
                HostConfig::default(),
                &clock,
            )
            .unwrap();

        // Shifter ships no build tool at all (Table 3).
        assert!(matches!(
            shifter().build_rootless(
                &cas,
                builder(),
                FakerootMode::UserNs,
                workload(false),
                &CapSet::empty(),
                HostConfig::default(),
                &clock,
            ),
            Err(EngineError::Unsupported("image building"))
        ));
    }

    #[test]
    fn userns_disabled_host_blocks_rootless_engines() {
        let reg = registry_with_solver();
        let mut host = Host::compute_node();
        host.userns_enabled = false;
        let engine = podman();
        let clock = SimClock::new();
        assert!(engine
            .deploy(
                &reg,
                "hpc/solver",
                "v1",
                1000,
                &host,
                RunOptions::default(),
                &clock
            )
            .is_err());
    }
}
