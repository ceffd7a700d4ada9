//! Live feature probes: run each engine/registry through the behaviours
//! the survey tables compare, deriving cell values from what actually
//! happened.

use crate::workloads::site_registry_with_samples;
use hpcc_crypto::aead::AeadKey;
use hpcc_crypto::wots::Keypair;
use hpcc_engine::caps::MonitorModel;
use hpcc_engine::engine::{DeployRequest, Engine, EngineError, Host, MpiFlavor, RunOptions};
use hpcc_engine::shpc;
use hpcc_engine::sif::SifImage;
use hpcc_oci::image::MediaType;
use hpcc_oci::spec::Namespace;
use hpcc_registry::products::RegistryProduct;
use hpcc_registry::proxy::{mirror_sync, ProxyRegistry};
use hpcc_registry::registry::{Protocol, Registry, RegistryCaps};
use hpcc_sim::{SimClock, SimTime};
use hpcc_vfs::fs::MemFs;
use hpcc_vfs::path::VPath;
use std::sync::Arc;

/// Observed behaviour of one engine.
#[derive(Debug, Clone)]
pub(crate) struct EngineProbe {
    /// Deploys as an unprivileged user with no daemons running.
    pub rootless_ok: bool,
    /// The root filesystem mechanism observed (`prepare().root_kind`).
    pub root_kind: &'static str,
    /// Converts OCI→native without an explicit step.
    pub transparent_conversion: Option<bool>,
    /// Second prepare hits the conversion cache.
    pub caching: Option<bool>,
    /// Cache hit across different users.
    pub sharing: Option<bool>,
    /// Network namespace present at execution (full isolation marker).
    pub netns_on_exec: bool,
    /// Detached OCI-manifest signing worked.
    pub oci_signing: bool,
    /// SIF signing worked.
    pub sif_signing: bool,
    /// SIF encryption worked.
    pub encryption: bool,
    /// GPU-enabled deploy succeeded (driver stack visible in container).
    pub gpu: bool,
    /// MPICH hookup succeeded.
    pub mpi_mpich: bool,
    /// OpenMPI hookup succeeded.
    pub mpi_openmpi: bool,
    /// shpc module generation worked.
    pub module_system: bool,
    /// Monitor processes observed.
    pub monitor: MonitorModel,
}

/// Run every probe against one engine.
pub(crate) fn probe_engine(engine: &Engine) -> EngineProbe {
    let registry = site_registry_with_samples(60);
    let host = Host::compute_node();
    let daemon_host = Host::compute_node().with_daemon("dockerd");
    let user = 1000;

    // Rootless deploy without daemons.
    let rootless_ok = {
        let clock = SimClock::new();
        engine
            .deploy(
                &DeployRequest::new(&registry, "hpc/solver", "v1", user, &host),
                &clock,
            )
            .is_ok()
    };
    let needs_daemon = {
        let clock = SimClock::new();
        matches!(
            engine.deploy(
                &DeployRequest::new(&registry, "hpc/solver", "v1", user, &host),
                &clock
            ),
            Err(EngineError::DaemonNotRunning(_))
        )
    };
    let active_host = if needs_daemon { &daemon_host } else { &host };

    // Prepare-path observations.
    let clock = SimClock::new();
    let pulled = engine
        .pull(&registry, "hpc/solver", "v1", &clock)
        .expect("pull succeeds");
    let prepared = engine
        .prepare(&pulled, user, active_host, true, &clock)
        .expect("prepare succeeds");
    let root_kind = prepared.root_kind;

    let native = matches!(
        engine.caps.native_format,
        hpcc_engine::caps::NativeFormat::OciLayers
    );
    let transparent_conversion = if native {
        None // no conversion involved at all
    } else {
        Some(
            engine
                .prepare(&pulled, user, active_host, false, &clock)
                .is_ok(),
        )
    };
    let caching = if native {
        None
    } else {
        Some(
            engine
                .prepare(&pulled, user, active_host, true, &clock)
                .map(|p| p.cache_hit)
                .unwrap_or(false),
        )
    };
    let sharing = if native {
        None
    } else {
        Some(
            engine
                .prepare(&pulled, 4321, active_host, true, &clock)
                .map(|p| p.cache_hit)
                .unwrap_or(false),
        )
    };

    // Execution namespacing.
    let netns_on_exec = {
        let clock = SimClock::new();
        engine
            .deploy(
                &DeployRequest::new(&registry, "hpc/solver", "v1", user, active_host),
                &clock,
            )
            .map(|(r, ..)| r.container.namespaces.contains(&Namespace::Network))
            .unwrap_or(false)
    };

    // Signing and encryption.
    let mut key = Keypair::generate(b"probe-key", 4);
    let oci_signing = engine.sign_manifest(&pulled.manifest, &mut key).is_ok();
    let mut rootfs = MemFs::new();
    rootfs.write_p(&VPath::parse("/bin/x"), vec![1]).unwrap();
    let sif_signing = {
        let mut sif = SifImage::build("From: probe", &rootfs).unwrap();
        engine.sign_sif(&mut sif, &mut key).is_ok()
    };
    let encryption = {
        let mut sif = SifImage::build("From: probe", &rootfs).unwrap();
        engine
            .encrypt_sif(&mut sif, &AeadKey::derive(b"probe"))
            .is_ok()
    };

    // GPU / MPI enablement.
    let deploy_with = |opts: RunOptions| {
        let clock = SimClock::new();
        engine
            .deploy(
                &DeployRequest {
                    opts,
                    ..DeployRequest::new(&registry, "hpc/solver", "v1", user, active_host)
                },
                &clock,
            )
            .is_ok()
    };
    let gpu = deploy_with(RunOptions {
        gpu: true,
        ..RunOptions::default()
    });
    let mpi_mpich = deploy_with(RunOptions {
        mpi: Some(MpiFlavor::Mpich),
        ..RunOptions::default()
    });
    let mpi_openmpi = deploy_with(RunOptions {
        mpi: Some(MpiFlavor::OpenMpi),
        ..RunOptions::default()
    });

    let module_system = shpc::generate_module(engine, "hpc/solver", "v1", &["solve"]).is_ok();

    EngineProbe {
        rootless_ok,
        root_kind,
        transparent_conversion,
        caching,
        sharing,
        netns_on_exec,
        oci_signing,
        sif_signing,
        encryption,
        gpu,
        mpi_mpich,
        mpi_openmpi,
        module_system,
        monitor: engine.caps.monitor,
    }
}

/// Observed behaviour of one registry product.
#[derive(Debug, Clone)]
pub(crate) struct RegistryProbe {
    /// Protocols that answered.
    pub oci: bool,
    pub library_api: bool,
    /// Artifact types accepted on push.
    pub helm: bool,
    pub cosign_artifacts: bool,
    pub user_defined: bool,
    /// Proxy pull-through worked.
    pub proxying: bool,
    /// Mirror sync into this registry worked.
    pub mirroring: bool,
    /// Namespace creation worked.
    pub multi_tenancy: bool,
    /// Quota enforcement observed.
    pub quota_enforced: bool,
    /// Signature attachment + retrieval worked.
    pub signing: bool,
    /// Squash-on-demand produced a runnable image.
    pub squashing: bool,
}

fn push_probe_image(reg: &Registry, repo: &str) -> Option<hpcc_oci::image::Manifest> {
    let cas = hpcc_oci::cas::Cas::new();
    let img = hpcc_oci::builder::samples::base_os(&cas);
    reg.push_image(repo, "v1", &img.manifest, &cas).ok()?;
    Some(img.manifest)
}

/// Run every probe against one registry product.
pub(crate) fn probe_registry(product: &RegistryProduct) -> RegistryProbe {
    let reg = &product.registry;

    // Multi-tenancy first (repos below live in this namespace when it
    // exists).
    let multi_tenancy = reg.create_namespace("probe", None).is_ok();
    let repo = if multi_tenancy { "probe/app" } else { "app" };

    let oci_manifest = push_probe_image(reg, repo);
    let oci = oci_manifest.is_some();

    let library_api = reg
        .library_push("probe/collection/app", "v1", b"SIF".to_vec())
        .is_ok();

    let push_artifact = |mt: MediaType, payload: &[u8]| {
        let d = hpcc_crypto::sha256::sha256(payload);
        reg.push_blob(mt, d, payload.to_vec()).is_ok()
    };
    let helm = push_artifact(MediaType::HelmChart, b"helm-chart");
    let cosign_artifacts = push_artifact(MediaType::Signature, b"cosign-sig");
    let user_defined = push_artifact(MediaType::UserDefined, b"custom-artifact");

    // Proxying: can this product act as a pull-through cache?
    let proxying = {
        let upstream = Registry::new("upstream", RegistryCaps::open());
        upstream.create_namespace("lib", None).unwrap();
        push_probe_image(&upstream, "lib/base");
        // Build a fresh instance of the same product as the local cache.
        let fresh = fresh_product(product.info.name);
        match ProxyRegistry::new(Arc::new(fresh), Arc::new(upstream)) {
            Ok(proxy) => proxy.pull_manifest("lib/base", "v1", SimTime::ZERO).is_ok(),
            Err(_) => false,
        }
    };

    // Mirroring: sync a repo from a source into this product.
    let mirroring = {
        let src = Registry::new("src", RegistryCaps::open());
        src.create_namespace("lib", None).unwrap();
        push_probe_image(&src, "lib/base");
        let dst = fresh_product(product.info.name);
        mirror_sync(&src, &dst, &["lib/base"]).is_ok()
    };

    // Quota: a tiny namespace must reject a push.
    let quota_enforced = {
        let fresh = fresh_product(product.info.name);
        match fresh.create_namespace("tiny", Some(16)) {
            Ok(()) => push_probe_image(&fresh, "tiny/app").is_none(),
            Err(_) => false,
        }
    };

    let signing = match &oci_manifest {
        Some(m) => {
            reg.attach_signature(m.digest(), b"sig".to_vec()).is_ok()
                && reg
                    .signatures_of(&m.digest())
                    .map(|v| !v.is_empty())
                    .unwrap_or(false)
        }
        None => false,
    };

    let squashing = oci && reg.squash_on_demand(repo, "v1").is_ok();

    RegistryProbe {
        oci: oci
            || reg
                .caps()
                .protocols
                .iter()
                .any(|p| matches!(p, Protocol::OciV1 | Protocol::OciV2)),
        library_api,
        helm,
        cosign_artifacts,
        user_defined,
        proxying,
        mirroring,
        multi_tenancy,
        quota_enforced,
        signing,
        squashing,
    }
}

/// A fresh instance of a product by name (probes that need clean state).
fn fresh_product(name: &str) -> Registry {
    use hpcc_registry::products;
    let product = match name {
        "Quay" => products::quay(),
        "Harbor" => products::harbor(),
        "GitLab" => products::gitlab(),
        "Gitea" => products::gitea(),
        "shpc" => products::shpc(),
        "Hinkskalle" => products::hinkskalle(),
        "zot" => products::zot(),
        other => panic!("unknown product {other}"),
    };
    product.registry
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcc_engine::engines;
    use hpcc_registry::products;

    #[test]
    fn podman_probe_matches_table_rows() {
        let p = probe_engine(&engines::podman());
        assert!(p.rootless_ok);
        assert_eq!(p.root_kind, "overlay-fuse");
        assert!(p.netns_on_exec, "full isolation");
        assert!(p.oci_signing);
        assert!(!p.sif_signing);
        assert!(p.gpu && p.mpi_mpich && p.mpi_openmpi);
        assert!(p.module_system);
    }

    #[test]
    fn shifter_probe_matches_table_rows() {
        let p = probe_engine(&engines::shifter());
        assert!(p.rootless_ok);
        assert_eq!(p.root_kind, "squash-kernel");
        assert_eq!(p.transparent_conversion, Some(true));
        assert_eq!(p.caching, Some(true));
        assert_eq!(p.sharing, Some(false));
        assert!(!p.netns_on_exec);
        assert!(!p.oci_signing && !p.sif_signing && !p.encryption);
        assert!(!p.gpu);
        assert!(p.mpi_mpich && !p.mpi_openmpi, "MPICH only");
        assert!(!p.module_system);
    }

    #[test]
    fn apptainer_probe_matches_table_rows() {
        let p = probe_engine(&engines::apptainer());
        assert_eq!(p.root_kind, "sif-kernel");
        assert_eq!(p.sharing, Some(true));
        assert!(p.sif_signing && !p.oci_signing);
        assert!(p.encryption);
        assert!(p.gpu);
    }

    #[test]
    fn docker_probe_needs_daemon() {
        let p = probe_engine(&engines::docker());
        assert!(!p.rootless_ok);
        assert_eq!(
            p.root_kind, "overlay-kernel",
            "prepared on the dockerd host"
        );
    }

    #[test]
    fn registry_probes_match_table_rows() {
        let quay = probe_registry(&products::quay());
        assert!(quay.oci && !quay.library_api);
        assert!(quay.proxying && quay.mirroring);
        assert!(quay.multi_tenancy && quay.quota_enforced);
        assert!(quay.squashing, "Quay squashes on demand");

        let gitea = probe_registry(&products::gitea());
        assert!(!gitea.proxying && !gitea.mirroring);
        assert!(!gitea.multi_tenancy && !gitea.signing);
        assert!(gitea.helm);

        let shpc = probe_registry(&products::shpc());
        assert!(shpc.library_api);
        assert!(!shpc.user_defined);

        let hink = probe_registry(&products::hinkskalle());
        assert!(hink.library_api && hink.oci);
    }
}
