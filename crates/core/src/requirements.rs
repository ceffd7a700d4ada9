//! Site requirements and technology selection — the survey's "decision
//! document for supercomputer operation centers" (§7) made executable.
//!
//! A site states its constraints ([`SiteRequirements`]); the selector
//! scores every engine/registry against them, disqualifying candidates
//! that violate hard requirements and ranking the rest. The scoring reads
//! the same capability structures the Table 1–5 probes exercise.

use hpcc_engine::caps::{
    EncryptionSupport, GpuSupport, HookSupport, LibHookup, ModuleIntegration, MonitorModel,
    OciContainerSupport, RootlessFsMech, SignatureSupport, WlmIntegration,
};
use hpcc_engine::engine::Engine;
use hpcc_registry::products::RegistryProduct;
use hpcc_registry::registry::{MirrorMode, ProxyMode, Tenancy};
use serde::{Deserialize, Serialize};

/// What a site demands from its container stack.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SiteRequirements {
    /// Containers must start without root daemons (§3.2).
    pub no_root_daemons: bool,
    /// setuid-root helpers are acceptable (some sites forbid them).
    pub setuid_allowed: bool,
    /// Automatic GPU enablement needed.
    pub gpu: bool,
    /// Automatic host-MPI hookup needed.
    pub mpi: bool,
    /// Slurm integration (SPANK or hooks) needed.
    pub wlm_integration: bool,
    /// Signature verification needed.
    pub signing: bool,
    /// Encrypted containers needed.
    pub encryption: bool,
    /// Module-system integration desired.
    pub module_system: bool,
    /// Full (unmodified) OCI container compatibility needed.
    pub full_oci: bool,
    /// Sharing converted images between users desired (saves storage and
    /// conversion time; requires trusted service or setuid).
    pub shared_cache: bool,
}

impl SiteRequirements {
    /// A conservative HPC centre: rootless mandatory, no setuid, GPU+MPI.
    pub fn strict_hpc() -> SiteRequirements {
        SiteRequirements {
            no_root_daemons: true,
            setuid_allowed: false,
            gpu: true,
            mpi: true,
            wlm_integration: false,
            signing: false,
            encryption: false,
            module_system: true,
            full_oci: false,
            shared_cache: false,
        }
    }

    /// A centre that accepts setuid helpers and wants WLM integration.
    pub fn classic_hpc() -> SiteRequirements {
        SiteRequirements {
            no_root_daemons: true,
            setuid_allowed: true,
            gpu: true,
            mpi: true,
            wlm_integration: true,
            signing: false,
            encryption: false,
            module_system: false,
            full_oci: false,
            shared_cache: true,
        }
    }

    /// A cloud-converged site wanting unmodified OCI workloads + signing.
    pub fn cloud_converged() -> SiteRequirements {
        SiteRequirements {
            no_root_daemons: true,
            setuid_allowed: false,
            gpu: true,
            mpi: false,
            wlm_integration: false,
            signing: true,
            encryption: true,
            module_system: false,
            full_oci: true,
            shared_cache: false,
        }
    }
}

/// The verdict for one engine.
#[derive(Debug, Clone, Serialize)]
pub struct EngineScore {
    pub name: &'static str,
    /// Points for satisfied soft requirements.
    pub score: i32,
    /// Hard violations; non-empty = disqualified.
    pub violations: Vec<String>,
}

impl EngineScore {
    pub fn qualified(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Score one engine against requirements.
pub(crate) fn score_engine(engine: &Engine, req: &SiteRequirements) -> EngineScore {
    let caps = &engine.caps;
    let mut violations = Vec::new();
    let mut score = 0;

    if req.no_root_daemons && caps.requires_daemon {
        violations.push("requires a per-machine root daemon".to_string());
    }
    if !req.setuid_allowed
        && caps.rootless_fs.contains(&RootlessFsMech::Suid)
        && !caps.rootless_fs.iter().any(|m| {
            matches!(
                m,
                RootlessFsMech::SquashFuse | RootlessFsMech::Dir | RootlessFsMech::FuseOverlayfs
            )
        })
    {
        violations.push("only setuid-based filesystem mounting available".to_string());
    }
    if req.gpu {
        match caps.gpu {
            GpuSupport::Builtin | GpuSupport::ViaOciHooks | GpuSupport::NvidiaOnly => score += 2,
            GpuSupport::Manual => score -= 1,
            GpuSupport::No => violations.push("no GPU enablement".to_string()),
        }
    }
    if req.mpi {
        match caps.lib_hookup {
            LibHookup::Builtin | LibHookup::ViaOciHooks | LibHookup::ViaCustomHooks => score += 2,
            LibHookup::MpichOnly => score += 1,
            LibHookup::Manual => score -= 1,
        }
    }
    if req.wlm_integration {
        match caps.wlm {
            WlmIntegration::SpankPlugin => score += 2,
            WlmIntegration::PartialViaHooks => score += 1,
            WlmIntegration::No | WlmIntegration::NoUnreleasedPlugin => {
                violations.push("no WLM integration".to_string())
            }
        }
    }
    if req.signing {
        match caps.signature {
            SignatureSupport::Notary | SignatureSupport::GpgSigstore => score += 2,
            SignatureSupport::GpgSifOnly => score += 1,
            SignatureSupport::None => violations.push("no signature support".to_string()),
        }
    }
    if req.encryption {
        match caps.encryption {
            EncryptionSupport::Yes => score += 2,
            EncryptionSupport::SifOnly => score += 1,
            EncryptionSupport::ViaExtensions => {}
            EncryptionSupport::No => violations.push("no encryption support".to_string()),
        }
    }
    if req.module_system {
        match caps.module_system {
            ModuleIntegration::ViaShpc => score += 2,
            ModuleIntegration::ShpcParenthesized => score += 1,
            ModuleIntegration::ShpcAnnounced | ModuleIntegration::No => {}
        }
    }
    if req.full_oci {
        match caps.oci_container {
            OciContainerSupport::Full => score += 2,
            OciContainerSupport::Partial => {
                violations.push("breaks OCI container expectations".to_string())
            }
        }
    }
    if req.shared_cache && caps.native_sharing {
        score += 2;
    }
    // General soft signals.
    if caps.transparent_conversion {
        score += 1;
    }
    if caps.native_caching {
        score += 1;
    }
    if matches!(caps.oci_hooks, HookSupport::Yes) {
        score += 1;
    }
    if matches!(caps.monitor, MonitorModel::None) {
        // No extra per-container processes: less jitter (§3.2).
        score += 1;
    }
    // Community size as a weak tie-breaker (survey §4.1.9).
    score += (engine.info.contributors / 100) as i32;

    EngineScore {
        name: engine.info.name,
        score,
        violations,
    }
}

/// Rank all engines for a site: qualified first by descending score, then
/// disqualified.
pub fn select_engine(engines: &[Engine], req: &SiteRequirements) -> Vec<EngineScore> {
    let mut scores: Vec<EngineScore> = engines.iter().map(|e| score_engine(e, req)).collect();
    scores.sort_by(|a, b| {
        b.qualified()
            .cmp(&a.qualified())
            .then(b.score.cmp(&a.score))
            .then(a.name.cmp(b.name))
    });
    scores
}

/// Registry requirements.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RegistryRequirements {
    /// Proxying/pull-through caching needed (§5.1.3).
    pub proxying: bool,
    pub mirroring: bool,
    /// User-defined OCI artifacts needed ("crucial for the Adaptive
    /// Containerization feature", §5.1.2).
    pub user_defined_artifacts: bool,
    pub multi_tenancy: bool,
    pub quotas: bool,
    pub signing: bool,
}

impl RegistryRequirements {
    /// The paper's §5.2 conclusion criteria.
    pub fn hpc_centric() -> RegistryRequirements {
        RegistryRequirements {
            proxying: true,
            mirroring: true,
            user_defined_artifacts: true,
            multi_tenancy: true,
            quotas: true,
            signing: true,
        }
    }
}

/// The verdict for one registry.
#[derive(Debug, Clone, Serialize)]
pub struct RegistryScore {
    pub name: &'static str,
    pub score: i32,
    pub violations: Vec<String>,
}

impl RegistryScore {
    pub fn qualified(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Score one registry product.
pub(crate) fn score_registry(
    product: &RegistryProduct,
    req: &RegistryRequirements,
) -> RegistryScore {
    let caps = product.registry.caps();
    let mut violations = Vec::new();
    let mut score = 0;

    if req.proxying {
        match caps.proxying {
            ProxyMode::Auto => score += 2,
            ProxyMode::Manual => score += 1,
            ProxyMode::None => violations.push("no proxying".to_string()),
        }
    }
    if req.mirroring {
        match caps.mirroring {
            MirrorMode::PushAndPull => score += 2,
            MirrorMode::Pull | MirrorMode::Manual => score += 1,
            MirrorMode::None => violations.push("no mirroring".to_string()),
        }
    }
    if req.user_defined_artifacts
        && !caps
            .extra_artifacts
            .contains(&hpcc_oci::image::MediaType::UserDefined)
    {
        // Quay accepts many artifact kinds; only full user-defined support
        // scores the full points.
        if caps.extra_artifacts.is_empty() {
            violations.push("no OCI artifact support".to_string());
        }
    } else if req.user_defined_artifacts {
        score += 2;
    }
    if req.multi_tenancy {
        match caps.tenancy {
            Tenancy::Organization | Tenancy::Project => score += 2,
            Tenancy::None => violations.push("no multi-tenancy".to_string()),
        }
    }
    if req.quotas {
        if caps.quotas {
            score += 1;
        } else {
            violations.push("no quotas".to_string());
        }
    }
    if req.signing {
        if caps.signing {
            score += 1;
        } else {
            violations.push("no signature storage".to_string());
        }
    }

    RegistryScore {
        name: product.info.name,
        score,
        violations,
    }
}

/// Rank all registries for a site.
pub fn select_registry(
    products: &[RegistryProduct],
    req: &RegistryRequirements,
) -> Vec<RegistryScore> {
    let mut scores: Vec<RegistryScore> = products.iter().map(|p| score_registry(p, req)).collect();
    scores.sort_by(|a, b| {
        b.qualified()
            .cmp(&a.qualified())
            .then(b.score.cmp(&a.score))
            .then(a.name.cmp(b.name))
    });
    scores
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcc_engine::engines;
    use hpcc_registry::products;

    #[test]
    fn docker_disqualified_for_daemonless_sites() {
        let scores = select_engine(&engines::all(), &SiteRequirements::strict_hpc());
        let docker = scores.iter().find(|s| s.name == "Docker").unwrap();
        assert!(!docker.qualified());
        assert!(docker.violations[0].contains("daemon"));
    }

    #[test]
    fn strict_hpc_prefers_userns_fuse_engines() {
        let scores = select_engine(&engines::all(), &SiteRequirements::strict_hpc());
        let top = &scores[0];
        assert!(top.qualified());
        // Shifter (suid-only, no GPU) must not win a strict no-suid site.
        assert_ne!(top.name, "Shifter");
        assert_ne!(top.name, "Docker");
    }

    #[test]
    fn classic_hpc_rewards_wlm_integration() {
        let scores = select_engine(&engines::all(), &SiteRequirements::classic_hpc());
        let qualified: Vec<&str> = scores
            .iter()
            .filter(|s| s.qualified())
            .map(|s| s.name)
            .collect();
        // Only SPANK/hook-integrated engines survive the hard WLM
        // requirement.
        for name in &qualified {
            assert!(
                matches!(*name, "Shifter" | "Sarus" | "ENROOT"),
                "{name} should not qualify"
            );
        }
        assert!(!qualified.is_empty());
    }

    #[test]
    fn cloud_converged_drops_partial_oci_engines() {
        let scores = select_engine(&engines::all(), &SiteRequirements::cloud_converged());
        let qualified: Vec<&str> = scores
            .iter()
            .filter(|s| s.qualified())
            .map(|s| s.name)
            .collect();
        assert!(qualified.contains(&"Podman"), "{qualified:?}");
        assert!(!qualified.contains(&"Apptainer"), "partial OCI");
        assert!(!qualified.contains(&"Docker"), "daemon");
    }

    #[test]
    fn registry_selection_matches_paper_summary() {
        // §5.2: "the remaining candidates for an HPC-centric container
        // setup are Project Quay and Harbor."
        let scores = select_registry(&products::all(), &RegistryRequirements::hpc_centric());
        let qualified: Vec<&str> = scores
            .iter()
            .filter(|s| s.qualified())
            .map(|s| s.name)
            .collect();
        assert_eq!(qualified, vec!["Harbor", "Quay"], "{scores:#?}");
    }

    #[test]
    fn scores_are_deterministic() {
        let a = select_engine(&engines::all(), &SiteRequirements::strict_hpc());
        let b = select_engine(&engines::all(), &SiteRequirements::strict_hpc());
        let names_a: Vec<&str> = a.iter().map(|s| s.name).collect();
        let names_b: Vec<&str> = b.iter().map(|s| s.name).collect();
        assert_eq!(names_a, names_b);
    }
}
