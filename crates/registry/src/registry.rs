//! The registry service: repositories, tags, blobs, tenancy, quotas,
//! signatures, squash-on-demand, rate limits.
//!
//! One configurable service backs all seven surveyed products; the
//! capability set ([`RegistryCaps`]) controls which operations succeed, so
//! the Table 4/5 generators can *probe* a product instead of reading a
//! hardcoded table.

use crate::auth::{AuthProvider, AuthService};
use hpcc_codec::archive::Archive;
use hpcc_crypto::sha256::Digest;
use hpcc_oci::cas::{Cas, CasError};
use hpcc_oci::image::{Descriptor, Manifest, MediaType};
use hpcc_oci::layer;
use hpcc_sim::resource::TokenBucket;
use hpcc_sim::sym;
use hpcc_sim::{FaultInjector, FaultKind, SimSpan, SimTime, Stage, Tracer};
use hpcc_vfs::path::VPath;
use hpcc_vfs::squash::SquashImage;
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// Wire protocols a registry can speak.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Protocol {
    /// Docker Registry HTTP API v2 / OCI distribution ≥ 1.0 ("OCI v2").
    OciV2,
    /// Early OCI distribution ("OCI v1", zot in the paper's table).
    OciV1,
    /// The Singularity Library API (SIF-native).
    LibraryApi,
}

/// Multi-tenancy granularity (Table 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Tenancy {
    Organization,
    Project,
    None,
}

/// Proxying support (Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProxyMode {
    /// Transparent pull-through namespaces.
    Auto,
    /// Requires per-repo manual setup.
    Manual,
    None,
}

/// Mirroring/replication support (Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MirrorMode {
    PushAndPull,
    Pull,
    Manual,
    None,
}

/// The capability set of one registry product.
#[derive(Debug, Clone)]
pub struct RegistryCaps {
    pub protocols: Vec<Protocol>,
    /// Artifact media types accepted beyond the core image types.
    pub extra_artifacts: BTreeSet<MediaType>,
    pub tenancy: Tenancy,
    pub quotas: bool,
    pub signing: bool,
    pub squash_on_demand: bool,
    pub proxying: ProxyMode,
    pub mirroring: MirrorMode,
    pub storage_backends: Vec<&'static str>,
    pub auth_providers: Vec<AuthProvider>,
    /// Pull rate limit (requests/hour) — the DockerHub situation of
    /// §5.1.3. `None` = unlimited.
    pub pull_rate_limit_per_hour: Option<f64>,
}

impl RegistryCaps {
    /// A permissive default used in tests.
    pub fn open() -> RegistryCaps {
        RegistryCaps {
            protocols: vec![Protocol::OciV2],
            extra_artifacts: [
                MediaType::Signature,
                MediaType::HelmChart,
                MediaType::Sbom,
                MediaType::UserDefined,
                MediaType::SquashImage,
                MediaType::Sif,
            ]
            .into_iter()
            .collect(),
            tenancy: Tenancy::Organization,
            quotas: true,
            signing: true,
            squash_on_demand: true,
            proxying: ProxyMode::Auto,
            mirroring: MirrorMode::PushAndPull,
            storage_backends: vec!["FS"],
            auth_providers: vec![AuthProvider::Internal],
            pull_rate_limit_per_hour: None,
        }
    }
}

/// Registry errors.
#[derive(Debug)]
pub enum RegistryError {
    Cas(CasError),
    RepoNotFound(String),
    TagNotFound(String, String),
    /// Manifest references a blob the registry does not have.
    MissingBlob(Digest),
    /// The media type is not accepted by this product.
    UnsupportedArtifact(MediaType),
    /// Tenancy operations on a product without tenancy.
    TenancyUnsupported,
    NamespaceNotFound(String),
    NamespaceExists(String),
    QuotaExceeded {
        namespace: String,
        used: u64,
        quota: u64,
    },
    /// Signing endpoints on a product without signature support.
    SigningUnsupported,
    SquashingUnsupported,
    /// Library-API call on a non-Library registry (or vice versa).
    ProtocolUnsupported(Protocol),
    Image(hpcc_oci::image::ImageError),
    Fs(hpcc_vfs::fs::FsError),
    Squash(hpcc_vfs::squash::SquashError),
    Archive(hpcc_codec::archive::ArchiveError),
    /// Hard 429: the request was rejected, not merely delayed by the token
    /// bucket. Clients should back off at least `retry_after`.
    RateLimited {
        retry_after: SimSpan,
    },
    /// Transient 5xx from the registry frontend.
    Unavailable {
        status: u16,
    },
    /// The connection timed out after `after`.
    Timeout {
        after: SimSpan,
    },
}

impl RegistryError {
    /// True for errors a client should retry (429/5xx/timeouts); false for
    /// semantic errors (missing repo, quota, protocol) where retrying the
    /// same request cannot succeed.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            RegistryError::RateLimited { .. }
                | RegistryError::Unavailable { .. }
                | RegistryError::Timeout { .. }
        )
    }
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::Cas(e) => write!(f, "cas: {e}"),
            RegistryError::RepoNotFound(r) => write!(f, "repository {r} not found"),
            RegistryError::TagNotFound(r, t) => write!(f, "tag {r}:{t} not found"),
            RegistryError::MissingBlob(d) => write!(f, "missing blob {}", d.short()),
            RegistryError::UnsupportedArtifact(mt) => {
                write!(f, "artifact type {mt:?} not accepted")
            }
            RegistryError::TenancyUnsupported => f.write_str("no multi-tenancy support"),
            RegistryError::NamespaceNotFound(n) => write!(f, "namespace {n} not found"),
            RegistryError::NamespaceExists(n) => write!(f, "namespace {n} exists"),
            RegistryError::QuotaExceeded {
                namespace,
                used,
                quota,
            } => {
                write!(f, "quota exceeded in {namespace}: {used} > {quota}")
            }
            RegistryError::SigningUnsupported => f.write_str("no signature support"),
            RegistryError::SquashingUnsupported => f.write_str("no squash-on-demand support"),
            RegistryError::ProtocolUnsupported(p) => write!(f, "protocol {p:?} not spoken"),
            RegistryError::Image(e) => write!(f, "image: {e}"),
            RegistryError::Fs(e) => write!(f, "fs: {e}"),
            RegistryError::Squash(e) => write!(f, "squash: {e}"),
            RegistryError::Archive(e) => write!(f, "archive: {e}"),
            RegistryError::RateLimited { retry_after } => {
                write!(f, "429 too many requests (retry after {retry_after})")
            }
            RegistryError::Unavailable { status } => write!(f, "{status} service unavailable"),
            RegistryError::Timeout { after } => write!(f, "connection timed out after {after}"),
        }
    }
}

impl std::error::Error for RegistryError {}

impl From<CasError> for RegistryError {
    fn from(e: CasError) -> Self {
        RegistryError::Cas(e)
    }
}
impl From<hpcc_oci::image::ImageError> for RegistryError {
    fn from(e: hpcc_oci::image::ImageError) -> Self {
        RegistryError::Image(e)
    }
}
impl From<hpcc_vfs::fs::FsError> for RegistryError {
    fn from(e: hpcc_vfs::fs::FsError) -> Self {
        RegistryError::Fs(e)
    }
}
impl From<hpcc_vfs::squash::SquashError> for RegistryError {
    fn from(e: hpcc_vfs::squash::SquashError) -> Self {
        RegistryError::Squash(e)
    }
}
impl From<hpcc_codec::archive::ArchiveError> for RegistryError {
    fn from(e: hpcc_codec::archive::ArchiveError) -> Self {
        RegistryError::Archive(e)
    }
}

#[derive(Debug, Default)]
struct NamespaceRec {
    quota_bytes: Option<u64>,
    used_bytes: u64,
}

#[derive(Debug, Default)]
struct Repo {
    tags: BTreeMap<String, Digest>,
}

/// Pull/push statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryStats {
    pub manifest_pulls: u64,
    pub blob_pulls: u64,
    pub pushes: u64,
    pub rate_limited: u64,
}

/// A running registry service.
pub struct Registry {
    pub name: &'static str,
    caps: RegistryCaps,
    cas: Cas,
    auth: AuthService,
    namespaces: RwLock<HashMap<String, NamespaceRec>>,
    repos: RwLock<HashMap<String, Repo>>,
    /// manifest digest → signature artifact descriptors.
    signatures: RwLock<HashMap<Digest, Vec<Descriptor>>>,
    rate: Option<TokenBucket>,
    stats: RwLock<RegistryStats>,
    /// Frontend service latency per request.
    request_latency: SimSpan,
    /// Fault schedule consulted on every pull admission. Defaults to the
    /// disabled injector, which never fires.
    faults: RwLock<Arc<FaultInjector>>,
    /// Tracer recording request spans. Defaults to the disabled tracer.
    tracer: RwLock<Arc<Tracer>>,
}

impl Registry {
    pub fn new(name: &'static str, caps: RegistryCaps) -> Registry {
        let rate = caps
            .pull_rate_limit_per_hour
            .map(|per_hour| TokenBucket::new(per_hour / 3600.0, (per_hour / 36.0).max(1.0) as u64));
        let auth = AuthService::new(caps.auth_providers.clone());
        Registry {
            name,
            caps,
            cas: Cas::new(),
            auth,
            namespaces: RwLock::new(HashMap::new()),
            repos: RwLock::new(HashMap::new()),
            signatures: RwLock::new(HashMap::new()),
            rate,
            stats: RwLock::new(RegistryStats::default()),
            request_latency: SimSpan::millis(2),
            faults: RwLock::new(FaultInjector::disabled()),
            tracer: RwLock::new(Tracer::disabled()),
        }
    }

    /// Install a fault schedule; pulls consult it from now on.
    pub fn set_fault_injector(&self, injector: Arc<FaultInjector>) {
        *self.faults.write() = injector;
    }

    /// Attach a tracer recording per-request spans.
    pub fn set_tracer(&self, tracer: Arc<Tracer>) {
        *self.tracer.write() = tracer;
    }

    pub fn caps(&self) -> &RegistryCaps {
        &self.caps
    }

    pub fn auth(&self) -> &AuthService {
        &self.auth
    }

    pub fn cas(&self) -> &Cas {
        &self.cas
    }

    pub fn stats(&self) -> RegistryStats {
        *self.stats.read()
    }

    fn speaks(&self, p: Protocol) -> bool {
        self.caps.protocols.contains(&p)
    }

    fn speaks_oci(&self) -> bool {
        self.speaks(Protocol::OciV1) || self.speaks(Protocol::OciV2)
    }

    fn accepts(&self, mt: MediaType) -> bool {
        matches!(
            mt,
            MediaType::Manifest | MediaType::Config | MediaType::Layer
        ) || self.caps.extra_artifacts.contains(&mt)
    }

    /// The modelled client-side connection timeout surfaced by injected
    /// [`FaultKind::RegistryTimeout`] faults.
    pub const CONNECT_TIMEOUT: SimSpan = SimSpan(5_000_000_000);

    fn admit_pull(&self, arrival: SimTime) -> Result<SimTime, RegistryError> {
        // Injected failures happen at the connection/frontend, before the
        // token bucket: a down registry rejects rather than queues.
        let faults = self.faults.read();
        if faults.roll(FaultKind::RegistryTimeout, arrival).is_some() {
            return Err(RegistryError::Timeout {
                after: Self::CONNECT_TIMEOUT,
            });
        }
        if faults
            .roll(FaultKind::RegistryUnavailable, arrival)
            .is_some()
        {
            return Err(RegistryError::Unavailable { status: 503 });
        }
        if faults.roll(FaultKind::RegistryRateLimit, arrival).is_some() {
            self.stats.write().rate_limited += 1;
            return Err(RegistryError::RateLimited {
                retry_after: SimSpan::secs(1),
            });
        }
        drop(faults);
        match &self.rate {
            None => Ok(arrival + self.request_latency),
            Some(bucket) => {
                let admitted = bucket.admit_at(arrival);
                if admitted > arrival {
                    self.stats.write().rate_limited += 1;
                }
                Ok(admitted + self.request_latency)
            }
        }
    }

    /// Frontend admission for pushes: surfaces the same injected
    /// connection faults as pulls ([`FaultKind::RegistryTimeout`],
    /// [`FaultKind::RegistryUnavailable`], [`FaultKind::RegistryRateLimit`])
    /// so an origin brownout rejects uploads too, but skips the pull
    /// token bucket — the model does not rate-shape uploads. Inert
    /// without an injector, which keeps direct `push_blob` callers (and
    /// their goldens) untouched.
    pub fn admit_push(&self, arrival: SimTime) -> Result<(), RegistryError> {
        let faults = self.faults.read();
        if faults.roll(FaultKind::RegistryTimeout, arrival).is_some() {
            return Err(RegistryError::Timeout {
                after: Self::CONNECT_TIMEOUT,
            });
        }
        if faults
            .roll(FaultKind::RegistryUnavailable, arrival)
            .is_some()
        {
            return Err(RegistryError::Unavailable { status: 503 });
        }
        if faults.roll(FaultKind::RegistryRateLimit, arrival).is_some() {
            self.stats.write().rate_limited += 1;
            return Err(RegistryError::RateLimited {
                retry_after: SimSpan::secs(1),
            });
        }
        Ok(())
    }

    // ------------------------------------------------------- tenancy

    /// Create an organization/project namespace.
    pub fn create_namespace(
        &self,
        name: &str,
        quota_bytes: Option<u64>,
    ) -> Result<(), RegistryError> {
        if self.caps.tenancy == Tenancy::None {
            return Err(RegistryError::TenancyUnsupported);
        }
        if quota_bytes.is_some() && !self.caps.quotas {
            return Err(RegistryError::QuotaExceeded {
                namespace: name.into(),
                used: 0,
                quota: 0,
            });
        }
        let mut ns = self.namespaces.write();
        if ns.contains_key(name) {
            return Err(RegistryError::NamespaceExists(name.into()));
        }
        ns.insert(
            name.to_string(),
            NamespaceRec {
                quota_bytes,
                used_bytes: 0,
            },
        );
        Ok(())
    }

    fn namespace_of(repo: &str) -> Option<&str> {
        repo.split_once('/').map(|(ns, _)| ns)
    }

    /// Bytes used by a namespace.
    pub fn namespace_usage(&self, name: &str) -> Result<u64, RegistryError> {
        self.namespaces
            .read()
            .get(name)
            .map(|n| n.used_bytes)
            .ok_or_else(|| RegistryError::NamespaceNotFound(name.into()))
    }

    // ------------------------------------------------------- push

    /// Push a blob (client computed digest; registry verifies).
    pub fn push_blob(
        &self,
        media_type: MediaType,
        claimed: Digest,
        data: Vec<u8>,
    ) -> Result<Descriptor, RegistryError> {
        if !self.accepts(media_type) {
            return Err(RegistryError::UnsupportedArtifact(media_type));
        }
        let desc = self.cas.put_verified(media_type, claimed, data)?;
        self.stats.write().pushes += 1;
        Ok(desc)
    }

    /// True if the blob is present (layer-dedup HEAD check before upload).
    pub fn has_blob(&self, digest: &Digest) -> bool {
        self.cas.has(digest)
    }

    /// Push a manifest under `repo:tag`. All referenced blobs must already
    /// be present; quota is charged to the repo's namespace.
    pub fn push_manifest(
        &self,
        repo: &str,
        tag: &str,
        manifest: &Manifest,
    ) -> Result<Descriptor, RegistryError> {
        if !self.speaks_oci() {
            return Err(RegistryError::ProtocolUnsupported(Protocol::OciV2));
        }
        for d in std::iter::once(&manifest.config).chain(manifest.layers.iter()) {
            if !self.cas.has(&d.digest) {
                return Err(RegistryError::MissingBlob(d.digest));
            }
        }

        // Quota accounting.
        if let Some(ns_name) = Self::namespace_of(repo) {
            if self.caps.tenancy != Tenancy::None {
                let mut namespaces = self.namespaces.write();
                if let Some(ns) = namespaces.get_mut(ns_name) {
                    let add = manifest.total_layer_size() + manifest.config.size;
                    if self.caps.quotas {
                        if let Some(q) = ns.quota_bytes {
                            if ns.used_bytes + add > q {
                                return Err(RegistryError::QuotaExceeded {
                                    namespace: ns_name.into(),
                                    used: ns.used_bytes + add,
                                    quota: q,
                                });
                            }
                        }
                    }
                    ns.used_bytes += add;
                }
            }
        }

        let bytes = manifest.to_bytes();
        let desc = self.cas.put(MediaType::Manifest, bytes);
        self.repos
            .write()
            .entry(repo.to_string())
            .or_default()
            .tags
            .insert(tag.to_string(), desc.digest);
        self.stats.write().pushes += 1;
        Ok(desc)
    }

    /// Upload a whole image from a client-side store: every blob the
    /// manifest names out of `cas`, then the manifest as `repo:tag`.
    pub fn push_image(
        &self,
        repo: &str,
        tag: &str,
        manifest: &Manifest,
        cas: &Cas,
    ) -> Result<Descriptor, RegistryError> {
        for d in std::iter::once(&manifest.config).chain(manifest.layers.iter()) {
            let data = cas.get(&d.digest)?;
            self.push_blob(d.media_type, d.digest, data.as_ref().clone())?;
        }
        self.push_manifest(repo, tag, manifest)
    }

    // ------------------------------------------------------- pull

    /// Resolve a tag to a manifest digest.
    pub fn resolve_tag(&self, repo: &str, tag: &str) -> Result<Digest, RegistryError> {
        let repos = self.repos.read();
        let r = repos
            .get(repo)
            .ok_or_else(|| RegistryError::RepoNotFound(repo.into()))?;
        r.tags
            .get(tag)
            .copied()
            .ok_or_else(|| RegistryError::TagNotFound(repo.into(), tag.into()))
    }

    /// Pull a manifest by tag. Returns the manifest and the completion
    /// time (rate limiting applied).
    pub fn pull_manifest(
        &self,
        repo: &str,
        tag: &str,
        arrival: SimTime,
    ) -> Result<(Manifest, SimTime), RegistryError> {
        if !self.speaks_oci() {
            return Err(RegistryError::ProtocolUnsupported(Protocol::OciV2));
        }
        let done = self.admit_pull(arrival)?;
        let digest = self.resolve_tag(repo, tag)?;
        let bytes = self.cas.get(&digest)?;
        let manifest = Manifest::from_bytes(&bytes)?;
        self.stats.write().manifest_pulls += 1;
        self.tracer.read().record(
            sym!("registry.manifest"),
            Stage::Request,
            arrival,
            done,
            &[
                ("registry", self.name.to_string()),
                ("image", format!("{repo}:{tag}")),
            ],
        );
        Ok((manifest, done))
    }

    /// Pull a blob by digest.
    pub fn pull_blob(
        &self,
        digest: &Digest,
        arrival: SimTime,
    ) -> Result<(Arc<Vec<u8>>, SimTime), RegistryError> {
        let done = self.admit_pull(arrival)?;
        let data = self.cas.get(digest)?;
        // Transfer time: modelled at 1 GiB/s registry egress.
        let xfer = SimSpan::from_secs_f64(data.len() as f64 / (1u64 << 30) as f64);
        self.stats.write().blob_pulls += 1;
        self.tracer.read().record(
            sym!("registry.blob"),
            Stage::Request,
            arrival,
            done + xfer,
            &[
                ("registry", self.name.to_string()),
                ("digest", digest.short().to_string()),
                ("bytes", data.len().to_string()),
            ],
        );
        Ok((data, done + xfer))
    }

    /// Tags of a repository, sorted.
    pub fn list_tags(&self, repo: &str) -> Result<Vec<String>, RegistryError> {
        let repos = self.repos.read();
        let r = repos
            .get(repo)
            .ok_or_else(|| RegistryError::RepoNotFound(repo.into()))?;
        Ok(r.tags.keys().cloned().collect())
    }

    /// All repositories, sorted.
    pub fn list_repos(&self) -> Vec<String> {
        let mut v: Vec<String> = self.repos.read().keys().cloned().collect();
        v.sort();
        v
    }

    /// Delete a tag. The manifest and its blobs stay until
    /// [`garbage_collect`](Self::garbage_collect) runs (the standard
    /// registry two-phase deletion).
    pub fn delete_tag(&self, repo: &str, tag: &str) -> Result<(), RegistryError> {
        let mut repos = self.repos.write();
        let r = repos
            .get_mut(repo)
            .ok_or_else(|| RegistryError::RepoNotFound(repo.into()))?;
        r.tags
            .remove(tag)
            .map(|_| ())
            .ok_or_else(|| RegistryError::TagNotFound(repo.into(), tag.into()))
    }

    /// Garbage-collect blobs unreachable from any tag: live = every tagged
    /// manifest, its config and layers, plus attached signatures of live
    /// manifests. Returns the number of blobs collected.
    pub fn garbage_collect(&self) -> usize {
        use std::collections::HashSet;
        let mut live: HashSet<Digest> = HashSet::new();
        {
            let repos = self.repos.read();
            for repo in repos.values() {
                for digest in repo.tags.values() {
                    live.insert(*digest);
                    if let Ok(bytes) = self.cas.get(digest) {
                        // Library-API tags point at raw SIF blobs, which
                        // don't parse as manifests; they're live as-is.
                        if let Ok(manifest) = Manifest::from_bytes(&bytes) {
                            live.insert(manifest.config.digest);
                            for l in &manifest.layers {
                                live.insert(l.digest);
                            }
                            for sig in self
                                .signatures
                                .read()
                                .get(&manifest.digest())
                                .into_iter()
                                .flatten()
                            {
                                live.insert(sig.digest);
                            }
                        }
                    }
                }
            }
        }
        // Drop signature indexes of dead manifests.
        self.signatures.write().retain(|m, _| live.contains(m));
        self.cas.gc(&|d| live.contains(d))
    }

    // ------------------------------------------------------- signatures

    /// Attach a signature artifact to a manifest digest (cosign-style).
    pub fn attach_signature(
        &self,
        manifest: Digest,
        signature_bytes: Vec<u8>,
    ) -> Result<Descriptor, RegistryError> {
        if !self.caps.signing {
            return Err(RegistryError::SigningUnsupported);
        }
        let desc = self.cas.put(MediaType::Signature, signature_bytes);
        self.signatures
            .write()
            .entry(manifest)
            .or_default()
            .push(desc);
        Ok(desc)
    }

    /// Signatures attached to a manifest.
    pub fn signatures_of(&self, manifest: &Digest) -> Result<Vec<Descriptor>, RegistryError> {
        if !self.caps.signing {
            return Err(RegistryError::SigningUnsupported);
        }
        Ok(self
            .signatures
            .read()
            .get(manifest)
            .cloned()
            .unwrap_or_default())
    }

    // ------------------------------------------------------- squashing

    /// Flatten an image's layers into a squash image, store it, and return
    /// its descriptor (Quay's on-demand squashing, Table 5).
    pub fn squash_on_demand(&self, repo: &str, tag: &str) -> Result<Descriptor, RegistryError> {
        if !self.caps.squash_on_demand {
            return Err(RegistryError::SquashingUnsupported);
        }
        let digest = self.resolve_tag(repo, tag)?;
        let bytes = self.cas.get(&digest)?;
        let manifest = Manifest::from_bytes(&bytes)?;
        let mut archives = Vec::with_capacity(manifest.layers.len());
        for l in &manifest.layers {
            let data = self.cas.get(&l.digest)?;
            archives.push(Archive::from_bytes(&data)?);
        }
        let fs = layer::flatten(&archives)?;
        let img = SquashImage::build(&fs, &VPath::root(), hpcc_codec::compress::Codec::Lz)?;
        // The image was just built, so the bytes are ours to hand over.
        let bytes = Arc::unwrap_or_clone(img.into_bytes());
        Ok(self.cas.put(MediaType::SquashImage, bytes))
    }

    // ------------------------------------------------------- Library API

    /// Push a SIF through the Library API.
    pub fn library_push(
        &self,
        path: &str, // entity/collection/container
        tag: &str,
        sif_bytes: Vec<u8>,
    ) -> Result<Descriptor, RegistryError> {
        if !self.speaks(Protocol::LibraryApi) {
            return Err(RegistryError::ProtocolUnsupported(Protocol::LibraryApi));
        }
        let desc = self.cas.put(MediaType::Sif, sif_bytes);
        self.repos
            .write()
            .entry(format!("library:{path}"))
            .or_default()
            .tags
            .insert(tag.to_string(), desc.digest);
        self.stats.write().pushes += 1;
        Ok(desc)
    }

    /// Pull a SIF through the Library API.
    pub fn library_pull(
        &self,
        path: &str,
        tag: &str,
        arrival: SimTime,
    ) -> Result<(Arc<Vec<u8>>, SimTime), RegistryError> {
        if !self.speaks(Protocol::LibraryApi) {
            return Err(RegistryError::ProtocolUnsupported(Protocol::LibraryApi));
        }
        let done = self.admit_pull(arrival)?;
        let digest = self.resolve_tag(&format!("library:{path}"), tag)?;
        let data = self.cas.get(&digest)?;
        let xfer = SimSpan::from_secs_f64(data.len() as f64 / (1u64 << 30) as f64);
        self.stats.write().blob_pulls += 1;
        Ok((data, done + xfer))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcc_oci::builder::samples;

    fn push_sample(reg: &Registry, repo: &str, tag: &str) -> Manifest {
        let cas = Cas::new();
        let img = samples::base_os(&cas);
        reg.push_image(repo, tag, &img.manifest, &cas).unwrap();
        img.manifest
    }

    fn open_registry() -> Registry {
        let r = Registry::new("test", RegistryCaps::open());
        r.create_namespace("bio", None).unwrap();
        r
    }

    #[test]
    fn push_pull_roundtrip() {
        let reg = open_registry();
        let manifest = push_sample(&reg, "bio/base", "v1");
        let (pulled, done) = reg.pull_manifest("bio/base", "v1", SimTime::ZERO).unwrap();
        assert_eq!(pulled, manifest);
        assert!(done > SimTime::ZERO);
        let (blob, _) = reg.pull_blob(&manifest.layers[0].digest, done).unwrap();
        assert!(!blob.is_empty());
    }

    #[test]
    fn manifest_requires_blobs_present() {
        let reg = open_registry();
        let cas = Cas::new();
        let img = samples::base_os(&cas);
        let err = reg.push_manifest("bio/x", "v1", &img.manifest).unwrap_err();
        assert!(matches!(err, RegistryError::MissingBlob(_)));
    }

    #[test]
    fn digest_verified_on_push() {
        let reg = open_registry();
        let wrong = hpcc_crypto::sha256::sha256(b"other");
        let err = reg
            .push_blob(MediaType::Layer, wrong, b"data".to_vec())
            .unwrap_err();
        let actual = hpcc_crypto::sha256::sha256(b"data");
        assert!(
            matches!(
                err,
                RegistryError::Cas(CasError::DigestMismatch { claimed, actual: a })
                    if claimed == wrong && a == actual
            ),
            "got {err}"
        );
        assert!(!reg.has_blob(&wrong) && !reg.has_blob(&actual));
        assert_eq!(reg.stats().pushes, 0);
    }

    #[test]
    fn unknown_repo_and_tag() {
        let reg = open_registry();
        assert!(matches!(
            reg.pull_manifest("ghost/repo", "v1", SimTime::ZERO),
            Err(RegistryError::RepoNotFound(_))
        ));
        push_sample(&reg, "bio/base", "v1");
        assert!(matches!(
            reg.pull_manifest("bio/base", "v9", SimTime::ZERO),
            Err(RegistryError::TagNotFound(_, _))
        ));
    }

    #[test]
    fn artifact_acceptance_is_capability_gated() {
        let mut caps = RegistryCaps::open();
        caps.extra_artifacts.remove(&MediaType::HelmChart);
        let reg = Registry::new("no-helm", caps);
        let data = b"chart".to_vec();
        let d = hpcc_crypto::sha256::sha256(&data);
        assert!(matches!(
            reg.push_blob(MediaType::HelmChart, d, data),
            Err(RegistryError::UnsupportedArtifact(MediaType::HelmChart))
        ));
        // Core types always accepted.
        let data = b"layer".to_vec();
        let d = hpcc_crypto::sha256::sha256(&data);
        reg.push_blob(MediaType::Layer, d, data).unwrap();
    }

    #[test]
    fn quota_enforced_per_namespace() {
        let reg = Registry::new("quota", RegistryCaps::open());
        reg.create_namespace("small", Some(4096)).unwrap();
        let cas = Cas::new();
        let img = samples::base_os(&cas); // ~14 KiB of layers
        let err = reg
            .push_image("small/base", "v1", &img.manifest, &cas)
            .unwrap_err();
        assert!(matches!(err, RegistryError::QuotaExceeded { .. }));
        // Roomy namespace succeeds and accounts usage.
        reg.create_namespace("big", Some(10 << 20)).unwrap();
        reg.push_manifest("big/base", "v1", &img.manifest).unwrap();
        assert!(reg.namespace_usage("big").unwrap() > 0);
    }

    #[test]
    fn tenancy_gating() {
        let mut caps = RegistryCaps::open();
        caps.tenancy = Tenancy::None;
        let reg = Registry::new("flat", caps);
        assert!(matches!(
            reg.create_namespace("org", None),
            Err(RegistryError::TenancyUnsupported)
        ));
    }

    #[test]
    fn signature_attachment() {
        let reg = open_registry();
        let manifest = push_sample(&reg, "bio/base", "v1");
        let d = manifest.digest();
        reg.attach_signature(d, b"sig-1".to_vec()).unwrap();
        reg.attach_signature(d, b"sig-2".to_vec()).unwrap();
        assert_eq!(reg.signatures_of(&d).unwrap().len(), 2);
    }

    #[test]
    fn signing_gated() {
        let mut caps = RegistryCaps::open();
        caps.signing = false;
        let reg = Registry::new("nosign", caps);
        let d = hpcc_crypto::sha256::sha256(b"m");
        assert!(matches!(
            reg.attach_signature(d, vec![]),
            Err(RegistryError::SigningUnsupported)
        ));
    }

    #[test]
    fn squash_on_demand_produces_runnable_image() {
        let reg = open_registry();
        push_sample(&reg, "bio/base", "v1");
        let desc = reg.squash_on_demand("bio/base", "v1").unwrap();
        assert_eq!(desc.media_type, MediaType::SquashImage);
        let bytes = reg.cas().get(&desc.digest).unwrap();
        let img = SquashImage::from_bytes(bytes.as_ref().clone()).unwrap();
        assert!(img.read_file("usr/lib/libc.so.6").is_ok());
    }

    #[test]
    fn squashing_gated() {
        let mut caps = RegistryCaps::open();
        caps.squash_on_demand = false;
        let reg = Registry::new("nosquash", caps);
        assert!(matches!(
            reg.squash_on_demand("a/b", "v1"),
            Err(RegistryError::SquashingUnsupported)
        ));
    }

    #[test]
    fn library_api_roundtrip_when_spoken() {
        let mut caps = RegistryCaps::open();
        caps.protocols.push(Protocol::LibraryApi);
        let reg = Registry::new("lib", caps);
        reg.library_push("lab/tools/samtools", "1.17", b"SIF-bytes".to_vec())
            .unwrap();
        let (data, _) = reg
            .library_pull("lab/tools/samtools", "1.17", SimTime::ZERO)
            .unwrap();
        assert_eq!(&**data, b"SIF-bytes");
    }

    #[test]
    fn library_api_gated() {
        let reg = Registry::new("oci-only", RegistryCaps::open());
        assert!(matches!(
            reg.library_push("a/b/c", "t", vec![]),
            Err(RegistryError::ProtocolUnsupported(Protocol::LibraryApi))
        ));
    }

    #[test]
    fn rate_limit_delays_pulls() {
        let mut caps = RegistryCaps::open();
        caps.pull_rate_limit_per_hour = Some(3600.0); // 1/sec, burst 100
        let reg = Registry::new("limited", caps);
        reg.create_namespace("bio", None).unwrap();
        push_sample(&reg, "bio/base", "v1");
        let mut last = SimTime::ZERO;
        for _ in 0..200 {
            let (_, done) = reg.pull_manifest("bio/base", "v1", SimTime::ZERO).unwrap();
            last = last.max(done);
        }
        // Burst is 100; the 200th pull waits ~100 seconds.
        assert!(last.since(SimTime::ZERO).as_secs_f64() > 50.0);
        assert!(reg.stats().rate_limited > 0);
    }

    #[test]
    fn injected_faults_surface_as_typed_transient_errors() {
        use hpcc_sim::{FaultInjector, FaultRule};
        let reg = open_registry();
        push_sample(&reg, "bio/base", "v1");
        let t = |s: u64| SimTime::ZERO + SimSpan::secs(s);
        reg.set_fault_injector(Arc::new(FaultInjector::new(
            3,
            vec![
                FaultRule::sticky(FaultKind::RegistryTimeout, t(0), t(10)),
                FaultRule::sticky(FaultKind::RegistryUnavailable, t(10), t(20)),
                FaultRule::sticky(FaultKind::RegistryRateLimit, t(20), t(30)),
            ],
        )));
        let e = reg.pull_manifest("bio/base", "v1", t(5)).unwrap_err();
        assert!(matches!(e, RegistryError::Timeout { .. }) && e.is_transient());
        let e = reg.pull_manifest("bio/base", "v1", t(15)).unwrap_err();
        assert!(matches!(e, RegistryError::Unavailable { status: 503 }) && e.is_transient());
        let e = reg
            .pull_blob(&hpcc_crypto::sha256::sha256(b"x"), t(25))
            .unwrap_err();
        assert!(matches!(e, RegistryError::RateLimited { .. }) && e.is_transient());
        assert_eq!(reg.stats().rate_limited, 1);
        // Outside every window the registry behaves normally, and semantic
        // errors stay non-transient.
        assert!(reg.pull_manifest("bio/base", "v1", t(31)).is_ok());
        assert!(!reg
            .pull_manifest("ghost", "v1", t(31))
            .unwrap_err()
            .is_transient());
    }

    #[test]
    fn dedup_across_repos() {
        let reg = open_registry();
        push_sample(&reg, "bio/base", "v1");
        push_sample(&reg, "bio/base2", "v1");
        assert!(
            reg.cas().stats().dedup_hits > 0,
            "same layers pushed twice dedup"
        );
    }

    #[test]
    fn delete_tag_then_gc_reclaims_unshared_blobs() {
        let reg = open_registry();
        let m1 = push_sample(&reg, "bio/base", "v1");
        // A second, different image sharing nothing.
        let cas = Cas::new();
        let unique = hpcc_oci::builder::ImageBuilder::from_scratch()
            .run("u", |fs| {
                fs.write_p(&hpcc_vfs::path::VPath::parse("/unique"), vec![0xEE; 4096])
                    .map_err(|e| e.to_string())
            })
            .build(&cas)
            .unwrap();
        reg.push_image("bio/unique", "v1", &unique.manifest, &cas)
            .unwrap();
        reg.attach_signature(unique.manifest.digest(), b"sig".to_vec())
            .unwrap();

        // Nothing to collect while both tags live.
        assert_eq!(reg.garbage_collect(), 0);

        // Drop the unique image's tag: its manifest, layer, config and
        // signature become garbage; bio/base survives untouched.
        reg.delete_tag("bio/unique", "v1").unwrap();
        let collected = reg.garbage_collect();
        assert!(collected >= 3, "manifest+config+layer+sig, got {collected}");
        assert!(!reg.has_blob(&unique.manifest.layers[0].digest));
        assert!(reg.has_blob(&m1.layers[0].digest));
        let (pulled, _) = reg.pull_manifest("bio/base", "v1", SimTime::ZERO).unwrap();
        assert_eq!(pulled, m1);
        // Deleting twice errors.
        assert!(reg.delete_tag("bio/unique", "v1").is_err());
    }

    #[test]
    fn gc_keeps_blobs_shared_with_live_tags() {
        let reg = open_registry();
        push_sample(&reg, "bio/a", "v1");
        push_sample(&reg, "bio/b", "v1"); // same layers, different repo
        reg.delete_tag("bio/a", "v1").unwrap();
        // Manifest digest is shared too (identical images) → nothing dies.
        assert_eq!(reg.garbage_collect(), 0);
        assert!(reg.pull_manifest("bio/b", "v1", SimTime::ZERO).is_ok());
    }

    #[test]
    fn list_tags_and_repos() {
        let reg = open_registry();
        push_sample(&reg, "bio/base", "v1");
        push_sample(&reg, "bio/base", "v2");
        assert_eq!(reg.list_tags("bio/base").unwrap(), vec!["v1", "v2"]);
        assert_eq!(reg.list_repos(), vec!["bio/base"]);
    }
}
