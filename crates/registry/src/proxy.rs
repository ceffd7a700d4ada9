//! Pull-through proxy caching and mirroring (§5.1.3).
//!
//! "The most popular public OCI registry DockerHub introduced rate
//! limiting. Any site with a small number of public IP addresses for a
//! large number of clients is quickly affected by this. ... A registry
//! implementing proxy capabilities by means of transparently forwarding
//! and caching requests in a namespace to an upstream registry can provide
//! such proxy services."

use crate::registry::{MirrorMode, ProxyMode, Registry, RegistryError};
use hpcc_crypto::sha256::Digest;
use hpcc_oci::image::Manifest;
use hpcc_sim::sym;
use hpcc_sim::{FaultInjector, RetryErr, RetryPolicy, SimTime, Stage, Tracer};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// Proxy statistics — the "detailed statistics about upstream registry
/// usage" the paper highlights as an advantage over a plain HTTP proxy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProxyStats {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub upstream_requests: u64,
    pub bytes_cached: u64,
}

/// A site-local registry transparently forwarding misses to an upstream.
pub struct ProxyRegistry {
    pub local: Arc<Registry>,
    pub upstream: Arc<Registry>,
    stats: RwLock<ProxyStats>,
    tracer: RwLock<Arc<Tracer>>,
    /// Digest → size of every blob the proxy deposited from upstream.
    /// `stats()` reconciles this against the local registry, so
    /// `bytes_cached` reflects what is actually resident — a blob whose
    /// push into the local registry failed does not count, and a re-fetch
    /// does not double-count.
    deposited: RwLock<HashMap<Digest, u64>>,
}

/// Errors from proxying.
#[derive(Debug)]
pub enum ProxyError {
    /// The local product has no proxy capability.
    ProxyingUnsupported,
    Registry(RegistryError),
}

impl From<RegistryError> for ProxyError {
    fn from(e: RegistryError) -> Self {
        ProxyError::Registry(e)
    }
}

impl std::fmt::Display for ProxyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProxyError::ProxyingUnsupported => f.write_str("registry cannot proxy"),
            ProxyError::Registry(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ProxyError {}

impl ProxyError {
    /// True when the underlying registry error is worth retrying.
    pub fn is_transient(&self) -> bool {
        matches!(self, ProxyError::Registry(e) if e.is_transient())
    }
}

/// Collapse a retry failure back into the typed registry error: the last op
/// error, or a synthetic timeout when the stage limit was what fired.
fn unwrap_retry(err: RetryErr<RegistryError>) -> RegistryError {
    err.cause.into_op(|after| RegistryError::Timeout { after })
}

impl ProxyRegistry {
    /// Wire a local registry as a pull-through cache of `upstream`.
    pub fn new(local: Arc<Registry>, upstream: Arc<Registry>) -> Result<ProxyRegistry, ProxyError> {
        if local.caps().proxying == ProxyMode::None {
            return Err(ProxyError::ProxyingUnsupported);
        }
        Ok(ProxyRegistry {
            local,
            upstream,
            stats: RwLock::new(ProxyStats::default()),
            tracer: RwLock::new(Tracer::disabled()),
            deposited: RwLock::new(HashMap::new()),
        })
    }

    /// Attach a tracer recording proxy request spans.
    pub fn set_tracer(&self, tracer: Arc<Tracer>) {
        *self.tracer.write() = tracer;
    }

    /// Counters, with `bytes_cached` reconciled against the local
    /// registry: only blobs still resident there count.
    pub fn stats(&self) -> ProxyStats {
        let mut st = *self.stats.read();
        let mut dep = self.deposited.write();
        dep.retain(|d, _| self.local.has_blob(d));
        st.bytes_cached = dep.values().sum();
        st
    }

    /// One upstream manifest pull under the default backoff policy; the
    /// local cache is authoritative and never retried.
    fn upstream_manifest(
        &self,
        repo: &str,
        tag: &str,
        arrival: SimTime,
    ) -> Result<(Manifest, SimTime), RegistryError> {
        RetryPolicy::default()
            .run_timed(
                &FaultInjector::disabled(),
                "proxy.upstream_manifest",
                Stage::Request,
                arrival,
                RegistryError::is_transient,
                |_, at| self.upstream.pull_manifest(repo, tag, at),
            )
            .map(|ok| (ok.value, ok.done))
            .map_err(unwrap_retry)
    }

    /// One upstream blob pull under the default backoff policy.
    fn upstream_blob(
        &self,
        digest: &Digest,
        arrival: SimTime,
    ) -> Result<(Arc<Vec<u8>>, SimTime), RegistryError> {
        RetryPolicy::default()
            .run_timed(
                &FaultInjector::disabled(),
                "proxy.upstream_blob",
                Stage::Request,
                arrival,
                RegistryError::is_transient,
                |_, at| self.upstream.pull_blob(digest, at),
            )
            .map(|ok| (ok.value, ok.done))
            .map_err(unwrap_retry)
    }

    /// Pull a manifest through the proxy: local cache first, upstream on
    /// miss (caching manifest + all blobs locally).
    pub fn pull_manifest(
        &self,
        repo: &str,
        tag: &str,
        arrival: SimTime,
    ) -> Result<(Manifest, SimTime), ProxyError> {
        let result = match self.local.pull_manifest(repo, tag, arrival) {
            Ok((m, done)) => {
                self.stats.write().cache_hits += 1;
                Ok((m, done, true))
            }
            Err(RegistryError::RepoNotFound(_)) | Err(RegistryError::TagNotFound(_, _)) => {
                let mut st = self.stats.write();
                st.cache_misses += 1;
                st.upstream_requests += 1;
                drop(st);

                (|| {
                    let (manifest, mut t) = self.upstream_manifest(repo, tag, arrival)?;
                    // Fetch and cache every blob.
                    for d in std::iter::once(&manifest.config).chain(manifest.layers.iter()) {
                        if self.local.has_blob(&d.digest) {
                            continue;
                        }
                        self.stats.write().upstream_requests += 1;
                        let (data, done) = self.upstream_blob(&d.digest, t)?;
                        t = done;
                        self.deposited.write().insert(d.digest, data.len() as u64);
                        self.local.push_blob(d.media_type, d.digest, data)?;
                    }
                    self.local.push_manifest(repo, tag, &manifest)?;
                    Ok((manifest, t, false))
                })()
            }
            Err(e) => Err(ProxyError::Registry(e)),
        };
        match result {
            Ok((manifest, done, hit)) => {
                self.tracer.read().record(
                    sym!("proxy.manifest"),
                    Stage::Request,
                    arrival,
                    done,
                    [
                        (sym!("image"), format!("{repo}:{tag}").into()),
                        (sym!("hit"), hit.into()),
                    ],
                );
                Ok((manifest, done))
            }
            Err(e) => Err(e),
        }
    }

    /// Pull a blob through the proxy: local cache first, upstream on miss.
    pub fn pull_blob(
        &self,
        digest: &Digest,
        arrival: SimTime,
    ) -> Result<(Arc<Vec<u8>>, SimTime), ProxyError> {
        let (data, done, hit) = if self.local.has_blob(digest) {
            self.stats.write().cache_hits += 1;
            let (data, done) = self.local.pull_blob(digest, arrival)?;
            (data, done, true)
        } else {
            let mut st = self.stats.write();
            st.cache_misses += 1;
            st.upstream_requests += 1;
            drop(st);
            let (data, done) = self.upstream_blob(digest, arrival)?;
            self.deposited.write().insert(*digest, data.len() as u64);
            self.local.push_blob(
                hpcc_oci::image::MediaType::Layer,
                *digest,
                Arc::clone(&data),
            )?;
            (data, done, false)
        };
        self.tracer.read().record(
            sym!("proxy.blob"),
            Stage::Request,
            arrival,
            done,
            [
                (sym!("digest"), format!("{digest}").into()),
                (sym!("bytes"), data.len().into()),
                (sym!("hit"), hit.into()),
            ],
        );
        Ok((data, done))
    }
}

/// One-shot mirror synchronization: copy `repos` (all tags, manifests and
/// blobs) from `src` to `dst`. This is the pull-mirroring of Table 4;
/// push-mirroring calls it after every push.
pub fn mirror_sync(src: &Registry, dst: &Registry, repos: &[&str]) -> Result<u64, RegistryError> {
    if matches!(dst.caps().mirroring, MirrorMode::None) {
        return Err(RegistryError::UnsupportedArtifact(
            hpcc_oci::image::MediaType::Manifest,
        ));
    }
    let mut copied = 0u64;
    for repo in repos {
        for tag in src.list_tags(repo)? {
            let (manifest, _) = src.pull_manifest(repo, &tag, SimTime::ZERO)?;
            for d in std::iter::once(&manifest.config).chain(manifest.layers.iter()) {
                if dst.has_blob(&d.digest) {
                    continue;
                }
                let (data, _) = src.pull_blob(&d.digest, SimTime::ZERO)?;
                dst.push_blob(d.media_type, d.digest, data)?;
                copied += 1;
            }
            dst.push_manifest(repo, &tag, &manifest)?;
            copied += 1;
        }
    }
    Ok(copied)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::RegistryCaps;
    use hpcc_oci::builder::samples;
    use hpcc_oci::cas::Cas;

    fn hub_with_image(rate_per_hour: Option<f64>) -> Arc<Registry> {
        let mut caps = RegistryCaps::open();
        caps.pull_rate_limit_per_hour = rate_per_hour;
        let hub = Registry::new("hub", caps);
        hub.create_namespace("library", None).unwrap();
        let cas = Cas::new();
        let img = samples::python_app(&cas, 50);
        hub.push_image("library/python-app", "v1", &img.manifest, &cas)
            .unwrap();
        Arc::new(hub)
    }

    fn site_registry() -> Arc<Registry> {
        let reg = Registry::new("site", RegistryCaps::open());
        reg.create_namespace("library", None).unwrap();
        Arc::new(reg)
    }

    #[test]
    fn first_pull_misses_then_hits() {
        let proxy = ProxyRegistry::new(site_registry(), hub_with_image(None)).unwrap();
        let (m1, _) = proxy
            .pull_manifest("library/python-app", "v1", SimTime::ZERO)
            .unwrap();
        let s1 = proxy.stats();
        assert_eq!(s1.cache_misses, 1);
        assert!(s1.upstream_requests > m1.layers.len() as u64);

        let (m2, _) = proxy
            .pull_manifest("library/python-app", "v1", SimTime::ZERO)
            .unwrap();
        assert_eq!(m1, m2);
        let s2 = proxy.stats();
        assert_eq!(s2.cache_hits, 1);
        assert_eq!(
            s2.upstream_requests, s1.upstream_requests,
            "no new upstream traffic"
        );
    }

    #[test]
    fn proxy_shields_clients_from_upstream_rate_limit() {
        // Upstream allows ~1 pull/sec; 50 clients pull through the proxy.
        let proxy = ProxyRegistry::new(site_registry(), hub_with_image(Some(3600.0))).unwrap();
        let mut last = SimTime::ZERO;
        for _ in 0..50 {
            let (_, done) = proxy
                .pull_manifest("library/python-app", "v1", SimTime::ZERO)
                .unwrap();
            last = last.max(done);
        }
        // Only the first pull touched upstream; the hub's limiter saw a
        // handful of requests, not 50 manifest pulls.
        assert_eq!(proxy.stats().cache_hits, 49);
        assert!(proxy.upstream.stats().manifest_pulls == 1);
    }

    #[test]
    fn blob_pull_through_proxy_caches() {
        let hub = hub_with_image(None);
        let (manifest, _) = hub
            .pull_manifest("library/python-app", "v1", SimTime::ZERO)
            .unwrap();
        let proxy = ProxyRegistry::new(site_registry(), hub).unwrap();
        let d = manifest.layers[0].digest;
        proxy.pull_blob(&d, SimTime::ZERO).unwrap();
        proxy.pull_blob(&d, SimTime::ZERO).unwrap();
        let s = proxy.stats();
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.cache_hits, 1);
        assert!(s.bytes_cached > 0);
    }

    #[test]
    fn proxying_requires_capability() {
        let mut caps = RegistryCaps::open();
        caps.proxying = ProxyMode::None;
        let local = Arc::new(Registry::new("gitea-like", caps));
        match ProxyRegistry::new(local, hub_with_image(None)) {
            Err(ProxyError::ProxyingUnsupported) => {}
            Err(other) => panic!("unexpected error {other}"),
            Ok(_) => panic!("expected ProxyingUnsupported"),
        }
    }

    #[test]
    fn mirror_sync_copies_everything() {
        let hub = hub_with_image(None);
        let dst = site_registry();
        let copied = mirror_sync(&hub, &dst, &["library/python-app"]).unwrap();
        assert!(copied > 1);
        let (m, _) = dst
            .pull_manifest("library/python-app", "v1", SimTime::ZERO)
            .unwrap();
        for l in &m.layers {
            assert!(dst.has_blob(&l.digest));
        }
        // Re-sync is incremental: only the manifest rewrite counts.
        let again = mirror_sync(&hub, &dst, &["library/python-app"]).unwrap();
        assert_eq!(again, 1);
    }

    #[test]
    fn mirror_requires_capability() {
        let hub = hub_with_image(None);
        let mut caps = RegistryCaps::open();
        caps.mirroring = MirrorMode::None;
        let dst = Registry::new("nomirror", caps);
        assert!(mirror_sync(&hub, &dst, &["library/python-app"]).is_err());
    }

    #[test]
    fn warm_cache_serves_through_upstream_outage() {
        use hpcc_sim::{FaultKind, FaultRule, SimSpan};
        let hub = hub_with_image(None);
        let proxy = ProxyRegistry::new(site_registry(), Arc::clone(&hub)).unwrap();
        // Warm the cache, then take the hub down for good.
        proxy
            .pull_manifest("library/python-app", "v1", SimTime::ZERO)
            .unwrap();
        let inj = Arc::new(FaultInjector::new(
            11,
            vec![FaultRule::sticky(
                FaultKind::RegistryUnavailable,
                SimTime::ZERO,
                SimTime(u64::MAX),
            )],
        ));
        hub.set_fault_injector(inj);
        let t = SimTime::ZERO + SimSpan::secs(100);
        let (m, _) = proxy.pull_manifest("library/python-app", "v1", t).unwrap();
        assert!(!m.layers.is_empty());
        // Direct hub pulls fail while the cached copy keeps serving.
        assert!(matches!(
            hub.pull_manifest("library/python-app", "v1", t),
            Err(RegistryError::Unavailable { .. })
        ));
    }

    #[test]
    fn upstream_blips_are_retried_away() {
        use hpcc_sim::{FaultInjector, FaultKind, FaultRule, SimSpan, SimTime};
        let hub = hub_with_image(None);
        // A short 5xx window: the first attempt at t=0 fails, the backed-off
        // retry lands after the window closes.
        let inj = Arc::new(FaultInjector::new(
            5,
            vec![FaultRule::sticky(
                FaultKind::RegistryUnavailable,
                SimTime::ZERO,
                SimTime::ZERO + SimSpan::millis(50),
            )],
        ));
        hub.set_fault_injector(Arc::clone(&inj));
        let proxy = ProxyRegistry::new(site_registry(), hub).unwrap();
        let (m, done) = proxy
            .pull_manifest("library/python-app", "v1", SimTime::ZERO)
            .unwrap();
        assert!(!m.layers.is_empty());
        assert!(done > SimTime::ZERO + SimSpan::millis(50));
        assert!(inj.metrics().get("faults.injected.registry_unavailable") >= 1);
    }

    #[test]
    fn unknown_image_propagates_error() {
        let proxy = ProxyRegistry::new(site_registry(), hub_with_image(None)).unwrap();
        assert!(proxy
            .pull_manifest("library/ghost", "v1", SimTime::ZERO)
            .is_err());
    }
}
