//! Tiered pull-through proxy topology for fleet-scale pull storms.
//!
//! The survey's registry comparison (Tables 4–5) centers on pull-through
//! proxying because site-scale clusters collapse a registry when thousands
//! of nodes pull the same image at once. This module models the standard
//! production answer: a *hierarchy* of pull-through caches — rack → row →
//! site — between the nodes and the origin registry, with
//!
//! * **capacity-aware eviction** — each cache instance holds a bounded
//!   number of bytes and evicts least-recently-used entries (per-tenant
//!   quotas first, then global capacity);
//! * **request coalescing** — concurrent requests for a blob whose fill is
//!   already in flight wait on that one upstream fetch instead of
//!   stampeding the next tier;
//! * **egress contention** — every cache instance serves requesters
//!   through a bounded [`QueueServer`], so fan-in shows up as queueing,
//!   not magic parallelism;
//! * **multi-tenancy** — per-tenant pull-rate token buckets and per-tenant
//!   cache quotas.
//!
//! The topology runs in two planes. The **model plane** moves only
//! `(digest, size)` metadata, which is what lets `bench storm` drive
//! 10,000 nodes pulling a multi-GB image without materializing terabytes.
//! The **data plane** (an origin [`Registry`] attached) moves real bytes
//! and is what the engine integration and the correctness tests use.
//!
//! An optional **domain gate** ([`StormTopology::set_domain_schedule`])
//! overlays a correlated-outage schedule on the hierarchy: pulls from a
//! powered-off rack fail with `503`, origin-bound fills from a
//! partitioned row time out while rack/row cache hits keep serving
//! (split-brain), and an overloaded origin sheds through a bounded-wait
//! [`AdmissionQueue`] instead of queueing unboundedly. With no schedule
//! attached the gate is inert and the topology behaves exactly as before.

use crate::registry::{Registry, RegistryError};
use hpcc_crypto::sha256::Digest;
use hpcc_oci::image::Manifest;
use hpcc_sim::sym;
use hpcc_sim::{
    Admission, AdmissionConfig, AdmissionQueue, Bytes, CrashInjector, DomainSchedule,
    FaultInjector, MetricsRegistry, QueueServer, SimSpan, SimTime, Stage, TokenBucket, Tracer,
};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::Arc;

/// One network hop of the hierarchy: latency plus per-stream bandwidth.
#[derive(Debug, Clone, Copy)]
pub struct HopParams {
    pub latency: SimSpan,
    pub bandwidth_bps: f64,
}

/// One cache level of the hierarchy (bottom-up: rack, then row, ...).
#[derive(Debug, Clone, Copy)]
pub struct TierSpec {
    /// Label used in span attributes and metric names.
    pub name: &'static str,
    /// Fan-in: children (nodes, or caches of the level below) per instance.
    pub group: usize,
    /// Cached bytes one instance may hold before evicting.
    pub capacity: Bytes,
    /// Concurrent serve slots per instance (egress parallelism).
    pub egress: usize,
    /// Link from this tier down to one requester below it.
    pub hop: HopParams,
}

/// The origin registry as seen from the top tier (model plane). With a
/// real origin [`Registry`] attached, its own admission/egress model is
/// used instead.
#[derive(Debug, Clone, Copy)]
pub struct OriginParams {
    /// Per-request admission latency (auth, manifest resolution).
    pub request_latency: SimSpan,
    /// Per-stream egress bandwidth.
    pub bandwidth_bps: f64,
    /// Concurrent egress slots.
    pub egress: usize,
}

impl Default for OriginParams {
    fn default() -> OriginParams {
        OriginParams {
            request_latency: SimSpan::millis(2),
            bandwidth_bps: (1u64 << 30) as f64,
            egress: 8,
        }
    }
}

/// Per-tenant admission policy, enforced at the node-facing edge.
#[derive(Debug, Clone, Copy)]
pub struct TenantPolicy {
    pub name: &'static str,
    /// Pull requests per second (token bucket), if limited.
    pub rate: Option<(f64, u64)>,
    /// Cached bytes this tenant may occupy per cache instance.
    pub cache_quota: Option<Bytes>,
}

impl TenantPolicy {
    /// The unconstrained tenant every single-tenant run uses.
    pub fn unlimited() -> TenantPolicy {
        TenantPolicy {
            name: "default",
            rate: None,
            cache_quota: None,
        }
    }
}

/// Everything needed to build a [`StormTopology`].
#[derive(Debug, Clone)]
pub struct StormConfig {
    pub nodes: usize,
    /// Bottom-up tier stack; must be non-empty.
    pub tiers: Vec<TierSpec>,
    pub origin: OriginParams,
    /// Tenants; empty means one unlimited tenant.
    pub tenants: Vec<TenantPolicy>,
}

impl StormConfig {
    /// The reference three-tier layout: 16-node racks behind a rack cache,
    /// 16 racks per row cache, one site cache in front of the origin. Rack
    /// size stays constant as the fleet grows, which is what keeps
    /// per-node latency flat: contention per rack instance never grows.
    pub fn default_for(nodes: usize) -> StormConfig {
        StormConfig {
            nodes,
            tiers: vec![
                TierSpec {
                    name: "rack",
                    group: 16,
                    capacity: Bytes::gib(32),
                    egress: 4,
                    hop: HopParams {
                        latency: SimSpan::micros(10),
                        bandwidth_bps: 10.0 * (1u64 << 30) as f64,
                    },
                },
                TierSpec {
                    name: "row",
                    group: 16,
                    capacity: Bytes::gib(128),
                    egress: 8,
                    hop: HopParams {
                        latency: SimSpan::micros(20),
                        bandwidth_bps: 25.0 * (1u64 << 30) as f64,
                    },
                },
                TierSpec {
                    name: "site",
                    group: 64,
                    capacity: Bytes::gib(1024),
                    egress: 16,
                    hop: HopParams {
                        latency: SimSpan::micros(50),
                        bandwidth_bps: 25.0 * (1u64 << 30) as f64,
                    },
                },
            ],
            origin: OriginParams::default(),
            tenants: Vec::new(),
        }
    }

    /// A compact two-tier (rack → site) layout for small golden scenarios.
    pub fn two_tier(nodes: usize, rack: usize) -> StormConfig {
        let mut cfg = StormConfig::default_for(nodes);
        cfg.tiers.remove(1);
        cfg.tiers[0].group = rack;
        cfg
    }
}

/// Aggregated per-tier counters (read back from the metrics registry).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    pub hits: u64,
    pub coalesce_hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub bytes_served: u64,
    pub bytes_filled: u64,
}

impl TierStats {
    /// Fraction of requests answered without going upstream (cache hits
    /// plus coalesced joins on an in-flight fill).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.coalesce_hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        (self.hits + self.coalesce_hits) as f64 / total as f64
    }
}

#[derive(Debug, Clone, Copy)]
struct CacheEntry {
    size: u64,
    tick: u64,
    tenant: usize,
}

#[derive(Debug, Clone, Copy)]
struct InFlight {
    done: SimTime,
    tenant: usize,
}

/// One pull-through cache instance: bounded LRU entries plus the in-flight
/// fill table that coalescing keys off.
#[derive(Debug, Default)]
struct TierCache {
    entries: HashMap<Digest, CacheEntry>,
    in_flight: HashMap<Digest, InFlight>,
    used: u64,
    tenant_used: Vec<u64>,
    tick: u64,
}

impl TierCache {
    fn touch(&mut self, digest: &Digest) {
        let tick = self.tick;
        self.tick += 1;
        if let Some(e) = self.entries.get_mut(digest) {
            e.tick = tick;
        }
    }

    /// Evict the least-recently-used entry matching `filter`. Returns the
    /// freed size, or `None` when nothing matches.
    fn evict_lru(&mut self, tenant: Option<usize>) -> Option<u64> {
        let victim = self
            .entries
            .iter()
            .filter(|(_, e)| tenant.is_none_or(|t| e.tenant == t))
            .min_by_key(|(_, e)| e.tick)
            .map(|(d, _)| *d)?;
        let e = self.entries.remove(&victim).expect("victim present");
        self.used -= e.size;
        self.tenant_used[e.tenant] -= e.size;
        Some(e.size)
    }
}

struct TenantMeta {
    policy: TenantPolicy,
    bucket: Option<TokenBucket>,
}

/// Correlated-outage overlay: a schedule plus the injector its decisions
/// report through and an admission queue for origin brownouts.
struct DomainGate {
    schedule: Arc<DomainSchedule>,
    faults: Arc<FaultInjector>,
    crash: Arc<CrashInjector>,
    admission: AdmissionQueue,
}

/// The tiered topology: `tiers.len()` levels of cache instances between
/// `nodes` pullers and one origin.
pub struct StormTopology {
    nodes: usize,
    tiers: Vec<TierSpec>,
    caches: Vec<Vec<Mutex<TierCache>>>,
    egress: Vec<Vec<QueueServer>>,
    origin: OriginParams,
    origin_egress: QueueServer,
    origin_reg: Option<Arc<Registry>>,
    /// Data plane: bytes fetched from the origin registry, shared
    /// content-addressed across every cache level.
    blob_data: RwLock<HashMap<Digest, Arc<Vec<u8>>>>,
    tenants: Vec<TenantMeta>,
    metrics: MetricsRegistry,
    tracer: RwLock<Arc<Tracer>>,
    domain: RwLock<Option<DomainGate>>,
}

impl StormTopology {
    /// Build a model-plane topology (no real bytes move).
    pub fn new(cfg: StormConfig) -> Arc<StormTopology> {
        StormTopology::build(cfg, None)
    }

    /// Build a data-plane topology backed by a real origin registry; the
    /// origin's own admission, rate-limit, and fault models apply to
    /// top-tier misses.
    pub fn with_origin(cfg: StormConfig, origin: Arc<Registry>) -> Arc<StormTopology> {
        StormTopology::build(cfg, Some(origin))
    }

    fn build(cfg: StormConfig, origin_reg: Option<Arc<Registry>>) -> Arc<StormTopology> {
        assert!(cfg.nodes >= 1, "a topology needs nodes");
        assert!(!cfg.tiers.is_empty(), "at least one cache tier");
        let tenants: Vec<TenantPolicy> = if cfg.tenants.is_empty() {
            vec![TenantPolicy::unlimited()]
        } else {
            cfg.tenants.clone()
        };
        let mut caches = Vec::new();
        let mut egress = Vec::new();
        let mut below = cfg.nodes;
        for tier in &cfg.tiers {
            assert!(tier.group >= 1, "tier {} group", tier.name);
            let count = below.div_ceil(tier.group);
            caches.push(
                (0..count)
                    .map(|_| {
                        Mutex::new(TierCache {
                            tenant_used: vec![0; tenants.len()],
                            ..TierCache::default()
                        })
                    })
                    .collect::<Vec<_>>(),
            );
            egress.push(
                (0..count)
                    .map(|_| QueueServer::new(tier.egress))
                    .collect::<Vec<_>>(),
            );
            below = count;
        }
        assert_eq!(below, 1, "top tier must reduce to a single instance");
        let origin_egress = QueueServer::new(cfg.origin.egress);
        Arc::new(StormTopology {
            nodes: cfg.nodes,
            tiers: cfg.tiers,
            caches,
            egress,
            origin: cfg.origin,
            origin_egress,
            origin_reg,
            blob_data: RwLock::new(HashMap::new()),
            tenants: tenants
                .into_iter()
                .map(|policy| TenantMeta {
                    bucket: policy
                        .rate
                        .map(|(rate, burst)| TokenBucket::new(rate, burst)),
                    policy,
                })
                .collect(),
            metrics: MetricsRegistry::new(),
            tracer: RwLock::new(Tracer::disabled()),
            domain: RwLock::new(None),
        })
    }

    /// Route spans from subsequent pulls to `tracer`.
    pub fn set_tracer(&self, tracer: Arc<Tracer>) {
        *self.tracer.write() = tracer;
    }

    /// Overlay a correlated-outage schedule on this topology. The
    /// schedule's domain topology is expected to mirror the tier groups
    /// (rack size = `tiers[0].group`, racks per row = `tiers[1].group`).
    /// Shed decisions pass the crash injector's
    /// `resilience.admission.shed.pre` point; pass
    /// [`CrashInjector::disabled`] outside the crash matrix.
    pub fn set_domain_schedule(
        &self,
        schedule: Arc<DomainSchedule>,
        faults: Arc<FaultInjector>,
        crash: Arc<CrashInjector>,
    ) {
        let admission = AdmissionQueue::new(
            "origin",
            AdmissionConfig {
                slots: self.origin.egress.max(1),
                max_wait: SimSpan::secs(2),
            },
        );
        *self.domain.write() = Some(DomainGate {
            schedule,
            faults,
            crash,
            admission,
        });
    }

    /// Nodes served by this topology.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Number of cache levels.
    pub fn levels(&self) -> usize {
        self.tiers.len()
    }

    /// Cache instances at `level` (0 = node-facing).
    pub fn instances(&self, level: usize) -> usize {
        self.caches[level].len()
    }

    /// The counters behind [`StormTopology::tier_stats`].
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Aggregated counters for one cache level.
    pub fn tier_stats(&self, level: usize) -> TierStats {
        let name = self.tiers[level].name;
        let get = |k: &str| self.metrics.get(&format!("storm.{name}.{k}"));
        TierStats {
            hits: get("hits"),
            coalesce_hits: get("coalesce_hits"),
            misses: get("misses"),
            evictions: get("evictions"),
            bytes_served: get("bytes_served"),
            bytes_filled: get("bytes_filled"),
        }
    }

    /// Requests that reached the origin (the stampede the tiers absorb).
    pub fn origin_requests(&self) -> u64 {
        self.metrics.get("storm.origin.requests")
    }

    fn tier_metric(&self, level: usize, key: &str, n: u64) {
        self.metrics
            .add(&format!("storm.{}.{key}", self.tiers[level].name), n);
    }

    /// Ensure `digest` is resident (or in flight) at `(level, inst)`;
    /// returns when the cache holds it. Recurses toward the origin on a
    /// miss; concurrent requests for an in-flight blob coalesce onto the
    /// pending fill instead of fetching again.
    #[allow(clippy::too_many_arguments)]
    fn ensure(
        &self,
        level: usize,
        inst: usize,
        tenant: usize,
        digest: &Digest,
        size: u64,
        at: SimTime,
        origin_ok: bool,
    ) -> Result<SimTime, RegistryError> {
        {
            let mut c = self.caches[level][inst].lock();
            if c.entries.contains_key(digest) {
                c.touch(digest);
                self.tier_metric(level, "hits", 1);
                return Ok(at);
            }
            if let Some(f) = c.in_flight.get(digest).copied() {
                if at < f.done {
                    // Coalesce: join the pending fill, no new upstream fetch.
                    self.tier_metric(level, "coalesce_hits", 1);
                    return Ok(f.done);
                }
                // The fill completed; promote it to a resident entry.
                c.in_flight.remove(digest);
                self.admit_entry(&mut c, level, *digest, size, f.tenant);
                c.touch(digest);
                self.tier_metric(level, "hits", 1);
                return Ok(at);
            }
            self.tier_metric(level, "misses", 1);
        }
        // Miss: fetch from the level above (or the origin), then fill.
        let fill_done = if level + 1 < self.tiers.len() {
            let up_inst = inst / self.tiers[level + 1].group;
            let ready = self.ensure(level + 1, up_inst, tenant, digest, size, at, origin_ok)?;
            let hop = self.tiers[level + 1].hop;
            let xfer = SimSpan::from_secs_f64(size as f64 / hop.bandwidth_bps);
            let (_, sent) = self.egress[level + 1][up_inst].submit(ready, xfer);
            self.tier_metric(level + 1, "bytes_served", size);
            sent + hop.latency
        } else {
            if !origin_ok {
                // Split-brain: the requester's row is partitioned from
                // the origin. Everything cached below keeps serving, but
                // an origin-bound fill hangs until the client times out.
                self.metrics.incr("storm.domain.partition_timeouts");
                return Err(RegistryError::Timeout {
                    after: self.origin.request_latency,
                });
            }
            self.origin_fetch(digest, size, at)?
        };
        self.tier_metric(level, "bytes_filled", size);
        self.tracer.read().record(
            sym!("tier.fill"),
            Stage::Request,
            at,
            fill_done,
            &[
                ("tier", self.tiers[level].name.to_string()),
                ("instance", inst.to_string()),
                ("digest", digest.short().to_string()),
                ("bytes", size.to_string()),
            ],
        );
        let mut c = self.caches[level][inst].lock();
        c.in_flight.insert(
            *digest,
            InFlight {
                done: fill_done,
                tenant,
            },
        );
        Ok(fill_done)
    }

    /// Insert a freshly filled entry, evicting LRU victims until both the
    /// tenant quota and the instance capacity hold. Blobs larger than the
    /// capacity are served through without being cached.
    fn admit_entry(
        &self,
        c: &mut TierCache,
        level: usize,
        digest: Digest,
        size: u64,
        tenant: usize,
    ) {
        let capacity = self.tiers[level].capacity.as_u64();
        if size > capacity {
            return;
        }
        if let Some(quota) = self.tenants[tenant].policy.cache_quota {
            while c.tenant_used[tenant] + size > quota.as_u64() {
                if self.evict(c, level, Some(tenant)).is_none() {
                    return; // quota smaller than the blob: serve through
                }
            }
        }
        while c.used + size > capacity {
            self.evict(c, level, None).expect("capacity >= size");
        }
        let tick = c.tick;
        c.tick += 1;
        c.used += size;
        c.tenant_used[tenant] += size;
        c.entries.insert(digest, CacheEntry { size, tick, tenant });
    }

    fn evict(&self, c: &mut TierCache, level: usize, tenant: Option<usize>) -> Option<u64> {
        let freed = c.evict_lru(tenant)?;
        self.tier_metric(level, "evictions", 1);
        Some(freed)
    }

    /// Top-tier miss: fetch from the origin. Model plane uses the
    /// [`OriginParams`] queue; data plane defers to the real registry's
    /// admission and egress models and keeps the bytes.
    fn origin_fetch(
        &self,
        digest: &Digest,
        size: u64,
        at: SimTime,
    ) -> Result<SimTime, RegistryError> {
        // Origin overload: admission control sheds rather than queueing
        // unboundedly, so brownouts surface as fast RateLimited errors
        // the resilience layer can fail over on.
        if let Some(gate) = self.domain.read().as_ref() {
            if gate.schedule.origin_overloaded(at) {
                match gate
                    .admission
                    .admit(
                        &gate.faults,
                        &gate.crash,
                        at,
                        SimSpan::from_secs_f64(size as f64 / self.origin.bandwidth_bps)
                            + self.origin.request_latency,
                        1, // brownout: a single live service slot
                    )
                    .map_err(|_| RegistryError::Unavailable { status: 503 })?
                {
                    Admission::Admitted { .. } => {}
                    Admission::Shed { retry_after } => {
                        self.metrics.incr("storm.origin.shed");
                        return Err(RegistryError::RateLimited { retry_after });
                    }
                }
            }
        }
        self.metrics.incr("storm.origin.requests");
        self.metrics.add("storm.origin.bytes", size);
        let done = match &self.origin_reg {
            Some(reg) => {
                let (data, done) = reg.pull_blob(digest, at)?;
                self.blob_data.write().insert(*digest, data);
                done
            }
            None => {
                let xfer = SimSpan::from_secs_f64(size as f64 / self.origin.bandwidth_bps);
                let (_, sent) = self
                    .origin_egress
                    .submit(at + self.origin.request_latency, xfer);
                sent
            }
        };
        self.tracer.read().record(
            sym!("tier.origin"),
            Stage::Request,
            at,
            done,
            &[
                ("digest", digest.short().to_string()),
                ("bytes", size.to_string()),
            ],
        );
        Ok(done)
    }

    /// Pull one sized blob for `node` through the hierarchy; returns the
    /// completion time at the node. The model-plane workhorse.
    pub fn pull_sized(
        &self,
        node: usize,
        tenant: usize,
        digest: &Digest,
        size: u64,
        at: SimTime,
    ) -> Result<SimTime, RegistryError> {
        assert!(node < self.nodes, "node {node} outside the fleet");
        assert!(tenant < self.tenants.len(), "unknown tenant {tenant}");
        let mut origin_ok = true;
        if let Some(gate) = self.domain.read().as_ref() {
            if gate.schedule.node_down(node, at) {
                // The node's rack has no power (or no uplink): the pull
                // never leaves the node.
                self.metrics.incr("storm.domain.node_down_rejects");
                return Err(RegistryError::Unavailable { status: 503 });
            }
            origin_ok = !gate.schedule.partitioned_from_origin(node, at);
        }
        let at = match &self.tenants[tenant].bucket {
            Some(b) => {
                let admitted = b.admit_at(at);
                if admitted > at {
                    self.metrics
                        .add("storm.tenant.rate_wait_ns", (admitted - at).as_nanos());
                }
                admitted
            }
            None => at,
        };
        self.metrics.incr(&format!(
            "storm.tenant.{}.pulls",
            self.tenants[tenant].policy.name
        ));
        let rack = node / self.tiers[0].group;
        let ready = self.ensure(0, rack, tenant, digest, size, at, origin_ok)?;
        let hop = self.tiers[0].hop;
        let xfer = SimSpan::from_secs_f64(size as f64 / hop.bandwidth_bps);
        let (_, sent) = self.egress[0][rack].submit(ready.max(at), xfer);
        self.tier_metric(0, "bytes_served", size);
        let done = sent + hop.latency;
        self.tracer.read().record(
            sym!("tier.pull"),
            Stage::Request,
            at,
            done,
            &[
                ("node", node.to_string()),
                ("digest", digest.short().to_string()),
                ("bytes", size.to_string()),
            ],
        );
        Ok(done)
    }

    /// Pull a whole image (manifest, then all blobs in parallel) in the
    /// model plane. Returns the completion time of the slowest blob and
    /// each blob's own completion time.
    pub fn pull_image_sized(
        &self,
        node: usize,
        tenant: usize,
        image: &ImageSpec,
        at: SimTime,
    ) -> Result<(SimTime, Vec<SimTime>), RegistryError> {
        let (mdigest, msize) = image.manifest;
        let mdone = self.pull_sized(node, tenant, &mdigest, msize, at)?;
        let mut blob_done = Vec::with_capacity(image.blobs.len());
        let mut done = mdone;
        for (digest, size) in &image.blobs {
            let t = self.pull_sized(node, tenant, digest, *size, mdone)?;
            done = done.max(t);
            blob_done.push(t);
        }
        Ok((done, blob_done))
    }

    /// Data-plane manifest pull: resolve at the origin (control plane),
    /// then move the manifest bytes through the hierarchy like any blob.
    pub fn pull_manifest(
        &self,
        node: usize,
        tenant: usize,
        repo: &str,
        tag: &str,
        at: SimTime,
    ) -> Result<(Manifest, SimTime), RegistryError> {
        let origin = self
            .origin_reg
            .as_ref()
            .expect("data plane needs an origin");
        let digest = origin.resolve_tag(repo, tag)?;
        let size = origin.cas().get(&digest)?.len() as u64;
        let done = self.pull_sized(node, tenant, &digest, size, at)?;
        let data = self.blob_bytes(&digest)?;
        Ok((Manifest::from_bytes(&data)?, done))
    }

    /// Data-plane blob pull through the hierarchy.
    pub fn pull_blob(
        &self,
        node: usize,
        tenant: usize,
        digest: &Digest,
        at: SimTime,
    ) -> Result<(Arc<Vec<u8>>, SimTime), RegistryError> {
        let origin = self
            .origin_reg
            .as_ref()
            .expect("data plane needs an origin");
        let size = origin.cas().get(digest)?.len() as u64;
        let done = self.pull_sized(node, tenant, digest, size, at)?;
        Ok((self.blob_bytes(digest)?, done))
    }

    /// Bytes for a digest the data plane has seen (fetches from the origin
    /// CAS if a coalesced fill has not deposited them yet).
    fn blob_bytes(&self, digest: &Digest) -> Result<Arc<Vec<u8>>, RegistryError> {
        if let Some(data) = self.blob_data.read().get(digest) {
            return Ok(Arc::clone(data));
        }
        let origin = self
            .origin_reg
            .as_ref()
            .expect("data plane needs an origin");
        let data = origin.cas().get(digest)?;
        self.blob_data.write().insert(*digest, Arc::clone(&data));
        Ok(data)
    }
}

/// A sized image for the model plane: digests plus byte counts only.
#[derive(Debug, Clone)]
pub struct ImageSpec {
    pub manifest: (Digest, u64),
    /// Layer and config blobs, pull order.
    pub blobs: Vec<(Digest, u64)>,
}

impl ImageSpec {
    /// Total bytes a cold pull of this image moves.
    pub fn total_bytes(&self) -> u64 {
        self.manifest.1 + self.blobs.iter().map(|(_, s)| s).sum::<u64>()
    }

    /// A synthetic image: `layers` equal layers summing to `total`, plus a
    /// small config and manifest. Digests are derived from `label` so
    /// distinct images never collide.
    pub fn synthetic(label: &str, layers: usize, total: Bytes) -> ImageSpec {
        assert!(layers >= 1);
        let layer = total.as_u64() / layers as u64;
        let mut blobs = Vec::with_capacity(layers + 1);
        blobs.push((digest_of(&format!("{label}/config")), 4 * 1024));
        for l in 0..layers {
            let size = if l == layers - 1 {
                total.as_u64() - layer * (layers as u64 - 1)
            } else {
                layer
            };
            blobs.push((digest_of(&format!("{label}/layer{l}")), size));
        }
        ImageSpec {
            manifest: (digest_of(&format!("{label}/manifest")), 2 * 1024),
            blobs,
        }
    }
}

fn digest_of(label: &str) -> Digest {
    hpcc_crypto::sha256::sha256(label.as_bytes())
}

/// A node's handle on the topology — the engine-facing adapter. Pulls are
/// attributed to `node` (for rack routing) and to the first tenant.
#[derive(Clone)]
pub struct TierClient {
    topo: Arc<StormTopology>,
    node: usize,
}

impl TierClient {
    pub fn new(topo: Arc<StormTopology>, node: usize) -> TierClient {
        TierClient { topo, node }
    }

    pub fn topology(&self) -> &Arc<StormTopology> {
        &self.topo
    }

    pub fn pull_manifest(
        &self,
        repo: &str,
        tag: &str,
        at: SimTime,
    ) -> Result<(Manifest, SimTime), RegistryError> {
        self.topo.pull_manifest(self.node, 0, repo, tag, at)
    }

    pub fn pull_blob(
        &self,
        digest: &Digest,
        at: SimTime,
    ) -> Result<(Arc<Vec<u8>>, SimTime), RegistryError> {
        self.topo.pull_blob(self.node, 0, digest, at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::RegistryCaps;

    fn model(nodes: usize) -> Arc<StormTopology> {
        StormTopology::new(StormConfig::default_for(nodes))
    }

    #[test]
    fn instance_counts_follow_grouping() {
        let topo = model(10_000);
        assert_eq!(topo.levels(), 3);
        assert_eq!(topo.instances(0), 625);
        assert_eq!(topo.instances(1), 40);
        assert_eq!(topo.instances(2), 1);
    }

    #[test]
    fn one_origin_fetch_per_blob_under_a_storm() {
        let topo = model(1024);
        let image = ImageSpec::synthetic("app", 4, Bytes::gib(2));
        for node in 0..1024 {
            topo.pull_image_sized(node, 0, &image, SimTime::ZERO)
                .expect("pull");
        }
        // 6 distinct blobs (manifest + config + 4 layers): exactly one
        // origin fetch each, no matter how many nodes stampeded.
        assert_eq!(topo.origin_requests(), 6);
        let rack = topo.tier_stats(0);
        assert!(rack.coalesce_hits > 0, "no coalescing under a storm");
        assert!(
            rack.hit_ratio() > 0.9,
            "rack hit ratio {}",
            rack.hit_ratio()
        );
    }

    #[test]
    fn domain_gate_rejects_partitions_and_sheds() {
        use hpcc_sim::{DomainTopology, OutageEvent, OutageKind};
        let topo = model(64);
        let t = |s: u64| SimTime::ZERO + SimSpan::secs(s);
        let dt = DomainTopology::new(64, 16, 16);
        let schedule = Arc::new(DomainSchedule::new(
            dt,
            vec![
                OutageEvent {
                    kind: OutageKind::RackPower { rack: 0 },
                    from: t(0),
                    until: t(1),
                },
                OutageEvent {
                    kind: OutageKind::RowPartition { row: 0 },
                    from: t(2),
                    until: t(3),
                },
                OutageEvent {
                    kind: OutageKind::OriginOverload,
                    from: t(10),
                    until: t(11),
                },
            ],
        ));
        topo.set_domain_schedule(
            schedule,
            Arc::new(FaultInjector::new(7, Vec::new())),
            CrashInjector::disabled(),
        );
        // Rack 0 has no power: its nodes cannot pull; rack 1 is fine.
        let d0 = digest_of("warm");
        assert!(matches!(
            topo.pull_sized(0, 0, &d0, 1 << 20, t(0)),
            Err(RegistryError::Unavailable { status: 503 })
        ));
        let warm_done = topo.pull_sized(20, 0, &d0, 1 << 20, t(0)).expect("pull");
        // Promote the fill so the partition window sees a resident entry.
        topo.pull_sized(21, 0, &d0, 1 << 20, warm_done)
            .expect("pull");
        // Row partition: cached content still serves (split-brain), but
        // an origin-bound fill times out.
        topo.pull_sized(20, 0, &d0, 1 << 20, t(2))
            .expect("cache hit");
        assert!(matches!(
            topo.pull_sized(20, 0, &digest_of("cold"), 1 << 20, t(2)),
            Err(RegistryError::Timeout { .. })
        ));
        // Origin overload: admission control sheds the stampede past the
        // first (degraded) service slot.
        let big = 4u64 << 30;
        topo.pull_sized(20, 0, &digest_of("big1"), big, t(10))
            .expect("admitted");
        assert!(matches!(
            topo.pull_sized(20, 0, &digest_of("big2"), big, t(10)),
            Err(RegistryError::RateLimited { .. })
        ));
        let m = topo.metrics();
        assert_eq!(m.get("storm.domain.node_down_rejects"), 1);
        assert_eq!(m.get("storm.domain.partition_timeouts"), 1);
        assert_eq!(m.get("storm.origin.shed"), 1);
        // Outside every window the gate is inert.
        topo.pull_sized(0, 0, &digest_of("healed"), 1 << 20, t(20))
            .expect("healed");
    }

    #[test]
    fn capacity_eviction_keeps_used_bounded() {
        let mut cfg = StormConfig::default_for(16);
        cfg.tiers[0].capacity = Bytes::gib(1);
        let topo = StormTopology::new(cfg);
        // Five distinct 512 MiB blobs through a 1 GiB rack cache.
        for i in 0..5 {
            let d = digest_of(&format!("blob{i}"));
            let t = topo
                .pull_sized(0, 0, &d, 512 * (1 << 20), SimTime::ZERO)
                .expect("pull");
            // Promote the fill so eviction accounting sees it.
            topo.pull_sized(1, 0, &d, 512 * (1 << 20), t).expect("pull");
        }
        let rack = topo.tier_stats(0);
        assert!(rack.evictions >= 3, "evictions {}", rack.evictions);
        let c = topo.caches[0][0].lock();
        assert!(c.used <= Bytes::gib(1).as_u64());
    }

    #[test]
    fn tenant_quota_evicts_only_that_tenant() {
        let mut cfg = StormConfig::default_for(16);
        cfg.tenants = vec![
            TenantPolicy {
                name: "a",
                rate: None,
                cache_quota: Some(Bytes::mib(600)),
            },
            TenantPolicy {
                name: "b",
                rate: None,
                cache_quota: None,
            },
        ];
        let topo = StormTopology::new(cfg);
        let mut at = SimTime::ZERO;
        for i in 0..4 {
            let d = digest_of(&format!("a{i}"));
            at = topo
                .pull_sized(0, 0, &d, 512 * (1 << 20), at)
                .expect("pull");
            at = topo
                .pull_sized(1, 0, &d, 512 * (1 << 20), at)
                .expect("pull");
        }
        let db = digest_of("b0");
        at = topo
            .pull_sized(2, 1, &db, 256 * (1 << 20), at)
            .expect("pull");
        topo.pull_sized(3, 1, &db, 256 * (1 << 20), at)
            .expect("pull");
        let c = topo.caches[0][0].lock();
        // Tenant a is capped at one 512 MiB entry; b's entry survived.
        assert!(c.tenant_used[0] <= 600 * (1 << 20));
        assert_eq!(c.tenant_used[1], 256 * (1 << 20));
    }

    #[test]
    fn tenant_rate_limit_delays_pulls() {
        let mut cfg = StormConfig::default_for(16);
        cfg.tenants = vec![TenantPolicy {
            name: "throttled",
            rate: Some((1.0, 1)),
            cache_quota: None,
        }];
        let topo = StormTopology::new(cfg);
        let d = digest_of("x");
        let t1 = topo
            .pull_sized(0, 0, &d, 1024, SimTime::ZERO)
            .expect("pull");
        let t2 = topo.pull_sized(1, 0, &d, 1024, t1).expect("pull");
        assert!(
            t2.since(t1) >= SimSpan::from_secs_f64(0.5),
            "second pull should wait on the bucket: {:?}",
            t2.since(t1)
        );
        assert!(topo.metrics().get("storm.tenant.rate_wait_ns") > 0);
    }

    #[test]
    fn data_plane_serves_real_bytes_through_the_tiers() {
        use hpcc_oci::builder::samples;
        use hpcc_oci::cas::Cas;
        let hub = Registry::new("origin", RegistryCaps::open());
        hub.create_namespace("library", None).unwrap();
        let cas = Cas::new();
        let img = samples::python_app(&cas, 20);
        hub.push_image("library/python-app", "v1", &img.manifest, &cas)
            .unwrap();
        let topo = StormTopology::with_origin(StormConfig::two_tier(8, 4), Arc::new(hub));
        let (m, mdone) = topo
            .pull_manifest(0, 0, "library/python-app", "v1", SimTime::ZERO)
            .expect("manifest");
        assert_eq!(m, img.manifest);
        let layer = m.layers[0];
        let (got, done) = topo.pull_blob(0, 0, &layer.digest, mdone).expect("pull");
        assert_eq!(hpcc_crypto::sha256::sha256(&got), layer.digest);
        assert!(done > mdone);
        // A second node hits the warm rack cache without a new origin trip.
        let before = topo.origin_requests();
        topo.pull_blob(1, 0, &layer.digest, done).expect("pull");
        assert_eq!(topo.origin_requests(), before);
    }
}
