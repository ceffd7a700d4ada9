//! The content-addressed build cache.
//!
//! Keys are the `BuildSpec::state_chain`
//! digests — (parent state, step fingerprint) folded into one hash — and
//! values name the layer archive the step produced (or record that the
//! step was a filesystem no-op). Layer bytes themselves live in a shared
//! [`BlobStore`], which is exactly the dedup/refcount machinery the
//! pull path already uses: identical steps across tenants resolve to the
//! same blob, and eviction is the store's LRU problem, not ours. If the
//! store evicted a layer out from under an index entry, the lookup
//! degrades to a miss and the step simply re-runs.

use hpcc_crypto::sha256::Digest;
use hpcc_oci::layer::SealedLayer;
use hpcc_storage::BlobStore;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What the cache remembers about one completed step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CachedStep {
    /// The step produced this layer blob (archive bytes in the store).
    Layer(Digest),
    /// The step ran but changed nothing (no layer).
    NoOp,
}

/// Counters for the bench gates and `build.cache` metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuildCacheStats {
    /// Lookups that returned a usable cached step.
    pub hits: u64,
    /// Lookups that missed (including index hits whose blob was evicted).
    pub misses: u64,
    /// Index entries currently held.
    pub entries: u64,
}

/// A build cache over a shared blob store. Cheap to clone the `Arc`;
/// share one instance across every tenant of a site to get cross-tenant
/// step dedup.
pub struct BuildCache {
    store: Arc<BlobStore>,
    index: Mutex<HashMap<Digest, CachedStep>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// A cache lookup that hit.
#[derive(Debug, Clone)]
pub enum CachedLayer {
    /// The layer, decoded and ready to apply, still holding the store's
    /// own blob and the digest the store keeps it under.
    Layer(SealedLayer),
    /// Cached knowledge that the step writes nothing.
    NoOp,
}

impl BuildCache {
    /// A cache over an existing (possibly shared) blob store.
    pub fn new(store: Arc<BlobStore>) -> Arc<BuildCache> {
        Arc::new(BuildCache {
            store,
            index: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    /// A cache over a fresh node-local store (tests, single-node builds).
    pub fn node_local() -> Arc<BuildCache> {
        BuildCache::new(BlobStore::node_local())
    }

    /// The backing store (shared with the pull path in full stacks).
    pub fn store(&self) -> &Arc<BlobStore> {
        &self.store
    }

    /// Look up the step keyed by chain `state`. `Some` is a hit — either
    /// the layer (fetched back out of the blob store) or the knowledge
    /// that the step is a no-op. `None` is a miss; the caller runs the
    /// step and [`insert`](Self::insert)s.
    pub fn lookup(&self, state: &Digest) -> Option<CachedLayer> {
        let cached = { self.index.lock().get(state).copied() };
        let out = match cached {
            Some(CachedStep::NoOp) => Some(CachedLayer::NoOp),
            Some(CachedStep::Layer(layer)) => match self.store.get(&layer) {
                Some(bytes) => SealedLayer::from_stored(layer, bytes)
                    .ok()
                    .map(CachedLayer::Layer),
                None => {
                    // Evicted under us: drop the dangling index entry.
                    self.index.lock().remove(state);
                    None
                }
            },
            None => None,
        };
        match &out {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        out
    }

    /// Record a completed step. Layer bytes go into the shared store
    /// (insert pins, release immediately — resident as evictable cache),
    /// the index remembers which blob the state maps to.
    pub fn insert(&self, state: Digest, layer: Option<&SealedLayer>) {
        let cached = match layer {
            Some(layer) => {
                let digest = layer.blob_digest();
                self.store.insert(digest, Arc::clone(layer.bytes()));
                self.store.release(&digest);
                CachedStep::Layer(digest)
            }
            None => CachedStep::NoOp,
        };
        self.index.lock().insert(state, cached);
    }

    pub fn stats(&self) -> BuildCacheStats {
        BuildCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.index.lock().len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcc_codec::archive::{Archive, Entry};
    use hpcc_crypto::sha256::sha256;

    fn layer() -> SealedLayer {
        let mut a = Archive::new();
        a.push(Entry::file("x", vec![7u8; 64]));
        SealedLayer::seal(a)
    }

    #[test]
    fn roundtrip_hit_and_stats() {
        let cache = BuildCache::node_local();
        let state = sha256(b"state");
        assert!(cache.lookup(&state).is_none());
        cache.insert(state, Some(&layer()));
        match cache.lookup(&state) {
            Some(CachedLayer::Layer(l)) => {
                assert_eq!(l.archive(), layer().archive());
                assert_eq!(l.blob_digest(), layer().archive().digest());
            }
            other => panic!("expected layer hit, got {other:?}"),
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn noop_steps_cache_too() {
        let cache = BuildCache::node_local();
        let state = sha256(b"noop");
        cache.insert(state, None);
        assert!(matches!(cache.lookup(&state), Some(CachedLayer::NoOp)));
    }

    #[test]
    fn eviction_degrades_to_miss() {
        let cache = BuildCache::node_local();
        let state = sha256(b"evict");
        let l = layer();
        cache.insert(state, Some(&l));
        // Simulate LRU eviction of the backing blob.
        assert!(cache.store().remove_unpinned(&l.blob_digest()));
        assert!(cache.lookup(&state).is_none(), "dangling entry is a miss");
        assert_eq!(cache.stats().entries, 0, "dangling entry dropped");
    }
}
