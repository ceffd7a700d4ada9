//! Sharded content-addressed blob store with refcounted dedup and LRU
//! eviction.
//!
//! Section 3.1 of the survey: "layer deduplication can be employed in
//! registries and locally based on equal hashes (content-addressable
//! storage)". Engines that share a node-local layer store (Sarus, enroot
//! caches, containerd snapshotters) avoid re-fetching and re-converting
//! layers that another image — or another engine on the same node —
//! already brought in. [`BlobStore`] is that shared store:
//!
//! * **Content-addressed**: blobs are keyed by their SHA-256 [`Digest`];
//!   inserting bytes that are already present bumps a refcount instead of
//!   storing a second copy, and the bytes saved are accounted as
//!   `dedup_bytes`.
//! * **Sharded**: the digest's first byte picks one of N independently
//!   locked shards, so concurrent pull pipelines do not serialize on one
//!   lock. Shard choice is a pure function of the digest — layout is
//!   deterministic and identical across runs.
//! * **Bounded with LRU eviction**: each shard holds `capacity / shards`
//!   bytes; when an insert overflows a shard, unreferenced entries are
//!   evicted least-recently-used first. Recency is a per-shard logical
//!   tick (not wall clock), so eviction order is reproducible.
//! * **Observable**: hits, misses, dedup hits/bytes, evictions and
//!   resident bytes are exposed via [`BlobStoreStats`] for the benchmark
//!   suite and the registry proxy.

use hpcc_crypto::sha256::Digest;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Aggregated counters across all shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BlobStoreStats {
    /// `get` calls that found the blob.
    pub hits: u64,
    /// Bytes served from the store by hitting `get` calls — bytes that did
    /// not have to be re-fetched from a registry.
    pub hit_bytes: u64,
    /// `get` calls that missed.
    pub misses: u64,
    /// `insert` calls that found the blob already stored (refcount bump).
    pub dedup_hits: u64,
    /// Bytes that did **not** have to be stored again thanks to dedup.
    pub dedup_bytes: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Distinct blobs currently resident.
    pub resident_blobs: u64,
    /// Bytes currently resident.
    pub resident_bytes: u64,
}

struct Entry {
    data: Arc<Vec<u8>>,
    refs: u64,
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    entries: HashMap<Digest, Entry>,
    used_bytes: u64,
    tick: u64,
    evictions: u64,
}

impl Shard {
    fn touch(&mut self, digest: &Digest) {
        self.tick += 1;
        let tick = self.tick;
        if let Some(e) = self.entries.get_mut(digest) {
            e.last_used = tick;
        }
    }

    /// Evict unreferenced entries, least-recently-used first, until the
    /// shard fits in `capacity`. Pinned (refs > 0) entries are never
    /// evicted, so a shard may legitimately exceed capacity while its
    /// contents are all in use.
    fn evict_to(&mut self, capacity: u64) {
        while self.used_bytes > capacity {
            let victim = self
                .entries
                .iter()
                .filter(|(_, e)| e.refs == 0)
                .min_by_key(|(d, e)| (e.last_used, **d))
                .map(|(d, _)| *d);
            match victim {
                Some(d) => {
                    if let Some(e) = self.entries.remove(&d) {
                        self.used_bytes -= e.data.len() as u64;
                        self.evictions += 1;
                    }
                }
                None => break,
            }
        }
    }
}

/// Sharded, refcounted, LRU-bounded content-addressed blob store.
pub struct BlobStore {
    shards: Vec<Mutex<Shard>>,
    shard_capacity: u64,
    hits: AtomicU64,
    hit_bytes: AtomicU64,
    misses: AtomicU64,
    dedup_hits: AtomicU64,
    dedup_bytes: AtomicU64,
}

impl BlobStore {
    /// A store with `shards` independently locked shards sharing
    /// `capacity_bytes` evenly. `shards` is clamped to at least 1.
    pub fn new(shards: usize, capacity_bytes: u64) -> Arc<BlobStore> {
        let shards = shards.max(1);
        Arc::new(BlobStore {
            shard_capacity: capacity_bytes / shards as u64,
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            hits: AtomicU64::new(0),
            hit_bytes: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            dedup_hits: AtomicU64::new(0),
            dedup_bytes: AtomicU64::new(0),
        })
    }

    /// A store sized for node-local layer caches: 16 shards, 8 GiB.
    pub fn node_local() -> Arc<BlobStore> {
        BlobStore::new(16, 8 << 30)
    }

    fn shard(&self, digest: &Digest) -> &Mutex<Shard> {
        &self.shards[digest.0[0] as usize % self.shards.len()]
    }

    /// Look up a blob. Counts a hit or miss and refreshes LRU recency.
    pub fn get(&self, digest: &Digest) -> Option<Arc<Vec<u8>>> {
        let mut shard = self.shard(digest).lock();
        shard.touch(digest);
        match shard.entries.get(digest) {
            Some(e) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.hit_bytes
                    .fetch_add(e.data.len() as u64, Ordering::Relaxed);
                Some(Arc::clone(&e.data))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// True if the blob is resident. Does not count as a hit/miss and does
    /// not refresh recency (registry HEAD-style probe).
    pub fn contains(&self, digest: &Digest) -> bool {
        self.shard(digest).lock().entries.contains_key(digest)
    }

    /// Insert a blob under its digest, taking one reference. If the blob
    /// is already resident this is a dedup hit: the refcount is bumped and
    /// no bytes are stored. Returns `true` if the bytes were newly stored.
    pub fn insert(&self, digest: Digest, data: Arc<Vec<u8>>) -> bool {
        let mut shard = self.shard(&digest).lock();
        shard.tick += 1;
        let tick = shard.tick;
        if let Some(e) = shard.entries.get_mut(&digest) {
            e.refs += 1;
            e.last_used = tick;
            self.dedup_hits.fetch_add(1, Ordering::Relaxed);
            self.dedup_bytes
                .fetch_add(data.len() as u64, Ordering::Relaxed);
            return false;
        }
        let size = data.len() as u64;
        shard.entries.insert(
            digest,
            Entry {
                data,
                refs: 1,
                last_used: tick,
            },
        );
        shard.used_bytes += size;
        let cap = self.shard_capacity;
        shard.evict_to(cap);
        true
    }

    /// Drop one reference to a blob. Unreferenced blobs stay resident (as
    /// cache) until LRU eviction needs their space. Unknown digests are a
    /// no-op (the blob may already have been evicted after its last
    /// release).
    pub fn release(&self, digest: &Digest) {
        let mut shard = self.shard(digest).lock();
        if let Some(e) = shard.entries.get_mut(digest) {
            e.refs = e.refs.saturating_sub(1);
        }
    }

    /// Current refcount of a resident blob (`None` if absent). Inspection
    /// hook for the crash-recovery fsck and the eviction/pin tests.
    pub fn refcount(&self, digest: &Digest) -> Option<u64> {
        self.shard(digest)
            .lock()
            .entries
            .get(digest)
            .map(|e| e.refs)
    }

    /// Digests currently pinned (refs > 0), sorted. A quiesced store — no
    /// pull or conversion in flight — must report none: every pin taken by
    /// an operation must be released when the operation ends.
    pub fn pinned(&self) -> Vec<Digest> {
        let mut out: Vec<Digest> = Vec::new();
        for shard in &self.shards {
            out.extend(
                shard
                    .lock()
                    .entries
                    .iter()
                    .filter(|(_, e)| e.refs > 0)
                    .map(|(d, _)| *d),
            );
        }
        out.sort();
        out
    }

    /// Remove a blob outright if it is unpinned. Returns `true` if removed;
    /// a pinned or absent blob is left alone. Used by the recovery fsck to
    /// garbage-collect staged blobs whose intent never committed — never by
    /// steady-state code, which relies on LRU eviction.
    pub fn remove_unpinned(&self, digest: &Digest) -> bool {
        let mut shard = self.shard(digest).lock();
        let removable = matches!(shard.entries.get(digest), Some(e) if e.refs == 0);
        if removable {
            if let Some(e) = shard.entries.remove(digest) {
                shard.used_bytes -= e.data.len() as u64;
            }
        }
        removable
    }

    /// Zero every refcount, returning how many entries were pinned. After
    /// a crash nothing is legitimately in flight, so the recovery fsck
    /// rebuilds refcounts from this clean slate (pins died with their
    /// owners; the journal knows which blobs are wanted).
    pub(crate) fn reset_refs(&self) -> u64 {
        let mut cleared = 0;
        for shard in &self.shards {
            for e in shard.lock().entries.values_mut() {
                if e.refs > 0 {
                    cleared += 1;
                    e.refs = 0;
                }
            }
        }
        cleared
    }

    /// All resident digests, sorted (for determinism checks: two runs at
    /// different parallelism must converge to identical contents).
    pub fn digests(&self) -> Vec<Digest> {
        let mut out: Vec<Digest> = Vec::new();
        for shard in &self.shards {
            out.extend(shard.lock().entries.keys().copied());
        }
        out.sort();
        out
    }

    /// Aggregated statistics snapshot.
    pub fn stats(&self) -> BlobStoreStats {
        let mut resident_blobs = 0;
        let mut resident_bytes = 0;
        let mut evictions = 0;
        for shard in &self.shards {
            let s = shard.lock();
            resident_blobs += s.entries.len() as u64;
            resident_bytes += s.used_bytes;
            evictions += s.evictions;
        }
        BlobStoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            hit_bytes: self.hit_bytes.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            dedup_hits: self.dedup_hits.load(Ordering::Relaxed),
            dedup_bytes: self.dedup_bytes.load(Ordering::Relaxed),
            evictions,
            resident_blobs,
            resident_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcc_crypto::sha256::sha256;

    fn blob(tag: u8, len: usize) -> (Digest, Arc<Vec<u8>>) {
        let data = vec![tag; len];
        (sha256(&data), Arc::new(data))
    }

    #[test]
    fn miss_then_insert_then_hit() {
        let store = BlobStore::new(4, 1 << 20);
        let (d, data) = blob(1, 100);
        assert!(store.get(&d).is_none());
        assert!(store.insert(d, Arc::clone(&data)));
        assert_eq!(store.get(&d).as_deref(), Some(&*data));
        let s = store.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.hit_bytes, 100);
        assert_eq!(s.resident_blobs, 1);
        assert_eq!(s.resident_bytes, 100);
    }

    #[test]
    fn duplicate_insert_is_dedup_not_storage() {
        let store = BlobStore::new(4, 1 << 20);
        let (d, data) = blob(2, 500);
        assert!(store.insert(d, Arc::clone(&data)));
        assert!(!store.insert(d, Arc::clone(&data)));
        let s = store.stats();
        assert_eq!(s.dedup_hits, 1);
        assert_eq!(s.dedup_bytes, 500);
        assert_eq!(s.resident_bytes, 500, "bytes stored once");
    }

    #[test]
    fn lru_evicts_unreferenced_oldest_first() {
        // One shard, capacity for two 100-byte blobs.
        let store = BlobStore::new(1, 200);
        let (da, a) = blob(1, 100);
        let (db, b) = blob(2, 100);
        let (dc, c) = blob(3, 100);
        store.insert(da, a);
        store.insert(db, b);
        store.release(&da);
        store.release(&db);
        store.get(&da); // refresh a: b is now least recently used
        store.insert(dc, c); // overflows: b must go
        assert!(store.contains(&da));
        assert!(!store.contains(&db));
        assert!(store.contains(&dc));
        assert_eq!(store.stats().evictions, 1);
    }

    #[test]
    fn pinned_blobs_survive_overflow() {
        let store = BlobStore::new(1, 100);
        let (da, a) = blob(1, 80);
        let (db, b) = blob(2, 80);
        store.insert(da, a); // pinned (refs = 1)
        store.insert(db, b); // overflow, but nothing evictable
        assert!(store.contains(&da));
        assert!(store.contains(&db));
        assert_eq!(store.stats().evictions, 0);
        store.release(&da);
        let (dc, c) = blob(3, 80);
        store.insert(dc, c); // now `a` is evictable
        assert!(!store.contains(&da));
    }

    #[test]
    fn refcount_pin_inspection_and_reset() {
        let store = BlobStore::new(2, 1 << 20);
        let (da, a) = blob(1, 10);
        let (db, b) = blob(2, 10);
        store.insert(da, Arc::clone(&a));
        store.insert(da, a); // second pin
        store.insert(db, b);
        store.release(&db);
        assert_eq!(store.refcount(&da), Some(2));
        assert_eq!(store.refcount(&db), Some(0));
        assert_eq!(store.pinned(), vec![da]);
        assert_eq!(store.reset_refs(), 1);
        assert!(store.pinned().is_empty());
        assert_eq!(store.refcount(&da), Some(0));
    }

    #[test]
    fn remove_unpinned_refuses_pinned_blobs() {
        let store = BlobStore::new(1, 1 << 20);
        let (d, data) = blob(7, 40);
        store.insert(d, data);
        assert!(!store.remove_unpinned(&d), "pinned: must refuse");
        assert!(store.contains(&d));
        store.release(&d);
        assert!(store.remove_unpinned(&d));
        assert!(!store.contains(&d));
        assert_eq!(store.stats().resident_bytes, 0);
        assert!(!store.remove_unpinned(&d), "absent: no-op");
    }

    #[test]
    fn release_of_unknown_digest_is_noop() {
        let store = BlobStore::new(2, 1 << 10);
        let (d, _) = blob(9, 10);
        store.release(&d);
        assert_eq!(store.stats().resident_blobs, 0);
    }

    #[test]
    fn digests_are_sorted_and_complete() {
        let store = BlobStore::new(8, 1 << 20);
        let mut expected = Vec::new();
        for tag in 0..20u8 {
            let (d, data) = blob(tag, 32);
            store.insert(d, data);
            expected.push(d);
        }
        expected.sort();
        assert_eq!(store.digests(), expected);
    }

    #[test]
    fn sharding_is_deterministic() {
        let store1 = BlobStore::new(16, 1 << 20);
        let store2 = BlobStore::new(16, 1 << 20);
        for tag in 0..50u8 {
            let (d, data) = blob(tag, 64);
            store1.insert(d, Arc::clone(&data));
            store2.insert(d, data);
        }
        assert_eq!(store1.digests(), store2.digests());
        assert_eq!(store1.stats(), store2.stats());
    }
}
