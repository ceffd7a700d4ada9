//! Lazy-pulling image format (the eStargz/EroFS direction of §7).
//!
//! "With registries like Quay or Dragonfly providing eStargz or EroFS
//! images ... we assume it won't be long until these formats will be
//! evaluated and possibly adopted for HPC usage as an alternative to
//! SIF." This module implements that evaluation over the seekable indexed
//! format ([`SeekableIndex`]): [`Engine::pull_lazy`] launches a
//! [`LazyContainer`] on the index blob alone, fixed-size chunk *ranges*
//! fault in on first touch through the FUSE cost model, every fetch goes
//! down the engine's one pull ladder (primary→tier→proxy→mirror, shared
//! breakers) at blob granularity, and fetched ranges are deposited into
//! the shared blob store under journalled intents so a crash mid-page-in
//! recovers like a crashed pull.
//!
//! The trade-off measured in `quant8` and `bench lazy`: lazy pulling
//! slashes time-to-first-read and bytes moved for sparse access patterns,
//! but pays a per-miss registry round trip, losing to an eagerly staged
//! squash image once most of the image is touched.

use crate::engine::{
    Engine, EngineError, PullBackend, PullCtx, PullSources, BLOB_STORE_READ_BPS,
    BLOB_STORE_READ_LATENCY, LAZY_FETCH_OPS,
};
use hpcc_codec::compress::Codec;
use hpcc_crypto::sha256::{sha256, Digest};
use hpcc_oci::cas::CasError;
use hpcc_oci::image::MediaType;
use hpcc_registry::registry::{Registry, RegistryError};
use hpcc_sim::{sym, SimClock, SimSpan, Stage};
use hpcc_storage::blobstore::BlobStore;
use hpcc_vfs::driver::DriverProfile;
use hpcc_vfs::fs::MemFs;
use hpcc_vfs::path::VPath;
use hpcc_vfs::seekable::{ChunkRef, SeekableEntry, SeekableIndex};
use hpcc_vfs::squash::SquashError;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Errors from publishing a lazy image.
#[derive(Debug)]
pub enum LazyError {
    Registry(RegistryError),
    Squash(SquashError),
}

impl From<RegistryError> for LazyError {
    fn from(e: RegistryError) -> Self {
        LazyError::Registry(e)
    }
}
impl From<SquashError> for LazyError {
    fn from(e: SquashError) -> Self {
        LazyError::Squash(e)
    }
}

impl std::fmt::Display for LazyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LazyError::Registry(e) => write!(f, "registry: {e}"),
            LazyError::Squash(e) => write!(f, "squash: {e}"),
        }
    }
}

impl std::error::Error for LazyError {}

/// Publish a filesystem tree as a *seekable* lazy image: content-addressed
/// compressed chunk-range blobs plus the manifest-first [`SeekableIndex`]
/// blob. Returns the index digest (the image reference a lazy pull starts
/// from) and the index itself.
pub fn publish_seekable(
    registry: &Registry,
    fs: &MemFs,
    root: &VPath,
    chunk_size: u64,
) -> Result<(Digest, SeekableIndex), LazyError> {
    let (index, chunks) = SeekableIndex::build(fs, root, Codec::Lz, chunk_size)?;
    for (digest, data) in &chunks {
        if !registry.has_blob(digest) {
            registry.push_blob(MediaType::Layer, *digest, Arc::clone(data))?;
        }
    }
    let digest = index.digest();
    if !registry.has_blob(&digest) {
        registry.push_blob(MediaType::UserDefined, digest, index.to_bytes())?;
    }
    Ok((digest, index))
}

/// Statistics of one lazy container's page-in activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LazyPullStats {
    /// Chunk ranges fetched from a pull source (first touch, not resident).
    pub chunk_misses: u64,
    /// Chunk ranges served from the shared blob store / node-local cache.
    pub chunk_hits: u64,
    /// Compressed bytes moved from pull sources.
    pub bytes_fetched: u64,
    /// File reads served through [`LazyContainer::read_file`].
    pub files_touched: u64,
    /// Chunks fetched ahead of demand: always 0, since every fault-in is a
    /// demand fault. The field stays because the host-time benchmark
    /// reports it.
    pub chunks_prefetched: u64,
}

/// Fetch one blob down the pull ladder (see [`PullCtx::ladder`]) at blob
/// granularity, past the named crash point, and verify it against its
/// digest. Returns the bytes and the label of the hop that served them.
fn fetch_blob(
    ctx: &PullCtx,
    sources: &PullSources<'_>,
    crash_point: &'static str,
    digest: &Digest,
    clock: &SimClock,
) -> Result<(Arc<Vec<u8>>, &'static str), EngineError> {
    ctx.crash.crash_point(crash_point, clock.now())?;
    let fetch = |backend: &dyn PullBackend, at| backend.blob(digest, at);
    let (bytes, source, _) = ctx.ladder(&LAZY_FETCH_OPS, sources, clock, fetch, || None)?;
    ctx.faults
        .metrics()
        .add("engine.lazy.fetched_bytes", bytes.len() as u64);
    let actual = sha256(&bytes);
    if actual != *digest {
        return Err(EngineError::Cas(CasError::DigestMismatch {
            claimed: *digest,
            actual,
        }));
    }
    Ok((bytes, source))
}

impl Engine {
    /// Lazy pull: fetch *only* the [`SeekableIndex`] blob (consulting the
    /// shared blob store first, then the full degradation chain) and
    /// return a launched [`LazyContainer`] — the container is runnable the
    /// moment this returns, with every file range still remote. File
    /// ranges fault in on first touch through the FUSE cost model.
    pub fn pull_lazy<'a>(
        &'a self,
        sources: PullSources<'a>,
        index_digest: &Digest,
        clock: &SimClock,
    ) -> Result<LazyContainer<'a>, EngineError> {
        let ctx = self.ctx();
        let name = sym!("engine.pull_lazy");
        Self::spanned(&ctx.tracer, name, Stage::Pull, true, clock, |span| {
            ctx.tracer.attr(span, sym!("index"), index_digest.short());
            let c = self.pull_lazy_inner(&ctx, sources, index_digest, clock)?;
            ctx.tracer.attr(span, sym!("source"), c.index_source);
            ctx.tracer
                .attr(span, sym!("entries"), c.index.entry_count() as u64);
            Ok(c)
        })
    }

    fn pull_lazy_inner<'a>(
        &'a self,
        ctx: &PullCtx,
        sources: PullSources<'a>,
        index_digest: &Digest,
        clock: &SimClock,
    ) -> Result<LazyContainer<'a>, EngineError> {
        let store = ctx.store.clone();
        let (index_bytes, index_source) = match store.as_ref().and_then(|s| s.get(index_digest)) {
            Some(bytes) => {
                clock.advance(
                    BLOB_STORE_READ_LATENCY
                        + SimSpan::from_secs_f64(bytes.len() as f64 / BLOB_STORE_READ_BPS),
                );
                (bytes, "store")
            }
            None => {
                let (bytes, label) =
                    fetch_blob(ctx, &sources, "lazy.index.fetch.pre", index_digest, clock)?;
                // Deposit the index under its own journalled intent so a
                // crash between fetch and durability leaves no orphan.
                match &ctx.journal {
                    Some(j) => {
                        let intent =
                            j.begin("engine.lazy.index", &index_digest.short(), clock.now())?;
                        j.stage(intent, *index_digest, Arc::clone(&bytes), clock.now())?;
                        j.commit(intent, clock.now())?;
                    }
                    None => {
                        if let Some(s) = &store {
                            s.insert(*index_digest, Arc::clone(&bytes));
                            s.release(index_digest);
                        }
                    }
                }
                (bytes, label)
            }
        };
        let index = SeekableIndex::from_shared(index_bytes)?;
        // Mount setup (index parse + FUSE session) — one interposed op.
        let profile = DriverProfile::fuse_squash();
        clock.advance(profile.per_op);
        Ok(LazyContainer {
            engine: self,
            sources,
            index,
            index_source,
            profile,
            store,
            cache: Mutex::new(HashMap::new()),
            mapped: Mutex::new(HashSet::new()),
            stats: Mutex::new(LazyPullStats::default()),
        })
    }
}

/// A launched lazily-pulled container: the [`SeekableIndex`] is local, all
/// file ranges start remote. Every read goes through the SquashFUSE cost
/// model; missing chunk ranges are fetched through the engine's
/// degradation chain and deposited into the shared blob store (journalled
/// when a [`JournaledStore`](hpcc_storage::journal::JournaledStore) is
/// attached), so sibling containers on the node hit them locally and a
/// crash mid-page-in is recovered by the same fsck as a crashed pull.
pub struct LazyContainer<'a> {
    engine: &'a Engine,
    sources: PullSources<'a>,
    index: SeekableIndex,
    /// Where the index blob came from ("store", "primary", "tier", ...).
    index_source: &'static str,
    profile: DriverProfile,
    store: Option<Arc<BlobStore>>,
    /// Node-local chunk cache when no shared blob store is attached.
    cache: Mutex<HashMap<Digest, Arc<Vec<u8>>>>,
    /// Chunks this container has mapped (its page-cache analogue):
    /// re-reads of a mapped chunk pay only the driver read cost.
    mapped: Mutex<HashSet<Digest>>,
    stats: Mutex<LazyPullStats>,
}

impl LazyContainer<'_> {
    /// The resident index.
    pub fn index(&self) -> &SeekableIndex {
        &self.index
    }

    /// Which source served the index blob.
    pub fn index_source(&self) -> &'static str {
        self.index_source
    }

    /// Page-in statistics so far.
    pub fn stats(&self) -> LazyPullStats {
        *self.stats.lock()
    }

    fn chunk_resident(&self, d: &Digest) -> bool {
        self.store.as_ref().is_some_and(|s| s.contains(d)) || self.cache.lock().contains_key(d)
    }

    fn chunk_bytes(&self, d: &Digest) -> Option<Arc<Vec<u8>>> {
        if let Some(s) = &self.store {
            if let Some(b) = s.get(d) {
                return Some(b);
            }
        }
        self.cache.lock().get(d).cloned()
    }

    /// Metadata touch (stat/open without reading): index-local, charges
    /// one FUSE op, faults nothing in. Returns the file's original length
    /// (0 for directories/symlink targets that aren't files... symlinks
    /// resolve to their target entry).
    pub fn touch(&self, path: &str, clock: &SimClock) -> Result<u64, EngineError> {
        clock.advance(self.profile.per_op);
        let real = self.index.resolve(path)?;
        match self.index.entry(real) {
            Some(SeekableEntry::File { orig_len, .. }) => Ok(orig_len),
            _ => Ok(0),
        }
    }

    /// Read one file: fault its chunk ranges in on first touch, then
    /// serve the read through the FUSE cost model. Byte-for-byte what an
    /// eagerly pulled image would return.
    pub fn read_file(&self, path: &str, clock: &SimClock) -> Result<Vec<u8>, EngineError> {
        let (orig_len, chunks) = self.index.file_chunks(path)?;
        self.fault_in(&self.engine.ctx(), path, chunks, clock)?;
        let stored: u64 = chunks.iter().map(|c| c.stored_len).sum();
        clock.advance(self.profile.read_cost(stored, orig_len));
        self.stats.lock().files_touched += 1;
        Ok(self.index.assemble_file(path, |d| self.chunk_bytes(d))?)
    }

    /// Make every `demand` chunk resident. Shared-store hits charge
    /// blob-store read costs; misses charge a FUSE round trip plus the
    /// ladder fetch, and land in the store under one journalled intent
    /// (begin → stage-per-chunk → commit) so a crash mid-page-in is
    /// recovered by the same fsck as a crashed pull — no orphaned chunks.
    fn fault_in(
        &self,
        ctx: &PullCtx,
        key: &str,
        demand: &[ChunkRef],
        clock: &SimClock,
    ) -> Result<(), EngineError> {
        // First-touch set: distinct chunks this container hasn't mapped.
        let mut todo: Vec<ChunkRef> = Vec::new();
        {
            let mapped = self.mapped.lock();
            let mut seen = HashSet::new();
            for c in demand {
                if !mapped.contains(&c.digest) && seen.insert(c.digest) {
                    todo.push(*c);
                }
            }
        }
        if todo.is_empty() {
            return Ok(());
        }

        // Already resident on the node: map without fetching.
        let mut missing: Vec<ChunkRef> = Vec::new();
        for c in todo {
            if self.chunk_resident(&c.digest) {
                clock.advance(
                    BLOB_STORE_READ_LATENCY
                        + SimSpan::from_secs_f64(c.stored_len as f64 / BLOB_STORE_READ_BPS),
                );
                self.stats.lock().chunk_hits += 1;
                self.mapped.lock().insert(c.digest);
            } else {
                missing.push(c);
            }
        }
        if missing.is_empty() {
            return Ok(());
        }

        let journal = &ctx.journal;
        let intent = match journal {
            Some(j) => Some(j.begin("engine.lazy.fault", key, clock.now())?),
            None => None,
        };
        let fetched = (|| -> Result<(), EngineError> {
            for c in &missing {
                // FUSE round trip to notice and service the fault.
                clock.advance(self.profile.per_op);
                let (bytes, _source) =
                    fetch_blob(ctx, &self.sources, "lazy.fault.fetch.pre", &c.digest, clock)?;
                match (journal, intent) {
                    (Some(j), Some(intent)) => {
                        j.stage(intent, c.digest, Arc::clone(&bytes), clock.now())?;
                    }
                    _ => match &self.store {
                        Some(s) => {
                            s.insert(c.digest, Arc::clone(&bytes));
                            s.release(&c.digest);
                        }
                        None => {
                            self.cache.lock().insert(c.digest, Arc::clone(&bytes));
                        }
                    },
                }
                {
                    let mut st = self.stats.lock();
                    st.chunk_misses += 1;
                    st.bytes_fetched += bytes.len() as u64;
                }
                self.mapped.lock().insert(c.digest);
            }
            Ok(())
        })();
        match fetched {
            Ok(()) => {
                if let (Some(j), Some(intent)) = (journal, intent) {
                    j.commit(intent, clock.now())?;
                }
                Ok(())
            }
            Err(e) => {
                // A crash leaves the intent open for recovery; any other
                // failure rolls it back so no orphaned chunks survive.
                if !matches!(e, EngineError::Crash(_)) {
                    if let (Some(j), Some(intent)) = (journal, intent) {
                        j.abort(intent, clock.now())?;
                    }
                }
                Err(e)
            }
        }
    }

    /// Fault in every chunk of the image (background prefetch). Charges
    /// only the fault-in path, no read costs.
    pub(crate) fn prefetch_all(&self, clock: &SimClock) -> Result<(), EngineError> {
        let ctx = self.engine.ctx();
        for p in self.index.file_paths() {
            let (_, chunks) = self.index.file_chunks(p)?;
            self.fault_in(&ctx, p, chunks, clock)?;
        }
        Ok(())
    }

    /// Touch everything and unpack: the fully-materialized endpoint a
    /// lazy container converges to. Byte-identical to unpacking an
    /// eagerly pulled squash image of the same tree.
    pub fn materialize(&self, clock: &SimClock) -> Result<MemFs, EngineError> {
        self.prefetch_all(clock)?;
        for p in self.index.file_paths() {
            let (orig, chunks) = self.index.file_chunks(p)?;
            let stored: u64 = chunks.iter().map(|c| c.stored_len).sum();
            clock.advance(self.profile.read_cost(stored, orig));
        }
        Ok(self.index.materialize(|d| self.chunk_bytes(d))?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcc_registry::registry::RegistryCaps;
    use hpcc_vfs::squash::SquashImage;

    fn tree(files: usize, size: usize) -> MemFs {
        let mut fs = MemFs::new();
        for i in 0..files {
            fs.write_p(
                &VPath::parse(&format!("/app/pkg{}/f{i}.py", i % 7)),
                vec![(i % 251) as u8; size],
            )
            .unwrap();
        }
        fs
    }

    fn registry() -> Registry {
        Registry::new("lazy-test", RegistryCaps::open())
    }

    /// A tree of barely-compressible files (eager pulls must move real
    /// bytes for the first-read comparison to be meaningful).
    fn incompressible_tree(files: usize, size: usize) -> MemFs {
        let mut fs = MemFs::new();
        let mut x: u64 = 0x9E3779B97F4A7C15;
        for i in 0..files {
            let data: Vec<u8> = (0..size)
                .map(|_| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (x >> 56) as u8
                })
                .collect();
            fs.write_p(&VPath::parse(&format!("/app/pkg{}/f{i}.bin", i % 7)), data)
                .unwrap();
        }
        fs
    }

    // ---------------------------------------------- seekable lazy pulls

    use crate::engines;
    use hpcc_storage::journal::JournaledStore;
    use hpcc_vfs::seekable::DEFAULT_CHUNK_SIZE;

    fn engine_with_store() -> (Engine, Arc<BlobStore>, Arc<JournaledStore>) {
        let engine = engines::sarus();
        let store = BlobStore::new(8, 1 << 30);
        let journal = JournaledStore::new(Arc::clone(&store));
        engine.set_journaled_store(Arc::clone(&journal));
        (engine, store, journal)
    }

    /// The eager comparison: publish the whole tree as one squash image,
    /// pull it as a single blob and open it. The clock ends at the instant
    /// the image is readable.
    fn eager_pull(reg: &Registry, fs: &MemFs, clock: &SimClock) -> SquashImage {
        let squash = SquashImage::build(fs, &VPath::root(), Codec::Lz).unwrap();
        let digest = sha256(squash.as_bytes());
        reg.push_blob(MediaType::SquashImage, digest, squash.as_bytes().to_vec())
            .unwrap();
        let (bytes, done) = reg.pull_blob(&digest, clock.now()).unwrap();
        clock.advance_to(done);
        SquashImage::from_bytes(bytes.as_ref().clone()).unwrap()
    }

    #[test]
    fn sparse_access_fetches_only_whats_read() {
        let reg = registry();
        let fs = tree(100, 4096);
        let (index_digest, index) =
            publish_seekable(&reg, &fs, &VPath::root(), DEFAULT_CHUNK_SIZE).unwrap();
        let (engine, _store, _journal) = engine_with_store();
        let clock = SimClock::new();
        let c = engine
            .pull_lazy(PullSources::primary_only(&reg), &index_digest, &clock)
            .unwrap();
        // Touch 5 of 100 files, each with distinct contents.
        for i in 0..5 {
            c.read_file(&format!("app/pkg{}/f{i}.py", i % 7), &clock)
                .unwrap();
        }
        let s = c.stats();
        assert_eq!(s.chunk_misses, 5);
        assert!(
            s.bytes_fetched < index.total_stored_bytes() / 10,
            "fetched {} of {} stored bytes",
            s.bytes_fetched,
            index.total_stored_bytes()
        );
    }

    #[test]
    fn full_scan_favors_eager() {
        // Reading everything: per-miss round trips lose to one bulk pull.
        let reg = registry();
        let fs = tree(300, 2048);
        let (index_digest, _) =
            publish_seekable(&reg, &fs, &VPath::root(), DEFAULT_CHUNK_SIZE).unwrap();
        let (engine, _store, _journal) = engine_with_store();
        let lazy_clock = SimClock::new();
        let c = engine
            .pull_lazy(PullSources::primary_only(&reg), &index_digest, &lazy_clock)
            .unwrap();
        c.prefetch_all(&lazy_clock).unwrap();

        let eager_clock = SimClock::new();
        let image = eager_pull(&reg, &fs, &eager_clock);
        // Charge the eager local reads through the kernel driver profile.
        let profile = DriverProfile::kernel_squash();
        for (stored, orig) in image.paths().filter_map(|p| image.stored_len(p).ok()) {
            eager_clock.advance(profile.read_cost(stored, orig));
        }

        assert!(
            lazy_clock.now() > eager_clock.now(),
            "full scan: lazy {:?} should lose to eager {:?}",
            lazy_clock.now(),
            eager_clock.now()
        );
    }

    #[test]
    fn pull_lazy_launches_before_the_data_moves() {
        let reg = registry();
        let fs = incompressible_tree(120, 65536);
        let (index_digest, index) =
            publish_seekable(&reg, &fs, &VPath::root(), DEFAULT_CHUNK_SIZE).unwrap();

        let (engine, _store, journal) = engine_with_store();
        let clock = SimClock::new();
        let c = engine
            .pull_lazy(PullSources::primary_only(&reg), &index_digest, &clock)
            .unwrap();
        let launched = clock.now();
        let data = c.read_file("app/pkg0/f0.bin", &clock).unwrap();
        assert_eq!(data.len(), 65536);

        // Eager comparison: the full squash image must cross the wire
        // before the first byte is readable — lazy has launched *and*
        // served its first read by then.
        let eager_clock = SimClock::new();
        eager_pull(&reg, &fs, &eager_clock);

        assert!(launched < clock.now());
        assert!(
            clock.now() < eager_clock.now(),
            "lazy first read {:?} should precede eager pull completion {:?}",
            clock.now(),
            eager_clock.now()
        );
        let s = c.stats();
        assert!(s.bytes_fetched < index.total_stored_bytes() / 10);
        assert_eq!(s.files_touched, 1);
        // Page-in intents all committed; nothing left open or staged.
        assert!(journal.open_intents().is_empty());
        assert!(journal.orphaned_staged().is_empty());
    }

    #[test]
    fn sibling_containers_hit_the_shared_store() {
        let reg = registry();
        let fs = tree(30, 4096);
        let (index_digest, _) =
            publish_seekable(&reg, &fs, &VPath::root(), DEFAULT_CHUNK_SIZE).unwrap();

        let (engine, store, _journal) = engine_with_store();
        let clock = SimClock::new();
        let a = engine
            .pull_lazy(PullSources::primary_only(&reg), &index_digest, &clock)
            .unwrap();
        a.read_file("app/pkg0/f0.py", &clock).unwrap();
        assert_eq!(a.stats().chunk_misses, 1);

        let b = engine
            .pull_lazy(PullSources::primary_only(&reg), &index_digest, &clock)
            .unwrap();
        assert_eq!(b.index_source(), "store", "index dedups across siblings");
        b.read_file("app/pkg0/f0.py", &clock).unwrap();
        let sb = b.stats();
        assert_eq!(sb.chunk_misses, 0, "sibling pages in from the store");
        assert_eq!(sb.chunk_hits, 1);
        assert!(store.stats().hits > 0);
    }

    #[test]
    fn rereads_pay_only_the_driver() {
        let reg = registry();
        let fs = tree(4, 2048);
        let (index_digest, _) =
            publish_seekable(&reg, &fs, &VPath::root(), DEFAULT_CHUNK_SIZE).unwrap();
        let (engine, _store, _journal) = engine_with_store();
        let clock = SimClock::new();
        let c = engine
            .pull_lazy(PullSources::primary_only(&reg), &index_digest, &clock)
            .unwrap();
        c.read_file("app/pkg0/f0.py", &clock).unwrap();
        let pulls = reg.stats().blob_pulls;
        let s1 = c.stats();
        c.read_file("app/pkg0/f0.py", &clock).unwrap();
        assert_eq!(reg.stats().blob_pulls, pulls, "reread is registry-free");
        let s2 = c.stats();
        assert_eq!(s2.chunk_misses, s1.chunk_misses);
        assert_eq!(s2.chunk_hits, s1.chunk_hits, "mapped chunks skip the store");
    }

    #[test]
    fn materialize_matches_the_source_tree() {
        let reg = registry();
        let fs = sample_tree_with_links();
        let (index_digest, _) = publish_seekable(&reg, &fs, &VPath::root(), 1024).unwrap();
        let (engine, _store, journal) = engine_with_store();
        let clock = SimClock::new();
        let c = engine
            .pull_lazy(PullSources::primary_only(&reg), &index_digest, &clock)
            .unwrap();
        let out = c.materialize(&clock).unwrap();
        assert_eq!(
            out.tree_digest(&VPath::root()).unwrap(),
            fs.tree_digest(&VPath::root()).unwrap(),
            "fully-touched lazy image is byte-identical to the source"
        );
        assert!(journal.open_intents().is_empty());
        assert!(journal.orphaned_staged().is_empty());
        assert!(!c.mapped.lock().is_empty());
    }

    fn sample_tree_with_links() -> MemFs {
        let mut fs = tree(12, 3000);
        fs.symlink(&VPath::parse("/app/latest"), "pkg0/f0.py")
            .unwrap();
        fs.write_p(&VPath::parse("/app/empty"), Vec::new()).unwrap();
        fs
    }

    #[test]
    fn touch_is_index_local() {
        let reg = registry();
        let fs = sample_tree_with_links();
        let (index_digest, _) =
            publish_seekable(&reg, &fs, &VPath::root(), DEFAULT_CHUNK_SIZE).unwrap();
        let (engine, _store, _journal) = engine_with_store();
        let clock = SimClock::new();
        let c = engine
            .pull_lazy(PullSources::primary_only(&reg), &index_digest, &clock)
            .unwrap();
        let pulls = reg.stats().blob_pulls;
        assert_eq!(c.touch("app/pkg0/f0.py", &clock).unwrap(), 3000);
        assert_eq!(c.touch("app/latest", &clock).unwrap(), 3000, "via symlink");
        assert_eq!(reg.stats().blob_pulls, pulls, "touch faults nothing in");
        for missing in [
            c.touch("nope", &clock).err(),
            c.read_file("nope", &clock).err(),
        ] {
            assert!(matches!(
                missing,
                Some(EngineError::Squash(SquashError::NotFound(_)))
            ));
        }
    }

    #[test]
    fn identical_files_share_chunks() {
        let reg = registry();
        let mut fs = MemFs::new();
        for i in 0..10 {
            fs.write_p(&VPath::parse(&format!("/f{i}")), vec![7u8; 4096])
                .unwrap();
        }
        let (index_digest, index) =
            publish_seekable(&reg, &fs, &VPath::root(), DEFAULT_CHUNK_SIZE).unwrap();
        let chunks: HashSet<Digest> = index
            .file_paths()
            .flat_map(|p| index.file_chunks(p).unwrap().1)
            .map(|c| c.digest)
            .collect();
        assert_eq!(chunks.len(), 1, "identical contents dedup to one chunk");
        assert_eq!(reg.stats().pushes, 2, "one chunk blob plus the index");

        // And a container reading all ten files fetches that chunk once.
        let (engine, _store, _journal) = engine_with_store();
        let clock = SimClock::new();
        let c = engine
            .pull_lazy(PullSources::primary_only(&reg), &index_digest, &clock)
            .unwrap();
        for i in 0..10 {
            assert_eq!(c.read_file(&format!("f{i}"), &clock).unwrap(), [7u8; 4096]);
        }
        assert_eq!(c.stats().chunk_misses, 1);
    }
}
