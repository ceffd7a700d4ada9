//! `lazy_smallfiles`: the lazy path on many small files.
//!
//! One op is a fresh node with a journalled store doing `pull_lazy` on a
//! seekable image of 2048 files, reading a 32-file first-exec set,
//! launching a sibling container that reads a half-overlapping set, then
//! `journal.recover()` as a node restart would. The same `vfs`, `codec`,
//! `storage` and `registry` layers as `eager_bulk`, used the other way
//! round: index parsing, chunk lookups, journal appends and many small
//! registry requests. All compression happens in set-up.

use crate::gen::{log_uniform_sizes, mixed_bytes, Fnv, GenFile, Rng};
use crate::harness::{stage_coverage_pct, Outcome, RunStats, Workload};
use crate::sut;
use crate::trace::Trace;
use std::collections::BTreeMap;
use std::sync::Arc;

const FILES: usize = 2048;
const DIRS: usize = 16;
/// First-exec sets ops cycle through.
const CLASSES: usize = 8;
const SET_FILES: usize = 32;

struct ReadSet {
    first: Vec<usize>,
    sibling: Vec<usize>,
}

pub struct LazySmallfiles {
    world: sut::LazyWorld,
    files: Vec<GenFile>,
    sets: Vec<ReadSet>,
    index_bytes: Vec<u8>,
    input_digest: u64,
    requests_seen: u64,
}

pub struct Done {
    node: sut::LazyNode,
    first: Vec<Vec<u8>>,
    sibling: Vec<Vec<u8>>,
    first_counts: sut::LazyCounts,
    sibling_counts: sut::LazyCounts,
    rolled_forward: u64,
}

/// One file per size stratum, so every set moves about the same bytes
/// whatever the seed; the sibling keeps the even strata and re-draws the
/// odd ones.
fn read_set(rng: &mut Rng, by_size: &[usize]) -> ReadSet {
    let stratum = FILES / SET_FILES;
    let mut first = Vec::with_capacity(SET_FILES);
    let mut sibling = Vec::with_capacity(SET_FILES);
    for s in 0..SET_FILES {
        let pick = rng.below(stratum as u64) as usize;
        first.push(by_size[s * stratum + pick]);
        let other = if s % 2 == 0 {
            pick
        } else {
            (pick + 1 + rng.below(stratum as u64 - 1) as usize) % stratum
        };
        sibling.push(by_size[s * stratum + other]);
    }
    ReadSet { first, sibling }
}

fn fnv(words: &[u64]) -> u64 {
    let mut d = Fnv::new();
    for w in words {
        d.u64(*w);
    }
    d.finish()
}

impl LazySmallfiles {
    fn matches(&self, set: &[usize], read: &[Vec<u8>]) -> bool {
        set.len() == read.len() && set.iter().zip(read).all(|(i, r)| *self.files[*i].1 == *r)
    }
}

impl Workload for LazySmallfiles {
    const NAME: &'static str = "lazy_smallfiles";
    const NOMINAL_OPS_PER_S: f64 = 165.0;
    type Done = Done;

    fn setup(seed: u64, trace: &mut Trace) -> Result<Self, String> {
        // Sizes lie on a fixed log-uniform grid; the seed decides which
        // name gets which size, every byte, and which files are read.
        let sizes = log_uniform_sizes(FILES, 1024.0, 65536.0);
        let mut order: Vec<usize> = (0..FILES).collect();
        Rng::stream(seed, 0).shuffle(&mut order);
        let mut files: Vec<GenFile> = Vec::with_capacity(FILES);
        let mut by_size = vec![0usize; FILES];
        for (name_idx, size_rank) in order.iter().enumerate() {
            let mut rng = Rng::stream(seed, 1 + name_idx as u64);
            files.push((
                format!("/usr/lib/pkg{}/mod{name_idx}.dat", name_idx % DIRS),
                Arc::new(mixed_bytes(&mut rng, sizes[*size_rank])),
            ));
            by_size[*size_rank] = name_idx;
        }
        let mut rng = Rng::stream(seed, u64::MAX);
        let sets: Vec<ReadSet> = (0..CLASSES).map(|_| read_set(&mut rng, &by_size)).collect();

        let mut digest = Fnv::new();
        digest.files(&files);
        for s in &sets {
            s.first
                .iter()
                .chain(&s.sibling)
                .for_each(|i| digest.u64(*i as u64));
        }

        let rootfs = trace.work("vfs.memfs_build", FILES as f64, || sut::memfs_from(&files))?;
        let orig: usize = files.iter().map(|(_, d)| d.len()).sum();
        let world = trace.work("vfs.seekable_publish", orig as f64, || {
            sut::LazyWorld::publish(&rootfs)
        })?;
        if world.orig_bytes() != orig as u64 {
            return Err("published image lost bytes".into());
        }
        Ok(LazySmallfiles {
            requests_seen: sut::registry_requests(&world.registry),
            index_bytes: world.index_bytes(),
            world,
            files,
            sets,
            input_digest: digest.finish(),
        })
    }

    fn input_digest(&self) -> u64 {
        self.input_digest
    }

    fn classes(&self) -> usize {
        CLASSES
    }

    fn op(&mut self, i: usize, trace: &mut Trace) -> Result<Done, String> {
        let set = &self.sets[i % CLASSES];
        let node = trace.leaf("engine.node_up", sut::LazyNode::new);

        let container = trace.leaf("engine.pull_lazy", || node.pull_lazy(&self.world))?;
        let span = trace.begin("engine.lazy_read");
        let first = set
            .first
            .iter()
            .map(|f| container.read(&self.files[*f].0))
            .collect::<Result<Vec<_>, _>>()?;
        trace.end(span);

        let span = trace.begin("engine.lazy_sibling");
        let sib = node.pull_lazy(&self.world)?;
        let sibling = set
            .sibling
            .iter()
            .map(|f| sib.read(&self.files[*f].0))
            .collect::<Result<Vec<_>, _>>()?;
        trace.end(span);
        let (first_counts, sibling_counts) = (container.counts(), sib.counts());
        drop((container, sib));

        let span = trace.begin("storage.journal_recover");
        let rolled_forward = node.recover()?;
        let ns = trace.end(span);
        trace.book("storage.journal_recover", node.journal_len() as f64, ns);
        Ok(Done {
            node,
            first,
            sibling,
            first_counts,
            sibling_counts,
            rolled_forward,
        })
    }

    fn check(&mut self, i: usize, done: Done) -> Outcome {
        let set = &self.sets[i % CLASSES];
        let ok = self.matches(&set.first, &done.first) && self.matches(&set.sibling, &done.sibling);
        let requests = sut::registry_requests(&self.world.registry);
        let (store_hits, store_misses) = done.node.store_lookups();
        let counts = vec![
            ("chunk_misses", done.first_counts.chunk_misses),
            ("chunks_prefetched", done.first_counts.chunks_prefetched),
            ("sibling_chunk_hits", done.sibling_counts.chunk_hits),
            ("sibling_chunk_misses", done.sibling_counts.chunk_misses),
            (
                "lazy_bytes",
                done.first_counts.bytes_fetched + done.sibling_counts.bytes_fetched,
            ),
            ("fetched_bytes", done.node.fetched_bytes()),
            ("journal_records", done.node.journal_len()),
            ("rolled_forward", done.rolled_forward),
            ("store_hits", store_hits),
            ("store_misses", store_misses),
            ("requests", requests - self.requests_seen),
        ];
        self.requests_seen = requests;
        let words: Vec<u64> = counts.iter().map(|(_, c)| *c).collect();
        Outcome {
            ok,
            sim_ns: done.node.sim_ns(),
            digest: fnv(&words),
            counts,
        }
    }

    fn probes(&mut self, i: usize, trace: &mut Trace) -> Result<(), String> {
        let all = trace.begin("probes");
        let set = &self.sets[i % CLASSES];
        trace.work("probe.vfs.seekable_parse", 1.0, || {
            sut::seekable_parse(&self.index_bytes)
        })?;
        let mut chunks = Vec::new();
        for f in &set.first {
            let (path, data) = &self.files[*f];
            let back = trace.work("probe.vfs.seekable_assemble", data.len() as f64, || {
                self.world.assemble(path)
            })?;
            if back != **data {
                return Err("assemble replay returned other bytes".into());
            }
            trace.work("probe.registry.pull_blob", 1.0, || {
                self.world.pull_first_chunk(path)
            })?;
            let stored = self.world.stored_chunks(path)?;
            let span = trace.begin("probe.codec.decompress");
            let mut orig = 0;
            for c in &stored {
                orig += sut::decompress_any(c)?.len();
            }
            let ns = trace.end(span);
            trace.book("probe.codec.decompress", orig as f64, ns);
            chunks.extend(stored);
        }
        trace.work("probe.storage.blobstore", 2.0 * chunks.len() as f64, || {
            sut::blobstore_round(&chunks)
        });
        trace.work("probe.storage.journal", chunks.len() as f64 + 2.0, || {
            sut::journal_round(&chunks)
        })?;
        trace.end(all);
        // The pull replay went through the registry the ops count on.
        self.requests_seen = sut::registry_requests(&self.world.registry);
        Ok(())
    }

    fn layer_metrics(&self, t: &Trace, run: &RunStats) -> BTreeMap<&'static str, f64> {
        let stage = |name| t.floor_self_ms(name, CLASSES);
        let mb = 1e6;
        let hits = run.count_per_op("store_hits");
        let lookups = hits + run.count_per_op("store_misses");
        BTreeMap::from([
            (
                "codec.decompress_mb_s",
                t.per_second("probe.codec.decompress") / mb,
            ),
            (
                "vfs.seekable_build_mb_s",
                t.per_second("vfs.seekable_publish") / mb,
            ),
            (
                "vfs.seekable_parse_us",
                t.ns_per_unit("probe.vfs.seekable_parse") / 1e3,
            ),
            (
                "vfs.seekable_assemble_mb_s",
                t.per_second("probe.vfs.seekable_assemble") / mb,
            ),
            ("vfs.memfs_files_per_s", t.per_second("vfs.memfs_build")),
            (
                "storage.blobstore_ops_per_s",
                t.per_second("probe.storage.blobstore"),
            ),
            (
                "storage.blobstore_hit_ratio",
                if lookups > 0.0 { hits / lookups } else { 0.0 },
            ),
            (
                "storage.journal_records_per_s",
                t.per_second("probe.storage.journal"),
            ),
            (
                "storage.journal_recover_records_per_s",
                t.per_second("storage.journal_recover"),
            ),
            (
                "storage.journal_records_per_op",
                run.count_per_op("journal_records"),
            ),
            (
                "registry.pull_blob_us",
                t.ns_per_unit("probe.registry.pull_blob") / 1e3,
            ),
            ("registry.requests_per_op", run.count_per_op("requests")),
            ("engine.pull_lazy_ms", stage("engine.pull_lazy")),
            ("engine.lazy_read_ms", stage("engine.lazy_read")),
            ("engine.lazy_sibling_ms", stage("engine.lazy_sibling")),
            (
                "engine.fetched_bytes_per_op",
                run.count_per_op("fetched_bytes"),
            ),
            (
                "engine.lazy_chunk_misses_per_op",
                run.count_per_op("chunk_misses"),
            ),
            (
                "engine.lazy_chunks_prefetched_per_op",
                run.count_per_op("chunks_prefetched"),
            ),
            ("harness.stage_coverage_pct", stage_coverage_pct(t)),
        ])
    }
}
