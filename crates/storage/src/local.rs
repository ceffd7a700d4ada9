//! Node-local storage and image staging.
//!
//! §4.1.2: "One approach that works around the limitations imposed by a
//! shared cluster filesystem is extracting an image to a temporary,
//! node-local storage location." This module provides the per-node disk
//! (fast, uncontended) and the staging operation that pulls a single-file
//! image off the shared filesystem onto N nodes.

use crate::shared_fs::SharedFs;
use hpcc_sim::sym;
use hpcc_sim::{
    Bytes, Executor, FaultInjector, FaultKind, SimSpan, SimTime, Stage, TaskFinish, TaskGraph,
    Tracer,
};
use hpcc_vfs::fs::{FsError, MemFs};
use hpcc_vfs::path::VPath;
use hpcc_vfs::squash::{SquashError, SquashImage};
use parking_lot::RwLock;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

/// A node's local scratch disk (NVMe-class).
pub struct NodeLocalDisk {
    fs: RwLock<MemFs>,
    /// Sequential bandwidth, bytes/sec.
    pub bandwidth: f64,
    /// Per-operation latency.
    pub op_latency: SimSpan,
    faults: RwLock<Arc<FaultInjector>>,
}

impl Default for NodeLocalDisk {
    fn default() -> Self {
        NodeLocalDisk {
            fs: RwLock::new(MemFs::new()),
            bandwidth: 3.0 * (1u64 << 30) as f64,
            op_latency: SimSpan::micros(15),
            faults: RwLock::new(FaultInjector::disabled()),
        }
    }
}

impl NodeLocalDisk {
    pub fn new() -> NodeLocalDisk {
        NodeLocalDisk::default()
    }

    /// Install a fault schedule; writes consult it from now on.
    pub fn set_fault_injector(&self, injector: Arc<FaultInjector>) {
        *self.faults.write() = injector;
    }

    /// Write bytes, returning completion relative to `arrival`. While a
    /// [`FaultKind::DiskFull`] fault is active the scratch disk rejects
    /// writes with [`FsError::NoSpace`]; reads of already-landed data keep
    /// working.
    pub fn write(
        &self,
        path: &VPath,
        data: impl Into<Arc<Vec<u8>>>,
        arrival: SimTime,
    ) -> Result<SimTime, FsError> {
        if self
            .faults
            .read()
            .roll(FaultKind::DiskFull, arrival)
            .is_some()
        {
            return Err(FsError::NoSpace(path.clone()));
        }
        let data = data.into();
        let span = SimSpan::from_secs_f64(data.len() as f64 / self.bandwidth);
        self.fs.write().write_p(path, data)?;
        Ok(arrival + self.op_latency + span)
    }

    /// Read bytes back.
    pub fn read(&self, path: &VPath, arrival: SimTime) -> Result<(Arc<Vec<u8>>, SimTime), FsError> {
        let data = self.fs.read().read(path)?;
        let span = SimSpan::from_secs_f64(data.len() as f64 / self.bandwidth);
        Ok((data, arrival + self.op_latency + span))
    }
}

/// Where a staged image ended up on each node.
#[derive(Debug, Clone)]
pub struct StagingReport {
    /// Completion time per node index.
    pub per_node_done: Vec<SimTime>,
    /// The slowest node (job start gate).
    pub all_done: SimTime,
    /// Bytes moved per node.
    pub bytes_per_node: Bytes,
}

/// Stage a single-file image from the shared filesystem onto every node's
/// local disk. All nodes start pulling at `arrival` and contend on the
/// shared filesystem's data servers.
pub fn stage_image_to_nodes(
    shared: &SharedFs,
    image: &SquashImage,
    nodes: &[Arc<NodeLocalDisk>],
    arrival: SimTime,
) -> Result<StagingReport, SquashError> {
    // An unbounded pool (one worker per node) reproduces the historical
    // everyone-pulls-at-once behaviour.
    let tracer = Tracer::disabled();
    stage_image_to_nodes_bounded(shared, image, nodes, arrival, nodes.len().max(1), &tracer)
}

/// [`stage_image_to_nodes`] on a bounded worker pool: at most `workers`
/// nodes pull from the shared filesystem concurrently (an admission window
/// sites use to keep staging from flattening the metadata servers). Each
/// node's fetch+write is one executor task, recorded as a `stage.node`
/// span on `tracer`.
pub(crate) fn stage_image_to_nodes_bounded(
    shared: &SharedFs,
    image: &SquashImage,
    nodes: &[Arc<NodeLocalDisk>],
    arrival: SimTime,
    workers: usize,
    tracer: &Tracer,
) -> Result<StagingReport, SquashError> {
    let size = Bytes::new(image.len_bytes());
    // Every node lands the same bytes: one allocation, shared.
    let bytes = image.clone().into_bytes();
    let done: RefCell<Vec<Option<SimTime>>> = RefCell::new(vec![None; nodes.len()]);
    let mut graph: TaskGraph<'_, SquashError> = TaskGraph::new();
    for (i, disk) in nodes.iter().enumerate() {
        let done = &done;
        let bytes = &bytes;
        graph.add(sym!("stage.node"), Stage::Storage, &[], move |at| {
            let fetched = shared.read_bulk(size, at);
            // Land the bytes on the local disk.
            let t = disk
                .write(
                    &VPath::parse("/scratch/image.sqsh"),
                    Arc::clone(bytes),
                    fetched,
                )
                .map_err(SquashError::Fs)?;
            done.borrow_mut()[i] = Some(t);
            Ok(TaskFinish::at(t)
                .attr(sym!("node"), i)
                .attr(sym!("bytes"), size.as_u64()))
        });
    }
    Executor::new(workers)
        .run(graph, arrival, tracer)
        .map_err(|e| e.error)?;
    let per_node_done: Vec<SimTime> = done
        .into_inner()
        .into_iter()
        .map(|t| t.expect("every node staged"))
        .collect();
    let all_done = per_node_done.iter().copied().max().unwrap_or(arrival);
    Ok(StagingReport {
        per_node_done,
        all_done,
        bytes_per_node: size,
    })
}

/// Cache key: (artifact digest, Some(uid) when the cache is per-user).
type CacheKey = (String, Option<u32>);

/// A conversion cache: digest → converted artifact, with hit/miss
/// accounting and the per-user vs shared distinction of Table 2's
/// "Native Format Sharing" column.
pub struct ConversionCache {
    /// None = shared across users; Some(uid) keys include the user.
    shared_across_users: bool,
    entries: RwLock<HashMap<CacheKey, Arc<Vec<u8>>>>,
    hits: RwLock<u64>,
    misses: RwLock<u64>,
}

impl ConversionCache {
    /// A cache shared by all users (needs a trusted service or setuid
    /// management — see §4.1.4).
    pub fn shared() -> ConversionCache {
        ConversionCache {
            shared_across_users: true,
            entries: RwLock::new(HashMap::new()),
            hits: RwLock::new(0),
            misses: RwLock::new(0),
        }
    }

    /// Per-user caches (the rootless default).
    pub fn per_user() -> ConversionCache {
        ConversionCache {
            shared_across_users: false,
            entries: RwLock::new(HashMap::new()),
            hits: RwLock::new(0),
            misses: RwLock::new(0),
        }
    }

    fn full_key(&self, key: &str, uid: u32) -> CacheKey {
        let user_key = if self.shared_across_users {
            None
        } else {
            Some(uid)
        };
        (key.to_string(), user_key)
    }

    /// Look up `key` for `uid`, counting a hit or a miss. The convert path
    /// pairs it with [`ConversionCache::insert`] so the artifact only
    /// becomes durable *after* the conversion work — and its crash points —
    /// have completed; an artifact must never survive a crash that
    /// interrupted the conversion producing it.
    pub fn lookup(&self, key: &str, uid: u32) -> Option<Arc<Vec<u8>>> {
        let full_key = self.full_key(key, uid);
        match self.entries.read().get(&full_key) {
            Some(hit) => {
                *self.hits.write() += 1;
                Some(Arc::clone(hit))
            }
            None => {
                *self.misses.write() += 1;
                None
            }
        }
    }

    /// Make a converted artifact durable under `key`. Counts nothing; the
    /// preceding [`ConversionCache::lookup`] already recorded the miss.
    pub fn insert(&self, key: &str, uid: u32, artifact: Arc<Vec<u8>>) {
        let full_key = self.full_key(key, uid);
        self.entries.write().insert(full_key, artifact);
    }

    pub fn hit_count(&self) -> u64 {
        *self.hits.read()
    }

    pub fn miss_count(&self) -> u64 {
        *self.misses.read()
    }

    /// Number of stored artifacts (shared caches store each once).
    pub fn stored(&self) -> usize {
        self.entries.read().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcc_codec::compress::Codec;

    fn p(s: &str) -> VPath {
        VPath::parse(s)
    }

    /// Look up `key` for `uid`; on miss, run `convert` and insert — the
    /// lookup/insert pair every engine runs. Returns (artifact, was_hit).
    fn get_or_convert(
        cache: &ConversionCache,
        key: &str,
        uid: u32,
        convert: impl FnOnce() -> Vec<u8>,
    ) -> (Arc<Vec<u8>>, bool) {
        if let Some(hit) = cache.lookup(key, uid) {
            return (hit, true);
        }
        let artifact = Arc::new(convert());
        cache.insert(key, uid, Arc::clone(&artifact));
        (artifact, false)
    }

    fn sample_image() -> SquashImage {
        let mut fs = MemFs::new();
        fs.write_p(&p("/bin/app"), vec![3u8; 1 << 20]).unwrap();
        SquashImage::build(&fs, &VPath::root(), Codec::Lz).unwrap()
    }

    #[test]
    fn local_disk_roundtrip() {
        let disk = NodeLocalDisk::new();
        let done = disk
            .write(&p("/scratch/x"), vec![1, 2, 3], SimTime::ZERO)
            .unwrap();
        let (data, done2) = disk.read(&p("/scratch/x"), done).unwrap();
        assert_eq!(&**data, &[1, 2, 3]);
        assert!(done2 > done);
    }

    #[test]
    fn full_disk_rejects_writes_until_window_ends() {
        use hpcc_sim::{FaultInjector, FaultKind, FaultRule, SimSpan};
        let disk = NodeLocalDisk::new();
        let w0 = SimTime::ZERO;
        let w1 = SimTime::ZERO + SimSpan::secs(5);
        disk.set_fault_injector(Arc::new(FaultInjector::new(
            1,
            vec![FaultRule::sticky(FaultKind::DiskFull, w0, w1)],
        )));
        let err = disk.write(&p("/scratch/x"), vec![1], w0).unwrap_err();
        assert_eq!(err, FsError::NoSpace(p("/scratch/x")));
        // The window ends (scrubber freed space): writes succeed again.
        assert!(disk.write(&p("/scratch/x"), vec![1], w1).is_ok());
        let (data, _) = disk.read(&p("/scratch/x"), w1).unwrap();
        assert_eq!(&**data, &[1]);
    }

    #[test]
    fn staging_fans_out_to_all_nodes() {
        let shared = SharedFs::with_defaults();
        let img = sample_image();
        let nodes: Vec<Arc<NodeLocalDisk>> =
            (0..16).map(|_| Arc::new(NodeLocalDisk::new())).collect();
        let report = stage_image_to_nodes(&shared, &img, &nodes, SimTime::ZERO).unwrap();
        assert_eq!(report.per_node_done.len(), 16);
        assert!(report.all_done >= *report.per_node_done.iter().max().unwrap());
        for disk in &nodes {
            let (data, _) = disk.read(&p("/scratch/image.sqsh"), SimTime::ZERO).unwrap();
            assert_eq!(data.len() as u64, img.len_bytes());
        }
    }

    #[test]
    fn more_nodes_take_longer_due_to_contention() {
        let img = sample_image();
        let shared_a = SharedFs::with_defaults();
        let few: Vec<Arc<NodeLocalDisk>> = (0..2).map(|_| Arc::new(NodeLocalDisk::new())).collect();
        let t_few = stage_image_to_nodes(&shared_a, &img, &few, SimTime::ZERO)
            .unwrap()
            .all_done;
        let shared_b = SharedFs::with_defaults();
        let many: Vec<Arc<NodeLocalDisk>> =
            (0..64).map(|_| Arc::new(NodeLocalDisk::new())).collect();
        let t_many = stage_image_to_nodes(&shared_b, &img, &many, SimTime::ZERO)
            .unwrap()
            .all_done;
        assert!(t_many > t_few);
    }

    #[test]
    fn shared_cache_converts_once_for_all_users() {
        let cache = ConversionCache::shared();
        let mut conversions = 0;
        for uid in [1000, 2000, 3000] {
            let (_, hit) = get_or_convert(&cache, "sha256:abc", uid, || {
                conversions += 1;
                vec![1]
            });
            assert_eq!(hit, uid != 1000);
        }
        assert_eq!(conversions, 1);
        assert_eq!(cache.stored(), 1);
        assert_eq!(cache.hit_count(), 2);
        assert_eq!(cache.miss_count(), 1);
    }

    #[test]
    fn per_user_cache_converts_per_user() {
        let cache = ConversionCache::per_user();
        let mut conversions = 0;
        for uid in [1000, 2000] {
            for _ in 0..2 {
                get_or_convert(&cache, "sha256:abc", uid, || {
                    conversions += 1;
                    vec![1]
                });
            }
        }
        assert_eq!(conversions, 2, "one conversion per user");
        assert_eq!(cache.stored(), 2);
        assert_eq!(cache.hit_count(), 2);
        assert!(!cache.shared_across_users);
    }

    #[test]
    fn different_digests_do_not_collide() {
        let cache = ConversionCache::shared();
        get_or_convert(&cache, "a", 0, || vec![1]);
        let (v, hit) = get_or_convert(&cache, "b", 0, || vec![2]);
        assert!(!hit);
        assert_eq!(*v, vec![2]);
    }
}
