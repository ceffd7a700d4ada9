//! Shared (parallel cluster) filesystem model.
//!
//! §3.2: "A container image contains many small files which may be loaded
//! from shared storage from many compute nodes and that put strain on the
//! cluster filesystem, slowing down startup time or even execution."
//! §4.1.4: "HPC cluster filesystems ... are known for not scaling well in
//! cases of random access with many small files."
//!
//! The model is a Lustre-like split: a metadata service (bounded ops/s,
//! shared by every client — the choke point for small-file workloads) and
//! data servers (bandwidth-bound, reasonably parallel). Operations take an
//! arrival time and return a completion time, so many simulated nodes can
//! hammer the filesystem concurrently and observe queueing.

use hpcc_sim::resource::QueueServer;
use hpcc_sim::sym;
use hpcc_sim::{Bytes, FaultInjector, FaultKind, SimSpan, SimTime, Stage, Tracer};
use hpcc_vfs::fs::{FsError, MemFs};
use hpcc_vfs::path::VPath;
use parking_lot::RwLock;
use std::sync::Arc;

/// Tuning of the shared filesystem.
#[derive(Debug, Clone, Copy)]
pub struct SharedFsConfig {
    /// Service time of one metadata operation (lookup/open/stat).
    pub mds_service: SimSpan,
    /// Parallel metadata service threads.
    pub mds_servers: usize,
    /// Aggregate data servers.
    pub ost_servers: usize,
    /// Per-OST bandwidth, bytes/second.
    pub ost_bandwidth: f64,
    /// Client-observed network round trip to the filesystem.
    pub client_latency: SimSpan,
    /// Metadata service-time multiplier while a
    /// [`FaultKind::MdsBrownout`] fault is active.
    pub brownout_factor: f64,
}

impl Default for SharedFsConfig {
    fn default() -> Self {
        SharedFsConfig {
            mds_service: SimSpan::micros(120),
            mds_servers: 4,
            ost_servers: 8,
            ost_bandwidth: 2.0 * (1u64 << 30) as f64,
            client_latency: SimSpan::micros(30),
            brownout_factor: 40.0,
        }
    }
}

/// The shared filesystem: a tree plus contention models.
pub struct SharedFs {
    fs: RwLock<MemFs>,
    mds: QueueServer,
    ost: QueueServer,
    cfg: SharedFsConfig,
    faults: RwLock<Arc<FaultInjector>>,
    tracer: RwLock<Arc<Tracer>>,
}

impl SharedFs {
    pub fn new(cfg: SharedFsConfig) -> SharedFs {
        SharedFs {
            fs: RwLock::new(MemFs::new()),
            mds: QueueServer::new(cfg.mds_servers),
            ost: QueueServer::new(cfg.ost_servers),
            cfg,
            faults: RwLock::new(FaultInjector::disabled()),
            tracer: RwLock::new(Tracer::disabled()),
        }
    }

    /// Install a fault schedule; metadata ops consult it from now on.
    pub fn set_fault_injector(&self, injector: Arc<FaultInjector>) {
        *self.faults.write() = injector;
    }

    /// Attach a tracer: metadata ops feed `storage.mds.*` metrics and bulk
    /// transfers become `storage.read_bulk` spans.
    pub fn set_tracer(&self, tracer: Arc<Tracer>) {
        *self.tracer.write() = tracer;
    }

    pub fn with_defaults() -> SharedFs {
        SharedFs::new(SharedFsConfig::default())
    }

    pub fn config(&self) -> SharedFsConfig {
        self.cfg
    }

    /// Populate without cost accounting (experiment setup).
    pub fn populate(
        &self,
        f: impl FnOnce(&mut MemFs) -> Result<(), FsError>,
    ) -> Result<(), FsError> {
        f(&mut self.fs.write())
    }

    /// One metadata operation (stat/open/lookup) arriving at `arrival`.
    /// Returns its completion time.
    pub fn metadata_op(&self, arrival: SimTime) -> SimTime {
        // A browned-out metadata service still answers, just very slowly —
        // that is what distinguishes a brownout from an outage. Callers
        // with per-stage timeouts see these ops overrun and degrade.
        let service = if self
            .faults
            .read()
            .roll(FaultKind::MdsBrownout, arrival)
            .is_some()
        {
            self.cfg.mds_service.scale(self.cfg.brownout_factor)
        } else {
            self.cfg.mds_service
        };
        let (_, done) = self.mds.submit(arrival, service);
        let done = done + self.cfg.client_latency;
        let tracer = self.tracer.read();
        if tracer.is_enabled() {
            let m = tracer.metrics();
            m.incr("storage.mds.ops");
            m.observe("storage.mds.wait_ns", done.since(arrival).0);
        }
        done
    }

    /// Open+read a whole file. A small-file read costs one metadata op
    /// plus a data transfer; this is where the many-small-files pain
    /// comes from.
    pub fn read_file(
        &self,
        path: &VPath,
        arrival: SimTime,
    ) -> Result<(Arc<Vec<u8>>, SimTime), FsError> {
        let data = self.fs.read().read(path)?;
        let after_meta = self.metadata_op(arrival);
        let xfer = SimSpan::from_secs_f64(data.len() as f64 / self.cfg.ost_bandwidth);
        let (_, done) = self.ost.submit(after_meta, xfer);
        Ok((data, done + self.cfg.client_latency))
    }

    /// Stream a large object (e.g. a squash image) of `size` bytes
    /// starting at `arrival`: one metadata op, then a bandwidth-bound
    /// transfer.
    pub fn read_bulk(&self, size: Bytes, arrival: SimTime) -> SimTime {
        let after_meta = self.metadata_op(arrival);
        let xfer = SimSpan::from_secs_f64(size.as_u64() as f64 / self.cfg.ost_bandwidth);
        let (_, done) = self.ost.submit(after_meta, xfer);
        let done = done + self.cfg.client_latency;
        self.tracer.read().record(
            sym!("storage.read_bulk"),
            Stage::Storage,
            arrival,
            done,
            &[("bytes", size.as_u64().to_string())],
        );
        done
    }

    /// Write a file, charging metadata + data costs.
    pub fn write_file(
        &self,
        path: &VPath,
        data: Vec<u8>,
        arrival: SimTime,
    ) -> Result<SimTime, FsError> {
        let size = data.len();
        self.fs.write().write_p(path, data)?;
        let after_meta = self.metadata_op(arrival);
        let xfer = SimSpan::from_secs_f64(size as f64 / self.cfg.ost_bandwidth);
        let (_, done) = self.ost.submit(after_meta, xfer);
        Ok(done + self.cfg.client_latency)
    }

    /// Reset contention state (between benchmark iterations). The tree is
    /// kept.
    pub fn reset_contention(&self) {
        self.mds.reset();
        self.ost.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> VPath {
        VPath::parse(s)
    }

    fn small_file_fs(n: usize) -> SharedFs {
        let fs = SharedFs::with_defaults();
        fs.populate(|t| {
            for i in 0..n {
                t.write_p(
                    &p(&format!("/img/pkg{}/m{}.py", i % 10, i)),
                    vec![7u8; 2048],
                )?;
            }
            Ok(())
        })
        .unwrap();
        fs
    }

    #[test]
    fn read_returns_data_and_time() {
        let fs = small_file_fs(4);
        let (data, done) = fs.read_file(&p("/img/pkg0/m0.py"), SimTime::ZERO).unwrap();
        assert_eq!(data.len(), 2048);
        assert!(done > SimTime::ZERO);
    }

    #[test]
    fn metadata_server_queues_under_load() {
        let fs = small_file_fs(1);
        // 1000 concurrent metadata ops from many nodes at t=0.
        let mut last = SimTime::ZERO;
        for _ in 0..1000 {
            last = last.max(fs.metadata_op(SimTime::ZERO));
        }
        // 4 servers x 120us service: 1000 ops ≈ 30ms, far above a single
        // op's latency.
        let single = SharedFs::with_defaults().metadata_op(SimTime::ZERO);
        assert!(
            last.since(SimTime::ZERO).as_secs_f64()
                > 50.0 * single.since(SimTime::ZERO).as_secs_f64(),
            "contention must dominate: last={last:?} single={single:?}"
        );
    }

    #[test]
    fn bulk_read_scales_with_size_not_file_count() {
        let fs = SharedFs::with_defaults();
        let t_small = fs.read_bulk(Bytes::mib(1), SimTime::ZERO);
        fs.reset_contention();
        let t_big = fs.read_bulk(Bytes::mib(64), SimTime::ZERO);
        let ratio =
            t_big.since(SimTime::ZERO).as_secs_f64() / t_small.since(SimTime::ZERO).as_secs_f64();
        assert!(ratio > 20.0, "64x data should be ≫ latency-bound: {ratio}");
    }

    #[test]
    fn one_bulk_read_beats_many_small_reads_of_same_volume() {
        // The §3.2 argument in miniature: same bytes, one object vs 1000
        // files, one client.
        let n = 1000;
        let fs = small_file_fs(n);
        let mut done_small = SimTime::ZERO;
        let mut t = SimTime::ZERO;
        for i in 0..n {
            let (_, d) = fs
                .read_file(&p(&format!("/img/pkg{}/m{}.py", i % 10, i)), t)
                .unwrap();
            t = d; // sequential client
            done_small = d;
        }
        fs.reset_contention();
        let done_bulk = fs.read_bulk(Bytes::new(2048 * n as u64), SimTime::ZERO);
        let speedup = done_small.since(SimTime::ZERO).as_secs_f64()
            / done_bulk.since(SimTime::ZERO).as_secs_f64();
        assert!(
            speedup > 10.0,
            "single-file image must win big: speedup {speedup:.1}"
        );
    }

    #[test]
    fn write_then_read_roundtrip() {
        let fs = SharedFs::with_defaults();
        let done = fs
            .write_file(&p("/out/res.dat"), vec![1, 2, 3], SimTime::ZERO)
            .unwrap();
        assert!(done > SimTime::ZERO);
        let (data, _) = fs.read_file(&p("/out/res.dat"), done).unwrap();
        assert_eq!(&**data, &[1, 2, 3]);
    }

    #[test]
    fn missing_file_is_fs_error() {
        let fs = SharedFs::with_defaults();
        assert!(fs.read_file(&p("/nope"), SimTime::ZERO).is_err());
    }

    #[test]
    fn brownout_slows_metadata_inside_window_only() {
        use hpcc_sim::{FaultInjector, FaultKind, FaultRule};
        let fs = SharedFs::with_defaults();
        let cfg = fs.config();
        let w0 = SimTime::ZERO + SimSpan::secs(10);
        let w1 = SimTime::ZERO + SimSpan::secs(20);
        fs.set_fault_injector(Arc::new(FaultInjector::new(
            1,
            vec![FaultRule::sticky(FaultKind::MdsBrownout, w0, w1)],
        )));
        let healthy = fs.metadata_op(SimTime::ZERO).since(SimTime::ZERO);
        fs.reset_contention();
        let browned = fs.metadata_op(w0).since(w0);
        fs.reset_contention();
        let after = fs.metadata_op(w1).since(w1);
        assert_eq!(healthy, cfg.mds_service + cfg.client_latency);
        assert_eq!(
            browned,
            cfg.mds_service.scale(cfg.brownout_factor) + cfg.client_latency
        );
        assert_eq!(after, healthy);
    }

    #[test]
    fn reset_clears_backlog() {
        let fs = small_file_fs(1);
        for _ in 0..100 {
            fs.metadata_op(SimTime::ZERO);
        }
        fs.reset_contention();
        let single = fs.metadata_op(SimTime::ZERO);
        let cfg = SharedFsConfig::default();
        assert_eq!(
            single.since(SimTime::ZERO),
            cfg.mds_service + cfg.client_latency
        );
    }
}
