//! Filesystem access drivers with logical-time cost models.
//!
//! Section 4.1.2 of the survey: "benchmarks comparing SquashFUSE and the
//! in-kernel SquashFS show a magnitude lower IOPS for random access and a
//! much higher latency" (citing CSCS's squashfs-mount measurements). The
//! engines differ exactly in *which driver* they use — Shifter/Sarus mount
//! via a setuid helper with the in-kernel driver, Podman-HPC/Charliecloud
//! use SquashFUSE, Charliecloud/ENROOT can use a plain unpacked directory.
//!
//! Every driver here performs the *real* work (decompression, overlay
//! resolution) and charges a calibrated logical-time cost to a
//! [`SimClock`]: a per-operation overhead (syscall vs FUSE round trips),
//! a bandwidth term, and a decompression-CPU term. The calibration
//! constants reproduce the ≈10× random-read IOPS gap.

use crate::fs::{FsError, MemFs};
use crate::overlay::OverlayFs;
use crate::path::VPath;
use crate::squash::{SquashError, SquashImage};
use hpcc_sim::{SimClock, SimSpan};
use std::sync::Arc;

/// Cost parameters of one access path.
#[derive(Debug, Clone, Copy)]
pub struct DriverProfile {
    /// Fixed overhead per operation (syscall path, FUSE round trips).
    pub per_op: SimSpan,
    /// Sequential read bandwidth of this path, bytes/second.
    pub read_bandwidth: f64,
    /// Decompression CPU cost per *output* byte, nanoseconds.
    pub decompress_ns_per_byte: f64,
}

impl DriverProfile {
    /// In-kernel SquashFS: cheap syscalls, fast page-cache-backed reads,
    /// kernel-side decompression.
    pub fn kernel_squash() -> DriverProfile {
        DriverProfile {
            per_op: SimSpan::micros(4),
            read_bandwidth: 2.0 * (1u64 << 30) as f64,
            decompress_ns_per_byte: 0.20,
        }
    }

    /// SquashFUSE: every operation crosses kernel↔userspace twice; lower
    /// effective bandwidth; userspace decompression.
    pub fn fuse_squash() -> DriverProfile {
        DriverProfile {
            per_op: SimSpan::micros(55),
            read_bandwidth: 0.8 * (1u64 << 30) as f64,
            decompress_ns_per_byte: 0.25,
        }
    }

    /// Unpacked directory on node-local storage: no decompression, plain
    /// VFS path.
    pub(crate) fn local_dir() -> DriverProfile {
        DriverProfile {
            per_op: SimSpan::micros(6),
            read_bandwidth: 3.0 * (1u64 << 30) as f64,
            decompress_ns_per_byte: 0.0,
        }
    }

    /// In-kernel OverlayFS: near-native with a small per-layer lookup tax
    /// folded into `per_op` by [`OverlayDriver`].
    pub(crate) fn kernel_overlay() -> DriverProfile {
        DriverProfile {
            per_op: SimSpan::micros(5),
            read_bandwidth: 2.5 * (1u64 << 30) as f64,
            decompress_ns_per_byte: 0.0,
        }
    }

    /// fuse-overlayfs: "heavy I/O must be absorbed by the CPU" (§4.1.2).
    pub(crate) fn fuse_overlay() -> DriverProfile {
        DriverProfile {
            per_op: SimSpan::micros(48),
            read_bandwidth: 0.9 * (1u64 << 30) as f64,
            decompress_ns_per_byte: 0.0,
        }
    }

    /// Cost of reading `stored` bytes producing `orig` output bytes.
    pub fn read_cost(&self, stored: u64, orig: u64) -> SimSpan {
        let io = SimSpan::from_secs_f64(stored as f64 / self.read_bandwidth);
        let cpu = SimSpan::from_secs_f64(orig as f64 * self.decompress_ns_per_byte / 1e9);
        self.per_op + io + cpu
    }
}

/// Driver errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DriverError {
    Squash(SquashError),
    Fs(FsError),
}

impl From<SquashError> for DriverError {
    fn from(e: SquashError) -> DriverError {
        DriverError::Squash(e)
    }
}
impl From<FsError> for DriverError {
    fn from(e: FsError) -> DriverError {
        DriverError::Fs(e)
    }
}

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriverError::Squash(e) => write!(f, "{e}"),
            DriverError::Fs(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DriverError {}

/// A read-only filesystem view with a cost model.
pub trait FsDriver: Send + Sync {
    /// Human-readable driver name (appears in experiment output).
    fn name(&self) -> &'static str;

    /// Read one file, charging the clock.
    fn read_file(&self, path: &str, clock: &SimClock) -> Result<Vec<u8>, DriverError>;

    /// Metadata-only operation (stat/open), charging the per-op cost.
    fn touch(&self, path: &str, clock: &SimClock) -> Result<u64, DriverError>;

    /// All file paths (no cost — used by workload generators).
    fn file_paths(&self) -> Vec<String>;
}

/// Squash image through a chosen profile (kernel or FUSE).
pub struct SquashDriver {
    image: Arc<SquashImage>,
    profile: DriverProfile,
    name: &'static str,
}

impl SquashDriver {
    pub fn kernel(image: Arc<SquashImage>) -> SquashDriver {
        SquashDriver {
            image,
            profile: DriverProfile::kernel_squash(),
            name: "squashfs-kernel",
        }
    }

    pub fn fuse(image: Arc<SquashImage>) -> SquashDriver {
        SquashDriver {
            image,
            profile: DriverProfile::fuse_squash(),
            name: "squashfuse",
        }
    }

    pub fn with_profile(
        image: Arc<SquashImage>,
        profile: DriverProfile,
        name: &'static str,
    ) -> SquashDriver {
        SquashDriver {
            image,
            profile,
            name,
        }
    }

    pub fn profile(&self) -> DriverProfile {
        self.profile
    }
}

impl FsDriver for SquashDriver {
    fn name(&self) -> &'static str {
        self.name
    }

    fn read_file(&self, path: &str, clock: &SimClock) -> Result<Vec<u8>, DriverError> {
        let (stored, orig) = self.image.stored_len(path)?;
        clock.advance(self.profile.read_cost(stored, orig));
        Ok(self.image.read_file(path)?)
    }

    fn touch(&self, path: &str, clock: &SimClock) -> Result<u64, DriverError> {
        clock.advance(self.profile.per_op);
        let (_, orig) = self.image.stored_len(path)?;
        Ok(orig)
    }

    fn file_paths(&self) -> Vec<String> {
        self.image
            .paths()
            .filter(|p| {
                matches!(
                    self.image.entry(p),
                    Some(crate::squash::SquashEntry::File { .. })
                )
            })
            .map(str::to_string)
            .collect()
    }
}

/// Unpacked directory tree (node-local or shared storage decides the
/// profile; the shared-filesystem contention model lives in
/// `hpcc-storage` and composes on top).
pub struct DirDriver {
    fs: Arc<MemFs>,
    root: VPath,
    profile: DriverProfile,
    name: &'static str,
}

impl DirDriver {
    pub fn local(fs: Arc<MemFs>, root: VPath) -> DirDriver {
        DirDriver {
            fs,
            root,
            profile: DriverProfile::local_dir(),
            name: "dir-local",
        }
    }

    pub fn with_profile(
        fs: Arc<MemFs>,
        root: VPath,
        profile: DriverProfile,
        name: &'static str,
    ) -> DirDriver {
        DirDriver {
            fs,
            root,
            profile,
            name,
        }
    }
}

impl FsDriver for DirDriver {
    fn name(&self) -> &'static str {
        self.name
    }

    fn read_file(&self, path: &str, clock: &SimClock) -> Result<Vec<u8>, DriverError> {
        let at = self.root.join(path);
        let data = self.fs.read(&at)?;
        clock.advance(self.profile.read_cost(data.len() as u64, data.len() as u64));
        Ok(data.as_ref().clone())
    }

    fn touch(&self, path: &str, clock: &SimClock) -> Result<u64, DriverError> {
        clock.advance(self.profile.per_op);
        let at = self.root.join(path);
        Ok(self.fs.stat(&at)?.size)
    }

    fn file_paths(&self) -> Vec<String> {
        self.fs
            .walk(&self.root)
            .map(|paths| {
                paths
                    .into_iter()
                    .filter(|p| {
                        self.fs
                            .lstat(p)
                            .map(|s| s.kind == crate::fs::FileType::File)
                            .unwrap_or(false)
                    })
                    .filter_map(|p| {
                        p.rebase(&self.root, &VPath::root())
                            .map(|r| r.to_string().trim_start_matches('/').to_string())
                    })
                    .collect()
            })
            .unwrap_or_default()
    }
}

/// Overlay (union) view through kernel or FUSE overlayfs. Each lookup
/// pays a per-layer tax on top of the base per-op cost.
pub struct OverlayDriver {
    overlay: Arc<OverlayFs>,
    profile: DriverProfile,
    per_layer: SimSpan,
    name: &'static str,
}

impl OverlayDriver {
    pub fn kernel(overlay: Arc<OverlayFs>) -> OverlayDriver {
        OverlayDriver {
            overlay,
            profile: DriverProfile::kernel_overlay(),
            per_layer: SimSpan::micros(1),
            name: "overlayfs-kernel",
        }
    }

    pub fn fuse(overlay: Arc<OverlayFs>) -> OverlayDriver {
        OverlayDriver {
            overlay,
            profile: DriverProfile::fuse_overlay(),
            per_layer: SimSpan::micros(8),
            name: "fuse-overlayfs",
        }
    }

    fn layer_tax(&self) -> SimSpan {
        self.per_layer * (self.overlay.lower_count() as u64 + 1)
    }
}

impl FsDriver for OverlayDriver {
    fn name(&self) -> &'static str {
        self.name
    }

    fn read_file(&self, path: &str, clock: &SimClock) -> Result<Vec<u8>, DriverError> {
        let at = VPath::root().join(path);
        let data = self.overlay.read(&at)?;
        clock.advance(
            self.profile.read_cost(data.len() as u64, data.len() as u64) + self.layer_tax(),
        );
        Ok(data.as_ref().clone())
    }

    fn touch(&self, path: &str, clock: &SimClock) -> Result<u64, DriverError> {
        clock.advance(self.profile.per_op + self.layer_tax());
        let at = VPath::root().join(path);
        Ok(self.overlay.stat(&at)?.size)
    }

    fn file_paths(&self) -> Vec<String> {
        fn collect(o: &OverlayFs, at: &VPath, out: &mut Vec<String>) {
            if let Ok(names) = o.list(at) {
                for n in names {
                    let p = at.child(&n);
                    match o.stat(&p) {
                        Ok(st) if st.kind == crate::fs::FileType::Dir => collect(o, &p, out),
                        Ok(st) if st.kind == crate::fs::FileType::File => {
                            out.push(p.to_string().trim_start_matches('/').to_string())
                        }
                        _ => {}
                    }
                }
            }
        }
        let mut out = Vec::new();
        collect(&self.overlay, &VPath::root(), &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcc_codec::compress::Codec;
    use hpcc_sim::SimTime;

    fn p(s: &str) -> VPath {
        VPath::parse(s)
    }

    /// A tree of `n` files of `size` bytes each.
    fn tree(n: usize, size: usize) -> MemFs {
        let mut fs = MemFs::new();
        for i in 0..n {
            let path = format!("/pkg/mod{}/file{}.py", i % 16, i);
            fs.write_p(&p(&path), vec![(i % 251) as u8; size]).unwrap();
        }
        fs
    }

    fn image(n: usize, size: usize) -> Arc<SquashImage> {
        Arc::new(SquashImage::build(&tree(n, size), &VPath::root(), Codec::Lz).unwrap())
    }

    #[test]
    fn drivers_return_identical_data() {
        let fs = Arc::new(tree(8, 512));
        let img = image(8, 512);
        let clock = SimClock::new();
        let kernel = SquashDriver::kernel(Arc::clone(&img));
        let fuse = SquashDriver::fuse(img);
        let dir = DirDriver::local(fs, VPath::root());
        for path in kernel.file_paths() {
            let a = kernel.read_file(&path, &clock).unwrap();
            let b = fuse.read_file(&path, &clock).unwrap();
            let c = dir.read_file(&path, &clock).unwrap();
            assert_eq!(a, b);
            assert_eq!(a, c);
        }
    }

    #[test]
    fn fuse_squash_is_an_order_of_magnitude_slower_on_random_4k_reads() {
        // The §4.1.2 claim, reproduced: random 4 KiB reads.
        let img = image(64, 4096);
        let kernel = SquashDriver::kernel(Arc::clone(&img));
        let fuse = SquashDriver::fuse(img);
        let paths = kernel.file_paths();

        let kc = SimClock::new();
        let fc = SimClock::new();
        for path in &paths {
            kernel.read_file(path, &kc).unwrap();
            fuse.read_file(path, &fc).unwrap();
        }
        let kt = kc.now().since(SimTime::ZERO).as_secs_f64();
        let ft = fc.now().since(SimTime::ZERO).as_secs_f64();
        let ratio = ft / kt;
        assert!(
            (6.0..20.0).contains(&ratio),
            "expected ~10x gap, got {ratio:.1}x (kernel {kt:.6}s fuse {ft:.6}s)"
        );
    }

    #[test]
    fn per_op_dominates_small_reads_bandwidth_dominates_large() {
        let profile = DriverProfile::kernel_squash();
        let small = profile.read_cost(512, 512);
        let large = profile.read_cost(64 << 20, 64 << 20);
        // Small read ≈ per_op; large read ≫ per_op.
        assert!(small < profile.per_op * 2);
        assert!(large > profile.per_op * 100);
    }

    #[test]
    fn touch_charges_per_op_only() {
        let img = image(4, 1024);
        let drv = SquashDriver::kernel(img);
        let clock = SimClock::new();
        let size = drv.touch("pkg/mod0/file0.py", &clock).unwrap();
        assert_eq!(size, 1024);
        assert_eq!(
            clock.now().since(SimTime::ZERO),
            DriverProfile::kernel_squash().per_op
        );
    }

    #[test]
    fn overlay_driver_reads_through_union() {
        let mut lower = MemFs::new();
        lower.write_p(&p("/base/lib.so"), vec![1, 2, 3]).unwrap();
        let mut ov = OverlayFs::new(vec![Arc::new(lower)]);
        ov.mkdir_p(&p("/app")).unwrap();
        ov.write(&p("/app/run"), vec![9], crate::fs::Meta::file())
            .unwrap();
        let ov = Arc::new(ov);
        let clock = SimClock::new();
        let drv = OverlayDriver::kernel(Arc::clone(&ov));
        assert_eq!(drv.read_file("base/lib.so", &clock).unwrap(), vec![1, 2, 3]);
        assert_eq!(drv.read_file("app/run", &clock).unwrap(), vec![9]);
        let mut files = drv.file_paths();
        files.sort();
        assert_eq!(files, vec!["app/run", "base/lib.so"]);
    }

    #[test]
    fn fuse_overlay_slower_than_kernel_overlay() {
        let mut lower = MemFs::new();
        for i in 0..32 {
            lower.write_p(&p(&format!("/f{i}")), vec![0; 1024]).unwrap();
        }
        let ov = Arc::new(OverlayFs::new(vec![Arc::new(lower)]));
        let k = OverlayDriver::kernel(Arc::clone(&ov));
        let f = OverlayDriver::fuse(ov);
        let kc = SimClock::new();
        let fc = SimClock::new();
        for path in k.file_paths() {
            k.read_file(&path, &kc).unwrap();
            f.read_file(&path, &fc).unwrap();
        }
        assert!(fc.now() > kc.now());
    }

    #[test]
    fn layer_count_taxes_overlay_lookups() {
        let layers: Vec<Arc<MemFs>> = (0..8)
            .map(|i| {
                let mut fs = MemFs::new();
                fs.write_p(&p(&format!("/layer{i}")), vec![0; 16]).unwrap();
                Arc::new(fs)
            })
            .collect();
        let mut shallow_fs = MemFs::new();
        shallow_fs.write_p(&p("/layer0"), vec![0; 16]).unwrap();
        let deep = OverlayDriver::kernel(Arc::new(OverlayFs::new(layers)));
        let shallow = OverlayDriver::kernel(Arc::new(OverlayFs::new(vec![Arc::new(shallow_fs)])));
        let dc = SimClock::new();
        let sc = SimClock::new();
        deep.touch("layer0", &dc).unwrap();
        shallow.touch("layer0", &sc).unwrap();
        assert!(dc.now() > sc.now(), "more layers, more lookup cost");
    }

    #[test]
    fn missing_file_costs_nothing_extra_but_errors() {
        let img = image(1, 64);
        let drv = SquashDriver::fuse(img);
        let clock = SimClock::new();
        assert!(drv.read_file("missing", &clock).is_err());
    }
}
