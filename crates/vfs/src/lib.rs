//! # hpcc-vfs
//!
//! The filesystem substrate of the containerization testbed:
//!
//! * [`path`] — normalized absolute paths with kernel-style `..` clamping.
//! * [`fs`] — an in-memory POSIX-like filesystem (files, dirs, symlinks,
//!   mode/uid/gid, symlink resolution with loop detection, archive
//!   import/export, content digests).
//! * [`overlay`] — union mounts: ordered read-only lower layers under a
//!   writable upper, with whiteouts, opaque directories, copy-up and
//!   flattening. This is the overlayfs/fuse-overlayfs mechanism OCI
//!   bundles rely on and HPC engines often replace.
//! * [`squash`] — immutable single-file images with per-file compression
//!   and random access (the SquashFS/SIF-partition analogue).
//! * [`seekable`] — the lazy-pull variant: a manifest-first index plus
//!   content-addressed compressed chunk ranges, so engines can launch on
//!   the index alone and fault ranges in on first touch.
//! * [`driver`] — access drivers (in-kernel SquashFS, SquashFUSE, plain
//!   directory, kernel/FUSE overlay) that perform real reads and charge
//!   calibrated logical-time costs, reproducing the §4.1.2 IOPS/latency
//!   relationships.

#![forbid(unsafe_code)]

pub mod driver;
pub mod fs;
pub mod overlay;
pub mod path;
pub mod seekable;
pub mod squash;

pub use driver::{DirDriver, DriverError, DriverProfile, FsDriver, OverlayDriver, SquashDriver};
pub use fs::{FileType, FsError, MemFs, Meta, Stat};
pub use overlay::OverlayFs;
pub use path::VPath;
pub use seekable::{ChunkRef, SeekableEntry, SeekableIndex, DEFAULT_CHUNK_SIZE};
pub use squash::{SquashEntry, SquashError, SquashImage};
