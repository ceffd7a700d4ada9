//! # hpcc-storage
//!
//! Cluster-storage models:
//!
//! * [`shared_fs`] — a Lustre-class shared filesystem with a bounded
//!   metadata service and bandwidth-bound data servers; the substrate for
//!   the many-small-files vs single-file-image experiments (§3.2, §4.1.4).
//! * [`local`] — node-local scratch disks, the image-staging fan-out, and
//!   the conversion cache with the per-user vs shared distinction of
//!   Table 2.
//! * [`blobstore`] — a sharded content-addressed blob store (digest →
//!   refcount dedup, LRU eviction, hit/miss accounting) shared by engines
//!   and the registry proxy (§3.1 layer dedup).
//! * [`journal`] — a write-ahead intent journal over the blob store
//!   (begin → stage → commit) with an fsck-style recovery pass; the
//!   crash-consistency substrate behind the kill-at-every-step matrix.

#![forbid(unsafe_code)]

pub mod blobstore;
pub mod journal;
pub mod local;
pub mod p2p;
pub mod shared_fs;

pub use blobstore::{BlobStore, BlobStoreStats};
pub use journal::{JournalRecord, JournaledStore, JOURNAL_SITES};
pub use local::{stage_image_to_nodes, ConversionCache, NodeLocalDisk, StagingReport};
pub use p2p::{
    broadcast_p2p, broadcast_tree, broadcast_tree_from_seeds, broadcast_via_shared_fs,
    replicate_to_stores, BroadcastReport, DistributionTree, TreeBroadcastReport, TreeSpec,
};
pub use shared_fs::{SharedFs, SharedFsConfig};
