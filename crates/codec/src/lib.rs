//! # hpcc-codec
//!
//! Serialization substrate for container layers and single-file images:
//!
//! * [`wire`] — little-endian + varint primitives shared by every on-"disk"
//!   format in the testbed.
//! * [`mod@compress`] — self-describing compression container with three real
//!   codecs: store, run-length, and an LZ77-family codec. The single-file
//!   image experiments (SquashFS analogue) trade decompression CPU for I/O,
//!   so compression must actually happen, not be a flag.
//! * [`archive`] — a tar-analogue: ordered entries with path, mode,
//!   uid/gid, file data, symlinks, and the OCI layer whiteout markers.
//!   Layers and image exports serialize through this.

#![forbid(unsafe_code)]

pub mod archive;
pub mod compress;
pub mod wire;

pub use archive::{Archive, Entry, EntryKind};
pub use compress::{compress, decompress, Codec, CodecError};
