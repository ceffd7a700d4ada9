//! Seekable, indexed single-file images — the lazy-pull variant of
//! [`crate::squash`] (eStargz/SOCI-style, the §7 outlook).
//!
//! The classic squash image is one opaque blob: the index and every
//! compressed file block travel together, so nothing is usable until the
//! whole blob has been transferred. This module splits that format into
//!
//! * a **manifest-first index** ([`SeekableIndex`]) — the complete
//!   metadata tree plus, per file, an ordered list of [`ChunkRef`]s; it
//!   parses standalone, so a container can launch as soon as this small
//!   blob is resident, and
//! * **content-addressed chunk ranges** — each file is split into
//!   fixed-size ranges of its *original* bytes and every range is
//!   compressed independently, so a reader can fault in exactly the
//!   ranges it touches. Chunks are addressed by the digest of their
//!   compressed bytes and dedup across files and images for free.
//!
//! The index carries both stored and original lengths per chunk, which is
//! what lets the FUSE cost model charge real IO/decompress costs for a
//! partial read without the bytes being local yet.

use crate::fs::{FileType, MemFs, Meta};
use crate::path::VPath;
use crate::squash::SquashError;
use hpcc_codec::compress::{compress_blocks, decompress, Codec, CodecError};
use hpcc_codec::wire::{put_str, put_varint, Reader};
use hpcc_crypto::sha256::{sha256, Digest};
use std::collections::BTreeMap;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"HSKI";
/// Fewest bytes a serialized [`ChunkRef`] takes: its digest plus two
/// one-byte varints. An untrusted chunk count reserves no more refs than
/// the rest of the input could hold.
const CHUNK_REF_MIN_LEN: usize = 32 + 1 + 1;

/// Chunk granularity used when callers have no reason to pick another:
/// large enough that the index stays small next to the data, small enough
/// that a first touch of a big file moves kilobytes, not the whole file.
pub const DEFAULT_CHUNK_SIZE: u64 = 256 * 1024;

/// One content-addressed range of a file's bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkRef {
    /// Digest of the *compressed* chunk bytes (the fetchable blob).
    pub digest: Digest,
    /// Compressed (stored/transfer) length.
    pub stored_len: u64,
    /// Original length of the range this chunk decompresses to.
    pub orig_len: u64,
}

/// Index record for one entry in a seekable image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeekableEntry {
    File {
        meta: Meta,
        /// Original (uncompressed) file length — the sum of the chunks'
        /// `orig_len`s, kept explicit so metadata answers need no chunks.
        orig_len: u64,
        /// The file's ranges in offset order.
        chunks: Vec<ChunkRef>,
    },
    Dir {
        meta: Meta,
    },
    Symlink {
        meta: Meta,
        target: String,
    },
}

/// The manifest-first index of a seekable image: the full metadata tree
/// plus per-file chunk tables, serializable standalone.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SeekableIndex {
    /// The chunking granularity the image was built with (original bytes
    /// per chunk; the last chunk of a file may be shorter).
    pub chunk_size: u64,
    /// Paths are image-relative strings without a leading slash, sorted.
    entries: BTreeMap<String, SeekableEntry>,
}

/// One stored chunk ready for a registry or blob store: the digest of
/// the compressed bytes and the bytes themselves.
pub type ChunkBlob = (Digest, Arc<Vec<u8>>);

impl SeekableIndex {
    /// Chunk and compress the subtree of `fs` at `root`. Returns the
    /// index plus the deduplicated compressed chunks in first-appearance
    /// order (ready to be pushed to a registry or blob store).
    pub fn build(
        fs: &MemFs,
        root: &VPath,
        codec: Codec,
        chunk_size: u64,
    ) -> Result<(SeekableIndex, Vec<ChunkBlob>), SquashError> {
        let chunk_size = chunk_size.max(1);
        // Walk first; every range of every file is an independent block,
        // compressed side by side before digests and dedup are assigned
        // in walk order.
        let mut walked = Vec::new();
        for p in fs.walk(root)? {
            let st = fs.lstat(&p)?;
            let data = match st.kind {
                FileType::File => Some(fs.read(&p)?),
                _ => None,
            };
            walked.push((p, st, data));
        }
        let ranges: Vec<&[u8]> = walked
            .iter()
            .filter_map(|(_, _, data)| data.as_ref())
            .flat_map(|data| data.chunks(chunk_size as usize))
            .collect();
        let mut stored = ranges.iter().zip(compress_blocks(codec, &ranges));

        let mut entries = BTreeMap::new();
        let mut chunks: Vec<ChunkBlob> = Vec::new();
        let mut seen: BTreeMap<Digest, ()> = BTreeMap::new();
        for (p, st, data) in &walked {
            let rel = p
                .rebase(root, &VPath::root())
                .expect("walked path under root")
                .to_string()
                .trim_start_matches('/')
                .to_string();
            let entry = match st.kind {
                FileType::File => {
                    let data = data.as_ref().expect("file was read");
                    let refs = stored
                        .by_ref()
                        .take(data.len().div_ceil(chunk_size as usize))
                        .map(|(range, stored)| {
                            let chunk = ChunkRef {
                                digest: sha256(&stored),
                                stored_len: stored.len() as u64,
                                orig_len: range.len() as u64,
                            };
                            if seen.insert(chunk.digest, ()).is_none() {
                                chunks.push((chunk.digest, Arc::new(stored)));
                            }
                            chunk
                        })
                        .collect();
                    SeekableEntry::File {
                        meta: st.meta,
                        orig_len: data.len() as u64,
                        chunks: refs,
                    }
                }
                FileType::Dir => SeekableEntry::Dir { meta: st.meta },
                FileType::Symlink => SeekableEntry::Symlink {
                    meta: st.meta,
                    target: fs.readlink(p)?,
                },
            };
            entries.insert(rel, entry);
        }
        Ok((
            SeekableIndex {
                chunk_size,
                entries,
            },
            chunks,
        ))
    }

    /// Serialize the index (the manifest-first blob a lazy pull fetches
    /// eagerly).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        put_varint(&mut out, self.chunk_size);
        put_varint(&mut out, self.entries.len() as u64);
        for (path, entry) in &self.entries {
            put_str(&mut out, path);
            match entry {
                SeekableEntry::File {
                    meta,
                    orig_len,
                    chunks,
                } => {
                    out.push(0);
                    put_meta(&mut out, meta);
                    put_varint(&mut out, *orig_len);
                    put_varint(&mut out, chunks.len() as u64);
                    for c in chunks {
                        out.extend_from_slice(&c.digest.0);
                        put_varint(&mut out, c.stored_len);
                        put_varint(&mut out, c.orig_len);
                    }
                }
                SeekableEntry::Dir { meta } => {
                    out.push(1);
                    put_meta(&mut out, meta);
                }
                SeekableEntry::Symlink { meta, target } => {
                    out.push(2);
                    put_meta(&mut out, meta);
                    put_str(&mut out, target);
                }
            }
        }
        out
    }

    /// Parse an index from its serialized bytes.
    pub fn from_bytes(data: &[u8]) -> Result<SeekableIndex, SquashError> {
        let mut r = Reader::new(data);
        if r.take(4)? != MAGIC {
            return Err(SquashError::BadMagic);
        }
        let chunk_size = r.varint()?;
        let n = r.varint()? as usize;
        let mut entries = BTreeMap::new();
        for _ in 0..n {
            let path = r.str()?.to_string();
            let kind = r.u8()?;
            let meta = read_meta(&mut r)?;
            let entry = match kind {
                0 => {
                    let orig_len = r.varint()?;
                    let count = r.varint()? as usize;
                    let mut chunks =
                        Vec::with_capacity(count.min(r.remaining() / CHUNK_REF_MIN_LEN));
                    for _ in 0..count {
                        let mut digest = [0u8; 32];
                        digest.copy_from_slice(r.take(32)?);
                        chunks.push(ChunkRef {
                            digest: Digest(digest),
                            stored_len: r.varint()?,
                            orig_len: r.varint()?,
                        });
                    }
                    SeekableEntry::File {
                        meta,
                        orig_len,
                        chunks,
                    }
                }
                1 => SeekableEntry::Dir { meta },
                2 => SeekableEntry::Symlink {
                    meta,
                    target: r.str()?.to_string(),
                },
                t => return Err(SquashError::BadKind(t)),
            };
            entries.insert(path, entry);
        }
        Ok(SeekableIndex {
            chunk_size,
            entries,
        })
    }

    /// Content digest of the serialized index — the image reference a
    /// lazy pull starts from.
    pub fn digest(&self) -> Digest {
        sha256(&self.to_bytes())
    }

    /// Number of index entries.
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// All paths in the image, sorted.
    pub fn paths(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }

    /// All file paths (entries with content), sorted.
    pub fn file_paths(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().filter_map(|(p, e)| match e {
            SeekableEntry::File { .. } => Some(p.as_str()),
            _ => None,
        })
    }

    /// Look up an entry (no symlink following).
    pub fn entry(&self, path: &str) -> Option<&SeekableEntry> {
        self.entries.get(path)
    }

    /// Sum of original (uncompressed) file sizes.
    pub fn total_orig_bytes(&self) -> u64 {
        self.entries
            .values()
            .map(|e| match e {
                SeekableEntry::File { orig_len, .. } => *orig_len,
                _ => 0,
            })
            .sum()
    }

    /// Sum of stored (compressed) chunk sizes, counting shared chunks
    /// once per reference (transfer cost of a full eager materialize
    /// with a cold chunk cache).
    pub fn total_stored_bytes(&self) -> u64 {
        self.entries
            .values()
            .map(|e| match e {
                SeekableEntry::File { chunks, .. } => {
                    chunks.iter().map(|c| c.stored_len).sum::<u64>()
                }
                _ => 0,
            })
            .sum()
    }

    /// The distinct chunk digests the image references, sorted.
    pub fn distinct_chunks(&self) -> Vec<Digest> {
        let mut set: BTreeMap<Digest, ()> = BTreeMap::new();
        for e in self.entries.values() {
            if let SeekableEntry::File { chunks, .. } = e {
                for c in chunks {
                    set.insert(c.digest, ());
                }
            }
        }
        set.into_keys().collect()
    }

    /// Resolve symlinks within the image to a final entry path.
    pub fn resolve(&self, path: &str) -> Result<String, SquashError> {
        let mut current = path.to_string();
        for _ in 0..40 {
            match self.entries.get(&current) {
                Some(SeekableEntry::Symlink { target, .. }) => {
                    let dir = VPath::parse(&current).parent().unwrap_or_else(VPath::root);
                    current = dir
                        .join(target)
                        .to_string()
                        .trim_start_matches('/')
                        .to_string();
                }
                Some(_) => return Ok(current),
                None => return Err(SquashError::NotFound(path.to_string())),
            }
        }
        Err(SquashError::SymlinkLoop(path.to_string()))
    }

    /// The chunk table of one file, following symlinks. Returns the
    /// resolved entry's `(orig_len, chunks)`.
    pub fn file_chunks(&self, path: &str) -> Result<(u64, &[ChunkRef]), SquashError> {
        let real = self.resolve(path)?;
        match self.entries.get(&real) {
            Some(SeekableEntry::File {
                orig_len, chunks, ..
            }) => Ok((*orig_len, chunks.as_slice())),
            Some(_) => Err(SquashError::NotAFile(path.to_string())),
            None => Err(SquashError::NotFound(path.to_string())),
        }
    }

    /// Reassemble one file from its fetched compressed chunks (in the
    /// index's range order).
    pub fn assemble_file(
        &self,
        path: &str,
        mut fetch: impl FnMut(&Digest) -> Option<Arc<Vec<u8>>>,
    ) -> Result<Vec<u8>, SquashError> {
        let (orig_len, chunks) = self.file_chunks(path)?;
        let mut out = Vec::new();
        for c in chunks {
            let stored = fetch(&c.digest).ok_or(SquashError::Codec(CodecError::Corrupt(
                "chunk not resident",
            )))?;
            let plain = decompress(&stored)?;
            if out.is_empty() {
                // The index's `orig_len` is a claim; reserve only what the
                // decompressed chunks could really add up to.
                let bound = plain.len().saturating_mul(chunks.len());
                out.reserve_exact(bound.min(usize::try_from(orig_len).unwrap_or(usize::MAX)));
            }
            out.extend_from_slice(&plain);
        }
        if out.len() as u64 != orig_len {
            return Err(SquashError::Codec(CodecError::Corrupt(
                "reassembled length mismatch",
            )));
        }
        Ok(out)
    }

    /// Materialize the whole image into a fresh filesystem from a chunk
    /// source — the eager endpoint a fully-touched lazy image converges
    /// to (byte-identical to [`crate::squash::SquashImage::unpack`] of an
    /// image built from the same tree).
    pub fn materialize(
        &self,
        mut fetch: impl FnMut(&Digest) -> Option<Arc<Vec<u8>>>,
    ) -> Result<MemFs, SquashError> {
        let mut fs = MemFs::new();
        for (path, entry) in &self.entries {
            let at = VPath::root().join(path);
            if let Some(parent) = at.parent() {
                fs.mkdir_p(&parent)?;
            }
            match entry {
                SeekableEntry::Dir { meta } => {
                    if !fs.exists(&at) {
                        fs.mkdir(&at, *meta)?;
                    }
                }
                SeekableEntry::File { meta, .. } => {
                    let data = self.assemble_file(path, &mut fetch)?;
                    fs.write(&at, data, *meta)?;
                }
                SeekableEntry::Symlink { target, .. } => {
                    fs.symlink(&at, target)?;
                }
            }
        }
        Ok(fs)
    }
}

fn put_meta(out: &mut Vec<u8>, meta: &Meta) {
    put_varint(out, meta.mode as u64);
    put_varint(out, meta.uid as u64);
    put_varint(out, meta.gid as u64);
}

fn read_meta(r: &mut Reader<'_>) -> Result<Meta, SquashError> {
    Ok(Meta {
        mode: r.varint()? as u32,
        uid: r.varint()? as u32,
        gid: r.varint()? as u32,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn p(s: &str) -> VPath {
        VPath::parse(s)
    }

    fn sample_fs() -> MemFs {
        let mut fs = MemFs::new();
        fs.write_p(&p("/usr/lib/libbig.so"), vec![b'L'; 700_000])
            .unwrap();
        fs.write_p(&p("/usr/bin/tool"), vec![b't'; 2048]).unwrap();
        fs.symlink(&p("/usr/bin/tool-latest"), "tool").unwrap();
        fs.write_p(&p("/etc/conf"), b"key=value\n".repeat(100))
            .unwrap();
        fs.write_p(&p("/etc/empty"), Vec::new()).unwrap();
        fs.chmod(&p("/usr/bin/tool"), 0o755).unwrap();
        fs
    }

    fn built() -> (SeekableIndex, HashMap<Digest, Arc<Vec<u8>>>) {
        let (index, chunks) =
            SeekableIndex::build(&sample_fs(), &VPath::root(), Codec::Lz, DEFAULT_CHUNK_SIZE)
                .unwrap();
        (index, chunks.into_iter().collect())
    }

    #[test]
    fn build_is_one_compress_per_range_in_walk_order() {
        // The builder as first written — one `compress` at a time, dedup
        // by first appearance — is the reference: however many threads
        // compressed the ranges, index and chunk list must equal it.
        let mut fs = sample_fs();
        fs.write_p(&p("/usr/lib/libcopy.so"), vec![b'L'; 700_000])
            .unwrap();
        let text: Vec<u8> = (0..400_000u32)
            .map(|i| b"etaoinsh"[(i.wrapping_mul(2_654_435_761) >> 29) as usize])
            .collect();
        fs.write_p(&p("/opt/text"), text).unwrap();
        for chunk_size in [DEFAULT_CHUNK_SIZE, 4096] {
            let (index, chunks) =
                SeekableIndex::build(&fs, &VPath::root(), Codec::Lz, chunk_size).unwrap();
            let mut want: Vec<ChunkBlob> = Vec::new();
            for path in fs.walk(&VPath::root()).unwrap() {
                if fs.lstat(&path).unwrap().kind != FileType::File {
                    continue;
                }
                let rel = path.to_string();
                let (_, refs) = index.file_chunks(rel.trim_start_matches('/')).unwrap();
                let data = fs.read(&path).unwrap();
                assert_eq!(refs.len(), data.chunks(chunk_size as usize).len());
                for (range, r) in data.chunks(chunk_size as usize).zip(refs) {
                    let stored = hpcc_codec::compress::compress(Codec::Lz, range);
                    let digest = sha256(&stored);
                    assert_eq!(
                        *r,
                        ChunkRef {
                            digest,
                            stored_len: stored.len() as u64,
                            orig_len: range.len() as u64,
                        }
                    );
                    if want.iter().all(|(d, _)| *d != digest) {
                        want.push((digest, Arc::new(stored)));
                    }
                }
            }
            assert!(
                chunks == want,
                "chunk list differs at chunk size {chunk_size}"
            );
        }
        // Captured before ranges were compressed in parallel and before
        // the encoder was rewritten: published indexes must not move.
        let (index, _) =
            SeekableIndex::build(&fs, &VPath::root(), Codec::Lz, DEFAULT_CHUNK_SIZE).unwrap();
        assert_eq!(
            index.digest().to_string(),
            "sha256:113a967bf2f3c6118e4301782edc757180b66f9f493d9273a4250fe3e80d1b4d"
        );
    }

    #[test]
    fn large_files_split_into_ranged_chunks() {
        let (index, _) = built();
        let (orig, chunks) = index.file_chunks("usr/lib/libbig.so").unwrap();
        assert_eq!(orig, 700_000);
        assert_eq!(chunks.len(), 3, "700000 B / 256 KiB chunks");
        assert_eq!(chunks[0].orig_len, DEFAULT_CHUNK_SIZE);
        assert_eq!(chunks[2].orig_len, 700_000 - 2 * DEFAULT_CHUNK_SIZE);
        assert_eq!(chunks.iter().map(|c| c.orig_len).sum::<u64>(), orig);
    }

    #[test]
    fn index_roundtrips_standalone() {
        let (index, _) = built();
        let parsed = SeekableIndex::from_bytes(&index.to_bytes()).unwrap();
        assert_eq!(parsed, index);
        assert_eq!(parsed.digest(), index.digest());
        assert_eq!(parsed.chunk_size, DEFAULT_CHUNK_SIZE);
    }

    #[test]
    fn assemble_restores_file_bytes() {
        let (index, chunks) = built();
        let data = index
            .assemble_file("usr/lib/libbig.so", |d| chunks.get(d).cloned())
            .unwrap();
        assert_eq!(data, vec![b'L'; 700_000]);
    }

    #[test]
    fn symlinks_resolve_to_chunks() {
        let (index, chunks) = built();
        let data = index
            .assemble_file("usr/bin/tool-latest", |d| chunks.get(d).cloned())
            .unwrap();
        assert_eq!(data, vec![b't'; 2048]);
    }

    #[test]
    fn materialize_matches_source_tree() {
        let fs = sample_fs();
        let (index, chunks) =
            SeekableIndex::build(&fs, &VPath::root(), Codec::Lz, DEFAULT_CHUNK_SIZE).unwrap();
        let by_digest: HashMap<Digest, Arc<Vec<u8>>> = chunks.into_iter().collect();
        let restored = index.materialize(|d| by_digest.get(d).cloned()).unwrap();
        assert_eq!(
            restored.tree_digest(&VPath::root()).unwrap(),
            fs.tree_digest(&VPath::root()).unwrap()
        );
    }

    #[test]
    fn identical_ranges_dedup_to_one_chunk() {
        let mut fs = MemFs::new();
        for i in 0..6 {
            fs.write_p(&p(&format!("/data/f{i}")), vec![9u8; 4096])
                .unwrap();
        }
        let (index, chunks) =
            SeekableIndex::build(&fs, &VPath::root(), Codec::Lz, DEFAULT_CHUNK_SIZE).unwrap();
        assert_eq!(chunks.len(), 1, "identical contents share one chunk");
        assert_eq!(index.distinct_chunks().len(), 1);
        assert!(index.total_stored_bytes() > chunks[0].1.len() as u64);
    }

    #[test]
    fn missing_chunk_is_an_error_not_garbage() {
        let (index, _) = built();
        assert!(matches!(
            index.assemble_file("etc/conf", |_| None),
            Err(SquashError::Codec(_))
        ));
    }

    #[test]
    fn missing_and_non_file_paths_error() {
        let (index, chunks) = built();
        assert!(matches!(
            index.file_chunks("nope"),
            Err(SquashError::NotFound(_))
        ));
        assert!(matches!(
            index.file_chunks("usr"),
            Err(SquashError::NotAFile(_))
        ));
        assert!(index
            .assemble_file("etc/empty", |d| chunks.get(d).cloned())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn corrupt_magic_rejected() {
        let (index, _) = built();
        let mut bytes = index.to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            SeekableIndex::from_bytes(&bytes),
            Err(SquashError::BadMagic)
        ));
    }

    #[test]
    fn index_is_small_next_to_the_data() {
        let (index, _) = built();
        assert!(
            (index.to_bytes().len() as u64) < index.total_stored_bytes() / 4,
            "index {} B vs stored {} B",
            index.to_bytes().len(),
            index.total_stored_bytes()
        );
    }

    #[test]
    fn subtree_images_are_relative() {
        let fs = sample_fs();
        let (index, _) =
            SeekableIndex::build(&fs, &p("/usr"), Codec::Store, DEFAULT_CHUNK_SIZE).unwrap();
        assert!(index.entry("bin/tool").is_some());
        assert!(index.entry("usr/bin/tool").is_none());
    }

    /// A one-file index whose header declares `orig_len` bytes in `count`
    /// chunks, followed by `tail`.
    fn lying_index(orig_len: u64, count: u64, tail: &[u8]) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        for v in [DEFAULT_CHUNK_SIZE, 1] {
            put_varint(&mut out, v);
        }
        put_str(&mut out, "f");
        out.push(0);
        for v in [0o644, 0, 0, orig_len, count] {
            put_varint(&mut out, v);
        }
        out.extend_from_slice(tail);
        out
    }

    /// Regression: a 2^40 chunk count in a 22-byte index reserved 48 TiB
    /// before reading one chunk, and the process died on the failed
    /// allocation (SIGABRT, which no `catch_unwind` stops).
    #[test]
    fn from_bytes_caps_the_chunk_reservation_by_its_input() {
        let data = lying_index(0, 1 << 40, &[]);
        assert_eq!(data.len(), 22);
        assert!(SeekableIndex::from_bytes(&data).is_err());
    }

    /// Regression: `assemble_file` reserved the index's declared length
    /// before decompressing a single chunk.
    #[test]
    fn assemble_file_reserves_nothing_a_lying_index_declares() {
        let chunk = hpcc_codec::compress::compress(Codec::Lz, b"abc");
        let mut tail = sha256(&chunk).0.to_vec();
        put_varint(&mut tail, chunk.len() as u64);
        put_varint(&mut tail, 3);
        let index = SeekableIndex::from_bytes(&lying_index(1 << 50, 1, &tail)).unwrap();
        let chunk = Arc::new(chunk);
        assert_eq!(
            index.assemble_file("f", |_| Some(Arc::clone(&chunk))),
            Err(SquashError::Codec(CodecError::Corrupt(
                "reassembled length mismatch"
            )))
        );
    }

    proptest::proptest! {
        /// Structure-aware garbage: valid magic and header varints, one
        /// file entry with arbitrary declared lengths, then arbitrary
        /// bytes. Parsing, and assembling whatever parses, must return,
        /// never panic or abort.
        #[test]
        fn from_bytes_never_panics_on_garbage(
            orig_len in proptest::prelude::any::<u64>(),
            count in proptest::prop_oneof![
                0u64..3,
                (1u64 << 36)..(1u64 << 56),
                proptest::prelude::any::<u64>()
            ],
            tail in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..160),
        ) {
            if let Ok(index) = SeekableIndex::from_bytes(&lying_index(orig_len, count, &tail)) {
                let chunk = Arc::new(hpcc_codec::compress::compress(Codec::Lz, &tail));
                let _ = index.assemble_file("f", |_| Some(Arc::clone(&chunk)));
            }
        }
    }
}
