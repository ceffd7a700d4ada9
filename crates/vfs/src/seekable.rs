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

use crate::fs::{MemFs, Meta};
use crate::path::VPath;
use crate::squash::{
    corrupt, put_entry_head, read_meta, resolve_in_image, walk_image, SquashError,
};
use hpcc_codec::compress::{compress_blocks, decompress, Codec};
use hpcc_codec::wire::{put_str, put_varint, Reader};
use hpcc_crypto::sha256::{sha256, Digest};
use std::collections::HashSet;
use std::ops::Range;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"HSKI";
/// Fewest bytes a serialized [`ChunkRef`] (digest, two varints) and a
/// serialized entry (path length, kind, three meta varints) take: an
/// untrusted count reserves no more than the rest of the input could hold.
const CHUNK_REF_MIN_LEN: usize = 32 + 1 + 1;
const ENTRY_MIN_LEN: usize = 1 + 1 + 3;

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

/// One entry of a seekable image, borrowed from its index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeekableEntry<'a> {
    File {
        meta: Meta,
        /// Original (uncompressed) file length — the sum of the chunks'
        /// `orig_len`s, kept explicit so metadata answers need no chunks.
        orig_len: u64,
        /// The file's ranges in offset order.
        chunks: &'a [ChunkRef],
    },
    Dir {
        meta: Meta,
    },
    Symlink {
        meta: Meta,
        target: &'a str,
    },
}

/// The manifest-first index of a seekable image: its encoding plus a flat
/// table over it. Paths are image-relative, without a leading slash, and
/// strictly ascending in byte order — the parse rejects anything else, so
/// a lookup is a binary search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeekableIndex {
    /// The encoding itself, which `to_bytes` copies and `digest` hashes.
    bytes: Arc<Vec<u8>>,
    /// Original bytes per chunk (a file's last chunk may be shorter).
    chunk_size: u64,
    /// One row per entry, in encoding order.
    rows: Vec<Row>,
    /// Every file's chunk refs, back to back in row order.
    chunks: Vec<ChunkRef>,
}

/// One entry: its path as a range of the encoding, its metadata and kind
/// byte (0 file, 1 dir, 2 symlink), and in `span` a file's range of
/// [`SeekableIndex::chunks`] or a symlink's target range of the encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Row {
    path: Range<usize>,
    meta: Meta,
    kind: u8,
    orig_len: u64,
    span: Range<usize>,
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
        // Walk in path order; every range of every file is an independent
        // block, compressed side by side before digests and dedup follow.
        let mut walked = walk_image(fs, root)?;
        walked.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let ranges: Vec<&[u8]> = walked
            .iter()
            .filter_map(|(_, _, data, _)| data.as_ref())
            .flat_map(|data| data.chunks(chunk_size as usize))
            .collect();
        let mut stored = ranges.iter().zip(compress_blocks(codec, &ranges));

        let mut chunks: Vec<ChunkBlob> = Vec::new();
        let mut seen = HashSet::new();
        let mut out = MAGIC.to_vec();
        put_varint(&mut out, chunk_size);
        put_varint(&mut out, walked.len() as u64);
        for entry in &walked {
            put_entry_head(&mut out, entry);
            if let (_, _, Some(data), _) = entry {
                let count = data.len().div_ceil(chunk_size as usize);
                put_varint(&mut out, data.len() as u64);
                put_varint(&mut out, count as u64);
                for (range, stored) in stored.by_ref().take(count) {
                    let digest = sha256(&stored);
                    out.extend_from_slice(&digest.0);
                    put_varint(&mut out, stored.len() as u64);
                    put_varint(&mut out, range.len() as u64);
                    if seen.insert(digest) {
                        chunks.push((digest, Arc::new(stored)));
                    }
                }
            }
            if let (_, _, _, Some(target)) = entry {
                put_str(&mut out, target);
            }
        }
        Ok((SeekableIndex::from_shared(Arc::new(out))?, chunks))
    }

    /// Parse an index from a copy of its serialized bytes.
    pub fn from_bytes(data: &[u8]) -> Result<SeekableIndex, SquashError> {
        SeekableIndex::from_shared(Arc::new(data.to_vec()))
    }

    /// Parse an index, keeping `bytes` as its encoding. One validating
    /// pass: besides malformed fields it rejects what the encoder never
    /// writes (paths out of order or repeated, bytes after the last
    /// entry), and caps every reservation by the input left.
    pub fn from_shared(bytes: Arc<Vec<u8>>) -> Result<SeekableIndex, SquashError> {
        let data = bytes.as_slice();
        let mut r = Reader::new(data);
        // The range of the `len` bytes just read.
        let span = |r: &Reader<'_>, len: usize| {
            let end = data.len() - r.remaining();
            end - len..end
        };
        if r.take(4)? != MAGIC {
            return Err(SquashError::BadMagic);
        }
        let chunk_size = r.varint()?;
        let n = r.varint()?;
        let cap = usize::try_from(n).unwrap_or(usize::MAX);
        let mut rows: Vec<Row> = Vec::with_capacity(cap.min(r.remaining() / ENTRY_MIN_LEN));
        let mut chunks = Vec::with_capacity(cap.min(r.remaining() / CHUNK_REF_MIN_LEN));
        for _ in 0..n {
            let len = r.str()?.len();
            let path = span(&r, len);
            let key = &data[path.clone()];
            if rows.last().is_some_and(|p| &data[p.path.clone()] >= key) {
                return Err(corrupt("index paths not strictly ascending"));
            }
            let kind = r.u8()?;
            let meta = read_meta(&mut r)?;
            let (mut orig_len, start) = (0, chunks.len());
            let span = match kind {
                0 => {
                    orig_len = r.varint()?;
                    for _ in 0..r.varint()? {
                        let mut digest = [0u8; 32];
                        digest.copy_from_slice(r.take(32)?);
                        chunks.push(ChunkRef {
                            digest: Digest(digest),
                            stored_len: r.varint()?,
                            orig_len: r.varint()?,
                        });
                    }
                    start..chunks.len()
                }
                1 => 0..0,
                2 => {
                    let len = r.str()?.len();
                    span(&r, len)
                }
                t => return Err(SquashError::BadKind(t)),
            };
            rows.push(Row {
                path,
                meta,
                kind,
                orig_len,
                span,
            });
        }
        if !r.is_empty() {
            return Err(corrupt("trailing bytes after index"));
        }
        Ok(SeekableIndex {
            bytes,
            chunk_size,
            rows,
            chunks,
        })
    }

    /// The serialized index: the manifest-first blob a lazy pull fetches.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.bytes.as_ref().clone()
    }

    /// Digest of the serialized index: the reference a lazy pull starts at.
    pub fn digest(&self) -> Digest {
        sha256(&self.bytes)
    }

    /// Number of index entries.
    pub fn entry_count(&self) -> usize {
        self.rows.len()
    }

    /// A range of the encoding the parse checked to be UTF-8.
    fn text(&self, range: &Range<usize>) -> &str {
        std::str::from_utf8(&self.bytes[range.clone()]).expect("validated by the parse")
    }

    fn view(&self, row: &Row) -> SeekableEntry<'_> {
        let meta = row.meta;
        match row.kind {
            0 => SeekableEntry::File {
                meta,
                orig_len: row.orig_len,
                chunks: &self.chunks[row.span.clone()],
            },
            1 => SeekableEntry::Dir { meta },
            _ => SeekableEntry::Symlink {
                meta,
                target: self.text(&row.span),
            },
        }
    }

    /// All paths in the image, sorted.
    pub fn paths(&self) -> impl Iterator<Item = &str> {
        self.rows.iter().map(|row| self.text(&row.path))
    }

    /// All file paths (entries with content), sorted.
    pub fn file_paths(&self) -> impl Iterator<Item = &str> {
        let files = self.rows.iter().filter(|row| row.kind == 0);
        files.map(|row| self.text(&row.path))
    }

    fn row(&self, path: &str) -> Option<&Row> {
        let at = self
            .rows
            .binary_search_by(|row| self.bytes[row.path.clone()].cmp(path.as_bytes()));
        at.ok().map(|at| &self.rows[at])
    }

    /// Look up an entry (no symlink following).
    pub fn entry(&self, path: &str) -> Option<SeekableEntry<'_>> {
        self.row(path).map(|row| self.view(row))
    }

    /// Sum of original (uncompressed) file sizes.
    pub fn total_orig_bytes(&self) -> u64 {
        self.rows.iter().map(|row| row.orig_len).sum()
    }

    /// Sum of stored (compressed) chunk sizes, counting shared chunks
    /// once per reference (transfer cost of a full eager materialize
    /// with a cold chunk cache).
    pub fn total_stored_bytes(&self) -> u64 {
        self.chunks.iter().map(|c| c.stored_len).sum()
    }

    /// The distinct chunk digests the image references, sorted.
    pub fn distinct_chunks(&self) -> Vec<Digest> {
        let mut digests: Vec<Digest> = self.chunks.iter().map(|c| c.digest).collect();
        digests.sort_unstable();
        digests.dedup();
        digests
    }

    /// The entry `path` ends at, symlinks followed, and its path.
    fn resolve_entry(&self, path: &str) -> Result<(&str, SeekableEntry<'_>), SquashError> {
        let row = resolve_in_image(
            path,
            |p| self.row(p),
            |row| match self.view(row) {
                SeekableEntry::Symlink { target, .. } => Some(target),
                _ => None,
            },
        )?;
        Ok((self.text(&row.path), self.view(row)))
    }

    /// Resolve symlinks within the image to a final entry path.
    pub fn resolve(&self, path: &str) -> Result<&str, SquashError> {
        Ok(self.resolve_entry(path)?.0)
    }

    /// The chunk table of one file, following symlinks. Returns the
    /// resolved entry's `(orig_len, chunks)`.
    pub fn file_chunks(&self, path: &str) -> Result<(u64, &[ChunkRef]), SquashError> {
        match self.resolve_entry(path)?.1 {
            SeekableEntry::File {
                orig_len, chunks, ..
            } => Ok((orig_len, chunks)),
            _ => Err(SquashError::NotAFile(path.to_string())),
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
            let stored = fetch(&c.digest).ok_or(corrupt("chunk not resident"))?;
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
            return Err(corrupt("reassembled length mismatch"));
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
        for (row, path) in self.rows.iter().zip(self.paths()) {
            let at = VPath::root().join(path);
            if let Some(parent) = at.parent() {
                fs.mkdir_p(&parent)?;
            }
            match self.view(row) {
                SeekableEntry::Dir { meta } => {
                    if !fs.exists(&at) {
                        fs.mkdir(&at, meta)?;
                    }
                }
                SeekableEntry::File { meta, .. } => {
                    let data = self.assemble_file(path, &mut fetch)?;
                    fs.write(&at, data, meta)?;
                }
                SeekableEntry::Symlink { target, .. } => {
                    fs.symlink(&at, target)?;
                }
            }
        }
        Ok(fs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::FileType;
    use crate::squash::SquashImage;
    use hpcc_codec::compress::CodecError;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, HashMap};

    /// An entry of the reference parser's map: the index before it became
    /// a flat table over its own bytes.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum OwnedEntry {
        File {
            meta: Meta,
            orig_len: u64,
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

    impl From<SeekableEntry<'_>> for OwnedEntry {
        fn from(e: SeekableEntry<'_>) -> OwnedEntry {
            match e {
                SeekableEntry::File {
                    meta,
                    orig_len,
                    chunks,
                } => OwnedEntry::File {
                    meta,
                    orig_len,
                    chunks: chunks.to_vec(),
                },
                SeekableEntry::Dir { meta } => OwnedEntry::Dir { meta },
                SeekableEntry::Symlink { meta, target } => OwnedEntry::Symlink {
                    meta,
                    target: target.to_string(),
                },
            }
        }
    }

    type Reference = (u64, BTreeMap<String, OwnedEntry>);

    fn put_meta(out: &mut Vec<u8>, meta: &Meta) {
        for v in [meta.mode, meta.uid, meta.gid] {
            put_varint(out, v as u64);
        }
    }

    /// The encoder as it stood over a `BTreeMap`: sorted, unique paths by
    /// construction.
    fn to_bytes_reference((chunk_size, entries): &Reference) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        put_varint(&mut out, *chunk_size);
        put_varint(&mut out, entries.len() as u64);
        for (path, entry) in entries {
            put_str(&mut out, path);
            match entry {
                OwnedEntry::File {
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
                OwnedEntry::Dir { meta } => {
                    out.push(1);
                    put_meta(&mut out, meta);
                }
                OwnedEntry::Symlink { meta, target } => {
                    out.push(2);
                    put_meta(&mut out, meta);
                    put_str(&mut out, target);
                }
            }
        }
        out
    }

    /// The parser as it stood: one `String` and one chunk `Vec` per entry
    /// into a `BTreeMap`, where a repeated path replaced its predecessor
    /// and trailing bytes went unread.
    fn from_bytes_reference(data: &[u8]) -> Result<Reference, SquashError> {
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
                    OwnedEntry::File {
                        meta,
                        orig_len,
                        chunks,
                    }
                }
                1 => OwnedEntry::Dir { meta },
                2 => OwnedEntry::Symlink {
                    meta,
                    target: r.str()?.to_string(),
                },
                t => return Err(SquashError::BadKind(t)),
            };
            entries.insert(path, entry);
        }
        Ok((chunk_size, entries))
    }

    /// The reference's answer to `resolve`, through the same helper.
    fn resolve_reference<'a>(
        entries: &'a BTreeMap<String, OwnedEntry>,
        path: &str,
    ) -> Result<&'a str, SquashError> {
        let (real, _) = resolve_in_image(
            path,
            |p| entries.get_key_value(p),
            |(_, e)| match e {
                OwnedEntry::Symlink { target, .. } => Some(target.as_str()),
                _ => None,
            },
        )?;
        Ok(real.as_str())
    }

    /// The flat table answers every query the way the reference map does.
    fn assert_agrees(index: &SeekableIndex, (chunk_size, entries): &Reference, probes: &[&str]) {
        assert_eq!(index.chunk_size, *chunk_size);
        assert_eq!(index.entry_count(), entries.len());
        assert!(index.paths().eq(entries.keys().map(String::as_str)));
        let files = entries
            .iter()
            .filter(|(_, e)| matches!(e, OwnedEntry::File { .. }));
        assert!(index.file_paths().eq(files.map(|(p, _)| p.as_str())));
        for path in entries
            .keys()
            .map(String::as_str)
            .chain(probes.iter().copied())
        {
            assert_eq!(
                index.entry(path).map(OwnedEntry::from).as_ref(),
                entries.get(path),
                "{path}"
            );
            let resolved = index.resolve(path);
            assert_eq!(resolved, resolve_reference(entries, path), "{path}");
            let want = resolved.map(|real| match &entries[real] {
                OwnedEntry::File {
                    orig_len, chunks, ..
                } => Some((*orig_len, chunks.as_slice())),
                _ => None,
            });
            match (index.file_chunks(path), want) {
                (Ok(got), Ok(Some(want))) => assert_eq!(got, want, "{path}"),
                (Err(SquashError::NotAFile(_)), Ok(None)) => {}
                (Err(got), Err(want)) => assert_eq!(got, want, "{path}"),
                (got, want) => panic!("{path}: {got:?} against {want:?}"),
            }
        }
    }

    /// The totals agree too (on inputs whose sums fit in a u64).
    fn assert_totals_agree(index: &SeekableIndex, (_, entries): &Reference) {
        let refs = || {
            entries.values().filter_map(|e| match e {
                OwnedEntry::File {
                    orig_len, chunks, ..
                } => Some((*orig_len, chunks)),
                _ => None,
            })
        };
        assert_eq!(index.total_orig_bytes(), refs().map(|(len, _)| len).sum());
        let stored = refs().flat_map(|(_, c)| c).map(|c| c.stored_len).sum();
        assert_eq!(index.total_stored_bytes(), stored);
        let mut distinct: Vec<Digest> = refs().flat_map(|(_, c)| c).map(|c| c.digest).collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(index.distinct_chunks(), distinct);
    }

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

    /// An index of directories at `paths`, written in the order given.
    fn dirs_index(paths: &[&str]) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        put_varint(&mut out, DEFAULT_CHUNK_SIZE);
        put_varint(&mut out, paths.len() as u64);
        for path in paths {
            put_str(&mut out, path);
            out.push(1);
            put_meta(&mut out, &Meta::dir());
        }
        out
    }

    /// The encoder writes each path once, in ascending byte order, and
    /// nothing after the last entry; the parse holds every index to that.
    /// The reference accepted all three, a repeated path silently
    /// replacing its predecessor.
    #[test]
    fn from_bytes_rejects_what_the_encoder_never_writes() {
        let unsorted =
            || SquashError::Codec(CodecError::Corrupt("index paths not strictly ascending"));
        let mut trailing = dirs_index(&["a", "b"]);
        trailing.push(0);
        for (data, want) in [
            (dirs_index(&["a", "a"]), unsorted()),
            (dirs_index(&["b", "a"]), unsorted()),
            (
                trailing,
                SquashError::Codec(CodecError::Corrupt("trailing bytes after index")),
            ),
        ] {
            assert!(from_bytes_reference(&data).is_ok());
            assert_eq!(SeekableIndex::from_bytes(&data), Err(want));
        }
        let sorted = dirs_index(&["a", "a-b", "a/b", "a0"]);
        assert_eq!(SeekableIndex::from_bytes(&sorted).unwrap().entry_count(), 4);
    }

    /// The merged-/usr layout, `/lib -> usr/lib`: a path through the
    /// directory symlink reads in `MemFs`, so it reads from both image
    /// formats too (each used to follow only a final symlink).
    #[test]
    fn paths_through_a_directory_symlink_resolve() {
        let mut fs = MemFs::new();
        fs.write_p(&p("/usr/lib/libm.so"), b"libm".to_vec())
            .unwrap();
        fs.symlink(&p("/lib"), "usr/lib").unwrap();
        fs.symlink(&p("/usr/lib/libm.so.6"), "libm.so").unwrap();
        fs.symlink(&p("/usr/lib64"), "/lib").unwrap();
        fs.symlink(&p("/loop"), "loop").unwrap();
        let squash = SquashImage::build(&fs, &VPath::root(), Codec::Lz).unwrap();
        let (index, chunks) =
            SeekableIndex::build(&fs, &VPath::root(), Codec::Lz, DEFAULT_CHUNK_SIZE).unwrap();
        let chunks: HashMap<Digest, Arc<Vec<u8>>> = chunks.into_iter().collect();
        for path in ["lib/libm.so", "lib/libm.so.6", "usr/lib64/libm.so"] {
            assert_eq!(*fs.read(&VPath::root().join(path)).unwrap(), b"libm");
            assert_eq!(squash.read_file(path).unwrap(), b"libm", "{path}");
            let data = index.assemble_file(path, |d| chunks.get(d).cloned());
            assert_eq!(data.unwrap(), b"libm", "{path}");
            assert_eq!(index.resolve(path), Ok("usr/lib/libm.so"));
        }
        for (path, loops) in [("lib/nope", false), ("loop/x", true)] {
            assert!(fs.read(&VPath::root().join(path)).is_err());
            for got in [squash.read_file(path).err(), index.file_chunks(path).err()] {
                assert_eq!(
                    matches!(got, Some(SquashError::SymlinkLoop(_))),
                    loops,
                    "{path}: {got:?}"
                );
                assert!(got.is_some());
            }
        }
    }

    fn arb_meta() -> impl Strategy<Value = Meta> {
        (any::<u32>(), any::<u32>(), any::<u32>()).prop_map(|(mode, uid, gid)| Meta {
            mode,
            uid,
            gid,
        })
    }

    /// Files with 0–3 chunks, dirs and symlinks; lengths small enough
    /// that a dozen of them sum without overflow.
    fn arb_entry() -> impl Strategy<Value = OwnedEntry> {
        let chunk =
            (any::<u8>(), 0u64..1 << 32, 0u64..1 << 32).prop_map(|(b, stored, orig)| ChunkRef {
                digest: Digest([b; 32]),
                stored_len: stored,
                orig_len: orig,
            });
        let chunks = proptest::collection::vec(chunk, 0..4);
        prop_oneof![
            (arb_meta(), 0u64..1 << 40, chunks).prop_map(|(meta, orig_len, chunks)| {
                OwnedEntry::File {
                    meta,
                    orig_len,
                    chunks,
                }
            }),
            arb_meta().prop_map(|meta| OwnedEntry::Dir { meta }),
            (arb_meta(), "[ab./]{0,5}")
                .prop_map(|(meta, target)| OwnedEntry::Symlink { meta, target }),
        ]
    }

    /// Paths no generated set is sure to hold.
    const PROBES: [&str; 7] = ["", "a", "a/b", "b/a/b", "a.b", "a/b/zz", "zz"];

    proptest::proptest! {
        /// Over random sorted entry sets the flat table and the reference
        /// map answer `entry`, `file_chunks`, `resolve`, `paths` and the
        /// totals alike, and the table keeps the bytes it was given.
        #[test]
        fn flat_table_agrees_with_the_reference(
            chunk_size in any::<u64>(),
            entries in proptest::collection::vec((
                proptest::collection::vec("[ab.]{1,2}", 1..4).prop_map(|segs| segs.join("/")),
                arb_entry(),
            ), 0..12),
        ) {
            let reference = (chunk_size, entries.into_iter().collect());
            let bytes = to_bytes_reference(&reference);
            prop_assert_eq!(&from_bytes_reference(&bytes).unwrap(), &reference);
            let index = SeekableIndex::from_bytes(&bytes).unwrap();
            assert_agrees(&index, &reference, &PROBES);
            assert_totals_agree(&index, &reference);
            prop_assert_eq!(index.to_bytes(), bytes);
        }

        /// Structure-aware garbage with several entries: any paths, in
        /// order or not, any kind byte, well-formed bodies with chunk
        /// counts small or huge, garbage or nothing between entries, an
        /// entry count that may lie. Parsing returns, never panics or
        /// aborts; what it accepts the reference accepts and answers
        /// alike; reading it returns.
        #[test]
        fn from_bytes_never_panics_on_garbage_entries(
            // Arms repeat to weight the well-formed choice 3:1.
            n in proptest::prop_oneof![
                Just(None),
                Just(None),
                Just(None),
                any::<u64>().prop_map(Some)
            ],
            sort in 0u8..2,
            mut entries in proptest::collection::vec((
                "[ab/]{0,3}",
                proptest::prop_oneof![0u8..3, 0u8..3, 0u8..3, any::<u8>()],
                proptest::prop_oneof![0u64..4, 0u64..4, 0u64..4, any::<u64>()],
                proptest::prop_oneof![
                    Just(Vec::new()),
                    Just(Vec::new()),
                    Just(Vec::new()),
                    proptest::collection::vec(any::<u8>(), 0..40)
                ],
            ), 0..6),
            tail in proptest::prop_oneof![
                Just(Vec::new()),
                Just(Vec::new()),
                Just(Vec::new()),
                proptest::collection::vec(any::<u8>(), 0..8)
            ],
        ) {
            if sort == 1 {
                entries.sort_by(|a, b| a.0.cmp(&b.0));
            }
            let mut data = MAGIC.to_vec();
            put_varint(&mut data, DEFAULT_CHUNK_SIZE);
            put_varint(&mut data, n.unwrap_or(entries.len() as u64));
            for (path, kind, count, between) in &entries {
                put_str(&mut data, path);
                data.push(*kind);
                put_meta(&mut data, &Meta::dir());
                match kind {
                    0 => {
                        put_varint(&mut data, 3);
                        put_varint(&mut data, *count);
                        for b in 0..(*count).min(3) as u8 {
                            data.extend_from_slice(&[b; 32]);
                            put_varint(&mut data, 40);
                            put_varint(&mut data, 3);
                        }
                    }
                    2 => put_str(&mut data, path),
                    _ => {}
                }
                data.extend_from_slice(between);
            }
            data.extend_from_slice(&tail);
            if let Ok(index) = SeekableIndex::from_bytes(&data) {
                let probes: Vec<&str> = entries.iter().map(|(path, ..)| path.as_str()).collect();
                assert_agrees(&index, &from_bytes_reference(&data).unwrap(), &probes);
                let chunk = Arc::new(hpcc_codec::compress::compress(Codec::Lz, b"abc"));
                for path in probes {
                    let _ = index.assemble_file(path, |_| Some(Arc::clone(&chunk)));
                }
            }
        }

        /// Structure-aware garbage: valid magic and header varints, one
        /// file entry with arbitrary declared lengths, then arbitrary
        /// bytes. Parsing, and assembling whatever parses, must return,
        /// never panic or abort.
        #[test]
        fn from_bytes_never_panics_on_garbage(
            orig_len in any::<u64>(),
            count in proptest::prop_oneof![
                0u64..3,
                (1u64 << 36)..(1u64 << 56),
                any::<u64>()
            ],
            tail in proptest::collection::vec(any::<u8>(), 0..160),
        ) {
            if let Ok(index) = SeekableIndex::from_bytes(&lying_index(orig_len, count, &tail)) {
                let chunk = Arc::new(hpcc_codec::compress::compress(Codec::Lz, &tail));
                let _ = index.assemble_file("f", |_| Some(Arc::clone(&chunk)));
            }
        }
    }
}
