//! Single-file filesystem images (the SquashFS analogue).
//!
//! Section 3.2: "Container filesystems are (re-)packaged as single-file
//! images to avoid small-file load and latency, potentially providing a
//! speedup ... by trading memory and CPU (decompression) for disk IO."
//!
//! The format stores a metadata index up front and one *independently
//! compressed block per file*, so random access decompresses only the file
//! touched — exactly the property the kernel-vs-FUSE driver experiments
//! need. Images are immutable and content-digested.

use crate::fs::{FileType, FsError, MemFs, Meta};
use crate::path::VPath;
use hpcc_codec::compress::{compress_blocks, decompress, Codec, CodecError};
use hpcc_codec::wire::{put_str, put_varint, Reader, WireError};
use hpcc_crypto::sha256::{sha256, Digest};
use std::collections::BTreeMap;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"HSQI";

/// Index record for one entry in the image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SquashEntry {
    File {
        meta: Meta,
        /// Offset of the compressed block within the blob section.
        offset: u64,
        /// Stored (compressed) length.
        stored_len: u64,
        /// Original (uncompressed) length.
        orig_len: u64,
    },
    Dir {
        meta: Meta,
    },
    Symlink {
        meta: Meta,
        target: String,
    },
}

/// Errors from squash-image handling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SquashError {
    Wire(WireError),
    Codec(CodecError),
    BadMagic,
    BadKind(u8),
    NotFound(String),
    NotAFile(String),
    SymlinkLoop(String),
    Fs(FsError),
}

impl From<WireError> for SquashError {
    fn from(e: WireError) -> SquashError {
        SquashError::Wire(e)
    }
}
impl From<CodecError> for SquashError {
    fn from(e: CodecError) -> SquashError {
        SquashError::Codec(e)
    }
}
impl From<FsError> for SquashError {
    fn from(e: FsError) -> SquashError {
        SquashError::Fs(e)
    }
}

impl std::fmt::Display for SquashError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SquashError::Wire(e) => write!(f, "wire: {e}"),
            SquashError::Codec(e) => write!(f, "codec: {e}"),
            SquashError::BadMagic => f.write_str("not a squash image"),
            SquashError::BadKind(t) => write!(f, "unknown entry kind {t}"),
            SquashError::NotFound(p) => write!(f, "{p}: not in image"),
            SquashError::NotAFile(p) => write!(f, "{p}: not a regular file"),
            SquashError::SymlinkLoop(p) => write!(f, "{p}: symlink loop in image"),
            SquashError::Fs(e) => write!(f, "fs: {e}"),
        }
    }
}

impl std::error::Error for SquashError {}

/// An immutable single-file image: parsed index plus the raw bytes.
#[derive(Debug, Clone)]
pub struct SquashImage {
    /// Paths are image-relative strings without a leading slash, sorted.
    index: BTreeMap<String, SquashEntry>,
    /// The full serialized image.
    bytes: Arc<Vec<u8>>,
    /// Offset of the blob section within `bytes`.
    blob_start: usize,
}

impl SquashImage {
    /// Pack the subtree of `fs` at `root` into an image using `codec`.
    pub fn build(fs: &MemFs, root: &VPath, codec: Codec) -> Result<SquashImage, SquashError> {
        // First pass: collect entries; file payloads are compressed side
        // by side afterwards, one independent block per file.
        struct Pending {
            path: String,
            kind: u8,
            meta: Meta,
            data: Option<Arc<Vec<u8>>>,
            target: Option<String>,
        }
        let mut pending = Vec::new();
        for p in fs.walk(root)? {
            let rel = p
                .rebase(root, &VPath::root())
                .expect("walked path under root")
                .to_string()
                .trim_start_matches('/')
                .to_string();
            let st = fs.lstat(&p)?;
            let (kind, data, target) = match st.kind {
                FileType::File => (0, Some(fs.read(&p)?), None),
                FileType::Dir => (1, None, None),
                FileType::Symlink => (2, None, Some(fs.readlink(&p)?)),
            };
            pending.push(Pending {
                path: rel,
                kind,
                meta: st.meta,
                data,
                target,
            });
        }
        let blocks: Vec<&[u8]> = pending
            .iter()
            .filter_map(|p| p.data.as_ref().map(|d| d.as_slice()))
            .collect();
        let stored = compress_blocks(codec, &blocks);

        // Serialize: header + index + blobs, offsets in entry order.
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        put_varint(&mut out, pending.len() as u64);
        let mut blobs = stored.iter();
        let mut offset = 0u64;
        for p in &pending {
            put_str(&mut out, &p.path);
            out.push(p.kind);
            put_varint(&mut out, p.meta.mode as u64);
            put_varint(&mut out, p.meta.uid as u64);
            put_varint(&mut out, p.meta.gid as u64);
            match p.kind {
                0 => {
                    let data = p.data.as_ref().expect("file has data");
                    let blob = blobs.next().expect("one block per file");
                    put_varint(&mut out, offset);
                    put_varint(&mut out, blob.len() as u64);
                    put_varint(&mut out, data.len() as u64);
                    offset += blob.len() as u64;
                }
                1 => {}
                2 => put_str(&mut out, p.target.as_ref().expect("symlink has target")),
                _ => unreachable!(),
            }
        }
        out.reserve_exact(offset as usize);
        for blob in &stored {
            out.extend_from_slice(blob);
        }
        SquashImage::from_bytes(out)
    }

    /// Parse an image from its serialized bytes.
    pub fn from_bytes(bytes: impl Into<Arc<Vec<u8>>>) -> Result<SquashImage, SquashError> {
        let bytes: Arc<Vec<u8>> = bytes.into();
        let mut r = Reader::new(&bytes);
        if r.take(4)? != MAGIC {
            return Err(SquashError::BadMagic);
        }
        let n = r.varint()? as usize;
        let mut index = BTreeMap::new();
        for _ in 0..n {
            let path = r.str()?.to_string();
            let kind = r.u8()?;
            let meta = Meta {
                mode: r.varint()? as u32,
                uid: r.varint()? as u32,
                gid: r.varint()? as u32,
            };
            let entry = match kind {
                0 => SquashEntry::File {
                    meta,
                    offset: r.varint()?,
                    stored_len: r.varint()?,
                    orig_len: r.varint()?,
                },
                1 => SquashEntry::Dir { meta },
                2 => SquashEntry::Symlink {
                    meta,
                    target: r.str()?.to_string(),
                },
                t => return Err(SquashError::BadKind(t)),
            };
            index.insert(path, entry);
        }
        let blob_start = bytes.len() - r.remaining();
        Ok(SquashImage {
            index,
            bytes,
            blob_start,
        })
    }

    /// The serialized image bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The serialized image, shared: what a cache keeps and
    /// [`SquashImage::from_bytes`] mounts again without copying.
    pub fn into_bytes(self) -> Arc<Vec<u8>> {
        self.bytes
    }

    /// Size of the serialized image.
    pub fn len_bytes(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// Sum of original (uncompressed) file sizes.
    pub fn original_bytes(&self) -> u64 {
        self.index
            .values()
            .map(|e| match e {
                SquashEntry::File { orig_len, .. } => *orig_len,
                _ => 0,
            })
            .sum()
    }

    /// Content digest of the image file.
    pub fn digest(&self) -> Digest {
        sha256(&self.bytes)
    }

    /// Number of index entries.
    pub fn entry_count(&self) -> usize {
        self.index.len()
    }

    /// All paths in the image, sorted.
    pub fn paths(&self) -> impl Iterator<Item = &str> {
        self.index.keys().map(String::as_str)
    }

    /// Look up an entry (no symlink following).
    pub fn entry(&self, path: &str) -> Option<&SquashEntry> {
        self.index.get(path)
    }

    /// Resolve symlinks within the image to a final entry path.
    fn resolve(&self, path: &str) -> Result<String, SquashError> {
        let mut current = path.to_string();
        for _ in 0..40 {
            match self.index.get(&current) {
                Some(SquashEntry::Symlink { target, .. }) => {
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

    /// Read (and decompress) one file. This is the random-access operation
    /// whose cost the kernel/FUSE drivers model.
    pub fn read_file(&self, path: &str) -> Result<Vec<u8>, SquashError> {
        let real = self.resolve(path)?;
        match self.index.get(&real) {
            Some(SquashEntry::File {
                offset, stored_len, ..
            }) => {
                // Offsets and lengths come from the image's own index
                // bytes: overflow is corruption, not a panic.
                let block = (|| {
                    let start = self
                        .blob_start
                        .checked_add(usize::try_from(*offset).ok()?)?;
                    let end = start.checked_add(usize::try_from(*stored_len).ok()?)?;
                    self.bytes.get(start..end)
                })()
                .ok_or(SquashError::Codec(CodecError::Corrupt("blob out of range")))?;
                Ok(decompress(block)?)
            }
            Some(_) => Err(SquashError::NotAFile(path.to_string())),
            None => Err(SquashError::NotFound(path.to_string())),
        }
    }

    /// The stored (compressed) length of one file, for IO accounting.
    pub fn stored_len(&self, path: &str) -> Result<(u64, u64), SquashError> {
        let real = self.resolve(path)?;
        match self.index.get(&real) {
            Some(SquashEntry::File {
                stored_len,
                orig_len,
                ..
            }) => Ok((*stored_len, *orig_len)),
            Some(_) => Err(SquashError::NotAFile(path.to_string())),
            None => Err(SquashError::NotFound(path.to_string())),
        }
    }

    /// Unpack the whole image into a fresh filesystem (what the
    /// extract-to-node-local-dir strategies do).
    pub fn unpack(&self) -> Result<MemFs, SquashError> {
        let mut fs = MemFs::new();
        // Dirs first (BTreeMap order already gives parents before children
        // because '/' sorts low, but create parents defensively).
        for (path, entry) in &self.index {
            let at = VPath::root().join(path);
            match entry {
                SquashEntry::Dir { meta } => {
                    if let Some(parent) = at.parent() {
                        fs.mkdir_p(&parent)?;
                    }
                    if !fs.exists(&at) {
                        fs.mkdir(&at, *meta)?;
                    }
                }
                SquashEntry::File { meta, .. } => {
                    if let Some(parent) = at.parent() {
                        fs.mkdir_p(&parent)?;
                    }
                    let data = self.read_file(path)?;
                    fs.write(&at, data, *meta)?;
                }
                SquashEntry::Symlink { target, .. } => {
                    if let Some(parent) = at.parent() {
                        fs.mkdir_p(&parent)?;
                    }
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

    fn p(s: &str) -> VPath {
        VPath::parse(s)
    }

    fn sample_fs() -> MemFs {
        let mut fs = MemFs::new();
        fs.write_p(&p("/usr/lib/libc.so"), vec![b'c'; 4096])
            .unwrap();
        fs.write_p(&p("/usr/bin/python3.11"), vec![b'p'; 2048])
            .unwrap();
        fs.symlink(&p("/usr/bin/python3"), "python3.11").unwrap();
        fs.write_p(&p("/etc/conf"), b"key=value\n".repeat(100))
            .unwrap();
        fs.chmod(&p("/usr/bin/python3.11"), 0o755).unwrap();
        fs
    }

    fn image() -> SquashImage {
        SquashImage::build(&sample_fs(), &VPath::root(), Codec::Lz).unwrap()
    }

    /// Nine files from empty to 300 KiB, runs and low-entropy text mixed,
    /// so blocks differ in size and cost and any reordering would show.
    fn varied_fs() -> MemFs {
        let mut fs = MemFs::new();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for (k, len) in [0usize, 1, 3, 4, 259, 5_000, 70_000, 300_000, 33_000]
            .into_iter()
            .enumerate()
        {
            let data: Vec<u8> = (0..len)
                .map(|i| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    if (i / 600) % 2 == 0 {
                        b"etaoinsh"[(x % 8) as usize]
                    } else {
                        k as u8
                    }
                })
                .collect();
            fs.write_p(&p(&format!("/d{}/f{k}", k % 3)), data).unwrap();
        }
        fs.symlink(&p("/d0/link"), "f0").unwrap();
        fs
    }

    #[test]
    fn build_is_one_compress_per_file_in_entry_order() {
        // However many threads compressed them: block k is exactly
        // `compress` of file k, and blocks are laid out in index order.
        let fs = varied_fs();
        let img = SquashImage::build(&fs, &VPath::root(), Codec::Lz).unwrap();
        let mut next = 0u64;
        let mut files = 0;
        for path in img.paths() {
            if let Some(SquashEntry::File {
                offset, stored_len, ..
            }) = img.entry(path)
            {
                let data = fs.read(&VPath::root().join(path)).unwrap();
                let at = img.blob_start + *offset as usize;
                assert_eq!(*offset, next, "{path}");
                assert!(
                    img.as_bytes()[at..at + *stored_len as usize]
                        == hpcc_codec::compress::compress(Codec::Lz, &data),
                    "{path}"
                );
                next += stored_len;
                files += 1;
            }
        }
        assert_eq!(files, 9);
        assert_eq!(img.blob_start as u64 + next, img.len_bytes());
        // Captured before blocks were compressed in parallel and before
        // the encoder was rewritten: stored images must not move.
        assert_eq!(
            img.digest().to_string(),
            "sha256:510739ef847f3860c17b5555e41299eb6b09484f4711417f9b8c6e7bddf4cafa"
        );
    }

    #[test]
    fn index_ranges_that_overflow_are_corrupt_not_a_panic() {
        let mut out = MAGIC.to_vec();
        put_varint(&mut out, 1);
        put_str(&mut out, "f");
        out.push(0);
        for v in [0o644, 0, 0, u64::MAX, u64::MAX, 1] {
            put_varint(&mut out, v);
        }
        let img = SquashImage::from_bytes(out).unwrap();
        assert_eq!(
            img.read_file("f"),
            Err(SquashError::Codec(CodecError::Corrupt("blob out of range")))
        );
    }

    #[test]
    fn into_bytes_shares_the_image() {
        let img = image();
        let digest = img.digest();
        let bytes = img.into_bytes();
        let again = SquashImage::from_bytes(Arc::clone(&bytes)).unwrap();
        assert_eq!(again.digest(), digest);
        assert!(Arc::ptr_eq(&bytes, &again.into_bytes()));
    }

    #[test]
    fn build_and_read_back() {
        let img = image();
        assert_eq!(img.read_file("usr/lib/libc.so").unwrap(), vec![b'c'; 4096]);
        assert_eq!(
            img.read_file("etc/conf").unwrap(),
            b"key=value\n".repeat(100)
        );
    }

    #[test]
    fn compression_shrinks_image() {
        let img = image();
        assert!(
            img.len_bytes() < img.original_bytes(),
            "stored {} >= original {}",
            img.len_bytes(),
            img.original_bytes()
        );
    }

    #[test]
    fn symlinks_resolve_inside_image() {
        let img = image();
        assert_eq!(img.read_file("usr/bin/python3").unwrap(), vec![b'p'; 2048]);
    }

    #[test]
    fn metadata_preserved() {
        let img = image();
        match img.entry("usr/bin/python3.11").unwrap() {
            SquashEntry::File { meta, orig_len, .. } => {
                assert_eq!(meta.mode, 0o755);
                assert_eq!(*orig_len, 2048);
            }
            other => panic!("expected file, got {other:?}"),
        }
    }

    #[test]
    fn serialization_roundtrip() {
        let img = image();
        let reparsed = SquashImage::from_bytes(img.as_bytes().to_vec()).unwrap();
        assert_eq!(reparsed.entry_count(), img.entry_count());
        assert_eq!(reparsed.digest(), img.digest());
        assert_eq!(
            reparsed.read_file("usr/lib/libc.so").unwrap(),
            vec![b'c'; 4096]
        );
    }

    #[test]
    fn unpack_restores_tree() {
        let fs = sample_fs();
        let img = SquashImage::build(&fs, &VPath::root(), Codec::Lz).unwrap();
        let restored = img.unpack().unwrap();
        assert_eq!(
            restored.tree_digest(&VPath::root()).unwrap(),
            fs.tree_digest(&VPath::root()).unwrap()
        );
    }

    #[test]
    fn subtree_images_are_relative() {
        let fs = sample_fs();
        let img = SquashImage::build(&fs, &p("/usr"), Codec::Store).unwrap();
        assert!(img.entry("bin/python3.11").is_some());
        assert!(img.entry("usr/bin/python3.11").is_none());
    }

    #[test]
    fn missing_files_error() {
        let img = image();
        assert!(matches!(
            img.read_file("nope"),
            Err(SquashError::NotFound(_))
        ));
        assert!(matches!(
            img.read_file("usr"),
            Err(SquashError::NotAFile(_))
        ));
    }

    #[test]
    fn corrupt_magic_rejected() {
        let img = image();
        let mut bytes = img.as_bytes().to_vec();
        bytes[0] = b'X';
        assert!(matches!(
            SquashImage::from_bytes(bytes),
            Err(SquashError::BadMagic)
        ));
    }

    #[test]
    fn digest_differs_across_contents() {
        let a = image();
        let mut fs = sample_fs();
        fs.write_p(&p("/etc/conf"), b"changed".to_vec()).unwrap();
        let b = SquashImage::build(&fs, &VPath::root(), Codec::Lz).unwrap();
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn stored_len_reports_both_sizes() {
        let img = image();
        let (stored, orig) = img.stored_len("etc/conf").unwrap();
        assert_eq!(orig, 1000);
        assert!(stored < orig, "repetitive file should compress");
    }

    #[test]
    fn store_codec_roundtrip() {
        let fs = sample_fs();
        let img = SquashImage::build(&fs, &VPath::root(), Codec::Store).unwrap();
        assert_eq!(img.read_file("usr/lib/libc.so").unwrap(), vec![b'c'; 4096]);
        assert!(img.len_bytes() >= img.original_bytes());
    }

    #[test]
    fn empty_tree_builds() {
        let fs = MemFs::new();
        let img = SquashImage::build(&fs, &VPath::root(), Codec::Lz).unwrap();
        assert_eq!(img.entry_count(), 0);
        assert_eq!(img.original_bytes(), 0);
        assert!(img
            .unpack()
            .unwrap()
            .list(&VPath::root())
            .unwrap()
            .is_empty());
    }
}
