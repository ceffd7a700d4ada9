//! Archive format: the testbed's tar analogue.
//!
//! OCI layers "contain a tarball of filesystem changes"; SIF and squash
//! images serialize whole trees. This module gives both a common format:
//! a sequence of entries with path, ownership, mode and payload, plus the
//! OCI whiteout conventions (`.wh.<name>` file deletion markers and
//! `.wh..wh..opq` opaque-directory markers) carried as first-class entry
//! kinds so layer application logic does not string-match paths.

use crate::wire::{put_str, put_varint, Reader, WireError};
use hpcc_crypto::sha256::{sha256, Digest};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// What an archive entry is.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum EntryKind {
    /// Regular file with contents, shared with every tree and archive
    /// that holds the same file: cloning an entry copies no payload.
    File(Arc<Vec<u8>>),
    /// Directory.
    Dir,
    /// Symbolic link to `target`.
    Symlink(String),
    /// OCI whiteout: delete the entry at this path when applying.
    Whiteout,
    /// OCI opaque dir: the directory at this path hides lower layers.
    OpaqueDir,
}

impl EntryKind {
    fn tag(&self) -> u8 {
        match self {
            EntryKind::File(_) => 0,
            EntryKind::Dir => 1,
            EntryKind::Symlink(_) => 2,
            EntryKind::Whiteout => 3,
            EntryKind::OpaqueDir => 4,
        }
    }
}

/// One archive entry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Entry {
    /// Slash-separated path relative to the archive root, no leading `/`.
    pub path: String,
    pub kind: EntryKind,
    /// POSIX permission bits (plus setuid bit 0o4000 where relevant).
    pub mode: u32,
    pub uid: u32,
    pub gid: u32,
}

impl Entry {
    /// A regular file with default ownership/mode.
    pub fn file(path: &str, data: impl Into<Arc<Vec<u8>>>) -> Entry {
        Entry {
            path: path.to_string(),
            kind: EntryKind::File(data.into()),
            mode: 0o644,
            uid: 0,
            gid: 0,
        }
    }

    /// A directory with default ownership/mode.
    pub fn dir(path: &str) -> Entry {
        Entry {
            path: path.to_string(),
            kind: EntryKind::Dir,
            mode: 0o755,
            uid: 0,
            gid: 0,
        }
    }

    /// A symlink.
    pub fn symlink(path: &str, target: &str) -> Entry {
        Entry {
            path: path.to_string(),
            kind: EntryKind::Symlink(target.to_string()),
            mode: 0o777,
            uid: 0,
            gid: 0,
        }
    }

    /// A whiteout marker deleting `path` from lower layers.
    pub fn whiteout(path: &str) -> Entry {
        Entry {
            path: path.to_string(),
            kind: EntryKind::Whiteout,
            mode: 0,
            uid: 0,
            gid: 0,
        }
    }

    /// Payload size in bytes (0 for non-files).
    pub fn size(&self) -> u64 {
        match &self.kind {
            EntryKind::File(d) => d.len() as u64,
            _ => 0,
        }
    }
}

/// Errors from archive parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArchiveError {
    Wire(WireError),
    /// Bad magic bytes.
    BadMagic,
    /// Unknown entry kind tag.
    BadKind(u8),
    /// Path is absolute, empty, or contains `..`.
    BadPath(String),
    /// The named field (`mode`, `uid` or `gid`) does not fit in 32 bits.
    FieldOverflow(&'static str),
    /// Bytes follow the last entry.
    TrailingBytes,
}

impl From<WireError> for ArchiveError {
    fn from(e: WireError) -> ArchiveError {
        ArchiveError::Wire(e)
    }
}

impl std::fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArchiveError::Wire(e) => write!(f, "wire error: {e}"),
            ArchiveError::BadMagic => f.write_str("not an archive (bad magic)"),
            ArchiveError::BadKind(t) => write!(f, "unknown entry kind {t}"),
            ArchiveError::BadPath(p) => write!(f, "illegal path {p:?}"),
            ArchiveError::FieldOverflow(field) => write!(f, "{field} exceeds 32 bits"),
            ArchiveError::TrailingBytes => f.write_str("trailing bytes after the last entry"),
        }
    }
}

impl std::error::Error for ArchiveError {}

const MAGIC: &[u8; 4] = b"HARC";

/// Validate an archive-relative path: non-empty, relative, no `..` or empty
/// segments. Archives cross trust boundaries (registry → engine), so path
/// traversal must be rejected at parse time.
pub(crate) fn validate_path(path: &str) -> Result<(), ArchiveError> {
    if path.is_empty() || path.starts_with('/') || path.ends_with('/') {
        return Err(ArchiveError::BadPath(path.to_string()));
    }
    for seg in path.split('/') {
        if seg.is_empty() || seg == "." || seg == ".." {
            return Err(ArchiveError::BadPath(path.to_string()));
        }
    }
    Ok(())
}

/// An ordered sequence of entries.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Archive {
    pub entries: Vec<Entry>,
}

impl Archive {
    pub fn new() -> Archive {
        Archive::default()
    }

    /// Add an entry (panics on illegal paths — construction is trusted
    /// code; parsing is where untrusted data is validated).
    pub fn push(&mut self, entry: Entry) -> &mut Self {
        validate_path(&entry.path).expect("archive construction with illegal path");
        self.entries.push(entry);
        self
    }

    /// Total payload bytes.
    pub fn total_size(&self) -> u64 {
        self.entries.iter().map(Entry::size).sum()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serialize to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.total_size() as usize);
        out.extend_from_slice(MAGIC);
        put_varint(&mut out, self.entries.len() as u64);
        for e in &self.entries {
            put_str(&mut out, &e.path);
            out.push(e.kind.tag());
            put_varint(&mut out, e.mode as u64);
            put_varint(&mut out, e.uid as u64);
            put_varint(&mut out, e.gid as u64);
            match &e.kind {
                EntryKind::File(data) => {
                    put_varint(&mut out, data.len() as u64);
                    out.extend_from_slice(data);
                }
                EntryKind::Symlink(target) => put_str(&mut out, target),
                EntryKind::Dir | EntryKind::Whiteout | EntryKind::OpaqueDir => {}
            }
        }
        out
    }

    /// Parse from bytes, validating every path.
    pub fn from_bytes(data: &[u8]) -> Result<Archive, ArchiveError> {
        let mut r = Reader::new(data);
        if r.take(4)? != MAGIC {
            return Err(ArchiveError::BadMagic);
        }
        let n = r.varint()? as usize;
        let mut entries = Vec::with_capacity(n.min(4096));
        let u32_field = |r: &mut Reader, field| {
            u32::try_from(r.varint()?).map_err(|_| ArchiveError::FieldOverflow(field))
        };
        for _ in 0..n {
            let path = r.str()?.to_string();
            validate_path(&path)?;
            let tag = r.u8()?;
            let mode = u32_field(&mut r, "mode")?;
            let uid = u32_field(&mut r, "uid")?;
            let gid = u32_field(&mut r, "gid")?;
            let kind = match tag {
                0 => {
                    let len = r.varint()? as usize;
                    EntryKind::File(Arc::new(r.take(len)?.to_vec()))
                }
                1 => EntryKind::Dir,
                2 => EntryKind::Symlink(r.str()?.to_string()),
                3 => EntryKind::Whiteout,
                4 => EntryKind::OpaqueDir,
                t => return Err(ArchiveError::BadKind(t)),
            };
            entries.push(Entry {
                path,
                kind,
                mode,
                uid,
                gid,
            });
        }
        if !r.is_empty() {
            return Err(ArchiveError::TrailingBytes);
        }
        Ok(Archive { entries })
    }

    /// Content digest of the serialized archive — this is what OCI layer
    /// descriptors reference.
    pub fn digest(&self) -> Digest {
        sha256(&self.to_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> Archive {
        let mut a = Archive::new();
        a.push(Entry::dir("usr"))
            .push(Entry::dir("usr/lib"))
            .push(Entry {
                mode: 0o755,
                ..Entry::file("usr/lib/libm.so", b"ELF-math".to_vec())
            })
            .push(Entry::symlink("usr/lib/libm.so.6", "libm.so"))
            .push(Entry::whiteout("etc/old.conf"))
            .push(Entry {
                path: "var/cache".into(),
                kind: EntryKind::OpaqueDir,
                mode: 0o755,
                uid: 0,
                gid: 0,
            });
        a
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let a = sample();
        let parsed = Archive::from_bytes(&a.to_bytes()).unwrap();
        assert_eq!(parsed, a);
    }

    #[test]
    fn digest_is_content_addressed() {
        let a = sample();
        let mut b = sample();
        assert_eq!(a.digest(), b.digest());
        b.entries[2] = Entry::file("usr/lib/libm.so", b"ELF-math-v2".to_vec());
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn sizes_counted() {
        let a = sample();
        assert_eq!(a.total_size(), 8);
        assert_eq!(a.len(), 6);
        assert!(!a.is_empty());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert_eq!(Archive::from_bytes(&bytes), Err(ArchiveError::BadMagic));
    }

    #[test]
    fn traversal_paths_rejected_at_parse() {
        for bad in ["/abs", "a/../b", "", "a//b", "a/./b", "trailing/"] {
            // Hand-craft bytes with the bad path.
            let mut out = Vec::new();
            out.extend_from_slice(MAGIC);
            put_varint(&mut out, 1);
            put_str(&mut out, bad);
            out.push(1); // Dir
            put_varint(&mut out, 0o755);
            put_varint(&mut out, 0);
            put_varint(&mut out, 0);
            match Archive::from_bytes(&out) {
                Err(ArchiveError::BadPath(p)) => assert_eq!(p, bad),
                other => panic!("path {bad:?} should be rejected, got {other:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "illegal path")]
    fn construction_panics_on_traversal() {
        Archive::new().push(Entry::file("../evil", vec![]));
    }

    #[test]
    fn unknown_kind_rejected() {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        put_varint(&mut out, 1);
        put_str(&mut out, "x");
        out.push(9);
        put_varint(&mut out, 0);
        put_varint(&mut out, 0);
        put_varint(&mut out, 0);
        assert_eq!(Archive::from_bytes(&out), Err(ArchiveError::BadKind(9)));
    }

    #[test]
    fn trailing_bytes_and_wide_ids_are_rejected() {
        let mut trailing = sample().to_bytes();
        trailing.push(0);
        assert_eq!(
            Archive::from_bytes(&trailing),
            Err(ArchiveError::TrailingBytes)
        );
        // One directory entry whose mode, uid or gid is 2^32: it used to
        // wrap to 0 and decode as the same archive as a 0 field.
        for (field, at) in [("mode", 0), ("uid", 1), ("gid", 2)] {
            let mut out = Vec::new();
            out.extend_from_slice(MAGIC);
            put_varint(&mut out, 1);
            put_str(&mut out, "d");
            out.push(1); // Dir
            for i in 0..3 {
                put_varint(&mut out, if i == at { 1 << 32 } else { 0 });
            }
            assert_eq!(
                Archive::from_bytes(&out),
                Err(ArchiveError::FieldOverflow(field))
            );
        }
    }

    #[test]
    fn setuid_bit_survives_roundtrip() {
        let mut a = Archive::new();
        a.push(Entry {
            mode: 0o4755,
            ..Entry::file("bin/starter", vec![1])
        });
        let parsed = Archive::from_bytes(&a.to_bytes()).unwrap();
        assert_eq!(parsed.entries[0].mode, 0o4755);
    }

    fn arb_entry() -> impl Strategy<Value = Entry> {
        let path = "[a-z]{1,8}(/[a-z]{1,8}){0,3}";
        let kind = prop_oneof![
            proptest::collection::vec(any::<u8>(), 0..256)
                .prop_map(|data| EntryKind::File(Arc::new(data))),
            Just(EntryKind::Dir),
            "[a-z]{1,12}".prop_map(EntryKind::Symlink),
            Just(EntryKind::Whiteout),
            Just(EntryKind::OpaqueDir),
        ];
        (path, kind, any::<u32>(), any::<u32>(), any::<u32>()).prop_map(
            |(path, kind, mode, uid, gid)| Entry {
                path,
                kind,
                mode: mode & 0o7777,
                uid,
                gid,
            },
        )
    }

    proptest! {
        #[test]
        fn roundtrip_random_archives(entries in proptest::collection::vec(arb_entry(), 0..24)) {
            let a = Archive { entries };
            prop_assert_eq!(Archive::from_bytes(&a.to_bytes()).unwrap(), a);
        }

        #[test]
        fn parse_never_panics(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            let _ = Archive::from_bytes(&data);
        }
    }
}
