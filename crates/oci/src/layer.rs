//! Layer semantics: diffing filesystems into changesets and applying
//! changesets with OCI whiteout rules.
//!
//! "A layer captures changes in the filesystem compared to the previous
//! layer, and is identified by a hash calculated from the data in that
//! layer" — Section 3.1. A layer here is a [`hpcc_codec::Archive`] whose
//! whiteout/opaque entries are first-class (no `.wh.` string matching).

use hpcc_codec::archive::{Archive, ArchiveError, Entry, EntryKind};
use hpcc_crypto::sha256::{sha256, Digest};
use hpcc_vfs::fs::{FileType, FsError, MemFs, Meta};
use hpcc_vfs::path::VPath;
use std::sync::Arc;

/// A layer together with its one encoding and that encoding's digest.
///
/// The write path (build step → build cache → image store → push) names
/// the same bytes at every hop; sealing a layer where it is born lets
/// each hop share the `Arc` and the digest instead of encoding and
/// hashing the archive again. The fields are private so that
/// `blob_digest() == sha256(bytes())` and `bytes() == archive().to_bytes()`
/// hold for every value: a digest travels only with the bytes this
/// process computed it over. Bytes that arrive from outside (a registry
/// push, a pull) are still hashed where they arrive.
#[derive(Debug, Clone)]
pub struct SealedLayer {
    archive: Archive,
    bytes: Arc<Vec<u8>>,
    digest: Digest,
}

impl SealedLayer {
    /// Encode `archive` and hash the encoding, once each.
    pub fn seal(archive: Archive) -> SealedLayer {
        let bytes = archive.to_bytes();
        let digest = sha256(&bytes);
        SealedLayer {
            archive,
            bytes: Arc::new(bytes),
            digest,
        }
    }

    /// Reopen a layer from a content-addressed store of this process:
    /// `bytes` is the blob the store holds under `digest`, a key that was
    /// computed over those bytes when they were inserted. Decodes, does
    /// not hash again (debug builds do, to catch a caller that breaks
    /// that contract).
    pub fn from_stored(digest: Digest, bytes: Arc<Vec<u8>>) -> Result<SealedLayer, ArchiveError> {
        debug_assert_eq!(sha256(&bytes), digest, "store key is not the blob's digest");
        Ok(SealedLayer {
            archive: Archive::from_bytes(&bytes)?,
            bytes,
            digest,
        })
    }

    pub fn archive(&self) -> &Archive {
        &self.archive
    }

    pub fn into_archive(self) -> Archive {
        self.archive
    }

    /// The encoded layer, shared with every store it has been put in.
    pub fn bytes(&self) -> &Arc<Vec<u8>> {
        &self.bytes
    }

    /// SHA-256 of [`bytes`](Self::bytes): the layer's content address.
    pub fn blob_digest(&self) -> Digest {
        self.digest
    }
}

/// Compute the changeset that turns `base` into `target` (both full
/// filesystem trees): additions, modifications, and whiteouts for
/// removals. Entries are emitted in sorted path order so the layer digest
/// is deterministic.
pub fn diff(base: &MemFs, target: &MemFs) -> Result<Archive, FsError> {
    let root = VPath::root();
    let mut layer = Archive::new();

    let base_paths = base.walk(&root)?;
    let target_paths = target.walk(&root)?;

    // Removals → whiteouts. A removed directory produces one whiteout for
    // the directory itself (covering its subtree), so skip descendants of
    // already-whited-out paths.
    let mut whiteouts: Vec<VPath> = Vec::new();
    for p in &base_paths {
        if target.lstat(p).is_ok() {
            continue;
        }
        if whiteouts.iter().any(|w| p.starts_with(w) && p != w) {
            continue;
        }
        whiteouts.push(p.clone());
    }
    // Additions / modifications.
    let mut changes: Vec<&VPath> = Vec::new();
    for p in &target_paths {
        let t = target.lstat(p)?;
        match base.lstat(p) {
            Ok(b) => {
                let changed = match (b.kind, t.kind) {
                    (FileType::File, FileType::File) => {
                        b.meta != t.meta || base.read(p)? != target.read(p)?
                    }
                    (FileType::Dir, FileType::Dir) => b.meta != t.meta,
                    (FileType::Symlink, FileType::Symlink) => {
                        base.readlink(p)? != target.readlink(p)?
                    }
                    _ => true, // type change
                };
                if changed {
                    // A type change needs the old entry removed first.
                    if b.kind != t.kind {
                        whiteouts.push(p.clone());
                    }
                    changes.push(p);
                }
            }
            Err(_) => changes.push(p),
        }
    }

    // Emit whiteouts first (apply order matters), sorted.
    whiteouts.sort();
    for w in &whiteouts {
        let rel = rel_str(w);
        layer.push(Entry::whiteout(&rel));
    }
    for p in changes {
        let st = target.lstat(p)?;
        let rel = rel_str(p);
        let kind = match st.kind {
            FileType::File => EntryKind::File(target.read(p)?),
            FileType::Dir => EntryKind::Dir,
            FileType::Symlink => EntryKind::Symlink(target.readlink(p)?),
        };
        layer.push(Entry {
            path: rel,
            kind,
            mode: st.meta.mode,
            uid: st.meta.uid,
            gid: st.meta.gid,
        });
    }
    Ok(layer)
}

fn rel_str(p: &VPath) -> String {
    p.to_string().trim_start_matches('/').to_string()
}

/// Apply a layer changeset onto a filesystem in place, honoring whiteouts
/// and opaque directories.
pub fn apply(fs: &mut MemFs, layer: &Archive) -> Result<(), FsError> {
    for e in &layer.entries {
        let at = VPath::root().join(&e.path);
        match &e.kind {
            EntryKind::Whiteout => {
                if fs.exists(&at) || fs.lstat(&at).is_ok() {
                    fs.remove_all(&at)?;
                }
            }
            EntryKind::OpaqueDir => {
                // Clear the directory's current contents; the layer then
                // re-populates it.
                if fs.lstat(&at).is_ok() {
                    fs.remove_all(&at)?;
                }
                fs.mkdir_p(&at)?;
            }
            EntryKind::Dir => {
                if let Ok(st) = fs.lstat(&at) {
                    if st.kind != FileType::Dir {
                        fs.remove_all(&at)?;
                        fs.mkdir_p(&at)?;
                    }
                    fs.chmod(&at, e.mode)?;
                    fs.chown(&at, e.uid, e.gid)?;
                } else {
                    if let Some(parent) = at.parent() {
                        fs.mkdir_p(&parent)?;
                    }
                    fs.mkdir(
                        &at,
                        Meta {
                            mode: e.mode,
                            uid: e.uid,
                            gid: e.gid,
                        },
                    )?;
                }
            }
            EntryKind::File(data) => {
                if let Ok(st) = fs.lstat(&at) {
                    if st.kind != FileType::File {
                        fs.remove_all(&at)?;
                    }
                }
                if let Some(parent) = at.parent() {
                    fs.mkdir_p(&parent)?;
                }
                fs.write(
                    &at,
                    Arc::clone(data),
                    Meta {
                        mode: e.mode,
                        uid: e.uid,
                        gid: e.gid,
                    },
                )?;
            }
            EntryKind::Symlink(target) => {
                if fs.lstat(&at).is_ok() {
                    fs.remove_all(&at)?;
                }
                if let Some(parent) = at.parent() {
                    fs.mkdir_p(&parent)?;
                }
                fs.symlink(&at, target)?;
            }
        }
    }
    Ok(())
}

/// Apply a stack of layers (bottom-first) onto an empty filesystem and
/// return the result — the "flatten the OCI bundle" operation the HPC
/// engines perform before packing a squash image.
pub fn flatten(layers: &[Archive]) -> Result<MemFs, FsError> {
    let mut fs = MemFs::new();
    for layer in layers {
        apply(&mut fs, layer)?;
    }
    Ok(fs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> VPath {
        VPath::parse(s)
    }

    fn base() -> MemFs {
        let mut fs = MemFs::new();
        fs.write_p(&p("/etc/conf"), b"v1".to_vec()).unwrap();
        fs.write_p(&p("/usr/lib/libc.so"), b"libc".to_vec())
            .unwrap();
        fs.write_p(&p("/tmp/scratch"), b"junk".to_vec()).unwrap();
        fs
    }

    #[test]
    fn diff_empty_to_tree_is_full_tree() {
        let empty = MemFs::new();
        let target = base();
        let layer = diff(&empty, &target).unwrap();
        let rebuilt = flatten(&[layer]).unwrap();
        assert_eq!(
            rebuilt.tree_digest(&VPath::root()).unwrap(),
            target.tree_digest(&VPath::root()).unwrap()
        );
    }

    #[test]
    fn diff_and_flatten_share_file_bytes() {
        let target = base();
        let layer = diff(&MemFs::new(), &target).unwrap();
        let flat = flatten(std::slice::from_ref(&layer)).unwrap();
        let mut files = 0;
        for e in &layer.entries {
            if let EntryKind::File(data) = &e.kind {
                let at = VPath::root().join(&e.path);
                assert!(
                    Arc::ptr_eq(data, &target.read(&at).unwrap()),
                    "diff copied {}",
                    e.path
                );
                assert!(
                    Arc::ptr_eq(data, &flat.read(&at).unwrap()),
                    "flatten copied {}",
                    e.path
                );
                files += 1;
            }
        }
        assert_eq!(files, 3);
    }

    #[test]
    fn diff_identical_trees_is_empty() {
        let a = base();
        let b = base();
        assert!(diff(&a, &b).unwrap().is_empty());
    }

    #[test]
    fn modification_and_removal_roundtrip() {
        let a = base();
        let mut b = base();
        b.write_p(&p("/etc/conf"), b"v2".to_vec()).unwrap();
        b.remove_all(&p("/tmp")).unwrap();
        b.write_p(&p("/opt/new"), b"n".to_vec()).unwrap();

        let layer = diff(&a, &b).unwrap();
        let mut rebuilt = base();
        apply(&mut rebuilt, &layer).unwrap();
        assert_eq!(
            rebuilt.tree_digest(&VPath::root()).unwrap(),
            b.tree_digest(&VPath::root()).unwrap()
        );
        // A single whiteout covers the removed dir, not one per child.
        let wh: Vec<&str> = layer
            .entries
            .iter()
            .filter(|e| e.kind == EntryKind::Whiteout)
            .map(|e| e.path.as_str())
            .collect();
        assert_eq!(wh, vec!["tmp"]);
    }

    #[test]
    fn mode_only_change_is_captured() {
        let a = base();
        let mut b = base();
        b.chmod(&p("/etc/conf"), 0o600).unwrap();
        let layer = diff(&a, &b).unwrap();
        assert_eq!(layer.len(), 1);
        let mut rebuilt = base();
        apply(&mut rebuilt, &layer).unwrap();
        assert_eq!(rebuilt.stat(&p("/etc/conf")).unwrap().meta.mode, 0o600);
    }

    #[test]
    fn type_change_file_to_symlink() {
        let a = base();
        let mut b = base();
        b.unlink(&p("/etc/conf")).unwrap();
        b.symlink(&p("/etc/conf"), "conf.d/real").unwrap();
        let layer = diff(&a, &b).unwrap();
        let mut rebuilt = base();
        apply(&mut rebuilt, &layer).unwrap();
        assert_eq!(rebuilt.readlink(&p("/etc/conf")).unwrap(), "conf.d/real");
    }

    #[test]
    fn type_change_file_to_dir() {
        let a = base();
        let mut b = base();
        b.unlink(&p("/etc/conf")).unwrap();
        b.mkdir_p(&p("/etc/conf")).unwrap();
        b.write_p(&p("/etc/conf/inner"), b"x".to_vec()).unwrap();
        let layer = diff(&a, &b).unwrap();
        let mut rebuilt = base();
        apply(&mut rebuilt, &layer).unwrap();
        assert_eq!(&**rebuilt.read(&p("/etc/conf/inner")).unwrap(), b"x");
    }

    #[test]
    fn opaque_dir_clears_contents() {
        let mut layer = Archive::new();
        layer.push(Entry {
            path: "tmp".into(),
            kind: EntryKind::OpaqueDir,
            mode: 0o755,
            uid: 0,
            gid: 0,
        });
        layer.push(Entry::file("tmp/only", b"fresh".to_vec()));
        let mut fs = base();
        apply(&mut fs, &layer).unwrap();
        assert!(!fs.exists(&p("/tmp/scratch")));
        assert_eq!(&**fs.read(&p("/tmp/only")).unwrap(), b"fresh");
    }

    #[test]
    fn three_layer_flatten_matches_sequential_apply() {
        let l1 = diff(&MemFs::new(), &base()).unwrap();
        let mut v2 = base();
        v2.write_p(&p("/etc/conf"), b"v2".to_vec()).unwrap();
        let l2 = diff(&base(), &v2).unwrap();
        let mut v3 = v2.clone();
        v3.remove_all(&p("/usr")).unwrap();
        let l3 = diff(&v2, &v3).unwrap();

        let flat = flatten(&[l1, l2, l3]).unwrap();
        assert_eq!(
            flat.tree_digest(&VPath::root()).unwrap(),
            v3.tree_digest(&VPath::root()).unwrap()
        );
    }

    #[test]
    fn layer_digest_is_deterministic() {
        let a = diff(&MemFs::new(), &base()).unwrap();
        let b = diff(&MemFs::new(), &base()).unwrap();
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn whiteout_of_missing_path_is_harmless() {
        let mut layer = Archive::new();
        layer.push(Entry::whiteout("does/not/exist"));
        let mut fs = base();
        apply(&mut fs, &layer).unwrap();
    }
}
