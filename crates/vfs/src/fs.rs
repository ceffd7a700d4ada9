//! In-memory POSIX-like filesystem.
//!
//! Backs container root filesystems, unpacked image directories and host
//! filesystems throughout the testbed. Stores files, directories and
//! symlinks with mode/uid/gid metadata; symlink resolution follows links
//! with a loop bound like a real kernel path walk. Permission *checks* are
//! the runtime layer's job (they depend on namespace credentials); the
//! filesystem stores the metadata those checks read.

use crate::path::VPath;
use hpcc_codec::archive::{Archive, Entry, EntryKind};
use hpcc_crypto::sha256::Digest;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Inode metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Meta {
    pub mode: u32,
    pub uid: u32,
    pub gid: u32,
}

impl Meta {
    pub fn file() -> Meta {
        Meta {
            mode: 0o644,
            uid: 0,
            gid: 0,
        }
    }

    pub fn dir() -> Meta {
        Meta {
            mode: 0o755,
            uid: 0,
            gid: 0,
        }
    }
}

/// What an inode is.
#[derive(Debug, Clone)]
enum NodeKind {
    File { data: Arc<Vec<u8>> },
    Dir { children: BTreeMap<String, usize> },
    Symlink { target: String },
}

#[derive(Debug, Clone)]
struct Node {
    kind: NodeKind,
    meta: Meta,
}

/// Filesystem statistics returned by [`MemFs::stat`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stat {
    pub meta: Meta,
    pub kind: FileType,
    pub size: u64,
}

/// Inode type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileType {
    File,
    Dir,
    Symlink,
}

/// Filesystem errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    NotFound(VPath),
    NotADirectory(VPath),
    IsADirectory(VPath),
    AlreadyExists(VPath),
    NotEmpty(VPath),
    SymlinkLoop(VPath),
    NotASymlink(VPath),
    /// The device backing the tree has no space left (injected disk-full
    /// faults surface as this).
    NoSpace(VPath),
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsError::NotFound(p) => write!(f, "{p}: no such file or directory"),
            FsError::NotADirectory(p) => write!(f, "{p}: not a directory"),
            FsError::IsADirectory(p) => write!(f, "{p}: is a directory"),
            FsError::AlreadyExists(p) => write!(f, "{p}: file exists"),
            FsError::NotEmpty(p) => write!(f, "{p}: directory not empty"),
            FsError::SymlinkLoop(p) => write!(f, "{p}: too many levels of symbolic links"),
            FsError::NotASymlink(p) => write!(f, "{p}: not a symlink"),
            FsError::NoSpace(p) => write!(f, "{p}: no space left on device"),
        }
    }
}

impl std::error::Error for FsError {}

const MAX_SYMLINK_FOLLOWS: usize = 40;

/// The in-memory filesystem.
#[derive(Debug, Clone)]
pub struct MemFs {
    nodes: Vec<Node>,
}

impl Default for MemFs {
    fn default() -> Self {
        MemFs::new()
    }
}

impl MemFs {
    /// An empty filesystem with a root directory.
    pub fn new() -> MemFs {
        MemFs {
            nodes: vec![Node {
                kind: NodeKind::Dir {
                    children: BTreeMap::new(),
                },
                meta: Meta::dir(),
            }],
        }
    }

    // ------------------------------------------------------------ lookup

    /// Resolve a path to an inode index without following a final symlink.
    fn lookup_no_follow(&self, path: &VPath) -> Result<usize, FsError> {
        let mut cur = 0usize; // root
        let segs = path.segments();
        for (i, seg) in segs.iter().enumerate() {
            let children = match &self.nodes[cur].kind {
                NodeKind::Dir { children } => children,
                _ => return Err(FsError::NotADirectory(VPath::parse(&segs[..i].join("/")))),
            };
            cur = *children
                .get(seg)
                .ok_or_else(|| FsError::NotFound(path.clone()))?;
        }
        Ok(cur)
    }

    /// Resolve a path, following intermediate and final symlinks.
    fn resolve(&self, path: &VPath) -> Result<(usize, VPath), FsError> {
        let mut current = path.clone();
        for _ in 0..MAX_SYMLINK_FOLLOWS {
            // Walk from root, expanding the first symlink encountered.
            let mut cur = 0usize;
            let segs = current.segments().to_vec();
            let mut expanded = false;
            for (i, seg) in segs.iter().enumerate() {
                let children = match &self.nodes[cur].kind {
                    NodeKind::Dir { children } => children,
                    _ => return Err(FsError::NotADirectory(current.clone())),
                };
                let next = *children
                    .get(seg)
                    .ok_or_else(|| FsError::NotFound(current.clone()))?;
                if let NodeKind::Symlink { target } = &self.nodes[next].kind {
                    // Rebuild the path: prefix + target + suffix.
                    let prefix = VPath::parse(&segs[..i].join("/"));
                    let mut new_path = prefix.join(target);
                    for rest in &segs[i + 1..] {
                        new_path = new_path.child(rest);
                    }
                    current = new_path;
                    expanded = true;
                    break;
                }
                cur = next;
            }
            if !expanded {
                return Ok((cur, current));
            }
        }
        Err(FsError::SymlinkLoop(path.clone()))
    }

    fn parent_dir_mut(&mut self, path: &VPath) -> Result<(usize, String), FsError> {
        let name = path
            .file_name()
            .ok_or_else(|| FsError::AlreadyExists(VPath::root()))?
            .to_string();
        let parent = path.parent().expect("non-root has a parent");
        let (idx, _) = self.resolve(&parent)?;
        match &self.nodes[idx].kind {
            NodeKind::Dir { .. } => Ok((idx, name)),
            _ => Err(FsError::NotADirectory(parent)),
        }
    }

    // ------------------------------------------------------------ queries

    /// True if the path resolves to anything.
    pub fn exists(&self, path: &VPath) -> bool {
        self.resolve(path).is_ok()
    }

    /// Stat a path (follows symlinks).
    pub fn stat(&self, path: &VPath) -> Result<Stat, FsError> {
        let (idx, _) = self.resolve(path)?;
        Ok(self.stat_node(idx))
    }

    /// Stat without following a final symlink (lstat).
    pub fn lstat(&self, path: &VPath) -> Result<Stat, FsError> {
        let idx = self.lookup_no_follow(path)?;
        Ok(self.stat_node(idx))
    }

    fn stat_node(&self, idx: usize) -> Stat {
        let node = &self.nodes[idx];
        let (kind, size) = match &node.kind {
            NodeKind::File { data } => (FileType::File, data.len() as u64),
            NodeKind::Dir { .. } => (FileType::Dir, 0),
            NodeKind::Symlink { target } => (FileType::Symlink, target.len() as u64),
        };
        Stat {
            meta: node.meta,
            kind,
            size,
        }
    }

    /// Read a file's contents (follows symlinks).
    pub fn read(&self, path: &VPath) -> Result<Arc<Vec<u8>>, FsError> {
        let (idx, real) = self.resolve(path)?;
        match &self.nodes[idx].kind {
            NodeKind::File { data } => Ok(Arc::clone(data)),
            NodeKind::Dir { .. } => Err(FsError::IsADirectory(real)),
            NodeKind::Symlink { .. } => unreachable!("resolve follows symlinks"),
        }
    }

    /// Read a symlink's target.
    pub fn readlink(&self, path: &VPath) -> Result<String, FsError> {
        let idx = self.lookup_no_follow(path)?;
        match &self.nodes[idx].kind {
            NodeKind::Symlink { target } => Ok(target.clone()),
            _ => Err(FsError::NotASymlink(path.clone())),
        }
    }

    /// List a directory's entry names, sorted.
    pub fn list(&self, path: &VPath) -> Result<Vec<String>, FsError> {
        let (idx, real) = self.resolve(path)?;
        match &self.nodes[idx].kind {
            NodeKind::Dir { children } => Ok(children.keys().cloned().collect()),
            _ => Err(FsError::NotADirectory(real)),
        }
    }

    /// Depth-first walk of all paths below `root` (not including `root`),
    /// sorted, without following symlinks.
    pub fn walk(&self, root: &VPath) -> Result<Vec<VPath>, FsError> {
        let (idx, real) = self.resolve(root)?;
        let mut out = Vec::new();
        self.walk_node(idx, &real, &mut out)?;
        Ok(out)
    }

    fn walk_node(&self, idx: usize, at: &VPath, out: &mut Vec<VPath>) -> Result<(), FsError> {
        if let NodeKind::Dir { children } = &self.nodes[idx].kind {
            for (name, child) in children {
                let p = at.child(name);
                out.push(p.clone());
                self.walk_node(*child, &p, out)?;
            }
        }
        Ok(())
    }

    /// Total bytes of file data under `root`.
    pub fn total_file_bytes(&self, root: &VPath) -> u64 {
        self.walk(root)
            .map(|paths| {
                paths
                    .iter()
                    .filter_map(|p| self.lstat(p).ok())
                    .filter(|s| s.kind == FileType::File)
                    .map(|s| s.size)
                    .sum()
            })
            .unwrap_or(0)
    }

    /// Count of regular files under `root`.
    pub fn file_count(&self, root: &VPath) -> usize {
        self.walk(root)
            .map(|paths| {
                paths
                    .iter()
                    .filter_map(|p| self.lstat(p).ok())
                    .filter(|s| s.kind == FileType::File)
                    .count()
            })
            .unwrap_or(0)
    }

    // ------------------------------------------------------------ mutation

    /// Create a directory; parents must exist.
    pub fn mkdir(&mut self, path: &VPath, meta: Meta) -> Result<(), FsError> {
        let (parent, name) = self.parent_dir_mut(path)?;
        let new_idx = self.nodes.len();
        match &mut self.nodes[parent].kind {
            NodeKind::Dir { children } => {
                if children.contains_key(&name) {
                    return Err(FsError::AlreadyExists(path.clone()));
                }
                children.insert(name, new_idx);
            }
            _ => unreachable!("parent_dir_mut checked"),
        }
        self.nodes.push(Node {
            kind: NodeKind::Dir {
                children: BTreeMap::new(),
            },
            meta,
        });
        Ok(())
    }

    /// Create a directory and any missing parents.
    pub fn mkdir_p(&mut self, path: &VPath) -> Result<(), FsError> {
        for anc in path.ancestors().skip(1).chain([path.clone()]) {
            match self.stat(&anc) {
                Ok(s) if s.kind == FileType::Dir => {}
                Ok(_) => return Err(FsError::NotADirectory(anc)),
                Err(FsError::NotFound(_)) => self.mkdir(&anc, Meta::dir())?,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Write a file, creating or truncating it. Parents must exist. An
    /// `Arc` is kept as it is, so a tree, an archive and a blob can hold
    /// one allocation between them.
    pub fn write(
        &mut self,
        path: &VPath,
        data: impl Into<Arc<Vec<u8>>>,
        meta: Meta,
    ) -> Result<(), FsError> {
        let data = data.into();
        // Overwrite through a final symlink like open(O_TRUNC) would.
        if let Ok((idx, real)) = self.resolve(path) {
            match &mut self.nodes[idx].kind {
                NodeKind::File { data: old } => {
                    *old = data;
                    self.nodes[idx].meta = meta;
                    return Ok(());
                }
                NodeKind::Dir { .. } => return Err(FsError::IsADirectory(real)),
                NodeKind::Symlink { .. } => unreachable!("resolve follows symlinks"),
            }
        }
        let (parent, name) = self.parent_dir_mut(path)?;
        let new_idx = self.nodes.len();
        match &mut self.nodes[parent].kind {
            NodeKind::Dir { children } => {
                children.insert(name, new_idx);
            }
            _ => unreachable!("parent_dir_mut checked"),
        }
        self.nodes.push(Node {
            kind: NodeKind::File { data },
            meta,
        });
        Ok(())
    }

    /// Convenience: `mkdir_p(parent)` then write with default metadata.
    pub fn write_p(&mut self, path: &VPath, data: impl Into<Arc<Vec<u8>>>) -> Result<(), FsError> {
        if let Some(parent) = path.parent() {
            self.mkdir_p(&parent)?;
        }
        self.write(path, data, Meta::file())
    }

    /// Create a symlink at `path` pointing to `target`.
    pub fn symlink(&mut self, path: &VPath, target: &str) -> Result<(), FsError> {
        if self.lookup_no_follow(path).is_ok() {
            return Err(FsError::AlreadyExists(path.clone()));
        }
        let (parent, name) = self.parent_dir_mut(path)?;
        let new_idx = self.nodes.len();
        match &mut self.nodes[parent].kind {
            NodeKind::Dir { children } => {
                children.insert(name, new_idx);
            }
            _ => unreachable!("parent_dir_mut checked"),
        }
        self.nodes.push(Node {
            kind: NodeKind::Symlink {
                target: target.to_string(),
            },
            meta: Meta {
                mode: 0o777,
                uid: 0,
                gid: 0,
            },
        });
        Ok(())
    }

    /// Remove a file or symlink (not a directory).
    pub fn unlink(&mut self, path: &VPath) -> Result<(), FsError> {
        let idx = self.lookup_no_follow(path)?;
        if matches!(self.nodes[idx].kind, NodeKind::Dir { .. }) {
            return Err(FsError::IsADirectory(path.clone()));
        }
        let (parent, name) = self.parent_dir_mut(path)?;
        if let NodeKind::Dir { children } = &mut self.nodes[parent].kind {
            children.remove(&name);
        }
        Ok(())
    }

    /// Remove an entire subtree (like `rm -r`). Removing the root empties
    /// the filesystem.
    pub fn remove_all(&mut self, path: &VPath) -> Result<(), FsError> {
        if path.is_root() {
            *self = MemFs::new();
            return Ok(());
        }
        let _ = self.lookup_no_follow(path)?;
        let (parent, name) = self.parent_dir_mut(path)?;
        if let NodeKind::Dir { children } = &mut self.nodes[parent].kind {
            children.remove(&name);
        }
        // Orphaned nodes stay in the slab; MemFs is not long-lived enough
        // in experiments for that to matter, and ids stay stable.
        Ok(())
    }

    /// Change mode bits.
    pub fn chmod(&mut self, path: &VPath, mode: u32) -> Result<(), FsError> {
        let (idx, _) = self.resolve(path)?;
        self.nodes[idx].meta.mode = mode;
        Ok(())
    }

    /// Change ownership.
    pub fn chown(&mut self, path: &VPath, uid: u32, gid: u32) -> Result<(), FsError> {
        let (idx, _) = self.resolve(path)?;
        self.nodes[idx].meta.uid = uid;
        self.nodes[idx].meta.gid = gid;
        Ok(())
    }

    // ------------------------------------------------------------ archive

    /// Serialize the subtree at `root` into an [`Archive`] (sorted walk,
    /// deterministic bytes).
    pub fn to_archive(&self, root: &VPath) -> Result<Archive, FsError> {
        let mut archive = Archive::new();
        for p in self.walk(root)? {
            let rel = p
                .rebase(root, &VPath::root())
                .expect("walked paths are under root")
                .to_string();
            let rel = rel.trim_start_matches('/').to_string();
            let idx = self.lookup_no_follow(&p)?;
            let node = &self.nodes[idx];
            let kind = match &node.kind {
                NodeKind::File { data } => EntryKind::File(Arc::clone(data)),
                NodeKind::Dir { .. } => EntryKind::Dir,
                NodeKind::Symlink { target } => EntryKind::Symlink(target.clone()),
            };
            archive.push(Entry {
                path: rel,
                kind,
                mode: node.meta.mode,
                uid: node.meta.uid,
                gid: node.meta.gid,
            });
        }
        Ok(archive)
    }

    /// Materialize an archive under `root` (plain extraction: whiteout
    /// entries are ignored here — layer semantics live in `hpcc-oci`).
    pub fn apply_archive(&mut self, root: &VPath, archive: &Archive) -> Result<(), FsError> {
        self.mkdir_p(root)?;
        for e in &archive.entries {
            let at = root.join(&e.path);
            let meta = Meta {
                mode: e.mode,
                uid: e.uid,
                gid: e.gid,
            };
            match &e.kind {
                EntryKind::Dir => {
                    if !self.exists(&at) {
                        if let Some(parent) = at.parent() {
                            self.mkdir_p(&parent)?;
                        }
                        self.mkdir(&at, meta)?;
                    } else {
                        self.chmod(&at, e.mode)?;
                        self.chown(&at, e.uid, e.gid)?;
                    }
                }
                EntryKind::File(data) => {
                    if let Some(parent) = at.parent() {
                        self.mkdir_p(&parent)?;
                    }
                    self.write(&at, Arc::clone(data), meta)?;
                }
                EntryKind::Symlink(target) => {
                    if let Some(parent) = at.parent() {
                        self.mkdir_p(&parent)?;
                    }
                    if self.lookup_no_follow(&at).is_ok() {
                        self.unlink(&at)?;
                    }
                    self.symlink(&at, target)?;
                }
                EntryKind::Whiteout | EntryKind::OpaqueDir => {}
            }
        }
        Ok(())
    }

    /// Content digest of the subtree at `root` (digest of its archive).
    pub fn tree_digest(&self, root: &VPath) -> Result<Digest, FsError> {
        Ok(self.to_archive(root)?.digest())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> VPath {
        VPath::parse(s)
    }

    fn sample() -> MemFs {
        let mut fs = MemFs::new();
        fs.write_p(&p("/usr/lib/libm.so"), b"ELF".to_vec()).unwrap();
        fs.write_p(&p("/etc/hosts"), b"127.0.0.1 localhost".to_vec())
            .unwrap();
        fs.symlink(&p("/usr/lib/libm.so.6"), "libm.so").unwrap();
        fs
    }

    #[test]
    fn write_and_read() {
        let fs = sample();
        assert_eq!(&**fs.read(&p("/usr/lib/libm.so")).unwrap(), b"ELF");
    }

    #[test]
    fn read_follows_symlinks() {
        let fs = sample();
        assert_eq!(&**fs.read(&p("/usr/lib/libm.so.6")).unwrap(), b"ELF");
        assert_eq!(fs.readlink(&p("/usr/lib/libm.so.6")).unwrap(), "libm.so");
    }

    #[test]
    fn symlinked_directories_resolve() {
        let mut fs = sample();
        fs.symlink(&p("/lib"), "/usr/lib").unwrap();
        assert_eq!(&**fs.read(&p("/lib/libm.so")).unwrap(), b"ELF");
        // Intermediate + final symlink chains.
        assert_eq!(&**fs.read(&p("/lib/libm.so.6")).unwrap(), b"ELF");
    }

    #[test]
    fn symlink_loops_detected() {
        let mut fs = MemFs::new();
        fs.symlink(&p("/a"), "/b").unwrap();
        fs.symlink(&p("/b"), "/a").unwrap();
        assert!(matches!(fs.read(&p("/a")), Err(FsError::SymlinkLoop(_))));
    }

    #[test]
    fn relative_symlink_targets() {
        let mut fs = MemFs::new();
        fs.write_p(&p("/opt/app/bin/tool"), b"x".to_vec()).unwrap();
        fs.symlink(&p("/opt/app/current"), "bin").unwrap();
        assert_eq!(&**fs.read(&p("/opt/app/current/tool")).unwrap(), b"x");
    }

    #[test]
    fn missing_paths_error() {
        let fs = sample();
        assert!(matches!(fs.read(&p("/nope")), Err(FsError::NotFound(_))));
        assert!(matches!(
            fs.list(&p("/etc/hosts")),
            Err(FsError::NotADirectory(_))
        ));
        assert!(matches!(fs.read(&p("/usr")), Err(FsError::IsADirectory(_))));
    }

    #[test]
    fn mkdir_p_is_idempotent() {
        let mut fs = MemFs::new();
        fs.mkdir_p(&p("/a/b/c")).unwrap();
        fs.mkdir_p(&p("/a/b/c")).unwrap();
        assert_eq!(fs.list(&p("/a/b")).unwrap(), vec!["c"]);
    }

    #[test]
    fn mkdir_p_through_file_fails() {
        let mut fs = MemFs::new();
        fs.write_p(&p("/a"), b"file".to_vec()).unwrap();
        assert!(matches!(
            fs.mkdir_p(&p("/a/b")),
            Err(FsError::NotADirectory(_))
        ));
    }

    #[test]
    fn overwrite_updates_contents() {
        let mut fs = sample();
        fs.write_p(&p("/etc/hosts"), b"new".to_vec()).unwrap();
        assert_eq!(&**fs.read(&p("/etc/hosts")).unwrap(), b"new");
    }

    #[test]
    fn unlink_and_remove_all() {
        let mut fs = sample();
        fs.unlink(&p("/etc/hosts")).unwrap();
        assert!(!fs.exists(&p("/etc/hosts")));
        assert!(matches!(
            fs.unlink(&p("/usr")),
            Err(FsError::IsADirectory(_))
        ));
        fs.remove_all(&p("/usr")).unwrap();
        assert!(!fs.exists(&p("/usr/lib/libm.so")));
    }

    #[test]
    fn list_is_sorted() {
        let mut fs = MemFs::new();
        fs.write_p(&p("/d/zebra"), vec![]).unwrap();
        fs.write_p(&p("/d/apple"), vec![]).unwrap();
        assert_eq!(fs.list(&p("/d")).unwrap(), vec!["apple", "zebra"]);
    }

    #[test]
    fn walk_enumerates_everything() {
        let fs = sample();
        let paths: Vec<String> = fs
            .walk(&VPath::root())
            .unwrap()
            .iter()
            .map(|x| x.to_string())
            .collect();
        assert!(paths.contains(&"/usr/lib/libm.so".to_string()));
        assert!(paths.contains(&"/etc".to_string()));
        assert_eq!(fs.file_count(&VPath::root()), 2);
        assert_eq!(fs.total_file_bytes(&VPath::root()), 3 + 19);
    }

    #[test]
    fn chmod_chown_stat() {
        let mut fs = sample();
        fs.chmod(&p("/etc/hosts"), 0o600).unwrap();
        fs.chown(&p("/etc/hosts"), 1000, 100).unwrap();
        let st = fs.stat(&p("/etc/hosts")).unwrap();
        assert_eq!(st.meta.mode, 0o600);
        assert_eq!((st.meta.uid, st.meta.gid), (1000, 100));
        assert_eq!(st.kind, FileType::File);
        assert_eq!(st.size, 19);
    }

    #[test]
    fn lstat_sees_the_link_itself() {
        let fs = sample();
        let st = fs.lstat(&p("/usr/lib/libm.so.6")).unwrap();
        assert_eq!(st.kind, FileType::Symlink);
        let followed = fs.stat(&p("/usr/lib/libm.so.6")).unwrap();
        assert_eq!(followed.kind, FileType::File);
    }

    #[test]
    fn setuid_detection() {
        let mut fs = MemFs::new();
        fs.write_p(&p("/bin/starter"), vec![1]).unwrap();
        fs.chmod(&p("/bin/starter"), 0o4755).unwrap();
        assert_eq!(fs.stat(&p("/bin/starter")).unwrap().meta.mode, 0o4755);
    }

    #[test]
    fn archive_roundtrip_preserves_tree() {
        let fs = sample();
        let archive = fs.to_archive(&VPath::root()).unwrap();
        let mut restored = MemFs::new();
        restored.apply_archive(&VPath::root(), &archive).unwrap();
        assert_eq!(
            restored.tree_digest(&VPath::root()).unwrap(),
            fs.tree_digest(&VPath::root()).unwrap()
        );
        assert_eq!(&**restored.read(&p("/usr/lib/libm.so.6")).unwrap(), b"ELF");
    }

    #[test]
    fn a_snapshot_shares_file_bytes_with_its_tree() {
        let fs = sample();
        let archive = fs.to_archive(&VPath::root()).unwrap();
        let mut restored = MemFs::new();
        restored.apply_archive(&VPath::root(), &archive).unwrap();
        let mut files = 0;
        for e in &archive.entries {
            if let EntryKind::File(data) = &e.kind {
                let at = VPath::root().join(&e.path);
                assert!(Arc::ptr_eq(data, &fs.read(&at).unwrap()), "{}", e.path);
                assert!(
                    Arc::ptr_eq(data, &restored.read(&at).unwrap()),
                    "{}",
                    e.path
                );
                files += 1;
            }
        }
        assert_eq!(files, 2);
    }

    #[test]
    fn subtree_archive_is_relative() {
        let fs = sample();
        let archive = fs.to_archive(&p("/usr")).unwrap();
        let paths: Vec<&str> = archive.entries.iter().map(|e| e.path.as_str()).collect();
        assert_eq!(paths, vec!["lib", "lib/libm.so", "lib/libm.so.6"]);
    }

    #[test]
    fn tree_digest_detects_changes() {
        let fs = sample();
        let d1 = fs.tree_digest(&VPath::root()).unwrap();
        let mut fs2 = sample();
        fs2.chmod(&p("/etc/hosts"), 0o600).unwrap();
        assert_ne!(d1, fs2.tree_digest(&VPath::root()).unwrap());
    }

    #[test]
    fn symlink_over_existing_fails() {
        let mut fs = sample();
        assert!(matches!(
            fs.symlink(&p("/etc/hosts"), "elsewhere"),
            Err(FsError::AlreadyExists(_))
        ));
    }
}
