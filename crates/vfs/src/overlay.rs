//! OverlayFS: a union view over read-only lower layers and one writable
//! upper layer, with whiteouts and copy-up.
//!
//! This is the mechanism behind `overlayfs`/`fuse-overlayfs` in the survey:
//! OCI bundles mount their layers through it, and HPC engines either use it
//! (Podman, Podman-HPC) or avoid it by flattening (Shifter, Sarus,
//! Charliecloud, Singularity). Both paths exist in the testbed so the
//! trade-off is measurable.

use crate::fs::{FileType, FsError, MemFs, Meta, Stat};
use crate::path::VPath;
use std::collections::BTreeSet;
use std::sync::Arc;

/// A union filesystem: `upper` (writable) over `lowers` (read-only,
/// topmost first).
#[derive(Debug, Clone)]
pub struct OverlayFs {
    lowers: Vec<Arc<MemFs>>,
    upper: MemFs,
    whiteouts: BTreeSet<VPath>,
}

impl OverlayFs {
    /// Build an overlay; `lowers` are ordered topmost-first (the first
    /// element shadows the rest), mirroring `lowerdir=a:b:c` semantics.
    pub fn new(lowers: Vec<Arc<MemFs>>) -> OverlayFs {
        OverlayFs {
            lowers,
            upper: MemFs::new(),
            whiteouts: BTreeSet::new(),
        }
    }

    /// Number of lower layers.
    pub(crate) fn lower_count(&self) -> usize {
        self.lowers.len()
    }

    /// Read-only access to the upper layer (diff extraction).
    pub fn upper(&self) -> &MemFs {
        &self.upper
    }

    /// True if `path` or one of its ancestors is whited-out and not
    /// re-created in the upper.
    fn hidden(&self, path: &VPath) -> bool {
        if self.upper.exists(path) {
            return false;
        }
        // Direct or ancestor whiteout hides lower content.
        if self.whiteouts.contains(path) {
            return true;
        }
        for anc in path.ancestors() {
            if self.whiteouts.contains(&anc) && !self.upper.exists(&anc) {
                return true;
            }
        }
        false
    }

    /// The layer (upper = None, lower index = Some(i)) that wins for a path.
    fn winning_layer(&self, path: &VPath) -> Option<Option<usize>> {
        if self.upper.exists(path) {
            return Some(None);
        }
        if self.hidden(path) {
            return None;
        }
        for (i, lower) in self.lowers.iter().enumerate() {
            if lower.exists(path) {
                return Some(Some(i));
            }
        }
        None
    }

    /// True if the path exists in the union view.
    pub fn exists(&self, path: &VPath) -> bool {
        self.winning_layer(path).is_some()
    }

    /// Stat through the union.
    pub fn stat(&self, path: &VPath) -> Result<Stat, FsError> {
        match self.winning_layer(path) {
            Some(None) => self.upper.stat(path),
            Some(Some(i)) => self.lowers[i].stat(path),
            None => Err(FsError::NotFound(path.clone())),
        }
    }

    /// Read a file through the union.
    pub fn read(&self, path: &VPath) -> Result<Arc<Vec<u8>>, FsError> {
        match self.winning_layer(path) {
            Some(None) => self.upper.read(path),
            Some(Some(i)) => self.lowers[i].read(path),
            None => Err(FsError::NotFound(path.clone())),
        }
    }

    /// List a directory: merged view of all layers, whiteouts applied.
    pub fn list(&self, path: &VPath) -> Result<Vec<String>, FsError> {
        let mut names = BTreeSet::new();
        let mut found_dir = false;

        if let Ok(kids) = self.upper.list(path) {
            found_dir = true;
            names.extend(kids);
        } else if self.upper.exists(path) {
            return Err(FsError::NotADirectory(path.clone()));
        }

        if !self.hidden(path) {
            for lower in &self.lowers {
                if let Ok(kids) = lower.list(path) {
                    found_dir = true;
                    names.extend(kids);
                }
            }
        }

        if !found_dir {
            return if self.exists(path) {
                Err(FsError::NotADirectory(path.clone()))
            } else {
                Err(FsError::NotFound(path.clone()))
            };
        }

        Ok(names
            .into_iter()
            .filter(|n| self.exists(&path.child(n)))
            .collect())
    }

    /// Copy-up: materialize ancestors of `path` in the upper layer so a
    /// write can land there.
    fn copy_up_parents(&mut self, path: &VPath) -> Result<(), FsError> {
        for anc in path.ancestors() {
            if self.upper.exists(&anc) {
                continue;
            }
            match self.stat(&anc) {
                Ok(s) if s.kind == FileType::Dir => {
                    self.upper.mkdir(&anc, s.meta)?;
                }
                Ok(_) => return Err(FsError::NotADirectory(anc)),
                Err(_) => return Err(FsError::NotFound(anc)),
            }
        }
        Ok(())
    }

    /// Write a file (copy-up then write to upper). Creates the file if it
    /// does not exist anywhere.
    pub fn write(
        &mut self,
        path: &VPath,
        data: impl Into<Arc<Vec<u8>>>,
        meta: Meta,
    ) -> Result<(), FsError> {
        if let Ok(st) = self.stat(path) {
            if st.kind == FileType::Dir {
                return Err(FsError::IsADirectory(path.clone()));
            }
        }
        self.copy_up_parents(path)?;
        self.upper.write(path, data, meta)?;
        self.whiteouts.remove(path);
        Ok(())
    }

    /// Make a directory (and missing parents) visible in the union,
    /// materializing existing union directories into the upper layer on
    /// the way down.
    pub fn mkdir_p(&mut self, path: &VPath) -> Result<(), FsError> {
        for anc in path.ancestors().skip(1).chain([path.clone()]) {
            if self.upper.exists(&anc) {
                continue;
            }
            match self.stat(&anc) {
                Ok(s) if s.kind == FileType::Dir => self.upper.mkdir(&anc, s.meta)?,
                Ok(_) => return Err(FsError::NotADirectory(anc)),
                Err(_) => self.upper.mkdir(&anc, Meta::dir())?,
            }
            self.whiteouts.remove(&anc);
        }
        Ok(())
    }

    /// Remove a path from the union view. If it only exists in lower
    /// layers this records a whiteout; upper content is deleted for real.
    pub fn remove(&mut self, path: &VPath) -> Result<(), FsError> {
        if !self.exists(path) {
            return Err(FsError::NotFound(path.clone()));
        }
        if self.upper.exists(path) {
            self.upper.remove_all(path)?;
        }
        let in_lower = self.lowers.iter().any(|l| l.exists(path));
        if in_lower {
            self.whiteouts.insert(path.clone());
        }
        Ok(())
    }

    /// Flatten the union into a standalone filesystem (what Charliecloud's
    /// unpacked-directory approach and squash conversion do).
    pub fn flatten(&self) -> Result<MemFs, FsError> {
        let mut out = MemFs::new();
        self.flatten_into(&VPath::root(), &mut out)?;
        Ok(out)
    }

    fn flatten_into(&self, at: &VPath, out: &mut MemFs) -> Result<(), FsError> {
        for name in self.list(at)? {
            let p = at.child(&name);
            // lstat semantics: prefer the winning layer's lstat so symlinks
            // copy as symlinks.
            let winner = self.winning_layer(&p).expect("listed entries exist");
            let (st, readlink) = match winner {
                None => (self.upper.lstat(&p)?, self.upper.readlink(&p).ok()),
                Some(i) => (self.lowers[i].lstat(&p)?, self.lowers[i].readlink(&p).ok()),
            };
            match st.kind {
                FileType::Dir => {
                    out.mkdir(&p, st.meta)?;
                    self.flatten_into(&p, out)?;
                }
                FileType::File => {
                    out.write(&p, self.read(&p)?, st.meta)?;
                }
                FileType::Symlink => {
                    out.symlink(&p, &readlink.expect("symlink has target"))?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> VPath {
        VPath::parse(s)
    }

    fn base_layer() -> Arc<MemFs> {
        let mut fs = MemFs::new();
        fs.write_p(&p("/etc/os-release"), b"debian".to_vec())
            .unwrap();
        fs.write_p(&p("/usr/lib/libc.so"), b"libc".to_vec())
            .unwrap();
        fs.write_p(&p("/usr/share/doc/readme"), b"docs".to_vec())
            .unwrap();
        Arc::new(fs)
    }

    fn app_layer() -> Arc<MemFs> {
        let mut fs = MemFs::new();
        fs.write_p(&p("/opt/app/run"), b"app-v1".to_vec()).unwrap();
        fs.write_p(&p("/etc/os-release"), b"app-override".to_vec())
            .unwrap();
        Arc::new(fs)
    }

    fn overlay() -> OverlayFs {
        // app layer on top of base layer.
        OverlayFs::new(vec![app_layer(), base_layer()])
    }

    #[test]
    fn upper_lower_precedence() {
        let o = overlay();
        // App layer shadows base for the shared path.
        assert_eq!(&**o.read(&p("/etc/os-release")).unwrap(), b"app-override");
        // Unshadowed base content visible.
        assert_eq!(&**o.read(&p("/usr/lib/libc.so")).unwrap(), b"libc");
    }

    #[test]
    fn writes_go_to_upper_and_win() {
        let mut o = overlay();
        o.write(&p("/etc/os-release"), b"edited".to_vec(), Meta::file())
            .unwrap();
        assert_eq!(&**o.read(&p("/etc/os-release")).unwrap(), b"edited");
        // Lower layers untouched.
        assert_eq!(&**o.upper().read(&p("/etc/os-release")).unwrap(), b"edited");
    }

    #[test]
    fn copy_up_creates_parents() {
        let mut o = overlay();
        o.write(&p("/usr/lib/newlib.so"), b"new".to_vec(), Meta::file())
            .unwrap();
        assert!(o.upper().exists(&p("/usr/lib")));
        assert_eq!(&**o.read(&p("/usr/lib/newlib.so")).unwrap(), b"new");
        // Existing lower files in the same dir still visible.
        assert_eq!(&**o.read(&p("/usr/lib/libc.so")).unwrap(), b"libc");
    }

    #[test]
    fn whiteout_hides_lower() {
        let mut o = overlay();
        o.remove(&p("/usr/share/doc/readme")).unwrap();
        assert!(!o.exists(&p("/usr/share/doc/readme")));
        assert!(matches!(
            o.read(&p("/usr/share/doc/readme")),
            Err(FsError::NotFound(_))
        ));
        // Listing no longer shows it.
        assert_eq!(o.list(&p("/usr/share/doc")).unwrap(), Vec::<String>::new());
    }

    #[test]
    fn whiteout_dir_hides_subtree() {
        let mut o = overlay();
        o.remove(&p("/usr/share")).unwrap();
        assert!(!o.exists(&p("/usr/share/doc/readme")));
        assert!(o.exists(&p("/usr/lib/libc.so")));
    }

    #[test]
    fn recreate_after_whiteout() {
        let mut o = overlay();
        o.remove(&p("/etc/os-release")).unwrap();
        assert!(!o.exists(&p("/etc/os-release")));
        o.write(&p("/etc/os-release"), b"fresh".to_vec(), Meta::file())
            .unwrap();
        assert_eq!(&**o.read(&p("/etc/os-release")).unwrap(), b"fresh");
    }

    #[test]
    fn list_merges_layers() {
        let o = overlay();
        let names = o.list(&p("/")).unwrap();
        assert_eq!(names, vec!["etc", "opt", "usr"]);
    }

    #[test]
    fn modify_reads_lower_writes_upper() {
        let mut o = overlay();
        let path = p("/usr/lib/libc.so");
        let mut v = o.read(&path).unwrap().to_vec();
        v.extend_from_slice(b"-patched");
        let meta = o.stat(&path).unwrap().meta;
        o.write(&path, v, meta).unwrap();
        assert_eq!(&**o.read(&path).unwrap(), b"libc-patched");
    }

    #[test]
    fn flatten_materializes_union() {
        let mut o = overlay();
        o.remove(&p("/usr/share/doc/readme")).unwrap();
        o.write(&p("/opt/app/config"), b"cfg".to_vec(), Meta::file())
            .unwrap();
        let flat = o.flatten().unwrap();
        assert_eq!(
            &**flat.read(&p("/etc/os-release")).unwrap(),
            b"app-override"
        );
        assert_eq!(&**flat.read(&p("/opt/app/config")).unwrap(), b"cfg");
        assert!(!flat.exists(&p("/usr/share/doc/readme")));
        assert_eq!(&**flat.read(&p("/usr/lib/libc.so")).unwrap(), b"libc");
    }

    #[test]
    fn flatten_preserves_symlinks() {
        let mut base = MemFs::new();
        base.write_p(&p("/usr/bin/python3.11"), b"py".to_vec())
            .unwrap();
        base.symlink(&p("/usr/bin/python3"), "python3.11").unwrap();
        let o = OverlayFs::new(vec![Arc::new(base)]);
        let flat = o.flatten().unwrap();
        assert_eq!(flat.readlink(&p("/usr/bin/python3")).unwrap(), "python3.11");
    }

    #[test]
    fn remove_missing_is_error() {
        let mut o = overlay();
        assert!(matches!(o.remove(&p("/nope")), Err(FsError::NotFound(_))));
    }

    #[test]
    fn three_layer_stack_ordering() {
        let mut l3 = MemFs::new();
        l3.write_p(&p("/f"), b"bottom".to_vec()).unwrap();
        let mut l2 = MemFs::new();
        l2.write_p(&p("/f"), b"middle".to_vec()).unwrap();
        let mut l1 = MemFs::new();
        l1.write_p(&p("/f"), b"top".to_vec()).unwrap();
        let o = OverlayFs::new(vec![Arc::new(l1), Arc::new(l2), Arc::new(l3)]);
        assert_eq!(&**o.read(&p("/f")).unwrap(), b"top");
    }

    #[test]
    fn empty_overlay_is_just_the_upper() {
        let mut o = OverlayFs::new(vec![]);
        assert_eq!(o.list(&p("/")).unwrap(), Vec::<String>::new());
        o.write(&p("/only"), b"x".to_vec(), Meta::file()).unwrap();
        assert_eq!(o.list(&p("/")).unwrap(), vec!["only"]);
        assert_eq!(o.lower_count(), 0);
    }
}
