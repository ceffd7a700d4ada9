//! Normalized absolute paths for the virtual filesystem.
//!
//! `VPath` is always absolute and normalized: no `.`/`..` segments, no
//! empty segments. Relative traversal is resolved at parse time; `..`
//! clamps at the root like a real kernel path walk (so `/../etc` is
//! `/etc`), which matters for the chroot/pivot_root security arguments the
//! runtime layer makes.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A normalized absolute path.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default)]
pub struct VPath {
    segments: Vec<String>,
}

impl VPath {
    /// The root path `/`.
    pub fn root() -> VPath {
        VPath::default()
    }

    /// Parse from a string. Accepts absolute or relative input (relative is
    /// interpreted from the root). `.` is dropped, `..` pops (clamping at
    /// root), repeated slashes collapse.
    pub fn parse(s: &str) -> VPath {
        let mut segments = Vec::new();
        for seg in s.split('/') {
            match seg {
                "" | "." => {}
                ".." => {
                    segments.pop();
                }
                other => segments.push(other.to_string()),
            }
        }
        VPath { segments }
    }

    /// Path segments, root-first.
    pub fn segments(&self) -> &[String] {
        &self.segments
    }

    /// True for `/`.
    pub fn is_root(&self) -> bool {
        self.segments.is_empty()
    }

    /// Number of segments.
    pub fn depth(&self) -> usize {
        self.segments.len()
    }

    /// The final segment, if any.
    pub fn file_name(&self) -> Option<&str> {
        self.segments.last().map(String::as_str)
    }

    /// Parent path; `/` is its own parent's fixed point (`None`).
    pub fn parent(&self) -> Option<VPath> {
        if self.segments.is_empty() {
            return None;
        }
        Some(VPath {
            segments: self.segments[..self.segments.len() - 1].to_vec(),
        })
    }

    /// Append a relative string (which may itself contain `/`, `..`).
    pub fn join(&self, rel: &str) -> VPath {
        if rel.starts_with('/') {
            return VPath::parse(rel);
        }
        let mut segments = self.segments.clone();
        for seg in rel.split('/') {
            match seg {
                "" | "." => {}
                ".." => {
                    segments.pop();
                }
                other => segments.push(other.to_string()),
            }
        }
        VPath { segments }
    }

    /// Append a single literal segment (must not contain `/`).
    pub fn child(&self, name: &str) -> VPath {
        debug_assert!(!name.is_empty() && !name.contains('/'));
        let mut segments = self.segments.clone();
        segments.push(name.to_string());
        VPath { segments }
    }

    /// True if `self` is `prefix` or lies below it.
    pub fn starts_with(&self, prefix: &VPath) -> bool {
        self.segments.len() >= prefix.segments.len()
            && self.segments[..prefix.segments.len()] == prefix.segments[..]
    }

    /// Re-root: interpret `self` as relative to `old_root` and graft onto
    /// `new_root`. Returns `None` if `self` is not under `old_root`.
    pub(crate) fn rebase(&self, old_root: &VPath, new_root: &VPath) -> Option<VPath> {
        if !self.starts_with(old_root) {
            return None;
        }
        let mut segments = new_root.segments.clone();
        segments.extend_from_slice(&self.segments[old_root.segments.len()..]);
        Some(VPath { segments })
    }

    /// Iterate ancestor paths from root (exclusive) down to the parent.
    pub(crate) fn ancestors(&self) -> impl Iterator<Item = VPath> + '_ {
        (0..self.segments.len()).map(move |i| VPath {
            segments: self.segments[..i].to_vec(),
        })
    }
}

// Small macro so Debug and Display render identically.
macro_rules! fmt_impl {
    () => {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            if self.segments.is_empty() {
                return f.write_str("/");
            }
            for seg in &self.segments {
                write!(f, "/{seg}")?;
            }
            Ok(())
        }
    };
}

impl fmt::Display for VPath {
    fmt_impl!();
}

impl fmt::Debug for VPath {
    fmt_impl!();
}

impl From<&str> for VPath {
    fn from(s: &str) -> VPath {
        VPath::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parse_normalizes() {
        assert_eq!(VPath::parse("/a//b/./c").to_string(), "/a/b/c");
        assert_eq!(VPath::parse("a/b").to_string(), "/a/b");
        assert_eq!(VPath::parse("/").to_string(), "/");
        assert_eq!(VPath::parse("").to_string(), "/");
    }

    #[test]
    fn dotdot_clamps_at_root() {
        assert_eq!(VPath::parse("/../etc").to_string(), "/etc");
        assert_eq!(VPath::parse("/a/b/../c").to_string(), "/a/c");
        assert_eq!(VPath::parse("/a/../..").to_string(), "/");
    }

    #[test]
    fn join_handles_absolute_and_relative() {
        let base = VPath::parse("/usr/lib");
        assert_eq!(base.join("x/y").to_string(), "/usr/lib/x/y");
        assert_eq!(base.join("../bin").to_string(), "/usr/bin");
        assert_eq!(base.join("/etc").to_string(), "/etc");
    }

    #[test]
    fn parent_and_file_name() {
        let p = VPath::parse("/a/b/c");
        assert_eq!(p.file_name(), Some("c"));
        assert_eq!(p.parent().unwrap().to_string(), "/a/b");
        assert_eq!(VPath::root().parent(), None);
        assert_eq!(VPath::root().file_name(), None);
    }

    #[test]
    fn starts_with_and_rebase() {
        let p = VPath::parse("/data/set1/file");
        let old = VPath::parse("/data");
        let new = VPath::parse("/mnt/host");
        assert!(p.starts_with(&old));
        assert_eq!(
            p.rebase(&old, &new).unwrap().to_string(),
            "/mnt/host/set1/file"
        );
        assert_eq!(p.rebase(&VPath::parse("/other"), &new), None);
        // Everything starts with root.
        assert!(p.starts_with(&VPath::root()));
    }

    #[test]
    fn ancestors_walk_down() {
        let p = VPath::parse("/a/b/c");
        let anc: Vec<String> = p.ancestors().map(|a| a.to_string()).collect();
        assert_eq!(anc, vec!["/", "/a", "/a/b"]);
    }

    #[test]
    fn child_appends() {
        assert_eq!(VPath::root().child("etc").to_string(), "/etc");
    }

    proptest! {
        #[test]
        fn display_parse_roundtrip(segs in proptest::collection::vec("[a-z0-9_.-]{1,8}", 0..6)) {
            // Filter out "." and ".." which normalize away.
            let segs: Vec<String> = segs.into_iter().filter(|s| s != "." && s != "..").collect();
            let joined = format!("/{}", segs.join("/"));
            let p = VPath::parse(&joined);
            prop_assert_eq!(VPath::parse(&p.to_string()), p);
        }

        #[test]
        fn parse_is_idempotent(s in "[a-z/.]{0,32}") {
            let once = VPath::parse(&s);
            let twice = VPath::parse(&once.to_string());
            prop_assert_eq!(once, twice);
        }
    }
}
