//! Control groups (v1/v2) with delegation.
//!
//! The survey needs this model for one rule: the rootless-Kubelet
//! scenarios require "enabling version 2 of the Linux cgroups framework
//! \[and\] cgroup delegations" (§6.5) — a user may create groups only under
//! a subtree delegated to them, and v1 cannot delegate at all.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Cgroup framework version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CgroupVersion {
    V1,
    V2,
}

/// Errors from the hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CgroupError {
    NotFound(String),
    AlreadyExists(String),
    /// Creation under a group not delegated to this uid (v2 delegation
    /// rule) or any creation by non-root on v1.
    NotDelegated {
        group: String,
        uid: u32,
    },
    /// v1 has no delegation.
    DelegationUnsupported,
}

impl std::fmt::Display for CgroupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CgroupError::NotFound(g) => write!(f, "cgroup {g} not found"),
            CgroupError::AlreadyExists(g) => write!(f, "cgroup {g} exists"),
            CgroupError::NotDelegated { group, uid } => {
                write!(f, "cgroup {group} not delegated to uid {uid}")
            }
            CgroupError::DelegationUnsupported => f.write_str("cgroup v1 cannot delegate subtrees"),
        }
    }
}

impl std::error::Error for CgroupError {}

/// A cgroup hierarchy. Group names are slash-separated paths under the
/// root, e.g. `slurm/job123/step0`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CgroupTree {
    version: CgroupVersion,
    /// Every group, root (`""`) included, with the uid its subtree is
    /// delegated to (v2 only).
    groups: BTreeMap<String, Option<u32>>,
}

impl CgroupTree {
    pub fn new(version: CgroupVersion) -> CgroupTree {
        CgroupTree {
            version,
            groups: BTreeMap::from([(String::new(), None)]),
        }
    }

    pub fn version(&self) -> CgroupVersion {
        self.version
    }

    fn parent_of(path: &str) -> String {
        match path.rsplit_once('/') {
            Some((parent, _)) => parent.to_string(),
            None => String::new(),
        }
    }

    /// Is `uid` allowed to manage `path` (root always; otherwise the
    /// nearest delegated ancestor must match, v2 only)?
    fn may_manage(&self, path: &str, uid: u32) -> bool {
        if uid == 0 {
            return true;
        }
        if self.version == CgroupVersion::V1 {
            return false;
        }
        // Walk up looking for a delegation to this uid.
        let mut cur = path.to_string();
        loop {
            if self.groups.get(&cur) == Some(&Some(uid)) {
                return true;
            }
            if cur.is_empty() {
                return false;
            }
            cur = Self::parent_of(&cur);
        }
    }

    /// Create a group as `uid`. Parents must exist.
    pub fn create(&mut self, path: &str, uid: u32) -> Result<(), CgroupError> {
        if self.groups.contains_key(path) {
            return Err(CgroupError::AlreadyExists(path.to_string()));
        }
        let parent = Self::parent_of(path);
        if !self.groups.contains_key(&parent) {
            return Err(CgroupError::NotFound(parent));
        }
        if !self.may_manage(&parent, uid) {
            return Err(CgroupError::NotDelegated { group: parent, uid });
        }
        self.groups.insert(path.to_string(), None);
        Ok(())
    }

    /// Delegate a subtree to a user (v2 only; performed by root or an
    /// already-delegated manager).
    pub fn delegate(
        &mut self,
        path: &str,
        manager_uid: u32,
        to_uid: u32,
    ) -> Result<(), CgroupError> {
        if self.version == CgroupVersion::V1 {
            return Err(CgroupError::DelegationUnsupported);
        }
        if !self.groups.contains_key(path) {
            return Err(CgroupError::NotFound(path.to_string()));
        }
        if !self.may_manage(path, manager_uid) {
            return Err(CgroupError::NotDelegated {
                group: path.to_string(),
                uid: manager_uid,
            });
        }
        self.groups.insert(path.to_string(), Some(to_uid));
        Ok(())
    }

    /// All group paths, sorted.
    pub fn paths(&self) -> Vec<String> {
        self.groups.keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_creates_groups() {
        let mut t = CgroupTree::new(CgroupVersion::V2);
        t.create("slurm", 0).unwrap();
        t.create("slurm/job1", 0).unwrap();
        assert!(t.paths().contains(&"slurm/job1".to_string()));
    }

    #[test]
    fn non_root_needs_delegation_on_v2() {
        let mut t = CgroupTree::new(CgroupVersion::V2);
        t.create("user", 0).unwrap();
        let err = t.create("user/mine", 1000).unwrap_err();
        assert!(matches!(err, CgroupError::NotDelegated { .. }));
        t.delegate("user", 0, 1000).unwrap();
        t.create("user/mine", 1000).unwrap();
        // Delegation covers the whole subtree.
        t.create("user/mine/sub", 1000).unwrap();
    }

    #[test]
    fn v1_cannot_delegate() {
        let mut t = CgroupTree::new(CgroupVersion::V1);
        t.create("user", 0).unwrap();
        assert_eq!(
            t.delegate("user", 0, 1000),
            Err(CgroupError::DelegationUnsupported)
        );
        // And thus non-root can never create groups — the §6.5 requirement
        // for cgroup v2 in rootless Kubelet setups.
        assert!(matches!(
            t.create("user/mine", 1000),
            Err(CgroupError::NotDelegated { .. })
        ));
    }

    #[test]
    fn delegation_does_not_leak_to_other_users() {
        let mut t = CgroupTree::new(CgroupVersion::V2);
        t.create("user", 0).unwrap();
        t.delegate("user", 0, 1000).unwrap();
        assert!(matches!(
            t.create("user/notmine", 2000),
            Err(CgroupError::NotDelegated { .. })
        ));
    }

    #[test]
    fn missing_parent_rejected() {
        let mut t = CgroupTree::new(CgroupVersion::V2);
        assert!(matches!(t.create("a/b", 0), Err(CgroupError::NotFound(_))));
    }

    #[test]
    fn duplicate_rejected() {
        let mut t = CgroupTree::new(CgroupVersion::V2);
        t.create("a", 0).unwrap();
        assert_eq!(
            t.create("a", 0),
            Err(CgroupError::AlreadyExists("a".into()))
        );
    }
}
