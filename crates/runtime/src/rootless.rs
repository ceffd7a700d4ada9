//! The rootless policy engine.
//!
//! Section 4.1.2 is an argument about *which mounts the kernel permits for
//! whom*:
//!
//! * A user in their own user namespace may `pivot_root` and may create
//!   mount namespaces.
//! * Even as UID 0 inside that namespace, mounting block devices (or files
//!   acting as such via kernel filesystem drivers, e.g. SquashFS images)
//!   is forbidden — "kernel drivers are not hardened against maliciously
//!   crafted block-device data".
//! * A SquashFS image can therefore be mounted only (a) by a setuid-root
//!   helper *before* entering the namespace — and then only if the user
//!   can neither write nor substitute the image; (b) via FUSE, whose
//!   user↔kernel interface is assumed audited; or (c) not at all,
//!   unpacking to a directory instead.
//! * Bind mounts, tmpfs, overlayfs and FUSE are permitted inside a user
//!   namespace.
//!
//! These rules are encoded here as an executable policy and probed by the
//! Table 1/2 generators.

use crate::caps::{CapSet, Capability};
use serde::{Deserialize, Serialize};

/// Where the requesting process stands.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MountCredentials {
    /// Host (initial-namespace) uid of the user.
    pub host_uid: u32,
    /// Is the process inside a user namespace it created?
    pub in_user_ns: bool,
    /// Capabilities held *in the current namespace*.
    pub caps: CapSet,
    /// Is the mount being performed by a setuid-root helper binary?
    pub via_setuid_helper: bool,
}

impl MountCredentials {
    /// A normal unprivileged user on the host.
    pub fn unprivileged(host_uid: u32) -> MountCredentials {
        MountCredentials {
            host_uid,
            in_user_ns: false,
            caps: CapSet::empty(),
            via_setuid_helper: false,
        }
    }

    /// The same user after unshare(CLONE_NEWUSER): UID 0 + full caps
    /// *inside the namespace*.
    pub fn in_own_userns(host_uid: u32) -> MountCredentials {
        MountCredentials {
            host_uid,
            in_user_ns: true,
            caps: CapSet::full(),
            via_setuid_helper: false,
        }
    }

    /// Host root (or a root daemon like dockerd).
    pub fn host_root() -> MountCredentials {
        MountCredentials {
            host_uid: 0,
            in_user_ns: false,
            caps: CapSet::full(),
            via_setuid_helper: false,
        }
    }

    /// A setuid-root helper acting for the user (Shifter/Sarus/Singularity
    /// suid mode).
    pub fn setuid_helper(host_uid: u32) -> MountCredentials {
        MountCredentials {
            host_uid,
            in_user_ns: false,
            caps: CapSet::full(),
            via_setuid_helper: true,
        }
    }
}

/// The kind of mount requested.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MountRequestKind {
    /// In-kernel filesystem over (pseudo-)block data: SquashFS via loop,
    /// ext4 images, etc. The dangerous one.
    KernelBlockImage,
    /// FUSE filesystem (SquashFUSE, fuse-overlayfs).
    Fuse,
    /// Kernel overlayfs over already-mounted trees (no raw block data).
    Overlay,
    /// Bind mount of an existing host path.
    Bind,
    /// tmpfs.
    Tmpfs,
}

/// Properties of the image being mounted (for the setuid-helper
/// safeguards).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ImageProvenance {
    /// The invoking user can write to the image file.
    pub user_writable: bool,
    /// The image was supplied directly by the user (vs produced by the
    /// trusted conversion/caching service).
    pub user_supplied: bool,
}

impl ImageProvenance {
    /// A trusted, system-managed image.
    pub fn trusted() -> ImageProvenance {
        ImageProvenance {
            user_writable: false,
            user_supplied: false,
        }
    }
}

/// Policy verdicts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyViolation {
    /// Mounting kernel block images requires real root; a user namespace
    /// does not grant it.
    BlockMountInUserNs,
    /// Plain unprivileged processes cannot mount at all.
    NoMountCapability,
    /// The setuid helper must refuse images the user can write or swap.
    UntrustedImageViaSetuid,
    /// pivot_root requires a mount namespace + in-namespace SysAdmin.
    PivotRootDenied,
}

impl std::fmt::Display for PolicyViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicyViolation::BlockMountInUserNs => f.write_str(
                "kernel block-image mounts are not permitted in a user namespace \
                 (drivers not hardened against crafted data)",
            ),
            PolicyViolation::NoMountCapability => {
                f.write_str("process lacks mount capability in its namespace")
            }
            PolicyViolation::UntrustedImageViaSetuid => {
                f.write_str("setuid helper refuses user-writable or user-supplied images")
            }
            PolicyViolation::PivotRootDenied => {
                f.write_str("pivot_root requires in-namespace CAP_SYS_ADMIN")
            }
        }
    }
}

impl std::error::Error for PolicyViolation {}

/// Decide whether a mount request is permitted.
pub fn check_mount(
    creds: &MountCredentials,
    kind: MountRequestKind,
    image: ImageProvenance,
) -> Result<(), PolicyViolation> {
    let host_root = creds.host_uid == 0 && !creds.in_user_ns;

    // Real root may mount anything.
    if host_root {
        return Ok(());
    }

    // Setuid helper: acts with root privilege but must apply the image
    // safeguards for kernel block mounts.
    if creds.via_setuid_helper {
        if kind == MountRequestKind::KernelBlockImage
            && (image.user_writable || image.user_supplied)
        {
            return Err(PolicyViolation::UntrustedImageViaSetuid);
        }
        return Ok(());
    }

    // In a user namespace with in-namespace SysAdmin:
    if creds.in_user_ns && creds.caps.has(Capability::SysAdmin) {
        return match kind {
            MountRequestKind::KernelBlockImage => Err(PolicyViolation::BlockMountInUserNs),
            MountRequestKind::Fuse
            | MountRequestKind::Overlay
            | MountRequestKind::Bind
            | MountRequestKind::Tmpfs => Ok(()),
        };
    }

    Err(PolicyViolation::NoMountCapability)
}

/// Decide whether the process may pivot_root.
pub(crate) fn check_pivot_root(creds: &MountCredentials) -> Result<(), PolicyViolation> {
    let host_root = creds.host_uid == 0 && !creds.in_user_ns;
    if host_root || creds.via_setuid_helper {
        return Ok(());
    }
    if creds.in_user_ns && creds.caps.has(Capability::SysAdmin) {
        return Ok(());
    }
    Err(PolicyViolation::PivotRootDenied)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_root_mounts_anything() {
        for kind in [
            MountRequestKind::KernelBlockImage,
            MountRequestKind::Fuse,
            MountRequestKind::Overlay,
            MountRequestKind::Bind,
            MountRequestKind::Tmpfs,
        ] {
            assert_eq!(
                check_mount(
                    &MountCredentials::host_root(),
                    kind,
                    ImageProvenance {
                        user_writable: true,
                        user_supplied: true,
                    }
                ),
                Ok(())
            );
        }
    }

    #[test]
    fn unprivileged_user_mounts_nothing() {
        for kind in [MountRequestKind::Fuse, MountRequestKind::Bind] {
            assert_eq!(
                check_mount(
                    &MountCredentials::unprivileged(1000),
                    kind,
                    ImageProvenance::trusted()
                ),
                Err(PolicyViolation::NoMountCapability)
            );
        }
    }

    #[test]
    fn userns_permits_fuse_overlay_bind_tmpfs() {
        let creds = MountCredentials::in_own_userns(1000);
        for kind in [
            MountRequestKind::Fuse,
            MountRequestKind::Overlay,
            MountRequestKind::Bind,
            MountRequestKind::Tmpfs,
        ] {
            assert_eq!(
                check_mount(&creds, kind, ImageProvenance::trusted()),
                Ok(())
            );
        }
    }

    #[test]
    fn userns_denies_kernel_block_mounts_even_as_ns_root() {
        // The central §4.1.2 rule.
        let creds = MountCredentials::in_own_userns(1000);
        assert!(creds.caps.has(Capability::SysAdmin), "UID 0 in its ns");
        assert_eq!(
            check_mount(
                &creds,
                MountRequestKind::KernelBlockImage,
                ImageProvenance::trusted()
            ),
            Err(PolicyViolation::BlockMountInUserNs)
        );
    }

    #[test]
    fn setuid_helper_mounts_trusted_images_only() {
        let creds = MountCredentials::setuid_helper(1000);
        assert_eq!(
            check_mount(
                &creds,
                MountRequestKind::KernelBlockImage,
                ImageProvenance::trusted()
            ),
            Ok(())
        );
        assert_eq!(
            check_mount(
                &creds,
                MountRequestKind::KernelBlockImage,
                ImageProvenance {
                    user_writable: true,
                    user_supplied: true,
                }
            ),
            Err(PolicyViolation::UntrustedImageViaSetuid)
        );
        // User-writable alone is already disqualifying.
        assert_eq!(
            check_mount(
                &creds,
                MountRequestKind::KernelBlockImage,
                ImageProvenance {
                    user_writable: true,
                    user_supplied: false
                }
            ),
            Err(PolicyViolation::UntrustedImageViaSetuid)
        );
    }

    #[test]
    fn setuid_helper_fuse_is_unrestricted() {
        let creds = MountCredentials::setuid_helper(1000);
        assert_eq!(
            check_mount(
                &creds,
                MountRequestKind::Fuse,
                ImageProvenance {
                    user_writable: true,
                    user_supplied: true,
                }
            ),
            Ok(())
        );
    }

    #[test]
    fn pivot_root_rules() {
        assert_eq!(check_pivot_root(&MountCredentials::host_root()), Ok(()));
        assert_eq!(
            check_pivot_root(&MountCredentials::in_own_userns(1000)),
            Ok(())
        );
        assert_eq!(
            check_pivot_root(&MountCredentials::setuid_helper(1000)),
            Ok(())
        );
        assert_eq!(
            check_pivot_root(&MountCredentials::unprivileged(1000)),
            Err(PolicyViolation::PivotRootDenied)
        );
    }

    #[test]
    fn userns_without_sysadmin_cannot_mount() {
        let mut creds = MountCredentials::in_own_userns(1000);
        creds.caps = CapSet::empty();
        assert_eq!(
            check_mount(&creds, MountRequestKind::Fuse, ImageProvenance::trusted()),
            Err(PolicyViolation::NoMountCapability)
        );
        assert_eq!(
            check_pivot_root(&creds),
            Err(PolicyViolation::PivotRootDenied)
        );
    }
}
