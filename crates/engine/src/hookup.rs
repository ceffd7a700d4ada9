//! GPU / accelerator / host-library enablement (§4.1.6).
//!
//! "Host library access can be enabled by bind-mounting host directories
//! into the container namespace, providing extra device nodes, or granting
//! extra capabilities ... When a container gains access to host libraries,
//! it requires a matching ABI, as a mismatch may introduce subtle errors.
//! Some solutions like Sarus therefore contain explicit ABI compatibility
//! checks on the libraries."
//!
//! The hooks below are ordinary [`HookRegistry`] entries; engines wire them
//! either as OCI hooks (Docker/Podman/Sarus style) or invoke them directly
//! in their prepare path (builtin style). The ABI model: library files
//! carry `GLIBC_REQ=x.y;` markers, a container's libc carries
//! `GLIBC_PROVIDES=x.y;` — the check parses and compares, and failing it
//! aborts container creation exactly like Sarus' check does.

use hpcc_oci::hooks::{HookContext, HookError, HookRegistry};
use hpcc_vfs::fs::MemFs;
use hpcc_vfs::path::VPath;

fn p(s: &str) -> VPath {
    VPath::parse(s)
}

/// Parse a `KEY=x.y;` version marker out of file contents.
fn parse_marker(data: &[u8], key: &str) -> Option<(u32, u32)> {
    let text = String::from_utf8_lossy(data);
    let start = text.find(&format!("{key}="))? + key.len() + 1;
    let rest = &text[start..];
    let end = rest.find(';')?;
    let (maj, min) = rest[..end].split_once('.')?;
    Some((maj.parse().ok()?, min.parse().ok()?))
}

/// Copy a file from the host into the container rootfs.
fn import_host_file(ctx: &mut HookContext<'_>, path: &str) -> Result<(), HookError> {
    let data = ctx
        .host
        .read(&p(path))
        .map_err(|e| HookError::Failed(format!("host file {path}: {e}")))?;
    ctx.rootfs
        .write_p(&p(path), data)
        .map_err(|e| HookError::Failed(e.to_string()))?;
    Ok(())
}

/// Standard host-file locations the hooks use.
pub(crate) const HOST_CUDA_LIB: &str = "/usr/lib64/libcuda.so";
pub(crate) const HOST_GPU_DEVICE: &str = "/dev/nvidia0";
pub(crate) const HOST_MPI_LIB: &str = "/opt/cray/lib/libmpi.so";
pub(crate) const HOST_FABRIC_LIB: &str = "/opt/cray/lib/libfabric.so";
pub(crate) const CONTAINER_LIBC: &str = "/usr/lib/libc.so.6";

/// Populate a host filesystem with a typical driver/MPI stack. The glibc
/// requirement markers drive the ABI check.
pub(crate) fn sample_host_fs(glibc_req: (u32, u32)) -> MemFs {
    let mut fs = MemFs::new();
    let marker = format!("GLIBC_REQ={}.{};", glibc_req.0, glibc_req.1);
    let mut cuda = marker.clone().into_bytes();
    cuda.extend_from_slice(&[0xCD; 2048]);
    fs.write_p(&p(HOST_CUDA_LIB), cuda).unwrap();
    fs.write_p(&p(HOST_GPU_DEVICE), b"gpu-device-node".to_vec())
        .unwrap();
    let mut mpi = marker.into_bytes();
    mpi.extend_from_slice(&[0x71; 4096]);
    fs.write_p(&p(HOST_MPI_LIB), mpi).unwrap();
    fs.write_p(&p(HOST_FABRIC_LIB), vec![0x1F; 1024]).unwrap();
    fs
}

/// Register the standard enablement hooks.
pub(crate) fn register_standard_hooks(reg: &mut HookRegistry) {
    // NVIDIA GPU enablement: driver library + device node + env.
    reg.register("gpu-nvidia", |ctx| {
        if ctx.state.get("host.gpu").map(String::as_str) != Some("present") {
            return Err(HookError::Rejected("no GPU on this node".into()));
        }
        import_host_file(ctx, HOST_CUDA_LIB)?;
        import_host_file(ctx, HOST_GPU_DEVICE)?;
        ctx.spec
            .process
            .env
            .push("NVIDIA_VISIBLE_DEVICES=all".into());
        ctx.state.insert("gpu.enabled".into(), "true".into());
        Ok(())
    });

    // Host MPI / fabric hookup.
    reg.register("mpi-hookup", |ctx| {
        import_host_file(ctx, HOST_MPI_LIB)?;
        import_host_file(ctx, HOST_FABRIC_LIB)?;
        ctx.spec
            .process
            .env
            .push("LD_LIBRARY_PATH=/opt/cray/lib".into());
        ctx.state.insert("mpi.enabled".into(), "true".into());
        Ok(())
    });

    // Sarus-style ABI compatibility check: every imported host library's
    // GLIBC_REQ must be satisfiable by the container's libc.
    reg.register("abi-check", |ctx| {
        let libc = ctx
            .rootfs
            .read(&p(CONTAINER_LIBC))
            .map_err(|_| HookError::Rejected("container has no libc to check".into()))?;
        let provides = parse_marker(&libc, "GLIBC_PROVIDES")
            .ok_or_else(|| HookError::Rejected("container libc lacks version marker".into()))?;
        for lib in [HOST_CUDA_LIB, HOST_MPI_LIB] {
            if let Ok(data) = ctx.rootfs.read(&p(lib)) {
                if let Some(req) = parse_marker(&data, "GLIBC_REQ") {
                    if req > provides {
                        return Err(HookError::Rejected(format!(
                            "host library {lib} requires glibc {}.{} but container \
                             provides {}.{}",
                            req.0, req.1, provides.0, provides.1
                        )));
                    }
                }
            }
        }
        ctx.state.insert("abi.checked".into(), "true".into());
        Ok(())
    });

    // WLM device passdown: honor the allocation's device grant recorded by
    // the SPANK plugin.
    reg.register("wlm-devices", |ctx| {
        if let Some(devs) = ctx.state.get("wlm.granted_devices").cloned() {
            ctx.spec
                .process
                .env
                .push(format!("CUDA_VISIBLE_DEVICES={devs}"));
        }
        Ok(())
    });
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use hpcc_oci::spec::{HookRef, HookStage, RuntimeSpec};
    use std::collections::BTreeMap;

    /// Stamp a container rootfs with the glibc version it provides (test
    /// fixture for the glibc-compatibility check).
    pub(crate) fn stamp_container_glibc(rootfs: &mut MemFs, provides: (u32, u32)) {
        let marker = format!("GLIBC_PROVIDES={}.{};", provides.0, provides.1);
        let mut libc = marker.into_bytes();
        libc.extend_from_slice(&[0xC1; 1024]);
        rootfs.write_p(&p(CONTAINER_LIBC), libc).unwrap();
    }

    fn run_hooks(
        names: &[&str],
        rootfs: &mut MemFs,
        host: &MemFs,
        state: &mut BTreeMap<String, String>,
    ) -> Result<(), HookError> {
        let mut reg = HookRegistry::new();
        register_standard_hooks(&mut reg);
        let mut spec = RuntimeSpec {
            hooks: names
                .iter()
                .map(|n| HookRef {
                    stage: HookStage::CreateRuntime,
                    name: n.to_string(),
                })
                .collect(),
            ..RuntimeSpec::default()
        };
        reg.run_stage(HookStage::CreateRuntime, rootfs, &mut spec, host, state)
            .map(|_| ())
    }

    #[test]
    fn gpu_hook_imports_driver_stack() {
        let host = sample_host_fs((2, 31));
        let mut rootfs = MemFs::new();
        let mut state = BTreeMap::new();
        state.insert("host.gpu".into(), "present".into());
        run_hooks(&["gpu-nvidia"], &mut rootfs, &host, &mut state).unwrap();
        assert!(rootfs.exists(&p(HOST_CUDA_LIB)));
        assert!(rootfs.exists(&p(HOST_GPU_DEVICE)));
        assert_eq!(state.get("gpu.enabled").map(String::as_str), Some("true"));
    }

    #[test]
    fn gpu_hook_rejects_gpuless_node() {
        let host = sample_host_fs((2, 31));
        let mut rootfs = MemFs::new();
        let mut state = BTreeMap::new(); // no host.gpu key
        let err = run_hooks(&["gpu-nvidia"], &mut rootfs, &host, &mut state).unwrap_err();
        assert!(matches!(err, HookError::Rejected(_)));
    }

    #[test]
    fn mpi_hookup_brings_fabric() {
        let host = sample_host_fs((2, 28));
        let mut rootfs = MemFs::new();
        let mut state = BTreeMap::new();
        run_hooks(&["mpi-hookup"], &mut rootfs, &host, &mut state).unwrap();
        assert!(rootfs.exists(&p(HOST_MPI_LIB)));
        assert!(rootfs.exists(&p(HOST_FABRIC_LIB)));
    }

    #[test]
    fn abi_check_passes_compatible_stack() {
        // Host libs need 2.28; container provides 2.31.
        let host = sample_host_fs((2, 28));
        let mut rootfs = MemFs::new();
        stamp_container_glibc(&mut rootfs, (2, 31));
        let mut state = BTreeMap::new();
        run_hooks(&["mpi-hookup", "abi-check"], &mut rootfs, &host, &mut state).unwrap();
        assert_eq!(state.get("abi.checked").map(String::as_str), Some("true"));
    }

    #[test]
    fn abi_check_rejects_too_old_container() {
        // The §3.2 failure: host lib needs newer glibc than the container
        // has.
        let host = sample_host_fs((2, 34));
        let mut rootfs = MemFs::new();
        stamp_container_glibc(&mut rootfs, (2, 31));
        let mut state = BTreeMap::new();
        let err =
            run_hooks(&["mpi-hookup", "abi-check"], &mut rootfs, &host, &mut state).unwrap_err();
        match err {
            HookError::Rejected(msg) => assert!(msg.contains("requires glibc 2.34")),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn abi_check_needs_a_libc() {
        let host = sample_host_fs((2, 31));
        let mut rootfs = MemFs::new(); // no libc
        let mut state = BTreeMap::new();
        let err = run_hooks(&["abi-check"], &mut rootfs, &host, &mut state).unwrap_err();
        assert!(matches!(err, HookError::Rejected(_)));
    }

    #[test]
    fn wlm_devices_passes_grant() {
        let host = sample_host_fs((2, 31));
        let mut rootfs = MemFs::new();
        let mut reg = HookRegistry::new();
        register_standard_hooks(&mut reg);
        let mut spec = RuntimeSpec {
            hooks: vec![HookRef {
                stage: HookStage::CreateRuntime,
                name: "wlm-devices".into(),
            }],
            ..RuntimeSpec::default()
        };
        let mut state = BTreeMap::new();
        state.insert("wlm.granted_devices".into(), "0,1".into());
        reg.run_stage(
            HookStage::CreateRuntime,
            &mut rootfs,
            &mut spec,
            &host,
            &mut state,
        )
        .unwrap();
        assert!(spec
            .process
            .env
            .contains(&"CUDA_VISIBLE_DEVICES=0,1".to_string()));
    }

    #[test]
    fn marker_parsing() {
        assert_eq!(
            parse_marker(b"GLIBC_REQ=2.34;junk", "GLIBC_REQ"),
            Some((2, 34))
        );
        assert_eq!(parse_marker(b"nothing here", "GLIBC_REQ"), None);
        assert_eq!(parse_marker(b"GLIBC_REQ=bad;", "GLIBC_REQ"), None);
        // Version ordering: (2,34) > (2,31), (3,0) > (2,99).
        assert!((2u32, 34u32) > (2, 31));
        assert!((3u32, 0u32) > (2, 99));
    }
}
