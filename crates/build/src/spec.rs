//! Declarative build specifications.
//!
//! A [`BuildSpec`] is the container-as-code frontend (SNIPPETS.md
//! Snippet 1, hpctainers' Dagger-style graphs): a base image plus an
//! ordered list of [`BuildStep`]s. Unlike [`hpcc_oci::builder::ImageBuilder`],
//! whose steps are opaque closures, every step here is plain data — which
//! is what makes it *fingerprintable*, and fingerprints are what the
//! content-addressed build cache keys on.
//!
//! Cache identity is a hash chain: `state[0]` seeds from the base image's
//! layer digests, and `state[i] = H(state[i-1] || fingerprint(step_i))`.
//! Two tenants that write the same bytes through the same step prefix
//! therefore share every prefix state digest — the cross-tenant dedup the
//! bench gates on — while any edit busts exactly the suffix after it.

use hpcc_codec::archive::Archive;
use hpcc_crypto::sha256::{sha256, Digest};
use hpcc_oci::builder::BuiltImage;
use hpcc_oci::image::ImageConfig;

/// MPI families a base step can target (Shifter's hook is MPICH-only —
/// the §4.1.6 axis the engines already model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MpiFamily {
    Mpich,
    OpenMpi,
}

impl MpiFamily {
    pub fn name(self) -> &'static str {
        match self {
            MpiFamily::Mpich => "mpich",
            MpiFamily::OpenMpi => "openmpi",
        }
    }
}

/// One build step. `Run`/`Copy` and the HPC steps produce a filesystem
/// layer; `Env`/`Entrypoint` only mutate the image config (no layer, but
/// they still advance the cache chain, because step order matters to the
/// image identity exactly as it does in a Dockerfile).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildStep {
    /// A modelled command: `label` names it, `writes` is the (path,
    /// bytes) set the command deposits. Cost scales with bytes written.
    Run {
        label: String,
        writes: Vec<(String, Vec<u8>)>,
    },
    /// Copy one file from the build context into the image.
    Copy { dest: String, data: Vec<u8> },
    /// Set an environment variable (config-only).
    Env { key: String, value: String },
    /// Set the entrypoint argv (config-only).
    Entrypoint { argv: Vec<String> },
    /// Install the canonical MPI base for `family`: stub libmpi plus
    /// loader config, and export `MPI_HOME` (the ABI-compat replace
    /// mechanism every surveyed engine hooks).
    MpiBase { family: MpiFamily },
}

impl BuildStep {
    /// Does this step produce a filesystem layer?
    pub(crate) fn produces_layer(&self) -> bool {
        !matches!(self, BuildStep::Env { .. } | BuildStep::Entrypoint { .. })
    }

    /// Short label for spans and task names.
    pub fn label(&self) -> String {
        match self {
            BuildStep::Run { label, .. } => format!("run:{label}"),
            BuildStep::Copy { dest, .. } => format!("copy:{dest}"),
            BuildStep::Env { key, .. } => format!("env:{key}"),
            BuildStep::Entrypoint { .. } => "entrypoint".to_string(),
            BuildStep::MpiBase { family } => format!("mpi_base:{}", family.name()),
        }
    }

    /// The file writes this step performs, in deterministic order.
    /// Config-only steps write nothing.
    pub fn writes(&self) -> Vec<(String, Vec<u8>)> {
        match self {
            BuildStep::Run { writes, .. } => writes.clone(),
            BuildStep::Copy { dest, data } => vec![(dest.clone(), data.clone())],
            BuildStep::Env { .. } | BuildStep::Entrypoint { .. } => Vec::new(),
            BuildStep::MpiBase { family } => {
                let name = family.name();
                vec![
                    (
                        format!("/opt/mpi/{name}/lib/libmpi.so.12"),
                        vec![0xAB; 256 << 10],
                    ),
                    (
                        "/etc/ld.so.conf.d/mpi.conf".to_string(),
                        format!("/opt/mpi/{name}/lib\n").into_bytes(),
                    ),
                ]
            }
        }
    }

    /// Mutate the image config the way this step's Dockerfile analogue
    /// would. Layer steps may also set config (e.g. `MpiBase` exports
    /// `MPI_HOME`).
    pub(crate) fn apply_config(&self, cfg: &mut ImageConfig) {
        match self {
            BuildStep::Env { key, value } => cfg.env.push(format!("{key}={value}")),
            BuildStep::Entrypoint { argv } => cfg.entrypoint = argv.clone(),
            BuildStep::MpiBase { family } => {
                cfg.env.push(format!("MPI_HOME=/opt/mpi/{}", family.name()));
            }
            BuildStep::Run { .. } | BuildStep::Copy { .. } => {}
        }
    }

    /// Content fingerprint: a stable serialization of everything that
    /// affects the step's output. File contents hash individually so huge
    /// payloads don't force one giant buffer.
    pub fn fingerprint(&self) -> Digest {
        let mut buf: Vec<u8> = Vec::new();
        let put_str = |buf: &mut Vec<u8>, s: &str| {
            buf.extend_from_slice(&(s.len() as u64).to_le_bytes());
            buf.extend_from_slice(s.as_bytes());
        };
        match self {
            BuildStep::Run { label, writes } => {
                buf.push(1);
                put_str(&mut buf, label);
                buf.extend_from_slice(&(writes.len() as u64).to_le_bytes());
                for (path, data) in writes {
                    put_str(&mut buf, path);
                    buf.extend_from_slice(&sha256(data).0);
                }
            }
            BuildStep::Copy { dest, data } => {
                buf.push(2);
                put_str(&mut buf, dest);
                buf.extend_from_slice(&sha256(data).0);
            }
            BuildStep::Env { key, value } => {
                buf.push(3);
                put_str(&mut buf, key);
                put_str(&mut buf, value);
            }
            BuildStep::Entrypoint { argv } => {
                buf.push(4);
                buf.extend_from_slice(&(argv.len() as u64).to_le_bytes());
                for a in argv {
                    put_str(&mut buf, a);
                }
            }
            BuildStep::MpiBase { family } => {
                buf.push(5);
                put_str(&mut buf, family.name());
            }
        }
        sha256(&buf)
    }
}

/// A named build: base image + ordered steps, fluent like the Snippet 1
/// container-as-code API.
#[derive(Debug, Clone)]
pub struct BuildSpec {
    pub name: String,
    pub(crate) base_layers: Vec<Archive>,
    pub(crate) base_config: ImageConfig,
    /// Chain seed: hashes the base layer digests so different bases never
    /// collide in the cache.
    pub(crate) base_id: Digest,
    pub steps: Vec<BuildStep>,
}

impl BuildSpec {
    /// Start from an empty root (`FROM scratch`).
    pub fn from_scratch(name: &str) -> BuildSpec {
        BuildSpec {
            name: name.to_string(),
            base_layers: Vec::new(),
            base_config: ImageConfig::default(),
            base_id: sha256(b"hpcc-build:scratch"),
            steps: Vec::new(),
        }
    }

    /// Start from an existing image (`FROM base`).
    pub fn from_image(name: &str, base: &BuiltImage) -> BuildSpec {
        let mut buf: Vec<u8> = b"hpcc-build:base".to_vec();
        for l in &base.layers {
            buf.extend_from_slice(&l.digest().0);
        }
        BuildSpec {
            name: name.to_string(),
            base_layers: base.layers.clone(),
            base_config: base.config.clone(),
            base_id: sha256(&buf),
            steps: Vec::new(),
        }
    }

    /// Add a modelled command writing `writes`.
    pub fn run(mut self, label: &str, writes: &[(&str, &[u8])]) -> Self {
        self.steps.push(BuildStep::Run {
            label: label.to_string(),
            writes: writes
                .iter()
                .map(|(p, d)| (p.to_string(), d.to_vec()))
                .collect(),
        });
        self
    }

    /// Copy one file into the image.
    pub fn copy(mut self, dest: &str, data: impl Into<Vec<u8>>) -> Self {
        self.steps.push(BuildStep::Copy {
            dest: dest.to_string(),
            data: data.into(),
        });
        self
    }

    /// Set an environment variable.
    pub fn env(mut self, key: &str, value: &str) -> Self {
        self.steps.push(BuildStep::Env {
            key: key.to_string(),
            value: value.to_string(),
        });
        self
    }

    /// Set the entrypoint argv.
    pub fn entrypoint(mut self, argv: &[&str]) -> Self {
        self.steps.push(BuildStep::Entrypoint {
            argv: argv.iter().map(|s| s.to_string()).collect(),
        });
        self
    }

    /// Install the canonical MPI base layer for `family`.
    pub fn mpi_base(mut self, family: MpiFamily) -> Self {
        self.steps.push(BuildStep::MpiBase { family });
        self
    }

    /// The cache-chain state digest after each step:
    /// `state[i] = H(state[i-1] || fingerprint(step_i))`, seeded by
    /// [`base_id`](Self::from_image).
    pub(crate) fn state_chain(&self) -> Vec<Digest> {
        let mut states = Vec::with_capacity(self.steps.len());
        let mut prev = self.base_id;
        for step in &self.steps {
            let mut buf = Vec::with_capacity(64);
            buf.extend_from_slice(&prev.0);
            buf.extend_from_slice(&step.fingerprint().0);
            prev = sha256(&buf);
            states.push(prev);
        }
        states
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_differ_by_content() {
        let a = BuildStep::Run {
            label: "x".into(),
            writes: vec![("/a".into(), vec![1, 2, 3])],
        };
        let b = BuildStep::Run {
            label: "x".into(),
            writes: vec![("/a".into(), vec![1, 2, 4])],
        };
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), a.clone().fingerprint());
    }

    #[test]
    fn chain_shares_prefix_busts_suffix() {
        let base = BuildSpec::from_scratch("a")
            .run("one", &[("/one", b"1")])
            .run("two", &[("/two", b"2")]);
        let edited = BuildSpec::from_scratch("b")
            .run("one", &[("/one", b"1")])
            .run("two", &[("/two", b"CHANGED")]);
        let sa = base.state_chain();
        let sb = edited.state_chain();
        assert_eq!(sa[0], sb[0], "identical prefix shares state");
        assert_ne!(sa[1], sb[1], "edit busts the suffix");
    }

    #[test]
    fn config_steps_advance_the_chain() {
        let a = BuildSpec::from_scratch("a")
            .env("A", "1")
            .run("one", &[("/one", b"1")]);
        let b = BuildSpec::from_scratch("b")
            .env("A", "2")
            .run("one", &[("/one", b"1")]);
        assert_ne!(
            a.state_chain()[1],
            b.state_chain()[1],
            "an env change upstream must bust downstream layer cache"
        );
    }
}
