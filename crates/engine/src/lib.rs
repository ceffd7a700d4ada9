//! # hpcc-engine
//!
//! The container-engine layer of the testbed (Section 4, Tables 1–3):
//!
//! * [`caps`] — the capability axes the survey compares engines on.
//! * [`engine`] — the framework: pull → prepare (convert / cache / mount
//!   under the rootless policy) → run (namespaces, id mappings, GPU/MPI
//!   enablement, monitors, daemons), plus signing/encryption entry points.
//! * [`engines`] — the nine surveyed engines as configured [`Engine`]s:
//!   Docker, Podman, Podman-HPC, Shifter, Sarus, Charliecloud, Apptainer,
//!   SingularityCE, ENROOT.
//! * [`sif`] — the Singularity Image Format analogue with embedded
//!   signatures, encrypted partitions and overlay data.
//! * [`hookup`] — GPU/MPI/host-library enablement hooks and the
//!   Sarus-style ABI compatibility check.
//! * [`shpc`] — module-system integration (Lmod module generation).

pub mod caps;
pub mod engine;
pub mod engines;
pub mod hookup;
pub mod lazy;
pub mod shpc;
pub mod sif;

pub use caps::{EngineCaps, EngineInfo};
pub use engine::PullSources;
pub use engine::{
    DeployRequest, Engine, EngineError, Host, MpiFlavor, Prepared, PullResilience, PulledImage,
    RunOptions, RunReport,
};
pub use lazy::{publish_seekable, LazyContainer, LazyPullStats};
pub use sif::{SifError, SifImage};
