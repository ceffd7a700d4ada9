//! Shared experiment fixtures: a populated site registry and the sample
//! image family.

use hpcc_oci::builder::{samples, BuiltImage};
use hpcc_oci::cas::Cas;
use hpcc_registry::registry::{Registry, RegistryCaps};
use std::sync::Arc;

/// The images every experiment pulls.
pub struct SampleImages {
    pub base: BuiltImage,
    pub python: BuiltImage,
    pub solver: BuiltImage,
}

/// Build a registry holding the sample image family under `hpc/`.
pub fn site_registry_with_samples(python_modules: usize) -> (Arc<Registry>, SampleImages) {
    let registry = Registry::new("site", RegistryCaps::open());
    registry.create_namespace("hpc", None).unwrap();
    let cas = Cas::new();
    let base = samples::base_os(&cas);
    let python = samples::python_app(&cas, python_modules);
    let solver = samples::mpi_solver(&cas);
    for (repo, img) in [
        ("hpc/base", &base),
        ("hpc/pyapp", &python),
        ("hpc/solver", &solver),
    ] {
        registry
            .push_image(repo, "v1", &img.manifest, &cas)
            .unwrap();
    }
    (
        Arc::new(registry),
        SampleImages {
            base,
            python,
            solver,
        },
    )
}
