//! Shared experiment fixture: a site registry populated with the sample
//! image family.

use hpcc_oci::builder::samples;
use hpcc_oci::cas::Cas;
use hpcc_registry::registry::{Registry, RegistryCaps};
use std::sync::Arc;

/// Build a registry holding the sample image family under `hpc/`.
pub(crate) fn site_registry_with_samples(python_modules: usize) -> Arc<Registry> {
    let registry = Registry::new("site", RegistryCaps::open());
    registry.create_namespace("hpc", None).unwrap();
    let cas = Cas::new();
    for (repo, img) in [
        ("hpc/base", samples::base_os(&cas)),
        ("hpc/pyapp", samples::python_app(&cas, python_modules)),
        ("hpc/solver", samples::mpi_solver(&cas)),
    ] {
        registry
            .push_image(repo, "v1", &img.manifest, &cas)
            .unwrap();
    }
    Arc::new(registry)
}
