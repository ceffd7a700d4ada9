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

/// Push every blob of `img` from `cas`, then its manifest as `repo:tag`.
pub fn push_image(registry: &Registry, cas: &Cas, repo: &str, tag: &str, img: &BuiltImage) {
    for d in std::iter::once(&img.manifest.config).chain(img.manifest.layers.iter()) {
        let data = cas.get(&d.digest).unwrap();
        registry
            .push_blob(d.media_type, d.digest, data.as_ref().clone())
            .unwrap();
    }
    registry.push_manifest(repo, tag, &img.manifest).unwrap();
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
        push_image(&registry, &cas, repo, "v1", img);
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
