//! # hpcc-oci
//!
//! The OCI image model the whole testbed shares:
//!
//! * [`image`] — descriptors, manifests and image configs with
//!   deterministic, content-addressable serialization.
//! * [`cas`] — the content-addressable blob store with dedup accounting
//!   (Section 3.1's layer deduplication).
//! * [`layer`] — filesystem diffing into changesets and changeset
//!   application with OCI whiteout/opaque semantics; [`SealedLayer`], a
//!   layer carried with its one encoding and digest along the write path.
//! * [`builder`] — the Dockerfile analogue: base image + mutation steps →
//!   layers, plus the sample image family the experiments use.
//! * [`spec`] — the runtime spec (namespaces, id mappings, mounts,
//!   resources, hook references) consumed by `hpcc-runtime`.
//! * [`hooks`] — executable OCI lifecycle hooks (§4.1.3), the extension
//!   point engines use for GPU/library/WLM integration.

#![forbid(unsafe_code)]

pub mod builder;
pub mod cas;
pub mod hooks;
pub mod image;
pub mod layer;
pub mod spec;

pub use builder::{BuildError, BuiltImage, ImageBuilder};
pub use cas::{Cas, CasError, CasStats};
pub use hooks::{HookContext, HookError, HookRegistry};
pub use image::{Descriptor, ImageConfig, Manifest, MediaType};
pub use layer::SealedLayer;
pub use spec::{
    HookRef, HookStage, IdMapping, Mount, MountKind, Namespace, ProcessSpec, Resources, RuntimeSpec,
};
