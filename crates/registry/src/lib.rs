//! # hpcc-registry
//!
//! Container registry models (Sections 5, Tables 4–5):
//!
//! * [`auth`] — identity backends (internal, LDAP, OIDC, PAM, ...).
//! * [`registry`] — the registry service: repos/tags/blobs over a CAS,
//!   multi-tenancy with quotas, signature artifacts, squash-on-demand,
//!   Library API endpoints and pull-rate limiting, all capability-gated so
//!   products differ honestly.
//! * [`proxy`] — pull-through proxy caching (with upstream usage
//!   statistics) and mirror synchronization.
//! * [`tiered`] — the fleet-scale hierarchy: rack → row → site
//!   pull-through caches with request coalescing, capacity-aware
//!   eviction, and multi-tenant rate limits/quotas.
//! * [`products`] — the seven surveyed products as configured services:
//!   Quay, Harbor, GitLab, Gitea, shpc, Hinkskalle, zot.

pub mod auth;
pub mod products;
pub mod proxy;
pub mod registry;
pub mod tiered;

pub use auth::{AuthProvider, AuthService};
pub use products::{ProductInfo, RegistryProduct};
pub use proxy::{mirror_sync, ProxyError, ProxyRegistry, ProxyStats};
pub use registry::{
    MirrorMode, Protocol, ProxyMode, Registry, RegistryCaps, RegistryError, RegistryStats, Tenancy,
};
pub use tiered::{
    HopParams, ImageSpec, OriginParams, StormConfig, StormTopology, TenantPolicy, TierClient,
    TierSpec, TierStats,
};
