//! Build-plane benchmark + the `bench-build` CI gate.
//!
//! Sweeps N tenants × M builds through `hpcc-build` in three scenarios:
//!
//! * **cold** — every tenant starts with an empty build cache. Each
//!   spec's layer steps all execute; only the intra-tenant base prefix
//!   dedups across a tenant's M builds.
//! * **warm** — the same specs rebuilt on the now-populated caches.
//!   Every layer step must replay from cache (zero misses) and the
//!   rebuild must beat the cold build by [`WARM_WIN_FLOOR`]× — the
//!   incremental-rebuild headline.
//! * **shared-base** — one *site-wide* cache shared by all tenants, plus
//!   signed pushes to one origin registry. The shared base layers build
//!   once ever and upload once ever: each tenant after the first adds
//!   exactly the same number of origin blobs (its unique leaves), so the
//!   origin blob count stays flat in the tenant count.
//!
//! All builds run sequentially (fleets of one) so cache hit/miss counts
//! are exact and gateable; the fleet-parallel path is covered by
//! `hpcc-build`'s own tests. Everything runs on the logical clock, so
//! the harness double-runs, demands byte-identical documents and holds
//! them to `BENCH_build.json` (the shared exact-bytes guard).

use crate::harness::{self, GateResult};
use crate::json::Json;
use hpcc_build::{build_fleet, sign_and_push, BuildCache, BuildRequest, BuildSpec, MpiFamily};
use hpcc_crypto::translog::TransparencyLog;
use hpcc_crypto::wots::Keypair;
use hpcc_engine::engine::Engine;
use hpcc_engine::engines;
use hpcc_oci::cas::Cas;
use hpcc_registry::registry::{Registry, RegistryCaps};
use hpcc_sim::obs::Tracer;
use hpcc_sim::{CrashInjector, SimClock, SimTime};
use hpcc_storage::journal::JournaledStore;
use hpcc_storage::BlobStore;
use std::sync::Arc;

/// Tenants in the sweep.
pub const TENANTS: usize = 4;
/// Builds per tenant.
pub const BUILDS_PER_TENANT: usize = 3;
/// Bounded workers per build fleet.
pub const WORKERS: usize = 4;
/// Layer-producing steps per spec (base run + mpi_base + app copy).
pub const LAYER_STEPS: u64 = 3;
/// Shared base layer steps every spec starts with.
pub const SHARED_STEPS: u64 = 2;
/// A warm rebuild must beat the cold build by at least this factor.
pub const WARM_WIN_FLOOR: f64 = 5.0;

/// One scenario's measurement. All times logical ns.
#[derive(Debug, Clone)]
pub struct BuildRow {
    pub scenario: &'static str,
    pub tenants: usize,
    pub builds_per_tenant: usize,
    /// Build-cache counters over the scenario (deltas, not cumulative).
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Logical time to run every build in the scenario.
    pub build_ns: u64,
    /// Logical time to sign and push every image (shared-base only).
    pub push_ns: u64,
    /// Origin registry blob count after all pushes (shared-base only).
    pub origin_blobs: u64,
    /// Origin blobs the first tenant's pushes added.
    pub origin_added_first_tenant: u64,
    /// Origin blobs each subsequent tenant added (asserted uniform in
    /// the measurement loop; this is the common value).
    pub origin_added_per_extra_tenant: u64,
}

// ------------------------------------------------------------ measurement

/// Tenant `t`'s spec for app `m`: two shared base layer steps every
/// tenant starts from, one tenant-unique app layer, and two config-only
/// steps. Cross-tenant dedup comes entirely from the base prefix.
pub fn tenant_spec(tenant: usize, app: usize) -> BuildSpec {
    BuildSpec::from_scratch("app")
        .run("base", &[("/usr/lib/libc.so", &[0xB0u8; 64 << 10][..])])
        .mpi_base(MpiFamily::Mpich)
        .copy(
            &format!("/opt/app/bin{app}"),
            format!("#!solver tenant={tenant} app={app}").into_bytes(),
        )
        .env("TENANT", &tenant.to_string())
        .entrypoint(&[&format!("/opt/app/bin{app}")])
}

fn traced_engine() -> (Engine, Arc<Tracer>) {
    let engine = engines::podman_hpc();
    let tracer = Tracer::new();
    engine.set_tracer(Arc::clone(&tracer));
    (engine, tracer)
}

/// Run tenant `t`'s M builds sequentially against `cache`/`cas`.
fn build_tenant(
    tenant: usize,
    cache: &Arc<BuildCache>,
    cas: &Cas,
    tracer: &Arc<Tracer>,
    clock: &SimClock,
) -> Vec<hpcc_build::BuildOutput> {
    (0..BUILDS_PER_TENANT)
        .map(|m| {
            let req = BuildRequest::new(
                &format!("t{tenant}"),
                &format!("app{m}"),
                "v1",
                tenant_spec(tenant, m),
            );
            build_fleet(&[req], WORKERS, cache, cas, tracer, clock)
                .expect("bench build succeeds")
                .remove(0)
        })
        .collect()
}

/// `(hits, misses)` so far.
fn cache_counts(cache: &BuildCache) -> (u64, u64) {
    let s = cache.stats();
    (s.hits, s.misses)
}

// ------------------------------------------------------------- live gate

fn row<'a>(rows: &'a [BuildRow], scenario: &str) -> Option<&'a BuildRow> {
    rows.iter().find(|r| r.scenario == scenario)
}

// ----------------------------------------------------------------- render

fn render_row(r: &BuildRow) -> Json {
    Json::obj([
        ("scenario", Json::Str(r.scenario.to_string())),
        ("tenants", Json::Num(r.tenants as f64)),
        ("builds_per_tenant", Json::Num(r.builds_per_tenant as f64)),
        ("cache_hits", Json::Num(r.cache_hits as f64)),
        ("cache_misses", Json::Num(r.cache_misses as f64)),
        ("build_ns", Json::Num(r.build_ns as f64)),
        ("push_ns", Json::Num(r.push_ns as f64)),
        ("origin_blobs", Json::Num(r.origin_blobs as f64)),
        (
            "origin_added_first_tenant",
            Json::Num(r.origin_added_first_tenant as f64),
        ),
        (
            "origin_added_per_extra_tenant",
            Json::Num(r.origin_added_per_extra_tenant as f64),
        ),
    ])
}

/// Render results as the BENCH_build.json document.
fn render(results: &[BuildRow]) -> Json {
    Json::obj([
        ("schema", Json::Str("hpcc-bench-build/v1".to_string())),
        ("tenants", Json::Num(TENANTS as f64)),
        ("builds_per_tenant", Json::Num(BUILDS_PER_TENANT as f64)),
        ("workers", Json::Num(WORKERS as f64)),
        ("rows", Json::Arr(results.iter().map(render_row).collect())),
    ])
}

/// `bench build`.
pub struct Build;

impl harness::Suite for Build {
    const NAME: &'static str = "build";
    const GOLDEN: Option<harness::Render<Self::Results>> = Some(|rows| render(rows));
    type Results = Vec<BuildRow>;

    /// Measure all three scenarios.
    fn run() -> Vec<BuildRow> {
        // Per-tenant caches and image stores for the cold/warm pair: the
        // warm pass rebuilds the same specs on the caches cold populated.
        let caches: Vec<Arc<BuildCache>> = (0..TENANTS).map(|_| BuildCache::node_local()).collect();
        let stores: Vec<Cas> = (0..TENANTS).map(|_| Cas::new()).collect();
        let per_tenant_pass = |scenario: &'static str| {
            let (_, tracer) = traced_engine();
            let clock = SimClock::new();
            let (mut hits, mut misses) = (0, 0);
            for t in 0..TENANTS {
                let before = cache_counts(&caches[t]);
                build_tenant(t, &caches[t], &stores[t], &tracer, &clock);
                let after = cache_counts(&caches[t]);
                hits += after.0 - before.0;
                misses += after.1 - before.1;
            }
            BuildRow {
                scenario,
                tenants: TENANTS,
                builds_per_tenant: BUILDS_PER_TENANT,
                cache_hits: hits,
                cache_misses: misses,
                build_ns: clock.now().since(SimTime::ZERO).0,
                push_ns: 0,
                origin_blobs: 0,
                origin_added_first_tenant: 0,
                origin_added_per_extra_tenant: 0,
            }
        };
        let cold = per_tenant_pass("cold");
        let warm = per_tenant_pass("warm");

        // ---- shared-base ----------------------------------------------
        let shared = {
            let (engine, tracer) = traced_engine();
            let clock = SimClock::new();
            let registry = Registry::new("origin", RegistryCaps::open());
            let shared_cache = BuildCache::new(BlobStore::new(8, 8 << 30));
            let journal = JournaledStore::new(Arc::clone(shared_cache.store()));
            let crash = CrashInjector::disabled();
            journal.set_crash_injector(Arc::clone(&crash));
            let mut key = Keypair::generate(b"bench-build", 5);
            let mut log = TransparencyLog::new();

            let (mut hits, mut misses) = (0, 0);
            let mut added: Vec<u64> = Vec::with_capacity(TENANTS);
            let mut build_ns = 0;
            let mut prev_blobs = 0u64;
            for (t, cas) in stores.iter().enumerate() {
                registry.create_namespace(&format!("t{t}"), None).unwrap();
                let before = cache_counts(&shared_cache);
                let build_start = clock.now();
                let outs = build_tenant(t, &shared_cache, cas, &tracer, &clock);
                build_ns += clock.now().since(build_start).0;
                let after = cache_counts(&shared_cache);
                hits += after.0 - before.0;
                misses += after.1 - before.1;
                for out in &outs {
                    sign_and_push(
                        &engine, &mut key, &mut log, &registry, out, cas, &journal, &crash, &clock,
                    )
                    .expect("bench push succeeds");
                }
                let blobs = registry.cas().stats().blobs;
                added.push(blobs - prev_blobs);
                prev_blobs = blobs;
            }
            let extras = &added[1..];
            assert!(
                extras.windows(2).all(|w| w[0] == w[1]),
                "origin blob increments must be uniform past the first tenant: {added:?}"
            );
            BuildRow {
                scenario: "shared-base",
                tenants: TENANTS,
                builds_per_tenant: BUILDS_PER_TENANT,
                cache_hits: hits,
                cache_misses: misses,
                build_ns,
                push_ns: clock.now().since(SimTime::ZERO).0 - build_ns,
                origin_blobs: prev_blobs,
                origin_added_first_tenant: added[0],
                origin_added_per_extra_tenant: extras[0],
            }
        };

        vec![cold, warm, shared]
    }

    /// Structural gates that hold whatever the golden says:
    ///
    /// 1. Warm rebuilds miss nothing and beat cold by [`WARM_WIN_FLOOR`]×.
    /// 2. Cold misses are exactly one full spec plus one unique leaf per
    ///    extra build, per tenant — the intra-tenant prefix dedups even cold.
    /// 3. Under the shared cache, the base prefix builds once *ever*:
    ///    misses = shared steps + one leaf per (tenant, build).
    /// 4. Origin blob count is flat in the tenant count: every tenant past
    ///    the first adds the same blob count, and the first tenant's surplus
    ///    is exactly the shared base layers (uploaded once ever).
    fn gates(results: &Vec<BuildRow>) -> GateResult {
        let mut errors = Vec::new();
        let mut report = Vec::new();
        let (Some(cold), Some(warm), Some(shared)) = (
            row(results, "cold"),
            row(results, "warm"),
            row(results, "shared-base"),
        ) else {
            return Err(vec!["missing scenario rows".to_string()]);
        };
        let n = TENANTS as u64;
        let m = BUILDS_PER_TENANT as u64;

        if warm.cache_misses != 0 {
            errors.push(format!(
                "warm rebuild missed {} steps — cache not absorbing unchanged specs",
                warm.cache_misses
            ));
        }
        if warm.cache_hits != n * m * LAYER_STEPS {
            errors.push(format!(
                "warm rebuild hit {} steps, expected {}",
                warm.cache_hits,
                n * m * LAYER_STEPS
            ));
        }
        let win = cold.build_ns as f64 / warm.build_ns.max(1) as f64;
        if win < WARM_WIN_FLOOR {
            errors.push(format!(
                "warm rebuild {:.2} ms must beat cold {:.2} ms by ≥{WARM_WIN_FLOOR}× (got {win:.2}×)",
                warm.build_ns as f64 / 1e6,
                cold.build_ns as f64 / 1e6,
            ));
        } else {
            report.push(format!(
                "warm rebuild {:.2} ms vs cold {:.2} ms ({win:.1}× win, 0 misses)",
                warm.build_ns as f64 / 1e6,
                cold.build_ns as f64 / 1e6,
            ));
        }

        let cold_expected = n * (SHARED_STEPS + m);
        if cold.cache_misses != cold_expected {
            errors.push(format!(
                "cold misses {} != expected {} (per-tenant prefix dedup broken)",
                cold.cache_misses, cold_expected
            ));
        } else {
            report.push(format!(
                "cold misses {} = {TENANTS} tenants × (shared {SHARED_STEPS} + {BUILDS_PER_TENANT} leaves)",
                cold.cache_misses
            ));
        }

        let shared_expected = SHARED_STEPS + n * m;
        if shared.cache_misses != shared_expected {
            errors.push(format!(
                "shared-base misses {} != expected {} (base must build once ever)",
                shared.cache_misses, shared_expected
            ));
        } else {
            report.push(format!(
                "shared-base misses {} = shared {SHARED_STEPS} built once + {} unique leaves",
                shared.cache_misses,
                n * m
            ));
        }

        if shared.origin_added_first_tenant != shared.origin_added_per_extra_tenant + SHARED_STEPS {
            errors.push(format!(
                "origin blobs: first tenant added {}, extras add {} — surplus must be exactly the {} shared base layers",
                shared.origin_added_first_tenant,
                shared.origin_added_per_extra_tenant,
                SHARED_STEPS
            ));
        } else {
            report.push(format!(
                "origin blob count flat: first tenant +{}, each extra +{} (shared base uploaded once)",
                shared.origin_added_first_tenant, shared.origin_added_per_extra_tenant
            ));
        }

        if errors.is_empty() {
            Ok(report)
        } else {
            Err(errors)
        }
    }

    /// The incremental-rebuild/dedup table of EXPERIMENTS.md.
    fn table(results: &Vec<BuildRow>) -> Vec<Vec<String>> {
        let ms = |ns: u64| match ns {
            0 => "—".to_string(),
            _ => format!("{:.2} ms", ns as f64 / 1e6),
        };
        let header = [
            "scenario",
            "tenants × builds",
            "cache hits/misses",
            "build time",
            "push time",
            "origin blobs (first / per-extra tenant)",
        ];
        let row = |r: &BuildRow| {
            let origin = match r.origin_blobs {
                0 => "—".to_string(),
                n => format!(
                    "{n} (+{} / +{})",
                    r.origin_added_first_tenant, r.origin_added_per_extra_tenant
                ),
            };
            [
                r.scenario.to_string(),
                format!("{} × {}", r.tenants, r.builds_per_tenant),
                format!("{} / {}", r.cache_hits, r.cache_misses),
                ms(r.build_ns),
                ms(r.push_ns),
                origin,
            ]
        };
        harness::table(header, results.iter().map(row))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Suite;

    /// The full sweep satisfies every structural gate and renders a
    /// well-formed document.
    #[test]
    fn sweep_passes_structural_gates() {
        let results = Build::run();
        match Build::gates(&results) {
            Ok(report) => assert!(!report.is_empty()),
            Err(errors) => panic!("gates failed: {errors:?}"),
        }
        let doc = render(&results);
        assert!(doc.render().contains("shared-base"));
    }

    /// Two full sweeps are byte-identical (logical time only).
    #[test]
    fn sweep_is_deterministic() {
        assert_eq!(
            render(&Build::run()).render(),
            render(&Build::run()).render()
        );
    }
}
