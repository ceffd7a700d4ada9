//! Lazy-vs-eager pull benchmark + the `bench-lazy` CI gate.
//!
//! Measures **time-to-first-exec** (ttfe): the logical time from a cold
//! node deciding to run a container until the entrypoint's working set
//! has been read. Two consume paths per workload shape:
//!
//! * **eager** — the full pipeline a conventional HPC engine runs: pull
//!   every layer, convert to a squash image, mount, then read the
//!   first-exec set locally (`Engine::pull` + `Engine::prepare` at the
//!   goldens' parallelism).
//! * **lazy** — `Engine::pull_lazy` over the seekable indexed format:
//!   fetch only the index, launch, and fault exactly the first-exec
//!   set's chunk ranges in through the FUSE cost model.
//!
//! Lazy should dominate on many-small-files — the conversion-heavy shape
//! where eager cold-start pays for 768 files it never touches — while a
//! full scan (`materialize`) must *lose* to eager, reproducing the §7
//! trade-off. Both directions are gated live, alongside a
//! bytes-to-first-exec gate and a shared-store sibling gate.
//!
//! Everything runs on the logical clock: runs are bit-for-bit
//! deterministic, the harness double-runs to prove it and `--check`
//! holds the document to `BENCH_lazy.json` byte for byte (re-bless with
//! `bench lazy --bless`).

use crate::harness::{self, GateResult};
use crate::json::Json;
use crate::storm_suite::percentile;
use crate::suite::{Workload, WORKLOADS};
use hpcc_codec::archive::Archive;
use hpcc_engine::engine::{Engine, Host, PullSources};
use hpcc_engine::engines;
use hpcc_engine::lazy::publish_seekable;
use hpcc_oci::cas::Cas;
use hpcc_oci::layer;
use hpcc_registry::registry::{Registry, RegistryCaps};
use hpcc_sim::{FaultInjector, SimClock};
use hpcc_storage::journal::JournaledStore;
use hpcc_storage::BlobStore;
use hpcc_vfs::fs::MemFs;
use hpcc_vfs::path::VPath;
use hpcc_vfs::seekable::DEFAULT_CHUNK_SIZE;
use std::sync::Arc;

/// Cold replicas measured per (shape, path); the first-exec set varies by
/// replica on the many-small-files shape, so p95 is a real spread there.
pub(crate) const REPLICAS: usize = 6;

/// Eager pipeline width — the same width the goldens and the pipeline
/// bench run at, so the eager baseline is the tuned pipeline, not a straw
/// man.
pub(crate) const EAGER_PARALLELISM: usize = 4;

/// On many-small-files, eager cold-start ttfe must exceed lazy ttfe by at
/// least this factor (strictly greater than 1 would gate on a rounding
/// error; this demands a visible win).
pub(crate) const LAZY_WIN_FLOOR: f64 = 1.05;

/// One workload shape's lazy-vs-eager measurement. All times logical ns.
#[derive(Debug, Clone)]
pub struct LazyRow {
    pub workload: &'static str,
    /// Files in the image.
    pub files: usize,
    /// Uncompressed image bytes.
    pub orig_bytes: u64,
    /// Serialized seekable-index bytes (what a lazy launch must move).
    pub index_bytes: u64,
    /// Distinct content-addressed chunks the image references.
    pub distinct_chunks: usize,
    /// Files the entrypoint touches before first exec.
    pub first_exec_files: usize,
    /// Lazy time-to-first-exec across cold replicas.
    pub lazy_ttfe_p50_ns: u64,
    pub lazy_ttfe_p95_ns: u64,
    /// Eager (pull + convert + mount + read) across cold replicas.
    pub eager_ttfe_p50_ns: u64,
    pub eager_ttfe_p95_ns: u64,
    /// Lazy ttfe of a sibling container on the same node (index + chunks
    /// already in the shared blob store).
    pub sibling_ttfe_ns: u64,
    /// Bytes a lazy first exec moved from the registry (index + chunks).
    pub lazy_first_exec_bytes: u64,
    /// Bytes the eager pipeline fetched before anything could run.
    pub eager_pull_bytes: u64,
    /// Touch-everything comparison: lazy `materialize` vs eager pipeline
    /// plus a full local scan. Lazy must lose here.
    pub lazy_full_ns: u64,
    pub eager_full_ns: u64,
}

// ------------------------------------------------------------ measurement

/// The deterministic set of image-relative paths the entrypoint reads
/// before first exec. Varies per replica on many-small-files (a python
/// interpreter imports a handful of the 768 modules), fixed on the other
/// shapes.
pub(crate) fn first_exec_set(workload: Workload, replica: usize) -> Vec<String> {
    match workload {
        Workload::Small => vec!["usr/lib/libc.so.6".into(), "opt/app/run".into()],
        Workload::Large => vec!["opt/data/part0.bin".into()],
        Workload::ManySmallFiles => (0..4)
            .map(|k| {
                format!(
                    "usr/lib/app/pkg{}/mod{}.py",
                    (replica * 3 + k * 5) % 16,
                    (replica * 7 + k * 11) % 48
                )
            })
            .collect(),
    }
}

/// The workload's flattened root tree (what eager conversion produces and
/// what the seekable image is built from).
fn flattened_rootfs(workload: Workload, cas: &Cas) -> MemFs {
    let img = workload.build(cas);
    let layers: Vec<Archive> = img
        .manifest
        .layers
        .iter()
        .map(|d| Archive::from_bytes(&cas.get(&d.digest).unwrap()).unwrap())
        .collect();
    layer::flatten(&layers).unwrap()
}

fn fresh_eager_engine() -> (Engine, Arc<FaultInjector>) {
    let engine = engines::podman_hpc();
    engine.set_parallelism(EAGER_PARALLELISM);
    engine.set_blob_store(BlobStore::new(8, 8 << 30));
    let inj = Arc::new(FaultInjector::new(0, Vec::new()));
    engine.set_fault_injector(Arc::clone(&inj));
    (engine, inj)
}

fn fresh_lazy_engine() -> (Engine, Arc<JournaledStore>, Arc<FaultInjector>) {
    let engine = engines::podman_hpc();
    let store = BlobStore::new(8, 8 << 30);
    let journal = JournaledStore::new(store);
    engine.set_journaled_store(Arc::clone(&journal));
    let inj = Arc::new(FaultInjector::new(0, Vec::new()));
    engine.set_fault_injector(Arc::clone(&inj));
    (engine, journal, inj)
}

/// One eager cold start: pull + prepare + read `touch` (every file when
/// `None`) through the prepared driver. Returns (ns, fetched bytes).
fn eager_cold_start(registry: &Registry, repo: &str, touch: Option<&[String]>) -> (u64, u64) {
    let (engine, inj) = fresh_eager_engine();
    let host = Host::compute_node();
    let clock = SimClock::new();
    let pulled = engine
        .pull(registry, repo, "v1", &clock)
        .expect("bench eager pull succeeds");
    let prepared = engine
        .prepare(&pulled, 1000, &host, true, &clock)
        .expect("bench eager prepare succeeds");
    let touch = touch.map_or_else(|| prepared.driver.file_paths(), <[String]>::to_vec);
    for p in &touch {
        prepared
            .driver
            .read_file(p, &clock)
            .expect("eager read succeeds");
    }
    (
        clock.now().since(hpcc_sim::SimTime::ZERO).0,
        inj.metrics().get("engine.pull.fetched_bytes"),
    )
}

/// Measure one workload shape end to end.
pub(crate) fn bench_workload(workload: Workload) -> LazyRow {
    let cas = Cas::new();
    let rootfs = flattened_rootfs(workload, &cas);
    let registry = Registry::new("bench-lazy", RegistryCaps::open());
    registry.create_namespace("bench", None).unwrap();
    let img = workload.build(&cas);
    registry
        .push_image("bench/app", "v1", &img.manifest, &cas)
        .unwrap();
    let (index_digest, index) =
        publish_seekable(&registry, &rootfs, &VPath::root(), DEFAULT_CHUNK_SIZE).unwrap();
    let index_bytes = index.to_bytes().len() as u64;

    // Lazy cold replicas, each on a fresh node.
    let mut lazy_ttfe = Vec::with_capacity(REPLICAS);
    let mut lazy_first_exec_bytes = 0;
    let mut sibling_ttfe_ns = 0;
    for r in 0..REPLICAS {
        let (engine, _journal, inj) = fresh_lazy_engine();
        let clock = SimClock::new();
        let c = engine
            .pull_lazy(PullSources::primary_only(&registry), &index_digest, &clock)
            .expect("bench lazy pull succeeds");
        for p in first_exec_set(workload, r) {
            c.read_file(&p, &clock).expect("lazy read succeeds");
        }
        lazy_ttfe.push(clock.now().since(hpcc_sim::SimTime::ZERO).0);
        if r == 0 {
            lazy_first_exec_bytes = inj.metrics().get("engine.lazy.fetched_bytes");
            // Sibling on the same node: the shared store already holds
            // the index and the first replica's chunks.
            let t0 = clock.now();
            let sib = engine
                .pull_lazy(PullSources::primary_only(&registry), &index_digest, &clock)
                .unwrap();
            for p in first_exec_set(workload, 0) {
                sib.read_file(&p, &clock).unwrap();
            }
            sibling_ttfe_ns = clock.now().since(t0).0;
        }
    }
    lazy_ttfe.sort_unstable();

    // Eager cold replicas.
    let mut eager_ttfe = Vec::with_capacity(REPLICAS);
    let mut eager_pull_bytes = 0;
    for r in 0..REPLICAS {
        let touch = first_exec_set(workload, r);
        let (ns, bytes) = eager_cold_start(&registry, "bench/app", Some(&touch));
        eager_ttfe.push(ns);
        if r == 0 {
            eager_pull_bytes = bytes;
        }
    }
    eager_ttfe.sort_unstable();

    // Touch-everything comparison.
    let lazy_full_ns = {
        let (engine, _journal, _inj) = fresh_lazy_engine();
        let clock = SimClock::new();
        let c = engine
            .pull_lazy(PullSources::primary_only(&registry), &index_digest, &clock)
            .unwrap();
        c.materialize(&clock).unwrap();
        clock.now().since(hpcc_sim::SimTime::ZERO).0
    };
    let (eager_full_ns, _) = eager_cold_start(&registry, "bench/app", None);

    LazyRow {
        workload: workload.name(),
        files: index.file_paths().count(),
        orig_bytes: index.total_orig_bytes(),
        index_bytes,
        distinct_chunks: index.distinct_chunks().len(),
        first_exec_files: first_exec_set(workload, 0).len(),
        lazy_ttfe_p50_ns: percentile(&lazy_ttfe, 0.50),
        lazy_ttfe_p95_ns: percentile(&lazy_ttfe, 0.95),
        eager_ttfe_p50_ns: percentile(&eager_ttfe, 0.50),
        eager_ttfe_p95_ns: percentile(&eager_ttfe, 0.95),
        sibling_ttfe_ns,
        lazy_first_exec_bytes,
        eager_pull_bytes,
        lazy_full_ns,
        eager_full_ns,
    }
}

// ------------------------------------------------------------- live gate

fn row<'a>(rows: &'a [LazyRow], workload: &str) -> Option<&'a LazyRow> {
    rows.iter().find(|r| r.workload == workload)
}

// ----------------------------------------------------------------- render

fn render_row(r: &LazyRow) -> Json {
    Json::obj([
        ("workload", Json::Str(r.workload.to_string())),
        ("files", Json::Num(r.files as f64)),
        ("orig_bytes", Json::Num(r.orig_bytes as f64)),
        ("index_bytes", Json::Num(r.index_bytes as f64)),
        ("distinct_chunks", Json::Num(r.distinct_chunks as f64)),
        ("first_exec_files", Json::Num(r.first_exec_files as f64)),
        ("lazy_ttfe_p50_ns", Json::Num(r.lazy_ttfe_p50_ns as f64)),
        ("lazy_ttfe_p95_ns", Json::Num(r.lazy_ttfe_p95_ns as f64)),
        ("eager_ttfe_p50_ns", Json::Num(r.eager_ttfe_p50_ns as f64)),
        ("eager_ttfe_p95_ns", Json::Num(r.eager_ttfe_p95_ns as f64)),
        ("sibling_ttfe_ns", Json::Num(r.sibling_ttfe_ns as f64)),
        (
            "lazy_first_exec_bytes",
            Json::Num(r.lazy_first_exec_bytes as f64),
        ),
        ("eager_pull_bytes", Json::Num(r.eager_pull_bytes as f64)),
        ("lazy_full_ns", Json::Num(r.lazy_full_ns as f64)),
        ("eager_full_ns", Json::Num(r.eager_full_ns as f64)),
    ])
}

/// Render results as the BENCH_lazy.json document.
fn render(results: &[LazyRow]) -> Json {
    Json::obj([
        ("schema", Json::Str("hpcc-bench-lazy/v1".to_string())),
        ("replicas", Json::Num(REPLICAS as f64)),
        ("chunk_size", Json::Num(DEFAULT_CHUNK_SIZE as f64)),
        ("eager_parallelism", Json::Num(EAGER_PARALLELISM as f64)),
        ("rows", Json::Arr(results.iter().map(render_row).collect())),
    ])
}

/// `bench lazy`.
pub(crate) struct Lazy;

impl harness::Suite for Lazy {
    const NAME: &'static str = "lazy";
    const GOLDEN: Option<harness::Render<Self::Results>> = Some(|rows| render(rows));
    type Results = Vec<LazyRow>;

    /// Run all three workload shapes.
    fn run() -> Vec<LazyRow> {
        WORKLOADS.into_iter().map(bench_workload).collect()
    }

    /// Structural gates that hold whatever the golden says:
    ///
    /// 1. On many-small-files, lazy ttfe beats eager cold-start by at least
    ///    [`LAZY_WIN_FLOOR`]× — the headline claim.
    /// 2. On many-small-files, lazy moves strictly fewer bytes to first exec.
    /// 3. On many-small-files, a full scan *loses* lazily — the trade-off has
    ///    two sides or the model is broken.
    /// 4. On every shape, a sibling on a warmed node launches faster than the
    ///    cold p50 — the shared store must pay off.
    fn gates(results: &Vec<LazyRow>) -> GateResult {
        let mut errors = Vec::new();
        let mut report = Vec::new();

        let Some(msf) = row(results, "many-small-files") else {
            return Err(vec!["no many-small-files row".to_string()]);
        };
        let win = msf.eager_ttfe_p50_ns as f64 / msf.lazy_ttfe_p50_ns.max(1) as f64;
        if win < LAZY_WIN_FLOOR {
            errors.push(format!(
                "many-small-files: lazy ttfe {:.2} ms must beat eager {:.2} ms by ≥{LAZY_WIN_FLOOR}× (got {win:.2}×)",
                msf.lazy_ttfe_p50_ns as f64 / 1e6,
                msf.eager_ttfe_p50_ns as f64 / 1e6,
            ));
        } else {
            report.push(format!(
                "many-small-files: lazy ttfe {:.2} ms vs eager {:.2} ms ({win:.2}× win)",
                msf.lazy_ttfe_p50_ns as f64 / 1e6,
                msf.eager_ttfe_p50_ns as f64 / 1e6,
            ));
        }
        if msf.lazy_first_exec_bytes >= msf.eager_pull_bytes {
            errors.push(format!(
                "many-small-files: lazy moved {} B to first exec, not under eager's {} B",
                msf.lazy_first_exec_bytes, msf.eager_pull_bytes
            ));
        } else {
            report.push(format!(
                "many-small-files: {} B to first exec vs {} B eager ({:.1}× fewer)",
                msf.lazy_first_exec_bytes,
                msf.eager_pull_bytes,
                msf.eager_pull_bytes as f64 / msf.lazy_first_exec_bytes.max(1) as f64
            ));
        }
        if msf.lazy_full_ns <= msf.eager_full_ns {
            errors.push(format!(
                "many-small-files: full scan should favor eager, but lazy {:.2} ms ≤ eager {:.2} ms",
                msf.lazy_full_ns as f64 / 1e6,
                msf.eager_full_ns as f64 / 1e6
            ));
        } else {
            report.push(format!(
                "many-small-files: full scan lazily {:.2} ms vs eager {:.2} ms (eager wins, as it must)",
                msf.lazy_full_ns as f64 / 1e6,
                msf.eager_full_ns as f64 / 1e6
            ));
        }

        for r in results {
            if r.sibling_ttfe_ns >= r.lazy_ttfe_p50_ns {
                errors.push(format!(
                    "{}: sibling ttfe {:.3} ms not under cold p50 {:.3} ms — shared store not paying off",
                    r.workload,
                    r.sibling_ttfe_ns as f64 / 1e6,
                    r.lazy_ttfe_p50_ns as f64 / 1e6
                ));
            } else {
                report.push(format!(
                    "{}: sibling ttfe {:.3} ms vs cold {:.3} ms",
                    r.workload,
                    r.sibling_ttfe_ns as f64 / 1e6,
                    r.lazy_ttfe_p50_ns as f64 / 1e6
                ));
            }
        }

        if errors.is_empty() {
            Ok(report)
        } else {
            Err(errors)
        }
    }

    /// The time-to-first-exec table of EXPERIMENTS.md.
    fn table(results: &Vec<LazyRow>) -> Vec<Vec<String>> {
        let ms = |ns: u64| format!("{:.2} ms", ns as f64 / 1e6);
        let kb = |b: u64| format!("{:.0} KiB", b as f64 / 1024.0);
        let header = [
            "shape",
            "files",
            "lazy ttfe p50",
            "eager ttfe p50",
            "win",
            "first-exec bytes (lazy/eager)",
            "sibling ttfe",
            "full scan (lazy/eager)",
        ];
        let row = |r: &LazyRow| {
            let win = r.eager_ttfe_p50_ns as f64 / r.lazy_ttfe_p50_ns.max(1) as f64;
            [
                r.workload.to_string(),
                r.files.to_string(),
                ms(r.lazy_ttfe_p50_ns),
                ms(r.eager_ttfe_p50_ns),
                format!("{win:.2}×"),
                format!(
                    "{} / {}",
                    kb(r.lazy_first_exec_bytes),
                    kb(r.eager_pull_bytes)
                ),
                ms(r.sibling_ttfe_ns),
                format!("{} / {}", ms(r.lazy_full_ns), ms(r.eager_full_ns)),
            ]
        };
        harness::table(header, results.iter().map(row))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One shape measured end to end satisfies the structural gates and
    /// renders a well-formed row.
    #[test]
    fn many_small_files_row_passes_gates() {
        let row = bench_workload(Workload::ManySmallFiles);
        assert!(
            row.lazy_ttfe_p50_ns < row.eager_ttfe_p50_ns,
            "lazy ttfe {} must beat eager {}",
            row.lazy_ttfe_p50_ns,
            row.eager_ttfe_p50_ns
        );
        assert!(row.lazy_first_exec_bytes < row.eager_pull_bytes);
        assert!(
            row.lazy_full_ns > row.eager_full_ns,
            "full scan favors eager"
        );
        assert!(row.sibling_ttfe_ns < row.lazy_ttfe_p50_ns);
        let json = render(&[row]);
        assert!(json.render().contains("many-small-files"));
    }

    /// Two runs of one shape are byte-identical (logical time only).
    #[test]
    fn rows_are_deterministic() {
        let a = render(&[bench_workload(Workload::Small)]);
        let b = render(&[bench_workload(Workload::Small)]);
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn first_exec_sets_are_within_the_image() {
        let cas = Cas::new();
        for w in WORKLOADS {
            let rootfs = flattened_rootfs(w, &cas);
            for r in 0..REPLICAS {
                for p in first_exec_set(w, r) {
                    assert!(
                        rootfs.exists(&VPath::root().join(&p)),
                        "{} missing {p}",
                        w.name()
                    );
                }
            }
        }
    }
}
