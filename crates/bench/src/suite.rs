//! The pipeline benchmark suite behind `bench pipeline` and the CI bench
//! stage.
//!
//! For each workload shape (few big layers, one big binary, many small
//! files — the §4.1.4 axis) and each pipeline parallelism in
//! [`PARALLELISM_LEVELS`], the suite drives the full pull→convert
//! pipeline three times against one node-local [`BlobStore`]:
//!
//! 1. **cold** — empty store and conversion cache; pins the overlapped
//!    fetch/convert makespan,
//! 2. **warm** — identical repeat; pins the blob-store + conversion-cache
//!    hit path,
//! 3. **sibling** — a second image sharing every base layer; pins
//!    content-addressed dedup (shared layers served from the store
//!    instead of the registry).
//!
//! Everything runs on the logical clock, so the numbers are makespans of
//! the simulated schedule — exactly reproducible, which is what lets
//! `--check` hold the whole document to the checked-in
//! `BENCH_pipeline.json` byte for byte.

use crate::harness::{self, GateResult};
use crate::json::Json;
use hpcc_engine::engine::{Engine, Host};
use hpcc_engine::engines;
use hpcc_oci::builder::{BuiltImage, ImageBuilder};
use hpcc_oci::cas::Cas;
use hpcc_registry::registry::{Registry, RegistryCaps};
use hpcc_sim::obs::Tracer;
use hpcc_sim::{SimClock, SimTime};
use hpcc_storage::BlobStore;
use hpcc_vfs::path::VPath;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Pipeline widths the suite sweeps.
pub const PARALLELISM_LEVELS: [usize; 3] = [1, 4, 16];

/// The three workload shapes of the §4.1.4 image-layout axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two thin layers — the latency-bound floor.
    Small,
    /// Four 8 MiB layers — bandwidth-bound, conversion-heavy.
    Large,
    /// Sixteen layers of small files — request-latency-bound; the shape
    /// where pipeline overlap pays most.
    ManySmallFiles,
}

pub const WORKLOADS: [Workload; 3] = [Workload::Small, Workload::Large, Workload::ManySmallFiles];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::Small => "small",
            Workload::Large => "large",
            Workload::ManySmallFiles => "many-small-files",
        }
    }

    /// Build the workload's image in `cas`: deterministic contents, layer
    /// count chosen to exercise the shape. Shared with the lazy-pull
    /// suite, which flattens the same layers into a seekable image.
    pub(crate) fn build(self, cas: &Cas) -> BuiltImage {
        let p = |s: &str| VPath::parse(s);
        match self {
            Workload::Small => ImageBuilder::from_scratch()
                .run("base", move |fs| {
                    fs.write_p(&p("/usr/lib/libc.so.6"), vec![0xB0; 64 << 10])
                        .map_err(|e| e.to_string())
                })
                .run("app", move |fs| {
                    fs.write_p(&p("/opt/app/run"), vec![0xB1; 16 << 10])
                        .map_err(|e| e.to_string())
                })
                .entrypoint(&["/opt/app/run"])
                .build(cas)
                .expect("small image builds"),
            Workload::Large => {
                let mut b = ImageBuilder::from_scratch();
                for i in 0..4usize {
                    b = b.run(&format!("bulk-{i}"), move |fs| {
                        fs.write_p(
                            &VPath::parse(&format!("/opt/data/part{i}.bin")),
                            vec![0xA0u8.wrapping_add(i as u8); 8 << 20],
                        )
                        .map_err(|e| e.to_string())
                    });
                }
                b.entrypoint(&["/opt/data/part0.bin"])
                    .build(cas)
                    .expect("large image builds")
            }
            Workload::ManySmallFiles => {
                let mut b = ImageBuilder::from_scratch();
                for layer in 0..16usize {
                    b = b.run(&format!("pkgs-{layer}"), move |fs| {
                        for f in 0..48usize {
                            let path = format!("/usr/lib/app/pkg{layer}/mod{f}.py");
                            let body =
                                format!("# pkg {layer} mod {f}\ndef run():\n    return {f}\n")
                                    .repeat(32)
                                    .into_bytes();
                            fs.write_p(&VPath::parse(&path), body)
                                .map_err(|e| e.to_string())?;
                        }
                        Ok(())
                    });
                }
                b.entrypoint(&["/usr/bin/python3"])
                    .build(cas)
                    .expect("many-small-files image builds")
            }
        }
    }
}

/// One (workload × parallelism) measurement.
#[derive(Debug, Clone)]
pub struct PipelineRun {
    pub workload: &'static str,
    pub parallelism: usize,
    pub layers: usize,
    pub image_bytes: u64,
    /// Cold pull + convert makespan (empty caches), logical ns.
    pub cold_makespan_ns: u64,
    /// Identical repeat: blob store + conversion cache hits, logical ns.
    pub warm_makespan_ns: u64,
    /// Pull of a sibling image sharing every base layer, logical ns.
    pub sibling_makespan_ns: u64,
    /// Blob-store hit rate of the warm repeat (lookups hitting / total).
    pub warm_hit_rate: f64,
    /// Bytes the sibling pull served from the store instead of the
    /// registry — the content-addressed dedup payoff.
    pub deduped_bytes: u64,
    /// Cold-window span breakdown: span name → (count, summed ns).
    pub stages: BTreeMap<String, (u64, u64)>,
}

fn pull_and_prepare(engine: &Engine, registry: &Registry, repo: &str, clock: &SimClock) {
    let host = Host::compute_node();
    let pulled = engine
        .pull(registry, repo, "v1", clock)
        .expect("bench pull succeeds");
    engine
        .prepare(&pulled, 1000, &host, true, clock)
        .expect("bench prepare succeeds");
}

/// Sum span durations by name over `[from, to)` (by span start time).
fn stage_breakdown(
    spans: &[hpcc_sim::obs::SpanRecord],
    from: SimTime,
    to: SimTime,
) -> BTreeMap<String, (u64, u64)> {
    let mut out: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for s in spans {
        if s.start >= from && s.start < to {
            // Resolve the symbol: the map must stay lexicographically
            // keyed so rendering is independent of interning order.
            let e = out.entry(s.name.as_str().to_string()).or_insert((0, 0));
            e.0 += 1;
            e.1 += s.duration().0;
        }
    }
    out
}

/// Run one (workload × parallelism) configuration from scratch.
pub fn run_config(workload: Workload, parallelism: usize) -> PipelineRun {
    let cas = Cas::new();
    let image = workload.build(&cas);
    // The sibling shares every layer of `image` and adds one thin one:
    // its pull should fetch only the new layer + config.
    let sibling = ImageBuilder::from_image(&image)
        .run("extra", |fs| {
            fs.write_p(&VPath::parse("/etc/extra.conf"), vec![0x5A; 2048])
                .map_err(|e| e.to_string())
        })
        .build(&cas)
        .expect("sibling image builds");

    let registry = Registry::new("bench-site", RegistryCaps::open());
    registry.create_namespace("bench", None).unwrap();
    for (repo, img) in [("bench/app", &image), ("bench/app-next", &sibling)] {
        registry
            .push_image(repo, "v1", &img.manifest, &cas)
            .unwrap();
    }

    let tracer = Tracer::new();
    registry.set_tracer(Arc::clone(&tracer));
    let engine = engines::podman_hpc();
    engine.set_tracer(Arc::clone(&tracer));
    engine.set_parallelism(parallelism);
    let store = BlobStore::node_local();
    engine.set_blob_store(Arc::clone(&store));

    let clock = SimClock::new();
    let t0 = clock.now();
    pull_and_prepare(&engine, &registry, "bench/app", &clock);
    let t1 = clock.now();
    let cold_stats = store.stats();

    pull_and_prepare(&engine, &registry, "bench/app", &clock);
    let t2 = clock.now();
    let warm_stats = store.stats();

    pull_and_prepare(&engine, &registry, "bench/app-next", &clock);
    let t3 = clock.now();
    let sibling_stats = store.stats();

    let warm_lookups =
        (warm_stats.hits - cold_stats.hits) + (warm_stats.misses - cold_stats.misses);
    let warm_hit_rate = if warm_lookups == 0 {
        0.0
    } else {
        (warm_stats.hits - cold_stats.hits) as f64 / warm_lookups as f64
    };

    PipelineRun {
        workload: workload.name(),
        parallelism,
        layers: image.manifest.layers.len(),
        image_bytes: image.manifest.layers.iter().map(|d| d.size).sum(),
        cold_makespan_ns: t1.since(t0).0,
        warm_makespan_ns: t2.since(t1).0,
        sibling_makespan_ns: t3.since(t2).0,
        warm_hit_rate,
        deduped_bytes: sibling_stats.hit_bytes - warm_stats.hit_bytes,
        stages: stage_breakdown(&tracer.finished(), t0, t1),
    }
}

/// Cold makespan of `workload` at `parallelism` (0 if the run is absent).
fn cold_at(runs: &[PipelineRun], workload: Workload, parallelism: usize) -> u64 {
    runs.iter()
        .find(|r| r.workload == workload.name() && r.parallelism == parallelism)
        .map_or(0, |r| r.cold_makespan_ns)
}

fn render(runs: &[PipelineRun]) -> Json {
    let run_objs: Vec<Json> = runs
        .iter()
        .map(|r| {
            let stages: BTreeMap<String, Json> = r
                .stages
                .iter()
                .map(|(name, (count, total_ns))| {
                    (
                        name.clone(),
                        Json::obj([
                            ("count", Json::Num(*count as f64)),
                            ("total_ns", Json::Num(*total_ns as f64)),
                        ]),
                    )
                })
                .collect();
            Json::obj([
                ("workload", Json::Str(r.workload.into())),
                ("parallelism", Json::Num(r.parallelism as f64)),
                ("layers", Json::Num(r.layers as f64)),
                ("image_bytes", Json::Num(r.image_bytes as f64)),
                ("cold_makespan_ns", Json::Num(r.cold_makespan_ns as f64)),
                ("warm_makespan_ns", Json::Num(r.warm_makespan_ns as f64)),
                (
                    "sibling_makespan_ns",
                    Json::Num(r.sibling_makespan_ns as f64),
                ),
                (
                    "warm_hit_rate",
                    Json::Num((r.warm_hit_rate * 1e6).round() / 1e6),
                ),
                ("deduped_bytes", Json::Num(r.deduped_bytes as f64)),
                ("stages", Json::Obj(stages)),
            ])
        })
        .collect();
    let summary: BTreeMap<String, Json> = WORKLOADS
        .iter()
        .map(|w| {
            let (p1, p16) = (cold_at(runs, *w, 1), cold_at(runs, *w, 16));
            let speedup = if p16 == 0 {
                0.0
            } else {
                p1 as f64 / p16 as f64
            };
            (
                w.name().to_string(),
                Json::obj([
                    ("cold_p1_ns", Json::Num(p1 as f64)),
                    ("cold_p16_ns", Json::Num(p16 as f64)),
                    (
                        "cold_speedup_p16_over_p1",
                        Json::Num((speedup * 1e3).round() / 1e3),
                    ),
                ]),
            )
        })
        .collect();
    Json::obj([
        ("schema", Json::Str("hpcc-pipeline-bench/v1".into())),
        ("engine", Json::Str("Podman-HPC".into())),
        (
            "parallelism_levels",
            Json::Arr(
                PARALLELISM_LEVELS
                    .iter()
                    .map(|p| Json::Num(*p as f64))
                    .collect(),
            ),
        ),
        ("runs", Json::Arr(run_objs)),
        ("summary", Json::Obj(summary)),
    ])
}

/// `bench pipeline`.
pub struct Pipeline;

impl harness::Suite for Pipeline {
    const NAME: &'static str = "pipeline";
    const GOLDEN: Option<harness::Render<Self::Results>> = Some(|rows| render(rows));
    type Results = Vec<PipelineRun>;

    /// The full sweep: every workload at every parallelism level.
    fn run() -> Vec<PipelineRun> {
        let mut runs = Vec::new();
        for workload in WORKLOADS {
            for parallelism in PARALLELISM_LEVELS {
                runs.push(run_config(workload, parallelism));
            }
        }
        runs
    }

    /// The acceptance properties of the parallel pipeline itself; the
    /// report carries the cold p16-over-p1 speedup per workload.
    fn gates(runs: &Vec<PipelineRun>) -> GateResult {
        let mut errors = Vec::new();
        let mut report = Vec::new();
        for w in WORKLOADS {
            let (p1, p16) = (cold_at(runs, w, 1), cold_at(runs, w, 16));
            if p1 == 0 || p16 == 0 {
                errors.push(format!("{}: p1 or p16 run missing", w.name()));
                continue;
            }
            report.push(format!(
                "{}: cold speedup p16 over p1 {:.2}x",
                w.name(),
                p1 as f64 / p16 as f64
            ));
            if p16 > p1 {
                errors.push(format!(
                    "{}: cold makespan grew with parallelism (p16 {p16} ns > p1 {p1} ns)",
                    w.name()
                ));
            }
            if w == Workload::ManySmallFiles && p16 >= p1 {
                errors.push(format!(
                    "many-small-files: parallelism 16 must be strictly faster than 1 \
                     ({p16} ns vs {p1} ns)"
                ));
            }
        }
        for r in runs {
            if r.warm_hit_rate <= 0.0 {
                errors.push(format!(
                    "{}@{}: repeated pull never hit the blob store",
                    r.workload, r.parallelism
                ));
            }
            if r.deduped_bytes == 0 {
                errors.push(format!(
                    "{}@{}: sibling pull deduplicated no bytes",
                    r.workload, r.parallelism
                ));
            }
            if r.warm_makespan_ns >= r.cold_makespan_ns {
                errors.push(format!(
                    "{}@{}: warm pull ({} ns) not faster than cold ({} ns)",
                    r.workload, r.parallelism, r.warm_makespan_ns, r.cold_makespan_ns
                ));
            }
        }
        harness::verdict(report, errors)
    }

    fn table(runs: &Vec<PipelineRun>) -> Vec<Vec<String>> {
        let ms = |ns: u64| format!("{:.3}", ns as f64 / 1e6);
        let header = [
            "workload",
            "par",
            "cold (ms)",
            "warm (ms)",
            "sibling (ms)",
            "hit rate",
            "dedup (KiB)",
        ];
        harness::table(
            header,
            runs.iter().map(|r| {
                [
                    r.workload.to_string(),
                    r.parallelism.to_string(),
                    ms(r.cold_makespan_ns),
                    ms(r.warm_makespan_ns),
                    ms(r.sibling_makespan_ns),
                    format!("{:.2}", r.warm_hit_rate),
                    format!("{:.1}", r.deduped_bytes as f64 / 1024.0),
                ]
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_workload_sweep_is_deterministic_and_structurally_sound() {
        let a = run_config(Workload::Small, 1);
        let b = run_config(Workload::Small, 1);
        assert_eq!(a.cold_makespan_ns, b.cold_makespan_ns);
        assert_eq!(a.warm_makespan_ns, b.warm_makespan_ns);
        assert_eq!(a.stages, b.stages);
        assert!(a.warm_hit_rate > 0.0);
        assert!(a.deduped_bytes > 0);
        assert!(a.warm_makespan_ns < a.cold_makespan_ns);
    }

    #[test]
    fn many_small_files_overlap_pays() {
        let p1 = run_config(Workload::ManySmallFiles, 1);
        let p16 = run_config(Workload::ManySmallFiles, 16);
        assert!(
            p16.cold_makespan_ns < p1.cold_makespan_ns,
            "p16 {} ns should beat p1 {} ns",
            p16.cold_makespan_ns,
            p1.cold_makespan_ns
        );
        // Identical downstream state regardless of parallelism.
        assert_eq!(p1.image_bytes, p16.image_bytes);
        assert_eq!(p1.layers, p16.layers);
    }
}
