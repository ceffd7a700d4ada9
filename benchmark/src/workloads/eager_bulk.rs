//! `eager_bulk`: the conventional HPC path on a few big layers.
//!
//! One op is a fresh node doing pull → prepare(explicit) → read every
//! file through the prepared driver → run, then a warm redeploy on the
//! same node. Almost all host time is LZ compression inside the squash
//! conversion and SHA-256 digest checks; almost none is metadata.

use crate::gen::{mixed_bytes, Fnv, GenFile, Rng};
use crate::harness::{stage_coverage_pct, Outcome, RunStats, Workload};
use crate::sut;
use crate::trace::Trace;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Image variants ops cycle through (same shape, different bytes).
const CLASSES: usize = 3;
const LAYERS: usize = 4;
const FILE_BYTES: usize = 768 * 1024;

pub struct EagerBulk {
    registry: sut::SutRegistry,
    tracer: sut::SimTracer,
    host: sut::SutHost,
    images: Vec<Vec<GenFile>>,
    input_digest: u64,
    requests_seen: u64,
    /// The last op's pulled image: what the probes replay.
    last_pulled: Option<sut::PulledImage>,
    last_sim_spans: u64,
    stored_bytes: u64,
    orig_bytes: u64,
}

pub struct Done {
    node: sut::EagerNode,
    pulled: sut::PulledImage,
    read: Vec<(String, Vec<u8>)>,
    exits: [i32; 2],
}

fn repo(class: usize) -> String {
    format!("bench/bulk{class}")
}

impl Workload for EagerBulk {
    const NAME: &'static str = "eager_bulk";
    const NOMINAL_OPS_PER_S: f64 = 12.0;
    type Done = Done;

    fn setup(seed: u64, trace: &mut Trace) -> Result<Self, String> {
        let registry = sut::new_registry("bench-eager");
        sut::create_namespace(&registry, "bench")?;
        let tracer = sut::sim_tracer();
        let mut digest = Fnv::new();
        let mut images = Vec::with_capacity(CLASSES);
        for class in 0..CLASSES {
            let files: Vec<GenFile> = (0..LAYERS)
                .map(|l| {
                    let mut rng = Rng::stream(seed, (class * LAYERS + l) as u64);
                    (
                        format!("/opt/data/c{class}/part{l}.bin"),
                        Arc::new(mixed_bytes(&mut rng, FILE_BYTES)),
                    )
                })
                .collect();
            digest.files(&files);
            let span = trace.begin("oci.image_build");
            let (cas, img) = sut::build_image(&files)?;
            trace.end(span);
            let span = trace.begin("registry.push");
            let pushed = sut::push_image(&registry, &cas, &repo(class), &img)?;
            let ns = trace.end(span);
            trace.book("registry.push", pushed as f64, ns);
            images.push(files);
        }
        Ok(EagerBulk {
            requests_seen: sut::registry_requests(&registry),
            registry,
            tracer,
            host: sut::compute_host(),
            images,
            input_digest: digest.finish(),
            last_pulled: None,
            last_sim_spans: 0,
            stored_bytes: 0,
            orig_bytes: 0,
        })
    }

    fn input_digest(&self) -> u64 {
        self.input_digest
    }

    fn classes(&self) -> usize {
        CLASSES
    }

    fn op(&mut self, i: usize, trace: &mut Trace) -> Result<Done, String> {
        let repo = repo(i % CLASSES);
        let node = trace.leaf("engine.node_up", || sut::EagerNode::new(&self.tracer));
        let pulled = trace.leaf("engine.pull", || node.pull(&self.registry, &repo))?;
        let prepared = trace.leaf("engine.prepare", || node.prepare(&pulled, &self.host))?;
        let span = trace.begin("engine.read");
        let read = node.read_all(&prepared)?;
        let ns = trace.end(span);
        let bytes: usize = read.iter().map(|(_, d)| d.len()).sum();
        trace.book("engine.read", bytes as f64, ns);
        let exit = trace.leaf("engine.run", || node.run(prepared, &self.host))?;

        let span = trace.begin("engine.warm_redeploy");
        let again = node.pull(&self.registry, &repo)?;
        let prepared = node.prepare(&again, &self.host)?;
        let exit_warm = node.run(prepared, &self.host)?;
        trace.end(span);
        Ok(Done {
            node,
            pulled,
            read,
            exits: [exit, exit_warm],
        })
    }

    fn check(&mut self, i: usize, done: Done) -> Outcome {
        let files = &self.images[i % CLASSES];
        let bytes_match = done.read.len() == files.len()
            && done.read.iter().all(|(path, data)| {
                files.iter().any(|(p, d)| {
                    p.trim_start_matches('/') == path.trim_start_matches('/') && **d == *data
                })
            });
        let (digest, sim_spans) = sut::take_sim_trace(&self.tracer);
        let c = done.node.counts();
        let requests = sut::registry_requests(&self.registry);
        let outcome = Outcome {
            ok: bytes_match && done.exits == [0, 0],
            sim_ns: done.node.sim_ns(),
            digest,
            counts: vec![
                ("fetched_bytes", c.fetched_bytes),
                ("convert_hits", c.convert_hits),
                ("convert_misses", c.convert_misses),
                ("store_hits", c.store_hits),
                ("store_misses", c.store_misses),
                ("requests", requests - self.requests_seen),
                ("sim_spans", sim_spans),
            ],
        };
        self.requests_seen = requests;
        self.last_sim_spans = sim_spans;
        self.last_pulled = Some(done.pulled);
        outcome
    }

    fn probes(&mut self, i: usize, trace: &mut Trace) -> Result<(), String> {
        let all = trace.begin("probes");
        for (_, data) in &self.images[i % CLASSES] {
            let stored = trace.work("probe.codec.compress", data.len() as f64, || {
                sut::compress_lz(data)
            });
            self.stored_bytes += stored.len() as u64;
            self.orig_bytes += data.len() as u64;
            let back = trace.work("probe.codec.decompress", data.len() as f64, || {
                sut::decompress_any(&stored)
            })?;
            if back != **data {
                return Err("codec replay did not round-trip".into());
            }
        }
        let pulled = self.last_pulled.as_ref().ok_or("no op to replay")?;
        let layers = sut::pulled_layers(pulled);
        let mut layer_bytes = 0;
        for l in layers {
            let span = trace.begin("probe.codec.archive_encode");
            let blob = sut::archive_encode(l);
            let ns = trace.end(span);
            trace.book("probe.codec.archive_encode", blob.len() as f64, ns);
            layer_bytes += blob.len();
            trace.work("probe.codec.archive_decode", blob.len() as f64, || {
                sut::archive_decode(&blob)
            })?;
            trace.work("probe.crypto.sha256", blob.len() as f64, || {
                sut::sha256_of(&blob)
            });
        }
        let rootfs = trace.work("probe.oci.flatten", layer_bytes as f64, || {
            sut::flatten(layers)
        })?;
        trace.work(
            "probe.vfs.squash_build",
            sut::file_bytes(&rootfs) as f64,
            || sut::squash_build(&rootfs),
        )?;
        // The pull/convert DAG: one chain of fetch → verify → convert per layer.
        let tasks = (LAYERS * 3) as f64;
        trace.work("probe.sim.exec", tasks, || sut::exec_round(LAYERS, 3))?;
        let spans = self.last_sim_spans;
        trace.work("probe.sim.obs", spans as f64, || sut::obs_round(spans));
        trace.end(all);
        Ok(())
    }

    fn layer_metrics(&self, t: &Trace, run: &RunStats) -> BTreeMap<&'static str, f64> {
        let stage = |name| t.floor_self_ms(name, CLASSES);
        let mb = 1e6;
        let ratio = |hits: f64, misses: f64| {
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            }
        };
        BTreeMap::from([
            (
                "codec.compress_mb_s",
                t.per_second("probe.codec.compress") / mb,
            ),
            (
                "codec.decompress_mb_s",
                t.per_second("probe.codec.decompress") / mb,
            ),
            (
                "codec.compress_ratio",
                self.stored_bytes as f64 / self.orig_bytes.max(1) as f64,
            ),
            (
                "codec.archive_decode_mb_s",
                t.per_second("probe.codec.archive_decode") / mb,
            ),
            (
                "codec.archive_encode_mb_s",
                t.per_second("probe.codec.archive_encode") / mb,
            ),
            (
                "crypto.sha256_mb_s",
                t.per_second("probe.crypto.sha256") / mb,
            ),
            (
                "vfs.squash_build_mb_s",
                t.per_second("probe.vfs.squash_build") / mb,
            ),
            ("vfs.squash_read_mb_s", t.per_second("engine.read") / mb),
            ("oci.flatten_mb_s", t.per_second("probe.oci.flatten") / mb),
            ("oci.image_build_ms", stage("oci.image_build")),
            (
                "registry.push_blob_mb_s",
                t.per_second("registry.push") / mb,
            ),
            ("registry.requests_per_op", run.count_per_op("requests")),
            (
                "storage.blobstore_hit_ratio",
                ratio(
                    run.count_per_op("store_hits"),
                    run.count_per_op("store_misses"),
                ),
            ),
            ("engine.pull_ms", stage("engine.pull")),
            ("engine.prepare_ms", stage("engine.prepare")),
            ("engine.read_ms", stage("engine.read")),
            ("engine.run_ms", stage("engine.run")),
            ("engine.warm_redeploy_ms", stage("engine.warm_redeploy")),
            (
                "engine.fetched_bytes_per_op",
                run.count_per_op("fetched_bytes"),
            ),
            (
                "engine.convert_cache_hit_ratio",
                ratio(
                    run.count_per_op("convert_hits"),
                    run.count_per_op("convert_misses"),
                ),
            ),
            ("sim.exec_tasks_per_s", t.per_second("probe.sim.exec")),
            ("sim.obs_span_ns", t.ns_per_unit("probe.sim.obs")),
            ("sim.obs_spans_per_op", run.count_per_op("sim_spans")),
            ("harness.stage_coverage_pct", stage_coverage_pct(t)),
        ])
    }
}
