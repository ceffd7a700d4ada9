//! `build_publish`: onboarding a tenant — the write side of the registry,
//! journal and store that the two pull workloads only read.
//!
//! One op generates a WOTS key, builds three apps that share a two-step
//! base against the cross-tenant build cache, signs and pushes each
//! through one growing transparency log and registry, then does a
//! verified pull of the last on a fresh engine. Host time is small-input
//! SHA-256 (WOTS chains, Merkle proofs), layer diff/encode, the DAG
//! executor and the build cache.
//!
//! The site is torn down and stood up again every [`EPOCH`] ops, outside
//! the timer: registry, log and journal grow with every tenant, and a
//! time-bounded window would otherwise charge a faster build, which fits
//! more ops, with a bigger site. Op `p` of every epoch onboards the same
//! tenant onto the same site state, which is also what lets the oracle
//! demand an identical logical outcome.

use crate::gen::{mixed_bytes, Fnv, Rng};
use crate::harness::{stage_coverage_pct, Outcome, RunStats, Workload};
use crate::sut;
use crate::trace::Trace;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Tenants onboarded before the site is rebuilt; also the class count.
const EPOCH: usize = 16;
const APPS: usize = 3;
const LIBC_BYTES: usize = 64 * 1024;
const APP_BYTES: usize = 4 * 1024;
const SMALL_HASH_INPUTS: usize = 1000;

struct Tenant {
    name: String,
    key_seed: Vec<u8>,
    apps: Vec<sut::AppInput>,
}

#[derive(Default, Clone, Copy)]
struct Seen {
    cache_hits: u64,
    cache_misses: u64,
    journal: u64,
    requests: u64,
    sim_ns: u64,
}

pub struct BuildPublish {
    world: sut::BuildWorld,
    libc: Vec<u8>,
    tenants: Vec<Tenant>,
    small_inputs: Vec<Vec<u8>>,
    input_digest: u64,
    seen: Seen,
    last_outputs: Vec<sut::BuildOutput>,
    last_sim_spans: u64,
}

pub struct Done {
    outputs: Vec<sut::BuildOutput>,
    pulled: sut::PulledImage,
}

impl BuildPublish {
    fn seen_now(&self) -> Seen {
        let (cache_hits, cache_misses) = self.world.cache_lookups();
        Seen {
            cache_hits,
            cache_misses,
            journal: self.world.journal_len(),
            requests: sut::registry_requests(&self.world.registry),
            sim_ns: self.world.sim_ns(),
        }
    }
}

impl Workload for BuildPublish {
    const NAME: &'static str = "build_publish";
    const NOMINAL_OPS_PER_S: f64 = 40.0;
    type Done = Done;

    fn setup(seed: u64, trace: &mut Trace) -> Result<Self, String> {
        let libc = mixed_bytes(&mut Rng::stream(seed, 0), LIBC_BYTES);
        let mut digest = Fnv::new();
        digest.bytes(&libc);
        let tenants: Vec<Tenant> = (0..EPOCH)
            .map(|p| {
                let apps = (0..APPS)
                    .map(|a| {
                        let mut rng = Rng::stream(seed, (1 + p * APPS + a) as u64);
                        let payload = mixed_bytes(&mut rng, APP_BYTES);
                        digest.bytes(&payload);
                        sut::AppInput {
                            name: format!("app{a}"),
                            payload: Arc::new(payload),
                        }
                    })
                    .collect();
                Tenant {
                    name: format!("t{p:02}"),
                    key_seed: format!("hostbench/{seed}/{p}").into_bytes(),
                    apps,
                }
            })
            .collect();
        let mut rng = Rng::stream(seed, u64::MAX);
        let small_inputs: Vec<Vec<u8>> = (0..SMALL_HASH_INPUTS)
            .map(|_| {
                let len = 32 + rng.below(33) as usize;
                (0..len).map(|_| rng.next() as u8).collect()
            })
            .collect();
        let world = trace.leaf("build.world_up", sut::BuildWorld::new);
        Ok(BuildPublish {
            world,
            libc,
            tenants,
            small_inputs,
            input_digest: digest.finish(),
            seen: Seen::default(),
            last_outputs: Vec::new(),
            last_sim_spans: 0,
        })
    }

    fn input_digest(&self) -> u64 {
        self.input_digest
    }

    fn classes(&self) -> usize {
        EPOCH
    }

    fn op(&mut self, i: usize, trace: &mut Trace) -> Result<Done, String> {
        let tenant = &self.tenants[i % EPOCH];
        trace.leaf("registry.onboard", || self.world.onboard(&tenant.name))?;
        let mut key = trace.leaf("crypto.wots_keygen", || sut::keygen(&tenant.key_seed));
        let (cas, outputs) = trace.leaf("build.build_fleet", || {
            self.world.build(&tenant.name, &self.libc, &tenant.apps)
        })?;
        let span = trace.begin("build.sign_push");
        let mut signed = Vec::with_capacity(outputs.len());
        for out in &outputs {
            signed.push(self.world.sign_and_push(&mut key, out, &cas)?);
        }
        trace.end(span);
        // Only the newest entry's proof is valid against the newest head.
        let newest = signed.last().ok_or("tenant has no apps")?;
        let pulled = trace.leaf("build.verified_pull", || self.world.verified_pull(newest))?;
        Ok(Done { outputs, pulled })
    }

    fn check(&mut self, i: usize, done: Done) -> Outcome {
        let tenant = &self.tenants[i % EPOCH];
        let app = tenant.apps.last().expect("tenants have apps");
        let ok = match (done.outputs.last(), done.outputs.len() == APPS) {
            (Some(built), true) => {
                match sut::pulled_file(&done.pulled, built, &format!("/opt/app/{}", app.name)) {
                    Ok((data, same_tree)) => same_tree && *data == *app.payload,
                    Err(_) => false,
                }
            }
            _ => false,
        };
        let (digest, sim_spans) = sut::take_sim_trace(&self.world.tracer);
        let now = self.seen_now();
        let outcome = Outcome {
            ok,
            sim_ns: now.sim_ns - self.seen.sim_ns,
            digest,
            counts: vec![
                ("cache_hits", now.cache_hits - self.seen.cache_hits),
                ("cache_misses", now.cache_misses - self.seen.cache_misses),
                ("journal_records", now.journal - self.seen.journal),
                ("requests", now.requests - self.seen.requests),
                ("log_size", self.world.log_size()),
                ("sim_spans", sim_spans),
            ],
        };
        self.seen = now;
        self.last_outputs = done.outputs;
        self.last_sim_spans = sim_spans;
        if i % EPOCH == EPOCH - 1 {
            self.world = sut::BuildWorld::new();
            self.seen = Seen::default();
        }
        outcome
    }

    fn probes(&mut self, i: usize, trace: &mut Trace) -> Result<(), String> {
        let all = trace.begin("probes");
        trace.work(
            "probe.crypto.sha256_small",
            self.small_inputs.len() as f64,
            || {
                self.small_inputs
                    .iter()
                    .fold(0u8, |acc, input| acc ^ sut::sha256_of(input)[0])
            },
        );

        let tenant = &self.tenants[i % EPOCH];
        let msg = sut::sha256_of(&tenant.key_seed);
        let verified =
            sut::wots_round(b"hostbench/probe", msg, |name, f| trace.work(name, 1.0, f))?;
        // The log the op just appended to had this many entries (a fresh
        // site after an epoch's last op: replay at the epoch's size).
        let log_size = match self.world.log_size() {
            0 => (EPOCH * APPS) as u64,
            n => n,
        };
        let mut log = sut::ProbeLog::with_entries(log_size);
        let included = log.round(&msg, |name, f| trace.work(name, 1.0, f));
        if !verified || !included {
            return Err("signature or inclusion replay did not verify".into());
        }

        let built = self.last_outputs.last().ok_or("no op to replay")?;
        let layers = sut::output_layers(built);
        let base = sut::flatten(&layers[..layers.len() - 1])?;
        let target = sut::flatten(layers)?;
        trace.work("probe.oci.diff", sut::file_count(&target) as f64, || {
            sut::diff(&base, &target)
        })?;
        let mut blobs = Vec::with_capacity(layers.len());
        for l in layers {
            let span = trace.begin("probe.codec.archive_encode");
            let blob = sut::archive_encode(l);
            let ns = trace.end(span);
            trace.book("probe.codec.archive_encode", blob.len() as f64, ns);
            blobs.push(Arc::new(blob));
        }
        trace.work("probe.storage.journal", blobs.len() as f64 + 2.0, || {
            sut::journal_round(&blobs)
        })?;
        // Three apps, five steps each, on the fleet's worker count.
        trace.work("probe.sim.exec", (APPS * 5) as f64, || {
            sut::exec_round(APPS, 5)
        })?;
        let spans = self.last_sim_spans;
        trace.work("probe.sim.obs", spans as f64, || sut::obs_round(spans));
        trace.end(all);
        Ok(())
    }

    fn layer_metrics(&self, t: &Trace, run: &RunStats) -> BTreeMap<&'static str, f64> {
        let stage = |name| t.floor_self_ms(name, EPOCH);
        let hits = run.count_per_op("cache_hits");
        let lookups = hits + run.count_per_op("cache_misses");
        BTreeMap::from([
            (
                "codec.archive_encode_mb_s",
                t.per_second("probe.codec.archive_encode") / 1e6,
            ),
            (
                "crypto.sha256_small_ns",
                t.ns_per_unit("probe.crypto.sha256_small"),
            ),
            ("crypto.wots_keygen_ms", stage("crypto.wots_keygen")),
            (
                "crypto.wots_sign_us",
                t.ns_per_unit("probe.crypto.wots_sign") / 1e3,
            ),
            (
                "crypto.wots_verify_us",
                t.ns_per_unit("probe.crypto.wots_verify") / 1e3,
            ),
            (
                "crypto.translog_append_us",
                t.ns_per_unit("probe.crypto.translog_append") / 1e3,
            ),
            (
                "crypto.translog_verify_us",
                t.ns_per_unit("probe.crypto.translog_verify") / 1e3,
            ),
            ("oci.diff_files_per_s", t.per_second("probe.oci.diff")),
            (
                "storage.journal_records_per_s",
                t.per_second("probe.storage.journal"),
            ),
            (
                "storage.journal_records_per_op",
                run.count_per_op("journal_records"),
            ),
            ("registry.requests_per_op", run.count_per_op("requests")),
            ("build.build_fleet_ms", stage("build.build_fleet")),
            ("build.sign_push_ms", stage("build.sign_push")),
            ("build.verified_pull_ms", stage("build.verified_pull")),
            (
                "build.cache_hit_ratio",
                if lookups > 0.0 { hits / lookups } else { 0.0 },
            ),
            ("sim.exec_tasks_per_s", t.per_second("probe.sim.exec")),
            ("sim.obs_span_ns", t.ns_per_unit("probe.sim.obs")),
            ("sim.obs_spans_per_op", run.count_per_op("sim_spans")),
            ("harness.stage_coverage_pct", stage_coverage_pct(t)),
        ])
    }
}
