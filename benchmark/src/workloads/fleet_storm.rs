//! `fleet_storm`: the model plane at 4096 nodes on a game day.
//!
//! One op is one wave: every live node pulls a fresh per-rack image
//! through the tiered registry behind a breaker and a three-attempt
//! retry ladder with mirror fallback, then the seeds push a second image
//! down the distribution tree. No real bytes move, so `codec`, `crypto`
//! and `vfs` do nothing here; host time is `registry::tiered`,
//! `storage::p2p` and the simulator's resource, resilience, domain,
//! fault, metric and span code.
//!
//! Wave start times walk along the outage schedule, [`WAVES`] to a pass
//! over it; after the last one the fleet is stood up again, outside the
//! timer, so wave `w` of every pass meets the same caches, queues and
//! breaker state and the oracle can demand the same logical outcome.

use crate::gen::{Fnv, Rng};
use crate::harness::{stage_coverage_pct, Outcome, RunStats, Workload};
use crate::sut;
use crate::trace::Trace;
use std::collections::BTreeMap;

const NODES: usize = 4096;
/// Wave start times of one pass over the schedule, in simulated seconds:
/// two in the warm-up, one inside each 20 s outage window (rack power
/// from 20 s, row partition from 40 s, origin overload from 60 s), three
/// after the heal. A wave sends its last pull 4.1 s after its first, so
/// each lies inside one window. One wave per class.
const WAVE_STARTS_S: [u64; 8] = [0, 10, 24, 44, 64, 84, 94, 104];
const WAVES: usize = WAVE_STARTS_S.len();
/// The broadcast starts once the wave's last pull (1 ms per node) is out.
const BROADCAST_AFTER_NS: u64 = 6_000_000_000;

struct Wave {
    base_ns: u64,
    /// One image per rack, then the broadcast image.
    rack_images: Vec<sut::SutImageSpec>,
    broadcast_image: sut::SutImageSpec,
}

pub struct FleetStorm {
    seed: u64,
    world: sut::StormWorld,
    waves: Vec<Wave>,
    input_digest: u64,
    seen: sut::TierCounts,
    last: sut::WaveOutcome,
    last_sim_spans: u64,
}

pub struct Done {
    wave: sut::WaveOutcome,
    broadcast_done_ns: u64,
}

impl Workload for FleetStorm {
    const NAME: &'static str = "fleet_storm";
    const NOMINAL_OPS_PER_S: f64 = 37.0;
    type Done = Done;

    fn setup(seed: u64, trace: &mut Trace) -> Result<Self, String> {
        let world = trace.leaf("sim.fleet_up", || sut::StormWorld::new(NODES, seed));
        let racks = world.racks();
        // Labels carry seeded tags, so every seed names different images.
        let mut rng = Rng::stream(seed, 0);
        let mut digest = Fnv::new();
        let waves = (0..WAVES)
            .map(|w| {
                let mut image = |what: &str| {
                    let label = format!("storm/{what}-w{w}-{:016x}", rng.next());
                    digest.bytes(label.as_bytes());
                    sut::synthetic_image(&label)
                };
                Wave {
                    base_ns: WAVE_STARTS_S[w] * 1_000_000_000,
                    rack_images: (0..racks).map(|r| image(&format!("rack{r}"))).collect(),
                    broadcast_image: image("fleet"),
                }
            })
            .collect();
        Ok(FleetStorm {
            seed,
            world,
            waves,
            input_digest: digest.finish(),
            seen: sut::TierCounts::default(),
            last: sut::WaveOutcome::default(),
            last_sim_spans: 0,
        })
    }

    fn input_digest(&self) -> u64 {
        self.input_digest
    }

    fn classes(&self) -> usize {
        WAVES
    }

    fn op(&mut self, i: usize, trace: &mut Trace) -> Result<Done, String> {
        let w = &self.waves[i % WAVES];
        let span = trace.begin("registry.tiered_wave");
        let wave = self.world.wave(&w.rack_images, w.base_ns)?;
        let ns = trace.end(span);
        trace.book("registry.tiered_wave", wave.pulls as f64, ns);
        let broadcast_done_ns = trace.work("storage.p2p_broadcast", NODES as f64, || {
            self.world
                .broadcast(&w.broadcast_image, w.base_ns + BROADCAST_AFTER_NS)
        })?;
        Ok(Done {
            wave,
            broadcast_done_ns,
        })
    }

    fn check(&mut self, i: usize, done: Done) -> Outcome {
        let w = &self.waves[i % WAVES];
        let (trace_digest, sim_spans) = sut::take_sim_trace(&self.world.tracer);
        let now = self.world.tier_counts();
        let wave = done.wave;
        let finished = wave.last_done_ns.max(done.broadcast_done_ns);
        let mut digest = Fnv::new();
        digest.u64(trace_digest);
        digest.u64(wave.done_digest);
        digest.u64(done.broadcast_done_ns);
        let outcome = Outcome {
            // Every node is either down or served, and nothing finishes
            // before it starts.
            ok: wave.pulls + wave.down_skipped == NODES as u64 && finished > w.base_ns,
            sim_ns: finished.saturating_sub(w.base_ns),
            digest: digest.finish(),
            counts: vec![
                ("pulls", wave.pulls),
                ("down_skipped", wave.down_skipped),
                ("mirror_fallbacks", wave.mirror_fallbacks),
                ("breaker_rejects", wave.breaker_rejects),
                ("gave_up", wave.gave_up),
                ("rack_hits", now.rack_hits - self.seen.rack_hits),
                ("rack_requests", now.rack_requests - self.seen.rack_requests),
                (
                    "origin_requests",
                    now.origin_requests - self.seen.origin_requests,
                ),
                ("sim_spans", sim_spans),
            ],
        };
        self.seen = now;
        self.last = wave;
        self.last_sim_spans = sim_spans;
        if i % WAVES == WAVES - 1 {
            self.world = sut::StormWorld::new(NODES, self.seed);
            self.seen = sut::TierCounts::default();
        }
        outcome
    }

    fn probes(&mut self, i: usize, trace: &mut Trace) -> Result<(), String> {
        let all = trace.begin("probes");
        let at = self.waves[i % WAVES].base_ns;
        let down = trace.work("probe.sim.domains", NODES as f64, || {
            self.world.nodes_down(at)
        });
        if (down as u64) < self.last.down_skipped.min(1) {
            return Err("domain replay saw no node down in a wave that skipped some".into());
        }
        // Four blobs per pull, each queued once on its way down.
        let submits = self.last.pulls * 4;
        trace.work("probe.sim.queue", submits as f64, || {
            sut::queue_round(submits)
        });
        let decisions = self.last.pulls;
        trace.work("probe.sim.resilience", decisions as f64, || {
            sut::resilience_round(decisions)
        })?;
        let spans = self.last_sim_spans;
        trace.work("probe.sim.obs", spans as f64, || sut::obs_round(spans));
        trace.end(all);
        Ok(())
    }

    fn layer_metrics(&self, t: &Trace, run: &RunStats) -> BTreeMap<&'static str, f64> {
        let requests = run.count_per_op("rack_requests");
        BTreeMap::from([
            (
                "registry.tiered_pulls_per_s",
                t.per_second("registry.tiered_wave"),
            ),
            (
                "registry.tiered_rack_hit_ratio",
                if requests > 0.0 {
                    run.count_per_op("rack_hits") / requests
                } else {
                    0.0
                },
            ),
            (
                "registry.tiered_origin_requests",
                run.count_per_op("origin_requests"),
            ),
            (
                "storage.p2p_deliveries_per_s",
                t.per_second("storage.p2p_broadcast"),
            ),
            ("sim.queue_submits_per_s", t.per_second("probe.sim.queue")),
            (
                "sim.resilience_decisions_per_s",
                t.per_second("probe.sim.resilience"),
            ),
            (
                "sim.domains_queries_per_s",
                t.per_second("probe.sim.domains"),
            ),
            ("sim.obs_span_ns", t.ns_per_unit("probe.sim.obs")),
            ("sim.obs_spans_per_op", run.count_per_op("sim_spans")),
            ("harness.stage_coverage_pct", stage_coverage_pct(t)),
        ])
    }
}
