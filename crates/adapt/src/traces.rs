//! The one seeded workload generator: the §6.6 mixed workload (multi-node
//! batch jobs with exponential ~10 min runtimes; 2–16-core pods with
//! exponential ~2 min runtimes), as arrival-timed jobs and pods.
//!
//! The §6 scenario table submits everything at t=0
//! ([`TraceShape::AtZero`]), which only probes the cold transient. Adaptive
//! policies differ on *temporal structure*: recurring bursts reward a warm
//! pool, diurnal swells reward forecasting, and a memoryless Poisson stream
//! rewards neither — the other three shapes, for policy sweeps.

use hpcc_k8s::objects::PodSpec;
use hpcc_sim::rng::DetRng;
use hpcc_sim::{SimSpan, SimTime};
use hpcc_wlm::types::JobRequest;

/// A workload whose jobs and pods carry arrival times.
#[derive(Debug, Clone)]
pub struct TimedWorkload {
    pub jobs: Vec<(JobRequest, SimTime)>,
    pub pods: Vec<(PodSpec, SimTime)>,
}

impl TimedWorkload {
    /// Wrap untimed jobs/pods as an everything-at-t0 workload (the §6
    /// scenario presets use this to run the original mixed workload).
    pub fn at_zero(jobs: Vec<JobRequest>, pods: Vec<PodSpec>) -> TimedWorkload {
        TimedWorkload {
            jobs: jobs.into_iter().map(|j| (j, SimTime::ZERO)).collect(),
            pods: pods.into_iter().map(|p| (p, SimTime::ZERO)).collect(),
        }
    }
}

/// Temporal structure of pod arrivals (but for [`TraceShape::AtZero`],
/// jobs arrive Poisson over the job window — WLM queues are the backdrop,
/// not the subject).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceShape {
    /// Every job and pod at t=0. Draws no arrival times, so the window
    /// fields of [`TraceConfig`] are unused.
    AtZero,
    /// Memoryless: exponential inter-arrivals over the whole duration.
    Poisson,
    /// `bursts` groups of `pods_per_burst` pods, `spacing` apart, the
    /// first at `first_at`. Within a burst pods arrive 100 ms apart.
    Bursty {
        bursts: u32,
        pods_per_burst: u32,
        spacing: SimSpan,
        first_at: SimSpan,
    },
    /// Sinusoidal intensity with the given period: arrivals cluster
    /// around the crests, thin out in the troughs.
    Diurnal { period: SimSpan },
}

impl TraceShape {
    /// Stable lower-case label used in bench output and filenames.
    pub fn label(&self) -> &'static str {
        match self {
            TraceShape::AtZero => "at-zero",
            TraceShape::Poisson => "poisson",
            TraceShape::Bursty { .. } => "bursty",
            TraceShape::Diurnal { .. } => "diurnal",
        }
    }
}

/// Full trace specification: shape plus sizing knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceConfig {
    pub seed: u64,
    pub shape: TraceShape,
    /// Window pod arrivals land in.
    pub duration: SimSpan,
    /// Cluster width, for job node-count sizing (1..=nodes/4).
    pub nodes: u32,
    pub n_jobs: usize,
    /// Total pods; for [`TraceShape::Bursty`] the burst grid wins and
    /// this is ignored.
    pub n_pods: usize,
    /// Jobs arrive Poisson over this prefix of the duration, front-
    /// loading WLM pressure (set to `duration` for uniform pressure).
    pub job_window: SimSpan,
}

/// Generate a trace. Pure function of the config (seeded [`DetRng`]).
pub fn generate(cfg: &TraceConfig) -> TimedWorkload {
    let mut rng = DetRng::seeded(cfg.seed);
    let job_times = match cfg.shape {
        TraceShape::AtZero => vec![SimTime::ZERO; cfg.n_jobs],
        _ if cfg.job_window.is_zero() => poisson_times(&mut rng, cfg.n_jobs, cfg.duration),
        _ => poisson_times(&mut rng, cfg.n_jobs, cfg.job_window),
    };
    let max_job_nodes = (cfg.nodes / 4).max(1);
    let jobs = (job_times.into_iter().enumerate())
        .map(|(i, at)| {
            let nodes = rng.uniform(1, max_job_nodes as u64 + 1) as u32;
            let runtime = SimSpan::from_secs_f64(rng.exponential(600.0).clamp(60.0, 3600.0));
            let mut req = JobRequest::batch(
                &format!("hpc-job-{i}"),
                1000 + (i % 5) as u32,
                nodes,
                runtime,
            );
            req.walltime_limit = runtime * 2;
            (req, at)
        })
        .collect();
    let pod_times = match cfg.shape {
        TraceShape::AtZero => vec![SimTime::ZERO; cfg.n_pods],
        TraceShape::Poisson => poisson_times(&mut rng, cfg.n_pods, cfg.duration),
        TraceShape::Bursty {
            bursts,
            pods_per_burst,
            spacing,
            first_at,
        } => (0..bursts)
            .flat_map(|b| {
                let start = SimTime::ZERO + first_at + spacing * b as u64;
                (0..pods_per_burst).map(move |i| start + SimSpan::millis(100) * i as u64)
            })
            .collect(),
        TraceShape::Diurnal { period } => diurnal_times(&mut rng, cfg.n_pods, cfg.duration, period),
    };
    let pods = (pod_times.into_iter().enumerate())
        .map(|(i, at)| {
            let mut pod = PodSpec::simple(
                &format!("pod-{i}"),
                "hpc/pyapp:v1",
                SimSpan::from_secs_f64(rng.exponential(120.0).clamp(20.0, 900.0)),
            );
            pod.resources.cpu_millis = rng.uniform(2, 17) * 1000;
            pod.resources.memory_mb = 4096;
            pod.user = 2000 + (i % 5) as u32;
            (pod, at)
        })
        .collect();
    TimedWorkload { jobs, pods }
}

/// `n` exponential inter-arrivals scaled into `[0, window)`, sorted.
fn poisson_times(rng: &mut DetRng, n: usize, window: SimSpan) -> Vec<SimTime> {
    let mean_gap = window.as_secs_f64() / n as f64;
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        t += rng.exponential(mean_gap);
        let clamped = t.min(window.as_secs_f64().max(0.0));
        out.push(SimTime::ZERO + SimSpan::from_secs_f64(clamped));
    }
    out
}

/// `n` arrivals under a raised-cosine intensity of the given period,
/// drawn by deterministic rejection sampling, sorted.
fn diurnal_times(rng: &mut DetRng, n: usize, window: SimSpan, period: SimSpan) -> Vec<SimTime> {
    let w = window.as_secs_f64();
    let p = period.as_secs_f64().max(1.0);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let t = rng.unit() * w;
        // Intensity in [0,1]: crests at t = 0, period, 2·period, ...
        let intensity = 0.5 * (1.0 + (2.0 * std::f64::consts::PI * t / p).cos());
        if rng.unit() < intensity {
            out.push(SimTime::ZERO + SimSpan::from_secs_f64(t));
        }
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base(shape: TraceShape) -> TraceConfig {
        TraceConfig {
            seed: 11,
            shape,
            duration: SimSpan::secs(3600),
            nodes: 16,
            n_jobs: 6,
            n_pods: 24,
            job_window: SimSpan::secs(1800),
        }
    }

    #[test]
    fn generation_is_deterministic() {
        for shape in [
            TraceShape::Poisson,
            TraceShape::Bursty {
                bursts: 4,
                pods_per_burst: 6,
                spacing: SimSpan::secs(600),
                first_at: SimSpan::secs(300),
            },
            TraceShape::Diurnal {
                period: SimSpan::secs(1200),
            },
        ] {
            let a = generate(&base(shape));
            let b = generate(&base(shape));
            assert_eq!(a.jobs, b.jobs, "{}", shape.label());
            assert_eq!(a.pods.len(), b.pods.len(), "{}", shape.label());
            for ((pa, ta), (pb, tb)) in a.pods.iter().zip(&b.pods) {
                assert_eq!((&pa.name, ta), (&pb.name, tb));
                assert_eq!(pa.resources.cpu_millis, pb.resources.cpu_millis);
            }
        }
    }

    #[test]
    fn bursty_arrivals_sit_on_the_burst_grid() {
        let shape = TraceShape::Bursty {
            bursts: 3,
            pods_per_burst: 5,
            spacing: SimSpan::secs(600),
            first_at: SimSpan::secs(120),
        };
        let wl = generate(&base(shape));
        assert_eq!(wl.pods.len(), 15);
        let first_burst: Vec<_> = wl
            .pods
            .iter()
            .filter(|(_, t)| t.since(SimTime::ZERO) < SimSpan::secs(300))
            .collect();
        assert_eq!(first_burst.len(), 5, "one full burst near 120 s");
        assert!(wl
            .pods
            .iter()
            .all(|(_, t)| t.since(SimTime::ZERO) >= SimSpan::secs(120)));
    }

    #[test]
    fn poisson_arrivals_stay_in_window_and_are_sorted() {
        let wl = generate(&base(TraceShape::Poisson));
        assert_eq!(wl.pods.len(), 24);
        let times: Vec<_> = wl.pods.iter().map(|(_, t)| *t).collect();
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(times, sorted);
        assert!(times
            .iter()
            .all(|t| t.since(SimTime::ZERO) <= SimSpan::secs(3600)));
    }

    #[test]
    fn diurnal_arrivals_cluster_at_crests() {
        let cfg = TraceConfig {
            n_pods: 200,
            shape: TraceShape::Diurnal {
                period: SimSpan::secs(1800),
            },
            ..base(TraceShape::Poisson)
        };
        let wl = generate(&cfg);
        // Crest half-windows (around 0 and 1800 s) must out-draw troughs.
        let near_crest = wl
            .pods
            .iter()
            .filter(|(_, t)| {
                let s = t.since(SimTime::ZERO).as_secs_f64() % 1800.0;
                !(450.0..1350.0).contains(&s)
            })
            .count();
        assert!(
            near_crest * 2 > wl.pods.len(),
            "crests got {near_crest}/{} arrivals",
            wl.pods.len()
        );
    }

    /// The scenario table's shape: everything at t=0, and no draw spent on
    /// arrival times — the window fields cannot move a job or a pod.
    #[test]
    fn at_zero_shape_ignores_the_windows() {
        let tight = TraceConfig {
            duration: SimSpan::ZERO,
            job_window: SimSpan::ZERO,
            ..base(TraceShape::AtZero)
        };
        let (a, b) = (generate(&tight), generate(&base(TraceShape::AtZero)));
        assert_eq!((a.jobs.len(), a.pods.len()), (6, 24));
        assert!(a.jobs.iter().all(|(_, t)| *t == SimTime::ZERO));
        assert!(a.pods.iter().all(|(_, t)| *t == SimTime::ZERO));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn at_zero_wraps_everything_at_t0() {
        let wl = generate(&base(TraceShape::Poisson));
        let jobs: Vec<_> = wl.jobs.into_iter().map(|(j, _)| j).collect();
        let pods: Vec<_> = wl.pods.into_iter().map(|(p, _)| p).collect();
        let z = TimedWorkload::at_zero(jobs, pods);
        assert!(z.jobs.iter().all(|(_, t)| *t == SimTime::ZERO));
        assert!(z.pods.iter().all(|(_, t)| *t == SimTime::ZERO));
    }
}
