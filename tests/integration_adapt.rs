//! Acceptance tests for the adaptive partition control plane
//! (`hpcc-adapt`), run through the bench harness's sweep configuration so
//! they gate exactly what `bench_adapt` measures:
//!
//! * the full policy × trace sweep renders byte-identically across runs;
//! * controller outcomes — including the decision log — are pure
//!   functions of (trace seed, trace shape, policy config, fault seed),
//!   property-tested over random configurations;
//! * on the recurring-burst trace the EWMA forecast policy beats the
//!   static split on combined utilization while keeping p95 pod-startup
//!   latency below the on-demand-reallocation (queue-threshold) policy's;
//! * node flaps during reprovisioning are survivable end to end.

use hpcc_adapt::traces::{generate, TraceConfig, TraceShape};
use hpcc_adapt::{
    presets, run, ControllerConfig, EwmaForecastPolicy, FixedCri, PartitionPolicy,
    QueueThresholdPolicy, RunSpec, StaticPolicy,
};
use hpcc_bench::adapt_suite;
use hpcc_sim::{FaultInjector, FaultKind, FaultRule, SimSpan, Tracer};
use proptest::prelude::*;
use std::sync::Arc;

// ------------------------------------------------------------ sweep gates

#[test]
fn full_sweep_renders_byte_identically_across_runs() {
    let a = adapt_suite::render(&adapt_suite::run_suite()).render();
    let b = adapt_suite::render(&adapt_suite::run_suite()).render();
    assert_eq!(a, b, "BENCH_adapt.json must be reproducible byte-for-byte");
}

#[test]
fn sweep_satisfies_its_structural_claims() {
    let runs = adapt_suite::run_suite();
    if let Err(errors) = adapt_suite::structural_check(&runs) {
        panic!("structural check failed:\n  {}", errors.join("\n  "));
    }
}

#[test]
fn ewma_beats_static_utilization_without_sacrificing_latency() {
    let ewma = adapt_suite::run_config("ewma-forecast", "bursty");
    let stat = adapt_suite::run_config("static", "bursty");
    let reactive = adapt_suite::run_config("queue-threshold", "bursty");

    assert!(
        ewma.combined_utilization > stat.combined_utilization,
        "EWMA must beat the static split on combined utilization \
         ({:.4} vs {:.4}): the adaptive boundary exists to un-strand capacity",
        ewma.combined_utilization,
        stat.combined_utilization
    );
    assert!(
        ewma.p95_pod_start_ns < reactive.p95_pod_start_ns,
        "EWMA p95 pod start ({} ns) must stay below the on-demand-reallocation \
         policy's ({} ns): the warm pool absorbs recurring bursts",
        ewma.p95_pod_start_ns,
        reactive.p95_pod_start_ns
    );
    assert_eq!(ewma.pods_failed, 0);
    assert_eq!(stat.pods_failed, 0);
    assert_eq!(reactive.pods_failed, 0);
}

// ------------------------------------------------------ fault tolerance

#[test]
fn node_flaps_are_survivable_across_adaptive_policies() {
    let workload = generate(&adapt_suite::trace_config("bursty"));
    let (qt_policy, qt_cfg) = presets::on_demand_reallocation(adapt_suite::NODES);
    let (ew_policy, ew_cfg) = presets::ewma_forecast(adapt_suite::NODES, SimSpan::secs(300), 2);
    for (label, policy, config) in [
        ("queue-threshold", qt_policy, qt_cfg),
        ("ewma-forecast", ew_policy, ew_cfg),
    ] {
        let out = run(RunSpec {
            workload: &workload,
            policy,
            config,
            cri: Arc::new(FixedCri(SimSpan::millis(400))),
            tracer: Tracer::disabled(),
            faults: Arc::new(FaultInjector::new(
                23,
                vec![FaultRule::background(FaultKind::NodeFlap, 0.5)],
            )),
            domains: None,
            scenario: "integration-flap",
        });
        assert_eq!(
            out.pods_succeeded,
            workload.pods.len(),
            "{label}: flaps during reprovisioning must not lose pods"
        );
        assert_eq!(
            out.jobs_completed,
            workload.jobs.len(),
            "{label}: WLM side must finish under flaps"
        );
        assert!(out.flaps > 0, "{label}: injector must actually fire");
    }
}

// ------------------------------------------------------- a longer trace

/// Two hours of arrivals on 32 nodes — 60 jobs and 90 pods in six bursts —
/// finish under every preset, and a second run repeats the first down to
/// the decision log. The site-scale version (64 nodes, 6 h, 400 + 600) is
/// `repro quant11`; this is the size the debug profile can afford.
#[test]
fn two_hour_trace_completes_under_every_preset_and_repeats_itself() {
    const NODES: u32 = 32;
    let workload = generate(&TraceConfig {
        seed: 18,
        shape: TraceShape::Bursty {
            bursts: 6,
            pods_per_burst: 15,
            spacing: SimSpan::secs(1200),
            first_at: SimSpan::secs(120),
        },
        duration: SimSpan::secs(2 * 3600),
        nodes: NODES,
        n_jobs: 60,
        n_pods: 90,
        job_window: SimSpan::secs(2 * 3600),
    });
    for label in adapt_suite::POLICIES {
        let replay = || {
            let (policy, mut config) = adapt_suite::preset(label, NODES);
            config.horizon = SimSpan::secs(12 * 3600);
            run(RunSpec {
                workload: &workload,
                policy,
                config,
                cri: Arc::new(FixedCri(SimSpan::millis(1200))),
                tracer: Tracer::disabled(),
                faults: FaultInjector::disabled(),
                domains: None,
                scenario: "two-hour",
            })
        };
        let (first, second) = (replay(), replay());
        assert_eq!(first.pods_succeeded, workload.pods.len(), "{label}");
        assert_eq!(first.jobs_completed, workload.jobs.len(), "{label}");
        assert_eq!(
            first.decisions.is_empty(),
            label == "static",
            "{label}: only the static split never actuates"
        );
        assert_eq!(first.decisions, second.decisions, "{label}");
        assert_eq!(first, second, "{label}");
    }
}

// ------------------------------------------------------------- purity

fn shape_for(choice: u64) -> TraceShape {
    match choice {
        0 => TraceShape::Poisson,
        1 => TraceShape::Bursty {
            bursts: 2,
            pods_per_burst: 3,
            spacing: SimSpan::secs(600),
            first_at: SimSpan::secs(60),
        },
        _ => TraceShape::Diurnal {
            period: SimSpan::secs(900),
        },
    }
}

fn policy_for(
    choice: u64,
    half_life_secs: u64,
    min_agents: u32,
) -> (Box<dyn PartitionPolicy>, ControllerConfig) {
    match choice {
        0 => (Box::new(StaticPolicy), ControllerConfig::new(4, 4)),
        1 => (
            Box::new(QueueThresholdPolicy::default()),
            ControllerConfig::new(8, 0),
        ),
        _ => (
            Box::new(EwmaForecastPolicy::new(
                SimSpan::secs(half_life_secs),
                min_agents,
                8,
            )),
            ControllerConfig::new(8, 0),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The whole outcome — decision log included — is a pure function of
    /// (trace seed, trace shape, policy config, fault seed): replaying
    /// identical inputs yields an identical [`hpcc_adapt::AdaptOutcome`].
    #[test]
    fn decisions_are_pure_functions_of_seed_trace_and_config(
        trace_seed in 0u64..64,
        shape_choice in 0u64..3,
        policy_choice in 0u64..3,
        half_life_secs in 30u64..600,
        min_agents in 0u32..3,
        fault_seed in 0u64..64,
    ) {
        let workload = generate(&TraceConfig {
            seed: trace_seed,
            shape: shape_for(shape_choice),
            duration: SimSpan::secs(1500),
            nodes: 8,
            n_jobs: 2,
            n_pods: 6,
            job_window: SimSpan::secs(600),
        });
        let replay = || {
            let (policy, mut config) = policy_for(policy_choice, half_life_secs, min_agents);
            config.horizon = SimSpan::secs(7200);
            run(RunSpec {
                workload: &workload,
                policy,
                config,
                cri: Arc::new(FixedCri(SimSpan::secs(2))),
                tracer: Tracer::disabled(),
                faults: Arc::new(FaultInjector::new(
                    fault_seed,
                    vec![FaultRule::background(FaultKind::NodeFlap, 0.2)],
                )),
                domains: None,
                scenario: "purity",
            })
        };
        let first = replay();
        let second = replay();
        prop_assert_eq!(&first.decisions, &second.decisions);
        prop_assert_eq!(first, second);
    }
}
