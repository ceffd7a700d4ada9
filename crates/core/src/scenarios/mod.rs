//! The Section 6 Kubernetes/WLM integration scenarios, executable.
//!
//! Five architectures (plus a static-partition baseline) run the same
//! mixed HPC + cloud-native workload on the same simulated cluster; the
//! outcomes quantify §6.6's qualitative comparison: startup overhead,
//! makespan, utilization and — centrally — how much of the consumed
//! compute the WLM accounted for.

pub mod bridge_vk;
pub mod common;
pub mod k8s_in_wlm;
pub mod kubelet_in_allocation;
pub mod reallocation;
pub mod static_partition;
pub mod wlm_in_k8s;

pub use common::{ClusterConfig, MixedWorkload, ScenarioOutcome};

use hpcc_sim::Tracer;
use std::sync::Arc;

/// A scenario's one entry point: run it under `tracer`'s root `scenario`
/// span (untraced = [`Tracer::disabled`]).
pub type Runner = fn(&ClusterConfig, &MixedWorkload, &Arc<Tracer>) -> ScenarioOutcome;

/// The scenario table: every list of scenarios in the tree — [`run_all`],
/// the `scenario_<name>` goldens, the span-invariant proptest — is this
/// one.
pub const ALL: [(&str, Runner); 6] = [
    ("static_partition", static_partition::run),
    ("reallocation", reallocation::run),
    ("wlm_in_k8s", wlm_in_k8s::run),
    ("k8s_in_wlm", k8s_in_wlm::run),
    ("bridge_vk", bridge_vk::run),
    ("kubelet_in_allocation", |cfg, wl, tracer| {
        kubelet_in_allocation::run_detailed(cfg, wl, tracer).0
    }),
];

/// Run every scenario on the same configuration + workload. The six
/// simulations are independent, so they run on parallel threads (scoped,
/// data-race-free — the guides' fork/join idiom without a pool).
pub fn run_all(cfg: &ClusterConfig, wl: &MixedWorkload) -> Vec<ScenarioOutcome> {
    // Prime the shared measured-startup cache once, outside the threads.
    common::measured_container_startup();
    std::thread::scope(|scope| {
        let threads = ALL.map(|(_, run)| scope.spawn(move || run(cfg, wl, &Tracer::disabled())));
        threads
            .into_iter()
            .map(|t| t.join().expect("scenario ran"))
            .collect()
    })
}

/// Render outcomes as an aligned text table.
pub fn render_outcomes(outcomes: &[ScenarioOutcome]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<26} {:>12} {:>12} {:>10} {:>7} {:>9} {:>6} {:>6}\n",
        "scenario", "1st-pod", "makespan", "util", "acct", "pods-ok", "fail", "jobs"
    ));
    for o in outcomes {
        out.push_str(&format!(
            "{:<26} {:>12} {:>12} {:>9.1}% {:>6.0}% {:>9} {:>6} {:>6}\n",
            o.name,
            o.first_pod_start
                .map(|s| s.to_string())
                .unwrap_or_else(|| "-".into()),
            o.makespan.to_string(),
            o.utilization * 100.0,
            o.accounting_coverage * 100.0,
            o.pods_succeeded,
            o.pods_failed,
            o.jobs_completed,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcc_sim::SimSpan;

    fn small() -> (ClusterConfig, MixedWorkload) {
        let cfg = ClusterConfig { nodes: 16 };
        let wl = MixedWorkload::generate(42, 6, 12, &cfg);
        (cfg, wl)
    }

    #[test]
    fn all_scenarios_complete_the_workload() {
        // Every pod and job finished, so no scenario ran into the horizon.
        let (cfg, wl) = small();
        for (_, run) in ALL {
            let outcome = run(&cfg, &wl, &Tracer::disabled());
            assert_eq!(
                outcome.pods_succeeded,
                wl.pods.len(),
                "{}: pods",
                outcome.name
            );
            assert_eq!(outcome.pods_failed, 0, "{}", outcome.name);
            assert_eq!(
                outcome.jobs_completed,
                wl.jobs.len(),
                "{}: jobs",
                outcome.name
            );
            assert!(outcome.makespan > SimSpan::ZERO);
        }
    }

    #[test]
    fn wlm_integrated_scenarios_account_fully() {
        // §6.6: only §6.4 (bridge) and §6.5 (kubelet-in-allocation) —
        // and §6.3 (whole cluster in a job) — keep accounting inside the
        // WLM.
        let (cfg, wl) = small();
        let outcomes = run_all(&cfg, &wl);
        for o in &outcomes {
            let full = o.accounting_coverage > 0.999;
            match o.name {
                "k8s-in-wlm" | "bridge-virtual-kubelet" | "kubelet-in-allocation" => {
                    assert!(
                        full,
                        "{} should fully account, got {}",
                        o.name, o.accounting_coverage
                    )
                }
                "static-partition" | "on-demand-reallocation" | "wlm-in-k8s" => {
                    assert!(
                        !full,
                        "{} leaks usage outside the WLM, got {}",
                        o.name, o.accounting_coverage
                    )
                }
                other => panic!("unknown scenario {other}"),
            }
        }
    }

    #[test]
    fn k8s_in_wlm_has_the_largest_pod_startup_overhead() {
        // §6.3: "it can introduce considerable startup overhead".
        let (cfg, wl) = small();
        let outcomes = run_all(&cfg, &wl);
        let get = |name: &str| {
            outcomes
                .iter()
                .find(|o| o.name == name)
                .and_then(|o| o.first_pod_start)
                .expect(name)
        };
        let k8s_in_wlm = get("k8s-in-wlm");
        let in_alloc = get("kubelet-in-allocation");
        let static_part = get("static-partition");
        assert!(
            k8s_in_wlm > in_alloc,
            "cluster boot ({k8s_in_wlm}) must exceed agent-only boot ({in_alloc})"
        );
        assert!(
            k8s_in_wlm > static_part,
            "cluster boot must exceed a standing cluster ({static_part})"
        );
    }

    #[test]
    fn figure1_join_happens_over_hsn() {
        let (cfg, wl) = small();
        let (outcome, joins) = kubelet_in_allocation::run_detailed(&cfg, &wl, &Tracer::disabled());
        assert!(!joins.is_empty(), "agents joined");
        for j in &joins {
            assert!(*j < SimSpan::millis(10), "HSN join {j} should be fast");
        }
        assert!(outcome.accounting_coverage > 0.999);
    }

    #[test]
    fn render_is_complete() {
        let (cfg, wl) = small();
        let outcomes = vec![static_partition::run(&cfg, &wl, &Tracer::disabled())];
        let text = render_outcomes(&outcomes);
        assert!(text.contains("static-partition"));
        assert!(text.contains("makespan"));
    }
}
