//! `compare A.json B.json`: for every workload and end-to-end metric, both
//! medians, how far B is from A, the bound `BENCHMARK.json` fixes, and a
//! verdict. A metric whose run-to-run spread is wider than its bound is
//! `unresolved`, not `same`, unless every run of B beats every run of A.

use crate::json::{self, Json};
use crate::report::{Better, Spec};
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By what share of A's median B's median is worse (negative: better).
pub fn worsening(a: &[f64], b: &[f64], better: Better) -> f64 {
    let (ma, mb) = (stats::median(a), stats::median(b));
    if ma == 0.0 {
        return if mb == 0.0 { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    }
}

pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let beats = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let delta = worsening(a, b, better);
    if stats::spread(a).max(stats::spread(b)) > bound {
        let b_wins_every_pair = b.iter().all(|x| a.iter().all(|y| beats(*x, *y)));
        return if b_wins_every_pair {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if delta > bound {
        Verdict::Worse
    } else if delta < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn values(doc: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    doc.get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("values")?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

/// Print the table; true when no row is `worse` or `unresolved`, no run
/// failed more often and the model did not change.
pub fn compare_docs(spec: &Spec, a: &Json, b: &Json) -> Result<bool, String> {
    let mut clean = true;
    println!(
        "{:<16} {:<12} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "delta", "bound"
    );
    for (workload, _) in &spec.workloads {
        for m in &spec.end_to_end {
            let missing = |side| format!("{side}: no {} for {workload}", m.name);
            let va = values(a, workload, &m.name).ok_or_else(|| missing("A"))?;
            let vb = values(b, workload, &m.name).ok_or_else(|| missing("B"))?;
            let bound = m.bound.unwrap_or(0.0);
            let v = verdict(&va, &vb, m.better, bound);
            clean &= matches!(v, Verdict::Better | Verdict::Same);
            let signed = match m.better {
                Better::Lower => worsening(&va, &vb, m.better),
                Better::Higher => -worsening(&va, &vb, m.better),
            };
            println!(
                "{:<16} {:<12} {:>14.4} {:>14.4} {:>+8.2}% {:>6.1}%  {}",
                workload,
                m.name,
                stats::median(&va),
                stats::median(&vb),
                100.0 * signed,
                100.0 * bound,
                v.word()
            );
        }
        // Bound 0: any failure more is worse, any other simulated time is
        // another model.
        let fails = |doc| values(doc, workload, "fail_ratio").map(|v| stats::median(&v));
        if let (Some(fa), Some(fb)) = (fails(a), fails(b)) {
            let word = if fb > fa { "worse" } else { "same" };
            clean &= fb <= fa;
            println!(
                "{workload:<16} {:<12} {fa:>14.4} {fb:>14.4} {:>17}  {word}",
                "fail_ratio", "0.0%"
            );
        }
        let model = |doc: &Json| {
            let w = doc.get("workloads")?.get(workload)?;
            Some((
                w.get("sim_digests")?.clone(),
                values(doc, workload, "sim_op_ms")?,
            ))
        };
        if let (Some((da, sa)), Some((db, sb))) = (model(a), model(b)) {
            let same = da == db && sa == sb;
            clean &= same;
            println!(
                "{workload:<16} {:<12} {:>14.4} {:>14.4} {:>17}  {}",
                "sim_op_ms",
                stats::median(&sa),
                stats::median(&sb),
                "exact",
                if same { "same" } else { "model changed" }
            );
        }
    }
    Ok(clean)
}

pub fn compare_files(spec: &Spec, a: &str, b: &str) -> Result<bool, String> {
    let (da, db) = (load(a)?, load(b)?);
    for key in ["seed", "seconds", "runs"] {
        if da.get(key) != db.get(key) {
            return Err(format!("{a} and {b} were run with different `{key}`"));
        }
    }
    compare_docs(spec, &da, &db)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let shift = |by: f64| a.map(|v| v * by);
        assert_eq!(
            verdict(&a, &shift(1.02), Better::Lower, 0.05),
            Verdict::Same
        );
        assert_eq!(
            verdict(&a, &shift(1.08), Better::Lower, 0.05),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&a, &shift(0.90), Better::Lower, 0.05),
            Verdict::Better
        );
        // The same numbers read the other way round for a rate.
        assert_eq!(
            verdict(&a, &shift(1.08), Better::Higher, 0.05),
            Verdict::Better
        );
        assert_eq!(
            verdict(&a, &shift(0.90), Better::Higher, 0.05),
            Verdict::Worse
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let noisy = [80.0, 120.0, 100.0, 90.0, 110.0];
        let also_noisy = [82.0, 118.0, 101.0, 91.0, 109.0];
        assert_eq!(
            verdict(&noisy, &also_noisy, Better::Lower, 0.05),
            Verdict::Unresolved
        );
        // Unless every run of B beats every run of A.
        let far_better = noisy.map(|v| v / 2.0);
        assert_eq!(
            verdict(&noisy, &far_better, Better::Lower, 0.05),
            Verdict::Better
        );
        assert_eq!(
            verdict(&noisy, &noisy.map(|v| v * 2.0), Better::Lower, 0.05),
            Verdict::Unresolved
        );
    }

    #[test]
    fn worsening_is_a_share_of_a() {
        assert_eq!(worsening(&[10.0], &[11.0], Better::Lower), 0.1);
        assert_eq!(worsening(&[10.0], &[11.0], Better::Higher), -0.1);
        assert_eq!(worsening(&[0.0], &[0.0], Better::Lower), 0.0);
    }

    fn results(p50: [f64; 3], digest: &str) -> Json {
        let metric = |values: &[f64]| {
            Json::obj([(
                "values",
                Json::Arr(values.iter().map(|v| Json::Num(*v)).collect()),
            )])
        };
        let workload = Json::obj([
            ("sim_digests", Json::Arr(vec![Json::str(digest)])),
            (
                "end_to_end",
                Json::obj([
                    ("op_p50_ms", metric(&p50)),
                    ("fail_ratio", metric(&[0.0; 3])),
                    ("sim_op_ms", metric(&[5.0; 3])),
                ]),
            ),
        ]);
        Json::obj([("workloads", Json::obj([("w", workload)]))])
    }

    #[test]
    fn tables_flag_regressions_and_model_changes() {
        let spec = Spec::parse(
            r#"{"run_seconds": 1, "workloads": [{"name": "w", "why": "x"}],
                "end_to_end": [{"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.05}],
                "per_layer": []}"#,
        )
        .unwrap();
        let a = results([10.0, 10.1, 9.9], "aa");
        assert!(compare_docs(&spec, &a, &a).unwrap());
        assert!(!compare_docs(&spec, &a, &results([12.0, 12.1, 11.9], "aa")).unwrap());
        assert!(!compare_docs(&spec, &a, &results([10.0, 10.1, 9.9], "bb")).unwrap());
    }
}
