//! `BENCHMARK.json` as the benchmark's own table of names, units,
//! directions and bounds, and the shaping of one pass into printed lines,
//! a result file and the final JSON line the driver reads.

use crate::harness::RunStats;
use crate::json::{self, Json};
use crate::stats;
use crate::trace::Trace;
use std::collections::BTreeMap;
use std::path::PathBuf;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the reference median a metric may worsen by; per-layer
    /// metrics have none.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    /// `(name, why)` per workload.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key)
        .ok_or_else(|| format!("BENCHMARK.json: missing `{key}`"))
}

fn text(v: &Json, key: &str) -> Result<String, String> {
    field(v, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("BENCHMARK.json: `{key}` is not a string"))
}

fn metric_list(doc: &Json, key: &str) -> Result<Vec<MetricSpec>, String> {
    field(doc, key)?
        .as_arr()
        .ok_or_else(|| format!("BENCHMARK.json: `{key}` is not a list"))?
        .iter()
        .map(|m| {
            Ok(MetricSpec {
                name: text(m, "name")?,
                unit: text(m, "unit")?,
                better: match text(m, "better")?.as_str() {
                    "lower" => Better::Lower,
                    "higher" => Better::Higher,
                    other => return Err(format!("BENCHMARK.json: better = `{other}`")),
                },
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

impl Spec {
    pub fn parse(textual: &str) -> Result<Spec, String> {
        let doc = json::parse(textual).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let workloads = field(&doc, "workloads")?
            .as_arr()
            .ok_or("BENCHMARK.json: `workloads` is not a list")?
            .iter()
            .map(|w| Ok((text(w, "name")?, text(w, "why")?)))
            .collect::<Result<_, String>>()?;
        Ok(Spec {
            run_seconds: field(&doc, "run_seconds")?
                .as_f64()
                .ok_or("BENCHMARK.json: `run_seconds` is not a number")?,
            workloads,
            end_to_end: metric_list(&doc, "end_to_end")?,
            per_layer: metric_list(&doc, "per_layer")?,
        })
    }

    /// From the working directory (the checkout root, where `run.sh`
    /// starts the binary), else from where this package was built.
    pub fn load() -> Result<Spec, String> {
        let built_at = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let textual = std::fs::read_to_string("BENCHMARK.json")
            .or_else(|_| std::fs::read_to_string(built_at))
            .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
        Spec::parse(&textual)
    }
}

pub fn print_metric_list(spec: &Spec) {
    println!("end-to-end (per workload, tracing off):");
    for m in &spec.end_to_end {
        println!("  {:<40} {}", m.name, m.unit);
    }
    println!(
        "  {:<40} ratio, as `failed` over `attempted`; any failure fails the run",
        "fail_ratio"
    );
    println!("per-layer (per workload, traced pass; 0 where the workload bypasses the layer):");
    for m in &spec.per_layer {
        println!("  {:<40} {}", m.name, m.unit);
    }
}

/// One finished pass of one workload.
pub struct Pass {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    /// Input classes the ops cycled through.
    pub classes: usize,
    pub stats: RunStats,
    /// Every metric this pass measured, by `BENCHMARK.json` name (plus
    /// `fail_ratio` and `sim_op_ms`, which are printed but not bounded).
    pub values: BTreeMap<&'static str, f64>,
    pub trace: Trace,
}

/// Where result and trace files go: `out/` beside this package, which
/// `run.sh` names; started by hand, from the repository root.
pub fn out_dir() -> PathBuf {
    let package = std::env::var_os("HOSTBENCH_DIR").unwrap_or_else(|| "benchmark".into());
    PathBuf::from(package).join("out")
}

fn write_file(path: &std::path::Path, body: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, body).map_err(|e| format!("{}: {e}", path.display()))
}

/// Host time per op inside each named span, as a share of the op: where
/// an op's time goes (stage spans) and how much of it a layer's replay
/// accounts for (`probe.*` spans, to check the predicted shares).
fn print_shares(pass: &Pass) {
    let op_ms = pass.stats.op_p50_ms();
    let names: std::collections::BTreeSet<&str> = pass
        .trace
        .spans()
        .iter()
        .filter(|s| !crate::trace::is_setup(s.op) && s.name != "op" && s.name != "probes")
        .map(|s| s.name)
        .collect();
    println!("  host time per traced op, share of the op ({op_ms:.3} ms):");
    for name in names {
        let ms = pass.trace.floor_self_ms(name, pass.classes);
        println!(
            "    {:<34} {:>10.4} ms {:>7.2} %",
            name,
            ms,
            100.0 * ms / op_ms
        );
    }
}

/// What the suite keeps of one pass: every value it measured, listed in
/// `BENCHMARK.json` or not, and what identifies its inputs and outcome.
fn pass_doc(pass: &Pass) -> Json {
    let st = &pass.stats;
    Json::obj([
        ("workload", Json::str(pass.workload)),
        ("seed", Json::Num(pass.seed as f64)),
        ("traced", Json::Bool(pass.traced)),
        ("attempted", Json::Num(st.attempted as f64)),
        ("failed", Json::Num(st.failed as f64)),
        ("samples", Json::Num(st.samples_ms.len() as f64)),
        ("setup_runs", Json::Num(st.setup_runs as f64)),
        ("sim_digest", Json::str(format!("{:016x}", st.sim_digest()))),
        (
            "input_digest",
            Json::str(format!("{:016x}", st.input_digest)),
        ),
        (
            "values",
            Json::obj(pass.values.iter().map(|(k, v)| (*k, Json::Num(*v)))),
        ),
    ])
}

/// Print the pass, write its files, and end with the one JSON line the
/// driver reads. Returns whether every op was correct.
pub fn emit(spec: &Spec, pass: &Pass, result_file: Option<&str>) -> Result<bool, String> {
    let st = &pass.stats;
    let correct = st.failed == 0 && st.attempted > 0;
    let listed = if pass.traced {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    println!(
        "{} seed {} {} pass: {} ops in {:.3} s of op time, {} set-ups",
        pass.workload,
        pass.seed,
        if pass.traced { "traced" } else { "end-to-end" },
        st.samples_ms.len(),
        st.samples_ms.iter().sum::<f64>() / 1e3,
        st.setup_runs
    );
    let mut metrics = BTreeMap::new();
    for m in listed {
        let value = match pass.values.get(m.name.as_str()) {
            Some(v) => *v,
            // A layer this workload bypasses did no work.
            None if pass.traced => 0.0,
            None => return Err(format!("no value for end-to-end metric {}", m.name)),
        };
        println!("  {:<40} {:>16.6} {}", m.name, value, m.unit);
        metrics.insert(
            m.name.clone(),
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(&m.unit))]),
        );
    }
    let (rate, p50, p90) = st.as_run();
    println!("  as run: {rate:.4} op/s, p50 {p50:.4} ms, p90 {p90:.4} ms");
    let floors: Vec<String> = st
        .class_floor_ms
        .iter()
        .map(|f| format!("{f:.3}"))
        .collect();
    println!("  class floors (ms): {}", floors.join(" "));
    println!("  {:<40} {:>16.6} ratio", "fail_ratio", st.fail_ratio());
    println!(
        "  {:<40} {:>16.6} ms (simulated)",
        "sim_op_ms",
        st.sim_op_ms()
    );
    println!("  {:<40} {:016x}", "sim_digest", st.sim_digest());
    println!("  {:<40} {:016x}", "input_digest", st.input_digest);
    if pass.traced {
        print_shares(pass);
        let path = out_dir().join(format!("trace-{}.json", pass.workload));
        write_file(&path, &pass.trace.chrome_json())?;
        println!("  trace written to {}", path.display());
    }

    if let Some(path) = result_file {
        write_file(
            std::path::Path::new(path),
            &(pass_doc(pass).render() + "\n"),
        )?;
    }

    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(st.attempted as f64)),
        ("failed", Json::Num(st.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", line.render());
    Ok(correct)
}

/// The values every pass reports, whatever the workload.
pub fn common_values(stats: &RunStats, traced: bool) -> BTreeMap<&'static str, f64> {
    let mut v = BTreeMap::from([
        ("fail_ratio", stats.fail_ratio()),
        ("sim_op_ms", stats.sim_op_ms()),
    ]);
    if traced {
        let overhead = if stats.untraced_ops_per_s > 0.0 && stats.ops_per_s() > 0.0 {
            100.0 * (stats.untraced_ops_per_s / stats.ops_per_s() - 1.0)
        } else {
            0.0
        };
        v.insert("harness.trace_overhead_pct", overhead);
    } else {
        v.insert("setup_s", stats.setup_s);
        v.insert("ops_per_s", stats.ops_per_s());
        v.insert("op_p50_ms", stats.op_p50_ms());
        v.insert("op_p90_ms", stats.op_p90_ms());
        v.insert("peak_rss_mb", stats::peak_rss_mb());
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_checked_in_spec_parses_and_is_complete() {
        let spec = Spec::load().expect("BENCHMARK.json parses");
        assert_eq!(spec.workloads.len(), 5);
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(spec.end_to_end.iter().any(|m| m.name == "setup_s"));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let mut names: Vec<&str> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "a metric name is used twice");
    }
}
