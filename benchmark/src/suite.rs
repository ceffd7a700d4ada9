//! The whole suite: every workload, each pass in a process of its own so
//! `peak_rss_mb` is that workload's and nothing else's, gathered into one
//! result file. Run `k` of a workload uses seed `seed + k`, as the driver
//! varies it, so the spread a result file shows is the one the driver
//! will see.

use crate::compare;
use crate::json::{self, Json};
use crate::report::{out_dir, Spec};
use crate::stats;
use std::path::Path;
use std::process::Command;

/// First line of `program args…`'s output, or `unknown`.
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// One pass of `workload` in a child process; its result document.
fn child_pass(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let result = out_dir().join(format!(".pass-{}.json", std::process::id()));
    let status = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--result")
        .arg(&result)
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let text = std::fs::read_to_string(&result);
    let _ = std::fs::remove_file(&result);
    if !status.success() {
        return Err(format!("{workload} seed {seed} exited with {status}"));
    }
    let text = text.map_err(|e| format!("{workload} left no result: {e}"))?;
    json::parse(&text)
}

fn value_of(doc: &Json, name: &str) -> Option<f64> {
    doc.get("values")?.get(name)?.as_f64()
}

fn field(doc: &Json, key: &str) -> Json {
    doc.get(key).cloned().unwrap_or(Json::Null)
}

fn field_of_each(docs: &[Json], key: &str) -> Json {
    Json::Arr(docs.iter().map(|d| field(d, key)).collect())
}

/// Run every workload `runs` times end to end and once traced; write the
/// result file and print every metric by name with its unit.
pub fn run_suite(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    runs: usize,
    out: &str,
) -> Result<bool, String> {
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for (name, why) in &spec.workloads {
        let mut passes = Vec::with_capacity(runs);
        for k in 0..runs as u64 {
            eprintln!("{name}: end-to-end run {} of {runs}", k + 1);
            passes.push(child_pass(name, seed + k, seconds, false)?);
        }
        eprintln!("{name}: traced pass");
        let traced = child_pass(name, seed, seconds, true)?;

        println!("{name}: {why}");
        let mut end_to_end = Vec::new();
        // The five bounded metrics, then the two an exact rule governs.
        let unbounded = [("fail_ratio", "ratio"), ("sim_op_ms", "sim_ms")];
        let listed = spec
            .end_to_end
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str()));
        for (metric, unit) in listed.chain(unbounded) {
            let values: Vec<f64> = passes
                .iter()
                .map(|p| {
                    value_of(p, metric).ok_or_else(|| format!("{name}: a run reported no {metric}"))
                })
                .collect::<Result<_, _>>()?;
            let median = stats::median(&values);
            println!(
                "  {:<40} {:>16.6} {:<8} spread {:.2} % over {} runs",
                metric,
                median,
                unit,
                100.0 * stats::spread(&values),
                values.len()
            );
            end_to_end.push((
                metric,
                Json::obj([
                    ("unit", Json::str(unit)),
                    ("median", Json::Num(median)),
                    (
                        "values",
                        Json::Arr(values.into_iter().map(Json::Num).collect()),
                    ),
                ]),
            ));
        }
        let mut per_layer = Vec::new();
        for m in &spec.per_layer {
            let value = value_of(&traced, &m.name).unwrap_or(0.0);
            println!("  {:<40} {:>16.6} {}", m.name, value, m.unit);
            per_layer.push((
                m.name.as_str(),
                Json::obj([("unit", Json::str(&m.unit)), ("value", Json::Num(value))]),
            ));
        }

        let failed = |d: &Json| d.get("failed").and_then(Json::as_f64) != Some(0.0);
        let traced_agrees = traced.get("sim_digest") == passes[0].get("sim_digest")
            && value_of(&traced, "sim_op_ms") == value_of(&passes[0], "sim_op_ms");
        if !traced_agrees {
            println!("  the traced pass saw another model than the end-to-end pass of seed {seed}");
        }
        all_correct &= traced_agrees && !passes.iter().chain([&traced]).any(failed);

        workloads.push((
            name.as_str(),
            Json::obj([
                ("why", Json::str(why)),
                // Every op is a sample: the counts of ops and of samples.
                ("ops", field(&passes[0], "samples")),
                ("traced_ops", field(&traced, "samples")),
                ("setup_runs", field(&passes[0], "setup_runs")),
                ("sim_digests", field_of_each(&passes, "sim_digest")),
                ("input_digests", field_of_each(&passes, "input_digest")),
                ("traced_sim_digest", field(&traced, "sim_digest")),
                ("end_to_end", Json::obj(end_to_end)),
                ("per_layer", Json::obj(per_layer)),
            ]),
        ));
    }

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let doc = Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("runs", Json::Num(runs as f64)),
        ("nproc", Json::Num(nproc as f64)),
        ("rustc", Json::str(tool_line("rustc", &["--version"]))),
        (
            "git_commit",
            Json::str(tool_line("git", &["rev-parse", "HEAD"])),
        ),
        ("workloads", Json::obj(workloads)),
    ]);
    let path = Path::new(out);
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.render() + "\n").map_err(|e| format!("{out}: {e}"))?;
    println!("results written to {out}");
    Ok(all_correct)
}

/// The suite twice on the same build, then `compare` on the two files.
pub fn run_aa(spec: &Spec, seed: u64, seconds: f64, runs: usize) -> Result<bool, String> {
    let file = |tag: &str| {
        out_dir()
            .join(format!("results-{tag}.json"))
            .display()
            .to_string()
    };
    let (a, b) = (file("a"), file("b"));
    let correct_a = run_suite(spec, seed, seconds, runs, &a)?;
    let correct_b = run_suite(spec, seed, seconds, runs, &b)?;
    Ok(compare::compare_files(spec, &a, &b)? && correct_a && correct_b)
}
