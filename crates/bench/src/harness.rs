//! The one bench harness: a [`Suite`] describes *what* is measured, and
//! [`drive`] owns everything every suite used to re-implement — argument
//! handling, the `BENCH_<NAME>.json` / `tests/bench/BENCH_<NAME>_baseline.json`
//! paths, load/bless, the double-run guard, the baseline comparison and
//! all pass/fail printing. The `bench` binary is [`run`] over [`SUITES`].
//!
//! Which regression gate applies is derived from the suite's [`Clock`]
//! and is not a setting:
//!
//! * [`Clock::Logical`] — simulated time admits no noise, so every gated
//!   metric is held to an absolute [`LOGICAL_TOLERANCE`] of its baseline
//!   value. A uniform slowdown of the timing model is a regression like
//!   any other and must come with a `--bless`.
//! * [`Clock::Wall`] — ratios are normalised by the median
//!   current/baseline ratio so absolute machine speed cancels; a metric
//!   more than [`WALL_TOLERANCE`] past the median fails.

use crate::json::{self, Json};
use crate::tables::render_table;
use crate::{adapt_suite, build_suite, chaos_suite, core_suite, guard};
use crate::{lazy_suite, storm_suite, suite};
use std::path::{Path, PathBuf};

/// The time base a suite reports in; selects the regression gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Simulated DES time: deterministic, gated absolutely.
    Logical,
    /// Host wall clock: noisy, gated relative to the median ratio.
    Wall,
}

/// A [`Clock::Logical`] metric more than this fraction over baseline fails.
pub const LOGICAL_TOLERANCE: f64 = 0.10;

/// A [`Clock::Wall`] metric whose current/baseline ratio exceeds the
/// run's median ratio by more than this fraction fails.
pub const WALL_TOLERANCE: f64 = 0.15;

/// Report lines on success, one line per violation on failure.
pub type GateResult = Result<Vec<String>, Vec<String>>;

/// The verdict of a gate that collected `report` lines and `errors`.
pub fn verdict(report: Vec<String>, errors: Vec<String>) -> GateResult {
    if errors.is_empty() {
        Ok(report)
    } else {
        Err(errors)
    }
}

/// [`Suite::table`] rows from a header and one cell array per row; the
/// shared `N` keeps every row as wide as the header.
pub fn table<const N: usize>(
    header: [&str; N],
    rows: impl IntoIterator<Item = [String; N]>,
) -> Vec<Vec<String>> {
    let header = header.map(String::from).to_vec();
    std::iter::once(header)
        .chain(rows.into_iter().map(Vec::from))
        .collect()
}

/// One benchmark suite: a sweep, its JSON document, its structural gates
/// and the metrics the baseline gate holds still.
pub trait Suite: Sized {
    /// Name on the command line and in the `BENCH_<NAME>` file names.
    const NAME: &'static str;
    /// Whether the suite has smaller `--quick` sizes. Such a suite keeps
    /// one baseline section per mode, because per-op profiles differ
    /// with workload size and each mode must compare like with like.
    const HAS_QUICK: bool = false;
    /// The suite's time base; selects the regression gate.
    const CLOCK: Clock;
    type Results;

    /// Run the sweep (`quick` is only ever true when [`Self::HAS_QUICK`]).
    fn run(quick: bool) -> Self::Results;
    /// The document written to `BENCH_<NAME>.json` and, blessed, to the
    /// baseline.
    fn render(results: &Self::Results) -> Json;
    /// Structural gates that hold regardless of any baseline.
    fn gates(results: &Self::Results) -> GateResult;
    /// `(label, value)` of every metric the baseline gate compares, read
    /// back out of a rendered document — the fresh one and the baseline
    /// alike, so no suite carries baseline-lookup code.
    fn gated_metrics(doc: &Json) -> Vec<(String, f64)>;
    /// Summary rows, header first; printed aligned or as markdown.
    fn table(results: &Self::Results) -> Vec<Vec<String>>;
    /// Compare a fresh run with its baseline. One pass of
    /// [`compare_to_baseline`] by default; a wall-clock suite may
    /// re-measure what it flags before believing it.
    fn check(results: &mut Self::Results, baseline: &Json) -> Comparison {
        compare_to_baseline::<Self>(&Self::render(results), baseline)
    }
}

/// [`Suite::gated_metrics`] for a document shaped
/// `{ <array>: [ { <ids>…, <metrics>… } ] }`: one
/// `"<id>/<id>.<metric>"` entry per row and metric present.
pub fn row_metrics(doc: &Json, array: &str, ids: &[&str], metrics: &[&str]) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for row in doc.get(array).and_then(Json::as_arr).unwrap_or(&[]) {
        let id: Vec<String> = ids
            .iter()
            .map(|k| match row.get(k) {
                Some(Json::Str(s)) => s.clone(),
                Some(Json::Num(n)) => num(*n),
                _ => "?".to_string(),
            })
            .collect();
        for m in metrics {
            if let Some(v) = row.get(m).and_then(Json::as_f64) {
                out.push((format!("{}.{m}", id.join("/")), v));
            }
        }
    }
    out
}

fn num(x: f64) -> String {
    if x.fract() == 0.0 {
        format!("{x:.0}")
    } else {
        format!("{x:.2}")
    }
}

/// Outcome of one baseline comparison.
#[derive(Debug, Default)]
pub struct Comparison {
    /// One line per metric within tolerance.
    pub passed: Vec<String>,
    /// `(label, message)` per metric over its limit.
    pub regressed: Vec<(String, String)>,
    /// Baseline defects no re-measurement can fix (missing entries).
    pub invalid: Vec<String>,
}

impl Comparison {
    pub fn is_ok(&self) -> bool {
        self.regressed.is_empty() && self.invalid.is_empty()
    }

    /// Every failure message, baseline defects first.
    pub fn errors(&self) -> Vec<String> {
        let regressed = self.regressed.iter().map(|(_, m)| m.clone());
        self.invalid.iter().cloned().chain(regressed).collect()
    }
}

/// The one regression gate: the suite's gated metrics of the `fresh`
/// document against the same metrics of the `baseline` document, matched
/// by label. A metric absent from the baseline is an error; a zero
/// baseline admits only a zero current value; everything else goes
/// through the gate the suite's [`Clock`] selects.
pub fn compare_to_baseline<S: Suite>(fresh: &Json, baseline: &Json) -> Comparison {
    let base = S::gated_metrics(baseline);
    let metrics: Vec<(String, f64, Option<f64>)> = S::gated_metrics(fresh)
        .into_iter()
        .map(|(label, cur)| {
            let b = base.iter().find(|(l, _)| *l == label).map(|(_, b)| *b);
            (label, cur, b)
        })
        .collect();
    let mut cmp = Comparison::default();
    if metrics.is_empty() {
        cmp.invalid.push("run produced no gated metrics".into());
    }
    let (mut norm, mut past) = (1.0, String::new());
    let tolerance = match S::CLOCK {
        Clock::Logical => LOGICAL_TOLERANCE,
        Clock::Wall => {
            let mut ratios: Vec<f64> = metrics
                .iter()
                .filter_map(|(_, cur, b)| b.filter(|b| *b != 0.0).map(|b| cur / b))
                .collect();
            ratios.sort_by(f64::total_cmp);
            if let Some(median) = ratios.get(ratios.len() / 2) {
                norm = *median;
                past = format!(" past the median ratio {norm:.3}");
                cmp.passed.push(format!(
                    "median current/baseline ratio {norm:.3} (machine speed factor)"
                ));
            }
            WALL_TOLERANCE
        }
    };
    for (label, cur, b) in metrics {
        let Some(b) = b else {
            cmp.invalid.push(format!(
                "{label}: no baseline entry (re-bless with `bench {} --bless`)",
                S::NAME
            ));
            continue;
        };
        let line = format!("{label}: {} vs baseline {}", num(cur), num(b));
        if b == 0.0 {
            if cur == 0.0 {
                cmp.passed.push(line);
            } else {
                let why = "a zero baseline admits only zero";
                cmp.regressed.push((label, format!("{line} — {why}")));
            }
        } else {
            let drift = (cur / b / norm - 1.0) * 100.0;
            if cur / b > norm * (1.0 + tolerance) {
                let gate = tolerance * 100.0;
                let why = format!("{drift:+.1}%{past} exceeds the {gate:.0}% gate");
                cmp.regressed.push((label, format!("{line} — {why}")));
            } else {
                cmp.passed.push(format!("{line} ({drift:+.1}%)"));
            }
        }
    }
    cmp
}

fn results_path(root: &Path, name: &str) -> PathBuf {
    root.join(format!("BENCH_{name}.json"))
}

fn baseline_path(root: &Path, name: &str) -> PathBuf {
    root.join(format!("tests/bench/BENCH_{name}_baseline.json"))
}

fn load_baseline(root: &Path, name: &str) -> Result<Json, String> {
    let path = baseline_path(root, name);
    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "cannot read baseline {} ({e}); create it with `bench {name} --bless`",
            path.display()
        )
    })?;
    json::parse(&text).map_err(|e| format!("baseline {}: {e}", path.display()))
}

fn write_doc(path: &Path, doc: &Json) -> Result<(), String> {
    let parent = path.parent().expect("bench paths have a parent");
    std::fs::create_dir_all(parent)
        .and_then(|()| std::fs::write(path, doc.render()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// The summary rows as a markdown table (the EXPERIMENTS.md format).
pub fn render_markdown_table(rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!("| {} |\n", row.join(" | ")));
        if i == 0 {
            out.push_str(&format!("|{}\n", "---|".repeat(row.len())));
        }
    }
    out
}

fn passed(what: &str, lines: &[String]) {
    println!("\n{what} passed:");
    for line in lines {
        println!("  {line}");
    }
}

fn failed(what: &str, errors: &[String]) -> String {
    let lines: Vec<String> = errors.iter().map(|e| format!("  - {e}")).collect();
    format!("{what} FAILED:\n{}", lines.join("\n"))
}

/// What the command line asked for.
#[derive(Debug, Default, Clone, Copy)]
pub struct Opts {
    /// Compare against the checked-in baseline; exit 1 on regression.
    pub check: bool,
    /// Overwrite the baseline with this run.
    pub bless: bool,
    /// Print the summary table as markdown instead of aligned text.
    pub markdown: bool,
    /// Run the suite's quick sizes (only where it declares any).
    pub quick: bool,
}

/// Run suite `S` with files under `root`; returns the process exit code
/// (0 ok, 1 a gate failed, 2 the options make no sense for this suite).
pub fn drive<S: Suite>(root: &Path, opts: &Opts) -> i32 {
    let me = format!("bench {}", S::NAME);
    if opts.quick && !S::HAS_QUICK {
        eprintln!("{me}: the suite declares no quick sizes; drop --quick");
        return 2;
    }
    if opts.quick && opts.bless {
        eprintln!("{me}: --bless needs the full-size run; drop --quick");
        return 2;
    }
    match drive_checked::<S>(root, opts) {
        Ok(()) => 0,
        Err(message) => {
            eprintln!("\n{me}: {message}");
            1
        }
    }
}

fn drive_checked<S: Suite>(root: &Path, opts: &Opts) -> Result<(), String> {
    // Logical time admits no noise: before a run is compared or blessed,
    // a second run must render the same bytes. Wall clocks never would.
    let mut results = if S::CLOCK == Clock::Logical && (opts.check || opts.bless) {
        guard::deterministic_runs(|| S::run(opts.quick), |r| S::render(r).render())?
    } else {
        S::run(opts.quick)
    };
    let doc = S::render(&results);

    let rows = S::table(&results);
    if opts.markdown {
        print!("{}", render_markdown_table(&rows));
    } else {
        print!("{}", render_table(&rows));
    }
    let out = results_path(root, S::NAME);
    if opts.quick {
        println!("\nquick mode: leaving {} untouched", out.display());
    } else {
        write_doc(&out, &doc)?;
        println!("\nwrote {}", out.display());
    }

    // Gates run on every invocation, and before any bless: a run that
    // fails its own structural gates must never become the baseline.
    let report = S::gates(&results).map_err(|e| failed("structural gates", &e))?;
    passed("structural gates", &report);

    if opts.bless {
        let baseline = if S::HAS_QUICK {
            println!("\nre-running at quick sizes for the quick baseline section...");
            let quick = S::render(&S::run(true));
            let schema = doc.get("schema").cloned().unwrap_or(Json::Null);
            Json::obj([("schema", schema), ("full", doc), ("quick", quick)])
        } else {
            doc
        };
        let path = baseline_path(root, S::NAME);
        write_doc(&path, &baseline)?;
        println!("\nblessed baseline {}", path.display());
    }

    if opts.check {
        let baseline = load_baseline(root, S::NAME)?;
        let mode = if opts.quick { "quick" } else { "full" };
        let section = if S::HAS_QUICK {
            baseline
                .get(mode)
                .ok_or_else(|| format!("baseline has no `{mode}` section"))?
        } else {
            &baseline
        };
        let cmp = S::check(&mut results, section);
        if !cmp.is_ok() {
            return Err(failed("baseline comparison", &cmp.errors()));
        }
        passed("baseline comparison", &cmp.passed);
    }
    Ok(())
}

/// [`drive`] instantiated for one suite.
pub type Driver = fn(&Path, &Opts) -> i32;

const fn entry<S: Suite>() -> (&'static str, Driver) {
    (S::NAME, drive::<S>)
}

/// Every suite the `bench` binary can run, in `--list` order.
pub const SUITES: &[(&str, Driver)] = &[
    entry::<suite::Pipeline>(),
    entry::<adapt_suite::Adapt>(),
    entry::<core_suite::Core>(),
    entry::<storm_suite::Storm>(),
    entry::<lazy_suite::Lazy>(),
    entry::<build_suite::Build>(),
    entry::<chaos_suite::Chaos>(),
];

/// The `bench` binary: `bench <suite> [--check] [--bless] [--markdown]
/// [--quick]` or `bench --list`. Returns the process exit code.
pub fn run(args: &[String]) -> i32 {
    let names: Vec<&str> = SUITES.iter().map(|(name, _)| *name).collect();
    let Some((first, flags)) = args.split_first() else {
        eprintln!(
            "usage: bench <{}> [--check] [--bless] [--markdown] [--quick]\n       bench --list",
            names.join("|")
        );
        return 2;
    };
    if first == "--list" && flags.is_empty() {
        println!("{}", names.join("\n"));
        return 0;
    }
    let Some((_, drive)) = SUITES.iter().find(|(name, _)| name == first) else {
        eprintln!(
            "bench: unknown suite `{first}` (one of {})",
            names.join(", ")
        );
        return 2;
    };
    let mut opts = Opts::default();
    for flag in flags {
        match flag.as_str() {
            "--check" => opts.check = true,
            "--bless" => opts.bless = true,
            "--markdown" => opts.markdown = true,
            "--quick" => opts.quick = true,
            bad => {
                eprintln!(
                    "bench {first}: unknown argument `{bad}` \
                     (expected --check, --bless, --markdown, --quick)"
                );
                return 2;
            }
        }
    }
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    drive(root, &opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A three-metric suite with a switchable clock and gate verdict.
    struct Toy<const WALL: bool, const SOUND: bool>;

    type Rows = Vec<(&'static str, f64)>;

    fn doc(rows: &[(&'static str, f64)]) -> Json {
        let row = |(name, ns): &(&'static str, f64)| {
            Json::obj([
                ("name", Json::Str(name.to_string())),
                ("ns", Json::Num(*ns)),
            ])
        };
        Json::obj([("rows", Json::Arr(rows.iter().map(row).collect()))])
    }

    impl<const WALL: bool, const SOUND: bool> Suite for Toy<WALL, SOUND> {
        const NAME: &'static str = "toy";
        const CLOCK: Clock = if WALL { Clock::Wall } else { Clock::Logical };
        type Results = Rows;

        fn run(_quick: bool) -> Rows {
            vec![("a", 100.0), ("b", 200.0), ("c", 300.0), ("idle", 0.0)]
        }

        fn render(rows: &Rows) -> Json {
            doc(rows)
        }

        fn gates(_: &Rows) -> GateResult {
            let broke = if SOUND {
                None
            } else {
                Some("toy gate broke".into())
            };
            verdict(vec!["toy gate holds".into()], broke.into_iter().collect())
        }

        fn gated_metrics(doc: &Json) -> Vec<(String, f64)> {
            row_metrics(doc, "rows", &["name"], &["ns"])
        }

        fn table(rows: &Rows) -> Vec<Vec<String>> {
            table(
                ["name", "ns"],
                rows.iter().map(|(n, v)| [n.to_string(), num(*v)]),
            )
        }
    }

    type Logical = Toy<false, true>;
    type Wall = Toy<true, true>;

    const BASE: [(&str, f64); 4] = [("a", 100.0), ("b", 200.0), ("c", 300.0), ("idle", 0.0)];

    #[test]
    fn equal_documents_pass_under_both_clocks() {
        assert!(compare_to_baseline::<Logical>(&doc(&BASE), &doc(&BASE)).is_ok());
        let wall = compare_to_baseline::<Wall>(&doc(&BASE), &doc(&BASE));
        assert!(wall.is_ok(), "{:?}", wall.errors());
        assert!(wall.passed[0].contains("median current/baseline ratio 1.000"));
    }

    #[test]
    fn logical_gate_is_absolute() {
        let near = [("a", 109.0), ("b", 200.0), ("c", 300.0), ("idle", 0.0)];
        assert!(compare_to_baseline::<Logical>(&doc(&near), &doc(&BASE)).is_ok());
        let over = [("a", 111.0), ("b", 200.0), ("c", 300.0), ("idle", 0.0)];
        let cmp = compare_to_baseline::<Logical>(&doc(&over), &doc(&BASE));
        assert_eq!(cmp.regressed.len(), 1, "{:?}", cmp.errors());
        assert_eq!(cmp.regressed[0].0, "a.ns");
        assert!(cmp.regressed[0].1.contains("111 vs baseline 100"));
        // A uniform 2x slowdown of the timing model is a regression too.
        let doubled = [("a", 200.0), ("b", 400.0), ("c", 600.0), ("idle", 0.0)];
        let cmp = compare_to_baseline::<Logical>(&doc(&doubled), &doc(&BASE));
        assert_eq!(cmp.regressed.len(), 3, "{:?}", cmp.errors());
    }

    #[test]
    fn wall_gate_cancels_machine_speed_but_not_skew() {
        let doubled = [("a", 200.0), ("b", 400.0), ("c", 600.0), ("idle", 0.0)];
        let cmp = compare_to_baseline::<Wall>(&doc(&doubled), &doc(&BASE));
        assert!(cmp.is_ok(), "{:?}", cmp.errors());
        let skewed = [("a", 200.0), ("b", 400.0), ("c", 900.0), ("idle", 0.0)];
        let cmp = compare_to_baseline::<Wall>(&doc(&skewed), &doc(&BASE));
        assert_eq!(cmp.regressed.len(), 1, "{:?}", cmp.errors());
        assert_eq!(cmp.regressed[0].0, "c.ns");
        assert!(cmp.regressed[0].1.contains("past the median ratio 2.000"));
    }

    #[test]
    fn missing_baseline_row_is_red_and_names_the_bless_command() {
        let cmp = compare_to_baseline::<Logical>(&doc(&BASE), &doc(&BASE[1..]));
        assert!(cmp.regressed.is_empty());
        assert_eq!(cmp.invalid.len(), 1);
        assert!(cmp.invalid[0].starts_with("a.ns: no baseline entry"));
        assert!(cmp.invalid[0].contains("`bench toy --bless`"));
        let empty = compare_to_baseline::<Logical>(&doc(&[]), &doc(&BASE));
        assert!(!empty.is_ok());
    }

    #[test]
    fn zero_baseline_admits_only_zero() {
        for woke in [("idle", 3.0), ("idle", 0.01)] {
            let fresh = [BASE[0], BASE[1], BASE[2], woke];
            let logical = compare_to_baseline::<Logical>(&doc(&fresh), &doc(&BASE));
            let wall = compare_to_baseline::<Wall>(&doc(&fresh), &doc(&BASE));
            for cmp in [logical, wall] {
                assert_eq!(cmp.regressed.len(), 1, "{:?}", cmp.errors());
                assert_eq!(cmp.regressed[0].0, "idle.ns");
                let expect = format!("{} vs baseline 0", num(woke.1));
                assert!(cmp.regressed[0].1.contains(&expect), "{:?}", cmp.errors());
            }
        }
    }

    #[test]
    fn unknown_suite_or_flag_exits_2_before_running_anything() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(run(&args(&[])), 2);
        assert_eq!(run(&args(&["nope"])), 2);
        assert_eq!(run(&args(&["pipeline", "--filter"])), 2);
        assert_eq!(run(&args(&["--list", "--check"])), 2);
        assert_eq!(run(&args(&["--list"])), 0);
        // --quick only where the suite declares quick sizes; never with --bless.
        let quick = Opts {
            quick: true,
            ..Opts::default()
        };
        assert_eq!(drive::<Logical>(Path::new("/nonexistent"), &quick), 2);
        assert_eq!(run(&args(&["core", "--quick", "--bless"])), 2);
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hpcc-harness-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn bless_then_check_round_trips_through_the_files() {
        let root = scratch("bless");
        let opts = |check, bless| Opts {
            check,
            bless,
            ..Opts::default()
        };
        // No baseline yet: --check is red and says how to create one.
        assert_eq!(drive::<Logical>(&root, &opts(true, false)), 1);
        assert_eq!(drive::<Logical>(&root, &opts(false, true)), 0);
        assert_eq!(drive::<Logical>(&root, &opts(true, false)), 0);
        let blessed = std::fs::read_to_string(baseline_path(&root, "toy")).unwrap();
        assert_eq!(blessed, doc(&BASE).render());
        assert_eq!(
            std::fs::read_to_string(results_path(&root, "toy")).unwrap(),
            blessed
        );
        // A baseline 20% under the run turns --check red.
        let faster = [("a", 80.0), BASE[1], BASE[2], BASE[3]];
        write_doc(&baseline_path(&root, "toy"), &doc(&faster)).unwrap();
        assert_eq!(drive::<Logical>(&root, &opts(true, false)), 1);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn bless_refuses_a_run_that_fails_its_own_gates() {
        let root = scratch("refuse");
        let bless = Opts {
            bless: true,
            ..Opts::default()
        };
        assert_eq!(drive::<Toy<false, false>>(&root, &bless), 1);
        assert!(
            !baseline_path(&root, "toy").exists(),
            "baseline was written"
        );
        // Gates run on a plain invocation too.
        assert_eq!(drive::<Toy<false, false>>(&root, &Opts::default()), 1);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn markdown_and_aligned_tables_share_rows() {
        let rows = Logical::table(&Logical::run(false));
        let md = render_markdown_table(&rows);
        assert!(
            md.starts_with("| name | ns |\n|---|---|\n| a | 100 |\n"),
            "{md}"
        );
        assert_eq!(md.lines().count(), render_table(&rows).lines().count());
    }

    /// `scripts/ci.sh` and [`SUITES`] may not drift: every suite has a
    /// `bench*` stage driving it, and every `bench*` stage drives a suite.
    #[test]
    fn ci_bench_stages_match_the_suite_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scripts/ci.sh");
        let ci = std::fs::read_to_string(path).unwrap();
        let mut staged: Vec<&str> = Vec::new();
        for line in ci.lines().filter(|l| l.starts_with("stage_bench")) {
            let suite = line
                .split("bench_stage ")
                .nth(1)
                .and_then(|rest| rest.split_whitespace().next())
                .unwrap_or_else(|| panic!("`{line}` does not call bench_stage <suite>"));
            staged.push(suite);
        }
        let mut suites: Vec<&str> = SUITES.iter().map(|(name, _)| *name).collect();
        staged.sort_unstable();
        suites.sort_unstable();
        assert_eq!(staged, suites, "ci.sh bench stages vs `bench --list`");
        let stages_line = ci.lines().find(|l| l.starts_with("STAGES=(")).unwrap();
        let in_stages = stages_line
            .split_whitespace()
            .filter(|s| s.starts_with("bench"));
        assert_eq!(in_stages.count(), suites.len(), "{stages_line}");
    }
}
