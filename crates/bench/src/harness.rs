//! The one bench harness: a [`Suite`] describes *what* is measured, and
//! [`drive`] owns everything every suite used to re-implement — argument
//! handling, the double-run guard, the structural gates, the golden
//! `BENCH_<NAME>.json` and all pass/fail printing. The `bench` binary is
//! [`run`] over `SUITES`.
//!
//! A suite is either deterministic — then it has exactly one golden, held
//! to exact bytes by `--check` and written by nothing but `--bless` — or
//! it reads the host clock, and then it has none: its only verdict is its
//! own structural gates, and wall-clock claims are made with
//! `benchmark/run.sh compare`.

use crate::json::Json;
use crate::tables::render_table;
use crate::{adapt_suite, build_suite, chaos_suite, core_suite, guard};
use crate::{lazy_suite, storm_suite, suite};
use std::path::{Path, PathBuf};

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

/// Renders a suite's results as its golden document.
pub type Render<R> = fn(&R) -> Json;

/// One benchmark suite: a sweep, its structural gates, its summary table
/// and — when every number is simulated time — its golden document.
pub trait Suite: Sized {
    /// Name on the command line and in `BENCH_<NAME>.json`.
    const NAME: &'static str;
    /// The document `BENCH_<NAME>.json` holds, byte for byte; `None` for
    /// a suite that measures the host, whose numbers no file can pin.
    const GOLDEN: Option<Render<Self::Results>>;
    type Results;

    /// Run the sweep.
    fn run() -> Self::Results;
    /// Structural gates: what the suite exists to show about this run.
    fn gates(results: &Self::Results) -> GateResult;
    /// Summary rows, header first; printed aligned or as markdown.
    fn table(results: &Self::Results) -> Vec<Vec<String>>;
}

fn golden_path(root: &Path, name: &str) -> PathBuf {
    root.join(format!("BENCH_{name}.json"))
}

/// The summary rows as a markdown table (the EXPERIMENTS.md format).
pub(crate) fn render_markdown_table(rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!("| {} |\n", row.join(" | ")));
        if i == 0 {
            out.push_str(&format!("|{}\n", "---|".repeat(row.len())));
        }
    }
    out
}

/// What the command line asked for.
#[derive(Debug, Default, Clone, Copy)]
pub struct Opts {
    /// Exit 1 unless the gates hold and the run renders its golden.
    pub check: bool,
    /// Overwrite the golden with this run.
    pub bless: bool,
    /// Print the summary table as markdown instead of aligned text.
    pub markdown: bool,
}

/// Run suite `S` with its golden under `root`; returns the process exit
/// code (0 ok, 1 a gate failed, 2 the options make no sense for this
/// suite).
pub fn drive<S: Suite>(root: &Path, opts: &Opts) -> i32 {
    let me = format!("bench {}", S::NAME);
    if opts.bless && S::GOLDEN.is_none() {
        eprintln!(
            "{me}: the suite measures the host, so it has no golden to bless; \
             wall-clock claims are made with `benchmark/run.sh compare`"
        );
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
    // The golden's text, when this invocation compares or writes it.
    let render = S::GOLDEN
        .filter(|_| opts.check || opts.bless)
        .map(|doc| move |results: &S::Results| doc(results).render());
    // Simulated time admits no noise: before a run is compared or
    // blessed, a second run must render the same bytes.
    let results = match &render {
        Some(render) => guard::deterministic_runs(S::run, render)?,
        None => S::run(),
    };

    let rows = S::table(&results);
    if opts.markdown {
        print!("{}", render_markdown_table(&rows));
    } else {
        print!("{}", render_table(&rows));
    }

    // Gates run on every invocation, and before any bless: a run that
    // fails its own structural gates must never become the golden.
    let report = S::gates(&results).map_err(|errors| {
        let lines: Vec<String> = errors.iter().map(|e| format!("  - {e}")).collect();
        format!("structural gates FAILED:\n{}", lines.join("\n"))
    })?;
    println!("\nstructural gates passed:");
    for line in report {
        println!("  {line}");
    }

    let Some(render) = render else { return Ok(()) };
    let (path, fresh) = (golden_path(root, S::NAME), render(&results));
    if opts.bless {
        std::fs::create_dir_all(root)
            .and_then(|()| std::fs::write(&path, &fresh))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("\nblessed {}", path.display());
    }
    if opts.check {
        guard::matches_checked_in(&path, &fresh, &format!("bench {} --bless", S::NAME))?;
        println!("\nrenders {} byte for byte", path.display());
    }
    Ok(())
}

/// [`drive`] instantiated for one suite.
pub type Driver = fn(&Path, &Opts) -> i32;

/// One line of `SUITES`.
pub struct Entry {
    pub name: &'static str,
    /// Whether `BENCH_<name>.json` exists.
    pub has_golden: bool,
    pub drive: Driver,
}

const fn entry<S: Suite>() -> Entry {
    Entry {
        name: S::NAME,
        has_golden: S::GOLDEN.is_some(),
        drive: drive::<S>,
    }
}

/// Every suite the `bench` binary can run, in `--list` order.
pub(crate) const SUITES: &[Entry] = &[
    entry::<suite::Pipeline>(),
    entry::<adapt_suite::Adapt>(),
    entry::<core_suite::Core>(),
    entry::<storm_suite::Storm>(),
    entry::<lazy_suite::Lazy>(),
    entry::<build_suite::Build>(),
    entry::<chaos_suite::Chaos>(),
];

/// The `bench` binary: `bench <suite> [--check] [--bless] [--markdown]`
/// or `bench --list`. Returns the process exit code.
pub fn run(args: &[String]) -> i32 {
    let names: Vec<&str> = SUITES.iter().map(|suite| suite.name).collect();
    let Some((first, flags)) = args.split_first() else {
        eprintln!(
            "usage: bench <{}> [--check] [--bless] [--markdown]\n       bench --list",
            names.join("|")
        );
        return 2;
    };
    if first == "--list" && flags.is_empty() {
        println!("{}", names.join("\n"));
        return 0;
    }
    let Some(suite) = SUITES.iter().find(|suite| suite.name == first) else {
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
            bad => {
                eprintln!(
                    "bench {first}: unknown argument `{bad}` \
                     (expected --check, --bless, --markdown)"
                );
                return 2;
            }
        }
    }
    (suite.drive)(guard::repo_root(), &opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A suite with or without a golden and with a switchable gate verdict.
    struct Toy<const GOLDEN: bool, const SOUND: bool>;

    /// `(name, ns, bytes)` per row, and the names of the `tenants` array.
    struct ToyRun {
        rows: Vec<(&'static str, f64, f64)>,
        tenants: Vec<&'static str>,
    }

    fn base() -> ToyRun {
        ToyRun {
            rows: vec![
                ("a", 100.0, 4096.0),
                ("b", 200.0, 512.0),
                ("idle", 0.0, 0.0),
            ],
            tenants: vec!["batch", "guest"],
        }
    }

    fn doc(run: &ToyRun) -> Json {
        let row = |(name, ns, bytes): &(&'static str, f64, f64)| {
            Json::obj([
                ("name", Json::Str(name.to_string())),
                ("ns", Json::Num(*ns)),
                ("bytes", Json::Num(*bytes)),
            ])
        };
        let tenant = |name: &&'static str| Json::obj([("name", Json::Str(name.to_string()))]);
        Json::obj([
            ("rows", Json::Arr(run.rows.iter().map(row).collect())),
            (
                "tenants",
                Json::Arr(run.tenants.iter().map(tenant).collect()),
            ),
        ])
    }

    impl<const GOLDEN: bool, const SOUND: bool> Suite for Toy<GOLDEN, SOUND> {
        const NAME: &'static str = "toy";
        const GOLDEN: Option<Render<ToyRun>> = if GOLDEN { Some(doc) } else { None };
        type Results = ToyRun;

        fn run() -> ToyRun {
            base()
        }

        fn gates(_: &ToyRun) -> GateResult {
            let broke = if SOUND {
                None
            } else {
                Some("toy gate broke".into())
            };
            verdict(vec!["toy gate holds".into()], broke.into_iter().collect())
        }

        fn table(run: &ToyRun) -> Vec<Vec<String>> {
            table(
                ["name", "ns"],
                run.rows
                    .iter()
                    .map(|(n, ns, _)| [n.to_string(), ns.to_string()]),
            )
        }
    }

    /// Renders a different document on every run.
    struct Flaky;

    impl Suite for Flaky {
        const NAME: &'static str = "flaky";
        const GOLDEN: Option<Render<ToyRun>> = Some(doc);
        type Results = ToyRun;

        fn run() -> ToyRun {
            use std::sync::atomic::{AtomicU32, Ordering};
            static RUNS: AtomicU32 = AtomicU32::new(0);
            let mut run = base();
            run.rows[0].1 += RUNS.fetch_add(1, Ordering::Relaxed) as f64;
            run
        }

        fn gates(run: &ToyRun) -> GateResult {
            Logical::gates(run)
        }

        fn table(run: &ToyRun) -> Vec<Vec<String>> {
            Logical::table(run)
        }
    }

    type Logical = Toy<true, true>;
    type Wall = Toy<false, true>;

    const PLAIN: Opts = Opts {
        check: false,
        bless: false,
        markdown: false,
    };
    const CHECK: Opts = Opts {
        check: true,
        ..PLAIN
    };
    const BLESS: Opts = Opts {
        bless: true,
        ..PLAIN
    };

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hpcc-harness-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Every file under `root` with its bytes; empty when `root` is absent.
    fn snapshot(root: &Path) -> Vec<(String, Vec<u8>)> {
        let Ok(entries) = std::fs::read_dir(root) else {
            return Vec::new();
        };
        let mut files: Vec<(String, Vec<u8>)> = entries
            .map(|entry| {
                let entry = entry.unwrap();
                let name = entry.file_name().into_string().unwrap();
                (name, std::fs::read(entry.path()).unwrap())
            })
            .collect();
        files.sort();
        files
    }

    /// What `bench toy --check` says with `golden` checked in.
    fn check_against(name: &str, golden: &ToyRun) -> Result<(), String> {
        let root = scratch(name);
        std::fs::create_dir_all(&root).unwrap();
        std::fs::write(golden_path(&root, "toy"), doc(golden).render()).unwrap();
        let verdict = drive_checked::<Logical>(&root, &CHECK);
        std::fs::remove_dir_all(&root).unwrap();
        verdict
    }

    /// The `file:` and `code:` lines of a first-difference report, trimmed.
    fn sides(why: &str) -> [&str; 2] {
        ["  file:", "  code:"].map(|side| {
            let line = why.lines().find_map(|l| l.strip_prefix(side));
            line.unwrap_or_else(|| panic!("no `{side}` line in {why}"))
                .trim()
        })
    }

    #[test]
    fn a_golden_above_the_run_is_red_because_looking_faster_is_a_change_too() {
        assert_eq!(check_against("equal", &base()), Ok(()));
        let mut slower = base();
        slower.rows[0].1 = 150.0;
        let why = check_against("faster", &slower).unwrap_err();
        assert!(why.contains("is not what the code produces"), "{why}");
        assert_eq!(sides(&why), ["\"ns\": 150", "\"ns\": 100"]);
        assert!(why.ends_with("re-bless with `bench toy --bless`"), "{why}");
        // One part in a hundred is as red as half: there is no tolerance.
        let mut near = base();
        near.rows[1].1 = 198.0;
        assert!(check_against("near", &near).is_err());
    }

    #[test]
    fn every_number_of_the_document_is_held_not_a_listed_few() {
        let mut bytes = base();
        bytes.rows[0].2 = 4097.0;
        let why = check_against("bytes", &bytes).unwrap_err();
        assert_eq!(sides(&why), ["\"bytes\": 4097,", "\"bytes\": 4096,"]);
        let mut woke = base();
        woke.rows[2].1 = 0.5;
        assert!(check_against("woke", &woke).is_err());
    }

    #[test]
    fn a_row_missing_from_any_array_is_red() {
        let mut fewer = base();
        fewer.tenants.remove(0);
        let why = check_against("tenant", &fewer).unwrap_err();
        assert_eq!(sides(&why), ["\"name\": \"guest\"", "\"name\": \"batch\""]);
        let mut fewer = base();
        fewer.rows.pop();
        assert!(check_against("row", &fewer).is_err());
    }

    #[test]
    fn bless_then_check_round_trips_through_the_files() {
        let root = scratch("bless");
        // No golden yet: --check is red (and creates nothing), --bless
        // writes exactly one file, and then --check is green.
        assert_eq!(drive::<Logical>(&root, &CHECK), 1);
        assert!(!root.exists());
        assert_eq!(drive::<Logical>(&root, &BLESS), 0);
        let golden = doc(&base()).render().into_bytes();
        assert_eq!(snapshot(&root), [("BENCH_toy.json".to_string(), golden)]);
        assert_eq!(drive::<Logical>(&root, &CHECK), 0);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn check_and_a_plain_run_leave_the_directory_as_they_found_it() {
        let root = scratch("writes");
        assert_eq!(drive::<Logical>(&root, &PLAIN), 0);
        assert!(!root.exists(), "a plain run wrote something");
        assert_eq!(drive::<Logical>(&root, &BLESS), 0);
        let blessed = snapshot(&root);
        assert_eq!(drive::<Logical>(&root, &PLAIN), 0);
        assert_eq!(drive::<Logical>(&root, &CHECK), 0);
        assert_eq!(snapshot(&root), blessed);
        // A stale golden stays as stale as it was found: red, not repaired.
        std::fs::write(golden_path(&root, "toy"), "{}\n").unwrap();
        let stale = snapshot(&root);
        assert_eq!(drive::<Logical>(&root, &CHECK), 1);
        assert_eq!(drive::<Logical>(&root, &PLAIN), 0);
        assert_eq!(snapshot(&root), stale);
        assert_eq!(drive::<Logical>(&root, &BLESS), 0);
        assert_eq!(snapshot(&root), blessed);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_missing_golden_is_red_and_names_the_bless_command() {
        let why = drive_checked::<Logical>(&scratch("missing"), &CHECK).unwrap_err();
        assert!(why.starts_with("cannot read ") && why.contains("BENCH_toy.json"));
        assert!(why.ends_with("create it with `bench toy --bless`"), "{why}");
    }

    #[test]
    fn bless_refuses_a_run_that_fails_its_own_gates() {
        let root = scratch("refuse");
        assert_eq!(drive::<Toy<true, false>>(&root, &BLESS), 1);
        assert!(!root.exists(), "a golden was written");
        // Gates run on a plain invocation and under --check too, and a
        // red gate is red whatever the golden says.
        assert_eq!(drive::<Toy<true, false>>(&root, &PLAIN), 1);
        assert_eq!(drive::<Logical>(&root, &BLESS), 0);
        assert_eq!(drive::<Toy<true, false>>(&root, &CHECK), 1);
        assert_eq!(drive::<Toy<false, false>>(&root, &CHECK), 1);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_suite_that_does_not_repeat_itself_is_never_compared_or_blessed() {
        let root = scratch("flaky");
        let why = drive_checked::<Flaky>(&root, &BLESS).unwrap_err();
        assert!(why.starts_with("two runs rendered different text"), "{why}");
        assert!(!root.exists(), "a flaky golden was written");
        let why = drive_checked::<Flaky>(&root, &CHECK).unwrap_err();
        assert!(why.contains("nondeterministic"), "{why}");
        // Printing its table is still allowed; only checking it in is not.
        assert_eq!(drive::<Flaky>(&root, &PLAIN), 0);
    }

    #[test]
    fn a_suite_that_reads_the_host_clock_has_no_golden() {
        let root = scratch("wall");
        assert_eq!(drive::<Wall>(&root, &PLAIN), 0);
        assert_eq!(drive::<Wall>(&root, &CHECK), 0);
        assert_eq!(drive::<Wall>(&root, &BLESS), 2);
        assert!(!root.exists(), "a suite without a golden wrote a file");
        // The refusal comes before the run: this would take seconds.
        assert_eq!(run(&["core".to_string(), "--bless".to_string()]), 2);
    }

    #[test]
    fn unknown_suite_or_flag_exits_2_before_running_anything() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(run(&args(&[])), 2);
        assert_eq!(run(&args(&["nope"])), 2);
        assert_eq!(run(&args(&["pipeline", "--filter"])), 2);
        assert_eq!(run(&args(&["--list", "--check"])), 2);
        assert_eq!(run(&args(&["--list"])), 0);
    }

    /// One size per suite: the flag that picked another is gone.
    #[test]
    fn quick_is_an_unknown_flag_for_every_suite() {
        for suite in SUITES {
            for flags in [&["--quick"][..], &["--check", "--quick"]] {
                let args: Vec<String> = std::iter::once(&suite.name)
                    .chain(flags)
                    .map(|arg| arg.to_string())
                    .collect();
                assert_eq!(run(&args), 2, "{args:?}");
            }
        }
    }

    /// One golden per deterministic suite and none for the wall clock: a
    /// stray `BENCH_core.json`, or a suite nobody blessed, fails here.
    #[test]
    fn root_goldens_are_exactly_the_deterministic_suites() {
        let mut files: Vec<String> = std::fs::read_dir(guard::repo_root())
            .unwrap()
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
            .collect();
        let mut expected: Vec<String> = SUITES
            .iter()
            .filter(|suite| suite.has_golden)
            .map(|suite| format!("BENCH_{}.json", suite.name))
            .collect();
        files.sort();
        expected.sort();
        assert_eq!(files, expected);
        let clocked: Vec<&str> = SUITES
            .iter()
            .filter(|suite| !suite.has_golden)
            .map(|suite| suite.name)
            .collect();
        assert_eq!(clocked, ["core"], "suites that read the host clock");
    }

    #[test]
    fn markdown_and_aligned_tables_share_rows() {
        let rows = Logical::table(&Logical::run());
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
        let mut suites: Vec<&str> = SUITES.iter().map(|suite| suite.name).collect();
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
