//! The paper's artefacts behind one driver. `repro <name>` prints one of
//! [`EXPERIMENTS`] — Tables 1–5, Figure 1, the quantitative claims
//! Q1–Q11 — and `repro --check` / `repro --bless` walk one list of every
//! checked-in text artefact: the transcript of each experiment
//! (`tests/repro/<name>.txt`, exactly the bytes `repro <name>` prints) and
//! the golden traces of [`hpcc_core::goldens`]. The `repro` binary is
//! [`run`].

use crate::guard;
use hpcc_core::goldens::{self, Golden};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

mod fig1;
mod quant1;
mod quant10;
mod quant11;
mod quant2;
mod quant3;
mod quant4;
mod quant5;
mod quant6;
mod quant7;
mod quant8;
mod quant9;
mod table1;
mod table2;
mod table3;
mod table4;
mod table5;

/// Prints an artefact; all output goes to the writer.
pub type Run = fn(&mut dyn Write) -> io::Result<()>;

/// One artefact of the survey and the code that regenerates it.
pub struct Experiment {
    /// Name on the command line and stem of the transcript file.
    pub name: &'static str,
    /// Where the artefact stands in the paper.
    pub paper: &'static str,
    /// The only way the experiment is invoked.
    pub run: Run,
}

const fn experiment(name: &'static str, paper: &'static str, run: Run) -> Experiment {
    Experiment { name, paper, run }
}

/// Every artefact `repro` regenerates, in paper order.
pub const EXPERIMENTS: [Experiment; 17] = [
    experiment("table1", "Table 1", table1::run),
    experiment("table2", "Table 2", table2::run),
    experiment("table3", "Table 3", table3::run),
    experiment("table4", "Table 4", table4::run),
    experiment("table5", "Table 5", table5::run),
    experiment("fig1", "Figure 1 (§6.5)", fig1::run),
    experiment("quant1", "§4.1.2", quant1::run),
    experiment("quant2", "§3.2, §4.1.4", quant2::run),
    experiment("quant3", "§4.1.2", quant3::run),
    experiment("quant4", "§6.6", quant4::run),
    experiment("quant5", "§5.1.3", quant5::run),
    experiment("quant6", "§3.1", quant6::run),
    experiment("quant7", "§4", quant7::run),
    experiment("quant8", "§7", quant8::run),
    experiment("quant9", "§3.2", quant9::run),
    experiment("quant10", "§7", quant10::run),
    experiment("quant11", "§6.1, §6.6 at site scale", quant11::run),
];

/// What `repro <name>` prints. An experiment is rendered twice and must
/// repeat itself: text that varies between runs can be neither compared
/// nor checked in.
fn transcript(exp: &Experiment) -> Result<String, String> {
    let render = || {
        let mut text = Vec::new();
        (exp.run)(&mut text).expect("writing to memory cannot fail");
        String::from_utf8(text).expect("experiments print UTF-8")
    };
    guard::deterministic_runs(render, String::clone).map_err(|e| format!("{}: {e}", exp.name))
}

/// One checked-in text artefact.
enum Artefact<'a> {
    /// `tests/repro/<name>.txt`: exactly the bytes `repro <name>` prints.
    Transcript(&'a Experiment),
    /// `tests/goldens/<name>.tsv`: a span trace of [`hpcc_core::goldens`].
    Trace(Golden),
}

impl Artefact<'_> {
    fn name(&self) -> &str {
        match self {
            Artefact::Transcript(exp) => exp.name,
            Artefact::Trace(golden) => &golden.name,
        }
    }

    fn path(&self, root: &Path) -> PathBuf {
        match self {
            Artefact::Transcript(exp) => root.join(format!("tests/repro/{}.txt", exp.name)),
            Artefact::Trace(golden) => goldens::golden_path(&golden.name),
        }
    }

    /// Rebuild the artefact and compare it with its checked-in file.
    fn check(&self, root: &Path) -> Result<(), String> {
        let exp = match self {
            Artefact::Transcript(exp) => exp,
            Artefact::Trace(golden) => return goldens::check_golden(golden),
        };
        let name = exp.name;
        let bless = format!("repro --bless {name}");
        guard::matches_checked_in(&self.path(root), &transcript(exp)?, &bless)
            .map_err(|e| format!("{name}: {e}"))
    }

    /// Rebuild the artefact and overwrite its checked-in file.
    fn bless(&self, root: &Path) -> Result<(), String> {
        let path = self.path(root);
        let written = match self {
            Artefact::Transcript(exp) => {
                let text = transcript(exp)?;
                let dir = path.parent().expect("transcript paths have a parent");
                std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, text))
            }
            Artefact::Trace(golden) => goldens::bless_golden(golden),
        };
        written.map_err(|e| format!("{}: cannot write {} ({e})", self.name(), path.display()))
    }
}

/// `repro` over `experiments` and `traces`, with transcripts under `root`
/// and everything printed to `out`; returns the process exit code (0 ok,
/// 1 an artefact is stale or does not repeat itself, 2 bad arguments).
pub fn drive(
    experiments: &[Experiment],
    traces: Vec<Golden>,
    root: &Path,
    args: &[String],
    out: &mut dyn Write,
) -> io::Result<i32> {
    let names: Vec<&str> = experiments.iter().map(|e| e.name).collect();
    let (bless, picked) = match args {
        [flag, picked @ ..] if flag == "--check" || flag == "--bless" => {
            (flag == "--bless", picked)
        }
        [flag] if flag == "--list" => {
            for exp in experiments {
                writeln!(out, "{:<8} {}", exp.name, exp.paper)?;
            }
            return Ok(0);
        }
        [name] => {
            let Some(exp) = experiments.iter().find(|e| e.name == name) else {
                let known = names.join(", ");
                eprintln!("repro: unknown experiment `{name}` (one of {known})");
                return Ok(2);
            };
            return (exp.run)(out).map(|()| 0);
        }
        _ => {
            eprintln!(
                "usage: repro <{}>\n       repro --list\n       \
                 repro --check [name...]\n       repro --bless [name...]",
                names.join("|")
            );
            return Ok(2);
        }
    };

    let transcripts = experiments.iter().map(Artefact::Transcript);
    let artefacts: Vec<Artefact> = transcripts
        .chain(traces.into_iter().map(Artefact::Trace))
        .collect();
    let known: Vec<&str> = artefacts.iter().map(Artefact::name).collect();
    if let Some(bad) = picked.iter().find(|name| !known.contains(&name.as_str())) {
        let known = known.join(", ");
        eprintln!("repro: unknown artefact `{bad}` (one of {known})");
        return Ok(2);
    }
    let (mode, verb) = if bless {
        ("--bless", "blessed")
    } else {
        ("--check", "ok     ")
    };
    let (mut done, mut failed) = (0, 0);
    for artefact in &artefacts {
        if !picked.is_empty() && picked.iter().all(|name| name != artefact.name()) {
            continue;
        }
        let verdict = if bless {
            artefact.bless(root)
        } else {
            artefact.check(root)
        };
        match verdict {
            Ok(()) => {
                done += 1;
                writeln!(out, "{verb} {}", artefact.name())?;
            }
            Err(why) => {
                failed += 1;
                eprintln!("FAIL    {why}\n");
            }
        }
    }
    if failed > 0 {
        eprintln!("repro {mode}: {failed} artefact(s) failed, {done} ok");
        return Ok(1);
    }
    writeln!(out, "repro {mode}: {done} artefact(s) ok")?;
    Ok(0)
}

/// The `repro` binary: `repro <name>`, `repro --list`, `repro --check
/// [name...]` or `repro --bless [name...]`. Returns the process exit code.
pub fn run(args: &[String]) -> i32 {
    let out = &mut io::stdout().lock();
    drive(
        &EXPERIMENTS,
        goldens::all_goldens(),
        guard::repo_root(),
        args,
        out,
    )
    .unwrap_or_else(|e| {
        eprintln!("repro: {e}");
        1
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn args(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| s.to_string()).collect()
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hpcc-repro-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn steady(out: &mut dyn Write) -> io::Result<()> {
        writeln!(out, "toy table\nrow 1\nrow 2")
    }

    fn other(out: &mut dyn Write) -> io::Result<()> {
        writeln!(out, "toy figure")
    }

    /// Prints a different number on every call.
    fn flaky(out: &mut dyn Write) -> io::Result<()> {
        static CALLS: AtomicU32 = AtomicU32::new(0);
        writeln!(out, "call {}", CALLS.fetch_add(1, Ordering::Relaxed))
    }

    /// `repro` over a toy registry with no traces; output discarded.
    fn toy(registry: &[Experiment], root: &Path, a: &[&str]) -> i32 {
        drive(registry, Vec::new(), root, &args(a), &mut io::sink()).unwrap()
    }

    /// DESIGN.md's experiment index is this list: the seventeen artefacts in
    /// paper order, each with a transcript and no transcript without one.
    #[test]
    fn registry_is_the_paper_index() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        let tables = (1..=5).map(|n| format!("table{n}"));
        let quants = (1..=11).map(|n| format!("quant{n}"));
        let paper: Vec<String> = tables.chain(["fig1".to_string()]).chain(quants).collect();
        assert_eq!(names, paper);
        let mut files: Vec<String> = std::fs::read_dir(guard::repo_root().join("tests/repro"))
            .unwrap()
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .collect();
        let mut expected: Vec<String> = names.iter().map(|n| format!("{n}.txt")).collect();
        files.sort();
        expected.sort();
        assert_eq!(files, expected, "tests/repro holds one file per experiment");
    }

    #[test]
    fn check_goes_red_on_one_flipped_byte_and_bless_repairs_it() {
        let root = scratch("flip");
        let registry = [
            experiment("steady", "Table 0", steady),
            experiment("other", "Figure 0", other),
        ];
        // Nothing checked in yet: red, and --bless creates both files.
        assert_eq!(toy(&registry, &root, &["--check"]), 1);
        assert_eq!(toy(&registry, &root, &["--bless"]), 0);
        assert_eq!(toy(&registry, &root, &["--check"]), 0);
        let path = Artefact::Transcript(&registry[0]).path(&root);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "toy table\nrow 1\nrow 2\n"
        );

        std::fs::write(&path, "toy table\nrow 7\nrow 2\n").unwrap();
        assert_eq!(toy(&registry, &root, &["--check"]), 1);
        assert_eq!(toy(&registry, &root, &["--check", "other"]), 0);
        let why = Artefact::Transcript(&registry[0]).check(&root).unwrap_err();
        assert!(why.starts_with("steady: ") && why.contains("is not what the code produces"));
        assert!(
            why.ends_with("re-bless with `repro --bless steady`"),
            "{why}"
        );
        assert!(
            why.contains("line 2:\n  file: row 7\n  code: row 1"),
            "{why}"
        );

        assert_eq!(toy(&registry, &root, &["--bless", "steady"]), 0);
        assert_eq!(toy(&registry, &root, &["--check"]), 0);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn an_experiment_that_does_not_repeat_itself_is_refused() {
        let root = scratch("flaky");
        let registry = [
            experiment("steady", "Table 0", steady),
            experiment("flaky", "§0", flaky),
        ];
        assert_eq!(toy(&registry, &root, &["--bless"]), 1);
        let [steady, flaky] = registry.each_ref().map(Artefact::Transcript);
        assert!(steady.path(&root).exists());
        assert!(
            !flaky.path(&root).exists(),
            "a flaky transcript was written"
        );
        assert_eq!(toy(&registry, &root, &["--check", "flaky"]), 1);
        let why = transcript(&registry[1]).unwrap_err();
        assert!(why.starts_with("flaky: two runs rendered different text"));
        // Printing it is still allowed; only checking it in is not.
        assert_eq!(toy(&registry, &root, &["flaky"]), 0);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn bad_arguments_exit_2_before_running_anything() {
        let root = Path::new("/nonexistent");
        let registry = [experiment("steady", "Table 0", steady)];
        for bad in [
            &[][..],
            &["nope"],
            &["--filter"],
            &["steady", "steady"],
            &["--list", "steady"],
            &["--check", "nope"],
            &["--bless", "nope"],
        ] {
            assert_eq!(toy(&registry, root, bad), 2, "{bad:?}");
        }
        let mut listed = Vec::new();
        let code = drive(&registry, Vec::new(), root, &args(&["--list"]), &mut listed);
        assert_eq!(code.unwrap(), 0);
        assert_eq!(String::from_utf8(listed).unwrap(), "steady   Table 0\n");
    }

    /// Tier-1 alone notices a stale transcript: one cheap real experiment
    /// against its checked-in file.
    #[test]
    fn table5_matches_its_transcript() {
        let table5 = EXPERIMENTS.iter().find(|e| e.name == "table5").unwrap();
        let mut printed = Vec::new();
        (table5.run)(&mut printed).unwrap();
        let file = std::fs::read(Artefact::Transcript(table5).path(guard::repo_root())).unwrap();
        assert!(printed == file, "tests/repro/table5.txt is stale");
    }
}
