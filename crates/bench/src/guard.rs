//! The exact-bytes guard shared by both drivers.
//!
//! Everything this crate checks in — `BENCH_*.json` documents in logical
//! DES time, experiment transcripts — admits no noise: two full runs must
//! render byte-identical text, or something nondeterministic (hash-map
//! iteration order, ambient entropy, a data race in a worker pool) crept
//! into the model; and the text must be the checked-in file, byte for
//! byte, or the model changed without a re-bless. Each driver used to
//! carry its own copy of both checks; these are the ones they all call.

use std::path::Path;

/// The repository root, which every checked-in artefact is resolved
/// against.
pub(crate) fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

/// Run twice and insist both runs render the same text.
///
/// Returns the first run's results; on divergence, the error says where
/// the two renders first disagree.
pub(crate) fn deterministic_runs<R>(
    run: impl Fn() -> R,
    render: impl Fn(&R) -> String,
) -> Result<R, String> {
    let results = run();
    let (first, second) = (render(&results), render(&run()));
    if first == second {
        return Ok(results);
    }
    Err(format!(
        "two runs rendered different text — the model is nondeterministic\n{}",
        first_difference(&first, &second, ["run 1", "run 2"])
    ))
}

/// The compare half of compare-or-bless: `fresh`, just generated, against
/// the checked-in file at `path`. The error says where the two first
/// disagree — or that the file is missing — and names `bless`, the
/// command that rewrites it.
pub(crate) fn matches_checked_in(path: &Path, fresh: &str, bless: &str) -> Result<(), String> {
    let file = std::fs::read_to_string(path).map_err(|e| {
        format!(
            "cannot read {} ({e}); create it with `{bless}`",
            path.display()
        )
    })?;
    if file == fresh {
        return Ok(());
    }
    Err(format!(
        "{} is not what the code produces\n{}\nif intentional, re-bless with `{bless}`",
        path.display(),
        first_difference(&file, fresh, ["file", "code"])
    ))
}

/// Where two differing texts first disagree, one `label: line` row per
/// side; a side that ran out of lines reads `<end of text>`.
pub(crate) fn first_difference(a: &str, b: &str, labels: [&str; 2]) -> String {
    let (mut left, mut right) = (a.lines(), b.lines());
    for n in 1.. {
        match (left.next(), right.next()) {
            (None, None) => break,
            (l, r) if l == r => {}
            (l, r) => {
                let end = "<end of text>";
                return format!(
                    "first difference at line {n}:\n  {}: {}\n  {}: {}",
                    labels[0],
                    l.unwrap_or(end),
                    labels[1],
                    r.unwrap_or(end)
                );
            }
        }
    }
    format!(
        "the texts differ only in line endings ({} vs {} bytes)",
        a.len(),
        b.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn identical_runs_pass_through() {
        let results = deterministic_runs(|| 42u64, |r| format!("{r}\n")).unwrap();
        assert_eq!(results, 42);
    }

    #[test]
    fn diverging_runs_are_refused_with_the_first_differing_line() {
        let calls = Cell::new(0);
        let run = || {
            calls.set(calls.get() + 1);
            calls.get()
        };
        let err = deterministic_runs(run, |n| format!("header\nrun {n}\n")).unwrap_err();
        assert!(err.contains("nondeterministic"), "{err}");
        assert!(err.contains("first difference at line 2:"), "{err}");
        assert!(err.contains("run 1: run 1") && err.contains("run 2: run 2"));
    }

    #[test]
    fn checked_in_text_must_match_byte_for_byte() {
        let path = std::env::temp_dir().join(format!("hpcc-guard-{}.txt", std::process::id()));
        std::fs::write(&path, "a 1\nb 2\n").unwrap();
        assert_eq!(
            matches_checked_in(&path, "a 1\nb 2\n", "tool --bless"),
            Ok(())
        );
        let why = matches_checked_in(&path, "a 1\nb 3\n", "tool --bless").unwrap_err();
        let expected = format!(
            "{} is not what the code produces\nfirst difference at line 2:\n  \
             file: b 2\n  code: b 3\nif intentional, re-bless with `tool --bless`",
            path.display()
        );
        assert_eq!(why, expected);
        // A lost trailing newline has no differing line but is a difference.
        let why = matches_checked_in(&path, "a 1\nb 2", "tool --bless").unwrap_err();
        assert!(
            why.contains("differ only in line endings (8 vs 7 bytes)"),
            "{why}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_missing_checked_in_file_names_the_command_that_creates_it() {
        let path = std::env::temp_dir().join(format!("hpcc-guard-{}-none", std::process::id()));
        let why = matches_checked_in(&path, "text\n", "tool --bless").unwrap_err();
        assert!(
            why.starts_with(&format!("cannot read {} (", path.display())),
            "{why}"
        );
        assert!(why.ends_with("; create it with `tool --bless`"), "{why}");
    }

    #[test]
    fn a_text_that_ends_early_is_a_difference() {
        let diff = first_difference("a\nb\n", "a\n", ["file", "code"]);
        assert_eq!(
            diff,
            "first difference at line 2:\n  file: b\n  code: <end of text>"
        );
        assert!(first_difference("a\n", "a", ["file", "code"]).contains("line endings"));
    }
}
