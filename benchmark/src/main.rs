//! Host-time benchmark of the hpcc engine stack: five workloads, the
//! end-to-end metrics a user of the simulator sees, and a per-layer
//! ledger from a second, traced pass. `BENCHMARK.json` at the repository
//! root names every workload, metric, unit and bound; this binary reads
//! it, so the two cannot drift. See `README.md` beside this package.

mod compare;
mod gen;
mod harness;
mod json;
mod report;
mod stats;
mod suite;
mod sut;
mod trace;
mod workloads;

use std::process::ExitCode;

const USAGE: &str = "\
usage: run.sh --workload W [--seed N] [--seconds S] [--trace [0|1]]   one workload, one pass
       run.sh [--seed N] [--seconds S] [--runs K] [--out FILE]       every workload, both passes
       run.sh --aa [--seed N] [--seconds S] [--runs K]               the suite twice, compared
       run.sh compare A.json B.json                                  verdict per workload and metric
       run.sh metrics                                                every metric by name and unit";

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    runs: usize,
    out: Option<String>,
    result: Option<String>,
    aa: bool,
    positional: Vec<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seed: 42,
        runs: 1,
        ..Args::default()
    };
    let mut it = argv.iter().peekable();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--runs" => {
                args.runs = value("--runs")?
                    .parse()
                    .ok()
                    .filter(|n| (1..=50).contains(n))
                    .ok_or("--runs takes a count from 1 to 50")?
            }
            "--out" => args.out = Some(value("--out")?),
            "--result" => args.result = Some(value("--result")?),
            "--aa" => args.aa = true,
            // `--trace`, `--trace 1` and `--trace 0` are all accepted.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => args.positional.push(a.clone()),
        }
    }
    Ok(args)
}

fn dispatch(args: Args) -> Result<bool, String> {
    let spec = report::Spec::load()?;
    match args.positional.first().map(|s| s.as_str()) {
        Some("compare") => {
            let [_, a, b] = args.positional.as_slice() else {
                return Err("compare takes two result files".into());
            };
            return compare::compare_files(&spec, a, b);
        }
        Some("metrics") => {
            report::print_metric_list(&spec);
            return Ok(true);
        }
        Some(other) => return Err(format!("unknown command {other}")),
        None => {}
    }
    let seconds = args.seconds.unwrap_or(spec.run_seconds);
    if let Some(name) = &args.workload {
        if !spec.workloads.iter().any(|(w, _)| w == name) {
            return Err(format!("unknown workload {name}"));
        }
        let length = workloads::Length::Seconds(seconds);
        let pass = workloads::run_by_name(name, args.seed, length, args.trace)?;
        return report::emit(&spec, &pass, args.result.as_deref());
    }
    if args.aa {
        return suite::run_aa(&spec, args.seed, seconds, args.runs.max(3));
    }
    let out = args
        .out
        .unwrap_or_else(|| report::out_dir().join("results.json").display().to_string());
    suite::run_suite(&spec, args.seed, seconds, args.runs, &out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match parse_args(&argv).and_then(dispatch) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("hostbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn trace_flag_takes_an_optional_value() {
        assert!(args(&["--trace"]).unwrap().trace);
        assert!(args(&["--trace", "1"]).unwrap().trace);
        assert!(!args(&["--trace", "0"]).unwrap().trace);
        let a = args(&["--trace", "--seed", "7"]).unwrap();
        assert!(a.trace && a.seed == 7);
    }

    #[test]
    fn driver_command_line_parses() {
        let a = args(&[
            "--workload",
            "eager_bulk",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("eager_bulk"));
        assert_eq!((a.seed, a.seconds, a.trace), (3, Some(10.0), false));
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--bogus"]).is_err());
    }
}
