//! The one bench driver: `bench <suite> [--check] [--bless] [--markdown]`
//! runs a suite of `hpcc_bench::harness::SUITES` and enforces its gates —
//! under `--check` also exact bytes against `BENCH_<suite>.json`, which
//! only `--bless` writes; `bench --list` names the suites. See
//! `hpcc_bench::harness` for what each flag does.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(hpcc_bench::harness::run(&args));
}
