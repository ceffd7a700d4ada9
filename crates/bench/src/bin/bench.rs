//! The one bench driver: `bench <suite> [--check] [--bless] [--markdown]
//! [--quick]` runs a suite of `hpcc_bench::harness::SUITES`, writes
//! `BENCH_<suite>.json` and enforces its gates; `bench --list` names the
//! suites. See `hpcc_bench::harness` for what each flag does.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(hpcc_bench::harness::run(&args));
}
