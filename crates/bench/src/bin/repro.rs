//! The paper's artefacts: `repro <name>` prints one of Tables 1–5, Figure 1
//! or Q1–Q11; `repro --list` names them; `repro --check [name...]` and
//! `repro --bless [name...]` compare or rewrite the checked-in transcripts
//! and golden traces. See `hpcc_bench::repro`.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(hpcc_bench::repro::run(&args));
}
