//! Golden-trace maintenance for the observability layer.
//!
//! Default mode rebuilds every golden trace from scratch and fails (exit 1)
//! if any diverges from its checked-in file under `tests/goldens/` — CI
//! runs this so a timing-model change cannot land without re-blessing.
//!
//! `cargo run -p hpcc-bench --bin trace_goldens -- --bless` regenerates the
//! files after an intentional change; commit the result.

use hpcc_core::goldens::{all_goldens, bless_golden, check_golden, golden_path};

fn main() {
    let bless = std::env::args().any(|a| a == "--bless");
    let mut stale = 0;
    for golden in all_goldens() {
        if bless {
            bless_golden(&golden).expect("golden file writes");
            println!("blessed {}", golden_path(&golden.name).display());
        } else {
            match check_golden(&golden) {
                Ok(()) => println!("ok      {}", golden.name),
                Err(err) => {
                    stale += 1;
                    eprintln!("STALE   {err}\n");
                }
            }
        }
    }
    if stale > 0 {
        eprintln!("{stale} golden trace(s) out of date");
        std::process::exit(1);
    }
}
