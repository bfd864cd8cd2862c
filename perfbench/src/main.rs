//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints host facts and every metric with its unit, then one JSON
//! result line. Exits 1 when any verdict disagrees with the workload's
//! known answers, 2 on a usage or set-up error.

use perfbench::workloads::Size;

fn main() {
    let args = match perfbench::parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", perfbench::USAGE);
            std::process::exit(2);
        }
    };
    match perfbench::bench(&args, Size::Full, &perfbench::repo_root()) {
        Ok(outcome) => {
            for line in &outcome.lines {
                println!("{line}");
            }
            println!("{}", outcome.json());
            if !outcome.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
