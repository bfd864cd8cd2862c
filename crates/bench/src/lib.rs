//! Shared plumbing for the paper-reproduction benchmarks.
//!
//! Each bench target regenerates one table or figure of the CheckFence
//! paper (see DESIGN.md §5 for the index). The helpers here select the
//! implementation/test matrix and format rows.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cf_algos::{tests, Algo, Variant};
use checkfence::{Harness, TestSpec};

/// One (implementation, test) cell of the evaluation matrix.
pub struct Workload {
    /// Implementation mnemonic (paper Table 1).
    pub algo: Algo,
    /// The harness (fenced build).
    pub harness: Harness,
    /// The symbolic test.
    pub test: TestSpec,
}

/// The default evaluation matrix: small and medium catalog tests per
/// implementation. Set `CHECKFENCE_FULL=1` to include the larger tests
/// (several minutes of solving).
pub fn workloads() -> Vec<Workload> {
    let full = std::env::var("CHECKFENCE_FULL").is_ok_and(|v| v == "1");
    let mut out = Vec::new();
    let pick = |names: &[&str]| -> Vec<TestSpec> {
        names
            .iter()
            .map(|n| tests::by_name(n).expect("catalog test"))
            .collect()
    };
    let matrix: Vec<(Algo, Vec<TestSpec>)> = vec![
        (
            Algo::Ms2,
            if full {
                pick(&["T0", "Ti2", "Tpc2", "Tpc3", "T1"])
            } else {
                pick(&["T0", "Ti2", "Tpc2"])
            },
        ),
        (
            Algo::Msn,
            if full {
                pick(&["T0", "Ti2", "Tpc2", "Tpc3"])
            } else {
                pick(&["T0", "Ti2"])
            },
        ),
        (
            Algo::Lazylist,
            if full {
                pick(&["Sac", "Sar", "Saa"])
            } else {
                pick(&["Sac"])
            },
        ),
        (
            Algo::Harris,
            if full {
                pick(&["Sac", "Sar"])
            } else {
                pick(&["Sac"])
            },
        ),
        (
            Algo::Snark,
            if full {
                pick(&["D0", "Da", "Db"])
            } else {
                pick(&["D0"])
            },
        ),
    ];
    for (algo, tests) in matrix {
        for test in tests {
            out.push(Workload {
                algo,
                harness: algo.harness(Variant::Fenced),
                test,
            });
        }
    }
    out
}

/// Formats a duration in seconds with 3 decimals.
pub fn secs(d: std::time::Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}
