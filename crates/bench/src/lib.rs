//! Shared plumbing for the paper-reproduction benchmarks.
//!
//! Each bench target regenerates one table or figure of the CheckFence
//! paper (see DESIGN.md §5 for the index). The helpers here select the
//! implementation/test matrix, format rows and write the
//! `BENCH_*.json` records.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::path::PathBuf;

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

/// Writes one benchmark record and prints where it went.
///
/// The record is a JSON object holding, in order: `schema_version`
/// ([`cf_trace::SCHEMA_VERSION`]), `nproc` (the host's available
/// parallelism), `benchmark`, each of `fields` (values are raw JSON),
/// and `cases`, one pre-rendered row per line. It lands in `file` at
/// the workspace root, or at the path in `CHECKFENCE_BENCH_OUT` when
/// that is set.
pub fn write_record(file: &str, benchmark: &str, fields: &[(&str, String)], cases: &[String]) {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut json = format!(
        "{{\n  \"schema_version\": {},\n  \"nproc\": {nproc},\n  \"benchmark\": \"{benchmark}\",\n",
        cf_trace::SCHEMA_VERSION
    );
    for (key, value) in fields {
        let _ = writeln!(json, "  \"{key}\": {value},");
    }
    let _ = write!(json, "  \"cases\": [\n{}\n  ]\n}}\n", cases.join(",\n"));
    let out = std::env::var("CHECKFENCE_BENCH_OUT").map_or_else(
        |_| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join(file)
        },
        PathBuf::from,
    );
    std::fs::write(&out, json).unwrap_or_else(|e| panic!("cannot write {}: {e}", out.display()));
    println!("wrote {}", out.display());
}

#[cfg(test)]
mod record_tests {
    #[test]
    fn record_carries_schema_version_and_core_count() {
        let out = std::env::temp_dir().join(format!("cf-bench-record-{}.json", std::process::id()));
        // The only test in this binary, so the variable races with nothing.
        std::env::set_var("CHECKFENCE_BENCH_OUT", &out);
        super::write_record(
            "BENCH_unused.json",
            "demo",
            &[("seconds", "1.500".into())],
            &["    {\"a\": 1}".into(), "    {\"a\": 2}".into()],
        );
        let json = std::fs::read_to_string(&out).expect("record written");
        std::fs::remove_file(&out).ok();
        let nproc = std::thread::available_parallelism().unwrap().get();
        assert_eq!(
            json,
            format!(
                "{{\n  \"schema_version\": {},\n  \"nproc\": {nproc},\n  \"benchmark\": \"demo\",\n  \
                 \"seconds\": 1.500,\n  \"cases\": [\n    {{\"a\": 1}},\n    {{\"a\": 2}}\n  ]\n}}\n",
                cf_trace::SCHEMA_VERSION
            )
        );
    }
}
