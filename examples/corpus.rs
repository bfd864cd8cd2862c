//! Drive a mini-C scenario corpus: load every entry, batch-check its
//! tests on one engine, print the Fig. 5-style coverage tables, and
//! verify every verdict the entries declare.
//!
//! Run with `cargo run --release --example corpus` for the scenario
//! corpus under `corpus/`, or point it elsewhere:
//!
//! ```console
//! cargo run --release --example corpus -- corpus/c11 --with-ordering-specs --jobs 4
//! ```
//!
//! `--with-ordering-specs` adds the `c11.cfm` / `rc11.cfm` columns the
//! ported litmus family declares verdicts on. The printed tables are
//! deterministic: CI diffs the output across `--jobs` values (and
//! across `--features faults` builds) byte for byte.

use std::path::{Path, PathBuf};

use cf_synth::corpus::load_dir;
use cf_synth::{run_corpus, CorpusConfig, CorpusVerdict};

fn main() {
    let mut dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let mut jobs = 2usize;
    let mut with_ordering_specs = false;
    let mut explain = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--jobs" => {
                let v = args.next().expect("--jobs needs a value");
                jobs = v.parse().expect("--jobs expects a positive integer");
                assert!(jobs > 0, "--jobs expects a positive integer");
            }
            "--with-ordering-specs" => with_ordering_specs = true,
            "--explain" => explain = true,
            other => {
                assert!(
                    !other.starts_with('-'),
                    "unknown flag `{other}` (expected [DIR] [--jobs N] \
                     [--with-ordering-specs] [--explain])"
                );
                dir = PathBuf::from(other);
            }
        }
    }

    let entries = load_dir(&dir).expect("corpus loads");
    println!(
        "loaded {} corpus entries from {}",
        entries.len(),
        dir.display()
    );
    let mut config = CorpusConfig {
        jobs,
        provenance: explain,
        ..CorpusConfig::default()
    };
    if with_ordering_specs {
        config.specs = vec![
            cf_spec::compile(cf_spec::bundled::C11).expect("c11.cfm compiles"),
            cf_spec::compile(cf_spec::bundled::RC11).expect("rc11.cfm compiles"),
        ];
    }
    let mut checked = 0;
    for entry in &entries {
        println!("\n== {} ({} tests)", entry.name, entry.tests.len());
        let report = run_corpus(&entry.harness, &entry.tests, &config);
        print!("{}", report.table());
        if explain {
            // The explain report is a pure function of the verdict
            // grid, so it stays byte-comparable across --jobs levels.
            print!("{}", report.explain());
            for pin in &entry.explains {
                let row = report
                    .rows
                    .iter()
                    .find(|r| r.test.name == pin.test)
                    .expect("explain names a declared test");
                let col = report
                    .model_names
                    .iter()
                    .position(|m| *m == pin.model)
                    .expect("explain names a configured model");
                let explained = row.explains[col]
                    .as_ref()
                    .expect("pinned cell carries provenance");
                for coord in &pin.fences {
                    assert!(
                        explained.contains(coord),
                        "{}: {} @ {} must mention `{coord}`",
                        entry.name,
                        pin.test,
                        pin.model
                    );
                }
            }
        }
        // The summary carries wall-clock timings; keep it off stdout so
        // the verdict tables stay byte-comparable across runs.
        eprintln!("  {}", report.summary());
        for expect in &entry.expects {
            let row = report
                .rows
                .iter()
                .find(|r| r.test.name == expect.test)
                .expect("expectation names a declared test");
            let col = report
                .model_names
                .iter()
                .position(|m| *m == expect.model)
                .expect("expectation names a configured model");
            let want = if expect.pass {
                CorpusVerdict::Pass
            } else {
                CorpusVerdict::Fail
            };
            assert_eq!(
                row.verdicts[col], want,
                "{}: {} @ {}",
                entry.name, expect.test, expect.model
            );
            checked += 1;
        }
    }
    println!("\nall {checked} declared verdicts reproduced");
}
