//! Writes the benchmark's known-answer files under `perfbench/answers/`.
//!
//! None of them comes from the engine path the benchmark measures:
//!
//! * `synth-treiber` — every synthesized shape passes on every hardware
//!   model: the fenced Treiber stack is correct, as the hand-written
//!   treiber verdicts pinned by `tests/synth_corpus.rs` state;
//! * `paper-fig10` — every fenced Table 1 implementation passes on
//!   Relaxed (the paper's result);
//! * `c11-corpus` — the `// cf: expect` pins of `corpus/c11`;
//! * `ablate-matrix` — the mutant matrices as the one-shot oracle
//!   (`Oracle::Oneshot`, a fresh checker per cell) answers them.
//!
//! ```console
//! cargo run --release --manifest-path perfbench/Cargo.toml --example known_answers
//! ```

use cf_algos::ablation::{run_ablation, subjects, Oracle};
use cf_memmodel::Mode;
use perfbench::answers::{Answers, Cell};
use perfbench::workloads::matrix_cells;

fn pass(row: String, model: &str) -> Cell {
    Cell {
        row,
        model: model.to_string(),
        verdict: "pass".into(),
        decided: true,
    }
}

fn write(name: &str, header: &str, cells: &[Cell]) {
    let path = perfbench::repo_root()
        .join("perfbench/answers")
        .join(format!("{name}.txt"));
    std::fs::write(&path, Answers::render(header, cells))
        .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    println!("{}: {} cells", path.display(), cells.len());
}

fn main() {
    let root = perfbench::repo_root();

    let treiber = cf_algos::treiber::harness(cf_algos::Variant::Fenced);
    let corpus = cf_synth::synthesize(&treiber.ops, &cf_synth::SynthBounds::new(2, 2));
    let cells: Vec<Cell> = corpus
        .tests
        .iter()
        .flat_map(|t| {
            let row = format!("{}/{}", treiber.name, t.name);
            Mode::hardware().map(|m| pass(row.clone(), m.name()))
        })
        .collect();
    write(
        "synth-treiber",
        "synth-treiber: the fenced Treiber stack passes every synthesized\n\
         shape (threads <= 2, ops <= 2, init <= 1) on every hardware model.",
        &cells,
    );

    let cells: Vec<Cell> = cf_bench::workloads()
        .iter()
        .map(|w| pass(format!("{}/{}", w.algo.name(), w.test.name), "relaxed"))
        .collect();
    write(
        "paper-fig10",
        "paper-fig10: every fenced Table 1 implementation passes on Relaxed.",
        &cells,
    );

    let entries = cf_synth::corpus::load_dir(&root.join("corpus/c11")).expect("corpus/c11 loads");
    let cells: Vec<Cell> = entries
        .iter()
        .flat_map(|e| {
            e.expects.iter().map(|x| Cell {
                row: format!("{}/{}", e.name, x.test),
                model: x.model.clone(),
                verdict: if x.pass { "pass" } else { "FAIL" }.into(),
                decided: true,
            })
        })
        .collect();
    write(
        "c11-corpus",
        "c11-corpus: the `// cf: expect` pins of corpus/c11.",
        &cells,
    );

    let mut cells = Vec::new();
    for name in subjects() {
        let outcome = run_ablation(name, &[], Oracle::Oneshot, 1).expect("oracle runs");
        for report in &outcome.reports {
            cells.extend(matrix_cells(
                &format!("{}/{}", report.harness, report.test),
                report,
            ));
        }
    }
    write(
        "ablate-matrix",
        "ablate-matrix: mutant matrices under the five built-in models as the\n\
         one-shot oracle answers them (a fresh checker per cell).\n\
         X caught, . survived, ~ bounds diverged.",
        &cells,
    );
}
