//! Fig. 11-style ablation studies over the bundled data types.
//!
//! The paper validates the checker itself by mutating the studied
//! implementations — deleting the fences it derived, weakening their
//! kinds, reordering adjacent operations — and confirming that every
//! injected bug is caught. This driver reproduces those experiments on
//! the batched mutation engine ([`checkfence::mutate`]): one
//! [`CheckSession`](checkfence::CheckSession) encoding per (subject,
//! test) answers the whole mutant × model matrix through assumptions,
//! under all five built-in models *and* any user `.cfm` specs supplied.
//!
//! ```no_run
//! use cf_algos::ablation::{run_ablation, Oracle};
//!
//! let outcome = run_ablation("treiber", &[], Oracle::Session, 1).expect("runs");
//! for report in &outcome.reports {
//!     println!("{}", report.table());
//!     assert_eq!(report.encodes, 1, "one encoding per matrix");
//! }
//! ```

use cf_memmodel::Mode;
use cf_spec::ModelSpec;
use checkfence::mutate::{
    run_mutation_matrix, run_mutation_matrix_oneshot, MatrixConfig, MutationConfig, MutationPlan,
    MutationReport,
};
use checkfence::{CheckError, Harness, TestSpec};

use crate::{lazylist, ms2, msn, tests, treiber, Variant};

/// Which checking path answers the matrix.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Oracle {
    /// One incremental session, mutants selected by assumptions (the
    /// batched engine).
    Session,
    /// A fresh one-shot checker per (mutant, model) cell — the paper's
    /// naive protocol, kept as the equivalence/benchmark baseline.
    Oneshot,
}

/// An ablation subject: a fenced build plus the tests and the mutation
/// scope the matrix runs over.
pub struct Subject {
    /// The fenced harness.
    pub harness: Harness,
    /// Catalog tests checked (small ones — every mutant is checked under
    /// every model for each test).
    pub tests: Vec<TestSpec>,
    /// The mutation scope (procedures of the algorithm proper).
    pub mutation: MutationConfig,
}

/// The subjects [`run_ablation`] knows, in report order.
pub fn subjects() -> [&'static str; 4] {
    ["treiber", "ms2", "msn", "lazylist"]
}

/// Builds an ablation subject by mnemonic (see [`subjects`]).
pub fn subject(name: &str) -> Option<Subject> {
    let pick = |names: &[&str]| -> Vec<TestSpec> {
        names
            .iter()
            .map(|n| tests::by_name(n).expect("catalog test"))
            .collect()
    };
    let scoped = |procs: &[&str]| MutationConfig {
        procs: Some(procs.iter().map(ToString::to_string).collect()),
    };
    match name {
        "treiber" => Some(Subject {
            harness: treiber::harness(Variant::Fenced),
            tests: pick(&["U0"]),
            mutation: scoped(&["push", "pop"]),
        }),
        "ms2" => Some(Subject {
            harness: ms2::harness(Variant::Fenced),
            tests: pick(&["T0"]),
            mutation: scoped(&["enqueue", "dequeue"]),
        }),
        "msn" => Some(Subject {
            harness: msn::harness(Variant::Fenced),
            tests: pick(&["T0"]),
            mutation: scoped(&["enqueue", "dequeue"]),
        }),
        "lazylist" => Some(Subject {
            harness: lazylist::harness(lazylist::Build::Fixed),
            tests: pick(&["Sac"]),
            mutation: scoped(&["add", "contains"]),
        }),
        _ => None,
    }
}

/// The result of one ablation run: a Fig. 11-style mutant matrix per
/// test.
pub struct AblationOutcome {
    /// Subject mnemonic.
    pub name: String,
    /// One report per test of the subject.
    pub reports: Vec<MutationReport>,
}

/// Why an ablation run failed.
#[derive(Debug)]
pub enum AblationError {
    /// The subject mnemonic is not in [`subjects`].
    UnknownSubject(String),
    /// The underlying checker failed.
    Check(CheckError),
}

impl std::fmt::Display for AblationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AblationError::UnknownSubject(n) => {
                write!(
                    f,
                    "unknown ablation subject `{n}` (expected one of {:?})",
                    subjects()
                )
            }
            AblationError::Check(e) => write!(f, "checker error during ablation: {e}"),
        }
    }
}

impl std::error::Error for AblationError {}

impl From<CheckError> for AblationError {
    fn from(e: CheckError) -> Self {
        AblationError::Check(e)
    }
}

/// Runs the full mutant matrix of one subject under every built-in
/// model plus the given declarative specs, one report per catalog test.
/// `jobs` is the engine's [`MatrixConfig::jobs`]; each matrix is one
/// session, so verdicts and session counts are identical at any job
/// count.
///
/// # Errors
///
/// [`AblationError::UnknownSubject`] for a bad mnemonic; checker errors
/// otherwise (per-cell bound divergence is a verdict, not an error).
pub fn run_ablation(
    name: &str,
    specs: &[ModelSpec],
    oracle: Oracle,
    jobs: usize,
) -> Result<AblationOutcome, AblationError> {
    let subject = subject(name).ok_or_else(|| AblationError::UnknownSubject(name.to_string()))?;
    let config = MatrixConfig {
        modes: Mode::all().to_vec(),
        specs: specs.to_vec(),
        jobs,
        ..MatrixConfig::default()
    };
    let plan = MutationPlan::build(&subject.harness.program, &subject.mutation);
    let mut reports = Vec::with_capacity(subject.tests.len());
    for test in &subject.tests {
        let report = match oracle {
            Oracle::Session => run_mutation_matrix(&subject.harness, test, &plan, &config)?,
            Oracle::Oneshot => run_mutation_matrix_oneshot(&subject.harness, test, &plan, &config)?,
        };
        reports.push(report);
    }
    Ok(AblationOutcome {
        name: name.to_string(),
        reports,
    })
}

#[cfg(test)]
mod tests_mod {
    use super::*;

    #[test]
    fn every_subject_resolves_and_plans_mutants() {
        for name in subjects() {
            let s = subject(name).expect("known subject");
            let plan = MutationPlan::build(&s.harness.program, &s.mutation);
            assert!(
                !plan.points.is_empty(),
                "{name}: the mutation planner found nothing to mutate"
            );
        }
        assert!(subject("nope").is_none());
    }
}
