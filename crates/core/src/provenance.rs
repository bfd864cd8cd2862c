//! Verdict provenance: which named assumptions a verdict leaned on.
//!
//! Every session solve is driven by *named* assumption literals — model
//! selectors, toggle sites (mutants and candidate fences), per-axiom
//! gates, loop-bound flags and the query's spec-membership gate — so an
//! assumption-level unsat core ([`cf_sat::Solver::unsat_core`]) maps
//! directly back to artifacts a user can act on. A PASS becomes "this
//! proof uses *these* fences and *these* axioms"; a FAIL records the
//! assumption environment the witness execution was found under.
//!
//! Provenance is opt-in and engine-wide
//! ([`EngineConfig::provenance`](crate::query::EngineConfig::provenance)),
//! and extraction costs **zero extra solves**: the core of the decisive
//! inclusion solve is read off the solver's final-conflict analysis.
//! Optional greedy minimization ([`crate::CheckConfig::core_minimize_ticks`])
//! re-solves under its own tick budget.

use std::fmt;

/// Whether the provenance explains a proof (PASS) or a witness (FAIL).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProvenanceKind {
    /// An unsat-core explanation of a passing inclusion check: the
    /// listed artifacts are what the unsatisfiability proof leaned on.
    Proof,
    /// The assumption environment of a failing inclusion check's
    /// witness execution.
    Witness,
}

/// Structured provenance attached to a [`Verdict`](crate::query::Verdict)
/// when provenance is enabled.
///
/// All fields are derived deterministically from the decisive solve's
/// assumption core (PASS) or assumption vector (FAIL), so provenance —
/// like every report table in this codebase — is a pure function of the
/// verdict and renders byte-identically at any `--jobs` level.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Provenance {
    /// Proof or witness.
    pub kind: ProvenanceKind,
    /// The model the query ran under (a built-in mode name or a spec's
    /// `model` header).
    pub model: String,
    /// For `.cfm` spec models: the axiom labels the proof depends on
    /// (the [`cf_spec::Axiom::label`] vocabulary also used by
    /// [`Counterexample::violated_axiom`](crate::Counterexample::violated_axiom)).
    /// Empty for built-in models, whose axioms are not gated per-axiom.
    pub axioms: Vec<String>,
    /// Load-bearing *real* fences by source coordinate
    /// ([`cf_lsl::FenceSite`]: `proc#index (kind)`, or `proc#cN
    /// (fence(ord))` for a C11 fence). For a proof these are the fences whose ordering
    /// edges the unsatisfiability depends on; for a witness, the fences
    /// present in the program the witness ran against.
    pub fences: Vec<String>,
    /// Load-bearing toggle sites ([`cf_lsl::Stmt::Toggle`]: mutants or
    /// candidate fences) among the query's active toggles.
    pub toggles: Vec<u32>,
    /// The proof depends on the loop-bound-exceeded flags (i.e. on the
    /// executions being within the current unrolling bounds). Almost
    /// always `true` for programs with loops.
    pub bounds_gate: bool,
    /// The proof depends on the query's spec-membership gate (the
    /// `obs ∉ spec ∨ error` disjunct). Almost always `true`; a proof
    /// *not* using it means the formula is unsatisfiable for a deeper
    /// reason (e.g. contradictory assumptions).
    pub spec_gate: bool,
    /// Raw size of the extracted assumption core (0 for witnesses).
    pub core_size: usize,
    /// `true` if the greedy deletion-minimization pass ran to
    /// completion, making the core locally minimal (dropping any single
    /// element loses unsatisfiability). `false` when minimization was
    /// disabled or its tick budget ran dry (the core is then the
    /// unminimized — but still sound — final-conflict core).
    pub minimized: bool,
}

impl Provenance {
    /// An empty witness-environment provenance for `model`.
    pub(crate) fn witness(model: String) -> Provenance {
        Provenance {
            kind: ProvenanceKind::Witness,
            model,
            axioms: Vec::new(),
            fences: Vec::new(),
            toggles: Vec::new(),
            bounds_gate: false,
            spec_gate: false,
            core_size: 0,
            minimized: false,
        }
    }

    /// The single-line `--explain` rendering, e.g.
    /// `proof uses: fence put#0 (store-store), axiom hb (c11)`.
    pub fn summary(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        for f in &self.fences {
            parts.push(format!("fence {f}"));
        }
        for t in &self.toggles {
            parts.push(format!("toggle site {t}"));
        }
        for a in &self.axioms {
            parts.push(format!("axiom {a} ({})", self.model));
        }
        if parts.is_empty() {
            parts.push(format!("model {}", self.model));
        }
        let verb = match self.kind {
            ProvenanceKind::Proof => "proof uses",
            ProvenanceKind::Witness => "witness under",
        };
        format!("{verb}: {}", parts.join(", "))
    }
}

impl fmt::Display for Provenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.summary())?;
        if self.kind == ProvenanceKind::Proof {
            write!(
                f,
                " [core {}{}]",
                self.core_size,
                if self.minimized { ", minimal" } else { "" }
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_lists_artifacts_in_stable_order() {
        let p = Provenance {
            kind: ProvenanceKind::Proof,
            model: "c11".into(),
            axioms: vec!["hb".into()],
            fences: vec!["put#0 (store-store)".into()],
            toggles: vec![3],
            bounds_gate: true,
            spec_gate: true,
            core_size: 5,
            minimized: true,
        };
        assert_eq!(
            p.summary(),
            "proof uses: fence put#0 (store-store), toggle site 3, axiom hb (c11)"
        );
        assert_eq!(p.to_string(), format!("{} [core 5, minimal]", p.summary()));
    }

    #[test]
    fn artifact_free_provenance_falls_back_to_the_model() {
        let p = Provenance::witness("tso".into());
        assert_eq!(p.summary(), "witness under: model tso");
        assert_eq!(p.to_string(), "witness under: model tso");
    }
}
