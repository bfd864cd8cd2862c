//! Fence necessity analysis.
//!
//! The paper verifies that its fence placements are "sufficient and
//! necessary for the tests" (§4.2). Sufficiency is a passing inclusion
//! check; necessity is established by deleting each fence individually
//! and checking that some test then fails. Fences are named and deleted
//! at the LSL level ([`FenceSite`]), so the analysis is independent of
//! how sources are written.

use cf_lsl::FenceSite;
use cf_memmodel::Mode;
use checkfence::{CheckError, Engine, EngineConfig, Harness, Query, TestSpec};

/// Verdict for one fence site in a [`necessity`] analysis.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NecessityVerdict {
    /// The site examined.
    pub site: FenceSite,
    /// `Some(test name)` if deleting the fence makes that test fail (or
    /// diverges its retry bounds — the livelock symptom of a missing
    /// load-load fence); `None` if every given test still passes, i.e.
    /// the fence is not exercised by these tests.
    pub broken_by: Option<String>,
}

/// The §4.2 necessity analysis: deletes each fence of `harness`
/// ([`cf_lsl::Program::fence_sites`]) individually and reports which of
/// `tests` (if any) then fails on `mode`. A placement is *necessary for
/// the tests* when every verdict has `broken_by = Some(..)`; sufficiency
/// is the fenced build passing, which callers check separately.
///
/// Specifications are mined once per test (fences are serially inert).
/// Every fence is wrapped once in a toggle site
/// ([`cf_lsl::Program::with_fence_toggles`]) and each deletion is asked
/// as an assumption, so one engine session per test answers them all.
///
/// # Errors
///
/// Propagates mining/checking failures ([`CheckError::SerialBug`] is a
/// verification result in its own right and is also propagated). A
/// check left undecided (budget, deadline, crashed worker) proves
/// nothing about the fence and is [`CheckError::Exhausted`].
pub fn necessity(
    harness: &Harness,
    tests: &[TestSpec],
    mode: Mode,
) -> Result<Vec<NecessityVerdict>, CheckError> {
    let wrapped = Harness {
        name: format!("{}+fence-toggles", harness.name),
        program: harness.program.with_fence_toggles(0),
        ..harness.clone()
    };
    let mut bases = Vec::with_capacity(tests.len());
    for t in tests {
        let spec = checkfence::mine_reference(harness, t)?.spec;
        bases.push(Query::check_inclusion(&wrapped, t, spec).on(mode));
    }
    let mut engine = Engine::new(EngineConfig::single(mode));
    let mut out = Vec::new();
    for (site, toggle) in harness.program.fence_sites().into_iter().zip(0..) {
        let mut broken_by = None;
        for (t, base) in tests.iter().zip(&bases) {
            let broken = match engine.run(&base.clone().with_toggles(&[toggle])) {
                Ok(v) => match v.inconclusive() {
                    Some(reason) => return Err(CheckError::Exhausted(reason)),
                    None => !v.passed(),
                },
                Err(CheckError::BoundsDiverged { .. }) => true,
                Err(e) => return Err(e),
            };
            if broken {
                broken_by = Some(t.name.clone());
                break;
            }
        }
        out.push(NecessityVerdict { site, broken_by });
    }
    Ok(out)
}
