//! Reference-implementation specification mining.
//!
//! The paper notes (§4.4) that observation sets can be computed "much more
//! efficiently by using a small, fast reference implementation" — the
//! `refset` data series in Fig. 11a. This module is that path: it
//! enumerates every interleaving of whole operations (serial executions
//! interleave operations atomically, §2.3.2 "Seriality") crossed with
//! every argument assignment, executes each schedule on the concrete LSL
//! interpreter, and collects the observation vectors.
//!
//! Because it runs the *same compiled implementation* the SAT path
//! encodes, it doubles as a differential oracle: a property test checks
//! that SAT-based serial mining and this enumeration agree.

use std::collections::BTreeSet;
use std::time::Instant;

use cf_lsl::{ExecError, Machine, Value};

use crate::checker::{CheckError, Counterexample, FailureKind, MiningResult, ObsSet, PhaseStats};
use crate::test_spec::{Harness, OpSig, TestSpec};

/// Mines the observation set of `test` by explicit enumeration of its
/// serial executions on the concrete interpreter (the paper's "refset"
/// fast path).
///
/// # Errors
///
/// [`CheckError::SerialBug`] when some serial execution raises a
/// runtime error (assertion failure, undefined-value use, bad
/// address); such an implementation has no meaningful specification.
pub fn mine_reference(harness: &Harness, test: &TestSpec) -> Result<MiningResult, CheckError> {
    crate::checker::validate_test_shape(test)?;
    let t0 = Instant::now();
    let mut stats = PhaseStats::default();

    // Resolve operations up front.
    let resolve = |key: char| -> Result<OpSig, CheckError> {
        harness.op(key).cloned().ok_or_else(|| {
            CheckError::SymExec(crate::symexec::SymExecError {
                message: format!("unknown operation key `{key}`"),
            })
        })
    };
    let init_sigs: Vec<OpSig> = test
        .init
        .iter()
        .map(|o| resolve(o.key))
        .collect::<Result<_, _>>()?;
    let thread_sigs: Vec<Vec<OpSig>> = test
        .threads
        .iter()
        .map(|t| t.iter().map(|o| resolve(o.key)).collect::<Result<_, _>>())
        .collect::<Result<_, _>>()?;

    let total_args: usize = init_sigs
        .iter()
        .chain(thread_sigs.iter().flatten())
        .map(|s| s.num_args)
        .sum();
    assert!(total_args <= 20, "too many nondeterministic arguments");

    // All interleavings of the thread operation sequences.
    let sizes: Vec<usize> = thread_sigs.iter().map(Vec::len).collect();
    let mut schedules = Vec::new();
    let mut current = Vec::new();
    enumerate_schedules(
        &sizes,
        &mut vec![0; sizes.len()],
        &mut current,
        &mut schedules,
    );

    let mut vectors = BTreeSet::new();
    for args_bits in 0u32..(1 << total_args) {
        for schedule in &schedules {
            stats.iterations += 1;
            match run_schedule(harness, &init_sigs, &thread_sigs, schedule, args_bits) {
                Ok(Some(obs)) => {
                    vectors.insert(obs);
                }
                Ok(None) => {} // infeasible (assume violated)
                Err(e) => {
                    let cx = Counterexample {
                        kind: FailureKind::SerialError,
                        obs: vec![],
                        errors: vec![e.to_string()],
                        steps: vec![],
                        model: cf_memmodel::Mode::Serial.name().to_string(),
                        violated_axiom: None,
                    };
                    return Err(CheckError::SerialBug(Box::new(cx)));
                }
            }
        }
    }
    stats.total_time = t0.elapsed();
    // Reference mining is called both from coordinators and from
    // parallel per-harness workers (synth), so it cannot claim a
    // deterministic step number — nd keeps stripped traces stable.
    cf_trace::emit_nd("mine_reference", || {
        vec![
            ("harness", cf_trace::s(harness.name.clone())),
            ("test", cf_trace::s(test.name.clone())),
            ("observations", cf_trace::u(vectors.len() as u64)),
            ("iterations", cf_trace::u(u64::from(stats.iterations))),
            ("mine_us", cf_trace::u(stats.total_time.as_micros() as u64)),
        ]
    });
    Ok(MiningResult {
        spec: ObsSet { vectors },
        stats,
    })
}

/// Recursively enumerates interleavings (sequences of thread indices).
fn enumerate_schedules(
    sizes: &[usize],
    progress: &mut Vec<usize>,
    current: &mut Vec<usize>,
    out: &mut Vec<Vec<usize>>,
) {
    if sizes.iter().zip(progress.iter()).all(|(s, p)| p >= s) {
        out.push(current.clone());
        return;
    }
    for t in 0..sizes.len() {
        if progress[t] < sizes[t] {
            progress[t] += 1;
            current.push(t);
            enumerate_schedules(sizes, progress, current, out);
            current.pop();
            progress[t] -= 1;
        }
    }
}

/// Runs one serial execution; `Ok(None)` marks an infeasible schedule
/// (an `assume` failed).
fn run_schedule(
    harness: &Harness,
    init_sigs: &[OpSig],
    thread_sigs: &[Vec<OpSig>],
    schedule: &[usize],
    args_bits: u32,
) -> Result<Option<Vec<Value>>, ExecError> {
    let mut m = Machine::new(&harness.program);
    let mut next_arg = 0u32;
    let mut take_arg = |bits: u32| {
        let v = Value::Int(i64::from(bits >> next_arg & 1));
        next_arg += 1;
        v
    };

    // Observations are recorded per operation in canonical order (init
    // first, then thread by thread); within a thread they appear in
    // program order, which a serial schedule preserves.
    if let Some(init_name) = &harness.init_proc {
        let id = harness
            .program
            .proc_id(init_name)
            .unwrap_or_else(|| panic!("missing init procedure `{init_name}`"));
        match m.call(id, &[]) {
            Ok(_) => {}
            Err(ExecError::AssumeViolated) => return Ok(None),
            Err(e) => return Err(e),
        }
    }
    let mut obs = Vec::new();
    let mut run_op = |m: &mut Machine,
                      sig: &OpSig,
                      obs: &mut Vec<Value>,
                      bits: u32|
     -> Result<bool, ExecError> {
        let id = harness
            .program
            .proc_id(&sig.proc_name)
            .unwrap_or_else(|| panic!("missing wrapper `{}`", sig.proc_name));
        let args: Vec<Value> = (0..sig.num_args).map(|_| take_arg(bits)).collect();
        obs.extend(args.iter().cloned());
        match m.call(id, &args) {
            Ok(ret) => {
                if sig.has_ret {
                    obs.push(ret.unwrap_or(Value::Undefined));
                }
                Ok(true)
            }
            Err(ExecError::AssumeViolated) => Ok(false),
            Err(e) => Err(e),
        }
    };

    for sig in init_sigs {
        if !run_op(&mut m, sig, &mut obs, args_bits)? {
            return Ok(None);
        }
    }
    // Thread observations must appear grouped by thread, not in schedule
    // order: buffer per-thread and concatenate.
    let mut per_thread: Vec<Vec<Value>> = vec![Vec::new(); thread_sigs.len()];
    let mut progress = vec![0usize; thread_sigs.len()];
    for &t in schedule {
        let sig = &thread_sigs[t][progress[t]];
        progress[t] += 1;
        if !run_op(&mut m, sig, &mut per_thread[t], args_bits)? {
            return Ok(None);
        }
    }
    for t in per_thread {
        obs.extend(t);
    }
    Ok(Some(obs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_enumeration_counts() {
        let mut out = Vec::new();
        enumerate_schedules(&[2, 2], &mut vec![0, 0], &mut Vec::new(), &mut out);
        assert_eq!(out.len(), 6, "C(4,2) interleavings");
        let mut out = Vec::new();
        enumerate_schedules(&[1, 1, 1], &mut vec![0, 0, 0], &mut Vec::new(), &mut out);
        assert_eq!(out.len(), 6, "3! interleavings");
        let mut out = Vec::new();
        enumerate_schedules(&[3], &mut vec![0], &mut Vec::new(), &mut out);
        assert_eq!(out.len(), 1);
    }
}
