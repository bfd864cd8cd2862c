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

use cf_lsl::{ExecError, Machine, ProcId, Value};

use crate::checker::{CheckError, Counterexample, FailureKind, MiningResult, ObsSet};
use crate::symexec::SymExecError;
use crate::test_spec::{Harness, OpSig, TestSpec};

/// The most nondeterministic arguments a test may have: mining runs
/// every schedule once per assignment of the arguments, so the work
/// doubles with each one.
const MAX_ARGS: usize = 20;

/// An operation resolved against the harness: its signature and its
/// wrapper procedure.
type ResolvedOp = (OpSig, ProcId);

/// Mines the observation set of `test` by explicit enumeration of its
/// serial executions on the concrete interpreter (the paper's "refset"
/// fast path).
///
/// # Errors
///
/// * [`CheckError::SerialBug`] when some serial execution raises a
///   runtime error (assertion failure, undefined-value use, bad
///   address); such an implementation has no meaningful specification;
/// * [`CheckError::SymExec`] for a harness mistake, with the message
///   the SAT path gives: an unknown operation key, a missing init or
///   wrapper procedure, or a procedure whose parameter count differs
///   from its signature;
/// * [`CheckError::BadQuery`] for a test with more than 20
///   nondeterministic arguments.
pub fn mine_reference(harness: &Harness, test: &TestSpec) -> Result<MiningResult, CheckError> {
    crate::checker::validate_test_shape(test)?;
    let t0 = Instant::now();

    // Resolve every operation and procedure up front, so a harness
    // mistake is an error before any schedule runs.
    let err = |message: String| CheckError::SymExec(SymExecError { message });
    let program = &harness.program;
    let resolve_proc = |name: &str, what: &str, args: usize| -> Result<ProcId, CheckError> {
        let id = program
            .proc_id(name)
            .ok_or_else(|| err(format!("missing {what} `{name}`")))?;
        let params = program.procedure(id).params.len();
        if params != args {
            return Err(err(format!("`{name}` expects {params} args, got {args}")));
        }
        Ok(id)
    };
    let resolve = |key: char| -> Result<ResolvedOp, CheckError> {
        let sig = harness
            .op(key)
            .cloned()
            .ok_or_else(|| err(format!("unknown operation key `{key}`")))?;
        let id = resolve_proc(&sig.proc_name, "wrapper", sig.num_args)?;
        Ok((sig, id))
    };
    let init_proc = harness
        .init_proc
        .as_deref()
        .map(|name| resolve_proc(name, "init procedure", 0))
        .transpose()?;
    let init_ops: Vec<ResolvedOp> = test
        .init
        .iter()
        .map(|o| resolve(o.key))
        .collect::<Result<_, _>>()?;
    let thread_ops: Vec<Vec<ResolvedOp>> = test
        .threads
        .iter()
        .map(|t| t.iter().map(|o| resolve(o.key)).collect::<Result<_, _>>())
        .collect::<Result<_, _>>()?;

    let total_args: usize = init_ops
        .iter()
        .chain(thread_ops.iter().flatten())
        .map(|(s, _)| s.num_args)
        .sum();
    if total_args > MAX_ARGS {
        return Err(CheckError::BadQuery(format!(
            "test `{}` has {total_args} nondeterministic arguments; reference mining \
             enumerates every assignment and supports at most {MAX_ARGS}",
            test.name
        )));
    }

    // All interleavings of the thread operation sequences.
    let sizes: Vec<usize> = thread_ops.iter().map(Vec::len).collect();
    let mut schedules = Vec::new();
    let mut current = Vec::new();
    enumerate_schedules(
        &sizes,
        &mut vec![0; sizes.len()],
        &mut current,
        &mut schedules,
    );

    let mut vectors = BTreeSet::new();
    let mut iterations = 0u64;
    for args_bits in 0u32..(1 << total_args) {
        for schedule in &schedules {
            iterations += 1;
            match run_schedule(
                harness,
                init_proc,
                &init_ops,
                &thread_ops,
                schedule,
                args_bits,
            ) {
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
    let mine_time = t0.elapsed();
    // Reference mining is called both from coordinators and from
    // parallel per-harness workers (synth), so it cannot claim a
    // deterministic step number — nd keeps stripped traces stable.
    cf_trace::emit_nd("mine_reference", || {
        vec![
            ("harness", cf_trace::s(harness.name.clone())),
            ("test", cf_trace::s(test.name.clone())),
            ("observations", cf_trace::u(vectors.len() as u64)),
            ("iterations", cf_trace::u(iterations)),
            ("mine_us", cf_trace::u(mine_time.as_micros() as u64)),
        ]
    });
    Ok(MiningResult {
        spec: ObsSet { vectors },
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

/// Runs one serial execution of the resolved init procedure, init
/// operations and thread operations; `Ok(None)` marks an infeasible
/// schedule (an `assume` failed).
fn run_schedule(
    harness: &Harness,
    init_proc: Option<ProcId>,
    init_ops: &[ResolvedOp],
    thread_ops: &[Vec<ResolvedOp>],
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
    if let Some(id) = init_proc {
        match m.call(id, &[]) {
            Ok(_) => {}
            Err(ExecError::AssumeViolated) => return Ok(None),
            Err(e) => return Err(e),
        }
    }
    let mut obs = Vec::new();
    let mut run_op = |m: &mut Machine,
                      (sig, id): &ResolvedOp,
                      obs: &mut Vec<Value>,
                      bits: u32|
     -> Result<bool, ExecError> {
        let args: Vec<Value> = (0..sig.num_args).map(|_| take_arg(bits)).collect();
        obs.extend(args.iter().cloned());
        match m.call(*id, &args) {
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

    for op in init_ops {
        if !run_op(&mut m, op, &mut obs, args_bits)? {
            return Ok(None);
        }
    }
    // Thread observations must appear grouped by thread, not in schedule
    // order: buffer per-thread and concatenate.
    let mut per_thread: Vec<Vec<Value>> = vec![Vec::new(); thread_ops.len()];
    let mut progress = vec![0usize; thread_ops.len()];
    for &t in schedule {
        let op = &thread_ops[t][progress[t]];
        progress[t] += 1;
        if !run_op(&mut m, op, &mut per_thread[t], args_bits)? {
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

    fn mailbox(put: OpSig, init_proc: Option<&str>) -> Harness {
        let program = cf_minic::compile(
            r#"
            int data; int flag;
            void put(int v) { data = v + 1; flag = 1; }
            int get() { int f = flag; if (f == 0) { return 0 - 1; } return data; }
            "#,
        )
        .expect("compiles");
        let get = OpSig {
            key: 'g',
            proc_name: "get".into(),
            num_args: 0,
            has_ret: true,
        };
        Harness {
            name: "mailbox".into(),
            program,
            init_proc: init_proc.map(str::to_string),
            ops: vec![put, get],
        }
    }

    fn put(proc_name: &str, num_args: usize) -> OpSig {
        OpSig {
            key: 'p',
            proc_name: proc_name.into(),
            num_args,
            has_ret: false,
        }
    }

    fn mining_error(harness: &Harness, test: &str) -> String {
        let test = TestSpec::parse("T", test).expect("parses");
        match mine_reference(harness, &test) {
            Err(e) => e.to_string(),
            Ok(r) => panic!("mined {} observations", r.spec.len()),
        }
    }

    #[test]
    fn harness_mistakes_are_errors_not_panics() {
        let pg = "( p | g )";
        for (harness, test, expected) in [
            (
                mailbox(put("nosuch", 1), None),
                pg,
                "missing wrapper `nosuch`",
            ),
            (
                mailbox(put("put", 1), Some("nosuch")),
                pg,
                "missing init procedure `nosuch`",
            ),
            (
                mailbox(put("put", 0), None),
                pg,
                "`put` expects 1 args, got 0",
            ),
            (
                mailbox(put("put", 1), None),
                &format!("( {} | g )", "p".repeat(22)),
                "22 nondeterministic arguments",
            ),
        ] {
            let msg = mining_error(&harness, test);
            assert!(msg.contains(expected), "{msg}");
        }
        // The same harness mines once the mistakes are gone.
        let test = TestSpec::parse("T", pg).expect("parses");
        assert!(mine_reference(&mailbox(put("put", 1), None), &test).is_ok());
    }

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
