//! The commit-point verification method — the Fig. 12 baseline.
//!
//! This is a re-implementation of the method from the authors' earlier
//! case study (Burckhardt, Alur, Martin; CAV 2006), which CheckFence's
//! observation-set method supersedes. Instead of enumerating the
//! observation set, the serial order of operations is *fixed by
//! annotation*: each operation declares its commit point (a `commit(c)`
//! marker in mini-C, attached to the preceding memory access), and the
//! specification is an abstract data type machine executed over the
//! commit order inside the same SAT formula. The whole check is then a
//! single solver call.
//!
//! The trade-offs the paper describes are visible here: the method needs
//! commit-point annotations — which some algorithms, like the lazy
//! list's `contains`, do not have (paper §5) — and an abstract machine
//! per data type shape ([`AbstractType`]; this reproduction provides a
//! FIFO queue machine, matching the queues studied in the CAV 2006
//! paper, and a LIFO stack machine for the Treiber extension).

use cf_sat::Lit;

use crate::checker::CheckError;
use crate::cnf::CnfBuilder;
use crate::encode::{EncVal, Encoding};
use crate::symexec::{ObsRole, SymExec, SymExecError};

/// The abstract data type evaluated over the commit order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AbstractType {
    /// FIFO queue: operations with an argument enqueue it; operations
    /// with a return value dequeue (0 = empty, value + 1 otherwise —
    /// the wrapper encoding of `cf-algos`).
    Queue,
    /// LIFO stack: operations with an argument push it; operations with
    /// a return value pop (0 = empty, value + 1 otherwise).
    Stack,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum AbstractOp {
    /// Insert (enqueue/push): has an argument, no return value.
    Insert,
    /// Remove (dequeue/pop): has a return value.
    Remove,
}

struct OpInfo {
    arg: Option<EncVal>,
    ret: Option<EncVal>,
    kind: AbstractOp,
    thread: usize,
    commits: Vec<(usize, Lit)>,
}

/// Builds the abstract machine over the commit order. Returns a literal
/// that is true iff some operation's concrete return value disagrees
/// with the abstract machine.
///
/// The machine's only non-definitional constraints ("every operation
/// commits exactly once") are gated behind `gate`, so the circuit can
/// live on a shared session solver without constraining other queries:
/// pass the constant-true literal for a dedicated encoding (the
/// reference oracle), or a fresh literal (assumed during commit
/// queries) on a session.
pub(crate) fn encode_abstract_machine(
    sx: &SymExec,
    enc: &mut Encoding,
    ty: AbstractType,
    gate: Lit,
) -> Result<Lit, CheckError> {
    let mut ops: Vec<OpInfo> = Vec::new();
    for op_idx in 0..sx.num_ops {
        let mut arg = None;
        let mut ret = None;
        for (i, entry) in sx.obs.iter().enumerate() {
            if entry.op != op_idx {
                continue;
            }
            match entry.role {
                ObsRole::Arg(_) => arg = Some(enc.obs[i].clone()),
                ObsRole::Ret => ret = Some(enc.obs[i].clone()),
            }
        }
        if arg.is_none() && ret.is_none() {
            continue; // the init entry point: not a test operation
        }
        let thread = sx
            .events
            .iter()
            .find(|e| e.op == op_idx)
            .map_or(0, |e| e.thread);
        let kind = if ret.is_none() {
            AbstractOp::Insert
        } else {
            AbstractOp::Remove
        };
        let commits: Vec<(usize, Lit)> = sx.commits[op_idx]
            .iter()
            .map(|(eid, cond)| (eid.index(), enc.encode_guard(sx, *cond)))
            .collect();
        if commits.is_empty() {
            return Err(CheckError::SymExec(SymExecError {
                message: format!(
                    "operation {op_idx} has no commit-point annotation \
                     (required by the commit-point method)"
                ),
            }));
        }
        ops.push(OpInfo {
            arg,
            ret,
            kind,
            thread,
            commits,
        });
    }
    let n = ops.len();
    if n == 0 {
        return Ok(enc.cnf.ff());
    }

    // Every operation commits exactly once (under `gate`).
    for op in &ops {
        let lits: Vec<Lit> = op.commits.iter().map(|&(_, l)| l).collect();
        let any = enc.cnf.or_many(&lits);
        enc.cnf.clause([!gate, any]);
        for a in 0..lits.len() {
            for b in a + 1..lits.len() {
                enc.cnf.clause([!gate, !lits[a], !lits[b]]);
            }
        }
    }

    // Commit order between operations. Same-thread operations commit in
    // program order; cross-thread pairs compare their active commit
    // events in the memory order.
    let mut commit_before = vec![vec![enc.cnf.ff(); n]; n];
    for a in 0..n {
        for b in 0..n {
            if a == b {
                continue;
            }
            if ops[a].thread == ops[b].thread {
                commit_before[a][b] = enc.cnf.constant(a < b);
                continue;
            }
            let mut cases = Vec::new();
            let ca = ops[a].commits.clone();
            let cb = ops[b].commits.clone();
            for &(e1, g1) in &ca {
                for &(e2, g2) in &cb {
                    let ord = enc.before(e1, e2);
                    let both = enc.cnf.and(g1, g2);
                    cases.push(enc.cnf.and(both, ord));
                }
            }
            commit_before[a][b] = enc.cnf.or_many(&cases);
        }
    }

    // Position counting: sel[t][a] ⇔ operation a commits t-th.
    let width = bits_for(n as u64) + 1;
    let mut sel = vec![vec![enc.cnf.ff(); n]; n];
    for a in 0..n {
        let mut pos = enc.cnf.bv_const(0, width);
        for (b, row) in commit_before.iter().enumerate() {
            if a == b {
                continue;
            }
            let mut inc = vec![enc.cnf.ff(); width];
            inc[0] = row[a];
            pos = enc.cnf.bv_add(&pos, &inc);
        }
        for (t, sel_row) in sel.iter_mut().enumerate() {
            let tconst = enc.cnf.bv_const(t as i64, width);
            sel_row[a] = enc.cnf.bv_eq(&pos, &tconst);
        }
    }

    // Execute the abstract machine (FIFO or LIFO) over the commit
    // order. State: a slot array plus a length counter. Inserts always
    // write `slots[len]`; a queue removes from `slots[0]` (shifting
    // down), a stack removes from `slots[len-1]` (no shifting).
    let vw = enc.int_width;
    let mut mismatches: Vec<Lit> = Vec::new();
    let mut slots: Vec<Vec<Lit>> = (0..n).map(|_| enc.cnf.bv_const(0, vw)).collect();
    let mut len = enc.cnf.bv_const(0, width);
    for sel_t in &sel {
        let mut is_ins = enc.cnf.ff();
        let mut arg = enc.cnf.bv_const(0, vw);
        // Abstract remove result for the current state.
        let zero_w = enc.cnf.bv_const(0, width);
        let empty = enc.cnf.bv_eq(&len, &zero_w);
        let front = match ty {
            AbstractType::Queue => slots[0].clone(),
            AbstractType::Stack => {
                // Mux `slots[len - 1]` (arbitrary when empty; the empty
                // case is selected away below).
                let mut top = enc.cnf.bv_const(0, vw);
                for (idx, slot) in slots.iter().enumerate() {
                    let c = enc.cnf.bv_const(idx as i64 + 1, width);
                    let at = enc.cnf.bv_eq(&len, &c);
                    top = enc.cnf.bv_ite(at, slot, &top);
                }
                top
            }
        };
        let one_v = enc.cnf.bv_const(1, vw);
        let front_plus = enc.cnf.bv_add(&front, &one_v);
        let zero_v = enc.cnf.bv_const(0, vw);
        let rem_result = enc.cnf.bv_ite(empty, &zero_v, &front_plus);

        for a in 0..n {
            let s = sel_t[a];
            match ops[a].kind {
                AbstractOp::Insert => {
                    is_ins = enc.cnf.or(is_ins, s);
                    let v = ops[a].arg.as_ref().expect("insert has arg").int.clone();
                    let v = resize(&mut enc.cnf, &v, vw);
                    arg = enc.cnf.bv_ite(s, &v, &arg);
                }
                AbstractOp::Remove => {
                    let r = ops[a].ret.as_ref().expect("remove has ret").int.clone();
                    let r = resize(&mut enc.cnf, &r, vw);
                    let eq = enc.cnf.bv_eq(&r, &rem_result);
                    let bad = enc.cnf.and(s, !eq);
                    mismatches.push(bad);
                }
            }
        }
        // State update.
        let mut ins_slots = slots.clone();
        for (idx, slot) in ins_slots.iter_mut().enumerate() {
            let c = enc.cnf.bv_const(idx as i64, width);
            let at = enc.cnf.bv_eq(&len, &c);
            *slot = enc.cnf.bv_ite(at, &arg, slot);
        }
        let one_w = enc.cnf.bv_const(1, width);
        let ins_len = enc.cnf.bv_add(&len, &one_w);
        let rem_slots = match ty {
            AbstractType::Queue => {
                // Shift down; the vacated top slot keeps its old value
                // (it is never selected while len stays consistent).
                let mut shifted: Vec<Vec<Lit>> = slots[1..].to_vec();
                shifted.push(slots[n - 1].clone());
                shifted
            }
            AbstractType::Stack => slots.clone(),
        };
        let dec = enc.cnf.bv_sub(&len, &one_w);
        let rem_len = enc.cnf.bv_ite(empty, &len, &dec);
        for idx in 0..n {
            slots[idx] = enc.cnf.bv_ite(is_ins, &ins_slots[idx], &rem_slots[idx]);
        }
        len = enc.cnf.bv_ite(is_ins, &ins_len, &rem_len);
    }
    Ok(enc.cnf.or_many(&mismatches))
}

fn resize(cnf: &mut CnfBuilder, bits: &[Lit], width: usize) -> Vec<Lit> {
    let mut out: Vec<Lit> = bits.iter().copied().take(width).collect();
    while out.len() < width {
        out.push(cnf.ff());
    }
    out
}

fn bits_for(n: u64) -> usize {
    (64 - n.leading_zeros() as usize).max(1)
}
