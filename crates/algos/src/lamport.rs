//! `lamport` — Lamport's single-producer single-consumer bounded queue
//! (a ring buffer with independent head/tail indices), as a seventh
//! data type beyond the paper's Table 1.
//!
//! Unlike the five studied algorithms and the Treiber stack, this one
//! synchronizes without any atomic read-modify-write at all: the
//! producer owns `tail`, the consumer owns `head`, and correctness
//! rests purely on the *order* of plain loads and stores — which makes
//! it the sharpest memory-model probe in the collection, and the only
//! algorithm here whose repair needs a **load-store** fence (the five
//! paper algorithms needed only load-load and store-store, §4.2):
//!
//! * **producer publish** (store-store): the slot write must precede
//!   the `tail` bump, or the consumer dequeues garbage;
//! * **consumer read-before-release** (load-store): the slot read must
//!   precede the `head` bump, or the producer can reuse the slot and
//!   overwrite the value while it is still being read;
//! * **consumer index/data order** (load-load): the `tail` read must
//!   precede the slot read for the same reason as in msn's load
//!   sequences;
//! * **producer check-before-store** (load-store): the full-check loads
//!   must precede the slot store. This fence is *inter-operation*: on
//!   Relaxed, load→store reordering lets a thread's second `enqueue`
//!   overtake its first one wholesale, making the first report "full"
//!   on an empty queue — an observation no serial execution justifies.
//!   Fences constrain the whole thread, not one operation, so the fence
//!   inside the operation also orders the *previous* call's loads;
//! * **producer head-load coherence** (load-load, at `enqueue` entry):
//!   the paper's Relaxed relaxes even same-address load-load order
//!   (relaxation 4, Alpha-style), so a later `enqueue` may read an
//!   *older* `head` than its predecessor and overfill the ring across
//!   the wrap-around. Real machines guarantee per-location coherence;
//!   on this model an explicit fence is needed.
//!
//! The buffer has `SIZE = 2` slots and usable capacity 1, keeping the
//! wrap-around path (`if (n == 2) n = 0;` — mini-C has no `%`) within
//! reach of small bounded tests: slot 0 is already reused by the third
//! enqueue.

use cf_lsl::FenceKind;
use checkfence::Harness;

use crate::{build, compile_harness, spsc_ops, with_fences, Variant};

/// The fenced mini-C source with the full placement (see module docs).
pub const SOURCE: &str = r#"
typedef struct queue {
    int buf[2];
    int head;
    int tail;
} queue_t;

queue_t q;

void init_queue() {
    q.head = 0;
    q.tail = 0;
}

bool enqueue(int value) {
    fence("load-load");
    int t = q.tail;
    int h = q.head;
    int n = t + 1;
    if (n == 2) { n = 0; }
    if (n == h) {
        commit(1);
        return false;
    }
    fence("load-store");
    q.buf[t] = value;
    fence("store-store");
    q.tail = n;
    commit(1);
    return true;
}

bool dequeue(int *pvalue) {
    int h = q.head;
    int t = q.tail;
    if (h == t) {
        commit(1);
        return false;
    }
    fence("load-load");
    *pvalue = q.buf[h];
    int n = h + 1;
    if (n == 2) { n = 0; }
    fence("load-store");
    q.head = n;
    commit(1);
    return true;
}

int enqueue_op(int v) {
    bool ok = enqueue(v);
    if (ok) { return 1; }
    return 0;
}

int dequeue_op() {
    int v;
    bool ok = dequeue(&v);
    if (ok) { return v + 1; }
    return 0;
}
"#;

/// Builds the checkable harness. `enqueue_op` observes its argument and
/// returns 1 (accepted) or 0 (full); `dequeue_op` returns 0 for "empty"
/// and `value + 1` otherwise.
pub fn harness(variant: Variant) -> Harness {
    build(
        compile_harness("lamport", SOURCE, "init_queue", spsc_ops()),
        variant,
    )
}

/// Builds a harness keeping only the selected fence kinds.
pub fn harness_with_kinds(load_load: bool, store_store: bool, load_store: bool) -> Harness {
    let name = format!(
        "lamport{}{}{}",
        if load_load { "+ll" } else { "" },
        if store_store { "+ss" } else { "" },
        if load_store { "+ls" } else { "" },
    );
    with_fences(
        harness(Variant::Fenced),
        name,
        &[
            (FenceKind::LoadLoad, load_load),
            (FenceKind::StoreStore, store_store),
            (FenceKind::LoadStore, load_store),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_lsl::{Machine, Value};

    #[test]
    fn sources_compile() {
        harness(Variant::Fenced);
        harness(Variant::Unfenced);
        harness_with_kinds(false, true, false);
    }

    #[test]
    fn sequential_capacity_one_fifo() {
        let h = harness(Variant::Fenced);
        let p = &h.program;
        let mut m = Machine::new(p);
        m.call(p.proc_id("init_queue").unwrap(), &[]).expect("init");
        let enq = p.proc_id("enqueue_op").unwrap();
        let deq = p.proc_id("dequeue_op").unwrap();
        assert_eq!(m.call(deq, &[]).unwrap(), Some(Value::Int(0)), "empty");
        assert_eq!(m.call(enq, &[Value::Int(1)]).unwrap(), Some(Value::Int(1)));
        assert_eq!(
            m.call(enq, &[Value::Int(0)]).unwrap(),
            Some(Value::Int(0)),
            "full"
        );
        assert_eq!(m.call(deq, &[]).unwrap(), Some(Value::Int(2)), "1+1");
        assert_eq!(
            m.call(deq, &[]).unwrap(),
            Some(Value::Int(0)),
            "empty again"
        );
    }

    #[test]
    fn wrap_around_reuses_slot_zero() {
        let h = harness(Variant::Fenced);
        let p = &h.program;
        let mut m = Machine::new(p);
        m.call(p.proc_id("init_queue").unwrap(), &[]).expect("init");
        let enq = p.proc_id("enqueue_op").unwrap();
        let deq = p.proc_id("dequeue_op").unwrap();
        for v in 0..3 {
            assert_eq!(m.call(enq, &[Value::Int(v)]).unwrap(), Some(Value::Int(1)));
            assert_eq!(m.call(deq, &[]).unwrap(), Some(Value::Int(v + 1)));
        }
    }

    #[test]
    fn fenced_placement_uses_all_three_kinds() {
        let sites = harness(Variant::Fenced).program.fence_sites();
        assert_eq!(sites.len(), 5, "{sites:?}");
        let kinds: std::collections::HashSet<_> = sites.iter().map(|s| s.fence).collect();
        assert_eq!(kinds.len(), 3, "three distinct kinds: {kinds:?}");
        let load_store = cf_lsl::FenceSem::Classic(FenceKind::LoadStore);
        let ls_count = sites.iter().filter(|s| s.fence == load_store).count();
        assert_eq!(ls_count, 2, "load-store in both producer and consumer");
    }
}
