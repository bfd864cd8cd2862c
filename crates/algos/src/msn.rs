//! `msn` — the nonblocking queue of Michael & Scott (PODC 1996), with the
//! fence placement of the paper's Fig. 9.
//!
//! This is, per the paper, "the first published version of Michael and
//! Scott's non-blocking queue that includes memory ordering fences". The
//! line comments reference the paper's figure:
//!
//! * line 29 — store-store: node fields before the linking CAS
//!   ("incomplete initialization", §4.3);
//! * lines 32/34 and 53/55/57 — load-load fences ordering the load
//!   sequences (`queue->tail`, `tail->next`, re-check) that the
//!   algorithm uses for synchronization ("reordering of load sequences");
//! * line 44 — store-store between the linking CAS and the tail-advance
//!   CAS ("reordering of CAS operations").
//!
//! Retry loops are marked `spin while`: their failing iterations perform
//! no stores, so the paper's spin-loop reduction applies.

use cf_lsl::FenceKind;
use checkfence::Harness;

use crate::{build, compile_harness, queue_ops, with_fences, Variant};

/// The fenced mini-C source (paper Fig. 9, minus the pointer-counter
/// packing the paper also omits); the comments give the figure's line
/// numbers.
pub const SOURCE: &str = r#"
typedef struct node {
    struct node *next;
    int value;
} node_t;

typedef struct queue {
    node_t *head;
    node_t *tail;
} queue_t;

queue_t queue;

bool cas(unsigned *loc, unsigned old, unsigned new) {
    atomic {
        if (*loc == old) { *loc = new; return true; }
        return false;
    }
}

void init_queue() {
    node_t *node = malloc(node_t);
    node->next = 0;
    queue.head = node;
    queue.tail = node;
}

void enqueue(int value) {
    node_t *node, *tail, *next;
    node = malloc(node_t);
    node->value = value;
    node->next = 0;
    fence("store-store"); // Fig. 9 line 29
    spin while (true) {
        tail = queue.tail;
        fence("load-load"); // line 32
        next = tail->next;
        fence("load-load"); // line 34
        if (tail == queue.tail) {
            if (next == 0) {
                if (cas(&tail->next, (unsigned) next, (unsigned) node)) {
                    commit(1);
                    break;
                }
            } else {
                cas(&queue.tail, (unsigned) tail, (unsigned) next);
            }
        }
    }
    fence("store-store"); // line 44
    cas(&queue.tail, (unsigned) tail, (unsigned) node);
}

bool dequeue(int *pvalue) {
    node_t *head, *tail, *next;
    spin while (true) {
        head = queue.head;
        fence("load-load"); // line 53
        tail = queue.tail;
        fence("load-load"); // line 55
        next = head->next;
        fence("load-load"); // line 57
        if (head == queue.head) {
            if (head == tail) {
                if (next == 0) {
                    node_t *next2 = head->next;
                    if (next2 == 0) {
                        commit(1);
                        return false;
                    }
                } else {
                    cas(&queue.tail, (unsigned) tail, (unsigned) next);
                }
            } else {
                *pvalue = next->value;
                if (cas(&queue.head, (unsigned) head, (unsigned) next)) {
                    commit(1);
                    break;
                }
            }
        }
    }
    delete_node(head);
    return true;
}

void enqueue_op(int v) { enqueue(v); }

int dequeue_op() {
    int v;
    bool ok = dequeue(&v);
    if (ok) { return v + 1; }
    return 0;
}
"#;

/// Builds the checkable harness. Observation encoding: `enqueue_op`
/// observes its argument; `dequeue_op` returns 0 for "empty" and
/// `value + 1` otherwise.
pub fn harness(variant: Variant) -> Harness {
    build(
        compile_harness("msn", SOURCE, "init_queue", queue_ops()),
        variant,
    )
}

/// Builds a harness keeping only the selected fence *kinds*.
///
/// Partial builds drive the §4.2 architecture observation: "on some
/// architectures (such as Sun TSO or IBM zSeries), these fences are
/// automatic and the algorithm therefore works without inserting any
/// fences". On [`cf_memmodel::Mode::Tso`] both kinds are automatic; on
/// [`cf_memmodel::Mode::Pso`] only load-load order is automatic, so the
/// store-store placements (Fig. 9 lines 29 and 44) are still required.
pub fn harness_with_kinds(load_load: bool, store_store: bool) -> Harness {
    let name = match (load_load, store_store) {
        (true, true) => "msn",
        (true, false) => "msn-ll-only",
        (false, true) => "msn-ss-only",
        (false, false) => "msn-unfenced",
    };
    with_fences(
        harness(Variant::Fenced),
        name,
        &[
            (FenceKind::LoadLoad, load_load),
            (FenceKind::StoreStore, store_store),
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
    }

    #[test]
    fn sequential_fifo_behaviour() {
        let h = harness(Variant::Fenced);
        let p = &h.program;
        let mut m = Machine::new(p);
        m.call(p.proc_id("init_queue").unwrap(), &[]).expect("init");
        let enq = p.proc_id("enqueue_op").unwrap();
        let deq = p.proc_id("dequeue_op").unwrap();
        assert_eq!(m.call(deq, &[]).unwrap(), Some(Value::Int(0)), "empty");
        m.call(enq, &[Value::Int(0)]).expect("enqueue 0");
        m.call(enq, &[Value::Int(1)]).expect("enqueue 1");
        assert_eq!(m.call(deq, &[]).unwrap(), Some(Value::Int(1)), "0+1");
        assert_eq!(m.call(deq, &[]).unwrap(), Some(Value::Int(2)), "1+1");
        assert_eq!(m.call(deq, &[]).unwrap(), Some(Value::Int(0)), "empty");
    }

    #[test]
    fn fenced_source_has_seven_fences_outside_cas() {
        let sites = harness(Variant::Fenced).program.fence_sites();
        assert_eq!(sites.len(), 7, "fig. 9 places 7 fences");
        assert!(sites.iter().all(|s| s.proc != "cas"), "{sites:?}");
        let h = harness(Variant::Unfenced);
        assert!(h.program.fence_sites().is_empty());
    }
}
