//! `ms2` — the two-lock queue of Michael & Scott (PODC 1996).
//!
//! The queue is a linked list with a dummy node; the head and tail are
//! protected by two independent spin locks (lock/unlock follow the
//! paper's Fig. 7, with the SPARC-style acquire/release fences built in).
//!
//! Because the two locks are independent, a dequeuer synchronizes with an
//! enqueuer only through the list itself, so the *publication* fence
//! (store-store before linking a node) and the *dependent-load* fence
//! (load-load between reading `next` and reading the node's fields) are
//! still required on Relaxed — the paper's "incomplete initialization"
//! and "reordering of value-dependent instructions" failures (§4.3).

use checkfence::Harness;

use crate::{build, compile_harness, queue_ops, Variant};

/// The fenced mini-C source of the implementation.
pub const SOURCE: &str = r#"
typedef struct node {
    struct node *next;
    int value;
} node_t;

typedef struct queue {
    node_t *head;
    node_t *tail;
    int head_lock;
    int tail_lock;
} queue_t;

queue_t queue;

void lock(int *lk) {
    int val;
    do {
        atomic { val = *lk; *lk = 1; }
    } spinwhile (val != 0);
    fence("load-load");
    fence("load-store");
}

void unlock(int *lk) {
    fence("load-store");
    fence("store-store");
    atomic { assert(*lk == 1); *lk = 0; }
}

void init_queue() {
    node_t *node = malloc(node_t);
    node->next = 0;
    queue.head = node;
    queue.tail = node;
    queue.head_lock = 0;
    queue.tail_lock = 0;
}

void enqueue(int value) {
    node_t *node = malloc(node_t);
    node->value = value;
    node->next = 0;
    fence("store-store");
    lock(&queue.tail_lock);
    queue.tail->next = node;
    commit(1);
    queue.tail = node;
    unlock(&queue.tail_lock);
}

bool dequeue(int *pvalue) {
    lock(&queue.head_lock);
    node_t *node = queue.head;
    node_t *new_head = node->next;
    if (new_head == 0) {
        commit(1);
        unlock(&queue.head_lock);
        return false;
    }
    fence("load-load");
    *pvalue = new_head->value;
    queue.head = new_head;
    commit(1);
    unlock(&queue.head_lock);
    free(node);
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
        compile_harness("ms2", SOURCE, "init_queue", queue_ops()),
        variant,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sources_compile() {
        harness(Variant::Fenced);
        harness(Variant::Unfenced);
    }

    #[test]
    fn sequential_fifo_behaviour() {
        use cf_lsl::{Machine, Value};
        let h = harness(Variant::Fenced);
        let p = &h.program;
        let mut m = Machine::new(p);
        m.call(p.proc_id("init_queue").unwrap(), &[]).expect("init");
        let enq = p.proc_id("enqueue_op").unwrap();
        let deq = p.proc_id("dequeue_op").unwrap();
        m.call(enq, &[Value::Int(1)]).expect("enqueue 1");
        m.call(enq, &[Value::Int(0)]).expect("enqueue 0");
        assert_eq!(m.call(deq, &[]).unwrap(), Some(Value::Int(2)), "1+1");
        assert_eq!(m.call(deq, &[]).unwrap(), Some(Value::Int(1)), "0+1");
        assert_eq!(m.call(deq, &[]).unwrap(), Some(Value::Int(0)), "empty");
    }
}
