//! `harris` — the nonblocking list-based set of Harris (DISC 2001).
//!
//! A sorted linked list where deletion happens in two steps: the node is
//! first *logically* deleted by setting its mark, then *physically*
//! unlinked. Harris packs the mark bit into the `next` pointer so that a
//! single CAS covers both; the paper notes (footnote 1) that it models
//! such packed structures as atomically-accessed units. This
//! reproduction makes that explicit: `cas2` atomically compares and
//! updates the `(next, marked)` pair of one node, which is exactly the
//! packed-word CAS at LSL level.
//!
//! Traversals skip marked nodes; insertion at a marked predecessor fails
//! and retries (the `cas2` re-checks the mark).

use checkfence::Harness;

use crate::{build, compile_harness, set_ops, Variant};

/// The fenced mini-C source.
pub const SOURCE: &str = r#"
typedef struct node {
    int key;
    struct node *next;
    int marked;
} node_t;

typedef struct set {
    node_t *head;
} set_t;

set_t set;

bool cas2(unsigned *a1, unsigned *a2, unsigned o1, unsigned o2,
          unsigned n1, unsigned n2) {
    atomic {
        if (*a1 == o1 && *a2 == o2) {
            *a1 = n1;
            *a2 = n2;
            return true;
        }
        return false;
    }
}

void init_set() {
    node_t *h = malloc(node_t);
    node_t *t = malloc(node_t);
    t->key = 2;
    t->next = 0;
    t->marked = 0;
    h->key = -1;
    h->next = t;
    h->marked = 0;
    set.head = h;
}

bool add(int key) {
    spin while (true) {
        node_t *pred = set.head;
        fence("load-load");
        node_t *curr = pred->next;
        fence("load-load");
        int cm = curr->marked;
        fence("load-load");
        while (curr->key < key || cm == 1) {
            pred = curr;
            curr = curr->next;
            fence("load-load");
            cm = curr->marked;
            fence("load-load");
        }
        if (curr->key == key) {
            return false;
        }
        node_t *n = malloc(node_t);
        n->key = key;
        n->marked = 0;
        n->next = curr;
        fence("store-store");
        if (cas2(&pred->next, &pred->marked,
                 (unsigned) curr, 0, (unsigned) n, 0)) {
            return true;
        }
    }
}

bool remove(int key) {
    spin while (true) {
        node_t *pred = set.head;
        fence("load-load");
        node_t *curr = pred->next;
        fence("load-load");
        int cm = curr->marked;
        fence("load-load");
        while (curr->key < key || cm == 1) {
            pred = curr;
            curr = curr->next;
            fence("load-load");
            cm = curr->marked;
            fence("load-load");
        }
        if (curr->key != key) {
            return false;
        }
        node_t *succ = curr->next;
        fence("load-load");
        if (cas2(&curr->next, &curr->marked,
                 (unsigned) succ, 0, (unsigned) succ, 1)) {
            cas2(&pred->next, &pred->marked,
                 (unsigned) curr, 0, (unsigned) succ, 0);
            return true;
        }
    }
}

bool contains(int key) {
    node_t *curr = set.head;
    fence("load-load");
    while (curr->key < key) {
        curr = curr->next;
        fence("load-load");
    }
    if (curr->key == key) {
        fence("load-load");
        if (curr->marked == 0) { return true; }
    }
    return false;
}

int add_op(int k) { return add(k); }
int contains_op(int k) { return contains(k); }
int remove_op(int k) { return remove(k); }
"#;

/// Builds the checkable harness.
pub fn harness(variant: Variant) -> Harness {
    build(
        compile_harness("harris", SOURCE, "init_set", set_ops()),
        variant,
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
    fn sequential_set_behaviour() {
        let h = harness(Variant::Fenced);
        let p = &h.program;
        let mut m = Machine::new(p);
        m.call(p.proc_id("init_set").unwrap(), &[]).expect("init");
        let add = p.proc_id("add_op").unwrap();
        let contains = p.proc_id("contains_op").unwrap();
        let remove = p.proc_id("remove_op").unwrap();
        let k0 = [Value::Int(0)];
        let k1 = [Value::Int(1)];
        assert_eq!(m.call(add, &k0).unwrap(), Some(Value::Int(1)));
        assert_eq!(m.call(add, &k1).unwrap(), Some(Value::Int(1)));
        assert_eq!(m.call(add, &k0).unwrap(), Some(Value::Int(0)));
        assert_eq!(m.call(contains, &k0).unwrap(), Some(Value::Int(1)));
        assert_eq!(m.call(remove, &k0).unwrap(), Some(Value::Int(1)));
        assert_eq!(m.call(contains, &k0).unwrap(), Some(Value::Int(0)));
        assert_eq!(m.call(contains, &k1).unwrap(), Some(Value::Int(1)));
        assert_eq!(m.call(remove, &k0).unwrap(), Some(Value::Int(0)));
        // Re-adding a removed key works (marked node is skipped).
        assert_eq!(m.call(add, &k0).unwrap(), Some(Value::Int(1)));
        assert_eq!(m.call(contains, &k0).unwrap(), Some(Value::Int(1)));
    }
}
