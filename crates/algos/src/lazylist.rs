//! `lazylist` — the lazy list-based set of Heller, Herlihy, Luchangco,
//! Moir, Scherer and Shavit (OPODIS 2005).
//!
//! A sorted linked list with sentinel head/tail nodes. Insertion and
//! deletion lock the two affected nodes and re-validate; membership test
//! is lock-free. Deletion is *lazy*: nodes are first marked
//! (`marked = 1`) and then unlinked.
//!
//! The [`Build::Buggy`] variant reproduces the not-previously-known bug
//! the paper found (§4.1): the published pseudocode "fails to properly
//! initialize the `marked` field when a new node is added to the list" —
//! a later `contains` reads the undefined field, which CheckFence
//! detects as an undefined-value error already in *serial* executions of
//! the `Sac` test.
//!
//! Keys are restricted to {0, 1} (test arguments); the sentinels use
//! keys −1 and 2.

use checkfence::Harness;

use crate::{compile_harness, set_ops, with_fences};

/// Which build of the algorithm to produce.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Build {
    /// The published pseudocode: `marked` left uninitialized on add.
    Buggy,
    /// Initialization fixed, fences placed (passes on Relaxed).
    Fixed,
    /// Initialization fixed but no fences (fails on Relaxed).
    Unfenced,
}

/// The fenced mini-C source of a build: [`Build::Buggy`] leaves
/// `marked` uninitialized on add, [`Build::Fixed`] initializes it.
/// [`Build::Unfenced`] shares the fixed text; its [`harness`] drops the
/// fences from the compiled program.
pub fn source(build: Build) -> String {
    let init_marked = if build == Build::Buggy {
        "" // the published pseudocode omits this line
    } else {
        "n->marked = 0;"
    };
    format!(
        r#"
typedef struct node {{
    int key;
    struct node *next;
    int marked;
    int lock;
}} node_t;

typedef struct set {{
    node_t *head;
}} set_t;

set_t set;

void lock_node(node_t *n) {{
    int val;
    do {{
        atomic {{ val = n->lock; n->lock = 1; }}
    }} spinwhile (val != 0);
    fence("load-load");
    fence("load-store");
}}

void unlock_node(node_t *n) {{
    fence("load-store");
    fence("store-store");
    atomic {{ assert(n->lock == 1); n->lock = 0; }}
}}

void init_set() {{
    node_t *h = malloc(node_t);
    node_t *t = malloc(node_t);
    t->key = 2;
    t->next = 0;
    t->marked = 0;
    t->lock = 0;
    h->key = -1;
    h->next = t;
    h->marked = 0;
    h->lock = 0;
    set.head = h;
}}

bool add(int key) {{
    spin while (true) {{
        node_t *pred = set.head;
        fence("load-load");
        node_t *curr = pred->next;
        fence("load-load");
        while (curr->key < key) {{
            pred = curr;
            curr = curr->next;
            fence("load-load");
        }}
        lock_node(pred);
        lock_node(curr);
        if (!pred->marked && !curr->marked && pred->next == curr) {{
            bool ret;
            if (curr->key == key) {{
                ret = false;
            }} else {{
                node_t *n = malloc(node_t);
                n->key = key;
                {init_marked}
                n->lock = 0;
                n->next = curr;
                fence("store-store");
                pred->next = n;
                ret = true;
            }}
            unlock_node(curr);
            unlock_node(pred);
            return ret;
        }}
        unlock_node(curr);
        unlock_node(pred);
    }}
}}

bool remove(int key) {{
    spin while (true) {{
        node_t *pred = set.head;
        fence("load-load");
        node_t *curr = pred->next;
        fence("load-load");
        while (curr->key < key) {{
            pred = curr;
            curr = curr->next;
            fence("load-load");
        }}
        lock_node(pred);
        lock_node(curr);
        if (!pred->marked && !curr->marked && pred->next == curr) {{
            bool ret;
            if (curr->key != key) {{
                ret = false;
            }} else {{
                curr->marked = 1;
                fence("store-store");
                pred->next = curr->next;
                ret = true;
            }}
            unlock_node(curr);
            unlock_node(pred);
            return ret;
        }}
        unlock_node(curr);
        unlock_node(pred);
    }}
}}

bool contains(int key) {{
    node_t *curr = set.head;
    fence("load-load");
    while (curr->key < key) {{
        curr = curr->next;
        fence("load-load");
    }}
    if (curr->key == key) {{
        fence("load-load");
        if (curr->marked) {{ return false; }}
        return true;
    }}
    return false;
}}

int add_op(int k) {{ return add(k); }}
int contains_op(int k) {{ return contains(k); }}
int remove_op(int k) {{ return remove(k); }}
"#
    )
}

/// Builds the checkable harness. All three operations observe their key
/// argument and a 0/1 return value.
pub fn harness(build: Build) -> Harness {
    match build {
        Build::Buggy => compile_harness("lazylist-buggy", &source(build), "init_set", set_ops()),
        Build::Fixed => compile_harness("lazylist", &source(build), "init_set", set_ops()),
        Build::Unfenced => with_fences(harness(Build::Fixed), "lazylist-unfenced", &[]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_lsl::{ExecError, Machine, Value};

    #[test]
    fn sources_compile() {
        harness(Build::Buggy);
        harness(Build::Fixed);
        harness(Build::Unfenced);
    }

    #[test]
    fn sequential_set_behaviour() {
        let h = harness(Build::Fixed);
        let p = &h.program;
        let mut m = Machine::new(p);
        m.call(p.proc_id("init_set").unwrap(), &[]).expect("init");
        let add = p.proc_id("add_op").unwrap();
        let contains = p.proc_id("contains_op").unwrap();
        let remove = p.proc_id("remove_op").unwrap();
        let one = [Value::Int(1)];
        let zero = [Value::Int(0)];
        assert_eq!(m.call(contains, &one).unwrap(), Some(Value::Int(0)));
        assert_eq!(m.call(add, &one).unwrap(), Some(Value::Int(1)));
        assert_eq!(
            m.call(add, &one).unwrap(),
            Some(Value::Int(0)),
            "already present"
        );
        assert_eq!(m.call(add, &zero).unwrap(), Some(Value::Int(1)));
        assert_eq!(m.call(contains, &one).unwrap(), Some(Value::Int(1)));
        assert_eq!(m.call(contains, &zero).unwrap(), Some(Value::Int(1)));
        assert_eq!(m.call(remove, &one).unwrap(), Some(Value::Int(1)));
        assert_eq!(m.call(contains, &one).unwrap(), Some(Value::Int(0)));
        assert_eq!(
            m.call(remove, &one).unwrap(),
            Some(Value::Int(0)),
            "already gone"
        );
        assert_eq!(m.call(contains, &zero).unwrap(), Some(Value::Int(1)));
    }

    #[test]
    fn buggy_variant_reads_uninitialized_marked_sequentially() {
        // add(k) then contains(k): contains reads the uninitialized
        // `marked` field — the bug the paper found (§4.1).
        let h = harness(Build::Buggy);
        let p = &h.program;
        let mut m = Machine::new(p);
        m.call(p.proc_id("init_set").unwrap(), &[]).expect("init");
        m.call(p.proc_id("add_op").unwrap(), &[Value::Int(1)])
            .expect("add itself succeeds");
        let err = m
            .call(p.proc_id("contains_op").unwrap(), &[Value::Int(1)])
            .expect_err("contains reads undefined marked");
        assert!(matches!(err, ExecError::UndefinedUse { .. }), "{err}");
    }
}
