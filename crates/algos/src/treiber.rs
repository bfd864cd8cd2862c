//! `treiber` — Treiber's lock-free stack (IBM technical report RJ5118,
//! 1986), as a sixth data type beyond the paper's Table 1.
//!
//! The paper's §6 lists "more data type implementations from the
//! literature" as future work; the Treiber stack is the canonical next
//! candidate: the simplest compare-and-swap retry loop, and it exhibits
//! two of the paper's four §4.3 failure classes on relaxed models:
//!
//! * **incomplete initialization** — the node's `value`/`next` fields
//!   must be published before the linking CAS (a store-store fence
//!   inside the retry loop, analogous to Fig. 9 line 29);
//! * **reordering of value-dependent instructions** — `pop` loads
//!   `stack.top` and then dereferences it (`t->next`, `t->value`); on
//!   Relaxed the dependent loads may be speculated early, so a
//!   load-load fence is required after the `stack.top` load.
//!
//! The fenced build carries exactly those two fences; [`harness_with_kinds`]
//! exposes partial builds for the TSO/PSO architecture sweep.

use cf_lsl::FenceKind;
use checkfence::Harness;

use crate::{build, compile_harness, stack_ops, with_fences, Variant};

/// The fenced mini-C source.
pub const SOURCE: &str = r#"
typedef struct node {
    int value;
    struct node *next;
} node_t;

typedef struct stack {
    node_t *top;
} stack_t;

stack_t stack;

bool cas(unsigned *loc, unsigned old, unsigned new) {
    atomic {
        if (*loc == old) { *loc = new; return true; }
        return false;
    }
}

void init_stack() {
    stack.top = 0;
}

void push(int value) {
    node_t *n = malloc(node_t);
    n->value = value;
    spin while (true) {
        node_t *t = stack.top;
        n->next = t;
        fence("store-store");
        if (cas(&stack.top, (unsigned) t, (unsigned) n)) {
            commit(1);
            break;
        }
    }
}

bool pop(int *pvalue) {
    spin while (true) {
        node_t *t = stack.top;
        if (t == 0) {
            commit(1);
            return false;
        }
        fence("load-load");
        node_t *next = t->next;
        if (cas(&stack.top, (unsigned) t, (unsigned) next)) {
            commit(1);
            *pvalue = t->value;
            break;
        }
    }
    return true;
}

void push_op(int v) { push(v); }

int pop_op() {
    int v;
    bool ok = pop(&v);
    if (ok) { return v + 1; }
    return 0;
}
"#;

/// Builds the checkable harness. Observation encoding matches the queue
/// wrappers: `push_op` observes its argument; `pop_op` returns 0 for
/// "empty" and `value + 1` otherwise.
pub fn harness(variant: Variant) -> Harness {
    build(
        compile_harness("treiber", SOURCE, "init_stack", stack_ops()),
        variant,
    )
}

/// Builds a harness keeping only the selected fence kinds (for the
/// TSO/PSO model sweep, mirroring [`crate::msn::harness_with_kinds`]).
pub fn harness_with_kinds(load_load: bool, store_store: bool) -> Harness {
    let name = match (load_load, store_store) {
        (true, true) => "treiber",
        (true, false) => "treiber-ll-only",
        (false, true) => "treiber-ss-only",
        (false, false) => "treiber-unfenced",
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
        harness_with_kinds(false, true);
        harness_with_kinds(true, false);
    }

    #[test]
    fn sequential_lifo_behaviour() {
        let h = harness(Variant::Fenced);
        let p = &h.program;
        let mut m = Machine::new(p);
        m.call(p.proc_id("init_stack").unwrap(), &[]).expect("init");
        let push = p.proc_id("push_op").unwrap();
        let pop = p.proc_id("pop_op").unwrap();
        assert_eq!(m.call(pop, &[]).unwrap(), Some(Value::Int(0)), "empty");
        m.call(push, &[Value::Int(0)]).expect("push 0");
        m.call(push, &[Value::Int(1)]).expect("push 1");
        assert_eq!(m.call(pop, &[]).unwrap(), Some(Value::Int(2)), "1+1");
        assert_eq!(m.call(pop, &[]).unwrap(), Some(Value::Int(1)), "0+1");
        assert_eq!(m.call(pop, &[]).unwrap(), Some(Value::Int(0)), "empty");
    }

    #[test]
    fn fenced_source_has_two_fences() {
        let sites = harness(Variant::Fenced).program.fence_sites();
        assert_eq!(sites.len(), 2, "{sites:?}");
        let h = harness(Variant::Unfenced);
        assert!(h.program.fence_sites().is_empty());
    }

    #[test]
    fn interleaved_push_pop_round_trip() {
        let h = harness(Variant::Fenced);
        let p = &h.program;
        let mut m = Machine::new(p);
        m.call(p.proc_id("init_stack").unwrap(), &[]).expect("init");
        let push = p.proc_id("push_op").unwrap();
        let pop = p.proc_id("pop_op").unwrap();
        for v in 0..2 {
            m.call(push, &[Value::Int(v)]).expect("push");
            assert_eq!(m.call(pop, &[]).unwrap(), Some(Value::Int(v + 1)));
        }
        assert_eq!(m.call(pop, &[]).unwrap(), Some(Value::Int(0)));
    }
}
