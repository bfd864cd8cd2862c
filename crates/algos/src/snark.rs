//! `snark` — a DCAS-based nonblocking deque following Detlefs, Flood,
//! Garthwaite, Martin, Shavit and Steele (DISC 2000).
//!
//! The deque is a doubly-linked list of fresh nodes between two hats
//! (`LeftHat`, `RightHat`) and a self-linked `Dummy` sentinel:
//!
//! * *empty* is detected by a self-link (`hat->R == hat` from the right,
//!   `hat->L == hat` from the left);
//! * a push swings its hat and the outermost node's outward link onto the
//!   new node with one DCAS;
//! * a pop of the last element swings **both hats** back to `Dummy` with
//!   one DCAS; a pop of an outer element swings its hat inward while
//!   self-linking the popped node.
//!
//! `dcas` is modeled as an atomic block over two locations, exactly as
//! the paper models CAS (Fig. 6).
//!
//! [`Build::Original`] follows the published pop discipline: the
//! non-single-element pop covers the popped node's **own** back-link in
//! its DCAS. That is the published algorithm's flaw (Doherty et al.,
//! "DCAS is not a silver bullet"): popping one end does not invalidate
//! the link the *other* end's DCAS checks, so with a stale hat read a
//! node can be popped from **both ends** — the double-pop that this
//! reproduction's checker rediscovers on catalog test `Da` (already
//! under sequential consistency, matching §4.1: the snark bugs are logic
//! errors, not memory-model errors). [`Build::Fixed`] repairs the race
//! by covering the **neighbor's** link toward the popped node instead,
//! which the opposite end's pop rewrites.

use checkfence::Harness;

use crate::{compile_harness, deque_ops, with_fences, Variant};

/// Which algorithm build to produce.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Build {
    /// Published pop discipline: the DCAS covers the popped node's own
    /// back-link (double-pop bug).
    Original,
    /// Corrected pops: the DCAS covers the neighbor's link toward the
    /// popped node.
    Fixed,
}

/// The fenced mini-C source.
pub fn source(build: Build) -> String {
    // The builds differ only in the non-single pop path: which second
    // location the DCAS covers.
    let inner_right = match build {
        Build::Original => {
            r#"node_t *rhL = rh->L;
            fence("load-load");
            if (dcas(&RightHat, &rh->L,
                     (unsigned) rh, (unsigned) rhL, (unsigned) rhL, (unsigned) rh)) {
                fence("load-load");
                *pv = rh->V;
                return true;
            }"#
        }
        Build::Fixed => {
            r#"node_t *rhL = rh->L;
            fence("load-load");
            if (dcas(&RightHat, &rhL->R,
                     (unsigned) rh, (unsigned) rh, (unsigned) rhL, (unsigned) dum)) {
                fence("load-load");
                *pv = rh->V;
                return true;
            }"#
        }
    };
    let inner_left = match build {
        Build::Original => {
            r#"node_t *lhR = lh->R;
            fence("load-load");
            if (dcas(&LeftHat, &lh->R,
                     (unsigned) lh, (unsigned) lhR, (unsigned) lhR, (unsigned) lh)) {
                fence("load-load");
                *pv = lh->V;
                return true;
            }"#
        }
        Build::Fixed => {
            r#"node_t *lhR = lh->R;
            fence("load-load");
            if (dcas(&LeftHat, &lhR->L,
                     (unsigned) lh, (unsigned) lh, (unsigned) lhR, (unsigned) dum)) {
                fence("load-load");
                *pv = lh->V;
                return true;
            }"#
        }
    };
    format!(
        r#"
typedef struct node {{
    struct node *L;
    struct node *R;
    int V;
}} node_t;

node_t *Dummy;
node_t *LeftHat;
node_t *RightHat;

bool cas(unsigned *loc, unsigned old, unsigned new) {{
    atomic {{
        if (*loc == old) {{ *loc = new; return true; }}
        return false;
    }}
}}

bool dcas(unsigned *a1, unsigned *a2, unsigned o1, unsigned o2,
          unsigned n1, unsigned n2) {{
    atomic {{
        if (*a1 == o1 && *a2 == o2) {{
            *a1 = n1;
            *a2 = n2;
            return true;
        }}
        return false;
    }}
}}

void init_deque() {{
    node_t *d = malloc(node_t);
    d->L = d;
    d->R = d;
    d->V = -1;
    Dummy = d;
    LeftHat = d;
    RightHat = d;
}}

void push_right(int v) {{
    node_t *dum = Dummy;
    node_t *nd = malloc(node_t);
    nd->R = dum;
    nd->V = v;
    spin while (true) {{
        node_t *rh = RightHat;
        fence("load-load");
        node_t *rhR = rh->R;
        fence("load-load");
        if (rhR == rh) {{
            nd->L = dum;
            node_t *lh = LeftHat;
            fence("store-store");
            if (dcas(&RightHat, &LeftHat,
                     (unsigned) rh, (unsigned) lh, (unsigned) nd, (unsigned) nd)) {{
                return;
            }}
        }} else {{
            nd->L = rh;
            fence("store-store");
            if (dcas(&RightHat, &rh->R,
                     (unsigned) rh, (unsigned) rhR, (unsigned) nd, (unsigned) nd)) {{
                return;
            }}
        }}
    }}
}}

void push_left(int v) {{
    node_t *dum = Dummy;
    node_t *nd = malloc(node_t);
    nd->L = dum;
    nd->V = v;
    spin while (true) {{
        node_t *lh = LeftHat;
        fence("load-load");
        node_t *lhL = lh->L;
        fence("load-load");
        if (lhL == lh) {{
            nd->R = dum;
            node_t *rh = RightHat;
            fence("store-store");
            if (dcas(&LeftHat, &RightHat,
                     (unsigned) lh, (unsigned) rh, (unsigned) nd, (unsigned) nd)) {{
                return;
            }}
        }} else {{
            nd->R = lh;
            fence("store-store");
            if (dcas(&LeftHat, &lh->L,
                     (unsigned) lh, (unsigned) lhL, (unsigned) nd, (unsigned) nd)) {{
                return;
            }}
        }}
    }}
}}

bool pop_right(int *pv) {{
    node_t *dum = Dummy;
    spin while (true) {{
        node_t *rh = RightHat;
        fence("load-load");
        node_t *rhR = rh->R;
        fence("load-load");
        if (rhR == rh) {{
            return false;
        }}
        node_t *lh = LeftHat;
        fence("load-load");
        if (rh == lh) {{
            if (dcas(&RightHat, &LeftHat,
                     (unsigned) rh, (unsigned) lh, (unsigned) dum, (unsigned) dum)) {{
                *pv = rh->V;
                return true;
            }}
        }} else {{
            {inner_right}
        }}
    }}
}}

bool pop_left(int *pv) {{
    node_t *dum = Dummy;
    spin while (true) {{
        node_t *lh = LeftHat;
        fence("load-load");
        node_t *lhL = lh->L;
        fence("load-load");
        if (lhL == lh) {{
            return false;
        }}
        node_t *rh = RightHat;
        fence("load-load");
        if (lh == rh) {{
            if (dcas(&LeftHat, &RightHat,
                     (unsigned) lh, (unsigned) rh, (unsigned) dum, (unsigned) dum)) {{
                *pv = lh->V;
                return true;
            }}
        }} else {{
            {inner_left}
        }}
    }}
}}

void push_left_op(int v) {{ push_left(v); }}
void push_right_op(int v) {{ push_right(v); }}

int pop_left_op() {{
    int v;
    bool ok = pop_left(&v);
    if (ok) {{ return v + 1; }}
    return 0;
}}

int pop_right_op() {{
    int v;
    bool ok = pop_right(&v);
    if (ok) {{ return v + 1; }}
    return 0;
}}
"#
    )
}

/// Builds the checkable harness. Pops return 0 for "empty" and
/// `value + 1` otherwise.
pub fn harness(build: Build, variant: Variant) -> Harness {
    let (name, unfenced) = match build {
        Build::Original => ("snark-original", "snark-original"),
        Build::Fixed => ("snark", "snark-unfenced"),
    };
    let fenced = compile_harness(name, &source(build), "init_deque", deque_ops());
    match variant {
        Variant::Fenced => fenced,
        Variant::Unfenced => with_fences(fenced, unfenced, &[]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_lsl::{Machine, Value};

    fn run_sequence(build: Build) -> Vec<Option<Value>> {
        let h = harness(build, Variant::Fenced);
        let p = &h.program;
        let mut m = Machine::new(p);
        m.call(p.proc_id("init_deque").unwrap(), &[]).expect("init");
        let pl = p.proc_id("push_left_op").unwrap();
        let pr = p.proc_id("push_right_op").unwrap();
        let popl = p.proc_id("pop_left_op").unwrap();
        let popr = p.proc_id("pop_right_op").unwrap();
        let mut out = Vec::new();
        // deque after pushes: [1, 1, 0] (left to right)
        m.call(pr, &[Value::Int(1)]).expect("pr 1");
        m.call(pr, &[Value::Int(0)]).expect("pr 0");
        m.call(pl, &[Value::Int(1)]).expect("pl 1");
        out.push(m.call(popl, &[]).expect("popl")); // 1 -> 2
        out.push(m.call(popr, &[]).expect("popr")); // 0 -> 1
        out.push(m.call(popr, &[]).expect("popr")); // 1 -> 2 (single)
        out.push(m.call(popr, &[]).expect("popr")); // empty -> 0
        out.push(m.call(popl, &[]).expect("popl")); // empty -> 0
                                                    // refill after going empty
        m.call(pl, &[Value::Int(0)]).expect("pl 0");
        out.push(m.call(popr, &[]).expect("popr")); // 0 -> 1 (single)
        out
    }

    #[test]
    fn sources_compile() {
        for b in [Build::Original, Build::Fixed] {
            for v in [Variant::Fenced, Variant::Unfenced] {
                harness(b, v);
            }
        }
    }

    #[test]
    fn sequential_deque_behaviour_fixed() {
        assert_eq!(
            run_sequence(Build::Fixed),
            vec![
                Some(Value::Int(2)),
                Some(Value::Int(1)),
                Some(Value::Int(2)),
                Some(Value::Int(0)),
                Some(Value::Int(0)),
                Some(Value::Int(1)),
            ]
        );
    }

    #[test]
    fn sequential_deque_behaviour_original_matches_fixed() {
        // The seeded bug is concurrency-only.
        assert_eq!(run_sequence(Build::Original), run_sequence(Build::Fixed));
    }
}
