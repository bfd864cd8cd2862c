//! End-to-end tests: compile mini-C and execute on the LSL interpreter.

use cf_lsl::{ExecError, Machine, Value};
use cf_minic::compile;

fn run1(src: &str, func: &str, args: &[i64]) -> Result<Option<Value>, ExecError> {
    let program = compile(src).expect("compiles");
    let id = program.proc_id(func).expect("function exists");
    let args: Vec<Value> = args.iter().map(|&n| Value::Int(n)).collect();
    let mut m = Machine::new(&program);
    m.call(id, &args)
}

#[test]
fn arithmetic_and_comparison() {
    let src = r#"
        int f(int a, int b) { return a * b + (a - b); }
        int cmp(int a, int b) { return a < b; }
    "#;
    assert_eq!(run1(src, "f", &[3, 4]).unwrap(), Some(Value::Int(11)));
    assert_eq!(run1(src, "cmp", &[1, 2]).unwrap(), Some(Value::Int(1)));
    assert_eq!(run1(src, "cmp", &[2, 1]).unwrap(), Some(Value::Int(0)));
}

#[test]
fn short_circuit_does_not_evaluate_rhs() {
    // If && evaluated its right side unconditionally, the null dereference
    // would fail.
    let src = r#"
        typedef struct node { struct node *next; int value; } node_t;
        node_t *head;
        int safe(node_t *p) { return p != 0 && p->value == 1; }
    "#;
    assert_eq!(run1(src, "safe", &[0]).unwrap(), Some(Value::Int(0)));
}

#[test]
fn short_circuit_or() {
    let src = r#"
        int count;
        int bump() { count = count + 1; return 1; }
        int f() {
            count = 0;
            int r = 1 || bump();
            return count;
        }
    "#;
    assert_eq!(run1(src, "f", &[]).unwrap(), Some(Value::Int(0)));
}

#[test]
fn while_loop_sums() {
    let src = r#"
        int sum(int n) {
            int s = 0;
            int i = 0;
            while (i < n) { s = s + i; i = i + 1; }
            return s;
        }
    "#;
    assert_eq!(run1(src, "sum", &[5]).unwrap(), Some(Value::Int(10)));
    assert_eq!(run1(src, "sum", &[0]).unwrap(), Some(Value::Int(0)));
}

#[test]
fn do_while_and_break_continue() {
    let src = r#"
        int f(int n) {
            int s = 0;
            int i = 0;
            while (true) {
                i = i + 1;
                if (i > n) break;
                if (i == 2) continue;
                s = s + i;
            }
            return s;
        }
        int g(int n) {
            int i = 0;
            do { i = i + 1; } while (i < n);
            return i;
        }
    "#;
    // skips 2: 1 + 3 + 4 = 8
    assert_eq!(run1(src, "f", &[4]).unwrap(), Some(Value::Int(8)));
    assert_eq!(run1(src, "g", &[3]).unwrap(), Some(Value::Int(3)));
    assert_eq!(
        run1(src, "g", &[0]).unwrap(),
        Some(Value::Int(1)),
        "do-while runs once"
    );
}

#[test]
fn linked_list_via_malloc() {
    let src = r#"
        typedef struct node { struct node *next; int value; } node_t;
        node_t *head;
        void init() { head = 0; }
        void push(int v) {
            node_t *n = malloc(node_t);
            n->value = v;
            n->next = head;
            head = n;
        }
        int sum() {
            int s = 0;
            node_t *p = head;
            while (p != 0) { s = s + p->value; p = p->next; }
            return s;
        }
    "#;
    let program = compile(src).expect("compiles");
    let mut m = Machine::new(&program);
    m.call(program.proc_id("init").unwrap(), &[]).unwrap();
    for v in [1, 2, 3] {
        m.call(program.proc_id("push").unwrap(), &[Value::Int(v)])
            .unwrap();
    }
    let got = m.call(program.proc_id("sum").unwrap(), &[]).unwrap();
    assert_eq!(got, Some(Value::Int(6)));
}

#[test]
fn address_of_local_out_param() {
    let src = r#"
        int source;
        void get(int *out) { *out = source; }
        int f() {
            int v;
            source = 9;
            get(&v);
            return v;
        }
    "#;
    assert_eq!(run1(src, "f", &[]).unwrap(), Some(Value::Int(9)));
}

#[test]
fn cas_in_atomic_block() {
    // The paper's Fig. 6 CAS written in mini-C.
    let src = r#"
        int cell;
        bool cas(unsigned *loc, unsigned old, unsigned new) {
            atomic {
                if (*loc == old) { *loc = new; return true; }
                return false;
            }
        }
        int f() {
            cell = 5;
            int ok1 = cas(&cell, 5, 7);
            int ok2 = cas(&cell, 5, 9);
            return ok1 * 10 + ok2;
        }
        int get() { return cell; }
    "#;
    let program = compile(src).expect("compiles");
    let mut m = Machine::new(&program);
    let got = m.call(program.proc_id("f").unwrap(), &[]).unwrap();
    assert_eq!(
        got,
        Some(Value::Int(10)),
        "first cas succeeds, second fails"
    );
    let cell = m.call(program.proc_id("get").unwrap(), &[]).unwrap();
    assert_eq!(cell, Some(Value::Int(7)));
}

#[test]
fn spinwhile_lock_runs_sequentially() {
    // Fig. 7 lock/unlock; sequentially the lock is always free.
    let src = r#"
        typedef enum { free, held } lock_t;
        lock_t lk;
        int guarded;
        void lock(lock_t *lock) {
            lock_t val;
            do {
                atomic { val = *lock; *lock = held; }
            } spinwhile (val != free);
            fence("load-load");
            fence("load-store");
        }
        void unlock(lock_t *lock) {
            fence("load-store");
            fence("store-store");
            atomic { assert(*lock == held); *lock = free; }
        }
        int f() {
            lk = free;
            lock(&lk);
            guarded = 3;
            unlock(&lk);
            return guarded;
        }
    "#;
    assert_eq!(run1(src, "f", &[]).unwrap(), Some(Value::Int(3)));
}

#[test]
fn assert_failure_reported() {
    let src = "void f(int x) { assert(x == 1); }";
    assert_eq!(run1(src, "f", &[0]), Err(ExecError::AssertFailed));
    assert!(run1(src, "f", &[1]).is_ok());
}

#[test]
fn uninitialized_field_detected() {
    // The lazy-list bug pattern: a field is never initialized; using it in
    // a condition is an undefined-value error.
    let src = r#"
        typedef struct node { int marked; } node_t;
        int f() {
            node_t *n = malloc(node_t);
            if (n->marked) { return 1; }
            return 0;
        }
    "#;
    assert!(matches!(
        run1(src, "f", &[]),
        Err(ExecError::UndefinedUse { .. })
    ));
}

#[test]
fn global_struct_and_nested_access() {
    let src = r#"
        typedef struct node { struct node *next; int value; } node_t;
        typedef struct queue { node_t *head; node_t *tail; } queue_t;
        queue_t q;
        void init_queue() {
            node_t *node = malloc(node_t);
            node->next = 0;
            q.head = node;
            q.tail = node;
        }
        int same() { return q.head == q.tail; }
    "#;
    let program = compile(src).expect("compiles");
    let mut m = Machine::new(&program);
    m.call(program.proc_id("init_queue").unwrap(), &[]).unwrap();
    assert_eq!(
        m.call(program.proc_id("same").unwrap(), &[]).unwrap(),
        Some(Value::Int(1))
    );
}

#[test]
fn assignment_chains() {
    let src = r#"
        typedef struct queue { int head; int tail; } queue_t;
        queue_t q;
        int f(int v) { q.head = q.tail = v; return q.head + q.tail; }
    "#;
    assert_eq!(run1(src, "f", &[4]).unwrap(), Some(Value::Int(8)));
}

#[test]
fn arrays_in_globals_and_fields() {
    let src = r#"
        typedef struct box { int slots[3]; } box_t;
        box_t b;
        int table[4];
        void fill() {
            int i = 0;
            while (i < 4) { table[i] = i * 2; i = i + 1; }
            b.slots[1] = 7;
        }
        int f(int i) { return table[i] + b.slots[1]; }
    "#;
    let program = compile(src).expect("compiles");
    let mut m = Machine::new(&program);
    m.call(program.proc_id("fill").unwrap(), &[]).unwrap();
    assert_eq!(
        m.call(program.proc_id("f").unwrap(), &[Value::Int(3)])
            .unwrap(),
        Some(Value::Int(13))
    );
}

#[test]
fn ternary_is_lazy() {
    let src = r#"
        typedef struct node { int value; } node_t;
        int f(node_t *p) { return p != 0 ? 5 : 6; }
    "#;
    assert_eq!(run1(src, "f", &[0]).unwrap(), Some(Value::Int(6)));
}

#[test]
fn commit_marker_is_noop_in_interp() {
    let src = r#"
        int x;
        void f() { x = 1; commit(1); }
        int get() { return x; }
    "#;
    let program = compile(src).expect("compiles");
    let mut m = Machine::new(&program);
    m.call(program.proc_id("f").unwrap(), &[]).unwrap();
    assert_eq!(
        m.call(program.proc_id("get").unwrap(), &[]).unwrap(),
        Some(Value::Int(1))
    );
}

#[test]
fn compile_errors_have_context() {
    let err = compile("void f() { g(); }").expect_err("unknown function");
    assert!(err.message.contains("unknown function"), "{err}");
    let err = compile("void f(int *p) { p->x = 1; }").expect_err("unknown struct");
    assert!(err.message.contains("struct type"), "{err}");
}

#[test]
fn duplicate_function_definitions_are_errors() {
    let err = compile("int x;\nvoid f() { x = 1; }\nvoid f() { x = 2; }").expect_err("duplicate f");
    assert_eq!(err.line, 3, "{err}");
    assert!(err.message.contains("`f` is defined twice"), "{err}");
}

#[test]
fn errors_inside_atomic_blocks_are_reported() {
    // The inner `if` fails on the misspelled `tre`; the atomic block
    // around it must pass the error on instead of closing its section.
    let src = "int x;\nbool g() { atomic { if (x == 0) { return tre; } return false; } }";
    let err = compile(src).expect_err("unknown identifier");
    assert_eq!(err.line, 2, "{err}");
    assert!(err.message.contains("`tre`"), "{err}");
}

#[test]
fn layout_errors_name_the_declaration_line() {
    // Struct fields and globals are laid out before any function is
    // lowered; their errors still point at the declarator's line.
    let err = compile("int x;\nvoid g;").expect_err("void global");
    assert_eq!(err.line, 2, "{err}");
    assert!(err.message.contains("`void` object has no layout"), "{err}");
    let err = compile("int x;\nstruct T {\n  int a;\n  void v;\n};").expect_err("void field");
    assert_eq!(err.line, 4, "{err}");
    assert!(err.message.contains("`void` object has no layout"), "{err}");
    let err = compile("struct T { struct U u; };\nstruct U { int a; };").expect_err("forward use");
    assert_eq!(err.line, 1, "{err}");
    assert!(
        err.message
            .contains("struct `U` used by value before its definition"),
        "{err}"
    );
    assert!(err.to_string().starts_with("line 1: "), "{err}");
}
