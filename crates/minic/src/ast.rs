//! Abstract syntax of mini-C after parsing (types already resolved
//! through typedefs).

/// A resolved mini-C type.
///
/// Scalar C types (`int`, `unsigned`, `bool`, enums, ...) all collapse to
/// [`CType::Int`]: LSL is untyped, and the front-end only needs types for
/// struct-field resolution and layout.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CType {
    /// No value (function returns).
    Void,
    /// Any scalar integer-like value.
    Int,
    /// A struct value, by struct name.
    Struct(String),
    /// Pointer to another type.
    Ptr(Box<CType>),
}

impl CType {
    /// Wraps in a pointer.
    pub fn ptr(self) -> CType {
        CType::Ptr(Box::new(self))
    }

    /// Strips one pointer level.
    pub fn deref(&self) -> Option<&CType> {
        match self {
            CType::Ptr(inner) => Some(inner),
            _ => None,
        }
    }

    /// `true` for types a register can hold (int or pointer).
    pub fn is_scalar(&self) -> bool {
        matches!(self, CType::Int | CType::Ptr(_))
    }
}

/// One struct field.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StructField {
    /// Field name.
    pub name: String,
    /// Element type.
    pub ty: CType,
    /// `Some(n)` for `ty name[n]`.
    pub array: Option<u32>,
    /// Source line of the field's declarator.
    pub line: usize,
}

/// A top-level item.
#[derive(Clone, PartialEq, Debug)]
pub enum Item {
    /// A struct definition.
    Struct {
        /// Struct name (tag or typedef name for anonymous structs).
        name: String,
        /// Ordered fields.
        fields: Vec<StructField>,
    },
    /// A global variable.
    Global {
        /// Variable name.
        name: String,
        /// Element type.
        ty: CType,
        /// `Some(n)` for arrays.
        array: Option<u32>,
        /// Source line of the declarator.
        line: usize,
    },
    /// A function definition or extern declaration.
    Func(Func),
}

/// A function.
#[derive(Clone, PartialEq, Debug)]
pub struct Func {
    /// Function name.
    pub name: String,
    /// Return type.
    pub ret: CType,
    /// Parameters.
    pub params: Vec<(String, CType)>,
    /// `None` for extern declarations.
    pub body: Option<Vec<CStmt>>,
    /// Source line of the definition.
    pub line: usize,
}

/// A statement.
#[derive(Clone, PartialEq, Debug)]
pub enum CStmt {
    /// `{ ... }`
    Block(Vec<CStmt>),
    /// `if (cond) ... else ...`
    If {
        /// Condition.
        cond: CExpr,
        /// Then branch.
        then_branch: Vec<CStmt>,
        /// Else branch (empty when absent).
        else_branch: Vec<CStmt>,
    },
    /// `while (cond) ...`; `spin` marks a retry loop whose failing
    /// iterations are side-effect free (the paper's spin-loop reduction
    /// applies: executions needing more than the configured number of
    /// iterations are assumed away).
    While {
        /// Loop condition.
        cond: CExpr,
        /// Body.
        body: Vec<CStmt>,
        /// `true` for `spin while`.
        spin: bool,
    },
    /// `do ... while (cond);` — `spin` marks the paper's spin-loop
    /// reduction (`spinwhile`).
    DoWhile {
        /// Body.
        body: Vec<CStmt>,
        /// Loop condition.
        cond: CExpr,
        /// `true` for `spinwhile`.
        spin: bool,
    },
    /// `return e?;`
    Return(Option<CExpr>),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// Local declaration.
    Local {
        /// Variable name.
        name: String,
        /// Declared type.
        ty: CType,
        /// Optional initializer.
        init: Option<CExpr>,
        /// Source line.
        line: usize,
    },
    /// Expression statement.
    Expr(CExpr),
    /// `atomic { ... }`
    Atomic(Vec<CStmt>),
}

/// Unary operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UnOp {
    /// `!e`
    Not,
    /// `-e`
    Neg,
    /// `*e`
    Deref,
    /// `&e`
    AddrOf,
}

/// Binary operators (short-circuiting `&&`/`||` included; the lowering
/// expands them into control flow).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CBinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    And,
    /// `||`
    Or,
}

/// An expression.
#[derive(Clone, PartialEq, Debug)]
pub enum CExpr {
    /// Integer literal.
    Num(i64),
    /// Variable reference.
    Ident(String),
    /// String literal (fence kinds only).
    Str(String),
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<CExpr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: CBinOp,
        /// Left operand.
        lhs: Box<CExpr>,
        /// Right operand.
        rhs: Box<CExpr>,
    },
    /// Assignment (an expression in C; mini-C restricts it to statement
    /// position and initializers).
    Assign {
        /// Target lvalue.
        lhs: Box<CExpr>,
        /// Source.
        rhs: Box<CExpr>,
    },
    /// `cond ? a : b`
    Ternary {
        /// Condition.
        cond: Box<CExpr>,
        /// Value when true.
        then_e: Box<CExpr>,
        /// Value when false.
        else_e: Box<CExpr>,
    },
    /// Function call.
    Call {
        /// Callee name.
        name: String,
        /// Arguments.
        args: Vec<CExpr>,
    },
    /// `base.field` or `base->field`.
    Field {
        /// Base expression.
        base: Box<CExpr>,
        /// Field name.
        field: String,
        /// `true` for `->`.
        arrow: bool,
    },
    /// `base[index]`
    Index {
        /// Base expression (array lvalue or pointer).
        base: Box<CExpr>,
        /// Index expression.
        index: Box<CExpr>,
    },
    /// `(type) e` — type annotation only; no runtime effect.
    Cast {
        /// Target type.
        ty: CType,
        /// Operand.
        expr: Box<CExpr>,
    },
}
