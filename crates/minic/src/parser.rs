//! Recursive-descent parser for mini-C.
//!
//! The accepted language is the C subset the five studied algorithms need
//! (paper §3.1 "C features"): structs, pointers, arrays, typedefs, enums,
//! functions, loops, `atomic` blocks, `fence("...")` calls, casts, and the
//! `spinwhile` / `commit` extensions described in the crate docs.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{CBinOp, CExpr, CStmt, CType, Func, Item, StructField, UnOp};
use crate::error::MinicError;
use crate::lexer::lex;
use crate::token::{Spanned, Token};

/// A parsed translation unit.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Ast {
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

/// Parses mini-C source text.
///
/// # Errors
///
/// Returns [`MinicError`] with a source line on any lexical or syntactic
/// problem.
pub fn parse(source: &str) -> Result<Ast, MinicError> {
    let tokens = lex(source)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        typedefs: BTreeMap::new(),
        struct_names: BTreeSet::new(),
        enum_consts: BTreeMap::new(),
    };
    p.parse_unit()
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    typedefs: BTreeMap<String, CType>,
    struct_names: BTreeSet<String>,
    enum_consts: BTreeMap<String, i64>,
}

const BASE_TYPES: &[&str] = &["int", "unsigned", "long", "short", "char", "bool", "void"];
const QUALIFIERS: &[&str] = &[
    "extern", "static", "inline", "volatile", "const", "register",
];

impl Parser {
    // ------------------------------------------------------------ utilities

    fn peek(&self) -> &Token {
        &self.tokens[self.pos].token
    }

    fn peek_at(&self, off: usize) -> &Token {
        let i = (self.pos + off).min(self.tokens.len() - 1);
        &self.tokens[i].token
    }

    fn line(&self) -> usize {
        self.tokens[self.pos].line
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].token.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Token) -> Result<(), MinicError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(MinicError::new(
                self.line(),
                format!("expected {t}, found {}", self.peek()),
            ))
        }
    }

    fn expect_ident(&mut self) -> Result<String, MinicError> {
        match self.peek().clone() {
            Token::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(MinicError::new(
                self.line(),
                format!("expected identifier, found {other}"),
            )),
        }
    }

    fn eat_ident(&mut self, name: &str) -> bool {
        if matches!(self.peek(), Token::Ident(s) if s == name) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn skip_qualifiers(&mut self) {
        loop {
            match self.peek() {
                Token::Ident(s) if QUALIFIERS.contains(&s.as_str()) => {
                    self.bump();
                }
                _ => break,
            }
        }
    }

    fn is_type_start(&self) -> bool {
        match self.peek() {
            Token::Ident(s) => {
                s == "struct" || BASE_TYPES.contains(&s.as_str()) || self.typedefs.contains_key(s)
            }
            _ => false,
        }
    }

    // ---------------------------------------------------------------- types

    /// Parses a type including pointer stars.
    fn parse_type(&mut self) -> Result<CType, MinicError> {
        self.skip_qualifiers();
        let base = if self.eat_ident("struct") {
            let name = self.expect_ident()?;
            self.struct_names.insert(name.clone());
            CType::Struct(name)
        } else {
            match self.peek().clone() {
                Token::Ident(s) if BASE_TYPES.contains(&s.as_str()) => {
                    self.bump();
                    // Consume multi-word scalars: `unsigned int`, `long long`, ...
                    if s != "void" && s != "bool" {
                        while matches!(self.peek(), Token::Ident(w)
                            if ["int", "long", "short", "char"].contains(&w.as_str()))
                        {
                            self.bump();
                        }
                    }
                    if s == "void" {
                        CType::Void
                    } else {
                        CType::Int
                    }
                }
                Token::Ident(s) if self.typedefs.contains_key(&s) => {
                    self.bump();
                    self.typedefs[&s].clone()
                }
                other => {
                    return Err(MinicError::new(
                        self.line(),
                        format!("expected a type, found {other}"),
                    ))
                }
            }
        };
        Ok(self.parse_stars(base))
    }

    fn parse_stars(&mut self, mut ty: CType) -> CType {
        while self.eat(&Token::Star) {
            ty = ty.ptr();
        }
        ty
    }

    // ------------------------------------------------------------ top level

    fn parse_unit(&mut self) -> Result<Ast, MinicError> {
        let mut items = Vec::new();
        while self.peek() != &Token::Eof {
            self.skip_qualifiers();
            if self.eat_ident("typedef") {
                items.extend(self.parse_typedef()?);
            } else if matches!(self.peek(), Token::Ident(s) if s == "struct")
                && matches!(self.peek_at(1), Token::Ident(_))
                && self.peek_at(2) == &Token::LBrace
            {
                items.push(self.parse_struct_def()?);
                self.expect(&Token::Semi)?;
            } else {
                items.extend(self.parse_global_or_func()?);
            }
        }
        Ok(Ast { items })
    }

    fn parse_typedef(&mut self) -> Result<Vec<Item>, MinicError> {
        let mut items = Vec::new();
        if self.eat_ident("enum") {
            self.expect(&Token::LBrace)?;
            let mut next = 0i64;
            loop {
                let name = self.expect_ident()?;
                if self.eat(&Token::Assign) {
                    match self.bump() {
                        Token::Num(n) => next = n,
                        other => {
                            return Err(MinicError::new(
                                self.line(),
                                format!("expected enum value, found {other}"),
                            ))
                        }
                    }
                }
                self.enum_consts.insert(name, next);
                next += 1;
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RBrace)?;
            let alias = self.expect_ident()?;
            self.typedefs.insert(alias, CType::Int);
            self.expect(&Token::Semi)?;
        } else if matches!(self.peek(), Token::Ident(s) if s == "struct")
            && (self.peek_at(1) == &Token::LBrace
                || (matches!(self.peek_at(1), Token::Ident(_))
                    && self.peek_at(2) == &Token::LBrace))
        {
            // typedef struct [tag] { ... } alias;
            self.bump(); // struct
            let tag = if matches!(self.peek(), Token::Ident(_)) {
                Some(self.expect_ident()?)
            } else {
                None
            };
            let fields = self.parse_struct_body()?;
            let alias = self.expect_ident()?;
            let name = tag.unwrap_or_else(|| alias.clone());
            self.struct_names.insert(name.clone());
            self.typedefs.insert(alias, CType::Struct(name.clone()));
            items.push(Item::Struct { name, fields });
            self.expect(&Token::Semi)?;
        } else {
            // typedef <type> alias;
            let ty = self.parse_type()?;
            let alias = self.expect_ident()?;
            self.typedefs.insert(alias, ty);
            self.expect(&Token::Semi)?;
        }
        Ok(items)
    }

    fn parse_struct_def(&mut self) -> Result<Item, MinicError> {
        self.bump(); // struct
        let name = self.expect_ident()?;
        self.struct_names.insert(name.clone());
        let fields = self.parse_struct_body()?;
        Ok(Item::Struct { name, fields })
    }

    fn parse_struct_body(&mut self) -> Result<Vec<StructField>, MinicError> {
        self.expect(&Token::LBrace)?;
        let mut fields = Vec::new();
        while !self.eat(&Token::RBrace) {
            let base = self.parse_type_no_stars()?;
            loop {
                let ty = self.parse_stars(base.clone());
                let line = self.line();
                let name = self.expect_ident()?;
                let array = self.parse_array_suffix()?;
                fields.push(StructField {
                    name,
                    ty,
                    array,
                    line,
                });
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::Semi)?;
        }
        Ok(fields)
    }

    /// Parses a type *without* consuming trailing stars, so that
    /// `int a, *b;` can apply stars per declarator.
    fn parse_type_no_stars(&mut self) -> Result<CType, MinicError> {
        self.skip_qualifiers();
        if self.eat_ident("struct") {
            let name = self.expect_ident()?;
            self.struct_names.insert(name.clone());
            return Ok(CType::Struct(name));
        }
        match self.peek().clone() {
            Token::Ident(s) if BASE_TYPES.contains(&s.as_str()) => {
                self.bump();
                if s != "void" && s != "bool" {
                    while matches!(self.peek(), Token::Ident(w)
                        if ["int", "long", "short", "char"].contains(&w.as_str()))
                    {
                        self.bump();
                    }
                }
                Ok(if s == "void" { CType::Void } else { CType::Int })
            }
            Token::Ident(s) if self.typedefs.contains_key(&s) => {
                self.bump();
                Ok(self.typedefs[&s].clone())
            }
            other => Err(MinicError::new(
                self.line(),
                format!("expected a type, found {other}"),
            )),
        }
    }

    fn parse_array_suffix(&mut self) -> Result<Option<u32>, MinicError> {
        if self.eat(&Token::LBracket) {
            let n = match self.bump() {
                Token::Num(n) if n > 0 => n as u32,
                other => {
                    return Err(MinicError::new(
                        self.line(),
                        format!("expected positive array size, found {other}"),
                    ))
                }
            };
            self.expect(&Token::RBracket)?;
            Ok(Some(n))
        } else {
            Ok(None)
        }
    }

    fn parse_global_or_func(&mut self) -> Result<Vec<Item>, MinicError> {
        let line = self.line();
        let base = self.parse_type_no_stars()?;
        let ty = self.parse_stars(base.clone());
        let name = self.expect_ident()?;
        if self.peek() == &Token::LParen {
            // Function.
            self.bump();
            let mut params = Vec::new();
            if !self.eat(&Token::RParen) {
                if matches!(self.peek(), Token::Ident(s) if s == "void")
                    && self.peek_at(1) == &Token::RParen
                {
                    self.bump();
                    self.bump();
                } else {
                    loop {
                        let pty = self.parse_type()?;
                        let pname = self.expect_ident()?;
                        params.push((pname, pty));
                        if !self.eat(&Token::Comma) {
                            break;
                        }
                    }
                    self.expect(&Token::RParen)?;
                }
            }
            let body = if self.eat(&Token::Semi) {
                None // extern declaration
            } else {
                Some(self.parse_block()?)
            };
            return Ok(vec![Item::Func(Func {
                name,
                ret: ty,
                params,
                body,
                line,
            })]);
        }
        // Global variable(s).
        let mut items = Vec::new();
        let (mut ty, mut name, mut line) = (ty, name, line);
        loop {
            let array = self.parse_array_suffix()?;
            items.push(Item::Global {
                name,
                ty,
                array,
                line,
            });
            if !self.eat(&Token::Comma) {
                break;
            }
            ty = self.parse_stars(base.clone());
            line = self.line();
            name = self.expect_ident()?;
        }
        self.expect(&Token::Semi)?;
        Ok(items)
    }

    // ------------------------------------------------------------ statements

    fn parse_block(&mut self) -> Result<Vec<CStmt>, MinicError> {
        self.expect(&Token::LBrace)?;
        let mut stmts = Vec::new();
        while !self.eat(&Token::RBrace) {
            stmts.extend(self.parse_stmt()?);
        }
        Ok(stmts)
    }

    fn parse_stmt_as_block(&mut self) -> Result<Vec<CStmt>, MinicError> {
        if self.peek() == &Token::LBrace {
            self.parse_block()
        } else {
            self.parse_stmt()
        }
    }

    fn parse_stmt(&mut self) -> Result<Vec<CStmt>, MinicError> {
        let line = self.line();
        match self.peek().clone() {
            Token::Semi => {
                self.bump();
                Ok(vec![])
            }
            Token::LBrace => Ok(vec![CStmt::Block(self.parse_block()?)]),
            Token::Ident(s) if s == "if" => {
                self.bump();
                self.expect(&Token::LParen)?;
                let cond = self.parse_expr()?;
                self.expect(&Token::RParen)?;
                let then_branch = self.parse_stmt_as_block()?;
                let else_branch = if self.eat_ident("else") {
                    self.parse_stmt_as_block()?
                } else {
                    Vec::new()
                };
                Ok(vec![CStmt::If {
                    cond,
                    then_branch,
                    else_branch,
                }])
            }
            Token::Ident(s) if s == "while" => {
                self.bump();
                self.expect(&Token::LParen)?;
                let cond = self.parse_expr()?;
                self.expect(&Token::RParen)?;
                let body = self.parse_stmt_as_block()?;
                Ok(vec![CStmt::While {
                    cond,
                    body,
                    spin: false,
                }])
            }
            Token::Ident(s)
                if s == "spin" && matches!(self.peek_at(1), Token::Ident(w) if w == "while") =>
            {
                self.bump();
                self.bump();
                self.expect(&Token::LParen)?;
                let cond = self.parse_expr()?;
                self.expect(&Token::RParen)?;
                let body = self.parse_stmt_as_block()?;
                Ok(vec![CStmt::While {
                    cond,
                    body,
                    spin: true,
                }])
            }
            Token::Ident(s) if s == "do" => {
                self.bump();
                let body = self.parse_stmt_as_block()?;
                let spin = if self.eat_ident("while") {
                    false
                } else if self.eat_ident("spinwhile") {
                    true
                } else {
                    return Err(MinicError::new(
                        self.line(),
                        format!("expected `while` or `spinwhile`, found {}", self.peek()),
                    ));
                };
                self.expect(&Token::LParen)?;
                let cond = self.parse_expr()?;
                self.expect(&Token::RParen)?;
                self.expect(&Token::Semi)?;
                Ok(vec![CStmt::DoWhile { body, cond, spin }])
            }
            Token::Ident(s) if s == "return" => {
                self.bump();
                let e = if self.peek() == &Token::Semi {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                self.expect(&Token::Semi)?;
                Ok(vec![CStmt::Return(e)])
            }
            Token::Ident(s) if s == "break" => {
                self.bump();
                self.expect(&Token::Semi)?;
                Ok(vec![CStmt::Break])
            }
            Token::Ident(s) if s == "continue" => {
                self.bump();
                self.expect(&Token::Semi)?;
                Ok(vec![CStmt::Continue])
            }
            Token::Ident(s) if s == "atomic" && self.peek_at(1) == &Token::LBrace => {
                self.bump();
                Ok(vec![CStmt::Atomic(self.parse_block()?)])
            }
            _ if self.is_type_start() => {
                // Local declaration(s). Disambiguate from expressions like
                // `q->head = x;` — those never start with a type name.
                let base = self.parse_type_no_stars()?;
                let mut out = Vec::new();
                loop {
                    let ty = self.parse_stars(base.clone());
                    let name = self.expect_ident()?;
                    let init = if self.eat(&Token::Assign) {
                        Some(self.parse_assign_expr()?)
                    } else {
                        None
                    };
                    out.push(CStmt::Local {
                        name,
                        ty,
                        init,
                        line,
                    });
                    if !self.eat(&Token::Comma) {
                        break;
                    }
                }
                self.expect(&Token::Semi)?;
                Ok(out)
            }
            _ => {
                let e = self.parse_expr()?;
                self.expect(&Token::Semi)?;
                Ok(vec![CStmt::Expr(e)])
            }
        }
    }

    // ----------------------------------------------------------- expressions

    fn parse_expr(&mut self) -> Result<CExpr, MinicError> {
        self.parse_assign_expr()
    }

    fn parse_assign_expr(&mut self) -> Result<CExpr, MinicError> {
        let lhs = self.parse_ternary()?;
        if self.eat(&Token::Assign) {
            let rhs = self.parse_assign_expr()?;
            Ok(CExpr::Assign {
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            })
        } else {
            Ok(lhs)
        }
    }

    fn parse_ternary(&mut self) -> Result<CExpr, MinicError> {
        let cond = self.parse_or()?;
        if self.eat(&Token::Question) {
            let then_e = self.parse_expr()?;
            self.expect(&Token::Colon)?;
            let else_e = self.parse_ternary()?;
            Ok(CExpr::Ternary {
                cond: Box::new(cond),
                then_e: Box::new(then_e),
                else_e: Box::new(else_e),
            })
        } else {
            Ok(cond)
        }
    }

    fn parse_or(&mut self) -> Result<CExpr, MinicError> {
        let mut lhs = self.parse_and()?;
        while self.eat(&Token::PipePipe) {
            let rhs = self.parse_and()?;
            lhs = CExpr::Binary {
                op: CBinOp::Or,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<CExpr, MinicError> {
        let mut lhs = self.parse_equality()?;
        while self.eat(&Token::AmpAmp) {
            let rhs = self.parse_equality()?;
            lhs = CExpr::Binary {
                op: CBinOp::And,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_equality(&mut self) -> Result<CExpr, MinicError> {
        let mut lhs = self.parse_relational()?;
        loop {
            let op = if self.eat(&Token::Eq) {
                CBinOp::Eq
            } else if self.eat(&Token::Ne) {
                CBinOp::Ne
            } else {
                break;
            };
            let rhs = self.parse_relational()?;
            lhs = CExpr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_relational(&mut self) -> Result<CExpr, MinicError> {
        let mut lhs = self.parse_additive()?;
        loop {
            let op = if self.eat(&Token::Lt) {
                CBinOp::Lt
            } else if self.eat(&Token::Le) {
                CBinOp::Le
            } else if self.eat(&Token::Gt) {
                CBinOp::Gt
            } else if self.eat(&Token::Ge) {
                CBinOp::Ge
            } else {
                break;
            };
            let rhs = self.parse_additive()?;
            lhs = CExpr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_additive(&mut self) -> Result<CExpr, MinicError> {
        let mut lhs = self.parse_term()?;
        loop {
            let op = if self.eat(&Token::Plus) {
                CBinOp::Add
            } else if self.eat(&Token::Minus) {
                CBinOp::Sub
            } else {
                break;
            };
            let rhs = self.parse_term()?;
            lhs = CExpr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_term(&mut self) -> Result<CExpr, MinicError> {
        let mut lhs = self.parse_unary()?;
        while self.peek() == &Token::Star {
            self.bump();
            let rhs = self.parse_unary()?;
            lhs = CExpr::Binary {
                op: CBinOp::Mul,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<CExpr, MinicError> {
        match self.peek().clone() {
            Token::Bang => {
                self.bump();
                Ok(CExpr::Unary {
                    op: UnOp::Not,
                    expr: Box::new(self.parse_unary()?),
                })
            }
            Token::Minus => {
                self.bump();
                let e = self.parse_unary()?;
                Ok(match e {
                    CExpr::Num(n) => CExpr::Num(-n),
                    other => CExpr::Unary {
                        op: UnOp::Neg,
                        expr: Box::new(other),
                    },
                })
            }
            Token::Star => {
                self.bump();
                Ok(CExpr::Unary {
                    op: UnOp::Deref,
                    expr: Box::new(self.parse_unary()?),
                })
            }
            Token::Amp => {
                self.bump();
                Ok(CExpr::Unary {
                    op: UnOp::AddrOf,
                    expr: Box::new(self.parse_unary()?),
                })
            }
            Token::LParen => {
                // Cast or grouping: `(type)` vs `(expr)`.
                let save = self.pos;
                self.bump();
                if self.is_type_start() {
                    let ty = self.parse_type()?;
                    if self.eat(&Token::RParen) {
                        let expr = self.parse_unary()?;
                        return Ok(CExpr::Cast {
                            ty,
                            expr: Box::new(expr),
                        });
                    }
                    // Not a cast after all (e.g. a typedef-shadowing local);
                    // rewind and parse as a grouped expression.
                    self.pos = save;
                    self.bump();
                }
                let e = self.parse_expr()?;
                self.expect(&Token::RParen)?;
                self.parse_postfix_ops(e)
            }
            _ => self.parse_postfix(),
        }
    }

    fn parse_postfix(&mut self) -> Result<CExpr, MinicError> {
        let start_line = self.line();
        let prim = match self.bump() {
            Token::Num(n) => CExpr::Num(n),
            Token::Str(s) => CExpr::Str(s),
            Token::Ident(s) => {
                if s == "true" {
                    CExpr::Num(1)
                } else if s == "false" || s == "NULL" {
                    CExpr::Num(0)
                } else if let Some(&v) = self.enum_consts.get(&s) {
                    CExpr::Num(v)
                } else if self.peek() == &Token::LParen {
                    // Call.
                    self.bump();
                    let mut args = Vec::new();
                    if !self.eat(&Token::RParen) {
                        loop {
                            args.push(self.parse_assign_expr()?);
                            if !self.eat(&Token::Comma) {
                                break;
                            }
                        }
                        self.expect(&Token::RParen)?;
                    }
                    CExpr::Call { name: s, args }
                } else {
                    CExpr::Ident(s)
                }
            }
            other => {
                return Err(MinicError::new(
                    start_line,
                    format!("expected an expression, found {other}"),
                ))
            }
        };
        self.parse_postfix_ops(prim)
    }

    fn parse_postfix_ops(&mut self, mut e: CExpr) -> Result<CExpr, MinicError> {
        loop {
            if self.eat(&Token::Arrow) {
                let field = self.expect_ident()?;
                e = CExpr::Field {
                    base: Box::new(e),
                    field,
                    arrow: true,
                };
            } else if self.eat(&Token::Dot) {
                let field = self.expect_ident()?;
                e = CExpr::Field {
                    base: Box::new(e),
                    field,
                    arrow: false,
                };
            } else if self.eat(&Token::LBracket) {
                let index = self.parse_expr()?;
                self.expect(&Token::RBracket)?;
                e = CExpr::Index {
                    base: Box::new(e),
                    index: Box::new(index),
                };
            } else {
                return Ok(e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_struct_typedef_and_func() {
        let src = r#"
            typedef struct node {
                struct node *next;
                int value;
            } node_t;
            node_t *head;
            int get(node_t *n) { return n->value; }
        "#;
        let ast = parse(src).expect("parses");
        assert_eq!(ast.items.len(), 3);
        match &ast.items[0] {
            Item::Struct { name, fields } => {
                assert_eq!(name, "node");
                assert_eq!(fields.len(), 2);
                assert_eq!(fields[0].ty, CType::Struct("node".into()).ptr());
            }
            other => panic!("expected struct, got {other:?}"),
        }
        match &ast.items[2] {
            Item::Func(f) => {
                assert_eq!(f.name, "get");
                assert_eq!(f.params[0].1, CType::Struct("node".into()).ptr());
            }
            other => panic!("expected func, got {other:?}"),
        }
    }

    #[test]
    fn parses_enum_typedef() {
        let src = "typedef enum { free, held } lock_t; lock_t l;";
        let ast = parse(src).expect("parses");
        assert!(matches!(&ast.items[0], Item::Global { ty: CType::Int, .. }));
    }

    #[test]
    fn enum_constants_become_numbers() {
        let src = r#"
            typedef enum { free, held } lock_t;
            void f(lock_t *l) { *l = held; }
        "#;
        let ast = parse(src).expect("parses");
        let Item::Func(f) = &ast.items[0] else {
            panic!()
        };
        let body = f.body.as_ref().expect("has body");
        match &body[0] {
            CStmt::Expr(CExpr::Assign { rhs, .. }) => {
                assert_eq!(**rhs, CExpr::Num(1));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_control_flow() {
        let src = r#"
            void f(int x) {
                while (true) {
                    if (x == 0) break;
                    x = x - 1;
                }
                do { x = x + 1; } spinwhile (x < 3);
            }
        "#;
        let ast = parse(src).expect("parses");
        let Item::Func(f) = &ast.items[0] else {
            panic!()
        };
        let body = f.body.as_ref().expect("has body");
        assert!(matches!(&body[0], CStmt::While { spin: false, .. }));
        assert!(matches!(&body[1], CStmt::DoWhile { spin: true, .. }));
    }

    #[test]
    fn parses_casts_and_calls() {
        let src = r#"
            int cas(void *loc, unsigned old, unsigned new_);
            void f(int *t, int *n) {
                cas(t, (unsigned) n, (unsigned) 0);
            }
        "#;
        let ast = parse(src).expect("parses");
        let Item::Func(f) = &ast.items[1] else {
            panic!()
        };
        match &f.body.as_ref().expect("body")[0] {
            CStmt::Expr(CExpr::Call { name, args }) => {
                assert_eq!(name, "cas");
                assert_eq!(args.len(), 3);
                assert!(matches!(&args[1], CExpr::Cast { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_atomic_blocks() {
        let src = r#"
            void f(int *l) {
                atomic {
                    if (*l == 0) { *l = 1; }
                }
            }
        "#;
        let ast = parse(src).expect("parses");
        let Item::Func(f) = &ast.items[0] else {
            panic!()
        };
        assert!(matches!(
            &f.body.as_ref().expect("body")[0],
            CStmt::Atomic(_)
        ));
    }

    #[test]
    fn parses_multi_declarators() {
        let src = "void f() { int *a, b, *c; }";
        let ast = parse(src).expect("parses");
        let Item::Func(f) = &ast.items[0] else {
            panic!()
        };
        let body = f.body.as_ref().expect("body");
        assert_eq!(body.len(), 3);
        assert!(
            matches!(
                &body[0],
                CStmt::Local {
                    ty: CType::Ptr(_),
                    ..
                }
            ),
            "first is pointer"
        );
        assert!(matches!(&body[1], CStmt::Local { ty: CType::Int, .. }));
    }

    #[test]
    fn reports_error_lines() {
        let err = parse("void f() {\n  int x = ;\n}").expect_err("bad init");
        assert_eq!(err.line, 2);
    }

    #[test]
    fn precedence() {
        let src = "void f(int a, int b, int c) { a = b == 0 && c != 1 || a < b + 1; }";
        assert!(parse(src).is_ok());
    }
}
