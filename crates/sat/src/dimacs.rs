//! DIMACS CNF reading and writing, for debugging and golden tests.

use std::fmt::Write as _;

use crate::solver::Solver;
use crate::types::Lit;

/// A parse error with a line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDimacsError {
    /// 1-based line of the offending input.
    pub line: usize,
    /// Explanation of the problem.
    pub message: String,
}

impl std::fmt::Display for ParseDimacsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseDimacsError {}

/// A CNF formula in clausal form.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cnf {
    /// Number of variables (may exceed the largest used index).
    pub num_vars: usize,
    /// The clauses.
    pub clauses: Vec<Vec<Lit>>,
}

impl Cnf {
    /// Parses DIMACS text. The `p cnf` header is optional; comment lines
    /// start with `c`. Literals range over `1 ..= 2^31` in magnitude, as
    /// [`Lit::from_dimacs`] requires, and the header's variable count is
    /// at most 2^31.
    ///
    /// # Errors
    ///
    /// Returns [`ParseDimacsError`] on malformed literals or headers, and
    /// on a literal or variable count beyond that range.
    pub fn parse(text: &str) -> Result<Cnf, ParseDimacsError> {
        let mut cnf = Cnf::default();
        let mut current: Vec<Lit> = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('c') {
                continue;
            }
            if let Some(rest) = line.strip_prefix('p') {
                let mut parts = rest.split_whitespace();
                if parts.next() != Some("cnf") {
                    return Err(ParseDimacsError {
                        line: lineno + 1,
                        message: "expected `p cnf <vars> <clauses>`".into(),
                    });
                }
                let vars = parts.next().and_then(|s| s.parse::<u64>().ok());
                match vars {
                    Some(v) if v <= Lit::MAX_DIMACS => cnf.num_vars = cnf.num_vars.max(v as usize),
                    Some(v) => {
                        return Err(ParseDimacsError {
                            line: lineno + 1,
                            message: format!("variable count {v} is beyond 2^31"),
                        })
                    }
                    None => {
                        return Err(ParseDimacsError {
                            line: lineno + 1,
                            message: "bad variable count".into(),
                        })
                    }
                }
                continue;
            }
            for tok in line.split_whitespace() {
                let code: i64 = tok.parse().map_err(|_| ParseDimacsError {
                    line: lineno + 1,
                    message: format!("bad literal `{tok}`"),
                })?;
                if code == 0 {
                    cnf.clauses.push(std::mem::take(&mut current));
                } else if code.unsigned_abs() > Lit::MAX_DIMACS {
                    return Err(ParseDimacsError {
                        line: lineno + 1,
                        message: format!("literal `{tok}` is beyond 2^31 in magnitude"),
                    });
                } else {
                    let l = Lit::from_dimacs(code);
                    cnf.num_vars = cnf.num_vars.max(l.var().index() + 1);
                    current.push(l);
                }
            }
        }
        if !current.is_empty() {
            cnf.clauses.push(current);
        }
        Ok(cnf)
    }

    /// Renders the formula as DIMACS text.
    ///
    /// The header's variable count covers every literal actually used,
    /// even when `num_vars` understates it (a programmatically built
    /// formula need not keep the field in sync) — so `parse` is a left
    /// inverse of this writer and the header is valid for external
    /// tools.
    pub fn to_dimacs(&self) -> String {
        let used = self
            .clauses
            .iter()
            .flatten()
            .map(|l| l.var().index() + 1)
            .max()
            .unwrap_or(0);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "p cnf {} {}",
            self.num_vars.max(used),
            self.clauses.len()
        );
        for c in &self.clauses {
            for l in c {
                let _ = write!(out, "{} ", l.to_dimacs());
            }
            let _ = writeln!(out, "0");
        }
        out
    }

    /// Loads the formula into a fresh solver.
    pub fn to_solver(&self) -> Solver {
        let mut s = Solver::new();
        while s.num_vars() < self.num_vars {
            s.new_var();
        }
        for c in &self.clauses {
            s.add_clause(c.iter().copied());
        }
        s
    }

    /// Evaluates the formula under a total assignment
    /// (`assignment[i]` is the value of variable `i`).
    pub fn eval(&self, assignment: &[bool]) -> bool {
        self.clauses.iter().all(|c| {
            c.iter()
                .any(|l| assignment.get(l.var().index()).copied().unwrap_or(false) == l.sign())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SolveResult;

    #[test]
    fn parse_and_solve() {
        let cnf = Cnf::parse("c comment\np cnf 3 2\n1 -2 0\n2 3 0\n").expect("parses");
        assert_eq!(cnf.num_vars, 3);
        assert_eq!(cnf.clauses.len(), 2);
        let mut s = cnf.to_solver();
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn roundtrip() {
        let cnf = Cnf::parse("1 2 0 -1 0").expect("parses");
        let again = Cnf::parse(&cnf.to_dimacs()).expect("parses");
        assert_eq!(cnf, again);
    }

    #[test]
    fn writer_parser_roundtrip_with_empty_clauses_and_comments() {
        // Empty clauses (a lone `0`), interleaved comments, a clause
        // split across lines, and a comment between a clause's literals
        // must all survive a parse → write → parse round trip.
        let text = "c header comment\n\
                    p cnf 4 4\n\
                    0\n\
                    1 -2\n\
                    c mid-clause comment\n\
                    3 0\n\
                    -4 0\n\
                    c trailing comment\n\
                    0\n";
        let cnf = Cnf::parse(text).expect("parses");
        assert_eq!(cnf.clauses.len(), 4);
        assert_eq!(cnf.clauses[0], vec![]);
        assert_eq!(cnf.clauses[3], vec![]);
        assert_eq!(cnf.clauses[1].len(), 3, "clause may span lines");
        let written = cnf.to_dimacs();
        let again = Cnf::parse(&written).expect("round-trips");
        assert_eq!(cnf, again);
        // Idempotence of the canonical form.
        assert_eq!(written, again.to_dimacs());
    }

    #[test]
    fn writer_header_covers_all_used_variables() {
        // A programmatically built formula whose `num_vars` understates
        // the literals used: the writer must not emit an invalid header,
        // and the round trip must be the identity on clauses with
        // `num_vars` corrected to the true count.
        let cnf = Cnf {
            num_vars: 1,
            clauses: vec![vec![Lit::from_dimacs(1), Lit::from_dimacs(-7)], vec![]],
        };
        let written = cnf.to_dimacs();
        assert!(written.starts_with("p cnf 7 2"), "{written}");
        let again = Cnf::parse(&written).expect("parses");
        assert_eq!(again.num_vars, 7);
        assert_eq!(again.clauses, cnf.clauses);
        // A second trip is the identity.
        assert_eq!(Cnf::parse(&again.to_dimacs()).expect("parses"), again);
    }

    #[test]
    fn empty_formula_roundtrip() {
        let cnf = Cnf {
            num_vars: 3,
            clauses: vec![],
        };
        let again = Cnf::parse(&cnf.to_dimacs()).expect("parses");
        assert_eq!(again, cnf, "declared-but-unused variables survive");
    }

    #[test]
    fn rejects_garbage() {
        assert!(Cnf::parse("1 x 0").is_err());
        assert!(Cnf::parse("p dnf 1 1").is_err());
        // Literals a `Lit` cannot encode: 2^31 + 1 and 2^32 + 1 used to
        // wrap to the clause [1], and 2^32 to overflow.
        for tok in ["2147483649", "4294967297", "4294967296", "-2147483649"] {
            let err = Cnf::parse(&format!("c big\n1 2 0\n{tok} 0\n")).unwrap_err();
            assert_eq!(err.line, 3, "{tok}: {err}");
            assert!(err.message.contains("beyond 2^31"), "{tok}: {err}");
        }
        let err = Cnf::parse("p cnf 2147483649 1\n1 0\n").unwrap_err();
        assert_eq!(
            (err.line, err.message.contains("beyond 2^31")),
            (1, true),
            "{err}"
        );
        // The ends of the range still parse.
        let cnf = Cnf::parse("p cnf 2147483648 1\n-2147483648 0\n").expect("parses");
        assert_eq!(cnf.num_vars, 1 << 31);
        assert_eq!(cnf.clauses, vec![vec![Lit::from_dimacs(-(1 << 31))]]);
    }

    #[test]
    fn eval_checks_all_clauses() {
        let cnf = Cnf::parse("1 2 0 -1 0").expect("parses");
        assert!(cnf.eval(&[false, true]));
        assert!(!cnf.eval(&[true, true]));
    }
}
