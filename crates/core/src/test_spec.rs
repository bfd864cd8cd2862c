//! Symbolic test programs in the notation of paper Fig. 8.
//!
//! A test specifies a finite sequence of operation invocations for each
//! thread, written `init ( thread1 | thread2 | ... )` where each letter
//! invokes one operation and a prime restricts retry loops to a single
//! iteration. For example the queue test `Ti2 = e ( ed | de )` enqueues
//! once during initialization, then runs two threads performing
//! enqueue-dequeue and dequeue-enqueue respectively.

use std::fmt;

/// One operation invocation in a test.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OpInvocation {
    /// Operation key (one letter in the DSL, e.g. `e` for enqueue).
    pub key: char,
    /// Primed invocations assume retry loops exit on the first iteration.
    pub primed: bool,
}

/// A parsed symbolic test.
///
/// # Examples
///
/// ```
/// use checkfence::TestSpec;
/// let t = TestSpec::parse("Ti2", "e ( ed | de )").expect("parses");
/// assert_eq!(t.init.len(), 1);
/// assert_eq!(t.threads.len(), 2);
/// assert_eq!(t.threads[0].len(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TestSpec {
    /// Display name (e.g. `Ti2`).
    pub name: String,
    /// Initialization sequence executed before the threads start.
    pub init: Vec<OpInvocation>,
    /// Per-thread operation sequences.
    pub threads: Vec<Vec<OpInvocation>>,
}

/// Error parsing the test DSL.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseTestError {
    /// Explanation.
    pub message: String,
}

impl fmt::Display for ParseTestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad test spec: {}", self.message)
    }
}

impl std::error::Error for ParseTestError {}

impl TestSpec {
    /// Parses the Fig. 8 notation: optional init letters, then
    /// `( seq | seq | ... )`. Whitespace is ignored; `'` marks primed
    /// operations.
    ///
    /// # Errors
    ///
    /// Returns [`ParseTestError`] on malformed input (missing parentheses,
    /// stray characters, empty threads).
    pub fn parse(name: &str, text: &str) -> Result<TestSpec, ParseTestError> {
        let err = |m: &str| ParseTestError {
            message: format!("{m} in `{text}`"),
        };
        let open = text.find('(').ok_or_else(|| err("missing `(`"))?;
        let close = text.rfind(')').ok_or_else(|| err("missing `)`"))?;
        if close < open {
            return Err(err("`)` before `(`"));
        }
        let init = parse_seq(&text[..open]).map_err(|m| err(&m))?;
        let inner = &text[open + 1..close];
        if !text[close + 1..].trim().is_empty() {
            return Err(err("trailing characters after `)`"));
        }
        let mut threads = Vec::new();
        for part in inner.split('|') {
            let seq = parse_seq(part).map_err(|m| err(&m))?;
            if seq.is_empty() {
                return Err(err("empty thread"));
            }
            threads.push(seq);
        }
        if threads.is_empty() {
            return Err(err("no threads"));
        }
        Ok(TestSpec {
            name: name.to_string(),
            init,
            threads,
        })
    }

    /// Total number of operation invocations (init + threads).
    pub fn num_ops(&self) -> usize {
        self.init.len() + self.threads.iter().map(Vec::len).sum::<usize>()
    }

    /// All invocations in canonical order: init first, then thread by
    /// thread.
    pub fn all_ops(&self) -> impl Iterator<Item = &OpInvocation> {
        self.init.iter().chain(self.threads.iter().flatten())
    }
}

impl fmt::Display for TestSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let seq = |ops: &[OpInvocation]| -> String {
            ops.iter()
                .map(|o| {
                    if o.primed {
                        format!("{}'", o.key)
                    } else {
                        o.key.to_string()
                    }
                })
                .collect()
        };
        if !self.init.is_empty() {
            write!(f, "{} ", seq(&self.init))?;
        }
        let threads: Vec<String> = self.threads.iter().map(|t| seq(t)).collect();
        write!(f, "( {} )", threads.join(" | "))
    }
}

fn parse_seq(text: &str) -> Result<Vec<OpInvocation>, String> {
    let mut out: Vec<OpInvocation> = Vec::new();
    for c in text.chars() {
        if c.is_whitespace() {
            continue;
        }
        if c == '\'' {
            match out.last_mut() {
                Some(op) => op.primed = true,
                None => return Err("prime without operation".into()),
            }
        } else if c.is_ascii_alphabetic() {
            out.push(OpInvocation {
                key: c,
                primed: false,
            });
        } else {
            return Err(format!("unexpected character `{c}`"));
        }
    }
    Ok(out)
}

/// Signature of one data type operation as seen by tests.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OpSig {
    /// DSL key (e.g. `e`).
    pub key: char,
    /// Name of the wrapper procedure in the compiled program. The wrapper
    /// takes `num_args` integer arguments and returns at most one integer;
    /// arguments and return values form the observation vector.
    pub proc_name: String,
    /// Number of nondeterministic {0,1} arguments.
    pub num_args: usize,
    /// Whether the wrapper returns an observed value.
    pub has_ret: bool,
}

impl OpSig {
    /// Parses an operation declaration `KEY=PROC[:arg][:ret]`, with
    /// optional whitespace around each part: `p = put : arg` declares
    /// the one-argument operation `p` calling `put`.
    ///
    /// # Errors
    ///
    /// The reason the declaration is malformed; callers prefix it with
    /// where the declaration came from.
    pub fn parse(decl: &str) -> Result<OpSig, String> {
        let (key, rest) = decl
            .split_once('=')
            .ok_or("expected KEY=PROC[:arg][:ret]")?;
        let mut key_chars = key.trim().chars();
        let key = match (key_chars.next(), key_chars.next()) {
            (Some(c), None) => c,
            _ => return Err("KEY must be one character".into()),
        };
        let mut parts = rest.split(':');
        let proc_name = parts.next().unwrap_or_default().trim().to_string();
        if proc_name.is_empty() {
            return Err("missing procedure name".into());
        }
        let mut num_args = 0;
        let mut has_ret = false;
        for flag in parts {
            match flag.trim() {
                "arg" => num_args = 1,
                "ret" => has_ret = true,
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(OpSig {
            key,
            proc_name,
            num_args,
            has_ret,
        })
    }
}

/// A checkable subject: a compiled program, its operation table and the
/// initialization entry point.
#[derive(Clone, Debug)]
pub struct Harness {
    /// Human-readable name (e.g. `msn`).
    pub name: String,
    /// The compiled implementation (including wrappers).
    pub program: cf_lsl::Program,
    /// Procedure called once at the start of initialization (e.g.
    /// `init_queue`), if any.
    pub init_proc: Option<String>,
    /// Operation signatures, keyed by DSL letters.
    pub ops: Vec<OpSig>,
}

impl Harness {
    /// Finds the signature for a DSL key.
    pub fn op(&self, key: char) -> Option<&OpSig> {
        self.ops.iter().find(|o| o.key == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple() {
        let t = TestSpec::parse("T0", "( e | d )").expect("parses");
        assert!(t.init.is_empty());
        assert_eq!(t.threads.len(), 2);
        assert_eq!(t.threads[0][0].key, 'e');
        assert_eq!(t.num_ops(), 2);
    }

    #[test]
    fn parses_init_and_primes() {
        let t = TestSpec::parse("Dm", "aar ( a | c' | r )").expect("parses");
        assert_eq!(t.init.len(), 3);
        assert!(t.threads[1][0].primed);
        assert_eq!(t.to_string(), "aar ( a | c' | r )");
    }

    #[test]
    fn parses_multichar_threads() {
        let t = TestSpec::parse("Tpc3", "( eee | ddd )").expect("parses");
        assert_eq!(t.threads[0].len(), 3);
        assert_eq!(t.threads[1].len(), 3);
    }

    #[test]
    fn rejects_malformed() {
        assert!(TestSpec::parse("x", "e | d").is_err());
        assert!(TestSpec::parse("x", "( e | )").is_err());
        assert!(TestSpec::parse("x", "( e ) extra").is_err());
        assert!(TestSpec::parse("x", "' ( e )").is_err());
        assert!(TestSpec::parse("x", "( e + d )").is_err());
    }

    #[test]
    fn op_sig_parses_the_corpus_grammar() {
        let sig = |decl: &str| {
            let o = OpSig::parse(decl).expect("parses");
            (o.key, o.proc_name, o.num_args, o.has_ret)
        };
        assert_eq!(sig("p=put:arg"), ('p', "put".into(), 1, false));
        assert_eq!(sig(" g = get : ret "), ('g', "get".into(), 0, true));
        assert_eq!(sig("x=xchg:ret:arg"), ('x', "xchg".into(), 1, true));
        assert_eq!(sig("n = nop"), ('n', "nop".into(), 0, false));
    }

    #[test]
    fn op_sig_parse_says_what_is_malformed() {
        for (decl, reason) in [
            ("put:arg", "expected KEY=PROC[:arg][:ret]"),
            ("pq=put", "KEY must be one character"),
            (" =put", "KEY must be one character"),
            ("p=", "missing procedure name"),
            ("p= :ret", "missing procedure name"),
            ("p=put:wat", "unknown flag `wat`"),
        ] {
            assert_eq!(OpSig::parse(decl).err().as_deref(), Some(reason), "{decl}");
        }
    }
}
