//! The curated mini-C scenario corpus.
//!
//! A corpus entry is a plain mini-C file whose header comments carry
//! `// cf:` directives describing how to drive it — the same
//! information the `checkfence` CLI takes as flags:
//!
//! ```text
//! // cf: name seqlock
//! // cf: init init_lock          (optional)
//! // cf: op w = write_op:arg    (repeatable; KEY = PROC[:arg][:ret])
//! // cf: test W0 = ( w | r )    (repeatable; Fig. 8 notation)
//! // cf: expect W0 @ relaxed = fail   (repeatable; asserted verdicts)
//! // cf: explain W0 @ pso = write#0 (store-store)   (repeatable; provenance pins)
//! ```
//!
//! The rest of the file is ordinary mini-C, lowered through
//! [`cf_minic::compile`]; the directives stay inside line comments, so
//! the file is a valid input to the CLI's `<SOURCE.c>` mode too.
//! [`load_dir`] loads every `.c` file of a directory in sorted order,
//! making corpus enumeration deterministic.

use std::fmt;
use std::path::{Path, PathBuf};

use checkfence::{Harness, OpSig, TestSpec};

/// One declared verdict expectation: test name, model name, and
/// whether the inclusion check passes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Expect {
    /// Name of one of the entry's tests.
    pub test: String,
    /// Model display name (`sc`, `tso`, `pso`, `relaxed`, or a spec
    /// name).
    pub model: String,
    /// `true` for `pass`, `false` for `fail`.
    pub pass: bool,
}

/// One declared provenance pin: when the named cell is solved with
/// provenance on, every listed fence coordinate must appear in its
/// report (the verdict's proof core leans on *at least* these fences —
/// the pin is a subset requirement, so a core may also name others).
/// Coordinates are cf-lsl `FenceSite` renderings, e.g.
/// `push#0 (store-store)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Explain {
    /// Name of one of the entry's tests.
    pub test: String,
    /// Model display name the pin applies to.
    pub model: String,
    /// Fence coordinates the provenance must mention, in declaration
    /// order. Empty means only "the cell carries provenance".
    pub fences: Vec<String>,
}

/// One loaded corpus scenario: the compiled harness, its symbolic
/// tests, and the verdicts its header declares.
#[derive(Clone, Debug)]
pub struct CorpusEntry {
    /// Scenario name (the `// cf: name` directive).
    pub name: String,
    /// Path the entry was loaded from.
    pub path: PathBuf,
    /// The compiled harness (program + operation table + init).
    pub harness: Harness,
    /// The declared symbolic tests, in declaration order.
    pub tests: Vec<TestSpec>,
    /// The declared expected verdicts.
    pub expects: Vec<Expect>,
    /// The declared provenance pins (`// cf: explain` directives).
    pub explains: Vec<Explain>,
}

/// Error loading a corpus entry.
#[derive(Clone, Debug)]
pub struct CorpusLoadError {
    /// The offending file.
    pub path: PathBuf,
    /// Explanation.
    pub message: String,
}

impl fmt::Display for CorpusLoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path.display(), self.message)
    }
}

impl std::error::Error for CorpusLoadError {}

/// Loads one corpus entry from a mini-C file with `// cf:` directives.
///
/// # Errors
///
/// [`CorpusLoadError`] when the file cannot be read, a directive is
/// malformed, a declared test or expectation is inconsistent, or the
/// mini-C body does not compile.
pub fn load_file(path: &Path) -> Result<CorpusEntry, CorpusLoadError> {
    let fail = |message: String| CorpusLoadError {
        path: path.to_path_buf(),
        message,
    };
    let source =
        std::fs::read_to_string(path).map_err(|e| fail(format!("cannot read file: {e}")))?;

    // Every directive remembers its 1-based line so validation errors
    // (including cross-directive ones like duplicates) point at the
    // offending header line, not just the file.
    let mut name: Option<(String, usize)> = None;
    let mut init: Option<(String, usize)> = None;
    let mut ops: Vec<(OpSig, usize)> = Vec::new();
    let mut tests: Vec<(TestSpec, usize)> = Vec::new();
    let mut expects: Vec<(Expect, usize)> = Vec::new();
    let mut explains: Vec<(Explain, usize)> = Vec::new();
    for (lineno, line) in source.lines().enumerate() {
        let Some(directive) = line.trim().strip_prefix("// cf:") else {
            continue;
        };
        let directive = directive.trim();
        let line_no = lineno + 1;
        let at = |m: String| fail(format!("line {line_no}: {m}"));
        let (kind, rest) = directive.split_once(' ').unwrap_or((directive, ""));
        let rest = rest.trim();
        match kind {
            "name" => {
                if rest.is_empty() {
                    return Err(at("`name` directive needs a value".into()));
                }
                if let Some((_, prev)) = &name {
                    return Err(at(format!(
                        "duplicate `name` directive (first on line {prev})"
                    )));
                }
                name = Some((rest.to_string(), line_no));
            }
            "init" => {
                if rest.is_empty() {
                    return Err(at("`init` directive needs a procedure name".into()));
                }
                if let Some((_, prev)) = &init {
                    return Err(at(format!(
                        "duplicate `init` directive (first on line {prev})"
                    )));
                }
                init = Some((rest.to_string(), line_no));
            }
            "op" => {
                let op = OpSig::parse(rest).map_err(|e| at(format!("op `{rest}`: {e}")))?;
                ops.push((op, line_no));
            }
            "test" => {
                let (tname, text) = rest
                    .split_once('=')
                    .ok_or_else(|| at(format!("test `{rest}`: expected NAME = TEXT")))?;
                let test =
                    TestSpec::parse(tname.trim(), text.trim()).map_err(|e| at(e.to_string()))?;
                tests.push((test, line_no));
            }
            "expect" => {
                let (target, verdict) = rest.split_once('=').ok_or_else(|| {
                    at(format!(
                        "expect `{rest}`: expected TEST @ MODEL = pass|fail"
                    ))
                })?;
                let (test, model) = target
                    .split_once('@')
                    .ok_or_else(|| at(format!("expect `{rest}`: missing `@ MODEL`")))?;
                let (test, model) = (test.trim(), model.trim());
                if test.is_empty() || model.is_empty() {
                    return Err(at(format!(
                        "expect `{rest}`: expected TEST @ MODEL = pass|fail"
                    )));
                }
                let pass = match verdict.trim() {
                    "pass" => true,
                    "fail" => false,
                    "" => return Err(at(format!("expect `{rest}`: missing verdict (pass|fail)"))),
                    other => return Err(at(format!("expect `{rest}`: verdict `{other}`"))),
                };
                expects.push((
                    Expect {
                        test: test.to_string(),
                        model: model.to_string(),
                        pass,
                    },
                    line_no,
                ));
            }
            "explain" => {
                let (target, coords) = rest.split_once('=').ok_or_else(|| {
                    at(format!(
                        "explain `{rest}`: expected TEST @ MODEL = COORD[, COORD]"
                    ))
                })?;
                let (test, model) = target
                    .split_once('@')
                    .ok_or_else(|| at(format!("explain `{rest}`: missing `@ MODEL`")))?;
                let (test, model) = (test.trim(), model.trim());
                if test.is_empty() || model.is_empty() {
                    return Err(at(format!(
                        "explain `{rest}`: expected TEST @ MODEL = COORD[, COORD]"
                    )));
                }
                let fences: Vec<String> = coords
                    .split(',')
                    .map(str::trim)
                    .filter(|c| !c.is_empty())
                    .map(String::from)
                    .collect();
                if fences.is_empty() {
                    return Err(at(format!(
                        "explain `{rest}`: needs at least one fence coordinate"
                    )));
                }
                explains.push((
                    Explain {
                        test: test.to_string(),
                        model: model.to_string(),
                        fences,
                    },
                    line_no,
                ));
            }
            other => return Err(at(format!("unknown directive `{other}`"))),
        }
    }

    let (name, _) = name.ok_or_else(|| fail("missing `// cf: name` directive".into()))?;
    // Duplicate keys/names would be silently shadowed by first-match
    // lookups downstream — the author's later declaration would never
    // be checked. Checked before the emptiness requirements so the
    // line-specific error wins.
    for (i, (op, line)) in ops.iter().enumerate() {
        if let Some((_, prev)) = ops[..i].iter().find(|(o, _)| o.key == op.key) {
            return Err(fail(format!(
                "line {line}: duplicate op key `{}` (first on line {prev})",
                op.key
            )));
        }
    }
    for (i, (t, line)) in tests.iter().enumerate() {
        if let Some((_, prev)) = tests[..i].iter().find(|(o, _)| o.name == t.name) {
            return Err(fail(format!(
                "line {line}: duplicate test name `{}` (first on line {prev})",
                t.name
            )));
        }
    }
    for (i, (e, line)) in expects.iter().enumerate() {
        if !tests.iter().any(|(t, _)| t.name == e.test) {
            return Err(fail(format!(
                "line {line}: expect names unknown test `{}`",
                e.test
            )));
        }
        if let Some((_, prev)) = expects[..i]
            .iter()
            .find(|(o, _)| o.test == e.test && o.model == e.model)
        {
            return Err(fail(format!(
                "line {line}: duplicate expect for `{} @ {}` (first on line {prev})",
                e.test, e.model
            )));
        }
    }
    for (i, (e, line)) in explains.iter().enumerate() {
        if !tests.iter().any(|(t, _)| t.name == e.test) {
            return Err(fail(format!(
                "line {line}: explain names unknown test `{}`",
                e.test
            )));
        }
        if let Some((_, prev)) = explains[..i]
            .iter()
            .find(|(o, _)| o.test == e.test && o.model == e.model)
        {
            return Err(fail(format!(
                "line {line}: duplicate explain for `{} @ {}` (first on line {prev})",
                e.test, e.model
            )));
        }
    }
    for (t, line) in &tests {
        for op in t.all_ops() {
            if !ops.iter().any(|(o, _)| o.key == op.key) {
                return Err(fail(format!(
                    "line {line}: test `{}` uses undeclared op key `{}`",
                    t.name, op.key
                )));
            }
        }
    }
    if ops.is_empty() {
        return Err(fail("no `// cf: op` directives".into()));
    }
    if tests.is_empty() {
        return Err(fail("no `// cf: test` directives".into()));
    }
    let program = cf_minic::compile(&source).map_err(|e| fail(format!("compile error: {e}")))?;
    for (op, line) in &ops {
        if program.proc_id(&op.proc_name).is_none() {
            return Err(fail(format!(
                "line {line}: op procedure `{}` not found",
                op.proc_name
            )));
        }
    }
    if let Some((init, line)) = &init {
        if program.proc_id(init).is_none() {
            return Err(fail(format!(
                "line {line}: init procedure `{init}` not found"
            )));
        }
    }
    let ops: Vec<OpSig> = ops.into_iter().map(|(o, _)| o).collect();
    let tests: Vec<TestSpec> = tests.into_iter().map(|(t, _)| t).collect();
    let expects: Vec<Expect> = expects.into_iter().map(|(e, _)| e).collect();
    let explains: Vec<Explain> = explains.into_iter().map(|(e, _)| e).collect();
    let init = init.map(|(i, _)| i);
    Ok(CorpusEntry {
        name: name.clone(),
        path: path.to_path_buf(),
        harness: Harness {
            name,
            program,
            init_proc: init,
            ops,
        },
        tests,
        expects,
        explains,
    })
}

/// Loads every `.c` entry of a corpus directory, sorted by file name.
///
/// # Errors
///
/// As [`load_file`]; the first failing entry aborts the load.
pub fn load_dir(dir: &Path) -> Result<Vec<CorpusEntry>, CorpusLoadError> {
    let fail = |message: String| CorpusLoadError {
        path: dir.to_path_buf(),
        message,
    };
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| fail(format!("cannot read directory: {e}")))?
        .map(|e| e.map(|e| e.path()))
        .collect::<Result<_, _>>()
        .map_err(|e| fail(format!("cannot read directory entry: {e}")))?;
    paths.retain(|p| p.extension().is_some_and(|x| x == "c"));
    paths.sort();
    paths.iter().map(|p| load_file(p)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_temp(name: &str, body: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!("cf-synth-{}-{name}", std::process::id()));
        std::fs::write(&path, body).expect("writable temp dir");
        path
    }

    #[test]
    fn loads_a_well_formed_entry() {
        let path = write_temp(
            "ok.c",
            r#"
// cf: name mailbox
// cf: op p = put:arg
// cf: op g = get:ret
// cf: test PG = ( p | g )
// cf: expect PG @ sc = pass
int data;
void put(int v) { data = v; }
int get() { return data; }
"#,
        );
        let entry = load_file(&path).expect("loads");
        assert_eq!(entry.name, "mailbox");
        assert_eq!(entry.harness.ops.len(), 2);
        assert_eq!(entry.tests.len(), 1);
        assert_eq!(
            entry.expects,
            vec![Expect {
                test: "PG".into(),
                model: "sc".into(),
                pass: true
            }]
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn explain_directives_round_trip() {
        let path = write_temp(
            "explain.c",
            r#"
// cf: name mailbox
// cf: op p = put:arg
// cf: op g = get:ret
// cf: test PG = ( p | g )
// cf: expect PG @ pso = pass
// cf: explain PG @ pso = put#0 (store-store)
// cf: explain PG @ relaxed = put#0 (store-store), get#0 (load-load)
int data; int flag;
void put(int v) { data = v; fence("store-store"); flag = 1; }
int get() { fence("load-load"); return data; }
"#,
        );
        let entry = load_file(&path).expect("loads");
        assert_eq!(
            entry.explains,
            vec![
                Explain {
                    test: "PG".into(),
                    model: "pso".into(),
                    fences: vec!["put#0 (store-store)".into()],
                },
                Explain {
                    test: "PG".into(),
                    model: "relaxed".into(),
                    fences: vec!["put#0 (store-store)".into(), "get#0 (load-load)".into()],
                },
            ]
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_malformed_entries() {
        let cases = [
            ("noname.c", "// cf: op p = put\nvoid put() { }\n"),
            (
                "badop.c",
                "// cf: name x\n// cf: op pp = put\n// cf: test T = ( p )\nvoid put() { }\n",
            ),
            (
                "badtest.c",
                "// cf: name x\n// cf: op p = put\n// cf: test T = p | p\nvoid put() { }\n",
            ),
            (
                "badexpect.c",
                "// cf: name x\n// cf: op p = put\n// cf: test T = ( p | p )\n\
                 // cf: expect NOPE @ sc = pass\nvoid put() { }\n",
            ),
            (
                "unknownkey.c",
                "// cf: name x\n// cf: op p = put\n// cf: test T = ( q | q )\nvoid put() { }\n",
            ),
            (
                "missingproc.c",
                "// cf: name x\n// cf: op p = nope\n// cf: test T = ( p | p )\nvoid put() { }\n",
            ),
            (
                "dupop.c",
                "// cf: name x\n// cf: op p = put\n// cf: op p = put\n\
                 // cf: test T = ( p | p )\nvoid put() { }\n",
            ),
            (
                "duptest.c",
                "// cf: name x\n// cf: op p = put\n// cf: test T = ( p | p )\n\
                 // cf: test T = ( p p | p )\nvoid put() { }\n",
            ),
        ];
        for (name, body) in cases {
            let path = write_temp(name, body);
            assert!(load_file(&path).is_err(), "{name} should fail to load");
            std::fs::remove_file(&path).ok();
        }
    }

    /// Malformed or unknown `// cf:` headers must produce a clean error
    /// that names the offending file *and* line — never a panic or a
    /// silent skip.
    #[test]
    fn malformed_directives_name_file_and_line() {
        // (file, body, expected line tag, expected message fragment)
        let cases: &[(&str, &str, &str, &str)] = &[
            (
                "unknowndir.c",
                "// cf: name x\n// cf: verdicts T = pass\n",
                "line 2",
                "unknown directive `verdicts`",
            ),
            (
                "badkey.c",
                "// cf: name x\n// cf: op pq = put\n",
                "line 2",
                "KEY must be one character",
            ),
            (
                "badflag.c",
                "// cf: name x\n// cf: op p = put:wat\n",
                "line 2",
                "unknown flag `wat`",
            ),
            (
                "noverdict.c",
                "// cf: name x\n// cf: op p = put\n// cf: test T = ( p )\n\
                 // cf: expect T @ sc =\n",
                "line 4",
                "missing verdict",
            ),
            (
                "badverdict.c",
                "// cf: name x\n// cf: op p = put\n// cf: test T = ( p )\n\
                 // cf: expect T @ sc = maybe\n",
                "line 4",
                "verdict `maybe`",
            ),
            (
                "nomodel.c",
                "// cf: name x\n// cf: op p = put\n// cf: test T = ( p )\n\
                 // cf: expect T = pass\n",
                "line 4",
                "missing `@ MODEL`",
            ),
            (
                "dupname.c",
                "// cf: name x\n// cf: name y\n",
                "line 2",
                "duplicate `name` directive (first on line 1)",
            ),
            (
                "dupinit.c",
                "// cf: name x\n// cf: init a\n// cf: init b\n",
                "line 3",
                "duplicate `init` directive (first on line 2)",
            ),
            (
                "emptyname.c",
                "// cf: name\n",
                "line 1",
                "`name` directive needs a value",
            ),
            (
                "dupop2.c",
                "// cf: name x\n// cf: op p = put\n// cf: op p = get\n",
                "line 3",
                "duplicate op key `p` (first on line 2)",
            ),
            (
                "duptest2.c",
                "// cf: name x\n// cf: op p = put\n// cf: test T = ( p )\n\
                 // cf: test T = ( p | p )\n",
                "line 4",
                "duplicate test name `T` (first on line 3)",
            ),
            (
                "dupexpect.c",
                "// cf: name x\n// cf: op p = put\n// cf: test T = ( p )\n\
                 // cf: expect T @ sc = pass\n// cf: expect T @ sc = fail\n",
                "line 5",
                "duplicate expect for `T @ sc` (first on line 4)",
            ),
            (
                "unknowntest.c",
                "// cf: name x\n// cf: op p = put\n// cf: test T = ( p )\n\
                 // cf: expect U @ sc = pass\n",
                "line 4",
                "expect names unknown test `U`",
            ),
            (
                "undeclkey.c",
                "// cf: name x\n// cf: op p = put\n// cf: test T = ( q )\n",
                "line 3",
                "undeclared op key `q`",
            ),
            (
                "explainnomodel.c",
                "// cf: name x\n// cf: op p = put\n// cf: test T = ( p )\n\
                 // cf: explain T = put#0 (store-store)\n",
                "line 4",
                "missing `@ MODEL`",
            ),
            (
                "explainnocoord.c",
                "// cf: name x\n// cf: op p = put\n// cf: test T = ( p )\n\
                 // cf: explain T @ pso =\n",
                "line 4",
                "needs at least one fence coordinate",
            ),
            (
                "explainunknowntest.c",
                "// cf: name x\n// cf: op p = put\n// cf: test T = ( p )\n\
                 // cf: explain U @ pso = put#0 (store-store)\n",
                "line 4",
                "explain names unknown test `U`",
            ),
            (
                "dupexplain.c",
                "// cf: name x\n// cf: op p = put\n// cf: test T = ( p )\n\
                 // cf: explain T @ pso = put#0 (store-store)\n\
                 // cf: explain T @ pso = put#1 (load-load)\n",
                "line 5",
                "duplicate explain for `T @ pso` (first on line 4)",
            ),
        ];
        for (file, body, line_tag, fragment) in cases {
            let path = write_temp(file, body);
            let err = load_file(&path).expect_err(file);
            let msg = err.to_string();
            assert!(
                msg.contains(&path.display().to_string()),
                "{file}: error must name the file, got: {msg}"
            );
            assert!(
                msg.contains(line_tag),
                "{file}: error must name {line_tag}, got: {msg}"
            );
            assert!(
                msg.contains(fragment),
                "{file}: error must explain (`{fragment}`), got: {msg}"
            );
            std::fs::remove_file(&path).ok();
        }
    }
}
