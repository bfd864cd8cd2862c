//! The documentation harness: every fenced code block in `docs/` and
//! the README is machine-checked, so the guides cannot rot.
//!
//! Rust blocks are executed as doctests of the root crate (see the
//! `#[cfg(doctest)]` includes in `src/lib.rs`); this harness covers
//! the rest: it extracts every fenced block, rejects untagged or
//! unknown-tagged fences (an untagged fence would silently become an
//! unchecked doctest or a broken one), compiles every `c` block with
//! the mini-C front end and every `cfm` block with the spec compiler,
//! and cross-checks the documented CLI options against the binary's
//! usage text.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One fenced code block.
struct Block {
    file: String,
    line: usize,
    tag: String,
    body: String,
}

fn doc_files() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut out = vec![root.join("README.md")];
    let docs = root.join("docs");
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&docs)
        .expect("docs/ exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "md"))
        .collect();
    entries.sort();
    assert!(
        entries.len() >= 3,
        "docs/ must hold the guide, the spec-language reference and the \
         ablation chapter: {entries:?}"
    );
    out.extend(entries);
    out
}

fn extract_blocks() -> Vec<Block> {
    let mut blocks = Vec::new();
    for path in doc_files() {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let file = path
            .file_name()
            .expect("file name")
            .to_string_lossy()
            .into_owned();
        let mut current: Option<Block> = None;
        for (i, line) in text.lines().enumerate() {
            let trimmed = line.trim_start();
            if let Some(rest) = trimmed.strip_prefix("```") {
                match current.take() {
                    Some(block) => blocks.push(block),
                    None => {
                        current = Some(Block {
                            file: file.clone(),
                            line: i + 1,
                            tag: rest.trim().to_string(),
                            body: String::new(),
                        });
                    }
                }
            } else if let Some(block) = &mut current {
                let _ = writeln!(block.body, "{line}");
            }
        }
        assert!(
            current.is_none(),
            "{file}: unterminated code fence at end of file"
        );
    }
    blocks
}

#[test]
fn every_block_is_tagged_with_a_checked_language() {
    const KNOWN: &[&str] = &["rust", "c", "cfm", "text", "console", "json"];
    let blocks = extract_blocks();
    assert!(blocks.len() > 20, "the guides lost their examples?");
    for b in &blocks {
        assert!(
            KNOWN.contains(&b.tag.as_str()),
            "{}:{}: fence tag `{}` is not one of {KNOWN:?} — untagged fences \
             become unchecked (or broken) doctests",
            b.file,
            b.line,
            b.tag
        );
    }
    // The three checked languages are all actually exercised.
    for must in ["rust", "c", "cfm"] {
        assert!(
            blocks.iter().any(|b| b.tag == must),
            "no `{must}` block found in the documentation"
        );
    }
}

#[test]
fn mini_c_blocks_compile() {
    let mut seen = 0;
    for b in extract_blocks().into_iter().filter(|b| b.tag == "c") {
        seen += 1;
        cf_minic::compile(&b.body).unwrap_or_else(|e| {
            panic!("{}:{}: mini-C block does not compile: {e}", b.file, b.line)
        });
    }
    assert!(seen >= 1, "the guide documents mini-C without an example?");
}

#[test]
fn cfm_blocks_compile() {
    let mut seen = 0;
    for b in extract_blocks().into_iter().filter(|b| b.tag == "cfm") {
        seen += 1;
        cf_spec::compile(&b.body)
            .unwrap_or_else(|e| panic!("{}:{}: .cfm block does not compile: {e}", b.file, b.line));
    }
    assert!(
        seen >= 4,
        "spec-language.md must show the file structure and the bundled models"
    );
}

#[test]
fn json_blocks_are_shaped_like_the_bench_records() {
    // No JSON parser in the std-only build: check the documented bench
    // record names the fields the benchmark actually writes.
    for b in extract_blocks().into_iter().filter(|b| b.tag == "json") {
        for field in ["wall_ms", "encodes", "speedup"] {
            assert!(
                b.body.contains(field),
                "{}:{}: bench-record example lost the `{field}` field",
                b.file,
                b.line
            );
        }
    }
}

#[test]
fn usage_text_and_argument_parser_agree_flag_for_flag() {
    // The parser's match arms are the ground truth; every `--flag` arm
    // in the binary source must appear in the usage text and vice
    // versa, so `usage()` can neither advertise flags the parser
    // rejects nor hide flags it accepts.
    let source = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin/checkfence.rs"),
    )
    .expect("binary source readable");
    let parser_body = source
        .split("fn parse_args")
        .nth(1)
        .expect("parse_args exists");
    let mut parser_flags = std::collections::BTreeSet::new();
    for line in parser_body.lines().take_while(|l| !l.contains("fn ")) {
        // Match arms look like `"--flag" =>` (possibly `"-h" | "--help" =>`).
        if !line.contains("=>") {
            continue;
        }
        for piece in line.split('"') {
            if piece.starts_with("--") {
                parser_flags.insert(piece.to_string());
            }
        }
    }
    assert!(
        parser_flags.len() >= 10,
        "flag extraction broke: {parser_flags:?}"
    );

    let usage = String::from_utf8(
        std::process::Command::new(env!("CARGO_BIN_EXE_checkfence"))
            .arg("--help")
            .output()
            .expect("binary runs")
            .stdout,
    )
    .expect("utf8 usage");
    let usage_flags: std::collections::BTreeSet<String> = usage
        .split_whitespace()
        .filter(|t| t.starts_with("--"))
        .map(|t| t.trim_end_matches(',').to_string())
        .collect();

    for flag in &parser_flags {
        assert!(
            usage_flags.contains(flag),
            "parser accepts `{flag}` but usage() does not document it"
        );
    }
    for flag in &usage_flags {
        assert!(
            parser_flags.contains(flag),
            "usage() documents `{flag}` but the parser rejects it"
        );
    }
}

#[test]
fn usage_documents_the_exit_code_contract() {
    // The exit-status contract (0 pass, 1 counterexample, 2 usage or
    // infrastructure error, 3 inconclusive cells, and 1 beating 3) is
    // load-bearing for CI scripts, so the usage text must spell it out.
    // tests/cli.rs asserts each code is actually produced.
    let usage = String::from_utf8(
        std::process::Command::new(env!("CARGO_BIN_EXE_checkfence"))
            .arg("--help")
            .output()
            .expect("binary runs")
            .stdout,
    )
    .expect("utf8 usage");
    let contract = usage
        .split("exit status:")
        .nth(1)
        .expect("usage() must carry an exit-status paragraph");
    for needle in ["0 ", "1 ", "2 ", "3 ", "inconclusive", "(1 beats 3)"] {
        assert!(
            contract.contains(needle),
            "exit-status paragraph lost `{needle}`:{contract}"
        );
    }
}

#[test]
fn ablate_accepts_the_jobs_flag() {
    // `--jobs` composes with `--ablate` (each test's matrix is still
    // one session); the combination must not be a usage error.
    // tests/cli.rs asserts the table is identical across jobs — this
    // cross-check only guards the flag grammar.
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("assets/mailbox.c");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_checkfence"))
        .arg(src)
        .args(["--op", "p=put:arg", "--op", "g=get:ret"])
        .args(["--test", "PG=( p | g )"])
        .args(["--ablate", "--jobs", "2"])
        .output()
        .expect("binary runs");
    assert_ne!(
        out.status.code(),
        Some(2),
        "--ablate --jobs must parse: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn documented_cli_flags_exist() {
    // Every `--flag` mentioned in console blocks must appear in the
    // binary's usage text (tests/cli.rs checks the flags work; this
    // checks the docs name real ones).
    let usage = String::from_utf8(
        std::process::Command::new(env!("CARGO_BIN_EXE_checkfence"))
            .arg("--help")
            .output()
            .expect("binary runs")
            .stdout,
    )
    .expect("utf8 usage");
    for b in extract_blocks().into_iter().filter(|b| b.tag == "console") {
        for token in b.body.split_whitespace() {
            let flag = token.trim_end_matches(['"', '\\']);
            if !flag.starts_with("--") {
                continue;
            }
            // `cargo build --release` etc. are not checkfence flags.
            if b.body.trim_start().starts_with("cargo") {
                continue;
            }
            assert!(
                usage.contains(flag),
                "{}:{}: console block uses `{flag}`, which the CLI usage does \
                 not document",
                b.file,
                b.line
            );
        }
    }
}
