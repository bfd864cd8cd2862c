//! Seeded malformed-input test: every source under `corpus/`,
//! `corpus/c11/` and `specs/`, with a few characters deleted, inserted
//! or replaced, must load to a result or an error, never a panic, and
//! every error must name the line it is about.
//!
//! The mutations are deterministic (`cf_sat::xorshift::Rng`, one seed per
//! file), so a failure names the file and mutant index that reproduce it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use cf_sat::xorshift::Rng;

/// Mutants per source file: 6,400 corpus and 2,800 spec inputs.
const MUTANTS_PER_FILE: usize = 400;

/// Characters that steer mutants into the grammar's corners: block and
/// statement delimiters, operators, and the corpus directive prefix.
const SYNTAX: &[char] = &[
    '{', '}', '(', ')', '[', ']', ';', ',', '*', '&', '=', '!', '<', '>', '+', '-', '|', '/', ':',
    '@', '.', '\'', '"', ' ', '\n', '0', '1',
];

fn sources(dir: &str, ext: &str) -> Vec<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == ext))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no .{ext} files under {}", dir.display());
    paths
}

/// One to three edits: delete a character, insert one, replace one, or
/// replace a whole word with another word of the same file (which turns
/// names into one another: duplicate definitions, unknown identifiers,
/// mismatched keywords). Inserted characters come from the file itself
/// or from [`SYNTAX`].
fn mutate(text: &[char], words: &[String], rng: &mut Rng) -> String {
    let mut out = text.to_vec();
    for _ in 0..=rng.below(3) {
        let at = rng.below(out.len() as u64 + 1) as usize;
        let c = if rng.bool() {
            text[rng.below(text.len() as u64) as usize]
        } else {
            SYNTAX[rng.below(SYNTAX.len() as u64) as usize]
        };
        match rng.below(4) {
            0 if at < out.len() => {
                out.remove(at);
            }
            1 if at < out.len() => out[at] = c,
            2 if at < out.len() && is_word(out[at]) => {
                let start = (0..at)
                    .rev()
                    .find(|&i| !is_word(out[i]))
                    .map_or(0, |i| i + 1);
                let end = (at..out.len())
                    .find(|&i| !is_word(out[i]))
                    .unwrap_or(out.len());
                let word = &words[rng.below(words.len() as u64) as usize];
                out.splice(start..end, word.chars());
            }
            _ => out.insert(at, c),
        }
    }
    out.into_iter().collect()
}

/// Word characters; `_` separates words, so `writer_rlx` can become
/// `writer_ra`.
fn is_word(c: char) -> bool {
    c.is_ascii_alphanumeric()
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic".into())
}

/// Whether an error message names a 1-based source line (`line N`).
fn names_a_line(message: &str) -> bool {
    message.match_indices("line ").any(|(i, _)| {
        message[i + "line ".len()..].starts_with(|c: char| c.is_ascii_digit() && c != '0')
    })
}

/// Corpus errors about what a whole file lacks; no line could hold it.
const FILE_LEVEL: &[&str] = &[
    "missing `// cf: name` directive",
    "no `// cf: op` directives",
    "no `// cf: test` directives",
];

/// Runs `load` on `MUTANTS_PER_FILE` mutants of every file and returns
/// one line per panic and per error that `load` reports without a line.
fn failures(files: &[PathBuf], mut load: impl FnMut(&str) -> Result<(), String>) -> Vec<String> {
    let mut found = Vec::new();
    for (n, path) in files.iter().enumerate() {
        let source = std::fs::read_to_string(path).expect("source reads");
        let text: Vec<char> = source.chars().collect();
        // Replacement words come from code, not from `//` comments.
        let words: Vec<String> = source
            .lines()
            .flat_map(|l| {
                l.split("//")
                    .next()
                    .unwrap_or_default()
                    .split(|c: char| !is_word(c))
            })
            .filter(|w| !w.is_empty())
            .map(String::from)
            .collect();
        let mut rng = Rng::new(0x5eed_0000 + n as u64);
        for i in 0..MUTANTS_PER_FILE {
            let mutant = mutate(&text, &words, &mut rng);
            match catch_unwind(AssertUnwindSafe(|| load(&mutant))) {
                Ok(Ok(())) => {}
                Ok(Err(lineless)) => found.push(format!(
                    "{} mutant {i}: error names no line: {lineless}",
                    path.display()
                )),
                Err(payload) => found.push(format!(
                    "{} mutant {i}: panic: {}",
                    path.display(),
                    panic_message(payload)
                )),
            }
        }
    }
    found
}

#[test]
fn mutated_corpus_sources_never_panic() {
    let mut files = sources("corpus", "c");
    files.extend(sources("corpus/c11", "c"));
    let scratch = std::env::temp_dir().join(format!("cf-malformed-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("mkdir");
    let entry = scratch.join("entry.c");
    let found = failures(&files, |text| {
        if let Err(e) = cf_minic::compile(text) {
            if e.line == 0 {
                return Err(format!("cf_minic::compile: {e}"));
            }
        }
        std::fs::write(&entry, text).expect("write mutant");
        match cf_synth::corpus::load_file(&entry) {
            Err(e) if !names_a_line(&e.message) && !FILE_LEVEL.contains(&e.message.as_str()) => {
                Err(format!("corpus::load_file: {}", e.message))
            }
            _ => Ok(()),
        }
    });
    std::fs::remove_dir_all(&scratch).ok();
    assert!(
        found.is_empty(),
        "{} failures:\n{}",
        found.len(),
        found.join("\n")
    );
}

#[test]
fn mutated_specs_never_panic() {
    let found = failures(&sources("specs", "cfm"), |text| {
        match cf_spec::compile(text) {
            Err(e) if e.line == 0 => Err(format!("cf_spec::compile: {e}")),
            _ => Ok(()),
        }
    });
    assert!(
        found.is_empty(),
        "{} failures:\n{}",
        found.len(),
        found.join("\n")
    );
}
