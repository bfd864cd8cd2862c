//! Known-answer files: the verdict every cell of a workload must reach.
//!
//! One cell per line, three tab-separated fields — row, model, verdict —
//! with `#` comment lines. Rows and models are the workload's own names
//! (`treiber/(o|u)`, `relaxed`); verdicts are the program's cell text
//! (`pass`/`FAIL` for inclusion checks, `X`/`.`/`~` for mutant cells).
//! The files are committed under `answers/` and never regenerated from
//! the engine under test.

use std::collections::BTreeMap;

/// One (row, model) cell with the verdict the workload produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cell {
    /// Row name: the harness and test (and mutant, for matrices).
    pub row: String,
    /// Model column name.
    pub model: String,
    /// Verdict text as the program renders it.
    pub verdict: String,
    /// `false` when the cell raised an error or came back inconclusive.
    pub decided: bool,
}

/// A parsed known-answer file.
#[derive(Clone, Debug, Default)]
pub struct Answers {
    cells: BTreeMap<(String, String), String>,
}

/// The outcome of checking one workload run against its answers.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Check {
    /// Cells produced.
    pub attempted: usize,
    /// Cells that had a known answer to check against.
    pub checked: usize,
    /// Cells that errored, were inconclusive, or disagreed with a known
    /// answer.
    pub failed: usize,
    /// Cells whose verdict disagreed with a known answer, as
    /// `row @ model: got X, want Y` lines.
    pub wrong: Vec<String>,
    /// Known answers the run never produced (only checked at full size).
    pub missing: Vec<String>,
}

impl Check {
    /// `true` when no verdict was wrong and no known answer was missing.
    pub fn correct(&self) -> bool {
        self.wrong.is_empty() && self.missing.is_empty()
    }
}

impl Answers {
    /// Parses a known-answer file.
    ///
    /// # Errors
    ///
    /// A line that is not three tab-separated non-empty fields, or a
    /// cell listed twice, names its line number.
    pub fn parse(text: &str) -> Result<Answers, String> {
        let mut cells = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            if line.trim().is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split('\t').collect();
            if fields.len() != 3 || fields.iter().any(|f| f.is_empty()) {
                return Err(format!(
                    "line {}: expected `row<TAB>model<TAB>verdict`, got `{line}`",
                    n + 1
                ));
            }
            let key = (fields[0].to_string(), fields[1].to_string());
            if cells.insert(key, fields[2].to_string()).is_some() {
                return Err(format!(
                    "line {}: cell {} @ {} listed twice",
                    n + 1,
                    fields[0],
                    fields[1]
                ));
            }
        }
        if cells.is_empty() {
            return Err("no known answers".into());
        }
        Ok(Answers { cells })
    }

    /// Renders cells in the file format (sorted, so regenerated files
    /// diff cleanly).
    pub fn render(header: &str, cells: &[Cell]) -> String {
        let mut sorted: Vec<&Cell> = cells.iter().collect();
        sorted.sort_by(|a, b| (&a.row, &a.model).cmp(&(&b.row, &b.model)));
        let mut out = String::new();
        for line in header.lines() {
            out.push_str("# ");
            out.push_str(line);
            out.push('\n');
        }
        for c in sorted {
            out.push_str(&format!("{}\t{}\t{}\n", c.row, c.model, c.verdict));
        }
        out
    }

    /// Number of known answers.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` when the file holds no answers (never, after [`parse`]).
    ///
    /// [`parse`]: Answers::parse
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Checks produced cells. Every cell with a known answer must match
    /// it; with `complete`, every known answer must also be produced.
    /// Cells without a known answer count only when undecided (the
    /// c11 corpus pins 90 of its cells).
    pub fn check(&self, cells: &[Cell], complete: bool) -> Check {
        let mut out = Check {
            attempted: cells.len(),
            ..Check::default()
        };
        let mut seen = std::collections::BTreeSet::new();
        for c in cells {
            let key = (c.row.clone(), c.model.clone());
            let want = self.cells.get(&key);
            out.checked += usize::from(want.is_some());
            let wrong = match want {
                Some(want) if *want != c.verdict => {
                    out.wrong.push(format!(
                        "{} @ {}: got {}, want {want}",
                        c.row, c.model, c.verdict
                    ));
                    true
                }
                _ => false,
            };
            if wrong || !c.decided {
                out.failed += 1;
            }
            seen.insert(key);
        }
        if complete {
            out.missing = self
                .cells
                .keys()
                .filter(|k| !seen.contains(*k))
                .map(|(row, model)| format!("{row} @ {model}"))
                .collect();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(row: &str, model: &str, verdict: &str) -> Cell {
        Cell {
            row: row.into(),
            model: model.into(),
            verdict: verdict.into(),
            decided: true,
        }
    }

    #[test]
    fn round_trips_and_flags_mismatches() {
        let cells = vec![
            cell("a/(x|y)", "sc", "pass"),
            cell("a/(x|y)", "pso", "FAIL"),
        ];
        let answers = Answers::parse(&Answers::render("demo", &cells)).expect("parses");
        assert_eq!(answers.len(), 2);
        assert!(answers.check(&cells, true).correct());
        let flipped = vec![cell("a/(x|y)", "sc", "FAIL")];
        let check = answers.check(&flipped, true);
        assert_eq!(check.failed, 1);
        assert_eq!(check.wrong.len(), 1);
        assert_eq!(check.missing, vec!["a/(x|y) @ pso".to_string()]);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(Answers::parse("a\tsc\n").is_err());
        assert!(Answers::parse("a\tsc\tpass\na\tsc\tpass\n").is_err());
        assert!(Answers::parse("# only a comment\n").is_err());
    }
}
