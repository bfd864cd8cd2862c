//! End-to-end tests of the `checkfence` command-line binary.

use std::path::Path;
use std::process::{Command, Output};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_checkfence"))
}

fn mailbox_args(cmd: &mut Command) -> &mut Command {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("assets/mailbox.c");
    cmd.arg(src)
        .args(["--op", "p=put:arg"])
        .args(["--op", "g=get:ret"])
        .args(["--test", "PG=( p | g )"])
}

fn run(cmd: &mut Command) -> Output {
    cmd.output().expect("binary runs")
}

#[test]
fn passes_on_tso_with_exit_zero() {
    let out = run(mailbox_args(&mut cli()).args(["--model", "tso"]));
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("PASS PG on tso"), "{stdout}");
}

#[test]
fn fails_on_relaxed_with_exit_one() {
    let out = run(mailbox_args(&mut cli()).args(["--model", "relaxed"]));
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("FAIL PG on relaxed"), "{stdout}");
    assert!(stdout.contains("--cx"), "hint expected: {stdout}");
}

#[test]
fn cx_flag_prints_the_memory_order() {
    let out = run(mailbox_args(&mut cli()).args(["--model", "relaxed", "--cx"]));
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("memory order"), "{stdout}");
    assert!(
        stdout.contains("flag"),
        "trace should name locations: {stdout}"
    );
}

#[test]
fn mine_only_prints_the_observation_set() {
    let out = run(mailbox_args(&mut cli()).arg("--mine-only"));
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("checkfence-obs-set v1"), "{stdout}");
    assert!(stdout.contains("4 observations"), "{stdout}");
}

#[test]
fn spec_cache_round_trips() {
    let dir = std::env::temp_dir().join(format!("cf-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let cache = dir.join("pg.spec");

    let out = run(mailbox_args(&mut cli())
        .args(["--model", "tso"])
        .arg("--spec-cache")
        .arg(&cache));
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("spec mined"));
    assert!(cache.exists());

    let out = run(mailbox_args(&mut cli())
        .args(["--model", "tso"])
        .arg("--spec-cache")
        .arg(&cache));
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("spec cached"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn infer_reports_the_two_classic_fences() {
    let out = run(mailbox_args(&mut cli()).args(["--model", "relaxed", "--infer"]));
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("inferred 2 fence(s)"), "{stdout}");
    assert!(stdout.contains("store-store"), "{stdout}");
    assert!(stdout.contains("load-load"), "{stdout}");
}

#[test]
fn commit_method_runs_from_the_cli() {
    // The mailbox has no commit annotations, so the commit method must
    // report a usable error instead of passing silently.
    let out = run(mailbox_args(&mut cli()).args(["--model", "sc", "--method", "commit-queue"]));
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("commit"), "{stderr}");
}

#[test]
fn commit_method_does_not_mine_a_specification() {
    // The commit-point method never consumes the mined observation set,
    // so the CLI must not mine one: on an implementation whose *serial*
    // executions already fail, the reported error has to come from the
    // commit machinery (missing annotations here), not from mining.
    let dir = std::env::temp_dir();
    let src = dir.join("checkfence_cli_serial_bug.c");
    std::fs::write(
        &src,
        r#"
        int x;
        void set_op(int v) { x = v; }
        void check_op() { int v = x; assert(v == 0); }
        "#,
    )
    .expect("writable temp dir");
    let args = |cmd: &mut Command| -> Output {
        run(cmd
            .arg(&src)
            .args(["--op", "s=set_op:arg", "--op", "c=check_op"])
            .args(["--test", "T=( s | c )"])
            .args(["--model", "sc"]))
    };
    // Observation method: mining finds the serial bug.
    let out = args(&mut cli());
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("mining failed"),
        "{out:?}"
    );
    // Commit method: no mining happens; the commit machinery reports
    // its own (annotation) error instead.
    let out = args(cli().args(["--method", "commit-queue"]));
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("mining failed") && stderr.contains("commit"),
        "{stderr}"
    );
}

#[test]
fn parallel_jobs_preserve_output_order_and_exit_code() {
    // Two tests on two workers: reports must come back in declaration
    // order, and the overall exit code must reflect the failing test.
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("assets/mailbox.c");
    let out = run(cli()
        .arg(src)
        .args(["--op", "p=put:arg"])
        .args(["--op", "g=get:ret"])
        .args(["--test", "PG=( p | g )"])
        .args(["--test", "GG=( p | g g )"])
        .args(["--model", "tso"])
        .args(["--jobs", "2"]));
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let pg = stdout.find("PASS PG on tso").expect("PG reported");
    let gg = stdout.find("PASS GG on tso").expect("GG reported");
    assert!(pg < gg, "reports out of order: {stdout}");

    let out = run(mailbox_args(&mut cli()).args(["--model", "relaxed", "--jobs", "4"]));
    assert_eq!(out.status.code(), Some(1), "{out:?}");

    let out = run(mailbox_args(&mut cli()).args(["--jobs", "0"]));
    assert_eq!(out.status.code(), Some(2), "--jobs 0 is a usage error");
}

#[test]
fn usage_errors_exit_two() {
    let out = run(&mut cli()); // no args at all
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"), "{stderr}");

    let out = run(mailbox_args(&mut cli()).args(["--model", "weird"]));
    assert_eq!(out.status.code(), Some(2));

    let out = run(mailbox_args(&mut cli()).args(["--op", "zz=broken"]));
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn duplicate_op_keys_are_usage_errors() {
    // A second `p` would be shadowed by the first: its test would run
    // `put` while the user asked for `get`.
    for extra in [&[][..], &["--mine-only"][..]] {
        let out = run(mailbox_args(&mut cli())
            .args(["--op", "p=get:ret"])
            .args(extra));
        assert_eq!(out.status.code(), Some(2), "{extra:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("duplicate --op key `p`"), "{stderr}");
    }
}

#[test]
fn malformed_op_errors_name_the_flag() {
    // The parser is shared with the corpus loader; the CLI prefixes its
    // reason with the `--op` value it came from.
    let out = run(mailbox_args(&mut cli()).args(["--op", "q=put:wat"]));
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--op `q=put:wat`: unknown flag `wat`"),
        "{stderr}"
    );
}

/// Runs the mailbox with two `--test` values and asserts that the CLI
/// refuses them as two tests under the one name `name`.
fn assert_duplicate_test_name(first: &str, second: &str, name: &str) {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("assets/mailbox.c");
    let out = run(cli()
        .arg(&src)
        .args(["--op", "p=put:arg", "--op", "g=get:ret"])
        .args(["--test", first, "--test", second, "--model", "tso"]));
    assert_eq!(out.status.code(), Some(2), "{first} {second}: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("duplicate --test name `{name}`")),
        "{stderr}"
    );
}

#[test]
fn duplicate_test_names_are_usage_errors() {
    // Two different tests would print under one name.
    assert_duplicate_test_name("A=( p | g )", "A=( p | g g )", "A");
}

#[test]
fn default_test_name_collision_is_a_usage_error() {
    // The second test's default name (`T` and its position) collides
    // with the first test's explicit name.
    assert_duplicate_test_name("T1=( p | g )", "( p | g g )", "T1");
}

#[test]
fn help_prints_usage_with_exit_zero() {
    let out = run(cli().arg("--help"));
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage:"));
}

#[test]
fn bundled_cfm_models_run_end_to_end() {
    let specs = Path::new(env!("CARGO_MANIFEST_DIR")).join("specs");
    let out =
        run(mailbox_args(&mut cli()).args(["--model", specs.join("tso.cfm").to_str().unwrap()]));
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("PASS PG on tso"), "{stdout}");

    let out = run(mailbox_args(&mut cli())
        .args(["--model", specs.join("relaxed.cfm").to_str().unwrap()])
        .arg("--cx"));
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("FAIL PG on relaxed"), "{stdout}");
    assert!(stdout.contains("memory order"), "{stdout}");
}

#[test]
fn user_written_cfm_model_runs_end_to_end() {
    // A custom model: TSO-like but with fences stripped of meaning —
    // the mailbox's fences cannot repair it, so the check must fail
    // under a weak enough ordering axiom.
    let dir = std::env::temp_dir();
    let path = dir.join("checkfence_cli_custom_model.cfm");
    std::fs::write(
        &path,
        "model custom_weak\noption forwarding\norder (po ; [W]) & loc\n",
    )
    .expect("writable temp dir");
    let out = run(mailbox_args(&mut cli()).args(["--model", path.to_str().unwrap()]));
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("FAIL PG on custom_weak"), "{stdout}");

    // And a strong custom model passes.
    let strong = dir.join("checkfence_cli_custom_sc.cfm");
    std::fs::write(&strong, "model custom_sc\norder po\n").expect("writable temp dir");
    let out = run(mailbox_args(&mut cli()).args(["--model", strong.to_str().unwrap()]));
    assert!(out.status.success(), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("PASS PG on custom_sc"),
        "{out:?}"
    );

    // A malformed spec is a usage error with a spanned message.
    let bad = dir.join("checkfence_cli_bad_model.cfm");
    std::fs::write(&bad, "model broken\norder nonsense\n").expect("writable temp dir");
    let out = run(mailbox_args(&mut cli()).args(["--model", bad.to_str().unwrap()]));
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown relation"),
        "{out:?}"
    );
}

#[test]
fn ablate_prints_a_mutant_matrix() {
    // The unfenced mailbox: the baseline itself fails on pso/relaxed,
    // so --ablate reports the matrix and exits 1.
    let out = run(mailbox_args(&mut cli()).arg("--ablate"));
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("mutant matrix — mailbox / PG"), "{stdout}");
    assert!(stdout.contains("(baseline)"), "{stdout}");
    assert!(stdout.contains("delete `"), "{stdout}");
    assert!(stdout.contains("encodes 1"), "{stdout}");
    for model in ["sc", "tso", "pso", "relaxed"] {
        assert!(stdout.contains(model), "missing {model} column: {stdout}");
    }
}

#[test]
fn ablate_matrix_is_one_session_at_any_jobs_level() {
    // A test's mutant × model matrix is one engine key, so `--jobs 4`
    // answers it from the same one session and one encoding as the
    // sequential run and prints bit-identical tables; only the summary
    // line's timing may differ.
    let table_of = |jobs: &str| -> (Option<i32>, Vec<String>, String) {
        let out = run(mailbox_args(&mut cli()).args(["--ablate", "--jobs", jobs]));
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let table: Vec<String> = stdout
            .lines()
            .filter(|l| !l.trim_start().starts_with("sessions "))
            .map(str::to_string)
            .collect();
        (out.status.code(), table, stdout)
    };
    let (code1, table1, stdout1) = table_of("1");
    let (code4, table4, stdout4) = table_of("4");
    assert_eq!(code1, code4, "exit codes must agree");
    assert_eq!(
        table1, table4,
        "mutant tables must be identical at --jobs 1 and --jobs 4:\n--- jobs 1 ---\n{stdout1}\n--- jobs 4 ---\n{stdout4}"
    );
    for stdout in [&stdout1, &stdout4] {
        assert!(stdout.contains("sessions 1"), "{stdout}");
        assert!(stdout.contains("encodes 1"), "{stdout}");
    }
}

#[test]
fn stats_flag_prints_a_per_query_table() {
    let out = run(mailbox_args(&mut cli()).args(["--model", "tso", "--stats"]));
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("per-query stats:"), "{stdout}");
    for column in [
        "query",
        "solves",
        "conflicts",
        "restarts",
        "assumed",
        "wall",
    ] {
        assert!(stdout.contains(column), "missing column {column}: {stdout}");
    }
    assert!(
        stdout.contains("check mailbox/PG@tso"),
        "per-query label expected: {stdout}"
    );
    // Without the flag, no table.
    let out = run(mailbox_args(&mut cli()).args(["--model", "tso"]));
    assert!(!String::from_utf8_lossy(&out.stdout).contains("per-query stats"));
}

#[test]
fn ablate_accepts_a_cfm_model_column() {
    let dir = std::env::temp_dir();
    let path = dir.join("checkfence_cli_ablate_sc.cfm");
    std::fs::write(&path, "model my_sc\norder po\n").expect("writable temp dir");
    let out = run(mailbox_args(&mut cli()).args(["--ablate", "--model", path.to_str().unwrap()]));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("my_sc"),
        "user spec column missing: {stdout}"
    );
}

#[test]
fn synth_prints_a_coverage_table() {
    let out = run(cli().args(["--synth", "lamport", "--threads", "2", "--ops", "1"]));
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("synth corpus — lamport"), "{stdout}");
    assert!(
        stdout.contains("canonical after symmetry reduction"),
        "{stdout}"
    );
    assert!(stdout.contains("pruned (subsumption)"), "{stdout}");
    for model in ["sc", "tso", "pso", "relaxed"] {
        assert!(stdout.contains(model), "missing {model} column: {stdout}");
    }
    // Synthesis explores shapes outside the hand-written catalog: the
    // two-producer shape breaks the SPSC contract even on SC.
    assert!(stdout.contains("(e|e)"), "{stdout}");
    assert!(stdout.contains("FAIL"), "{stdout}");
}

#[test]
fn synth_coverage_table_is_identical_across_jobs() {
    // Same bounds → byte-identical synthesized corpus and coverage
    // table at --jobs 1 and --jobs 4; only the summary line
    // ("N cells: ... sessions/encodes/timing") may differ.
    let table_of = |jobs: &str| -> (Option<i32>, Vec<String>, String) {
        let out = run(cli().args([
            "--synth",
            "lamport",
            "--threads",
            "2",
            "--ops",
            "1",
            "--jobs",
            jobs,
        ]));
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let table: Vec<String> = stdout
            .lines()
            .filter(|l| !l.contains("cells:"))
            .map(str::to_string)
            .collect();
        (out.status.code(), table, stdout)
    };
    let (code1, table1, stdout1) = table_of("1");
    let (code4, table4, stdout4) = table_of("4");
    assert_eq!(code1, code4, "exit codes must agree");
    assert_eq!(
        table1, table4,
        "coverage tables must be identical at --jobs 1 and --jobs 4:\n\
         --- jobs 1 ---\n{stdout1}\n--- jobs 4 ---\n{stdout4}"
    );
    // One pooled session and one encoding per synthesized harness.
    assert!(stdout1.contains("sessions 9  encodes 9"), "{stdout1}");
}

#[test]
fn synth_rejects_fewer_than_two_threads() {
    // One-thread tests are serial, so a one-thread synthesis would
    // check nothing and pass vacuously.
    let out = run(cli().args(["--synth", "treiber", "--threads", "1", "--ops", "1"]));
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("need at least 2 threads"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing is synthesized: {out:?}");
}

#[test]
fn synth_usage_errors_exit_two() {
    // --synth replaces the source file and the op/test flags.
    let out = run(mailbox_args(&mut cli()).args(["--synth", "treiber"]));
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    // Synthesis bounds need --synth.
    let out = run(mailbox_args(&mut cli()).args(["--threads", "3"]));
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    // Unknown data types are rejected with the candidate list.
    let out = run(cli().args(["--synth", "nope"]));
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("treiber"),
        "{out:?}"
    );
    // Other modes do not combine with synthesis.
    let out = run(cli().args(["--synth", "treiber", "--ablate"]));
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    // Flags the synth mode would silently ignore are rejected, not
    // swallowed: --stats/--stats-json/--cx have no coverage-table
    // meaning, and a built-in --model cannot restrict the lattice (only
    // a .cfm spec adds a column).
    let out = run(cli().args(["--synth", "treiber", "--stats"]));
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let out = run(cli().args(["--synth", "treiber", "--cx"]));
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let out = run(cli().args(["--synth", "treiber", "--model", "tso"]));
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("lattice"),
        "{out:?}"
    );
}

#[test]
fn starved_budget_reports_inconclusive_with_exit_three() {
    // A 1-tick budget with the retry ladder disabled cannot decide
    // anything: the cell degrades to INCONCLUSIVE and the run exits 3
    // instead of aborting.
    let out =
        run(mailbox_args(&mut cli()).args(["--model", "tso", "--budget", "1", "--retries", "0"]));
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("INCONCLUSIVE PG on tso"), "{stdout}");
    assert!(stdout.contains("budget"), "{stdout}");
    assert!(stdout.contains("0 retries"), "{stdout}");

    // The same starved budget with the ladder enabled self-heals: each
    // retry grows the budget geometrically until the query fits.
    let out =
        run(mailbox_args(&mut cli()).args(["--model", "tso", "--budget", "1", "--retries", "10"]));
    assert!(out.status.success(), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("PASS PG on tso"),
        "{out:?}"
    );
}

#[test]
fn counterexample_beats_inconclusive_in_the_exit_code() {
    // One budget, two tests on relaxed: PG concludes (it needs a few
    // hundred ticks) and fails, the three-thread test exhausts (it
    // needs several thousand). The run must report both and exit 1 —
    // a found counterexample outranks an undecided cell.
    let out = run(mailbox_args(&mut cli()).args([
        "--test",
        "BIG=( p p | g g p | p g )",
        "--model",
        "relaxed",
        "--budget",
        "2000",
        "--retries",
        "0",
    ]));
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("FAIL PG on relaxed"), "{stdout}");
    assert!(stdout.contains("INCONCLUSIVE BIG on relaxed"), "{stdout}");
}

#[test]
fn budget_flag_validation_errors_exit_two() {
    for bad in [
        ["--budget", "0"],
        ["--budget", "nope"],
        ["--deadline-ms", "0"],
        ["--retries", "many"],
    ] {
        let out = run(mailbox_args(&mut cli()).args(["--model", "tso"]).args(bad));
        assert_eq!(out.status.code(), Some(2), "{bad:?}: {out:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains(bad[0]),
            "{bad:?}: {out:?}"
        );
    }
    // A generous deadline parses and threads through without starving
    // anything (starvation itself is exercised via tick budgets, which
    // are deterministic; a tight wall-clock bound would flake).
    let out = run(mailbox_args(&mut cli()).args(["--model", "tso", "--deadline-ms", "60000"]));
    assert!(out.status.success(), "{out:?}");
}

#[test]
fn starved_synth_table_renders_question_cells_with_exit_three() {
    // The lamport corpus under a 1-tick budget: every solved cell
    // degrades to `?`, nothing is inferred (an inconclusive cell proves
    // nothing, so the model lattice must not propagate it), and the
    // run exits 3.
    let out = run(cli().args([
        "--synth",
        "lamport",
        "--threads",
        "2",
        "--ops",
        "1",
        "--budget",
        "1",
        "--retries",
        "0",
    ]));
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("36 solved, 0 inferred"), "{stdout}");
    assert!(stdout.contains('?'), "{stdout}");
    assert!(!stdout.contains("FAIL"), "nothing was decided: {stdout}");
}

#[test]
fn stats_json_matches_the_stats_table() {
    let path = std::env::temp_dir().join(format!("cf-cli-stats-{}.json", std::process::id()));
    let out = run(mailbox_args(&mut cli())
        .args(["--model", "tso", "--stats", "--stats-json"])
        .arg(&path));
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let json = std::fs::read_to_string(&path).expect("stats json written");
    std::fs::remove_file(&path).ok();
    assert!(json.contains("\"schema_version\": 5"), "{json}");
    // The core ledger is always present; without --explain no cores
    // are extracted.
    assert!(json.contains("\"cores_extracted\": 0"), "{json}");
    assert!(json.contains("\"core_size\": 0"), "{json}");
    // The text table's row and the JSON export must agree on the
    // per-query counters, not just both exist.
    let row = stdout
        .lines()
        .find(|l| l.trim_start().starts_with("check mailbox/PG@tso"))
        .expect("table row");
    let cols: Vec<&str> = row.split_whitespace().collect();
    let solves: u64 = cols[2].parse().expect("solves column");
    let conflicts: u64 = cols[3].parse().expect("conflicts column");
    assert!(
        json.contains(&format!(
            "\"query\": \"check mailbox/PG@tso\", \"solves\": {solves}, \"conflicts\": {conflicts}"
        )),
        "JSON and table disagree:\n{json}\n{stdout}"
    );
}

#[test]
fn stripped_traces_are_identical_across_jobs() {
    let trace_of = |jobs: &str| -> String {
        let path =
            std::env::temp_dir().join(format!("cf-cli-trace-{}-{jobs}.jsonl", std::process::id()));
        let out = run(mailbox_args(&mut cli())
            .args(["--test", "GG=( p | g g )"])
            .args(["--model", "tso", "--jobs", jobs, "--trace"])
            .arg(&path));
        assert!(out.status.success(), "{out:?}");
        let text = std::fs::read_to_string(&path).expect("trace written");
        std::fs::remove_file(&path).ok();
        text
    };
    let t1 = trace_of("1");
    let t4 = trace_of("4");
    assert!(t1.starts_with("{\"k\":\"trace_meta\""), "{t1}");
    assert_eq!(
        cf_trace::strip(&t1),
        cf_trace::strip(&t4),
        "stripped traces must be byte-identical at --jobs 1 and --jobs 4"
    );
}

#[test]
fn observability_sinks_leave_stdout_unchanged() {
    let dir = std::env::temp_dir();
    let trace = dir.join(format!("cf-cli-sink-{}.jsonl", std::process::id()));
    let prom = dir.join(format!("cf-cli-sink-{}.prom", std::process::id()));
    let plain = run(mailbox_args(&mut cli()).args(["--model", "tso"]));
    let sunk = run(mailbox_args(&mut cli())
        .args(["--model", "tso", "--trace"])
        .arg(&trace)
        .arg("--metrics")
        .arg(&prom));
    assert!(plain.status.success() && sunk.status.success());
    // File sinks must not perturb the verdict output.
    assert_eq!(plain.stdout, sunk.stdout, "tracing changed stdout");
    let prom_text = std::fs::read_to_string(&prom).expect("metrics written");
    let trace_text = std::fs::read_to_string(&trace).expect("trace written");
    std::fs::remove_file(&prom).ok();
    std::fs::remove_file(&trace).ok();
    assert!(
        prom_text.contains("checkfence_solver_ticks_total"),
        "{prom_text}"
    );
    assert!(
        prom_text.contains("checkfence_queries_total{outcome=\"pass\"} 1"),
        "{prom_text}"
    );
    assert!(trace_text.contains("\"k\":\"query_done\""), "{trace_text}");

    // --profile prints the attribution table after the verdicts.
    let out = run(mailbox_args(&mut cli()).args(["--model", "tso", "--profile"]));
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cost profile (schema 5):"), "{stdout}");
    assert!(stdout.contains("attributed"), "{stdout}");
}

#[test]
fn explain_prints_provenance_per_verdict() {
    // The unfenced mailbox passes on tso and fails on relaxed: with
    // --explain the pass carries a minimized proof core and the failure
    // its witness environment. Without the flag, neither line appears.
    let path = std::env::temp_dir().join(format!("cf-cli-explain-{}.json", std::process::id()));
    let out = run(mailbox_args(&mut cli())
        .args(["--model", "tso", "--explain", "--stats-json"])
        .arg(&path));
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("PASS PG on tso"), "{stdout}");
    assert!(stdout.contains("proof uses:"), "{stdout}");
    assert!(stdout.contains("minimal"), "{stdout}");
    // The core ledger counts the proof.
    let json = std::fs::read_to_string(&path).expect("stats json written");
    std::fs::remove_file(&path).ok();
    assert!(json.contains("\"cores_extracted\": 1"), "{json}");

    let out = run(mailbox_args(&mut cli()).args(["--model", "relaxed", "--explain"]));
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("FAIL PG on relaxed"), "{stdout}");
    assert!(stdout.contains("witness under:"), "{stdout}");

    let out = run(mailbox_args(&mut cli()).args(["--model", "tso"]));
    assert!(
        !String::from_utf8_lossy(&out.stdout).contains("proof uses:"),
        "provenance is opt-in: {out:?}"
    );
}

#[test]
fn explain_output_is_identical_across_jobs() {
    // Provenance reports are pure functions of the verdicts: the whole
    // stdout (verdicts + provenance lines) must be byte-identical at
    // --jobs 1 and --jobs 4, for plain checks and for --synth.
    let check_of = |jobs: &str| -> Vec<u8> {
        let out = run(mailbox_args(&mut cli())
            .args(["--test", "GG=( p | g g )"])
            .args(["--model", "tso", "--explain", "--jobs", jobs]));
        assert!(out.status.success(), "{out:?}");
        out.stdout
    };
    assert_eq!(
        String::from_utf8_lossy(&check_of("1")),
        String::from_utf8_lossy(&check_of("4")),
        "--explain check output must not depend on --jobs"
    );
    let synth_of = |jobs: &str| -> Vec<String> {
        let out = run(cli().args([
            "--synth",
            "lamport",
            "--threads",
            "2",
            "--ops",
            "1",
            "--explain",
            "--jobs",
            jobs,
        ]));
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| !l.contains("cells:")) // the timing summary line
            .map(str::to_string)
            .collect()
    };
    let s1 = synth_of("1");
    assert!(
        s1.iter().any(|l| l.contains("proof uses:")),
        "synth --explain must print provenance: {s1:?}"
    );
    assert_eq!(
        s1,
        synth_of("4"),
        "--synth --explain output must not depend on --jobs"
    );
}

#[test]
fn metrics_query_classes_cross_check_stats_json() {
    // Satellite contract: `checkfence_queries_by_class` totals in the
    // --metrics snapshot must equal the number of per-query rows the
    // same run exported to --stats-json.
    let dir = std::env::temp_dir();
    let prom = dir.join(format!("cf-cli-class-{}.prom", std::process::id()));
    let json = dir.join(format!("cf-cli-class-{}.json", std::process::id()));
    let out = run(mailbox_args(&mut cli())
        .args(["--test", "GG=( p | g g )"])
        .args(["--model", "tso", "--metrics"])
        .arg(&prom)
        .arg("--stats-json")
        .arg(&json));
    assert!(out.status.success(), "{out:?}");
    let prom_text = std::fs::read_to_string(&prom).expect("metrics written");
    let json_text = std::fs::read_to_string(&json).expect("stats json written");
    std::fs::remove_file(&prom).ok();
    std::fs::remove_file(&json).ok();
    let by_class: u64 = prom_text
        .lines()
        .filter(|l| l.starts_with("checkfence_queries_by_class{"))
        .map(|l| {
            l.rsplit(' ')
                .next()
                .and_then(|n| n.parse::<u64>().ok())
                .unwrap_or_else(|| panic!("unparsable metric line: {l}"))
        })
        .sum();
    let json_rows = json_text.matches("\"query\":").count() as u64;
    assert!(json_rows >= 2, "{json_text}");
    assert_eq!(
        by_class, json_rows,
        "queries_by_class totals must equal the --stats-json row count:\n{prom_text}\n{json_text}"
    );
}

#[test]
fn explain_conflicts_with_non_checking_modes() {
    for extra in [["--mine-only"], ["--infer"], ["--analyze"]] {
        let out = run(mailbox_args(&mut cli()).arg("--explain").args(extra));
        assert_eq!(out.status.code(), Some(2), "{extra:?}: {out:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("--explain"),
            "{extra:?}: {out:?}"
        );
    }
}

// --infer-procs tunes fence inference; anywhere else it would be
// silently ignored, so it is a usage error in every mode.
fn assert_needs_infer(cmd: &mut Command, flag: &str) {
    let out = run(cmd);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(flag) && stderr.contains("needs --infer"),
        "{out:?}"
    );
}

const SYNTH_MS2: [&str; 6] = ["--synth", "ms2", "--threads", "1", "--ops", "1"];

#[test]
fn infer_procs_without_infer_is_a_usage_error() {
    assert_needs_infer(
        mailbox_args(&mut cli()).args(["--model", "tso", "--infer-procs", "put"]),
        "--infer-procs",
    );
}

#[test]
fn synth_rejects_infer_procs_without_infer() {
    assert_needs_infer(
        cli().args(SYNTH_MS2).args(["--infer-procs", "a,b"]),
        "--infer-procs",
    );
}

// Inference always searches the full candidate list and the memory
// order is always encoded pairwise, so neither has a flag: a script
// that still passes one fails loudly rather than running as before.
#[test]
fn no_prune_and_encoding_are_unknown_options() {
    for flag in [&["--no-prune"][..], &["--encoding", "timestamp"]] {
        let out = run(mailbox_args(&mut cli())
            .args(["--model", "relaxed", "--infer"])
            .args(flag));
        assert_eq!(out.status.code(), Some(2), "{flag:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown option `{}`", flag[0])),
            "{flag:?}: {out:?}"
        );
    }
}

// --infer and --analyze run no check of their own: every check-mode
// flag would be silently ignored there, so each is a usage error.
const CHECK_MODE_FLAGS: [&[&str]; 8] = [
    &["--method", "commit-queue"],
    &["--spec-cache", "unused.obs"],
    &["--budget", "1000"],
    &["--deadline-ms", "1000"],
    &["--retries", "1"],
    &["--stats"],
    &["--stats-json", "unused.json"],
    &["--cx"],
];

fn assert_rejects_check_mode_flags(mode: &str, model: &str) {
    for flag in CHECK_MODE_FLAGS {
        let out = run(mailbox_args(&mut cli())
            .args(["--model", model, mode])
            .args(flag));
        assert_eq!(out.status.code(), Some(2), "{mode} {flag:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(mode) && stderr.contains(flag[0]),
            "{mode} {flag:?}: {out:?}"
        );
    }
}

#[test]
fn infer_rejects_check_mode_flags() {
    assert_rejects_check_mode_flags("--infer", "relaxed");
}

#[test]
fn analyze_rejects_check_mode_flags() {
    assert_rejects_check_mode_flags("--analyze", "tso");
}

#[test]
fn ablate_conflicts_with_infer() {
    let out = run(mailbox_args(&mut cli()).args(["--ablate", "--infer"]));
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--ablate"),
        "{out:?}"
    );
}

/// Runs the mailbox on relaxed against a `--spec-cache` file holding
/// `lines` (after the format header) and returns the output.
fn check_against_cached_spec(name: &str, lines: &str) -> Output {
    let dir = std::env::temp_dir().join(format!("cf-cli-width-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let cache = dir.join("pg.spec");
    std::fs::write(&cache, format!("checkfence-obs-set v1\n{lines}")).expect("write cache");
    let out = run(mailbox_args(&mut cli())
        .args(["--model", "relaxed"])
        .arg("--spec-cache")
        .arg(&cache));
    std::fs::remove_dir_all(&dir).ok();
    out
}

#[test]
fn too_short_cached_spec_is_an_error_not_a_pass() {
    // PG observes put's argument and get's return: 2 values. Width-1
    // vectors would be compared on the first value only.
    let out = check_against_cached_spec("short", "0\n1\n");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("must have 2 values"), "{stderr}");
}

#[test]
fn too_long_cached_spec_is_an_error_not_a_panic() {
    let out = check_against_cached_spec("long", "0 0 0\n");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("but one has 3"), "{stderr}");
}

#[test]
fn harness_mistakes_fail_mining_with_exit_two() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("assets/mailbox.c");
    let many = format!("( {} | g )", "p".repeat(22));
    for (args, expected) in [
        (
            vec![
                "--op",
                "p=nosuch:arg",
                "--op",
                "g=get:ret",
                "--test",
                "( p | g )",
            ],
            "missing wrapper `nosuch`",
        ),
        (
            vec!["--op", "p=put:arg", "--op", "g=get:ret", "--init", "nosuch"],
            "missing init procedure `nosuch`",
        ),
        (
            vec!["--op", "p=put", "--op", "g=get:ret", "--test", "( p | g )"],
            "`put` expects 1 args, got 0",
        ),
        (
            vec!["--op", "p=put:arg", "--op", "g=get:ret", "--test", &many],
            "22 nondeterministic arguments",
        ),
    ] {
        let mut cmd = cli();
        cmd.arg(&src).args(&args).args(["--model", "tso"]);
        if !args.contains(&"--test") {
            cmd.args(["--test", "( p | g )"]);
        }
        let out = run(&mut cmd);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("mining failed") && stderr.contains(expected),
            "{args:?}: {stderr}"
        );
    }
}
