//! `checkfence` — command-line front door to the verifier.
//!
//! ```text
//! checkfence [OPTIONS] <SOURCE.c>
//! checkfence --synth TYPE [--threads T] [--ops K] [--jobs N]
//!
//! ARGS:
//!   <SOURCE.c>           mini-C implementation file
//!
//! OPTIONS:
//!   --op KEY=PROC[:arg][:ret]   declare an operation (repeatable).
//!                               `arg` gives it one nondeterministic {0,1}
//!                               argument, `ret` an observed return value.
//!   --test [NAME=]TEXT          symbolic test in Fig. 8 notation, e.g.
//!                               "( e | d )" (repeatable; default name Tn)
//!   --init PROC                 initialization procedure
//!   --model MODEL               sc | tso | pso | relaxed, or a path to
//!                               a .cfm memory-model spec   [relaxed]
//!   --method METHOD             obs | commit-queue | commit-stack  [obs]
//!   --spec-cache FILE           read/write the mined observation set
//!                               (single test only)
//!   --mine-only                 print the observation set and exit
//!   --infer                     infer a minimal fence placement instead
//!                               of checking
//!   --infer-procs A,B           restrict inference candidates; needs
//!                               --infer
//!   --analyze                   print the static critical-cycle report
//!                               for each test instead of checking:
//!                               every cycle with, per leg, the ordering
//!                               axiom a fence there would defend and
//!                               the models that relax it
//!   --ablate                    run a Fig. 11-style mutant matrix: every
//!                               statement deletion / fence weakening /
//!                               adjacent-op swap checked under all four
//!                               hardware models (plus the --model spec,
//!                               if one is given) from one incremental
//!                               encoding per test
//!   --synth TYPE                synthesize the whole bounded-test corpus
//!                               for a bundled data type (treiber, ms2,
//!                               msn, lazylist, harris, snark, lamport —
//!                               append `-unfenced` for the build without
//!                               fences), batch-check it across the
//!                               hardware lattice (plus a --model .cfm
//!                               column) and print a Fig. 5-style
//!                               coverage table; replaces <SOURCE.c>
//!   --threads T                 synthesis bound: threads per test  [2]
//!   --ops K                     synthesis bound: operations per
//!                               thread  [2]
//!   --jobs N                    mine and check up to N tests at once,
//!                               one session per test at any N (an
//!                               --ablate matrix is one session)  [1]
//!   --budget TICKS              initial solver tick budget per query
//!                               (ticks = propagations + conflicts, so
//!                               the cutoff is machine-independent);
//!                               exhausted cells render as `?`
//!   --deadline-ms N             wall-clock deadline per query attempt
//!                               (machine-dependent safety net)
//!   --retries N                 escalating retries per query: each
//!                               retry multiplies the tick budget by
//!                               8  [2]
//!   --explain                   attach verdict provenance: after each
//!                               PASS print the assumptions its proof
//!                               leaned on (model, axiom groups, fence
//!                               sites — the minimized unsat core of the
//!                               decisive solve), after each FAIL the
//!                               witness's assumption environment; with
//!                               --ablate/--synth appends the per-cell
//!                               provenance report. Deterministic: the
//!                               report is byte-identical at any --jobs
//!                               count
//!   --stats                     print a per-query solver-statistics
//!                               table (solves, conflicts, restarts,
//!                               retries, assumed literals, wall time)
//!   --stats-json FILE           write the --stats table as versioned
//!                               JSON (`schema_version` 5; includes the
//!                               cores_extracted/core_size ledger)
//!   --cx                        print full counterexample traces
//!   --trace FILE                write a structured JSONL event trace
//!                               (spans for encodes, solver calls,
//!                               retries, session lifecycle); stripped of
//!                               timing fields it is byte-identical at
//!                               any --jobs count
//!   --metrics FILE              write a Prometheus-style text metrics
//!                               snapshot of the run
//!   --profile                   print a per-query-class cost profile
//!                               (solver-tick attribution) after the run
//!   -h, --help                  this text
//!
//! --infer and --analyze run no check of their own, so they reject
//! --method commit-*, --spec-cache, --budget, --deadline-ms, --retries,
//! --stats, --stats-json, --cx and --explain.
//!
//! EXIT STATUS: 0 all tests pass, 1 some check failed (counterexample
//! or failing baseline), 2 usage or infrastructure error, 3 no failure
//! but some cells inconclusive (budget, deadline, or a crashed worker).
//! A failure wins over an inconclusive cell: 1 beats 3.
//! ```
//!
//! Example:
//!
//! ```text
//! checkfence queue.c --init init_queue \
//!     --op e=enqueue_op:arg --op d=dequeue_op:ret \
//!     --test "T0=( e | d )" --model relaxed
//! ```

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use cf_memmodel::{Mode, ModeSet};
use cf_spec::ModelSpec;
use checkfence::commit::AbstractType;
use checkfence::infer::{infer, InferConfig};
use checkfence::{
    mine_reference, Answer, CheckConfig, CheckOutcome, Engine, EngineConfig, Harness, ModelSel,
    ObsSet, OpSig, Query, QueryStats, TestSpec,
};

/// The model axis of a run: a built-in mode or a user `.cfm` spec.
#[derive(Clone)]
enum ModelArg {
    Builtin(Mode),
    Spec(ModelSpec),
}

impl ModelArg {
    fn name(&self) -> &str {
        match self {
            ModelArg::Builtin(m) => m.name(),
            ModelArg::Spec(s) => &s.name,
        }
    }
}

struct Options {
    source: PathBuf,
    ops: Vec<OpSig>,
    tests: Vec<(Option<String>, String)>,
    init: Option<String>,
    model: ModelArg,
    model_explicit: bool,
    method: Method,
    spec_cache: Option<PathBuf>,
    mine_only: bool,
    run_infer: bool,
    run_ablate: bool,
    run_analyze: bool,
    infer_procs: Option<Vec<String>>,
    synth: Option<String>,
    threads: usize,
    ops_per_thread: usize,
    bounds_explicit: bool,
    jobs: usize,
    budget: Option<u64>,
    deadline_ms: Option<u64>,
    retries: Option<u32>,
    stats: bool,
    stats_json: Option<PathBuf>,
    cx: bool,
    explain: bool,
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    profile: bool,
}

impl Options {
    /// `true` when any flag needs the structured event collector.
    fn wants_tracing(&self) -> bool {
        self.trace_out.is_some() || self.metrics_out.is_some() || self.profile
    }
}

/// What a run that reached its end observed, folded into the exit code.
#[derive(Clone, Copy, Default)]
struct RunStatus {
    /// Some check found a counterexample (or an ablation baseline
    /// failed).
    failed: bool,
    /// Some cell ran out of budget/deadline or lost its worker.
    inconclusive: bool,
}

impl RunStatus {
    fn pass() -> RunStatus {
        RunStatus::default()
    }

    /// The documented contract: 1 (failure) beats 3 (inconclusive).
    fn exit_code(self) -> ExitCode {
        if self.failed {
            ExitCode::from(1)
        } else if self.inconclusive {
            ExitCode::from(3)
        } else {
            ExitCode::SUCCESS
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Method {
    Observation,
    Commit(AbstractType),
}

fn usage() -> &'static str {
    "usage: checkfence [OPTIONS] <SOURCE.c>\n\
     \n\
     options:\n\
     \x20 --op KEY=PROC[:arg][:ret]  declare an operation (repeatable)\n\
     \x20 --test [NAME=]TEXT         symbolic test, e.g. \"( e | d )\" (repeatable)\n\
     \x20 --init PROC                initialization procedure\n\
     \x20 --model MODEL              sc | tso | pso | relaxed,\n\
     \x20                            or a .cfm spec file    [relaxed]\n\
     \x20 --method METHOD            obs | commit-queue | commit-stack  [obs]\n\
     \x20 --spec-cache FILE          cache the mined observation set\n\
     \x20 --mine-only                print the observation set and exit\n\
     \x20 --infer                    infer a minimal fence placement\n\
     \x20 --infer-procs A,B          restrict inference candidates;\n\
     \x20                            needs --infer\n\
     \x20 --analyze                  print the static critical-cycle report\n\
     \x20                            for each test instead of checking\n\
     \x20 --ablate                   run a mutant matrix (Fig. 11 ablations)\n\
     \x20 --synth TYPE               synthesize + batch-check the bounded\n\
     \x20                            test corpus of a bundled data type\n\
     \x20                            (e.g. treiber, ms2, lamport-unfenced);\n\
     \x20                            replaces <SOURCE.c>\n\
     \x20 --threads T                synthesis bound: threads per test [2]\n\
     \x20 --ops K                    synthesis bound: ops per thread [2]\n\
     \x20 --jobs N                   mine and check up to N tests at once\n\
     \x20                            (one session per test at any N) [1]\n\
     \x20 --budget TICKS             initial solver tick budget per query\n\
     \x20                            (deterministic; exhausted cells\n\
     \x20                            render as `?`)\n\
     \x20 --deadline-ms N            wall-clock deadline per query attempt\n\
     \x20 --retries N                escalating retries per query (each\n\
     \x20                            retry multiplies the tick budget\n\
     \x20                            by 8) [2]\n\
     \x20 --stats                    print a per-query solver-stats table\n\
     \x20 --stats-json FILE          write the --stats table as versioned JSON\n\
     \x20 --cx                       print full counterexample traces\n\
     \x20 --explain                  print verdict provenance (proof cores\n\
     \x20                            and witness environments) per verdict;\n\
     \x20                            in ablate/synth modes appends the\n\
     \x20                            per-cell provenance report\n\
     \x20 --trace FILE               write a structured JSONL event trace\n\
     \x20 --metrics FILE             write a Prometheus-style metrics snapshot\n\
     \x20 --profile                  print a per-query-class cost profile\n\
     \x20 -h, --help                 this text\n\
     \n\
     exit status: 0 all tests pass, 1 some check failed, 2 usage or\n\
     infrastructure error, 3 no failure but some cells inconclusive\n\
     (1 beats 3)"
}

fn parse_op(spec: &str) -> Result<OpSig, String> {
    let (key, rest) = spec
        .split_once('=')
        .ok_or_else(|| format!("--op `{spec}`: expected KEY=PROC[:arg][:ret]"))?;
    let mut key_chars = key.chars();
    let key = match (key_chars.next(), key_chars.next()) {
        (Some(c), None) => c,
        _ => return Err(format!("--op `{spec}`: KEY must be one character")),
    };
    let mut parts = rest.split(':');
    let proc_name = parts.next().unwrap_or_default().to_string();
    if proc_name.is_empty() {
        return Err(format!("--op `{spec}`: missing procedure name"));
    }
    let mut num_args = 0;
    let mut has_ret = false;
    for flag in parts {
        match flag {
            "arg" => num_args = 1,
            "ret" => has_ret = true,
            other => return Err(format!("--op `{spec}`: unknown flag `{other}`")),
        }
    }
    Ok(OpSig {
        key,
        proc_name,
        num_args,
        has_ret,
    })
}

fn parse_model(s: &str) -> Result<ModelArg, String> {
    if let Some(mode) = Mode::all()
        .into_iter()
        .find(|m| m.name() == s)
        .filter(|m| *m != Mode::Serial)
    {
        return Ok(ModelArg::Builtin(mode));
    }
    if s.ends_with(".cfm") || Path::new(s).exists() {
        let src = std::fs::read_to_string(s).map_err(|e| format!("--model {s}: {e}"))?;
        let spec = cf_spec::compile(&src).map_err(|e| format!("--model {s}: {e}"))?;
        return Ok(ModelArg::Spec(spec));
    }
    Err(format!(
        "--model `{s}`: expected sc, tso, pso, relaxed or a .cfm spec file"
    ))
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut source = None;
    let mut opts = Options {
        source: PathBuf::new(),
        ops: Vec::new(),
        tests: Vec::new(),
        init: None,
        model: ModelArg::Builtin(Mode::Relaxed),
        model_explicit: false,
        method: Method::Observation,
        spec_cache: None,
        mine_only: false,
        run_infer: false,
        run_ablate: false,
        run_analyze: false,
        infer_procs: None,
        synth: None,
        threads: 2,
        ops_per_thread: 2,
        bounds_explicit: false,
        jobs: 1,
        budget: None,
        deadline_ms: None,
        retries: None,
        stats: false,
        stats_json: None,
        cx: false,
        explain: false,
        trace_out: None,
        metrics_out: None,
        profile: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "-h" | "--help" => return Err(String::new()),
            "--op" => opts.ops.push(parse_op(&value("--op")?)?),
            "--test" => {
                let v = value("--test")?;
                match v.split_once('=') {
                    Some((name, text)) if !name.contains('(') => {
                        opts.tests.push((Some(name.to_string()), text.to_string()));
                    }
                    _ => opts.tests.push((None, v)),
                }
            }
            "--init" => opts.init = Some(value("--init")?),
            "--model" => {
                opts.model = parse_model(&value("--model")?)?;
                opts.model_explicit = true;
            }
            "--method" => {
                opts.method = match value("--method")?.as_str() {
                    "obs" => Method::Observation,
                    "commit-queue" => Method::Commit(AbstractType::Queue),
                    "commit-stack" => Method::Commit(AbstractType::Stack),
                    other => {
                        return Err(format!(
                            "--method `{other}`: expected obs, commit-queue or commit-stack"
                        ))
                    }
                };
            }
            "--spec-cache" => opts.spec_cache = Some(PathBuf::from(value("--spec-cache")?)),
            "--mine-only" => opts.mine_only = true,
            "--infer" => opts.run_infer = true,
            "--ablate" => opts.run_ablate = true,
            "--analyze" => opts.run_analyze = true,
            "--infer-procs" => {
                opts.infer_procs = Some(
                    value("--infer-procs")?
                        .split(',')
                        .map(str::to_string)
                        .collect(),
                );
            }
            "--synth" => opts.synth = Some(value("--synth")?),
            "--threads" => {
                let v = value("--threads")?;
                opts.threads = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("--threads `{v}`: expected a positive integer"))?;
                opts.bounds_explicit = true;
            }
            "--ops" => {
                let v = value("--ops")?;
                opts.ops_per_thread = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("--ops `{v}`: expected a positive integer"))?;
                opts.bounds_explicit = true;
            }
            "--jobs" => {
                let v = value("--jobs")?;
                opts.jobs = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("--jobs `{v}`: expected a positive integer"))?;
            }
            "--budget" => {
                let v = value("--budget")?;
                opts.budget =
                    Some(v.parse::<u64>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                        format!("--budget `{v}`: expected a positive tick count")
                    })?);
            }
            "--deadline-ms" => {
                let v = value("--deadline-ms")?;
                opts.deadline_ms =
                    Some(v.parse::<u64>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                        format!("--deadline-ms `{v}`: expected a positive millisecond count")
                    })?);
            }
            "--retries" => {
                let v = value("--retries")?;
                opts.retries =
                    Some(v.parse::<u32>().map_err(|_| {
                        format!("--retries `{v}`: expected a non-negative integer")
                    })?);
            }
            "--stats" => opts.stats = true,
            "--stats-json" => opts.stats_json = Some(PathBuf::from(value("--stats-json")?)),
            "--cx" => opts.cx = true,
            "--explain" => opts.explain = true,
            "--trace" => opts.trace_out = Some(PathBuf::from(value("--trace")?)),
            "--metrics" => opts.metrics_out = Some(PathBuf::from(value("--metrics")?)),
            "--profile" => opts.profile = true,
            other if other.starts_with('-') => return Err(format!("unknown option `{other}`")),
            other => {
                if source.replace(PathBuf::from(other)).is_some() {
                    return Err("more than one source file given".into());
                }
            }
        }
    }
    // The inference tuning flag means nothing without --infer (which
    // --synth rejects); accepting it would misreport what ran.
    if opts.infer_procs.is_some() && !opts.run_infer {
        return Err("--infer-procs restricts inference candidates; it needs --infer".into());
    }
    if opts.synth.is_some() {
        // Synthesis mode generates its own harness and tests.
        if source.is_some() {
            return Err("--synth replaces <SOURCE.c>; drop the source file".into());
        }
        if !opts.ops.is_empty() || !opts.tests.is_empty() || opts.init.is_some() {
            return Err("--synth derives --op/--test/--init from the bundled type".into());
        }
        if opts.run_infer || opts.run_ablate || opts.mine_only || opts.spec_cache.is_some() {
            return Err(
                "--synth cannot be combined with --infer, --ablate, --mine-only or --spec-cache"
                    .into(),
            );
        }
        if opts.run_analyze {
            return Err("--analyze reports on --op/--test harnesses; drop --synth".into());
        }
        if !matches!(opts.method, Method::Observation) {
            return Err("--synth uses the observation method; drop --method".into());
        }
        // Accepting these and silently ignoring them would misreport
        // what the run did. The observability sinks (--trace/--metrics/
        // --profile) stay available: they tap the engine, not the table.
        if opts.stats || opts.stats_json.is_some() || opts.cx {
            return Err("--synth prints the coverage table; drop --stats/--stats-json/--cx".into());
        }
        if opts.model_explicit && matches!(opts.model, ModelArg::Builtin(_)) {
            return Err(
                "--synth always checks the whole hardware lattice; --model only adds a \
                 .cfm spec column"
                    .into(),
            );
        }
        return Ok(opts);
    }
    if opts.bounds_explicit {
        return Err("--threads/--ops are synthesis bounds; they need --synth".into());
    }
    // Silently ignoring --explain in modes that never produce verdicts
    // would misreport what the run did.
    if opts.explain && (opts.mine_only || opts.run_infer || opts.run_analyze) {
        return Err(
            "--explain attaches provenance to check verdicts; it cannot be combined \
             with --mine-only, --infer or --analyze"
                .into(),
        );
    }
    // Inference checks with its own default configuration and the
    // analysis checks nothing, so the check-mode flags would be
    // silently ignored there.
    if opts.run_infer || opts.run_analyze {
        let mode = if opts.run_infer {
            "--infer"
        } else {
            "--analyze"
        };
        let check_flags = [
            (
                matches!(opts.method, Method::Commit(_)),
                "--method commit-*",
            ),
            (opts.spec_cache.is_some(), "--spec-cache"),
            (opts.budget.is_some(), "--budget"),
            (opts.deadline_ms.is_some(), "--deadline-ms"),
            (opts.retries.is_some(), "--retries"),
            (opts.stats, "--stats"),
            (opts.stats_json.is_some(), "--stats-json"),
            (opts.cx, "--cx"),
        ];
        if let Some((_, flag)) = check_flags.iter().find(|(given, _)| *given) {
            return Err(format!("{mode} cannot be combined with {flag}"));
        }
    }
    opts.source = source.ok_or("missing source file")?;
    if opts.ops.is_empty() {
        return Err("at least one --op is required".into());
    }
    if opts.tests.is_empty() {
        return Err("at least one --test is required".into());
    }
    if opts.spec_cache.is_some() && opts.tests.len() != 1 {
        return Err("--spec-cache requires exactly one --test".into());
    }
    Ok(opts)
}

fn build_harness(opts: &Options) -> Result<Harness, String> {
    let source = std::fs::read_to_string(&opts.source)
        .map_err(|e| format!("cannot read {}: {e}", opts.source.display()))?;
    let program = cf_minic::compile(&source).map_err(|e| format!("compile error: {e}"))?;
    Ok(Harness {
        name: opts
            .source
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "cli".into()),
        program,
        init_proc: opts.init.clone(),
        ops: opts.ops.clone(),
    })
}

fn mined_spec(
    harness: &Harness,
    test: &TestSpec,
    cache: Option<&PathBuf>,
) -> Result<(ObsSet, &'static str), String> {
    if let Some(path) = cache {
        if path.exists() {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let spec = ObsSet::from_text(&text).map_err(|e| e.to_string())?;
            return Ok((spec, "cached"));
        }
    }
    let spec = mine_reference(harness, test)
        .map_err(|e| format!("mining failed: {e}"))?
        .spec;
    if let Some(path) = cache {
        std::fs::write(path, spec.to_text())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok((spec, "mined"))
}

/// Applies the `--budget` / `--deadline-ms` / `--retries` resource-
/// governance flags to a check configuration, and under `--explain`
/// turns on budgeted proof-core minimization (the budget is solver
/// ticks, so the cutoff — and therefore the report — is deterministic
/// and machine-independent; starving it degrades to the raw core, never
/// to a changed verdict).
fn apply_budgets(check: &mut CheckConfig, opts: &Options) {
    check.tick_budget = opts.budget;
    check.deadline = opts.deadline_ms.map(std::time::Duration::from_millis);
    if let Some(r) = opts.retries {
        check.max_retries = r;
    }
    if opts.explain {
        check.core_minimize_ticks = Some(2_000_000);
    }
}

fn run() -> Result<RunStatus, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_args(&args)?;
    if opts.wants_tracing() {
        cf_trace::enable();
    }
    let result = run_with(&opts);
    if opts.wants_tracing() {
        let events = cf_trace::take();
        cf_trace::disable();
        let flushed = flush_sinks(&opts, &events);
        // A run error outranks a sink error; a sink error still fails
        // an otherwise-green run (silently dropping the artifact the
        // user asked for would misreport what happened).
        return match (result, flushed) {
            (Err(e), _) => Err(e),
            (Ok(_), Err(e)) => Err(e),
            (ok, Ok(())) => ok,
        };
    }
    result
}

/// Writes/prints every requested observability sink from one drained
/// event list, so the JSONL trace, the metrics snapshot and the profile
/// table always describe the same run.
fn flush_sinks(opts: &Options, events: &[cf_trace::Event]) -> Result<(), String> {
    if let Some(path) = &opts.trace_out {
        std::fs::write(path, cf_trace::render_jsonl(events))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    if let Some(path) = &opts.metrics_out {
        std::fs::write(path, cf_trace::render_prom(events))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    if opts.profile {
        print!("{}", cf_trace::profile(events).render());
    }
    Ok(())
}

fn run_with(opts: &Options) -> Result<RunStatus, String> {
    if let Some(name) = &opts.synth {
        return run_synth(opts, name);
    }
    let harness = build_harness(opts)?;

    let mut tests = Vec::new();
    for (i, (name, text)) in opts.tests.iter().enumerate() {
        let name = name.clone().unwrap_or_else(|| format!("T{i}"));
        tests.push(TestSpec::parse(&name, text).map_err(|e| e.to_string())?);
    }

    if opts.run_analyze {
        if opts.run_infer || opts.run_ablate || opts.mine_only {
            return Err(
                "--analyze cannot be combined with --infer, --ablate or --mine-only".into(),
            );
        }
        return run_analyze(&harness, &tests);
    }

    if opts.run_ablate {
        if opts.run_infer || opts.mine_only {
            return Err("--ablate cannot be combined with --infer or --mine-only".into());
        }
        if !matches!(opts.method, Method::Observation) {
            return Err("--ablate uses the observation method; drop --method".into());
        }
        if opts.spec_cache.is_some() {
            return Err("--ablate does not support --spec-cache".into());
        }
        return run_ablate(opts, &harness, &tests);
    }

    if opts.run_infer {
        let ModelArg::Builtin(mode) = &opts.model else {
            return Err("--infer requires a built-in --model (sc, tso, pso, relaxed)".into());
        };
        let config = InferConfig {
            procs: opts.infer_procs.clone(),
            ..InferConfig::default()
        };
        let r = infer(&harness, &tests, *mode, &config)
            .map_err(|e| format!("inference failed: {e}"))?;
        println!(
            "inferred {} fence(s) from {} candidates ({} checks, {:.2?}):",
            r.kept.len(),
            r.candidates,
            r.checks,
            r.elapsed
        );
        for site in &r.kept {
            println!("  {site}");
        }
        return Ok(RunStatus::pass());
    }

    // Check / mine mode: mine every test's specification up front
    // (reference interpreter, optionally cached) — only where the spec
    // is actually consumed, i.e. not for the commit-point method — then
    // answer the whole battery as one engine batch, one session per
    // test, up to --jobs sessions at once.
    if matches!(opts.method, Method::Commit(_)) && matches!(opts.model, ModelArg::Spec(_)) {
        return Err("--method commit-* requires a built-in --model".into());
    }
    if opts.explain && matches!(opts.method, Method::Commit(_)) {
        return Err(
            "--explain extracts assumption cores from inclusion checks; \
             it requires the observation method"
                .into(),
        );
    }
    let needs_spec = opts.mine_only || matches!(opts.method, Method::Observation);
    let specs: Vec<Option<(ObsSet, &'static str)>> = if needs_spec {
        // Mining fans out across --jobs workers too (reference-
        // interpreter enumeration can dominate; the cache path is safe
        // because --spec-cache implies exactly one test).
        checkfence::run_indexed(opts.jobs, tests.len(), |i| {
            mined_spec(&harness, &tests[i], opts.spec_cache.as_ref())
        })
        .into_iter()
        .map(|r| r.map(Some))
        .collect::<Result<_, _>>()?
    } else {
        tests.iter().map(|_| None).collect()
    };

    if opts.mine_only {
        for (test, mined) in tests.iter().zip(&specs) {
            let (spec, how) = mined.as_ref().expect("mined above");
            println!("# {} — {} observations ({how})", test.name, spec.len());
            print!("{}", spec.to_text());
        }
        return Ok(RunStatus::pass());
    }

    let mut engine_config = match &opts.model {
        ModelArg::Builtin(mode) => EngineConfig::single(*mode),
        ModelArg::Spec(spec) => EngineConfig {
            modes: ModeSet::empty(),
            ..EngineConfig::default()
        }
        .with_specs(vec![spec.clone()]),
    };
    apply_budgets(&mut engine_config.check, opts);
    let sel = match &opts.model {
        ModelArg::Builtin(mode) => ModelSel::Builtin(*mode),
        ModelArg::Spec(_) => ModelSel::Spec(0),
    };
    let mut engine = Engine::new(
        engine_config
            .with_jobs(opts.jobs)
            .with_provenance(opts.explain),
    );
    let queries: Vec<Query> = tests
        .iter()
        .zip(&specs)
        .map(|(test, mined)| match &opts.method {
            Method::Observation => {
                let (spec, _) = mined.as_ref().expect("mined above");
                Query::check_inclusion(&harness, test, spec.clone()).on_model(sel)
            }
            Method::Commit(ty) => Query::commit_method(&harness, test, *ty).on_model(sel),
        })
        .collect();

    let mut status = RunStatus::pass();
    let mut stats_rows: Vec<(String, QueryStats)> = Vec::new();
    // The --stats-json core ledger: proofs extracted and their summed
    // core size (0/0 unless --explain).
    let mut cores_extracted = 0u64;
    let mut core_size = 0u64;
    for ((test, mined), (query, verdict)) in tests
        .iter()
        .zip(&specs)
        .zip(queries.iter().zip(engine.run_batch(&queries)))
    {
        let mut verdict = verdict.map_err(|e| format!("check failed: {e}"))?;
        let label = match mined {
            Some((spec, how)) => format!("spec {how}, {} observations", spec.len()),
            None => "commit-point method".to_string(),
        };
        stats_rows.push((query.describe(), verdict.stats));
        let provenance = verdict.provenance.take();
        if let Some(p) = &provenance {
            if p.kind == checkfence::ProvenanceKind::Proof {
                cores_extracted += 1;
                core_size += p.core_size as u64;
            }
        }
        if let Answer::Inconclusive { reason, spent } = &verdict.answer {
            status.inconclusive = true;
            println!(
                "INCONCLUSIVE {} on {} ({reason}; {spent} ticks spent, {} retries)",
                test.name,
                opts.model.name(),
                verdict.stats.retries,
            );
            continue;
        }
        match verdict.into_outcome().expect("check outcome") {
            CheckOutcome::Pass => {
                println!("PASS {} on {} ({label})", test.name, opts.model.name());
                if let Some(p) = &provenance {
                    println!("  {p}");
                }
            }
            CheckOutcome::Fail(cx) => {
                status.failed = true;
                println!("FAIL {} on {} ({label})", test.name, opts.model.name());
                if let Some(p) = &provenance {
                    println!("  {p}");
                }
                let text = format!("{cx}");
                if opts.cx {
                    for line in text.lines() {
                        println!("  {line}");
                    }
                } else {
                    if let Some(first) = text.lines().next() {
                        println!("  {first}");
                    }
                    println!("  (re-run with --cx for the full counterexample)");
                }
            }
        }
    }
    if opts.stats {
        print!("{}", stats_table(&stats_rows));
    }
    if let Some(path) = &opts.stats_json {
        std::fs::write(path, stats_json(&stats_rows, cores_extracted, core_size))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(status)
}

/// Renders the `--stats-json` export: the `--stats` table's rows as
/// versioned JSON, one object per query in batch order, plus the
/// core ledger (`cores_extracted`/`core_size` — zero unless
/// the run asked for `--explain`). The `schema_version` field is
/// shared with the trace/metrics sinks and the benchmark JSON
/// artifacts.
fn stats_json(rows: &[(String, QueryStats)], cores_extracted: u64, core_size: u64) -> String {
    let escape = |s: &str| {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out
    };
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema_version\": {},", cf_trace::SCHEMA_VERSION);
    let _ = writeln!(out, "  \"cores_extracted\": {cores_extracted},");
    let _ = writeln!(out, "  \"core_size\": {core_size},");
    out.push_str("  \"queries\": [\n");
    for (i, (label, s)) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"query\": \"{}\", \"solves\": {}, \"conflicts\": {}, \"restarts\": {}, \
             \"propagations\": {}, \"assumed_literals\": {}, \"retries\": {}, \
             \"wall_us\": {}}}{comma}",
            escape(label),
            s.solves,
            s.conflicts,
            s.restarts,
            s.propagations,
            s.assumed_literals,
            s.retries,
            s.wall.as_micros(),
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders the `--stats` per-query attribution table.
fn stats_table(rows: &[(String, QueryStats)]) -> String {
    let mut out = String::new();
    let w = rows
        .iter()
        .map(|(label, _)| label.len())
        .chain(["query".len()])
        .max()
        .unwrap_or(8);
    let _ = writeln!(
        out,
        "per-query stats:\n  {:<w$} {:>7} {:>10} {:>9} {:>7} {:>9} {:>10}",
        "query", "solves", "conflicts", "restarts", "retries", "assumed", "wall"
    );
    for (label, s) in rows {
        let _ = writeln!(
            out,
            "  {label:<w$} {:>7} {:>10} {:>9} {:>7} {:>9} {:>8.1}ms",
            s.solves,
            s.conflicts,
            s.restarts,
            s.retries,
            s.assumed_literals,
            s.wall.as_secs_f64() * 1e3,
        );
    }
    out
}

/// The `--analyze` mode: build the static event/conflict graph of each
/// test, enumerate its critical cycles and print, for every cycle leg,
/// the program-order axiom a fence there would defend and the models
/// that relax it. Purely static — no mining and no solver calls — so it
/// reports in milliseconds even where checking would take minutes.
fn run_analyze(harness: &Harness, tests: &[TestSpec]) -> Result<RunStatus, String> {
    // `hardware()` already spans every built-in mode, and `.cfm` specs
    // have no static relaxation table, so the report always covers the
    // full lattice regardless of --model.
    let modes = Mode::hardware();
    for test in tests {
        let analysis = checkfence::cycles::analyze(harness, test);
        println!("analyze {}/{}:", harness.name, test.name);
        for line in analysis.report(&modes).lines() {
            println!("  {line}");
        }
    }
    Ok(RunStatus::pass())
}

/// The `--ablate` mode: plan statement mutations over the whole
/// implementation, then answer the mutant × model matrix for each test
/// from the engine — one session and one incremental encoding per test
/// at any `--jobs`. Succeeds when the *unmutated* build passes every
/// model (mutant verdicts are the experiment's data, not a pass/fail
/// criterion).
fn run_ablate(opts: &Options, harness: &Harness, tests: &[TestSpec]) -> Result<RunStatus, String> {
    use checkfence::mutate::{
        run_mutation_matrix, MatrixConfig, MutantVerdict, MutationConfig, MutationPlan,
    };
    let mut config = MatrixConfig {
        modes: Mode::hardware().to_vec(),
        jobs: opts.jobs,
        provenance: opts.explain,
        ..MatrixConfig::default()
    };
    apply_budgets(&mut config.check, opts);
    if let ModelArg::Spec(spec) = &opts.model {
        config.specs.push(spec.clone());
    }
    let plan = MutationPlan::build(&harness.program, &MutationConfig::default());
    if plan.points.is_empty() {
        return Err("--ablate: the mutation planner found nothing to mutate".into());
    }
    let mut status = RunStatus::pass();
    for test in tests {
        let report = run_mutation_matrix(harness, test, &plan, &config)
            .map_err(|e| format!("ablation failed: {e}"))?;
        print!("{}", report.table());
        if opts.explain {
            print!("{}", report.explain());
        }
        println!("  {}", report.summary());
        let undecided = |v: &MutantVerdict| matches!(v, MutantVerdict::Inconclusive(_));
        status.failed |= report.baseline.iter().any(|v| !undecided(v) && v.caught());
        status.inconclusive |= report.baseline.iter().any(undecided)
            || report.rows.iter().any(|r| r.verdicts.iter().any(undecided));
    }
    Ok(status)
}

/// Resolves a `--synth` data-type name against the bundled algorithms
/// (`-unfenced` selects the build without fences).
fn synth_harness(name: &str) -> Option<Harness> {
    use cf_algos::{lamport, treiber, Algo, Variant};
    let (base, variant) = match name.strip_suffix("-unfenced") {
        Some(base) => (base, Variant::Unfenced),
        None => (name, Variant::Fenced),
    };
    match base {
        "treiber" => Some(treiber::harness(variant)),
        "lamport" => Some(lamport::harness(variant)),
        other => Algo::all()
            .into_iter()
            .find(|a| a.name() == other)
            .map(|a| a.harness(variant)),
    }
}

/// The `--synth` mode: enumerate the whole bounded test corpus of a
/// bundled data type, batch-check it across the hardware lattice (plus
/// any `--model` spec column) as one engine batch, and print the
/// coverage table. Synthesis, checking and pruning are deterministic,
/// so the table is byte-identical at any `--jobs` count; only the
/// trailing summary line (sessions/encodes/timing) varies.
fn run_synth(opts: &Options, name: &str) -> Result<RunStatus, String> {
    use cf_synth::{run_corpus, synthesize, CorpusConfig, CorpusRow, SynthBounds};
    let harness = synth_harness(name).ok_or_else(|| {
        format!(
            "--synth `{name}`: expected one of treiber, ms2, msn, lazylist, harris, \
             snark, lamport (append -unfenced for the build without fences)"
        )
    })?;
    let bounds = SynthBounds::new(opts.threads, opts.ops_per_thread);
    let corpus = synthesize(&harness.ops, &bounds);
    println!(
        "synth corpus — {}: threads <= {}, ops/thread <= {}, init <= {}",
        harness.name, bounds.max_threads, bounds.max_ops_per_thread, bounds.max_init_ops
    );
    println!(
        "generated {} shapes, {} canonical after symmetry reduction",
        corpus.generated,
        corpus.deduped()
    );
    let mut config = CorpusConfig {
        jobs: opts.jobs,
        provenance: opts.explain,
        ..CorpusConfig::default()
    };
    apply_budgets(&mut config.check, opts);
    if let ModelArg::Spec(spec) = &opts.model {
        config.specs.push(spec.clone());
    }
    let report = run_corpus(&harness, &corpus.tests, &config);
    print!("{}", report.table());
    if opts.explain {
        print!("{}", report.explain());
    }
    println!("  {}", report.summary());
    // FAIL verdicts are the experiment's data; cells that could not be
    // answered (mining errors, divergence, exhausted budgets, crashed
    // workers) make the run inconclusive, not failed.
    Ok(RunStatus {
        failed: false,
        inconclusive: report.rows.iter().any(CorpusRow::incomplete),
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(status) => status.exit_code(),
        Err(msg) if msg.is_empty() => {
            println!("{}", usage());
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("checkfence: {msg}");
            eprintln!("{}", usage());
            ExitCode::from(2)
        }
    }
}
