//! cf-trace — structured tracing, metrics export, and solver profiling
//! for the CheckFence engine stack.
//!
//! The engine, sessions, solver, mutation matrix, and corpus runner all
//! emit *events* into one process-global collector. Tracing is off by
//! default and **zero-cost when disabled**: every emission site guards
//! on one relaxed atomic load and builds its fields inside a closure
//! that is never called while tracing is off.
//!
//! # Determinism model
//!
//! CheckFence's report tables are bit-identical at any `--jobs` level,
//! and the trace keeps that discipline. Every event carries a canonical
//! coordinate `(batch, item, step)`:
//!
//! * `batch` — a sequence number advanced only by coordinators
//!   ([`next_batch`]), e.g. once per `Engine::run_batch` call;
//! * `item` — the lane within the batch (0 is the coordinator's own
//!   lane, `i + 1` is the batch's `i`-th query);
//! * `step` — a per-lane counter advanced only by deterministic
//!   emissions in that lane.
//!
//! [`take`] sorts events by that coordinate, so the *logical* trace
//! content is independent of scheduling. Two escape hatches carry the
//! nondeterministic remainder:
//!
//! * wall-clock durations live in fields whose names end in `_us`
//!   (microseconds) and are removed by [`strip`];
//! * scheduling events (reference mining fanned out across worker
//!   threads, outside any item lane) are emitted with [`emit_nd`],
//!   rendered with an `"nd":1` marker, and dropped as whole lines by
//!   [`strip`]. Session spawns and pool statistics are deterministic:
//!   the engine keeps one session per key at any `--jobs` level.
//!
//! After stripping, a JSONL trace of a corpus sweep is byte-identical
//! at `--jobs 1` and `--jobs 4` (asserted in `tests/trace.rs`).
//!
//! # Sinks
//!
//! * [`render_jsonl`] — one JSON object per line, schema-stamped;
//! * [`render_prom`] — a Prometheus-style text metrics snapshot;
//! * [`profile`] — an in-process aggregator producing the per-class
//!   cost table behind `checkfence --profile`.
//!
//! ```
//! cf_trace::enable();
//! {
//!     let b = cf_trace::next_batch();
//!     let _scope = cf_trace::scope(b, 1, "demo query");
//!     cf_trace::emit("query_done", || {
//!         vec![("outcome", cf_trace::s("pass")), ("ticks", cf_trace::u(7))]
//!     });
//! }
//! let trace = cf_trace::render_jsonl(&cf_trace::take());
//! cf_trace::disable();
//! assert!(trace.contains("\"k\":\"query_done\""));
//! assert_eq!(cf_trace::strip(&trace), trace); // nothing nd to strip here
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Schema version stamped into every machine-readable artifact this
/// crate renders (JSONL traces, metrics snapshots) and shared with the
/// CLI's `--stats-json` document and the `BENCH_*.json` writers.
///
/// Version 2 added the static critical-cycle analysis vocabulary: the
/// `cycle_analysis` and `triage` trace events, a per-query
/// static-discharge stats field, and the pruned-candidate counters in
/// the inference artifacts.
///
/// Version 3 added verdict provenance: the `provenance` trace event,
/// the `discharged` query class in the `query_done` stream, the
/// `checkfence_queries_by_class` and per-reason inconclusive metrics,
/// and the `cores_extracted`/`core_size` ledger in the metrics,
/// profile, `--stats-json` and `BENCH_*.json` artifacts.
///
/// Version 4 removed the static triage vocabulary: the `triage`
/// event, `cycle_analysis` events with consumer `triage` or `corpus`
/// (only `infer` remains), the `discharged` query class, the `triaged`
/// field of `corpus_done`, and the static-discharge field of
/// `--stats-json` and column of `--stats`. `BENCH_*.json` records
/// gained the host core count `nproc`.
///
/// Version 5 removed the last `cycle_analysis` event (consumer
/// `infer`, with its `candidates`, `pruned` and `encoded` fields) along
/// with fence inference's candidate pruning; the vocabulary has no
/// static-analysis event left.
pub const SCHEMA_VERSION: u32 = 5;

// ---------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------

/// A field value attached to an [`Event`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Field {
    /// An unsigned counter (ticks, conflicts, byte counts, …).
    U64(u64),
    /// A short string (outcome, model name, reason, …).
    Str(String),
}

/// Shorthand for a numeric [`Field`].
pub fn u(v: u64) -> Field {
    Field::U64(v)
}

/// Shorthand for a string [`Field`].
pub fn s(v: impl Into<String>) -> Field {
    Field::Str(v.into())
}

/// One recorded trace event.
#[derive(Clone, Debug)]
pub struct Event {
    /// Event kind, e.g. `"query_done"` or `"sat_solve"`.
    pub kind: &'static str,
    /// Coordinator batch sequence number (0 before any batch).
    pub batch: u64,
    /// Lane within the batch: 0 for the coordinator, `i + 1` for the
    /// batch's `i`-th item.
    pub item: u64,
    /// Deterministic step within the lane.
    pub step: u64,
    /// Sub-step for nondeterministic events (0 for deterministic ones).
    pub nd_step: u64,
    /// Scope label (empty in the coordinator lane).
    pub label: String,
    /// True for scheduling events that may differ across `--jobs`
    /// levels; [`strip`] removes these lines wholesale.
    pub nd: bool,
    /// Payload fields, in emission order.
    pub fields: Vec<(&'static str, Field)>,
}

impl Event {
    /// Looks up a numeric field by name.
    pub fn get_u64(&self, name: &str) -> Option<u64> {
        self.fields.iter().find_map(|(k, v)| match v {
            Field::U64(n) if *k == name => Some(*n),
            _ => None,
        })
    }

    /// Looks up a string field by name.
    pub fn get_str(&self, name: &str) -> Option<&str> {
        self.fields.iter().find_map(|(k, v)| match v {
            Field::Str(t) if *k == name => Some(t.as_str()),
            _ => None,
        })
    }

    fn sort_key(&self) -> (u64, u64, u64, bool, u64) {
        (self.batch, self.item, self.step, self.nd, self.nd_step)
    }
}

// ---------------------------------------------------------------------
// Collector
// ---------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static BATCH: AtomicU64 = AtomicU64::new(0);
static COORD_STEP: AtomicU64 = AtomicU64::new(0);
static COORD_ND: AtomicU64 = AtomicU64::new(0);
static EVENTS: Mutex<Vec<Event>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

struct ScopeState {
    batch: u64,
    item: u64,
    label: String,
    step: u64,
    nd_step: u64,
}

thread_local! {
    static SCOPE: RefCell<Vec<ScopeState>> = const { RefCell::new(Vec::new()) };
}

/// Turns the collector on, discarding any previously recorded events
/// and resetting the batch/step counters, so that consecutive traced
/// runs in one process are independent and repeatable.
pub fn enable() {
    let mut events = EVENTS.lock().unwrap_or_else(|p| p.into_inner());
    events.clear();
    BATCH.store(0, Ordering::SeqCst);
    COORD_STEP.store(0, Ordering::SeqCst);
    COORD_ND.store(0, Ordering::SeqCst);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns the collector off. Recorded events stay available to [`take`].
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether tracing is currently enabled (one relaxed atomic load — this
/// is the fast path every instrumentation site guards on).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Microseconds since the process trace epoch. Wall clock is a
/// nondeterministic side channel: always store it in a field whose name
/// ends in `_us` so [`strip`] can remove it.
pub fn now_us() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// Advances the batch sequence number. Call this only from a
/// coordinator (one thread per batch); returns 0 while disabled so the
/// counter is untouched by untraced runs.
pub fn next_batch() -> u64 {
    if !enabled() {
        return 0;
    }
    BATCH.fetch_add(1, Ordering::SeqCst) + 1
}

/// RAII guard installing a `(batch, item, label)` lane on the current
/// thread; emissions while it lives are stamped with that coordinate
/// and a per-lane step counter. Dropping restores the previous lane.
#[must_use = "the scope ends when this guard drops"]
pub struct ScopeGuard {
    active: bool,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if self.active {
            SCOPE.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
}

/// Enters an item lane (see [`ScopeGuard`]). A no-op while disabled.
pub fn scope(batch: u64, item: u64, label: impl Into<String>) -> ScopeGuard {
    if !enabled() {
        return ScopeGuard { active: false };
    }
    SCOPE.with(|s| {
        s.borrow_mut().push(ScopeState {
            batch,
            item,
            label: label.into(),
            step: 0,
            nd_step: 0,
        });
    });
    ScopeGuard { active: true }
}

fn record(kind: &'static str, nd: bool, fields: Vec<(&'static str, Field)>) {
    let event = SCOPE.with(|s| {
        let mut stack = s.borrow_mut();
        if let Some(top) = stack.last_mut() {
            let (step, nd_step) = if nd {
                top.nd_step += 1;
                (top.step, top.nd_step)
            } else {
                top.step += 1;
                (top.step, 0)
            };
            Event {
                kind,
                batch: top.batch,
                item: top.item,
                step,
                nd_step,
                label: top.label.clone(),
                nd,
                fields,
            }
        } else {
            // Coordinator lane: step advanced only by deterministic
            // emissions, which by contract happen on one thread.
            let batch = BATCH.load(Ordering::SeqCst);
            let (step, nd_step) = if nd {
                (
                    COORD_STEP.load(Ordering::SeqCst),
                    COORD_ND.fetch_add(1, Ordering::SeqCst) + 1,
                )
            } else {
                (COORD_STEP.fetch_add(1, Ordering::SeqCst) + 1, 0)
            };
            Event {
                kind,
                batch,
                item: 0,
                step,
                nd_step,
                label: String::new(),
                nd,
                fields,
            }
        }
    });
    EVENTS.lock().unwrap_or_else(|p| p.into_inner()).push(event);
}

/// Records a deterministic event. The field closure runs only while
/// tracing is enabled, so disabled emission sites cost one atomic load.
#[inline]
pub fn emit(kind: &'static str, fields: impl FnOnce() -> Vec<(&'static str, Field)>) {
    if enabled() {
        record(kind, false, fields());
    }
}

/// Records a *nondeterministic* (scheduling) event — anything whose
/// presence or order depends on `--jobs`, such as reference mining on
/// worker threads outside any item lane. Rendered with an `"nd":1`
/// marker and dropped by [`strip`].
#[inline]
pub fn emit_nd(kind: &'static str, fields: impl FnOnce() -> Vec<(&'static str, Field)>) {
    if enabled() {
        record(kind, true, fields());
    }
}

/// Drains the collector, returning all recorded events in canonical
/// `(batch, item, step)` order — independent of thread scheduling.
pub fn take() -> Vec<Event> {
    let mut events = std::mem::take(&mut *EVENTS.lock().unwrap_or_else(|p| p.into_inner()));
    events.sort_by_key(Event::sort_key);
    events
}

// ---------------------------------------------------------------------
// JSONL sink
// ---------------------------------------------------------------------

fn escape_json(out: &mut String, text: &str) {
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Renders events as JSON Lines: a `trace_meta` header stamping
/// [`SCHEMA_VERSION`], then one object per event with keys `k` (kind),
/// `b`/`i`/`s` (canonical coordinate), `q` (scope label, when present),
/// `nd`/`ns` (nondeterministic marker and sub-step), and the event's
/// own fields in emission order.
pub fn render_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"k\":\"trace_meta\",\"schema_version\":{SCHEMA_VERSION}}}"
    );
    for e in events {
        let _ = write!(
            out,
            "{{\"k\":\"{}\",\"b\":{},\"i\":{},\"s\":{}",
            e.kind, e.batch, e.item, e.step
        );
        if !e.label.is_empty() {
            out.push_str(",\"q\":\"");
            escape_json(&mut out, &e.label);
            out.push('"');
        }
        if e.nd {
            let _ = write!(out, ",\"nd\":1,\"ns\":{}", e.nd_step);
        }
        for (key, value) in &e.fields {
            match value {
                Field::U64(n) => {
                    let _ = write!(out, ",\"{key}\":{n}");
                }
                Field::Str(t) => {
                    let _ = write!(out, ",\"{key}\":\"");
                    escape_json(&mut out, t);
                    out.push('"');
                }
            }
        }
        out.push_str("}\n");
    }
    out
}

/// Strips the nondeterministic side channels from a rendered JSONL
/// trace: drops every `"nd":1` line wholesale and removes every
/// `*_us` (wall-clock) field. What remains is the logical trace
/// content, byte-identical across `--jobs` levels.
pub fn strip(trace: &str) -> String {
    let mut out = String::new();
    for line in trace.lines() {
        if line.contains("\"nd\":1") {
            continue;
        }
        out.push_str(&strip_line(line));
        out.push('\n');
    }
    out
}

fn strip_line(line: &str) -> String {
    let mut s = line.to_string();
    while let Some(pos) = s.find("_us\":") {
        let Some(key_quote) = s[..pos].rfind('"') else {
            break;
        };
        let mut start = key_quote;
        let has_comma = s[..key_quote].ends_with(',');
        if has_comma {
            start -= 1;
        }
        let mut end = pos + "_us\":".len();
        let bytes = s.as_bytes();
        while end < s.len() && bytes[end].is_ascii_digit() {
            end += 1;
        }
        if !has_comma && end < s.len() && bytes[end] == b',' {
            end += 1;
        }
        if end <= start {
            break;
        }
        s.replace_range(start..end, "");
    }
    s
}

// ---------------------------------------------------------------------
// Metrics sink
// ---------------------------------------------------------------------

/// Renders a Prometheus-style text metrics snapshot aggregated over the
/// events: event counts per kind, solver counter totals (from
/// `sat_solve` events), query outcomes (from `query_done` events), and
/// wall-clock totals per kind. Label values are sorted, so the snapshot
/// is deterministic given the same events.
pub fn render_prom(events: &[Event]) -> String {
    let mut kinds: BTreeMap<&str, u64> = BTreeMap::new();
    let mut outcomes: BTreeMap<String, u64> = BTreeMap::new();
    let mut by_class: BTreeMap<String, u64> = BTreeMap::new();
    let mut inconclusive: BTreeMap<String, u64> = BTreeMap::new();
    let mut wall: BTreeMap<&str, u64> = BTreeMap::new();
    let (mut solves, mut conflicts, mut propagations, mut ticks) = (0u64, 0u64, 0u64, 0u64);
    let (mut cores_extracted, mut core_size) = (0u64, 0u64);
    for e in events {
        *kinds.entry(e.kind).or_default() += 1;
        if e.kind == "sat_solve" {
            solves += 1;
            conflicts += e.get_u64("conflicts").unwrap_or(0);
            propagations += e.get_u64("propagations").unwrap_or(0);
            ticks += e.get_u64("ticks").unwrap_or(0);
        }
        if e.kind == "query_done" {
            if let Some(outcome) = e.get_str("outcome") {
                *outcomes.entry(outcome.to_string()).or_default() += 1;
                if outcome == "inconclusive" {
                    let reason = e.get_str("reason").unwrap_or("unknown");
                    *inconclusive.entry(reason.to_string()).or_default() += 1;
                }
            }
            if let Some(class) = e.get_str("class") {
                *by_class.entry(class.to_string()).or_default() += 1;
            }
        }
        if e.kind == "provenance" && e.get_str("kind") == Some("proof") {
            cores_extracted += 1;
            core_size += e.get_u64("core_size").unwrap_or(0);
        }
        for (key, value) in &e.fields {
            if let (true, Field::U64(n)) = (key.ends_with("_us"), value) {
                *wall.entry(e.kind).or_default() += n;
            }
        }
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# HELP checkfence_schema_version trace/metrics schema version"
    );
    let _ = writeln!(out, "# TYPE checkfence_schema_version gauge");
    let _ = writeln!(out, "checkfence_schema_version {SCHEMA_VERSION}");
    let _ = writeln!(
        out,
        "# HELP checkfence_events_total trace events recorded, by kind"
    );
    let _ = writeln!(out, "# TYPE checkfence_events_total counter");
    for (kind, n) in &kinds {
        let _ = writeln!(out, "checkfence_events_total{{kind=\"{kind}\"}} {n}");
    }
    let _ = writeln!(
        out,
        "# HELP checkfence_solver_solves_total incremental SAT solve calls"
    );
    let _ = writeln!(out, "# TYPE checkfence_solver_solves_total counter");
    let _ = writeln!(out, "checkfence_solver_solves_total {solves}");
    let _ = writeln!(
        out,
        "# HELP checkfence_solver_conflicts_total solver conflicts"
    );
    let _ = writeln!(out, "# TYPE checkfence_solver_conflicts_total counter");
    let _ = writeln!(out, "checkfence_solver_conflicts_total {conflicts}");
    let _ = writeln!(
        out,
        "# HELP checkfence_solver_propagations_total solver propagations"
    );
    let _ = writeln!(out, "# TYPE checkfence_solver_propagations_total counter");
    let _ = writeln!(out, "checkfence_solver_propagations_total {propagations}");
    let _ = writeln!(out, "# HELP checkfence_solver_ticks_total deterministic solver ticks (propagations + conflicts)");
    let _ = writeln!(out, "# TYPE checkfence_solver_ticks_total counter");
    let _ = writeln!(out, "checkfence_solver_ticks_total {ticks}");
    let _ = writeln!(
        out,
        "# HELP checkfence_queries_total finished queries, by outcome"
    );
    let _ = writeln!(out, "# TYPE checkfence_queries_total counter");
    for (outcome, n) in &outcomes {
        let _ = writeln!(out, "checkfence_queries_total{{outcome=\"{outcome}\"}} {n}");
    }
    let _ = writeln!(
        out,
        "# HELP checkfence_queries_by_class finished queries, by class"
    );
    let _ = writeln!(out, "# TYPE checkfence_queries_by_class counter");
    for (class, n) in &by_class {
        let _ = writeln!(out, "checkfence_queries_by_class{{class=\"{class}\"}} {n}");
    }
    let _ = writeln!(
        out,
        "# HELP checkfence_queries_inconclusive_total inconclusive verdicts, by reason"
    );
    let _ = writeln!(out, "# TYPE checkfence_queries_inconclusive_total counter");
    for (reason, n) in &inconclusive {
        let _ = writeln!(
            out,
            "checkfence_queries_inconclusive_total{{reason=\"{reason}\"}} {n}"
        );
    }
    let _ = writeln!(
        out,
        "# HELP checkfence_cores_extracted_total assumption cores extracted for proof provenance"
    );
    let _ = writeln!(out, "# TYPE checkfence_cores_extracted_total counter");
    let _ = writeln!(out, "checkfence_cores_extracted_total {cores_extracted}");
    let _ = writeln!(
        out,
        "# HELP checkfence_core_size_total summed assumption-core literals across extracted cores"
    );
    let _ = writeln!(out, "# TYPE checkfence_core_size_total counter");
    let _ = writeln!(out, "checkfence_core_size_total {core_size}");
    let _ = writeln!(
        out,
        "# HELP checkfence_wall_microseconds_total wall clock spent, by event kind"
    );
    let _ = writeln!(out, "# TYPE checkfence_wall_microseconds_total counter");
    for (kind, us) in &wall {
        let _ = writeln!(
            out,
            "checkfence_wall_microseconds_total{{kind=\"{kind}\"}} {us}"
        );
    }
    out
}

// ---------------------------------------------------------------------
// Profile aggregator
// ---------------------------------------------------------------------

/// One row of the cost profile: a query class (mine, enumerate,
/// inclusion, commit) with its aggregated solver cost.
#[derive(Clone, Debug, Default)]
pub struct ProfileRow {
    /// Query class name.
    pub class: String,
    /// Finished queries of this class.
    pub queries: u64,
    /// Solver solve calls attributed to the class.
    pub solves: u64,
    /// Conflicts attributed to the class.
    pub conflicts: u64,
    /// Propagations attributed to the class.
    pub propagations: u64,
    /// Deterministic ticks (propagations + conflicts).
    pub ticks: u64,
    /// Retry-ladder attempts beyond the first.
    pub retries: u64,
    /// Wall clock spent in the class, microseconds.
    pub wall_us: u64,
}

/// Aggregated cost profile over a trace — the data model behind
/// `checkfence --profile`.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// Per-class rows, sorted by descending ticks then class name.
    pub rows: Vec<ProfileRow>,
    /// Ground-truth solver ticks: the sum over every `sat_solve` hook
    /// event plus the encode-phase ticks reported by `encode` events
    /// (unit clauses propagate eagerly while the CNF is built, outside
    /// any solve call).
    pub total_ticks: u64,
    /// Ticks attributed to finished query spans (`query_done`).
    pub attributed_ticks: u64,
    /// Session encodes observed.
    pub encodes: u64,
    /// Solver ticks spent during encoding (eager unit propagation).
    pub encode_ticks: u64,
    /// Wall clock spent encoding, microseconds.
    pub encode_wall_us: u64,
    /// Assumption cores extracted for proof provenance (`provenance`
    /// events with kind `proof`).
    pub cores_extracted: u64,
    /// Summed core literals across the extracted cores.
    pub core_size: u64,
    /// How many of the extracted cores completed minimization.
    pub cores_minimized: u64,
}

impl Profile {
    /// Fraction of total solver ticks attributed to named query spans,
    /// in `[0, 1]`. Returns 1.0 when no ticks were observed at all.
    pub fn attributed_fraction(&self) -> f64 {
        if self.total_ticks == 0 {
            1.0
        } else {
            self.attributed_ticks as f64 / self.total_ticks as f64
        }
    }

    /// Renders the profile as the `--profile` text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "cost profile (schema {SCHEMA_VERSION}):");
        let w = self
            .rows
            .iter()
            .map(|r| r.class.len())
            .chain(["class".len(), "encode".len()])
            .max()
            .unwrap_or(8);
        let _ = writeln!(
            out,
            "  {:<w$} {:>7} {:>7} {:>10} {:>12} {:>10} {:>7} {:>10}",
            "class", "queries", "solves", "conflicts", "propagations", "ticks", "retries", "wall"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "  {:<w$} {:>7} {:>7} {:>10} {:>12} {:>10} {:>7} {:>8.1}ms",
                r.class,
                r.queries,
                r.solves,
                r.conflicts,
                r.propagations,
                r.ticks,
                r.retries,
                r.wall_us as f64 / 1e3,
            );
        }
        if self.encodes > 0 {
            let _ = writeln!(
                out,
                "  {:<w$} {:>7} {:>7} {:>10} {:>12} {:>10} {:>7} {:>8.1}ms",
                "encode",
                self.encodes,
                "-",
                "-",
                "-",
                self.encode_ticks,
                "-",
                self.encode_wall_us as f64 / 1e3,
            );
        }
        if self.cores_extracted > 0 {
            let _ = writeln!(
                out,
                "  cores: {} extracted, {} literals, {} minimized",
                self.cores_extracted, self.core_size, self.cores_minimized,
            );
        }
        let unattributed = self.total_ticks.saturating_sub(self.attributed_ticks);
        let _ = writeln!(
            out,
            "  attributed {} / {} solver ticks ({:.1}%); unattributed {} ({:.1}%)",
            self.attributed_ticks,
            self.total_ticks,
            self.attributed_fraction() * 100.0,
            unattributed,
            (1.0 - self.attributed_fraction()) * 100.0,
        );
        out
    }
}

/// Builds the per-query-class cost [`Profile`] from a trace: total
/// solver ticks come from `sat_solve` hook events, attribution from
/// `query_done` span events carrying their accumulated deltas, encode
/// cost from `encode` events.
pub fn profile(events: &[Event]) -> Profile {
    let mut classes: BTreeMap<String, ProfileRow> = BTreeMap::new();
    let mut p = Profile::default();
    for e in events {
        match e.kind {
            "sat_solve" => p.total_ticks += e.get_u64("ticks").unwrap_or(0),
            "encode" => {
                p.encodes += 1;
                let ticks = e.get_u64("ticks").unwrap_or(0);
                p.encode_ticks += ticks;
                p.total_ticks += ticks;
                p.encode_wall_us += e.get_u64("encode_us").unwrap_or(0);
            }
            "query_done" => {
                let class = e.get_str("class").unwrap_or("unknown").to_string();
                let row = classes.entry(class.clone()).or_insert_with(|| ProfileRow {
                    class,
                    ..ProfileRow::default()
                });
                row.queries += 1;
                row.solves += e.get_u64("solves").unwrap_or(0);
                row.conflicts += e.get_u64("conflicts").unwrap_or(0);
                row.propagations += e.get_u64("propagations").unwrap_or(0);
                let ticks = e.get_u64("ticks").unwrap_or(0);
                row.ticks += ticks;
                p.attributed_ticks += ticks;
                row.retries += e.get_u64("retries").unwrap_or(0);
                row.wall_us += e.get_u64("wall_us").unwrap_or(0);
            }
            "provenance" if e.get_str("kind") == Some("proof") => {
                p.cores_extracted += 1;
                p.core_size += e.get_u64("core_size").unwrap_or(0);
                p.cores_minimized += e.get_u64("minimized").unwrap_or(0);
            }
            _ => {}
        }
    }
    let mut rows: Vec<ProfileRow> = classes.into_values().collect();
    rows.sort_by(|a, b| b.ticks.cmp(&a.ticks).then_with(|| a.class.cmp(&b.class)));
    p.rows = rows;
    p
}

// ---------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    /// The collector is process-global; serialize the tests that use it.
    static GATE: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        GATE.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disabled_emission_records_nothing_and_never_builds_fields() {
        let _g = locked();
        enable();
        disable();
        emit("never", || {
            panic!("fields must not be built while disabled")
        });
        assert!(take().is_empty());
    }

    #[test]
    fn canonical_order_is_independent_of_emission_order() {
        let _g = locked();
        enable();
        let b = next_batch();
        {
            let _s = scope(b, 2, "second");
            emit("later", Vec::new);
        }
        {
            let _s = scope(b, 1, "first");
            emit("earlier", Vec::new);
            emit_nd("sched", Vec::new);
            emit("earlier2", Vec::new);
        }
        let events = take();
        disable();
        let kinds: Vec<&str> = events.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, ["earlier", "sched", "earlier2", "later"]);
        // nd events do not consume deterministic step numbers:
        assert_eq!(events[2].step, 2);
    }

    #[test]
    fn strip_removes_wall_clock_fields_and_nd_lines() {
        let _g = locked();
        enable();
        let b = next_batch();
        {
            let _s = scope(b, 1, "q");
            emit("span", || {
                vec![("ticks", u(5)), ("wall_us", u(1234)), ("n", u(2))]
            });
            emit_nd("mine_reference", || vec![("key", s("k"))]);
            emit("tail", || vec![("solve_us", u(9))]);
        }
        let trace = render_jsonl(&take());
        disable();
        let stripped = strip(&trace);
        assert!(stripped.contains("\"ticks\":5,\"n\":2"));
        assert!(!stripped.contains("_us"));
        assert!(!stripped.contains("mine_reference"));
        assert!(stripped.contains("\"schema_version\":5"));
        // Stripping is idempotent.
        assert_eq!(strip(&stripped), stripped);
    }

    #[test]
    fn profile_attributes_solver_ticks_to_query_classes() {
        let _g = locked();
        enable();
        let b = next_batch();
        {
            let _s = scope(b, 1, "q1");
            emit("sat_solve", || vec![("ticks", u(60))]);
            emit("query_done", || {
                vec![
                    ("class", s("inclusion")),
                    ("outcome", s("pass")),
                    ("ticks", u(60)),
                    ("solves", u(1)),
                ]
            });
        }
        emit("sat_solve", || vec![("ticks", u(40))]); // unattributed
        let events = take();
        disable();
        let p = profile(&events);
        assert_eq!(p.total_ticks, 100);
        assert_eq!(p.attributed_ticks, 60);
        assert!((p.attributed_fraction() - 0.6).abs() < 1e-9);
        assert_eq!(p.rows[0].class, "inclusion");
        let table = p.render();
        assert!(table.contains("inclusion"));
        assert!(table.contains("unattributed 40"));
        let prom = render_prom(&events);
        assert!(prom.contains("checkfence_solver_ticks_total 100"));
        assert!(prom.contains("checkfence_queries_total{outcome=\"pass\"} 1"));
        assert!(prom.contains("checkfence_queries_by_class{class=\"inclusion\"} 1"));
    }

    #[test]
    fn crashed_queries_close_the_profile_ledger() {
        let _g = locked();
        enable();
        let b = next_batch();
        {
            let _s = scope(b, 1, "q1");
            emit("sat_solve", || vec![("ticks", u(50))]);
            emit("query_done", || {
                vec![
                    ("class", s("inclusion")),
                    ("outcome", s("pass")),
                    ("ticks", u(50)),
                ]
            });
        }
        {
            let _s = scope(b, 2, "q2");
            // A query whose worker crashed twice: no solver ticks are
            // attributed to it, but it must still appear in the ledger
            // as its own row.
            emit("query_done", || {
                vec![
                    ("class", s("check")),
                    ("outcome", s("inconclusive")),
                    ("reason", s("shard-crashed")),
                    ("ticks", u(0)),
                ]
            });
        }
        let events = take();
        disable();
        let p = profile(&events);
        assert!(
            (p.attributed_fraction() - 1.0).abs() < 1e-9,
            "the ledger closes at 100% even with zero-tick queries"
        );
        let crashed = p
            .rows
            .iter()
            .find(|r| r.class == "check")
            .expect("crashed query row present");
        assert_eq!(crashed.queries, 1);
        assert_eq!(crashed.ticks, 0);
    }

    #[test]
    fn provenance_events_feed_the_core_ledger_and_inconclusive_reasons_are_counted() {
        let _g = locked();
        enable();
        let b = next_batch();
        {
            let _s = scope(b, 1, "q1");
            emit("provenance", || {
                vec![
                    ("kind", s("proof")),
                    ("core_size", u(4)),
                    ("minimized", u(1)),
                    ("uses", s("proof uses: fence put#0 (store-store)")),
                ]
            });
            emit("provenance", || {
                vec![
                    ("kind", s("witness")),
                    ("core_size", u(0)),
                    ("minimized", u(0)),
                ]
            });
            emit("query_done", || {
                vec![
                    ("class", s("inclusion")),
                    ("outcome", s("inconclusive")),
                    ("reason", s("budget")),
                    ("ticks", u(0)),
                ]
            });
        }
        let events = take();
        disable();
        let p = profile(&events);
        assert_eq!(p.cores_extracted, 1, "witnesses carry no core");
        assert_eq!(p.core_size, 4);
        assert_eq!(p.cores_minimized, 1);
        assert!(p
            .render()
            .contains("cores: 1 extracted, 4 literals, 1 minimized"));
        let prom = render_prom(&events);
        assert!(prom.contains("checkfence_cores_extracted_total 1"));
        assert!(prom.contains("checkfence_core_size_total 4"));
        assert!(prom.contains("checkfence_queries_inconclusive_total{reason=\"budget\"} 1"));
    }
}
