//! Checker observability: search statistics sinks and structured run
//! reports.
//!
//! The membership search ([`crate::check`], [`crate::par`] — and
//! [`crate::interval`] over the same kernel) is an
//! exponential backtracking search whose cost profile — where the nodes
//! went, how wide the frontier was, whether the memo table pruned or
//! merely contended — is invisible from a bare [`Verdict`]. This module
//! makes the search observable without slowing it down when nobody is
//! watching:
//!
//! - Every count of a search — nodes, elements tried, memo hits, misses
//!   and inserts, the workers on the root — is in the outcome's
//!   [`crate::check::CheckStats`], counted once, sink or no sink.
//! - [`StatsSink`] is a callback trait for the events no count can carry
//!   while a search runs: the frontier width of each expansion, each
//!   object's result under decomposition, and interrupt causes — plus the
//!   reason a decision procedure ([`crate::zones`], [`crate::matching`])
//!   refuted a history without searching it. Every method has a no-op
//!   default. The sink is optional —
//!   [`CheckOptions::sink`] is `None` by default, and the search guards
//!   every callback behind one branch on that `Option`, so a disabled
//!   sink costs a predictable never-taken branch per event and no
//!   allocation.
//! - [`CountingSink`] is the batteries-included implementation: frontier
//!   counters in lock-free atomics and the per-object rows, safe to share
//!   across the parallel checker's workers.
//! - [`SearchReport`] is the structured end-of-run summary a
//!   [`CountingSink`] produces from a run's outcome, serializable as JSON
//!   ([`SearchReport::to_json`]) and renderable as a human explanation of
//!   why a verdict was slow or undecided ([`SearchReport::explain`]).
//!
//! # Examples
//!
//! Attach a counting sink to a check and read the report:
//!
//! ```
//! use std::sync::Arc;
//! use std::time::Instant;
//! use cal_core::check::{check_cal_with, CheckOptions};
//! use cal_core::obs::CountingSink;
//! use cal_core::text::parse_history;
//! # use cal_core::spec::{CaSpec, Invocation};
//! # use cal_core::trace::CaElement;
//! # use cal_core::Value;
//! # #[derive(Debug)]
//! # struct AnySingleton;
//! # impl CaSpec for AnySingleton {
//! #     type State = ();
//! #     fn initial(&self) {}
//! #     fn step(&self, _: &(), e: &CaElement) -> Option<()> { (e.len() == 1).then_some(()) }
//! #     fn completions_of(&self, _: &Invocation) -> Vec<Value> { vec![] }
//! # }
//! let h = parse_history("t1 inv o0.noop 0\nt1 res o0.noop 0\n").unwrap();
//! let sink = Arc::new(CountingSink::new());
//! let options = CheckOptions { sink: Some(sink.clone()), ..CheckOptions::default() };
//! let start = Instant::now();
//! let outcome = check_cal_with(&h, &AnySingleton, &options).unwrap();
//! let report = sink.report(&outcome, &options, start.elapsed());
//! assert!(report.nodes > 0);
//! assert!(report.to_json().contains("\"nodes\""));
//! ```
//!
//! A custom sink only needs the events it cares about (the rest default
//! to no-ops); see `examples/observability.rs` for a full custom sink
//! driving a live elimination stack.

use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use parking_lot::Mutex;

use crate::check::{CheckOptions, CheckOutcome, InterruptReason, Verdict};
use crate::ids::ObjectId;

/// How one object's subsearch ended when a check split by object
/// ([`crate::check::check_cal_with`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectOutcome {
    /// The subhistory is CAL (a witness was found).
    Cal,
    /// The subhistory was refuted — decisive for the whole history.
    NotCal,
    /// The shared node budget ran out inside this subsearch.
    Exhausted,
    /// A deadline, user cancellation or sibling-refutation stop latch
    /// wound this subsearch down early.
    Interrupted,
    /// The specification panicked inside this subsearch.
    SpecPanicked,
}

impl ObjectOutcome {
    /// A stable lower-case name, used in JSON reports.
    pub fn name(self) -> &'static str {
        match self {
            ObjectOutcome::Cal => "cal",
            ObjectOutcome::NotCal => "not-cal",
            ObjectOutcome::Exhausted => "exhausted",
            ObjectOutcome::Interrupted => "interrupted",
            ObjectOutcome::SpecPanicked => "spec-panicked",
        }
    }
}

impl fmt::Display for ObjectOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A sink for the live events of a search, threaded through the
/// sequential and parallel checkers via [`CheckOptions::sink`]. Counts
/// are not events: they are in the outcome's
/// [`crate::check::CheckStats`].
///
/// Implementations must be thread-safe: above one thread the search
/// invokes the sink concurrently from every worker. All methods default to no-ops,
/// so a custom sink implements only the events it cares about.
/// [`StatsSink::on_frontier`] happens once per expansion, on the search's
/// hot path — keep it cheap (atomic counters, not locks or I/O).
pub trait StatsSink: Send + Sync {
    /// A node's frontier of minimal operations had `width` candidates.
    /// Called once per expansion, in expansion order, so the stream of
    /// widths tracks frontier shape over time; a search
    /// ([`crate::engine::search`]) makes as many calls as it has nodes
    /// less memo hits.
    fn on_frontier(&self, width: usize) {
        let _ = width;
    }

    /// The per-object decomposition finished `object` after `wall` with
    /// the given outcome.
    fn on_object_done(&self, object: ObjectId, wall: Duration, outcome: ObjectOutcome) {
        let _ = (object, wall, outcome);
    }

    /// The search latched an interrupt (deadline or cancellation). The
    /// parallel checker may report this once per worker; a worker wound
    /// down because a sibling had already decided the run reports
    /// nothing.
    fn on_interrupt(&self, reason: InterruptReason) {
        let _ = reason;
    }

    /// A decision procedure refuted the history without a search;
    /// `reason` names the operations that conflict. Formatted only when a
    /// sink is attached.
    fn on_refutation(&self, reason: &str) {
        let _ = reason;
    }
}

/// One object's row in a [`SearchReport`] under per-object
/// decomposition.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectReport {
    /// The object the subsearch covered.
    pub object: ObjectId,
    /// Wall-clock the subsearch took.
    pub wall_ms: f64,
    /// How the subsearch ended.
    pub outcome: ObjectOutcome,
}

/// A [`StatsSink`] keeping the frontier widths in lock-free atomic
/// counters and the per-object rows, from which — with a run's outcome —
/// a [`SearchReport`] is produced.
///
/// Cheap enough to leave attached in production: each expansion costs
/// three relaxed atomic operations (object rows take a short mutex, but
/// arrive once per object, not per node).
#[derive(Debug, Default)]
pub struct CountingSink {
    frontier_max: AtomicU64,
    frontier_sum: AtomicU64,
    frontier_samples: AtomicU64,
    objects: Mutex<Vec<ObjectReport>>,
    refutation: Mutex<Option<String>>,
}

impl CountingSink {
    /// Creates a sink with every counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Widest frontier of minimal operations seen at any node.
    pub fn frontier_max(&self) -> u64 {
        self.frontier_max.load(Ordering::Relaxed)
    }

    /// Mean frontier width over all expanded nodes (0.0 before the
    /// first node).
    pub fn frontier_mean(&self) -> f64 {
        let samples = self.frontier_samples.load(Ordering::Relaxed);
        if samples == 0 {
            0.0
        } else {
            self.frontier_sum.load(Ordering::Relaxed) as f64 / samples as f64
        }
    }

    /// Snapshots everything into a [`SearchReport`].
    ///
    /// `outcome` supplies the verdict and every count (its
    /// [`crate::check::CheckStats`]); the sink adds the frontier widths
    /// and object rows it saw. `options` supplies the budget and thread
    /// count; `wall` is the caller-measured wall-clock of the run.
    /// Generic over the witness
    /// type, so reports work for CAL (sequential specs included) and
    /// interval outcomes alike.
    pub fn report<W>(
        &self,
        outcome: &CheckOutcome<W>,
        options: &CheckOptions,
        wall: Duration,
    ) -> SearchReport {
        let (verdict, interrupted) = verdict_strings(&outcome.verdict);
        SearchReport {
            verdict,
            wall_ms: wall.as_secs_f64() * 1e3,
            threads: options.threads,
            max_nodes: options.max_nodes,
            nodes: outcome.stats.nodes,
            elements_tried: outcome.stats.elements_tried,
            memo_hits: outcome.stats.memo_hits,
            memo_misses: outcome.stats.memo_misses,
            memo_inserts: outcome.stats.memo_inserts,
            frontier_max: self.frontier_max(),
            frontier_mean: self.frontier_mean(),
            root_workers: outcome.stats.root_workers,
            zones: outcome.stats.zones,
            matching: outcome.stats.matching,
            refutation: self.refutation.lock().clone(),
            interrupted,
            exhausted: matches!(outcome.verdict, Verdict::ResourcesExhausted),
            objects: self.objects.lock().clone(),
        }
    }
}

/// The JSON-facing verdict name plus the interrupt cause, if any.
fn verdict_strings<W>(verdict: &Verdict<W>) -> (String, Option<String>) {
    match verdict {
        Verdict::Cal(_) => ("cal".to_string(), None),
        Verdict::NotCal => ("not-cal".to_string(), None),
        Verdict::ResourcesExhausted => ("resources-exhausted".to_string(), None),
        Verdict::Interrupted { reason } => {
            let cause = match reason {
                InterruptReason::DeadlineExceeded => "deadline-exceeded",
                InterruptReason::Cancelled => "cancelled",
            };
            ("interrupted".to_string(), Some(cause.to_string()))
        }
    }
}

impl StatsSink for CountingSink {
    fn on_frontier(&self, width: usize) {
        let w = width as u64;
        self.frontier_max.fetch_max(w, Ordering::Relaxed);
        self.frontier_sum.fetch_add(w, Ordering::Relaxed);
        self.frontier_samples.fetch_add(1, Ordering::Relaxed);
    }

    fn on_object_done(&self, object: ObjectId, wall: Duration, outcome: ObjectOutcome) {
        self.objects.lock().push(ObjectReport {
            object,
            wall_ms: wall.as_secs_f64() * 1e3,
            outcome,
        });
    }

    fn on_refutation(&self, reason: &str) {
        *self.refutation.lock() = Some(reason.to_string());
    }
}

/// A structured end-of-run summary of one CAL membership check.
///
/// Produced by [`CountingSink::report`]; serialized with
/// [`SearchReport::to_json`] (compact, single line, no external
/// dependencies) and rendered for humans with [`SearchReport::explain`].
#[derive(Debug, Clone, PartialEq)]
pub struct SearchReport {
    /// `"cal"`, `"not-cal"`, `"resources-exhausted"` or `"interrupted"`.
    pub verdict: String,
    /// Wall-clock of the whole check, in milliseconds.
    pub wall_ms: f64,
    /// Worker threads the check was configured with.
    pub threads: usize,
    /// The node budget ([`CheckOptions::max_nodes`]).
    pub max_nodes: u64,
    /// Search nodes charged to the budget. This and every count below
    /// but the two frontier fields come from the run's
    /// [`crate::check::CheckStats`].
    pub nodes: u64,
    /// Candidate CA-elements tried.
    pub elements_tried: u64,
    /// Memo probes that pruned a subtree.
    pub memo_hits: u64,
    /// Memo probes that missed.
    pub memo_misses: u64,
    /// Refuted states inserted into the memo table.
    pub memo_inserts: u64,
    /// Widest frontier of minimal operations at any node.
    pub frontier_max: u64,
    /// Mean frontier width across all nodes.
    pub frontier_mean: f64,
    /// Workers that searched the root, each in its own successor order
    /// (0 at one thread and for a check made part by part; 1 above one
    /// thread with the memo off, when the workers would share nothing).
    pub root_workers: u64,
    /// Parts decided by zones ([`crate::zones`]) with no search, from the
    /// run's [`crate::check::CheckStats`].
    pub zones: u64,
    /// Parts decided by a matching ([`crate::matching`]) with no search,
    /// from the run's [`crate::check::CheckStats`].
    pub matching: u64,
    /// Why a decision procedure refuted the history, in its operations
    /// (shown by [`SearchReport::explain`], not serialized).
    pub refutation: Option<String>,
    /// `Some("deadline-exceeded" | "cancelled")` when the search was
    /// interrupted.
    pub interrupted: Option<String>,
    /// Whether the node budget was exhausted.
    pub exhausted: bool,
    /// Per-object rows for the parts searched when the check split by
    /// object (empty otherwise; a part zones or a matching decided has
    /// none).
    pub objects: Vec<ObjectReport>,
}

impl SearchReport {
    /// Serializes the report as compact single-line JSON.
    pub fn to_json(&self) -> String {
        let rows = self.objects.iter().map(|o| {
            let row = JsonLine::new().num("object", o.object.0).ms("wall_ms", o.wall_ms);
            row.str("outcome", o.outcome.name()).finish()
        });
        let interrupted = self.interrupted.as_ref().map_or("null".into(), |c| format!("\"{c}\""));
        JsonLine::new()
            .str("verdict", &self.verdict)
            .num("interrupted", interrupted)
        .num("exhausted", self.exhausted)
        .ms("wall_ms", self.wall_ms)
        .num("threads", self.threads)
        .num("max_nodes", self.max_nodes)
        .num("nodes", self.nodes)
        .num("elements_tried", self.elements_tried)
        .num("memo_hits", self.memo_hits)
        .num("memo_misses", self.memo_misses)
        .num("memo_inserts", self.memo_inserts)
        .num("frontier_max", self.frontier_max)
        .ms("frontier_mean", self.frontier_mean)
        .num("root_workers", self.root_workers)
        .num("zones", self.zones)
        .num("matching", self.matching)
        .num("objects", format_args!("[{}]", rows.collect::<Vec<_>>().join(", ")))
        .finish()
    }

    /// One compact human line: verdict, wall-clock and headline counters.
    pub fn summary(&self) -> String {
        format!(
            "{} in {:.2} ms: {} nodes, {} elements, {} memo hits / {} misses",
            self.verdict,
            self.wall_ms,
            self.nodes,
            self.elements_tried,
            self.memo_hits,
            self.memo_misses
        )
    }

    /// A multi-line human explanation of where the search spent its work
    /// and — when the verdict is undecided — why it stopped; and, for the
    /// parts zones or a matching decided, that no search ran on them and
    /// why a refutation is one.
    pub fn explain(&self) -> String {
        let mut lines = vec![format!("verdict: {} in {:.2} ms", self.verdict, self.wall_ms)];
        let procedures = [
            (self.zones, "zones (a register with unique writes)"),
            (self.matching, "matching (a stateless pair specification)"),
        ];
        for (parts, procedure) in procedures.into_iter().filter(|&(parts, _)| parts > 0) {
            lines.push(format!("procedure: {procedure}, {parts} part(s) decided with no search"));
        }
        if let Some(reason) = &self.refutation {
            lines.push(format!("cause:   {reason}"));
        }
        let budget_pct = if self.max_nodes == 0 {
            100.0
        } else {
            self.nodes as f64 * 100.0 / self.max_nodes as f64
        };
        if self.zones + self.matching == 0 || self.nodes > 0 {
            lines.push(format!(
                "search:  {} nodes ({:.2}% of the {}-node budget), {} elements tried",
                self.nodes, budget_pct, self.max_nodes, self.elements_tried
            ));
        }
        let probes = self.memo_hits + self.memo_misses;
        if probes > 0 {
            lines.push(format!(
                "memo:    {} hits / {} misses ({:.1}% hit rate), {} inserts",
                self.memo_hits,
                self.memo_misses,
                self.memo_hits as f64 * 100.0 / probes as f64,
                self.memo_inserts
            ));
        }
        if self.frontier_max > 0 {
            lines.push(format!(
                "frontier: max {} concurrent minimal ops, mean {:.1}",
                self.frontier_max, self.frontier_mean
            ));
        }
        if self.root_workers > 0 {
            lines.push(format!("parallel: {} worker(s) searched the root", self.root_workers));
        }
        if !self.objects.is_empty() {
            let slowest = self
                .objects
                .iter()
                .max_by(|a, b| a.wall_ms.total_cmp(&b.wall_ms))
                .expect("objects is non-empty");
            lines.push(format!(
                "decomposed: {} object(s); slowest o{} ({}, {:.2} ms)",
                self.objects.len(),
                slowest.object.0,
                slowest.outcome,
                slowest.wall_ms
            ));
        }
        if let Some(cause) = &self.interrupted {
            lines.push(format!(
                "cause:   interrupted ({cause}) — raise the deadline or shrink the history"
            ));
        }
        if self.exhausted {
            lines.push(format!(
                "cause:   node budget exhausted at {} nodes — raise max_nodes or shrink the history",
                self.nodes
            ));
        }
        lines.join("\n")
    }
}

impl fmt::Display for SearchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.summary())
    }
}

/// The one writer of the `--stats-json` wire style, shared by
/// [`SearchReport`], its object rows, the streaming report and the
/// experiment runner's `BENCH_experiments.json`: a single-line JSON
/// object, fields in call order, `", "` between them.
///
/// ```
/// use cal_core::obs::JsonLine;
/// let line = JsonLine::new().str("name", "e8").num("nodes", 7).ms("wall_ms", 0.25).finish();
/// assert_eq!(line, r#"{"name": "e8", "nodes": 7, "wall_ms": 0.250}"#);
/// ```
#[derive(Debug)]
pub struct JsonLine(String);

impl JsonLine {
    /// An object with no fields yet.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        JsonLine(String::from("{"))
    }

    /// A number or boolean as its `Display` spells it, or a value that
    /// is already JSON.
    pub fn num(mut self, key: &str, value: impl fmt::Display) -> Self {
        let sep = if self.0.len() > 1 { ", " } else { "" };
        let _ = write!(self.0, "{sep}\"{key}\": {value}");
        self
    }

    /// Milliseconds (or any ratio) to three decimal places.
    pub fn ms(self, key: &str, value: f64) -> Self {
        self.num(key, format_args!("{value:.3}"))
    }

    /// A string that needs no escaping (verdict and cause names).
    pub fn str(self, key: &str, value: &str) -> Self {
        self.num(key, format_args!("\"{value}\""))
    }

    /// Closes the object and returns the line.
    pub fn finish(mut self) -> String {
        self.0.push('}');
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::CheckStats;

    fn sample_stats() -> CheckStats {
        CheckStats { nodes: 7, elements_tried: 9, memo_hits: 2, ..CheckStats::default() }
    }

    fn report_of(sink: &CountingSink, verdict: Verdict, stats: CheckStats) -> SearchReport {
        let outcome = CheckOutcome { verdict, stats };
        sink.report(&outcome, &CheckOptions::default(), Duration::from_millis(5))
    }

    fn sample_report(sink: &CountingSink, verdict: Verdict) -> SearchReport {
        report_of(sink, verdict, sample_stats())
    }

    #[test]
    fn counting_sink_keeps_frontier_widths_and_object_rows() {
        let sink = CountingSink::new();
        sink.on_frontier(3);
        sink.on_frontier(5);
        sink.on_interrupt(InterruptReason::DeadlineExceeded);
        sink.on_object_done(ObjectId(3), Duration::from_millis(2), ObjectOutcome::NotCal);

        assert_eq!(sink.frontier_max(), 5);
        assert!((sink.frontier_mean() - 4.0).abs() < 1e-9);
        let objects = sink.objects.lock().clone();
        assert_eq!(objects.len(), 1);
        assert_eq!(objects[0].object, ObjectId(3));
        assert_eq!(objects[0].outcome, ObjectOutcome::NotCal);
    }

    /// Every count in the report is the outcome's, so a sink reused
    /// across runs changes only the frontier and object parts.
    #[test]
    fn report_takes_every_count_from_the_outcome() {
        let stats = CheckStats {
            memo_misses: 5,
            memo_inserts: 4,
            root_workers: 2,
            ..sample_stats()
        };
        let sink = CountingSink::new();
        let first = report_of(&sink, Verdict::NotCal, stats);
        let second = report_of(&sink, Verdict::NotCal, stats);
        assert_eq!(first, second);
        let counts = (first.nodes, first.elements_tried, first.memo_hits, first.memo_misses);
        assert_eq!(counts, (7, 9, 2, 5));
        assert_eq!((first.memo_inserts, first.root_workers), (4, 2));
        assert_eq!(first.verdict, "not-cal");
        assert_eq!(first.interrupted, None);
    }

    #[test]
    fn json_is_well_formed() {
        let sink = CountingSink::new();
        let report = sample_report(&sink, Verdict::NotCal);
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"nodes\": 7"), "{json}");
        assert!(json.contains("\"interrupted\": null"), "{json}");
        assert!(!json.contains('\n'), "single line expected: {json}");
    }

    #[test]
    fn interrupted_verdict_is_reported_with_cause() {
        let sink = CountingSink::new();
        let report = sample_report(
            &sink,
            Verdict::Interrupted { reason: InterruptReason::DeadlineExceeded },
        );
        assert_eq!(report.verdict, "interrupted");
        assert_eq!(report.interrupted.as_deref(), Some("deadline-exceeded"));
        assert!(report.explain().contains("deadline-exceeded"), "{}", report.explain());
        assert!(report.to_json().contains("\"interrupted\": \"deadline-exceeded\""));
    }

    #[test]
    fn explain_mentions_decomposition_and_budget() {
        let sink = CountingSink::new();
        sink.on_object_done(ObjectId(0), Duration::from_millis(1), ObjectOutcome::Cal);
        sink.on_object_done(ObjectId(1), Duration::from_millis(9), ObjectOutcome::Exhausted);
        let report = sample_report(&sink, Verdict::ResourcesExhausted);
        let text = report.explain();
        assert!(text.contains("slowest o1"), "{text}");
        assert!(text.contains("budget exhausted"), "{text}");
    }

    #[test]
    fn display_is_the_summary() {
        let sink = CountingSink::new();
        let report = sample_report(&sink, Verdict::NotCal);
        assert_eq!(report.to_string(), report.summary());
    }
    /// The `cal-check --stats-json` wire line, byte for byte, with every
    /// optional part present and then absent.
    #[test]
    fn report_json_golden() {
        let sink = CountingSink::new();
        sink.on_frontier(3);
        sink.on_frontier(4);
        sink.on_object_done(ObjectId(3), Duration::from_micros(2500), ObjectOutcome::NotCal);
        sink.on_object_done(ObjectId(1), Duration::from_millis(1), ObjectOutcome::Cal);
        let interrupted = Verdict::Interrupted { reason: InterruptReason::DeadlineExceeded };
        let stats = CheckStats {
            memo_misses: 1,
            memo_inserts: 1,
            root_workers: 4,
            ..sample_stats()
        };
        assert_eq!(
            report_of(&sink, interrupted, stats).to_json(),
            "{\"verdict\": \"interrupted\", \"interrupted\": \"deadline-exceeded\", \
             \"exhausted\": false, \"wall_ms\": 5.000, \"threads\": 1, \"max_nodes\": 4000000, \
             \"nodes\": 7, \"elements_tried\": 9, \"memo_hits\": 2, \"memo_misses\": 1, \
             \"memo_inserts\": 1, \"frontier_max\": 4, \"frontier_mean\": 3.500, \
             \"root_workers\": 4, \"zones\": 0, \"matching\": 0, \"objects\": \
             [{\"object\": 3, \"wall_ms\": 2.500, \"outcome\": \"not-cal\"}, \
             {\"object\": 1, \"wall_ms\": 1.000, \"outcome\": \"cal\"}]}"
        );
        assert_eq!(
            sample_report(&CountingSink::new(), Verdict::NotCal).to_json(),
            "{\"verdict\": \"not-cal\", \"interrupted\": null, \"exhausted\": false, \
             \"wall_ms\": 5.000, \"threads\": 1, \"max_nodes\": 4000000, \"nodes\": 7, \
             \"elements_tried\": 9, \"memo_hits\": 2, \"memo_misses\": 0, \"memo_inserts\": 0, \
             \"frontier_max\": 0, \
             \"frontier_mean\": 0.000, \"root_workers\": 0, \"zones\": 0, \"matching\": 0, \
             \"objects\": []}"
        );
    }
}
