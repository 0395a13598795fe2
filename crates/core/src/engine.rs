//! The generic membership-search kernel shared by every checker.
//!
//! Every checker is an instance of one problem: an ordered backtracking
//! search for a *witness* — a sequence of steps accepted by a stateful
//! specification that explains every complete operation of a history.
//! There is one search definition on it, the CAL domain ([`crate::check`],
//! steps are CA-elements): classical linearizability is its
//! singleton-element fragment, interval-linearizability its reading over a
//! history whose operations are split into open and close halves
//! ([`crate::interval`]), and causal mode runs it under a partial order.
//!
//! This module owns everything apart from candidate enumeration:
//!
//! - the node budget ([`CheckOptions::max_nodes`]), one counter shared
//!   by every worker of a search;
//! - deadline / cancellation polling at one tick cadence
//!   ([`CheckOptions::deadline`], [`CancelToken`]);
//! - failed-state memoization, thread-private (`MemoTable`) or shared
//!   and lock-free ([`crate::fpmemo::FpMemo`]) between the workers that
//!   search one root, keyed on nodes exactly as the domain generated
//!   them;
//! - the search's counters ([`CheckStats`]), and the few live events a
//!   [`crate::obs::StatsSink`] receives while a search runs;
//! - the [`Verdict`] / [`InterruptReason`] outcome taxonomy;
//! - one task runner under every DFS: its tasks are one whole-root DFS
//!   per worker, each in its own successor order ([`search`]; one worker
//!   at one thread), or the per-object parts a caller split the problem
//!   into before building anything (`search_parts`, behind
//!   [`crate::check::check_cal_with`]), drained under one node budget and
//!   one stop latch ([`run_tasks`] is the same drain for callers with
//!   tasks of their own).
//!
//! The search itself is one *iterative* DFS over an arena of successor
//! entries: one `Vec` per worker holds every `(step, node)` on the current
//! path's frontiers, frames address it by index, and the witness is
//! reconstructed from frame indices only on success — backtracking is a
//! truncate, and what a node allocates is whatever its domain's node and
//! step types do (for the CAL domain over a window-sized history: nothing,
//! which `tests/alloc_budget.rs` asserts under a counting allocator).
//! [`search`] runs it from the domain's root to the first goal, and
//! [`search_from`] from several roots to whichever goal its caller stops
//! at — the streaming checker's every end state of a window. One memo
//! rule serves both: a node is recorded once all below it was visited,
//! and a revisit is charged as a node and counted as a memo hit.
//!
//! A checker plugs in by implementing [`SearchDomain`]: it names its
//! search-node type (which doubles as the memo key — memo keys stay
//! domain-local because what "same residual state" means differs per
//! checker) and enumerates successor steps. In exchange it inherits
//! the search at every thread count, the shared memo table, stats sinks
//! and uniform interrupt semantics from one audited implementation.
//!
//! Symmetry reduction ([`CheckOptions::symmetry`]) is the domain's, not
//! the engine's: the CAL domain generates one successor per orbit of
//! interchangeable operations ([`crate::symmetry`]), so every node it
//! creates is its own canonical form and the memo and the task runner
//! need no symmetry code of their own. A search run past its goals
//! reports the same goal *states* with it as without: a within-class swap
//! leaves the state an element leads to as it was, so every orbit's goals
//! end in the states its canonical goal ends in.

use std::collections::HashSet;
use std::error::Error;
use std::fmt;
use std::hash::Hash;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::slice;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::fpmemo::FpMemo;
use crate::history::HistoryError;
use crate::ids::ObjectId;
use crate::obs::{ObjectOutcome, StatsSink};
use crate::trace::CaTrace;

/// A cooperative cancellation token shared between a checker run and the
/// code supervising it.
///
/// Cloning yields a handle to the same token. The search polls it
/// periodically; after [`CancelToken::cancel`] the run winds down and
/// reports [`Verdict::Interrupted`] with partial [`CheckStats`].
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// Creates a token in the not-cancelled state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; safe to call from any thread, idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Tuning knobs for a membership search, shared by every checker.
///
/// # Examples
///
/// Options compose via struct update syntax from [`CheckOptions::default`]:
///
/// ```
/// use std::time::Duration;
/// use cal_core::check::CheckOptions;
///
/// let options = CheckOptions {
///     max_nodes: 100_000,
///     threads: 4,
///     ..CheckOptions::with_deadline(Duration::from_secs(5))
/// };
/// assert_eq!(options.max_nodes, 100_000);
/// assert!(options.memoize); // on by default
/// ```
#[derive(Clone)]
pub struct CheckOptions {
    /// Maximum number of search nodes to expand before giving up with
    /// [`Verdict::ResourcesExhausted`].
    pub max_nodes: u64,
    /// Memoize failed search nodes (Lowe's optimization of the Wing–Gong
    /// search, generalized to every domain's node type). On by default;
    /// the ablation benchmark turns it off to quantify its effect.
    pub memoize: bool,
    /// Wall-clock budget for the search. When it elapses the search winds
    /// down and reports [`Verdict::Interrupted`] with the stats gathered
    /// so far. `None` (the default) means unbounded.
    pub deadline: Option<Duration>,
    /// Cooperative cancellation: when the token fires, the search winds
    /// down and reports [`Verdict::Interrupted`]. `None` by default.
    pub cancel: Option<CancelToken>,
    /// Worker threads for [`search`] (behind
    /// [`crate::check::check_cal_with`] and every other entry point): how
    /// many tasks run at once, never how a problem is split. Defaults to
    /// 1; 0 means 1.
    pub threads: usize,
    /// Symmetry reduction ([`crate::symmetry`]): of the successors that
    /// differ only in which of several interchangeable operations (same
    /// object/method/argument/return, identical order constraints) they
    /// match, one successor per orbit is generated — of the `C(n, k)` ways
    /// of matching `k` of `n` clones, one — for every search. On by
    /// default. Sound for specifications that
    /// consume thread ids only through equality tests *within* a
    /// candidate element and keep none in their state (all in-tree
    /// specs); a spec that discriminates on absolute thread ids must turn
    /// this off.
    pub symmetry: bool,
    /// Observability sink the search reports its live events to
    /// ([`crate::obs::StatsSink`]: frontier widths, per-object results,
    /// interrupts). Every count is in [`CheckOutcome::stats`] whether or
    /// not a sink is attached. `None` (the default) reduces each of the
    /// three event points to one never-taken branch, with no allocation
    /// and no atomics.
    pub sink: Option<Arc<dyn StatsSink>>,
}

impl fmt::Debug for CheckOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CheckOptions")
            .field("max_nodes", &self.max_nodes)
            .field("memoize", &self.memoize)
            .field("deadline", &self.deadline)
            .field("cancel", &self.cancel)
            .field("threads", &self.threads)
            .field("symmetry", &self.symmetry)
            .field("sink", &self.sink.as_ref().map(|_| "StatsSink"))
            .finish()
    }
}

impl CheckOptions {
    /// The default node budget.
    pub const DEFAULT_MAX_NODES: u64 = 4_000_000;

    /// Returns the default options with a wall-clock `deadline`.
    pub fn with_deadline(deadline: Duration) -> Self {
        CheckOptions { deadline: Some(deadline), ..CheckOptions::default() }
    }
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            max_nodes: Self::DEFAULT_MAX_NODES,
            memoize: true,
            deadline: None,
            cancel: None,
            threads: 1,
            symmetry: true,
            sink: None,
        }
    }
}

/// Why a search stopped before reaching a decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterruptReason {
    /// The wall-clock deadline in [`CheckOptions::deadline`] elapsed.
    DeadlineExceeded,
    /// The [`CancelToken`] in [`CheckOptions::cancel`] fired.
    Cancelled,
}

impl fmt::Display for InterruptReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterruptReason::DeadlineExceeded => f.write_str("deadline exceeded"),
            InterruptReason::Cancelled => f.write_str("cancelled"),
        }
    }
}

/// The outcome of a membership check, generic over the witness type `W`
/// (a [`CaTrace`], or the [`crate::interval::IntervalWitness`] an
/// interval check reads its trace back as).
///
/// # Examples
///
/// ```
/// use cal_core::check::{InterruptReason, Verdict};
/// use cal_core::trace::CaTrace;
///
/// let cal = Verdict::Cal(CaTrace::new());
/// assert!(cal.is_cal() && !cal.is_undecided());
/// assert!(cal.witness().is_some());
///
/// // Budget and interrupt outcomes are undecided, not refutations.
/// let timed_out: Verdict<CaTrace> =
///     Verdict::Interrupted { reason: InterruptReason::DeadlineExceeded };
/// assert!(timed_out.is_undecided());
/// assert_eq!(Verdict::<CaTrace>::NotCal.witness(), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict<W = CaTrace> {
    /// The history is a member of the specification; the witness is
    /// attached.
    Cal(W),
    /// No completion/witness pair exists: the history violates the
    /// specification.
    NotCal,
    /// The node budget was exhausted before the search completed.
    ResourcesExhausted,
    /// The search was stopped early by a deadline or cancellation; the
    /// accompanying [`CheckStats`] cover the work done up to that point.
    Interrupted {
        /// What stopped the search.
        reason: InterruptReason,
    },
}

impl<W> Verdict<W> {
    /// Returns `true` for [`Verdict::Cal`].
    pub fn is_cal(&self) -> bool {
        matches!(self, Verdict::Cal(_))
    }

    /// Returns `true` when the search stopped without deciding —
    /// [`Verdict::ResourcesExhausted`] or [`Verdict::Interrupted`].
    pub fn is_undecided(&self) -> bool {
        matches!(self, Verdict::ResourcesExhausted | Verdict::Interrupted { .. })
    }

    /// The witness, if the verdict is [`Verdict::Cal`].
    pub fn witness(&self) -> Option<&W> {
        match self {
            Verdict::Cal(w) => Some(w),
            _ => None,
        }
    }

    /// Maps the witness type, leaving the other variants untouched.
    pub fn map<U>(self, f: impl FnOnce(W) -> U) -> Verdict<U> {
        match self {
            Verdict::Cal(w) => Verdict::Cal(f(w)),
            Verdict::NotCal => Verdict::NotCal,
            Verdict::ResourcesExhausted => Verdict::ResourcesExhausted,
            Verdict::Interrupted { reason } => Verdict::Interrupted { reason },
        }
    }
}

impl<W: fmt::Display> fmt::Display for Verdict<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Cal(w) => write!(f, "CAL (witness: {w})"),
            Verdict::NotCal => f.write_str("not CAL"),
            Verdict::ResourcesExhausted => f.write_str("undecided: node budget exhausted"),
            Verdict::Interrupted { reason } => write!(f, "undecided: interrupted ({reason})"),
        }
    }
}

/// The search's counters: the one place a search counts what it did.
/// A report ([`crate::obs::SearchReport`]) takes every count from here;
/// searches folded together (parts, a root's workers, stream checkpoints)
/// add field by field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckStats {
    /// Search nodes charged to the budget: every node visited but a goal
    /// that stopped the run, a memo hit included. Every one that a memo
    /// hit does not prune is expanded.
    pub nodes: u64,
    /// Candidate steps tried (spec transition calls).
    pub elements_tried: u64,
    /// Memo probes that found a node already explored, pruning its
    /// subtree: a refuted node, or for [`search_from`] from several roots
    /// or past its goals, a node whose goals were all handed over.
    pub memo_hits: u64,
    /// Memo probes that missed. With [`CheckOptions::memoize`] on, every
    /// node is probed once, so hits + misses = nodes on one thread.
    pub memo_misses: u64,
    /// Refuted states recorded in the memo table (at most the misses).
    pub memo_inserts: u64,
    /// Workers that searched the root, each a whole DFS in its own
    /// successor order: 0 at one thread and for a problem searched part
    /// by part, [`CheckOptions::threads`] above one, and 1 there when
    /// [`CheckOptions::memoize`] is off (the workers would share nothing).
    pub root_workers: u64,
    /// Always 0: no search hands work from one worker to another. The
    /// field stays so that code reading it still compiles.
    pub steals: u64,
    /// Checks decided by zones ([`crate::zones`]) instead of a search: 1
    /// for such a check, which costs no nodes, and 0 for a searched one.
    pub zones: u64,
    /// Checks decided by a matching ([`crate::matching`]) instead of a
    /// search: 1 for such a check, which costs no nodes, and 0 for a
    /// searched one.
    pub matching: u64,
}

impl std::ops::AddAssign for CheckStats {
    fn add_assign(&mut self, other: CheckStats) {
        self.nodes += other.nodes;
        self.elements_tried += other.elements_tried;
        self.memo_hits += other.memo_hits;
        self.memo_misses += other.memo_misses;
        self.memo_inserts += other.memo_inserts;
        self.root_workers += other.root_workers;
        self.steals += other.steals;
        self.zones += other.zones;
        self.matching += other.matching;
    }
}

/// A verdict together with search statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckOutcome<W = CaTrace> {
    /// The verdict.
    pub verdict: Verdict<W>,
    /// Search statistics.
    pub stats: CheckStats,
}

impl<W> CheckOutcome<W> {
    /// Maps the witness type, preserving the stats.
    pub fn map_witness<U>(self, f: impl FnOnce(W) -> U) -> CheckOutcome<U> {
        CheckOutcome { verdict: self.verdict.map(f), stats: self.stats }
    }
}

/// Errors reported by the checkers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckError {
    /// The input history is not well-formed.
    IllFormed(HistoryError),
    /// The specification panicked during a transition; the payload is the
    /// panic message. The search state is discarded — a panicking spec
    /// cannot be trusted to have left its `State` values consistent.
    SpecPanicked(String),
    /// A boolean convenience query ([`crate::check::is_cal`]) could not be
    /// answered because the underlying check stopped without deciding.
    Undecided(Verdict),
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::IllFormed(e) => write!(f, "ill-formed history: {e}"),
            CheckError::SpecPanicked(msg) => write!(f, "specification panicked: {msg}"),
            CheckError::Undecided(v) => write!(f, "check undecided: {v}"),
        }
    }
}

impl Error for CheckError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CheckError::IllFormed(e) => Some(e),
            CheckError::SpecPanicked(_) | CheckError::Undecided(_) => None,
        }
    }
}

impl From<HistoryError> for CheckError {
    fn from(e: HistoryError) -> Self {
        CheckError::IllFormed(e)
    }
}

/// Renders a `catch_unwind` payload as a message.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// How many search ticks (nodes or candidate steps) pass between
/// wall-clock and cancellation polls. A power of two; small enough that
/// even slow spec transitions keep deadline overshoot well under the
/// deadline itself.
const POLL_INTERVAL_MASK: u64 = 255;

/// The failed-state table behind a search: thread-private for a whole
/// problem on one thread or one part, a reference to a shared lock-free
/// fingerprint table ([`FpMemo`]) for the workers that search one root
/// together (so a subtree one of them exhausts prunes every other's
/// without lock contention).
pub(crate) enum MemoTable<'m, K: Eq + Hash + Clone> {
    /// A plain private hash set.
    Local(HashSet<K>),
    /// A shared lock-free fingerprint table, one per root searched by
    /// several workers.
    Shared(&'m FpMemo<K>),
}

impl<K: Eq + Hash + Clone> MemoTable<'_, K> {
    fn contains(&self, key: &K) -> bool {
        match self {
            MemoTable::Local(set) => set.contains(key),
            MemoTable::Shared(memo) => memo.contains(key),
        }
    }
}

/// A checker's view of one search problem: what a search needs of it —
/// a root ([`SearchDomain::initial`]), a goal test
/// ([`SearchDomain::is_goal`]) and a node's successor steps
/// ([`SearchDomain::expand`]). Everything else — budgets, deadlines,
/// memoization, parallelism, stats — is the engine's job. Splitting a
/// problem by object is neither's: it is a property of the input, and
/// [`crate::check::check_cal_with`] decides it before any domain exists.
///
/// The one production domain is the CAL checker ([`crate::check`], steps
/// are CA-elements — on a sequential spec lifted by
/// [`crate::spec::SeqAsCa`], single operations; on an interval spec over
/// split operations, interval points).
///
/// A domain, its nodes and its steps are shared between threads: at
/// [`CheckOptions::threads`] above one, [`search`] runs its workers on
/// scoped threads against one memo table.
pub trait SearchDomain: Sync {
    /// A search node. Doubles as the failed-state memo key: the CAL
    /// domain keys on `(matched-set, spec-state)`, and a spec that carries
    /// more residual state (the interval reading's open intervals) carries
    /// it in its spec state.
    type Node: Clone + Eq + Hash + fmt::Debug + Send + Sync;

    /// One step of a witness (a CA-element).
    type Step: Clone + Send + Sync;

    /// Buffers [`SearchDomain::expand`] refills instead of allocating: the
    /// engine makes one per worker and search and lends it to every
    /// expansion, so it carries capacity from node to node and nothing
    /// else — an expansion must not read what the previous one left.
    /// `()` for a domain that needs none.
    type Scratch: Default;

    /// The root search node. May call specification code; the engine
    /// guards the call with `catch_unwind` and surfaces panics as
    /// [`CheckError::SpecPanicked`].
    fn initial(&self) -> Self::Node;

    /// Whether `node` explains every complete operation (unmatched
    /// pending invocations are dropped by the chosen completion). Must
    /// not call panicking specification code: the engine invokes it
    /// unguarded on its hot path.
    fn is_goal(&self, node: &Self::Node) -> bool;

    /// Enumerates the successor steps of `node`, in the order the search
    /// should try them, pushing each onto `out` (the engine's per-worker
    /// successor buffer — domains append and never otherwise touch it, so
    /// one growing buffer serves the whole search with no per-expansion
    /// allocation; `scratch` is the same for whatever else an expansion
    /// has to hold). Domains call specification code *unguarded* here —
    /// the engine wraps the whole call in `catch_unwind`, converts a
    /// panic into [`CheckError::SpecPanicked`] and discards whatever the
    /// interrupted call pushed. Long enumeration loops should poll
    /// [`ExpandObs::should_stop`] and return early (with a partial
    /// successor list) when it fires, and report candidate transition
    /// attempts via [`ExpandObs::on_element_tried`].
    fn expand(
        &self,
        node: &Self::Node,
        scratch: &mut Self::Scratch,
        obs: &mut ExpandObs<'_, '_>,
        out: &mut Vec<(Self::Step, Self::Node)>,
    );
}

/// Non-generic per-worker control state: budget, tick polling, interrupt
/// latches, the counters and the stats sink. Made by [`Runner::ctl`].
struct Ctl<'a> {
    options: &'a CheckOptions,
    sink: Option<&'a dyn StatsSink>,
    start: Instant,
    ticks: u64,
    stats: CheckStats,
    exhausted: bool,
    interrupted: Option<InterruptReason>,
    panicked: Option<String>,
    /// The runner's node counter, charged by every worker, so `max_nodes`
    /// bounds the *total* across them.
    nodes: &'a AtomicU64,
    /// The runner's stop latch: fired when a sibling task's end decided
    /// the run, making every other worker wind down. Distinct from the
    /// user's [`CheckOptions::cancel`] so an internal stop is never
    /// mistaken for a user cancellation.
    stop: &'a CancelToken,
}

impl Ctl<'_> {
    /// `true` once the search must stop (interrupt already latched, spec
    /// panicked, or a periodic poll observes deadline/cancellation).
    fn should_stop(&mut self) -> bool {
        if self.interrupted.is_some() || self.panicked.is_some() {
            return true;
        }
        self.ticks += 1;
        if self.ticks & POLL_INTERVAL_MASK == 0 {
            if let Some(deadline) = self.options.deadline {
                if self.start.elapsed() >= deadline {
                    return self.latch_interrupt(InterruptReason::DeadlineExceeded);
                }
            }
            if let Some(cancel) = &self.options.cancel {
                if cancel.is_cancelled() {
                    return self.latch_interrupt(InterruptReason::Cancelled);
                }
            }
            if self.stop.is_cancelled() {
                // A sibling decided the run: no interrupt of the user's
                // to report.
                self.interrupted = Some(InterruptReason::Cancelled);
                return true;
            }
        }
        false
    }

    /// Latches `reason`, reports it to the sink, and returns `true`.
    fn latch_interrupt(&mut self, reason: InterruptReason) -> bool {
        self.interrupted = Some(reason);
        if let Some(sink) = self.sink {
            sink.on_interrupt(reason);
        }
        true
    }

    /// Whether the search has run undisturbed so far: no interrupt, no
    /// spec panic, budget left.
    fn undisturbed(&self) -> bool {
        self.interrupted.is_none() && self.panicked.is_none() && !self.exhausted
    }

    /// Charges one node against the runner's budget and latches
    /// `exhausted` when the budget is spent.
    fn charge_node(&mut self) -> bool {
        if self.nodes.fetch_add(1, Ordering::Relaxed) >= self.options.max_nodes {
            self.exhausted = true;
            return false;
        }
        self.stats.nodes += 1;
        true
    }
}

/// The engine-side observer a domain's [`SearchDomain::expand`] reports
/// to: frontier widths (forwarded to the configured
/// [`crate::obs::StatsSink`]), candidate attempts (counted in
/// [`CheckStats`]) and cooperative-stop polls.
pub struct ExpandObs<'e, 'a> {
    ctl: &'e mut Ctl<'a>,
}

impl ExpandObs<'_, '_> {
    /// Reports the width of the node's candidate frontier (called once
    /// per expansion).
    pub fn on_frontier(&mut self, width: usize) {
        if let Some(sink) = self.ctl.sink {
            sink.on_frontier(width);
        }
    }

    /// Counts one candidate transition attempt against the spec.
    pub fn on_element_tried(&mut self) {
        self.ctl.stats.elements_tried += 1;
    }

    /// Whether [`CheckOptions::symmetry`] is on: a domain that knows its
    /// interchangeable operations then generates one successor per orbit
    /// of them, and every node it creates is its own canonical form.
    pub fn symmetry(&self) -> bool {
        self.ctl.options.symmetry
    }

    /// Polls the deadline / cancellation state at the shared tick
    /// cadence. Once it returns `true` the domain should stop enumerating
    /// and return the successors collected so far — the engine winds the
    /// whole search down.
    pub fn should_stop(&mut self) -> bool {
        self.ctl.should_stop()
    }
}

/// Runs `f` with the observer of a search over `options` that has not
/// started: how a domain's own tests drive [`SearchDomain::expand`] one
/// node at a time.
#[cfg(test)]
pub(crate) fn observe<R>(options: &CheckOptions, f: impl FnOnce(&mut ExpandObs<'_, '_>) -> R) -> R {
    let runner = Runner::new(options, Instant::now());
    let mut ctl = runner.ctl();
    f(&mut ExpandObs { ctl: &mut ctl })
}

impl fmt::Debug for ExpandObs<'_, '_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExpandObs").finish_non_exhaustive()
    }
}

/// The full mutable state of one worker's DFS.
struct Cx<'a, D: SearchDomain> {
    ctl: Ctl<'a>,
    failed: MemoTable<'a, D::Node>,
    scratch: D::Scratch,
    order: Order,
}

/// The order a DFS tries a node's successors in: worker `i` of `w` on one
/// root starts at offset `⌊i·len/w⌋` of the domain's order and wraps
/// around, so worker 0 is the sequential search and the others exhaust
/// other subtrees first, pruning one another through the shared memo.
#[derive(Clone, Copy)]
struct Order {
    worker: usize,
    workers: usize,
}

impl Order {
    /// The domain's own order.
    const SEQUENTIAL: Order = Order { worker: 0, workers: 1 };

    /// Puts one expansion's successors in this order.
    fn arrange<T>(self, succs: &mut [T]) {
        if self.worker > 0 {
            succs.rotate_left(self.worker * succs.len() / self.workers);
        }
    }
}

/// [`SearchDomain::expand`] behind `catch_unwind`: a panicking spec
/// latches `panicked` and reads as a dead end. Successors are pushed
/// onto `out`; a panic truncates `out` back to its pre-call length so
/// the arena never carries half-built entries.
fn expand_guarded<D: SearchDomain>(
    domain: &D,
    cx: &mut Cx<'_, D>,
    node: &D::Node,
    out: &mut Vec<(D::Step, D::Node)>,
) -> bool {
    let len = out.len();
    let mut obs = ExpandObs { ctl: &mut cx.ctl };
    let scratch = &mut cx.scratch;
    match catch_unwind(AssertUnwindSafe(|| domain.expand(node, scratch, &mut obs, out))) {
        Ok(()) => true,
        Err(payload) => {
            out.truncate(len);
            cx.ctl.panicked = Some(panic_message(payload));
            false
        }
    }
}

/// Probes the memo table for `node`, counting the hit or miss. `true`
/// means the node is a known refuted state and the search must prune.
fn probe_memo<D: SearchDomain>(cx: &mut Cx<'_, D>, node: &D::Node) -> bool {
    if cx.failed.contains(node) {
        cx.ctl.stats.memo_hits += 1;
        true
    } else {
        cx.ctl.stats.memo_misses += 1;
        false
    }
}

/// Records `node` as refuted. The private table keeps a clone; the
/// shared one boxes its own copy, so it is only shown the node.
fn insert_memo<D: SearchDomain>(cx: &mut Cx<'_, D>, node: &D::Node) {
    cx.ctl.stats.memo_inserts += 1;
    match &mut cx.failed {
        MemoTable::Local(set) => {
            set.insert(node.clone());
        }
        MemoTable::Shared(memo) => {
            memo.insert(node);
        }
    }
}

/// One frame of the iterative DFS: a node being expanded and the arena
/// range of its successors.
struct Frame {
    /// Arena index of the `(step, node)` entry this frame expands;
    /// `None` for the root frame (whose node the caller owns).
    node_idx: Option<usize>,
    /// Start of this frame's successor range in the arena.
    succ_start: usize,
    /// One past the end of the range.
    succ_end: usize,
    /// Next successor to try (absolute arena index).
    cursor: usize,
}

/// How a search ended: one worker's DFS, or several folded together with
/// [`Tally::absorb`]. [`Tally::verdict`] is the only place an end state
/// becomes a [`Verdict`].
struct Tally<T> {
    witness: Option<Vec<T>>,
    stats: CheckStats,
    panicked: Option<String>,
    /// The DFS ran to the end without a witness. Sound under a shared
    /// memo too: some worker had exhausted every entry it leaned on.
    refuted: bool,
    /// [`CheckOptions::deadline`] elapsed.
    deadline: bool,
    /// The user's [`CheckOptions::cancel`] token fired.
    cancelled: bool,
    /// The node budget was spent.
    exhausted: bool,
}

impl<T> Default for Tally<T> {
    fn default() -> Self {
        Tally {
            witness: None,
            stats: CheckStats::default(),
            panicked: None,
            refuted: false,
            deadline: false,
            cancelled: false,
            exhausted: false,
        }
    }
}

impl<T> Tally<T> {
    /// The end state of one DFS, classifying its interrupt (an internal
    /// stop is *not* a user cancellation).
    fn of(ctl: Ctl<'_>, witness: Option<Vec<T>>) -> Self {
        let cancelled = ctl.interrupted == Some(InterruptReason::Cancelled);
        let by_user = ctl.options.cancel.as_ref().is_some_and(CancelToken::is_cancelled);
        Tally {
            refuted: witness.is_none() && ctl.undisturbed(),
            witness,
            stats: ctl.stats,
            panicked: ctl.panicked,
            deadline: ctl.interrupted == Some(InterruptReason::DeadlineExceeded),
            cancelled: cancelled && by_user,
            exhausted: ctl.exhausted,
        }
    }

    /// Folds a sibling search into this one: counters add, causes
    /// accumulate, the first witness and the first panic are kept.
    fn absorb(&mut self, other: Tally<T>) {
        self.stats += other.stats;
        self.witness = self.witness.take().or(other.witness);
        self.panicked = self.panicked.take().or(other.panicked);
        self.refuted |= other.refuted;
        self.deadline |= other.deadline;
        self.cancelled |= other.cancelled;
        self.exhausted |= other.exhausted;
    }

    /// The verdict precedence, spelled out once: a spec panic is an
    /// error; then witness, refutation, deadline, user cancellation,
    /// spent budget. A search that ended for none of these reasons was
    /// wound down by the task runner's stop latch (or never ran) and is
    /// undecided. [`Tally::verdict`] reads it, adding the interrupt's
    /// cause.
    fn object_outcome(&self) -> ObjectOutcome {
        if self.panicked.is_some() {
            ObjectOutcome::SpecPanicked
        } else if self.witness.is_some() {
            ObjectOutcome::Cal
        } else if self.refuted {
            ObjectOutcome::NotCal
        } else if self.deadline || self.cancelled {
            ObjectOutcome::Interrupted
        } else if self.exhausted {
            ObjectOutcome::Exhausted
        } else {
            ObjectOutcome::Interrupted
        }
    }

    /// [`Tally::object_outcome`] as a verdict: a deadline is named as
    /// such, a user cancellation or an internal stop as a cancellation.
    /// Takes the witness and the panic message out of the tally;
    /// counters and causes stay.
    fn verdict(&mut self) -> Result<Verdict<Vec<T>>, CheckError> {
        Ok(match self.object_outcome() {
            ObjectOutcome::SpecPanicked => {
                let msg = self.panicked.take().expect("the outcome says it panicked");
                return Err(CheckError::SpecPanicked(msg));
            }
            ObjectOutcome::Cal => {
                Verdict::Cal(self.witness.take().expect("the outcome says it has a witness"))
            }
            ObjectOutcome::Interrupted if self.deadline => {
                Verdict::Interrupted { reason: InterruptReason::DeadlineExceeded }
            }
            ObjectOutcome::Interrupted => Verdict::Interrupted { reason: InterruptReason::Cancelled },
            ObjectOutcome::Exhausted => Verdict::ResourcesExhausted,
            ObjectOutcome::NotCal => Verdict::NotCal,
        })
    }

    /// [`Tally::verdict`] with the stats attached.
    fn outcome(mut self) -> Result<CheckOutcome<Vec<T>>, CheckError> {
        Ok(CheckOutcome { verdict: self.verdict()?, stats: self.stats })
    }
}

/// What visiting one node decided ([`visit`]).
enum Visit {
    /// A goal that `on_goal` stops the run at.
    Goal,
    /// Not expanded (budget spent, or a memo hit); siblings still visited.
    Skip,
    /// Not expanded, and the run winds down (interrupt or spec panic).
    Halt,
    /// Expanded: its successors are in `out`, in the worker's order.
    Expanded,
}

/// Visits one node, roots and children alike: goal test → stop poll →
/// budget charge → memo probe → expansion. A goal `on_goal` stops at
/// costs no node; one it does not is expanded like any other node.
fn visit<D: SearchDomain>(
    domain: &D,
    cx: &mut Cx<'_, D>,
    node: &D::Node,
    on_goal: &mut impl FnMut(&D::Node) -> bool,
    out: &mut Vec<(D::Step, D::Node)>,
) -> Visit {
    if domain.is_goal(node) && on_goal(node) {
        return Visit::Goal;
    }
    if cx.ctl.should_stop() {
        return Visit::Halt;
    }
    if !cx.ctl.charge_node() || (cx.ctl.options.memoize && probe_memo(cx, node)) {
        return Visit::Skip;
    }
    if !expand_guarded(domain, cx, node, out) {
        return Visit::Halt;
    }
    cx.order.arrange(out);
    Visit::Expanded
}

/// The one backtracking search every checker shares, as an iterative
/// DFS over a per-worker successor arena: from each of `roots` in turn,
/// against one memo table, until `on_goal` stops it at a goal.
///
/// A spent budget skips expansion but *not* sibling goal tests, and a
/// frame is memo-inserted on pop only when its subtree genuinely
/// completed (no interrupt, no panic, no exhaustion): everything below it
/// was visited and `on_goal` stopped at none of it. Insertion after the
/// subtree is sound because the search graph is acyclic — every step
/// matches a span, so no node is met again while its frame is open. A
/// later root then pays only for the nodes no earlier one reached.
///
/// Returns the witness steps below the root it started from, when
/// `on_goal` stopped the run.
fn run_tree<D: SearchDomain>(
    domain: &D,
    cx: &mut Cx<'_, D>,
    roots: &[D::Node],
    on_goal: &mut impl FnMut(&D::Node) -> bool,
) -> Option<Vec<D::Step>> {
    // The arena: every (step, node) on the current path's frontiers,
    // contiguous per frame. Backtracking truncates; nothing is freed
    // node-by-node.
    let mut succs: Vec<(D::Step, D::Node)> = Vec::new();
    // One expansion's successors, reused so domains never allocate a
    // fresh successor Vec; `Vec::append` moves its contents into the
    // arena and keeps the capacity.
    let mut expanded: Vec<(D::Step, D::Node)> = Vec::new();
    let mut frames: Vec<Frame> = Vec::new();
    for root in roots {
        match visit(domain, cx, root, on_goal, &mut expanded) {
            Visit::Goal => return Some(Vec::new()),
            Visit::Halt => return None,
            Visit::Skip => continue,
            Visit::Expanded => {}
        }
        succs.append(&mut expanded);
        frames.push(Frame { node_idx: None, succ_start: 0, succ_end: succs.len(), cursor: 0 });
        while let Some(frame) = frames.last_mut() {
            if frame.cursor >= frame.succ_end {
                // Frame exhausted: memo-insert if proven, pop, reclaim the
                // arena range.
                let Frame { node_idx, succ_start, .. } = *frame;
                frames.pop();
                if cx.ctl.options.memoize && cx.ctl.undisturbed() {
                    insert_memo(cx, node_idx.map_or(root, |i| &succs[i].1));
                }
                succs.truncate(succ_start);
                continue;
            }
            // The parent loop's stop poll.
            if cx.ctl.should_stop() {
                return None;
            }
            let child = frame.cursor;
            frame.cursor += 1;
            match visit(domain, cx, &succs[child].1, on_goal, &mut expanded) {
                Visit::Goal => {
                    let path = frames.iter().filter_map(|f| f.node_idx).chain([child]);
                    return Some(path.map(|i| succs[i].0.clone()).collect());
                }
                Visit::Halt => return None,
                Visit::Skip => {}
                Visit::Expanded => {
                    let succ_start = succs.len();
                    succs.append(&mut expanded);
                    frames.push(Frame {
                        node_idx: Some(child),
                        succ_start,
                        succ_end: succs.len(),
                        cursor: succ_start,
                    });
                }
            }
        }
    }
    None
}

/// Runs one DFS from `roots` to completion (or interruption), trying
/// successors in `order`: one [`Runner`] task.
fn run_dfs<'m, D: SearchDomain>(
    domain: &D,
    roots: &[D::Node],
    failed: MemoTable<'m, D::Node>,
    ctl: Ctl<'m>,
    order: Order,
    mut on_goal: impl FnMut(&D::Node) -> bool,
) -> Tally<D::Step> {
    let mut cx: Cx<'_, D> = Cx { ctl, failed, scratch: D::Scratch::default(), order };
    let witness = run_tree(domain, &mut cx, roots, &mut on_goal);
    Tally::of(cx.ctl, witness)
}

/// [`SearchDomain::initial`] behind `catch_unwind`.
fn initial_guarded<D: SearchDomain>(domain: &D) -> Result<D::Node, CheckError> {
    catch_unwind(AssertUnwindSafe(|| domain.initial()))
        .map_err(|p| CheckError::SpecPanicked(panic_message(p)))
}

/// Runs the search over `domain` on [`CheckOptions::threads`] workers,
/// returning the witness as the domain's step sequence; `max_nodes`
/// bounds the *total* nodes across the workers. Every DFS is a task of
/// one runner. The root is searched by one worker on a private memo when
/// `threads` is 1 or [`CheckOptions::memoize`] is off (the workers would
/// share nothing). Otherwise `threads` workers each search the root in
/// their own successor order — worker 0 in the domain's — against one
/// lock-free [`FpMemo`], and the first to end decides: its witness
/// accepts, its run to the end refutes.
///
/// At one thread this is the same DFS, node for node, at every entry
/// point. A problem that splits by object is not split here: the caller
/// splits it before building a domain ([`crate::check::check_cal_with`])
/// and hands the parts to `search_parts`.
///
/// # Errors
///
/// Returns [`CheckError::SpecPanicked`] if the domain's specification
/// panics during the search.
pub fn search<D: SearchDomain>(
    domain: &D,
    options: &CheckOptions,
) -> Result<CheckOutcome<Vec<D::Step>>, CheckError> {
    let runner = Runner::new(options, Instant::now());
    let root = initial_guarded(domain)?;
    let threads = options.threads.max(1);
    let workers = if options.memoize { threads } else { 1 };
    let shared: Option<FpMemo<D::Node>> = (workers > 1).then(FpMemo::new);
    // Any worker's end decides the run: each one searches the whole root.
    let done = runner.run_all(workers, |worker| {
        let failed = match &shared {
            Some(memo) => MemoTable::Shared(memo),
            None => MemoTable::Local(HashSet::new()),
        };
        let order = Order { worker, workers };
        (run_dfs(domain, slice::from_ref(&root), failed, runner.ctl(), order, |_| true), true)
    });
    let mut total: Tally<D::Step> = Tally::default();
    for (_, tally) in done {
        total.absorb(tally);
    }
    if threads > 1 {
        total.stats.root_workers = workers as u64;
    }
    total.outcome()
}

/// Searches independent parts of one problem (one object's subhistory
/// each) as the tasks of one runner: each part from its own root on a
/// private memo, in part order at one thread and `threads` parts at a
/// time above one, under one node budget, reported to the sink as one
/// object. The first part that is not accepted stops the rest.
///
/// The parts' tallies fold in part order. A refuted part is decisive
/// whatever else happened: membership implies per-object membership
/// (locality), and the ladder ranks a refutation above every interrupt.
/// Every part accepted returns their witnesses, in part order, for the
/// caller to merge; anything else is undecided, and the ladder names the
/// cause. `root_workers` stays 0.
///
/// # Errors
///
/// Returns [`CheckError::SpecPanicked`] if a part's specification panics.
pub(crate) fn search_parts<D: SearchDomain>(
    parts: &[(ObjectId, D)],
    options: &CheckOptions,
) -> Result<CheckOutcome<Vec<Vec<D::Step>>>, CheckError> {
    let runner = Runner::new(options, Instant::now());
    let done = runner.run_all(parts.len(), |i| {
        let (object, part) = &parts[i];
        let part_start = Instant::now();
        let tally = match catch_unwind(AssertUnwindSafe(|| part.initial())) {
            Ok(root) => {
                let failed = MemoTable::Local(HashSet::new());
                run_dfs(part, slice::from_ref(&root), failed, runner.ctl(), Order::SEQUENTIAL, |_| true)
            }
            Err(p) => Tally { panicked: Some(panic_message(p)), ..Tally::default() },
        };
        let outcome = tally.object_outcome();
        if let Some(sink) = options.sink.as_deref() {
            sink.on_object_done(*object, part_start.elapsed(), outcome);
        }
        (tally, outcome != ObjectOutcome::Cal)
    });
    let mut total: Tally<D::Step> = Tally::default();
    let mut witnesses = Vec::with_capacity(parts.len());
    for (_, mut tally) in done {
        if let Verdict::Cal(steps) = tally.verdict()? {
            witnesses.push(steps);
        }
        total.absorb(tally);
    }
    if witnesses.len() == parts.len() {
        // Every part accepted: the ladder reads the run as accepted.
        total.witness = Some(Vec::new());
    }
    Ok(total.outcome()?.map_witness(|_| witnesses))
}

/// Runs [`search`]'s DFS from each of `roots` in turn, against one memo
/// table, until `on_goal` stops it at a goal node: the streaming
/// checker's one way to reach the engine ([`crate::stream`]). A goal
/// `on_goal` does not stop at is expanded like any other node, so that a
/// pending operation may still join an element after it.
///
/// It runs on one worker whatever [`CheckOptions::threads`] says, and
/// always memoises whatever [`CheckOptions::memoize`] says: the memo keeps
/// a node several roots reach from being expanded twice. Nothing outlives
/// the call. [`Verdict::Cal`] means `on_goal` stopped the run, with the
/// witness below the root it started from; [`Verdict::NotCal`], that all
/// reachable from `roots` was explored; [`Verdict::ResourcesExhausted`] and
/// [`Verdict::Interrupted`] name the bound that ended it first.
///
/// # Errors
///
/// Returns [`CheckError::SpecPanicked`] if the domain's specification
/// panics during the search.
pub fn search_from<D: SearchDomain>(
    domain: &D,
    roots: &[D::Node],
    options: &CheckOptions,
    on_goal: impl FnMut(&D::Node) -> bool,
) -> Result<CheckOutcome<Vec<D::Step>>, CheckError> {
    let options = CheckOptions { memoize: true, ..options.clone() };
    let runner = Runner::new(&options, Instant::now());
    let failed = MemoTable::Local(HashSet::new());
    run_dfs(domain, roots, failed, runner.ctl(), Order::SEQUENTIAL, on_goal).outcome()
}

/// The one way the engine runs subsearches: a task list drained by
/// [`drain`], every task charging one node budget and watching one stop
/// latch. The tasks are one whole-root DFS per worker, or a problem's
/// per-object parts.
struct Runner<'a> {
    options: &'a CheckOptions,
    start: Instant,
    /// Nodes charged so far by every task: [`CheckOptions::max_nodes`]
    /// bounds the total.
    nodes: AtomicU64,
    /// Fired by a task whose end decides the run; every other task winds
    /// down at its next poll and no new one starts.
    stop: CancelToken,
}

impl<'a> Runner<'a> {
    fn new(options: &'a CheckOptions, start: Instant) -> Self {
        Runner { options, start, nodes: AtomicU64::new(0), stop: CancelToken::new() }
    }

    /// The control state of one task's DFS.
    fn ctl(&self) -> Ctl<'_> {
        Ctl {
            options: self.options,
            sink: self.options.sink.as_deref(),
            start: self.start,
            ticks: 0,
            stats: CheckStats::default(),
            exhausted: false,
            interrupted: None,
            panicked: None,
            nodes: &self.nodes,
            stop: &self.stop,
        }
    }

    /// Drains `tasks` tasks on [`CheckOptions::threads`] workers under
    /// this runner's stop latch.
    fn run_all<R: Send>(
        &self,
        tasks: usize,
        run: impl Fn(usize) -> (R, bool) + Sync,
    ) -> Vec<(usize, R)> {
        drain(self.options.threads, tasks, &self.stop, run)
    }
}

/// The task runner's cursor drain: tasks `0..tasks` are handed out
/// through one atomic cursor to `min(threads, tasks)` workers — the
/// caller's thread alone when that is one — and each result comes back
/// with its task index, in task order, whichever worker finished it when.
/// `run` returns a task's result and whether that result decides the run:
/// once one does, `stop` fires and no further task starts.
fn drain<R: Send>(
    threads: usize,
    tasks: usize,
    stop: &CancelToken,
    run: impl Fn(usize) -> (R, bool) + Sync,
) -> Vec<(usize, R)> {
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        while !stop.is_cancelled() {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= tasks {
                break;
            }
            let (result, decided) = run(i);
            done.push((i, result));
            if decided {
                stop.cancel();
            }
        }
        done
    };
    let workers = threads.max(1).min(tasks);
    if workers <= 1 {
        return work();
    }
    let finished = Mutex::new(Vec::new());
    on_workers(workers, &|| {
        let mut done = work();
        finished.lock().expect("no worker panics holding the lock").append(&mut done);
    });
    // Back into task order by index, not by a sort: a sort would be one
    // more copy of the sort code for every result type a binary drains.
    let mut slots: Vec<Option<R>> = (0..tasks).map(|_| None).collect();
    for (i, result) in finished.into_inner().expect("no worker panics holding the lock") {
        slots[i] = Some(result);
    }
    slots.into_iter().enumerate().filter_map(|(i, slot)| Some((i, slot?))).collect()
}

/// Runs `work` on `workers` threads at once, the caller's among them,
/// and returns when every one has. `work` is a trait object so that a
/// binary holds one copy of the thread code, not one for every search
/// it is compiled for.
fn on_workers(workers: usize, work: &(dyn Fn() + Sync)) {
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(work);
        }
        work();
    });
}

/// Runs `run` on every task `0..tasks` with the search's task runner, on
/// `min(threads, tasks)` workers, and returns the results in task order:
/// the drain behind [`search`], for callers whose tasks are not searches
/// (`cal-check --batch` checks one file a task).
pub fn run_tasks<R: Send>(
    threads: usize,
    tasks: usize,
    run: impl Fn(usize) -> R + Sync,
) -> Vec<R> {
    let done = drain(threads, tasks, &CancelToken::new(), |i| (run(i), false));
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy domain: count down from `n` to 0 by steps of 1 or 2; goal is
    /// 0. Witness steps record the decrement taken.
    struct Countdown {
        n: u32,
        /// Reject every transition (forces exhaustive refutation).
        dead_end: bool,
    }

    impl SearchDomain for Countdown {
        type Node = u32;
        type Step = u32;
        type Scratch = ();

        fn initial(&self) -> u32 {
            self.n
        }

        fn is_goal(&self, node: &u32) -> bool {
            *node == 0
        }

        fn expand(
            &self,
            node: &u32,
            (): &mut (),
            obs: &mut ExpandObs<'_, '_>,
            out: &mut Vec<(u32, u32)>,
        ) {
            obs.on_frontier(2);
            for d in [1u32, 2] {
                if obs.should_stop() {
                    break;
                }
                obs.on_element_tried();
                if !self.dead_end && d <= *node {
                    out.push((d, *node - d));
                }
            }
        }
    }

    #[test]
    fn sequential_search_finds_a_witness() {
        let outcome =
            search(&Countdown { n: 5, dead_end: false }, &CheckOptions::default()).unwrap();
        let witness = outcome.verdict.witness().expect("witness").clone();
        assert_eq!(witness.iter().sum::<u32>(), 5);
        assert!(outcome.stats.nodes > 0);
        assert!(outcome.stats.elements_tried > 0);
    }

    #[test]
    fn dead_end_domain_is_refuted() {
        let outcome =
            search(&Countdown { n: 3, dead_end: true }, &CheckOptions::default()).unwrap();
        assert_eq!(outcome.verdict, Verdict::NotCal);
    }

    #[test]
    fn zero_budget_is_exhaustion() {
        let options = CheckOptions { max_nodes: 0, ..CheckOptions::default() };
        let outcome = search(&Countdown { n: 3, dead_end: false }, &options).unwrap();
        assert_eq!(outcome.verdict, Verdict::ResourcesExhausted);
    }

    #[test]
    fn every_worker_on_the_root_finds_a_witness() {
        for threads in [1, 2, 8] {
            let options = CheckOptions { threads, ..CheckOptions::default() };
            let outcome = search(&Countdown { n: 6, dead_end: false }, &options).unwrap();
            let witness = outcome.verdict.witness().expect("witness");
            assert_eq!(witness.iter().sum::<u32>(), 6, "threads={threads}");
        }
    }

    /// From the one root and stopped at its first goal, [`search_from`]
    /// is [`search`], count for count; run past its goals it charges every
    /// node it reaches, and a spent budget is named.
    #[test]
    fn a_search_from_one_root_stopped_at_its_first_goal_is_the_search() {
        let (domain, options) = (Countdown { n: 5, dead_end: false }, CheckOptions::default());
        let searched = search(&domain, &options).unwrap();
        let mut goals = 0;
        let stopped = search_from(&domain, &[5], &options, |_| {
            goals += 1;
            true
        })
        .unwrap();
        assert_eq!(goals, 1);
        assert_eq!(stopped, searched);
        let all = search_from(&domain, &[5], &options, |_| false).unwrap();
        assert_eq!((all.verdict, all.stats.nodes - all.stats.memo_hits), (Verdict::NotCal, 6));
        let budget = CheckOptions { max_nodes: 2, ..CheckOptions::default() };
        let cut = search_from(&domain, &[5], &budget, |_| false).unwrap();
        assert_eq!(cut.verdict, Verdict::ResourcesExhausted);
    }

    /// Counts down from `root` by 2 or 3; the goals are `goals`. Every
    /// state below a root is reached from every larger one, so roots
    /// share most of what lies below them.
    struct Descent {
        root: u32,
        goals: &'static [u32],
    }

    impl SearchDomain for Descent {
        type Node = u32;
        type Step = u32;
        type Scratch = ();

        fn initial(&self) -> u32 {
            self.root
        }

        fn is_goal(&self, node: &u32) -> bool {
            self.goals.contains(node)
        }

        fn expand(&self, node: &u32, (): &mut (), obs: &mut ExpandObs<'_, '_>, out: &mut Vec<(u32, u32)>) {
            for d in [2u32, 3] {
                obs.on_element_tried();
                if d <= *node {
                    out.push((d, *node - d));
                }
            }
        }
    }

    /// Roots that share one memo lose no goal: a node is memoised only
    /// once every goal below it was handed over, so a later root pruned
    /// at it has nothing left to report there, and no shared node is
    /// expanded twice. Stopped at its first goal, the run from several
    /// roots accepts iff the search from one of them does.
    #[test]
    fn roots_that_share_one_memo_lose_no_goal() {
        let options = CheckOptions::default();
        let goals_from = |roots: &[u32], goals| {
            let mut found = HashSet::new();
            let run = search_from(&Descent { root: 0, goals }, roots, &options, |&g| {
                found.insert(g);
                false
            })
            .unwrap();
            assert_eq!(run.verdict, Verdict::NotCal, "{roots:?}");
            (found, run.stats)
        };
        for roots in [&[3u32, 8][..], &[8, 3], &[9, 5, 1], &[1, 2]] {
            let (found, stats) = goals_from(roots, &[0, 1, 4]);
            let union: HashSet<u32> = roots.iter().flat_map(|&r| goals_from(&[r], &[0, 1, 4]).0).collect();
            assert_eq!(found, union, "{roots:?}");
            // Steps of 2 and 3 reach every state at least 2 below a root:
            // each such state, and each root, expanded once.
            let reached = (0..10).filter(|&s| roots.iter().any(|&r| r == s || s + 2 <= r)).count() as u64;
            assert_eq!((stats.memo_misses, stats.elements_tried), (reached, 2 * reached), "{roots:?}");
            assert_eq!(stats.memo_hits + stats.memo_misses, stats.nodes, "{roots:?}");
        }
        for roots in [&[3u32, 5, 7][..], &[3, 5, 2], &[5, 3, 6], &[2, 1, 0]] {
            let one = |root| search(&Descent { root, goals: &[4] }, &options).unwrap().verdict.is_cal();
            let run = search_from(&Descent { root: 0, goals: &[4] }, roots, &options, |_| true).unwrap();
            assert_eq!(run.verdict.is_cal(), roots.iter().any(|&r| one(r)), "{roots:?}");
        }
    }

    /// A branching tree with no goal anywhere: every node below the root
    /// has `width` children down to `depth`, all states distinct, so a
    /// refutation must visit the whole tree.
    struct DeadTree {
        width: u32,
        depth: u32,
    }

    impl SearchDomain for DeadTree {
        type Node = (u32, u64);
        type Step = u32;
        type Scratch = ();

        fn initial(&self) -> (u32, u64) {
            (0, 0)
        }

        fn is_goal(&self, _: &(u32, u64)) -> bool {
            false
        }

        fn expand(
            &self,
            node: &(u32, u64),
            (): &mut (),
            obs: &mut ExpandObs<'_, '_>,
            out: &mut Vec<(u32, (u32, u64))>,
        ) {
            if node.0 >= self.depth {
                return;
            }
            obs.on_frontier(self.width as usize);
            for i in 0..self.width {
                obs.on_element_tried();
                out.push((i, (node.0 + 1, node.1 * u64::from(self.width) + u64::from(i) + 1)));
            }
        }
    }

    #[test]
    fn zero_threads_means_one_worker() {
        let options = CheckOptions { threads: 0, ..CheckOptions::default() };
        let found = search(&Countdown { n: 6, dead_end: false }, &options).unwrap();
        assert_eq!(found.verdict.witness().expect("witness").iter().sum::<u32>(), 6);
        // A refutation is the telling half: zero workers would leave every
        // task untaken and call the empty tally a refutation after one
        // node.
        let tree = DeadTree { width: 3, depth: 4 };
        let seq = search(&tree, &CheckOptions::default()).unwrap();
        let par = search(&tree, &options).unwrap();
        assert_eq!(par.verdict, Verdict::NotCal);
        assert_eq!(par.stats.nodes, seq.stats.nodes);
    }

    #[test]
    fn refutation_by_workers_on_the_root_matches_sequential() {
        let tree = DeadTree { width: 3, depth: 6 };
        let seq = search(&tree, &CheckOptions::default()).unwrap();
        assert_eq!(seq.verdict, Verdict::NotCal);
        for threads in [2, 4, 8] {
            let options = CheckOptions { threads, ..CheckOptions::default() };
            let outcome = search(&tree, &options).unwrap();
            assert_eq!(outcome.verdict, Verdict::NotCal, "threads={threads}");
            assert_eq!(outcome.stats.root_workers, threads as u64);
            // Distinct states everywhere: the refuting worker reached every
            // node or a memo entry whose subtree some worker exhausted, so
            // every node was charged at least once, and by each worker at
            // most once.
            let nodes = outcome.stats.nodes;
            assert!(nodes >= seq.stats.nodes, "threads={threads}: {nodes} lost a subtree");
            assert!(nodes <= threads as u64 * seq.stats.nodes, "threads={threads}: {nodes}");
        }
    }

    #[test]
    fn worker_orders_rotate_every_frame_and_keep_worker_zero_sequential() {
        let arranged = |worker, workers, len: usize| {
            let mut succs: Vec<usize> = (0..len).collect();
            Order { worker, workers }.arrange(&mut succs);
            succs
        };
        assert_eq!(arranged(0, 2, 5), [0, 1, 2, 3, 4]);
        assert_eq!(arranged(1, 2, 5), [2, 3, 4, 0, 1]);
        assert_eq!(arranged(3, 4, 8), [6, 7, 0, 1, 2, 3, 4, 5]);
        assert_eq!(arranged(1, 2, 1), [0]);
        assert_eq!(arranged(1, 2, 0), [] as [usize; 0]);
    }

    /// The fold over the workers that searched one root: a run to the
    /// end decides over a sibling the latch stopped or whose budget ran
    /// out, a witness over a stopped sibling; with no worker finished the
    /// budget names the cause; a panic anywhere is an error.
    #[test]
    fn the_fold_ranks_a_finished_worker_over_its_siblings() {
        let refuted = || Tally::<u32> { refuted: true, ..Tally::default() };
        let witness = || Tally::<u32> { witness: Some(vec![1, 2]), ..Tally::default() };
        let stopped = Tally::<u32>::default;
        let exhausted = || Tally::<u32> { exhausted: true, ..Tally::default() };
        let panicked = || Tally::<u32> { panicked: Some("bug".into()), ..Tally::default() };
        let fold = |tallies: Vec<Tally<u32>>| {
            let mut total = Tally::default();
            for tally in tallies {
                total.absorb(tally);
            }
            total.outcome().map(|outcome| outcome.verdict)
        };
        for sibling in [stopped, exhausted] {
            assert_eq!(fold(vec![refuted(), sibling()]), Ok(Verdict::NotCal));
            assert_eq!(fold(vec![sibling(), refuted()]), Ok(Verdict::NotCal));
        }
        assert_eq!(fold(vec![stopped(), witness()]), Ok(Verdict::Cal(vec![1, 2])));
        assert_eq!(fold(vec![stopped(), exhausted()]), Ok(Verdict::ResourcesExhausted));
        let cancelled = Verdict::Interrupted { reason: InterruptReason::Cancelled };
        assert_eq!(fold(vec![stopped(), stopped()]), Ok(cancelled));
        for sibling in [refuted, witness, stopped, exhausted] {
            for tallies in [vec![panicked(), sibling()], vec![sibling(), panicked()]] {
                assert_eq!(fold(tallies), Err(CheckError::SpecPanicked("bug".into())));
            }
        }
    }

    #[test]
    fn runner_hands_out_every_task_exactly_once_in_task_order() {
        const TASKS: usize = 1000;
        let options = CheckOptions { threads: 4, ..CheckOptions::default() };
        let runner = Runner::new(&options, Instant::now());
        let done = runner.run_all(TASKS, |i| (i * 2, false));
        assert_eq!(done, (0..TASKS).map(|i| (i, i * 2)).collect::<Vec<_>>());
        assert_eq!(run_tasks(4, TASKS, |i| i * 2), (0..TASKS).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn a_deciding_task_stops_the_runner() {
        let options = CheckOptions::default();
        let runner = Runner::new(&options, Instant::now());
        let done = runner.run_all(10, |i| ((), i == 3));
        assert_eq!(done.len(), 4, "tasks after the deciding one never start");
    }

    #[test]
    fn cancelled_token_interrupts() {
        let token = CancelToken::new();
        token.cancel();
        let options = CheckOptions {
            cancel: Some(token),
            memoize: false,
            ..CheckOptions::default()
        };
        // Large enough that the tick poll fires before the search ends.
        let outcome = search(&Countdown { n: 4_000, dead_end: false }, &options).unwrap();
        assert_eq!(outcome.verdict, Verdict::Interrupted { reason: InterruptReason::Cancelled });
    }

    #[test]
    fn panicking_domain_is_an_error() {
        struct Panicky;
        impl SearchDomain for Panicky {
            type Node = u32;
            type Step = u32;
            type Scratch = ();
            fn initial(&self) -> u32 {
                1
            }
            fn is_goal(&self, node: &u32) -> bool {
                *node == 0
            }
            fn expand(&self, _: &u32, (): &mut (), _: &mut ExpandObs<'_, '_>, _: &mut Vec<(u32, u32)>) {
                panic!("domain bug")
            }
        }
        match search(&Panicky, &CheckOptions::default()) {
            Err(CheckError::SpecPanicked(msg)) => assert!(msg.contains("domain bug")),
            other => panic!("expected SpecPanicked, got {other:?}"),
        }
    }
}
