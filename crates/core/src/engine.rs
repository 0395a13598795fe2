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
//! - per-object decomposition, decided by the input: a problem whose
//!   [`SearchDomain::decompose`] offers at least two parts is searched part
//!   by part at every thread count;
//! - one task runner under every DFS ([`search`]): its tasks are those
//!   parts, or one whole-root DFS per worker (each in its own successor
//!   order) of a problem that does not decompose — one worker at one
//!   thread — drained under one node budget and one stop latch
//!   ([`run_tasks`] is the same drain for callers with tasks of their
//!   own).
//!
//! The search itself is an *iterative* DFS over an arena of successor
//! entries: one `Vec` per worker holds every `(step, node)` on the
//! current path's frontiers, frames address it by index, and the witness
//! is reconstructed from frame indices only on success — backtracking is
//! a truncate, and what a node allocates is whatever its domain's node
//! and step types do (for the CAL domain over a window-sized history:
//! nothing, which `tests/alloc_budget.rs` asserts under a counting
//! allocator).
//!
//! A checker plugs in by implementing [`SearchDomain`]: it names its
//! search-node type (which doubles as the memo key — memo keys stay
//! domain-local because what "same residual state" means differs per
//! checker), enumerates successor steps, and optionally supports
//! per-object decomposition with witness merging. In exchange it inherits
//! the search at every thread count, the shared memo table, stats sinks
//! and uniform interrupt semantics from one audited implementation.
//!
//! Symmetry reduction ([`CheckOptions::symmetry`]) is the domain's, not
//! the engine's: the CAL domain generates one successor per orbit of
//! interchangeable operations ([`crate::symmetry`]), so every node it
//! creates is its own canonical form and the memo, the task runner
//! and [`enumerate_goals`] need no symmetry code of their own. For the
//! enumeration this means its visited set holds one node an orbit where
//! it held every member; the goal *states* it reports are unchanged,
//! because a within-class swap leaves the state an element leads to as
//! it was, so every orbit's goals end in the states its canonical goal
//! ends in.

use std::collections::{HashSet, VecDeque};
use std::error::Error;
use std::fmt;
use std::hash::Hash;
use std::panic::{catch_unwind, AssertUnwindSafe};
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
    /// of matching `k` of `n` clones, one — for every search and every
    /// goal enumeration. On by default. Sound for specifications that
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
    /// Search nodes charged to the budget; [`search`] expands every one
    /// that a memo hit does not prune.
    pub nodes: u64,
    /// Candidate steps tried (spec transition calls).
    pub elements_tried: u64,
    /// Memo probes that found a refuted state, pruning its subtree (for
    /// [`enumerate_goals`], revisits of its visited set).
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

/// A checker's view of one search problem: how to enumerate candidate
/// steps and assemble witnesses. Everything else — budgets, deadlines,
/// memoization, parallelism, stats — is the engine's job.
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

    /// Splits the problem into independent per-object subdomains, when
    /// the domain supports locality-based decomposition. The engine then
    /// searches the parts instead of the whole, at every thread count.
    /// `None` (the default) means the problem is searched whole from its
    /// root — on several threads by every worker at once, in different
    /// successor orders. A single-element partition is treated as `None`.
    /// May call specification code; the engine guards the call.
    fn decompose(&self) -> Option<Vec<(ObjectId, Self)>>
    where
        Self: Sized,
    {
        None
    }

    /// Merges per-object witnesses (as returned by the subdomains from
    /// [`SearchDomain::decompose`]) into one witness respecting the full
    /// history's real-time order. The default concatenation is only
    /// correct for domains that never decompose.
    fn merge_witnesses(&self, parts: Vec<(ObjectId, Vec<Self::Step>)>) -> Vec<Self::Step> {
        parts.into_iter().flat_map(|(_, steps)| steps).collect()
    }
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
            refuted: witness.is_none()
                && ctl.interrupted.is_none()
                && ctl.panicked.is_none()
                && !ctl.exhausted,
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

/// The one backtracking search every checker shares, as an iterative
/// DFS over a per-worker successor arena.
///
/// Check order per visited node faithfully mirrors the old recursive
/// search: parent stop-poll → goal test → stop-poll → budget charge →
/// memo probe → expansion. In particular a spent budget skips expansion
/// but *not* sibling goal tests, and a frame is memo-inserted on pop
/// only when its subtree genuinely completed (no interrupt, no panic,
/// no exhaustion).
///
/// Returns the witness steps *below* `root` on success.
fn run_tree<D: SearchDomain>(
    domain: &D,
    cx: &mut Cx<'_, D>,
    root: &D::Node,
) -> Option<Vec<D::Step>> {
    if domain.is_goal(root) {
        return Some(Vec::new());
    }
    if cx.ctl.should_stop() || !cx.ctl.charge_node() {
        return None;
    }
    if cx.ctl.options.memoize && probe_memo(cx, root) {
        return None;
    }
    // The arena: every (step, node) on the current path's frontiers,
    // contiguous per frame. Backtracking truncates; nothing is freed
    // node-by-node.
    let mut succs: Vec<(D::Step, D::Node)> = Vec::new();
    // One expansion's successors, reused so domains never allocate a
    // fresh successor Vec; `Vec::append` moves its contents into the
    // arena and keeps the capacity.
    let mut expanded: Vec<(D::Step, D::Node)> = Vec::new();
    if !expand_guarded(domain, cx, root, &mut succs) {
        return None;
    }
    cx.order.arrange(&mut succs);
    let mut frames: Vec<Frame> = vec![Frame {
        node_idx: None,
        succ_start: 0,
        succ_end: succs.len(),
        cursor: 0,
    }];
    while !frames.is_empty() {
        let fi = frames.len() - 1;
        if frames[fi].cursor >= frames[fi].succ_end {
            // Frame exhausted: memo-insert if proven, pop, reclaim the
            // arena range.
            let Frame { node_idx, succ_start, .. } = frames[fi];
            frames.pop();
            if cx.ctl.options.memoize
                && cx.ctl.interrupted.is_none()
                && cx.ctl.panicked.is_none()
                && !cx.ctl.exhausted
            {
                match node_idx {
                    Some(i) => {
                        let (_, ref node) = succs[i];
                        insert_memo(cx, node);
                    }
                    None => insert_memo(cx, root),
                }
            }
            succs.truncate(succ_start);
            continue;
        }
        // The parent loop's stop poll.
        if cx.ctl.should_stop() {
            return None;
        }
        let fi = frames.len() - 1;
        let child = frames[fi].cursor;
        frames[fi].cursor += 1;
        // Visit the child, in the recursive call's exact order.
        if domain.is_goal(&succs[child].1) {
            let mut witness: Vec<D::Step> =
                frames.iter().filter_map(|f| f.node_idx).map(|i| succs[i].0.clone()).collect();
            witness.push(succs[child].0.clone());
            return Some(witness);
        }
        if cx.ctl.should_stop() {
            continue; // latched; the next parent poll unwinds
        }
        if !cx.ctl.charge_node() {
            continue; // budget spent: no expansion, but siblings still get goal tests
        }
        if cx.ctl.options.memoize && probe_memo(cx, &succs[child].1) {
            continue;
        }
        if !expand_guarded(domain, cx, &succs[child].1, &mut expanded) {
            continue; // panicked; the next parent poll unwinds
        }
        cx.order.arrange(&mut expanded);
        let succ_start = succs.len();
        succs.append(&mut expanded);
        frames.push(Frame {
            node_idx: Some(child),
            succ_start,
            succ_end: succs.len(),
            cursor: succ_start,
        });
    }
    None
}

/// Runs one DFS from `root` to completion (or interruption), trying
/// successors in `order`: one [`Runner`] task.
fn run_root<'m, D: SearchDomain>(
    domain: &D,
    root: &D::Node,
    failed: MemoTable<'m, D::Node>,
    ctl: Ctl<'m>,
    order: Order,
) -> Tally<D::Step> {
    let mut cx: Cx<'_, D> = Cx { ctl, failed, scratch: D::Scratch::default(), order };
    let witness = run_tree(domain, &mut cx, root);
    Tally::of(cx.ctl, witness)
}

/// [`SearchDomain::initial`] behind `catch_unwind`.
fn initial_guarded<D: SearchDomain>(domain: &D) -> Result<D::Node, CheckError> {
    catch_unwind(AssertUnwindSafe(|| domain.initial()))
        .map_err(|p| CheckError::SpecPanicked(panic_message(p)))
}

/// [`SearchDomain::decompose`] behind `catch_unwind`, kept only when it
/// offers at least two parts.
fn parts_of<D: SearchDomain>(domain: &D) -> Result<Option<Vec<(ObjectId, D)>>, CheckError> {
    let parts = catch_unwind(AssertUnwindSafe(|| domain.decompose()))
        .map_err(|p| CheckError::SpecPanicked(panic_message(p)))?;
    Ok(parts.filter(|parts| parts.len() >= 2))
}

/// Runs the search over `domain` on [`CheckOptions::threads`] workers,
/// returning the witness as the domain's step sequence; `max_nodes`
/// bounds the *total* nodes across the workers. Every DFS is a task of
/// one runner, and the tasks are decided by the input:
///
/// - a problem whose [`SearchDomain::decompose`] offers at least two
///   parts is searched part by part, each with a private memo, stopping
///   at the first part that is not accepted — in part order at one
///   thread, `threads` parts at a time above one;
/// - any other problem is searched whole from its root by one worker on
///   a private memo when `threads` is 1 or [`CheckOptions::memoize`] is
///   off (the workers would share nothing). Otherwise `threads` workers
///   each search the root in their own successor order — worker 0 in the
///   domain's — against one lock-free [`FpMemo`], and the first to end
///   decides: its witness accepts, its run to the end refutes.
///
/// At one thread this is the same DFS, node for node, at every entry
/// point.
///
/// # Errors
///
/// Returns [`CheckError::SpecPanicked`] if the domain's specification
/// panics during the search.
pub fn search<D: SearchDomain>(
    domain: &D,
    options: &CheckOptions,
) -> Result<CheckOutcome<Vec<D::Step>>, CheckError> {
    let parts = parts_of(domain)?;
    let runner = Runner::new(options, Instant::now());
    if let Some(parts) = parts {
        let done = runner.run_all(parts.len(), |i| run_part(&runner, &parts[i]));
        return merge_parts(domain, &parts, done);
    }
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
        (run_root(domain, &root, failed, runner.ctl(), Order { worker, workers }), true)
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

/// How an exhaustive exploration ended: the result of
/// [`enumerate_goals`].
#[derive(Debug, Clone)]
pub struct Enumeration {
    /// `true` when the exploration ran to exhaustion: every node
    /// reachable from a root was visited, so the goals reported are the
    /// *complete* set. `false` when the node budget, the deadline or a
    /// cancellation stopped it early — the caller must not treat them as
    /// closed.
    pub complete: bool,
    /// Work accounting, in the same units as a [`search`] run.
    pub stats: CheckStats,
}

/// Exhaustively explores everything reachable from `roots`, handing each
/// distinct *goal* node to `on_goal` as it is discovered.
///
/// Where [`search`] stops at the first witness, this keeps exploring and
/// reports every distinct goal node. It is the window-retirement hook the
/// streaming checker ([`crate::stream`]) builds on: the goal nodes of a
/// decided window prefix carry every specification state the prefix can
/// end in, after which the prefix's actions — and every memoized search
/// node referring to them — can be garbage-collected. (Failed-node memo
/// entries must *not* survive a retirement boundary: a node refuted
/// against one window can become satisfiable once new events extend it,
/// which is why the streaming checker runs each per-checkpoint search with
/// a fresh memo and uses this enumeration, whose visited set lives and
/// dies with the call, at the boundary itself.)
///
/// The roots share one traversal and one visited set: the first root's
/// subtree is explored first, in [`search`]'s order, and a later root
/// pays only for the nodes no earlier one reached — a node carries its
/// state, so what lies below it does not depend on the root it was
/// reached from. Goals are nodes, not states: a caller that wants the
/// distinct end *states* keeps the set itself, and clones only those.
///
/// The full visited set doubles as the memo table here (completeness
/// requires one), so [`CheckOptions::memoize`] is ignored; revisits are
/// counted as `memo_hits`. Budget, deadline and cancellation are honoured
/// exactly as in [`search`]; when any of them fires, what was reported so
/// far stands and the result says `complete = false`.
///
/// The enumeration is one DFS, on a node counter of its own, whatever
/// [`CheckOptions::threads`] says: completeness needs the one visited
/// set, and its callers (the stream's retirement) run at one thread.
///
/// # Errors
///
/// Returns [`CheckError::SpecPanicked`] if the domain's specification
/// panics during the enumeration.
pub fn enumerate_goals<D: SearchDomain>(
    domain: &D,
    roots: Vec<D::Node>,
    options: &CheckOptions,
    mut on_goal: impl FnMut(&D::Node),
) -> Result<Enumeration, CheckError> {
    let runner = Runner::new(options, Instant::now());
    let mut ctl = runner.ctl();
    let mut visited: HashSet<D::Node> = HashSet::new();
    // Popped from the back: the first root goes last.
    let mut stack = roots;
    stack.reverse();
    // One successor buffer and one scratch for the whole enumeration, as
    // in `run_tree`; a node is moved, never cloned.
    let mut succs: Vec<(D::Step, D::Node)> = Vec::new();
    let mut scratch = D::Scratch::default();
    while let Some(node) = stack.pop() {
        if visited.contains(&node) {
            ctl.stats.memo_hits += 1;
            continue;
        }
        if ctl.should_stop() {
            break;
        }
        if !ctl.charge_node() {
            break;
        }
        if domain.is_goal(&node) {
            on_goal(&node);
        }
        {
            let mut obs = ExpandObs { ctl: &mut ctl };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| {
                domain.expand(&node, &mut scratch, &mut obs, &mut succs)
            })) {
                ctl.panicked = Some(panic_message(payload));
                break;
            }
        }
        visited.insert(node);
        for (_, next) in succs.drain(..) {
            if !visited.contains(&next) {
                stack.push(next);
            }
        }
    }
    if let Some(msg) = ctl.panicked {
        return Err(CheckError::SpecPanicked(msg));
    }
    let complete = ctl.interrupted.is_none() && !ctl.exhausted && stack.is_empty();
    Ok(Enumeration { complete, stats: ctl.stats })
}

/// The one way the engine runs subsearches: a task list drained by
/// [`drain`], every task charging one node budget and watching one stop
/// latch. The tasks are a problem's per-object parts, or, for one that
/// does not decompose, one whole-root DFS per worker.
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

/// One part as a [`Runner`] task: its own DFS with a private memo,
/// reported to the sink as one object. Anything but acceptance decides
/// the run.
fn run_part<D: SearchDomain>(
    runner: &Runner<'_>,
    (object, part): &(ObjectId, D),
) -> (Tally<D::Step>, bool) {
    let part_start = Instant::now();
    let tally = match catch_unwind(AssertUnwindSafe(|| part.initial())) {
        Ok(root) => {
            run_root(part, &root, MemoTable::Local(HashSet::new()), runner.ctl(), Order::SEQUENTIAL)
        }
        Err(p) => Tally { panicked: Some(panic_message(p)), ..Tally::default() },
    };
    let outcome = tally.object_outcome();
    if let Some(sink) = runner.options.sink.as_deref() {
        sink.on_object_done(*object, part_start.elapsed(), outcome);
    }
    (tally, outcome != ObjectOutcome::Cal)
}

/// Folds the parts' tallies, in part order, into the whole problem's
/// outcome. A refuted part is decisive whatever else happened: membership
/// implies per-object membership (locality), and the ladder ranks a
/// refutation above every interrupt. Every part accepted merges their
/// witnesses ([`SearchDomain::merge_witnesses`]); anything else is
/// undecided, and the ladder names the cause.
fn merge_parts<D: SearchDomain>(
    domain: &D,
    parts: &[(ObjectId, D)],
    done: Vec<(usize, Tally<D::Step>)>,
) -> Result<CheckOutcome<Vec<D::Step>>, CheckError> {
    let mut total: Tally<D::Step> = Tally::default();
    let mut witnesses: Vec<(ObjectId, Vec<D::Step>)> = Vec::new();
    for (i, mut tally) in done {
        if let Verdict::Cal(steps) = tally.verdict()? {
            witnesses.push((parts[i].0, steps));
        }
        total.absorb(tally);
    }
    if witnesses.len() == parts.len() {
        total.witness = Some(domain.merge_witnesses(witnesses));
    }
    total.outcome()
}

/// A reference to a domain's specification: borrowed at the top level,
/// owned by decomposed subdomains (restriction yields an owned spec).
pub(crate) enum SpecRef<'a, S> {
    /// The caller's specification, borrowed.
    Borrowed(&'a S),
    /// A restricted per-object specification, owned by the subdomain.
    Owned(S),
}

impl<S> SpecRef<'_, S> {
    pub(crate) fn get(&self) -> &S {
        match self {
            SpecRef::Borrowed(s) => s,
            SpecRef::Owned(s) => s,
        }
    }
}

/// Greedily interleaves per-object witness queues into one sequence
/// respecting the full history's real-time order.
///
/// Each queue entry is `(step, maxinv, minresp)`: `maxinv` is the largest
/// invocation index among the step's operations in the *full* history and
/// `minresp` the smallest response index (`usize::MAX` for operations the
/// checker completed). `F` must precede `E` in any agreeing witness iff
/// `minresp(F) < maxinv(E)`. With `m` the minimum `minresp` over all
/// remaining steps, any queue head with `maxinv ≤ m` can be emitted next
/// — the queue holding the minimizing step always has one, because
/// per-object witness order already respects the per-object real-time
/// order. Ties go to the earliest queue.
///
/// Each queue keeps the minimum `minresp` of its every suffix, so `m` is
/// a scan over the queues, not over the steps left: `O(n · queues)`.
pub(crate) fn merge_by_order<T>(mut queues: Vec<VecDeque<(T, usize, usize)>>) -> Vec<T> {
    // `tail_min[q][k]`: the smallest `minresp` among queue `q`'s last `k`
    // steps, so `tail_min[q][queues[q].len()]` is its remaining minimum.
    let tail_min: Vec<Vec<usize>> = queues
        .iter()
        .map(|q| {
            let mut mins = vec![usize::MAX];
            for item in q.iter().rev() {
                mins.push(item.2.min(*mins.last().expect("starts non-empty")));
            }
            mins
        })
        .collect();
    let total = queues.iter().map(VecDeque::len).sum();
    let mut merged = Vec::with_capacity(total);
    while merged.len() < total {
        let m = queues.iter().zip(&tail_min).map(|(q, mins)| mins[q.len()]).min();
        let m = m.expect("steps remain, so some queue does");
        let q = queues
            .iter()
            .position(|q| q.front().is_some_and(|head| head.1 <= m))
            .expect("per-object witnesses always have an emittable head");
        let head = queues[q].pop_front().expect("chosen queue has a head");
        merged.push(head.0);
    }
    merged
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

    #[test]
    fn merge_by_order_respects_precedence() {
        // Queue A's step responds before queue B's step is invoked.
        let queues = vec![
            VecDeque::from([("a", 0, 1)]),
            VecDeque::from([("b", 2, 3)]),
        ];
        assert_eq!(merge_by_order(queues), vec!["a", "b"]);
    }

    /// The reference merge: `m` is the minimum over every step left,
    /// rescanned at each emit.
    fn merge_by_scan<T>(mut queues: Vec<VecDeque<(T, usize, usize)>>) -> Vec<T> {
        let mut merged = Vec::new();
        while let Some(m) = queues.iter().flat_map(|q| q.iter().map(|item| item.2)).min() {
            let q = queues.iter().position(|q| q.front().is_some_and(|head| head.1 <= m));
            merged.push(queues[q.unwrap()].pop_front().unwrap().0);
        }
        merged
    }

    #[test]
    fn merge_by_order_emits_what_the_full_scan_emits() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..500 {
            // Step `j` of a sequence that respects real time: invoked in
            // [10j, 10j + 10), responding later or never, so a step that
            // responds before another is invoked comes first. Dealt out to
            // the queues in order, each queue respects real time too.
            let n = rng.gen_range(0..40usize);
            let parts = rng.gen_range(1..6usize);
            let mut queues = vec![VecDeque::new(); parts];
            for j in 0..n {
                let inv = 10 * j + rng.gen_range(0..10usize);
                let resp =
                    if rng.gen_range(0..8) == 0 { usize::MAX } else { inv + rng.gen_range(1..60usize) };
                queues[rng.gen_range(0..parts)].push_back((j, inv, resp));
            }
            let mut span = vec![(0, 0); n];
            for &(j, inv, resp) in queues.iter().flatten() {
                span[j] = (inv, resp);
            }
            let merged = merge_by_order(queues.clone());
            assert_eq!(merged, merge_by_scan(queues));
            assert_eq!(merged.len(), n);
            for (a, &first) in merged.iter().enumerate() {
                for &later in &merged[a + 1..] {
                    assert!(span[later].1 >= span[first].0, "{later} responds before {first}");
                }
            }
        }
    }
}
