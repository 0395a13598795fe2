//! Online (streaming) CAL checking with bounded memory.
//!
//! The batch checkers ([`crate::check`], [`crate::interval`]) need the
//! complete history up front, so a live
//! deployment must either buffer unboundedly or not check at all while
//! traffic flows. [`StreamChecker`] closes that gap: events are pushed
//! one [`Action`] at a time, the checker keeps only a bounded *window* of
//! not-yet-decided actions, and everything before the window is
//! *retired* — collapsed into the set of specification states reachable
//! by some witness of the retired prefix. Steady-state memory is
//! `O(window + states)`, not `O(history)`.
//!
//! ## The retirement invariant
//!
//! Let `R` be the retired prefix and `W` the current window, so the
//! admitted history is `R · W`, and write `H|o` for a history's actions
//! on object `o`. The checker holds one *part* per object admitted so
//! far — the object, `spec.restrict(o)`, and a set `Q_o` of that
//! specification's states — and maintains:
//!
//! > `Q_o` is exactly the set of states `q` such that some CA-trace
//! > witnessing `R|o` (Def. 5 agreement + acceptance by
//! > `spec.restrict(o)`) leaves that specification in `q`.
//!
//! The states some witness of `R` leaves the *whole* specification in
//! are then the product `Q = ∏ Q_o`, by locality: a CA-element is a set
//! of operations on one object, so a trace explains `R` iff each of its
//! per-object projections explains `R|o`, any choice of per-object
//! witnesses interleaves into a whole one, and [`CaSpec::restrict`]'s
//! contract makes acceptance per object too. The checker holds the
//! factors and never builds the product; [`StreamStats::states`] is its
//! size.
//!
//! Retirement happens only at *closed boundaries*: window cuts where
//! every operation invoked before the cut has responded (or, under
//! forced retirement, was explicitly abandoned) before it. Real-time
//! order then forces every
//! CA-element of any witness to fall entirely on one side of the cut, so
//! witnesses of `(R · seg)|o` factor as (witness of `R|o`) · (witness of
//! `seg|o` from the reached state) — the invariant is preserved *exactly*
//! by replacing, for each object the segment touches, `Q_o` with the end
//! states of one exhaustive search of `seg|o` from every state of `Q_o`
//! ([`crate::engine::search_from`], the batch's DFS run past its goals);
//! the other parts are untouched. Consequences:
//!
//! - some `Q_o = ∅` means no completion of `R` is explainable; since CAL
//!   is prefix-closed (for the prefix-closed specifications this crate
//!   ships), **no extension can recover** — the violation verdict is
//!   final and the stream is refused.
//! - A checkpoint verdict for `R · W` is the same exploration of `W|o`,
//!   for each object with operations in the window, from every state of
//!   `Q_o`, stopped at its first goal: exact parity with a batch check of
//!   the full history.
//! - An exploration's memo is the batch's — a node is recorded once
//!   everything below it was visited, and a revisit is charged as a node
//!   and counted as a memo hit, as in a batch search — and it lives and
//!   dies with the call, so a node refuted against one window is never
//!   carried to a window that new events have extended.
//!
//! ## Zones and the matching
//!
//! Each part is first offered, from every state it holds, to the batch's
//! own choice of a procedure, `check::decide_part`; the search above
//! decides only the parts it hands back. In real time, a register-shaped
//! part ([`Shape::Register`]: a register, or one key of a map) is decided
//! by zones ([`crate::zones`]) where its writes store `Int`s no other of
//! them stores and no held state holds, and, at a retirement, no span is
//! pending: zones run from the value each held state carries, and a
//! retirement keeps each held state stepped by every write some witness
//! ends with ([`crate::zones`], *End values*). A pair part is decided by
//! the matching ([`crate::matching`]) and retires to one end state. The
//! search does not report the values its end states hold, so a register
//! part it retired is searched until its next lone operation names the
//! value again. [`CheckStats::zones`] and [`CheckStats::matching`] in
//! [`StreamStats::search`] count the parts the two decided.
//!
//! There is one evaluator — one exploration of each part a window prefix
//! touches, asked for every end state at a boundary and for one witness
//! at a checkpoint — and the stream that cannot be split is its one-part
//! case: when the first object admitted is one the specification does not
//! restrict to (the default [`CaSpec::restrict`]), and in causal mode,
//! whose order crosses objects, a single part decides every object with
//! the specification as it is, and its exploration is the joint one of
//! the whole window. An object the specification answers `None` for *after*
//! restricting to another is, by the contract, one it admits no element
//! on: it gets the specification as it is for a part, and is explainable
//! iff none of its operations completes.
//!
//! ## Graceful degradation
//!
//! Everything that can go wrong is a *result*, never a panic or an
//! abort:
//!
//! - **Ill-formed events** are rejected by Def. 2's one rule, the batch's
//!   own: with the [`HistoryError`] `History::try_spans` of the admitted
//!   events plus this one gives, leaving the window as it was
//!   ([`Push::Rejected`]).
//! - **Window saturation**: when the invocation cap is reached and
//!   retirement cannot free space, [`StreamChecker::push`] returns
//!   [`Push::Saturated`] so the caller can apply backpressure (pause
//!   reads, NAK clients). If the caller gives up it calls
//!   [`StreamChecker::degrade`], latching the explicit
//!   `undecided: window exceeded` verdict instead of growing without
//!   bound. Admitted events are never dropped, so a violation found in
//!   the frozen window is still sound.
//! - **Abandoned clients** ([`StreamChecker::abandon_thread`]): a
//!   pending operation whose client died rides in the window with the
//!   exact batch pending-op semantics — the search may complete it with
//!   the specification's proposed return values (Def. 2's completions;
//!   for the dual stack with timeouts this is exactly the
//!   `CANCEL_SENTINEL` timeout-admission path) or drop it — for as long
//!   as memory allows, so a late-arriving rendezvous partner can still
//!   explain it. Only under real window pressure is it *sealed*: a
//!   forced retirement boundary commits it against events up to that
//!   boundary only. Sealing can under-approximate acceptance (a later
//!   partner could have explained the op), so under pressure a
//!   rendezvous spec may see a false violation — never a false
//!   acceptance.
//!
//! ## Ingest
//!
//! [`StreamChecker`] takes typed events; a deployment has wire lines.
//! [`Ingest`] is the one place a line becomes events: control lines, one
//! decode, per-item admission, and the saturation policy just described
//! (NAK where a resend is sound, else checkpoint, retry, degrade), each
//! line answered with one [`Reply`]. `cal-serve` and the chaos replays
//! are loops over [`Ingest::line`]. In front of it, for a deployment
//! that has bytes rather than lines, [`LineSplitter`] is the one place
//! bytes become lines: cut at `\n` in the block a `read` returned,
//! lines numbered whatever they hold, and a line that is not UTF-8 or
//! has no end within [`MAX_LINE_BYTES`] handed over as a [`LineFault`]
//! for [`Ingest::fault`] to quarantine — never mistaken for end of
//! input, never buffered without bound.
//!
//! ## Causal mode
//!
//! With [`StreamOptions::causal`] set, every window exploration runs over the
//! causal happens-before order — per-thread session order plus edges
//! declared via [`StreamChecker::push_hb_edge`] — instead of real time
//! (see [`crate::causal`]). Three streaming-specific rules keep the
//! retirement invariant sound under a partial order:
//!
//! - **Cuts must be hb-closed, not just time-closed**: a segment retires
//!   only when every operation in it happens-before every operation
//!   still in the window *and* every future operation of every
//!   still-live thread (a future operation session-follows its thread's
//!   last seen one, so the thread's last window operation stands proxy
//!   for it). Time-closure alone would commit orders a partial order
//!   does not impose. The rule makes the honest trade explicit:
//!   unsynchronized multi-thread streams never advance the frontier —
//!   causal checking of such streams is inherently unbounded, and the
//!   window fills until backpressure — while streams whose declared
//!   edges chain the threads together retire fluidly. A thread never
//!   seen before the cut cannot be anticipated: its later operations
//!   may cost a false violation, never a false acceptance (the factored
//!   witness set only ever shrinks, matching the sealing caveat above).
//!   [`StreamChecker::finish`] closes the stream — no operation follows,
//!   so the future-operation half of the rule lapses, the residual
//!   window retires against its own contents and declared edges alone,
//!   and further events are refused.
//! - **Late edges are quarantined**: an edge whose *target* is already
//!   retired arrives after its segment was enumerated without it, so
//!   neither verdict can be trusted going forward — the stream latches
//!   `undecided: late happens-before edge` and refuses further events.
//!   Declare edges no later than their target operation's response.
//! - **A checkpoint's refutation stays open**: under a partial order a
//!   seen thread's next operation need not follow the window, so its
//!   arrival — or that of an awaited edge's source — can order the window
//!   so that a witness explains it. While the stream is open a causal
//!   checkpoint that finds none answers `undecided: a future operation
//!   may still explain the window` instead of latching the violation
//!   ([`UndecidedWhy::FutureOperation`]); [`StreamChecker::finish`]
//!   latches it, and ignores an edge whose source never arrived.
//!   Refutations at retirement stay final: their cuts are hb-closed.

use std::collections::HashSet;
use std::fmt;
use std::io::BufRead;
use std::time::Duration;

use crate::action::Action;
use crate::check::{decide_part, step_guarded, CalDomain, Held, PartOutcome, Want};
use crate::engine::{self, CheckOptions, CheckStats, InterruptReason, Verdict};
use crate::format::{Format, StreamDecoder, WireItem};
use crate::history::{admit, by_object, spans_of, HbRelation, HistoryError, Matched, Span, Threads};
use crate::ids::{ObjectId, ThreadId};
use crate::obs::JsonLine;
use crate::op::Operation;
use crate::spec::{CaSpec, RegisterShape, Shape};
use crate::trace::CaElement;

/// Tuning knobs for a [`StreamChecker`].
#[derive(Debug, Clone)]
pub struct StreamOptions {
    /// Hard cap on *open or undecided invocations* buffered in the
    /// window, in actions (each op contributes its invocation and, once
    /// it arrives, its response, so the window holds at most
    /// `2 * max_window` actions). `0` means unbounded. When the cap is
    /// hit and retirement cannot free space, `push` returns
    /// [`Push::Saturated`]. Responses are always admitted — they only
    /// ever help the window drain.
    pub max_window: usize,
    /// Run a [`StreamChecker::checkpoint`] automatically every this many
    /// admitted actions. `0` disables automatic checkpoints (the caller
    /// drives them, e.g. on a timer).
    pub checkpoint_every: usize,
    /// Upper bound on each per-object set of reachable states carried
    /// across a retirement boundary — what is held, and what every later
    /// search of that object's operations is multiplied by; the sets'
    /// product, which [`StreamStats::states`] reports, is never built. A
    /// segment that would leave some object with more is kept in the
    /// window instead (bounded memory beats eager GC).
    pub max_states: usize,
    /// Budget/deadline/sink for each exploration of a window part, at a
    /// checkpoint or a retirement.
    pub check: CheckOptions,
    /// Check against the causal happens-before order (session order plus
    /// [`StreamChecker::push_hb_edge`] edges) instead of real time. See
    /// the module docs' causal-mode rules. Off by default; when off,
    /// declared edges are accepted but inert, matching the batch parsers'
    /// treatment of annotated inputs in CAL mode.
    pub causal: bool,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            max_window: 4096,
            checkpoint_every: 128,
            max_states: 64,
            check: CheckOptions::default(),
            causal: false,
        }
    }
}

/// What happened to one pushed event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Push {
    /// The event entered the window.
    Admitted,
    /// The event does not extend a well-formed history; it was
    /// quarantined and the window is unchanged.
    Rejected(HistoryError),
    /// The invocation cap is reached and retirement could not free
    /// space. The event was *not* admitted: apply backpressure and retry
    /// it, or give up via [`StreamChecker::degrade`].
    Saturated,
    /// The stream is closed: the verdict is final (violation) or the
    /// checker has degraded. The event was not admitted.
    Refused,
}

/// Why a stream is (currently) undecided.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UndecidedWhy {
    /// The window cap was hit, backpressure failed, and the caller chose
    /// explicit degradation over unbounded growth.
    WindowExceeded,
    /// An exploration of a window part ran out of node budget.
    ResourcesExhausted,
    /// An exploration of a window part was interrupted
    /// (deadline/cancellation).
    Interrupted(InterruptReason),
    /// The specification panicked during an exploration; see
    /// [`StreamChecker::last_error`].
    CheckerError,
    /// Causal mode: a declared happens-before edge arrived after its
    /// target operation was retired. The retired prefix was enumerated
    /// without the edge, so no further verdict can be trusted; this
    /// latches (see the module docs).
    LateHbEdge,
    /// Causal mode: no witness explains the window, but the stream is
    /// open, and under a partial order an operation still to come need
    /// not follow the window — its arrival may supply one. Resolves at a
    /// later checkpoint; [`StreamChecker::finish`] decides it.
    FutureOperation,
}

impl fmt::Display for UndecidedWhy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UndecidedWhy::WindowExceeded => f.write_str("window exceeded"),
            UndecidedWhy::ResourcesExhausted => f.write_str("node budget exhausted"),
            UndecidedWhy::Interrupted(r) => write!(f, "interrupted ({r})"),
            UndecidedWhy::CheckerError => f.write_str("checker error"),
            UndecidedWhy::LateHbEdge => f.write_str("late happens-before edge"),
            UndecidedWhy::FutureOperation => {
                f.write_str("a future operation may still explain the window")
            }
        }
    }
}

/// The stream's verdict as of the last checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamVerdict {
    /// Every admitted event is explainable: some witness covers the
    /// retired prefix and the current window.
    Consistent,
    /// No witness explains some admitted prefix. Final: CAL is
    /// prefix-closed, so no future event can repair it.
    Violation,
    /// Not (currently) decidable, for the stated reason. Unlike
    /// [`StreamVerdict::Violation`] this can resolve at a later
    /// checkpoint — except `WindowExceeded`, which latches.
    Undecided(UndecidedWhy),
}

impl fmt::Display for StreamVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamVerdict::Consistent => f.write_str("consistent"),
            StreamVerdict::Violation => f.write_str("violation"),
            StreamVerdict::Undecided(why) => write!(f, "undecided: {why}"),
        }
    }
}

/// Monotone counters describing a stream's life so far. The
/// `retired_*` counters are how tests verify the memory bound without
/// measuring RSS: `retired_actions + window == events`, always.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Events admitted into the window.
    pub events: u64,
    /// Ill-formed events quarantined ([`Push::Rejected`]).
    pub rejected: u64,
    /// Events turned away because the window was saturated
    /// ([`Push::Saturated`]).
    pub saturated: u64,
    /// Events turned away after the stream closed ([`Push::Refused`]).
    pub refused: u64,
    /// Current window size, in actions.
    pub window: usize,
    /// High-water mark of `window`.
    pub peak_window: usize,
    /// Current reachable-state set size: the product of the per-object
    /// sets' sizes (saturating), of which only the factors are held.
    pub states: usize,
    /// High-water mark of `states`.
    pub peak_states: usize,
    /// Operations garbage-collected out of the window.
    pub retired_ops: u64,
    /// Actions garbage-collected out of the window.
    pub retired_actions: u64,
    /// Closed segments retired.
    pub retired_segments: u64,
    /// Checkpoints run (automatic + explicit + final).
    pub checkpoints: u64,
    /// Pending operations sealed because their client abandoned them.
    pub abandoned: u64,
    /// Happens-before edges declared via
    /// [`StreamChecker::push_hb_edge`] (counted whether or not causal
    /// mode is on).
    pub hb_edges: u64,
    /// Declared edges quarantined because their target was already
    /// retired ([`UndecidedWhy::LateHbEdge`]).
    pub late_edges: u64,
    /// Accumulated search-kernel work across every exploration, at
    /// checkpoints and retirements.
    pub search: CheckStats,
}

/// A point-in-time snapshot of a stream, in the same spirit (and JSON
/// wire style) as [`crate::obs::SearchReport`].
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// The verdict, rendered ([`StreamVerdict`]'s `Display`).
    pub verdict: String,
    /// Wall-clock milliseconds the stream has been running.
    pub wall_ms: f64,
    /// The configured invocation cap (0 = unbounded).
    pub max_window: usize,
    /// The counters at snapshot time.
    pub stats: StreamStats,
}

impl StreamReport {
    /// Renders the report as a single-line JSON object, the
    /// `--stats-json` wire format of `cal-serve`.
    pub fn to_json(&self) -> String {
        let s = &self.stats;
        JsonLine::new()
            .str("verdict", &self.verdict)
            .ms("wall_ms", self.wall_ms)
            .num("max_window", self.max_window)
            .num("events", s.events)
            .num("rejected", s.rejected)
            .num("saturated", s.saturated)
            .num("refused", s.refused)
            .num("window", s.window)
            .num("peak_window", s.peak_window)
            .num("states", s.states)
            .num("peak_states", s.peak_states)
            .num("retired_ops", s.retired_ops)
            .num("retired_actions", s.retired_actions)
            .num("retired_segments", s.retired_segments)
            .num("checkpoints", s.checkpoints)
            .num("abandoned", s.abandoned)
            .num("hb_edges", s.hb_edges)
            .num("late_edges", s.late_edges)
            .num("nodes", s.search.nodes)
            .num("zones", s.search.zones)
            .num("matching", s.search.matching)
            .num("elements_tried", s.search.elements_tried)
            .num("memo_hits", s.search.memo_hits)
            .finish()
    }

    /// One compact human line: verdict plus headline counters.
    pub fn summary(&self) -> String {
        let s = &self.stats;
        format!(
            "{} in {:.1}ms: {} events, window {} (peak {}), {} states (peak {}), \
             {} ops retired in {} segments, {} checkpoints, {} nodes, {} zones, {} matching",
            self.verdict,
            self.wall_ms,
            s.events,
            s.window,
            s.peak_window,
            s.states,
            s.peak_states,
            s.retired_ops,
            s.retired_segments,
            s.checkpoints,
            s.search.nodes,
            s.search.zones,
            s.search.matching,
        )
    }
}

/// The incremental checker: push events, read verdicts, stay within a
/// memory bound. See the module docs for the invariant.
pub struct StreamChecker<S: CaSpec> {
    spec: S,
    opts: StreamOptions,
    /// Undecided suffix of the admitted history.
    window: Vec<Action>,
    /// The states reachable by some witness of the retired prefix, as a
    /// product: one part per object admitted so far, or the one part that
    /// decides every object (see [`Part`]).
    parts: Vec<Part<S>>,
    /// A [`Client`] record for every thread that has invoked.
    threads: Threads<Client>,
    /// Causal mode: declared happens-before edges by *global operation
    /// ordinal* (invocation admission order; the window's first
    /// operation has ordinal `stats.retired_ops`). Edges whose source
    /// is still in the future are held here until it arrives; fully
    /// retired edges are pruned at each boundary.
    edges: Vec<(u64, u64)>,
    violated: bool,
    degraded: bool,
    /// Causal mode: a late edge was quarantined; latches like
    /// degradation ([`UndecidedWhy::LateHbEdge`]).
    stale: bool,
    /// [`StreamChecker::finish`] ran: no further operation can arrive,
    /// so causal-mode cuts stop anticipating future operations.
    closed: bool,
    /// Global ordinal of the next admitted invocation.
    op_seq: u64,
    /// Verdict of the last window evaluation (Consistent or a
    /// search-shaped Undecided); `violated`/`degraded` override it.
    last_eval: StreamVerdict,
    last_error: Option<String>,
    since_checkpoint: usize,
    stats: StreamStats,
}

/// A thread of the stream, as its record in the stream's [`Threads`].
#[derive(Debug, Clone, Copy, Default)]
struct Client {
    /// Its open invocation, as an admitted-event ordinal: the window holds
    /// event `e` at `e - retired_actions`. One below that was abandoned,
    /// sealed and retired with its segment, and is open no more.
    open: Option<u64>,
    /// Its client is gone: under window pressure `open` may be sealed.
    abandoned: bool,
    /// Its latest operation's global ordinal: in causal mode the proxy for
    /// its future operations in the hb-closure cut rule (module docs).
    last: u64,
}

/// One factor of the reachable-state set `Q = ∏ Q_o` (module docs, "The
/// retirement invariant"): an object, the specification restricted to it,
/// and the states of that specification some witness of the object's
/// retired operations ends in.
struct Part<S: CaSpec> {
    /// The object whose operations this part decides; `None` decides
    /// every object's — the one part of a stream that is not split.
    object: Option<ObjectId>,
    /// `spec.restrict(object)`. `None` is the stream's own specification:
    /// in the unsplit part, and for an object the specification does not
    /// restrict to after restricting to another — by
    /// [`CaSpec::restrict`]'s contract it admits no element there, so the
    /// object's operations are explainable iff none of them is complete.
    spec: Option<S>,
    /// `spec`'s register shape, when it has one: it names the value a lone
    /// operation leaves the part holding.
    register: Option<RegisterShape>,
    /// `Q_o`, in discovery order; never empty.
    reach: Vec<Held<S>>,
}

/// What a closed segment did to the parts it touches
/// ([`StreamChecker::retire_segment`]).
enum Segment {
    /// Each holds the segment's end states.
    Retired,
    /// One has none: no witness explains the segment.
    Refuted,
    /// Undecided — budget, deadline, a panicking specification, a part
    /// over `max_states` — and the parts are as they were.
    Stays,
}

/// What [`StreamChecker::explore`] found in a window prefix.
enum Explored<Q> {
    /// Every part it touches has a witness: each part's index and the
    /// distinct states its witnesses end in (at a checkpoint, the first one
    /// only, or none for a part zones or the matching decided).
    Reached(Vec<(usize, Vec<Q>)>),
    /// Some part has none, from any state it holds.
    Refuted,
    /// No part refutes, and some part could not be decided.
    Undecided(UndecidedWhy),
}

impl<S: CaSpec> fmt::Debug for StreamChecker<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StreamChecker")
            .field("window", &self.window.len())
            .field("states", &self.stats.states)
            .field("verdict", &self.verdict())
            .finish_non_exhaustive()
    }
}

impl<S: CaSpec> StreamChecker<S> {
    /// Creates a checker with an empty window and the spec's initial
    /// state as the only reachable state (of every object, once it is
    /// admitted: the empty product).
    pub fn new(spec: S, opts: StreamOptions) -> Self {
        let stats = StreamStats { states: 1, peak_states: 1, ..StreamStats::default() };
        StreamChecker {
            spec,
            opts,
            window: Vec::new(),
            parts: Vec::new(),
            threads: Threads::default(),
            edges: Vec::new(),
            violated: false,
            degraded: false,
            stale: false,
            closed: false,
            op_seq: 0,
            last_eval: StreamVerdict::Consistent,
            last_error: None,
            since_checkpoint: 0,
            stats,
        }
    }

    /// Offers one event to the stream. See [`Push`] for the outcomes;
    /// only [`Push::Admitted`] consumes the event.
    pub fn push(&mut self, action: Action) -> Push {
        // A finished causal stream refused further events: `finish`
        // retired its window on the premise that no operation follows.
        if self.violated || self.degraded || self.stale || (self.opts.causal && self.closed) {
            self.stats.refused += 1;
            return Push::Refused;
        }
        // Def. 2 against the thread's record, before anything is committed:
        // an ill-formed event never reaches the window, and its error's
        // index counts admitted events, as the admitted history would.
        let index = self.stats.events as usize;
        let slot = self.threads.find(action.thread());
        let open = slot.and_then(|slot| self.open_at(&self.threads.records[slot]));
        let matched = match admit(&action, index, open.map(|at| (at, &self.window[at]))) {
            Ok(matched) => matched,
            Err(e) => {
                self.stats.rejected += 1;
                return Push::Rejected(e);
            }
        };
        // The cap counts open-or-undecided *invocations*; responses are
        // always admitted, since they only ever enable retirement.
        if action.is_invoke() && self.window_full() {
            self.retire(false);
            if !self.violated && self.window_full() {
                // Real memory pressure: now (and only now) seal
                // abandoned operations at a forced boundary to
                // reclaim space.
                self.retire(true);
            }
            if self.violated {
                self.stats.refused += 1;
                return Push::Refused;
            }
            if self.window_full() {
                self.stats.saturated += 1;
                return Push::Saturated;
            }
        }
        self.window.push(action);
        let slot = slot.unwrap_or_else(|| self.threads.slot(action.thread()));
        let client = &mut self.threads.records[slot];
        // A response for an op previously abandoned: the client came back
        // after all — un-seal it.
        client.abandoned = false;
        match matched {
            Matched::Closes(_) => client.open = None,
            Matched::Opens => {
                (client.open, client.last) = (Some(index as u64), self.op_seq);
                self.op_seq += 1;
                self.admit_object(action.object());
            }
        }
        self.stats.events += 1;
        self.stats.window = self.window.len();
        self.stats.peak_window = self.stats.peak_window.max(self.window.len());
        self.since_checkpoint += 1;
        if self.opts.checkpoint_every > 0 && self.since_checkpoint >= self.opts.checkpoint_every {
            self.checkpoint();
        }
        Push::Admitted
    }

    /// Where the window holds `client`'s open invocation, if it has one.
    fn open_at(&self, client: &Client) -> Option<usize> {
        let base = self.stats.retired_actions;
        client.open.filter(|&e| e >= base).map(|e| (e - base) as usize)
    }

    /// Gives `object` its part the first time one of its operations is
    /// admitted: the specification restricted to it, in its initial
    /// state. A stream whose first object the specification does not
    /// restrict to is not split at all — one part decides every object
    /// with the specification as it is — and neither is a causal stream,
    /// whose session edges cross objects.
    fn admit_object(&mut self, object: ObjectId) {
        let Err(at) = self.find_part(object) else { return };
        let spec = if self.opts.causal { None } else { self.spec.restrict(object) };
        let unsplit = spec.is_none() && self.parts.is_empty();
        let initial = spec.as_ref().unwrap_or(&self.spec).initial();
        let register = match spec.as_ref().map(CaSpec::shape) {
            Some(Shape::Register(shape)) => Some(shape),
            _ => None,
        };
        let held = (initial, register.map(|_| RegisterShape::INITIAL));
        let object = (!unsplit).then_some(object);
        self.parts.insert(at, Part { object, spec, register, reach: vec![held] });
    }

    /// Where the part deciding `object`'s operations is, or would go:
    /// the parts are kept in object order, so that finding one — twice an
    /// operation on the solo path — is a few comparisons however many
    /// keys a stream spreads over, and never a scan.
    fn find_part(&self, object: ObjectId) -> Result<usize, usize> {
        match self.parts.first() {
            Some(unsplit) if unsplit.object.is_none() => Ok(0),
            _ => self.parts.binary_search_by_key(&Some(object), |p| p.object),
        }
    }

    /// The part deciding `object`'s operations, for an object of the
    /// window (admission gave it one).
    fn part_of(&self, object: ObjectId) -> usize {
        self.find_part(object).expect("every admitted object has a part")
    }

    /// The spans of `window[..upto]`, read once and given to the parts
    /// that decide them, parts in order of first appearance: grouped by
    /// object in one hashed pass ([`by_object`]), or all given to the one
    /// part of a stream that is not split. Each span keeps its window
    /// indices. (Admission keeps the window, and so its every prefix,
    /// well-formed.)
    fn spans_by_part(&self, upto: usize) -> Vec<(usize, Vec<Span>)> {
        let spans = spans_of(&self.window[..upto]).expect("admission keeps the window well-formed");
        if self.parts.first().is_some_and(|p| p.object.is_none()) {
            return (!spans.is_empty()).then_some((0, spans)).into_iter().collect();
        }
        let gather = |members: Vec<usize>| members.into_iter().map(|i| spans[i]).collect();
        by_object(&spans).into_iter().map(|(o, members)| (self.part_of(o), gather(members))).collect()
    }

    /// Whether the window holds its cap of `max_window` invocations (`0`
    /// is no cap): every admitted invocation took an ordinal, and
    /// retirement counts the ones it took.
    fn window_full(&self) -> bool {
        let open = (self.op_seq - self.stats.retired_ops) as usize;
        debug_assert_eq!(open, self.window.iter().filter(|a| a.is_invoke()).count());
        self.opts.max_window > 0 && open >= self.opts.max_window
    }

    /// Declares a happens-before edge between two operations, as 0-based
    /// *global operation ordinals* — the positions of their invocations
    /// in admission order (exactly [`crate::format::WireItem::HbEdge`]'s
    /// numbering). Either endpoint may still be in the future; the edge
    /// is held until it arrives. Outside causal mode the edge is counted
    /// but inert.
    ///
    /// Returns [`Push::Refused`] when the stream is closed, or when the
    /// edge's target is already retired (the late-edge quarantine — see
    /// the module docs; this latches [`UndecidedWhy::LateHbEdge`]).
    /// Malformed edges (self-edges, cycles with session order) are
    /// admitted here and surface as [`UndecidedWhy::CheckerError`] at the
    /// next evaluation, keeping this call cheap.
    pub fn push_hb_edge(&mut self, from: usize, to: usize) -> Push {
        if self.violated || self.degraded || self.stale || (self.opts.causal && self.closed) {
            self.stats.refused += 1;
            return Push::Refused;
        }
        self.stats.hb_edges += 1;
        if !self.opts.causal {
            return Push::Admitted;
        }
        let (from, to) = (from as u64, to as u64);
        if to < self.stats.retired_ops {
            self.stats.late_edges += 1;
            self.stale = true;
            self.stats.refused += 1;
            return Push::Refused;
        }
        if from >= self.stats.retired_ops {
            self.edges.push((from, to));
        }
        // A retired source with a live target needs no bookkeeping: the
        // factored witness already orders every retired element before
        // the window, which is what the edge demands.
        Push::Admitted
    }

    /// Declares that `thread`'s client is gone. Its pending invocation
    /// (if any) rides in the window with exact batch pending-op
    /// semantics — droppable, or completable with the spec's proposed
    /// return values (the timeout-admission path) — for as long as
    /// memory allows; only under window pressure is it *sealed* at a
    /// forced retirement boundary, committing it against events up to
    /// that boundary only.
    pub fn abandon_thread(&mut self, thread: ThreadId) {
        if self.violated || self.degraded || self.stale {
            return;
        }
        let Some(slot) = self.threads.find(thread) else { return };
        let client = self.threads.records[slot];
        if self.open_at(&client).is_some() && !client.abandoned {
            self.threads.records[slot].abandoned = true;
            self.stats.abandoned += 1;
        }
    }

    /// Gives up on backpressure: latches the explicit
    /// `undecided: window exceeded` verdict. Admitted events are kept
    /// (and a later violation found among them is still sound), but no
    /// further event is admitted.
    pub fn degrade(&mut self) {
        if !self.violated {
            self.degraded = true;
        }
    }

    /// Retires every decided prefix, then re-evaluates the residual
    /// window. Returns the resulting verdict.
    pub fn checkpoint(&mut self) -> StreamVerdict {
        self.since_checkpoint = 0;
        self.stats.checkpoints += 1;
        self.retire(false);
        if !self.violated {
            self.evaluate();
        }
        self.verdict()
    }

    /// Runs a final checkpoint and returns the stream's closing verdict.
    ///
    /// Closing the stream is a statement that no further operation will
    /// arrive: in causal mode this lifts the future-operation half of
    /// the hb-closure cut rule (see the module docs' causal-mode rules),
    /// letting the residual window retire, and subsequent [`push`]es are
    /// refused — they would invalidate that premise.
    ///
    /// [`push`]: StreamChecker::push
    pub fn finish(&mut self) -> StreamVerdict {
        self.closed = true;
        self.checkpoint()
    }

    /// The verdict as of the last checkpoint (events pushed since then
    /// are not yet reflected unless they triggered one).
    pub fn verdict(&self) -> StreamVerdict {
        if self.violated {
            StreamVerdict::Violation
        } else if self.stale {
            StreamVerdict::Undecided(UndecidedWhy::LateHbEdge)
        } else if self.degraded {
            StreamVerdict::Undecided(UndecidedWhy::WindowExceeded)
        } else {
            self.last_eval.clone()
        }
    }

    /// The panic message of the most recent specification panic, if a
    /// checkpoint ever reported [`UndecidedWhy::CheckerError`].
    pub fn last_error(&self) -> Option<&str> {
        self.last_error.as_deref()
    }

    /// The stream's counters.
    pub fn stats(&self) -> &StreamStats {
        &self.stats
    }

    /// The states some witness of the retired prefix leaves each object's
    /// specification in (module docs, "The retirement invariant"), in the
    /// order they were found: one entry per object admitted so far, by
    /// object, or one entry, `None`, for every object of a stream that is
    /// not split.
    pub fn held_states(&self) -> Vec<(Option<ObjectId>, Vec<S::State>)> {
        let states = |p: &Part<S>| p.reach.iter().map(|(q, _)| q.clone()).collect();
        self.parts.iter().map(|p| (p.object, states(p))).collect()
    }

    /// Snapshots a [`StreamReport`] after `wall` of runtime.
    pub fn report(&self, wall: Duration) -> StreamReport {
        StreamReport {
            verdict: self.verdict().to_string(),
            wall_ms: wall.as_secs_f64() * 1e3,
            max_window: self.opts.max_window,
            stats: self.stats.clone(),
        }
    }

    /// The earliest closed boundary: the smallest `c > 0` such that every
    /// operation invoked in `window[..c]` responds in `window[..c]` and —
    /// in causal mode — the cut is hb-closed (see the module docs):
    ///
    /// - no declared edge points from an operation at or past the cut
    ///   back into `window[..c]`, and
    /// - while the stream is open, every segment operation happens-before
    ///   every operation still in the window *and* every future operation
    ///   of every seen thread. A future operation session-follows its
    ///   thread's last seen one, so that operation stands proxy for it; a
    ///   proxy that already retired can never come to happen-after the
    ///   segment, so no cut is possible until the thread speaks again.
    ///   Once [`finish`] closes the stream the future half lapses — no
    ///   operation follows — and cuts are constrained by the window's
    ///   contents and declared edges alone.
    ///
    /// Abandoned invocations block a cut unless `force`: sealing one
    /// commits it against the segment's events only, and its rendezvous
    /// partner may not have invoked yet — so the checker holds on to it
    /// until memory pressure leaves no choice (at [`finish`] an unsealed
    /// abandoned op simply gets the exact batch pending-op treatment).
    ///
    /// [`finish`]: StreamChecker::finish
    fn first_cut(&self, force: bool) -> Option<usize> {
        let base = self.stats.retired_ops;
        // Whether window invocation `i` is sealed here: its client is gone
        // and it is still the client's open invocation.
        let sealed = |i: usize, a: &Action| {
            let client = self.threads.find(a.thread()).map(|slot| self.threads.records[slot]);
            client.is_some_and(|c| c.abandoned && self.open_at(&c) == Some(i))
        };
        // Causal mode: the window's happens-before relation, consulted
        // by the hb-closure rules below. A malformed declaration (cycle)
        // blocks every cut here; `evaluate` surfaces the error.
        let window_hb = if self.opts.causal && !self.window.is_empty() {
            let spans = spans_of(&self.window).expect("admission keeps the window well-formed");
            match self.order(&spans) {
                Ok(hb) => Some((hb, spans.len())),
                Err(_) => return None,
            }
        } else {
            None
        };
        let mut depth = 0usize;
        let mut ops = 0u64;
        for (i, a) in self.window.iter().enumerate() {
            if a.is_invoke() {
                ops += 1;
                if !(force && sealed(i, a)) {
                    depth += 1;
                }
            } else {
                // Every response in the window closes a non-abandoned
                // invocation in the window (admission un-seals on reply).
                depth = depth.saturating_sub(1);
            }
            if depth == 0 {
                // hb-closure: an edge from a later (or not-yet-arrived)
                // operation into the candidate segment forbids retiring
                // it — keep scanning for a wider closed boundary.
                let cut_g = base + ops;
                if self.edges.iter().any(|&(f, t)| t < cut_g && f >= cut_g) {
                    continue;
                }
                if let Some((hb, w_ops)) = &window_hb {
                    let seg = ops as usize;
                    // Every segment op must happen-before every op still
                    // in the window past the cut...
                    if !(0..seg).all(|s| (seg..*w_ops).all(|r| hb.precedes(s, r))) {
                        continue;
                    }
                    // ...and, while the stream is open, before every
                    // future op of every seen thread, via the thread's
                    // last-op proxy. A failed proxy fails for every
                    // boundary, present and wider; one already retired
                    // can never come to happen-after the segment.
                    if !self.closed {
                        for l in self.threads.records.iter().map(|c| c.last) {
                            if l < base {
                                return None;
                            }
                            let li = (l - base) as usize;
                            if !(0..seg).all(|s| s == li || hb.precedes(s, li)) {
                                return None;
                            }
                        }
                    }
                }
                return Some(i + 1);
            }
        }
        None
    }

    /// Retires closed segments off the front of the window until none
    /// remains, a segment resists (budget, deadline, or a part's state set
    /// over `max_states`), or a part's state set empties (violation —
    /// final). `force` additionally seals abandoned operations at the
    /// boundary (see [`StreamChecker::first_cut`]).
    fn retire(&mut self, force: bool) {
        while !self.violated {
            let Some(cut) = self.first_cut(force) else { break };
            match self.retire_segment(cut) {
                Segment::Retired => {}
                Segment::Refuted => {
                    self.violated = true;
                    break;
                }
                Segment::Stays => break,
            }
            let ops = self.window[..cut].iter().filter(|a| a.is_invoke()).count();
            self.stats.retired_segments += 1;
            self.stats.retired_actions += cut as u64;
            self.stats.retired_ops += ops as u64;
            // An open invocation below the cut is a sealed abandoned op,
            // decided with the segment: `open_at` no longer finds it.
            self.window.drain(..cut);
            // Edges wholly behind the new base are satisfied by the
            // enumeration that just consumed them; a retired source with
            // a live target is satisfied by segment order (hb-closure
            // rules out the reverse).
            let base = self.stats.retired_ops;
            self.edges.retain(|&(f, t)| f >= base && t >= base);
        }
        self.stats.window = self.window.len();
    }

    /// Reports `|Q|` after a part changed size: the product of the
    /// parts' sizes, which is never built.
    fn count_states(&mut self) {
        let states = self.parts.iter().fold(1usize, |n, p| n.saturating_mul(p.reach.len()));
        self.stats.states = states;
        self.stats.peak_states = self.stats.peak_states.max(states);
    }

    /// The order a part's spans of a window prefix are explored over: real
    /// time or, in causal mode (whose one part holds every span of the
    /// prefix), session order plus the declared edges falling inside the
    /// prefix, global ordinals rebased to span indices. An edge with an
    /// endpoint not yet arrived constrains nothing inside it and is left
    /// out.
    ///
    /// # Errors
    ///
    /// [`crate::history::HbError`] for a malformed declaration (a
    /// self-edge, a cycle with session order); callers surface it as
    /// [`UndecidedWhy::CheckerError`]. Outside causal mode this cannot
    /// fail.
    fn order(&self, spans: &[Span]) -> Result<HbRelation, crate::history::HbError> {
        if !self.opts.causal {
            return Ok(HbRelation::real_time(spans));
        }
        let (base, ops) = (self.stats.retired_ops, spans.len() as u64);
        let inside = self.edges.iter().filter(|&&(f, t)| f < base + ops && t < base + ops);
        let rebased = inside.map(|&(f, t)| ((f - base) as usize, (t - base) as usize));
        let edges: Vec<(usize, usize)> = rebased.collect();
        HbRelation::causal(spans, &edges)
    }

    /// Advances every part the closed segment `window[..cut]` touches to
    /// the exact set of states the segment's operations on its object can
    /// leave it in, from the states it holds now — every touched part or,
    /// when one of them cannot be decided, none.
    fn retire_segment(&mut self, cut: usize) -> Segment {
        // Fast path: a single complete op admits exactly one witness
        // element (complete ops cannot be dropped and have no one to
        // share an element with), so step the one part it touches
        // directly instead of building a search domain. This is what
        // makes a mostly-sequential replay stream at millions of ops
        // without search overhead. In causal mode the path is taken only
        // when no declared edge touches the op (ordinal `retired_ops`),
        // so a malformed declaration still reaches the relation builder.
        let solo_op_untouched = || {
            let o = self.stats.retired_ops;
            self.edges.iter().all(|&(f, t)| f != o && t != o)
        };
        if cut == 2
            && self.window[0].is_invoke()
            && !self.window[1].is_invoke()
            && (!self.opts.causal || solo_op_untouched())
        {
            let (inv, res) = (self.window[0], self.window[1]);
            let op = Operation::new(
                inv.thread(),
                inv.object(),
                inv.method(),
                inv.arg().expect("invocations carry an argument"),
                res.ret().expect("responses carry a return value"),
            );
            // In place, so that the stream's commonest step allocates
            // nothing of its own: the successors go behind the states
            // they come from, which are dropped once every one of them
            // has been stepped — or the successors are, and the part is
            // as it was.
            let k = self.part_of(inv.object());
            let Part { spec, register, reach, .. } = &mut self.parts[k];
            let value = register.and_then(|shape| shape.holds_after(&op));
            let element = CaElement::singleton(op);
            let spec = spec.as_ref().unwrap_or(&self.spec);
            let held = reach.len();
            for i in 0..held {
                self.stats.search.elements_tried += 1;
                match step_guarded(spec, &reach[i].0, &element) {
                    Ok(Some(q2)) => {
                        if !reach[held..].iter().any(|(q, _)| *q == q2) {
                            reach.push((q2, value));
                        }
                    }
                    Ok(None) => {}
                    Err(message) => {
                        reach.truncate(held);
                        self.last_error = Some(message);
                        return Segment::Stays;
                    }
                }
            }
            let reached = reach.len() - held;
            if reached == 0 || reached > self.opts.max_states {
                reach.truncate(held);
                return if reached == 0 { Segment::Refuted } else { Segment::Stays };
            }
            reach.drain(..held);
            if reach.len() != held {
                self.count_states();
            }
            return Segment::Retired;
        }
        match self.explore(cut, Want::Ends) {
            Explored::Reached(reached) => {
                if reached.iter().any(|(_, ends)| ends.len() > self.opts.max_states) {
                    return Segment::Stays;
                }
                for (k, ends) in reached {
                    self.parts[k].reach = ends;
                }
                self.count_states();
                Segment::Retired
            }
            Explored::Refuted => Segment::Refuted,
            Explored::Undecided(_) => Segment::Stays,
        }
    }

    /// Re-checks the residual window, setting `last_eval`, or latching the
    /// violation when some part's every state refutes its share of the
    /// window — unless the stream is causal and still open: under a
    /// partial order a seen thread's next operation need not follow the
    /// window, so it may yet explain it, and only [`StreamChecker::finish`]
    /// makes a causal refutation final.
    fn evaluate(&mut self) {
        self.last_eval = match self.explore(self.window.len(), Want::Verdict) {
            Explored::Reached(_) => StreamVerdict::Consistent,
            Explored::Undecided(why) => StreamVerdict::Undecided(why),
            Explored::Refuted if self.opts.causal && !self.closed => {
                StreamVerdict::Undecided(UndecidedWhy::FutureOperation)
            }
            Explored::Refuted => {
                self.violated = true;
                return;
            }
        };
    }

    /// The one exploration of `window[..upto]`, for a checkpoint and a
    /// retirement alike: for each part, its spans read once and offered to
    /// [`decide_part`] from every state it holds, which decides it by
    /// zones or by the matching where it can (module docs, "Zones and the
    /// matching"); a part it hands back gets its order and [`CalDomain`]
    /// built once and one [`engine::search_from`] from every state it
    /// holds. `want` is [`Want::Verdict`] at a checkpoint, which asks each
    /// part only for a witness, and [`Want::Ends`] at a retirement, which
    /// collects every distinct end state in discovery order. A part that
    /// has no witness refutes the prefix whatever the other parts say;
    /// otherwise the first undecided part names the reason.
    fn explore(&mut self, upto: usize, want: Want) -> Explored<Held<S>> {
        let mut reached = Vec::new();
        let mut undecided = None;
        for (k, spans) in self.spans_by_part(upto) {
            let part = &self.parts[k];
            let spec = part.spec.as_ref().unwrap_or(&self.spec);
            match decide_part(&spans, !self.opts.causal, spec, &part.reach, want, &mut self.stats.search) {
                PartOutcome::Cal(_, ends) => {
                    reached.push((k, ends));
                    continue;
                }
                PartOutcome::NotCal(_) => return Explored::Refuted,
                PartOutcome::Search => {}
            }
            let hb = match self.order(&spans) {
                Ok(hb) => hb,
                Err(e) => {
                    self.last_error = Some(e.to_string());
                    undecided.get_or_insert(UndecidedWhy::CheckerError);
                    continue;
                }
            };
            let domain = CalDomain::new(&spans, &hb, spec);
            let roots: Vec<_> = part.reach.iter().map(|(q, _)| domain.root(q.clone())).collect();
            let mut ends: Vec<Held<S>> = Vec::new();
            let mut seen: HashSet<S::State> = HashSet::new();
            let run = engine::search_from(&domain, &roots, &self.opts.check, |(_, q)| {
                if !seen.contains(q) {
                    seen.insert(q.clone());
                    ends.push((q.clone(), None));
                }
                want != Want::Ends
            });
            let why = match run {
                Ok(run) => {
                    self.stats.search += run.stats;
                    match run.verdict {
                        Verdict::Cal(_) | Verdict::NotCal if ends.is_empty() => return Explored::Refuted,
                        Verdict::Cal(_) | Verdict::NotCal => {
                            reached.push((k, ends));
                            continue;
                        }
                        Verdict::ResourcesExhausted => UndecidedWhy::ResourcesExhausted,
                        Verdict::Interrupted { reason } => UndecidedWhy::Interrupted(reason),
                    }
                }
                Err(e) => {
                    self.last_error = Some(e.to_string());
                    UndecidedWhy::CheckerError
                }
            };
            undecided.get_or_insert(why);
        }
        undecided.map_or(Explored::Reached(reached), Explored::Undecided)
    }
}

/// What one wire line did to the stream ([`Ingest::line`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Blank, comment, or a handled `abandon` control line.
    Ignored,
    /// Every item the line decoded to took effect.
    Admitted,
    /// A parse error, an ill-formed event or a bad control line, with a
    /// message anchored to the line number; counted in
    /// [`Ingest::quarantined`] for the caller's error budget.
    Quarantined(String),
    /// Window saturated before the line had any effect: nothing was
    /// admitted and the same line may be sent again.
    Saturated,
    /// The stream is closed (final verdict or degradation).
    Refused,
    /// The client said `bye`.
    Bye,
}

/// The line-level ingest policy, in its only copy: how a raw wire line
/// reaches a [`StreamChecker`]. `cal-serve` (stdin and `--listen`) and
/// the chaos replays all feed lines through [`Ingest::line`]; the
/// caller decides what to tell the client about each [`Reply`].
#[derive(Debug)]
pub struct Ingest<S: CaSpec> {
    /// The checker the lines are admitted into — verdicts, counters and
    /// reports are read here, and out-of-band client deaths declared
    /// ([`StreamChecker::abandon_thread`]).
    pub checker: StreamChecker<S>,
    decoder: StreamDecoder,
    /// What the current line decoded to: one buffer, lent to the decoder
    /// line after line.
    items: Vec<WireItem>,
    /// Lines fed so far; the current one's number anchors its diagnostics.
    lines: u64,
    quarantined: u64,
}

impl<S: CaSpec> Ingest<S> {
    /// An empty stream of `format` lines (`None` sniffs the first
    /// contentful line and latches) checked against `spec`.
    pub fn new(spec: S, opts: StreamOptions, format: Option<Format>) -> Self {
        let checker = StreamChecker::new(spec, opts);
        Ingest {
            checker,
            decoder: StreamDecoder::new(format),
            items: Vec::new(),
            lines: 0,
            quarantined: 0,
        }
    }

    /// Lines answered [`Reply::Quarantined`] so far.
    pub fn quarantined(&self) -> u64 {
        self.quarantined
    }

    /// Feeds one raw line: the control lines `bye` and `abandon t<N>`
    /// first, then exactly one decode (the decoder's state advances once
    /// per line, whatever the format), then admission of each decoded
    /// item. Threads seen invoking are appended to `invoked` even when
    /// admission then fails, so a session can abandon them when its
    /// client goes away.
    ///
    /// `nak` says the caller can hand a saturated line back to its
    /// client. That is only sound when the resent line decodes the same
    /// way twice and has touched nothing yet — the stateless native
    /// format, before the line's first effect — and only then is the
    /// answer [`Reply::Saturated`]. Everywhere else saturation resolves
    /// here: force a checkpoint, retry the push once, then
    /// [`StreamChecker::degrade`] and refuse.
    pub fn line(&mut self, raw: &str, nak: bool, invoked: &mut Vec<ThreadId>) -> Reply {
        self.lines += 1;
        let reply = self.apply(raw, nak, invoked);
        if matches!(reply, Reply::Quarantined(_)) {
            self.quarantined += 1;
        }
        reply
    }

    /// Counts a line the wire could not deliver as text
    /// ([`LineSplitter`]): it takes its number like any other and is
    /// quarantined as `line N: <fault>`.
    pub fn fault(&mut self, fault: LineFault) -> Reply {
        self.lines += 1;
        self.quarantined += 1;
        Reply::Quarantined(format!("line {}: {fault}", self.lines))
    }

    fn apply(&mut self, raw: &str, nak: bool, invoked: &mut Vec<ThreadId>) -> Reply {
        let line_no = self.lines;
        let text = raw.trim();
        if text == "bye" {
            return Reply::Bye;
        }
        if let Some(rest) = text.strip_prefix("abandon ") {
            return match rest.trim().strip_prefix('t').and_then(|n| n.parse().ok()) {
                Some(n) => {
                    self.checker.abandon_thread(ThreadId(n));
                    Reply::Ignored
                }
                None => Reply::Quarantined(format!("line {line_no}: bad abandon target {rest:?}")),
            };
        }
        let mut items = std::mem::take(&mut self.items);
        items.clear();
        let reply = match self.decoder.decode_into(line_no as usize, raw, &mut items) {
            Ok(()) => self.admit(&items, nak, invoked),
            Err(e) => Reply::Quarantined(e.to_string()),
        };
        self.items = items;
        reply
    }

    /// Admission of what line `self.lines` decoded to, item by item.
    fn admit(&mut self, items: &[WireItem], nak: bool, invoked: &mut Vec<ThreadId>) -> Reply {
        if items.is_empty() {
            return Reply::Ignored;
        }
        let line_no = self.lines;
        let can_nak = nak && self.decoder.format() == Some(Format::Native);
        let mut effect = false;
        for item in items {
            match *item {
                WireItem::Abandon(t) => self.checker.abandon_thread(t),
                WireItem::HbEdge { from, to } => {
                    if self.checker.push_hb_edge(from, to) == Push::Refused {
                        return Reply::Refused;
                    }
                }
                WireItem::Action(action) => {
                    if action.is_invoke() {
                        invoked.push(action.thread());
                    }
                    let mut retried = false;
                    loop {
                        match self.checker.push(action) {
                            Push::Admitted => break,
                            Push::Rejected(e) => {
                                return Reply::Quarantined(format!("line {line_no}: {e}"))
                            }
                            Push::Refused => return Reply::Refused,
                            Push::Saturated if can_nak && !effect => return Reply::Saturated,
                            Push::Saturated if retried => {
                                self.checker.degrade();
                                return Reply::Refused;
                            }
                            Push::Saturated => {
                                self.checker.checkpoint();
                                retried = true;
                            }
                        }
                    }
                }
            }
            effect = true;
        }
        Reply::Admitted
    }
}

/// The longest line (its `\n` not counted) a [`LineSplitter`] hands over
/// as text; a longer one is a [`LineFault::TooLong`].
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Why a line of the byte stream never became text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineFault {
    /// The line's bytes are not UTF-8.
    InvalidUtf8,
    /// The line is longer than [`MAX_LINE_BYTES`].
    TooLong,
}

impl fmt::Display for LineFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LineFault::InvalidUtf8 => f.write_str("invalid UTF-8"),
            LineFault::TooLong => write!(f, "longer than {MAX_LINE_BYTES} bytes"),
        }
    }
}

/// The byte → line step in front of [`Ingest::line`], in its only copy:
/// `cal-serve` hands it whatever each `read` returned — from stdin or
/// from a client's socket — and feeds the daemon what comes out.
///
/// Lines are what [`std::io::BufRead::lines`] would yield: cut at `\n`,
/// the `\n` or `\r\n` stripped, a final unterminated line handed over
/// by [`LineSplitter::finish`]. A line wholly inside one block is a slice
/// of it; only a line straddling blocks is copied, into one carried
/// buffer. Unlike `lines`, a line that is not UTF-8 does not end the
/// stream and a line without end does not grow the buffer: each is one
/// [`LineFault`], counted as a line, and the bytes of an over-long line
/// are dropped as they arrive. Memory is [`MAX_LINE_BYTES`] at most.
#[derive(Debug, Default)]
pub struct LineSplitter {
    /// The start of the line the last block ended in, up to the cap
    /// (stale once that line has been handed out: `tail_len` is 0).
    tail: Vec<u8>,
    /// How long that line is so far, dropped bytes included.
    tail_len: usize,
}

/// The lines of one block ([`LineSplitter::split`]), drained with
/// [`Lines::next_line`]. Not an `Iterator`: a line may borrow the
/// splitter's carried buffer.
#[derive(Debug)]
pub struct Lines<'a> {
    splitter: &'a mut LineSplitter,
    rest: &'a [u8],
}

/// One line, or why it is none.
pub type RawLine<'a> = Result<&'a str, LineFault>;

/// Where the first `\n` of `bytes` is. `skip_until` on a slice is std's
/// word-at-a-time `memchr`; `position` goes a byte at a time and was
/// most of the splitter's cost.
fn newline(bytes: &[u8]) -> Option<usize> {
    let mut cursor = bytes;
    let skipped = cursor.skip_until(b'\n').expect("reading a slice cannot fail");
    bytes[..skipped].ends_with(b"\n").then(|| skipped - 1)
}

fn raw_line(bytes: &[u8], len: usize, terminated: bool) -> RawLine<'_> {
    if len > MAX_LINE_BYTES {
        return Err(LineFault::TooLong);
    }
    let bytes = match bytes {
        [body @ .., b'\r'] if terminated => body,
        _ => bytes,
    };
    std::str::from_utf8(bytes).map_err(|_| LineFault::InvalidUtf8)
}

impl LineSplitter {
    /// A splitter at the start of a stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// The lines that end in `block`, in order; what follows the last
    /// newline is carried into the next call once the lines are drained.
    pub fn split<'a>(&'a mut self, block: &'a [u8]) -> Lines<'a> {
        Lines { splitter: self, rest: block }
    }

    /// End of stream: the unterminated last line, if there is one.
    pub fn finish(&mut self) -> Option<RawLine<'_>> {
        let len = std::mem::take(&mut self.tail_len);
        (len > 0).then(|| raw_line(&self.tail, len, false))
    }

    /// Appends `bytes` to the carried line: counted in full, kept up to
    /// the cap (past it the line is a fault and its text is never read).
    fn carry(&mut self, bytes: &[u8]) {
        if self.tail_len == 0 {
            self.tail.clear();
        }
        let room = MAX_LINE_BYTES - self.tail.len();
        self.tail.extend_from_slice(&bytes[..bytes.len().min(room)]);
        self.tail_len = self.tail_len.saturating_add(bytes.len());
    }
}

impl Lines<'_> {
    /// The next line that ends in this block, or `None` once the rest of
    /// the block has been carried over.
    pub fn next_line(&mut self) -> Option<RawLine<'_>> {
        let splitter = &mut *self.splitter;
        let Some(end) = newline(self.rest) else {
            splitter.carry(self.rest);
            self.rest = &[];
            return None;
        };
        let (line, rest) = (&self.rest[..end], &self.rest[end + 1..]);
        self.rest = rest;
        if splitter.tail_len == 0 {
            return Some(raw_line(line, line.len(), true));
        }
        splitter.carry(line);
        let len = std::mem::take(&mut splitter.tail_len);
        Some(raw_line(&splitter.tail, len, true))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{check_cal, Verdict};
    use crate::ids::{ObjectId, Value};
    use crate::spec::{Invocation, SeqAsCa};
    use crate::text::parse_history;
    use crate::Method;

    /// A tiny sequential register spec for self-contained tests.
    #[derive(Debug, Clone)]
    struct Reg;
    impl crate::spec::SeqSpec for Reg {
        type State = i64;
        fn initial(&self) -> i64 {
            0
        }
        fn apply(&self, state: &i64, op: &Operation) -> Option<i64> {
            match (op.method, op.arg, op.ret) {
                (Method("write"), Value::Int(v), Value::Unit) => Some(v),
                (Method("read"), Value::Unit, Value::Int(v)) if v == *state => Some(*state),
                _ => None,
            }
        }
        fn completions_of(&self, inv: &Invocation) -> Vec<Value> {
            match inv.method {
                Method("write") => vec![Value::Unit],
                _ => vec![],
            }
        }
    }

    fn reg_checker(opts: StreamOptions) -> StreamChecker<SeqAsCa<Reg>> {
        StreamChecker::new(SeqAsCa::new(Reg), opts)
    }

    fn feed(checker: &mut StreamChecker<SeqAsCa<Reg>>, text: &str) {
        for action in parse_history(text).unwrap().actions() {
            assert_eq!(checker.push(*action), Push::Admitted);
        }
    }

    #[test]
    fn sequential_stream_retires_everything() {
        let mut c = reg_checker(StreamOptions {
            checkpoint_every: 4,
            ..StreamOptions::default()
        });
        let mut text = String::new();
        for i in 0..100 {
            text.push_str(&format!("t0 inv o0.write {i}\nt0 res o0.write ()\n"));
            text.push_str(&format!("t1 inv o0.read ()\nt1 res o0.read {i}\n"));
        }
        feed(&mut c, &text);
        assert_eq!(c.finish(), StreamVerdict::Consistent);
        let s = c.stats();
        assert_eq!(s.events, 400);
        assert_eq!(s.retired_actions + s.window as u64, s.events);
        assert_eq!(s.retired_ops, 200);
        assert!(s.peak_window <= 8, "peak window {} for checkpoint_every=4", s.peak_window);
        assert_eq!(s.states, 1);
    }

    #[test]
    fn violation_is_latched_and_refuses_the_stream() {
        let mut c = reg_checker(StreamOptions::default());
        feed(&mut c, "t0 inv o0.write 1\nt0 res o0.write ()\n");
        // Stale read: register holds 1, reading 7 is unexplainable.
        feed(&mut c, "t1 inv o0.read ()\nt1 res o0.read 7\n");
        assert_eq!(c.finish(), StreamVerdict::Violation);
        let next = Action::invoke(ThreadId(2), ObjectId(0), Method("read"), Value::Unit);
        assert_eq!(c.push(next), Push::Refused);
        assert_eq!(c.verdict(), StreamVerdict::Violation);
        assert_eq!(c.stats().refused, 1);
    }

    #[test]
    fn ill_formed_events_are_quarantined_without_perturbing_the_window() {
        let mut c = reg_checker(StreamOptions::default());
        feed(&mut c, "t0 inv o0.write 1\n");
        let nested = Action::invoke(ThreadId(0), ObjectId(0), Method("write"), Value::Int(2));
        assert!(matches!(
            c.push(nested),
            Push::Rejected(HistoryError::NestedInvocation { .. })
        ));
        let orphan = Action::response(ThreadId(9), ObjectId(0), Method("read"), Value::Int(0));
        assert!(matches!(
            c.push(orphan),
            Push::Rejected(HistoryError::ResponseWithoutInvocation { .. })
        ));
        let mismatched = Action::response(ThreadId(0), ObjectId(0), Method("read"), Value::Int(0));
        assert!(matches!(
            c.push(mismatched),
            Push::Rejected(HistoryError::MismatchedResponse { .. })
        ));
        feed(&mut c, "t0 res o0.write ()\n");
        assert_eq!(c.finish(), StreamVerdict::Consistent);
        assert_eq!(c.stats().rejected, 3);
        assert_eq!(c.stats().events, 2);
    }

    #[test]
    fn saturation_backpressure_then_explicit_degradation() {
        // Window cap of 2 open invocations; three concurrent ops that
        // never respond can never be retired.
        let mut c = reg_checker(StreamOptions {
            max_window: 2,
            checkpoint_every: 0,
            ..StreamOptions::default()
        });
        feed(&mut c, "t0 inv o0.write 1\nt1 inv o0.write 2\n");
        let third = Action::invoke(ThreadId(2), ObjectId(0), Method("write"), Value::Int(3));
        assert_eq!(c.push(third), Push::Saturated);
        assert_eq!(c.push(third), Push::Saturated);
        // Responses are always admitted: the window can drain, and once
        // both ops close, retirement frees the cap.
        feed(&mut c, "t0 res o0.write ()\nt1 res o0.write ()\n");
        c.checkpoint();
        assert_eq!(c.stats().window, 0, "both closed ops retire");
        assert_eq!(c.push(third), Push::Admitted);
        let fourth = Action::invoke(ThreadId(3), ObjectId(0), Method("write"), Value::Int(4));
        assert_eq!(c.push(fourth), Push::Admitted);
        // Two open invocations again: saturate again, then give up.
        let fifth = Action::invoke(ThreadId(4), ObjectId(0), Method("write"), Value::Int(5));
        assert_eq!(c.push(fifth), Push::Saturated);
        c.degrade();
        assert_eq!(c.verdict(), StreamVerdict::Undecided(UndecidedWhy::WindowExceeded));
        assert_eq!(c.verdict().to_string(), "undecided: window exceeded");
        assert_eq!(c.push(fifth), Push::Refused);
        // Degradation latches across further checkpoints.
        assert_eq!(c.finish(), StreamVerdict::Undecided(UndecidedWhy::WindowExceeded));
    }

    #[test]
    fn abandoned_pending_op_is_sealed_via_spec_completions() {
        // t0's write is abandoned mid-flight. Unsealed it blocks
        // retirement (its rendezvous partner could still be coming), but
        // under window pressure it is force-sealed: the segment
        // enumeration admits both "the write happened" (the spec's `()`
        // completion) and "the write was dropped".
        let mut c = reg_checker(StreamOptions {
            max_window: 1,
            checkpoint_every: 0,
            ..StreamOptions::default()
        });
        feed(&mut c, "t0 inv o0.write 5\n");
        c.abandon_thread(ThreadId(0));
        assert_eq!(c.checkpoint(), StreamVerdict::Consistent);
        assert_eq!(c.stats().abandoned, 1);
        // No pressure yet: the abandoned op still occupies the window.
        assert_eq!(c.stats().window, 1);
        // The next invocation hits the cap and forces the seal.
        feed(&mut c, "t1 inv o0.read ()\n");
        assert_eq!(c.stats().saturated, 0, "forced sealing freed the window");
        assert_eq!(c.stats().states, 2, "both completion and drop survive");
        feed(&mut c, "t1 res o0.read 5\n");
        assert_eq!(c.checkpoint(), StreamVerdict::Consistent);
        // After observing the read of 5, only the "write happened"
        // branch survives retirement.
        assert_eq!(c.stats().states, 1);
        feed(&mut c, "t2 inv o0.read ()\nt2 res o0.read 0\n");
        assert_eq!(c.finish(), StreamVerdict::Violation);
    }

    #[test]
    fn streaming_matches_batch_on_a_concurrent_history() {
        let text = "t1 inv o0.write 1\nt2 inv o0.write 2\nt1 res o0.write ()\n\
                    t2 res o0.write ()\nt3 inv o0.read ()\nt3 res o0.read 1\n";
        let history = parse_history(text).unwrap();
        let batch = check_cal(&history, &SeqAsCa::new(Reg)).unwrap();
        assert!(matches!(batch.verdict, Verdict::Cal(_)));
        for chunk in [1usize, 2, 3, 6] {
            let mut c = reg_checker(StreamOptions {
                checkpoint_every: chunk,
                ..StreamOptions::default()
            });
            feed(&mut c, text);
            assert_eq!(c.finish(), StreamVerdict::Consistent, "chunk {chunk}");
        }
    }

    fn causal_reg_checker(opts: StreamOptions) -> StreamChecker<SeqAsCa<Reg>> {
        StreamChecker::new(SeqAsCa::new(Reg), StreamOptions { causal: true, ..opts })
    }

    #[test]
    fn causal_stream_accepts_a_session_reorderable_stale_read() {
        // write completes in real time before the read starts, but the
        // threads are causally unrelated: violation in real-time mode,
        // consistent in causal mode.
        let text = "t0 inv o0.write 1\nt0 res o0.write ()\nt1 inv o0.read ()\nt1 res o0.read 0\n";
        let mut rt = reg_checker(StreamOptions { checkpoint_every: 0, ..StreamOptions::default() });
        feed(&mut rt, text);
        assert_eq!(rt.finish(), StreamVerdict::Violation);

        let mut c = causal_reg_checker(StreamOptions { checkpoint_every: 0, ..StreamOptions::default() });
        feed(&mut c, text);
        assert_eq!(c.finish(), StreamVerdict::Consistent);
    }

    #[test]
    fn declared_edge_restores_the_violation_and_blocks_early_retirement() {
        let mut c = causal_reg_checker(StreamOptions { checkpoint_every: 0, ..StreamOptions::default() });
        feed(&mut c, "t0 inv o0.write 1\nt0 res o0.write ()\n");
        // An edge from the (future) read back into the window: op 1 → op 0
        // would be a cycle, so declare 0 → 1 (the write became visible).
        assert_eq!(c.push_hb_edge(0, 1), Push::Admitted);
        // The cut after the write is now hb-open in the *forward*
        // direction only — retirement of op 0 alone is still sound and
        // permitted; the reverse edge is what blocks.
        feed(&mut c, "t1 inv o0.read ()\nt1 res o0.read 0\n");
        assert_eq!(c.finish(), StreamVerdict::Violation);
        assert_eq!(c.stats().hb_edges, 1);
    }

    #[test]
    fn backward_edge_defers_retirement_until_hb_closed() {
        let mut c = causal_reg_checker(StreamOptions { checkpoint_every: 0, ..StreamOptions::default() });
        feed(&mut c, "t0 inv o0.write 1\nt0 res o0.write ()\n");
        // Declare that the (future) op 1 happens before op 0: the cut
        // after op 0 is closed in time but not hb-closed.
        assert_eq!(c.push_hb_edge(1, 0), Push::Admitted);
        c.checkpoint();
        assert_eq!(c.stats().retired_ops, 0, "backward edge must block the cut");
        // Once op 1 (a read of 0, ordered before the write) arrives and
        // completes, the two retire together, edge respected.
        feed(&mut c, "t1 inv o0.read ()\nt1 res o0.read 0\n");
        assert_eq!(c.finish(), StreamVerdict::Consistent);
        assert_eq!(c.stats().retired_ops, 2);
    }

    /// A window a checkpoint refutes while the causal stream is open, and
    /// an operation still to come that explains it: a read of 1 that a
    /// write of 1 is declared to happen before, the write admitted last;
    /// and, with no edge declared at all, a read of 1 on one thread after
    /// a write of 2 on another, whose next operation need not follow the
    /// read under a partial order. The checkpoint is undecided and latches
    /// nothing, so the stream ends with the batch's verdict, checkpoint or
    /// not; closed without the write (its edge's source never arriving),
    /// the refutation is final.
    #[test]
    fn a_future_operation_keeps_a_causal_refutation_open() {
        let write = "t1 inv o0.write 1\nt1 res o0.write ()\n";
        let cases: [(&str, &[(usize, usize)]); 2] = [
            ("t0 inv o0.read ()\nt0 res o0.read 1\n", &[(1, 0)]),
            ("t1 inv o0.write 2\nt1 res o0.write ()\nt0 inv o0.read ()\nt0 res o0.read 1\n", &[]),
        ];
        for (head, edges) in cases {
            let history = parse_history(&format!("{head}{write}")).unwrap();
            let hb = crate::causal::causal_order(&history, edges).unwrap();
            assert!(crate::causal::check_causal(&history, &SeqAsCa::new(Reg), &hb).unwrap().verdict.is_cal());
            for (checkpoint, arrives) in [(false, true), (true, true), (true, false)] {
                let mut c = causal_reg_checker(StreamOptions { checkpoint_every: 0, ..StreamOptions::default() });
                feed(&mut c, head);
                for &(from, to) in edges {
                    assert_eq!(c.push_hb_edge(from, to), Push::Admitted);
                }
                if checkpoint {
                    assert_eq!(c.checkpoint(), StreamVerdict::Undecided(UndecidedWhy::FutureOperation));
                    assert_eq!(c.stats().retired_ops, 0, "{head}");
                }
                if !arrives {
                    assert_eq!(c.finish(), StreamVerdict::Violation);
                    continue;
                }
                feed(&mut c, write);
                assert_eq!(c.finish(), StreamVerdict::Consistent, "{head} checkpoint: {checkpoint}");
                assert_eq!(c.stats().retired_ops, history.len() as u64 / 2);
            }
        }
    }

    #[test]
    fn late_edge_into_retired_prefix_latches_undecided() {
        let mut c = causal_reg_checker(StreamOptions { checkpoint_every: 0, ..StreamOptions::default() });
        feed(&mut c, "t0 inv o0.write 1\nt0 res o0.write ()\n");
        c.checkpoint();
        assert_eq!(c.stats().retired_ops, 1);
        assert_eq!(c.push_hb_edge(5, 0), Push::Refused);
        assert_eq!(c.verdict(), StreamVerdict::Undecided(UndecidedWhy::LateHbEdge));
        assert_eq!(c.verdict().to_string(), "undecided: late happens-before edge");
        assert_eq!(c.stats().late_edges, 1);
        let next = Action::invoke(ThreadId(1), ObjectId(0), Method("read"), Value::Unit);
        assert_eq!(c.push(next), Push::Refused);
        assert_eq!(c.finish(), StreamVerdict::Undecided(UndecidedWhy::LateHbEdge));
    }

    #[test]
    fn edges_are_inert_outside_causal_mode() {
        let mut c = reg_checker(StreamOptions { checkpoint_every: 0, ..StreamOptions::default() });
        feed(&mut c, "t0 inv o0.write 1\nt0 res o0.write ()\n");
        c.checkpoint();
        // Would be a late edge in causal mode; without it, counted and
        // ignored.
        assert_eq!(c.push_hb_edge(5, 0), Push::Admitted);
        assert_eq!(c.stats().hb_edges, 1);
        assert_eq!(c.finish(), StreamVerdict::Consistent);
    }

    #[test]
    fn cyclic_declaration_surfaces_as_checker_error() {
        let mut c = causal_reg_checker(StreamOptions { checkpoint_every: 0, ..StreamOptions::default() });
        // Same thread: session order gives 0 ≺ 1; declaring 1 → 0 closes
        // a cycle.
        feed(&mut c, "t0 inv o0.write 1\nt0 res o0.write ()\nt0 inv o0.write 2\nt0 res o0.write ()\n");
        assert_eq!(c.push_hb_edge(1, 0), Push::Admitted);
        assert_eq!(c.finish(), StreamVerdict::Undecided(UndecidedWhy::CheckerError));
        assert!(c.last_error().unwrap().contains("cycle"), "{:?}", c.last_error());
    }

    #[test]
    fn causal_stream_matches_batch_causal_on_retired_segments() {
        // Declared edges chain the threads into w1 ≺ r1 ≺ w2 ≺ r2, so
        // hb-closed cuts exist while the stream is still open and
        // retirement happens mid-stream; the final verdict must match
        // the batch causal checker on the whole history.
        let text = "t0 inv o0.write 1\nt0 res o0.write ()\n\
                    t1 inv o0.read ()\nt1 res o0.read 1\n\
                    t0 inv o0.write 2\nt0 res o0.write ()\n\
                    t2 inv o0.read ()\nt2 res o0.read 2\n";
        let edges = [(0usize, 1usize), (1, 2), (2, 3)];
        let history = parse_history(text).unwrap();
        let hb = crate::causal::causal_order(&history, &edges).unwrap();
        let batch = crate::causal::check_causal(&history, &SeqAsCa::new(Reg), &hb).unwrap();
        assert!(batch.verdict.is_cal());
        let actions = parse_history(text).unwrap().actions().to_vec();
        for chunk in [1usize, 2, 4] {
            let mut c = causal_reg_checker(StreamOptions {
                checkpoint_every: chunk,
                ..StreamOptions::default()
            });
            for (i, a) in actions.iter().enumerate() {
                assert_eq!(c.push(*a), Push::Admitted, "chunk {chunk} action {i}");
                // Declare each edge as its source op completes (i.e.
                // never later than its target's response).
                if i % 2 == 1 {
                    if let Some(&(f, t)) = edges.iter().find(|&&(f, _)| f == i / 2) {
                        assert_eq!(c.push_hb_edge(f, t), Push::Admitted);
                    }
                }
            }
            assert!(c.stats().retired_ops > 0, "chunk {chunk} should retire mid-stream");
            assert_eq!(c.finish(), StreamVerdict::Consistent, "chunk {chunk}");
            assert_eq!(c.stats().retired_ops, 4, "chunk {chunk}");
        }
    }

    #[test]
    fn report_json_is_single_line_and_carries_retirement_counters() {
        let mut c = reg_checker(StreamOptions::default());
        feed(&mut c, "t0 inv o0.write 3\nt0 res o0.write ()\n");
        c.finish();
        let json = c.report(Duration::from_millis(12)).to_json();
        assert!(!json.contains('\n'));
        assert!(json.contains("\"verdict\": \"consistent\""), "{json}");
        assert!(json.contains("\"retired_ops\": 1"), "{json}");
        assert!(json.contains("\"max_window\": 4096"), "{json}");
    }
    /// The `--stats-json` wire line, byte for byte (the writer moved to
    /// `obs::JsonLine`; the bytes did not).
    #[test]
    fn report_json_golden() {
        let mut c = reg_checker(StreamOptions { checkpoint_every: 0, ..StreamOptions::default() });
        feed(&mut c, "t0 inv o0.write 3\nt1 inv o0.write 4\nt0 res o0.write ()\nt1 res o0.write ()\n");
        assert_eq!(c.push_hb_edge(0, 1), Push::Admitted);
        c.checkpoint();
        feed(&mut c, "t2 inv o0.read ()\nt2 res o0.read 4\nt3 inv o0.read ()\n");
        c.abandon_thread(ThreadId(3));
        c.finish();
        assert_eq!(
            c.report(Duration::from_micros(12345)).to_json(),
            "{\"verdict\": \"consistent\", \"wall_ms\": 12.345, \"max_window\": 4096, \
             \"events\": 7, \"rejected\": 0, \"saturated\": 0, \"refused\": 0, \"window\": 1, \
             \"peak_window\": 4, \"states\": 1, \"peak_states\": 2, \"retired_ops\": 3, \
             \"retired_actions\": 6, \"retired_segments\": 2, \"checkpoints\": 2, \
             \"abandoned\": 1, \"hb_edges\": 1, \"late_edges\": 0, \"nodes\": 5, \
             \"zones\": 0, \"matching\": 0, \"elements_tried\": 6, \"memo_hits\": 0}"
        );
    }

    /// A window explored from two reachable states, evaluated while an op
    /// is open, then retired. The first retirement finds 4 before 3, so
    /// the evaluation starts from 4 and stops at its first goal: one node
    /// charged, two candidates tried, and the goal itself charged nothing.
    /// The retirement is one traversal from both states, which meet at
    /// "write 5" and expand it once: the second meeting is charged as a
    /// node and counted as a memo hit, as in a batch search. The two
    /// closing reads are clones, so the last exploration tries one of
    /// them alone, not each (14 elements without symmetry reduction).
    #[test]
    fn window_from_two_states_keeps_its_state_set_and_node_counts() {
        let work = |c: &StreamChecker<SeqAsCa<Reg>>| {
            let s = c.stats();
            (s.states, s.retired_segments, s.search.nodes, s.search.elements_tried, s.search.memo_hits)
        };
        let mut c = reg_checker(StreamOptions { checkpoint_every: 0, ..StreamOptions::default() });
        feed(&mut c, "t0 inv o0.write 3\nt1 inv o0.write 4\nt0 res o0.write ()\nt1 res o0.write ()\n");
        assert_eq!(c.checkpoint(), StreamVerdict::Consistent);
        assert_eq!(work(&c), (2, 1, 5, 4, 0), "either write may come last");
        // t3's write is open, so nothing retires: the window is explored
        // from 4, where "read 4" is a goal, and 3 is never reached.
        feed(&mut c, "t2 inv o0.read ()\nt3 inv o0.write 5\nt2 res o0.read 4\n");
        assert_eq!(c.checkpoint(), StreamVerdict::Consistent);
        assert_eq!(work(&c), (2, 1, 6, 6, 0));
        feed(&mut c, "t3 res o0.write ()\n");
        assert_eq!(c.checkpoint(), StreamVerdict::Consistent);
        assert_eq!(work(&c), (1, 2, 12, 12, 1), "the segment enumerates from both states to {{5}}");
        assert_eq!(c.stats().peak_states, 2);
        feed(&mut c, "t2 inv o0.read ()\nt3 inv o0.read ()\nt2 res o0.read 4\nt3 res o0.read 4\n");
        assert_eq!(c.finish(), StreamVerdict::Violation);
        assert_eq!(work(&c), (1, 2, 13, 13, 1));
    }

    /// [`Reg`] with its register shape declared, restricted to any object:
    /// the stream decides its windows by zones where they qualify.
    #[derive(Debug, Clone)]
    struct ZonedReg;
    impl crate::spec::SeqSpec for ZonedReg {
        type State = i64;
        fn initial(&self) -> i64 {
            0
        }
        fn apply(&self, state: &i64, op: &Operation) -> Option<i64> {
            Reg.apply(state, op)
        }
        fn completions_of(&self, inv: &Invocation) -> Vec<Value> {
            Reg.completions_of(inv)
        }
        fn restrict(&self, _: ObjectId) -> Option<Self> {
            Some(ZonedReg)
        }
        fn shape(&self) -> Shape {
            Shape::Register(RegisterShape { writes: &[Method("write")], reads: &[Method("read")], object: None })
        }
    }

    fn zoned_feed(checker: &mut StreamChecker<SeqAsCa<ZonedReg>>, text: &str) {
        for action in parse_history(text).unwrap().actions() {
            assert_eq!(checker.push(*action), Push::Admitted);
        }
    }

    /// The window of `window_from_two_states_keeps_its_state_set_and_node_counts`,
    /// decided by zones: the same state sets, and no node. Two concurrent
    /// writes may each come last; a read of 4 and a write of 5 refute
    /// from 3 and end in 5 from 4, since the read is invoked before the
    /// write responds.
    #[test]
    fn zones_retire_a_register_window_to_the_writes_that_may_come_last() {
        let work = |c: &StreamChecker<SeqAsCa<ZonedReg>>| {
            let s = c.stats();
            (s.states, s.retired_segments, s.search.nodes, s.search.zones)
        };
        let held = |c: &StreamChecker<SeqAsCa<ZonedReg>>| c.held_states();
        let opts = StreamOptions { checkpoint_every: 0, ..StreamOptions::default() };
        let mut c = StreamChecker::new(SeqAsCa::new(ZonedReg), opts);
        zoned_feed(&mut c, "t0 inv o0.write 3\nt1 inv o0.write 4\nt0 res o0.write ()\nt1 res o0.write ()\n");
        assert_eq!(c.checkpoint(), StreamVerdict::Consistent);
        assert_eq!(work(&c), (2, 1, 0, 1), "either write may come last");
        assert_eq!(held(&c), [(Some(ObjectId(0)), vec![3, 4])]);
        // t3's write is open: a checkpoint, accepted from 4.
        zoned_feed(&mut c, "t2 inv o0.read ()\nt3 inv o0.write 5\nt2 res o0.read 4\n");
        assert_eq!(c.checkpoint(), StreamVerdict::Consistent);
        assert_eq!(work(&c), (2, 1, 0, 2));
        zoned_feed(&mut c, "t3 res o0.write ()\n");
        assert_eq!(c.checkpoint(), StreamVerdict::Consistent);
        assert_eq!(work(&c), (1, 2, 0, 3));
        assert_eq!(held(&c), [(Some(ObjectId(0)), vec![5])]);
        zoned_feed(&mut c, "t2 inv o0.read ()\nt3 inv o0.read ()\nt2 res o0.read 4\nt3 res o0.read 4\n");
        assert_eq!(c.finish(), StreamVerdict::Violation);
        assert_eq!(work(&c), (1, 2, 0, 4));
    }

    /// A repeated value sends its window to the search, which does not
    /// name the values its end states hold: the part searches its next
    /// window too, until a lone operation names the value, and the window
    /// after that is decided by zones again.
    #[test]
    fn a_repeated_value_is_searched_until_a_lone_operation_names_the_value() {
        let work = |c: &StreamChecker<SeqAsCa<ZonedReg>>| (c.stats().search.nodes, c.stats().search.zones);
        let opts = StreamOptions { checkpoint_every: 0, ..StreamOptions::default() };
        let mut c = StreamChecker::new(SeqAsCa::new(ZonedReg), opts);
        zoned_feed(
            &mut c,
            "t0 inv o0.write 3\nt1 inv o0.write 3\nt2 inv o0.write 4\n\
             t0 res o0.write ()\nt1 res o0.write ()\nt2 res o0.write ()\n",
        );
        assert_eq!(c.checkpoint(), StreamVerdict::Consistent);
        let (nodes, zones) = work(&c);
        assert!(nodes > 0 && zones == 0);
        let mut held = c.parts[0].reach.clone();
        held.sort_unstable();
        assert_eq!(held, [(3, None), (4, None)]);
        zoned_feed(&mut c, "t0 inv o0.write 5\nt1 inv o0.read ()\nt0 res o0.write ()\nt1 res o0.read 5\n");
        assert_eq!(c.checkpoint(), StreamVerdict::Consistent);
        let (more, zones) = work(&c);
        assert!(more > nodes && zones == 0, "the values are unknown: searched");
        assert_eq!(c.parts[0].reach, [(5, None)]);
        zoned_feed(&mut c, "t2 inv o0.read ()\nt2 res o0.read 5\n");
        assert_eq!(c.checkpoint(), StreamVerdict::Consistent);
        assert_eq!(c.parts[0].reach, [(5, Some(5))]);
        zoned_feed(&mut c, "t0 inv o0.write 6\nt1 inv o0.read ()\nt0 res o0.write ()\nt1 res o0.read 6\n");
        assert_eq!(c.finish(), StreamVerdict::Consistent);
        assert_eq!(work(&c), (more, 1));
        assert_eq!(c.parts[0].reach, [(6, Some(6))]);
    }

    /// A write of the value a part holds goes to the search too: read from
    /// that value, the write would fall into the held value's own cluster,
    /// and the write of 7 before it would look like the last one. The
    /// search ends the window in 5 — the write of 5 is invoked after the
    /// write of 7 responds — so a read of 5 after it is consistent.
    #[test]
    fn a_write_of_a_held_value_is_searched() {
        let opts = StreamOptions { checkpoint_every: 0, ..StreamOptions::default() };
        let mut c = StreamChecker::new(SeqAsCa::new(ZonedReg), opts);
        zoned_feed(&mut c, "t9 inv o0.write 5\nt9 res o0.write ()\n");
        assert_eq!(c.checkpoint(), StreamVerdict::Consistent);
        assert_eq!(c.parts[0].reach, [(5, Some(5))]);
        zoned_feed(
            &mut c,
            "t3 inv o0.read ()\nt0 inv o0.read ()\nt0 res o0.read 5\nt1 inv o0.write 7\n\
             t1 res o0.write ()\nt2 inv o0.write 5\nt2 res o0.write ()\nt3 res o0.read 5\n",
        );
        assert_eq!(c.checkpoint(), StreamVerdict::Consistent);
        assert!(c.stats().search.nodes > 0);
        assert_eq!(c.stats().search.zones, 0);
        assert_eq!(c.held_states(), [(Some(ObjectId(0)), vec![5])]);
        zoned_feed(&mut c, "t0 inv o0.read ()\nt0 res o0.read 5\n");
        assert_eq!(c.finish(), StreamVerdict::Consistent);
    }

    /// A specification that declares a register shape but rejects a write
    /// of 7 and panics on a write of 8 breaks the shape's promise: zones
    /// accept the window, the end state cannot be stepped, and the search
    /// decides the part instead — refuting the 7, and naming the panic
    /// with nothing retired.
    #[test]
    fn a_register_spec_that_breaks_its_shape_is_searched() {
        #[derive(Debug, Clone)]
        struct Broken;
        impl crate::spec::SeqSpec for Broken {
            type State = i64;
            fn initial(&self) -> i64 {
                0
            }
            fn apply(&self, state: &i64, op: &Operation) -> Option<i64> {
                match op.arg {
                    Value::Int(7) => None,
                    Value::Int(8) => panic!("spec bug: eight written"),
                    _ => Reg.apply(state, op),
                }
            }
            fn completions_of(&self, inv: &Invocation) -> Vec<Value> {
                Reg.completions_of(inv)
            }
            fn restrict(&self, _: ObjectId) -> Option<Self> {
                Some(Broken)
            }
            fn shape(&self) -> Shape {
                ZonedReg.shape()
            }
        }
        let opts = StreamOptions { checkpoint_every: 0, ..StreamOptions::default() };
        let feed = |c: &mut StreamChecker<SeqAsCa<Broken>>, text: &str| {
            for action in parse_history(text).unwrap().actions() {
                assert_eq!(c.push(*action), Push::Admitted);
            }
        };
        let mut c = StreamChecker::new(SeqAsCa::new(Broken), opts.clone());
        feed(&mut c, "t0 inv o0.write 6\nt1 inv o0.write 8\nt0 res o0.write ()\nt1 res o0.write ()\n");
        c.checkpoint();
        assert!(c.last_error().unwrap().contains("spec bug"), "{:?}", c.last_error());
        let s = c.stats();
        // Zones decided the checkpoint after it, which steps nothing; not
        // the retirement.
        assert_eq!((s.retired_segments, s.window, s.search.zones), (0, 4, 1), "nothing retired");
        let mut c = StreamChecker::new(SeqAsCa::new(Broken), opts);
        feed(&mut c, "t0 inv o0.write 6\nt1 inv o0.write 7\nt0 res o0.write ()\nt1 res o0.write ()\n");
        assert_eq!(c.checkpoint(), StreamVerdict::Violation);
        assert_eq!((c.stats().retired_segments, c.stats().search.zones), (0, 0));
    }

    /// A specification that panics while a lone operation is stepped in
    /// place — after an earlier state of the part has already produced
    /// its successor — leaves the part as it was and the operation in the
    /// window.
    #[test]
    fn a_panic_while_stepping_in_place_leaves_the_part_as_it_was() {
        #[derive(Debug, Clone)]
        struct Touchy;
        impl crate::spec::SeqSpec for Touchy {
            type State = i64;
            fn initial(&self) -> i64 {
                0
            }
            fn apply(&self, state: &i64, op: &Operation) -> Option<i64> {
                match (op.ret, *state) {
                    (Value::Int(13), 4) => panic!("spec bug: thirteen read from four"),
                    (Value::Int(13), _) => Some(*state),
                    _ => Reg.apply(state, op),
                }
            }
            fn completions_of(&self, inv: &Invocation) -> Vec<Value> {
                Reg.completions_of(inv)
            }
        }
        let opts = StreamOptions { checkpoint_every: 0, ..StreamOptions::default() };
        let mut c = StreamChecker::new(SeqAsCa::new(Touchy), opts);
        let push_all = |c: &mut StreamChecker<SeqAsCa<Touchy>>, text: &str| {
            for action in parse_history(text).unwrap().actions() {
                assert_eq!(c.push(*action), Push::Admitted);
            }
        };
        push_all(&mut c, "t0 inv o0.write 3\nt1 inv o0.write 4\nt0 res o0.write ()\nt1 res o0.write ()\n");
        assert_eq!(c.checkpoint(), StreamVerdict::Consistent);
        assert_eq!((c.stats().states, c.stats().retired_segments), (2, 1));
        let held = c.parts[0].reach.clone();
        // From 3 the read steps; from 4 the specification panics.
        push_all(&mut c, "t2 inv o0.read ()\nt2 res o0.read 13\n");
        c.checkpoint();
        assert!(c.last_error().unwrap().contains("spec bug"), "{:?}", c.last_error());
        let s = c.stats();
        assert_eq!((s.states, s.retired_segments, s.window), (2, 1, 2), "nothing retired, nothing lost");
        assert_eq!(c.parts[0].reach, held);
    }

    fn reg_ingest(max_window: usize, format: Option<Format>) -> Ingest<SeqAsCa<Reg>> {
        let opts = StreamOptions { max_window, checkpoint_every: 0, ..StreamOptions::default() };
        Ingest::new(SeqAsCa::new(Reg), opts, format)
    }

    #[test]
    fn ingest_control_lines_comments_and_quarantine() {
        let mut i = reg_ingest(8, None);
        let mut invoked = Vec::new();
        assert_eq!(i.line("# a comment\n", false, &mut invoked), Reply::Ignored);
        assert_eq!(i.line("   \n", false, &mut invoked), Reply::Ignored);
        assert_eq!(i.line("t3 inv o0.write 1\n", false, &mut invoked), Reply::Admitted);
        assert_eq!(i.line("abandon t3\n", false, &mut invoked), Reply::Ignored);
        assert_eq!(i.checker.stats().abandoned, 1);
        let Reply::Quarantined(why) = i.line("abandon x\n", false, &mut invoked) else {
            panic!("a bad abandon target is quarantined");
        };
        assert!(why.starts_with("line 5: bad abandon target"), "{why}");
        let Reply::Quarantined(why) = i.line("t1 flub\n", false, &mut invoked) else {
            panic!("a parse error is quarantined");
        };
        assert!(why.contains("line 6"), "{why}");
        // Ill-formed: t3 already has an operation open. The thread is
        // still reported, so its session would abandon it.
        let Reply::Quarantined(why) = i.line("t3 inv o0.write 2\n", false, &mut invoked) else {
            panic!("a nested invocation is quarantined");
        };
        assert!(why.starts_with("line 7: "), "{why}");
        assert_eq!(invoked, [ThreadId(3), ThreadId(3)]);
        assert_eq!(i.quarantined(), 3);
        assert_eq!(i.checker.stats().events, 1, "quarantined lines admit nothing");
        assert_eq!(i.line("bye\n", false, &mut invoked), Reply::Bye);
        assert_eq!(i.checker.finish(), StreamVerdict::Consistent);
    }

    #[test]
    fn a_quarantined_ok_leaves_its_invocation_open() {
        // A jepsen `:ok` whose value does not convert is refused before it
        // takes the process's invocation: the client's corrected `:ok`
        // closes it, and the process may invoke again.
        let mut i = reg_ingest(8, Some(Format::Jepsen));
        let mut invoked = Vec::new();
        let mut line = |text: &str| i.line(text, false, &mut invoked);
        assert_eq!(line("{:process 0, :type :invoke, :f :read}"), Reply::Admitted);
        let Reply::Quarantined(why) = line("{:process 0, :type :ok, :f :read, :value \"x\"}") else {
            panic!("an unconvertible value is quarantined");
        };
        assert!(why.starts_with("line 2: field :value: unsupported value"), "{why}");
        assert_eq!(line("{:process 0, :type :ok, :f :read, :value 0}"), Reply::Admitted);
        assert_eq!(line("{:process 0, :type :invoke, :f :write, :value 1}"), Reply::Admitted);
        assert_eq!(line("{:process 0, :type :ok, :f :write, :value 1}"), Reply::Admitted);
        assert_eq!(i.quarantined(), 1);
        assert_eq!(i.checker.stats().events, 4);
        assert_eq!(i.checker.finish(), StreamVerdict::Consistent);
    }

    /// The lines `splitter` cuts from `blocks` and the stream's end, owned.
    fn split_all(blocks: &[&[u8]]) -> Vec<Result<String, LineFault>> {
        let mut splitter = LineSplitter::new();
        let mut out = Vec::new();
        for block in blocks {
            let mut lines = splitter.split(block);
            while let Some(raw) = lines.next_line() {
                out.push(raw.map(str::to_owned));
            }
        }
        out.extend(splitter.finish().map(|raw| raw.map(str::to_owned)));
        out
    }

    #[test]
    fn splitter_cuts_lines_wherever_the_reads_fall() {
        let ok = |s: &str| Ok(s.to_owned());
        assert_eq!(split_all(&[b"a\r\nb", b"b\n", b"\nlast\r"]), [ok("a"), ok("bb"), ok(""), ok("last\r")]);
        assert_eq!(split_all(&[b"one", b" li", b"ne\n"]), [ok("one line")]);
        assert_eq!(split_all(&[b"a\n"]), [ok("a")]);
        assert_eq!(split_all(&[]), []);
        assert_eq!(split_all(&[b"ok\n\xff", b"\xfe\nok\n"]), [ok("ok"), Err(LineFault::InvalidUtf8), ok("ok")]);
    }

    #[test]
    fn splitter_drops_a_line_without_end_as_it_arrives() {
        let mut splitter = LineSplitter::new();
        let block = [b'x'; 16 * 1024];
        for _ in 0..1_024 {
            assert!(splitter.split(&block).next_line().is_none());
        }
        assert!(splitter.tail.capacity() <= 2 * MAX_LINE_BYTES, "{}", splitter.tail.capacity());
        let mut lines = splitter.split(b"\nt0 inv o0.write 1\n");
        assert_eq!(lines.next_line(), Some(Err(LineFault::TooLong)));
        assert_eq!(lines.next_line(), Some(Ok("t0 inv o0.write 1")));
        assert_eq!(lines.next_line(), None);
        // Exactly at the cap is a line; one byte over is not.
        let at_cap = [&[b'y'; MAX_LINE_BYTES][..], b"\n"].concat();
        assert!(matches!(split_all(&[&at_cap]).as_slice(), [Ok(line)] if line.len() == MAX_LINE_BYTES));
        let over = [&[b'y'; MAX_LINE_BYTES + 1][..], b"\n"].concat();
        assert_eq!(split_all(&[&over[..7], &over[7..]]), [Err(LineFault::TooLong)]);
    }

    #[test]
    fn a_line_that_is_no_text_takes_a_number_and_is_quarantined() {
        let mut i = reg_ingest(8, None);
        let mut invoked = Vec::new();
        assert_eq!(i.line("t0 inv o0.write 1", false, &mut invoked), Reply::Admitted);
        assert_eq!(i.fault(LineFault::InvalidUtf8), Reply::Quarantined("line 2: invalid UTF-8".into()));
        assert_eq!(
            i.fault(LineFault::TooLong),
            Reply::Quarantined("line 3: longer than 65536 bytes".into())
        );
        let Reply::Quarantined(why) = i.line("t1 flub", false, &mut invoked) else {
            panic!("a parse error is quarantined");
        };
        assert!(why.starts_with("line 4: "), "{why}");
        assert_eq!(i.quarantined(), 3);
    }

    #[test]
    fn ingest_saturation_is_nakked_only_where_a_resend_is_sound() {
        // Native, ack channel, no effect yet: handed back, and the same
        // line is admitted once the window drains.
        let mut i = reg_ingest(1, None);
        let mut invoked = Vec::new();
        assert_eq!(i.line("t0 inv o0.write 1\n", true, &mut invoked), Reply::Admitted);
        assert_eq!(i.line("t1 inv o0.write 2\n", true, &mut invoked), Reply::Saturated);
        assert_eq!(i.line("t1 inv o0.write 2\n", true, &mut invoked), Reply::Saturated);
        assert_eq!(i.checker.stats().checkpoints, 0, "a NAK forces nothing");
        assert_eq!(i.line("t0 res o0.write ()\n", true, &mut invoked), Reply::Admitted);
        assert_eq!(i.line("t1 inv o0.write 2\n", true, &mut invoked), Reply::Admitted);
        assert_eq!(i.checker.verdict(), StreamVerdict::Consistent);
        assert_eq!(invoked, [ThreadId(0), ThreadId(1), ThreadId(1), ThreadId(1)]);

        // No ack channel: checkpoint, one retry, then explicit degradation.
        let mut i = reg_ingest(1, None);
        assert_eq!(i.line("t0 inv o0.write 1\n", false, &mut invoked), Reply::Admitted);
        assert_eq!(i.line("t1 inv o0.write 2\n", false, &mut invoked), Reply::Refused);
        assert_eq!(i.checker.stats().checkpoints, 1);
        assert_eq!(i.checker.verdict().to_string(), "undecided: window exceeded");
        assert_eq!(i.line("t0 res o0.write ()\n", false, &mut invoked), Reply::Refused);

        // A jepsen line has advanced the decoder: never handed back.
        let mut i = reg_ingest(1, Some(Format::Jepsen));
        let open = |p: u32| format!("{{:process {p}, :type :invoke, :f :write, :value {p}}}\n");
        assert_eq!(i.line(&open(0), true, &mut invoked), Reply::Admitted);
        assert_eq!(i.line(&open(1), true, &mut invoked), Reply::Refused);
        assert_eq!(i.checker.verdict().to_string(), "undecided: window exceeded");
    }
}
