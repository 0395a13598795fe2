//! Interval-linearizability (Castañeda, Rajsbaum & Raynal, DISC 2015),
//! the generalization of CAL discussed in the paper's related work (§6).
//!
//! CAL (equivalently, Neiger's set-linearizability) explains a history by
//! mapping each operation to exactly **one** element of a trace. Some
//! objects need more: in the *write-snapshot* task an operation may have
//! to appear concurrent with two operations that are themselves ordered —
//! its effect spans an **interval** of elements. Interval-linearizability
//! maps every operation to a non-empty contiguous interval of trace
//! points; at each point the specification sees which operations *open*,
//! which are *active*, and which *close*.
//!
//! Formally, a complete history `H` is interval-linearizable w.r.t. an
//! [`IntervalSpec`] if there is a sequence of points and a map
//! `i ↦ [l_i, r_i]` such that (i) the spec accepts every point given its
//! opening/active/closing sets, (ii) `i ≺H j ⟹ r_i < l_j`, and (iii)
//! operations in one point are pairwise concurrent in `H`; a history with
//! pending invocations is, if one of its completions is. Every point opens
//! or closes something, and opens and closes operations of one object.
//! CAL is the special case where every interval has length one.
//!
//! There is no search of its own here. [`IntervalAsCa`] splits every
//! operation into an open and a close half, so that one CA-element of the
//! split history is one interval point, and the CAL search
//! ([`crate::check`]) decides the split history against it — with the
//! kernel's candidate loop, memo, symmetry reduction, budgets, deadlines
//! and parallel frontier. The verdict is the common
//! [`Verdict`](crate::engine::Verdict) taxonomy;
//! [`IntervalAsCa::witness`] turns its witness into an
//! [`IntervalWitness`].
//!
//! The reduction is exact, and three places show why:
//!
//! - **No empty points.** A CA-element is non-empty, and each of its
//!   spans opens, closes or ends, so every point makes progress — the
//!   definition's points, and no stuttering ones.
//! - **Singleton intervals.** An operation's two halves are concurrent, so
//!   both may sit in one element: the operation opens and closes at the
//!   same point.
//! - **Pending operations.** A pending operation's halves are both
//!   pending. Its completion is picked once, when its open half joins an
//!   element, and kept with the open interval; its close half only names
//!   the interval it closes. The `end` span, after every complete half,
//!   is taken only when nothing is open, so an interval that opens also
//!   closes — or the operation is dropped, never opened.

use std::cell::Cell;
use std::collections::HashMap;
use std::fmt::{self, Debug};
use std::hash::Hash;
use std::ops::Range;

use crate::action::Action;
use crate::history::{History, HistoryError, Span};
use crate::ids::{Method, ObjectId, ThreadId, Value};
use crate::op::Operation;
use crate::spec::{CaSpec, Invocation, SeqSpec};
use crate::trace::{CaElement, CaTrace};

/// An interval-sequential specification: a stateful acceptor over interval
/// points.
///
/// `Sync`, with `Send + Sync` states, for the reason
/// [`crate::spec::CaSpec`] is: every front end may run the search over it
/// on worker threads.
pub trait IntervalSpec: Sync {
    /// Acceptor state.
    type State: Clone + Eq + Hash + Debug + Send + Sync;

    /// The initial state.
    fn initial(&self) -> Self::State;

    /// Accepts one interval point, or rejects it.
    ///
    /// `active` lists every operation whose interval contains this point
    /// (with its final return value); `opening` and `closing` are the
    /// subsets of `active` whose intervals start / end here (an operation
    /// may do both, for a singleton interval).
    fn step(
        &self,
        state: &Self::State,
        active: &[Operation],
        opening: &[Operation],
        closing: &[Operation],
    ) -> Option<Self::State>;

    /// Bound on the number of simultaneously active operations the
    /// specification admits: part of the definition, since a point with
    /// more is rejected. `usize::MAX` leaves the bound to the history,
    /// whose points can hold no more operations than are concurrent in it.
    fn max_active(&self) -> usize {
        4
    }

    /// Candidate return values for completing a pending invocation.
    fn completions_of(&self, inv: &Invocation) -> Vec<Value>;
}

/// One point of an interval witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntervalPoint {
    /// Operations whose interval contains this point.
    pub active: Vec<Operation>,
    /// The subset of `active` opening here.
    pub opening: Vec<Operation>,
    /// The subset of `active` closing here.
    pub closing: Vec<Operation>,
}

fn join_ops(f: &mut fmt::Formatter<'_>, ops: &[Operation]) -> fmt::Result {
    for (k, op) in ops.iter().enumerate() {
        if k > 0 {
            f.write_str(", ")?;
        }
        write!(f, "{op}")?;
    }
    Ok(())
}

impl fmt::Display for IntervalPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{active: ")?;
        join_ops(f, &self.active)?;
        f.write_str("; opening: ")?;
        join_ops(f, &self.opening)?;
        f.write_str("; closing: ")?;
        join_ops(f, &self.closing)?;
        f.write_str("}")
    }
}

/// An interval-linearization witness: the accepted point sequence.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IntervalWitness {
    points: Vec<IntervalPoint>,
}

impl IntervalWitness {
    /// The witness points, in order.
    pub fn points(&self) -> &[IntervalPoint] {
        &self.points
    }
}

impl fmt::Display for IntervalWitness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.points.is_empty() {
            return f.write_str("(empty)");
        }
        for (k, point) in self.points.iter().enumerate() {
            if k > 0 {
                f.write_str(" -> ")?;
            }
            write!(f, "{point}")?;
        }
        Ok(())
    }
}

/// The method of the `end` span a split history closes with.
const END: Method = Method("end");

/// An interval: the span's index and its operation.
type Entry = (usize, Operation);

/// Interval-linearizability as CAL over split operations: an
/// [`IntervalSpec`] read as a [`CaSpec`] over a history in which every
/// operation is split into an *open half* and a *close half*.
///
/// [`IntervalAsCa::new`] builds the split history: the checked history's
/// threads are numbered densely, `d = 0, 1, …`; span `i` of thread `d`
/// becomes an open half on thread `2d` and a close half on thread
/// `2d + 1`, both invoked where `i` is invoked and responding where `i`
/// responds (or both pending), both carrying `i` as their argument and,
/// when `i` is complete, as their return value; one complete `end` span on
/// a thread of its own follows everything. Its real-time order is
/// constraint (ii) exactly — every half of `i` precedes every half of `j`
/// iff `i ≺H j` — and an operation's own two halves are concurrent.
///
/// Each CA-element of the split history is one interval point: its open
/// halves open their operations (a pending one with the completion the
/// element picked for it through [`IntervalSpec::completions_of`]), its
/// close halves close operations that are open or opening here, and the
/// wrapped spec's [`IntervalSpec::step`] judges the point. `end` is taken
/// only when no interval is open, and nothing is after it. So the CA
/// search over the split history decides interval-linearizability, and
/// [`IntervalAsCa::witness`] reads its witness back as points.
///
/// Because every half carries its span's index, the only interchangeable
/// spans of a split history are an operation's own two halves, and
/// symmetry reduction lets the close half in only behind the open one —
/// which [`CaSpec::may_join`] requires anyway.
#[derive(Debug)]
pub struct IntervalAsCa<'a, S> {
    spec: &'a S,
    /// The checked history's spans; a half's argument indexes them.
    spans: Vec<Span>,
    /// Per span, the thread of its open half; its close half's is the next.
    openers: Vec<ThreadId>,
    /// The thread of the `end` span.
    end: ThreadId,
}

/// The state of an [`IntervalAsCa`] search: the wrapped spec's state and
/// the intervals open in it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IntervalState<St> {
    spec: St,
    /// Every open interval, by span index.
    open: Vec<Entry>,
    /// `end` was taken.
    ended: bool,
}

impl<'a, S: IntervalSpec> IntervalAsCa<'a, S> {
    /// Splits `history` for a check against `spec`: the specification,
    /// and the split history to check against it.
    ///
    /// # Errors
    ///
    /// The well-formedness violation, if `history` is not well-formed.
    pub fn new(spec: &'a S, history: &History) -> Result<(Self, History), HistoryError> {
        let spans = history.try_spans()?;
        // Per thread: its dense number and the span it is in.
        let mut threads: HashMap<ThreadId, (u32, usize)> = HashMap::new();
        let mut openers = Vec::with_capacity(spans.len());
        let mut actions = Vec::with_capacity(2 * history.len() + 2);
        for action in history.actions() {
            let next = u32::try_from(threads.len()).expect("fewer than 2^31 threads");
            let (d, i) = threads.entry(action.thread()).or_insert((next, 0));
            let half: fn(ThreadId, ObjectId, Method, Value) -> Action = if action.is_invoke() {
                *i = openers.len();
                openers.push(ThreadId(2 * *d));
                Action::invoke
            } else {
                Action::response
            };
            for thread in [ThreadId(2 * *d), ThreadId(2 * *d + 1)] {
                actions.push(half(thread, action.object(), action.method(), index(*i)));
            }
        }
        let end = ThreadId(2 * threads.len() as u32);
        actions.push(Action::invoke(end, ObjectId(0), END, Value::Unit));
        actions.push(Action::response(end, ObjectId(0), END, Value::Unit));
        Ok((IntervalAsCa { spec, spans, openers, end }, History::from_actions(actions)))
    }

    /// Reads a witness of the split history back as interval points (the
    /// `end` element is none).
    pub fn witness(&self, trace: &CaTrace) -> IntervalWitness {
        let mut open = Vec::new();
        let mut points = Vec::new();
        for element in trace.elements().iter().map(CaElement::ops) {
            let mut ops = Vec::new();
            if let Some((closing, opening)) = self.point(&open, element, &mut ops) {
                let (opening, closing) = (ops[opening].to_vec(), ops[closing].to_vec());
                points.push(IntervalPoint { active: ops, opening, closing });
                open = self.still_open(&open, element);
            }
        }
        IntervalWitness { points }
    }

    /// Whether `thread` holds open halves (not close halves, not `end`).
    fn is_opener(&self, thread: ThreadId) -> bool {
        thread.0.is_multiple_of(2) && thread != self.end
    }

    /// The span a half's argument names.
    fn span(arg: Value) -> usize {
        arg.as_int().expect("a half's argument is its span index") as usize
    }

    /// The intervals `element` opens — a pending span's operation
    /// completed with the value the element picked — and whether `element`
    /// closes each too, its close half then right after it.
    fn opening<'e>(&'e self, element: &'e [Operation]) -> impl Iterator<Item = (Entry, bool)> + 'e {
        let opens = |(_, op): &(usize, &Operation)| self.is_opener(op.thread);
        element.iter().enumerate().filter(opens).map(|(k, op)| {
            let (i, next) = (Self::span(op.arg), element.get(k + 1));
            let span = &self.spans[i];
            let opened = span.operation().unwrap_or_else(|| span.operation_with_ret(op.ret));
            ((i, opened), next.is_some_and(|c| c.thread.0 == op.thread.0 + 1))
        })
    }

    /// Whether `element`, a candidate point while span `i` is open or
    /// opening, closes its interval. An element's operations are sorted, so
    /// by thread; and of the close halves on `i`'s thread only `i`'s can be
    /// minimal then: the thread's earlier operations precede `i`, its later
    /// ones follow it.
    fn closes(&self, element: &[Operation], i: usize) -> bool {
        let thread = ThreadId(self.openers[i].0 + 1);
        element.binary_search_by_key(&thread, |op| op.thread).is_ok()
    }

    /// Lays the point `element` makes out in `ops` — open and staying,
    /// open and closing, opening and closing, opening and staying, so that
    /// all of `ops` is the active set — and returns where its closing and
    /// opening sets are. `None` if `element` is no point: it holds `end`,
    /// closes an interval that is neither open nor opening, or makes more
    /// than [`IntervalSpec::max_active`] operations active.
    fn point(
        &self,
        open: &[Entry],
        element: &[Operation],
        ops: &mut Vec<Operation>,
    ) -> Option<(Range<usize>, Range<usize>)> {
        let was_open = |closing| {
            open.iter().filter(move |e| self.closes(element, e.0) == closing).map(|e| e.1)
        };
        let opening = |closing| self.opening(element).filter(move |e| e.1 == closing);
        ops.clear();
        ops.extend(was_open(false));
        let closing = ops.len();
        ops.extend(was_open(true).chain(opening(true).map(|((_, op), _)| op)));
        let closing = closing..ops.len();
        ops.extend(opening(false).map(|((_, op), _)| op));
        // Every member opens, or closes what is open or opening here.
        let halves = ops.len() - open.len() + closing.len();
        (halves == element.len() && ops.len() <= self.spec.max_active())
            .then_some((closing, open.len()..ops.len()))
    }

    /// The intervals open after the point `element`, by span index.
    fn still_open(&self, open: &[Entry], element: &[Operation]) -> Vec<Entry> {
        let staying = open.iter().copied().filter(|&(i, _)| !self.closes(element, i));
        let mut next: Vec<Entry> =
            staying.chain(self.opening(element).filter(|e| !e.1).map(|e| e.0)).collect();
        next.sort_unstable_by_key(|&(i, _)| i);
        next
    }
}

thread_local! {
    /// The buffer [`IntervalAsCa`]'s `step` lays a point out in, one per
    /// search worker, so that trying a point — and rejecting it, as the
    /// search does with most — allocates nothing.
    static POINT: Cell<Vec<Operation>> = const { Cell::new(Vec::new()) };
}

/// A span index as a half's payload.
fn index(i: usize) -> Value {
    Value::Int(i64::try_from(i).expect("fewer than 2^63 spans"))
}

impl<S: IntervalSpec> CaSpec for IntervalAsCa<'_, S> {
    type State = IntervalState<S::State>;

    fn initial(&self) -> Self::State {
        IntervalState { spec: self.spec.initial(), open: Vec::new(), ended: false }
    }

    fn step(&self, state: &Self::State, element: &CaElement) -> Option<Self::State> {
        let element = element.ops();
        if state.ended {
            return None;
        }
        if let [op] = element {
            if op.thread == self.end {
                let ended = IntervalState { ended: true, ..state.clone() };
                return state.open.is_empty().then_some(ended);
            }
        }
        let mut ops = POINT.take();
        let spec = self.point(&state.open, element, &mut ops).and_then(|(closing, opening)| {
            self.spec.step(&state.spec, &ops, &ops[opening], &ops[closing])
        });
        POINT.set(ops);
        let spec = spec?;
        Some(IntervalState { spec, open: self.still_open(&state.open, element), ended: false })
    }

    /// A point opens at most [`IntervalSpec::max_active`] operations and
    /// closes at most that many again.
    fn max_element_size(&self) -> usize {
        self.spec.max_active().saturating_mul(2)
    }

    /// An open half's are the operation's; a close half proposes a
    /// placeholder, as it closes what its open half opened.
    fn completions_of(&self, inv: &Invocation) -> Vec<Value> {
        if !self.is_opener(inv.thread) {
            return vec![Value::Unit];
        }
        let s = &self.spans[Self::span(inv.arg)];
        self.spec.completions_of(&Invocation::new(s.thread, s.object, s.method, s.arg))
    }

    /// Refuses company for `end`, an open half past
    /// [`IntervalSpec::max_active`], and a close half whose operation is
    /// neither open nor opening among `members` (an open half comes
    /// before its close half).
    fn may_join(
        &self,
        state: &Self::State,
        next: &Invocation,
        mut members: impl Iterator<Item = Invocation>,
    ) -> bool {
        if next.thread == self.end {
            return members.next().is_none();
        }
        if self.is_opener(next.thread) {
            let budget = self.spec.max_active().saturating_sub(state.open.len());
            return members.filter(|m| self.is_opener(m.thread)).count() < budget;
        }
        let i = Self::span(next.arg);
        state.open.binary_search_by_key(&i, |&(j, _)| j).is_ok()
            || members.any(|m| m.thread == self.openers[i] && m.arg == next.arg)
    }
}

/// A sequential specification viewed as an interval one: every operation's
/// interval is a single point at which it both opens and closes, alone.
/// A history is interval-linearizable w.r.t. `SeqAsInterval(spec)` iff it
/// is linearizable w.r.t. `spec` — the cross-checker differential suite
/// relies on this equivalence.
#[derive(Debug, Clone)]
pub struct SeqAsInterval<S> {
    inner: S,
}

impl<S: SeqSpec> SeqAsInterval<S> {
    /// Wraps a sequential specification.
    pub fn new(inner: S) -> Self {
        SeqAsInterval { inner }
    }
}

impl<S: SeqSpec> IntervalSpec for SeqAsInterval<S> {
    type State = S::State;

    fn initial(&self) -> S::State {
        self.inner.initial()
    }

    fn step(
        &self,
        state: &S::State,
        active: &[Operation],
        opening: &[Operation],
        closing: &[Operation],
    ) -> Option<S::State> {
        // Singleton intervals only: one operation, opening and closing at
        // the same point.
        match (active, opening, closing) {
            ([op], [o], [c]) if o == op && c == op => self.inner.apply(state, op),
            _ => None,
        }
    }

    fn max_active(&self) -> usize {
        1
    }

    fn completions_of(&self, inv: &Invocation) -> Vec<Value> {
        self.inner.completions_of(inv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{check_cal_with, CheckError, CheckOptions, CheckOutcome, Verdict};
    
    const O: ObjectId = ObjectId(0);
    const WS: Method = Method("write_snapshot");

    /// The interval reading of `h` under `spec`: the CAL search over the
    /// split history, on `options.threads` workers.
    fn check_with<S: IntervalSpec>(
        h: &History,
        spec: &S,
        options: &CheckOptions,
    ) -> Result<CheckOutcome<IntervalWitness>, CheckError> {
        let (split, halves) = IntervalAsCa::new(spec, h)?;
        let outcome = check_cal_with(&halves, &split, options)?;
        Ok(outcome.map_witness(|trace| split.witness(&trace)))
    }

    fn check<S: IntervalSpec>(h: &History, spec: &S) -> CheckOutcome<IntervalWitness> {
        check_with(h, spec, &CheckOptions::default()).expect("well-formed")
    }

    fn accepts<S: IntervalSpec>(h: &History, spec: &S) -> bool {
        let verdict = check(h, spec).verdict;
        assert!(!verdict.is_undecided(), "{verdict:?}");
        verdict.is_cal()
    }

    /// Write-snapshot over values 0..63: `write_snapshot(v)` returns the
    /// bitmask of all values written by operations whose interval started
    /// no later than this one's end. State = bitmask written so far;
    /// opening adds values; closing ops must return the current mask. At
    /// most `.0` operations are active at once.
    #[derive(Debug)]
    struct WriteSnapshot(usize);

    impl IntervalSpec for WriteSnapshot {
        type State = i64;

        fn initial(&self) -> i64 {
            0
        }

        fn step(
            &self,
            state: &i64,
            _active: &[Operation],
            opening: &[Operation],
            closing: &[Operation],
        ) -> Option<i64> {
            let mut mask = *state;
            for op in opening {
                let v = op.arg.as_int()?;
                if !(0..63).contains(&v) {
                    return None;
                }
                mask |= 1 << v;
            }
            for op in closing {
                if op.ret != Value::Int(mask) {
                    return None;
                }
            }
            Some(mask)
        }

        fn max_active(&self) -> usize {
            self.0
        }

        fn completions_of(&self, _inv: &Invocation) -> Vec<Value> {
            Vec::new()
        }
    }

    fn ws(t: u32, v: i64, snapshot: i64) -> Operation {
        Operation::new(ThreadId(t), O, WS, Value::Int(v), Value::Int(snapshot))
    }

    fn mask(vals: &[i64]) -> i64 {
        vals.iter().fold(0, |m, v| m | (1 << v))
    }

    #[test]
    fn sequential_snapshots_are_interval_linearizable() {
        let a = ws(1, 1, mask(&[1]));
        let b = ws(2, 2, mask(&[1, 2]));
        let h = History::from_actions(vec![
            a.invocation(),
            a.response(),
            b.invocation(),
            b.response(),
        ]);
        assert!(accepts(&h, &WriteSnapshot(4)));
    }

    #[test]
    fn wrong_snapshot_rejected() {
        let a = ws(1, 1, mask(&[1, 5])); // claims to have seen 5
        let h = History::from_actions(vec![a.invocation(), a.response()]);
        assert!(!accepts(&h, &WriteSnapshot(4)));
    }

    #[test]
    fn concurrent_ops_may_share_a_point() {
        let a = ws(1, 1, mask(&[1, 2]));
        let b = ws(2, 2, mask(&[1, 2]));
        let h = History::from_actions(vec![
            a.invocation(),
            b.invocation(),
            a.response(),
            b.response(),
        ]);
        assert!(accepts(&h, &WriteSnapshot(4)));
    }

    /// The Castañeda–Rajsbaum–Raynal separation scenario (§6 of the
    /// paper): A overlaps B and C, B precedes C, B's snapshot excludes C
    /// but includes A, and A's snapshot includes C. A's effect must span
    /// an *interval* covering both B's and C's points — expressible here,
    /// not with single-point (CAL / set-linearizable) assignments.
    #[test]
    fn spanning_operation_is_interval_linearizable() {
        let a = ws(1, 1, mask(&[1, 2, 3])); // sees everyone
        let b = ws(2, 2, mask(&[1, 2])); // sees A but not C
        let c = ws(3, 3, mask(&[1, 2, 3])); // sees everyone
        let h = History::from_actions(vec![
            a.invocation(),
            b.invocation(),
            b.response(), // B closes; C has not started: B ≺H C
            c.invocation(),
            c.response(),
            a.response(),
        ]);
        let outcome = check(&h, &WriteSnapshot(4));
        assert!(outcome.stats.nodes > 0, "engine stats populated");
        let witness = outcome.verdict.witness().expect("expected interval-linearizable");
        // A must be active at (at least) two points.
        let a_points = witness
            .points()
            .iter()
            .filter(|p| p.active.iter().any(|op| op.thread == ThreadId(1)))
            .count();
        assert!(a_points >= 2, "A's interval must span, witness: {witness}");
    }

    /// The same history is *not* CAL w.r.t. the natural one-point
    /// write-snapshot specification: with every operation confined to a
    /// single element, B's and A's returns cannot both be explained.
    #[test]
    fn spanning_operation_is_not_cal() {
        use crate::spec::CaSpec;
        use crate::trace::CaElement;

        /// One-point (set-linearizable) write-snapshot: each element's ops
        /// all return the mask including every value up to this element.
        #[derive(Debug)]
        struct OnePointWs;
        impl CaSpec for OnePointWs {
            type State = i64;
            fn initial(&self) -> i64 {
                0
            }
            fn step(&self, state: &i64, e: &CaElement) -> Option<i64> {
                let mut mask = *state;
                for op in e.ops() {
                    mask |= 1 << op.arg.as_int()?;
                }
                for op in e.ops() {
                    if op.ret != Value::Int(mask) {
                        return None;
                    }
                }
                Some(mask)
            }
            fn max_element_size(&self) -> usize {
                4
            }
            fn completions_of(&self, _: &Invocation) -> Vec<Value> {
                Vec::new()
            }
        }

        let a = ws(1, 1, mask(&[1, 2, 3]));
        let b = ws(2, 2, mask(&[1, 2]));
        let c = ws(3, 3, mask(&[1, 2, 3]));
        let h = History::from_actions(vec![
            a.invocation(),
            b.invocation(),
            b.response(),
            c.invocation(),
            c.response(),
            a.response(),
        ]);
        assert!(!crate::check::is_cal(&h, &OnePointWs).unwrap());
        // …while the interval spec accepts it (previous test).
        assert!(accepts(&h, &WriteSnapshot(4)));
    }

    #[test]
    fn real_time_order_respected() {
        // B ≺H C: C's snapshot must include B, and B's must exclude C.
        let b = ws(2, 2, mask(&[2, 3])); // claims to see C — impossible
        let c = ws(3, 3, mask(&[2, 3]));
        let h = History::from_actions(vec![
            b.invocation(),
            b.response(),
            c.invocation(),
            c.response(),
        ]);
        assert!(!accepts(&h, &WriteSnapshot(4)));
    }

    #[test]
    fn pending_ops_are_droppable() {
        let a = ws(1, 1, mask(&[1]));
        let h = History::from_actions(vec![
            a.invocation(),
            a.response(),
            Action::invoke(ThreadId(2), O, WS, Value::Int(2)),
        ]);
        assert!(accepts(&h, &WriteSnapshot(4)));
    }

    #[test]
    fn empty_history_is_interval_linearizable() {
        assert!(accepts(&History::new(), &WriteSnapshot(4)));
    }

    #[test]
    fn parallel_interval_matches_sequential() {
        let a = ws(1, 1, mask(&[1, 2, 3]));
        let b = ws(2, 2, mask(&[1, 2]));
        let c = ws(3, 3, mask(&[1, 2, 3]));
        let h = History::from_actions(vec![
            a.invocation(),
            b.invocation(),
            b.response(),
            c.invocation(),
            c.response(),
            a.response(),
        ]);
        for threads in [1, 2, 8] {
            let options = CheckOptions { threads, ..CheckOptions::default() };
            let outcome = check_with(&h, &WriteSnapshot(4), &options).unwrap();
            assert!(outcome.verdict.is_cal(), "threads={threads}: {:?}", outcome.verdict);
        }
        // And a refutation, across thread counts.
        let bad = ws(1, 1, mask(&[1, 5]));
        let h = History::from_actions(vec![bad.invocation(), bad.response()]);
        for threads in [1, 4] {
            let options = CheckOptions { threads, ..CheckOptions::default() };
            let outcome = check_with(&h, &WriteSnapshot(4), &options).unwrap();
            assert_eq!(outcome.verdict, Verdict::NotCal, "threads={threads}");
        }
    }

    #[test]
    fn seq_as_interval_matches_linearizability() {
        use crate::spec::SeqSpec;

        /// A write-once flag: `set` then `get` returning 1.
        #[derive(Debug)]
        struct Flag;
        impl SeqSpec for Flag {
            type State = i64;
            fn initial(&self) -> i64 {
                0
            }
            fn apply(&self, state: &i64, op: &Operation) -> Option<i64> {
                match op.method.0 {
                    "set" => (op.ret == Value::Unit).then_some(1),
                    "get" => (op.ret == Value::Int(*state)).then_some(*state),
                    _ => None,
                }
            }
            fn completions_of(&self, _: &Invocation) -> Vec<Value> {
                vec![Value::Unit]
            }
        }

        let set = Operation::new(ThreadId(1), O, Method("set"), Value::Unit, Value::Unit);
        let get_new = Operation::new(ThreadId(2), O, Method("get"), Value::Unit, Value::Int(1));
        let get_stale = Operation::new(ThreadId(2), O, Method("get"), Value::Unit, Value::Int(0));
        let good = History::from_actions(vec![
            set.invocation(),
            set.response(),
            get_new.invocation(),
            get_new.response(),
        ]);
        let bad = History::from_actions(vec![
            set.invocation(),
            set.response(),
            get_stale.invocation(),
            get_stale.response(),
        ]);
        let spec = SeqAsInterval::new(Flag);
        assert!(accepts(&good, &spec));
        assert!(!accepts(&bad, &spec));
        let lin = crate::spec::SeqAsCa::new(Flag);
        assert!(crate::check::is_cal(&good, &lin).unwrap());
        assert!(!crate::check::is_cal(&bad, &lin).unwrap());
    }

    #[test]
    fn split_history_halves_every_operation() {
        // Threads 5 and 9, densely renumbered 0 and 1; t9's call pending.
        let a = ws(5, 1, mask(&[1]));
        let h = History::from_actions(vec![
            a.invocation(),
            Action::invoke(ThreadId(9), O, WS, Value::Int(2)),
            a.response(),
        ]);
        let (_, halves) = IntervalAsCa::new(&WriteSnapshot(4), &h).unwrap();
        let spans = halves.spans();
        let shape: Vec<_> = spans.iter().map(|s| (s.thread.0, s.arg, s.ret)).collect();
        let (zero, one) = (Value::Int(0), Value::Int(1));
        assert_eq!(
            shape,
            [
                (0, zero, Some(zero)),
                (1, zero, Some(zero)),
                (2, one, None),
                (3, one, None),
                (4, Value::Unit, Some(Value::Unit)),
            ]
        );
        // Real time is constraint (ii): the halves of one operation are
        // concurrent, and `end` follows every complete half.
        assert!(History::spans_concurrent(&spans[0], &spans[1]));
        assert!(History::spans_precede(&spans[1], &spans[4]));
        assert!(History::spans_concurrent(&spans[3], &spans[4]));
        let ill = History::from_actions(vec![a.response()]);
        assert!(IntervalAsCa::new(&WriteSnapshot(4), &ill).is_err());
    }

    #[test]
    fn end_waits_for_every_open_interval() {
        // A pending write the spec completes, so that it may open.
        #[derive(Debug)]
        struct Completing;
        impl IntervalSpec for Completing {
            type State = i64;
            fn initial(&self) -> i64 {
                0
            }
            fn step(&self, s: &i64, a: &[Operation], o: &[Operation], c: &[Operation]) -> Option<i64> {
                WriteSnapshot(4).step(s, a, o, c)
            }
            fn completions_of(&self, _: &Invocation) -> Vec<Value> {
                vec![Value::Int(mask(&[1]))]
            }
        }
        let h = History::from_actions(vec![Action::invoke(ThreadId(0), O, WS, Value::Int(1))]);
        let (split, halves) = IntervalAsCa::new(&Completing, &h).unwrap();
        let [open, close, end] = halves.spans()[..] else { panic!("three spans") };
        let ret = Value::Int(mask(&[1]));
        let element = |span: Span, ret| CaElement::singleton(span.operation_with_ret(ret));
        let start = split.initial();
        let opened = split.step(&start, &element(open, ret)).expect("the write opens");
        assert_eq!(split.step(&opened, &element(end, Value::Unit)), None, "open at the end");
        let closed = split.step(&opened, &element(close, Value::Unit)).expect("and closes");
        let ended = split.step(&closed, &element(end, Value::Unit)).expect("then it may end");
        assert_eq!(split.step(&ended, &element(open, ret)), None, "nothing after the end");
        // The search opens it once, with its completion, or drops it.
        let witness = check(&h, &Completing).verdict.witness().cloned().unwrap();
        assert!(witness.points().iter().all(|p| p.active.iter().all(|op| op.ret == ret)));
    }

    #[test]
    fn a_close_half_waits_for_its_open_half_and_opens_keep_to_the_budget() {
        let (a, b) = (ws(0, 1, mask(&[1, 2])), ws(1, 2, mask(&[1, 2])));
        let h = History::from_actions(vec![
            a.invocation(),
            b.invocation(),
            a.response(),
            b.response(),
        ]);
        let spec = WriteSnapshot(1);
        let (split, halves) = IntervalAsCa::new(&spec, &h).unwrap();
        let spans = halves.spans();
        let inv = |i: usize| {
            let s = &spans[i];
            Invocation::new(s.thread, s.object, s.method, s.arg)
        };
        let start = split.initial();
        let may_join = |i, members: &[usize]| {
            split.may_join(&start, &inv(i), members.iter().map(|&j| inv(j)))
        };
        assert!(may_join(0, &[]), "an open half");
        assert!(may_join(1, &[0]), "a close half behind its open half");
        assert!(!may_join(1, &[]), "a close half alone");
        assert!(!may_join(3, &[0]), "another operation's close half");
        assert!(!may_join(2, &[0]), "a second open half past max_active 1");
        assert!(!may_join(4, &[0]), "company for `end`");
        // Both must be active together, which max_active 1 rules out.
        assert!(!accepts(&h, &spec));
        assert!(accepts(&h, &WriteSnapshot(2)));
    }

    #[test]
    fn five_concurrent_snapshots_need_five_active() {
        let ops: Vec<Operation> = (1..=5).map(|v| ws(v as u32, v, mask(&[1, 2, 3, 4, 5]))).collect();
        let mut actions: Vec<Action> = ops.iter().map(Operation::invocation).collect();
        actions.extend(ops.iter().map(Operation::response));
        let h = History::from_actions(actions);
        assert!(!accepts(&h, &WriteSnapshot(4)));
        let outcome = check(&h, &WriteSnapshot(usize::MAX));
        let witness = outcome.verdict.witness().expect("interval-linearizable");
        assert!(witness.points().iter().any(|p| p.active.len() == 5), "{witness}");
    }
}
