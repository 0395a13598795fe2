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
//! operations in one point are pairwise concurrent in `H`. CAL is the
//! special case where every interval has length one.
//!
//! Like the CAL checker, this module is a thin domain over the shared
//! search kernel ([`crate::engine`]): `IntervalDomain` enumerates
//! candidate points, and budgets, deadlines, cancellation, memoization,
//! [`crate::obs::StatsSink`] observability and the parallel driver
//! ([`check_interval_par_with`]) come from the engine. The verdict is the
//! common [`Verdict`] taxonomy with an [`IntervalWitness`] payload.

use std::fmt::{self, Debug};
use std::hash::Hash;

use crate::bitset::BitSet;
use crate::engine::{self, ExpandObs, SearchDomain, SpecRef};
use crate::history::{complete_set, HbRelation, History, HistoryError, PartialHistory, Span};
use crate::ids::Value;
use crate::op::Operation;
use crate::spec::{Invocation, SeqSpec};

pub use crate::engine::{CheckError, CheckOptions, CheckOutcome, InterruptReason, Verdict};

use std::borrow::Cow;

/// An interval-sequential specification: a stateful acceptor over interval
/// points.
pub trait IntervalSpec {
    /// Acceptor state.
    type State: Clone + Eq + Hash + Debug;

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
    /// specification admits; limits the checker's branching.
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
    /// Wraps a point sequence as a witness.
    pub fn new(points: Vec<IntervalPoint>) -> Self {
        IntervalWitness { points }
    }

    /// The witness points, in order.
    pub fn points(&self) -> &[IntervalPoint] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the witness has no points (empty or pending-only history).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Consumes the witness, yielding its points.
    pub fn into_points(self) -> Vec<IntervalPoint> {
        self.points
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

/// Decides interval-linearizability of `history` w.r.t. `spec`.
///
/// The outcome uses the common [`Verdict`] taxonomy with an
/// [`IntervalWitness`] payload ([`Verdict::Cal`] meaning
/// *interval-linearizable*), plus the engine's [`crate::check::CheckStats`].
///
/// # Errors
///
/// Returns [`CheckError::IllFormed`] if the history is not well-formed.
pub fn check_interval<S: IntervalSpec>(
    history: &History,
    spec: &S,
) -> Result<CheckOutcome<IntervalWitness>, CheckError> {
    check_interval_with(history, spec, &CheckOptions::default())
}

/// Like [`check_interval`], with explicit options.
///
/// # Errors
///
/// Returns [`CheckError::IllFormed`] if the history is not well-formed.
pub fn check_interval_with<S: IntervalSpec>(
    history: &History,
    spec: &S,
    options: &CheckOptions,
) -> Result<CheckOutcome<IntervalWitness>, CheckError> {
    let domain = IntervalDomain::new(Cow::Borrowed(history), SpecRef::Borrowed(spec))?;
    Ok(engine::search(&domain, options)?.map_witness(IntervalWitness::new))
}

/// Like [`check_interval_with`], run on the engine's parallel driver
/// ([`engine::search_par`]): the candidate first points are enumerated
/// once and split across workers sharing one lock-free memo table and a
/// global node budget — inherited from the shared kernel, with the same
/// verdict and interrupt semantics as the CAL checker.
///
/// # Errors
///
/// Returns [`CheckError::IllFormed`] if the history is not well-formed
/// and [`CheckError::SpecPanicked`] if the specification panics.
pub fn check_interval_par_with<S>(
    history: &History,
    spec: &S,
    options: &CheckOptions,
) -> Result<CheckOutcome<IntervalWitness>, CheckError>
where
    S: IntervalSpec + Sync,
    S::State: Send + Sync,
{
    let domain = IntervalDomain::new(Cow::Borrowed(history), SpecRef::Borrowed(spec))?;
    Ok(engine::search_par(&domain, options)?.map_witness(IntervalWitness::new))
}

/// Convenience predicate for [`check_interval`].
///
/// # Errors
///
/// Returns [`CheckError::IllFormed`] for ill-formed histories,
/// [`CheckError::SpecPanicked`] when the spec panics, and
/// [`CheckError::Undecided`] when the budget runs out before the search
/// decides.
pub fn is_interval_linearizable<S: IntervalSpec>(
    history: &History,
    spec: &S,
) -> Result<bool, CheckError> {
    match check_interval(history, spec)?.verdict {
        Verdict::Cal(_) => Ok(true),
        Verdict::NotCal => Ok(false),
        Verdict::ResourcesExhausted => Err(CheckError::Undecided(Verdict::ResourcesExhausted)),
        Verdict::Interrupted { reason } => {
            Err(CheckError::Undecided(Verdict::Interrupted { reason }))
        }
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

    /// The wrapped specification.
    pub fn inner(&self) -> &S {
        &self.inner
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

/// A search node: closed operations, currently open intervals (span index
/// plus the chosen operation, sorted by index) and the spec state. Also
/// the memo key — the open set is part of the residual state, which is why
/// interval memo keys cannot collapse onto the CAL checker's
/// `(matched-set, state)` pairs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct IntervalNode<St> {
    done: BitSet,
    open: Vec<(usize, Operation)>,
    state: St,
}

/// The interval checker as a [`SearchDomain`]: steps are interval points,
/// and expansion enumerates opening subsets (pairwise concurrent, bounded
/// by [`IntervalSpec::max_active`]), completion choices for pending
/// openers, and closing subsets, keeping every point the spec accepts.
struct IntervalDomain<'a, S: IntervalSpec> {
    spec: SpecRef<'a, S>,
    spans: Vec<Span>,
    /// The order the search runs over: always the real-time instance of
    /// [`PartialHistory`] here — interval-linearizability is defined
    /// against `≺H`.
    hb: HbRelation,
    /// The spans a goal node must have closed.
    complete: BitSet,
}

impl<'a, S: IntervalSpec> IntervalDomain<'a, S> {
    fn new(history: Cow<'a, History>, spec: SpecRef<'a, S>) -> Result<Self, HistoryError> {
        let spans = history.try_spans()?;
        let hb = HbRelation::real_time(&spans);
        let complete = complete_set(&spans);
        Ok(IntervalDomain { spec, spans, hb, complete })
    }

    /// Grows the opening subset over `openable[from..]` and collects every
    /// candidate point. Returns `false` when a cooperative stop was
    /// requested mid-enumeration.
    #[allow(clippy::too_many_arguments)]
    fn enumerate_openings(
        &self,
        openable: &[usize],
        from: usize,
        max_new: usize,
        opening: &mut Vec<usize>,
        node: &IntervalNode<S::State>,
        obs: &mut ExpandObs<'_, '_>,
        out: &mut Vec<(IntervalPoint, IntervalNode<S::State>)>,
    ) -> bool {
        // A candidate point needs something active: either already-open
        // intervals or at least one opener.
        if (!node.open.is_empty() || !opening.is_empty())
            && !self.collect_points(opening, node, obs, out)
        {
            return false;
        }
        if opening.len() == max_new {
            return true;
        }
        for (k, &i) in openable.iter().enumerate().skip(from) {
            // New ops must be pairwise concurrent with the already-chosen
            // openings and with everything currently open.
            let concurrent = opening.iter().all(|&j| self.hb.concurrent(i, j))
                && node.open.iter().all(|&(j, _)| self.hb.concurrent(i, j));
            if !concurrent {
                continue;
            }
            opening.push(i);
            let keep = self.enumerate_openings(openable, k + 1, max_new, opening, node, obs, out);
            opening.pop();
            if !keep {
                return false;
            }
        }
        true
    }

    /// Enumerates completion choices for the opening set and closing
    /// subsets of the active set, collecting every point the spec accepts.
    /// Returns `false` when a cooperative stop was requested.
    fn collect_points(
        &self,
        opening: &[usize],
        node: &IntervalNode<S::State>,
        obs: &mut ExpandObs<'_, '_>,
        out: &mut Vec<(IntervalPoint, IntervalNode<S::State>)>,
    ) -> bool {
        // Resolve the operations of the opening set (pending invocations
        // get spec-proposed completions).
        let mut opening_choices: Vec<Vec<Operation>> = Vec::with_capacity(opening.len());
        for &i in opening {
            let s = &self.spans[i];
            let choices = match s.operation() {
                Some(op) => vec![op],
                None => {
                    let inv = Invocation::new(s.thread, s.object, s.method, s.arg);
                    self.spec
                        .get()
                        .completions_of(&inv)
                        .into_iter()
                        .map(|ret| s.operation_with_ret(ret))
                        .collect()
                }
            };
            if choices.is_empty() {
                return true;
            }
            opening_choices.push(choices);
        }
        let mut pick = vec![0usize; opening.len()];
        loop {
            if obs.should_stop() {
                return false;
            }
            let opening_ops: Vec<(usize, Operation)> = opening
                .iter()
                .enumerate()
                .map(|(k, &i)| (i, opening_choices[k][pick[k]]))
                .collect();
            // Active set = open ∪ opening.
            let mut active: Vec<(usize, Operation)> = node.open.clone();
            active.extend(opening_ops.iter().copied());
            // Enumerate closing subsets of the active set (2^|active|,
            // bounded by max_active).
            let m = active.len();
            for mask in 0..(1u32 << m) {
                let closing: Vec<(usize, Operation)> =
                    (0..m).filter(|&b| mask & (1 << b) != 0).map(|b| active[b]).collect();
                // A point must make progress: open or close something.
                if opening.is_empty() && closing.is_empty() {
                    continue;
                }
                let active_ops: Vec<Operation> = active.iter().map(|&(_, o)| o).collect();
                let opening_only: Vec<Operation> = opening_ops.iter().map(|&(_, o)| o).collect();
                let closing_ops: Vec<Operation> = closing.iter().map(|&(_, o)| o).collect();
                obs.on_element_tried();
                if let Some(next) =
                    self.spec.get().step(&node.state, &active_ops, &opening_only, &closing_ops)
                {
                    // Commit: move closings to done, keep the rest open.
                    let mut next_open: Vec<(usize, Operation)> = active
                        .iter()
                        .filter(|&&(i, _)| !closing.iter().any(|&(j, _)| j == i))
                        .copied()
                        .collect();
                    next_open.sort_unstable_by_key(|&(i, _)| i);
                    let mut next_done = node.done.clone();
                    for &(i, _) in &closing {
                        next_done.insert(i);
                    }
                    out.push((
                        IntervalPoint {
                            active: active_ops,
                            opening: opening_only,
                            closing: closing_ops,
                        },
                        IntervalNode { done: next_done, open: next_open, state: next },
                    ));
                }
            }
            // Advance completion choices.
            let mut d = 0;
            loop {
                if d == pick.len() {
                    return true;
                }
                pick[d] += 1;
                if pick[d] < opening_choices[d].len() {
                    break;
                }
                pick[d] = 0;
                d += 1;
            }
        }
    }
}

impl<S: IntervalSpec> SearchDomain for IntervalDomain<'_, S> {
    type Node = IntervalNode<S::State>;
    type Step = IntervalPoint;
    type Scratch = ();

    fn initial(&self) -> Self::Node {
        IntervalNode {
            done: BitSet::new(self.spans.len().max(1)),
            open: Vec::new(),
            state: self.spec.get().initial(),
        }
    }

    fn is_goal(&self, node: &Self::Node) -> bool {
        node.open.is_empty() && self.complete.is_subset(&node.done)
    }

    fn expand(
        &self,
        node: &Self::Node,
        (): &mut (),
        obs: &mut ExpandObs<'_, '_>,
        out: &mut Vec<(Self::Step, Self::Node)>,
    ) {
        // Operations that may open here: neither done nor open, and every
        // ≺H-predecessor is already done (its interval closed earlier).
        let mut openable: Vec<usize> = Vec::new();
        self.hb.minimal(&node.done, &mut openable);
        openable.retain(|&i| node.open.iter().all(|&(j, _)| j != i));
        obs.on_frontier(openable.len());
        let max_new = self.spec.get().max_active().saturating_sub(node.open.len());
        // Enumerate opening subsets (including empty when something is
        // already open), then closing subsets (non-trivial points only).
        let mut opening: Vec<usize> = Vec::new();
        self.enumerate_openings(&openable, 0, max_new, &mut opening, node, obs, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::ids::{Method, ObjectId, ThreadId};

    const O: ObjectId = ObjectId(0);
    const WS: Method = Method("write_snapshot");

    /// Write-snapshot over values 0..63: `write_snapshot(v)` returns the
    /// bitmask of all values written by operations whose interval started
    /// no later than this one's end. State = bitmask written so far;
    /// opening adds values; closing ops must return the current mask.
    #[derive(Debug)]
    struct WriteSnapshot;

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
        assert!(is_interval_linearizable(&h, &WriteSnapshot).unwrap());
    }

    #[test]
    fn wrong_snapshot_rejected() {
        let a = ws(1, 1, mask(&[1, 5])); // claims to have seen 5
        let h = History::from_actions(vec![a.invocation(), a.response()]);
        assert!(!is_interval_linearizable(&h, &WriteSnapshot).unwrap());
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
        assert!(is_interval_linearizable(&h, &WriteSnapshot).unwrap());
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
        let outcome = check_interval(&h, &WriteSnapshot).unwrap();
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
        assert!(is_interval_linearizable(&h, &WriteSnapshot).unwrap());
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
        assert!(!is_interval_linearizable(&h, &WriteSnapshot).unwrap());
    }

    #[test]
    fn pending_ops_are_droppable() {
        let a = ws(1, 1, mask(&[1]));
        let h = History::from_actions(vec![
            a.invocation(),
            a.response(),
            Action::invoke(ThreadId(2), O, WS, Value::Int(2)),
        ]);
        assert!(is_interval_linearizable(&h, &WriteSnapshot).unwrap());
    }

    #[test]
    fn empty_history_is_interval_linearizable() {
        assert!(is_interval_linearizable(&History::new(), &WriteSnapshot).unwrap());
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
            let outcome = check_interval_par_with(&h, &WriteSnapshot, &options).unwrap();
            assert!(outcome.verdict.is_cal(), "threads={threads}: {:?}", outcome.verdict);
        }
        // And a refutation, across thread counts.
        let bad = ws(1, 1, mask(&[1, 5]));
        let h = History::from_actions(vec![bad.invocation(), bad.response()]);
        for threads in [1, 4] {
            let options = CheckOptions { threads, ..CheckOptions::default() };
            let outcome = check_interval_par_with(&h, &WriteSnapshot, &options).unwrap();
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
        assert!(is_interval_linearizable(&good, &spec).unwrap());
        assert!(!is_interval_linearizable(&bad, &spec).unwrap());
        let lin = crate::spec::SeqAsCa::new(Flag);
        assert!(crate::check::is_cal(&good, &lin).unwrap());
        assert!(!crate::check::is_cal(&bad, &lin).unwrap());
    }
}
