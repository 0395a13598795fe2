//! Concurrency-aware linearizability membership checking (Def. 6).
//!
//! An object system `OS` is CAL with respect to a trace set `𝒯` when every
//! history `H ∈ OS` has a completion `Hᶜ` and a trace `T ∈ 𝒯` such that
//! `Hᶜ ⊑CAL T`. Given one history and a [`CaSpec`], [`check_cal`] decides
//! whether such a completion and trace exist, returning a witness trace.
//!
//! The search generalizes the classical Wing–Gong linearizability search:
//! instead of repeatedly extracting one minimal operation, it extracts a
//! *CA-element* — a set of pairwise-concurrent minimal operations on one
//! object accepted by the specification. Pending invocations may join an
//! element (completing them with a spec-proposed return value) or remain
//! unassigned (dropping them, per Def. 2's completions). Failed search
//! states are memoized on `(matched-set, spec-state)`. Interchangeable
//! operations are matched in one order, so one successor is generated
//! per orbit of them ([`crate::symmetry`]).
//!
//! Classical linearizability is this search's singleton-element fragment:
//! a sequential specification lifted by [`crate::spec::SeqAsCa`] admits
//! only one-operation elements, so the search extracts one minimal
//! operation at a time — the Wing–Gong search, with nothing of its own.
//!
//! Interval-linearizability is this search too, one level up: split every
//! operation into an open and a close half and every CA-element is one
//! interval point ([`crate::interval`]).
//!
//! This module is a thin *domain* over the shared search kernel
//! ([`crate::engine`]): `CalDomain` enumerates candidate CA-elements,
//! while budgets, deadlines, memoization, observability and parallelism
//! live in the engine. A domain borrows what it searches: a list of spans
//! and an order over them, built by its caller.
//!
//! CAL's locality is this module's too: [`check_cal_with`] reads a
//! history's spans once and, before it builds any domain, partitions
//! them by object. Each part keeps the whole history's action indices,
//! so no projected history is built, and an acceptance stitches the
//! parts' witnesses by where their invocations fall.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::agree::explain;
use crate::engine::{self, panic_message, ExpandObs, SearchDomain};
use crate::history::{by_object, Cut, HbRelation, History, Span};
use crate::ids::{ObjectId, Value};
use crate::op::Operation;
use crate::spec::{CaSpec, Invocation};
use crate::symmetry::SymClasses;
use crate::trace::{CaElement, CaTrace};

pub use crate::engine::{
    CancelToken, CheckError, CheckOptions, CheckOutcome, CheckStats, InterruptReason, Verdict,
};

/// Decides whether `history` is concurrency-aware linearizable with respect
/// to `spec` (Def. 6), with default options.
///
/// # Errors
///
/// Returns [`CheckError::IllFormed`] if the history is not well-formed.
///
/// # Examples
///
/// ```
/// # use cal_core::{check, Action, History, Method, ObjectId, ThreadId, Value};
/// # use cal_core::spec::{CaSpec, Invocation};
/// # use cal_core::trace::CaElement;
/// #[derive(Debug)]
/// struct AnySingleton;
/// impl CaSpec for AnySingleton {
///     type State = ();
///     fn initial(&self) {}
///     fn step(&self, _: &(), e: &CaElement) -> Option<()> { (e.len() == 1).then_some(()) }
///     fn completions_of(&self, _: &Invocation) -> Vec<Value> { vec![] }
/// }
/// let o = ObjectId(0);
/// let m = Method("noop");
/// let h = History::from_actions(vec![
///     Action::invoke(ThreadId(0), o, m, Value::Unit),
///     Action::response(ThreadId(0), o, m, Value::Unit),
/// ]);
/// let outcome = check::check_cal(&h, &AnySingleton)?;
/// assert!(outcome.verdict.is_cal());
/// # Ok::<(), cal_core::check::CheckError>(())
/// ```
pub fn check_cal<S: CaSpec>(history: &History, spec: &S) -> Result<CheckOutcome, CheckError> {
    check_cal_with(history, spec, &CheckOptions::default())
}

/// Like [`check_cal`], with explicit [`CheckOptions`], on
/// [`CheckOptions::threads`] workers.
///
/// When the history touches several objects and the specification can be
/// restricted to every one of them ([`CaSpec::restrict`]), the check
/// splits into independent per-object subchecks (CAL locality) before
/// any order is built, at every thread count: one search problem per
/// object's share of the history's spans, and their witnesses
/// interleaved into one that respects the whole history's real-time
/// order. Otherwise the whole
/// history is one problem, and above one thread every worker searches it
/// in its own successor order, the workers sharing one lock-free memo
/// table. Every thread count gives the same verdict on decided inputs —
/// `Cal` exactly when a witness exists (possibly a different, equally
/// valid one) — with `max_nodes` a budget on the *total* nodes across
/// workers ([`crate::engine::search`]).
///
/// # Errors
///
/// Returns [`CheckError::IllFormed`] if the history is not well-formed
/// and [`CheckError::SpecPanicked`] if the specification panics.
pub fn check_cal_with<S: CaSpec>(
    history: &History,
    spec: &S,
    options: &CheckOptions,
) -> Result<CheckOutcome, CheckError> {
    let spans = history.try_spans()?;
    let objects = objects_of(&spans);
    if let Some(specs) = restrict_to(spec, &objects)? {
        return check_by_object(by_object(spans), &specs, options);
    }
    let hb = HbRelation::real_time(&spans);
    let domain = CalDomain::new(&spans, &hb, spec);
    Ok(engine::search(&domain, options)?.map_witness(|steps| domain.trace_of(&steps)))
}

/// The objects `spans` touch, in first-use order, in one hashed pass. (An
/// object is first used by an invocation, and spans are in invocation
/// order.)
fn objects_of(spans: &[Span]) -> Vec<ObjectId> {
    let mut seen = HashSet::new();
    spans.iter().map(|s| s.object).filter(|&o| seen.insert(o)).collect()
}

/// `spec` restricted to each of `objects`, when there are two or more and
/// it restricts to every one: the case [`check_by_object`] splits.
fn restrict_to<S: CaSpec>(spec: &S, objects: &[ObjectId]) -> Result<Option<Vec<S>>, CheckError> {
    if objects.len() < 2 {
        return Ok(None);
    }
    catch_unwind(AssertUnwindSafe(|| objects.iter().map(|&o| spec.restrict(o)).collect()))
        .map_err(|p| CheckError::SpecPanicked(panic_message(p)))
}

/// [`check_cal_with`]'s per-object split: a history's spans grouped by
/// object ([`by_object`]), each part keeping the whole history's action
/// indices, and searched against `specs`, the specification restricted
/// to each part's object in turn. An acceptance is every part's witness
/// [`stitch`]ed into one.
fn check_by_object<S: CaSpec>(
    parts: Vec<(ObjectId, Vec<Span>)>,
    specs: &[S],
    options: &CheckOptions,
) -> Result<CheckOutcome, CheckError> {
    let orders: Vec<HbRelation> = parts.iter().map(|(_, spans)| HbRelation::real_time(spans)).collect();
    let domains: Vec<(ObjectId, CalDomain<'_, S>)> = parts
        .iter()
        .zip(specs)
        .zip(&orders)
        .map(|(((o, spans), spec), hb)| (*o, CalDomain::new(spans, hb, spec)))
        .collect();
    let outcome = engine::search_parts(&domains, options)?.map_witness(|witnesses| {
        let keyed = domains.iter().zip(witnesses).map(|((_, domain), steps)| {
            steps.iter().map(|step| (domain.element_of(step), domain.last_invocation(step))).collect()
        });
        keyed.collect()
    });
    // The domains go before the stitch allocates.
    drop(domains);
    drop((orders, parts));
    Ok(outcome.map_witness(|parts| stitch(parts).into_iter().collect()))
}

/// Interleaves per-part witnesses into one sequence respecting the whole
/// history's real-time order. Each entry is an element and the largest
/// invocation index among its operations; each element is put at its
/// *point* — the running maximum of those indices along its part's
/// witness — and the elements are sorted by `(point, part)`, stably, so
/// every part keeps its order.
///
/// No precedence is inverted. Inside an element every invocation
/// precedes every response, and a part's witness never places an element
/// after one that must precede it, so every invocation up to and
/// including element `F` in its part precedes `F`'s earliest response:
/// `point(F) < minresp(F)`. If `F ≺H E`, then `minresp(F) < maxinv(E) ≤
/// point(E)`, so `F` sorts first.
fn stitch<T>(parts: Vec<Vec<(T, usize)>>) -> Vec<T> {
    let mut placed: Vec<(usize, usize, T)> = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    for (k, part) in parts.into_iter().enumerate() {
        let mut point = 0;
        for (item, maxinv) in part {
            point = point.max(maxinv);
            placed.push((point, k, item));
        }
    }
    placed.sort_by_key(|&(point, k, _)| (point, k));
    placed.into_iter().map(|(_, _, item)| item).collect()
}

/// Convenience predicate: `Ok(true)` iff the history is CAL w.r.t. `spec`.
///
/// # Errors
///
/// Returns [`CheckError::IllFormed`] for ill-formed histories,
/// [`CheckError::SpecPanicked`] when the spec panics, and
/// [`CheckError::Undecided`] when the default node budget runs out before
/// the search decides.
pub fn is_cal<S: CaSpec>(history: &History, spec: &S) -> Result<bool, CheckError> {
    is_cal_with(history, spec, &CheckOptions::default())
}

/// Like [`is_cal`], with explicit [`CheckOptions`].
///
/// # Errors
///
/// As [`is_cal`]; a deadline or cancellation interrupt also surfaces as
/// [`CheckError::Undecided`].
pub fn is_cal_with<S: CaSpec>(
    history: &History,
    spec: &S,
    options: &CheckOptions,
) -> Result<bool, CheckError> {
    let outcome = check_cal_with(history, spec, options)?;
    match outcome.verdict {
        Verdict::Cal(_) => Ok(true),
        Verdict::NotCal => Ok(false),
        undecided => Err(CheckError::Undecided(undecided)),
    }
}

/// Validates a [`Verdict::Cal`] witness against a (possibly incomplete)
/// history: the specification must accept `witness`, and some completion
/// of `history` (Def. 2) must agree with it (Def. 5).
///
/// The completion is the one the witness implies: every complete
/// operation must appear in the trace exactly once; a thread's pending
/// invocation may additionally appear once, completed with the return
/// value the trace assigns it; pending invocations absent from the trace
/// are dropped. Returns `false` for ill-formed histories.
///
/// This is the oracle the differential tests use to cross-validate
/// witnesses produced at every thread count.
pub fn witness_explains<S: CaSpec>(history: &History, spec: &S, witness: &CaTrace) -> bool {
    let Ok(spans) = history.try_spans() else { return false };
    spec.accepts(witness) && explain(&spans, witness, &HbRelation::real_time(&spans)).is_some()
}

/// One step of a CAL witness, as the search keeps it: the spans the
/// CA-element matched and, for its pending members, the return values it
/// completed them with. That is all a witness needs — the element is
/// rebuilt from the spans by [`CalDomain::trace_of`], for the steps of a
/// witness only — so a successor carries no copy of its element.
#[derive(Debug, Clone)]
pub(crate) struct CalStep {
    subset: Subset,
    /// One return value per pending member, in member order; empty (and
    /// unallocated) for an element of complete operations.
    completions: Vec<Value>,
}

/// The span indices of one CA-element, ascending. Elements are small —
/// the paper's objects pair operations up — so up to four indices are
/// kept in place, unused places holding `u32::MAX`.
#[derive(Debug, Clone)]
enum Subset {
    Inline([u32; 4]),
    Heap(Box<[usize]>),
}

impl Subset {
    fn of(spans: &[usize]) -> Self {
        let mut inline = [u32::MAX; 4];
        if spans.len() > inline.len() {
            return Subset::Heap(spans.into());
        }
        for (place, &i) in inline.iter_mut().zip(spans) {
            match u32::try_from(i) {
                Ok(i) if i != u32::MAX => *place = i,
                _ => return Subset::Heap(spans.into()),
            }
        }
        Subset::Inline(inline)
    }

    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let (inline, heap): (&[u32], &[usize]) = match self {
            Subset::Inline(spans) => (spans, &[]),
            Subset::Heap(spans) => (&[], spans),
        };
        let inline = inline.iter().take_while(|&&i| i != u32::MAX).map(|&i| i as usize);
        inline.chain(heap.iter().copied())
    }
}

/// The buffers one worker's candidate loop refills at every expansion
/// ([`SearchDomain::Scratch`]), so that trying a candidate element — and
/// rejecting it, as the search does with most — allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct CalScratch {
    /// The node's minimal spans.
    minimal: Vec<usize>,
    candidate: Candidate,
}

/// The subset being tried as the next CA-element.
#[derive(Debug, Default)]
struct Candidate {
    /// Its spans, in the order [`CalDomain::grow`] picked them.
    subset: Vec<usize>,
    /// Its operations: lent to [`CaElement::new`], taken back once the
    /// specification has seen the element.
    ops: Vec<Operation>,
    /// Its members as the specification sees them when asked to complete
    /// one among the others, and those others.
    invocations: Vec<Invocation>,
    peers: Vec<Invocation>,
    /// The return values proposed for its pending members, back to back.
    rets: Vec<Value>,
    /// Per pending member, in member order: its range of `rets` and the
    /// one currently picked — the digits of a mixed-radix counter over the
    /// completion choices, the first member's running fastest.
    pending: Vec<Digit>,
}

#[derive(Debug)]
struct Digit {
    first: usize,
    end: usize,
    pick: usize,
}

/// What one expansion reads and writes besides the candidate itself.
struct Expansion<'x, 'e, 'a, S: CaSpec> {
    matched: &'x Cut,
    state: &'x S::State,
    max_size: usize,
    /// Generate one successor per orbit of interchangeable spans.
    symmetry: bool,
    obs: &'x mut ExpandObs<'e, 'a>,
    out: &'x mut Vec<(CalStep, (Cut, S::State))>,
}

/// The CAL checker as a [`SearchDomain`]: nodes are `(matched-set,
/// spec-state)` pairs (also the memo key), the matched set a [`Cut`] of
/// the order's chain cover, steps are CA-elements, and
/// expansion enumerates subsets of minimal operations that are same-object,
/// pairwise concurrent and accepted by the specification, completing
/// pending members with spec-proposed return values.
pub(crate) struct CalDomain<'a, S: CaSpec> {
    spec: &'a S,
    /// The spans searched, in invocation order. Their action indices are
    /// read only for their relative order, so a part of a history keeps
    /// the whole history's.
    spans: &'a [Span],
    /// The happens-before relation the search runs over: real-time `≺H`
    /// for CAL mode, a causal partial order for `--mode causal`.
    hb: &'a HbRelation,
    /// The cut a goal node must reach: every complete span, which is a
    /// prefix of every chain (a pending span precedes nothing in real
    /// time and is last in its session).
    goal: Cut,
    /// Interchangeability classes, built from `hb`'s constraint sets:
    /// [`CalDomain::grow`] matches each one as a prefix.
    sym: SymClasses,
}

impl<'a, S: CaSpec> CalDomain<'a, S> {
    /// The search of `spans` — a well-formed history's, or a part of
    /// them — over `hb`, a relation built over exactly those spans.
    pub(crate) fn new(spans: &'a [Span], hb: &'a HbRelation, spec: &'a S) -> Self {
        debug_assert_eq!(hb.len(), spans.len(), "hb relation built over different spans");
        let sym = SymClasses::of_order(spans, hb);
        let mut goal = hb.empty_cut();
        for (i, _) in spans.iter().enumerate().filter(|(_, s)| s.is_complete()) {
            hb.take(&mut goal, i);
        }
        CalDomain { spec, spans, hb, goal, sym }
    }

    /// The node a search of this history from `state` starts at: nothing
    /// matched yet. The streaming checker hands one per state a part of
    /// its window holds to [`engine::search_from`], which runs the batch's
    /// DFS from all of them against one memo.
    pub(crate) fn root(&self, state: S::State) -> (Cut, S::State) {
        (self.hb.empty_cut(), state)
    }

    /// Span `i` as the specification sees an operation it may complete.
    fn invocation(&self, i: usize) -> Invocation {
        let s = &self.spans[i];
        Invocation::new(s.thread, s.object, s.method, s.arg)
    }

    /// The operations of the spans `subset`, the pending ones completed
    /// with `rets` in turn.
    fn operations<'s>(
        &'s self,
        subset: impl Iterator<Item = usize> + 's,
        mut rets: impl Iterator<Item = Value> + 's,
    ) -> impl Iterator<Item = Operation> + 's {
        subset.map(move |i| {
            let span = &self.spans[i];
            span.operation().unwrap_or_else(|| {
                span.operation_with_ret(rets.next().expect("a return value per pending member"))
            })
        })
    }

    /// Assembles the engine's step sequence into a [`CaTrace`] witness,
    /// rebuilding each step's CA-element from the spans it matched.
    pub(crate) fn trace_of(&self, steps: &[CalStep]) -> CaTrace {
        steps.iter().map(|step| self.element_of(step)).collect()
    }

    /// The CA-element `step` matched, rebuilt from its spans.
    fn element_of(&self, step: &CalStep) -> CaElement {
        let rets = step.completions.iter().copied();
        let ops: Vec<Operation> = self.operations(step.subset.iter(), rets).collect();
        CaElement::new(ops[0].object, ops).expect("the search built this element before")
    }

    /// The largest action index among the invocations `step` matched:
    /// its entry in [`stitch`].
    fn last_invocation(&self, step: &CalStep) -> usize {
        step.subset.iter().map(|i| self.spans[i].inv).max().unwrap_or(0)
    }

    /// Grows the candidate subset over `minimal[from..]` and tries every
    /// non-empty prefix-closed choice as a CA-element — with symmetry
    /// reduction on, every choice that takes each clone class's unmatched
    /// members as a prefix — that [`CaSpec::may_join`] lets grow span by
    /// span. Returns `false` when a cooperative stop was requested
    /// mid-enumeration.
    fn grow(
        &self,
        minimal: &[usize],
        from: usize,
        c: &mut Candidate,
        x: &mut Expansion<'_, '_, '_, S>,
    ) -> bool {
        if !c.subset.is_empty() && !self.try_subset(c, x) {
            return false;
        }
        if c.subset.len() == x.max_size {
            return true;
        }
        for (k, &i) in minimal.iter().enumerate().skip(from) {
            // One successor per orbit: a clone joins only behind the one
            // before it, so every class is matched as a prefix.
            let behind = |p: usize| !self.hb.contains(x.matched, p) && !c.subset.contains(&p);
            if x.symmetry && self.sym.prev_clone(i).is_some_and(behind) {
                continue;
            }
            // Same object as the rest of the subset. (Minimal spans are
            // pairwise concurrent: an unmatched span before another would
            // keep that one from being minimal.)
            if c.subset.first().is_some_and(|&j| self.spans[i].object != self.spans[j].object) {
                continue;
            }
            // The spec's early refusal, for `i` and every superset through it.
            let members = c.subset.iter().map(|&j| self.invocation(j));
            if !self.spec.may_join(x.state, &self.invocation(i), members) {
                continue;
            }
            c.subset.push(i);
            let keep = self.grow(minimal, k + 1, c, x);
            c.subset.pop();
            if !keep {
                return false;
            }
        }
        true
    }

    /// Attempts `c.subset` as the next CA-element, enumerating completions
    /// for pending members and recording every accepted successor.
    /// Returns `false` when a cooperative stop was requested.
    fn try_subset(&self, c: &mut Candidate, x: &mut Expansion<'_, '_, '_, S>) -> bool {
        let spec = self.spec;
        // Pending members are completed with values proposed by the spec,
        // which may depend on the other members of the element (e.g. a
        // successful exchange returns its partner's argument). Complete
        // members have the one operation the history gives them.
        c.rets.clear();
        c.pending.clear();
        if c.subset.iter().any(|&i| self.spans[i].ret.is_none()) {
            c.invocations.clear();
            c.invocations.extend(c.subset.iter().map(|&i| self.invocation(i)));
            for (k, &i) in c.subset.iter().enumerate() {
                if self.spans[i].ret.is_some() {
                    continue;
                }
                c.peers.clear();
                c.peers.extend(
                    c.invocations.iter().enumerate().filter(|&(j, _)| j != k).map(|(_, inv)| *inv),
                );
                let first = c.rets.len();
                c.rets.extend(spec.completions_among(&c.invocations[k], &c.peers));
                if c.rets.len() == first {
                    return true;
                }
                c.pending.push(Digit { first, end: c.rets.len(), pick: first });
            }
        }
        loop {
            if x.obs.should_stop() {
                return false;
            }
            let mut ops = std::mem::take(&mut c.ops);
            ops.clear();
            let picked = || c.pending.iter().map(|digit| c.rets[digit.pick]);
            ops.extend(self.operations(c.subset.iter().copied(), picked()));
            if let Ok(element) = CaElement::new(ops[0].object, ops) {
                x.obs.on_element_tried();
                if let Some(next) = spec.step(x.state, &element) {
                    let mut next_matched = x.matched.clone();
                    // At most one member a chain: minimal spans are
                    // pairwise concurrent.
                    for &i in &c.subset {
                        self.hb.take(&mut next_matched, i);
                    }
                    let completions = picked().collect();
                    let step = CalStep { subset: Subset::of(&c.subset), completions };
                    x.out.push((step, (next_matched, next)));
                }
                c.ops = element.into_ops();
            }
            // Advance the counter over completion choices; with no pending
            // member there is the one candidate.
            let mut d = 0;
            loop {
                let Some(digit) = c.pending.get_mut(d) else { return true };
                digit.pick += 1;
                if digit.pick < digit.end {
                    break;
                }
                digit.pick = digit.first;
                d += 1;
            }
        }
    }
}

impl<S: CaSpec> SearchDomain for CalDomain<'_, S> {
    type Node = (Cut, S::State);
    type Step = CalStep;
    type Scratch = CalScratch;

    fn initial(&self) -> Self::Node {
        self.root(self.spec.initial())
    }

    fn is_goal(&self, node: &Self::Node) -> bool {
        // Success: every *complete* operation explained; unmatched pending
        // invocations are dropped by the chosen completion (Def. 2).
        self.hb.reaches(&node.0, &self.goal)
    }

    fn expand(
        &self,
        node: &Self::Node,
        scratch: &mut CalScratch,
        obs: &mut ExpandObs<'_, '_>,
        out: &mut Vec<(Self::Step, Self::Node)>,
    ) {
        let (matched, state) = node;
        let CalScratch { minimal, candidate } = scratch;
        // Minimal operations: unmatched, with every hb-predecessor matched.
        self.hb.minimal(matched, minimal);
        obs.on_frontier(minimal.len());
        let max_size = self.spec.max_element_size().max(1);
        let symmetry = obs.symmetry();
        // (A specification that panicked mid-expansion left its subset.)
        candidate.subset.clear();
        let x = &mut Expansion { matched, state, max_size, symmetry, obs, out };
        self.grow(minimal, 0, candidate, x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::ids::{Method, ThreadId};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const E: ObjectId = ObjectId(0);
    const EX: Method = Method("exchange");

    /// An exchanger-shaped spec, inlined to keep cal-core self-contained:
    /// elements are either a pair swapping values or a singleton failure.
    #[derive(Debug)]
    struct MiniExchanger;

    impl CaSpec for MiniExchanger {
        type State = ();

        fn initial(&self) {}

        fn step(&self, _: &(), e: &CaElement) -> Option<()> {
            match e.ops() {
                [a] => {
                    let (ok, v) = a.ret.as_pair()?;
                    (!ok && Value::Int(v) == a.arg).then_some(())
                }
                [a, b] => {
                    let (oka, va) = a.ret.as_pair()?;
                    let (okb, vb) = b.ret.as_pair()?;
                    (oka && okb && a.arg == Value::Int(vb) && b.arg == Value::Int(va))
                        .then_some(())
                }
                _ => None,
            }
        }

        fn max_element_size(&self) -> usize {
            2
        }

        fn completions_of(&self, inv: &Invocation) -> Vec<Value> {
            let v = inv.arg.as_int().unwrap_or(0);
            vec![Value::Pair(false, v)]
        }

        fn completions_among(&self, inv: &Invocation, peers: &[Invocation]) -> Vec<Value> {
            let mut out = self.completions_of(inv);
            // A successful exchange returns the partner's argument.
            out.extend(peers.iter().filter_map(|p| Some(Value::Pair(true, p.arg.as_int()?))));
            out
        }
    }

    fn inv(t: u32, v: i64) -> Action {
        Action::invoke(ThreadId(t), E, EX, Value::Int(v))
    }

    fn res(t: u32, ok: bool, v: i64) -> Action {
        Action::response(ThreadId(t), E, EX, Value::Pair(ok, v))
    }

    #[test]
    fn empty_history_is_cal() {
        assert!(is_cal(&History::new(), &MiniExchanger).unwrap());
    }

    #[test]
    fn concurrent_swap_is_cal() {
        let h = History::from_actions(vec![inv(1, 3), inv(2, 4), res(1, true, 4), res(2, true, 3)]);
        let outcome = check_cal(&h, &MiniExchanger).unwrap();
        let witness = outcome.verdict.witness().unwrap().clone();
        assert_eq!(witness.len(), 1);
        assert_eq!(witness.elements()[0].len(), 2);
    }

    #[test]
    fn sequential_swap_is_not_cal() {
        // The §3 argument: non-overlapping operations cannot swap.
        let h = History::from_actions(vec![inv(1, 3), res(1, true, 4), inv(2, 4), res(2, true, 3)]);
        assert!(!is_cal(&h, &MiniExchanger).unwrap());
    }

    #[test]
    fn failed_exchange_is_cal() {
        let h = History::from_actions(vec![inv(1, 3), res(1, false, 3)]);
        assert!(is_cal(&h, &MiniExchanger).unwrap());
    }

    #[test]
    fn failure_returning_wrong_value_is_not_cal() {
        let h = History::from_actions(vec![inv(1, 3), res(1, false, 9)]);
        assert!(!is_cal(&h, &MiniExchanger).unwrap());
    }

    #[test]
    fn lone_successful_exchange_is_not_cal() {
        // Fig. 3's H3 prefix: one thread cannot succeed alone.
        let h = History::from_actions(vec![inv(1, 3), res(1, true, 4)]);
        assert!(!is_cal(&h, &MiniExchanger).unwrap());
    }

    #[test]
    fn pending_invocation_may_be_dropped() {
        let h = History::from_actions(vec![inv(1, 3), inv(2, 4), res(1, true, 4)]);
        // t2's response is missing; completing it as (true,3) explains t1.
        // Even if it were dropped, t1 alone would fail — so the checker
        // must find the completion.
        assert!(is_cal(&h, &MiniExchanger).unwrap());
    }

    #[test]
    fn pending_invocation_dropped_when_unexplainable() {
        let h = History::from_actions(vec![inv(1, 3)]);
        assert!(is_cal(&h, &MiniExchanger).unwrap());
    }

    #[test]
    fn fig3_h1_is_cal() {
        let h = History::from_actions(vec![
            inv(1, 3),
            inv(2, 4),
            inv(3, 7),
            res(1, true, 4),
            res(2, true, 3),
            res(3, false, 7),
        ]);
        let outcome = check_cal(&h, &MiniExchanger).unwrap();
        assert!(outcome.verdict.is_cal());
        assert!(outcome.stats.nodes > 0);
    }

    #[test]
    fn mismatched_swap_values_not_cal() {
        let h = History::from_actions(vec![inv(1, 3), inv(2, 4), res(1, true, 9), res(2, true, 3)]);
        assert!(!is_cal(&h, &MiniExchanger).unwrap());
    }

    #[test]
    fn three_way_swap_not_cal() {
        // a→b→c→a cyclic "swap" is not decomposable into legal elements.
        let h = History::from_actions(vec![
            inv(1, 1),
            inv(2, 2),
            inv(3, 3),
            res(1, true, 2),
            res(2, true, 3),
            res(3, true, 1),
        ]);
        assert!(!is_cal(&h, &MiniExchanger).unwrap());
    }

    #[test]
    fn budget_exhaustion_reported() {
        let h = History::from_actions(vec![inv(1, 3), inv(2, 4), res(1, true, 4), res(2, true, 3)]);
        let outcome =
            check_cal_with(&h, &MiniExchanger, &CheckOptions { max_nodes: 0, ..CheckOptions::default() }).unwrap();
        assert_eq!(outcome.verdict, Verdict::ResourcesExhausted);
    }

    #[test]
    fn ill_formed_history_is_an_error() {
        let h = History::from_actions(vec![res(1, false, 3)]);
        assert!(matches!(check_cal(&h, &MiniExchanger), Err(CheckError::IllFormed(_))));
    }

    #[test]
    fn witness_agrees_with_history() {
        let h = History::from_actions(vec![
            inv(1, 3),
            inv(2, 4),
            res(1, true, 4),
            res(2, true, 3),
            inv(3, 7),
            res(3, false, 7),
        ]);
        let outcome = check_cal(&h, &MiniExchanger).unwrap();
        let witness = outcome.verdict.witness().unwrap();
        assert!(crate::agree::agrees_bool(&h, witness));
    }

    #[test]
    fn verdict_display() {
        assert_eq!(Verdict::<CaTrace>::NotCal.to_string(), "not CAL");
        assert!(Verdict::<CaTrace>::ResourcesExhausted.to_string().contains("budget"));
        let interrupted =
            Verdict::<CaTrace>::Interrupted { reason: InterruptReason::DeadlineExceeded };
        assert!(interrupted.to_string().contains("deadline"));
        assert!(interrupted.is_undecided());
        assert!(Verdict::<CaTrace>::ResourcesExhausted.is_undecided());
        assert!(!Verdict::<CaTrace>::NotCal.is_undecided());
    }

    /// A hard unsatisfiable workload: an odd number of identical
    /// concurrent exchanges, all claiming success. Only pairs are legal
    /// elements, so the search — without memoization or symmetry
    /// reduction, which would match the clones in one order — backtracks
    /// over every pairing before concluding NotCal.
    fn hard_history(k: u32) -> History {
        let mut acts: Vec<Action> = (1..=k).map(|t| inv(t, 0)).collect();
        acts.extend((1..=k).map(|t| res(t, true, 0)));
        History::from_actions(acts)
    }

    fn unbounded_no_memo() -> CheckOptions {
        CheckOptions {
            max_nodes: u64::MAX,
            memoize: false,
            symmetry: false,
            ..CheckOptions::default()
        }
    }

    #[test]
    fn zero_deadline_interrupts_search() {
        let options =
            CheckOptions { deadline: Some(std::time::Duration::ZERO), ..unbounded_no_memo() };
        let outcome = check_cal_with(&hard_history(13), &MiniExchanger, &options).unwrap();
        assert_eq!(
            outcome.verdict,
            Verdict::Interrupted { reason: InterruptReason::DeadlineExceeded }
        );
        // Partial stats survive the interrupt.
        assert!(outcome.stats.nodes > 0 || outcome.stats.elements_tried > 0);
    }

    #[test]
    fn cancelled_token_interrupts_search() {
        let token = CancelToken::new();
        token.cancel();
        let options = CheckOptions { cancel: Some(token), ..unbounded_no_memo() };
        let outcome = check_cal_with(&hard_history(13), &MiniExchanger, &options).unwrap();
        assert_eq!(outcome.verdict, Verdict::Interrupted { reason: InterruptReason::Cancelled });
    }

    #[test]
    fn deadline_does_not_stop_a_decidable_check() {
        let options = CheckOptions::with_deadline(std::time::Duration::from_secs(60));
        let h = History::from_actions(vec![inv(1, 3), inv(2, 4), res(1, true, 4), res(2, true, 3)]);
        let outcome = check_cal_with(&h, &MiniExchanger, &options).unwrap();
        assert!(outcome.verdict.is_cal());
    }

    #[test]
    fn panicking_spec_is_an_error_not_a_panic() {
        #[derive(Debug)]
        struct PanickySpec;
        impl CaSpec for PanickySpec {
            type State = ();
            fn initial(&self) {}
            fn step(&self, _: &(), _: &CaElement) -> Option<()> {
                panic!("spec bug: unreachable method")
            }
            fn completions_of(&self, _: &Invocation) -> Vec<Value> {
                vec![]
            }
        }
        let h = History::from_actions(vec![inv(1, 3), res(1, false, 3)]);
        match check_cal(&h, &PanickySpec) {
            Err(CheckError::SpecPanicked(msg)) => assert!(msg.contains("spec bug")),
            other => panic!("expected SpecPanicked, got {other:?}"),
        }
    }

    #[test]
    fn is_cal_reports_undecided_as_error() {
        let h = History::from_actions(vec![inv(1, 3), inv(2, 4), res(1, true, 4), res(2, true, 3)]);
        let options = CheckOptions { max_nodes: 0, ..CheckOptions::default() };
        match is_cal_with(&h, &MiniExchanger, &options) {
            Err(CheckError::Undecided(Verdict::ResourcesExhausted)) => {}
            other => panic!("expected Undecided, got {other:?}"),
        }
    }

    // --- one successor per orbit ---------------------------------------------

    /// A register as a sequential spec, for histories of identical writes.
    #[derive(Debug)]
    struct MiniRegister;

    impl crate::spec::SeqSpec for MiniRegister {
        type State = i64;

        fn initial(&self) -> i64 {
            0
        }

        fn apply(&self, state: &i64, op: &Operation) -> Option<i64> {
            match op.method.0 {
                "write" => op.arg.as_int(),
                _ => (op.ret == Value::Int(*state)).then_some(*state),
            }
        }

        fn completions_of(&self, inv: &Invocation) -> Vec<Value> {
            match inv.method.0 {
                "write" => vec![Value::Unit],
                _ => vec![Value::Int(0), Value::Int(1)],
            }
        }
    }

    /// `windows` windows of `width` fully-overlapping operations, each
    /// drawn by `op` from a few shapes, so that a window is full of clones;
    /// in the last window one operation in three stays pending.
    fn windowed(
        rng: &mut StdRng,
        windows: usize,
        width: usize,
        op: impl Fn(&mut StdRng, ThreadId) -> Operation,
    ) -> History {
        let mut actions = Vec::new();
        for w in 0..windows {
            let ops: Vec<Operation> =
                (0..width).map(|t| op(rng, ThreadId((w * width + t) as u32))).collect();
            actions.extend(ops.iter().map(Operation::invocation));
            let last = w + 1 == windows;
            for op in &ops {
                if !(last && rng.gen_range(0..3) == 0) {
                    actions.push(op.response());
                }
            }
        }
        History::from_actions(actions)
    }

    fn exchange(rng: &mut StdRng, t: ThreadId) -> Operation {
        let v = rng.gen_range(0..2);
        let ret = match rng.gen_range(0..3) {
            0 => Value::Pair(false, v),
            got => Value::Pair(true, got - 1),
        };
        Operation::new(t, E, EX, Value::Int(v), ret)
    }

    fn register_op(rng: &mut StdRng, t: ThreadId) -> Operation {
        let v = rng.gen_range(0..2);
        if rng.gen_bool(0.5) {
            Operation::new(t, E, Method("write"), Value::Int(v), Value::Unit)
        } else {
            Operation::new(t, E, Method("read"), Value::Unit, Value::Int(v))
        }
    }

    /// A matched set's canonical form by a scan of every class: each class
    /// matched as a prefix of its members, as many as `cut` matches.
    fn canonical_by_full_scan(hb: &HbRelation, classes: &[Vec<usize>], cut: &Cut) -> Cut {
        let mut matched: Vec<bool> = (0..hb.len()).map(|i| hb.contains(cut, i)).collect();
        for class in classes {
            let count = class.iter().filter(|&&m| matched[m]).count();
            for (k, &m) in class.iter().enumerate() {
                matched[m] = k < count;
            }
        }
        let mut canon = hb.empty_cut();
        for i in (0..hb.len()).filter(|&i| matched[i]) {
            hb.take(&mut canon, i);
        }
        canon
    }

    type NodeOf<S> = (Cut, <S as CaSpec>::State);

    fn successors<S: CaSpec>(
        domain: &CalDomain<'_, S>,
        node: &NodeOf<S>,
        symmetry: bool,
    ) -> HashSet<NodeOf<S>> {
        let options = CheckOptions { symmetry, ..CheckOptions::default() };
        let mut out = Vec::new();
        let scratch = &mut CalScratch::default();
        engine::observe(&options, |obs| domain.expand(node, scratch, obs, &mut out));
        out.into_iter().map(|(_, next)| next).collect()
    }

    fn reachable<S: CaSpec>(domain: &CalDomain<'_, S>, symmetry: bool) -> HashSet<NodeOf<S>> {
        let mut seen = HashSet::new();
        let mut stack = vec![domain.initial()];
        while let Some(node) = stack.pop() {
            if seen.insert(node.clone()) {
                stack.extend(successors(domain, &node, symmetry));
            }
        }
        seen
    }

    /// Symmetry at the move generator is exact: at every node the search
    /// reaches without it, the canonical forms of the node's successors
    /// are exactly the successors the generator makes of the node's
    /// canonical form — and the nodes reached with it are exactly the
    /// canonical forms of those reached without. Returns whether the
    /// history had a node that is not its own canonical form.
    fn assert_one_successor_per_orbit<S: CaSpec>(history: &History, spec: &S) -> bool {
        let spans = history.spans();
        let hb = HbRelation::real_time(&spans);
        let domain = CalDomain::new(&spans, &hb, spec);
        let classes = domain.sym.classes();
        let canon = |(cut, state): &NodeOf<S>| {
            (canonical_by_full_scan(domain.hb, classes, cut), state.clone())
        };
        let all = reachable(&domain, false);
        for node in &all {
            let orbits: HashSet<NodeOf<S>> =
                successors(&domain, node, false).iter().map(canon).collect();
            assert_eq!(
                successors(&domain, &canon(node), true),
                orbits,
                "successors of {node:?} under {classes:?}:\n{history}"
            );
        }
        let orbits: HashSet<NodeOf<S>> = all.iter().map(canon).collect();
        assert_eq!(reachable(&domain, true), orbits, "orbits under {classes:?}:\n{history}");
        all.len() > orbits.len()
    }

    #[test]
    fn symmetry_generates_one_successor_per_orbit() {
        let mut rng = StdRng::seed_from_u64(26);
        let register = crate::spec::SeqAsCa::new(MiniRegister);
        let mut collapsed = 0;
        for _ in 0..24 {
            let (windows, width) = (rng.gen_range(1..3), rng.gen_range(2..6));
            let h = windowed(&mut rng, windows, width, exchange);
            collapsed += usize::from(assert_one_successor_per_orbit(&h, &MiniExchanger));
            let h = windowed(&mut rng, windows, width, register_op);
            collapsed += usize::from(assert_one_successor_per_orbit(&h, &register));
        }
        assert!(collapsed >= 12, "only {collapsed} of 48 histories had a sibling to drop");
    }

    /// A split history's only clones are an operation's own two halves,
    /// and the close half may join only behind the open one anyway: on
    /// histories full of clone operations, symmetry reduction changes no
    /// successor of the interval reading.
    #[test]
    fn symmetry_prunes_nothing_from_a_split_history() {
        let mut rng = StdRng::seed_from_u64(28);
        let spec = crate::interval::SeqAsInterval::new(MiniRegister);
        for _ in 0..12 {
            let (windows, width) = (rng.gen_range(1..3), rng.gen_range(2..5));
            let h = windowed(&mut rng, windows, width, register_op);
            let (split, halves) = crate::interval::IntervalAsCa::new(&spec, &h).unwrap();
            assert!(!assert_one_successor_per_orbit(&halves, &split), "{h}");
        }
    }

    // --- stitching per-object witnesses ---------------------------------------

    #[test]
    fn the_stitch_keeps_every_part_and_inverts_no_precedence() {
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..500 {
            // Step `j` of a sequence that respects real time: invoked in
            // [10j, 10j + 10), or one time in four anywhere before that,
            // and responding after every earlier step's invocation, or
            // never, so a step that responds before another is invoked
            // comes first. Dealt out to the parts in order, each part
            // respects real time too, and a part's invocation points may
            // fall.
            let n = rng.gen_range(0..40usize);
            let parts = rng.gen_range(1..6usize);
            let mut dealt = vec![Vec::new(); parts];
            let mut span = vec![(0, 0); n];
            let mut latest = 0;
            for (j, slot) in span.iter_mut().enumerate() {
                let inv = match rng.gen_range(0..4) {
                    0 => rng.gen_range(0..10 * j + 1),
                    _ => 10 * j + rng.gen_range(0..10usize),
                };
                latest = latest.max(inv);
                let resp =
                    if rng.gen_range(0..8) == 0 { usize::MAX } else { latest + rng.gen_range(1..60usize) };
                *slot = (inv, resp);
                dealt[rng.gen_range(0..parts)].push((j, inv));
            }
            let stitched = stitch(dealt.clone());
            let mut at = vec![usize::MAX; n];
            for (k, &j) in stitched.iter().enumerate() {
                assert_eq!(at[j], usize::MAX, "{j} emitted twice");
                at[j] = k;
            }
            assert!(at.iter().all(|&k| k < n), "a step went missing");
            for part in &dealt {
                assert!(part.windows(2).all(|w| at[w[0].0] < at[w[1].0]), "part order lost");
            }
            for (a, &first) in stitched.iter().enumerate() {
                for &later in &stitched[a + 1..] {
                    assert!(span[later].1 >= span[first].0, "{later} responds before {first}");
                }
            }
        }
    }

    // --- splitting a check by object -----------------------------------------

    /// Checks split by object, at every thread count.
    mod split {
        use crate::action::Action;
        use crate::check::{check_cal_with, witness_explains, CancelToken, CheckOptions, Verdict};
        use crate::history::History;
        use crate::ids::{Method, ObjectId, ThreadId, Value};
        use crate::spec::{CaSpec, Invocation, PerObject};
        use crate::trace::CaElement;

        const EX: Method = Method("exchange");

        /// The exchanger-shaped spec from the sequential checker's tests.
        #[derive(Debug, Clone)]
        struct MiniExchanger(ObjectId);

        impl CaSpec for MiniExchanger {
            type State = ();

            fn initial(&self) {}

            fn step(&self, _: &(), e: &CaElement) -> Option<()> {
                if e.object() != self.0 {
                    return None;
                }
                match e.ops() {
                    [a] => {
                        let (ok, v) = a.ret.as_pair()?;
                        (!ok && Value::Int(v) == a.arg).then_some(())
                    }
                    [a, b] => {
                        let (oka, va) = a.ret.as_pair()?;
                        let (okb, vb) = b.ret.as_pair()?;
                        (oka && okb && a.arg == Value::Int(vb) && b.arg == Value::Int(va))
                            .then_some(())
                    }
                    _ => None,
                }
            }

            fn max_element_size(&self) -> usize {
                2
            }

            fn completions_of(&self, inv: &Invocation) -> Vec<Value> {
                let v = inv.arg.as_int().unwrap_or(0);
                vec![Value::Pair(false, v)]
            }

            fn completions_among(&self, inv: &Invocation, peers: &[Invocation]) -> Vec<Value> {
                let mut out = self.completions_of(inv);
                out.extend(peers.iter().filter_map(|p| Some(Value::Pair(true, p.arg.as_int()?))));
                out
            }

            fn restrict(&self, object: ObjectId) -> Option<Self> {
                (object == self.0).then(|| self.clone())
            }
        }

        fn inv_on(o: ObjectId, t: u32, v: i64) -> Action {
            Action::invoke(ThreadId(t), o, EX, Value::Int(v))
        }

        fn res_on(o: ObjectId, t: u32, ok: bool, v: i64) -> Action {
            Action::response(ThreadId(t), o, EX, Value::Pair(ok, v))
        }

        fn threads_options(threads: usize) -> CheckOptions {
            CheckOptions { threads, ..CheckOptions::default() }
        }

        /// An odd number of identical concurrent success-claiming exchanges:
        /// NotCal, with heavy backtracking.
        /// `k` identical concurrent exchanges all claiming success: odd `k`
        /// is unsatisfiable, and super-exponential to refute with neither the
        /// memo nor symmetry reduction.
        fn hard_history(o: ObjectId, k: u32, base_thread: u32) -> Vec<Action> {
            let mut acts: Vec<Action> = (0..k).map(|t| inv_on(o, base_thread + t, 0)).collect();
            acts.extend((0..k).map(|t| res_on(o, base_thread + t, true, 0)));
            acts
        }

        #[test]
        fn parallel_matches_sequential_on_swap() {
            let o = ObjectId(0);
            let h = History::from_actions(vec![
                inv_on(o, 1, 3),
                inv_on(o, 2, 4),
                res_on(o, 1, true, 4),
                res_on(o, 2, true, 3),
            ]);
            let spec = MiniExchanger(o);
            for threads in [1, 2, 8] {
                let outcome = check_cal_with(&h, &spec, &threads_options(threads)).unwrap();
                assert!(outcome.verdict.is_cal(), "threads={threads}: {:?}", outcome.verdict);
                let witness = outcome.verdict.witness().unwrap();
                assert!(witness_explains(&h, &spec, witness));
            }
        }

        #[test]
        fn parallel_refutes_hard_history() {
            let o = ObjectId(0);
            let h = History::from_actions(hard_history(o, 7, 1));
            let spec = MiniExchanger(o);
            let seq = check_cal_with(&h, &spec, &CheckOptions::default()).unwrap();
            assert_eq!(seq.verdict, Verdict::NotCal);
            for threads in [1, 2, 8] {
                let outcome = check_cal_with(&h, &spec, &threads_options(threads)).unwrap();
                assert_eq!(outcome.verdict, Verdict::NotCal, "threads={threads}");
                assert!(outcome.stats.nodes > 0);
            }
        }

        #[test]
        fn decomposition_checks_objects_independently() {
            // Two independent exchangers, both satisfiable.
            let (a, b) = (ObjectId(0), ObjectId(1));
            let h = History::from_actions(vec![
                inv_on(a, 1, 3),
                inv_on(a, 2, 4),
                res_on(a, 1, true, 4),
                res_on(a, 2, true, 3),
                inv_on(b, 1, 5),
                inv_on(b, 2, 6),
                res_on(b, 1, true, 6),
                res_on(b, 2, true, 5),
            ]);
            let spec = PerObject::new(vec![(a, MiniExchanger(a)), (b, MiniExchanger(b))]);
            let outcome = check_cal_with(&h, &spec, &threads_options(4)).unwrap();
            assert!(outcome.verdict.is_cal(), "{:?}", outcome.verdict);
            let witness = outcome.verdict.witness().unwrap();
            assert_eq!(witness.len(), 2);
            assert!(witness_explains(&h, &spec, witness));
        }

        #[test]
        fn decomposition_respects_cross_object_real_time_order() {
            // Object a's swap completes strictly before object b's begins: the
            // merged witness must put a's element first.
            let (a, b) = (ObjectId(0), ObjectId(1));
            let h = History::from_actions(vec![
                inv_on(a, 1, 3),
                inv_on(a, 2, 4),
                res_on(a, 1, true, 4),
                res_on(a, 2, true, 3),
                inv_on(b, 3, 5),
                inv_on(b, 4, 6),
                res_on(b, 3, true, 6),
                res_on(b, 4, true, 5),
            ]);
            let spec = PerObject::new(vec![(a, MiniExchanger(a)), (b, MiniExchanger(b))]);
            let outcome = check_cal_with(&h, &spec, &threads_options(2)).unwrap();
            let witness = outcome.verdict.witness().expect("CAL");
            assert_eq!(witness.elements()[0].object(), a);
            assert_eq!(witness.elements()[1].object(), b);
            assert!(witness_explains(&h, &spec, witness));
        }

        #[test]
        fn decomposition_finds_the_bad_object() {
            // Object a fine; object b's swap is sequential (not CAL).
            let (a, b) = (ObjectId(0), ObjectId(1));
            let h = History::from_actions(vec![
                inv_on(a, 1, 3),
                inv_on(a, 2, 4),
                res_on(a, 1, true, 4),
                res_on(a, 2, true, 3),
                inv_on(b, 1, 5),
                res_on(b, 1, true, 6),
                inv_on(b, 2, 6),
                res_on(b, 2, true, 5),
            ]);
            let spec = PerObject::new(vec![(a, MiniExchanger(a)), (b, MiniExchanger(b))]);
            for threads in [1, 4] {
                let outcome = check_cal_with(&h, &spec, &threads_options(threads)).unwrap();
                assert_eq!(outcome.verdict, Verdict::NotCal, "threads={threads}");
            }
        }

        /// [`MiniExchanger`] that sleeps `stall_ms` in every step.
        #[derive(Debug, Clone)]
        struct Stalling {
            inner: MiniExchanger,
            stall_ms: u64,
        }

        impl CaSpec for Stalling {
            type State = ();

            fn initial(&self) {}

            fn step(&self, state: &(), e: &CaElement) -> Option<()> {
                std::thread::sleep(std::time::Duration::from_millis(self.stall_ms));
                self.inner.step(state, e)
            }

            fn max_element_size(&self) -> usize {
                2
            }

            fn completions_of(&self, inv: &Invocation) -> Vec<Value> {
                self.inner.completions_of(inv)
            }

            fn completions_among(&self, inv: &Invocation, peers: &[Invocation]) -> Vec<Value> {
                self.inner.completions_among(inv, peers)
            }

            fn restrict(&self, object: ObjectId) -> Option<Self> {
                (object == self.inner.0).then(|| self.clone())
            }
        }

        #[test]
        fn the_witness_does_not_depend_on_which_part_finishes_first() {
            // Four objects, one swap each, all pairwise concurrent: the merge
            // may emit their elements in any order, so it must pick one that
            // no schedule changes. The assertion holds on every schedule; the
            // stalls only make the adversarial ones likely: every part stalls
            // a little, so that every worker is busy at once, and one part —
            // the first, then the second — long enough to finish last on two
            // and four threads.
            let objects: Vec<ObjectId> = (0..4).map(ObjectId).collect();
            let mut actions: Vec<Action> = Vec::new();
            for (k, &o) in objects.iter().enumerate() {
                let t = 2 * k as u32 + 1;
                actions.extend([inv_on(o, t, 1), inv_on(o, t + 1, 2)]);
            }
            for (k, &o) in objects.iter().enumerate() {
                let t = 2 * k as u32 + 1;
                actions.extend([res_on(o, t, true, 2), res_on(o, t + 1, true, 1)]);
            }
            let h = History::from_actions(actions);
            for slow in &objects[..2] {
                let spec = PerObject::new(
                    objects
                        .iter()
                        .map(|&o| {
                            let stall_ms = if o == *slow { 20 } else { 2 };
                            (o, Stalling { inner: MiniExchanger(o), stall_ms })
                        })
                        .collect(),
                );
                let witness = |threads| {
                    let outcome = check_cal_with(&h, &spec, &threads_options(threads)).unwrap();
                    outcome.verdict.witness().expect("CAL").to_string()
                };
                let one = witness(1);
                for threads in [2, 4] {
                    assert_eq!(witness(threads), one, "o{} slow, threads={threads}", slow.0);
                }
            }
        }

        #[test]
        fn multi_object_falls_back_without_restrict() {
            /// A spec that refuses to restrict: forces whole-history search.
            #[derive(Debug)]
            struct Coupled(MiniExchanger, MiniExchanger);
            impl CaSpec for Coupled {
                type State = ();
                fn initial(&self) {}
                fn step(&self, _: &(), e: &CaElement) -> Option<()> {
                    self.0.step(&(), e).or_else(|| self.1.step(&(), e))
                }
                fn max_element_size(&self) -> usize {
                    2
                }
                fn completions_of(&self, inv: &Invocation) -> Vec<Value> {
                    self.0.completions_of(inv)
                }
                fn completions_among(&self, inv: &Invocation, peers: &[Invocation]) -> Vec<Value> {
                    self.0.completions_among(inv, peers)
                }
            }
            let (a, b) = (ObjectId(0), ObjectId(1));
            let h = History::from_actions(vec![
                inv_on(a, 1, 3),
                inv_on(a, 2, 4),
                res_on(a, 1, true, 4),
                res_on(a, 2, true, 3),
                inv_on(b, 1, 5),
                inv_on(b, 2, 6),
                res_on(b, 1, true, 6),
                res_on(b, 2, true, 5),
            ]);
            let spec = Coupled(MiniExchanger(a), MiniExchanger(b));
            let outcome = check_cal_with(&h, &spec, &threads_options(4)).unwrap();
            assert!(outcome.verdict.is_cal(), "{:?}", outcome.verdict);
        }

        #[test]
        fn shared_budget_is_global() {
            let o = ObjectId(0);
            let h = History::from_actions(hard_history(o, 9, 1));
            let spec = MiniExchanger(o);
            let options = CheckOptions { max_nodes: 3, threads: 4, ..CheckOptions::default() };
            let outcome = check_cal_with(&h, &spec, &options).unwrap();
            assert_eq!(outcome.verdict, Verdict::ResourcesExhausted);
        }

        #[test]
        fn cancelled_token_interrupts_parallel_search() {
            let o = ObjectId(0);
            let token = CancelToken::new();
            token.cancel();
            let options = CheckOptions {
                cancel: Some(token),
                max_nodes: u64::MAX,
                memoize: false,
                symmetry: false,
                threads: 4,
                ..CheckOptions::default()
            };
            let h = History::from_actions(hard_history(o, 13, 1));
            let outcome = check_cal_with(&h, &MiniExchanger(o), &options).unwrap();
            assert_eq!(
                outcome.verdict,
                Verdict::Interrupted { reason: crate::check::InterruptReason::Cancelled }
            );
        }

        #[test]
        fn empty_and_pending_only_histories_are_cal() {
            let o = ObjectId(0);
            let spec = MiniExchanger(o);
            let empty = History::new();
            assert!(check_cal_with(&empty, &spec, &threads_options(4))
                .unwrap()
                .verdict
                .is_cal());
            let pending = History::from_actions(vec![inv_on(o, 1, 3)]);
            let outcome = check_cal_with(&pending, &spec, &threads_options(4)).unwrap();
            assert!(outcome.verdict.is_cal());
        }
    }
}
