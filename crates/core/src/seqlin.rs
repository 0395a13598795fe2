//! Classical linearizability checking (Herlihy & Wing), as the baseline the
//! paper generalizes.
//!
//! [`check_linearizable`] implements the Wing–Gong search with Lowe-style
//! memoization of failed `(matched-set, spec-state)` pairs: repeatedly pick
//! a `≺H`-minimal operation, apply it to the sequential specification, and
//! backtrack on failure. Pending invocations may be completed with
//! spec-proposed return values or dropped, exactly as in the CAL checker —
//! linearizability is the singleton-element special case of CAL, and the
//! test-suite cross-validates the two implementations against each other.
//!
//! Like the CAL checker, this module is a thin domain over the shared
//! search kernel ([`crate::engine`]): `SeqDomain` enumerates candidate
//! minimal operations, and node budgets, deadlines, cancellation,
//! memoization, [`crate::obs::StatsSink`] observability and the parallel
//! drivers ([`check_linearizable_par_with`]) are inherited from the engine
//! rather than re-implemented.

use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};

use crate::bitset::BitSet;
use crate::engine::{self, ExpandObs, SearchDomain, SpecRef};
use crate::history::{complete_set, HbRelation, History, HistoryError, PartialHistory, Span};
use crate::ids::ObjectId;
use crate::op::Operation;
use crate::spec::{Invocation, SeqSpec};
use crate::symmetry::SymClasses;
use crate::trace::{CaElement, CaTrace};

pub use crate::engine::{CheckError, CheckOptions, CheckOutcome, Verdict};

/// Decides whether `history` is linearizable with respect to the sequential
/// specification `spec`, with default options.
///
/// On success the verdict carries the linearization as a [`CaTrace`] of
/// singleton elements (a sequential history in trace form).
///
/// # Errors
///
/// Returns [`CheckError::IllFormed`] if the history is not well-formed.
///
/// # Examples
///
/// ```
/// # use cal_core::{seqlin, Action, History, Method, ObjectId, Operation, ThreadId, Value};
/// # use cal_core::spec::{Invocation, SeqSpec};
/// #[derive(Debug)]
/// struct AnyOp;
/// impl SeqSpec for AnyOp {
///     type State = ();
///     fn initial(&self) {}
///     fn apply(&self, _: &(), _: &Operation) -> Option<()> { Some(()) }
///     fn completions_of(&self, _: &Invocation) -> Vec<Value> { vec![] }
/// }
/// let o = ObjectId(0);
/// let m = Method("noop");
/// let h = History::from_actions(vec![
///     Action::invoke(ThreadId(0), o, m, Value::Unit),
///     Action::response(ThreadId(0), o, m, Value::Unit),
/// ]);
/// assert!(seqlin::check_linearizable(&h, &AnyOp)?.verdict.is_cal());
/// # Ok::<(), cal_core::check::CheckError>(())
/// ```
pub fn check_linearizable<S: SeqSpec>(
    history: &History,
    spec: &S,
) -> Result<CheckOutcome, CheckError> {
    check_linearizable_with(history, spec, &CheckOptions::default())
}

/// Like [`check_linearizable`], with explicit [`CheckOptions`].
///
/// # Errors
///
/// Returns [`CheckError::IllFormed`] if the history is not well-formed.
pub fn check_linearizable_with<S: SeqSpec>(
    history: &History,
    spec: &S,
    options: &CheckOptions,
) -> Result<CheckOutcome, CheckError> {
    let domain = SeqDomain::new(Cow::Borrowed(history), SpecRef::Borrowed(spec))?;
    Ok(engine::search(&domain, options)?.map_witness(steps_to_trace))
}

/// Like [`check_linearizable_with`], but run on the engine's parallel
/// driver ([`engine::search_par`]): per-object decomposition when
/// [`SeqSpec::restrict`] covers every object in the history, root-frontier
/// splitting with a shared lock-free [`crate::fpmemo::FpMemo`] otherwise.
/// Inherited from the shared kernel — the same driver the CAL checker
/// uses, with identical verdict and interrupt semantics.
///
/// # Errors
///
/// Returns [`CheckError::IllFormed`] if the history is not well-formed
/// and [`CheckError::SpecPanicked`] if the specification panics.
pub fn check_linearizable_par_with<S>(
    history: &History,
    spec: &S,
    options: &CheckOptions,
) -> Result<CheckOutcome, CheckError>
where
    S: SeqSpec + Sync,
    S::State: Send + Sync,
{
    let domain = SeqDomain::new(Cow::Borrowed(history), SpecRef::Borrowed(spec))?;
    Ok(engine::search_par(&domain, options)?.map_witness(steps_to_trace))
}

/// Assembles the engine's step sequence into a singleton-element trace.
fn steps_to_trace(steps: Vec<SeqStep>) -> CaTrace {
    CaTrace::from_elements(steps.into_iter().map(|s| CaElement::singleton(s.op)).collect())
}

/// Convenience predicate: `Ok(true)` iff the history is linearizable
/// w.r.t. `spec`.
///
/// # Errors
///
/// Returns [`CheckError::IllFormed`] for ill-formed histories,
/// [`CheckError::SpecPanicked`] when the spec panics, and
/// [`CheckError::Undecided`] when the default node budget runs out before
/// the search decides.
pub fn is_linearizable<S: SeqSpec>(history: &History, spec: &S) -> Result<bool, CheckError> {
    let outcome = check_linearizable(history, spec)?;
    match outcome.verdict {
        Verdict::Cal(_) => Ok(true),
        Verdict::NotCal => Ok(false),
        undecided => Err(CheckError::Undecided(undecided)),
    }
}

/// One step of a linearization: the chosen operation plus the span index
/// it matched (used to interleave per-object witnesses under
/// decomposition).
#[derive(Debug, Clone)]
struct SeqStep {
    op: Operation,
    span: usize,
}

/// The Wing–Gong search as a [`SearchDomain`]: nodes are `(matched-set,
/// spec-state)` pairs (also the memo key) and steps extract one
/// `≺H`-minimal operation, completing pending invocations with
/// spec-proposed return values.
struct SeqDomain<'a, S: SeqSpec> {
    spec: SpecRef<'a, S>,
    history: Cow<'a, History>,
    spans: Vec<Span>,
    /// The order the search runs over: always the real-time instance of
    /// [`PartialHistory`] here — classical linearizability is defined
    /// against `≺H` (causal relaxations go through `crate::causal`).
    hb: HbRelation,
    /// The spans a goal node must have matched.
    complete: BitSet,
    /// Interchangeability classes for symmetry-reduced memo keys.
    sym: SymClasses,
}

impl<'a, S: SeqSpec> SeqDomain<'a, S> {
    fn new(history: Cow<'a, History>, spec: SpecRef<'a, S>) -> Result<Self, HistoryError> {
        let spans = history.try_spans()?;
        let hb = HbRelation::real_time(&spans);
        let sym = SymClasses::of_order(&spans, &hb);
        let complete = complete_set(&spans);
        Ok(SeqDomain { spec, history, spans, hb, complete, sym })
    }
}

impl<S: SeqSpec> SearchDomain for SeqDomain<'_, S> {
    type Node = (BitSet, S::State);
    type Step = SeqStep;
    /// The node's minimal spans.
    type Scratch = Vec<usize>;

    fn initial(&self) -> Self::Node {
        (BitSet::new(self.spans.len().max(1)), self.spec.get().initial())
    }

    fn is_goal(&self, node: &Self::Node) -> bool {
        self.complete.is_subset(&node.0)
    }

    fn expand(
        &self,
        node: &Self::Node,
        minimal: &mut Vec<usize>,
        obs: &mut ExpandObs<'_, '_>,
        out: &mut Vec<(Self::Step, Self::Node)>,
    ) {
        let (matched, state) = node;
        self.hb.minimal(matched, minimal);
        obs.on_frontier(minimal.len());
        for &i in minimal.iter() {
            let span = &self.spans[i];
            // A complete span is its own one candidate; a pending one gets
            // the return values the spec proposes.
            let proposed = match span.ret {
                Some(_) => Vec::new(),
                None => {
                    let inv = Invocation::new(span.thread, span.object, span.method, span.arg);
                    self.spec.get().completions_of(&inv)
                }
            };
            let completed = proposed.into_iter().map(|ret| span.operation_with_ret(ret));
            for op in span.operation().into_iter().chain(completed) {
                if obs.should_stop() {
                    return;
                }
                obs.on_element_tried();
                if let Some(next) = self.spec.get().apply(state, &op) {
                    let mut next_matched = matched.clone();
                    next_matched.insert(i);
                    out.push((SeqStep { op, span: i }, (next_matched, next)));
                }
            }
        }
    }

    fn canonical_key(&self, node: &Self::Node) -> Option<Self::Node> {
        if self.sym.is_trivial() {
            return None;
        }
        self.sym.canonical_bits(&node.0).map(|bits| (bits, node.1.clone()))
    }

    fn decompose(&self) -> Option<Vec<(ObjectId, Self)>> {
        let objects = self.history.objects();
        if objects.len() < 2 {
            return None;
        }
        let parts: Option<Vec<(ObjectId, S)>> =
            objects.iter().map(|&o| self.spec.get().restrict(o).map(|s| (o, s))).collect();
        Some(
            parts?
                .into_iter()
                .map(|(o, s)| {
                    let sub = SeqDomain::new(
                        Cow::Owned(self.history.project_object(o)),
                        SpecRef::Owned(s),
                    )
                    .expect("projection of a well-formed history is well-formed");
                    (o, sub)
                })
                .collect(),
        )
    }

    /// Interleaves per-object linearizations respecting the full history's
    /// real-time order; singleton elements make `maxinv`/`minresp` just the
    /// matched span's own invocation and response indices.
    fn merge_witnesses(&self, parts: Vec<(ObjectId, Vec<SeqStep>)>) -> Vec<SeqStep> {
        let mut by_object: HashMap<ObjectId, Vec<&Span>> = HashMap::new();
        for span in &self.spans {
            by_object.entry(span.object).or_default().push(span);
        }
        let queues: Vec<VecDeque<(SeqStep, usize, usize)>> = parts
            .into_iter()
            .map(|(object, steps)| {
                let object_spans = by_object.get(&object).map(Vec::as_slice).unwrap_or(&[]);
                steps
                    .into_iter()
                    .map(|step| {
                        let span = object_spans[step.span];
                        (step, span.inv, span.resp.unwrap_or(usize::MAX))
                    })
                    .collect()
            })
            .collect();
        engine::merge_by_order(queues)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::ids::{Method, ObjectId, ThreadId, Value};
    use crate::spec::SeqAsCa;

    const R: ObjectId = ObjectId(0);
    const WRITE: Method = Method("write");
    const READ: Method = Method("read");

    /// A sequential register: `read` returns the last written value
    /// (initially 0).
    #[derive(Debug, Clone)]
    struct Register;

    impl SeqSpec for Register {
        type State = i64;

        fn initial(&self) -> i64 {
            0
        }

        fn apply(&self, state: &i64, op: &Operation) -> Option<i64> {
            match op.method {
                WRITE => {
                    if op.ret != Value::Unit {
                        return None;
                    }
                    op.arg.as_int()
                }
                READ => (op.ret == Value::Int(*state)).then_some(*state),
                _ => None,
            }
        }

        fn completions_of(&self, inv: &Invocation) -> Vec<Value> {
            match inv.method {
                WRITE => vec![Value::Unit],
                READ => (0..8).map(Value::Int).collect(),
                _ => vec![],
            }
        }

        fn restrict(&self, _: ObjectId) -> Option<Self> {
            Some(self.clone())
        }
    }

    fn w(t: u32, v: i64) -> [Action; 2] {
        [
            Action::invoke(ThreadId(t), R, WRITE, Value::Int(v)),
            Action::response(ThreadId(t), R, WRITE, Value::Unit),
        ]
    }

    fn r(t: u32, v: i64) -> [Action; 2] {
        [
            Action::invoke(ThreadId(t), R, READ, Value::Unit),
            Action::response(ThreadId(t), R, READ, Value::Int(v)),
        ]
    }

    #[test]
    fn sequential_register_history_linearizable() {
        let mut acts = Vec::new();
        acts.extend(w(1, 5));
        acts.extend(r(2, 5));
        let h = History::from_actions(acts);
        assert!(is_linearizable(&h, &Register).unwrap());
    }

    #[test]
    fn stale_read_after_write_not_linearizable() {
        let mut acts = Vec::new();
        acts.extend(w(1, 5));
        acts.extend(r(2, 0)); // reads initial value after the write completed
        let h = History::from_actions(acts);
        assert!(!is_linearizable(&h, &Register).unwrap());
    }

    #[test]
    fn concurrent_write_read_may_return_old_or_new() {
        // write(5) overlaps read: both 0 and 5 are legal.
        for ret in [0, 5] {
            let h = History::from_actions(vec![
                Action::invoke(ThreadId(1), R, WRITE, Value::Int(5)),
                Action::invoke(ThreadId(2), R, READ, Value::Unit),
                Action::response(ThreadId(1), R, WRITE, Value::Unit),
                Action::response(ThreadId(2), R, READ, Value::Int(ret)),
            ]);
            assert!(is_linearizable(&h, &Register).unwrap(), "read of {ret} should linearize");
        }
        let h = History::from_actions(vec![
            Action::invoke(ThreadId(1), R, WRITE, Value::Int(5)),
            Action::invoke(ThreadId(2), R, READ, Value::Unit),
            Action::response(ThreadId(1), R, WRITE, Value::Unit),
            Action::response(ThreadId(2), R, READ, Value::Int(3)),
        ]);
        assert!(!is_linearizable(&h, &Register).unwrap());
    }

    #[test]
    fn pending_write_may_take_effect_or_not() {
        // write(5) never responds; a later read may still see it (the
        // completion adds the response) or see 0 (the invocation dropped).
        for ret in [0, 5] {
            let h = History::from_actions(vec![
                Action::invoke(ThreadId(1), R, WRITE, Value::Int(5)),
                Action::invoke(ThreadId(2), R, READ, Value::Unit),
                Action::response(ThreadId(2), R, READ, Value::Int(ret)),
            ]);
            assert!(is_linearizable(&h, &Register).unwrap(), "pending write, read {ret}");
        }
    }

    #[test]
    fn witness_is_sequential_trace() {
        let mut acts = Vec::new();
        acts.extend(w(1, 5));
        acts.extend(r(2, 5));
        let h = History::from_actions(acts);
        let outcome = check_linearizable(&h, &Register).unwrap();
        let witness = outcome.verdict.witness().unwrap();
        assert_eq!(witness.len(), 2);
        assert!(witness.elements().iter().all(|e| e.len() == 1));
    }

    #[test]
    fn agrees_with_ca_checker_on_singleton_spec() {
        // Cross-validation: linearizability == CAL with SeqAsCa.
        let histories = vec![
            {
                let mut acts = Vec::new();
                acts.extend(w(1, 5));
                acts.extend(r(2, 5));
                acts
            },
            {
                let mut acts = Vec::new();
                acts.extend(w(1, 5));
                acts.extend(r(2, 0));
                acts
            },
            vec![
                Action::invoke(ThreadId(1), R, WRITE, Value::Int(5)),
                Action::invoke(ThreadId(2), R, READ, Value::Unit),
                Action::response(ThreadId(1), R, WRITE, Value::Unit),
                Action::response(ThreadId(2), R, READ, Value::Int(5)),
            ],
        ];
        let ca = SeqAsCa::new(Register);
        for acts in histories {
            let h = History::from_actions(acts);
            let lin = is_linearizable(&h, &Register).unwrap();
            let cal = crate::check::is_cal(&h, &ca).unwrap();
            assert_eq!(lin, cal, "checkers disagree on {h}");
        }
    }

    #[test]
    fn parallel_matches_sequential_across_objects() {
        // Two registers; object o1's write/read pair is independent of R's.
        let o1 = ObjectId(1);
        let h = History::from_actions(vec![
            Action::invoke(ThreadId(1), R, WRITE, Value::Int(5)),
            Action::response(ThreadId(1), R, WRITE, Value::Unit),
            Action::invoke(ThreadId(2), o1, WRITE, Value::Int(7)),
            Action::response(ThreadId(2), o1, WRITE, Value::Unit),
            Action::invoke(ThreadId(1), R, READ, Value::Unit),
            Action::response(ThreadId(1), R, READ, Value::Int(5)),
            Action::invoke(ThreadId(2), o1, READ, Value::Unit),
            Action::response(ThreadId(2), o1, READ, Value::Int(7)),
        ]);
        for threads in [1, 2, 4] {
            let options = CheckOptions { threads, ..CheckOptions::default() };
            let outcome = check_linearizable_par_with(&h, &Register, &options).unwrap();
            assert!(outcome.verdict.is_cal(), "threads={threads}: {:?}", outcome.verdict);
            let witness = outcome.verdict.witness().unwrap();
            assert_eq!(witness.len(), 4, "threads={threads}");
            assert!(witness.elements().iter().all(|e| e.len() == 1));
        }
    }

    #[test]
    fn ill_formed_history_is_an_error() {
        let h = History::from_actions(vec![Action::response(ThreadId(1), R, READ, Value::Int(0))]);
        assert!(check_linearizable(&h, &Register).is_err());
    }
}
