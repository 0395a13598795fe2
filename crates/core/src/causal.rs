//! Causal-mode membership checking: CAL over a happens-before partial
//! order instead of the real-time total order.
//!
//! On weak-memory multicores most real executions are only *partially*
//! ordered: cross-thread real-time ordering is an artifact of the
//! recorder's clock, not something the memory model guarantees the
//! threads observed (Doherty & Derrick, "Linearizability and Causality";
//! Doherty, Derrick, Dongol & Wehrheim, "Causal Linearizability").
//! Causal mode re-runs the CAL membership search of [`crate::check`] with
//! the order relation swapped underneath: linearizations must respect
//! only *happens-before* — per-thread session order plus whatever
//! synchronization edges the trace explicitly declares — rather than
//! `≺H`.
//!
//! The mode is a thin wrapper over the same `CalDomain` /
//! [`crate::engine`] machinery, instantiated with an
//! [`HbRelation`] built by [`causal_order`]:
//!
//! - **annotated traces** (kvlog `hb` edges, a session-order directive,
//!   Jepsen `:process` session edges selected by the CLI) get
//!   `session ∪ edges`, transitively closed;
//! - **unannotated traces** should be checked with
//!   [`HbRelation::real_time`] — the total-order instance — on which
//!   causal mode agrees with CAL mode by construction (the differential
//!   anchor the test-suite pins).
//!
//! Two consequences of a genuinely partial order are handled here rather
//! than in the engine: per-object decomposition is disabled (session
//! edges cross objects, so objects are no longer independent; the
//! history is searched whole, by every worker from the root when several
//! threads are asked for), and symmetry
//! classes are recomputed from hb constraint sets
//! ([`crate::symmetry::SymClasses::of_order`]).

use std::borrow::Cow;
use std::error::Error;
use std::fmt;

use crate::check::{reconstruct_completion, CalDomain};
use crate::engine::{self, SpecRef};
use crate::history::{HbError, HbRelation, History, HistoryError};
use crate::spec::CaSpec;
use crate::trace::CaTrace;

pub use crate::engine::{CheckError, CheckOptions, CheckOutcome, Verdict};

/// Why a causal order could not be built from a history and its declared
/// edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CausalOrderError {
    /// The history itself is not well-formed.
    IllFormed(HistoryError),
    /// The declared happens-before edges are malformed (out of range,
    /// self-edge, or cyclic together with session order).
    Order(HbError),
}

impl fmt::Display for CausalOrderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CausalOrderError::IllFormed(e) => write!(f, "ill-formed history: {e}"),
            CausalOrderError::Order(e) => e.fmt(f),
        }
    }
}

impl Error for CausalOrderError {}

impl From<HistoryError> for CausalOrderError {
    fn from(e: HistoryError) -> Self {
        CausalOrderError::IllFormed(e)
    }
}

impl From<HbError> for CausalOrderError {
    fn from(e: HbError) -> Self {
        CausalOrderError::Order(e)
    }
}

/// Builds the causal happens-before order of `history`: per-thread
/// session order unioned with the declared `edges` (pairs of operation
/// indices in invocation order, source happens-before target),
/// transitively closed.
///
/// # Errors
///
/// Returns [`CausalOrderError`] when the history is ill-formed or the
/// edges are (out of range, self-edge, or cyclic with session order).
pub fn causal_order(
    history: &History,
    edges: &[(usize, usize)],
) -> Result<HbRelation, CausalOrderError> {
    let spans = history.try_spans()?;
    Ok(HbRelation::causal(&spans, edges)?)
}

/// Decides whether `history` is causally CAL — a member of `spec` under
/// the happens-before order `hb` — with default options.
///
/// # Errors
///
/// Returns [`CheckError::IllFormed`] if the history is not well-formed.
///
/// # Examples
///
/// A stale read that violates linearizability in real time is explained
/// by store-buffer reordering once only session order is required:
///
/// ```
/// use cal_core::{causal, check, Action, History, Method, ObjectId, ThreadId, Value};
/// use cal_core::spec::{Invocation, SeqAsCa, SeqSpec};
/// use cal_core::op::Operation;
/// #[derive(Debug, Clone)]
/// struct Reg;
/// impl SeqSpec for Reg {
///     type State = i64;
///     fn initial(&self) -> i64 { 0 }
///     fn apply(&self, s: &i64, op: &Operation) -> Option<i64> {
///         match op.method.0 {
///             "write" => op.arg.as_int(),
///             "read" => (op.ret == Value::Int(*s)).then_some(*s),
///             _ => None,
///         }
///     }
///     fn completions_of(&self, _: &Invocation) -> Vec<Value> { vec![] }
/// }
/// let o = ObjectId(0);
/// let h = History::from_actions(vec![
///     Action::invoke(ThreadId(1), o, Method("write"), Value::Int(1)),
///     Action::response(ThreadId(1), o, Method("write"), Value::Unit),
///     Action::invoke(ThreadId(2), o, Method("read"), Value::Unit),
///     Action::response(ThreadId(2), o, Method("read"), Value::Int(0)),
/// ]);
/// let spec = SeqAsCa::new(Reg);
/// assert!(!check::is_cal(&h, &spec)?);           // stale read: not CAL
/// let hb = causal::causal_order(&h, &[]).unwrap(); // session order only
/// let outcome = causal::check_causal(&h, &spec, &hb)?;
/// assert!(outcome.verdict.is_cal());             // reordering explains it
/// # Ok::<(), cal_core::check::CheckError>(())
/// ```
pub fn check_causal<S: CaSpec>(
    history: &History,
    spec: &S,
    hb: &HbRelation,
) -> Result<CheckOutcome, CheckError> {
    check_causal_with(history, spec, hb, &CheckOptions::default())
}

/// Like [`check_causal`], with explicit [`CheckOptions`], on
/// [`CheckOptions::threads`] workers. Per-object decomposition is disabled
/// under a genuinely partial order, so above one thread every worker
/// searches the root, in its own successor order, against one shared
/// memo.
///
/// # Errors
///
/// Returns [`CheckError::IllFormed`] if the history is not well-formed
/// and [`CheckError::SpecPanicked`] if the specification panics.
pub fn check_causal_with<S: CaSpec>(
    history: &History,
    spec: &S,
    hb: &HbRelation,
    options: &CheckOptions,
) -> Result<CheckOutcome, CheckError> {
    let domain = CalDomain::with_order(Cow::Borrowed(history), SpecRef::Borrowed(spec), |_| {
        Ok::<_, HistoryError>(hb.clone())
    })?;
    Ok(engine::search(&domain, options)?.map_witness(|steps| domain.trace_of(&steps)))
}

/// [`check_causal_with`]'s old name, kept only because the benchmark
/// harness imports it.
pub use self::check_causal_with as check_causal_par_with;

/// Convenience predicate: `Ok(true)` iff the history is causally CAL
/// under `hb`.
///
/// # Errors
///
/// Returns [`CheckError::IllFormed`] for ill-formed histories,
/// [`CheckError::SpecPanicked`] when the spec panics, and
/// [`CheckError::Undecided`] when the default node budget runs out before
/// the search decides.
pub fn is_causal<S: CaSpec>(
    history: &History,
    spec: &S,
    hb: &HbRelation,
) -> Result<bool, CheckError> {
    let outcome = check_causal(history, spec, hb)?;
    match outcome.verdict {
        Verdict::Cal(_) => Ok(true),
        Verdict::NotCal => Ok(false),
        undecided => Err(CheckError::Undecided(undecided)),
    }
}

/// Validates a causal-mode witness: the specification must accept
/// `witness`, and the completion of `history` it implies must agree with
/// it under `hb` restricted to the completion's surviving operations
/// ([`crate::agree::agrees_under`]).
///
/// The restriction preserves ordering derived transitively *through* a
/// dropped pending invocation — the closure is computed before the
/// restriction — so dropping an operation never relaxes constraints
/// between survivors. This is the oracle the causal differential tests
/// use to cross-validate witnesses from the multi-threaded search.
pub fn witness_explains_causal<S: CaSpec>(
    history: &History,
    spec: &S,
    witness: &CaTrace,
    hb: &HbRelation,
) -> bool {
    if history.validate().is_err() || !spec.accepts(witness) {
        return false;
    }
    match reconstruct_completion(history, witness) {
        Some((completion, kept)) => {
            let restricted = hb.restrict(&kept);
            crate::agree::agrees_under(&completion, witness, &restricted).is_some()
        }
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::check;
    use crate::ids::{Method, ObjectId, ThreadId, Value};
    use crate::op::Operation;
    use crate::spec::{Invocation, SeqAsCa, SeqSpec};

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
                READ => (0..4).map(Value::Int).collect(),
                _ => vec![],
            }
        }
    }

    fn stale_read() -> History {
        History::from_actions(vec![
            Action::invoke(ThreadId(1), R, WRITE, Value::Int(1)),
            Action::response(ThreadId(1), R, WRITE, Value::Unit),
            Action::invoke(ThreadId(2), R, READ, Value::Unit),
            Action::response(ThreadId(2), R, READ, Value::Int(0)),
        ])
    }

    #[test]
    fn session_order_explains_a_stale_read() {
        let h = stale_read();
        let spec = SeqAsCa::new(Register);
        assert!(!check::is_cal(&h, &spec).unwrap());
        let hb = causal_order(&h, &[]).unwrap();
        let outcome = check_causal(&h, &spec, &hb).unwrap();
        let Verdict::Cal(witness) = &outcome.verdict else {
            panic!("expected causal acceptance, got {:?}", outcome.verdict);
        };
        assert!(witness_explains_causal(&h, &spec, witness, &hb));
    }

    #[test]
    fn an_explicit_edge_restores_the_rejection() {
        // Declaring write ≺hb read (the store became visible) makes the
        // stale read a genuine violation again.
        let h = stale_read();
        let spec = SeqAsCa::new(Register);
        let hb = causal_order(&h, &[(0, 1)]).unwrap();
        assert!(!is_causal(&h, &spec, &hb).unwrap());
    }

    #[test]
    fn real_time_order_makes_causal_agree_with_cal() {
        let histories = vec![
            stale_read(),
            History::from_actions(vec![
                Action::invoke(ThreadId(1), R, WRITE, Value::Int(1)),
                Action::invoke(ThreadId(2), R, READ, Value::Unit),
                Action::response(ThreadId(1), R, WRITE, Value::Unit),
                Action::response(ThreadId(2), R, READ, Value::Int(1)),
            ]),
        ];
        let spec = SeqAsCa::new(Register);
        for h in histories {
            let hb = HbRelation::real_time(&h.spans());
            let cal = check::is_cal(&h, &spec).unwrap();
            let causal = is_causal(&h, &spec, &hb).unwrap();
            assert_eq!(cal, causal, "modes disagree on {h}");
        }
    }

    #[test]
    fn cyclic_edges_are_an_error() {
        let h = stale_read();
        match causal_order(&h, &[(0, 1), (1, 0)]) {
            Err(CausalOrderError::Order(HbError::Cycle { .. })) => {}
            other => panic!("expected a cycle error, got {other:?}"),
        }
        match causal_order(&h, &[(0, 9)]) {
            Err(CausalOrderError::Order(HbError::EdgeOutOfRange { .. })) => {}
            other => panic!("expected out-of-range, got {other:?}"),
        }
    }

    #[test]
    fn session_order_is_preserved_within_threads() {
        // Same thread writes 1 then reads 0: session order forbids the
        // reorder even causally.
        let h = History::from_actions(vec![
            Action::invoke(ThreadId(1), R, WRITE, Value::Int(1)),
            Action::response(ThreadId(1), R, WRITE, Value::Unit),
            Action::invoke(ThreadId(1), R, READ, Value::Unit),
            Action::response(ThreadId(1), R, READ, Value::Int(0)),
        ]);
        let spec = SeqAsCa::new(Register);
        let hb = causal_order(&h, &[]).unwrap();
        assert!(hb.precedes(0, 1));
        assert!(!is_causal(&h, &spec, &hb).unwrap());
    }

    #[test]
    fn parallel_driver_matches_sequential_under_partial_order() {
        let h = stale_read();
        let spec = SeqAsCa::new(Register);
        let hb = causal_order(&h, &[]).unwrap();
        for threads in [2, 4] {
            let options = CheckOptions { threads, ..CheckOptions::default() };
            let outcome = check_causal_with(&h, &spec, &hb, &options).unwrap();
            assert!(outcome.verdict.is_cal(), "threads={threads}: {:?}", outcome.verdict);
        }
    }
}
