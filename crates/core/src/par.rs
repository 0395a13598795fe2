//! Parallel CAL membership checking.
//!
//! The engine's one task runner ([`crate::engine::search_par`]) hands a
//! task list to `min(threads, tasks)` workers. Which tasks there are is
//! decided by the input, not by the thread count:
//!
//! 1. **Per-object parts** (CAL locality). A CA-trace set built from
//!    independent per-object specifications constrains each object's
//!    elements separately, so a history is CAL iff every per-object
//!    subhistory is CAL w.r.t. the restricted specification
//!    ([`crate::spec::CaSpec::restrict`]). Such a history is checked
//!    part by part at every thread count — the sequential
//!    [`crate::check::check_cal_with`] included — and the per-object
//!    witnesses are merged, in part order, into one trace whose
//!    interleaving respects the full history's real-time order.
//! 2. **Every worker on the root, one shared memo table.** When the
//!    history does not decompose (single object, or objects coupled
//!    through a composed specification) and more than one thread is
//!    asked for, each worker runs the whole arena-based DFS from the
//!    root against one lock-free fingerprint table
//!    ([`crate::fpmemo::FpMemo`]). Worker `i` of `w` tries each node's
//!    successors from offset `⌊i·len/w⌋` on, wrapping around (worker 0 in
//!    the sequential order), so the workers exhaust different subtrees
//!    first and each prunes the others' search with what it refuted. The
//!    first worker to end decides: its witness accepts, its run to the
//!    end refutes. With [`CheckOptions::memoize`] off the workers would
//!    share nothing, and one worker searches the root.
//!
//! Either way a shared node counter makes [`CheckOptions::max_nodes`] a
//! global budget, a stop latch winds every worker down as soon as one
//! task decides the run, [`CheckOptions::deadline`] /
//! [`CheckOptions::cancel`] interrupt cooperatively, and per-task
//! [`CheckStats`] are summed.

use std::borrow::Cow;

use crate::check::CalDomain;
use crate::engine::{self, SpecRef};
use crate::history::History;
use crate::spec::CaSpec;

pub use crate::check::{CheckError, CheckOptions, CheckOutcome, CheckStats};

/// Decides whether `history` is CAL w.r.t. `spec` on
/// [`CheckOptions::threads`] workers.
///
/// Always returns the same verdict as the sequential
/// [`crate::check::check_cal_with`] on decided inputs: `Cal` exactly when
/// a witness exists (possibly a different, equally valid witness) and
/// `NotCal` exactly when none does. Undecided outcomes
/// (`ResourcesExhausted`, `Interrupted`) arise under the same budgets,
/// with `max_nodes` interpreted as a budget on the *total* nodes across
/// workers.
///
/// When the history touches several objects and the specification can be
/// restricted to every one of them ([`CaSpec::restrict`]), the check
/// decomposes into independent per-object subchecks (CAL locality) run in
/// parallel; otherwise every worker searches the whole history in its own
/// successor order, and the workers share one lock-free memo table. At
/// one thread this is [`crate::check::check_cal_with`].
///
/// # Errors
///
/// Returns [`CheckError::IllFormed`] if the history is not well-formed
/// and [`CheckError::SpecPanicked`] if the specification panics.
pub fn check_cal_par_with<S>(
    history: &History,
    spec: &S,
    options: &CheckOptions,
) -> Result<CheckOutcome, CheckError>
where
    S: CaSpec + Sync,
    S::State: Send + Sync,
{
    let domain = CalDomain::new(Cow::Borrowed(history), SpecRef::Borrowed(spec))?;
    Ok(engine::search_par(&domain, options)?.map_witness(|steps| domain.trace_of(&steps)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::check::{check_cal_with, witness_explains, CancelToken, Verdict};
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
            let outcome = check_cal_par_with(&h, &spec, &threads_options(threads)).unwrap();
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
            let outcome = check_cal_par_with(&h, &spec, &threads_options(threads)).unwrap();
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
        let outcome = check_cal_par_with(&h, &spec, &threads_options(4)).unwrap();
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
        let outcome = check_cal_par_with(&h, &spec, &threads_options(2)).unwrap();
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
            let outcome = check_cal_par_with(&h, &spec, &threads_options(threads)).unwrap();
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
                let outcome = check_cal_par_with(&h, &spec, &threads_options(threads)).unwrap();
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
        let outcome = check_cal_par_with(&h, &spec, &threads_options(4)).unwrap();
        assert!(outcome.verdict.is_cal(), "{:?}", outcome.verdict);
    }

    #[test]
    fn shared_budget_is_global() {
        let o = ObjectId(0);
        let h = History::from_actions(hard_history(o, 9, 1));
        let spec = MiniExchanger(o);
        let options = CheckOptions { max_nodes: 3, threads: 4, ..CheckOptions::default() };
        let outcome = check_cal_par_with(&h, &spec, &options).unwrap();
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
        let outcome = check_cal_par_with(&h, &MiniExchanger(o), &options).unwrap();
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
        assert!(check_cal_par_with(&empty, &spec, &threads_options(4))
            .unwrap()
            .verdict
            .is_cal());
        let pending = History::from_actions(vec![inv_on(o, 1, 3)]);
        let outcome = check_cal_par_with(&pending, &spec, &threads_options(4)).unwrap();
        assert!(outcome.verdict.is_cal());
    }
}
