//! Machine-checked rendition of the exchanger proof (§5.1, Figs. 1 and 4).
//!
//! The paper's proof has four ingredients, each of which becomes an
//! executable check of one step of the state graph `cal-sim`'s explorer
//! walks ([`Explorer::edges`](cal_sim::Explorer::edges) reports every step
//! out of every reachable state once):
//!
//! 1. **Guarantee conformance** — every shared-state transition must be an
//!    instance of one of Fig. 4's actions (`INIT`, `CLEAN`, `PASS`,
//!    `XCHG`, `FAIL`) performed by the stepping thread, or be
//!    environment-invisible (a read, or a private allocation). Since every
//!    thread's steps conform to its guarantee `G_t`, every *other* thread
//!    experiences interference within its rely
//!    `R_t = IRRELEVANT ∨ ∃t' ≠ t. G_{t'}` by construction.
//! 2. **The global invariant `J`** — `g` never holds an unsatisfied offer
//!    of a thread that is not currently inside `exchange` — checked after
//!    every step.
//! 3. **The proof-outline assertions** of Fig. 1 (`A`, `B(k)` and the
//!    line-16/26/28/30/32 disjunctions) — evaluated at each thread's
//!    current program point after *every* step, which checks both that each
//!    step establishes its postcondition and that the assertions are
//!    **stable** under the interference of the other threads.
//! 4. **`exchange`'s postcondition** (Fig. 1) — on the step that returns,
//!    the thread's projection of the trace is `T` and one element more, and
//!    the value returned is the one that element records for it.
//!
//! The proof's logical variable `T = 𝒯_E|t` at `t`'s invocation is read off
//! the state as the number of `t`'s responses in the history. That is exact
//! because (4) holds on every step: each completed exchange logged exactly
//! one element mentioning its thread.

use std::error::Error;
use std::fmt;

use cal_core::{Action, CaElement, CaTrace, History, ObjectId, Operation, ThreadId, Value};
use cal_sim::models::exchanger::{ExchangerLocal, ExchangerShared, Hole, Offer};
use cal_sim::sched::{Edge, StepKind};
use cal_specs::vocab::EXCHANGE;

/// A violation of a rely/guarantee obligation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RgViolation {
    /// The thread whose obligation failed.
    pub thread: ThreadId,
    /// Human-readable description of the failed obligation.
    pub reason: String,
}

impl fmt::Display for RgViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.thread, self.reason)
    }
}

impl Error for RgViolation {}

/// One step of the exchanger model.
type Step<'a> = Edge<'a, ExchangerShared, ExchangerLocal>;

/// The full §5.1 check of one step of the exchanger model: guarantee
/// conformance, invariant `J`, the Fig. 1 proof outline and, on a step
/// that returns, `exchange`'s postcondition.
///
/// # Errors
///
/// Returns the first violated obligation.
pub fn check_exchanger_rg(object: ObjectId, step: &Step<'_>) -> Result<(), RgViolation> {
    check_action(object, step)?;
    check_invariant_j(step)?;
    check_postcondition(step)?;
    check_outline(object, step)
}

/// The length of the projection `𝒯|t` (Def. 4).
fn mentions(trace: &CaTrace, t: ThreadId) -> usize {
    trace.elements().iter().filter(|e| e.mentions_thread(t)).count()
}

/// The last element of `trace` that mentions `t`.
fn last_mentioning(trace: &CaTrace, t: ThreadId) -> Option<&CaElement> {
    trace.elements().iter().rfind(|e| e.mentions_thread(t))
}

/// How many of `t`'s operations have returned.
fn responses(history: &History, t: ThreadId) -> usize {
    history.actions().iter().filter(|a| a.thread() == t && a.is_response()).count()
}

pub(crate) fn violation(thread: ThreadId, reason: impl Into<String>) -> Result<(), RgViolation> {
    Err(RgViolation { thread, reason: reason.into() })
}

/// Fig. 4 guarantee conformance for one step.
fn check_action(object: ObjectId, step: &Step<'_>) -> Result<(), RgViolation> {
    let (t, pre, post, delta) = (step.thread, step.pre, step.post, step.logged);
    if step.kind == StepKind::Invoke {
        if pre != post || !delta.is_empty() {
            return violation(t, "invocation must not touch shared state");
        }
        return Ok(());
    }
    match step.label {
        None => {
            // Environment-invisible: reads, or a private allocation (the
            // failed init CAS still allocated the offer).
            if post.g != pre.g {
                return violation(t, "unlabelled step changed g");
            }
            if !delta.is_empty() {
                return violation(t, "unlabelled step extended the trace");
            }
            if post.offers.len() > pre.offers.len() + 1
                || post.offers[..pre.offers.len()] != pre.offers[..]
            {
                return violation(t, "unlabelled step mutated published offers");
            }
            if post.offers.len() == pre.offers.len() + 1 {
                let fresh = post.offers[pre.offers.len()];
                if fresh.tid != t || fresh.hole != Hole::Null {
                    return violation(t, "allocated offer must be fresh and owned");
                }
            }
            Ok(())
        }
        Some("INIT") => {
            // [∃n. g⃐ = null ∧ n.tid = t ∧ n.hole = null ∧ g = n]_g
            let n = pre.offers.len();
            if pre.g.is_some() {
                return violation(t, "INIT requires g = null");
            }
            if post.g != Some(n)
                || post.offers.len() != n + 1
                || post.offers[..n] != pre.offers[..]
                || post.offers[n] != (Offer { tid: t, data: post.offers[n].data, hole: Hole::Null })
            {
                return violation(t, "INIT must publish a fresh own offer");
            }
            if !delta.is_empty() {
                return violation(t, "INIT must not extend the trace");
            }
            Ok(())
        }
        Some("PASS") => {
            // [g.hole⃐ = null ∧ g.tid = t ∧ g.hole = fail]_{g.hole}
            if post.g != pre.g || !delta.is_empty() {
                return violation(t, "PASS may only flip one hole");
            }
            let changed: Vec<usize> = diff_offers(pre, post);
            let [n] = changed[..] else {
                return violation(t, "PASS must change exactly one offer");
            };
            let (before, after) = (pre.offers[n], post.offers[n]);
            if before.tid != t
                || before.hole != Hole::Null
                || after != (Offer { hole: Hole::Fail, ..before })
            {
                return violation(t, "PASS must set own null hole to fail");
            }
            Ok(())
        }
        Some("XCHG") => {
            // [∃n ≠ fail. n.tid = t ∧ g.hole⃐ = null ∧ g.tid ≠ t ∧
            //  g.hole = n ∧ 𝒯 = 𝒯⃐ · E.swap(g.tid, g.data, t, n.data)]
            let Some(c) = pre.g else {
                return violation(t, "XCHG requires g ≠ null");
            };
            if post.g != pre.g {
                return violation(t, "XCHG must not change g");
            }
            let changed = diff_offers(pre, post);
            if changed != [c] {
                return violation(t, "XCHG must change exactly the offer in g");
            }
            let (before, after) = (pre.offers[c], post.offers[c]);
            if before.hole != Hole::Null || before.tid == t {
                return violation(t, "XCHG requires an unmatched foreign offer in g");
            }
            let Hole::Matched(n) = after.hole else {
                return violation(t, "XCHG must match the hole");
            };
            if (Offer { hole: Hole::Null, ..after }) != before {
                return violation(t, "XCHG may only write the hole");
            }
            let own = post.offers[n];
            if own.tid != t {
                return violation(t, "XCHG must install the matcher's own offer");
            }
            let expected = swap_element(object, before.tid, before.data, t, own.data);
            if delta != [expected.clone()] {
                return violation(t, format!("XCHG must log {expected}, logged {delta:?}"));
            }
            Ok(())
        }
        Some("CLEAN") => {
            // [g⃐.hole ≠ null ∧ g = null]_g
            let Some(c) = pre.g else {
                return violation(t, "CLEAN requires g ≠ null");
            };
            if pre.offers[c].hole == Hole::Null {
                return violation(t, "CLEAN requires a satisfied or passed offer");
            }
            if post.g.is_some() || post.offers != pre.offers || !delta.is_empty() {
                return violation(t, "CLEAN may only null g");
            }
            Ok(())
        }
        Some("FAIL") => {
            // [∃d. 𝒯 = 𝒯⃐ · E.{(t, ex(d) ▷ (false, d))}]_𝒯
            if pre != post {
                return violation(t, "FAIL must not touch shared memory");
            }
            let [e] = delta else {
                return violation(t, "FAIL must log exactly one element");
            };
            let [op] = e.ops() else {
                return violation(t, "FAIL element must be a singleton");
            };
            let ok = e.object() == object
                && op.thread == t
                && op.method == EXCHANGE
                && matches!((op.arg.as_int(), op.ret.as_pair()), (Some(d), Some((false, r))) if d == r);
            if !ok {
                return violation(t, format!("FAIL element malformed: {e}"));
            }
            Ok(())
        }
        Some(other) => violation(t, format!("unknown action label {other}")),
    }
}

fn diff_offers(pre: &ExchangerShared, post: &ExchangerShared) -> Vec<usize> {
    let common = pre.offers.len().min(post.offers.len());
    let mut changed: Vec<usize> =
        (0..common).filter(|&k| pre.offers[k] != post.offers[k]).collect();
    changed.extend(common..post.offers.len().max(pre.offers.len()));
    changed
}

/// The swap element `E.swap(t, v, t', v')`.
fn swap_element(object: ObjectId, t: ThreadId, v: i64, t2: ThreadId, v2: i64) -> CaElement {
    CaElement::pair(
        Operation::new(t, object, EXCHANGE, Value::Int(v), Value::Pair(true, v2)),
        Operation::new(t2, object, EXCHANGE, Value::Int(v2), Value::Pair(true, v)),
    )
    .expect("swap partners are distinct")
}

/// Invariant `J`: `∀t. g ≠ null ∧ g.hole = null ⟹ InE(g.tid)` — the offer
/// in `g`, while unsatisfied, belongs to a thread currently executing
/// `exchange`.
fn check_invariant_j(step: &Step<'_>) -> Result<(), RgViolation> {
    let Some(n) = step.post.g else { return Ok(()) };
    let offer = step.post.offers[n];
    let active = step.locals.get(offer.tid.0 as usize).is_some_and(Option::is_some);
    if offer.hole == Hole::Null && !active {
        return violation(
            step.thread,
            format!("J violated: g holds unsatisfied offer of inactive {}", offer.tid),
        );
    }
    Ok(())
}

/// Fig. 1's postcondition of `exchange`, on the step that returns:
/// `𝒯_E|t = T · e` for one element `e`, and the value returned is the one
/// `e` records for `t`.
fn check_postcondition(step: &Step<'_>) -> Result<(), RgViolation> {
    if step.kind != (StepKind::Step { completed: true }) {
        return Ok(());
    }
    let t = step.thread;
    // T counts t's earlier exchanges, so with this one t has returned T + 1 times.
    let (logged, returned) = (mentions(step.trace, t), responses(step.history, t));
    if logged != returned {
        return violation(t, format!("returns with {logged} logged elements after {returned} exchanges"));
    }
    let ret = step.history.actions().last().and_then(Action::ret);
    let own = last_mentioning(step.trace, t)
        .and_then(|e| e.ops().iter().find(|op| op.thread == t))
        .map(|op| op.ret);
    if own != ret {
        return violation(t, format!("returns {ret:?}, but its last logged element says {own:?}"));
    }
    Ok(())
}

/// Fig. 1's proof-outline assertions, evaluated for every in-flight thread
/// at its current program point. Because this runs after *every* step, it
/// checks stability under interference, not just establishment.
fn check_outline(object: ObjectId, step: &Step<'_>) -> Result<(), RgViolation> {
    let shared = step.post;
    for (ui, local) in step.locals.iter().enumerate() {
        let Some(local) = *local else { continue };
        let u = ThreadId(ui as u32);
        // T, u's logged elements at its invocation: one per exchange it
        // has completed (the postcondition holds on every step).
        let baseline = responses(step.history, u);
        let logged = mentions(step.trace, u);
        // A's trace conjunct: 𝒯_E|u = T. B's: 𝒯_E|u = T · E.swap(…).
        let a_trace = logged == baseline;
        let b_trace = |partner: Offer, own_value: i64| -> bool {
            logged == baseline + 1
                && last_mentioning(step.trace, u)
                    == Some(&swap_element(object, u, own_value, partner.tid, partner.data))
        };
        // A's memory conjuncts, parameterized by the own offer.
        let a_mem = |n: usize, v: i64| -> bool {
            let own_ok = shared.offers[n] == (Offer { tid: u, data: v, hole: Hole::Null });
            let g_ok = match shared.g {
                None => true,
                Some(gi) => shared.offers[gi].hole != Hole::Null || shared.offers[gi].tid != u,
            };
            own_ok && g_ok
        };
        let ok = match *local {
            ExchangerLocal::Init { .. } => a_trace,
            // Line 16: (𝒯_E|t = T ∧ n ↦ t,v,null ∧ g = n) ∨ B(n.hole).
            ExchangerLocal::Wait { n, v } | ExchangerLocal::TryPass { n, v } => {
                let first = a_trace
                    && shared.offers[n] == (Offer { tid: u, data: v, hole: Hole::Null })
                    && shared.g == Some(n);
                let second = match shared.offers[n].hole {
                    Hole::Matched(m) => {
                        shared.offers[m].tid != u && b_trace(shared.offers[m], v)
                    }
                    _ => false,
                };
                first || second
            }
            // Between the pass CAS and the fail return: own hole = fail,
            // nothing logged for u yet.
            ExchangerLocal::FailReturn { n, .. } => {
                a_trace && shared.offers[n].hole == Hole::Fail && shared.offers[n].tid == u
            }
            // Line 24: A.
            ExchangerLocal::ReadG { n, v } => a_trace && a_mem(n, v),
            // Line 26/28: A ∧ (g = cur ∨ cur.hole ≠ null) ∧ cur ≠ null ∧ ¬s.
            ExchangerLocal::TryXchg { n, v, cur } => {
                a_trace
                    && a_mem(n, v)
                    && (shared.g == Some(cur) || shared.offers[cur].hole != Hole::Null)
            }
            // Line 30: (¬s ∧ A ∨ s ∧ B(cur)) ∧ cur.hole ≠ null.
            ExchangerLocal::Clean { n, v, cur, s } => {
                let branch = if s {
                    shared.offers[cur].tid != u && b_trace(shared.offers[cur], v)
                } else {
                    a_trace && a_mem(n, v)
                };
                branch && shared.offers[cur].hole != Hole::Null
            }
            // Line 32: s ⟹ B(cur); ¬s keeps A until the FAIL log.
            ExchangerLocal::Finish { n, v, cur, s } => {
                if s {
                    shared.offers[cur].tid != u && b_trace(shared.offers[cur], v)
                } else {
                    a_trace && a_mem(n, v)
                }
            }
        };
        if !ok {
            return violation(
                u,
                format!("proof-outline assertion violated at {local:?} (shared {shared:?})"),
            );
        }
    }
    Ok(())
}


#[cfg(test)]
mod tests {
    use super::*;
    use cal_sim::models::exchanger::ExchangerModel;
    use cal_sim::models::faulty::{ExchangerBug, FaultyExchangerModel};
    use cal_sim::{Explorer, Model, OpRequest, Workload};

    const E: ObjectId = ObjectId(0);

    /// `threads` threads with one exchange each, of distinct values.
    fn one_each(threads: i64) -> Workload {
        let exchange = |v| vec![OpRequest::new(EXCHANGE, Value::Int(v))];
        Workload::new((0..threads).map(|t| exchange(t + 3)).collect())
    }

    /// How many steps of `model`'s state graph under `workload` violate an
    /// obligation, and how many steps there are.
    fn violating_steps<M>(model: &M, workload: Workload) -> (u64, u64)
    where
        M: Model<Shared = ExchangerShared, Local = ExchangerLocal>,
    {
        let mut bad = 0;
        let stats = Explorer::new(model, workload)
            .edges(|step| bad += u64::from(check_exchanger_rg(E, step).is_err()));
        (bad, stats.edges)
    }

    #[test]
    fn the_correct_model_passes_every_step() {
        let model = ExchangerModel::new(E);
        assert_eq!(violating_steps(&model, one_each(1)).0, 0);
        assert_eq!(violating_steps(&model, one_each(2)), (0, 194));
    }

    #[test]
    fn every_exchanger_bug_fails_at_two_and_three_threads() {
        for bug in [ExchangerBug::ReturnOwnValue, ExchangerBug::MatchWithoutCas, ExchangerBug::WrongSwapLog]
        {
            let model = FaultyExchangerModel::new(E, bug);
            for threads in [2, 3] {
                let (bad, steps) = violating_steps(&model, one_each(threads));
                assert!(bad > 0, "{bug:?} passes all {steps} steps at {threads}x1");
            }
        }
        // Memory and trace are the correct algorithm's; only the returned
        // value is wrong, and only the postcondition looks at it.
        let model = FaultyExchangerModel::new(E, ExchangerBug::ReturnOwnValue);
        assert_eq!(violating_steps(&model, one_each(2)), (12, 194));
    }

    #[test]
    fn a_corrupted_step_is_rejected() {
        // Sanity: the checker is not vacuous. Take each valid XCHG step and
        // pretend it also flipped g.
        let model = ExchangerModel::new(E);
        let mut xchgs = 0;
        Explorer::new(&model, one_each(2)).edges(|step| {
            if step.label != Some("XCHG") {
                return;
            }
            xchgs += 1;
            assert_eq!(check_exchanger_rg(E, step), Ok(()));
            let post = ExchangerShared { g: None, ..step.post.clone() };
            assert!(check_exchanger_rg(E, &Edge { post: &post, ..step.clone() }).is_err());
        });
        assert!(xchgs > 0, "expected an XCHG step");
    }

    #[test]
    fn violation_display_names_the_thread() {
        let v = RgViolation { thread: ThreadId(1), reason: "x".into() };
        assert_eq!(v.to_string(), "t1: x");
    }
}
