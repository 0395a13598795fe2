//! Machine-checked obligations for the central stack of Fig. 2, in the
//! style of the exchanger proof and, like it, checked one step of the state
//! graph at a time: every step must be one of the stack's atomic actions,
//! the heap invariant must hold after it, and the trace after it must be a
//! well-defined stack history (`WFS`, §4).

use cal_core::spec::SeqSpec;
use cal_core::{CaElement, ObjectId, Value};
use cal_sim::models::stack::{StackLocal, StackShared};
use cal_sim::sched::{Edge, StepKind};
use cal_specs::stack::StackSpec;
use cal_specs::vocab::{POP, PUSH};

use crate::exchanger_rg::{violation, RgViolation};

/// One step of the failing stack model.
type Step<'a> = Edge<'a, StackShared, StackLocal>;

/// The full obligation check of one step of the failing stack model: action
/// conformance, the acyclic-reachability invariant, and `WFS` of the
/// logged trace.
///
/// # Errors
///
/// Returns the first violated obligation.
pub fn check_stack_rg(object: ObjectId, step: &Step<'_>) -> Result<(), RgViolation> {
    check_action(object, step)?;
    check_invariant(step)?;
    check_wfs(object, step)
}

/// `WFS(𝒯_S)` after a step that logs: replaying the operations of the
/// trace in order is possible and reproduces the reported results (§4).
/// A step that logs nothing leaves the trace as the step before it did.
fn check_wfs(object: ObjectId, step: &Step<'_>) -> Result<(), RgViolation> {
    if step.logged.is_empty() {
        return Ok(());
    }
    let spec = StackSpec::failing(object);
    let mut state = spec.initial();
    for element in step.trace.elements() {
        let [op] = element.ops() else {
            return violation(step.thread, format!("stack elements are singletons, found {element}"));
        };
        let Some(next) = spec.apply(&state, op) else {
            return violation(op.thread, format!("trace violates WFS at element {element}"));
        };
        state = next;
    }
    Ok(())
}

/// Conformance of one step to the stack's atomic actions.
fn check_action(object: ObjectId, step: &Step<'_>) -> Result<(), RgViolation> {
    let (t, pre, post, delta) = (step.thread, step.pre, step.post, step.logged);
    let singleton = |delta: &[CaElement]| -> Option<cal_core::Operation> {
        match delta {
            [e] => match e.ops() {
                [op] if e.object() == object && op.thread == t => Some(*op),
                _ => None,
            },
            _ => None,
        }
    };
    if step.kind == StepKind::Invoke {
        if pre != post || !delta.is_empty() {
            return violation(t, "invocation must not touch shared state");
        }
        return Ok(());
    }
    match step.label {
        None => {
            // Reads, or a private cell allocation (push's line 12).
            if post.top != pre.top {
                return violation(t, "unlabelled step changed top");
            }
            if !delta.is_empty() {
                return violation(t, "unlabelled step extended the trace");
            }
            if post.cells.len() > pre.cells.len() + 1
                || post.cells[..pre.cells.len()] != pre.cells[..]
            {
                return violation(t, "unlabelled step mutated published cells");
            }
            Ok(())
        }
        Some("PUSH") => {
            let Some(op) = singleton(delta) else {
                return violation(t, "PUSH must log one own element");
            };
            if op.method != PUSH || op.ret != Value::Bool(true) {
                return violation(t, format!("PUSH logged wrong element {op}"));
            }
            let Some(n) = post.top else {
                return violation(t, "PUSH must set top");
            };
            if post.cells != pre.cells {
                return violation(t, "PUSH may only swing top");
            }
            let cell = post.cells[n];
            if cell.next != pre.top {
                return violation(t, "pushed cell must point at the old top");
            }
            if op.arg != Value::Int(cell.data) {
                return violation(t, "PUSH element must carry the pushed value");
            }
            Ok(())
        }
        Some("PUSH-FAIL") => {
            if pre != post {
                return violation(t, "PUSH-FAIL must not touch shared state");
            }
            let Some(op) = singleton(delta) else {
                return violation(t, "PUSH-FAIL must log one own element");
            };
            (op.method == PUSH && op.ret == Value::Bool(false))
                .then_some(())
                .ok_or(())
                .or_else(|_| violation(t, format!("PUSH-FAIL logged wrong element {op}")))
        }
        Some("POP") => {
            let Some(op) = singleton(delta) else {
                return violation(t, "POP must log one own element");
            };
            let Some(h) = pre.top else {
                return violation(t, "POP requires a non-empty stack");
            };
            if post.cells != pre.cells {
                return violation(t, "POP may only swing top");
            }
            if post.top != pre.cells[h].next {
                return violation(t, "POP must swing top to the next cell");
            }
            if op.method != POP || op.ret != Value::Pair(true, pre.cells[h].data) {
                return violation(t, format!("POP element must report the popped value, got {op}"));
            }
            Ok(())
        }
        Some("POP-FAIL") | Some("POP-EMPTY") => {
            if pre != post {
                return violation(t, "failing POP must not touch shared state");
            }
            if step.label == Some("POP-EMPTY") && pre.top.is_some() {
                return violation(t, "POP-EMPTY requires an empty stack");
            }
            let Some(op) = singleton(delta) else {
                return violation(t, "failing POP must log one own element");
            };
            (op.method == POP && op.ret == Value::Pair(false, 0))
                .then_some(())
                .ok_or(())
                .or_else(|_| violation(t, format!("failing POP logged wrong element {op}")))
        }
        Some(other) => violation(t, format!("unknown action label {other}")),
    }
}

/// Heap invariant: the chain from `top` is acyclic and within the arena.
fn check_invariant(step: &Step<'_>) -> Result<(), RgViolation> {
    let s = step.post;
    let mut seen = vec![false; s.cells.len()];
    let mut cur = s.top;
    while let Some(k) = cur {
        if k >= s.cells.len() {
            return violation(step.thread, "top chain escapes the arena");
        }
        if seen[k] {
            return violation(step.thread, "top chain is cyclic");
        }
        seen[k] = true;
        cur = s.cells[k].next;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cal_sim::models::faulty::{FaultyStackModel, StackBug};
    use cal_sim::models::stack::FailingStackModel;
    use cal_sim::{Explorer, Model, OpRequest, Workload};

    const S: ObjectId = ObjectId(0);

    fn push(v: i64) -> OpRequest {
        OpRequest::new(PUSH, Value::Int(v))
    }

    fn pop() -> OpRequest {
        OpRequest::new(POP, Value::Unit)
    }

    /// How many steps of `model`'s state graph under `workload` violate an
    /// obligation, and how many steps there are.
    fn violating_steps<M>(model: &M, workload: Workload) -> (u64, u64)
    where
        M: Model<Shared = StackShared, Local = StackLocal>,
    {
        let mut bad = 0;
        let stats = Explorer::new(model, workload)
            .edges(|step| bad += u64::from(check_stack_rg(S, step).is_err()));
        (bad, stats.edges)
    }

    fn push_pop_pop() -> Workload {
        Workload::new(vec![vec![push(1)], vec![pop()], vec![pop()]])
    }

    #[test]
    fn the_correct_model_passes_every_step() {
        let model = FailingStackModel::new(S);
        assert_eq!(violating_steps(&model, Workload::new(vec![vec![push(1), pop(), pop()]])).0, 0);
        assert_eq!(violating_steps(&model, push_pop_pop()), (0, 531));
    }

    #[test]
    fn every_stack_bug_fails() {
        for (bug, failing) in [(StackBug::PopWithoutCas, 146), (StackBug::PopWrongValue, 230)] {
            let model = FaultyStackModel::new(S, bug);
            assert_eq!(violating_steps(&model, push_pop_pop()), (failing, 531), "{bug:?}");
        }
    }

    #[test]
    fn a_corrupted_step_is_rejected() {
        // Take each valid PUSH step and pretend the push vanished.
        let model = FailingStackModel::new(S);
        let mut pushes = 0;
        Explorer::new(&model, Workload::new(vec![vec![push(1)]])).edges(|step| {
            if step.label != Some("PUSH") {
                return;
            }
            pushes += 1;
            assert_eq!(check_stack_rg(S, step), Ok(()));
            let post = StackShared { top: None, ..step.post.clone() };
            assert!(check_stack_rg(S, &Edge { post: &post, ..step.clone() }).is_err());
        });
        assert_eq!(pushes, 1);
    }
}
