//! Step-machine models of the stacks of Fig. 2.
//!
//! [`FailingStackModel`] is the paper's central stack `S`: `push` and `pop`
//! perform one CAS on `top` and report failure on contention (lines 7–24).
//! [`TreiberStackModel`] is the classic retrying variant used as the
//! no-elimination baseline: it retries the CAS until it succeeds (bounded;
//! exhausting the bound leaves the operation pending via
//! [`StepOutcome::Stuck`]).
//!
//! Both log one singleton CA-element per completed operation at its
//! linearization point — the CAS (success or failure) or the empty-stack
//! read — matching the stack specification of §4, where *every* `S.f(n)`
//! appends `S.{(t, f(n) ▷ r)}` to the trace.

use cal_core::{CaElement, ObjectId, Operation, ThreadId, Value};

use crate::model::{Model, OpRequest, StepCtx, StepOutcome};
use cal_specs::vocab::{POP, PUSH};

/// One immutable stack cell (Fig. 2, line 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cell {
    /// The stored value.
    pub data: i64,
    /// The next cell down, by arena index.
    pub next: Option<usize>,
}

/// Shared state of a stack: a cell arena plus `top`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct StackShared {
    /// All cells ever allocated.
    pub cells: Vec<Cell>,
    /// The current top of the stack.
    pub top: Option<usize>,
}

impl StackShared {
    /// Creates an empty stack.
    pub fn new() -> Self {
        StackShared::default()
    }

    /// The stack contents, bottom first (for assertions in tests).
    pub fn contents(&self) -> Vec<i64> {
        let mut out = Vec::new();
        let mut cur = self.top;
        while let Some(i) = cur {
            out.push(self.cells[i].data);
            cur = self.cells[i].next;
        }
        out.reverse();
        out
    }
}

/// Local state of one failing-stack operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StackLocal {
    /// `push` line 11: read `top` and allocate the new cell.
    PushRead {
        /// The value to push.
        v: i64,
    },
    /// `push` line 13: `CAS(&top, h, n)`.
    PushCas {
        /// The value to push.
        v: i64,
        /// The observed `top`.
        h: Option<usize>,
        /// The allocated cell.
        n: usize,
    },
    /// `pop` line 16: read `top`.
    PopRead,
    /// `pop` lines 19–20: read `h.next`, then `CAS(&top, h, n)`.
    PopCas {
        /// The observed `top`.
        h: usize,
    },
}

/// Logs the singleton element for a completed stack operation.
fn log_stack_op(
    ctx: &mut StepCtx<'_>,
    object: ObjectId,
    t: ThreadId,
    method: cal_core::Method,
    arg: Value,
    ret: Value,
) {
    ctx.log(CaElement::singleton(Operation::new(t, object, method, arg, ret)));
}

/// One step of the failing stack; reusable by the elimination stack model.
/// Returns `Done` with the operation's `(bool, …)` result.
pub fn failing_stack_step(
    object: ObjectId,
    shared: &mut StackShared,
    local: &mut StackLocal,
    ctx: &mut StepCtx<'_>,
) -> StepOutcome<StackLocal> {
    let t = ctx.thread;
    match *local {
        StackLocal::PushRead { v } => {
            // Lines 11–12: h = top; n = new Cell(data, h).
            let h = shared.top;
            let n = shared.cells.len();
            shared.cells.push(Cell { data: v, next: h });
            *local = StackLocal::PushCas { v, h, n };
            StepOutcome::Continue
        }
        StackLocal::PushCas { v, h, n } => {
            // Line 13: return CAS(&top, h, n).
            if shared.top == h {
                shared.top = Some(n);
                ctx.label("PUSH");
                log_stack_op(ctx, object, t, PUSH, Value::Int(v), Value::Bool(true));
                StepOutcome::Done(Value::Bool(true))
            } else {
                ctx.label("PUSH-FAIL");
                log_stack_op(ctx, object, t, PUSH, Value::Int(v), Value::Bool(false));
                StepOutcome::Done(Value::Bool(false))
            }
        }
        StackLocal::PopRead => {
            // Lines 16–18: h = top; if (h == null) return (false, 0).
            match shared.top {
                None => {
                    ctx.label("POP-EMPTY");
                    log_stack_op(ctx, object, t, POP, Value::Unit, Value::Pair(false, 0));
                    StepOutcome::Done(Value::Pair(false, 0))
                }
                Some(h) => {
                    *local = StackLocal::PopCas { h };
                    StepOutcome::Continue
                }
            }
        }
        StackLocal::PopCas { h } => {
            // Lines 19–23: n = h.next; if (CAS(&top, h, n)) … else (false,0).
            // Cells are immutable, so reading h.next here is equivalent to
            // the separate read of line 19.
            let n = shared.cells[h].next;
            if shared.top == Some(h) {
                shared.top = n;
                let v = shared.cells[h].data;
                ctx.label("POP");
                log_stack_op(ctx, object, t, POP, Value::Unit, Value::Pair(true, v));
                StepOutcome::Done(Value::Pair(true, v))
            } else {
                ctx.label("POP-FAIL");
                log_stack_op(ctx, object, t, POP, Value::Unit, Value::Pair(false, 0));
                StepOutcome::Done(Value::Pair(false, 0))
            }
        }
    }
}

/// The failing central stack `S` of Fig. 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailingStackModel {
    object: ObjectId,
}

impl FailingStackModel {
    /// Creates a model of the failing stack named `object`.
    pub fn new(object: ObjectId) -> Self {
        FailingStackModel { object }
    }
}

fn stack_local_for(request: &OpRequest) -> StackLocal {
    match request.method {
        PUSH => StackLocal::PushRead { v: request.arg.as_int().expect("push takes an integer") },
        POP => StackLocal::PopRead,
        other => panic!("stack does not offer {other}"),
    }
}

impl Model for FailingStackModel {
    type Shared = StackShared;
    type Local = StackLocal;

    fn object(&self) -> ObjectId {
        self.object
    }

    fn init_shared(&self) -> StackShared {
        StackShared::new()
    }

    fn on_invoke(&self, _thread: ThreadId, request: &OpRequest) -> StackLocal {
        stack_local_for(request)
    }

    fn step(
        &self,
        shared: &mut StackShared,
        local: &mut StackLocal,
        ctx: &mut StepCtx<'_>,
    ) -> StepOutcome<StackLocal> {
        failing_stack_step(self.object, shared, local, ctx)
    }
}

/// Local state of a retrying (Treiber) stack operation: the failing-stack
/// machine plus a retry budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TreiberLocal {
    inner: StackLocal,
    attempts_left: u8,
}

/// The classic retrying Treiber stack, used as the no-elimination baseline.
/// `pop` on an empty stack still returns `(false, 0)` (a legitimate result,
/// not contention); CAS contention is retried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreiberStackModel {
    object: ObjectId,
    max_attempts: u8,
}

impl TreiberStackModel {
    /// Creates a model of the retrying stack named `object`, retrying a
    /// contended CAS up to `max_attempts` times before the operation is
    /// left pending.
    pub fn new(object: ObjectId, max_attempts: u8) -> Self {
        TreiberStackModel { object, max_attempts }
    }
}

impl Model for TreiberStackModel {
    type Shared = StackShared;
    type Local = TreiberLocal;

    fn object(&self) -> ObjectId {
        self.object
    }

    fn init_shared(&self) -> StackShared {
        StackShared::new()
    }

    fn on_invoke(&self, _thread: ThreadId, request: &OpRequest) -> TreiberLocal {
        TreiberLocal { inner: stack_local_for(request), attempts_left: self.max_attempts }
    }

    fn step(
        &self,
        shared: &mut StackShared,
        local: &mut TreiberLocal,
        ctx: &mut StepCtx<'_>,
    ) -> StepOutcome<TreiberLocal> {
        // Run the failing machine, but turn contention failures into
        // retries. Distinguish contention from pop-on-empty by peeking at
        // the machine state: PopRead on empty is a real (false, 0).
        let was_pop_read = matches!(local.inner, StackLocal::PopRead) && shared.top.is_none();
        let mut label = None;
        let outcome = {
            // Intercept trace logging: failures that will be retried must
            // not log an element. Run the step into a scratch trace.
            let mut scratch = cal_core::CaTrace::new();
            let mut scratch_ctx = StepCtx::new(ctx.thread, &mut scratch, &mut label);
            let outcome = failing_stack_step(self.object, shared, &mut local.inner, &mut scratch_ctx);
            match &outcome {
                StepOutcome::Done(ret) => {
                    let failed = matches!(ret, Value::Bool(false))
                        || (matches!(ret, Value::Pair(false, _)) && !was_pop_read);
                    if !failed {
                        // Commit the logged element and label.
                        for e in scratch.elements() {
                            ctx.log(e.clone());
                        }
                        if let Some(l) = label {
                            ctx.label(l);
                        }
                    }
                }
                _ => {
                    debug_assert!(scratch.is_empty());
                    if let Some(l) = label {
                        ctx.label(l);
                    }
                }
            }
            outcome
        };
        match outcome {
            StepOutcome::Done(Value::Bool(false)) => {
                // Contended push: retry.
                self.retry(local, |v| StackLocal::PushRead { v })
            }
            StepOutcome::Done(Value::Pair(false, _)) if !was_pop_read => {
                // Contended pop: retry.
                self.retry(local, |_| StackLocal::PopRead)
            }
            StepOutcome::Continue => StepOutcome::Continue,
            StepOutcome::Done(ret) => StepOutcome::Done(ret),
            StepOutcome::Stuck => StepOutcome::Stuck,
            StepOutcome::Choose(_) => unreachable!("stack never branches"),
        }
    }
}

impl TreiberStackModel {
    fn retry(
        &self,
        local: &mut TreiberLocal,
        restart: impl Fn(i64) -> StackLocal,
    ) -> StepOutcome<TreiberLocal> {
        if local.attempts_left == 0 {
            return StepOutcome::Stuck;
        }
        local.attempts_left -= 1;
        let v = match local.inner {
            StackLocal::PushCas { v, .. } | StackLocal::PushRead { v } => v,
            _ => 0,
        };
        local.inner = restart(v);
        StepOutcome::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{Explorer, Workload};
    use cal_core::agree::agrees_bool;
    use cal_core::check::is_cal;
    use cal_core::spec::{SeqAsCa, SeqSpec};
    use cal_specs::stack::StackSpec;

    const S: ObjectId = ObjectId(0);

    fn push(v: i64) -> OpRequest {
        OpRequest::new(PUSH, Value::Int(v))
    }

    fn pop() -> OpRequest {
        OpRequest::new(POP, Value::Unit)
    }

    #[test]
    fn sequential_push_pop() {
        let m = FailingStackModel::new(S);
        let w = Workload::new(vec![vec![push(1), push(2), pop(), pop(), pop()]]);
        Explorer::new(&m, w).run(|e| {
            let rets: Vec<Value> = e.history.operations().iter().map(|o| o.ret).collect();
            assert_eq!(
                rets,
                vec![
                    Value::Bool(true),
                    Value::Bool(true),
                    Value::Pair(true, 2),
                    Value::Pair(true, 1),
                    Value::Pair(false, 0),
                ]
            );
        });
    }

    #[test]
    fn contention_can_fail_operations() {
        let m = FailingStackModel::new(S);
        let w = Workload::new(vec![vec![push(1)], vec![push(2)]]);
        let mut saw_failure = false;
        Explorer::new(&m, w).run(|e| {
            for op in e.history.operations() {
                if op.ret == Value::Bool(false) {
                    saw_failure = true;
                }
            }
        });
        assert!(saw_failure, "overlapping pushes must be able to contend");
    }

    #[test]
    fn every_interleaving_linearizable_wrt_failing_spec() {
        let m = FailingStackModel::new(S);
        let spec = StackSpec::failing(S);
        let lin = SeqAsCa::new(spec.clone());
        let w = Workload::new(vec![vec![push(1), pop()], vec![push(2), pop()]]);
        let mut execs = 0;
        Explorer::new(&m, w).run(|e| {
            execs += 1;
            // The logged trace is the linearization witness.
            let ops: Vec<_> = e.trace.all_ops();
            assert!(spec.accepts(&ops), "trace {} illegal", e.trace);
            assert!(agrees_bool(&e.history, &e.trace));
            assert!(is_cal(&e.history, &lin).unwrap());
        });
        assert!(execs > 5);
    }

    #[test]
    fn treiber_push_always_succeeds_within_budget() {
        let m = TreiberStackModel::new(S, 4);
        let w = Workload::new(vec![vec![push(1)], vec![push(2)]]);
        Explorer::new(&m, w).run(|e| {
            for op in e.history.operations() {
                assert_eq!(op.ret, Value::Bool(true));
            }
            assert_eq!(e.final_shared.contents().len(), 2);
        });
    }

    #[test]
    fn treiber_is_linearizable_wrt_total_spec() {
        let m = TreiberStackModel::new(S, 4);
        let spec = StackSpec::total(S);
        let w = Workload::new(vec![vec![push(1), pop()], vec![push(2)]]);
        Explorer::new(&m, w).run(|e| {
            let ops: Vec<_> = e.trace.all_ops();
            assert!(spec.accepts(&ops), "trace {} illegal", e.trace);
            assert!(agrees_bool(&e.history, &e.trace));
        });
    }

    #[test]
    fn treiber_pop_empty_is_a_real_result() {
        let m = TreiberStackModel::new(S, 4);
        let w = Workload::new(vec![vec![pop()]]);
        Explorer::new(&m, w).run(|e| {
            assert_eq!(e.history.operations()[0].ret, Value::Pair(false, 0));
        });
    }

    #[test]
    fn contents_reports_bottom_first() {
        let mut s = StackShared::new();
        s.cells.push(Cell { data: 1, next: None });
        s.cells.push(Cell { data: 2, next: Some(0) });
        s.top = Some(1);
        assert_eq!(s.contents(), vec![1, 2]);
    }
}
