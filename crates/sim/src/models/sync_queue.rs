//! Step-machine model of a synchronous queue built on an exchanger — the
//! extended paper's second client (§2, after Scherer–Lea–Scott).
//!
//! `put(v)` repeatedly offers `v` to the encapsulated exchanger until it
//! receives the take sentinel (a consumer's offer); `take()` offers the
//! sentinel until it receives a plain value. Retries are bounded; an
//! exhausted budget is a *timeout*, returning `false` / `(false, 0)` and
//! logging the corresponding singleton CA-element on the queue itself.
//! Successful transfers are not logged by the queue — `F_Q` derives them
//! from the exchanger's swap elements, the paper's compositional recipe.

use cal_core::{CaElement, ObjectId, Operation, ThreadId, Value};

use crate::model::{Model, OpRequest, StepCtx, StepOutcome};
use crate::models::exchanger::{exchanger_step, ExchangerLocal, ExchangerShared};
use cal_specs::vocab::{PUT, TAKE, TAKE_SENTINEL};

/// Shared state: the encapsulated exchanger.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct SyncQueueShared {
    /// The internal exchanger.
    pub exchanger: ExchangerShared,
}

/// Which operation is running.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum QOp {
    Put { v: i64 },
    Take,
}

/// Local state of one queue operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SyncQueueLocal {
    op: QOp,
    attempts_left: u8,
    inner: ExchangerLocal,
}

/// The synchronous queue model: object `queue` encapsulating exchanger
/// `exchanger`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncQueueModel {
    queue: ObjectId,
    exchanger: ObjectId,
    max_attempts: u8,
}

impl SyncQueueModel {
    /// Creates a queue named `queue` over exchanger `exchanger`, retrying a
    /// rendezvous at most `max_attempts` times before timing out.
    pub fn new(queue: ObjectId, exchanger: ObjectId, max_attempts: u8) -> Self {
        SyncQueueModel { queue, exchanger, max_attempts }
    }

    fn offer_of(op: QOp) -> i64 {
        match op {
            QOp::Put { v } => v,
            QOp::Take => TAKE_SENTINEL,
        }
    }

    fn timeout(&self, op: QOp, t: ThreadId, ctx: &mut StepCtx<'_>) -> StepOutcome<SyncQueueLocal> {
        match op {
            QOp::Put { v } => {
                ctx.label("Q-TIMEOUT");
                ctx.log(CaElement::singleton(Operation::new(
                    t,
                    self.queue,
                    PUT,
                    Value::Int(v),
                    Value::Bool(false),
                )));
                StepOutcome::Done(Value::Bool(false))
            }
            QOp::Take => {
                ctx.label("Q-TIMEOUT");
                ctx.log(CaElement::singleton(Operation::new(
                    t,
                    self.queue,
                    TAKE,
                    Value::Unit,
                    Value::Pair(false, 0),
                )));
                StepOutcome::Done(Value::Pair(false, 0))
            }
        }
    }
}

impl Model for SyncQueueModel {
    type Shared = SyncQueueShared;
    type Local = SyncQueueLocal;

    fn object(&self) -> ObjectId {
        self.queue
    }

    fn init_shared(&self) -> SyncQueueShared {
        SyncQueueShared::default()
    }

    fn on_invoke(&self, _thread: ThreadId, request: &OpRequest) -> SyncQueueLocal {
        let op = match request.method {
            PUT => {
                let v = request.arg.as_int().expect("put takes an integer");
                assert!(v != TAKE_SENTINEL, "cannot put the take sentinel");
                QOp::Put { v }
            }
            TAKE => QOp::Take,
            other => panic!("synchronous queue does not offer {other}"),
        };
        SyncQueueLocal {
            op,
            attempts_left: self.max_attempts,
            inner: ExchangerLocal::Init { v: Self::offer_of(op) },
        }
    }

    fn step(
        &self,
        shared: &mut SyncQueueShared,
        local: &mut SyncQueueLocal,
        ctx: &mut StepCtx<'_>,
    ) -> StepOutcome<SyncQueueLocal> {
        // The exchanger's own FAIL elements are part of E's trace and are
        // hidden by F_Q; we log them normally (they belong to E).
        match exchanger_step(self.exchanger, &mut shared.exchanger, &mut local.inner, ctx) {
            StepOutcome::Continue => StepOutcome::Continue,
            StepOutcome::Done(ret) => {
                let (ok, got) = ret.as_pair().expect("exchange returns a pair");
                match local.op {
                    QOp::Put { .. } if ok && got == TAKE_SENTINEL => {
                        StepOutcome::Done(Value::Bool(true))
                    }
                    QOp::Take if ok && got != TAKE_SENTINEL => {
                        StepOutcome::Done(Value::Pair(true, got))
                    }
                    op => {
                        if local.attempts_left == 0 {
                            self.timeout(op, ctx.thread, ctx)
                        } else {
                            local.attempts_left -= 1;
                            local.inner = ExchangerLocal::Init { v: Self::offer_of(op) };
                            StepOutcome::Continue
                        }
                    }
                }
            }
            StepOutcome::Stuck => StepOutcome::Stuck,
            StepOutcome::Choose(_) => unreachable!("exchanger never branches"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{Explorer, Workload};
    use cal_core::agree::agrees_bool;
    use cal_core::compose::TraceMap;
    use cal_core::spec::CaSpec;
    use cal_specs::sync_queue::{FQMap, SyncQueueSpec};

    const Q: ObjectId = ObjectId(0);
    const E: ObjectId = ObjectId(10);

    fn model() -> SyncQueueModel {
        SyncQueueModel::new(Q, E, 0)
    }

    fn put(v: i64) -> OpRequest {
        OpRequest::new(PUT, Value::Int(v))
    }

    fn take() -> OpRequest {
        OpRequest::new(TAKE, Value::Unit)
    }

    #[test]
    fn lone_put_times_out() {
        let m = model();
        let w = Workload::new(vec![vec![put(5)]]);
        Explorer::new(&m, w).run(|e| {
            assert_eq!(e.history.operations()[0].ret, Value::Bool(false));
        });
    }

    #[test]
    fn producer_consumer_can_rendezvous() {
        let m = model();
        let w = Workload::new(vec![vec![put(5)], vec![take()]]);
        let mut transferred = false;
        Explorer::new(&m, w).run(|e| {
            for op in e.history.operations() {
                if op.ret == Value::Pair(true, 5) {
                    transferred = true;
                }
            }
        });
        assert!(transferred);
    }

    #[test]
    fn every_interleaving_satisfies_queue_spec_via_fq() {
        let m = model();
        let fq = FQMap::new(Q, E);
        let spec = SyncQueueSpec::new(Q);
        let w = Workload::new(vec![vec![put(5)], vec![take()], vec![put(6)]]);
        let mut execs = 0;
        Explorer::new(&m, w).run(|e| {
            execs += 1;
            let mapped = fq.apply(&e.trace);
            assert!(spec.accepts(&mapped), "mapped trace {mapped} illegal for {}", e.history);
            assert!(
                agrees_bool(&e.history, &mapped),
                "history {} disagrees with {}",
                e.history,
                mapped
            );
        });
        assert!(execs > 10);
    }

    #[test]
    fn two_producers_cannot_transfer_to_each_other() {
        let m = model();
        let w = Workload::new(vec![vec![put(1)], vec![put(2)]]);
        Explorer::new(&m, w).run(|e| {
            for op in e.history.operations() {
                assert_eq!(op.ret, Value::Bool(false), "puts must not succeed without a taker");
            }
        });
    }

    #[test]
    fn retry_budget_allows_second_chance() {
        // With one retry, a put can fail its first exchange and still pair
        // with a late taker.
        let m = SyncQueueModel::new(Q, E, 1);
        let w = Workload::new(vec![vec![put(5)], vec![take()]]);
        let mut transferred = false;
        Explorer::new(&m, w).run(|e| {
            if e.history.operations().iter().any(|o| o.ret == Value::Pair(true, 5)) {
                transferred = true;
            }
        });
        assert!(transferred);
    }
}
