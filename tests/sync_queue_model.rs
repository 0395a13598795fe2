//! E9 — the synchronous queue client, verified in the simulator via `F_Q`
//! and on real concurrent runs.

use cal::core::agree::agrees_bool;
use cal::core::check::is_cal;
use cal::core::compose::TraceMap;
use cal::core::spec::CaSpec;
use cal::core::{ObjectId, Value};
use cal::objects::recorded::{run_threads, RecordedSyncQueue};
use cal::sim::models::sync_queue::SyncQueueModel;
use cal::sim::{Explorer, OpRequest, Workload};
use cal::specs::sync_queue::{FQMap, SyncQueueSpec};
use cal::specs::vocab::{PUT, TAKE};

const Q: ObjectId = ObjectId(0);
const E: ObjectId = ObjectId(10);

fn put(v: i64) -> OpRequest {
    OpRequest::new(PUT, Value::Int(v))
}

fn take() -> OpRequest {
    OpRequest::new(TAKE, Value::Unit)
}

#[test]
fn producer_consumer_exhaustive() {
    let model = SyncQueueModel::new(Q, E, 0);
    let fq = FQMap::new(Q, E);
    let spec = SyncQueueSpec::new(Q);
    let w = Workload::new(vec![vec![put(5)], vec![take()]]);
    let mut n = 0;
    let mut transferred = false;
    Explorer::new(&model, w).run(|e| {
        n += 1;
        let mapped = fq.apply(&e.trace);
        assert!(spec.accepts(&mapped));
        assert!(agrees_bool(&e.history, &mapped));
        if mapped.elements().iter().any(|el| el.len() == 2) {
            transferred = true;
        }
    });
    assert!(n > 5);
    assert!(transferred, "some schedule must transfer");
}

#[test]
fn mixed_roles_exhaustive() {
    let model = SyncQueueModel::new(Q, E, 0);
    let fq = FQMap::new(Q, E);
    let spec = SyncQueueSpec::new(Q);
    let w = Workload::new(vec![vec![put(5)], vec![take()], vec![take()]]);
    let mut n = 0;
    let stats = Explorer::new(&model, w).run(|e| {
        n += 1;
        let mapped = fq.apply(&e.trace);
        assert!(spec.accepts(&mapped), "illegal {mapped} for {}", e.history);
        assert!(agrees_bool(&e.history, &mapped));
    });
    assert!(n > 50);
    assert_eq!(stats.paths, 1_374, "pruned schedules");
}

#[test]
fn same_role_pairs_never_transfer() {
    let model = SyncQueueModel::new(Q, E, 0);
    let fq = FQMap::new(Q, E);
    let w = Workload::new(vec![vec![put(1)], vec![put(2)]]);
    Explorer::new(&model, w).run(|e| {
        let mapped = fq.apply(&e.trace);
        assert!(
            mapped.elements().iter().all(|el| el.len() == 1),
            "two puts transferred: {mapped}"
        );
        for op in e.history.operations() {
            assert_eq!(op.ret, Value::Bool(false));
        }
    });
}

#[test]
fn retrying_model_sampled() {
    let model = SyncQueueModel::new(Q, E, 2);
    let fq = FQMap::new(Q, E);
    let spec = SyncQueueSpec::new(Q);
    let w = Workload::new(vec![vec![put(5), put(6)], vec![take(), take()], vec![put(7)]]);
    Explorer::new(&model, w).sample(31, 2_000, |e| {
        let mapped = fq.apply(&e.trace);
        assert!(spec.accepts(&mapped));
        assert!(agrees_bool(&e.history, &mapped));
    });
}

#[test]
fn real_queue_history_is_cal() {
    let q = RecordedSyncQueue::new(Q, 128);
    run_threads(4, |t| {
        for i in 0..8 {
            if t.0 < 2 {
                q.try_put(t, (t.0 as i64) * 100 + i, 48);
            } else {
                q.try_take(t, 48);
            }
        }
    });
    let h = q.recorder().history();
    assert!(h.is_complete());
    assert!(is_cal(&h, &SyncQueueSpec::new(Q)).unwrap(), "real history not CAL:\n{h}");
}
