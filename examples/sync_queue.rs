//! The synchronous queue — the extended paper's second exchanger client —
//! verified two ways: exhaustively in the simulator via `F_Q`, and on a
//! real concurrent run via the CAL checker.
//!
//! ```bash
//! cargo run --example sync_queue
//! ```

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

fn main() {
    model_check();
    real_run();
}

fn model_check() {
    let model = SyncQueueModel::new(Q, E, 0);
    let fq = FQMap::new(Q, E);
    let spec = SyncQueueSpec::new(Q);
    let workload = Workload::new(vec![
        vec![OpRequest::new(PUT, Value::Int(5))],
        vec![OpRequest::new(TAKE, Value::Unit)],
        vec![OpRequest::new(PUT, Value::Int(6))],
    ]);
    let mut transfers = 0u64;
    let mut timeouts = 0u64;
    let stats = Explorer::new(&model, workload).run(|e| {
        let mapped = fq.apply(&e.trace);
        assert!(spec.accepts(&mapped), "illegal queue trace {mapped}");
        assert!(agrees_bool(&e.history, &mapped), "trace does not explain history");
        for el in mapped.elements() {
            if el.len() == 2 {
                transfers += 1;
            } else {
                timeouts += 1;
            }
        }
    });
    println!(
        "model check (2 producers + 1 consumer): {} schedules — every F_Q-mapped trace \
         satisfies the rendezvous spec ✓ ({} transfers, {} timeouts across outcomes)",
        stats.paths, transfers, timeouts
    );
}

fn real_run() {
    let queue = RecordedSyncQueue::new(Q, 256);
    run_threads(4, |t| {
        for i in 0..6 {
            if t.0 % 2 == 0 {
                queue.try_put(t, (t.0 as i64) * 100 + i, 64);
            } else {
                queue.try_take(t, 64);
            }
        }
    });
    let history = queue.recorder().history();
    let ok = is_cal(&history, &SyncQueueSpec::new(Q)).unwrap();
    println!(
        "real run (2 producers + 2 consumers, {} ops): CAL = {ok} ✓",
        history.operations().len()
    );
    assert!(ok);
}
