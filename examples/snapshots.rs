//! The expressiveness ladder of §6, executed:
//!
//! - **sequential** specifications cannot express the immediate snapshot
//!   (simultaneous operations see each other);
//! - **CAL / set-linearizability** can — and the Borowsky–Gafni algorithm
//!   is verified against it on all interleavings;
//! - **write-snapshot** needs more: one operation must span two *ordered*
//!   operations, which single-point assignments cannot express —
//!   **interval-linearizability** (Castañeda et al.) accepts it.
//!
//! ```bash
//! cargo run --release --example snapshots
//! ```

use cal::core::check::{is_cal, CheckOptions, Verdict};
use cal::core::{History, ObjectId, ThreadId};
use cal::objects::snapshot::ImmediateSnapshot;
use cal::sim::models::snapshot::ImmediateSnapshotModel;
use cal::sim::{Explorer, OpRequest, Workload};
use cal::specs::registry::run_interval;
use cal::specs::snapshot::{
    im_snap_op, view, write_snapshot_op, ImmediateSnapshotSpec, WriteSnapshotSpec, IM_SNAP,
};
use std::sync::Arc;

const O: ObjectId = ObjectId(0);

fn main() {
    model_check_borowsky_gafni();
    real_immediate_snapshot();
    write_snapshot_separation();
}

fn model_check_borowsky_gafni() {
    let model = ImmediateSnapshotModel::new(O, 2);
    let spec = ImmediateSnapshotSpec::new(O, 2);
    let w = Workload::new(vec![
        vec![OpRequest::new(IM_SNAP, cal::core::Value::Int(1))],
        vec![OpRequest::new(IM_SNAP, cal::core::Value::Int(2))],
    ]);
    let mut n = 0u64;
    Explorer::new(&model, w).run(|e| {
        assert!(is_cal(&e.history, &spec).unwrap());
        n += 1;
    });
    println!("Borowsky–Gafni immediate snapshot, 2 processes: {n} schedules, all CAL ✓");

    // A singleton-only (i.e. sequential) reading cannot explain the
    // simultaneous block:
    let a = im_snap_op(O, ThreadId(0), 1, view(&[1, 2]));
    let b = im_snap_op(O, ThreadId(1), 2, view(&[1, 2]));
    let h = History::from_actions(vec![a.invocation(), b.invocation(), a.response(), b.response()]);
    assert!(is_cal(&h, &ImmediateSnapshotSpec::new(O, 2)).unwrap());
    assert!(!is_cal(&h, &ImmediateSnapshotSpec::new(O, 1)).unwrap());
    println!("  the simultaneous block is CAL but not sequentially linearizable ✓");
}

fn real_immediate_snapshot() {
    let n = 4;
    let snap = Arc::new(ImmediateSnapshot::new(n));
    let views = Arc::new(parking_lot::Mutex::new(Vec::new()));
    std::thread::scope(|scope| {
        for i in 0..n {
            let snap = Arc::clone(&snap);
            let views = Arc::clone(&views);
            scope.spawn(move || {
                let v = snap.im_snap(i, i as i64);
                views.lock().push((i, v));
            });
        }
    });
    let views = views.lock();
    println!("real immediate snapshot, {n} OS threads:");
    for &(i, v) in views.iter() {
        println!("  process {i} sees {v:#07b}");
    }
    for &(_, a) in views.iter() {
        for &(_, b) in views.iter() {
            assert!(a & b == a || a & b == b, "views must be comparable");
        }
    }
    println!("  all views comparable by containment ✓");
}

fn write_snapshot_separation() {
    // A overlaps both B and C; B precedes C. B sees {1,2}, everyone else
    // sees {1,2,3}: A's effect spans B's and C's points.
    let a = write_snapshot_op(O, ThreadId(0), 1, view(&[1, 2, 3]));
    let b = write_snapshot_op(O, ThreadId(1), 2, view(&[1, 2]));
    let c = write_snapshot_op(O, ThreadId(2), 3, view(&[1, 2, 3]));
    let h = History::from_actions(vec![
        a.invocation(),
        b.invocation(),
        b.response(),
        c.invocation(),
        c.response(),
        a.response(),
    ]);
    let spec = WriteSnapshotSpec::new(O, usize::MAX);
    let outcome = run_interval(&h, &spec, &CheckOptions::default()).unwrap();
    match outcome.verdict {
        Verdict::Cal(witness) => {
            println!("write-snapshot separation history: interval-linearizable ✓");
            for (k, p) in witness.points().iter().enumerate() {
                let names: Vec<String> =
                    p.active.iter().map(|op| format!("{}", op.thread)).collect();
                println!("  point {k}: active {{{}}}", names.join(", "));
            }
        }
        other => panic!("expected interval-linearizable, got {other:?}"),
    }
    println!("  (and it is NOT CAL — one-point assignments cannot explain it)");
}
