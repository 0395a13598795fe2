//! E12 — the dual stack (§6, Scherer & Scott): CAL specification with one
//! fulfillment element instead of two linearization points, verified in
//! the simulator and on real runs.

use cal::core::agree::agrees_bool;
use cal::core::check::is_cal;
use cal::core::spec::CaSpec;
use cal::core::{ObjectId, Value};
use cal::objects::recorded::{run_threads, RecordedDualStack};
use cal::sim::models::dual_stack::DualStackModel;
use cal::sim::{Explorer, OpRequest, Workload};
use cal::specs::dual_stack::DualStackSpec;
use cal::specs::vocab::{POP, PUSH};

const S: ObjectId = ObjectId(0);

fn push(v: i64) -> OpRequest {
    OpRequest::new(PUSH, Value::Int(v))
}

fn pop() -> OpRequest {
    OpRequest::new(POP, Value::Unit)
}

#[test]
fn exhaustive_push_pop_with_fulfillment() {
    let model = DualStackModel::new(S, 2, 2);
    let spec = DualStackSpec::new(S);
    let w = Workload::new(vec![vec![push(5)], vec![pop()]]);
    let mut fulfilled = false;
    let mut plain = false;
    Explorer::new(&model, w).run(|e| {
        assert!(spec.accepts(&e.trace), "illegal trace {} for {}", e.trace, e.history);
        if e.history.is_complete() {
            assert!(agrees_bool(&e.history, &e.trace));
        }
        for el in e.trace.elements() {
            if el.len() == 2 {
                fulfilled = true;
            } else if el.ops()[0].method == POP {
                plain = true;
            }
        }
    });
    assert!(fulfilled, "reservation/fulfillment must be reachable");
    assert!(plain, "the plain pop path must be reachable");
}

#[test]
fn popped_values_match_pushes() {
    let model = DualStackModel::new(S, 2, 2);
    let w = Workload::new(vec![vec![push(1)], vec![push(2)], vec![pop()]]);
    Explorer::new(&model, w).run(|e| {
        for op in e.history.operations() {
            if op.method == POP {
                let v = op.ret.as_int().unwrap();
                assert!(v == 1 || v == 2, "pop invented {v}");
            }
        }
    });
}

#[test]
fn waiting_pops_eventually_fulfilled_in_model() {
    // With enough patience, the pop in push‖pop always completes in some
    // schedule where the push fulfills it directly.
    let model = DualStackModel::new(S, 3, 6);
    let w = Workload::new(vec![vec![push(9)], vec![pop()]]);
    let mut completed = false;
    Explorer::new(&model, w).run(|e| {
        if e.history.is_complete() {
            completed = true;
        }
    });
    assert!(completed);
}

#[test]
fn real_dual_stack_runs_are_cal() {
    let s = RecordedDualStack::new(S);
    run_threads(4, |t| {
        for i in 0..8 {
            s.push(t, (t.0 as i64) * 1_000 + i);
            s.pop_wait(t);
        }
    });
    let h = s.recorder().history();
    assert!(h.is_complete());
    assert!(is_cal(&h, &DualStackSpec::new(S)).unwrap(), "real history not CAL:\n{h}");
}

#[test]
fn real_producers_consumers_are_cal() {
    let s = RecordedDualStack::new(S);
    run_threads(4, |t| {
        if t.0 < 2 {
            for i in 0..8 {
                s.push(t, (t.0 as i64) * 1_000 + i);
            }
        } else {
            for _ in 0..8 {
                s.pop_wait(t);
            }
        }
    });
    let h = s.recorder().history();
    assert!(is_cal(&h, &DualStackSpec::new(S)).unwrap(), "real history not CAL:\n{h}");
}
