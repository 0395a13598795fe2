//! E3/E4 — the elimination array and the elimination stack, verified
//! modularly over all interleavings of bounded clients (§5), and the
//! central stack's rely/guarantee obligations on every step.

use cal::core::agree::agrees_bool;
use cal::core::compose::{Composed, TraceMap};
use cal::core::spec::CaSpec;
use cal::core::{ObjectId, Value};
use cal::rg::check_stack_rg;
use cal::sim::models::elim_array::ElimArrayModel;
use cal::sim::models::elim_stack::ElimStackModel;
use cal::sim::models::stack::FailingStackModel;
use cal::sim::{Explorer, OpRequest, Workload};
use cal::specs::elim_array::{ElimArraySpec, FArMap};
use cal::specs::elim_stack::{modular_stack_check, FEsMap};
use cal::specs::vocab::{EXCHANGE, POP, PUSH};

const ES: ObjectId = ObjectId(0);
const S: ObjectId = ObjectId(1);
const AR: ObjectId = ObjectId(2);
const E0: ObjectId = ObjectId(10);
const E1: ObjectId = ObjectId(11);

fn push(v: i64) -> OpRequest {
    OpRequest::new(PUSH, Value::Int(v))
}

fn pop() -> OpRequest {
    OpRequest::new(POP, Value::Unit)
}

fn exchange(v: i64) -> OpRequest {
    OpRequest::new(EXCHANGE, Value::Int(v))
}

// ---------- E3: elimination array ----------

#[test]
fn elim_array_k1_all_interleavings_conform() {
    let model = ElimArrayModel::new(AR, vec![E0]);
    let far = FArMap::new(AR, vec![E0]);
    let spec = ElimArraySpec::new(AR);
    let w = Workload::new(vec![vec![exchange(1)], vec![exchange(2)], vec![exchange(3)]]);
    let mut n = 0;
    Explorer::new(&model, w).run(|e| {
        n += 1;
        let mapped = far.apply(&e.trace);
        assert!(spec.accepts(&mapped));
        assert!(agrees_bool(&e.history, &mapped));
    });
    assert!(n > 100);
}

#[test]
fn elim_array_k2_all_interleavings_conform() {
    let model = ElimArrayModel::new(AR, vec![E0, E1]);
    let far = FArMap::new(AR, vec![E0, E1]);
    let spec = ElimArraySpec::new(AR);
    let w = Workload::new(vec![vec![exchange(1)], vec![exchange(2)], vec![exchange(3)]]);
    let mut n = 0;
    let stats = Explorer::new(&model, w).run(|e| {
        n += 1;
        let mapped = far.apply(&e.trace);
        assert!(spec.accepts(&mapped), "illegal mapped trace {mapped}");
        assert!(agrees_bool(&e.history, &mapped));
    });
    assert!(n > 100);
    assert_eq!(stats.paths, 4_512, "pruned schedules");
}

#[test]
fn elim_array_cross_slot_operations_do_not_swap() {
    // Two threads forced onto different outcomes: any successful swap must
    // come from the same slot; the trace shows which.
    let model = ElimArrayModel::new(AR, vec![E0, E1]);
    let w = Workload::new(vec![vec![exchange(1)], vec![exchange(2)]]);
    Explorer::new(&model, w).run(|e| {
        for el in e.trace.elements() {
            assert!(el.object() == E0 || el.object() == E1);
            if el.len() == 2 {
                // A swap element lives entirely on one exchanger.
                let ops = el.ops();
                assert_eq!(ops[0].object, ops[1].object);
            }
        }
    });
}

// ---------- E4: elimination stack ----------

fn es_model(k: usize, rounds: u8) -> (ElimStackModel, FArMap, FEsMap) {
    let slots = vec![E0, E1][..k].to_vec();
    (
        ElimStackModel::new(ES, S, ElimArrayModel::new(AR, slots.clone()), rounds),
        FArMap::new(AR, slots),
        FEsMap::new(ES, S, AR),
    )
}

#[test]
fn push_pop_exhaustive_modular_check() {
    let (model, far, fes) = es_model(1, 1);
    let w = Workload::new(vec![vec![push(5)], vec![pop()]]);
    let mut n = 0;
    Explorer::new(&model, w).run(|e| {
        n += 1;
        let lifted = far.apply(&e.trace);
        assert!(modular_stack_check(&fes, &lifted), "failed: {}", e.trace);
    });
    assert!(n > 5);
}

#[test]
fn push_push_pop_exhaustive_modular_check() {
    let (model, far, fes) = es_model(1, 1);
    let w = Workload::new(vec![vec![push(1)], vec![push(2)], vec![pop()]]);
    let mut n = 0u64;
    let stats = Explorer::new(&model, w).run(|e| {
        n += 1;
        let lifted = far.apply(&e.trace);
        assert!(modular_stack_check(&fes, &lifted), "failed: {}", e.trace);
    });
    assert!(n > 100);
    assert_eq!(stats.paths, 1_668, "pruned schedules, as EXPERIMENTS E4 quotes them");
}

#[test]
fn complete_histories_agree_with_abstract_trace() {
    let (model, far, fes) = es_model(1, 1);
    let composed = Composed::new(fes, far);
    let w = Workload::new(vec![vec![push(5)], vec![pop()]]);
    Explorer::new(&model, w).run(|e| {
        if e.history.is_complete() {
            let abstract_trace = composed.apply(&e.trace);
            assert!(
                agrees_bool(&e.history, &abstract_trace),
                "history {} disagrees with {}",
                e.history,
                abstract_trace
            );
        }
    });
}

#[test]
fn popped_values_were_pushed() {
    let (model, _, _) = es_model(1, 1);
    let w = Workload::new(vec![vec![push(1)], vec![push(2)], vec![pop()]]);
    Explorer::new(&model, w).run(|e| {
        for op in e.history.operations() {
            if op.method == POP {
                if let Some((true, v)) = op.ret.as_pair() {
                    assert!(v == 1 || v == 2, "pop invented value {v}");
                }
            }
        }
    });
}

// ---------- the central stack S of Fig. 2 ----------

#[test]
fn central_stack_obligations_hold_on_every_step() {
    let model = FailingStackModel::new(S);
    for (workload, steps) in [
        (Workload::new(vec![vec![push(1), pop()], vec![push(2), pop()]]), 1_238),
        (Workload::new(vec![vec![push(1)], vec![push(2)], vec![pop()]]), 1_094),
    ] {
        let stats = Explorer::new(&model, workload).edges(|step| {
            check_stack_rg(S, step).unwrap_or_else(|v| panic!("{v}\nhistory:\n{}", step.history));
        });
        assert_eq!(stats.edges, steps);
    }
}

#[test]
fn two_slots_sampled_modular_check() {
    let (model, far, fes) = es_model(2, 1);
    let w = Workload::new(vec![
        vec![push(1), pop()],
        vec![push(2)],
        vec![pop()],
    ]);
    Explorer::new(&model, w).sample(23, 2_000, |e| {
        let lifted = far.apply(&e.trace);
        assert!(modular_stack_check(&fes, &lifted), "failed: {}", e.trace);
    });
}

#[test]
fn larger_workload_sampled_modular_check() {
    let (model, far, fes) = es_model(2, 2);
    let w = Workload::new(vec![
        vec![push(1), push(2)],
        vec![pop(), push(3)],
        vec![pop(), pop()],
        vec![push(4)],
    ]);
    Explorer::new(&model, w).sample(29, 1_500, |e| {
        let lifted = far.apply(&e.trace);
        assert!(modular_stack_check(&fes, &lifted), "failed: {}", e.trace);
    });
}
