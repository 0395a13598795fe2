//! E2 — exhaustive verification of the exchanger model (Fig. 1):
//! every interleaving of bounded clients is CAL w.r.t. the §4
//! specification, with the logged trace as witness, and every step of the
//! pruned state graph discharges the §5.1 rely/guarantee obligations
//! (Fig. 4 actions, `J`, the Fig. 1 outline and postcondition).

use cal::core::agree::agrees_bool;
use cal::core::check::is_cal;
use cal::core::spec::CaSpec;
use cal::core::{ObjectId, Value};
use cal::rg::check_exchanger_rg;
use cal::sim::models::exchanger::ExchangerModel;
use cal::sim::{Explorer, ExploreStats, OpRequest, Workload};
use cal::specs::exchanger::ExchangerSpec;
use cal::specs::vocab::EXCHANGE;

const E: ObjectId = ObjectId(0);

fn exchange(v: i64) -> OpRequest {
    OpRequest::new(EXCHANGE, Value::Int(v))
}

fn assert_all_cal(workload: Workload) -> u64 {
    let model = ExchangerModel::new(E);
    let spec = ExchangerSpec::new(E);
    let mut n = 0;
    Explorer::new(&model, workload).run(|e| {
        n += 1;
        assert!(spec.accepts(&e.trace), "illegal trace {} for {}", e.trace, e.history);
        assert!(
            agrees_bool(&e.history, &e.trace),
            "trace {} does not explain {}",
            e.trace,
            e.history
        );
    });
    n
}

#[test]
fn two_threads_one_op_each() {
    assert!(assert_all_cal(Workload::new(vec![vec![exchange(1)], vec![exchange(2)]])) > 5);
}

#[test]
fn three_threads_one_op_each() {
    let n = assert_all_cal(Workload::new(vec![
        vec![exchange(1)],
        vec![exchange(2)],
        vec![exchange(3)],
    ]));
    assert!(n > 100);
}

#[test]
fn two_threads_two_ops_each() {
    let n = assert_all_cal(Workload::new(vec![
        vec![exchange(1), exchange(2)],
        vec![exchange(3), exchange(4)],
    ]));
    assert!(n > 50);
}

#[test]
fn four_threads_sampled() {
    let model = ExchangerModel::new(E);
    let spec = ExchangerSpec::new(E);
    let w = Workload::new(vec![
        vec![exchange(1)],
        vec![exchange(2)],
        vec![exchange(3)],
        vec![exchange(4)],
    ]);
    Explorer::new(&model, w).sample(17, 3_000, |e| {
        assert!(spec.accepts(&e.trace));
        assert!(agrees_bool(&e.history, &e.trace));
    });
}

#[test]
fn full_cal_search_agrees_with_witness_check() {
    // Cross-validate: the independent CAL search (not using the logged
    // trace) also accepts every history the model produces.
    let model = ExchangerModel::new(E);
    let spec = ExchangerSpec::new(E);
    let w = Workload::new(vec![vec![exchange(1)], vec![exchange(2)], vec![exchange(3)]]);
    Explorer::new(&model, w).run(|e| {
        assert!(is_cal(&e.history, &spec).unwrap(), "CAL search rejected {}", e.history);
    });
}

/// Checks the rely/guarantee obligations on every step of the pruned state
/// graph of `workload`.
fn assert_rg_on_every_step(workload: Workload) -> ExploreStats {
    let model = ExchangerModel::new(E);
    Explorer::new(&model, workload).edges(|step| {
        check_exchanger_rg(E, step).unwrap_or_else(|v| {
            panic!("RG violation: {v}\nhistory:\n{}\ntrace: {}", step.history, step.trace)
        });
    })
}

#[test]
fn rg_obligations_hold_two_threads() {
    let w = Workload::new(vec![vec![exchange(1)], vec![exchange(2)]]);
    assert_eq!(assert_rg_on_every_step(w).edges, 194);
}

#[test]
fn rg_obligations_hold_two_threads_two_ops() {
    let w = Workload::new(vec![vec![exchange(1), exchange(2)], vec![exchange(3)]]);
    assert_eq!(assert_rg_on_every_step(w).edges, 949);
}

#[test]
fn rg_obligations_hold_three_threads() {
    let w = Workload::new(vec![vec![exchange(1)], vec![exchange(2)], vec![exchange(3)]]);
    let stats = assert_rg_on_every_step(w);
    // The terminal states are `run`'s pruned schedules of the same sweep.
    assert_eq!((stats.edges, stats.paths), (22_017, 1_374));
}

#[test]
fn rg_obligations_hold_two_threads_two_ops_each() {
    let w = Workload::new(vec![vec![exchange(1), exchange(2)], vec![exchange(3), exchange(4)]]);
    assert_eq!(assert_rg_on_every_step(w).edges, 8_820);
}

#[test]
fn swap_outcomes_are_always_reciprocal() {
    // Semantic sanity across all schedules: if anyone gets (true, x), the
    // thread that offered x got this thread's value.
    let model = ExchangerModel::new(E);
    let w = Workload::new(vec![vec![exchange(10)], vec![exchange(20)], vec![exchange(30)]]);
    Explorer::new(&model, w).run(|e| {
        let ops = e.history.operations();
        for op in &ops {
            if let Some((true, got)) = op.ret.as_pair() {
                let partner = ops
                    .iter()
                    .find(|p| p.arg == Value::Int(got))
                    .unwrap_or_else(|| panic!("no partner offered {got}"));
                assert_eq!(partner.ret, Value::Pair(true, op.arg.as_int().unwrap()));
            }
        }
    });
}
