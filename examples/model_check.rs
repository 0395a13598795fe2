//! Exhaustive model checking of the paper's theorems on bounded clients:
//!
//! 1. every interleaving of the exchanger is CAL w.r.t. the §4
//!    specification, with the logged auxiliary trace as the witness;
//! 2. every step out of every reachable state is justified by a Fig. 4
//!    rely/guarantee action, the invariant `J` holds throughout, the Fig. 1
//!    proof-outline assertions are stable and `exchange`'s postcondition
//!    holds where it returns (§5.1);
//! 3. every interleaving of the elimination stack passes the modular
//!    `F_ES ∘ F_AR` stack check (§5).
//!
//! ```bash
//! cargo run --release --example model_check
//! ```

use cal::core::agree::agrees_bool;
use cal::core::compose::TraceMap;
use cal::core::spec::CaSpec;
use cal::core::{ObjectId, Value};
use cal::rg::check_exchanger_rg;
use cal::sim::models::elim_array::ElimArrayModel;
use cal::sim::models::elim_stack::ElimStackModel;
use cal::sim::models::exchanger::ExchangerModel;
use cal::sim::{Explorer, OpRequest, Workload};
use cal::specs::elim_array::FArMap;
use cal::specs::elim_stack::{modular_stack_check, FEsMap};
use cal::specs::exchanger::ExchangerSpec;
use cal::specs::vocab::{EXCHANGE, POP, PUSH};

fn main() {
    exchanger_cal();
    exchanger_rg();
    elimination_stack_modular();
    println!("\nall bounded-client obligations verified ✓");
}

fn exchanger_cal() {
    const E: ObjectId = ObjectId(0);
    let model = ExchangerModel::new(E);
    let spec = ExchangerSpec::new(E);
    let workload = Workload::new(vec![
        vec![OpRequest::new(EXCHANGE, Value::Int(3))],
        vec![OpRequest::new(EXCHANGE, Value::Int(4))],
        vec![OpRequest::new(EXCHANGE, Value::Int(7))],
    ]);
    let mut checked = 0u64;
    let stats = Explorer::new(&model, workload).run(|e| {
        assert!(spec.accepts(&e.trace), "illegal trace {}", e.trace);
        assert!(agrees_bool(&e.history, &e.trace), "trace does not explain history");
        checked += 1;
    });
    println!(
        "exchanger (3 threads, Fig. 3's P): {} schedules, {} distinct outcomes — all CAL ✓",
        stats.paths, checked
    );
}

fn exchanger_rg() {
    const E: ObjectId = ObjectId(0);
    let model = ExchangerModel::new(E);
    let workload = Workload::new(vec![
        vec![OpRequest::new(EXCHANGE, Value::Int(3))],
        vec![OpRequest::new(EXCHANGE, Value::Int(4))],
        vec![OpRequest::new(EXCHANGE, Value::Int(7))],
    ]);
    let stats = Explorer::new(&model, workload).edges(|step| {
        check_exchanger_rg(E, step).unwrap_or_else(|v| panic!("RG violation: {v}"));
    });
    println!(
        "exchanger rely/guarantee (Fig. 4, the same 3 threads): every one of {} steps \
         ({} terminal states) — INIT/CLEAN/PASS/XCHG/FAIL conformance, invariant J, \
         proof outline and postcondition all hold ✓",
        stats.edges, stats.paths
    );
}

fn elimination_stack_modular() {
    const ES: ObjectId = ObjectId(0);
    const S: ObjectId = ObjectId(1);
    const AR: ObjectId = ObjectId(2);
    const E0: ObjectId = ObjectId(10);
    let model = ElimStackModel::new(ES, S, ElimArrayModel::new(AR, vec![E0]), 1);
    let far = FArMap::new(AR, vec![E0]);
    let fes = FEsMap::new(ES, S, AR);
    let workload = Workload::new(vec![
        vec![OpRequest::new(PUSH, Value::Int(1))],
        vec![OpRequest::new(PUSH, Value::Int(2))],
        vec![OpRequest::new(POP, Value::Unit)],
    ]);
    let mut checked = 0u64;
    let stats = Explorer::new(&model, workload).run(|e| {
        let lifted = far.apply(&e.trace);
        assert!(modular_stack_check(&fes, &lifted), "modular check failed for {}", e.trace);
        checked += 1;
    });
    println!(
        "elimination stack (2 pushers + 1 popper): {} schedules, {} distinct outcomes — \
         modular F_ES∘F_AR stack check holds ✓",
        stats.paths, checked
    );
}
