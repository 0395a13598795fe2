//! E5 — the modular (compositional) verification path and the monolithic
//! whole-history search must agree; the benchmark `modular_vs_monolithic`
//! measures the cost gap, this test establishes the verdict equivalence.

use cal::core::compose::{Composed, TraceMap};
use cal::core::gen::{render, render_loose};
use cal::core::check::is_cal;
use cal::core::spec::SeqAsCa;
use cal::core::{History, ObjectId};
use cal::specs::elim_stack::{modular_stack_check, FEsMap};
use cal::specs::gen::random_elim_subobject_trace;
use cal::specs::stack::StackSpec;
use cal::specs::elim_array::FArMap;
use rand::rngs::StdRng;
use rand::SeedableRng;

const ES: ObjectId = ObjectId(0);
const S: ObjectId = ObjectId(1);
const AR: ObjectId = ObjectId(2);

fn fes() -> FEsMap {
    FEsMap::new(ES, S, AR)
}

/// The monolithic path: take the abstract ES history (rendered from the
/// mapped trace) and search for a linearization from scratch — CAL over
/// the stack spec lifted to singleton elements.
fn monolithic_accepts(history: &History) -> bool {
    is_cal(history, &SeqAsCa::new(StackSpec::total(ES))).unwrap()
}

#[test]
fn generated_traces_accepted_by_both_paths() {
    let mut rng = StdRng::seed_from_u64(5);
    for size in [0, 1, 4, 16, 48] {
        let sub = random_elim_subobject_trace(&mut rng, &fes(), 4, size);
        // Modular: linear-time trace mapping + replay.
        assert!(modular_stack_check(&fes(), &sub), "modular rejected legal trace");
        // Monolithic: full linearizability search on the rendered history.
        let abstract_trace = fes().apply(&sub);
        let history = render(&abstract_trace);
        assert!(monolithic_accepts(&history), "monolithic rejected legal history");
    }
}

#[test]
fn loosened_histories_still_accepted_monolithically() {
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..5 {
        let sub = random_elim_subobject_trace(&mut rng, &fes(), 3, 20);
        let abstract_trace = fes().apply(&sub);
        let history = render_loose(&abstract_trace, &mut rng, 40);
        assert!(monolithic_accepts(&history));
    }
}

#[test]
fn corrupted_pop_rejected_by_both_paths() {
    use cal::core::{CaElement, Operation, ThreadId, Value};
    use cal::specs::vocab::POP;
    let mut rng = StdRng::seed_from_u64(9);
    let mut sub = random_elim_subobject_trace(&mut rng, &fes(), 3, 20);
    // Append a pop of a value that was never pushed.
    sub.push(CaElement::singleton(Operation::new(
        ThreadId(0),
        S,
        POP,
        Value::Unit,
        Value::Pair(true, 999_999),
    )));
    assert!(!modular_stack_check(&fes(), &sub));
    let history = render(&fes().apply(&sub));
    assert!(!monolithic_accepts(&history));
}

#[test]
fn composed_far_fes_equals_staged_application() {
    // 𝓕_ES = F̂_ES ∘ F̂_AR: composing the maps equals applying them in
    // stages — the paper's composition law, on concrete traces.
    use cal::specs::gen::random_exchanger_trace;
    let e0 = ObjectId(10);
    let far = FArMap::new(AR, vec![e0]);
    let composed = Composed::new(fes(), far.clone());
    let mut rng = StdRng::seed_from_u64(11);
    for size in [0, 3, 12] {
        let t = random_exchanger_trace(&mut rng, e0, 4, size);
        assert_eq!(composed.apply(&t), fes().apply(&far.apply(&t)));
    }
}
