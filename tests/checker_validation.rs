//! E10 — property-based validation of the agreement relation and the
//! checkers: spec-generated traces render to accepted histories (for any
//! rendering), and semantic corruptions are rejected. (Linearizability is
//! CAL over a singleton-element spec; `tests/cross_checker.rs` holds that
//! search to an independent reference.)

use cal::core::agree::{agrees, agrees_bool};
use cal::core::check::is_cal;
use cal::core::gen::{render, render_loose, mutate, Mutation};
use cal::core::{History, ObjectId, Value};
use cal::specs::exchanger::ExchangerSpec;
use cal::specs::gen::{random_exchanger_trace, random_sync_queue_trace};
use cal::specs::sync_queue::SyncQueueSpec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const OBJ: ObjectId = ObjectId(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Soundness of `render` + completeness of `agrees`: a history built
    /// from a legal trace always agrees with it, however loosened.
    #[test]
    fn rendered_exchanger_traces_agree(seed in 0u64..5_000, size in 0usize..14, moves in 0usize..40) {
        let mut rng = StdRng::seed_from_u64(seed);
        let trace = random_exchanger_trace(&mut rng, OBJ, 4, size);
        let strict = render(&trace);
        prop_assert!(agrees_bool(&strict, &trace));
        let loose = render_loose(&trace, &mut rng, moves);
        prop_assert!(loose.is_well_formed());
        prop_assert!(agrees_bool(&loose, &trace));
    }

    /// The CAL membership checker accepts every rendered legal trace
    /// (finding its own witness).
    #[test]
    fn rendered_exchanger_traces_are_cal(seed in 0u64..5_000, size in 0usize..10) {
        let mut rng = StdRng::seed_from_u64(seed);
        let trace = random_exchanger_trace(&mut rng, OBJ, 3, size);
        let h = render_loose(&trace, &mut rng, 25);
        prop_assert!(is_cal(&h, &ExchangerSpec::new(OBJ)).unwrap());
    }

    /// Ditto for the synchronous queue specification.
    #[test]
    fn rendered_queue_traces_are_cal(seed in 0u64..5_000, size in 0usize..8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let trace = random_sync_queue_trace(&mut rng, OBJ, 3, size);
        let h = render_loose(&trace, &mut rng, 25);
        prop_assert!(is_cal(&h, &SyncQueueSpec::new(OBJ)).unwrap());
    }

    /// Corrupting a return value to a fresh impossible value breaks CAL.
    #[test]
    fn corrupted_returns_rejected(seed in 0u64..5_000, size in 1usize..10) {
        let mut rng = StdRng::seed_from_u64(seed);
        let trace = random_exchanger_trace(&mut rng, OBJ, 3, size);
        let h = render(&trace);
        if let Some(bad) = mutate(&h, Mutation::CorruptReturn, &mut rng,
                                  |_| Value::Pair(true, 777_777_777)) {
            prop_assert!(!is_cal(&bad, &ExchangerSpec::new(OBJ)).unwrap());
        }
    }

    /// Dropping a response leaves a pending invocation the checker must
    /// still explain (by completing or dropping it).
    #[test]
    fn dropped_responses_still_checkable(seed in 0u64..5_000, size in 1usize..8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let trace = random_exchanger_trace(&mut rng, OBJ, 3, size);
        let h = render(&trace);
        if let Some(partial) = mutate(&h, Mutation::DropResponse, &mut rng,
                                      |a| a.ret().unwrap()) {
            // Still CAL: the missing response can be restored or dropped.
            prop_assert!(is_cal(&partial, &ExchangerSpec::new(OBJ)).unwrap());
        }
    }

    /// The witness returned by `check_cal` genuinely explains the history.
    #[test]
    fn witnesses_are_valid(seed in 0u64..5_000, size in 0usize..8) {
        use cal::core::check::check_cal;
        let mut rng = StdRng::seed_from_u64(seed);
        let trace = random_exchanger_trace(&mut rng, OBJ, 3, size);
        let h = render_loose(&trace, &mut rng, 15);
        let outcome = check_cal(&h, &ExchangerSpec::new(OBJ)).unwrap();
        let witness = outcome.verdict.witness().expect("legal history").clone();
        let agreement = agrees(&h, &witness).expect("witness must agree");
        prop_assert_eq!(agreement.assignment.len(), h.operations().len());
    }
}

#[test]
fn agreement_is_insensitive_to_element_internal_order() {
    // A CA-element is a set: renderings that permute the order of
    // invocations/responses inside one element all agree.
    let mut rng = StdRng::seed_from_u64(99);
    let trace = random_exchanger_trace(&mut rng, OBJ, 4, 6);
    let base = render(&trace);
    for _ in 0..50 {
        let loose = render_loose(&trace, &mut rng, 30);
        assert!(agrees_bool(&loose, &trace));
    }
    assert!(agrees_bool(&base, &trace));
}

#[test]
fn empty_everything() {
    assert!(agrees_bool(&History::new(), &cal::core::CaTrace::new()));
    assert!(is_cal(&History::new(), &ExchangerSpec::new(OBJ)).unwrap());
}
