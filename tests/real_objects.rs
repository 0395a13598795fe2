//! Recorded real concurrent runs of the atomics-based objects, checked
//! against their specifications — the end-to-end path a downstream user
//! of this library follows.

use cal::core::check::is_cal;
use cal::core::spec::SeqAsCa;
use cal::core::ObjectId;
use cal::objects::recorded::{
    run_threads, RecordedEliminationStack, RecordedExchanger, RecordedTreiberStack,
};
use cal::specs::exchanger::ExchangerSpec;
use cal::specs::stack::StackSpec;

const OBJ: ObjectId = ObjectId(0);

#[test]
fn exchanger_real_run_is_cal() {
    let e = RecordedExchanger::new(OBJ);
    run_threads(4, |t| {
        for i in 0..8 {
            e.exchange(t, (t.0 as i64) * 1_000 + i, 128);
        }
    });
    let h = e.recorder().history();
    assert!(h.is_complete());
    assert!(is_cal(&h, &ExchangerSpec::new(OBJ)).unwrap(), "not CAL:\n{h}");
}

#[test]
fn exchanger_real_run_high_spin_is_cal() {
    // Longer waits make real pairing more likely even on one core.
    let e = RecordedExchanger::new(OBJ);
    run_threads(2, |t| {
        for i in 0..30 {
            e.exchange(t, (t.0 as i64) * 1_000 + i, 2_000);
        }
    });
    let h = e.recorder().history();
    assert!(is_cal(&h, &ExchangerSpec::new(OBJ)).unwrap(), "not CAL:\n{h}");
}

#[test]
fn treiber_real_run_is_linearizable() {
    let s = RecordedTreiberStack::new(OBJ);
    run_threads(4, |t| {
        for i in 0..12 {
            let v = (t.0 as i64) * 1_000 + i;
            s.push(t, v);
            if i % 2 == 0 {
                s.pop(t);
            }
        }
    });
    let h = s.recorder().history();
    let linearizable = is_cal(&h, &SeqAsCa::new(StackSpec::total(OBJ))).unwrap();
    assert!(linearizable, "not linearizable:\n{h}");
}

#[test]
fn elimination_stack_real_run_is_linearizable() {
    let s = RecordedEliminationStack::new(OBJ, 2, 128);
    run_threads(4, |t| {
        for i in 0..10 {
            let v = (t.0 as i64) * 1_000 + i;
            s.push(t, v);
            s.pop_wait(t);
        }
    });
    let h = s.recorder().history();
    let linearizable = is_cal(&h, &SeqAsCa::new(StackSpec::total(OBJ))).unwrap();
    assert!(linearizable, "not linearizable:\n{h}");
}

#[test]
fn elimination_stack_balanced_producers_consumers() {
    let s = RecordedEliminationStack::new(OBJ, 2, 256);
    run_threads(4, |t| {
        if t.0 < 2 {
            for i in 0..10 {
                s.push(t, (t.0 as i64) * 1_000 + i);
            }
        } else {
            for _ in 0..10 {
                s.pop_wait(t);
            }
        }
    });
    let h = s.recorder().history();
    let linearizable = is_cal(&h, &SeqAsCa::new(StackSpec::total(OBJ))).unwrap();
    assert!(linearizable, "not linearizable:\n{h}");
}
