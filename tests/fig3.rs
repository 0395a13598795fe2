//! E1 — the paper's Fig. 3: which histories of program `P` the exchanger
//! specification explains, and why no sequential specification works (§3).

use cal::core::check::{check_cal, is_cal};
use cal::core::spec::{Invocation, SeqAsCa, SeqSpec};
use cal::core::{Action, History, ObjectId, Operation, ThreadId, Value};
use cal::specs::exchanger::ExchangerSpec;
use cal::specs::vocab::EXCHANGE;

const E: ObjectId = ObjectId(0);

fn inv(t: u32, v: i64) -> Action {
    Action::invoke(ThreadId(t), E, EXCHANGE, Value::Int(v))
}

fn res(t: u32, ok: bool, v: i64) -> Action {
    Action::response(ThreadId(t), E, EXCHANGE, Value::Pair(ok, v))
}

fn h1() -> History {
    History::from_actions(vec![
        inv(1, 3),
        inv(2, 4),
        inv(3, 7),
        res(1, true, 4),
        res(2, true, 3),
        res(3, false, 7),
    ])
}

fn h2() -> History {
    History::from_actions(vec![
        inv(1, 3),
        inv(2, 4),
        res(1, true, 4),
        inv(3, 7),
        res(2, true, 3),
        res(3, false, 7),
    ])
}

fn h3() -> History {
    History::from_actions(vec![
        inv(1, 3),
        res(1, true, 4),
        inv(2, 4),
        res(2, true, 3),
        inv(3, 7),
        res(3, false, 7),
    ])
}

#[test]
fn h1_is_cal() {
    assert!(is_cal(&h1(), &ExchangerSpec::new(E)).unwrap());
}

#[test]
fn h2_is_cal() {
    assert!(is_cal(&h2(), &ExchangerSpec::new(E)).unwrap());
}

#[test]
fn h3_is_not_cal() {
    // The sequential explanation is rejected: non-overlapping operations
    // cannot form a swap element.
    assert!(!is_cal(&h3(), &ExchangerSpec::new(E)).unwrap());
}

#[test]
fn h3_bad_prefix_is_not_cal() {
    let h3_prefix = History::from_actions(vec![inv(1, 3), res(1, true, 4)]);
    assert!(!is_cal(&h3_prefix, &ExchangerSpec::new(E)).unwrap());
}

#[test]
fn h1_witness_pairs_the_swappers() {
    let outcome = check_cal(&h1(), &ExchangerSpec::new(E)).unwrap();
    let witness = outcome.verdict.witness().unwrap();
    assert_eq!(witness.total_ops(), 3);
    let swap = witness.elements().iter().find(|e| e.len() == 2).expect("swap element");
    assert!(swap.mentions_thread(ThreadId(1)) && swap.mentions_thread(ThreadId(2)));
    let fail = witness.elements().iter().find(|e| e.len() == 1).expect("fail element");
    assert!(fail.mentions_thread(ThreadId(3)));
}

/// The §3 dilemma, mechanized: a prefix-closed sequential specification
/// that explains H3 (and hence the successful swap outcome) must also
/// admit H3's prefix in which one thread succeeds alone — while a
/// sequential specification that admits only failures rejects H1 entirely.
#[test]
fn sequential_specs_are_too_loose_or_too_restrictive() {
    #[derive(Debug)]
    struct Lax;
    impl SeqSpec for Lax {
        type State = ();
        fn initial(&self) {}
        fn apply(&self, _: &(), op: &Operation) -> Option<()> {
            (op.method == EXCHANGE).then_some(())
        }
        fn completions_of(&self, _: &Invocation) -> Vec<Value> {
            vec![]
        }
    }

    #[derive(Debug)]
    struct FailOnly;
    impl SeqSpec for FailOnly {
        type State = ();
        fn initial(&self) {}
        fn apply(&self, _: &(), op: &Operation) -> Option<()> {
            let (ok, v) = op.ret.as_pair()?;
            (!ok && op.arg == Value::Int(v)).then_some(())
        }
        fn completions_of(&self, inv: &Invocation) -> Vec<Value> {
            inv.arg.as_int().map(|v| Value::Pair(false, v)).into_iter().collect()
        }
    }

    // Linearizability is CAL over the spec lifted to singleton elements.
    // Lax admits the undesired lone success (too loose):
    let h3_prefix = History::from_actions(vec![inv(1, 3), res(1, true, 4)]);
    assert!(is_cal(&h3(), &SeqAsCa::new(Lax)).unwrap());
    assert!(is_cal(&h3_prefix, &SeqAsCa::new(Lax)).unwrap());
    // FailOnly rejects the legitimate concurrent swap (too restrictive):
    assert!(!is_cal(&h1(), &SeqAsCa::new(FailOnly)).unwrap());
    // While CAL threads the needle:
    assert!(is_cal(&h1(), &ExchangerSpec::new(E)).unwrap());
    assert!(!is_cal(&h3_prefix, &ExchangerSpec::new(E)).unwrap());
}
