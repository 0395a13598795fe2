//! The paper's Fig. 3, executed: why the exchanger needs concurrency-aware
//! specifications.
//!
//! The program `P` is `exchg(3) ‖ exchg(4) ‖ exchg(7)`. History `H1` (all
//! three overlap; 3 and 4 swap; 7 fails) and `H2` (same outcome, pairwise
//! overlaps) can happen; the sequential `H3` explains the same outcome but
//! its prefix `H3'` — one thread completing a *successful* exchange alone —
//! is an undesired behaviour every prefix-closed sequential specification
//! admitting `H3` must also admit.
//!
//! ```bash
//! cargo run --example fig3_histories
//! ```

use cal::core::check::{check_cal, is_cal, Verdict};
use cal::core::spec::{SeqAsCa, SeqSpec};
use cal::core::{Action, History, Method, ObjectId, Operation, ThreadId, Value};
use cal::specs::exchanger::ExchangerSpec;
use cal::specs::vocab::EXCHANGE;

const E: ObjectId = ObjectId(0);

fn inv(t: u32, v: i64) -> Action {
    Action::invoke(ThreadId(t), E, EXCHANGE, Value::Int(v))
}

fn res(t: u32, ok: bool, v: i64) -> Action {
    Action::response(ThreadId(t), E, EXCHANGE, Value::Pair(ok, v))
}

/// The laxest sequential "specification" of the exchanger one could write:
/// any exchange may succeed with any value, alone. Admits H3 — and
/// therefore also its undesired prefix H3'.
#[derive(Debug)]
struct LaxSequentialExchanger;

impl SeqSpec for LaxSequentialExchanger {
    type State = ();

    fn initial(&self) {}

    fn apply(&self, _: &(), op: &Operation) -> Option<()> {
        (op.method == Method("exchange")).then_some(())
    }

    fn completions_of(&self, _: &cal::core::spec::Invocation) -> Vec<Value> {
        vec![]
    }
}

fn verdict_name(h: &History, spec: &ExchangerSpec) -> &'static str {
    match check_cal(h, spec).expect("well-formed").verdict {
        Verdict::Cal(_) => "CAL ✓",
        Verdict::NotCal => "not CAL ✗",
        Verdict::ResourcesExhausted | Verdict::Interrupted { .. } => "undecided",
    }
}

fn main() {
    let spec = ExchangerSpec::new(E);

    // H1: all three operations overlap.
    let h1 = History::from_actions(vec![
        inv(1, 3),
        inv(2, 4),
        inv(3, 7),
        res(1, true, 4),
        res(2, true, 3),
        res(3, false, 7),
    ]);
    // H2: the swap pair overlaps; t3's failure overlaps t2 only.
    let h2 = History::from_actions(vec![
        inv(1, 3),
        inv(2, 4),
        res(1, true, 4),
        inv(3, 7),
        res(2, true, 3),
        res(3, false, 7),
    ]);
    // H3: the fully sequential explanation of the same outcome.
    let h3 = History::from_actions(vec![
        inv(1, 3),
        res(1, true, 4),
        inv(2, 4),
        res(2, true, 3),
        inv(3, 7),
        res(3, false, 7),
    ]);
    // H3': the prefix of H3 in which t1 exchanged without a partner.
    let h3_prefix = History::from_actions(vec![inv(1, 3), res(1, true, 4)]);

    println!("Against the concurrency-aware exchanger specification (§4):");
    println!("  H1  (all overlap):          {}", verdict_name(&h1, &spec));
    println!("  H2  (pairwise overlaps):    {}", verdict_name(&h2, &spec));
    println!("  H3  (sequential):           {}", verdict_name(&h3, &spec));
    println!("  H3' (lone success prefix):  {}", verdict_name(&h3_prefix, &spec));
    assert!(check_cal(&h1, &spec).unwrap().verdict.is_cal());
    assert!(check_cal(&h2, &spec).unwrap().verdict.is_cal());
    assert!(!check_cal(&h3, &spec).unwrap().verdict.is_cal());
    assert!(!check_cal(&h3_prefix, &spec).unwrap().verdict.is_cal());

    println!("\nThe §3 dilemma for sequential specifications:");
    // Linearizability is CAL over the spec lifted to singleton elements.
    let lax = SeqAsCa::new(LaxSequentialExchanger);
    let lin_h3 = is_cal(&h3, &lax).unwrap();
    let lin_h3p = is_cal(&h3_prefix, &lax).unwrap();
    println!("  a sequential spec admitting H3 also admits H3' (lone success):");
    println!("    H3  linearizable w.r.t. lax seq spec: {lin_h3}");
    println!("    H3' linearizable w.r.t. lax seq spec: {lin_h3p}   ← too loose!");
    assert!(lin_h3 && lin_h3p);

    // And the only sound sequential spec (failures only) rejects real swaps:
    let strict = SeqAsCa::new(FailOnly);
    let h1_ok = is_cal(&h1, &strict).unwrap();
    println!("  a sequential spec admitting only failures rejects H1: {}", !h1_ok);
    println!("    H1 linearizable w.r.t. fail-only seq spec: {h1_ok}   ← too restrictive!");
    assert!(!h1_ok);

    println!("\nConclusion (§3): every sequential specification of the exchanger");
    println!("is either too loose or too restrictive; CAL captures it exactly.");
}

/// The only *sound* sequential exchanger specification: all exchanges fail.
#[derive(Debug)]
struct FailOnly;

impl SeqSpec for FailOnly {
    type State = ();

    fn initial(&self) {}

    fn apply(&self, _: &(), op: &Operation) -> Option<()> {
        let (ok, v) = op.ret.as_pair()?;
        (!ok && op.arg == Value::Int(v)).then_some(())
    }

    fn completions_of(&self, inv: &cal::core::spec::Invocation) -> Vec<Value> {
        inv.arg.as_int().map(|v| Value::Pair(false, v)).into_iter().collect()
    }
}
