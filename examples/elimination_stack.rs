//! Run the real elimination stack (Fig. 2) under concurrency, record its
//! client-visible history, and check that it is linearizable with respect
//! to the sequential stack specification.
//!
//! ```bash
//! cargo run --example elimination_stack
//! ```

use cal::core::check::{check_cal, Verdict};
use cal::core::spec::SeqAsCa;
use cal::core::ObjectId;
use cal::objects::recorded::{run_threads, RecordedEliminationStack};
use cal::specs::stack::StackSpec;

fn main() {
    const ES: ObjectId = ObjectId(0);
    const THREADS: u32 = 4;
    const OPS_PER_THREAD: i64 = 10;

    let stack = RecordedEliminationStack::new(ES, 2, 256);

    // Each thread alternates pushes and pops; pushes use thread-unique
    // values so lost or duplicated values are detectable.
    run_threads(THREADS, |t| {
        for i in 0..OPS_PER_THREAD {
            let v = (t.0 as i64) * 1_000 + i;
            stack.push(t, v);
            let got = stack.pop_wait(t);
            if got != v {
                println!("{t}: pushed {v}, popped {got} (someone else's value — fine)");
            }
        }
    });

    let history = stack.recorder().history();
    println!(
        "recorded {} operations across {THREADS} threads",
        history.operations().len()
    );

    // Linearizability is CAL over the stack spec lifted to singletons.
    let spec = SeqAsCa::new(StackSpec::total(ES));
    let outcome = check_cal(&history, &spec).expect("well-formed");
    match outcome.verdict {
        Verdict::Cal(witness) => {
            println!("verdict: linearizable ✓ ({} linearization steps)", witness.len());
            println!(
                "search: {} nodes, {} memo hits",
                outcome.stats.nodes, outcome.stats.memo_hits
            );
        }
        Verdict::NotCal => {
            println!("verdict: NOT linearizable — bug!\nhistory:\n{history}");
            std::process::exit(1);
        }
        Verdict::ResourcesExhausted => println!("verdict: undecided (budget exhausted)"),
        Verdict::Interrupted { reason } => println!("verdict: undecided (interrupted: {reason})"),
    }
}
