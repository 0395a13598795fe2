//! Watch a CAL check work: run the real elimination stack (Fig. 2) under
//! concurrency, then check the recorded history with two stats sinks
//! attached — a hand-rolled [`StatsSink`] that prints a live progress
//! line, and the batteries-included [`CountingSink`] whose
//! [`SearchReport`] summarizes the whole search as JSON.
//!
//! ```bash
//! cargo run --example observability
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cal::core::check::{check_cal_with, CheckOptions, InterruptReason, Verdict};
use cal::core::obs::{CountingSink, StatsSink};
use cal::core::spec::SeqAsCa;
use cal::core::ObjectId;
use cal::objects::recorded::{run_threads, RecordedEliminationStack};
use cal::specs::stack::StackSpec;

/// A custom sink: implement only the events you care about — every
/// [`StatsSink`] method defaults to a no-op. This one counts expansions
/// (one `on_frontier` each) and tracks the widest frontier seen, printing
/// a progress line every few thousand expansions. All methods take
/// `&self` and may be called from several checker threads at once, so
/// state is atomic. The search's own counts are in the outcome's stats.
#[derive(Default)]
struct ProgressSink {
    expansions: AtomicU64,
    widest: AtomicU64,
}

impl StatsSink for ProgressSink {
    fn on_frontier(&self, width: usize) {
        self.widest.fetch_max(width as u64, Ordering::Relaxed);
        let n = self.expansions.fetch_add(1, Ordering::Relaxed) + 1;
        if n.is_multiple_of(4096) {
            eprintln!("  ...{n} nodes expanded");
        }
    }

    fn on_interrupt(&self, reason: InterruptReason) {
        eprintln!("  search interrupted: {reason}");
    }
}

fn main() {
    const ES: ObjectId = ObjectId(0);
    const THREADS: u32 = 4;
    const OPS_PER_THREAD: i64 = 10;

    // Harvest a history from the live object, as in the
    // `elimination_stack` example.
    let stack = RecordedEliminationStack::new(ES, 2, 256);
    run_threads(THREADS, |t| {
        for i in 0..OPS_PER_THREAD {
            let v = (t.0 as i64) * 1_000 + i;
            stack.push(t, v);
            stack.pop_wait(t);
        }
    });
    let history = stack.recorder().history();
    println!("recorded {} operations across {THREADS} threads", history.operations().len());

    // Linearizability is the singleton-element case of CAL, so the stack
    // spec is checked through the instrumented CAL search via `SeqAsCa`.
    let spec = SeqAsCa::new(StackSpec::total(ES));

    // 1. The custom sink, live while the search runs.
    let progress = Arc::new(ProgressSink::default());
    let options = CheckOptions {
        sink: Some(Arc::clone(&progress) as Arc<dyn StatsSink>),
        ..CheckOptions::default()
    };
    let outcome = check_cal_with(&history, &spec, &options).expect("well-formed");
    println!(
        "custom sink: {} expansions ({} nodes, {} memo hits), widest frontier {}",
        progress.expansions.load(Ordering::Relaxed),
        outcome.stats.nodes,
        outcome.stats.memo_hits,
        progress.widest.load(Ordering::Relaxed),
    );

    // 2. The counting sink: a fresh run of the same check, folded into a
    // structured report. `report()` wants the outcome: every count comes
    // from its stats, the sink adds frontier widths and object rows.
    let counting = Arc::new(CountingSink::new());
    let options = CheckOptions {
        sink: Some(Arc::clone(&counting) as Arc<dyn StatsSink>),
        ..CheckOptions::default()
    };
    let start = Instant::now();
    let outcome2 = check_cal_with(&history, &spec, &options).expect("well-formed");
    let report = counting.report(&outcome2, &options, start.elapsed());
    println!("report: {report}");
    println!("json:   {}", report.to_json());
    println!("{}", report.explain());

    match outcome.verdict {
        Verdict::Cal(witness) => {
            println!("verdict: linearizable ({} steps)", witness.len());
        }
        Verdict::NotCal => {
            println!("verdict: NOT linearizable — bug!\nhistory:\n{history}");
            std::process::exit(1);
        }
        verdict => println!("verdict: undecided ({verdict:?})"),
    }
}
