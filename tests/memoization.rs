//! Memoization behaviour of the search in every reading — CAL on
//! concurrency-aware and on sequential specs, and interval over split
//! operations — sequential and parallel:
//! the failed-state memo table must actually fire on backtracking-heavy
//! histories, turning it off must never change a verdict, and the
//! search's [`CheckStats`] must account for every probe — hits plus
//! misses equal charged nodes, with inserts bounded by misses — while a
//! sink sees one expansion for every node no hit pruned.

mod common;

use std::sync::Arc;

use cal::core::check::{check_cal_with, CheckOptions, CheckStats, Verdict};
use cal::core::spec::SeqAsCa;
use cal::core::{Action, History, Method, ObjectId, ThreadId, Value};
use cal::specs::exchanger::ExchangerSpec;
use cal::specs::register::{read_op, write_op, RegisterSpec};
use cal::specs::registry::run_interval;
use cal::specs::snapshot::WriteSnapshotSpec;
use common::EventCounter;

const O: ObjectId = ObjectId(0);

/// `k` pairwise-concurrent identical successful exchanges. For odd `k`
/// one operation is always left unmatched, so every maximal matching
/// fails and, with symmetry reduction off, the DFS revisits the same
/// residue states exponentially often — the adversarial case the memo
/// table exists for. (With it on, the clones are matched in one order
/// and no residue is reached twice.)
fn hard_history(k: u32) -> History {
    let mut actions = Vec::new();
    for t in 0..k {
        actions.push(Action::invoke(ThreadId(t), O, Method("exchange"), Value::Int(1)));
    }
    for t in 0..k {
        actions.push(Action::response(ThreadId(t), O, Method("exchange"), Value::Pair(true, 1)));
    }
    History::from_actions(actions)
}

/// Symmetry reduction off: the memo alone stands between `hard_history`
/// and its exponential revisits.
fn no_symmetry() -> CheckOptions {
    CheckOptions { symmetry: false, ..CheckOptions::default() }
}

#[test]
fn memo_fires_on_backtracking_heavy_history() {
    let h = hard_history(7);
    let spec = ExchangerSpec::new(O);
    let out = check_cal_with(&h, &spec, &no_symmetry()).unwrap();
    assert!(matches!(out.verdict, Verdict::NotCal));
    assert!(
        out.stats.memo_hits > 0,
        "expected memo hits on the adversarial history, stats: {:?}",
        out.stats
    );
}

#[test]
fn memo_fires_in_the_parallel_checker_too() {
    let h = hard_history(7);
    let spec = ExchangerSpec::new(O);
    let options = CheckOptions { threads: 4, ..no_symmetry() };
    let out = check_cal_with(&h, &spec, &options).unwrap();
    assert!(matches!(out.verdict, Verdict::NotCal));
    assert!(
        out.stats.memo_hits > 0,
        "expected shared-memo hits across workers, stats: {:?}",
        out.stats
    );
}

#[test]
fn disabling_memoization_never_changes_the_verdict() {
    let spec = ExchangerSpec::new(O);
    for k in [1u32, 2, 3, 5, 7] {
        let h = hard_history(k);
        let on = CheckOptions::default();
        let off = CheckOptions { memoize: false, ..CheckOptions::default() };
        let with_memo = check_cal_with(&h, &spec, &on).unwrap();
        let without = check_cal_with(&h, &spec, &off).unwrap();
        assert_eq!(
            matches!(with_memo.verdict, Verdict::Cal(_)),
            matches!(without.verdict, Verdict::Cal(_)),
            "k={k}: memoize on/off diverged sequentially"
        );
        for threads in [2usize, 8] {
            let par_on = CheckOptions { threads, ..CheckOptions::default() };
            let par_off = CheckOptions { threads, memoize: false, ..CheckOptions::default() };
            let p_with = check_cal_with(&h, &spec, &par_on).unwrap();
            let p_without = check_cal_with(&h, &spec, &par_off).unwrap();
            assert_eq!(
                matches!(with_memo.verdict, Verdict::Cal(_)),
                matches!(p_with.verdict, Verdict::Cal(_)),
                "k={k}, threads={threads}: parallel verdict diverged from sequential"
            );
            assert_eq!(
                matches!(p_with.verdict, Verdict::Cal(_)),
                matches!(p_without.verdict, Verdict::Cal(_)),
                "k={k}, threads={threads}: memoize on/off diverged in parallel"
            );
        }
    }
}

/// `k` pairwise-concurrent writes of distinct values plus one concurrent
/// read of a never-written value: unsatisfiable, and distinct orders of
/// the same write set converge on the same `(matched, value)` residue
/// whenever their final writes agree — memo fodder for the CAL search on
/// a sequential spec.
fn hard_seq_history(k: usize) -> History {
    let writes: Vec<_> = (0..k).map(|i| write_op(O, ThreadId(i as u32), i as i64)).collect();
    let read = read_op(O, ThreadId(k as u32), 99);
    let mut actions = Vec::new();
    actions.extend(writes.iter().map(|op| op.invocation()));
    actions.push(read.invocation());
    actions.extend(writes.iter().map(|op| op.response()));
    actions.push(read.response());
    History::from_actions(actions)
}

/// Asserts the memo accounting invariants of a sequential memoized check
/// shared by every domain on the engine: the memo actually fired, every
/// charged node was probed exactly once (hits + misses = nodes), inserts
/// happened but never outnumbered misses (only a missed state can be
/// newly refuted), and the attached sink saw one expansion for every
/// node no hit pruned.
fn assert_memo_accounting(sink: &EventCounter, stats: &CheckStats, what: &str) {
    assert!(stats.memo_hits > 0, "{what}: expected memo hits, got none");
    assert!(stats.memo_inserts > 0, "{what}: expected memo inserts, got none");
    assert_eq!(
        stats.memo_hits + stats.memo_misses,
        stats.nodes,
        "{what}: every charged node must be probed exactly once"
    );
    assert!(
        stats.memo_inserts <= stats.memo_misses,
        "{what}: inserts ({}) cannot exceed misses ({})",
        stats.memo_inserts,
        stats.memo_misses
    );
    sink.assert_one_frontier_per_expansion(stats, what);
}

#[test]
fn memo_fires_on_a_sequential_spec() {
    let h = hard_seq_history(6);
    let spec = SeqAsCa::new(RegisterSpec::new(O));
    let sink = Arc::new(EventCounter::default());
    let options = sink.attach(&CheckOptions::default());
    let out = check_cal_with(&h, &spec, &options).unwrap();
    assert!(matches!(out.verdict, Verdict::NotCal));
    assert_memo_accounting(&sink, &out.stats, "sequential spec");

    let off = CheckOptions { memoize: false, ..CheckOptions::default() };
    let without = check_cal_with(&h, &spec, &off).unwrap();
    assert!(matches!(without.verdict, Verdict::NotCal), "memoize off changed the verdict");
    assert!(
        out.stats.nodes < without.stats.nodes,
        "sequential-spec memo saved nothing: {} vs {} nodes",
        out.stats.nodes,
        without.stats.nodes
    );
}

#[test]
fn memo_fires_in_the_interval_checker() {
    // Not interval-linearizable; distinct point orders converge on one
    // `(matched halves, open intervals, view)` residue.
    let h = common::lone_view_snapshots(6);
    let spec = WriteSnapshotSpec::new(O, 3);
    let sink = Arc::new(EventCounter::default());
    let options = sink.attach(&CheckOptions::default());
    let out = run_interval(&h, &spec, &options).unwrap();
    assert!(matches!(out.verdict, Verdict::NotCal));
    assert_memo_accounting(&sink, &out.stats, "interval");

    let off = CheckOptions { memoize: false, ..CheckOptions::default() };
    let without = run_interval(&h, &spec, &off).unwrap();
    assert!(matches!(without.verdict, Verdict::NotCal), "memoize off changed the verdict");
    assert!(
        out.stats.nodes < without.stats.nodes,
        "interval memo saved nothing: {} vs {} nodes",
        out.stats.nodes,
        without.stats.nodes
    );
}

#[test]
fn cal_memo_accounting_with_counting_sink() {
    // The original CAL family through the same accounting lens, with
    // symmetry reduction off; then the benchmark's windowed refutation
    // with it on, where the memo still fires between orbits and one
    // successor per orbit must still satisfy one-probe-per-node exactly.
    let spec = ExchangerSpec::new(O);
    for (what, h, symmetry) in [
        ("cal", hard_history(7), false),
        ("cal, symmetry on", common::exchanger_windows(2, true), true),
    ] {
        let sink = Arc::new(EventCounter::default());
        let options = sink.attach(&CheckOptions { symmetry, ..CheckOptions::default() });
        let out = check_cal_with(&h, &spec, &options).unwrap();
        assert!(matches!(out.verdict, Verdict::NotCal));
        assert_memo_accounting(&sink, &out.stats, what);
    }
}

#[test]
fn memoization_saves_work() {
    // Not a performance test per se, but the memo table should strictly
    // reduce explored nodes on the adversarial history.
    let h = hard_history(7);
    let spec = ExchangerSpec::new(O);
    let on = check_cal_with(&h, &spec, &no_symmetry()).unwrap();
    let off_options = CheckOptions { memoize: false, ..no_symmetry() };
    let off = check_cal_with(&h, &spec, &off_options).unwrap();
    assert!(
        on.stats.nodes < off.stats.nodes,
        "memoized search explored {} nodes, unmemoized {}",
        on.stats.nodes,
        off.stats.nodes
    );
}
