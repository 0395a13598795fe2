//! E15 — deadline regression: on a state space far beyond the node
//! budget, `check_cal_with` honours a ~50 ms wall-clock deadline within
//! 2×, returns partial statistics instead of panicking, and reports the
//! interruption as such. Every mode is that one search, so the same
//! properties are asserted for CAL on a sequential spec and for the
//! interval reading (over split operations) on their own hard instances.

use std::time::{Duration, Instant};

use cal::core::check::{check_cal_with, CheckOptions, Verdict};
use cal::core::spec::{Searched, SeqAsCa};
use cal::core::text::parse_history;
use cal::core::{History, ObjectId, ThreadId};
use cal::specs::exchanger::ExchangerSpec;
use cal::specs::register::{read_op, write_op, RegisterSpec};
use cal::specs::registry::run_interval;
use cal::specs::snapshot::WriteSnapshotSpec;

mod common;

/// `k` pairwise-concurrent `exchange(0) -> (true, 0)` calls: every pair
/// of them can explain each other, but an odd `k` leaves one call that no
/// rule covers, so the search must refute every way of pairing the rest —
/// super-exponential without memoization and without symmetry reduction
/// (which would match the clones in one order and decide in a few nodes).
fn hard_history(k: usize) -> History {
    let mut text = String::new();
    for t in 0..k {
        text.push_str(&format!("t{t} inv o0.exchange 0\n"));
    }
    for t in 0..k {
        text.push_str(&format!("t{t} res o0.exchange (true,0)\n"));
    }
    parse_history(&text).expect("hard history parses")
}

fn hard_options(deadline: Duration) -> CheckOptions {
    CheckOptions {
        // A budget the search cannot finish within the deadline; the
        // deadline, not the node cap, must be what stops it.
        max_nodes: u64::MAX,
        memoize: false,
        symmetry: false,
        deadline: Some(deadline),
        ..CheckOptions::default()
    }
}

#[test]
fn deadline_is_honoured_within_2x() {
    let history = hard_history(15);
    let spec = Searched(ExchangerSpec::new(cal::core::ObjectId(0)));
    let deadline = Duration::from_millis(50);

    let start = Instant::now();
    let outcome = check_cal_with(&history, &spec, &hard_options(deadline))
        .expect("interrupted checks are outcomes, not errors");
    let elapsed = start.elapsed();

    assert!(
        matches!(outcome.verdict, Verdict::Interrupted { .. }),
        "expected an interrupt, got {:?} after {elapsed:?}",
        outcome.verdict
    );
    assert!(outcome.stats.nodes > 0, "partial stats must reflect work done");
    assert!(
        elapsed <= deadline * 2,
        "deadline overshoot: {elapsed:?} for a {deadline:?} deadline"
    );
}

#[test]
fn interrupt_reason_names_the_deadline() {
    let history = hard_history(13);
    let spec = Searched(ExchangerSpec::new(cal::core::ObjectId(0)));
    let outcome = check_cal_with(&history, &spec, &hard_options(Duration::from_millis(20)))
        .expect("interrupted checks are outcomes, not errors");
    match outcome.verdict {
        Verdict::Interrupted { reason } => {
            assert!(
                reason.to_string().contains("deadline"),
                "reason should name the deadline, got {reason}"
            );
        }
        other => panic!("expected Interrupted, got {other:?}"),
    }
}

/// Deadline-bounded checks are quiet under repetition: no panic, no
/// drift, every run within 2× wall-clock — the property the chaos soak
/// relies on when it hands the checker a per-run deadline.
#[test]
fn repeated_deadline_checks_stay_bounded() {
    let history = hard_history(15);
    let spec = Searched(ExchangerSpec::new(cal::core::ObjectId(0)));
    let deadline = Duration::from_millis(50);
    for _ in 0..5 {
        let start = Instant::now();
        let outcome = check_cal_with(&history, &spec, &hard_options(deadline))
            .expect("interrupted checks are outcomes, not errors");
        let elapsed = start.elapsed();
        assert!(matches!(outcome.verdict, Verdict::Interrupted { .. }));
        assert!(elapsed <= deadline * 2, "overshoot on repeat: {elapsed:?}");
    }
}

/// Without a deadline the same state space exhausts a finite node budget
/// instead — and that, too, is a result, not a panic (the pre-chaos
/// checker aborted the process here).
#[test]
fn node_budget_exhaustion_is_a_result_not_a_panic() {
    let history = hard_history(15);
    let spec = Searched(ExchangerSpec::new(cal::core::ObjectId(0)));
    let options = CheckOptions {
        max_nodes: 10_000,
        memoize: false,
        symmetry: false,
        ..CheckOptions::default()
    };
    let outcome = check_cal_with(&history, &spec, &options).expect("exhaustion is an outcome");
    assert!(matches!(outcome.verdict, Verdict::ResourcesExhausted));
    assert!(outcome.stats.nodes >= 10_000);
}

/// `k` pairwise-concurrent register writes of distinct values plus one
/// concurrent read of a never-written value: unsatisfiable, so the
/// (memoization-free) search must refute every write order.
fn hard_seq_history(k: usize) -> History {
    let r = ObjectId(0);
    let writes: Vec<_> = (0..k).map(|i| write_op(r, ThreadId(i as u32), i as i64)).collect();
    let read = read_op(r, ThreadId(k as u32), 99);
    let mut actions = Vec::new();
    actions.extend(writes.iter().map(|op| op.invocation()));
    actions.push(read.invocation());
    actions.extend(writes.iter().map(|op| op.response()));
    actions.push(read.response());
    History::from_actions(actions)
}

#[test]
fn sequential_spec_deadline_is_honoured_within_2x() {
    let history = hard_seq_history(11);
    let spec = SeqAsCa::new(RegisterSpec::new(ObjectId(0)));
    let deadline = Duration::from_millis(50);
    let start = Instant::now();
    let outcome = check_cal_with(&history, &spec, &hard_options(deadline))
        .expect("interrupted checks are outcomes, not errors");
    let elapsed = start.elapsed();
    assert!(
        matches!(outcome.verdict, Verdict::Interrupted { .. }),
        "expected an interrupt, got {:?} after {elapsed:?}",
        outcome.verdict
    );
    assert!(outcome.stats.nodes > 0, "partial stats must reflect work done");
    assert!(elapsed <= deadline * 2, "deadline overshoot: {elapsed:?}");
}

#[test]
fn sequential_spec_budget_exhaustion_is_a_result_not_a_panic() {
    let history = hard_seq_history(11);
    let spec = SeqAsCa::new(RegisterSpec::new(ObjectId(0)));
    let options = CheckOptions { max_nodes: 10_000, memoize: false, ..CheckOptions::default() };
    let outcome = check_cal_with(&history, &spec, &options).expect("exhaustion is an outcome");
    assert!(matches!(outcome.verdict, Verdict::ResourcesExhausted));
    assert!(outcome.stats.nodes >= 10_000);
}

/// [`common::lone_view_snapshots`]: unsatisfiable for `k ≥ 2`, and the
/// point enumeration (opening subsets up to `max_active`, closing subsets
/// of the active set) is enormous.
fn hard_interval_history(k: usize) -> History {
    common::lone_view_snapshots(k)
}

#[test]
fn interval_deadline_is_honoured_within_2x() {
    let history = hard_interval_history(10);
    let spec = WriteSnapshotSpec::new(ObjectId(0), 4);
    let deadline = Duration::from_millis(50);
    let start = Instant::now();
    let outcome = run_interval(&history, &spec, &hard_options(deadline))
        .expect("interrupted checks are outcomes, not errors");
    let elapsed = start.elapsed();
    assert!(
        matches!(outcome.verdict, Verdict::Interrupted { .. }),
        "expected an interrupt, got {:?} after {elapsed:?}",
        outcome.verdict
    );
    assert!(outcome.stats.nodes > 0, "partial stats must reflect work done");
    assert!(elapsed <= deadline * 2, "deadline overshoot: {elapsed:?}");
}

#[test]
fn interval_budget_exhaustion_is_a_result_not_a_panic() {
    let history = hard_interval_history(10);
    let spec = WriteSnapshotSpec::new(ObjectId(0), 4);
    let options = CheckOptions { max_nodes: 5_000, memoize: false, ..CheckOptions::default() };
    let outcome = run_interval(&history, &spec, &options).expect("exhaustion is an outcome");
    assert!(matches!(outcome.verdict, Verdict::ResourcesExhausted));
    assert!(outcome.stats.nodes >= 5_000);
}

// --- CLI paths -------------------------------------------------------------
//
// `cal-check` runs with memoization on, so the CLI instances below are
// sized up until even the memoized search cannot decide them quickly;
// the tests then pin that `--deadline-ms` reaches every `--mode` and the
// batch fold: exit status 2 (undecided) with a reason that names the
// deadline, rather than a node-budget exhaustion or a hang.

mod cli {
    use std::process::{Command, Output};
    use std::time::{Duration, Instant};

    use cal::core::text::format_history;
    use cal::core::History;

    const EXE: &str = env!("CARGO_BIN_EXE_cal-check");

    /// Fresh per-test scratch dir under the target-dir tmp space.
    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    fn write_history(path: &std::path::Path, history: &History) {
        std::fs::write(path, format_history(history)).expect("history file");
    }

    /// Runs `cal-check` and asserts it came back well before the node
    /// budget could plausibly have been the stopping reason.
    fn run_timed(args: &[&str]) -> (Output, Duration) {
        let start = Instant::now();
        let out = Command::new(EXE).args(args).output().expect("cal-check runs");
        (out, start.elapsed())
    }

    fn assert_deadline_undecided(out: &Output, elapsed: Duration, what: &str) {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{what}: expected exit 2, stderr: {stderr}");
        assert!(
            stderr.contains("deadline"),
            "{what}: the undecided reason must name the deadline, got: {stderr}"
        );
        // Generous spawn/parse slack, but far below what burning the full
        // 4M-node default budget would take.
        assert!(elapsed < Duration::from_secs(10), "{what}: took {elapsed:?}");
    }

    #[test]
    fn cal_mode_honours_deadline_ms() {
        let dir = scratch("deadline-cal");
        let file = dir.join("hard.hist");
        write_history(&file, &super::hard_history(25));
        // `--no-symmetry` keeps the instance super-exponential: its 25
        // identical concurrent exchanges are exactly what the symmetry
        // reduction collapses, and a collapsed search decides well inside
        // any deadline worth testing. The `.cal` exchanger keeps the
        // check on the search: the built-in is decided by a matching,
        // which refutes the pile at once by parity.
        let (out, elapsed) = run_timed(&[
            "exchanger",
            file.to_str().unwrap(),
            "--spec",
            concat!(env!("CARGO_MANIFEST_DIR"), "/specs/exchanger.cal"),
            "--deadline-ms",
            "40",
            "--no-symmetry",
        ]);
        assert_deadline_undecided(&out, elapsed, "--mode cal");
    }

    #[test]
    fn seq_mode_honours_deadline_ms() {
        let dir = scratch("deadline-seq");
        let file = dir.join("hard.hist");
        write_history(&file, &super::hard_seq_history(20));
        let (out, elapsed) = run_timed(&[
            "register",
            file.to_str().unwrap(),
            "--mode",
            "seq",
            "--deadline-ms",
            "40",
        ]);
        assert_deadline_undecided(&out, elapsed, "--mode seq");
    }

    #[test]
    fn interval_mode_honours_deadline_ms() {
        let dir = scratch("deadline-interval");
        let file = dir.join("hard.hist");
        write_history(&file, &super::hard_interval_history(14));
        let (out, elapsed) = run_timed(&[
            "write-snapshot",
            file.to_str().unwrap(),
            "--mode",
            "interval",
            "--deadline-ms",
            "40",
        ]);
        assert_deadline_undecided(&out, elapsed, "--mode interval");
    }

    /// The batch fold is worst-wins: one hard file among easy ones must
    /// surface the deadline interrupt as the directory's exit status.
    #[test]
    fn batch_fold_surfaces_deadline_undecided() {
        let dir = scratch("deadline-batch");
        write_history(&dir.join("hard.hist"), &super::hard_seq_history(20));
        std::fs::write(
            dir.join("easy.hist"),
            "t0 inv o0.write 1\nt0 res o0.write ()\nt0 inv o0.read ()\nt0 res o0.read 1\n",
        )
        .expect("easy file");
        let (out, elapsed) = run_timed(&[
            "register",
            "--batch",
            dir.to_str().unwrap(),
            "--mode",
            "seq",
            "--deadline-ms",
            "40",
        ]);
        assert_eq!(
            out.status.code(),
            Some(2),
            "worst-wins fold must surface the undecided file, stdout: {}",
            String::from_utf8_lossy(&out.stdout)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("undecided") && stdout.contains("deadline"),
            "per-file line should report the deadline interrupt: {stdout}"
        );
        assert!(elapsed < Duration::from_secs(10), "batch took {elapsed:?}");
    }
}
