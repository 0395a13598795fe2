//! Engine invariants locking in the parallel-search rebuild: whatever
//! combination of worker count, memoization and symmetry reduction a
//! check runs with, the *decided* verdict is the same — the
//! arena DFS, the lock-free fingerprint memo and the task runner are
//! pure optimizations, never semantics. Alongside the differential
//! matrix, fingerprint-collision soundness for [`FpMemo`] and
//! cancellation accounting across workers are property-tested here.

use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cal::core::causal::{causal_order, check_causal_with};
use cal::core::check::{check_cal_with, CancelToken, CheckOptions, Verdict};
use cal::core::fpmemo::FpMemo;
use cal::core::history::HbRelation;
use cal::core::gen::interleave;
use cal::core::obs::StatsSink;
use cal::core::spec::SeqAsCa;
use cal::core::text::parse_history;
use cal::core::{Action, History, Method, ObjectId, ThreadId, Value};
use cal::specs::exchanger::ExchangerSpec;
use cal::specs::register::RegisterSpec;
use cal::specs::registry::run_interval;
use cal::specs::snapshot::WriteSnapshotSpec;
use cal::specs::sync_queue::SyncQueueSpec;
use proptest::prelude::*;

const O: ObjectId = ObjectId(0);

// --- history generation ----------------------------------------------------

type OpShape = (Method, Value, Value, bool);

fn arb_exchange_op() -> BoxedStrategy<OpShape> {
    (0i64..3, any::<bool>(), 0i64..3, any::<bool>())
        .prop_map(|(arg, ok, got, complete)| {
            (Method("exchange"), Value::Int(arg), Value::Pair(ok, got), complete)
        })
        .boxed()
}

fn arb_queue_op() -> BoxedStrategy<OpShape> {
    prop_oneof![
        (0i64..3, any::<bool>(), any::<bool>())
            .prop_map(|(v, ok, c)| (Method("put"), Value::Int(v), Value::Bool(ok), c)),
        (any::<bool>(), 0i64..3, any::<bool>())
            .prop_map(|(ok, v, c)| (Method("take"), Value::Unit, Value::Pair(ok, v), c)),
    ]
    .boxed()
}

fn arb_register_op() -> BoxedStrategy<OpShape> {
    prop_oneof![
        (0i64..3, any::<bool>())
            .prop_map(|(v, c)| (Method("write"), Value::Int(v), Value::Unit, c)),
        (0i64..3, any::<bool>())
            .prop_map(|(v, c)| (Method("read"), Value::Unit, Value::Int(v), c)),
    ]
    .boxed()
}

fn arb_snapshot_op() -> BoxedStrategy<OpShape> {
    // write_snapshot(v) ▷ view, the view a bitmask over values 0..3;
    // tiny values keep the interval point enumeration fast across the
    // whole option matrix.
    (0i64..3, 0i64..8, any::<bool>())
        .prop_map(|(v, view, complete)| {
            (Method("write_snapshot"), Value::Int(v), Value::Int(view), complete)
        })
        .boxed()
}

/// Builds a seeded interleaving of up to 3 threads × up to 3 ops.
fn build_history(threads: Vec<Vec<OpShape>>, seed: u64) -> History {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let lists: Vec<Vec<Action>> = threads
        .into_iter()
        .enumerate()
        .map(|(t, ops)| {
            let mut out = Vec::new();
            let n = ops.len();
            for (i, (m, arg, ret, complete)) in ops.into_iter().enumerate() {
                out.push(Action::invoke(ThreadId(t as u32), O, m, arg));
                if complete || i + 1 < n {
                    out.push(Action::response(ThreadId(t as u32), O, m, ret));
                }
            }
            out
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    interleave(&lists, &mut rng)
}

fn history_of(op: impl Strategy<Value = OpShape>) -> impl Strategy<Value = History> {
    (prop::collection::vec(prop::collection::vec(op, 0..4), 1..4), any::<u64>())
        .prop_map(|(threads, seed)| build_history(threads, seed))
}

// --- the option matrix -----------------------------------------------------

/// Every engine configuration a decided verdict must be invariant under:
/// a thread sweep with default flags, plus each flag ablated (and all
/// ablated at once) at 4 threads.
fn option_matrix() -> Vec<CheckOptions> {
    let mut matrix = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        matrix.push(CheckOptions { threads, ..CheckOptions::default() });
    }
    for (memoize, symmetry) in [(false, true), (true, false), (false, false)] {
        matrix.push(CheckOptions { threads: 4, memoize, symmetry, ..CheckOptions::default() });
    }
    matrix
}

fn label(o: &CheckOptions) -> String {
    format!("threads={} memoize={} symmetry={}", o.threads, o.memoize, o.symmetry)
}

/// Runs `check` over the whole option matrix and asserts every decided
/// verdict matches the sequential default-flags baseline. `baseline` and
/// each matrix entry must decide (the generated instances are tiny and
/// budgets default to 4M nodes, so anything undecided is itself a bug).
fn assert_matrix_invariant<W: std::fmt::Debug>(
    h: &History,
    seq: impl Fn(&CheckOptions) -> Verdict<W>,
    par: impl Fn(&CheckOptions) -> Verdict<W>,
) {
    let baseline = seq(&CheckOptions::default());
    assert!(
        !baseline.is_undecided(),
        "baseline must decide tiny instances, got {baseline:?}\nhistory:\n{h}"
    );
    // Sequential flag ablations first: memoization and symmetry must not
    // change what the plain DFS decides.
    for options in [
        CheckOptions { memoize: false, ..CheckOptions::default() },
        CheckOptions { symmetry: false, ..CheckOptions::default() },
    ] {
        let v = seq(&options);
        assert_eq!(
            baseline.is_cal(),
            v.is_cal(),
            "sequential {} diverged: {baseline:?} vs {v:?}\nhistory:\n{h}",
            label(&options)
        );
    }
    for options in option_matrix() {
        let v = par(&options);
        assert_eq!(
            baseline.is_cal(),
            v.is_cal(),
            "parallel {} diverged: {baseline:?} vs {v:?}\nhistory:\n{h}",
            label(&options)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn exchanger_verdict_invariant_across_engine_options(h in history_of(arb_exchange_op())) {
        let spec = ExchangerSpec::new(O);
        assert_matrix_invariant(
            &h,
            |o| check_cal_with(&h, &spec, o).expect("well-formed").verdict,
            |o| check_cal_with(&h, &spec, o).expect("well-formed").verdict,
        );
    }

    #[test]
    fn sync_queue_verdict_invariant_across_engine_options(h in history_of(arb_queue_op())) {
        let spec = SyncQueueSpec::new(O);
        assert_matrix_invariant(
            &h,
            |o| check_cal_with(&h, &spec, o).expect("well-formed").verdict,
            |o| check_cal_with(&h, &spec, o).expect("well-formed").verdict,
        );
    }

    #[test]
    fn cal_via_seq_adapter_verdict_invariant(h in history_of(arb_register_op())) {
        // The register family through the CAL checker's singleton
        // embedding — classical linearizability: exercises CalDomain's
        // symmetry classes on a spec whose ops rarely clone, i.e. the
        // generator with no previous clone to wait for.
        let spec = SeqAsCa::new(RegisterSpec::new(O).with_read_universe(vec![0, 1, 2]));
        assert_matrix_invariant(
            &h,
            |o| check_cal_with(&h, &spec, o).expect("well-formed").verdict,
            |o| check_cal_with(&h, &spec, o).expect("well-formed").verdict,
        );
    }

    #[test]
    fn causal_verdict_invariant_across_engine_options(h in history_of(arb_exchange_op())) {
        // A genuinely *partial* order — session order only — through the
        // same matrix: the hb-constraint symmetry classes, the memo keyed
        // on hb frontiers and the root-branch split (per-object
        // decomposition is off under a partial order) must all be
        // verdict-preserving.
        let spec = ExchangerSpec::new(O);
        let hb = causal_order(&h, &[]).expect("well-formed");
        assert_matrix_invariant(
            &h,
            |o| check_causal_with(&h, &spec, &hb, o).expect("well-formed").verdict,
            |o| check_causal_with(&h, &spec, &hb, o).expect("well-formed").verdict,
        );
    }

    #[test]
    fn causal_real_time_verdict_invariant_across_engine_options(h in history_of(arb_queue_op())) {
        // The total-order instance through the matrix: causal mode on
        // `≺H` is CAL, so on top of self-consistency the baseline must
        // equal the CAL baseline (the differential anchor, ablated).
        let spec = SyncQueueSpec::new(O);
        let hb = HbRelation::real_time(&h.spans());
        assert_matrix_invariant(
            &h,
            |o| check_causal_with(&h, &spec, &hb, o).expect("well-formed").verdict,
            |o| check_causal_with(&h, &spec, &hb, o).expect("well-formed").verdict,
        );
        let cal = check_cal_with(&h, &spec, &CheckOptions::default()).expect("well-formed");
        let causal = check_causal_with(&h, &spec, &hb, &CheckOptions::default())
            .expect("well-formed");
        prop_assert_eq!(
            cal.verdict.is_cal(),
            causal.verdict.is_cal(),
            "causal-on-real-time diverged from CAL\nhistory:\n{}", h
        );
    }

    #[test]
    fn interval_verdict_invariant_across_engine_options(h in history_of(arb_snapshot_op())) {
        // The interval reading is the CAL search over split operations;
        // Above one thread every `run_interval` worker searches the root.
        let spec = WriteSnapshotSpec::new(O, 3);
        let interval = |o: &CheckOptions| run_interval(&h, &spec, o).expect("well-formed").verdict;
        assert_matrix_invariant(&h, interval, interval);
    }
}

// --- fingerprint-collision soundness ---------------------------------------

/// A key whose `Hash` collapses to a constant: every key lands on the
/// same fingerprint *and* the same probe sequence, the worst case for an
/// open-addressed fingerprint table.
#[derive(Clone, PartialEq, Eq, Debug)]
struct Colliding(u64);

impl Hash for Colliding {
    fn hash<H: Hasher>(&self, state: &mut H) {
        0u64.hash(state);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// No false hits, ever: a `contains` that answers `true` must be for
    /// a key that was actually inserted, under honest hashing...
    #[test]
    fn fpmemo_never_false_hits(
        inserts in prop::collection::vec(0u64..1_000, 0..200),
        probes in prop::collection::vec(0u64..1_000, 0..200),
    ) {
        let inserts: HashSet<u64> = inserts.into_iter().collect();
        let memo: FpMemo<u64> = FpMemo::with_capacity(256);
        for k in &inserts {
            memo.insert(k);
        }
        for p in &probes {
            if memo.contains(p) {
                prop_assert!(inserts.contains(p), "false hit for {p}");
            }
        }
    }

    /// ...and under total fingerprint collision, where only the boxed-key
    /// `Eq` confirmation stands between a shared fingerprint and an
    /// unsound prune.
    #[test]
    fn fpmemo_never_false_hits_under_total_collision(
        inserts in prop::collection::vec(0u64..1_000, 0..40),
        probes in prop::collection::vec(0u64..1_000, 0..100),
    ) {
        let inserts: HashSet<u64> = inserts.into_iter().collect();
        let memo: FpMemo<Colliding> = FpMemo::with_capacity(64);
        for k in &inserts {
            memo.insert(&Colliding(*k));
        }
        for p in &probes {
            if memo.contains(&Colliding(*p)) {
                prop_assert!(inserts.contains(p), "false hit for colliding key {p}");
            }
        }
    }

    /// Below the eviction threshold and without probe-window overflow,
    /// an acknowledged insert stays resident: `insert -> true` implies
    /// `contains` until the next generation sweep.
    #[test]
    fn fpmemo_acknowledged_inserts_are_resident(
        inserts in prop::collection::vec(0u64..10_000, 0..200),
    ) {
        let inserts: HashSet<u64> = inserts.into_iter().collect();
        let memo: FpMemo<u64> = FpMemo::with_capacity(4096);
        let mut acknowledged = HashSet::new();
        for k in &inserts {
            if memo.insert(k) {
                acknowledged.insert(*k);
            }
        }
        prop_assert_eq!(memo.evictions(), 0, "threshold should not be reached");
        for k in &acknowledged {
            prop_assert!(memo.contains(k), "acknowledged insert {k} went missing");
        }
    }
}

// --- cancellation across workers -------------------------------------------

/// A sink that fires a [`CancelToken`] after a randomized number of node
/// expansions (one `on_frontier` each), from whichever worker happens to
/// cross the line.
#[derive(Debug)]
struct CancelAfter {
    token: CancelToken,
    after: u64,
    seen: AtomicU64,
}

impl StatsSink for CancelAfter {
    fn on_frontier(&self, _width: usize) {
        if self.seen.fetch_add(1, Ordering::Relaxed) + 1 == self.after {
            self.token.cancel();
        }
    }
}

/// `k` pairwise-concurrent identical exchanges, odd `k`: unsatisfiable,
/// and with symmetry reduction off the refutation is exponential even
/// with the memo on — the search cannot finish before any plausible
/// cancellation point.
fn unbounded_history(k: usize) -> History {
    let mut text = String::new();
    for t in 0..k {
        text.push_str(&format!("t{t} inv o0.exchange 0\n"));
    }
    for t in 0..k {
        text.push_str(&format!("t{t} res o0.exchange (true,0)\n"));
    }
    parse_history(&text).expect("parses")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Cancelling mid-search across several workers on one root yields
    /// `Interrupted` with exact node accounting: every charged node is
    /// counted once in the aggregated stats, and every one the shared memo
    /// did not prune reaches the sink as one expansion — no worker's nodes
    /// are lost or double-counted on the way down.
    #[test]
    fn cancellation_under_stealing_loses_no_nodes(
        after in 1u64..400,
        threads in 2usize..5,
    ) {
        let h = unbounded_history(13);
        let spec = ExchangerSpec::new(O);
        let sink = Arc::new(CancelAfter {
            token: CancelToken::new(),
            after,
            seen: AtomicU64::new(0),
        });
        let options = CheckOptions {
            threads,
            symmetry: false,
            cancel: Some(sink.token.clone()),
            sink: Some(Arc::clone(&sink) as Arc<dyn StatsSink>),
            ..CheckOptions::default()
        };
        let outcome = check_cal_with(&h, &spec, &options).expect("well-formed");
        prop_assert!(
            matches!(outcome.verdict, Verdict::Interrupted { .. }),
            "expected an interrupt, got {:?}", outcome.verdict
        );
        prop_assert!(outcome.stats.nodes >= after.min(outcome.stats.nodes));
        prop_assert_eq!(outcome.stats.root_workers, threads as u64);
        prop_assert_eq!(
            sink.seen.load(Ordering::Relaxed),
            outcome.stats.nodes - outcome.stats.memo_hits,
            "sink and stats disagree on expanded nodes (threads={}, after={})",
            threads,
            after
        );
    }
}
