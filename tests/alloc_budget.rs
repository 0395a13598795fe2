//! "A rejected candidate allocates nothing" and "a node costs a handful of
//! allocations" as assertions: this test binary — and only it — runs under
//! a counting global allocator.
//!
//! The counter is per thread, so the tests may run side by side; each
//! counts the allocations its own thread makes between two readings,
//! around calls that search on the calling thread. Counts are exact and
//! repeat from run to run; the bounds leave room for the buffers that
//! double as they grow (the successor arena, the frame stack, the memo
//! table), not for anything per candidate or per node.
//!
//! On the commit before the candidate loop was rebuilt the same
//! measurements read 48 allocations a node on the exchanger refutation
//! (1,266,305 for 26,593 nodes; 90 after), 417 a checkpointed node on its
//! stream (24,000,886 for 57,600; 217 after), and 234 against 831 on the
//! all-rejected root of 36 and 136 candidates (25 against 30 after). Since
//! symmetry reduction generates one successor per orbit, the refutation
//! visits 12,913 nodes for 84 allocations and its stream 2,880 for 208
//! (2,377 nodes since the stream runs the batch's DFS, which charges a
//! revisit as a node, and retires a pair specification's window at its
//! first goal); the symmetry-free stream is kept as the per-node case.
//!
//! The same allocator keeps the bytes live on each thread and their peak,
//! so that what a search keeps is held to the concurrency of the history
//! rather than its length: a 100,000-operation history of four clients is
//! checked in 64 MiB (the commit before matched sets were cuts of the
//! order needed about 2 GiB, an `n`-bit set in every frame), and its causal
//! order, with a reads-from edge a read, is built in 32 MiB (two `n × n`
//! bit matrices, 2.5 GB, before the order kept vector clocks). A history
//! of as many operations over sixteen keys is split by key before any
//! order is built, and checked in 41 MiB (53 when the whole history's
//! order was built first and thrown away, 42.5 when the history was
//! projected by key). A causal check of 10⁵ operations over 64 sessions
//! is held to 48 MiB: its order's vector clocks take 49 MiB, so the
//! check must borrow the order, not copy it (93 MiB when it did).
//!
//! The wire in front of the stream checker is held to the same kind of
//! statement: a Jepsen record costs `decode_line` the `Vec` it returns
//! (eight allocations before its scanner borrowed from the line), and so
//! does a kvlog line (four before its tokens went into six fixed slots);
//! a record costs `Ingest::line` nothing over the pushes it ends in, and
//! costs the byte → line splitter nothing.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cal::core::causal::check_causal_with;
use cal::core::check::{check_cal_with, witness_explains, CheckOptions, CheckStats, Verdict};
use cal::core::format::{format_jepsen, format_kvlog, StreamDecoder};
use cal::core::history::HbRelation;
use cal::core::spec::{CaSpec, SeqAsCa};
use cal::core::stream::{
    Ingest, LineSplitter, Push, Reply, StreamChecker, StreamOptions, StreamVerdict,
};
use cal::core::{History, ThreadId};
use cal::specs::exchanger::ExchangerSpec;
use cal::specs::kv::KvMapSpec;
use cal::specs::register::{write_op, RegisterSpec};
use common::{
    exchanger_windows, identical_exchanges, kv_rounds, kv_stream, pipelined_register_history, O,
};

struct Counting;

thread_local! {
    // Const-initialised and without a destructor, so touching them never
    // allocates and is sound at any point of a thread's life.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    // Bytes allocated on this thread and not yet freed (by any thread: a
    // block freed elsewhere stays counted here), and the most there were.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Moves this thread's live byte count by `delta`, raising the peak with it.
fn add_live(delta: i64) {
    let live = LIVE.with(|live| {
        live.set(live.get() + delta);
        live.get()
    });
    PEAK.with(|peak| peak.set(peak.get().max(live)));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters never touch the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        add_live(layout.size() as i64);
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        add_live(-(layout.size() as i64));
        // SAFETY: as above.
        unsafe { System.dealloc(p, layout) }
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        add_live(new_size as i64 - layout.size() as i64);
        // SAFETY: as above.
        unsafe { System.realloc(p, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// What `work` returns, and how many times this thread allocated (or
/// reallocated) while it ran.
fn counted<T>(work: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = work();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// What `work` returns, and the most bytes this thread held live while it
/// ran beyond what it held before.
fn peak_live<T>(work: impl FnOnce() -> T) -> (T, u64) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(before));
    let out = work();
    (out, (PEAK.with(Cell::get) - before) as u64)
}

const MIB: u64 = 1 << 20;

fn in_ci() -> bool {
    std::env::var("CI").is_ok_and(|v| v == "1" || v == "true")
}

/// The most a search may allocate per node it visits, everything counted:
/// building the domain, the search's own buffers, the witness.
const PER_NODE: u64 = 4;

/// A search of thousands of nodes over a window-sized history allocates
/// for its fixed costs and for buffers that double, and for nothing else:
/// not once in a hundred nodes.
fn assert_no_cost_per_node(what: &str, stats: &CheckStats, allocations: u64) {
    assert!(stats.nodes > 1_000, "{what}: a search worth the name: {stats:?}");
    assert!(
        allocations * 100 <= stats.nodes,
        "{what}: {allocations} allocations for {} nodes",
        stats.nodes
    );
}

/// One check of `history` under `options`, its verdict asserted: its
/// counters and its allocations.
fn check_counted<S: CaSpec>(
    history: &History,
    spec: &S,
    options: &CheckOptions,
    accepted: bool,
) -> (CheckStats, u64) {
    let (outcome, allocations) = counted(|| check_cal_with(history, spec, options).unwrap());
    assert_eq!(outcome.verdict.is_cal(), accepted, "{:?}", outcome.verdict);
    assert!(accepted || outcome.verdict == Verdict::NotCal, "{:?}", outcome.verdict);
    (outcome.stats, allocations)
}

#[test]
fn a_rejected_candidate_allocates_nothing() {
    // No two of these swap and none may succeed alone: the root's
    // `k + C(k, 2)` candidates are all rejected and the search ends where
    // it began. (Symmetry reduction off: on, the clones would be tried in
    // one order only, one lone call and one pair.)
    let spec = ExchangerSpec::new(O);
    let options = CheckOptions { symmetry: false, ..CheckOptions::default() };
    let [(few, few_allocations), (many, many_allocations)] = [8u64, 16].map(|k| {
        let history = identical_exchanges(k as usize, 1);
        let (stats, allocations) = check_counted(&history, &spec, &options, false);
        assert_eq!((stats.nodes, stats.elements_tried), (1, k + k * (k - 1) / 2), "k = {k}");
        (stats, allocations)
    });
    // A hundred more candidates, and nothing to show for them but a
    // doubling here and there of what is sized by the history.
    assert_eq!(many.elements_tried - few.elements_tried, 100);
    assert!(
        many_allocations.abs_diff(few_allocations) <= 8,
        "{few_allocations} allocations for 36 rejected candidates, {many_allocations} for 136"
    );
}

#[test]
fn a_search_node_costs_a_handful_of_allocations() {
    // The benchmark's refutation, three windows of it: 12,913 nodes, three
    // in four of them memo hits, thirty-seven candidates an expanded node.
    let options = CheckOptions::default();
    let (stats, allocations) =
        check_counted(&exchanger_windows(3, true), &ExchangerSpec::new(O), &options, false);
    assert!(stats.memo_hits > 0, "and a memo worth the name: {stats:?}");
    assert_no_cost_per_node("exchanger refutation", &stats, allocations);
    // At the benchmark's own size, 295 operations, the cut still fits in
    // its node: 22 chains of at most 14 spans are 88 bits (181 allocations
    // for 70,993 nodes; 86,709 when a node held a 295-bit set, a heap
    // block a successor, and 234,461 for 144,865 when every symmetric
    // sibling was generated and given a canonical key).
    let (stats, allocations) =
        check_counted(&exchanger_windows(14, true), &ExchangerSpec::new(O), &options, false);
    assert_no_cost_per_node("14-window refutation", &stats, allocations);
    // A small accepted history, one node an operation: here the fixed
    // costs (spans, order, classes, witness) are most of the count.
    let register = SeqAsCa::new(RegisterSpec::new(O));
    let (stats, allocations) =
        check_counted(&pipelined_register_history(64), &register, &options, true);
    assert_eq!(stats.nodes, 64);
    assert!(
        allocations <= PER_NODE * stats.nodes,
        "register history: {allocations} allocations for {} nodes",
        stats.nodes
    );
}

/// Every action of `history` pushed into a stream checker with `opts`
/// (`cal-serve`'s are the default), then `finish`: the checkpoint and
/// retirement searches' counters, and the allocations of all of it.
fn stream_counted<S: CaSpec>(
    history: &History,
    spec: S,
    opts: StreamOptions,
    consistent: bool,
) -> (CheckStats, u64) {
    let mut checker = StreamChecker::new(spec, opts);
    let (verdict, allocations) = counted(|| {
        for &action in history.actions() {
            if checker.push(action) != Push::Admitted {
                break;
            }
        }
        checker.finish()
    });
    let expected = if consistent { StreamVerdict::Consistent } else { StreamVerdict::Violation };
    assert_eq!(verdict, expected);
    (checker.stats().search, allocations)
}

#[test]
fn a_checkpointed_node_costs_a_handful_of_allocations() {
    // One window search and one retirement a window, both the batch's DFS
    // run from the part's states: the second is where the stream's old
    // goal enumeration used to clone every node twice. Symmetry reduction
    // off, the search visits every symmetric sibling, and not one node in
    // a hundred allocates.
    let history = exchanger_windows(3, true);
    let check = CheckOptions { symmetry: false, ..CheckOptions::default() };
    let opts = StreamOptions { check, ..StreamOptions::default() };
    let (stats, allocations) = stream_counted(&history, ExchangerSpec::new(O), opts, false);
    // (Nodes, elements tried, memo hits. The exchanger is a stateless
    // pair specification, so a retirement stops at its first goal as a
    // checkpoint does. Run to the end, it read 447,363 nodes, 389,763 of
    // them memo hits: a revisit is charged as a node, as in the batch.
    // The goal enumeration that dropped revisits uncounted read 57,600.)
    assert_eq!((stats.nodes, stats.elements_tried, stats.memo_hits), (84_889, 940_691, 73_345));
    assert_no_cost_per_node("exchanger stream", &stats, allocations);
    // On, as `cal-serve` runs it: one successor per orbit, and what is
    // left is each window's fixed cost (its spans, order and classes).
    // (12,915 nodes and 10,035 hits with retirements run to the end;
    // 2,880 and no hit counted in the goal enumeration.)
    let opts = StreamOptions::default();
    let (stats, allocations) = stream_counted(&history, ExchangerSpec::new(O), opts, false);
    assert_eq!((stats.nodes, stats.elements_tried, stats.memo_hits), (2_377, 27_887, 1_777));
    assert!(
        allocations <= PER_NODE * stats.nodes,
        "exchanger stream: {allocations} allocations for {} checkpointed nodes",
        stats.nodes
    );
    let register = SeqAsCa::new(RegisterSpec::new(O));
    let opts = StreamOptions::default();
    let (stats, allocations) =
        stream_counted(&pipelined_register_history(64), register, opts, true);
    // (463 nodes and no hit counted in the goal enumeration.)
    assert_eq!((stats.nodes, stats.elements_tried, stats.memo_hits), (641, 1_219, 178));
    assert!(
        allocations <= PER_NODE * stats.nodes,
        "register stream: {allocations} allocations for {} checkpointed nodes",
        stats.nodes
    );
}

#[test]
fn a_sequential_operation_retires_without_an_allocation_of_the_checkers() {
    // One client over sixteen keys: every operation is a closed segment of
    // its own, retired on the solo path — the part its key has is found,
    // stepped in place, and nothing is searched (`serve-kv-sequential`
    // lives here, 200,000 times a run).
    let history = kv_stream(1);
    let kv = SeqAsCa::new(KvMapSpec::new());
    let (stats, allocations) = stream_counted(&history, kv, StreamOptions::default(), true);
    assert_eq!((stats.nodes, stats.elements_tried), (0, history.len() as u64 / 2));
    // What is left is the specification's, two an operation: the singleton
    // element's `Vec` and the successor state. The commit before allocated
    // the successor set as well: 19,043 for these 12,680 events, 1.50 an
    // event against 1.00 (12,725: the rest is sixteen parts and the
    // window, once a stream).
    let events = history.len() as u64;
    assert_eq!(events, 12_680);
    assert!(allocations <= events + 64, "{allocations} allocations for {events} events");
}

/// What grows once or twice in a whole stream and never per record: the
/// decoder's table of open invocations, the buffers `Ingest` and the
/// splitter lend and take back.
const ONCE_A_STREAM: u64 = 8;

#[test]
fn a_jepsen_record_costs_nothing_on_its_way_to_the_checker() {
    let history = pipelined_register_history(4_096);
    let text = format_jepsen(&history);
    let records = history.len() as u64;

    let mut splitter = LineSplitter::new();
    let (lines, allocations) = counted(|| {
        let mut n = 0;
        for block in text.as_bytes().chunks(16 * 1024) {
            let mut lines = splitter.split(block);
            while let Some(raw) = lines.next_line() {
                raw.expect("the records are text");
                n += 1;
            }
        }
        n
    });
    assert_eq!(lines, records);
    assert!(allocations <= ONCE_A_STREAM, "splitter: {allocations} allocations");

    // The same history as a kvlog too: an operation a line, both of its
    // actions decoded from it.
    let kvlog = format_kvlog(&history).expect("a register history");
    for (format, wire) in [("jepsen", &text), ("kvlog", &kvlog)] {
        let mut decoder = StreamDecoder::new(None);
        let (items, allocations) = counted(|| {
            let decoded =
                wire.lines().enumerate().map(|(i, line)| decoder.decode_line(i + 1, line));
            decoded.map(|items| items.expect("the records decode").len() as u64).sum::<u64>()
        });
        assert_eq!(items, records, "{format}");
        assert!(
            allocations <= records + ONCE_A_STREAM,
            "{format} decode_line: {allocations} allocations for {records} records"
        );
    }

    // The same actions pushed with no wire in front of them, then the
    // lines through the whole ingest policy.
    let register = || SeqAsCa::new(RegisterSpec::new(O));
    let (_, pushed) = stream_counted(&history, register(), StreamOptions::default(), true);
    let mut ingest = Ingest::new(register(), StreamOptions::default(), None);
    let mut invoked = Vec::new();
    let (verdict, ingested) = counted(|| {
        for line in text.lines() {
            invoked.clear();
            assert_eq!(ingest.line(line, false, &mut invoked), Reply::Admitted);
        }
        ingest.checker.finish()
    });
    assert_eq!(verdict, StreamVerdict::Consistent);
    assert!(
        ingested <= pushed + ONCE_A_STREAM,
        "Ingest::line: {ingested} allocations for {records} records, {pushed} pushing them"
    );
}

#[test]
fn a_method_name_outside_the_vocabulary_is_leaked_once() {
    use cal::core::format::{Format, WireItem};
    use cal::core::text::parse_action_line;
    const LINES: usize = 100_000;

    // `cas` is none of the nine built-in names: the first line interns it,
    // every later one finds it.
    let first = parse_action_line(1, "t0 inv o0.cas 1").unwrap().unwrap().method().0;
    let (_, allocations) = counted(|| {
        for line in 2..=LINES {
            let method = parse_action_line(line, "t0 inv o0.cas 1").unwrap().unwrap().method().0;
            assert!(std::ptr::eq(method, first), "line {line}: a second copy of the name");
        }
    });
    assert_eq!(allocations, 0, "parse_action_line after the first line");

    // The spec language's compiler interns in the same table. A name no
    // parser has seen, compiled twice: the second compile allocates what
    // compiling its twin on a built-in name does, and a trace line that
    // names it afterwards allocates nothing — the table already holds the
    // compiled spec's copy, so the line's `Method` is that very pointer.
    let spec = |method: &str| {
        format!(
            "spec s {{ kind seq; var n: int = 0; rule {method}(a) {{ when a.ret == n; }} \
             complete {method} {{ yield 0; }} }}"
        )
    };
    let (unknown, twin) = (spec("xchg"), spec("push"));
    cal::core::dsl::parse_str(&unknown).unwrap();
    let (_, twin) = counted(|| cal::core::dsl::parse_str(&twin).unwrap());
    let (_, again) = counted(|| cal::core::dsl::parse_str(&unknown).unwrap());
    assert_eq!(again, twin, "a second compile allocates the name again");
    let (line, allocations) = counted(|| parse_action_line(1, "t0 inv o0.xchg 1").unwrap());
    assert_eq!(line.map(|a| a.method().0), Some("xchg"));
    assert_eq!(allocations, 0, "a trace line naming a compiled method leaks it again");

    // The decoders share the table; a line costs them the `Vec` they
    // return and nothing for the name, whichever format spells it.
    let native = ["t0 inv o0.cas 1", "t0 res o0.cas true"];
    let jepsen = [
        "{:process 0, :type :invoke, :f :cas, :value 1}",
        "{:process 0, :type :ok, :f :cas, :value 1}",
    ];
    for (format, pair) in [(Format::Native, native), (Format::Jepsen, jepsen)] {
        let mut decoder = StreamDecoder::new(Some(format));
        let (_, allocations) = counted(|| {
            for line in 0..LINES {
                let items = decoder.decode_line(line + 1, pair[line % 2]).unwrap();
                let [WireItem::Action(action)] = items[..] else { panic!("{format}: {items:?}") };
                assert!(std::ptr::eq(action.method().0, first), "{format}, line {}", line + 1);
            }
        });
        assert!(
            allocations <= LINES as u64 + ONCE_A_STREAM,
            "{format}: {allocations} allocations for {LINES} lines"
        );
    }
}

#[test]
fn a_long_history_is_checked_in_memory_its_concurrency_bounds() {
    // Four clients, three or four operations open at any time: a search
    // node an operation, each a cut of four counts.
    const OPS: u64 = 100_000;
    let history = pipelined_register_history(OPS as usize);
    let register = SeqAsCa::new(RegisterSpec::new(O));
    let start = std::time::Instant::now();
    let (outcome, peak) =
        peak_live(|| check_cal_with(&history, &register, &CheckOptions::default()).unwrap());
    assert!(outcome.verdict.is_cal(), "{:?}", outcome.verdict);
    assert_eq!(outcome.stats.nodes, OPS);
    assert!(peak < 64 * MIB, "{OPS} operations held {} MiB live", peak / MIB);
    if !in_ci() {
        assert!(start.elapsed().as_secs() < 60, "{OPS} operations took {:?}", start.elapsed());
    }
}

#[test]
fn a_history_split_by_object_builds_no_order_of_the_whole() {
    // Sixteen keys, four clients: the check partitions the history's
    // spans by key before any order is built, so it holds sixteen
    // sequential parts' orders and nothing of the whole history's.
    // Building the whole history's order, spans and symmetry classes
    // first held 53.1 MiB live and made 301,895 allocations; projecting
    // the history by key, 42.5 MiB and 201,867; partitioning its spans,
    // 37.4 MiB and 201,057.
    const OPS: u64 = 100_000;
    let history = kv_rounds(OPS as usize);
    let kv = SeqAsCa::new(KvMapSpec::new());
    let ((outcome, allocations), peak) = peak_live(|| {
        counted(|| check_cal_with(&history, &kv, &CheckOptions::default()).unwrap())
    });
    let witness = outcome.verdict.witness().expect("accepted");
    assert_eq!((outcome.stats.nodes, witness.len() as u64), (OPS, OPS));
    assert!(peak < 41 * MIB, "{OPS} operations held {} MiB live", peak / MIB);
    assert!(allocations <= 221_000, "{allocations} allocations for {OPS} operations");
    let explained = witness_explains(&history, &kv, witness);
    assert!(explained, "the merged witness does not explain the history");
}

#[test]
fn a_causal_check_lends_its_order_to_the_search() {
    // Sixty-four sessions taking turns, one write each, chained by
    // declared edges into one total order: a search node an operation.
    // The order keeps two vector clocks of 64 counts a span, 49 MiB in
    // all, built before the check; a check that copied it would hold
    // that much again.
    const OPS: usize = 100_000;
    let mut history = History::new();
    for k in 0..OPS {
        history.push_complete(write_op(O, ThreadId((k % 64) as u32), k as i64 + 1));
    }
    let edges: Vec<(usize, usize)> = (1..OPS).map(|k| (k - 1, k)).collect();
    let hb = HbRelation::causal(&history.spans(), &edges).unwrap();
    assert_eq!(hb.width(), 64);
    let register = SeqAsCa::new(RegisterSpec::new(O));
    let (outcome, peak) = peak_live(|| {
        check_causal_with(&history, &register, &hb, &CheckOptions::default()).unwrap()
    });
    assert!(outcome.verdict.is_cal(), "{:?}", outcome.verdict);
    assert_eq!(outcome.stats.nodes, OPS as u64);
    assert!(peak < 48 * MIB, "a causal check of {OPS} operations held {} MiB", peak / MIB);
}

/// Whether `to` is reachable from `from` along `succs`: the definition of
/// the transitive closure, one search a pair.
fn reachable(succs: &[Vec<usize>], from: usize, to: usize) -> bool {
    let mut seen = vec![false; succs.len()];
    let mut stack = succs[from].clone();
    while let Some(i) = stack.pop() {
        if i == to {
            return true;
        }
        if !std::mem::replace(&mut seen[i], true) {
            stack.extend(&succs[i]);
        }
    }
    false
}

#[test]
fn a_long_causal_order_is_built_in_memory_its_sessions_bound() {
    use rand::{Rng, SeedableRng};
    // Four sessions; every read declares the write it read from (the
    // operation just before it) as a predecessor.
    const OPS: usize = 100_000;
    let spans = pipelined_register_history(OPS).spans();
    let edges: Vec<(usize, usize)> = (1..OPS).step_by(2).map(|read| (read - 1, read)).collect();
    let (hb, peak) = peak_live(|| HbRelation::causal(&spans, &edges).unwrap());
    assert_eq!((hb.len(), hb.width()), (OPS, 4));
    assert!(peak < 32 * MIB, "a causal order over {OPS} operations held {} MiB", peak / MIB);
    // Against the closure by definition, on pairs near and far.
    let mut succs = vec![Vec::new(); OPS];
    for (i, s) in spans.iter().enumerate() {
        if let Some(j) = (i + 1..OPS).find(|&j| spans[j].thread == s.thread) {
            succs[i].push(j);
        }
    }
    edges.iter().for_each(|&(from, to)| succs[from].push(to));
    let rng = &mut rand::rngs::StdRng::seed_from_u64(33);
    let mut ordered = 0;
    for _ in 0..300 {
        let i = rng.gen_range(0..OPS - 1);
        let far = if rng.gen_bool(0.9) { OPS.min(i + 64) } else { OPS };
        let j = rng.gen_range(i + 1..far);
        let precedes = reachable(&succs, i, j);
        assert_eq!(hb.precedes(i, j), precedes, "{i} before {j}");
        assert!(!hb.precedes(j, i), "{j} before {i}: against invocation order");
        ordered += usize::from(precedes);
    }
    assert!((50..250).contains(&ordered), "{ordered} of 300 pairs ordered: a sample worth it");
}
