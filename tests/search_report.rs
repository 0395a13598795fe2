//! The observability layer end to end: a [`CountingSink`] attached to a
//! check produces a [`SearchReport`] with nonzero node/memo counters on
//! real corpus fixtures, every count in the report is the checker's own
//! [`CheckStats`], a sink sees one event per expansion and no other
//! per-node event, and the `cal-check --stats-json` surface emits the
//! same report through the binary.

mod common;

use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

use cal::core::causal::check_causal_with;
use cal::core::check::{check_cal_with, CheckOptions, CheckStats};
use cal::core::history::HbRelation;
use cal::core::obs::{CountingSink, ObjectOutcome, SearchReport, StatsSink};
use cal::core::spec::{CaSpec, PerObject, Searched};
use cal::core::text::parse_history;
use cal::core::{History, ObjectId};
use cal::specs::exchanger::ExchangerSpec;
use common::EventCounter;

/// The exchanger as a `.cal` file: the built-in's spec, which the binary
/// searches, where the built-in is decided by a matching with no node.
const SEARCHED_EXCHANGER: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/specs/exchanger.cal");

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/corpus/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

fn counted_options(sink: &Arc<EventCounter>, threads: usize) -> CheckOptions {
    sink.attach(&CheckOptions { threads, ..CheckOptions::default() })
}

/// The objects `h` touches, in first-use order.
fn objects(h: &History) -> Vec<ObjectId> {
    let mut objects: Vec<ObjectId> = Vec::new();
    for a in h.actions() {
        if !objects.contains(&a.object()) {
            objects.push(a.object());
        }
    }
    objects
}

/// Every count in `report` is `stats`'s.
fn assert_report_counts(report: &SearchReport, stats: &CheckStats) {
    let counts = (report.nodes, report.elements_tried, report.memo_hits, report.memo_misses);
    assert_eq!(counts, (stats.nodes, stats.elements_tried, stats.memo_hits, stats.memo_misses));
    assert_eq!((report.memo_inserts, report.root_workers), (stats.memo_inserts, stats.root_workers));
}

/// The three-way delivery cycle backtracks enough to exercise nodes,
/// elements, frontiers and the memo table in one sequential run.
#[test]
fn sequential_report_counters_are_nonzero_and_consistent() {
    let h = parse_history(&fixture("fig3_three_way_cycle.hist")).unwrap();
    let spec = Searched(ExchangerSpec::new(ObjectId(0)));
    let sink = Arc::new(EventCounter::default());
    let options = counted_options(&sink, 1);
    let start = Instant::now();
    let outcome = check_cal_with(&h, &spec, &options).unwrap();
    let report = sink.inner.report(&outcome, &options, start.elapsed());
    let stats = outcome.stats;

    assert_eq!(report.verdict, "not-cal");
    assert!(report.nodes > 0, "no nodes counted: {report:?}");
    assert!(report.elements_tried > 0);
    assert_report_counts(&report, &stats);
    sink.assert_one_frontier_per_expansion(&stats, "cycle");
    // Every charged node probes the memo exactly once (memoize is on).
    assert_eq!(stats.memo_hits + stats.memo_misses, stats.nodes);
    assert!(stats.memo_inserts > 0, "a refuting search must record failed states");
    assert!(stats.memo_inserts <= stats.memo_misses);
    assert!(report.frontier_max >= 3, "three concurrent ops at the root");
    assert!(report.wall_ms >= 0.0);
}

#[test]
fn parallel_root_report_records_its_workers() {
    // fig1_swap is single-object, so every parallel worker searches its
    // root.
    let h = parse_history(&fixture("fig1_swap.hist")).unwrap();
    let spec = Searched(ExchangerSpec::new(ObjectId(0)));
    let sink = Arc::new(EventCounter::default());
    let options = counted_options(&sink, 4);
    let start = Instant::now();
    let outcome = check_cal_with(&h, &spec, &options).unwrap();
    let report = sink.inner.report(&outcome, &options, start.elapsed());

    assert_eq!(report.verdict, "cal");
    assert!(report.nodes > 0);
    assert_eq!(report.root_workers, 4, "every worker searches the root");
    assert_report_counts(&report, &outcome.stats);
    sink.assert_one_frontier_per_expansion(&outcome.stats, "fig1_swap, 4 threads");
}

/// Decomposition is the input's, not the thread count's: one object row
/// per object at one thread as at four, and the nodes are the sum of the
/// per-object searches.
#[test]
fn decomposed_report_has_one_outcome_per_object() {
    let h = parse_history(&fixture("two_exchangers.hist")).unwrap();
    let objects = objects(&h);
    assert!(objects.len() >= 2, "fixture must span several objects");
    let spec = PerObject::new(
        objects.iter().map(|&o| (o, ExchangerSpec::new(o))).collect::<Vec<_>>(),
    );
    let per_object: u64 = objects
        .iter()
        .map(|&o| {
            let part = spec.restrict(o).expect("restrictable");
            let outcome =
                check_cal_with(&h.project_object(o), &part, &CheckOptions::default()).unwrap();
            outcome.stats.nodes
        })
        .sum();
    for threads in [1, 4] {
        let sink = Arc::new(EventCounter::default());
        let options = counted_options(&sink, threads);
        let start = Instant::now();
        let outcome = check_cal_with(&h, &spec, &options).unwrap();
        let report = sink.inner.report(&outcome, &options, start.elapsed());

        assert_eq!(report.verdict, "cal", "threads={threads}");
        assert_eq!(report.objects.len(), objects.len(), "threads={threads}");
        for object in report.objects {
            assert_eq!(object.outcome, ObjectOutcome::Cal, "o{}", object.object.0);
            assert!(object.wall_ms >= 0.0);
        }
        assert_eq!(outcome.stats.nodes, per_object, "threads={threads}");
        assert_eq!(sink.objects(), objects.len() as u64, "threads={threads}");
        sink.assert_one_frontier_per_expansion(&outcome.stats, "two exchangers");
    }
}

/// Runs one check through `check_cal_with`, or `check_causal_with`
/// under the real-time order (`causal`), with an [`EventCounter`]
/// attached, and holds the sink's events to the outcome's stats: one
/// `on_frontier` per expansion, one `on_object_done` per part, no
/// interrupt. The verdict is the entry point's at one thread, and the
/// root's workers are what `threads` and `memoize` ask for.
fn assert_sink_budget<S: CaSpec>(
    h: &History,
    spec: &S,
    causal: bool,
    options: &CheckOptions,
    parts: usize,
) {
    let (threads, memoize) = (options.threads, options.memoize);
    let what = format!("causal={causal}, threads={threads}, memoize={memoize}, parts={parts}");
    let hb = HbRelation::real_time(&h.spans());
    let check = |options: &CheckOptions| {
        let outcome = if causal {
            check_causal_with(h, spec, &hb, options)
        } else {
            check_cal_with(h, spec, options)
        };
        outcome.unwrap()
    };
    let one = check(&CheckOptions { threads: 1, ..options.clone() }).verdict;
    let sink = Arc::new(EventCounter::default());
    let outcome = check(&sink.attach(options));
    assert_eq!(outcome.verdict.is_cal(), one.is_cal(), "{what}");
    assert_eq!(outcome.verdict.is_undecided(), one.is_undecided(), "{what}");
    let stats = outcome.stats;
    assert!(stats.nodes > 1, "{what}: {stats:?}");
    sink.assert_one_frontier_per_expansion(&stats, &what);
    assert_eq!(sink.objects(), parts as u64, "{what}");
    assert_eq!(sink.interrupts(), 0, "{what}");
    if !memoize {
        assert_eq!((stats.memo_hits, stats.memo_misses, stats.memo_inserts), (0, 0, 0), "{what}");
        assert_eq!(sink.frontiers(), stats.nodes, "{what}");
    } else if threads == 1 {
        assert_eq!(stats.memo_hits + stats.memo_misses, stats.nodes, "{what}: {stats:?}");
    }
    assert!(stats.memo_inserts <= stats.memo_misses, "{what}: {stats:?}");
    // Every entry point above one thread puts workers on a root, and only
    // of a history that does not decompose: all of them when they share a
    // memo, one when they would share nothing.
    let on_root = match (threads > 1 && parts == 0, memoize) {
        (false, _) => 0,
        (true, true) => threads as u64,
        (true, false) => 1,
    };
    assert_eq!(stats.root_workers, on_root, "{what}: {stats:?}");
}

/// The sink's budget: at 1, 2 and 4 threads, through the CAL and the
/// causal entry point, with the memo on and off, a check calls
/// `on_frontier` once per expansion and no other per-node event — on a
/// single-object refutation, whose root every worker searches, and on a
/// history that decomposes by object.
#[test]
fn a_sink_sees_one_frontier_per_expansion_and_no_other_per_node_event() {
    let single = common::identical_exchanges(7, 0);
    let two = parse_history(&fixture("two_exchangers.hist")).unwrap();
    let objects = objects(&two);
    let per_object =
        PerObject::new(objects.iter().map(|&o| (o, ExchangerSpec::new(o))).collect::<Vec<_>>());
    for causal in [false, true] {
        for threads in [1, 2, 4] {
            for memoize in [true, false] {
                let options =
                    CheckOptions { threads, memoize, symmetry: false, ..CheckOptions::default() };
                assert_sink_budget(&single, &Searched(ExchangerSpec::new(ObjectId(0))), causal, &options, 0);
                assert_sink_budget(&two, &per_object, causal, &options, objects.len());
            }
        }
    }
}

/// Minimal JSON shape validation without a JSON parser: balanced braces,
/// the counters present, and numeric fields extractable.
fn json_u64_field(json: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\": ");
    let at = json.find(&pat).unwrap_or_else(|| panic!("missing {key} in {json}"));
    json[at + pat.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("non-numeric {key} in {json}"))
}

#[test]
fn stats_json_flag_emits_nonzero_counters() {
    let exe = env!("CARGO_BIN_EXE_cal-check");
    let fixture_path =
        format!("{}/tests/corpus/fig3_three_way_cycle.hist", env!("CARGO_MANIFEST_DIR"));
    let out_path = std::env::temp_dir().join(format!("cal-check-report-{}.json", std::process::id()));
    let output = Command::new(exe)
        .args(["exchanger", &fixture_path, "--spec", SEARCHED_EXCHANGER, "--stats-json"])
        .arg(&out_path)
        .output()
        .expect("cal-check runs");
    assert_eq!(output.status.code(), Some(1), "cycle fixture is not-cal");
    let json = std::fs::read_to_string(&out_path).expect("report written");
    let _ = std::fs::remove_file(&out_path);

    assert!(json.trim_start().starts_with('{') && json.trim_end().ends_with('}'), "{json}");
    assert!(json.contains("\"verdict\": \"not-cal\""), "{json}");
    assert!(json_u64_field(&json, "nodes") > 0, "{json}");
    assert!(json_u64_field(&json, "elements_tried") > 0, "{json}");
    // The cycle search refutes states, so the memo table sees traffic.
    assert!(json_u64_field(&json, "memo_misses") > 0, "{json}");
    assert!(json_u64_field(&json, "memo_inserts") > 0, "{json}");
}

#[test]
fn stats_json_dash_writes_to_stdout() {
    let exe = env!("CARGO_BIN_EXE_cal-check");
    let fixture_path = format!("{}/tests/corpus/fig1_swap.hist", env!("CARGO_MANIFEST_DIR"));
    let output = Command::new(exe)
        .args(["exchanger", &fixture_path, "--spec", SEARCHED_EXCHANGER, "--stats-json", "-"])
        .output()
        .expect("cal-check runs");
    assert_eq!(output.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&output.stdout);
    let json_line = stdout
        .lines()
        .find(|l| l.trim_start().starts_with('{'))
        .unwrap_or_else(|| panic!("no JSON line in stdout:\n{stdout}"));
    assert!(json_line.contains("\"verdict\": \"cal\""), "{json_line}");
    assert!(json_u64_field(json_line, "nodes") > 0, "{json_line}");
}

#[test]
fn explain_flag_names_the_interrupt_cause() {
    let exe = env!("CARGO_BIN_EXE_cal-check");
    // 13 identical concurrent "successful" exchanges: unsatisfiable and,
    // without symmetry reduction, big enough that a zero deadline always
    // fires at the first poll.
    let mut input = String::new();
    for t in 1..=13 {
        input.push_str(&format!("t{t} inv o0.exchange 0\n"));
    }
    for t in 1..=13 {
        input.push_str(&format!("t{t} res o0.exchange (true,0)\n"));
    }
    let mut child = Command::new(exe)
        .args(["exchanger", "-", "--spec", SEARCHED_EXCHANGER])
        .args(["--deadline-ms", "0", "--explain", "--no-symmetry"])
        .stdin(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("cal-check spawns");
    use std::io::Write;
    child.stdin.take().expect("stdin piped").write_all(input.as_bytes()).expect("write stdin");
    let output = child.wait_with_output().expect("cal-check runs");
    assert_eq!(output.status.code(), Some(2), "deadline-interrupted check is undecided");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("deadline-exceeded"), "explain must name the cause:\n{stderr}");
}

#[test]
fn report_survives_a_quiet_run_without_sink_events() {
    // An empty history decides at the root: the report must stay coherent
    // (no divide-by-zero in frontier_mean, valid JSON) with zero events.
    let h = parse_history("").unwrap();
    let spec = Searched(ExchangerSpec::new(ObjectId(0)));
    let sink = Arc::new(CountingSink::new());
    let sink_dyn = Arc::clone(&sink) as Arc<dyn StatsSink>;
    let options = CheckOptions { sink: Some(sink_dyn), ..CheckOptions::default() };
    let start = Instant::now();
    let outcome = check_cal_with(&h, &spec, &options).unwrap();
    let report: SearchReport = sink.report(&outcome, &options, start.elapsed());
    assert_eq!(report.verdict, "cal");
    assert_eq!(report.frontier_mean, 0.0);
    assert!(report.to_json().contains("\"nodes\": 0"));
    assert!(!report.explain().is_empty());
}
