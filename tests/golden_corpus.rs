//! Golden verdict corpus: every fixture under `tests/corpus/` (walked
//! recursively — native `.hist` histories next to foreign `.jepsen` and
//! `.kvlog` traces) carries a `# spec:` and `# expect:` header. For each
//! fixture this test parses the history in its format, runs the
//! sequential checker and the parallel checker at 1, 2, 4 and 8 threads,
//! and asserts the verdict matches the recorded expectation (validating
//! the witness whenever the verdict is CAL). Fixtures whose spec the
//! `cal-check` binary knows are additionally run through the binary in
//! every supported `--mode`, pinning the documented exit code. The
//! fixtures under `tests/corpus/interval/` name the interval-native
//! `write-snapshot`: their verdicts are interval-linearizability's, and
//! an accepted witness must replay under `tests/common`'s reference.
//!
//! Expectations: `cal` (accepted, exit 0), `not-cal` (rejected, exit 1),
//! `undecided` (budget exhausted under the fixture's `# max-nodes:`,
//! exit 2) and `error` (the file must fail to parse with a line-anchored
//! diagnostic, exit 3).
//!
//! Fixtures under `tests/corpus/causal/` carry causality metadata
//! (kvlog `hb` lines) and an optional `# expect-causal:` header: the
//! `--mode causal` verdict when it differs from the CAL one. Every
//! fixture with a binary-known spec — annotated or not — is also run
//! through `cal-check --mode causal`; unannotated fixtures fall back to
//! the real-time order and so double as the differential anchor (causal
//! must equal CAL), while annotated ones pin genuine divergences, the
//! flagship being a store-buffering reordering CAL rejects and causal
//! mode explains.
//!
//! A second corpus under `tests/corpus/dsl/` holds malformed `.cal` spec
//! files. Each carries `# expect-code:`, `# expect-line:`, `# expect-col:`
//! and `# expect-message:` headers pinning the diagnostic the DSL
//! front-end must produce, both through the library ([`dsl::parse_str`])
//! and through `cal-check --spec` (exit 3, code and position on stderr).
//! Finally, the shipped `specs/*.cal` programs are replayed over every
//! history fixture their family owns and must land on the same exit code
//! as the built-in Rust spec they mirror.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use cal::core::causal::{
    causal_order, check_causal_with, witness_explains_causal,
};
use cal::core::check::{check_cal_with, witness_explains, CheckOptions, Verdict};
use cal::core::dsl;
use cal::core::format::{parse_annotated, Format};
use cal::core::history::HbRelation;
use cal::core::interval::IntervalSpec;
use cal::core::spec::{CaSpec, PerObject, SeqAsCa};
use cal::core::{History, ObjectId};
use cal::specs::dual_stack::DualStackSpec;
use cal::specs::elim_array::ElimArraySpec;
use cal::specs::exchanger::ExchangerSpec;
use cal::specs::kv::KvMapSpec;
use cal::specs::register::{CounterSpec, RegisterSpec};
use cal::specs::registry::run_interval;
use cal::specs::snapshot::WriteSnapshotSpec;
use cal::specs::stack::StackSpec;
use cal::specs::sync_queue::SyncQueueSpec;

mod common;

const O: ObjectId = ObjectId(0);
const O1: ObjectId = ObjectId(1);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    Cal,
    NotCal,
    Undecided,
    Error,
}

impl Expect {
    fn exit_code(self) -> i32 {
        match self {
            Expect::Cal => 0,
            Expect::NotCal => 1,
            Expect::Undecided => 2,
            Expect::Error => 3,
        }
    }
}

struct Fixture {
    name: String,
    path: PathBuf,
    spec: String,
    expect: Expect,
    /// The `--mode causal` expectation when it differs from `expect`
    /// (`# expect-causal:` header); divergence requires causality
    /// metadata, since unannotated traces check under the real-time
    /// order on which the modes agree by construction.
    expect_causal: Option<Expect>,
    format: Format,
    max_nodes: Option<u64>,
    /// Parsed history; `None` for `expect: error` fixtures (whose whole
    /// point is that parsing fails).
    history: Option<History>,
    /// Declared happens-before edges; `Some` iff the trace carries
    /// causality metadata (kvlog `hb` lines).
    hb_edges: Option<Vec<(usize, usize)>>,
}

impl Fixture {
    /// The expected `--mode causal` verdict.
    fn causal_expect(&self) -> Expect {
        self.expect_causal.unwrap_or(self.expect)
    }
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = fs::read_dir(dir).unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()));
    for entry in entries {
        let path = entry.unwrap().path();
        if path.is_dir() {
            walk(&path, out);
        } else if path.extension().is_some_and(|x| x == "hist" || x == "jepsen" || x == "kvlog") {
            out.push(path);
        }
    }
}

fn load_corpus() -> Vec<Fixture> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut paths = Vec::new();
    walk(&dir, &mut paths);
    paths.sort();
    let mut fixtures = Vec::new();
    for path in paths {
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let format = match path.extension().unwrap().to_str().unwrap() {
            "hist" => Format::Native,
            "jepsen" => Format::Jepsen,
            "kvlog" => Format::KvLog,
            other => panic!("{name}: unmapped extension {other:?}"),
        };
        let text = fs::read_to_string(&path).unwrap();
        let parse_expect = |rest: &str| match rest.trim() {
            "cal" => Expect::Cal,
            "not-cal" => Expect::NotCal,
            "undecided" => Expect::Undecided,
            "error" => Expect::Error,
            other => panic!("{name}: unknown expectation {other:?}"),
        };
        let (mut spec, mut expect, mut expect_causal, mut max_nodes) = (None, None, None, None);
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# spec:") {
                spec = Some(rest.trim().to_string());
            } else if let Some(rest) = line.strip_prefix("# expect-causal:") {
                expect_causal = Some(parse_expect(rest));
            } else if let Some(rest) = line.strip_prefix("# expect:") {
                expect = Some(parse_expect(rest));
            } else if let Some(rest) = line.strip_prefix("# max-nodes:") {
                max_nodes = Some(rest.trim().parse().unwrap_or_else(|e| {
                    panic!("{name}: bad max-nodes header: {e}")
                }));
            }
        }
        let expect = expect.unwrap_or_else(|| panic!("{name}: missing `# expect:` header"));
        let (history, hb_edges) = match parse_annotated(format, &text) {
            Ok(a) => {
                assert_ne!(
                    expect,
                    Expect::Error,
                    "{name}: expected a parse error, but the file parsed"
                );
                (Some(a.history), a.hb_edges)
            }
            Err(e) => {
                assert_eq!(expect, Expect::Error, "{name}: parse error: {e}");
                assert!(e.line > 0, "{name}: parse diagnostic must be line-anchored: {e}");
                (None, None)
            }
        };
        if expect_causal.is_some_and(|c| c != expect) {
            assert!(
                hb_edges.is_some(),
                "{name}: a divergent `# expect-causal:` needs causality metadata — \
                 unannotated traces check under real time, where the modes agree"
            );
        }
        fixtures.push(Fixture {
            spec: spec.unwrap_or_else(|| panic!("{name}: missing `# spec:` header")),
            expect,
            expect_causal,
            format,
            max_nodes,
            name,
            path,
            history,
            hb_edges,
        });
    }
    fixtures
}

/// Runs one fixture against `spec`, sequentially and in parallel.
fn run_fixture<S: CaSpec>(fx: &Fixture, spec: &S) {
    let Some(history) = &fx.history else { return };
    let check = |label: &str, verdict: &Verdict| match (fx.expect, verdict) {
        (Expect::Cal, Verdict::Cal(w)) => {
            assert!(
                witness_explains(history, spec, w),
                "{}: {label} produced an invalid witness {w}",
                fx.name
            );
        }
        (Expect::NotCal, Verdict::NotCal) => {}
        (Expect::Undecided, Verdict::ResourcesExhausted) => {}
        (want, got) => panic!("{}: {label} returned {got:?}, expected {want:?}", fx.name),
    };
    let mut options = CheckOptions::default();
    if let Some(n) = fx.max_nodes {
        options.max_nodes = n;
    }
    let seq = check_cal_with(history, spec, &options)
        .unwrap_or_else(|e| panic!("{}: sequential checker errored: {e}", fx.name));
    check("sequential", &seq.verdict);
    for threads in [1usize, 2, 4, 8] {
        let par_options = CheckOptions { threads, ..options.clone() };
        let par = check_cal_with(history, spec, &par_options)
            .unwrap_or_else(|e| panic!("{}: parallel checker errored: {e}", fx.name));
        check(&format!("parallel({threads})"), &par.verdict);
    }
}

/// Runs one fixture against an interval-native spec, sequentially and in
/// parallel; an accepted witness must replay under the reference.
fn run_interval_fixture<S: IntervalSpec>(fx: &Fixture, spec: &S) {
    let Some(history) = &fx.history else { return };
    for threads in [1usize, 2, 4, 8] {
        let options = CheckOptions { threads, ..CheckOptions::default() };
        let outcome = run_interval(history, spec, &options)
            .unwrap_or_else(|e| panic!("{}: interval checker errored: {e}", fx.name));
        match (fx.expect, &outcome.verdict) {
            (Expect::Cal, Verdict::Cal(w)) => {
                if let Err(e) = common::replay_interval(spec, history, w) {
                    panic!("{}: threads={threads} produced a witness that does not replay: {e}", fx.name);
                }
            }
            (Expect::NotCal, Verdict::NotCal) => {}
            (want, got) => {
                panic!("{}: threads={threads} returned {got:?}, expected {want:?}", fx.name)
            }
        }
    }
}

/// Runs one fixture in causal mode: the happens-before order is the
/// declared edges when the trace is annotated and the real-time order
/// otherwise (the binary's `--hb auto` policy), and the expected verdict
/// is [`Fixture::causal_expect`].
fn run_causal_fixture<S: CaSpec>(fx: &Fixture, spec: &S) {
    let Some(history) = &fx.history else { return };
    let hb = match &fx.hb_edges {
        Some(edges) => causal_order(history, edges)
            .unwrap_or_else(|e| panic!("{}: declared edges must build: {e}", fx.name)),
        None => HbRelation::real_time(&history.spans()),
    };
    let expect = fx.causal_expect();
    let check = |label: &str, verdict: &Verdict| match (expect, verdict) {
        (Expect::Cal, Verdict::Cal(w)) => {
            assert!(
                witness_explains_causal(history, spec, w, &hb),
                "{}: {label} produced an invalid causal witness {w}",
                fx.name
            );
        }
        (Expect::NotCal, Verdict::NotCal) => {}
        (Expect::Undecided, Verdict::ResourcesExhausted) => {}
        (want, got) => panic!("{}: {label} returned {got:?}, expected {want:?}", fx.name),
    };
    let mut options = CheckOptions::default();
    if let Some(n) = fx.max_nodes {
        options.max_nodes = n;
    }
    let seq = check_causal_with(history, spec, &hb, &options)
        .unwrap_or_else(|e| panic!("{}: sequential causal checker errored: {e}", fx.name));
    check("causal sequential", &seq.verdict);
    for threads in [2usize, 4, 8] {
        let par_options = CheckOptions { threads, ..options.clone() };
        let par = check_causal_with(history, spec, &hb, &par_options)
            .unwrap_or_else(|e| panic!("{}: parallel causal checker errored: {e}", fx.name));
        check(&format!("causal parallel({threads})"), &par.verdict);
    }
}

/// How a fixture is checked against its (generically typed) spec —
/// implemented once for CAL mode and once for causal mode so the
/// spec-name dispatch below is written a single time.
trait FixtureRunner {
    fn run<S: CaSpec>(&self, fx: &Fixture, spec: &S);

    /// An interval-native spec, which has an interval reading only.
    fn run_interval<S: IntervalSpec>(&self, fx: &Fixture, spec: &S) {
        let _ = (fx, spec);
    }
}

struct CalRunner;

impl FixtureRunner for CalRunner {
    fn run<S: CaSpec>(&self, fx: &Fixture, spec: &S) {
        run_fixture(fx, spec);
    }

    fn run_interval<S: IntervalSpec>(&self, fx: &Fixture, spec: &S) {
        run_interval_fixture(fx, spec);
    }
}

struct CausalRunner;

impl FixtureRunner for CausalRunner {
    fn run<S: CaSpec>(&self, fx: &Fixture, spec: &S) {
        run_causal_fixture(fx, spec);
    }
}

fn dispatch(fx: &Fixture, runner: &impl FixtureRunner) {
    match fx.spec.as_str() {
        "exchanger" => runner.run(fx, &ExchangerSpec::new(O)),
        "elim-array" => runner.run(fx, &ElimArraySpec::new(O)),
        "sync-queue" => runner.run(fx, &SyncQueueSpec::new(O)),
        "dual-stack" => runner.run(fx, &DualStackSpec::with_timeouts(O)),
        "stack" => runner.run(fx, &SeqAsCa::new(StackSpec::total(O))),
        "register" => runner.run(fx, &SeqAsCa::new(RegisterSpec::new(O))),
        "counter" => runner.run(fx, &SeqAsCa::new(CounterSpec::new(O))),
        "kv" => runner.run(fx, &SeqAsCa::new(KvMapSpec::new())),
        // As `cal-check` serves it: unbounded.
        "write-snapshot" => runner.run_interval(fx, &WriteSnapshotSpec::new(O, usize::MAX)),
        "two-exchangers" => runner.run(
            fx,
            &PerObject::new(vec![(O, ExchangerSpec::new(O)), (O1, ExchangerSpec::new(O1))]),
        ),
        other => panic!("{}: no spec named {other:?}", fx.name),
    }
}

/// The `--mode`s the `cal-check` binary supports for each spec name;
/// empty for specs only the in-process harness knows.
fn binary_modes(spec: &str) -> &'static [&'static str] {
    match spec {
        "exchanger" | "elim-array" | "sync-queue" | "dual-stack" => &["cal"],
        "stack" | "register" | "counter" | "kv" => &["cal", "seq", "interval"],
        "write-snapshot" => &["interval"],
        _ => &[],
    }
}

fn format_flag(format: Format) -> &'static str {
    match format {
        Format::Native => "native",
        Format::Jepsen => "jepsen",
        Format::KvLog => "kvlog",
    }
}

#[test]
fn corpus_verdicts_match_golden_expectations() {
    let fixtures = load_corpus();
    assert!(
        fixtures.len() >= 20,
        "corpus shrank to {} fixtures; expected at least 20",
        fixtures.len()
    );
    for fx in &fixtures {
        dispatch(fx, &CalRunner);
    }
}

/// Every fixture again in causal mode: annotated traces check under
/// their declared order against `# expect-causal:` (defaulting to
/// `# expect:`), unannotated ones under real time — where the causal
/// verdict must equal the CAL verdict, fixture by fixture.
#[test]
fn causal_corpus_verdicts_match_golden_expectations() {
    let fixtures = load_corpus();
    for fx in &fixtures {
        dispatch(fx, &CausalRunner);
    }
    // The causal corpus must keep its divergence coverage: at least one
    // reordering witness causal mode accepts and CAL mode rejects, and
    // at least one annotated trace whose declared edges *restore* a
    // rejection — relaxation is a choice, not a foregone conclusion.
    let divergent = fixtures
        .iter()
        .any(|f| f.expect == Expect::NotCal && f.causal_expect() == Expect::Cal);
    assert!(divergent, "no fixture diverges: causal-accepts vs CAL-rejects is the point");
    let annotated_reject = fixtures.iter().any(|f| {
        f.hb_edges.as_ref().is_some_and(|e| !e.is_empty()) && f.causal_expect() == Expect::NotCal
    });
    assert!(annotated_reject, "no annotated fixture keeps its rejection under declared edges");
}

/// Every fixture with a binary-known spec lands on its documented exit
/// code through `cal-check`, in every mode that spec supports, with the
/// format given explicitly.
#[test]
fn corpus_exit_codes_match_through_the_binary() {
    let exe = env!("CARGO_BIN_EXE_cal-check");
    for fx in &load_corpus() {
        for mode in binary_modes(&fx.spec) {
            let mut cmd = Command::new(exe);
            cmd.args(["--mode", mode, "--format", format_flag(fx.format)]);
            if let Some(n) = fx.max_nodes {
                cmd.args(["--max-nodes", &n.to_string()]);
            }
            let out = cmd
                .arg(&fx.spec)
                .arg(&fx.path)
                .output()
                .unwrap_or_else(|e| panic!("{}: cannot run cal-check: {e}", fx.name));
            assert_eq!(
                out.status.code(),
                Some(fx.expect.exit_code()),
                "{} --mode {mode}: stderr: {}",
                fx.name,
                String::from_utf8_lossy(&out.stderr)
            );
            if fx.expect == Expect::Error {
                let stderr = String::from_utf8_lossy(&out.stderr);
                assert!(
                    stderr.contains("line "),
                    "{} --mode {mode}: error diagnostics must name the line: {stderr}",
                    fx.name
                );
            }
        }
    }
}

#[test]
fn corpus_covers_both_verdict_classes_per_spec_family() {
    // Guard against a corpus that only exercises one side of a spec:
    // the exchanger family must have both CAL and not-CAL fixtures.
    let fixtures = load_corpus();
    let cal = fixtures.iter().any(|f| f.spec == "exchanger" && f.expect == Expect::Cal);
    let not = fixtures.iter().any(|f| f.spec == "exchanger" && f.expect == Expect::NotCal);
    assert!(cal && not, "exchanger fixtures must cover both verdicts");
}

/// The same fixtures through `cal-check --mode causal` (default
/// `--hb auto`): annotated traces land on their `# expect-causal:` exit
/// code, unannotated ones on the CAL exit code — the differential
/// anchor, pinned end to end through the binary.
#[test]
fn corpus_exit_codes_match_in_causal_mode() {
    let exe = env!("CARGO_BIN_EXE_cal-check");
    for fx in &load_corpus() {
        if !binary_modes(&fx.spec).contains(&"cal") {
            continue;
        }
        let mut cmd = Command::new(exe);
        cmd.args(["--mode", "causal", "--format", format_flag(fx.format)]);
        if let Some(n) = fx.max_nodes {
            cmd.args(["--max-nodes", &n.to_string()]);
        }
        let out = cmd
            .arg(&fx.spec)
            .arg(&fx.path)
            .output()
            .unwrap_or_else(|e| panic!("{}: cannot run cal-check: {e}", fx.name));
        assert_eq!(
            out.status.code(),
            Some(fx.causal_expect().exit_code()),
            "{} --mode causal: stderr: {}",
            fx.name,
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

/// A malformed-spec fixture from `tests/corpus/dsl/`: the `.cal` source
/// plus the diagnostic it must produce.
struct DslFixture {
    name: String,
    path: PathBuf,
    text: String,
    code: String,
    line: u32,
    col: u32,
    message: String,
}

fn load_dsl_corpus() -> Vec<DslFixture> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/dsl");
    let mut paths: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "cal"))
        .collect();
    paths.sort();
    let mut fixtures = Vec::new();
    for path in paths {
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let text = fs::read_to_string(&path).unwrap();
        let header = |key: &str| -> Option<String> {
            text.lines()
                .find_map(|l| l.strip_prefix(&format!("# {key}:")))
                .map(|rest| rest.trim().to_string())
        };
        let required =
            |key: &str| header(key).unwrap_or_else(|| panic!("{name}: missing `# {key}:` header"));
        fixtures.push(DslFixture {
            code: required("expect-code"),
            line: required("expect-line").parse().unwrap(),
            col: required("expect-col").parse().unwrap(),
            message: required("expect-message"),
            name,
            path,
            text,
        });
    }
    fixtures
}

/// Every malformed `.cal` fixture fails compilation with exactly the
/// pinned diagnostic code, position and message substring — and the
/// corpus covers every diagnostic code the DSL defines, so no code can
/// be added without a fixture demonstrating it.
#[test]
fn dsl_corpus_diagnostics_pin_code_and_position() {
    let fixtures = load_dsl_corpus();
    let mut covered = std::collections::HashSet::new();
    for fx in &fixtures {
        let diag = dsl::parse_str(&fx.text)
            .err()
            .unwrap_or_else(|| panic!("{}: expected a diagnostic, but the file compiled", fx.name));
        assert_eq!(diag.code.as_str(), fx.code, "{}: wrong code: {diag}", fx.name);
        assert_eq!((diag.line, diag.col), (fx.line, fx.col), "{}: wrong position: {diag}", fx.name);
        assert!(
            diag.message.contains(&fx.message),
            "{}: message {:?} does not contain {:?}",
            fx.name,
            diag.message,
            fx.message
        );
        covered.insert(fx.code.clone());
    }
    for code in dsl::DiagCode::ALL {
        assert!(
            covered.contains(code.as_str()),
            "no tests/corpus/dsl/ fixture triggers {}",
            code.as_str()
        );
    }
}

/// The same fixtures through the binary: `cal-check --spec bad.cal` must
/// exit 3 before reading any input, printing the pinned code and position.
#[test]
fn dsl_corpus_diagnostics_through_the_binary() {
    let exe = env!("CARGO_BIN_EXE_cal-check");
    for fx in &load_dsl_corpus() {
        let out = Command::new(exe)
            .arg("--spec")
            .arg(&fx.path)
            .arg("-")
            .stdin(std::process::Stdio::null())
            .output()
            .unwrap_or_else(|e| panic!("{}: cannot run cal-check: {e}", fx.name));
        assert_eq!(
            out.status.code(),
            Some(3),
            "{}: stderr: {}",
            fx.name,
            String::from_utf8_lossy(&out.stderr)
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        let want = format!("error[{}]", fx.code);
        assert!(stderr.contains(&want), "{}: stderr lacks {want}: {stderr}", fx.name);
        let pos = format!("(line {}, column {})", fx.line, fx.col);
        assert!(stderr.contains(&pos), "{}: stderr lacks {pos}: {stderr}", fx.name);
    }
}

/// The history-fixture spec names that have a shipped `.cal` counterpart:
/// `(corpus spec, .cal file, DSL spec name)`.
const SHIPPED_DSL: &[(&str, &str, &str)] = &[
    ("exchanger", "specs/exchanger.cal", "exchanger"),
    ("sync-queue", "specs/sync_queue.cal", "sync_queue"),
    ("stack", "specs/stack.cal", "stack"),
    ("register", "specs/register.cal", "register"),
    ("counter", "specs/counter.cal", "counter"),
];

/// Replaying the verdict corpus through `cal-check --spec` with the
/// shipped DSL programs lands on the same exit code as the built-in
/// specs, in every mode the built-in supports (DSL seq specs support
/// all three modes; DSL ca specs are cal-only, like their built-ins).
#[test]
fn dsl_specs_match_builtins_on_golden_corpus() {
    let exe = env!("CARGO_BIN_EXE_cal-check");
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut replayed = 0;
    for fx in &load_corpus() {
        let Some((_, cal_file, dsl_name)) =
            SHIPPED_DSL.iter().find(|(spec, _, _)| *spec == fx.spec)
        else {
            continue;
        };
        for mode in binary_modes(&fx.spec) {
            let mut cmd = Command::new(exe);
            cmd.args(["--mode", mode, "--format", format_flag(fx.format)]);
            cmd.arg("--spec").arg(root.join(cal_file));
            if let Some(n) = fx.max_nodes {
                cmd.args(["--max-nodes", &n.to_string()]);
            }
            let out = cmd
                .arg(dsl_name)
                .arg(&fx.path)
                .output()
                .unwrap_or_else(|e| panic!("{}: cannot run cal-check: {e}", fx.name));
            assert_eq!(
                out.status.code(),
                Some(fx.expect.exit_code()),
                "{} --mode {mode} via {cal_file}: stderr: {}",
                fx.name,
                String::from_utf8_lossy(&out.stderr)
            );
            replayed += 1;
        }
    }
    assert!(replayed >= 15, "only {replayed} corpus runs were replayed through the DSL");
}

/// The foreign corpus keeps its guaranteed coverage: at least a dozen
/// verdict fixtures across both foreign formats, both verdict classes,
/// plus malformed and budget-bounded entries.
#[test]
fn foreign_corpus_covers_formats_verdicts_and_failure_classes() {
    let fixtures = load_corpus();
    let foreign: Vec<_> = fixtures
        .iter()
        .filter(|f| f.path.parent().unwrap().file_name().unwrap() == "foreign")
        .collect();
    let verdicts = foreign
        .iter()
        .filter(|f| matches!(f.expect, Expect::Cal | Expect::NotCal | Expect::Undecided))
        .count();
    assert!(verdicts >= 12, "foreign corpus needs at least 12 verdict fixtures, has {verdicts}");
    assert!(foreign.iter().any(|f| f.format == Format::Jepsen), "no jepsen fixture");
    assert!(foreign.iter().any(|f| f.format == Format::KvLog), "no kvlog fixture");
    assert!(foreign.iter().any(|f| f.expect == Expect::Cal), "no accepted foreign trace");
    assert!(foreign.iter().any(|f| f.expect == Expect::NotCal), "no rejected foreign trace");
    assert!(foreign.iter().any(|f| f.expect == Expect::Undecided), "no undecided foreign trace");
    assert!(foreign.iter().any(|f| f.expect == Expect::Error), "no malformed foreign trace");
}
