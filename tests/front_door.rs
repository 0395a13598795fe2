//! The front door, from outside: `cal-check`, `cal-serve` and
//! `chaos-soak` name, gate and resolve specifications the way the one
//! table in `cal_specs::registry` says — and say so in their `--help`.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

use cal::chaos::driver::{Mode, TargetKind};
use cal::chaos::Profile;
use cal::core::spec::CaSpec;
use cal::core::{CaElement, Method, ObjectId, Operation, ThreadId, Value};
use cal::specs::registry::{self, CheckMode, Selected, Visitor, BUILTINS};

const CHECK: &str = env!("CARGO_BIN_EXE_cal-check");
const SERVE: &str = env!("CARGO_BIN_EXE_cal-serve");
const SOAK: &str = env!("CARGO_BIN_EXE_chaos-soak");

fn run(exe: &str, args: &[&str], stdin: &str) -> Output {
    let mut child = Command::new(exe)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("{exe} spawns: {e}"));
    // A binary that rejects its command line exits without reading.
    let _ = child.stdin.take().expect("stdin piped").write_all(stdin.as_bytes());
    child.wait_with_output().expect("binary exits")
}

fn code(exe: &str, args: &[&str], stdin: &str) -> i32 {
    let out = run(exe, args, stdin);
    out.status.code().unwrap_or_else(|| panic!("{exe} {args:?} died on a signal"))
}

/// A scratch directory of `.cal` files and traces, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("front-door-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        Scratch(dir)
    }

    fn file(&self, name: &str, text: &str) -> String {
        let path = self.0.join(name);
        std::fs::write(&path, text).expect("write fixture");
        path.to_str().expect("utf-8 temp path").to_string()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn shipped(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("specs").join(name);
    std::fs::read_to_string(path).expect("shipped spec")
}

/// (a) Every built-in under every `--mode`: a usage error exactly where
/// the table says the pairing has no reading, and otherwise a verdict
/// about the property `Selected::adjective` names. Two pending
/// invocations are explainable by every specification (both are dropped),
/// so every supported pairing accepts.
#[test]
fn every_builtin_in_every_mode_is_gated_and_named_by_the_table() {
    let pending = "t1 inv o0.read ()\nt2 inv o0.read ()\n";
    for (name, kind) in BUILTINS {
        let selected = Selected::builtin(name).expect("a BUILTINS row");
        for (flag, mode) in CheckMode::ALL {
            let out = run(CHECK, &[name, "-", "--mode", flag], pending);
            let stdout = String::from_utf8_lossy(&out.stdout);
            if kind.supports(mode) {
                assert_eq!(out.status.code(), Some(0), "{name} --mode {flag}: {stdout}");
                let verdict = format!("{}: yes", selected.adjective(mode));
                assert_eq!(stdout.lines().next(), Some(verdict.as_str()), "{name} --mode {flag}");
            } else {
                assert_eq!(out.status.code(), Some(4), "{name} --mode {flag}: {stdout}");
            }
        }
    }
}

/// The `"--flag"` string literals of a binary's source: the arms of its
/// argument parser (but for `--help`, which is how the text is asked for).
fn parser_flags(source: &str) -> Vec<&str> {
    let mut flags: Vec<&str> = source
        .split('"')
        .filter(|s| s.len() > 2 && s.starts_with("--") && *s != "--help")
        .filter(|s| s[2..].bytes().all(|b| b.is_ascii_lowercase() || b == b'-'))
        .collect();
    flags.sort_unstable();
    flags.dedup();
    flags
}

/// The values `help` lists, `|`-separated, on its line labelled `label`.
fn listed<'a>(help: &'a str, label: &str) -> Vec<&'a str> {
    let line = help.lines().find_map(|l| l.strip_prefix(label)).unwrap_or_default();
    line.split('|').map(str::trim).collect()
}

/// (b) `--help` is keyed to the registry, to the chaos tables and to the
/// parser, not to a pasted string: it names every built-in the binary
/// serves, exactly the chaos targets and profiles and every scheduling
/// model (on the two binaries that run chaos workloads), and every flag
/// the parser has an arm for — and so does the module documentation.
#[test]
fn help_names_every_served_builtin_and_every_flag() {
    // Per binary: the built-ins it serves, the fewest flags its parser
    // must show, and the labels of its chaos target and profile lines.
    let cal = Some(CheckMode::Cal);
    let binaries = [
        (CHECK, include_str!("../src/bin/cal-check.rs"), None, 18, Some(("T:", "PROFILE:"))),
        (SERVE, include_str!("../src/bin/cal-serve.rs"), cal, 15, None),
        (SOAK, include_str!("../src/bin/chaos-soak.rs"), cal, 12, Some(("T:", "P:"))),
    ];
    for (exe, source, serves, at_least, chaos) in binaries {
        let out = run(exe, &["--help"], "");
        assert_eq!(out.status.code(), Some(4), "{exe} --help is the usage exit");
        let help = String::from_utf8_lossy(&out.stderr);
        let words: Vec<&str> =
            help.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')).collect();
        for (name, kind) in BUILTINS {
            let served = serves.is_none_or(|mode| kind.supports(mode));
            assert_eq!(words.contains(&name), served, "{exe} --help and built-in {name}");
        }
        if let Some((targets, profiles)) = chaos {
            // `all` is chaos-soak's extra target value, not a target.
            let mut listed_targets = listed(&help, targets);
            listed_targets.retain(|t| *t != "all");
            assert_eq!(listed_targets, TargetKind::ALL.map(TargetKind::name), "{exe} --help");
            assert_eq!(listed(&help, profiles), Profile::ALL.map(Profile::name), "{exe} --help");
        }
        for mode in Mode::ALL {
            assert_eq!(words.contains(&mode.name()), chaos.is_some(), "{exe} --help and {mode}");
        }
        let flags = parser_flags(source);
        assert!(flags.len() >= at_least, "{exe}: found only {flags:?} in the parser");
        let module_doc: String = source.lines().filter(|l| l.starts_with("//!")).collect();
        for flag in flags {
            assert!(words.contains(&flag), "{exe} --help omits {flag}");
            assert!(module_doc.contains(flag), "{exe}'s module documentation omits {flag}");
        }
    }
}

/// A register that starts at 7: `read -> 7` tells it from the built-in.
const REGISTER_FROM_SEVEN: &str = "spec register { kind seq; var val: int = 7; \
     rule write(a) { when a.ret == unit; effect val = a.arg; } \
     rule read(a) { when a.ret == val; } \
     complete write { yield unit; } complete read { yield 7; } }";
const READS_SEVEN: &str = "t1 inv o0.read ()\nt1 res o0.read 7\n";
const READS_ZERO: &str = "t1 inv o0.read ()\nt1 res o0.read 0\n";
/// Fig. 1's swap: two overlapping exchanges of 3 and 4.
const SWAP: &str = "t1 inv o0.exchange 3\nt2 inv o0.exchange 4\n\
     t1 res o0.exchange (true,4)\nt2 res o0.exchange (true,3)\n";

/// (c) The resolution matrix on `cal-check` and `cal-serve`, which spell
/// the name as the positional SPEC: exit 0 and 1 tell which spec judged
/// the trace.
#[test]
fn check_and_serve_resolve_by_one_rule() {
    let dir = Scratch::new("resolve");
    let one = dir.file("one.cal", REGISTER_FROM_SEVEN);
    let two = dir.file("two.cal", &format!("{REGISTER_FROM_SEVEN}\n{}", shipped("counter.cal")));
    let broken = dir.file("broken.cal", "spec broken { kind ca\n");
    let seven = dir.file("seven.hist", READS_SEVEN);
    let zero = dir.file("zero.hist", READS_ZERO);

    // cal-check reads a file; cal-serve reads the same lines on stdin.
    let both = |spec_args: &[&str], trace: &str, want: i32, what: &str| {
        let path = if trace == READS_SEVEN { &seven } else { &zero };
        let check: Vec<&str> = spec_args.iter().copied().chain([path.as_str()]).collect();
        assert_eq!(code(CHECK, &check, ""), want, "cal-check, {what}");
        let serve: Vec<&str> = spec_args.iter().copied().chain(["--quiet"]).collect();
        assert_eq!(code(SERVE, &serve, trace), want, "cal-serve, {what}");
    };
    both(&["register"], READS_ZERO, 0, "a built-in");
    both(&["register"], READS_SEVEN, 1, "a built-in");
    both(&["--spec", &two, "counter"], READS_ZERO, 1, "a loaded name (no `read` rule)");
    both(&["--spec", &two, "register"], READS_SEVEN, 0, "a loaded name shadows the built-in");
    both(&["--spec", &two, "register"], READS_ZERO, 1, "a loaded name shadows the built-in");
    both(&["--spec", &one], READS_SEVEN, 0, "a one-spec file needs no name");
    both(&["--spec", &two, "kv"], READS_ZERO, 0, "a name the file lacks falls back");
    both(&["--spec", &two], READS_ZERO, 4, "a multi-spec file with no name");
    both(&["--spec", &two, "nope"], READS_ZERO, 4, "a name nobody defines");
    both(&["nope"], READS_ZERO, 4, "a name nobody defines");
    both(&["--spec", "/nonexistent/nope.cal", "register"], READS_ZERO, 3, "a missing file");
    both(&["--spec", &broken, "register"], READS_ZERO, 3, "a file that does not compile");
    // `cal-check --spec one.cal trace.hist`: the lone positional names no
    // loaded spec, so it is the input.
    assert_eq!(code(CHECK, &["--spec", &one, &seven], ""), 0);
    assert_eq!(code(CHECK, &["--spec", &one, "-"], READS_ZERO), 1);
    // A loaded `kind ca` spec has the CA reading alone: `cal` and `causal`
    // check it, `seq` and `interval` refuse it as usage.
    let exchanger = dir.file("exchanger.cal", &shipped("exchanger.cal"));
    let swap = dir.file("swap.hist", SWAP);
    for (mode, want) in [("cal", 0), ("causal", 0), ("seq", 4), ("interval", 4)] {
        let args = ["--spec", &exchanger, &swap, "--mode", mode];
        assert_eq!(code(CHECK, &args, ""), want, "a loaded kind ca spec under --mode {mode}");
    }
}

/// (c) The same matrix on `chaos-soak`, which spells the name
/// `--spec-name` and judges a live exchanger: a spec with no `exchange`
/// rule fails the first run (exit 1), the real one soaks clean (exit 0).
#[test]
fn soak_resolves_by_the_same_rule() {
    let dir = Scratch::new("soak");
    let refuses = "{ kind ca; rule idle(a: idle) { when a.ret == unit; } }";
    let one = dir.file("one.cal", &shipped("exchanger.cal"));
    let shadow = dir.file("shadow.cal", &format!("spec exchanger {refuses}"));
    let two = dir.file("two.cal", &format!("{}\nspec never {refuses}", shipped("exchanger.cal")));
    let broken = dir.file("broken.cal", "spec broken { kind ca\n");

    let soak = |spec_args: &[&str], target: &str, want: i32, what: &str| {
        let args: Vec<&str> =
            spec_args.iter().copied().chain(["--target", target, "--secs", "1"]).collect();
        let out = run(SOAK, &args, "");
        let said = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(want), "chaos-soak, {what}: {said}");
    };
    let exchanger = "exchanger";
    soak(&["--spec", &two, "--spec-name", "never"], exchanger, 1, "a loaded name");
    soak(&["--spec", &two, "--spec-name", exchanger], exchanger, 0, "a loaded name");
    soak(&["--spec", &shadow, "--spec-name", exchanger], exchanger, 1, "a loaded name shadows");
    soak(&["--spec", &shadow], exchanger, 1, "a one-spec file needs no name");
    soak(&["--spec", &one, "--spec-name", "sync-queue"], "sync-queue", 0, "a lacking name falls back");
    soak(&["--spec", &two], exchanger, 4, "a multi-spec file with no name");
    soak(&["--spec", &two, "--spec-name", "nope"], exchanger, 4, "a name nobody defines");
    soak(&["--spec", &one, "--spec-name", "write-snapshot"], exchanger, 4, "no CA-trace reading");
    soak(&["--spec", "/nonexistent/nope.cal"], exchanger, 3, "a missing file");
    soak(&["--spec", &broken], exchanger, 3, "a file that does not compile");
}

/// `--no-symmetry` is a search option, taken wherever `cal-check` searches
/// a history it was given — one file, or a `--batch` directory — with the
/// verdicts the search gives with the reduction on; chaos mode checks with
/// options of its own and refuses it as usage.
#[test]
fn no_symmetry_is_taken_in_file_and_batch_mode() {
    let dir = Scratch::new("no-symmetry");
    let swap = dir.file("swap.hist", SWAP);
    // Three identical successful exchanges: two swap, the third is left.
    let odd = "t1 inv o0.exchange 0\nt2 inv o0.exchange 0\nt3 inv o0.exchange 0\n\
         t1 res o0.exchange (true,0)\nt2 res o0.exchange (true,0)\nt3 res o0.exchange (true,0)\n";
    dir.file("odd.hist", odd);
    let batch = dir.0.to_str().expect("utf-8 temp path");
    for flags in [&[][..], &["--no-symmetry"]] {
        let run_with = |args: &[&str]| {
            let args: Vec<&str> = args.iter().chain(flags).copied().collect();
            run(CHECK, &args, "")
        };
        assert_eq!(run_with(&["exchanger", &swap]).status.code(), Some(0), "{flags:?}");
        let out = run_with(&["exchanger", "--batch", batch]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(1), "--batch {flags:?}: {stdout}");
        assert!(stdout.contains("2 files, 1 rejected"), "--batch {flags:?}: {stdout}");
    }
    assert_eq!(code(CHECK, &["--chaos", "light", "--no-symmetry"], ""), 4);
}

/// `--max-nodes` takes the same spellings in both binaries that have it.
#[test]
fn max_nodes_is_decimal_or_hex_everywhere() {
    for budget in ["1000", "0x3e8"] {
        assert_eq!(code(CHECK, &["register", "-", "--max-nodes", budget], READS_ZERO), 0);
        assert_eq!(code(SERVE, &["register", "--quiet", "--max-nodes", budget], READS_ZERO), 0);
    }
    for bad in ["0", "0x", "many"] {
        assert_eq!(code(CHECK, &["register", "-", "--max-nodes", bad], READS_ZERO), 4);
        assert_eq!(code(SERVE, &["register", "--quiet", "--max-nodes", bad], READS_ZERO), 4);
    }
}

/// Every operation the contract below is probed with: each method a
/// shipped specification knows, over a few arguments and return values.
fn probe_operations(thread: ThreadId, object: ObjectId) -> Vec<Operation> {
    let methods = ["exchange", "push", "pop", "put", "take", "read", "write", "inc", "get"];
    let args = [Value::Unit, Value::Int(0), Value::Int(1)];
    let mut rets = vec![Value::Unit, Value::Bool(true), Value::Bool(false)];
    for v in [0, 1] {
        rets.extend([Value::Int(v), Value::Pair(true, v), Value::Pair(false, v)]);
    }
    let mut ops = Vec::new();
    for method in methods {
        for arg in args {
            for &ret in &rets {
                ops.push(Operation::new(thread, object, Method(method), arg, ret));
            }
        }
    }
    ops
}

/// `element`, on `object` instead.
fn moved_to(element: &CaElement, object: ObjectId) -> CaElement {
    let ops = element.ops().iter().map(|op| Operation { object, ..*op }).collect();
    CaElement::new(object, ops).expect("the same threads, one object")
}

/// [`CaSpec::restrict`]'s contract, on one specification made for
/// `HOME`: it restricts to exactly the objects it admits an element on,
/// and a restriction admits nothing anywhere else.
struct RestrictsToWhatItAdmits<'a>(&'a str);

const HOME: ObjectId = ObjectId(0);
const ELSEWHERE: ObjectId = ObjectId(5);

impl Visitor for RestrictsToWhatItAdmits<'_> {
    type Out = ();

    fn ca<S>(self, spec: S)
    where
        S: CaSpec + Send + Sync + 'static,
        S::State: Send + Sync,
    {
        let name = self.0;
        let initial = spec.initial();
        let singles = probe_operations(ThreadId(1), HOME).into_iter().map(CaElement::singleton);
        let pairs = probe_operations(ThreadId(1), HOME).into_iter().flat_map(|a| {
            let partners = probe_operations(ThreadId(2), HOME).into_iter();
            partners.map(move |b| CaElement::pair(a, b).expect("two threads, one object"))
        });
        let admitted: Vec<CaElement> =
            singles.chain(pairs).filter(|e| spec.step(&initial, e).is_some()).collect();
        assert!(!admitted.is_empty(), "{name}: no probe element is admitted on {HOME}");
        let at_home = spec.restrict(HOME).unwrap_or_else(|| panic!("{name} restricts to {HOME}"));
        assert!(at_home.restrict(ELSEWHERE).is_none(), "{name}|{HOME} restricts to {ELSEWHERE}");
        let elsewhere = spec.restrict(ELSEWHERE);
        for element in &admitted {
            let moved = moved_to(element, ELSEWHERE);
            assert!(at_home.step(&at_home.initial(), element).is_some(), "{name}|{HOME}: {element}");
            assert!(at_home.step(&at_home.initial(), &moved).is_none(), "{name}|{HOME}: {moved}");
            // `Some` exactly where an element is admitted: a `None` beside
            // a `Some` means no element at all, which is what lets a stream
            // that has already split give the object a part.
            assert_eq!(
                spec.step(&initial, &moved).is_some(),
                elsewhere.is_some(),
                "{name} on {moved}, restricting to {ELSEWHERE}: {}",
                elsewhere.is_some()
            );
            if let Some(there) = &elsewhere {
                assert!(there.step(&there.initial(), &moved).is_some(), "{name}|{ELSEWHERE}: {moved}");
                assert!(there.step(&there.initial(), element).is_none(), "{name}|{ELSEWHERE}: {element}");
            }
        }
    }
}

/// (d) Every specification the front door can hand a stream — each
/// built-in with a CA-trace reading and each spec of each shipped
/// `specs/*.cal` — keeps `restrict`'s contract, which the streaming
/// checker's per-object state sets rest on.
#[test]
fn every_spec_restricts_to_exactly_the_objects_it_admits() {
    let mut checked = 0;
    for (name, kind) in BUILTINS {
        if kind.supports(CheckMode::Cal) {
            let selected = Selected::builtin(name).expect("a BUILTINS row");
            selected.visit(CheckMode::Cal, HOME, RestrictsToWhatItAdmits(name));
            checked += 1;
        }
    }
    let shipped = Path::new(env!("CARGO_MANIFEST_DIR")).join("specs");
    for entry in std::fs::read_dir(shipped).expect("specs/ is there") {
        let path = entry.expect("a directory entry").path();
        if path.extension().is_some_and(|ext| ext == "cal") {
            let path = path.to_str().expect("a utf-8 path");
            let file = registry::load(path).unwrap_or_else(|e| panic!("{e}"));
            for def in file.specs() {
                let what = format!("{path}: {}", def.name());
                Selected::Loaded(def.clone()).visit(CheckMode::Cal, HOME, RestrictsToWhatItAdmits(&what));
                checked += 1;
            }
        }
    }
    assert!(checked >= 9 + 5, "nine built-ins and five shipped files: {checked}");
}
