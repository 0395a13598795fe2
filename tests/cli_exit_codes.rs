//! The `cal-check` exit-code contract, one assertion per code:
//! 0 = accepted, 1 = rejected, 2 = undecided (budget/deadline),
//! 3 = input/parse/checker error, 4 = usage. Batch mode folds per-file
//! results with the same codes, worst first (3 > 2 > 1 > 0).

use std::io::Write;
use std::process::{Command, Stdio};

const EXE: &str = env!("CARGO_BIN_EXE_cal-check");

fn corpus(name: &str) -> String {
    format!("{}/tests/corpus/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn run_with_stdin(args: &[&str], input: &str) -> std::process::Output {
    let mut child = Command::new(EXE)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("cal-check spawns");
    child.stdin.take().expect("stdin piped").write_all(input.as_bytes()).expect("write stdin");
    child.wait_with_output().expect("cal-check runs")
}

#[test]
fn accepted_exits_zero() {
    let status = Command::new(EXE)
        .args(["exchanger", &corpus("fig1_swap.hist")])
        .stdout(Stdio::null())
        .status()
        .expect("cal-check runs");
    assert_eq!(status.code(), Some(0));
}

#[test]
fn rejected_exits_one() {
    let status = Command::new(EXE)
        .args(["exchanger", &corpus("fig1_sequential_swap.hist")])
        .stdout(Stdio::null())
        .status()
        .expect("cal-check runs");
    assert_eq!(status.code(), Some(1));
}

#[test]
fn undecided_exits_two() {
    // An unsatisfiable 13-way pile of identical "successful" exchanges
    // with a zero deadline: without symmetry reduction (which matches the
    // clones in one order and refutes them in a handful of nodes) the
    // first interrupt poll fires long before the search can refute it,
    // so the verdict is Interrupted. The built-in exchanger is decided by
    // a matching, which refutes the pile at once by parity; the `.cal`
    // exchanger, the same spec, is searched.
    let mut input = String::new();
    for t in 1..=13 {
        input.push_str(&format!("t{t} inv o0.exchange 0\n"));
    }
    for t in 1..=13 {
        input.push_str(&format!("t{t} res o0.exchange (true,0)\n"));
    }
    let spec = concat!(env!("CARGO_MANIFEST_DIR"), "/specs/exchanger.cal");
    let args = ["exchanger", "-", "--spec", spec, "--deadline-ms", "0", "--no-symmetry"];
    let output = run_with_stdin(&args, &input);
    assert_eq!(output.status.code(), Some(2), "stderr: {}", String::from_utf8_lossy(&output.stderr));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("undecided"), "{stderr}");
}

#[test]
fn parse_error_exits_three() {
    let output = run_with_stdin(&["exchanger", "-"], "this is not a history\n");
    assert_eq!(output.status.code(), Some(3));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("parse error"), "{stderr}");
}

#[test]
fn ill_formed_history_exits_three() {
    // A response with no matching invocation.
    let output = run_with_stdin(&["exchanger", "-"], "t1 res o0.exchange (true,4)\n");
    assert_eq!(output.status.code(), Some(3));
}

#[test]
fn missing_file_exits_three() {
    let status = Command::new(EXE)
        .args(["exchanger", "/nonexistent/cal-check-no-such-file.hist"])
        .stderr(Stdio::null())
        .status()
        .expect("cal-check runs");
    assert_eq!(status.code(), Some(3));
}

#[test]
fn usage_error_exits_four() {
    for args in [
        &[] as &[&str],
        &["--help"],
        &["not-a-spec", "some-file"],
        &["exchanger", "-", "--deadline-ms", "not-a-number"],
        &["--chaos", "heavy", "--stats"], // stats flags are file-mode only
    ] {
        let status = Command::new(EXE)
            .args(args)
            .stdin(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .expect("cal-check runs");
        assert_eq!(status.code(), Some(4), "args {args:?}");
    }
}

#[test]
fn batch_mode_folds_codes_worst_first() {
    // The full corpus contains rejected fixtures but no errors: exit 1.
    let status = Command::new(EXE)
        .args(["exchanger", "--batch", &format!("{}/tests/corpus", env!("CARGO_MANIFEST_DIR"))])
        .stdout(Stdio::null())
        .status()
        .expect("cal-check runs");
    assert_eq!(status.code(), Some(1));

    // A directory with an unparsable file folds to 3 even alongside
    // accepted and rejected ones.
    let dir = std::env::temp_dir().join(format!("cal-check-batch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::copy(corpus("fig1_swap.hist"), dir.join("ok.hist")).expect("copy");
    std::fs::copy(corpus("fig1_sequential_swap.hist"), dir.join("no.hist")).expect("copy");
    std::fs::write(dir.join("bad.hist"), "garbage\n").expect("write");
    let status = Command::new(EXE)
        .args(["exchanger", "--batch", dir.to_str().expect("utf-8 temp path")])
        .stdout(Stdio::null())
        .status()
        .expect("cal-check runs");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(status.code(), Some(3));
}
