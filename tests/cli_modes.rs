//! `cal-check --mode`: all three checkers behind one CLI, with working
//! observability in every mode, usage errors on spec/mode mismatches, and
//! broken-pipe-safe output (`cal-check ... | head` must exit 0, not
//! panic).

use std::io::Write;
use std::process::{Command, Output, Stdio};

const EXE: &str = env!("CARGO_BIN_EXE_cal-check");

fn corpus(name: &str) -> String {
    format!("{}/tests/corpus/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn run(args: &[&str]) -> Output {
    Command::new(EXE)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .output()
        .expect("cal-check runs")
}

/// Extracts `"key": N` from a SearchReport JSON line.
fn json_count(stdout: &str, key: &str) -> u64 {
    let rest = stdout.split(&format!("\"{key}\":")).nth(1).unwrap_or_else(|| {
        panic!("no {key:?} field in output:\n{stdout}");
    });
    let digits: String =
        rest.trim_start().chars().take_while(char::is_ascii_digit).collect();
    digits.parse().expect("the field is a number")
}

#[test]
fn mode_seq_accepts_and_rejects_like_default() {
    // The default (CAL) checker lifts sequential specs to singleton
    // elements; --mode seq runs the classical checker. Same verdicts.
    for (file, code) in [("register_read_write.hist", 0), ("register_stale_read.hist", 1)] {
        let default_run = run(&["register", &corpus(file)]);
        let seq_run = run(&["register", &corpus(file), "--mode", "seq"]);
        assert_eq!(default_run.status.code(), Some(code), "default on {file}");
        assert_eq!(seq_run.status.code(), Some(code), "--mode seq on {file}");
    }
    let out = run(&["register", &corpus("register_read_write.hist"), "--mode", "seq"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("linearizable: yes"), "stdout: {stdout}");
}

#[test]
fn mode_interval_accepts_register_history() {
    let out = run(&["register", &corpus("register_read_write.hist"), "--mode", "interval"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("interval-linearizable: yes"), "stdout: {stdout}");
    let bad = run(&["register", &corpus("register_stale_read.hist"), "--mode", "interval"]);
    assert_eq!(bad.status.code(), Some(1));
}

#[test]
fn stats_are_populated_in_every_mode() {
    // Value 1 is put twice, so no mode can hand the history to zones:
    // every one of them searches it.
    for mode in ["cal", "seq", "interval"] {
        let out = run(&[
            "kv",
            &corpus("foreign/undecided_budget.kvlog"),
            "--mode",
            mode,
            "--stats",
            "--stats-json",
            "-",
        ]);
        assert_eq!(out.status.code(), Some(0), "mode {mode}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("stats:"), "mode {mode}: no --stats line, stderr: {stderr}");
        assert!(json_count(&stdout, "nodes") > 0, "mode {mode}: empty SearchReport\n{stdout}");
        assert_eq!(json_count(&stdout, "zones"), 0, "mode {mode}\n{stdout}");
    }
}

/// A register whose writes are unique is decided by zones under `cal` and
/// `seq`, with no search node; `interval` still searches. A zones
/// refutation names the two values whose zones conflict.
#[test]
fn unique_write_registers_are_decided_by_zones() {
    for (mode, zones) in [("cal", 1), ("seq", 1), ("interval", 0)] {
        let file = corpus("register_read_write.hist");
        let out = run(&["register", &file, "--mode", mode, "--explain", "--stats-json", "-"]);
        assert_eq!(out.status.code(), Some(0), "mode {mode}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(json_count(&stdout, "zones"), zones, "mode {mode}\n{stdout}");
        assert_eq!(json_count(&stdout, "nodes") == 0, zones == 1, "mode {mode}\n{stdout}");
        assert_eq!(stderr.contains("procedure: zones"), zones == 1, "mode {mode}: {stderr}");
    }
    let out = run(&["register", &corpus("register_stale_read.hist"), "--explain"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let cause = stderr.lines().find(|l| l.starts_with("cause:")).expect("a cause line");
    assert!(cause.contains("write(1)") && cause.contains("write(2)"), "{stderr}");
}

/// `--mode causal` over a file with no declared order checks under real
/// time, and the CAL check under real time chooses its procedure as
/// `--mode cal` does: the Hall violation is refuted by the matching with
/// no search node, the same NO and exit code in both modes.
#[test]
fn causal_over_real_time_is_decided_as_cal() {
    let file = corpus("exchanger_hall_violation.hist");
    let [cal, causal] = ["cal", "causal"].map(|mode| {
        let out = run(&["exchanger", &file, "--mode", mode, "--stats"]);
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        let stats = stderr.lines().find(|l| l.starts_with("stats:")).expect("a stats line");
        assert!(stats.contains(": 0 nodes,"), "mode {mode}: {stats}");
        let verdict = stdout.lines().next().expect("a verdict line").to_string();
        (out.status.code(), verdict.rsplit(": ").next().map(str::to_string))
    });
    assert_eq!(cal, (Some(1), Some("NO".to_string())));
    assert_eq!(causal, cal);
}

/// The three stateless pair specs are decided by a matching under `cal`,
/// and under `causal` over an unannotated file, whose order is real time,
/// with no search node; the `.cal` exchanger still searches.
/// A matching refutation names the Hall set: the operations short of
/// partners, and the one partner they share.
#[test]
fn pair_specs_are_decided_by_matching() {
    let spec_file = concat!(env!("CARGO_MANIFEST_DIR"), "/specs/exchanger.cal");
    for (spec, fixture) in [
        ("exchanger", "fig1_swap.hist"),
        ("elim-array", "elim_array_elimination.hist"),
        ("sync-queue", "sync_queue_transfer.hist"),
    ] {
        let file = corpus(fixture);
        let mut runs = vec![("cal", vec![spec, &file, "--mode", "cal"], 1)];
        runs.push(("causal", vec![spec, &file, "--mode", "causal"], 1));
        if spec == "exchanger" {
            runs.push((".cal", vec![spec, &file, "--spec", spec_file], 0));
        }
        for (what, mut args, matching) in runs {
            args.extend(["--explain", "--stats-json", "-"]);
            let out = run(&args);
            assert_eq!(out.status.code(), Some(0), "{spec} {what}");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(json_count(&stdout, "matching"), matching, "{spec} {what}\n{stdout}");
            assert_eq!(json_count(&stdout, "nodes") == 0, matching == 1, "{spec} {what}\n{stdout}");
            let named = stderr.contains("procedure: matching");
            assert_eq!(named, matching == 1, "{spec} {what}: {stderr}");
        }
    }
    let out = run(&["exchanger", &corpus("exchanger_hall_violation.hist"), "--explain"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let cause = stderr.lines().find(|l| l.starts_with("cause:")).expect("a cause line");
    assert!(cause.contains("Hall set") && cause.contains("t1") && cause.contains("t2"), "{stderr}");
    assert!(cause.contains("1 other concurrent operation") && cause.contains("t3"), "{stderr}");
}

/// `--max-nodes` bounds the search only: the budget that leaves a history
/// with a repeated value undecided does not touch its unique-value twin.
#[test]
fn the_node_budget_bounds_the_search_only() {
    for (file, code) in [("undecided_budget.kvlog", 2), ("unique_puts_overlapping.kvlog", 0)] {
        let out = run(&["kv", &corpus(&format!("foreign/{file}")), "--max-nodes", "4"]);
        assert_eq!(out.status.code(), Some(code), "{file}");
    }
}

#[test]
fn explain_works_in_every_mode() {
    for mode in ["seq", "interval"] {
        let out =
            run(&["register", &corpus("register_read_write.hist"), "--mode", mode, "--explain"]);
        assert_eq!(out.status.code(), Some(0), "mode {mode}");
        assert!(!out.stderr.is_empty(), "mode {mode}: --explain printed nothing");
    }
}

#[test]
fn ca_only_spec_in_seq_mode_is_a_usage_error() {
    let out = run(&["exchanger", &corpus("fig1_swap.hist"), "--mode", "seq"]);
    assert_eq!(out.status.code(), Some(4));
    let out = run(&["exchanger", &corpus("fig1_swap.hist"), "--mode", "interval"]);
    assert_eq!(out.status.code(), Some(4));
}

#[test]
fn write_snapshot_is_interval_only() {
    let out = run(&["write-snapshot", &corpus("register_read_write.hist"), "--mode", "cal"]);
    assert_eq!(out.status.code(), Some(4));
}

#[test]
fn chaos_mode_value_outside_chaos_is_a_usage_error() {
    let out = run(&["register", &corpus("register_read_write.hist"), "--mode", "stress"]);
    assert_eq!(out.status.code(), Some(4));
}

#[test]
fn unknown_mode_value_is_a_usage_error() {
    let out = run(&["register", &corpus("register_read_write.hist"), "--mode", "bogus"]);
    assert_eq!(out.status.code(), Some(4));
}

/// Rust ignores SIGPIPE, so every `println!` on a closed pipe used to
/// panic ("failed printing to stdout: Broken pipe"). The CLI now treats a
/// broken pipe as end-of-output: clean exit 0, nothing on stderr.
#[test]
fn broken_stdout_pipe_exits_cleanly() {
    let mut child = Command::new(EXE)
        .args(["register", "-", "--mode", "seq", "--stats"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("cal-check spawns");
    // Close the read end of stdout *before* feeding the history: by the
    // time the verdict is printed, the pipe is gone.
    drop(child.stdout.take());
    let history = "t1 inv o0.write 2\nt1 res o0.write ()\nt2 inv o0.read ()\nt2 res o0.read 2\n";
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(history.as_bytes())
        .expect("write history");
    let output = child.wait_with_output().expect("cal-check exits");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "CLI panicked on a broken pipe: {stderr}");
}
