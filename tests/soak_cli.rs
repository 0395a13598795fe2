//! `chaos-soak --spec`: runtime-loaded `.cal` specs drive the soak
//! check, with the same compile-before-input exit-3 contract as
//! `cal-check` and `cal-serve`.

use std::process::{Command, Output, Stdio};

const EXE: &str = env!("CARGO_BIN_EXE_chaos-soak");

fn spec(name: &str) -> String {
    format!("{}/specs/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn run(args: &[&str]) -> Output {
    Command::new(EXE)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .output()
        .expect("chaos-soak runs")
}

/// A `.cal` file that does not compile fails before any run starts,
/// printing its diagnostic and exiting 3 — even though the soak itself
/// would have found nothing wrong.
#[test]
fn bad_spec_file_exits_three_before_soaking() {
    let dir = std::env::temp_dir().join(format!("soak-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("broken.cal");
    std::fs::write(&path, "spec broken { kind ca\n").unwrap();
    let out = run(&[
        "--spec",
        path.to_str().unwrap(),
        "--target",
        "exchanger",
        "--secs",
        "1",
    ]);
    assert_eq!(out.status.code(), Some(3), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("broken.cal"), "diagnostic names the file: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("soaking"), "no run may start: {stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// An unreadable path is the same exit-3 contract.
#[test]
fn missing_spec_file_exits_three() {
    let out = run(&["--spec", "/nonexistent/nope.cal", "--target", "exchanger"]);
    assert_eq!(out.status.code(), Some(3));
}

/// The loaded spec replaces the per-target built-ins, so it needs one
/// explicit target: bare `--spec` (implicit `all`) is a usage error.
#[test]
fn spec_without_single_target_is_usage_error() {
    let out = run(&["--spec", &spec("exchanger.cal"), "--secs", "1"]);
    assert_eq!(out.status.code(), Some(4), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let orphan = run(&["--spec-name", "exchanger", "--target", "exchanger", "--secs", "1"]);
    assert_eq!(orphan.status.code(), Some(4), "--spec-name without --spec");
}

/// The loaded exchanger spec soaks the healthy exchanger clean (exit 0)
/// and catches the planted misdelivery bug (exit 1) — proof the check
/// really runs against the `.cal` spec end to end.
#[test]
fn loaded_spec_soaks_and_catches_the_planted_bug() {
    let clean = run(&[
        "--spec",
        &spec("exchanger.cal"),
        "--target",
        "exchanger",
        "--secs",
        "1",
        "--ops",
        "3",
    ]);
    assert_eq!(
        clean.status.code(),
        Some(0),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&clean.stdout),
        String::from_utf8_lossy(&clean.stderr)
    );
    let caught = run(&[
        "--spec",
        &spec("exchanger.cal"),
        "--target",
        "buggy-exchanger",
        "--seed",
        "1",
        "--secs",
        "10",
    ]);
    assert_eq!(
        caught.status.code(),
        Some(1),
        "stdout: {}",
        String::from_utf8_lossy(&caught.stdout)
    );
    let stdout = String::from_utf8_lossy(&caught.stdout);
    assert!(stdout.contains("minimal reproducer"), "reproducer printed: {stdout}");
}

/// `chaos-soak ... | head -1`: the reader takes the first line and hangs
/// up. Rust ignores SIGPIPE, so the next `println!` used to panic (exit
/// 101); a closed pipe is the end of output under the shared contract —
/// exit 0, nothing about a panic on stderr.
#[test]
fn broken_stdout_pipe_exits_cleanly() {
    use std::io::{BufRead, BufReader};
    let mut child = Command::new(EXE)
        .args(["--seed", "1", "--secs", "1", "--target", "exchanger", "--stats"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("chaos-soak spawns");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut first = String::new();
    stdout.read_line(&mut first).expect("first line");
    assert!(first.starts_with("soaking exchanger"), "first line: {first}");
    drop(stdout);
    let output = child.wait_with_output().expect("chaos-soak exits");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "CLI panicked on a broken pipe: {stderr}");
}
