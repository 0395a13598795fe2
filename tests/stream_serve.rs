//! `cal-serve` end-to-end: the CI streaming leg. A generated 100k-event
//! trace replays through the daemon with bounded-window retirement, a
//! TCP client is killed mid-stream without upsetting anyone, a slow
//! producer stalls the feed across the daemon's poll interval, and every
//! path lands on its documented exit code.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Output, Stdio};
use std::time::Duration;

const EXE: &str = env!("CARGO_BIN_EXE_cal-serve");

/// Runs `cal-serve` with `input` on stdin and waits for it.
fn serve(args: &[&str], input: &str) -> Output {
    let mut child = Command::new(EXE)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("cal-serve spawns");
    let mut stdin = child.stdin.take().unwrap();
    let input = input.to_owned();
    let feeder = std::thread::spawn(move || {
        let _ = stdin.write_all(input.as_bytes());
    });
    let out = child.wait_with_output().expect("cal-serve exits");
    feeder.join().unwrap();
    out
}

fn field(stdout: &str, name: &str) -> u64 {
    let key = format!("\"{name}\":");
    let rest = stdout
        .split(&key)
        .nth(1)
        .unwrap_or_else(|| panic!("no {key} field in output:\n{stdout}"));
    let digits: String = rest.trim_start().chars().take_while(char::is_ascii_digit).collect();
    digits.parse().unwrap_or_else(|_| panic!("{key} field is not a number"))
}

/// A 100k-event single-register trace: 25k write/read round-trip pairs.
fn hundred_k_trace() -> String {
    let mut text = String::with_capacity(3_000_000);
    for i in 0..25_000u64 {
        let v = i % 7;
        text.push_str(&format!("t0 inv o0.write {v}\nt0 res o0.write ()\n"));
        text.push_str(&format!("t0 inv o0.read ()\nt0 res o0.read {v}\n"));
    }
    text
}

/// The headline streaming leg: 100k events, bounded window, verdict
/// parity with what a batch check of the same trace would say, and the
/// retirement counters proving steady-state memory stayed O(window).
#[test]
fn hundred_k_event_trace_replays_clean() {
    let out = serve(
        &["register", "--window", "64", "--checkpoint-every", "256", "--stats-json", "-", "--quiet"],
        &hundred_k_trace(),
    );
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"verdict\": \"consistent\""), "stdout: {stdout}");
    assert_eq!(field(&stdout, "events"), 100_000);
    // Memory bound via counters: admitted = retired + residual window.
    let retired = field(&stdout, "retired_actions");
    let window = field(&stdout, "window");
    assert_eq!(retired + window, 100_000);
    assert!(field(&stdout, "peak_window") <= 128, "stdout: {stdout}");
}

#[test]
fn violation_exits_one_and_is_final() {
    let out = serve(
        &["exchanger", "--stats-json", "-"],
        "t1 inv o0.exchange 3\nt1 res o0.exchange (true,9)\nt2 inv o0.exchange 1\n",
    );
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"verdict\": \"violation\""), "stdout: {stdout}");
}

#[test]
fn window_overflow_degrades_to_the_documented_verdict() {
    // Five open invocations on distinct threads against a window of 2:
    // nothing can retire, so the daemon must degrade explicitly.
    let input = (0..5).map(|i| format!("t{i} inv o0.exchange {i}\n")).collect::<String>();
    let out = serve(&["exchanger", "--window", "2"], &input);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("undecided: window exceeded"),
        "degradation must name its cause: {stdout}"
    );
}

#[test]
fn exceeded_error_budget_refuses_the_stream_with_exit_three() {
    let garbage = "not an event\n".repeat(5);
    let out = serve(&["register", "--error-budget", "3", "--quiet"], &garbage);
    assert_eq!(out.status.code(), Some(3));
    let out = serve(&["register", "--error-budget", "16", "--quiet"], &garbage);
    assert_eq!(out.status.code(), Some(0), "within budget the stream is judged on its merits");
}

#[test]
fn usage_errors_exit_four() {
    for args in [&[][..], &["no-such-spec"][..], &["register", "--window"][..]] {
        let out = serve(args, "");
        assert_eq!(out.status.code(), Some(4), "args {args:?}");
    }
}

/// A producer that stalls longer than the daemon's internal poll
/// interval must not wedge or error the stream.
#[test]
fn slow_producer_stall_is_tolerated() {
    let mut child = Command::new(EXE)
        .args(["register", "--ack", "--quiet"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("cal-serve spawns");
    let mut stdin = child.stdin.take().unwrap();
    stdin.write_all(b"t0 inv o0.write 5\n").unwrap();
    stdin.flush().unwrap();
    std::thread::sleep(Duration::from_millis(400));
    stdin.write_all(b"t0 res o0.write ()\nbye\n").unwrap();
    drop(stdin);
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let acks = String::from_utf8_lossy(&out.stdout);
    assert!(acks.contains("ok"), "acks: {acks}");
}

fn spawn_tcp() -> (Child, BufReader<std::process::ChildStdout>, String) {
    spawn_tcp_with(&["exchanger", "--ack", "--checkpoint-every", "1", "--stats-json", "-"])
}

/// Starts `cal-serve <args> --listen 127.0.0.1:0` and reads the banner:
/// the child, the rest of its stdout, and the address it bound.
fn spawn_tcp_with(args: &[&str]) -> (Child, BufReader<std::process::ChildStdout>, String) {
    let mut child = Command::new(EXE)
        .args(args)
        .args(["--listen", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("cal-serve spawns");
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .rsplit(' ')
        .next()
        .unwrap_or_else(|| panic!("no address in banner {line:?}"))
        .to_owned();
    (child, stdout, addr)
}

fn sigterm(child: &Child) {
    let status = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(status.success());
}

/// The full TCP session dance: one client completes a failed exchange
/// and says bye; a second is killed mid-operation. The daemon absorbs
/// the crash (the orphan op is abandoned, then explained through the
/// exchanger's timeout completion), flushes a final report on SIGTERM,
/// and exits 0.
#[test]
fn tcp_client_killed_mid_stream_is_absorbed() {
    let (mut child, mut stdout, addr) = spawn_tcp();

    // Client 1: clean session.
    let mut clean = TcpStream::connect(&addr).expect("connect");
    clean.write_all(b"t1 inv o0.exchange 3\nt1 res o0.exchange (false,3)\nbye\n").unwrap();
    let mut acks = BufReader::new(clean.try_clone().unwrap());
    for want in ["ok", "ok", "ok"] {
        let mut line = String::new();
        acks.read_line(&mut line).unwrap();
        assert_eq!(line.trim(), want);
    }
    drop(clean);

    // Client 2: invokes, is acked, then dies without responding.
    let mut dying = TcpStream::connect(&addr).expect("connect");
    dying.write_all(b"t2 inv o0.exchange 9\n").unwrap();
    let mut line = String::new();
    BufReader::new(dying.try_clone().unwrap()).read_line(&mut line).unwrap();
    assert_eq!(line.trim(), "ok");
    drop(dying); // mid-stream kill: no response, no bye

    // Give the daemon a beat to observe the disconnect, then shut down.
    std::thread::sleep(Duration::from_millis(200));
    sigterm(&child);
    let status = child.wait().expect("cal-serve exits");
    assert_eq!(status.code(), Some(0), "the abandoned op must be absorbed");

    let mut rest = String::new();
    stdout.read_to_string(&mut rest).unwrap();
    assert!(rest.contains("\"verdict\": \"consistent\""), "final report missing: {rest}");
    assert_eq!(field(&rest, "abandoned"), 1, "report: {rest}");
}

/// A violation over TCP refuses the stream for every client and exits 1
/// once the daemon winds down.
#[test]
fn tcp_violation_latches_for_all_clients() {
    let (mut child, mut stdout, addr) = spawn_tcp();
    let mut client = TcpStream::connect(&addr).expect("connect");
    client.write_all(b"t1 inv o0.exchange 3\nt1 res o0.exchange (true,9)\n").unwrap();
    let mut acks = BufReader::new(client.try_clone().unwrap());
    let mut line = String::new();
    acks.read_line(&mut line).unwrap();
    assert_eq!(line.trim(), "ok");
    line.clear();
    acks.read_line(&mut line).unwrap();
    // The response was admitted; the checkpoint then latched the
    // violation and the daemon told the client before closing.
    assert!(line.contains("refused violation") || line.trim() == "ok", "ack: {line:?}");

    let status = child.wait().expect("cal-serve exits");
    assert_eq!(status.code(), Some(1));
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).unwrap();
    assert!(rest.contains("\"verdict\": \"violation\""), "final report: {rest}");
}

/// One `--ack` TCP client sends `input` and reads its acks: one per
/// line, and a closing line's own ack and its `refused …` leave the
/// daemon in one write, so the second is already buffered when the first
/// has been read. A stream the daemon did not close itself is then ended
/// with SIGTERM. Returns the ack transcript, the rest of the daemon's
/// stdout, and its exit code.
fn tcp_session(args: &[&str], input: &str) -> (Vec<String>, String, Option<i32>) {
    let (mut child, mut stdout, addr) = spawn_tcp_with(args);
    let mut client = TcpStream::connect(&addr).expect("connect");
    client.write_all(input.as_bytes()).unwrap();
    let mut reader = BufReader::new(client.try_clone().unwrap());
    let mut acks = Vec::new();
    let mut line = String::new();
    while acks.len() < input.lines().count() || !reader.buffer().is_empty() {
        line.clear();
        if reader.read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        acks.push(line.trim_end().to_owned());
    }
    if !acks.last().is_some_and(|l| l.starts_with("refused ")) {
        drop((client, reader));
        // Let the session notice the disconnect before the shutdown.
        std::thread::sleep(Duration::from_millis(200));
        sigterm(&child);
    }
    let code = child.wait().expect("cal-serve exits").code();
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).unwrap();
    (acks, rest, code)
}

fn events_reported(stdout: &str) -> Vec<u64> {
    stdout.lines().filter(|l| l.contains("\"events\":")).map(|l| field(l, "events")).collect()
}

/// `--stats-every N` snapshots each time the admitted-event count
/// crosses a multiple of N — not once per line that finds it on one
/// (comments and blanks printed duplicates), not never when a two-event
/// kvlog line steps over one, and in TCP mode too (it was ignored there).
#[test]
fn stats_every_snapshots_once_per_crossing_in_both_modes() {
    let mut native = String::from("# header\n# another\n");
    for i in 0..6 {
        native.push_str(&format!("t0 inv o0.write {i}\n\nt0 res o0.write ()\n\n"));
    }
    let args = ["register", "--ack", "--stats-every", "4", "--stats-json", "-", "--quiet"];
    let out = serve(&args, &native);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(events_reported(&String::from_utf8_lossy(&out.stdout)), [4, 8, 12, 12]);

    let (_, stdout, code) = tcp_session(&args, &native);
    assert_eq!(code, Some(0));
    assert_eq!(events_reported(&stdout), [4, 8, 12, 12], "stdout: {stdout}");

    // Two events a line: 3 is stepped over by the second line.
    let kvlog = "1 2 c0 put 0 1\n3 4 c0 put 0 2\n5 6 c0 get 0 2\n";
    let args = ["kv", "--format", "kvlog", "--stats-every", "3", "--stats-json", "-", "--quiet"];
    let out = serve(&args, kvlog);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(events_reported(&String::from_utf8_lossy(&out.stdout)), [4, 6, 6]);
}

/// A checker error exits 3 *and says what it was*: here, declared `hb`
/// edges that close a cycle.
#[test]
fn checker_error_names_its_cause() {
    let input = "1 2 c0 put 0 1\n3 4 c1 put 0 2\nhb 1 2\nhb 2 1\n";
    for quiet in [&[][..], &["--quiet"][..]] {
        let out = serve(&[&["kv", "--causal", "--format", "kvlog"], quiet].concat(), input);
        assert_eq!(out.status.code(), Some(3));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("cal-serve: checker error: ") && stderr.contains("cycle"),
            "stderr: {stderr}"
        );
    }
}

fn parity_args(report: &str) -> [&str; 9] {
    let (every, budget) = ("--checkpoint-every", "--error-budget");
    ["exchanger", "--ack", "--quiet", every, "1", budget, "2", "--stats-json", report]
}

/// Stdin and TCP are one daemon: the same native trace through stdin
/// `--ack` and through one TCP `--ack` client gets the same acks — a
/// closing line's own ack, then `refused <verdict>` — the same exit code
/// and the same final report.
#[test]
fn stdin_and_tcp_sessions_are_told_the_same() {
    let accepting = "# two swaps\nt1 inv o0.exchange 3\nt2 inv o0.exchange 4\n\
                     t1 res o0.exchange (true,4)\nt2 res o0.exchange (true,3)\nabandon t9\nbye\n";
    let violating = "t1 inv o0.exchange 3\nt1 res o0.exchange (true,9)\nt2 inv o0.exchange 1\n";
    // No operation is left open: a TCP session abandons its own on the
    // way out, which a stdin stream has no occasion to.
    let over_budget = "t1 inv o0.exchange 3\nt1 res o0.exchange (false,3)\nnot an event\n\
                       t1 res o0.exchange (false,3)\nt7 res\n";
    let cases = [
        (accepting, 0, vec!["ign", "ok", "ok", "ok", "ok", "ign", "ok"]),
        (violating, 1, vec!["ok", "ok", "refused violation"]),
        (over_budget, 3, vec!["ok", "ok", "rej", "rej", "rej", "refused consistent"]),
    ];
    for (case, (input, code, want)) in cases.into_iter().enumerate() {
        let report = |mode: &str| {
            let name = format!("cal-serve-parity-{}-{case}-{mode}", std::process::id());
            std::env::temp_dir().join(name).to_str().unwrap().to_owned()
        };
        let (stdin_report, tcp_report) = (report("stdin"), report("tcp"));
        let final_report = |path: &str| {
            let json = std::fs::read_to_string(path).expect("final report written");
            let _ = std::fs::remove_file(path);
            let wall = json.split("\"wall_ms\": ").nth(1).unwrap().split(',').next().unwrap();
            json.replace(wall, "_")
        };

        let out = serve(&parity_args(&stdin_report), input);
        let stdin_acks: Vec<String> =
            String::from_utf8_lossy(&out.stdout).lines().map(str::to_owned).collect();
        let (tcp_acks, _, tcp_code) = tcp_session(&parity_args(&tcp_report), input);

        assert_eq!(stdin_acks.len(), want.len(), "case {case}: {stdin_acks:?}");
        for (got, want) in stdin_acks.iter().zip(&want) {
            assert!(got.starts_with(want), "case {case}: {stdin_acks:?}");
        }
        assert_eq!(stdin_acks, tcp_acks, "case {case}");
        assert_eq!((out.status.code(), tcp_code), (Some(code), Some(code)), "case {case}");
        assert_eq!(final_report(&stdin_report), final_report(&tcp_report), "case {case}");
    }
}
