//! `cal-serve` end-to-end: the CI streaming leg. A generated 100k-event
//! trace replays through the daemon with bounded-window retirement, a
//! TCP client is killed mid-stream without upsetting anyone, a slow
//! producer stalls the feed across the daemon's poll interval, and every
//! path lands on its documented exit code. In front of all of it, the
//! byte → line step: whatever the read boundaries and whatever the bytes,
//! the daemon is fed what `BufRead::lines` would have fed it, and a line
//! that is no text is counted and quarantined, not taken for end of input.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

use cal::core::spec::SeqAsCa;
use cal::core::stream::{
    Ingest, LineFault, LineSplitter, RawLine, Reply, StreamOptions, MAX_LINE_BYTES,
};
use cal::core::ObjectId;
use cal::specs::register::RegisterSpec;
use proptest::prelude::*;

const EXE: &str = env!("CARGO_BIN_EXE_cal-serve");

/// Runs `cal-serve` with `input` on stdin and waits for it.
fn serve(args: &[&str], input: &str) -> Output {
    serve_bytes(args, input.as_bytes())
}

/// Starts `cal-serve <args>` with all three of its streams piped.
fn spawn_piped(args: &[&str]) -> Child {
    Command::new(EXE)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("cal-serve spawns")
}

fn serve_bytes(args: &[&str], input: &[u8]) -> Output {
    let mut child = spawn_piped(args);
    let mut stdin = child.stdin.take().unwrap();
    let input = input.to_owned();
    let feeder = std::thread::spawn(move || {
        let _ = stdin.write_all(&input);
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

/// An operation on an object the specification does not admit is a
/// violation as soon as it completes, whether the object arrives before
/// anything else (the stream is never split) or after the admitted one
/// has a part of its own (the stranger gets the part its `None` implies).
#[test]
fn a_completed_operation_on_an_unadmitted_object_is_a_violation() {
    let admitted = "t0 inv o0.write 1\nt0 res o0.write ()\n";
    let stranger = "t1 inv o1.write 1\nt1 res o1.write ()\n";
    for input in [format!("{admitted}{stranger}"), format!("{stranger}{admitted}")] {
        let out = serve(&["register", "--stats-json", "-"], &input);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(1), "{input}stdout: {stdout}");
        assert!(stdout.contains("\"verdict\": \"violation\""), "{input}stdout: {stdout}");
    }
    // Left open, it is dropped like any pending operation.
    let out = serve(&["register", "--quiet"], &format!("{admitted}t1 inv o1.write 1\n"));
    assert_eq!(out.status.code(), Some(0));
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
    let mut child = spawn_piped(&["register", "--ack", "--quiet"]);
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

/// A stale read behind a line that is not UTF-8. `lines()` took the bad
/// line for end of input, so the daemon said `consistent (2 events)` and
/// exited 0.
const STALE_READ_BEHIND_BAD_BYTES: &[u8] =
    b"t1 inv o0.write 1\nt1 res o0.write ()\n\xff\xfe\nt1 inv o0.read ()\nt1 res o0.read 7\n";

#[test]
fn a_line_that_is_not_utf8_is_quarantined_and_the_stream_goes_on() {
    let out = serve_bytes(&["register"], STALE_READ_BEHIND_BAD_BYTES);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("cal-serve: quarantined: line 3: invalid UTF-8"), "stderr: {stderr}");

    // Over `--listen` the session used to be dropped at the bad line, the
    // rest of its bytes unread.
    let args = ["register", "--ack", "--quiet", "--checkpoint-every", "1"];
    let (mut child, _stdout, addr) = spawn_tcp_with(&args);
    let mut client = TcpStream::connect(&addr).expect("connect");
    client.write_all(STALE_READ_BEHIND_BAD_BYTES).unwrap();
    let acks: Vec<String> =
        BufReader::new(client.try_clone().unwrap()).lines().map_while(Result::ok).collect();
    assert_eq!(acks[..3], ["ok", "ok", "rej line 3: invalid UTF-8"], "acks: {acks:?}");
    assert_eq!(acks.last().map(String::as_str), Some("refused violation"), "acks: {acks:?}");
    assert_eq!(child.wait().expect("cal-serve exits").code(), Some(1));
}

#[test]
fn a_line_without_end_is_quarantined_at_the_cap() {
    let mut input = b"t0 inv o0.write 5\n".to_vec();
    input.resize(input.len() + 3 * MAX_LINE_BYTES, b'x');
    input.extend_from_slice(b"\nt0 res o0.write ()\nt0 res\n");
    let out = serve_bytes(&["register", "--ack"], &input);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let acks = String::from_utf8_lossy(&out.stdout);
    let want = format!("ok\nrej line 2: longer than {MAX_LINE_BYTES} bytes\nok\nrej line 4: ");
    assert!(acks.starts_with(&want), "acks: {acks}");
}

/// A client that sends one line and waits for its answer gets it: the
/// daemon takes what a `read` returned and does not wait for a block to
/// fill.
#[test]
fn an_ack_client_that_waits_on_every_line_completes_a_thousand_round_trips() {
    let mut child = spawn_piped(&["register", "--ack", "--quiet"]);
    let mut stdin = child.stdin.take().unwrap();
    let mut acks = BufReader::new(child.stdout.take().unwrap());
    let mut ack = String::new();
    for i in 0..1_000 {
        let line = if i % 2 == 0 { "t0 inv o0.write 5\n" } else { "t0 res o0.write ()\n" };
        stdin.write_all(line.as_bytes()).unwrap();
        stdin.flush().unwrap();
        ack.clear();
        acks.read_line(&mut ack).unwrap();
        assert_eq!(ack, "ok\n", "round trip {i}");
    }
    drop(stdin);
    assert_eq!(child.wait().expect("cal-serve exits").code(), Some(0));
}

#[test]
fn sigterm_on_an_idle_stdin_flushes_the_final_report_within_a_second() {
    let mut child = spawn_piped(&["register", "--ack", "--stats-json", "-"]);
    let mut stdin = child.stdin.take().unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    // The ack says the daemon is up and has taken the line; the second
    // line has no end yet, and stdin stays open and silent behind it.
    stdin.write_all(b"t0 inv o0.write 5\nt0 res o0.wr").unwrap();
    stdin.flush().unwrap();
    let mut ack = String::new();
    stdout.read_line(&mut ack).unwrap();
    assert_eq!(ack, "ok\n");
    let asked = Instant::now();
    sigterm(&child);
    let status = child.wait().expect("cal-serve exits");
    assert!(asked.elapsed() < Duration::from_secs(1), "took {:?}", asked.elapsed());
    assert_eq!(status.code(), Some(0));
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).unwrap();
    assert_eq!(events_reported(&rest), [1], "final report: {rest}");
    drop(stdin);
}

/// The lines of `bytes` by the rules the splitter states, worked out from
/// the whole stream at once.
fn lines_of(bytes: &[u8]) -> Vec<Result<String, LineFault>> {
    let mut lines: Vec<&[u8]> = bytes.split(|b| *b == b'\n').collect();
    // What follows the last newline is a line only if it is not empty,
    // and keeps its `\r`.
    let unterminated = lines.pop().filter(|last| !last.is_empty());
    let terminated = lines.into_iter().map(|line| (line, line.strip_suffix(b"\r").unwrap_or(line)));
    terminated
        .chain(unterminated.map(|line| (line, line)))
        .map(|(line, text)| match String::from_utf8(text.to_vec()) {
            // The cap is on what precedes the `\n`.
            _ if line.len() > MAX_LINE_BYTES => Err(LineFault::TooLong),
            Ok(text) => Ok(text),
            Err(_) => Err(LineFault::InvalidUtf8),
        })
        .collect()
}

fn register_ingest() -> Ingest<SeqAsCa<RegisterSpec>> {
    let options = StreamOptions { checkpoint_every: 4, ..StreamOptions::default() };
    Ingest::new(SeqAsCa::new(RegisterSpec::new(ObjectId(0))), options, None)
}

/// Every reply, then the closing verdict, report and quarantine count.
fn transcript(
    ingest: &mut Ingest<SeqAsCa<RegisterSpec>>,
    replies: Vec<Reply>,
) -> (Vec<Reply>, String, u64) {
    let verdict = ingest.checker.finish();
    let report = ingest.checker.report(Duration::ZERO).to_json();
    (replies, format!("{verdict} {report}"), ingest.quarantined())
}

fn feed(ingest: &mut Ingest<SeqAsCa<RegisterSpec>>, raw: RawLine<'_>) -> Reply {
    match raw {
        Ok(text) => ingest.line(text, false, &mut Vec::new()),
        Err(fault) => ingest.fault(fault),
    }
}

/// One line of a hostile stream, terminator included (or left off).
fn wire_line() -> impl Strategy<Value = Vec<u8>> {
    let text = |s: &'static str| Just(s.as_bytes().to_vec()).boxed();
    prop_oneof![
        (0u32..2, 0i64..3).prop_map(|(t, v)| format!("t{t} inv o0.write {v}\n").into_bytes()),
        (0u32..2).prop_map(|t| format!("t{t} res o0.write ()\r\n").into_bytes()),
        (0u32..2).prop_map(|t| format!("t{t} inv o0.read ()\n").into_bytes()),
        (0u32..2, 0i64..3).prop_map(|(t, v)| format!("t{t} res o0.read {v}\n").into_bytes()),
        text("\n"),
        text("\r\n"),
        text("  # a comment\n"),
        text("not an event\r\n"),
        text("abandon t1\n"),
        text("abandon nobody\n"),
        text("t0 inv o0.wr\u{e9}te 1\n"),
        text("t0 inv o0.write 1"),
        text("\r"),
        Just(b"\xff\xfe\n".to_vec()),
        Just(b"t0 inv o0.write \xc3\n".to_vec()),
        (0usize..3).prop_map(|over| {
            let mut line = vec![b'x'; MAX_LINE_BYTES - 1 + over];
            line.extend_from_slice(b"\r\n");
            line
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// However the reads fall — a byte at a time, a line across two and
    /// three blocks, the whole stream in one — the daemon's ingest sees
    /// the same lines under the same numbers, so it says and concludes
    /// the same.
    #[test]
    fn the_splitter_feeds_what_lines_would_have(
        lines in prop::collection::vec(wire_line(), 0..24),
        most in prop_oneof![Just(1usize), Just(7), Just(64), Just(100_000), Just(usize::MAX)],
        seed in any::<u64>(),
    ) {
        // Only the stream's last line may go without its newline.
        let last = lines.len().saturating_sub(1);
        let bytes: Vec<u8> = lines
            .iter()
            .enumerate()
            .flat_map(|(i, line)| {
                let open = i < last && !line.ends_with(b"\n");
                line.iter().copied().chain(open.then_some(b'\n'))
            })
            .collect();

        let expected = lines_of(&bytes);
        if expected.iter().all(Result::is_ok) {
            let std_lines: Vec<String> = bytes.lines().map(Result::unwrap).collect();
            let ours: Vec<String> = expected.iter().cloned().map(Result::unwrap).collect();
            prop_assert_eq!(ours, std_lines);
        }
        let mut by_line = register_ingest();
        let replies = expected
            .iter()
            .map(|line| feed(&mut by_line, line.as_deref().map_err(|fault| *fault)))
            .collect();
        let by_line = transcript(&mut by_line, replies);

        let mut by_block = register_ingest();
        let mut splitter = LineSplitter::new();
        let mut replies = Vec::new();
        let mut rng = proptest::test_runner::TestRng::deterministic(seed);
        let mut rest = &bytes[..];
        while !rest.is_empty() {
            let n = 1 + rng.index(most.min(rest.len()));
            let (block, after) = rest.split_at(n);
            rest = after;
            let mut lines = splitter.split(block);
            while let Some(raw) = lines.next_line() {
                replies.push(feed(&mut by_block, raw));
            }
        }
        if let Some(raw) = splitter.finish() {
            replies.push(feed(&mut by_block, raw));
        }
        prop_assert_eq!(transcript(&mut by_block, replies), by_line);
    }
}
