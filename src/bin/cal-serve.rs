//! `cal-serve` — a long-running streaming checker daemon: ingest
//! invoke/response events line-by-line over stdin or a TCP socket, check
//! them online against a built-in specification with bounded memory
//! ([`cal::core::stream`]), and emit verdicts plus stream reports
//! continuously in the `--stats-json` wire format.
//!
//! ```text
//! Usage: cal-serve <SPEC> [--spec <FILE.cal>] [--format <F>] [--object <N>]
//!                  [--causal] [--window <N>] [--checkpoint-every <N>]
//!                  [--max-states <N>] [--max-nodes <N>] [--deadline-ms <N>]
//!                  [--error-budget <N>] [--listen <ADDR:PORT>] [--ack]
//!                  [--stats-json <PATH|->] [--stats-every <N>] [--quiet]
//!
//!   SPEC     a built-in checkable under `cal-check --mode cal` — `--help`
//!            lists them, from the one table in `cal_specs::registry` — or a
//!            name defined by `--spec`
//!
//!   --spec <FILE.cal>       load user specs from a .cal file
//!                           (docs/SPEC_DSL.md) — loaded names shadow the
//!                           built-ins; with a single-spec file the
//!                           positional SPEC may be omitted; a compile
//!                           failure prints the diagnostic and exits 3
//!
//!   --format <F>            wire format: auto (default) | native | jepsen |
//!                           kvlog — auto sniffs the first contentful line and
//!                           latches
//!
//!   --causal                check against the happens-before partial order
//!                           instead of real time: kvlog `hb` lines (and the
//!                           wire's `hb <i> <j>` / `hb session` events)
//!                           constrain the window searches, and retirement
//!                           cuts are hb-closed — a segment is only retired
//!                           once no declared edge points back into it. An
//!                           edge whose target is already retired latches
//!                           `undecided: late happens-before edge`. Without
//!                           the flag, edges are counted but inert.
//!
//!   --window <N>            cap on open-or-undecided invocations buffered
//!                           in the search window (default 4096, 0 = unbounded)
//!   --checkpoint-every <N>  retire + re-evaluate every N admitted events
//!                           (default 128)
//!   --max-states <N>        cap on the reachable states carried across a
//!                           retirement boundary, per object (default 64)
//!   --max-nodes / --deadline-ms   per-checkpoint search budget
//!   --error-budget <N>      malformed or ill-formed events tolerated before
//!                           the stream is refused (default 16)
//!   --listen <ADDR:PORT>    serve TCP clients instead of stdin (port 0 picks
//!                           a free port; the bound address is printed first)
//!   --ack                   acknowledge every line: ok | ign | rej <why> |
//!                           nak saturated | refused <verdict>; a line that
//!                           closes the stream gets its own ack, if any,
//!                           then refused <verdict>
//!   --stats-json <PATH|->   write the stream report JSON to PATH (latest
//!                           snapshot) or append lines to stdout with -
//!   --stats-every <N>       also emit a report every N admitted events
//!                           (each time the count crosses a multiple of N)
//!   --quiet                 suppress verdict-transition and summary lines
//! ```
//!
//! ## Wire format
//!
//! One event per line in any [`cal::core::format`] format — the native
//! `cal_core::text` history format (`t<N> inv <object>.<method> <value>`
//! / `t<N> res <object>.<method> <value>`), Jepsen-style EDN/JSON records
//! (`{:process 0, :type :invoke, :f :write, :value 1, :key 0}`), or
//! timestamped kvlog lines (`<start> <end|-|?> <client> put|get <key>
//! [<value>]`). `--format` pins the format; the default sniffs the first
//! contentful line and latches. Decoding is incremental
//! ([`cal::core::format::StreamDecoder`]): a Jepsen `:fail`/`:info`
//! record and a kvlog line with no end timestamp abandon the thread's
//! pending operation, which the checker then explains through the
//! specification's timeout-admission completions. Malformed lines are
//! quarantined against `--error-budget` with line-anchored diagnostics,
//! whatever the format.
//!
//! Blank lines and `#` comments are ignored. Two control lines ride
//! along: `bye` ends the stream (TCP: closes the session cleanly) and
//! `abandon t<N>` declares thread N's client dead, sealing its pending
//! operation via the specification's timeout-admission completions at
//! the next retirement boundary.
//!
//! A line ends at `\n` (`\r\n` is stripped too; the last line needs no
//! terminator) and takes the next line number, whatever it holds. A line
//! that is not UTF-8 is quarantined as `line N: invalid UTF-8` and a
//! line of more than 65536 bytes as `line N: longer than 65536 bytes`
//! (its bytes are dropped as they arrive, so a stream with no newline
//! costs no memory); both count against `--error-budget` like any other
//! malformed line, and the stream goes on.
//!
//! ## Backpressure and degradation
//!
//! When the window cap is hit and retirement cannot free space, TCP
//! clients running with `--ack` are NAKed (`nak saturated`) and expected
//! to retry — the event is not admitted, reads continue. NAK-and-retry
//! requires the retried line to decode cleanly a second time, so it is
//! only offered on the stateless native format; Jepsen and kvlog lines
//! (whose decode has already recorded the line's effect) resolve
//! saturation server-side instead. Without an ack channel (stdin, or TCP
//! without `--ack`), and on those stateful formats, the daemon forces a
//! checkpoint, retries once, and then degrades explicitly: the verdict
//! latches `undecided: window exceeded`, admitted events are kept, and
//! the rest of the stream is drained without admission — bounded memory,
//! never an abort.
//!
//! A TCP client that disconnects (or says `bye`) with operations still
//! pending has them abandoned automatically. An interrupting SIGINT or
//! SIGTERM flushes a final report before exiting.
//!
//! ## One daemon, two transports
//!
//! Both transports move bytes, not lines: a `read` of up to 16 KiB
//! returns whatever has arrived — one line from a client that waits for
//! its ack, a full block from a pipe — and
//! [`cal::core::stream::LineSplitter`], the one byte → line step, cuts
//! it in place into the `&str` lines the daemon is fed; only a line that
//! straddles two reads is copied. A `--listen` session reads and splits
//! on its own thread. Stdin is read by a reader thread that hands each
//! block to the main loop over a channel two deep, so the main loop can
//! wait with a timeout and notice a signal within 100 ms; between lines
//! it polls the same flag.
//!
//! The line policy lives in the library ([`cal::core::stream::Ingest`]);
//! everything said about a line — ack, quarantine diagnostic, `verdict:`
//! line, `--stats-every` snapshot — is `Daemon::feed`, and the closing
//! report and exit code are `Daemon::finish`. Stdin mode owns the daemon;
//! `--listen` shares the same value behind one lock. So both modes tell a
//! client the same thing: a line that closes the stream (violation,
//! degradation, exceeded error budget) gets its own ack, if it has one,
//! followed by `refused <verdict>`; a verdict change prints `verdict: …`
//! (unless `--quiet`) under `--listen` as on stdin; and a line's number
//! in diagnostics is drawn under the same lock as its admission, so two
//! TCP clients' lines are numbered in the order they were applied. A
//! closing `undecided: checker error` is followed on stderr by
//! `cal-serve: checker error: <message>`, `--quiet` or not.
//!
//! Exit status (the audited contract, shared with `cal-check`):
//! 0 = consistent, 1 = violation, 2 = undecided (budget, deadline or
//! window exceeded), 3 = input/checker error (including an exceeded
//! error budget), 4 = usage. A closed stdout pipe exits 0.
//!
//! Example:
//!
//! ```bash
//! printf 't1 inv o0.exchange 3\nt2 inv o0.exchange 4\nt1 res o0.exchange (true,4)\nt2 res o0.exchange (true,3)\n' \
//!   | cargo run --bin cal-serve -- exchanger --stats-json -
//! ```

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use cal::cli::{
    self, install_shutdown_handler, parse_seed, shutdown_requested, Args, EXIT_ACCEPTED,
    EXIT_ERROR, EXIT_REJECTED, EXIT_UNDECIDED, EXIT_USAGE,
};
use cal::core::check::CheckOptions;
use cal::core::format::Format;
use cal::core::spec::CaSpec;
use cal::core::stream::{
    Ingest, LineSplitter, RawLine, Reply, StreamOptions, StreamVerdict, UndecidedWhy,
};
use cal::core::{ObjectId, ThreadId};
use cal::specs::registry::{self, CheckMode, Selected, Visitor};
use cal::{errln, outln};
use parking_lot::Mutex;

fn usage() -> io::Result<ExitCode> {
    errln!(
        "usage: cal-serve <SPEC> [--spec <FILE.cal>] [--format auto|native|jepsen|kvlog]\n\
         \x20                [--object <N>] [--causal] [--window <N>] [--checkpoint-every <N>]\n\
         \x20                [--max-states <N>] [--max-nodes <N>] [--deadline-ms <N>]\n\
         \x20                [--error-budget <N>] [--listen <ADDR:PORT>] [--ack]\n\
         \x20                [--stats-json <PATH|->] [--stats-every <N>] [--quiet]\n\
         \n\
         SPEC: {}\n\
         \n\
         --spec loads user specs from a .cal file (docs/SPEC_DSL.md); loaded names\n\
         shadow built-ins, and with a single-spec file SPEC may be omitted\n\
         --causal checks against happens-before instead of real time: declared kvlog\n\
         `hb` edges constrain the search and retirement cuts are hb-closed\n\
         \n\
         events on stdin (or per TCP client): one event per line in the native,\n\
         jepsen, or kvlog format (--format auto sniffs the first line and latches);\n\
         control lines: 'bye' (end of stream), 'abandon t<N>' (client death)\n\
         \n\
         exit status: 0 consistent, 1 violation, 2 undecided, 3 input/checker error, 4 usage",
        registry::builtin_names(Some(CheckMode::Cal))
    )?;
    Ok(ExitCode::from(EXIT_USAGE))
}

/// Parsed command line.
struct Cfg {
    spec_name: Option<String>,
    spec_file: Option<String>,
    /// Pinned wire format; `None` sniffs the first contentful line.
    format: Option<Format>,
    object: ObjectId,
    window: usize,
    checkpoint_every: usize,
    max_states: usize,
    max_nodes: u64,
    deadline: Option<Duration>,
    error_budget: u64,
    listen: Option<String>,
    ack: bool,
    stats_json: Option<String>,
    stats_every: u64,
    quiet: bool,
    /// Causal mode: retirement cuts must be hb-closed and declared
    /// `hb` edges constrain the window searches.
    causal: bool,
}

impl Cfg {
    /// `None` is a usage error: an unknown flag, or a missing or
    /// malformed value.
    fn parse(mut args: Args) -> Option<Cfg> {
        let mut cfg = Cfg {
            spec_name: None,
            spec_file: None,
            format: None,
            object: ObjectId(0),
            window: 4096,
            checkpoint_every: 128,
            max_states: 64,
            max_nodes: CheckOptions::default().max_nodes,
            deadline: None,
            error_budget: 16,
            listen: None,
            ack: false,
            stats_json: None,
            stats_every: 0,
            quiet: false,
            causal: false,
        };
        while let Some(a) = args.next() {
            match a.as_str() {
                "--format" => cfg.format = args.format("cal-serve")?,
                "--object" => cfg.object = ObjectId(args.value()?),
                "--window" => cfg.window = args.value()?,
                "--checkpoint-every" => cfg.checkpoint_every = args.positive()?,
                "--max-states" => cfg.max_states = args.positive()?,
                "--max-nodes" => cfg.max_nodes = args.with(parse_seed).filter(|n| *n > 0)?,
                "--deadline-ms" => cfg.deadline = Some(Duration::from_millis(args.value()?)),
                "--error-budget" => cfg.error_budget = args.value()?,
                "--listen" => cfg.listen = Some(args.next()?),
                "--spec" => cfg.spec_file = Some(args.next()?),
                "--ack" => cfg.ack = true,
                "--stats-json" => cfg.stats_json = Some(args.next()?),
                "--stats-every" => cfg.stats_every = args.value()?,
                "--quiet" => cfg.quiet = true,
                "--causal" => cfg.causal = true,
                "-h" | "--help" => return None,
                _ if cfg.spec_name.is_none() => cfg.spec_name = Some(a),
                _ => return None,
            }
        }
        Some(cfg)
    }
}

fn main() -> ExitCode {
    cli::main("cal-serve", try_main)
}

fn try_main() -> io::Result<ExitCode> {
    let Some(cfg) = Cfg::parse(Args::from_env()) else {
        return usage();
    };
    // `--spec` loads and compiles before any event is read, so a bad
    // .cal file fails fast with its diagnostic (exit 3).
    let loaded = match cfg.spec_file.as_deref().map(registry::load).transpose() {
        Ok(loaded) => loaded,
        Err(e) => {
            errln!("cal-serve: {e}")?;
            return Ok(ExitCode::from(EXIT_ERROR));
        }
    };
    // The stream checker decides CAL membership, so it serves exactly the
    // specs `cal-check --mode cal` does.
    let name = cfg.spec_name.as_deref();
    let selected = match Selected::resolve(loaded.as_ref(), name, CheckMode::Cal) {
        Ok(selected) => selected,
        Err(e) => {
            errln!("cal-serve: {e}")?;
            return usage();
        }
    };
    install_shutdown_handler();
    selected.visit(CheckMode::Cal, cfg.object, Serve(&cfg))
}

/// The daemon, waiting for the registry to say what type the spec has.
struct Serve<'a>(&'a Cfg);

impl Visitor for Serve<'_> {
    type Out = io::Result<ExitCode>;

    fn ca<S: CaSpec + Send + 'static>(self, spec: S) -> io::Result<ExitCode> {
        let cfg = self.0;
        let options = StreamOptions {
            max_window: cfg.window,
            checkpoint_every: cfg.checkpoint_every,
            max_states: cfg.max_states,
            check: CheckOptions {
                max_nodes: cfg.max_nodes,
                deadline: cfg.deadline,
                ..CheckOptions::default()
            },
            causal: cfg.causal,
        };
        let daemon = Daemon {
            cfg,
            ingest: Ingest::new(spec, options, cfg.format),
            start: Instant::now(),
            budget_exceeded: false,
            last_verdict: StreamVerdict::Consistent,
        };
        match &cfg.listen {
            None => serve_stdin(daemon),
            Some(addr) => serve_tcp(daemon, addr),
        }
    }
}

/// Emits the report to the `--stats-json` target: `-` appends a line to
/// stdout (a report *stream*), a path is overwritten with the latest
/// snapshot.
fn emit_report(cfg: &Cfg, json: &str) -> io::Result<()> {
    match cfg.stats_json.as_deref() {
        Some("-") => {
            outln!("{json}")?;
            io::stdout().flush()
        }
        Some(path) => {
            std::fs::write(path, format!("{json}\n"))
                .or_else(|e| errln!("cal-serve: cannot write {path}: {e}"))
        }
        None => Ok(()),
    }
}

/// What the session that fed a line does next.
#[derive(PartialEq)]
enum Next {
    Continue,
    /// The client said `bye`: stdin mode ends the stream, a TCP session
    /// ends alone.
    Bye,
    /// The stream is closed for everyone: violation, degradation, or an
    /// exceeded error budget.
    Close,
}

/// The one daemon both modes run: the ingest policy
/// ([`cal::core::stream::Ingest`]) plus everything said about it — acks,
/// quarantine diagnostics against `--error-budget`, `verdict:` lines,
/// `--stats-every` snapshots, the final report and the exit code.
/// `serve_stdin` owns it outright; `serve_tcp` shares it behind one lock.
struct Daemon<'a, S: CaSpec> {
    cfg: &'a Cfg,
    ingest: Ingest<S>,
    start: Instant,
    budget_exceeded: bool,
    last_verdict: StreamVerdict,
}

impl<S: CaSpec> Daemon<'_, S> {
    /// Feeds one line as the splitter handed it over and says what it
    /// did: the `--ack` text for the line's sender (empty when the line
    /// has no answer of its own) and what its session does next. A line
    /// that closes the stream gets its own ack, then `refused <verdict>`.
    /// `nak` and `invoked` are [`Ingest::line`]'s.
    fn feed(
        &mut self,
        raw: RawLine<'_>,
        nak: bool,
        invoked: &mut Vec<ThreadId>,
    ) -> io::Result<(Cow<'static, str>, Next)> {
        let cfg = self.cfg;
        let before = self.ingest.checker.stats().events;
        let mut next = Next::Continue;
        let reply = match raw {
            Ok(text) => self.ingest.line(text, nak, invoked),
            Err(fault) => self.ingest.fault(fault),
        };
        let own: Cow<'static, str> = match reply {
            Reply::Ignored => "ign".into(),
            Reply::Admitted => "ok".into(),
            Reply::Saturated => "nak saturated".into(),
            Reply::Bye => {
                next = Next::Bye;
                "ok".into()
            }
            Reply::Refused => {
                next = Next::Close;
                "".into()
            }
            Reply::Quarantined(why) => {
                if !cfg.quiet {
                    errln!("cal-serve: quarantined: {why}")?;
                }
                let faults = self.ingest.quarantined();
                if faults > cfg.error_budget {
                    let budget = cfg.error_budget;
                    errln!("cal-serve: error budget exceeded ({faults} > {budget}), refusing stream")?;
                    self.budget_exceeded = true;
                    next = Next::Close;
                }
                format!("rej {why}").into()
            }
        };
        let verdict = self.ingest.checker.verdict();
        let events = self.ingest.checker.stats().events;
        if next == Next::Continue && verdict != self.last_verdict {
            if !cfg.quiet {
                outln!("verdict: {verdict} ({events} events)")?;
                io::stdout().flush()?;
            }
            if verdict == StreamVerdict::Violation {
                next = Next::Close;
            }
            self.last_verdict = verdict.clone();
        }
        if next != Next::Close {
            // A snapshot each time the admitted-event count crosses a
            // multiple of N, however many events the line carried.
            if cfg.stats_every > 0 && events / cfg.stats_every > before / cfg.stats_every {
                emit_report(cfg, &self.ingest.checker.report(self.start.elapsed()).to_json())?;
            }
            return Ok((own, next));
        }
        let refused = format!("refused {verdict}");
        Ok((if own.is_empty() { refused } else { format!("{own}\n{refused}") }.into(), next))
    }

    /// Closes the stream: final checkpoint, report, summary, and the fold
    /// of the closing state into the exit-code contract.
    fn finish(&mut self) -> io::Result<ExitCode> {
        let cfg = self.cfg;
        let checker = &mut self.ingest.checker;
        let verdict = checker.finish();
        let report = checker.report(self.start.elapsed());
        emit_report(cfg, &report.to_json())?;
        if !cfg.quiet {
            errln!("cal-serve: {}", report.summary())?;
            outln!("verdict: {verdict} ({} events)", checker.stats().events)?;
            io::stdout().flush()?;
        }
        let checker_error = verdict == StreamVerdict::Undecided(UndecidedWhy::CheckerError);
        if let (true, Some(message)) = (checker_error, checker.last_error()) {
            errln!("cal-serve: checker error: {message}")?;
        }
        Ok(ExitCode::from(match verdict {
            _ if self.budget_exceeded || checker_error => EXIT_ERROR,
            StreamVerdict::Consistent => EXIT_ACCEPTED,
            StreamVerdict::Violation => EXIT_REJECTED,
            StreamVerdict::Undecided(_) => EXIT_UNDECIDED,
        }))
    }
}

/// Writes `text` (one or two ack lines) to a client that asked for acks.
fn ack(on: bool, sink: &mut impl Write, text: &str) -> io::Result<()> {
    if on && !text.is_empty() {
        writeln!(sink, "{text}")?;
        sink.flush()?;
    }
    Ok(())
}

/// The most one `read` is asked for, on stdin and on a client's socket.
/// Three of these are the most stdin mode holds: two in the channel, one
/// being split.
const BLOCK_BYTES: usize = 16 * 1024;

/// The single-session mode: events arrive on stdin; backpressure means
/// pausing reads (the pipe fills) and, if that cannot help, explicit
/// degradation. The daemon is owned, not shared: no lock on this path.
fn serve_stdin<S: CaSpec>(mut daemon: Daemon<'_, S>) -> io::Result<ExitCode> {
    let cfg = daemon.cfg;
    // A reader thread, so the main loop can wait with a timeout and see
    // the shutdown flag within 100 ms: a blocking `read` is restarted
    // after a signal, which would otherwise go unnoticed until the next
    // byte. It moves bytes, not lines: whatever one `read` returned —
    // one line from a client waiting for its ack, a full block from a
    // pipe — crosses the channel as it is, and the main loop splits it.
    // The channel is two deep: when the checker falls behind, the reader
    // blocks on send, stops draining stdin, and the pipe fills — that
    // *is* the backpressure, and it keeps ingest memory O(1) instead of
    // buffering an unbounded backlog of a fast producer's bytes.
    let (tx, rx) = std::sync::mpsc::sync_channel::<Vec<u8>>(2);
    std::thread::spawn(move || {
        let mut stdin = io::stdin().lock();
        let mut block = [0u8; BLOCK_BYTES];
        loop {
            match stdin.read(&mut block) {
                Ok(n) if n > 0 => {
                    if tx.send(block[..n].to_vec()).is_err() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // End of input; an unreadable stdin ends the stream too.
                Ok(_) | Err(_) => break,
            }
        }
    });
    let mut splitter = LineSplitter::new();
    let mut invoked = Vec::new();
    // No ack channel a client could resend on: saturation resolves
    // inside the ingest policy.
    let mut feed = |raw: RawLine<'_>| -> io::Result<Next> {
        invoked.clear();
        let (text, next) = daemon.feed(raw, false, &mut invoked)?;
        ack(cfg.ack, &mut io::stdout(), &text)?;
        Ok(next)
    };
    let interrupted = || -> io::Result<bool> {
        let stop = shutdown_requested();
        if stop && !cfg.quiet {
            errln!("cal-serve: shutdown signal, flushing final report")?;
        }
        Ok(stop)
    };
    'stream: while !interrupted()? {
        let block = match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(block) => block,
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => continue,
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                if let Some(raw) = splitter.finish() {
                    feed(raw)?;
                }
                break;
            }
        };
        let mut lines = splitter.split(&block);
        while let Some(raw) = lines.next_line() {
            if feed(raw)? != Next::Continue || interrupted()? {
                break 'stream;
            }
        }
    }
    daemon.finish()
}

/// The multi-client mode: every connection is a session whose pending
/// operations are abandoned if it disconnects; saturation NAKs the
/// offending client (with `--ack`) instead of degrading the stream.
fn serve_tcp<S: CaSpec + Send>(daemon: Daemon<'_, S>, addr: &str) -> io::Result<ExitCode> {
    let cfg = daemon.cfg;
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    // Port 0 picks a free port; announce the real address first so
    // clients (and tests) can find it.
    outln!("cal-serve: listening on {}", listener.local_addr()?)?;
    io::stdout().flush()?;
    // A line's number, decode, admission and everything printed about it
    // happen under this one lock, so sessions see one order.
    let daemon = Mutex::new(daemon);
    // Which session an event thread last invoked from, for disconnect
    // handling. Never taken while holding `daemon` except at session end,
    // where it is taken first.
    let owners: Mutex<HashMap<ThreadId, u64>> = Mutex::new(HashMap::new());
    // Raised when a line closes the stream: stop accepting, wind clients
    // down.
    let fatal = AtomicBool::new(false);
    let mut sessions = 0u64;
    std::thread::scope(|scope| -> io::Result<()> {
        // Live connections, so shutdown can unblock readers.
        let mut conns: Vec<TcpStream> = Vec::new();
        while !shutdown_requested() && !fatal.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _)) => {
                    sessions += 1;
                    let session = sessions;
                    conns.extend(stream.try_clone().ok());
                    let (daemon, owners, fatal) = (&daemon, &owners, &fatal);
                    scope.spawn(move || client(daemon, owners, fatal, cfg.ack, stream, session));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(25));
                }
                Err(e) => {
                    errln!("cal-serve: accept error: {e}")?;
                    break;
                }
            }
        }
        // Unblock every client reader; the scope then waits for them to
        // finish their disconnect handling (abandoning pending ops).
        for conn in &conns {
            let _ = conn.shutdown(Shutdown::Both);
        }
        Ok(())
    })?;
    if !cfg.quiet {
        errln!("cal-serve: {sessions} sessions served")?;
    }
    daemon.into_inner().finish()
}

/// One client session: feed its lines to the shared daemon, ack per the
/// policy, and abandon its pending operations when it goes away.
fn client<S: CaSpec>(
    daemon: &Mutex<Daemon<'_, S>>,
    owners: &Mutex<HashMap<ThreadId, u64>>,
    fatal: &AtomicBool,
    acks: bool,
    stream: TcpStream,
    session: u64,
) {
    let Ok(mut writer) = stream.try_clone() else { return };
    let mut stream = stream;
    let mut block = [0u8; BLOCK_BYTES];
    let mut splitter = LineSplitter::new();
    let mut threads: HashSet<ThreadId> = HashSet::new();
    let mut invoked = Vec::new();
    // Feeds one of the session's lines; false once the session is over.
    let mut feed = |raw: RawLine<'_>| -> bool {
        // Saturation surfaces as a NAK only when this client can be told
        // (`--ack`) and the resend is sound; `Ingest::line` decides.
        let fed = daemon.lock().feed(raw, acks, &mut invoked);
        // Remember which threads this session drives, admitted or not, so
        // even a still-pending (or NAKed) first invocation is abandoned
        // on disconnect.
        for t in invoked.drain(..) {
            threads.insert(t);
            owners.lock().insert(t, session);
        }
        // The daemon's own stdout or stderr failing ends the stream like
        // any other closing line; `finish` then reports the error.
        let (text, next) = fed.unwrap_or((Cow::Borrowed(""), Next::Close));
        let _ = ack(acks, &mut writer, &text);
        if next == Next::Close {
            fatal.store(true, Ordering::SeqCst);
        }
        next == Next::Continue
    };
    let live = || !shutdown_requested() && !fatal.load(Ordering::SeqCst);
    'session: while live() {
        let n = match stream.read(&mut block) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            // A connection torn down mid-line: the line never arrived.
            Err(_) => break,
        };
        if n == 0 {
            if let Some(raw) = splitter.finish() {
                feed(raw);
            }
            break;
        }
        let mut lines = splitter.split(&block[..n]);
        while let Some(raw) = lines.next_line() {
            if !(feed(raw) && live()) {
                break 'session;
            }
        }
    }
    // Session over (clean or crashed): no one will ever respond to its
    // in-flight operations — seal them.
    let owners = owners.lock();
    let mut daemon = daemon.lock();
    for t in threads {
        if owners.get(&t) == Some(&session) {
            daemon.ingest.checker.abandon_thread(t);
        }
    }
}
