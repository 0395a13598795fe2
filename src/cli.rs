//! Shared plumbing for the `cal-*` command-line binaries: the audited
//! exit-code contract, broken-pipe-safe printing and the `main` wrapper
//! that goes with it, the argument cursor, seed parsing, and a minimal
//! signal flag for clean SIGINT/SIGTERM shutdown.
//!
//! Lives in the umbrella crate (not `cal-core`) because it is CLI policy,
//! not formalism: the library reports rich outcomes, the binaries fold
//! them into this one process-level contract.

use std::io::{self, Write};
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};

use cal_core::format::Format;

/// Exit codes, one per distinguishable outcome, shared by `cal-check`,
/// `cal-serve` and `chaos-soak`. Asserted by `tests/cli_exit_codes.rs`
/// and `tests/stream_serve.rs`, documented in the README.
///
/// The verdict was "accepted"/"consistent" (or the run completed clean).
pub const EXIT_ACCEPTED: u8 = 0;
/// The verdict was "rejected"/"violation".
pub const EXIT_REJECTED: u8 = 1;
/// Undecided: budget, deadline, cancellation or window exceeded.
pub const EXIT_UNDECIDED: u8 = 2;
/// Input, parse or checker error (including an exceeded error budget).
pub const EXIT_ERROR: u8 = 3;
/// Command-line usage error.
pub const EXIT_USAGE: u8 = 4;

/// Broken-pipe-safe `println!`: evaluates to an `io::Result` for the
/// caller to bubble up to [`main`], where `BrokenPipe` is a clean exit 0
/// (so `cal-check ... | head` never panics).
#[macro_export]
macro_rules! outln {
    ($($t:tt)*) => { { use ::std::io::Write as _; writeln!(::std::io::stdout(), $($t)*) } }
}

/// Broken-pipe-safe `eprintln!`; see [`outln!`].
#[macro_export]
macro_rules! errln {
    ($($t:tt)*) => { { use ::std::io::Write as _; writeln!(::std::io::stderr(), $($t)*) } }
}

/// The body of every binary's `main`: a reader that hung up (`head`, a
/// closed pager) is a normal way for output to end, any other I/O error
/// is [`EXIT_ERROR`].
pub fn main(name: &str, try_main: impl FnOnce() -> io::Result<ExitCode>) -> ExitCode {
    match try_main() {
        Ok(code) => code,
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::from(EXIT_ACCEPTED),
        Err(e) => {
            let _ = writeln!(io::stderr(), "{name}: io error: {e}");
            ExitCode::from(EXIT_ERROR)
        }
    }
}

/// A cursor over the command line. Each accessor consumes the next
/// argument and is `None` when it is missing or malformed, so a flag's
/// arm is one line ending in `?` and the caller prints usage on `None`.
#[derive(Debug)]
pub struct Args(std::vec::IntoIter<String>);

impl Args {
    /// The process's arguments, program name skipped.
    pub fn from_env() -> Self {
        Args(std::env::args().skip(1).collect::<Vec<_>>().into_iter())
    }

    /// The next argument, parsed by `f` (for values that are not
    /// [`FromStr`]: seeds, profiles, targets).
    pub fn with<T>(&mut self, f: impl FnOnce(&str) -> Option<T>) -> Option<T> {
        f(&self.0.next()?)
    }

    /// The next argument as a `T`.
    pub fn value<T: FromStr>(&mut self) -> Option<T> {
        self.with(|s| s.parse().ok())
    }

    /// The next argument as a `T` greater than zero.
    pub fn positive<T: FromStr + PartialOrd + Default>(&mut self) -> Option<T> {
        self.value().filter(|n| *n > T::default())
    }

    /// The value of `--format`: `auto` is `Some(None)` (sniff the input),
    /// a format's name pins it, and anything else says why on stderr.
    pub fn format(&mut self, bin: &str) -> Option<Option<Format>> {
        match self.next()?.as_str() {
            "auto" => Some(None),
            name => match name.parse() {
                Ok(format) => Some(Some(format)),
                Err(e) => {
                    let _ = errln!("{bin}: {e}");
                    None
                }
            },
        }
    }
}

impl Iterator for Args {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.0.next()
    }
}

/// `a | b | c`: how `--help` spells a closed set of values. Each such
/// line is generated from the table that defines the set
/// (`TargetKind::ALL`, `Profile::ALL`, `Mode::ALL`), the way the SPEC
/// line comes from the registry.
pub fn one_of<T: std::fmt::Display>(values: impl IntoIterator<Item = T>) -> String {
    values.into_iter().map(|v| v.to_string()).collect::<Vec<_>>().join(" | ")
}

/// Accepts decimal or `0x`-prefixed hex seeds.
pub fn parse_seed(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Installs a SIGINT/SIGTERM handler that sets a process-wide flag
/// instead of killing the process, so long-running binaries (`cal-serve`,
/// `chaos-soak`) can flush their reports and exit under the exit-code
/// contract. Idempotent; a no-op on non-Unix targets (where the flag
/// simply never fires).
pub fn install_shutdown_handler() {
    #[cfg(unix)]
    {
        // Hand-rolled libc binding: the build environment is offline, so
        // no `libc` crate — `signal(2)` is in every libc we target.
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        extern "C" fn on_signal(_signum: i32) {
            SHUTDOWN.store(true, Ordering::SeqCst);
        }
        unsafe {
            signal(SIGINT, on_signal as *const () as usize);
            signal(SIGTERM, on_signal as *const () as usize);
        }
    }
}

/// Whether a shutdown signal has been received since
/// [`install_shutdown_handler`] ran.
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// Test/embedding hook: raises the shutdown flag as if a signal arrived.
pub fn request_shutdown() {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_parse_decimal_and_hex() {
        assert_eq!(parse_seed("42"), Some(42));
        assert_eq!(parse_seed("0xCA11"), Some(0xCA11));
        assert_eq!(parse_seed("0XCA11"), Some(0xCA11));
        assert_eq!(parse_seed("zebra"), None);
    }

    #[test]
    fn args_consume_one_value_per_accessor() {
        let mut args = Args(
            vec!["7", "0", "0x10", "x"]
                .into_iter()
                .map(String::from)
                .collect::<Vec<_>>()
                .into_iter(),
        );
        assert_eq!(args.value::<u32>(), Some(7));
        assert_eq!(args.positive::<usize>(), None, "zero is not positive");
        assert_eq!(args.with(parse_seed), Some(16));
        assert_eq!(args.value::<u64>(), None, "malformed");
        assert_eq!(args.value::<u64>(), None, "missing");
    }

    #[test]
    fn shutdown_flag_round_trips() {
        request_shutdown();
        assert!(shutdown_requested());
    }
}
