//! Building and running the real binaries: trace bytes in, exit code out.

use std::fs::File;
use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the hand-declared `rusage` below is the 64-bit Linux layout");

// There is no libc crate offline, and `std::process` does not expose the
// child's resource usage, so `wait4` and `kill` are declared by hand.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    /// Peak resident set size, in KiB.
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGKILL: i32 = 9;

/// No single run may take longer; one that does is killed and counts as
/// failed.
pub const RUN_LIMIT: Duration = Duration::from_secs(120);

/// This address space's own peak RSS in MiB (`VmHWM`). A child's `ru_maxrss`
/// can never read lower than its parent's at the spawn: `exec` folds the old
/// address space's high-water mark into the new process's. (`getrusage` on
/// ourselves would not do: it also carries what `cargo run` peaked at before
/// it became this process.)
pub fn own_peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            line.trim().strip_suffix("kB")?.trim().parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// How one child ended.
#[derive(Debug, Clone)]
pub struct Exit {
    /// Spawn to reaped, as it passed. (The caller scales it.)
    pub wall: Duration,
    /// `None` when a signal ended it, ours after [`RUN_LIMIT`] included.
    pub code: Option<i32>,
    pub peak_rss_mb: f64,
    /// The last line the child wrote to stdout, when it was captured.
    pub last_line: Option<String>,
}

/// What the child's stdin and stdout are connected to.
pub enum Feed<'a> {
    /// Nothing in, stdout to null: `cal-check` on a file.
    None,
    /// Nothing in, stdout drained, last line kept: `cal-check --batch`.
    KeepLastLine,
    /// The file's bytes through a pipe by one writer thread, as fast as the
    /// pipe accepts them; stdout to null: `cal-serve` on stdin.
    Pipe(&'a Path),
}

/// Runs `command` to its end and reaps it with `wait4`.
pub fn run(command: &mut Command, feed: Feed<'_>) -> io::Result<Exit> {
    command.stderr(Stdio::null());
    match feed {
        Feed::None => command.stdin(Stdio::null()).stdout(Stdio::null()),
        Feed::KeepLastLine => command.stdin(Stdio::null()).stdout(Stdio::piped()),
        Feed::Pipe(_) => command.stdin(Stdio::piped()).stdout(Stdio::null()),
    };
    let start = Instant::now();
    let mut child = command.spawn()?;
    let mut last_line = None;
    let exit = std::thread::scope(|scope| {
        if let Feed::Pipe(path) = feed {
            let mut stdin = child.stdin.take().expect("stdin was piped");
            scope.spawn(move || {
                // A daemon that latches a violation exits with input still
                // to come; the broken pipe is then the expected end.
                let _ = File::open(path).and_then(|mut file| io::copy(&mut file, &mut stdin));
            });
        }
        if let Some(stdout) = child.stdout.take() {
            last_line = BufReader::new(stdout).lines().map_while(Result::ok).last();
        }
        reap(&child, start)
    });
    Ok(Exit { last_line, ..exit })
}

/// Reaps `child`, spawned at `start`, with `wait4`, killing it first if
/// [`RUN_LIMIT`] passes.
fn reap(child: &Child, start: Instant) -> Exit {
    let pid = child.id() as i32;
    let (done, watchdog) = mpsc::channel::<()>();
    let (status, usage) = std::thread::scope(|scope| {
        scope.spawn(move || {
            if watchdog.recv_timeout(RUN_LIMIT).is_err() {
                // SAFETY: plain syscall; the pid is ours and not yet reaped,
                // because the reaper below has not returned.
                unsafe { kill(pid, SIGKILL) };
            }
        });
        let (mut status, mut usage) = (0i32, Rusage::default());
        // SAFETY: both out-pointers are valid for the call; `pid` is a child
        // of this process that nothing else waits for (`Child::wait` is
        // never called on it).
        let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        assert_eq!(reaped, pid, "wait4: {}", io::Error::last_os_error());
        let _ = done.send(());
        (status, usage)
    });
    Exit {
        wall: start.elapsed(),
        // `WIFEXITED` / `WEXITSTATUS`.
        code: (status & 0x7f == 0).then_some((status >> 8) & 0xff),
        peak_rss_mb: usage.maxrss as f64 / 1024.0,
        last_line: None,
    }
}

/// Like [`run`] with [`Feed::Pipe`], for a child whose stdin the caller
/// feeds and whose stdout the caller reads (the paced `--ack` replay).
pub fn run_with<T>(
    command: &mut Command,
    talk: impl FnOnce(std::process::ChildStdin, std::process::ChildStdout) -> T,
) -> io::Result<(T, Exit)> {
    command
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    let start = Instant::now();
    let mut child = command.spawn()?;
    let stdin = child.stdin.take().expect("stdin was piped");
    let stdout = child.stdout.take().expect("stdout was piped");
    let out = talk(stdin, stdout);
    Ok((out, reap(&child, start)))
}

/// Where things are: the repository, the build directory, the binaries.
#[derive(Debug, Clone)]
pub struct Env {
    pub root: PathBuf,
    /// Scratch space for fixtures, inside the build directory.
    pub work: PathBuf,
    pub cal_check: PathBuf,
    pub cal_serve: PathBuf,
    /// Seconds `cargo build` took (a fraction of one when up to date).
    pub build_s: f64,
}

impl Env {
    /// Builds `cal-check` and `cal-serve` in release mode into the build
    /// directory this executable itself lives in, so one `CARGO_TARGET_DIR`
    /// holds everything and nothing is written elsewhere.
    pub fn build() -> Result<Env, String> {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .ok_or("the benchmark directory has no parent")?
            .to_path_buf();
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        // <target>/<profile>/pipeline
        let target = exe
            .ancestors()
            .nth(2)
            .ok_or_else(|| format!("{} is not inside a cargo target directory", exe.display()))?
            .to_path_buf();
        let start = Instant::now();
        let output = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
            .args(["build", "--release", "--offline", "--quiet"])
            .args(["--bin", "cal-check", "--bin", "cal-serve"])
            .arg("--manifest-path")
            .arg(root.join("Cargo.toml"))
            .arg("--target-dir")
            .arg(&target)
            .stdin(Stdio::null())
            .output()
            .map_err(|e| format!("cannot run cargo: {e}"))?;
        if !output.status.success() {
            return Err(format!(
                "cargo build of cal-check and cal-serve failed:\n{}",
                String::from_utf8_lossy(&output.stderr)
            ));
        }
        Ok(Env {
            work: target.join("pipeline-work"),
            cal_check: target.join("release/cal-check"),
            cal_serve: target.join("release/cal-serve"),
            build_s: start.elapsed().as_secs_f64(),
            root,
        })
    }
}

/// Reads a whole file; the error names it.
pub fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}
