//! The untraced run: what a user of the binaries sees.
//!
//! Set-up (generate, write, one discarded warm-up run) eight times, the first
//! left out; then the binary on the fixture over and over for the asked
//! number of seconds; then one probe of the opposite polarity. Every run's
//! exit code is checked against the answer known by construction.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::clock::Clock;
use crate::proc::{self, Env, Exit, Feed};
use crate::workloads::{Bin, Fixture, Scale, Shape, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Fewest timed repetitions a median is taken over.
const MIN_REPETITIONS: usize = 5;

/// One sample per timed repetition (per set-up for `setup_s`).
#[derive(Debug, Clone, Default)]
pub struct Samples {
    pub verdict_s: Vec<f64>,
    pub events_per_s: Vec<f64>,
    pub peak_rss_mb: Vec<f64>,
    pub setup_s: Vec<f64>,
    /// `verdict_s` as it passed on the wall, before scaling to the
    /// reference clock. Printed, not gated.
    pub wall_s: Vec<f64>,
}

impl Samples {
    /// The samples of an end-to-end metric, by its name.
    pub fn of(&self, metric: &str) -> &[f64] {
        match metric {
            "verdict_s" => &self.verdict_s,
            "events_per_s" => &self.events_per_s,
            "peak_rss_mb" => &self.peak_rss_mb,
            "setup_s" => &self.setup_s,
            other => panic!("{other} is not an end-to-end metric"),
        }
    }
}

/// Answers checked against the ones known by construction.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub attempted: u64,
    /// Those whose exit code (or batch summary, or in-process verdict)
    /// differs from the known answer, that crashed, or that ran into the
    /// per-run limit.
    pub failed: u64,
    /// What went wrong, one line per failure.
    pub complaints: Vec<String>,
}

impl Tally {
    pub fn judge(&mut self, what: &str, complaint: Option<String>) {
        self.attempted += 1;
        if let Some(complaint) = complaint {
            self.failed += 1;
            self.complaints.push(format!("{what}: {complaint}"));
        }
    }
}

#[derive(Debug, Clone, Default)]
pub struct EndToEnd {
    pub samples: Samples,
    /// Runs of the binary: warm-ups, timed repetitions and the probe.
    pub tally: Tally,
    pub events: u64,
    /// This process's own peak RSS: no child's can read lower.
    pub rss_floor_mb: f64,
}

/// Runs `workload`'s binary once on `fixture` and says what, if anything,
/// is wrong with how it ended.
pub fn run_once(env: &Env, workload: &Workload, fixture: &Fixture) -> (Exit, Option<String>) {
    let mut command = workload.command(env, &fixture.path);
    let batch = matches!(workload.shape, Shape::SmallRegisters { .. });
    let feed = match workload.bin {
        Bin::Serve => Feed::Pipe(&fixture.path),
        Bin::Check if batch => Feed::KeepLastLine,
        Bin::Check => Feed::None,
    };
    let exit = proc::run(&mut command, feed).unwrap_or_else(|e| {
        // Not being able to start the binary at all is a failed run too.
        Exit {
            wall: Duration::ZERO,
            code: None,
            peak_rss_mb: 0.0,
            last_line: Some(e.to_string()),
        }
    });
    let complaint = if exit.code != Some(fixture.expect_exit) {
        Some(format!(
            "exit {:?}, expected {}",
            exit.code, fixture.expect_exit
        ))
    } else if batch {
        let want = format!(
            "batch: {} files, {} rejected, 0 undecided, 0 error(s)",
            fixture.files, fixture.expect_rejected
        );
        (exit.last_line.as_deref() != Some(&want))
            .then(|| format!("summary {:?}, expected {want:?}", exit.last_line))
    } else {
        None
    };
    (exit, complaint)
}

pub fn run(
    env: &Env,
    workload: &Workload,
    seed: u64,
    seconds: f64,
    scale: Scale,
    dir: &Path,
) -> Result<EndToEnd, String> {
    let io = |e: std::io::Error| format!("cannot write fixtures under {}: {e}", dir.display());
    let mut out = EndToEnd::default();
    let mut clock = Clock::new();
    let width = workload.width();
    let quick = scale == Scale::Quick;
    let mut fixture = None;
    // The first set-up of a run creates the files, later ones overwrite them
    // in place: it is left out, except when it is the only one.
    for nth in 0..if quick { 1 } else { SETUPS + 1 } {
        let (written, lap) = clock.time(width, || {
            let written = workload.write_fixture(seed, scale, false, dir)?;
            let (_, complaint) = run_once(env, workload, &written);
            Ok((written, complaint))
        });
        let (written, complaint) = written.map_err(io)?;
        out.tally.judge("warm-up", complaint);
        if nth > 0 || quick {
            out.samples.setup_s.push(lap.scaled_s);
        }
        fixture = Some(written);
    }
    let fixture = fixture.expect("at least one set-up");
    out.events = fixture.events;

    let start = Instant::now();
    while out.samples.verdict_s.len() < if quick { 1 } else { MIN_REPETITIONS }
        || (!quick && start.elapsed().as_secs_f64() < seconds)
    {
        let ((exit, complaint), lap) = clock.time(width, || run_once(env, workload, &fixture));
        out.tally.judge("timed", complaint);
        // `exec` floors the child's peak at ours (about 3 MiB, which is why
        // fixtures are streamed and never held): a reading down there is as
        // much this process's as the binary's.
        out.rss_floor_mb = out.rss_floor_mb.max(proc::own_peak_rss_mb());
        // The child's own wall (spawn to reaped) at the interval's scale.
        let verdict_s = exit.wall.as_secs_f64() * lap.scaled_s / lap.wall_s;
        out.samples.verdict_s.push(verdict_s);
        out.samples.wall_s.push(exit.wall.as_secs_f64());
        out.samples
            .events_per_s
            .push(fixture.events as f64 / verdict_s);
        out.samples.peak_rss_mb.push(exit.peak_rss_mb);
    }

    let probe = workload
        .write_fixture(seed, scale, true, &dir.join("probe"))
        .map_err(io)?;
    let (_, complaint) = run_once(env, workload, &probe);
    out.tally.judge("probe", complaint);
    Ok(out)
}
