//! The seven workloads: what is generated, what is run on it, and the answer
//! known by construction.
//!
//! Sizes were calibrated on the parent commit (2-core host, release build)
//! so one run of the binary takes 0.4–0.9 s: the contract gives a workload
//! about twenty seconds a run for three set-ups, the timed repetitions and a
//! probe. The issue's sizes (1–7 s a run) were cut once, to these; the shapes
//! were not. `benchmark/README.md` records both.

use std::io::{self, BufWriter, Seek, Write};
use std::path::{Path, PathBuf};
use std::process::Command;

use cal_core::format::{self, Format};
use cal_core::{text, CaElement, CaTrace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::clock::Width;
use crate::gen::{self, KvShape, Piece, Wire};
use crate::proc::Env;

/// Which binary a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bin {
    Check,
    Serve,
}

/// What a workload's generator makes.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// One key-value history, written line by line.
    Kv { shape: KvShape, wire: Wire },
    /// One kvlog: a key-value history whose operations all take effect at
    /// their invocation, then `hb` lines — one reads-from edge per get.
    CausalKv { clients: u32, keys: u32, ops: usize },
    /// One exchanger history of fully-overlapping windows.
    Exchanger { windows: usize },
    /// A directory of register histories of 24–64 operations by 3 clients.
    SmallRegisters { files: usize },
}

/// Full size, or every workload at a twentieth for a smoke run whose numbers
/// mean nothing and are labelled so.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Quick,
}

impl Scale {
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Quick => "quick",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why it is here, in one line (`BENCHMARK.json` repeats it).
    pub why: &'static str,
    pub bin: Bin,
    pub spec: &'static str,
    /// Arguments after the spec and, for `cal-check`, the fixture.
    pub args: &'static [&'static str],
    pub shape: Shape,
    /// Whether the timed input holds a violation. The probe — the same
    /// generator at a tenth of the size — has the opposite polarity, so a
    /// checker that always gives the timed answer fails it.
    pub violation: bool,
}

const fn kv(clients: u32, keys: u32, ops: usize, mean_burst: usize, eager: f64) -> KvShape {
    KvShape {
        clients,
        keys,
        ops,
        mean_burst,
        eager,
    }
}

pub const ALL: [Workload; 7] = [
    Workload {
        name: "check-register-long",
        why: "one long single-object history, accepted, one search node an operation: per-node expand cost is everything (cubic in length); decode and memo do nothing",
        bin: Bin::Check,
        spec: "register",
        args: &[],
        shape: Shape::Kv { shape: kv(4, 1, 1_500, 32, 1.0), wire: Wire::Native },
        violation: false,
    },
    Workload {
        name: "check-kv-decomposed",
        why: "16 keys, Jepsen EDN, --threads 2: the quadratic order build and its memory dominate, search is 16 small per-key problems; the only workload where peak RSS matters",
        bin: Bin::Check,
        spec: "kv",
        args: &["--threads", "2"],
        shape: Shape::Kv { shape: kv(4, 16, 6_000, 32, 0.0), wire: Wire::Jepsen },
        violation: false,
    },
    Workload {
        name: "check-exchanger-refute",
        why: "the paper's exchanger, 12-element fully-overlapping windows, violation planted last, --threads 2: short history, huge search; memo, symmetry, frontier split and stealing do the work",
        bin: Bin::Check,
        spec: "exchanger",
        args: &["--threads", "2"],
        shape: Shape::Exchanger { windows: 14 },
        violation: true,
    },
    Workload {
        name: "check-kv-causal",
        why: "kvlog with hb session and reads-from edges, --mode causal: the partial-order instance of the order layer, so a real-time fast path that taxes the general order shows",
        bin: Bin::Check,
        spec: "kv",
        args: &["--mode", "causal"],
        shape: Shape::CausalKv { clients: 4, keys: 4, ops: 1_400 },
        violation: false,
    },
    Workload {
        name: "check-batch-small",
        why: "thousands of 24-64 op register files, one in ten rejected, --batch --threads 2: per-history fixed costs (read, parse, spans, order and memo allocation, one search node an operation, report)",
        bin: Bin::Check,
        spec: "register",
        args: &["--threads", "2"],
        shape: Shape::SmallRegisters { files: 4_000 },
        violation: true,
    },
    Workload {
        name: "serve-kv-sequential",
        why: "one client streaming Jepsen EDN into cal-serve: decode, reader thread, channel and admission; every window retires at once, so search is trivial; gate for wire-speed ingestion",
        bin: Bin::Serve,
        spec: "kv",
        args: &["--quiet"],
        shape: Shape::Kv { shape: kv(1, 16, 200_000, 1, 0.0), wire: Wire::Jepsen },
        violation: false,
    },
    Workload {
        name: "serve-kv-concurrent",
        why: "4 clients, 64 operations between quiescent cuts, native lines into cal-serve: checkpoint search over the live window dominates, decode is a few percent",
        bin: Bin::Serve,
        spec: "kv",
        args: &["--quiet"],
        shape: Shape::Kv { shape: kv(4, 16, 20_000, 64, 1.0), wire: Wire::Native },
        violation: false,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

/// What was written for one run of a binary, and the answer it must give.
#[derive(Debug, Clone)]
pub struct Fixture {
    /// The history file, or the directory for `--batch`.
    pub path: PathBuf,
    pub files: u64,
    pub ops: u64,
    /// Invocations and responses: two per operation.
    pub events: u64,
    pub expect_exit: i32,
    /// Files that hold a planted violation.
    pub expect_rejected: u64,
}

/// One generated history in memory, with the evidence for its answer.
#[derive(Debug, Clone)]
pub struct Case {
    /// The bytes the binary would see.
    pub text: String,
    pub violation: bool,
    /// The linearization the history was built from; empty with a violation.
    pub linearization: CaTrace,
}

struct Written {
    ops: usize,
    violation: bool,
}

/// Streams one key-value history into `out`, planting a stale read after
/// nine tenths of it if asked.
fn stream_kv(
    shape: &KvShape,
    wire: Wire,
    plant: bool,
    rng: &mut StdRng,
    mut out: &mut dyn Write,
    mut linearization: Option<&mut CaTrace>,
) -> io::Result<Written> {
    let mut result = Ok(());
    gen::kv_history(
        shape,
        plant.then_some(shape.ops * 9 / 10),
        rng,
        &mut |piece| match piece {
            Piece::Action(a) if result.is_ok() => result = gen::write_action(&mut out, wire, &a),
            Piece::Action(_) => {}
            Piece::Linearized(op) => {
                if let Some(trace) = linearization.as_deref_mut() {
                    trace.push(CaElement::singleton(op));
                }
            }
        },
    );
    if let (true, Some(trace)) = (plant, linearization) {
        // No linearization explains a planted violation.
        *trace = CaTrace::new();
    }
    result.map(|()| Written {
        ops: shape.ops + if plant { 3 } else { 0 },
        violation: plant,
    })
}

impl Workload {
    fn index(&self) -> u64 {
        ALL.iter()
            .position(|w| w.name == self.name)
            .expect("a workload of ALL") as u64
    }

    /// The generator's shape at one `div`-th of the full size, and how many
    /// cases that makes.
    fn sized(&self, div: usize) -> (Shape, usize) {
        match self.shape {
            Shape::Kv { shape, wire } => (
                Shape::Kv {
                    shape: KvShape {
                        ops: (shape.ops / div).max(24),
                        ..shape
                    },
                    wire,
                },
                1,
            ),
            Shape::CausalKv { clients, keys, ops } => (
                Shape::CausalKv {
                    clients,
                    keys,
                    ops: (ops / div).max(24),
                },
                1,
            ),
            Shape::Exchanger { windows } => (
                Shape::Exchanger {
                    windows: (windows / div).max(1),
                },
                1,
            ),
            Shape::SmallRegisters { files } => (self.shape, (files / div).max(10)),
        }
    }

    /// How far the timed input (or the probe, a tenth of that) is cut down
    /// at `scale`, and whether it holds a violation.
    fn cut(&self, scale: Scale, probe: bool) -> (usize, bool) {
        (
            if scale == Scale::Quick { 20 } else { 1 } * if probe { 10 } else { 1 },
            self.violation != probe,
        )
    }

    /// Case `index`'s own generator: the same seed gives the same bytes.
    fn rng(&self, seed: u64, violation: bool, index: usize) -> StdRng {
        let stream = (self.index() * 2 + u64::from(violation)) << 32 | index as u64;
        StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Generates case `index` into `out`.
    fn write_case(
        &self,
        shape: &Shape,
        violation: bool,
        index: usize,
        rng: &mut StdRng,
        out: &mut dyn Write,
        linearization: Option<&mut CaTrace>,
    ) -> io::Result<Written> {
        match *shape {
            Shape::Kv { shape, wire } => {
                stream_kv(&shape, wire, violation, rng, out, linearization)
            }
            Shape::SmallRegisters { .. } => {
                let ops = rng.gen_range(24..=64);
                let shape = KvShape {
                    clients: 3,
                    keys: 1,
                    ops,
                    mean_burst: 8,
                    eager: 0.0,
                };
                let plant = violation && index % 10 == 9;
                stream_kv(&shape, Wire::Native, plant, rng, out, linearization)
            }
            Shape::CausalKv { clients, keys, ops } => {
                let shape = KvShape {
                    clients,
                    keys,
                    ops,
                    mean_burst: 32,
                    eager: 1.0,
                };
                let built = gen::kv_built(&shape, violation.then_some(ops * 9 / 10), rng);
                let edges = gen::reads_from(&built.history);
                let kvlog = format::format_kvlog_annotated(&built.history, &edges)
                    .expect("reads and writes of integers are what kvlog expresses");
                out.write_all(kvlog.as_bytes())?;
                if let Some(trace) = linearization {
                    *trace = built.linearization;
                }
                Ok(Written {
                    ops: built.history.len() / 2,
                    violation,
                })
            }
            Shape::Exchanger { windows } => {
                let built = gen::exchanger_windows(windows, violation, rng);
                out.write_all(text::format_history(&built.history).as_bytes())?;
                if let Some(trace) = linearization {
                    *trace = built.linearization;
                }
                Ok(Written {
                    ops: built.history.len() / 2,
                    violation,
                })
            }
        }
    }

    /// Writes the timed input (or the probe) under `dir`, streaming: the
    /// largest input is 12 MB and must not pass through this process's
    /// memory (see [`crate::proc::own_peak_rss_mb`]).
    pub fn write_fixture(
        &self,
        seed: u64,
        scale: Scale,
        probe: bool,
        dir: &Path,
    ) -> io::Result<Fixture> {
        let (div, violation) = self.cut(scale, probe);
        let (shape, cases) = self.sized(div);
        let batch = self.batch();
        let path = if batch {
            dir.join("batch")
        } else {
            dir.join(match self.format() {
                Format::Native => "input.hist",
                Format::Jepsen => "input.edn",
                Format::KvLog => "input.kvlog",
            })
        };
        // (`dir` is this run's own: nothing else is ever in it, and a repeated
        // set-up finds the same files there.)
        std::fs::create_dir_all(if batch { &path } else { dir })?;
        let (mut ops, mut rejected) = (0u64, 0u64);
        for index in 0..cases {
            let file = if batch {
                path.join(format!("h{index:06}.hist"))
            } else {
                path.clone()
            };
            // Overwritten in place and cut to length afterwards, not
            // truncated first: ext4 answers truncate-then-rewrite with an
            // allocation and a flush per file (0.43 s for 4,000 files against
            // 0.08 s), and creating them afresh took 0.1 to 1.4 s from one
            // time to the next.
            let file = std::fs::OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(false)
                .open(file)?;
            let mut out = BufWriter::new(file);
            let mut rng = self.rng(seed, violation, index);
            let written = self.write_case(&shape, violation, index, &mut rng, &mut out, None)?;
            let mut file = out.into_inner().map_err(|e| e.into_error())?;
            let len = file.stream_position()?;
            file.set_len(len)?;
            ops += written.ops as u64;
            rejected += u64::from(written.violation);
        }
        Ok(Fixture {
            path,
            files: cases as u64,
            ops,
            events: ops * 2,
            expect_exit: i32::from(rejected > 0),
            expect_rejected: rejected,
        })
    }

    /// The same inputs in memory, with their linearizations, for the traced
    /// run.
    pub fn cases(&self, seed: u64, scale: Scale, probe: bool) -> Vec<Case> {
        let (div, violation) = self.cut(scale, probe);
        self.generate(seed, div, violation)
    }

    /// This workload's input at one `div`-th of the full size, with or
    /// without the violation, in memory. (The tests want small instances of
    /// both polarities.)
    pub fn generate(&self, seed: u64, div: usize, violation: bool) -> Vec<Case> {
        let (shape, cases) = self.sized(div);
        (0..cases)
            .map(|index| {
                let mut text = Vec::new();
                let mut linearization = CaTrace::new();
                let mut rng = self.rng(seed, violation, index);
                let written = self
                    .write_case(
                        &shape,
                        violation,
                        index,
                        &mut rng,
                        &mut text,
                        Some(&mut linearization),
                    )
                    .expect("writing to memory cannot fail");
                Case {
                    text: String::from_utf8(text).expect("the formats are ASCII"),
                    violation: written.violation,
                    linearization,
                }
            })
            .collect()
    }

    /// The trace format of this workload's bytes.
    pub fn format(&self) -> Format {
        match self.shape {
            Shape::Kv {
                wire: Wire::Jepsen, ..
            } => Format::Jepsen,
            Shape::CausalKv { .. } => Format::KvLog,
            Shape::Kv {
                wire: Wire::Native, ..
            }
            | Shape::Exchanger { .. }
            | Shape::SmallRegisters { .. } => Format::Native,
        }
    }

    fn threads_arg(&self) -> usize {
        let at = self.args.iter().position(|a| *a == "--threads");
        at.and_then(|i| self.args.get(i + 1))
            .map_or(1, |n| n.parse().expect("--threads takes a number"))
    }

    fn batch(&self) -> bool {
        matches!(self.shape, Shape::SmallRegisters { .. })
    }

    /// Threads one search runs on: `--threads`, except under `--batch`,
    /// where every file is searched by one.
    pub fn search_threads(&self) -> usize {
        if self.batch() {
            1
        } else {
            self.threads_arg()
        }
    }

    /// Files checked side by side: `--threads` under `--batch`, else one.
    pub fn pool_threads(&self) -> usize {
        if self.batch() {
            self.threads_arg()
        } else {
            1
        }
    }

    /// The cores the binary's run is timed on. `--threads 2` gets every
    /// allowed core, or it would not be two threads. Everything else stays
    /// on the benchmark's pinned core — the daemon too, with its reader
    /// thread and our writer: it hands every line over a channel, and on the
    /// 2-core host this was sized on spreading that over both cores was no
    /// faster (0.30–0.47 s a run against 0.30–0.39 on one) and, the cores
    /// changing speed each on its own, three times as noisy.
    pub fn width(&self) -> Width {
        if self.args.contains(&"--threads") {
            Width::All
        } else {
            Width::One
        }
    }

    /// The command line a user would type.
    pub fn command(&self, env: &Env, fixture: &Path) -> Command {
        let mut command = match self.bin {
            Bin::Check => Command::new(&env.cal_check),
            Bin::Serve => Command::new(&env.cal_serve),
        };
        command.arg(self.spec);
        match (self.bin, self.shape) {
            (Bin::Serve, _) => {}
            (Bin::Check, Shape::SmallRegisters { .. }) => {
                command.arg("--batch").arg(fixture);
            }
            (Bin::Check, _) => {
                command.arg(fixture);
            }
        }
        command.args(self.args);
        command
    }
}
