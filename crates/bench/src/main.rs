//! `cal-bench` — the one measuring stick under EXPERIMENTS.md.
//!
//! `cargo run --release --offline -p cal-bench` runs every experiment and
//! rewrites `BENCH_experiments.json` at the workspace root; with experiment
//! ids (`… -p cal-bench -- E5 E8`) it runs only those, prints their series
//! and writes nothing. There is nothing else to set: sample count and
//! minimum time are constants of [`timing`], the worker count of the
//! multi-worker arms is `min(4, host cores)`.

mod experiments;
mod timing;

use std::process::{Command, ExitCode};

use cal_core::obs::JsonLine;
use experiments::{ablations, e13, e14, e16, e2, e20, e22, e4, e5, e6, e7, e8};
use timing::{Bench, MIN_SAMPLES, MIN_TIME};

/// One section of EXPERIMENTS.md that quotes measured numbers.
struct Experiment {
    id: &'static str,
    title: &'static str,
    body: fn(&mut Bench),
}

/// Every experiment, in EXPERIMENTS.md's order.
static EXPERIMENTS: [Experiment; 12] = [
    Experiment { id: "E2", title: "exchanger model sweeps, RG obligations", body: e2 },
    Experiment { id: "E4", title: "elimination stack, modular check of every schedule", body: e4 },
    Experiment { id: "E5", title: "modular vs. monolithic verification cost", body: e5 },
    Experiment { id: "E6", title: "elimination vs. Treiber stack throughput, K sweep", body: e6 },
    Experiment { id: "E7", title: "exchanger throughput and pairing rate", body: e7 },
    Experiment { id: "E8", title: "checker scalability on accepting instances", body: e8 },
    Experiment { id: "E13", title: "arena exchanger vs. single slot", body: e13 },
    Experiment { id: "E14", title: "parallel checker: decomposition, workers on the root", body: e14 },
    Experiment { id: "E16", title: "streaming replay throughput, retirement counters", body: e16 },
    Experiment { id: "E20", title: "decoding a line: native, jepsen, kvlog", body: e20 },
    Experiment { id: "E22", title: "pair specs: matching vs. search", body: e22 },
    Experiment { id: "ablations", title: "memoisation, pruning, recorder overhead", body: ablations },
];

const COMMAND: &str = "cargo run --release --offline -p cal-bench";
/// The one file the runner writes, at the workspace root.
const OUT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_experiments.json");

fn usage() -> String {
    let mut text = format!(
        "usage: {COMMAND} [-- ID...]\n\nno ID: run everything and rewrite BENCH_experiments.json\n\
         IDs: run those, print their series, write nothing\n\n"
    );
    for e in &EXPERIMENTS {
        text += &format!("  {:<10} {}\n", e.id, e.title);
    }
    text
}

/// What a command line asks for: which experiments, and the file to
/// rewrite — only a run of everything has one.
struct Plan {
    experiments: Vec<&'static Experiment>,
    out: Option<&'static str>,
}

/// Reads the arguments: experiment ids and nothing else.
fn plan(args: &[String]) -> Result<Plan, String> {
    if args.is_empty() {
        return Ok(Plan { experiments: EXPERIMENTS.iter().collect(), out: Some(OUT) });
    }
    let find = |arg: &String| {
        EXPERIMENTS.iter().find(|e| e.id == arg).ok_or_else(|| match arg.as_str() {
            "--help" | "-h" => usage(),
            _ => format!("unknown experiment {arg:?}\n\n{}", usage()),
        })
    };
    Ok(Plan { experiments: args.iter().map(find).collect::<Result<_, _>>()?, out: None })
}

/// The workspace's commit as `git describe` spells it (`-dirty` when the
/// tree has uncommitted changes), or `unknown` outside a checkout.
fn commit() -> String {
    let git = Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=7"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output();
    let described = git.ok().filter(|out| out.status.success());
    described.map_or("unknown".into(), |out| String::from_utf8_lossy(&out.stdout).trim().into())
}

/// Runs `experiments`, printing each one's series as it finishes, and
/// returns the whole document: a header line, then one series a line.
fn execute(experiments: &[&Experiment]) -> String {
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = host_cores.min(4);
    let header = JsonLine::new()
        .str("command", COMMAND)
        .str("commit", &commit())
        .num("host_cores", host_cores)
        .num("workers", workers)
        .num("min_samples", MIN_SAMPLES)
        .num("min_time_ms", MIN_TIME.as_millis())
        .finish();
    println!("{header}");
    let mut lines = Vec::new();
    for e in experiments {
        let mut bench = Bench::new(e.id, workers);
        (e.body)(&mut bench);
        for series in &bench.series {
            lines.push(series.to_json());
            println!("{}", lines[lines.len() - 1]);
        }
    }
    format!("{{\"header\": {header},\n \"series\": [\n{}\n]}}\n", lines.join(",\n"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let plan = match plan(&args) {
        Ok(plan) => plan,
        Err(usage) => {
            eprint!("{usage}");
            return ExitCode::from(4);
        }
    };
    let document = execute(&plan.experiments);
    if let Some(out) = plan.out {
        std::fs::write(out, document).expect("write BENCH_experiments.json");
        eprintln!("wrote {out}");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_id_is_unique_selectable_and_in_the_help() {
        let help = plan(&["--help".into()]).err().expect("--help is not an experiment");
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert!(EXPERIMENTS[..i].iter().all(|earlier| earlier.id != e.id), "{} twice", e.id);
            let chosen = plan(&[e.id.into()]).unwrap_or_else(|e| panic!("{e}"));
            assert!(std::ptr::eq(chosen.experiments[0], e) && chosen.experiments.len() == 1);
            assert!(help.contains(&format!("  {:<10} {}\n", e.id, e.title)), "{help}");
        }
    }

    #[test]
    fn only_a_run_of_everything_writes_the_file() {
        let everything = plan(&[]).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(everything.experiments.len(), EXPERIMENTS.len());
        let out = everything.out.expect("the file to rewrite");
        let root = out.strip_suffix("BENCH_experiments.json").expect(out);
        assert!(std::path::Path::new(root).join("Cargo.lock").exists(), "the workspace root");
        let subset = plan(&["E5", "E8"].map(String::from)).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(subset.experiments.iter().map(|e| e.id).collect::<Vec<_>>(), ["E5", "E8"]);
        assert!(subset.out.is_none(), "a subset run writes no file");
    }

    #[test]
    fn the_document_is_a_header_and_one_series_a_line() {
        let fake = Experiment {
            id: "T",
            title: "",
            body: |b| {
                b.exact("t/a", [], || []);
                b.exact("t/b", ["n"], || [3]);
            },
        };
        let document = execute(&[&fake]);
        let lines: Vec<&str> = document.lines().collect();
        assert!(lines[0].starts_with("{\"header\": {\"command\": \"cargo run"), "{document}");
        assert!(lines[0].contains("\"host_cores\": ") && lines[0].ends_with("},"), "{document}");
        assert_eq!(lines[1], " \"series\": [");
        assert!(lines[2].starts_with("{\"experiment\": \"T\", \"name\": \"t/a\", "), "{document}");
        assert!(lines[2].ends_with("},") && lines[3].ends_with("\"n\": 3}"), "{document}");
        assert_eq!(lines[4..], ["]}"]);
    }
}
