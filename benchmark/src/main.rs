//! `pipeline` — see `benchmark/README.md`.
//!
//! ```text
//! pipeline [--seed N] [--seconds S] [--quick] [--out FILE]
//!     every workload, untraced then traced; prints every metric and
//!     writes a result file
//! pipeline --workload NAME --trace 0|1 [--seed N] [--seconds S] [--quick]
//!     one workload, one kind of run; the last line of stdout is the
//!     contract's JSON object
//! pipeline compare A B
//!     two result files against the bounds
//! ```

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use pipeline::json::Json;
use pipeline::proc::{self, Env};
use pipeline::report::Outcome;
use pipeline::workloads::{self, Scale, Workload};
use pipeline::{compare, e2e, layers};

/// The default seed, and `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SEED: u64 = 0xCA11;
const DEFAULT_SECONDS: f64 = 8.0;

fn usage() -> ExitCode {
    eprintln!(
        "usage: pipeline [--seed N] [--seconds S] [--quick] [--out FILE]\n\
         \x20      pipeline --workload NAME --trace 0|1 [--seed N] [--seconds S] [--quick]\n\
         \x20      pipeline compare A B\n\
         workloads: {}",
        workloads::ALL.map(|w| w.name).join(" ")
    );
    ExitCode::from(2)
}

fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

/// Best effort: the first line a command prints, for the result file's header.
fn first_line(program: &str, args: &[&str], root: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(root)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// What to run and how.
struct Args {
    seed: u64,
    seconds: f64,
    scale: Scale,
    /// `--workload` and `--trace`: one run. Without them, every workload
    /// both ways, each in a process of its own.
    one: Option<(&'static Workload, bool)>,
    /// The result file of everything, or (with `--workload`, from ourselves)
    /// of the one run.
    out: Option<PathBuf>,
}

const PROFILE: &str = if cfg!(debug_assertions) {
    "debug"
} else {
    "release"
};

/// One workload, one kind of run, in this process.
fn one_run(
    env: &Env,
    args: &Args,
    workload: &'static Workload,
    traced: bool,
) -> Result<(), String> {
    let Args {
        seed,
        seconds,
        scale,
        ..
    } = *args;
    let out_dir = env.root.join("benchmark/out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let dir = env
        .work
        .join(format!("{}-{seed:x}-{}", workload.name, std::process::id()));
    let outcome = if traced {
        layers::run(env, workload, seed, scale, &dir).map(|l| Outcome {
            workload,
            end_to_end: None,
            layers: Some(l),
        })
    } else {
        e2e::run(env, workload, seed, seconds, scale, &dir).map(|e| Outcome {
            workload,
            end_to_end: Some(e),
            layers: None,
        })
    };
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(&env.work);
    let outcome = outcome?;
    outcome.print(scale);
    if let Some(l) = &outcome.layers {
        let path = out_dir.join(format!("trace-{}-{seed:x}.json", workload.name));
        std::fs::write(&path, format!("{}\n", l.trace.to_json()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "   {} spans written to {}",
            l.trace.spans.len(),
            path.display()
        );
    }
    match &args.out {
        Some(path) => std::fs::write(path, format!("{}\n", outcome.to_json()))
            .map_err(|e| format!("{}: {e}", path.display())),
        None => {
            // The driver reads the last line of stdout.
            println!("{}", outcome.contract_line(traced));
            Ok(())
        }
    }
}

/// Every workload, untraced then traced, each run in a process of its own —
/// exactly what the driver starts. (In one process the traced runs' memory
/// would floor every later child's peak RSS, and their heaps would carry
/// over into each other's timings.) `Ok(true)` when no run failed.
fn every_run(env: &Env, args: &Args) -> Result<bool, String> {
    let Args {
        seed,
        seconds,
        scale,
        ..
    } = *args;
    let out_dir = env.root.join("benchmark/out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let part = out_dir.join(format!("part-{}.json", std::process::id()));
    let mut entries: Vec<Json> = Vec::new();
    let (mut attempted, mut failed) = (0.0, 0.0);
    for workload in &workloads::ALL {
        let mut fields: Vec<(String, Json)> =
            vec![("name".into(), Json::Str(workload.name.into()))];
        let (mut tried, mut wrong) = (0.0, 0.0);
        for trace in ["0", "1"] {
            let mut command = Command::new(&exe);
            command
                .args(["--workload", workload.name, "--trace", trace])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .arg("--out")
                .arg(&part);
            if scale == Scale::Quick {
                command.arg("--quick");
            }
            let status = command
                .status()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            if !status.success() {
                return Err(format!("{} --trace {trace}: {status}", workload.name));
            }
            let doc = proc::read(&part).and_then(|text| Json::parse(&text))?;
            let _ = std::fs::remove_file(&part);
            let count = |key: &str| doc.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            tried += count("attempted");
            wrong += count("failed");
            let own = |(key, _): &&(String, Json)| {
                !["name", "attempted", "failed"].contains(&key.as_str())
            };
            fields.extend(doc.fields().iter().filter(own).cloned());
        }
        fields.insert(1, ("attempted".into(), Json::Num(tried)));
        fields.insert(2, ("failed".into(), Json::Num(wrong)));
        entries.push(Json::Obj(fields));
        attempted += tried;
        failed += wrong;
    }
    let doc = Json::obj([
        ("benchmark", Json::Str("pipeline".into())),
        ("scale", Json::Str(scale.name().into())),
        ("profile", Json::Str(PROFILE.into())),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        (
            "host_cores",
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        (
            "rustc",
            Json::Str(first_line("rustc", &["--version"], &env.root)),
        ),
        (
            "commit",
            Json::Str(first_line(
                "git",
                &["rev-parse", "--short", "HEAD"],
                &env.root,
            )),
        ),
        ("workloads", Json::Arr(entries)),
    ]);
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir.join(format!("pipeline-{}-{seed:x}.json", scale.name())));
    std::fs::write(&path, format!("{doc}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "pipeline: {failed} of {attempted} runs failed; results in {}",
        path.display()
    );
    Ok(failed == 0.0)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = argv.as_slice() else {
            return usage();
        };
        let load = |path: &String| proc::read(path.as_ref()).and_then(|text| Json::parse(&text));
        return match load(a).and_then(|a| load(b).and_then(|b| compare::compare(&a, &b))) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("pipeline compare: {e}");
                ExitCode::from(2)
            }
        };
    }

    let mut args = Args {
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        scale: Scale::Full,
        one: None,
        out: None,
    };
    let (mut workload, mut trace) = (None, None);
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().map(String::as_str);
        match arg.as_str() {
            "--workload" => match value().and_then(workloads::by_name) {
                Some(w) => workload = Some(w),
                None => return usage(),
            },
            "--seed" => match value().and_then(parse_seed) {
                Some(n) => args.seed = n,
                None => return usage(),
            },
            "--seconds" => match value().and_then(|s| s.parse::<f64>().ok()) {
                Some(s) if s > 0.0 => args.seconds = s,
                _ => return usage(),
            },
            "--trace" => match value() {
                Some("0") => trace = Some(false),
                Some("1") => trace = Some(true),
                _ => return usage(),
            },
            "--quick" => args.scale = Scale::Quick,
            "--out" => match value() {
                Some(path) => args.out = Some(path.into()),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    args.one = match (workload, trace) {
        (Some(w), Some(t)) => Some((w, t)),
        (None, None) => None,
        _ => return usage(),
    };

    let env = match Env::build() {
        Ok(env) => env,
        Err(e) => {
            eprintln!("pipeline: {e}");
            return ExitCode::from(3);
        }
    };
    if args.one.is_none() || args.out.is_none() {
        println!(
            "pipeline: seed {:#x}, {} s a workload, scale {}, {PROFILE} build, build_s {:.3} (printed, not gated)",
            args.seed,
            args.seconds,
            args.scale.name(),
            env.build_s
        );
        if PROFILE == "debug" {
            println!("pipeline: NOT A RELEASE BUILD — the in-process layers are unoptimised; numbers are not comparable");
        }
    }
    let done = match args.one {
        Some((workload, traced)) => one_run(&env, &args, workload, traced).map(|()| true),
        None => every_run(&env, &args),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("pipeline: {e}");
            ExitCode::from(3)
        }
    }
}
