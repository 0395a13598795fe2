//! The `--quick` scale end to end through the built executable: every
//! workload at a twentieth of its size, one repetition, probes on, traced run
//! on, in seconds — labelled so it can never be taken for a full run. (The
//! first run also builds `cal-check` and `cal-serve`, which takes a minute.)

use std::path::PathBuf;
use std::process::Command;

use pipeline::json::Json;
use pipeline::metrics::{END_TO_END, PER_LAYER};
use pipeline::workloads::ALL;

/// Runs the executable; whether it succeeded, and its stdout (stderr appended
/// when it did not).
fn pipeline(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_pipeline"))
        .args(args)
        .output()
        .expect("the executable runs");
    let mut text = String::from_utf8(out.stdout).unwrap();
    if !out.status.success() {
        text += &String::from_utf8_lossy(&out.stderr);
    }
    (out.status.success(), text)
}

#[test]
fn quick_runs_every_workload_and_cannot_be_compared() {
    let file: PathBuf = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("quick.json");
    let path = file.to_str().unwrap();
    let (ok, text) = pipeline(&["--quick", "--out", path]);
    assert!(ok, "{text}");
    assert!(
        text.contains("0 of ") && text.contains(" runs failed"),
        "{text}"
    );
    for workload in &ALL {
        assert!(
            text.contains(&format!("== {} [QUICK", workload.name)),
            "{}: labelled\n{text}",
            workload.name
        );
    }
    for name in END_TO_END
        .iter()
        .map(|g| g.metric.name)
        .chain(PER_LAYER.iter().map(|m| m.name))
    {
        assert_eq!(
            text.matches(&format!("     {name} ")).count(),
            ALL.len(),
            "{name} once a workload\n{text}"
        );
    }

    let doc = Json::parse(&std::fs::read_to_string(&file).unwrap()).unwrap();
    assert_eq!(doc.get("scale").and_then(Json::as_str), Some("quick"));
    assert_eq!(
        doc.get("workloads")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(ALL.len())
    );
    let (ok, text) = pipeline(&["compare", path, path]);
    assert!(!ok && text.contains("not comparable"), "{text}");
    std::fs::remove_file(&file).unwrap();
}

#[test]
fn one_workload_prints_the_contracts_line() {
    for (trace, names) in [
        (
            "0",
            END_TO_END
                .iter()
                .map(|g| (g.metric.name, g.metric.unit))
                .collect::<Vec<_>>(),
        ),
        ("1", PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()),
    ] {
        let (ok, text) = pipeline(&[
            "--workload",
            "check-kv-causal",
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--quick",
        ]);
        assert!(ok, "{text}");
        let line =
            Json::parse(text.trim_end().lines().last().unwrap()).expect("the last line is JSON");
        let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)), "{text}");
        assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
        assert!(line.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        let metrics = line.get("metrics").unwrap().fields();
        assert_eq!(metrics.len(), names.len());
        for ((name, value), (want, unit)) in metrics.iter().zip(names) {
            assert_eq!(name, want);
            assert_eq!(value.get("unit").and_then(Json::as_str), Some(unit));
            assert!(value
                .get("value")
                .and_then(Json::as_f64)
                .unwrap()
                .is_finite());
        }
    }
}
