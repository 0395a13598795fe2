//! `BENCHMARK.json` at the repository's root repeats the tables in the code;
//! this holds the two together, and the file within the contract's limits.

use pipeline::json::Json;
use pipeline::metrics::{END_TO_END, PER_LAYER};
use pipeline::workloads::ALL;

fn contract() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository's root");
    assert!(text.len() <= 64 * 1024);
    Json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn str_of<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} of {entry}"))
}

fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn has_exactly_the_contracts_keys() {
    let doc = contract();
    let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(doc.get("paths").unwrap().to_string(), "[\"benchmark\"]");
    let command: Vec<&str> = doc
        .get("command")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|a| a.as_str().unwrap())
        .collect();
    assert_eq!(command[0], "cargo");
    assert!(command.contains(&"benchmark/Cargo.toml") && command.contains(&"--release"));
    assert!(
        command.len() <= 32
            && command
                .iter()
                .all(|a| a.len() <= 200 && !a.starts_with('/') && !a.contains(".."))
    );
    // `pipeline`'s default when `--seconds` is not given.
    assert_eq!(doc.get("run_seconds").and_then(Json::as_f64), Some(8.0));
}

#[test]
fn workloads_match_the_code() {
    let doc = contract();
    let listed = doc.get("workloads").unwrap().as_arr().unwrap();
    assert_eq!(listed.len(), ALL.len());
    for (entry, workload) in listed.iter().zip(&ALL) {
        assert_eq!(entry.fields().len(), 2);
        assert_eq!(str_of(entry, "name"), workload.name);
        assert_eq!(str_of(entry, "why"), workload.why);
        assert!(
            is_name(workload.name) && workload.why.len() <= 200 && !workload.why.contains('\n')
        );
    }
}

#[test]
fn metrics_match_the_code() {
    let doc = contract();
    let gated = doc.get("end_to_end").unwrap().as_arr().unwrap();
    assert_eq!(gated.len(), END_TO_END.len());
    for (entry, g) in gated.iter().zip(&END_TO_END) {
        assert_eq!(entry.fields().len(), 4);
        assert_eq!(str_of(entry, "name"), g.metric.name);
        assert_eq!(str_of(entry, "unit"), g.metric.unit);
        assert_eq!(str_of(entry, "better"), g.metric.better.name());
        assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(g.bound));
        assert!(
            g.bound > 0.0 && g.bound <= 0.25 && is_name(g.metric.name) && is_unit(g.metric.unit)
        );
    }
    let setup = END_TO_END
        .iter()
        .find(|g| g.metric.name == "setup_s")
        .expect("the contract asks for setup_s");
    assert_eq!(
        (setup.metric.unit, setup.metric.better.name()),
        ("s", "lower")
    );
    assert!(
        END_TO_END.iter().all(|g| g.bound <= setup.bound),
        "set-up gets the largest bound"
    );

    let layers = doc.get("per_layer").unwrap().as_arr().unwrap();
    assert_eq!(layers.len(), PER_LAYER.len());
    assert!(layers.len() <= 128);
    for (entry, m) in layers.iter().zip(&PER_LAYER) {
        assert_eq!(entry.fields().len(), 3);
        assert_eq!(str_of(entry, "name"), m.name);
        assert_eq!(str_of(entry, "unit"), m.unit);
        assert_eq!(str_of(entry, "better"), m.better.name());
        assert!(is_name(m.name) && is_unit(m.unit), "{}", m.name);
    }
}
