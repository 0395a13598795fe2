//! `compare A B`: two result files, workload by workload.
//!
//! For every end-to-end metric: both values (the median of the repetitions;
//! the highest for the peak) and spreads, the ratio B ÷ A
//! (base A), the bound, and a verdict — `worse` when B is worse than A by more
//! than the bound, `unresolved` when either side's own spread
//! (quartile distance over median) is wider than the bound so the comparison
//! cannot tell, `ok` otherwise. The deterministic counters must be equal.

use crate::json::Json;
use crate::metrics::{self, Better, DETERMINISTIC, END_TO_END};

/// Prints the comparison; `Ok(true)` when nothing is `worse`, `unresolved`
/// or unequal.
pub fn compare(a: &Json, b: &Json) -> Result<bool, String> {
    for key in ["scale", "profile"] {
        let (va, vb) = (
            a.get(key).and_then(Json::as_str),
            b.get(key).and_then(Json::as_str),
        );
        if va != vb {
            return Err(format!(
                "{key} differs ({va:?} against {vb:?}): not comparable"
            ));
        }
    }
    if a.get("scale").and_then(Json::as_str) != Some("full") {
        return Err("a quick run's numbers mean nothing: not comparable".into());
    }
    if a.get("profile").and_then(Json::as_str) != Some("release") {
        return Err("not a release build: not comparable".into());
    }
    let workloads = |doc: &Json| -> Result<Vec<Json>, String> {
        Ok(doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("no \"workloads\" array")?
            .to_vec())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut clean = true;
    println!(
        "{:<24} {:<13} {:>12} {:>12} {:>8} {:>7} {:>8} {:>8}  verdict",
        "workload", "metric", "A", "B", "B/A", "bound", "A spread", "B spread"
    );
    for entry_a in &wa {
        let name = entry_a
            .get("name")
            .and_then(Json::as_str)
            .ok_or("a workload without a name")?;
        let Some(entry_b) = wb
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
        else {
            println!("{name:<24} only in A");
            clean = false;
            continue;
        };
        for g in &END_TO_END {
            let samples = |entry: &Json| -> Option<Vec<f64>> {
                entry
                    .get("end_to_end")?
                    .get(g.metric.name)?
                    .get("samples")?
                    .as_arr()?
                    .iter()
                    .map(Json::as_f64)
                    .collect()
            };
            let (Some(sa), Some(sb)) = (samples(entry_a), samples(entry_b)) else {
                continue;
            };
            let (ma, mb) = (g.value(&sa), g.value(&sb));
            let worsening = match g.metric.better {
                Better::Lower => mb / ma - 1.0,
                Better::Higher => ma / mb - 1.0,
            };
            let (spread_a, spread_b) = (metrics::spread(&sa), metrics::spread(&sb));
            let verdict = if worsening > g.bound {
                "worse"
            } else if spread_a > g.bound || spread_b > g.bound {
                "unresolved"
            } else {
                "ok"
            };
            clean &= verdict == "ok";
            println!(
                "{name:<24} {:<13} {ma:>12.5} {mb:>12.5} {:>8.4} {:>6.0}% {:>7.1}% {:>7.1}%  {verdict}",
                g.metric.name,
                mb / ma,
                g.bound * 100.0,
                spread_a * 100.0,
                spread_b * 100.0,
            );
        }
        for counter in DETERMINISTIC {
            let value = |entry: &Json| entry.get("per_layer")?.get(counter)?.get("value")?.as_f64();
            let (Some(va), Some(vb)) = (value(entry_a), value(entry_b)) else {
                continue;
            };
            let verdict = if va == vb { "equal" } else { "DIFFERENT" };
            clean &= va == vb;
            println!("{name:<24} {counter:<26} {va:>12} {vb:>12}  {verdict}");
        }
        for (side, entry) in [("A", entry_a), ("B", entry_b)] {
            if entry.get("failed").and_then(Json::as_f64) != Some(0.0) {
                println!("{name:<24} {side} has failed runs");
                clean = false;
            }
        }
    }
    for entry_b in &wb {
        let name = entry_b.get("name").and_then(Json::as_str).unwrap_or("?");
        if !wa
            .iter()
            .any(|w| w.get("name").and_then(Json::as_str) == Some(name))
        {
            println!("{name:<24} only in B");
            clean = false;
        }
    }
    println!(
        "{}",
        if clean {
            "agree: nothing worse, nothing unresolved, counters equal"
        } else {
            "DISAGREE"
        }
    );
    Ok(clean)
}
