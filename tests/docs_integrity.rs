//! Docs-integrity suite: the DSL manual cannot drift from the
//! implementation.
//!
//! - Every diagnostic code the compiler defines ([`dsl::DiagCode::ALL`])
//!   has a section in `docs/SPEC_DSL.md`, and every `E###` the docs
//!   mention is a code that exists.
//! - Every ```cal fence in `docs/SPEC_DSL.md` and `docs/TUTORIAL.md` is
//!   a complete `.cal` file that compiles.
//! - Every ```cal-error E### fence fails to compile with exactly the
//!   code named on its fence line.
//! - The shipped `specs/*.cal` files compile and define the spec their
//!   filename promises.
//! - Where `README.md` and `docs/SPEC_DSL.md` list the built-in
//!   specifications, they list exactly the rows of
//!   `cal_specs::registry::BUILTINS`, in its order.
//! - EXPERIMENTS quotes `BENCH_experiments.json`: every series of the
//!   file is a table row of its section, digit for digit; a numeric table
//!   row in those sections that is no series needs the section to say
//!   `not measured on this host`; the preamble quotes the file's host line.
//! - EXPERIMENTS E20 and E21 quote `BENCH_serve.json` the same way: one
//!   row per `pipeline` run or series, one per layer metric, one per core
//!   count or stream; a numeric row of E20, which quotes both files, is
//!   backed by one of them.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;

use cal::core::dsl;
use cal::specs::registry::BUILTINS;

fn doc(path: &str) -> String {
    let p = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(path);
    fs::read_to_string(&p).unwrap_or_else(|e| panic!("cannot read {}: {e}", p.display()))
}

/// A fenced code block: the info string after ``` and the body.
struct Fence {
    info: String,
    body: String,
    line: usize,
}

fn fences(text: &str) -> Vec<Fence> {
    let mut out = Vec::new();
    let mut body: Option<(String, String, usize)> = None;
    for (i, line) in text.lines().enumerate() {
        match &mut body {
            None => {
                if let Some(info) = line.strip_prefix("```") {
                    if !info.is_empty() {
                        body = Some((info.trim().to_string(), String::new(), i + 1));
                    } else {
                        // Closing fence of an unfenced block would be a
                        // doc bug; tolerate plain ``` openers by
                        // treating them as anonymous blocks.
                        body = Some((String::new(), String::new(), i + 1));
                    }
                }
            }
            Some((info, acc, start)) => {
                if line.trim_end() == "```" {
                    out.push(Fence { info: info.clone(), body: acc.clone(), line: *start });
                    body = None;
                } else {
                    acc.push_str(line);
                    acc.push('\n');
                }
            }
        }
    }
    assert!(body.is_none(), "unclosed code fence");
    out
}

#[test]
fn every_diagnostic_code_is_documented() {
    let manual = doc("docs/SPEC_DSL.md");
    for code in dsl::DiagCode::ALL {
        let heading = format!("### {} — ", code.as_str());
        assert!(
            manual.contains(&heading),
            "docs/SPEC_DSL.md has no `{heading}...` section; every diagnostic code must be documented"
        );
    }
}

#[test]
fn every_mentioned_code_exists() {
    let known: BTreeSet<&str> = dsl::DiagCode::ALL.iter().map(|c| c.as_str()).collect();
    for path in ["docs/SPEC_DSL.md", "docs/TUTORIAL.md"] {
        let text = doc(path);
        let bytes = text.as_bytes();
        for (i, _) in text.match_indices('E') {
            if i + 4 > bytes.len() || !bytes[i + 1..i + 4].iter().all(u8::is_ascii_digit) {
                continue;
            }
            // Only exact 3-digit codes, not longer numbers (E2E, E1234).
            if bytes.get(i + 4).is_some_and(u8::is_ascii_digit) {
                continue;
            }
            // Skip prose coincidences that are not code references, like
            // "E17" (an EXPERIMENTS.md entry) — those have <3 digits and
            // were already skipped; any E### in the docs must be real.
            let code = &text[i..i + 4];
            assert!(known.contains(code), "{path} mentions unknown diagnostic {code}");
        }
    }
}

#[test]
fn every_cal_fence_in_the_docs_compiles() {
    for path in ["docs/SPEC_DSL.md", "docs/TUTORIAL.md"] {
        let text = doc(path);
        let mut checked = 0;
        for f in fences(&text) {
            if f.info == "cal" {
                dsl::parse_str(&f.body).unwrap_or_else(|d| {
                    panic!("{path}: ```cal fence at line {} does not compile: {d}", f.line)
                });
                checked += 1;
            }
        }
        assert!(checked > 0, "{path} has no ```cal fences; the docs lost their examples");
    }
}

#[test]
fn every_cal_error_fence_fails_with_its_stated_code() {
    let manual = doc("docs/SPEC_DSL.md");
    let mut seen = BTreeSet::new();
    for f in fences(&manual) {
        let Some(code) = f.info.strip_prefix("cal-error ") else { continue };
        let diag = dsl::parse_str(&f.body).err().unwrap_or_else(|| {
            panic!("docs/SPEC_DSL.md: ```cal-error {code} fence at line {} compiles", f.line)
        });
        assert_eq!(
            diag.code.as_str(),
            code,
            "docs/SPEC_DSL.md: fence at line {} promises {code} but produced: {diag}",
            f.line
        );
        seen.insert(code.to_string());
    }
    // The diagnostics reference must demonstrate every code, not just
    // name it.
    for code in dsl::DiagCode::ALL {
        assert!(
            seen.contains(code.as_str()),
            "docs/SPEC_DSL.md has no ```cal-error {} example",
            code.as_str()
        );
    }
}

#[test]
fn shipped_spec_files_compile_and_define_their_namesake() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("specs");
    let mut count = 0;
    for entry in fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|x| x != "cal") {
            continue;
        }
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let src = fs::read_to_string(&path).unwrap();
        let file = dsl::parse_str(&src)
            .unwrap_or_else(|d| panic!("specs/{name}.cal does not compile: {d}"));
        assert!(
            file.get(&name).is_some(),
            "specs/{name}.cal must define a spec named `{name}` (found: {})",
            file.names().join(", ")
        );
        count += 1;
    }
    assert!(count >= 5, "expected at least 5 shipped specs/*.cal files, found {count}");
}

/// The backticked words of `text` between `from` and `to`.
fn backticked<'a>(text: &'a str, from: &str, to: &str) -> Vec<&'a str> {
    let start = text.find(from).unwrap_or_else(|| panic!("no {from:?} in the document"));
    let list = &text[start + from.len()..];
    let list = &list[..list.find(to).unwrap_or_else(|| panic!("no {to:?} after {from:?}"))];
    list.split('`').skip(1).step_by(2).collect()
}

#[test]
fn docs_list_exactly_the_registry_builtins() {
    let table: Vec<&str> = BUILTINS.iter().map(|(name, _)| *name).collect();
    let readme = doc("README.md");
    assert_eq!(backticked(&readme, "| `<SPEC>` | ", " — "), table, "README.md cal-check <SPEC> row");
    let manual = doc("docs/SPEC_DSL.md");
    assert_eq!(backticked(&manual, "falls back to the\n  built-ins: ", ".\n"), table, "SPEC_DSL.md");
}

/// What follows `"key": ` in `json`, up to the next comma or line end: a
/// number or a quoted name of a `BENCH_*.json` file, as its writer wrote it.
fn json_field_opt<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let from = json.find(&format!("\"{key}\": "))?;
    let value = &json[from + key.len() + 4..];
    Some(value[..value.find([',', '\n', '}']).unwrap_or(value.len())].trim_matches('"'))
}

fn json_field<'a>(json: &'a str, key: &str) -> &'a str {
    json_field_opt(json, key).unwrap_or_else(|| panic!("no {key:?} in {json}"))
}

/// The part of EXPERIMENTS.md from `## <name> ` to the next `## `.
fn experiment(experiments: &str, name: &str) -> String {
    let start = experiments.find(&format!("## {name} ")).unwrap_or_else(|| panic!("no {name}"));
    let section = &experiments[start..];
    section[..section[3..].find("\n## ").map_or(section.len(), |end| end + 3)].to_owned()
}

/// Where EXPERIMENTS quotes `BENCH_experiments.json`: the section, the
/// prefix of the series names its table holds, and the fields a row gives
/// after the four every row starts with (`—` where a series has none).
const QUOTED: &[(&str, &str, &[&str])] = &[
    ("E14", "decompose/", &["nodes", "nodes_min", "nodes_max", "ratio"]),
    ("E14", "cal/frontier-", &["nodes", "nodes_min", "nodes_max", "ratio"]),
    ("E14", "cal/refute-", &["nodes", "nodes_min", "nodes_max", "ratio"]),
    ("E14", "spans/clients/", &["spans", "nodes", "zones", "ratio"]),
    ("E2", "model_check/exchanger_cal/", &["paths"]),
    ("E2", "model_check/exchanger_rg/", &["edges"]),
    ("E4", "model_check/elim_stack_modular/", &["paths"]),
    ("E5", "verify_elim_stack/", &["nodes", "ratio"]),
    ("E6", "stack_throughput/", &["ops_per_s", "ratio"]),
    ("E6", "elimination_k_sweep/", &["ops_per_s"]),
    ("E7", "exchanger_throughput/threads/", &["ops", "paired_min", "paired_max", "ops_per_s"]),
    ("E7", "exchanger_throughput/spin/", &["ops", "paired_min", "paired_max", "ops_per_s"]),
    ("E8", "cal_check/", &["nodes", "elements_tried"]),
    ("E8", "agree/", &[]),
    ("E8", "zones/", &["nodes", "zones", "ratio"]),
    ("E8", "fallback/", &["nodes", "zones", "ratio"]),
    ("E20", "decode/", &["lines", "ns_per_line"]),
    ("E22", "pairs/", &["nodes", "matching", "ratio"]),
    (
        "E13",
        "exchanger_throughput/arena_vs_single/",
        &["ops", "paired_min", "paired_max", "ops_per_s", "ratio"],
    ),
    (
        "E16",
        "stream/replay-throughput/",
        &["events_per_s", "peak_window", "retired_actions", "retired_segments", "checkpoints"],
    ),
    (
        "E16",
        "stream/kv-",
        &["events_per_s", "nodes", "zones", "peak_states", "peak_window", "retired_segments", "ratio"],
    ),
    ("Ablations", "ablation/memoization_reject/", &["nodes", "ratio"]),
    ("Ablations", "ablation/scheduler_pruning/", &["paths", "ratio"]),
    ("Ablations", "ablation/recorder_overhead/", &["ratio"]),
];

/// The data rows of `section`'s Markdown tables (header and rule lines
/// skipped) that carry a number outside code spans.
fn numeric_rows(section: &str) -> Vec<&str> {
    let mut rows = Vec::new();
    let mut in_table = 0;
    for line in section.lines() {
        in_table = if line.starts_with('|') { in_table + 1 } else { 0 };
        let prose = line.split('`').step_by(2);
        if in_table > 2 && prose.flat_map(str::chars).any(|c| c.is_ascii_digit()) {
            rows.push(line);
        }
    }
    rows
}

#[test]
fn experiments_quote_the_bench_file() {
    let file = doc("BENCH_experiments.json");
    let experiments = doc("EXPERIMENTS.md");
    // The runner writes one series a line.
    let series: Vec<&str> = file.lines().filter(|line| line.contains("\"median_us\"")).collect();
    let mut quoted = vec![false; series.len()];
    let sections: BTreeSet<&str> = QUOTED.iter().map(|(section, ..)| *section).collect();
    for section in sections {
        let text = experiment(&experiments, section);
        let mut expected = Vec::new();
        for (_, prefix, extras) in QUOTED.iter().filter(|(s, ..)| *s == section) {
            let before = expected.len();
            for (i, line) in series.iter().enumerate() {
                if json_field(line, "name").starts_with(prefix) {
                    let mut row = format!("| `{}` |", json_field(line, "name"));
                    for key in ["median_us", "q1_us", "q3_us", "samples"].iter().chain(*extras) {
                        row += &format!(" {} |", json_field_opt(line, key).unwrap_or("—"));
                    }
                    assert!(text.contains(&row), "{section} should have a row beginning\n  {row}");
                    expected.push(row);
                    quoted[i] = true;
                }
            }
            assert!(expected.len() > before, "no `{prefix}*` series in BENCH_experiments.json");
        }
        // The converse: a table row with numbers in it is a series of the
        // file, or a row of the section's `BENCH_serve.json` object, or
        // the section says why it is neither.
        let served = serve_rows(section);
        for row in numeric_rows(&text) {
            assert!(
                expected.iter().chain(&served).any(|e| row.starts_with(e.as_str()))
                    || text.contains("not measured on this host"),
                "{section} has a table row no series backs, and no `not measured on this host`:\n  {row}"
            );
        }
    }
    for (line, quoted) in series.iter().zip(quoted) {
        assert!(quoted, "no EXPERIMENTS table quotes {}", json_field(line, "name"));
    }
    let preamble = &experiments[..experiments.find("\n## ").expect("sections")];
    for key in ["commit", "host_cores", "workers", "min_samples", "min_time_ms"] {
        let value = json_field(&file, key);
        let quote = if key == "commit" { "\"" } else { "" };
        let cited = format!("`\"{key}\": {quote}{value}{quote}`");
        assert!(preamble.contains(&cited), "the Environment paragraph should quote {cited}");
    }
}

/// Rows only one experiment's object has: their marker, their keys, and
/// whether the first is in code.
type OwnRows = (&'static str, &'static [&'static str], bool);

/// `BENCH_serve.json` holds one object an experiment, each recorded with
/// `pipeline` as alternating parent / change pairs: its header keys, and
/// the rows only that experiment has.
const SERVED: &[(&str, &[&str], OwnRows)] = &[
    // E20's own rows: the one-core / two-core pair.
    ("E20", &["host_cores", "seed", "events"], ("\"cores\"", &["cores", "parent_s", "change_s"], false)),
    // E21's: the streams sized beside the benchmark's workload.
    (
        "E21",
        &["host_cores", "seed", "unseen_seed", "events"],
        ("\"stream\"", &["stream", "events", "parent_s", "parent_nodes", "change_s", "change_nodes"], true),
    ),
];

/// The table rows `BENCH_serve.json`'s `id` object backs, each as it
/// begins: one line of the object a row, the line's values in the line's
/// order. None when `id` has no object.
fn serve_rows(id: &str) -> Vec<String> {
    let Some(&(_, _, own)) = SERVED.iter().find(|(served, ..)| *served == id) else {
        return Vec::new();
    };
    let whole = doc("BENCH_serve.json");
    let from = whole.find(&format!("\n  \"{id}\": {{")).unwrap_or_else(|| panic!("no {id} object"));
    let file = &whole[from + 1..];
    let file = &file[..file.find("\n  },").or(file.find("\n  }\n")).expect("the object closes")];
    let mut rows = Vec::new();
    let mut rows_of = |marker: &str, keys: &[&str], code: bool| {
        let lines: Vec<&str> = file.lines().filter(|line| line.contains(marker)).collect();
        assert!(!lines.is_empty(), "no {marker} lines in BENCH_serve.json's {id}");
        for line in lines {
            let mut quoted = String::from("|");
            for (i, key) in keys.iter().enumerate() {
                let tick = if code && i == 0 { "`" } else { "" };
                quoted += &format!(" {tick}{}{tick} |", json_field(line, key));
            }
            rows.push(quoted);
        }
    };
    let run = [
        "pair", "first", "parent_s", "parent_q1", "parent_q3", "parent_repetitions",
        "change_s", "change_q1", "change_q3", "change_repetitions",
    ];
    rows_of("\"pair\"", &run, false);
    let series = [
        "workload", "seed", "pairs", "parent_s", "parent_q1", "parent_q3",
        "change_s", "change_q1", "change_q3", "ratio", "change_lower_in",
    ];
    rows_of("\"series\": \"", &series, true);
    rows_of("\"metric\"", &["metric", "parent", "change"], true);
    let (marker, keys, code) = own;
    rows_of(marker, keys, code);
    rows
}

/// Every row `BENCH_serve.json`'s `id` object backs is a table row of
/// that experiment's section, and the section quotes the object's header.
fn section_quotes_the_serve_bench_file(id: &str) {
    let section = experiment(&doc("EXPERIMENTS.md"), id);
    for quoted in serve_rows(id) {
        assert!(section.contains(&quoted), "{id} should have a row beginning\n  {quoted}");
    }
    let whole = doc("BENCH_serve.json");
    let file = &whole[whole.find(&format!("\n  \"{id}\": {{")).expect("the object")..];
    let (_, header, _) = SERVED.iter().find(|(served, ..)| *served == id).expect("a served id");
    for key in *header {
        let quoted = format!("`\"{key}\": {}`", json_field(file, key));
        assert!(section.contains(&quoted), "{id} should quote {quoted} from BENCH_serve.json");
    }
}

#[test]
fn e20_quotes_the_serve_bench_file() {
    section_quotes_the_serve_bench_file("E20");
}

#[test]
fn e21_quotes_the_serve_bench_file() {
    section_quotes_the_serve_bench_file("E21");
}
