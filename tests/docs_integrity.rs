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
//! - EXPERIMENTS E14 quotes `BENCH_checker.json`: one table row per
//!   series, its three numbers the file's, and the file's host line.
//! - EXPERIMENTS E20 quotes `BENCH_serve.json` the same way: one row per
//!   `pipeline` run, one per layer metric, one per core count.

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
/// number or a quoted name of `BENCH_checker.json`, as the bench wrote it.
fn json_field<'a>(json: &'a str, key: &str) -> &'a str {
    let from = json.find(&format!("\"{key}\": ")).unwrap_or_else(|| panic!("no {key:?} in {json}"));
    let value = &json[from + key.len() + 4..];
    value[..value.find([',', '\n']).unwrap_or(value.len())].trim_matches('"')
}

/// The part of EXPERIMENTS.md from `## <name> ` to the next `## `.
fn experiment(experiments: &str, name: &str) -> String {
    let start = experiments.find(&format!("## {name} ")).unwrap_or_else(|| panic!("no {name}"));
    let section = &experiments[start..];
    section[..section[3..].find("\n## ").map_or(section.len(), |end| end + 3)].to_owned()
}

#[test]
fn e14_quotes_the_checker_bench_file() {
    let file = doc("BENCH_checker.json");
    let e14 = experiment(&doc("EXPERIMENTS.md"), "E14");
    // The bench writes one series a line.
    let series: Vec<&str> = file.lines().filter(|line| line.contains("\"seq_ms\"")).collect();
    assert_eq!(series.len(), 6, "series in BENCH_checker.json");
    let rows: Vec<&str> = e14.lines().filter(|line| line.starts_with("| `")).collect();
    assert_eq!(rows.len(), series.len(), "E14 has one table row per series");
    for (row, line) in rows.iter().zip(series) {
        let quoted = format!(
            "| `{}` | {} | {} | {} |",
            json_field(line, "name"),
            json_field(line, "seq_ms"),
            json_field(line, "par_ms"),
            json_field(line, "speedup"),
        );
        assert!(row.starts_with(&quoted), "E14 row\n  {row}\nshould begin\n  {quoted}");
    }
    for key in ["host_cores", "threads", "degraded"] {
        let quoted = format!("`\"{key}\": {}`", json_field(&file, key));
        assert!(e14.contains(&quoted), "E14 should quote {quoted} from BENCH_checker.json");
    }
}

#[test]
fn e20_quotes_the_serve_bench_file() {
    let file = doc("BENCH_serve.json");
    let e20 = experiment(&doc("EXPERIMENTS.md"), "E20");
    // One line of the file a table row: the row begins with the line's
    // values, in the line's order.
    let rows_of = |marker: &str, keys: &[&str], code: bool| {
        let lines: Vec<&str> = file.lines().filter(|line| line.contains(marker)).collect();
        assert!(!lines.is_empty(), "no {marker} lines in BENCH_serve.json");
        for line in lines {
            let mut quoted = String::from("|");
            for (i, key) in keys.iter().enumerate() {
                let tick = if code && i == 0 { "`" } else { "" };
                quoted += &format!(" {tick}{}{tick} |", json_field(line, key));
            }
            assert!(e20.contains(&quoted), "E20 should have a row beginning\n  {quoted}");
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
    rows_of("\"cores\"", &["cores", "parent_s", "change_s"], false);
    for key in ["host_cores", "seed", "events"] {
        let quoted = format!("`\"{key}\": {}`", json_field(&file, key));
        assert!(e20.contains(&quoted), "E20 should quote {quoted} from BENCH_serve.json");
    }
}
