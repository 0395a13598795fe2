//! The one-pass decoders against the parsers they replaced.
//!
//! `text::parse_action_line` (a history line) and the Jepsen record
//! decoder each read a line in one forward pass of a byte cursor; the
//! parsers they replaced are kept verbatim in `tests/common/decode_ref.rs`.
//! Every line of `tests/corpus/**`, a set of generated lines that spell
//! each value form, separator, sign, bound and comment the grammars allow
//! or refuse, and every single-byte deletion, replacement and insertion of
//! those lines must decode to the same action, or fail with a
//! byte-identical error (line, field and message), through both the
//! stream decoder and `format::parse_as`.

mod common;

use std::collections::BTreeSet;
use std::path::Path;

use cal::core::format::{parse_as, Format, StreamDecoder, WireItem};
use cal::core::text::parse_action_line;
use common::decode_ref::{self as old, Item, StreamRef};

/// Every file under `tests/corpus`, with its text.
fn corpus() -> Vec<(String, String)> {
    fn walk(dir: &Path, out: &mut Vec<(String, String)>) {
        let mut entries: Vec<_> = std::fs::read_dir(dir).expect("the corpus").flatten().collect();
        entries.sort_by_key(|e| e.path());
        for entry in entries {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if let Ok(text) = std::fs::read_to_string(&path) {
                out.push((path.display().to_string(), text));
            }
        }
    }
    let mut files = Vec::new();
    walk(&Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus"), &mut files);
    assert!(files.len() > 60, "{} corpus files", files.len());
    files
}

/// The corpus's distinct lines.
fn corpus_lines() -> BTreeSet<String> {
    corpus().iter().flat_map(|(_, text)| text.lines().map(str::to_owned).collect::<Vec<_>>()).collect()
}

const SEPARATORS: [&str; 8] = [" ", "\t", "  ", "\u{a0}", "\u{2003}", "\u{85}", "\u{b}", " \u{c} "];

/// History lines: each token's forms, accepted and refused, joined by
/// every separator, with comments and carriage returns.
fn native_lines() -> Vec<String> {
    let threads = ["t0", "t+1", "t007", "t4294967295", "t4294967296", "t-1", "t", "t+", "x0", "T0", "t1x"];
    let kinds = ["inv", "res", "INV", "invo", "re", "res.", "i"];
    let targets = [
        "o0.write", "o+0.read", "o007.exchange", "o4294967295.cas", "o4294967296.write",
        "o.write", "o-1.write", "o0.", "o0..write", "o0.wr-ite", "o0write", ".write", "o0.wr_1",
        "ox.write", "o0x.write", "o0", "o0.wr\u{e9}", "o\u{e9}.w", "o+.w",
    ];
    let values = [
        "()", "true", "false", "0", "-0", "+0", "007", "-007", "+5", "-", "+", "--1", "+-1",
        "9223372036854775807", "9223372036854775808", "-9223372036854775808",
        "-9223372036854775809", "(true,5)", "(false,-3)", "(true,+0)", "(true,007)",
        "(true,9223372036854775807)", "(true,9223372036854775808)", "(false,-9223372036854775809)",
        "(maybe,1)", "(true)", "(true,1", "true,1)", "((true,1))", "(true,1,2)", "()x", "(",
        ")", "(true,)", "(,1)", "(TRUE,1)", "(true,1))", "tru", "truex", "falsey", "1e3", "\u{e9}",
    ];
    let mut lines = Vec::new();
    let base = ["t1", "inv", "o0.write", "1"];
    for (slot, forms) in [&threads[..], &kinds, &targets, &values].into_iter().enumerate() {
        for form in forms {
            let mut tokens = base;
            tokens[slot] = form;
            lines.push(tokens.join(" "));
        }
    }
    for sep in SEPARATORS {
        lines.push(format!("{sep}t1{sep}res{sep}o0.exchange{sep}(true,4){sep}"));
        lines.push(format!("t1{sep}inv o0.push 3"));
    }
    let line = "t1 inv o0.exchange 3";
    for cut in 0..=line.len() {
        lines.push(format!("{}#{}", &line[..cut], &line[cut..]));
    }
    lines.extend(
        [
            "", " ", "#", "  # a comment", ";", "; not a comment here", "t1 inv o0.write 1\r",
            "t1 inv o0.write 1 \r", "t1 inv o0.write", "t1 inv o0.write 1 2", "t1", "t1 inv",
            "t1 inv o0.write 1 # trailing", "t1 inv o0.write 1#", "t1 inv o0.write (true,#1)",
            "t1 inv o0.write (true, 1)", "t1 inv o0.write 1\n", "t1\ninv o0.write 1",
            "x0 frob o0push bad extra", "x0 frob o0push bad", "t0 frob o0.push 1",
            "t0 frob o0.push bad", "t0 frob oX.push 1", "x0 inv o0.push (maybe,1)",
        ]
        .map(str::to_owned),
    );
    lines
}

/// Jepsen records in both spellings: each field's forms, accepted and
/// refused, every separator, `#` outside and inside strings, escapes.
fn jepsen_lines() -> Vec<String> {
    let processes = [
        "0", "1", "-1", "4294967295", "4294967296", "99999999999999999999", "1-2", "\"x\"",
        ":nemesis", "nil", "[1 2]", "007", "-", "true",
    ];
    let types = [
        ":invoke", ":ok", ":fail", ":info", "\"invoke\"", "invoke", ":frob", "\"in\\tvoke\"",
        "nil", "1", "\"ok\"", "true", "[:ok]", ":", "\"fail", "\"\"",
    ];
    let fs = [
        ":write", "\"write\"", ":cas", "\"wr\\nite\"", "nil", "1", "[1]", ":wr.ite", ":read",
        "read", "\"get\"", "false", ":put",
    ];
    let values = [
        "nil", "1", "-1", "true", "[true 5]", "[true, 5]", "[1 2 3]", "\"str\"", ":kw",
        "9223372036854775808", "-9223372036854775808", "[false -3]", "[]", "null", "[true",
    ];
    let keys = ["0", "\"x\"", ":k", "\"a#b\"", "4294967296", "-1", "[1]", "\"q\\\"#\"", "7"];
    let record = |p: &str, t: &str, f: &str, v: &str, k: &str| {
        format!("{{:process {p}, :type {t}, :f {f}, :value {v}, :key {k}}}")
    };
    let mut lines = Vec::new();
    for p in processes {
        lines.push(record(p, ":invoke", ":write", "1", "0"));
    }
    for t in types {
        lines.push(record("0", t, ":write", "1", "0"));
        lines.push(record("1", t, ":read", "2", "0"));
    }
    for f in fs {
        lines.push(record("0", ":invoke", f, "1", "0"));
        lines.push(record("1", ":ok", f, "1", "0"));
    }
    for v in values {
        lines.push(record("0", ":invoke", ":write", v, "0"));
        lines.push(record("1", ":ok", ":read", v, "0"));
        lines.push(record("0", ":ok", ":write", v, "0"));
    }
    for k in keys {
        lines.push(record("0", ":invoke", ":write", "1", k));
    }
    for sep in SEPARATORS.iter().chain(&[",", ", ", " ,, "]) {
        lines.push(format!("{sep}{{:process{sep}0{sep}:type{sep}:invoke{sep}:f{sep}:write{sep}:value{sep}1}}{sep}"));
        lines.push(format!(
            "{{\"process\":{sep}2,{sep}\"type\"{sep}:{sep}\"invoke\",\"f\":\"write\",\"value\":{sep}3}}"
        ));
    }
    let line = "{:process 1, :type :invoke, :f :write, :key \"k\", :value 3}";
    for cut in 0..=line.len() {
        lines.push(format!("{}#{}", &line[..cut], &line[cut..]));
    }
    lines.extend(
        [
            "", "  ", "# a comment", "; a comment", "  ;x", ",;", "{", "{}", "{:process}",
            "{:process 0}", "{:process 0, :type :frob}", "{:process :nemesis, :type :info}",
            "{:process 0, :type :invoke}", "{:process 0, :type :ok, :f :write}",
            "{:process 0, :type :invoke, :f :write, :value 1} trailing",
            "{:process 0, :type :invoke, :f :write, :value 1} # trailing",
            "{:process 0, :type :invoke, :f :write, :value 1}\r",
            "{:process 0, :type :invoke, :f :write, :value 1}  \u{a0}",
            "{:process 0, :time 12, :index \"i#x\", :type :invoke, :f :write, :value 1}",
            "{:process \"x\", :process 0, :type :invoke, :f :write}",
            "{:process 0, :process \"x\", :type :invoke, :f :write}",
            "{:process 0, :type :invoke, :type :bogus, :f :write}",
            "{\"process\": 0, \"type\": \"invoke\", \"f\": \"write\", \"value\": 7}",
            "{\"pro\\\"cess\": 0, \"type\": \"invoke\", \"f\": \"write\", \"process\": 1}",
            "{\"process\" 0 \"type\" \"invoke\" \"f\" \"write\"}",
            "{\"proc#ess\": 0, \"type\": \"invoke\", \"f\": \"write\"}",
            "{:process 0, :type :invoke, :f :write, :key \"a\\",
            "{:process 0, :type :invoke, :f :write, :key \"a\\ ",
            "{:process 0, :type :invoke, :f :write, :key \"a\\   ",
            "{:process 0, :type :invoke, :f :write, :key \"a\\x\"}",
            "{:process 0, :type :invoke, :f :write, :key \"a\\#\"}",
            "{:process 0, :type :invoke, :f :write, :key \"unterminated",
            "{:process 0, :type :invoke, :f :write, :key \"q\\\\\" # c",
            "{:process 0, :type :invoke, :f :write, :value [true 5",
            "{:process 0, :type :invoke, :f :write, :value @}",
            "{:process 0, :type :invoke, :f :write, :value \u{e9}}",
            "{: 0}", "{\"\": 0, :process 0, :type :invoke, :f :write}", "[\"json\"]",
            "{:process 0 :type :invoke :f :w\u{e9}}",
        ]
        .map(str::to_owned),
    );
    lines
}

/// The bytes a replacement or insertion tries: every byte either grammar
/// names (its whitespace, punctuation, signs, digits and the letters of
/// its words), NUL and DEL. Any other ASCII byte is, to both grammars, a
/// letter no word holds (like `x`) or punctuation neither names (like `@`).
const BYTES: &str = "\0\t\n\x0b\x0c\r #;,.()[]{}:\"\\+-_/?!*@019tovinrseafklupcywdghxTI\x7f";

/// The bytes the whole-file mutations try, where every line of a file is
/// decoded again for each one.
const FEW: [char; 14] = [' ', '\t', '#', ';', '"', '\\', ',', '.', '+', '-', '0', '9', 'x', '}'];

/// `line` with one byte deleted, replaced by one of `alphabet`, or with
/// one of `alphabet` inserted, wherever the result is still UTF-8 — and
/// with U+00A0 and U+2003 inserted at every character boundary.
fn mutants(line: &str, alphabet: &[char]) -> Vec<String> {
    let bytes = line.as_bytes();
    let text = |v: Vec<u8>| String::from_utf8(v).ok();
    let mut out = Vec::new();
    for i in 0..=bytes.len() {
        if i < bytes.len() {
            out.extend(text([&bytes[..i], &bytes[i + 1..]].concat()));
        }
        for &c in alphabet {
            let b = c as u8;
            if i < bytes.len() {
                out.extend(text([&bytes[..i], &[b], &bytes[i + 1..]].concat()));
            }
            out.extend(text([&bytes[..i], &[b], &bytes[i..]].concat()));
        }
        if line.is_char_boundary(i) {
            for c in ['\u{a0}', '\u{2003}'] {
                out.push(format!("{}{c}{}", &line[..i], &line[i..]));
            }
        }
    }
    out
}

fn items(decoded: Vec<WireItem>) -> Vec<Item> {
    let item = |w: WireItem| match w {
        WireItem::Action(a) => Ok(a),
        WireItem::Abandon(t) => Err(t),
        other => panic!("no native or jepsen line decodes to {other:?}"),
    };
    decoded.into_iter().map(item).collect()
}

/// Jepsen records that leave processes 0 and 1 with an operation open,
/// on integer keys, for the records after them to answer or collide with.
const PRIMER: [&str; 2] = [
    "{:process 0, :type :invoke, :f :write, :value 1, :key 0}",
    "{:process 1, :type :invoke, :f :read, :key 0}",
];

/// One line through the old and the new decoders, native and jepsen:
/// the line parser, and the stream decoder pinned to each format —
/// for jepsen fresh, and after [`PRIMER`] when the line opens a record.
fn same_line(line: &str) {
    assert_eq!(parse_action_line(9, line), old::parse_action_line(9, line), "native {line:?}");
    let mut new = StreamDecoder::new(Some(Format::Native));
    let decoded = new.decode_line(9, line).map(items);
    assert_eq!(decoded, StreamRef::default().decode(false, 9, line), "native stream {line:?}");
    let record = line.trim_start().starts_with(['{', ',']);
    for primer in [&[][..], &PRIMER].into_iter().take(1 + usize::from(record)) {
        let (mut new, mut reference) = (StreamDecoder::new(Some(Format::Jepsen)), StreamRef::default());
        for (i, primed) in primer.iter().enumerate() {
            new.decode_line(i + 1, primed).unwrap();
            reference.decode(true, i + 1, primed).unwrap();
        }
        let decoded = new.decode_line(9, line).map(items);
        assert_eq!(decoded, reference.decode(true, 9, line), "jepsen after {primer:?}: {line:?}");
    }
}

/// A whole text through `parse_as` and the old batch parser.
fn same_file(text: &str) {
    assert_eq!(parse_as(Format::Native, text), old::parse_native_as(text), "native {text:?}");
    assert_eq!(parse_as(Format::Jepsen, text), old::parse_jepsen_as(text), "jepsen {text:?}");
}

#[test]
fn every_corpus_line_decodes_as_before() {
    let lines = corpus_lines();
    assert!(lines.len() > 300, "{} distinct corpus lines", lines.len());
    for line in &lines {
        same_line(line);
    }
}

#[test]
fn every_generated_line_decodes_as_before() {
    for line in native_lines().iter().chain(&jepsen_lines()) {
        same_line(line);
    }
}

#[test]
fn every_single_byte_edit_of_a_generated_line_decodes_as_before() {
    let alphabet: Vec<char> = BYTES.chars().collect();
    let mut n = 0;
    for line in native_lines().iter().chain(&jepsen_lines()) {
        for mutant in mutants(line, &alphabet) {
            same_line(&mutant);
            n += 1;
        }
    }
    assert!(n > 1_000_000, "{n} mutants");
}

#[test]
fn every_single_byte_edit_of_a_corpus_line_decodes_as_before() {
    let alphabet: Vec<char> = BYTES.chars().collect();
    let mut n = 0;
    for line in &corpus_lines() {
        for mutant in mutants(line, &alphabet) {
            same_line(&mutant);
            n += 1;
        }
    }
    assert!(n > 1_000_000, "{n} mutants");
}

#[test]
fn every_corpus_file_and_its_edits_parse_as_before() {
    for (path, text) in corpus() {
        same_file(&text);
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            let with = |edited: &str| {
                let mut edit = lines.clone();
                edit[i] = edited;
                edit.join("\n")
            };
            for mutant in mutants(line, &FEW) {
                same_file(&with(&mutant));
            }
            // Swapped with the next line, an action may answer or open out
            // of turn (Def. 2); a malformed line after it must still be
            // the error named.
            if i + 1 < lines.len() {
                let mut swapped = lines.clone();
                swapped.swap(i, i + 1);
                same_file(&swapped.join("\n"));
                same_file(&format!("{}\nbogus line\n", swapped.join("\n")));
            }
        }
        assert!(!path.is_empty());
    }
}

#[test]
fn ill_formed_native_histories_name_the_first_refused_line_unless_a_line_does_not_parse() {
    let cases = [
        "t0 res o0.write ()\n",
        "t0 inv o0.write 1\nt0 inv o0.write 2\n",
        "t0 inv o0.write 1\nt0 res o0.read 1\n",
        "t0 inv o0.write 1\nt0 inv o0.write 2\nt1 res o0.read 1\n",
        "t0 inv o0.write 1\nt0 inv o0.write 2\nt1 bogus\n",
        "t0 inv o0.write 1\r\n\r\nt0 inv o0.write 2\r\n# end\r\n",
        "t0 res o0.write ()\nt1 inv o0.write 1\nt1 inv o0.write 1\n",
    ];
    for text in cases {
        same_file(text);
        assert!(parse_as(Format::Native, text).is_err(), "{text:?}");
    }
}
