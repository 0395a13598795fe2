//! A line-oriented text format for histories and CA-traces, so recorded
//! histories can be stored, diffed, and checked from the command line.
//!
//! ## History format
//!
//! One action per line: `<thread> inv <object>.<method> <value>` or
//! `<thread> res <object>.<method> <value>`. Threads are `t<N>`, objects
//! `o<N>`; values are `()`, `true`, `false`, integers, or `(bool,int)`
//! pairs. Blank lines and `#` comments are ignored.
//!
//! ```text
//! # two overlapping exchanges that swapped 3 and 4
//! t1 inv o0.exchange 3
//! t2 inv o0.exchange 4
//! t1 res o0.exchange (true,4)
//! t2 res o0.exchange (true,3)
//! ```
//!
//! ## Trace format
//!
//! One CA-element per line: `<object> { <op> ; <op> ; … }` where each op is
//! `<thread> <method> <arg> -> <ret>`.
//!
//! ```text
//! o0 { t1 exchange 3 -> (true,4) ; t2 exchange 4 -> (true,3) }
//! o0 { t3 exchange 7 -> (false,7) }
//! ```

use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;

use parking_lot::Mutex;

use crate::action::Action;
use crate::history::History;
use crate::ids::{Method, ObjectId, ThreadId, Value};
use crate::op::Operation;
use crate::trace::{CaElement, CaTrace};

/// A parse failure, with the 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for ParseError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError { line, message: message.into() })
}

fn parse_thread(line: usize, s: &str) -> Result<ThreadId, ParseError> {
    match s.strip_prefix('t').and_then(|r| r.parse::<u32>().ok()) {
        Some(n) => Ok(ThreadId(n)),
        None => err(line, format!("expected thread id like t0, found {s:?}")),
    }
}

fn parse_object(line: usize, s: &str) -> Result<ObjectId, ParseError> {
    match s.strip_prefix('o').and_then(|r| r.parse::<u32>().ok()) {
        Some(n) => Ok(ObjectId(n)),
        None => err(line, format!("expected object id like o0, found {s:?}")),
    }
}

/// Parses and interns a method name ([`intern_method`]). Shared with the
/// foreign-format decoders in [`crate::format`], so every parser agrees on
/// one interned vocabulary.
pub(crate) fn parse_method(line: usize, s: &str) -> Result<Method, ParseError> {
    if s.is_empty() || !s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        return err(line, format!("invalid method name {s:?}"));
    }
    Ok(intern_method(s))
}

/// Interns a method name. Method names are `&'static str`: the nine names
/// of the built-in vocabulary are constants, found by a scan that takes no
/// lock; any other name is leaked the *first* time it is seen and found in
/// a process-wide table from then on, so memory is bounded by the
/// vocabulary, not by the length of a stream or the number of compiles.
/// Every parser of a trace line and the spec language's compiler
/// ([`crate::dsl`]) intern here, so a name is one pointer wherever it was
/// read.
pub(crate) fn intern_method(s: &str) -> Method {
    const KNOWN: &[&str] =
        &["exchange", "push", "pop", "put", "take", "read", "write", "inc", "noop"];
    static OTHERS: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    for k in KNOWN {
        if *k == s {
            return Method(k);
        }
    }
    let mut others = OTHERS.lock();
    if let Some(name) = others.get(s) {
        return Method(name);
    }
    let name: &'static str = Box::leak(s.to_owned().into_boxed_str());
    others.insert(name);
    Method(name)
}

fn parse_value(line: usize, s: &str) -> Result<Value, ParseError> {
    let s = s.trim();
    if s == "()" {
        return Ok(Value::Unit);
    }
    if s == "true" {
        return Ok(Value::Bool(true));
    }
    if s == "false" {
        return Ok(Value::Bool(false));
    }
    if let Ok(n) = s.parse::<i64>() {
        return Ok(Value::Int(n));
    }
    if let Some(body) = s.strip_prefix('(').and_then(|r| r.strip_suffix(')')) {
        if let Some((b, n)) = body.split_once(',') {
            let b = match b.trim() {
                "true" => true,
                "false" => false,
                other => return err(line, format!("expected bool, found {other:?}")),
            };
            let n = n
                .trim()
                .parse::<i64>()
                .map_err(|_| ParseError { line, message: format!("bad int in pair: {s:?}") })?;
            return Ok(Value::Pair(b, n));
        }
    }
    err(line, format!("cannot parse value {s:?}"))
}

/// Parses a history from the line format.
///
/// # Errors
///
/// Returns the first malformed line. Well-formedness of the resulting
/// history is *not* checked here; use [`History::validate`].
///
/// # Examples
///
/// ```
/// use cal_core::text::parse_history;
/// let h = parse_history("t0 inv o0.push 5\nt0 res o0.push true\n")?;
/// assert!(h.is_complete());
/// # Ok::<(), cal_core::text::ParseError>(())
/// ```
pub fn parse_history(input: &str) -> Result<History, ParseError> {
    let mut actions = Vec::new();
    for (i, raw) in input.lines().enumerate() {
        if let Some(action) = parse_action_line(i + 1, raw)? {
            actions.push(action);
        }
    }
    Ok(History::from_actions(actions))
}

/// Parses one line of the history format into an action, or `None` for a
/// blank or comment-only line. `line` is the 1-based line number embedded
/// in errors.
///
/// This is the unit of the `cal-serve` wire protocol: the streaming
/// daemon feeds each received line through it, so a file checked by
/// `cal-check` and a live event stream speak exactly the same format.
///
/// # Errors
///
/// Returns a [`ParseError`] naming `line` when the line is malformed.
///
/// # Examples
///
/// ```
/// use cal_core::text::parse_action_line;
/// assert!(parse_action_line(1, "# comment")?.is_none());
/// assert!(parse_action_line(2, "t0 inv o0.push 5")?.is_some());
/// # Ok::<(), cal_core::text::ParseError>(())
/// ```
pub fn parse_action_line(line: usize, raw: &str) -> Result<Option<Action>, ParseError> {
    let text = raw.split('#').next().unwrap_or("").trim();
    if text.is_empty() {
        return Ok(None);
    }
    let mut parts = text.split_whitespace();
    let (Some(t), Some(kind), Some(target), Some(value)) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return err(line, "expected: <thread> inv|res <object>.<method> <value>");
    };
    if parts.next().is_some() {
        return err(line, "trailing tokens");
    }
    let thread = parse_thread(line, t)?;
    let Some((obj, meth)) = target.split_once('.') else {
        return err(line, format!("expected <object>.<method>, found {target:?}"));
    };
    let object = parse_object(line, obj)?;
    let method = parse_method(line, meth)?;
    let value = parse_value(line, value)?;
    let action = match kind {
        "inv" => Action::invoke(thread, object, method, value),
        "res" => Action::response(thread, object, method, value),
        other => return err(line, format!("expected inv or res, found {other:?}")),
    };
    Ok(Some(action))
}

/// Formats a history in the line format (round-trips through
/// [`parse_history`]).
pub fn format_history(history: &History) -> String {
    let mut out = String::new();
    for a in history.actions() {
        let kind = if a.is_invoke() { "inv" } else { "res" };
        let value = a.arg().or_else(|| a.ret()).expect("every action carries a value");
        out.push_str(&format!(
            "{} {} {}.{} {}\n",
            a.thread(),
            kind,
            a.object(),
            a.method(),
            value
        ));
    }
    out
}

/// Parses a CA-trace from the element-per-line format.
///
/// # Errors
///
/// Returns the first malformed line.
///
/// # Examples
///
/// ```
/// use cal_core::text::parse_trace;
/// let t = parse_trace("o0 { t1 exchange 3 -> (true,4) ; t2 exchange 4 -> (true,3) }\n")?;
/// assert_eq!(t.len(), 1);
/// # Ok::<(), cal_core::text::ParseError>(())
/// ```
pub fn parse_trace(input: &str) -> Result<CaTrace, ParseError> {
    let mut elements = Vec::new();
    for (i, raw) in input.lines().enumerate() {
        let line = i + 1;
        let text = raw.split('#').next().unwrap_or("").trim();
        if text.is_empty() {
            continue;
        }
        let Some((obj, rest)) = text.split_once('{') else {
            return err(line, "expected: <object> { <op> ; … }");
        };
        let object = parse_object(line, obj.trim())?;
        let Some(body) = rest.trim().strip_suffix('}') else {
            return err(line, "missing closing brace");
        };
        let mut ops = Vec::new();
        for op_text in body.split(';') {
            let op_text = op_text.trim();
            if op_text.is_empty() {
                continue;
            }
            let Some((lhs, ret)) = op_text.split_once("->") else {
                return err(line, format!("expected <op> -> <ret> in {op_text:?}"));
            };
            let mut parts = lhs.split_whitespace();
            let (Some(t), Some(meth), Some(arg)) = (parts.next(), parts.next(), parts.next())
            else {
                return err(line, format!("expected <thread> <method> <arg> in {lhs:?}"));
            };
            if parts.next().is_some() {
                return err(line, "trailing tokens in operation");
            }
            ops.push(Operation::new(
                parse_thread(line, t)?,
                object,
                parse_method(line, meth)?,
                parse_value(line, arg)?,
                parse_value(line, ret)?,
            ));
        }
        match CaElement::new(object, ops) {
            Ok(e) => elements.push(e),
            Err(e) => return err(line, format!("invalid CA-element: {e}")),
        }
    }
    Ok(CaTrace::from_elements(elements))
}

/// Formats a CA-trace in the element-per-line format (round-trips through
/// [`parse_trace`]).
pub fn format_trace(trace: &CaTrace) -> String {
    let mut out = String::new();
    for e in trace.elements() {
        out.push_str(&format!("{} {{ ", e.object()));
        for (i, op) in e.ops().iter().enumerate() {
            if i > 0 {
                out.push_str(" ; ");
            }
            out.push_str(&format!("{} {} {} -> {}", op.thread, op.method, op.arg, op.ret));
        }
        out.push_str(" }\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE_HISTORY: &str = "\
# two overlapping exchanges
t1 inv o0.exchange 3
t2 inv o0.exchange 4
t1 res o0.exchange (true,4)
t2 res o0.exchange (true,3)

t3 inv o0.exchange 7   # a failure
t3 res o0.exchange (false,7)
";

    #[test]
    fn parse_sample_history() {
        let h = parse_history(SAMPLE_HISTORY).unwrap();
        assert_eq!(h.len(), 6);
        assert!(h.is_well_formed());
        assert!(h.is_complete());
    }

    #[test]
    fn history_round_trip() {
        let h = parse_history(SAMPLE_HISTORY).unwrap();
        let text = format_history(&h);
        let h2 = parse_history(&text).unwrap();
        assert_eq!(h, h2);
    }

    #[test]
    fn parse_all_value_shapes() {
        let h = parse_history(
            "t0 inv o0.write -42\nt0 res o0.write ()\nt0 inv o0.push 1\nt0 res o0.push true\n",
        )
        .unwrap();
        assert_eq!(h.actions()[0].arg(), Some(Value::Int(-42)));
        assert_eq!(h.actions()[1].ret(), Some(Value::Unit));
        assert_eq!(h.actions()[3].ret(), Some(Value::Bool(true)));
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let e = parse_history("t0 inv o0.push 1\nbogus line\n").unwrap_err();
        assert_eq!(e.line, 2);
        let e = parse_history("x0 inv o0.push 1\n").unwrap_err();
        assert!(e.message.contains("thread"));
        let e = parse_history("t0 frob o0.push 1\n").unwrap_err();
        assert!(e.message.contains("inv or res"));
        let e = parse_history("t0 inv o0push 1\n").unwrap_err();
        assert!(e.message.contains("object"));
        let e = parse_history("t0 inv o0.push (maybe,1)\n").unwrap_err();
        assert!(e.message.contains("bool"));
    }

    const SAMPLE_TRACE: &str = "\
o0 { t1 exchange 3 -> (true,4) ; t2 exchange 4 -> (true,3) }
o0 { t3 exchange 7 -> (false,7) }
";

    #[test]
    fn parse_sample_trace() {
        let t = parse_trace(SAMPLE_TRACE).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.elements()[0].len(), 2);
        assert_eq!(t.elements()[1].len(), 1);
    }

    #[test]
    fn trace_round_trip() {
        let t = parse_trace(SAMPLE_TRACE).unwrap();
        let text = format_trace(&t);
        assert_eq!(parse_trace(&text).unwrap(), t);
    }

    #[test]
    fn trace_rejects_malformed_elements() {
        assert!(parse_trace("o0 { }\n").is_err()); // empty element
        assert!(parse_trace("o0 { t1 exchange 3 (true,4) }\n").is_err()); // no ->
        assert!(parse_trace("o0 t1 exchange 3 -> 4\n").is_err()); // no braces
        // duplicate thread in one element:
        assert!(parse_trace("o0 { t1 exchange 3 -> (false,3) ; t1 exchange 4 -> (false,4) }\n")
            .is_err());
    }

    #[test]
    fn parsed_history_agrees_with_parsed_trace() {
        let h = parse_history(SAMPLE_HISTORY).unwrap();
        let t = parse_trace(SAMPLE_TRACE).unwrap();
        assert!(crate::agree::agrees_bool(&h, &t));
    }
}
