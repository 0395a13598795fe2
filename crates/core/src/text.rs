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
//! [`parse_action_line`] reads a line in one forward pass of a byte
//! cursor (`Scan`, which the Jepsen record decoder in [`crate::format`]
//! runs on too). A `#` anywhere ends the line's content; tokens are
//! separated by any whitespace `char::is_whitespace` names, Unicode's
//! included, so a trailing `\r` is nothing; `N` is a `u32` and an
//! integer value an `i64` as their `FromStr` read them, with an optional
//! `+` (`t+1`, `+3`) and leading zeros. A pair holds no space: a space
//! ends the token.
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

/// The trace format's thread token: `t` and a `u32`, read by [`Scan`].
fn parse_thread(line: usize, s: &str) -> Result<ThreadId, ParseError> {
    match Scan::new(line, s).whole(|scan| scan.id(b't')) {
        Some(n) => Ok(ThreadId(n)),
        None => err(line, format!("expected thread id like t0, found {s:?}")),
    }
}

/// The trace format's object token: `o` and a `u32`, read by [`Scan`].
fn parse_object(line: usize, s: &str) -> Result<ObjectId, ParseError> {
    match Scan::new(line, s).whole(|scan| scan.id(b'o')) {
        Some(n) => Ok(ObjectId(n)),
        None => err(line, format!("expected object id like o0, found {s:?}")),
    }
}

/// Whether `b` may appear in a method name.
fn method_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Parses and interns a method name ([`intern_method`]). Shared with the
/// foreign-format decoders in [`crate::format`], so every parser agrees on
/// one interned vocabulary.
pub(crate) fn parse_method(line: usize, s: &str) -> Result<Method, ParseError> {
    if s.is_empty() || !s.bytes().all(method_byte) {
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

/// The trace format's value: a line's token, or the text after `->`,
/// where a pair may hold spaces (`(true, 4)`).
fn parse_value(line: usize, s: &str) -> Result<Value, ParseError> {
    let s = s.trim();
    let int = |s: &str| Scan::new(line, s.trim()).whole(Scan::int);
    let pair = |body: &str| {
        let (b, n) = body.split_once(',')?;
        let b = match b.trim() {
            "true" => true,
            "false" => false,
            _ => return None,
        };
        Some(Value::Pair(b, int(n)?))
    };
    let value = match s {
        "()" => Some(Value::Unit),
        "true" => Some(Value::Bool(true)),
        "false" => Some(Value::Bool(false)),
        _ => int(s).map(Value::Int).or_else(|| pair(s.strip_prefix('(')?.strip_suffix(')')?)),
    };
    value.ok_or_else(|| value_fault(line, s))
}

/// Why `token` is not a value: a pair's bool, a pair's int, or the whole.
fn value_fault(line: usize, token: &str) -> ParseError {
    let pair = token.strip_prefix('(').and_then(|r| r.strip_suffix(')'));
    let message = match pair.and_then(|body| body.split_once(',')).map(|(b, _)| b.trim()) {
        Some("true" | "false") => format!("bad int in pair: {token:?}"),
        Some(b) => format!("expected bool, found {b:?}"),
        None => format!("cannot parse value {token:?}"),
    };
    ParseError { line, message }
}

/// A byte cursor over one line of trace text, carrying the line's number
/// for error anchoring: the history format's line ([`parse_action_line`])
/// and a Jepsen record ([`crate::format`]) are each read by one forward
/// pass of it. Everything the grammars name is ASCII, so only string
/// bodies, Unicode whitespace and stray non-ASCII bytes are ever decoded
/// as `char`s; `pos` always rests on a character boundary. A `#` that the
/// cursor meets ends the line's content: it starts a comment (a string
/// body, which a Jepsen record reads byte by byte, is the one place a `#`
/// is text).
pub(crate) struct Scan<'a> {
    /// The line.
    pub(crate) src: &'a str,
    /// Where the cursor rests.
    pub(crate) pos: usize,
    /// The 1-based line number diagnostics name.
    pub(crate) line: usize,
}

impl<'a> Scan<'a> {
    pub(crate) fn new(line: usize, src: &'a str) -> Self {
        Scan { src, pos: 0, line }
    }

    /// The byte at the cursor, or `None` at the end of the content (the
    /// line's end, or a `#`).
    pub(crate) fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied().filter(|&b| b != b'#')
    }

    /// The character at the cursor: what a non-ASCII byte begins, or the
    /// one a diagnostic names.
    pub(crate) fn peek_char(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }

    /// Whether the cursor is at whitespace, as `char::is_whitespace` (and
    /// so `str::trim` and `split_whitespace`) has it, Unicode's included.
    fn at_space(&self) -> bool {
        match self.src.as_bytes().get(self.pos) {
            Some(b' ' | b'\t'..=b'\r') => true,
            Some(0x80..) => self.peek_char().is_some_and(char::is_whitespace),
            _ => false,
        }
    }

    /// Steps over whitespace; with `commas`, over commas too (EDN reads a
    /// comma as whitespace, which also covers JSON's separators).
    pub(crate) fn skip_space(&mut self, commas: bool) {
        loop {
            match self.peek() {
                Some(b' ' | b'\t'..=b'\r') => self.pos += 1,
                Some(b',') if commas => self.pos += 1,
                Some(0x80..) if self.at_space() => {
                    self.pos += self.peek_char().map_or(1, char::len_utf8);
                }
                _ => return,
            }
        }
    }

    pub(crate) fn take_while(&mut self, f: impl Fn(u8) -> bool) -> &'a str {
        let start = self.pos;
        while self.peek().is_some_and(&f) {
            self.pos += 1;
        }
        &self.src[start..self.pos]
    }

    /// Steps over `b` if it is at the cursor.
    fn eat(&mut self, b: u8) -> Option<()> {
        (self.peek() == Some(b)).then(|| self.pos += 1)
    }

    /// Steps over `word` if the content goes on with it.
    fn eat_word(&mut self, word: &str) -> Option<()> {
        let rest = &self.src.as_bytes()[self.pos..];
        rest.starts_with(word.as_bytes()).then(|| self.pos += word.len())
    }

    /// Whether a history-format token ends at the cursor: at the end of
    /// the content, or at whitespace.
    fn token_end(&self) -> bool {
        matches!(self.src.as_bytes().get(self.pos), None | Some(b'#')) || self.at_space()
    }

    /// The token that began at `start`, the cursor moved to its end: what
    /// a diagnostic quotes.
    fn rest_of_token(&mut self, start: usize) -> &'a str {
        while !self.token_end() {
            self.pos += self.peek_char().map_or(1, char::len_utf8);
        }
        &self.src[start..self.pos]
    }

    /// An `i64` as its `FromStr` reads it: an optional sign, then decimal
    /// digits, at least one, leading zeros and all; `None` when there is
    /// no digit or the number overflows.
    pub(crate) fn int(&mut self) -> Option<i64> {
        let negative = self.peek() == Some(b'-');
        if matches!(self.peek(), Some(b'-' | b'+')) {
            self.pos += 1;
        }
        let mut n: i64 = 0;
        let mut digits = false;
        while let Some(d @ b'0'..=b'9') = self.peek() {
            let d = i64::from(d - b'0');
            n = n.checked_mul(10)?;
            n = if negative { n.checked_sub(d)? } else { n.checked_add(d)? };
            self.pos += 1;
            digits = true;
        }
        digits.then_some(n)
    }

    /// A `u32` as its `FromStr` reads it: like [`Scan::int`], with no `-`.
    fn uint(&mut self) -> Option<u32> {
        let _ = self.eat(b'+');
        let mut n: u32 = 0;
        let mut digits = false;
        while let Some(d @ b'0'..=b'9') = self.peek() {
            n = n.checked_mul(10)?.checked_add(u32::from(d - b'0'))?;
            self.pos += 1;
            digits = true;
        }
        digits.then_some(n)
    }

    /// A `prefix` byte and a [`Scan::uint`]: a thread (`t0`) or an object
    /// (`o0`) id.
    fn id(&mut self, prefix: u8) -> Option<u32> {
        self.eat(prefix)?;
        self.uint()
    }

    /// `read` over the whole of the cursor's text, or `None`.
    fn whole<T>(mut self, read: impl FnOnce(&mut Self) -> Option<T>) -> Option<T> {
        read(&mut self).filter(|_| self.pos == self.src.len())
    }

    /// The history format's next token read by `read`, which is handed
    /// the cursor at the token's start and leaves it at its end; `None`
    /// when the line has no more tokens.
    fn field<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Option<Result<T, ParseError>> {
        self.peek()?;
        let field = read(self);
        self.skip_space(false);
        Some(field)
    }

    /// A thread token, `t<u32>`.
    fn thread(&mut self) -> Result<ThreadId, ParseError> {
        let start = self.pos;
        match self.id(b't') {
            Some(n) if self.token_end() => Ok(ThreadId(n)),
            _ => {
                let token = self.rest_of_token(start);
                err(self.line, format!("expected thread id like t0, found {token:?}"))
            }
        }
    }

    /// The kind token: `inv` (`true`) or `res`.
    fn kind(&mut self) -> Result<bool, ParseError> {
        let start = self.pos;
        let invoke = match self.src.as_bytes().get(start..start + 3) {
            Some(b"inv") => Some(true),
            Some(b"res") => Some(false),
            _ => None,
        };
        if let Some(invoke) = invoke {
            self.pos += 3;
            if self.token_end() {
                return Ok(invoke);
            }
        }
        let token = self.rest_of_token(start);
        err(self.line, format!("expected inv or res, found {token:?}"))
    }

    /// The target token, `o<u32>.<method>`; a fault is the target's, the
    /// object's or the method's, as the token's first `.` splits it.
    fn target(&mut self) -> Result<(ObjectId, Method), ParseError> {
        let start = self.pos;
        if let Some(n) = self.id(b'o') {
            if self.eat(b'.').is_some() {
                let at = self.pos;
                let name = self.take_while(method_byte);
                if !name.is_empty() && self.token_end() {
                    return Ok((ObjectId(n), intern_method(name)));
                }
                let name = self.rest_of_token(at);
                return err(self.line, format!("invalid method name {name:?}"));
            }
        }
        // The object id did not read up to a `.`: so whatever precedes
        // the token's first `.`, if it has one, is no object id.
        let target = self.rest_of_token(start);
        match target.split_once('.') {
            None => err(self.line, format!("expected <object>.<method>, found {target:?}")),
            Some((object, _)) => err(self.line, format!("expected object id like o0, found {object:?}")),
        }
    }

    /// The value token: `()`, `true`, `false`, an `i64`, or `(bool,i64)`.
    fn value(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        let value = match self.peek() {
            Some(b'(') => {
                self.pos += 1;
                match self.eat(b')') {
                    Some(()) => Some(Value::Unit),
                    None => self.pair(),
                }
            }
            Some(b't' | b'f') => self.bool().map(Value::Bool),
            _ => self.int().map(Value::Int),
        };
        match value {
            Some(value) if self.token_end() => Ok(value),
            _ => Err(value_fault(self.line, self.rest_of_token(start))),
        }
    }

    fn bool(&mut self) -> Option<bool> {
        match self.eat_word("true") {
            Some(()) => Some(true),
            None => self.eat_word("false").map(|()| false),
        }
    }

    /// A pair's body and closing parenthesis, its `(` read.
    fn pair(&mut self) -> Option<Value> {
        let b = self.bool()?;
        self.eat(b',')?;
        let n = self.int()?;
        self.eat(b')')?;
        Some(Value::Pair(b, n))
    }
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
    let mut s = Scan::new(line, raw);
    s.skip_space(false);
    if s.peek().is_none() {
        return Ok(None);
    }
    let fields = (s.field(Scan::thread), s.field(Scan::kind), s.field(Scan::target), s.field(Scan::value));
    let (Some(thread), Some(kind), Some(target), Some(value)) = fields else {
        return err(line, "expected: <thread> inv|res <object>.<method> <value>");
    };
    if s.peek().is_some() {
        return err(line, "trailing tokens");
    }
    // A malformed kind is named last, after every other token's fault.
    let (thread, (object, method), value) = (thread?, target?, value?);
    Ok(Some(match kind? {
        true => Action::invoke(thread, object, method, value),
        false => Action::response(thread, object, method, value),
    }))
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
