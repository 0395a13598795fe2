//! Foreign-history interop: parsers for external trace formats.
//!
//! The native line format ([`crate::text`]) is what our own recorders emit;
//! the rest of the world logs histories differently. This module ingests
//! the two foreign families the linearizability-checking literature
//! actually uses as evaluation substrate, and serializes back out to them
//! so differential round-trip tests can pin every parser to the engines:
//!
//! - **`jepsen`** — porcupine/Jepsen-style operation records, one per
//!   line, in either EDN (`{:process 0, :type :invoke, :f :write,
//!   :value 3}`) or JSON-ish (`{"process": 0, "type": "invoke", "f":
//!   "write", "value": 3}`) spelling. This is the shape of histories
//!   harvested from etcd-under-Jepsen and similar distributed-system
//!   test rigs.
//! - **`kvlog`** — simple timestamped Put/Get logs: one operation per
//!   line as `<start> <end> <client> put|get <key> [<value>]`, the shape
//!   of the flat key-value traces used by lock-free-structure checkers.
//!
//! Every parser produces a typed [`History`] or a line/field-anchored
//! [`FormatError`] — never a panic, whatever the input bytes. Formats are
//! auto-detected by sniffing ([`detect`]); an explicit format always wins.
//!
//! ## Jepsen record semantics
//!
//! - `:invoke` begins an operation for `:process`; a second `:invoke`
//!   while one is pending is an error (Jepsen processes are logical
//!   threads).
//! - `:ok` completes the pending operation. For `:f write`/`:f put` the
//!   completion value is normalized to unit even when the trace echoes
//!   the written value (the etcd convention); symmetrically `:invoke`
//!   arguments for `:f read`/`:f get` are normalized to unit.
//! - `:fail` asserts the operation definitely did **not** take effect:
//!   the pending invocation is retracted from the history.
//! - `:info` means the outcome is unknown (timeout, crash, partition):
//!   the invocation stays pending — the checker explores both dropping it
//!   and completing it — and the process id is retired; re-invoking a
//!   retired process is an error.
//! - `:key` selects the object: integer keys map to object ids directly,
//!   string keys are interned in first-use order; mixing both in one
//!   history is an error. Unknown fields (`:time`, `:index`, …) are
//!   ignored.
//!
//! ## kvlog timestamp semantics
//!
//! Events are ordered by timestamp; an operation whose response stamp is
//! `-` or `?` is pending. Intervals are closed: an operation ending at
//! `t` and one starting at `t` are considered concurrent. Ties between
//! equal stamps of the same rank are broken by line order, so the order
//! is deterministic.
//!
//! ## kvlog causality metadata
//!
//! A kvlog may declare the happens-before partial order `--mode causal`
//! checks against, using `hb` lines alongside the operation lines:
//!
//! - `hb <i> <j>` — operation `i` happens-before operation `j`, where
//!   ids are 1-based positions of *operation lines* in file order
//!   (comments and `hb` lines do not count). Forward references are
//!   fine; ids out of range are errors anchored to the `hb` line.
//! - `hb session` — marks the trace causality-annotated with no edges
//!   beyond per-thread session order.
//!
//! Any `hb` line makes the trace *annotated*: [`parse_annotated`]
//! returns the declared edges translated to span indices (session order
//! itself is implicit — [`crate::history::HbRelation::causal`] always
//! includes it). Plain [`parse_as`] accepts and ignores `hb` lines, so
//! CAL mode reads annotated files unchanged.
//!
//! ```
//! use cal_core::format::{detect, parse_as, Format};
//! let input = "{:process 0, :type :invoke, :f :write, :value 3}\n\
//!              {:process 0, :type :ok, :f :write, :value 3}\n";
//! assert_eq!(detect(input), Format::Jepsen);
//! let h = parse_as(Format::Jepsen, input)?;
//! assert_eq!(h.len(), 2);
//! assert!(h.is_complete());
//! # Ok::<(), cal_core::format::FormatError>(())
//! ```

use std::borrow::Cow;
use std::collections::HashMap;
use std::error::Error;
use std::fmt::{self, Write as _};

use crate::action::Action;
use crate::history::{admit, History, HistoryError, Matched, Threads};
use crate::ids::{Method, ObjectId, ThreadId, Value};
use crate::text::{self, ParseError, Scan};

/// A history trace format understood by [`parse_as`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Format {
    /// The native line format of [`crate::text`].
    Native,
    /// Porcupine/Jepsen-style operation records (EDN or JSON spelling).
    Jepsen,
    /// Timestamped Put/Get logs: `<start> <end> <client> put|get <key> [<value>]`.
    KvLog,
}

impl fmt::Display for Format {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Format::Native => "native",
            Format::Jepsen => "jepsen",
            Format::KvLog => "kvlog",
        })
    }
}

impl std::str::FromStr for Format {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "native" => Ok(Format::Native),
            "jepsen" | "edn" | "porcupine" => Ok(Format::Jepsen),
            "kvlog" | "kv-log" => Ok(Format::KvLog),
            other => Err(format!("unknown format {other:?} (expected native, jepsen, or kvlog)")),
        }
    }
}

/// A parse failure in a foreign (or native) trace, anchored to the 1-based
/// source line and, when known, the offending field.
///
/// `line == 0` means the error is not tied to a source line (it arose
/// while *serializing* a history, or while validating an empty input).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FormatError {
    /// 1-based source line of the offending input, or 0 if none applies.
    pub line: usize,
    /// The record field at fault, e.g. `":process"` or `"end"`, if known.
    pub field: Option<&'static str>,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: ", self.line)?;
        }
        if let Some(field) = self.field {
            write!(f, "field {field}: ")?;
        }
        f.write_str(&self.message)
    }
}

impl Error for FormatError {}

impl From<ParseError> for FormatError {
    fn from(e: ParseError) -> Self {
        FormatError { line: e.line, field: None, message: e.message }
    }
}

fn fail<T>(line: usize, field: Option<&'static str>, message: impl Into<String>) -> Result<T, FormatError> {
    Err(FormatError { line, field, message: message.into() })
}

/// Auto-detects the format of `input` by sniffing its first contentful
/// line: a line opening with `{` or `[` is jepsen; a line whose first
/// token is an integer timestamp followed by an integer-or-`-` stamp
/// (with at least five tokens) is kvlog; anything else — including empty
/// input — is native.
pub fn detect(input: &str) -> Format {
    first_content_line(input).map_or(Format::Native, sniff_line)
}

/// Parses `input` in the given format into a validated [`History`].
///
/// # Errors
///
/// Returns a line/field-anchored [`FormatError`] on any malformed input;
/// never panics, whatever the bytes.
pub fn parse_as(format: Format, input: &str) -> Result<History, FormatError> {
    match format {
        Format::Native => parse_native(input),
        Format::Jepsen => parse_jepsen(input).and_then(|(actions, lines)| finish(actions, &lines)),
        Format::KvLog => parse_kvlog(input).and_then(|(actions, lines, _)| finish(actions, &lines)),
    }
}

/// A parsed history together with any causality metadata the input
/// declared (see the module docs on kvlog `hb` lines).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Annotated {
    /// The parsed history.
    pub history: History,
    /// Declared happens-before edges as `(from, to)` span-index pairs,
    /// `Some` iff the input carried causality metadata (even with zero
    /// edges, as `hb session` declares). `None` means the trace is
    /// unannotated and causal mode should fall back to the real-time
    /// order.
    pub hb_edges: Option<Vec<(usize, usize)>>,
}

/// Like [`parse_as`], but also surfaces declared causality metadata.
/// Native and jepsen inputs never carry in-band metadata and always
/// parse with `hb_edges: None` (jepsen session-order checking is a
/// caller choice — build [`crate::history::HbRelation::causal`] with no
/// edges over the parsed history).
///
/// # Errors
///
/// As [`parse_as`]; additionally anchors malformed or out-of-range `hb`
/// declarations to their source line.
pub fn parse_annotated(format: Format, input: &str) -> Result<Annotated, FormatError> {
    match format {
        Format::Native | Format::Jepsen => {
            parse_as(format, input).map(|history| Annotated { history, hb_edges: None })
        }
        Format::KvLog => {
            let (actions, lines, hb_edges) = parse_kvlog(input)?;
            finish(actions, &lines).map(|history| Annotated { history, hb_edges })
        }
    }
}

// ---------------------------------------------------------------------------
// Shared plumbing
// ---------------------------------------------------------------------------

/// Strips a `#` comment, ignoring `#` inside double-quoted strings (jepsen
/// records may carry string keys).
fn strip_comment(text: &str) -> &str {
    if !text.contains('#') {
        return text;
    }
    let (mut in_str, mut esc) = (false, false);
    for (i, c) in text.char_indices() {
        if esc {
            esc = false;
            continue;
        }
        match c {
            '\\' if in_str => esc = true,
            '"' => in_str = !in_str,
            '#' if !in_str => return &text[..i],
            _ => {}
        }
    }
    text
}

/// A line's content, its comment cut and its ends trimmed, or `None`
/// for a blank or comment (`#`, `;`) line.
fn content(raw: &str) -> Option<&str> {
    let text = strip_comment(raw).trim();
    (!text.is_empty() && !text.starts_with(';')).then_some(text)
}

fn first_content_line(input: &str) -> Option<&str> {
    input.lines().find_map(content)
}

/// Format of a single contentful line (the sniffing unit, also used by
/// [`StreamDecoder`] in auto mode).
fn sniff_line(text: &str) -> Format {
    if text.starts_with('{') || text.starts_with('[') {
        return Format::Jepsen;
    }
    let mut toks = text.split_whitespace();
    let (first, second) = (toks.next(), toks.next());
    let rest = toks.count();
    if first == Some("hb") {
        // kvlog causality metadata may lead the file (`hb session`).
        return Format::KvLog;
    }
    if let (Some(a), Some(b)) = (first, second) {
        let stampish = |t: &str| t == "-" || t == "?" || t.parse::<u64>().is_ok();
        if rest >= 3 && a.parse::<u64>().is_ok() && stampish(b) {
            return Format::KvLog;
        }
    }
    Format::Native
}

/// Validates the assembled actions, mapping any [`HistoryError`] (which
/// carries an action *index*) back to the source *line* of that action.
/// For the formats whose actions are not in line order (kvlog sorts by
/// timestamp, a jepsen `:fail` retracts an invocation).
fn finish(actions: Vec<Action>, lines: &[usize]) -> Result<History, FormatError> {
    let history = History::from_actions(actions);
    if let Err(e) = history.validate() {
        let index = match &e {
            HistoryError::ResponseWithoutInvocation { index, .. }
            | HistoryError::NestedInvocation { index, .. }
            | HistoryError::MismatchedResponse { index, .. } => *index,
        };
        let line = lines.get(index).copied().unwrap_or(0);
        return Err(ill_formed(line, e));
    }
    Ok(history)
}

fn ill_formed(line: usize, e: HistoryError) -> FormatError {
    FormatError { line, field: None, message: format!("ill-formed history: {e}") }
}

/// First-use-order interning of object keys. Integer keys map to object
/// ids directly; string keys are assigned ids 0, 1, … in order of first
/// appearance. Mixing the two in one history would silently alias objects,
/// so it is an error.
#[derive(Debug, Default, Clone)]
struct KeyMap {
    names: HashMap<String, u32>,
    saw_int: bool,
}

impl KeyMap {
    fn int_key(&mut self, line: usize, field: Option<&'static str>, n: i64) -> Result<ObjectId, FormatError> {
        if !self.names.is_empty() {
            return fail(line, field, "cannot mix integer and string keys in one history");
        }
        self.saw_int = true;
        match u32::try_from(n) {
            Ok(id) => Ok(ObjectId(id)),
            Err(_) => fail(line, field, format!("key {n} out of range (expected 0..=u32::MAX)")),
        }
    }

    fn name_key(&mut self, line: usize, field: Option<&'static str>, name: &str) -> Result<ObjectId, FormatError> {
        if self.saw_int {
            return fail(line, field, "cannot mix integer and string keys in one history");
        }
        if let Some(&id) = self.names.get(name) {
            return Ok(ObjectId(id));
        }
        let id = self.names.len() as u32;
        self.names.insert(name.to_string(), id);
        Ok(ObjectId(id))
    }
}

fn intern_method(line: usize, name: &str) -> Result<Method, FormatError> {
    text::parse_method(line, name).map_err(FormatError::from)
}

// ---------------------------------------------------------------------------
// Native
// ---------------------------------------------------------------------------

/// One walk of the text: each line's end found by `memchr` (the search
/// `str::split` runs for one ASCII byte; a `\r` before it is whitespace
/// to the line grammar), its action parsed, and admitted at once against
/// the per-thread table (Def. 2, [`admit`]). A line that does not parse
/// outranks an earlier action that Def. 2 refuses, as when the two were
/// separate passes, so after a refusal the remaining lines are parsed and
/// nothing more is kept.
fn parse_native(input: &str) -> Result<History, FormatError> {
    let mut actions = Vec::new();
    // Per thread, the index of its open invocation.
    let mut open: Threads<Option<usize>> = Threads::default();
    let mut refused = None;
    for (i, raw) in input.split('\n').enumerate() {
        let Some(action) = text::parse_action_line(i + 1, raw)? else {
            continue;
        };
        if refused.is_some() {
            continue;
        }
        let index = actions.len();
        let slot = open.slot(action.thread());
        let at = &mut open.records[slot];
        match admit(&action, index, at.map(|inv| (inv, &actions[inv]))) {
            Ok(Matched::Opens) => *at = Some(index),
            Ok(Matched::Closes(_)) => *at = None,
            Err(e) => refused = Some(ill_formed(i + 1, e)),
        }
        actions.push(action);
    }
    match refused {
        Some(e) => Err(e),
        None => Ok(History::from_actions(actions)),
    }
}

// ---------------------------------------------------------------------------
// Jepsen
// ---------------------------------------------------------------------------

/// A parsed EDN/JSON scalar or vector from one jepsen record field,
/// borrowing from the line it was scanned from: a keyword is a slice of
/// the line, and so is a string unless an escape had to be resolved.
#[derive(Debug, Clone, PartialEq)]
enum JVal<'a> {
    Nil,
    Bool(bool),
    Int(i64),
    Str(Cow<'a, str>),
    Kw(&'a str),
    Vec(Vec<JVal<'a>>),
}

impl<'a> JVal<'a> {
    /// The text of a keyword or string — the two spellings of a name
    /// (`:invoke` / `"invoke"`); anything else is handed back.
    fn into_word(self) -> Result<Cow<'a, str>, Self> {
        match self {
            JVal::Kw(w) => Ok(Cow::Borrowed(w)),
            JVal::Str(w) => Ok(w),
            other => Err(other),
        }
    }
}

impl fmt::Display for JVal<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JVal::Nil => f.write_str("nil"),
            JVal::Bool(b) => write!(f, "{b}"),
            JVal::Int(n) => write!(f, "{n}"),
            JVal::Str(s) => write!(f, "{s:?}"),
            JVal::Kw(w) => write!(f, ":{w}"),
            JVal::Vec(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
        }
    }
}

fn ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b'/' | b'?' | b'!' | b'*' | b'+')
}

/// The Jepsen record grammar's reads, on the one line cursor.
impl<'a> Scan<'a> {
    /// EDN's whitespace: commas too.
    fn skip_ws(&mut self) {
        self.skip_space(true);
    }

    /// The body of a string whose opening quote is at the cursor, as the
    /// line spells it, escapes and all; the cursor moves over its closing
    /// quote. A `#` in it is text.
    fn raw_string(&mut self) -> Result<&'a str, FormatError> {
        self.pos += 1;
        let start = self.pos;
        let bytes = self.src.as_bytes();
        loop {
            match bytes.get(self.pos) {
                None => return Err(self.err(None, "unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(&self.src[start..self.pos - 1]);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.src[self.pos..].chars().next() {
                        Some(c @ ('"' | '\\' | 'n' | 't')) => self.pos += c.len_utf8(),
                        other => {
                            return Err(self.err(None, format!("unsupported string escape {other:?}")))
                        }
                    }
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    /// The text of a string whose opening quote is at the cursor: a slice
    /// of the line, or an owned copy when an escape had to be resolved.
    fn string(&mut self) -> Result<Cow<'a, str>, FormatError> {
        let body = self.raw_string()?;
        if !body.contains('\\') {
            return Ok(Cow::Borrowed(body));
        }
        let mut out = String::with_capacity(body.len());
        let mut chars = body.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            // `raw_string` let no escape through but these four.
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some(escaped) => out.push(escaped),
                None => {}
            }
        }
        Ok(Cow::Owned(out))
    }

    /// A keyword's name, its `:` at the cursor.
    fn keyword(&mut self, what: &str) -> Result<&'a str, FormatError> {
        self.pos += 1;
        let w = self.take_while(ident_byte);
        if w.is_empty() {
            return Err(self.err(None, format!("empty {what} after ':'")));
        }
        Ok(w)
    }

    /// An integer, its `-` or first digit at the cursor: the run of `-`s
    /// and digits that starts there is the token.
    fn integer(&mut self) -> Result<i64, FormatError> {
        let start = self.pos;
        let n = self.int();
        let end = self.pos;
        self.take_while(|b| b == b'-' || b.is_ascii_digit());
        match n {
            Some(n) if self.pos == end => Ok(n),
            _ => Err(self.err(None, format!("bad integer {:?}", &self.src[start..self.pos]))),
        }
    }

    /// A name — a keyword, a string, or a bare word — or `None`, the
    /// cursor where it was, when the value is something else.
    fn word(&mut self) -> Result<Option<Cow<'a, str>>, FormatError> {
        self.skip_ws();
        let start = self.pos;
        match self.peek() {
            Some(b'"') => self.string().map(Some),
            Some(b':') => self.keyword("keyword").map(|w| Some(Cow::Borrowed(w))),
            Some(b) if ident_byte(b) && b != b'-' && !b.is_ascii_digit() => {
                match self.take_while(ident_byte) {
                    "nil" | "null" | "true" | "false" => {
                        self.pos = start;
                        Ok(None)
                    }
                    w => Ok(Some(Cow::Borrowed(w))),
                }
            }
            _ => Ok(None),
        }
    }

    fn err(&self, field: Option<&'static str>, message: impl Into<String>) -> FormatError {
        FormatError { line: self.line, field, message: message.into() }
    }
}

fn jval<'a>(s: &mut Scan<'a>) -> Result<JVal<'a>, FormatError> {
    s.skip_ws();
    match s.peek() {
        Some(b'[') => {
            s.pos += 1;
            let mut items = Vec::new();
            loop {
                s.skip_ws();
                match s.peek() {
                    Some(b']') => {
                        s.pos += 1;
                        return Ok(JVal::Vec(items));
                    }
                    None => return Err(s.err(None, "unterminated vector: missing ']'")),
                    _ => items.push(jval(s)?),
                }
            }
        }
        Some(b'"') => s.string().map(JVal::Str),
        Some(b':') => s.keyword("keyword").map(JVal::Kw),
        Some(b'-' | b'0'..=b'9') => s.integer().map(JVal::Int),
        Some(b) if ident_byte(b) => match s.take_while(ident_byte) {
            "nil" | "null" => Ok(JVal::Nil),
            "true" => Ok(JVal::Bool(true)),
            "false" => Ok(JVal::Bool(false)),
            w => Ok(JVal::Kw(w)),
        },
        Some(_) => {
            let c = s.peek_char().expect("the cursor is on a character");
            Err(s.err(None, format!("unexpected character {c:?}")))
        }
        None => Err(s.err(None, "unexpected end of record")),
    }
}

/// A name-valued field's word, or the value that stood there instead.
fn word_field<'a>(s: &mut Scan<'a>) -> Result<Result<Cow<'a, str>, JVal<'a>>, FormatError> {
    match s.word()? {
        Some(w) => Ok(Ok(w)),
        None => jval(s).map(Err),
    }
}

fn jval_to_value(line: usize, field: Option<&'static str>, v: &JVal<'_>) -> Result<Value, FormatError> {
    match v {
        JVal::Nil => Ok(Value::Unit),
        JVal::Bool(b) => Ok(Value::Bool(*b)),
        JVal::Int(n) => Ok(Value::Int(*n)),
        JVal::Vec(items) => match items.as_slice() {
            [JVal::Bool(b), JVal::Int(n)] => Ok(Value::Pair(*b, *n)),
            _ => fail(line, field, format!("unsupported value {v} (expected nil, bool, int, or [bool int])")),
        },
        other => fail(line, field, format!("unsupported value {other} (expected nil, bool, int, or [bool int])")),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RecordKind {
    Invoke,
    Ok,
    Fail,
    Info,
}

/// One record's fields, borrowed from its line.
#[derive(Debug)]
struct JepsenRecord<'a> {
    process: u32,
    kind: RecordKind,
    f: Option<Cow<'a, str>>,
    value: JVal<'a>,
    key: Option<JVal<'a>>,
}

/// Reads one record line in one pass: `None` for a line with no record
/// (blank, a `#` comment, or a `;` comment). `:process`, `:type` and `:f`
/// are decoded as they are met; each keeps what stood in its place when
/// that is not what it needs, and a missing or malformed field is named
/// once the whole record has read, in that order.
fn parse_record(line: usize, raw: &str) -> Result<Option<JepsenRecord<'_>>, FormatError> {
    // Trailing whitespace is not the record's: an escape that ends the
    // content escapes nothing.
    let mut s = Scan::new(line, raw.trim_end());
    s.skip_space(false);
    if matches!(s.peek(), None | Some(b';')) {
        return Ok(None);
    }
    s.skip_ws();
    if s.peek() != Some(b'{') {
        return Err(s.err(None, "expected '{' to open a record"));
    }
    s.pos += 1;
    let (mut process, mut kind, mut f, mut value, mut key) = (None, None, None, None, None);
    loop {
        s.skip_ws();
        let name = match s.peek() {
            Some(b'}') => {
                s.pos += 1;
                break;
            }
            None => return Err(s.err(None, "unterminated record: missing '}'")),
            Some(b':') => s.keyword("field name")?,
            Some(b'"') => {
                // No field the record reads has an escape in its name,
                // so the name is compared as the line spells it.
                let w = s.raw_string()?;
                // JSON spelling: consume the ':' separator after a quoted name.
                // After an EDN keyword name a following ':' starts the *value*
                // keyword (`:type :invoke`), so it must stay.
                s.skip_ws();
                if s.peek() == Some(b':') {
                    s.pos += 1;
                }
                w
            }
            _ => return Err(s.err(None, "expected a field name like :process or \"process\"")),
        };
        match name.as_bytes() {
            b"process" => {
                s.skip_ws();
                process = Some(match s.peek() {
                    Some(b'-' | b'0'..=b'9') => {
                        let n = s.integer()?;
                        u32::try_from(n).map_err(|_| JVal::Int(n))
                    }
                    _ => Err(jval(&mut s)?),
                });
            }
            b"type" => {
                kind = Some(word_field(&mut s)?.and_then(|w| match w.as_bytes() {
                    b"invoke" => Ok(RecordKind::Invoke),
                    b"ok" => Ok(RecordKind::Ok),
                    b"fail" => Ok(RecordKind::Fail),
                    b"info" => Ok(RecordKind::Info),
                    _ => Err(JVal::Str(w)),
                }));
            }
            b"f" => f = Some(word_field(&mut s)?),
            b"value" => value = Some(jval(&mut s)?),
            b"key" => key = Some(jval(&mut s)?),
            _ => {
                jval(&mut s)?; // tolerate :time, :index, and friends
            }
        }
    }
    s.skip_ws();
    if s.peek().is_some() {
        return Err(s.err(None, "trailing characters after record"));
    }

    let process = match process {
        Some(Ok(process)) => process,
        Some(Err(other)) => {
            return fail(line, Some(":process"), format!("expected a non-negative integer process id, found {other}"))
        }
        None => return fail(line, Some(":process"), "missing required field"),
    };
    let kind = match kind.map(|kind| kind.map_err(JVal::into_word)) {
        Some(Ok(kind)) => kind,
        Some(Err(Ok(other))) => {
            return fail(line, Some(":type"), format!("expected invoke, ok, fail, or info, found {other:?}"))
        }
        Some(Err(Err(other))) => {
            return fail(line, Some(":type"), format!("expected a keyword or string, found {other}"))
        }
        None => return fail(line, Some(":type"), "missing required field"),
    };
    let f = match f.transpose() {
        Ok(f) => f,
        Err(other) => {
            return fail(line, Some(":f"), format!("expected a keyword or string, found {other}"))
        }
    };
    Ok(Some(JepsenRecord { process, kind, f, value: value.unwrap_or(JVal::Nil), key }))
}

/// One decoded jepsen record's effect on the history under construction.
#[derive(Debug)]
enum JStep {
    /// A new invocation for the process.
    Invoke(Action),
    /// The matching response completing the process's pending operation.
    Complete(Action),
    /// `:fail` — the operation did not happen; retract its invocation,
    /// the action at this index.
    Fail(ThreadId, usize),
    /// `:info` — outcome unknown; the invocation stays pending forever.
    Info(ThreadId),
}

/// The per-process decode state shared by the batch parser and the
/// streaming decoder: one record a process, and the key-interning table.
#[derive(Debug, Default)]
struct JepsenState {
    keys: KeyMap,
    processes: Threads<Process>,
}

/// A jepsen process, as its record in [`JepsenState`]'s table.
#[derive(Debug, Default)]
struct Process {
    /// Its open invocation: key, method, the invocation argument (kept to
    /// recognize etcd-style echoed write acks), and the index its action
    /// took in the history.
    pending: Option<(ObjectId, Method, Value, usize)>,
    /// An `:info` retired it (it crashed); it may invoke no more.
    retired: bool,
}

impl JepsenState {
    /// Decodes one line: `None` when it holds no record. `at` is the
    /// index an invocation's action takes in the history (the streaming
    /// decoder, which builds none, passes 0).
    fn step(&mut self, line: usize, raw: &str, at: usize) -> Result<Option<JStep>, FormatError> {
        let Some(rec) = parse_record(line, raw)? else {
            return Ok(None);
        };
        let t = ThreadId(rec.process);
        // A process gets its record when it first invokes: a record that
        // is refused leaves the table as it was.
        let found = self.processes.find(t);
        let process = found.map(|slot| &self.processes.records[slot]);
        match rec.kind {
            RecordKind::Invoke => {
                if process.is_some_and(|p| p.retired) {
                    return fail(line, Some(":process"), format!("process {} re-invoked after :info retired it", rec.process));
                }
                if process.is_some_and(|p| p.pending.is_some()) {
                    return fail(line, Some(":process"), format!("process {} already has a pending operation", rec.process));
                }
                let Some(name) = rec.f.as_deref() else {
                    return fail(line, Some(":f"), "missing required field on :invoke");
                };
                let method = intern_method(line, name)?;
                let object = match &rec.key {
                    None => self.keys.int_key(line, Some(":key"), 0)?,
                    Some(JVal::Int(n)) => self.keys.int_key(line, Some(":key"), *n)?,
                    Some(JVal::Str(w)) => self.keys.name_key(line, Some(":key"), w)?,
                    Some(JVal::Kw(w)) => self.keys.name_key(line, Some(":key"), w)?,
                    Some(other) => {
                        return fail(line, Some(":key"), format!("expected an integer or string key, found {other}"))
                    }
                };
                let arg = if matches!(name, "read" | "get") {
                    Value::Unit // etcd-style traces put the *observed* value here
                } else {
                    jval_to_value(line, Some(":value"), &rec.value)?
                };
                let slot = found.unwrap_or_else(|| self.processes.slot(t));
                self.processes.records[slot].pending = Some((object, method, arg, at));
                Ok(Some(JStep::Invoke(Action::invoke(t, object, method, arg))))
            }
            RecordKind::Ok => {
                let Some((slot, (object, method, arg, _))) =
                    found.zip(process.and_then(|p| p.pending))
                else {
                    return fail(line, Some(":process"), format!(":ok with no pending :invoke for process {}", rec.process));
                };
                // etcd-style harnesses ack a write/put with nil or by
                // echoing the written value; both normalize to unit. A
                // put with a genuinely different return value (a
                // synchronous queue reporting true/false) keeps it.
                let echo = matches!(rec.value, JVal::Nil)
                    || jval_to_value(line, None, &rec.value).ok() == Some(arg);
                let ret = if echo && matches!(method.0, "write" | "put") {
                    Value::Unit
                } else {
                    jval_to_value(line, Some(":value"), &rec.value)?
                };
                // Only a record that converts closes the invocation.
                self.processes.records[slot].pending = None;
                Ok(Some(JStep::Complete(Action::response(t, object, method, ret))))
            }
            RecordKind::Fail => {
                let open = found.and_then(|slot| self.processes.records[slot].pending.take());
                let Some((_, _, _, at)) = open else {
                    return fail(line, Some(":process"), format!(":fail with no pending :invoke for process {}", rec.process));
                };
                Ok(Some(JStep::Fail(t, at)))
            }
            RecordKind::Info => match found.filter(|&slot| self.processes.records[slot].pending.is_some()) {
                Some(slot) => {
                    self.processes.records[slot] = Process { pending: None, retired: true };
                    Ok(Some(JStep::Info(t)))
                }
                None => fail(line, Some(":process"), format!(":info with no pending :invoke for process {}", rec.process)),
            },
        }
    }
}

fn parse_jepsen(input: &str) -> Result<(Vec<Action>, Vec<usize>), FormatError> {
    let mut state = JepsenState::default();
    let mut actions: Vec<Action> = Vec::new();
    // The source line of each action; 0 marks an invocation a `:fail`
    // retracted, dropped with its action once every line is read.
    let mut lines: Vec<usize> = Vec::new();
    for (i, raw) in input.lines().enumerate() {
        let line = i + 1;
        match state.step(line, raw, actions.len())? {
            Some(JStep::Invoke(a) | JStep::Complete(a)) => {
                actions.push(a);
                lines.push(line);
            }
            Some(JStep::Fail(_, at)) => lines[at] = 0,
            // The invocation stays in the history, pending forever.
            Some(JStep::Info(_)) | None => {}
        }
    }
    if lines.contains(&0) {
        let mut kept = lines.iter().map(|&line| line > 0);
        actions.retain(|_| kept.next() == Some(true));
        lines.retain(|&line| line > 0);
    }
    Ok((actions, lines))
}

/// Serializes a history as jepsen records, one per action, preserving the
/// exact interleaving (round-trips through [`parse_as`] with
/// [`Format::Jepsen`] for histories whose write/put completions are unit
/// and read/get arguments are unit — which every spec family here
/// requires anyway).
pub fn format_jepsen(history: &History) -> String {
    let mut out = String::new();
    for a in history.actions() {
        let kind = if a.is_invoke() { "invoke" } else { "ok" };
        let value = a.arg().or_else(|| a.ret()).expect("every action carries a value");
        write_jepsen_record(&mut out, a.thread().0, kind, a, value);
    }
    out
}

/// Appends the jepsen record of `action` to `out` as process `process`
/// saw it: `kind` is the record's `:type` (`invoke`, `ok`, `fail` or
/// `info`) and `value` its `:value`, which for a lost acknowledgement is
/// not the action's own. The one writer of this wire shape:
/// [`format_jepsen`] and the chaos harness's foreign-trace faults both
/// spell records through it.
pub fn write_jepsen_record(
    out: &mut String,
    process: u32,
    kind: &str,
    action: &Action,
    value: Value,
) {
    let (method, key) = (action.method(), action.object().0);
    let _ = write!(out, "{{:process {process}, :type :{kind}, :f :{method}, :key {key}, :value ");
    // The EDN spelling of a wire value, matching what the jepsen parser
    // reads back (`nil`, booleans, integers, `[bool int]` pairs).
    let _ = match value {
        Value::Unit => out.write_str("nil"),
        Value::Bool(b) => write!(out, "{b}"),
        Value::Int(n) => write!(out, "{n}"),
        Value::Pair(b, n) => write!(out, "[{b} {n}]"),
    };
    out.push_str("}\n");
}

// ---------------------------------------------------------------------------
// kvlog
// ---------------------------------------------------------------------------

const KV_USAGE: &str = "expected: <start> <end|-> <client> put|get <key> [<value>]";

/// One parsed kvlog line: the operation's stamps and its actions.
#[derive(Debug)]
struct KvLine {
    start: u64,
    end: Option<u64>,
    inv: Action,
    res: Option<Action>,
}

fn parse_kvlog_line(line: usize, text: &str, keys: &mut KeyMap) -> Result<KvLine, FormatError> {
    // A line is five or six tokens, scanned into six slots: no allocation.
    let mut slots = [""; 6];
    let mut n = 0;
    for tok in text.split_whitespace() {
        let Some(slot) = slots.get_mut(n) else {
            return fail(line, None, KV_USAGE);
        };
        *slot = tok;
        n += 1;
    }
    if n < 5 {
        return fail(line, None, KV_USAGE);
    }
    let toks = &slots[..n];
    let start: u64 = toks[0]
        .parse()
        .map_err(|_| FormatError { line, field: Some("start"), message: format!("bad invocation timestamp {:?}", toks[0]) })?;
    let end: Option<u64> = match toks[1] {
        "-" | "?" => None,
        w => Some(w.parse().map_err(|_| FormatError {
            line,
            field: Some("end"),
            message: format!("bad response timestamp {w:?} (use '-' for a pending operation)"),
        })?),
    };
    if let Some(e) = end {
        if e < start {
            return fail(line, Some("end"), format!("response timestamp {e} precedes invocation timestamp {start}"));
        }
    }
    let c = toks[2];
    let client: u32 = c
        .strip_prefix('c')
        .or_else(|| c.strip_prefix('t'))
        .unwrap_or(c)
        .parse()
        .map_err(|_| FormatError { line, field: Some("client"), message: format!("bad client id {c:?} (expected e.g. c0 or 0)") })?;
    let t = ThreadId(client);
    let op = toks[3];
    let spelled = |words: &[&str]| words.iter().any(|w| op.eq_ignore_ascii_case(w));
    let is_write = if spelled(&["put", "write", "set"]) {
        true
    } else if spelled(&["get", "read"]) {
        false
    } else {
        let other = op.to_ascii_lowercase();
        return fail(line, Some("op"), format!("unknown operation {other:?} (expected put or get)"));
    };
    let key_tok = toks[4];
    let object = if let Ok(n) = key_tok.parse::<i64>() {
        keys.int_key(line, Some("key"), n)?
    } else if !key_tok.is_empty() && key_tok.bytes().all(ident_byte) {
        keys.name_key(line, Some("key"), key_tok)?
    } else {
        return fail(line, Some("key"), format!("bad key {key_tok:?}"));
    };
    let val = toks.get(5).copied();
    let (inv, res) = if is_write {
        let Some(v) = val.and_then(|w| w.parse::<i64>().ok()) else {
            return fail(line, Some("value"), "put needs an integer value");
        };
        let m = Method("write");
        (Action::invoke(t, object, m, Value::Int(v)), end.map(|_| Action::response(t, object, m, Value::Unit)))
    } else {
        let m = Method("read");
        let inv = Action::invoke(t, object, m, Value::Unit);
        let res = match end {
            None => None, // a value on a pending get is ignored: the outcome is unknown
            Some(_) => {
                let Some(v) = val.filter(|w| *w != "-" && *w != "?").and_then(|w| w.parse::<i64>().ok()) else {
                    return fail(line, Some("value"), "completed get needs the returned integer value");
                };
                Some(Action::response(t, object, m, Value::Int(v)))
            }
        };
        (inv, res)
    };
    Ok(KvLine { start, end, inv, res })
}

/// One parsed `hb` metadata line (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HbDecl {
    /// `hb session` — annotated, no extra edges.
    Session,
    /// `hb <i> <j>` — 1-based operation-line ids, `i` happens-before `j`.
    Edge(usize, usize),
}

const HB_USAGE: &str = "expected 'hb session' or 'hb <i> <j>' (1-based operation-line ids)";

fn parse_hb_line(line: usize, text: &str) -> Result<HbDecl, FormatError> {
    let toks: Vec<&str> = text.split_whitespace().collect();
    match toks.as_slice() {
        ["hb", "session"] => Ok(HbDecl::Session),
        ["hb", a, b] => {
            let id = |w: &str| -> Result<usize, FormatError> {
                match w.parse::<usize>() {
                    Ok(n) if n >= 1 => Ok(n),
                    _ => fail(line, Some("hb"), format!("bad operation id {w:?}: {HB_USAGE}")),
                }
            };
            let (i, j) = (id(a)?, id(b)?);
            if i == j {
                return fail(line, Some("hb"), format!("self-edge: operation {i} cannot happen before itself"));
            }
            Ok(HbDecl::Edge(i, j))
        }
        _ => fail(line, Some("hb"), HB_USAGE),
    }
}

#[allow(clippy::type_complexity)]
fn parse_kvlog(
    input: &str,
) -> Result<(Vec<Action>, Vec<usize>, Option<Vec<(usize, usize)>>), FormatError> {
    let mut keys = KeyMap::default();
    // (ts, rank, seq) sort key: invocations (rank 0) before responses
    // (rank 1) at equal stamps — closed intervals, touching endpoints
    // overlap — then emission order for determinism. Invocation events
    // carry their operation-line ordinal so declared `hb` edges can be
    // translated to post-sort span indices.
    let mut events: Vec<(u64, u8, usize, usize, Action, Option<usize>)> = Vec::new();
    let mut seq = 0usize;
    let mut ops = 0usize;
    let mut decls: Vec<(usize, HbDecl)> = Vec::new();
    for (i, raw) in input.lines().enumerate() {
        let line = i + 1;
        let Some(text) = content(raw) else {
            continue;
        };
        if text.split_whitespace().next() == Some("hb") {
            decls.push((line, parse_hb_line(line, text)?));
            continue;
        }
        let kv = parse_kvlog_line(line, text, &mut keys)?;
        events.push((kv.start, 0, seq, line, kv.inv, Some(ops)));
        ops += 1;
        seq += 1;
        if let (Some(end), Some(res)) = (kv.end, kv.res) {
            events.push((end, 1, seq, line, res, None));
            seq += 1;
        }
    }
    events.sort_by_key(|(ts, rank, seq, _, _, _)| (*ts, *rank, *seq));
    let mut actions = Vec::with_capacity(events.len());
    let mut lines = Vec::with_capacity(events.len());
    // Operation-line ordinal → span index (invocation rank after the sort).
    let mut span_of_op = vec![0usize; ops];
    let mut span = 0usize;
    for (_, _, _, line, action, op) in events {
        if let Some(o) = op {
            span_of_op[o] = span;
            span += 1;
        }
        actions.push(action);
        lines.push(line);
    }
    if decls.is_empty() {
        return Ok((actions, lines, None));
    }
    let mut edges = Vec::new();
    for (line, decl) in decls {
        if let HbDecl::Edge(i, j) = decl {
            for id in [i, j] {
                if id > ops {
                    return fail(line, Some("hb"), format!("operation id {id} out of range (the log has {ops} operations)"));
                }
            }
            edges.push((span_of_op[i - 1], span_of_op[j - 1]));
        }
    }
    Ok((actions, lines, Some(edges)))
}

/// Serializes a register-shaped history (reads and writes only) as a
/// kvlog, one operation per line, stamping events with their action
/// indices so parsing reconstructs the exact interleaving.
///
/// # Errors
///
/// Returns a [`FormatError`] (with `line == 0`) when the history is
/// ill-formed or contains operations kvlog cannot express: methods other
/// than read/get/write/put, non-integer write arguments, non-unit write
/// returns, or non-integer read returns.
pub fn format_kvlog(history: &History) -> Result<String, FormatError> {
    let spans = history
        .try_spans()
        .map_err(|e| FormatError { line: 0, field: None, message: format!("ill-formed history: {e}") })?;
    let actions = history.actions();
    let mut out = String::new();
    for span in spans {
        let inv = &actions[span.inv];
        let end = match span.resp {
            Some(r) => r.to_string(),
            None => "-".to_string(),
        };
        let key = inv.object().0;
        let client = inv.thread().0;
        let line = match inv.method().0 {
            "write" | "put" => {
                let Some(Value::Int(v)) = inv.arg() else {
                    return fail(0, None, format!("kvlog cannot express a put with argument {:?}", inv.arg()));
                };
                if let Some(r) = span.resp {
                    if actions[r].ret() != Some(Value::Unit) {
                        return fail(0, None, format!("kvlog cannot express a put returning {:?}", actions[r].ret()));
                    }
                }
                format!("{} {} c{} put {} {}\n", span.inv, end, client, key, v)
            }
            "read" | "get" => {
                let ret = match span.resp {
                    None => "-".to_string(),
                    Some(r) => match actions[r].ret() {
                        Some(Value::Int(v)) => v.to_string(),
                        other => {
                            return fail(0, None, format!("kvlog cannot express a get returning {other:?}"))
                        }
                    },
                };
                format!("{} {} c{} get {} {}\n", span.inv, end, client, key, ret)
            }
            other => return fail(0, None, format!("kvlog cannot express method {other:?}")),
        };
        out.push_str(&line);
    }
    Ok(out)
}

/// Like [`format_kvlog`], appending causality metadata: one `hb <i> <j>`
/// line per edge (span indices translated to 1-based operation-line
/// ids), or a bare `hb session` directive when `edges` is empty — so the
/// output always round-trips through [`parse_annotated`] as annotated.
///
/// # Errors
///
/// As [`format_kvlog`]; additionally rejects edges whose endpoints are
/// out of range or equal.
pub fn format_kvlog_annotated(
    history: &History,
    edges: &[(usize, usize)],
) -> Result<String, FormatError> {
    let mut out = format_kvlog(history)?;
    // One operation a span, and one span an invocation.
    let ops = history.actions().iter().filter(|a| a.is_invoke()).count();
    if edges.is_empty() {
        out.push_str("hb session\n");
        return Ok(out);
    }
    for &(from, to) in edges {
        if from >= ops || to >= ops {
            return fail(0, None, format!("hb edge ({from}, {to}) out of range (the history has {ops} operations)"));
        }
        if from == to {
            return fail(0, None, format!("hb self-edge on operation {from}"));
        }
        // format_kvlog emits one operation line per span, in span order,
        // so span index k is operation-line id k + 1.
        out.push_str(&format!("hb {} {}\n", from + 1, to + 1));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Streaming
// ---------------------------------------------------------------------------

/// One decoded effect of a wire line on a streaming checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireItem {
    /// Push this action.
    Action(Action),
    /// Seal the thread's pending operation (`:fail`/`:info` records and
    /// pending kvlog operations map here; the streaming checker's
    /// timeout-admission explores both dropping and completing it).
    Abandon(ThreadId),
    /// A declared happens-before edge between two operations, as 0-based
    /// arrival-order operation indices (kvlog `hb <i> <j>` lines; ids on
    /// the wire are 1-based). Streaming kvlog decodes operations in
    /// arrival order, so arrival index and span index coincide. Forward
    /// references — `to` not yet decoded — are legal; the streaming
    /// checker buffers them. A bare `hb session` directive decodes to no
    /// items (causal mode is a checker-level switch when streaming).
    HbEdge {
        /// The operation that happens before `to`.
        from: usize,
        /// The operation that happens after `from`.
        to: usize,
    },
}

/// An incremental decoder turning wire lines of any [`Format`] into
/// [`WireItem`]s for a streaming checker. Construct with `None` to
/// auto-detect from the first contentful line (the choice then latches).
///
/// Streaming caveats, by design:
///
/// - jepsen `:fail` cannot retract an already-pushed invocation, so both
///   `:fail` and `:info` become [`WireItem::Abandon`] — a sound
///   over-approximation of the batch semantics (the checker considers
///   dropping the operation, which is what `:fail` asserts).
/// - kvlog lines decode in arrival order; the batch parser's global
///   timestamp sort is impossible online, so each line's invocation and
///   response are emitted adjacently. This is stricter than batch order
///   for overlapping operations — concurrent clients should stream
///   interleaved lines.
#[derive(Debug)]
pub struct StreamDecoder {
    format: Option<Format>,
    jepsen: JepsenState,
    kv_keys: KeyMap,
}

impl StreamDecoder {
    /// Creates a decoder for `format`, or an auto-detecting one for `None`.
    pub fn new(format: Option<Format>) -> Self {
        StreamDecoder { format, jepsen: JepsenState::default(), kv_keys: KeyMap::default() }
    }

    /// The decoder's format, once known (auto mode latches on the first
    /// contentful line).
    pub fn format(&self) -> Option<Format> {
        self.format
    }

    /// Decodes one wire line into its checker effects. Blank and comment
    /// lines decode to no items. `line` is the 1-based wire line number
    /// used in error anchors.
    ///
    /// # Errors
    ///
    /// Returns a line/field-anchored [`FormatError`] for malformed lines;
    /// the decoder stays usable afterwards (the line had no effect).
    pub fn decode_line(&mut self, line: usize, raw: &str) -> Result<Vec<WireItem>, FormatError> {
        let mut items = Vec::new();
        self.decode_into(line, raw, &mut items).map(|()| items)
    }

    /// [`StreamDecoder::decode_line`] into a buffer the caller keeps:
    /// the line's effects are appended to `items`, which a loop over
    /// lines clears and lends again, so a line costs no allocation of
    /// its own. (An empty `items` is grown to exactly the line's size.)
    ///
    /// # Errors
    ///
    /// As [`StreamDecoder::decode_line`]; `items` is then as it was.
    pub fn decode_into(
        &mut self,
        line: usize,
        raw: &str,
        items: &mut Vec<WireItem>,
    ) -> Result<(), FormatError> {
        // The line and record parsers skip a blank or comment line in
        // the pass that reads it; kvlog's is read here.
        let format = match self.format {
            Some(format) => format,
            None => match content(raw) {
                Some(text) => *self.format.insert(sniff_line(text)),
                None => return Ok(()),
            },
        };
        let mut emit = |batch: &[WireItem]| {
            items.reserve_exact(batch.len());
            items.extend_from_slice(batch);
        };
        match format {
            Format::Native => {
                // A `;` comment line, as in every format on the wire.
                if raw.trim_start().starts_with(';') {
                    return Ok(());
                }
                if let Some(a) = text::parse_action_line(line, raw)? {
                    emit(&[WireItem::Action(a)]);
                }
            }
            Format::Jepsen => match self.jepsen.step(line, raw, 0)? {
                Some(JStep::Invoke(a) | JStep::Complete(a)) => emit(&[WireItem::Action(a)]),
                Some(JStep::Fail(t, _) | JStep::Info(t)) => emit(&[WireItem::Abandon(t)]),
                None => {}
            },
            Format::KvLog => {
                let Some(text) = content(raw) else {
                    return Ok(());
                };
                if text.split_whitespace().next() == Some("hb") {
                    if let HbDecl::Edge(i, j) = parse_hb_line(line, text)? {
                        emit(&[WireItem::HbEdge { from: i - 1, to: j - 1 }]);
                    }
                    return Ok(());
                }
                let kv = parse_kvlog_line(line, text, &mut self.kv_keys)?;
                let end = match kv.res {
                    Some(res) => WireItem::Action(res),
                    None => WireItem::Abandon(kv.inv.thread()),
                };
                emit(&[WireItem::Action(kv.inv), end]);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::text::parse_history;

    const EDN_OK: &str = "\
; an etcd-style register trace
{:process 0, :type :invoke, :f :write, :value 1, :key 0}
{:process 1, :type :invoke, :f :read, :value nil, :key 0}
{:process 0, :type :ok, :f :write, :value 1, :key 0}
{:process 1, :type :ok, :f :read, :value 1, :key 0}
";

    #[test]
    fn jepsen_edn_basic() {
        let h = parse_as(Format::Jepsen, EDN_OK).unwrap();
        assert_eq!(h.len(), 4);
        assert!(h.is_complete());
        // write ack echoing the value is normalized to unit:
        assert_eq!(h.actions()[2].ret(), Some(Value::Unit));
        // read invoke is normalized to unit:
        assert_eq!(h.actions()[1].arg(), Some(Value::Unit));
        assert_eq!(h.actions()[3].ret(), Some(Value::Int(1)));
    }

    #[test]
    fn jepsen_json_spelling() {
        let input = "\
{\"process\": 0, \"type\": \"invoke\", \"f\": \"write\", \"value\": 7}
{\"process\": 0, \"type\": \"ok\", \"f\": \"write\", \"value\": 7}
";
        let h = parse_as(Format::Jepsen, input).unwrap();
        assert_eq!(h.len(), 2);
        assert_eq!(h.actions()[0].arg(), Some(Value::Int(7)));
        assert_eq!(h.actions()[1].ret(), Some(Value::Unit));
    }

    #[test]
    fn jepsen_fail_retracts_invocation() {
        let input = "\
{:process 0, :type :invoke, :f :write, :value 1}
{:process 1, :type :invoke, :f :write, :value 2}
{:process 0, :type :fail, :f :write, :value 1}
{:process 1, :type :ok, :f :write}
";
        let h = parse_as(Format::Jepsen, input).unwrap();
        assert_eq!(h.len(), 2);
        assert_eq!(h.actions()[0].thread(), ThreadId(1));
        assert!(h.is_complete());
    }

    #[test]
    fn jepsen_info_leaves_pending_and_retires() {
        let input = "\
{:process 0, :type :invoke, :f :write, :value 1}
{:process 0, :type :info, :f :write}
";
        let h = parse_as(Format::Jepsen, input).unwrap();
        assert_eq!(h.len(), 1);
        assert!(!h.is_complete());

        let reuse = format!("{input}{{:process 0, :type :invoke, :f :write, :value 2}}\n");
        let e = parse_as(Format::Jepsen, &reuse).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("retired"), "{e}");
    }

    #[test]
    fn jepsen_nested_invoke_is_anchored() {
        let input = "\
{:process 0, :type :invoke, :f :write, :value 1}
{:process 0, :type :invoke, :f :write, :value 2}
";
        let e = parse_as(Format::Jepsen, input).unwrap_err();
        assert_eq!(e.line, 2);
        assert_eq!(e.field, Some(":process"));
    }

    #[test]
    fn jepsen_string_keys_intern_and_mixing_errors() {
        let input = "\
{:process 0, :type :invoke, :f :write, :value 1, :key \"x\"}
{:process 0, :type :ok, :f :write}
{:process 1, :type :invoke, :f :write, :value 2, :key \"y\"}
{:process 1, :type :ok, :f :write}
";
        let h = parse_as(Format::Jepsen, input).unwrap();
        assert_eq!(h.actions()[0].object(), ObjectId(0));
        assert_eq!(h.actions()[2].object(), ObjectId(1));

        let mixed = format!("{input}{{:process 2, :type :invoke, :f :write, :value 3, :key 5}}\n");
        let e = parse_as(Format::Jepsen, &mixed).unwrap_err();
        assert_eq!(e.line, 5);
        assert!(e.message.contains("mix"), "{e}");
    }

    #[test]
    fn jepsen_unknown_fields_tolerated() {
        let input = "\
{:process 0, :type :invoke, :f :write, :value 1, :time 1234, :index 0}
{:process 0, :type :ok, :f :write, :value 1, :time 1299, :index 1}
";
        assert_eq!(parse_as(Format::Jepsen, input).unwrap().len(), 2);
    }

    #[test]
    fn jepsen_diagnostics_never_panic() {
        for bad in [
            "{",
            "{}",
            "{:process}",
            "{:process 0}",
            "{:process 0, :type :frob}",
            "{:process :nemesis, :type :info}",
            "{:process 0, :type :invoke}",
            "{:process 0, :type :ok, :f :write}",
            "{:process 0, :type :invoke, :f :write, :value \"str\"}",
            "{:process 0, :type :invoke, :f :write, :value [1 2 3]}",
            "{:process 0, :type :invoke, :f :write, :value 1} trailing",
            "{:process 99999999999999999999, :type :invoke, :f :write}",
        ] {
            let e = parse_as(Format::Jepsen, bad).unwrap_err();
            assert_eq!(e.line, 1, "input: {bad}");
        }
    }

    const KVLOG_OK: &str = "\
# ahorn H: write(1); then read():2 concurrent with write(2)
0 1 c0 put x 1
2 5 c1 get x 2
3 6 c2 put x 2
";

    #[test]
    fn kvlog_basic_orders_by_timestamp() {
        let h = parse_as(Format::KvLog, KVLOG_OK).unwrap();
        assert_eq!(h.len(), 6);
        assert!(h.is_complete());
        // write(1) completes before the read invokes:
        assert!(h.actions()[0].is_invoke() && h.actions()[0].arg() == Some(Value::Int(1)));
        assert!(h.actions()[1].is_response());
        assert_eq!(h.actions()[2].thread(), ThreadId(1));
    }

    #[test]
    fn kvlog_closed_intervals_touching_endpoints_overlap() {
        // op A ends at 5, op B starts at 5: the invocation sorts first,
        // so A and B are concurrent.
        let input = "0 5 c0 put 0 1\n5 9 c1 get 0 1\n";
        let h = parse_as(Format::KvLog, input).unwrap();
        let spans = h.spans();
        assert!(History::spans_concurrent(&spans[0], &spans[1]));
    }

    #[test]
    fn kvlog_pending_and_aliases() {
        let input = "0 - 0 write k1 7\n1 9 t1 read k1 0\n";
        let h = parse_as(Format::KvLog, input).unwrap();
        assert_eq!(h.len(), 3);
        assert!(!h.is_complete());
        assert_eq!(h.actions()[0].object(), h.actions()[1].object());
    }

    #[test]
    fn kvlog_diagnostics_are_anchored() {
        for (bad, line, needle) in [
            ("0 1 c0 put x\n", 1, "value"),
            ("0 1 c0 get x\n", 1, "value"),
            ("9 1 c0 put x 1\n", 1, "precedes"),
            ("0 1 c0 frob x 1\n", 1, "operation"),
            ("x 1 c0 put x 1\n", 1, "timestamp"),
            ("0 1 cat put x 1\n", 1, "client"),
            ("0 1 c0 put x 1 extra\n", 1, "expected"),
            ("0 1 c0 put 3 1\n0 1 c1 put x 1\n", 2, "mix"),
        ] {
            let e = parse_as(Format::KvLog, bad).unwrap_err();
            assert_eq!(e.line, line, "input: {bad:?} err: {e}");
            assert!(e.to_string().contains(needle), "input: {bad:?} err: {e}");
        }
    }

    #[test]
    fn kvlog_overlapping_same_client_anchors_nested_invocation() {
        let input = "0 9 c0 put x 1\n2 5 c0 get x 0\n";
        let e = parse_as(Format::KvLog, input).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("ill-formed"), "{e}");
    }

    #[test]
    fn detect_three_ways() {
        assert_eq!(detect(EDN_OK), Format::Jepsen);
        assert_eq!(detect("# comment\n[\"json\"]\n"), Format::Jepsen);
        assert_eq!(detect(KVLOG_OK), Format::KvLog);
        assert_eq!(detect("# c\nt0 inv o0.write 1\n"), Format::Native);
        assert_eq!(detect(""), Format::Native);
        // a native line never has a leading integer token:
        assert_eq!(detect("t0 inv o0.write 1\n"), Format::Native);
    }

    const NATIVE_SAMPLE: &str = "\
t1 inv o0.exchange 3
t2 inv o0.exchange 4
t1 res o0.exchange (true,4)
t2 res o0.exchange (true,3)
t3 inv o0.write 5
";

    #[test]
    fn jepsen_round_trip_preserves_history() {
        let h = parse_history(NATIVE_SAMPLE).unwrap();
        let text = format_jepsen(&h);
        let h2 = parse_as(Format::Jepsen, &text).unwrap();
        assert_eq!(h, h2);
    }

    #[test]
    fn kvlog_round_trip_preserves_register_history() {
        let h = parse_history(
            "t0 inv o0.write 1\nt1 inv o1.read ()\nt0 res o0.write ()\nt1 res o1.read 0\nt2 inv o0.read ()\n",
        )
        .unwrap();
        let text = format_kvlog(&h).unwrap();
        let h2 = parse_as(Format::KvLog, &text).unwrap();
        assert_eq!(h, h2);
    }

    #[test]
    fn kvlog_rejects_unrepresentable_methods() {
        let h = parse_history("t0 inv o0.exchange 3\nt0 res o0.exchange (false,3)\n").unwrap();
        let e = format_kvlog(&h).unwrap_err();
        assert_eq!(e.line, 0);
        assert!(e.message.contains("exchange"), "{e}");
    }

    #[test]
    fn native_errors_flow_through() {
        let e = parse_as(Format::Native, "t0 inv o0.write 1\nbogus\n").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn format_error_display() {
        let e = FormatError { line: 3, field: Some(":process"), message: "nope".into() };
        assert_eq!(e.to_string(), "line 3: field :process: nope");
        let e = FormatError { line: 0, field: None, message: "nope".into() };
        assert_eq!(e.to_string(), "nope");
    }

    #[test]
    fn stream_decoder_native_and_auto() {
        let mut d = StreamDecoder::new(None);
        assert_eq!(d.format(), None);
        assert!(d.decode_line(1, "# comment").unwrap().is_empty());
        let items = d.decode_line(2, "t0 inv o0.write 1").unwrap();
        assert_eq!(d.format(), Some(Format::Native));
        assert_eq!(items.len(), 1);
        // latched: a jepsen-looking line is now a native parse error
        assert!(d.decode_line(3, "{:process 0, :type :invoke, :f :write}").is_err());
    }

    #[test]
    fn stream_decoder_jepsen() {
        let mut d = StreamDecoder::new(Some(Format::Jepsen));
        let inv = d.decode_line(1, "{:process 0, :type :invoke, :f :write, :value 1}").unwrap();
        assert!(matches!(inv.as_slice(), [WireItem::Action(a)] if a.is_invoke()));
        let ok = d.decode_line(2, "{:process 0, :type :ok, :f :write}").unwrap();
        assert!(matches!(ok.as_slice(), [WireItem::Action(a)] if a.is_response()));
        d.decode_line(3, "{:process 1, :type :invoke, :f :read}").unwrap();
        let info = d.decode_line(4, "{:process 1, :type :info, :f :read}").unwrap();
        assert_eq!(info, vec![WireItem::Abandon(ThreadId(1))]);
        // decoder survives a malformed line:
        assert!(d.decode_line(5, "{:process oops").is_err());
        let again = d.decode_line(6, "{:process 2, :type :invoke, :f :write, :value 2}").unwrap();
        assert_eq!(again.len(), 1);
    }

    #[test]
    fn jepsen_unconvertible_ok_is_anchored() {
        // The record is refused before it closes its invocation; the
        // batch stops at it either way, with this error.
        let input = "{:process 0, :type :invoke, :f :read}\n\
                     {:process 0, :type :ok, :f :read, :value \"x\"}\n";
        let err = parse_as(Format::Jepsen, input).unwrap_err();
        let why = "line 2: field :value: unsupported value \"x\" (expected nil, bool, int, or [bool int])";
        assert_eq!(err.to_string(), why);
    }

    #[test]
    fn kvlog_hb_edges_map_to_span_indices() {
        // Operation lines appear out of timestamp order: op 1 (file
        // order) starts at t=4 and becomes span 1; op 2 starts at t=0
        // and becomes span 0. The declared edge 1→2 must follow them.
        let input = "\
4 5 c0 put x 1
0 1 c1 get x 0
hb 1 2
";
        let a = parse_annotated(Format::KvLog, input).unwrap();
        assert_eq!(a.history.len(), 4);
        assert_eq!(a.hb_edges, Some(vec![(1, 0)]));
        // plain parse_as accepts and ignores the metadata:
        assert_eq!(parse_as(Format::KvLog, input).unwrap(), a.history);
    }

    #[test]
    fn kvlog_hb_session_is_annotated_with_no_edges() {
        let input = "hb session\n0 1 c0 put x 1\n";
        let a = parse_annotated(Format::KvLog, input).unwrap();
        assert_eq!(a.hb_edges, Some(vec![]));
        assert_eq!(detect(input), Format::KvLog);

        let plain = parse_annotated(Format::KvLog, "0 1 c0 put x 1\n").unwrap();
        assert_eq!(plain.hb_edges, None);
    }

    #[test]
    fn kvlog_hb_diagnostics_are_anchored() {
        for (bad, line, needle) in [
            ("hb\n0 1 c0 put x 1\n", 1, "expected"),
            ("hb 1\n0 1 c0 put x 1\n", 1, "expected"),
            ("hb one 2\n0 1 c0 put x 1\n", 1, "bad operation id"),
            ("hb 0 2\n0 1 c0 put x 1\n", 1, "bad operation id"),
            ("hb 1 1\n0 1 c0 put x 1\n", 1, "self-edge"),
            ("0 1 c0 put x 1\nhb 1 2\n", 2, "out of range"),
        ] {
            let e = parse_annotated(Format::KvLog, bad).unwrap_err();
            assert_eq!(e.line, line, "input: {bad:?} err: {e}");
            assert!(e.to_string().contains(needle), "input: {bad:?} err: {e}");
        }
    }

    #[test]
    fn kvlog_annotated_round_trip() {
        let h = parse_history("t0 inv o0.write 1\nt0 res o0.write ()\nt1 inv o0.read ()\nt1 res o0.read 0\n").unwrap();
        let text = format_kvlog_annotated(&h, &[(0, 1)]).unwrap();
        let a = parse_annotated(Format::KvLog, &text).unwrap();
        assert_eq!(a.history, h);
        assert_eq!(a.hb_edges, Some(vec![(0, 1)]));

        let session = format_kvlog_annotated(&h, &[]).unwrap();
        assert!(session.ends_with("hb session\n"));
        let a = parse_annotated(Format::KvLog, &session).unwrap();
        assert_eq!(a.hb_edges, Some(vec![]));

        assert!(format_kvlog_annotated(&h, &[(0, 9)]).is_err());
        assert!(format_kvlog_annotated(&h, &[(1, 1)]).is_err());
    }

    #[test]
    fn jepsen_and_native_parse_annotated_as_unannotated() {
        let a = parse_annotated(Format::Jepsen, EDN_OK).unwrap();
        assert_eq!(a.hb_edges, None);
        let a = parse_annotated(Format::Native, NATIVE_SAMPLE).unwrap();
        assert_eq!(a.hb_edges, None);
    }

    #[test]
    fn stream_decoder_kvlog_hb() {
        let mut d = StreamDecoder::new(Some(Format::KvLog));
        assert!(d.decode_line(1, "hb session").unwrap().is_empty());
        d.decode_line(2, "0 1 c0 put x 1").unwrap();
        let edge = d.decode_line(3, "hb 1 2").unwrap();
        assert_eq!(edge, vec![WireItem::HbEdge { from: 0, to: 1 }]);
        assert!(d.decode_line(4, "hb 1 1").is_err());
    }

    #[test]
    fn stream_decoder_kvlog() {
        let mut d = StreamDecoder::new(Some(Format::KvLog));
        let done = d.decode_line(1, "0 4 c0 put x 1").unwrap();
        assert_eq!(done.len(), 2);
        assert!(matches!(&done[0], WireItem::Action(a) if a.is_invoke()));
        assert!(matches!(&done[1], WireItem::Action(a) if a.is_response()));
        let pend = d.decode_line(2, "5 - c1 get x").unwrap();
        assert!(matches!(&pend[0], WireItem::Action(a) if a.is_invoke()));
        assert_eq!(pend[1], WireItem::Abandon(ThreadId(1)));
    }
}
