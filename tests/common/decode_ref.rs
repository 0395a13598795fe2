//! The history-line and Jepsen-record decoders as they stood before each
//! became one forward pass of a byte cursor, copied verbatim from
//! `cal_core::text` and `cal_core::format` but for the two things a test
//! cannot reach inside the crate: the method interner (a table of leaked
//! names here too) and the per-thread table (`Threads`, rebuilt below on
//! the same `find` / `slot` / `records` surface). `tests/decode_diff.rs`
//! holds the shipped decoders to them: the same action for every line
//! they accept, the same error, byte for byte, for every line they refuse.

use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::Mutex;

use cal::core::format::FormatError;
use cal::core::text::ParseError;
use cal::core::{Action, History, HistoryError, Method, ObjectId, ThreadId, Value};

/// The method interner: a name is leaked once and found after.
fn intern_method_name(s: &str) -> Method {
    static NAMES: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let mut names = NAMES.lock().unwrap();
    if let Some(name) = names.get(s) {
        return Method(name);
    }
    let name: &'static str = Box::leak(s.to_owned().into_boxed_str());
    names.insert(name);
    Method(name)
}

/// One record a thread, slots in order of first appearance.
#[derive(Debug, Default)]
struct Threads<R> {
    slots: HashMap<ThreadId, usize>,
    records: Vec<R>,
}

impl<R: Default> Threads<R> {
    fn find(&self, thread: ThreadId) -> Option<usize> {
        self.slots.get(&thread).copied()
    }

    fn slot(&mut self, thread: ThreadId) -> usize {
        let records = &mut self.records;
        *self.slots.entry(thread).or_insert_with(|| {
            records.push(R::default());
            records.len() - 1
        })
    }
}

// ---------------------------------------------------------------------------
// `cal_core::text`
// ---------------------------------------------------------------------------

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
pub fn parse_method(line: usize, s: &str) -> Result<Method, ParseError> {
    if s.is_empty() || !s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        return err(line, format!("invalid method name {s:?}"));
    }
    Ok(intern_method_name(s))
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

// ---------------------------------------------------------------------------
// `cal_core::format`
// ---------------------------------------------------------------------------

fn fail<T>(line: usize, field: Option<&'static str>, message: impl Into<String>) -> Result<T, FormatError> {
    Err(FormatError { line, field, message: message.into() })
}

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

/// Validates the assembled actions, mapping any [`HistoryError`] (which
/// carries an action *index*) back to the source *line* of that action.
fn finish(actions: Vec<Action>, lines: &[usize]) -> Result<History, FormatError> {
    let history = History::from_actions(actions);
    if let Err(e) = history.validate() {
        let index = match &e {
            HistoryError::ResponseWithoutInvocation { index, .. }
            | HistoryError::NestedInvocation { index, .. }
            | HistoryError::MismatchedResponse { index, .. } => *index,
        };
        let line = lines.get(index).copied().unwrap_or(0);
        return fail(line, None, format!("ill-formed history: {e}"));
    }
    Ok(history)
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
    parse_method(line, name).map_err(FormatError::from)
}

/// `format::parse_as(Format::Native, input)`.
pub fn parse_native_as(input: &str) -> Result<History, FormatError> {
    let (actions, lines) = parse_native(input)?;
    finish(actions, &lines)
}

/// `format::parse_as(Format::Jepsen, input)`.
pub fn parse_jepsen_as(input: &str) -> Result<History, FormatError> {
    let (actions, lines) = parse_jepsen(input)?;
    finish(actions, &lines)
}

fn parse_native(input: &str) -> Result<(Vec<Action>, Vec<usize>), FormatError> {
    let mut actions = Vec::new();
    let mut lines = Vec::new();
    for (i, raw) in input.lines().enumerate() {
        if let Some(action) = parse_action_line(i + 1, raw)? {
            actions.push(action);
            lines.push(i + 1);
        }
    }
    Ok((actions, lines))
}

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

/// A byte cursor over one record line, carrying the source line number
/// for error anchoring. Everything the grammar names is ASCII, so only
/// string bodies and stray non-ASCII bytes are ever decoded as `char`s;
/// `pos` always rests on a character boundary.
struct Scan<'a> {
    src: &'a str,
    pos: usize,
    line: usize,
}

impl<'a> Scan<'a> {
    fn new(line: usize, src: &'a str) -> Self {
        Scan { src, pos: 0, line }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    /// The character at the cursor: what a non-ASCII byte begins, or the
    /// one a diagnostic names.
    fn peek_char(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }

    /// EDN treats commas as whitespace, which also covers JSON separators.
    fn skip_ws(&mut self) {
        loop {
            match self.peek() {
                Some(b' ' | b',' | b'\t'..=b'\r') => self.pos += 1,
                Some(0x80..) => match self.peek_char() {
                    Some(c) if c.is_whitespace() => self.pos += c.len_utf8(),
                    _ => return,
                },
                _ => return,
            }
        }
    }

    fn take_while(&mut self, f: impl Fn(u8) -> bool) -> &'a str {
        let start = self.pos;
        while self.peek().is_some_and(&f) {
            self.pos += 1;
        }
        &self.src[start..self.pos]
    }

    /// The body of a string whose opening quote is at the cursor, up to
    /// and over its closing quote: a slice of the line, or an owned copy
    /// from the first escape on.
    fn string(&mut self) -> Result<Cow<'a, str>, FormatError> {
        self.pos += 1;
        let body = self.take_while(|b| b != b'"' && b != b'\\');
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(body));
        }
        let mut out = String::from(body);
        let mut chars = self.src[self.pos..].chars();
        loop {
            match chars.next() {
                None => return Err(self.err(None, "unterminated string")),
                Some('"') => {
                    self.pos = self.src.len() - chars.as_str().len();
                    return Ok(Cow::Owned(out));
                }
                Some('\\') => match chars.next() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    other => {
                        return Err(self.err(None, format!("unsupported string escape {other:?}")))
                    }
                },
                Some(c) => out.push(c),
            }
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
        Some(b':') => {
            s.pos += 1;
            let w = s.take_while(ident_byte);
            if w.is_empty() {
                Err(s.err(None, "empty keyword after ':'"))
            } else {
                Ok(JVal::Kw(w))
            }
        }
        Some(b) if b == b'-' || b.is_ascii_digit() => {
            let w = s.take_while(|b| b == b'-' || b.is_ascii_digit());
            w.parse::<i64>().map(JVal::Int).map_err(|_| s.err(None, format!("bad integer {w:?}")))
        }
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

fn parse_record(line: usize, text: &str) -> Result<JepsenRecord<'_>, FormatError> {
    let mut s = Scan::new(line, text);
    s.skip_ws();
    if s.peek() != Some(b'{') {
        return Err(s.err(None, "expected '{' to open a record"));
    }
    s.pos += 1;
    let (mut process, mut ktype, mut f, mut value, mut key) = (None, None, None, None, None);
    loop {
        s.skip_ws();
        let name = match s.peek() {
            Some(b'}') => {
                s.pos += 1;
                break;
            }
            None => return Err(s.err(None, "unterminated record: missing '}'")),
            Some(b':') => {
                s.pos += 1;
                let w = s.take_while(ident_byte);
                if w.is_empty() {
                    return Err(s.err(None, "empty field name after ':'"));
                }
                Cow::Borrowed(w)
            }
            Some(b'"') => {
                let w = s.string()?;
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
        let v = jval(&mut s)?;
        match &*name {
            "process" => process = Some(v),
            "type" => ktype = Some(v),
            "f" => f = Some(v),
            "value" => value = Some(v),
            "key" => key = Some(v),
            _ => {} // tolerate :time, :index, and friends
        }
    }
    s.skip_ws();
    if s.peek().is_some() {
        return Err(s.err(None, "trailing characters after record"));
    }

    let process = match process {
        Some(JVal::Int(n)) if u32::try_from(n).is_ok() => n as u32,
        Some(other) => {
            return fail(line, Some(":process"), format!("expected a non-negative integer process id, found {other}"))
        }
        None => return fail(line, Some(":process"), "missing required field"),
    };
    let kind = match ktype.map(JVal::into_word) {
        Some(Ok(w)) => match &*w {
            "invoke" => RecordKind::Invoke,
            "ok" => RecordKind::Ok,
            "fail" => RecordKind::Fail,
            "info" => RecordKind::Info,
            other => {
                return fail(line, Some(":type"), format!("expected invoke, ok, fail, or info, found {other:?}"))
            }
        },
        Some(Err(other)) => {
            return fail(line, Some(":type"), format!("expected a keyword or string, found {other}"))
        }
        None => return fail(line, Some(":type"), "missing required field"),
    };
    let f = match f.map(JVal::into_word).transpose() {
        Ok(f) => f,
        Err(other) => {
            return fail(line, Some(":f"), format!("expected a keyword or string, found {other}"))
        }
    };
    Ok(JepsenRecord { process, kind, f, value: value.unwrap_or(JVal::Nil), key })
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
    /// Decodes one record; `at` is the index an invocation's action takes
    /// in the history (the streaming decoder, which builds none, passes 0).
    fn step(&mut self, line: usize, text: &str, at: usize) -> Result<JStep, FormatError> {
        let rec = parse_record(line, text)?;
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
                Ok(JStep::Invoke(Action::invoke(t, object, method, arg)))
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
                Ok(JStep::Complete(Action::response(t, object, method, ret)))
            }
            RecordKind::Fail => {
                let open = found.and_then(|slot| self.processes.records[slot].pending.take());
                let Some((_, _, _, at)) = open else {
                    return fail(line, Some(":process"), format!(":fail with no pending :invoke for process {}", rec.process));
                };
                Ok(JStep::Fail(t, at))
            }
            RecordKind::Info => match found.filter(|&slot| self.processes.records[slot].pending.is_some()) {
                Some(slot) => {
                    self.processes.records[slot] = Process { pending: None, retired: true };
                    Ok(JStep::Info(t))
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
        let text = strip_comment(raw).trim();
        if text.is_empty() || text.starts_with(';') {
            continue;
        }
        match state.step(line, text, actions.len())? {
            JStep::Invoke(a) | JStep::Complete(a) => {
                actions.push(a);
                lines.push(line);
            }
            JStep::Fail(_, at) => lines[at] = 0,
            // The invocation stays in the history, pending forever.
            JStep::Info(_) => {}
        }
    }
    if lines.contains(&0) {
        let mut kept = lines.iter().map(|&line| line > 0);
        actions.retain(|_| kept.next() == Some(true));
        lines.retain(|&line| line > 0);
    }
    Ok((actions, lines))
}

/// `StreamDecoder::decode_into` for a decoder pinned to the native or
/// the jepsen format: what one wire line decodes to, as actions and
/// abandoned threads.
#[derive(Debug, Default)]
pub struct StreamRef {
    jepsen: JepsenState,
}

/// One decoded wire effect: an action, or a thread abandoned.
pub type Item = Result<Action, ThreadId>;

impl StreamRef {
    pub fn decode(&mut self, jepsen: bool, line: usize, raw: &str) -> Result<Vec<Item>, FormatError> {
        let text = strip_comment(raw).trim();
        if text.is_empty() || text.starts_with(';') {
            return Ok(Vec::new());
        }
        if !jepsen {
            return Ok(parse_action_line(line, raw)?.map(Ok).into_iter().collect());
        }
        Ok(vec![match self.jepsen.step(line, text, 0)? {
            JStep::Invoke(a) | JStep::Complete(a) => Ok(a),
            JStep::Fail(t, _) | JStep::Info(t) => Err(t),
        }])
    }
}
