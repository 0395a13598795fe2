//! Histories: finite sequences of invocations and responses (Defs. 2–3).
//!
//! A [`History`] records the interaction between a client program and an
//! object system at the interface level. This module provides the paper's
//! notions of well-formedness, sequentiality, completeness, projections
//! `H|t` / `H|o`, the real-time order `≺H` and completions `complete(H)`.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use crate::action::Action;
use crate::ids::{Method, ObjectId, ThreadId, Value};
use crate::op::Operation;

/// Why a sequence of actions fails to be a well-formed history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HistoryError {
    /// A thread produced a response without a pending invocation.
    ResponseWithoutInvocation {
        /// Index of the offending action.
        index: usize,
        /// Thread of the offending action.
        thread: ThreadId,
    },
    /// A thread invoked a method while another of its invocations was
    /// pending (`H|t` not sequential).
    NestedInvocation {
        /// Index of the offending action.
        index: usize,
        /// Thread of the offending action.
        thread: ThreadId,
    },
    /// A response does not match the object/method of the thread's pending
    /// invocation.
    MismatchedResponse {
        /// Index of the offending response.
        index: usize,
        /// Thread of the offending response.
        thread: ThreadId,
    },
}

impl fmt::Display for HistoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HistoryError::ResponseWithoutInvocation { index, thread } => {
                write!(f, "response at index {index} by {thread} has no pending invocation")
            }
            HistoryError::NestedInvocation { index, thread } => {
                write!(f, "invocation at index {index} by {thread} while another is pending")
            }
            HistoryError::MismatchedResponse { index, thread } => {
                write!(f, "response at index {index} by {thread} does not match its invocation")
            }
        }
    }
}

impl Error for HistoryError {}

/// The span of one operation inside a history: the index of its invocation,
/// the index of its matching response (if any), and the completed
/// [`Operation`] when the response is present.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index of the invocation action in the history.
    pub inv: usize,
    /// Index of the matching response action, or `None` if pending.
    pub resp: Option<usize>,
    /// Thread performing the operation.
    pub thread: ThreadId,
    /// Object operated on.
    pub object: ObjectId,
    /// Method invoked.
    pub method: Method,
    /// Invocation argument.
    pub arg: Value,
    /// Return value, if the operation completed.
    pub ret: Option<Value>,
}

impl Span {
    /// Returns `true` if the operation has a matching response.
    pub fn is_complete(&self) -> bool {
        self.resp.is_some()
    }

    /// The completed [`Operation`] (`OP(H, i)` in Def. 4), if any.
    pub fn operation(&self) -> Option<Operation> {
        self.ret.map(|ret| Operation::new(self.thread, self.object, self.method, self.arg, ret))
    }

    /// The completed operation with a substituted return value; used when a
    /// checker decides how to complete a pending invocation.
    pub fn operation_with_ret(&self, ret: Value) -> Operation {
        Operation::new(self.thread, self.object, self.method, self.arg, ret)
    }
}

/// A finite sequence of invocation and response actions (Def. 2).
///
/// # Examples
///
/// ```
/// use cal_core::{Action, History, Method, ObjectId, ThreadId, Value};
/// let e = ObjectId(0);
/// let ex = Method("exchange");
/// let h = History::from_actions(vec![
///     Action::invoke(ThreadId(1), e, ex, Value::Int(3)),
///     Action::invoke(ThreadId(2), e, ex, Value::Int(4)),
///     Action::response(ThreadId(1), e, ex, Value::Pair(true, 4)),
///     Action::response(ThreadId(2), e, ex, Value::Pair(true, 3)),
/// ]);
/// assert!(h.is_well_formed());
/// assert!(h.is_complete());
/// assert!(!h.is_sequential());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct History {
    actions: Vec<Action>,
}

impl History {
    /// Creates an empty history.
    pub fn new() -> Self {
        History { actions: Vec::new() }
    }

    /// Creates a history from a sequence of actions.
    pub fn from_actions(actions: Vec<Action>) -> Self {
        History { actions }
    }

    /// Appends an action.
    pub fn push(&mut self, action: Action) {
        self.actions.push(action);
    }

    /// Appends the invocation and response of `op` adjacently, keeping the
    /// history sequential if it was.
    pub fn push_complete(&mut self, op: Operation) {
        self.actions.push(op.invocation());
        self.actions.push(op.response());
    }

    /// The actions of the history, in order.
    pub fn actions(&self) -> &[Action] {
        &self.actions
    }

    /// Number of actions (`|H|`).
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Returns `true` if the history contains no actions.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Checks well-formedness (Def. 2): for every thread `t`, the
    /// projection `H|t` is sequential, and every response matches the
    /// object/method of its thread's pending invocation.
    ///
    /// # Errors
    ///
    /// Returns the first violation found, in action order.
    pub fn validate(&self) -> Result<(), HistoryError> {
        validate(&self.actions)
    }

    /// Returns `true` if the history is well-formed (Def. 2).
    pub fn is_well_formed(&self) -> bool {
        self.validate().is_ok()
    }

    /// Returns `true` if the history is sequential (Def. 2): an alternation
    /// of invocations and responses starting with an invocation, each
    /// response immediately preceded by its matching invocation.
    pub fn is_sequential(&self) -> bool {
        // Def. 2 on each pair: an invocation with nothing open, then its
        // answer by the same thread, unless the history ends first.
        self.actions.chunks(2).all(|pair| {
            let answered = |res: &Action| {
                res.thread() == pair[0].thread() && admit(res, 1, Some((0, &pair[0]))).is_ok()
            };
            admit(&pair[0], 0, None).is_ok() && pair.get(1).is_none_or(answered)
        })
    }

    /// Returns `true` if the history is complete (Def. 2): well-formed and
    /// every invocation has a matching response.
    pub fn is_complete(&self) -> bool {
        self.try_spans().is_ok_and(|spans| spans.iter().all(Span::is_complete))
    }

    /// The projection `H|t`: the subsequence of actions of thread `t`.
    pub fn project_thread(&self, t: ThreadId) -> History {
        History {
            actions: self.actions.iter().copied().filter(|a| a.thread() == t).collect(),
        }
    }

    /// The projection `H|o`: the subsequence of actions on object `o`.
    pub fn project_object(&self, o: ObjectId) -> History {
        History {
            actions: self.actions.iter().copied().filter(|a| a.object() == o).collect(),
        }
    }

    /// Matches invocations with their responses, producing one [`Span`] per
    /// operation, in invocation order.
    ///
    /// # Panics
    ///
    /// Panics if the history is not well-formed; call [`History::validate`]
    /// first when the input is untrusted.
    pub fn spans(&self) -> Vec<Span> {
        self.try_spans().expect("history must be well-formed")
    }

    /// Fallible version of [`History::spans`].
    ///
    /// # Errors
    ///
    /// Returns the well-formedness violation, if any.
    pub fn try_spans(&self) -> Result<Vec<Span>, HistoryError> {
        spans_of(&self.actions)
    }

    /// The completed operations of the history, in invocation order.
    /// Pending invocations are skipped.
    pub fn operations(&self) -> Vec<Operation> {
        self.spans().iter().filter_map(Span::operation).collect()
    }

    /// The real-time order `≺H` (Def. 3) between two spans: `a ≺H b` iff
    /// `a`'s response precedes `b`'s invocation in the history.
    pub fn spans_precede(a: &Span, b: &Span) -> bool {
        match a.resp {
            Some(r) => r < b.inv,
            None => false,
        }
    }

    /// Returns `true` if two spans overlap (neither `≺H`-precedes the
    /// other).
    pub fn spans_concurrent(a: &Span, b: &Span) -> bool {
        !History::spans_precede(a, b) && !History::spans_precede(b, a)
    }

    /// Enumerates all completions of this history (Def. 2): complete
    /// histories obtained by appending responses for some pending
    /// invocations (with return values drawn from `candidate_rets`) and
    /// removing the remaining pending invocations.
    ///
    /// `candidate_rets` receives the thread/object/method/arg of each
    /// pending invocation and returns the return values to try.
    ///
    /// # Panics
    ///
    /// Panics if the history is not well-formed.
    pub fn completions<F>(&self, mut candidate_rets: F) -> Vec<History>
    where
        F: FnMut(&Span) -> Vec<Value>,
    {
        // Each pending invocation is dropped, or answered with one of its
        // candidates, in every way; a dropped action is `None` until the
        // end, so every invocation keeps its index.
        let mut completions: Vec<Vec<Option<Action>>> =
            vec![self.actions.iter().copied().map(Some).collect()];
        for s in self.spans().iter().filter(|s| !s.is_complete()) {
            let answer = |ret| Some(Action::response(s.thread, s.object, s.method, ret));
            let answers: Vec<_> = candidate_rets(s).into_iter().map(answer).collect();
            completions = completions
                .into_iter()
                .flat_map(|c| {
                    let answered: Vec<_> = answers.iter().map(|&r| [&c[..], &[r]].concat()).collect();
                    let mut dropped = c;
                    dropped[s.inv] = None;
                    std::iter::once(dropped).chain(answered)
                })
                .collect();
        }
        completions.into_iter().map(|c| c.into_iter().flatten().collect()).collect()
    }
}

/// One record a thread, found with one hashed lookup however many threads
/// there are; slots are dense, in order of first appearance. Every pass
/// that follows threads keeps its per-thread state in one.
#[derive(Debug, Default)]
pub(crate) struct Threads<R> {
    slots: HashMap<ThreadId, usize, BuildHasherDefault<FoldHash>>,
    /// The records, by slot.
    pub(crate) records: Vec<R>,
}

impl<R: Default> Threads<R> {
    /// `thread`'s slot, if it has one.
    pub(crate) fn find(&self, thread: ThreadId) -> Option<usize> {
        self.slots.get(&thread).copied()
    }

    /// `thread`'s slot, made with a default record if it has none.
    pub(crate) fn slot(&mut self, thread: ThreadId) -> usize {
        let records = &mut self.records;
        *self.slots.entry(thread).or_insert_with(|| {
            records.push(R::default());
            records.len() - 1
        })
    }
}

/// Fibonacci hashing, folded: the product's high half depends on every
/// bit of the word, and the fold brings it down to the bits a table picks
/// buckets by. For keys that are small ids: thread ids crafted to
/// collide make a lookup probe every thread, which is what the scan this
/// table replaced did on every lookup.
#[derive(Default)]
pub(crate) struct FoldHash(u64);

impl Hasher for FoldHash {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u32(&mut self, id: u32) {
        self.write_u64(u64::from(id));
    }

    fn write_u64(&mut self, word: u64) {
        let product = (self.0 ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = product ^ (product >> 32);
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u32(u32::from(b)));
    }
}

/// What Def. 2 makes of an action that keeps its history well-formed.
#[derive(Debug)]
pub(crate) enum Matched {
    /// An invocation, by a thread with none open.
    Opens,
    /// The response to its thread's open invocation, kept at this index.
    Closes(usize),
}

/// Def. 2, in its one copy: whether `action`, the `index`-th of a history,
/// keeps it well-formed, given its thread's open invocation `open` (where
/// the caller keeps it, and the action) or `None`. It changes nothing: the
/// caller commits the answer, or refuses the action for another reason.
///
/// # Errors
///
/// The violation, anchored at `index`.
pub(crate) fn admit(
    action: &Action,
    index: usize,
    open: Option<(usize, &Action)>,
) -> Result<Matched, HistoryError> {
    let thread = action.thread();
    let answers = |inv: &Action| (inv.object(), inv.method()) == (action.object(), action.method());
    match (action.is_invoke(), open) {
        (true, None) => Ok(Matched::Opens),
        (true, Some(_)) => Err(HistoryError::NestedInvocation { index, thread }),
        (false, None) => Err(HistoryError::ResponseWithoutInvocation { index, thread }),
        (false, Some((at, inv))) if answers(inv) => Ok(Matched::Closes(at)),
        (false, Some(_)) => Err(HistoryError::MismatchedResponse { index, thread }),
    }
}

/// [`History::validate`] over a slice of actions, building no spans.
fn validate(actions: &[Action]) -> Result<(), HistoryError> {
    // Per thread, the index of its open invocation.
    let mut open: Threads<Option<usize>> = Threads::default();
    for (index, a) in actions.iter().enumerate() {
        let slot = open.slot(a.thread());
        let at = &mut open.records[slot];
        *at = match admit(a, index, at.map(|i| (i, &actions[i])))? {
            Matched::Opens => Some(index),
            Matched::Closes(_) => None,
        };
    }
    Ok(())
}

/// [`History::try_spans`] over a slice of actions, in the same one pass
/// that validates them: how the streaming checker reads its window's
/// spans without copying the window into a [`History`]. Span indices are
/// positions in `actions`.
pub(crate) fn spans_of(actions: &[Action]) -> Result<Vec<Span>, HistoryError> {
    let mut spans: Vec<Span> = Vec::new();
    // Per thread, the index of its open span.
    let mut open: Threads<Option<usize>> = Threads::default();
    for (index, a) in actions.iter().enumerate() {
        let slot = open.slot(a.thread());
        let at = &mut open.records[slot];
        match admit(a, index, at.map(|s| (s, &actions[spans[s].inv])))? {
            Matched::Opens => {
                *at = Some(spans.len());
                spans.push(Span {
                    inv: index,
                    resp: None,
                    thread: a.thread(),
                    object: a.object(),
                    method: a.method(),
                    arg: a.arg().expect("an invocation carries an argument"),
                    ret: None,
                });
            }
            Matched::Closes(s) => {
                *at = None;
                spans[s].resp = Some(index);
                spans[s].ret = a.ret();
            }
        }
    }
    Ok(spans)
}

/// The indices of `spans` grouped by object, in one hashed pass that
/// sizes the groups and one that fills them: objects in order of first
/// use, each group in span order. CAL's locality cuts along it, in the
/// batch's per-object split and in the stream's parts.
pub(crate) fn by_object(spans: &[Span]) -> Vec<(ObjectId, Vec<usize>)> {
    let mut group: HashMap<ObjectId, usize> = HashMap::new();
    let mut sizes: Vec<(ObjectId, usize)> = Vec::new();
    for s in spans {
        let g = *group.entry(s.object).or_insert(sizes.len());
        if g == sizes.len() {
            sizes.push((s.object, 0));
        }
        sizes[g].1 += 1;
    }
    let mut groups: Vec<(ObjectId, Vec<usize>)> =
        sizes.into_iter().map(|(o, n)| (o, Vec::with_capacity(n))).collect();
    for (i, s) in spans.iter().enumerate() {
        groups[group[&s.object]].1.push(i);
    }
    groups
}

impl FromIterator<Action> for History {
    fn from_iter<I: IntoIterator<Item = Action>>(iter: I) -> Self {
        History { actions: iter.into_iter().collect() }
    }
}

impl Extend<Action> for History {
    fn extend<I: IntoIterator<Item = Action>>(&mut self, iter: I) {
        self.actions.extend(iter);
    }
}

impl fmt::Display for History {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, a) in self.actions.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

/// The order constraints on one span ([`HbRelation::constraint_key`]):
/// comparable and hashable, so spans can be grouped by it. Keys of
/// different relations are not comparable in any meaningful way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConstraintKey<'a>(KeyShape<'a>);

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum KeyShape<'a> {
    /// Real time: the predecessors are the first `pred_rank` spans of the
    /// response order and the successors are the spans from `succ_start`
    /// on, so the two numbers name the two sets.
    Ranks { pred_rank: usize, succ_start: usize },
    /// Clocks: the predecessors meet every chain in a prefix and the
    /// successors in a suffix, so the two clocks name the two sets.
    Clocks { pred: &'a [u32], succ: &'a [u32] },
}

/// A malformed happens-before declaration: edges that point outside the
/// history, at an operation itself, or that (together with session order)
/// form a cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HbError {
    /// An edge endpoint is not a valid operation index.
    EdgeOutOfRange {
        /// Edge source (operation index).
        from: usize,
        /// Edge target (operation index).
        to: usize,
        /// Number of operations in the history.
        len: usize,
    },
    /// An edge from an operation to itself.
    SelfEdge {
        /// The operation index.
        op: usize,
    },
    /// Session order plus the declared edges admit no linear extension.
    Cycle {
        /// An operation on the cycle.
        op: usize,
    },
}

impl fmt::Display for HbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HbError::EdgeOutOfRange { from, to, len } => write!(
                f,
                "hb edge {from} -> {to} points outside the history ({len} operations)"
            ),
            HbError::SelfEdge { op } => write!(f, "hb edge from operation {op} to itself"),
            HbError::Cycle { op } => write!(
                f,
                "happens-before cycle through operation {op} (session order plus declared edges)"
            ),
        }
    }
}

impl Error for HbError {}

/// Words a [`Cut`] keeps in place; more go in one heap block.
const INLINE_WORDS: usize = 2;

/// A downward-closed set of spans, as a search matches them: per chain of
/// its order's chain cover ([`HbRelation::chain`]), how many of the
/// chain's spans it holds. A downward-closed set meets every chain in a
/// prefix, so the counts name the set; a search matches only minimal
/// spans, so every set it reaches is one. The counts are packed into
/// fields of a power of two bits that hold the order's longest chain, in
/// place up to two words (32 chains of up to 3 spans, 4 of up to 65,535).
/// The order alone decides the shape, and only it can read the cut.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Cut(Words);

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Words {
    Inline([u64; INLINE_WORDS]),
    Heap(Box<[u64]>),
}

impl Cut {
    fn words(&self) -> &[u64] {
        match &self.0 {
            Words::Inline(words) => words,
            Words::Heap(words) => words,
        }
    }

    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.0 {
            Words::Inline(words) => words,
            Words::Heap(words) => words,
        }
    }
}

/// A concrete happens-before relation over the spans of one history: the
/// order every checker consults, and only through this type.
///
/// Every relation carries a *chain cover* of its spans — each span in
/// exactly one chain, each chain totally ordered and listed in index
/// order — and a matched set is a [`Cut`] of it, one count a chain. Two
/// private shapes answer the rest, chosen by the constructor. The
/// real-time order is determined by the `2n` action indices of its spans,
/// so [`Self::real_time`] keeps those plus two ranks a span, and covers
/// them by interval colouring: as many chains as spans ever open at once.
/// A causal order is an arbitrary acyclic relation, so [`Self::causal`]
/// covers it by its sessions and keeps two vector clocks a span.
///
/// # Examples
///
/// ```
/// use cal_core::history::HbRelation;
/// use cal_core::{Action, History, Method, ObjectId, ThreadId, Value};
/// let o = ObjectId(0);
/// let m = Method("op");
/// // t1's op completes before t2's begins: real-time orders them, but a
/// // causal order with no cross-thread edges leaves them concurrent.
/// let h = History::from_actions(vec![
///     Action::invoke(ThreadId(1), o, m, Value::Unit),
///     Action::response(ThreadId(1), o, m, Value::Unit),
///     Action::invoke(ThreadId(2), o, m, Value::Unit),
///     Action::response(ThreadId(2), o, m, Value::Unit),
/// ]);
/// let spans = h.spans();
/// let real_time = HbRelation::real_time(&spans);
/// assert!(real_time.precedes(0, 1));
/// let causal = HbRelation::causal(&spans, &[]).unwrap();
/// assert!(causal.concurrent(0, 1));
/// // Nothing matched: real time lets only the first go, causal order both.
/// let mut minimal = Vec::new();
/// real_time.minimal(&real_time.empty_cut(), &mut minimal);
/// assert_eq!(minimal, [0]);
/// causal.minimal(&causal.empty_cut(), &mut minimal);
/// assert_eq!(minimal, [0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct HbRelation {
    shape: Shape,
    cover: Cover,
}

#[derive(Debug, Clone)]
enum Shape {
    Ranks(Vec<Ranked>),
    Clocks(Clocks),
}

/// The response index standing for "no response": larger than every
/// invocation index, so a pending span precedes nothing.
const PENDING: usize = usize::MAX;

/// One span of a real-time order over spans listed in invocation order,
/// which makes span index and invocation rank the same thing.
#[derive(Debug, Clone, Copy, Default)]
struct Ranked {
    /// Invocation index; ascending along the order.
    inv: usize,
    /// Response index, [`PENDING`] if there is none.
    resp: usize,
    /// How many spans respond before `inv`.
    pred_rank: usize,
    /// The first span invoked after `resp`: the successors are exactly
    /// `succ_start..n`.
    succ_start: usize,
}

/// A partial order as two vector clocks a span over the chain cover:
/// `pred` row `i` holds, per chain, how many of its spans precede `i`;
/// `succ` row `i`, per chain, the position of the first span `i`
/// precedes (the chain's length when there is none). Rows are `width`
/// counts long, back to back.
#[derive(Debug, Clone)]
struct Clocks {
    width: usize,
    pred: Vec<u32>,
    succ: Vec<u32>,
}

impl Clocks {
    fn pred(&self, i: usize) -> &[u32] {
        &self.pred[i * self.width..][..self.width]
    }

    fn succ(&self, i: usize) -> &[u32] {
        &self.succ[i * self.width..][..self.width]
    }
}

/// A chain cover: every span in exactly one chain, and each chain totally
/// ordered by the relation and listed in index order.
#[derive(Debug, Clone)]
struct Cover {
    /// Per span, its chain and its position in that chain.
    place: Vec<(u32, u32)>,
    /// The chains back to back: chain `c` is `members[starts[c]..starts[c + 1]]`.
    members: Vec<u32>,
    starts: Vec<usize>,
    /// A [`Cut`] keeps chain `c`'s count in bits `c << field_log2` on, in
    /// a field of `1 << field_log2` bits: enough for the longest chain.
    field_log2: u32,
    /// The top bit of every field of a word.
    tops: u64,
}

/// Puts the next span at the end of chain `c` of the chains whose lengths
/// `lens` holds from its second entry on, opening the chain if `c` is the
/// next one: the span's place in the cover.
fn append(lens: &mut Vec<usize>, c: usize) -> (u32, u32) {
    if c + 1 == lens.len() {
        lens.push(0);
    }
    lens[c + 1] += 1;
    (c as u32, lens[c + 1] as u32 - 1)
}

impl Cover {
    /// The cover whose span `i` sits at `place[i]`, its chains `lens[1..]`
    /// long, as [`append`] left them.
    fn new(place: Vec<(u32, u32)>, lens: Vec<usize>) -> Self {
        assert!(u32::try_from(place.len()).is_ok(), "an order over more than u32::MAX spans");
        let longest = lens.iter().copied().max().unwrap_or(0);
        let mut starts = lens;
        for c in 1..starts.len() {
            starts[c] += starts[c - 1];
        }
        let mut members = vec![0; place.len()];
        for (i, &(c, p)) in place.iter().enumerate() {
            members[starts[c as usize] + p as usize] = i as u32;
        }
        let field_log2 = (usize::BITS - longest.leading_zeros()).next_power_of_two().ilog2();
        // All ones over one field's mask sets the low bit of every field.
        let bits = 1 << field_log2;
        let tops = (u64::MAX / (u64::MAX >> (64 - bits))) << (bits - 1);
        Cover { place, members, starts, field_log2, tops }
    }

    fn chain(&self, c: usize) -> &[u32] {
        &self.members[self.starts[c]..self.starts[c + 1]]
    }
}

impl HbRelation {
    /// The real-time order `≺H` (Def. 3) of `spans`: the total-order
    /// instance. `a ≺H b` iff `a`'s response precedes `b`'s invocation.
    /// `O(n log n)` time, `O(n)` memory.
    ///
    /// # Panics
    ///
    /// Panics unless `spans` are in invocation order with each response
    /// after its invocation, as [`History::spans`] yields them.
    pub fn real_time(spans: &[Span]) -> Self {
        let resp = |s: &Span| s.resp.unwrap_or(PENDING);
        Self::ranks(spans.iter().map(|s| Ranked { inv: s.inv, resp: resp(s), ..Ranked::default() }))
    }

    /// The real-time order of spans with these invocation and response
    /// indices (the ranks are filled in here).
    ///
    /// # Panics
    ///
    /// Panics unless the invocations ascend and no span responds before it
    /// is invoked: every answer leans on both.
    fn ranks(spans: impl Iterator<Item = Ranked>) -> Self {
        let mut spans: Vec<Ranked> = spans.collect();
        let n = spans.len();
        assert!(
            spans.windows(2).all(|w| w[0].inv <= w[1].inv) && spans.iter().all(|s| s.inv <= s.resp),
            "the real-time order is built over spans in invocation order"
        );
        let responded = (0..n).filter(|&i| spans[i].resp != PENDING);
        let mut by_resp: Vec<(usize, usize)> = responded.map(|i| (spans[i].resp, i)).collect();
        by_resp.sort_unstable();
        // One sweep in invocation order along the responses in time order.
        // The spans `by_resp[..freed]` respond before the one at hand: their
        // number is its rank, and it is the first span invoked after those
        // freed for it (after the others, none is). The chains of
        // `by_resp[taken..freed]` are free, and the cover is greedy interval
        // colouring: a span continues the chain freed earliest, or opens
        // one. Each chain is then ordered in real time, and there are as
        // many as the most spans ever open at once.
        spans.iter_mut().for_each(|s| s.succ_start = n);
        let (mut freed, mut taken) = (0, 0);
        let mut place: Vec<(u32, u32)> = Vec::with_capacity(n);
        let mut lens = Vec::with_capacity(8);
        lens.push(0);
        for i in 0..n {
            while let Some(&(_, j)) = by_resp.get(freed).filter(|&&(r, _)| r < spans[i].inv) {
                spans[j].succ_start = i;
                freed += 1;
            }
            spans[i].pred_rank = freed;
            let c = if taken < freed { place[by_resp[taken].1].0 as usize } else { lens.len() - 1 };
            taken += usize::from(taken < freed);
            place.push(append(&mut lens, c));
        }
        HbRelation { shape: Shape::Ranks(spans), cover: Cover::new(place, lens) }
    }

    /// A causal happens-before order: per-thread *session order* (each
    /// thread's spans in invocation order) unioned with the declared
    /// `edges` (pairs of span indices, source happens-before target),
    /// transitively closed.
    ///
    /// This is the weak-memory reading of a trace: cross-thread real-time
    /// ordering is *not* assumed — only program order and whatever
    /// synchronization the trace explicitly declares. The sessions are
    /// the chain cover.
    ///
    /// # Errors
    ///
    /// Returns [`HbError`] when an edge points outside the history, at an
    /// operation itself, or when session order plus the edges contain a
    /// cycle (no linear extension exists).
    pub fn causal(spans: &[Span], edges: &[(usize, usize)]) -> Result<Self, HbError> {
        let n = spans.len();
        for &(from, to) in edges {
            if from >= n || to >= n {
                return Err(HbError::EdgeOutOfRange { from, to, len: n });
            }
            if from == to {
                return Err(HbError::SelfEdge { op: from });
            }
        }
        let mut threads: Threads<()> = Threads::default();
        let sessions = spans.iter().map(|s| threads.slot(s.thread));
        let mut lens = vec![0];
        let place = sessions.map(|c| append(&mut lens, c)).collect();
        let (cover, width) = (Cover::new(place, lens), threads.records.len());
        // Direct adjacency: session chains plus declared edges.
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut indeg = vec![0usize; n];
        let session = (0..width).flat_map(|c| cover.chain(c).windows(2));
        let session = session.map(|w| (w[0] as usize, w[1] as usize));
        for (u, v) in session.chain(edges.iter().copied()) {
            adj[u].push(v);
            indeg[v] += 1;
        }
        // Kahn topological order; predecessor clocks accumulate along it
        // and successor clocks against it: a finished clock is absorbed by
        // its neighbours', which also take in the neighbour itself.
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut topo: Vec<usize> = Vec::with_capacity(n);
        let mut pred = vec![0u32; n * width];
        while let Some(u) = queue.pop() {
            topo.push(u);
            let (chain, pos) = cover.place[u];
            for &v in &adj[u] {
                for c in 0..width {
                    pred[v * width + c] = pred[v * width + c].max(pred[u * width + c]);
                }
                let own = &mut pred[v * width + chain as usize];
                *own = (*own).max(pos + 1);
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    queue.push(v);
                }
            }
        }
        if topo.len() != n {
            let op = (0..n).find(|&i| indeg[i] > 0).unwrap_or(0);
            return Err(HbError::Cycle { op });
        }
        let lens = (0..width).map(|c| cover.chain(c).len() as u32);
        let mut succ: Vec<u32> = lens.collect::<Vec<_>>().repeat(n);
        for &u in topo.iter().rev() {
            for &v in &adj[u] {
                for c in 0..width {
                    succ[u * width + c] = succ[u * width + c].min(succ[v * width + c]);
                }
                let (chain, pos) = cover.place[v];
                let own = &mut succ[u * width + chain as usize];
                *own = (*own).min(pos);
            }
        }
        Ok(HbRelation { shape: Shape::Clocks(Clocks { width, pred, succ }), cover })
    }

    /// Whether this relation is the real-time order of the spans it was
    /// built from — it is exactly when [`HbRelation::real_time`] built it.
    /// [`crate::causal::check_causal_with`] reads it to hand a real-time
    /// order to the CAL check, whose per-object split and witness stitch
    /// (each element placed at the running maximum of its part's
    /// invocation indices) hold under real time only, without consulting
    /// span timestamps itself.
    pub fn is_real_time(&self) -> bool {
        matches!(self.shape, Shape::Ranks(_))
    }

    /// Number of spans the relation is defined over.
    pub fn len(&self) -> usize {
        self.cover.place.len()
    }

    /// Whether the relation is empty (no spans).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` iff span `i` happens-before span `j`. Irreflexive and
    /// transitive by construction.
    pub fn precedes(&self, i: usize, j: usize) -> bool {
        match &self.shape {
            Shape::Ranks(r) => matches!((r.get(i), r.get(j)), (Some(a), Some(b)) if a.resp < b.inv),
            Shape::Clocks(k) => {
                let (chain, pos) = self.cover.place[i];
                j < self.len() && pos < k.pred(j)[chain as usize]
            }
        }
    }

    /// `true` iff `i` and `j` are distinct and unordered — the pairs a
    /// CA-element may contain.
    pub fn concurrent(&self, i: usize, j: usize) -> bool {
        i != j && !self.precedes(i, j) && !self.precedes(j, i)
    }

    /// What the order constrains span `i` by, as a value: two spans of one
    /// relation have equal keys iff they have the same predecessors and
    /// the same successors.
    pub fn constraint_key(&self, i: usize) -> ConstraintKey<'_> {
        ConstraintKey(match &self.shape {
            Shape::Ranks(r) => {
                KeyShape::Ranks { pred_rank: r[i].pred_rank, succ_start: r[i].succ_start }
            }
            Shape::Clocks(k) => KeyShape::Clocks { pred: k.pred(i), succ: k.succ(i) },
        })
    }

    /// Number of chains in the relation's chain cover.
    pub fn width(&self) -> usize {
        self.cover.starts.len() - 1
    }

    /// The spans of chain `c` of the cover, in order.
    pub fn chain(&self, c: usize) -> impl Iterator<Item = usize> + '_ {
        self.cover.chain(c).iter().map(|&i| i as usize)
    }

    /// The cut that holds nothing.
    pub fn empty_cut(&self) -> Cut {
        let words = (self.width() << self.cover.field_log2).div_ceil(64);
        Cut(if words <= INLINE_WORDS {
            Words::Inline([0; INLINE_WORDS])
        } else {
            Words::Heap(vec![0; words].into_boxed_slice())
        })
    }

    /// How many spans of chain `c` the cut holds.
    fn count(&self, cut: &Cut, c: usize) -> usize {
        let at = c << self.cover.field_log2;
        let mask = u64::MAX >> (64 - (1 << self.cover.field_log2));
        ((cut.words()[at / 64] >> (at % 64)) & mask) as usize
    }

    /// Whether `cut` holds span `i`.
    pub fn contains(&self, cut: &Cut, i: usize) -> bool {
        let (chain, pos) = self.cover.place[i];
        (pos as usize) < self.count(cut, chain as usize)
    }

    /// Whether `cut` holds every span `other` holds.
    pub fn reaches(&self, cut: &Cut, other: &Cut) -> bool {
        // Field-wise `≥`, a word at a time: a field's low bits with its top
        // bit set, minus the other's low bits, borrows from no neighbour
        // and keeps that top bit iff the low bits compare `≥`; the top bits
        // decide the rest.
        let tops = self.cover.tops;
        cut.words().iter().zip(other.words()).all(|(&a, &b)| {
            let low = (a | tops) - (b & !tops);
            ((a & !b) | (!(a ^ b) & low)) & tops == tops
        })
    }

    /// Adds span `i`, the first of its chain that `cut` does not hold, to
    /// `cut`.
    pub fn take(&self, cut: &mut Cut, i: usize) {
        let (chain, pos) = self.cover.place[i];
        debug_assert_eq!(self.count(cut, chain as usize), pos as usize, "{i} is not next");
        let at = (chain as usize) << self.cover.field_log2;
        cut.words_mut()[at / 64] += 1 << (at % 64);
    }

    /// Replaces the contents of `out` with the minimal spans of what `cut`
    /// leaves — every span it does not hold all of whose predecessors it
    /// does — ascending. Only a chain's first span left can be one, so the
    /// scan is over those heads.
    pub fn minimal(&self, cut: &Cut, out: &mut Vec<usize>) {
        out.clear();
        let Cover { members, starts, field_log2, .. } = &self.cover;
        let bits = 1 << field_log2;
        let mask = u64::MAX >> (64 - bits);
        let mut words = cut.words().iter();
        let mut word = 0;
        for (c, bounds) in starts.windows(2).enumerate() {
            if c * bits % 64 == 0 {
                word = words.next().copied().unwrap_or(0);
            }
            let head = bounds[0] + (word & mask) as usize;
            word >>= bits % 64; // (a 64-bit field is the whole word)
            if head < bounds[1] {
                out.push(members[head] as usize);
            }
        }
        out.sort_unstable();
        match &self.shape {
            // A span left responds after every earlier span of its chain,
            // so the earliest response left is a head's; a head is minimal
            // iff it is invoked before that response, which makes the
            // minimal heads a prefix of the heads in invocation order.
            Shape::Ranks(r) => {
                let earliest = out.iter().map(|&h| r[h].resp).min().unwrap_or(PENDING);
                out.truncate(out.partition_point(|&h| r[h].inv < earliest));
            }
            // A head is minimal iff the cut reaches its predecessor clock.
            Shape::Clocks(k) => out.retain(|&h| self.reached(cut, k.pred(h))),
        }
    }

    /// Whether `cut` holds, of every chain, at least as many spans as
    /// `clock` counts.
    fn reached(&self, cut: &Cut, clock: &[u32]) -> bool {
        clock.iter().enumerate().all(|(c, &p)| self.count(cut, c) >= p as usize)
    }

    /// Whether taking `groups` of spans one after another, each group
    /// whole, respects the order: every span's predecessors are taken in
    /// earlier groups, so no two spans of one group are ordered either.
    /// The spans `dropped` names are in no group: pending invocations a
    /// completion leaves out (Def. 2). They bind nothing themselves, while
    /// order that runs through them still binds. Under a causal order each
    /// session's spans must come in program order, as the forced
    /// assignment of [`crate::agree`] takes them. One pass, with an arm an
    /// order shape, as [`Self::minimal`] has.
    pub(crate) fn respects<'g>(
        &self,
        groups: impl IntoIterator<Item = &'g [usize]>,
        dropped: impl Fn(usize) -> bool,
    ) -> bool {
        match &self.shape {
            // `i ≺ j` iff `i` responds before `j` is invoked, so each group
            // must respond, earliest, after the latest invocation up to and
            // including it. A pending span responds at ∞ (`PENDING`), so
            // a dropped one, in no group, binds nothing.
            Shape::Ranks(r) => {
                let mut latest = 0;
                groups.into_iter().all(|g| {
                    latest = g.iter().fold(latest, |l, &i| l.max(r[i].inv));
                    g.iter().all(|&i| r[i].resp > latest)
                })
            }
            // The cut is what earlier groups took, a dropped span taken as
            // soon as the spans before it in its chain are; a group goes
            // once the cut reaches each member's predecessor clock.
            Shape::Clocks(k) => {
                let mut cut = self.empty_cut();
                let skip = |cut: &mut Cut, c: usize| {
                    while let Some(&i) = self.cover.chain(c).get(self.count(cut, c)) {
                        if !dropped(i as usize) {
                            break;
                        }
                        self.take(cut, i as usize);
                    }
                };
                (0..self.width()).for_each(|c| skip(&mut cut, c));
                groups.into_iter().all(|g| {
                    let ready = g.iter().all(|&i| self.reached(&cut, k.pred(i)));
                    for &i in g.iter().filter(|_| ready) {
                        self.take(&mut cut, i);
                        skip(&mut cut, self.cover.place[i].0 as usize);
                    }
                    ready
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const E: ObjectId = ObjectId(0);
    const EX: Method = Method("exchange");

    fn inv(t: u32, v: i64) -> Action {
        Action::invoke(ThreadId(t), E, EX, Value::Int(v))
    }

    fn res(t: u32, ok: bool, v: i64) -> Action {
        Action::response(ThreadId(t), E, EX, Value::Pair(ok, v))
    }

    #[test]
    fn empty_history_is_well_formed_sequential_complete() {
        let h = History::new();
        assert!(h.is_well_formed());
        assert!(h.is_sequential());
        assert!(h.is_complete());
        assert!(h.is_empty());
    }

    #[test]
    fn overlapping_history_is_well_formed_not_sequential() {
        let h = History::from_actions(vec![inv(1, 3), inv(2, 4), res(1, true, 4), res(2, true, 3)]);
        assert!(h.is_well_formed());
        assert!(!h.is_sequential());
        assert!(h.is_complete());
        assert_eq!(h.len(), 4);
    }

    #[test]
    fn sequential_history_detected() {
        let h = History::from_actions(vec![inv(1, 3), res(1, false, 3), inv(2, 4), res(2, false, 4)]);
        assert!(h.is_sequential());
        assert!(h.is_well_formed());
    }

    #[test]
    fn sequential_with_trailing_pending_invocation() {
        let h = History::from_actions(vec![inv(1, 3), res(1, false, 3), inv(2, 4)]);
        assert!(h.is_sequential());
        assert!(!h.is_complete());
    }

    #[test]
    fn response_without_invocation_rejected() {
        let h = History::from_actions(vec![res(1, false, 3)]);
        assert_eq!(
            h.validate(),
            Err(HistoryError::ResponseWithoutInvocation { index: 0, thread: ThreadId(1) })
        );
        assert!(!h.is_well_formed());
    }

    #[test]
    fn nested_invocation_rejected() {
        let h = History::from_actions(vec![inv(1, 3), inv(1, 4)]);
        assert_eq!(
            h.validate(),
            Err(HistoryError::NestedInvocation { index: 1, thread: ThreadId(1) })
        );
    }

    #[test]
    fn mismatched_response_rejected() {
        let h = History::from_actions(vec![
            inv(1, 3),
            Action::response(ThreadId(1), E, Method("pop"), Value::Unit),
        ]);
        assert_eq!(
            h.validate(),
            Err(HistoryError::MismatchedResponse { index: 1, thread: ThreadId(1) })
        );
    }

    #[test]
    fn projections() {
        let h = History::from_actions(vec![inv(1, 3), inv(2, 4), res(1, true, 4), res(2, true, 3)]);
        let h1 = h.project_thread(ThreadId(1));
        assert_eq!(h1.len(), 2);
        assert!(h1.is_sequential());
        let ho = h.project_object(E);
        assert_eq!(ho.len(), 4);
        let hnone = h.project_object(ObjectId(9));
        assert!(hnone.is_empty());
    }

    #[test]
    fn spans_and_real_time_order() {
        // t1 completes before t2 invokes: t1's op ≺H t2's op.
        let h = History::from_actions(vec![inv(1, 3), res(1, false, 3), inv(2, 4), res(2, false, 4)]);
        let spans = h.spans();
        assert_eq!(spans.len(), 2);
        assert!(History::spans_precede(&spans[0], &spans[1]));
        assert!(!History::spans_precede(&spans[1], &spans[0]));
        assert!(!History::spans_concurrent(&spans[0], &spans[1]));
    }

    #[test]
    fn overlapping_spans_are_concurrent() {
        let h = History::from_actions(vec![inv(1, 3), inv(2, 4), res(1, true, 4), res(2, true, 3)]);
        let spans = h.spans();
        assert!(History::spans_concurrent(&spans[0], &spans[1]));
    }

    #[test]
    fn pending_span_never_precedes() {
        let h = History::from_actions(vec![inv(1, 3), inv(2, 4), res(2, false, 4)]);
        let spans = h.spans();
        assert!(!History::spans_precede(&spans[0], &spans[1]));
        // t2's response precedes nothing after it, but t1 is pending:
        assert!(History::spans_concurrent(&spans[0], &spans[1]));
    }

    #[test]
    fn operations_extracts_completed_only() {
        let h = History::from_actions(vec![inv(1, 3), inv(2, 4), res(2, false, 4)]);
        let ops = h.operations();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].thread, ThreadId(2));
        assert_eq!(ops[0].ret, Value::Pair(false, 4));
    }

    #[test]
    fn completions_of_complete_history_is_identity() {
        let h = History::from_actions(vec![inv(1, 3), res(1, false, 3)]);
        let cs = h.completions(|_| vec![Value::Pair(false, 0)]);
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0], h);
    }

    #[test]
    fn completions_enumerate_drop_and_complete() {
        let h = History::from_actions(vec![inv(1, 3)]);
        let cs = h.completions(|s| vec![Value::Pair(false, s.arg.as_int().unwrap())]);
        // Either drop the pending invocation or complete it.
        assert_eq!(cs.len(), 2);
        assert!(cs.iter().any(|c| c.is_empty()));
        assert!(cs.iter().any(|c| c.is_complete() && c.len() == 2));
    }

    #[test]
    fn completions_two_pending() {
        let h = History::from_actions(vec![inv(1, 3), inv(2, 4)]);
        let cs = h.completions(|_| vec![Value::Pair(false, 0)]);
        // 2 options per pending invocation → 4 completions.
        assert_eq!(cs.len(), 4);
        for c in &cs {
            assert!(c.is_complete(), "completion not complete: {c}");
        }
    }

    #[test]
    fn push_complete_keeps_sequential() {
        let mut h = History::new();
        h.push_complete(Operation::new(ThreadId(0), E, EX, Value::Int(1), Value::Pair(false, 1)));
        h.push_complete(Operation::new(ThreadId(1), E, EX, Value::Int(2), Value::Pair(false, 2)));
        assert!(h.is_sequential());
        assert!(h.is_complete());
    }

    #[test]
    fn error_display() {
        let e = HistoryError::NestedInvocation { index: 4, thread: ThreadId(7) };
        assert!(e.to_string().contains("index 4"));
        assert!(e.to_string().contains("t7"));
    }
}
