//! Registers and maps with unique writes, decided by zones instead of a
//! search.
//!
//! Deciding linearizability is NP-complete in general, but not for a
//! register whose written values are all distinct (Gibbons–Korach,
//! *Testing shared memories*, SIAM J. Comput. 1997). Each read then names
//! the one write of its value, and the initial value counts as a write
//! before everything. Group each write with the reads of its value into a
//! *cluster*. A cluster's *zone* runs between its earliest response `f`
//! and its latest invocation `s`; it is *forward* when `f < s` and
//! *backward* otherwise. A history is linearizable iff (Golab, Li and
//! Shah, *Analyzing consistency properties for fun and profit*, PODC
//! 2011):
//!
//! - every complete read returns a value some write wrote, or the initial
//!   one;
//! - no read responds before its write is invoked;
//! - no two forward zones of one object overlap;
//! - no backward zone lies inside a forward zone of its object.
//!
//! Objects are independent, so a map is one register per object and the
//! conditions hold object by object. [`cluster`] checks them in
//! `O(n log n)` over a part's spans, with nothing of the CA search under
//! it; the one caller that chooses it over the search is
//! `check::decide_part`, for the batch and the stream alike.
//!
//! **Pending operations.** A pending read is dropped: a read changes no
//! state. A pending write that no complete read returned is dropped too:
//! in any linearization no read follows it directly, so removing it
//! changes no read. A pending write that a complete read returned is
//! completed with `()` at the end of the history.
//!
//! **Which parts qualify.** Every operation is on an object the shape
//! admits and calls one of its methods, and every write stores an `Int`
//! other than the value the part starts from, returns `()` if it
//! completed, and is the only write of its value on its object. Anything
//! else makes [`cluster`] return `None`, and the caller searches the part.
//! This is read off the part's spans as they are clustered, so a part that
//! does not qualify costs one pass over them, and no other part is touched.
//!
//! **The witness.** Each operation is placed at a point of the history's
//! action indices and the operations are sorted by `(point, cluster,
//! write first)`. A forward cluster `[f, s]` puts its write at
//! `max(inv_w, f)` and each read at `max(inv_r, point_w)`: every point
//! lies inside its operation's interval (a read responds after `f` and
//! after its write's invocation) and inside `[f, s]`. A backward cluster
//! `[s, f]` puts all of its operations at one half-integer in `(s, f)`
//! outside every forward zone of its object; one exists because forward
//! zones are disjoint closed intervals and none contains `[s, f]`. So the
//! clusters of one object occupy disjoint runs of the order, each a write
//! followed by its reads, and an operation that responds before another
//! is invoked sits at a smaller point.
//!
//! **End values.** The streaming checker ([`crate::stream`]) retires a
//! closed segment of one register by the values some witness of it can
//! leave the register holding, run from each value the register may hold
//! before it ([`cluster`], [`Zones::last_writes`]). With every operation
//! complete, `v` is such a value iff the segment followed by a read of `v`
//! that is invoked after everything is linearizable: that read must come
//! last. The appended read turns `v`'s zone into `[f_v, ∞)`, which
//! conflicts with no other zone iff every other cluster's `s` is below
//! `f_v` — a forward zone `[f_u, s_u]` overlaps it iff `s_u > f_v`, and a
//! backward zone `[s_u, f_u]` lies inside it iff `s_u > f_v`. When that
//! holds, `v`'s old zone conflicts with nothing either: a forward
//! `[f_v, s_v]` meets no zone that ends before `f_v`, and a backward
//! `[s_v, f_v]` can only lie inside a forward zone that ends after `f_v`.
//! So the segment plus the read is linearizable iff the segment is and
//! every other cluster's latest invocation precedes `v`'s earliest
//! response. The initial value is a write at −∞ (`f = −1`) and every
//! write is invoked at 0 or later, so the initial value ends a segment iff
//! it has no write.

use std::fmt;

use crate::history::Span;
use crate::ids::{ObjectId, Value};
use crate::op::Operation;
use crate::spec::RegisterShape;
use crate::trace::CaElement;

/// A value's cluster as a refutation names it: its object, its value and
/// the write that wrote it (`None` for the initial value).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterName {
    /// The object the value is held by.
    pub object: ObjectId,
    /// The value.
    pub value: i64,
    /// The write of the value, as the history records it.
    pub write: Option<Operation>,
}

impl fmt::Display for ClusterName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.write {
            Some(write) => write!(f, "{}'s value {} written by {write}", self.object, self.value),
            None => write!(f, "{}'s initial value {}", self.object, self.value),
        }
    }
}

/// Why a history is not linearizable, in its own operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Conflict {
    /// A complete read returned a value nothing wrote on its object.
    UnwrittenRead {
        /// The read.
        read: Operation,
    },
    /// A read responded before the write of its value was invoked.
    ReadBeforeWrite {
        /// The read.
        read: Operation,
        /// The value's write.
        write: Operation,
    },
    /// Two forward zones of one object overlap: each value must be held
    /// over a stretch of the history, and the stretches overlap.
    ForwardZonesOverlap {
        /// The cluster whose zone starts first.
        first: ClusterName,
        /// The cluster whose zone starts inside the first's.
        second: ClusterName,
    },
    /// A backward zone lies inside a forward zone: the inner value's
    /// write must take effect while the outer value must be held.
    BackwardInsideForward {
        /// The backward cluster.
        inner: ClusterName,
        /// The forward cluster around it.
        outer: ClusterName,
    },
}

impl fmt::Display for Conflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Conflict::UnwrittenRead { read } => {
                write!(f, "the read {read} on {} returns a value nothing wrote", read.object)
            }
            Conflict::ReadBeforeWrite { read, write } => write!(
                f,
                "the read {read} on {} responds before {write}, the write of its value, is invoked",
                read.object
            ),
            Conflict::ForwardZonesOverlap { first, second } => write!(
                f,
                "{first} and {second} must each be held from one of their operations' \
                 response to another's invocation, and the two stretches overlap"
            ),
            Conflict::BackwardInsideForward { inner, outer } => write!(
                f,
                "{inner} must take effect inside the stretch where {outer} must be held"
            ),
        }
    }
}

/// No cluster: a dropped pending operation.
const DROPPED: u32 = u32::MAX;

/// One value's cluster. Times are action indices; the initial value's
/// write is invoked at -2 and responds at -1.
#[derive(Debug, Clone, Copy)]
struct Cluster {
    object: ObjectId,
    value: i64,
    /// The write's span, `None` for the initial value.
    write: Option<usize>,
    /// `f`: the earliest response among the write and its complete reads.
    first_resp: i64,
    /// `s`: the latest invocation among them.
    last_inv: i64,
    /// A pending write nobody read: no part of any explanation.
    dropped: bool,
}

impl Cluster {
    fn is_forward(&self) -> bool {
        self.first_resp < self.last_inv
    }
}

/// A history's clusters, every span joined to its own and every zone
/// checked against the others: what [`cluster`] found when the history is
/// linearizable.
#[derive(Debug)]
pub struct Zones {
    /// Sorted by `(object, value)`.
    clusters: Vec<Cluster>,
    /// Each span's cluster; [`DROPPED`] for a pending read and for a
    /// pending write nobody read.
    cluster_of: Vec<u32>,
    /// Each backward cluster's doubled point (module documentation).
    backward_at: Vec<i64>,
}

/// The one entry to the cluster code: `spans` clustered with `initial` as every
/// object's value before its first write, a pending write responding at
/// `end`. `None` when the spans do not qualify — an operation on an
/// object `shape` does not admit or calling none of its methods, a write
/// that stores no `Int`, stores `initial`, stores what another write of
/// its object stores, or completes with anything but `()`; otherwise the
/// zones, or the first conflict among them.
pub fn cluster(
    spans: &[Span],
    shape: &RegisterShape,
    initial: i64,
    end: i64,
) -> Option<Result<Zones, Box<Conflict>>> {
    let mut clusters = clusters(spans, shape, initial, end)?;
    Some(join(spans, shape, &mut clusters).and_then(|cluster_of| {
        let backward_at = check(spans, &clusters)?;
        Ok(Zones { clusters, cluster_of, backward_at })
    }))
}

impl Zones {
    /// The writes whose value some witness leaves their object holding,
    /// as span indices, for spans on one object that are all complete (see
    /// the module documentation's *End values*): each write whose cluster's
    /// earliest response follows every other cluster's latest invocation.
    /// None when the spans hold no write, and the initial value is the one
    /// they end in.
    pub fn last_writes(&self) -> impl Iterator<Item = usize> + '_ {
        // The latest and the second latest invocation, and whose the
        // latest is: every cluster's "latest among the others" is one of
        // the two.
        let (mut top, mut second) = ((i64::MIN, usize::MAX), i64::MIN);
        for (k, c) in self.clusters.iter().enumerate().filter(|(_, c)| !c.dropped) {
            if c.last_inv > top.0 {
                (second, top) = (top.0, (c.last_inv, k));
            } else {
                second = second.max(c.last_inv);
            }
        }
        self.clusters.iter().enumerate().filter_map(move |(k, c)| {
            let others = if k == top.1 { second } else { top.0 };
            c.write.filter(|_| !c.dropped && others < c.first_resp)
        })
    }

    /// The witness the clusters imply (see the module documentation): each
    /// operation a singleton element, a pending write a complete read
    /// returned completed with `()`, sorted by `(point, cluster, write
    /// first)`; each element beside its span's invocation index.
    pub(crate) fn witness(&self, spans: &[Span]) -> Vec<(CaElement, usize)> {
        // Each span's point, doubled so that a half-integer is odd.
        let point = |i: usize, k: usize, c: &Cluster| {
            if !c.is_forward() {
                return self.backward_at[k];
            }
            let write_at = c.write.map_or(-1, |w| (spans[w].inv as i64).max(c.first_resp));
            2 * (spans[i].inv as i64).max(write_at)
        };
        let mut order: Vec<(i64, u32, bool, usize)> = (0..spans.len())
            .filter(|&i| self.cluster_of[i] != DROPPED)
            .map(|i| {
                let (k, c) = (self.cluster_of[i], &self.clusters[self.cluster_of[i] as usize]);
                (point(i, k as usize, c), k, c.write != Some(i), i)
            })
            .collect();
        order.sort_unstable();
        let element = |i: usize| {
            let span = &spans[i];
            CaElement::singleton(span.operation_with_ret(span.ret.unwrap_or(Value::Unit)))
        };
        order.into_iter().map(|(.., i)| (element(i), spans[i].inv)).collect()
    }
}

/// One cluster per write, and one per object whose initial value a
/// complete read returns, sorted by `(object, value)`, or `None` when the
/// spans do not qualify ([`cluster`]). A pending write responds at `end`.
fn clusters(spans: &[Span], shape: &RegisterShape, initial: i64, end: i64) -> Option<Vec<Cluster>> {
    let mut clusters = Vec::new();
    for (i, span) in spans.iter().enumerate() {
        if !shape.admits(span.object) {
            return None;
        }
        let (value, write) = if shape.writes.contains(&span.method) {
            match (span.arg, span.ret) {
                (Value::Int(v), None | Some(Value::Unit)) if v != initial => (v, Some(i)),
                _ => return None,
            }
        } else if !shape.reads.contains(&span.method) {
            return None;
        } else if span.ret == Some(Value::Int(initial)) {
            (initial, None)
        } else {
            continue;
        };
        let (first_resp, last_inv) = match write {
            Some(_) => (span.resp.map_or(end, |r| r as i64), span.inv as i64),
            None => (-1, -2),
        };
        // Until a complete read returns its value.
        let dropped = write.is_some() && !span.is_complete();
        let object = span.object;
        clusters.push(Cluster { object, value, write, first_resp, last_inv, dropped });
    }
    clusters.sort_unstable_by_key(|c| (c.object, c.value));
    // No write stores the initial value, so two clusters of one key are
    // two writes of one value, or two reads of the initial one.
    let key = |c: &Cluster| (c.object, c.value);
    if clusters.windows(2).any(|p| key(&p[0]) == key(&p[1]) && p[0].write.is_some()) {
        return None;
    }
    clusters.dedup_by_key(|c| key(c));
    Some(clusters)
}

/// Each span's cluster, every complete read joined to its value's;
/// [`DROPPED`] for a pending read and for a pending write nobody read.
fn join(
    spans: &[Span],
    shape: &RegisterShape,
    clusters: &mut [Cluster],
) -> Result<Vec<u32>, Box<Conflict>> {
    let mut cluster_of = vec![DROPPED; spans.len()];
    for (i, span) in spans.iter().enumerate() {
        let is_write = shape.writes.contains(&span.method);
        let value = match (is_write, span.ret) {
            (true, _) => span.arg.as_int().expect("a qualified write stores an Int"),
            (false, Some(Value::Int(v))) => v,
            (false, Some(ret)) => {
                return Err(Box::new(Conflict::UnwrittenRead { read: span.operation_with_ret(ret) }))
            }
            (false, None) => continue,
        };
        let found = clusters.binary_search_by_key(&(span.object, value), |c| (c.object, c.value));
        let Ok(k) = found else {
            let read = span.operation_with_ret(Value::Int(value));
            return Err(Box::new(Conflict::UnwrittenRead { read }));
        };
        cluster_of[i] = k as u32;
        if is_write {
            continue;
        }
        let c = &mut clusters[k];
        let resp = span.resp.expect("a read with a return responded");
        if let Some(w) = c.write.filter(|&w| resp < spans[w].inv) {
            let read = span.operation_with_ret(Value::Int(value));
            let write = spans[w].operation_with_ret(Value::Unit);
            return Err(Box::new(Conflict::ReadBeforeWrite { read, write }));
        }
        c.first_resp = c.first_resp.min(resp as i64);
        c.last_inv = c.last_inv.max(span.inv as i64);
        c.dropped = false;
    }
    for c in clusters.iter().filter(|c| c.dropped) {
        cluster_of[c.write.expect("only a write is dropped")] = DROPPED;
    }
    Ok(cluster_of)
}

/// Each backward cluster's doubled point (see the module documentation),
/// or the first two clusters whose zones conflict.
fn check(spans: &[Span], clusters: &[Cluster]) -> Result<Vec<i64>, Box<Conflict>> {
    let name = |c: &Cluster| ClusterName {
        object: c.object,
        value: c.value,
        write: c.write.map(|w| spans[w].operation_with_ret(Value::Unit)),
    };
    // Forward zones by (object, f): when adjacent ones of one object are
    // disjoint, all of that object's are.
    let mut forward: Vec<u32> =
        (0..clusters.len() as u32).filter(|&k| clusters[k as usize].is_forward()).collect();
    let zone_key = |k: &u32| (clusters[*k as usize].object, clusters[*k as usize].first_resp);
    forward.sort_unstable_by_key(zone_key);
    for pair in forward.windows(2) {
        let (a, b) = (&clusters[pair[0] as usize], &clusters[pair[1] as usize]);
        if a.object == b.object && b.first_resp < a.last_inv {
            let (first, second) = (name(a), name(b));
            return Err(Box::new(Conflict::ForwardZonesOverlap { first, second }));
        }
    }
    // A backward cluster [s, f] sits at s + ½, or just past the one
    // forward zone that can contain s + ½: the last of its object's to
    // start before s.
    let mut backward_at = vec![0i64; clusters.len()];
    for (k, c) in clusters.iter().enumerate().filter(|(_, c)| !c.is_forward() && !c.dropped) {
        let at = forward.partition_point(|z| zone_key(z) < (c.object, c.last_inv));
        let around = at.checked_sub(1).map(|i| &clusters[forward[i] as usize]);
        backward_at[k] = match around.filter(|z| z.object == c.object && z.last_inv > c.last_inv) {
            Some(z) if z.last_inv > c.first_resp => {
                let (inner, outer) = (name(c), name(z));
                return Err(Box::new(Conflict::BackwardInsideForward { inner, outer }));
            }
            Some(z) => 2 * z.last_inv + 1,
            None => 2 * c.last_inv + 1,
        };
    }
    Ok(backward_at)
}
