//! Stateless pair specifications decided by a matching instead of a
//! search.
//!
//! Three of the paper's four case-study objects — the exchanger (§4), the
//! elimination array (§5) and the synchronous queue — are specified by
//! acceptors whose state is `()` and whose elements hold one or two
//! operations ([`Shape::Pairs`]). Call a complete operation *needy* when
//! its singleton element is illegal. Against such a specification, a
//! history is CAL iff the graph that joins every two concurrent operations
//! forming a legal element has a matching that covers every needy
//! operation:
//!
//! - *Only if.* A witness partitions a completion's operations into legal
//!   elements of one or two operations. The two operations of an element
//!   are concurrent (Def. 5: neither may precede the other), and a needy
//!   operation cannot be an element alone, so the pairs are a matching
//!   covering every needy operation.
//! - *If.* Pairwise-overlapping intervals share a point (Helly, in one
//!   dimension): an element's *point* is the latest invocation among its
//!   members, which precedes every member's response. Sort the matched
//!   pairs and the unmatched complete operations by their points. An
//!   operation that responds before another is invoked then sits at a
//!   strictly smaller point, so the order respects real time, and the
//!   specification accepts the elements in any order, having no state.
//!
//! This is the paper's §4 sentence used as an algorithm: "a successful
//! exchange overlaps precisely the operation it swapped with".
//!
//! **Pending operations.** A pending invocation may be dropped (Def. 2),
//! so it is an optional vertex, never one the matching must cover. Its
//! edge to a complete partner carries the first return value of
//! [`CaSpec::completions_among`] (with the partner as the one peer) that
//! makes the pair legal; matched, it is completed with that value,
//! unmatched, dropped. Two pending operations, or any two operations that
//! can both stand alone, never need each other, so no edge joins them.
//!
//! **The graph.** Operations are grouped by *shape* — object, method,
//! argument and return — and the specification is asked once per shape
//! whether a singleton is legal and once per pair of shapes whether they
//! pair, the answers cached. One sweep over the actions builds the edges:
//! each invocation is joined to every currently open operation of a shape
//! it pairs with, so every concurrent pair is met exactly once, at the
//! later invocation: `O(n·s + E)` for `n` operations, `s` shapes open at
//! once and `E` edges.
//!
//! **The matching.** The needy operations are covered one at a time, in
//! invocation order, each by an augmenting-path search from it (Edmonds,
//! with blossoms: the operations of an exchanger's `(v→v)` class pair with
//! each other, and pending wildcards join classes, so odd cycles occur).
//! A search ends at an exposed vertex, or at an outer vertex that is
//! optional and matched, which is then released: flipping the even path
//! to it covers the root and uncovers only an operation that needs no
//! cover. The sets of vertices some matching covers are the independent
//! sets of a matroid (the matching matroid), so covering one needy
//! vertex at a time never has to be undone: if a matching covers every
//! needy vertex, the component of the root in its symmetric difference
//! with the current matching is a path that ends at an exposed vertex or,
//! after a matched edge, at a vertex that matching leaves uncovered —
//! optional — and the search finds either.
//!
//! **Refutation.** When a search fails, its tree names the obstruction:
//! its outer vertices are needy and adjacent only to each other and to
//! its inner vertices, and they fall into one more odd group (a single
//! operation, or a blossom) than there are inner vertices. Each odd group
//! must send one member to a partner outside it, so some group goes
//! without. With no blossom this is a Hall set — operations that together
//! have fewer available partners than members; a blossom is a Tutte set
//! inside a `(v→v)` class. [`Shortage`] names the operations.
//!
//! This module shares nothing with the CA search. `check::decide_part`
//! hands it one object's part of a history or a window.
//!
//! [`Shape::Pairs`]: crate::spec::Shape::Pairs

use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasherDefault;
use std::slice;

use crate::history::{FoldHash, Span};
use crate::ids::{Method, ObjectId, Value};
use crate::spec::{CaSpec, Invocation};
use crate::trace::CaElement;

/// Why a history is not CAL against a pair specification: needy
/// operations that find partners only among themselves and among fewer
/// other operations than they need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shortage {
    /// The needy operations, in invocation order. Each is adjacent only
    /// to other members and to [`Shortage::partners`].
    pub members: Vec<Span>,
    /// How many odd groups the members fall into: each group pairs off
    /// inside itself but for one member, who needs an outside partner.
    /// Equal to the number of members when no two members pair (a Hall
    /// set), fewer when some do (a Tutte set).
    pub groups: usize,
    /// The operations outside the members that any member can pair with,
    /// in invocation order: one fewer than the groups.
    pub partners: Vec<Span>,
}

/// `spans` as a list: each operation as the history records it, a
/// pending one with no return.
fn list(spans: &[Span]) -> String {
    let item = |s: &Span| match s.operation() {
        Some(op) => op.to_string(),
        None => format!("({}, {}({}) pending)", s.thread, s.method, s.arg),
    };
    spans.iter().map(item).collect::<Vec<_>>().join(", ")
}

impl fmt::Display for Shortage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (m, g, p) = (self.members.len(), self.groups, self.partners.len());
        let kind = if g == m { "Hall set" } else { "Tutte set" };
        let s = |n: usize| if n == 1 { "" } else { "s" };
        let them = if m == 1 { "it" } else { "them" };
        let members = list(&self.members);
        match m {
            1 => write!(f, "{kind}: the operation {members} cannot stand alone")?,
            _ => write!(f, "{kind}: the {m} operations {members} cannot stand alone")?,
        }
        if g < m {
            let groups = format!("{g} odd group{}", s(g));
            write!(f, ", and pair among themselves only in {groups}, each with one left over")?;
        }
        match p {
            0 => write!(f, ", and no other concurrent operation can partner {them}"),
            _ => write!(
                f,
                ", and only {p} other concurrent operation{} can partner {them}: {}",
                s(p),
                list(&self.partners)
            ),
        }
    }
}

/// Decides `spans`, a well-formed history's or a part of one, against
/// `spec`, which must be a stateless pair specification
/// ([`crate::spec::Shape::Pairs`]); see the module documentation. An
/// acceptance is the witness, each element beside the largest invocation
/// index among its operations.
///
/// # Errors
///
/// The operations that lack partners.
pub fn decide<S: CaSpec>(spans: &[Span], spec: &S) -> Result<Vec<(CaElement, usize)>, Shortage> {
    debug_assert!(spec.max_element_size() <= 2, "a pair specification's elements are pairs");
    // The graph code asks through these two, so that a binary holds one
    // copy of it whatever the specifications it checks.
    let state = spec.initial();
    let legal = |e: &CaElement| spec.step(&state, e).is_some();
    let complete = |inv: &Invocation, peer: &Invocation| spec.completions_among(inv, slice::from_ref(peer));
    let graph = Graph::build(spans, &legal, &complete);
    let mut matcher = Matcher::new(&graph);
    for root in 0..spans.len() as u32 {
        if graph.needy(root) && matcher.mate[root as usize] == NONE && !matcher.cover(root) {
            return Err(matcher.shortage(spans));
        }
    }
    Ok(graph.witness(spans, &matcher.mate))
}

/// No vertex.
const NONE: u32 = u32::MAX;

/// What a specification judges an operation by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ShapeKey {
    object: ObjectId,
    method: Method,
    arg: Value,
    ret: Option<Value>,
}

/// Whether two shapes pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pairing {
    /// No legal element holds one of each.
    Never,
    /// Both complete, and the pair is legal.
    Legal,
    /// One pending, legal when the pending one returns this value.
    Completing(Value),
}

/// The graph of concurrent, legal pairs over a history's spans.
struct Graph {
    /// Each span's shape.
    shape_of: Vec<u32>,
    /// Per shape: complete with an illegal singleton.
    needy: Vec<bool>,
    /// Per unordered pair of shapes ([`pair_key`]), once asked.
    pairing: HashMap<u64, Pairing, Fold>,
    /// Span `v`'s neighbours are `ends[start[v]..start[v + 1]]`.
    start: Vec<usize>,
    ends: Vec<u32>,
}

/// A table keyed by this module's own ids hashes with one multiplication.
type Fold = BuildHasherDefault<FoldHash>;

/// Whether the specification accepts an element.
type Legal<'a> = &'a dyn Fn(&CaElement) -> bool;

/// The values the specification proposes for a pending invocation beside
/// one peer ([`CaSpec::completions_among`]).
type Complete<'a> = &'a dyn Fn(&Invocation, &Invocation) -> Vec<Value>;

impl Graph {
    /// The shapes, the cached answers and the edges, in one sweep over
    /// the actions `spans` come from.
    fn build(spans: &[Span], legal: Legal<'_>, complete: Complete<'_>) -> Graph {
        // Shapes come from the input, so their table keeps the default
        // hasher; pairs of shape ids are this module's own.
        let mut ids: HashMap<ShapeKey, u32> = HashMap::new();
        let mut needy = Vec::new();
        let shape_of: Vec<u32> = spans
            .iter()
            .map(|s| {
                let key = ShapeKey { object: s.object, method: s.method, arg: s.arg, ret: s.ret };
                *ids.entry(key).or_insert_with(|| {
                    let alone = |op| legal(&CaElement::singleton(op));
                    needy.push(s.operation().is_some_and(|op| !alone(op)));
                    needy.len() as u32 - 1
                })
            })
            .collect();
        let pairing = HashMap::default();
        let mut graph = Graph { shape_of, needy, pairing, start: Vec::new(), ends: Vec::new() };
        let mut edges: Vec<(u32, u32)> = Vec::new();
        // The spans' actions in history order, each as its index and its
        // span: a part's spans keep the indices of the whole history's
        // actions, so the order is sorted out, not laid out.
        let mut actions: Vec<(usize, u32)> = Vec::with_capacity(2 * spans.len());
        for (i, s) in spans.iter().enumerate() {
            actions.push((s.inv, i as u32));
            actions.extend(s.resp.map(|r| (r, i as u32)));
        }
        actions.sort_unstable();
        // Open spans by shape, each span's place in its list, and the
        // shapes with an open span, each shape's place in that list.
        let shapes = graph.needy.len();
        let mut open: Vec<Vec<u32>> = vec![Vec::new(); shapes];
        let mut place = vec![0u32; spans.len()];
        let mut open_shapes: Vec<u32> = Vec::new();
        let mut shape_place = vec![0u32; shapes];
        for (a, i) in actions {
            let sh = graph.shape_of[i as usize];
            if spans[i as usize].inv == a {
                for &t in &open_shapes {
                    if !graph.needy[sh as usize] && !graph.needy[t as usize] {
                        continue;
                    }
                    let partner = open[t as usize][0] as usize;
                    if graph.pair(legal, complete, spans, i as usize, partner) == Pairing::Never {
                        continue;
                    }
                    edges.extend(open[t as usize].iter().map(|&j| (i, j)));
                }
                let list = &mut open[sh as usize];
                if list.is_empty() {
                    shape_place[sh as usize] = open_shapes.len() as u32;
                    open_shapes.push(sh);
                }
                place[i as usize] = list.len() as u32;
                list.push(i);
            } else {
                let list = &mut open[sh as usize];
                let k = place[i as usize] as usize;
                list.swap_remove(k);
                if let Some(&moved) = list.get(k) {
                    place[moved as usize] = k as u32;
                }
                if list.is_empty() {
                    let k = shape_place[sh as usize] as usize;
                    open_shapes.swap_remove(k);
                    if let Some(&moved) = open_shapes.get(k) {
                        shape_place[moved as usize] = k as u32;
                    }
                }
            }
        }
        graph.lay_out(spans.len(), &edges);
        graph
    }

    /// Lays `edges` out as each of `n` spans' neighbour lists, one slice
    /// of one array.
    fn lay_out(&mut self, n: usize, edges: &[(u32, u32)]) {
        let mut start = vec![0; n + 1];
        for &(i, j) in edges {
            start[i as usize + 1] += 1;
            start[j as usize + 1] += 1;
        }
        for v in 0..n {
            start[v + 1] += start[v];
        }
        let mut fill = start.clone();
        let mut ends = vec![0u32; 2 * edges.len()];
        for &(i, j) in edges {
            for (from, to) in [(i, j), (j, i)] {
                ends[fill[from as usize]] = to;
                fill[from as usize] += 1;
            }
        }
        self.start = start;
        self.ends = ends;
    }

    /// Span `v`'s neighbours.
    fn neighbours(&self, v: u32) -> &[u32] {
        &self.ends[self.start[v as usize]..self.start[v as usize + 1]]
    }

    /// Whether span `i`'s shape pairs with span `j`'s, asking the
    /// specification on the first two spans of those shapes to meet.
    fn pair(&mut self, legal: Legal<'_>, complete: Complete<'_>, spans: &[Span], i: usize, j: usize) -> Pairing {
        let key = pair_key(self.shape_of[i], self.shape_of[j]);
        *self.pairing.entry(key).or_insert_with(|| {
            let legal = |a, b| CaElement::pair(a, b).is_ok_and(|e| legal(&e));
            let (a, b) = (&spans[i], &spans[j]);
            let (pending, partner) = match (a.operation(), b.operation()) {
                (Some(x), Some(y)) if legal(x, y) => return Pairing::Legal,
                (Some(_), Some(_)) => return Pairing::Never,
                (None, Some(_)) => (a, b),
                (Some(_), None) => (b, a),
                (None, None) => return Pairing::Never,
            };
            let invocation = |s: &Span| Invocation::new(s.thread, s.object, s.method, s.arg);
            let rets = complete(&invocation(pending), &invocation(partner));
            let partner = partner.operation().expect("the partner is complete");
            let ret = rets.into_iter().find(|&r| legal(pending.operation_with_ret(r), partner));
            ret.map_or(Pairing::Never, Pairing::Completing)
        })
    }

    /// Whether span `v` must be covered.
    fn needy(&self, v: u32) -> bool {
        self.needy[self.shape_of[v as usize] as usize]
    }

    /// The witness `mate` implies: each pair, and each unmatched complete
    /// operation alone, at its point, which is the largest invocation
    /// index among its operations; unmatched pending operations dropped.
    fn witness(&self, spans: &[Span], mate: &[u32]) -> Vec<(CaElement, usize)> {
        let mut placed: Vec<(usize, CaElement)> = Vec::new();
        for (i, span) in spans.iter().enumerate() {
            let j = mate[i] as usize;
            if mate[i] == NONE {
                if let Some(op) = span.operation() {
                    placed.push((span.inv, CaElement::singleton(op)));
                }
                continue;
            }
            if j < i {
                continue;
            }
            let key = pair_key(self.shape_of[i], self.shape_of[j]);
            let op = |s: &Span| match (s.ret, self.pairing[&key]) {
                (Some(ret), _) => s.operation_with_ret(ret),
                (None, Pairing::Completing(ret)) => s.operation_with_ret(ret),
                (None, pairing) => unreachable!("a matched pending operation pairs {pairing:?}"),
            };
            let element = CaElement::pair(op(span), op(&spans[j]));
            placed.push((spans[j].inv, element.expect("a matched pair is legal")));
        }
        placed.sort_unstable_by_key(|&(point, _)| point);
        placed.into_iter().map(|(point, e)| (e, point)).collect()
    }
}

/// An unordered pair of shapes as a key.
fn pair_key(a: u32, b: u32) -> u64 {
    u64::from(a.min(b)) << 32 | u64::from(a.max(b))
}

/// Edmonds' augmenting-path search, one root at a time, over a
/// [`Graph`]: the classic array form (mate, parent and base per vertex,
/// a breadth-first queue of outer vertices), with every array the tree
/// touched reset after a search, so a search costs what its tree holds.
struct Matcher<'g> {
    graph: &'g Graph,
    mate: Vec<u32>,
    /// The vertex an inner vertex was reached from (and, inside a
    /// blossom, an outer vertex's way back to the root).
    parent: Vec<u32>,
    /// The base of the blossom a vertex lies in, itself outside one.
    base: Vec<u32>,
    outer: Vec<bool>,
    in_blossom: Vec<bool>,
    /// The stamp of the last lowest-common-ancestor walk that met a base.
    seen: Vec<u32>,
    stamp: u32,
    /// Every vertex of the current tree, in the order it joined.
    tree: Vec<u32>,
    queue: Vec<u32>,
}

impl<'g> Matcher<'g> {
    fn new(graph: &'g Graph) -> Self {
        let n = graph.shape_of.len();
        Matcher {
            graph,
            mate: vec![NONE; n],
            parent: vec![NONE; n],
            base: (0..n as u32).collect(),
            outer: vec![false; n],
            in_blossom: vec![false; n],
            seen: vec![0; n],
            stamp: 0,
            tree: Vec::new(),
            queue: Vec::new(),
        }
    }

    /// Covers `root`, keeping every vertex already covered that must be,
    /// or leaves the failed tree in place and returns `false`.
    fn cover(&mut self, root: u32) -> bool {
        self.tree.push(root);
        self.outer[root as usize] = true;
        self.queue.push(root);
        let mut head = 0;
        while let Some(&v) = self.queue.get(head) {
            head += 1;
            if v != root && !self.graph.needy(v) {
                // An optional outer vertex: release it, and flip the path
                // from its mate as if the mate had reached a free vertex.
                let inner = std::mem::replace(&mut self.mate[v as usize], NONE);
                self.augment(inner);
                return true;
            }
            // A free neighbour ends the search at once. Looking for one
            // first keeps a root among matched clones from contracting a
            // blossom for every pair it meets on the way to it.
            let free = self.graph.neighbours(v).iter().find(|&&to| {
                to != root && self.mate[to as usize] == NONE
            });
            if let Some(&to) = free {
                self.parent[to as usize] = v;
                self.tree.push(to);
                self.augment(to);
                return true;
            }
            for &to in self.graph.neighbours(v) {
                if self.base[v as usize] == self.base[to as usize] || self.mate[v as usize] == to {
                    continue;
                }
                let to_outer = to == root
                    || (self.mate[to as usize] != NONE
                        && self.parent[self.mate[to as usize] as usize] != NONE);
                if to_outer {
                    self.contract(v, to);
                } else if self.parent[to as usize] == NONE {
                    self.parent[to as usize] = v;
                    self.tree.push(to);
                    let next = self.mate[to as usize];
                    self.outer[next as usize] = true;
                    self.tree.push(next);
                    self.queue.push(next);
                }
            }
        }
        false
    }

    /// Flips the alternating path that ends at the exposed vertex `end`,
    /// then clears the tree.
    fn augment(&mut self, end: u32) {
        let mut v = end;
        while v != NONE {
            let pv = self.parent[v as usize];
            let next = self.mate[pv as usize];
            self.mate[v as usize] = pv;
            self.mate[pv as usize] = v;
            v = next;
        }
        for &v in &self.tree {
            let v = v as usize;
            self.parent[v] = NONE;
            self.base[v] = v as u32;
            self.outer[v] = false;
            self.in_blossom[v] = false;
        }
        self.tree.clear();
        self.queue.clear();
    }

    /// Contracts the blossom closed by the edge between outer vertices
    /// `v` and `to`; its vertices become outer.
    fn contract(&mut self, v: u32, to: u32) {
        let b = self.common_base(v, to);
        for &u in &self.tree {
            self.in_blossom[u as usize] = false;
        }
        self.mark_path(v, b, to);
        self.mark_path(to, b, v);
        for k in 0..self.tree.len() {
            let u = self.tree[k] as usize;
            if self.in_blossom[self.base[u] as usize] {
                self.base[u] = b;
                if !self.outer[u] {
                    self.outer[u] = true;
                    self.queue.push(u as u32);
                }
            }
        }
    }

    /// The base where the tree paths from `a` and `b` to the root meet.
    fn common_base(&mut self, mut a: u32, mut b: u32) -> u32 {
        self.stamp += 1;
        loop {
            a = self.base[a as usize];
            self.seen[a as usize] = self.stamp;
            if self.mate[a as usize] == NONE {
                break;
            }
            a = self.parent[self.mate[a as usize] as usize];
        }
        loop {
            b = self.base[b as usize];
            if self.seen[b as usize] == self.stamp {
                return b;
            }
            b = self.parent[self.mate[b as usize] as usize];
        }
    }

    /// Marks the blossom's bases from `v` down to `b`, pointing each
    /// outer vertex on the way across the closing edge.
    fn mark_path(&mut self, mut v: u32, b: u32, mut child: u32) {
        while self.base[v as usize] != b {
            let m = self.mate[v as usize];
            self.in_blossom[self.base[v as usize] as usize] = true;
            self.in_blossom[self.base[m as usize] as usize] = true;
            self.parent[v as usize] = child;
            child = m;
            v = self.parent[m as usize];
        }
    }

    /// The obstruction a failed search's tree holds.
    fn shortage(&self, spans: &[Span]) -> Shortage {
        let (mut members, mut partners, mut bases) = (Vec::new(), Vec::new(), Vec::new());
        for &v in &self.tree {
            let v = v as usize;
            if self.outer[v] {
                members.push(v);
                bases.push(self.base[v]);
            } else {
                partners.push(v);
            }
        }
        bases.sort_unstable();
        bases.dedup();
        members.sort_unstable();
        partners.sort_unstable();
        Shortage {
            members: members.into_iter().map(|i| spans[i]).collect(),
            groups: bases.len(),
            partners: partners.into_iter().map(|i| spans[i]).collect(),
        }
    }
}
