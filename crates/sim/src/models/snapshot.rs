//! Step-machine model of the Borowsky–Gafni one-shot **immediate atomic
//! snapshot** algorithm (PODC 1993) — the object Neiger used to motivate
//! set-linearizability (the paper's §6), here verified CAL with respect to
//! [`cal_specs::snapshot::ImmediateSnapshotSpec`] by exhaustive
//! exploration.
//!
//! The classic algorithm, for `n` processes:
//!
//! ```text
//! im_snap_i(v):
//!   value[i] := v
//!   level[i] := n + 1
//!   repeat
//!     level[i] := level[i] - 1
//!     S := { j | level[j] ≤ level[i] }      // one register read per j
//!   until |S| ≥ level[i]
//!   return { value[j] | j ∈ S }
//! ```
//!
//! Processes "descend" levels; a group that ends up stuck at the same
//! level forms a *block* — they all return the same view, which is exactly
//! the immediacy the CA specification demands. Every register access is
//! one scheduler step (the scan is a non-atomic collect, as in the
//! original algorithm).

use cal_core::{ObjectId, ThreadId, Value};

use crate::model::{Model, OpRequest, StepCtx, StepOutcome};
use cal_specs::snapshot::IM_SNAP;

/// Shared state: one value and one level register per process.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SnapshotShared {
    /// `value[i]`: the value written by process `i`, if any.
    pub values: Vec<Option<i64>>,
    /// `level[i]`: the level of process `i` (`n + 1` = not started).
    pub levels: Vec<u8>,
}

/// Local state of one `im_snap` operation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SnapshotLocal {
    /// About to write `value[i]`.
    WriteValue {
        /// The value to write.
        v: i64,
    },
    /// About to decrement `level[i]`.
    Descend,
    /// Scanning `level[j]` for `j = idx`, collecting the set so far.
    Scan {
        /// Next register to read.
        idx: usize,
        /// Process ids already observed at `level[j] ≤ level[i]`.
        below: Vec<usize>,
    },
    /// Scan complete: decide whether to return or descend again.
    Decide {
        /// Processes observed at or below our level.
        below: Vec<usize>,
    },
}

/// The immediate-snapshot model for `n` processes.
///
/// Thread `i` of the workload plays process `i`; each thread may run the
/// operation at most once (the algorithm is one-shot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImmediateSnapshotModel {
    object: ObjectId,
    n: usize,
}

impl ImmediateSnapshotModel {
    /// Creates a model of the one-shot immediate snapshot `object` for `n`
    /// processes.
    pub fn new(object: ObjectId, n: usize) -> Self {
        ImmediateSnapshotModel { object, n }
    }

    /// The number of processes.
    pub fn processes(&self) -> usize {
        self.n
    }
}

impl Model for ImmediateSnapshotModel {
    type Shared = SnapshotShared;
    type Local = SnapshotLocal;

    fn object(&self) -> ObjectId {
        self.object
    }

    fn init_shared(&self) -> SnapshotShared {
        SnapshotShared {
            values: vec![None; self.n],
            levels: vec![self.n as u8 + 1; self.n],
        }
    }

    fn on_invoke(&self, thread: ThreadId, request: &OpRequest) -> SnapshotLocal {
        assert_eq!(request.method, IM_SNAP, "snapshot only offers im_snap()");
        assert!((thread.0 as usize) < self.n, "thread beyond process count");
        let v = request.arg.as_int().expect("im_snap takes an integer");
        assert!((0..63).contains(&v), "values must be in 0..63");
        SnapshotLocal::WriteValue { v }
    }

    fn step(
        &self,
        shared: &mut SnapshotShared,
        local: &mut SnapshotLocal,
        ctx: &mut StepCtx<'_>,
    ) -> StepOutcome<SnapshotLocal> {
        let i = ctx.thread.0 as usize;
        match local {
            SnapshotLocal::WriteValue { v } => {
                assert!(shared.values[i].is_none(), "im_snap is one-shot per process");
                shared.values[i] = Some(*v);
                ctx.label("WRITE");
                *local = SnapshotLocal::Descend;
                StepOutcome::Continue
            }
            SnapshotLocal::Descend => {
                shared.levels[i] -= 1;
                ctx.label("DESCEND");
                *local = SnapshotLocal::Scan { idx: 0, below: Vec::new() };
                StepOutcome::Continue
            }
            SnapshotLocal::Scan { idx, below } => {
                // One register read per step: the collect is not atomic.
                if shared.levels[*idx] <= shared.levels[i] {
                    below.push(*idx);
                }
                let next = *idx + 1;
                if next == self.n {
                    *local = SnapshotLocal::Decide { below: std::mem::take(below) };
                } else {
                    *idx = next;
                }
                StepOutcome::Continue
            }
            SnapshotLocal::Decide { below } => {
                if below.len() >= shared.levels[i] as usize {
                    // Return the view of everyone at or below our level.
                    // Their values are immutable once written.
                    let mut mask = 0i64;
                    for &j in below.iter() {
                        let v = shared.values[j]
                            .expect("a process with a lowered level has written");
                        mask |= 1 << v;
                    }
                    StepOutcome::Done(Value::Int(mask))
                } else {
                    *local = SnapshotLocal::Descend;
                    StepOutcome::Continue
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{Explorer, Workload};
    use cal_core::check::is_cal;
    use cal_specs::snapshot::{view, ImmediateSnapshotSpec};

    const O: ObjectId = ObjectId(0);

    fn snap(v: i64) -> OpRequest {
        OpRequest::new(IM_SNAP, Value::Int(v))
    }

    #[test]
    fn lone_process_sees_itself() {
        let m = ImmediateSnapshotModel::new(O, 1);
        let w = Workload::new(vec![vec![snap(5)]]);
        Explorer::new(&m, w).run(|e| {
            assert_eq!(e.history.operations()[0].ret, Value::Int(view(&[5])));
        });
    }

    #[test]
    fn lone_process_among_absent_peers() {
        let m = ImmediateSnapshotModel::new(O, 3);
        let w = Workload::new(vec![vec![snap(5)]]);
        Explorer::new(&m, w).run(|e| {
            assert_eq!(e.history.operations()[0].ret, Value::Int(view(&[5])));
        });
    }

    #[test]
    fn two_processes_every_interleaving_is_cal() {
        let m = ImmediateSnapshotModel::new(O, 2);
        let spec = ImmediateSnapshotSpec::new(O, 2);
        let w = Workload::new(vec![vec![snap(1)], vec![snap(2)]]);
        let mut execs = 0;
        let mut symmetric = false;
        let mut ordered = false;
        Explorer::new(&m, w).run(|e| {
            execs += 1;
            assert!(is_cal(&e.history, &spec).unwrap(), "not CAL: {}", e.history);
            let rets: Vec<Value> = e.history.operations().iter().map(|o| o.ret).collect();
            if rets.iter().all(|&r| r == Value::Int(view(&[1, 2]))) {
                symmetric = true; // one block of two
            }
            if rets.contains(&Value::Int(view(&[1]))) || rets.contains(&Value::Int(view(&[2]))) {
                ordered = true; // two singleton blocks
            }
        });
        assert!(execs > 10);
        assert!(symmetric, "the simultaneous block outcome must be reachable");
        assert!(ordered, "the sequential outcome must be reachable");
    }

    #[test]
    fn three_processes_exhaustive_are_cal() {
        let m = ImmediateSnapshotModel::new(O, 3);
        let spec = ImmediateSnapshotSpec::new(O, 3);
        let w = Workload::new(vec![vec![snap(1)], vec![snap(2)], vec![snap(3)]]);
        let mut execs = 0u64;
        let stats = Explorer::new(&m, w).run(|e| {
            execs += 1;
            assert!(is_cal(&e.history, &spec).unwrap(), "not CAL: {}", e.history);
        });
        assert!(execs > 100);
        assert_eq!(stats.paths, 666, "pruned schedules, as EXPERIMENTS E11 quotes them");
    }

    #[test]
    fn views_are_totally_ordered_by_containment() {
        // The snapshot property: any two returned views are comparable.
        let m = ImmediateSnapshotModel::new(O, 3);
        let w = Workload::new(vec![vec![snap(1)], vec![snap(2)], vec![snap(3)]]);
        Explorer::new(&m, w).run(|e| {
            let views: Vec<i64> =
                e.history.operations().iter().filter_map(|o| o.ret.as_int()).collect();
            for &a in &views {
                for &b in &views {
                    assert!(
                        a & b == a || a & b == b,
                        "incomparable views {a:#b} and {b:#b} in {}",
                        e.history
                    );
                }
            }
        });
    }

    #[test]
    fn own_value_always_in_view() {
        let m = ImmediateSnapshotModel::new(O, 3);
        let w = Workload::new(vec![vec![snap(1)], vec![snap(2)], vec![snap(3)]]);
        Explorer::new(&m, w).run(|e| {
            for op in e.history.operations() {
                let v = op.arg.as_int().unwrap();
                let mask = op.ret.as_int().unwrap();
                assert!(mask & (1 << v) != 0, "self-inclusion violated in {}", e.history);
            }
        });
    }
}
