//! Concurrent history recording.
//!
//! A [`Recorder`] collects invocation and response actions from real
//! threads into one totally-ordered log. The log order is consistent with
//! real time — an invocation is appended before its operation starts and a
//! response after it returns — so the recorded [`History`]'s real-time
//! order is a sound under-approximation of what actually happened, which
//! is exactly what the checkers need.

use cal_core::{Action, History, Method, ObjectId, ThreadId, Value};
use parking_lot::Mutex;

/// A thread-safe recorder of object actions.
///
/// # Examples
///
/// ```
/// use cal_core::{Method, ObjectId, ThreadId, Value};
/// use cal_objects::record::Recorder;
/// let r = Recorder::new();
/// r.invoke(ThreadId(0), ObjectId(0), Method("push"), Value::Int(1));
/// r.response(ThreadId(0), ObjectId(0), Method("push"), Value::Bool(true));
/// let h = r.history();
/// assert!(h.is_complete());
/// ```
#[derive(Debug, Default)]
pub struct Recorder {
    log: Mutex<Vec<Action>>,
}

impl Recorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// Records an invocation. Call immediately *before* starting the
    /// operation. (For the live objects [`crate::recorded::Recorded`]'s
    /// bracket is the one caller of this and of [`Recorder::response`].)
    pub fn invoke(&self, thread: ThreadId, object: ObjectId, method: Method, arg: Value) {
        self.log.lock().push(Action::invoke(thread, object, method, arg));
    }

    /// Records a response. Call immediately *after* the operation returns.
    pub fn response(&self, thread: ThreadId, object: ObjectId, method: Method, ret: Value) {
        self.log.lock().push(Action::response(thread, object, method, ret));
    }

    /// Number of recorded actions so far.
    pub fn len(&self) -> usize {
        self.log.lock().len()
    }

    /// Returns `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.log.lock().is_empty()
    }

    /// Snapshots the recorded history.
    pub fn history(&self) -> History {
        History::from_actions(self.log.lock().clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn records_in_order() {
        let r = Recorder::new();
        assert!(r.is_empty());
        r.invoke(ThreadId(0), ObjectId(1), Method("m"), Value::Unit);
        r.response(ThreadId(0), ObjectId(1), Method("m"), Value::Int(1));
        assert_eq!(r.len(), 2);
        let h = r.history();
        assert!(h.is_sequential());
        assert_eq!(h.operations()[0].ret, Value::Int(1));
    }

    #[test]
    fn concurrent_recording_is_well_formed() {
        let r = Arc::new(Recorder::new());
        std::thread::scope(|s| {
            for t in 0..8u32 {
                let r = Arc::clone(&r);
                s.spawn(move || {
                    for i in 0..100 {
                        r.invoke(ThreadId(t), ObjectId(0), Method("op"), Value::Int(i));
                        r.response(ThreadId(t), ObjectId(0), Method("op"), Value::Int(i));
                    }
                });
            }
        });
        let h = r.history();
        assert_eq!(h.len(), 8 * 200);
        assert!(h.is_well_formed());
        assert!(h.is_complete());
    }
}
