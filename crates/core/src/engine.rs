//! Discrete-event engine: simulated time and the event queue.
//!
//! Time is an integer number of **microseconds** ([`SimTime`]) so that
//! event ordering is exact — float timestamps accumulate rounding error
//! and make runs non-reproducible when slowdowns change job end times.
//!
//! Job-end and memory-update events are *re-schedulable*: when a job's
//! speed changes, its pending events become stale. Rather than removing
//! them from the heap (O(n)), each carries an **epoch**; the simulation
//! bumps the job's epoch and pushes a fresh event, and stale pops are
//! discarded (standard lazy deletion).

use crate::cluster::NodeId;
use crate::job::JobId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulated time in integer microseconds since the start of the run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Zero: the start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Convert from seconds (fractional part kept to µs precision;
    /// negative values clamp to zero).
    pub fn from_secs(s: f64) -> Self {
        SimTime((s.max(0.0) * 1e6).round() as u64)
    }

    /// Convert to (fractional) seconds.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating addition of a duration in seconds.
    pub fn plus_secs(self, s: f64) -> Self {
        SimTime(self.0.saturating_add((s.max(0.0) * 1e6).round() as u64))
    }
}

impl std::ops::Sub for SimTime {
    type Output = f64;
    /// Difference in seconds (saturating at zero when rhs > lhs).
    #[allow(clippy::suspicious_arithmetic_impl)] // µs → s conversion
    fn sub(self, rhs: SimTime) -> f64 {
        self.0.saturating_sub(rhs.0) as f64 / 1e6
    }
}

/// What can happen in the simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A job arrives in the pending queue.
    Submit(JobId),
    /// Periodic scheduler pass (FCFS + backfill), every 30 s.
    SchedTick,
    /// A job completes its work. Stale if the epoch doesn't match.
    JobEnd {
        /// The finishing job.
        job: JobId,
        /// Epoch at scheduling time; compared against the job's current
        /// epoch on pop.
        epoch: u32,
    },
    /// Dynamic policy: re-read the job's memory usage and adjust its
    /// allocation. Stale if the epoch doesn't match.
    MemUpdate {
        /// The job whose usage is re-read.
        job: JobId,
        /// Epoch at scheduling time.
        epoch: u32,
    },
    /// Fault injection: the node crashes (resident job killed, borrows
    /// revoked, node out of the pool until repair).
    NodeFail {
        /// The crashing node.
        node: NodeId,
    },
    /// Fault injection: the node's repair completes.
    NodeRepair {
        /// The repaired node.
        node: NodeId,
    },
    /// Fault injection: `mb` of the node's DRAM leaves the lending pool.
    PoolDegrade {
        /// The degrading node.
        node: NodeId,
        /// Capacity lost, MB.
        mb: u64,
    },
    /// Fault injection: a previously degraded slice comes back.
    PoolRestore {
        /// The restored node.
        node: NodeId,
        /// Capacity restored, MB.
        mb: u64,
    },
}

/// An event at a point in simulated time. `seq` breaks ties FIFO so
/// same-timestamp events process in insertion order (determinism).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// When the event fires.
    pub time: SimTime,
    /// Tie-break sequence number (insertion order).
    pub seq: u64,
    /// Payload.
    pub kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Min-heap of events ordered by `(time, seq)`.
///
/// Lazy deletion leaves stale `JobEnd`/`MemUpdate` events in the heap
/// until they are popped. Under the dynamic policy a long-running
/// borrower can be re-timed many times between pops, so the heap can
/// grow well past the live event count. Callers report superseded
/// events via [`note_stale`](Self::note_stale); once
/// [`should_compact`](Self::should_compact) trips, a single
/// [`compact`](Self::compact) sweep rebuilds the heap from the live
/// events. Surviving events keep their original `(time, seq)` keys, so
/// compaction never changes the pop order of live events. It is *not*
/// invisible to the outcome: the runner advances its utilisation
/// integrals on every pop, stale ones included, before it discards
/// them, so which stale events still pop (and when) splits those
/// integrals differently and moves their last bits.
#[derive(Clone, Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<Event>>,
    next_seq: u64,
    /// Events known to be stale (superseded by a newer epoch) but still
    /// sitting in the heap. Decremented when a stale event pops.
    stale: usize,
}

/// Compact once the heap holds at least this many events *and* stale
/// events outnumber live ones. The floor keeps small runs (where a full
/// rebuild costs more than it saves) on the pure lazy-deletion path.
const COMPACT_MIN_LEN: usize = 1024;

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `kind` at `time`.
    pub fn push(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Event { time, seq, kind }));
    }

    /// Pop the earliest event, if any.
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop().map(|Reverse(e)| e)
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// Number of pending events (including stale ones).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Record that `n` queued events just became stale (their job's
    /// epoch advanced past them).
    pub fn note_stale(&mut self, n: usize) {
        self.stale += n;
    }

    /// Record that a popped event turned out to be stale.
    pub fn note_stale_popped(&mut self) {
        self.stale = self.stale.saturating_sub(1);
    }

    /// Number of events currently believed stale.
    pub fn stale(&self) -> usize {
        self.stale
    }

    /// Whether the stale fraction warrants a [`compact`](Self::compact)
    /// sweep (heap at least `COMPACT_MIN_LEN` long and more than half
    /// stale).
    pub fn should_compact(&self) -> bool {
        self.heap.len() >= COMPACT_MIN_LEN && self.stale * 2 > self.heap.len()
    }

    /// Drop every queued event for which `keep` returns `false`,
    /// preserving the `(time, seq)` keys of survivors (pop order is
    /// unchanged). Resets the stale counter.
    pub fn compact<F: FnMut(&Event) -> bool>(&mut self, mut keep: F) {
        let events = std::mem::take(&mut self.heap).into_vec();
        self.heap = events.into_iter().filter(|Reverse(e)| keep(e)).collect();
        self.stale = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simtime_roundtrip() {
        let t = SimTime::from_secs(123.456789);
        assert!((t.as_secs() - 123.456789).abs() < 1e-6);
        assert_eq!(SimTime::from_secs(-5.0), SimTime::ZERO);
    }

    #[test]
    fn simtime_arithmetic() {
        let a = SimTime::from_secs(10.0);
        let b = a.plus_secs(5.5);
        assert!((b - a - 5.5).abs() < 1e-9);
        // Saturating subtraction.
        assert_eq!(a - b, 0.0);
    }

    #[test]
    fn queue_orders_by_time() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(30.0), EventKind::SchedTick);
        q.push(SimTime::from_secs(10.0), EventKind::Submit(JobId(1)));
        q.push(SimTime::from_secs(20.0), EventKind::Submit(JobId(2)));
        assert_eq!(q.pop().unwrap().kind, EventKind::Submit(JobId(1)));
        assert_eq!(q.pop().unwrap().kind, EventKind::Submit(JobId(2)));
        assert_eq!(q.pop().unwrap().kind, EventKind::SchedTick);
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1.0);
        for i in 0..100 {
            q.push(t, EventKind::Submit(JobId(i)));
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().kind, EventKind::Submit(JobId(i)));
        }
    }

    #[test]
    fn peek_time_matches_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(7.0), EventKind::SchedTick);
        q.push(SimTime::from_secs(3.0), EventKind::SchedTick);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(3.0)));
        q.pop();
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(7.0)));
    }

    #[test]
    fn compact_preserves_pop_order_of_survivors() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1.0);
        for i in 0..50 {
            q.push(
                t,
                EventKind::JobEnd {
                    job: JobId(i),
                    epoch: 0,
                },
            );
        }
        // Mark odd jobs stale and compact them away.
        q.note_stale(25);
        assert_eq!(q.stale(), 25);
        q.compact(|e| match e.kind {
            EventKind::JobEnd { job, .. } => job.0 % 2 == 0,
            _ => true,
        });
        assert_eq!(q.stale(), 0);
        assert_eq!(q.len(), 25);
        // Survivors pop in the original insertion (seq) order.
        for i in (0..50).step_by(2) {
            assert_eq!(
                q.pop().unwrap().kind,
                EventKind::JobEnd {
                    job: JobId(i),
                    epoch: 0
                }
            );
        }
    }

    #[test]
    fn should_compact_requires_size_and_stale_majority() {
        let mut q = EventQueue::new();
        for i in 0..600 {
            q.push(SimTime::ZERO, EventKind::Submit(JobId(i)));
        }
        q.note_stale(400);
        // Majority stale but below the size floor: no compaction.
        assert!(!q.should_compact());
        for i in 600..1200 {
            q.push(SimTime::ZERO, EventKind::Submit(JobId(i)));
        }
        // Big enough but stale is now a minority.
        assert!(!q.should_compact());
        q.note_stale(300);
        assert!(q.should_compact());
        q.compact(|_| true);
        assert!(!q.should_compact());
    }

    #[test]
    fn len_and_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::ZERO, EventKind::SchedTick);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }
}
