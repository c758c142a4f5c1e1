//! Cancellable event queue with deterministic ordering.
//!
//! Events popped from the queue are ordered by `(time, sequence)`, where the
//! sequence number is assigned at scheduling time. Two events scheduled for
//! the same instant therefore fire in scheduling order, which makes whole
//! simulations reproducible bit-for-bit.
//!
//! Cancellation state is an [`IdMap`] keyed by sequence number: the
//! engine schedules, pops and cancels on every event, and the integer
//! hasher makes each of those lookups a multiply instead of a SipHash.

use crate::idmap::IdMap;
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Handle to a scheduled event, usable for cancellation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventId(u64);

#[derive(PartialEq, Eq)]
struct Slot<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E: Eq> Ord for Slot<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl<E: Eq> PartialOrd for Slot<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic, cancellable discrete-event queue.
///
/// `E` is the event payload type chosen by the embedding simulator.
/// Cancellation is lazy: cancelled events stay in the heap and are skipped
/// on pop, which keeps both operations `O(log n)` amortized.
///
/// Cancellation state lives in `pending`, which tracks exactly the
/// events still in the heap (`seq → cancelled?`). Cancelling an
/// already-fired (or never-heaped) event is rejected up front instead of
/// inserting a tombstone that nothing would ever prune — long-running
/// simulations cancel stale timer events constantly, and an
/// insert-always set would grow without bound.
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Slot<E>>>,
    /// One entry per heap slot: `true` once cancelled.
    pending: IdMap<u64, bool>,
    next_seq: u64,
    scheduled: u64,
    fired: u64,
}

impl<E: Eq> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Eq> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            pending: IdMap::default(),
            next_seq: 0,
            scheduled: 0,
            fired: 0,
        }
    }

    /// Schedule `payload` to fire at absolute time `at`.
    ///
    /// Events scheduled for [`SimTime::FAR_FUTURE`] are silently dropped:
    /// they model "never happens" completions.
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        if at != SimTime::FAR_FUTURE {
            self.heap.push(Reverse(Slot {
                time: at,
                seq,
                payload,
            }));
            self.pending.insert(seq, false);
            self.scheduled += 1;
        }
        EventId(seq)
    }

    /// Cancel a previously scheduled event. Cancelling an already-fired,
    /// already-cancelled or unknown event is a no-op (and returns
    /// `false`) — in particular it cannot grow the queue's state.
    pub fn cancel(&mut self, id: EventId) -> bool {
        match self.pending.get_mut(&id.0) {
            Some(cancelled @ false) => {
                *cancelled = true;
                true
            }
            _ => false,
        }
    }

    /// Remove and return the earliest live event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(Reverse(slot)) = self.heap.pop() {
            let cancelled = self.pending.remove(&slot.seq).unwrap_or(false);
            if cancelled {
                continue;
            }
            self.fired += 1;
            return Some((slot.time, slot.payload));
        }
        None
    }

    /// Time of the earliest live event without removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        loop {
            match self.heap.peek() {
                None => return None,
                Some(Reverse(slot)) if self.pending.get(&slot.seq) == Some(&true) => {
                    let Reverse(slot) = self.heap.pop().expect("peeked");
                    self.pending.remove(&slot.seq);
                }
                Some(Reverse(slot)) => return Some(slot.time),
            }
        }
    }

    /// Cancelled-but-not-yet-pruned entries still occupying the heap
    /// (diagnostics; bounded by [`EventQueue::len`] by construction).
    pub fn tombstones(&self) -> usize {
        self.pending.values().filter(|&&c| c).count()
    }

    /// Number of events currently pending (including not-yet-skipped
    /// cancelled entries; an upper bound used for progress diagnostics).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total events scheduled over the queue's lifetime.
    pub fn total_scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Total events fired over the queue's lifetime.
    pub fn total_fired(&self) -> u64 {
        self.fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(5), "c");
        q.schedule(t(1), "a");
        q.schedule(t(3), "b");
        assert_eq!(q.pop(), Some((t(1), "a")));
        assert_eq!(q.pop(), Some((t(3), "b")));
        assert_eq!(q.pop(), Some((t(5), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_tie_break_at_same_instant() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(7), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn cancellation_skips_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        assert!(q.cancel(a));
        assert_eq!(q.pop(), Some((t(2), "b")));
    }

    #[test]
    fn cancel_then_peek_is_consistent() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(4), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(4)));
        assert_eq!(q.pop(), Some((t(4), "b")));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn far_future_events_never_fire() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::FAR_FUTURE, "never");
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(t(10), 1u32);
        assert_eq!(q.pop(), Some((t(10), 1)));
        q.schedule(t(10) + SimDuration::from_nanos(1), 2);
        q.schedule(t(10), 3); // same nominal second but earlier nanos
        assert_eq!(q.pop(), Some((t(10), 3)));
        assert_eq!(q.pop(), Some((t(10) + SimDuration::from_nanos(1), 2)));
    }

    #[test]
    fn counters_track_lifecycle() {
        let mut q = EventQueue::new();
        q.schedule(t(1), ());
        q.schedule(t(2), ());
        q.pop();
        assert_eq!(q.total_scheduled(), 2);
        assert_eq!(q.total_fired(), 1);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn cancelling_fired_events_cannot_leak_tombstones() {
        // Regression: cancel() of an already-fired event used to insert
        // into the cancelled set forever. A long-running simulation that
        // reschedules timers (cancelling the stale event after it fired)
        // would grow that set without bound.
        let mut q = EventQueue::new();
        let mut fired_ids = Vec::new();
        for round in 0..1000u64 {
            let id = q.schedule(t(round), round);
            assert_eq!(q.pop(), Some((t(round), round)));
            fired_ids.push(id);
        }
        for id in fired_ids {
            assert!(!q.cancel(id), "cancel of a fired event must be a no-op");
        }
        assert_eq!(q.tombstones(), 0);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn tombstones_are_bounded_by_pending_and_pruned_on_pop() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..100u64).map(|i| q.schedule(t(i), i)).collect();
        for id in &ids[..50] {
            assert!(q.cancel(*id), "first cancel of a pending event");
            assert!(!q.cancel(*id), "second cancel is a no-op");
        }
        assert_eq!(q.tombstones(), 50);
        assert!(q.tombstones() <= q.len());
        let mut live = 0;
        while q.pop().is_some() {
            live += 1;
        }
        assert_eq!(live, 50);
        assert_eq!(q.tombstones(), 0);
    }

    #[test]
    fn far_future_events_leave_no_state_and_cancel_false() {
        let mut q = EventQueue::new();
        let id = q.schedule(SimTime::FAR_FUTURE, 1u32);
        assert_eq!(q.len(), 0);
        assert!(!q.cancel(id), "never-heaped event has nothing to cancel");
        assert_eq!(q.tombstones(), 0);
    }
}
