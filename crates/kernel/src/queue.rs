//! The kernel's event queue: one totally ordered virtual-time schedule.
//!
//! Every virtual-time advance in the workspace funnels through this
//! queue. Entries are keyed by `(SimTime, seq)` where `seq` is a dense
//! submission counter, so ordering is total and equal-timestamp entries
//! fire in submission order — the stable FIFO tie-break that makes whole
//! simulations replay byte-identically from a seed.
//!
//! Popping an entry advances the queue's clock and publishes it to the
//! observe bus ([`bus::set_time_us`]), so traces from every layer are
//! stamped from this single clock by construction.

use std::collections::BinaryHeap;

use rmodp_observe::bus;

use crate::time::SimTime;

/// One queued entry: `item` fires at `at`; `seq` breaks ties FIFO.
#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    item: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed so the BinaryHeap pops the earliest entry; ties broken
        // by submission order for determinism.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A deterministic event queue over virtual time.
///
/// The queue owns the clock: [`EventQueue::pop`] advances it to the
/// popped entry's timestamp and [`EventQueue::advance_to`] idles it
/// forward when nothing is due. Both publish the new time to the observe
/// bus, so everything recorded anywhere in the process is stamped with
/// this clock.
#[derive(Debug)]
pub struct EventQueue<E> {
    now: SimTime,
    seq: u64,
    stride: u64,
    heap: BinaryHeap<Entry<E>>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at the epoch.
    pub fn new() -> Self {
        Self::with_seq_stride(0, 1)
    }

    /// An empty queue whose submission counter starts at `offset` and
    /// advances by `stride` — shard `i` of `n` uses `(i, n)` so every
    /// sequence number across a sharded kernel is globally unique and the
    /// canonical cross-shard merge order `(SimTime, shard, seq)` never
    /// collides.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero.
    pub fn with_seq_stride(offset: u64, stride: u64) -> Self {
        assert!(stride > 0, "seq stride must be positive");
        Self {
            now: SimTime::ZERO,
            seq: offset,
            stride,
            heap: BinaryHeap::new(),
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `item` to fire at absolute time `at`; returns the dense
    /// submission sequence number used for the FIFO tie-break.
    pub fn schedule(&mut self, at: SimTime, item: E) -> u64 {
        let seq = self.seq;
        self.seq += self.stride;
        self.heap.push(Entry { at, seq, item });
        seq
    }

    /// The timestamp of the next entry, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Pops the earliest entry, advancing the clock to its timestamp and
    /// publishing the new time to the observe bus.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.at >= self.now, "time went backwards");
        self.now = entry.at;
        bus::set_time_us(self.now.as_micros());
        Some((entry.at, entry.item))
    }

    /// Removes the earliest entries while `skip` accepts them, without
    /// moving the clock: what was cancelled before it fell due.
    pub fn drop_while(&mut self, mut skip: impl FnMut(&E) -> bool) {
        while self.heap.peek().is_some_and(|e| skip(&e.item)) {
            self.heap.pop();
        }
    }

    /// Idles the clock forward to `at` (never backward) without firing
    /// anything, publishing the new time to the observe bus.
    ///
    /// # Panics
    ///
    /// Panics if an entry is still scheduled at or before `at`: idling
    /// the clock past a due event would silently reorder it after later
    /// submissions, breaking the total `(SimTime, seq)` order every
    /// replay guarantee in the workspace rests on. Drain due entries
    /// with [`EventQueue::pop`] first.
    pub fn advance_to(&mut self, at: SimTime) {
        if let Some(next) = self.peek_time() {
            assert!(
                next > at,
                "advance_to({at}) would skip an entry still scheduled at {next}"
            );
        }
        if self.now < at {
            self.now = at;
            bus::set_time_us(self.now.as_micros());
        }
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order_with_fifo_ties() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(5), "b");
        q.schedule(SimTime::from_micros(1), "a");
        q.schedule(SimTime::from_micros(5), "c");
        assert_eq!(q.pop(), Some((SimTime::from_micros(1), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_micros(5), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_micros(5), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_advances_the_shared_clock() {
        bus::reset();
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(42), ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_micros(42));
        assert_eq!(bus::now_us(), 42);
    }

    #[test]
    fn advance_to_never_moves_backward() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.advance_to(SimTime::from_micros(10));
        q.advance_to(SimTime::from_micros(3));
        assert_eq!(q.now(), SimTime::from_micros(10));
    }

    #[test]
    #[should_panic(expected = "would skip an entry still scheduled")]
    fn advance_to_panics_when_a_due_entry_remains() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(5), ());
        q.advance_to(SimTime::from_micros(5));
    }

    #[test]
    fn advance_to_is_fine_short_of_the_next_entry() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(5), ());
        q.advance_to(SimTime::from_micros(4));
        assert_eq!(q.now(), SimTime::from_micros(4));
        assert_eq!(q.pop(), Some((SimTime::from_micros(5), ())));
    }

    #[test]
    fn equal_timestamps_fire_in_submission_order() {
        // The FIFO tie-break: a burst of entries at one instant pops in
        // exactly the order it was scheduled, interleaved or not.
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(9);
        for label in ["first", "second", "third", "fourth"] {
            q.schedule(t, label);
        }
        q.schedule(SimTime::from_micros(1), "early");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["early", "first", "second", "third", "fourth"]);
    }

    #[test]
    fn strided_queues_allocate_disjoint_seqs() {
        let mut a = EventQueue::with_seq_stride(0, 2);
        let mut b = EventQueue::with_seq_stride(1, 2);
        let sa: Vec<u64> = (0..3).map(|_| a.schedule(SimTime::ZERO, ())).collect();
        let sb: Vec<u64> = (0..3).map(|_| b.schedule(SimTime::ZERO, ())).collect();
        assert_eq!(sa, vec![0, 2, 4]);
        assert_eq!(sb, vec![1, 3, 5]);
    }
}
