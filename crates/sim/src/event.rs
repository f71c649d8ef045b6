//! The simulation event queue.
//!
//! A binary min-heap keyed by `(time, seq)`. The monotonically increasing
//! `seq` makes simultaneous events FIFO and the whole simulation
//! deterministic for a given seed (important: all `p` workers are ready at
//! `t = 0`). The heap is allocation-free once warm (`BinaryHeap` reuses its
//! buffer). A flat min-scan queue was benchmarked against it and rejected:
//! it loses beyond `p ≈ 50` (EXPERIMENTS.md keeps the record).

use hetsched_platform::ProcId;
use hetsched_util::OrderedF64;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A min-queue of timed events carrying a payload `T`.
///
/// The infinite-network engine has a single event kind — "worker `k`
/// finished its batch at time `t` and requests work" — so its payload is
/// the [`ProcId`] alone; the networked engine pairs the worker with an
/// event kind. `seq` is unique, so the payload never takes part in the
/// ordering.
#[derive(Debug)]
pub struct EventQueue<T = ProcId> {
    heap: BinaryHeap<Reverse<(OrderedF64, u64, T)>>,
    seq: u64,
}

impl<T: Ord> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }
}

impl<T: Ord> EventQueue<T> {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at time `t`.
    pub fn push(&mut self, t: f64, event: T) {
        self.heap
            .push(Reverse((OrderedF64::new(t), self.seq, event)));
        self.seq += 1;
    }

    /// Pops the earliest event, if any (FIFO among simultaneous events).
    pub fn pop(&mut self) -> Option<(f64, T)> {
        self.heap
            .pop()
            .map(|Reverse((t, _, event))| (t.get(), event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(2.0, ProcId(0));
        q.push(1.0, ProcId(1));
        q.push(3.0, ProcId(2));
        assert_eq!(q.pop(), Some((1.0, ProcId(1))));
        assert_eq!(q.pop(), Some((2.0, ProcId(0))));
        assert_eq!(q.pop(), Some((3.0, ProcId(2))));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..5u32 {
            q.push(0.0, ProcId(i));
        }
        for i in 0..5u32 {
            assert_eq!(q.pop(), Some((0.0, ProcId(i))));
        }
    }

    #[test]
    fn len_tracks_push_pop() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(1.0, ProcId(0));
        q.push(1.5, ProcId(1));
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn interleaved_pushes_respect_order() {
        let mut q = EventQueue::new();
        q.push(5.0, ProcId(0));
        assert_eq!(q.pop(), Some((5.0, ProcId(0))));
        q.push(4.0, ProcId(1));
        q.push(6.0, ProcId(2));
        assert_eq!(q.pop(), Some((4.0, ProcId(1))));
        q.push(5.5, ProcId(3));
        assert_eq!(q.pop(), Some((5.5, ProcId(3))));
        assert_eq!(q.pop(), Some((6.0, ProcId(2))));
    }
}
