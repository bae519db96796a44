//! A deterministic discrete-event queue.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Duration;

/// Min-heap of `(time, event)` with FIFO tie-breaking — the scheduling core
/// of the offload simulation (model upload completion, ACK arrival,
/// snapshot arrivals all become events).
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
}

/// One scheduled event under its ordering key: `nanos << 64 | seq`, so
/// the heap compares one word and equal times pop in push order. Virtual
/// times past `u64::MAX` ns (~584 years) saturate to it.
#[derive(Debug)]
struct Entry<E> {
    key: u128,
    event: E,
}

impl<E> Entry<E> {
    fn time(&self) -> Duration {
        Duration::from_nanos((self.key >> 64) as u64)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
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
        self.key.cmp(&other.key)
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> EventQueue<E> {
        EventQueue::default()
    }

    /// Schedules `event` at virtual time `time` (nanosecond-exact up to
    /// `u64::MAX` ns, ~584 years; later times are scheduled there).
    pub fn push(&mut self, time: Duration, event: E) {
        let nanos = u64::try_from(time.as_nanos()).unwrap_or(u64::MAX);
        let key = u128::from(nanos) << 64 | u128::from(self.seq);
        self.seq += 1;
        self.heap.push(Reverse(Entry { key, event }));
    }

    /// Removes and returns the earliest event (insertion order breaks
    /// ties).
    pub fn pop(&mut self) -> Option<(Duration, E)> {
        self.heap.pop().map(|Reverse(e)| (e.time(), e.event))
    }

    /// Time of the next event without removing it.
    pub fn peek_time(&self) -> Option<Duration> {
        self.heap.peek().map(|Reverse(e)| e.time())
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are pending.
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
        q.push(Duration::from_secs(3), "c");
        q.push(Duration::from_secs(1), "a");
        q.push(Duration::from_secs(2), "b");
        assert_eq!(q.pop(), Some((Duration::from_secs(1), "a")));
        assert_eq!(q.pop(), Some((Duration::from_secs(2), "b")));
        assert_eq!(q.pop(), Some((Duration::from_secs(3), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = Duration::from_secs(1);
        q.push(t, "first");
        q.push(t, "second");
        q.push(t, "third");
        assert_eq!(q.pop().unwrap().1, "first");
        assert_eq!(q.pop().unwrap().1, "second");
        assert_eq!(q.pop().unwrap().1, "third");
    }

    #[test]
    fn nanosecond_times_round_trip_and_far_futures_saturate() {
        let mut q = EventQueue::new();
        let far = Duration::from_nanos(u64::MAX);
        q.push(Duration::MAX, "beyond");
        q.push(far, "edge");
        q.push(Duration::new(7, 123_456_789), "exact");
        assert_eq!(q.pop(), Some((Duration::new(7, 123_456_789), "exact")));
        // Both sit at the saturation point, so push order decides.
        assert_eq!(q.pop(), Some((far, "beyond")));
        assert_eq!(q.pop(), Some((far, "edge")));
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(Duration::from_secs(5), ());
        assert_eq!(q.peek_time(), Some(Duration::from_secs(5)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }
}
