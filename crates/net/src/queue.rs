//! A deterministic discrete-event queue.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::time::Duration;

/// Min-queue of `(time, event)` with FIFO tie-breaking — the scheduling
/// core of the offload simulation (model upload completion, ACK arrival,
/// snapshot arrivals all become events).
///
/// Two stores hold the pending events: a sorted lane and a binary heap.
/// A push whose key is no earlier than the lane's last and earlier than
/// the heap's minimum appends to the lane in O(1) (an event scheduled
/// for the current instant, or past everything in flight, usually is);
/// any other push goes to the heap. Pops take the smaller of the two
/// fronts, so events leave in the order one heap alone would give.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Entries in ascending key order.
    lane: VecDeque<Entry<E>>,
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
        EventQueue::with_capacity(0)
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> EventQueue<E> {
        EventQueue::default()
    }

    /// An empty queue whose heap holds `capacity` events before it
    /// grows (the lane, which stays short, grows on demand).
    pub fn with_capacity(capacity: usize) -> EventQueue<E> {
        EventQueue {
            lane: VecDeque::new(),
            heap: BinaryHeap::with_capacity(capacity),
            seq: 0,
        }
    }

    /// Schedules `event` at virtual time `time` (nanosecond-exact up to
    /// `u64::MAX` ns, ~584 years; later times are scheduled there).
    pub fn push(&mut self, time: Duration, event: E) {
        let nanos = u64::try_from(time.as_nanos()).unwrap_or(u64::MAX);
        let key = u128::from(nanos) << 64 | u128::from(self.seq);
        self.seq += 1;
        let entry = Entry { key, event };
        let in_order = self.lane.back().is_none_or(|last| key >= last.key);
        let ahead = self.heap.peek().is_none_or(|Reverse(min)| key < min.key);
        if in_order && ahead {
            self.lane.push_back(entry);
        } else {
            self.heap.push(Reverse(entry));
        }
    }

    /// Whether the earliest pending event is the lane's front (keys are
    /// unique, so the two fronts never tie).
    fn lane_first(&self) -> bool {
        match (self.lane.front(), self.heap.peek()) {
            (Some(lane), Some(Reverse(heap))) => lane.key < heap.key,
            (lane, _) => lane.is_some(),
        }
    }

    /// Removes and returns the earliest event (insertion order breaks
    /// ties).
    pub fn pop(&mut self) -> Option<(Duration, E)> {
        let entry = if self.lane_first() {
            self.lane.pop_front()
        } else {
            self.heap.pop().map(|Reverse(e)| e)
        };
        entry.map(|e| (e.time(), e.event))
    }

    /// Time of the next event without removing it.
    pub fn peek_time(&self) -> Option<Duration> {
        if self.lane_first() {
            self.lane.front().map(Entry::time)
        } else {
            self.heap.peek().map(|Reverse(e)| e.time())
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.lane.len() + self.heap.len()
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.lane.is_empty() && self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snapedge_rng::Rng;

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

    /// Times a random push draws: mostly at or just past the last
    /// popped time (many exact ties), some before it, some far ahead,
    /// and some at or past the `u64::MAX` ns saturation point.
    fn draw_time(rng: &mut Rng, clock: Duration) -> Duration {
        match rng.gen_range_u64(0, 16) {
            0..=5 => clock,
            6..=8 => clock + Duration::from_micros(rng.gen_range_u64(0, 4)),
            9..=10 => clock.saturating_sub(Duration::from_micros(rng.gen_range_u64(0, 50))),
            11..=13 => clock + Duration::from_micros(rng.gen_range_u64(0, 10_000)),
            14 => Duration::MAX,
            _ => Duration::from_nanos(u64::MAX - rng.gen_range_u64(0, 2)),
        }
    }

    /// Runs `ops` random `push`/`pop`/`peek_time` calls, pushing while
    /// fewer than `depth` events are pending and otherwise as often as
    /// popping, and checks each result, `len` and `is_empty` against the
    /// pending set kept sorted by `(saturated nanos, push number)`.
    fn check_against_sorted(seed: u64, ops: usize, depth: usize) -> usize {
        let mut rng = Rng::seed_from_u64(seed);
        let mut queue = EventQueue::new();
        let mut sorted = std::collections::BTreeSet::new();
        let (mut pushed, mut clock, mut deepest) = (0u64, Duration::ZERO, 0);
        for op in 0..ops {
            let roll = rng.gen_range_u64(0, 5);
            if sorted.len() >= depth && roll == 0 {
                let want = sorted
                    .first()
                    .map(|&(nanos, _)| Duration::from_nanos(nanos));
                assert_eq!(queue.peek_time(), want, "op {op}: peek_time");
            } else if sorted.len() >= depth && roll <= 2 {
                let want = sorted
                    .pop_first()
                    .map(|(nanos, id)| (Duration::from_nanos(nanos), id));
                let got = queue.pop();
                assert_eq!(got, want, "op {op}: pop");
                if let Some((at, _)) = got {
                    // Back off the saturation point, or every later
                    // push would land there.
                    clock = at.min(Duration::from_secs(3_600));
                }
            } else {
                let at = draw_time(&mut rng, clock);
                let nanos = u64::try_from(at.as_nanos()).unwrap_or(u64::MAX);
                queue.push(at, pushed);
                sorted.insert((nanos, pushed));
                pushed += 1;
                deepest = deepest.max(sorted.len());
            }
            assert_eq!(queue.len(), sorted.len(), "op {op}: len");
            assert_eq!(queue.is_empty(), sorted.is_empty(), "op {op}: is_empty");
        }
        while let Some((nanos, id)) = sorted.pop_first() {
            assert_eq!(queue.pop(), Some((Duration::from_nanos(nanos), id)));
        }
        assert!(queue.is_empty() && queue.pop().is_none());
        deepest
    }

    #[test]
    fn random_interleavings_pop_in_sorted_order() {
        for seed in 0..40 {
            check_against_sorted(seed, 2_000, if seed % 2 == 0 { 0 } else { 64 });
        }
    }

    /// The engine's depth: 10 000 pending events through a million calls.
    #[test]
    #[ignore = "a million calls: run in release (ci.sh)"]
    fn deep_random_interleavings_pop_in_sorted_order() {
        let deepest = check_against_sorted(0x5EED_DEE9, 1_000_000, 10_000);
        assert!(deepest >= 10_000, "only {deepest} events pending at once");
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
