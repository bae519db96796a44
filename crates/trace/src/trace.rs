//! The finished event list and its aggregation helpers.

use crate::event::{Event, EventKind, Lane};
use crate::summary::Summary;
use std::collections::BTreeMap;
use std::time::Duration;

/// An immutable, time-sorted list of recorded [`Event`]s.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    events: Vec<Event>,
}

impl Trace {
    /// Builds a trace from raw events, sorting by `(start, depth, end)` so
    /// renders and diffs are stable regardless of close order.
    pub fn from_events(mut events: Vec<Event>) -> Trace {
        events.sort_by(|a, b| {
            a.start
                .cmp(&b.start)
                .then(a.depth.cmp(&b.depth))
                .then(a.end.cmp(&b.end))
        });
        Trace { events }
    }

    /// The events, sorted.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when there are no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Sum of durations of every event with this exact name.
    pub fn duration_of(&self, name: &str) -> Duration {
        self.events
            .iter()
            .filter(|e| e.name == name)
            .map(Event::duration)
            .sum()
    }

    /// Sum of durations of every event of this kind (optionally restricted
    /// to a lane).
    pub fn duration_of_kind(&self, kind: EventKind, lane: Option<Lane>) -> Duration {
        self.events
            .iter()
            .filter(|e| e.kind == kind && lane.is_none_or(|l| e.lane == l))
            .map(Event::duration)
            .sum()
    }

    /// Sum of payload bytes of every event with this exact name.
    pub fn bytes_of(&self, name: &str) -> u64 {
        self.events
            .iter()
            .filter(|e| e.name == name)
            .filter_map(|e| e.bytes)
            .sum()
    }

    /// A trace containing only events overlapping `[from, to)`.
    pub fn window(&self, from: Duration, to: Duration) -> Trace {
        Trace::from_events(
            self.events
                .iter()
                .filter(|e| {
                    (e.end > from && e.start < to)
                        || (e.start == e.end && e.start >= from && e.start < to)
                })
                .cloned()
                .collect(),
        )
    }

    /// Only the events at nesting depth 0 — the canonical phase level.
    pub fn top_level(&self) -> Trace {
        Trace {
            events: self
                .events
                .iter()
                .filter(|e| e.depth == 0)
                .cloned()
                .collect(),
        }
    }

    /// Per-name [`Summary`] statistics (count, total, mean, percentiles)
    /// across every event sharing a name — aggregate metrics over repeated
    /// inferences in one call.
    pub fn summaries(&self) -> BTreeMap<String, Summary> {
        let mut grouped: BTreeMap<String, Vec<Duration>> = BTreeMap::new();
        for e in &self.events {
            grouped
                .entry(e.name.clone())
                .or_default()
                .push(e.duration());
        }
        grouped
            .into_iter()
            .map(|(name, durations)| (name, Summary::of(&durations)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn ev(name: &str, start: u64, end: u64, depth: u32) -> Event {
        Event {
            name: name.into(),
            lane: Lane::Client,
            kind: EventKind::Exec,
            start: ms(start),
            end: ms(end),
            bytes: Some(end - start),
            depth,
        }
    }

    #[test]
    fn events_are_sorted_by_start_then_depth() {
        let t = Trace::from_events(vec![ev("b", 5, 6, 1), ev("a", 5, 9, 0), ev("z", 0, 1, 0)]);
        let names: Vec<&str> = t.events().iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["z", "a", "b"]);
    }

    #[test]
    fn duration_and_bytes_sum_over_same_name() {
        let t = Trace::from_events(vec![ev("x", 0, 2, 0), ev("x", 4, 7, 0), ev("y", 2, 4, 0)]);
        assert_eq!(t.duration_of("x"), ms(5));
        assert_eq!(t.bytes_of("x"), 5);
        assert_eq!(t.duration_of("missing"), Duration::ZERO);
    }

    #[test]
    fn kind_and_lane_filters() {
        let mut a = ev("a", 0, 3, 0);
        a.kind = EventKind::Transfer;
        a.lane = Lane::Network;
        let b = ev("b", 3, 5, 0);
        let t = Trace::from_events(vec![a, b]);
        assert_eq!(t.duration_of_kind(EventKind::Transfer, None), ms(3));
        assert_eq!(
            t.duration_of_kind(EventKind::Transfer, Some(Lane::Client)),
            Duration::ZERO
        );
        assert_eq!(
            t.duration_of_kind(EventKind::Exec, Some(Lane::Client)),
            ms(2)
        );
    }

    #[test]
    fn top_level_drops_nested() {
        let t = Trace::from_events(vec![ev("a", 0, 2, 0), ev("sub", 0, 1, 1)]);
        assert_eq!(t.top_level().len(), 1);
    }

    #[test]
    fn summaries_group_by_name() {
        let t = Trace::from_events(vec![ev("x", 0, 2, 0), ev("x", 2, 6, 0)]);
        let s = &t.summaries()["x"];
        assert_eq!(s.count, 2);
        assert_eq!(s.total, ms(6));
        assert_eq!(s.max, ms(4));
    }
}
