//! Timespan planning (§4.4 point 1, Fig. 4).
//!
//! The history is divided into non-overlapping timespans "keeping the
//! number of changes to the graph consistent across different time
//! spans"; partitioning is recomputed at timespan boundaries. The
//! planner splits an event trace into spans of roughly `events_per_span`
//! events, snapping boundaries to timestamp edges so that all events
//! sharing a timestamp land in the same span.

use hgs_delta::{Event, Time, TimeRange};

/// One planned timespan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timespan {
    /// Timespan id (`tsid`), consecutive from 0.
    pub tsid: u32,
    /// Half-open time range covered.
    pub range: TimeRange,
    /// Index range `[ev_start, ev_end)` into the source event slice.
    pub ev_start: usize,
    /// End event index (exclusive).
    pub ev_end: usize,
}

impl Timespan {
    /// Number of events in the span.
    pub fn len(&self) -> usize {
        self.ev_end - self.ev_start
    }

    /// True when the span holds no events.
    pub fn is_empty(&self) -> bool {
        self.ev_start == self.ev_end
    }
}

/// Cut `events` (chronologically sorted) into consecutive slices of
/// `n` events, the last one shorter, each with the half-open time
/// range it covers: from `start` (the previous range's end after the
/// first) to the next slice's first timestamp, the last one to
/// `Time::MAX`. A cut that would split a group of events sharing one
/// timestamp snaps forward past the group. The one cut rule of
/// timespans and of a span's eventlist chunks; no event, no slice.
pub fn cut_events(
    events: &[Event],
    n: usize,
    mut start: Time,
) -> impl Iterator<Item = (&[Event], TimeRange)> {
    assert!(n > 0);
    debug_assert!(events.windows(2).all(|w| w[0].time <= w[1].time));
    let mut rest = events;
    std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        let cut = match rest.get(n - 1) {
            Some(last) => n + rest[n..].iter().take_while(|e| e.time == last.time).count(),
            None => rest.len(),
        };
        let (slice, tail) = rest.split_at(cut);
        rest = tail;
        let end = rest.first().map_or(Time::MAX, |e| e.time);
        let range = TimeRange::new(start, end);
        start = end;
        Some((slice, range))
    })
}

/// Split `events` (chronologically sorted) into spans of roughly
/// `events_per_span` events by [`cut_events`]. The final span's range
/// extends to `Time::MAX` so that queries beyond the last event
/// resolve; an empty history is one empty span over all of time.
pub fn plan_timespans(events: &[Event], events_per_span: usize) -> Vec<Timespan> {
    let mut ev_start = 0;
    let mut spans: Vec<Timespan> = cut_events(events, events_per_span, 0)
        .zip(0..)
        .map(|((slice, range), tsid)| {
            ev_start += slice.len();
            Timespan {
                tsid,
                range,
                ev_start: ev_start - slice.len(),
                ev_end: ev_start,
            }
        })
        .collect();
    if spans.is_empty() {
        spans.push(Timespan {
            tsid: 0,
            range: TimeRange::all(),
            ev_start: 0,
            ev_end: 0,
        });
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgs_delta::EventKind;

    fn ev(t: Time) -> Event {
        Event::new(t, EventKind::AddNode { id: t })
    }

    #[test]
    fn spans_tile_time_and_events() {
        let events: Vec<Event> = (0..100).map(ev).collect();
        let spans = plan_timespans(&events, 30);
        assert_eq!(spans.first().unwrap().range.start, 0);
        assert_eq!(spans.last().unwrap().range.end, Time::MAX);
        for w in spans.windows(2) {
            assert_eq!(w[0].range.end, w[1].range.start, "contiguous");
            assert_eq!(w[0].ev_end, w[1].ev_start);
        }
        let total: usize = spans.iter().map(|s| s.len()).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn roughly_equal_sizes() {
        let events: Vec<Event> = (0..1000).map(ev).collect();
        let spans = plan_timespans(&events, 100);
        assert_eq!(spans.len(), 10);
        assert!(spans.iter().all(|s| s.len() == 100));
    }

    #[test]
    fn equal_timestamps_stay_together() {
        // 10 events all at t=5, then 10 at t=6.
        let mut events: Vec<Event> = (0..10).map(|_| ev(5)).collect();
        events.extend((0..10).map(|_| ev(6)));
        let spans = plan_timespans(&events, 5);
        for s in &spans {
            let times: Vec<Time> = events[s.ev_start..s.ev_end]
                .iter()
                .map(|e| e.time)
                .collect();
            // span boundary never splits a timestamp group
            if s.ev_end < events.len() {
                assert_ne!(times.last(), Some(&events[s.ev_end].time));
            }
        }
    }

    #[test]
    fn chunking_respects_l_and_timestamps() {
        let events: Vec<Event> = (0..10)
            .map(|i| Event::new(i / 2, EventKind::AddNode { id: i }))
            .collect();
        // n = 3 but timestamps come in pairs: cuts snap to even indices.
        let cuts: Vec<(&[Event], TimeRange)> = cut_events(&events, 3, 0).collect();
        let lens: Vec<usize> = cuts.iter().map(|(s, _)| s.len()).collect();
        assert_eq!(lens, [4, 4, 2]);
        let ranges: Vec<TimeRange> = cuts.iter().map(|&(_, r)| r).collect();
        assert_eq!(
            ranges,
            [
                TimeRange::new(0, 2),
                TimeRange::new(2, 4),
                TimeRange::new(4, Time::MAX)
            ]
        );
    }

    #[test]
    fn empty_history_single_span() {
        let spans = plan_timespans(&[], 10);
        assert_eq!(spans.len(), 1);
        assert!(spans[0].is_empty());
        assert_eq!(spans[0].range, TimeRange::new(0, Time::MAX));
    }
}
