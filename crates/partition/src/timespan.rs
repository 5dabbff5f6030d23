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

/// Split `events` (chronologically sorted) into spans of roughly
/// `events_per_span` events. The final span's range extends to
/// `Time::MAX` so that queries beyond the last event resolve.
pub fn plan_timespans(events: &[Event], events_per_span: usize) -> Vec<Timespan> {
    assert!(events_per_span > 0);
    if events.is_empty() {
        return vec![Timespan {
            tsid: 0,
            range: TimeRange::new(0, Time::MAX),
            ev_start: 0,
            ev_end: 0,
        }];
    }
    debug_assert!(events.windows(2).all(|w| w[0].time <= w[1].time));

    let mut spans = Vec::new();
    let mut start_idx = 0usize;
    let mut range_start: Time = 0;
    while start_idx < events.len() {
        let want_end = (start_idx + events_per_span).min(events.len());
        let end_idx = if want_end >= events.len() {
            events.len()
        } else {
            // Snap forward only when the cut would split a group of
            // events sharing one timestamp.
            let boundary_t = events[want_end].time;
            let mut e = want_end;
            if events[want_end - 1].time == boundary_t {
                while e < events.len() && events[e].time == boundary_t {
                    e += 1;
                }
            }
            e
        };
        let range_end = if end_idx >= events.len() {
            Time::MAX
        } else {
            events[end_idx].time
        };
        spans.push(Timespan {
            tsid: spans.len() as u32,
            range: TimeRange::new(range_start, range_end),
            ev_start: start_idx,
            ev_end: end_idx,
        });
        range_start = range_end;
        start_idx = end_idx;
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
    fn empty_history_single_span() {
        let spans = plan_timespans(&[], 10);
        assert_eq!(spans.len(), 1);
        assert!(spans[0].is_empty());
        assert_eq!(spans[0].range, TimeRange::new(0, Time::MAX));
    }
}
