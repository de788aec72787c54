//! The control and evaluation computer: merging local traces.
//!
//! After a measurement, each monitor agent ships its recorders' local
//! traces over the data channel (Ethernet/TCP-IP on the real system) to
//! the CEC, which merges them into **one global trace by sorting on the
//! globally valid timestamps**. With the MTG in place this order equals
//! true causal order; with free-running clocks it visibly is not — which
//! is the measurable argument for the global clock.

use crate::measurement::TraceRecord;
use crate::recorder::StoredRecord;

/// Merges per-recorder local traces into the global trace, ordered by
/// local (claimed-global) timestamp. Ties are broken by channel to keep
/// the merge deterministic.
///
/// Takes the local traces by value and frees each one as soon as its
/// records are in the global trace, so the local traces are released
/// during the merge instead of after it.
///
/// # Examples
///
/// ```
/// use des::time::SimTime;
/// use hybridmon::MonEvent;
/// use zm4::{merge_traces, StoredRecord};
///
/// let rec0 = vec![StoredRecord {
///     local_ts: 2_000,
///     channel: 0,
///     event: MonEvent::new(1, 0),
///     true_time: SimTime::from_nanos(2_000),
/// }];
/// let rec1 = vec![StoredRecord {
///     local_ts: 1_000,
///     channel: 1,
///     event: MonEvent::new(2, 0),
///     true_time: SimTime::from_nanos(1_000),
/// }];
/// let merged = merge_traces(vec![rec0, rec1]);
/// assert_eq!(merged[0].event.token.value(), 2);
/// ```
pub fn merge_traces(local_traces: Vec<Vec<StoredRecord>>) -> Vec<TraceRecord> {
    let total: usize = local_traces.iter().map(Vec::len).sum();
    let mut all: Vec<TraceRecord> = Vec::with_capacity(total);
    for (recorder, trace) in local_traces.into_iter().enumerate() {
        all.extend(trace.into_iter().map(|r| TraceRecord {
            ts_ns: r.local_ts,
            channel: r.channel,
            recorder,
            event: r.event,
            true_time: r.true_time,
        }));
    }
    // Stable: records tying on (ts, channel, token) keep recorder order.
    all.sort_by_key(|r| (r.ts_ns, r.channel, r.event.token.value()));
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use des::time::SimTime;
    use hybridmon::MonEvent;

    fn rec(ts: u64, channel: usize, token: u16) -> StoredRecord {
        StoredRecord {
            local_ts: ts,
            channel,
            event: MonEvent::new(token, 0),
            true_time: SimTime::from_nanos(ts),
        }
    }

    #[test]
    fn merge_is_globally_sorted() {
        let merged = merge_traces(vec![
            vec![rec(10, 0, 1), rec(30, 0, 2)],
            vec![rec(20, 1, 3), rec(40, 1, 4)],
        ]);
        let ts: Vec<u64> = merged.iter().map(|r| r.ts_ns).collect();
        assert_eq!(ts, vec![10, 20, 30, 40]);
        assert_eq!(merged[1].recorder, 1);
    }

    #[test]
    fn merge_of_empty_is_empty() {
        assert!(merge_traces(vec![]).is_empty());
        assert!(merge_traces(vec![vec![], vec![]]).is_empty());
    }

    #[test]
    fn ties_break_deterministically() {
        let a = merge_traces(vec![vec![rec(5, 1, 9)], vec![rec(5, 0, 8)]]);
        let b = merge_traces(vec![vec![rec(5, 1, 9)], vec![rec(5, 0, 8)]]);
        assert_eq!(a, b);
        assert_eq!(a[0].channel, 0);
    }
}
