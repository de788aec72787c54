//! The control and evaluation computer: merging local traces.
//!
//! After a measurement, each monitor agent ships its recorders' local
//! traces over the data channel (Ethernet/TCP-IP on the real system) to
//! the CEC, which merges them into **one global trace by sorting on the
//! globally valid timestamps**. With the MTG in place this order equals
//! true causal order; with free-running clocks it visibly is not — which
//! is the measurable argument for the global clock.
//!
//! The simulation serves every recorder from one request stream in
//! signal order, so the recorders' accepted records already arrive
//! interleaved in true-time order. [`merge`] puts them in the CEC's
//! order with one stable sort that is linear on that nearly sorted
//! input; the request stream itself is put in signal order by the same
//! sort.

use crate::measurement::TraceRecord;

/// Sorts the recorders' records into the CEC's global order: by local
/// (claimed-global) timestamp, ties broken by channel and then token to
/// keep the merge deterministic. The sort is stable, so records that tie
/// on all three — which share a channel, hence a recorder — keep the
/// order they were stored in.
///
/// Linear when `trace` is nearly sorted, as the recorders' output is
/// under synchronized clocks: only records stamped into the same
/// 100 ns tick move.
///
/// # Examples
///
/// ```
/// use des::time::SimTime;
/// use hybridmon::MonEvent;
/// use zm4::cec::merge;
/// use zm4::TraceRecord;
///
/// let record = |ts_ns, channel, recorder, token| TraceRecord {
///     ts_ns,
///     channel,
///     recorder,
///     event: MonEvent::new(token, 0),
///     true_time: SimTime::from_nanos(ts_ns),
/// };
/// let mut trace = vec![record(2_000, 0, 0, 1), record(1_000, 1, 1, 2)];
/// merge(&mut trace);
/// assert_eq!(trace[0].event.token.value(), 2);
/// assert_eq!(trace[0].recorder, 1);
/// ```
pub fn merge(trace: &mut [TraceRecord]) {
    sort_by_key(trace, |r| (r.ts_ns, r.channel, r.event.token.value()));
}

/// Insertion shifts allowed per element before [`sort_by_key`] hands the
/// slice to the library sort. The nearly sorted queues of the benchmark
/// workloads need under 0.02 an element. The ones that need more hold
/// long sorted runs (one per probe clock drifting apart), which the
/// library sort merges.
const SHIFTS_PER_ELEMENT: usize = 2;

/// Sorts `v` stably by `key`, in linear time when `v` is nearly sorted.
///
/// An insertion pass sorts the slice while its shifts stay within a
/// budget proportional to the length; once spent, the partly sorted
/// slice goes to [`slice::sort_by_key`], so a reversed or shuffled input
/// still sorts in O(n log n). Both halves are stable, so the result is
/// the stable sort of `v` whichever one finishes it. An insertion cut
/// short leaves its element before the larger keys it passed and after
/// every element it did not reach, so no equal keys change order.
pub(crate) fn sort_by_key<T: Copy, K: Ord>(v: &mut [T], mut key: impl FnMut(&T) -> K) {
    let Some(first) = v.first() else {
        return;
    };
    let mut budget = SHIFTS_PER_ELEMENT * v.len();
    // The largest key of the sorted prefix: the key of its last element.
    let mut last = key(first);
    for i in 1..v.len() {
        let item = v[i];
        let k = key(&item);
        if k >= last {
            last = k;
            continue;
        }
        let mut j = i;
        while j > 0 && key(&v[j - 1]) > k {
            if budget == 0 {
                v[j] = item;
                v.sort_by_key(key);
                return;
            }
            budget -= 1;
            v[j] = v[j - 1];
            j -= 1;
        }
        v[j] = item;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use des::time::SimTime;
    use hybridmon::MonEvent;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    fn rec(ts: u64, channel: usize, recorder: usize, token: u16) -> TraceRecord {
        TraceRecord {
            ts_ns: ts,
            channel,
            recorder,
            event: MonEvent::new(token, 0),
            true_time: SimTime::from_nanos(ts),
        }
    }

    #[test]
    fn merge_is_globally_sorted() {
        let mut merged = vec![
            rec(10, 0, 0, 1),
            rec(30, 0, 0, 2),
            rec(20, 1, 1, 3),
            rec(40, 1, 1, 4),
        ];
        merge(&mut merged);
        let ts: Vec<u64> = merged.iter().map(|r| r.ts_ns).collect();
        assert_eq!(ts, vec![10, 20, 30, 40]);
        assert_eq!(merged[1].recorder, 1);
    }

    #[test]
    fn merge_of_empty_is_empty() {
        let mut empty: Vec<TraceRecord> = Vec::new();
        merge(&mut empty);
        assert!(empty.is_empty());
    }

    #[test]
    fn ties_break_deterministically() {
        let mut a = vec![rec(5, 1, 1, 9), rec(5, 0, 0, 8)];
        let mut b = a.clone();
        merge(&mut a);
        merge(&mut b);
        assert_eq!(a, b);
        assert_eq!(a[0].channel, 0);
    }

    /// Sorts `(key, position)` pairs by key with the helper and with the
    /// library's stable sort; the positions expose any unstable tie.
    fn check_against_library(keys: Vec<u8>) -> Result<(), TestCaseError> {
        let tagged: Vec<(u8, usize)> = keys.into_iter().zip(0..).collect();
        let mut ours = tagged.clone();
        sort_by_key(&mut ours, |&(k, _)| k);
        let mut library = tagged;
        library.sort_by_key(|&(k, _)| k);
        prop_assert_eq!(ours, library);
        Ok(())
    }

    #[test]
    fn reversed_and_single_inputs_sort() {
        check_against_library((0..=255).rev().collect()).unwrap();
        check_against_library(vec![7]).unwrap();
        check_against_library(Vec::new()).unwrap();
    }

    proptest! {
        #[test]
        fn equals_the_library_sort_on_random_input(
            keys in proptest::collection::vec(0u8..8, 0..400),
        ) {
            check_against_library(keys)?;
        }

        #[test]
        fn equals_the_library_sort_on_reversed_input(
            keys in proptest::collection::vec(0u8..16, 0..400),
        ) {
            let mut keys = keys;
            keys.sort_unstable_by(|a, b| b.cmp(a));
            check_against_library(keys)?;
        }

        /// Sorted runs of equal keys, then a few elements displaced by a
        /// few places: the queues the monitor sorts look like this.
        #[test]
        fn equals_the_library_sort_on_nearly_sorted_input(
            keys in proptest::collection::vec(0u8..32, 0..400),
            swaps in proptest::collection::vec((0usize..400, 1usize..16), 0..40),
        ) {
            let mut keys = keys;
            keys.sort_unstable();
            for (at, by) in swaps {
                if at + by < keys.len() {
                    keys.swap(at, at + by);
                }
            }
            check_against_library(keys)?;
        }
    }
}
