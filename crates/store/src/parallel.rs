//! The parallel fetch-client fan-out.
//!
//! The paper's query processors issue store requests from `c` parallel
//! clients. [`parallel_steal`] provides that pattern for any workload:
//! up to `c` OS threads pull the next pending item from a shared work
//! queue as soon as they finish their current one, so a skewed item
//! distribution (hot partitions, fat leaves) never gates the whole
//! batch on the unluckiest thread. Output order stays deterministic —
//! every result carries its input index, and the results are sorted
//! once every worker has joined. On a multi-core host this yields real
//! speedups for deserialization-heavy fetches; for `c` beyond the core
//! count the cost model (see [`CostModel`](crate::CostModel)) supplies
//! the cluster-shaped estimate.

use parking_lot::Mutex;

/// Number of worker threads [`parallel_steal`] actually uses for `c`
/// requested clients over `items` work items: the fan-out is clamped
/// to the item count, so a degenerate batch (e.g. the one per-leaf
/// replay of a single-point snapshot) never spawns idle threads.
#[inline]
fn steal_worker_count(c: usize, items: usize) -> usize {
    c.max(1).min(items.max(1))
}

/// Run `f` over every item on up to `c` worker threads pulling from
/// one locked iterator (work-stealing by next-item claim): a worker that
/// finishes a cheap item immediately claims the next pending one, so
/// one slow item delays only its own thread, not a statically-assigned
/// chunk of followers. Results land in input order.
///
/// The fan-out is clamped to the item count; one effective worker (or
/// `c == 1`, or a single item) runs inline with no thread spawn.
pub fn parallel_steal<T, R, F>(items: Vec<T>, c: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = steal_worker_count(c, items.len());
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    let done = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                let mut mine = Vec::new();
                loop {
                    // The guard drops at the end of the `let`, so `f`
                    // runs with the queue unlocked.
                    let Some((i, item)) = queue.lock().next() else {
                        break;
                    };
                    mine.push((i, f(item)));
                }
                done.lock().extend(mine);
            });
        }
    });
    let mut done = done.into_inner();
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn steal_preserves_order_and_runs_everything() {
        let items: Vec<u64> = (0..500).collect();
        let out = parallel_steal(items.clone(), 4, |x| x * 3);
        let expect: Vec<u64> = items.iter().map(|x| x * 3).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn steal_worker_count_clamps_to_items() {
        assert_eq!(steal_worker_count(8, 1), 1);
        assert_eq!(steal_worker_count(8, 3), 3);
        assert_eq!(steal_worker_count(2, 100), 2);
        assert_eq!(steal_worker_count(0, 5), 1, "c=0 treated as 1");
        assert_eq!(steal_worker_count(4, 0), 1, "empty batch still valid");
    }

    /// A degenerate batch (one item) must run inline on the caller's
    /// thread — `clients` threads for one item would be pure overhead.
    #[test]
    fn steal_single_item_runs_inline() {
        let caller = std::thread::current().id();
        let out = parallel_steal(vec![7u64], 16, |x| (x + 1, std::thread::current().id()));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 8);
        assert_eq!(out[0].1, caller, "single work item must not spawn");
        let empty: Vec<u64> = parallel_steal(Vec::<u64>::new(), 8, |x| x);
        assert!(empty.is_empty());
    }

    /// Dynamic claim: a slow head item must not serialize the rest
    /// behind it the way a contiguous chunk split would.
    #[test]
    fn steal_drains_queue_past_a_slow_item() {
        let done = AtomicUsize::new(0);
        let out = parallel_steal((0..16usize).collect(), 4, |i| {
            if i == 0 {
                // Head item is slow; other workers keep claiming.
                while done.load(Ordering::SeqCst) < 12 {
                    std::thread::yield_now();
                }
            }
            done.fetch_add(1, Ordering::SeqCst);
            i * i
        });
        assert_eq!(out, (0..16).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(done.load(Ordering::SeqCst), 16);
    }
}
