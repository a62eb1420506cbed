//! A scoped worker-pool executor with deterministic, submission-ordered
//! result merging.
//!
//! The workspace is offline-only (no rayon/crossbeam), so the pool is
//! hand-rolled on [`std::thread::scope`]: workers claim item indices from a
//! shared atomic counter, results travel back over an [`std::sync::mpsc`]
//! channel tagged with their index, and the caller writes each result into
//! its submission slot. Because every output lands in the slot of its input
//! — and every *reduction* the callers perform afterwards walks those slots
//! in submission order — the merged outcome is **bit-for-bit identical to
//! the sequential run regardless of worker count or OS scheduling**. The
//! only thing parallelism is allowed to change is wall-clock time.
//!
//! Callers pass the worker count explicitly; the run layer takes it from
//! [`RunConfig`](crate::RunConfig).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Default minimum batch size for which spawning workers pays off.
///
/// Below this many items the per-run thread spawn/join and channel traffic
/// dominate the microsecond-scale per-item simulation: the throughput
/// bench showed a 2-worker pool *slower* than sequential at 600 instances.
/// Sequential and parallel runs produce bit-identical results (the pool's
/// ordered-merge contract), so the fallback only changes wall-clock time.
pub const DEFAULT_MIN_BATCH: usize = 1024;

/// The worker count actually worth using for a batch of `total_items`
/// whose per-item cost is `unit_cost ×` the plain-simulation baseline the
/// `min_batch` threshold was calibrated on: `workers`, degraded to 1 when
/// the weighted batch is smaller than `min_batch`.
///
/// The fallback exists because thread spawn/join overhead must be amortized
/// over enough *work*, not enough *items*: a batch of heavier items (e.g.
/// faulty instances, which re-plan around injected overruns and stalls and
/// cost roughly twice a plain instance) pays for the pool at proportionally
/// fewer items. `total_items × unit_cost` is compared against the
/// threshold, so a cost of 2.0 halves the break-even batch size. Costs
/// below 1.0 raise it symmetrically. The choice only affects wall-clock
/// time — sequential and pooled runs are bit-identical either way.
pub fn effective_workers_with(
    total_items: usize,
    workers: usize,
    min_batch: usize,
    unit_cost: f64,
) -> usize {
    let weighted = total_items as f64 * unit_cost.max(0.0);
    if weighted < min_batch as f64 {
        1
    } else {
        workers
    }
}

/// Maps `f` over `items` on up to `workers` threads, returning the results
/// in submission order (`out[i] = f(i, &items[i])`).
///
/// With `workers <= 1` (or fewer than two items) no thread is spawned and
/// the closure runs inline — the parallel path produces the exact same
/// vector, it only interleaves the calls.
pub fn map_ordered<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    map_ordered_with(items, workers, || (), |(), i, item| f(i, item))
}

/// Like [`map_ordered`], but hands every worker a private mutable state
/// created by `init` (scratch buffers, workspaces) that lives for the
/// worker's whole drain of the queue.
///
/// Determinism contract: `f`'s *result* must not depend on the state's
/// history — the state is an allocation cache, not an accumulator. Under
/// that contract the output vector is identical for every worker count.
pub fn map_ordered_with<S, T, R, I, F>(items: &[T], workers: usize, init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let workers = workers.max(1).min(items.len());
    if workers <= 1 {
        let mut state = init();
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(&mut state, i, item))
            .collect();
    }

    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let init = &init;
            let f = &f;
            scope.spawn(move || {
                let mut state = init();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let r = f(&mut state, i, &items[i]);
                    if tx.send((i, r)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        for (i, r) in rx {
            debug_assert!(slots[i].is_none(), "item {i} produced twice");
            slots[i] = Some(r);
        }
    });

    slots
        .into_iter()
        .map(|s| s.expect("scope joined: every claimed item sent a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_submission_order() {
        let items: Vec<usize> = (0..257).collect();
        for workers in [1, 2, 3, 8] {
            let out = map_ordered(&items, workers, |i, &x| {
                assert_eq!(i, x);
                x * x
            });
            assert_eq!(out.len(), items.len());
            for (i, &r) in out.iter().enumerate() {
                assert_eq!(r, i * i, "workers={workers}");
            }
        }
    }

    #[test]
    fn empty_and_single_item_inputs() {
        let none: Vec<u32> = Vec::new();
        assert!(map_ordered(&none, 8, |_, &x| x).is_empty());
        assert_eq!(map_ordered(&[7u32], 8, |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn float_reduction_is_bitwise_stable_across_worker_counts() {
        // The acid test for the ordered-merge argument: a float fold over
        // the merged vector must not depend on the worker count.
        let items: Vec<f64> = (0..1000).map(|i| (i as f64).sin() * 1e-3).collect();
        let reduce = |workers: usize| -> u64 {
            map_ordered(&items, workers, |_, &x| x * 1.000001 + 0.5)
                .iter()
                .fold(0.0_f64, |acc, &x| acc + x)
                .to_bits()
        };
        let seq = reduce(1);
        for workers in [2, 4, 16] {
            assert_eq!(seq, reduce(workers));
        }
    }

    #[test]
    fn per_worker_state_is_reused_not_observable() {
        // State is an allocation cache; results must ignore its history.
        let items: Vec<usize> = (0..64).collect();
        let out = map_ordered_with(&items, 4, Vec::<usize>::new, |scratch, i, &x| {
            scratch.clear();
            scratch.extend(0..=x);
            i + scratch.len() - 1
        });
        for (i, &r) in out.iter().enumerate() {
            assert_eq!(r, 2 * i);
        }
    }

    #[test]
    fn weighted_cost_scales_the_break_even_batch() {
        let threshold = DEFAULT_MIN_BATCH;
        let workers = |items: usize, cost: f64| effective_workers_with(items, 8, threshold, cost);
        // Unit cost degrades exactly below the threshold.
        assert_eq!(workers(threshold - 1, 1.0), 1);
        assert_eq!(workers(threshold, 1.0), 8);
        // 2x-heavy items break even at half the items…
        assert_eq!(workers(threshold / 2, 2.0), 8);
        assert_eq!(workers(threshold / 2 - 1, 2.0), 1);
        // …and half-weight items need twice as many.
        assert_eq!(workers(threshold, 0.5), 1);
        assert_eq!(workers(2 * threshold, 0.5), 8);
        // Degenerate costs never panic and degrade conservatively.
        assert_eq!(workers(usize::MAX, 0.0), 1);
        // A zero threshold disables the fallback.
        assert_eq!(effective_workers_with(0, 4, 0, 1.0), 4);
    }
}
