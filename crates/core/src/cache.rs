//! The plan cache's key and a small bounded LRU map, hand-rolled over
//! `HashMap`.
//!
//! No external cache crate is used. Recency is a monotonic stamp stored
//! next to each value: `get`/`insert` bump the clock in O(1), and only an
//! eviction (at most one per insert, and only once the map is full) scans
//! for the minimum stamp. The earlier `VecDeque` recency list scanned the
//! whole deque on *every hit* — quadratic in capacity for hit-heavy
//! workloads, which the serving engine's striped cache is once its
//! capacity reaches the hundreds.
//!
//! The plan cache and the warm-start
//! [`SolverWorkspace`](crate::SolverWorkspace) are complementary: the
//! cache replays *exact* revisits of a probability table without any
//! solver work, while the workspace makes the solves the cache cannot
//! avoid structurally incremental. Neither changes a single adopted plan.

use crate::context::SchedContext;
use ctg_model::BranchProbs;
use std::collections::HashMap;
use std::hash::Hash;

/// Cache key of one solver invocation: the exact bits of every branch
/// probability, plus the guard-banded deadline the solve ran against.
///
/// Both plan caches — the [`AdaptiveScheduler`](crate::AdaptiveScheduler)
/// schedule cache and the serving engine's cross-stream cache — store
/// plans under this key alone. Equal keys mean bit-equal solver inputs,
/// and the solver is deterministic, so a cached plan is always the plan
/// the solver would have produced.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ScheduleKey {
    /// Bits of every alternative's probability, in branch-node order.
    probs: Vec<u64>,
    /// Bits of the deadline-guard factor the solve honours.
    guard: u64,
    /// Bits of the context's (unguarded) deadline — a cheap fingerprint
    /// against a consumer being driven with a re-scaled context.
    deadline: u64,
}

impl ScheduleKey {
    /// Builds the key for a solve of `probs` on `ctx` under `guard`.
    ///
    /// # Panics
    ///
    /// Panics if `probs` lacks a distribution for one of the context's
    /// branch nodes (callers hold validated tables).
    pub fn new(ctx: &SchedContext, probs: &BranchProbs, guard: f64) -> Self {
        let ctg = ctx.ctg();
        let probs = ctg
            .branch_nodes()
            .iter()
            .flat_map(|&b| {
                probs
                    .distribution(b)
                    .expect("validated table has every branch")
                    .iter()
                    .map(|p| p.to_bits())
            })
            .collect();
        ScheduleKey {
            probs,
            guard: guard.to_bits(),
            deadline: ctg.deadline().to_bits(),
        }
    }
}

/// A bounded map evicting the least-recently-used entry on overflow.
///
/// `get` and `insert` both count as a use. A capacity of 0 is legal and
/// degenerates to a map that never stores anything (every lookup misses),
/// which lets callers thread "caching disabled" through the same code path.
#[derive(Debug, Clone)]
pub struct LruCache<K, V> {
    /// Value plus the clock stamp of its last use (higher = more recent).
    map: HashMap<K, (V, u64)>,
    /// Monotonic use counter; stamps are unique, so the eviction victim
    /// (minimum stamp) is unambiguous regardless of map iteration order.
    clock: u64,
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates an empty cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        LruCache {
            map: HashMap::with_capacity(capacity),
            clock: 0,
            capacity,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of stored entries (≤ capacity).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks `key` up, marking it most-recently-used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.clock += 1;
        let clock = self.clock;
        self.map.get_mut(key).map(|slot| {
            slot.1 = clock;
            &slot.0
        })
    }

    /// Looks `key` up without affecting recency.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|slot| &slot.0)
    }

    /// Inserts (or replaces) an entry as most-recently-used, evicting the
    /// least-recently-used one if the cache is full. Returns the previous
    /// value under `key`, if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if self.capacity == 0 {
            return None;
        }
        self.clock += 1;
        if let Some(slot) = self.map.get_mut(&key) {
            let old = std::mem::replace(&mut slot.0, value);
            slot.1 = self.clock;
            return Some(old);
        }
        if self.map.len() == self.capacity {
            let lru = self
                .map
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| k.clone())
                .expect("a full cache has a least-recently-used entry");
            self.map.remove(&lru);
        }
        self.map.insert(key, (value, self.clock));
        None
    }

    /// Drops every entry, keeping the configured capacity. Used when the
    /// cached solutions' premises change wholesale (e.g. a manager
    /// switching its solve path).
    pub fn clear(&mut self) {
        self.map.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used_first() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        // Touch "a": "b" becomes the LRU entry.
        assert_eq!(c.get(&"a"), Some(&1));
        c.insert("c", 3);
        assert_eq!(c.peek(&"b"), None, "b was LRU and must be evicted");
        assert_eq!(c.peek(&"a"), Some(&1));
        assert_eq!(c.peek(&"c"), Some(&3));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn insertion_order_eviction_without_touches() {
        let mut c = LruCache::new(3);
        for (i, k) in ["a", "b", "c", "d", "e"].iter().enumerate() {
            c.insert(*k, i);
        }
        assert_eq!(c.len(), 3);
        assert!(c.peek(&"a").is_none() && c.peek(&"b").is_none());
        assert!(c.peek(&"c").is_some() && c.peek(&"d").is_some() && c.peek(&"e").is_some());
    }

    #[test]
    fn replacing_a_key_refreshes_it() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        c.insert("a", 10); // refresh: "b" is now LRU
        c.insert("c", 3);
        assert_eq!(c.peek(&"a"), Some(&10));
        assert_eq!(c.peek(&"b"), None);
    }

    #[test]
    fn capacity_zero_stores_nothing() {
        let mut c = LruCache::new(0);
        assert_eq!(c.insert("a", 1), None);
        assert!(c.is_empty());
        assert_eq!(c.get(&"a"), None);
    }

    #[test]
    fn capacity_one_keeps_only_the_newest() {
        let mut c = LruCache::new(1);
        c.insert("a", 1);
        assert_eq!(c.get(&"a"), Some(&1));
        c.insert("b", 2);
        assert_eq!(c.peek(&"a"), None);
        assert_eq!(c.get(&"b"), Some(&2));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn clear_empties_but_keeps_capacity() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.capacity(), 2);
        c.insert("c", 3);
        assert_eq!(c.peek(&"c"), Some(&3));
    }

    #[test]
    fn get_miss_leaves_state_untouched() {
        let mut c: LruCache<&str, i32> = LruCache::new(2);
        c.insert("a", 1);
        assert_eq!(c.get(&"zzz"), None);
        assert_eq!(c.len(), 1);
        assert_eq!(c.peek(&"a"), Some(&1));
    }
}
