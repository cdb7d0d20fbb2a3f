//! The cluster simulator: Spark-ish verbs over a deterministic worker pool.
//!
//! The index-build pipeline (Figure 6) is expressed with three primitives:
//!
//! * **narrow map** ([`Cluster::par_map`]) — order-preserving parallel map,
//!   the "local op" arrows of Figure 6;
//! * **shuffle** ([`Cluster::shuffle_by_key`]) — re-distribution by key, the
//!   "shuffling and re-distribution op" arrows (records moved are counted in
//!   [`IoStats`]);
//! * **broadcast** ([`Broadcast`]) — cheap shared read-only state (pivots
//!   and the index skeleton are broadcast to all workers in Step 4).
//!
//! Everything is deterministic: maps preserve input order and shuffles
//! return keys in sorted order, so a build produces identical output for any
//! worker count.

use crate::stats::IoStats;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A simulated compute cluster with a fixed worker count.
#[derive(Clone)]
pub struct Cluster {
    pool: Arc<rayon::ThreadPool>,
    workers: usize,
    stats: IoStats,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("workers", &self.workers)
            .finish()
    }
}

impl Cluster {
    /// Creates a cluster of `workers` workers reporting to fresh stats.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "cluster needs at least one worker");
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(workers)
            .build()
            .expect("failed to build worker pool");
        Self {
            pool: Arc::new(pool),
            workers,
            stats: IoStats::new(),
        }
    }

    /// Single-worker cluster (useful for deterministic debugging).
    pub fn local() -> Self {
        Self::new(1)
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The stats sink.
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// Runs `op` with this cluster's worker count installed as the ambient
    /// parallelism, so `rayon::scope` fan-outs composed by the caller (the
    /// index build's concurrent partition writes) use the same pool the
    /// cluster's own verbs do.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        self.pool.install(op)
    }

    /// Order-preserving parallel map (a narrow transformation: no data
    /// movement between workers).
    pub fn par_map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync + Send,
    {
        use rayon::prelude::*;
        self.pool.install(|| items.into_par_iter().map(f).collect())
    }

    /// Parallel for-each over borrowed items.
    pub fn par_for_each<T, F>(&self, items: &[T], f: F)
    where
        T: Sync,
        F: Fn(&T) + Sync + Send,
    {
        use rayon::prelude::*;
        self.pool.install(|| items.par_iter().for_each(f));
    }

    /// Shuffle: assigns a key to every item in parallel, then groups items
    /// by key. Returns keys in ascending order with items in input order
    /// (deterministic regardless of worker count). Every record crossing
    /// the (simulated) network is counted in the stats.
    pub fn shuffle_by_key<T, K, F>(&self, items: Vec<T>, key_fn: F) -> BTreeMap<K, Vec<T>>
    where
        T: Send,
        K: Ord + Send,
        F: Fn(&T) -> K + Sync + Send,
    {
        let n = items.len() as u64;
        let keyed: Vec<(K, T)> = self.par_map(items, |t| {
            let k = key_fn(&t);
            (k, t)
        });
        self.stats.on_shuffle(n);
        let mut out: BTreeMap<K, Vec<T>> = BTreeMap::new();
        for (k, t) in keyed {
            out.entry(k).or_default().push(t);
        }
        out
    }

    /// Runs a fold over chunks in parallel and merges the partial results
    /// (a combine-style aggregation).
    pub fn par_fold<T, A, F, M>(
        &self,
        items: &[T],
        init: impl Fn() -> A + Sync,
        f: F,
        merge: M,
    ) -> A
    where
        T: Sync,
        A: Send,
        F: Fn(A, &T) -> A + Sync + Send,
        M: Fn(A, A) -> A,
    {
        use rayon::prelude::*;
        let chunk = (items.len() / self.workers.max(1)).max(1);
        let partials: Vec<A> = self.pool.install(|| {
            items
                .par_chunks(chunk)
                .map(|c| c.iter().fold(init(), &f))
                .collect()
        });
        let mut it = partials.into_iter();
        let first = it.next().unwrap_or_else(&init);
        it.fold(first, merge)
    }
}

/// Read-only state shared with every worker — the Spark broadcast variable.
/// (§V Step 4: "both the set of pivots and the index skeleton are
/// broadcasted to all machines"; both are tiny and fit in memory.)
#[derive(Debug)]
pub struct Broadcast<T>(Arc<T>);

impl<T> Broadcast<T> {
    /// Wraps a value for broadcast.
    pub fn new(value: T) -> Self {
        Self(Arc::new(value))
    }
}

impl<T> Clone for Broadcast<T> {
    fn clone(&self) -> Self {
        Self(Arc::clone(&self.0))
    }
}

impl<T> std::ops::Deref for Broadcast<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let c = Cluster::new(4);
        let out = c.par_map((0..1000).collect(), |x: i32| x * 2);
        assert_eq!(out.len(), 1000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as i32 * 2);
        }
    }

    #[test]
    fn results_identical_across_worker_counts() {
        let items: Vec<u64> = (0..500).collect();
        let one = Cluster::new(1).shuffle_by_key(items.clone(), |&x| x % 7);
        let many = Cluster::new(8).shuffle_by_key(items, |&x| x % 7);
        assert_eq!(one, many);
    }

    #[test]
    fn shuffle_groups_by_key_in_order() {
        let c = Cluster::new(3);
        let groups = c.shuffle_by_key(vec![5u32, 1, 8, 3, 6], |&x| x % 2);
        assert_eq!(groups[&0], vec![8, 6]);
        assert_eq!(groups[&1], vec![5, 1, 3]);
    }

    #[test]
    fn shuffle_counts_records() {
        let c = Cluster::new(2);
        c.shuffle_by_key((0..42u32).collect(), |&x| x % 3);
        assert_eq!(c.stats().snapshot().records_shuffled, 42);
    }

    #[test]
    fn par_fold_sums() {
        let c = Cluster::new(4);
        let items: Vec<u64> = (1..=100).collect();
        let sum = c.par_fold(&items, || 0u64, |a, &x| a + x, |a, b| a + b);
        assert_eq!(sum, 5050);
    }

    #[test]
    fn par_fold_empty() {
        let c = Cluster::new(2);
        let items: Vec<u64> = vec![];
        assert_eq!(c.par_fold(&items, || 7u64, |a, &x| a + x, |a, b| a + b), 7);
    }

    #[test]
    fn broadcast_shares_value() {
        let b = Broadcast::new(vec![1, 2, 3]);
        let c = b.clone();
        assert_eq!(*c, vec![1, 2, 3]);
        assert_eq!(b.len(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        Cluster::new(0);
    }

    #[test]
    fn install_scopes_worker_count() {
        let c = Cluster::new(3);
        assert_eq!(c.install(rayon::current_num_threads), 3);
        assert_eq!(c.install(|| 7), 7);
    }

    #[test]
    fn par_for_each_visits_all() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let c = Cluster::new(4);
        let sum = AtomicU64::new(0);
        let items: Vec<u64> = (0..100).collect();
        c.par_for_each(&items, |&x| {
            sum.fetch_add(x, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 4950);
    }
}
