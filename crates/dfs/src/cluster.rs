//! The cluster simulator: Spark-ish verbs over a deterministic worker pool.
//!
//! The index-build pipeline (Figure 6) is expressed with one primitive,
//! the **narrow map** ([`Cluster::par_map`]) — order-preserving parallel
//! map, the "local op" arrows of Figure 6. Its closures borrow read-only
//! state directly: that is the broadcast (pivots and the index skeleton
//! are shared with every worker in Step 4).
//!
//! The "shuffling and re-distribution op" arrows are the builder's own
//! grouping by partition, which counts the records it moves in
//! [`IoStats`]. Everything is deterministic: maps preserve input order, so
//! a build produces identical output for any worker count.

use crate::stats::IoStats;
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
}
