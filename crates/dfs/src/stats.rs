//! Atomic I/O accounting.
//!
//! The paper's query-cost metric is dominated by "number of partitions
//! touched" (§VII-B) and its ablation (Figure 11(b)) reports "additional
//! data access" ratios. Every store and cluster operation feeds these
//! counters so experiments can report the same quantities.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared, thread-safe I/O counters. Cheap to clone (an `Arc` inside).
#[derive(Debug, Clone, Default)]
pub struct IoStats {
    inner: Arc<Counters>,
}

#[derive(Debug, Default)]
struct Counters {
    partitions_written: AtomicU64,
    partitions_opened: AtomicU64,
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
    records_shuffled: AtomicU64,
    records_read: AtomicU64,
}

/// A point-in-time copy of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoSnapshot {
    /// Partitions written to a store.
    pub partitions_written: u64,
    /// Partitions opened for reading.
    pub partitions_opened: u64,
    /// Bytes written to a store.
    pub bytes_written: u64,
    /// Bytes read from a store (headers + payloads actually touched).
    pub bytes_read: u64,
    /// Records moved by shuffle operations.
    pub records_shuffled: u64,
    /// Records decoded from partitions.
    pub records_read: u64,
    /// Block-cache lookups served from memory (monotonic).
    pub cache_hits: u64,
    /// Block-cache lookups that had to read the filesystem (monotonic).
    pub cache_misses: u64,
    /// Blocks evicted from the cache to stay inside its budget (monotonic).
    pub cache_evictions: u64,
    /// Page-rounded bytes currently resident in the block cache (a gauge:
    /// [`since`](Self::since) passes the later value through unchanged).
    pub cache_resident_bytes: u64,
}

impl IoStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a partition write of `bytes` bytes.
    pub fn on_partition_write(&self, bytes: u64) {
        self.inner
            .partitions_written
            .fetch_add(1, Ordering::Relaxed);
        self.inner.bytes_written.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records a partition open.
    pub fn on_partition_open(&self) {
        self.inner.partitions_opened.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `bytes` bytes read.
    pub fn on_read(&self, bytes: u64) {
        self.inner.bytes_read.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records `records` decoded records.
    pub fn on_records_read(&self, records: u64) {
        self.inner
            .records_read
            .fetch_add(records, Ordering::Relaxed);
    }

    /// Records `records` shuffled records.
    pub fn on_shuffle(&self, records: u64) {
        self.inner
            .records_shuffled
            .fetch_add(records, Ordering::Relaxed);
    }

    /// Snapshot of all counters.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            partitions_written: self.inner.partitions_written.load(Ordering::Relaxed),
            partitions_opened: self.inner.partitions_opened.load(Ordering::Relaxed),
            bytes_written: self.inner.bytes_written.load(Ordering::Relaxed),
            bytes_read: self.inner.bytes_read.load(Ordering::Relaxed),
            records_shuffled: self.inner.records_shuffled.load(Ordering::Relaxed),
            records_read: self.inner.records_read.load(Ordering::Relaxed),
            ..IoSnapshot::default()
        }
    }

    /// Resets every counter to zero (between experiment phases).
    pub fn reset(&self) {
        self.inner.partitions_written.store(0, Ordering::Relaxed);
        self.inner.partitions_opened.store(0, Ordering::Relaxed);
        self.inner.bytes_written.store(0, Ordering::Relaxed);
        self.inner.bytes_read.store(0, Ordering::Relaxed);
        self.inner.records_shuffled.store(0, Ordering::Relaxed);
        self.inner.records_read.store(0, Ordering::Relaxed);
    }
}

impl IoSnapshot {
    /// Difference of two snapshots (`self` taken after `earlier`).
    /// Monotonic counters subtract; the cache residency gauges pass
    /// through `self`'s current values (a gauge difference would be
    /// meaningless — residency is a level, not a flow).
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            partitions_written: self.partitions_written - earlier.partitions_written,
            partitions_opened: self.partitions_opened - earlier.partitions_opened,
            bytes_written: self.bytes_written - earlier.bytes_written,
            bytes_read: self.bytes_read - earlier.bytes_read,
            records_shuffled: self.records_shuffled - earlier.records_shuffled,
            records_read: self.records_read - earlier.records_read,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            cache_evictions: self.cache_evictions - earlier.cache_evictions,
            cache_resident_bytes: self.cache_resident_bytes,
        }
    }

    /// Overlays a block cache's counters and gauges onto this snapshot —
    /// the cache lives beside the store's `IoStats`, so index-level
    /// `serve_io()` views merge the two here.
    pub fn with_cache(mut self, cache: &crate::page::BlockCacheStats) -> IoSnapshot {
        self.cache_hits = cache.hits;
        self.cache_misses = cache.misses;
        self.cache_evictions = cache.evictions;
        self.cache_resident_bytes = cache.resident_bytes;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = IoStats::new();
        s.on_partition_write(100);
        s.on_partition_write(50);
        s.on_partition_open();
        s.on_read(30);
        s.on_shuffle(7);
        s.on_records_read(3);
        let snap = s.snapshot();
        assert_eq!(snap.partitions_written, 2);
        assert_eq!(snap.bytes_written, 150);
        assert_eq!(snap.partitions_opened, 1);
        assert_eq!(snap.bytes_read, 30);
        assert_eq!(snap.records_shuffled, 7);
        assert_eq!(snap.records_read, 3);
    }

    #[test]
    fn clones_share_counters() {
        let a = IoStats::new();
        let b = a.clone();
        b.on_read(42);
        assert_eq!(a.snapshot().bytes_read, 42);
    }

    #[test]
    fn reset_zeroes_everything() {
        let s = IoStats::new();
        s.on_partition_write(10);
        s.on_shuffle(5);
        s.reset();
        assert_eq!(s.snapshot(), IoSnapshot::default());
    }

    #[test]
    fn since_subtracts() {
        let s = IoStats::new();
        s.on_read(10);
        let t0 = s.snapshot();
        s.on_read(25);
        let diff = s.snapshot().since(&t0);
        assert_eq!(diff.bytes_read, 25);
    }

    #[test]
    fn cache_fields_overlay_and_diff() {
        let cache = crate::page::BlockCacheStats {
            hits: 10,
            misses: 4,
            evictions: 2,
            warmed_bytes: 0,
            resident_bytes: 1 << 20,
        };
        let t0 = IoSnapshot::default().with_cache(&crate::page::BlockCacheStats {
            hits: 3,
            ..Default::default()
        });
        let t1 = IoSnapshot::default().with_cache(&cache);
        let diff = t1.since(&t0);
        assert_eq!(diff.cache_hits, 7, "counters subtract");
        assert_eq!(diff.cache_misses, 4);
        assert_eq!(diff.cache_resident_bytes, 1 << 20, "gauges pass through");
    }

    #[test]
    fn counters_are_thread_safe() {
        let s = IoStats::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let s = s.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        s.on_read(1);
                    }
                });
            }
        });
        assert_eq!(s.snapshot().bytes_read, 8000);
    }
}
