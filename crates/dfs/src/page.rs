//! Paged storage: fixed-size pages, a sharded byte-budgeted LRU block
//! cache, and zero-copy cluster views.
//!
//! A query reads trie-node clusters, not partitions (§VI: a partition's
//! header keeps the start offset of every cluster so that a query reads
//! only the clusters its plan names). At scale, data-series search is
//! dominated by that storage I/O, not by distance math. This module
//! restructures `climber-dfs` around two cooperating pieces:
//!
//! * **[`BlockCache`]** — a sharded, byte-budgeted LRU over trie-node
//!   clusters, keyed `(store token, partition, file, node)`, accounted in
//!   fixed-size [`PAGE_SIZE`] pages and shared across queries, batches,
//!   and shards through one `Arc`. A hit serves the cluster's bytes
//!   without touching the filesystem; a miss is one ranged read of
//!   exactly that cluster.
//! * **[`ClusterView`]** — an *owned* zero-copy view of one trie-node
//!   cluster: a refcounted [`Bytes`] that can outlive whatever it came
//!   from (a cache entry, a ranged read, a whole image), so scan loops
//!   borrow cached pages instead of copying records out.
//!
//! A cached cluster is the partition file's bytes for it, verbatim: the
//! raw f32 records of CLBP version 1 are the only representation a sealed
//! record has between the file and the distance kernel.

use crate::format::{ClusterRecords, TrieNodeId};
use crate::store::PartitionId;
use bytes::Bytes;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Size of one cache page (64 KiB). Cached clusters are charged in whole
/// pages — `ceil(len / PAGE_SIZE)` pages each — so the budget accounting
/// mirrors a page-granular buffer pool even though a cluster is stored
/// contiguously for zero-copy reads.
pub const PAGE_SIZE: usize = 64 * 1024;

/// Number of independently locked cache shards. Eight is plenty: the
/// map operations under each lock are O(1) hash probes, and cluster
/// lookups are orders of magnitude rarer than record scans.
const CACHE_SHARDS: usize = 8;

/// Default cache budget: 256 MiB.
pub const DEFAULT_CACHE_BYTES: usize = 256 << 20;

/// Pages needed to hold `len` bytes (at least one).
pub fn pages_of(len: usize) -> usize {
    len.div_ceil(PAGE_SIZE).max(1)
}

/// The byte charge of caching a `len`-byte cluster: whole pages.
pub fn charge_of(len: usize) -> usize {
    pages_of(len) * PAGE_SIZE
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Configuration of the paged storage engine, passed to
/// `Climber::open_with_cache` / `ShardedClimber::open_with_cache`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Byte budget of cached blocks (whole [`PAGE_SIZE`] pages per cached
    /// cluster).
    pub capacity_bytes: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            capacity_bytes: DEFAULT_CACHE_BYTES,
        }
    }
}

impl CacheConfig {
    /// Sets the byte budget.
    #[must_use]
    pub fn with_capacity_bytes(mut self, capacity_bytes: usize) -> Self {
        self.capacity_bytes = capacity_bytes;
        self
    }
}

// ---------------------------------------------------------------------------
// Block cache
// ---------------------------------------------------------------------------

/// Key of a cached block: the owning store's token (so one shared cache
/// serves many stores/shards without id collisions), the partition id, the
/// partition file (`0` = base image, `n` = extension image `n`) and the
/// trie node whose cluster the block holds.
type BlockKey = (u64, PartitionId, u64, TrieNodeId);

#[derive(Debug)]
struct CacheEntry {
    /// The cluster's records; refcounted, so views handed out over them
    /// are zero-copy.
    bytes: Bytes,
    /// Page-rounded byte charge against the budget.
    charge: usize,
    /// LRU clock value of the last touch.
    last_used: u64,
}

/// Point-in-time counters of a [`BlockCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BlockCacheStats {
    /// Lookups served from memory.
    pub hits: u64,
    /// Lookups that had to read the filesystem.
    pub misses: u64,
    /// Blocks evicted to stay inside the budget.
    pub evictions: u64,
    /// Cluster bytes warmed from cold-open validation reads.
    pub warmed_bytes: u64,
    /// Page-rounded bytes of resident blocks (what the budget is charged).
    pub resident_bytes: u64,
}

/// Allocates a store token: the namespace half of a [`BlockCache`] key.
/// Monotone and process-global, so two stores can never collide even when
/// they share one cache.
pub fn next_store_token() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// A sharded, byte-budgeted LRU cache of trie-node clusters, shared
/// across queries, batches, and shards through one `Arc`.
///
/// * **Hit path**: a refcounted [`Bytes`] clone — no filesystem touch, no
///   copy, no header parse: the store keeps each partition's directory.
/// * **Budget**: whole [`PAGE_SIZE`] pages per cluster, evicting the
///   least recently used blocks once the resident charge exceeds the
///   budget.
/// * **Coherence**: stores invalidate every cluster of a partition on
///   each rewrite, quarantine, and re-admission; staged (`.new`) and
///   quarantined partitions bypass the cache entirely. All clusters of a
///   partition live in one shard, so that invalidation locks one shard.
#[derive(Debug)]
pub struct BlockCache {
    shards: Vec<Mutex<HashMap<BlockKey, CacheEntry>>>,
    capacity: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    warmed_bytes: AtomicU64,
    /// Sum of the resident entries' charges. Only ever moved under the
    /// shard lock that adds or removes the entry, so a release always
    /// follows its own charge.
    resident_bytes: AtomicUsize,
}

impl BlockCache {
    /// A cache with `config`'s byte budget.
    pub fn new(config: CacheConfig) -> Self {
        Self {
            shards: (0..CACHE_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            capacity: config.capacity_bytes,
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            warmed_bytes: AtomicU64::new(0),
            resident_bytes: AtomicUsize::new(0),
        }
    }

    /// The byte budget.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity
    }

    fn resident(&self) -> usize {
        self.resident_bytes.load(Ordering::Relaxed)
    }

    fn shard_of(&self, key: &BlockKey) -> &Mutex<HashMap<BlockKey, CacheEntry>> {
        // Partition ids are small and sequential; mix the token in so two
        // stores' partitions spread across different shards. The node is
        // left out: a partition's clusters share a shard.
        let h = key
            .0
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(key.1))
            .rotate_left(17);
        &self.shards[(h as usize) % CACHE_SHARDS]
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Looks up the cached cluster `node` of `(token, pid)`'s file `file`,
    /// refreshing its LRU position. Counts a hit or a miss.
    pub fn get(&self, token: u64, pid: PartitionId, file: u64, node: TrieNodeId) -> Option<Bytes> {
        let key = (token, pid, file, node);
        let mut map = self
            .shard_of(&key)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        match map.get_mut(&key) {
            Some(entry) => {
                entry.last_used = self.next_tick();
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.bytes.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores (or replaces) the entry of `key`, charging its pages and
    /// releasing the replaced entry's.
    fn put(&self, key: BlockKey, bytes: Bytes, charge: usize) {
        let entry = CacheEntry {
            bytes,
            charge,
            last_used: self.next_tick(),
        };
        let mut map = self
            .shard_of(&key)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        self.resident_bytes.fetch_add(charge, Ordering::Relaxed);
        if let Some(old) = map.insert(key, entry) {
            self.release(&old);
        }
    }

    /// Releases a removed entry's charge; the caller holds its shard lock.
    fn release(&self, entry: &CacheEntry) {
        self.resident_bytes
            .fetch_sub(entry.charge, Ordering::Relaxed);
    }

    /// Inserts (or replaces) cluster `node` of `(token, pid)`'s file
    /// `file`, then evicts least-recently-used blocks until the resident
    /// charge fits the budget again. Returns the number of evictions this
    /// insert triggered. Clusters larger than the whole budget are not
    /// cached.
    pub fn insert(
        &self,
        token: u64,
        pid: PartitionId,
        file: u64,
        node: TrieNodeId,
        bytes: Bytes,
    ) -> u64 {
        let charge = charge_of(bytes.len());
        if charge > self.capacity {
            return 0;
        }
        self.put((token, pid, file, node), bytes, charge);
        self.evict_to_fit()
    }

    /// Inserts only when the cluster fits the budget *without* evicting
    /// anything — the cold-open warming path, which must never churn a
    /// cache another index is already using. Returns whether the bytes
    /// were cached; on success they count toward `warmed_bytes`.
    pub fn try_warm(
        &self,
        token: u64,
        pid: PartitionId,
        file: u64,
        node: TrieNodeId,
        bytes: Bytes,
    ) -> bool {
        let charge = charge_of(bytes.len());
        if self.resident().saturating_add(charge) > self.capacity {
            return false;
        }
        let len = bytes.len() as u64;
        self.put((token, pid, file, node), bytes, charge);
        self.warmed_bytes.fetch_add(len, Ordering::Relaxed);
        true
    }

    /// Evicts globally-least-recently-used blocks until the resident
    /// charge is within budget. Returns how many blocks were evicted.
    fn evict_to_fit(&self) -> u64 {
        let mut evicted = 0u64;
        while self.resident() > self.capacity {
            // Find the global LRU victim with one pass over the shards.
            let mut victim: Option<(BlockKey, u64)> = None;
            for shard in &self.shards {
                let map = shard.lock().unwrap_or_else(PoisonError::into_inner);
                for (key, entry) in map.iter() {
                    if victim.map_or(true, |(_, t)| entry.last_used < t) {
                        victim = Some((*key, entry.last_used));
                    }
                }
            }
            let Some((key, _)) = victim else {
                break;
            };
            let mut map = self
                .shard_of(&key)
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if let Some(old) = map.remove(&key) {
                self.release(&old);
                evicted += 1;
            }
        }
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        evicted
    }

    /// Drops every cached cluster of `(token, pid)`, whatever its file —
    /// called by stores on a base rewrite, quarantine, and re-admission.
    pub fn invalidate(&self, token: u64, pid: PartitionId) {
        self.invalidate_where(token, pid, |_| true);
    }

    /// Drops the cached clusters of `(token, pid)`'s files `files` — the
    /// extension images a merged one replaced.
    pub fn invalidate_files(&self, token: u64, pid: PartitionId, files: &[u64]) {
        self.invalidate_where(token, pid, |file| files.contains(&file));
    }

    fn invalidate_where(&self, token: u64, pid: PartitionId, of_file: impl Fn(u64) -> bool) {
        let mut map = self
            .shard_of(&(token, pid, 0, 0))
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        map.retain(|&(t, p, file, _), entry| {
            let keep = (t, p) != (token, pid) || !of_file(file);
            if !keep {
                self.release(entry);
            }
            keep
        });
    }

    /// Number of resident blocks.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).len())
            .sum()
    }

    /// True when no blocks are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A near-consistent snapshot of the cache's counters and gauges.
    pub fn stats(&self) -> BlockCacheStats {
        BlockCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            warmed_bytes: self.warmed_bytes.load(Ordering::Relaxed),
            resident_bytes: self.resident() as u64,
        }
    }
}

// ---------------------------------------------------------------------------
// Zero-copy cluster views
// ---------------------------------------------------------------------------

/// An **owned** zero-copy view over one trie-node cluster's encoded
/// records: a refcounted handle to a cached cluster, to the bytes of one
/// ranged read, or to a slice of a whole partition image.
///
/// Unlike [`ClusterRecords<'_>`](ClusterRecords), which borrows its
/// `PartitionReader`, a `ClusterView` owns its handle — scan loops hold
/// the view (and thereby pin the cached pages) without copying a byte of
/// record data. Reading goes through [`records`](Self::records), the one
/// cursor.
#[derive(Debug, Clone)]
pub struct ClusterView {
    bytes: Bytes,
    series_len: usize,
    count: usize,
}

impl ClusterView {
    pub(crate) fn new(bytes: Bytes, series_len: usize, count: usize) -> Self {
        Self {
            bytes,
            series_len,
            count,
        }
    }

    /// Number of records in the cluster.
    #[inline]
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when the cluster holds no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The cursor over the view's records.
    #[inline]
    pub fn records(&self) -> ClusterRecords<'_> {
        ClusterRecords::new(&self.bytes, self.series_len, self.count)
    }

    /// Visits every record with a reusable decode buffer, in storage
    /// order. Returns the number of records visited.
    pub fn for_each<F>(&self, f: F) -> u64
    where
        F: FnMut(u64, &[f32]),
    {
        self.records().for_each(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{PartitionReader, PartitionWriter};

    fn sample_partition(seed: u64, clusters: usize, per_cluster: usize, len: usize) -> Bytes {
        let mut w = PartitionWriter::new(seed, len);
        let mut id = seed * 1000;
        let mut x = seed.wrapping_mul(0x9E37_79B9).wrapping_add(1);
        for c in 0..clusters {
            let mut recs: Vec<(u64, Vec<f32>)> = Vec::new();
            for _ in 0..per_cluster {
                let mut vals = Vec::with_capacity(len);
                let mut v = 0.0f32;
                for _ in 0..len {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    v += ((x >> 33) as f32 / (1u64 << 31) as f32) - 0.5;
                    vals.push(v);
                }
                recs.push((id, vals));
                id += 1 + (x % 3);
            }
            w.push_cluster(100 + c as u64, recs.iter().map(|(i, v)| (*i, v.as_slice())));
        }
        w.finish()
    }

    #[test]
    fn cache_hits_misses_and_lru_eviction() {
        // Budget of 3 pages: each tiny image charges one page.
        let cache = BlockCache::new(CacheConfig::default().with_capacity_bytes(3 * PAGE_SIZE));
        let token = next_store_token();
        let img = |seed| sample_partition(seed, 1, 2, 4);
        assert!(cache.get(token, 1, 0, 0).is_none());
        cache.insert(token, 1, 0, 0, img(1));
        cache.insert(token, 2, 0, 0, img(2));
        cache.insert(token, 3, 0, 0, img(3));
        assert_eq!(cache.len(), 3);
        // Touch 1 and 2 so 3 is the LRU victim.
        assert!(cache.get(token, 1, 0, 0).is_some());
        assert!(cache.get(token, 2, 0, 0).is_some());
        let evicted = cache.insert(token, 4, 0, 0, img(4));
        assert_eq!(evicted, 1);
        assert!(cache.get(token, 3, 0, 0).is_none(), "LRU entry evicted");
        assert!(cache.get(token, 1, 0, 0).is_some());
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert!(stats.hits >= 3);
        assert!(stats.misses >= 2);
        assert_eq!(stats.resident_bytes, 3 * PAGE_SIZE as u64);
    }

    #[test]
    fn cache_tokens_namespace_partition_ids() {
        let cache = BlockCache::new(CacheConfig::default());
        let (a, b) = (next_store_token(), next_store_token());
        let img = sample_partition(5, 1, 1, 2);
        cache.insert(a, 7, 0, 0, img.clone());
        assert!(cache.get(a, 7, 0, 0).is_some());
        assert!(cache.get(b, 7, 0, 0).is_none());
        cache.invalidate(a, 7);
        assert!(cache.get(a, 7, 0, 0).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn invalidation_drops_every_cluster_of_one_partition() {
        let cache = BlockCache::new(CacheConfig::default());
        let (a, b) = (next_store_token(), next_store_token());
        let img = sample_partition(6, 1, 1, 2);
        for node in 0..4 {
            cache.insert(a, 1, 0, node, img.clone());
            cache.insert(a, 2, 0, node, img.clone());
            cache.insert(b, 1, 0, node, img.clone());
        }
        assert_eq!(cache.len(), 12);
        cache.invalidate(a, 1);
        assert_eq!(cache.len(), 8);
        assert!((0..4).all(|node| cache.get(a, 1, 0, node).is_none()));
        assert!((0..4).all(|node| cache.get(a, 2, 0, node).is_some()));
        assert!((0..4).all(|node| cache.get(b, 1, 0, node).is_some()));
        assert_eq!(cache.stats().resident_bytes, 8 * PAGE_SIZE as u64);
    }

    #[test]
    fn warming_never_evicts() {
        let cache = BlockCache::new(CacheConfig::default().with_capacity_bytes(2 * PAGE_SIZE));
        let token = next_store_token();
        let img = |seed| sample_partition(seed, 1, 2, 4);
        assert!(cache.try_warm(token, 1, 0, 0, img(1)));
        assert!(cache.try_warm(token, 2, 0, 0, img(2)));
        // Budget full: warming refuses instead of evicting.
        assert!(!cache.try_warm(token, 3, 0, 0, img(3)));
        assert_eq!(cache.len(), 2);
        let stats = cache.stats();
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.warmed_bytes, (img(1).len() + img(2).len()) as u64);
    }

    #[test]
    fn ledger_is_shared_and_saturating() {
        // One budget for every store sharing the cache: charges from two
        // tokens add up, and eviction keeps the sum inside the capacity.
        let cache = BlockCache::new(CacheConfig::default().with_capacity_bytes(4 * PAGE_SIZE));
        let (a, b) = (next_store_token(), next_store_token());
        let img = |seed| sample_partition(seed, 1, 2, 4);
        let resident = || cache.stats().resident_bytes;
        assert_eq!(resident(), 0);
        for pid in 0..3 {
            cache.insert(a, pid, 0, 0, img(1));
        }
        assert_eq!(resident(), 3 * PAGE_SIZE as u64);
        cache.insert(b, 0, 0, 0, img(2));
        cache.insert(b, 1, 0, 0, img(3));
        // 3 pages of store a + 2 of store b > 4: the LRU block is evicted.
        assert_eq!(cache.len(), 4);
        assert_eq!(resident(), 4 * PAGE_SIZE as u64);
        assert!(
            cache.get(a, 0, 0, 0).is_none(),
            "store a's oldest block paid"
        );
        // Full: warming refuses whichever store asks.
        assert!(!cache.try_warm(b, 2, 0, 0, img(4)));
        // Replacing an entry releases the old charge with the new one.
        cache.insert(b, 1, 0, 0, img(5));
        assert_eq!(resident(), 4 * PAGE_SIZE as u64);
        // A release happens once per resident entry and never below zero:
        // repeated and absent invalidations leave the gauge exact.
        cache.invalidate(b, 0);
        cache.invalidate(b, 0);
        cache.invalidate(b, 99);
        assert_eq!(resident(), 3 * PAGE_SIZE as u64);
        cache.invalidate(a, 1);
        cache.invalidate(a, 2);
        assert_eq!(resident(), PAGE_SIZE as u64);
        cache.invalidate(b, 1);
        assert_eq!(resident(), 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn oversized_images_bypass_the_cache() {
        let cache = BlockCache::new(CacheConfig::default().with_capacity_bytes(PAGE_SIZE));
        let token = next_store_token();
        let big = sample_partition(9, 8, 200, 16);
        assert!(big.len() > PAGE_SIZE);
        assert_eq!(cache.insert(token, 1, 0, 0, big.clone()), 0);
        assert!(cache.is_empty());
        assert!(!cache.try_warm(token, 1, 0, 0, big));
    }

    #[test]
    fn cluster_view_matches_reader_decode() {
        let v1 = sample_partition(21, 3, 7, 9);
        let reader = PartitionReader::open(v1).unwrap();
        for node in reader.cluster_ids() {
            let view = reader.cluster_view(node).unwrap();
            assert_eq!(view.len() as u32, reader.cluster_len(node).unwrap());
            assert_eq!(view.records().series_len(), reader.series_len());
            let mut via_reader = Vec::new();
            reader.for_each_in_cluster(node, |id, vals| via_reader.push((id, vals.to_vec())));
            let mut via_view = Vec::new();
            view.for_each(|id, vals| via_view.push((id, vals.to_vec())));
            assert_eq!(via_reader, via_view);
            for (i, (id, _)) in via_reader.iter().enumerate() {
                assert_eq!(view.records().id(i), *id);
            }
        }
        assert!(reader.cluster_view(999_999).is_none());
    }

    #[test]
    fn page_accounting_rounds_up() {
        assert_eq!(pages_of(0), 1);
        assert_eq!(pages_of(1), 1);
        assert_eq!(pages_of(PAGE_SIZE), 1);
        assert_eq!(pages_of(PAGE_SIZE + 1), 2);
        assert_eq!(charge_of(PAGE_SIZE + 1), 2 * PAGE_SIZE);
    }
}
