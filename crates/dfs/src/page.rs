//! Paged storage: fixed-size pages, a sharded byte-budgeted LRU block
//! cache, zero-copy cluster views, and the compressed partition format.
//!
//! The uncached read path re-decodes whole partitions from disk into a
//! throwaway buffer on every batch; at scale, data-series search is
//! dominated by that storage I/O and decode, not by distance math. This
//! module restructures `climber-dfs` around three cooperating pieces:
//!
//! * **[`BlockCache`]** — a sharded, byte-budgeted LRU over whole
//!   partition images, accounted in fixed-size [`PAGE_SIZE`] pages and
//!   shared across queries, batches, and shards through one `Arc`. A hit
//!   serves the partition's bytes without touching the filesystem; the
//!   refcounted [`Bytes`] image means every reader opened over it is
//!   zero-copy.
//! * **[`ClusterView`]** — an *owned* zero-copy view of one trie-node
//!   cluster: a refcounted slice of the cached partition image that can
//!   outlive the [`PartitionReader`] it came from, so scan loops borrow
//!   cached pages instead of memcpy-ing records into a `ClusterBuf`.
//! * **Compressed partitions (CLBP v2)** — an optional on-disk encoding
//!   applied on seal: per-cluster delta+varint ids and XOR-varint values,
//!   bitwise-lossless, decompressed once on first touch and pinned in the
//!   cache thereafter. [`decompress_partition`] reproduces the exact v1
//!   byte image, so every reader behaves identically on either format.
//!
//! Byte budgeting is unified with the quantized record cache through a
//! shared [`CacheLedger`]: quantized codes and cached blocks draw from the
//! same budget, so enabling one never double-accounts the other and
//! releasing either (maintenance, `set_quant_enabled(false)`) frees real
//! headroom.

use crate::format::{PartitionReader, PartitionWriter};
use crate::store::PartitionId;
use bytes::Bytes;
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Size of one cache page (64 KiB). Cached partition images are charged
/// in whole pages — `ceil(len / PAGE_SIZE)` pages each — so the budget
/// accounting mirrors a page-granular buffer pool even though an image is
/// stored contiguously for zero-copy reads.
pub const PAGE_SIZE: usize = 64 * 1024;

/// Number of independently locked cache shards. Eight is plenty: the
/// map operations under each lock are O(1) hash probes, and partition
/// opens are orders of magnitude rarer than record scans.
const CACHE_SHARDS: usize = 8;

/// Default cache budget: 256 MiB, matching the quantized cache's default.
pub const DEFAULT_CACHE_BYTES: usize = 256 << 20;

/// Pages needed to hold `len` bytes (at least one).
pub fn pages_of(len: usize) -> usize {
    len.div_ceil(PAGE_SIZE).max(1)
}

/// The byte charge of caching a `len`-byte image: whole pages.
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
    /// Byte budget shared by cached blocks *and* quantized codes (whole
    /// [`PAGE_SIZE`] pages per cached image).
    pub capacity_bytes: usize,
    /// Write partitions in the compressed CLBP v2 format on seal and on
    /// maintenance rewrites. Reading auto-detects per file, so mixed
    /// directories are always valid.
    pub compress: bool,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            capacity_bytes: DEFAULT_CACHE_BYTES,
            compress: false,
        }
    }
}

impl CacheConfig {
    /// Sets the shared byte budget.
    #[must_use]
    pub fn with_capacity_bytes(mut self, capacity_bytes: usize) -> Self {
        self.capacity_bytes = capacity_bytes;
        self
    }

    /// Enables compressed (CLBP v2) partition writes on seal.
    #[must_use]
    pub fn with_compression(mut self) -> Self {
        self.compress = true;
        self
    }
}

// ---------------------------------------------------------------------------
// Shared byte-budget ledger
// ---------------------------------------------------------------------------

/// The unified byte-budget ledger: one `used` counter charged by every
/// cache drawing from the budget (the block cache's resident pages and
/// the quantized cache's code tables), so the two never double-account
/// the same budget and releasing either frees real headroom.
#[derive(Debug)]
pub struct CacheLedger {
    used: AtomicUsize,
    capacity: usize,
}

impl CacheLedger {
    /// A ledger with the given byte capacity.
    pub fn new(capacity: usize) -> Self {
        Self {
            used: AtomicUsize::new(0),
            capacity,
        }
    }

    /// Bytes currently charged.
    pub fn used(&self) -> usize {
        self.used.load(Ordering::Relaxed)
    }

    /// The budget.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// True when `cost` more bytes fit without exceeding the budget.
    pub fn would_fit(&self, cost: usize) -> bool {
        self.used().saturating_add(cost) <= self.capacity
    }

    /// Charges `n` bytes.
    pub fn charge(&self, n: usize) {
        self.used.fetch_add(n, Ordering::Relaxed);
    }

    /// Releases `n` bytes (saturating — a release can never underflow).
    pub fn release(&self, n: usize) {
        let mut cur = self.used.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(n);
            match self
                .used
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Block cache
// ---------------------------------------------------------------------------

/// Key of a cached block: the owning store's token (so one shared cache
/// serves many stores/shards without id collisions) and the partition id.
type BlockKey = (u64, PartitionId);

#[derive(Debug)]
struct CacheEntry {
    /// The decompressed (v1) partition image; refcounted, so readers and
    /// views opened over it are zero-copy.
    bytes: Bytes,
    /// On-disk length (compressed length for v2 files, `bytes.len()`
    /// otherwise) — the numerator of the compressed ratio.
    stored_len: usize,
    /// Page-rounded byte charge against the ledger.
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
    /// Bytes warmed from cold-open validation reads.
    pub warmed_bytes: u64,
    /// Page-rounded bytes of resident blocks (what the ledger is charged).
    pub resident_bytes: u64,
    /// Uncompressed (decoded image) bytes of resident blocks.
    pub raw_bytes: u64,
    /// On-disk bytes of resident blocks (equals `raw_bytes` when nothing
    /// is compressed).
    pub stored_bytes: u64,
}

impl BlockCacheStats {
    /// On-disk ÷ in-memory size of resident blocks: 1.0 when nothing is
    /// compressed, below 1.0 when compression is saving disk bytes.
    pub fn compressed_ratio(&self) -> f64 {
        if self.raw_bytes == 0 {
            1.0
        } else {
            self.stored_bytes as f64 / self.raw_bytes as f64
        }
    }
}

/// Allocates a store token: the namespace half of a [`BlockCache`] key.
/// Monotone and process-global, so two stores can never collide even when
/// they share one cache.
pub fn next_store_token() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// A sharded, byte-budgeted LRU cache of whole partition images, shared
/// across queries, batches, and shards through one `Arc`.
///
/// * **Hit path**: a refcounted [`Bytes`] clone — no filesystem touch, no
///   copy; `PartitionReader::open` over it re-validates the header and
///   borrows the cached pages.
/// * **Budget**: whole [`PAGE_SIZE`] pages per image, charged against a
///   [`CacheLedger`] that the quantized cache shares, evicting the least
///   recently used blocks (never quantized codes) once the combined
///   usage exceeds the budget.
/// * **Coherence**: stores invalidate a partition's entry on every
///   rewrite, quarantine, and re-admission; staged (`.new`) and
///   quarantined partitions bypass the cache entirely.
#[derive(Debug)]
pub struct BlockCache {
    shards: Vec<Mutex<HashMap<BlockKey, CacheEntry>>>,
    ledger: Arc<CacheLedger>,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    warmed_bytes: AtomicU64,
    resident_bytes: AtomicUsize,
    raw_bytes: AtomicUsize,
    stored_bytes: AtomicUsize,
}

impl BlockCache {
    /// A cache with `config`'s byte budget (compression flags are read by
    /// the index layer, not the cache).
    pub fn new(config: CacheConfig) -> Self {
        Self {
            shards: (0..CACHE_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            ledger: Arc::new(CacheLedger::new(config.capacity_bytes)),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            warmed_bytes: AtomicU64::new(0),
            resident_bytes: AtomicUsize::new(0),
            raw_bytes: AtomicUsize::new(0),
            stored_bytes: AtomicUsize::new(0),
        }
    }

    /// The shared byte-budget ledger (attach it to a `QuantCache` so both
    /// caches draw from one budget).
    pub fn ledger(&self) -> Arc<CacheLedger> {
        Arc::clone(&self.ledger)
    }

    /// The byte budget.
    pub fn capacity_bytes(&self) -> usize {
        self.ledger.capacity()
    }

    fn shard_of(&self, key: &BlockKey) -> &Mutex<HashMap<BlockKey, CacheEntry>> {
        // Partition ids are small and sequential; mix the token in so two
        // stores' partitions spread across different shards.
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

    /// Looks up the cached image of `(token, pid)`, refreshing its LRU
    /// position. Counts a hit or a miss.
    pub fn get(&self, token: u64, pid: PartitionId) -> Option<Bytes> {
        let key = (token, pid);
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

    fn account_insert(&self, entry: &CacheEntry) {
        self.ledger.charge(entry.charge);
        self.resident_bytes
            .fetch_add(entry.charge, Ordering::Relaxed);
        self.raw_bytes
            .fetch_add(entry.bytes.len(), Ordering::Relaxed);
        self.stored_bytes
            .fetch_add(entry.stored_len, Ordering::Relaxed);
    }

    fn account_remove(&self, entry: &CacheEntry) {
        self.ledger.release(entry.charge);
        self.resident_bytes
            .fetch_sub(entry.charge, Ordering::Relaxed);
        self.raw_bytes
            .fetch_sub(entry.bytes.len(), Ordering::Relaxed);
        self.stored_bytes
            .fetch_sub(entry.stored_len, Ordering::Relaxed);
    }

    /// Inserts (or replaces) the image of `(token, pid)`, then evicts
    /// least-recently-used blocks until the shared ledger fits the budget
    /// again. Returns the number of evictions this insert triggered.
    /// Images larger than the whole budget are not cached.
    pub fn insert(&self, token: u64, pid: PartitionId, bytes: Bytes, stored_len: usize) -> u64 {
        let charge = charge_of(bytes.len());
        if charge > self.ledger.capacity() {
            return 0;
        }
        let key = (token, pid);
        let entry = CacheEntry {
            bytes,
            stored_len,
            charge,
            last_used: self.next_tick(),
        };
        {
            let mut map = self
                .shard_of(&key)
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if let Some(old) = map.insert(key, entry) {
                self.account_remove(&old);
            }
        }
        self.account_insert_by_key(&key);
        self.evict_to_fit()
    }

    fn account_insert_by_key(&self, key: &BlockKey) {
        let map = self
            .shard_of(key)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(entry) = map.get(key) {
            self.account_insert(entry);
        }
    }

    /// Inserts only when the image fits the budget *without* evicting
    /// anything — the cold-open warming path, which must never churn a
    /// cache another index is already using. Returns whether the bytes
    /// were cached; on success they count toward `warmed_bytes`.
    pub fn try_warm(&self, token: u64, pid: PartitionId, bytes: Bytes, stored_len: usize) -> bool {
        let charge = charge_of(bytes.len());
        if !self.ledger.would_fit(charge) {
            return false;
        }
        let key = (token, pid);
        let raw_len = bytes.len();
        let entry = CacheEntry {
            bytes,
            stored_len,
            charge,
            last_used: self.next_tick(),
        };
        let mut map = self
            .shard_of(&key)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(old) = map.insert(key, entry) {
            self.account_remove(&old);
        }
        drop(map);
        self.account_insert_by_key(&key);
        self.warmed_bytes
            .fetch_add(raw_len as u64, Ordering::Relaxed);
        true
    }

    /// Evicts globally-least-recently-used blocks until the shared ledger
    /// is within budget (quantized bytes count against it too, but only
    /// blocks are evictable here). Returns how many blocks were evicted.
    fn evict_to_fit(&self) -> u64 {
        let mut evicted = 0u64;
        while self.ledger.used() > self.ledger.capacity() {
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
                // Nothing evictable (the overage is quantized bytes).
                break;
            };
            let mut map = self
                .shard_of(&key)
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if let Some(old) = map.remove(&key) {
                self.account_remove(&old);
                evicted += 1;
            }
        }
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        evicted
    }

    /// Drops the cached image of `(token, pid)`, if resident — called by
    /// stores on rewrite, quarantine, and re-admission.
    pub fn invalidate(&self, token: u64, pid: PartitionId) {
        let key = (token, pid);
        let mut map = self
            .shard_of(&key)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(old) = map.remove(&key) {
            self.account_remove(&old);
        }
    }

    /// Drops every cached block of store `token`.
    pub fn invalidate_store(&self, token: u64) {
        for shard in &self.shards {
            let mut map = shard.lock().unwrap_or_else(PoisonError::into_inner);
            map.retain(|key, entry| {
                if key.0 == token {
                    self.account_remove(entry);
                    false
                } else {
                    true
                }
            });
        }
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
            resident_bytes: self.resident_bytes.load(Ordering::Relaxed) as u64,
            raw_bytes: self.raw_bytes.load(Ordering::Relaxed) as u64,
            stored_bytes: self.stored_bytes.load(Ordering::Relaxed) as u64,
        }
    }
}

// ---------------------------------------------------------------------------
// Zero-copy cluster views
// ---------------------------------------------------------------------------

/// An **owned** zero-copy view over one trie-node cluster's encoded
/// records: a refcounted slice of the (possibly cached) partition image.
///
/// Unlike `ClusterRecords<'_>`, which borrows its `PartitionReader`, a
/// `ClusterView` can outlive the reader — scan loops hold the view (and
/// thereby pin the cached pages) without copying a byte of record data.
#[derive(Debug, Clone)]
pub struct ClusterView {
    bytes: Bytes,
    series_len: usize,
    count: usize,
}

impl ClusterView {
    pub(crate) fn new(bytes: Bytes, series_len: usize, count: usize) -> Self {
        debug_assert_eq!(bytes.len(), count * (8 + series_len * 4));
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

    /// Length of every stored series.
    #[inline]
    pub fn series_len(&self) -> usize {
        self.series_len
    }

    /// Series id of record `i` — an 8-byte read, no value decoding.
    ///
    /// # Panics
    /// If `i >= len()`.
    #[inline]
    pub fn id(&self, i: usize) -> u64 {
        let off = i * (8 + self.series_len * 4);
        u64::from_le_bytes(self.bytes[off..off + 8].try_into().unwrap())
    }

    /// Visits every record with a reusable decode buffer, in storage
    /// order. Returns the number of records visited.
    pub fn for_each<F>(&self, mut f: F) -> u64
    where
        F: FnMut(u64, &[f32]),
    {
        let record_size = 8 + self.series_len * 4;
        let mut buf = vec![0.0f32; self.series_len];
        let bytes: &[u8] = &self.bytes;
        for r in 0..self.count {
            let off = r * record_size;
            let id = u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
            for (i, chunk) in bytes[off + 8..off + record_size]
                .chunks_exact(4)
                .enumerate()
            {
                buf[i] = f32::from_le_bytes(chunk.try_into().unwrap());
            }
            f(id, &buf);
        }
        self.count as u64
    }
}

impl PartitionReader {
    /// An owned zero-copy view of cluster `node_id`, or `None` when the
    /// node is absent. The view shares the reader's refcounted image —
    /// when that image came from a [`BlockCache`] hit, the view borrows
    /// cached pages directly.
    pub fn cluster_view(&self, node_id: crate::format::TrieNodeId) -> Option<ClusterView> {
        let (bytes, count) = self.cluster_bytes_owned(node_id)?;
        Some(ClusterView::new(bytes, self.series_len(), count as usize))
    }
}

// ---------------------------------------------------------------------------
// Compressed partitions (CLBP v2)
// ---------------------------------------------------------------------------
//
// Layout (all integers little-endian; varints are LEB128):
//
//   magic "CLBP" | version u32 = 2 | group_id u64 | series_len u32
//   n_clusters u32
//   directory: n_clusters × (node u64, start u64, count u32)   — as in v1
//   per cluster, in directory order:
//     ids_tag u8 | ids_len u32 | ids block
//     vals_tag u8 | vals_len u32 | vals block
//
// ids block:  tag 0 = raw u64 LE × count;
//             tag 1 = varint(first id), then zigzag-varint deltas.
// vals block: tag 0 = raw f32 LE × (count × series_len), record-major;
//             tag 1 = per f32 word, varint(bits XOR same-position word of
//                     the previous record) — the first record XORs zero.
//
// The encoder picks the smaller block per cluster, so v2 never expands a
// cluster by more than the 10 bytes of tags and lengths. Decompression
// rebuilds the exact canonical v1 image (open-validated v1 images are
// always canonical: the directory's start offsets are running totals).

const MAGIC: [u8; 4] = *b"CLBP";
const V2: u32 = 2;
const V2_HEADER: usize = 4 + 4 + 8 + 4 + 4;
const DIR_ENTRY: usize = 8 + 8 + 4;

const BLOCK_RAW: u8 = 0;
const BLOCK_PACKED: u8 = 1;

/// True when `bytes` look like a compressed (CLBP v2) partition.
pub fn is_compressed(bytes: &[u8]) -> bool {
    bytes.len() >= 8
        && bytes[0..4] == MAGIC
        && u32::from_le_bytes(bytes[4..8].try_into().unwrap()) == V2
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn get_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, String> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = bytes.get(*pos).ok_or("varint truncated")?;
        *pos += 1;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err("varint overflows u64".into());
        }
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn encode_ids(ids: &[u64]) -> (u8, Vec<u8>) {
    let mut packed = Vec::with_capacity(ids.len() * 2);
    if let Some(&first) = ids.first() {
        put_varint(&mut packed, first);
        let mut prev = first;
        for &id in &ids[1..] {
            put_varint(&mut packed, zigzag(id.wrapping_sub(prev) as i64));
            prev = id;
        }
    }
    if packed.len() < ids.len() * 8 {
        (BLOCK_PACKED, packed)
    } else {
        let mut raw = Vec::with_capacity(ids.len() * 8);
        for &id in ids {
            raw.extend_from_slice(&id.to_le_bytes());
        }
        (BLOCK_RAW, raw)
    }
}

fn encode_vals(vals: &[u32], series_len: usize) -> (u8, Vec<u8>) {
    let mut packed = Vec::with_capacity(vals.len() * 2);
    for (i, &word) in vals.iter().enumerate() {
        let prev = if i >= series_len {
            vals[i - series_len]
        } else {
            0
        };
        put_varint(&mut packed, u64::from(word ^ prev));
    }
    if packed.len() < vals.len() * 4 {
        (BLOCK_PACKED, packed)
    } else {
        let mut raw = Vec::with_capacity(vals.len() * 4);
        for &word in vals {
            raw.extend_from_slice(&word.to_le_bytes());
        }
        (BLOCK_RAW, raw)
    }
}

fn corrupt(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Compresses an open-validated v1 partition image into CLBP v2.
/// Lossless: [`decompress_partition`] of the result is bit-identical to
/// `v1`.
pub fn compress_partition(v1: &Bytes) -> io::Result<Bytes> {
    let reader = PartitionReader::open(v1.clone()).map_err(corrupt)?;
    let nodes = reader.cluster_ids();
    let series_len = reader.series_len();
    let mut out = Vec::with_capacity(v1.len() / 2 + V2_HEADER);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&V2.to_le_bytes());
    out.extend_from_slice(&reader.group_id().to_le_bytes());
    out.extend_from_slice(&(series_len as u32).to_le_bytes());
    out.extend_from_slice(&(nodes.len() as u32).to_le_bytes());
    let mut start = 0u64;
    for &node in &nodes {
        let count = reader.cluster_len(node).expect("listed cluster");
        out.extend_from_slice(&node.to_le_bytes());
        out.extend_from_slice(&start.to_le_bytes());
        out.extend_from_slice(&count.to_le_bytes());
        start += u64::from(count);
    }
    let mut ids: Vec<u64> = Vec::new();
    let mut vals: Vec<u32> = Vec::new();
    for &node in &nodes {
        ids.clear();
        vals.clear();
        reader.for_each_in_cluster(node, |id, values| {
            ids.push(id);
            vals.extend(values.iter().map(|v| v.to_bits()));
        });
        let (ids_tag, ids_block) = encode_ids(&ids);
        let (vals_tag, vals_block) = encode_vals(&vals, series_len);
        out.push(ids_tag);
        out.extend_from_slice(&(ids_block.len() as u32).to_le_bytes());
        out.extend_from_slice(&ids_block);
        out.push(vals_tag);
        out.extend_from_slice(&(vals_block.len() as u32).to_le_bytes());
        out.extend_from_slice(&vals_block);
    }
    Ok(Bytes::from(out))
}

/// Decompresses a CLBP v2 partition back into the exact v1 byte image it
/// was compressed from. Every structural violation is an
/// `InvalidData` error — torn or corrupt compressed files fail loudly,
/// never decode to wrong records.
pub fn decompress_partition(bytes: &[u8]) -> io::Result<Bytes> {
    if !is_compressed(bytes) {
        return Err(corrupt("not a CLBP v2 partition"));
    }
    if bytes.len() < V2_HEADER {
        return Err(corrupt("compressed partition shorter than header"));
    }
    let group_id = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let series_len = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
    let n_clusters = u32::from_le_bytes(bytes[20..24].try_into().unwrap()) as usize;
    if series_len == 0 {
        return Err(corrupt("compressed partition with zero series length"));
    }
    let dir_end = V2_HEADER + n_clusters * DIR_ENTRY;
    if bytes.len() < dir_end {
        return Err(corrupt("compressed partition truncated inside directory"));
    }
    let mut directory = Vec::with_capacity(n_clusters);
    let mut total = 0u64;
    for i in 0..n_clusters {
        let off = V2_HEADER + i * DIR_ENTRY;
        let node = u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
        let start = u64::from_le_bytes(bytes[off + 8..off + 16].try_into().unwrap());
        let count = u32::from_le_bytes(bytes[off + 16..off + 20].try_into().unwrap());
        if start != total {
            return Err(corrupt(format!(
                "compressed directory entry {i}: start {start} != running total {total}"
            )));
        }
        total += u64::from(count);
        directory.push((node, count));
    }
    // The reservation is bounded by the input, not by what the directory
    // claims: a packed record takes at least a byte per value plus one
    // for its id, so a well-formed image holds no more records than this
    // (and a lying one fails in the block reads below).
    let mut writer = PartitionWriter::with_capacity(
        group_id,
        series_len,
        n_clusters,
        (total as usize).min(bytes.len() / (series_len + 1)),
    );
    let mut pos = dir_end;
    let take_block = |pos: &mut usize| -> io::Result<(u8, &[u8])> {
        if bytes.len() < *pos + 5 {
            return Err(corrupt("compressed block header truncated"));
        }
        let tag = bytes[*pos];
        let len = u32::from_le_bytes(bytes[*pos + 1..*pos + 5].try_into().unwrap()) as usize;
        *pos += 5;
        let block = bytes
            .get(*pos..*pos + len)
            .ok_or_else(|| corrupt("compressed block truncated"))?;
        *pos += len;
        Ok((tag, block))
    };
    let mut ids: Vec<u64> = Vec::new();
    let mut vals: Vec<f32> = Vec::new();
    for &(node, count) in &directory {
        let count = count as usize;
        let (ids_tag, ids_block) = take_block(&mut pos)?;
        ids.clear();
        match ids_tag {
            BLOCK_RAW => {
                if ids_block.len() != count * 8 {
                    return Err(corrupt("raw id block has the wrong length"));
                }
                ids.extend(
                    ids_block
                        .chunks_exact(8)
                        .map(|c| u64::from_le_bytes(c.try_into().unwrap())),
                );
            }
            BLOCK_PACKED => {
                let mut p = 0usize;
                if count > 0 {
                    let first = get_varint(ids_block, &mut p).map_err(corrupt)?;
                    ids.push(first);
                    let mut prev = first;
                    for _ in 1..count {
                        let d = get_varint(ids_block, &mut p).map_err(corrupt)?;
                        prev = prev.wrapping_add(unzigzag(d) as u64);
                        ids.push(prev);
                    }
                }
                if p != ids_block.len() {
                    return Err(corrupt("trailing bytes in packed id block"));
                }
            }
            other => return Err(corrupt(format!("unknown id block tag {other}"))),
        }
        let (vals_tag, vals_block) = take_block(&mut pos)?;
        let n_words = count * series_len;
        vals.clear();
        match vals_tag {
            BLOCK_RAW => {
                if vals_block.len() != n_words * 4 {
                    return Err(corrupt("raw value block has the wrong length"));
                }
                vals.extend(
                    vals_block
                        .chunks_exact(4)
                        .map(|c| f32::from_bits(u32::from_le_bytes(c.try_into().unwrap()))),
                );
            }
            BLOCK_PACKED => {
                let mut p = 0usize;
                let mut words: Vec<u32> = Vec::with_capacity(n_words);
                for i in 0..n_words {
                    let x = get_varint(vals_block, &mut p).map_err(corrupt)?;
                    let x = u32::try_from(x).map_err(|_| corrupt("value varint overflows u32"))?;
                    let prev = if i >= series_len {
                        words[i - series_len]
                    } else {
                        0
                    };
                    words.push(x ^ prev);
                }
                if p != vals_block.len() {
                    return Err(corrupt("trailing bytes in packed value block"));
                }
                vals.extend(words.into_iter().map(f32::from_bits));
            }
            other => return Err(corrupt(format!("unknown value block tag {other}"))),
        }
        writer.push_cluster(
            node,
            ids.iter()
                .enumerate()
                .map(|(i, &id)| (id, &vals[i * series_len..(i + 1) * series_len])),
        );
    }
    if pos != bytes.len() {
        return Err(corrupt("trailing bytes after compressed clusters"));
    }
    Ok(writer.finish())
}

/// Normalises stored partition bytes to the v1 image every reader
/// expects: v2 files are decompressed, v1 files pass through. Returns the
/// image and the stored (on-disk) length.
pub fn maybe_decompress(bytes: Bytes) -> io::Result<(Bytes, usize)> {
    let stored_len = bytes.len();
    if is_compressed(&bytes) {
        Ok((decompress_partition(&bytes)?, stored_len))
    } else {
        Ok((bytes, stored_len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn compression_roundtrips_bit_identically() {
        for (clusters, per, len) in [(1, 1, 1), (3, 5, 16), (4, 0, 8), (2, 9, 33)] {
            let v1 = sample_partition(7, clusters, per, len);
            let v2 = compress_partition(&v1).unwrap();
            assert!(is_compressed(&v2));
            assert!(!is_compressed(&v1));
            let back = decompress_partition(&v2).unwrap();
            assert_eq!(
                &back[..],
                &v1[..],
                "clusters={clusters} per={per} len={len}"
            );
            // maybe_decompress normalises both formats
            let (img, stored) = maybe_decompress(v2.clone()).unwrap();
            assert_eq!(&img[..], &v1[..]);
            assert_eq!(stored, v2.len());
            let (img, stored) = maybe_decompress(v1.clone()).unwrap();
            assert_eq!(&img[..], &v1[..]);
            assert_eq!(stored, v1.len());
        }
    }

    #[test]
    fn compression_shrinks_sequential_ids() {
        // Random-walk values with near-sequential ids: the id blocks pack
        // to ~2 bytes per record instead of 8.
        let v1 = sample_partition(3, 4, 50, 32);
        let v2 = compress_partition(&v1).unwrap();
        assert!(
            v2.len() < v1.len(),
            "compressed {} >= raw {}",
            v2.len(),
            v1.len()
        );
    }

    #[test]
    fn torn_compressed_bytes_fail_loudly() {
        let v1 = sample_partition(11, 2, 6, 12);
        let v2 = compress_partition(&v1).unwrap();
        for cut in [5usize, 12, 30, v2.len() - 1] {
            assert!(
                decompress_partition(&v2[..cut.min(v2.len())]).is_err(),
                "cut at {cut}"
            );
        }
        let mut trailing = v2.to_vec();
        trailing.push(0);
        assert!(decompress_partition(&trailing).is_err());
        // flipped tag byte
        let mut bad = v2.to_vec();
        let tag_at = V2_HEADER + 2 * DIR_ENTRY;
        bad[tag_at] = 9;
        assert!(decompress_partition(&bad).is_err());
    }

    #[test]
    fn varints_roundtrip() {
        let mut out = Vec::new();
        let samples = [0u64, 1, 127, 128, 300, u64::MAX, u64::MAX - 1, 1 << 62];
        for &v in &samples {
            out.clear();
            put_varint(&mut out, v);
            let mut pos = 0;
            assert_eq!(get_varint(&out, &mut pos).unwrap(), v);
            assert_eq!(pos, out.len());
        }
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -300] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn cache_hits_misses_and_lru_eviction() {
        // Budget of 3 pages: each tiny image charges one page.
        let cache = BlockCache::new(CacheConfig::default().with_capacity_bytes(3 * PAGE_SIZE));
        let token = next_store_token();
        let img = |seed| sample_partition(seed, 1, 2, 4);
        assert!(cache.get(token, 1).is_none());
        cache.insert(token, 1, img(1), img(1).len());
        cache.insert(token, 2, img(2), img(2).len());
        cache.insert(token, 3, img(3), img(3).len());
        assert_eq!(cache.len(), 3);
        // Touch 1 and 2 so 3 is the LRU victim.
        assert!(cache.get(token, 1).is_some());
        assert!(cache.get(token, 2).is_some());
        let evicted = cache.insert(token, 4, img(4), img(4).len());
        assert_eq!(evicted, 1);
        assert!(cache.get(token, 3).is_none(), "LRU entry evicted");
        assert!(cache.get(token, 1).is_some());
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert!(stats.hits >= 3);
        assert!(stats.misses >= 2);
        assert_eq!(stats.resident_bytes, 3 * PAGE_SIZE as u64);
        assert!((stats.compressed_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cache_tokens_namespace_partition_ids() {
        let cache = BlockCache::new(CacheConfig::default());
        let (a, b) = (next_store_token(), next_store_token());
        let img = sample_partition(5, 1, 1, 2);
        cache.insert(a, 7, img.clone(), img.len());
        assert!(cache.get(a, 7).is_some());
        assert!(cache.get(b, 7).is_none());
        cache.invalidate(a, 7);
        assert!(cache.get(a, 7).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn warming_never_evicts() {
        let cache = BlockCache::new(CacheConfig::default().with_capacity_bytes(2 * PAGE_SIZE));
        let token = next_store_token();
        let img = |seed| sample_partition(seed, 1, 2, 4);
        assert!(cache.try_warm(token, 1, img(1), img(1).len()));
        assert!(cache.try_warm(token, 2, img(2), img(2).len()));
        // Budget full: warming refuses instead of evicting.
        assert!(!cache.try_warm(token, 3, img(3), img(3).len()));
        assert_eq!(cache.len(), 2);
        let stats = cache.stats();
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.warmed_bytes, (img(1).len() + img(2).len()) as u64);
    }

    #[test]
    fn ledger_is_shared_and_saturating() {
        let cache = BlockCache::new(CacheConfig::default().with_capacity_bytes(4 * PAGE_SIZE));
        let ledger = cache.ledger();
        assert_eq!(ledger.used(), 0);
        // A foreign charge (e.g. the quantized cache) counts against the
        // same budget and can be evicted around.
        ledger.charge(3 * PAGE_SIZE);
        let token = next_store_token();
        let img = |seed| sample_partition(seed, 1, 2, 4);
        cache.insert(token, 1, img(1), img(1).len());
        cache.insert(token, 2, img(2), img(2).len());
        // 3 foreign pages + 2 block pages > 4: blocks evict down to 1.
        assert_eq!(cache.len(), 1);
        ledger.release(10 * PAGE_SIZE);
        assert_eq!(ledger.used(), 0, "release saturates at zero");
        assert!(!ledger.would_fit(usize::MAX));
    }

    #[test]
    fn oversized_images_bypass_the_cache() {
        let cache = BlockCache::new(CacheConfig::default().with_capacity_bytes(PAGE_SIZE));
        let token = next_store_token();
        let big = sample_partition(9, 8, 200, 16);
        assert!(big.len() > PAGE_SIZE);
        assert_eq!(cache.insert(token, 1, big.clone(), big.len()), 0);
        assert!(cache.is_empty());
        assert!(!cache.try_warm(token, 1, big.clone(), big.len()));
    }

    #[test]
    fn cluster_view_matches_reader_decode() {
        let v1 = sample_partition(21, 3, 7, 9);
        let reader = PartitionReader::open(v1).unwrap();
        for node in reader.cluster_ids() {
            let view = reader.cluster_view(node).unwrap();
            assert_eq!(view.len() as u32, reader.cluster_len(node).unwrap());
            assert_eq!(view.series_len(), reader.series_len());
            let mut via_reader = Vec::new();
            reader.for_each_in_cluster(node, |id, vals| via_reader.push((id, vals.to_vec())));
            let mut via_view = Vec::new();
            view.for_each(|id, vals| via_view.push((id, vals.to_vec())));
            assert_eq!(via_reader, via_view);
            for (i, (id, _)) in via_reader.iter().enumerate() {
                assert_eq!(view.id(i), *id);
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
