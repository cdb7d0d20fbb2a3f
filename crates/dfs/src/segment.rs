//! Mutable segments: the delta segment and the tombstone set.
//!
//! CLIMBER's sealed partitions are immutable — the builder writes them
//! once and queries only ever read them. Live updates therefore live in
//! two side structures that the query layer merges into the sealed
//! candidate stream:
//!
//! * the [`DeltaSegment`] — an in-memory segment of appended records,
//!   clustered by the *same* `(partition, trie node)` key the frozen
//!   skeleton would route them to. An append is O(record): one routing
//!   pass plus one record encoded onto the end of the right delta
//!   cluster, in the layout a sealed cluster stores
//!   ([`record_size`]). Queries read the
//!   delta cluster of every `(partition, node)` they planned through the
//!   cursor and the loop that read the sealed one, so an appended record
//!   is findable through exactly the plans that would find it after a
//!   rebuild, and scored by the same kernel;
//! * the [`TombstoneSet`] — the ids of deleted records. Deletes are
//!   logical: the record stays in its sealed partition (or delta
//!   cluster) until a flush/compaction folds the segments, and every
//!   query path filters tombstoned ids *before* they reach the top-k
//!   heap.
//!
//! Both structures are concurrency-safe behind [`parking_lot`] locks:
//! appends/deletes take short write sections, a query scan holds one
//! delta read section per partition it reads, and cheap atomic counters
//! keep the no-update fast path lock-free. A fold never empties the
//! segment up front: inside one read section it copies a partition's
//! [runs](DeltaView::runs) straight into the partition's new image and
//! keeps only how many records it took from each, writes the image with
//! no lock held, and [retires](DeltaRetire::retire) exactly those records
//! in the write section that publishes the image — so every acknowledged
//! append is, at every instant, in exactly one place a query reads.
//!
//! The [`Journal`] is their durable form: one little-endian blob holding
//! the segment generation, the tombstone ids, and every delta cluster's
//! encoded records as they are held, referenced (size + checksum) by the
//! index manifest so a persisted index can be reopened *writable* with
//! its pending updates intact.

use crate::format::{encode_record, record_size, ByteReader, ClusterRecords, TrieNodeId};
use crate::fsio::ClimberFs;
use crate::manifest::FileEntry;
use crate::store::PartitionId;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{RwLockReadGuard, RwLockWriteGuard};

/// File name of the update journal inside an index directory.
pub const JOURNAL_FILE: &str = "journal.cldj";

/// Path of the journal inside an index directory.
pub fn journal_path(dir: &Path) -> PathBuf {
    dir.join(JOURNAL_FILE)
}

/// The roll-forward staging sibling of the journal: the seal writes the
/// new journal here *before* the manifest commit, and renames it over
/// [`JOURNAL_FILE`] only afterwards — so a crash mid-seal leaves the
/// committed journal untouched, and a crash after the commit is rolled
/// forward at open from this sibling.
pub fn staged_journal_path(dir: &Path) -> PathBuf {
    dir.join(format!("{JOURNAL_FILE}.new"))
}

/// Serialises and stages the mutable segments under the journal's `.new`
/// sibling ([`write_staged`](crate::fsio::write_staged): the seal's
/// pre-commit directory fsync covers it), returning the size + checksum
/// entry the manifest will commit.
pub fn stage_journal(
    fs: &dyn ClimberFs,
    dir: &Path,
    generation: u64,
    delta: &DeltaSegment,
    tombstones: &TombstoneSet,
) -> io::Result<FileEntry> {
    let bytes = encode_journal(generation, delta, tombstones);
    let entry = FileEntry {
        bytes: bytes.len() as u64,
        checksum: crate::manifest::xxh64(&bytes, 0),
    };
    crate::fsio::write_staged(fs, &staged_journal_path(dir), &bytes)?;
    Ok(entry)
}

/// Renames a staged journal over the main file — called after the
/// manifest commit point; the seal's closing directory fsync covers it.
pub fn commit_staged_journal(fs: &dyn ClimberFs, dir: &Path) -> io::Result<()> {
    fs.rename(&staged_journal_path(dir), &journal_path(dir))
}

/// Removes the journal and any staged sibling, best-effort — the
/// post-commit cleanup when the newly committed manifest records no
/// pending updates. Stray journal files under a journal-less manifest
/// are ignored at open, so failing here is harmless.
pub fn discard_journal(fs: &dyn ClimberFs, dir: &Path) {
    fs.remove_file(&journal_path(dir)).ok();
    fs.remove_file(&staged_journal_path(dir)).ok();
}

/// Magic prefix of a journal file.
pub const JOURNAL_MAGIC: [u8; 4] = *b"CLDJ";

/// Journal layout version written by this build.
pub const JOURNAL_VERSION: u32 = 1;

/// One delta cluster: the records appended to a `(partition, node)` pair,
/// encoded in arrival order in the [`record_size`] layout a sealed cluster
/// holds — so a scan reads it through the same [`ClusterRecords`] cursor,
/// a fold splices it and the journal copies it, byte for byte.
#[derive(Debug, Clone)]
pub struct DeltaRun {
    series_len: usize,
    bytes: Vec<u8>,
}

impl DeltaRun {
    /// The cursor over the run's records, in append order.
    pub fn records(&self) -> ClusterRecords<'_> {
        let count = self.bytes.len() / record_size(self.series_len);
        ClusterRecords::new(&self.bytes, self.series_len, count)
    }
}

#[derive(Debug, Default)]
struct DeltaInner {
    /// Length of every held series (0 until the first append).
    series_len: usize,
    clusters: BTreeMap<(PartitionId, TrieNodeId), DeltaRun>,
}

impl DeltaInner {
    /// `partition`'s runs by ascending trie node.
    fn runs_of(&self, partition: PartitionId) -> impl Iterator<Item = (TrieNodeId, &DeltaRun)> {
        let keys = (partition, 0)..=(partition, TrieNodeId::MAX);
        self.clusters.range(keys).map(|(&(_, n), run)| (n, run))
    }
}

/// The mutable in-memory segment absorbing appends.
///
/// Records are clustered under the `(partition, trie node)` key the
/// frozen skeleton routes them to, each cluster one [`DeltaRun`] of
/// encoded records, so the query layer scans the delta cluster with the
/// loop that scans the sealed cluster of the same key. A fold splices a
/// partition's runs into its rewritten image and retires them as the
/// image is published.
#[derive(Debug, Default)]
pub struct DeltaSegment {
    inner: RwLock<DeltaInner>,
    /// Record count mirror so `is_empty`/`record_count` never lock (the
    /// static-index query fast path checks this per query).
    records: AtomicU64,
}

impl DeltaSegment {
    /// An empty delta segment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of appended records currently held.
    #[inline]
    pub fn record_count(&self) -> u64 {
        self.records.load(Ordering::Acquire)
    }

    /// True when no appends are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.record_count() == 0
    }

    /// Length of the held series (0 while empty).
    pub fn series_len(&self) -> usize {
        self.inner.read().series_len
    }

    /// Appends one routed record in O(record).
    ///
    /// # Panics
    /// If `values` has a different length than records already held.
    pub fn append(&self, partition: PartitionId, node: TrieNodeId, id: u64, values: &[f32]) {
        self.append_many(std::iter::once((partition, node, id, values)));
    }

    /// Appends a whole routed batch under a single write section — the
    /// grouped form [`append`](Self::append) is a special case of.
    ///
    /// # Panics
    /// If any record's length differs from records already held.
    pub fn append_many<'a, I>(&self, records: I)
    where
        I: IntoIterator<Item = (PartitionId, TrieNodeId, u64, &'a [f32])>,
    {
        let mut inner = self.inner.write();
        let mut added = 0u64;
        for (partition, node, id, values) in records {
            assert!(!values.is_empty(), "cannot append an empty series");
            if inner.series_len == 0 {
                inner.series_len = values.len();
            }
            let series_len = inner.series_len;
            assert_eq!(
                values.len(),
                series_len,
                "appended series length {} != delta series length {series_len}",
                values.len(),
            );
            let run = inner
                .clusters
                .entry((partition, node))
                .or_insert_with(|| DeltaRun {
                    series_len,
                    bytes: Vec::new(),
                });
            encode_record(&mut run.bytes, id, values);
            added += 1;
        }
        self.records.fetch_add(added, Ordering::Release);
    }

    /// Partitions with at least one delta record, ascending.
    pub fn partitions(&self) -> Vec<PartitionId> {
        let inner = self.inner.read();
        let mut out: Vec<PartitionId> = inner.clusters.keys().map(|&(p, _)| p).collect();
        out.dedup();
        out
    }

    /// Opens a read section: no run grows or shrinks while the view is
    /// held. A scan holds one across everything it reads of a partition,
    /// sealed clusters included, so it sees the partition either before a
    /// fold publishes its new image or after, never in between. Never
    /// open a second view on the same thread while holding one: a writer
    /// queued between the two deadlocks both.
    pub fn read(&self) -> DeltaView<'_> {
        DeltaView(self.inner.read())
    }

    /// Opens the write section a fold publishes a partition's new image
    /// in: held from before the store makes the image readable until
    /// [`DeltaRetire::retire`] has removed the records the image now holds.
    pub fn write(&self) -> DeltaRetire<'_> {
        DeltaRetire {
            inner: self.inner.write(),
            records: &self.records,
        }
    }
}

/// A read section over a [`DeltaSegment`] (see [`DeltaSegment::read`]).
pub struct DeltaView<'a>(RwLockReadGuard<'a, DeltaInner>);

impl DeltaView<'_> {
    /// The run of `(partition, node)`, in append order — the pending
    /// counterpart of a sealed cluster's [`ClusterRecords`]. `None` when
    /// the cluster is absent.
    pub fn run(&self, partition: PartitionId, node: TrieNodeId) -> Option<ClusterRecords<'_>> {
        self.0
            .clusters
            .get(&(partition, node))
            .map(DeltaRun::records)
    }

    /// `partition`'s runs by ascending trie node, each in append order, at
    /// their current lengths — what a fold copies into the partition's new
    /// image while it holds the section. Records appended once the section
    /// closes extend the runs past what it copied and stay for the next
    /// fold.
    pub fn runs(
        &self,
        partition: PartitionId,
    ) -> impl Iterator<Item = (TrieNodeId, ClusterRecords<'_>)> + '_ {
        (self.0.runs_of(partition)).map(|(n, run)| (n, run.records()))
    }

    /// Trie nodes of `partition` holding delta records, ascending.
    pub fn nodes_for(&self, partition: PartitionId) -> impl Iterator<Item = TrieNodeId> + '_ {
        self.0.runs_of(partition).map(|(n, _)| n)
    }
}

/// The write section of a fold's publish (see [`DeltaSegment::write`]).
pub struct DeltaRetire<'a> {
    inner: RwLockWriteGuard<'a, DeltaInner>,
    records: &'a AtomicU64,
}

impl DeltaRetire<'_> {
    /// Removes from `partition`'s runs exactly the prefix a fold copied
    /// ([`DeltaView::runs`]) — `(trie node, records copied)` per
    /// run — dropping runs left empty, and closes the section. Folds are
    /// serialised, so nothing else removed records from these runs since
    /// the copy; appends only ever extend them.
    pub fn retire(
        mut self,
        partition: PartitionId,
        copied: impl IntoIterator<Item = (TrieNodeId, usize)>,
    ) {
        let mut removed = 0u64;
        for (node, records) in copied {
            let key = (partition, node);
            let run =
                (self.inner.clusters.get_mut(&key)).expect("a folded run stays until retired");
            let prefix = records * record_size(run.series_len);
            debug_assert!(run.bytes.len() >= prefix, "run {key:?} lost its prefix");
            run.bytes.drain(..prefix);
            if run.bytes.is_empty() {
                self.inner.clusters.remove(&key);
            }
            removed += records as u64;
        }
        self.records.fetch_sub(removed, Ordering::Release);
    }
}

/// The set of logically deleted series ids.
///
/// A delete is one insert into an open-addressed hash set; the record's
/// bytes stay in place until a compaction rewrites the partitions that
/// hold them. Query paths filter tombstoned ids out of the candidate
/// stream before any distance is offered to the top-k heap, so a deleted
/// record can never appear in (or displace members of) an answer set.
/// Every scanned record of an index with anything pending pays one
/// membership probe, which costs the same at ten tombstones or ten
/// thousand.
#[derive(Debug, Default)]
pub struct TombstoneSet {
    set: RwLock<IdSet>,
    /// Size mirror so `is_empty` never locks on the query fast path.
    count: AtomicU64,
}

/// A read section over a [`TombstoneSet`], held for the duration of one
/// cluster scan so per-record membership checks don't re-lock.
pub struct TombstoneView<'a>(RwLockReadGuard<'a, IdSet>);

impl TombstoneView<'_> {
    /// True when `id` is deleted.
    #[inline]
    pub fn contains(&self, id: u64) -> bool {
        self.0.contains(id)
    }
}

impl TombstoneSet {
    /// An empty tombstone set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tombstones `id`; returns false when it was already deleted.
    pub fn delete(&self, id: u64) -> bool {
        let newly = self.set.write().insert(id);
        if newly {
            self.count.fetch_add(1, Ordering::Release);
        }
        newly
    }

    /// True when `id` is deleted.
    pub fn contains(&self, id: u64) -> bool {
        !self.is_empty() && self.set.read().contains(id)
    }

    /// Number of tombstoned ids.
    #[inline]
    pub fn len(&self) -> u64 {
        self.count.load(Ordering::Acquire)
    }

    /// True when nothing is deleted.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Opens a read section for a cluster scan.
    pub fn read(&self) -> TombstoneView<'_> {
        TombstoneView(self.set.read())
    }

    /// All tombstoned ids, ascending.
    pub fn ids(&self) -> Vec<u64> {
        self.set.read().ids()
    }

    /// Removes `ids` from the set (a compaction purged their records).
    /// Ids not present are ignored.
    pub fn remove_all(&self, ids: &[u64]) {
        let mut set = self.set.write();
        let mut removed = 0u64;
        for &id in ids {
            removed += u64::from(set.remove(id));
        }
        set.shrink();
        drop(set);
        self.count.fetch_sub(removed, Ordering::Release);
    }
}

/// An open-addressed set of `u64` ids: linear probing from a Fibonacci
/// hash of the id, at most half the slots full. A probe is one or two
/// adjacent slots whatever the set's size, memory is O(ids) (at most
/// four slots an id, 16 while empty, none before the first insert), and
/// a removal shifts its probe run back instead of leaving a marker.
#[derive(Debug, Default)]
struct IdSet {
    /// A power-of-two table of ids, [`FREE`] where none is.
    slots: Vec<u64>,
    /// Ids held in `slots`.
    held: usize,
    /// Whether [`FREE`] itself, which no slot can hold, is in the set.
    holds_free: bool,
}

/// The slot value meaning "no id here".
const FREE: u64 = u64::MAX;

impl IdSet {
    /// The smallest table a non-empty set uses.
    const MIN_SLOTS: usize = 16;

    /// `id`'s first slot: the top bits of its product with 2^64 / φ.
    #[inline]
    fn home(&self, id: u64) -> usize {
        let bits = self.slots.len().trailing_zeros();
        (id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
    }

    /// The slot holding `id`, or the free slot ending its probe run.
    #[inline]
    fn slot_of(&self, id: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = self.home(id);
        while self.slots[i] != id && self.slots[i] != FREE {
            i = (i + 1) & mask;
        }
        i
    }

    #[inline]
    fn contains(&self, id: u64) -> bool {
        if id == FREE {
            return self.holds_free;
        }
        !self.slots.is_empty() && self.slots[self.slot_of(id)] == id
    }

    fn insert(&mut self, id: u64) -> bool {
        if id == FREE {
            return !std::mem::replace(&mut self.holds_free, true);
        }
        if 2 * (self.held + 1) > self.slots.len() {
            self.rehash((2 * self.slots.len()).max(Self::MIN_SLOTS));
        }
        let i = self.slot_of(id);
        if self.slots[i] == id {
            return false;
        }
        self.slots[i] = id;
        self.held += 1;
        true
    }

    fn remove(&mut self, id: u64) -> bool {
        if id == FREE {
            return std::mem::replace(&mut self.holds_free, false);
        }
        if self.slots.is_empty() {
            return false;
        }
        let mut hole = self.slot_of(id);
        if self.slots[hole] != id {
            return false;
        }
        // Backward shift: every later id of the run whose home is not
        // after the hole moves into it, so no probe run is ever cut short.
        let mask = self.slots.len() - 1;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let next = self.slots[j];
            if next == FREE {
                break;
            }
            let home = self.home(next);
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = next;
                hole = j;
            }
        }
        self.slots[hole] = FREE;
        self.held -= 1;
        true
    }

    /// Gives back the table a compaction emptied, or most of it.
    fn shrink(&mut self) {
        if self.held == 0 {
            self.slots = Vec::new();
        } else if 8 * self.held < self.slots.len() && self.slots.len() > Self::MIN_SLOTS {
            self.rehash((4 * self.held).next_power_of_two().max(Self::MIN_SLOTS));
        }
    }

    fn rehash(&mut self, slots: usize) {
        let old = std::mem::replace(&mut self.slots, vec![FREE; slots]);
        for id in old.into_iter().filter(|&id| id != FREE) {
            let i = self.slot_of(id);
            self.slots[i] = id;
        }
    }

    /// Every id, ascending.
    fn ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .slots
            .iter()
            .copied()
            .filter(|&id| id != FREE)
            .collect();
        ids.sort_unstable();
        ids.extend(self.holds_free.then_some(FREE));
        ids
    }
}

/// The decoded durable form of the mutable segments: what a writable
/// reopen restores before accepting further updates.
#[derive(Debug, Default)]
pub struct Journal {
    /// Segment generation the journal belongs to; must equal the
    /// manifest's generation or the journal is stale.
    pub generation: u64,
    /// The pending appends.
    pub delta: DeltaSegment,
    /// The pending deletes.
    pub tombstones: TombstoneSet,
}

/// Serialises the mutable segments (little-endian):
///
/// ```text
/// magic "CLDJ" | version u32 | generation u64 | series_len u32
/// tombstones: count u64, then ids u64 ascending
/// clusters:   count u32, then per cluster, keys strictly ascending:
///             partition u32, node u64, records u32 (at least 1),
///             records × (id u64, series_len × f32)
/// ```
///
/// A cluster's records are its [`DeltaRun`] in append order, in the
/// partition record layout ([`record_size`]), copied as one slice.
///
/// The blob carries no checksum of its own — the manifest references it
/// with a size + xxHash64 entry, exactly like a partition file.
pub fn encode_journal(generation: u64, delta: &DeltaSegment, tombstones: &TombstoneSet) -> Vec<u8> {
    let inner = delta.inner.read();
    let mut out = Vec::new();
    out.extend_from_slice(&JOURNAL_MAGIC);
    out.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
    out.extend_from_slice(&generation.to_le_bytes());
    out.extend_from_slice(&(inner.series_len as u32).to_le_bytes());
    let ids = tombstones.ids();
    out.extend_from_slice(&(ids.len() as u64).to_le_bytes());
    for id in ids {
        out.extend_from_slice(&id.to_le_bytes());
    }
    out.extend_from_slice(&(inner.clusters.len() as u32).to_le_bytes());
    for (&(p, n), run) in &inner.clusters {
        out.extend_from_slice(&p.to_le_bytes());
        out.extend_from_slice(&n.to_le_bytes());
        out.extend_from_slice(&(run.records().len() as u32).to_le_bytes());
        out.extend_from_slice(&run.bytes);
    }
    out
}

/// Parses a journal written by [`encode_journal`]. Errors name what is
/// malformed; parsing never panics.
pub fn decode_journal(bytes: &[u8]) -> Result<Journal, String> {
    let mut r = ByteReader::new(bytes);
    let magic = r
        .take(4)
        .map_err(|_| "journal shorter than magic".to_string())?;
    if magic != JOURNAL_MAGIC {
        return Err(format!("bad journal magic {magic:?}"));
    }
    let version = r.u32()?;
    if version != JOURNAL_VERSION {
        return Err(format!("unsupported journal version {version}"));
    }
    let generation = r.u64()?;
    let series_len = r.u32()? as usize;
    let journal = Journal {
        generation,
        ..Journal::default()
    };
    let n_tomb = r.u64()?;
    let mut last: Option<u64> = None;
    for _ in 0..n_tomb {
        let id = r.u64()?;
        if last.is_some_and(|p| p >= id) {
            return Err("tombstone ids not strictly ascending".into());
        }
        last = Some(id);
        journal.tombstones.delete(id);
    }
    let n_clusters = r.u32()?;
    if n_clusters > 0 && series_len == 0 {
        return Err("journal has delta clusters but zero series length".into());
    }
    let mut inner = journal.delta.inner.write();
    inner.series_len = series_len;
    let mut total = 0u64;
    for _ in 0..n_clusters {
        let key = (r.u32()?, r.u64()?);
        if inner
            .clusters
            .last_key_value()
            .is_some_and(|(&prev, _)| prev >= key)
        {
            return Err(format!("journal cluster {key:?} out of key order"));
        }
        let count = r.u32()?;
        if count == 0 {
            return Err(format!("empty journal cluster {key:?}"));
        }
        let run_bytes = (count as usize)
            .checked_mul(record_size(series_len))
            .ok_or_else(|| format!("journal cluster {key:?} overflows"))?;
        let bytes = r.take(run_bytes)?.to_vec();
        inner.clusters.insert(key, DeltaRun { series_len, bytes });
        total += u64::from(count);
    }
    r.expect_end()
        .map_err(|_| "trailing bytes after journal".to_string())?;
    drop(inner);
    journal.delta.records.store(total, Ordering::Release);
    Ok(journal)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every held record as `(partition, node, id, values)`, in key order.
    fn records(d: &DeltaSegment) -> Vec<(PartitionId, TrieNodeId, u64, Vec<f32>)> {
        let mut out = Vec::new();
        for (&(p, n), run) in &d.inner.read().clusters {
            run.records()
                .for_each(|id, v| out.push((p, n, id, v.to_vec())));
        }
        out
    }

    /// What a fold keeps of its snapshot: records copied per run.
    /// What a fold of partition `p` would copy: each run's length.
    fn copied(d: &DeltaSegment, p: PartitionId) -> Vec<(TrieNodeId, usize)> {
        d.read()
            .runs(p)
            .map(|(node, recs)| (node, recs.len()))
            .collect()
    }

    fn sample_delta() -> DeltaSegment {
        let d = DeltaSegment::new();
        d.append(3, 10, 100, &[1.0, 2.0]);
        d.append(1, 7, 101, &[3.0, 4.0]);
        d.append(3, 10, 102, &[5.0, 6.0]);
        d.append(3, 11, 103, &[7.0, 8.0]);
        d
    }

    #[test]
    fn delta_routes_into_per_partition_node_clusters() {
        let d = sample_delta();
        assert_eq!(d.record_count(), 4);
        assert_eq!(d.series_len(), 2);
        assert_eq!(d.partitions(), vec![1, 3]);
        let view = d.read();
        let nodes = |p| view.nodes_for(p).collect::<Vec<_>>();
        assert_eq!(nodes(3), vec![10, 11]);
        assert_eq!(nodes(1), vec![7]);
        assert_eq!(nodes(9), Vec::<TrieNodeId>::new());

        let mut seen = Vec::new();
        let n = (view.run(3, 10).unwrap()).for_each(|id, v| seen.push((id, v.to_vec())));
        assert_eq!(n, 2);
        assert_eq!(seen, vec![(100, vec![1.0, 2.0]), (102, vec![5.0, 6.0])]);
        assert!(view.run(9, 10).is_none());
    }

    #[test]
    fn delta_read_respects_keep_filter() {
        // Filtering (tombstones) is the visitor's job: it sees every id.
        let d = sample_delta();
        let view = d.read();
        let kept: Vec<u64> = (view.run(3, 10).unwrap().ids())
            .filter(|&id| id != 100)
            .collect();
        assert_eq!(kept, vec![102]);
    }

    #[test]
    fn delta_append_many_is_one_grouped_pass() {
        let d = DeltaSegment::new();
        let recs: Vec<(PartitionId, TrieNodeId, u64, Vec<f32>)> = (0..10)
            .map(|i| (i % 3, (i % 2) as u64, 200 + i as u64, vec![i as f32, 0.0]))
            .collect();
        d.append_many(recs.iter().map(|(p, n, id, v)| (*p, *n, *id, v.as_slice())));
        assert_eq!(d.record_count(), 10);
    }

    #[test]
    #[should_panic(expected = "length")]
    fn delta_rejects_mixed_lengths() {
        let d = sample_delta();
        d.append(0, 0, 999, &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn retire_removes_exactly_the_snapshot_prefix() {
        let d = sample_delta();
        let folded = copied(&d, 3);
        assert_eq!(folded, vec![(10, 2), (11, 1)]);
        let ids: Vec<u64> = d.read().run(3, 10).unwrap().ids().collect();
        assert_eq!(ids, vec![100, 102]);
        // Appended after the copy: stays for the next fold.
        d.append(3, 10, 104, &[9.0, 9.5]);
        assert_eq!(d.record_count(), 5, "a copy removes nothing");
        d.write().retire(3, folded);
        assert_eq!(d.record_count(), 2);
        assert_eq!(
            records(&d),
            vec![(1, 7, 101, vec![3.0, 4.0]), (3, 10, 104, vec![9.0, 9.5])]
        );
        assert_eq!(d.partitions(), vec![1, 3]);
        for p in [1, 3] {
            let folded = copied(&d, p);
            d.write().retire(p, folded);
        }
        assert!(d.is_empty() && d.partitions().is_empty());
    }

    #[test]
    fn tombstones_delete_once_and_filter() {
        let t = TombstoneSet::new();
        assert!(t.is_empty());
        assert!(t.delete(5));
        assert!(!t.delete(5), "double delete is idempotent");
        assert!(t.delete(9));
        assert_eq!(t.len(), 2);
        assert!(t.contains(5));
        assert!(!t.contains(6));
        let view = t.read();
        assert!(view.contains(9) && !view.contains(4));
        drop(view);
        assert_eq!(t.ids(), vec![5, 9]);
        t.remove_all(&[5, 77]);
        assert_eq!(t.ids(), vec![9]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn concurrent_appends_and_deletes_hold_up() {
        let d = DeltaSegment::new();
        let t = TombstoneSet::new();
        std::thread::scope(|s| {
            for w in 0..4u64 {
                let (d, t) = (&d, &t);
                s.spawn(move || {
                    for i in 0..200u64 {
                        let id = w * 1_000 + i;
                        d.append((id % 5) as PartitionId, id % 3, id, &[id as f32, 1.0]);
                        if i % 4 == 0 {
                            t.delete(id);
                        }
                    }
                });
            }
        });
        assert_eq!(d.record_count(), 800);
        assert_eq!(t.len(), 200);
        let held = records(&d);
        assert_eq!(held.len(), 800);
        assert!(held.iter().all(|(_, _, _, vals)| vals.len() == 2));
    }

    #[test]
    fn journal_roundtrips() {
        let d = sample_delta();
        let t = TombstoneSet::new();
        t.delete(2);
        t.delete(101);
        let bytes = encode_journal(7, &d, &t);
        let j = decode_journal(&bytes).unwrap();
        assert_eq!(j.generation, 7);
        assert_eq!(j.tombstones.ids(), vec![2, 101]);
        assert_eq!(j.delta.record_count(), 4);
        assert_eq!(j.delta.series_len(), 2);
        assert_eq!(records(&d), records(&j.delta));
        // Deterministic: same state → same bytes.
        assert_eq!(bytes, encode_journal(7, &d, &t));
    }

    #[test]
    fn journal_bytes_follow_the_documented_layout() {
        let d = DeltaSegment::new();
        d.append(3, 10, 100, &[1.0, 2.0]);
        d.append(1, 7, 101, &[3.0, 4.0]);
        d.append(3, 10, 102, &[5.0, -6.5]);
        let t = TombstoneSet::new();
        t.delete(101);
        t.delete(2);

        let mut want = Vec::new();
        want.extend_from_slice(b"CLDJ");
        want.extend_from_slice(&1u32.to_le_bytes()); // version
        want.extend_from_slice(&7u64.to_le_bytes()); // generation
        want.extend_from_slice(&2u32.to_le_bytes()); // series_len
        want.extend_from_slice(&2u64.to_le_bytes()); // tombstones, ascending
        want.extend_from_slice(&2u64.to_le_bytes());
        want.extend_from_slice(&101u64.to_le_bytes());
        want.extend_from_slice(&2u32.to_le_bytes()); // clusters, key order
        let clusters = [
            (1u32, 7u64, vec![(101u64, [3.0f32, 4.0])]),
            (3, 10, vec![(100, [1.0, 2.0]), (102, [5.0, -6.5])]),
        ];
        for (p, n, records) in clusters {
            want.extend_from_slice(&p.to_le_bytes());
            want.extend_from_slice(&n.to_le_bytes());
            want.extend_from_slice(&(records.len() as u32).to_le_bytes());
            for (id, values) in records {
                want.extend_from_slice(&id.to_le_bytes());
                for v in values {
                    want.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
        assert_eq!(encode_journal(7, &d, &t), want);
    }

    /// Every single-bit flip of a small journal (two clusters, three
    /// tombstones) decodes to a typed error or to a journal that encodes
    /// back to exactly the flipped bytes: never a panic, and no allocation
    /// beyond what the bytes hold.
    #[test]
    fn every_bit_flip_of_a_journal_is_refused_or_reencodes_exactly() {
        let d = DeltaSegment::new();
        d.append(3, 10, 100, &[1.0, 2.0]);
        d.append(1, 7, 101, &[3.0, 4.0]);
        d.append(3, 10, 102, &[5.0, -6.5]);
        let t = TombstoneSet::new();
        for id in [2, 101, 7_000] {
            t.delete(id);
        }
        let bytes = encode_journal(7, &d, &t);
        let (mut refused, mut decoded) = (0, 0);
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            match decode_journal(&flipped) {
                Err(_) => refused += 1,
                Ok(j) => {
                    assert!(j.delta.record_count() <= 3 && j.tombstones.len() <= 3);
                    let again = encode_journal(j.generation, &j.delta, &j.tombstones);
                    assert!(again == flipped, "bit {bit} decoded to another journal");
                    decoded += 1;
                }
            }
        }
        // Magic, version, counts and key order refuse; generation, ids and
        // values decode.
        assert!(
            refused > 0 && decoded > 0,
            "{refused} refused, {decoded} decoded"
        );
    }

    #[test]
    fn empty_journal_roundtrips() {
        let j = decode_journal(&encode_journal(
            0,
            &DeltaSegment::new(),
            &TombstoneSet::new(),
        ))
        .unwrap();
        assert_eq!(j.generation, 0);
        assert!(j.delta.is_empty());
        assert!(j.tombstones.is_empty());
    }

    #[test]
    fn corrupt_journals_rejected() {
        let bytes = encode_journal(3, &sample_delta(), &TombstoneSet::new());
        for cut in [0, 3, 9, 20, bytes.len() - 1] {
            assert!(decode_journal(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(decode_journal(&bad_magic).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(decode_journal(&trailing).is_err());
        let mut bad_version = bytes;
        bad_version[4] = 99;
        assert!(decode_journal(&bad_version).is_err());

        // Well-framed cluster lists the encoder never writes: a key
        // repeated after an empty first copy, a lone empty cluster, and
        // keys out of order.
        let journal = |clusters: &[(u32, u64, &[u64])]| {
            let mut out = b"CLDJ".to_vec();
            out.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
            out.extend_from_slice(&3u64.to_le_bytes());
            out.extend_from_slice(&1u32.to_le_bytes()); // series_len
            out.extend_from_slice(&0u64.to_le_bytes()); // no tombstones
            out.extend_from_slice(&(clusters.len() as u32).to_le_bytes());
            for &(p, n, ids) in clusters {
                out.extend_from_slice(&p.to_le_bytes());
                out.extend_from_slice(&n.to_le_bytes());
                out.extend_from_slice(&(ids.len() as u32).to_le_bytes());
                for id in ids {
                    out.extend_from_slice(&id.to_le_bytes());
                    out.extend_from_slice(&0.5f32.to_le_bytes());
                }
            }
            out
        };
        assert!(decode_journal(&journal(&[(7, 9, &[1]), (7, 10, &[2])])).is_ok());
        for bad in [
            &[(7, 9, &[][..]), (7, 9, &[1][..])][..],
            &[(7, 9, &[])],
            &[(7, 10, &[1]), (7, 9, &[2])],
            &[(8, 0, &[1]), (7, 9, &[2])],
        ] {
            assert!(decode_journal(&journal(bad)).is_err(), "{bad:?}");
        }
    }
}
