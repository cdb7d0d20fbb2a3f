//! Partition stores: where encoded partitions live.
//!
//! Two implementations behind one trait:
//! * [`MemStore`] — partitions in a concurrent map; models the paper's
//!   comparison against main-memory engines and keeps unit tests fast;
//! * [`DiskStore`] — one file per partition under a directory, the
//!   disk-based HDFS stand-in (CLIMBER is explicitly a *disk-based*
//!   system, §II).
//!
//! A disk store has **one** write protocol, whether it was
//! [created](DiskStore::create) empty for a build or
//! [opened](DiskStore::open_validated) from a sealed manifest for a
//! fold: every [`put`](PartitionStore::put) stages the image under the
//! partition's `.new` sibling (temp file, fsync, rename) and keeps the
//! [`PutReceipt`] of what it staged; the seal describes the partition
//! from that receipt, commits the manifest, and only then
//! [installs](PartitionStore::commit_staged) the stage over the main
//! file. No committed file is ever written in place.
//!
//! A query reads clusters, not partitions: [`read_clusters`] hands out
//! the trie-node clusters a plan names as [`ClusterView`]s. A disk store
//! keeps every partition's parsed [`PartitionDirectory`], so a cluster is
//! a [`BlockCache`] hit or one ranged read of exactly its bytes;
//! [`open`](PartitionStore::open) stays the whole-image read that folds,
//! scrubs, seals and tests use, and never touches the cache.
//!
//! Every operation reports to an [`IoStats`], which is how experiments
//! observe "partitions touched" and bytes moved.
//!
//! [`read_clusters`]: PartitionStore::read_clusters

use crate::format::{ClusterPick, PartitionDirectory, PartitionReader, TrieNodeId};
use crate::fsio::{self, FsRef};
use crate::manifest::{xxh64, Manifest, OpenError, PartitionEntry};
use crate::page::{self, BlockCache, ClusterView};
use crate::stats::IoStats;
use bytes::Bytes;
use parking_lot::RwLock;
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// File name of partition `id` inside an index directory.
pub fn partition_file_name(id: PartitionId) -> String {
    format!("part_{id:08}.clbp")
}

/// Subdirectory a quarantining open moves failed-validation partition
/// files into, preserving the evidence for a later
/// [`try_readmit`](DiskStore::try_readmit) or operator repair.
pub const QUARANTINE_DIR: &str = "QUARANTINE";

/// The roll-forward staging sibling of partition `id` inside `dir`: every
/// disk `put` (and a seal copying into another directory) lands here,
/// and the rename over the main file happens only *after* the next
/// manifest commit — so a crash anywhere in a build or a fold leaves the
/// committed file untouched.
pub fn staged_path_of(dir: &Path, id: PartitionId) -> PathBuf {
    dir.join(format!("{}.new", partition_file_name(id)))
}

fn quarantine_path_of(dir: &Path, id: PartitionId) -> PathBuf {
    dir.join(QUARANTINE_DIR).join(partition_file_name(id))
}

/// Identifier of a physical partition (the paper's `β` ids).
pub type PartitionId = u32;

/// What a disk [`put`](PartitionStore::put) staged: everything a manifest
/// records about a partition, taken while the bytes were in hand — so a
/// seal describes a built or rewritten partition without opening,
/// re-reading or re-hashing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PutReceipt {
    /// Length of the image.
    pub image_len: u64,
    /// xxHash64 (seed 0) of the image.
    pub checksum: u64,
    /// Records in the partition.
    pub records: u64,
    /// Length of every stored series.
    pub series_len: u32,
}

impl PutReceipt {
    /// The manifest entry this receipt describes.
    pub fn entry(&self, id: PartitionId) -> PartitionEntry {
        PartitionEntry {
            id,
            bytes: self.image_len,
            checksum: self.checksum,
            records: self.records,
        }
    }
}

/// A store of encoded partitions keyed by [`PartitionId`].
pub trait PartitionStore: Send + Sync {
    /// Writes (or replaces) a partition. Once the image is durable, the
    /// store opens the caller's section (`publish`) right before its own
    /// that makes the image readable, and returns it still held: a fold's
    /// is the delta write section (lock order: delta, then store). Every
    /// other caller passes `|| ()`.
    fn put<G>(&self, id: PartitionId, bytes: Bytes, publish: impl FnOnce() -> G) -> io::Result<G>;

    /// Reads partition `id`'s whole image for reading, past any block
    /// cache. Counts the open and the header bytes. Folds, scrubs and
    /// tests read partitions this way; queries use
    /// [`read_clusters`](Self::read_clusters).
    fn open(&self, id: PartitionId) -> io::Result<PartitionReader>;

    /// The query path's one read: appends `(node, view)` to `out` for every
    /// cluster of partition `id` that `pick` selects, in the pick's order,
    /// and returns the partition's series length. A
    /// [`ClusterPick::Named`] read is the partition's open and counts as
    /// [`open`](Self::open) does (one open, the header bytes); a
    /// [`ClusterPick::Rest`] read continues a partition already opened and
    /// counts nothing. Record bytes are the scan's to count.
    fn read_clusters(
        &self,
        id: PartitionId,
        pick: ClusterPick<'_>,
        out: &mut Vec<(TrieNodeId, ClusterView)>,
    ) -> io::Result<usize>;

    /// All stored partition ids, ascending.
    fn ids(&self) -> Vec<PartitionId>;

    /// Number of stored partitions.
    fn len(&self) -> usize {
        self.ids().len()
    }

    /// True when the store holds no partitions.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The stats sink this store reports to.
    fn stats(&self) -> &IoStats;

    /// The directory this store persists partitions into, when it is
    /// disk-backed. A flush re-seals the manifest there after rewriting
    /// partitions so the on-disk directory stays openable; in-memory
    /// stores return `None` and need no re-seal.
    fn persist_dir(&self) -> Option<&std::path::Path> {
        None
    }

    /// The receipt of partition `id`'s [`put`](Self::put) when that put
    /// is staged durably in [`persist_dir`](Self::persist_dir) (written
    /// and fsynced under its `.new` sibling) and not yet
    /// [committed](Self::commit_staged): a seal of that directory takes
    /// the partition's manifest entry from it instead of re-reading the
    /// bytes. `None` for stores that stage nothing.
    fn receipt(&self, _id: PartitionId) -> Option<PutReceipt> {
        None
    }

    /// The filesystem this store performs durable operations through.
    /// In-memory stores return the process default.
    fn fs(&self) -> FsRef {
        fsio::std_fs()
    }

    /// Renames every staged (`.new`) partition over its committed main
    /// file — called by the seal *after* the manifest commit point; the
    /// seal's closing directory fsync makes the renames durable (an
    /// interrupted install is rolled forward at open either way). A
    /// no-op for stores without a staging protocol.
    fn commit_staged(&self) -> io::Result<()> {
        Ok(())
    }

    /// Partitions a quarantining open moved aside; opens of these ids
    /// fail until [`DiskStore::try_readmit`] repairs them. Empty for
    /// stores without quarantine support.
    fn quarantined(&self) -> Vec<PartitionId> {
        Vec::new()
    }

    /// The **exact persisted image** of a partition — what a seal
    /// checksums and copies. A disk store reads it straight from the
    /// file (staged sibling first), past the block cache; no store
    /// accounts it in [`stats`](Self::stats): a seal's reads are not
    /// query traffic.
    fn image(&self, id: PartitionId) -> io::Result<Bytes>;

    /// The block cache serving this store's cluster reads, when one is
    /// attached; the serving layer overlays its counters onto I/O
    /// snapshots.
    fn block_cache(&self) -> Option<Arc<BlockCache>> {
        None
    }
}

/// In-memory partition store.
#[derive(Debug, Default)]
pub struct MemStore {
    parts: RwLock<BTreeMap<PartitionId, Bytes>>,
    stats: IoStats,
}

impl MemStore {
    /// Creates an empty store with fresh stats.
    pub fn new() -> Self {
        Self::default()
    }
}

fn invalid_data(e: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

fn quarantined_error(id: PartitionId) -> io::Error {
    io::Error::new(
        io::ErrorKind::NotFound,
        format!("partition {id} is quarantined"),
    )
}

impl PartitionStore for MemStore {
    fn put<G>(&self, id: PartitionId, bytes: Bytes, publish: impl FnOnce() -> G) -> io::Result<G> {
        self.stats.on_partition_write(bytes.len() as u64);
        let section = publish();
        self.parts.write().insert(id, bytes);
        Ok(section)
    }

    fn open(&self, id: PartitionId) -> io::Result<PartitionReader> {
        let bytes = self.image(id)?;
        self.stats.on_partition_open();
        let reader = PartitionReader::open(bytes).map_err(invalid_data)?;
        self.stats.on_read(reader.header_bytes() as u64);
        Ok(reader)
    }

    fn image(&self, id: PartitionId) -> io::Result<Bytes> {
        self.parts
            .read()
            .get(&id)
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("partition {id}")))
    }

    /// Slices the image: every view shares the stored [`Bytes`].
    fn read_clusters(
        &self,
        id: PartitionId,
        pick: ClusterPick<'_>,
        out: &mut Vec<(TrieNodeId, ClusterView)>,
    ) -> io::Result<usize> {
        let image = self.image(id)?;
        let dir = PartitionDirectory::parse(&image).map_err(invalid_data)?;
        if let ClusterPick::Named(_) = pick {
            self.stats.on_partition_open();
            self.stats.on_read(dir.header_bytes() as u64);
        }
        let series_len = dir.series_len();
        dir.for_each_picked(pick, |node, span, count| {
            out.push((node, ClusterView::new(image.slice(span), series_len, count)));
            Ok::<(), io::Error>(())
        })?;
        Ok(series_len)
    }

    fn ids(&self) -> Vec<PartitionId> {
        self.parts.read().keys().copied().collect()
    }

    fn stats(&self) -> &IoStats {
        &self.stats
    }
}

/// On-disk partition store: `<dir>/part_<id>.clbp`.
#[derive(Debug)]
pub struct DiskStore {
    dir: PathBuf,
    stats: IoStats,
    /// Every partition the store holds: the manifest's (never a directory
    /// scan, so stray files are never served) plus each one a put staged
    /// since.
    ids: RwLock<BTreeSet<PartitionId>>,
    /// The manifest's series length, which every partition header must
    /// repeat (`0` = none recorded: a created store, or an empty index).
    series_len: u32,
    /// True when [`open_validated`](Self::open_validated) was told so:
    /// every [`put`](PartitionStore::put) is rejected, and a scrub
    /// quarantines in memory only.
    read_only: bool,
    /// The filesystem every durable operation goes through (injectable).
    fs: FsRef,
    /// Partitions whose current bytes are under a `.new` sibling, which
    /// reads serve: a put awaiting the next manifest commit, with its
    /// receipt, or (`None`) committed bytes a crash left uninstalled that
    /// this open could not (read-only) or did not manage to rename.
    ///
    /// Also the lock that keeps a partition's directory and its bytes in
    /// step: a cluster read holds it shared over its ranged reads, and a
    /// put or a commit renames a partition file only while holding it
    /// exclusively.
    staged: RwLock<BTreeMap<PartitionId, Option<PutReceipt>>>,
    /// The parsed directory of every partition's current image, taken from
    /// the bytes a validated open checksummed or the image a put staged:
    /// where each cluster's bytes lie, so a cluster read needs no header.
    directories: RwLock<BTreeMap<PartitionId, PartitionDirectory>>,
    /// Partitions a quarantining open (or a scrub) set aside; opening them
    /// fails with `NotFound` until repaired.
    quarantined: RwLock<BTreeSet<PartitionId>>,
    /// Block-cache attachment: the shared cache plus this store's token
    /// (the namespace its partition ids live under in the cache).
    cache: Option<StoreCache>,
}

/// A [`DiskStore`]'s handle into a shared [`BlockCache`].
#[derive(Debug)]
struct StoreCache {
    cache: Arc<BlockCache>,
    token: u64,
}

impl DiskStore {
    /// An empty writable store rooted at `dir` (created through `fs` if
    /// needed) — what a build writes into. It holds no partition until a
    /// put stages one, whatever files `dir` already has: an index a
    /// previous build left there stays committed, and openable, until
    /// the seal of this one commits its manifest.
    pub fn create(dir: impl Into<PathBuf>, fs: FsRef) -> io::Result<Self> {
        let dir = dir.into();
        fs.create_dir_all(&dir)?;
        Ok(Self {
            dir,
            stats: IoStats::new(),
            ids: RwLock::new(BTreeSet::new()),
            series_len: 0,
            read_only: false,
            fs,
            staged: RwLock::new(BTreeMap::new()),
            directories: RwLock::new(BTreeMap::new()),
            quarantined: RwLock::new(BTreeSet::new()),
            cache: None,
        })
    }

    /// The typed failure of reading entry `e`'s file at `path`.
    fn unreadable(err: io::Error, path: &Path, e: &PartitionEntry) -> OpenError {
        if err.kind() == io::ErrorKind::NotFound {
            OpenError::MissingPartition {
                id: e.id,
                path: path.to_path_buf(),
            }
        } else {
            OpenError::Io(err)
        }
    }

    /// Checks partition bytes against their manifest entry (size,
    /// checksum) and against the format itself: a file the manifest
    /// describes exactly but [`PartitionDirectory::parse`] would refuse —
    /// say a version this build does not read — or whose header claims
    /// another series length than the manifest's `series_len` (`0` =
    /// unknown) must fail here, by name, not open "healthy" and then read
    /// as empty in every scan. Returns the parsed directory.
    fn check_entry(
        bytes: &[u8],
        e: &PartitionEntry,
        series_len: u32,
    ) -> Result<PartitionDirectory, OpenError> {
        if bytes.len() as u64 != e.bytes {
            return Err(OpenError::PartitionSizeMismatch {
                id: e.id,
                expected: e.bytes,
                found: bytes.len() as u64,
            });
        }
        let found = xxh64(bytes, 0);
        if found != e.checksum {
            return Err(OpenError::ChecksumMismatch {
                what: format!("partition {}", e.id),
                expected: e.checksum,
                found,
            });
        }
        let corrupt = |reason| OpenError::CorruptPartition { id: e.id, reason };
        let parsed = PartitionDirectory::parse(bytes).map_err(corrupt)?;
        match parsed.series_len() as u32 {
            len if series_len != 0 && len != series_len => Err(corrupt(format!(
                "series length {len} ≠ manifest {series_len}"
            ))),
            _ => Ok(parsed),
        }
    }

    /// Opens a persisted index directory — the one store open. Loads the
    /// manifest through `fs` and validates every partition it lists:
    /// existence, byte range, content checksum, and the file's own header
    /// (CLBP magic and version). Any corruption or incompleteness
    /// surfaces here as a typed [`OpenError`] instead of a wrong answer
    /// later; ids are served from the manifest, so stray files are never
    /// picked up. Returns the store, the validated manifest, and the bytes
    /// warmed into `cache`.
    ///
    /// * `read_only` — [`put`](PartitionStore::put) fails with
    ///   `PermissionDenied`, **and the open itself only reads**, whatever
    ///   the other arguments say: committed bytes a crash left under a
    ///   `.new` sibling are served from there ([`fsio::read_committed`]);
    ///   temp droppings and stale siblings wait for the next writable
    ///   open, which installs or sweeps them.
    /// * `quarantine` — a failing partition no longer aborts the open: it
    ///   is recorded ([`quarantined`](PartitionStore::quarantined)) and,
    ///   when writable, its file moved into [`QUARANTINE_DIR`].
    /// * `cache` — each validation read, which a cacheless open checksums
    ///   and discards, is fed into the shared [`BlockCache`] as zero-copy
    ///   slices, one per cluster ([`BlockCache::try_warm`]: warming never
    ///   evicts what another index already holds, and stops at the first
    ///   cluster that does not fit, so at most one image is kept alive by
    ///   a part of it), and later cluster reads go through it.
    pub fn open_validated(
        dir: PathBuf,
        read_only: bool,
        fs: FsRef,
        quarantine: bool,
        cache: Option<Arc<BlockCache>>,
    ) -> Result<(Self, Manifest, u64), OpenError> {
        let manifest = Manifest::load_with(&*fs, &dir)?;
        let mut staged = BTreeMap::new();
        let mut directories = BTreeMap::new();
        let mut quarantined = BTreeSet::new();
        let cache = cache.map(|cache| StoreCache {
            cache,
            token: page::next_store_token(),
        });
        let mut warmed_bytes = 0u64;
        let mut warming = cache.is_some();
        for e in &manifest.partitions {
            let path = dir.join(partition_file_name(e.id));
            let sibling = staged_path_of(&dir, e.id);
            match fsio::read_committed(
                &*fs,
                &path,
                &sibling,
                !read_only,
                |b| Self::check_entry(b, e, manifest.series_len).map(drop),
                |err| Self::unreadable(err, &path, e),
            ) {
                Ok((bytes, is_staged)) => {
                    // Checked by the closure above; parsed again here,
                    // without re-hashing the image.
                    let parsed = PartitionDirectory::parse(&bytes)
                        .map_err(|reason| OpenError::CorruptPartition { id: e.id, reason })?;
                    if is_staged {
                        // Still under `.new`: reads go to the sibling,
                        // uncached, like any other staged partition.
                        staged.insert(e.id, None);
                    } else if let Some(sc) = cache.as_ref().filter(|_| warming) {
                        // Reuse the validation read: warm the cache so
                        // first-query latency after a cold open skips the
                        // filesystem entirely.
                        let image = Bytes::from(bytes);
                        warming = parsed
                            .for_each_picked(ClusterPick::Rest(&[]), |node, span, _| {
                                let len = span.len() as u64;
                                if !sc.cache.try_warm(sc.token, e.id, node, image.slice(span)) {
                                    return Err(());
                                }
                                warmed_bytes += len;
                                Ok(())
                            })
                            .is_ok();
                    }
                    directories.insert(e.id, parsed);
                }
                Err(first) if !quarantine => return Err(first),
                Err(_) => {
                    // Preserve the bad bytes aside and serve the rest of
                    // the index degraded.
                    if !read_only {
                        fs.create_dir_all(&dir.join(QUARANTINE_DIR)).ok();
                        fs.rename(&path, &quarantine_path_of(&dir, e.id)).ok();
                        fs.remove_file(&sibling).ok();
                    }
                    quarantined.insert(e.id);
                }
            }
        }
        // Sweep temp droppings from interrupted atomic writes.
        if !read_only {
            if let Ok(entries) = std::fs::read_dir(&dir) {
                for entry in entries.filter_map(|x| x.ok()) {
                    if let Some(name) = entry.file_name().to_str() {
                        if fsio::is_tmp_name(name) {
                            fs.remove_file(&entry.path()).ok();
                        }
                    }
                }
            }
        }
        let ids = manifest.partition_ids().into_iter().collect();
        Ok((
            Self {
                dir,
                stats: IoStats::new(),
                ids: RwLock::new(ids),
                series_len: manifest.series_len,
                read_only,
                fs,
                staged: RwLock::new(staged),
                directories: RwLock::new(directories),
                quarantined: RwLock::new(quarantined),
                cache,
            },
            manifest,
            warmed_bytes,
        ))
    }

    /// True when the store was opened read-only from a manifest.
    pub fn is_read_only(&self) -> bool {
        self.read_only
    }

    fn path_of(&self, id: PartitionId) -> PathBuf {
        self.dir.join(partition_file_name(id))
    }

    /// Root directory of the store.
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }

    /// Marks partition `id` quarantined and, when the store is writable,
    /// moves its main file into [`QUARANTINE_DIR`] — the scrub path for
    /// corruption found *after* open. A read-only store only marks it, as
    /// a read-only quarantining open does. Opening the id then fails until
    /// [`try_readmit`](Self::try_readmit) succeeds.
    pub fn quarantine_partition(&self, id: PartitionId) -> io::Result<()> {
        if !self.read_only {
            self.fs.create_dir_all(&self.dir.join(QUARANTINE_DIR))?;
            match self
                .fs
                .rename(&self.path_of(id), &quarantine_path_of(&self.dir, id))
            {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        self.quarantined.write().insert(id);
        if let Some(sc) = &self.cache {
            sc.cache.invalidate(sc.token, id);
        }
        Ok(())
    }

    /// Attempts to bring a quarantined partition back into service:
    /// either the main path now holds bytes matching the manifest entry
    /// (operator restored them), or — for a writable store — the
    /// quarantined copy itself validates (the original failure was
    /// transient) and is renamed back; a read-only store renames nothing.
    /// Returns `true` when the partition is healthy and serving again.
    pub fn try_readmit(&self, e: &PartitionEntry) -> io::Result<bool> {
        if !self.quarantined.read().contains(&e.id) {
            return Ok(true);
        }
        let main = self.path_of(e.id);
        let matching = |path: &Path| {
            let bytes = self.fs.read(path).ok()?;
            Self::check_entry(&bytes, e, self.series_len).ok()
        };
        let readmit = |parsed: PartitionDirectory| {
            self.directories.write().insert(e.id, parsed);
            self.quarantined.write().remove(&e.id);
            if let Some(sc) = &self.cache {
                sc.cache.invalidate(sc.token, e.id);
            }
        };
        if let Some(parsed) = matching(&main) {
            readmit(parsed);
            return Ok(true);
        }
        let qpath = quarantine_path_of(&self.dir, e.id);
        if !self.read_only {
            if let Some(parsed) = matching(&qpath) {
                self.fs.rename(&qpath, &main)?;
                self.fs.fsync_dir(&self.dir)?;
                readmit(parsed);
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Re-validates the committed bytes of `entry` against its manifest
    /// record — the scrub primitive for partitions not under quarantine.
    pub fn verify_partition(&self, e: &PartitionEntry) -> Result<(), OpenError> {
        let path = self.path_of(e.id);
        let bytes = (self.fs.read(&path)).map_err(|err| Self::unreadable(err, &path, e))?;
        Self::check_entry(&bytes, e, self.series_len).map(drop)
    }

    /// Where partition `id`'s current bytes are: its `.new` sibling while
    /// `staged` lists it, else the committed file.
    fn current_path(
        &self,
        staged: &BTreeMap<PartitionId, Option<PutReceipt>>,
        id: PartitionId,
    ) -> PathBuf {
        match staged.contains_key(&id) {
            true => staged_path_of(&self.dir, id),
            false => self.path_of(id),
        }
    }
}

impl PartitionStore for DiskStore {
    fn block_cache(&self) -> Option<Arc<BlockCache>> {
        self.cache.as_ref().map(|sc| Arc::clone(&sc.cache))
    }

    fn put<G>(&self, id: PartitionId, bytes: Bytes, publish: impl FnOnce() -> G) -> io::Result<G> {
        if self.is_read_only() {
            return Err(io::Error::new(
                io::ErrorKind::PermissionDenied,
                "store was opened read-only from a manifest",
            ));
        }
        // Only a partition image is staged; its shape goes on the receipt,
        // its directory serves the cluster reads.
        let parsed = PartitionDirectory::parse(&bytes).map_err(invalid_data)?;
        let receipt = PutReceipt {
            image_len: bytes.len() as u64,
            checksum: xxh64(&bytes, 0),
            records: parsed.record_count(),
            series_len: parsed.series_len() as u32,
        };
        self.stats.on_partition_write(bytes.len() as u64);
        // The committed file stays untouched: the image is *staged* under
        // its `.new` sibling (replaced atomically or not at all, see
        // `write_staged`) and renamed over it by `commit_staged` after the
        // next manifest commit. The seal pays the one directory fsync
        // covering every stage. The rename and the new directory land
        // together, between two cluster reads, in the caller's section.
        let path = staged_path_of(&self.dir, id);
        let lock = || (publish(), self.staged.write());
        let result = fsio::write_staged_under(&*self.fs, &path, &bytes, lock);
        let result = result.map(|(section, mut staged)| {
            staged.insert(id, Some(receipt));
            self.directories.write().insert(id, parsed);
            self.ids.write().insert(id);
            section
        });
        // Reads serve the sibling now: the old clusters are stale.
        if let Some(sc) = &self.cache {
            sc.cache.invalidate(sc.token, id);
        }
        result
    }

    fn receipt(&self, id: PartitionId) -> Option<PutReceipt> {
        self.staged.read().get(&id).copied().flatten()
    }

    fn open(&self, id: PartitionId) -> io::Result<PartitionReader> {
        let image = self.image(id)?;
        self.stats.on_partition_open();
        let reader = PartitionReader::open(image).map_err(invalid_data)?;
        self.stats.on_read(reader.header_bytes() as u64);
        Ok(reader)
    }

    /// Each cluster is a cache hit or one ranged read of exactly its bytes
    /// (then cached); the misses of one call share one open of the file.
    /// Staged (pre-commit) bytes never enter the cache: they are not the
    /// committed image yet and are replaced at the next commit.
    fn read_clusters(
        &self,
        id: PartitionId,
        pick: ClusterPick<'_>,
        out: &mut Vec<(TrieNodeId, ClusterView)>,
    ) -> io::Result<usize> {
        // Held over the reads below: no rename moves the file they read
        // while the directory says where its clusters lie.
        let staged = self.staged.read();
        if self.quarantined.read().contains(&id) {
            return Err(quarantined_error(id));
        }
        let directories = self.directories.read();
        let dir = directories
            .get(&id)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("partition {id}")))?;
        let cache = match staged.contains_key(&id) {
            true => None,
            false => self.cache.as_ref(),
        };
        let series_len = dir.series_len();
        // A hit goes out as found; a miss holds its place in `out` until
        // the one read of every miss fills it.
        let start = out.len();
        let mut misses: Vec<(usize, (u64, usize))> = Vec::new();
        dir.for_each_picked(pick, |node, span, count| {
            let hit = cache.and_then(|sc| sc.cache.get(sc.token, id, node));
            if hit.is_none() {
                misses.push((out.len(), (span.start as u64, span.len())));
            }
            out.push((
                node,
                ClusterView::new(hit.unwrap_or_default(), series_len, count),
            ));
            Ok::<(), io::Error>(())
        })?;
        if !misses.is_empty() {
            let ranges: Vec<(u64, usize)> = misses.iter().map(|&(_, range)| range).collect();
            let read = self
                .fs
                .read_ranges(&self.current_path(&staged, id), &ranges);
            let read = read.inspect_err(|_| out.truncate(start))?;
            for (&(i, _), bytes) in misses.iter().zip(read) {
                let (node, view) = &mut out[i];
                let bytes = Bytes::from(bytes);
                if let Some(sc) = cache {
                    sc.cache.insert(sc.token, id, *node, bytes.clone());
                }
                *view = ClusterView::new(bytes, series_len, view.len());
            }
        }
        if let ClusterPick::Named(_) = pick {
            self.stats.on_partition_open();
            self.stats.on_read(dir.header_bytes() as u64);
        }
        Ok(series_len)
    }

    fn image(&self, id: PartitionId) -> io::Result<Bytes> {
        if self.quarantined.read().contains(&id) {
            return Err(quarantined_error(id));
        }
        let path = self.current_path(&self.staged.read(), id);
        Ok(Bytes::from(self.fs.read(&path)?))
    }

    fn persist_dir(&self) -> Option<&std::path::Path> {
        Some(&self.dir)
    }

    fn fs(&self) -> FsRef {
        self.fs.clone()
    }

    fn commit_staged(&self) -> io::Result<()> {
        let pending: Vec<PartitionId> = self.staged.read().keys().copied().collect();
        for id in pending {
            let mut staged = self.staged.write();
            self.fs
                .rename(&staged_path_of(&self.dir, id), &self.path_of(id))?;
            staged.remove(&id);
            drop(staged);
            if let Some(sc) = &self.cache {
                sc.cache.invalidate(sc.token, id);
            }
        }
        Ok(())
    }

    fn quarantined(&self) -> Vec<PartitionId> {
        self.quarantined.read().iter().copied().collect()
    }

    fn ids(&self) -> Vec<PartitionId> {
        self.ids.read().iter().copied().collect()
    }

    fn stats(&self) -> &IoStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::PartitionWriter;
    use std::fs;

    fn encode_partition(group: u64, node: u64, n: usize) -> Bytes {
        let mut w = PartitionWriter::new(group, 2);
        let recs: Vec<(u64, Vec<f32>)> = (0..n)
            .map(|i| (i as u64, vec![i as f32, -(i as f32)]))
            .collect();
        w.push_cluster(node, recs.iter().map(|(id, v)| (*id, v.as_slice())));
        w.finish()
    }

    fn exercise_store<S: PartitionStore>(store: &S) {
        store.put(5, encode_partition(1, 10, 3), || ()).unwrap();
        store.put(2, encode_partition(2, 20, 1), || ()).unwrap();
        assert_eq!(store.ids(), vec![2, 5]);
        assert_eq!(store.len(), 2);

        let r = store.open(5).unwrap();
        assert_eq!(r.group_id(), 1);
        assert_eq!(r.record_count(), 3);

        let mut out = Vec::new();
        let n = (store.open(5).unwrap())
            .for_each_in_cluster(10, |rid, vals| out.push((rid, vals.to_vec())));
        assert_eq!(n, 3);
        assert_eq!(out[2], (2, vec![2.0, -2.0]));

        assert!(store.open(99).is_err());

        let snap = store.stats().snapshot();
        assert_eq!(snap.partitions_written, 2);
        // open(5) in test + open for the cluster read
        assert_eq!(snap.partitions_opened, 2);
        assert!(snap.bytes_read > 0);
    }

    #[test]
    fn mem_store_behaviour() {
        exercise_store(&MemStore::new());
    }

    #[test]
    fn disk_store_behaviour() {
        let dir = std::env::temp_dir().join(format!("climber-dfs-test-{}", std::process::id()));
        let store = DiskStore::create(&dir, fsio::std_fs()).unwrap();
        exercise_store(&store);
        fs::remove_dir_all(&dir).ok();
    }

    /// The parallel build writes distinct partitions from many threads at
    /// once through `&self` puts; both backends and the shared [`IoStats`]
    /// must hold up under that fan-out.
    fn exercise_concurrent_puts<S: PartitionStore>(store: &S) {
        rayon::scope(|s| {
            for pid in 0..16u32 {
                s.spawn(move |_| {
                    store
                        .put(
                            pid,
                            encode_partition(pid as u64, 1, 1 + pid as usize % 4),
                            || (),
                        )
                        .unwrap();
                });
            }
        });
        assert_eq!(store.ids(), (0..16).collect::<Vec<_>>());
        assert_eq!(store.stats().snapshot().partitions_written, 16);
        for pid in store.ids() {
            assert_eq!(store.open(pid).unwrap().group_id(), pid as u64);
        }
    }

    #[test]
    fn mem_store_concurrent_puts() {
        exercise_concurrent_puts(&MemStore::new());
    }

    #[test]
    fn disk_store_concurrent_puts() {
        let dir = std::env::temp_dir().join(format!("climber-dfs-conc-{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        let store = DiskStore::create(&dir, fsio::std_fs()).unwrap();
        exercise_concurrent_puts(&store);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn put_replaces_partition() {
        let store = MemStore::new();
        store.put(1, encode_partition(0, 1, 2), || ()).unwrap();
        store.put(1, encode_partition(0, 1, 5), || ()).unwrap();
        assert_eq!(store.open(1).unwrap().record_count(), 5);
        assert_eq!(store.ids(), vec![1]);
    }

    #[test]
    fn cached_disk_store_serves_hits_and_invalidates_on_put() {
        use crate::manifest::{FileEntry, FORMAT_VERSION};
        use crate::page::{BlockCache, CacheConfig};
        let dir = std::env::temp_dir().join(format!("climber-dfs-cache-{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        // A sealed one-partition directory: the cache attaches through a
        // validated open.
        let image = encode_partition(7, 1, 4);
        let build = DiskStore::create(&dir, fsio::std_fs()).unwrap();
        build.put(3, image.clone(), || ()).unwrap();
        build.commit_staged().unwrap();
        let partitions = vec![PartitionEntry {
            id: 3,
            bytes: image.len() as u64,
            checksum: xxh64(&image, 0),
            records: 4,
        }];
        Manifest {
            format_version: FORMAT_VERSION,
            config: Vec::new(),
            fingerprint: Manifest::fingerprint_of(2, 4, &partitions),
            num_records: 4,
            max_series_id: Some(3),
            series_len: 2,
            generation: 0,
            journal: None,
            skeleton: FileEntry {
                bytes: 0,
                checksum: 0,
            },
            partitions,
        }
        .write_atomic_with(&fsio::StdFs, &dir)
        .unwrap();
        let cache = Arc::new(BlockCache::new(CacheConfig::default()));
        let (store, _, warmed) = DiskStore::open_validated(
            dir.clone(),
            false,
            fsio::std_fs(),
            false,
            Some(Arc::clone(&cache)),
        )
        .unwrap();
        let header = PartitionDirectory::parse(&image).unwrap().header_bytes();
        assert_eq!(
            warmed,
            (image.len() - header) as u64,
            "the validation read is kept, a slice per cluster"
        );
        let read = |pick| {
            let mut out = Vec::new();
            store.read_clusters(3, pick, &mut out).unwrap();
            out.iter().map(|(_, view)| view.len()).sum::<usize>()
        };
        assert_eq!(read(ClusterPick::Named(&[1])), 4);
        assert_eq!(
            hits_misses(&cache),
            (1, 0),
            "first read hits the warmed cluster"
        );
        assert_eq!(read(ClusterPick::Named(&[1])), 4);
        assert_eq!(hits_misses(&cache), (2, 0), "second read hits");
        // A whole-image open goes past the cache.
        assert_eq!(store.open(3).unwrap().record_count(), 4);
        assert_eq!(hits_misses(&cache), (2, 0), "an open is uncached");
        // A rewrite invalidates: the staged image is read uncached, and
        // after the commit the first read misses, the second hits.
        store.put(3, encode_partition(7, 1, 9), || ()).unwrap();
        assert_eq!(read(ClusterPick::Named(&[1])), 9);
        assert_eq!(
            hits_misses(&cache),
            (2, 0),
            "the staged image bypasses the cache"
        );
        store.commit_staged().unwrap();
        assert_eq!(read(ClusterPick::Named(&[1])), 9);
        assert_eq!(hits_misses(&cache), (2, 1), "the old cluster is gone");
        assert_eq!(read(ClusterPick::Named(&[1])), 9);
        assert_eq!(hits_misses(&cache), (3, 1));
        // A named read counts an open, cached or not; the rest of an
        // opened partition counts none.
        let before = store.stats().snapshot();
        assert_eq!(read(ClusterPick::Named(&[1, 2])), 9);
        assert_eq!(read(ClusterPick::Rest(&[1])), 0);
        let diff = store.stats().snapshot().since(&before);
        assert_eq!(diff.partitions_opened, 1);
        fs::remove_dir_all(&dir).ok();
    }

    fn hits_misses(cache: &BlockCache) -> (u64, u64) {
        let stats = cache.stats();
        (stats.hits, stats.misses)
    }

    #[test]
    fn stored_bytes_default_matches_open_image() {
        let store = MemStore::new();
        let v1 = encode_partition(1, 4, 3);
        store.put(0, v1.clone(), || ()).unwrap();
        assert_eq!(&store.image(0).unwrap()[..], &v1[..]);
    }

    #[test]
    fn store_cluster_view_is_zero_copy_equivalent() {
        let store = MemStore::new();
        store.put(0, encode_partition(3, 11, 6), || ()).unwrap();
        let reader = store.open(0).unwrap();
        let view = reader.cluster_view(11).unwrap();
        assert_eq!(view.len(), 6);
        let mut decoded = Vec::new();
        (store.open(0).unwrap())
            .for_each_in_cluster(11, |id, vals| decoded.push((id, vals.to_vec())));
        let mut viewed = Vec::new();
        view.for_each(|id, vals| viewed.push((id, vals.to_vec())));
        assert_eq!(decoded, viewed);
        assert!(reader.cluster_view(999).is_none());
    }

    #[test]
    fn cluster_read_counts_only_cluster_bytes() {
        let store = MemStore::new();
        let mut w = PartitionWriter::new(9, 2);
        let big: Vec<(u64, Vec<f32>)> = (0..100).map(|i| (i, vec![0.0, 0.0])).collect();
        let small: Vec<(u64, Vec<f32>)> = vec![(999, vec![1.0, 1.0])];
        w.push_cluster(1, big.iter().map(|(id, v)| (*id, v.as_slice())));
        w.push_cluster(2, small.iter().map(|(id, v)| (*id, v.as_slice())));
        store.put(0, w.finish(), || ()).unwrap();

        let before = store.stats().snapshot();
        let mut out = Vec::new();
        (store.open(0).unwrap()).for_each_in_cluster(2, |id, vals| out.push((id, vals.to_vec())));
        let diff = store.stats().snapshot().since(&before);
        // One record of 16 bytes + header, far below the 100-record cluster.
        assert!(diff.bytes_read < 200, "read {} bytes", diff.bytes_read);
        assert_eq!(out.len(), 1);
    }
}
