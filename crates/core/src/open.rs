//! Opening a saved directory: one [`OpenOptions`] value, one body per
//! layer.
//!
//! A directory becomes a [`Climber`] or a [`ShardedClimber`] through
//! `open_dir` with some [`OpenOptions`]; `open`, `open_rw` and
//! `open_with_cache` are shorthands for the three combinations serving
//! uses. Underneath, [`DiskStore::open_validated`] validates the
//! partitions, `open_index` adds skeleton, journal and config, and
//! `open_shard` the shard set's generation and skeleton checks. Every
//! file a manifest references is read through [`fsio::read_committed`],
//! the one copy of the roll-forward protocol and of its `writable` gate:
//! **a read-only open performs no write, rename, remove or fsync,
//! whatever the policy** — it serves committed bytes from wherever a
//! crash left them and leaves every repair and sweep to the next
//! writable open.

use crate::error::ClimberError;
use crate::recover::{RecoveryPolicy, RecoveryReport};
use crate::shard::{shard_dir_name, ShardSetManifest, ShardedClimber, SHARD_SET_FILE};
use crate::{Climber, ClimberConfig, SKELETON_FILE};
use climber_dfs::format::Decode;
use climber_dfs::fsio::{self, FsRef};
use climber_dfs::manifest::{xxh64, FileEntry, Manifest, OpenError};
use climber_dfs::page::{BlockCache, CacheConfig};
use climber_dfs::segment::{self, Journal};
use climber_dfs::store::{DiskStore, PartitionStore};
use climber_index::skeleton::IndexSkeleton;
use std::io;
use std::path::Path;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};

/// How a saved directory is opened. The default is a read-only, strict,
/// cacheless open over the real filesystem ([`Climber::open`]); name the
/// fields that differ:
///
/// ```no_run
/// use climber_core::{Climber, OpenOptions, RecoveryPolicy};
///
/// let opts = OpenOptions {
///     writable: true,
///     policy: RecoveryPolicy::Quarantine,
///     ..OpenOptions::default()
/// };
/// let (index, report) = Climber::open_dir("/data/index", &opts)?;
/// # Ok::<(), climber_core::ClimberError>(())
/// ```
#[derive(Debug, Clone)]
pub struct OpenOptions {
    /// Accept [`append`](Climber::append) / [`delete`](Climber::delete) /
    /// [`flush`](Climber::flush) (else `PermissionDenied`), **and** let
    /// the open repair the directory: finish an interrupted seal's
    /// renames, sweep pre-commit stages and temp droppings, move
    /// quarantined files aside. A read-only open mutates nothing — it can
    /// run beside a live writer.
    pub writable: bool,
    /// What a partition that fails validation (missing, truncated,
    /// checksum mismatch, unreadable header) does to the open:
    /// [`Strict`](RecoveryPolicy::Strict) aborts it with a typed error;
    /// under [`Quarantine`](RecoveryPolicy::Quarantine) the partition is
    /// recorded in the [`RecoveryReport`] (and, when writable, moved into
    /// the directory's `QUARANTINE/`), queries degrade instead of erroring
    /// — [`search_many_with_status`](Climber::search_many_with_status)
    /// names it — and [`scrub`](Climber::scrub) re-admits it once its
    /// bytes are restored.
    pub policy: RecoveryPolicy,
    /// A block cache every partition open consults first; the open's
    /// validation reads pre-warm it ([`RecoveryReport::warmed_bytes`]).
    /// Entries are namespaced per store, so a group of indexes (a shard
    /// set always) shares one byte budget. Answers are bit-identical with
    /// and without it.
    pub cache: Option<Arc<BlockCache>>,
    /// The filesystem every read, write, fsync and rename goes through,
    /// from open validation to save/flush — the fault-injection seam
    /// ([`FaultFs`](climber_dfs::fsio::FaultFs)).
    pub fs: FsRef,
}

impl Default for OpenOptions {
    fn default() -> Self {
        Self {
            writable: false,
            policy: RecoveryPolicy::Strict,
            cache: None,
            fs: fsio::std_fs(),
        }
    }
}

impl OpenOptions {
    fn read_write() -> Self {
        Self {
            writable: true,
            ..Self::default()
        }
    }

    fn cached(policy: RecoveryPolicy, config: CacheConfig) -> Self {
        Self {
            writable: true,
            policy,
            cache: Some(Arc::new(BlockCache::new(config))),
            ..Self::default()
        }
    }
}

impl Climber<DiskStore> {
    /// Cold-starts a previously saved index: validates the manifest
    /// (magic, format version, self-checksum), every partition file's
    /// byte range and checksum, the skeleton's checksum, the
    /// manifest/skeleton partition-set agreement, and — when the manifest
    /// references one — the update journal's checksum and segment
    /// generation. Pending appends and deletes from the journal are
    /// restored, so queries see exactly the state that was saved, with no
    /// access to the original raw dataset.
    ///
    /// The index is **read-only** and so is the open: nothing in `dir` is
    /// touched. Every failure is a typed [`OpenError`] (surfaced as
    /// [`ClimberError::Open`]); opening never panics and never yields a
    /// silently wrong index.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, ClimberError> {
        Ok(Self::open_dir(dir, &OpenOptions::default())?.0)
    }

    /// [`open`](Self::open) with updates enabled: the exact same
    /// validation, but the store accepts partition rewrites, so the
    /// reopened index absorbs [`append`](Self::append) /
    /// [`delete`](Self::delete) and can [`flush`](Self::flush) them into
    /// its sealed partitions — the serve-and-ingest deployment mode.
    pub fn open_rw(dir: impl AsRef<Path>) -> Result<Self, ClimberError> {
        Ok(Self::open_dir(dir, &OpenOptions::read_write())?.0)
    }

    /// A read-write open under `policy` with a fresh block cache sized by
    /// `config` (see [`OpenOptions::cache`]).
    pub fn open_with_cache(
        dir: impl AsRef<Path>,
        policy: RecoveryPolicy,
        config: CacheConfig,
    ) -> Result<(Self, RecoveryReport), ClimberError> {
        Self::open_dir(dir, &OpenOptions::cached(policy, config))
    }

    /// Opens a saved index directory as `opts` says; the report is clean
    /// unless `opts.policy` is [`RecoveryPolicy::Quarantine`].
    pub fn open_dir(
        dir: impl AsRef<Path>,
        opts: &OpenOptions,
    ) -> Result<(Self, RecoveryReport), ClimberError> {
        Ok(open_index(dir.as_ref(), opts)?)
    }
}

fn open_index(
    dir: &Path,
    opts: &OpenOptions,
) -> Result<(Climber<DiskStore>, RecoveryReport), OpenError> {
    let (store, manifest, warmed_bytes) = DiskStore::open_validated(
        dir.to_path_buf(),
        !opts.writable,
        opts.fs.clone(),
        opts.policy == RecoveryPolicy::Quarantine,
        opts.cache.clone(),
    )?;
    let entry = manifest.skeleton;
    let (skel_bytes, _) = fsio::read_committed(
        &*opts.fs,
        &dir.join(SKELETON_FILE),
        &dir.join(format!("{SKELETON_FILE}.new")),
        opts.writable,
        |b| {
            let found = xxh64(&b, 0);
            if b.len() as u64 == entry.bytes && found == entry.checksum {
                Ok(b)
            } else {
                Err(OpenError::ChecksumMismatch {
                    what: "skeleton".into(),
                    expected: entry.checksum,
                    found,
                })
            }
        },
        OpenError::Io,
    )?;
    let skeleton = IndexSkeleton::from_bytes(&skel_bytes).map_err(OpenError::CorruptSkeleton)?;
    if skeleton.partition_ids() != manifest.partition_ids() {
        return Err(OpenError::StoreMismatch(format!(
            "skeleton references {} partitions, manifest lists {}",
            skeleton.num_partitions(),
            manifest.partitions.len()
        )));
    }
    let config = ClimberConfig::decode_vec(&manifest.config)
        .map_err(|e| OpenError::CorruptManifest(format!("config: {e}")))?;
    let journal = load_journal(dir, &manifest, opts)?;
    let report = RecoveryReport {
        quarantined_partitions: store.quarantined(),
        dead_shards: Vec::new(),
        warmed_bytes,
    };
    let mut c = Climber::assemble(skeleton, store, config, None);
    // The manifest records the largest stored id, so cold start needs
    // no full scan to seed the append counter.
    c.next_id = AtomicU64::new(manifest.max_series_id.map_or(0, |m| m + 1));
    c.delta = journal.delta;
    c.tombstones = journal.tombstones;
    c.generation = AtomicU64::new(manifest.generation);
    c.series_len.set(manifest.series_len as usize);
    c.sealed = Mutex::new(Some(manifest));
    c.writable = opts.writable;
    c.mark_ready();
    Ok((c, report))
}

/// Reads, validates and decodes the update journal the manifest
/// references; an empty [`Journal`] when it references none.
fn load_journal(dir: &Path, m: &Manifest, opts: &OpenOptions) -> Result<Journal, OpenError> {
    let fs = &*opts.fs;
    let path = segment::journal_path(dir);
    let staged = segment::staged_journal_path(dir);
    let Some(entry) = &m.journal else {
        if opts.writable {
            // A crash before the manifest commit can leave a staged
            // journal the committed manifest never references —
            // pre-commit garbage, swept like a `.new` partition.
            fs.remove_file(&staged).ok();
        }
        return Ok(Journal::default());
    };
    let (bytes, _) = fsio::read_committed(
        fs,
        &path,
        &staged,
        opts.writable,
        |b| {
            if b.len() as u64 != entry.bytes {
                return Err(OpenError::CorruptJournal(format!(
                    "journal is {} bytes, manifest says {}",
                    b.len(),
                    entry.bytes
                )));
            }
            let found = xxh64(&b, 0);
            if found != entry.checksum {
                return Err(OpenError::ChecksumMismatch {
                    what: "journal".into(),
                    expected: entry.checksum,
                    found,
                });
            }
            Ok(b)
        },
        |e| match e.kind() {
            io::ErrorKind::NotFound => OpenError::MissingJournal(path.clone()),
            _ => OpenError::Io(e),
        },
    )?;
    let journal = segment::decode_journal(&bytes).map_err(OpenError::CorruptJournal)?;
    let series_len = journal.delta.series_len();
    if series_len != 0 && series_len != m.series_len as usize {
        return Err(OpenError::CorruptJournal(format!(
            "journal series length {series_len} ≠ manifest {}",
            m.series_len
        )));
    }
    if journal.generation != m.generation {
        return Err(OpenError::StaleGeneration {
            manifest: m.generation,
            journal: journal.generation,
        });
    }
    Ok(journal)
}

impl ShardedClimber<DiskStore> {
    /// Cold-starts a saved shard set **read-only**: validates the
    /// super-manifest (magic, version, self-checksum), opens every shard
    /// through the full single-index validation, and cross-checks each
    /// shard's generation against the set's sealed snapshot and its
    /// skeleton against the first live shard's. Any per-shard failure — a
    /// missing directory, a corrupt partition, a drifted generation, a
    /// shard of another build — surfaces as [`OpenError::Shard`] naming
    /// the shard.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, ClimberError> {
        Ok(Self::open_dir(dir, &OpenOptions::default())?.0)
    }

    /// [`open`](Self::open) with updates enabled on every shard — the
    /// serve-and-ingest mode of the whole set.
    pub fn open_rw(dir: impl AsRef<Path>) -> Result<Self, ClimberError> {
        Ok(Self::open_dir(dir, &OpenOptions::read_write())?.0)
    }

    /// A read-write open under `policy` with **one** fresh block cache,
    /// sized by `config`, shared by every shard: a single byte budget and
    /// a single LRU serve the whole set (see [`OpenOptions::cache`]).
    pub fn open_with_cache(
        dir: impl AsRef<Path>,
        policy: RecoveryPolicy,
        config: CacheConfig,
    ) -> Result<(Self, RecoveryReport), ClimberError> {
        Self::open_dir(dir, &OpenOptions::cached(policy, config))
    }

    /// Opens a saved shard set, every shard under the same `opts` (one
    /// cache, one filesystem), and remembers them: [`scrub`](Self::scrub)
    /// re-opens a repaired shard exactly as its siblings were opened.
    ///
    /// Under [`RecoveryPolicy::Strict`] the first shard that fails aborts
    /// the open with [`OpenError::Shard`]. Under
    /// [`RecoveryPolicy::Quarantine`] partitions that fail validation are
    /// quarantined *inside* their shard, and a shard that cannot open at
    /// all — corrupt manifest or skeleton, drifted generation, a skeleton
    /// its live siblings do not share — is left
    /// as a **dead slot**, reported unhealthy in every query's
    /// [`ShardStatus`](crate::ShardStatus); routing depends only on the
    /// persisted shard count and router seed, so it is stable across
    /// quarantine, repair and reopen. The open still fails when *no*
    /// shard opens (nothing left to serve).
    pub fn open_dir(
        dir: impl AsRef<Path>,
        opts: &OpenOptions,
    ) -> Result<(Self, RecoveryReport), ClimberError> {
        let dir = dir.as_ref();
        let path = dir.join(SHARD_SET_FILE);
        let bytes = opts.fs.read(&path).map_err(|e| match e.kind() {
            io::ErrorKind::NotFound => OpenError::MissingManifest(path),
            _ => OpenError::Io(e),
        })?;
        let sm = ShardSetManifest::decode(&bytes).map_err(OpenError::CorruptShardSet)?;
        let mut report = RecoveryReport::default();
        let mut shards = Vec::with_capacity(sm.generations.len());
        // The first live shard's skeleton is the one every other must carry.
        let mut skeleton = None;
        for (i, &generation) in sm.generations.iter().enumerate() {
            match open_shard(dir, i, generation, skeleton, opts) {
                Ok((shard, r)) => {
                    report
                        .quarantined_partitions
                        .extend(r.quarantined_partitions);
                    report.warmed_bytes += r.warmed_bytes;
                    skeleton = skeleton.or(shard.sealed_skeleton());
                    shards.push(Some(shard));
                }
                Err(e) if opts.policy == RecoveryPolicy::Strict => {
                    return Err(OpenError::Shard {
                        shard: i,
                        source: Box::new(e),
                    }
                    .into())
                }
                Err(_) => {
                    report.dead_shards.push(i);
                    shards.push(None);
                }
            }
        }
        if shards.iter().all(Option::is_none) {
            return Err(
                OpenError::CorruptShardSet("every shard of the set failed to open".into()).into(),
            );
        }
        Ok((Self::from_slots(shards, sm, opts.clone()), report))
    }
}

/// Opens shard `shard` of the set under `dir` and checks it is at the
/// generation the set sealed and shares its live siblings' `skeleton`
/// (every fresh build is generation 0) — the one per-shard open, shared
/// by [`ShardedClimber::open_dir`] and the dead-slot retry of
/// [`ShardedClimber::scrub`].
pub(crate) fn open_shard(
    dir: &Path,
    shard: usize,
    sealed_generation: u64,
    skeleton: Option<FileEntry>,
    opts: &OpenOptions,
) -> Result<(Climber<DiskStore>, RecoveryReport), OpenError> {
    let (index, report) = open_index(&dir.join(shard_dir_name(shard)), opts)?;
    if index.generation() != sealed_generation {
        return Err(OpenError::CorruptShardSet(format!(
            "shard generation {} disagrees with the shard set's sealed {sealed_generation}",
            index.generation(),
        )));
    }
    if skeleton.is_some_and(|want| Some(want) != index.sealed_skeleton()) {
        return Err(OpenError::CorruptShardSet(
            "shard skeleton disagrees with its siblings': a shard of another build".into(),
        ));
    }
    Ok((index, report))
}
