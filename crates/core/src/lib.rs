//! # CLIMBER — pivot-based approximate similarity search over big data series
//!
//! A from-scratch Rust reproduction of *"CLIMBER++: Pivot-Based Approximate
//! Similarity Search over Big Data Series"* (ICDE 2024). CLIMBER extracts a
//! dual pivot-permutation-prefix signature from every series (rank-sensitive
//! `P4→` and rank-insensitive `P4↛`), organises the data into a two-level
//! index — rank-insensitive *groups* refined by rank-sensitive *tries* into
//! capacity-bounded partitions — and answers approximate kNN queries by
//! navigating that index and refining with Euclidean distance inside a
//! handful of partitions.
//!
//! ## Quick start
//!
//! ```
//! use climber_core::{Climber, ClimberConfig};
//! use climber_core::series::gen::Domain;
//!
//! // 1. a dataset of 2 000 random-walk series (the standard benchmark)
//! let data = Domain::RandomWalk.generate(2_000, 42);
//!
//! // 2. build the index in memory (`build_on_disk` writes the same files
//! //    to a directory)
//! let config = ClimberConfig::default()
//!     .with_pivots(64)
//!     .with_prefix_len(8)
//!     .with_capacity(250)
//!     .with_alpha(0.2);
//! let climber = Climber::build_in_memory(&data, config);
//!
//! // 3. approximate 10-NN of any query series, through the unified
//! //    request API (`SearchRequest` defaults to Adaptive-4X, the
//! //    paper's default variation)
//! use climber_core::SearchRequest;
//! let answer = climber.search(&SearchRequest::new(data.get(17), 10));
//! assert_eq!(answer.results.len(), 10);
//! assert_eq!(answer.results[0].0, 17); // the query itself is indexed
//!
//! // 4. the approximate answer overlaps the exact one (recall@10 > 0)
//! use climber_core::series::{exact_knn, recall};
//! let exact = exact_knn(&data, data.get(17), 10);
//! let approx_ids: Vec<u64> = answer.results.iter().map(|&(id, _)| id).collect();
//! let exact_ids: Vec<u64> = exact.iter().map(|&(id, _)| id).collect();
//! assert!(recall(&approx_ids, &exact_ids) > 0.0);
//! ```
//!
//! The sibling crates are re-exported under short names: [`series`]
//! (datasets, generators, ground truth), [`repr`] (PAA/SAX/iSAX),
//! [`pivot`] (signatures and metrics), [`dfs`] (storage substrate),
//! [`index`] (skeleton/builder), [`query`] (search algorithms) and
//! [`baselines`] (Dss, DPiSAX-like, TARDIS-like, LSH, HNSW, Odyssey-like).

#![warn(missing_docs)]

pub mod error;
pub mod open;
pub mod recover;
pub mod shard;

pub use climber_baselines as baselines;
pub use climber_dfs as dfs;
pub use climber_index as index;
pub use climber_pivot as pivot;
pub use climber_query as query;
pub use climber_repr as repr;
pub use climber_series as series;

pub use climber_dfs::manifest::{Manifest, OpenError, FORMAT_VERSION, MANIFEST_FILE};
pub use climber_dfs::page::{BlockCache, BlockCacheStats, CacheConfig};
pub use climber_dfs::segment::{DeltaSegment, TombstoneSet, JOURNAL_FILE};
pub use climber_dfs::stats::IoSnapshot;
pub use climber_index::builder::{BuildOptions, BuildReport};
pub use climber_index::config::IndexConfig as ClimberConfig;
pub use climber_index::skeleton::IndexSkeleton;
pub use climber_query::plan::QueryOutcome;
pub use climber_query::search::{SearchMode, SearchRequest};
pub use climber_query::updates::UpdateView;
pub use error::{ClimberError, ServeError};
pub use open::OpenOptions;
pub use recover::{BackendHealth, RecoveryPolicy, RecoveryReport, ScrubReport};
pub use shard::{ShardSetManifest, ShardStatus, ShardedClimber, SHARD_SET_FILE};

use climber_dfs::format::{fold_partition, image_len, ClusterRecords, Encode, TrieNodeId};
use climber_dfs::fsio;
use climber_dfs::manifest::{xxh64, FileEntry, PartitionEntry};
use climber_dfs::segment;
use climber_dfs::store::{DiskStore, Layout, PartitionId, PartitionStore};
use climber_index::builder::IndexBuilder;
use climber_pivot::signature::SignatureScratch;
use climber_query::exec::{execute, SeriesLen, Source};
use climber_series::dataset::Dataset;
use std::collections::BTreeSet;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Name of the skeleton file inside an index directory.
pub const SKELETON_FILE: &str = "skeleton.clsk";

/// What one flush or compaction did to the index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaintenanceReport {
    /// Partitions whose base image this fold rewrote: every partition a
    /// compaction folds, and a flush's partitions whose extension images
    /// would outgrow their share of the base (or, at a merge, that have
    /// no pending records).
    pub partitions_rewritten: usize,
    /// Partitions this fold gave an extension image in its pack — a new
    /// one, or one merging its extensions — instead of rewriting the base.
    pub partitions_extended: usize,
    /// Delta records folded into sealed partitions: every record pending
    /// when the fold began but one a base rewrite purged (counted there).
    /// Records a merge or a base rewrite copies again from earlier
    /// extension images are not counted.
    pub records_folded: u64,
    /// Tombstoned records physically removed: every base rewrite drops the
    /// tombstoned records it holds (a flush that only extends drops none).
    pub records_purged: u64,
    /// Tombstones still pending after the fold (a base rewrite clears
    /// exactly the ids it dropped; a compaction clears every one).
    pub tombstones_remaining: u64,
    /// Segment generation after the fold.
    pub generation: u64,
}

/// Flushes whose packs may be live at once: a flush that would add one
/// more merges every partition's extension images. Each partition holds
/// at most one image of a flush, so a cluster read touches at most
/// `1 + MAX_EXTENSIONS` images.
const MAX_EXTENSIONS: usize = 4;

/// A partition's extension images hold at most `1 / EXTENSION_SHARE` of
/// its base image's bytes, checked when a merge folds them: one that would
/// pass it is rewritten into one base image instead, so records are
/// copied a bounded number of times (the log-structured merge rule).
const EXTENSION_SHARE: u64 = 4;

/// Bytes of extension images one pack holds at most, by their predicted
/// sizes (records appended while the fold runs may add a few): a merging
/// flush writes a few packs, and the images a fold holds at once stay
/// bounded.
const PACK_BYTES: u64 = 4 << 20;

/// What a fold does to one partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fold {
    /// A new extension image holding the pending records.
    Extend,
    /// One extension image holding the extensions and the pending records.
    Merge,
    /// One base image holding the base, the extensions and the pending
    /// records, minus every tombstoned id.
    Rewrite,
}

/// What a fold does to one partition, decided before any image is built:
/// the fold, the partition's layout, and the predicted image length a pack
/// is cut by.
struct Planned {
    pid: PartitionId,
    fold: Fold,
    layout: Layout,
    predicted: u64,
}

/// One partition's folded image, built and not yet written: how many
/// records it copied from each delta run (the prefix its publish retires)
/// and its counts.
struct Folded {
    pid: PartitionId,
    image: fsio::Bytes,
    copied: Vec<(TrieNodeId, usize)>,
    done: FoldDone,
}

/// What one partition's fold did, once published.
struct FoldDone {
    fold: Fold,
    /// Delta records the image holds.
    folded: u64,
    /// The tombstoned ids the image dropped.
    purged: Vec<u64>,
}

/// A built CLIMBER index: skeleton + partition store + build report.
///
/// The sealed partitions are immutable; live updates accumulate in two
/// mutable segments — a [`DeltaSegment`] of appended records (routed with
/// the frozen skeleton, O(record) per append) and a [`TombstoneSet`] of
/// deleted ids — which every query path merges into the sealed candidate
/// stream. [`flush`](Self::flush) / [`compact`](Self::compact) fold the
/// segments back into rewritten partitions, and [`save`](Self::save)
/// persists unfolded segments as a journal next to the manifest so
/// [`open_rw`](Self::open_rw) restores a fully writable index.
#[derive(Debug)]
pub struct Climber<S: PartitionStore = DiskStore> {
    skeleton: IndexSkeleton,
    store: S,
    config: ClimberConfig,
    /// Execution options the index was built with; [`save`](Self::save)
    /// reuses the same thread count for its checksum/copy fan-out.
    build_options: BuildOptions,
    report: Option<BuildReport>,
    /// Next series id for appends (1 + the largest stored id).
    next_id: AtomicU64,
    /// Appended-but-unflushed records, clustered by `(partition, node)`.
    delta: DeltaSegment,
    /// Logically deleted ids, filtered out of every query.
    tombstones: TombstoneSet,
    /// Segment generation: bumped whenever a flush/compaction rewrites
    /// sealed partitions; persisted in the manifest and the journal.
    generation: AtomicU64,
    /// False only for indexes opened via [`Climber::open`]: updates are
    /// rejected with `PermissionDenied` (use [`Climber::open_rw`]).
    writable: bool,
    /// True while a fold may have staged partitions that the on-disk
    /// manifest does not yet describe (set before the rewrites, cleared by
    /// a successful re-seal of the home directory). A later flush or save
    /// repairs the directory even when the fold itself has nothing left
    /// to do.
    reseal_owed: std::sync::atomic::AtomicBool,
    /// The manifest last committed to the store's home directory by this
    /// instance (or the one it was opened from): what an incremental
    /// re-seal refreshes, held so a fold never re-reads and re-validates
    /// its own commit. `None` until the first seal of an unopened index.
    sealed: Mutex<Option<Manifest>>,
    /// Held for the whole of every fold and every save: a fold splices a
    /// snapshot of the delta's runs and then retires exactly that prefix,
    /// so two folds must never copy the same records, and a seal must
    /// never journal a delta a fold is halfway through. It guards no data:
    /// a fold that panicked poisons nothing, its runs never left the delta.
    maintenance: Mutex<()>,
    /// Store I/O at the moment the index became servable; the zero point
    /// for [`serve_io`](Self::serve_io). A seal reads through the
    /// unaccounted [`PartitionStore::image`], so [`save`](Self::save)
    /// never moves it.
    ready_io: IoSnapshot,
    /// The indexed series length, known from the manifest (open), the
    /// dataset (build) or the id-seeding scan (`from_parts`): no query
    /// opens a partition to learn it.
    series_len: SeriesLen,
}

impl Climber<DiskStore> {
    /// Builds an index in memory: [`build_on_disk`](Self::build_on_disk)
    /// into a directory of an in-memory filesystem
    /// ([`DiskStore::in_memory`]) — the same files, written, sealed and
    /// folded by the same protocol, with nothing on a disk. Combine with
    /// [`save`](Self::save) for build/serve process separation. Build
    /// parallelism follows `config.workers`; use
    /// [`build_in_memory_with`](Self::build_in_memory_with) for explicit
    /// thread/block control.
    pub fn build_in_memory(ds: &Dataset, config: ClimberConfig) -> Self {
        Self::build_in_memory_with(
            ds,
            config,
            BuildOptions::default().with_threads(config.workers),
        )
    }

    /// Builds an in-memory index with explicit [`BuildOptions`] — every
    /// build phase fans out across `options` threads in record blocks,
    /// producing output bit-identical to any other thread count.
    pub fn build_in_memory_with(
        ds: &Dataset,
        config: ClimberConfig,
        options: BuildOptions,
    ) -> Self {
        Self::build_into(DiskStore::in_memory(), ds, config, options)
            .expect("an in-memory build has no I/O to fail")
    }

    /// Builds a disk-backed index under `dir` — partition files, the
    /// serialised skeleton, and the checksummed [`Manifest`] — the
    /// paper's deployment mode. The directory can be reopened cold with
    /// [`Climber::open`], in this or any later process.
    pub fn build_on_disk(
        ds: &Dataset,
        dir: impl AsRef<Path>,
        config: ClimberConfig,
    ) -> Result<Self, ClimberError> {
        Self::build_on_disk_with(
            ds,
            dir,
            config,
            BuildOptions::default().with_threads(config.workers),
        )
    }

    /// [`build_on_disk`](Self::build_on_disk) with explicit
    /// [`BuildOptions`]: build phases and partition writes fan out across
    /// `options` threads. The resulting directory is byte-identical for
    /// any thread count.
    ///
    /// Partitions stream to disk as they are built, each staged like a
    /// fold's rewrite, and the sealing save commits them from the entries
    /// their puts recorded — every partition is written once and never
    /// read back by the seal. An index a previous build left in `dir`
    /// stays committed until the new manifest is.
    pub fn build_on_disk_with(
        ds: &Dataset,
        dir: impl AsRef<Path>,
        config: ClimberConfig,
        options: BuildOptions,
    ) -> Result<Self, ClimberError> {
        let store = DiskStore::create(dir.as_ref(), fsio::std_fs())?;
        Self::build_into(store, ds, config, options)
    }

    /// Builds `ds` into the empty `store` and seals its directory.
    fn build_into(
        store: DiskStore,
        ds: &Dataset,
        config: ClimberConfig,
        options: BuildOptions,
    ) -> Result<Self, ClimberError> {
        let builder = IndexBuilder::with_options(config, options);
        let (skeleton, mut report) =
            builder.build_with_put(ds, |pid, image| store.put(pid, image, || ()))?;
        // The store is new: everything it counted is the build's.
        report.io = store.stats().snapshot();
        let next_id = ds.num_series() as u64;
        let c = Self::built(skeleton, store, config, options, Some(report), ds, next_id);
        c.save(c.store.dir())?;
        Ok(c)
    }

    /// Re-verifies every committed partition of the home directory
    /// against the sealed manifest — the self-healing maintenance pass:
    ///
    /// * healthy partitions are re-read and re-checksummed;
    /// * fresh damage is quarantined so queries degrade instead of
    ///   erroring — a writable index moves the file into `QUARANTINE/`,
    ///   a read-only one only marks it, and so never touches the
    ///   directory;
    /// * previously quarantined partitions are re-admitted when their
    ///   main file matches the manifest again (operator restored it) or,
    ///   writable only, the quarantined copy itself validates.
    ///
    /// Returns what the pass found and did; see [`ScrubReport`].
    pub fn scrub(&self) -> Result<ScrubReport, ClimberError> {
        let dir = self.store.dir().to_path_buf();
        let fs = self.store.fs();
        let manifest = Manifest::load_with(&*fs, &dir)?;
        let quarantined: BTreeSet<PartitionId> = self.store.quarantined().into_iter().collect();
        let mut report = ScrubReport::default();
        for e in &manifest.partitions {
            if quarantined.contains(&e.id) {
                if self.store.try_readmit(e).map_err(ClimberError::Io)? {
                    report.readmitted.push(e.id);
                } else {
                    report.still_quarantined.push(e.id);
                }
            } else {
                report.partitions_checked += 1;
                match self.store.verify_partition(e) {
                    Ok(()) => report.partitions_ok += 1,
                    Err(_) => {
                        self.store
                            .quarantine_partition(e.id)
                            .map_err(ClimberError::Io)?;
                        report.quarantined.push(e.id);
                    }
                }
            }
        }
        Ok(report)
    }
}

impl<S: PartitionStore> Climber<S> {
    /// Wraps an existing skeleton + store (advanced; used by the bench
    /// harness to share stores between algorithms). The configuration is
    /// reconstructed from the skeleton's persisted parameters; build-only
    /// knobs (α, capacity, workers) take their defaults.
    pub fn from_parts(skeleton: IndexSkeleton, store: S) -> Self {
        let config = ClimberConfig::default()
            .with_paa_segments(skeleton.paa_segments)
            .with_pivots(skeleton.pivots.len())
            .with_prefix_len(skeleton.prefix_len)
            .with_decay(skeleton.decay)
            .with_seed(skeleton.seed);
        let mut c = Self::assemble(skeleton, store, config, None);
        c.seed_next_id_by_scan();
        c.mark_ready();
        c
    }

    /// The index a build of `ds` just wrote into `store`, whose largest
    /// stored id is `next_id - 1`: the append counter and the series
    /// length come from the build, so no partition is opened to learn
    /// them.
    pub(crate) fn built(
        skeleton: IndexSkeleton,
        store: S,
        config: ClimberConfig,
        options: BuildOptions,
        report: Option<BuildReport>,
        ds: &Dataset,
        next_id: u64,
    ) -> Self {
        let mut c = Self::assemble(skeleton, store, config, report);
        c.build_options = options;
        c.next_id = AtomicU64::new(next_id);
        c.series_len.set(ds.series_len());
        c.mark_ready();
        c
    }

    fn assemble(
        skeleton: IndexSkeleton,
        store: S,
        config: ClimberConfig,
        report: Option<BuildReport>,
    ) -> Self {
        Self {
            skeleton,
            store,
            config,
            build_options: BuildOptions::default(),
            report,
            next_id: AtomicU64::new(0),
            delta: DeltaSegment::new(),
            tombstones: TombstoneSet::new(),
            generation: AtomicU64::new(0),
            writable: true,
            reseal_owed: std::sync::atomic::AtomicBool::new(false),
            sealed: Mutex::new(None),
            maintenance: Mutex::new(()),
            ready_io: IoSnapshot::default(),
            series_len: SeriesLen::default(),
        }
    }

    /// Snapshots store I/O as the serve-phase zero point. Called at the
    /// end of every constructor so build reads/writes are never
    /// double-counted into serve-phase measurements.
    fn mark_ready(&mut self) {
        self.ready_io = self.store.stats().snapshot();
    }

    /// Persists the index into `dir` as a self-validating directory:
    /// every partition file, the serialised skeleton, and — written last,
    /// via temp file + atomic rename — the [`Manifest`] holding the
    /// format version, the build [`ClimberConfig`], a dataset
    /// fingerprint, and per-file byte ranges + xxHash64 checksums.
    ///
    /// An index built in memory saves into a real directory this way, to
    /// be handed to a separate serve process. A crash before the final
    /// rename leaves no valid manifest, so [`Climber::open`] can never
    /// observe a half-written index. Returns the written manifest.
    ///
    /// Into the store's own directory this is a seal of what the store
    /// holds. Into any other, every partition is read as one image and
    /// [put](PartitionStore::put) into a new [`DiskStore`] there, fanned
    /// out over the build's threads, and that store is sealed: the same
    /// stage → commit → install protocol a build runs. Those reads are not
    /// store I/O: they never show in [`serve_io`](Self::serve_io).
    pub fn save(&self, dir: impl AsRef<Path>) -> Result<Manifest, ClimberError> {
        let _serial = (self.maintenance.lock()).unwrap_or_else(PoisonError::into_inner);
        let dir = dir.as_ref();
        if dir == self.store.dir() {
            return Ok(self.seal(&self.store, None)?);
        }
        let target = DiskStore::create(dir, self.store.fs())?;
        let cluster = climber_dfs::cluster::Cluster::new(self.build_options.resolved_threads());
        let copied = cluster.par_map(self.store.ids(), |pid| {
            target.put(pid, self.store.image(pid)?, || ())
        });
        copied.into_iter().collect::<io::Result<()>>()?;
        Ok(self.seal(&target, None)?)
    }

    /// Seals `store`'s directory: this index's own store, or the one a
    /// save into another directory filled. `refresh`, when given, is the
    /// manifest last committed to the store's directory: a partition the
    /// store cannot describe (a quarantined one) keeps its entry verbatim.
    /// Every other partition is described by what the store holds — the
    /// entries of the images it published and of those it was opened with
    /// — so a seal reads no partition.
    ///
    /// Crash-consistency protocol: nothing a committed manifest references
    /// is overwritten before the next manifest commits. New bytes are
    /// staged beside the committed files (`.new` siblings, each fsynced),
    /// **one** directory fsync makes every stage durable, the manifest —
    /// describing the staged state — is written atomically as the commit
    /// point, and only then are the stages renamed into place. A crash
    /// before the commit leaves the old directory byte-identical (stages
    /// match no manifest and are swept at open); a crash after it is
    /// rolled forward at open from the surviving `.new` siblings.
    fn seal<T: PartitionStore>(
        &self,
        store: &T,
        refresh: Option<&Manifest>,
    ) -> io::Result<Manifest> {
        let (dir, fs) = (store.dir(), store.fs());
        fs.create_dir_all(dir)?;
        let ids = store.ids();
        if ids.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "cannot save an index with no partitions",
            ));
        }
        let home = dir == self.store.dir();
        let mut partitions = Vec::with_capacity(ids.len());
        for pid in ids {
            let prev = || refresh.and_then(|prev| prev.partition(pid)).cloned();
            let e = store.entry(pid).or_else(prev).ok_or_else(|| {
                let unserved = format!("partition {pid} is quarantined");
                io::Error::new(io::ErrorKind::NotFound, unserved)
            })?;
            partitions.push(e);
        }
        let num_records = partitions.iter().map(PartitionEntry::total_records).sum();
        let series_len = (self.series_len()).map_or_else(
            || refresh.map_or(0, |prev| prev.series_len),
            |len| len as u32,
        );
        // The skeleton's bytes are invariant after the build, so a re-seal
        // of the home directory finds the manifest it last committed there
        // already describing them and touches nothing. Otherwise the file
        // is compared on disk: an identical one stays, a differing one
        // (sealing into a foreign directory) is staged and installed after
        // the commit point like any partition.
        let skel = self.skeleton.to_bytes();
        let skeleton = FileEntry {
            bytes: skel.len() as u64,
            checksum: xxh64(&skel, 0),
        };
        let skel_path = dir.join(SKELETON_FILE);
        let skel_staged_path = dir.join(format!("{SKELETON_FILE}.new"));
        let sealed_here =
            home && self.sealed.lock().unwrap().as_ref().map(|m| m.skeleton) == Some(skeleton);
        let skel_staged = !sealed_here
            && match fs.read(&skel_path) {
                Ok(cur) if *cur == *skel => false,
                Err(e) if e.kind() == io::ErrorKind::NotFound => {
                    // First seal of this directory: no committed manifest can
                    // reference a skeleton yet, write it directly.
                    fsio::write_file_atomic_with(&*fs, &skel_path, &skel)?;
                    false
                }
                _ => {
                    fsio::write_staged(&*fs, &skel_staged_path, &skel)?;
                    true
                }
            };
        // Unfolded mutable segments persist as a journal next to the
        // partitions; the manifest references it (size + checksum) under
        // the current segment generation, so a reopen can never replay a
        // journal against partitions from a different fold. The journal
        // is staged too: the committed `journal.cldj` keeps describing
        // the committed manifest until the new one lands.
        let generation = self.generation.load(Ordering::Relaxed);
        let journal = if self.delta.is_empty() && self.tombstones.is_empty() {
            // Nothing pending: any journal a previous save left behind is
            // dropped after the commit point below.
            None
        } else {
            Some(segment::stage_journal(
                &*fs,
                dir,
                generation,
                &self.delta,
                &self.tombstones,
            )?)
        };
        let m = Manifest {
            format_version: FORMAT_VERSION,
            config: self.config.encode_vec(),
            fingerprint: Manifest::fingerprint_of(series_len, num_records, &partitions),
            num_records,
            max_series_id: self.next_id.load(Ordering::Relaxed).checked_sub(1),
            series_len,
            generation,
            journal,
            skeleton,
            partitions,
        };
        // ---- the single pre-commit barrier: every stage above (and every
        // stage the store's own puts made) was file-fsynced; this makes
        // their directory entries durable before the manifest can be.
        fs.fsync_dir(dir)?;
        // ---- commit point: the manifest now describes the staged state.
        // Everything below only installs what the manifest already
        // references; an interruption anywhere is rolled forward by the
        // next open.
        m.write_atomic_with(&*fs, dir)?;
        if home {
            // The home directory commits `m` from here on, whatever of the
            // install fails: the next re-seal refreshes it.
            *self.sealed.lock().unwrap() = Some(m.clone());
        }
        store.commit_staged()?;
        if skel_staged {
            fs.rename(&skel_staged_path, &skel_path)?;
        }
        if m.journal.is_some() {
            segment::commit_staged_journal(&*fs, dir)?;
        } else {
            segment::discard_journal(&*fs, dir);
        }
        fs.fsync_dir(dir)?;
        // The home directory (if any) now describes the store exactly: no
        // fold re-seal is outstanding.
        if home {
            self.reseal_owed
                .store(false, std::sync::atomic::Ordering::Relaxed);
        }
        Ok(m)
    }

    /// This index as one source of the executor. The update view is left
    /// out while nothing is pending, so a sealed scan never takes the
    /// tombstone lock.
    pub(crate) fn source(&self) -> Source<'_, S> {
        let pending = !(self.delta.is_empty() && self.tombstones.is_empty());
        Source {
            store: &self.store,
            updates: pending.then_some(UpdateView {
                delta: &self.delta,
                tombstones: &self.tombstones,
            }),
        }
    }

    /// Executes one [`SearchRequest`] — its [`SearchMode`] picks the
    /// planner, an optional [budget](SearchRequest::with_budget) caps the
    /// partitions read — as [`search_many`](Self::search_many) with one
    /// request, inline on the calling thread. Results are
    /// `(series id, squared ED)` ascending.
    ///
    /// ```
    /// use climber_core::{Climber, ClimberConfig, SearchRequest};
    /// use climber_core::series::gen::Domain;
    ///
    /// let data = Domain::RandomWalk.generate(400, 9);
    /// let climber = Climber::build_in_memory(&data, ClimberConfig::default()
    ///     .with_pivots(32).with_capacity(100));
    ///
    /// // default mode is Adaptive-4X; builders select the others
    /// let out = climber.search(&SearchRequest::new(data.get(3), 10));
    /// assert_eq!(out.results.len(), 10);
    /// assert_eq!(out, climber.search(&SearchRequest::new(data.get(3), 10).adaptive(4)));
    /// ```
    ///
    /// # Panics
    /// As [`search_many`](Self::search_many).
    pub fn search(&self, req: &SearchRequest) -> QueryOutcome {
        self.search_many(std::slice::from_ref(req))
            .pop()
            .expect("one outcome per request")
    }

    /// Executes many [`SearchRequest`]s through the one query executor
    /// ([`climber_query::exec`]): compatible requests are grouped so every
    /// shared partition is opened once and every shared cluster walked
    /// once. Outcomes come back in request order, **bit-identical** to
    /// calling [`search`](Self::search) once per request — this is the
    /// entry point the serving layer's micro-batches ride.
    ///
    /// # Panics
    /// If a request fails [`SearchRequest::validate_for`] the indexed
    /// [`series_len`](Self::series_len): zero `k`, empty query, zero
    /// factor, or — in every mode but `Resampled` — a query of another
    /// length (the message names both). The serving layer runs the same
    /// check before admission and answers with a typed bad request.
    pub fn search_many(&self, reqs: &[SearchRequest]) -> Vec<QueryOutcome> {
        self.search_many_with_status(reqs).0
    }

    /// [`search_many`](Self::search_many) with the index's health for
    /// the pass: planned-but-unopenable partitions (quarantined, deleted
    /// mid-flight) are skipped and named in the returned [`ShardStatus`]
    /// — never a panic, never a silently partial answer.
    pub fn search_many_with_status(
        &self,
        reqs: &[SearchRequest],
    ) -> (Vec<QueryOutcome>, ShardStatus) {
        let sources = [Some(self.source())];
        let (out, mut statuses) = execute(&self.skeleton, &sources, self.series_len(), reqs, 0);
        let status = statuses.pop().expect("one status per source");
        (out, ShardStatus::of_source(0, true, status))
    }

    /// Partitions currently quarantined by the store — none for healthy
    /// indexes. Queries skip them, and say so through
    /// [`search_many_with_status`](Self::search_many_with_status), until
    /// a scrub re-admits them.
    pub fn quarantined_partitions(&self) -> Vec<PartitionId> {
        self.store.quarantined()
    }

    /// The indexed series length — what every non-resampled query and
    /// every appended series must measure (`None`: no partition yet).
    pub fn series_len(&self) -> Option<usize> {
        self.series_len.get(&self.store)
    }

    /// Scans the store once to seed the append id counter — only for
    /// [`from_parts`](Self::from_parts), whose store is arbitrary: a build
    /// knows its ids and a reopen reads the manifest's largest one.
    fn seed_next_id_by_scan(&mut self) {
        let mut max_id: Option<u64> = None;
        for pid in self.store.ids() {
            if let Ok(reader) = self.store.open(pid) {
                self.series_len.set(reader.series_len());
                // Ids only: 8 bytes read per record, no value decoded.
                max_id = max_id.max(reader.records().ids().max());
            }
        }
        self.next_id
            .store(max_id.map_or(0, |m| m + 1), Ordering::Relaxed);
    }

    /// Fails with `PermissionDenied` on an index opened read-only.
    fn ensure_writable(&self) -> io::Result<()> {
        if self.writable {
            Ok(())
        } else {
            Err(io::Error::new(
                io::ErrorKind::PermissionDenied,
                "index was opened read-only; reopen with Climber::open_rw to accept updates",
            ))
        }
    }

    /// Appends a new series, returning its assigned id — O(record): the
    /// record is routed with the frozen skeleton (pivots and centroids
    /// never change, §V Step 1) into the matching `(partition, trie node)`
    /// delta cluster. No sealed partition is touched; queries merge the
    /// delta cluster into the same candidate stream, so the record is
    /// findable through exactly the plans that would find it after a
    /// rebuild. [`flush`](Self::flush) folds it into its sealed partition.
    /// [`append_batch`](Self::append_batch) of one series.
    ///
    /// # Panics
    /// If the series length differs from the indexed length.
    pub fn append(&self, values: &[f32]) -> Result<u64, ClimberError> {
        Ok(self.append_batch(&[values])?[0])
    }

    /// Appends a batch of series, returning their assigned ids: one
    /// routing pass over the batch (shared signature scratch, no per-record
    /// allocation) and a single grouped insertion into the delta segment —
    /// never a partition rewrite, let alone one per record.
    ///
    /// # Panics
    /// If any series length differs from the indexed length.
    pub fn append_batch<V: AsRef<[f32]>>(&self, series: &[V]) -> Result<Vec<u64>, ClimberError> {
        self.ensure_writable()?;
        check_append_lengths(self.series_len(), series);
        let first = self
            .next_id
            .fetch_add(series.len() as u64, Ordering::Relaxed);
        let ids: Vec<u64> = (first..first + series.len() as u64).collect();
        self.append_routed(ids.iter().copied().zip(series.iter().map(AsRef::as_ref)));
        Ok(ids)
    }

    /// Routes `(id, series)` records, ids already reserved, with the
    /// frozen skeleton — one signature scratch for the batch — and inserts
    /// them into the delta segment in one write section, taken only once
    /// every record is placed. The one append path of a single index and
    /// of a shard.
    pub(crate) fn append_routed<'v>(&self, records: impl Iterator<Item = (u64, &'v [f32])>) {
        let mut scratch = SignatureScratch::new();
        let routed: Vec<(PartitionId, TrieNodeId, u64, &[f32])> = records
            .map(|(id, v)| {
                let p = self.skeleton.place_with(v, id, &mut scratch);
                (p.partition, p.node, id, v)
            })
            .collect();
        self.delta.append_many(routed);
    }

    /// Deletes series `id` — one insert into the tombstone set. Returns
    /// `false` when the id was never assigned or is already deleted. The
    /// record's bytes stay in place until [`compact`](Self::compact)
    /// purges them, but no query will ever return (or rank against) a
    /// tombstoned id again.
    pub fn delete(&self, id: u64) -> Result<bool, ClimberError> {
        self.ensure_writable()?;
        if id >= self.next_id.load(Ordering::Relaxed) {
            return Ok(false);
        }
        Ok(self.tombstones.delete(id))
    }

    /// Folds the delta segment into the sealed partitions. Every partition
    /// holding delta records gets them as one more *extension image* — a
    /// small image holding only those records, each trie-node cluster in
    /// id order — and the flush writes all those images back to back into
    /// one new *pack* file (a few past 4 MiB), so it writes about what was
    /// appended, in one file, and no base image is read or rewritten. Two
    /// bounds keep reads and rewrites in check:
    ///
    /// * a flush that would leave the extension images of a fifth flush
    ///   live **merges** instead, every partition at once: one holding
    ///   pending records gets its extensions and those records as one
    ///   extension in the flush's packs, and every older pack is removed —
    ///   so no pack outlives the flushes its images are read for;
    /// * a partition whose extensions would pass a quarter of its base
    ///   image's bytes — checked when a merge folds them, or on a flush
    ///   that would give a partition its first one — or that has none of
    ///   its own pending records at a merge, is rewritten instead into one
    ///   base image: base, extensions and pending records. That rewrite
    ///   **purges**: it drops the tombstoned records it holds and clears
    ///   exactly those tombstones. Tombstones of partitions that only
    ///   extend are kept (they keep filtering queries);
    ///   [`compact`](Self::compact) purges every one.
    ///
    /// Each image is built by one [`fold_partition`] per partition over the
    /// build's worker fan-out; each file is written and fsynced by the
    /// worker that built it (a pack by the calling thread), then its
    /// partitions published. Queries read a node's
    /// cluster from the base and then from each extension, which is the
    /// cluster a rewrite would hold: answers never depend on how a
    /// partition's records are split over its images.
    ///
    /// The store's directory is re-sealed afterwards —
    /// incrementally: every entry comes from what the store already holds
    /// (the entries of this fold's images and of those it was opened
    /// with), and the manifest is rewritten at the bumped segment
    /// generation, so the on-disk index stays openable at O(affected
    /// partitions) cost. The packs a merge or rewrites emptied are removed
    /// once that manifest has committed.
    ///
    /// A query racing a fold answers as it would before or after it: a
    /// delta record leaves the segment in the same critical section that
    /// publishes the image holding it, so at every instant it is in
    /// exactly one place a query reads. If a file's write or fsync fails,
    /// the records of the partitions it held — one rewritten partition, or
    /// every partition in a pack — simply stay in the delta segment — no
    /// acknowledged append is dropped — the other files still publish,
    /// and a later `flush` or `save` finishes the pending re-seal. Folds
    /// and saves of one index run one at a time; appends, deletes and
    /// queries proceed throughout.
    pub fn flush(&self) -> Result<MaintenanceReport, ClimberError> {
        Ok(self.maintain(false)?)
    }

    /// [`flush`](Self::flush) + purge: rewrites every partition holding
    /// pending records, extension images or tombstoned records into one
    /// base image, physically removing the tombstoned records, and clears
    /// the purged ids from the tombstone set.
    pub fn compact(&self) -> Result<MaintenanceReport, ClimberError> {
        Ok(self.maintain(true)?)
    }

    fn maintain(&self, compact: bool) -> io::Result<MaintenanceReport> {
        self.ensure_writable()?;
        let _serial = (self.maintenance.lock()).unwrap_or_else(PoisonError::into_inner);
        // The tombstones a base rewrite drops: a snapshot, so ids deleted
        // *during* the fold stay pending. Every error of the compaction's
        // scan (which partitions hold tombstoned records) aborts the fold:
        // silently skipping an unreadable partition here would later clear
        // tombstones whose records were never purged, resurrecting deleted
        // ids.
        let tombstoned = self.tombstones.ids();
        let purge: BTreeSet<u64> = tombstoned.iter().copied().collect();
        let mut affected: BTreeSet<PartitionId> = BTreeSet::new();
        if compact {
            for pid in self.store.ids() {
                let extended = (self.store.layout(pid)).is_ok_and(|l| l.files.len() > 1);
                // Id-only scan with early exit: no value decoding, stops
                // at the first tombstoned record.
                if extended
                    || (!purge.is_empty()
                        && (self.store.layers(pid, 0)?.iter())
                            .any(|layer| layer.any_id(|id| purge.contains(&id))))
                {
                    affected.insert(pid);
                }
            }
        }
        // The fold set: the compaction's partitions plus every one with
        // pending records — and, when a merge is due, every one with
        // extension images. Records appended to any of them from here on
        // wait for the next fold.
        affected.extend(self.delta.partitions());
        let merging = !compact && self.store.extension_generations() >= MAX_EXTENSIONS;
        if merging {
            let extended =
                |pid: &PartitionId| (self.store.layout(*pid)).is_ok_and(|l| l.files.len() > 1);
            affected.extend(self.store.ids().into_iter().filter(extended));
        }
        if affected.is_empty() && (!compact || purge.is_empty()) {
            // Nothing to fold — but an earlier fold may have published
            // images and then failed its re-seal (e.g. out of disk):
            // repair the directory before reporting the no-op, so a
            // retried flush() always converges to an openable index.
            if self.reseal_owed.load(std::sync::atomic::Ordering::Relaxed) {
                self.reseal_home()?;
            }
            return Ok(MaintenanceReport {
                partitions_rewritten: 0,
                partitions_extended: 0,
                records_folded: 0,
                records_purged: 0,
                tombstones_remaining: self.tombstones.len(),
                generation: self.generation.load(Ordering::Relaxed),
            });
        }

        // Fold the affected partitions on the build's worker fan-out: a
        // worker builds one image at a time and writes it back, so one
        // worker's write and fsync overlap another's CPU work. A base
        // rewrite is `put` by the worker that built it, which retires the
        // copied runs in the delta write section the put returns; the
        // extension images are built a pack at a time, and each pack, once
        // written and fsynced, publishes its partitions one by one. From the
        // first publish on, a disk directory's manifest is stale until the
        // re-seal below lands; the flag makes any later flush or save finish
        // the repair if this attempt errors out. A partition whose file
        // failed to write or fsync published nothing and retired nothing;
        // the others still publish.
        self.reseal_owed
            .store(true, std::sync::atomic::Ordering::Relaxed);
        let cluster = climber_dfs::cluster::Cluster::new(self.build_options.resolved_threads());
        let mut published: Vec<io::Result<FoldDone>> = Vec::new();
        let (mut rewrites, mut packed) = (Vec::new(), Vec::new());
        for pid in affected {
            match self.plan_fold(pid, compact, merging) {
                Ok(planned) if planned.fold == Fold::Rewrite => rewrites.push(planned),
                Ok(planned) => packed.push(planned),
                Err(e) => published.push(Err(e)),
            }
        }
        let purge_ref = &purge;
        published.extend(cluster.par_map(rewrites, move |planned| {
            let folded = self.fold_image(planned, purge_ref)?;
            let section = (self.store).put(folded.pid, folded.image, || self.delta.write())?;
            section.retire(folded.pid, folded.copied);
            Ok(folded.done)
        }));
        // The packs: partitions in ascending id, cut where the predicted
        // images would pass `PACK_BYTES`, each pack's images built
        // together and written as one file.
        let generation = self.generation.load(Ordering::Relaxed) + 1;
        let mut chunks: Vec<Vec<Planned>> = Vec::new();
        let mut chunk_bytes = 0;
        for planned in packed {
            if chunks.is_empty() || chunk_bytes + planned.predicted > PACK_BYTES {
                chunks.push(Vec::new());
                chunk_bytes = 0;
            }
            chunk_bytes += planned.predicted;
            chunks.last_mut().expect("a chunk").push(planned);
        }
        for (k, chunk) in chunks.into_iter().enumerate() {
            let mut images = Vec::with_capacity(chunk.len());
            let mut folds = Vec::with_capacity(chunk.len());
            for folded in cluster.par_map(chunk, |planned| self.fold_image(planned, purge_ref)) {
                match folded {
                    Ok(f) => {
                        images.push((f.pid, f.image));
                        folds.push((f.copied, f.done));
                    }
                    Err(e) => published.push(Err(e)),
                }
            }
            if images.is_empty() {
                continue;
            }
            let staged = match self.store.stage_pack(generation, k as u32, merging, images) {
                Ok(staged) => staged,
                Err(e) => {
                    published.push(Err(e));
                    continue;
                }
            };
            for (staged, (copied, done)) in staged.into_iter().zip(folds) {
                let pid = staged.id();
                let retired = (self.store.publish(staged, || self.delta.write()))
                    .map(|section| section.retire(pid, copied));
                published.push(retired.map(|()| done));
            }
        }
        let mut report = MaintenanceReport {
            partitions_rewritten: 0,
            partitions_extended: 0,
            records_folded: 0,
            records_purged: 0,
            tombstones_remaining: 0,
            generation: self.generation.load(Ordering::Relaxed),
        };
        let mut failed = None;
        for done in published {
            match done {
                Ok(done) => {
                    match done.fold {
                        Fold::Rewrite => report.partitions_rewritten += 1,
                        Fold::Extend | Fold::Merge => report.partitions_extended += 1,
                    }
                    report.records_folded += done.folded;
                    report.records_purged += done.purged.len() as u64;
                    // The records are gone from every image a query reads.
                    self.tombstones.remove_all(&done.purged);
                }
                Err(e) => {
                    failed.get_or_insert(e);
                }
            }
        }
        // A published image is named by this generation (its pack's, and
        // its number as an extension): spend it even when another
        // partition failed.
        if report.partitions_rewritten + report.partitions_extended > 0 {
            report.generation = self.generation.fetch_add(1, Ordering::Relaxed) + 1;
        }
        if let Some(e) = failed {
            return Err(e);
        }
        if compact {
            // Every partition holding a tombstoned record was rewritten
            // without it: no snapshot id is held anywhere any more.
            self.tombstones.remove_all(&tombstoned);
        }
        report.tombstones_remaining = self.tombstones.len();

        self.reseal_home()?;
        Ok(report)
    }

    /// Re-seals the store's home directory after a fold:
    /// checksums and the manifest must match the folded partitions for
    /// the directory to stay openable. The re-seal is incremental — every
    /// partition is described by what the store already holds, the
    /// entries of the images it published and of those it was opened
    /// with, and only a quarantined partition's entry comes from the
    /// previous manifest — so a small fold costs O(affected partitions)
    /// of I/O, not O(index). The previous manifest is the one this
    /// instance holds; only an index that never sealed or opened its
    /// directory reads it from disk.
    fn reseal_home(&self) -> io::Result<()> {
        let held = self.sealed.lock().unwrap().clone();
        let prev = held.or_else(|| Manifest::load_with(&*self.store.fs(), self.store.dir()).ok());
        self.seal(&self.store, prev.as_ref()).map(drop)
    }

    /// What a fold does to partition `pid` (see [`flush`](Self::flush);
    /// a compaction always rewrites), from the sizes of its images and of
    /// the extension its pending records would make.
    fn plan_fold(&self, pid: PartitionId, compact: bool, merging: bool) -> io::Result<Planned> {
        let layout = self.store.layout(pid)?;
        let (nodes, records) = (self.delta.read().runs(pid))
            .fold((0, 0), |(nodes, records), (_, run)| {
                (nodes + 1, records + run.len())
            });
        let added = image_len(layout.series_len, nodes, records) as u64;
        let extension_bytes = layout.files[1..].iter().sum::<u64>();
        let passes = (extension_bytes + added) * EXTENSION_SHARE > layout.files[0];
        let fold = match (compact, merging) {
            (true, _) => Fold::Rewrite,
            (false, true) if passes || records == 0 => Fold::Rewrite,
            (false, true) => Fold::Merge,
            // A partition with extensions waits for the next merge to be
            // rewritten: rewriting it now would leave its images in older
            // packs as dead bytes.
            (false, false) if passes && layout.files.len() == 1 => Fold::Rewrite,
            (false, false) => Fold::Extend,
        };
        let predicted = match fold {
            Fold::Merge => extension_bytes + added,
            _ => added,
        };
        Ok(Planned {
            pid,
            fold,
            layout,
            predicted,
        })
    }

    /// Builds one partition's folded image (see [`Fold`]): the images it
    /// folds in are read with no lock held, then, inside one delta read
    /// section, their clusters and the partition's delta runs as they
    /// stand are spliced — byte ranges, never decoded, each run in
    /// ascending-id order — into the new image, and only each run's record
    /// count is kept; a rewrite drops the ids in `purge`, and clusters left
    /// empty are dropped.
    fn fold_image(&self, planned: Planned, purge: &BTreeSet<u64>) -> io::Result<Folded> {
        let Planned {
            pid, fold, layout, ..
        } = planned;
        let layers = match fold {
            Fold::Extend => Vec::new(),
            Fold::Merge => self.store.layers(pid, 1)?,
            Fold::Rewrite => self.store.layers(pid, 0)?,
        };
        let mut purged = Vec::new();
        let keep = |id: u64| match fold == Fold::Rewrite && purge.contains(&id) {
            true => {
                purged.push(id);
                false
            }
            false => true,
        };
        let view = self.delta.read();
        let runs: Vec<(TrieNodeId, ClusterRecords<'_>)> = view.runs(pid).collect();
        let (image, _) = fold_partition(layout.group_id, layout.series_len, &layers, &runs, keep);
        let copied: Vec<(TrieNodeId, usize)> = (runs.iter())
            .map(|(node, recs)| (*node, recs.len()))
            .collect();
        let pending = copied.iter().map(|&(_, n)| n as u64).sum::<u64>();
        let pending_purged = (runs.iter().flat_map(|(_, recs)| recs.ids()))
            .filter(|id| purged.contains(id))
            .count() as u64;
        Ok(Folded {
            pid,
            image,
            copied,
            done: FoldDone {
                fold,
                folded: pending - pending_purged,
                purged,
            },
        })
    }

    /// The global index skeleton.
    pub fn skeleton(&self) -> &IndexSkeleton {
        &self.skeleton
    }

    /// The partition store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// The build report (absent for re-opened indexes).
    pub fn report(&self) -> Option<&BuildReport> {
        self.report.as_ref()
    }

    /// The delta segment: appended records not yet folded into sealed
    /// partitions.
    pub fn delta(&self) -> &DeltaSegment {
        &self.delta
    }

    /// The tombstone set: ids deleted but not yet purged by a compaction.
    pub fn tombstones(&self) -> &TombstoneSet {
        &self.tombstones
    }

    /// The current segment generation (how many folds the sealed
    /// partitions have absorbed).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// False only for indexes opened read-only via [`Climber::open`].
    pub fn is_writable(&self) -> bool {
        self.writable
    }

    /// The skeleton entry (size, checksum) of the manifest this instance
    /// last committed or opened; `None` before its first seal. The shards
    /// of one set all carry the same one.
    pub(crate) fn sealed_skeleton(&self) -> Option<FileEntry> {
        self.sealed.lock().unwrap().as_ref().map(|m| m.skeleton)
    }

    /// The generation of the manifest this instance last committed or
    /// opened; `None` before its first seal.
    pub(crate) fn sealed_generation(&self) -> Option<u64> {
        let sealed = self.sealed.lock().unwrap_or_else(PoisonError::into_inner);
        sealed.as_ref().map(|m| m.generation)
    }

    /// The index configuration: the exact build parameters for built
    /// indexes, restored from the manifest for reopened ones.
    pub fn config(&self) -> &ClimberConfig {
        &self.config
    }

    /// The execution options the index was built with (defaults for
    /// reopened or wrapped indexes). Options never affect index content —
    /// only how fast it was produced.
    pub fn build_options(&self) -> &BuildOptions {
        &self.build_options
    }

    /// Store I/O performed since the index became servable — partitions
    /// opened, bytes and records read by queries alone. Build-phase I/O
    /// is excluded by a snapshot taken at the build/serve phase boundary,
    /// so benchmarks on a shared store never double-count construction
    /// traffic; the reads [`save`](Self::save) performs are never
    /// accounted.
    pub fn serve_io(&self) -> IoSnapshot {
        let snap = self.store.stats().snapshot().since(&self.ready_io);
        match self.store.block_cache() {
            Some(cache) => snap.with_cache(&cache.stats()),
            None => snap,
        }
    }

    /// The block cache serving this index's partition opens — `Some` only
    /// for indexes opened through
    /// [`open_with_cache`](Self::open_with_cache) and friends.
    pub fn block_cache(&self) -> Option<Arc<BlockCache>> {
        self.store.block_cache()
    }

    /// Serialised global index size in bytes (Figure 8(b)'s metric).
    pub fn global_index_bytes(&self) -> usize {
        self.skeleton.size_bytes()
    }
}

/// Panics unless every series of an append batch measures `series_len`:
/// the indexed length, or the first series' while nothing is indexed.
pub(crate) fn check_append_lengths<V: AsRef<[f32]>>(series_len: Option<usize>, series: &[V]) {
    let Some(first) = series.first() else {
        return;
    };
    let expected = series_len.unwrap_or(first.as_ref().len());
    for v in series.iter().map(AsRef::as_ref) {
        assert_eq!(
            v.len(),
            expected,
            "appended series length {} != indexed length {expected}",
            v.len()
        );
    }
}

/// The query surface the serving layer batches against: anything that can
/// answer a micro-batch of [`SearchRequest`]s with outcomes in request
/// order. Implemented by [`Climber`] (one index) and by
/// [`ShardedClimber`] (a scatter-gather shard set), so a server binds to
/// either without caring which — the "serves a sharded index unchanged"
/// contract.
///
/// Implementations must match [`Climber::search_many`] semantics: one
/// outcome per request, in order, bit-identical to per-request
/// [`Climber::search`] calls, panicking only on requests that fail
/// [`SearchRequest::validate_for`] the backend's
/// [`series_len`](Self::series_len) (network callers run it first).
///
/// [`SearchRequest::validate_for`]: climber_query::search::SearchRequest::validate_for
pub trait SearchBackend: Send + Sync {
    /// Executes many requests, outcomes in request order.
    fn search_many(&self, reqs: &[SearchRequest]) -> Vec<QueryOutcome>;

    /// The indexed series length, so a network front end can refuse a
    /// query of any other length (unless it is to be resampled) before
    /// admission. The default, `None`, checks nothing.
    fn series_len(&self) -> Option<usize> {
        None
    }

    /// The backend's current health — shard liveness and partition
    /// quarantine — for the serving layer's health endpoint. The default
    /// reports a permanently healthy single backend, so plain in-memory
    /// backends need no override.
    fn health(&self) -> BackendHealth {
        BackendHealth::healthy()
    }

    /// The backend's serve-phase I/O counters, block-cache counters
    /// overlaid when one is attached — for the serving layer's stats
    /// endpoint. The default reports all zeros, so backends without I/O
    /// accounting need no override.
    fn io(&self) -> IoSnapshot {
        IoSnapshot::default()
    }
}

impl<S: PartitionStore> SearchBackend for Climber<S> {
    fn search_many(&self, reqs: &[SearchRequest]) -> Vec<QueryOutcome> {
        Climber::search_many(self, reqs)
    }

    fn series_len(&self) -> Option<usize> {
        Climber::series_len(self)
    }

    fn health(&self) -> BackendHealth {
        BackendHealth {
            shards: 1,
            dead_shards: 0,
            quarantined_partitions: self.store.quarantined().len() as u64,
        }
    }

    fn io(&self) -> IoSnapshot {
        Climber::serve_io(self)
    }
}

impl<S: PartitionStore> SearchBackend for ShardedClimber<S> {
    fn search_many(&self, reqs: &[SearchRequest]) -> Vec<QueryOutcome> {
        ShardedClimber::search_many(self, reqs)
    }

    fn series_len(&self) -> Option<usize> {
        ShardedClimber::series_len(self)
    }

    fn health(&self) -> BackendHealth {
        ShardedClimber::health(self)
    }

    fn io(&self) -> IoSnapshot {
        ShardedClimber::serve_io(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use climber_series::gen::Domain;

    fn small_cfg() -> ClimberConfig {
        ClimberConfig::default()
            .with_paa_segments(8)
            .with_pivots(32)
            .with_prefix_len(5)
            .with_capacity(60)
            .with_alpha(0.5)
            .with_epsilon(1)
            .with_seed(7)
            .with_workers(2)
    }

    #[test]
    fn facade_quickstart_flow() {
        let ds = Domain::RandomWalk.generate(300, 1);
        let climber = Climber::build_in_memory(&ds, small_cfg());
        let out = climber.search(&SearchRequest::new(ds.get(5), 10).exact());
        assert_eq!(out.results.len(), 10);
        assert!(climber.report().is_some());
        assert!(climber.global_index_bytes() > 0);
    }

    #[test]
    fn explicit_build_options_match_default_build() {
        let ds = Domain::RandomWalk.generate(280, 21);
        let a = Climber::build_in_memory(&ds, small_cfg());
        let b = Climber::build_in_memory_with(
            &ds,
            small_cfg(),
            BuildOptions::default().with_threads(8).with_block_size(17),
        );
        assert_eq!(
            a.skeleton().to_bytes(),
            b.skeleton().to_bytes(),
            "thread/block options changed the skeleton"
        );
        assert_eq!(b.build_options().threads, 8);
        assert_eq!(b.report().unwrap().threads, 8);
        let req = SearchRequest::new(ds.get(11), 10).exact();
        assert_eq!(a.search(&req), b.search(&req));
    }

    #[test]
    fn disk_roundtrip() {
        let dir = std::env::temp_dir().join(format!("climber-core-{}", std::process::id()));
        let ds = Domain::Eeg.generate(200, 2);
        let built = Climber::build_on_disk(&ds, &dir, small_cfg()).unwrap();
        let a = built.search(&SearchRequest::new(ds.get(3), 5).exact());
        let reopened = Climber::open(&dir).unwrap();
        let b = reopened.search(&SearchRequest::new(ds.get(3), 5).exact());
        assert_eq!(a.results, b.results);
        assert!(reopened.report().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_missing_dir_fails() {
        assert!(Climber::open("/nonexistent/climber-index").is_err());
    }

    #[test]
    fn adaptive_and_od_smallest_accessible() {
        let ds = Domain::TexMex.generate(250, 3);
        let climber = Climber::build_in_memory(&ds, small_cfg());
        let q = ds.get(9);
        let a = climber.search(&SearchRequest::new(q, 50).adaptive(4));
        let o = climber.search(&SearchRequest::new(q, 50).smallest());
        assert!(!a.results.is_empty());
        assert!(o.records_scanned >= a.records_scanned || o.plan.num_partitions() >= 1);
    }

    #[test]
    fn batch_matches_sequential() {
        let ds = Domain::RandomWalk.generate(300, 4);
        let climber = Climber::build_in_memory(&ds, small_cfg());
        let reqs: Vec<SearchRequest> = (0..6u64)
            .map(|i| SearchRequest::new(ds.get(i * 40), 10).adaptive(4))
            .collect();
        let batch = climber.search_many(&reqs);
        for (req, out) in reqs.iter().zip(batch.iter()) {
            assert_eq!(out, &climber.search(req));
        }
    }

    #[test]
    fn resampled_queries_of_any_length_work() {
        let ds = Domain::Eeg.generate(300, 5); // indexed length 256
        let climber = Climber::build_in_memory(&ds, small_cfg());
        for qlen in [64usize, 128, 256, 500] {
            // take a prefix (or stretch) of a real series as the probe
            let src = ds.get(7);
            let probe: Vec<f32> = climber_series::resample::resample_linear(src, qlen);
            let out = climber.search(&SearchRequest::new(&probe[..], 5).resampled(2));
            assert_eq!(out.results.len(), 5, "qlen={qlen}");
            if qlen == 256 {
                // exact length: the probe equals the source series
                assert_eq!(out.results[0].0, 7);
            }
        }
    }

    #[test]
    fn append_routes_and_is_findable() {
        let ds = Domain::RandomWalk.generate(300, 7);
        let climber = Climber::build_in_memory(&ds, small_cfg());
        // append a copy of an existing series with slight noise
        let mut probe = ds.get(42).to_vec();
        probe[0] += 0.001;
        let new_id = climber.append(&probe).unwrap();
        assert_eq!(new_id, 300, "ids continue after the build");
        // the appended record must be findable by an identical query
        let out = climber.search(&SearchRequest::new(&probe[..], 5).exact());
        assert_eq!(
            out.results[0],
            (new_id, 0.0),
            "appended record not retrieved: {:?}",
            out.results
        );
        // and it sits in the delta cluster placement replay points at
        let placement = climber.skeleton().place(&probe, new_id);
        let view = climber.delta().read();
        let run = view.run(placement.partition, placement.node).unwrap();
        assert_eq!(run.ids().collect::<Vec<_>>(), vec![new_id]);
    }

    /// The delta-segment regression the refactor exists for: appending
    /// must never rewrite (nor even touch) a sealed partition — the old
    /// path rewrote one whole partition per appended record.
    #[test]
    fn append_performs_no_partition_write() {
        let ds = Domain::RandomWalk.generate(250, 14);
        let climber = Climber::build_in_memory(&ds, small_cfg());
        let before = climber.store().stats().snapshot();
        let batch: Vec<Vec<f32>> = (0..40u64).map(|i| ds.get(i * 6).to_vec()).collect();
        climber.append_batch(&batch).unwrap();
        climber.append(ds.get(0)).unwrap();
        let diff = climber.store().stats().snapshot().since(&before);
        assert_eq!(diff.partitions_written, 0, "append rewrote a partition");
        assert_eq!(diff.bytes_written, 0);
        assert_eq!(climber.delta().record_count(), 41);
        // ... and a flush is what folds them, with exactly one write per
        // affected partition: an extension image or a base rewrite.
        let affected = climber.delta().partitions().len();
        let report = climber.flush().unwrap();
        assert_eq!(report.records_folded, 41);
        assert!(climber.delta().is_empty());
        assert_eq!(
            report.partitions_extended + report.partitions_rewritten,
            affected
        );
        let after = climber.store().stats().snapshot().since(&before);
        assert_eq!(after.partitions_written as usize, affected);
    }

    #[test]
    fn append_batch_assigns_distinct_ids() {
        let ds = Domain::Eeg.generate(200, 8);
        let climber = Climber::build_in_memory(&ds, small_cfg());
        let batch: Vec<Vec<f32>> = (0..5u64).map(|i| ds.get(i * 13).to_vec()).collect();
        let ids = climber.append_batch(&batch).unwrap();
        assert_eq!(ids, vec![200, 201, 202, 203, 204]);
        // sealed partitions untouched: the records live in the delta
        let mut sealed = 0u64;
        for pid in climber.store().ids() {
            sealed += climber.store().open(pid).unwrap().record_count();
        }
        assert_eq!(sealed, 200);
        assert_eq!(climber.delta().record_count(), 5);
        // a flush folds them into the sealed partitions
        let report = climber.flush().unwrap();
        assert_eq!(report.records_folded, 5);
        assert_eq!(report.generation, 1);
        let mut total = 0u64;
        for pid in climber.store().ids() {
            total += climber.store().open(pid).unwrap().record_count();
        }
        assert_eq!(total, 205);
        assert!(climber.delta().is_empty());
    }

    #[test]
    fn delete_filters_results_and_compact_purges() {
        let ds = Domain::RandomWalk.generate(300, 31);
        let climber = Climber::build_in_memory(&ds, small_cfg());
        let q = ds.get(42).to_vec();
        let before = climber.search(&SearchRequest::new(&q[..], 5).exact());
        assert_eq!(before.results[0], (42, 0.0));

        assert!(climber.delete(42).unwrap());
        assert!(!climber.delete(42).unwrap(), "double delete");
        assert!(!climber.delete(99_999).unwrap(), "never-assigned id");

        let after = climber.search(&SearchRequest::new(&q[..], 5).exact());
        assert!(
            after.results.iter().all(|&(id, _)| id != 42),
            "deleted record served: {:?}",
            after.results
        );
        assert_eq!(after.results.len(), 5, "survivors fill the answer");

        // compaction physically removes it and clears the tombstone
        let report = climber.compact().unwrap();
        assert_eq!(report.records_purged, 1);
        assert_eq!(report.tombstones_remaining, 0);
        assert!(climber.tombstones().is_empty());
        let mut total = 0u64;
        for pid in climber.store().ids() {
            climber.store().open(pid).unwrap().for_each(|id, _| {
                assert_ne!(id, 42, "purged record still sealed");
            });
            total += climber.store().open(pid).unwrap().record_count();
        }
        assert_eq!(total, 299);
        // results unchanged by the fold
        assert_eq!(
            climber
                .search(&SearchRequest::new(&q[..], 5).exact())
                .results,
            after.results
        );
    }

    #[test]
    fn flush_keeps_tombstones_compact_clears_them() {
        let ds = Domain::Eeg.generate(220, 33);
        let climber = Climber::build_in_memory(&ds, small_cfg());
        climber.append(ds.get(7)).unwrap();
        climber.delete(3).unwrap();
        let r1 = climber.flush().unwrap();
        assert_eq!(r1.records_folded, 1);
        assert_eq!(r1.records_purged, 0, "flush never purges");
        assert_eq!(r1.tombstones_remaining, 1);
        assert!(climber.tombstones().contains(3));
        let r2 = climber.compact().unwrap();
        assert_eq!(r2.records_purged, 1);
        assert_eq!(r2.tombstones_remaining, 0);
        assert_eq!(r2.generation, 2);
        // idempotent once everything is folded
        let r3 = climber.flush().unwrap();
        assert_eq!(r3.partitions_rewritten, 0);
        assert_eq!(r3.generation, 2, "no-op fold does not bump generation");
    }

    #[test]
    fn queries_equal_rebuild_after_append_delete_flush() {
        let ds = Domain::RandomWalk.generate(260, 35);
        let climber = Climber::build_in_memory(&ds, small_cfg());
        let probe: Vec<f32> = ds.get(10).iter().map(|v| v + 0.01).collect();
        let appended = climber.append(&probe).unwrap();
        climber.delete(10).unwrap();

        let with_segments = climber.search(&SearchRequest::new(&probe[..], 8).exact());
        climber.flush().unwrap();
        let after_flush = climber.search(&SearchRequest::new(&probe[..], 8).exact());
        assert_eq!(
            with_segments, after_flush,
            "folding must not change answers"
        );
        climber.compact().unwrap();
        let after_compact = climber.search(&SearchRequest::new(&probe[..], 8).exact());
        assert_eq!(with_segments.results, after_compact.results);
        assert!(after_compact.results.iter().any(|&(id, _)| id == appended));
        assert!(after_compact.results.iter().all(|&(id, _)| id != 10));
    }

    #[test]
    #[should_panic(expected = "length")]
    fn append_wrong_length_panics() {
        let ds = Domain::Dna.generate(100, 9);
        let climber = Climber::build_in_memory(&ds, small_cfg());
        let _ = climber.append(&[1.0, 2.0]);
    }

    #[test]
    fn serve_io_excludes_build_phase() {
        let ds = Domain::RandomWalk.generate(300, 10);
        let climber = Climber::build_in_memory(&ds, small_cfg());
        let build_io = climber.report().unwrap().io;
        assert!(build_io.partitions_written > 0, "build wrote partitions");
        // Phase boundary: before any query, serve-phase I/O is zero even
        // though the shared store's counters still hold the build traffic.
        assert_eq!(
            climber.serve_io(),
            climber_dfs::stats::IoSnapshot::default()
        );

        climber.search(&SearchRequest::new(ds.get(1), 5).exact());
        let serve = climber.serve_io();
        assert!(serve.partitions_opened > 0, "query opened partitions");
        assert_eq!(serve.partitions_written, 0, "serving writes nothing");
        assert!(
            serve.bytes_read < build_io.bytes_read + build_io.bytes_written,
            "serve I/O must not re-count build traffic"
        );
        // The build report is a snapshot: serving does not mutate it.
        assert_eq!(climber.report().unwrap().io, build_io);

        // An explicit save() advances the phase boundary past its own
        // checksum reads: serve-phase I/O stays query-only.
        let dir = std::env::temp_dir().join(format!("climber-core-save-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        climber.save(&dir).unwrap();
        assert_eq!(
            climber.serve_io(),
            serve,
            "save's reads leaked into serve-phase I/O"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn saving_an_in_memory_index_performs_no_store_io() {
        let ds = Domain::RandomWalk.generate(300, 10);
        let climber = Climber::build_in_memory(&ds, small_cfg());
        let before = climber.store().stats().snapshot();
        let dir = std::env::temp_dir().join(format!("climber-core-seal-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        climber.save(&dir).unwrap();
        assert_eq!(climber.store().stats().snapshot(), before);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn saved_and_reopened_serve_io_starts_clean() {
        let dir = std::env::temp_dir().join(format!("climber-core-io-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let ds = Domain::Eeg.generate(200, 12);
        let built = Climber::build_on_disk(&ds, &dir, small_cfg()).unwrap();
        // None of build_on_disk's own I/O leaks into the serve phase.
        assert_eq!(built.serve_io(), climber_dfs::stats::IoSnapshot::default());

        let reopened = Climber::open(&dir).unwrap();
        assert_eq!(
            reopened.serve_io(),
            climber_dfs::stats::IoSnapshot::default()
        );
        reopened.search(&SearchRequest::new(ds.get(3), 5).exact());
        assert!(reopened.serve_io().partitions_opened > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn over(fs: climber_dfs::fsio::FsRef, writable: bool) -> OpenOptions {
        OpenOptions {
            writable,
            fs,
            ..OpenOptions::default()
        }
    }

    /// An in-memory index does no disk I/O: built, updated, folded,
    /// scrubbed and searched over a `SimFs` whose wrapped filesystem is an
    /// armed `FaultFs`, it leaves that filesystem's op count at zero. Its
    /// save into a real directory goes through the wrapped filesystem, and
    /// the saved directory opens to the same answers.
    #[test]
    fn an_in_memory_index_touches_no_disk_until_it_saves() {
        use climber_dfs::fsio::{FaultFs, SimFs};
        let ff = FaultFs::over_std();
        ff.arm();
        let sim = SimFs::new(ff.clone());
        let store = DiskStore::create(sim.root().to_path_buf(), sim.clone()).unwrap();
        let ds = Domain::RandomWalk.generate(300, 4);
        let options = BuildOptions::default().with_threads(2);
        let index = Climber::build_into(store, &ds, small_cfg(), options).unwrap();
        index.append_batch(&[ds.get(3), ds.get(9)]).unwrap();
        index.delete(5).unwrap();
        assert!(index.flush().unwrap().records_folded > 0);
        index.append(ds.get(1)).unwrap();
        assert!(index.compact().unwrap().partitions_rewritten > 0);
        let scrub = index.scrub().unwrap();
        assert!(scrub.is_fully_healthy() && scrub.partitions_ok == index.store().len());
        let reqs: Vec<SearchRequest> = (0..20u64)
            .map(|i| SearchRequest::new(ds.get(i * 13), 10))
            .collect();
        let answers = index.search_many(&reqs);
        assert_eq!(ff.op_count(), 0, "{:?}", ff.trace());

        let dir = std::env::temp_dir().join(format!("climber-core-sim-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        index.save(&dir).unwrap();
        assert!(ff.op_count() > 0);
        assert!(ff.trace().iter().all(|(_, path)| path.starts_with(&dir)));
        assert_eq!(Climber::open(&dir).unwrap().search_many(&reqs), answers);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A build whose third partition write fails returns the error: the
    /// other partitions are still written, and nothing panics.
    #[test]
    fn a_failed_build_write_is_an_error() {
        use climber_dfs::fsio::{FaultAction, FaultFs, FaultTrigger, FsOp};
        let dir = std::env::temp_dir().join(format!("climber-core-bwf-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let ff = FaultFs::over_std();
        ff.inject(FaultTrigger::Kind(FsOp::Write, 2), FaultAction::Error);
        ff.arm();
        let store = DiskStore::create(&dir, ff.clone()).unwrap();
        let ds = Domain::RandomWalk.generate(300, 4);
        let options = BuildOptions::default().with_threads(2);
        let built = Climber::build_into(store, &ds, small_cfg(), options);
        assert!(matches!(built, Err(ClimberError::Io(_))), "{built:?}");
        assert!(
            ff.op_count_of(FsOp::Write) > 2,
            "the other partitions are written"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The orphan sweep of a writable open lists the directory through the
    /// open's filesystem: a `FaultFs` traces the listing (a read-only open
    /// lists nothing), and in a `SimFs` directory a writable open removes
    /// an orphan pack and an orphan version-3 extension image that a
    /// read-only open leaves — and keeps the pack its manifest names.
    #[test]
    fn a_writable_open_lists_through_its_filesystem() {
        use climber_dfs::fsio::{ClimberFs, FaultFs, FsOp, SimFs};
        use climber_dfs::store::{extension_file_name, pack_file_name};
        let dir = std::env::temp_dir().join(format!("climber-core-list-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let ds = Domain::RandomWalk.generate(300, 3);
        drop(Climber::build_on_disk(&ds, &dir, small_cfg()).unwrap());
        let listings = |writable: bool| {
            let ff = FaultFs::over_std();
            ff.arm();
            Climber::open_dir(&dir, &over(ff.clone(), writable)).unwrap();
            let trace = ff.trace().into_iter();
            trace
                .filter(|(op, _)| *op == FsOp::List)
                .collect::<Vec<_>>()
        };
        assert_eq!(listings(false), []);
        assert_eq!(listings(true), [(FsOp::List, dir.clone())]);
        std::fs::remove_dir_all(&dir).ok();

        let sim = SimFs::new(fsio::std_fs());
        let store = DiskStore::create(sim.root().to_path_buf(), sim.clone()).unwrap();
        let options = BuildOptions::default().with_threads(2);
        let built = Climber::build_into(store, &ds, small_cfg(), options).unwrap();
        built.append(ds.get(7)).unwrap();
        let generation = built.flush().unwrap().generation;
        let named = sim.root().join(pack_file_name(generation, 0));
        let orphans = [
            sim.root().join(pack_file_name(generation + 1, 0)),
            sim.root().join(pack_file_name(generation, 1)),
            (sim.root()).join(extension_file_name(built.store().ids()[0], 9)),
        ];
        drop(built);
        for orphan in &orphans {
            sim.write(orphan, b"a crashed fold's images").unwrap();
        }
        Climber::open_dir(sim.root(), &over(sim.clone(), false)).unwrap();
        for orphan in &orphans {
            assert!(sim.read(orphan).is_ok(), "a read-only open removes nothing");
        }
        Climber::open_dir(sim.root(), &over(sim.clone(), true)).unwrap();
        for orphan in &orphans {
            assert!(
                sim.read(orphan).is_err(),
                "the writable open sweeps {orphan:?}"
            );
        }
        assert!(sim.read(&named).is_ok(), "the named pack stays");
    }

    #[test]
    fn skeleton_summary_is_readable() {
        let ds = Domain::RandomWalk.generate(300, 6);
        let climber = Climber::build_in_memory(&ds, small_cfg());
        let s = climber.skeleton().summary();
        assert!(s.contains("CLIMBER index skeleton"));
        assert!(s.contains("[G0, <*,*,...>]"));
        assert!(s.lines().count() >= climber.skeleton().groups.len());
    }
}
