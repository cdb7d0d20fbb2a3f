//! Scatter-gather sharding: N independent [`Climber`] shards behind one
//! query surface, with bit-identical results to a single index.
//!
//! One index is one machine's ceiling. A [`ShardedClimber`] splits the
//! record set across N full [`Climber`] shards — each with its own
//! partition store, manifest, and mutable segments — while every shard
//! shares the **same frozen skeleton** (pivots, groups, tries). That
//! shared skeleton is what makes scatter-gather exact:
//!
//! * **Routing** is by record id: `shard_of(id) = xxh64(id, router_seed)
//!   mod N`. The seed is fixed at build time and persisted, so routing is
//!   deterministic at build, append, and delete time, and stable across
//!   reopens. Every record lives in exactly one shard.
//! * **Queries** are planned **once** against the shared skeleton (plans
//!   depend only on skeleton + query) and every shard is one *source* of
//!   the one query executor ([`climber_query::exec`]): the same
//!   partition-major scan runs on each, and each query's candidates are
//!   gathered into one heap. All shards share one `SharedBound` per
//!   query, so the moment any shard holds `k` candidates every other
//!   shard early-abandons against the best global k-th distance —
//!   cross-shard pruning that is provably lossless (a published bound
//!   always reflects `k` real candidates, so anything pruned is outside
//!   the global top-k).
//! * **Results are bit-identical** to one [`Climber`] over the same
//!   records: shards are record-disjoint, the scan offers every surviving
//!   candidate of every shard, and a `TopK` is insertion-order
//!   independent with deterministic `(distance, id)` tie-breaking — so
//!   the merged heap holds exactly the single-index answer, ties at the
//!   k-boundary included. Per-query `records_scanned` sums across shards
//!   to the single-index count, and the expansion fallback walks the
//!   plan in order across shards with a partition-granular stopping rule
//!   that does not depend on the shard count.
//!
//! ## Building and persistence
//!
//! One build serves any shard count: the builder hands each finished
//! partition image to a routing put that splices it into one image per
//! shard store (a [`DiskStore`] staging in `shard-NNN/`, on disk or in
//! memory).
//! [`save`](ShardedClimber::save) seals each shard as a normal index
//! directory, then writes a tiny super-manifest [`SHARD_SET_FILE`] —
//! shard count, router seed, per-shard generations, self-checksummed —
//! atomically last, so a crash mid-save never leaves an
//! openable-but-wrong set. [`open`](ShardedClimber::open) validates it,
//! opens every shard through the full single-index validation, and
//! cross-checks each shard's generation against the set's snapshot and
//! its skeleton against its siblings'; any per-shard failure surfaces as
//! [`OpenError::Shard`] naming the shard.
//!
//! [`OpenError::Shard`]: crate::OpenError::Shard
//!
//! ## Failure semantics
//!
//! A shard whose partitions disappear mid-flight degrades, never panics:
//! the scan marks the partitions failed and the merge returns the
//! surviving shards' answer.
//! [`ShardedClimber::search_many_with_status`] exposes the per-shard
//! health so callers can distinguish a complete answer from a partial
//! one.

use crate::error::ClimberError;
use crate::open::{open_shard, OpenOptions};
use crate::recover::{BackendHealth, ScrubReport};
use crate::{Climber, ClimberConfig, MaintenanceReport, SearchRequest};
use climber_dfs::format::{PartitionReader, PartitionWriter};
use climber_dfs::fsio::{self, FsRef, SimFs};
use climber_dfs::manifest::xxh64;
use climber_dfs::page::BlockCache;
use climber_dfs::stats::IoSnapshot;
use climber_dfs::store::{DiskStore, PartitionId, PartitionStore};
use climber_index::builder::{BuildOptions, IndexBuilder};
use climber_query::exec::{execute, SourceStatus};
use climber_query::plan::QueryOutcome;
use climber_series::dataset::Dataset;
use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Name of the shard-set super-manifest inside a sharded index directory.
pub const SHARD_SET_FILE: &str = "SHARDS.clsm";

const SHARD_SET_MAGIC: [u8; 4] = *b"CLSH";
const SHARD_SET_VERSION: u32 = 1;

/// Mixed into the build config's seed to derive the router seed, so the
/// routing hash is decorrelated from every other seeded component
/// (pivot selection, planner tie-breaks) without a new config knob.
const ROUTER_SALT: u64 = 0x5AAD_C11B_ED0A_7A5E;

/// The directory name of shard `i` inside a sharded index directory.
pub fn shard_dir_name(shard: usize) -> String {
    format!("shard-{shard:03}")
}

/// Which shard owns record `id` under `router_seed` — the one routing
/// function used at build, append, delete, and (implicitly) query time.
fn route(id: u64, router_seed: u64, num_shards: usize) -> usize {
    (xxh64(&id.to_le_bytes(), router_seed) % num_shards as u64) as usize
}

/// The super-manifest of a sharded index: everything needed to reopen the
/// set — how many shards, how records route, and which generation each
/// shard was at when the set was sealed (the snapshot-consistency check:
/// a shard updated behind the set's back fails reopen instead of silently
/// serving drifted data).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSetManifest {
    /// Number of shard directories the set holds.
    pub num_shards: u32,
    /// Seed of the record→shard routing hash.
    pub router_seed: u64,
    /// Per-shard segment generation at seal time, indexed by shard.
    pub generations: Vec<u64>,
}

impl ShardSetManifest {
    /// Serialises the super-manifest: magic, version, shard count, router
    /// seed, per-shard generations, then an xxHash64 self-checksum over
    /// everything preceding it.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(20 + self.generations.len() * 8 + 8);
        out.extend_from_slice(&SHARD_SET_MAGIC);
        out.extend_from_slice(&SHARD_SET_VERSION.to_le_bytes());
        out.extend_from_slice(&self.num_shards.to_le_bytes());
        out.extend_from_slice(&self.router_seed.to_le_bytes());
        for g in &self.generations {
            out.extend_from_slice(&g.to_le_bytes());
        }
        let checksum = xxh64(&out, 0);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Decodes and validates a serialised super-manifest; the message
    /// names what is structurally wrong (surfaced as
    /// [`CorruptShardSet`](crate::OpenError::CorruptShardSet)).
    pub fn decode(bytes: &[u8]) -> Result<Self, String> {
        if bytes.len() < 28 {
            return Err(format!(
                "shard-set manifest is {} bytes, minimum is 28",
                bytes.len()
            ));
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
        let found = xxh64(body, 0);
        if stored != found {
            return Err(format!(
                "shard-set checksum mismatch: stored {stored:#018x}, computed {found:#018x}"
            ));
        }
        if body[0..4] != SHARD_SET_MAGIC {
            return Err(format!("bad shard-set magic {:?}", &body[0..4]));
        }
        let version = u32::from_le_bytes(body[4..8].try_into().expect("4 bytes"));
        if version != SHARD_SET_VERSION {
            return Err(format!(
                "unsupported shard-set version {version} (supported: {SHARD_SET_VERSION})"
            ));
        }
        let num_shards = u32::from_le_bytes(body[8..12].try_into().expect("4 bytes"));
        if num_shards == 0 {
            return Err("shard-set declares zero shards".into());
        }
        let router_seed = u64::from_le_bytes(body[12..20].try_into().expect("8 bytes"));
        let expected = 20 + num_shards as usize * 8;
        if body.len() != expected {
            return Err(format!(
                "shard-set body is {} bytes, {num_shards} shards need {expected}",
                body.len()
            ));
        }
        let generations = (0..num_shards as usize)
            .map(|i| {
                let at = 20 + i * 8;
                u64::from_le_bytes(body[at..at + 8].try_into().expect("8 bytes"))
            })
            .collect();
        Ok(Self {
            num_shards,
            router_seed,
            generations,
        })
    }
}

/// Health of one shard after a scatter-gather query pass — the per-shard
/// status a degraded (partial) answer carries instead of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStatus {
    /// The shard this status describes.
    pub shard: usize,
    /// True iff every planned partition of every query opened on this
    /// shard (no candidate from this shard was silently missing).
    pub healthy: bool,
    /// Planned partitions that failed to open on this shard.
    pub failed_partitions: BTreeSet<PartitionId>,
    /// Records this shard contributed to the candidate streams (scan +
    /// expansion). Sums across shards to the single-index totals.
    pub records_scanned: u64,
}

impl ShardStatus {
    /// The executor's per-source status as shard `shard`'s health; a dead
    /// slot (`live == false`) is unhealthy whatever it did not fail.
    pub(crate) fn of_source(shard: usize, live: bool, status: SourceStatus) -> Self {
        Self {
            shard,
            healthy: live && status.failed_partitions.is_empty(),
            failed_partitions: status.failed_partitions,
            records_scanned: status.records_scanned,
        }
    }
}

/// N independent [`Climber`] shards behind one scatter-gather query
/// surface, with results bit-identical to a single index over the same
/// records (see the [module docs](self) for why).
///
/// ```
/// use climber_core::{Climber, ClimberConfig, SearchRequest, ShardedClimber};
/// use climber_core::series::gen::Domain;
///
/// let data = Domain::RandomWalk.generate(600, 42);
/// let config = ClimberConfig::default().with_pivots(32).with_capacity(100);
///
/// let single = Climber::build_in_memory(&data, config);
/// let sharded = ShardedClimber::build_in_memory(&data, config, 3);
///
/// let req = SearchRequest::new(data.get(17), 10);
/// assert_eq!(sharded.search(&req), single.search(&req));
/// ```
#[derive(Debug)]
pub struct ShardedClimber<S: PartitionStore = DiskStore> {
    /// One slot per shard; `None` marks a dead shard a quarantining open
    /// ([`ShardedClimber::open_dir`]) could not bring up. Dead slots
    /// keep their position so routing — which depends only on the shard
    /// count and router seed — is unchanged by quarantine and repair.
    shards: Vec<Option<Climber<S>>>,
    router_seed: u64,
    /// Per-shard generation snapshot from the last seal: the value
    /// reported for dead slots, whose live generation is unknowable.
    sealed_generations: Vec<u64>,
    /// Set-wide next append id (1 + the largest id stored anywhere); each
    /// shard's own counter trails it, tracking only that shard's records.
    next_id: AtomicU64,
    /// The options the set was opened with (`None`: built, never opened —
    /// such a set has no dead slot): what [`scrub`](ShardedClimber::scrub)
    /// re-opens a dead slot under, so a re-admitted shard shares the set's
    /// cache and filesystem.
    opened_with: Option<OpenOptions>,
}

impl ShardedClimber<DiskStore> {
    /// Builds a sharded index in memory: [`build_on_disk`](Self::build_on_disk)
    /// into a directory of an in-memory filesystem ([`SimFs`]). One build
    /// splits every finished partition image at put time across
    /// `num_shards` record-disjoint stores sharing the skeleton. Within a
    /// shard, cluster order and in-cluster record order are preserved, so
    /// each shard's scan visits exactly the single index's records that
    /// route to it.
    ///
    /// # Panics
    /// If `num_shards == 0`.
    pub fn build_in_memory(ds: &Dataset, config: ClimberConfig, num_shards: usize) -> Self {
        Self::build_in_memory_with(
            ds,
            config,
            BuildOptions::default().with_threads(config.workers),
            num_shards,
        )
    }

    /// [`build_in_memory`](Self::build_in_memory) with explicit
    /// [`BuildOptions`] (options never affect index content, only build
    /// speed).
    ///
    /// # Panics
    /// If `num_shards == 0`.
    pub fn build_in_memory_with(
        ds: &Dataset,
        config: ClimberConfig,
        options: BuildOptions,
        num_shards: usize,
    ) -> Self {
        let fs = SimFs::new(fsio::std_fs());
        let dir = fs.root().to_path_buf();
        Self::build_into(ds, &dir, fs, config, options, num_shards)
            .expect("an in-memory build has no I/O to fail")
    }

    /// Builds a sharded index under `dir` (one subdirectory per shard plus
    /// the super-manifest), the sharded counterpart of
    /// [`Climber::build_on_disk`]: each shard's share of every partition
    /// is staged as it is built, each shard sealed from what its puts
    /// recorded, and the built set returned as it is, writable.
    ///
    /// # Panics
    /// If `num_shards == 0`.
    pub fn build_on_disk(
        ds: &Dataset,
        dir: impl AsRef<Path>,
        config: ClimberConfig,
        num_shards: usize,
    ) -> Result<Self, ClimberError> {
        Self::build_on_disk_with(
            ds,
            dir,
            config,
            BuildOptions::default().with_threads(config.workers),
            num_shards,
        )
    }

    /// [`build_on_disk`](Self::build_on_disk) with explicit
    /// [`BuildOptions`]. The directory is byte-identical for any thread
    /// count.
    ///
    /// # Panics
    /// If `num_shards == 0`.
    pub fn build_on_disk_with(
        ds: &Dataset,
        dir: impl AsRef<Path>,
        config: ClimberConfig,
        options: BuildOptions,
        num_shards: usize,
    ) -> Result<Self, ClimberError> {
        let dir = dir.as_ref();
        Self::build_into(ds, dir, fsio::std_fs(), config, options, num_shards)
    }

    /// The one sharded build, into one empty store per shard under `dir`
    /// on `fs`: a single build whose redistribution step routes every
    /// finished partition image at put time ([`route_partition`]), then
    /// one [`Climber`] per shard over the shared skeleton, and the set
    /// sealed. Build memory is one in-flight partition and its splices per
    /// build thread.
    fn build_into(
        ds: &Dataset,
        dir: &Path,
        fs: FsRef,
        config: ClimberConfig,
        options: BuildOptions,
        num_shards: usize,
    ) -> Result<Self, ClimberError> {
        assert!(num_shards > 0, "num_shards must be positive");
        let stores: Vec<DiskStore> = (0..num_shards)
            .map(|i| DiskStore::create(dir.join(shard_dir_name(i)), fs.clone()))
            .collect::<io::Result<_>>()?;
        let router_seed = config.seed ^ ROUTER_SALT;
        let builder = IndexBuilder::with_options(config, options);
        let (skeleton, _report) = builder.build_with_put(ds, |pid, image| {
            let reader = PartitionReader::open(image)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            route_partition(&stores, router_seed, pid, &reader)
        })?;
        let n = ds.num_series() as u64;
        let shards = (stores.into_iter().enumerate())
            .map(|(i, store)| {
                // 1 + the largest id that routed here.
                let next_id = ((0..n).rev())
                    .find(|&id| route(id, router_seed, num_shards) == i)
                    .map_or(0, |id| id + 1);
                let shard =
                    Climber::built(skeleton.clone(), store, config, options, None, ds, next_id);
                Some(shard)
            })
            .collect();
        let set = Self {
            shards,
            router_seed,
            sealed_generations: vec![0; num_shards],
            next_id: AtomicU64::new(n),
            opened_with: None,
        };
        set.save(dir)?;
        Ok(set)
    }

    /// The set over `shards` (slot-indexed; `None` = dead) as `sm`
    /// describes it, remembering the options it was opened with.
    pub(crate) fn from_slots(
        shards: Vec<Option<Climber<DiskStore>>>,
        sm: ShardSetManifest,
        opened_with: OpenOptions,
    ) -> Self {
        let set = Self {
            shards,
            router_seed: sm.router_seed,
            sealed_generations: sm.generations,
            next_id: AtomicU64::new(0),
            opened_with: Some(opened_with),
        };
        set.next_id.store(set.stored_next_id(), Ordering::Relaxed);
        set
    }

    /// Scrubs the whole set: every live shard runs [`Climber::scrub`]
    /// (re-verify, re-admit, quarantine fresh damage), and every dead
    /// slot is re-opened exactly as the set was (same policy, cache and
    /// filesystem) — a shard whose directory was repaired since, and
    /// whose skeleton agrees with its live siblings', is re-admitted **in
    /// place**, with routing and ids untouched. Returns the merged report;
    /// re-opened shards' remaining quarantined partitions count as
    /// still-quarantined.
    pub fn scrub(&mut self) -> Result<ScrubReport, ClimberError> {
        let mut merged = ScrubReport::default();
        let home = self.home_dir();
        let skeleton = self
            .shards
            .iter()
            .flatten()
            .find_map(Climber::sealed_skeleton);
        for (i, slot) in self.shards.iter_mut().enumerate() {
            match slot {
                Some(shard) => merged.absorb(shard.scrub()?),
                None => {
                    let (Some(home), Some(opts)) = (&home, &self.opened_with) else {
                        continue;
                    };
                    let generation = self.sealed_generations[i];
                    if let Ok((shard, r)) = open_shard(home, i, generation, skeleton, opts) {
                        merged.still_quarantined.extend(r.quarantined_partitions);
                        *slot = Some(shard);
                    }
                }
            }
        }
        // A re-admitted shard may hold the set's largest stored id.
        self.next_id
            .fetch_max(self.stored_next_id(), Ordering::Relaxed);
        Ok(merged)
    }
}

impl<S: PartitionStore> ShardedClimber<S> {
    /// 1 + the largest id a live shard stores.
    fn stored_next_id(&self) -> u64 {
        (self.shards.iter().flatten())
            .map(|c| c.next_id.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0)
    }

    /// Number of shards in the set.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The live shards (each a full [`Climber`]; dead slots omitted);
    /// read-side access for accounting and tests — route updates through
    /// the set so the set-wide id counter and super-manifest stay
    /// consistent.
    pub fn shards(&self) -> Vec<&Climber<S>> {
        self.shards.iter().flatten().collect()
    }

    /// The slot-indexed shard view: `None` marks a dead shard left
    /// behind by a quarantining open (see
    /// [`open_dir`](ShardedClimber::open_dir)).
    pub fn shard_slots(&self) -> &[Option<Climber<S>>] {
        &self.shards
    }

    /// The set's health: slot count, dead slots, and partitions
    /// quarantined inside live shards.
    pub fn health(&self) -> BackendHealth {
        BackendHealth {
            shards: self.shards.len() as u32,
            dead_shards: self.shards.iter().filter(|s| s.is_none()).count() as u32,
            quarantined_partitions: self
                .shards
                .iter()
                .flatten()
                .map(|c| c.quarantined_partitions().len() as u64)
                .sum(),
        }
    }

    /// Seed of the record→shard routing hash (persisted, so routing is
    /// stable across save/reopen).
    pub fn router_seed(&self) -> u64 {
        self.router_seed
    }

    /// Serve-phase I/O summed across live shards. Block-cache counters
    /// are overlaid **once** from the set's shared cache (see
    /// [`open_with_cache`](ShardedClimber::open_with_cache)) — every
    /// shard reports the same shared cache, so summing per-shard copies
    /// would multiply-count them.
    pub fn serve_io(&self) -> IoSnapshot {
        let mut total = IoSnapshot::default();
        for shard in self.shards.iter().flatten() {
            let s = shard.serve_io();
            total.partitions_written += s.partitions_written;
            total.partitions_opened += s.partitions_opened;
            total.bytes_written += s.bytes_written;
            total.bytes_read += s.bytes_read;
            total.records_shuffled += s.records_shuffled;
            total.records_read += s.records_read;
        }
        match self.block_cache() {
            Some(cache) => total.with_cache(&cache.stats()),
            None => total,
        }
    }

    /// The shared block cache serving the set's partition opens — `Some`
    /// only after [`open_with_cache`](ShardedClimber::open_with_cache)
    /// (every live shard holds the same cache).
    pub fn block_cache(&self) -> Option<Arc<BlockCache>> {
        self.shards
            .iter()
            .flatten()
            .find_map(|c| c.store().block_cache())
    }

    /// Which shard owns record `id`. Deterministic for the lifetime of
    /// the set, including across reopens.
    pub fn shard_of(&self, id: u64) -> usize {
        route(id, self.router_seed, self.shards.len())
    }

    /// False only for sets opened read-only via
    /// [`ShardedClimber::open`].
    pub fn is_writable(&self) -> bool {
        self.shards.iter().flatten().all(Climber::is_writable)
    }

    /// Per-shard segment generations, indexed by shard slot; dead slots
    /// report their last sealed generation.
    pub fn generations(&self) -> Vec<u64> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                s.as_ref()
                    .map_or(self.sealed_generations[i], Climber::generation)
            })
            .collect()
    }

    /// The indexed series length, from any live shard (all agree: they
    /// share the skeleton and the split preserves partition metadata).
    pub fn series_len(&self) -> Option<usize> {
        self.shards.iter().flatten().next()?.series_len()
    }

    /// The super-manifest recording `generations`, one per shard slot.
    fn set_manifest(&self, generations: Vec<u64>) -> ShardSetManifest {
        ShardSetManifest {
            num_shards: self.shards.len() as u32,
            router_seed: self.router_seed,
            generations,
        }
    }

    /// The directory holding the shard set (`None` when no shard is live).
    fn home_dir(&self) -> Option<PathBuf> {
        let first = self.shards.iter().flatten().next()?.store.dir();
        first.parent().map(Path::to_path_buf)
    }

    /// Persists the whole set under `dir`: every shard sealed into its
    /// own `shard-NNN/` index directory (full per-shard validation
    /// machinery — manifest, checksums, journal), then the super-manifest
    /// written atomically **last**, so a crash mid-save never yields a
    /// set that opens against half-new shards. Returns the written
    /// super-manifest.
    pub fn save(&self, dir: impl AsRef<Path>) -> Result<ShardSetManifest, ClimberError> {
        let dir = dir.as_ref();
        let fs = self.fs();
        fs.create_dir_all(dir).map_err(ClimberError::Io)?;
        // Dead slots are skipped: their directories keep whatever state
        // they sealed last (recorded in `sealed_generations`), so a
        // repaired shard can still re-admit under the super-manifest
        // written below.
        let mut generations = self.sealed_generations.clone();
        for (i, shard) in self.shards.iter().enumerate() {
            let Some(shard) = shard else { continue };
            generations[i] = shard.save(dir.join(shard_dir_name(i)))?.generation;
        }
        let sm = self.set_manifest(generations);
        fsio::write_file_atomic_with(&*fs, &dir.join(SHARD_SET_FILE), &sm.encode())
            .map_err(ClimberError::Io)?;
        Ok(sm)
    }

    /// The filesystem the set writes through: its shards' — the one it
    /// was opened over or built into.
    fn fs(&self) -> FsRef {
        (self.shards.iter().flatten().next()).map_or_else(fsio::std_fs, |c| c.store.fs())
    }

    /// Re-seals the set's super-manifest after a fold
    /// bumped shard generations; without it a reopen would (correctly)
    /// refuse the drifted shard. Each shard is recorded at the generation
    /// its own directory committed, which a shard whose fold or re-seal
    /// failed may have left behind its live counter.
    fn reseal_set(&self) -> Result<(), ClimberError> {
        if let Some(home) = self.home_dir() {
            let committed = |s: &Climber<S>| s.sealed_generation().unwrap_or(s.generation());
            let generations = (self.shards.iter().zip(&self.sealed_generations))
                .map(|(s, &dead)| s.as_ref().map_or(dead, committed))
                .collect();
            let sm = self.set_manifest(generations);
            fsio::write_file_atomic_with(&*self.fs(), &home.join(SHARD_SET_FILE), &sm.encode())
                .map_err(ClimberError::Io)?;
        }
        Ok(())
    }

    /// Appends a new series, returning its set-wide assigned id: the id
    /// is drawn from the set-wide counter (so ids are identical to a
    /// single index absorbing the same appends), routed to its owning
    /// shard, and lands in that shard's delta segment — O(record), no
    /// partition touched anywhere.
    ///
    /// # Panics
    /// If the series length differs from the indexed length.
    pub fn append(&self, values: &[f32]) -> Result<u64, ClimberError> {
        Ok(self.append_batch(&[values])?[0])
    }

    /// Appends a batch of series, returning their set-wide assigned ids:
    /// one id-range reservation, one routing pass, one grouped delta
    /// insertion per touched shard.
    ///
    /// # Panics
    /// If any series length differs from the indexed length.
    pub fn append_batch<V: AsRef<[f32]>>(&self, series: &[V]) -> Result<Vec<u64>, ClimberError> {
        for shard in self.shards.iter().flatten() {
            shard.ensure_writable()?;
        }
        crate::check_append_lengths(self.series_len(), series);
        let first = self
            .next_id
            .fetch_add(series.len() as u64, Ordering::Relaxed);
        let ids: Vec<u64> = (first..first + series.len() as u64).collect();
        // Group the batch by owning shard, preserving ascending-id order
        // within each group (delta folds replay in id order).
        let mut grouped: Vec<Vec<(u64, &[f32])>> = vec![Vec::new(); self.shards.len()];
        for (v, &id) in series.iter().zip(&ids) {
            grouped[self.shard_of(id)].push((id, v.as_ref()));
        }
        // All-or-nothing: refuse the whole batch before any record lands
        // if one routes to a dead slot (the reserved ids stay unused — a
        // gap, never a partial append).
        for (s, group) in grouped.iter().enumerate() {
            if !group.is_empty() && self.shards[s].is_none() {
                return Err(ClimberError::Io(dead_shard_error(s)));
            }
        }
        for (s, group) in grouped.into_iter().enumerate() {
            let Some(&(max_id, _)) = group.last() else {
                continue;
            };
            let shard = self.shards[s].as_ref().expect("dead slots checked above");
            shard.append_routed(group.into_iter());
            // The shard's own counter tracks the largest id it stores, so
            // a per-shard seal records the right `max_series_id`.
            shard.next_id.fetch_max(max_id + 1, Ordering::Relaxed);
        }
        Ok(ids)
    }

    /// Deletes series `id` set-wide — routed to the owning shard's
    /// tombstone set. Returns `false` when the id was never assigned or
    /// is already deleted, exactly like [`Climber::delete`].
    pub fn delete(&self, id: u64) -> Result<bool, ClimberError> {
        for shard in self.shards.iter().flatten() {
            shard.ensure_writable()?;
        }
        if id >= self.next_id.load(Ordering::Relaxed) {
            return Ok(false);
        }
        let owner = self.shard_of(id);
        let Some(shard) = self.shards[owner].as_ref() else {
            return Err(ClimberError::Io(dead_shard_error(owner)));
        };
        // The owning shard's own id counter may trail the set-wide one
        // (it only counts records routed to it), so the existence check
        // above is set-wide and the tombstone goes straight in.
        Ok(shard.tombstones.delete(id))
    }

    /// Folds every shard's delta segment into its sealed partitions
    /// ([`Climber::flush`] per shard), then re-seals the super-manifest
    /// so the on-disk set stays openable at the bumped generations.
    /// Counters in the merged report are summed across shards; the
    /// reported generation is the highest shard generation.
    pub fn flush(&self) -> Result<MaintenanceReport, ClimberError> {
        self.maintain(false)
    }

    /// [`flush`](Self::flush) + purge on every shard
    /// ([`Climber::compact`] per shard).
    pub fn compact(&self) -> Result<MaintenanceReport, ClimberError> {
        self.maintain(true)
    }

    fn maintain(&self, purge: bool) -> Result<MaintenanceReport, ClimberError> {
        let mut merged = MaintenanceReport {
            partitions_rewritten: 0,
            partitions_extended: 0,
            records_folded: 0,
            records_purged: 0,
            tombstones_remaining: 0,
            generation: 0,
        };
        // Every shard folds, and the set is re-sealed, even when one fails:
        // a shard that committed its fold must be recorded at its new
        // generation, or the set would not reopen.
        let mut failed = None;
        for shard in self.shards.iter().flatten() {
            let folded = if purge {
                shard.compact()
            } else {
                shard.flush()
            };
            let r = match folded {
                Ok(r) => r,
                Err(e) => {
                    failed.get_or_insert(e);
                    continue;
                }
            };
            merged.partitions_rewritten += r.partitions_rewritten;
            merged.partitions_extended += r.partitions_extended;
            merged.records_folded += r.records_folded;
            merged.records_purged += r.records_purged;
            merged.tombstones_remaining += r.tombstones_remaining;
            merged.generation = merged.generation.max(r.generation);
        }
        let resealed = self.reseal_set();
        failed.map_or(resealed, Err)?;
        Ok(merged)
    }

    /// Executes one [`SearchRequest`] across every shard — scatter, merge,
    /// expansion — with an outcome bit-identical to [`Climber::search`]
    /// on a single index over the same records.
    ///
    /// # Panics
    /// As [`Climber::search_many`].
    pub fn search(&self, req: &SearchRequest) -> QueryOutcome {
        self.search_many(std::slice::from_ref(req))
            .pop()
            .expect("one outcome per request")
    }

    /// Executes many [`SearchRequest`]s across every shard: compatible
    /// requests are grouped and planned once on the shared skeleton, the
    /// plans scanned partition-major on all shards, and each query's
    /// candidates gathered under one cross-shard bound. Outcomes come back
    /// in request order, bit-identical to [`Climber::search_many`] on a
    /// single index.
    ///
    /// # Panics
    /// As [`Climber::search_many`].
    pub fn search_many(&self, reqs: &[SearchRequest]) -> Vec<QueryOutcome> {
        self.search_many_with_status(reqs, 0).0
    }

    /// [`search_many`](Self::search_many) with an explicit worker thread
    /// count (`0` = the machine's available parallelism).
    pub fn search_many_with_threads(
        &self,
        reqs: &[SearchRequest],
        threads: usize,
    ) -> Vec<QueryOutcome> {
        self.search_many_with_status(reqs, threads).0
    }

    /// The full scatter-gather entry point: the query executor
    /// ([`climber_query::exec`]) over one source per shard slot. Outcomes
    /// in request order plus one [`ShardStatus`] per shard: when every
    /// status is healthy the outcomes are complete (bit-identical to a
    /// single index); a dead slot, or a shard whose planned partitions
    /// fail to open mid-scatter, degrades to the surviving shards'
    /// answer, reported — never a panic or a hang.
    ///
    /// # Panics
    /// As [`Climber::search_many`].
    pub fn search_many_with_status(
        &self,
        reqs: &[SearchRequest],
        threads: usize,
    ) -> (Vec<QueryOutcome>, Vec<ShardStatus>) {
        let sources: Vec<_> = (self.shards.iter())
            .map(|slot| slot.as_ref().map(Climber::source))
            .collect();
        let skeleton = (self.shards.iter().flatten().next())
            .expect("a set holds at least one live shard")
            .skeleton();
        let (outcomes, statuses) = execute(skeleton, &sources, self.series_len(), reqs, threads);
        let statuses = (statuses.into_iter().enumerate())
            .map(|(i, status)| ShardStatus::of_source(i, self.shards[i].is_some(), status))
            .collect();
        (outcomes, statuses)
    }
}

/// The routing put of a sharded build: splits partition `pid`'s finished
/// image across the shard `stores` and puts every shard's share. Every
/// shard gets a file for EVERY skeleton partition — possibly with zero
/// clusters — so per-shard partition opens (and the per-query
/// `partitions_opened` accounting) mirror the single index exactly.
/// Each shard's copy is spliced out of the image — its records' encoded
/// bytes, never decoded. One routing pass sizes every shard's image
/// exactly, so the copy pass that follows writes each record once into
/// its final place.
fn route_partition<S: PartitionStore>(
    stores: &[S],
    router_seed: u64,
    pid: PartitionId,
    reader: &PartitionReader,
) -> io::Result<()> {
    let num_shards = stores.len();
    let mut shard_of: Vec<usize> = Vec::with_capacity(reader.record_count() as usize);
    // Per shard: (non-empty clusters, records).
    let mut shape = vec![(0usize, 0usize); num_shards];
    for (_, recs) in reader.clusters() {
        let mut in_cluster = vec![0usize; num_shards];
        for i in 0..recs.len() {
            let s = route(recs.id(i), router_seed, num_shards);
            shard_of.push(s);
            in_cluster[s] += 1;
        }
        for (sh, n) in shape.iter_mut().zip(in_cluster) {
            sh.0 += usize::from(n > 0);
            sh.1 += n;
        }
    }
    let mut writers: Vec<PartitionWriter> = shape
        .iter()
        .map(|&(clusters, records)| {
            PartitionWriter::with_capacity(
                reader.group_id(),
                reader.series_len(),
                clusters,
                records,
            )
        })
        .collect();
    let mut routed = shard_of.iter();
    for (node, recs) in reader.clusters() {
        for (i, &s) in routed.by_ref().take(recs.len()).enumerate() {
            writers[s].splice_record(&recs, i);
        }
        for w in writers.iter_mut().filter(|w| w.pending() > 0) {
            w.seal_cluster(node);
        }
    }
    for (store, w) in stores.iter().zip(writers) {
        store.put(pid, w.finish(), || ())?;
    }
    Ok(())
}

/// The error an update targeting a dead (quarantined) shard slot gets.
fn dead_shard_error(shard: usize) -> io::Error {
    io::Error::new(
        io::ErrorKind::NotFound,
        format!("shard {shard} is quarantined (dead slot); scrub the set to re-admit it"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use climber_series::gen::Domain;

    fn cfg() -> ClimberConfig {
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
    fn sharded_matches_single_across_modes() {
        let ds = Domain::RandomWalk.generate(400, 11);
        let single = Climber::build_in_memory(&ds, cfg());
        for shards in [1usize, 2, 3] {
            let sharded = ShardedClimber::build_in_memory(&ds, cfg(), shards);
            for req in [
                SearchRequest::new(ds.get(5), 10),
                SearchRequest::new(ds.get(17), 7).exact(),
                SearchRequest::new(ds.get(30), 12).smallest(),
                SearchRequest::new(ds.get(44), 9).adaptive(2).with_budget(3),
            ] {
                assert_eq!(sharded.search(&req), single.search(&req), "shards={shards}");
            }
        }
    }

    #[test]
    fn every_record_routes_to_exactly_one_shard() {
        let ds = Domain::Eeg.generate(300, 3);
        let sharded = ShardedClimber::build_in_memory(&ds, cfg(), 3);
        let mut seen = vec![0u32; 300];
        for (si, shard) in sharded.shards().iter().enumerate() {
            for pid in shard.store().ids() {
                shard.store().open(pid).unwrap().for_each(|id, _| {
                    seen[id as usize] += 1;
                    assert_eq!(sharded.shard_of(id), si, "record {id} off its shard");
                });
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "routing not a partition");
    }

    #[test]
    fn updates_flow_through_the_set() {
        let ds = Domain::RandomWalk.generate(250, 9);
        let single = Climber::build_in_memory(&ds, cfg());
        let sharded = ShardedClimber::build_in_memory(&ds, cfg(), 2);
        let probe: Vec<f32> = ds.get(10).iter().map(|v| v + 0.01).collect();
        assert_eq!(
            single.append(&probe).unwrap(),
            sharded.append(&probe).unwrap(),
            "set-wide ids must match the single index"
        );
        single.delete(10).unwrap();
        sharded.delete(10).unwrap();
        let req = SearchRequest::new(&probe[..], 8);
        assert_eq!(sharded.search(&req), single.search(&req));
        // fold both; answers must be unchanged and still equal
        let before = sharded.search(&req);
        single.flush().unwrap();
        sharded.flush().unwrap();
        assert_eq!(sharded.search(&req), before);
        assert_eq!(sharded.search(&req), single.search(&req));
    }

    #[test]
    fn shard_set_manifest_roundtrip_and_corruption() {
        let sm = ShardSetManifest {
            num_shards: 3,
            router_seed: 0xDEAD_BEEF,
            generations: vec![0, 4, 1],
        };
        let bytes = sm.encode();
        assert_eq!(ShardSetManifest::decode(&bytes).unwrap(), sm);
        // flip a byte: checksum catches it
        let mut bad = bytes.clone();
        bad[9] ^= 0xFF;
        assert!(ShardSetManifest::decode(&bad)
            .unwrap_err()
            .contains("checksum"));
        // truncate: length check catches it
        assert!(ShardSetManifest::decode(&bytes[..10]).is_err());
    }

    #[test]
    fn disk_roundtrip_preserves_results_and_routing() {
        let dir = std::env::temp_dir().join(format!("climber-shard-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let ds = Domain::TexMex.generate(220, 5);
        let built = ShardedClimber::build_on_disk(&ds, &dir, cfg(), 2).unwrap();
        let req = SearchRequest::new(ds.get(3), 6);
        let want = built.search(&req);
        let reopened = ShardedClimber::open(&dir).unwrap();
        assert_eq!(reopened.search(&req), want);
        assert_eq!(reopened.router_seed(), built.router_seed());
        assert_eq!(reopened.num_shards(), 2);
        assert!(!reopened.is_writable());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A sharded build whose third partition write fails returns the
    /// error instead of panicking.
    #[test]
    fn a_failed_sharded_build_write_is_an_error() {
        use climber_dfs::fsio::{FaultAction, FaultFs, FaultTrigger, FsOp};
        let dir = std::env::temp_dir().join(format!("climber-shard-bwf-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let ff = FaultFs::over_std();
        ff.inject(FaultTrigger::Kind(FsOp::Write, 2), FaultAction::Error);
        ff.arm();
        let ds = Domain::RandomWalk.generate(300, 5);
        let options = BuildOptions::default().with_threads(2);
        let built = ShardedClimber::build_into(&ds, &dir, ff, cfg(), options, 2);
        assert!(matches!(built, Err(ClimberError::Io(_))), "{built:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The sharded disk build, traced over a `FaultFs` exactly as
    /// `build_on_disk_with` runs it: N × P partition writes and fsyncs,
    /// no partition read, every file each shard's manifest lists
    /// installed with no stage or temp left over, and `SHARDS.clsm`
    /// renamed into place after the last shard's manifest commit.
    #[test]
    fn sharded_disk_build_stages_every_shard_partition_once_and_reads_none() {
        use climber_dfs::fsio::{FaultFs, FsOp};
        use climber_dfs::manifest::Manifest;
        use climber_dfs::store::partition_file_name;

        let dir = std::env::temp_dir().join(format!("climber-shard-io-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let ds = Domain::RandomWalk.generate(400, 5);
        let n = 3;
        let ff = FaultFs::over_std();
        ff.arm();
        let options = BuildOptions::default().with_threads(2);
        let set = ShardedClimber::build_into(&ds, &dir, ff.clone(), cfg(), options, n).unwrap();
        ff.disarm();

        let trace = ff.trace();
        let name = |p: &Path| p.file_name().unwrap().to_string_lossy().into_owned();
        let on_partitions = |op: FsOp| {
            (trace.iter())
                .filter(|(o, p)| *o == op && name(p).starts_with("part_"))
                .count()
        };
        let p = set.shards()[0].skeleton().num_partitions();
        assert_eq!(
            [FsOp::Write, FsOp::FsyncFile, FsOp::Read].map(on_partitions),
            [n * p, n * p, 0]
        );
        for i in 0..n {
            let shard_dir = dir.join(shard_dir_name(i));
            let m = Manifest::load_with(&fsio::StdFs, &shard_dir).unwrap();
            assert_eq!(m.partitions.len(), p, "shard {i} lists every partition");
            for e in &m.partitions {
                assert!(shard_dir.join(partition_file_name(e.id)).is_file());
            }
            for entry in std::fs::read_dir(&shard_dir).unwrap() {
                let file = entry.unwrap().file_name().to_string_lossy().into_owned();
                assert!(!file.ends_with(".new") && !file.contains(".tmp"), "{file}");
            }
        }
        let renamed = |file: &str| {
            (trace.iter())
                .enumerate()
                .filter(|(_, (o, p))| *o == FsOp::Rename && name(p).starts_with(file))
                .map(|(at, _)| at)
                .collect::<Vec<_>>()
        };
        let commits = renamed(crate::MANIFEST_FILE);
        assert_eq!(commits.len(), n, "one manifest commit per shard");
        assert_eq!(renamed(SHARD_SET_FILE).len(), 1);
        assert!(commits[n - 1] < renamed(SHARD_SET_FILE)[0]);
        assert_eq!(ShardedClimber::open(&dir).unwrap().num_shards(), n);
        std::fs::remove_dir_all(&dir).ok();
    }
}
