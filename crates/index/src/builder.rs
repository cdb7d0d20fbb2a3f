//! The four-step index construction pipeline (§V, Figure 6).
//!
//! 1. **Sampling + signature generation** — a partition-level α-sample of
//!    the raw data is converted to PAA; `r` pivots are drawn at random from
//!    the sample and every sample series gets its `P4→` signature.
//! 2. **Centroid computation** — signatures are aggregated to
//!    `[(P4→, freq)]` then `[(P4↛, freq)]`, and Algorithm 2 selects the
//!    group centroids.
//! 3. **Groups & partitions** — the aggregated rank-sensitive signatures
//!    are assigned to centroids (Algorithm 1); oversized groups grow tries
//!    (Def. 12) whose leaves are FFD-packed into partitions (Def. 13); each
//!    group receives a default partition. Output: the index skeleton.
//! 4. **Re-distribution** — pivots and skeleton are broadcast; every record
//!    of the full dataset is converted and routed (group → trie →
//!    partition), shuffled by partition, and written out clustered by trie
//!    node.
//!
//! The report splits wall-clock time into the three phases of Figure 10(a):
//! skeleton building, full-data conversion, and re-distribution.
//!
//! ## Parallel execution & determinism
//!
//! Every phase fans out across [`BuildOptions::threads`] workers, and the
//! output is **bit-identical for any thread count and any block size**:
//!
//! * records are processed in contiguous id blocks
//!   ([`climber_series::dataset::Dataset::blocks`]) that workers own
//!   end-to-end, with per-worker [`SignatureScratch`] buffers so the hot
//!   conversion loops allocate nothing per record;
//! * per-block results (sample signature frequencies, step-4 routing
//!   shards) merge either commutatively (frequency counts) or in fixed
//!   block order (routing shards), so record ids stay ascending inside
//!   every `(partition, trie node)` cluster exactly as a sequential scan
//!   would leave them;
//! * partitions are written concurrently — one [`PartitionWriter`] per
//!   partition fanned over a work-queue [`rayon::scope`] — but each
//!   partition's bytes depend only on its own (deterministic) cluster
//!   contents, so write completion order is irrelevant.
//!
//! Peak memory stays bounded: the shuffle index holds record *ids* only
//! (the values stream straight from the dataset into at most `threads`
//! in-flight partition writers), never a second copy of the dataset.

use crate::centroids::compute_centroids;
use crate::config::IndexConfig;
use crate::skeleton::{GroupId, GroupMeta, IndexSkeleton, FALLBACK_GROUP};
use crate::trie::Trie;
use bytes::Bytes;
use climber_dfs::cluster::Cluster;
use climber_dfs::format::{PartitionWriter, TrieNodeId};
use climber_dfs::stats::IoSnapshot;
use climber_dfs::store::{PartitionId, PartitionStore};
use climber_pivot::assignment::CentroidTable;
use climber_pivot::permutation::pivot_permutation_prefix_with;
use climber_pivot::pivots::{PivotId, PivotSet};
use climber_pivot::signature::{RankInsensitive, SignatureScratch};
use climber_repr::paa::paa_into;
use climber_series::dataset::Dataset;
use climber_series::sampling::{partition_level_sample, partitions_for_alpha};
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::ops::Range;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Execution knobs of one index build — how the work is run, as opposed to
/// [`IndexConfig`], which defines *what* is built. Two builds of the same
/// dataset and config produce bit-identical output under any options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildOptions {
    /// Worker threads for every build phase; `0` means "use
    /// [`std::thread::available_parallelism`]".
    pub threads: usize,
    /// Records per parallel work block. Bounds the transient per-worker
    /// state (scratch buffers, routing shards); does not affect output.
    pub block_size: usize,
}

impl Default for BuildOptions {
    fn default() -> Self {
        Self {
            threads: 0,
            block_size: Self::DEFAULT_BLOCK_SIZE,
        }
    }
}

impl BuildOptions {
    /// Default records per work block.
    pub const DEFAULT_BLOCK_SIZE: usize = 4_096;

    /// Sets the worker-thread count (`0` = available parallelism).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the records-per-block work granularity.
    pub fn with_block_size(mut self, block_size: usize) -> Self {
        self.block_size = block_size;
        self
    }

    /// The thread count a build actually uses.
    pub fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.threads
        }
    }

    /// The block size a build actually uses (never zero).
    pub fn resolved_block_size(&self) -> usize {
        self.block_size.max(1)
    }
}

/// Timings and statistics of one index build.
#[derive(Debug, Clone)]
pub struct BuildReport {
    /// Phase 1-3 wall time (sampling through skeleton).
    pub skeleton_secs: f64,
    /// Step-4 signature extraction wall time over the full dataset.
    pub conversion_secs: f64,
    /// Step-4 shuffle + partition-write wall time.
    pub redistribution_secs: f64,
    /// Records in the sample.
    pub sampled_records: usize,
    /// Distinct rank-sensitive signatures in the sample.
    pub distinct_sensitive: usize,
    /// Distinct rank-insensitive signatures in the sample.
    pub distinct_insensitive: usize,
    /// Real groups created (excluding the fall-back).
    pub num_groups: usize,
    /// Physical partitions written.
    pub num_partitions: usize,
    /// Total trie nodes across groups.
    pub num_trie_nodes: usize,
    /// Records that landed in the fall-back group.
    pub fallback_records: u64,
    /// Records routed to a default partition (incomplete trie path).
    pub default_routed_records: u64,
    /// Serialised skeleton size in bytes (Figure 8(b)'s metric).
    pub skeleton_bytes: usize,
    /// I/O performed during the build.
    pub io: IoSnapshot,
    /// Worker threads the build ran with (the resolved
    /// [`BuildOptions::threads`]).
    pub threads: usize,
    /// Sample records processed per second in phases 1-3.
    pub skeleton_records_per_sec: f64,
    /// Full-dataset records converted per second in step 4a.
    pub conversion_records_per_sec: f64,
    /// Records shuffled and written per second in step 4b.
    pub redistribution_records_per_sec: f64,
}

/// Records-per-second with a zero-duration guard (tiny builds can finish a
/// phase below timer resolution).
fn per_sec(records: usize, secs: f64) -> f64 {
    records as f64 / secs.max(1e-9)
}

/// Contiguous index ranges of `0..len` in runs of at most `block`.
fn range_blocks(len: usize, block: usize) -> Vec<Range<usize>> {
    (0..len)
        .step_by(block.max(1))
        .map(|s| s..(s + block).min(len))
        .collect()
}

/// One worker's routing shard for a block of records: where each record of
/// the block lands, grouped by partition, in the block's (ascending-id)
/// scan order.
struct BlockShard {
    routed: HashMap<PartitionId, Vec<(TrieNodeId, u64)>>,
    fallback: u64,
    via_default: u64,
}

/// Drives index construction on a simulated cluster.
#[derive(Debug)]
pub struct IndexBuilder {
    config: IndexConfig,
    options: BuildOptions,
    cluster: Cluster,
}

impl IndexBuilder {
    /// Creates a builder with `config.workers` simulated workers (the
    /// historical behaviour; see [`IndexBuilder::with_options`] for
    /// explicit thread/block control).
    pub fn new(config: IndexConfig) -> Self {
        Self::with_options(config, BuildOptions::default().with_threads(config.workers))
    }

    /// Creates a builder running every phase across
    /// `options.resolved_threads()` workers in blocks of
    /// `options.resolved_block_size()` records. The options affect wall
    /// time and peak memory only — never the built index.
    pub fn with_options(config: IndexConfig, options: BuildOptions) -> Self {
        let cluster = Cluster::new(options.resolved_threads());
        Self {
            config,
            options,
            cluster,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &IndexConfig {
        &self.config
    }

    /// The execution options in use.
    pub fn options(&self) -> &BuildOptions {
        &self.options
    }

    /// Builds the index over `ds`, writing partitions into `store`.
    /// Returns the skeleton and a build report.
    ///
    /// # Panics
    /// If a partition write fails.
    pub fn build<S: PartitionStore>(
        &self,
        ds: &Dataset,
        store: &S,
    ) -> (IndexSkeleton, BuildReport) {
        let io_before = store.stats().snapshot();
        let (skeleton, mut report) = self
            .build_with_put(ds, |pid, image| store.put(pid, image, || ()))
            .expect("partition write failed");
        report.io = store.stats().snapshot().since(&io_before);
        (skeleton, report)
    }

    /// Builds the index over `ds`, handing every finished partition image
    /// to `put` — step 4's one write per skeleton partition, records or
    /// not, called from up to `threads` workers at once. [`build`] is the
    /// `store.put` case; the report's `io` stays zero here, since what
    /// `put` does with an image is the caller's to count.
    ///
    /// [`build`]: Self::build
    ///
    /// Every partition is handed to `put` even when one fails; the first
    /// failure is returned once the last `put` has returned.
    pub fn build_with_put<F>(
        &self,
        ds: &Dataset,
        put: F,
    ) -> io::Result<(IndexSkeleton, BuildReport)>
    where
        F: Fn(PartitionId, Bytes) -> io::Result<()> + Sync,
    {
        let cfg = &self.config;
        cfg.validate(ds.series_len());
        assert!(ds.num_series() > 0, "cannot index an empty dataset");
        let w = cfg.paa_segments;
        let block_size = self.options.resolved_block_size();

        // ---- Steps 1-3: skeleton from a partition-level sample ----
        let t0 = Instant::now();
        let sample_ids = self.sample_ids(ds);
        let sampled_records = sample_ids.len();
        let achieved_alpha = sampled_records as f64 / ds.num_series() as f64;
        let sample_blocks = range_blocks(sampled_records, block_size);

        // Step 1a: PAA of the sample, block-parallel. Each worker appends
        // into a per-block arena via `paa_into` (no per-record `Vec`);
        // arenas concatenate in block order into one flat `w`-strided
        // arena, so indexing is position-stable for any thread count.
        let sample_paa: Vec<f64> = {
            let ids = &sample_ids;
            self.cluster
                .par_map(sample_blocks.clone(), move |r| {
                    let mut arena = Vec::with_capacity(r.len() * w);
                    for i in r {
                        paa_into(ds.get(ids[i]), w, &mut arena);
                    }
                    arena
                })
                .into_iter()
                .flatten()
                .collect()
        };
        let pivots = select_pivots(&sample_paa, w, cfg.num_pivots, cfg.seed);

        // Step 1b + 2 (aggregation): rank-sensitive signatures of the
        // sample, extracted block-parallel with one selection buffer per
        // block and pre-aggregated into per-block frequency maps. The
        // merge is commutative counting, so the final map — and everything
        // derived from it — is independent of block or thread schedule.
        let freq_maps: Vec<HashMap<Vec<PivotId>, u64>> = {
            let (pivots, arena) = (&pivots, &sample_paa);
            self.cluster.par_map(sample_blocks, move |r| {
                let mut heap: Vec<(f64, PivotId)> = Vec::with_capacity(cfg.prefix_len + 1);
                let mut freq: HashMap<Vec<PivotId>, u64> = HashMap::new();
                for i in r {
                    let point = &arena[i * w..(i + 1) * w];
                    let prefix =
                        pivot_permutation_prefix_with(pivots, point, cfg.prefix_len, &mut heap);
                    *freq.entry(prefix).or_insert(0) += 1;
                }
                freq
            })
        };
        let mut sens_freq: HashMap<Vec<PivotId>, u64> = HashMap::new();
        for map in freq_maps {
            for (sig, f) in map {
                *sens_freq.entry(sig).or_insert(0) += f;
            }
        }
        let distinct_sensitive = sens_freq.len();
        let mut insens_freq: HashMap<Vec<PivotId>, u64> = HashMap::new();
        for (s, f) in &sens_freq {
            let mut ids = s.clone();
            ids.sort_unstable();
            *insens_freq.entry(ids).or_insert(0) += f;
        }
        let distinct_insensitive = insens_freq.len();
        let insens_list: Vec<(RankInsensitive, u64)> = insens_freq
            .into_iter()
            .map(|(ids, f)| (RankInsensitive(ids), f))
            .collect();
        let selection = compute_centroids(
            &insens_list,
            achieved_alpha.max(f64::MIN_POSITIVE),
            cfg.capacity,
            cfg.epsilon,
            cfg.max_centroids,
        );
        let centroids = selection.centroids;
        let table = CentroidTable::new(&centroids, pivots.len(), cfg.decay, cfg.prefix_len)
            .expect("Algorithm 2 selects prefixes of the sample as centroids");

        // Step 3: group the aggregated sensitive signatures (Algorithm 1,
        // parallel over the distinct-signature list in its deterministic
        // sorted order), build tries, pack leaves, assign partition ids
        // and defaults.
        let scale = 1.0 / achieved_alpha.max(f64::MIN_POSITIVE);
        let mut group_members: Vec<Vec<(Vec<PivotId>, u64)>> =
            vec![Vec::new(); centroids.len() + 1]; // [0] = fall-back
        let mut sens_list: Vec<(Vec<PivotId>, u64)> = sens_freq.into_iter().collect();
        sens_list.sort_unstable(); // deterministic iteration order
        let assigned: Vec<usize> = {
            let list = &sens_list;
            let table = &table;
            self.cluster
                .par_map(range_blocks(sens_list.len(), block_size), move |r| {
                    r.map(|i| {
                        let sig_ids = &list[i].0;
                        let tie_seed = sig_hash(sig_ids) ^ cfg.seed;
                        table
                            .assign(sig_ids, tie_seed)
                            .centroid()
                            .map_or(0, |c| c + 1)
                    })
                    .collect::<Vec<usize>>()
                })
        }
        .into_iter()
        .flatten()
        .collect();
        for (i, (sig_ids, freq)) in sens_list.into_iter().enumerate() {
            let est = ((freq as f64) * scale).round().max(1.0) as u64;
            group_members[assigned[i]].push((sig_ids, est));
        }

        let mut next_node: TrieNodeId = 0;
        let mut next_partition: PartitionId = 0;
        let mut groups: Vec<GroupMeta> = Vec::with_capacity(centroids.len() + 1);
        let mut partition_group: BTreeMap<PartitionId, GroupId> = BTreeMap::new();
        for (g, members) in group_members.iter().enumerate() {
            let refs: Vec<(&[PivotId], u64)> = members.iter().map(|(s, c)| (&s[..], *c)).collect();
            // The fall-back group holds structurally unrelated objects, so
            // it gets no trie (Figure 5 shows G0 as a bare entry).
            let mut trie = if g == FALLBACK_GROUP as usize {
                Trie::build(&[], cfg.capacity, 0, &mut next_node)
            } else {
                Trie::build(&refs, cfg.capacity, cfg.prefix_len, &mut next_node)
            };
            // FFD-pack the leaves of this group into partitions.
            let leaves = trie.leaves();
            let items: Vec<(TrieNodeId, u64)> = leaves
                .iter()
                .map(|&l| (trie.node(l).id, trie.node(l).est_size.max(1)))
                .collect();
            let bins = crate::packing::first_fit_decreasing(&items, cfg.capacity);
            let mut leaf_to_partition: HashMap<TrieNodeId, PartitionId> = HashMap::new();
            let mut bin_pids: Vec<(PartitionId, u64)> = Vec::with_capacity(bins.len());
            for bin in &bins {
                let pid = next_partition;
                next_partition += 1;
                partition_group.insert(pid, g as GroupId);
                for &node in &bin.items {
                    leaf_to_partition.insert(node, pid);
                }
                bin_pids.push((pid, bin.total));
            }
            trie.assign_partitions(&leaf_to_partition);
            // Default partition: smallest occupancy among the group's bins
            // (§V: "typically the partition with the smallest occupancy").
            let default_partition = bin_pids
                .iter()
                .min_by_key(|&&(pid, total)| (total, pid))
                .map(|&(pid, _)| pid)
                .expect("every group has at least one partition");
            let est_size: u64 = members.iter().map(|&(_, c)| c).sum();
            groups.push(GroupMeta {
                id: g as GroupId,
                centroid: if g == 0 {
                    None
                } else {
                    Some(centroids[g - 1].clone())
                },
                trie,
                default_partition,
                est_size,
            });
        }

        let skeleton = IndexSkeleton {
            paa_segments: cfg.paa_segments,
            prefix_len: cfg.prefix_len,
            decay: cfg.decay,
            pivots,
            groups,
            seed: cfg.seed,
            table,
        };
        let skeleton_secs = t0.elapsed().as_secs_f64();

        // ---- Step 4a: convert the entire dataset (broadcast skeleton) ----
        // Workers own contiguous record blocks; each routes its block into
        // a thread-local partition shard with one reused signature scratch.
        // Only ids flow into the shards — record values are re-read from
        // the dataset when writing, so conversion holds no record copies.
        let t1 = Instant::now();
        let n = ds.num_series();
        let shards: Vec<BlockShard> = {
            let skeleton = &skeleton;
            self.cluster.par_map(ds.blocks(block_size), move |blk| {
                let mut scratch = SignatureScratch::new();
                let mut routed: HashMap<PartitionId, Vec<(TrieNodeId, u64)>> = HashMap::new();
                let mut fallback = 0u64;
                let mut via_default = 0u64;
                for (id, vals) in blk.iter() {
                    let p = skeleton.place_with(vals, id, &mut scratch);
                    fallback += u64::from(p.group == FALLBACK_GROUP);
                    via_default += u64::from(p.via_default);
                    routed.entry(p.partition).or_default().push((p.node, id));
                }
                BlockShard {
                    routed,
                    fallback,
                    via_default,
                }
            })
        };
        let conversion_secs = t1.elapsed().as_secs_f64();

        // ---- Step 4b: shuffle by partition and write clustered records ----
        // Shards merge in fixed block order, so every (partition, node)
        // cluster lists its record ids ascending — bit-identical to a
        // sequential scan regardless of thread count or block size. (A
        // shard's own partition iteration order is immaterial: distinct
        // partitions land in disjoint entries.)
        let t2 = Instant::now();
        self.cluster.stats().on_shuffle(n as u64);
        let mut fallback_records = 0u64;
        let mut default_routed_records = 0u64;
        let mut by_partition: BTreeMap<PartitionId, BTreeMap<TrieNodeId, Vec<u64>>> =
            BTreeMap::new();
        for shard in shards {
            fallback_records += shard.fallback;
            default_routed_records += shard.via_default;
            for (pid, recs) in shard.routed {
                let clusters = by_partition.entry(pid).or_default();
                for (node, sid) in recs {
                    clusters.entry(node).or_default().push(sid);
                }
            }
        }

        // Write every planned partition, including ones that received no
        // records, so the store's id set matches the skeleton. Partitions
        // fan out over the work-queue scope (skewed partition sizes
        // balance naturally); each worker streams records straight from
        // the dataset into its own writer, so at most `threads` partition
        // buffers are in flight at once.
        let put = &put;
        let failed = Mutex::new(None);
        let failed_ref = &failed;
        self.cluster.install(|| {
            rayon::scope(|s| {
                for (&pid, &gid) in &partition_group {
                    let clusters = by_partition.get(&pid);
                    s.spawn(move |_| {
                        let (n_clusters, n_records) =
                            clusters.map_or((0, 0), |c| (c.len(), c.values().map(Vec::len).sum()));
                        let mut writer = PartitionWriter::with_capacity(
                            gid as u64,
                            ds.series_len(),
                            n_clusters,
                            n_records,
                        );
                        if let Some(clusters) = clusters {
                            for (&node, sids) in clusters {
                                writer
                                    .push_cluster(node, sids.iter().map(|&sid| (sid, ds.get(sid))));
                            }
                        }
                        if let Err(e) = put(pid, writer.finish()) {
                            (failed_ref.lock())
                                .unwrap_or_else(PoisonError::into_inner)
                                .get_or_insert(e);
                        }
                    });
                }
            })
        });
        let redistribution_secs = t2.elapsed().as_secs_f64();

        let report = BuildReport {
            skeleton_secs,
            conversion_secs,
            redistribution_secs,
            sampled_records,
            distinct_sensitive,
            distinct_insensitive,
            num_groups: skeleton.groups.len() - 1,
            num_partitions: skeleton.num_partitions(),
            num_trie_nodes: skeleton.num_trie_nodes(),
            fallback_records,
            default_routed_records,
            skeleton_bytes: skeleton.size_bytes(),
            io: IoSnapshot::default(),
            threads: self.cluster.workers(),
            skeleton_records_per_sec: per_sec(sampled_records, skeleton_secs),
            conversion_records_per_sec: per_sec(n, conversion_secs),
            redistribution_records_per_sec: per_sec(n, redistribution_secs),
        };
        let failed = failed.into_inner().unwrap_or_else(PoisonError::into_inner);
        failed.map_or(Ok((skeleton, report)), Err)
    }

    /// Partition-level sampling over the raw dataset: the unorganised input
    /// is viewed as contiguous chunks of `capacity` records ("the original
    /// dataset ... gets stored across partitions without any special
    /// organization"), and whole chunks are drawn until the α fraction is
    /// met.
    fn sample_ids(&self, ds: &Dataset) -> Vec<u64> {
        let cfg = &self.config;
        let n = ds.num_series();
        let chunk = (cfg.capacity as usize).min(n).max(1);
        let chunks = n.div_ceil(chunk);
        let take = partitions_for_alpha(chunks, cfg.alpha);
        let picked = partition_level_sample(chunks, take, cfg.seed ^ 0x5A5A);
        let mut ids = Vec::with_capacity(take * chunk);
        for c in picked {
            let start = c * chunk;
            let end = ((c + 1) * chunk).min(n);
            ids.extend((start as u64)..(end as u64));
        }
        ids
    }
}

/// Draws `r` pivots from the sample PAA signatures — a flat arena of `w`
/// values per point (random selection, §V Step 1). Sampling is id-based
/// and deterministic in `seed`.
fn select_pivots(sample_paa: &[f64], w: usize, r: usize, seed: u64) -> PivotSet {
    let n = sample_paa.len() / w;
    assert!(
        n >= r,
        "sample of {n} series cannot provide {r} pivots — lower num_pivots or raise alpha",
    );
    let idx = climber_series::sampling::reservoir_sample(0..n, r, seed ^ 0x71B0);
    PivotSet::from_points(
        idx.into_iter()
            .map(|i| sample_paa[i * w..(i + 1) * w].to_vec())
            .collect(),
    )
}

/// Order-independent 64-bit hash of a signature (tie-break seeding).
fn sig_hash(ids: &[PivotId]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &id in ids {
        h ^= id as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use climber_dfs::store::DiskStore;
    use climber_series::gen::Domain;

    fn small_config() -> IndexConfig {
        IndexConfig::default()
            .with_paa_segments(8)
            .with_pivots(24)
            .with_prefix_len(4)
            .with_capacity(64)
            .with_alpha(0.5)
            .with_epsilon(1)
            .with_seed(7)
            .with_workers(2)
    }

    #[test]
    fn build_writes_every_record_exactly_once() {
        let ds = Domain::RandomWalk.generate(400, 11);
        let store = DiskStore::in_memory();
        let (skeleton, report) = IndexBuilder::new(small_config()).build(&ds, &store);

        let mut seen: Vec<u64> = Vec::new();
        for pid in store.ids() {
            let r = store.open(pid).unwrap();
            r.for_each(|id, _| seen.push(id));
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..400u64).collect::<Vec<_>>());
        assert!(report.num_groups >= 1);
        assert_eq!(store.ids().len(), skeleton.num_partitions());
    }

    #[test]
    fn build_is_deterministic() {
        let ds = Domain::Eeg.generate(200, 3);
        let s1 = DiskStore::in_memory();
        let s2 = DiskStore::in_memory();
        let (sk1, _) = IndexBuilder::new(small_config()).build(&ds, &s1);
        let (sk2, _) = IndexBuilder::new(small_config()).build(&ds, &s2);
        assert_eq!(sk1, sk2);
        assert_eq!(s1.ids(), s2.ids());
    }

    #[test]
    fn build_deterministic_across_worker_counts() {
        let ds = Domain::TexMex.generate(200, 5);
        let s1 = DiskStore::in_memory();
        let s8 = DiskStore::in_memory();
        let (sk1, _) = IndexBuilder::new(small_config().with_workers(1)).build(&ds, &s1);
        let (sk8, _) = IndexBuilder::new(small_config().with_workers(8)).build(&ds, &s8);
        assert_eq!(sk1, sk8);
        for pid in s1.ids() {
            let mut a = Vec::new();
            let mut b = Vec::new();
            s1.open(pid).unwrap().for_each(|id, _| a.push(id));
            s8.open(pid).unwrap().for_each(|id, _| b.push(id));
            assert_eq!(a, b, "partition {pid}");
        }
    }

    #[test]
    fn build_bit_identical_across_threads_and_block_sizes() {
        let ds = Domain::RandomWalk.generate(330, 19);
        let reference = {
            let store = DiskStore::in_memory();
            let b = IndexBuilder::with_options(
                small_config(),
                BuildOptions::default()
                    .with_threads(1)
                    .with_block_size(1_000_000),
            );
            let (sk, _) = b.build(&ds, &store);
            (sk.to_bytes(), partition_bytes(&store))
        };
        for (threads, block_size) in [(2usize, 7usize), (8, 64), (3, 1), (0, 33)] {
            let store = DiskStore::in_memory();
            let builder = IndexBuilder::with_options(
                small_config(),
                BuildOptions::default()
                    .with_threads(threads)
                    .with_block_size(block_size),
            );
            let (sk, report) = builder.build(&ds, &store);
            assert_eq!(
                sk.to_bytes(),
                reference.0,
                "skeleton diverged at threads={threads} block={block_size}"
            );
            assert_eq!(
                partition_bytes(&store),
                reference.1,
                "partitions diverged at threads={threads} block={block_size}"
            );
            assert_eq!(report.threads, builder.options().resolved_threads());
        }
    }

    fn partition_bytes(store: &DiskStore) -> Vec<(u32, Vec<u8>)> {
        store
            .ids()
            .into_iter()
            .map(|pid| (pid, store.open(pid).unwrap().raw_bytes().to_vec()))
            .collect()
    }

    #[test]
    fn build_options_resolve() {
        let o = BuildOptions::default();
        assert!(o.resolved_threads() >= 1);
        assert_eq!(o.resolved_block_size(), BuildOptions::DEFAULT_BLOCK_SIZE);
        let o = BuildOptions::default().with_threads(5).with_block_size(0);
        assert_eq!(o.resolved_threads(), 5);
        assert_eq!(o.resolved_block_size(), 1);
    }

    #[test]
    fn partitions_respect_soft_capacity() {
        let ds = Domain::RandomWalk.generate(600, 13);
        let store = DiskStore::in_memory();
        let cfg = small_config().with_capacity(50);
        let (_, report) = IndexBuilder::new(cfg).build(&ds, &store);
        // Estimates are sample-scaled so real partitions can exceed c, but
        // the bulk must be within a small factor of it.
        let mut oversize = 0usize;
        for pid in store.ids() {
            let n = store.open(pid).unwrap().record_count();
            if n > 3 * 50 {
                oversize += 1;
            }
        }
        assert!(
            oversize <= store.ids().len() / 3,
            "{oversize}/{} partitions grossly oversized",
            store.ids().len()
        );
        assert!(report.num_partitions >= 600 / (3 * 50));
    }

    #[test]
    fn placements_match_skeleton_replay() {
        // Every stored record must be recoverable by re-running place().
        let ds = Domain::Dna.generate(150, 17);
        let store = DiskStore::in_memory();
        let (skeleton, _) = IndexBuilder::new(small_config()).build(&ds, &store);
        for pid in store.ids() {
            let r = store.open(pid).unwrap();
            r.for_each(|id, vals| {
                let p = skeleton.place(vals, id);
                assert_eq!(p.partition, pid, "record {id} misplaced");
            });
        }
    }

    #[test]
    fn report_phases_are_populated() {
        let ds = Domain::RandomWalk.generate(120, 23);
        let store = DiskStore::in_memory();
        let (_, report) = IndexBuilder::new(small_config()).build(&ds, &store);
        assert!(report.skeleton_secs >= 0.0);
        assert!(report.sampled_records > 0);
        assert!(report.distinct_sensitive >= report.distinct_insensitive);
        assert!(report.skeleton_bytes > 0);
        assert!(report.io.partitions_written > 0);
        assert!(report.threads >= 1);
        assert!(report.skeleton_records_per_sec > 0.0);
        assert!(report.conversion_records_per_sec > 0.0);
        assert!(report.redistribution_records_per_sec > 0.0);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_rejected() {
        let ds = Dataset::new(16);
        let store = DiskStore::in_memory();
        IndexBuilder::new(small_config()).build(&ds, &store);
    }

    #[test]
    fn skeleton_roundtrips_after_build() {
        let ds = Domain::Eeg.generate(100, 29);
        let store = DiskStore::in_memory();
        let (skeleton, _) = IndexBuilder::new(small_config()).build(&ds, &store);
        let back = IndexSkeleton::from_bytes(&skeleton.to_bytes()).unwrap();
        assert_eq!(skeleton, back);
    }
}
