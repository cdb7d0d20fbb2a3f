//! The global index skeleton (Figure 5): the structure the master node
//! keeps in memory, broadcasts to workers during the build, and navigates
//! at query time.
//!
//! Level 1 is the group list — `[G0, <*,*,*>], [G1, <1,2,4>], ...` — where
//! `G0` is the fall-back group; level 2 is the forest of per-group tries.
//! The skeleton also records, per group, the *default partition* (the
//! packed partition with the smallest occupancy) that receives records
//! unable to navigate a complete root-to-leaf path.

use crate::trie::Trie;
use climber_dfs::format::{ByteReader, TrieNodeId};
use climber_dfs::store::PartitionId;
use climber_pivot::assignment::{splitmix64, CentroidTable};
use climber_pivot::decay::DecayFunction;
use climber_pivot::pivots::{PivotId, PivotSet};
use climber_pivot::signature::{DualSignature, RankInsensitive, SignatureScratch};
use climber_repr::paa::paa;

/// Identifier of a data-series group. Group 0 is always the fall-back.
pub type GroupId = u32;

/// The reserved fall-back group id (`G0` in the paper).
pub const FALLBACK_GROUP: GroupId = 0;

/// Per-group metadata in the skeleton.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupMeta {
    /// Group id (its index in [`IndexSkeleton::groups`]).
    pub id: GroupId,
    /// Rank-insensitive centroid; `None` for the fall-back group, whose
    /// centroid is the wildcard `<*,*,...>`.
    pub centroid: Option<RankInsensitive>,
    /// The group's trie (single-leaf for groups within capacity).
    pub trie: Trie,
    /// Partition receiving records that cannot complete a root-to-leaf walk.
    pub default_partition: PartitionId,
    /// Estimated full-dataset record count.
    pub est_size: u64,
}

/// Where one record lands (the output of the Step-4 placement logic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// The chosen group.
    pub group: GroupId,
    /// The physical partition the record is stored in.
    pub partition: PartitionId,
    /// The trie-node cluster it is stored under.
    pub node: TrieNodeId,
    /// True when the record fell back to the group's default partition.
    pub via_default: bool,
}

/// The two-level global index.
///
/// Built by the index builder or decoded by [`from_bytes`](Self::from_bytes),
/// both of which derive the [`CentroidTable`] of the real groups' centroids
/// that group assignment and lookup run on; the fields are read-only in
/// practice, since the table does not follow later edits to them.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexSkeleton {
    /// PAA segment count `w`.
    pub paa_segments: usize,
    /// Prefix length `m`.
    pub prefix_len: usize,
    /// Decay function for WD tie-breaks.
    pub decay: DecayFunction,
    /// The pivot set (fixed for the index lifetime).
    pub pivots: PivotSet,
    /// Groups; index == group id; `groups[0]` is the fall-back.
    pub groups: Vec<GroupMeta>,
    /// Seed mixed into deterministic tie-breaks.
    pub seed: u64,
    /// `groups[1..]`'s centroids as pivot bitmaps (row `c` is group
    /// `c + 1`); derived, never serialised.
    pub(crate) table: CentroidTable,
}

impl IndexSkeleton {
    /// A skeleton from its parts, checked the way a decoded one must be:
    /// every search on it runs without a panic.
    ///
    /// # Errors
    /// - `prefix_len` outside `1..=` the pivot count, or `paa_segments`
    ///   other than the pivot space's dimensionality;
    /// - no groups, a group whose id is not its index, a fall-back group
    ///   with a centroid or a real group without one;
    /// - a centroid that is not `prefix_len` strictly ascending pivot ids.
    fn assemble(
        paa_segments: usize,
        prefix_len: usize,
        decay: DecayFunction,
        pivots: PivotSet,
        groups: Vec<GroupMeta>,
        seed: u64,
    ) -> Result<Self, String> {
        if prefix_len == 0 || prefix_len > pivots.len() {
            return Err(format!(
                "prefix length {prefix_len} outside 1..={} pivots",
                pivots.len()
            ));
        }
        if paa_segments != pivots.dims() {
            return Err(format!(
                "{paa_segments} PAA segments over a {}-dimensional pivot space",
                pivots.dims()
            ));
        }
        if groups.is_empty() {
            return Err("no fall-back group".to_string());
        }
        for (i, g) in groups.iter().enumerate() {
            if g.id as usize != i {
                return Err(format!("group {} at index {i}", g.id));
            }
            if g.centroid.is_some() != (i != FALLBACK_GROUP as usize) {
                return Err(format!("group {i}: centroid on the wrong side of G0"));
            }
        }
        let centroids = groups[1..].iter().filter_map(|g| g.centroid.as_ref());
        let table = CentroidTable::new(centroids, pivots.len(), decay, prefix_len)?;
        Ok(Self {
            paa_segments,
            prefix_len,
            decay,
            pivots,
            groups,
            seed,
            table,
        })
    }

    /// Extracts the P4 dual signature of a raw series under this index's
    /// parameters (the exact transformation indexed records went through).
    pub fn extract_signature(&self, values: &[f32]) -> DualSignature {
        let p = paa(values, self.paa_segments);
        DualSignature::extract_from_paa(&p, &self.pivots, self.prefix_len)
    }

    /// Extracts the dual signatures of many queries at once, fanned out
    /// across threads (signature extraction is pure and per-query
    /// independent) with one [`SignatureScratch`] per worker chunk instead
    /// of per-query allocations. Output order matches input order; used by
    /// the query executor's planning stage (which borrows request queries
    /// as they are, hence the `AsRef` bound).
    pub fn extract_signatures<Q>(&self, queries: &[Q]) -> Vec<DualSignature>
    where
        Q: AsRef<[f32]> + Sync,
    {
        use rayon::prelude::*;
        let chunk = queries
            .len()
            .div_ceil(rayon::current_num_threads().max(1))
            .max(1);
        let per_chunk: Vec<Vec<DualSignature>> = queries
            .par_chunks(chunk)
            .map(|c| {
                DualSignature::extract_batch(
                    c.iter().map(AsRef::as_ref),
                    &self.pivots,
                    self.paa_segments,
                    self.prefix_len,
                )
            })
            .collect();
        per_chunk.into_iter().flatten().collect()
    }

    /// The real groups' centroids as the bitmap table Algorithm 1 runs on
    /// (row `c` is group `c + 1`).
    pub fn centroid_table(&self) -> &CentroidTable {
        &self.table
    }

    /// Algorithm-1 group assignment of a rank-sensitive prefix; `tie_seed`
    /// feeds the deterministic random tie-break.
    pub fn assign(&self, prefix: &[PivotId], tie_seed: u64) -> GroupId {
        if self.table.is_empty() {
            return FALLBACK_GROUP;
        }
        self.table
            .assign(prefix, splitmix64(self.seed ^ tie_seed))
            .centroid()
            .map_or(FALLBACK_GROUP, |c| c as GroupId + 1)
    }

    /// Full Step-4 placement of one record: group assignment, then trie
    /// navigation; records without a complete root-to-leaf path go to the
    /// group's default partition clustered under the trie root.
    pub fn place(&self, values: &[f32], series_id: u64) -> Placement {
        self.place_with(values, series_id, &mut SignatureScratch::new())
    }

    /// [`place`](Self::place) with caller-provided scratch buffers — the
    /// bulk-conversion form the parallel build's worker threads and
    /// `append_batch` use, one scratch per thread, so routing the full
    /// dataset allocates nothing per record.
    pub fn place_with(
        &self,
        values: &[f32],
        series_id: u64,
        scratch: &mut SignatureScratch,
    ) -> Placement {
        let prefix =
            scratch.rank_sensitive(values, &self.pivots, self.paa_segments, self.prefix_len);
        let group = self.assign(prefix, series_id);
        let meta = &self.groups[group as usize];
        match meta.trie.leaf_for(prefix) {
            Some(leaf_idx) => {
                let leaf = meta.trie.node(leaf_idx);
                Placement {
                    group,
                    partition: leaf.partitions[0],
                    node: leaf.id,
                    via_default: false,
                }
            }
            None => Placement {
                group,
                partition: meta.default_partition,
                node: meta.trie.root().id,
                via_default: true,
            },
        }
    }

    /// Groups achieving the minimum OD to `sig` (Algorithm 3 lines 5-6),
    /// with that distance. The fall-back group is returned only when *no*
    /// real group overlaps the signature.
    pub fn groups_by_overlap(&self, sig: &DualSignature) -> (Vec<GroupId>, usize) {
        let prefix = &sig.sensitive.0;
        let best = self.table.min_od(prefix);
        if best == self.prefix_len {
            return (vec![FALLBACK_GROUP], best);
        }
        let groups = (0..self.table.len())
            .filter(|&c| self.table.od(c, prefix) == best)
            .map(|c| c as GroupId + 1)
            .collect();
        (groups, best)
    }

    /// The distinct physical partition ids referenced by the skeleton,
    /// ascending. A persisted index must store exactly these (validated
    /// against the manifest at open).
    pub fn partition_ids(&self) -> Vec<PartitionId> {
        let mut pids: Vec<PartitionId> = self
            .groups
            .iter()
            .flat_map(|g| {
                g.trie
                    .nodes()
                    .iter()
                    .flat_map(|n| n.partitions.iter().copied())
                    .chain(std::iter::once(g.default_partition))
            })
            .collect();
        pids.sort_unstable();
        pids.dedup();
        pids
    }

    /// Number of physical partitions referenced by the skeleton.
    pub fn num_partitions(&self) -> usize {
        self.partition_ids().len()
    }

    /// Total trie nodes across all groups.
    pub fn num_trie_nodes(&self) -> usize {
        self.groups.iter().map(|g| g.trie.len()).sum()
    }

    /// Serialised size in bytes (the paper's "global index size" metric,
    /// Figure 8(b)).
    pub fn size_bytes(&self) -> usize {
        self.to_bytes().len()
    }

    /// Serialises the skeleton (magic `CLSK`, little-endian).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"CLSK");
        out.extend_from_slice(&1u32.to_le_bytes()); // version
        out.extend_from_slice(&(self.paa_segments as u32).to_le_bytes());
        out.extend_from_slice(&(self.prefix_len as u32).to_le_bytes());
        match self.decay {
            DecayFunction::Exponential { lambda } => {
                out.push(0);
                out.extend_from_slice(&lambda.to_le_bytes());
            }
            DecayFunction::Linear => {
                out.push(1);
                out.extend_from_slice(&0f64.to_le_bytes());
            }
        }
        out.extend_from_slice(&self.seed.to_le_bytes());
        let pivot_blob = self.pivots.to_bytes();
        out.extend_from_slice(&(pivot_blob.len() as u64).to_le_bytes());
        out.extend_from_slice(&pivot_blob);
        out.extend_from_slice(&(self.groups.len() as u32).to_le_bytes());
        for g in &self.groups {
            out.extend_from_slice(&g.id.to_le_bytes());
            match &g.centroid {
                Some(c) => {
                    out.push(1);
                    out.extend_from_slice(&(c.0.len() as u16).to_le_bytes());
                    for &p in &c.0 {
                        out.extend_from_slice(&p.to_le_bytes());
                    }
                }
                None => out.push(0),
            }
            out.extend_from_slice(&g.default_partition.to_le_bytes());
            out.extend_from_slice(&g.est_size.to_le_bytes());
            g.trie.to_bytes(&mut out);
        }
        out
    }

    /// Deserialises a skeleton written by [`IndexSkeleton::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let mut r = ByteReader::new(bytes);
        let magic = r.take(4).map_err(|_| "skeleton too short".to_string())?;
        if magic != b"CLSK" {
            return Err(format!("bad skeleton magic {magic:?}"));
        }
        let version = r.u32()?;
        if version != 1 {
            return Err(format!("unsupported skeleton version {version}"));
        }
        let paa_segments = r.u32()? as usize;
        let prefix_len = r.u32()? as usize;
        let decay_tag = r.u8()?;
        let lambda = r.f64()?;
        let decay = match decay_tag {
            0 if lambda > 0.0 && lambda < 1.0 => DecayFunction::Exponential { lambda },
            0 => return Err(format!("exponential decay rate {lambda} outside (0,1)")),
            1 => DecayFunction::Linear,
            t => return Err(format!("unknown decay tag {t}")),
        };
        let seed = r.u64()?;
        let pivot_blob = r.blob().map_err(|e| format!("pivot blob: {e}"))?;
        let pivots = PivotSet::from_bytes(pivot_blob)?;
        let n_groups = r.u32()? as usize;
        // Capped at what the remaining bytes can hold (a group is at least
        // 17 bytes before its trie): the count comes straight from the file.
        let mut groups = Vec::with_capacity(n_groups.min(r.remaining() / 17));
        for _ in 0..n_groups {
            let id = r.u32()?;
            let has_centroid = r.u8()?;
            let centroid = if has_centroid == 1 {
                let m = r.u16()? as usize;
                let mut ids = Vec::with_capacity(m);
                for _ in 0..m {
                    ids.push(r.u16()?);
                }
                Some(RankInsensitive(ids))
            } else {
                None
            };
            let default_partition = r.u32()?;
            let est_size = r.u64()?;
            let trie = Trie::from_reader(&mut r)?;
            groups.push(GroupMeta {
                id,
                centroid,
                trie,
                default_partition,
                est_size,
            });
        }
        r.expect_end()
            .map_err(|_| "trailing bytes after skeleton".to_string())?;
        Self::assemble(paa_segments, prefix_len, decay, pivots, groups, seed)
    }

    /// Renders the Figure-5-style skeleton overview: one line per group
    /// with its centroid, estimated size, trie shape and partitions.
    pub fn summary(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "CLIMBER index skeleton: w={} m={} pivots={} groups={} partitions={} ({} trie nodes, {} bytes)",
            self.paa_segments,
            self.prefix_len,
            self.pivots.len(),
            self.groups.len(),
            self.num_partitions(),
            self.num_trie_nodes(),
            self.size_bytes()
        );
        for g in &self.groups {
            let centroid = match &g.centroid {
                Some(c) => format!(
                    "<{}>",
                    c.0.iter()
                        .map(|p| p.to_string())
                        .collect::<Vec<_>>()
                        .join(",")
                ),
                None => "<*,*,...>".to_string(),
            };
            let leaves = g.trie.leaves().len();
            let _ = writeln!(
                out,
                "  [G{}, {}] est={} trie: {} nodes / {} leaves, default partition β{}, partitions {:?}",
                g.id,
                centroid,
                g.est_size,
                g.trie.len(),
                leaves,
                g.default_partition,
                g.trie.root().partitions
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use climber_pivot::pivots::PivotId;
    use std::collections::HashMap;

    /// Small hand-built skeleton: 4 pivots on a line in 1-D PAA space,
    /// 2 real groups + fallback, group 1 with a trivial trie, group 2 with
    /// a 2-level trie.
    fn toy_skeleton() -> IndexSkeleton {
        let pivots = PivotSet::from_points(vec![vec![0.0], vec![10.0], vec![20.0], vec![30.0]]);
        let mut next_node = 0u64;

        // fall-back group: trivial trie, partition 0
        let g0_trie = Trie::build(&[], 100, 2, &mut next_node);
        let mut g0_map = HashMap::new();
        g0_map.insert(g0_trie.root().id, 0u32);
        let mut g0_trie = g0_trie;
        g0_trie.assign_partitions(&g0_map);

        // group 1 (centroid <0,1>): trivial trie, partition 1
        let members1: Vec<(Vec<PivotId>, u64)> = vec![(vec![0, 1], 50)];
        let refs1: Vec<(&[PivotId], u64)> = members1.iter().map(|(s, c)| (&s[..], *c)).collect();
        let mut t1 = Trie::build(&refs1, 100, 2, &mut next_node);
        let mut m1 = HashMap::new();
        m1.insert(t1.root().id, 1u32);
        t1.assign_partitions(&m1);

        // group 2 (centroid <2,3>): split on 1st pivot, partitions 2,3
        let members2: Vec<(Vec<PivotId>, u64)> = vec![(vec![2, 3], 80), (vec![3, 2], 70)];
        let refs2: Vec<(&[PivotId], u64)> = members2.iter().map(|(s, c)| (&s[..], *c)).collect();
        let mut t2 = Trie::build(&refs2, 100, 2, &mut next_node);
        let leaves = t2.leaves();
        let mut m2 = HashMap::new();
        for (i, &l) in leaves.iter().enumerate() {
            m2.insert(t2.node(l).id, 2 + i as u32);
        }
        t2.assign_partitions(&m2);

        IndexSkeleton::assemble(
            1,
            2,
            DecayFunction::DEFAULT,
            pivots,
            vec![
                GroupMeta {
                    id: 0,
                    centroid: None,
                    trie: g0_trie,
                    default_partition: 0,
                    est_size: 0,
                },
                GroupMeta {
                    id: 1,
                    centroid: Some(RankInsensitive(vec![0, 1])),
                    trie: t1,
                    default_partition: 1,
                    est_size: 50,
                },
                GroupMeta {
                    id: 2,
                    centroid: Some(RankInsensitive(vec![2, 3])),
                    trie: t2,
                    default_partition: 2,
                    est_size: 150,
                },
            ],
            42,
        )
        .unwrap()
    }

    #[test]
    fn signature_extraction_matches_pivot_layout() {
        let sk = toy_skeleton();
        // A series of constant 1.0 → PAA [1.0] → nearest pivots 0 then 1.
        let sig = sk.extract_signature(&[1.0, 1.0]);
        assert_eq!(sig.sensitive.0, vec![0, 1]);
    }

    #[test]
    fn batch_signature_extraction_matches_single() {
        let sk = toy_skeleton();
        let queries: Vec<Vec<f32>> = (0..40)
            .map(|i| vec![i as f32 * 0.8, i as f32 * 0.8])
            .collect();
        let batch = sk.extract_signatures(&queries);
        assert_eq!(batch.len(), queries.len());
        for (q, sig) in queries.iter().zip(batch.iter()) {
            assert_eq!(sig, &sk.extract_signature(q));
        }
    }

    #[test]
    fn assign_routes_to_best_group() {
        let sk = toy_skeleton();
        let near0 = sk.extract_signature(&[1.0, 1.0]); // pivots {0,1}
        assert_eq!(sk.assign(&near0.sensitive.0, 0), 1);
        let near3 = sk.extract_signature(&[29.0, 29.0]); // pivots {3,2}
        assert_eq!(sk.assign(&near3.sensitive.0, 0), 2);
    }

    #[test]
    fn place_uses_leaf_partition() {
        let sk = toy_skeleton();
        // series near pivot 2 → group 2, sensitive <2,3> → leaf under "2"
        let p = sk.place(&[19.0, 19.0], 7);
        assert_eq!(p.group, 2);
        assert!(!p.via_default);
        assert!(p.partition == 2 || p.partition == 3);
    }

    #[test]
    fn groups_by_overlap_finds_ties() {
        let sk = toy_skeleton();
        let sig = sk.extract_signature(&[15.0, 15.0]); // pivots {1,2}: one hit in each group
        let (gs, od) = sk.groups_by_overlap(&sig);
        assert_eq!(od, 1);
        assert_eq!(gs, vec![1, 2]);
    }

    #[test]
    fn zero_overlap_returns_fallback() {
        let sk = toy_skeleton();
        // craft a signature with pivots outside every centroid — impossible
        // here with 4 pivots all covered, so shrink to a direct call:
        let sig =
            DualSignature::from_sensitive(climber_pivot::signature::RankSensitive(vec![0, 3]));
        // centroids are {0,1} and {2,3}: overlap 1 each → not fallback.
        let (gs, _) = sk.groups_by_overlap(&sig);
        assert_eq!(gs, vec![1, 2]);
    }

    #[test]
    fn serialization_roundtrip() {
        let sk = toy_skeleton();
        let bytes = sk.to_bytes();
        let back = IndexSkeleton::from_bytes(&bytes).unwrap();
        assert_eq!(sk, back);
        assert_eq!(sk.size_bytes(), bytes.len());
    }

    #[test]
    fn corrupted_skeleton_rejected() {
        let sk = toy_skeleton();
        let bytes = sk.to_bytes();
        assert!(IndexSkeleton::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(IndexSkeleton::from_bytes(&bad).is_err());
        let mut trailing = bytes;
        trailing.push(0);
        assert!(IndexSkeleton::from_bytes(&trailing).is_err());
    }

    #[test]
    fn crafted_group_count_is_an_error_not_an_allocation() {
        let sk = toy_skeleton();
        // magic, version, w, m, decay tag, lambda, seed, pivot blob: the
        // group count follows.
        let at = 4 + 4 + 4 + 4 + 1 + 8 + 8 + 8 + sk.pivots.to_bytes().len();
        let mut bytes = sk.to_bytes();
        assert_eq!(bytes[at..at + 4], (sk.groups.len() as u32).to_le_bytes());
        bytes.truncate(at);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(IndexSkeleton::from_bytes(&bytes).is_err());
    }

    /// The toy skeleton with one field edited, through the bytes.
    fn decode_edited(edit: impl FnOnce(&mut IndexSkeleton)) -> Result<IndexSkeleton, String> {
        let mut sk = toy_skeleton();
        edit(&mut sk);
        IndexSkeleton::from_bytes(&sk.to_bytes())
    }

    /// Decodes the toy skeleton with group `g`'s centroid set to `ids`.
    fn decode_with_centroid(g: usize, ids: Option<&[PivotId]>) -> Result<IndexSkeleton, String> {
        decode_edited(|sk| sk.groups[g].centroid = ids.map(|ids| RankInsensitive(ids.to_vec())))
    }

    #[test]
    fn a_centroid_of_the_wrong_length_is_an_error_not_a_panic_at_search() {
        assert!(decode_with_centroid(1, Some(&[0, 1, 2])).is_err());
        assert!(decode_with_centroid(2, Some(&[3])).is_err());
    }

    #[test]
    fn a_prefix_longer_than_the_pivot_set_is_an_error() {
        assert!(decode_edited(|sk| sk.prefix_len = 500).is_err());
        assert!(decode_edited(|sk| sk.prefix_len = 0).is_err());
    }

    #[test]
    fn paa_segments_off_the_pivot_space_are_an_error() {
        assert!(decode_edited(|sk| sk.paa_segments = 8).is_err());
    }

    #[test]
    fn a_centroid_pivot_id_past_the_pivot_set_is_an_error() {
        assert!(decode_with_centroid(2, Some(&[2, 60_000])).is_err());
        assert!(decode_with_centroid(2, Some(&[2, 4])).is_err());
    }

    #[test]
    fn centroid_ids_out_of_order_are_an_error() {
        assert!(decode_with_centroid(2, Some(&[3, 2])).is_err());
        assert!(decode_with_centroid(2, Some(&[2, 2])).is_err());
    }

    #[test]
    fn a_malformed_group_list_is_an_error() {
        assert!(decode_edited(|sk| sk.groups[1].id = 7).is_err());
        assert!(decode_edited(|sk| sk.groups.clear()).is_err());
        assert!(decode_with_centroid(0, Some(&[0, 1])).is_err());
        assert!(decode_with_centroid(1, None).is_err());
        let bad_rate = DecayFunction::Exponential { lambda: 1.5 };
        assert!(decode_edited(|sk| sk.decay = bad_rate).is_err());
        // The untouched skeleton still decodes.
        assert_eq!(decode_edited(|_| {}), Ok(toy_skeleton()));
    }

    #[test]
    fn num_partitions_counts_distinct() {
        let sk = toy_skeleton();
        assert_eq!(sk.num_partitions(), 4); // 0,1,2,3
    }

    #[test]
    fn placement_is_deterministic() {
        let sk = toy_skeleton();
        let a = sk.place(&[12.0, 12.0], 99);
        let b = sk.place(&[12.0, 12.0], 99);
        assert_eq!(a, b);
    }

    #[test]
    fn place_with_shared_scratch_matches_place() {
        let sk = toy_skeleton();
        let mut scratch = SignatureScratch::new();
        for i in 0..30u64 {
            let v = [i as f32, i as f32 + 0.5];
            assert_eq!(sk.place_with(&v, i, &mut scratch), sk.place(&v, i));
        }
    }

    #[test]
    fn place_routes_by_the_extracted_signature() {
        // The scratch prefix `place_with` reads is the signature's `P4→`.
        let sk = toy_skeleton();
        for i in 0..30u64 {
            let v = [i as f32, i as f32 + 0.5];
            let sig = sk.extract_signature(&v);
            let p = sk.place(&v, i);
            assert_eq!(p.group, sk.assign(&sig.sensitive.0, i));
            let trie = &sk.groups[p.group as usize].trie;
            assert_eq!(p.via_default, trie.leaf_for(&sig.sensitive.0).is_none());
        }
    }
}
