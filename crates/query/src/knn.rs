//! CLIMBER-kNN (Algorithm 3): global index search for the single best
//! matching trie node.
//!
//! Tie-break ladder, exactly as the paper specifies:
//! 1. smallest OD over group centroids (lines 5-6);
//! 2. smallest WD among OD-tied groups (lines 7-9);
//! 3. longest trie path `PathLen(GN)` (lines 14-15);
//! 4. largest node size `Size(GN)` (lines 16-17);
//! 5. deterministic pseudo-random pick (lines 18-19).

use crate::plan::QueryPlan;
use climber_dfs::format::TrieNodeId;
use climber_dfs::store::PartitionId;
use climber_index::skeleton::{GroupId, IndexSkeleton, FALLBACK_GROUP};
use climber_index::trie::NodeIdx;
use climber_pivot::assignment::splitmix64;
use climber_pivot::signature::DualSignature;

/// A candidate `(group, trie node)` pair produced by descending one group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupDescent {
    /// The group descended into.
    pub group: GroupId,
    /// Deepest node reached (`GN`).
    pub node: NodeIdx,
    /// Path length from the root (`PathLen(GN)`).
    pub path_len: usize,
    /// Estimated records under the node (`Size(GN)`).
    pub size: u64,
}

/// Lines 5-9 of Algorithm 3: the OD-best groups, then the WD tie-break.
/// Returns the surviving group ids (possibly several — a second tie).
pub fn select_groups(skeleton: &IndexSkeleton, sig: &DualSignature) -> Vec<GroupId> {
    let (od_tied, _) = skeleton.groups_by_overlap(sig);
    if od_tied == [FALLBACK_GROUP] || od_tied.len() == 1 {
        return od_tied;
    }
    // WD tie-break (lines 7-9), on the centroid table (row g - 1).
    let table = skeleton.centroid_table();
    let wd = |g: GroupId| table.wd(g as usize - 1, &sig.sensitive.0);
    let best = od_tied.iter().map(|&g| wd(g)).fold(f64::INFINITY, f64::min);
    let limit = best + f64::EPSILON * best.abs().max(1.0);
    od_tied.into_iter().filter(|&g| wd(g) <= limit).collect()
}

/// Descends one group's trie along the rank-sensitive signature
/// (line 11-13).
pub fn descend_group(skeleton: &IndexSkeleton, g: GroupId, sig: &DualSignature) -> GroupDescent {
    let trie = &skeleton.groups[g as usize].trie;
    let d = trie.descend(&sig.sensitive.0);
    GroupDescent {
        group: g,
        node: d.node,
        path_len: d.path_len,
        size: trie.node(d.node).est_size,
    }
}

/// Lines 10-19: descends every candidate group and applies the
/// longest-path → largest-size → random ladder, returning the single
/// winner.
pub fn select_primary(skeleton: &IndexSkeleton, sig: &DualSignature, qseed: u64) -> GroupDescent {
    let groups = select_groups(skeleton, sig);
    let mut descents: Vec<GroupDescent> = groups
        .iter()
        .map(|&g| descend_group(skeleton, g, sig))
        .collect();
    // longest path
    let max_path = descents
        .iter()
        .map(|d| d.path_len)
        .max()
        .expect("non-empty");
    descents.retain(|d| d.path_len == max_path);
    // largest node size
    let max_size = descents.iter().map(|d| d.size).max().expect("non-empty");
    descents.retain(|d| d.size == max_size);
    if descents.len() == 1 {
        return descents[0];
    }
    // random among the already well-matching rest (deterministic in qseed)
    let pick = (splitmix64(skeleton.seed ^ qseed) % descents.len() as u64) as usize;
    descents[pick]
}

/// Builds the CLIMBER-kNN query plan: the partitions associated with `GN`
/// and the trie-node clusters under it (plus the overflow cluster stored
/// under the trie root in the group's default partition when the search
/// lands at the root).
pub fn plan_knn(skeleton: &IndexSkeleton, sig: &DualSignature, qseed: u64) -> QueryPlan {
    let primary = select_primary(skeleton, sig, qseed);
    let mut plan = QueryPlan {
        primary_group: primary.group,
        primary_path_len: primary.path_len,
        primary_node_size: primary.size,
        groups: vec![primary.group],
        ..QueryPlan::default()
    };
    add_node_reads(skeleton, primary.group, primary.node, &mut plan);
    plan
}

/// Adds the reads for one `(group, node)` selection to a plan: every leaf
/// cluster under the node (in its packed partition), plus the group's
/// overflow cluster when the node is the trie root.
pub fn add_node_reads(skeleton: &IndexSkeleton, g: GroupId, node: NodeIdx, plan: &mut QueryPlan) {
    for_each_node_read(skeleton, g, node, |partition, cluster, est_size| {
        plan.add_read(partition, cluster);
        plan.est_candidates += est_size;
    });
}

/// Visits the `(partition, cluster, estimated records)` reads of one
/// `(group, node)` selection, in plan order, without allocating.
pub(crate) fn for_each_node_read(
    skeleton: &IndexSkeleton,
    g: GroupId,
    node: NodeIdx,
    mut read: impl FnMut(PartitionId, TrieNodeId, u64),
) {
    let meta = &skeleton.groups[g as usize];
    let trie = &meta.trie;
    trie.for_each_leaf_under(node, &mut |leaf_idx| {
        let leaf = trie.node(leaf_idx);
        read(leaf.partitions[0], leaf.id, leaf.est_size);
    });
    if node == 0 {
        // Root: include the default-partition overflow cluster (records
        // that could not complete a root-to-leaf walk are stored there
        // under the root's node id).
        read(meta.default_partition, trie.root().id, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use climber_dfs::store::DiskStore;
    use climber_index::builder::IndexBuilder;
    use climber_index::config::IndexConfig;
    use climber_series::gen::Domain;

    fn build_index() -> (IndexSkeleton, DiskStore, climber_series::dataset::Dataset) {
        let ds = Domain::RandomWalk.generate(500, 41);
        let store = DiskStore::in_memory();
        let cfg = IndexConfig::default()
            .with_paa_segments(8)
            .with_pivots(32)
            .with_prefix_len(5)
            .with_capacity(60)
            .with_alpha(0.5)
            .with_epsilon(1)
            .with_seed(3)
            .with_workers(2);
        let (skeleton, _) = IndexBuilder::new(cfg).build(&ds, &store);
        (skeleton, store, ds)
    }

    #[test]
    fn primary_group_achieves_min_od() {
        let (skeleton, _, ds) = build_index();
        for qid in [0u64, 50, 100, 499] {
            let sig = skeleton.extract_signature(ds.get(qid));
            let primary = select_primary(&skeleton, &sig, qid);
            let (od_tied, _) = skeleton.groups_by_overlap(&sig);
            assert!(
                od_tied.contains(&primary.group),
                "query {qid}: primary {} not OD-optimal {:?}",
                primary.group,
                od_tied
            );
        }
    }

    #[test]
    fn plan_reads_cover_selected_node() {
        let (skeleton, _, ds) = build_index();
        let sig = skeleton.extract_signature(ds.get(7));
        let plan = plan_knn(&skeleton, &sig, 7);
        assert!(!plan.reads.is_empty());
        // Every read partition belongs to the primary group's trie or its
        // default partition.
        let meta = &skeleton.groups[plan.primary_group as usize];
        let mut allowed: Vec<u32> = meta
            .trie
            .nodes()
            .iter()
            .flat_map(|n| n.partitions.iter().copied())
            .collect();
        allowed.push(meta.default_partition);
        for &pid in plan.reads.keys() {
            assert!(allowed.contains(&pid), "partition {pid} outside group");
        }
    }

    #[test]
    fn plan_is_deterministic() {
        let (skeleton, _, ds) = build_index();
        let sig = skeleton.extract_signature(ds.get(123));
        assert_eq!(
            plan_knn(&skeleton, &sig, 123),
            plan_knn(&skeleton, &sig, 123)
        );
    }

    #[test]
    fn indexed_record_descends_to_its_own_cluster() {
        // For a query that IS an indexed record, the plan must include the
        // cluster that record was stored in.
        let (skeleton, _, ds) = build_index();
        for qid in [3u64, 77, 200] {
            let placement = skeleton.place(ds.get(qid), qid);
            let sig = skeleton.extract_signature(ds.get(qid));
            let plan = plan_knn(&skeleton, &sig, qid);
            if plan.primary_group == placement.group {
                let covered = plan
                    .reads
                    .get(&placement.partition)
                    .map(|cs| cs.contains(&placement.node))
                    .unwrap_or(false);
                assert!(
                    covered,
                    "query {qid}: own cluster (p{}, n{}) not in plan {:?}",
                    placement.partition, placement.node, plan.reads
                );
            }
        }
    }

    #[test]
    fn select_groups_survives_wd_tiebreak() {
        let (skeleton, _, ds) = build_index();
        let sig = skeleton.extract_signature(ds.get(42));
        let gs = select_groups(&skeleton, &sig);
        assert!(!gs.is_empty());
        assert!(gs.iter().all(|&g| (g as usize) < skeleton.groups.len()));
    }
}
