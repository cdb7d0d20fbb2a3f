//! CLIMBER-kNN-Adaptive (§VI).
//!
//! Algorithm 3 can land on a trie node holding fewer than `k` records; the
//! other clusters packed into the same partition are not necessarily close
//! to the query, so accuracy degrades (Figure 12(a) measures exactly this).
//! The adaptive variant *memorises* all groups tied on the smallest OD and,
//! within each, the chain of best-matching trie nodes (the deepest node and
//! its ancestors — the "longest and 2nd longest best matches"). When the
//! primary node covers fewer than `k` estimated records it expands across
//! those memorised nodes until the covered size exceeds `k`, capped at
//! `factor ×` the partitions CLIMBER-kNN would access (2X and 4X in the
//! paper's evaluation).

use crate::knn::{add_node_reads, descend_group, for_each_node_read, select_primary};
use crate::plan::QueryPlan;
use climber_dfs::store::PartitionId;
use climber_index::skeleton::{GroupId, IndexSkeleton};
use climber_index::trie::NodeIdx;
use climber_pivot::signature::DualSignature;

/// One memorised candidate trie node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Candidate {
    path_len: usize,
    size: u64,
    group: GroupId,
    node: NodeIdx,
}

/// Builds the adaptive plan. `factor` is the partition cap multiplier (2
/// for Adaptive-2X, 4 for Adaptive-4X); `factor = 1` degenerates to the
/// plain CLIMBER-kNN plan.
///
/// # Panics
/// If `k == 0` or `factor == 0`.
pub fn plan_adaptive(
    skeleton: &IndexSkeleton,
    sig: &DualSignature,
    k: usize,
    factor: usize,
    qseed: u64,
) -> QueryPlan {
    assert!(k > 0, "k must be positive");
    assert!(factor > 0, "factor must be positive");

    // Primary selection — identical to CLIMBER-kNN, so the adaptive
    // variants behave exactly like it whenever Size(GN) >= k.
    let primary = select_primary(skeleton, sig, qseed);
    let mut plan = QueryPlan {
        primary_group: primary.group,
        primary_path_len: primary.path_len,
        primary_node_size: primary.size,
        groups: vec![primary.group],
        ..QueryPlan::default()
    };
    add_node_reads(skeleton, primary.group, primary.node, &mut plan);
    let base_partitions = plan.num_partitions().max(1);
    if primary.size >= k as u64 || factor == 1 {
        return plan;
    }
    let cap = base_partitions.saturating_mul(factor);

    // Memorise candidates: for every OD-tied group, the descent node and
    // its ancestor chain (each ancestor is the next-longest best match).
    let (od_tied, _) = skeleton.groups_by_overlap(sig);
    let mut candidates: Vec<Candidate> = Vec::new();
    for &g in &od_tied {
        let d = descend_group(skeleton, g, sig);
        let trie = &skeleton.groups[g as usize].trie;
        // Recover the ancestor chain by re-descending with shorter prefixes.
        for keep in (0..=d.path_len).rev() {
            let dd = trie.descend(&sig.sensitive.0[..keep]);
            candidates.push(Candidate {
                path_len: dd.path_len,
                size: trie.node(dd.node).est_size,
                group: g,
                node: dd.node,
            });
        }
    }
    // Deeper matches first (better locality); at equal depth the larger
    // node (same preference ladder as Algorithm 3 lines 16-17).
    candidates.sort_by(|a, b| {
        b.path_len
            .cmp(&a.path_len)
            .then(b.size.cmp(&a.size))
            .then(a.group.cmp(&b.group))
    });
    candidates.dedup_by_key(|c| (c.group, c.node));

    // Greedy expansion under the partition cap.
    let mut covered = primary.size;
    let mut fresh: Vec<PartitionId> = Vec::new();
    for c in candidates {
        if covered >= k as u64 {
            break;
        }
        if c.group == primary.group && c.node == primary.node {
            continue; // already read
        }
        // The partitions the node would add, counted before touching the
        // plan.
        fresh.clear();
        for_each_node_read(skeleton, c.group, c.node, |partition, _, _| {
            if plan.reads.get(partition).is_none() && !fresh.contains(&partition) {
                fresh.push(partition);
            }
        });
        if plan.num_partitions() + fresh.len() > cap {
            continue; // would blow the cap; try a cheaper candidate
        }
        let before = plan.est_candidates;
        add_node_reads(skeleton, c.group, c.node, &mut plan);
        covered += plan.est_candidates - before;
        if !plan.groups.contains(&c.group) {
            plan.groups.push(c.group);
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::plan_knn;
    use climber_dfs::store::DiskStore;
    use climber_index::builder::IndexBuilder;
    use climber_index::config::IndexConfig;
    use climber_series::gen::Domain;

    fn build_index() -> (IndexSkeleton, climber_series::dataset::Dataset) {
        let ds = Domain::RandomWalk.generate(600, 19);
        let store = DiskStore::in_memory();
        let cfg = IndexConfig::default()
            .with_paa_segments(8)
            .with_pivots(32)
            .with_prefix_len(5)
            .with_capacity(40)
            .with_alpha(0.5)
            .with_epsilon(1)
            .with_seed(5)
            .with_workers(2);
        let (skeleton, _) = IndexBuilder::new(cfg).build(&ds, &store);
        (skeleton, ds)
    }

    #[test]
    fn small_k_matches_plain_knn() {
        // When the primary node already covers k, adaptive == kNN.
        let (skeleton, ds) = build_index();
        for qid in [0u64, 33, 99] {
            let sig = skeleton.extract_signature(ds.get(qid));
            let plain = plan_knn(&skeleton, &sig, qid);
            if plain.primary_node_size >= 1 {
                let adaptive = plan_adaptive(&skeleton, &sig, 1, 4, qid);
                assert_eq!(plain, adaptive, "query {qid}");
            }
        }
    }

    #[test]
    fn large_k_expands_coverage() {
        let (skeleton, ds) = build_index();
        let mut expanded = 0;
        for qid in 0..30u64 {
            let sig = skeleton.extract_signature(ds.get(qid));
            let plain = plan_knn(&skeleton, &sig, qid);
            let k = (plain.primary_node_size as usize + 1) * 4;
            let adaptive = plan_adaptive(&skeleton, &sig, k, 4, qid);
            assert!(
                adaptive.est_candidates >= plain.est_candidates,
                "query {qid}"
            );
            if adaptive.est_candidates > plain.est_candidates {
                expanded += 1;
            }
        }
        assert!(expanded > 0, "adaptive never expanded on any query");
    }

    #[test]
    fn partition_cap_is_respected() {
        let (skeleton, ds) = build_index();
        for qid in 0..30u64 {
            let sig = skeleton.extract_signature(ds.get(qid));
            let plain = plan_knn(&skeleton, &sig, qid);
            for factor in [2usize, 4] {
                let adaptive = plan_adaptive(&skeleton, &sig, 10_000, factor, qid);
                assert!(
                    adaptive.num_partitions() <= plain.num_partitions().max(1) * factor,
                    "query {qid}: {} partitions > cap {}",
                    adaptive.num_partitions(),
                    plain.num_partitions().max(1) * factor
                );
            }
        }
    }

    #[test]
    fn factor_one_is_plain_knn() {
        let (skeleton, ds) = build_index();
        for qid in [5u64, 45] {
            let sig = skeleton.extract_signature(ds.get(qid));
            assert_eq!(
                plan_knn(&skeleton, &sig, qid),
                plan_adaptive(&skeleton, &sig, 10_000, 1, qid)
            );
        }
    }

    #[test]
    fn four_x_covers_at_least_two_x() {
        let (skeleton, ds) = build_index();
        for qid in 0..20u64 {
            let sig = skeleton.extract_signature(ds.get(qid));
            let two = plan_adaptive(&skeleton, &sig, 5_000, 2, qid);
            let four = plan_adaptive(&skeleton, &sig, 5_000, 4, qid);
            assert!(
                four.est_candidates >= two.est_candidates,
                "query {qid}: 4X covered less than 2X"
            );
        }
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_rejected() {
        let (skeleton, ds) = build_index();
        let sig = skeleton.extract_signature(ds.get(0));
        plan_adaptive(&skeleton, &sig, 0, 2, 0);
    }
}
