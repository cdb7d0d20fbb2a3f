//! The OD-Smallest ablation algorithm (§VII-C, Figure 11(b)).
//!
//! Instead of narrowing to trie nodes, stop at Algorithm 3 line 6 and scan
//! *every partition of every group* whose OD to the query is the smallest.
//! It reads 6-7× more data than the CLIMBER variants for <10% extra recall
//! in the paper — the experiment that justifies the trie level.

use crate::plan::QueryPlan;
use climber_index::skeleton::IndexSkeleton;
use climber_pivot::signature::DualSignature;

/// Builds the OD-Smallest plan: all partitions (all leaf clusters plus the
/// overflow cluster) of every OD-tied group.
pub fn plan_od_smallest(skeleton: &IndexSkeleton, sig: &DualSignature) -> QueryPlan {
    let (groups, _) = skeleton.groups_by_overlap(sig);
    let mut plan = QueryPlan {
        primary_group: groups[0],
        primary_path_len: 0,
        groups: groups.clone(),
        ..QueryPlan::default()
    };
    for &g in &groups {
        crate::knn::add_node_reads(skeleton, g, 0, &mut plan);
    }
    plan.primary_node_size = plan.est_candidates;
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
        let ds = Domain::Eeg.generate(500, 31);
        let store = DiskStore::in_memory();
        let cfg = IndexConfig::default()
            .with_paa_segments(8)
            .with_pivots(32)
            .with_prefix_len(5)
            .with_capacity(50)
            .with_alpha(0.5)
            .with_epsilon(1)
            .with_seed(9)
            .with_workers(2);
        let (skeleton, _) = IndexBuilder::new(cfg).build(&ds, &store);
        (skeleton, ds)
    }

    #[test]
    fn od_smallest_superset_of_knn_within_group() {
        let (skeleton, ds) = build_index();
        for qid in 0..20u64 {
            let sig = skeleton.extract_signature(ds.get(qid));
            let knn = plan_knn(&skeleton, &sig, qid);
            let ods = plan_od_smallest(&skeleton, &sig);
            // If OD-Smallest includes the kNN primary group, its reads must
            // cover every kNN read (kNN prunes within the group).
            if ods.groups.contains(&knn.primary_group) {
                for (pid, clusters) in &knn.reads {
                    let sup = ods.reads.get(pid).unwrap_or_else(|| {
                        panic!("query {qid}: partition {pid} missing from OD-Smallest")
                    });
                    for c in clusters {
                        assert!(sup.contains(c), "query {qid}: cluster {c} missing");
                    }
                }
            }
            assert!(ods.est_candidates >= knn.est_candidates);
            assert!(ods.num_partitions() >= knn.num_partitions());
        }
    }

    #[test]
    fn scans_whole_groups() {
        let (skeleton, ds) = build_index();
        let sig = skeleton.extract_signature(ds.get(3));
        let plan = plan_od_smallest(&skeleton, &sig);
        // every partition of each selected group's trie must appear
        for &g in &plan.groups {
            let meta = &skeleton.groups[g as usize];
            for n in meta.trie.nodes() {
                for &pid in &n.partitions {
                    assert!(plan.reads.contains_key(&pid), "group {g} partition {pid}");
                }
            }
        }
    }
}
