//! Property-based tests for query planning over randomly built indexes.

use climber_dfs::store::DiskStore;
use climber_index::builder::IndexBuilder;
use climber_index::config::IndexConfig;
use climber_index::skeleton::{GroupId, IndexSkeleton, FALLBACK_GROUP};
use climber_pivot::distances::{overlap_distance, weight_distance};
use climber_pivot::signature::DualSignature;
use climber_query::adaptive::plan_adaptive;
use climber_query::exec::{execute, SeriesLen, Source};
use climber_query::knn::{plan_knn, select_groups};
use climber_query::od_smallest::plan_od_smallest;
use climber_query::plan::QueryOutcome;
use climber_query::search::SearchRequest;
use climber_series::dataset::Dataset;
use climber_series::gen::{Domain, RandomWalkGenerator, SeriesGenerator};
use proptest::prelude::*;

/// Builds a small index over a seeded random-walk dataset.
fn build_index(n: usize, seed: u64, capacity: u64) -> (IndexSkeleton, DiskStore, Dataset) {
    let ds = RandomWalkGenerator::new(64).generate(n, seed);
    let store = DiskStore::in_memory();
    let cfg = IndexConfig::default()
        .with_paa_segments(8)
        .with_pivots(24)
        .with_prefix_len(4)
        .with_capacity(capacity)
        .with_alpha(0.5)
        .with_epsilon(1)
        .with_seed(seed ^ 0xABCD)
        .with_workers(2);
    let (skeleton, _) = IndexBuilder::new(cfg).build(&ds, &store);
    (skeleton, store, ds)
}

/// One request through the executor over the sealed partitions of `store`.
fn search(skeleton: &IndexSkeleton, store: &DiskStore, req: &SearchRequest) -> QueryOutcome {
    let sources = [Some(Source::sealed(store))];
    let series_len = SeriesLen::default().get(store);
    let reqs = std::slice::from_ref(req);
    execute(skeleton, &sources, series_len, reqs, 0).0.remove(0)
}

/// Algorithm 3 lines 5-6 over the Definition 7 reference: the groups at
/// the smallest OD, or the fall-back when nothing overlaps.
fn reference_groups_by_overlap(
    skeleton: &IndexSkeleton,
    sig: &DualSignature,
) -> (Vec<GroupId>, usize) {
    let m = skeleton.prefix_len;
    let mut best = m + 1;
    let mut out: Vec<GroupId> = Vec::new();
    for g in &skeleton.groups[1..] {
        let od = overlap_distance(g.centroid.as_ref().unwrap(), &sig.insensitive);
        if od < best {
            best = od;
            out.clear();
            out.push(g.id);
        } else if od == best {
            out.push(g.id);
        }
    }
    if out.is_empty() || best == m {
        (vec![FALLBACK_GROUP], m)
    } else {
        (out, best)
    }
}

/// Lines 7-9 over the Definition 11 reference: the WD tie-break among them.
fn reference_select_groups(skeleton: &IndexSkeleton, sig: &DualSignature) -> Vec<GroupId> {
    let (od_tied, _) = reference_groups_by_overlap(skeleton, sig);
    if od_tied == [FALLBACK_GROUP] || od_tied.len() == 1 {
        return od_tied;
    }
    let wds: Vec<f64> = od_tied
        .iter()
        .map(|&g| {
            let c = skeleton.groups[g as usize].centroid.as_ref().unwrap();
            weight_distance(&sig.sensitive, c, skeleton.decay)
        })
        .collect();
    let best = wds.iter().cloned().fold(f64::INFINITY, f64::min);
    od_tied
        .iter()
        .zip(&wds)
        .filter(|&(_, &wd)| wd <= best + f64::EPSILON * best.abs().max(1.0))
        .map(|(&g, _)| g)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn group_lookup_matches_the_reference_metrics(seed in 0u64..300, shift in -3.0f32..3.0) {
        // Indexed records, shifted copies (other signatures) and far-off
        // series (the fall-back) all get the reference's group lists.
        let (skeleton, _, ds) = build_index(200, seed, 40);
        for qid in 0..200u64 {
            let q: Vec<f32> = match qid % 3 {
                0 => ds.get(qid).to_vec(),
                1 => ds.get(qid).iter().map(|v| v + shift).collect(),
                _ => ds.get(qid).iter().map(|v| v * 40.0 + shift * 1e3).collect(),
            };
            let sig = skeleton.extract_signature(&q);
            prop_assert_eq!(skeleton.groups_by_overlap(&sig), reference_groups_by_overlap(&skeleton, &sig));
            prop_assert_eq!(select_groups(&skeleton, &sig), reference_select_groups(&skeleton, &sig));
        }
    }

    #[test]
    fn plans_always_read_something(seed in 0u64..500, qid in 0u64..200) {
        let (skeleton, _, ds) = build_index(200, seed, 40);
        let sig = skeleton.extract_signature(ds.get(qid % 200));
        let plan = plan_knn(&skeleton, &sig, qid);
        prop_assert!(!plan.reads.is_empty());
        prop_assert!((plan.primary_group as usize) < skeleton.groups.len());
        prop_assert!(plan.primary_path_len <= skeleton.prefix_len);
    }

    #[test]
    fn adaptive_is_superset_of_knn(seed in 0u64..300, qid in 0u64..200, k in 1usize..400) {
        let (skeleton, _, ds) = build_index(200, seed, 40);
        let sig = skeleton.extract_signature(ds.get(qid % 200));
        let base = plan_knn(&skeleton, &sig, qid);
        let adaptive = plan_adaptive(&skeleton, &sig, k, 4, qid);
        // every read of the base plan is present in the adaptive plan
        for (pid, clusters) in &base.reads {
            let sup = adaptive.reads.get(pid);
            prop_assert!(sup.is_some(), "partition {pid} dropped");
            for c in clusters {
                prop_assert!(sup.unwrap().contains(c), "cluster {c} dropped");
            }
        }
        // and the cap holds
        prop_assert!(adaptive.num_partitions() <= base.num_partitions().max(1) * 4);
    }

    #[test]
    fn od_smallest_covers_whole_groups(seed in 0u64..300, qid in 0u64..200) {
        let (skeleton, _, ds) = build_index(200, seed, 40);
        let sig = skeleton.extract_signature(ds.get(qid % 200));
        let plan = plan_od_smallest(&skeleton, &sig);
        for &g in &plan.groups {
            let meta = &skeleton.groups[g as usize];
            // every leaf cluster of the group must be planned
            for leaf_idx in meta.trie.leaves() {
                let leaf = meta.trie.node(leaf_idx);
                let planned = plan
                    .reads
                    .get(&leaf.partitions[0])
                    .map(|cs| cs.contains(&leaf.id))
                    .unwrap_or(false);
                prop_assert!(planned, "group {g} leaf {} unplanned", leaf.id);
            }
        }
    }

    #[test]
    fn engine_results_are_sorted_unique_and_bounded(
        seed in 0u64..200,
        qid in 0u64..150,
        k in 1usize..60,
    ) {
        let (skeleton, store, ds) = build_index(150, seed, 30);
        let out = search(&skeleton, &store, &SearchRequest::new(ds.get(qid % 150), k).exact());
        prop_assert!(out.results.len() <= k);
        for w in out.results.windows(2) {
            prop_assert!(w[0].1 <= w[1].1);
        }
        let mut ids: Vec<u64> = out.results.iter().map(|&(id, _)| id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), out.results.len(), "duplicate ids in answer");
        // ids must be valid
        prop_assert!(out.results.iter().all(|&(id, _)| id < 150));
    }

    #[test]
    fn fallback_group_plan_is_usable(seed in 0u64..100) {
        // Queries engineered to share no pivots with any centroid must
        // route to G0 and still produce a valid (possibly empty) plan.
        let (skeleton, store, _) = build_index(150, seed, 30);
        // extreme constant series map far from all random-walk pivots
        let weird = vec![1e6f32; 64];
        let sig = skeleton.extract_signature(&weird);
        let (groups, _) = skeleton.groups_by_overlap(&sig);
        if groups == vec![FALLBACK_GROUP] {
            let out = search(&skeleton, &store, &SearchRequest::new(&weird[..], 5).exact());
            prop_assert!(out.results.len() <= 5);
        }
    }

    #[test]
    fn domains_other_than_randomwalk_plan_correctly(domain_idx in 0usize..4, qid in 0u64..100) {
        let domain = Domain::ALL[domain_idx];
        let ds = domain.generate(150, 99);
        let store = DiskStore::in_memory();
        let cfg = IndexConfig::default()
            .with_paa_segments(8)
            .with_pivots(24)
            .with_prefix_len(4)
            .with_capacity(40)
            .with_alpha(0.5)
            .with_epsilon(1)
            .with_seed(3)
            .with_workers(2);
        let (skeleton, _) = IndexBuilder::new(cfg).build(&ds, &store);
        let out = search(&skeleton, &store, &SearchRequest::new(ds.get(qid % 150), 10).adaptive(2));
        prop_assert!(!out.results.is_empty());
        prop_assert!(out.partitions_opened >= 1);
    }
}
