//! Property-based tests for the baseline systems: routing consistency,
//! exactness of the exact engines, and recall bounds.

use climber_baselines::dpisax::{DpisaxConfig, DpisaxIndex};
use climber_baselines::dss::dss_query;
use climber_baselines::hnsw::{HnswConfig, HnswIndex};
use climber_baselines::lsh::{LshConfig, LshIndex};
use climber_baselines::odyssey::{OdysseyConfig, OdysseyIndex};
use climber_baselines::tardis::{TardisConfig, TardisIndex};
use climber_dfs::sample::scatter_dataset;
use climber_dfs::store::{DiskStore, PartitionStore};
use climber_series::gen::{Domain, RandomWalkGenerator, SeriesGenerator};
use climber_series::ground_truth::exact_knn;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn dss_equals_ground_truth(seed in 0u64..200, qid in 0u64..150, k in 1usize..30) {
        let ds = RandomWalkGenerator::new(48).generate(150, seed);
        let store = DiskStore::in_memory();
        scatter_dataset(&store, &ds, 5);
        let got = dss_query(&store, ds.get(qid % 150), k);
        let want = exact_knn(&ds, ds.get(qid % 150), k);
        prop_assert_eq!(got.results, want);
    }

    #[test]
    fn odyssey_is_exact_for_any_seed(seed in 0u64..200, k in 1usize..40) {
        let ds = RandomWalkGenerator::new(48).generate(200, seed);
        let (ody, _) = OdysseyIndex::build(
            &ds,
            OdysseyConfig { segments: 8, max_bits: 5, leaf_capacity: 16, memory_budget: None },
        ).unwrap();
        let q = ds.get(seed % 200);
        let got = ody.query(&ds, q, k);
        let want = exact_knn(&ds, q, k);
        prop_assert_eq!(got.results, want);
    }

    #[test]
    fn dpisax_routing_is_total_and_consistent(seed in 0u64..100) {
        // every record must be routable and stored where routing says
        let ds = Domain::ALL[(seed % 4) as usize].generate(120, seed);
        let store = DiskStore::in_memory();
        let cfg = DpisaxConfig { segments: 8, max_bits: 5, capacity: 30, alpha: 0.5, seed };
        let (index, stats) = DpisaxIndex::build(&ds, &store, cfg);
        prop_assert!(stats.num_partitions >= 1);
        let mut total = 0u64;
        for pid in store.ids() {
            total += store.open(pid).unwrap().record_count();
        }
        prop_assert_eq!(total, 120);
        // self-query always finds itself: routing is deterministic
        let q = ds.get(seed % 120);
        let out = index.query(&store, q, 3);
        prop_assert!(out.results.iter().any(|&(id, d)| id == seed % 120 && d == 0.0));
    }

    #[test]
    fn tardis_self_queries_find_themselves(seed in 0u64..100) {
        let ds = Domain::ALL[(seed % 4) as usize].generate(120, seed ^ 7);
        let store = DiskStore::in_memory();
        let cfg = TardisConfig { segments: 8, max_bits: 4, capacity: 30, alpha: 0.5, seed };
        let (index, _) = TardisIndex::build(&ds, &store, cfg);
        let q = ds.get(seed % 120);
        let out = index.query(&store, q, 3);
        prop_assert!(out.results.iter().any(|&(id, d)| id == seed % 120 && d == 0.0));
        prop_assert_eq!(out.partitions_opened, 1);
    }

    #[test]
    fn hnsw_results_are_valid_and_sorted(seed in 0u64..60, k in 1usize..20) {
        let ds = RandomWalkGenerator::new(32).generate(120, seed);
        let (hnsw, _) = HnswIndex::build(
            &ds,
            HnswConfig { m: 6, ef_construction: 24, ef_search: 24, seed, memory_budget: None },
        ).unwrap();
        let out = hnsw.query(&ds, ds.get(seed % 120), k);
        prop_assert!(out.results.len() <= k);
        for w in out.results.windows(2) {
            prop_assert!(w[0].1 <= w[1].1);
        }
        prop_assert!(out.results.iter().all(|&(id, _)| id < 120));
    }

    #[test]
    fn lsh_candidates_always_include_exact_duplicates(seed in 0u64..60) {
        let ds = Domain::ALL[(seed % 4) as usize].generate(100, seed);
        let (lsh, _) = LshIndex::build(
            &ds,
            LshConfig { tables: 4, bits: 10, segments: 8, seed },
        );
        // identical input hashes identically in every table
        let q = ds.get(seed % 100);
        let out = lsh.query(&ds, q, 3);
        prop_assert!(out.results.iter().any(|&(id, d)| id == seed % 100 && d == 0.0));
    }

    #[test]
    fn memory_budgets_are_monotone(seed in 0u64..30) {
        // if a build succeeds at budget B it must succeed at any B' > B
        let ds = RandomWalkGenerator::new(32).generate(100, seed);
        let payload = ds.payload_bytes() as u64;
        let mk = |budget| OdysseyIndex::build(
            &ds,
            OdysseyConfig {
                segments: 8, max_bits: 4, leaf_capacity: 16,
                memory_budget: Some(budget),
            },
        ).is_ok();
        let small = mk(payload / 4);
        let large = mk(payload * 16);
        prop_assert!(large, "generous budget must succeed");
        if small {
            prop_assert!(mk(payload / 2), "monotonicity violated");
        }
    }
}
