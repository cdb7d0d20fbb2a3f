//! End-to-end tests of the executor over one store: answer quality per
//! planner, determinism, budgets. (The module is named for the `KnnEngine`
//! façade these tests were written against; every search is
//! [`crate::exec::execute`].)

#[cfg(test)]
mod tests {
    use crate::search::SearchRequest;
    use crate::testkit::{run, search};
    use climber_dfs::store::DiskStore;
    use climber_index::builder::IndexBuilder;
    use climber_index::config::IndexConfig;
    use climber_index::skeleton::IndexSkeleton;
    use climber_series::gen::{query_workload, Domain};
    use climber_series::ground_truth::exact_knn;
    use climber_series::recall::recall_of_results;
    use climber_series::resample::resample_linear;

    fn build(
        domain: Domain,
        n: usize,
    ) -> (IndexSkeleton, DiskStore, climber_series::dataset::Dataset) {
        let ds = domain.generate(n, 47);
        let store = DiskStore::in_memory();
        let cfg = IndexConfig::default()
            .with_paa_segments(8)
            .with_pivots(48)
            .with_prefix_len(6)
            .with_capacity(80)
            .with_alpha(0.4)
            .with_epsilon(1)
            .with_seed(21)
            .with_workers(2);
        let (skeleton, _) = IndexBuilder::new(cfg).build(&ds, &store);
        (skeleton, store, ds)
    }

    #[test]
    fn self_queries_find_themselves() {
        let (skeleton, store, ds) = build(Domain::RandomWalk, 400);
        let mut found = 0;
        for qid in query_workload(&ds, 20, 1) {
            let out = search(
                &skeleton,
                &store,
                &SearchRequest::new(ds.get(qid), 10).exact(),
            );
            if out.results.iter().any(|&(id, d)| id == qid && d == 0.0) {
                found += 1;
            }
        }
        // The query IS an indexed record; CLIMBER's plan covers the node
        // the record was placed under whenever the primary group matches,
        // which is the overwhelming majority of self-queries.
        assert!(found >= 16, "only {found}/20 self-queries found themselves");
    }

    #[test]
    fn knn_returns_k_results_sorted() {
        let (skeleton, store, ds) = build(Domain::Eeg, 300);
        let out = search(
            &skeleton,
            &store,
            &SearchRequest::new(ds.get(5), 25).exact(),
        );
        assert_eq!(out.results.len(), 25);
        for w in out.results.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn recall_beats_random_partition_guessing() {
        let (skeleton, store, ds) = build(Domain::TexMex, 500);
        // k small relative to n: at 500 records the 20th "neighbour" is
        // already nearly random, so probe the regime the index is for.
        let k = 5;
        let mut total = 0.0;
        let mut scanned = 0u64;
        let queries = query_workload(&ds, 15, 2);
        for &qid in &queries {
            let out = search(
                &skeleton,
                &store,
                &SearchRequest::new(ds.get(qid), k).adaptive(4),
            );
            let exact = exact_knn(&ds, ds.get(qid), k);
            total += recall_of_results(&out.results, &exact);
            scanned += out.records_scanned;
        }
        let mean = total / queries.len() as f64;
        let frac = scanned as f64 / (queries.len() as f64 * 500.0);
        // Clustered SIFT-like data is CLIMBER's best case: recall must be
        // well above the fraction of data actually scanned.
        assert!(mean > 0.45, "mean recall {mean:.3} too low");
        assert!(
            mean > 1.5 * frac,
            "no locality lift: recall {mean:.3} vs scanned {frac:.3}"
        );
    }

    #[test]
    fn adaptive_recall_at_least_knn_recall_on_average() {
        let (skeleton, store, ds) = build(Domain::RandomWalk, 500);
        let k = 120; // larger than most trie nodes → adaptive should help
        let queries = query_workload(&ds, 12, 3);
        let (mut r_knn, mut r_adp) = (0.0, 0.0);
        for &qid in &queries {
            let exact = exact_knn(&ds, ds.get(qid), k);
            r_knn += recall_of_results(
                &search(
                    &skeleton,
                    &store,
                    &SearchRequest::new(ds.get(qid), k).exact(),
                )
                .results,
                &exact,
            );
            r_adp += recall_of_results(
                &search(
                    &skeleton,
                    &store,
                    &SearchRequest::new(ds.get(qid), k).adaptive(4),
                )
                .results,
                &exact,
            );
        }
        assert!(
            r_adp >= r_knn - 1e-9,
            "adaptive {} worse than knn {}",
            r_adp,
            r_knn
        );
    }

    #[test]
    fn od_smallest_reads_most_and_recalls_most() {
        let (skeleton, store, ds) = build(Domain::Dna, 400);
        let k = 50;
        let queries = query_workload(&ds, 10, 4);
        let (mut scan_knn, mut scan_ods) = (0u64, 0u64);
        let (mut rec_knn, mut rec_ods) = (0.0, 0.0);
        for &qid in &queries {
            let exact = exact_knn(&ds, ds.get(qid), k);
            let a = search(
                &skeleton,
                &store,
                &SearchRequest::new(ds.get(qid), k).exact(),
            );
            let b = search(
                &skeleton,
                &store,
                &SearchRequest::new(ds.get(qid), k).smallest(),
            );
            scan_knn += a.records_scanned;
            scan_ods += b.records_scanned;
            rec_knn += recall_of_results(&a.results, &exact);
            rec_ods += recall_of_results(&b.results, &exact);
        }
        assert!(
            scan_ods >= scan_knn,
            "OD-Smallest must scan at least as much"
        );
        assert!(
            rec_ods >= rec_knn - 1e-9,
            "OD-Smallest must recall at least as much"
        );
    }

    #[test]
    fn queries_are_deterministic() {
        let (skeleton, store, ds) = build(Domain::Eeg, 200);
        let q = ds.get(9);
        assert_eq!(
            search(&skeleton, &store, &SearchRequest::new(q, 10).exact()),
            search(&skeleton, &store, &SearchRequest::new(q, 10).exact())
        );
        assert_eq!(
            search(&skeleton, &store, &SearchRequest::new(q, 50).adaptive(2)),
            search(&skeleton, &store, &SearchRequest::new(q, 50).adaptive(2))
        );
    }

    #[test]
    fn search_many_is_bit_identical_to_search_per_request() {
        let (skeleton, store, ds) = build(Domain::Eeg, 350);
        // A deliberately heterogeneous batch: mixed modes, ks, budgets,
        // and a resampled short query — the serving layer's worst case.
        let mut reqs = Vec::new();
        for i in 0..10u64 {
            let q = ds.get(i * 31).to_vec();
            reqs.push(match i % 5 {
                0 => SearchRequest::new(q, 10).exact(),
                1 => SearchRequest::new(q, 10).adaptive(4),
                2 => SearchRequest::new(q, 25).adaptive(4).with_budget(3),
                3 => SearchRequest::new(resample_linear(&q, 100), 10).resampled(2),
                _ => SearchRequest::new(q, 5).smallest(),
            });
        }
        let many = run(&skeleton, &store, &reqs, 0);
        assert_eq!(many.len(), reqs.len());
        for (req, out) in reqs.iter().zip(&many) {
            assert_eq!(out, &search(&skeleton, &store, req), "req {req:?}");
        }
    }

    #[test]
    fn budget_caps_partitions_opened() {
        let (skeleton, store, ds) = build(Domain::RandomWalk, 500);
        // find a query whose OD-Smallest plan spans several partitions
        let q = (0..50u64)
            .map(|i| ds.get(i * 7).to_vec())
            .find(|q| {
                search(
                    &skeleton,
                    &store,
                    &SearchRequest::new(q.clone(), 150).smallest(),
                )
                .plan
                .num_partitions()
                    > 1
            })
            .expect("some query must span several partitions");
        let capped = search(
            &skeleton,
            &store,
            &SearchRequest::new(q, 150).smallest().with_budget(1),
        );
        assert!(capped.partitions_opened <= 1);
        assert!(capped.plan.num_partitions() <= 1);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn search_rejects_zero_k() {
        let (skeleton, store, _) = build(Domain::RandomWalk, 200);
        search(&skeleton, &store, &SearchRequest::new(vec![1.0f32], 0));
    }

    #[test]
    fn works_after_skeleton_roundtrip() {
        let (skeleton, store, ds) = build(Domain::RandomWalk, 200);
        let restored = IndexSkeleton::from_bytes(&skeleton.to_bytes()).unwrap();
        let out = search(&restored, &store, &SearchRequest::new(ds.get(3), 5).exact());
        assert_eq!(out.results.len(), 5);
        assert_eq!(
            out,
            search(&skeleton, &store, &SearchRequest::new(ds.get(3), 5).exact())
        );
    }
}
