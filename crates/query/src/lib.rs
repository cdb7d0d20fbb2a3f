//! # climber-query
//!
//! Query processing for CLIMBER (§VI).
//!
//! Three planners over the two-level index, all feeding the same
//! record-level Euclidean refinement:
//!
//! * [`knn`] — **CLIMBER-kNN** (Algorithm 3): navigate to the single best
//!   matching trie node `GN` (OD → WD → longest-path → largest-size →
//!   random tie-breaks) and read its partitions, expanding within already
//!   opened partitions when the node holds fewer than `k` records;
//! * [`adaptive`] — **CLIMBER-kNN-Adaptive**: memorises every OD-tied group
//!   and the ancestors of their best trie nodes, expanding across
//!   partitions until `k` candidates are covered, capped at `factor` times
//!   the partitions CLIMBER-kNN would touch (the paper's 2X/4X variants);
//! * [`od_smallest`] — the ablation baseline of Figure 11(b): scan *all*
//!   partitions of every OD-tied group (stop at Algorithm 3 line 6).
//!
//! Every search — one request or many, one store or a shard set — is one
//! call of the executor in [`exec`]: a [`SearchRequest`]'s
//! [`SearchMode`] picks the planner, and the planned clusters are scanned
//! **partition-major** (open each partition once, decode each cluster
//! once, score it against every query that selected it) with outcomes
//! that do not depend on how the requests were batched.

#![warn(missing_docs)]

pub mod adaptive;
#[cfg(test)]
mod engine;
pub mod exec;
pub mod knn;
pub mod od_smallest;
pub mod plan;
pub mod search;
pub mod updates;

pub use exec::{execute, Source, SourceStatus};
pub use plan::{QueryOutcome, QueryPlan};
pub use search::{SearchMode, SearchRequest};
pub use updates::UpdateView;

// The executor's unit tests. Their module paths predate the executor —
// there used to be one scan loop per module and a `KnnEngine` façade — and
// are kept so the suite's test ids stay comparable across the collapse:
// `refine` pins the cluster-scan core on a hand-built store, `scatter` the
// plan and multi-partition stages, `batch` n requests against one at a
// time, `engine` (engine.rs) answer quality end to end.

#[cfg(test)]
mod refine {
    mod tests {
        use crate::exec::{scan_group, Source, SourceStatus};
        use crate::plan::{QueryOutcome, QueryPlan};
        use crate::updates::UpdateView;
        use climber_dfs::format::PartitionWriter;
        use climber_dfs::segment::{DeltaSegment, TombstoneSet};
        use climber_dfs::store::{MemStore, PartitionStore};
        use climber_series::distance::{ed_early_abandon, sq_ed};
        use climber_series::topk::TopK;

        /// A store with one partition: cluster 1 = records 0..4 near zero,
        /// cluster 2 = records 10..14 far away.
        fn toy_store() -> MemStore {
            let store = MemStore::new();
            let mut w = PartitionWriter::new(0, 2);
            let near: Vec<(u64, Vec<f32>)> =
                (0..4).map(|i| (i, vec![i as f32 * 0.1, 0.0])).collect();
            let far: Vec<(u64, Vec<f32>)> = (10..14)
                .map(|i| (i, vec![100.0 + i as f32, 100.0]))
                .collect();
            w.push_cluster(1, near.iter().map(|(id, v)| (*id, v.as_slice())));
            w.push_cluster(2, far.iter().map(|(id, v)| (*id, v.as_slice())));
            store.put(0, w.finish(), || ()).unwrap();
            store
        }

        fn plan_for(clusters: &[u64]) -> QueryPlan {
            let mut p = QueryPlan::default();
            for &c in clusters {
                p.add_read(0, c);
            }
            p
        }

        /// One query, one plan, one source through scan → gather → expand.
        fn refine(
            store: &MemStore,
            plan: &QueryPlan,
            query: &[f32],
            k: usize,
            expand: bool,
            updates: Option<UpdateView<'_>>,
        ) -> (QueryOutcome, SourceStatus) {
            let sources = [Some(Source {
                updates,
                ..Source::sealed(store)
            })];
            let mut status = [SourceStatus::default()];
            let plans = vec![plan.clone()];
            let mut out = scan_group(&sources, &[query], plans, k, expand, &mut status);
            let [status] = status;
            (out.pop().unwrap(), status)
        }

        #[test]
        fn refine_ranks_by_distance() {
            let (out, status) = refine(&toy_store(), &plan_for(&[1]), &[0.0, 0.0], 2, false, None);
            assert_eq!(out.results.len(), 2);
            assert_eq!((out.results[0].0, out.results[1].0), (0, 1));
            assert!((out.results[1].1 - sq_ed(&[0.0, 0.0], &[0.1, 0.0])).abs() < 1e-9);
            assert_eq!((out.records_scanned, out.partitions_opened), (4, 1));
            assert_eq!(status.records_scanned, 4);
        }

        #[test]
        fn expansion_fires_only_when_short_of_k() {
            let store = toy_store();
            // k=6 > 4 records in cluster 1 → expansion reads cluster 2 too.
            let (out, status) = refine(&store, &plan_for(&[1]), &[0.0, 0.0], 6, true, None);
            assert_eq!((out.results.len(), out.records_scanned), (6, 8));
            assert_eq!(
                status.records_scanned, 8,
                "expansion is charged to its source"
            );
            // without expansion we stop at 4
            let (out, _) = refine(&store, &plan_for(&[1]), &[0.0, 0.0], 6, false, None);
            assert_eq!(out.results.len(), 4);
        }

        #[test]
        fn expansion_not_used_when_k_satisfied() {
            let (out, _) = refine(&toy_store(), &plan_for(&[1]), &[0.0, 0.0], 3, true, None);
            assert_eq!(out.records_scanned, 4, "must not touch cluster 2");
        }

        #[test]
        fn missing_partition_is_tolerated() {
            let mut p = plan_for(&[1]);
            p.add_read(99, 1); // nonexistent partition
            let (out, status) = refine(&toy_store(), &p, &[0.0, 0.0], 2, true, None);
            assert_eq!((out.results.len(), out.partitions_opened), (2, 1));
            assert_eq!(
                status.failed_partitions.into_iter().collect::<Vec<_>>(),
                [99]
            );
        }

        #[test]
        fn missing_cluster_is_tolerated() {
            let (out, _) = refine(&toy_store(), &plan_for(&[42]), &[0.0, 0.0], 2, false, None);
            assert!(out.results.is_empty());
            assert_eq!(out.records_scanned, 0);
        }

        #[test]
        fn results_are_squared_distances_sorted() {
            let (out, _) = refine(
                &toy_store(),
                &plan_for(&[1, 2]),
                &[0.0, 0.0],
                8,
                false,
                None,
            );
            assert!(out.results.windows(2).all(|w| w[0].1 <= w[1].1));
            assert_eq!(out.results.len(), 8);
        }

        #[test]
        #[should_panic(expected = "k must be positive")]
        fn zero_k_rejected() {
            refine(&toy_store(), &plan_for(&[1]), &[0.0, 0.0], 0, false, None);
        }

        #[test]
        fn tombstoned_records_never_reach_topk() {
            let (delta, tombstones) = (DeltaSegment::new(), TombstoneSet::new());
            tombstones.delete(0); // the nearest record to the query
            let view = UpdateView {
                delta: &delta,
                tombstones: &tombstones,
            };
            let (out, _) = refine(
                &toy_store(),
                &plan_for(&[1]),
                &[0.0, 0.0],
                2,
                false,
                Some(view),
            );
            assert!(
                out.results.iter().all(|&(id, _)| id != 0),
                "{:?}",
                out.results
            );
            assert_eq!(out.results[0].0, 1, "survivors fill the answer");
            assert_eq!(out.records_scanned, 3, "scan counts survivors only");
        }

        #[test]
        fn delta_records_merge_into_planned_clusters() {
            let (store, delta, tombstones) =
                (toy_store(), DeltaSegment::new(), TombstoneSet::new());
            // route a new nearest record into (partition 0, cluster 1)
            delta.append(0, 1, 500, &[0.01, 0.0]);
            // ... and one into a cluster the sealed partition doesn't have
            delta.append(0, 77, 501, &[0.02, 0.0]);
            let view = Some(UpdateView {
                delta: &delta,
                tombstones: &tombstones,
            });
            let (out, _) = refine(&store, &plan_for(&[1]), &[0.0, 0.0], 2, false, view);
            assert_eq!(out.results[0].0, 0, "exact sealed match still first");
            assert_eq!(out.results[1].0, 500, "delta record ranks second");
            assert_eq!(out.records_scanned, 5, "4 sealed + 1 delta");

            // the delta-only cluster 77 is reachable via expansion
            let (out, _) = refine(&store, &plan_for(&[1]), &[0.0, 0.0], 10, true, view);
            assert!(out.results.iter().any(|&(id, _)| id == 501));
            assert_eq!(out.records_scanned, 10, "8 sealed + 2 delta");

            // a deleted delta record is filtered like any other
            tombstones.delete(500);
            let (out, _) = refine(&store, &plan_for(&[1]), &[0.0, 0.0], 2, false, view);
            assert_eq!(out.results[0].0, 0);
            assert_eq!(out.records_scanned, 4);
        }

        #[test]
        fn empty_update_view_matches_sealed_path_exactly() {
            let (store, delta, tombstones) =
                (toy_store(), DeltaSegment::new(), TombstoneSet::new());
            let view = UpdateView {
                delta: &delta,
                tombstones: &tombstones,
            };
            assert!(delta.is_empty() && tombstones.is_empty());
            for (k, expand) in [(2usize, false), (6, true), (8, false)] {
                let a = refine(&store, &plan_for(&[1]), &[0.1, 0.0], k, expand, None);
                let b = refine(&store, &plan_for(&[1]), &[0.1, 0.0], k, expand, Some(view));
                assert_eq!(a, b, "k={k} expand={expand}");
            }
        }

        #[test]
        fn scan_decoded_matches_per_record_visit() {
            // Block-wise scoring visits what a per-record visit would.
            let store = toy_store();
            let q = [0.3f32, 0.1];
            let (via_blocks, _) = refine(&store, &plan_for(&[1, 2]), &q, 3, false, None);
            let reader = store.open(0).unwrap();
            let mut via_visit = TopK::new(3);
            for node in [1u64, 2] {
                reader.for_each_in_cluster(node, |id, vals| {
                    if let Some(d) = ed_early_abandon(&q, vals, via_visit.bound()) {
                        via_visit.offer(id, d);
                    }
                });
            }
            assert_eq!(via_blocks.results, via_visit.into_sorted());
        }
    }
}

#[cfg(test)]
mod testkit {
    use crate::exec::{execute, SeriesLen, Source};
    use crate::{QueryOutcome, SearchRequest};
    use climber_dfs::store::MemStore;
    use climber_index::builder::IndexBuilder;
    use climber_index::config::IndexConfig;
    use climber_index::skeleton::IndexSkeleton;
    use climber_series::dataset::Dataset;
    use climber_series::gen::Domain;

    /// `reqs` through the executor over the sealed partitions of `store`.
    pub fn run(
        skeleton: &IndexSkeleton,
        store: &MemStore,
        reqs: &[SearchRequest],
        threads: usize,
    ) -> Vec<QueryOutcome> {
        let sources = [Some(Source::sealed(store))];
        let series_len = SeriesLen::default().get(store);
        execute(skeleton, &sources, series_len, reqs, threads).0
    }

    /// One request, inline on the calling thread.
    pub fn search(skeleton: &IndexSkeleton, store: &MemStore, req: &SearchRequest) -> QueryOutcome {
        run(skeleton, store, std::slice::from_ref(req), 0)
            .pop()
            .expect("one outcome per request")
    }

    pub fn build(domain: Domain, n: usize) -> (IndexSkeleton, MemStore, Dataset) {
        let ds = domain.generate(n, 91);
        let store = MemStore::new();
        let cfg = IndexConfig::default()
            .with_paa_segments(8)
            .with_pivots(48)
            .with_prefix_len(6)
            .with_capacity(80)
            .with_alpha(0.4)
            .with_epsilon(1)
            .with_seed(5)
            .with_workers(2);
        let (skeleton, _) = IndexBuilder::new(cfg).build(&ds, &store);
        (skeleton, store, ds)
    }

    pub fn queries_of(ds: &Dataset, n: usize) -> Vec<Vec<f32>> {
        (0..n as u64)
            .map(|i| ds.get((i * 37) % ds.num_series() as u64).to_vec())
            .collect()
    }
}

#[cfg(test)]
mod scatter {
    mod tests {
        use crate::exec::{execute, plan_group, scan_group, Source, SourceStatus};
        use crate::testkit::{build, queries_of, search};
        use crate::{QueryPlan, SearchMode, SearchRequest};
        use climber_dfs::format::PartitionWriter;
        use climber_dfs::store::{MemStore, PartitionStore};
        use climber_series::gen::Domain;
        use std::collections::BTreeSet;

        #[test]
        fn plan_queries_matches_sequential_planning() {
            let (skeleton, store, ds) = build(Domain::RandomWalk, 400);
            let queries = queries_of(&ds, 8);
            let plans = plan_group(&skeleton, &queries, SearchMode::Exact, 10, None);
            for (q, plan) in queries.iter().zip(&plans) {
                let alone = search(&skeleton, &store, &SearchRequest::new(&q[..], 10).exact());
                assert_eq!(plan, &alone.plan);
            }
            // A budget truncates every plan of the group.
            let capped = plan_group(&skeleton, &queries, SearchMode::Smallest, 10, Some(1));
            assert!(capped.iter().all(|p| p.num_partitions() <= 1));
        }

        #[test]
        fn scan_shard_heaps_match_batch_outcomes() {
            // Queries whose planned scan already holds k candidates are
            // done: the expansion stage must leave them exactly alone.
            let (skeleton, store, ds) = build(Domain::RandomWalk, 500);
            let (queries, k) = (queries_of(&ds, 10), 8);
            let sources = [Some(Source::sealed(&store))];
            let plans = || plan_group(&skeleton, &queries, SearchMode::Adaptive(4), k, None);
            let mut status = [SourceStatus::default()];
            let planned = scan_group(&sources, &queries, plans(), k, false, &mut status);
            let full = scan_group(&sources, &queries, plans(), k, true, &mut status);
            assert!(planned.iter().any(|o| o.results.len() >= k));
            for (planned, full) in planned.iter().zip(&full) {
                if planned.results.len() >= k {
                    assert_eq!(planned, full);
                }
            }
        }

        #[test]
        fn expand_shard_partition_reports_missing_partition() {
            let (_, store, _) = build(Domain::RandomWalk, 200);
            let pid = store.ids()[0];
            let reader = store.open(pid).unwrap();
            let q = vec![0.0f32; reader.series_len()];
            // A plan that selects no cluster of a real partition, and a
            // partition that does not exist.
            let mut plan = QueryPlan::default();
            plan.reads.insert(pid, Vec::new());
            plan.reads.insert(9_999, Vec::new());
            let sources = [Some(Source::sealed(&store))];
            let mut status = [SourceStatus::default()];
            let k = reader.record_count() as usize + 1;
            let out = scan_group(&sources, &[q], vec![plan], k, true, &mut status);
            assert_eq!(
                out[0].records_scanned,
                reader.record_count(),
                "expansion reads it all"
            );
            assert_eq!(out[0].partitions_opened, 1);
            assert!(status[0].failed_partitions.contains(&9_999));
            assert!(!status[0].failed_partitions.contains(&pid));
        }

        #[test]
        fn partition_of_another_series_length_is_skipped_and_named() {
            let (skeleton, store, ds) = build(Domain::RandomWalk, 600);
            let req = (queries_of(&ds, 20).into_iter())
                .map(|q| SearchRequest::new(q, 50))
                .find(|req| search(&skeleton, &store, req).plan.num_partitions() >= 2)
                .expect("some plan reads two partitions");
            let bad = *search(&skeleton, &store, &req)
                .plan
                .reads
                .keys()
                .next()
                .unwrap();

            // The same partitions minus `bad`, and with `bad` re-encoded one
            // reading longer per record than the index (and the query).
            let (without, crafted) = (MemStore::new(), MemStore::new());
            for pid in store.ids() {
                let reader = store.open(pid).unwrap();
                if pid != bad {
                    without.put(pid, reader.raw_bytes_owned(), || ()).unwrap();
                    crafted.put(pid, reader.raw_bytes_owned(), || ()).unwrap();
                    continue;
                }
                let mut w = PartitionWriter::new(reader.group_id(), reader.series_len() + 1);
                for (node, recs) in reader.clusters() {
                    recs.for_each(|id, values| w.push_record(id, &[values, &[0.0]].concat()));
                    w.seal_cluster(node);
                }
                crafted.put(pid, w.finish(), || ()).unwrap();
            }

            let reqs = std::slice::from_ref(&req);
            let over = |store| {
                execute(
                    &skeleton,
                    &[Some(Source::sealed(store))],
                    Some(ds.series_len()),
                    reqs,
                    0,
                )
            };
            let (got, status) = over(&crafted);
            let (want, _) = over(&without);
            assert_eq!(status[0].failed_partitions, BTreeSet::from([bad]));
            assert!(!got[0].results.is_empty(), "the other partitions answer");
            assert_eq!(got, want, "a partition the scan refuses reads as absent");
        }
    }
}

#[cfg(test)]
mod batch {
    mod tests {
        use crate::testkit::{build, queries_of, run, search};
        use crate::{QueryOutcome, SearchRequest};
        use climber_dfs::store::PartitionStore;
        use climber_series::gen::Domain;

        /// `n` requests at the given thread counts vs one at a time.
        fn check(
            domain: Domain,
            n: usize,
            shape: impl Fn(Vec<f32>) -> SearchRequest,
            threads: &[usize],
        ) {
            let (skeleton, store, ds) = build(domain, 400);
            let reqs: Vec<SearchRequest> = queries_of(&ds, n).into_iter().map(shape).collect();
            let want: Vec<QueryOutcome> =
                reqs.iter().map(|r| search(&skeleton, &store, r)).collect();
            for &t in threads {
                assert_eq!(run(&skeleton, &store, &reqs, t), want, "threads={t}");
            }
        }

        #[test]
        fn batch_knn_identical_to_sequential() {
            check(
                Domain::RandomWalk,
                12,
                |q| SearchRequest::new(q, 10).exact(),
                &[1, 2, 5],
            );
        }

        #[test]
        fn batch_adaptive_identical_to_sequential() {
            // large k forces the adaptive cross-partition expansion AND the
            // within-partition fallback
            check(
                Domain::Eeg,
                9,
                |q| SearchRequest::new(q, 120).adaptive(4),
                &[3],
            );
        }

        #[test]
        fn batch_od_smallest_identical_to_sequential() {
            check(
                Domain::Dna,
                6,
                |q| SearchRequest::new(q, 25).smallest(),
                &[2],
            );
        }

        #[test]
        fn single_query_batch_matches_single_query() {
            check(
                Domain::RandomWalk,
                1,
                |q| SearchRequest::new(q, 7).exact(),
                &[8],
            );
        }

        #[test]
        fn batch_is_deterministic_across_thread_counts() {
            check(
                Domain::Eeg,
                8,
                |q| SearchRequest::new(q, 30).adaptive(2),
                &[1, 4, 8],
            );
        }

        #[test]
        fn batch_decodes_less_than_it_scans() {
            let (skeleton, store, ds) = build(Domain::TexMex, 500);
            // clustered data: many queries land in the same partitions
            let reqs: Vec<SearchRequest> = queries_of(&ds, 40)
                .into_iter()
                .map(|q| SearchRequest::new(q, 10))
                .collect();
            let before = store.stats().snapshot();
            let out = run(&skeleton, &store, &reqs, 0);
            let decoded = store.stats().snapshot().since(&before).records_read;
            let scanned: u64 = out.iter().map(|o| o.records_scanned).sum();
            assert!(decoded > 0);
            assert!(
                decoded < scanned,
                "no sharing: decoded {decoded} vs scanned {scanned}"
            );
        }

        #[test]
        fn empty_batch_is_empty() {
            let (skeleton, store, _) = build(Domain::RandomWalk, 200);
            let before = store.stats().snapshot();
            assert!(run(&skeleton, &store, &[], 0).is_empty());
            let io = store.stats().snapshot().since(&before);
            assert_eq!(io.records_read, 0);
        }

        #[test]
        #[should_panic(expected = "k must be positive")]
        fn zero_k_rejected() {
            let (skeleton, store, ds) = build(Domain::RandomWalk, 200);
            run(&skeleton, &store, &[SearchRequest::new(ds.get(0), 0)], 0);
        }

        #[test]
        #[should_panic(expected = "factor must be positive")]
        fn zero_factor_rejected() {
            let (skeleton, store, ds) = build(Domain::RandomWalk, 200);
            run(
                &skeleton,
                &store,
                &[SearchRequest::new(ds.get(0), 5).adaptive(0)],
                0,
            );
        }
    }
}
