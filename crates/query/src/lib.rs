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

// More of the executor's unit tests (the cluster-scan core on a
// hand-built store is `exec`'s own). Their module paths predate the
// executor — there used to be one scan loop per module and a `KnnEngine`
// façade — and are kept so the suite's test ids stay comparable across the
// collapse: `scatter` pins the plan and multi-partition stages, `batch`
// what a batch shares and refuses (n requests against one at a time is the
// oracle proptest's, `tests/batch_equivalence.rs`), `engine` (engine.rs)
// answer quality end to end.

#[cfg(test)]
mod testkit {
    use crate::exec::{execute, SeriesLen, Source};
    use crate::{QueryOutcome, SearchRequest};
    use climber_dfs::store::DiskStore;
    use climber_index::builder::IndexBuilder;
    use climber_index::config::IndexConfig;
    use climber_index::skeleton::IndexSkeleton;
    use climber_series::dataset::Dataset;
    use climber_series::gen::Domain;

    /// `reqs` through the executor over the sealed partitions of `store`.
    pub fn run(
        skeleton: &IndexSkeleton,
        store: &DiskStore,
        reqs: &[SearchRequest],
        threads: usize,
    ) -> Vec<QueryOutcome> {
        let sources = [Some(Source::sealed(store))];
        let series_len = SeriesLen::default().get(store);
        execute(skeleton, &sources, series_len, reqs, threads).0
    }

    /// One request, inline on the calling thread.
    pub fn search(
        skeleton: &IndexSkeleton,
        store: &DiskStore,
        req: &SearchRequest,
    ) -> QueryOutcome {
        run(skeleton, store, std::slice::from_ref(req), 0)
            .pop()
            .expect("one outcome per request")
    }

    pub fn build(domain: Domain, n: usize) -> (IndexSkeleton, DiskStore, Dataset) {
        let ds = domain.generate(n, 91);
        let store = DiskStore::in_memory();
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
        use climber_dfs::store::{DiskStore, PartitionStore};
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
            let (without, crafted) = (DiskStore::in_memory(), DiskStore::in_memory());
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
        use crate::testkit::{build, queries_of, run};
        use crate::SearchRequest;
        use climber_dfs::store::PartitionStore;
        use climber_series::gen::Domain;

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
