//! Property test: the query executor equals an independent brute-force
//! oracle — across random datasets, batch sizes, thread counts, source
//! (shard) counts, pending updates, and all four search modes.
//!
//! Every production search is one executor (`climber_query::exec`), so
//! comparing one entry point with another would compare the executor with
//! itself. The reference here is [`oracle`]: it collects the planned
//! clusters' records with the storage layer's plain visitors, scores them
//! with `sq_ed` (no early abandon, no `TopK`, no shared bound, no
//! prefilter), sorts, truncates, and replays the expansion rule at set
//! level. The contract is full [`QueryOutcome`]
//! equality: result ids, exact distances, `records_scanned`,
//! `partitions_opened`, and the plan itself.

use climber_core::{Climber, ClimberConfig, SearchMode, ShardedClimber};
use climber_dfs::store::{DiskStore, PartitionStore};
use climber_index::skeleton::IndexSkeleton;
use climber_query::adaptive::plan_adaptive;
use climber_query::knn::plan_knn;
use climber_query::od_smallest::plan_od_smallest;
use climber_query::plan::{QueryOutcome, QueryPlan};
use climber_query::search::SearchRequest;
use climber_series::dataset::Dataset;
use climber_series::distance::sq_ed;
use climber_series::gen::{RandomWalkGenerator, SeriesGenerator};
use climber_series::resample::resample_linear;
use proptest::prelude::*;

const SERIES_LEN: usize = 64;

fn build_index(n: usize, seed: u64, capacity: u64, shards: usize) -> (ShardedClimber, Dataset) {
    let ds = RandomWalkGenerator::new(SERIES_LEN).generate(n, seed);
    let cfg = ClimberConfig::default()
        .with_paa_segments(8)
        .with_pivots(24)
        .with_prefix_len(4)
        .with_capacity(capacity)
        .with_alpha(0.5)
        .with_epsilon(1)
        .with_seed(seed ^ 0xBA7C)
        .with_workers(2);
    (ShardedClimber::build_in_memory(&ds, cfg, shards), ds)
}

/// The plan a request must run, from the public planners alone, plus the
/// query it runs on (stretched for `Resampled`).
fn reference_plan(skeleton: &IndexSkeleton, req: &SearchRequest) -> (QueryPlan, Vec<f32>) {
    let query = match req.mode {
        SearchMode::Resampled(_) => resample_linear(&req.query, SERIES_LEN),
        _ => req.query.clone(),
    };
    let sig = skeleton.extract_signature(&query);
    let seed = query.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
        (h ^ v.to_bits() as u64).wrapping_mul(0x100_0000_01b3)
    });
    let mut plan = match req.mode {
        SearchMode::Exact => plan_knn(skeleton, &sig, seed),
        SearchMode::Adaptive(f) | SearchMode::Resampled(f) => {
            plan_adaptive(skeleton, &sig, req.k, f as usize, seed)
        }
        SearchMode::Smallest => plan_od_smallest(skeleton, &sig),
    };
    if let Some(b) = req.budget {
        plan.reads.truncate(b as usize);
    }
    (plan, query)
}

/// The trivially-correct reference: every surviving record of the planned
/// clusters of every shard, scored exactly, sorted by `(distance, id)`,
/// truncated to `k`; expansion replayed on candidate *counts* — the
/// plan's partitions in ascending id, all shards per partition, stop once
/// `k` candidates exist.
fn oracle(
    shards: &[&Climber<DiskStore>],
    plan: &QueryPlan,
    query: &[f32],
    k: usize,
    expands: bool,
) -> QueryOutcome {
    let mut candidates: Vec<(f64, u64)> = Vec::new();
    let mut cluster = |shard: &Climber<DiskStore>, pid: u32, node: u64| {
        let mut offer = |id: u64, values: &[f32]| {
            if !shard.tombstones().contains(id) {
                candidates.push((sq_ed(query, values), id));
            }
        };
        if let Ok(reader) = shard.store().open(pid) {
            reader.for_each_in_cluster(node, &mut offer);
            if let Some(run) = shard.delta().read().run(pid, node) {
                run.for_each(&mut offer);
            }
        }
        candidates.len()
    };
    let mut have = 0;
    for (&pid, nodes) in plan.reads.iter() {
        for shard in shards {
            for &node in nodes {
                have = cluster(shard, pid, node);
            }
        }
    }
    if expands && have < k {
        let mut by_id: Vec<_> = plan.reads.iter().collect();
        by_id.sort_unstable_by_key(|&(&pid, _)| pid);
        for (&pid, planned) in by_id {
            for shard in shards {
                let mut nodes = shard.store().open(pid).unwrap().cluster_ids();
                nodes.extend(shard.delta().read().nodes_for(pid));
                nodes.sort_unstable();
                nodes.dedup();
                for node in nodes.into_iter().filter(|n| !planned.contains(n)) {
                    have = cluster(shard, pid, node);
                }
            }
            if have >= k {
                break;
            }
        }
    }
    let records_scanned = candidates.len() as u64;
    candidates.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    candidates.truncate(k);
    QueryOutcome {
        results: candidates.into_iter().map(|(d, id)| (id, d)).collect(),
        partitions_opened: plan.num_partitions(),
        records_scanned,
        plan: plan.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn batch_equals_sequential(
        seed in 0u64..1000,
        n in 150usize..400,
        capacity in 30u64..90,
        batch_size in 1usize..24,
        threads_pick in 0usize..4,
        k in 1usize..40,
        strategy_pick in 0usize..4,
    ) {
        let threads = [1usize, 2, 4, 8][threads_pick];
        for shards in 1usize..=3 {
            let (index, ds) = build_index(n, seed, capacity, shards);

            // Queries: members of the dataset plus slightly perturbed
            // copies, so both exact-hit and near-miss paths are exercised.
            // Requests come in runs of four near-identical queries of one
            // shape, so clusters are shared by enough lanes for the PAA
            // prefilter to engage; the shapes rotate through everything
            // the executor groups by: the four modes, a budget, a
            // shortened resampled query, and a `k` no trie node can
            // satisfy (forces the expansion).
            let reqs: Vec<SearchRequest> = (0..batch_size as u64)
                .map(|i| {
                    let run = i / 4;
                    let mut q = ds.get((run * 13) % n as u64).to_vec();
                    if i % 4 != 0 {
                        let j = (i as usize * 7) % q.len();
                        q[0] += 0.05 * (i % 4) as f32;
                        q[j] -= 0.1;
                    }
                    match (strategy_pick + run as usize) % 7 {
                        0 => SearchRequest::new(q, k).exact(),
                        1 => SearchRequest::new(q, k).adaptive(2),
                        2 => SearchRequest::new(q, k).adaptive(4),
                        3 => SearchRequest::new(q, k).smallest(),
                        4 => SearchRequest::new(q, k).adaptive(4).with_budget(1 + run as usize % 3),
                        5 => SearchRequest::new(resample_linear(&q, 40), k).resampled(2),
                        _ => SearchRequest::new(q, capacity as usize * 2).exact(),
                    }
                })
                .collect();

            for updates in [false, true] {
                if updates {
                    // Pending delta records near the queries, and
                    // tombstones on sealed, query and delta records.
                    for i in 0..8u64 {
                        let mut v = ds.get((i * 13) % n as u64).to_vec();
                        v[3] += 0.01 * (i + 1) as f32;
                        index.append(&v).unwrap();
                    }
                    for id in [0, 13, 26, n as u64 / 2, n as u64 + 2] {
                        index.delete(id).unwrap();
                    }
                }
                let live = index.shards();
                let want: Vec<QueryOutcome> = reqs
                    .iter()
                    .map(|req| {
                        let (plan, query) = reference_plan(live[0].skeleton(), req);
                        let expands = req.mode != SearchMode::Smallest;
                        oracle(&live, &plan, &query, req.k, expands)
                    })
                    .collect();

                let ctx = format!("shards {shards} updates {updates} threads {threads}");
                let before = index.serve_io();
                let (got, status) = index.search_many_with_status(&reqs, threads);
                let io = index.serve_io().since(&before);
                prop_assert_eq!(&got, &want, "batch diverged ({})", &ctx);
                prop_assert!(status.iter().all(|s| s.healthy));
                let scanned: u64 = got.iter().map(|o| o.records_scanned).sum();
                prop_assert_eq!(
                    status.iter().map(|s| s.records_scanned).sum::<u64>(),
                    scanned
                );
                // The shared pass never decodes more than per-query
                // scans would: every decoded record is in >= 1 plan.
                prop_assert!(io.records_read <= scanned, "{}", &ctx);
                for (req, want) in reqs.iter().zip(&want) {
                    prop_assert_eq!(&index.search(req), want, "inline diverged ({})", &ctx);
                }
            }
        }
    }
}

/// A reopened (manifest-validated, read-only) disk index under concurrent
/// readers: N threads each running the full mixed workload must agree
/// bit-for-bit with the sequential answers of the freshly built index.
/// The read-only `DiskStore` shares one `IoStats` across threads and has
/// no interior mutability beyond it, but this pins the contract down.
#[test]
fn reopened_disk_index_concurrent_readers_agree() {
    use climber_series::gen::Domain;

    let dir = std::env::temp_dir().join(format!("climber-qconc-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let ds = Domain::RandomWalk.generate(600, 77);
    let config = ClimberConfig::default()
        .with_paa_segments(8)
        .with_pivots(32)
        .with_prefix_len(5)
        .with_capacity(80)
        .with_alpha(0.4)
        .with_epsilon(1)
        .with_seed(0xC0C0)
        .with_workers(2);
    let built = Climber::build_on_disk(&ds, &dir, config).unwrap();

    let reqs: Vec<SearchRequest> = (0..12u64)
        .map(|i| {
            let mut q = ds.get(i * 47).to_vec();
            if i % 3 == 0 {
                q[1] -= 0.5;
            }
            SearchRequest::new(q, 15).adaptive(4)
        })
        .collect();
    let want: Vec<QueryOutcome> = reqs.iter().map(|r| built.search(r)).collect();
    drop(built);

    let reopened = Climber::open(&dir).unwrap();
    assert!(reopened.store().is_read_only());
    std::thread::scope(|scope| {
        for t in 0..8usize {
            let (reopened, reqs, want) = (&reopened, &reqs, &want);
            scope.spawn(move || {
                // Single requests and whole batches all race on the one
                // store.
                for round in 0..3 {
                    for (qi, req) in reqs.iter().enumerate() {
                        let got = reopened.search(req);
                        assert_eq!(
                            got, want[qi],
                            "thread {t} round {round} query {qi} diverged"
                        );
                    }
                    let batch = reopened.search_many(reqs);
                    assert_eq!(&batch, want, "thread {t} round {round} batch");
                }
            });
        }
    });
    // Serve-phase I/O accounting saw only reads, from all threads.
    let io = reopened.serve_io();
    assert_eq!(io.partitions_written, 0);
    assert!(io.partitions_opened > 0);
    std::fs::remove_dir_all(&dir).ok();
}
