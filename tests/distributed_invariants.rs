//! Invariants of the real distributed substrate: a [`ShardedClimber`]'s
//! routing is a stable partition of the record set, its scatter-gather
//! accounting sums to the single-index totals, and its k-way merge never
//! drops ties at the k-boundary.

use climber_core::dfs::store::PartitionStore;
use climber_core::series::gen::Domain;
use climber_core::{Climber, ClimberConfig, SearchRequest, ShardedClimber};

fn cfg() -> ClimberConfig {
    ClimberConfig::default()
        .with_paa_segments(8)
        .with_pivots(48)
        .with_prefix_len(6)
        .with_capacity(100)
        .with_alpha(0.3)
        .with_epsilon(1)
        .with_seed(4242)
        .with_workers(2)
}

/// Every record id stored in shard `s`, straight from the shard stores.
fn shard_contents<S: PartitionStore>(sharded: &ShardedClimber<S>) -> Vec<Vec<u64>> {
    sharded
        .shards()
        .iter()
        .map(|shard| {
            let mut ids = Vec::new();
            for pid in shard.store().ids() {
                shard
                    .store()
                    .open(pid)
                    .unwrap()
                    .for_each(|id, _| ids.push(id));
            }
            ids.sort_unstable();
            ids
        })
        .collect()
}

#[test]
fn every_record_routes_to_exactly_one_shard() {
    let n = 900u64;
    let ds = Domain::Eeg.generate(n as usize, 5);
    let sharded = ShardedClimber::build_in_memory(&ds, cfg(), 3);
    let contents = shard_contents(&sharded);
    let mut owners = vec![0u32; n as usize];
    for (si, ids) in contents.iter().enumerate() {
        assert!(!ids.is_empty(), "shard {si} owns no records at n={n}");
        for &id in ids {
            owners[id as usize] += 1;
            assert_eq!(sharded.shard_of(id), si, "record {id} stored off its shard");
        }
    }
    assert!(
        owners.iter().all(|&c| c == 1),
        "routing is not a partition of the record set"
    );
}

#[test]
fn routing_is_stable_across_reopen() {
    let dir = std::env::temp_dir().join(format!("climber-route-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let ds = Domain::RandomWalk.generate(400, 3);
    let built = ShardedClimber::build_on_disk(&ds, &dir, cfg(), 3).unwrap();
    let before = shard_contents(&built);
    let reopened = ShardedClimber::open(&dir).unwrap();
    assert_eq!(reopened.router_seed(), built.router_seed());
    assert_eq!(
        shard_contents(&reopened),
        before,
        "a reopen moved records between shards"
    );
    for id in 0..400u64 {
        assert_eq!(reopened.shard_of(id), built.shard_of(id), "record {id}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The handle `build_on_disk` returns is the built set itself, never
/// reopened: it is writable, takes append → delete → flush → compact, and
/// then answers like a single index — directly and after a cold open.
#[test]
fn the_built_disk_handle_takes_updates_like_a_single_index() {
    let dir = std::env::temp_dir().join(format!("climber-built-rw-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let ds = Domain::RandomWalk.generate(500, 13);
    let single = Climber::build_in_memory(&ds, cfg());
    let built = ShardedClimber::build_on_disk(&ds, &dir, cfg(), 3).unwrap();
    assert!(built.is_writable());

    let extra = Domain::RandomWalk.generate(24, 14);
    let batch: Vec<Vec<f32>> = (0..24u64).map(|i| extra.get(i).to_vec()).collect();
    assert_eq!(
        built.append_batch(&batch).unwrap(),
        single.append_batch(&batch).unwrap()
    );
    for id in [3u64, 77, 260, 505] {
        assert_eq!(built.delete(id).unwrap(), single.delete(id).unwrap());
    }
    built.flush().unwrap();
    single.flush().unwrap();
    built.compact().unwrap();
    single.compact().unwrap();

    let reqs: Vec<SearchRequest> = (0..6u64)
        .map(|i| SearchRequest::new(ds.get(i * 71).to_vec(), 10))
        .chain((0..4u64).map(|i| SearchRequest::new(extra.get(i * 5).to_vec(), 10).exact()))
        .collect();
    let want = single.search_many(&reqs);
    assert_eq!(built.search_many(&reqs), want, "the built handle");
    let cold = ShardedClimber::open(&dir).unwrap();
    assert_eq!(cold.search_many(&reqs), want, "a cold open");
    assert_eq!(cold.generations(), built.generations());
    assert_eq!(shard_contents(&cold), shard_contents(&built));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn per_shard_accounting_sums_to_single_index_totals() {
    let ds = Domain::TexMex.generate(1_200, 7);
    let single = Climber::build_in_memory(&ds, cfg());
    let sharded = ShardedClimber::build_in_memory(&ds, cfg(), 4);
    let reqs: Vec<SearchRequest> = (0..8u64)
        .map(|i| SearchRequest::new(ds.get(i * 131).to_vec(), 10))
        .collect();
    let want = single.search_many(&reqs);
    let (got, statuses) = sharded.search_many_with_status(&reqs, 0);
    assert_eq!(got, want, "sharded outcomes diverged from the single index");
    // Shards are record-disjoint, so what each shard scanned must sum
    // exactly to the single-index plan totals — nothing double-counted,
    // nothing dropped.
    let per_shard: u64 = statuses.iter().map(|s| s.records_scanned).sum();
    let per_query: u64 = want.iter().map(|o| o.records_scanned).sum();
    assert_eq!(
        per_shard, per_query,
        "shard accounting diverged from plan totals"
    );
    for s in &statuses {
        assert!(s.healthy, "shard {} unhealthy on a pristine store", s.shard);
        assert!(s.failed_partitions.is_empty());
    }
}

#[test]
fn merge_never_drops_ties_at_the_k_boundary() {
    let ds = Domain::RandomWalk.generate(300, 11);
    let single = Climber::build_in_memory(&ds, cfg());
    let sharded = ShardedClimber::build_in_memory(&ds, cfg(), 3);
    // Twelve byte-identical copies of one series: twelve records at the
    // exact same (duplicated) distance to the probe, spread across shards
    // by the router, with k cutting through the middle of the tie.
    let probe = ds.get(42).to_vec();
    let copies: Vec<Vec<f32>> = (0..12).map(|_| probe.clone()).collect();
    let ids_single = single.append_batch(&copies).unwrap();
    let ids_sharded = sharded.append_batch(&copies).unwrap();
    assert_eq!(ids_single, ids_sharded);
    let shards_hit: std::collections::BTreeSet<usize> =
        ids_sharded.iter().map(|&id| sharded.shard_of(id)).collect();
    assert!(
        shards_hit.len() > 1,
        "tie set landed on one shard; the test would not exercise the merge"
    );
    for k in [5usize, 8, 13] {
        let req = SearchRequest::new(probe.clone(), k);
        let (got, want) = (sharded.search(&req), single.search(&req));
        assert_eq!(got, want, "k={k}");
        // The boundary sits inside the duplicated-distance run: ties must
        // be broken by ascending id, identically on both sides.
        let dup: Vec<_> = got
            .results
            .iter()
            .filter(|r| ids_sharded.contains(&r.0) || r.0 == 42)
            .collect();
        assert!(dup.len() >= k.min(13), "k={k} answer lost tied records");
        assert!(
            dup.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 == w[1].1),
            "tied records must come back in ascending id order at equal distance"
        );
        // The tie run the merge preserved must genuinely cross shards —
        // otherwise this test would not exercise the k-way merge at all.
        let result_shards: std::collections::BTreeSet<usize> =
            dup.iter().map(|r| sharded.shard_of(r.0)).collect();
        assert!(result_shards.len() > 1, "k={k} tie run came from one shard");
    }
    // Folding the tie set into sealed partitions must not re-break ties.
    single.flush().unwrap();
    sharded.flush().unwrap();
    let req = SearchRequest::new(probe, 8).exact();
    assert_eq!(sharded.search(&req), single.search(&req));
}

#[test]
fn scatter_is_thread_count_independent() {
    let ds = Domain::Dna.generate(800, 9);
    let single = Climber::build_in_memory(&ds, cfg());
    let sharded = ShardedClimber::build_in_memory(&ds, cfg(), 2);
    let reqs: Vec<SearchRequest> = (0..6u64)
        .map(|i| SearchRequest::new(ds.get(i * 113).to_vec(), 7).adaptive(2))
        .collect();
    let want = single.search_many(&reqs);
    for threads in [1usize, 2, 8] {
        assert_eq!(
            sharded.search_many_with_threads(&reqs, threads),
            want,
            "{threads} threads"
        );
    }
}
