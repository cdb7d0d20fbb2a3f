//! The allocation budget of one warm search, pinned with a counting
//! global allocator: a single `Climber::search` over a cached on-disk
//! index allocates a small constant number of times, and the count does
//! not depend on how many records the plan makes it scan — nothing is
//! allocated per record, nothing per cluster. And placing a record — the
//! per-record step of a build and of an append — allocates nothing once
//! its scratch is warm.
//!
//! One `#[test]` only: the counter is process-global, and a second test
//! on another harness thread would count into it.
#![allow(unsafe_code)]

use climber_core::dfs::store::DiskStore;
use climber_core::pivot::signature::SignatureScratch;
use climber_core::series::gen::Domain;
use climber_core::{CacheConfig, Climber, ClimberConfig, RecoveryPolicy, SearchRequest};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, counting every `alloc` and `realloc` call.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a relaxed statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations of one warm search of `req` (the third of three), with the
/// partitions it opened and the records it scanned.
fn allocations_of(index: &Climber<DiskStore>, req: &SearchRequest) -> Run {
    index.search(req);
    index.search(req);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let outcome = index.search(req);
    Run {
        allocations: ALLOCATIONS.load(Ordering::Relaxed) - before,
        partitions: outcome.partitions_opened,
        records: outcome.records_scanned,
    }
}

#[derive(Debug, Clone, Copy)]
struct Run {
    allocations: u64,
    partitions: usize,
    records: u64,
}

#[test]
fn a_warm_search_allocates_a_constant_handful() {
    let dir = std::env::temp_dir().join(format!("climber-allocbudget-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let ds = Domain::RandomWalk.generate(4000, 5);
    let config = ClimberConfig::default()
        .with_paa_segments(16)
        .with_pivots(64)
        .with_prefix_len(8)
        .with_capacity(400)
        .with_seed(7)
        .with_workers(2);
    drop(Climber::build_on_disk(&ds, &dir, config).unwrap());
    let cache = CacheConfig::default().with_capacity_bytes(64 << 20);
    let (index, _) = Climber::open_with_cache(&dir, RecoveryPolicy::Strict, cache).unwrap();
    let runs: Vec<Run> = (0..40u64)
        .map(|i| SearchRequest::new(ds.get(i * 97).to_vec(), 100).adaptive(4))
        .map(|req| allocations_of(&index, &req))
        .collect();

    // Placement: signature, Algorithm 1 and the trie walk on one scratch.
    let skeleton = index.skeleton();
    let mut scratch = SignatureScratch::new();
    for id in 0..10u64 {
        skeleton.place_with(ds.get(id), id, &mut scratch);
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for id in 0..1_000u64 {
        std::hint::black_box(skeleton.place_with(ds.get(id), id, &mut scratch));
    }
    let placing = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(placing, 0, "1000 placements allocated {placing} times");
    drop(index);
    std::fs::remove_dir_all(&dir).ok();

    // The budget: 30 on average over the mix (29.3 measured; 31.1 while a
    // cache hit still parsed the partition's directory, 52 before the
    // scan's buffers became per-thread), and 30 for every plan that opens
    // one partition (26–27 measured).
    let mean = runs.iter().map(|r| r.allocations).sum::<u64>() as f64 / runs.len() as f64;
    assert!(
        mean <= 30.0,
        "mean allocations per search: {mean} ({runs:?})"
    );
    for run in runs.iter().filter(|r| r.partitions == 1) {
        assert!(run.allocations <= 30, "over budget: {run:?}");
    }

    // Nothing per record, nothing per cluster, no directory parsed per
    // open: the store keeps every partition's. What is left follows the
    // plan's shape only — the plan handed back to the caller is a vector
    // per partition, tied groups are listed — so plans opening equally
    // many partitions allocate alike however much they scan.
    let mut compared_a_2x_spread = false;
    for partitions in 1..=4 {
        let class = || runs.iter().filter(|r| r.partitions == partitions);
        let (Some(light), Some(heavy)) = (
            class().min_by_key(|r| r.records),
            class().max_by_key(|r| r.records),
        ) else {
            continue;
        };
        compared_a_2x_spread |= heavy.records >= 2 * light.records.max(1);
        assert!(
            heavy.allocations.abs_diff(light.allocations) <= 4,
            "allocations follow the scan: {light:?} vs {heavy:?}"
        );
    }
    assert!(compared_a_2x_spread, "plans too alike to tell: {runs:?}");
}
