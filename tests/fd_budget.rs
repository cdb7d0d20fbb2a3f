//! A store holds its live image files open, and no more.
//!
//! A cluster read goes through a handle the store keeps per image file —
//! one per pack, one per base image up to a bound — so the process's
//! descriptor count (`/proc/self/fd`) grows while an index is open, but
//! only by those files. This opens an on-disk index read-write, reads
//! every partition, and runs flushes through at least one merge, reading
//! every partition again after each: the count never grows by more than
//! the partitions' base images (at this size all of them fit the bound)
//! plus the packs live then, and once the index drops it is back where it
//! started. The same for a 3-shard set. The bound on base images is the
//! process's: two indexes whose base images together pass it hold no more
//! than it, and every read past it reads what the file holds.

#![cfg(target_os = "linux")]

use climber_core::dfs::format::{ClusterPick, PartitionDirectory};
use climber_core::dfs::store::{
    parse_pack_file_name, partition_file_name, DiskStore, PartitionStore, HELD_BASES,
};
use climber_core::series::gen::Domain;
use climber_core::series::Dataset;
use climber_core::{Climber, ClimberConfig, ShardedClimber};
use std::fs;
use std::path::{Path, PathBuf};

/// Series in each of the two indexes past the bound.
const MANY: usize = 2_400;

fn cfg() -> ClimberConfig {
    ClimberConfig::default()
        .with_paa_segments(8)
        .with_pivots(32)
        .with_prefix_len(5)
        .with_capacity(200)
        .with_alpha(0.5)
        .with_epsilon(1)
        .with_seed(7)
        .with_workers(2)
}

fn fds() -> usize {
    fs::read_dir("/proc/self/fd").unwrap().count()
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("climber-fdbudget-{tag}-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    dir
}

/// The pack files in `dir`.
fn packs(dir: &Path) -> usize {
    (fs::read_dir(dir).unwrap().flatten())
        .filter(|e| parse_pack_file_name(&e.file_name().to_string_lossy()).is_some())
        .count()
}

/// Reads every cluster of every partition of `store`: its base image and
/// each extension, through the store's handles. Returns how many files
/// the store may hold open: one per base image, one per live pack.
fn read_every_partition(store: &DiskStore) -> usize {
    let ids = store.ids();
    for &pid in &ids {
        let mut out = Vec::new();
        (store.read_clusters(pid, ClusterPick::Rest(&[]), &mut out)).unwrap();
        assert!(!out.is_empty(), "partition {pid} read nothing");
    }
    ids.len() + packs(store.dir())
}

/// Flushes until one has merged, appending copies of one built series
/// before each (they land in one partition per store and extend it), and
/// checks the descriptor count after every flush. `stores` are the open
/// index's stores; `flush` appends and flushes.
fn flush_through_a_merge<'a>(
    baseline: usize,
    stores: &dyn Fn() -> Vec<&'a DiskStore>,
    flush: &dyn Fn(),
) {
    let held = |stores: &[&DiskStore]| stores.iter().map(|s| read_every_partition(s)).sum();
    let bound: usize = held(&stores());
    let grown = fds() - baseline;
    assert!(grown > 0, "reading every partition held no file");
    assert!(grown <= bound, "{grown} descriptors for {bound} live files");
    let mut merged = false;
    for cycle in 0..8 {
        let before: Vec<usize> = stores().iter().map(|s| packs(s.dir())).collect();
        flush();
        let after: Vec<usize> = stores().iter().map(|s| packs(s.dir())).collect();
        merged |= before.iter().zip(&after).any(|(b, a)| a < b);
        let bound: usize = held(&stores());
        let grown = fds() - baseline;
        assert!(
            grown <= bound,
            "cycle {cycle}: {grown} descriptors for {bound} live files"
        );
    }
    assert!(merged, "no flush merged");
}

/// Checks that a read of every cluster of every partition of `store` — a
/// freshly built index, so each partition is its base image alone —
/// returns what the partition's file holds, read afresh. Returns how many
/// partitions it read.
fn reads_match_the_files(store: &DiskStore) -> usize {
    let ids = store.ids();
    for &pid in &ids {
        let mut out = Vec::new();
        (store.read_clusters(pid, ClusterPick::Rest(&[]), &mut out)).unwrap();
        let got: Vec<_> = (out.iter())
            .map(|(node, view)| {
                let records = view.records();
                let bytes: Vec<u8> = (0..view.len())
                    .flat_map(|i| records.record(i).to_vec())
                    .collect();
                (*node, bytes)
            })
            .collect();
        let file = fs::read(store.dir().join(partition_file_name(pid))).unwrap();
        let directory = PartitionDirectory::parse(&file).unwrap();
        let mut want = Vec::new();
        (directory.for_each_picked(ClusterPick::Rest(&[]), |node, span, _| {
            want.push((node, file[span].to_vec()));
            Ok::<(), ()>(())
        }))
        .unwrap();
        assert_eq!(got, want, "partition {pid}");
    }
    ids.len()
}

#[test]
fn an_index_holds_its_live_files_open_and_no_more() {
    let ds: Dataset = Domain::RandomWalk.generate(800, 5);
    let probe = ds.get(17).to_vec();

    let dir = tmp("single");
    drop(Climber::build_on_disk(&ds, &dir, cfg()).unwrap());
    let baseline = fds();
    let index = Climber::open_rw(&dir).unwrap();
    flush_through_a_merge(baseline, &|| vec![index.store()], &|| {
        index.append(&probe).unwrap();
        index.flush().unwrap();
    });
    drop(index);
    assert_eq!(fds(), baseline, "a dropped index left files open");
    fs::remove_dir_all(&dir).ok();

    let dir = tmp("sharded");
    drop(ShardedClimber::build_on_disk(&ds, &dir, cfg(), 3).unwrap());
    let baseline = fds();
    let set = ShardedClimber::open_rw(&dir).unwrap();
    let stores = || set.shards().into_iter().map(Climber::store).collect();
    flush_through_a_merge(baseline, &stores, &|| {
        // Copies under consecutive ids: every shard gets some.
        set.append_batch(&vec![probe.clone(); 6]).unwrap();
        set.flush().unwrap();
    });
    drop(set);
    assert_eq!(fds(), baseline, "a dropped shard set left files open");
    fs::remove_dir_all(&dir).ok();

    // Two indexes of small partitions, each under the bound and together
    // past it: reading all of both holds the bound's worth of base images.
    let many = Domain::RandomWalk.generate(MANY, 9);
    let dirs = [tmp("many-a"), tmp("many-b")];
    for dir in &dirs {
        drop(Climber::build_on_disk(&many, dir, cfg().with_capacity(12)).unwrap());
    }
    let baseline = fds();
    let indexes: Vec<Climber<DiskStore>> = (dirs.iter())
        .map(|dir| Climber::open(dir).unwrap())
        .collect();
    let bases: Vec<usize> = (indexes.iter())
        .map(|index| reads_match_the_files(index.store()))
        .collect();
    assert!(
        bases.iter().all(|&n| n < HELD_BASES),
        "{bases:?} base images"
    );
    assert!(
        bases.iter().sum::<usize>() > HELD_BASES,
        "{bases:?} base images"
    );
    let grown = fds() - baseline;
    assert_eq!(
        grown, HELD_BASES,
        "descriptors held for {bases:?} base images"
    );
    // Reads past the bound open and close their files as they go.
    for index in &indexes {
        reads_match_the_files(index.store());
    }
    assert_eq!(fds() - baseline, HELD_BASES);
    drop(indexes);
    assert_eq!(fds(), baseline, "dropped indexes left files open");
    for dir in &dirs {
        fs::remove_dir_all(dir).ok();
    }
}
