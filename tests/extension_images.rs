//! A partition split over a base image and extension images answers
//! exactly as its compacted form.
//!
//! A flush appends each dirty partition's pending records as one more
//! extension image; a query reads a node's cluster from the base and then
//! from each extension. Here four flushes — with deletes between them —
//! leave partitions with the most extensions a partition may hold, and a
//! copy of the directory is compacted into one base image per partition.
//! Both answer every request **identically** — results, plan,
//! `partitions_opened`, `records_scanned` — for one index and a 3-shard
//! set, with the block cache on and off, in every `SearchMode`.

use climber_core::series::gen::Domain;
use climber_core::{
    BlockCache, CacheConfig, Climber, ClimberConfig, Manifest, OpenOptions, QueryOutcome,
    SearchBackend, SearchRequest, ShardedClimber, SHARD_SET_FILE,
};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Records built into the index.
const N: usize = 1_200;

/// Extension images a partition holds at most before a flush merges them.
const MAX_EXTENSIONS: usize = 4;

fn cfg() -> ClimberConfig {
    ClimberConfig::default()
        .with_paa_segments(8)
        .with_pivots(32)
        .with_prefix_len(5)
        .with_capacity(200)
        .with_alpha(0.5)
        .with_epsilon(1)
        .with_seed(11)
        .with_workers(2)
}

fn copy_dir(src: &Path, dst: &Path) {
    fs::remove_dir_all(dst).ok();
    fs::create_dir_all(dst).unwrap();
    for entry in fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let (from, to) = (entry.path(), dst.join(entry.file_name()));
        if from.is_dir() {
            copy_dir(&from, &to);
        } else {
            fs::copy(&from, &to).unwrap();
        }
    }
}

/// The index directories of a built layout: the index itself, or each
/// shard's.
fn index_dirs(dir: &Path) -> Vec<PathBuf> {
    if !dir.join(SHARD_SET_FILE).exists() {
        return vec![dir.to_path_buf()];
    }
    let mut shards: Vec<PathBuf> = (fs::read_dir(dir).unwrap().flatten())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    shards.sort();
    shards
}

/// The most extension images any partition of `dir` holds.
fn most_extensions(dir: &Path) -> usize {
    (index_dirs(dir).iter())
        .map(|d| Manifest::load_with(&climber_core::dfs::fsio::StdFs, d).unwrap())
        .flat_map(|m| m.partitions.into_iter().map(|e| e.extensions.len()))
        .max()
        .unwrap()
}

/// Every request shape: each mode, small and large `k`.
fn requests(probes: &[Vec<f32>]) -> Vec<SearchRequest> {
    let mut reqs = Vec::new();
    for (i, q) in probes.iter().enumerate() {
        let k = if i % 2 == 0 { 5 } else { 60 };
        reqs.push(SearchRequest::new(q.clone(), k).exact());
        reqs.push(SearchRequest::new(q.clone(), k).adaptive(2));
        reqs.push(SearchRequest::new(q.clone(), k).smallest());
        let stretched = climber_core::series::resample::resample_linear(q, q.len() / 2);
        reqs.push(SearchRequest::new(stretched, k).resampled(4));
    }
    reqs
}

/// Four cycles of appends and deletes, each closed by a flush that only
/// extends; then `dir`'s compacted copy at `compacted`.
fn extend_then_compact<I: SearchBackend>(
    dir: &Path,
    compacted: &Path,
    open_rw: impl Fn(&Path) -> I,
    flush: impl Fn(&I) -> (usize, usize),
    append: impl Fn(&I, &[Vec<f32>]) -> Vec<u64>,
    delete: impl Fn(&I, u64),
    compact: impl Fn(&I),
) -> Vec<Vec<f32>> {
    let index = open_rw(dir);
    let ds = Domain::RandomWalk.generate(N, 7);
    let mut probes = Vec::new();
    for cycle in 0..MAX_EXTENSIONS as u64 {
        let extra = Domain::RandomWalk.generate(16, 100 + cycle);
        // A copy of one built series each cycle: its partition gets an
        // extension every time.
        let batch: Vec<Vec<f32>> = (0..16)
            .map(|i| extra.get(i).to_vec())
            .chain([ds.get(5).to_vec()])
            .collect();
        let ids = append(&index, &batch);
        probes.push(batch[0].clone());
        // A sealed record, and one appended by an earlier cycle.
        delete(&index, cycle * 97 + 3);
        delete(&index, ids[0] - 11);
        let (extended, _) = flush(&index);
        assert!(extended > 0, "cycle {cycle} extended nothing");
    }
    drop(index);
    assert_eq!(most_extensions(dir), MAX_EXTENSIONS);
    copy_dir(dir, compacted);
    compact(&open_rw(compacted));
    assert_eq!(most_extensions(compacted), 0);
    probes.extend((0..8u64).map(|i| ds.get(i * 131).to_vec()));
    probes
}

/// Answers of a read-only open of `dir`, cached or not.
fn answers<I: SearchBackend>(
    dir: &Path,
    cache: bool,
    reqs: &[SearchRequest],
    open: impl Fn(&Path, &OpenOptions) -> I,
) -> Vec<QueryOutcome> {
    let opts = OpenOptions {
        cache: cache.then(|| Arc::new(BlockCache::new(CacheConfig::default()))),
        ..OpenOptions::default()
    };
    let index = open(dir, &opts);
    let one: Vec<QueryOutcome> = reqs
        .iter()
        .map(|r| index.search_many(std::slice::from_ref(r)).remove(0))
        .collect();
    assert_eq!(index.search_many(reqs), one, "a batch answers otherwise");
    one
}

fn tmp(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("climber-ext-{tag}-{}", std::process::id()));
    fs::remove_dir_all(&root).ok();
    root
}

#[test]
fn a_partition_with_extensions_answers_as_its_compacted_form() {
    let root = tmp("single");
    let (dir, compacted) = (root.join("extended"), root.join("compacted"));
    let ds = Domain::RandomWalk.generate(N, 7);
    drop(Climber::build_on_disk(&ds, &dir, cfg()).unwrap());
    let probes = extend_then_compact(
        &dir,
        &compacted,
        |d| Climber::open_rw(d).unwrap(),
        |c| {
            let r = c.flush().unwrap();
            (r.partitions_extended, r.partitions_rewritten)
        },
        |c, batch| c.append_batch(batch).unwrap(),
        |c, id| assert!(c.delete(id).unwrap()),
        |c| {
            c.compact().unwrap();
        },
    );
    let reqs = requests(&probes);
    let open = |d: &Path, opts: &OpenOptions| Climber::open_dir(d, opts).unwrap().0;
    for cache in [false, true] {
        let want = answers(&compacted, cache, &reqs, open);
        let got = answers(&dir, cache, &reqs, open);
        for (i, (got, want)) in got.iter().zip(&want).enumerate() {
            assert_eq!(got, want, "request {i} (cache {cache}): {:?}", reqs[i].mode);
        }
    }
    fs::remove_dir_all(&root).ok();
}

#[test]
fn a_shard_set_with_extensions_answers_as_its_compacted_form() {
    let root = tmp("sharded");
    let (dir, compacted) = (root.join("extended"), root.join("compacted"));
    let ds = Domain::RandomWalk.generate(N, 7);
    drop(ShardedClimber::build_on_disk(&ds, &dir, cfg(), 3).unwrap());
    let probes = extend_then_compact(
        &dir,
        &compacted,
        |d| ShardedClimber::open_rw(d).unwrap(),
        |c| {
            let r = c.flush().unwrap();
            (r.partitions_extended, r.partitions_rewritten)
        },
        |c, batch| c.append_batch(batch).unwrap(),
        |c, id| assert!(c.delete(id).unwrap()),
        |c| {
            c.compact().unwrap();
        },
    );
    let reqs = requests(&probes);
    let open = |d: &Path, opts: &OpenOptions| ShardedClimber::open_dir(d, opts).unwrap().0;
    for cache in [false, true] {
        let want = answers(&compacted, cache, &reqs, open);
        let got = answers(&dir, cache, &reqs, open);
        for (i, (got, want)) in got.iter().zip(&want).enumerate() {
            assert_eq!(got, want, "request {i} (cache {cache}): {:?}", reqs[i].mode);
        }
    }
    fs::remove_dir_all(&root).ok();
}
