//! A query reads clusters, not partitions. Every way a disk store serves
//! a cluster — uncached, from a cold cache, from a warm cache, from a
//! staged put before and after its commit, after a put invalidated what
//! was cached — hands out exactly the bytes `cluster_view` over the whole
//! file does. A partition file cut short under an open store fails its
//! cluster reads with a typed `io::Error` and is named failed in the
//! search status; nothing panics.

use climber_core::dfs::format::{ClusterPick, PartitionReader, PartitionWriter, TrieNodeId};
use climber_core::dfs::fsio::std_fs;
use climber_core::dfs::page::{charge_of, ClusterView};
use climber_core::dfs::store::{
    partition_file_name, staged_path_of, DiskStore, PartitionId, PartitionStore,
};
use climber_core::series::gen::Domain;
use climber_core::{BlockCache, CacheConfig, Climber, ClimberConfig, SearchRequest};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn cfg() -> ClimberConfig {
    ClimberConfig::default()
        .with_paa_segments(8)
        .with_pivots(32)
        .with_prefix_len(5)
        .with_capacity(40)
        .with_alpha(0.5)
        .with_epsilon(1)
        .with_seed(7)
        .with_workers(2)
}

fn built(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("climber-clusters-{tag}-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    let ds = Domain::RandomWalk.generate(400, 5);
    drop(Climber::build_on_disk(&ds, &dir, cfg()).unwrap());
    dir
}

/// A writable store over `dir`, attached to `cache` when given one.
fn open(dir: &Path, cache: Option<&Arc<BlockCache>>) -> (DiskStore, u64) {
    let (store, _, warmed) =
        DiskStore::open_validated(dir.to_path_buf(), false, std_fs(), false, cache.cloned())
            .unwrap();
    (store, warmed)
}

/// The whole file at `path`, parsed.
fn whole(path: &Path) -> PartitionReader {
    PartitionReader::open(fs::read(path).unwrap().into()).unwrap()
}

/// A view's records as encoded: id, then values, per record.
fn encoded(view: &ClusterView) -> Vec<u8> {
    let recs = view.records();
    let mut out = Vec::new();
    for i in 0..recs.len() {
        out.extend_from_slice(&recs.id(i).to_le_bytes());
        out.extend_from_slice(recs.values_le(i));
    }
    out
}

fn read(store: &DiskStore, pid: PartitionId, pick: ClusterPick<'_>) -> Vec<(TrieNodeId, Vec<u8>)> {
    let mut out = Vec::new();
    store.read_clusters(pid, pick, &mut out).unwrap();
    out.iter()
        .map(|(node, view)| (*node, encoded(view)))
        .collect()
}

/// Reads every cluster of every partition of `store` — all at once, one
/// by one, and as the rest after the first — and checks each against
/// `cluster_view` over the whole file `file(pid)` names.
fn assert_whole_image_views(store: &DiskStore, file: impl Fn(PartitionId) -> PathBuf, case: &str) {
    for pid in store.ids() {
        let reader = whole(&file(pid));
        let nodes = reader.cluster_ids();
        let want: Vec<(TrieNodeId, Vec<u8>)> = (nodes.iter())
            .map(|&node| (node, encoded(&reader.cluster_view(node).unwrap())))
            .collect();
        assert_eq!(
            read(store, pid, ClusterPick::Named(&nodes)),
            want,
            "{case}: {pid}"
        );
        for (i, &node) in nodes.iter().enumerate() {
            let one = read(store, pid, ClusterPick::Named(&[node]));
            assert_eq!(one, want[i..=i], "{case}: {pid}/{node}");
        }
        let rest = read(store, pid, ClusterPick::Rest(&nodes[..1.min(nodes.len())]));
        assert_eq!(rest, want[1.min(want.len())..], "{case}: rest of {pid}");
    }
}

/// A writer of `reader`'s image with every odd-id record dropped: the
/// same clusters, other bytes.
fn thinned(reader: &PartitionReader) -> PartitionWriter {
    let mut w = PartitionWriter::new(reader.group_id(), reader.series_len());
    for (node, recs) in reader.clusters() {
        w.splice(&recs, |id| id % 2 == 0);
        w.seal_cluster(node);
    }
    w
}

fn hits_misses(cache: &BlockCache) -> (u64, u64) {
    let stats = cache.stats();
    (stats.hits, stats.misses)
}

#[test]
fn cluster_reads_match_whole_image_views() {
    let dir = built("views");
    let main = |pid| dir.join(partition_file_name(pid));
    let staged = |pid| staged_path_of(&dir, pid);

    // Uncached.
    let (uncached, warmed) = open(&dir, None);
    assert_eq!(warmed, 0);
    assert_whole_image_views(&uncached, main, "uncached");
    let pids = uncached.ids();
    drop(uncached);

    // A cache exactly as large as the index's clusters: a first store
    // warms all of them, so a second store over the same cache warms none
    // (warming never evicts) and starts cold — every cluster a miss —
    // then, having evicted the first store's, is warm — every read a hit.
    let mut clusters = 0u64;
    let mut charge = 0;
    let mut cluster_bytes = 0u64;
    for &pid in &pids {
        let reader = whole(&main(pid));
        for node in reader.cluster_ids() {
            let len = reader.cluster_bytes(node).unwrap();
            clusters += 1;
            charge += charge_of(len);
            cluster_bytes += len as u64;
        }
    }
    let cache = Arc::new(BlockCache::new(
        CacheConfig::default().with_capacity_bytes(charge),
    ));
    let (first, warmed) = open(&dir, Some(&cache));
    assert_eq!(warmed, cluster_bytes, "every cluster warmed");
    let (store, warmed) = open(&dir, Some(&cache));
    assert_eq!(warmed, 0, "a full cache warms nothing");
    drop(first);
    let before = hits_misses(&cache);
    for pid in store.ids() {
        let nodes = whole(&main(pid)).cluster_ids();
        let got = read(&store, pid, ClusterPick::Named(&nodes));
        let want: Vec<_> = (nodes.iter())
            .map(|&n| (n, encoded(&whole(&main(pid)).cluster_view(n).unwrap())))
            .collect();
        assert_eq!(got, want, "cold-cached: {pid}");
    }
    let after = hits_misses(&cache);
    assert_eq!(
        (after.0 - before.0, after.1 - before.1),
        (0, clusters),
        "cold"
    );
    assert_whole_image_views(&store, main, "warm-cached");
    let warm = hits_misses(&cache);
    assert_eq!(warm.1, after.1, "warm: no miss");
    assert!(warm.0 > after.0);

    // A put stages a new image: reads serve the sibling, uncached; after
    // the commit they serve the committed file, and nothing the cache
    // held of the old image comes back (no manifest is committed here, so
    // the directory is not reopened).
    let rewritten: Vec<PartitionId> = pids.iter().copied().step_by(2).collect();
    for &pid in &rewritten {
        store
            .put(pid, thinned(&whole(&main(pid))).finish(), || ())
            .unwrap();
    }
    let is_staged = |pid| rewritten.contains(&pid);
    let staged_or_main = |pid| {
        if is_staged(pid) {
            staged(pid)
        } else {
            main(pid)
        }
    };
    let before = hits_misses(&cache);
    assert_whole_image_views(&store, staged_or_main, "staged");
    for &pid in &rewritten {
        assert_ne!(fs::read(staged(pid)).unwrap(), fs::read(main(pid)).unwrap());
    }
    store.commit_staged().unwrap();
    assert_whole_image_views(&store, main, "committed, after the invalidating put");
    let after = hits_misses(&cache);
    assert!(
        after.1 > before.1,
        "the rewritten clusters were read afresh"
    );
    for &pid in &pids {
        assert!(!staged(pid).exists());
    }
    drop(store);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_partition_cut_short_after_open_fails_typed_and_named() {
    let dir = built("truncated");
    let ds = Domain::RandomWalk.generate(400, 5);
    // Uncached, and behind a cache too small to hold any cluster: either
    // way every cluster read goes to the file.
    for cache in [None, Some(0)] {
        let index = match cache {
            None => Climber::open_rw(&dir).unwrap(),
            Some(bytes) => {
                let config = CacheConfig::default().with_capacity_bytes(bytes);
                let strict = climber_core::RecoveryPolicy::Strict;
                Climber::open_with_cache(&dir, strict, config).unwrap().0
            }
        };
        let req = SearchRequest::new(ds.get(17).to_vec(), 5);
        let plan = index.search(&req).plan;
        let (pid, nodes, reader) = (plan.reads.iter())
            .map(|(&pid, nodes)| (pid, nodes, whole(&dir.join(partition_file_name(pid)))))
            .find(|(_, nodes, r)| nodes.iter().any(|&n| r.cluster_len(n).unwrap_or(0) > 0))
            .expect("a planned partition with a planned record");
        let path = dir.join(partition_file_name(pid));
        let good = fs::read(&path).unwrap();
        fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(reader.header_bytes() as u64)
            .unwrap();

        let label = format!("cache {cache:?}");
        let mut out = Vec::new();
        let named = index
            .store()
            .read_clusters(pid, ClusterPick::Named(nodes), &mut out);
        assert_eq!(
            named.unwrap_err().kind(),
            std::io::ErrorKind::UnexpectedEof,
            "{label}"
        );
        let unplanned = reader.cluster_ids().iter().any(|n| !nodes.contains(n));
        let rest = index
            .store()
            .read_clusters(pid, ClusterPick::Rest(nodes), &mut out);
        match unplanned {
            true => assert_eq!(rest.unwrap_err().kind(), std::io::ErrorKind::UnexpectedEof),
            false => assert!(rest.is_ok()),
        }
        // A plain search and an expanding one (k above anything one node
        // holds): the cut partition is named failed, and the rest answers.
        for k in [5, 400] {
            let req = SearchRequest::new(ds.get(17).to_vec(), k);
            let (outcomes, status) = index.search_many_with_status(std::slice::from_ref(&req));
            assert!(
                status.failed_partitions.contains(&pid),
                "{label}, k {k}: {status:?}"
            );
            assert!(!status.healthy);
            assert_eq!(outcomes.len(), 1);
        }
        fs::write(&path, &good).unwrap();
    }
    fs::remove_dir_all(&dir).ok();
}
