//! The I/O budget of the storage layer, pinned with the `FaultFs` op
//! trace: every partition byte crosses the filesystem boundary once per
//! direction.
//!
//! * A flush dirtying D partitions performs exactly **D partition reads,
//!   D staged writes, D file fsyncs** and a **constant** number of
//!   directory fsyncs (the pre-commit barrier, the manifest commit, the
//!   closing install) — no manifest or skeleton re-read, no per-file
//!   directory fsync, no read-back of what it just wrote. Each stage is
//!   written under a temp name and renamed to its `.new` sibling, so no
//!   file another reader may be serving is ever truncated.
//! * The barrier sits where the protocol needs it: after the last stage
//!   is fsynced, before the manifest is renamed into place.
//! * A build of P partitions performs exactly **P partition writes, P
//!   partition fsyncs** and its seal **no partition read**: every
//!   partition is staged once by its put, and the seal commits it from
//!   the put's receipt.
//! * A fresh build, single or sharded, opens no partition: its append
//!   counter and series length come from the dataset, not from a scan.
//! * A block-cache miss is exactly **one** read, of exactly one cluster,
//!   and a hit is none; a whole-partition open, cached store or not, is
//!   exactly one read.
//! * An uncached query reads exactly its planned clusters, one read each,
//!   and the rest of a partition only when it expands.

use climber_core::dfs::format::{ClusterPick, PartitionDirectory, PartitionReader};
use climber_core::dfs::fsio::{ClimberFs, FaultFs, FsOp, FsRef, StdFs};
use climber_core::dfs::page::PAGE_SIZE;
use climber_core::dfs::store::{partition_file_name, DiskStore, PartitionStore};
use climber_core::index::builder::IndexBuilder;
use climber_core::series::gen::Domain;
use climber_core::{
    BlockCache, BuildOptions, CacheConfig, Climber, ClimberConfig, OpenOptions, RecoveryPolicy,
    SearchRequest, ShardedClimber,
};
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

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
    let dir = std::env::temp_dir().join(format!("climber-iobudget-{tag}-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    let ds = Domain::RandomWalk.generate(400, 5);
    drop(Climber::build_on_disk(&ds, &dir, cfg()).unwrap());
    dir
}

/// Strict read-write open options over `fs`, cached when given a config.
fn rw_over(fs: FsRef, cache: Option<CacheConfig>) -> OpenOptions {
    OpenOptions {
        writable: true,
        policy: RecoveryPolicy::Strict,
        cache: cache.map(|config| Arc::new(BlockCache::new(config))),
        fs,
    }
}

fn name_of(path: &Path) -> String {
    path.file_name().unwrap().to_string_lossy().into_owned()
}

/// Appends `appends` series, then flushes under an armed `FaultFs`.
/// Returns the partitions rewritten and the flush's op trace.
fn traced_flush(dir: &Path, appends: usize) -> (usize, Vec<(FsOp, String)>) {
    let ff = FaultFs::over_std();
    let fsref: FsRef = ff.clone();
    let (index, _) = Climber::open_dir(dir, &rw_over(fsref, None)).unwrap();
    let extra = Domain::RandomWalk.generate(appends, 99);
    let batch: Vec<Vec<f32>> = (0..appends).map(|i| extra.get(i as u64).to_vec()).collect();
    index.append_batch(&batch).unwrap();
    ff.arm();
    let report = index.flush().unwrap();
    ff.disarm();
    let trace = ff
        .trace()
        .into_iter()
        .map(|(op, path)| (op, name_of(&path)))
        .collect();
    (report.partitions_rewritten, trace)
}

fn count(trace: &[(FsOp, String)], op: FsOp, pred: impl Fn(&str) -> bool) -> usize {
    trace.iter().filter(|(o, n)| *o == op && pred(n)).count()
}

#[test]
fn flush_reads_writes_and_syncs_each_dirty_partition_once() {
    let is_partition = |n: &str| n.starts_with("part_");
    let is_stage = |n: &str| n.starts_with("part_") && n.ends_with(".clbp.new");
    let is_stage_tmp = |n: &str| n.starts_with("part_") && n.contains(".clbp.new.tmp.");
    let mut dir_fsyncs = Vec::new();
    for (tag, appends) in [("few", 3), ("many", 60)] {
        let dir = built(tag);
        let (d, trace) = traced_flush(&dir, appends);
        assert!(d > 0, "the appends dirtied no partition");
        let all = |_: &str| true;

        // Reads: the D partitions being rewritten, and nothing else — the
        // manifest and the skeleton this instance opened stay in memory,
        // and the seal describes each rewrite from its put receipt.
        assert_eq!(count(&trace, FsOp::Read, is_partition), d, "{trace:?}");
        assert_eq!(
            count(&trace, FsOp::Read, all),
            d,
            "non-partition reads: {trace:?}"
        );

        // Writes: one stage per dirty partition plus the manifest, each
        // under a temp name and fsynced exactly once. Nothing is written
        // in place — not a committed file, not an earlier stage.
        assert_eq!(count(&trace, FsOp::Write, is_stage_tmp), d);
        assert_eq!(count(&trace, FsOp::Write, all), d + 1, "{trace:?}");
        assert_eq!(count(&trace, FsOp::FsyncFile, is_stage_tmp), d);
        assert_eq!(count(&trace, FsOp::FsyncFile, all), d + 1);

        // Renames (traced by source): temp → stage per partition, the
        // manifest commit, then one install per stage.
        assert_eq!(count(&trace, FsOp::Rename, is_stage_tmp), d);
        assert_eq!(count(&trace, FsOp::Rename, is_stage), d);
        assert_eq!(count(&trace, FsOp::Rename, all), 2 * d + 1);
        // Each stage is durable before it is published: its temp file's
        // fsync comes before the rename of that temp file.
        for (at, (_, tmp)) in
            (trace.iter().enumerate()).filter(|(_, (op, n))| *op == FsOp::Rename && is_stage_tmp(n))
        {
            let synced = trace[..at]
                .iter()
                .any(|(op, n)| *op == FsOp::FsyncFile && n == tmp);
            assert!(synced, "{tmp} renamed before its fsync: {trace:?}");
        }

        // The single pre-commit barrier: the first directory fsync comes
        // after every stage is written and fsynced, and before the
        // manifest is renamed into place; no stage is installed before
        // that rename.
        let pos = |op: FsOp, pred: &dyn Fn(&str) -> bool, last: bool| {
            let mut hits = trace
                .iter()
                .enumerate()
                .filter(|(_, (o, n))| *o == op && pred(n))
                .map(|(i, _)| i);
            if last { hits.last() } else { hits.next() }.unwrap()
        };
        let barrier = pos(FsOp::FsyncDir, &all, false);
        let commit = pos(FsOp::Rename, &|n| n.starts_with("MANIFEST"), false);
        assert!(pos(FsOp::Rename, &is_stage_tmp, true) < barrier);
        assert!(barrier < commit);
        assert!(commit < pos(FsOp::Rename, &is_stage, false));

        dir_fsyncs.push((d, count(&trace, FsOp::FsyncDir, all)));
        fs::remove_dir_all(&dir).ok();
    }
    // O(1) directory fsyncs: barrier + manifest commit + closing install,
    // whatever D is.
    let (d_few, d_many) = (dir_fsyncs[0].0, dir_fsyncs[1].0);
    assert!(
        d_many > d_few,
        "the two flushes must differ in D ({d_few} vs {d_many})"
    );
    assert_eq!(dir_fsyncs[0].1, 3);
    assert_eq!(dir_fsyncs[1].1, 3);
}

/// A trace entry's file name with the unique part of a temp name dropped
/// (`x.tmp.<pid>.<seq>` → `x.tmp`), and `dir` itself as `<dir>`.
fn stable_name(dir: &Path, path: &Path) -> String {
    if path == dir {
        return "<dir>".into();
    }
    let name = name_of(path);
    match name.find(".tmp.") {
        Some(at) => format!("{}.tmp", &name[..at]),
        None => name,
    }
}

#[test]
fn a_build_stages_each_partition_once_and_its_seal_reads_none() {
    let dir = std::env::temp_dir().join(format!("climber-iobudget-build-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    let ff = FaultFs::over_std();
    let store = DiskStore::create(&dir, ff.clone()).unwrap();
    let ds = Domain::RandomWalk.generate(400, 5);
    let builder = IndexBuilder::with_options(cfg(), BuildOptions::default().with_threads(2));
    let trace_of = |ff: &FaultFs| -> Vec<(FsOp, String)> {
        let trace = ff.trace().into_iter();
        trace.map(|(op, p)| (op, stable_name(&dir, &p))).collect()
    };

    // The build: one stage per partition — temp write, fsync, rename to
    // the `.new` sibling — in whatever order the workers finish.
    ff.arm();
    let (skeleton, _) = builder.build(&ds, &store);
    ff.disarm();
    let pids = store.ids();
    let p = pids.len();
    assert_eq!(p, skeleton.num_partitions());
    let mut build = trace_of(&ff);
    build.sort();
    let mut want: Vec<(FsOp, String)> = (pids.iter())
        .flat_map(|&pid| {
            let tmp = format!("{}.new.tmp", partition_file_name(pid));
            [FsOp::Write, FsOp::FsyncFile, FsOp::Rename].map(|op| (op, tmp.clone()))
        })
        .collect();
    want.sort();
    assert_eq!(build, want);

    // The seal (`from_parts` seeds its id counter by an ids-only scan in
    // between, outside both windows): the skeleton written once, the
    // pre-commit barrier, the manifest commit, one install per partition,
    // the journal cleanup, the closing directory fsync — and not one
    // partition read, write or fsync.
    let index = Climber::from_parts(skeleton, store);
    ff.arm();
    index.save(&dir).unwrap();
    ff.disarm();
    let seal = trace_of(&ff).split_off(build.len());
    let mut want: Vec<(FsOp, String)> = vec![
        (FsOp::CreateDirAll, "<dir>".into()),
        (FsOp::Read, "skeleton.clsk".into()),
        (FsOp::Write, "skeleton.clsk.tmp".into()),
        (FsOp::FsyncFile, "skeleton.clsk.tmp".into()),
        (FsOp::Rename, "skeleton.clsk.tmp".into()),
        (FsOp::FsyncDir, "<dir>".into()),
        (FsOp::FsyncDir, "<dir>".into()),
        (FsOp::Write, "MANIFEST.clmf.tmp".into()),
        (FsOp::FsyncFile, "MANIFEST.clmf.tmp".into()),
        (FsOp::Rename, "MANIFEST.clmf.tmp".into()),
        (FsOp::FsyncDir, "<dir>".into()),
    ];
    want.extend(
        pids.iter()
            .map(|&pid| (FsOp::Rename, format!("{}.new", partition_file_name(pid)))),
    );
    want.extend([
        (FsOp::RemoveFile, "journal.cldj".into()),
        (FsOp::RemoveFile, "journal.cldj.new".into()),
        (FsOp::FsyncDir, "<dir>".into()),
    ]);
    assert_eq!(seal, want);
    drop(index);

    // Exactly P partition writes and P partition fsyncs in all, no
    // partition read, and the directory opens strictly.
    let all = trace_of(&ff);
    let on_partitions = |op: FsOp| count(&all, op, |n| n.starts_with("part_"));
    assert_eq!(
        [FsOp::Write, FsOp::FsyncFile, FsOp::Read].map(on_partitions),
        [p, p, 0]
    );
    let reopened = Climber::open(&dir).unwrap();
    assert_eq!(reopened.store().ids(), pids);
    fs::remove_dir_all(&dir).ok();
}

/// A build knows its ids and its series length: right after a fresh
/// `build_on_disk`, single or sharded, no store has opened a partition.
#[test]
fn a_fresh_build_opens_no_partition() {
    let dir = std::env::temp_dir().join(format!("climber-iobudget-ids-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    let ds = Domain::RandomWalk.generate(400, 5);
    let single = Climber::build_on_disk(&ds, dir.join("single"), cfg()).unwrap();
    let sharded = ShardedClimber::build_on_disk(&ds, dir.join("sharded"), cfg(), 3).unwrap();
    let stores =
        std::iter::once(single.store()).chain(sharded.shards().into_iter().map(Climber::store));
    for (i, store) in stores.enumerate() {
        assert_eq!(store.stats().snapshot().partitions_opened, 0, "store {i}");
    }
    assert_eq!(single.series_len(), Some(ds.series_len()));
    assert_eq!(sharded.series_len(), Some(ds.series_len()));
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_miss_is_one_read_and_a_hit_is_none() {
    let dir = built("miss");
    let reads = |ff: &FaultFs, store: &DiskStore, pid: u32| {
        let before = ff.op_count_of(FsOp::Read);
        store.open(pid).unwrap();
        assert_eq!(
            ff.op_count(),
            ff.op_count_of(FsOp::Read),
            "an open only reads"
        );
        ff.op_count_of(FsOp::Read) - before
    };

    // Uncached store: every open is a miss, every miss one read.
    let ff = FaultFs::over_std();
    let fsref: FsRef = ff.clone();
    let (index, _) = Climber::open_dir(&dir, &rw_over(fsref, None)).unwrap();
    ff.arm();
    let pids = index.store().ids();
    for &pid in &pids {
        assert_eq!(reads(&ff, index.store(), pid), 1);
    }
    drop(index);

    // A cache exactly as large as the largest cluster `a`: `a` and any
    // other cluster `b` never fit together, so alternating between them
    // misses every time (one read each) and repeating one hits.
    let cluster_reads = |ff: &FaultFs, store: &DiskStore, (pid, node): (u32, u64)| {
        let before = ff.op_count_of(FsOp::Read);
        let mut out = Vec::new();
        store
            .read_clusters(pid, ClusterPick::Named(&[node]), &mut out)
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(
            ff.op_count(),
            ff.op_count_of(FsOp::Read),
            "a cluster read only reads"
        );
        ff.op_count_of(FsOp::Read) - before
    };
    let mut clusters: Vec<((u32, u64), usize)> = Vec::new();
    for &pid in &pids {
        let reader =
            PartitionReader::open(fs::read(dir.join(partition_file_name(pid))).unwrap().into())
                .unwrap();
        for node in reader.cluster_ids() {
            clusters.push(((pid, node), reader.cluster_bytes(node).unwrap()));
        }
    }
    clusters.sort_by_key(|&(_, len)| std::cmp::Reverse(len));
    let (a, b) = (clusters[0].0, clusters[1].0);
    let ff = FaultFs::over_std();
    let fsref: FsRef = ff.clone();
    let one_cluster =
        CacheConfig::default().with_capacity_bytes(clusters[0].1.next_multiple_of(PAGE_SIZE));
    let (index, _) = Climber::open_dir(&dir, &rw_over(fsref, Some(one_cluster))).unwrap();
    ff.arm();
    cluster_reads(&ff, index.store(), a);
    assert_eq!(
        cluster_reads(&ff, index.store(), b),
        1,
        "miss after eviction"
    );
    assert_eq!(cluster_reads(&ff, index.store(), b), 0, "hit");
    assert_eq!(
        cluster_reads(&ff, index.store(), a),
        1,
        "miss after eviction"
    );
    assert_eq!(cluster_reads(&ff, index.store(), a), 0, "hit");
    // A whole-image open stays one read, cached store or not.
    assert_eq!(reads(&ff, index.store(), a.0), 1, "an open is uncached");
    assert_eq!(reads(&ff, index.store(), a.0), 1, "an open is uncached");
    fs::remove_dir_all(&dir).ok();
}

/// A recording filesystem over the standard one: the `(file name, offset,
/// len)` of every read — each range of a ranged read, and a whole read as
/// offset 0 and `usize::MAX` — and a panic on anything else, which a
/// query must never do.
#[derive(Debug, Default)]
struct ReadLog(Mutex<Vec<(String, u64, usize)>>);

impl ReadLog {
    fn take(&self) -> Vec<(String, u64, usize)> {
        std::mem::take(&mut *self.0.lock().unwrap())
    }
}

impl ClimberFs for ReadLog {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.0.lock().unwrap().push((name_of(path), 0, usize::MAX));
        StdFs.read(path)
    }
    fn read_ranges(&self, path: &Path, ranges: &[(u64, usize)]) -> io::Result<Vec<Vec<u8>>> {
        let mut log = self.0.lock().unwrap();
        log.extend(
            ranges
                .iter()
                .map(|&(offset, len)| (name_of(path), offset, len)),
        );
        StdFs.read_ranges(path, ranges)
    }
    fn write(&self, path: &Path, _: &[u8]) -> io::Result<()> {
        unreachable!("write {}", path.display())
    }
    fn fsync_file(&self, path: &Path) -> io::Result<()> {
        unreachable!("fsync {}", path.display())
    }
    fn rename(&self, from: &Path, _: &Path) -> io::Result<()> {
        unreachable!("rename {}", from.display())
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        unreachable!("remove {}", path.display())
    }
    fn fsync_dir(&self, path: &Path) -> io::Result<()> {
        unreachable!("fsync dir {}", path.display())
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        unreachable!("mkdir {}", path.display())
    }
}

/// On an uncached store a query performs exactly one read per planned
/// cluster, of exactly that cluster's bytes, and reads no byte of an
/// unplanned cluster unless it expands — when it reads the rest of each
/// partition it walks, each cluster once.
#[test]
fn an_uncached_query_reads_exactly_its_planned_clusters() {
    let dir = built("planned");
    let ds = Domain::RandomWalk.generate(400, 5);
    let readers: BTreeMap<u32, PartitionReader> = {
        let index = Climber::open(&dir).unwrap();
        let pids = index.store().ids();
        (pids.into_iter())
            .map(|pid| (pid, index.store().open(pid).unwrap()))
            .collect()
    };
    let span = |pid: u32, node: u64| {
        let parsed = PartitionDirectory::parse(readers[&pid].raw_bytes()).unwrap();
        let (range, count) = parsed.locate(node).unwrap();
        (
            (partition_file_name(pid), range.start as u64, range.len()),
            count,
        )
    };
    let log = Arc::new(ReadLog::default());
    let fsref: FsRef = log.clone();
    let opts = OpenOptions {
        writable: false,
        ..rw_over(fsref, None)
    };
    let (index, _) = Climber::open_dir(&dir, &opts).unwrap();
    log.take();
    let (mut plain, mut expanded) = (0, 0);
    for i in 0..24u64 {
        let k = if i % 2 == 0 { 5 } else { 400 };
        let outcome = index.search(&SearchRequest::new(ds.get(i * 13).to_vec(), k));
        let mut got = log.take();
        // The planned clusters, then — while the answer is short — the
        // rest of each planned partition in plan order.
        let mut want = Vec::new();
        let mut found = 0;
        for (&pid, nodes) in &outcome.plan.reads {
            for &node in nodes
                .iter()
                .filter(|n| readers[&pid].cluster_len(**n).is_some())
            {
                let (read, count) = span(pid, node);
                want.push(read);
                found += count;
            }
        }
        let expands = found < k;
        if expands {
            for (&pid, nodes) in &outcome.plan.reads {
                for node in readers[&pid].cluster_ids() {
                    if !nodes.contains(&node) {
                        let (read, count) = span(pid, node);
                        want.push(read);
                        found += count;
                    }
                }
                if found >= k {
                    break;
                }
            }
        }
        *if expands { &mut expanded } else { &mut plain } += 1;
        got.sort();
        want.sort();
        assert_eq!(got, want, "query {i}, k {k}: {:?}", outcome.plan);
    }
    assert!(
        plain > 0 && expanded > 0,
        "{plain} plain, {expanded} expanding"
    );
    fs::remove_dir_all(&dir).ok();
}
