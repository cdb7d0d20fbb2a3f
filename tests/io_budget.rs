//! The I/O budget of the storage layer, pinned with the `FaultFs` op
//! trace: every partition byte crosses the filesystem boundary once per
//! direction.
//!
//! * A flush that gives D partitions an extension image, in P packs, and
//!   rewrites the base image of R others performs exactly **R partition
//!   reads, P + R file writes, P + R file fsyncs** and a **constant**
//!   number of directory fsyncs (the pre-commit barrier, the manifest
//!   commit, the closing install) — no per-partition extension file, no
//!   extension read, renamed or written twice, no manifest or skeleton
//!   re-read, no per-file directory fsync, no read-back of what it just
//!   wrote, and nothing removed. A pack is written once under its own new
//!   name; a base image is written under a temp name and renamed to its
//!   `.new` sibling, so no file another reader may be serving is ever
//!   truncated.
//! * A flush that merges reads exactly the extension images it folds (each
//!   its own range of its pack), writes one pack, and removes the packs it
//!   emptied only after the manifest that no longer names them has
//!   committed.
//! * The barrier sits where the protocol needs it: after the last image
//!   is written and fsynced, before the manifest is renamed into place.
//! * A build of P partitions performs exactly **P partition writes, P
//!   partition fsyncs** and its seal **no partition read**: every
//!   partition is staged once by its put, and the seal commits it from
//!   the entry the put recorded.
//! * A fresh build, single or sharded, opens no partition: its append
//!   counter and series length come from the dataset, not from a scan.
//! * A block-cache miss is exactly **one** read, of exactly one cluster,
//!   and a hit is none; a whole-partition open, cached store or not, is
//!   exactly one read.
//! * An uncached query reads exactly its planned clusters, one read per
//!   run of adjacent ones, and the rest of a partition only when it
//!   expands.

use climber_core::dfs::format::{ClusterPick, PartitionDirectory, PartitionReader};
use climber_core::dfs::fsio::{Bytes, ClimberFs, FaultFs, FsOp, FsRef, ReadHandle, ReadRef, StdFs};
use climber_core::dfs::page::PAGE_SIZE;
use climber_core::dfs::store::{
    parse_pack_file_name, partition_file_name, DiskStore, PartitionStore,
};
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
/// Returns the partitions extended and rewritten and the flush's op trace.
fn traced_flush(dir: &Path, appends: usize) -> (usize, usize, Vec<(FsOp, String)>) {
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
    (
        report.partitions_extended,
        report.partitions_rewritten,
        trace,
    )
}

fn count(trace: &[(FsOp, String)], op: FsOp, pred: impl Fn(&str) -> bool) -> usize {
    trace.iter().filter(|(o, n)| *o == op && pred(n)).count()
}

fn is_pack(name: &str) -> bool {
    parse_pack_file_name(name).is_some()
}

/// Position of the first (or `last`) op of `op` on a name `pred` accepts.
fn pos(trace: &[(FsOp, String)], op: FsOp, pred: &dyn Fn(&str) -> bool, last: bool) -> usize {
    let mut hits = (trace.iter().enumerate())
        .filter(|(_, (o, n))| *o == op && pred(n))
        .map(|(i, _)| i);
    if last { hits.last() } else { hits.next() }.unwrap()
}

#[test]
fn flush_reads_writes_and_syncs_each_dirty_partition_once() {
    let is_partition = |n: &str| n.starts_with("part_");
    let is_stage = |n: &str| n.starts_with("part_") && n.ends_with(".clbp.new");
    let is_stage_tmp = |n: &str| n.starts_with("part_") && n.contains(".clbp.new.tmp.");
    let all = |_: &str| true;
    let mut folded = Vec::new();
    for (tag, appends) in [("few", 3), ("many", 60), ("bulk", 400)] {
        let dir = built(tag);
        let (d, r, trace) = traced_flush(&dir, appends);
        assert!(d + r > 0, "the appends dirtied no partition");

        // Reads: the R base images being rewritten, and nothing else — no
        // extended partition is read, the manifest and the skeleton this
        // instance opened stay in memory, and the seal describes each
        // image from the entry its stage recorded.
        assert_eq!(count(&trace, FsOp::Read, is_partition), r, "{trace:?}");
        assert_eq!(
            count(&trace, FsOp::Read, all),
            r,
            "non-partition reads: {trace:?}"
        );

        // Writes: one pack holding every extended partition's image,
        // under its own name, and no file per extended partition; one
        // stage per rewritten partition, under a temp name; plus the
        // manifest — each fsynced exactly once. Nothing is written in
        // place: not a committed file, not an earlier stage.
        let p = usize::from(d > 0);
        assert_eq!(count(&trace, FsOp::Write, is_pack), p);
        assert_eq!(count(&trace, FsOp::Write, is_stage_tmp), r);
        assert_eq!(count(&trace, FsOp::Write, all), p + r + 1, "{trace:?}");
        assert_eq!(count(&trace, FsOp::FsyncFile, is_pack), p);
        assert_eq!(count(&trace, FsOp::FsyncFile, is_stage_tmp), r);
        assert_eq!(count(&trace, FsOp::FsyncFile, all), p + r + 1);

        // Renames (traced by source): temp → stage per rewritten
        // partition, the manifest commit, then one install per stage. A
        // pack is never renamed, and nothing is removed.
        assert_eq!(count(&trace, FsOp::Rename, is_pack), 0);
        assert_eq!(count(&trace, FsOp::Rename, is_stage_tmp), r);
        assert_eq!(count(&trace, FsOp::Rename, is_stage), r);
        assert_eq!(count(&trace, FsOp::Rename, all), 2 * r + 1);
        let is_image_file = |n: &str| is_pack(n) || is_partition(n);
        assert_eq!(count(&trace, FsOp::RemoveFile, is_image_file), 0);
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
        // after every image is written and fsynced, and before the
        // manifest is renamed into place; no stage is installed before
        // that rename.
        let barrier = pos(&trace, FsOp::FsyncDir, &all, false);
        let commit = pos(&trace, FsOp::Rename, &|n| n.starts_with("MANIFEST"), false);
        let last_image = |op| pos(&trace, op, &|n| is_pack(n) || is_stage_tmp(n), true);
        assert!(last_image(FsOp::Write) < barrier);
        assert!(last_image(FsOp::FsyncFile) < barrier);
        if r > 0 {
            assert!(pos(&trace, FsOp::Rename, &is_stage_tmp, true) < barrier);
            assert!(commit < pos(&trace, FsOp::Rename, &is_stage, false));
        }
        assert!(barrier < commit);

        folded.push((d, r, count(&trace, FsOp::FsyncDir, all)));
        fs::remove_dir_all(&dir).ok();
    }
    // Both kinds of fold were exercised, over flushes of differing size.
    assert!(folded.iter().any(|&(d, _, _)| d > 0), "{folded:?}");
    assert!(folded.iter().any(|&(_, r, _)| r > 0), "{folded:?}");
    assert!(
        folded[1].0 + folded[1].1 > folded[0].0 + folded[0].1,
        "{folded:?}"
    );
    // O(1) directory fsyncs: barrier + manifest commit + closing install,
    // whatever D and R are.
    assert!(
        folded.iter().all(|&(_, _, dir_fsyncs)| dir_fsyncs == 3),
        "{folded:?}"
    );
}

/// A flush that would leave a fifth flush's pack live merges: the
/// partition's extensions and its pending records become one image. It
/// reads exactly those extension images (each its range of its pack,
/// never the base), writes and fsyncs one pack, renames nothing but the
/// manifest, and removes the packs it emptied only after the commit that
/// stops naming them.
#[test]
fn a_merging_flush_reads_its_extensions_and_removes_them_after_the_commit() {
    let dir = std::env::temp_dir().join(format!("climber-iobudget-merge-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    let ds = Domain::RandomWalk.generate(800, 5);
    let big = cfg().with_capacity(200);
    drop(Climber::build_on_disk(&ds, &dir, big).unwrap());
    let ff = FaultFs::over_std();
    let fsref: FsRef = ff.clone();
    let (index, _) = Climber::open_dir(&dir, &rw_over(fsref, None)).unwrap();
    // The same series again and again: every copy lands in one partition.
    let probe = ds.get(17).to_vec();
    let mut extended = Vec::new();
    for _ in 0..4 {
        index.append(&probe).unwrap();
        let report = index.flush().unwrap();
        extended.push((report.partitions_extended, report.partitions_rewritten));
    }
    assert_eq!(extended, vec![(1, 0); 4]);
    let ext_count = |n: &str| is_pack(n);
    let before: Vec<String> = (fs::read_dir(&dir).unwrap().flatten())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| ext_count(n))
        .collect();
    assert_eq!(before.len(), 4, "{before:?}");

    index.append(&probe).unwrap();
    ff.arm();
    let report = index.flush().unwrap();
    ff.disarm();
    assert_eq!(
        (report.partitions_extended, report.partitions_rewritten),
        (1, 0)
    );
    let trace: Vec<(FsOp, String)> = (ff.trace().into_iter())
        .map(|(op, path)| (op, name_of(&path)))
        .collect();
    let all = |_: &str| true;
    let merged = |n: &str| before.iter().any(|b| b == n);
    assert_eq!(count(&trace, FsOp::Read, all), 4, "{trace:?}");
    assert_eq!(count(&trace, FsOp::Read, merged), 4);
    assert_eq!(count(&trace, FsOp::Write, is_pack), 1);
    assert_eq!(count(&trace, FsOp::Write, all), 2, "{trace:?}");
    assert_eq!(count(&trace, FsOp::FsyncFile, is_pack), 1);
    assert_eq!(count(&trace, FsOp::FsyncFile, all), 2);
    assert_eq!(count(&trace, FsOp::Rename, all), 1, "{trace:?}");
    assert_eq!(count(&trace, FsOp::RemoveFile, merged), 4);
    let is_image_file = |n: &str| is_pack(n) || n.starts_with("part_");
    assert_eq!(count(&trace, FsOp::RemoveFile, is_image_file), 4);
    assert_eq!(count(&trace, FsOp::FsyncDir, all), 3);
    let commit = pos(&trace, FsOp::Rename, &|n| n.starts_with("MANIFEST"), false);
    assert!(commit < pos(&trace, FsOp::RemoveFile, &merged, false));
    let after: Vec<String> = (fs::read_dir(&dir).unwrap().flatten())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| ext_count(n))
        .collect();
    assert_eq!(after.len(), 1, "{after:?}");
    assert!(!merged(&after[0]));
    drop(index);
    let reopened = Climber::open(&dir).unwrap();
    let out = reopened.search(&SearchRequest::new(probe.clone(), 6).exact());
    assert_eq!(out.results.iter().filter(|&&(_, d)| d == 0.0).count(), 6);
    fs::remove_dir_all(&dir).ok();
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
/// len)` of every read — each range read through a handle it opened, and a
/// whole read as offset 0 and `usize::MAX` — and a panic on anything else,
/// which a query must never do.
#[derive(Debug, Default)]
struct ReadLog(Arc<Mutex<Vec<(String, u64, usize)>>>);

/// A handle a [`ReadLog`] opened: logs each range, then reads it.
#[derive(Debug)]
struct LoggedHandle {
    log: Arc<Mutex<Vec<(String, u64, usize)>>>,
    name: String,
    inner: ReadRef,
}

impl ReadHandle for LoggedHandle {
    fn read_ranges(&self, ranges: &[(u64, usize)]) -> io::Result<Vec<Bytes>> {
        let logged = ranges.iter().map(|&(at, len)| (self.name.clone(), at, len));
        self.log.lock().unwrap().extend(logged);
        self.inner.read_ranges(ranges)
    }
}

impl ReadLog {
    fn take(&self) -> Vec<(String, u64, usize)> {
        std::mem::take(&mut *self.0.lock().unwrap())
    }
}

impl ClimberFs for ReadLog {
    fn read(&self, path: &Path) -> io::Result<Bytes> {
        self.0.lock().unwrap().push((name_of(path), 0, usize::MAX));
        StdFs.read(path)
    }
    fn open_read(&self, path: &Path) -> io::Result<ReadRef> {
        let (log, name) = (Arc::clone(&self.0), name_of(path));
        let inner = StdFs.open_read(path)?;
        Ok(Arc::new(LoggedHandle { log, name, inner }))
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

/// The reads one cluster read of an uncached store makes for the cluster
/// `spans` it misses: one per run of adjacent clusters of a file.
fn runs(mut spans: Vec<(String, u64, usize)>) -> Vec<(String, u64, usize)> {
    spans.sort();
    let mut runs: Vec<(String, u64, usize)> = Vec::new();
    for (name, at, len) in spans {
        match runs.last_mut() {
            Some((file, from, run)) if *file == name && *from + *run as u64 == at => *run += len,
            _ => runs.push((name, at, len)),
        }
    }
    runs
}

/// On an uncached store a query reads exactly the bytes of its planned
/// clusters, one read per run of adjacent ones, and no byte of an
/// unplanned cluster unless it expands — when it reads the rest of each
/// partition it walks, each cluster once, again a run per read.
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
        // rest of each planned partition in ascending id, as the executor
        // expands.
        let mut want = Vec::new();
        let mut found = 0;
        for (&pid, nodes) in outcome.plan.reads.iter() {
            let mut planned = Vec::new();
            for &node in nodes
                .iter()
                .filter(|n| readers[&pid].cluster_len(**n).is_some())
            {
                let (read, count) = span(pid, node);
                planned.push(read);
                found += count;
            }
            want.extend(runs(planned));
        }
        let expands = found < k;
        if expands {
            let mut by_id: Vec<_> = outcome.plan.reads.iter().collect();
            by_id.sort_unstable_by_key(|&(&pid, _)| pid);
            for (&pid, nodes) in by_id {
                let mut rest = Vec::new();
                for node in readers[&pid].cluster_ids() {
                    if !nodes.contains(&node) {
                        let (read, count) = span(pid, node);
                        rest.push(read);
                        found += count;
                    }
                }
                want.extend(runs(rest));
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
