//! A fold whose write or durability step fails.
//!
//! A flush writes one file per rewritten base image and one pack holding
//! every other dirty partition's extension image; each file is fsynced
//! right after its write — a base image by the worker that built it — and
//! then publishes its partitions. When a file's write or fsync fails,
//! every partition in that file publishes nothing: the file is removed
//! and their records stay in the delta segment, queryable. Every other file still publishes, the flush
//! returns the error, and a retried flush converges with every
//! acknowledged append held — and no pack the manifest does not name
//! survives a writable reopen.

use climber_core::dfs::fsio::{is_tmp_name, Bytes, ClimberFs, FsOp, StdFs, INJECTED_FAULT};
use climber_core::dfs::store::{parse_pack_file_name, DiskStore, PartitionStore};
use climber_core::series::gen::Domain;
use climber_core::{
    Climber, ClimberConfig, ClimberError, Manifest, OpenOptions, QueryOutcome, RecoveryPolicy,
    SearchRequest,
};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Records built into the index.
const N: u64 = 1_500;

/// Copies of one built series among the appends: enough to make its
/// partition's first extension pass a quarter of its base, so the flush
/// rewrites that base.
const HOT: usize = 60;

fn cfg() -> ClimberConfig {
    ClimberConfig::default()
        .with_paa_segments(8)
        .with_pivots(32)
        .with_prefix_len(5)
        .with_capacity(150)
        .with_alpha(0.5)
        .with_epsilon(1)
        .with_seed(7)
        .with_workers(2)
}

/// The standard filesystem, failing the first `op` on a file whose name
/// `fails` accepts, once, while armed.
#[derive(Debug)]
struct FailOnce {
    op: FsOp,
    fails: fn(&str) -> bool,
    armed: AtomicBool,
}

impl FailOnce {
    fn check(&self, op: FsOp, path: &Path) -> io::Result<()> {
        let name = path.file_name().unwrap().to_string_lossy();
        if op == self.op && (self.fails)(&name) && self.armed.swap(false, Ordering::SeqCst) {
            return Err(io::Error::other(format!(
                "{INJECTED_FAULT}: {op:?} {}",
                path.display()
            )));
        }
        Ok(())
    }
}

impl ClimberFs for FailOnce {
    fn read(&self, path: &Path) -> io::Result<Bytes> {
        StdFs.read(path)
    }
    fn read_ranges(&self, path: &Path, ranges: &[(u64, usize)]) -> io::Result<Vec<Bytes>> {
        StdFs.read_ranges(path, ranges)
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.check(FsOp::Write, path)?;
        StdFs.write(path, bytes)
    }
    fn fsync_file(&self, path: &Path) -> io::Result<()> {
        self.check(FsOp::FsyncFile, path)?;
        StdFs.fsync_file(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        StdFs.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        StdFs.remove_file(path)
    }
    fn fsync_dir(&self, path: &Path) -> io::Result<()> {
        StdFs.fsync_dir(path)
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        StdFs.create_dir_all(path)
    }
}

fn open_rw(dir: &Path, fs: Arc<FailOnce>) -> Climber<DiskStore> {
    let opts = OpenOptions {
        writable: true,
        policy: RecoveryPolicy::Strict,
        cache: None,
        fs,
    };
    Climber::open_dir(dir, &opts).unwrap().0
}

/// `n` series of another seed than the built ones.
fn fresh(n: usize, seed: u64) -> Vec<Vec<f32>> {
    let ds = Domain::RandomWalk.generate(n, seed);
    (0..n as u64).map(|i| ds.get(i).to_vec()).collect()
}

/// Every record the index holds — each partition opened whole, plus the
/// delta — by id, failing on a duplicate.
fn census(index: &Climber<DiskStore>) -> BTreeMap<u64, Vec<f32>> {
    let mut all = BTreeMap::new();
    let mut hold = |id: u64, values: &[f32]| {
        assert!(all.insert(id, values.to_vec()).is_none(), "{id} held twice");
    };
    for pid in index.store().ids() {
        index.store().open(pid).unwrap().for_each(&mut hold);
    }
    let pending = index.delta().partitions();
    let view = index.delta().read();
    for pid in pending {
        for node in view.nodes_for(pid) {
            view.run(pid, node).unwrap().for_each(&mut hold);
        }
    }
    drop(view);
    all
}

fn assert_holds(index: &Climber<DiskStore>, acked: &[(u64, Vec<f32>)]) {
    let all = census(index);
    let lost: Vec<u64> = (acked.iter())
        .filter(|(id, values)| all.get(id) != Some(values))
        .map(|&(id, _)| id)
        .collect();
    assert!(lost.is_empty(), "{} appends lost: {lost:?}", lost.len());
    assert_eq!(all.len() as u64, N + acked.len() as u64);
}

fn names(dir: &Path, keep: impl Fn(&str) -> bool) -> Vec<String> {
    (std::fs::read_dir(dir).unwrap().flatten())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| keep(name))
        .collect()
}

/// Every pack in `dir` is one its manifest names.
fn assert_no_unnamed_pack(dir: &Path) {
    let manifest = Manifest::load_with(&StdFs, dir).unwrap();
    let named: BTreeSet<(u64, u32)> = (manifest.partitions.iter())
        .flat_map(|e| e.extensions.iter())
        .filter_map(|x| Some((x.file, x.pack?.k)))
        .collect();
    let on_disk = names(dir, |name| parse_pack_file_name(name).is_some());
    for name in on_disk {
        let pack = parse_pack_file_name(&name).unwrap();
        assert!(named.contains(&pack), "{name} is named by no manifest");
    }
}

/// What a failed flush left: the partitions still pending, and how the
/// retry folded them (extended, rewritten).
struct Failed {
    pending: Vec<u32>,
    hot: u32,
    retried: (usize, usize),
}

/// Appends fresh series and `HOT` copies of a built one, fails the first
/// `op` on a file `fails` accepts during the flush, checks that the
/// partitions of that file — and only those — published nothing and
/// left no file, and that a retry and a reopen converge.
fn fail_a_flush(tag: &str, op: FsOp, fails: fn(&str) -> bool) -> Failed {
    let dir = std::env::temp_dir().join(format!("climber-foldfaults-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let built = Domain::RandomWalk.generate(N as usize, 3);
    Climber::build_on_disk(&built, &dir, cfg()).unwrap();
    let fs = Arc::new(FailOnce {
        op,
        fails,
        armed: AtomicBool::new(false),
    });
    let index = open_rw(&dir, fs.clone());
    let mut appended = fresh(200, 21);
    appended.extend((0..HOT).map(|_| built.get(5).to_vec()));
    let ids = index.append_batch(&appended).unwrap();
    let acked: Vec<(u64, Vec<f32>)> = ids.into_iter().zip(appended.iter().cloned()).collect();
    let dirty = index.delta().partitions();
    assert!(dirty.len() >= 3, "the appends dirtied {dirty:?}");
    let view = index.delta().read();
    let pending_of = |pid: u32| view.runs(pid).map(|(_, run)| run.len()).sum::<usize>();
    let hot = dirty
        .iter()
        .copied()
        .max_by_key(|&pid| pending_of(pid))
        .unwrap();
    drop(view);
    let mut reqs: Vec<SearchRequest> = (appended.iter().take(24))
        .map(|q| SearchRequest::new(&q[..], 5))
        .collect();
    reqs.extend(
        fresh(4, 3)
            .iter()
            .map(|q| SearchRequest::new(&q[..], 10).adaptive(2)),
    );
    reqs.push(SearchRequest::new(built.get(5), 80));
    let want: Vec<QueryOutcome> = reqs.iter().map(|r| index.search(r)).collect();

    fs.armed.store(true, Ordering::SeqCst);
    let err = index.flush().unwrap_err();
    assert!(!fs.armed.load(Ordering::SeqCst), "no file failed");
    assert!(matches!(err, ClimberError::Io(_)), "{err:?}");
    let message = err.to_string();
    assert!(message.contains(INJECTED_FAULT), "{message}");

    // The failed file's partitions published nothing and left no file;
    // every other dirty partition published.
    let pending = index.delta().partitions();
    assert!(!pending.is_empty());
    let committed = Manifest::load_with(&StdFs, &dir).unwrap();
    for &pid in &dirty {
        let published = index.store().entry(pid).as_ref() != committed.partition(pid);
        assert_eq!(published, !pending.contains(&pid), "partition {pid}");
    }
    assert_eq!(names(&dir, is_tmp_name), Vec::<String>::new());
    assert_eq!(
        names(&dir, fails),
        Vec::<String>::new(),
        "the failed file stayed"
    );
    let now: Vec<QueryOutcome> = reqs.iter().map(|r| index.search(r)).collect();
    assert_eq!(now, want, "the failed flush moved an answer");
    assert_holds(&index, &acked);

    // The retry folds what is left and re-seals the directory.
    let report = index.flush().unwrap();
    assert!(index.delta().is_empty());
    let now: Vec<QueryOutcome> = reqs.iter().map(|r| index.search(r)).collect();
    assert_eq!(now, want, "the retried flush moved an answer");
    assert_holds(&index, &acked);
    drop(index);
    assert_no_unnamed_pack(&dir);
    drop(open_rw(&dir, fs));
    assert_no_unnamed_pack(&dir);
    let reopened = Climber::open(&dir).unwrap();
    let now: Vec<QueryOutcome> = reqs.iter().map(|r| reopened.search(r)).collect();
    assert_eq!(now, want, "the reopened index answers otherwise");
    assert_holds(&reopened, &acked);
    std::fs::remove_dir_all(&dir).ok();
    Failed {
        pending,
        hot,
        retried: (report.partitions_extended, report.partitions_rewritten),
    }
}

fn is_pack(name: &str) -> bool {
    parse_pack_file_name(name).is_some()
}

fn is_base_stage(name: &str) -> bool {
    name.contains(".clbp.new.tmp.")
}

/// The pack's fsync fails: every partition it held stays pending, the
/// rewritten base image publishes, and the retry extends exactly those.
#[test]
fn a_failed_stage_fsync_publishes_the_others_and_a_retry_converges() {
    let failed = fail_a_flush("fsync", FsOp::FsyncFile, is_pack);
    assert!(!failed.pending.contains(&failed.hot), "the rewrite failed");
    assert_eq!(failed.retried, (failed.pending.len(), 0));
}

/// The pack's write fails: the same, from the stage.
#[test]
fn a_failed_pack_write_leaves_every_partition_in_it_pending() {
    let failed = fail_a_flush("write", FsOp::Write, is_pack);
    assert!(!failed.pending.contains(&failed.hot), "the rewrite failed");
    assert_eq!(failed.retried, (failed.pending.len(), 0));
}

/// A rewritten base image's fsync fails: that partition alone stays
/// pending, and the pack publishes.
#[test]
fn a_failed_rewrite_fsync_leaves_only_its_partition_pending() {
    let failed = fail_a_flush("rewrite", FsOp::FsyncFile, is_base_stage);
    assert_eq!(failed.pending, vec![failed.hot]);
    assert_eq!(failed.retried, (0, 1));
}

/// A flush whose extension images fill several packs, the second pack's
/// fsync failing: exactly the partitions in that pack stay pending, those
/// of the other packs publish, and a retry converges.
#[test]
fn a_failed_pack_leaves_the_other_packs_published() {
    let dir = std::env::temp_dir().join(format!("climber-foldfaults-packs-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let built = Domain::RandomWalk.generate(N as usize, 3);
    Climber::build_on_disk(&built, &dir, cfg().with_capacity(300)).unwrap();
    let fs = Arc::new(FailOnce {
        op: FsOp::FsyncFile,
        fails: |name| parse_pack_file_name(name).is_some_and(|(_, k)| k == 1),
        armed: AtomicBool::new(false),
    });
    let index = open_rw(&dir, fs.clone());
    let batch = fresh(16, 77);
    let mut acked: Vec<(u64, Vec<f32>)> = Vec::new();
    let ids = index.append_batch(&batch).unwrap();
    acked.extend(ids.into_iter().zip(batch.iter().cloned()));
    let first = index.flush().unwrap();
    assert_eq!(first.partitions_rewritten, 0);
    // About 5 MiB of copies, all in partitions the first flush extended.
    let copies: Vec<Vec<f32>> = (0..320).flat_map(|_| batch.iter().cloned()).collect();
    let ids = index.append_batch(&copies).unwrap();
    acked.extend(ids.into_iter().zip(copies));
    let dirty = index.delta().partitions();
    let reqs: Vec<SearchRequest> = (batch.iter())
        .map(|q| SearchRequest::new(&q[..], 50))
        .collect();
    let want: Vec<QueryOutcome> = reqs.iter().map(|r| index.search(r)).collect();

    fs.armed.store(true, Ordering::SeqCst);
    let err = index.flush().unwrap_err();
    assert!(!fs.armed.load(Ordering::SeqCst), "no second pack");
    assert!(err.to_string().contains(INJECTED_FAULT), "{err}");
    let pending = index.delta().partitions();
    assert!(
        !pending.is_empty() && pending.len() < dirty.len(),
        "{pending:?} of {dirty:?}"
    );
    // The packs are cut in ascending partition id: the failed second
    // pack held a run of them, with published ones on both sides of it.
    let committed = Manifest::load_with(&StdFs, &dir).unwrap();
    let published: Vec<u32> = (dirty.iter().copied())
        .filter(|&pid| index.store().entry(pid).as_ref() != committed.partition(pid))
        .collect();
    assert_eq!(published.len() + pending.len(), dirty.len());
    let (lo, hi) = (pending[0], pending[pending.len() - 1]);
    assert!(
        published.iter().all(|&p| p < lo || p > hi),
        "{published:?} {pending:?}"
    );
    assert!(
        published.iter().any(|&p| p < lo),
        "{published:?} {pending:?}"
    );
    assert_eq!(
        names(&dir, |n| parse_pack_file_name(n)
            .is_some_and(|(_, k)| k == 1)),
        Vec::<String>::new()
    );
    let now: Vec<QueryOutcome> = reqs.iter().map(|r| index.search(r)).collect();
    assert_eq!(now, want, "the failed flush moved an answer");
    let report = index.flush().unwrap();
    assert_eq!(report.partitions_extended, pending.len());
    assert!(index.delta().is_empty());
    let now: Vec<QueryOutcome> = reqs.iter().map(|r| index.search(r)).collect();
    assert_eq!(now, want, "the retried flush moved an answer");
    assert_holds(&index, &acked);
    drop(index);
    drop(open_rw(&dir, fs));
    assert_no_unnamed_pack(&dir);
    let reopened = Climber::open(&dir).unwrap();
    let now: Vec<QueryOutcome> = reqs.iter().map(|r| reopened.search(r)).collect();
    assert_eq!(now, want, "the reopened index answers otherwise");
    std::fs::remove_dir_all(&dir).ok();
}
