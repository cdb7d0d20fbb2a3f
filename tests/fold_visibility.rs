//! A fold never hides or loses an acknowledged append.
//!
//! A flush or compaction rewrites partitions while queries and appends go
//! on. A delta record leaves the delta segment in the same critical
//! section that publishes the partition image holding it, so at every
//! instant it is in exactly one place a query reads. These tests check
//! that rule from the outside:
//!
//! * a gate filesystem parks the fold at each of its filesystem
//!   operations in turn; at each one a fixed query set runs on its own
//!   thread and must return the full outcomes the index gave before the
//!   fold (a quiescent fold changes no answer: `update_equivalence`);
//! * self-queries racing an unparked flush, with appends landing
//!   meanwhile, never miss a record they found before it;
//! * a second fold started while the first is parked loses nothing: a
//!   census of every partition plus the delta holds every acknowledged
//!   append.

use climber_core::dfs::fsio::{Bytes, ClimberFs, FsRef, StdFs};
use climber_core::dfs::store::{parse_extension_file_name, DiskStore, PartitionStore};
use climber_core::series::gen::Domain;
use climber_core::{
    Climber, ClimberConfig, OpenOptions, QueryOutcome, RecoveryPolicy, SearchRequest,
};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Records built into every index.
const N: u64 = 1_500;

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

/// Which operations the gate parks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Park {
    /// None: everything passes.
    Off,
    /// Every operation but a ranged read. Queries read through ranged
    /// reads only, and a fold never does, so this parks the fold alone.
    Fold,
    /// The first write of a partition image — a base image's stage or an
    /// extension image — once.
    FirstStage,
}

#[derive(Debug)]
struct GateState {
    park: Park,
    /// The operation parked now: its ticket and what it is.
    parked: Option<(u64, String)>,
    tickets: u64,
}

/// A [`StdFs`] that parks the operations [`Park`] names, one at a time,
/// until the test releases each.
#[derive(Debug)]
struct Gate {
    state: Mutex<GateState>,
    moved: Condvar,
}

impl Gate {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(GateState {
                park: Park::Off,
                parked: None,
                tickets: 0,
            }),
            moved: Condvar::new(),
        })
    }

    fn set(&self, park: Park) {
        self.state.lock().unwrap().park = park;
        self.moved.notify_all();
    }

    fn pass(&self, op: &str, path: &Path) {
        let parks = |park: Park| match park {
            Park::Off => false,
            Park::Fold => op != "read_ranges",
            Park::FirstStage => {
                let name = path.file_name().unwrap().to_string_lossy();
                op == "write"
                    && (name.contains(".clbp.new") || parse_extension_file_name(&name).is_some())
            }
        };
        let mut st = self.state.lock().unwrap();
        // One operation parks at a time; the others queue behind it.
        while parks(st.park) && st.parked.is_some() {
            st = self.moved.wait(st).unwrap();
        }
        if !parks(st.park) {
            return;
        }
        if st.park == Park::FirstStage {
            st.park = Park::Off;
        }
        st.tickets += 1;
        let ticket = st.tickets;
        st.parked = Some((ticket, format!("{op} {}", path.display())));
        self.moved.notify_all();
        while st.parked.as_ref().is_some_and(|(t, _)| *t == ticket) {
            st = self.moved.wait(st).unwrap();
        }
    }

    /// The operation parked now, waiting up to `timeout` for one.
    fn parked(&self, timeout: Duration) -> Option<String> {
        let st = self.state.lock().unwrap();
        let (st, _) = (self.moved)
            .wait_timeout_while(st, timeout, |st| st.parked.is_none())
            .unwrap();
        st.parked.as_ref().map(|(_, op)| op.clone())
    }

    fn release(&self) {
        self.state.lock().unwrap().parked = None;
        self.moved.notify_all();
    }
}

impl ClimberFs for Gate {
    fn read(&self, path: &Path) -> io::Result<Bytes> {
        self.pass("read", path);
        StdFs.read(path)
    }
    fn read_ranges(&self, path: &Path, ranges: &[(u64, usize)]) -> io::Result<Vec<Bytes>> {
        self.pass("read_ranges", path);
        StdFs.read_ranges(path, ranges)
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.pass("write", path);
        StdFs.write(path, bytes)
    }
    fn fsync_file(&self, path: &Path) -> io::Result<()> {
        self.pass("fsync_file", path);
        StdFs.fsync_file(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.pass("rename", from);
        StdFs.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.pass("remove_file", path);
        StdFs.remove_file(path)
    }
    fn fsync_dir(&self, path: &Path) -> io::Result<()> {
        self.pass("fsync_dir", path);
        StdFs.fsync_dir(path)
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.pass("create_dir_all", path);
        StdFs.create_dir_all(path)
    }
}

/// A [`StdFs`] whose file fsyncs take 10 ms, so a flush of a dozen
/// partitions lasts long enough for many self-queries to race it.
#[derive(Debug)]
struct Slow;

impl ClimberFs for Slow {
    fn read(&self, path: &Path) -> io::Result<Bytes> {
        StdFs.read(path)
    }
    fn read_ranges(&self, path: &Path, ranges: &[(u64, usize)]) -> io::Result<Vec<Bytes>> {
        StdFs.read_ranges(path, ranges)
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        StdFs.write(path, bytes)
    }
    fn fsync_file(&self, path: &Path) -> io::Result<()> {
        thread::sleep(Duration::from_millis(10));
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

/// A built index in a fresh directory, reopened writable over `fs`.
fn index_over(tag: &str, fs: FsRef) -> (PathBuf, Climber<DiskStore>) {
    let dir = std::env::temp_dir().join(format!("climber-foldvis-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    Climber::build_on_disk(&Domain::RandomWalk.generate(N as usize, 3), &dir, cfg()).unwrap();
    let opts = OpenOptions {
        writable: true,
        policy: RecoveryPolicy::Strict,
        cache: None,
        fs,
    };
    let (index, _) = Climber::open_dir(&dir, &opts).unwrap();
    (dir, index)
}

/// `n` fresh series (another seed than the built ones).
fn fresh(n: usize, seed: u64) -> Vec<Vec<f32>> {
    let ds = Domain::RandomWalk.generate(n, seed);
    (0..n as u64).map(|i| ds.get(i).to_vec()).collect()
}

/// The fixed query set: self-queries of pending records in every mode,
/// and of sealed records, some asking for enough neighbours to expand.
fn query_set(pending: &[Vec<f32>], sealed: &[Vec<f32>]) -> Vec<SearchRequest> {
    let mut reqs = Vec::new();
    for (i, q) in pending.iter().enumerate() {
        reqs.push(match i % 4 {
            0 => SearchRequest::new(&q[..], 5),
            1 => SearchRequest::new(&q[..], 3).smallest(),
            2 => SearchRequest::new(&q[..], 40).adaptive(1),
            _ => SearchRequest::new(&q[..], 5).with_budget(1),
        });
    }
    for q in sealed {
        reqs.push(SearchRequest::new(&q[..], 10).adaptive(2));
    }
    reqs.push(SearchRequest::new(&pending[0][..], 10).exact());
    reqs
}

/// Runs `fold` on its own thread with the gate parking each of its
/// operations in turn. At each one, unless the previous query set is
/// still running, `reqs` run on a thread of their own; the fold is
/// released when they return, or after 200 ms (they may wait behind a
/// publish section). Returns the operations parked and every query
/// outcome that differed from `want`, named by operation and request.
fn fold_under_probe(
    index: &Climber<DiskStore>,
    gate: &Gate,
    reqs: &[SearchRequest],
    want: &[QueryOutcome],
    fold: impl FnOnce() + Send,
) -> (usize, Vec<String>) {
    let mut ops = 0;
    let mut wrong = Vec::new();
    let mut check = |at: &str, got: Vec<QueryOutcome>| {
        for (i, (got, want)) in got.iter().zip(want).enumerate() {
            if got != want {
                wrong.push(format!("at `{at}`, request {i}: {got:?} != {want:?}"));
            }
        }
    };
    thread::scope(|s| {
        gate.set(Park::Fold);
        let folding = s.spawn(fold);
        let mut running = None;
        loop {
            let Some(op) = gate.parked(Duration::from_millis(20)) else {
                if folding.is_finished() {
                    break;
                }
                continue;
            };
            ops += 1;
            let (_, probe) = running.get_or_insert_with(|| {
                let probe = s.spawn(|| reqs.iter().map(|r| index.search(r)).collect());
                (op, probe)
            });
            let deadline = Instant::now() + Duration::from_millis(200);
            while !probe.is_finished() && Instant::now() < deadline {
                thread::sleep(Duration::from_millis(1));
            }
            if probe.is_finished() {
                let (at, probe) = running.take().expect("a probe is running");
                check(&at, probe.join().unwrap());
            }
            gate.release();
        }
        gate.set(Park::Off);
        folding.join().unwrap();
        if let Some((at, probe)) = running {
            check(&at, probe.join().unwrap());
        }
    });
    (ops, wrong)
}

#[test]
fn queries_at_every_op_of_a_flush_answer_as_before_it() {
    let gate = Gate::new();
    let (dir, index) = index_over("flush", gate.clone());
    let appended = fresh(120, 11);
    index.append_batch(&appended).unwrap();
    let sealed = fresh(4, 3);
    let reqs = query_set(&appended[..12], &sealed);
    let want: Vec<QueryOutcome> = reqs.iter().map(|r| index.search(r)).collect();
    assert_eq!(want[0].results[0], (N, 0.0), "the append finds itself");

    let (ops, wrong) = fold_under_probe(&index, &gate, &reqs, &want, || {
        let report = index.flush().unwrap();
        assert_eq!(report.records_folded, 120);
    });
    assert!(index.delta().is_empty());
    assert!(ops >= 20, "the gate saw {ops} operations of the flush");
    assert!(
        wrong.is_empty(),
        "{} answers moved: {wrong:#?}",
        wrong.len()
    );
    let after: Vec<QueryOutcome> = reqs.iter().map(|r| index.search(r)).collect();
    assert_eq!(after, want, "the flushed index answers as before");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn queries_at_every_op_of_a_compact_answer_as_before_it() {
    let gate = Gate::new();
    let (dir, index) = index_over("compact", gate.clone());
    let appended = fresh(80, 12);
    let ids = index.append_batch(&appended).unwrap();
    // Deletes of sealed and pending records give the purge work, in
    // partitions with and without pending records.
    for id in (0..N)
        .step_by(97)
        .chain(ids.iter().copied().skip(1).step_by(9))
    {
        assert!(index.delete(id).unwrap());
    }
    let sealed = fresh(4, 3);
    let reqs = query_set(&appended[..12], &sealed);
    let want: Vec<QueryOutcome> = reqs.iter().map(|r| index.search(r)).collect();

    let (ops, wrong) = fold_under_probe(&index, &gate, &reqs, &want, || {
        let report = index.compact().unwrap();
        assert!(report.records_purged > 0);
        assert_eq!(report.tombstones_remaining, 0);
    });
    assert!(index.delta().is_empty());
    assert!(ops >= 20, "the gate saw {ops} operations of the compaction");
    assert!(
        wrong.is_empty(),
        "{} answers moved: {wrong:#?}",
        wrong.len()
    );
    let after: Vec<QueryOutcome> = reqs.iter().map(|r| index.search(r)).collect();
    assert_eq!(after, want, "the compacted index answers as before");
    std::fs::remove_dir_all(&dir).ok();
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
    assert!(
        lost.is_empty(),
        "{} of {} appends lost: {lost:?}",
        lost.len(),
        acked.len()
    );
    assert_eq!(all.len() as u64, N + acked.len() as u64);
}

/// The first probe at a larger scale: 300 pending records, self-queries
/// looping while a flush runs and more appends land. A record a
/// self-query found before the flush is found by every probe during it.
#[test]
fn self_queries_racing_a_flush_never_miss() {
    let (dir, index) = index_over("race", Arc::new(Slow));
    let index = &index;
    let appended = fresh(300, 13);
    let ids = index.append_batch(&appended).unwrap();
    let probe = |i: usize| SearchRequest::new(&appended[i][..], 1);
    let found: Vec<usize> = (0..appended.len())
        .filter(|&i| index.search(&probe(i)).results[0].0 == ids[i])
        .collect();
    assert!(
        found.len() > 250,
        "only {} appends find themselves",
        found.len()
    );

    let late = fresh(60, 14);
    let (missed, probes, late_ids) = thread::scope(|s| {
        let (done, flushed) = mpsc::channel();
        s.spawn(move || {
            index.flush().unwrap();
            done.send(()).unwrap();
        });
        // Appends keep landing while the flush runs: they extend the runs
        // the flush snapshotted and must stay behind for the next fold.
        let late = &late;
        let appender = s.spawn(move || {
            let mut acked = Vec::new();
            for batch in late.chunks(6) {
                acked.extend(index.append_batch(batch).unwrap());
            }
            acked
        });
        let (mut missed, mut probes) = (Vec::new(), 0);
        loop {
            let finished = flushed.try_recv().is_ok();
            for &i in &found {
                probes += 1;
                if index.search(&probe(i)).results[0].0 != ids[i] {
                    missed.push(ids[i]);
                }
            }
            if finished {
                break;
            }
        }
        (missed, probes, appender.join().unwrap())
    });
    assert!(
        missed.is_empty(),
        "{} of {probes} probes missed: {missed:?}",
        missed.len()
    );
    let acked: Vec<(u64, Vec<f32>)> = (ids.into_iter().zip(appended))
        .chain(late_ids.into_iter().zip(late))
        .collect();
    assert_holds(index, &acked);
    index.flush().unwrap();
    assert!(index.delta().is_empty());
    assert_holds(index, &acked);
    std::fs::remove_dir_all(&dir).ok();
}

/// Fold A parks at its first partition stage; more appends land, and fold
/// B runs on another thread. A is released when B returns, or after one
/// second. Folds of one index run one at a time, so B waits for A and
/// then folds what A left: every acknowledged append survives both.
#[test]
fn a_second_fold_during_a_parked_one_loses_no_append() {
    let gate = Gate::new();
    let (dir, index) = index_over("twofolds", gate.clone());
    let index = &index;
    let first = fresh(200, 15);
    let mut acked: Vec<(u64, Vec<f32>)> = Vec::new();
    let ids = index.append_batch(&first).unwrap();
    acked.extend(ids.into_iter().zip(first));
    let second = fresh(200, 16);
    thread::scope(|s| {
        gate.set(Park::FirstStage);
        let fold_a = s.spawn(move || index.flush().unwrap());
        assert!(
            gate.parked(Duration::from_secs(30)).is_some(),
            "fold A never staged"
        );
        let ids = index.append_batch(&second).unwrap();
        acked.extend(ids.into_iter().zip(second));
        let (done, b_returned) = mpsc::channel();
        let fold_b = s.spawn(move || {
            let report = index.flush().unwrap();
            done.send(()).unwrap();
            report
        });
        b_returned.recv_timeout(Duration::from_secs(1)).ok();
        gate.release();
        fold_a.join().unwrap();
        fold_b.join().unwrap();
    });
    assert_holds(index, &acked);
    assert!(index.delta().is_empty(), "B folded what A left");
    std::fs::remove_dir_all(&dir).ok();
}
