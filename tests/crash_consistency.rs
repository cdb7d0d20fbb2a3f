//! The crash-consistency torture harness.
//!
//! Every durable protocol the index runs — save-with-journal, a fresh
//! flush, a flush that folds a committed journal, and a compact — is
//! first executed fault-free through a counting
//! [`FaultFs`](climber_core::dfs::fsio::FaultFs) to learn its exact
//! filesystem-operation count, then re-executed once per operation index
//! with the disk **frozen** at that op (a power cut mid-protocol), and
//! once more per *write* op with a torn prefix landing before the freeze
//! (a torn page cut by the power cut).
//!
//! The invariant under every single fault point:
//!
//! 1. the mutating call returns a typed error — it never panics;
//! 2. reopening the directory with the real filesystem succeeds;
//! 3. the recovered index is **bit-identical** — same manifest
//!    generation, same answers to a probe set chosen to tell the two
//!    states apart — to either the pre-crash committed state A or the
//!    post-crash committed state B; never a third state;
//! 4. if recovery lands on state A, the mutating call must have reported
//!    failure (a success whose effects vanish would be a lost write);
//! 5. recovery leaves no stage droppings (`*.tmp.*`, `*.new`) behind.
//!
//! The manifest write is the commit point: every fault strictly before it
//! recovers to A, every fault at or after it rolls forward to B.

use climber_core::dfs::fsio::{FaultAction, FaultFs, FaultTrigger, FsOp, FsRef};
use climber_core::dfs::store::DiskStore;
use climber_core::series::gen::Domain;
use climber_core::{Climber, ClimberConfig, ClimberError, QueryOutcome, SearchRequest};
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};

fn cfg() -> ClimberConfig {
    ClimberConfig::default()
        .with_paa_segments(8)
        .with_pivots(32)
        .with_prefix_len(5)
        .with_capacity(60)
        .with_alpha(0.5)
        .with_epsilon(1)
        .with_seed(99)
        .with_workers(2)
}

fn tmp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("climber-crash-{tag}-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn copy_dir(src: &Path, dst: &Path) {
    fs::remove_dir_all(dst).ok();
    fs::create_dir_all(dst).unwrap();
    for entry in fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let from = entry.path();
        let to = dst.join(entry.file_name());
        if from.is_dir() {
            copy_dir(&from, &to);
        } else {
            fs::copy(&from, &to).unwrap();
        }
    }
}

/// A committed state's fingerprint: manifest generation plus the exact
/// answers to the scenario's probe set. Two states an op separates must
/// differ in at least one component (appended series answer exactly in
/// B, deleted series answer exactly in A, folds bump the generation).
type Fingerprint = (u64, Vec<QueryOutcome>);

/// Builds a committed baseline directory for a scenario.
type SetupFn = dyn Fn(&Path);

/// The durable protocol a scenario tortures on top of the baseline.
type CrashOp = dyn Fn(&Climber<DiskStore>) -> Result<(), ClimberError>;

/// Recovers `dir` with the real filesystem (the crashed "process" is
/// gone, its frozen disk is what survived) and fingerprints the
/// committed state. The writable open rolls staged commits forward and
/// sweeps interrupted temp files — recovery IS this open.
fn recovered_state(dir: &Path, probes: &[Vec<f32>]) -> Fingerprint {
    let c = Climber::open_rw(dir).unwrap_or_else(|e| {
        panic!("recovery open of {} failed: {e}", dir.display());
    });
    let answers = probes
        .iter()
        .map(|q| c.search(&SearchRequest::new(q.clone(), 5)))
        .collect();
    (c.generation(), answers)
}

/// Asserts the recovery open swept every stage dropping.
fn assert_no_droppings(dir: &Path) {
    for entry in fs::read_dir(dir).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        assert!(
            !name.contains(".tmp."),
            "temp dropping survived recovery: {name}"
        );
        assert!(
            !name.ends_with(".new"),
            "stray stage survived recovery: {name}"
        );
    }
}

/// One torture scenario: a committed baseline directory, the durable
/// protocol to torture on top of it, and probes that tell the pre-op
/// state A from the post-op state B.
struct Torture<'a> {
    root: PathBuf,
    probes: Vec<Vec<f32>>,
    op: &'a CrashOp,
    state_a: Fingerprint,
    state_b: Fingerprint,
    /// Fault-free op count of the protocol (crash sweep domain).
    op_count: u64,
    /// Indices of `FsOp::Write` ops (torn-write sweep domain).
    write_ops: Vec<u64>,
}

impl<'a> Torture<'a> {
    /// Builds the baseline via `setup`, learns the protocol's op count
    /// and both committed states from one fault-free run.
    fn prepare(tag: &str, setup: &SetupFn, op: &'a CrashOp, probes: Vec<Vec<f32>>) -> Self {
        let root = tmp_root(tag);
        let golden = root.join("A");
        setup(&golden);
        let state_a = recovered_state(&golden, &probes);

        let dry = root.join("dry");
        copy_dir(&golden, &dry);
        let ff = FaultFs::over_std();
        let fsref: FsRef = ff.clone();
        let c = Climber::open_rw_with_fs(&dry, fsref).unwrap();
        ff.arm();
        op(&c).expect("fault-free run of the protocol under test");
        ff.disarm();
        drop(c);
        let op_count = ff.op_count();
        assert!(op_count > 0, "protocol performed no filesystem operations");
        let write_ops: Vec<u64> = ff
            .trace()
            .iter()
            .enumerate()
            .filter(|(_, (kind, _))| *kind == FsOp::Write)
            .map(|(i, _)| i as u64)
            .collect();
        let state_b = recovered_state(&dry, &probes);
        assert_ne!(
            state_a, state_b,
            "the probe set must tell the committed states apart"
        );
        Self {
            root,
            probes,
            op,
            state_a,
            state_b,
            op_count,
            write_ops,
        }
    }

    /// One torture iteration: crash (optionally torn) at `crash_op`,
    /// recover, assert the two-state invariant.
    fn crash_once(&self, crash_op: u64, torn_keep: Option<usize>) {
        let work = self.root.join("work");
        copy_dir(&self.root.join("A"), &work);
        let ff = FaultFs::over_std();
        let fsref: FsRef = ff.clone();
        let c = Climber::open_rw_with_fs(&work, fsref).expect("pre-crash open is fault-free");
        match torn_keep {
            Some(keep) => ff.torn_crash_at(crash_op, keep),
            None => ff.crash_at(crash_op),
        }
        ff.arm();
        let result = (self.op)(&c);
        ff.disarm();
        drop(c);

        let got = recovered_state(&work, &self.probes);
        let label = format!("crash at op {crash_op} (torn: {torn_keep:?})");
        if got == self.state_a {
            assert!(
                result.is_err(),
                "{label}: op claimed success but its effects vanished (state A)"
            );
        } else if got != self.state_b {
            panic!(
                "{label}: third state — generation {} is neither A (gen {}) nor B (gen {}), \
                 or the probe answers diverged from both",
                got.0, self.state_a.0, self.state_b.0
            );
        }
        assert_no_droppings(&work);
    }

    /// Sweeps a pure crash across every op, then a torn crash across
    /// every write op (prefixes of 1 byte and of most-of-the-file).
    fn sweep(&self) {
        for i in 0..self.op_count {
            self.crash_once(i, None);
        }
        for &w in &self.write_ops {
            for keep in [1, 4096] {
                self.crash_once(w, Some(keep));
            }
        }
    }

    fn cleanup(self) {
        fs::remove_dir_all(&self.root).ok();
    }
}

/// Baseline: a freshly built, committed on-disk index.
fn setup_plain(dir: &Path) {
    let ds = Domain::RandomWalk.generate(200, 21);
    Climber::build_on_disk(&ds, dir, cfg()).unwrap();
}

/// Baseline with a committed journal: built, then appends saved without
/// a flush, so `journal.cldj` is referenced by the manifest.
fn setup_journaled(dir: &Path) {
    setup_plain(dir);
    let c = Climber::open_rw(dir).unwrap();
    let extra = Domain::RandomWalk.generate(6, 77);
    for i in 0..6 {
        c.append(extra.get(i)).unwrap();
    }
    c.save(dir).unwrap();
}

/// Probes no scenario is sensitive to (background coverage) — the
/// scenario-specific ones that actually discriminate A from B follow.
fn generic_probes() -> Vec<Vec<f32>> {
    let ds = Domain::RandomWalk.generate(4, 555);
    (0..4).map(|i| ds.get(i).to_vec()).collect()
}

/// The six series the mutating ops append (seed 33): exact-match hits
/// in state B, absent in state A.
fn appended_probes() -> Vec<Vec<f32>> {
    let ds = Domain::RandomWalk.generate(6, 33);
    (0..6).map(|i| ds.get(i).to_vec()).collect()
}

/// The base-dataset series `op_delete_compact` deletes: exact-match
/// hits in state A, gone in state B.
fn deleted_probes() -> Vec<Vec<f32>> {
    let ds = Domain::RandomWalk.generate(200, 21);
    (5..15).map(|i| ds.get(i).to_vec()).collect()
}

fn op_append_save(c: &Climber<DiskStore>) -> Result<(), ClimberError> {
    let extra = Domain::RandomWalk.generate(6, 33);
    for i in 0..6 {
        c.append(extra.get(i))?;
    }
    let dir = c.store().dir().to_path_buf();
    c.save(dir)?;
    Ok(())
}

fn op_append_flush(c: &Climber<DiskStore>) -> Result<(), ClimberError> {
    let extra = Domain::RandomWalk.generate(6, 33);
    for i in 0..6 {
        c.append(extra.get(i))?;
    }
    c.flush()?;
    Ok(())
}

fn op_flush(c: &Climber<DiskStore>) -> Result<(), ClimberError> {
    c.flush()?;
    Ok(())
}

fn op_delete_compact(c: &Climber<DiskStore>) -> Result<(), ClimberError> {
    for id in 5..15 {
        c.delete(id)?;
    }
    c.compact()?;
    Ok(())
}

fn probes_with(extra: Vec<Vec<f32>>) -> Vec<Vec<f32>> {
    let mut probes = generic_probes();
    probes.extend(extra);
    probes
}

#[test]
fn save_with_journal_survives_every_crash_point() {
    let t = Torture::prepare(
        "save",
        &setup_plain,
        &op_append_save,
        probes_with(appended_probes()),
    );
    t.sweep();
    t.cleanup();
}

#[test]
fn flush_survives_every_crash_point() {
    let t = Torture::prepare(
        "flush",
        &setup_plain,
        &op_append_flush,
        probes_with(appended_probes()),
    );
    t.sweep();
    t.cleanup();
}

#[test]
fn flush_that_folds_a_journal_survives_every_crash_point() {
    let t = Torture::prepare(
        "jflush",
        &setup_journaled,
        &op_flush,
        // The journaled records answer identically in A and B (folds are
        // bit-identical); the fold's generation bump discriminates.
        probes_with({
            let ds = Domain::RandomWalk.generate(6, 77);
            (0..6).map(|i| ds.get(i).to_vec()).collect()
        }),
    );
    t.sweep();
    t.cleanup();
}

#[test]
fn compact_survives_every_crash_point() {
    let t = Torture::prepare(
        "compact",
        &setup_plain,
        &op_delete_compact,
        probes_with(deleted_probes()),
    );
    t.sweep();
    t.cleanup();
}

/// Satellite regression: a flush whose partition write fails must
/// restore the drained delta records — an acknowledged append is never
/// dropped — and the next fault-free flush must land them.
#[test]
fn failed_flush_restores_drained_records_then_retries_clean() {
    let root = tmp_root("drain");
    let dir = root.join("idx");
    setup_plain(&dir);
    let ff = FaultFs::over_std();
    let fsref: FsRef = ff.clone();
    let c = Climber::open_rw_with_fs(&dir, fsref).unwrap();
    let extra = Domain::RandomWalk.generate(4, 91);
    let mut ids = Vec::new();
    for i in 0..4 {
        ids.push(c.append(extra.get(i)).unwrap());
    }
    // Fail the fold's first partition write (transiently), leaving the
    // disk usable afterwards.
    ff.inject(FaultTrigger::Kind(FsOp::Write, 0), FaultAction::ErrorOnce);
    ff.arm();
    let err = c.flush().unwrap_err();
    assert!(
        err.to_string()
            .contains(climber_core::dfs::fsio::INJECTED_FAULT),
        "{err}"
    );
    // The appended records are still answerable right now (restored to
    // the delta), and a retry folds them for real.
    for (i, id) in ids.iter().enumerate() {
        let hit = c.search(&SearchRequest::new(extra.get(i as u64).to_vec(), 1));
        assert_eq!(hit.results[0].0, *id, "append {id} lost after failed flush");
    }
    c.flush().expect("retry flush after a transient fault");
    ff.disarm();
    drop(c);
    // Cold truth: the reopened directory serves every acknowledged append.
    let cold = Climber::open(&dir).unwrap();
    for (i, id) in ids.iter().enumerate() {
        let hit = cold.search(&SearchRequest::new(extra.get(i as u64).to_vec(), 1));
        assert_eq!(hit.results[0].0, *id, "append {id} lost after recovery");
    }
    fs::remove_dir_all(&root).ok();
}

/// A fold whose seal fails *after* its partitions were staged leaves the
/// folded records living only in those stages (the delta was drained, the
/// store serves the `.new` siblings). A later fold that re-stages one of
/// them and fails mid-write must leave the earlier stage intact: no
/// acknowledged append is lost, every partition stays readable, and the
/// next fault-free flush converges.
#[test]
fn failed_restage_after_failed_seal_loses_nothing() {
    use climber_core::dfs::store::PartitionStore;
    use std::collections::BTreeMap;

    let root = tmp_root("restage");
    let dir = root.join("idx");
    setup_plain(&dir);
    let extra = Domain::RandomWalk.generate(80, 91);
    let append = |c: &Climber<DiskStore>, range: std::ops::Range<u64>| -> Vec<(u64, Vec<f32>)> {
        range
            .map(|i| (c.append(extra.get(i)).unwrap(), extra.get(i).to_vec()))
            .collect()
    };
    // Every record the index holds — sealed partitions (each must open)
    // plus the delta — by exhaustive scan, not by (approximate) search.
    let census = |c: &Climber<DiskStore>, when: &str| -> BTreeMap<u64, Vec<f32>> {
        let mut all = BTreeMap::new();
        for pid in c.store().ids() {
            let reader = c
                .store()
                .open(pid)
                .unwrap_or_else(|e| panic!("partition {pid} unreadable {when}: {e}"));
            reader.for_each(|id, values| {
                assert!(all.insert(id, values.to_vec()).is_none(), "duplicate {id}");
            });
        }
        c.delta().for_each(|_, _, id, values| {
            assert!(all.insert(id, values.to_vec()).is_none(), "duplicate {id}");
        });
        all
    };
    let assert_all_held = |c: &Climber<DiskStore>, acked: &[(u64, Vec<f32>)], when: &str| {
        let all = census(c, when);
        assert_eq!(all.len(), 200 + acked.len(), "record count {when}");
        for (id, values) in acked {
            assert_eq!(all.get(id), Some(values), "append {id} lost {when}");
        }
    };

    // Fault-free dry run of the first fold on a copy: which op renames the
    // manifest's temp file into place (the commit point)?
    let dry = root.join("dry");
    copy_dir(&dir, &dry);
    let ff = FaultFs::over_std();
    let c = Climber::open_rw_with_fs(&dry, ff.clone() as FsRef).unwrap();
    append(&c, 0..40);
    ff.arm();
    c.flush().unwrap();
    ff.disarm();
    drop(c);
    let commit = ff
        .trace()
        .iter()
        .position(|(op, path)| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            *op == FsOp::Rename && name.starts_with("MANIFEST")
        })
        .expect("the fold commits a manifest") as u64;

    // Fold 1: every partition stages, the manifest commit fails once.
    let ff = FaultFs::over_std();
    let c = Climber::open_rw_with_fs(&dir, ff.clone() as FsRef).unwrap();
    let mut acked = append(&c, 0..40);
    ff.inject(FaultTrigger::Op(commit), FaultAction::ErrorOnce);
    ff.arm();
    c.flush().expect_err("the manifest commit was failed");
    assert!(c.delta().is_empty(), "fold 1's records live in its stages");
    assert_all_held(&c, &acked, "after the failed seal");
    // Fold 2: more appends landing in already-staged partitions; its first
    // stage write is torn.
    acked.extend(append(&c, 40..80));
    ff.inject(
        FaultTrigger::Kind(FsOp::Write, ff.op_count_of(FsOp::Write)),
        FaultAction::Torn { keep: 10 },
    );
    c.flush().expect_err("the re-stage was torn");
    assert_all_held(&c, &acked, "after the torn re-stage");
    c.flush().expect("fault-free retry converges");
    assert!(c.delta().is_empty());
    assert_all_held(&c, &acked, "after the retry");
    ff.disarm();
    drop(c);
    let cold = Climber::open_rw(&dir).unwrap();
    assert_all_held(&cold, &acked, "after a cold reopen");
    assert_no_droppings(&dir);
    fs::remove_dir_all(&root).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random protocol × random crash position × random torn prefix:
    /// the same two-state invariant, driven from arbitrary coordinates
    /// instead of the exhaustive sweep (cases pinned; `PROPTEST_CASES`
    /// widens it in the faults CI lane).
    #[test]
    fn random_crash_coordinates_never_yield_a_third_state(
        scenario in 0usize..4,
        frac in 0.0f64..1.0,
        torn in any::<bool>(),
        keep in 1usize..256,
    ) {
        let (tag, setup, op, probes): (&str, &SetupFn, &CrashOp, Vec<Vec<f32>>) = match scenario {
            0 => ("p-save", &setup_plain, &op_append_save, probes_with(appended_probes())),
            1 => ("p-flush", &setup_plain, &op_append_flush, probes_with(appended_probes())),
            2 => ("p-jflush", &setup_journaled, &op_flush, generic_probes()),
            _ => ("p-compact", &setup_plain, &op_delete_compact, probes_with(deleted_probes())),
        };
        let t = Torture::prepare(tag, setup, op, probes);
        let crash_op = ((t.op_count as f64 - 1.0) * frac).round() as u64;
        t.crash_once(crash_op, torn.then_some(keep));
        t.cleanup();
    }
}
