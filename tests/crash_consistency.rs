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
//!
//! Recovery is the *writable* open; a read-only open of the same crash
//! states serves the same committed state with reads only (`read_only_*`),
//! and no `OpenOptions` combination changes an answer (the open matrix).

use climber_core::dfs::fsio::{FaultAction, FaultFs, FaultTrigger, FsOp, FsRef};
use climber_core::dfs::store::{DiskStore, PartitionStore};
use climber_core::series::gen::Domain;
use climber_core::{
    BlockCache, CacheConfig, Climber, ClimberConfig, ClimberError, OpenError, OpenOptions,
    QueryOutcome, RecoveryPolicy, RecoveryReport, SearchBackend, SearchRequest, ShardedClimber,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

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

/// A read-write open with every filesystem operation going through `fs`.
fn open_rw_over(dir: &Path, fs: FsRef) -> Result<Climber<DiskStore>, ClimberError> {
    let opts = OpenOptions {
        writable: true,
        fs,
        ..OpenOptions::default()
    };
    Ok(Climber::open_dir(dir, &opts)?.0)
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
    fingerprint(&c, probes)
}

fn fingerprint(c: &Climber<DiskStore>, probes: &[Vec<f32>]) -> Fingerprint {
    let answers = probes
        .iter()
        .map(|q| c.search(&SearchRequest::new(q.clone(), 5)))
        .collect();
    (c.generation(), answers)
}

/// Every file under `dir` (recursively), by path, with its bytes.
fn dir_image(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            out.extend(dir_image(&path));
        } else {
            out.insert(path.clone(), fs::read(&path).unwrap());
        }
    }
    out
}

/// Runs `state_of` — open `dir`, query it, drop it — with read-only
/// options over a tracing `FaultFs`, and asserts the rule of a
/// `writable: false` open: every filesystem operation from open to drop
/// is a read, and the directory keeps its listing and its bytes.
fn read_only_state<T>(
    dir: &Path,
    policy: RecoveryPolicy,
    state_of: impl FnOnce(&OpenOptions) -> T,
) -> T {
    let before = dir_image(dir);
    let ff = FaultFs::over_std();
    ff.arm();
    let state = state_of(&OpenOptions {
        policy,
        fs: ff.clone(),
        ..OpenOptions::default()
    });
    let mutating: Vec<_> = ff
        .trace()
        .into_iter()
        .filter(|(op, _)| *op != FsOp::Read)
        .collect();
    assert!(mutating.is_empty(), "read-only open mutated: {mutating:?}");
    assert!(
        dir_image(dir) == before,
        "read-only open changed {}",
        dir.display()
    );
    state
}

/// [`read_only_state`] of a single index: its fingerprint.
fn read_only_fingerprint(dir: &Path, policy: RecoveryPolicy, probes: &[Vec<f32>]) -> Fingerprint {
    read_only_state(dir, policy, |opts| {
        let (c, report) = Climber::open_dir(dir, opts).unwrap_or_else(|e| {
            panic!("read-only open of {} failed: {e}", dir.display());
        });
        assert!(!c.is_writable() && report.is_clean());
        fingerprint(&c, probes)
    })
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
        let c = open_rw_over(&dry, fsref).unwrap();
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

    /// A fresh copy of the baseline with the protocol crashed (optionally
    /// torn) at `crash_op`: the directory a dead process left behind, and
    /// what the protocol reported.
    fn crashed_dir(
        &self,
        crash_op: u64,
        torn_keep: Option<usize>,
    ) -> (PathBuf, Result<(), ClimberError>) {
        let work = self.root.join("work");
        copy_dir(&self.root.join("A"), &work);
        let ff = FaultFs::over_std();
        let fsref: FsRef = ff.clone();
        let c = open_rw_over(&work, fsref).expect("pre-crash open is fault-free");
        match torn_keep {
            Some(keep) => ff.torn_crash_at(crash_op, keep),
            None => ff.crash_at(crash_op),
        }
        ff.arm();
        let result = (self.op)(&c);
        ff.disarm();
        drop(c);
        (work, result)
    }

    /// Every crash state of the sweep — pre-commit ones littered with
    /// stages, post-commit ones with committed bytes still under `.new` —
    /// opened read-only *before* anything recovers it: the open mutates
    /// nothing and serves exactly the state the writable recovery of the
    /// same directory then lands on.
    fn read_only_sweep(&self) {
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..self.op_count {
            let (work, _) = self.crashed_dir(i, None);
            let read_only = read_only_fingerprint(&work, RecoveryPolicy::Strict, &self.probes);
            let recovered = recovered_state(&work, &self.probes);
            assert!(
                read_only == recovered,
                "crash at op {i}: read-only open served another state"
            );
            seen.insert(recovered == self.state_b);
        }
        assert_eq!(seen.len(), 2, "the sweep must cross the commit point");
    }

    /// One torture iteration: crash (optionally torn) at `crash_op`,
    /// recover, assert the two-state invariant.
    fn crash_once(&self, crash_op: u64, torn_keep: Option<usize>) {
        let (work, result) = self.crashed_dir(crash_op, torn_keep);
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

/// Baseline with extension images: built, then four flushes each of one
/// more copy of the first series `op_append_flush` appends, so that
/// series' partition holds four extensions and the op's flush merges them.
fn setup_extended(dir: &Path) {
    setup_plain(dir);
    let c = Climber::open_rw(dir).unwrap();
    let first = appended_probes().remove(0);
    for _ in 0..4 {
        c.append(&first).unwrap();
        let report = c.flush().unwrap();
        assert_eq!(report.partitions_extended, 1);
        assert_eq!(report.partitions_rewritten, 0);
    }
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

/// A flush that merges a partition's extension images: crashed at every
/// operation, it recovers to the old or the new committed state — and the
/// fault-free run really merged (one extension, of the new generation).
#[test]
fn merging_flush_survives_every_crash_point() {
    let t = Torture::prepare(
        "merge",
        &setup_extended,
        &op_append_flush,
        probes_with(appended_probes()),
    );
    let merged =
        climber_core::Manifest::load_with(&climber_core::dfs::fsio::StdFs, &t.root.join("dry"))
            .unwrap();
    let generation = merged.generation;
    let extended: Vec<_> = (merged.partitions.iter())
        .filter(|e| !e.extensions.is_empty())
        .collect();
    assert!(
        extended
            .iter()
            .any(|e| e.extensions.len() == 1 && e.extensions[0].file == generation),
        "the flush merged no partition's extensions: {extended:?}"
    );
    t.sweep();
    t.cleanup();
}

/// Packs no committed manifest names — a fold that crashed before its
/// commit, or packs whose images a merge replaced — are litter, and so are
/// the per-partition extension files of a version-3 directory no manifest
/// names: a read-only open, under either policy, leaves every one in place
/// and changes nothing; the writable open removes exactly those and keeps
/// every named pack.
#[test]
fn orphan_extension_images_are_left_by_a_read_only_open_and_swept_by_a_writable_one() {
    use climber_core::dfs::store::{
        extension_file_name, pack_file_name, parse_pack_file_name, PartitionStore,
    };

    let root = tmp_root("orphans");
    let dir = root.join("idx");
    setup_extended(&dir);
    let probes = probes_with(appended_probes());
    let clean = recovered_state(&dir, &probes);
    let named = |dir: &Path| -> Vec<String> {
        let mut names: Vec<String> = (fs::read_dir(dir).unwrap().flatten())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| parse_pack_file_name(n).is_some())
            .collect();
        names.sort();
        names
    };
    let before = named(&dir);
    assert_eq!(before.len(), 4, "{before:?}");
    let c = Climber::open(&dir).unwrap();
    let (pids, generation) = (c.store().ids(), c.generation());
    drop(c);
    let litter = [
        pack_file_name(generation + 1, 0),
        pack_file_name(generation, 1),
        pack_file_name(77, 0),
        extension_file_name(pids[2], 5),
    ];
    fs::write(dir.join(&litter[0]), b"a crashed fold's pack").unwrap();
    fs::copy(dir.join(&before[0]), dir.join(&litter[1])).unwrap();
    fs::write(dir.join(&litter[2]), b"").unwrap();
    fs::write(dir.join(&litter[3]), b"a version-3 extension").unwrap();
    for policy in [RecoveryPolicy::Strict, RecoveryPolicy::Quarantine] {
        assert!(read_only_fingerprint(&dir, policy, &probes) == clean);
    }
    assert!(litter.iter().all(|name| dir.join(name).exists()));
    assert!(recovered_state(&dir, &probes) == clean);
    assert_eq!(
        named(&dir),
        before,
        "the writable open swept the wrong files"
    );
    assert!(!dir.join(&litter[3]).exists());
    fs::remove_dir_all(&root).ok();
}

/// A read-only open next to a live writer's litter — a pre-commit `.new`
/// stage of a partition, of the journal and of the skeleton, plus a temp
/// dropping — leaves every one of them in place, under either policy, and
/// serves what the writable open of the same directory serves (which then
/// sweeps them).
#[test]
fn read_only_open_of_a_littered_directory_mutates_nothing() {
    use climber_core::dfs::store::PartitionStore;

    let root = tmp_root("ro-litter");
    let dir = root.join("idx");
    setup_plain(&dir);
    let probes = generic_probes();
    let clean = recovered_state(&dir, &probes);
    let pid = Climber::open(&dir).unwrap().store().ids()[2];
    let part = climber_core::dfs::store::partition_file_name(pid);
    let litter = [
        format!("{part}.new"),
        format!("{part}.tmp.1.2"),
        format!("{}.new", climber_core::JOURNAL_FILE),
        format!("{}.new", climber_core::SKELETON_FILE),
    ];
    for name in &litter {
        fs::write(dir.join(name), b"a writer's half-made stage").unwrap();
    }
    for policy in [RecoveryPolicy::Strict, RecoveryPolicy::Quarantine] {
        assert!(read_only_fingerprint(&dir, policy, &probes) == clean);
    }
    assert!(litter.iter().all(|name| dir.join(name).exists()));
    assert!(recovered_state(&dir, &probes) == clean);
    assert_no_droppings(&dir);
    fs::remove_dir_all(&root).ok();
}

/// The flush sweep (partitions rewritten, staged, committed, installed)
/// and the save sweep (a journal staged and installed), every crash state
/// opened read-only first.
#[test]
fn read_only_open_of_every_crash_state_is_pure_and_serves_the_committed_state() {
    for (tag, op) in [
        ("ro-flush", &op_append_flush as &CrashOp),
        ("ro-save", &op_append_save),
    ] {
        let t = Torture::prepare(tag, &setup_plain, op, probes_with(appended_probes()));
        t.read_only_sweep();
        t.cleanup();
    }
}

/// The same rule for a shard set: a set-wide append + save crashed at
/// every operation (shard 0 mid-save leaves shard 1 untouched; shard 1
/// mid-save leaves shard 0 resealed), opened read-only through the
/// injected filesystem before the writable recovery.
#[test]
fn read_only_open_of_a_crashed_shard_set_is_pure() {
    type SetState = (Vec<u64>, Vec<QueryOutcome>);
    fn state_of(set: &ShardedClimber<DiskStore>, probes: &[Vec<f32>]) -> SetState {
        let answers = probes
            .iter()
            .map(|q| set.search(&SearchRequest::new(q.clone(), 5)))
            .collect();
        (set.generations(), answers)
    }
    let append_save = |set: &ShardedClimber<DiskStore>, dir: &Path| {
        let extra = Domain::RandomWalk.generate(6, 33);
        for i in 0..6 {
            set.append(extra.get(i))?;
        }
        set.save(dir).map(drop)
    };
    let open_rw_set_over = |dir: &Path, ff: &std::sync::Arc<FaultFs>| {
        let opts = OpenOptions {
            writable: true,
            fs: ff.clone(),
            ..OpenOptions::default()
        };
        ShardedClimber::open_dir(dir, &opts).unwrap().0
    };

    let root = tmp_root("ro-set");
    let golden = root.join("A");
    let ds = Domain::RandomWalk.generate(200, 21);
    drop(ShardedClimber::build_on_disk(&ds, &golden, cfg(), 2).unwrap());
    let probes = probes_with(appended_probes());

    // Fault-free run: the op count.
    let work = root.join("work");
    copy_dir(&golden, &work);
    let ff = FaultFs::over_std();
    let set = open_rw_set_over(&work, &ff);
    ff.arm();
    append_save(&set, &work).unwrap();
    ff.disarm();
    drop(set);

    let mut states: Vec<SetState> = Vec::new();
    for i in 0..ff.op_count() {
        copy_dir(&golden, &work);
        let ff = FaultFs::over_std();
        let set = open_rw_set_over(&work, &ff);
        ff.crash_at(i);
        ff.arm();
        append_save(&set, &work).unwrap_err();
        ff.disarm();
        drop(set);

        let read_only = read_only_state(&work, RecoveryPolicy::Strict, |opts| {
            let (set, report) = ShardedClimber::open_dir(&work, opts).unwrap();
            assert!(!set.is_writable() && report.is_clean());
            state_of(&set, &probes)
        });
        let recovered = state_of(&ShardedClimber::open_rw(&work).unwrap(), &probes);
        assert!(
            read_only == recovered,
            "crash at op {i}: read-only open served another state"
        );
        if !states.contains(&recovered) {
            states.push(recovered);
        }
    }
    assert_eq!(states.len(), 3, "neither, shard 0 only, both shards saved");
    fs::remove_dir_all(&root).ok();
}

/// A flush whose partition write fails leaves that partition's records
/// in the delta segment — they leave it only when their new image is
/// published, so an acknowledged append is never dropped — and the next
/// fault-free flush must land them.
#[test]
fn failed_flush_restores_drained_records_then_retries_clean() {
    let root = tmp_root("drain");
    let dir = root.join("idx");
    setup_plain(&dir);
    let ff = FaultFs::over_std();
    let fsref: FsRef = ff.clone();
    let c = open_rw_over(&dir, fsref).unwrap();
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
    // The appended records are still answerable right now (still in the
    // delta), and a retry folds them for real.
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
/// folded records living only in those stages (each left the delta when
/// its stage was published; the store serves the `.new` siblings). A later fold that re-stages one of
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
        let pending = c.delta().partitions();
        let view = c.delta().read();
        for &pid in &pending {
            for node in view.nodes_for(pid) {
                view.run(pid, node).unwrap().for_each(|id, values| {
                    assert!(all.insert(id, values.to_vec()).is_none(), "duplicate {id}");
                });
            }
        }
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
    let c = open_rw_over(&dry, ff.clone() as FsRef).unwrap();
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
    let c = open_rw_over(&dir, ff.clone() as FsRef).unwrap();
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

// --- the open matrix ------------------------------------------------------

/// Walks {read-only, writable} × {Strict, Quarantine} × {no cache, cache}
/// × {real filesystem, pass-through `FaultFs`} over `healthy` and over a
/// copy whose `victim_file` (partition `victim`) has one byte flipped.
/// The options may change where bytes come from and what the open
/// repairs, never what a successful open answers (`reference`: what
/// `Climber::open` answers) or how a failed one is typed.
fn walk_open_matrix<I: SearchBackend>(
    healthy: &Path,
    (victim_file, victim): (&Path, u32),
    (reqs, reference): (&[SearchRequest], &[QueryOutcome]),
    open: impl Fn(&Path, &OpenOptions) -> Result<(I, RecoveryReport), ClimberError>,
    append: impl Fn(&I, &[f32]) -> Result<u64, ClimberError>,
    is_the_strict_error: impl Fn(&OpenError) -> bool,
) {
    let (damaged, work) = (
        healthy.with_extension("bad"),
        healthy.with_extension("work"),
    );
    copy_dir(healthy, &damaged);
    let mut bytes = fs::read(damaged.join(victim_file)).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    fs::write(damaged.join(victim_file), &bytes).unwrap();

    let mut strict_error: Option<String> = None;
    let mut degraded: Option<Vec<QueryOutcome>> = None;
    for cell in 0..16 {
        let on = |bit: u32| cell & bit != 0;
        let (writable, quarantine, cached, injected) = (on(1), on(2), on(4), on(8));
        let label = format!("rw={writable} quarantine={quarantine} cache={cached} fs={injected}");
        let opts = OpenOptions {
            writable,
            policy: [RecoveryPolicy::Strict, RecoveryPolicy::Quarantine][quarantine as usize],
            cache: cached.then(|| Arc::new(BlockCache::new(CacheConfig::default()))),
            fs: [climber_core::dfs::fsio::std_fs(), FaultFs::over_std()][injected as usize].clone(),
        };
        let check_handle = |index: &I, report: &RecoveryReport| {
            let denied = matches!(
                append(index, &[0.0; 256]),
                Err(ClimberError::Io(e)) if e.kind() == std::io::ErrorKind::PermissionDenied
            );
            assert_eq!(denied, !writable, "{label}: append");
            assert_eq!(report.warmed_bytes > 0, cached, "{label}: warming");
        };

        // Healthy: a clean report and the reference answers, twice (the
        // second pass comes from the cache where there is one).
        copy_dir(healthy, &work);
        let (index, report) = open(&work, &opts).unwrap_or_else(|e| panic!("{label}: {e}"));
        assert!(report.is_clean(), "{label}: {report:?}");
        for _ in 0..2 {
            assert!(index.search_many(reqs) == reference, "{label}: answers");
        }
        check_handle(&index, &report);
        drop(index);

        // Damaged: one typed refusal under Strict; under Quarantine one
        // report, one set of degraded answers, and the file moved aside
        // only by a writable open.
        copy_dir(&damaged, &work);
        match open(&work, &opts) {
            Err(ClimberError::Open(e)) if !quarantine => {
                assert!(is_the_strict_error(&e), "{label}: {e:?}");
                let e = format!("{e:?}");
                assert_eq!(strict_error.get_or_insert_with(|| e.clone()), &e, "{label}");
            }
            Ok((index, report)) if quarantine => {
                let set_aside = (
                    report.quarantined_partitions.clone(),
                    report.dead_shards.len(),
                );
                assert_eq!(set_aside, (vec![victim], 0), "{label}");
                assert_eq!(index.health().quarantined_partitions, 1, "{label}");
                let out = index.search_many(reqs);
                assert!(
                    degraded.get_or_insert_with(|| out.clone()) == &out,
                    "{label}: degraded"
                );
                check_handle(&index, &report);
                let moved = !work.join(victim_file).exists();
                assert_eq!(
                    moved, writable,
                    "{label}: only a writable open moves the file"
                );
            }
            other => panic!("{label}: unexpected {:?}", other.map(|(_, r)| r)),
        }
    }
    assert!(
        degraded.unwrap() != reference,
        "the victim must matter to the requests"
    );
}

#[test]
fn every_option_combination_opens_the_same_index() {
    use climber_core::dfs::store::{partition_file_name, PartitionStore};

    let root = tmp_root("open-matrix");
    let ds = Domain::RandomWalk.generate(300, 21);
    let (single_dir, set_dir) = (root.join("single"), root.join("set"));
    let victim = Climber::build_on_disk(&ds, &single_dir, cfg())
        .unwrap()
        .store()
        .ids()[1];
    drop(ShardedClimber::build_on_disk(&ds, &set_dir, cfg(), 3).unwrap());
    // Exact requests over members of every partition: whichever partition
    // is damaged, some answer changes.
    let reqs: Vec<SearchRequest> = (0..300u64)
        .step_by(2)
        .map(|i| SearchRequest::new(ds.get(i).to_vec(), 5).exact())
        .chain([SearchRequest::new(ds.get(3).to_vec(), 10)])
        .collect();
    let reference = Climber::open(&single_dir).unwrap().search_many(&reqs);

    let part = PathBuf::from(partition_file_name(victim));
    walk_open_matrix(
        &single_dir,
        (&part, victim),
        (&reqs, &reference),
        |dir, opts| Climber::open_dir(dir, opts),
        |index, series| index.append(series),
        |e| matches!(e, OpenError::ChecksumMismatch { what, .. } if *what == format!("partition {victim}")),
    );
    walk_open_matrix(
        &set_dir,
        (&Path::new("shard-001").join(&part), victim),
        (&reqs, &reference),
        |dir, opts| ShardedClimber::open_dir(dir, opts),
        |set, series| set.append(series),
        |e| matches!(e, OpenError::Shard { shard: 1, source } if matches!(**source, OpenError::ChecksumMismatch { .. })),
    );
    fs::remove_dir_all(&root).ok();
}
