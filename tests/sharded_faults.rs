//! Fault injection against the shard set: broken directories fail to
//! open with a typed error naming the shard, and a shard failing
//! mid-scatter degrades a query to a reported partial answer — never a
//! panic, never a hang.

use climber_core::dfs::fsio::{Bytes, ClimberFs, FaultFs, FsOp, StdFs, INJECTED_FAULT};
use climber_core::dfs::manifest::{Manifest, OpenError};
use climber_core::dfs::store::parse_pack_file_name;
use climber_core::series::gen::Domain;
use climber_core::{
    CacheConfig, Climber, ClimberConfig, ClimberError, OpenOptions, RecoveryPolicy, SearchRequest,
    ShardSetManifest, ShardedClimber, SHARD_SET_FILE,
};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn cfg() -> ClimberConfig {
    ClimberConfig::default()
        .with_paa_segments(8)
        .with_pivots(32)
        .with_prefix_len(5)
        .with_capacity(80)
        .with_alpha(0.5)
        .with_epsilon(1)
        .with_seed(99)
        .with_workers(2)
}

fn build(
    tag: &str,
    shards: usize,
) -> (PathBuf, ShardedClimber<climber_core::dfs::store::DiskStore>) {
    let dir = std::env::temp_dir().join(format!("climber-fault-{tag}-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    let ds = Domain::RandomWalk.generate(300, 21);
    let set = ShardedClimber::build_on_disk(&ds, &dir, cfg(), shards).unwrap();
    (dir, set)
}

/// Read-write open options under `policy` (no cache, real filesystem).
fn rw(policy: RecoveryPolicy) -> OpenOptions {
    OpenOptions {
        writable: true,
        policy,
        ..OpenOptions::default()
    }
}

/// The shard index named by a typed shard-open failure.
fn shard_of_error(err: &ClimberError) -> Option<usize> {
    match err {
        ClimberError::Open(OpenError::Shard { shard, .. }) => Some(*shard),
        _ => None,
    }
}

#[test]
fn missing_shard_directory_names_the_shard() {
    let (dir, set) = build("missing", 3);
    drop(set);
    fs::remove_dir_all(dir.join("shard-001")).unwrap();
    let err = ShardedClimber::open(&dir).unwrap_err();
    assert_eq!(shard_of_error(&err), Some(1), "got: {err}");
    assert!(err.to_string().contains("shard 1"), "got: {err}");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_shard_partition_names_the_shard() {
    let (dir, set) = build("corrupt-part", 2);
    drop(set);
    // Flip bytes in the middle of one of shard-000's partition files; the
    // per-shard checksum validation must catch it and the set open must
    // attribute it.
    let part = first_partition_file(&dir.join("shard-000"));
    let mut bytes = fs::read(&part).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    fs::write(&part, bytes).unwrap();
    let err = ShardedClimber::open(&dir).unwrap_err();
    assert_eq!(shard_of_error(&err), Some(0), "got: {err}");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_super_manifest_is_a_typed_error() {
    let (dir, set) = build("corrupt-sm", 2);
    drop(set);
    let path = dir.join(SHARD_SET_FILE);
    let mut bytes = fs::read(&path).unwrap();
    bytes[6] ^= 0xFF;
    fs::write(&path, bytes).unwrap();
    let err = ShardedClimber::open(&dir).unwrap_err();
    assert!(
        matches!(err, ClimberError::Open(OpenError::CorruptShardSet(_))),
        "got: {err}"
    );
    // Truncation is caught too (not an index out-of-bounds panic).
    fs::write(&path, b"CLSH").unwrap();
    let err = ShardedClimber::open(&dir).unwrap_err();
    assert!(
        matches!(err, ClimberError::Open(OpenError::CorruptShardSet(_))),
        "got: {err}"
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_super_manifest_is_missing_manifest() {
    let (dir, set) = build("no-sm", 2);
    drop(set);
    fs::remove_file(dir.join(SHARD_SET_FILE)).unwrap();
    let err = ShardedClimber::open(&dir).unwrap_err();
    assert!(
        matches!(err, ClimberError::Open(OpenError::MissingManifest(_))),
        "got: {err}"
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn generation_drift_behind_the_sets_back_is_refused() {
    let (dir, set) = build("drift", 2);
    drop(set);
    // Mutate shard 1 directly through the single-index surface — an
    // operator "fixing" one shard out-of-band. Its sealed generation now
    // disagrees with the super-manifest's snapshot.
    let shard1 = Climber::open_rw(dir.join("shard-001")).unwrap();
    let probe: Vec<f32> = Domain::RandomWalk.generate(1, 77).get(0).to_vec();
    shard1.append(&probe).unwrap();
    shard1.flush().unwrap();
    drop(shard1);
    let err = ShardedClimber::open(&dir).unwrap_err();
    assert_eq!(shard_of_error(&err), Some(1), "got: {err}");
    assert!(err.to_string().contains("generation"), "got: {err}");
    fs::remove_dir_all(&dir).ok();
}

/// A rebuild interrupted between two shard seals leaves shards of two
/// builds side by side, every one at generation 0: the skeleton
/// cross-check refuses the mix — a strict open names the shard, a
/// quarantining one leaves it dead, and scrub re-admits it only once it
/// agrees with its siblings.
#[test]
fn a_shard_of_another_build_is_refused() {
    let (dir, set) = build("mixed", 2);
    drop(set);
    // Set B: other data, so another skeleton; only its shard 0 got sealed.
    let data_b = Domain::RandomWalk.generate(900, 2);
    let set_b = ShardedClimber::build_in_memory(&data_b, cfg(), 2);
    set_b.shards()[0].save(dir.join("shard-000")).unwrap();

    let err = ShardedClimber::open(&dir).unwrap_err();
    assert_eq!(shard_of_error(&err), Some(1), "got: {err}");
    assert!(err.to_string().contains("skeleton"), "got: {err}");

    let (mut set, report) =
        ShardedClimber::open_dir(&dir, &rw(RecoveryPolicy::Quarantine)).unwrap();
    assert_eq!(report.dead_shards, vec![1]);
    set.scrub().unwrap();
    assert_eq!(set.health().dead_shards, 1, "scrub re-admitted a stranger");

    // The interrupted build completes; the shard now agrees and rejoins.
    set_b.shards()[1].save(dir.join("shard-001")).unwrap();
    set.scrub().unwrap();
    assert!(set.health().is_healthy());
    let req = SearchRequest::new(data_b.get(3).to_vec(), 5);
    assert_eq!(set.search(&req), set_b.search(&req));
    assert_eq!(set.search(&req).results[0], (3, 0.0));
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn shard_failing_mid_scatter_degrades_with_status_not_panic() {
    let (dir, set) = build("scatter", 2);
    let ds = Domain::RandomWalk.generate(300, 21);
    let reqs: Vec<SearchRequest> = (0..4u64)
        .map(|i| SearchRequest::new(ds.get(i * 61).to_vec(), 8))
        .collect();
    let (healthy_out, healthy_status) = set.search_many_with_status(&reqs, 0);
    assert!(healthy_status.iter().all(|s| s.healthy));

    // Rip shard 1's partition files out from under the open set — the
    // disk store re-reads files per open, so the next scatter hits the
    // missing files mid-flight.
    for entry in fs::read_dir(dir.join("shard-001")).unwrap() {
        let p = entry.unwrap().path();
        if p.extension().is_some_and(|e| e == "clbp") {
            fs::remove_file(p).unwrap();
        }
    }
    let (out, statuses) = set.search_many_with_status(&reqs, 0);
    assert_eq!(out.len(), reqs.len(), "every request still gets an answer");
    assert!(statuses[0].healthy, "shard 0 is untouched");
    assert!(!statuses[1].healthy, "shard 1 lost its partitions");
    assert!(!statuses[1].failed_partitions.is_empty());
    // The degraded answer is exactly the surviving shard's contribution:
    // well-formed, sorted, no phantom records from the dead shard.
    for (outcome, healthy) in out.iter().zip(&healthy_out) {
        assert!(outcome.results.len() <= healthy.results.len());
        assert!(outcome
            .results
            .windows(2)
            .all(|w| (w[0].1, w[0].0) < (w[1].1, w[1].0)));
        for r in &outcome.results {
            assert_eq!(
                set.shard_of(r.0),
                0,
                "record {} served by a dead shard",
                r.0
            );
        }
    }
    // The plain (status-less) surface degrades the same way, no panic.
    let plain = set.search_many(&reqs);
    assert_eq!(plain, out);
    fs::remove_dir_all(&dir).ok();
}

fn first_partition_file(shard_dir: &Path) -> PathBuf {
    fs::read_dir(shard_dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| p.extension().is_some_and(|e| e == "clbp"))
        .expect("shard holds at least one partition file")
}

/// The request matrix the quarantine/repair round-trips replay at every
/// checkpoint, so "bit-identical" covers many queries, not one.
fn request_matrix(ds: &climber_core::series::dataset::Dataset) -> Vec<SearchRequest> {
    (0..6u64)
        .map(|i| SearchRequest::new(ds.get(i * 47).to_vec(), 8))
        .collect()
}

#[test]
fn quarantined_partition_readmitted_by_scrub_bit_identical() {
    let (dir, set) = build("scrub-part", 4);
    let ds = Domain::RandomWalk.generate(300, 21);
    let reqs = request_matrix(&ds);
    let healthy_out = set.search_many(&reqs);
    let healthy_routes: Vec<usize> = (0..20).map(|id| set.shard_of(id)).collect();
    assert!(set.health().is_healthy());
    drop(set);

    // Corrupt one partition of shard 2 (keeping the good bytes aside);
    // the strict open refuses, the quarantining open serves degraded.
    let part = first_partition_file(&dir.join("shard-002"));
    let good = fs::read(&part).unwrap();
    let mut bad = good.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0xFF;
    fs::write(&part, &bad).unwrap();
    assert!(ShardedClimber::open(&dir).is_err(), "strict must refuse");

    let (mut set, report) =
        ShardedClimber::open_dir(&dir, &rw(RecoveryPolicy::Quarantine)).unwrap();
    assert_eq!(report.quarantined_partitions.len(), 1);
    assert!(
        report.dead_shards.is_empty(),
        "the shard itself still opens"
    );
    let health = set.health();
    assert_eq!(health.shards, 4);
    assert_eq!(health.dead_shards, 0);
    assert_eq!(health.quarantined_partitions, 1);

    // Degraded serving: every request answers, well-formed, no panic.
    let degraded = set.search_many(&reqs);
    assert_eq!(degraded.len(), reqs.len());
    for out in &degraded {
        assert!(out
            .results
            .windows(2)
            .all(|w| (w[0].1, w[0].0) < (w[1].1, w[1].0)));
    }

    // A scrub with the damage still in place keeps it quarantined.
    let stuck = set.scrub().unwrap();
    assert!(!stuck.is_fully_healthy());
    assert_eq!(stuck.still_quarantined.len(), 1);

    // Repair (operator restores the bytes), scrub re-admits in place.
    fs::write(&part, &good).unwrap();
    let repaired = set.scrub().unwrap();
    assert!(repaired.is_fully_healthy(), "{repaired:?}");
    assert_eq!(repaired.readmitted.len(), 1);
    assert!(set.health().is_healthy());

    // Bit-identical to the healthy baseline, routing untouched.
    assert_eq!(set.search_many(&reqs), healthy_out);
    let routes: Vec<usize> = (0..20).map(|id| set.shard_of(id)).collect();
    assert_eq!(routes, healthy_routes);
    drop(set);

    // A fresh strict reopen of the repaired directory agrees too.
    let reopened = ShardedClimber::open(&dir).unwrap();
    assert_eq!(reopened.search_many(&reqs), healthy_out);
    let routes: Vec<usize> = (0..20).map(|id| reopened.shard_of(id)).collect();
    assert_eq!(routes, healthy_routes);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn dead_shard_readmitted_by_scrub_after_repair() {
    let (dir, set) = build("scrub-dead", 3);
    let ds = Domain::RandomWalk.generate(300, 21);
    let reqs = request_matrix(&ds);
    let healthy_out = set.search_many(&reqs);
    let healthy_routes: Vec<usize> = (0..20).map(|id| set.shard_of(id)).collect();
    drop(set);

    // Destroy shard 1's manifest wholesale: the shard cannot open at
    // all, so the quarantining set open leaves a dead slot.
    let manifest = dir.join("shard-001").join(climber_core::MANIFEST_FILE);
    let good = fs::read(&manifest).unwrap();
    fs::remove_file(&manifest).unwrap();

    let (mut set, report) =
        ShardedClimber::open_dir(&dir, &rw(RecoveryPolicy::Quarantine)).unwrap();
    assert_eq!(report.dead_shards, vec![1]);
    let health = set.health();
    assert_eq!(health.shards, 3);
    assert_eq!(health.dead_shards, 1);

    // Degraded serving: answers come only from live shards.
    let (degraded, statuses) = set.search_many_with_status(&reqs, 0);
    assert!(statuses[0].healthy && statuses[2].healthy);
    assert!(!statuses[1].healthy, "dead slot must report unhealthy");
    for out in &degraded {
        for r in &out.results {
            assert_ne!(
                set.shard_of(r.0),
                1,
                "record {} served by a dead shard",
                r.0
            );
        }
    }

    // Scrubbing before the repair cannot resurrect the shard.
    set.scrub().unwrap();
    assert_eq!(set.health().dead_shards, 1);

    // Repair the manifest; scrub re-admits the shard in place.
    fs::write(&manifest, &good).unwrap();
    set.scrub().unwrap();
    assert!(set.health().is_healthy());
    assert_eq!(set.search_many(&reqs), healthy_out);
    let routes: Vec<usize> = (0..20).map(|id| set.shard_of(id)).collect();
    assert_eq!(routes, healthy_routes);

    // The whole set still reports healthy statuses end-to-end.
    let (_, statuses) = set.search_many_with_status(&reqs, 0);
    assert!(statuses.iter().all(|s| s.healthy));
    fs::remove_dir_all(&dir).ok();
}

fn copy_dir(src: &Path, dst: &Path) {
    fs::remove_dir_all(dst).ok();
    fs::create_dir_all(dst).unwrap();
    for entry in fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let to = dst.join(entry.file_name());
        if entry.path().is_dir() {
            copy_dir(&entry.path(), &to);
        } else {
            fs::copy(entry.path(), &to).unwrap();
        }
    }
}

/// The generations `SHARDS.clsm` under `dir` records.
fn sealed_generations(dir: &Path) -> Vec<u64> {
    let bytes = fs::read(dir.join(SHARD_SET_FILE)).unwrap();
    ShardSetManifest::decode(&bytes).unwrap().generations
}

/// A set opened over a filesystem writes its super-manifest through it
/// too: the flush's trace holds the `SHARDS.clsm` write and rename, and a
/// crash at any of its steps leaves the super-manifest at the pre- or the
/// post-flush generations, never a mix.
#[test]
fn set_flush_writes_the_super_manifest_through_the_sets_filesystem() {
    let (golden, set) = build("sm-fs", 2);
    drop(set);
    let work = golden.with_extension("work");
    let extra = Domain::RandomWalk.generate(8, 61);
    // Opens `work` read-write over a fresh FaultFs, appends, and flushes
    // with the injector armed (crashing at `crash`, when given).
    let flush = |crash: Option<(u64, Option<usize>)>| {
        copy_dir(&golden, &work);
        let ff = FaultFs::over_std();
        let opts = OpenOptions {
            fs: ff.clone(),
            ..rw(RecoveryPolicy::Strict)
        };
        let (set, _) = ShardedClimber::open_dir(&work, &opts).unwrap();
        for i in 0..8 {
            set.append(extra.get(i)).unwrap();
        }
        match crash {
            Some((op, Some(keep))) => ff.torn_crash_at(op, keep),
            Some((op, None)) => ff.crash_at(op),
            None => {}
        }
        ff.arm();
        let result = set.flush();
        ff.disarm();
        (ff.trace(), result.is_ok())
    };

    let pre = sealed_generations(&golden);
    let (trace, ok) = flush(None);
    assert!(ok);
    let post = sealed_generations(&work);
    assert_ne!(pre, post, "the flush must bump a generation");
    let on_set_file = |op: FsOp| {
        (trace.iter()).position(|(o, path)| {
            *o == op
                && path
                    .file_name()
                    .unwrap()
                    .to_string_lossy()
                    .starts_with(SHARD_SET_FILE)
        })
    };
    let write = on_set_file(FsOp::Write).expect("the SHARDS.clsm write is traced") as u64;
    let rename = on_set_file(FsOp::Rename).expect("the SHARDS.clsm rename is traced") as u64;
    assert!(write < rename);

    // A crash at every step from the write on, and a torn write.
    let crashes = (write..trace.len() as u64).map(|op| (op, None));
    for (op, keep) in crashes.chain([(write, Some(5))]) {
        let (_, ok) = flush(Some((op, keep)));
        assert!(!ok, "crash at op {op} went unreported");
        let got = sealed_generations(&work);
        if op <= rename {
            assert_eq!(got, pre, "crash at op {op} (torn: {keep:?})");
        } else {
            assert_eq!(got, post, "crash at op {op}");
            let reopened = ShardedClimber::open(&work).unwrap();
            assert_eq!(reopened.generations(), post);
        }
    }
    fs::remove_dir_all(&golden).ok();
    fs::remove_dir_all(&work).ok();
}

/// A shard re-admitted by `scrub` is opened as the set was: it joins the
/// set's one block cache instead of serving uncached for the rest of the
/// process.
#[test]
fn shard_readmitted_by_scrub_shares_the_sets_cache() {
    use climber_core::dfs::store::PartitionStore;
    use std::sync::Arc;

    let (dir, set) = build("scrub-cache", 3);
    drop(set);
    let manifest = dir.join("shard-001").join(climber_core::MANIFEST_FILE);
    let good = fs::read(&manifest).unwrap();
    fs::remove_file(&manifest).unwrap();

    let (mut set, report) =
        ShardedClimber::open_with_cache(&dir, RecoveryPolicy::Quarantine, CacheConfig::default())
            .unwrap();
    assert_eq!(report.dead_shards, vec![1]);
    let cache = set.block_cache().expect("a cached open");

    fs::write(&manifest, &good).unwrap();
    set.scrub().unwrap();
    assert!(set.health().is_healthy());
    for shard in set.shards() {
        let held = shard
            .store()
            .block_cache()
            .expect("every live shard is cached");
        assert!(Arc::ptr_eq(&held, &cache), "one cache serves the whole set");
    }

    // Two passes over the re-admitted shard's clusters: whatever the
    // first found cached, the second finds every one of them.
    let readmitted = set.shard_slots()[1].as_ref().unwrap().store();
    let pids = readmitted.ids();
    let nodes: Vec<Vec<u64>> = pids
        .iter()
        .map(|&pid| readmitted.open(pid).unwrap().cluster_ids())
        .collect();
    let read_all = || {
        for (&pid, nodes) in pids.iter().zip(&nodes) {
            let mut out = Vec::new();
            let pick = climber_core::dfs::format::ClusterPick::Named(nodes);
            readmitted.read_clusters(pid, pick, &mut out).unwrap();
            assert_eq!(out.len(), nodes.len());
        }
    };
    read_all();
    let before = set.serve_io().cache_hits;
    read_all();
    let clusters: usize = nodes.iter().map(Vec::len).sum();
    assert!(clusters >= pids.len());
    assert_eq!(set.serve_io().cache_hits - before, clusters as u64);
    fs::remove_dir_all(&dir).ok();
}

/// The standard filesystem, failing the first pack write under a
/// `shard-001` directory, once, while armed.
#[derive(Debug, Default)]
struct FailShard1Pack {
    armed: AtomicBool,
}

impl ClimberFs for FailShard1Pack {
    fn read(&self, path: &Path) -> io::Result<Bytes> {
        StdFs.read(path)
    }
    fn read_ranges(&self, path: &Path, ranges: &[(u64, usize)]) -> io::Result<Vec<Bytes>> {
        StdFs.read_ranges(path, ranges)
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let in_shard_1 = path.parent().is_some_and(|p| p.ends_with("shard-001"));
        let pack = parse_pack_file_name(&path.file_name().unwrap().to_string_lossy()).is_some();
        if in_shard_1 && pack && self.armed.swap(false, Ordering::SeqCst) {
            return Err(io::Error::other(format!(
                "{INJECTED_FAULT}: {}",
                path.display()
            )));
        }
        StdFs.write(path, bytes)
    }
    fn fsync_file(&self, path: &Path) -> io::Result<()> {
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

/// A set flush whose second shard fails after the first committed its
/// fold still re-seals the set, at each shard's committed generation: the
/// flush reports the error, the set reopens strictly, and every record
/// the first shard folded is found.
#[test]
fn a_failed_shard_flush_still_reseals_the_set() {
    let (dir, set) = build("fold-fail", 2);
    drop(set);
    let fs = Arc::new(FailShard1Pack::default());
    let opts = OpenOptions {
        fs: fs.clone(),
        ..rw(RecoveryPolicy::Strict)
    };
    let (set, _) = ShardedClimber::open_dir(&dir, &opts).unwrap();
    let extra = Domain::RandomWalk.generate(24, 63);
    let batch: Vec<Vec<f32>> = (0..24).map(|i| extra.get(i).to_vec()).collect();
    let ids = set.append_batch(&batch).unwrap();
    fs.armed.store(true, Ordering::SeqCst);
    let err = set.flush().unwrap_err();
    assert!(!fs.armed.load(Ordering::SeqCst), "no pack write failed");
    assert!(err.to_string().contains(INJECTED_FAULT), "{err}");
    let folded: Vec<(u64, &Vec<f32>)> = (ids.into_iter().zip(&batch))
        .filter(|&(id, _)| set.shard_of(id) == 0)
        .collect();
    assert!(!folded.is_empty());
    drop(set);

    let reopened = ShardedClimber::open(&dir).unwrap();
    let generations = reopened.generations();
    for (i, &generation) in generations.iter().enumerate() {
        let m = Manifest::load_with(&StdFs, &dir.join(format!("shard-{i:03}"))).unwrap();
        assert_eq!(generation, m.generation, "shard {i}");
    }
    assert_eq!(generations[0], 1, "shard 0 committed its fold");
    for (id, values) in folded {
        let out = reopened.search(&SearchRequest::new(&values[..], 1).exact());
        assert_eq!(out.results[0], (id, 0.0), "record {id}");
    }
    fs::remove_dir_all(&dir).ok();
}
