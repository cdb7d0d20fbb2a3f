//! Persistence: disk-backed indexes survive restarts and reject corruption.
//!
//! Every corruption mode must surface as a typed
//! `ClimberError::Open(OpenError)` from `Climber::open` — never a panic,
//! never a silently wrong index.

use climber_core::dfs::fsio::{FaultFs, FsOp, StdFs};
use climber_core::dfs::manifest::{xxh64, FileEntry};
use climber_core::dfs::segment::{decode_journal, encode_journal};
use climber_core::dfs::store::{partition_file_name, PartitionStore};
use climber_core::series::gen::Domain;
use climber_core::{
    CacheConfig, Climber, ClimberConfig, ClimberError, DeltaSegment, Manifest, OpenError,
    OpenOptions, RecoveryPolicy, SearchRequest, ShardedClimber, FORMAT_VERSION, MANIFEST_FILE,
    SKELETON_FILE,
};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// Mutations on a read-only handle surface as `ClimberError::Io` wrapping
/// a `PermissionDenied`.
fn is_permission_denied(err: &ClimberError) -> bool {
    matches!(err, ClimberError::Io(e) if e.kind() == std::io::ErrorKind::PermissionDenied)
}

fn cfg() -> ClimberConfig {
    ClimberConfig::default()
        .with_paa_segments(8)
        .with_pivots(48)
        .with_prefix_len(6)
        .with_capacity(120)
        .with_alpha(0.3)
        .with_epsilon(1)
        .with_seed(911)
        .with_workers(2)
}

fn tmp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("climber-it-{tag}-{}", std::process::id()))
}

/// Read-write open options under `policy` (no cache, real filesystem).
fn rw(policy: RecoveryPolicy) -> OpenOptions {
    OpenOptions {
        writable: true,
        policy,
        ..OpenOptions::default()
    }
}

#[test]
fn reopened_index_answers_identically() {
    let dir = tmp_dir("reopen");
    let ds = Domain::RandomWalk.generate(1_200, 5);
    let built = Climber::build_on_disk(&ds, &dir, cfg()).unwrap();
    let before: Vec<_> = (0..5u64)
        .map(|q| {
            built
                .search(&SearchRequest::new(ds.get(q * 100), 20).adaptive(4))
                .results
        })
        .collect();
    drop(built);

    let reopened = Climber::open(&dir).unwrap();
    for (i, want) in before.iter().enumerate() {
        let got = reopened
            .search(&SearchRequest::new(ds.get(i as u64 * 100), 20).adaptive(4))
            .results;
        assert_eq!(&got, want, "query {i} diverged after reopen");
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn skeleton_file_is_the_global_index() {
    let dir = tmp_dir("skeleton");
    let ds = Domain::Eeg.generate(600, 7);
    let built = Climber::build_on_disk(&ds, &dir, cfg()).unwrap();
    let on_disk = fs::read(dir.join(SKELETON_FILE)).unwrap();
    assert_eq!(on_disk.len(), built.global_index_bytes());
    // The paper's "global index size" is tiny relative to the data.
    assert!(
        on_disk.len() < ds.payload_bytes() / 10,
        "skeleton {} bytes vs data {} bytes",
        on_disk.len(),
        ds.payload_bytes()
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_skeleton_is_rejected() {
    let dir = tmp_dir("corrupt");
    let ds = Domain::Dna.generate(400, 9);
    Climber::build_on_disk(&ds, &dir, cfg()).unwrap();
    let path = dir.join(SKELETON_FILE);
    let mut bytes = fs::read(&path).unwrap();
    bytes.truncate(bytes.len() / 2);
    fs::write(&path, &bytes).unwrap();
    assert!(
        matches!(
            Climber::open(&dir),
            Err(ClimberError::Open(OpenError::ChecksumMismatch { .. }))
        ),
        "truncated skeleton accepted"
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_partitions_detected_on_open() {
    let dir = tmp_dir("noparts");
    let ds = Domain::TexMex.generate(400, 11);
    Climber::build_on_disk(&ds, &dir, cfg()).unwrap();
    // delete every partition file but keep the skeleton + manifest
    for entry in fs::read_dir(&dir).unwrap() {
        let p = entry.unwrap().path();
        if p.extension().is_some_and(|e| e == "clbp") {
            fs::remove_file(p).unwrap();
        }
    }
    assert!(
        matches!(
            Climber::open(&dir),
            Err(ClimberError::Open(OpenError::MissingPartition { .. }))
        ),
        "opened an index with no data"
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn queries_tolerate_a_partition_lost_while_serving() {
    // Fault injection: a partition file vanishing *after* the validated
    // open (disk pulled, file GC'd) degrades recall but must not panic —
    // the serving process keeps answering.
    let dir = tmp_dir("lostpart");
    let ds = Domain::RandomWalk.generate(1_000, 13);
    let built = Climber::build_on_disk(&ds, &dir, cfg()).unwrap();
    drop(built);

    let reopened = Climber::open(&dir).unwrap();
    let victim = fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| p.extension().is_some_and(|e| e == "clbp"))
        .expect("at least one partition");
    fs::remove_file(victim).unwrap();

    for q in 0..10u64 {
        let out = reopened.search(&SearchRequest::new(ds.get(q * 37), 10).exact());
        // some queries may return fewer than k if their partition vanished,
        // but none may fail
        assert!(out.results.len() <= 10);
    }
    fs::remove_dir_all(&dir).ok();
}

// --- the five corruption scenarios, each a distinct typed error ---------

fn built_dir(tag: &str) -> PathBuf {
    let dir = tmp_dir(tag);
    let ds = Domain::RandomWalk.generate(500, 23);
    Climber::build_on_disk(&ds, &dir, cfg()).unwrap();
    dir
}

fn manifest_path(dir: &Path) -> PathBuf {
    dir.join(MANIFEST_FILE)
}

#[test]
fn truncated_manifest_is_typed() {
    let dir = built_dir("trunc-manifest");
    let path = manifest_path(&dir);
    let mut bytes = fs::read(&path).unwrap();
    bytes.truncate(bytes.len() * 2 / 3);
    fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        Climber::open(&dir),
        Err(ClimberError::Open(OpenError::CorruptManifest(_)))
    ));
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn flipped_byte_in_cluster_block_is_typed() {
    let dir = built_dir("bitrot");
    let victim = fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| p.extension().is_some_and(|e| e == "clbp"))
        .unwrap();
    let mut bytes = fs::read(&victim).unwrap();
    // flip one bit deep inside the record area, past header + directory
    let at = bytes.len() - 10;
    bytes[at] ^= 0x20;
    fs::write(&victim, &bytes).unwrap();
    assert!(matches!(
        Climber::open(&dir),
        Err(ClimberError::Open(OpenError::ChecksumMismatch { .. }))
    ));
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn wrong_manifest_magic_is_typed() {
    let dir = built_dir("magic");
    let path = manifest_path(&dir);
    let mut bytes = fs::read(&path).unwrap();
    bytes[0] = b'Z';
    fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        Climber::open(&dir),
        Err(ClimberError::Open(OpenError::BadMagic { .. }))
    ));
    fs::remove_dir_all(&dir).ok();
}

/// The manifest at `path` with its version field set to `version` and
/// its self-checksum re-sealed, so only the version check can fire.
fn rewrite_version(path: &Path, version: u32) {
    let mut bytes = fs::read(path).unwrap();
    bytes[4..8].copy_from_slice(&version.to_le_bytes());
    let body = bytes.len() - 8;
    let sum = xxh64(&bytes[..body], 0);
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
    fs::write(path, &bytes).unwrap();
}

fn is_unsupported(err: &OpenError, version: u32) -> bool {
    matches!(err, OpenError::UnsupportedVersion { found, supported: FORMAT_VERSION } if *found == version)
}

/// A manifest of any version but `FORMAT_VERSION` — a future one, or one
/// of the retired layouts 1 to 3 — fails every open, read-only or
/// writable, under either policy, before the open touches anything: the
/// directory keeps every file and byte, and the open only reads. A shard
/// set with one such shard names it under `Strict` and serves without it
/// under `Quarantine`.
#[test]
fn future_format_version_is_typed() {
    let dir = built_dir("future");
    let path = manifest_path(&dir);
    for version in [FORMAT_VERSION + 7, 1, 2, 3] {
        rewrite_version(&path, version);
        let before = dir_image(&dir);
        for writable in [false, true] {
            for policy in [RecoveryPolicy::Strict, RecoveryPolicy::Quarantine] {
                let ff = FaultFs::over_std();
                ff.arm();
                let opts = OpenOptions {
                    writable,
                    policy,
                    fs: ff.clone(),
                    ..OpenOptions::default()
                };
                let case = format!("version {version}, writable {writable}, {policy:?}");
                match Climber::open_dir(&dir, &opts) {
                    Err(ClimberError::Open(e)) => {
                        assert!(is_unsupported(&e, version), "{case}: {e}")
                    }
                    other => panic!("{case}: {:?}", other.map(drop)),
                }
                let touched: Vec<_> = (ff.trace().into_iter())
                    .filter(|(op, _)| *op != FsOp::Read)
                    .collect();
                assert_eq!(touched, [], "{case}");
            }
        }
        assert!(
            dir_image(&dir) == before,
            "version {version}: the directory changed"
        );
    }
    fs::remove_dir_all(&dir).ok();

    let dir = tmp_dir("future-shards");
    fs::remove_dir_all(&dir).ok();
    let ds = Domain::RandomWalk.generate(500, 23);
    drop(ShardedClimber::build_on_disk(&ds, &dir, cfg(), 3).unwrap());
    rewrite_version(&manifest_path(&dir.join("shard-001")), 3);
    for writable in [false, true] {
        let strict = OpenOptions {
            writable,
            ..OpenOptions::default()
        };
        match ShardedClimber::open_dir(&dir, &strict) {
            Err(ClimberError::Open(OpenError::Shard { shard: 1, source })) => {
                assert!(is_unsupported(&source, 3), "writable {writable}: {source}")
            }
            other => panic!("writable {writable}: {:?}", other.map(drop)),
        }
        let quarantine = OpenOptions {
            policy: RecoveryPolicy::Quarantine,
            ..strict
        };
        let (_, report) = ShardedClimber::open_dir(&dir, &quarantine).unwrap();
        assert_eq!(report.dead_shards, vec![1], "writable {writable}");
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_partition_file_is_typed() {
    let dir = built_dir("gone");
    let victim = fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| p.extension().is_some_and(|e| e == "clbp"))
        .unwrap();
    fs::remove_file(&victim).unwrap();
    assert!(matches!(
        Climber::open(&dir),
        Err(ClimberError::Open(OpenError::MissingPartition { .. }))
    ));
    fs::remove_dir_all(&dir).ok();
}

/// Rewrites the first partition of a built directory as a CLBP v2 file —
/// the version field set to 2, nothing else touched — and re-seals the
/// manifest entry (size, checksum, fingerprint) to describe those bytes
/// exactly, as a build that wrote version 2 would have left it. Returns
/// the directory, the partition's id and a query routed to it.
fn dir_with_a_version_2_partition(tag: &str) -> (PathBuf, u32, Vec<f32>) {
    let dir = tmp_dir(tag);
    let ds = Domain::RandomWalk.generate(500, 23);
    let built = Climber::build_on_disk(&ds, &dir, cfg()).unwrap();
    let victim = built.store().ids()[0];
    // A stored series whose exact plan reads the victim partition.
    let query = (0..500u64)
        .map(|i| ds.get(i).to_vec())
        .find(|q| {
            let plan = built.search(&SearchRequest::new(q.clone(), 5).exact()).plan;
            plan.reads.get(victim).is_some()
        })
        .expect("some stored series is routed to the first partition");
    drop(built);

    let path = dir.join(partition_file_name(victim));
    let mut bytes = fs::read(&path).unwrap();
    bytes[4..8].copy_from_slice(&2u32.to_le_bytes());
    fs::write(&path, &bytes).unwrap();
    let mut m = Manifest::load_with(&StdFs, &dir).unwrap();
    let entry = m.partitions.iter_mut().find(|e| e.id == victim).unwrap();
    entry.checksum = xxh64(&bytes, 0);
    m.fingerprint = Manifest::fingerprint_of(m.series_len, m.num_records, &m.partitions);
    m.write_atomic_with(&StdFs, &dir).unwrap();
    (dir, victim, query)
}

#[test]
fn version_2_partition_is_refused_by_a_strict_open() {
    let (dir, victim, _) = dir_with_a_version_2_partition("v2-strict");
    for opened in [
        Climber::open(&dir).map(drop),
        Climber::open_rw(&dir).map(drop),
        Climber::open_dir(&dir, &rw(RecoveryPolicy::Strict)).map(drop),
        Climber::open_with_cache(&dir, RecoveryPolicy::Strict, CacheConfig::default()).map(drop),
    ] {
        match opened {
            Err(ClimberError::Open(OpenError::CorruptPartition { id, reason })) => {
                assert_eq!(id, victim);
                assert!(reason.contains("version 2"), "{reason}");
            }
            other => panic!("expected CorruptPartition, got {other:?}"),
        }
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn version_2_partition_is_quarantined_and_stays_quarantined() {
    let (dir, victim, query) = dir_with_a_version_2_partition("v2-quarantine");
    let (degraded, report) = Climber::open_dir(&dir, &rw(RecoveryPolicy::Quarantine)).unwrap();
    assert_eq!(report.quarantined_partitions, vec![victim]);
    assert_eq!(degraded.quarantined_partitions(), vec![victim]);

    // The answer is partial and says which partition it is missing.
    let req = SearchRequest::new(query, 5).exact();
    let (_, status) = degraded.search_many_with_status(std::slice::from_ref(&req));
    assert!(!status.healthy);
    assert!(status.failed_partitions.contains(&victim), "{status:?}");

    // The quarantined copy matches the manifest byte for byte, and is
    // still not a partition this build reads: scrub must not re-admit it.
    for _ in 0..2 {
        let scrub = degraded.scrub().unwrap();
        assert_eq!(scrub.still_quarantined, vec![victim]);
        assert!(scrub.readmitted.is_empty());
    }
    assert_eq!(degraded.quarantined_partitions(), vec![victim]);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn reopened_store_is_read_only() {
    let dir = built_dir("readonly");
    let reopened = Climber::open(&dir).unwrap();
    assert!(!reopened.is_writable());
    let probe = vec![0.0f32; 256];
    assert!(is_permission_denied(&reopened.append(&probe).unwrap_err()));
    assert!(is_permission_denied(
        &reopened.append_batch(&[probe]).unwrap_err()
    ));
    assert!(is_permission_denied(&reopened.delete(0).unwrap_err()));
    assert!(is_permission_denied(&reopened.flush().unwrap_err()));
    fs::remove_dir_all(&dir).ok();
}

// --- the update journal: persistence and its corruption scenarios -------

/// Builds a disk index with pending updates (appended + deleted records)
/// and re-saves it, so the directory carries a journal.
fn journaled_dir(tag: &str) -> (PathBuf, Vec<f32>) {
    let dir = tmp_dir(tag);
    fs::remove_dir_all(&dir).ok();
    let ds = Domain::RandomWalk.generate(400, 41);
    let built = Climber::build_on_disk(&ds, &dir, cfg()).unwrap();
    let mut probe = ds.get(11).to_vec();
    probe[0] += 0.002;
    built.append(&probe).unwrap();
    built.delete(11).unwrap();
    built.save(&dir).unwrap();
    assert!(dir.join(climber_core::JOURNAL_FILE).exists());
    (dir, probe)
}

#[test]
fn journal_survives_reopen_read_only_and_writable() {
    let (dir, probe) = journaled_dir("journal");
    // read-only: journal replayed, updates visible, mutations rejected
    let ro = Climber::open(&dir).unwrap();
    let out = ro.search(&SearchRequest::new(&probe[..], 5).exact());
    assert_eq!(
        out.results[0],
        (400, 0.0),
        "appended record lost: {:?}",
        out.results
    );
    assert!(
        out.results.iter().all(|&(id, _)| id != 11),
        "deleted record served"
    );
    assert!(is_permission_denied(&ro.delete(0).unwrap_err()));

    // writable: same state, and the index keeps moving — flush folds the
    // journal away and re-seals the directory at the next generation.
    let rw = Climber::open_rw(&dir).unwrap();
    assert_eq!(rw.search(&SearchRequest::new(&probe[..], 5).exact()), out);
    assert_eq!(rw.generation(), 0);
    let report = rw.flush().unwrap();
    assert_eq!(report.records_folded, 1);
    assert_eq!(report.generation, 1);
    // flush folds the delta but keeps the tombstone: the re-sealed
    // journal still carries it
    assert_eq!(report.tombstones_remaining, 1);
    assert!(dir.join(climber_core::JOURNAL_FILE).exists());
    // compaction purges the deleted record; nothing is pending, so the
    // journal disappears with the next re-seal
    let report = rw.compact().unwrap();
    assert_eq!(report.records_purged, 1);
    assert!(
        !dir.join(climber_core::JOURNAL_FILE).exists(),
        "journal folded away"
    );

    // the re-sealed directory cold-opens to identical answers
    let cold = Climber::open(&dir).unwrap();
    assert_eq!(cold.generation(), 2);
    assert_eq!(cold.search(&SearchRequest::new(&probe[..], 5).exact()), out);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn writable_reopen_keeps_ingesting_across_cycles() {
    let (dir, probe) = journaled_dir("ingest-cycles");
    let rw = Climber::open_rw(&dir).unwrap();
    let mut probe2 = probe.clone();
    probe2[1] += 0.5;
    let id2 = rw.append(&probe2).unwrap();
    assert_eq!(id2, 401, "id counter continues across reopen");
    rw.compact().unwrap();
    rw.save(&dir).unwrap();
    let again = Climber::open_rw(&dir).unwrap();
    let out = again.search(&SearchRequest::new(&probe2[..], 3).exact());
    assert_eq!(out.results[0], (id2, 0.0));
    fs::remove_dir_all(&dir).ok();
}

/// A disk fold re-seals incrementally: flushing one appended record must
/// not re-read (or re-copy) the whole directory — only the affected
/// partition plus the manifest machinery.
#[test]
fn disk_flush_reseal_is_incremental() {
    let dir = tmp_dir("inc-reseal");
    fs::remove_dir_all(&dir).ok();
    let ds = Domain::RandomWalk.generate(2_000, 43);
    let built = Climber::build_on_disk(&ds, &dir, cfg()).unwrap();
    let total = built.store().ids().len();
    assert!(total >= 8, "need many partitions, got {total}");

    built.append(ds.get(5)).unwrap();
    let before = built.store().stats().snapshot();
    let report = built.flush().unwrap();
    assert_eq!(report.partitions_extended, 1);
    assert_eq!(report.partitions_rewritten, 0);
    let diff = built.store().stats().snapshot().since(&before);
    assert!(
        (diff.partitions_opened as usize) < total / 2,
        "flush re-read {} of {total} partitions — re-seal is not incremental",
        diff.partitions_opened
    );

    // ... and the incrementally re-sealed directory validates end to end.
    let cold = Climber::open(&dir).unwrap();
    assert_eq!(cold.generation(), 1);
    let out = cold.search(&SearchRequest::new(ds.get(5), 2).exact());
    assert_eq!(out.results[0].1, 0.0);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_journal_is_typed() {
    let (dir, _) = journaled_dir("nojournal");
    fs::remove_file(dir.join(climber_core::JOURNAL_FILE)).unwrap();
    assert!(matches!(
        Climber::open(&dir),
        Err(ClimberError::Open(OpenError::MissingJournal(_)))
    ));
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_journal_is_typed() {
    let (dir, _) = journaled_dir("badjournal");
    let path = dir.join(climber_core::JOURNAL_FILE);
    let mut bytes = fs::read(&path).unwrap();
    let at = bytes.len() - 3;
    bytes[at] ^= 0x10;
    fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        Climber::open(&dir),
        Err(ClimberError::Open(OpenError::ChecksumMismatch { .. }))
    ));
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn stale_generation_journal_is_typed() {
    let (dir, _) = journaled_dir("stalegen");
    // Patch the manifest's generation field (bytes 40..48: after magic,
    // version, flags, fingerprint, num_records, max_series_id and
    // series_len) and re-seal its self-checksum, simulating a manifest
    // from a later fold paired with this older journal.
    let path = manifest_path(&dir);
    let mut bytes = fs::read(&path).unwrap();
    bytes[40..48].copy_from_slice(&5u64.to_le_bytes());
    let body = bytes.len() - 8;
    let sum = xxh64(&bytes[..body], 0);
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
    fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        Climber::open(&dir),
        Err(ClimberError::Open(OpenError::StaleGeneration {
            manifest: 5,
            journal: 0,
        }))
    ));
    fs::remove_dir_all(&dir).ok();
}

/// A journal whose records are of another length than the manifest's
/// series is corrupt: opening it would hand a query's kernel two series
/// of different lengths, and an append would trip the delta's length
/// check.
#[test]
fn journal_of_another_series_length_is_typed() {
    let (dir, _) = journaled_dir("journallen");
    // Rewrite the journal with every pending record cut to half its
    // length, and re-seal the manifest's journal entry to match it.
    let journal_path = dir.join(climber_core::JOURNAL_FILE);
    let old = decode_journal(&fs::read(&journal_path).unwrap()).unwrap();
    let short = DeltaSegment::new();
    let pending = old.delta.partitions();
    let view = old.delta.read();
    for p in pending {
        for n in view.nodes_for(p) {
            (view.run(p, n).unwrap())
                .for_each(|id, values| short.append(p, n, id, &values[..values.len() / 2]));
        }
    }
    drop(view);
    let bytes = encode_journal(old.generation, &short, &old.tombstones);
    fs::write(&journal_path, &bytes).unwrap();
    let mut m = Manifest::load_with(&StdFs, &dir).unwrap();
    m.journal = Some(FileEntry {
        bytes: bytes.len() as u64,
        checksum: xxh64(&bytes, 0),
    });
    fs::write(manifest_path(&dir), m.encode()).unwrap();
    for writable in [false, true] {
        let opts = OpenOptions {
            writable,
            ..OpenOptions::default()
        };
        let opened = Climber::open_dir(&dir, &opts).map(drop);
        assert!(
            matches!(
                opened,
                Err(ClimberError::Open(OpenError::CorruptJournal(_)))
            ),
            "writable = {writable}: {opened:?}"
        );
    }
    fs::remove_dir_all(&dir).ok();
}

// --- one write protocol: a build stages like a fold ----------------------

/// Every file and directory under `dir` (recursively), by path, with the
/// bytes of each file.
fn dir_image(dir: &Path) -> BTreeMap<PathBuf, Option<Vec<u8>>> {
    let mut out = BTreeMap::new();
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            out.extend(dir_image(&path));
            out.insert(path, None);
        } else {
            out.insert(path.clone(), Some(fs::read(&path).unwrap()));
        }
    }
    out
}

/// A build into a directory that holds a larger index commits exactly the
/// new one: its partitions are the skeleton's, not whatever files the old
/// index left behind.
#[test]
fn rebuilding_over_a_larger_index_commits_only_the_new_one() {
    let dir = tmp_dir("rebuild");
    fs::remove_dir_all(&dir).ok();
    let large = Domain::RandomWalk.generate(3_000, 51);
    drop(Climber::build_on_disk(&large, &dir, cfg()).unwrap());
    let small = Domain::RandomWalk.generate(400, 52);
    let built = Climber::build_on_disk(&small, &dir, cfg()).unwrap();

    let reopened = Climber::open(&dir).unwrap();
    let m = Manifest::load_with(&StdFs, &dir).unwrap();
    assert_eq!(m.partition_ids(), reopened.skeleton().partition_ids());
    assert_eq!(m.num_records, 400);
    let req = SearchRequest::new(small.get(7), 5).exact();
    assert_eq!(reopened.search(&req), built.search(&req));
    fs::remove_dir_all(&dir).ok();
}

/// The handle `build_on_disk` returns writes like any writable open: a
/// fold that fails on one partition has only *staged* the others, so the
/// committed bytes of every other partition survive it. The fold is a
/// compaction, which reads every base image it folds: a flush that only
/// extends reads none.
#[test]
fn a_failed_fold_through_the_built_handle_keeps_every_committed_partition() {
    let dir = tmp_dir("built-fold");
    fs::remove_dir_all(&dir).ok();
    let ds = Domain::RandomWalk.generate(1_000, 53);
    let built = Climber::build_on_disk(&ds, &dir, cfg()).unwrap();
    let committed: BTreeMap<u32, Vec<u8>> = (built.store().ids().into_iter())
        .map(|pid| (pid, fs::read(dir.join(partition_file_name(pid))).unwrap()))
        .collect();

    let extra = Domain::RandomWalk.generate(60, 54);
    let batch: Vec<Vec<f32>> = (0..60).map(|i| extra.get(i).to_vec()).collect();
    let ids = built.append_batch(&batch).unwrap();
    let touched: BTreeSet<u32> = (batch.iter().zip(&ids))
        .map(|(v, &id)| built.skeleton().place(v, id).partition)
        .collect();
    assert!(
        touched.len() > 1,
        "the fold must rewrite several partitions"
    );
    let victim = *touched.first().unwrap();
    fs::write(dir.join(partition_file_name(victim)), b"not a partition").unwrap();
    assert!(
        built.compact().is_err(),
        "the fold read an unreadable partition"
    );
    drop(built);

    let quarantine = OpenOptions {
        policy: RecoveryPolicy::Quarantine,
        ..OpenOptions::default()
    };
    let (_, report) = Climber::open_dir(&dir, &quarantine).unwrap();
    assert_eq!(report.quarantined_partitions, vec![victim]);
    for (pid, bytes) in committed.iter().filter(|(&pid, _)| pid != victim) {
        let now = fs::read(dir.join(partition_file_name(*pid))).unwrap();
        assert!(now == *bytes, "partition {pid} lost its committed bytes");
    }
    fs::remove_dir_all(&dir).ok();
}

/// A scrub of a read-only index verifies and reports, and quarantines in
/// memory only: the directory keeps its listing and every byte, while the
/// report and the query status both name the damaged partition.
#[test]
fn read_only_scrub_reports_damage_and_touches_nothing() {
    let dir = built_dir("ro-scrub");
    let ds = Domain::RandomWalk.generate(500, 23);
    let index = Climber::open(&dir).unwrap();
    // The first partition a stored series' exact plan reads.
    let req = SearchRequest::new(ds.get(0).to_vec(), 5).exact();
    let plan = index.search(&req).plan;
    let (&victim, _) = plan.reads.iter().next().unwrap();

    let path = dir.join(partition_file_name(victim));
    let mut bytes = fs::read(&path).unwrap();
    *bytes.last_mut().unwrap() ^= 0xFF;
    fs::write(&path, &bytes).unwrap();
    let before = dir_image(&dir);
    let report = index.scrub().unwrap();
    assert!(
        dir_image(&dir) == before,
        "a read-only scrub changed the directory"
    );
    assert_eq!(report.quarantined, vec![victim]);
    assert_eq!(index.quarantined_partitions(), vec![victim]);
    let (_, status) = index.search_many_with_status(std::slice::from_ref(&req));
    assert!(!status.healthy);
    assert!(status.failed_partitions.contains(&victim), "{status:?}");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn config_and_fingerprint_survive_reopen() {
    let dir = tmp_dir("config");
    let ds = Domain::Eeg.generate(400, 29);
    let built = Climber::build_on_disk(&ds, &dir, cfg()).unwrap();
    let m1 = built.save(&dir).unwrap();
    let reopened = Climber::open(&dir).unwrap();
    assert_eq!(reopened.config(), built.config());
    // a second save of the same index produces the same fingerprint
    let m2 = reopened.save(tmp_dir("config-copy")).unwrap();
    assert_eq!(m1.fingerprint, m2.fingerprint);
    fs::remove_dir_all(&dir).ok();
    fs::remove_dir_all(tmp_dir("config-copy")).ok();
}
