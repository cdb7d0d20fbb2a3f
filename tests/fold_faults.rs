//! A fold whose durability step fails.
//!
//! A flush stages every dirty partition's image, fsyncs the staged files
//! together on the I/O threads, then publishes each partition. When one of
//! those fsyncs fails, that partition publishes nothing: its temp file is
//! removed and its records stay in the delta segment, queryable. Every
//! other partition still publishes, the flush returns the error, and a
//! retried flush converges with every acknowledged append held.

use climber_core::dfs::fsio::{
    is_tmp_name, FaultAction, FaultFs, FaultTrigger, FsOp, FsRef, INJECTED_FAULT,
};
use climber_core::dfs::store::{partition_file_name, DiskStore, PartitionStore};
use climber_core::series::gen::Domain;
use climber_core::{
    Climber, ClimberConfig, ClimberError, OpenOptions, QueryOutcome, RecoveryPolicy, SearchRequest,
};
use std::collections::BTreeMap;
use std::path::Path;

/// Records built into the index.
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

fn open_rw(dir: &Path, fs: FsRef) -> Climber<DiskStore> {
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

fn temp_files(dir: &Path) -> Vec<String> {
    (std::fs::read_dir(dir).unwrap().flatten())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| is_tmp_name(name))
        .collect()
}

#[test]
fn a_failed_stage_fsync_publishes_the_others_and_a_retry_converges() {
    let dir = std::env::temp_dir().join(format!("climber-foldfaults-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    Climber::build_on_disk(&Domain::RandomWalk.generate(N as usize, 3), &dir, cfg()).unwrap();
    let ff = FaultFs::over_std();
    let index = open_rw(&dir, ff.clone());
    let appended = fresh(200, 21);
    let ids = index.append_batch(&appended).unwrap();
    let acked: Vec<(u64, Vec<f32>)> = ids.into_iter().zip(appended.iter().cloned()).collect();
    let dirty = index.delta().partitions();
    assert!(dirty.len() >= 3, "the appends dirtied {dirty:?}");
    let mut reqs: Vec<SearchRequest> = (appended.iter().take(24))
        .map(|q| SearchRequest::new(&q[..], 5))
        .collect();
    reqs.extend(
        fresh(4, 3)
            .iter()
            .map(|q| SearchRequest::new(&q[..], 10).adaptive(2)),
    );
    let want: Vec<QueryOutcome> = reqs.iter().map(|r| index.search(r)).collect();

    // The second staged-file fsync fails, on whichever I/O thread runs it.
    ff.inject(
        FaultTrigger::Kind(FsOp::FsyncFile, 1),
        FaultAction::ErrorOnce,
    );
    ff.arm();
    let err = index.flush().unwrap_err();
    ff.disarm();
    assert!(matches!(err, ClimberError::Io(_)), "{err:?}");
    let message = err.to_string();
    assert!(message.contains(INJECTED_FAULT), "{message}");
    let failed: Vec<u32> = (dirty.iter().copied())
        .filter(|&pid| message.contains(&format!("{}.new.tmp.", partition_file_name(pid))))
        .collect();
    assert_eq!(failed.len(), 1, "not one stage fsync failed: {message}");
    let failed = failed[0];

    // That partition published nothing and left no temp file; every other
    // dirty partition published its stage.
    assert_eq!(index.delta().partitions(), vec![failed]);
    assert_eq!(index.store().receipt(failed), None);
    for &pid in dirty.iter().filter(|&&pid| pid != failed) {
        assert!(index.store().receipt(pid).is_some(), "{pid} not published");
    }
    assert_eq!(temp_files(&dir), Vec::<String>::new());
    let now: Vec<QueryOutcome> = reqs.iter().map(|r| index.search(r)).collect();
    assert_eq!(now, want, "the failed flush moved an answer");
    assert_holds(&index, &acked);

    // The retry folds what is left and re-seals the directory.
    let report = index.flush().unwrap();
    assert_eq!(report.partitions_rewritten, 1);
    assert!(index.delta().is_empty());
    let now: Vec<QueryOutcome> = reqs.iter().map(|r| index.search(r)).collect();
    assert_eq!(now, want, "the retried flush moved an answer");
    assert_holds(&index, &acked);
    drop(index);
    let reopened = Climber::open(&dir).unwrap();
    let now: Vec<QueryOutcome> = reqs.iter().map(|r| reopened.search(r)).collect();
    assert_eq!(now, want, "the reopened index answers otherwise");
    assert_holds(&reopened, &acked);
    std::fs::remove_dir_all(&dir).ok();
}
