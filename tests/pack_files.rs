//! Packs: a flush writes every extension image it makes into one new pack
//! file (a few once they pass a few MiB), and a merge folds every
//! partition's extension images at once.
//!
//! * After every successful flush of a scripted sequence — appends and
//!   deletes over small base images, so that merging flushes and a wave of
//!   base rewrites happen — each pack the manifest names is exactly the
//!   images it names (their bytes sum to its length: no dead bytes), the
//!   directory holds no pack the manifest does not name, at most
//!   `MAX_EXTENSIONS` flushes' packs are live, and the index answers as
//!   its cold reopen.

use climber_core::dfs::fsio::StdFs;
use climber_core::dfs::store::{pack_file_name, parse_pack_file_name};
use climber_core::series::gen::Domain;
use climber_core::{Climber, ClimberConfig, Manifest, QueryOutcome, SearchRequest, MANIFEST_FILE};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// Flushes whose packs may be live at once.
const MAX_EXTENSIONS: usize = 4;

/// Small base images (about 40 records each): a few flushes' extensions
/// pass a quarter of them.
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

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("climber-packs-{tag}-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    dir
}

fn names(dir: &Path, keep: impl Fn(&str) -> bool) -> BTreeSet<String> {
    (fs::read_dir(dir).unwrap().flatten())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| keep(name))
        .collect()
}

/// The generations whose extension images `m` names.
fn live_generations(m: &Manifest) -> BTreeSet<u64> {
    (m.partitions.iter().flat_map(|e| &e.extensions))
        .map(|x| x.file)
        .collect()
}

/// Every pack `dir`'s manifest names holds exactly the images it names,
/// back to back, and no other pack is in `dir`.
fn assert_packs_are_exact(dir: &Path, m: &Manifest) {
    let mut packs: BTreeMap<String, Vec<(u64, u64)>> = BTreeMap::new();
    for e in &m.partitions {
        for x in &e.extensions {
            let slot = x.pack.expect("a flush writes extension images into packs");
            let pack = pack_file_name(x.file, slot.k);
            packs.entry(pack).or_default().push((slot.offset, x.bytes));
        }
    }
    for (pack, images) in &mut packs {
        let len = fs::metadata(dir.join(pack)).unwrap().len();
        assert_eq!(
            images.iter().map(|&(_, bytes)| bytes).sum::<u64>(),
            len,
            "{pack} holds dead bytes"
        );
        images.sort_unstable();
        let mut end = 0;
        for &(offset, bytes) in images.iter() {
            assert_eq!(offset, end, "{pack}: images overlap or leave a gap");
            end += bytes;
        }
    }
    let on_disk = names(dir, |n| parse_pack_file_name(n).is_some());
    let named: BTreeSet<String> = packs.into_keys().collect();
    assert_eq!(on_disk, named, "packs no manifest names");
}

fn requests(probes: &[Vec<f32>]) -> Vec<SearchRequest> {
    (probes.iter().enumerate())
        .map(|(i, q)| SearchRequest::new(&q[..], if i % 2 == 0 { 5 } else { 40 }).exact())
        .collect()
}

#[test]
fn every_flush_leaves_packs_without_dead_bytes_or_orphans() {
    let dir = tmp("sequence");
    let ds = Domain::RandomWalk.generate(600, 5);
    drop(Climber::build_on_disk(&ds, &dir, cfg()).unwrap());
    let index = Climber::open_rw(&dir).unwrap();
    let mut probes: Vec<Vec<f32>> = (0..6u64).map(|i| ds.get(i * 97).to_vec()).collect();
    let (mut merges, mut most_rewritten) = (0, 0);
    let mut live = BTreeSet::new();
    for cycle in 0..12u64 {
        let extra = Domain::RandomWalk.generate(40, 1_000 + cycle);
        let batch: Vec<Vec<f32>> = (0..40).map(|i| extra.get(i).to_vec()).collect();
        let ids = index.append_batch(&batch).unwrap();
        probes.push(batch[0].clone());
        for j in 0..5 {
            assert!(index.delete((cycle * 41 + j * 113) % 600).unwrap());
        }
        assert!(index.delete(ids[1]).unwrap());
        let report = index.flush().unwrap();
        let m = Manifest::load_with(&StdFs, &dir).unwrap();
        assert_packs_are_exact(&dir, &m);
        let now = live_generations(&m);
        assert!(now.len() <= MAX_EXTENSIONS, "cycle {cycle}: {now:?}");
        if live.len() == MAX_EXTENSIONS {
            // A merge: every older pack is gone.
            merges += 1;
            assert!(now.iter().all(|&g| g == report.generation), "{now:?}");
        } else {
            assert!(now.is_superset(&live), "cycle {cycle}: {live:?} → {now:?}");
        }
        most_rewritten = most_rewritten.max(report.partitions_rewritten);
        live = now;
    }
    assert_eq!(merges, 2, "the sequence merged {merges} times");
    assert!(most_rewritten >= 3, "no wave of base rewrites");
    let reqs = requests(&probes);
    let want: Vec<QueryOutcome> = reqs.iter().map(|r| index.search(r)).collect();
    drop(index);
    let cold = Climber::open(&dir).unwrap();
    let got: Vec<QueryOutcome> = reqs.iter().map(|r| cold.search(r)).collect();
    assert_eq!(got, want, "the reopened index answers otherwise");
    fs::remove_dir_all(&dir).ok();
}

/// An extending flush whose images pass the 4 MiB cap writes them into
/// several packs — partitions in ascending id across them, each pack
/// exact — and answers as its cold reopen.
#[test]
fn a_flush_past_the_cap_writes_several_packs() {
    let dir = tmp("several");
    let ds = Domain::RandomWalk.generate(1_000, 5);
    drop(Climber::build_on_disk(&ds, &dir, cfg().with_capacity(200)).unwrap());
    let index = Climber::open_rw(&dir).unwrap();
    let extra = Domain::RandomWalk.generate(16, 77);
    let batch: Vec<Vec<f32>> = (0..16).map(|i| extra.get(i).to_vec()).collect();
    index.append_batch(&batch).unwrap();
    let first = index.flush().unwrap();
    assert_eq!(first.partitions_rewritten, 0);
    // The same series 320 times over, about 5 MiB: every copy lands in a
    // partition the first flush extended, so the flush extends them all.
    let copies: Vec<Vec<f32>> = (0..320).flat_map(|_| batch.iter().cloned()).collect();
    index.append_batch(&copies).unwrap();
    let report = index.flush().unwrap();
    assert_eq!(report.partitions_rewritten, 0);
    assert_eq!(report.partitions_extended, first.partitions_extended);
    let m = Manifest::load_with(&StdFs, &dir).unwrap();
    assert_packs_are_exact(&dir, &m);
    let mut placed: Vec<(u32, u32)> = (m.partitions.iter())
        .flat_map(|e| e.extensions.iter().map(move |x| (x, e.id)))
        .filter(|(x, _)| x.file == report.generation)
        .map(|(x, id)| (x.pack.unwrap().k, id))
        .collect();
    let packs: BTreeSet<u32> = placed.iter().map(|&(k, _)| k).collect();
    assert!(packs.len() >= 2, "one pack: {placed:?}");
    let by_pack = placed.clone();
    placed.sort_by_key(|&(_, id)| id);
    assert_eq!(by_pack, placed, "partitions out of order across the packs");
    let reqs = requests(&batch[..8]);
    let want: Vec<QueryOutcome> = reqs.iter().map(|r| index.search(r)).collect();
    drop(index);
    let cold = Climber::open(&dir).unwrap();
    let got: Vec<QueryOutcome> = reqs.iter().map(|r| cold.search(r)).collect();
    assert_eq!(got, want, "the reopened index answers otherwise");
    fs::remove_dir_all(&dir).ok();
}

/// Under a valid manifest checksum, an extension image whose range runs
/// past the end of its pack — by a byte, or by a length no file could
/// hold — fails the open with a typed error, read-only or writable, and
/// never panics or reserves memory for the claimed length.
#[test]
fn an_image_running_past_its_pack_is_a_typed_open_error() {
    let root = tmp("past");
    let dir = root.join("idx");
    let ds = Domain::RandomWalk.generate(600, 5);
    drop(Climber::build_on_disk(&ds, &dir, cfg()).unwrap());
    let index = Climber::open_rw(&dir).unwrap();
    index.append(ds.get(3)).unwrap();
    index.flush().unwrap();
    drop(index);
    let good = Manifest::load_with(&StdFs, &dir).unwrap();
    let (pi, xi) = (good.partitions.iter().enumerate())
        .find_map(|(pi, e)| (!e.extensions.is_empty()).then_some((pi, 0)))
        .unwrap();
    for bytes in [good.partitions[pi].extensions[xi].bytes + 1, u64::MAX / 4] {
        let mut bad = good.clone();
        bad.partitions[pi].extensions[xi].bytes = bytes;
        fs::write(dir.join(MANIFEST_FILE), bad.encode()).unwrap();
        for writable in [false, true] {
            let opened = if writable {
                Climber::open_rw(&dir).map(drop)
            } else {
                Climber::open(&dir).map(drop)
            };
            assert!(
                matches!(
                    opened,
                    Err(climber_core::ClimberError::Open(
                        climber_core::OpenError::CorruptPartition { id, .. }
                    )) if id == good.partitions[pi].id
                ),
                "{bytes} bytes, writable {writable}"
            );
        }
    }
    fs::write(dir.join(MANIFEST_FILE), good.encode()).unwrap();
    assert!(Climber::open(&dir).is_ok());
    fs::remove_dir_all(&root).ok();
}
