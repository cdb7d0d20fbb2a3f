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
//! * A version-3 directory, whose extension images are files of their own,
//!   opens read-only and writable and answers as the directory it was made
//!   from; its per-partition extension files are gone after the first
//!   merging flush, or after a compaction.

use climber_core::dfs::format::Encode;
use climber_core::dfs::fsio::StdFs;
use climber_core::dfs::manifest::{xxh64, PackSlot};
use climber_core::dfs::store::{
    extension_file_name, pack_file_name, parse_extension_file_name, parse_pack_file_name,
};
use climber_core::series::gen::Domain;
use climber_core::{
    Climber, ClimberConfig, Manifest, QueryOutcome, SearchRequest, FORMAT_VERSION, MANIFEST_FILE,
};
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

/// `m` encoded as a version-3 manifest: every image a file of its own.
fn v3_manifest(m: &Manifest) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(b"CLMF");
    3u32.encode(&mut out);
    0u32.encode(&mut out);
    m.fingerprint.encode(&mut out);
    m.num_records.encode(&mut out);
    m.max_series_id.unwrap_or(u64::MAX).encode(&mut out);
    m.series_len.encode(&mut out);
    m.generation.encode(&mut out);
    match m.journal {
        Some(j) => {
            1u8.encode(&mut out);
            j.bytes.encode(&mut out);
            j.checksum.encode(&mut out);
        }
        None => 0u8.encode(&mut out),
    }
    m.config.encode(&mut out);
    m.skeleton.bytes.encode(&mut out);
    m.skeleton.checksum.encode(&mut out);
    (m.partitions.len() as u32).encode(&mut out);
    for e in &m.partitions {
        e.id.encode(&mut out);
        (1 + e.extensions.len() as u32).encode(&mut out);
        for x in e.images() {
            for v in [x.file, x.bytes, x.checksum, x.records] {
                v.encode(&mut out);
            }
        }
    }
    let sum = xxh64(&out, 0);
    sum.encode(&mut out);
    out
}

/// Rewrites the version-4 directory `dir` as a version-3 build would have
/// left it: each extension image copied out of its pack into a file of
/// its own, the packs removed, the manifest re-encoded.
fn downgrade_to_v3(dir: &Path) {
    let m = Manifest::load_with(&StdFs, dir).unwrap();
    for e in &m.partitions {
        for x in &e.extensions {
            let PackSlot { k, offset } = x.pack.unwrap();
            let pack = fs::read(dir.join(pack_file_name(x.file, k))).unwrap();
            let image = &pack[offset as usize..(offset + x.bytes) as usize];
            fs::write(dir.join(extension_file_name(e.id, x.file)), image).unwrap();
        }
    }
    for pack in names(dir, |n| parse_pack_file_name(n).is_some()) {
        fs::remove_file(dir.join(pack)).unwrap();
    }
    fs::write(dir.join(MANIFEST_FILE), v3_manifest(&m)).unwrap();
    assert_eq!(Manifest::load_with(&StdFs, dir).unwrap().format_version, 3);
}

fn copy_dir(src: &Path, dst: &Path) {
    fs::remove_dir_all(dst).ok();
    fs::create_dir_all(dst).unwrap();
    for entry in fs::read_dir(src).unwrap().flatten() {
        fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

fn legacy_files(dir: &Path) -> BTreeSet<String> {
    names(dir, |n| parse_extension_file_name(n).is_some())
}

#[test]
fn a_version_3_directory_opens_answers_and_loses_its_extension_files() {
    let root = tmp("v3");
    let (v4, v3) = (root.join("v4"), root.join("v3"));
    let ds = Domain::RandomWalk.generate(600, 5);
    drop(Climber::build_on_disk(&ds, &v4, cfg()).unwrap());
    let index = Climber::open_rw(&v4).unwrap();
    let mut probes: Vec<Vec<f32>> = (0..6u64).map(|i| ds.get(i * 97).to_vec()).collect();
    for cycle in 0..2 {
        let extra = Domain::RandomWalk.generate(20, 2_000 + cycle);
        let batch: Vec<Vec<f32>> = (0..20).map(|i| extra.get(i).to_vec()).collect();
        index.append_batch(&batch).unwrap();
        probes.push(batch[0].clone());
        let report = index.flush().unwrap();
        assert!(report.partitions_extended > 0);
    }
    drop(index);
    let reqs = requests(&probes);
    let want: Vec<QueryOutcome> = {
        let c = Climber::open(&v4).unwrap();
        reqs.iter().map(|r| c.search(r)).collect()
    };
    copy_dir(&v4, &v3);
    downgrade_to_v3(&v3);
    let legacy = legacy_files(&v3);
    assert!(!legacy.is_empty());

    let ro = Climber::open(&v3).unwrap();
    let got: Vec<QueryOutcome> = reqs.iter().map(|r| ro.search(r)).collect();
    assert_eq!(got, want, "a read-only version-3 open answers otherwise");
    drop(ro);

    // A flush that does not merge keeps the version-3 files, now named by
    // a version-4 manifest beside the flush's pack; the first merging one
    // removes them.
    let flushed = root.join("flushed");
    copy_dir(&v3, &flushed);
    let rw = Climber::open_rw(&flushed).unwrap();
    let got: Vec<QueryOutcome> = reqs.iter().map(|r| rw.search(r)).collect();
    assert_eq!(got, want, "a writable version-3 open answers otherwise");
    assert_eq!(
        Manifest::load_with(&StdFs, &flushed)
            .unwrap()
            .format_version,
        3,
        "an open alone rewrote the manifest"
    );
    let mut merged_at = None;
    for cycle in 0..MAX_EXTENSIONS {
        let extra = Domain::RandomWalk.generate(20, 3_000 + cycle as u64);
        let batch: Vec<Vec<f32>> = (0..20).map(|i| extra.get(i as u64).to_vec()).collect();
        rw.append_batch(&batch).unwrap();
        probes.push(batch[0].clone());
        rw.flush().unwrap();
        let m = Manifest::load_with(&StdFs, &flushed).unwrap();
        assert_eq!(m.format_version, FORMAT_VERSION);
        if legacy_files(&flushed).is_empty() {
            assert!((m.partitions.iter().flat_map(|e| &e.extensions)).all(|x| x.pack.is_some()));
            merged_at = Some(cycle);
            break;
        }
        assert_eq!(legacy_files(&flushed), legacy, "cycle {cycle}");
    }
    // Two flushes' images were live: the third flush after them merges.
    assert_eq!(merged_at, Some(2));
    let reqs = requests(&probes);
    let want: Vec<QueryOutcome> = reqs.iter().map(|r| rw.search(r)).collect();
    drop(rw);
    let cold = Climber::open(&flushed).unwrap();
    let got: Vec<QueryOutcome> = reqs.iter().map(|r| cold.search(r)).collect();
    assert_eq!(got, want, "the merged directory answers otherwise");

    // A compaction removes them too, and every pack.
    let compacted = root.join("compacted");
    copy_dir(&v3, &compacted);
    let rw = Climber::open_rw(&compacted).unwrap();
    rw.compact().unwrap();
    drop(rw);
    assert_eq!(legacy_files(&compacted), BTreeSet::new());
    assert_eq!(
        names(&compacted, |n| parse_pack_file_name(n).is_some()),
        BTreeSet::new()
    );
    let reqs = requests(&probes[..8]);
    let want: Vec<QueryOutcome> = {
        let c = Climber::open(&v4).unwrap();
        reqs.iter().map(|r| c.search(r)).collect()
    };
    let cold = Climber::open(&compacted).unwrap();
    let got: Vec<QueryOutcome> = reqs.iter().map(|r| cold.search(r)).collect();
    assert_eq!(got, want, "the compacted directory answers otherwise");
    fs::remove_dir_all(&root).ok();
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
