//! Property test: the splice-based fold is **byte-identical** to the
//! decode → re-encode fold it replaced.
//!
//! A flush or compaction folds a partition by copying the encoded byte
//! ranges of its clusters into a new image, never decoding a record. This
//! test keeps the old fold alive as an oracle that shares no code with the
//! writer: every partition is decoded record by record before the fold,
//! the expected successor is assembled from those records, the pending
//! delta and the tombstones, and encoded by a from-the-format-doc encoder
//! written here. A compaction rewrites each folded partition's base image.
//! A flush gives a partition an extension image of its pending records,
//! predicted here too — unless that extension would pass a quarter of the
//! base image's bytes, when it rewrites the base and purges every
//! tombstoned record the partition holds. After the fold, for every
//! partition of the index:
//!
//! * the image a reader sees (base and extensions as one) equals the
//!   oracle's, bit for bit — including partitions the fold must *not*
//!   have touched;
//! * the persisted bytes are that image, verbatim — or, for an extended
//!   partition, its untouched base image and the predicted extension, at
//!   its predicted offset in the flush's one pack: the extensions back to
//!   back in ascending partition id, and nothing else;
//! * the committed manifest entry (length, checksum, record count per
//!   image) — recorded by the stage, not taken from re-reading the
//!   file — describes the persisted bytes exactly.
//!
//! Varied: generator domain, dataset size, append count and source, delta
//! records injected into trie nodes the partition never sealed, tombstones
//! over sealed and pending records, flush vs compact.

use climber_core::dfs::fsio::StdFs;
use climber_core::dfs::manifest::xxh64;
use climber_core::dfs::manifest::PackSlot;
use climber_core::dfs::store::{pack_file_name, partition_file_name, DiskStore, PartitionStore};
use climber_core::series::gen::Domain;
use climber_core::{Climber, ClimberConfig, Manifest};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;

const DOMAINS: [Domain; 4] = [Domain::RandomWalk, Domain::Eeg, Domain::Dna, Domain::TexMex];

/// Ids of the records injected straight into the delta segment (far above
/// anything the append counter hands out in these tests).
const INJECTED_BASE: u64 = 1 << 40;

type Records = Vec<(u64, Vec<f32>)>;

/// One partition, decoded: group id, series length, clusters in storage
/// order.
struct Decoded {
    group_id: u64,
    series_len: usize,
    clusters: Vec<(u64, Records)>,
}

fn decode(index: &Climber<DiskStore>, pid: u32) -> Decoded {
    let reader = index.store().open(pid).unwrap();
    let clusters = reader
        .cluster_ids()
        .into_iter()
        .map(|node| {
            let mut recs = Vec::new();
            reader.for_each_in_cluster(node, |id, vals| recs.push((id, vals.to_vec())));
            (node, recs)
        })
        .collect();
    Decoded {
        group_id: reader.group_id(),
        series_len: reader.series_len(),
        clusters,
    }
}

/// The CLBP v1 layout, written out from the format's documentation:
/// `magic | version | group | series_len | n_clusters | directory |
/// records`, everything little-endian.
fn encode_v1(p: &Decoded) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(b"CLBP");
    out.extend_from_slice(&1u32.to_le_bytes());
    out.extend_from_slice(&p.group_id.to_le_bytes());
    out.extend_from_slice(&(p.series_len as u32).to_le_bytes());
    out.extend_from_slice(&(p.clusters.len() as u32).to_le_bytes());
    let mut start = 0u64;
    for (node, recs) in &p.clusters {
        out.extend_from_slice(&node.to_le_bytes());
        out.extend_from_slice(&start.to_le_bytes());
        out.extend_from_slice(&(recs.len() as u32).to_le_bytes());
        start += recs.len() as u64;
    }
    for (id, vals) in p.clusters.iter().flat_map(|(_, recs)| recs) {
        out.extend_from_slice(&id.to_le_bytes());
        for v in vals {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    out
}

/// The fold as it was before the splice: sealed records minus `purge`,
/// then the node's delta records in ascending-id order minus `purge`;
/// clusters left empty vanish; delta clusters of never-sealed nodes follow
/// the sealed ones in node order.
fn oracle_fold(before: Decoded, folds: &BTreeMap<u64, Records>, purge: &BTreeSet<u64>) -> Decoded {
    let sealed: BTreeSet<u64> = before.clusters.iter().map(|(n, _)| *n).collect();
    let fresh = folds
        .keys()
        .filter(|n| !sealed.contains(n))
        .map(|&n| (n, Vec::new()));
    let clusters = before
        .clusters
        .into_iter()
        .chain(fresh)
        .filter_map(|(node, mut recs)| {
            let mut delta = folds.get(&node).cloned().unwrap_or_default();
            delta.sort_by_key(|(id, _)| *id);
            recs.extend(delta);
            recs.retain(|(id, _)| !purge.contains(id));
            (!recs.is_empty()).then_some((node, recs))
        })
        .collect();
    Decoded { clusters, ..before }
}

/// A flush's extension image of `before`'s partition: the pending
/// records alone, one cluster per trie node in node order, each in
/// ascending-id order. Returns the image and its record count.
fn oracle_extension(before: &Decoded, folds: &BTreeMap<u64, Records>) -> (Vec<u8>, u64) {
    let clusters: Vec<(u64, Records)> = (folds.iter())
        .map(|(&node, recs)| {
            let mut recs = recs.clone();
            recs.sort_by_key(|(id, _)| *id);
            (node, recs)
        })
        .collect();
    let records = clusters.iter().map(|(_, recs)| recs.len() as u64).sum();
    let extension = Decoded {
        group_id: before.group_id,
        series_len: before.series_len,
        clusters,
    };
    (encode_v1(&extension), records)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn spliced_fold_is_byte_identical_to_decode_and_reencode(
        seed in 0u64..500,
        n in 150usize..320,
        domain in 0usize..4,
        appends in 0usize..40,
        injected in 0usize..6,
        deletes in 0usize..24,
        flags in 0u8..4,
    ) {
        let (foreign, compact) = (flags & 1 != 0, flags & 2 != 0);
        let dir = std::env::temp_dir().join(format!(
            "climber-splice-{}-{seed}-{n}-{appends}-{deletes}",
            std::process::id()
        ));
        fs::remove_dir_all(&dir).ok();
        let ds = DOMAINS[domain].generate(n, seed);
        let cfg = ClimberConfig::default()
            .with_paa_segments(8)
            .with_pivots(32)
            .with_prefix_len(5)
            .with_capacity(50)
            .with_alpha(0.5)
            .with_epsilon(1)
            .with_seed(seed ^ 0xF01D)
            .with_workers(2);
        drop(Climber::build_on_disk(&ds, &dir, cfg).unwrap());
        let index = Climber::open_rw(&dir).unwrap();
        let pids = index.store().ids();

        // The delta: routed appends (from the indexed domain, or from a
        // foreign one so records land in sparsely populated leaves) …
        let source = if foreign { DOMAINS[(domain + 1) % 4] } else { DOMAINS[domain] };
        let extra = source.generate(appends.max(1), seed + 1);
        let appended: Vec<Vec<f32>> = (0..appends)
            .map(|i| {
                let mut v = extra.get(i as u64).to_vec();
                v.resize(ds.series_len(), 0.25);
                v
            })
            .collect();
        let appended_ids = index.append_batch(&appended).unwrap();
        // … plus records injected under trie nodes no partition ever
        // sealed (node ids past every real one), out of id order.
        for j in 0..injected {
            let pid = pids[(seed as usize + 7 * j) % pids.len()];
            let node = u64::MAX - (j as u64 % 2);
            let id = INJECTED_BASE + (injected - j) as u64;
            index.delta().append(pid, node, id, ds.get((j % n) as u64));
        }
        // Tombstones over sealed records, pending appends and injections.
        for j in 0..deletes {
            index.delete(((seed as usize + 13 * j) % n) as u64).unwrap();
        }
        if let (true, Some(&id)) = (deletes > 3, appended_ids.first()) {
            index.delete(id).unwrap();
        }
        if deletes > 5 && injected > 0 {
            prop_assert!(index.tombstones().delete(INJECTED_BASE + 1));
        }

        // Snapshot the fold's inputs, then predict every partition.
        let mut folds: BTreeMap<u32, BTreeMap<u64, Records>> = BTreeMap::new();
        let pending = index.delta().partitions();
        let view = index.delta().read();
        for &pid in &pending {
            for node in view.nodes_for(pid) {
                view.run(pid, node).unwrap().for_each(|id, vals| {
                    folds.entry(pid).or_default().entry(node).or_default().push((id, vals.to_vec()));
                });
            }
        }
        drop(view);
        let tombstoned: BTreeSet<u64> = index.tombstones().ids().into_iter().collect();
        let purge: BTreeSet<u64> = if compact {
            tombstoned.clone()
        } else {
            BTreeSet::new()
        };
        let mut expected: BTreeMap<u32, Vec<u8>> = BTreeMap::new();
        // Extended partitions: the untouched base image and the extension.
        let mut extended: BTreeMap<u32, (Vec<u8>, Vec<u8>, u64)> = BTreeMap::new();
        let mut rewritten = 0usize;
        for &pid in &pids {
            let before = decode(&index, pid);
            let holds_purged = before
                .clusters
                .iter()
                .flat_map(|(_, recs)| recs)
                .any(|(id, _)| purge.contains(id));
            let image = match folds.get(&pid) {
                None if !holds_purged => encode_v1(&before),
                None => {
                    rewritten += 1;
                    encode_v1(&oracle_fold(before, &BTreeMap::new(), &purge))
                }
                Some(f) if compact => {
                    rewritten += 1;
                    encode_v1(&oracle_fold(before, f, &purge))
                }
                Some(f) => {
                    let base = encode_v1(&before);
                    let (extension, records) = oracle_extension(&before, f);
                    if extension.len() * 4 > base.len() {
                        rewritten += 1;
                        encode_v1(&oracle_fold(before, f, &tombstoned))
                    } else {
                        extended.insert(pid, (base, extension, records));
                        encode_v1(&oracle_fold(before, f, &BTreeSet::new()))
                    }
                }
            };
            expected.insert(pid, image);
        }

        let report = if compact { index.compact() } else { index.flush() }.unwrap();
        prop_assert_eq!(report.partitions_rewritten, rewritten);
        prop_assert_eq!(report.partitions_extended, extended.len());

        let manifest = Manifest::load_with(&StdFs, &dir).unwrap();
        let pack = (!extended.is_empty())
            .then(|| fs::read(dir.join(pack_file_name(report.generation, 0))).unwrap());
        let mut offset = 0u64;
        for &pid in &pids {
            let want = &expected[&pid];
            let reader = index.store().open(pid).unwrap();
            prop_assert!(
                reader.raw_bytes() == &want[..],
                "partition {} differs from the decode/re-encode fold", pid
            );
            let stored = index.store().image(pid).unwrap();
            prop_assert!(stored[..] == want[..]);
            let entry = manifest.partition(pid).unwrap();
            let Some((base, extension, records)) = extended.get(&pid) else {
                prop_assert_eq!(entry.bytes, stored.len() as u64);
                prop_assert_eq!(entry.checksum, xxh64(&stored, 0));
                prop_assert_eq!(entry.records, reader.record_count());
                prop_assert!(entry.extensions.is_empty());
                continue;
            };
            let on_disk = fs::read(dir.join(partition_file_name(pid))).unwrap();
            prop_assert!(on_disk == *base, "partition {} rewrote its base", pid);
            prop_assert_eq!(entry.bytes, base.len() as u64);
            prop_assert_eq!(entry.checksum, xxh64(base, 0));
            prop_assert_eq!(entry.extensions.len(), 1);
            let x = entry.extensions[0];
            prop_assert_eq!(x.file, report.generation);
            prop_assert_eq!(x.pack, Some(PackSlot { k: 0, offset }));
            let at = offset as usize..offset as usize + extension.len();
            let on_disk = &pack.as_ref().unwrap()[at];
            prop_assert!(on_disk == &extension[..], "partition {}: extension differs", pid);
            offset += extension.len() as u64;
            prop_assert_eq!(x.bytes, extension.len() as u64);
            prop_assert_eq!(x.checksum, xxh64(extension, 0));
            prop_assert_eq!(x.records, *records);
            prop_assert_eq!(entry.total_records(), reader.record_count());
        }

        prop_assert_eq!(pack.map_or(0, |pack| pack.len() as u64), offset);

        // A cold reopen validates every stage-recorded entry against the
        // installed files.
        drop(index);
        let cold = Climber::open(&dir).unwrap();
        for &pid in &pids {
            prop_assert!(cold.store().open(pid).unwrap().raw_bytes() == &expected[&pid][..]);
        }
        fs::remove_dir_all(&dir).ok();
    }
}
