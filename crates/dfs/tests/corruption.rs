//! Corruption test suite for the persisted index directory, exercised at
//! the storage layer: every damage mode must surface from
//! [`DiskStore::open_validated`] / [`Manifest::load_with`] as a distinct typed
//! [`OpenError`] — never a panic, never a silently served index. The same
//! five scenarios are asserted end-to-end through `Climber::open` in the
//! workspace-level `tests/persistence.rs`.

use climber_dfs::format::{PartitionReader, PartitionWriter};
use climber_dfs::fsio::{std_fs, write_file_atomic_with, StdFs};
use climber_dfs::manifest::{
    xxh64, FileEntry, Manifest, OpenError, PartitionEntry, FORMAT_VERSION, MANIFEST_FILE,
};
use climber_dfs::store::{partition_file_name, staged_path_of, DiskStore, PartitionStore};
use std::fs;
use std::path::{Path, PathBuf};

/// Writes a small but realistic index directory: two partition files, an
/// opaque skeleton blob, and a sealed manifest. Returns the directory.
fn persisted_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("climber-corrupt-{tag}-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).unwrap();

    let mut partitions = Vec::new();
    let mut num_records = 0u64;
    for (pid, node, n) in [(0u32, 5u64, 7usize), (1, 9, 3)] {
        let mut w = PartitionWriter::new(pid as u64, 4);
        let recs: Vec<(u64, Vec<f32>)> = (0..n)
            .map(|i| {
                let v = (pid as usize * 100 + i) as f32;
                (num_records + i as u64, vec![v, -v, v * 0.5, 1.0])
            })
            .collect();
        w.push_cluster(node, recs.iter().map(|(id, v)| (*id, v.as_slice())));
        let bytes = w.finish();
        write_file_atomic_with(&StdFs, &dir.join(partition_file_name(pid)), &bytes).unwrap();
        partitions.push(PartitionEntry {
            id: pid,
            bytes: bytes.len() as u64,
            checksum: xxh64(&bytes, 0),
            records: n as u64,
            extensions: Vec::new(),
        });
        num_records += n as u64;
    }

    let skeleton_blob: Vec<u8> = (0u8..48).collect();
    write_file_atomic_with(&StdFs, &dir.join("skeleton.clsk"), &skeleton_blob).unwrap();

    Manifest {
        config: vec![0xAA; 8],
        fingerprint: Manifest::fingerprint_of(4, num_records, &partitions),
        num_records,
        max_series_id: Some(num_records - 1),
        series_len: 4,
        generation: 0,
        journal: None,
        skeleton: FileEntry {
            bytes: skeleton_blob.len() as u64,
            checksum: xxh64(&skeleton_blob, 0),
        },
        partitions,
    }
    .write_atomic_with(&StdFs, &dir)
    .unwrap();
    dir
}

/// A strict, cacheless validated open over the real filesystem.
fn open_validated(dir: &Path, read_only: bool) -> Result<(DiskStore, Manifest), OpenError> {
    DiskStore::open_validated(dir.to_path_buf(), read_only, std_fs(), false, None)
        .map(|(store, manifest, _)| (store, manifest))
}

fn open(dir: &Path) -> Result<(DiskStore, Manifest), OpenError> {
    open_validated(dir, true)
}

#[test]
fn pristine_directory_opens_and_serves() {
    let dir = persisted_dir("pristine");
    let (store, manifest) = open(&dir).unwrap();
    assert!(store.is_read_only());
    assert_eq!(store.ids(), vec![0, 1]);
    assert_eq!(manifest.num_records, 10);
    assert_eq!(manifest.partition(1).unwrap().records, 3);
    // records are readable through the validated store
    let mut out = Vec::new();
    (store.open(0).unwrap()).for_each_in_cluster(5, |id, vals| out.push((id, vals.to_vec())));
    assert_eq!(out.len(), 7);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn scenario_1_truncated_manifest() {
    let dir = persisted_dir("trunc");
    let path = dir.join(MANIFEST_FILE);
    let bytes = fs::read(&path).unwrap();
    for cut in [bytes.len() - 1, bytes.len() / 2, 10] {
        fs::write(&path, &bytes[..cut]).unwrap();
        assert!(
            matches!(open(&dir), Err(OpenError::CorruptManifest(_))),
            "cut at {cut} not typed"
        );
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn scenario_2_flipped_byte_in_cluster_block() {
    let dir = persisted_dir("flip");
    let path = dir.join(partition_file_name(1));
    let mut bytes = fs::read(&path).unwrap();
    // deep inside the record payload of the single cluster
    let at = bytes.len() - 6;
    bytes[at] ^= 0x01;
    fs::write(&path, &bytes).unwrap();
    match open(&dir) {
        Err(OpenError::ChecksumMismatch { what, .. }) => assert_eq!(what, "partition 1"),
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn scenario_3_wrong_magic() {
    let dir = persisted_dir("magic");
    let path = dir.join(MANIFEST_FILE);
    let mut bytes = fs::read(&path).unwrap();
    bytes[0..4].copy_from_slice(b"NOPE");
    fs::write(&path, &bytes).unwrap();
    match open(&dir) {
        Err(OpenError::BadMagic { found }) => assert_eq!(&found, b"NOPE"),
        other => panic!("expected BadMagic, got {other:?}"),
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn scenario_4_future_format_version() {
    let dir = persisted_dir("future");
    let path = dir.join(MANIFEST_FILE);
    let mut bytes = fs::read(&path).unwrap();
    bytes[4..8].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
    // re-seal the self-checksum so the version check is what fires
    let body = bytes.len() - 8;
    let sum = xxh64(&bytes[..body], 0);
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
    fs::write(&path, &bytes).unwrap();
    match open(&dir) {
        Err(OpenError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, FORMAT_VERSION + 1);
            assert_eq!(supported, FORMAT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn scenario_5_missing_partition_file() {
    let dir = persisted_dir("missing");
    fs::remove_file(dir.join(partition_file_name(0))).unwrap();
    match open(&dir) {
        Err(OpenError::MissingPartition { id, path }) => {
            assert_eq!(id, 0);
            assert!(path.ends_with(partition_file_name(0)));
        }
        other => panic!("expected MissingPartition, got {other:?}"),
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn grown_partition_file_is_a_size_mismatch() {
    let dir = persisted_dir("grown");
    let path = dir.join(partition_file_name(1));
    let mut bytes = fs::read(&path).unwrap();
    bytes.push(0);
    fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        open(&dir),
        Err(OpenError::PartitionSizeMismatch { id: 1, .. })
    ));
    fs::remove_dir_all(&dir).ok();
}

/// A partition file whose header declares another series length than the
/// manifest, with the manifest entry re-sealed to describe it exactly
/// (size, checksum, record count, fingerprint): only the header-vs-manifest
/// comparison can tell. Returns the directory.
fn dir_with_a_longer_series_partition(tag: &str) -> PathBuf {
    let dir = persisted_dir(tag);
    let mut manifest = Manifest::load_with(&StdFs, &dir).unwrap();
    let mut w = PartitionWriter::new(1, 5);
    let recs: Vec<(u64, Vec<f32>)> = (7..10).map(|id| (id, vec![id as f32; 5])).collect();
    w.push_cluster(9, recs.iter().map(|(id, v)| (*id, v.as_slice())));
    let bytes = w.finish();
    write_file_atomic_with(&StdFs, &dir.join(partition_file_name(1)), &bytes).unwrap();
    manifest.partitions[1].bytes = bytes.len() as u64;
    manifest.partitions[1].checksum = xxh64(&bytes, 0);
    manifest.fingerprint = Manifest::fingerprint_of(
        manifest.series_len,
        manifest.num_records,
        &manifest.partitions,
    );
    manifest.write_atomic_with(&StdFs, &dir).unwrap();
    dir
}

#[test]
fn partition_of_another_series_length_is_refused_by_a_strict_open() {
    let dir = dir_with_a_longer_series_partition("serieslen-strict");
    match open(&dir) {
        Err(OpenError::CorruptPartition { id: 1, reason }) => {
            assert!(
                reason.contains("series length 5 ≠ manifest 4"),
                "unexpected reason: {reason}"
            );
        }
        other => panic!("expected CorruptPartition, got {other:?}"),
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn partition_of_another_series_length_is_quarantined() {
    let dir = dir_with_a_longer_series_partition("serieslen-quarantine");
    let (store, _, _) =
        DiskStore::open_validated(dir.clone(), false, std_fs(), true, None).unwrap();
    assert_eq!(store.quarantined(), vec![1]);
    assert!(store.open(1).is_err(), "a quarantined partition opened");
    assert_eq!(store.open(0).unwrap().series_len(), 4);
    // Still refused when an operator asks for it back: the bytes match the
    // manifest entry, the header still does not match the manifest.
    let entry = (Manifest::load_with(&StdFs, &dir).unwrap().partition(1))
        .unwrap()
        .clone();
    assert!(!store.try_readmit(&entry).unwrap());
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn read_only_store_rejects_writes_and_ignores_strays() {
    let dir = persisted_dir("ro");
    // a stray partition file not listed in the manifest
    let mut w = PartitionWriter::new(7, 4);
    w.push_cluster(1, vec![(99u64, &[0.0f32, 0.0, 0.0, 0.0][..])]);
    fs::write(dir.join(partition_file_name(7)), w.finish()).unwrap();

    let (store, _) = open(&dir).unwrap();
    assert_eq!(
        store.ids(),
        vec![0, 1],
        "stray partition must not be served"
    );
    let mut w = PartitionWriter::new(0, 4);
    w.push_cluster(2, vec![(1u64, &[0.0f32, 0.0, 0.0, 0.0][..])]);
    let err = store.put(0, w.finish(), || ()).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::PermissionDenied);
    fs::remove_dir_all(&dir).ok();
}

/// The read-write open path: same validation as read-only (a damaged
/// directory is rejected identically), but `put` works — staged to a
/// `.new` sibling so the committed file a live manifest references stays
/// intact until `commit_staged` installs the replacement.
#[test]
fn read_write_open_validates_then_accepts_puts() {
    let dir = persisted_dir("rw");
    let (store, manifest) = open_validated(&dir, false).unwrap();
    assert!(!store.is_read_only());
    assert_eq!(store.ids(), manifest.partition_ids());

    let mut w = PartitionWriter::new(0, 4);
    w.push_cluster(2, vec![(1u64, &[9.0f32, 9.0, 9.0, 9.0][..])]);
    let committed = fs::read(dir.join(partition_file_name(0))).unwrap();
    store.put(0, w.finish(), || ()).unwrap();
    // the store serves the staged bytes...
    assert_eq!(store.open(0).unwrap().record_count(), 1);
    // ...but the committed file is untouched: the put is staged beside it.
    assert_eq!(
        fs::read(dir.join(partition_file_name(0))).unwrap(),
        committed
    );
    let staged = dir.join(format!("{}.new", partition_file_name(0)));
    assert!(staged.exists(), "put must stage a .new sibling");
    // no temp droppings from the atomic stage
    let stray: Vec<_> = fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().contains(".tmp"))
        .collect();
    assert!(stray.is_empty(), "temp files left: {stray:?}");

    // An abandoned stage is harmless: reopening validates the committed
    // file, succeeds, and sweeps the stray `.new` — never a third state.
    {
        let (reopened, _) = open_validated(&dir, false).unwrap();
        assert_eq!(reopened.open(0).unwrap().record_count(), 7);
    }
    assert!(!staged.exists(), "stray stage must be swept at open");

    // Re-stage and install. Now the committed file really changed under
    // the sealed manifest: until the caller re-seals, reopening is
    // rejected — the validation that makes an unsealed rewrite
    // detectable, not silent.
    let (store, _) = open_validated(&dir, false).unwrap();
    let mut w = PartitionWriter::new(0, 4);
    w.push_cluster(2, vec![(1u64, &[9.0f32, 9.0, 9.0, 9.0][..])]);
    store.put(0, w.finish(), || ()).unwrap();
    store.commit_staged().unwrap();
    assert!(matches!(
        open_validated(&dir, false),
        Err(OpenError::PartitionSizeMismatch { id: 0, .. } | OpenError::ChecksumMismatch { .. })
    ));
    fs::remove_dir_all(&dir).ok();
}

/// A disk put describes exactly what it staged — the seal's manifest
/// entry, no re-read needed, differing from the committed one — and
/// refuses bytes that are not a partition image; a build store's put
/// stages like any other.
#[test]
fn staging_puts_describe_the_stored_bytes() {
    let dir = persisted_dir("receipt");
    let (store, manifest) = open_validated(&dir, false).unwrap();
    assert_eq!(store.entry(0).as_ref(), manifest.partition(0));
    let mut w = PartitionWriter::new(0, 4);
    let recs: Vec<(u64, [f32; 4])> = (0..50).map(|i| (i, [i as f32, 0.5, -1.0, 2.0])).collect();
    w.push_cluster(2, recs.iter().map(|(id, v)| (*id, &v[..])));
    let image = w.finish();
    store.put(0, image.clone(), || ()).unwrap();
    let entry = store.entry(0).expect("a staging put");
    assert_ne!(Some(&entry), manifest.partition(0), "the put is published");
    let stored = store.image(0).unwrap();
    assert_eq!(stored, image);
    assert_eq!(entry.bytes, stored.len() as u64);
    assert_eq!(entry.checksum, xxh64(&stored, 0));
    assert_eq!((entry.records, entry.extensions.len()), (50, 0));
    assert_eq!(store.open(0).unwrap().raw_bytes(), &image[..]);
    let err = store.put(1, vec![0u8; 64].into(), || ()).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert_eq!(store.open(1).unwrap().record_count(), 3, "committed file");
    assert_eq!(store.entry(1).as_ref(), manifest.partition(1));

    let build_dir = dir.join("build");
    let build = DiskStore::create(&build_dir, std_fs()).unwrap();
    assert!(build.ids().is_empty());
    build.put(0, image.clone(), || ()).unwrap();
    assert_eq!(build.entry(0), Some(entry));
    assert_eq!(build.ids(), vec![0]);
    assert_eq!(fs::read(staged_path_of(&build_dir, 0)).unwrap(), &image[..]);
    assert!(!build_dir.join(partition_file_name(0)).exists());
    fs::remove_dir_all(&dir).ok();
}

/// Walks everything an `Ok` reader hands out; any access outside the
/// image would panic on a slice bound.
fn touch_every_record(reader: &PartitionReader) -> u64 {
    let mut seen = 0u64;
    let mut values = vec![0.0f32; reader.series_len()];
    for node in reader.cluster_ids() {
        let recs = reader.cluster_records(node).expect("listed cluster");
        let view = reader.cluster_view(node).expect("listed cluster");
        assert_eq!(recs.len(), view.len());
        assert_eq!(recs.ids().count(), recs.len());
        for i in 0..recs.len() {
            assert_eq!(recs.id(i), view.records().id(i));
            recs.decode_into(i, &mut values);
        }
        seen += view.for_each(|_, v| assert_eq!(v.len(), reader.series_len()));
    }
    for (_, recs) in reader.clusters() {
        assert!(recs.len() as u64 <= reader.record_count());
    }
    reader.any_id(|_| false);
    seen
}

/// The decoder contract of the one partition format: every truncation of
/// a valid multi-cluster image and every corruption of a header or
/// directory byte (each single bit, and the whole byte) decodes to `Ok`
/// or `Err` — never a panic — and an `Ok` reader's accessors stay inside
/// the image.
#[test]
fn partition_decoder_survives_every_truncation_and_header_flip() {
    let mut w = PartitionWriter::new(7, 5);
    let mut id = 0u64;
    for (node, n) in [(11u64, 4usize), (12, 0), (40, 9)] {
        let recs: Vec<(u64, [f32; 5])> = (0..n)
            .map(|i| {
                id += 1;
                (id, [i as f32, -1.5, 0.25, node as f32, 3.0])
            })
            .collect();
        w.push_cluster(node, recs.iter().map(|(id, v)| (*id, &v[..])));
    }
    let image = w.finish().to_vec();
    let pristine = PartitionReader::open(image.clone().into()).unwrap();
    let header_and_directory = pristine.header_bytes();
    assert_eq!(touch_every_record(&pristine), 13);

    let open_and_walk = |bytes: Vec<u8>, what: String| {
        let outcome = std::panic::catch_unwind(|| {
            PartitionReader::open(bytes.into()).map(|r| touch_every_record(&r))
        });
        outcome.unwrap_or_else(|_| panic!("decoder panicked on {what}"))
    };
    for cut in 0..image.len() {
        let got = open_and_walk(image[..cut].to_vec(), format!("truncation to {cut}"));
        assert!(got.is_err(), "truncation to {cut} bytes was accepted");
    }
    let mut accepted = 0;
    for at in 0..header_and_directory {
        for mask in (0..8).map(|bit| 1u8 << bit).chain([0xFF]) {
            let mut bytes = image.clone();
            bytes[at] ^= mask;
            let what = format!("byte {at} ^ {mask:#04x}");
            if let Ok(seen) = open_and_walk(bytes, what.clone()) {
                // Only a field no length depends on (group id, a node id)
                // can change and still parse.
                assert_eq!(seen, 13, "{what} changed the record count");
                accepted += 1;
            }
        }
    }
    assert!(accepted > 0, "group-id flips must still parse");

    // Two fields at once: a record size and a record count whose product
    // overflows must be refused, not wrapped into a plausible length.
    // (Directory entry i sits at 24 + 20 i: node u64, start u64, count u32.)
    let mut bytes = image.clone();
    bytes[16..20].copy_from_slice(&u32::MAX.to_le_bytes()); // series_len
    bytes[24 + 16..24 + 20].copy_from_slice(&u32::MAX.to_le_bytes()); // first count
    for entry in [1, 2] {
        // keep the later entries' starts the running total
        let at = 24 + 20 * entry + 8;
        bytes[at..at + 8].copy_from_slice(&u64::from(u32::MAX).to_le_bytes());
    }
    assert!(open_and_walk(bytes, "overflowing size x count".into()).is_err());
}

#[test]
fn missing_manifest_is_typed() {
    let dir = persisted_dir("nomanifest");
    fs::remove_file(dir.join(MANIFEST_FILE)).unwrap();
    assert!(matches!(open(&dir), Err(OpenError::MissingManifest(_))));
    fs::remove_dir_all(&dir).ok();
}
