//! The versioned on-disk index manifest.
//!
//! A persisted CLIMBER index directory holds, per partition, one base
//! image (`part_XXXXXXXX.clbp`); the extension images flushes appended,
//! packed per flush into a few *pack* files (`pack_<generation>.<k>.clbp`,
//! each the extension images of many partitions back to back); the
//! serialised skeleton (`skeleton.clsk`); and this module's
//! `MANIFEST.clmf` — the commit record that makes the directory a *valid
//! index* rather than a pile of files:
//!
//! ```text
//! magic "CLMF" | format_version u32 (= FORMAT_VERSION) | flags u32 (reserved)
//! fingerprint u64             — dataset fingerprint (see [`Manifest::fingerprint_of`])
//! num_records u64 | max_series_id u64 (u64::MAX = none) | series_len u32
//! generation u64              — segment generation (bumped per flush)
//! journal flag u8 (+ bytes u64, xxh64 u64 when 1)   — update journal
//! config blob  (u64 len + bytes)   — opaque encoded IndexConfig
//! skeleton: bytes u64, xxh64 u64
//! partition count u32
//!   per partition: id u32, file count u32 (≥ 1)
//!     per file, in file order: file u64, bytes u64, xxh64 u64, records u64,
//!       place u8 — 0: its own file (the base); 1: in a pack (an
//!       extension), then k u32, offset u64
//! manifest xxh64 u64          — checksum of every preceding byte
//! ```
//!
//! A partition's files are ordered: the base image first (file `0`, always
//! its own file), then its extension images by strictly ascending file
//! number `n ≥ 1` — the segment generation of the flush that wrote it. An
//! extension lies `bytes` bytes from `offset` on in pack
//! `pack_<n>.<k>.clbp`. A query reads a node's cluster from every image in
//! that order.
//!
//! All integers little-endian. Writers go through
//! [`Manifest::write_atomic_with`] (temp file + fsync + atomic rename +
//! directory fsync) with the manifest written *last*, so a crash mid-save
//! leaves either the previous valid index or no manifest — never a torn
//! one. Readers validate magic, version, the manifest's own trailing
//! checksum, and (via [`crate::store::DiskStore::open_validated`]) every
//! partition file's size and checksum, reporting failures as typed
//! [`OpenError`]s.
//!
//! Version/compat policy: there is one layout, [`FORMAT_VERSION`], bumped
//! on any layout change. A manifest of any other version — older or newer
//! — fails every open with [`OpenError::UnsupportedVersion`] before
//! anything else is read or touched, rather than being guessed at.
//! Compatibility across builds is kept by reading a committed directory of
//! the current version, not by decoders of retired layouts.

use crate::format::{ByteReader, Decode, Encode};
use crate::fsio::ClimberFs;
use crate::store::PartitionId;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// File name of the manifest inside an index directory.
pub const MANIFEST_FILE: &str = "MANIFEST.clmf";

/// Magic prefix of a manifest file.
pub const MANIFEST_MAGIC: [u8; 4] = *b"CLMF";

/// The one on-disk index format this build reads and writes: each
/// partition entry an ordered list of images (a base image, then its
/// extension images, each placed in a pack at an offset), with the segment
/// generation and the optional update-journal entry. A directory of any
/// other version is refused.
pub const FORMAT_VERSION: u32 = 4;

// ---------------------------------------------------------------------------
// xxHash64
// ---------------------------------------------------------------------------

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

#[inline]
fn xxh_round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

#[inline]
fn xxh_merge(h: u64, v: u64) -> u64 {
    (h ^ xxh_round(0, v)).wrapping_mul(P1).wrapping_add(P4)
}

#[inline]
fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().unwrap())
}

/// xxHash64 of `data` under `seed` — the integrity checksum of every file
/// a persisted index references. Hand-rolled from the XXH64 specification
/// (no registry access for the `xxhash-rust` crate); it is a *corruption
/// detector*, not a cryptographic commitment.
pub fn xxh64(data: &[u8], seed: u64) -> u64 {
    let mut rest = data;
    let mut h: u64;
    if rest.len() >= 32 {
        let mut v1 = seed.wrapping_add(P1).wrapping_add(P2);
        let mut v2 = seed.wrapping_add(P2);
        let mut v3 = seed;
        let mut v4 = seed.wrapping_sub(P1);
        while rest.len() >= 32 {
            v1 = xxh_round(v1, le_u64(&rest[0..8]));
            v2 = xxh_round(v2, le_u64(&rest[8..16]));
            v3 = xxh_round(v3, le_u64(&rest[16..24]));
            v4 = xxh_round(v4, le_u64(&rest[24..32]));
            rest = &rest[32..];
        }
        h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        for v in [v1, v2, v3, v4] {
            h = xxh_merge(h, v);
        }
    } else {
        h = seed.wrapping_add(P5);
    }
    h = h.wrapping_add(data.len() as u64);
    while rest.len() >= 8 {
        h ^= xxh_round(0, le_u64(rest));
        h = h.rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
        rest = &rest[8..];
    }
    if rest.len() >= 4 {
        h ^= (u32::from_le_bytes(rest[..4].try_into().unwrap()) as u64).wrapping_mul(P1);
        h = h.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
        rest = &rest[4..];
    }
    for &b in rest {
        h ^= (b as u64).wrapping_mul(P5);
        h = h.rotate_left(11).wrapping_mul(P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^= h >> 32;
    h
}

// ---------------------------------------------------------------------------
// Typed open errors
// ---------------------------------------------------------------------------

/// Everything that can go wrong opening a persisted index. Every
/// corruption and incompatibility mode is a distinct variant so callers
/// (and the corruption test suite) can tell *what* is broken; opening
/// never panics and never yields a silently wrong index.
#[derive(Debug)]
pub enum OpenError {
    /// An underlying filesystem operation failed.
    Io(io::Error),
    /// The directory has no manifest (not a persisted index, or a save
    /// that never reached its commit point).
    MissingManifest(PathBuf),
    /// The manifest does not start with `CLMF`.
    BadMagic {
        /// The four bytes actually found.
        found: [u8; 4],
    },
    /// The manifest was written in a format version other than the one
    /// this build reads — an older one or a newer one.
    UnsupportedVersion {
        /// Version recorded in the manifest.
        found: u32,
        /// The one version this build reads ([`FORMAT_VERSION`]).
        supported: u32,
    },
    /// The manifest is structurally damaged (truncated, trailing bytes,
    /// or its own checksum does not match).
    CorruptManifest(String),
    /// A partition file listed in the manifest does not exist.
    MissingPartition {
        /// The missing partition.
        id: PartitionId,
        /// Where it was expected.
        path: PathBuf,
    },
    /// A partition file's size differs from the manifest's byte range.
    PartitionSizeMismatch {
        /// The damaged partition.
        id: PartitionId,
        /// Bytes the manifest promises.
        expected: u64,
        /// Bytes actually on disk.
        found: u64,
    },
    /// A partition file matches its manifest entry byte for byte but is
    /// not a partition this build reads (wrong magic, or a format version
    /// other than the one supported — e.g. a file written by a build that
    /// had an optional version-2 encoding).
    CorruptPartition {
        /// The unreadable partition.
        id: PartitionId,
        /// What the header check found, magic or version included.
        reason: String,
    },
    /// A file's content hash differs from the manifest (bit rot, torn
    /// write, or tampering).
    ChecksumMismatch {
        /// Which file ("partition 3", "skeleton", ...).
        what: String,
        /// Checksum the manifest promises.
        expected: u64,
        /// Checksum of the bytes on disk.
        found: u64,
    },
    /// The skeleton file failed to decode.
    CorruptSkeleton(String),
    /// The manifest and the skeleton disagree about the index shape
    /// (e.g. different partition sets).
    StoreMismatch(String),
    /// The manifest references an update journal that does not exist.
    MissingJournal(PathBuf),
    /// The update journal failed to decode.
    CorruptJournal(String),
    /// The update journal belongs to a different segment generation than
    /// the manifest — files from two different saves were mixed, so the
    /// journal's pending updates cannot be trusted against these
    /// partitions.
    StaleGeneration {
        /// Generation the manifest was sealed at.
        manifest: u64,
        /// Generation embedded in the journal file.
        journal: u64,
    },
    /// One shard of a sharded index failed to open. Wraps the shard's own
    /// typed failure so callers see both *which* shard is broken and
    /// *how* — a missing shard directory surfaces as
    /// `Shard { source: MissingManifest, .. }`, a corrupt one as whatever
    /// the per-shard validation found.
    Shard {
        /// The failing shard's index (its `shard-NNN` directory).
        shard: usize,
        /// Why that shard failed to open.
        source: Box<OpenError>,
    },
    /// The shard-set super-manifest (`SHARDS.clsm`) is structurally
    /// damaged, or disagrees with the shards it describes (wrong checksum,
    /// truncation, generation drift against a shard's own manifest).
    CorruptShardSet(String),
}

impl fmt::Display for OpenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "I/O error opening index: {e}"),
            Self::MissingManifest(p) => write!(f, "no index manifest at {}", p.display()),
            Self::BadMagic { found } => write!(f, "bad manifest magic {found:?}"),
            Self::UnsupportedVersion { found, supported } => write!(
                f,
                "index format version {found}; this build reads only version {supported}"
            ),
            Self::CorruptManifest(m) => write!(f, "corrupt manifest: {m}"),
            Self::MissingPartition { id, path } => {
                write!(f, "partition {id} missing at {}", path.display())
            }
            Self::PartitionSizeMismatch {
                id,
                expected,
                found,
            } => write!(
                f,
                "partition {id} is {found} bytes, manifest says {expected}"
            ),
            Self::CorruptPartition { id, reason } => {
                write!(f, "partition {id} is unreadable: {reason}")
            }
            Self::ChecksumMismatch {
                what,
                expected,
                found,
            } => write!(
                f,
                "{what} checksum {found:#018x} != manifest {expected:#018x}"
            ),
            Self::CorruptSkeleton(m) => write!(f, "corrupt skeleton: {m}"),
            Self::StoreMismatch(m) => write!(f, "manifest/skeleton mismatch: {m}"),
            Self::MissingJournal(p) => write!(f, "update journal missing at {}", p.display()),
            Self::CorruptJournal(m) => write!(f, "corrupt update journal: {m}"),
            Self::StaleGeneration { manifest, journal } => write!(
                f,
                "update journal is from segment generation {journal}, manifest was sealed at {manifest}"
            ),
            Self::Shard { shard, source } => write!(f, "shard {shard} failed to open: {source}"),
            Self::CorruptShardSet(m) => write!(f, "corrupt shard set: {m}"),
        }
    }
}

impl std::error::Error for OpenError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Shard { source, .. } => Some(&**source),
            _ => None,
        }
    }
}

impl From<io::Error> for OpenError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

/// Size and checksum of one referenced file (the skeleton).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileEntry {
    /// File size in bytes.
    pub bytes: u64,
    /// xxHash64 of the file's content (seed 0).
    pub checksum: u64,
}

/// One partition's files: the base image's byte range and integrity data
/// and those of each extension image, in file order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionEntry {
    /// The partition id (`part_{id:08}.clbp`).
    pub id: PartitionId,
    /// Encoded size of the base image in bytes.
    pub bytes: u64,
    /// xxHash64 of the encoded base image (seed 0).
    pub checksum: u64,
    /// Records stored in the base image.
    pub records: u64,
    /// The extension images, in file order (ascending file number).
    pub extensions: Vec<ImageEntry>,
}

/// One image of a partition: its base image (`file` 0,
/// `part_{id:08}.clbp`) or an extension image, in a pack
/// (`pack_{file}.{k}.clbp`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImageEntry {
    /// `0` for the base image; else the extension's number (≥ 1), the
    /// generation of the flush that wrote it.
    pub file: u64,
    /// Encoded size in bytes.
    pub bytes: u64,
    /// xxHash64 of the encoded image (seed 0).
    pub checksum: u64,
    /// Records stored inside.
    pub records: u64,
    /// Where in a pack the image lies: `Some` for every extension, `None`
    /// for the base image, which is a file of its own.
    pub pack: Option<PackSlot>,
}

/// Where an extension image lies in the pack its flush wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackSlot {
    /// The pack's number among its flush's packs (`pack_<file>.<k>.clbp`).
    pub k: u32,
    /// Byte offset of the image in the pack.
    pub offset: u64,
}

impl PartitionEntry {
    /// Every image of the partition in file order: the base image (file
    /// 0), then its extensions.
    pub fn images(&self) -> impl Iterator<Item = ImageEntry> + '_ {
        let base = ImageEntry {
            file: 0,
            bytes: self.bytes,
            checksum: self.checksum,
            records: self.records,
            pack: None,
        };
        std::iter::once(base).chain(self.extensions.iter().copied())
    }

    /// Records the partition holds, base and extensions together.
    pub fn total_records(&self) -> u64 {
        self.records + self.extensions.iter().map(|x| x.records).sum::<u64>()
    }
}

/// The index directory's commit record: build configuration, dataset
/// fingerprint, and the byte range + checksum of every file the index is
/// made of. It is always encoded at [`FORMAT_VERSION`].
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Opaque encoded `IndexConfig` (decoded by `climber-index`; this
    /// crate sits below the config type in the dependency graph).
    pub config: Vec<u8>,
    /// Fingerprint of the indexed dataset (see [`Manifest::fingerprint_of`]).
    pub fingerprint: u64,
    /// Total records across partitions.
    pub num_records: u64,
    /// Largest stored series id, `None` for an empty index; reopening
    /// seeds the append id counter from this without scanning.
    pub max_series_id: Option<u64>,
    /// Length of every indexed series.
    pub series_len: u32,
    /// Segment generation: how many flush/compaction folds the sealed
    /// partitions have absorbed. A persisted update journal embeds the
    /// generation it was written against; opening rejects a mismatch as
    /// [`OpenError::StaleGeneration`].
    pub generation: u64,
    /// The update journal (pending delta records + tombstones), when one
    /// was persisted. `None` means the index was sealed with no pending
    /// updates.
    pub journal: Option<FileEntry>,
    /// The serialised skeleton file.
    pub skeleton: FileEntry,
    /// Every partition file, ascending by id.
    pub partitions: Vec<PartitionEntry>,
}

impl Manifest {
    /// Path of the manifest inside `dir`.
    fn path(dir: &Path) -> PathBuf {
        dir.join(MANIFEST_FILE)
    }

    /// The entry for partition `id`, if listed.
    pub fn partition(&self, id: PartitionId) -> Option<&PartitionEntry> {
        self.partitions.iter().find(|e| e.id == id)
    }

    /// All listed partition ids, in manifest order.
    pub fn partition_ids(&self) -> Vec<PartitionId> {
        self.partitions.iter().map(|e| e.id).collect()
    }

    /// Deterministic dataset fingerprint: xxHash64 over the series length,
    /// record count, every partition's `(id, records, checksum)` and each
    /// of its extensions' `(file, records, checksum)`. Two saves of the
    /// same built index agree; any change to the stored data changes it.
    pub fn fingerprint_of(series_len: u32, num_records: u64, partitions: &[PartitionEntry]) -> u64 {
        let mut buf = Vec::with_capacity(16 + partitions.len() * 20);
        (series_len).encode(&mut buf);
        num_records.encode(&mut buf);
        for e in partitions {
            e.id.encode(&mut buf);
            e.records.encode(&mut buf);
            e.checksum.encode(&mut buf);
            for x in &e.extensions {
                x.file.encode(&mut buf);
                x.records.encode(&mut buf);
                x.checksum.encode(&mut buf);
            }
        }
        xxh64(&buf, 0x0C11_B3E5)
    }

    /// Serialises the manifest, including its trailing self-checksum.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MANIFEST_MAGIC);
        FORMAT_VERSION.encode(&mut out);
        0u32.encode(&mut out); // flags, reserved
        self.fingerprint.encode(&mut out);
        self.num_records.encode(&mut out);
        self.max_series_id.unwrap_or(u64::MAX).encode(&mut out);
        self.series_len.encode(&mut out);
        self.generation.encode(&mut out);
        match &self.journal {
            Some(j) => {
                1u8.encode(&mut out);
                j.bytes.encode(&mut out);
                j.checksum.encode(&mut out);
            }
            None => 0u8.encode(&mut out),
        }
        self.config.encode(&mut out);
        self.skeleton.bytes.encode(&mut out);
        self.skeleton.checksum.encode(&mut out);
        (self.partitions.len() as u32).encode(&mut out);
        for e in &self.partitions {
            e.id.encode(&mut out);
            (1 + e.extensions.len() as u32).encode(&mut out);
            for image in e.images() {
                image.file.encode(&mut out);
                image.bytes.encode(&mut out);
                image.checksum.encode(&mut out);
                image.records.encode(&mut out);
                match image.pack {
                    None => 0u8.encode(&mut out),
                    Some(slot) => {
                        1u8.encode(&mut out);
                        slot.k.encode(&mut out);
                        slot.offset.encode(&mut out);
                    }
                }
            }
        }
        let sum = xxh64(&out, 0);
        sum.encode(&mut out);
        out
    }

    /// Parses and validates a manifest: magic, version, self-checksum,
    /// field structure. Inverse of [`Manifest::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Self, OpenError> {
        if bytes.len() < 4 {
            return Err(OpenError::CorruptManifest(format!(
                "{} bytes is shorter than the magic",
                bytes.len()
            )));
        }
        if bytes[0..4] != MANIFEST_MAGIC {
            return Err(OpenError::BadMagic {
                found: bytes[0..4].try_into().unwrap(),
            });
        }
        if bytes.len() < 8 {
            return Err(OpenError::CorruptManifest("truncated at version".into()));
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        if version != FORMAT_VERSION {
            return Err(OpenError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        // Trailing self-checksum: catches truncation and bit flips in one
        // check, before any field is trusted.
        if bytes.len() < 8 + 8 {
            return Err(OpenError::CorruptManifest(
                "truncated before checksum".into(),
            ));
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().unwrap());
        let actual = xxh64(body, 0);
        if stored != actual {
            return Err(OpenError::CorruptManifest(format!(
                "self-checksum {actual:#018x} != stored {stored:#018x}"
            )));
        }

        let mut r = ByteReader::new(&body[8..]);
        let parse = |e: String| OpenError::CorruptManifest(e);
        let flags = r.u32().map_err(parse)?;
        if flags != 0 {
            return Err(OpenError::CorruptManifest(format!(
                "unknown flags {flags:#x}"
            )));
        }
        let fingerprint = r.u64().map_err(parse)?;
        let num_records = r.u64().map_err(parse)?;
        let max_raw = r.u64().map_err(parse)?;
        let series_len = r.u32().map_err(parse)?;
        let generation = r.u64().map_err(parse)?;
        let journal = match r.u8().map_err(parse)? {
            0 => None,
            1 => Some(FileEntry {
                bytes: r.u64().map_err(parse)?,
                checksum: r.u64().map_err(parse)?,
            }),
            t => {
                return Err(OpenError::CorruptManifest(format!(
                    "unknown journal flag {t}"
                )))
            }
        };
        let config = Vec::<u8>::decode(&mut r).map_err(parse)?;
        let skeleton = FileEntry {
            bytes: r.u64().map_err(parse)?,
            checksum: r.u64().map_err(parse)?,
        };
        let n = r.u32().map_err(parse)? as usize;
        // Capped at what the remaining bytes can hold (41 per entry at
        // least: id, file count and one base image): the self-checksum is
        // an integrity check, not a defence.
        let mut partitions = Vec::with_capacity(n.min(r.remaining() / 41));
        for _ in 0..n {
            let id = r.u32().map_err(parse)?;
            let files = r.u32().map_err(parse)?;
            let mut file = |expect_base: bool| -> Result<ImageEntry, OpenError> {
                let file = r.u64().map_err(parse)?;
                if (file == 0) != expect_base {
                    return Err(OpenError::CorruptManifest(format!(
                        "partition {id}: file {file} out of place"
                    )));
                }
                let (bytes, checksum, records) = (
                    r.u64().map_err(parse)?,
                    r.u64().map_err(parse)?,
                    r.u64().map_err(parse)?,
                );
                // A base image is a file of its own; an extension is in a
                // pack.
                let place = r.u8().map_err(parse)?;
                let pack = match place {
                    0 if expect_base => None,
                    1 if !expect_base => Some(PackSlot {
                        k: r.u32().map_err(parse)?,
                        offset: r.u64().map_err(parse)?,
                    }),
                    _ => {
                        return Err(OpenError::CorruptManifest(format!(
                            "partition {id}: file {file} has place {place}"
                        )))
                    }
                };
                if pack.is_some_and(|slot| slot.offset.checked_add(bytes).is_none()) {
                    return Err(OpenError::CorruptManifest(format!(
                        "partition {id}: file {file} ends past the largest offset"
                    )));
                }
                Ok(ImageEntry {
                    file,
                    bytes,
                    checksum,
                    records,
                    pack,
                })
            };
            if files == 0 {
                return Err(OpenError::CorruptManifest(format!(
                    "partition {id} lists no file"
                )));
            }
            let base = file(true)?;
            let mut extensions: Vec<ImageEntry> = Vec::new();
            for _ in 1..files {
                let x = file(false)?;
                if extensions.last().is_some_and(|prev| prev.file >= x.file) {
                    return Err(OpenError::CorruptManifest(format!(
                        "partition {id}: extension {} out of order",
                        x.file
                    )));
                }
                extensions.push(x);
            }
            partitions.push(PartitionEntry {
                id,
                bytes: base.bytes,
                checksum: base.checksum,
                records: base.records,
                extensions,
            });
        }
        r.expect_end().map_err(parse)?;
        Ok(Self {
            config,
            fingerprint,
            num_records,
            max_series_id: (max_raw != u64::MAX).then_some(max_raw),
            series_len,
            generation,
            journal,
            skeleton,
            partitions,
        })
    }

    /// Writes the manifest to `dir` through `fs` via temp file + atomic
    /// rename + directory fsync, each step a distinct fault point. This is
    /// the save protocol's commit point: call it only after every file the
    /// manifest references is durably in place (or staged under its
    /// roll-forward `.new` sibling).
    pub fn write_atomic_with(&self, fs: &dyn ClimberFs, dir: &Path) -> io::Result<()> {
        crate::fsio::write_file_atomic_with(fs, &Self::path(dir), &self.encode())
    }

    /// Reads (through `fs`) and validates the manifest of `dir`.
    pub fn load_with(fs: &dyn ClimberFs, dir: &Path) -> Result<Self, OpenError> {
        let path = Self::path(dir);
        let bytes = match fs.read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Err(OpenError::MissingManifest(path))
            }
            Err(e) => return Err(OpenError::Io(e)),
        };
        Self::decode(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsio::StdFs;
    use std::fs;

    fn sample_manifest() -> Manifest {
        let partitions = vec![
            PartitionEntry {
                id: 0,
                bytes: 120,
                checksum: 0xABCD,
                records: 4,
                extensions: Vec::new(),
            },
            PartitionEntry {
                id: 3,
                bytes: 64,
                checksum: 0x1234,
                records: 1,
                extensions: Vec::new(),
            },
        ];
        Manifest {
            config: vec![1, 2, 3, 4],
            fingerprint: Manifest::fingerprint_of(16, 5, &partitions),
            num_records: 5,
            max_series_id: Some(4),
            series_len: 16,
            generation: 3,
            journal: Some(FileEntry {
                bytes: 48,
                checksum: 0xFACE,
            }),
            skeleton: FileEntry {
                bytes: 99,
                checksum: 0x77,
            },
            partitions,
        }
    }

    #[test]
    fn xxh64_known_vector_and_structure() {
        // The published XXH64 test vector for empty input, seed 0.
        assert_eq!(xxh64(b"", 0), 0xEF46_DB37_51D8_E999);
        // Long inputs take the 4-lane path; permutations must differ.
        let a: Vec<u8> = (0u8..100).collect();
        let mut b = a.clone();
        b[57] ^= 1;
        assert_ne!(xxh64(&a, 0), xxh64(&b, 0));
        assert_ne!(xxh64(&a, 0), xxh64(&a, 1), "seed changes the hash");
        assert_eq!(xxh64(&a, 9), xxh64(&a, 9), "deterministic");
        // Tail handling: every length around the 32/8/4-byte boundaries
        // hashes distinctly (prefix extension always changes the hash).
        let mut hashes: Vec<u64> = (0..40).map(|len| xxh64(&a[..len], 3)).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), 40);
    }

    /// [`sample_manifest`] with extension images, each in a pack, on both
    /// partitions.
    fn sample_extended() -> Manifest {
        let mut m = sample_manifest();
        let ext = |file, records, offset| ImageEntry {
            file,
            bytes: 40 + records * 24,
            checksum: 0x5EED ^ file,
            records,
            pack: Some(PackSlot { k: 0, offset }),
        };
        m.partitions[0].extensions = vec![ext(2, 3, 0), ext(5, 1, 0), ext(9, 2, 0)];
        m.partitions[1].extensions = vec![ext(4, 7, 0), ext(9, 1, 88)];
        m.num_records = m.partitions.iter().map(PartitionEntry::total_records).sum();
        m.fingerprint = Manifest::fingerprint_of(16, m.num_records, &m.partitions);
        m
    }

    #[test]
    fn manifest_roundtrip() {
        for m in [sample_manifest(), sample_extended()] {
            let back = Manifest::decode(&m.encode()).unwrap();
            assert_eq!(m, back);
        }
    }

    /// Every single-bit flip of `b` decodes to a typed error — or to a
    /// manifest that re-encodes to exactly the flipped bytes. Never a
    /// panic, never a silently different manifest.
    fn every_bit_flip_is_typed(b: &[u8]) {
        for bit in 0..b.len() * 8 {
            let mut bad = b.to_vec();
            bad[bit / 8] ^= 1 << (bit % 8);
            match Manifest::decode(&bad) {
                Ok(m) => assert_eq!(m.encode(), bad, "bit {bit} decoded to another manifest"),
                Err(
                    OpenError::CorruptManifest(_)
                    | OpenError::BadMagic { .. }
                    | OpenError::UnsupportedVersion { .. },
                ) => {}
                Err(e) => panic!("bit {bit}: untyped failure {e:?}"),
            }
        }
    }

    /// A version-4 manifest listing extension images in packs.
    #[test]
    fn every_bit_flip_of_a_v4_manifest_is_typed() {
        let b = sample_extended().encode();
        every_bit_flip_is_typed(&b);
    }

    /// Under a valid self-checksum, an extension whose `offset + bytes`
    /// overflows, an extension at place 0 (a file of its own), a base image
    /// placed in a pack and an unknown place are corrupt manifests, not a
    /// panic or an allocation later.
    #[test]
    fn impossible_pack_places_are_corrupt() {
        let mut overflow = sample_extended();
        overflow.partitions[1].extensions[1].pack = Some(PackSlot {
            k: 0,
            offset: u64::MAX - 8,
        });
        let b = overflow.encode();
        assert!(matches!(
            Manifest::decode(&b),
            Err(OpenError::CorruptManifest(m)) if m.contains("offset")
        ));
        let mut own_file = sample_extended();
        own_file.partitions[0].extensions[1].pack = None;
        assert!(matches!(
            Manifest::decode(&own_file.encode()),
            Err(OpenError::CorruptManifest(m)) if m.contains("place 0")
        ));
        // The base image's place byte, set to 1 (a pack) and to 2.
        let m = sample_manifest();
        let at = m.encode().len() - 8 - 1;
        for place in [1u8, 2] {
            let mut b = m.encode();
            assert_eq!(b[at], 0);
            b[at] = place;
            let body = b.len() - 8;
            let sum = xxh64(&b[..body], 0);
            b[body..].copy_from_slice(&sum.to_le_bytes());
            assert!(
                matches!(Manifest::decode(&b), Err(OpenError::CorruptManifest(_))),
                "place {place}"
            );
        }
    }

    /// An entry's files are a base (file 0) and then extensions
    /// by strictly ascending file number: anything else, under a valid
    /// self-checksum, is a corrupt manifest.
    #[test]
    fn misordered_files_are_corrupt() {
        let mut twice = sample_extended();
        twice.partitions[0].extensions[1].file = 2;
        let mut zero = sample_extended();
        zero.partitions[1].extensions[0].file = 0;
        for m in [twice, zero] {
            assert!(matches!(
                Manifest::decode(&m.encode()),
                Err(OpenError::CorruptManifest(_))
            ));
        }
    }

    #[test]
    fn manifest_empty_index_roundtrip() {
        let mut m = sample_manifest();
        m.max_series_id = None;
        m.partitions.clear();
        m.num_records = 0;
        let back = Manifest::decode(&m.encode()).unwrap();
        assert_eq!(back.max_series_id, None);
        assert!(back.partitions.is_empty());
    }

    #[test]
    fn manifest_without_journal_roundtrips() {
        let mut m = sample_manifest();
        m.journal = None;
        m.generation = 0;
        let back = Manifest::decode(&m.encode()).unwrap();
        assert_eq!(back.journal, None);
        assert_eq!(back.generation, 0);
        assert_eq!(m, back);
    }

    #[test]
    fn manifest_rejects_bad_magic() {
        let mut b = sample_manifest().encode();
        b[0] = b'X';
        assert!(matches!(
            Manifest::decode(&b),
            Err(OpenError::BadMagic { .. })
        ));
    }

    /// Every version but [`FORMAT_VERSION`] is refused — the retired
    /// layouts 1 to 3, the never-written 0 and a future one alike.
    #[test]
    fn manifest_rejects_future_version() {
        for version in [0, 1, 2, 3, FORMAT_VERSION + 1] {
            let mut b = sample_manifest().encode();
            b[4..8].copy_from_slice(&version.to_le_bytes());
            // Re-seal so the version check (not the checksum) fires.
            let body_len = b.len() - 8;
            let sum = xxh64(&b[..body_len], 0);
            b[body_len..].copy_from_slice(&sum.to_le_bytes());
            assert!(
                matches!(
                    Manifest::decode(&b),
                    Err(OpenError::UnsupportedVersion {
                        found,
                        supported: FORMAT_VERSION,
                    }) if found == version
                ),
                "version {version}"
            );
        }
    }

    #[test]
    fn manifest_rejects_truncation_and_flips() {
        let b = sample_manifest().encode();
        for cut in [0, 3, 7, 12, b.len() / 2, b.len() - 1] {
            assert!(
                matches!(
                    Manifest::decode(&b[..cut]),
                    Err(OpenError::CorruptManifest(_) | OpenError::BadMagic { .. })
                ),
                "cut at {cut}"
            );
        }
        // A flipped byte anywhere past the version field trips the
        // self-checksum.
        for i in 8..b.len() {
            let mut bad = b.clone();
            bad[i] ^= 0x40;
            assert!(
                matches!(Manifest::decode(&bad), Err(OpenError::CorruptManifest(_))),
                "flip at {i}"
            );
        }
    }

    #[test]
    fn crafted_partition_count_is_an_error_not_an_allocation() {
        // A partition count of u32::MAX with no entries behind it, under
        // a *valid* self-checksum: the checksum guards integrity only.
        let m = sample_manifest();
        let mut b = m.encode();
        // Each entry: id, file count, then one base file of four u64s
        // and its place.
        let at = b.len() - 8 - m.partitions.len() * 41 - 4;
        assert_eq!(b[at..at + 4], (m.partitions.len() as u32).to_le_bytes());
        b.truncate(at);
        b.extend_from_slice(&u32::MAX.to_le_bytes());
        let sum = xxh64(&b, 0);
        b.extend_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            Manifest::decode(&b),
            Err(OpenError::CorruptManifest(_))
        ));
    }

    #[test]
    fn fingerprint_tracks_content() {
        let m = sample_manifest();
        let base = Manifest::fingerprint_of(16, 5, &m.partitions);
        assert_eq!(base, m.fingerprint);
        let mut other = m.partitions.clone();
        other[1].checksum ^= 1;
        assert_ne!(base, Manifest::fingerprint_of(16, 5, &other));
        assert_ne!(base, Manifest::fingerprint_of(17, 5, &m.partitions));
    }

    #[test]
    fn write_atomic_then_load() {
        let dir = std::env::temp_dir().join(format!("climber-manifest-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let m = sample_manifest();
        m.write_atomic_with(&StdFs, &dir).unwrap();
        assert_eq!(Manifest::load_with(&StdFs, &dir).unwrap(), m);
        // No temp droppings left behind.
        let stray: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp"))
            .collect();
        assert!(stray.is_empty(), "temp files left: {stray:?}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_missing_dir_is_typed() {
        let dir = std::env::temp_dir().join("climber-manifest-definitely-absent");
        assert!(matches!(
            Manifest::load_with(&StdFs, &dir),
            Err(OpenError::MissingManifest(_))
        ));
    }

    #[test]
    fn open_error_display_is_informative() {
        for (found, supported) in [(3, 4), (9, 4)] {
            let e = OpenError::UnsupportedVersion { found, supported };
            assert_eq!(
                e.to_string(),
                format!("index format version {found}; this build reads only version {supported}")
            );
        }
        let e = OpenError::ChecksumMismatch {
            what: "partition 3".into(),
            expected: 1,
            found: 2,
        };
        assert!(e.to_string().contains("partition 3"));
    }
}
