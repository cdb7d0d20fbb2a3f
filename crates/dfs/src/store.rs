//! The partition store: where encoded partitions live.
//!
//! [`DiskStore`] keeps files per partition under a directory, the
//! disk-based HDFS stand-in (CLIMBER is explicitly a *disk-based* system,
//! §II), and it is the one [`PartitionStore`]. An in-memory index is a
//! `DiskStore` over an in-memory filesystem ([`DiskStore::in_memory`], a
//! [`SimFs`]): the same files, the same protocol, the same reads, with
//! the bytes in a map instead of on a disk.
//!
//! A partition is a **base image** plus up to a few **extension images**,
//! each a CLBP image of its own: a flush appends a partition's pending
//! records as one more extension instead of rewriting the base. Reads see
//! the partition as one: a node's cluster is its cluster in the base
//! followed by its cluster in each extension, in file order, which is
//! exactly the cluster folding them into one base would give
//! ([`fold_partition`]).
//!
//! The store has **one** write protocol per kind of image, whether it was
//! [created](DiskStore::create) empty for a build or
//! [opened](DiskStore::open_validated) from a sealed manifest for a
//! fold. A base image is staged under the partition's `.new` sibling
//! (temp file, fsync, rename); the seal describes the partition from what
//! the store holds, commits the manifest, and only then
//! [installs](PartitionStore::commit_staged) the stage over the main
//! file. Extension images are not files of their own: a flush writes the
//! extension images of all the partitions it extends back to back, in
//! ascending partition id, into one new **pack** (`pack_<gen>.<k>.clbp`,
//! see [`pack_file_name`]; a few once they pass a few MiB) — written once
//! under its new name, fsynced, and made durable by the seal's directory
//! fsync before the manifest that names its images commits. No committed
//! file is ever written in place. A pack is removed once no image in it
//! is named any more — after a merge or base rewrites replaced them all —
//! and only after the manifest that no longer names them has committed. A
//! [`put`](PartitionStore::put) writes, fsyncs and publishes one base
//! image on the calling thread; [`stage_pack`](PartitionStore::stage_pack)
//! writes and fsyncs many partitions' extension images in one file, each
//! then [published](PartitionStore::publish) on its own.
//!
//! A query reads clusters, not partitions: [`read_clusters`] hands out
//! the trie-node clusters a plan names as [`ClusterView`]s. The store
//! keeps every image's parsed [`PartitionDirectory`], so a cluster is a
//! [`BlockCache`] hit or one ranged read of exactly its bytes — in a pack,
//! at its image's offset;
//! [`open`](PartitionStore::open) stays the whole-partition read that
//! folds, scrubs, seals and tests use, and never touches the cache.
//!
//! Every operation reports to an [`IoStats`], which is how experiments
//! observe "partitions touched" and bytes moved.
//!
//! [`read_clusters`]: PartitionStore::read_clusters

use crate::format::{fold_partition, ClusterPick, PartitionDirectory, PartitionReader, TrieNodeId};
use crate::fsio::{self, FsRef, SimFs};
use crate::manifest::{xxh64, ImageEntry, Manifest, OpenError, PackSlot, PartitionEntry};
use crate::page::{self, BlockCache, ClusterView};
use crate::stats::IoStats;
use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// File name of partition `id`'s base image inside an index directory.
pub fn partition_file_name(id: PartitionId) -> String {
    format!("part_{id:08}.clbp")
}

/// File name of partition `id`'s extension image `file` (≥ 1) inside an
/// index directory, as a version-3 build wrote it: in a file of its own.
/// A writable store still reads and removes these; it never writes one.
pub fn extension_file_name(id: PartitionId, file: u64) -> String {
    format!("part_{id:08}.x{file}.clbp")
}

/// The `(partition, file)` an [`extension_file_name`] names, or `None`
/// for any other name.
pub fn parse_extension_file_name(name: &str) -> Option<(PartitionId, u64)> {
    let rest = name.strip_prefix("part_")?.strip_suffix(".clbp")?;
    let (id, file) = rest.split_once(".x")?;
    let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    if id.len() != 8 || !digits(id) || !digits(file) {
        return None;
    }
    let parsed = (id.parse().ok()?, file.parse().ok()?);
    (extension_file_name(parsed.0, parsed.1) == name && parsed.1 > 0).then_some(parsed)
}

/// File name of pack `k` of the flush that committed generation
/// `generation`: the extension images of that flush's partitions, back to
/// back.
pub fn pack_file_name(generation: u64, k: u32) -> String {
    format!("pack_{generation}.{k}.clbp")
}

/// The `(generation, k)` a [`pack_file_name`] names, or `None` for any
/// other name.
pub fn parse_pack_file_name(name: &str) -> Option<(u64, u32)> {
    let rest = name.strip_prefix("pack_")?.strip_suffix(".clbp")?;
    let (generation, k) = rest.split_once('.')?;
    let parsed = (generation.parse().ok()?, k.parse().ok()?);
    (pack_file_name(parsed.0, parsed.1) == name && parsed.0 > 0).then_some(parsed)
}

/// Where an image lies in `dir`: a base image or a version-3 extension in
/// its own file, any other extension in its pack.
fn image_path(dir: &Path, id: PartitionId, image: &ImageEntry) -> PathBuf {
    dir.join(match (image.file, image.pack) {
        (0, _) => partition_file_name(id),
        (file, None) => extension_file_name(id, file),
        (file, Some(slot)) => pack_file_name(file, slot.k),
    })
}

/// Reads the image `slot` places in the file at `path`: the whole file,
/// or `len` bytes of a pack from the slot's offset — never the whole pack.
fn read_image(fs: &FsRef, path: &Path, slot: Option<PackSlot>, len: u64) -> io::Result<Bytes> {
    match slot {
        None => fs.read(path),
        Some(slot) => {
            let len = usize::try_from(len).map_err(|_| invalid_data(format!("{len} bytes")))?;
            Ok(fs.read_ranges(path, &[(slot.offset, len)])?.remove(0))
        }
    }
}

/// Subdirectory a quarantining open moves failed-validation partition
/// files into, preserving the evidence for a later
/// [`try_readmit`](DiskStore::try_readmit) or operator repair.
pub const QUARANTINE_DIR: &str = "QUARANTINE";

/// The roll-forward staging sibling of partition `id`'s base image inside
/// `dir`: every base `put` (and a seal copying into another directory)
/// lands here, and the rename over the main file happens only *after* the
/// next manifest commit — so a crash anywhere in a build or a fold leaves
/// the committed file untouched.
pub fn staged_path_of(dir: &Path, id: PartitionId) -> PathBuf {
    dir.join(format!("{}.new", partition_file_name(id)))
}

fn quarantine_path_of(dir: &Path, id: PartitionId) -> PathBuf {
    dir.join(QUARANTINE_DIR).join(partition_file_name(id))
}

/// Identifier of a physical partition (the paper's `β` ids).
pub type PartitionId = u32;

/// What a [`put`](PartitionStore::put) or a
/// [`stage_pack`](PartitionStore::stage_pack) took from an image: everything
/// a manifest records about it, taken while the bytes were in hand — so a
/// seal describes a built or folded partition without opening, re-reading
/// or re-hashing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PutReceipt {
    /// Length of the image.
    pub image_len: u64,
    /// xxHash64 (seed 0) of the image.
    pub checksum: u64,
    /// Records in the image.
    pub records: u64,
    /// Length of every stored series.
    pub series_len: u32,
}

impl PutReceipt {
    /// The manifest entry of partition `id` when this receipt's image is
    /// its base image and it has no extension.
    pub fn entry(&self, id: PartitionId) -> PartitionEntry {
        PartitionEntry {
            id,
            bytes: self.image_len,
            checksum: self.checksum,
            records: self.records,
            extensions: Vec::new(),
        }
    }

    /// The manifest entry of the image this receipt describes as file
    /// `file` of its partition, where `pack` places it.
    fn image(&self, file: u64, pack: Option<PackSlot>) -> ImageEntry {
        ImageEntry {
            file,
            bytes: self.image_len,
            checksum: self.checksum,
            records: self.records,
            pack,
        }
    }

    /// The receipt of an image already checked against its manifest
    /// entry `e`: taken from the entry, without hashing the image again.
    fn checked(e: &ImageEntry, directory: &PartitionDirectory) -> Self {
        Self {
            image_len: e.bytes,
            checksum: e.checksum,
            records: directory.record_count(),
            series_len: directory.series_len() as u32,
        }
    }

    fn of(bytes: &[u8], directory: &PartitionDirectory) -> Self {
        Self {
            image_len: bytes.len() as u64,
            checksum: xxh64(bytes, 0),
            records: directory.record_count(),
            series_len: directory.series_len() as u32,
        }
    }
}

/// Where a staged image goes in its partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layer {
    /// The base image: replaces the partition's base and every extension.
    Base,
    /// Extension image `file` (≥ 1, unique to the partition): follows the
    /// partition's extensions — or, when `merged`, replaces all of them.
    Extension { file: u64, merged: bool },
}

impl Layer {
    /// The file number: `0` for the base image.
    fn file(self) -> u64 {
        match self {
            Self::Base => 0,
            Self::Extension { file, .. } => file,
        }
    }
}

/// A partition's files as a fold's merge rule weighs them, known without
/// reading a byte of them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    /// The owning group id.
    pub group_id: u64,
    /// Length of every stored series.
    pub series_len: usize,
    /// Bytes of each image, base first, then the extensions in file order.
    pub files: Vec<u64>,
}

/// A partition image staged — written and fsynced — and not yet readable.
/// The store keeps only what the publish records — the receipt, the parsed
/// directory and the file the image sits in — never the image itself.
#[derive(Debug)]
pub struct Staged {
    id: PartitionId,
    layer: Layer,
    /// Where the image lies: a temp sibling of the `.new` stage for a base
    /// image, its pack for an extension.
    path: PathBuf,
    /// Where in its pack an extension lies.
    slot: Option<PackSlot>,
    receipt: PutReceipt,
    directory: PartitionDirectory,
}

impl Staged {
    /// The partition the image belongs to.
    pub fn id(&self) -> PartitionId {
        self.id
    }
}

/// Parses a partition's images, base first.
fn parse_images(images: Vec<Bytes>) -> io::Result<Vec<PartitionReader>> {
    (images.into_iter())
        .map(|image| PartitionReader::open(image).map_err(invalid_data))
        .collect()
}

/// A partition's parsed images as one: the base alone, or the base folded
/// with its extensions.
fn one_image(mut layers: Vec<PartitionReader>) -> io::Result<PartitionReader> {
    if layers.len() == 1 {
        return Ok(layers.pop().expect("one layer"));
    }
    let (group, series_len) = (layers[0].group_id(), layers[0].series_len());
    let (image, _) = fold_partition(group, series_len, &layers, &[], |_| true);
    PartitionReader::open(image).map_err(invalid_data)
}

fn not_found(id: PartitionId) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, format!("partition {id}"))
}

/// Calls `f(layer, node, byte span, record count)` for every cluster
/// `pick` selects across a partition's `layers` (base first): node by node
/// — a [`ClusterPick::Named`] read in the pick's order, a
/// [`ClusterPick::Rest`] read in the order nodes first appear in the
/// layers — and each node's clusters in layer order, so the views of one
/// node are adjacent. One layer is today's single-file walk.
fn for_each_layered<E>(
    layers: &[ImageFile],
    pick: ClusterPick<'_>,
    mut f: impl FnMut(usize, TrieNodeId, Range<usize>, usize) -> Result<(), E>,
) -> Result<(), E> {
    if let [only] = layers {
        return (only.directory).for_each_picked(pick, |node, span, count| f(0, node, span, count));
    }
    let mut node_of = |node: TrieNodeId, from: usize| -> Result<(), E> {
        for (li, layer) in layers.iter().enumerate().skip(from) {
            if let Some((span, count)) = layer.directory.locate(node) {
                f(li, node, span, count)?;
            }
        }
        Ok(())
    };
    match pick {
        ClusterPick::Named(nodes) => nodes.iter().try_for_each(|&node| node_of(node, 0)),
        ClusterPick::Rest(skip) => {
            let mut seen: Vec<TrieNodeId> = Vec::new();
            for (li, layer) in layers.iter().enumerate() {
                (layer.directory).for_each_picked(ClusterPick::Rest(skip), |node, _, _| {
                    if seen.contains(&node) {
                        return Ok(());
                    }
                    seen.push(node);
                    node_of(node, li)
                })?;
            }
            Ok(())
        }
    }
}

/// A store of encoded partitions keyed by [`PartitionId`].
pub trait PartitionStore: Send + Sync {
    /// Writes (or replaces) a partition's base image, dropping any
    /// extension, all on the calling thread: the image goes to a temp
    /// sibling of the partition's `.new` stage, is fsynced there, and is
    /// [published](Self::publish). `section` is the caller's section,
    /// opened right before the store's own that makes the image readable
    /// and returned still held: a fold's base rewrite passes its delta
    /// write section, in which it retires the runs the image copied; a
    /// build or a save passes `|| ()`. On failure nothing was published and
    /// the temp file is gone.
    fn put<G>(&self, id: PartitionId, bytes: Bytes, section: impl FnOnce() -> G) -> io::Result<G>;

    /// Stages extension images of many partitions — `images`, ascending by
    /// id — in one new pack, [`pack_file_name`]`(generation, k)`: back to
    /// back, in one write, fsynced before this returns. Each image is the
    /// extension numbered `generation` of its partition: it follows the
    /// partition's extensions, or — when `merged` — replaces them all. Each
    /// returned stage is publishable on its own. When the write or the
    /// fsync fails the pack is removed and nothing is staged.
    fn stage_pack(
        &self,
        generation: u64,
        k: u32,
        merged: bool,
        images: Vec<(PartitionId, Bytes)>,
    ) -> io::Result<Vec<Staged>>;

    /// Makes a staged image part of its partition's readable state: a base
    /// image replaces the partition's images, an extension follows (or,
    /// merged, replaces) its extensions. Once the store holds its own
    /// publish section it has opened the caller's, `section` (lock order:
    /// a fold's delta write section, then the store), and returns it still
    /// held. On failure nothing was published, and a base image's staged
    /// file is gone (a pack stays for its other images).
    fn publish<G>(&self, staged: Staged, section: impl FnOnce() -> G) -> io::Result<G>;

    /// Partition `id`'s images from file `from` on (`0`: the base image,
    /// then its extensions in file order; `1`: the extensions alone) —
    /// each read whole (from its pack, only its own bytes), past any block
    /// cache, and accounted nowhere: what
    /// [`layers`](Self::layers), [`open`](Self::open) and a seal's
    /// [`image`](Self::image) read.
    fn images(&self, id: PartitionId, from: usize) -> io::Result<Vec<Bytes>>;

    /// Partition `id`'s images from file `from` on, parsed (see
    /// [`images`](Self::images)). Counts one partition open and every
    /// image's header bytes: what a fold reads to rewrite a partition or
    /// merge its extensions.
    fn layers(&self, id: PartitionId, from: usize) -> io::Result<Vec<PartitionReader>> {
        let layers = parse_images(self.images(id, from)?)?;
        self.stats().on_partition_open();
        let header_bytes: usize = layers.iter().map(PartitionReader::header_bytes).sum();
        self.stats().on_read(header_bytes as u64);
        Ok(layers)
    }

    /// Reads partition `id` whole, as one image, past any block cache: the
    /// base image, or — with extensions — the base folded with them, the
    /// image a base rewrite of the same records would hold. Counts as
    /// [`layers`](Self::layers). Folds, scrubs and tests read partitions
    /// this way; queries use [`read_clusters`](Self::read_clusters).
    fn open(&self, id: PartitionId) -> io::Result<PartitionReader> {
        one_image(self.layers(id, 0)?)
    }

    /// Partition `id` as one image, the bytes a seal into another
    /// directory copies and checksums: the persisted base image verbatim
    /// when the partition has no extension, else the base folded with its
    /// extensions (as [`open`](Self::open)). Accounted nowhere: a seal's
    /// reads are not query traffic.
    fn image(&self, id: PartitionId) -> io::Result<Bytes> {
        Ok(one_image(parse_images(self.images(id, 0)?)?)?.raw_bytes_owned())
    }

    /// Partition `id`'s group, series length and image sizes — what a fold
    /// decides between extending, merging and rewriting by — read from
    /// what the store already holds.
    fn layout(&self, id: PartitionId) -> io::Result<Layout>;

    /// How many flushes wrote the extension images the store serves (the
    /// distinct extension numbers): each partition holds at most one image
    /// of each, so this bounds the extensions of every partition.
    fn extension_generations(&self) -> usize;

    /// The query path's one read: appends `(node, view)` to `out` for every
    /// cluster of partition `id` that `pick` selects — from the base image
    /// and then from each extension that holds the node, in file order, so
    /// a node's views are adjacent — and returns the partition's series
    /// length. A [`ClusterPick::Named`] read is the partition's open and
    /// counts as one open, however many files it reads, and every image's
    /// header bytes; a [`ClusterPick::Rest`] read continues a partition
    /// already opened and counts nothing. Record bytes are the scan's to
    /// count.
    fn read_clusters(
        &self,
        id: PartitionId,
        pick: ClusterPick<'_>,
        out: &mut Vec<(TrieNodeId, ClusterView)>,
    ) -> io::Result<usize>;

    /// All stored partition ids, ascending.
    fn ids(&self) -> Vec<PartitionId>;

    /// Number of stored partitions.
    fn len(&self) -> usize {
        self.ids().len()
    }

    /// True when the store holds no partitions.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The stats sink this store reports to.
    fn stats(&self) -> &IoStats;

    /// The directory the store keeps its partitions in: a flush re-seals
    /// the manifest there after folding partitions, so the directory stays
    /// openable.
    fn dir(&self) -> &Path;

    /// The receipt of the image most recently published for partition
    /// `id` (durable in [`dir`](Self::dir), base or extension) that no
    /// manifest commit has described yet — see
    /// [`commit_staged`](Self::commit_staged).
    fn receipt(&self, id: PartitionId) -> Option<PutReceipt>;

    /// The manifest entry describing partition `id`'s current images in
    /// [`dir`](Self::dir), taken from what the store holds — receipts of
    /// its publishes and the entries it was opened with — so a seal of
    /// that directory describes the partition without reading it. `None`
    /// for partitions the store cannot serve.
    fn entry(&self, id: PartitionId) -> Option<PartitionEntry>;

    /// The filesystem this store performs durable operations through.
    fn fs(&self) -> FsRef;

    /// Called by the seal *after* the manifest commit point: renames every
    /// staged (`.new`) base image over its committed main file and removes
    /// the packs (and version-3 extension files) holding no image the
    /// committed manifest names. The seal's closing directory fsync makes
    /// the renames durable (an interrupted install is rolled forward at
    /// open either way, and a writable open removes packs no manifest
    /// names).
    fn commit_staged(&self) -> io::Result<()>;

    /// Partitions a quarantining open moved aside; opens of these ids
    /// fail until [`DiskStore::try_readmit`] repairs them.
    fn quarantined(&self) -> Vec<PartitionId>;

    /// The block cache serving this store's cluster reads, when one is
    /// attached; the serving layer overlays its counters onto I/O
    /// snapshots.
    fn block_cache(&self) -> Option<Arc<BlockCache>>;
}

fn invalid_data(e: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

fn quarantined_error(id: PartitionId) -> io::Error {
    io::Error::new(
        io::ErrorKind::NotFound,
        format!("partition {id} is quarantined"),
    )
}

fn read_only_error() -> io::Error {
    io::Error::new(
        io::ErrorKind::PermissionDenied,
        "store was opened read-only from a manifest",
    )
}

/// Places a published image in a partition's images (`held`, base first)
/// as `layer` says, returning the images it replaced.
fn place_layer<T>(held: &mut Vec<T>, layer: Layer, image: T) -> Vec<T> {
    let replaced = match layer {
        Layer::Base => std::mem::take(held),
        Layer::Extension { merged: true, .. } => held.split_off(1),
        Layer::Extension { merged: false, .. } => Vec::new(),
    };
    held.push(image);
    replaced
}

/// On-disk partition store: `<dir>/part_<id>.clbp` and the packs of
/// extension images `<dir>/pack_<gen>.<k>.clbp` (plus the per-partition
/// extension files `<dir>/part_<id>.x<n>.clbp` of a version-3 directory).
#[derive(Debug)]
pub struct DiskStore {
    dir: PathBuf,
    stats: IoStats,
    /// Every partition the store holds: the manifest's (never a directory
    /// scan, so stray files are never served) plus each one a put staged
    /// since.
    ids: RwLock<BTreeSet<PartitionId>>,
    /// The manifest's series length, which every image header must repeat
    /// (`0` = none recorded: a created store, or an empty index).
    series_len: u32,
    /// True when [`open_validated`](Self::open_validated) was told so:
    /// every [`put`](PartitionStore::put) is rejected, and a scrub
    /// quarantines in memory only.
    read_only: bool,
    /// The filesystem every durable operation goes through (injectable).
    fs: FsRef,
    /// Every servable partition's images, base first: what each holds (its
    /// receipt) and where its clusters lie (its parsed directory), so a
    /// cluster read needs no header.
    ///
    /// Also the lock that keeps a partition's directories and its files in
    /// step: a cluster read holds it shared over its ranged reads, and a
    /// publish or a commit changes a partition's files only while holding
    /// it exclusively.
    parts: RwLock<BTreeMap<PartitionId, Images>>,
    /// Live images per pack `(generation, k)`: the manifest's and each one
    /// published since. A pack whose count a publish takes to zero is
    /// retired.
    packs: Mutex<BTreeMap<(u64, u32), usize>>,
    /// Files holding only images a publish replaced — packs, and
    /// version-3 extension files: removed once the next manifest commit no
    /// longer names them.
    retired: Mutex<Vec<PathBuf>>,
    /// Partitions a quarantining open (or a scrub) set aside; opening them
    /// fails with `NotFound` until repaired.
    quarantined: RwLock<BTreeSet<PartitionId>>,
    /// Block-cache attachment: the shared cache plus this store's token
    /// (the namespace its partition ids live under in the cache).
    cache: Option<StoreCache>,
}

/// One partition's images in a [`DiskStore`].
#[derive(Debug, Default)]
struct Images {
    /// Base first, then the extensions in file order.
    files: Vec<ImageFile>,
    /// The base image's current bytes are under its `.new` sibling, which
    /// reads serve: a put awaiting the next manifest commit, or committed
    /// bytes a crash left uninstalled that this open could not (read-only)
    /// or did not manage to rename.
    base_staged: bool,
    /// The receipt of the last image published and not yet committed.
    pending: Option<PutReceipt>,
}

/// One image of a [`DiskStore`] partition.
#[derive(Debug)]
struct ImageFile {
    /// `0` for the base image, else the extension's number.
    file: u64,
    /// The file the image lies in: a base image under its `.new` sibling
    /// while its partition's `base_staged`, else under its own name; an
    /// extension in its pack (or, version 3, its own file).
    path: PathBuf,
    /// Where in its pack an extension lies.
    slot: Option<PackSlot>,
    receipt: PutReceipt,
    directory: PartitionDirectory,
}

impl ImageFile {
    /// Where the image starts in its file.
    fn offset(&self) -> u64 {
        self.slot.map_or(0, |slot| slot.offset)
    }

    fn read(&self, fs: &FsRef) -> io::Result<Bytes> {
        read_image(fs, &self.path, self.slot, self.receipt.image_len)
    }
}

/// A [`DiskStore`]'s handle into a shared [`BlockCache`].
#[derive(Debug)]
struct StoreCache {
    cache: Arc<BlockCache>,
    token: u64,
}

impl DiskStore {
    /// An empty writable store rooted at `dir` (created through `fs` if
    /// needed) — what a build writes into. It holds no partition until a
    /// put stages one, whatever files `dir` already has: an index a
    /// previous build left there stays committed, and openable, until
    /// the seal of this one commits its manifest.
    pub fn create(dir: impl Into<PathBuf>, fs: FsRef) -> io::Result<Self> {
        let dir = dir.into();
        fs.create_dir_all(&dir)?;
        Ok(Self {
            dir,
            stats: IoStats::new(),
            ids: RwLock::new(BTreeSet::new()),
            series_len: 0,
            read_only: false,
            fs,
            parts: RwLock::new(BTreeMap::new()),
            packs: Mutex::new(BTreeMap::new()),
            retired: Mutex::new(Vec::new()),
            quarantined: RwLock::new(BTreeSet::new()),
            cache: None,
        })
    }

    /// An empty writable store over a fresh in-memory filesystem
    /// ([`SimFs`] over the real one, so a seal into any other directory
    /// writes to disk): what an in-memory build writes into.
    pub fn in_memory() -> Self {
        let fs = SimFs::new(fsio::std_fs());
        Self::create(fs.root().to_path_buf(), fs).expect("an in-memory directory is always there")
    }

    /// The typed failure of reading partition `id`'s image at `path`: an
    /// image its pack ends inside is as corrupt as a torn file.
    fn unreadable(err: io::Error, path: &Path, id: PartitionId) -> OpenError {
        match err.kind() {
            io::ErrorKind::NotFound => OpenError::MissingPartition {
                id,
                path: path.to_path_buf(),
            },
            io::ErrorKind::UnexpectedEof => OpenError::CorruptPartition {
                id,
                reason: err.to_string(),
            },
            _ => OpenError::Io(err),
        }
    }

    /// Checks the bytes of partition `id`'s image against its manifest
    /// entry (size, checksum) and against the format itself: a file the
    /// manifest describes exactly but [`PartitionDirectory::parse`] would
    /// refuse — say a version this build does not read — or whose header
    /// claims another series length than the manifest's `series_len` (`0`
    /// = unknown) must fail here, by name, not open "healthy" and then
    /// read as empty in every scan. Returns the parsed directory.
    fn check_image(
        bytes: &[u8],
        id: PartitionId,
        e: &ImageEntry,
        series_len: u32,
    ) -> Result<PartitionDirectory, OpenError> {
        if bytes.len() as u64 != e.bytes {
            return Err(OpenError::PartitionSizeMismatch {
                id,
                expected: e.bytes,
                found: bytes.len() as u64,
            });
        }
        let found = xxh64(bytes, 0);
        if found != e.checksum {
            return Err(OpenError::ChecksumMismatch {
                what: match e.file {
                    0 => format!("partition {id}"),
                    file => format!("partition {id} extension {file}"),
                },
                expected: e.checksum,
                found,
            });
        }
        let corrupt = |reason| OpenError::CorruptPartition { id, reason };
        let parsed = PartitionDirectory::parse(bytes).map_err(corrupt)?;
        match parsed.series_len() as u32 {
            len if series_len != 0 && len != series_len => Err(corrupt(format!(
                "series length {len} ≠ manifest {series_len}"
            ))),
            _ => Ok(parsed),
        }
    }

    /// Reads and checks every extension image of `e` where it lies — only
    /// its own range of a pack — appending each to `files` and its bytes
    /// to `images`.
    fn read_extensions(
        fs: &FsRef,
        dir: &Path,
        e: &PartitionEntry,
        series_len: u32,
        files: &mut Vec<ImageFile>,
        images: &mut Vec<Bytes>,
    ) -> Result<(), OpenError> {
        for x in &e.extensions {
            let path = image_path(dir, e.id, x);
            let bytes = read_image(fs, &path, x.pack, x.bytes)
                .map_err(|err| Self::unreadable(err, &path, e.id))?;
            let directory = Self::check_image(&bytes, e.id, x, series_len)?;
            let receipt = PutReceipt::checked(x, &directory);
            files.push(ImageFile {
                file: x.file,
                path,
                slot: x.pack,
                receipt,
                directory,
            });
            images.push(bytes);
        }
        Ok(())
    }

    /// Opens a persisted index directory — the one store open. Loads the
    /// manifest through `fs` and validates every image it lists: existence,
    /// byte range, content checksum, and the file's own header (CLBP magic
    /// and version). Any corruption or incompleteness surfaces here as a
    /// typed [`OpenError`] instead of a wrong answer later; ids are served
    /// from the manifest, so stray files are never picked up. Returns the
    /// store, the validated manifest, and the bytes warmed into `cache`.
    ///
    /// * `read_only` — [`put`](PartitionStore::put) fails with
    ///   `PermissionDenied`, **and the open itself only reads**, whatever
    ///   the other arguments say: committed bytes a crash left under a
    ///   `.new` sibling are served from there ([`fsio::read_committed`]);
    ///   temp droppings, stale siblings and packs (or version-3 extension
    ///   files) no manifest names wait for the next writable open, which
    ///   installs or sweeps them.
    /// * `quarantine` — a failing partition no longer aborts the open: it
    ///   is recorded ([`quarantined`](PartitionStore::quarantined)) and,
    ///   when writable, its base file moved into [`QUARANTINE_DIR`].
    /// * `cache` — each validation read, which a cacheless open checksums
    ///   and discards, is fed into the shared [`BlockCache`] as zero-copy
    ///   slices, one per cluster ([`BlockCache::try_warm`]: warming never
    ///   evicts what another index already holds, and stops at the first
    ///   cluster that does not fit, so at most one image is kept alive by
    ///   a part of it), and later cluster reads go through it.
    pub fn open_validated(
        dir: PathBuf,
        read_only: bool,
        fs: FsRef,
        quarantine: bool,
        cache: Option<Arc<BlockCache>>,
    ) -> Result<(Self, Manifest, u64), OpenError> {
        let manifest = Manifest::load_with(&*fs, &dir)?;
        let mut parts = BTreeMap::new();
        let mut quarantined = BTreeSet::new();
        let cache = cache.map(|cache| StoreCache {
            cache,
            token: page::next_store_token(),
        });
        let mut warmed_bytes = 0u64;
        let mut warming = cache.is_some();
        for e in &manifest.partitions {
            let path = dir.join(partition_file_name(e.id));
            let sibling = staged_path_of(&dir, e.id);
            let base = e.images().next().expect("a base image");
            let mut files = Vec::with_capacity(1 + e.extensions.len());
            let mut images = Vec::with_capacity(1 + e.extensions.len());
            let read = fsio::read_committed(
                &*fs,
                &path,
                &sibling,
                !read_only,
                |b| Self::check_image(b, e.id, &base, manifest.series_len).map(drop),
                |err| Self::unreadable(err, &path, e.id),
            )
            .and_then(|(bytes, is_staged)| {
                // Checked by the closure above; parsed again here, without
                // re-hashing the image.
                let directory = PartitionDirectory::parse(&bytes)
                    .map_err(|reason| OpenError::CorruptPartition { id: e.id, reason })?;
                let receipt = PutReceipt::checked(&base, &directory);
                files.push(ImageFile {
                    file: 0,
                    path: (if is_staged { &sibling } else { &path }).clone(),
                    slot: None,
                    receipt,
                    directory,
                });
                images.push(bytes);
                Self::read_extensions(&fs, &dir, e, manifest.series_len, &mut files, &mut images)?;
                Ok(is_staged)
            });
            match read {
                Ok(base_staged) => {
                    if let Some(sc) = cache.as_ref().filter(|_| warming) {
                        // Reuse the validation reads: warm the cache so
                        // first-query latency after a cold open skips the
                        // filesystem entirely. A base still under `.new` is
                        // read uncached, like any other staged image.
                        let warm =
                            (files.iter().zip(images)).filter(|(f, _)| f.file != 0 || !base_staged);
                        for (f, image) in warm {
                            warming = (f.directory)
                                .for_each_picked(ClusterPick::Rest(&[]), |node, span, _| {
                                    let len = span.len() as u64;
                                    let bytes = image.slice(span);
                                    if !sc.cache.try_warm(sc.token, e.id, f.file, node, bytes) {
                                        return Err(());
                                    }
                                    warmed_bytes += len;
                                    Ok(())
                                })
                                .is_ok();
                            if !warming {
                                break;
                            }
                        }
                    }
                    let images = Images {
                        files,
                        base_staged,
                        pending: None,
                    };
                    parts.insert(e.id, images);
                }
                Err(first) if !quarantine => return Err(first),
                Err(_) => {
                    // Preserve the bad bytes aside and serve the rest of
                    // the index degraded.
                    if !read_only {
                        fs.create_dir_all(&dir.join(QUARANTINE_DIR)).ok();
                        fs.rename(&path, &quarantine_path_of(&dir, e.id)).ok();
                        fs.remove_file(&sibling).ok();
                    }
                    quarantined.insert(e.id);
                }
            }
        }
        // Every pack the manifest names, with the images it holds —
        // quarantined partitions' too, so no pack still named is removed.
        let mut packs: BTreeMap<(u64, u32), usize> = BTreeMap::new();
        let mut own_files: BTreeSet<(PartitionId, u64)> = BTreeSet::new();
        for e in &manifest.partitions {
            for x in &e.extensions {
                match x.pack {
                    Some(slot) => *packs.entry((x.file, slot.k)).or_default() += 1,
                    None => drop(own_files.insert((e.id, x.file))),
                }
            }
        }
        // Sweep temp droppings from interrupted atomic writes, and the
        // packs of folds that never committed (or whose images were all
        // replaced by one that did): files no committed manifest names.
        if !read_only {
            for name in fs.list(&dir).unwrap_or_default() {
                let orphan = parse_pack_file_name(&name).is_some_and(|p| !packs.contains_key(&p))
                    || parse_extension_file_name(&name).is_some_and(|x| !own_files.contains(&x));
                if fsio::is_tmp_name(&name) || orphan {
                    fs.remove_file(&dir.join(name)).ok();
                }
            }
        }
        let ids = manifest.partition_ids().into_iter().collect();
        Ok((
            Self {
                dir,
                stats: IoStats::new(),
                ids: RwLock::new(ids),
                series_len: manifest.series_len,
                read_only,
                fs,
                parts: RwLock::new(parts),
                packs: Mutex::new(packs),
                retired: Mutex::new(Vec::new()),
                quarantined: RwLock::new(quarantined),
                cache,
            },
            manifest,
            warmed_bytes,
        ))
    }

    /// True when the store was opened read-only from a manifest.
    pub fn is_read_only(&self) -> bool {
        self.read_only
    }

    fn path_of(&self, id: PartitionId) -> PathBuf {
        self.dir.join(partition_file_name(id))
    }

    /// Root directory of the store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Marks partition `id` quarantined and, when the store is writable,
    /// moves its base file into [`QUARANTINE_DIR`] — the scrub path for
    /// corruption found *after* open. A read-only store only marks it, as
    /// a read-only quarantining open does. Opening the id then fails until
    /// [`try_readmit`](Self::try_readmit) succeeds.
    pub fn quarantine_partition(&self, id: PartitionId) -> io::Result<()> {
        if !self.read_only {
            self.fs.create_dir_all(&self.dir.join(QUARANTINE_DIR))?;
            match self
                .fs
                .rename(&self.path_of(id), &quarantine_path_of(&self.dir, id))
            {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        self.quarantined.write().insert(id);
        if let Some(sc) = &self.cache {
            sc.cache.invalidate(sc.token, id);
        }
        Ok(())
    }

    /// Attempts to bring a quarantined partition back into service:
    /// its extension images must match the manifest entry where they lie,
    /// and either the main path now holds a base image matching it
    /// (operator restored it) or — for a writable store — the quarantined
    /// copy itself validates (the original failure was transient) and is
    /// renamed back; a read-only store renames nothing. Returns `true`
    /// when the partition is healthy and serving again.
    pub fn try_readmit(&self, e: &PartitionEntry) -> io::Result<bool> {
        if !self.quarantined.read().contains(&e.id) {
            return Ok(true);
        }
        let base = e.images().next().expect("a base image");
        let matching = |path: &Path| {
            let bytes = self.fs.read(path).ok()?;
            let directory = Self::check_image(&bytes, e.id, &base, self.series_len).ok()?;
            let mut files = vec![ImageFile {
                file: 0,
                path: self.path_of(e.id),
                slot: None,
                receipt: PutReceipt::checked(&base, &directory),
                directory,
            }];
            let extensions = Self::read_extensions(
                &self.fs,
                &self.dir,
                e,
                self.series_len,
                &mut files,
                &mut Vec::new(),
            );
            extensions.is_ok().then_some(files)
        };
        let readmit = |files: Vec<ImageFile>| {
            let images = Images {
                files,
                base_staged: false,
                pending: None,
            };
            self.parts.write().insert(e.id, images);
            self.quarantined.write().remove(&e.id);
            if let Some(sc) = &self.cache {
                sc.cache.invalidate(sc.token, e.id);
            }
        };
        let main = self.path_of(e.id);
        if let Some(files) = matching(&main) {
            readmit(files);
            return Ok(true);
        }
        let qpath = quarantine_path_of(&self.dir, e.id);
        if !self.read_only {
            if let Some(files) = matching(&qpath) {
                self.fs.rename(&qpath, &main)?;
                self.fs.fsync_dir(&self.dir)?;
                readmit(files);
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Re-validates the committed images of `e` against its manifest
    /// record — the scrub primitive for partitions not under quarantine.
    pub fn verify_partition(&self, e: &PartitionEntry) -> Result<(), OpenError> {
        for image in e.images() {
            let path = image_path(&self.dir, e.id, &image);
            let bytes = read_image(&self.fs, &path, image.pack, image.bytes)
                .map_err(|err| Self::unreadable(err, &path, e.id))?;
            Self::check_image(&bytes, e.id, &image, self.series_len)?;
        }
        Ok(())
    }

    /// Accounts a published image in `pack` and the images it replaced:
    /// files left holding no named image are retired, to be removed after
    /// the next manifest commit.
    fn account(&self, pack: Option<(u64, u32)>, replaced: &[ImageFile]) {
        let mut packs = self.packs.lock();
        if let Some(pack) = pack {
            *packs.entry(pack).or_default() += 1;
        }
        let mut retired = self.retired.lock();
        for x in replaced.iter().filter(|x| x.file != 0) {
            let Some(slot) = x.slot else {
                retired.push(x.path.clone());
                continue;
            };
            if let Some(live) = packs.get_mut(&(x.file, slot.k)) {
                *live -= 1;
                if *live == 0 {
                    packs.remove(&(x.file, slot.k));
                    retired.push(x.path.clone());
                }
            }
        }
    }
}

impl PartitionStore for DiskStore {
    fn block_cache(&self) -> Option<Arc<BlockCache>> {
        self.cache.as_ref().map(|sc| Arc::clone(&sc.cache))
    }

    fn put<G>(&self, id: PartitionId, bytes: Bytes, section: impl FnOnce() -> G) -> io::Result<G> {
        if self.is_read_only() {
            return Err(read_only_error());
        }
        // Only a partition image is put; its shape goes on the receipt,
        // its directory serves the cluster reads.
        let directory = PartitionDirectory::parse(&bytes).map_err(invalid_data)?;
        let receipt = PutReceipt::of(&bytes, &directory);
        self.stats.on_partition_write(bytes.len() as u64);
        // The committed file stays untouched: the image goes to a temp
        // sibling of its `.new` stage, which the publish renames into place
        // (replaced atomically or not at all) and `commit_staged` over the
        // main file after the next manifest commit.
        let path = fsio::write_temp(&*self.fs, &staged_path_of(&self.dir, id), &bytes)?;
        // Freed before the publish waits for its locks.
        drop(bytes);
        let staged = Staged {
            id,
            layer: Layer::Base,
            path,
            slot: None,
            receipt,
            directory,
        };
        self.publish(staged, section)
    }

    /// The pack gets a name no file of the committed state has: written
    /// once, in place, and never renamed.
    fn stage_pack(
        &self,
        generation: u64,
        k: u32,
        merged: bool,
        images: Vec<(PartitionId, Bytes)>,
    ) -> io::Result<Vec<Staged>> {
        if self.is_read_only() {
            return Err(read_only_error());
        }
        let path = self.dir.join(pack_file_name(generation, k));
        let mut pack = Vec::with_capacity(images.iter().map(|(_, image)| image.len()).sum());
        let mut staged = Vec::with_capacity(images.len());
        for (id, image) in images {
            let directory = PartitionDirectory::parse(&image).map_err(invalid_data)?;
            let receipt = PutReceipt::of(&image, &directory);
            self.stats.on_partition_write(image.len() as u64);
            staged.push(Staged {
                id,
                layer: Layer::Extension {
                    file: generation,
                    merged,
                },
                path: path.clone(),
                slot: Some(PackSlot {
                    k,
                    offset: pack.len() as u64,
                }),
                receipt,
                directory,
            });
            pack.extend_from_slice(&image);
        }
        let written = self.fs.write(&path, &pack);
        // Freed before the fsync waits on the device.
        drop(pack);
        if let Err(e) = written.and_then(|()| self.fs.fsync_file(&path)) {
            self.fs.remove_file(&path).ok();
            return Err(e);
        }
        Ok(staged)
    }

    /// The seal pays the one directory fsync covering every stage. A base
    /// image's rename and its new directory, or an extension's directory,
    /// land together, between two cluster reads, inside the caller's
    /// section. Publishing an extension leaves every cached cluster
    /// valid; a merged one drops those of the extensions it replaces, a
    /// base image every one of the partition's. A pack image that fails to
    /// publish leaves its pack in place for the others: a pack no manifest
    /// names is swept by the next writable open.
    fn publish<G>(&self, staged: Staged, section: impl FnOnce() -> G) -> io::Result<G> {
        let Staged {
            id,
            layer,
            path,
            slot,
            receipt,
            directory,
        } = staged;
        let section = section();
        let mut parts = self.parts.write();
        let images = match layer {
            Layer::Base => {
                if let Err(e) = self.fs.rename(&path, &staged_path_of(&self.dir, id)) {
                    drop((parts, section));
                    self.fs.remove_file(&path).ok();
                    return Err(e);
                }
                let images = parts.entry(id).or_default();
                images.base_staged = true;
                images
            }
            Layer::Extension { .. } => match parts.get_mut(&id) {
                Some(images) => images,
                None => return Err(not_found(id)),
            },
        };
        images.pending = Some(receipt);
        let path = match layer {
            Layer::Base => staged_path_of(&self.dir, id),
            Layer::Extension { .. } => path,
        };
        let image = ImageFile {
            file: layer.file(),
            path,
            slot,
            receipt,
            directory,
        };
        let pack = slot.map(|slot| (layer.file(), slot.k));
        let replaced = place_layer(&mut images.files, layer, image);
        self.ids.write().insert(id);
        drop(parts);
        self.account(pack, &replaced);
        let extensions: Vec<u64> = (replaced.iter().map(|f| f.file))
            .filter(|&file| file != 0)
            .collect();
        if let Some(sc) = &self.cache {
            match layer {
                // Reads serve the sibling now: the old clusters are stale.
                Layer::Base => sc.cache.invalidate(sc.token, id),
                Layer::Extension { .. } => sc.cache.invalidate_files(sc.token, id, &extensions),
            }
        }
        Ok(section)
    }

    fn receipt(&self, id: PartitionId) -> Option<PutReceipt> {
        self.parts.read().get(&id).and_then(|images| images.pending)
    }

    fn entry(&self, id: PartitionId) -> Option<PartitionEntry> {
        let parts = self.parts.read();
        let images = parts.get(&id)?;
        let (base, extensions) = images.files.split_first()?;
        Some(PartitionEntry {
            id,
            bytes: base.receipt.image_len,
            checksum: base.receipt.checksum,
            records: base.receipt.records,
            extensions: (extensions.iter())
                .map(|x| x.receipt.image(x.file, x.slot))
                .collect(),
        })
    }

    fn layout(&self, id: PartitionId) -> io::Result<Layout> {
        let parts = self.parts.read();
        let images = parts.get(&id).ok_or_else(|| not_found(id))?;
        let base = &images.files[0].directory;
        Ok(Layout {
            group_id: base.group_id(),
            series_len: base.series_len(),
            files: images.files.iter().map(|f| f.receipt.image_len).collect(),
        })
    }

    fn extension_generations(&self) -> usize {
        let parts = self.parts.read();
        let files = parts.values().flat_map(|images| &images.files[1..]);
        files.map(|x| x.file).collect::<BTreeSet<u64>>().len()
    }

    /// Each cluster is a cache hit or one ranged read of exactly its bytes
    /// (then cached); the misses of one call share one open per image.
    /// A staged (pre-commit) base image never enters the cache: it is not
    /// the committed image yet and is replaced at the next commit. An
    /// extension is never rewritten, so its clusters are cached from its
    /// publish on.
    fn read_clusters(
        &self,
        id: PartitionId,
        pick: ClusterPick<'_>,
        out: &mut Vec<(TrieNodeId, ClusterView)>,
    ) -> io::Result<usize> {
        // Held over the reads below: no rename moves the file they read
        // while the directory says where its clusters lie.
        let parts = self.parts.read();
        if self.quarantined.read().contains(&id) {
            return Err(quarantined_error(id));
        }
        let images = parts.get(&id).ok_or_else(|| not_found(id))?;
        let files = &images.files;
        let series_len = files[0].directory.series_len();
        let cache_of = |li: usize| match li == 0 && images.base_staged {
            true => None,
            false => self.cache.as_ref(),
        };
        // A hit goes out as found; a miss holds its place in `out` (with
        // an empty buffer, which allocates nothing) until the one read of
        // its image's misses fills it.
        let start = out.len();
        let mut misses: Vec<(usize, usize, (u64, usize))> = Vec::new();
        for_each_layered(files, pick, |li, node, span, count| {
            let cache = cache_of(li);
            let hit = cache.and_then(|sc| sc.cache.get(sc.token, id, files[li].file, node));
            let bytes = hit.unwrap_or_else(|| {
                let at = files[li].offset() + span.start as u64;
                misses.push((li, out.len(), (at, span.len())));
                Bytes::new()
            });
            out.push((node, ClusterView::new(bytes, series_len, count)));
            Ok::<(), io::Error>(())
        })?;
        // Each file's misses in their order (a sorted run: no allocation).
        misses.sort_unstable_by_key(|&(li, at, _)| (li, at));
        for run in misses.chunk_by(|a, b| a.0 == b.0) {
            let li = run[0].0;
            let ranges: Vec<(u64, usize)> = run.iter().map(|&(_, _, range)| range).collect();
            let read = self.fs.read_ranges(&files[li].path, &ranges);
            let read = read.inspect_err(|_| out.truncate(start))?;
            for (&(_, i, _), bytes) in run.iter().zip(read) {
                let (node, view) = &mut out[i];
                if let Some(sc) = cache_of(li) {
                    sc.cache
                        .insert(sc.token, id, files[li].file, *node, bytes.clone());
                }
                *view = ClusterView::new(bytes, series_len, view.len());
            }
        }
        if let ClusterPick::Named(_) = pick {
            self.stats.on_partition_open();
            let header_bytes: usize = files.iter().map(|f| f.directory.header_bytes()).sum();
            self.stats.on_read(header_bytes as u64);
        }
        Ok(series_len)
    }

    fn images(&self, id: PartitionId, from: usize) -> io::Result<Vec<Bytes>> {
        if self.quarantined.read().contains(&id) {
            return Err(quarantined_error(id));
        }
        let parts = self.parts.read();
        let images = parts.get(&id).ok_or_else(|| not_found(id))?;
        (images.files.iter().skip(from))
            .map(|f| f.read(&self.fs))
            .collect()
    }

    fn dir(&self) -> &Path {
        &self.dir
    }

    fn fs(&self) -> FsRef {
        self.fs.clone()
    }

    /// Each install holds the file it replaces open across its rename, so
    /// the rename only unlinks it; the held handles are closed after the
    /// last install, where the replaced files' blocks are freed outside the
    /// lock reads wait on. Then every
    /// retired pack is removed, best effort: one a crash or an error
    /// leaves behind is named by no manifest, and the next writable open
    /// sweeps it.
    fn commit_staged(&self) -> io::Result<()> {
        let pending: Vec<PartitionId> = (self.parts.read().iter())
            .filter(|(_, images)| images.base_staged)
            .map(|(&id, _)| id)
            .collect();
        let mut replaced = Vec::new();
        let mut install = |id: PartitionId| {
            let main = self.path_of(id);
            replaced.extend(self.fs.hold(&main));
            let mut parts = self.parts.write();
            self.fs.rename(&staged_path_of(&self.dir, id), &main)?;
            if let Some(images) = parts.get_mut(&id) {
                images.base_staged = false;
                images.files[0].path = main;
            }
            drop(parts);
            if let Some(sc) = &self.cache {
                sc.cache.invalidate(sc.token, id);
            }
            Ok(())
        };
        let installed: io::Result<()> = pending.into_iter().try_for_each(&mut install);
        drop(replaced);
        installed?;
        for images in self.parts.write().values_mut() {
            images.pending = None;
        }
        for path in std::mem::take(&mut *self.retired.lock()) {
            self.fs.remove_file(&path).ok();
        }
        Ok(())
    }

    fn quarantined(&self) -> Vec<PartitionId> {
        self.quarantined.read().iter().copied().collect()
    }

    fn ids(&self) -> Vec<PartitionId> {
        self.ids.read().iter().copied().collect()
    }

    fn stats(&self) -> &IoStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::PartitionWriter;
    use std::fs;

    fn encode_partition(group: u64, node: u64, n: usize) -> Bytes {
        let mut w = PartitionWriter::new(group, 2);
        let recs: Vec<(u64, Vec<f32>)> = (0..n)
            .map(|i| (i as u64, vec![i as f32, -(i as f32)]))
            .collect();
        w.push_cluster(node, recs.iter().map(|(id, v)| (*id, v.as_slice())));
        w.finish()
    }

    fn exercise_store<S: PartitionStore>(store: &S) {
        store.put(5, encode_partition(1, 10, 3), || ()).unwrap();
        store.put(2, encode_partition(2, 20, 1), || ()).unwrap();
        assert_eq!(store.ids(), vec![2, 5]);
        assert_eq!(store.len(), 2);

        let r = store.open(5).unwrap();
        assert_eq!(r.group_id(), 1);
        assert_eq!(r.record_count(), 3);

        let mut out = Vec::new();
        let n = (store.open(5).unwrap())
            .for_each_in_cluster(10, |rid, vals| out.push((rid, vals.to_vec())));
        assert_eq!(n, 3);
        assert_eq!(out[2], (2, vec![2.0, -2.0]));

        assert!(store.open(99).is_err());

        let snap = store.stats().snapshot();
        assert_eq!(snap.partitions_written, 2);
        // open(5) in test + open for the cluster read
        assert_eq!(snap.partitions_opened, 2);
        assert!(snap.bytes_read > 0);
    }

    #[test]
    fn mem_store_behaviour() {
        exercise_store(&DiskStore::in_memory());
    }

    #[test]
    fn disk_store_behaviour() {
        let dir = std::env::temp_dir().join(format!("climber-dfs-test-{}", std::process::id()));
        let store = DiskStore::create(&dir, fsio::std_fs()).unwrap();
        exercise_store(&store);
        fs::remove_dir_all(&dir).ok();
    }

    /// The parallel build writes distinct partitions from many threads at
    /// once through `&self` puts; the store over either filesystem and the
    /// shared [`IoStats`] must hold up under that fan-out.
    fn exercise_concurrent_puts<S: PartitionStore>(store: &S) {
        rayon::scope(|s| {
            for pid in 0..16u32 {
                s.spawn(move |_| {
                    store
                        .put(
                            pid,
                            encode_partition(pid as u64, 1, 1 + pid as usize % 4),
                            || (),
                        )
                        .unwrap();
                });
            }
        });
        assert_eq!(store.ids(), (0..16).collect::<Vec<_>>());
        assert_eq!(store.stats().snapshot().partitions_written, 16);
        for pid in store.ids() {
            assert_eq!(store.open(pid).unwrap().group_id(), pid as u64);
        }
    }

    #[test]
    fn mem_store_concurrent_puts() {
        exercise_concurrent_puts(&DiskStore::in_memory());
    }

    #[test]
    fn disk_store_concurrent_puts() {
        let dir = std::env::temp_dir().join(format!("climber-dfs-conc-{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        let store = DiskStore::create(&dir, fsio::std_fs()).unwrap();
        exercise_concurrent_puts(&store);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn put_replaces_partition() {
        let store = DiskStore::in_memory();
        store.put(1, encode_partition(0, 1, 2), || ()).unwrap();
        store.put(1, encode_partition(0, 1, 5), || ()).unwrap();
        assert_eq!(store.open(1).unwrap().record_count(), 5);
        assert_eq!(store.ids(), vec![1]);
    }

    #[test]
    fn cached_disk_store_serves_hits_and_invalidates_on_put() {
        use crate::manifest::{FileEntry, FORMAT_VERSION};
        use crate::page::{BlockCache, CacheConfig};
        let dir = std::env::temp_dir().join(format!("climber-dfs-cache-{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        // A sealed one-partition directory: the cache attaches through a
        // validated open.
        let image = encode_partition(7, 1, 4);
        let build = DiskStore::create(&dir, fsio::std_fs()).unwrap();
        build.put(3, image.clone(), || ()).unwrap();
        build.commit_staged().unwrap();
        let partitions = vec![PartitionEntry {
            id: 3,
            bytes: image.len() as u64,
            checksum: xxh64(&image, 0),
            records: 4,
            extensions: Vec::new(),
        }];
        Manifest {
            format_version: FORMAT_VERSION,
            config: Vec::new(),
            fingerprint: Manifest::fingerprint_of(2, 4, &partitions),
            num_records: 4,
            max_series_id: Some(3),
            series_len: 2,
            generation: 0,
            journal: None,
            skeleton: FileEntry {
                bytes: 0,
                checksum: 0,
            },
            partitions,
        }
        .write_atomic_with(&fsio::StdFs, &dir)
        .unwrap();
        let cache = Arc::new(BlockCache::new(CacheConfig::default()));
        let (store, _, warmed) = DiskStore::open_validated(
            dir.clone(),
            false,
            fsio::std_fs(),
            false,
            Some(Arc::clone(&cache)),
        )
        .unwrap();
        let header = PartitionDirectory::parse(&image).unwrap().header_bytes();
        assert_eq!(
            warmed,
            (image.len() - header) as u64,
            "the validation read is kept, a slice per cluster"
        );
        let read = |pick| {
            let mut out = Vec::new();
            store.read_clusters(3, pick, &mut out).unwrap();
            out.iter().map(|(_, view)| view.len()).sum::<usize>()
        };
        assert_eq!(read(ClusterPick::Named(&[1])), 4);
        assert_eq!(
            hits_misses(&cache),
            (1, 0),
            "first read hits the warmed cluster"
        );
        assert_eq!(read(ClusterPick::Named(&[1])), 4);
        assert_eq!(hits_misses(&cache), (2, 0), "second read hits");
        // A whole-image open goes past the cache.
        assert_eq!(store.open(3).unwrap().record_count(), 4);
        assert_eq!(hits_misses(&cache), (2, 0), "an open is uncached");
        // A rewrite invalidates: the staged image is read uncached, and
        // after the commit the first read misses, the second hits.
        store.put(3, encode_partition(7, 1, 9), || ()).unwrap();
        assert_eq!(read(ClusterPick::Named(&[1])), 9);
        assert_eq!(
            hits_misses(&cache),
            (2, 0),
            "the staged image bypasses the cache"
        );
        store.commit_staged().unwrap();
        assert_eq!(read(ClusterPick::Named(&[1])), 9);
        assert_eq!(hits_misses(&cache), (2, 1), "the old cluster is gone");
        assert_eq!(read(ClusterPick::Named(&[1])), 9);
        assert_eq!(hits_misses(&cache), (3, 1));
        // A named read counts an open, cached or not; the rest of an
        // opened partition counts none.
        let before = store.stats().snapshot();
        assert_eq!(read(ClusterPick::Named(&[1, 2])), 9);
        assert_eq!(read(ClusterPick::Rest(&[1])), 0);
        let diff = store.stats().snapshot().since(&before);
        assert_eq!(diff.partitions_opened, 1);
        fs::remove_dir_all(&dir).ok();
    }

    fn hits_misses(cache: &BlockCache) -> (u64, u64) {
        let stats = cache.stats();
        (stats.hits, stats.misses)
    }

    #[test]
    fn stored_bytes_default_matches_open_image() {
        let store = DiskStore::in_memory();
        let v1 = encode_partition(1, 4, 3);
        store.put(0, v1.clone(), || ()).unwrap();
        assert_eq!(&store.image(0).unwrap()[..], &v1[..]);
    }

    #[test]
    fn store_cluster_view_is_zero_copy_equivalent() {
        let store = DiskStore::in_memory();
        store.put(0, encode_partition(3, 11, 6), || ()).unwrap();
        let reader = store.open(0).unwrap();
        let view = reader.cluster_view(11).unwrap();
        assert_eq!(view.len(), 6);
        let mut decoded = Vec::new();
        (store.open(0).unwrap())
            .for_each_in_cluster(11, |id, vals| decoded.push((id, vals.to_vec())));
        let mut viewed = Vec::new();
        view.for_each(|id, vals| viewed.push((id, vals.to_vec())));
        assert_eq!(decoded, viewed);
        assert!(reader.cluster_view(999).is_none());
    }

    #[test]
    fn cluster_read_counts_only_cluster_bytes() {
        let store = DiskStore::in_memory();
        let mut w = PartitionWriter::new(9, 2);
        let big: Vec<(u64, Vec<f32>)> = (0..100).map(|i| (i, vec![0.0, 0.0])).collect();
        let small: Vec<(u64, Vec<f32>)> = vec![(999, vec![1.0, 1.0])];
        w.push_cluster(1, big.iter().map(|(id, v)| (*id, v.as_slice())));
        w.push_cluster(2, small.iter().map(|(id, v)| (*id, v.as_slice())));
        store.put(0, w.finish(), || ()).unwrap();

        let before = store.stats().snapshot();
        let mut out = Vec::new();
        (store.open(0).unwrap()).for_each_in_cluster(2, |id, vals| out.push((id, vals.to_vec())));
        let diff = store.stats().snapshot().since(&before);
        // One record of 16 bytes + header, far below the 100-record cluster.
        assert!(diff.bytes_read < 200, "read {} bytes", diff.bytes_read);
        assert_eq!(out.len(), 1);
    }
}
