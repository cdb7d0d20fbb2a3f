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
//! [created](DiskStore::create) empty for a build or a save into another
//! directory, or [opened](DiskStore::open_validated) from a sealed
//! manifest for a fold. A base image is staged under the partition's
//! `.new` sibling (temp file, fsync, rename); the seal describes the
//! partition from what the store holds — it reads no partition — commits
//! the manifest, and only then
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
//! The store keeps all of its partitions under **one** lock: every
//! servable partition's images — each one's manifest entry, the file it
//! lies in and its parsed [`PartitionDirectory`], never its bytes — the
//! quarantined ids, the live images per pack and the files a publish
//! retired. Its ids are the servable ones and the quarantined ones. An
//! image read from disk is checked against its manifest entry in one
//! place, which the open, a readmission and a scrub's verification share.
//!
//! A query reads clusters, not partitions: [`read_clusters`] hands out
//! the trie-node clusters a plan names as [`ClusterView`]s. Since the
//! store holds every image's directory, a cluster is a
//! [`BlockCache`] hit or a ranged read of exactly its bytes — in a pack,
//! at its image's offset;
//! [`open`](PartitionStore::open) stays the whole-partition read that
//! folds, scrubs and tests use, and never touches the cache.
//!
//! The store holds its live image files open
//! ([`ClimberFs::open_read`](fsio::ClimberFs::open_read)), each from its
//! first read on: every pack, whose images share its handle, and base
//! images up to [`HELD_BASES`] in the whole process (past that, a base read
//! opens its file for that read). So a cluster read, and the read of the
//! images a merge folds, opens nothing. A handle leaves with its file: a
//! base image a publish replaced, once the install has renamed over it; a
//! pack, once its last image is replaced; a quarantined base at once.
//!
//! Every operation reports to an [`IoStats`], which is how experiments
//! observe "partitions touched" and bytes moved.
//!
//! [`read_clusters`]: PartitionStore::read_clusters

use crate::format::{fold_partition, ClusterPick, PartitionDirectory, PartitionReader, TrieNodeId};
use crate::fsio::{self, FsRef, ReadRef, SimFs};
use crate::manifest::{xxh64, ImageEntry, Manifest, OpenError, PackSlot, PartitionEntry};
use crate::page::{self, BlockCache, ClusterView};
use crate::stats::IoStats;
use bytes::Bytes;
use parking_lot::RwLock;
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// File name of partition `id`'s base image inside an index directory.
pub fn partition_file_name(id: PartitionId) -> String {
    format!("part_{id:08}.clbp")
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

/// Where an image lies in `dir`: a base image in its own file, an
/// extension in its pack.
fn image_path(dir: &Path, id: PartitionId, image: &ImageEntry) -> PathBuf {
    dir.join(match image.pack {
        None => partition_file_name(id),
        Some(slot) => pack_file_name(image.file, slot.k),
    })
}

/// The range an image of `len` bytes lies in within its file: all of a
/// base image's file, `len` bytes of a pack from the slot's offset.
fn image_range(slot: Option<PackSlot>, len: u64) -> io::Result<(u64, usize)> {
    let len = usize::try_from(len).map_err(|_| invalid_data(format!("{len} bytes")))?;
    Ok((slot.map_or(0, |slot| slot.offset), len))
}

/// Reads the image `slot` places in the file at `path`, through a handle
/// of its own: the whole file, or `len` bytes of a pack from the slot's
/// offset — never the whole pack.
fn read_image(fs: &FsRef, path: &Path, slot: Option<PackSlot>, len: u64) -> io::Result<Bytes> {
    match slot {
        None => fs.read(path),
        Some(slot) => {
            let range = image_range(Some(slot), len)?;
            Ok(fs.open_read(path)?.read_ranges(&[range])?.remove(0))
        }
    }
}

/// The base images the process holds open at most, over all its stores
/// (each shard of a set is one): the ledger's index has 111, an index of a
/// million series about 1 100, and a default `ulimit -n` is 1 024. A base
/// read past it opens its file for that read. A store's packs are held
/// beside them, until a merge retires them.
pub const HELD_BASES: usize = 256;

/// The base images held open now, over every store. A count alone, so
/// `Relaxed`: the handle a seat goes with is published by its `OnceLock`.
static HELD: AtomicUsize = AtomicUsize::new(0);

/// One of the process's [`HELD_BASES`] places, given back when it drops.
#[derive(Debug)]
struct Seat;

impl Seat {
    /// A free place, if there is one.
    fn take() -> Option<Self> {
        let free = |held: usize| (held < HELD_BASES).then_some(held + 1);
        HELD.fetch_update(Ordering::Relaxed, Ordering::Relaxed, free)
            .ok()
            .map(|_| Self)
    }
}

impl Drop for Seat {
    fn drop(&mut self) {
        HELD.fetch_sub(1, Ordering::Relaxed);
    }
}

/// An image file held open: a pack, or a base image in one of the
/// process's seats.
#[derive(Debug)]
struct Held {
    handle: ReadRef,
    _seat: Option<Seat>,
}

/// Subdirectory a quarantining open moves failed-validation partition
/// files into, preserving the evidence for a later
/// [`try_readmit`](DiskStore::try_readmit) or operator repair.
pub const QUARANTINE_DIR: &str = "QUARANTINE";

/// The roll-forward staging sibling of partition `id`'s base image inside
/// `dir`: every base `put` — a build's, a fold's, a save's into another
/// directory — lands here, and the rename over the main file happens only
/// *after* the next manifest commit, so a crash anywhere in a build, a
/// fold or a save leaves the committed file untouched.
pub fn staged_path_of(dir: &Path, id: PartitionId) -> PathBuf {
    dir.join(format!("{}.new", partition_file_name(id)))
}

fn quarantine_path_of(dir: &Path, id: PartitionId) -> PathBuf {
    dir.join(QUARANTINE_DIR).join(partition_file_name(id))
}

/// Identifier of a physical partition (the paper's `β` ids).
pub type PartitionId = u32;

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

/// One image of a partition as the store holds it: what a manifest
/// records of it, the file it lies in, and its parsed directory — so a
/// seal describes it and a cluster read finds its bytes without reading
/// its header again. Never the image itself.
#[derive(Debug)]
struct ImageFile {
    /// The image's manifest entry: its number (`0` for the base image),
    /// size, checksum, records, and where in a pack it lies.
    entry: ImageEntry,
    /// The file the image lies in: a base image under its `.new` sibling
    /// while its partition's `base_staged` (or, staged, a temp sibling of
    /// it), else under its own name; an extension in its pack.
    path: PathBuf,
    directory: PartitionDirectory,
    /// A base image's file, open from its first read on if a seat was free
    /// then. An extension is read through its pack's ([`Pack`]).
    held: OnceLock<Held>,
}

impl ImageFile {
    /// The image `bytes`, number `file` of its partition, lying at `path`
    /// (at `pack`'s offset when it is in a pack): parsed and hashed while
    /// the bytes are in hand. Only a partition image is accepted.
    fn of(bytes: &[u8], file: u64, pack: Option<PackSlot>, path: PathBuf) -> io::Result<Self> {
        let directory = PartitionDirectory::parse(bytes).map_err(invalid_data)?;
        let entry = ImageEntry {
            file,
            bytes: bytes.len() as u64,
            checksum: xxh64(bytes, 0),
            records: directory.record_count(),
            pack,
        };
        Ok(Self::new(entry, path, directory))
    }

    fn new(entry: ImageEntry, path: PathBuf, directory: PartitionDirectory) -> Self {
        let held = OnceLock::new();
        Self {
            entry,
            path,
            directory,
            held,
        }
    }

    /// Where the image starts in its file.
    fn offset(&self) -> u64 {
        self.entry.pack.map_or(0, |slot| slot.offset)
    }
}

/// A partition image staged — written and fsynced — and not yet readable.
#[derive(Debug)]
pub struct Staged {
    id: PartitionId,
    /// A base image (file `0`) lies in a temp sibling of its `.new` stage,
    /// an extension in its pack.
    image: ImageFile,
    /// The extension replaces the partition's extensions instead of
    /// following them.
    merged: bool,
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
    /// [`layers`](Self::layers), [`open`](Self::open) and
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

    /// Partition `id` as one image, the bytes a save into another
    /// directory puts there: the persisted base image verbatim when the
    /// partition has no extension, else the base folded with its
    /// extensions (as [`open`](Self::open)). Accounted nowhere: a save's
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

    /// All stored partition ids, ascending: the servable and the
    /// quarantined ones.
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

    /// The manifest entry describing partition `id`'s current images in
    /// [`dir`](Self::dir), taken from what the store holds — the entries
    /// of the images it published and of those it was opened with — so a
    /// seal of that directory describes the partition without reading it.
    /// An image published since the last manifest commit makes it differ
    /// from that manifest's entry. `None` for partitions the store cannot
    /// serve.
    fn entry(&self, id: PartitionId) -> Option<PartitionEntry>;

    /// The filesystem this store performs durable operations through.
    fn fs(&self) -> FsRef;

    /// Called by the seal *after* the manifest commit point: renames every
    /// staged (`.new`) base image over its committed main file and removes
    /// the packs holding no image the committed manifest names. The seal's
    /// closing directory fsync makes the renames durable (an interrupted
    /// install is rolled forward at open either way, and a writable open
    /// removes packs no manifest names).
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

/// On-disk partition store: `<dir>/part_<id>.clbp` and the packs of
/// extension images `<dir>/pack_<gen>.<k>.clbp`.
#[derive(Debug)]
pub struct DiskStore {
    dir: PathBuf,
    stats: IoStats,
    /// The manifest's series length, which every image header must repeat
    /// (`0` = none recorded: a created store, or an empty index).
    series_len: u32,
    /// True when [`open_validated`](Self::open_validated) was told so:
    /// every [`put`](PartitionStore::put) is rejected, and a scrub
    /// quarantines in memory only.
    read_only: bool,
    /// The filesystem every durable operation goes through (injectable).
    fs: FsRef,
    /// Every partition the store holds, under one lock. It also keeps a
    /// partition's directories and its files in step: a cluster read
    /// holds it shared over its ranged reads, and a publish or a commit
    /// changes a partition's files only while holding it exclusively.
    state: RwLock<State>,
    /// Block-cache attachment: the shared cache plus this store's token
    /// (the namespace its partition ids live under in the cache).
    cache: Option<StoreCache>,
}

/// The partitions of a [`DiskStore`]: the manifest's (never a directory
/// scan, so stray files are never served) plus each one a put staged
/// since — every one servable, quarantined, or (set aside by a scrub)
/// both.
#[derive(Debug, Default)]
struct State {
    /// The images of every partition the store can describe: each
    /// servable one, and each one a scrub set aside after open.
    parts: BTreeMap<PartitionId, Images>,
    /// Partitions a quarantining open (or a scrub) set aside; reading them
    /// fails with `NotFound` until repaired.
    quarantined: BTreeSet<PartitionId>,
    /// Every live pack `(generation, k)`: the manifest's and each one
    /// published since. A pack whose count a publish takes to zero is
    /// retired.
    packs: BTreeMap<(u64, u32), Pack>,
    /// Packs holding only images a publish replaced: removed once the next
    /// manifest commit no longer names them.
    retired: Vec<PathBuf>,
    /// The handles of committed base images a publish replaced: held until
    /// the install that renames over each, so the rename only unlinks it.
    replaced: Vec<Held>,
}

/// One live pack of a [`DiskStore`].
#[derive(Debug, Default)]
struct Pack {
    /// Its images the store serves.
    live: usize,
    /// The pack file, open from the first read of any of its images on.
    held: OnceLock<Held>,
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
}

/// A [`DiskStore`]'s handle into a shared [`BlockCache`].
#[derive(Debug)]
struct StoreCache {
    cache: Arc<BlockCache>,
    token: u64,
}

impl DiskStore {
    /// An empty writable store rooted at `dir` (created through `fs` if
    /// needed) — what a build or a save into another directory writes
    /// into. It holds no partition until a put stages one, whatever files
    /// `dir` already has: an index a previous build left there stays
    /// committed, and openable, until the seal of this one commits its
    /// manifest.
    pub fn create(dir: impl Into<PathBuf>, fs: FsRef) -> io::Result<Self> {
        let dir = dir.into();
        fs.create_dir_all(&dir)?;
        Ok(Self::empty(dir, 0, false, fs, None))
    }

    fn empty(
        dir: PathBuf,
        series_len: u32,
        read_only: bool,
        fs: FsRef,
        cache: Option<StoreCache>,
    ) -> Self {
        Self {
            dir,
            stats: IoStats::new(),
            series_len,
            read_only,
            fs,
            state: RwLock::new(State::default()),
            cache,
        }
    }

    /// An empty writable store over a fresh in-memory filesystem
    /// ([`SimFs`] over the real one, so a seal into any other directory
    /// writes to disk): what an in-memory build writes into.
    pub fn in_memory() -> Self {
        let fs = SimFs::new(fsio::std_fs());
        Self::create(fs.root().to_path_buf(), fs).expect("an in-memory directory is always there")
    }

    /// The one image check: partition `e`'s images, each checked against
    /// its manifest entry (size, checksum) and against the format itself —
    /// a file the manifest describes exactly but [`PartitionDirectory::parse`]
    /// would refuse (say a version this build does not read), or whose
    /// header claims another series length than the manifest's (`0` =
    /// unknown), must fail here, by name, not open "healthy" and then read
    /// as empty in every scan. The base image is `base`, which the caller
    /// read and which is to be served from `base_path`; every extension is
    /// read where it lies, only its own range of a pack. Returns the images
    /// with their bytes, base first.
    fn checked_images(
        &self,
        e: &PartitionEntry,
        base_path: PathBuf,
        base: Bytes,
    ) -> Result<Vec<(ImageFile, Bytes)>, OpenError> {
        let (id, mut base) = (e.id, Some((base_path, base)));
        let corrupt = |reason| OpenError::CorruptPartition { id, reason };
        let check = |x: ImageEntry| {
            let (path, bytes) = match base.take() {
                Some(base) => base,
                None => {
                    let path = image_path(&self.dir, id, &x);
                    let bytes = read_image(&self.fs, &path, x.pack, x.bytes)
                        .map_err(|err| unreadable(err, &path, id))?;
                    (path, bytes)
                }
            };
            if bytes.len() as u64 != x.bytes {
                return Err(OpenError::PartitionSizeMismatch {
                    id,
                    expected: x.bytes,
                    found: bytes.len() as u64,
                });
            }
            let found = xxh64(&bytes, 0);
            if found != x.checksum {
                return Err(OpenError::ChecksumMismatch {
                    what: match x.file {
                        0 => format!("partition {id}"),
                        file => format!("partition {id} extension {file}"),
                    },
                    expected: x.checksum,
                    found,
                });
            }
            let directory = PartitionDirectory::parse(&bytes).map_err(corrupt)?;
            let len = directory.series_len() as u32;
            if self.series_len != 0 && len != self.series_len {
                let manifest = self.series_len;
                return Err(corrupt(format!(
                    "series length {len} ≠ manifest {manifest}"
                )));
            }
            let records = directory.record_count();
            let entry = ImageEntry { records, ..x };
            Ok((ImageFile::new(entry, path, directory), bytes))
        };
        e.images().map(check).collect()
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
    ///   temp droppings, stale siblings and packs no manifest names wait
    ///   for the next writable open, which installs or sweeps them.
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
        let cache = cache.map(|cache| StoreCache {
            cache,
            token: page::next_store_token(),
        });
        let mut store = Self::empty(dir, manifest.series_len, read_only, fs, cache);
        let (dir, fs) = (&store.dir, &store.fs);
        let mut state = State::default();
        let mut warmed_bytes = 0u64;
        let mut warming = store.cache.is_some();
        for e in &manifest.partitions {
            let path = store.path_of(e.id);
            let sibling = staged_path_of(dir, e.id);
            // The base is served from where `read_committed` found the
            // committed bytes; the extensions are checked with it.
            let read = fsio::read_committed(
                &**fs,
                &path,
                &sibling,
                !read_only,
                |base| store.checked_images(e, path.clone(), base),
                |err| unreadable(err, &path, e.id),
            );
            match read {
                Ok((mut images, base_staged)) => {
                    if base_staged {
                        images[0].0.path = sibling;
                    }
                    if let Some(sc) = store.cache.as_ref().filter(|_| warming) {
                        // Reuse the validation reads: warm the cache so
                        // first-query latency after a cold open skips the
                        // filesystem entirely. A base still under `.new` is
                        // read uncached, like any other staged image.
                        let warm = images
                            .iter()
                            .filter(|(f, _)| f.entry.file != 0 || !base_staged);
                        for (f, image) in warm {
                            warming = (f.directory)
                                .for_each_picked(ClusterPick::Rest(&[]), |node, span, _| {
                                    let len = span.len() as u64;
                                    let bytes = image.slice(span);
                                    if !sc.cache.try_warm(sc.token, e.id, f.entry.file, node, bytes)
                                    {
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
                    let files = images.into_iter().map(|(f, _)| f).collect();
                    state.parts.insert(e.id, Images { files, base_staged });
                }
                Err(first) if !quarantine => return Err(first),
                Err(_) => {
                    // Preserve the bad bytes aside and serve the rest of
                    // the index degraded.
                    if !read_only {
                        fs.create_dir_all(&dir.join(QUARANTINE_DIR)).ok();
                        fs.rename(&path, &quarantine_path_of(dir, e.id)).ok();
                        fs.remove_file(&sibling).ok();
                    }
                    state.quarantined.insert(e.id);
                }
            }
        }
        // Every pack the manifest names, with the images it holds —
        // quarantined partitions' too, so no pack still named is removed.
        for x in manifest.partitions.iter().flat_map(|e| &e.extensions) {
            if let Some(slot) = x.pack {
                state.packs.entry((x.file, slot.k)).or_default().live += 1;
            }
        }
        // Sweep temp droppings from interrupted atomic writes, and the
        // packs of folds that never committed (or whose images were all
        // replaced by one that did): files no committed manifest names.
        if !read_only {
            for name in fs.list(dir).unwrap_or_default() {
                let orphan =
                    parse_pack_file_name(&name).is_some_and(|p| !state.packs.contains_key(&p));
                if fsio::is_tmp_name(&name) || orphan {
                    fs.remove_file(&dir.join(name)).ok();
                }
            }
        }
        store.state = RwLock::new(state);
        Ok((store, manifest, warmed_bytes))
    }

    /// True when the store was opened read-only from a manifest.
    pub fn is_read_only(&self) -> bool {
        self.read_only
    }

    fn path_of(&self, id: PartitionId) -> PathBuf {
        self.dir.join(partition_file_name(id))
    }

    fn invalidate(&self, id: PartitionId) {
        if let Some(sc) = &self.cache {
            sc.cache.invalidate(sc.token, id);
        }
    }

    /// The handle image `f` is read through: its pack's, always held, or
    /// its own as a base image, held if one of the process's seats is
    /// free — each opened on the first read that needs it. Otherwise a
    /// handle opened for this read alone.
    fn handle(&self, state: &State, f: &ImageFile) -> io::Result<ReadRef> {
        let held = match f.entry.pack {
            Some(slot) => state
                .packs
                .get(&(f.entry.file, slot.k))
                .map(|pack| &pack.held),
            None => Some(&f.held),
        };
        let Some(held) = held else {
            return self.fs.open_read(&f.path);
        };
        if let Some(held) = held.get() {
            return Ok(Arc::clone(&held.handle));
        }
        let handle = self.fs.open_read(&f.path)?;
        let seat = match f.entry.pack {
            Some(_) => None,
            None => match Seat::take() {
                Some(seat) => Some(seat),
                None => return Ok(handle),
            },
        };
        // A reader that opened it at the same time keeps the first one.
        let held = held.get_or_init(|| Held {
            handle,
            _seat: seat,
        });
        Ok(Arc::clone(&held.handle))
    }

    /// Reads `ranges` of image `f`'s file through its [`handle`](Self::handle).
    fn read(
        &self,
        state: &State,
        f: &ImageFile,
        ranges: &[(u64, usize)],
    ) -> io::Result<Vec<Bytes>> {
        self.handle(state, f)?.read_ranges(ranges)
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
        let mut state = self.state.write();
        state.quarantined.insert(id);
        // The base file moved: its handle, if any, goes with it.
        let base = state
            .parts
            .get_mut(&id)
            .and_then(|images| images.files.first_mut());
        let held = base.and_then(|base| base.held.take());
        drop(state);
        drop(held);
        self.invalidate(id);
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
        if !self.state.read().quarantined.contains(&e.id) {
            return Ok(true);
        }
        let main = self.path_of(e.id);
        let checked = |path: &Path| {
            let base = self.fs.read(path).ok()?;
            self.checked_images(e, main.clone(), base).ok()
        };
        let images = match checked(&main) {
            Some(images) => images,
            None if self.read_only => return Ok(false),
            None => {
                let qpath = quarantine_path_of(&self.dir, e.id);
                let Some(images) = checked(&qpath) else {
                    return Ok(false);
                };
                self.fs.rename(&qpath, &main)?;
                self.fs.fsync_dir(&self.dir)?;
                images
            }
        };
        let files = images.into_iter().map(|(f, _)| f).collect();
        let mut state = self.state.write();
        state.parts.insert(
            e.id,
            Images {
                files,
                base_staged: false,
            },
        );
        state.quarantined.remove(&e.id);
        drop(state);
        self.invalidate(e.id);
        Ok(true)
    }

    /// Re-validates the committed images of `e` against its manifest
    /// record — the scrub primitive for partitions not under quarantine.
    pub fn verify_partition(&self, e: &PartitionEntry) -> Result<(), OpenError> {
        let main = self.path_of(e.id);
        let base = (self.fs.read(&main)).map_err(|err| unreadable(err, &main, e.id))?;
        self.checked_images(e, main, base).map(drop)
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
        // Only a partition image is put, refused before anything is
        // written; its directory serves the cluster reads.
        let mut image = ImageFile::of(&bytes, 0, None, PathBuf::new())?;
        self.stats.on_partition_write(bytes.len() as u64);
        // The committed file stays untouched: the image goes to a temp
        // sibling of its `.new` stage, which the publish renames into place
        // (replaced atomically or not at all) and `commit_staged` over the
        // main file after the next manifest commit.
        image.path = fsio::write_temp(&*self.fs, &staged_path_of(&self.dir, id), &bytes)?;
        // Freed before the publish waits for its lock.
        drop(bytes);
        let staged = Staged {
            id,
            image,
            merged: false,
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
            let slot = PackSlot {
                k,
                offset: pack.len() as u64,
            };
            let image_file = ImageFile::of(&image, generation, Some(slot), path.clone())?;
            self.stats.on_partition_write(image.len() as u64);
            staged.push(Staged {
                id,
                image: image_file,
                merged,
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
    /// section, and so does the pack bookkeeping: files left holding no
    /// named image are retired, to be removed after the next manifest
    /// commit. Publishing an extension leaves every cached cluster valid;
    /// a merged one drops those of the extensions it replaces, a base
    /// image every one of the partition's. A pack image that fails to
    /// publish leaves its pack in place for the others: a pack no manifest
    /// names is swept by the next writable open.
    fn publish<G>(&self, staged: Staged, section: impl FnOnce() -> G) -> io::Result<G> {
        let Staged {
            id,
            mut image,
            merged,
        } = staged;
        let base = image.entry.file == 0;
        let section = section();
        let mut guard = self.state.write();
        let state = &mut *guard;
        if base {
            let to = staged_path_of(&self.dir, id);
            if let Err(e) = self.fs.rename(&image.path, &to) {
                drop((guard, section));
                self.fs.remove_file(&image.path).ok();
                return Err(e);
            }
            image.path = to;
        }
        let images = match base {
            true => state.parts.entry(id).or_default(),
            false => state.parts.get_mut(&id).ok_or_else(|| not_found(id))?,
        };
        let committed_base = base && !images.base_staged;
        images.base_staged |= base;
        let pack = (image.entry.pack).map(|slot| (image.entry.file, slot.k));
        let mut replaced = match (base, merged) {
            (true, _) => std::mem::take(&mut images.files),
            (false, true) => images.files.split_off(1),
            (false, false) => Vec::new(),
        };
        images.files.push(image);
        if committed_base {
            // Its file is still the partition's main file, which the next
            // install renames over.
            let held = replaced.first_mut().and_then(|old| old.held.take());
            state.replaced.extend(held);
        }
        if let Some(pack) = pack {
            state.packs.entry(pack).or_default().live += 1;
        }
        let extensions = replaced.iter().filter(|x| x.entry.file != 0);
        for x in extensions.clone() {
            let Some(slot) = x.entry.pack else { continue };
            let pack = (x.entry.file, slot.k);
            if let Some(p) = state.packs.get_mut(&pack) {
                p.live -= 1;
                if p.live == 0 {
                    state.packs.remove(&pack);
                    state.retired.push(x.path.clone());
                }
            }
        }
        drop(guard);
        if let Some(sc) = &self.cache {
            // A base image: reads serve the sibling now, the old clusters
            // are stale.
            match base {
                true => sc.cache.invalidate(sc.token, id),
                false => {
                    let files: Vec<u64> = extensions.map(|x| x.entry.file).collect();
                    sc.cache.invalidate_files(sc.token, id, &files);
                }
            }
        }
        Ok(section)
    }

    fn entry(&self, id: PartitionId) -> Option<PartitionEntry> {
        let state = self.state.read();
        let (base, extensions) = state.parts.get(&id)?.files.split_first()?;
        Some(PartitionEntry {
            id,
            bytes: base.entry.bytes,
            checksum: base.entry.checksum,
            records: base.entry.records,
            extensions: extensions.iter().map(|x| x.entry).collect(),
        })
    }

    fn layout(&self, id: PartitionId) -> io::Result<Layout> {
        let state = self.state.read();
        let images = state.parts.get(&id).ok_or_else(|| not_found(id))?;
        let base = &images.files[0].directory;
        Ok(Layout {
            group_id: base.group_id(),
            series_len: base.series_len(),
            files: images.files.iter().map(|f| f.entry.bytes).collect(),
        })
    }

    fn extension_generations(&self) -> usize {
        let state = self.state.read();
        let files = state.parts.values().flat_map(|images| &images.files[1..]);
        files.map(|x| x.entry.file).collect::<BTreeSet<u64>>().len()
    }

    /// Each cluster is a cache hit or a miss, and a call reads each image's
    /// misses through the image's held handle, in one call of it. A miss
    /// that will be cached is one ranged read of exactly its bytes, its own
    /// buffer: the cache charges what it keeps resident. Misses that will
    /// not be — on a cacheless store, or of a staged base image — are read
    /// one run of adjacent clusters at a time, each run one ranged read
    /// sliced per cluster. A staged (pre-commit) base image never enters
    /// the cache: it is not the committed image yet and is replaced at the
    /// next commit. An extension is never rewritten, so its clusters are
    /// cached from its publish on.
    fn read_clusters(
        &self,
        id: PartitionId,
        pick: ClusterPick<'_>,
        out: &mut Vec<(TrieNodeId, ClusterView)>,
    ) -> io::Result<usize> {
        // Held over the reads below: no rename moves the file they read
        // while the directory says where its clusters lie.
        let state = self.state.read();
        if state.quarantined.contains(&id) {
            return Err(quarantined_error(id));
        }
        let images = state.parts.get(&id).ok_or_else(|| not_found(id))?;
        let files = &images.files;
        let series_len = files[0].directory.series_len();
        let cache_of = |li: usize| match li == 0 && images.base_staged {
            true => None,
            false => self.cache.as_ref(),
        };
        // A hit goes out as found; a miss holds its place in `out` (with
        // an empty buffer, which allocates nothing) until the read of its
        // image's misses fills it.
        let start = out.len();
        let mut misses: Vec<(usize, usize, (u64, usize))> = Vec::new();
        for_each_layered(files, pick, |li, node, span, count| {
            let cache = cache_of(li);
            let file = files[li].entry.file;
            let hit = cache.and_then(|sc| sc.cache.get(sc.token, id, file, node));
            let bytes = hit.unwrap_or_else(|| {
                let at = files[li].offset() + span.start as u64;
                misses.push((li, out.len(), (at, span.len())));
                Bytes::new()
            });
            out.push((node, ClusterView::new(bytes, series_len, count)));
            Ok::<(), io::Error>(())
        })?;
        // Each image's misses in file order.
        misses.sort_unstable_by_key(|&(li, _, (at, _))| (li, at));
        for image in misses.chunk_by(|a, b| a.0 == b.0) {
            let li = image[0].0;
            let cache = cache_of(li);
            let mut ranges: Vec<(u64, usize)> = Vec::with_capacity(image.len());
            for &(_, _, (at, len)) in image {
                match ranges.last_mut() {
                    Some((from, run)) if cache.is_none() && *from + *run as u64 == at => {
                        *run += len
                    }
                    _ => ranges.push((at, len)),
                }
            }
            let read = self.read(&state, &files[li], &ranges);
            let read = read.inspect_err(|_| out.truncate(start))?;
            // Misses and runs go in the same order: each run holds the
            // misses up to its end.
            let mut image = image.iter().peekable();
            for (&(from, n), run) in ranges.iter().zip(read) {
                let end = from + n as u64;
                let in_run = |&&(_, _, (at, len)): &&_| at + len as u64 <= end;
                while let Some(&(_, i, (at, len))) = image.next_if(in_run) {
                    let skip = (at - from) as usize;
                    let bytes = run.slice(skip..skip + len);
                    let (node, view) = &mut out[i];
                    if let Some(sc) = cache {
                        let file = files[li].entry.file;
                        sc.cache.insert(sc.token, id, file, *node, bytes.clone());
                    }
                    *view = ClusterView::new(bytes, series_len, view.len());
                }
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
        let state = self.state.read();
        if state.quarantined.contains(&id) {
            return Err(quarantined_error(id));
        }
        let images = state.parts.get(&id).ok_or_else(|| not_found(id))?;
        let read = |f: &ImageFile| {
            let range = image_range(f.entry.pack, f.entry.bytes)?;
            Ok(self.read(&state, f, &[range])?.remove(0))
        };
        images.files.iter().skip(from).map(read).collect()
    }

    fn dir(&self) -> &Path {
        &self.dir
    }

    fn fs(&self) -> FsRef {
        self.fs.clone()
    }

    /// A replaced base image whose file was held (read since it was
    /// committed) stays open across the install's rename, so the rename
    /// only unlinks it; those handles are closed after the last install,
    /// where the replaced files' blocks are freed outside the lock reads
    /// wait on. The installed image keeps its own handle, which reads the
    /// same file under its new name. Then every retired pack is removed,
    /// best effort: one a crash or an error leaves behind is named by no
    /// manifest, and the next writable open sweeps it.
    fn commit_staged(&self) -> io::Result<()> {
        let pending: Vec<PartitionId> = (self.state.read().parts.iter())
            .filter(|(_, images)| images.base_staged)
            .map(|(&id, _)| id)
            .collect();
        let install = |id: PartitionId| {
            let main = self.path_of(id);
            let mut state = self.state.write();
            self.fs.rename(&staged_path_of(&self.dir, id), &main)?;
            if let Some(images) = state.parts.get_mut(&id) {
                images.base_staged = false;
                images.files[0].path = main;
            }
            drop(state);
            self.invalidate(id);
            Ok(())
        };
        let installed: io::Result<()> = pending.into_iter().try_for_each(install);
        // Taken under the lock, closed outside it.
        let replaced = std::mem::take(&mut self.state.write().replaced);
        drop(replaced);
        installed?;
        let retired = std::mem::take(&mut self.state.write().retired);
        for path in retired {
            self.fs.remove_file(&path).ok();
        }
        Ok(())
    }

    fn quarantined(&self) -> Vec<PartitionId> {
        self.state.read().quarantined.iter().copied().collect()
    }

    fn ids(&self) -> Vec<PartitionId> {
        let state = self.state.read();
        let ids: BTreeSet<PartitionId> = (state.parts.keys().chain(&state.quarantined))
            .copied()
            .collect();
        ids.into_iter().collect()
    }

    fn stats(&self) -> &IoStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::PartitionWriter;
    use crate::fsio::FsOp;
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
        use crate::manifest::FileEntry;
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

    /// Puts `images` into a fresh directory under `tag`, installs them,
    /// and commits a manifest describing them.
    fn sealed_dir(tag: &str, images: &[(PartitionId, Bytes)]) -> (PathBuf, Manifest) {
        use crate::manifest::FileEntry;
        let dir = std::env::temp_dir().join(format!("climber-dfs-{tag}-{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        let build = DiskStore::create(&dir, fsio::std_fs()).unwrap();
        for (id, image) in images {
            build.put(*id, image.clone(), || ()).unwrap();
        }
        build.commit_staged().unwrap();
        let partitions: Vec<PartitionEntry> = (images.iter())
            .map(|(id, _)| build.entry(*id).unwrap())
            .collect();
        let num_records = partitions.iter().map(PartitionEntry::total_records).sum();
        let manifest = Manifest {
            config: Vec::new(),
            fingerprint: Manifest::fingerprint_of(2, num_records, &partitions),
            num_records,
            max_series_id: None,
            series_len: 2,
            generation: 0,
            journal: None,
            skeleton: FileEntry {
                bytes: 0,
                checksum: 0,
            },
            partitions,
        };
        manifest.write_atomic_with(&fsio::StdFs, &dir).unwrap();
        (dir, manifest)
    }

    /// The store's one partition state through a quarantining open, a
    /// scrub's quarantine, two readmissions and a put: the ids stay the
    /// manifest's plus the put's, `quarantined()` names exactly the
    /// partitions set aside, a quarantined id reads as `NotFound`, and
    /// readers racing the quarantine, the readmission and the publish
    /// never panic.
    #[test]
    fn quarantine_readmit_and_put_keep_one_state() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let good = encode_partition(1, 9, 3);
        let images = [(0, encode_partition(0, 5, 7)), (1, good.clone())];
        let (dir, manifest) = sealed_dir("one-state", &images);
        let part1 = dir.join(partition_file_name(1));
        let mut bad = good.to_vec();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xFF;
        fs::write(&part1, &bad).unwrap();
        let (store, _, _) =
            DiskStore::open_validated(dir.clone(), false, fsio::std_fs(), true, None).unwrap();
        let entry = |id| manifest.partition(id).unwrap().clone();
        let read = |id| {
            let mut out = Vec::new();
            store.read_clusters(id, ClusterPick::Named(&[5, 9]), &mut out)?;
            Ok::<usize, io::Error>(out.iter().map(|(_, view)| view.len()).sum())
        };
        assert_eq!(store.quarantined(), vec![1]);
        assert_eq!(store.ids(), vec![0, 1]);
        assert_eq!(read(1).unwrap_err().kind(), io::ErrorKind::NotFound);

        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    while !stop.load(Ordering::SeqCst) {
                        for id in 0..8 {
                            let _ = (read(id), store.ids(), store.entry(id), store.quarantined());
                        }
                    }
                });
            }
            store.quarantine_partition(0).unwrap();
            // An operator restores partition 1's bytes at its main path.
            fs::write(&part1, &good).unwrap();
            assert!(store.try_readmit(&entry(1)).unwrap());
            store.put(5, encode_partition(5, 9, 1), || ()).unwrap();
            stop.store(true, Ordering::SeqCst);
        });
        assert_eq!(store.ids(), vec![0, 1, 5]);
        assert_eq!(store.quarantined(), vec![0]);
        assert_eq!(read(0).unwrap_err().kind(), io::ErrorKind::NotFound);
        assert_eq!((read(1).unwrap(), read(5).unwrap()), (3, 1));

        // Partition 0's quarantined copy is intact: it is renamed back.
        assert!(store.try_readmit(&entry(0)).unwrap());
        assert_eq!(store.quarantined(), Vec::<PartitionId>::new());
        assert_eq!(store.ids(), vec![0, 1, 5]);
        assert_eq!(read(0).unwrap(), 7);
        fs::remove_dir_all(&dir).ok();
    }

    /// A partition of group `group` with one cluster of `per` records for
    /// each of `nodes`, back to back in that order.
    fn encode_clusters(group: u64, nodes: &[u64], per: usize) -> Bytes {
        let mut w = PartitionWriter::new(group, 2);
        for (c, &node) in nodes.iter().enumerate() {
            let recs: Vec<(u64, Vec<f32>)> = (0..per)
                .map(|i| ((c * per + i) as u64, vec![node as f32, i as f32]))
                .collect();
            w.push_cluster(node, recs.iter().map(|(id, v)| (*id, v.as_slice())));
        }
        w.finish()
    }

    /// Each `(node, view)` of a cluster read of partition `id`, with the
    /// view's record bytes.
    fn read_bytes(
        store: &DiskStore,
        id: PartitionId,
        pick: ClusterPick<'_>,
    ) -> io::Result<Vec<(TrieNodeId, Vec<u8>)>> {
        let mut out = Vec::new();
        store.read_clusters(id, pick, &mut out)?;
        let bytes = |view: &ClusterView| {
            let records = view.records();
            (0..view.len())
                .flat_map(|i| records.record(i).to_vec())
                .collect()
        };
        Ok(out
            .iter()
            .map(|(node, view)| (*node, bytes(view)))
            .collect())
    }

    /// Each `(node, bytes)` cluster of the image in the file at `path`,
    /// read afresh.
    fn file_clusters(path: &Path) -> Vec<(TrieNodeId, Vec<u8>)> {
        let file = fs::read(path).unwrap();
        let directory = PartitionDirectory::parse(&file).unwrap();
        let mut clusters = Vec::new();
        (directory.for_each_picked(ClusterPick::Rest(&[]), |node, span, _| {
            clusters.push((node, file[span].to_vec()));
            Ok::<(), ()>(())
        }))
        .unwrap();
        clusters
    }

    /// A held base handle serves the image the store serves: after a put
    /// and its install the new bytes, after a quarantine nothing, after a
    /// readmission the readmitted file's; and readers racing on one
    /// handle each read what a fresh read of the file holds.
    #[test]
    fn a_held_handle_never_serves_a_replaced_or_quarantined_file() {
        let images = [
            (0, encode_clusters(0, &[5, 6], 4)),
            (1, encode_clusters(1, &[7, 8, 9], 6)),
        ];
        let (dir, _) = sealed_dir("held", &images);
        let (store, _, _) =
            DiskStore::open_validated(dir.clone(), false, fsio::std_fs(), false, None).unwrap();
        let main = dir.join(partition_file_name(0));
        let all = ClusterPick::Rest(&[]);
        assert_eq!(read_bytes(&store, 0, all).unwrap(), file_clusters(&main));

        let replacement = encode_clusters(0, &[5, 6], 2);
        store.put(0, replacement.clone(), || ()).unwrap();
        let staged = staged_path_of(&dir, 0);
        assert_eq!(read_bytes(&store, 0, all).unwrap(), file_clusters(&staged));
        store.commit_staged().unwrap();
        assert_eq!(&fs::read(&main).unwrap()[..], &replacement[..]);
        let installed = read_bytes(&store, 0, all).unwrap();
        assert_eq!(installed, file_clusters(&main));

        let entry = store.entry(0).unwrap();
        store.quarantine_partition(0).unwrap();
        let err = read_bytes(&store, 0, all).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert!(store.try_readmit(&entry).unwrap());
        assert_eq!(read_bytes(&store, 0, all).unwrap(), installed);

        let want = file_clusters(&dir.join(partition_file_name(1)));
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..200 {
                        assert_eq!(read_bytes(&store, 1, all).unwrap(), want);
                    }
                });
            }
        });
        fs::remove_dir_all(&dir).ok();
    }

    /// A cacheless read, or a read of a staged base image, reads each run
    /// of adjacent missed clusters in one range; a read that caches what
    /// it reads reads each missed cluster in its own.
    #[test]
    fn uncached_misses_are_read_a_run_at_a_time_and_cached_ones_one_by_one() {
        use crate::fsio::FaultFs;
        use crate::page::{BlockCache, CacheConfig};
        let image = encode_clusters(3, &[1, 2, 3, 4], 3);
        let (dir, _) = sealed_dir("runs", &[(0, image.clone())]);
        let main = dir.join(partition_file_name(0));
        let reads = |ff: &FaultFs, store: &DiskStore, pick| {
            let before = ff.op_count_of(FsOp::Read);
            let got = read_bytes(store, 0, pick).unwrap();
            (got, ff.op_count_of(FsOp::Read) - before)
        };
        let clusters = file_clusters(&main);
        let picked = |nodes: &[u64]| {
            let of = |node| clusters.iter().find(|(n, _)| *n == node).unwrap().clone();
            nodes.iter().map(|&node| of(node)).collect::<Vec<_>>()
        };

        let ff = FaultFs::over_std();
        let (store, _, _) =
            DiskStore::open_validated(dir.clone(), false, ff.clone(), false, None).unwrap();
        ff.arm();
        assert_eq!(
            reads(&ff, &store, ClusterPick::Rest(&[])),
            (clusters.clone(), 1)
        );
        let named = |nodes| reads(&ff, &store, ClusterPick::Named(nodes));
        assert_eq!(named(&[3, 1]), (picked(&[3, 1]), 2));
        assert_eq!(named(&[3, 2]), (picked(&[3, 2]), 1));
        assert_eq!(named(&[4, 1, 2]), (picked(&[4, 1, 2]), 2));
        drop(store);

        let ff = FaultFs::over_std();
        let cache = Arc::new(BlockCache::new(CacheConfig::default()));
        let (store, _, _) =
            DiskStore::open_validated(dir.clone(), false, ff.clone(), false, Some(cache)).unwrap();
        ff.arm();
        store.put(0, image, || ()).unwrap();
        let all = ClusterPick::Rest(&[]);
        assert_eq!(reads(&ff, &store, all), (clusters.clone(), 1), "staged");
        store.commit_staged().unwrap();
        assert_eq!(reads(&ff, &store, all), (clusters.clone(), 4), "misses");
        assert_eq!(reads(&ff, &store, all), (clusters, 0), "hits");
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
