//! The binary partition format.
//!
//! §VI, "Localized Record-Level Similarity": *"data records within each data
//! partition are organized such that all data series objects belonging to a
//! trie node are stored contiguously next to each other. The start offset of
//! each trie node cluster is maintained in a header section within the
//! partition."* This module implements exactly that layout:
//!
//! ```text
//! magic "CLBP" | version u32 | group_id u64 | series_len u32 | n_clusters u32
//! directory: n_clusters × (node_id u64, start_record u64, record_count u32)
//! records:   (series_id u64, series_len × f32)*   — clustered per node
//! ```
//!
//! All integers and floats are little-endian. Readers can fetch a single
//! trie-node cluster without decoding the rest of the partition, which is
//! what makes CLIMBER's sub-partition query access pattern measurable.

use crate::page::ClusterView;
use bytes::Bytes;

/// Identifier of a trie node within a group's trie (assigned by the index
/// builder; unique within an index).
pub type TrieNodeId = u64;

// ---------------------------------------------------------------------------
// Hand-rolled binary codec
// ---------------------------------------------------------------------------
//
// The persistent index format (manifest, skeleton, trie, pivot table) is
// read and written through this tiny layer rather than a serde stack: the
// build environment has no registry access, and a fixed little-endian
// layout keeps the on-disk format inspectable and versionable by hand.

/// Types that serialise themselves onto a byte vector (little-endian).
pub trait Encode {
    /// Appends the encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Convenience: encodes into a fresh vector.
    fn encode_vec(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }
}

/// Types that deserialise themselves from a [`ByteReader`].
pub trait Decode: Sized {
    /// Reads one value, advancing the reader. Errors name what truncated
    /// or mismatched; they never panic on malformed input.
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, String>;

    /// Convenience: decodes a value that must span `bytes` exactly.
    fn decode_vec(bytes: &[u8]) -> Result<Self, String> {
        let mut r = ByteReader::new(bytes);
        let v = Self::decode(&mut r)?;
        r.expect_end()?;
        Ok(v)
    }
}

/// Cursor over a byte slice with bounds-checked little-endian reads.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Starts reading at the beginning of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Current read position.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Takes the next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let s = self
            .pos
            .checked_add(n)
            .and_then(|end| self.bytes.get(self.pos..end))
            .ok_or_else(|| format!("truncated: wanted {n} bytes, {} left", self.remaining()))?;
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `f32`.
    pub fn f32(&mut self) -> Result<f32, String> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `f64`.
    pub fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `u64` length prefix followed by that many raw bytes.
    pub fn blob(&mut self) -> Result<&'a [u8], String> {
        let n = self.u64()? as usize;
        self.take(n)
    }

    /// Fails unless every byte has been consumed (trailing bytes are a
    /// corruption signal, never silently ignored).
    pub fn expect_end(&self) -> Result<(), String> {
        if self.remaining() != 0 {
            return Err(format!("{} trailing bytes", self.remaining()));
        }
        Ok(())
    }
}

macro_rules! impl_codec_primitive {
    ($ty:ty, $read:ident) => {
        impl Encode for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
        }
        impl Decode for $ty {
            fn decode(r: &mut ByteReader<'_>) -> Result<Self, String> {
                r.$read()
            }
        }
    };
}

impl_codec_primitive!(u16, u16);
impl_codec_primitive!(u32, u32);
impl_codec_primitive!(u64, u64);
impl_codec_primitive!(f32, f32);
impl_codec_primitive!(f64, f64);

impl Encode for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
}

impl Decode for u8 {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, String> {
        r.u8()
    }
}

impl Encode for [u8] {
    /// Length-prefixed (`u64`) raw bytes.
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        out.extend_from_slice(self);
    }
}

impl Encode for Vec<u8> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_slice().encode(out);
    }
}

impl Decode for Vec<u8> {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, String> {
        Ok(r.blob()?.to_vec())
    }
}

const MAGIC: [u8; 4] = *b"CLBP";
const VERSION: u32 = 1;
const HEADER_FIXED: usize = 4 + 4 + 8 + 4 + 4;
const DIR_ENTRY: usize = 8 + 8 + 4;

/// Checks the first 8 bytes of an encoded partition: the `CLBP` magic
/// and the one supported format version. The error names what was found.
/// Version 2 is reserved — an optional encoding of earlier builds — and
/// refused like any other.
fn check_header(bytes: &[u8]) -> Result<(), String> {
    let Some(head) = bytes.get(..8) else {
        return Err("partition shorter than its magic and version".into());
    };
    if head[..4] != MAGIC {
        return Err(format!("bad partition magic {:?}", &head[..4]));
    }
    let version = u32::from_le_bytes(head[4..].try_into().unwrap());
    if version != VERSION {
        return Err(format!(
            "unsupported partition version {version} (this build reads version {VERSION})"
        ));
    }
    Ok(())
}

/// Bytes of one encoded record of `series_len` values: the `u64` id, then
/// the values as `f32`s, all little-endian. The one spelling of the record
/// layout; [`encode_record`] is the one encoder of it and
/// [`ClusterRecords`] the one decoder.
pub const fn record_size(series_len: usize) -> usize {
    8 + series_len * 4
}

/// Appends one record — `id`, then `values` — to `out` in the
/// [`record_size`] layout. The values go a block at a time: the conversion
/// loop fills a stack buffer the compiler turns into a straight copy on
/// little-endian targets, and the vector grows once per block instead of
/// once per float.
pub fn encode_record(out: &mut Vec<u8>, id: u64, values: &[f32]) {
    const BLOCK: usize = 64;
    out.extend_from_slice(&id.to_le_bytes());
    let mut buf = [0u8; BLOCK * 4];
    for block in values.chunks(BLOCK) {
        for (dst, v) in buf.chunks_exact_mut(4).zip(block) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&buf[..block.len() * 4]);
    }
}

/// Builder for one partition. Records are appended straight into the
/// final image — [`push_record`](Self::push_record) encodes one,
/// [`splice`](Self::splice) copies already-encoded byte ranges out of a
/// [`PartitionReader`] — and [`seal_cluster`](Self::seal_cluster) closes
/// the run appended since the previous seal as one trie-node cluster.
/// [`finish`](Self::finish) then writes the header and directory into
/// the space reserved in front of the records and hands the buffer over
/// to a [`Bytes`] without copying it.
///
/// The directory's size depends on the cluster count, so
/// [`with_capacity`](Self::with_capacity) takes it (and the record count)
/// up front; when the final count differs from the reservation the
/// records are moved once in `finish` — the image is the same either way.
#[derive(Debug)]
pub struct PartitionWriter {
    group_id: u64,
    series_len: usize,
    directory: Vec<(TrieNodeId, u64, u32)>,
    /// The image under construction: `records_at` reserved bytes (header
    /// + directory), then the encoded records.
    image: Vec<u8>,
    records_at: usize,
    record_count: u64,
    /// Records appended since the last [`seal_cluster`](Self::seal_cluster).
    pending: u32,
}

impl PartitionWriter {
    /// Starts a partition for `group_id` holding series of length
    /// `series_len`.
    pub fn new(group_id: u64, series_len: usize) -> Self {
        Self::with_capacity(group_id, series_len, 0, 0)
    }

    /// [`new`](Self::new), reserving room for `clusters` directory
    /// entries and `records` records so the image is built in place with
    /// one exact allocation. Both are hints: any number of either may
    /// follow.
    pub fn with_capacity(
        group_id: u64,
        series_len: usize,
        clusters: usize,
        records: usize,
    ) -> Self {
        assert!(series_len > 0, "series length must be positive");
        let records_at = HEADER_FIXED + clusters * DIR_ENTRY;
        let mut image = Vec::with_capacity(records_at + records * record_size(series_len));
        image.resize(records_at, 0);
        Self {
            group_id,
            series_len,
            directory: Vec::with_capacity(clusters),
            image,
            records_at,
            record_count: 0,
            pending: 0,
        }
    }

    /// Appends one record to the open cluster.
    ///
    /// # Panics
    /// If `values` has the wrong length.
    pub fn push_record(&mut self, id: u64, values: &[f32]) {
        assert_eq!(
            values.len(),
            self.series_len,
            "record {id} has length {}, partition expects {}",
            values.len(),
            self.series_len
        );
        encode_record(&mut self.image, id, values);
        self.pending += 1;
    }

    /// Appends the records of `recs` whose id passes `keep` to the open
    /// cluster, as encoded — maximal kept runs are copied byte range by
    /// byte range, no record is decoded. Returns how many were dropped.
    ///
    /// # Panics
    /// If `recs` holds series of a different length.
    pub fn splice(&mut self, recs: &ClusterRecords<'_>, mut keep: impl FnMut(u64) -> bool) -> u64 {
        assert_eq!(
            recs.series_len, self.series_len,
            "cannot splice {}-point records into a {}-point partition",
            recs.series_len, self.series_len
        );
        let size = record_size(self.series_len);
        let mut run_start = 0;
        let mut dropped = 0u64;
        for i in 0..recs.count {
            if !keep(recs.id(i)) {
                self.image
                    .extend_from_slice(&recs.bytes[run_start * size..i * size]);
                run_start = i + 1;
                dropped += 1;
            }
        }
        self.image
            .extend_from_slice(&recs.bytes[run_start * size..recs.count * size]);
        self.pending += (recs.count as u64 - dropped) as u32;
        dropped
    }

    /// Appends record `i` of `recs` to the open cluster, as encoded.
    ///
    /// # Panics
    /// If `recs` holds series of a different length, or `i` is out of
    /// range.
    pub fn splice_record(&mut self, recs: &ClusterRecords<'_>, i: usize) {
        assert_eq!(recs.series_len, self.series_len, "series length");
        let size = record_size(self.series_len);
        self.image
            .extend_from_slice(&recs.bytes[i * size..(i + 1) * size]);
        self.pending += 1;
    }

    /// Records appended to the open cluster so far.
    pub fn pending(&self) -> u32 {
        self.pending
    }

    /// Closes the open cluster as trie node `node_id` (an empty run makes
    /// an empty cluster).
    ///
    /// # Panics
    /// If the node was already sealed.
    pub fn seal_cluster(&mut self, node_id: TrieNodeId) {
        assert!(
            !self.directory.iter().any(|&(n, _, _)| n == node_id),
            "trie node {node_id} appended twice"
        );
        self.directory
            .push((node_id, self.record_count, self.pending));
        self.record_count += u64::from(self.pending);
        self.pending = 0;
    }

    /// Appends a whole cluster of records belonging to trie node
    /// `node_id`.
    ///
    /// # Panics
    /// If the node was already appended, or a record has the wrong length.
    pub fn push_cluster<'a, I>(&mut self, node_id: TrieNodeId, records: I)
    where
        I: IntoIterator<Item = (u64, &'a [f32])>,
    {
        debug_assert_eq!(self.pending, 0, "push_cluster inside an open cluster");
        for (id, values) in records {
            self.push_record(id, values);
        }
        self.seal_cluster(node_id);
    }

    /// Number of records in sealed clusters so far.
    pub fn record_count(&self) -> u64 {
        self.record_count
    }

    /// Serialises the partition. Records still pending (never sealed
    /// into a cluster) are a caller bug.
    pub fn finish(mut self) -> Bytes {
        assert_eq!(self.pending, 0, "records appended after the last seal");
        let dir_end = HEADER_FIXED + self.directory.len() * DIR_ENTRY;
        if dir_end != self.records_at {
            // The cluster-count hint was off: slide the records to where
            // the real directory ends.
            let len = self.image.len() - self.records_at;
            self.image.resize(self.image.len().max(dir_end + len), 0);
            self.image
                .copy_within(self.records_at..self.records_at + len, dir_end);
            self.image.truncate(dir_end + len);
        }
        let mut head = Vec::with_capacity(dir_end);
        head.extend_from_slice(&MAGIC);
        head.extend_from_slice(&VERSION.to_le_bytes());
        head.extend_from_slice(&self.group_id.to_le_bytes());
        head.extend_from_slice(&(self.series_len as u32).to_le_bytes());
        head.extend_from_slice(&(self.directory.len() as u32).to_le_bytes());
        for &(node, start, count) in &self.directory {
            head.extend_from_slice(&node.to_le_bytes());
            head.extend_from_slice(&start.to_le_bytes());
            head.extend_from_slice(&count.to_le_bytes());
        }
        self.image[..dir_end].copy_from_slice(&head);
        Bytes::from(self.image)
    }
}

/// Bytes of a partition image of `clusters` clusters holding `records`
/// records of `series_len` values: what [`PartitionWriter::finish`] will
/// hand out, known before a record is copied.
pub const fn image_len(series_len: usize, clusters: usize, records: usize) -> usize {
    HEADER_FIXED + clusters * DIR_ENTRY + records * record_size(series_len)
}

/// Folds a partition's records from several sources into one image of
/// group `group_id`: every cluster of `layers` (a partition's images, base
/// first, then its extensions in file order), node by node, each node's
/// clusters in layer order and then its run of `runs` (pending records in
/// arrival order, by ascending node) in ascending-id order. Records whose
/// id fails `keep` are dropped, and clusters left empty vanish. Nodes come
/// in the order they first appear — the base's storage order, then nodes
/// only a later layer holds, then nodes only `runs` hold — so folding an
/// image's extensions into it gives exactly the image that folding the
/// same records into it flush by flush would have. Records are copied as
/// encoded, never decoded. Returns the image and how many records `keep`
/// dropped.
///
/// # Panics
/// If a layer or a run holds series of another length than `series_len`.
pub fn fold_partition(
    group_id: u64,
    series_len: usize,
    layers: &[PartitionReader],
    runs: &[(TrieNodeId, ClusterRecords<'_>)],
    mut keep: impl FnMut(u64) -> bool,
) -> (Bytes, u64) {
    let mut nodes: Vec<TrieNodeId> = Vec::new();
    for node in (layers
        .iter()
        .flat_map(|l| l.dir.clusters.iter().map(|c| c.0)))
    .chain(runs.iter().map(|r| r.0))
    {
        if !nodes.contains(&node) {
            nodes.push(node);
        }
    }
    let records = (layers.iter().map(|l| l.record_count() as usize))
        .chain(runs.iter().map(|(_, recs)| recs.len()))
        .sum();
    let mut writer = PartitionWriter::with_capacity(group_id, series_len, nodes.len(), records);
    let mut dropped = 0u64;
    for node in nodes {
        for recs in layers.iter().filter_map(|l| l.cluster_records(node)) {
            dropped += writer.splice(&recs, &mut keep);
        }
        if let Some((_, recs)) = runs.iter().find(|(n, _)| *n == node) {
            let mut order: Vec<usize> = (0..recs.len()).collect();
            order.sort_unstable_by_key(|&i| recs.id(i));
            for i in order {
                match keep(recs.id(i)) {
                    true => writer.splice_record(recs, i),
                    false => dropped += 1,
                }
            }
        }
        if writer.pending() > 0 {
            writer.seal_cluster(node);
        }
    }
    (writer.finish(), dropped)
}

/// Which clusters of one partition a read asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterPick<'a> {
    /// These nodes, in this order; a node the partition does not hold is
    /// skipped.
    Named(&'a [TrieNodeId]),
    /// Every cluster but these, in storage order.
    Rest(&'a [TrieNodeId]),
}

/// The parsed header of an encoded partition: its group, its series length
/// and where every trie-node cluster lies in the image. Everything a reader
/// needs to fetch one cluster without the rest of the partition — a disk
/// store keeps one per partition and reads clusters by byte range.
#[derive(Debug, Clone)]
pub struct PartitionDirectory {
    group_id: u64,
    series_len: usize,
    /// `(node, first record, record count)` per cluster, in storage order.
    clusters: Vec<(TrieNodeId, u64, u32)>,
    /// Byte offset of the first record (the end of the directory).
    records_at: usize,
}

impl PartitionDirectory {
    /// Parses and checks the header of the encoded partition `bytes`: magic,
    /// version, a directory whose runs are contiguous, and an image exactly
    /// as long as the records the directory lists.
    pub fn parse(bytes: &[u8]) -> Result<Self, String> {
        if bytes.len() < HEADER_FIXED {
            return Err("partition shorter than fixed header".into());
        }
        check_header(bytes)?;
        let group_id = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        let series_len = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
        let n_clusters = u32::from_le_bytes(bytes[20..24].try_into().unwrap()) as usize;
        if series_len == 0 {
            return Err("partition with zero series length".into());
        }
        let dir_end = HEADER_FIXED + n_clusters * DIR_ENTRY;
        if bytes.len() < dir_end {
            return Err("partition truncated inside directory".into());
        }
        let mut clusters = Vec::with_capacity(n_clusters);
        let mut total = 0u64;
        for i in 0..n_clusters {
            let off = HEADER_FIXED + i * DIR_ENTRY;
            let node = u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
            let start = u64::from_le_bytes(bytes[off + 8..off + 16].try_into().unwrap());
            let count = u32::from_le_bytes(bytes[off + 16..off + 20].try_into().unwrap());
            if start != total {
                return Err(format!(
                    "directory entry {i}: start {start} != running total {total}"
                ));
            }
            total += count as u64;
            clusters.push((node, start, count));
        }
        // Checked: the two factors are independent header fields, and a
        // wrapped product could equal the real length.
        let want = usize::try_from(total)
            .ok()
            .and_then(|n| n.checked_mul(record_size(series_len)))
            .and_then(|n| n.checked_add(dir_end));
        if want != Some(bytes.len()) {
            return Err(format!(
                "partition length {} != the {total} records of {series_len} values its directory lists",
                bytes.len()
            ));
        }
        Ok(Self {
            group_id,
            series_len,
            clusters,
            records_at: dir_end,
        })
    }

    /// The owning group id.
    pub fn group_id(&self) -> u64 {
        self.group_id
    }

    /// Length of every stored series.
    pub fn series_len(&self) -> usize {
        self.series_len
    }

    /// Total records in the partition.
    pub fn record_count(&self) -> u64 {
        self.clusters.iter().map(|&(_, _, c)| c as u64).sum()
    }

    /// Size of the header + directory in bytes (the cost of opening the
    /// partition without reading records).
    pub fn header_bytes(&self) -> usize {
        self.records_at
    }

    /// Byte span in the image and record count of cluster `node_id`, or
    /// `None` when the node is absent.
    pub fn locate(&self, node_id: TrieNodeId) -> Option<(std::ops::Range<usize>, usize)> {
        self.clusters
            .iter()
            .find(|&&(n, _, _)| n == node_id)
            .map(|&(_, start, count)| self.span(start, count as usize))
    }

    /// Calls `f(node, byte span, record count)` for every cluster `pick`
    /// selects, in the pick's order; stops at the first error.
    pub fn for_each_picked<E>(
        &self,
        pick: ClusterPick<'_>,
        mut f: impl FnMut(TrieNodeId, std::ops::Range<usize>, usize) -> Result<(), E>,
    ) -> Result<(), E> {
        match pick {
            ClusterPick::Named(nodes) => {
                for &node in nodes {
                    if let Some((span, count)) = self.locate(node) {
                        f(node, span, count)?;
                    }
                }
            }
            ClusterPick::Rest(skip) => {
                for &(node, start, count) in &self.clusters {
                    if !skip.contains(&node) {
                        let (span, count) = self.span(start, count as usize);
                        f(node, span, count)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Byte range in the image of `count` records from record `start` on,
    /// with the count.
    fn span(&self, start: u64, count: usize) -> (std::ops::Range<usize>, usize) {
        let size = record_size(self.series_len);
        let off = self.records_at + (start as usize) * size;
        (off..off + count * size, count)
    }
}

/// Zero-copy reader over an encoded partition: its bytes and their
/// [`PartitionDirectory`].
#[derive(Debug, Clone)]
pub struct PartitionReader {
    bytes: Bytes,
    dir: PartitionDirectory,
}

impl PartitionReader {
    /// Parses the header of an encoded partition.
    pub fn open(bytes: Bytes) -> Result<Self, String> {
        let dir = PartitionDirectory::parse(&bytes)?;
        Ok(Self { bytes, dir })
    }

    /// The owning group id.
    pub fn group_id(&self) -> u64 {
        self.dir.group_id
    }

    /// The raw encoded partition, exactly as stored. Used by the
    /// persistence layer to copy and checksum partitions without
    /// re-encoding records.
    pub fn raw_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Length of every stored series.
    pub fn series_len(&self) -> usize {
        self.dir.series_len
    }

    /// Total records in the partition.
    pub fn record_count(&self) -> u64 {
        self.dir.record_count()
    }

    /// Size of the header + directory in bytes (the cost of opening the
    /// partition without reading records).
    pub fn header_bytes(&self) -> usize {
        self.dir.header_bytes()
    }

    /// Trie-node ids present, in storage order.
    pub fn cluster_ids(&self) -> Vec<TrieNodeId> {
        self.dir.clusters.iter().map(|&(n, _, _)| n).collect()
    }

    /// Record count of a specific cluster, or `None` if absent.
    pub fn cluster_len(&self, node_id: TrieNodeId) -> Option<u32> {
        self.dir.locate(node_id).map(|(_, c)| c as u32)
    }

    /// Byte size of a specific cluster's records.
    pub fn cluster_bytes(&self, node_id: TrieNodeId) -> Option<usize> {
        self.dir.locate(node_id).map(|(span, _)| span.len())
    }

    /// Visits every record of cluster `node_id` with a reusable buffer.
    /// Returns the number of records visited (0 when the node is absent).
    pub fn for_each_in_cluster<F>(&self, node_id: TrieNodeId, f: F) -> u64
    where
        F: FnMut(u64, &[f32]),
    {
        self.cluster_records(node_id)
            .map_or(0, |recs| recs.for_each(f))
    }

    /// Random-access view over the records of cluster `node_id`, or `None`
    /// when the node is absent. One directory lookup up front, then O(1)
    /// per-record access: a scan reads a record's id first and touches
    /// its values only if the record is still wanted.
    pub fn cluster_records(&self, node_id: TrieNodeId) -> Option<ClusterRecords<'_>> {
        let (span, count) = self.dir.locate(node_id)?;
        Some(self.run(span, count))
    }

    /// An owned zero-copy view of cluster `node_id`, or `None` when the
    /// node is absent. The view shares the reader's refcounted image.
    pub fn cluster_view(&self, node_id: TrieNodeId) -> Option<ClusterView> {
        let (span, count) = self.dir.locate(node_id)?;
        Some(ClusterView::new(
            self.bytes.slice(span),
            self.dir.series_len,
            count,
        ))
    }

    /// Every cluster in storage order with its encoded records — what a
    /// rewrite walks to [`splice`](PartitionWriter::splice) a partition
    /// into its successor.
    pub fn clusters(&self) -> impl Iterator<Item = (TrieNodeId, ClusterRecords<'_>)> + '_ {
        self.dir.clusters.iter().map(|&(node, start, count)| {
            let (span, count) = self.dir.span(start, count as usize);
            (node, self.run(span, count))
        })
    }

    /// Every record of the partition, in storage order, as one run
    /// (clusters are stored back to back).
    pub fn records(&self) -> ClusterRecords<'_> {
        let (span, count) = self.dir.span(0, self.record_count() as usize);
        self.run(span, count)
    }

    fn run(&self, span: std::ops::Range<usize>, count: usize) -> ClusterRecords<'_> {
        ClusterRecords::new(&self.bytes[span], self.dir.series_len, count)
    }

    /// The raw encoded partition as a refcounted handle — a clone of the
    /// underlying [`Bytes`], no copy.
    pub fn raw_bytes_owned(&self) -> Bytes {
        self.bytes.clone()
    }

    /// True when any stored record's id satisfies `pred`. Reads only the
    /// 8 id bytes of each record — no value decoding — and returns at the
    /// first hit, so scanning a partition for (say) tombstoned ids costs
    /// far less than a full decode.
    pub fn any_id(&self, pred: impl FnMut(u64) -> bool) -> bool {
        self.records().ids().any(pred)
    }

    /// Visits every record in the whole partition.
    pub fn for_each<F>(&self, f: F) -> u64
    where
        F: FnMut(u64, &[f32]),
    {
        self.records().for_each(f)
    }
}

/// The cursor over a run of encoded records — one sealed cluster
/// ([`PartitionReader::cluster_records`], [`ClusterView::records`]), a
/// whole partition ([`PartitionReader::records`]) or one pending delta
/// cluster ([`DeltaRun::records`](crate::segment::DeltaRun::records)) —
/// and the only code that knows where a record's id and values lie. Ids
/// can be inspected without touching values; values are handed out in
/// place ([`values_le`](Self::values_le), the scan's form) or decoded on
/// demand, per record.
#[derive(Debug, Clone, Copy)]
pub struct ClusterRecords<'a> {
    bytes: &'a [u8],
    series_len: usize,
    count: usize,
}

impl<'a> ClusterRecords<'a> {
    /// A cursor over `count` records of `series_len` values encoded in
    /// `bytes`.
    pub(crate) fn new(bytes: &'a [u8], series_len: usize, count: usize) -> Self {
        debug_assert_eq!(bytes.len(), count * record_size(series_len));
        Self {
            bytes,
            series_len,
            count,
        }
    }

    /// Number of records in the run.
    #[inline]
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when the run holds no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Length of every stored series.
    #[inline]
    pub fn series_len(&self) -> usize {
        self.series_len
    }

    /// Bytes of one encoded record.
    #[inline]
    pub fn record_bytes(&self) -> usize {
        record_size(self.series_len)
    }

    /// Series id of record `i` — an 8-byte read, no value decoding.
    ///
    /// # Panics
    /// If `i >= len()`.
    #[inline]
    pub fn id(&self, i: usize) -> u64 {
        let off = i * self.record_bytes();
        u64::from_le_bytes(self.bytes[off..off + 8].try_into().unwrap())
    }

    /// Record `i` as stored: its 8-byte id, then its values — the span a
    /// scan reads, id first, so the span it prefetches.
    ///
    /// # Panics
    /// If `i >= len()`.
    #[inline]
    pub fn record(&self, i: usize) -> &'a [u8] {
        let record_size = self.record_bytes();
        let off = i * record_size;
        &self.bytes[off..off + record_size]
    }

    /// The series ids in storage order — 8 bytes read per record, no
    /// value decoded.
    pub fn ids(&self) -> impl Iterator<Item = u64> + 'a {
        self.bytes
            .chunks_exact(self.record_bytes())
            .map(|rec| u64::from_le_bytes(rec[..8].try_into().unwrap()))
    }

    /// The values of record `i` as stored: `series_len` little-endian
    /// `f32`s, borrowed from the image at whatever alignment the record
    /// landed on. The scan's form — `ed_early_abandon_le` scores these
    /// bytes in place, so a sealed record is never copied on its way to
    /// the kernel.
    ///
    /// # Panics
    /// If `i >= len()`.
    #[inline]
    pub fn values_le(&self, i: usize) -> &'a [u8] {
        let record_size = self.record_bytes();
        let off = i * record_size;
        &self.bytes[off + 8..off + record_size]
    }

    /// Decodes the values of record `i` into `out`, a slice of exactly
    /// `series_len` values, for callers that need host `f32`s.
    ///
    /// # Panics
    /// If `i >= len()`.
    #[inline]
    pub fn decode_into(&self, i: usize, out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.series_len);
        let encoded = self.values_le(i).chunks_exact(4);
        for (value, chunk) in out.iter_mut().zip(encoded) {
            *value = f32::from_le_bytes(chunk.try_into().unwrap());
        }
    }

    /// Visits every record with a reusable decode buffer, in storage
    /// order. Returns the number of records visited.
    pub fn for_each<F>(&self, mut f: F) -> u64
    where
        F: FnMut(u64, &[f32]),
    {
        let mut buf = vec![0.0f32; self.series_len];
        for i in 0..self.count {
            self.decode_into(i, &mut buf);
            f(self.id(i), &buf);
        }
        self.count as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_partition() -> Bytes {
        let mut w = PartitionWriter::new(3, 4);
        w.push_cluster(
            100,
            vec![
                (1u64, &[1.0f32, 2.0, 3.0, 4.0][..]),
                (2, &[5.0, 6.0, 7.0, 8.0]),
            ],
        );
        w.push_cluster(200, vec![(3u64, &[9.0f32, 10.0, 11.0, 12.0][..])]);
        w.finish()
    }

    /// Reference decoder the tests compare the zero-copy accessors
    /// against: a whole cluster decoded into ids side by side with one
    /// flat `f32` arena, `series_len` values per record.
    #[derive(Debug, Default, Clone)]
    struct ClusterBuf {
        series_len: usize,
        ids: Vec<u64>,
        values: Vec<f32>,
    }

    impl ClusterBuf {
        fn new() -> Self {
            Self::default()
        }

        fn len(&self) -> usize {
            self.ids.len()
        }

        fn is_empty(&self) -> bool {
            self.ids.is_empty()
        }

        /// Length of every held series (0 while empty and untouched).
        fn series_len(&self) -> usize {
            self.series_len
        }

        /// Drops all records but keeps the allocations for reuse.
        fn clear(&mut self) {
            self.ids.clear();
            self.values.clear();
        }

        fn get(&self, i: usize) -> (u64, &[f32]) {
            let s = i * self.series_len;
            (self.ids[i], &self.values[s..s + self.series_len])
        }

        fn iter(&self) -> impl Iterator<Item = (u64, &[f32])> {
            self.ids
                .iter()
                .copied()
                .zip(self.values.chunks_exact(self.series_len.max(1)))
        }

        /// Appends one already-decoded record.
        fn push(&mut self, id: u64, values: &[f32]) {
            self.adopt_len(values.len());
            self.ids.push(id);
            self.values.extend_from_slice(values);
        }

        /// Adopts `series_len` when empty, asserts it matches otherwise.
        fn adopt_len(&mut self, series_len: usize) {
            if self.ids.is_empty() {
                self.series_len = series_len;
            } else {
                assert_eq!(
                    self.series_len, series_len,
                    "ClusterBuf holds {}-point series, cannot append {}-point ones",
                    self.series_len, series_len
                );
            }
        }
    }

    impl PartitionReader {
        /// Decodes every record of cluster `node_id`, **appending** to
        /// `buf`. Returns the records appended (0 when the node is absent).
        fn read_cluster_into(&self, node_id: TrieNodeId, buf: &mut ClusterBuf) -> u64 {
            self.read_cluster_into_if(node_id, buf, |_| true)
        }

        /// Appends only records whose id passes `keep`; returns the records
        /// *visited* (the physical cluster size), not the number appended.
        fn read_cluster_into_if(
            &self,
            node_id: TrieNodeId,
            buf: &mut ClusterBuf,
            mut keep: impl FnMut(u64) -> bool,
        ) -> u64 {
            let Some((span, count)) = self.dir.locate(node_id) else {
                return 0;
            };
            buf.adopt_len(self.series_len());
            let record_size = record_size(self.series_len());
            for r in 0..count {
                let off = span.start + r * record_size;
                let id = u64::from_le_bytes(self.bytes[off..off + 8].try_into().unwrap());
                if !keep(id) {
                    continue;
                }
                buf.ids.push(id);
                let vals = &self.bytes[off + 8..off + record_size];
                buf.values.extend(
                    vals.chunks_exact(4)
                        .map(|chunk| f32::from_le_bytes(chunk.try_into().unwrap())),
                );
            }
            count as u64
        }
    }

    /// The whole-cluster decode in one picture: two records in, two
    /// `(id, values)` pairs out, and a cleared buffer is reusable.
    #[test]
    fn cluster_buf_decodes_a_cluster_and_clears() {
        let mut w = PartitionWriter::new(0, 2);
        w.push_cluster(7, vec![(1u64, &[1.0f32, 2.0][..]), (2, &[3.0, 4.0])]);
        let reader = PartitionReader::open(w.finish()).unwrap();

        let mut buf = ClusterBuf::new();
        assert_eq!(reader.read_cluster_into(7, &mut buf), 2);
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.get(1), (2, &[3.0f32, 4.0][..]));
        buf.clear(); // keeps capacity for the next cluster
        assert!(buf.is_empty());
    }

    #[test]
    fn roundtrip_header() {
        let r = PartitionReader::open(sample_partition()).unwrap();
        assert_eq!(r.group_id(), 3);
        assert_eq!(r.series_len(), 4);
        assert_eq!(r.record_count(), 3);
        assert_eq!(r.cluster_ids(), vec![100, 200]);
        assert_eq!(r.cluster_len(100), Some(2));
        assert_eq!(r.cluster_len(200), Some(1));
        assert_eq!(r.cluster_len(999), None);
    }

    #[test]
    fn cluster_reads_are_localized() {
        let r = PartitionReader::open(sample_partition()).unwrap();
        let mut got = Vec::new();
        let n = r.for_each_in_cluster(200, |id, vals| got.push((id, vals.to_vec())));
        assert_eq!(n, 1);
        assert_eq!(got, vec![(3, vec![9.0, 10.0, 11.0, 12.0])]);
    }

    #[test]
    fn absent_cluster_visits_nothing() {
        let r = PartitionReader::open(sample_partition()).unwrap();
        let n = r.for_each_in_cluster(12345, |_, _| panic!("must not be called"));
        assert_eq!(n, 0);
    }

    #[test]
    fn for_each_visits_all_in_order() {
        let r = PartitionReader::open(sample_partition()).unwrap();
        let mut ids = Vec::new();
        let n = r.for_each(|id, _| ids.push(id));
        assert_eq!(n, 3);
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn any_id_scans_ids_with_early_exit() {
        let r = PartitionReader::open(sample_partition()).unwrap();
        assert!(r.any_id(|id| id == 3));
        assert!(!r.any_id(|id| id == 99));
        let mut visited = 0;
        assert!(r.any_id(|id| {
            visited += 1;
            id == 1
        }));
        assert_eq!(visited, 1, "stops at the first hit");
    }

    #[test]
    fn empty_cluster_allowed() {
        let mut w = PartitionWriter::new(0, 2);
        w.push_cluster(7, Vec::<(u64, &[f32])>::new());
        let r = PartitionReader::open(w.finish()).unwrap();
        assert_eq!(r.cluster_len(7), Some(0));
        assert_eq!(r.record_count(), 0);
    }

    #[test]
    #[should_panic(expected = "appended twice")]
    fn duplicate_cluster_panics() {
        let mut w = PartitionWriter::new(0, 2);
        w.push_cluster(7, Vec::<(u64, &[f32])>::new());
        w.push_cluster(7, Vec::<(u64, &[f32])>::new());
    }

    #[test]
    #[should_panic(expected = "has length")]
    fn wrong_record_length_panics() {
        let mut w = PartitionWriter::new(0, 3);
        w.push_cluster(1, vec![(0u64, &[1.0f32][..])]);
    }

    #[test]
    fn capacity_hints_never_change_the_image() {
        let want = sample_partition();
        for (clusters, records) in [(0, 0), (1, 1), (2, 3), (5, 9)] {
            let mut w = PartitionWriter::with_capacity(3, 4, clusters, records);
            w.push_cluster(
                100,
                vec![
                    (1u64, &[1.0f32, 2.0, 3.0, 4.0][..]),
                    (2, &[5.0, 6.0, 7.0, 8.0]),
                ],
            );
            w.push_cluster(200, vec![(3u64, &[9.0f32, 10.0, 11.0, 12.0][..])]);
            // Exact hints: the buffer the records were appended to *is*
            // the finished image.
            let built_at = w.image.as_ptr();
            let image = w.finish();
            assert_eq!(image, want, "hints ({clusters}, {records})");
            if (clusters, records) == (2, 3) {
                assert_eq!(image.as_ptr(), built_at, "finish re-copied the image");
            }
        }
    }

    #[test]
    fn splice_copies_encoded_runs_and_drops_by_id() {
        let original = sample_partition();
        let r = PartitionReader::open(original.clone()).unwrap();
        let respliced = |keep: &dyn Fn(u64) -> bool| {
            let mut w = PartitionWriter::with_capacity(r.group_id(), r.series_len(), 2, 3);
            let mut dropped = 0;
            for (node, recs) in r.clusters() {
                dropped += w.splice(&recs, keep);
                if w.pending() > 0 {
                    w.seal_cluster(node);
                }
            }
            (w.finish(), dropped)
        };
        // Keep-all reproduces the image bit for bit.
        assert_eq!(respliced(&|_| true), (original, 0));
        // Dropping a record from the middle of a run, and a whole cluster.
        let mut w = PartitionWriter::new(3, 4);
        w.push_cluster(100, vec![(1u64, &[1.0f32, 2.0, 3.0, 4.0][..])]);
        assert_eq!(respliced(&|id| id == 1), (w.finish(), 2));
        // Spliced and encoded records share a cluster.
        let mut w = PartitionWriter::new(3, 4);
        w.splice(&r.cluster_records(200).unwrap(), |_| true);
        w.push_record(9, &[0.5; 4]);
        assert_eq!(w.pending(), 2);
        w.seal_cluster(7);
        let merged = PartitionReader::open(w.finish()).unwrap();
        let mut ids = Vec::new();
        merged.for_each_in_cluster(7, |id, _| ids.push(id));
        assert_eq!(ids, vec![3, 9]);
        // Record by record is the same bytes as run by run.
        let mut w = PartitionWriter::with_capacity(r.group_id(), r.series_len(), 2, 3);
        for (node, recs) in r.clusters() {
            (0..recs.len()).for_each(|i| w.splice_record(&recs, i));
            w.seal_cluster(node);
        }
        assert_eq!(w.finish(), r.raw_bytes_owned());
    }

    #[test]
    #[should_panic(expected = "after the last seal")]
    fn unsealed_records_are_a_bug() {
        let mut w = PartitionWriter::new(0, 1);
        w.push_record(1, &[0.0]);
        w.finish();
    }

    #[test]
    fn corrupted_magic_rejected() {
        let mut b = sample_partition().to_vec();
        b[0] = b'X';
        assert!(PartitionReader::open(Bytes::from(b)).is_err());
    }

    #[test]
    fn truncated_partition_rejected() {
        let b = sample_partition();
        for cut in [3usize, 10, 30, b.len() - 1] {
            let t = b.slice(0..cut);
            assert!(PartitionReader::open(t).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut b = sample_partition().to_vec();
        b.push(0);
        assert!(PartitionReader::open(Bytes::from(b)).is_err());
    }

    #[test]
    fn header_bytes_counts_directory() {
        let r = PartitionReader::open(sample_partition()).unwrap();
        assert_eq!(r.header_bytes(), 24 + 2 * 20);
    }

    #[test]
    fn read_cluster_into_matches_for_each() {
        let r = PartitionReader::open(sample_partition()).unwrap();
        for node in [100u64, 200, 999] {
            let mut via_visit = Vec::new();
            let n1 = r.for_each_in_cluster(node, |id, vals| via_visit.push((id, vals.to_vec())));
            let mut buf = ClusterBuf::new();
            let n2 = r.read_cluster_into(node, &mut buf);
            assert_eq!(n1, n2, "node {node}");
            let via_buf: Vec<(u64, Vec<f32>)> =
                buf.iter().map(|(id, v)| (id, v.to_vec())).collect();
            assert_eq!(via_visit, via_buf, "node {node}");
        }
    }

    #[test]
    fn cluster_buf_appends_and_reuses() {
        let r = PartitionReader::open(sample_partition()).unwrap();
        let mut buf = ClusterBuf::new();
        r.read_cluster_into(100, &mut buf);
        r.read_cluster_into(200, &mut buf); // appends
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.series_len(), 4);
        assert_eq!(buf.get(2), (3, &[9.0f32, 10.0, 11.0, 12.0][..]));
        buf.clear();
        assert!(buf.is_empty());
        r.read_cluster_into(200, &mut buf);
        assert_eq!(buf.len(), 1);
        assert_eq!(buf.get(0).0, 3);
    }

    #[test]
    fn read_cluster_into_if_filters_and_reports_physical_count() {
        let r = PartitionReader::open(sample_partition()).unwrap();
        let mut buf = ClusterBuf::new();
        let visited = r.read_cluster_into_if(100, &mut buf, |id| id != 1);
        assert_eq!(visited, 2, "physical cluster size");
        assert_eq!(buf.len(), 1, "one record filtered out");
        assert_eq!(buf.get(0), (2, &[5.0f32, 6.0, 7.0, 8.0][..]));
        // keep-all matches the unfiltered decode
        let mut a = ClusterBuf::new();
        let mut b = ClusterBuf::new();
        r.read_cluster_into(100, &mut a);
        r.read_cluster_into_if(100, &mut b, |_| true);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.get(0), b.get(0));
        // absent cluster: nothing visited
        assert_eq!(r.read_cluster_into_if(999, &mut buf, |_| true), 0);
    }

    #[test]
    fn cluster_buf_push_merges_decoded_records() {
        let r = PartitionReader::open(sample_partition()).unwrap();
        let mut buf = ClusterBuf::new();
        r.read_cluster_into(200, &mut buf);
        buf.push(77, &[0.5, 0.5, 0.5, 0.5]);
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.get(1), (77, &[0.5f32, 0.5, 0.5, 0.5][..]));
        // a fresh buffer adopts the pushed length
        let mut fresh = ClusterBuf::new();
        fresh.push(1, &[9.0, 9.0]);
        assert_eq!(fresh.series_len(), 2);
    }

    #[test]
    #[should_panic(expected = "cannot append")]
    fn cluster_buf_push_rejects_mixed_lengths() {
        let mut buf = ClusterBuf::new();
        buf.push(1, &[1.0, 2.0]);
        buf.push(2, &[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "cannot append")]
    fn cluster_buf_rejects_mixed_lengths() {
        let r4 = PartitionReader::open(sample_partition()).unwrap();
        let mut w = PartitionWriter::new(0, 2);
        w.push_cluster(1, vec![(9u64, &[0.0f32, 0.0][..])]);
        let r2 = PartitionReader::open(w.finish()).unwrap();
        let mut buf = ClusterBuf::new();
        r4.read_cluster_into(100, &mut buf);
        r2.read_cluster_into(1, &mut buf);
    }

    #[test]
    fn cluster_records_random_access_matches_sequential_decode() {
        let r = PartitionReader::open(sample_partition()).unwrap();
        for node in [100u64, 200] {
            let mut buf = ClusterBuf::new();
            r.read_cluster_into(node, &mut buf);
            let recs = r.cluster_records(node).unwrap();
            assert_eq!(recs.len(), buf.len());
            assert_eq!(recs.series_len(), buf.series_len());
            let mut scratch = vec![0.0f32; recs.series_len()];
            for i in 0..recs.len() {
                let (id, values) = buf.get(i);
                assert_eq!(recs.id(i), id);
                recs.decode_into(i, &mut scratch);
                assert_eq!(scratch.as_slice(), values);
            }
        }
        assert!(r.cluster_records(999).is_none());
    }

    /// Decodes record `i` through a reused scratch vector and appends it
    /// to `buf` — how the scan loop keeps the records it decoded.
    fn promote(recs: &ClusterRecords<'_>, i: usize, scratch: &mut Vec<f32>, buf: &mut ClusterBuf) {
        scratch.resize(recs.series_len(), 0.0);
        recs.decode_into(i, scratch);
        buf.push(recs.id(i), scratch);
    }

    #[test]
    fn cluster_records_push_into_appends_records() {
        let r = PartitionReader::open(sample_partition()).unwrap();
        let recs = r.cluster_records(100).unwrap();
        let (mut buf, mut scratch) = (ClusterBuf::new(), vec![0.0f32; 99]);
        // Promote records out of order, as a survivor scan would; the
        // stale, over-long scratch must not leak into either record.
        promote(&recs, 1, &mut scratch, &mut buf);
        promote(&recs, 0, &mut scratch, &mut buf);
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.get(0), (2, &[5.0f32, 6.0, 7.0, 8.0][..]));
        assert_eq!(buf.get(1), (1, &[1.0f32, 2.0, 3.0, 4.0][..]));
    }

    #[test]
    fn cluster_buf_reuse_across_quantized_and_f32_decodes() {
        // Record-at-a-time promotion and whole-cluster decodes share one
        // ClusterBuf; a stale-buffer bug here would silently corrupt the
        // reference. Interleave the two access styles through one buffer
        // and check every state transition.
        let r = PartitionReader::open(sample_partition()).unwrap();
        let mut buf = ClusterBuf::new();

        // Full f32 decode of a large cluster.
        r.read_cluster_into(100, &mut buf);
        assert_eq!(buf.len(), 2);

        // Clear, then survivor-promote a subset of the same cluster — the
        // buffer must hold exactly the promoted record, not leftovers.
        buf.clear();
        let recs = r.cluster_records(100).unwrap();
        let mut scratch = Vec::new();
        promote(&recs, 1, &mut scratch, &mut buf);
        assert_eq!(buf.len(), 1);
        assert_eq!(buf.get(0), (2, &[5.0f32, 6.0, 7.0, 8.0][..]));

        // Clear, then decode a *different, smaller* cluster; stale values
        // from the larger decode must not bleed in.
        buf.clear();
        r.read_cluster_into(200, &mut buf);
        assert_eq!(buf.len(), 1);
        assert_eq!(buf.get(0), (3, &[9.0f32, 10.0, 11.0, 12.0][..]));

        // Promotion appends on top of a sealed decode (the delta-merge
        // shape): order and values stay exact.
        promote(&recs, 0, &mut scratch, &mut buf);
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.get(1), (1, &[1.0f32, 2.0, 3.0, 4.0][..]));
    }

    #[test]
    fn cluster_bytes_accounts_record_size() {
        let r = PartitionReader::open(sample_partition()).unwrap();
        // record = 8 id bytes + 4 × 4 value bytes = 24
        assert_eq!(r.cluster_bytes(100), Some(48));
        assert_eq!(r.cluster_bytes(200), Some(24));
    }

    #[test]
    fn raw_bytes_are_the_stored_encoding() {
        let encoded = sample_partition();
        let r = PartitionReader::open(encoded.clone()).unwrap();
        assert_eq!(r.raw_bytes(), &encoded[..]);
    }

    #[test]
    fn codec_primitives_roundtrip() {
        let mut out = Vec::new();
        7u8.encode(&mut out);
        513u16.encode(&mut out);
        0xDEAD_BEEFu32.encode(&mut out);
        u64::MAX.encode(&mut out);
        1.5f32.encode(&mut out);
        (-2.25f64).encode(&mut out);
        vec![9u8, 8, 7].encode(&mut out);

        let mut r = ByteReader::new(&out);
        assert_eq!(u8::decode(&mut r).unwrap(), 7);
        assert_eq!(u16::decode(&mut r).unwrap(), 513);
        assert_eq!(u32::decode(&mut r).unwrap(), 0xDEAD_BEEF);
        assert_eq!(u64::decode(&mut r).unwrap(), u64::MAX);
        assert_eq!(f32::decode(&mut r).unwrap(), 1.5);
        assert_eq!(f64::decode(&mut r).unwrap(), -2.25);
        assert_eq!(Vec::<u8>::decode(&mut r).unwrap(), vec![9, 8, 7]);
        r.expect_end().unwrap();
    }

    #[test]
    fn codec_rejects_truncation_and_trailers() {
        let mut r = ByteReader::new(&[1, 2]);
        assert!(r.u32().is_err(), "short read must fail");
        assert_eq!(r.pos(), 0, "failed read does not advance");

        let bytes = 42u32.encode_vec();
        assert!(u32::decode_vec(&bytes).is_ok());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(u32::decode_vec(&trailing).is_err(), "trailing byte");
        assert!(u32::decode_vec(&bytes[..3]).is_err(), "truncated");
    }

    #[test]
    fn codec_blob_is_length_prefixed() {
        let blob: Vec<u8> = (0..9).collect();
        let enc = blob.encode_vec();
        assert_eq!(enc.len(), 8 + 9);
        let mut r = ByteReader::new(&enc);
        assert_eq!(r.blob().unwrap(), &blob[..]);
        // a length prefix pointing past the end must fail, not panic
        let mut bad = enc.clone();
        bad[0] = 200;
        assert!(ByteReader::new(&bad).blob().is_err());
    }
}
