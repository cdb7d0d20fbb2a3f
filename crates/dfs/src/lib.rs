//! # climber-dfs
//!
//! The simulated distributed substrate CLIMBER runs on.
//!
//! The paper's prototype uses Apache Spark over HDFS; the experiments it
//! reports depend on that substrate only through a handful of observable
//! behaviours — *how many partitions a query touches*, *how many bytes are
//! read*, *how much data a build shuffles*, and the 64/128 MB partition
//! capacity. This crate supplies those behaviours in-process:
//!
//! * [`stats`] — atomic I/O accounting (partitions opened, bytes read and
//!   written, records shuffled) that every experiment reads;
//! * [`format`](mod@format) — the on-disk partition format: records
//!   clustered by trie
//!   node with a header directory of offsets, exactly the layout §VI
//!   describes for localized record-level access;
//! * [`store`] — in-memory and on-disk partition stores behind one trait;
//! * [`manifest`] — the versioned on-disk index manifest: checksummed
//!   byte ranges for every partition, atomic-rename commit protocol, and
//!   the typed [`OpenError`] cold-start validation
//!   reports;
//! * [`fsio`] — the pluggable filesystem under every durable path: a
//!   [`ClimberFs`] trait with the production [`StdFs`] passthrough and a
//!   deterministic fault-injecting [`FaultFs`] for crash-consistency
//!   torture tests;
//! * [`cluster`] — a deterministic worker pool with the Spark-ish verbs the
//!   index build pipeline needs (an order-preserving parallel map);
//! * [`sample`] — scattering a raw dataset over input partitions, the
//!   unorganised state data arrives in before indexing;
//! * [`page`] — the paged storage engine: a sharded byte-budgeted LRU
//!   [`BlockCache`] over trie-node clusters and zero-copy
//!   [`ClusterView`]s.

pub mod cluster;
pub mod format;
pub mod fsio;
pub mod manifest;
pub mod page;
pub mod sample;
pub mod segment;
pub mod stats;
pub mod store;

pub use cluster::Cluster;
pub use format::{
    ByteReader, ClusterPick, Decode, Encode, PartitionDirectory, PartitionReader, PartitionWriter,
    TrieNodeId,
};
pub use fsio::{ClimberFs, FaultAction, FaultFs, FaultTrigger, FsOp, FsRef, StdFs};
pub use manifest::{Manifest, OpenError, FORMAT_VERSION, MANIFEST_FILE};
pub use page::{BlockCache, BlockCacheStats, CacheConfig, ClusterView, PAGE_SIZE};
pub use segment::{DeltaSegment, TombstoneSet, JOURNAL_FILE};
pub use stats::IoStats;
pub use store::{DiskStore, MemStore, PartitionId, PartitionStore};
