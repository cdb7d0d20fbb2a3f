//! The query layer's window onto the mutable segments.
//!
//! A static CLIMBER index answers queries from sealed partitions alone.
//! Once the index absorbs live updates, every query path must also see:
//!
//! * the [`DeltaSegment`] — appended records, clustered under the same
//!   `(partition, trie node)` keys the sealed clusters use, merged into
//!   the candidate stream of every planned (or expanded) cluster;
//! * the [`TombstoneSet`] — deleted ids, filtered out of both sealed and
//!   delta candidates *before* any distance reaches the top-k heap, so a
//!   deleted record can neither appear in an answer nor displace one.
//!
//! An [`UpdateView`] bundles borrowed references to both and rides in a
//! [`Source`](crate::exec::Source). A source without a view is scanned
//! from its sealed partitions alone. A scan holds one delta read section
//! over everything it reads of a partition, sealed clusters included
//! (ARCHITECTURE, "Flush/compaction protocol").

use climber_dfs::segment::{DeltaSegment, TombstoneSet};

/// Borrowed view of an index's mutable segments, shared by every query
/// over its source. Copy-cheap: two references.
#[derive(Debug, Clone, Copy)]
pub struct UpdateView<'a> {
    /// Pending appends, clustered by `(partition, trie node)`.
    pub delta: &'a DeltaSegment,
    /// Pending deletes.
    pub tombstones: &'a TombstoneSet,
}
