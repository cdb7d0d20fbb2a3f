//! # climber-baselines
//!
//! The comparison systems of the paper's evaluation (§VII), implemented
//! from scratch at the same scale as the CLIMBER reproduction:
//!
//! * [`dss`] — **Dss**, the distributed sequential scan producing exact
//!   answers (the ground-truth baseline of Figures 7 and 9);
//! * [`dpisax`] — a **DPiSAX**-like distributed iSAX index: sampled binary
//!   splitting of the iSAX space into balanced partitions, single-partition
//!   approximate queries;
//! * [`tardis`] — a **TARDIS**-like sigTree: a wide n-ary tree refining the
//!   *whole word's* cardinality level by level, leaves packed into
//!   partitions, single-partition approximate queries;
//! * [`odyssey`] — an **Odyssey**-like in-memory exact engine (iSAX tree +
//!   mindist best-first pruning) with a configurable memory budget, for the
//!   Table I comparison;
//! * [`hnsw`] — a from-scratch **HNSW** graph standing in for
//!   ParlayANN-HNSW in Table I;
//! * [`lsh`] — a **ChainLink**-like signed-random-projection LSH index,
//!   reproducing the ~30%-recall failure mode §II cites.

pub mod dpisax;
pub mod dss;
pub mod hnsw;
pub mod lsh;
pub mod odyssey;
pub mod tardis;

use climber_dfs::format::ClusterRecords;
use climber_series::distance::ed_early_abandon_le;
use climber_series::series::SeriesId;
use climber_series::topk::TopK;

/// Common result shape for every baseline query.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineOutcome {
    /// Approximate (or exact) answers: `(series id, squared ED)` ascending.
    pub results: Vec<(SeriesId, f64)>,
    /// Records compared against the query.
    pub records_scanned: u64,
    /// Partitions opened (0 for purely in-memory engines).
    pub partitions_opened: usize,
}

/// The exact-ED refinement the partition-based baselines share with
/// CLIMBER's scan: every record of `recs` scored where it lies in the
/// partition image, so the comparisons measure indexes, not decoders.
/// Returns the records visited.
fn refine(recs: ClusterRecords<'_>, query: &[f32], top: &mut TopK) -> u64 {
    for i in 0..recs.len() {
        if let Some(d) = ed_early_abandon_le(query, recs.values_le(i), top.bound()) {
            top.offer(recs.id(i), d);
        }
    }
    recs.len() as u64
}
