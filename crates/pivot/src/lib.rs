//! # climber-pivot
//!
//! CLIMBER-FX: the feature-extraction layer of CLIMBER (§IV).
//!
//! A set of `r` *pivots* (points in PAA space) induces a Voronoi
//! fragmentation of the feature space. Every data series is represented by
//! its **Pivot Permutation Prefix** — the ids of its `m` nearest pivots —
//! in two flavours that together form the **P4 dual signature** (Def. 6):
//!
//! * rank-sensitive `P4→`: pivot ids ordered by ascending distance;
//! * rank-insensitive `P4↛`: the same ids ordered by id.
//!
//! The dual signature supports two similarity metrics designed by the paper:
//! the [`distances::overlap_distance`] (OD, Def. 7) on rank-insensitive
//! signatures, and the decay-weighted [`distances::weight_distance`] (WD,
//! Defs. 9-11) between a rank-sensitive signature and a rank-insensitive
//! centroid. [`assignment`] implements the Algorithm-1 tie-breaking rules
//! built from the two, over a [`CentroidTable`] of centroid bitmaps.

pub mod assignment;
pub mod decay;
pub mod distances;
pub mod permutation;
pub mod pivots;
pub mod signature;

pub use assignment::{Assignment, CentroidTable};
pub use decay::DecayFunction;
pub use distances::{kendall_tau, overlap_distance, spearman_footrule, weight_distance};
pub use permutation::{pivot_permutation, pivot_permutation_prefix};
pub use pivots::{PivotId, PivotSet};
pub use signature::{DualSignature, RankInsensitive, RankSensitive};
