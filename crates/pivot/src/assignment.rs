//! Group assignment rules (Algorithm 1).
//!
//! Given a list of group centroids (each a rank-insensitive signature) and
//! an object's rank-sensitive prefix, the object is assigned to:
//!
//! 1. the **fall-back group G0** when it shares no pivot with any centroid
//!    (all OD distances equal `m`);
//! 2. otherwise the centroid with the **unique smallest OD**;
//! 3. on a tie, the tied centroid with the **unique smallest WD** (decay
//!    weights learned from the object's rank-sensitive signature);
//! 4. on a second tie, a deterministic pseudo-random choice among the tied
//!    centroids (the paper says "randomly selected"; this implementation
//!    hashes a caller-supplied seed — typically the series id — so builds
//!    are reproducible).
//!
//! The rules run on a [`CentroidTable`], the centroids as pivot bitmaps:
//! one bit test per prefix pivot and centroid instead of a sorted-list
//! merge, with the same OD and bit-for-bit the same WD as
//! [`overlap_distance`] and
//! [`weight_distance`](crate::distances::weight_distance).

use crate::decay::DecayFunction;
use crate::distances::overlap_distance;
use crate::pivots::PivotId;
use crate::signature::{DualSignature, RankInsensitive};

/// How an Algorithm-1 assignment was decided — recorded for the ablation
/// experiments (how often does each tie level fire?).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Assignment {
    /// No centroid shares a pivot with the object: fall-back group G0
    /// (Algorithm 1 lines 3-5).
    Fallback,
    /// Unique smallest OD (lines 6-7).
    ByOverlap(usize),
    /// OD tie resolved by unique smallest WD (lines 8-12).
    ByWeight(usize),
    /// Second tie resolved pseudo-randomly (line 14).
    ByRandom(usize),
}

impl Assignment {
    /// Index of the chosen centroid, or `None` for the fall-back group.
    pub fn centroid(&self) -> Option<usize> {
        match *self {
            Assignment::Fallback => None,
            Assignment::ByOverlap(i) | Assignment::ByWeight(i) | Assignment::ByRandom(i) => Some(i),
        }
    }
}

/// A set of group centroids in the form Algorithm 1 runs on: one row of
/// `⌈P/64⌉` membership words per centroid (bit `p` set when pivot `p` is
/// in the centroid, `P` the pivot count), plus the decay weights
/// `w_1..w_m` and their total `TW`.
///
/// OD is then `m` minus the prefix pivots whose bit is set, and WD is `TW`
/// minus the weights of those positions, added in prefix order — the same
/// f64 additions [`weight_distance`](crate::distances::weight_distance)
/// makes, so the two agree bit for bit and so do their ties.
#[derive(Debug, Clone, PartialEq)]
pub struct CentroidTable {
    /// `u64` words per row (at least one).
    words: usize,
    /// Row `c` is `bits[c * words..(c + 1) * words]`.
    bits: Vec<u64>,
    /// `w_i` for prefix positions `i = 1..=m`.
    weights: Vec<f64>,
    /// `TW`, as [`DecayFunction::total_weight`] sums it.
    total: f64,
}

/// Whether pivot `p` is in the centroid of `row`.
#[inline]
fn bit(row: &[u64], p: PivotId) -> bool {
    (row[p as usize >> 6] >> (p & 63)) & 1 == 1
}

/// `|prefix ∩ centroid|`: one bit test per prefix pivot.
#[inline]
fn hits(row: &[u64], prefix: &[PivotId]) -> usize {
    prefix.iter().map(|&p| usize::from(bit(row, p))).sum()
}

impl CentroidTable {
    /// The table of `centroids` over pivot ids `0..num_pivots`, for
    /// prefixes of length `m` weighted by `decay`.
    ///
    /// # Errors
    /// A centroid that is not `m` strictly ascending ids below
    /// `num_pivots` — the shape every centroid Algorithm 2 selects has.
    ///
    /// # Panics
    /// If `decay` is an exponential decay with a rate outside (0, 1).
    pub fn new<'a>(
        centroids: impl IntoIterator<Item = &'a RankInsensitive>,
        num_pivots: usize,
        decay: DecayFunction,
        m: usize,
    ) -> Result<Self, String> {
        let words = num_pivots.div_ceil(64).max(1);
        let mut bits = Vec::new();
        for (c, centroid) in centroids.into_iter().enumerate() {
            let ids = &centroid.0;
            if ids.len() != m {
                return Err(format!(
                    "centroid {c} has {} pivots, prefix length is {m}",
                    ids.len()
                ));
            }
            if ids.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("centroid {c} ids are not strictly ascending"));
            }
            if let Some(&p) = ids.iter().find(|&&p| p as usize >= num_pivots) {
                return Err(format!("centroid {c} names pivot {p} of {num_pivots}"));
            }
            bits.resize(bits.len() + words, 0);
            let row = &mut bits[c * words..];
            for &p in ids {
                row[p as usize >> 6] |= 1 << (p & 63);
            }
        }
        Ok(Self {
            words,
            bits,
            weights: decay.weights(m),
            total: decay.total_weight(m),
        })
    }

    /// Number of centroids.
    pub fn len(&self) -> usize {
        self.bits.len() / self.words
    }

    /// True when the table holds no centroid.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// The equal-length check of Definition 7: a prefix is `m` long.
    fn check(&self, prefix: &[PivotId]) {
        assert_eq!(
            prefix.len(),
            self.weights.len(),
            "overlap distance requires equal-length signatures"
        );
    }

    fn rows(&self) -> std::slice::ChunksExact<'_, u64> {
        self.bits.chunks_exact(self.words)
    }

    fn row(&self, c: usize) -> &[u64] {
        &self.bits[c * self.words..(c + 1) * self.words]
    }

    /// `TW − Σ w_i` over the prefix positions `i` whose pivot is in the
    /// centroid of `row`, added in prefix order.
    #[inline]
    fn weight(&self, row: &[u64], prefix: &[PivotId]) -> f64 {
        let mut captured = 0.0;
        for (&p, &w) in prefix.iter().zip(&self.weights) {
            if bit(row, p) {
                captured += w;
            }
        }
        self.total - captured
    }

    /// OD (Definition 7) between centroid `c` and a rank-sensitive prefix.
    ///
    /// # Panics
    /// If `prefix` is not `m` long.
    pub fn od(&self, c: usize, prefix: &[PivotId]) -> usize {
        self.check(prefix);
        prefix.len() - hits(self.row(c), prefix)
    }

    /// WD (Definition 11) between a rank-sensitive prefix and centroid `c`.
    ///
    /// # Panics
    /// If `prefix` is not `m` long.
    pub fn wd(&self, c: usize, prefix: &[PivotId]) -> f64 {
        self.check(prefix);
        self.weight(self.row(c), prefix)
    }

    /// The smallest OD from `prefix` to any centroid; `m` when none
    /// overlaps it or the table is empty (Algorithm 3 lines 5-6).
    ///
    /// # Panics
    /// If `prefix` is not `m` long.
    pub fn min_od(&self, prefix: &[PivotId]) -> usize {
        self.check(prefix);
        let best = self.rows().map(|row| hits(row, prefix)).max();
        prefix.len() - best.unwrap_or(0)
    }

    /// Algorithm 1: assigns a rank-sensitive prefix to one of the
    /// centroids (by index) or to the fall-back group. Allocates nothing.
    ///
    /// `tie_seed` drives the final random tie-break deterministically; pass
    /// the series id (or a hash of it) for reproducible builds.
    ///
    /// # Panics
    /// If the table is empty or `prefix` is not `m` long.
    pub fn assign(&self, prefix: &[PivotId], tie_seed: u64) -> Assignment {
        assert!(!self.is_empty(), "no centroids to assign to");
        self.check(prefix);

        // Line 2: OD to every centroid — the most hits, how many centroids
        // reach it, and the first that does.
        let (mut best, mut n_best, mut first) = (0, 0, 0);
        for (c, row) in self.rows().enumerate() {
            let h = hits(row, prefix);
            if h > best {
                (best, n_best, first) = (h, 1, c);
            } else if h == best {
                n_best += 1;
            }
        }

        // Lines 3-5: zero overlap with every centroid → fall-back.
        if best == 0 {
            return Assignment::Fallback;
        }

        // Lines 6-7: unique smallest OD.
        if n_best == 1 {
            return Assignment::ByOverlap(first);
        }

        // Lines 9-12: WD among the OD-tied centroids, in index order.
        let od_tied = || {
            self.rows()
                .enumerate()
                .skip(first)
                .filter(move |&(_, row)| hits(row, prefix) == best)
        };
        let best_wd = od_tied()
            .map(|(_, row)| self.weight(row, prefix))
            .fold(f64::INFINITY, f64::min);
        let limit = best_wd + f64::EPSILON * best_wd.abs().max(1.0);
        let wd_tied = || {
            od_tied()
                .filter(|&(_, row)| self.weight(row, prefix) <= limit)
                .map(|(c, _)| c)
        };
        let n = wd_tied().count();
        if n == 1 {
            return Assignment::ByWeight(wd_tied().next().expect("one WD-best centroid"));
        }

        // Line 14: deterministic pseudo-random choice among the remaining ties.
        let pick = (splitmix64(tie_seed) % n as u64) as usize;
        Assignment::ByRandom(wd_tied().nth(pick).expect("pick below the tie count"))
    }
}

/// The naive alternative Algorithm 1 replaces (§IV-A challenge 3):
/// treat the centroid's id-ordered pivot list as if it were a rank
/// ordering and assign by Spearman footrule against the object's
/// rank-sensitive signature.
///
/// The paper argues this is *wrong* for the dual representation — rank
/// metrics "will not work, especially when comparing objects of different
/// granularities" — because a centroid has no rank information: its id
/// order is arbitrary, so footrule penalises objects whose genuine
/// proximity ranking disagrees with an accident of pivot numbering. This
/// function exists for the ablation experiments that quantify the claim
/// (see `tests/metric_ablation.rs`); production assignment is
/// [`CentroidTable::assign`].
pub fn assign_group_naive_footrule(
    centroids: &[RankInsensitive],
    sig: &DualSignature,
) -> Assignment {
    use crate::distances::spearman_footrule;
    use crate::signature::RankSensitive;
    assert!(!centroids.is_empty(), "no centroids to assign to");
    let m = sig.len();
    // Fall-back rule kept identical so only the metric differs.
    let no_overlap = centroids
        .iter()
        .all(|c| overlap_distance(c, &sig.insensitive) == m);
    if no_overlap {
        return Assignment::Fallback;
    }
    let mut best = usize::MAX;
    let mut best_idx = 0usize;
    for (i, c) in centroids.iter().enumerate() {
        let pseudo_rank = RankSensitive(c.0.clone()); // id order as "rank"
        let d = spearman_footrule(&sig.sensitive, &pseudo_rank);
        if d < best {
            best = d;
            best_idx = i;
        }
    }
    Assignment::ByOverlap(best_idx)
}

/// SplitMix64 — a tiny, high-quality 64-bit mixer for deterministic
/// tie-breaking.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::RankSensitive;

    fn ri(ids: &[u16]) -> RankInsensitive {
        let mut v = ids.to_vec();
        v.sort_unstable();
        RankInsensitive(v)
    }

    fn dual(sensitive: &[u16]) -> DualSignature {
        DualSignature::from_sensitive(RankSensitive(sensitive.to_vec()))
    }

    /// Algorithm 1 over `centroids` (pivot ids below 16) for one prefix.
    fn assign(
        centroids: &[RankInsensitive],
        sensitive: &[u16],
        decay: DecayFunction,
        tie_seed: u64,
    ) -> Assignment {
        CentroidTable::new(centroids, 16, decay, sensitive.len())
            .unwrap()
            .assign(sensitive, tie_seed)
    }

    /// The centroids of the paper's Example 1.
    fn example1_centroids() -> Vec<RankInsensitive> {
        vec![ri(&[1, 2, 3]), ri(&[2, 4, 5])]
    }

    #[test]
    fn example1_object_x_by_overlap() {
        // X: P4→ = <3,4,1> → P4↛ = <1,3,4>.
        // OD(X,o1)=1, OD(X,o2)=2 → assign to G1 (index 0).
        let a = assign(&example1_centroids(), &[3, 4, 1], DecayFunction::DEFAULT, 0);
        assert_eq!(a, Assignment::ByOverlap(0));
    }

    #[test]
    fn example1_object_y_by_weight() {
        // Y: P4→ = <4,2,1>; OD ties at 1; WD(Y,o1)=1.0, WD(Y,o2)=0.25 →
        // assign to G2 (index 1).
        let a = assign(&example1_centroids(), &[4, 2, 1], DecayFunction::DEFAULT, 0);
        assert_eq!(a, Assignment::ByWeight(1));
    }

    #[test]
    fn example1_object_z_by_random() {
        // Z: P4→ = <6,2,7>; OD ties at 2, WD ties at 1.25 → random pick,
        // deterministic per seed and always one of the tied groups.
        let c = example1_centroids();
        let a1 = assign(&c, &[6, 2, 7], DecayFunction::DEFAULT, 123);
        let a2 = assign(&c, &[6, 2, 7], DecayFunction::DEFAULT, 123);
        assert_eq!(a1, a2, "same seed must give same pick");
        match a1 {
            Assignment::ByRandom(i) => assert!(i == 0 || i == 1),
            other => panic!("expected random tie-break, got {other:?}"),
        }
        // Different seeds eventually pick both groups.
        let picks: std::collections::HashSet<usize> = (0..32)
            .map(
                |s| match assign(&c, &[6, 2, 7], DecayFunction::DEFAULT, s) {
                    Assignment::ByRandom(i) => i,
                    other => panic!("expected random tie-break, got {other:?}"),
                },
            )
            .collect();
        assert_eq!(picks.len(), 2, "both tied groups should be reachable");
    }

    #[test]
    fn zero_overlap_goes_to_fallback() {
        // Object shares no pivot with any centroid.
        let a = assign(&example1_centroids(), &[7, 8, 9], DecayFunction::DEFAULT, 0);
        assert_eq!(a, Assignment::Fallback);
        assert_eq!(a.centroid(), None);
    }

    #[test]
    fn single_centroid_with_any_overlap_wins() {
        let c = vec![ri(&[1, 2, 3])];
        let a = assign(&c, &[3, 9, 8], DecayFunction::DEFAULT, 0);
        assert_eq!(a, Assignment::ByOverlap(0));
    }

    #[test]
    #[should_panic(expected = "no centroids")]
    fn empty_centroid_list_panics() {
        assign(&[], &[1, 2, 3], DecayFunction::DEFAULT, 0);
    }

    #[test]
    fn linear_decay_can_change_the_tiebreak() {
        // Construct a case where exponential and linear decay agree on
        // totals but produce different WDs; assignment still must be one of
        // the OD-tied centroids under both.
        let c = vec![ri(&[1, 5, 6]), ri(&[2, 5, 7])];
        let sig = dual(&[1, 2, 9]);
        for decay in [DecayFunction::DEFAULT, DecayFunction::Linear] {
            let a = assign(&c, &sig.sensitive.0, decay, 0);
            assert!(matches!(
                a,
                Assignment::ByWeight(0) | Assignment::ByOverlap(0)
            ));
        }
    }

    #[test]
    fn naive_footrule_is_deterministic_and_valid() {
        let c = example1_centroids();
        let sig = dual(&[3, 4, 1]);
        let a = assign_group_naive_footrule(&c, &sig);
        assert_eq!(a, assign_group_naive_footrule(&c, &sig));
        assert!(a.centroid().is_some());
    }

    #[test]
    fn naive_footrule_keeps_fallback_semantics() {
        let a = assign_group_naive_footrule(&example1_centroids(), &dual(&[7, 8, 9]));
        assert_eq!(a, Assignment::Fallback);
    }

    #[test]
    fn naive_footrule_can_disagree_with_algorithm_1() {
        // The motivating failure: an object whose nearest pivots are
        // exactly centroid o2's pivots but in "reversed" order. Algorithm 1
        // assigns it to o2 (full overlap, OD 0); footrule against the
        // id-ordered pseudo-rank can prefer a worse-overlap centroid.
        let c = vec![ri(&[1, 2, 3]), ri(&[5, 4, 2])];
        let sig = dual(&[5, 4, 2]); // P4↛ = <2,4,5> — overlaps o2 fully
        let od_choice = assign(&c, &sig.sensitive.0, DecayFunction::DEFAULT, 0);
        assert_eq!(
            od_choice,
            Assignment::ByOverlap(1),
            "Algorithm 1 is unambiguous"
        );
        // whatever footrule picks, Algorithm 1's pick has OD 0 — the
        // correctness requirement the ablation measures end-to-end.
        let naive = assign_group_naive_footrule(&c, &sig);
        assert!(naive.centroid().is_some());
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn table_prefix_length_mismatch_panics() {
        let table = CentroidTable::new(&example1_centroids(), 16, DecayFunction::DEFAULT, 3);
        table.unwrap().assign(&[1, 2], 0);
    }

    #[test]
    fn splitmix_is_deterministic_and_spreads() {
        assert_eq!(splitmix64(42), splitmix64(42));
        let distinct: std::collections::HashSet<u64> = (0..1000u64).map(splitmix64).collect();
        assert_eq!(distinct.len(), 1000);
    }
}
