//! The P4 dual signature (Definition 6).
//!
//! `P4→` (rank-sensitive) is the Pivot Permutation Prefix of a series' PAA
//! signature; `P4↛` (rank-insensitive) is the same id set in lexicographic
//! (ascending id) order. Figure 4 of the paper: two nearby points X and Y
//! may have `P4→` `<1,4,2>` vs `<4,1,2>` yet share `P4↛` `<1,2,4>` — the
//! insensitive form gives the coarse (group) granularity, the sensitive form
//! the fine (partition) granularity.

use crate::permutation::{pivot_permutation_prefix, select_prefix};
use crate::pivots::{PivotId, PivotSet};
use climber_repr::paa::{paa, paa_into};

/// Rank-sensitive signature `P4→`: pivot ids ascending by distance.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RankSensitive(pub Vec<PivotId>);

/// Rank-insensitive signature `P4↛`: the same ids ascending by id.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RankInsensitive(pub Vec<PivotId>);

impl RankSensitive {
    /// Prefix length `m`.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the signature is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Derives the rank-insensitive form (Definition 6's
    /// `LexicographicalOrder(P4→)`).
    pub fn to_insensitive(&self) -> RankInsensitive {
        let mut ids = self.0.clone();
        ids.sort_unstable();
        RankInsensitive(ids)
    }
}

impl RankInsensitive {
    /// Prefix length `m`.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the signature is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// True when `id` is one of the signature's pivots (binary search; the
    /// ids are sorted by construction).
    #[inline]
    pub fn contains(&self, id: PivotId) -> bool {
        self.0.binary_search(&id).is_ok()
    }
}

/// Reusable scratch buffers for bulk signature extraction: the PAA arena,
/// the bounded pivot-selection buffer and the prefix that
/// [`DualSignature::extract`] would otherwise allocate per call. One scratch
/// per worker thread turns the per-record conversion cost of an index build
/// into pure compute.
#[derive(Debug, Default)]
pub struct SignatureScratch {
    paa: Vec<f64>,
    heap: Vec<(f64, PivotId)>,
    prefix: Vec<PivotId>,
}

impl SignatureScratch {
    /// Fresh, empty scratch buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// The rank-sensitive prefix `P4→` of a raw series — PAA with `w`
    /// segments, then the `m` nearest pivots — kept in this scratch and
    /// borrowed from it. Record placement needs no `P4↛`, so it takes this
    /// instead of a [`DualSignature`]: no insensitive copy, no sort, and no
    /// allocation once the scratch has grown to `w` and `m`.
    pub fn rank_sensitive(
        &mut self,
        values: &[f32],
        pivots: &PivotSet,
        w: usize,
        m: usize,
    ) -> &[PivotId] {
        self.select(values, pivots, w, m);
        self.prefix.clear();
        self.prefix.extend(self.heap.iter().map(|&(_, id)| id));
        &self.prefix
    }

    /// PAA into the arena, then the `m` nearest pivots into the selection
    /// buffer, ascending by `(distance, id)`.
    fn select(&mut self, values: &[f32], pivots: &PivotSet, w: usize, m: usize) {
        self.paa.clear();
        self.paa.reserve(w);
        paa_into(values, w, &mut self.paa);
        select_prefix(pivots, &self.paa, m, &mut self.heap);
    }
}

/// The P4 dual signature of one data series (Definition 6).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DualSignature {
    /// Rank-sensitive `P4→`.
    pub sensitive: RankSensitive,
    /// Rank-insensitive `P4↛`.
    pub insensitive: RankInsensitive,
}

impl DualSignature {
    /// Builds the dual signature from an explicit rank-sensitive prefix.
    pub fn from_sensitive(sensitive: RankSensitive) -> Self {
        let insensitive = sensitive.to_insensitive();
        Self {
            sensitive,
            insensitive,
        }
    }

    /// Extracts the dual signature of a raw series: PAA with `w` segments,
    /// then the `m`-nearest-pivot prefix (the full CLIMBER-FX pipeline of
    /// §IV-B applied to one object).
    pub fn extract(values: &[f32], pivots: &PivotSet, w: usize, m: usize) -> Self {
        let p = paa(values, w);
        Self::extract_from_paa(&p, pivots, m)
    }

    /// Extracts the dual signature from a precomputed PAA signature.
    pub fn extract_from_paa(paa_sig: &[f64], pivots: &PivotSet, m: usize) -> Self {
        let prefix = pivot_permutation_prefix(pivots, paa_sig, m);
        Self::from_sensitive(RankSensitive(prefix))
    }

    /// [`DualSignature::extract`] with caller-provided [`SignatureScratch`]
    /// buffers, avoiding the per-call PAA and selection allocations. Bulk
    /// conversion paths (the Step-4 full-dataset pass of the index build)
    /// hold one scratch per worker thread and call this per record; the
    /// result is identical to [`extract`](Self::extract).
    pub fn extract_with(
        values: &[f32],
        pivots: &PivotSet,
        w: usize,
        m: usize,
        scratch: &mut SignatureScratch,
    ) -> Self {
        scratch.select(values, pivots, w, m);
        let prefix = scratch.heap.iter().map(|&(_, id)| id).collect();
        Self::from_sensitive(RankSensitive(prefix))
    }

    /// Extracts the dual signatures of a whole run of series, sharing one
    /// [`SignatureScratch`] across every record — the batch conversion API
    /// worker threads use over their record blocks. Output order matches
    /// input order; each element equals [`extract`](Self::extract) of the
    /// corresponding series.
    pub fn extract_batch<'a, I>(series: I, pivots: &PivotSet, w: usize, m: usize) -> Vec<Self>
    where
        I: IntoIterator<Item = &'a [f32]>,
    {
        let mut scratch = SignatureScratch::new();
        series
            .into_iter()
            .map(|s| Self::extract_with(s, pivots, w, m, &mut scratch))
            .collect()
    }

    /// Prefix length `m`.
    pub fn len(&self) -> usize {
        self.sensitive.len()
    }

    /// True when the signature is empty.
    pub fn is_empty(&self) -> bool {
        self.sensitive.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure4_example() {
        // Figure 4: P4→_X = <1,4,2>, P4→_Y = <4,1,2>; both share
        // P4↛ = <1,2,4>. (Pivot "ids" in the figure are 1-based labels;
        // the code is 0-based but the structure is identical.)
        let x = DualSignature::from_sensitive(RankSensitive(vec![1, 4, 2]));
        let y = DualSignature::from_sensitive(RankSensitive(vec![4, 1, 2]));
        assert_ne!(x.sensitive, y.sensitive);
        assert_eq!(x.insensitive, y.insensitive);
        assert_eq!(x.insensitive.0, vec![1, 2, 4]);
    }

    #[test]
    fn insensitive_is_sorted() {
        let s = DualSignature::from_sensitive(RankSensitive(vec![9, 3, 7, 1]));
        assert_eq!(s.insensitive.0, vec![1, 3, 7, 9]);
    }

    #[test]
    fn contains_uses_sorted_ids() {
        let s = DualSignature::from_sensitive(RankSensitive(vec![5, 2, 8]));
        assert!(s.insensitive.contains(5));
        assert!(s.insensitive.contains(2));
        assert!(!s.insensitive.contains(3));
    }

    #[test]
    fn extract_pipeline_end_to_end() {
        // Pivots on a line in 2-segment PAA space; series chosen so its PAA
        // is [0, 10] — nearest pivot must be the one at [0,10].
        let pivots = PivotSet::from_points(vec![
            vec![0.0, 10.0],
            vec![50.0, 50.0],
            vec![0.0, 0.0],
            vec![10.0, 10.0],
        ]);
        let series: Vec<f32> = vec![0.0, 0.0, 10.0, 10.0];
        let sig = DualSignature::extract(&series, &pivots, 2, 3);
        assert_eq!(sig.sensitive.0[0], 0, "nearest pivot is [0,10]");
        assert_eq!(sig.len(), 3);
        // insensitive = sorted sensitive
        let mut sorted = sig.sensitive.0.clone();
        sorted.sort_unstable();
        assert_eq!(sig.insensitive.0, sorted);
    }

    #[test]
    fn scratch_extraction_matches_allocating_path() {
        let pivots = PivotSet::from_points((0..30).map(|i| vec![i as f64, -(i as f64)]).collect());
        let series: Vec<Vec<f32>> = (0..25)
            .map(|i| (0..8).map(|j| ((i * 7 + j) % 11) as f32 - 5.0).collect())
            .collect();
        let mut scratch = SignatureScratch::new();
        for s in &series {
            let with = DualSignature::extract_with(s, &pivots, 2, 5, &mut scratch);
            assert_eq!(with, DualSignature::extract(s, &pivots, 2, 5));
        }
        let batch = DualSignature::extract_batch(series.iter().map(Vec::as_slice), &pivots, 2, 5);
        assert_eq!(batch.len(), series.len());
        for (s, sig) in series.iter().zip(&batch) {
            assert_eq!(sig, &DualSignature::extract(s, &pivots, 2, 5));
        }
    }

    #[test]
    fn duplicate_free_prefix() {
        let pivots = PivotSet::from_points((0..20).map(|i| vec![i as f64]).collect());
        let sig = DualSignature::extract_from_paa(&[7.3], &pivots, 10);
        let mut ids = sig.sensitive.0.clone();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 10, "prefix must not repeat pivots");
    }
}
