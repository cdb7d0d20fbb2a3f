//! Pivot sets: the reference points that induce the Voronoi fragmentation.
//!
//! §V Step 1: pivots are PAA signatures of randomly selected sample series
//! ("random selection works competitively well compared to any other
//! sophisticated selection method" — citing the PPP literature). Once
//! chosen, the pivots remain fixed for the lifetime of the index.

use climber_repr::paa::paa;
use climber_series::dataset::Dataset;
use climber_series::sampling::reservoir_sample;

/// Identifier of a pivot within a [`PivotSet`] (dense, 0-based).
pub type PivotId = u16;

/// A fixed set of `r` pivots in PAA space (all of dimension `w`).
#[derive(Debug, Clone, PartialEq)]
pub struct PivotSet {
    dims: usize,
    // row-major r × w
    coords: Vec<f64>,
}

impl PivotSet {
    /// Builds a pivot set from explicit PAA-space coordinates.
    ///
    /// # Panics
    /// If pivots have inconsistent dimensionality, the set is empty, or
    /// there are more than `u16::MAX` pivots.
    pub fn from_points(points: Vec<Vec<f64>>) -> Self {
        assert!(!points.is_empty(), "pivot set cannot be empty");
        assert!(
            points.len() <= u16::MAX as usize,
            "at most {} pivots supported",
            u16::MAX
        );
        let dims = points[0].len();
        assert!(dims > 0, "pivot dimensionality must be positive");
        let mut coords = Vec::with_capacity(points.len() * dims);
        for p in &points {
            assert_eq!(p.len(), dims, "inconsistent pivot dimensionality");
            coords.extend_from_slice(p);
        }
        Self { dims, coords }
    }

    /// Selects `r` pivots by computing the `w`-segment PAA of every series
    /// in `sample` and reservoir-sampling `r` of them (§V Step 1).
    ///
    /// # Panics
    /// If the sample holds fewer than `r` series.
    pub fn select_random(sample: &Dataset, w: usize, r: usize, seed: u64) -> Self {
        assert!(
            sample.num_series() >= r,
            "sample of {} series cannot provide {} pivots",
            sample.num_series(),
            r
        );
        let ids = reservoir_sample(0..sample.num_series() as u64, r, seed);
        let points: Vec<Vec<f64>> = ids.into_iter().map(|id| paa(sample.get(id), w)).collect();
        Self::from_points(points)
    }

    /// Number of pivots `r`.
    #[inline]
    pub fn len(&self) -> usize {
        self.coords.len() / self.dims
    }

    /// True when the set holds no pivots (cannot happen post-construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// Dimensionality `w` of the pivot space.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Coordinates of pivot `id`.
    #[inline]
    pub fn get(&self, id: PivotId) -> &[f64] {
        let i = id as usize * self.dims;
        &self.coords[i..i + self.dims]
    }

    /// Squared Euclidean distance from `point` (in PAA space) to pivot `id`.
    ///
    /// Runs on the pinned-order f64 kernel, so signatures extracted on
    /// different hosts (or at build vs. query time) always agree.
    #[inline]
    pub fn sq_dist_to(&self, id: PivotId, point: &[f64]) -> f64 {
        debug_assert_eq!(point.len(), self.dims);
        climber_series::kernels::sq_dist_f64(self.get(id), point)
    }

    /// Squared Euclidean distances from `point` to pivots `first ..
    /// first + out.len()`, one per slot of `out`: the bits of
    /// [`sq_dist_to`](Self::sq_dist_to) for each, from one call of the
    /// dispatched multi-row kernel.
    ///
    /// # Panics
    /// If the range runs past the last pivot or `point` has the wrong
    /// dimensionality.
    #[inline]
    pub(crate) fn sq_dists_to(&self, first: usize, point: &[f64], out: &mut [f64]) {
        let rows = &self.coords[first * self.dims..(first + out.len()) * self.dims];
        climber_series::kernels::sq_dist_f64_rows(rows, point, out);
    }

    /// Iterator over `(id, coords)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (PivotId, &[f64])> {
        self.coords
            .chunks_exact(self.dims)
            .enumerate()
            .map(|(i, c)| (i as PivotId, c))
    }

    /// Serialises the pivot set to little-endian bytes (dims, count, coords).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.coords.len() * 8);
        out.extend_from_slice(&(self.dims as u64).to_le_bytes());
        out.extend_from_slice(&(self.len() as u64).to_le_bytes());
        for &c in &self.coords {
            out.extend_from_slice(&c.to_le_bytes());
        }
        out
    }

    /// Deserialises a pivot set written by [`PivotSet::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        if bytes.len() < 16 {
            return Err("pivot blob too short".into());
        }
        let dims = u64::from_le_bytes(bytes[0..8].try_into().unwrap()) as usize;
        let count = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
        if dims == 0 || count == 0 {
            return Err("empty pivot set".into());
        }
        // Checked: both factors come from the blob, and a wrapped product
        // could equal the real length.
        let want = dims
            .checked_mul(count)
            .and_then(|n| n.checked_mul(8))
            .and_then(|n| n.checked_add(16));
        if want != Some(bytes.len()) {
            return Err(format!(
                "pivot blob length {} != the {count} pivots of {dims} dimensions its header lists",
                bytes.len()
            ));
        }
        let mut coords = Vec::with_capacity(dims * count);
        for chunk in bytes[16..].chunks_exact(8) {
            coords.push(f64::from_le_bytes(chunk.try_into().unwrap()));
        }
        Ok(Self { dims, coords })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use climber_series::gen::Domain;

    #[test]
    fn from_points_roundtrip() {
        let ps = PivotSet::from_points(vec![vec![0.0, 1.0], vec![2.0, 3.0]]);
        assert_eq!(ps.len(), 2);
        assert_eq!(ps.dims(), 2);
        assert_eq!(ps.get(0), &[0.0, 1.0]);
        assert_eq!(ps.get(1), &[2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "inconsistent")]
    fn ragged_points_rejected() {
        PivotSet::from_points(vec![vec![0.0], vec![1.0, 2.0]]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_set_rejected() {
        PivotSet::from_points(vec![]);
    }

    #[test]
    fn select_random_has_requested_shape() {
        let ds = Domain::RandomWalk.generate(100, 3);
        let ps = PivotSet::select_random(&ds, 16, 10, 7);
        assert_eq!(ps.len(), 10);
        assert_eq!(ps.dims(), 16);
    }

    #[test]
    fn select_random_is_deterministic() {
        let ds = Domain::Eeg.generate(50, 3);
        let a = PivotSet::select_random(&ds, 8, 5, 11);
        let b = PivotSet::select_random(&ds, 8, 5, 11);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "cannot provide")]
    fn oversized_pivot_request_panics() {
        let ds = Domain::Dna.generate(3, 1);
        PivotSet::select_random(&ds, 8, 10, 0);
    }

    #[test]
    fn sq_dist_is_squared_euclidean() {
        let ps = PivotSet::from_points(vec![vec![0.0, 0.0]]);
        assert_eq!(ps.sq_dist_to(0, &[3.0, 4.0]), 25.0);
    }

    #[test]
    fn iter_visits_all_pivots_in_order() {
        let ps = PivotSet::from_points(vec![vec![1.0], vec![2.0], vec![3.0]]);
        let ids: Vec<PivotId> = ps.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn bytes_roundtrip() {
        let ds = Domain::TexMex.generate(40, 9);
        let ps = PivotSet::select_random(&ds, 16, 8, 2);
        let back = PivotSet::from_bytes(&ps.to_bytes()).unwrap();
        assert_eq!(ps, back);
    }

    #[test]
    fn corrupt_bytes_rejected() {
        assert!(PivotSet::from_bytes(&[1, 2, 3]).is_err());
        let ps = PivotSet::from_points(vec![vec![1.0]]);
        let mut b = ps.to_bytes();
        b.pop();
        assert!(PivotSet::from_bytes(&b).is_err());
        // dims * count * 8 wraps to 0: a bare header must not pass for it.
        let mut wrapped = (1u64 << 62).to_le_bytes().to_vec();
        wrapped.extend_from_slice(&4u64.to_le_bytes());
        assert!(PivotSet::from_bytes(&wrapped).is_err());
    }
}
