//! Pivot permutations and permutation prefixes (§IV-A, Definition 5).
//!
//! Given a point in PAA space and a pivot set, the *pivot permutation* lists
//! every pivot id ordered by ascending distance to the point; the *Pivot
//! Permutation Prefix* (PPP) keeps only the `m` nearest. Distance ties are
//! broken by pivot id so permutations are deterministic.

use crate::pivots::{PivotId, PivotSet};

/// Full pivot permutation of `point`: all pivot ids, ascending by
/// `(distance, id)`.
pub fn pivot_permutation(pivots: &PivotSet, point: &[f64]) -> Vec<PivotId> {
    assert_eq!(
        point.len(),
        pivots.dims(),
        "point dimensionality {} != pivot space {}",
        point.len(),
        pivots.dims()
    );
    let mut order: Vec<(f64, PivotId)> = pivots
        .iter()
        .map(|(id, _)| (pivots.sq_dist_to(id, point), id))
        .collect();
    order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    order.into_iter().map(|(_, id)| id).collect()
}

/// Pivot Permutation Prefix of length `m` (Definition 5): the `m` nearest
/// pivot ids, ascending by `(distance, id)`.
///
/// Implemented with a bounded selection rather than a full sort: `r` can be
/// in the hundreds while `m` is ~10, and this function runs once per series
/// per build plus once per query.
pub fn pivot_permutation_prefix(pivots: &PivotSet, point: &[f64], m: usize) -> Vec<PivotId> {
    pivot_permutation_prefix_with(pivots, point, m, &mut Vec::with_capacity(m + 1))
}

/// [`pivot_permutation_prefix`] with a caller-provided selection buffer, so
/// bulk conversion (one call per record of the full dataset in Step 4 of
/// the index build) pays no per-record heap allocation beyond the returned
/// prefix itself. The buffer is cleared on entry; results are identical to
/// the allocating variant.
pub fn pivot_permutation_prefix_with(
    pivots: &PivotSet,
    point: &[f64],
    m: usize,
    heap: &mut Vec<(f64, PivotId)>,
) -> Vec<PivotId> {
    select_prefix(pivots, point, m, heap);
    heap.iter().map(|&(_, id)| id).collect()
}

/// Pivots scored per kernel call: their distances sit in one stack block,
/// so the selection allocates nothing beyond `heap`.
const BLOCK: usize = 64;

/// The selection behind [`pivot_permutation_prefix_with`]: leaves the `m`
/// nearest `(distance, id)` pairs in `heap`, ascending — the form a caller
/// that keeps the prefix in its own buffer reads it from.
///
/// Two passes per block of pivots: one kernel call scores the whole block,
/// then each pivot's [`order_key`] is tested against the current `m`-th
/// best and, only when it beats it, inserted into the sorted `heap`. The
/// pivot order and the ties are those of the full sort, so the prefix is
/// too.
pub(crate) fn select_prefix(
    pivots: &PivotSet,
    point: &[f64],
    m: usize,
    heap: &mut Vec<(f64, PivotId)>,
) {
    assert!(m > 0, "prefix length must be positive");
    assert!(
        m <= pivots.len(),
        "prefix length {m} exceeds pivot count {}",
        pivots.len()
    );
    assert_eq!(
        point.len(),
        pivots.dims(),
        "point dimensionality {} != pivot space {}",
        point.len(),
        pivots.dims()
    );
    heap.clear();
    heap.reserve(m);
    // The key of `heap[m - 1]`, read only once `heap` is full.
    let mut worst = (0, 0);
    let mut dists = [0.0f64; BLOCK];
    for first in (0..pivots.len()).step_by(BLOCK) {
        let block = &mut dists[..BLOCK.min(pivots.len() - first)];
        pivots.sq_dists_to(first, point, block);
        for (j, &d) in block.iter().enumerate() {
            let entry = (d, (first + j) as PivotId);
            let key = order_key(entry);
            let full = heap.len() == m;
            if full && key >= worst {
                continue;
            }
            if !full {
                heap.push(entry);
            }
            // Insertion from the back: the last slot is free or the
            // outgoing worst, and every slot passed moves up one.
            let h = heap.as_mut_slice();
            let mut i = h.len() - 1;
            while i > 0 && order_key(h[i - 1]) > key {
                h[i] = h[i - 1];
                i -= 1;
            }
            h[i] = entry;
            worst = order_key(h[h.len() - 1]);
        }
    }
}

/// A `(distance, id)` pair as integers whose lexicographic order is exactly
/// `d.total_cmp(..).then(id.cmp(..))`. A set sign bit (negative values,
/// −0.0, and x86's default NaN from `inf − inf`) flips every bit, so a
/// larger magnitude sorts lower; a clear one flips only the sign bit,
/// lifting the value above every negative.
#[inline]
fn order_key((d, id): (f64, PivotId)) -> (u64, PivotId) {
    let bits = d.to_bits();
    (bits ^ (((bits as i64 >> 63) as u64) | (1 << 63)), id)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_pivots() -> PivotSet {
        // Seven pivots on a line so distances are easy to reason about.
        PivotSet::from_points((0..7).map(|i| vec![i as f64 * 10.0]).collect())
    }

    #[test]
    fn permutation_orders_by_distance() {
        let ps = grid_pivots();
        // Point at 22: nearest pivots are 2 (d=2), 3 (d=8), 1 (d=12), ...
        let perm = pivot_permutation(&ps, &[22.0]);
        assert_eq!(perm, vec![2, 3, 1, 4, 0, 5, 6]);
    }

    #[test]
    fn prefix_is_head_of_full_permutation() {
        let ps = grid_pivots();
        let full = pivot_permutation(&ps, &[37.0]);
        for m in 1..=7 {
            let prefix = pivot_permutation_prefix(&ps, &[37.0], m);
            assert_eq!(prefix, full[..m], "m={m}");
        }
    }

    #[test]
    fn ties_broken_by_pivot_id() {
        // Point equidistant from pivots 0 and 1.
        let ps = PivotSet::from_points(vec![vec![0.0], vec![2.0], vec![10.0]]);
        let perm = pivot_permutation(&ps, &[1.0]);
        assert_eq!(perm, vec![0, 1, 2]);
    }

    #[test]
    fn prefix_on_random_points_matches_sort_reference() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        let points: Vec<Vec<f64>> = (0..50)
            .map(|_| (0..4).map(|_| rng.random::<f64>() * 10.0).collect())
            .collect();
        let ps = PivotSet::from_points(points);
        for _ in 0..20 {
            let q: Vec<f64> = (0..4).map(|_| rng.random::<f64>() * 10.0).collect();
            let full = pivot_permutation(&ps, &q);
            for m in [1usize, 3, 10, 50] {
                let prefix = pivot_permutation_prefix(&ps, &q, m);
                assert_eq!(prefix, full[..m], "m={m}");
            }
        }
    }

    #[test]
    fn prefix_with_reused_buffer_matches_allocating_variant() {
        let ps = grid_pivots();
        let mut heap = Vec::new();
        for (i, m) in [(0usize, 1usize), (1, 3), (2, 7), (3, 2)] {
            let point = [i as f64 * 13.0 + 1.0];
            let with = pivot_permutation_prefix_with(&ps, &point, m, &mut heap);
            assert_eq!(with, pivot_permutation_prefix(&ps, &point, m));
        }
    }

    #[test]
    fn order_key_orders_as_total_cmp_then_id() {
        let values = [
            f64::from_bits(0xFFF8_0000_0000_0000), // x86's default NaN
            f64::from_bits(0xFFF0_0000_0000_0001), // a negative signalling NaN
            f64::NEG_INFINITY,
            -1.5,
            -f64::from_bits(1),
            -0.0,
            0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            2.5,
            f64::INFINITY,
            f64::NAN,
        ];
        for &a in &values {
            for &b in &values {
                for (ia, ib) in [(0, 0), (0, 1), (1, 0), (7, u16::MAX)] {
                    assert_eq!(
                        order_key((a, ia)).cmp(&order_key((b, ib))),
                        a.total_cmp(&b).then(ia.cmp(&ib)),
                        "({a:?}, {ia}) vs ({b:?}, {ib})"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "prefix length")]
    fn prefix_longer_than_pivots_panics() {
        let ps = grid_pivots();
        pivot_permutation_prefix(&ps, &[0.0], 8);
    }

    #[test]
    #[should_panic(expected = "dimensionality")]
    fn wrong_dimensionality_panics() {
        let ps = grid_pivots();
        pivot_permutation(&ps, &[0.0, 1.0]);
    }

    #[test]
    fn figure2_style_example() {
        // Paper Figure 2: point X has permutation <6,4,1,7,2,5,3> for seven
        // pivots in the plane. Reproduce the idea with 2-D pivots around X.
        let pivots = vec![
            vec![10.0, 10.0], // p1 (id 0)
            vec![40.0, 5.0],  // p2 (id 1)
            vec![60.0, 50.0], // p3 (id 2)
            vec![15.0, 25.0], // p4 (id 3)
            vec![50.0, 30.0], // p5 (id 4)
            vec![12.0, 18.0], // p6 (id 5)
            vec![30.0, 30.0], // p7 (id 6)
        ];
        let ps = PivotSet::from_points(pivots);
        let x = [14.0, 19.0]; // nearest p6 then p4 ...
        let perm = pivot_permutation(&ps, &x);
        assert_eq!(perm[0], 5, "closest must be p6 (id 5)");
        assert_eq!(perm[1], 3, "second closest must be p4 (id 3)");
        assert_eq!(perm.len(), 7);
    }
}
