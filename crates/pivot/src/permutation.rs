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

/// The selection behind [`pivot_permutation_prefix_with`]: leaves the `m`
/// nearest `(distance, id)` pairs in `heap`, ascending — the form a caller
/// that keeps the prefix in its own buffer reads it from.
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
    // Bounded max-heap over (dist, id) keyed the same way as the full sort.
    heap.clear();
    heap.reserve(m + 1);
    for (id, _) in pivots.iter() {
        let d = pivots.sq_dist_to(id, point);
        if heap.len() < m {
            heap.push((d, id));
            if heap.len() == m {
                heap.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            }
            continue;
        }
        let worst = heap[m - 1];
        if d.total_cmp(&worst.0).then(id.cmp(&worst.1)).is_lt() {
            // insert in sorted position, drop the worst
            let pos =
                heap.partition_point(|&(hd, hid)| hd.total_cmp(&d).then(hid.cmp(&id)).is_lt());
            heap.insert(pos, (d, id));
            heap.pop();
        }
    }
    if heap.len() < m {
        heap.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    }
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
