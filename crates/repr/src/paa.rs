//! Piecewise Aggregate Approximation (PAA), the Step-1 segmentation of
//! CLIMBER-FX (§IV-B, Figure 3).
//!
//! A series of length `n` is divided into `w` segments and each segment is
//! replaced by its mean. When `w` does not divide `n`, the first `n mod w`
//! segments receive one extra reading (deterministic, order-preserving) —
//! equal-size up to a single element, matching common PAA implementations.

/// A PAA signature: `w` segment means in `f64` (PAA feeds pivot-distance
/// computations, where the extra precision is free and avoids drift).
pub type Paa = Vec<f64>;

/// Computes the PAA signature of `values` with `segments` segments.
///
/// # Panics
/// If `segments == 0` or `segments > values.len()`.
pub fn paa(values: &[f32], segments: usize) -> Paa {
    let mut out = Vec::with_capacity(segments);
    paa_into(values, segments, &mut out);
    out
}

/// Appends the PAA signature of `values` to `out` — the allocation-free
/// variant of [`paa`], used where signatures are computed in bulk into a
/// reused arena (e.g. the batched query engine's per-cluster prefilter).
///
/// # Panics
/// If `segments == 0` or `segments > values.len()`.
pub fn paa_into(values: &[f32], segments: usize, out: &mut Vec<f64>) {
    // Lane-based sum from the kernels module: its pinned order fixes the
    // bits of every PAA value, on every host.
    segment_means(values.len(), segments, out, |seg| {
        climber_series::kernels::sum_f32(&values[seg])
    });
}

/// [`paa_into`] over a record's stored bytes (`f32`s, little-endian) —
/// the same segments summed in the same lane order, so the same bits as
/// decoding first; the scan's prefilter signs records in the page image.
///
/// # Panics
/// As [`paa_into`], or if `values_le` is not a whole number of `f32`s.
pub fn paa_le_into(values_le: &[u8], segments: usize, out: &mut Vec<f64>) {
    assert_eq!(values_le.len() % 4, 0, "readings are 4 bytes each");
    segment_means(values_le.len() / 4, segments, out, |seg| {
        climber_series::kernels::sum_f32_le(&values_le[4 * seg.start..4 * seg.end])
    });
}

/// The one spelling of the segmentation: appends to `out` the mean of each
/// of the `segments` segments of `n` readings, given a segment's `sum`.
fn segment_means(
    n: usize,
    segments: usize,
    out: &mut Vec<f64>,
    sum: impl Fn(std::ops::Range<usize>) -> f64,
) {
    assert!(segments > 0, "segment count must be positive");
    assert!(
        segments <= n,
        "cannot cut {n} readings into {segments} segments"
    );
    let base = n / segments;
    let extra = n % segments; // first `extra` segments take base+1 readings
    let mut start = 0usize;
    for s in 0..segments {
        let len = base + usize::from(s < extra);
        out.push(sum(start..start + len) / len as f64);
        start += len;
    }
    debug_assert_eq!(start, n);
}

/// Lower-bounding distance between two PAA signatures of series of original
/// length `n` (Keogh et al. 2001): `sqrt(n/w · Σ (a_i − b_i)²)`.
///
/// For equal `n` and `w` this lower-bounds the true Euclidean distance,
/// which the Odyssey-like exact engine uses for pruning.
pub fn paa_dist(a: &[f64], b: &[f64], n: usize) -> f64 {
    assert_eq!(a.len(), b.len(), "PAA signatures must have equal length");
    assert!(!a.is_empty(), "PAA signatures must be non-empty");
    let w = a.len();
    let sum: f64 = a
        .iter()
        .zip(b.iter())
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum();
    ((n as f64 / w as f64) * sum).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use climber_series::distance::ed;

    #[test]
    fn paper_figure3_example() {
        // Figure 3: n = 12 → w = 4, PAA_X = [-1.5, -0.4, 0.3, 1.5].
        // Reconstruct a series with exactly those segment means.
        let x: Vec<f32> = vec![
            -1.6, -1.5, -1.4, // mean -1.5
            -0.5, -0.4, -0.3, // mean -0.4
            0.2, 0.3, 0.4, // mean 0.3
            1.4, 1.5, 1.6, // mean 1.5
        ];
        let p = paa(&x, 4);
        let want = [-1.5, -0.4, 0.3, 1.5];
        for (got, want) in p.iter().zip(want.iter()) {
            assert!((got - want).abs() < 1e-6, "{p:?}");
        }
    }

    #[test]
    fn w_equals_n_is_identity() {
        let x = [1.0f32, 2.0, 3.0];
        let p = paa(&x, 3);
        assert_eq!(p, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn w_one_is_global_mean() {
        let x = [2.0f32, 4.0, 6.0, 8.0];
        let p = paa(&x, 1);
        assert_eq!(p, vec![5.0]);
    }

    #[test]
    fn uneven_split_distributes_remainder_to_front() {
        // n=5, w=2 → segments of 3 and 2 readings.
        let x = [1.0f32, 2.0, 3.0, 10.0, 20.0];
        let p = paa(&x, 2);
        assert!((p[0] - 2.0).abs() < 1e-12);
        assert!((p[1] - 15.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_segments_panics() {
        paa(&[1.0], 0);
    }

    #[test]
    #[should_panic(expected = "cannot cut")]
    fn more_segments_than_readings_panics() {
        paa(&[1.0, 2.0], 3);
    }

    #[test]
    fn paa_dist_lower_bounds_euclidean() {
        // Classic Keogh bound: PAA distance <= ED for divisible n.
        let x: Vec<f32> = (0..64).map(|i| ((i * 7) % 13) as f32 - 6.0).collect();
        let y: Vec<f32> = (0..64).map(|i| ((i * 5) % 11) as f32 - 5.0).collect();
        for w in [1, 2, 4, 8, 16, 32, 64] {
            let pd = paa_dist(&paa(&x, w), &paa(&y, w), 64);
            let true_d = ed(&x, &y);
            assert!(pd <= true_d + 1e-9, "w={w}: paa_dist {pd} > ED {true_d}");
        }
    }

    #[test]
    fn paa_dist_of_identical_signatures_is_zero() {
        let p = paa(&[1.0f32, 2.0, 3.0, 4.0], 2);
        assert_eq!(paa_dist(&p, &p, 4), 0.0);
    }

    #[test]
    fn paa_into_appends_to_arena() {
        let x = [1.0f32, 2.0, 3.0, 4.0];
        let y = [10.0f32, 10.0, 20.0, 20.0];
        let mut arena = Vec::new();
        paa_into(&x, 2, &mut arena);
        paa_into(&y, 2, &mut arena);
        assert_eq!(arena, vec![1.5, 3.5, 10.0, 20.0]);
        assert_eq!(&arena[0..2], paa(&x, 2).as_slice());
    }

    #[test]
    fn paa_of_constant_series_is_constant() {
        let x = [3.5f32; 30];
        let p = paa(&x, 6);
        assert!(p.iter().all(|&m| (m - 3.5).abs() < 1e-9));
    }
}
