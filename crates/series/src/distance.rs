//! Euclidean distance kernels (Definition 3) with `f64` accumulation.
//!
//! Four variants are provided:
//! * [`sq_ed`] — squared distance, the hot kernel used by all comparisons
//!   that only need an ordering;
//! * [`ed`] — the paper's `ED(X, Y)` with the final square root;
//! * [`ed_early_abandon`] — the classic data-series optimisation that stops
//!   accumulating as soon as the running sum exceeds a known best bound;
//! * [`ed_early_abandon_le`] — the same loop over a record's stored
//!   little-endian bytes: the scan scores partition images in place.

pub use crate::kernels::ed_early_abandon_le;

/// Squared Euclidean distance between two equal-length slices.
///
/// Chunks of 8 with one independent `f64` accumulator per lane break the
/// loop-carried dependence on a single sum; the lanes are combined in a
/// fixed order shared by both dispatch tiers in [`crate::kernels`], so the
/// scalar and AVX2 paths — and `ed_early_abandon` — all agree bit-for-bit.
///
/// # Panics
/// If the slices differ in length.
#[inline]
pub fn sq_ed(x: &[f32], y: &[f32]) -> f64 {
    crate::kernels::sq_ed(x, y)
}

/// Euclidean distance `ED(X, Y)` (Definition 3).
#[inline]
pub fn ed(x: &[f32], y: &[f32]) -> f64 {
    sq_ed(x, y).sqrt()
}

/// Squared Euclidean distance with early abandoning.
///
/// Returns `None` as soon as the partial sum exceeds `sq_bound` (a squared
/// distance), otherwise `Some(squared distance)`. The bound is checked
/// every 16 readings, keeping the branch cost negligible on series of a few
/// hundred points. Accumulation uses the same 8-lane layout as [`sq_ed`],
/// so a non-abandoned result is bit-identical to `sq_ed(x, y)`.
#[inline]
pub fn ed_early_abandon(x: &[f32], y: &[f32], sq_bound: f64) -> Option<f64> {
    crate::kernels::ed_early_abandon(x, y, sq_bound)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ed_of_identical_series_is_zero() {
        let x = [1.0f32, -2.0, 3.5];
        assert_eq!(ed(&x, &x), 0.0);
    }

    #[test]
    fn ed_known_value() {
        // 3-4-5 triangle.
        let x = [0.0f32, 0.0];
        let y = [3.0f32, 4.0];
        assert!((ed(&x, &y) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn sq_ed_matches_ed_squared() {
        let x = [1.0f32, 2.0, 3.0, 4.0];
        let y = [4.0f32, 3.0, 2.0, 1.0];
        let d = ed(&x, &y);
        assert!((sq_ed(&x, &y) - d * d).abs() < 1e-9);
    }

    #[test]
    fn early_abandon_agrees_when_bound_is_loose() {
        let x: Vec<f32> = (0..100).map(|i| i as f32).collect();
        let y: Vec<f32> = (0..100).map(|i| (i * 2) as f32).collect();
        let exact = sq_ed(&x, &y);
        assert_eq!(ed_early_abandon(&x, &y, f64::INFINITY), Some(exact));
        assert_eq!(ed_early_abandon(&x, &y, exact + 1.0), Some(exact));
    }

    #[test]
    fn early_abandon_fires_when_bound_is_tight() {
        let x: Vec<f32> = (0..100).map(|i| i as f32).collect();
        let y: Vec<f32> = (0..100).map(|i| (i + 10) as f32).collect();
        assert_eq!(ed_early_abandon(&x, &y, 1.0), None);
    }

    #[test]
    fn early_abandon_exact_at_boundary() {
        // bound equal to the true distance must NOT abandon (strict >).
        let x = [0.0f32; 4];
        let y = [1.0f32; 4];
        assert_eq!(ed_early_abandon(&x, &y, 4.0), Some(4.0));
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn mismatched_lengths_panic() {
        sq_ed(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn chunked_kernel_matches_naive_sum() {
        // Lengths around the 8-lane boundary, including a pure remainder.
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 64, 100, 256] {
            let x: Vec<f32> = (0..len).map(|i| (i as f32).sin() * 3.0).collect();
            let y: Vec<f32> = (0..len).map(|i| (i as f32).cos() - 0.5).collect();
            let naive: f64 = x
                .iter()
                .zip(y.iter())
                .map(|(a, b)| {
                    let d = f64::from(*a) - f64::from(*b);
                    d * d
                })
                .sum();
            let got = sq_ed(&x, &y);
            assert!(
                (got - naive).abs() <= naive.abs() * 1e-12 + 1e-12,
                "len {len}: chunked {got} vs naive {naive}"
            );
        }
    }

    #[test]
    fn distance_is_symmetric() {
        let x = [1.5f32, -0.5, 2.0];
        let y = [0.0f32, 1.0, -1.0];
        assert_eq!(ed(&x, &y), ed(&y, &x));
    }

    #[test]
    fn triangle_inequality_on_samples() {
        let a = [0.0f32, 0.0, 0.0];
        let b = [1.0f32, 2.0, 2.0];
        let c = [-1.0f32, 0.5, 4.0];
        assert!(ed(&a, &c) <= ed(&a, &b) + ed(&b, &c) + 1e-12);
    }
}
