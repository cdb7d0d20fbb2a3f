//! Linear resampling of data series.
//!
//! §II notes that PAA/SAX-family representations "allow for queries shorter
//! than the length on which the index is built" — unlike DFT/wavelets. The
//! standard whole-series mechanism is to bring the query to the indexed
//! length; this module provides deterministic linear interpolation used by
//! `SearchMode::Resampled`.

/// Linearly resamples `values` to `target_len` points.
///
/// Endpoints are preserved; interior points are interpolated at uniform
/// fractional positions. A single-point input is replicated.
///
/// # Panics
/// If either length is zero.
pub fn resample_linear(values: &[f32], target_len: usize) -> Vec<f32> {
    assert!(!values.is_empty(), "cannot resample an empty series");
    assert!(target_len > 0, "target length must be positive");
    let n = values.len();
    if n == target_len {
        return values.to_vec();
    }
    if n == 1 {
        return vec![values[0]; target_len];
    }
    let mut out = Vec::with_capacity(target_len);
    let scale = (n - 1) as f64 / (target_len - 1).max(1) as f64;
    for i in 0..target_len {
        let pos = i as f64 * scale;
        let lo = pos.floor() as usize;
        let hi = (lo + 1).min(n - 1);
        let frac = pos - lo as f64;
        let v = values[lo] as f64 * (1.0 - frac) + values[hi] as f64 * frac;
        out.push(v as f32);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_when_lengths_match() {
        let v = vec![1.0f32, 2.0, 3.0];
        assert_eq!(resample_linear(&v, 3), v);
    }

    #[test]
    fn endpoints_are_preserved() {
        let v = vec![5.0f32, 1.0, -2.0, 8.0];
        for target in [2usize, 3, 7, 16] {
            let r = resample_linear(&v, target);
            assert_eq!(r.len(), target);
            assert_eq!(r[0], 5.0);
            assert!((r[target - 1] - 8.0).abs() < 1e-6);
        }
    }

    #[test]
    fn upsampling_a_line_stays_linear() {
        let v = vec![0.0f32, 1.0, 2.0, 3.0];
        let r = resample_linear(&v, 7);
        for (i, x) in r.iter().enumerate() {
            let want = 3.0 * i as f32 / 6.0;
            assert!((x - want).abs() < 1e-5, "{r:?}");
        }
    }

    #[test]
    fn downsampling_preserves_monotonicity() {
        let v: Vec<f32> = (0..100).map(|i| i as f32).collect();
        let r = resample_linear(&v, 10);
        for w in r.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn single_point_replicates() {
        assert_eq!(resample_linear(&[7.0], 4), vec![7.0; 4]);
    }

    #[test]
    fn target_one_takes_first_point() {
        let r = resample_linear(&[3.0, 9.0, 27.0], 1);
        assert_eq!(r, vec![3.0]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_input_panics() {
        resample_linear(&[], 5);
    }

    #[test]
    #[should_panic(expected = "target length")]
    fn zero_target_panics() {
        resample_linear(&[1.0], 0);
    }
}
