//! Index configuration: the paper's tunables with its §VII-A defaults.

use climber_dfs::format::{ByteReader, Decode, Encode};
use climber_pivot::decay::DecayFunction;

/// Configuration of a CLIMBER index build.
///
/// Paper defaults (§VII-A): 200 pivots, prefix length 10; capacity maps the
/// 64 MB HDFS block to a record count (2 000 by default at repo scale);
/// sampling fraction α defaults to 10%.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexConfig {
    /// PAA segment count `w` (dimensionality of the pivot space).
    pub paa_segments: usize,
    /// Number of pivots `r`.
    pub num_pivots: usize,
    /// Pivot-permutation prefix length `m`.
    pub prefix_len: usize,
    /// Partition capacity `c` in records (soft constraint).
    pub capacity: u64,
    /// Sampling fraction `α` for skeleton construction, in (0, 1].
    pub alpha: f64,
    /// Minimum OD between selected centroids `ε` (Algorithm 2 line 8).
    pub epsilon: usize,
    /// Optional cap on the number of centroids (Algorithm 2 line 15).
    pub max_centroids: Option<usize>,
    /// Decay function for WD tie-breaks (Definition 9).
    pub decay: DecayFunction,
    /// Master RNG seed: pivots, sampling and tie-breaks all derive from it.
    pub seed: u64,
    /// Number of simulated cluster workers.
    pub workers: usize,
}

impl Default for IndexConfig {
    fn default() -> Self {
        Self {
            paa_segments: 16,
            num_pivots: 200,
            prefix_len: 10,
            capacity: 2_000,
            alpha: 0.10,
            epsilon: 2,
            max_centroids: None,
            decay: DecayFunction::DEFAULT,
            seed: 0x0C11_B3E5_u64, // arbitrary fixed default
            workers: 4,
        }
    }
}

impl IndexConfig {
    /// Validates parameter consistency for a dataset of series length `n`.
    ///
    /// # Panics
    /// On any inconsistent combination, with a message naming the parameter.
    pub fn validate(&self, series_len: usize) {
        assert!(self.paa_segments > 0, "paa_segments must be positive");
        assert!(
            self.paa_segments <= series_len,
            "paa_segments {} exceeds series length {series_len}",
            self.paa_segments
        );
        assert!(self.num_pivots > 0, "num_pivots must be positive");
        assert!(
            self.num_pivots <= u16::MAX as usize,
            "num_pivots {} exceeds pivot id range",
            self.num_pivots
        );
        assert!(self.prefix_len > 0, "prefix_len must be positive");
        assert!(
            self.prefix_len <= self.num_pivots,
            "prefix_len {} exceeds num_pivots {}",
            self.prefix_len,
            self.num_pivots
        );
        assert!(self.capacity > 0, "capacity must be positive");
        assert!(
            self.alpha > 0.0 && self.alpha <= 1.0,
            "alpha must be in (0,1], got {}",
            self.alpha
        );
        assert!(
            self.epsilon <= self.prefix_len,
            "epsilon {} exceeds prefix_len {}",
            self.epsilon,
            self.prefix_len
        );
        assert!(self.workers > 0, "workers must be positive");
    }

    // -- builder-style setters (the facade crate re-exports these) --

    /// Sets the PAA segment count `w`.
    pub fn with_paa_segments(mut self, w: usize) -> Self {
        self.paa_segments = w;
        self
    }

    /// Sets the number of pivots `r`.
    pub fn with_pivots(mut self, r: usize) -> Self {
        self.num_pivots = r;
        self
    }

    /// Sets the prefix length `m`.
    pub fn with_prefix_len(mut self, m: usize) -> Self {
        self.prefix_len = m;
        self
    }

    /// Sets the partition capacity `c` (records).
    pub fn with_capacity(mut self, c: u64) -> Self {
        self.capacity = c;
        self
    }

    /// Sets the sampling fraction `α`.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Sets the centroid-separation threshold `ε`.
    pub fn with_epsilon(mut self, eps: usize) -> Self {
        self.epsilon = eps;
        self
    }

    /// Caps the number of centroids.
    pub fn with_max_centroids(mut self, cap: usize) -> Self {
        self.max_centroids = Some(cap);
        self
    }

    /// Sets the decay function.
    pub fn with_decay(mut self, decay: DecayFunction) -> Self {
        self.decay = decay;
        self
    }

    /// Sets the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }
}

impl Encode for IndexConfig {
    /// Persisted inside the index manifest so a reopened index knows the
    /// exact build parameters (little-endian, field order fixed by the
    /// manifest's format version, `FORMAT_VERSION`).
    fn encode(&self, out: &mut Vec<u8>) {
        (self.paa_segments as u64).encode(out);
        (self.num_pivots as u64).encode(out);
        (self.prefix_len as u64).encode(out);
        self.capacity.encode(out);
        self.alpha.encode(out);
        (self.epsilon as u64).encode(out);
        match self.max_centroids {
            Some(c) => {
                1u8.encode(out);
                (c as u64).encode(out);
            }
            None => {
                0u8.encode(out);
                0u64.encode(out);
            }
        }
        match self.decay {
            DecayFunction::Exponential { lambda } => {
                0u8.encode(out);
                lambda.encode(out);
            }
            DecayFunction::Linear => {
                1u8.encode(out);
                0f64.encode(out);
            }
        }
        self.seed.encode(out);
        (self.workers as u64).encode(out);
    }
}

impl Decode for IndexConfig {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, String> {
        let paa_segments = r.u64()? as usize;
        let num_pivots = r.u64()? as usize;
        let prefix_len = r.u64()? as usize;
        let capacity = r.u64()?;
        let alpha = r.f64()?;
        let epsilon = r.u64()? as usize;
        let has_cap = r.u8()?;
        let cap = r.u64()? as usize;
        let max_centroids = (has_cap == 1).then_some(cap);
        let decay_tag = r.u8()?;
        let lambda = r.f64()?;
        let decay = match decay_tag {
            0 => DecayFunction::Exponential { lambda },
            1 => DecayFunction::Linear,
            t => return Err(format!("unknown decay tag {t}")),
        };
        let seed = r.u64()?;
        let workers = r.u64()? as usize;
        Ok(Self {
            paa_segments,
            num_pivots,
            prefix_len,
            capacity,
            alpha,
            epsilon,
            max_centroids,
            decay,
            seed,
            workers,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = IndexConfig::default();
        assert_eq!(c.num_pivots, 200);
        assert_eq!(c.prefix_len, 10);
        c.validate(256);
    }

    #[test]
    fn builder_setters_chain() {
        let c = IndexConfig::default()
            .with_pivots(50)
            .with_prefix_len(5)
            .with_capacity(100)
            .with_alpha(0.5)
            .with_seed(9);
        assert_eq!(c.num_pivots, 50);
        assert_eq!(c.prefix_len, 5);
        assert_eq!(c.capacity, 100);
        assert_eq!(c.alpha, 0.5);
        assert_eq!(c.seed, 9);
        c.validate(64);
    }

    #[test]
    #[should_panic(expected = "prefix_len")]
    fn prefix_longer_than_pivots_rejected() {
        IndexConfig::default()
            .with_pivots(5)
            .with_prefix_len(6)
            .validate(256);
    }

    #[test]
    #[should_panic(expected = "paa_segments")]
    fn segments_longer_than_series_rejected() {
        IndexConfig::default().with_paa_segments(512).validate(256);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn bad_alpha_rejected() {
        IndexConfig::default().with_alpha(0.0).validate(256);
    }

    #[test]
    fn codec_roundtrip() {
        for cfg in [
            IndexConfig::default(),
            IndexConfig::default()
                .with_paa_segments(8)
                .with_pivots(48)
                .with_prefix_len(6)
                .with_capacity(120)
                .with_alpha(0.3)
                .with_epsilon(1)
                .with_max_centroids(12)
                .with_decay(DecayFunction::Linear)
                .with_seed(911)
                .with_workers(2),
        ] {
            let back = IndexConfig::decode_vec(&cfg.encode_vec()).unwrap();
            assert_eq!(cfg, back);
        }
    }

    #[test]
    fn codec_rejects_truncation() {
        let bytes = IndexConfig::default().encode_vec();
        assert!(IndexConfig::decode_vec(&bytes[..bytes.len() - 3]).is_err());
        let mut trailing = bytes;
        trailing.push(0);
        assert!(IndexConfig::decode_vec(&trailing).is_err());
    }
}
