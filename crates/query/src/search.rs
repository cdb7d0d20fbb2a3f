//! The unified query surface: one request type for every search strategy.
//!
//! Every strategy of the paper is one [`SearchMode`] of one request type
//! — the shape a wire protocol can carry and one executor can run:
//!
//! * [`SearchRequest`] — query + `k` + a [`SearchMode`] + an optional
//!   partition [budget](SearchRequest::with_budget), built fluently;
//! * [`execute`](crate::exec::execute) — runs a slice of requests through
//!   the one executor, grouping compatible requests so each group is
//!   planned, scanned and scored together; one request alone is
//!   bit-identical to its slot in any batch.
//!
//! Both types implement the [`Encode`]/[`Decode`] codec from
//! `climber_dfs::format`, so the serving layer's wire protocol carries
//! them directly — a served query is byte-for-byte the request a local
//! caller would build.

use climber_dfs::format::{ByteReader, Decode, Encode};
use climber_dfs::store::PartitionStore;
use std::sync::OnceLock;

/// Which search strategy a [`SearchRequest`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchMode {
    /// CLIMBER-kNN (Algorithm 3): the single best trie node, expanding
    /// within already-opened partitions when short of `k`.
    Exact,
    /// CLIMBER-kNN-Adaptive with a partition cap of `factor ×` the plain
    /// plan (the paper evaluates 2X and 4X; 4X is its default variation).
    Adaptive(u32),
    /// The query is linearly resampled to the indexed series length first
    /// (§II: PAA-family representations support shorter queries), then
    /// runs Adaptive with the given factor. Distances in the outcome are
    /// squared ED between the resampled query and the stored series.
    Resampled(u32),
    /// The OD-Smallest full-group scan (ablation baseline, Figure 11(b)).
    Smallest,
}

impl Encode for SearchMode {
    /// A tag, then the factor (`0` for the modes without one).
    fn encode(&self, out: &mut Vec<u8>) {
        let (tag, factor) = match *self {
            SearchMode::Exact => (0u8, 0u32),
            SearchMode::Adaptive(f) => (1, f),
            SearchMode::Resampled(f) => (2, f),
            SearchMode::Smallest => (3, 0),
        };
        tag.encode(out);
        factor.encode(out);
    }
}

impl Decode for SearchMode {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, String> {
        let tag = r.u8()?;
        let factor = r.u32()?;
        match tag {
            0 => Ok(SearchMode::Exact),
            1 => Ok(SearchMode::Adaptive(factor)),
            2 => Ok(SearchMode::Resampled(factor)),
            3 => Ok(SearchMode::Smallest),
            other => Err(format!("unknown search mode tag {other}")),
        }
    }
}

/// One approximate kNN request: the single shape every entry point — the
/// facade, the executor, and the network serving layer — accepts.
///
/// ```
/// use climber_query::search::{SearchMode, SearchRequest};
///
/// let req = SearchRequest::new(vec![0.0; 64], 10)
///     .adaptive(4)
///     .with_budget(32);
/// assert_eq!(req.k, 10);
/// assert_eq!(req.mode, SearchMode::Adaptive(4));
/// assert_eq!(req.budget, Some(32));
/// assert!(req.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SearchRequest {
    /// The query series (any length for [`SearchMode::Resampled`];
    /// the indexed length otherwise).
    pub query: Vec<f32>,
    /// Answer size.
    pub k: usize,
    /// Search strategy.
    pub mode: SearchMode,
    /// Optional cap on the distinct partitions the plan may read: the plan
    /// keeps its first this many in rank order (primary node first) before
    /// refinement. `None` = the strategy's own plan, untruncated; `Some(0)`
    /// fails [`validate`](Self::validate).
    pub budget: Option<u32>,
}

impl SearchRequest {
    /// A request for the `k` nearest neighbours of `query` under the
    /// default strategy, Adaptive-4X (the paper's default variation).
    pub fn new(query: impl Into<Vec<f32>>, k: usize) -> Self {
        Self {
            query: query.into(),
            k,
            mode: SearchMode::Adaptive(4),
            budget: None,
        }
    }

    /// Switches to [`SearchMode::Exact`] (plain CLIMBER-kNN).
    #[must_use]
    pub fn exact(mut self) -> Self {
        self.mode = SearchMode::Exact;
        self
    }

    /// Switches to [`SearchMode::Adaptive`] with the given factor.
    #[must_use]
    pub fn adaptive(mut self, factor: usize) -> Self {
        self.mode = SearchMode::Adaptive(saturate(factor));
        self
    }

    /// Switches to [`SearchMode::Resampled`] with the given factor.
    #[must_use]
    pub fn resampled(mut self, factor: usize) -> Self {
        self.mode = SearchMode::Resampled(saturate(factor));
        self
    }

    /// Switches to [`SearchMode::Smallest`] (OD-Smallest ablation scan).
    #[must_use]
    pub fn smallest(mut self) -> Self {
        self.mode = SearchMode::Smallest;
        self
    }

    /// Caps the plan at its `max_partitions` best-ranked partitions (a
    /// positive number: a zero budget fails [`validate`](Self::validate)).
    #[must_use]
    pub fn with_budget(mut self, max_partitions: usize) -> Self {
        self.budget = Some(saturate(max_partitions));
        self
    }

    /// Checks the request is executable without panicking: `k` and any
    /// budget positive, a non-empty query of finite values, and a positive
    /// factor for the factor-carrying modes. The serving layer maps a
    /// failure onto a typed bad-request response instead of letting a
    /// malformed frame kill a worker. A NaN or infinite query value would
    /// make every distance NaN or infinite, which no top-k bound can order.
    pub fn validate(&self) -> Result<(), String> {
        if self.k == 0 {
            return Err("k must be positive".into());
        }
        if self.budget == Some(0) {
            return Err("budget must be positive".into());
        }
        if self.query.is_empty() {
            return Err("query must be non-empty".into());
        }
        if let Some(i) = self.query.iter().position(|v| !v.is_finite()) {
            return Err(format!(
                "query value {i} is {}: every value must be finite",
                self.query[i]
            ));
        }
        match self.mode {
            SearchMode::Adaptive(0) | SearchMode::Resampled(0) => {
                Err("factor must be positive".into())
            }
            _ => Ok(()),
        }
    }

    /// [`validate`](Self::validate) plus the one check only an index can
    /// make: unless the request is [`SearchMode::Resampled`], its query
    /// must have the indexed series length (`None` = an empty index, which
    /// has no length to disagree with). This is the executor's validation
    /// stage; the serving layer runs the same check before admission.
    pub fn validate_for(&self, indexed_len: Option<usize>) -> Result<(), String> {
        self.validate()?;
        match (self.mode, indexed_len) {
            (SearchMode::Resampled(_), _) | (_, None) => Ok(()),
            (_, Some(n)) if self.query.len() == n => Ok(()),
            (_, Some(n)) => Err(format!(
                "query length {} != indexed series length {n}",
                self.query.len()
            )),
        }
    }
}

/// A builder argument as the request's `u32`: values past `u32::MAX` read
/// as `u32::MAX` ("no cap" in practice), never wrapped to a small number.
fn saturate(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

impl Encode for SearchRequest {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.query.len() as u64).encode(out);
        for &v in &self.query {
            v.encode(out);
        }
        (self.k as u64).encode(out);
        self.mode.encode(out);
        let (flag, budget) = self.budget.map_or((0u8, 0u32), |b| (1, b));
        flag.encode(out);
        budget.encode(out);
    }
}

impl Decode for SearchRequest {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, String> {
        let n = r.u64()? as usize;
        if n > r.remaining() / 4 {
            return Err(format!("query length {n} exceeds frame size"));
        }
        let mut query = Vec::with_capacity(n);
        for _ in 0..n {
            query.push(r.f32()?);
        }
        let k = r.u64()? as usize;
        let mode = SearchMode::decode(r)?;
        let has_budget = r.u8()?;
        let budget_val = r.u32()?;
        let budget = match has_budget {
            0 => None,
            1 => Some(budget_val),
            other => return Err(format!("bad budget flag {other}")),
        };
        Ok(Self {
            query,
            k,
            mode,
            budget,
        })
    }
}

/// The indexed series length of one index handle, looked up at most once:
/// set for free where a handle already knows it (a manifest field, a
/// build's scan), read from the first stored partition otherwise.
#[derive(Debug, Clone, Default)]
pub struct SeriesLen(OnceLock<usize>);

impl SeriesLen {
    /// Records a length the caller already knows (`0` = unknown).
    pub fn set(&self, len: usize) {
        if len > 0 {
            let _ = self.0.set(len);
        }
    }

    /// The indexed length; `None` while `store` holds no partition.
    pub fn get<S: PartitionStore>(&self, store: &S) -> Option<usize> {
        if let Some(&len) = self.0.get() {
            return Some(len);
        }
        let pid = *store.ids().first()?;
        self.set(store.open(pid).ok()?.series_len());
        self.0.get().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_covers_every_mode() {
        let q = vec![1.0f32, 2.0];
        assert_eq!(
            SearchRequest::new(q.clone(), 3).mode,
            SearchMode::Adaptive(4)
        );
        assert_eq!(
            SearchRequest::new(q.clone(), 3).exact().mode,
            SearchMode::Exact
        );
        assert_eq!(
            SearchRequest::new(q.clone(), 3).adaptive(2).mode,
            SearchMode::Adaptive(2)
        );
        assert_eq!(
            SearchRequest::new(q.clone(), 3).resampled(4).mode,
            SearchMode::Resampled(4)
        );
        assert_eq!(
            SearchRequest::new(q, 3).smallest().mode,
            SearchMode::Smallest
        );
    }

    #[test]
    fn builders_saturate_arguments_past_u32() {
        let Ok(big) = usize::try_from(1u64 << 32) else {
            return;
        };
        let req = SearchRequest::new(vec![1.0f32], 3);
        assert_eq!(
            req.clone().adaptive(big).mode,
            SearchMode::Adaptive(u32::MAX)
        );
        assert_eq!(
            req.clone().resampled(big).mode,
            SearchMode::Resampled(u32::MAX)
        );
        assert_eq!(req.clone().with_budget(big).budget, Some(u32::MAX));
        assert!(req.adaptive(big).validate().is_ok());
    }

    #[test]
    fn validate_rejects_malformed_requests() {
        assert!(SearchRequest::new(vec![1.0], 0).validate().is_err());
        assert!(SearchRequest::new(Vec::<f32>::new(), 5).validate().is_err());
        assert!(SearchRequest::new(vec![1.0], 5)
            .adaptive(0)
            .validate()
            .is_err());
        assert!(SearchRequest::new(vec![1.0], 5)
            .resampled(0)
            .validate()
            .is_err());
        assert!(SearchRequest::new(vec![1.0], 5).exact().validate().is_ok());
        assert!(SearchRequest::new(vec![1.0], 5)
            .smallest()
            .validate()
            .is_ok());
        // the index-aware check: only Resampled may differ in length
        let short = SearchRequest::new(vec![1.0; 3], 5);
        assert!(short.validate_for(None).is_ok());
        assert!(short.validate_for(Some(3)).is_ok());
        let err = short.validate_for(Some(8)).unwrap_err();
        assert!(err.contains('3') && err.contains('8'), "{err}");
        assert!(short.clone().resampled(2).validate_for(Some(8)).is_ok());
        assert!(short.resampled(0).validate_for(Some(8)).is_err());
    }

    #[test]
    fn validate_refuses_a_zero_budget() {
        // A budget of zero would cut every plan to nothing and answer `[]`
        // for a positive `k`: refused like `k == 0`, in every mode.
        let req = SearchRequest::new(vec![1.0; 3], 5);
        for req in [
            req.clone(),
            req.clone().exact(),
            req.clone().smallest(),
            req.resampled(2),
        ] {
            let err = req
                .clone()
                .with_budget(0)
                .validate_for(Some(3))
                .unwrap_err();
            assert!(err.contains("budget must be positive"), "{err}");
            assert!(req.clone().with_budget(1).validate_for(Some(3)).is_ok());
            assert!(req.validate_for(Some(3)).is_ok(), "no budget is no cap");
        }
    }

    #[test]
    fn validate_refuses_non_finite_query_values() {
        let negative_nan = f32::from_bits(0xFFC0_0000);
        for bad in [f32::NAN, negative_nan, f32::INFINITY, f32::NEG_INFINITY] {
            let mut query = vec![0.5f32; 8];
            query[5] = bad;
            for req in [
                SearchRequest::new(query.clone(), 3),
                SearchRequest::new(query.clone(), 3).adaptive(4),
                SearchRequest::new(query.clone(), 3).resampled(2),
            ] {
                let err = req.validate_for(Some(8)).unwrap_err();
                assert!(
                    err.contains("query value 5") && err.contains("finite"),
                    "{err}"
                );
            }
        }
        let edges = vec![f32::MAX, f32::MIN, -0.0, f32::from_bits(1)];
        assert!(SearchRequest::new(edges, 3).validate_for(Some(4)).is_ok());
    }

    #[test]
    fn request_roundtrips_through_the_codec() {
        let reqs = [
            SearchRequest::new(vec![1.5f32, -2.25, 0.0], 7).exact(),
            SearchRequest::new(vec![0.5f32; 9], 100)
                .adaptive(2)
                .with_budget(5),
            SearchRequest::new(vec![f32::MIN, f32::MAX], 1).resampled(4),
            SearchRequest::new(vec![3.0f32], 2).smallest(),
        ];
        for req in reqs {
            let bytes = req.encode_vec();
            let back = SearchRequest::decode_vec(&bytes).unwrap();
            assert_eq!(req, back);
        }
    }

    #[test]
    fn codec_rejects_truncation_and_bad_tags() {
        let bytes = SearchRequest::new(vec![1.0f32, 2.0], 5).encode_vec();
        assert!(SearchRequest::decode_vec(&bytes[..bytes.len() - 1]).is_err());
        // oversized query length is rejected before allocating
        let mut huge = bytes.clone();
        huge[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(SearchRequest::decode_vec(&huge).is_err());
        // unknown mode tag
        let mut bad = bytes.clone();
        let mode_at = 8 + 2 * 4 + 8; // query len + 2 floats + k
        bad[mode_at] = 9;
        assert!(SearchRequest::decode_vec(&bad).is_err());
        // bad budget flag
        let mut bad = bytes;
        let flag_at = 8 + 2 * 4 + 8 + 5; // ... + mode tag + factor
        bad[flag_at] = 7;
        assert!(SearchRequest::decode_vec(&bad).is_err());
    }
}
