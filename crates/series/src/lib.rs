//! # climber-series
//!
//! Data-series substrate for the CLIMBER reproduction.
//!
//! This crate owns everything that exists *below* the index: the data-series
//! model of the paper (Definitions 1-4), Euclidean distance kernels,
//! z-normalisation, the four synthetic dataset generators standing in for the
//! paper's evaluation corpora (RandomWalk, TexMex/SIFT, DNA, seizure EEG),
//! exact ground-truth computation, recall scoring, bounded top-k selection,
//! sampling utilities, and a small binary dataset I/O format.
//!
//! Series values are `f32` (accumulated in `f64` inside distance kernels);
//! this halves the memory footprint of large in-memory datasets, which is
//! what lets the scaled-down experiments still run "big" workloads.

pub mod dataset;
pub mod distance;
pub mod gen;
pub mod ground_truth;
pub mod io;
pub mod kernels;
pub mod recall;
pub mod resample;
pub mod sampling;
pub mod series;
pub mod topk;
pub mod znorm;

pub use dataset::Dataset;
pub use distance::{ed, ed_early_abandon, ed_early_abandon_le, sq_ed};
pub use ground_truth::{exact_knn, exact_knn_batch};
pub use recall::recall;
pub use series::{DataSeries, SeriesId};
pub use topk::TopK;

/// Identifier of a stored series inside a dataset (dense, 0-based).
pub type Neighbor = (SeriesId, f64);
