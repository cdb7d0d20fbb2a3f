//! # climber-query
//!
//! Query processing for CLIMBER (§VI).
//!
//! Three planners over the two-level index, all feeding the same
//! record-level Euclidean refinement:
//!
//! * [`knn`] — **CLIMBER-kNN** (Algorithm 3): navigate to the single best
//!   matching trie node `GN` (OD → WD → longest-path → largest-size →
//!   random tie-breaks) and read its partitions, expanding within already
//!   opened partitions when the node holds fewer than `k` records;
//! * [`adaptive`] — **CLIMBER-kNN-Adaptive**: memorises every OD-tied group
//!   and the ancestors of their best trie nodes, expanding across
//!   partitions until `k` candidates are covered, capped at `factor` times
//!   the partitions CLIMBER-kNN would touch (the paper's 2X/4X variants);
//! * [`od_smallest`] — the ablation baseline of Figure 11(b): scan *all*
//!   partitions of every OD-tied group (stop at Algorithm 3 line 6).
//!
//! Every search — one request or many, one store or a shard set — is one
//! call of the executor in [`exec`]: a [`SearchRequest`]'s
//! [`SearchMode`] picks the planner, and the planned clusters are scanned
//! **partition-major** (open each partition once, decode each cluster
//! once, score it against every query that selected it) with outcomes
//! that do not depend on how the requests were batched.

#![warn(missing_docs)]

pub mod adaptive;
pub mod exec;
pub mod knn;
pub mod od_smallest;
pub mod plan;
pub mod search;
pub mod updates;

pub use exec::{execute, Source, SourceStatus};
pub use plan::{QueryOutcome, QueryPlan};
pub use search::{SearchMode, SearchRequest};
pub use updates::UpdateView;
