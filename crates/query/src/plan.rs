//! Query plans and outcomes.
//!
//! A plan is the output of the *global index search* (which partitions to
//! open and which trie-node clusters to read inside them); an outcome is
//! the result of executing it (the approximate answer set plus the access
//! statistics the paper's experiments report).

use crate::adaptive::plan_adaptive;
use crate::knn::plan_knn;
use crate::od_smallest::plan_od_smallest;
use crate::search::SearchMode;
use climber_dfs::format::{ByteReader, Decode, Encode, TrieNodeId};
use climber_dfs::store::PartitionId;
use climber_index::skeleton::{GroupId, IndexSkeleton};
use climber_series::series::SeriesId;
use rayon::prelude::*;
use std::collections::BTreeMap;

/// The physical reads a query will perform.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QueryPlan {
    /// The group Algorithm 3 settled on (primary group).
    pub primary_group: GroupId,
    /// Length of the trie path matched in the primary group
    /// (`PathLen(GN)`).
    pub primary_path_len: usize,
    /// Estimated records under the primary trie node (`Size(GN)`).
    pub primary_node_size: u64,
    /// partition → trie-node clusters to read from it, sorted.
    pub reads: BTreeMap<PartitionId, Vec<TrieNodeId>>,
    /// Estimated candidate records covered by `reads`.
    pub est_candidates: u64,
    /// Groups that participated in the plan (primary first).
    pub groups: Vec<GroupId>,
}

impl QueryPlan {
    /// Number of distinct partitions the plan touches.
    pub fn num_partitions(&self) -> usize {
        self.reads.len()
    }

    /// Adds a cluster read, deduplicating.
    pub fn add_read(&mut self, partition: PartitionId, node: TrieNodeId) {
        let v = self.reads.entry(partition).or_default();
        if !v.contains(&node) {
            v.push(node);
        }
    }

    /// Truncates the plan to its first `max` partitions (ascending
    /// partition id — deterministic, so truncated plans stay bit-identical
    /// between the sequential and the batched executor). The estimate
    /// fields keep describing the untruncated plan.
    pub fn truncate_partitions(&mut self, max: usize) {
        if self.reads.len() <= max {
            return;
        }
        if let Some(&cut) = self.reads.keys().nth(max) {
            self.reads.split_off(&cut);
        }
    }
}

/// Plans every query of a group against the shared skeleton — plans
/// depend only on skeleton and query, so one pass serves every source.
/// A budget truncates each plan deterministically (ascending partition
/// id).
pub(crate) fn plan_group<Q: AsRef<[f32]> + Sync>(
    skeleton: &IndexSkeleton,
    queries: &[Q],
    mode: SearchMode,
    k: usize,
    budget: Option<u32>,
) -> Vec<QueryPlan> {
    let signatures = skeleton.extract_signatures(queries);
    (0..queries.len())
        .into_par_iter()
        .map(|qi| {
            let sig = &signatures[qi];
            let seed = query_seed(queries[qi].as_ref());
            let mut plan = match mode {
                SearchMode::Exact => plan_knn(skeleton, sig, seed),
                SearchMode::Adaptive(f) | SearchMode::Resampled(f) => {
                    plan_adaptive(skeleton, sig, k, f as usize, seed)
                }
                SearchMode::Smallest => plan_od_smallest(skeleton, sig),
            };
            if let Some(b) = budget {
                plan.truncate_partitions(b as usize);
            }
            plan
        })
        .collect()
}

/// Deterministic per-query seed for tie-breaks: FNV-1a over the value bits.
pub(crate) fn query_seed(query: &[f32]) -> u64 {
    query.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
        (h ^ v.to_bits() as u64).wrapping_mul(0x100_0000_01b3)
    })
}

impl Encode for QueryPlan {
    fn encode(&self, out: &mut Vec<u8>) {
        self.primary_group.encode(out);
        (self.primary_path_len as u64).encode(out);
        self.primary_node_size.encode(out);
        self.est_candidates.encode(out);
        (self.groups.len() as u32).encode(out);
        for g in &self.groups {
            g.encode(out);
        }
        (self.reads.len() as u32).encode(out);
        for (pid, nodes) in &self.reads {
            pid.encode(out);
            (nodes.len() as u32).encode(out);
            for n in nodes {
                n.encode(out);
            }
        }
    }
}

impl Decode for QueryPlan {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, String> {
        let primary_group = r.u32()?;
        let primary_path_len = r.u64()? as usize;
        let primary_node_size = r.u64()?;
        let est_candidates = r.u64()?;
        let n_groups = r.u32()? as usize;
        let mut groups = Vec::with_capacity(n_groups.min(r.remaining() / 4));
        for _ in 0..n_groups {
            groups.push(r.u32()?);
        }
        let n_reads = r.u32()? as usize;
        let mut reads = BTreeMap::new();
        for _ in 0..n_reads {
            let pid = r.u32()?;
            let n_nodes = r.u32()? as usize;
            let mut nodes = Vec::with_capacity(n_nodes.min(r.remaining() / 8));
            for _ in 0..n_nodes {
                nodes.push(r.u64()?);
            }
            if reads.insert(pid, nodes).is_some() {
                return Err(format!("duplicate partition {pid} in plan"));
            }
        }
        Ok(Self {
            primary_group,
            primary_path_len,
            primary_node_size,
            reads,
            est_candidates,
            groups,
        })
    }
}

impl Encode for QueryOutcome {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.results.len() as u32).encode(out);
        for &(id, d) in &self.results {
            id.encode(out);
            d.encode(out);
        }
        (self.partitions_opened as u64).encode(out);
        self.records_scanned.encode(out);
        self.plan.encode(out);
    }
}

impl Decode for QueryOutcome {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, String> {
        let n = r.u32()? as usize;
        if n > r.remaining() / 16 {
            return Err(format!("result count {n} exceeds frame size"));
        }
        let mut results = Vec::with_capacity(n);
        for _ in 0..n {
            let id = r.u64()?;
            let d = r.f64()?;
            results.push((id, d));
        }
        let partitions_opened = r.u64()? as usize;
        let records_scanned = r.u64()?;
        let plan = QueryPlan::decode(r)?;
        Ok(Self {
            results,
            partitions_opened,
            records_scanned,
            plan,
        })
    }
}

/// The executed result of a query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// Approximate answer set: `(series id, squared ED)`, ascending —
    /// the same shape as `climber_series::exact_knn` for direct recall
    /// computation.
    pub results: Vec<(SeriesId, f64)>,
    /// Distinct partitions opened.
    pub partitions_opened: usize,
    /// Records compared against the query.
    pub records_scanned: u64,
    /// The plan that produced this outcome.
    pub plan: QueryPlan,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_outcome() -> QueryOutcome {
        let mut plan = QueryPlan {
            primary_group: 3,
            primary_path_len: 5,
            primary_node_size: 42,
            reads: BTreeMap::new(),
            est_candidates: 99,
            groups: vec![3, 1],
        };
        plan.add_read(1, 10);
        plan.add_read(1, 11);
        plan.add_read(4, 7);
        QueryOutcome {
            results: vec![(9, 0.0), (2, 1.25), (17, f64::MAX)],
            partitions_opened: 2,
            records_scanned: 314,
            plan,
        }
    }

    #[test]
    fn outcome_roundtrips_through_the_codec() {
        use climber_dfs::format::{Decode, Encode};
        let out = sample_outcome();
        let bytes = out.encode_vec();
        assert_eq!(QueryOutcome::decode_vec(&bytes).unwrap(), out);
        // truncation anywhere fails loudly rather than mis-decoding
        for cut in [0, 4, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                QueryOutcome::decode_vec(&bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn truncate_partitions_keeps_the_first_ids() {
        let mut p = sample_outcome().plan;
        p.truncate_partitions(10);
        assert_eq!(p.num_partitions(), 2, "no-op when under the cap");
        p.truncate_partitions(1);
        assert_eq!(p.num_partitions(), 1);
        assert_eq!(p.reads[&1], vec![10, 11]);
        p.truncate_partitions(0);
        assert_eq!(p.num_partitions(), 0);
    }

    #[test]
    fn add_read_dedups() {
        let mut p = QueryPlan::default();
        p.add_read(1, 10);
        p.add_read(1, 10);
        p.add_read(1, 11);
        p.add_read(2, 10);
        assert_eq!(p.num_partitions(), 2);
        assert_eq!(p.reads[&1], vec![10, 11]);
        assert_eq!(p.reads[&2], vec![10]);
    }
}
