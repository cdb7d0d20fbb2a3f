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
    /// The partitions to open, best first, with the clusters to read.
    pub reads: Reads,
    /// Estimated candidate records the planner covered, before any budget.
    pub est_candidates: u64,
    /// Groups that participated in the plan (primary first).
    pub groups: Vec<GroupId>,
}

/// A plan's reads: one entry per partition, in the order its planner
/// first named it — the primary node's partitions, then each expansion's.
/// That order is the plan's rank, and a budget keeps its head.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Reads(pub(crate) Vec<(PartitionId, Vec<TrieNodeId>)>);

impl Reads {
    /// `(partition, clusters)`, best first; clusters as the planner named them.
    pub fn iter(&self) -> impl Iterator<Item = (&PartitionId, &Vec<TrieNodeId>)> + '_ {
        self.0.iter().map(|(pid, nodes)| (pid, nodes))
    }

    /// The clusters planned in `partition`, if the plan reads it.
    pub fn get(&self, partition: PartitionId) -> Option<&[TrieNodeId]> {
        self.0
            .iter()
            .find(|(pid, _)| *pid == partition)
            .map(|(_, nodes)| &nodes[..])
    }

    /// Keeps the `max` best partitions: a budget.
    pub fn truncate(&mut self, max: usize) {
        self.0.truncate(max);
    }
}

impl QueryPlan {
    /// Number of distinct partitions the plan touches.
    pub fn num_partitions(&self) -> usize {
        self.reads.0.len()
    }

    /// Adds a cluster read, deduplicating: a partition first named here
    /// ranks after every partition already in the plan.
    pub fn add_read(&mut self, partition: PartitionId, node: TrieNodeId) {
        let reads = &mut self.reads.0;
        let at = (reads.iter().position(|(pid, _)| *pid == partition)).unwrap_or_else(|| {
            reads.push((partition, Vec::new()));
            reads.len() - 1
        });
        if !reads[at].1.contains(&node) {
            reads[at].1.push(node);
        }
    }
}

/// Plans every query of a group against the shared skeleton — plans
/// depend only on skeleton and query, so one pass serves every source.
/// A budget keeps each plan's best partitions.
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
                plan.reads.truncate(b as usize);
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
        self.groups.iter().for_each(|g| g.encode(out));
        (self.num_partitions() as u32).encode(out);
        for (pid, nodes) in self.reads.iter() {
            pid.encode(out);
            (nodes.len() as u32).encode(out);
            nodes.iter().for_each(|n| n.encode(out));
        }
    }
}

impl Decode for QueryPlan {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, String> {
        let primary_group = r.u32()?;
        let primary_path_len = r.u64()? as usize;
        let primary_node_size = r.u64()?;
        let est_candidates = r.u64()?;
        // Counts come from the frame: vectors grow as items arrive.
        let groups = (0..r.u32()?).map(|_| r.u32()).collect::<Result<_, _>>()?;
        let n_reads = r.u32()? as usize;
        let mut reads = Vec::with_capacity(n_reads.min(r.remaining() / 8));
        for _ in 0..n_reads {
            let pid = r.u32()?;
            let nodes = (0..r.u32()?).map(|_| r.u64()).collect::<Result<_, _>>()?;
            reads.push((pid, nodes));
        }
        // One entry per partition, checked in O(n log n) on a sorted copy.
        let mut pids: Vec<PartitionId> = reads.iter().map(|(pid, _)| *pid).collect();
        pids.sort_unstable();
        if let Some(pair) = pids.windows(2).find(|pair| pair[0] == pair[1]) {
            return Err(format!("duplicate partition {} in plan", pair[0]));
        }
        let reads = Reads(reads);
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
            reads: Reads::default(),
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
    fn truncate_keeps_the_best_ranked_partitions() {
        let mut p = QueryPlan::default();
        p.add_read(7, 1);
        p.add_read(2, 5);
        p.add_read(7, 3);
        p.add_read(4, 2);
        let ranked: Vec<_> = p.reads.iter().map(|(&pid, _)| pid).collect();
        assert_eq!(ranked, [7, 2, 4], "first-seen order, not id order");
        p.reads.truncate(10);
        assert_eq!(p.num_partitions(), 3, "no-op when under the cap");
        p.reads.truncate(1);
        assert_eq!(p.num_partitions(), 1);
        assert_eq!(p.reads.get(7), Some(&[1, 3][..]));
        assert_eq!(p.reads.get(2), None);
        p.reads.truncate(0);
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
        assert_eq!(p.reads.get(1), Some(&[10, 11][..]));
        assert_eq!(p.reads.get(2), Some(&[10][..]));
    }

    #[test]
    fn a_frame_naming_a_partition_twice_is_refused() {
        use climber_dfs::format::{Decode, Encode};
        // A hand-built outcome frame: no results, then a plan reading one
        // cluster from each `(partition, node)` of `reads`, in that order.
        let frame = |reads: &[(u32, u64)]| {
            let mut f = Vec::new();
            0u32.encode(&mut f); // results
            2u64.encode(&mut f); // partitions opened
            9u64.encode(&mut f); // records scanned
            3u32.encode(&mut f); // primary group
            5u64.encode(&mut f); // primary path length
            42u64.encode(&mut f); // primary node size
            99u64.encode(&mut f); // estimated candidates
            0u32.encode(&mut f); // groups
            (reads.len() as u32).encode(&mut f);
            for &(pid, node) in reads {
                pid.encode(&mut f);
                1u32.encode(&mut f);
                node.encode(&mut f);
            }
            f
        };
        let repeated = QueryOutcome::decode_vec(&frame(&[(4, 7), (1, 10), (4, 8)]));
        let err = repeated.unwrap_err();
        assert!(err.contains("duplicate partition 4"), "{err}");
        // Without the repeat the frame decodes, in the frame's order.
        let plan = QueryOutcome::decode_vec(&frame(&[(4, 7), (1, 10)]))
            .unwrap()
            .plan;
        let ranked: Vec<_> = plan.reads.iter().map(|(&pid, _)| pid).collect();
        assert_eq!(ranked, [4, 1]);
    }
}
