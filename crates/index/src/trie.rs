//! Trie-based partitioning of a data-series group (§IV-D, Definition 12,
//! Figure 5).
//!
//! A group whose (estimated) size exceeds the capacity `c` distributes its
//! members by the 1st pivot of their rank-sensitive signatures, forming the
//! first trie level; any child still above `c` splits again on the 2nd
//! pivot, and so on until every leaf fits (or the prefix is exhausted — the
//! capacity is a *soft* constraint). Leaves are later packed into physical
//! partitions ([`crate::packing`]); every node carries the union of the
//! partition ids below it, which is what query traversal returns.
//!
//! Each group owns one trie; groups that fit in a single partition get a
//! trivial single-node trie, so record clustering and query traversal are
//! uniform across group sizes.

use climber_dfs::format::{ByteReader, TrieNodeId};
use climber_dfs::store::PartitionId;
use climber_pivot::pivots::PivotId;

/// Index of a node inside its trie's arena.
pub type NodeIdx = u32;

/// One trie node.
#[derive(Debug, Clone, PartialEq)]
pub struct TrieNode {
    /// Globally unique node id (the record-cluster key inside partitions).
    pub id: TrieNodeId,
    /// Edge label from the parent (`None` for the root).
    pub pivot: Option<PivotId>,
    /// Depth (root = 0); equals the length of the pivot prefix leading here.
    pub depth: u8,
    /// Estimated number of full-dataset records below this node.
    pub est_size: u64,
    /// Children as `(edge pivot, arena index)`, sorted by pivot.
    pub children: Vec<(PivotId, NodeIdx)>,
    /// Physical partitions covering this subtree (leaf: exactly one after
    /// packing; internal: sorted union of the children's).
    pub partitions: Vec<PartitionId>,
}

impl TrieNode {
    /// True when the node has no children.
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }

    /// Arena index of the child along `pivot`, if present.
    pub fn child(&self, pivot: PivotId) -> Option<NodeIdx> {
        self.children
            .binary_search_by_key(&pivot, |&(p, _)| p)
            .ok()
            .map(|i| self.children[i].1)
    }
}

/// Result of descending a trie along a rank-sensitive signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Descent {
    /// The deepest node reached.
    pub node: NodeIdx,
    /// Number of edges followed (`PathLen(GN)` in Algorithm 3).
    pub path_len: usize,
}

/// A group's trie (arena representation; node 0 is the root).
#[derive(Debug, Clone, PartialEq)]
pub struct Trie {
    nodes: Vec<TrieNode>,
}

impl Trie {
    /// Builds the trie of a group from `(rank-sensitive prefix, estimated
    /// record count)` members.
    ///
    /// Splitting proceeds while a node's estimated size exceeds `capacity`
    /// and prefix positions remain. Node ids are drawn from `next_id`
    /// (shared across groups so ids are globally unique).
    ///
    /// An empty member list produces a trivial single-leaf trie of size 0.
    pub fn build(
        members: &[(&[PivotId], u64)],
        capacity: u64,
        max_depth: usize,
        next_id: &mut TrieNodeId,
    ) -> Self {
        let total: u64 = members.iter().map(|&(_, c)| c).sum();
        let root = TrieNode {
            id: bump(next_id),
            pivot: None,
            depth: 0,
            est_size: total,
            children: Vec::new(),
            partitions: Vec::new(),
        };
        let mut trie = Trie { nodes: vec![root] };
        let member_refs: Vec<(&[PivotId], u64)> = members.to_vec();
        trie.split_recursive(0, member_refs, capacity, max_depth, next_id);
        trie
    }

    fn split_recursive(
        &mut self,
        node_idx: NodeIdx,
        members: Vec<(&[PivotId], u64)>,
        capacity: u64,
        max_depth: usize,
        next_id: &mut TrieNodeId,
    ) {
        let depth = self.nodes[node_idx as usize].depth as usize;
        let size = self.nodes[node_idx as usize].est_size;
        if size <= capacity || depth >= max_depth {
            return; // fits (or prefix exhausted: soft-capacity leaf)
        }
        // Distribute members by their pivot at this depth. Members whose
        // signature is shorter than the depth (possible only for malformed
        // input) stay ungrouped and keep the node a leaf.
        let mut buckets: std::collections::BTreeMap<PivotId, Vec<(&[PivotId], u64)>> =
            std::collections::BTreeMap::new();
        for (sig, count) in members {
            if depth < sig.len() {
                buckets.entry(sig[depth]).or_default().push((sig, count));
            }
        }
        // When all members share the same next pivot the single child keeps
        // the full size; recursion still terminates because depth strictly
        // increases towards max_depth.
        let mut children = Vec::with_capacity(buckets.len());
        for (pivot, bucket) in buckets {
            let child_total: u64 = bucket.iter().map(|&(_, c)| c).sum();
            let child = TrieNode {
                id: bump(next_id),
                pivot: Some(pivot),
                depth: (depth + 1) as u8,
                est_size: child_total,
                children: Vec::new(),
                partitions: Vec::new(),
            };
            let child_idx = self.nodes.len() as NodeIdx;
            self.nodes.push(child);
            children.push((pivot, child_idx));
            self.split_recursive(child_idx, bucket, capacity, max_depth, next_id);
        }
        self.nodes[node_idx as usize].children = children;
    }

    /// The root node.
    pub fn root(&self) -> &TrieNode {
        &self.nodes[0]
    }

    /// Node by arena index.
    pub fn node(&self, idx: NodeIdx) -> &TrieNode {
        &self.nodes[idx as usize]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Tries are never empty (they always have a root).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// All nodes, arena order (root first).
    pub fn nodes(&self) -> &[TrieNode] {
        &self.nodes
    }

    /// Descends from the root along `sig`, stopping at the deepest node
    /// whose edge exists (Algorithm 3 line 11).
    pub fn descend(&self, sig: &[PivotId]) -> Descent {
        let mut idx: NodeIdx = 0;
        let mut path_len = 0usize;
        while path_len < sig.len() {
            match self.nodes[idx as usize].child(sig[path_len]) {
                Some(next) => {
                    idx = next;
                    path_len += 1;
                }
                None => break,
            }
        }
        Descent {
            node: idx,
            path_len,
        }
    }

    /// Arena index of the leaf reached by a *complete* root-to-leaf walk
    /// along `sig`, or `None` if navigation stops at an internal node
    /// (§V: such records go to the group's default partition).
    pub fn leaf_for(&self, sig: &[PivotId]) -> Option<NodeIdx> {
        let d = self.descend(sig);
        self.nodes[d.node as usize].is_leaf().then_some(d.node)
    }

    /// Arena indices of all leaves under `idx` (inclusive when a leaf).
    pub fn leaves_under(&self, idx: NodeIdx) -> Vec<NodeIdx> {
        let mut out = Vec::new();
        self.for_each_leaf_under(idx, &mut |leaf| out.push(leaf));
        out
    }

    /// Visits the leaves under `idx` (inclusive when a leaf) in pivot
    /// order without allocating — the planner's form, once per candidate
    /// node of every query.
    pub fn for_each_leaf_under(&self, idx: NodeIdx, visit: &mut impl FnMut(NodeIdx)) {
        let n = &self.nodes[idx as usize];
        if n.is_leaf() {
            visit(idx);
        }
        for &(_, child) in &n.children {
            self.for_each_leaf_under(child, visit);
        }
    }

    /// All leaf arena indices.
    pub fn leaves(&self) -> Vec<NodeIdx> {
        self.leaves_under(0)
    }

    /// Assigns each leaf its physical partition then propagates partition
    /// unions bottom-up to every internal node.
    ///
    /// # Panics
    /// If a leaf's node id is missing from `leaf_partition`.
    pub fn assign_partitions(
        &mut self,
        leaf_partition: &std::collections::HashMap<TrieNodeId, PartitionId>,
    ) {
        // Arena order guarantees parents precede children, so a reverse
        // sweep sees all children before their parent.
        for i in (0..self.nodes.len()).rev() {
            if self.nodes[i].is_leaf() {
                let pid = *leaf_partition
                    .get(&self.nodes[i].id)
                    .unwrap_or_else(|| panic!("leaf node {} unpacked", self.nodes[i].id));
                self.nodes[i].partitions = vec![pid];
            } else {
                let mut union: Vec<PartitionId> = self.nodes[i]
                    .children
                    .iter()
                    .flat_map(|&(_, c)| self.nodes[c as usize].partitions.clone())
                    .collect();
                union.sort_unstable();
                union.dedup();
                self.nodes[i].partitions = union;
            }
        }
    }

    /// Serialises the trie (little-endian, self-delimiting).
    pub fn to_bytes(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.nodes.len() as u32).to_le_bytes());
        for n in &self.nodes {
            out.extend_from_slice(&n.id.to_le_bytes());
            out.extend_from_slice(&n.pivot.map_or(u16::MAX, |p| p).to_le_bytes());
            out.push(n.depth);
            out.extend_from_slice(&n.est_size.to_le_bytes());
            out.extend_from_slice(&(n.children.len() as u16).to_le_bytes());
            for &(p, c) in &n.children {
                out.extend_from_slice(&p.to_le_bytes());
                out.extend_from_slice(&c.to_le_bytes());
            }
            out.extend_from_slice(&(n.partitions.len() as u32).to_le_bytes());
            for &pid in &n.partitions {
                out.extend_from_slice(&pid.to_le_bytes());
            }
        }
    }

    /// Deserialises a trie written by [`Trie::to_bytes`], advancing the
    /// reader (tries are self-delimiting inside a larger stream).
    pub fn from_reader(r: &mut ByteReader<'_>) -> Result<Self, String> {
        let n_nodes = r.u32()? as usize;
        if n_nodes == 0 {
            return Err("trie with zero nodes".into());
        }
        // Pre-allocations are capped at what the remaining bytes can hold:
        // a count is read straight from the file (a node is at least 25
        // bytes, a child 6, a partition id 4).
        let mut nodes = Vec::with_capacity(n_nodes.min(r.remaining() / 25));
        for _ in 0..n_nodes {
            let id = r.u64()?;
            let pivot_raw = r.u16()?;
            let pivot = (pivot_raw != u16::MAX).then_some(pivot_raw);
            let depth = r.u8()?;
            let est_size = r.u64()?;
            let n_children = r.u16()? as usize;
            let mut children = Vec::with_capacity(n_children.min(r.remaining() / 6));
            for _ in 0..n_children {
                let p = r.u16()?;
                let c = r.u32()?;
                if c as usize >= n_nodes {
                    return Err(format!("child index {c} out of range"));
                }
                children.push((p, c));
            }
            let n_parts = r.u32()? as usize;
            let mut partitions = Vec::with_capacity(n_parts.min(r.remaining() / 4));
            for _ in 0..n_parts {
                partitions.push(r.u32()?);
            }
            nodes.push(TrieNode {
                id,
                pivot,
                depth,
                est_size,
                children,
                partitions,
            });
        }
        Ok(Trie { nodes })
    }
}

fn bump(next: &mut TrieNodeId) -> TrieNodeId {
    let id = *next;
    *next += 1;
    id
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Members mimicking Figure 5's group G3 (capacity 3000): 5250 objects,
    /// 1st-level split into pivots with 3700 under "6" which splits again.
    fn figure5_members() -> Vec<(Vec<PivotId>, u64)> {
        vec![
            // under 1st pivot 6: 3700 total, split by 2nd pivot
            (vec![6, 2, 9], 2100),
            (vec![6, 7, 1], 900),
            (vec![6, 4, 3], 700),
            // other 1st pivots
            (vec![4, 6, 7], 900),
            (vec![7, 4, 6], 400),
            (vec![5, 6, 4], 150),
            (vec![1, 6, 7], 100),
        ]
    }

    fn build_fig5() -> Trie {
        let members = figure5_members();
        let refs: Vec<(&[PivotId], u64)> = members.iter().map(|(s, c)| (&s[..], *c)).collect();
        let mut next = 0u64;
        Trie::build(&refs, 3000, 3, &mut next)
    }

    #[test]
    fn figure5_structure() {
        let t = build_fig5();
        assert_eq!(t.root().est_size, 5250);
        // root splits on 1st pivots {1,4,5,6,7}
        let first: Vec<PivotId> = t.root().children.iter().map(|&(p, _)| p).collect();
        assert_eq!(first, vec![1, 4, 5, 6, 7]);
        // the child under 6 (3700 > 3000) split again; others are leaves
        let under6 = t.root().child(6).unwrap();
        assert!(!t.node(under6).is_leaf());
        assert_eq!(t.node(under6).est_size, 3700);
        let under4 = t.root().child(4).unwrap();
        assert!(t.node(under4).is_leaf());
        assert_eq!(t.node(under4).est_size, 900);
    }

    #[test]
    fn small_group_is_single_leaf() {
        let members: Vec<(Vec<PivotId>, u64)> = vec![(vec![1, 2, 3], 10), (vec![4, 5, 6], 5)];
        let refs: Vec<(&[PivotId], u64)> = members.iter().map(|(s, c)| (&s[..], *c)).collect();
        let mut next = 7;
        let t = Trie::build(&refs, 100, 3, &mut next);
        assert_eq!(t.len(), 1);
        assert!(t.root().is_leaf());
        assert_eq!(t.root().id, 7);
        assert_eq!(next, 8);
    }

    #[test]
    fn empty_member_list_gives_empty_leaf() {
        let mut next = 0;
        let t = Trie::build(&[], 10, 3, &mut next);
        assert_eq!(t.len(), 1);
        assert_eq!(t.root().est_size, 0);
    }

    #[test]
    fn prefix_exhaustion_leaves_oversized_leaf() {
        // identical signatures cannot be split below capacity
        let sig: Vec<PivotId> = vec![1, 2];
        let refs: Vec<(&[PivotId], u64)> = vec![(&sig[..], 100)];
        let mut next = 0;
        let t = Trie::build(&refs, 10, 2, &mut next);
        let leaves = t.leaves();
        assert_eq!(leaves.len(), 1);
        assert!(t.node(leaves[0]).est_size > 10, "soft capacity violated OK");
        assert_eq!(t.node(leaves[0]).depth, 2);
    }

    #[test]
    fn node_ids_are_unique_and_sequential() {
        let t = build_fig5();
        let mut ids: Vec<u64> = t.nodes().iter().map(|n| n.id).collect();
        ids.sort_unstable();
        let want: Vec<u64> = (0..t.len() as u64).collect();
        assert_eq!(ids, want);
    }

    #[test]
    fn descend_follows_existing_edges() {
        let t = build_fig5();
        // <6,2,...> descends two levels (6 split, 2 is a leaf below it)
        let d = t.descend(&[6, 2, 9]);
        assert_eq!(d.path_len, 2);
        assert!(t.node(d.node).is_leaf());
        // <6,5,...>: "5" not a child under 6 → stop at the 6-node
        let d2 = t.descend(&[6, 5, 1]);
        assert_eq!(d2.path_len, 1);
        assert!(!t.node(d2.node).is_leaf());
        // unknown 1st pivot → root
        let d3 = t.descend(&[9, 9, 9]);
        assert_eq!(d3.path_len, 0);
        assert_eq!(d3.node, 0);
    }

    #[test]
    fn leaf_for_requires_complete_path() {
        let t = build_fig5();
        assert!(t.leaf_for(&[6, 7, 1]).is_some());
        assert!(t.leaf_for(&[6, 5, 1]).is_none(), "stops at internal node");
        assert!(t.leaf_for(&[4, 1, 1]).is_some(), "leaf at depth 1");
        assert!(t.leaf_for(&[9, 1, 1]).is_none(), "stops at root");
    }

    #[test]
    fn leaves_under_collects_subtree() {
        let t = build_fig5();
        let under6 = t.root().child(6).unwrap();
        let leaves = t.leaves_under(under6);
        assert_eq!(leaves.len(), 3);
        let all = t.leaves();
        assert_eq!(all.len(), 4 + 3); // 4 depth-1 leaves + 3 under "6"
    }

    #[test]
    fn assign_partitions_propagates_unions() {
        let mut t = build_fig5();
        let leaves = t.leaves();
        let mut map = HashMap::new();
        for (i, &l) in leaves.iter().enumerate() {
            // pack alternately into partitions 100 and 200
            map.insert(t.node(l).id, if i % 2 == 0 { 100 } else { 200 });
        }
        t.assign_partitions(&map);
        assert_eq!(t.root().partitions, vec![100, 200]);
        for &l in &leaves {
            assert_eq!(t.node(l).partitions.len(), 1);
        }
        let under6 = t.root().child(6).unwrap();
        assert!(!t.node(under6).partitions.is_empty());
    }

    #[test]
    fn serialization_roundtrip() {
        let mut t = build_fig5();
        let leaves = t.leaves();
        let map: HashMap<u64, u32> = leaves
            .iter()
            .enumerate()
            .map(|(i, &l)| (t.node(l).id, i as u32))
            .collect();
        t.assign_partitions(&map);

        let mut buf = Vec::new();
        t.to_bytes(&mut buf);
        let mut r = ByteReader::new(&buf);
        let back = Trie::from_reader(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn corrupted_trie_bytes_rejected() {
        let t = build_fig5();
        let mut buf = Vec::new();
        t.to_bytes(&mut buf);
        let mut r = ByteReader::new(&buf[..buf.len() - 2]);
        assert!(Trie::from_reader(&mut r).is_err());
    }

    #[test]
    fn crafted_counts_are_an_error_not_an_allocation() {
        // A node count of u32::MAX followed by nothing.
        let mut r = ByteReader::new(&[0xFF; 4]);
        assert!(Trie::from_reader(&mut r).is_err());
        // One node whose partition count is u32::MAX, then nothing.
        let mut buf = 1u32.to_le_bytes().to_vec();
        buf.extend_from_slice(&[0; 8 + 2 + 1 + 8 + 2]); // id, pivot, depth, size, 0 children
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Trie::from_reader(&mut ByteReader::new(&buf)).is_err());
    }

    #[test]
    fn sizes_are_conserved_across_splits() {
        let t = build_fig5();
        // every internal node's size equals the sum of its children's
        for n in t.nodes() {
            if !n.is_leaf() {
                let child_sum: u64 = n.children.iter().map(|&(_, c)| t.node(c).est_size).sum();
                assert_eq!(n.est_size, child_sum, "node {}", n.id);
            }
        }
    }
}
