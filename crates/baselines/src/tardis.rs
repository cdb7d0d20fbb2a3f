//! A TARDIS-like sigTree index (Zhang et al., ICDE 2019).
//!
//! TARDIS builds a wide n-ary *sigTree* over iSAX words: unlike the iSAX
//! binary tree (which promotes one segment at a time), each sigTree level
//! refines the cardinality of **every** segment by one bit, giving a fanout
//! of up to `2^w` populated children per node. Leaves are packed into
//! storage partitions. An approximate kNN query descends by word match
//! (falling back to the mindist-nearest child when its exact word is
//! absent), lands on one leaf, and refines inside that leaf's partition —
//! again the single-partition search the CLIMBER paper contrasts with.

use crate::{refine, BaselineOutcome};
use climber_dfs::format::PartitionWriter;
use climber_dfs::store::{PartitionId, PartitionStore};
use climber_index::packing::first_fit_decreasing;
use climber_repr::isax::ISaxWord;
use climber_repr::paa::paa;
use climber_series::dataset::Dataset;
use climber_series::sampling::{partition_level_sample, partitions_for_alpha};
use climber_series::topk::TopK;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// sigTree build parameters.
#[derive(Debug, Clone, Copy)]
pub struct TardisConfig {
    /// Word length `w` (PAA segments). sigTrees prefer short words.
    pub segments: usize,
    /// Maximum bits per segment (tree depth bound).
    pub max_bits: u8,
    /// Partition capacity in records.
    pub capacity: u64,
    /// Sampling fraction for skeleton construction.
    pub alpha: f64,
    /// RNG seed for sampling.
    pub seed: u64,
}

impl Default for TardisConfig {
    fn default() -> Self {
        Self {
            segments: 8,
            max_bits: 6,
            capacity: 2_000,
            alpha: 0.1,
            seed: 23,
        }
    }
}

#[derive(Debug, Clone)]
struct SigNode {
    /// Bits per segment at this node (root = 0).
    level: u8,
    /// Estimated records below.
    count: u64,
    /// Children: symbols at `level + 1` bits → node index, sorted.
    children: BTreeMap<Vec<u16>, u32>,
    /// Leaf partition after packing.
    partition: Option<PartitionId>,
}

/// Build statistics (Figure 8 metrics).
#[derive(Debug, Clone, Copy)]
pub struct TardisBuildStats {
    /// Total construction wall time.
    pub build_secs: f64,
    /// Partitions created.
    pub num_partitions: usize,
    /// Serialised global sigTree size in bytes.
    pub index_bytes: usize,
}

/// The in-memory global sigTree.
#[derive(Debug, Clone)]
pub struct TardisIndex {
    config: TardisConfig,
    nodes: Vec<SigNode>,
}

impl TardisIndex {
    /// Builds the sigTree over `ds`, writing partitions to `store`.
    pub fn build<S: PartitionStore>(
        ds: &Dataset,
        store: &S,
        config: TardisConfig,
    ) -> (Self, TardisBuildStats) {
        assert!(ds.num_series() > 0, "cannot index an empty dataset");
        let t0 = Instant::now();

        // Partition-level sample.
        let n = ds.num_series();
        let chunk = (config.capacity as usize).min(n).max(1);
        let chunks = n.div_ceil(chunk);
        let take = partitions_for_alpha(chunks, config.alpha);
        let picked = partition_level_sample(chunks, take, config.seed);
        let mut sample_words: Vec<ISaxWord> = Vec::new();
        for c in picked {
            for id in (c * chunk)..((c + 1) * chunk).min(n) {
                sample_words.push(word_of(ds.get(id as u64), &config));
            }
        }
        let scale = n as f64 / sample_words.len().max(1) as f64;

        let mut index = TardisIndex {
            config,
            nodes: vec![SigNode {
                level: 0,
                count: (sample_words.len() as f64 * scale) as u64,
                children: BTreeMap::new(),
                partition: None,
            }],
        };
        let refs: Vec<&ISaxWord> = sample_words.iter().collect();
        index.split(0, refs, scale);

        // FFD-pack leaves into partitions.
        let leaf_ids: Vec<u32> = (0..index.nodes.len() as u32)
            .filter(|&i| index.nodes[i as usize].children.is_empty())
            .collect();
        let items: Vec<(u32, u64)> = leaf_ids
            .iter()
            .map(|&i| (i, index.nodes[i as usize].count.max(1)))
            .collect();
        let bins = first_fit_decreasing(&items, config.capacity);
        for (pid, bin) in bins.iter().enumerate() {
            for &leaf in &bin.items {
                index.nodes[leaf as usize].partition = Some(pid as PartitionId);
            }
        }
        let num_partitions = bins.len();

        // Re-distribute the full dataset: records cluster under their leaf
        // node id inside the packed partition.
        let mut buckets: HashMap<PartitionId, BTreeMap<u64, Vec<u64>>> = HashMap::new();
        for id in 0..n as u64 {
            let leaf = index.descend(ds.get(id));
            let pid = index.nodes[leaf as usize].partition.expect("leaf packed");
            buckets
                .entry(pid)
                .or_default()
                .entry(leaf as u64)
                .or_default()
                .push(id);
        }
        for pid in 0..num_partitions as PartitionId {
            let mut writer = PartitionWriter::new(u64::MAX, ds.series_len());
            if let Some(clusters) = buckets.get(&pid) {
                for (node, ids) in clusters {
                    writer.push_cluster(*node, ids.iter().map(|&id| (id, ds.get(id))));
                }
            }
            store
                .put(pid, writer.finish(), || ())
                .expect("partition write");
        }

        let stats = TardisBuildStats {
            build_secs: t0.elapsed().as_secs_f64(),
            num_partitions,
            index_bytes: index.size_bytes(),
        };
        (index, stats)
    }

    fn split(&mut self, node: u32, words: Vec<&ISaxWord>, scale: f64) {
        let level = self.nodes[node as usize].level;
        let est = self.nodes[node as usize].count;
        if est <= self.config.capacity || level >= self.config.max_bits || words.len() <= 1 {
            return;
        }
        // Group members by their (level+1)-bit reduction of the whole word.
        let next = level + 1;
        let mut groups: BTreeMap<Vec<u16>, Vec<&ISaxWord>> = BTreeMap::new();
        for w in words {
            groups.entry(reduced_symbols(w, next)).or_default().push(w);
        }
        let mut children = BTreeMap::new();
        for (key, members) in groups {
            let idx = self.nodes.len() as u32;
            self.nodes.push(SigNode {
                level: next,
                count: (members.len() as f64 * scale) as u64,
                children: BTreeMap::new(),
                partition: None,
            });
            children.insert(key, idx);
            self.split(idx, members, scale);
        }
        self.nodes[node as usize].children = children;
    }

    /// Descends to the leaf for a raw series: exact word match per level,
    /// mindist-nearest child when the word is unseen.
    pub fn descend(&self, values: &[f32]) -> u32 {
        let word = word_of(values, &self.config);
        let query_paa = paa(values, self.config.segments);
        let n = values.len();
        let mut idx = 0u32;
        loop {
            let node = &self.nodes[idx as usize];
            if node.children.is_empty() {
                return idx;
            }
            let key = reduced_symbols(&word, node.level + 1);
            idx = match node.children.get(&key) {
                Some(&child) => child,
                None => {
                    // Unseen word: route to the child whose label is
                    // mindist-closest to the query PAA.
                    let bits = node.level + 1;
                    *node
                        .children
                        .iter()
                        .min_by(|(ka, _), (kb, _)| {
                            let da = label_mindist(ka, bits, &query_paa, n);
                            let db = label_mindist(kb, bits, &query_paa, n);
                            da.total_cmp(&db)
                        })
                        .map(|(_, c)| c)
                        .expect("internal node has children")
                }
            };
        }
    }

    /// Single-partition approximate kNN query: read the matched leaf's
    /// cluster; if short of `k`, expand to the other clusters packed in the
    /// same partition (never a second partition).
    pub fn query<S: PartitionStore>(&self, store: &S, query: &[f32], k: usize) -> BaselineOutcome {
        assert!(k > 0, "k must be positive");
        let leaf = self.descend(query);
        let pid = self.nodes[leaf as usize].partition.expect("leaf packed");
        let mut top = TopK::new(k);
        let mut scanned = 0u64;
        let Ok(reader) = store.open(pid) else {
            return BaselineOutcome {
                results: Vec::new(),
                records_scanned: 0,
                partitions_opened: 0,
            };
        };
        let scan_cluster = |node: u64, top: &mut TopK, scanned: &mut u64| {
            let bytes = reader.cluster_bytes(node).unwrap_or(0);
            let recs = reader.cluster_records(node);
            let c = recs.map_or(0, |recs| refine(recs, query, top));
            store.stats().on_read(bytes as u64);
            store.stats().on_records_read(c);
            *scanned += c;
        };
        scan_cluster(leaf as u64, &mut top, &mut scanned);
        if top.len() < k {
            for node in reader.cluster_ids() {
                if node != leaf as u64 {
                    scan_cluster(node, &mut top, &mut scanned);
                }
                if top.len() >= k {
                    break;
                }
            }
        }
        BaselineOutcome {
            results: top.into_sorted(),
            records_scanned: scanned,
            partitions_opened: 1,
        }
    }

    /// Number of sigTree nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of packed partitions.
    pub fn num_partitions(&self) -> usize {
        let mut pids: Vec<PartitionId> = self.nodes.iter().filter_map(|n| n.partition).collect();
        pids.sort_unstable();
        pids.dedup();
        pids.len()
    }

    /// Serialised size: per node, level + count + child map entries of
    /// `w`-symbol keys (2 bytes each) + index.
    pub fn size_bytes(&self) -> usize {
        let w = self.config.segments;
        self.nodes
            .iter()
            .map(|n| 1 + 8 + 5 + n.children.len() * (2 * w + 4))
            .sum()
    }
}

fn word_of(values: &[f32], cfg: &TardisConfig) -> ISaxWord {
    ISaxWord::from_paa(&paa(values, cfg.segments), cfg.max_bits)
}

fn reduced_symbols(word: &ISaxWord, bits: u8) -> Vec<u16> {
    word.symbols
        .iter()
        .map(|s| s.reduce_to(bits).symbol)
        .collect()
}

fn label_mindist(symbols: &[u16], bits: u8, query_paa: &[f64], n: usize) -> f64 {
    use climber_repr::isax::{ISaxSymbol, ISaxWord as W};
    let word = W {
        symbols: symbols.iter().map(|&s| ISaxSymbol::new(s, bits)).collect(),
    };
    word.mindist(query_paa, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use climber_dfs::store::MemStore;
    use climber_series::gen::Domain;
    use climber_series::ground_truth::exact_knn;
    use climber_series::recall::recall_of_results;

    fn cfg() -> TardisConfig {
        TardisConfig {
            segments: 8,
            max_bits: 5,
            capacity: 60,
            alpha: 0.5,
            seed: 29,
        }
    }

    #[test]
    fn every_record_stored_exactly_once() {
        let ds = Domain::RandomWalk.generate(350, 31);
        let store = MemStore::new();
        let (_, stats) = TardisIndex::build(&ds, &store, cfg());
        let mut seen = Vec::new();
        for pid in store.ids() {
            store.open(pid).unwrap().for_each(|id, _| seen.push(id));
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..350u64).collect::<Vec<_>>());
        assert!(stats.num_partitions >= 2);
    }

    #[test]
    fn descend_is_deterministic_and_storage_consistent() {
        let ds = Domain::Eeg.generate(200, 33);
        let store = MemStore::new();
        let (index, _) = TardisIndex::build(&ds, &store, cfg());
        for qid in [0u64, 55, 199] {
            let leaf = index.descend(ds.get(qid));
            assert_eq!(leaf, index.descend(ds.get(qid)));
            let pid = index.nodes[leaf as usize].partition.unwrap();
            // record qid must be in partition pid under cluster leaf
            let mut found = false;
            store
                .open(pid)
                .unwrap()
                .for_each_in_cluster(leaf as u64, |id, _| {
                    if id == qid {
                        found = true;
                    }
                });
            assert!(found, "record {qid} not in its own leaf cluster");
        }
    }

    #[test]
    fn query_touches_one_partition_and_finds_self() {
        let ds = Domain::TexMex.generate(300, 35);
        let store = MemStore::new();
        let (index, _) = TardisIndex::build(&ds, &store, cfg());
        for qid in [2u64, 150, 299] {
            let out = index.query(&store, ds.get(qid), 5);
            assert_eq!(out.partitions_opened, 1);
            assert!(
                out.results.iter().any(|&(id, d)| id == qid && d == 0.0),
                "query {qid} did not find itself"
            );
        }
    }

    #[test]
    fn sigtree_is_wider_than_binary() {
        // The root of a sigTree refines every segment at once: fanout must
        // exceed 2 on any diverse dataset (the structural difference from
        // the DPiSAX binary split).
        let ds = Domain::RandomWalk.generate(500, 37);
        let store = MemStore::new();
        let (index, _) = TardisIndex::build(&ds, &store, cfg());
        assert!(
            index.nodes[0].children.len() > 2,
            "root fanout {} not n-ary",
            index.nodes[0].children.len()
        );
    }

    #[test]
    fn recall_is_positive_but_modest() {
        let ds = Domain::RandomWalk.generate(800, 39);
        let store = MemStore::new();
        let (index, _) = TardisIndex::build(&ds, &store, cfg());
        let k = 20;
        let mut r = 0.0;
        for qid in (0..16u64).map(|i| i * 50) {
            let exact = exact_knn(&ds, ds.get(qid), k);
            let out = index.query(&store, ds.get(qid), k);
            r += recall_of_results(&out.results, &exact);
        }
        r /= 16.0;
        assert!(r > 0.0);
        assert!(
            r < 0.95,
            "single-partition sigTree should not be near-exact"
        );
    }

    #[test]
    fn size_bytes_reported() {
        let ds = Domain::Dna.generate(200, 41);
        let store = MemStore::new();
        let (index, stats) = TardisIndex::build(&ds, &store, cfg());
        assert_eq!(stats.index_bytes, index.size_bytes());
        assert!(stats.index_bytes > 0);
        assert!(index.num_nodes() > index.nodes[0].children.len());
    }
}
