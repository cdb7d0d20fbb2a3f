//! A DPiSAX-like distributed iSAX index (Yagoubi et al., ICDM 2017).
//!
//! DPiSAX samples the dataset, builds a *partition table* by recursively
//! splitting the iSAX space one bit at a time (round-robin over segments,
//! the iSAX 2.0 discipline) until every partition is balanced, then
//! re-distributes all records into those partitions. An approximate kNN
//! query navigates its iSAX word to exactly **one** partition and refines
//! with ED inside it — the single-partition restriction the CLIMBER paper
//! identifies as the accuracy bottleneck (§VII-B).

use crate::{refine, BaselineOutcome};
use climber_dfs::format::PartitionWriter;
use climber_dfs::store::{PartitionId, PartitionStore};
use climber_repr::isax::ISaxWord;
use climber_repr::paa::paa;
use climber_series::dataset::Dataset;
use climber_series::sampling::{partition_level_sample, partitions_for_alpha};
use climber_series::topk::TopK;
use std::collections::HashMap;
use std::time::Instant;

/// DPiSAX build parameters.
#[derive(Debug, Clone, Copy)]
pub struct DpisaxConfig {
    /// iSAX word length `w` (PAA segments).
    pub segments: usize,
    /// Full-resolution bits per segment.
    pub max_bits: u8,
    /// Partition capacity in records.
    pub capacity: u64,
    /// Sampling fraction for the partition table.
    pub alpha: f64,
    /// RNG seed for sampling.
    pub seed: u64,
}

impl Default for DpisaxConfig {
    fn default() -> Self {
        Self {
            segments: 16,
            max_bits: 8,
            capacity: 2_000,
            alpha: 0.1,
            seed: 17,
        }
    }
}

#[derive(Debug, Clone)]
struct Node {
    /// Number of split bits from the root (segment `depth % w` is examined
    /// at bit level `depth / w`).
    depth: u32,
    /// Estimated records below this node.
    count: u64,
    /// Children for next-bit 0 / 1.
    children: Option<(u32, u32)>,
    /// Leaf partition.
    partition: Option<PartitionId>,
}

/// Build statistics (Figure 8 metrics).
#[derive(Debug, Clone, Copy)]
pub struct DpisaxBuildStats {
    /// Total construction wall time.
    pub build_secs: f64,
    /// Partitions created.
    pub num_partitions: usize,
    /// Serialised size of the global partition table in bytes.
    pub index_bytes: usize,
}

/// The in-memory global partition table.
#[derive(Debug, Clone)]
pub struct DpisaxIndex {
    config: DpisaxConfig,
    nodes: Vec<Node>,
}

impl DpisaxIndex {
    /// Builds the index over `ds`, writing partitions to `store`.
    pub fn build<S: PartitionStore>(
        ds: &Dataset,
        store: &S,
        config: DpisaxConfig,
    ) -> (Self, DpisaxBuildStats) {
        assert!(ds.num_series() > 0, "cannot index an empty dataset");
        assert!(config.segments <= ds.series_len(), "too many segments");
        let t0 = Instant::now();

        // Partition-level sample (same regime as the other systems).
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

        // Recursive binary splitting of the iSAX space.
        let mut index = DpisaxIndex {
            config,
            nodes: vec![Node {
                depth: 0,
                count: (sample_words.len() as f64 * scale) as u64,
                children: None,
                partition: None,
            }],
        };
        let word_refs: Vec<&ISaxWord> = sample_words.iter().collect();
        index.split(0, word_refs, scale);

        // Assign partition ids to leaves.
        let mut next_pid: PartitionId = 0;
        for i in 0..index.nodes.len() {
            if index.nodes[i].children.is_none() {
                index.nodes[i].partition = Some(next_pid);
                next_pid += 1;
            }
        }

        // Re-distribute the full dataset.
        let mut buckets: HashMap<PartitionId, Vec<u64>> = HashMap::new();
        for id in 0..n as u64 {
            let w = word_of(ds.get(id), &index.config);
            let pid = index.route(&w);
            buckets.entry(pid).or_default().push(id);
        }
        for pid in 0..next_pid {
            let mut writer = PartitionWriter::new(u64::MAX, ds.series_len());
            let empty = Vec::new();
            let ids = buckets.get(&pid).unwrap_or(&empty);
            writer.push_cluster(pid as u64, ids.iter().map(|&id| (id, ds.get(id))));
            store
                .put(pid, writer.finish(), || ())
                .expect("partition write");
        }

        let stats = DpisaxBuildStats {
            build_secs: t0.elapsed().as_secs_f64(),
            num_partitions: next_pid as usize,
            index_bytes: index.size_bytes(),
        };
        (index, stats)
    }

    fn split(&mut self, node: u32, words: Vec<&ISaxWord>, scale: f64) {
        let depth = self.nodes[node as usize].depth;
        let est = self.nodes[node as usize].count;
        let max_depth = (self.config.segments as u32) * (self.config.max_bits as u32);
        if est <= self.config.capacity || depth >= max_depth || words.len() <= 1 {
            return;
        }
        let (zeros, ones): (Vec<&ISaxWord>, Vec<&ISaxWord>) =
            words.into_iter().partition(|w| self.bit_of(w, depth) == 0);
        let mk = |depth: u32, len: usize| Node {
            depth,
            count: (len as f64 * scale) as u64,
            children: None,
            partition: None,
        };
        let zero_idx = self.nodes.len() as u32;
        self.nodes.push(mk(depth + 1, zeros.len()));
        let one_idx = self.nodes.len() as u32;
        self.nodes.push(mk(depth + 1, ones.len()));
        self.nodes[node as usize].children = Some((zero_idx, one_idx));
        self.split(zero_idx, zeros, scale);
        self.split(one_idx, ones, scale);
    }

    /// The bit examined at split depth `d`: segment `d % w`, bit level
    /// `d / w` (most significant first).
    fn bit_of(&self, word: &ISaxWord, depth: u32) -> u8 {
        let w = self.config.segments as u32;
        let seg = (depth % w) as usize;
        let level = (depth / w) as u8;
        let sym = word.symbols[seg];
        debug_assert!(level < self.config.max_bits);
        ((sym.symbol >> (self.config.max_bits - 1 - level)) & 1) as u8
    }

    /// Routes a full-resolution word to its leaf partition.
    pub fn route(&self, word: &ISaxWord) -> PartitionId {
        let mut idx = 0u32;
        loop {
            let node = &self.nodes[idx as usize];
            match node.children {
                None => return node.partition.expect("leaf has partition"),
                Some((zero, one)) => {
                    idx = if self.bit_of(word, node.depth) == 0 {
                        zero
                    } else {
                        one
                    };
                }
            }
        }
    }

    /// Single-partition approximate kNN query.
    pub fn query<S: PartitionStore>(&self, store: &S, query: &[f32], k: usize) -> BaselineOutcome {
        assert!(k > 0, "k must be positive");
        let w = word_of(query, &self.config);
        let pid = self.route(&w);
        let mut top = TopK::new(k);
        let mut scanned = 0u64;
        if let Ok(reader) = store.open(pid) {
            if let Some(recs) = reader.cluster_records(pid as u64) {
                scanned = refine(recs, query, &mut top);
            }
            let bytes = reader.cluster_bytes(pid as u64).unwrap_or(0);
            store.stats().on_read(bytes as u64);
            store.stats().on_records_read(scanned);
        }
        BaselineOutcome {
            results: top.into_sorted(),
            records_scanned: scanned,
            partitions_opened: 1,
        }
    }

    /// Number of nodes in the partition table.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaf partitions.
    pub fn num_partitions(&self) -> usize {
        self.nodes.iter().filter(|n| n.children.is_none()).count()
    }

    /// Serialised size of the table: a node is (depth u32, count u64,
    /// children 2×u32 or partition u32 + tag).
    pub fn size_bytes(&self) -> usize {
        self.nodes.len() * (4 + 8 + 1 + 8)
    }
}

fn word_of(values: &[f32], cfg: &DpisaxConfig) -> ISaxWord {
    ISaxWord::from_paa(&paa(values, cfg.segments), cfg.max_bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use climber_dfs::store::MemStore;
    use climber_series::gen::Domain;
    use climber_series::ground_truth::exact_knn;
    use climber_series::recall::recall_of_results;

    fn cfg() -> DpisaxConfig {
        DpisaxConfig {
            segments: 8,
            max_bits: 6,
            capacity: 50,
            alpha: 0.5,
            seed: 3,
        }
    }

    #[test]
    fn every_record_stored_exactly_once() {
        let ds = Domain::RandomWalk.generate(300, 7);
        let store = MemStore::new();
        let (_, stats) = DpisaxIndex::build(&ds, &store, cfg());
        let mut seen = Vec::new();
        for pid in store.ids() {
            store.open(pid).unwrap().for_each(|id, _| seen.push(id));
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..300u64).collect::<Vec<_>>());
        assert!(stats.num_partitions > 1);
    }

    #[test]
    fn routing_is_consistent_with_storage() {
        let ds = Domain::Eeg.generate(200, 9);
        let store = MemStore::new();
        let (index, _) = DpisaxIndex::build(&ds, &store, cfg());
        for pid in store.ids() {
            store.open(pid).unwrap().for_each(|id, vals| {
                let w = word_of(vals, &cfg());
                assert_eq!(index.route(&w), pid, "record {id}");
            });
        }
    }

    #[test]
    fn query_touches_one_partition() {
        let ds = Domain::TexMex.generate(300, 11);
        let store = MemStore::new();
        let (index, _) = DpisaxIndex::build(&ds, &store, cfg());
        let out = index.query(&store, ds.get(5), 10);
        assert_eq!(out.partitions_opened, 1);
        assert!(out.records_scanned <= 300);
        assert!(!out.results.is_empty());
    }

    #[test]
    fn self_query_finds_itself() {
        let ds = Domain::Dna.generate(250, 13);
        let store = MemStore::new();
        let (index, _) = DpisaxIndex::build(&ds, &store, cfg());
        // the query record routes to the partition that stores it
        let mut hits = 0;
        for qid in [1u64, 50, 120, 249] {
            let out = index.query(&store, ds.get(qid), 5);
            if out.results.iter().any(|&(id, d)| id == qid && d == 0.0) {
                hits += 1;
            }
        }
        assert_eq!(hits, 4, "routing must be deterministic for stored records");
    }

    #[test]
    fn recall_is_positive_but_modest() {
        // the point of this baseline: single-partition iSAX search recalls
        // far less than scanning everything
        let ds = Domain::RandomWalk.generate(800, 15);
        let store = MemStore::new();
        let (index, _) = DpisaxIndex::build(&ds, &store, cfg());
        let k = 20;
        let mut r = 0.0;
        for qid in (0..16u64).map(|i| i * 50) {
            let exact = exact_knn(&ds, ds.get(qid), k);
            let out = index.query(&store, ds.get(qid), k);
            r += recall_of_results(&out.results, &exact);
        }
        r /= 16.0;
        assert!(r > 0.0, "recall must be non-zero");
        assert!(r < 0.95, "single-partition search should not be near-exact");
    }

    #[test]
    fn balanced_splitting_bounds_partition_sizes() {
        let ds = Domain::RandomWalk.generate(1000, 21);
        let store = MemStore::new();
        let c = DpisaxConfig {
            capacity: 100,
            alpha: 1.0,
            ..cfg()
        };
        let (_, stats) = DpisaxIndex::build(&ds, &store, c);
        assert!(stats.num_partitions >= 10);
        let mut oversized = 0;
        for pid in store.ids() {
            if store.open(pid).unwrap().record_count() > 2 * 100 {
                oversized += 1;
            }
        }
        assert!(
            oversized <= stats.num_partitions / 4,
            "{oversized} grossly oversized partitions"
        );
    }

    #[test]
    fn index_size_grows_with_nodes() {
        let ds = Domain::Eeg.generate(400, 23);
        let store = MemStore::new();
        let (index, stats) = DpisaxIndex::build(&ds, &store, cfg());
        assert_eq!(stats.index_bytes, index.size_bytes());
        assert!(index.num_nodes() >= 2 * index.num_partitions() - 1);
    }
}
