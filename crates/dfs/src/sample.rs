//! The raw, unorganised input of an index build (§V Step 1).
//!
//! Raw input data is assumed to arrive already spread over partitions
//! without any special organisation; [`scatter_dataset`] produces that
//! state from a [`Dataset`]. (The builder draws its partition-level sample
//! itself, through `climber_series::sampling`.)

use crate::store::{PartitionId, PartitionStore};
use climber_series::dataset::Dataset;

/// Splits a raw dataset into `parts` roughly equal input partitions and
/// stores them (the "raw dataset" box of Figure 6 — the unorganised state
/// the data arrives in before indexing). Each record keeps its original
/// series id. Returns the partition ids written.
pub fn scatter_dataset<S: PartitionStore>(
    store: &S,
    ds: &Dataset,
    parts: usize,
) -> Vec<PartitionId> {
    use crate::format::PartitionWriter;
    assert!(parts > 0, "need at least one partition");
    let n = ds.num_series();
    let per = n.div_ceil(parts.min(n.max(1)));
    let mut ids = Vec::new();
    let mut next_pid: PartitionId = 0;
    let mut i = 0usize;
    while i < n {
        let end = (i + per).min(n);
        let mut w = PartitionWriter::new(u64::MAX, ds.series_len());
        // Raw input partitions have no trie structure: single cluster 0.
        w.push_cluster(0, (i..end).map(|r| (r as u64, ds.get(r as u64))));
        store
            .put(next_pid, w.finish(), || ())
            .expect("store write failed");
        ids.push(next_pid);
        next_pid += 1;
        i = end;
    }
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;
    use climber_series::gen::Domain;

    #[test]
    fn scatter_handles_non_divisible_counts() {
        let ds = Domain::TexMex.generate(7, 4);
        let store = MemStore::new();
        let pids = scatter_dataset(&store, &ds, 3);
        assert_eq!(pids.len(), 3);
        let total: u64 = pids
            .iter()
            .map(|&p| store.open(p).unwrap().record_count())
            .sum();
        assert_eq!(total, 7);
    }

    #[test]
    fn scatter_more_parts_than_records() {
        let ds = Domain::TexMex.generate(2, 4);
        let store = MemStore::new();
        let pids = scatter_dataset(&store, &ds, 10);
        assert_eq!(pids.len(), 2, "no empty partitions created");
    }

    #[test]
    fn sampled_series_preserve_original_ids_via_for_each() {
        // Ids inside partitions are the original dataset ids.
        let ds = Domain::RandomWalk.generate(10, 5);
        let store = MemStore::new();
        let pids = scatter_dataset(&store, &ds, 2);
        let mut seen = Vec::new();
        for pid in pids {
            store.open(pid).unwrap().for_each(|id, _| seen.push(id));
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..10u64).collect::<Vec<_>>());
    }
}
