//! Dss: the distributed sequential scan (§VII-A).
//!
//! "The vanilla full scan solution that scans all data partitions in
//! parallel to generate the exact answer set." Used both as the ground
//! truth and as the exorbitant-cost baseline in Figures 7 and 9.

use crate::{refine, BaselineOutcome};
use climber_dfs::store::PartitionStore;
use climber_series::topk::TopK;
use rayon::prelude::*;

/// Scans every partition of `store` in parallel, returning the exact
/// top-`k` by squared ED.
///
/// # Panics
/// If `k == 0`.
pub fn dss_query<S: PartitionStore>(store: &S, query: &[f32], k: usize) -> BaselineOutcome {
    assert!(k > 0, "k must be positive");
    let ids = store.ids();
    let partials: Vec<(TopK, u64)> = ids
        .par_iter()
        .map(|&pid| {
            let mut top = TopK::new(k);
            let mut scanned = 0u64;
            if let Ok(reader) = store.open(pid) {
                let bytes: usize = reader
                    .cluster_ids()
                    .iter()
                    .filter_map(|&n| reader.cluster_bytes(n))
                    .sum();
                scanned += refine(reader.records(), query, &mut top);
                store.stats().on_read(bytes as u64);
                store.stats().on_records_read(scanned);
            }
            (top, scanned)
        })
        .collect();
    let mut merged = TopK::new(k);
    let mut records_scanned = 0;
    for (t, s) in partials {
        merged.merge(t);
        records_scanned += s;
    }
    BaselineOutcome {
        results: merged.into_sorted(),
        records_scanned,
        partitions_opened: ids.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use climber_dfs::sample::scatter_dataset;
    use climber_dfs::store::DiskStore;
    use climber_series::gen::Domain;
    use climber_series::ground_truth::exact_knn;

    #[test]
    fn dss_matches_exact_ground_truth() {
        let ds = Domain::RandomWalk.generate(300, 3);
        let store = DiskStore::in_memory();
        scatter_dataset(&store, &ds, 7);
        for qid in [0u64, 100, 299] {
            let out = dss_query(&store, ds.get(qid), 10);
            let exact = exact_knn(&ds, ds.get(qid), 10);
            assert_eq!(out.results, exact, "query {qid}");
        }
    }

    #[test]
    fn dss_scans_everything() {
        let ds = Domain::Eeg.generate(120, 5);
        let store = DiskStore::in_memory();
        scatter_dataset(&store, &ds, 4);
        let out = dss_query(&store, ds.get(0), 5);
        assert_eq!(out.records_scanned, 120);
        assert_eq!(out.partitions_opened, 4);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_rejected() {
        let store = DiskStore::in_memory();
        dss_query(&store, &[0.0; 8], 0);
    }
}
