//! Cross-system comparison: the orderings the paper's Figure 7 reports
//! must hold at repo scale — Dss exact, CLIMBER above the iSAX systems.

use climber_core::baselines::dpisax::{DpisaxConfig, DpisaxIndex};
use climber_core::baselines::dss::dss_query;
use climber_core::baselines::tardis::{TardisConfig, TardisIndex};
use climber_core::dfs::store::MemStore;
use climber_core::series::gen::{query_workload, Domain};
use climber_core::series::ground_truth::exact_knn;
use climber_core::series::recall::recall_of_results;
use climber_core::SearchRequest;
use climber_core::{Climber, ClimberConfig};

const N: usize = 4_000;
const K: usize = 40;
const CAPACITY: u64 = 250;

fn climber_cfg() -> ClimberConfig {
    ClimberConfig::default()
        .with_paa_segments(16)
        .with_pivots(128)
        .with_prefix_len(10)
        .with_capacity(CAPACITY)
        .with_alpha(0.2)
        .with_epsilon(2)
        .with_max_centroids(8)
        .with_seed(301)
        .with_workers(2)
}

/// Mean recall of a query closure over a fixed workload.
fn mean_recall<F>(ds: &climber_core::series::Dataset, queries: &[u64], mut run: F) -> f64
where
    F: FnMut(&[f32]) -> Vec<(u64, f64)>,
{
    let mut r = 0.0;
    for &qid in queries {
        let got = run(ds.get(qid));
        let want = exact_knn(ds, ds.get(qid), K);
        r += recall_of_results(&got, &want) / queries.len() as f64;
    }
    r
}

#[test]
fn dss_is_exact_and_climber_beats_isax_systems() {
    // TexMex (clustered) is the paper's clearest separation.
    let ds = Domain::TexMex.generate(N, 501);
    let queries = query_workload(&ds, 10, 77);

    let climber = Climber::build_in_memory(&ds, climber_cfg());
    let r_climber = mean_recall(&ds, &queries, |q| {
        climber
            .search(&SearchRequest::new(q, K).adaptive(4))
            .results
    });

    let dstore = MemStore::new();
    let (dpisax, _) = DpisaxIndex::build(
        &ds,
        &dstore,
        DpisaxConfig {
            segments: 16,
            max_bits: 8,
            capacity: CAPACITY,
            alpha: 0.2,
            seed: 502,
        },
    );
    let r_dpisax = mean_recall(&ds, &queries, |q| dpisax.query(&dstore, q, K).results);

    let tstore = MemStore::new();
    let (tardis, _) = TardisIndex::build(
        &ds,
        &tstore,
        TardisConfig {
            segments: 8,
            max_bits: 6,
            capacity: CAPACITY,
            alpha: 0.2,
            seed: 503,
        },
    );
    let r_tardis = mean_recall(&ds, &queries, |q| tardis.query(&tstore, q, K).results);

    // Dss on CLIMBER's own partitions is exact.
    use climber_core::dfs::store::PartitionStore;
    let r_dss = mean_recall(&ds, &queries, |q| dss_query(climber.store(), q, K).results);
    assert!((r_dss - 1.0).abs() < 1e-9, "Dss recall {r_dss} != 1.0");

    // Paper Figure 7(b): CLIMBER 25-35 recall points above both baselines.
    assert!(
        r_climber > r_dpisax + 0.1,
        "CLIMBER {r_climber:.3} not clearly above DPiSAX {r_dpisax:.3}"
    );
    assert!(
        r_climber > r_tardis + 0.05,
        "CLIMBER {r_climber:.3} not clearly above TARDIS {r_tardis:.3}"
    );
    let _ = climber.store().ids(); // silence unused trait import on some paths
}

#[test]
fn dss_scans_everything_and_is_slowest_in_records() {
    let ds = Domain::RandomWalk.generate(2_000, 601);
    let climber = Climber::build_in_memory(&ds, climber_cfg());
    let q = ds.get(4);
    let full = dss_query(climber.store(), q, K);
    let fast = climber.search(&SearchRequest::new(q, K).adaptive(4));
    assert_eq!(full.records_scanned, 2_000);
    assert!(
        fast.records_scanned < full.records_scanned / 2,
        "index read {} of {} records",
        fast.records_scanned,
        full.records_scanned
    );
}

#[test]
fn odyssey_is_exact_on_climber_data() {
    use climber_core::baselines::odyssey::{OdysseyConfig, OdysseyIndex};
    let ds = Domain::Eeg.generate(1_500, 701);
    let (ody, _) = OdysseyIndex::build(&ds, OdysseyConfig::default()).unwrap();
    for &qid in &query_workload(&ds, 6, 9) {
        let got = ody.query(&ds, ds.get(qid), K);
        let want = exact_knn(&ds, ds.get(qid), K);
        assert_eq!(got.results, want, "query {qid}");
    }
}

#[test]
fn hnsw_recalls_more_than_lsh() {
    use climber_core::baselines::hnsw::{HnswConfig, HnswIndex};
    use climber_core::baselines::lsh::{LshConfig, LshIndex};
    let ds = Domain::TexMex.generate(2_000, 801);
    let queries = query_workload(&ds, 8, 11);
    let (hnsw, _) = HnswIndex::build(&ds, HnswConfig::default()).unwrap();
    let (lsh, _) = LshIndex::build(&ds, LshConfig::default());
    let r_hnsw = mean_recall(&ds, &queries, |q| hnsw.query(&ds, q, K).results);
    let r_lsh = mean_recall(&ds, &queries, |q| lsh.query(&ds, q, K).results);
    // §II: graphs ~0.9+, LSH ~0.3.
    assert!(r_hnsw > 0.75, "HNSW recall {r_hnsw:.3}");
    assert!(r_hnsw > r_lsh + 0.2, "HNSW {r_hnsw:.3} vs LSH {r_lsh:.3}");
}
