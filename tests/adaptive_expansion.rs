//! The adaptive algorithm's contract (§VI + Figures 9/11(a)).

use climber_core::series::gen::{query_workload, Domain};
use climber_core::series::ground_truth::exact_knn;
use climber_core::series::recall::recall_of_results;
use climber_core::SearchRequest;
use climber_core::{Climber, ClimberConfig};

fn cfg() -> ClimberConfig {
    ClimberConfig::default()
        .with_paa_segments(16)
        .with_pivots(96)
        .with_prefix_len(8)
        .with_capacity(150)
        .with_alpha(0.25)
        .with_epsilon(2)
        .with_max_centroids(10)
        .with_seed(77)
        .with_workers(2)
}

#[test]
fn adaptive_matches_knn_for_small_k() {
    // Figure 9(a): "under small K values the three CLIMBER variations
    // exhibit the same performance" — when the target node covers K.
    let ds = Domain::RandomWalk.generate(3_000, 3);
    let climber = Climber::build_in_memory(&ds, cfg());
    let mut same = 0;
    let queries = query_workload(&ds, 12, 5);
    for &qid in &queries {
        let a = climber.search(&SearchRequest::new(ds.get(qid), 5).exact());
        let b = climber.search(&SearchRequest::new(ds.get(qid), 5).adaptive(4));
        if a.plan.primary_node_size >= 5 {
            assert_eq!(a.results, b.results, "query {qid}");
            same += 1;
        }
    }
    assert!(same > 0, "no query hit a node covering k=5");
}

#[test]
fn recall_boost_grows_with_k_pressure() {
    // Figure 11(a): the adaptive gain appears when K exceeds the target
    // node size (K = m..10m in the paper's stress test).
    let ds = Domain::Eeg.generate(3_000, 7);
    let climber = Climber::build_in_memory(&ds, cfg());
    let queries = query_workload(&ds, 10, 9);

    let mut gain_small = 0.0;
    let mut gain_large = 0.0;
    for &qid in &queries {
        let probe = climber.search(&SearchRequest::new(ds.get(qid), 5).exact());
        let m = probe.plan.primary_node_size.max(5) as usize;
        for (k, gain) in [(m / 2 + 1, &mut gain_small), (m * 4, &mut gain_large)] {
            let exact = exact_knn(&ds, ds.get(qid), k);
            let plain = recall_of_results(
                &climber
                    .search(&SearchRequest::new(ds.get(qid), k).exact())
                    .results,
                &exact,
            );
            let adaptive = recall_of_results(
                &climber
                    .search(&SearchRequest::new(ds.get(qid), k).adaptive(4))
                    .results,
                &exact,
            );
            *gain += (adaptive - plain) / queries.len() as f64;
        }
    }
    assert!(
        gain_large >= gain_small - 0.02,
        "adaptive gain did not grow with K pressure: small={gain_small:.3} large={gain_large:.3}"
    );
    assert!(gain_large >= 0.0, "adaptive hurt recall at large K");
}

#[test]
fn partition_budget_ordering_2x_4x() {
    let ds = Domain::Dna.generate(2_500, 11);
    let climber = Climber::build_in_memory(&ds, cfg());
    for &qid in &query_workload(&ds, 10, 13) {
        let q = ds.get(qid);
        let k = 400; // force expansion
        let plain = climber.search(&SearchRequest::new(q, k).exact());
        let two = climber.search(&SearchRequest::new(q, k).adaptive(2));
        let four = climber.search(&SearchRequest::new(q, k).adaptive(4));
        let base = plain.plan.num_partitions().max(1);
        assert!(two.plan.num_partitions() <= 2 * base, "2X cap broken");
        assert!(four.plan.num_partitions() <= 4 * base, "4X cap broken");
        assert!(
            four.plan.est_candidates >= two.plan.est_candidates,
            "4X candidates below 2X"
        );
    }
}

#[test]
fn od_smallest_dominates_data_access() {
    // Figure 11(b): OD-Smallest reads multiples of the data for a bounded
    // recall improvement.
    let ds = Domain::Eeg.generate(2_500, 17);
    let climber = Climber::build_in_memory(&ds, cfg());
    let queries = query_workload(&ds, 8, 19);
    let k = 40;
    let (mut acc_fast, mut acc_scan) = (0u64, 0u64);
    let (mut rec_fast, mut rec_scan) = (0.0, 0.0);
    for &qid in &queries {
        let exact = exact_knn(&ds, ds.get(qid), k);
        let fast = climber.search(&SearchRequest::new(ds.get(qid), k).adaptive(4));
        let scan = climber.search(&SearchRequest::new(ds.get(qid), k).smallest());
        acc_fast += fast.records_scanned;
        acc_scan += scan.records_scanned;
        rec_fast += recall_of_results(&fast.results, &exact) / queries.len() as f64;
        rec_scan += recall_of_results(&scan.results, &exact) / queries.len() as f64;
    }
    assert!(
        acc_scan >= acc_fast,
        "OD-Smallest read less than Adaptive-4X"
    );
    assert!(rec_scan >= rec_fast - 1e-9, "OD-Smallest recalled less");
    // and the headline: the recall gap is bounded while the access gap is
    // a multiple (the trie layer pays for itself)
    if acc_fast > 0 && acc_scan > 2 * acc_fast {
        assert!(
            rec_scan - rec_fast < 0.35,
            "recall gap {:.3} too large for the access ratio {:.1}",
            rec_scan - rec_fast,
            acc_scan as f64 / acc_fast as f64
        );
    }
}
