//! End-to-end integration: build + query on every evaluation domain.

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
        .with_capacity(200)
        .with_alpha(0.25)
        .with_epsilon(2)
        .with_max_centroids(8)
        .with_seed(101)
        .with_workers(2)
}

#[test]
fn all_domains_build_and_answer_queries() {
    for domain in Domain::ALL {
        let ds = domain.generate(2_500, 7);
        let climber = Climber::build_in_memory(&ds, cfg());
        let report = climber.report().unwrap();
        assert!(report.num_groups >= 1, "{}", domain.name());
        assert!(report.num_partitions >= 2, "{}", domain.name());

        let k = 25;
        for &qid in &query_workload(&ds, 5, 3) {
            let out = climber.search(&SearchRequest::new(ds.get(qid), k).adaptive(4));
            assert_eq!(out.results.len(), k, "{} q{qid}", domain.name());
            // results sorted, distances non-negative
            for w in out.results.windows(2) {
                assert!(w[0].1 <= w[1].1);
            }
            assert!(out.results[0].1 >= 0.0);
        }
    }
}

#[test]
fn recall_exceeds_scan_fraction_on_every_domain() {
    // The index must provide genuine locality: recall well above the
    // fraction of records it actually reads.
    for domain in Domain::ALL {
        let ds = domain.generate(3_000, 13);
        let climber = Climber::build_in_memory(&ds, cfg());
        let k = 30;
        let queries = query_workload(&ds, 8, 5);
        let mut recall = 0.0;
        let mut scanned = 0u64;
        for &qid in &queries {
            let out = climber.search(&SearchRequest::new(ds.get(qid), k).adaptive(4));
            let exact = exact_knn(&ds, ds.get(qid), k);
            recall += recall_of_results(&out.results, &exact) / queries.len() as f64;
            scanned += out.records_scanned;
        }
        let frac = scanned as f64 / (queries.len() as f64 * ds.num_series() as f64);
        assert!(
            recall > 1.5 * frac,
            "{}: recall {recall:.3} vs scan fraction {frac:.3} — no locality",
            domain.name()
        );
        assert!(
            recall > 0.2,
            "{}: recall {recall:.3} below sanity floor",
            domain.name()
        );
    }
}

#[test]
fn every_record_is_indexed_exactly_once() {
    let ds = Domain::RandomWalk.generate(2_000, 17);
    let climber = Climber::build_in_memory(&ds, cfg());
    use climber_core::dfs::store::PartitionStore;
    let mut seen: Vec<u64> = Vec::new();
    for pid in climber.store().ids() {
        climber
            .store()
            .open(pid)
            .unwrap()
            .for_each(|id, _| seen.push(id));
    }
    seen.sort_unstable();
    assert_eq!(seen, (0..2_000u64).collect::<Vec<_>>());
    assert_eq!(
        climber.store().ids().len(),
        climber.skeleton().num_partitions()
    );
}

#[test]
fn self_query_returns_zero_distance_first() {
    let ds = Domain::Eeg.generate(1_500, 19);
    let climber = Climber::build_in_memory(&ds, cfg());
    let mut hits = 0;
    let queries = query_workload(&ds, 20, 7);
    for &qid in &queries {
        let out = climber.search(&SearchRequest::new(ds.get(qid), 5).exact());
        if out.results.first() == Some(&(qid, 0.0)) {
            hits += 1;
        }
    }
    assert!(
        hits >= 17,
        "only {hits}/20 self-queries returned themselves first"
    );
}

#[test]
fn skeleton_metrics_are_consistent() {
    let ds = Domain::Dna.generate(2_000, 23);
    let climber = Climber::build_in_memory(&ds, cfg());
    let sk = climber.skeleton();
    let report = climber.report().unwrap();
    assert_eq!(report.num_groups + 1, sk.groups.len()); // + fallback
    assert_eq!(report.num_trie_nodes, sk.num_trie_nodes());
    assert_eq!(report.skeleton_bytes, sk.size_bytes());
    // group 0 is the fallback with no centroid; the rest have centroids of
    // prefix length m
    assert!(sk.groups[0].centroid.is_none());
    for g in &sk.groups[1..] {
        assert_eq!(g.centroid.as_ref().unwrap().len(), sk.prefix_len);
    }
}
