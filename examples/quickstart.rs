//! Quickstart: build a CLIMBER index over the RandomWalk benchmark and run
//! approximate kNN queries, comparing against the exact answer.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use climber_core::series::gen::{query_workload, Domain};
use climber_core::series::ground_truth::exact_knn;
use climber_core::series::recall::recall_of_results;
use climber_core::SearchRequest;
use climber_core::{Climber, ClimberConfig};
use std::time::Instant;

fn main() {
    // 10 000 random-walk series of 256 points — the benchmark every data-
    // series index paper uses (scaled from the paper's 1 billion).
    let n = 10_000;
    println!("generating {n} RandomWalk series ...");
    let data = Domain::RandomWalk.generate(n, 42);

    // Paper defaults, scaled: 200 pivots, prefix length 10; the 64 MB HDFS
    // block becomes a 500-record partition capacity.
    let config = ClimberConfig::default()
        .with_paa_segments(16)
        .with_pivots(200)
        .with_prefix_len(10)
        .with_capacity(500)
        .with_alpha(0.1)
        .with_max_centroids(10)
        .with_seed(7);

    let t = Instant::now();
    let climber = Climber::build_in_memory(&data, config);
    let report = climber.report().expect("fresh build has a report");
    println!(
        "index built in {:.2}s ({} groups, {} partitions, {} trie nodes, skeleton {:.1} KiB)",
        t.elapsed().as_secs_f64(),
        report.num_groups,
        report.num_partitions,
        report.num_trie_nodes,
        report.skeleton_bytes as f64 / 1024.0
    );

    // Query 10 random members of the dataset (the paper's workload).
    let k = 100;
    let queries = query_workload(&data, 10, 1);
    let mut mean_recall = 0.0;
    let mut mean_partitions = 0.0;
    let t = Instant::now();
    for &qid in &queries {
        let approx = climber.search(&SearchRequest::new(data.get(qid), k).adaptive(4));
        let exact = exact_knn(&data, data.get(qid), k);
        let r = recall_of_results(&approx.results, &exact);
        mean_recall += r / queries.len() as f64;
        mean_partitions += approx.partitions_opened as f64 / queries.len() as f64;
        println!(
            "  query {qid:>5}: recall {r:.2}, {} partitions, {} records scanned",
            approx.partitions_opened, approx.records_scanned
        );
    }
    println!(
        "CLIMBER-kNN-Adaptive-4X, k={k}: mean recall {:.3}, {:.1} partitions/query, {:.1} ms/query",
        mean_recall,
        mean_partitions,
        1000.0 * t.elapsed().as_secs_f64() / queries.len() as f64
    );
}
