//! Genome subsequence matching: where does this motif-like fragment recur?
//!
//! The paper's DNA workload converts genome assemblies into 192-point
//! series. A biologist's question — "find the k archive subsequences most
//! similar to this fragment" — is an approximate kNN query. This example
//! also demonstrates the accuracy/cost dial the paper studies in
//! Figure 11(b): plain CLIMBER-kNN vs Adaptive-4X vs the OD-Smallest
//! whole-group scan, reporting recall *and* data accessed for each.
//!
//! ```sh
//! cargo run --release --example genome_motif
//! ```

use climber_core::series::gen::{query_workload, Domain};
use climber_core::series::ground_truth::exact_knn;
use climber_core::series::recall::recall_of_results;
use climber_core::SearchRequest;
use climber_core::{Climber, ClimberConfig};

fn main() {
    let n = 8_000;
    let k = 50;
    println!("indexing {n} genome subsequences (192 points each) ...\n");
    let archive = Domain::Dna.generate(n, 31);
    let climber = Climber::build_in_memory(
        &archive,
        ClimberConfig::default()
            .with_paa_segments(16)
            .with_pivots(200)
            .with_prefix_len(10)
            .with_capacity(400)
            .with_alpha(0.15)
            .with_max_centroids(8)
            .with_seed(13),
    );

    let queries = query_workload(&archive, 10, 9);
    println!(
        "{:<22} {:>8} {:>14} {:>12}",
        "algorithm", "recall", "records read", "partitions"
    );
    let mut rows: Vec<(&str, f64, f64, f64)> = Vec::new();
    for (name, factor) in [
        ("CLIMBER-kNN", 0usize),
        ("Adaptive-2X", 2),
        ("Adaptive-4X", 4),
    ] {
        let (mut r, mut recs, mut parts) = (0.0, 0.0, 0.0);
        for &qid in &queries {
            let out = if factor == 0 {
                climber.search(&SearchRequest::new(archive.get(qid), k).exact())
            } else {
                climber.search(&SearchRequest::new(archive.get(qid), k).adaptive(factor))
            };
            let exact = exact_knn(&archive, archive.get(qid), k);
            r += recall_of_results(&out.results, &exact) / queries.len() as f64;
            recs += out.records_scanned as f64 / queries.len() as f64;
            parts += out.partitions_opened as f64 / queries.len() as f64;
        }
        rows.push((name, r, recs, parts));
    }
    {
        let (mut r, mut recs, mut parts) = (0.0, 0.0, 0.0);
        for &qid in &queries {
            let out = climber.search(&SearchRequest::new(archive.get(qid), k).smallest());
            let exact = exact_knn(&archive, archive.get(qid), k);
            r += recall_of_results(&out.results, &exact) / queries.len() as f64;
            recs += out.records_scanned as f64 / queries.len() as f64;
            parts += out.partitions_opened as f64 / queries.len() as f64;
        }
        rows.push(("OD-Smallest (scan)", r, recs, parts));
    }
    for (name, r, recs, parts) in &rows {
        println!("{name:<22} {r:>8.3} {recs:>14.0} {parts:>12.1}");
    }
    let knn = rows[0];
    let ods = rows[3];
    println!(
        "\nOD-Smallest reads {:.1}x the data of CLIMBER-kNN for {:+.1}% recall — \
         the trade-off Figure 11(b) reports.",
        ods.2 / knn.2.max(1.0),
        100.0 * (ods.1 - knn.1)
    );
}
