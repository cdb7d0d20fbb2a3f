//! Image feature search: CLIMBER vs the ANN alternatives on SIFT-like
//! descriptors (the TexMex workload of §VII).
//!
//! Vector search engines face the same trade-off triangle the paper maps:
//! exact engines (Odyssey-like) recall 1.0 but must hold everything in
//! memory; graphs (HNSW) recall ~0.9 but construct slowly and also live in
//! memory; LSH builds instantly but recalls ~0.3; CLIMBER sits between —
//! disk-resident, sampled construction, recall well above LSH. This
//! example measures all four on one corpus.
//!
//! ```sh
//! cargo run --release --example image_search
//! ```

use climber_core::baselines::hnsw::{HnswConfig, HnswIndex};
use climber_core::baselines::lsh::{LshConfig, LshIndex};
use climber_core::baselines::odyssey::{OdysseyConfig, OdysseyIndex};
use climber_core::series::gen::{query_workload, Domain};
use climber_core::series::ground_truth::exact_knn;
use climber_core::series::recall::recall_of_results;
use climber_core::SearchRequest;
use climber_core::{Climber, ClimberConfig};
use std::time::Instant;

fn main() {
    let n = 6_000;
    let k = 20;
    println!("generating {n} SIFT-like descriptors (128-d) ...\n");
    let corpus = Domain::TexMex.generate(n, 77);
    let queries = query_workload(&corpus, 12, 5);

    println!(
        "{:<16} {:>10} {:>10} {:>8}",
        "system", "build(s)", "query(ms)", "recall"
    );

    // CLIMBER (disk-class system, measured with in-memory store here).
    let t = Instant::now();
    let climber = Climber::build_in_memory(
        &corpus,
        ClimberConfig::default()
            .with_paa_segments(16)
            .with_pivots(200)
            .with_prefix_len(10)
            .with_capacity(300)
            .with_alpha(0.15)
            .with_max_centroids(10)
            .with_seed(5),
    );
    let build = t.elapsed().as_secs_f64();
    report("CLIMBER-4X", build, &queries, &corpus, k, |q| {
        climber
            .search(&SearchRequest::new(q, k).adaptive(4))
            .results
    });

    // HNSW graph.
    let t = Instant::now();
    let (hnsw, _) = HnswIndex::build(&corpus, HnswConfig::default()).expect("fits in memory");
    let build = t.elapsed().as_secs_f64();
    report("HNSW", build, &queries, &corpus, k, |q| {
        hnsw.query(&corpus, q, k).results
    });

    // Odyssey-like exact in-memory engine.
    let t = Instant::now();
    let (ody, _) = OdysseyIndex::build(&corpus, OdysseyConfig::default()).expect("fits");
    let build = t.elapsed().as_secs_f64();
    report("Odyssey(exact)", build, &queries, &corpus, k, |q| {
        ody.query(&corpus, q, k).results
    });

    // ChainLink-like LSH.
    let t = Instant::now();
    let (lsh, _) = LshIndex::build(&corpus, LshConfig::default());
    let build = t.elapsed().as_secs_f64();
    report("LSH", build, &queries, &corpus, k, |q| {
        lsh.query(&corpus, q, k).results
    });
}

fn report<F>(
    name: &str,
    build_secs: f64,
    queries: &[u64],
    corpus: &climber_core::series::Dataset,
    k: usize,
    mut run: F,
) where
    F: FnMut(&[f32]) -> Vec<(u64, f64)>,
{
    let mut recall = 0.0;
    let t = Instant::now();
    for &qid in queries {
        let got = run(corpus.get(qid));
        let want = exact_knn(corpus, corpus.get(qid), k);
        recall += recall_of_results(&got, &want) / queries.len() as f64;
    }
    let ms = 1000.0 * t.elapsed().as_secs_f64() / queries.len() as f64;
    println!("{name:<16} {build_secs:>10.2} {ms:>10.2} {recall:>8.3}");
}
