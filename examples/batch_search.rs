//! Batched query execution: hand the executor a burst of requests at once
//! (`search_many`) and compare its throughput (QPS) against the same
//! requests issued one `search` at a time.
//!
//! ```sh
//! cargo run --release --example batch_search
//! ```

use climber_core::series::gen::{query_workload, Domain};
use climber_core::{Climber, ClimberConfig, SearchRequest};
use std::time::Instant;

fn main() {
    let n = 10_000;
    println!("generating {n} RandomWalk series ...");
    let data = Domain::RandomWalk.generate(n, 42);

    let config = ClimberConfig::default()
        .with_paa_segments(16)
        .with_pivots(200)
        .with_prefix_len(10)
        .with_capacity(500)
        .with_alpha(0.1)
        .with_max_centroids(10)
        .with_seed(7);
    let climber = Climber::build_in_memory(&data, config);

    // A burst of 128 requests, as a throughput-oriented service sees them.
    let (k, factor) = (100, 4);
    let requests: Vec<SearchRequest> = query_workload(&data, 128, 1)
        .iter()
        .map(|&q| SearchRequest::new(data.get(q), k).adaptive(factor))
        .collect();

    // One at a time: each request opens and decodes its own partitions.
    let before = climber.serve_io();
    let t = Instant::now();
    let sequential: Vec<_> = requests.iter().map(|r| climber.search(r)).collect();
    let seq_secs = t.elapsed().as_secs_f64();
    let seq_io = climber.serve_io().since(&before);

    // Together: the union of all plans, partition-major across threads —
    // every shared partition opened once, every shared cluster decoded once.
    let before = climber.serve_io();
    let t = Instant::now();
    let batched = climber.search_many(&requests);
    let batch_secs = t.elapsed().as_secs_f64();
    let batch_io = climber.serve_io().since(&before);

    // Same answers, down to the last bit and counter.
    assert_eq!(batched, sequential, "batch must equal sequential");

    println!(
        "sequential: {:7.1} QPS  ({} queries in {:.3}s)",
        requests.len() as f64 / seq_secs,
        requests.len(),
        seq_secs
    );
    println!(
        "batched:    {:7.1} QPS  ({} queries in {:.3}s)  -> {:.2}x",
        requests.len() as f64 / batch_secs,
        requests.len(),
        batch_secs,
        seq_secs / batch_secs
    );
    let scanned: u64 = batched.iter().map(|o| o.records_scanned).sum();
    println!(
        "sharing: {} records decoded once served {} per-query scans ({:.1}x reuse) across {} partition opens (sequential: {} records, {} opens)",
        batch_io.records_read,
        scanned,
        scanned as f64 / batch_io.records_read.max(1) as f64,
        batch_io.partitions_opened,
        seq_io.records_read,
        seq_io.partitions_opened
    );
}
