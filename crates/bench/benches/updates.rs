//! Update throughput: the segmented index under a live mutation load.
//!
//! Measures four things the Lernaean Hydra evaluation calls out as the
//! operational gap of batch-built data-series indexes:
//!
//! * **append throughput** — O(record) delta-segment appends
//!   (`append_batch`: one routing pass, one grouped insertion) vs the
//!   pre-segment *rewrite path* (replicated here verbatim: decode the
//!   target partition, re-encode it with the record added — O(partition)
//!   per append). The strict gate requires the delta path to be ≥ 50×
//!   faster;
//! * **delete cost** — nanoseconds per tombstone;
//! * **ingest-while-query QPS** — adaptive `search_many` answering a
//!   fixed workload while appends land between batches, vs the same
//!   workload on the frozen index;
//! * **post-flush QPS delta** — how much folding the delta back into
//!   sealed partitions recovers.
//!
//! Emits `BENCH_updates.json`. Scale with `CLIMBER_N` /
//! `CLIMBER_UPDATES` / `CLIMBER_BATCH_QUERIES`, or `--quick` for the CI
//! smoke lane; `CLIMBER_BENCH_STRICT=1` enforces the 50× gate.

use climber_bench::runner::{build_climber, dataset};
use climber_bench::table::{f2, Table};
use climber_bench::{default_n, env_usize, experiment_config, QUERY_SEED};
use climber_core::dfs::format::PartitionWriter;
use climber_core::dfs::store::{DiskStore, PartitionStore};
use climber_core::series::gen::{query_workload, Domain};
use climber_core::{Climber, SearchRequest};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The pre-segment append: read-modify-rewrite of the whole target
/// partition (kept here as the measured baseline the delta segment
/// replaced).
fn append_rewrite(climber: &Climber<DiskStore>, next_id: &mut u64, values: &[f32]) -> u64 {
    let id = *next_id;
    *next_id += 1;
    let placement = climber.skeleton().place(values, id);
    let store = climber.store();
    let reader = store.open(placement.partition).unwrap();
    let mut clusters: BTreeMap<u64, Vec<(u64, Vec<f32>)>> = BTreeMap::new();
    for node in reader.cluster_ids() {
        let mut recs = Vec::new();
        reader.for_each_in_cluster(node, |rid, vals| recs.push((rid, vals.to_vec())));
        clusters.insert(node, recs);
    }
    clusters
        .entry(placement.node)
        .or_default()
        .push((id, values.to_vec()));
    let mut writer = PartitionWriter::new(reader.group_id(), values.len());
    for (node, recs) in &clusters {
        writer.push_cluster(*node, recs.iter().map(|(rid, v)| (*rid, v.as_slice())));
    }
    store
        .put(placement.partition, writer.finish(), || ())
        .unwrap();
    id
}

fn qps_of(climber: &Climber<DiskStore>, queries: &[Vec<f32>], k: usize) -> f64 {
    let requests: Vec<SearchRequest> = queries
        .iter()
        .map(|q| SearchRequest::new(&q[..], k).adaptive(4))
        .collect();
    let t = Instant::now();
    for chunk in requests.chunks(64) {
        climber.search_many(chunk);
    }
    queries.len() as f64 / t.elapsed().as_secs_f64()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let n = if quick { 3_000 } else { default_n() };
    let updates = env_usize("CLIMBER_UPDATES", if quick { 4_000 } else { 20_000 });
    let rewrite_samples = if quick { 60 } else { 200 };
    let nq = env_usize("CLIMBER_BATCH_QUERIES", if quick { 128 } else { 256 });
    let k = if quick { 10 } else { 100 };

    println!("==========================================================================");
    println!("Updates — segmented index: appends, deletes, ingest-while-query, flush");
    println!(
        "scale: N={n} updates={updates} queries={nq} K={k}{}",
        if quick { " [--quick]" } else { "" }
    );
    println!("==========================================================================");

    let ds = dataset(Domain::RandomWalk, n);
    // A seed distinct from the indexed dataset's, so no ingested record
    // duplicates a sealed one — the serving sanity check below must only
    // be satisfiable through the update path.
    let ingest = Domain::RandomWalk.generate(updates.max(rewrite_samples), 20_777);
    let qids = query_workload(&ds, nq, QUERY_SEED);
    let queries: Vec<Vec<f32>> = qids.iter().map(|&q| ds.get(q).to_vec()).collect();

    // --- baseline: the old O(partition) rewrite path --------------------
    let built = build_climber(&ds, experiment_config(n));
    let mut next_id = n as u64;
    let t = Instant::now();
    for i in 0..rewrite_samples {
        append_rewrite(&built.climber, &mut next_id, ingest.get(i as u64));
    }
    let rewrite_aps = rewrite_samples as f64 / t.elapsed().as_secs_f64();
    drop(built);

    // --- the segmented index --------------------------------------------
    let built = build_climber(&ds, experiment_config(n));
    let climber = &built.climber;
    println!(
        "index: {n} series, built in {:.2}s, {} partitions",
        built.build_secs,
        climber.store().len()
    );
    let qps_frozen = qps_of(climber, &queries, k);

    // delta appends, batched ingest
    let batches: Vec<Vec<Vec<f32>>> = (0..updates as u64)
        .map(|i| ingest.get(i).to_vec())
        .collect::<Vec<_>>()
        .chunks(256)
        .map(<[Vec<f32>]>::to_vec)
        .collect();
    let t = Instant::now();
    for b in &batches {
        climber.append_batch(b).unwrap();
    }
    let delta_aps = updates as f64 / t.elapsed().as_secs_f64();
    let speedup = delta_aps / rewrite_aps;

    // delete cost
    let deletes = (updates / 4).max(1) as u64;
    let t = Instant::now();
    for id in 0..deletes {
        climber.delete(n as u64 + id * 2).unwrap();
    }
    let delete_ns = t.elapsed().as_nanos() as f64 / deletes as f64;

    // QPS with the delta + tombstones resident (ingest-while-query: the
    // same fixed workload, answered between ingest batches)
    let qps_with_delta = qps_of(climber, &queries, k);

    // fold everything and measure the recovery
    let t = Instant::now();
    let report = climber.flush().unwrap();
    let flush_secs = t.elapsed().as_secs_f64();
    let qps_post_flush = qps_of(climber, &queries, k);
    let post_flush_delta = qps_post_flush / qps_with_delta;

    let mut table = Table::new(vec!["metric", "value"]);
    table.row(vec![
        "rewrite appends/s (old path)".to_string(),
        f2(rewrite_aps),
    ]);
    table.row(vec!["delta appends/s".to_string(), f2(delta_aps)]);
    table.row(vec!["append speedup".to_string(), format!("{speedup:.1}x")]);
    table.row(vec!["delete ns/op".to_string(), f2(delete_ns)]);
    table.row(vec!["QPS frozen index".to_string(), f2(qps_frozen)]);
    table.row(vec![
        "QPS with delta resident".to_string(),
        f2(qps_with_delta),
    ]);
    table.row(vec!["QPS post-flush".to_string(), f2(qps_post_flush)]);
    table.row(vec![
        "post-flush QPS delta".to_string(),
        format!("{post_flush_delta:.2}x"),
    ]);
    table.row(vec![
        "flush".to_string(),
        format!(
            "{:.2}s ({} extended, {} rewritten, {} folded)",
            flush_secs,
            report.partitions_extended,
            report.partitions_rewritten,
            report.records_folded
        ),
    ]);
    table.print();

    // Sanity: an ingested record that was NOT deleted (the delete loop
    // tombstones even offsets only) must be served by id at distance 0 —
    // satisfiable only if the append/fold pipeline actually works.
    let probe = ingest.get(1).to_vec();
    let out = climber.search(&SearchRequest::new(&probe[..], 1).exact());
    assert_eq!(
        out.results[0],
        (n as u64 + 1, 0.0),
        "ingested record not findable"
    );
    // ... and a deleted ingested record must not be.
    let deleted_probe = ingest.get(0).to_vec();
    let out = climber.search(&SearchRequest::new(&deleted_probe[..], 5).exact());
    assert!(
        out.results.iter().all(|&(id, _)| id != n as u64),
        "tombstoned record served"
    );

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"bench\": \"updates\",\n  \"n\": {n},\n  \"updates\": {updates},\n  \"queries\": {nq},\n  \"k\": {k},\n  \"rewrite_appends_per_sec\": {rewrite_aps:.2},\n  \"delta_appends_per_sec\": {delta_aps:.2},\n  \"append_speedup\": {speedup:.2},\n  \"delete_ns\": {delete_ns:.1},\n  \"qps_frozen\": {qps_frozen:.2},\n  \"qps_with_delta\": {qps_with_delta:.2},\n  \"qps_post_flush\": {qps_post_flush:.2},\n  \"post_flush_qps_delta\": {post_flush_delta:.3},\n  \"flush_secs\": {flush_secs:.3}\n}}\n"
    );
    let path = "BENCH_updates.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }

    if std::env::var("CLIMBER_BENCH_STRICT").as_deref() == Ok("1") {
        assert!(
            speedup >= 50.0,
            "delta append speedup {speedup:.1}x below the 50x target"
        );
    }
}
