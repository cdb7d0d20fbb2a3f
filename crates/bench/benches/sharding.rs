//! Scatter-gather scaling: a sharded index vs the single-index engine
//! over the identical workload.
//!
//! Builds one dataset, then measures build time and sustained batch QPS
//! for the single [`Climber`] and for [`ShardedClimber`] sets of 1, 2 and
//! 4 shards, each at 1 worker thread and at all available cores. Every
//! configuration answers the same requests with bit-identical outcomes
//! (spot-checked before timing), so the table isolates pure orchestration
//! cost: what the scatter, the shared cross-shard bound, and the k-way
//! merge add — and what shard-level parallelism buys back.
//!
//! Emits `BENCH_sharding.json`. Scale with `CLIMBER_N` /
//! `CLIMBER_QUERIES`, or pass `--quick` for the CI smoke scale. The
//! best-sharded / single ratio is reported, not gated: it is a ratio
//! against a denominator that moves with every engine change (1.13x on 2
//! shared vCPUs whatever the commit), and regression detection on this
//! path is the perf ledger's `batch-sharded` workload.

use climber_bench::runner::{build_climber, dataset};
use climber_bench::table::{f2, Table};
use climber_bench::{default_k, env_usize, experiment_config, QUERY_SEED};
use climber_core::series::gen::{query_workload, Domain};
use climber_core::{SearchRequest, ShardedClimber};
use std::fmt::Write as _;
use std::time::Instant;

/// One measured configuration.
struct Row {
    mode: String,
    shards: usize,
    threads: usize,
    build_secs: f64,
    qps: f64,
    secs: f64,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let n = if quick {
        4_000
    } else {
        env_usize("CLIMBER_N", 20_000)
    };
    let total = env_usize("CLIMBER_QUERIES", if quick { 256 } else { 512 });
    let k = default_k();
    let reps = if quick { 2 } else { 3 };
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!("==========================================================================");
    println!("Sharding — scatter-gather ShardedClimber vs the single-index engine");
    println!("workload: {total} batched requests, K={k}, Adaptive-4X, best of {reps}");
    println!(
        "scale: N={n} cores={cores}{} (CLIMBER_N / CLIMBER_QUERIES)",
        if quick { " [--quick]" } else { "" }
    );
    println!("==========================================================================");

    let ds = dataset(Domain::RandomWalk, n);
    let config = experiment_config(n);
    let built = build_climber(&ds, config);
    let single = built.climber;

    let qids = query_workload(&ds, total, QUERY_SEED);
    let requests: Vec<SearchRequest> = qids
        .iter()
        .map(|&q| SearchRequest::new(ds.get(q), k).adaptive(4))
        .collect();

    let mut rows: Vec<Row> = Vec::new();
    let time_qps = |run: &dyn Fn() -> Vec<climber_core::QueryOutcome>| {
        (0..reps)
            .map(|_| {
                let t = Instant::now();
                let out = run();
                assert_eq!(out.len(), requests.len());
                t.elapsed().as_secs_f64()
            })
            .min_by(f64::total_cmp)
            .expect("reps >= 1")
    };

    let secs = time_qps(&|| single.search_many(&requests));
    println!(
        "single index: built in {:.2}s, {:.1} QPS",
        built.build_secs,
        total as f64 / secs
    );
    rows.push(Row {
        mode: "single".into(),
        shards: 1,
        threads: 0,
        build_secs: built.build_secs,
        qps: total as f64 / secs,
        secs,
    });

    for shards in [1usize, 2, 4] {
        let t = Instant::now();
        let sharded = ShardedClimber::build_in_memory(&ds, config, shards);
        let build_secs = t.elapsed().as_secs_f64();
        // The bit-identity contract, spot-checked before timing anything.
        for req in requests.iter().take(4) {
            assert_eq!(
                sharded.search(req),
                single.search(req),
                "sharded outcome diverged from the single index"
            );
        }
        for threads in [1usize, 0] {
            let secs = time_qps(&|| sharded.search_many_with_threads(&requests, threads));
            println!(
                "sharded x{shards} @ {} thread(s): built in {build_secs:.2}s, {:.1} QPS",
                if threads == 0 { cores } else { threads },
                total as f64 / secs
            );
            rows.push(Row {
                mode: format!("sharded-{shards}"),
                shards,
                threads,
                build_secs,
                qps: total as f64 / secs,
                secs,
            });
        }
    }

    let mut table = Table::new(vec!["mode", "shards", "threads", "build_s", "QPS", "secs"]);
    for r in &rows {
        table.row(vec![
            r.mode.clone(),
            r.shards.to_string(),
            if r.threads == 0 {
                format!("{cores}")
            } else {
                r.threads.to_string()
            },
            f2(r.build_secs),
            f2(r.qps),
            f2(r.secs),
        ]);
    }
    table.print();

    let single_qps = rows[0].qps;
    let best = rows[1..]
        .iter()
        .max_by(|a, b| a.qps.total_cmp(&b.qps))
        .expect("sharded rows exist");
    let speedup = best.qps / single_qps;
    println!(
        "\nbest sharded ({} @ {} thread(s)) {:.1} QPS vs single {:.1} QPS -> {speedup:.2}x \
         on {cores} core(s) (reported, not gated)",
        best.mode,
        if best.threads == 0 {
            cores
        } else {
            best.threads
        },
        best.qps,
        single_qps
    );

    // BENCH_*.json record (consumed by tooling; schema kept flat).
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"bench\": \"sharding\",\n  \"n\": {n},\n  \"queries\": {total},\n  \"k\": {k},\n  \"cores\": {cores},\n  \"rows\": ["
    );
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "{}\n    {{\"mode\": \"{}\", \"shards\": {}, \"threads\": {}, \"build_secs\": {:.4}, \"qps\": {:.2}, \"secs\": {:.4}}}",
            if i == 0 { "" } else { "," },
            r.mode,
            r.shards,
            r.threads,
            r.build_secs,
            r.qps,
            r.secs
        );
    }
    let _ = write!(
        json,
        "\n  ],\n  \"speedup_best_sharded_vs_single\": {speedup:.2}\n}}\n"
    );
    let path =
        std::env::var("CLIMBER_BENCH_JSON").unwrap_or_else(|_| "BENCH_sharding.json".to_string());
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
