//! Throughput (QPS) of the query executor as a function of how many
//! requests it is handed at once.
//!
//! The Lernaean Hydra evaluation (Echihabi et al.) measures data-series
//! engines by *sustained query throughput*, not single-query latency. This
//! harness runs the same fixed query workload through every
//! batch-size × thread-count configuration and reports queries/second:
//!
//! * `batch=1 threads=1` — one `Climber::search` per request, the
//!   baseline;
//! * larger batches — `search_many`'s partition-major scan: each
//!   partition selected by any request of a batch is opened once and each
//!   cluster decoded once for all its queries, so throughput rises even
//!   on a single core;
//! * more threads — workers pull `(source, partition)` tasks off a shared
//!   cursor.
//!
//! Each configuration runs the workload again and again for a fixed
//! wall-clock budget ([`ROW_SECS`], [`QUICK_ROW_SECS`] with `--quick`),
//! and its row reports the median run and how many runs it took: a run
//! is a fraction of a second, and the median of tens of them moves less
//! from one invocation to the next than the best of a few (single-thread
//! rows within ±6 % over three invocations on a 2-core x86-64 box, where
//! the multi-thread rows still spread wider).
//!
//! Results are bit-identical across all configurations (asserted on a
//! sample at the end). Emits a `BENCH_throughput.json` record next to the
//! printed table; scale with `CLIMBER_N` / `CLIMBER_K` /
//! `CLIMBER_BATCH_QUERIES`, or pass `--quick` for the CI smoke scale.

use climber_bench::runner::{build_climber, dataset};
use climber_bench::table::{f2, Table};
use climber_bench::{default_k, default_n, env_usize, experiment_config, QUERY_SEED};
use climber_core::dfs::store::{DiskStore, PartitionStore};
use climber_core::query::exec::{execute, Source};
use climber_core::series::gen::{query_workload, Domain};
use climber_core::{Climber, QueryOutcome, SearchRequest};
use std::fmt::Write as _;
use std::time::Instant;

/// Wall-clock seconds each configuration is timed over.
const ROW_SECS: f64 = 5.0;

/// [`ROW_SECS`] of a `--quick` run (seven configurations).
const QUICK_ROW_SECS: f64 = 3.0;

/// Runs of a configuration however short its budget: a median of fewer
/// is no median.
const MIN_RUNS: usize = 3;

/// One measured configuration.
struct Row {
    batch: usize,
    threads: usize,
    qps: f64,
    secs: f64,
    sharing: f64,
    /// Runs the budget held (the row is the median one).
    runs: usize,
}

/// `Climber::search_many` with an explicit worker count: the executor
/// over the index's one (update-free) source.
fn search_many(
    climber: &Climber<DiskStore>,
    reqs: &[SearchRequest],
    threads: usize,
) -> Vec<QueryOutcome> {
    let source = Source::sealed(climber.store());
    let sources = [Some(source)];
    execute(
        climber.skeleton(),
        &sources,
        climber.series_len(),
        reqs,
        threads,
    )
    .0
}

/// Runs a configuration until `budget` seconds have passed (at least
/// [`MIN_RUNS`] times) and keeps the median run, every configuration
/// alike.
fn run_config_median(
    climber: &Climber<DiskStore>,
    wl: &[SearchRequest],
    batch: usize,
    threads: usize,
    budget: f64,
) -> Row {
    let start = Instant::now();
    let mut runs = Vec::new();
    while runs.len() < MIN_RUNS || start.elapsed().as_secs_f64() < budget {
        runs.push(run_config(climber, wl, batch, threads));
    }
    runs.sort_by(|a, b| a.secs.total_cmp(&b.secs));
    let count = runs.len();
    Row {
        runs: count,
        ..runs.swap_remove(count / 2)
    }
}

/// Runs the whole workload split into `batch`-sized calls on `threads`
/// workers; `batch == 1 && threads == 1` is one `Climber::search` per
/// request. Sharing = logical records scanned per record physically
/// decoded (the store's `IoStats` delta).
fn run_config(
    climber: &Climber<DiskStore>,
    wl: &[SearchRequest],
    batch: usize,
    threads: usize,
) -> Row {
    let before = climber.serve_io();
    let t = Instant::now();
    let mut scanned = 0u64;
    if batch == 1 && threads == 1 {
        for req in wl {
            scanned += climber.search(req).records_scanned;
        }
    } else {
        for chunk in wl.chunks(batch) {
            let out = search_many(climber, chunk, threads);
            scanned += out.iter().map(|o| o.records_scanned).sum::<u64>();
        }
    }
    let secs = t.elapsed().as_secs_f64();
    let decoded = climber.serve_io().since(&before).records_read;
    Row {
        batch,
        threads,
        qps: wl.len() as f64 / secs,
        secs,
        sharing: if decoded == 0 {
            1.0
        } else {
            scanned as f64 / decoded as f64
        },
        runs: 1,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let n = if quick { 4_000 } else { default_n() };
    let nq = env_usize("CLIMBER_BATCH_QUERIES", 256);
    let k = if quick { 10 } else { default_k() };
    let factor = 4;
    let budget = if quick { QUICK_ROW_SECS } else { ROW_SECS };
    // Not the shared banner(): its scale line prints the CLIMBER_N /
    // CLIMBER_QUERIES / CLIMBER_K defaults, which --quick overrides —
    // print the parameters this run actually uses.
    println!("==========================================================================");
    println!("Throughput — batched partition-major execution (QPS)");
    println!("workload: fixed query set, Adaptive-{factor}X; grid: batch {{1,16,256}} x threads {{1,4,8}}");
    println!("each row: the median run of those in {budget} s of wall clock");
    println!(
        "scale: N={n} queries={nq} K={k}{} (CLIMBER_N / CLIMBER_BATCH_QUERIES / CLIMBER_K)",
        if quick { " [--quick]" } else { "" }
    );
    println!("==========================================================================");

    let ds = dataset(Domain::RandomWalk, n);
    let built = build_climber(&ds, experiment_config(n));
    let climber = &built.climber;
    println!(
        "index: {n} series, built in {:.2}s, {} partitions",
        built.build_secs,
        climber.store().len()
    );

    let qids = query_workload(&ds, nq, QUERY_SEED);
    // Requests are built once, so the timed region measures the
    // executor, not request construction.
    let requests: Vec<SearchRequest> = qids
        .iter()
        .map(|&q| SearchRequest::new(ds.get(q), k).adaptive(factor))
        .collect();

    let batches = [1usize, 16, 256];
    let threads = [1usize, 4, 8];
    let mut rows: Vec<Row> = Vec::new();
    let mut table = Table::new(vec![
        "batch", "threads", "QPS", "secs", "runs", "sharing", "speedup",
    ]);
    let wl = &requests[..];
    // Warm up caches so the 1×1 baseline is not penalised by first-touch.
    run_config(climber, &wl[..wl.len().min(8)], 1, 1);
    let mut baseline_qps = 0.0;
    for &b in &batches {
        for &t in &threads {
            if b == 1 && t > 1 && quick {
                continue; // single-query batches gain nothing on smoke runs
            }
            let row = run_config_median(climber, wl, b, t, budget);
            if b == 1 && t == 1 {
                baseline_qps = row.qps;
            }
            table.row(vec![
                row.batch.to_string(),
                row.threads.to_string(),
                f2(row.qps),
                f2(row.secs),
                row.runs.to_string(),
                f2(row.sharing),
                format!("{:.2}x", row.qps / baseline_qps),
            ]);
            rows.push(row);
        }
    }
    table.print();

    let best = rows
        .iter()
        .find(|r| r.batch == 256 && r.threads == 8)
        .or_else(|| rows.last())
        .expect("at least one configuration ran");
    let speedup = best.qps / baseline_qps;
    println!(
        "\nbatch={} threads={}: {:.1} QPS vs sequential {:.1} QPS -> {speedup:.2}x (target >= 2x)",
        best.batch, best.threads, best.qps, baseline_qps
    );

    // A batch must return exactly what request-at-a-time search does.
    let sample = &requests[..requests.len().min(16)];
    for (req, got) in sample.iter().zip(&climber.search_many(sample)) {
        assert_eq!(got, &climber.search(req), "batch diverged");
    }
    println!(
        "equivalence check: batch == sequential on {} queries",
        sample.len()
    );

    // BENCH_*.json record (consumed by tooling; schema kept flat).
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"bench\": \"throughput\",\n  \"n\": {n},\n  \"queries\": {nq},\n  \"k\": {k},\n  \"strategy\": \"adaptive{factor}x\",\n  \"rows\": ["
    );
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "{}\n    {{\"batch\": {}, \"threads\": {}, \"qps\": {:.2}, \"secs\": {:.4}, \"runs\": {}, \"sharing\": {:.2}}}",
            if i == 0 { "" } else { "," },
            r.batch,
            r.threads,
            r.qps,
            r.secs,
            r.runs,
            r.sharing
        );
    }
    let _ = write!(
        json,
        "\n  ],\n  \"speedup_best_vs_sequential\": {speedup:.2}\n}}\n"
    );
    let path = "BENCH_throughput.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }

    if std::env::var("CLIMBER_BENCH_STRICT").as_deref() == Ok("1") {
        assert!(
            speedup >= 2.0,
            "batched search_many speedup {speedup:.2}x below the 2x target"
        );
    }
}
