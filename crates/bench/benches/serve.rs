//! Serving throughput: micro-batched `climber-serve` vs a sequential
//! (batch-of-one) server, measured over real TCP connections.
//!
//! A pool of closed-loop clients (each sends a request, waits for the
//! answer, repeats) drives two server configurations over the same
//! workload:
//!
//! * `sequential` — `max_batch = 1`, one worker: every request is its own
//!   batch, the per-query engine behind a socket; the baseline;
//! * `batched` — the default admission queue: concurrent in-flight
//!   requests coalesce into micro-batches, so partition opens and cluster
//!   decodes are shared across clients exactly like a hand-built
//!   `search_many` call.
//!
//! Emits `BENCH_serve.json`. Scale with `CLIMBER_N` / `CLIMBER_CLIENTS` /
//! `CLIMBER_SERVE_REQUESTS`, or pass `--quick` for the CI smoke scale.
//! The batched / sequential ratio is reported, not gated: it swings
//! 1.25-1.6x on 2 shared vCPUs, parent and change alike, and regression
//! detection on this path is the perf ledger's `serve-closed` workload.

use climber_bench::runner::{build_climber, dataset};
use climber_bench::table::{f2, Table};
use climber_bench::{default_k, env_usize, experiment_config, QUERY_SEED};
use climber_core::series::gen::{query_workload, Domain};
use climber_core::{Climber, SearchRequest};
use climber_serve::{ServeClient, ServeConfig, Server};
use std::fmt::Write as _;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Instant;

/// One measured server configuration.
struct Row {
    mode: &'static str,
    clients: usize,
    qps: f64,
    secs: f64,
    mean_batch: f64,
    p50_us: u64,
    p95_us: u64,
    p99_us: u64,
}

/// Drives `clients` closed-loop connections through a freshly started
/// server and reports sustained QPS plus the server's own latency stats.
fn run_mode(
    mode: &'static str,
    climber: &Arc<Climber>,
    config: ServeConfig,
    requests: &Arc<Vec<SearchRequest>>,
    clients: usize,
) -> Row {
    let server = Server::start(Arc::clone(climber), "127.0.0.1:0", config).expect("start server");
    let addr = server.local_addr();
    // All clients connect first, then start sending together.
    let barrier = Arc::new(Barrier::new(clients + 1));
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let requests = Arc::clone(requests);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                let mut client = ServeClient::connect(addr).expect("connect");
                barrier.wait();
                // client c serves every clients-th request of the workload
                for req in requests.iter().skip(c).step_by(clients) {
                    client.search(req).expect("serve");
                }
            })
        })
        .collect();
    barrier.wait();
    let t = Instant::now();
    for h in handles {
        h.join().expect("client thread");
    }
    let secs = t.elapsed().as_secs_f64();
    let stats = server.stats();
    server.shutdown();
    Row {
        mode,
        clients,
        qps: requests.len() as f64 / secs,
        secs,
        mean_batch: stats.mean_batch,
        p50_us: stats.p50_us,
        p95_us: stats.p95_us,
        p99_us: stats.p99_us,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let n = if quick {
        4_000
    } else {
        env_usize("CLIMBER_N", 20_000)
    };
    let total = env_usize("CLIMBER_SERVE_REQUESTS", if quick { 1_024 } else { 2_048 });
    // Batch occupancy is capped by the number of in-flight requests, so
    // the client pool — not max_batch — decides how much decode sharing a
    // micro-batch can harvest; 32 closed-loop clients give ~30-deep
    // batches, enough for the sharing win to clear the serving overhead
    // even on one core.
    let clients = env_usize("CLIMBER_CLIENTS", 32);
    // The paper-default K: large answers scan many clusters per query, so
    // a micro-batch has real decode work to share. (A tiny K would measure
    // socket overhead, which batching cannot help.)
    let k = default_k();
    let cores = thread::available_parallelism().map_or(1, |p| p.get());
    println!("==========================================================================");
    println!("Serving throughput — micro-batched climber-serve vs a batch-of-one server");
    println!("workload: {total} requests, {clients} closed-loop clients, K={k}, Adaptive-4X");
    println!(
        "scale: N={n} cores={cores}{} (CLIMBER_N / CLIMBER_SERVE_REQUESTS / CLIMBER_CLIENTS)",
        if quick { " [--quick]" } else { "" }
    );
    println!("==========================================================================");

    let ds = dataset(Domain::RandomWalk, n);
    let built = build_climber(&ds, experiment_config(n));
    let climber = Arc::new(built.climber);
    println!("index: {n} series, built in {:.2}s", built.build_secs);

    let qids = query_workload(&ds, total, QUERY_SEED);
    let requests: Arc<Vec<SearchRequest>> = Arc::new(
        qids.iter()
            .map(|&q| SearchRequest::new(ds.get(q), k).adaptive(4))
            .collect(),
    );

    // Spot-check the serving guarantee before timing anything: one client,
    // served outcomes bit-identical to direct search.
    {
        let server = Server::start(Arc::clone(&climber), "127.0.0.1:0", ServeConfig::default())
            .expect("start server");
        let mut client = ServeClient::connect(server.local_addr()).expect("connect");
        for req in requests.iter().take(8) {
            assert_eq!(
                client.search(req).expect("serve"),
                climber.search(req),
                "served outcome diverged from direct search"
            );
        }
        server.shutdown();
        println!("equivalence check: served == direct on 8 requests");
    }

    let sequential_cfg = ServeConfig::default().with_workers(1).with_max_batch(1);
    let batched_cfg = ServeConfig::default().with_max_batch(256);

    // Loopback scheduling noise dwarfs sub-second runs; always keep the
    // best of two so one descheduled client thread can't sink a mode.
    let reps = 2;
    let best = |mode, cfg: ServeConfig| {
        (0..reps)
            .map(|_| run_mode(mode, &climber, cfg, &requests, clients))
            .min_by(|a, b| a.secs.total_cmp(&b.secs))
            .expect("reps >= 1")
    };
    let seq = best("sequential", sequential_cfg);
    let bat = best("batched", batched_cfg);

    let mut table = Table::new(vec![
        "mode", "clients", "QPS", "secs", "batch", "p50us", "p95us", "p99us",
    ]);
    for r in [&seq, &bat] {
        table.row(vec![
            r.mode.to_string(),
            r.clients.to_string(),
            f2(r.qps),
            f2(r.secs),
            f2(r.mean_batch),
            r.p50_us.to_string(),
            r.p95_us.to_string(),
            r.p99_us.to_string(),
        ]);
    }
    table.print();

    let speedup = bat.qps / seq.qps;
    println!(
        "\nbatched {:.1} QPS vs sequential {:.1} QPS -> {speedup:.2}x \
         on {cores} core(s), mean batch {:.2} (reported, not gated)",
        bat.qps, seq.qps, bat.mean_batch
    );

    // BENCH_*.json record (consumed by tooling; schema kept flat).
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"bench\": \"serve\",\n  \"n\": {n},\n  \"requests\": {total},\n  \"clients\": {clients},\n  \"k\": {k},\n  \"cores\": {cores},\n  \"rows\": ["
    );
    for (i, r) in [&seq, &bat].iter().enumerate() {
        let _ = write!(
            json,
            "{}\n    {{\"mode\": \"{}\", \"clients\": {}, \"qps\": {:.2}, \"secs\": {:.4}, \"mean_batch\": {:.2}, \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}}}",
            if i == 0 { "" } else { "," },
            r.mode,
            r.clients,
            r.qps,
            r.secs,
            r.mean_batch,
            r.p50_us,
            r.p95_us,
            r.p99_us
        );
    }
    let _ = write!(
        json,
        "\n  ],\n  \"speedup_batched_vs_sequential\": {speedup:.2}\n}}\n"
    );
    let path =
        std::env::var("CLIMBER_BENCH_JSON").unwrap_or_else(|_| "BENCH_serve.json".to_string());
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
