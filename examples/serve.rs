//! Serve a CLIMBER index over TCP with micro-batched execution.
//!
//! ```sh
//! # self-contained demo: build an in-memory index, serve it, drive it
//! # with concurrent clients, verify, print the stats endpoint:
//! cargo run --release --example serve
//!
//! # or serve a persisted index (what the CI serve lane does; build one
//! # first with `persist_and_serve build <dir>`):
//! cargo run --release --example serve -- /tmp/climber-index
//! ```
//!
//! Either way the process is its own smoke test: it starts a
//! [`Server`], sends the probes one after another from one client (each is
//! executed by its own connection handler and never waits) and then all at
//! once from a pool of concurrent clients (whatever finds the execution
//! slots taken queues up and leaves as a micro-batch), asserts every
//! served outcome is bit-identical to a direct [`Climber::search`], prints
//! the metrics snapshot, checks that the books balance, and shuts down
//! drain-clean.

use climber_core::dfs::store::PartitionStore;
use climber_core::series::gen::Domain;
use climber_core::{Climber, ClimberConfig, SearchRequest};
use climber_serve::{ServeClient, ServeConfig, Server};
use std::path::Path;
use std::sync::Arc;
use std::thread;
use std::time::Instant;

/// Recovers probe queries from the stored partitions themselves, so the
/// serve path needs no dataset in scope.
fn probes<S: PartitionStore>(climber: &Climber<S>, n: usize) -> Vec<Vec<f32>> {
    let mut records = Vec::new();
    for pid in climber.store().ids() {
        let reader = climber.store().open(pid).expect("partition readable");
        reader.for_each(|_, vals| records.push(vals.to_vec()));
    }
    records.into_iter().step_by(31).take(n).collect()
}

/// Starts a server on `climber`, drives it with one sequential client and
/// then a concurrent client pool, verifies the serving guarantee, and
/// prints the stats snapshot.
fn serve<S: PartitionStore + 'static>(climber: Arc<Climber<S>>) {
    let queries = probes(&climber, 24);
    let k = 10;
    let server = Server::start(Arc::clone(&climber), "127.0.0.1:0", ServeConfig::default())
        .expect("start server");
    let addr = server.local_addr();
    println!("serving on {addr} ({} probe queries)", queries.len());

    // One request at a time: each finds nothing queued and a slot free, so
    // the handler that read it executes it — no hand-off, no wait.
    let mut client = ServeClient::connect(addr).expect("connect");
    let t = Instant::now();
    for q in &queries {
        let req = SearchRequest::new(q.clone(), k);
        let served = client.search(&req).expect("serve");
        assert_eq!(served, climber.search(&req), "served outcome diverged");
    }
    let secs = t.elapsed().as_secs_f64();
    let stats = server.stats();
    assert_eq!(
        stats.queue_wait_p50_us, 0,
        "sequential traffic waited in the queue"
    );
    println!(
        "one client, {} sequential queries in {:.3}s ({:.1} QPS), none of them queued",
        queries.len(),
        secs,
        queries.len() as f64 / secs
    );

    let t = Instant::now();
    let handles: Vec<_> = queries
        .into_iter()
        .map(|q| {
            thread::spawn(move || {
                let mut client = ServeClient::connect(addr).expect("connect");
                let req = SearchRequest::new(q, k);
                let outcome = client.search(&req).expect("serve");
                (req, outcome)
            })
        })
        .collect();
    let answered: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    let secs = t.elapsed().as_secs_f64();

    // The serving guarantee: a served outcome is bit-identical to a direct
    // search on the same handle.
    for (req, served) in &answered {
        assert_eq!(served, &climber.search(req), "served outcome diverged");
    }
    println!(
        "{} concurrent clients served in {:.3}s ({:.1} QPS), all bit-identical to direct search",
        answered.len(),
        secs,
        answered.len() as f64 / secs
    );

    let stats = server.stats();
    println!(
        "stats: admitted={} completed={} rejected={} batches={} mean_batch={:.2} \
         queue_wait_p50={}us p50={}us p95={}us p99={}us",
        stats.admitted,
        stats.completed,
        stats.rejected,
        stats.batches,
        stats.mean_batch,
        stats.queue_wait_p50_us,
        stats.p50_us,
        stats.p95_us,
        stats.p99_us
    );
    // The books: every admitted request was answered, none was refused.
    assert_eq!(stats.admitted, stats.completed + stats.internal);
    assert_eq!((stats.rejected, stats.internal), (0, 0));
    server.shutdown();
    println!("OK: drain-clean shutdown");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1) {
        Some(dir) => {
            // Serve a persisted index: validated cold start, then sockets.
            let t = Instant::now();
            let climber = Climber::open(Path::new(dir)).expect("open persisted index");
            println!("cold-opened {dir} in {:.3}s", t.elapsed().as_secs_f64());
            serve(Arc::new(climber));
        }
        None => {
            // Self-contained demo on an in-memory index.
            let n = 3_000;
            let data = Domain::RandomWalk.generate(n, 42);
            let config = ClimberConfig::default()
                .with_paa_segments(16)
                .with_pivots(64)
                .with_prefix_len(6)
                .with_capacity(200)
                .with_alpha(0.3)
                .with_seed(7);
            let climber = Arc::new(Climber::build_in_memory(&data, config));
            println!("built an in-memory index over {n} series");
            serve(climber);
        }
    }
}
