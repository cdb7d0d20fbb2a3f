//! Serving-layer resilience over real sockets: per-request deadlines,
//! panic isolation in the worker, the health endpoint (healthy and
//! degraded), client reconnect across a server restart, and socket
//! timeouts against a stalled server.

mod common;

use climber_core::{Climber, ClimberError, OpenOptions, RecoveryPolicy, SearchRequest, ServeError};
use climber_dfs::store::partition_file_name;
use climber_serve::{RetryPolicy, ServeClient, ServeConfig, Server};
use common::{build_climber, no_retries, wait_until, Gated, PanicsOnPoison, POISON_K};
use std::fs;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

fn probe_query(climber: &Climber) -> Vec<f32> {
    probe_query_from(climber, 0)
}

/// A record pulled from the index's `nth` partition, used as a query that
/// is guaranteed to have an exact-match neighbour *in that partition*.
fn probe_query_from(climber: &Climber, nth: usize) -> Vec<f32> {
    use climber_core::dfs::store::PartitionStore;
    let ids = climber.store().ids();
    let pid = ids[nth.min(ids.len() - 1)];
    let reader = climber.store().open(pid).unwrap();
    let mut q = Vec::new();
    reader.for_each(|_, vals| {
        if q.is_empty() {
            q = vals.to_vec();
        }
    });
    q
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("climber-resil-{tag}-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn request_deadline_answers_typed_without_waiting_for_the_batch() {
    let climber = build_climber(200, 31);
    // The only worker takes the request and is held in the gate; the
    // per-request deadline must answer while the batch is still running.
    let gated = Gated::new(Arc::clone(&climber));
    let server = Server::start(
        Arc::clone(&gated),
        "127.0.0.1:0",
        ServeConfig::default()
            .with_workers(1)
            .with_request_deadline(Some(Duration::from_millis(100))),
    )
    .unwrap();
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    let q = probe_query(&climber);
    let err = client
        .search(&SearchRequest::new(q.clone(), 3))
        .unwrap_err();
    assert!(
        matches!(err, ClimberError::Serve(ServeError::DeadlineExceeded)),
        "{err:?}"
    );
    // The typed miss is counted and the connection survives.
    let stats = client.stats().unwrap();
    assert_eq!((stats.deadline_missed, stats.completed), (1, 0));
    // Only the reply was abandoned: released, the worker still executes
    // the request, so the books balance.
    gated.open();
    wait_until("the abandoned request completes", || {
        server.stats().completed == 1
    });
    let stats = server.stats();
    assert_eq!((stats.admitted, stats.internal), (1, 0));
    server.shutdown();
}

/// A panicking `search_many` used to kill its worker thread for good; with
/// one worker, every later request parked forever. The panic is now caught
/// per batch: typed `Internal` for that batch, the worker keeps serving.
#[test]
fn a_panicking_backend_call_costs_one_batch_not_the_worker() {
    let climber = build_climber(200, 61);
    let server = Server::start(
        Arc::new(PanicsOnPoison(Arc::clone(&climber))),
        "127.0.0.1:0",
        ServeConfig::default()
            .with_workers(1)
            .with_request_deadline(Some(Duration::from_secs(20))),
    )
    .unwrap();
    // Default retry policy: a typed `Internal` must not be replayed.
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    let q = probe_query(&climber);
    let err = client
        .search(&SearchRequest::new(q.clone(), POISON_K))
        .unwrap_err();
    assert!(
        matches!(err, ClimberError::Serve(ServeError::Internal)),
        "{err:?}"
    );
    // The same connection, server and (only) worker still serve.
    let good = SearchRequest::new(q, 3);
    assert_eq!(client.search(&good).unwrap(), climber.search(&good));
    let stats = server.stats();
    assert_eq!((stats.admitted, stats.completed, stats.internal), (2, 1, 1));
    server.shutdown();
}

#[test]
fn health_endpoint_reports_a_healthy_backend() {
    let climber = build_climber(200, 37);
    let server =
        Server::start(Arc::clone(&climber), "127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    let health = client.health().unwrap();
    assert!(health.is_healthy());
    assert_eq!(health.backend.shards, 1);
    assert_eq!(health.backend.dead_shards, 0);
    assert_eq!(health.backend.quarantined_partitions, 0);
    server.shutdown();
}

#[test]
fn degraded_open_serves_and_reports_quarantine_over_the_wire() {
    let climber = build_climber(300, 41);
    let dir = temp_dir("degraded");
    climber.save(&dir).unwrap();
    // Corrupt one committed partition, then open self-healing: the damage
    // moves to QUARANTINE/ and the index serves what validated.
    let victim = {
        use climber_core::dfs::store::PartitionStore;
        climber.store().ids()[0]
    };
    let path = dir.join(partition_file_name(victim));
    let mut bytes = fs::read(&path).unwrap();
    let at = bytes.len() / 2;
    bytes[at] ^= 0xFF;
    fs::write(&path, &bytes).unwrap();

    let quarantining = OpenOptions {
        writable: true,
        policy: RecoveryPolicy::Quarantine,
        ..OpenOptions::default()
    };
    let (degraded, report) = Climber::open_dir(&dir, &quarantining).unwrap();
    assert_eq!(report.quarantined_partitions, vec![victim]);
    let server = Server::start(Arc::new(degraded), "127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = ServeClient::connect(server.local_addr()).unwrap();

    let health = client.health().unwrap();
    assert!(!health.is_healthy());
    assert_eq!(health.backend.quarantined_partitions, 1);

    // Searches still answer (degraded): results come from the surviving
    // partitions only, so probe a record that lives far from the victim.
    let q = probe_query_from(&climber, usize::MAX);
    let outcome = client.search(&SearchRequest::new(q, 5)).unwrap();
    assert!(!outcome.results.is_empty());
    server.shutdown();
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn client_survives_a_killed_and_restarted_server() {
    let climber = build_climber(250, 43);
    let server =
        Server::start(Arc::clone(&climber), "127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut client = ServeClient::connect(addr)
        .unwrap()
        .with_retry_policy(RetryPolicy {
            max_retries: 8,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(200),
        });

    let q = probe_query(&climber);
    let req = SearchRequest::new(q, 5);
    let before = client.search(&req).unwrap();

    // Kill the server. The client's TCP stream is now dead.
    server.shutdown();
    // Restart on the same port (std sets SO_REUSEADDR on Unix listeners,
    // so the lingering TIME_WAIT sockets don't block the rebind).
    let server2 = {
        let mut last = None;
        let mut restarted = None;
        for _ in 0..50 {
            match Server::start(Arc::clone(&climber), addr, ServeConfig::default()) {
                Ok(s) => {
                    restarted = Some(s);
                    break;
                }
                Err(e) => {
                    last = Some(e);
                    thread::sleep(Duration::from_millis(20));
                }
            }
        }
        restarted.unwrap_or_else(|| panic!("could not rebind {addr}: {last:?}"))
    };

    // The same client object reconnects under the hood and replays the
    // read-only request: identical answer, no duplicated work observed.
    let after = client.search(&req).unwrap();
    assert_eq!(after, before, "reconnected answer diverged");
    assert_eq!(after, climber.search(&req));
    // exactly one search reached the restarted server — the replay did
    // not double-execute a request the client already answered
    let stats = server2.stats();
    assert_eq!((stats.admitted, stats.completed, stats.internal), (1, 1, 0));
    server2.shutdown();
}

#[test]
fn client_read_timeout_bounds_a_stalled_server() {
    // A listener that accepts and then never answers.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let _stall = thread::spawn(move || {
        let conns: Vec<_> = listener.incoming().take(1).collect();
        thread::sleep(Duration::from_secs(20));
        drop(conns);
    });

    let mut client = ServeClient::connect(addr)
        .unwrap()
        .with_retry_policy(no_retries());
    client
        .set_read_timeout(Some(Duration::from_millis(150)))
        .unwrap();
    client
        .set_write_timeout(Some(Duration::from_secs(1)))
        .unwrap();
    let t = Instant::now();
    let err = client.ping().unwrap_err();
    assert!(matches!(err, ClimberError::Io(_)), "{err:?}");
    assert!(
        t.elapsed() < Duration::from_secs(10),
        "read timeout never fired"
    );
}

/// A query whose length is not the indexed one (in a mode that does not
/// resample) used to pass the handler and panic inside a distance kernel
/// on the worker thread; with no worker left, every later client timed
/// out. The handler now runs the executor's own entry check before
/// admission: typed bad request, nothing admitted, the one worker alive.
#[test]
fn wrong_length_queries_are_refused_before_admission() {
    let climber = build_climber(200, 37);
    let indexed = climber.series_len().unwrap();
    let server = Server::start(
        Arc::clone(&climber),
        "127.0.0.1:0",
        ServeConfig::default()
            .with_workers(1)
            .with_request_deadline(Some(Duration::from_secs(20))),
    )
    .unwrap();
    let mut client = ServeClient::connect(server.local_addr())
        .unwrap()
        .with_retry_policy(no_retries());
    let mut refused = 0;
    for len in [3usize, 100] {
        assert_ne!(len, indexed);
        let short = SearchRequest::new(vec![0.25f32; len], 5);
        let modes = [
            short.clone().exact(),
            short.clone().adaptive(4),
            short.clone().smallest(),
        ];
        for req in modes {
            let err = client.search(&req).unwrap_err();
            let ClimberError::Serve(ServeError::BadRequest(msg)) = &err else {
                panic!(
                    "len {len} {:?}: expected a bad request, got {err:?}",
                    req.mode
                );
            };
            assert!(
                msg.contains(&len.to_string()) && msg.contains(&indexed.to_string()),
                "message must name both lengths: {msg}"
            );
            refused += 1;
        }
        // Resampling is the one mode a foreign length is legal in.
        let out = client.search(&short.resampled(2)).unwrap();
        assert_eq!(out.results.len(), 5);
    }
    // The same connection, server and (only) worker still serve.
    let good = SearchRequest::new(probe_query(&climber), 3);
    assert_eq!(client.search(&good).unwrap(), climber.search(&good));
    let stats = server.stats();
    assert_eq!(stats.rejected, refused);
    assert_eq!((stats.admitted, stats.completed, stats.internal), (3, 3, 0));
    server.shutdown();
}

/// A zero partition budget would cut every plan to nothing and answer
/// `[]` for a positive `k`. The handler refuses it as it refuses `k == 0`:
/// a typed bad request, nothing admitted, the one worker alive.
#[test]
fn a_zero_budget_is_a_bad_request() {
    let climber = build_climber(200, 37);
    let server = Server::start(
        Arc::clone(&climber),
        "127.0.0.1:0",
        ServeConfig::default().with_workers(1),
    )
    .unwrap();
    let mut client = ServeClient::connect(server.local_addr())
        .unwrap()
        .with_retry_policy(no_retries());
    let query = SearchRequest::new(probe_query(&climber), 5);
    for req in [query.clone(), query.clone().smallest()] {
        let err = client.search(&req.with_budget(0)).unwrap_err();
        let ClimberError::Serve(ServeError::BadRequest(msg)) = &err else {
            panic!("expected a bad request, got {err:?}");
        };
        assert!(msg.contains("budget must be positive"), "{msg}");
    }
    let good = query.with_budget(1);
    assert_eq!(client.search(&good).unwrap(), climber.search(&good));
    let stats = server.stats();
    assert_eq!(stats.rejected, 2);
    assert_eq!((stats.admitted, stats.completed, stats.internal), (1, 1, 0));
    server.shutdown();
}
