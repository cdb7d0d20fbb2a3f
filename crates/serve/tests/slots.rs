//! Execution slots over real sockets: which thread runs a request, the
//! bound on executions in flight, exactly one reply per request under
//! overload and deadlines, and a shutdown that leaves no handler behind.

mod common;

use climber_core::{ClimberError, SearchRequest, ServeError};
use climber_serve::{ServeClient, ServeConfig, Server};
use common::{build_climber, no_retries, queries_of, wait_until, Gated, PanicsOnPoison, POISON_K};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

const CONN: &str = "climber-serve-conn";
const WORKER_0: &str = "climber-serve-worker-0";

#[test]
fn a_request_alone_runs_on_its_connection_thread() {
    let climber = build_climber(300, 83);
    let recorder = Gated::opened(Arc::clone(&climber));
    let server =
        Server::start(Arc::clone(&recorder), "127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    let queries = queries_of(&climber, 5);
    for q in &queries {
        let req = SearchRequest::new(q.clone(), 5);
        assert_eq!(client.search(&req).unwrap(), climber.search(&req));
    }
    // Sequential requests on an idle server never meet a taken slot or a
    // queued request: each is a batch of one on the thread that read it.
    assert_eq!(recorder.threads(), [CONN; 5]);
    let stats = server.stats();
    assert_eq!((stats.admitted, stats.completed, stats.internal), (5, 5, 0));
    assert_eq!((stats.batches, stats.mean_batch), (5, 1.0));
    assert_eq!((stats.queue_wait_p50_us, stats.queue_wait_p95_us), (0, 0));
    server.shutdown();
}

#[test]
fn requests_behind_a_taken_slot_run_on_a_worker_as_one_batch() {
    const N: usize = 6;
    let climber = build_climber(300, 89);
    let gated = Gated::new(Arc::clone(&climber));
    let server = Server::start(
        Arc::clone(&gated),
        "127.0.0.1:0",
        ServeConfig::default().with_workers(1),
    )
    .unwrap();
    let addr = server.local_addr();
    let mut queries = queries_of(&climber, N + 1).into_iter();
    let search = move |q: Vec<f32>| {
        thread::spawn(move || {
            let mut client = ServeClient::connect(addr).unwrap();
            let req = SearchRequest::new(q, 6);
            let outcome = client.search(&req).unwrap();
            (req, outcome)
        })
    };
    // The first request takes the only slot on its own handler ...
    let first = search(queries.next().unwrap());
    gated.wait_until_holding_one();
    // ... so the rest queue up behind it and leave with the worker.
    let rest: Vec<_> = queries.map(search).collect();
    wait_until("the rest are queued", || {
        server.stats().queue_depth == N as u64
    });
    gated.open();
    for h in std::iter::once(first).chain(rest) {
        let (req, served) = h.join().unwrap();
        assert_eq!(served, climber.search(&req), "diverged for {req:?}");
    }
    assert_eq!(gated.batches(), [1, N]);
    assert_eq!(gated.threads(), [CONN, WORKER_0]);
    assert_eq!(gated.peak_in_flight(), 1);
    server.shutdown();
}

#[test]
fn a_server_with_a_deadline_runs_every_request_on_a_worker() {
    let climber = build_climber(300, 97);
    let recorder = Gated::opened(Arc::clone(&climber));
    let server = Server::start(
        Arc::clone(&recorder),
        "127.0.0.1:0",
        ServeConfig::default()
            .with_workers(1)
            .with_request_deadline(Some(Duration::from_secs(20))),
    )
    .unwrap();
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    for q in queries_of(&climber, 4) {
        let req = SearchRequest::new(q, 5);
        assert_eq!(client.search(&req).unwrap(), climber.search(&req));
    }
    // The handler has to stay free to answer at the deadline, so even an
    // idle server hands the request over.
    assert_eq!(recorder.threads(), [WORKER_0; 4]);
    server.shutdown();
}

/// A handler's own execution is isolated like a worker's batch: the panic
/// is answered `Internal`, the slot comes back, the connection lives.
#[test]
fn a_panic_on_the_connection_thread_costs_one_reply_and_no_slot() {
    let climber = build_climber(200, 101);
    let server = Server::start(
        Arc::new(PanicsOnPoison(Arc::clone(&climber))),
        "127.0.0.1:0",
        ServeConfig::default().with_workers(1),
    )
    .unwrap();
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    let q = queries_of(&climber, 1).remove(0);
    let err = client
        .search(&SearchRequest::new(q.clone(), POISON_K))
        .unwrap_err();
    assert!(
        matches!(err, ClimberError::Serve(ServeError::Internal)),
        "{err:?}"
    );
    // the only slot is free again, on the same connection
    let good = SearchRequest::new(q, 3);
    assert_eq!(client.search(&good).unwrap(), climber.search(&good));
    let stats = server.stats();
    assert_eq!((stats.admitted, stats.completed, stats.internal), (2, 1, 1));
    assert_eq!(stats.batches, 2);
    server.shutdown();
}

/// Handlers used to leave their loop only on *client* EOF, and were not
/// joined: every connected-but-idle client kept a handler — and the index
/// it holds — alive past `shutdown()`.
#[test]
fn shutdown_ends_idle_connections_and_releases_the_backend() {
    let climber = build_climber(250, 103);
    let gated = Gated::new(Arc::clone(&climber));
    let server = Server::start(
        Arc::clone(&gated),
        "127.0.0.1:0",
        ServeConfig::default().with_workers(1),
    )
    .unwrap();
    let addr = server.local_addr();
    // One client that has been served and now just stays connected ...
    let mut idle = ServeClient::connect(addr)
        .unwrap()
        .with_retry_policy(no_retries());
    idle.ping().unwrap();
    // ... and one whose request is executing (on its handler, held in the
    // gate) when `shutdown` is called.
    let req = SearchRequest::new(queries_of(&climber, 1).remove(0), 4);
    let in_flight = {
        let req = req.clone();
        thread::spawn(move || {
            let mut client = ServeClient::connect(addr)
                .unwrap()
                .with_retry_policy(no_retries());
            client.search(&req)
        })
    };
    gated.wait_until_holding_one();
    let t = Instant::now();
    let stopping = {
        let gated = Arc::clone(&gated);
        thread::spawn(move || {
            // `shutdown` must still be waiting for the held execution
            thread::sleep(Duration::from_millis(50));
            gated.open();
        })
    };
    server.shutdown();
    assert!(
        t.elapsed() >= Duration::from_millis(50),
        "shutdown returned with an execution in flight"
    );
    stopping.join().unwrap();
    // `shutdown` joined every handler, so none still holds the backend
    // (the gate-opening thread held the only other clone until joined).
    assert_eq!(Arc::strong_count(&gated), 1);
    assert_eq!(
        in_flight.join().unwrap().unwrap(),
        climber.search(&req),
        "the in-flight request lost its outcome"
    );
    // Both handlers hold an `Arc` of the backend; with the server gone the
    // test's own handle is the only one left — while `idle` is connected.
    wait_until("every handler let go of the backend", || {
        Arc::strong_count(&gated) == 1
    });
    drop(gated);
    assert_eq!(Arc::strong_count(&climber), 1);
    // The idle client finds its connection closed, not a hung server.
    let err = idle.ping().unwrap_err();
    assert!(
        matches!(
            err,
            ClimberError::Io(_) | ClimberError::Serve(ServeError::Protocol(_))
        ),
        "{err:?}"
    );
}

/// What one soak client saw, by kind of reply.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    outcomes: u64,
    overloaded: u64,
    deadline_exceeded: u64,
    shutting_down: u64,
}

/// More clients than slots against a queue of two, over a gate that opens
/// and closes at random, ending in a shutdown under traffic: every request
/// gets exactly one reply of a known kind, every admitted request executes
/// exactly once, and never more than `SLOTS` at a time.
fn soak(deadline: Option<Duration>) {
    const SLOTS: usize = 2;
    const CLIENTS: usize = 8;
    let climber = build_climber(300, 107);
    let gated = Gated::opened(Arc::clone(&climber));
    let server = Server::start(
        Arc::clone(&gated),
        "127.0.0.1:0",
        ServeConfig::default()
            .with_workers(SLOTS)
            .with_queue_cap(2)
            .with_request_deadline(deadline),
    )
    .unwrap();
    let addr = server.local_addr();
    let queries = Arc::new(queries_of(&climber, 16));
    let stopping = Arc::new(AtomicBool::new(false));
    let done = Arc::new(AtomicBool::new(false));

    let toggler = {
        let (gated, done) = (Arc::clone(&gated), Arc::clone(&done));
        thread::spawn(move || {
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            while !done.load(Ordering::SeqCst) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if x & 1 == 0 {
                    gated.open();
                } else {
                    gated.close();
                }
                thread::sleep(Duration::from_micros(x >> 53));
            }
            gated.open();
        })
    };
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let (queries, climber) = (Arc::clone(&queries), Arc::clone(&climber));
            let stopping = Arc::clone(&stopping);
            thread::spawn(move || {
                let mut client = ServeClient::connect(addr)
                    .unwrap()
                    .with_retry_policy(no_retries());
                let mut tally = Tally::default();
                for r in 0.. {
                    let q = queries[(c + r) % queries.len()].clone();
                    let req = SearchRequest::new(q, 1 + (c + r) % 9);
                    match client.search(&req) {
                        Ok(served) => {
                            assert_eq!(served, climber.search(&req), "wrong reply: {req:?}");
                            tally.outcomes += 1;
                        }
                        Err(ClimberError::Serve(ServeError::Overloaded)) => tally.overloaded += 1,
                        Err(ClimberError::Serve(ServeError::DeadlineExceeded)) => {
                            tally.deadline_exceeded += 1;
                        }
                        Err(ClimberError::Serve(ServeError::ShuttingDown)) => {
                            tally.shutting_down += 1;
                            break;
                        }
                        // the drained server closed this connection
                        Err(ClimberError::Io(_) | ClimberError::Serve(ServeError::Protocol(_)))
                            if stopping.load(Ordering::SeqCst) =>
                        {
                            break;
                        }
                        Err(other) => panic!("request {r} of client {c}: {other:?}"),
                    }
                }
                tally
            })
        })
        .collect();

    // The books, read while traffic is still running: nothing can be
    // missing from them that a later reply would have to make up for.
    wait_until("traffic flowed", || server.stats().completed >= 500);
    stopping.store(true, Ordering::SeqCst);
    server.shutdown();
    done.store(true, Ordering::SeqCst);
    toggler.join().unwrap();
    let mut total = Tally::default();
    for h in clients {
        let t = h.join().expect("a soak client failed");
        total.outcomes += t.outcomes;
        total.overloaded += t.overloaded;
        total.deadline_exceeded += t.deadline_exceeded;
        total.shutting_down += t.shutting_down;
    }
    // Every admitted request was executed exactly once — by a handler or in
    // a worker's batch, before or during the drain — and was answered
    // exactly once: with its outcome, or with the deadline it missed.
    let executed: usize = gated.batches().iter().sum();
    assert_eq!(
        executed as u64,
        total.outcomes + total.deadline_exceeded,
        "{total:?}"
    );
    assert!(
        gated.peak_in_flight() <= SLOTS,
        "{}",
        gated.peak_in_flight()
    );
    assert!(total.outcomes > 0, "{total:?}");
    assert!(total.overloaded > 0, "the queue never filled: {total:?}");
    match deadline {
        None => {
            assert_eq!(total.deadline_exceeded, 0);
            let threads = gated.threads();
            for path in ["climber-serve-conn", "climber-serve-worker-"] {
                assert!(
                    threads.iter().any(|t| t.starts_with(path)),
                    "nothing ran on {path}"
                );
            }
        }
        Some(_) => assert!(
            gated
                .threads()
                .iter()
                .all(|t| t.starts_with("climber-serve-worker-")),
            "a handler executed under a deadline"
        ),
    }
}

#[test]
fn soak_without_a_deadline_interleaves_both_paths() {
    soak(None);
}

#[test]
fn soak_with_a_deadline_stays_on_the_queue_path() {
    soak(Some(Duration::from_millis(2)));
}

#[test]
fn the_books_balance_once_the_queue_has_drained() {
    const CLIENTS: usize = 6;
    const REQUESTS: usize = 40;
    let climber = build_climber(300, 109);
    let gated = Gated::opened(Arc::clone(&climber));
    let server = Server::start(
        Arc::clone(&gated),
        "127.0.0.1:0",
        ServeConfig::default()
            .with_workers(2)
            .with_queue_cap(2)
            .with_request_deadline(Some(Duration::from_millis(2))),
    )
    .unwrap();
    let addr = server.local_addr();
    let query = queries_of(&climber, 1).remove(0);
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let (gated, query) = (Arc::clone(&gated), query.clone());
            thread::spawn(move || {
                let mut client = ServeClient::connect(addr)
                    .unwrap()
                    .with_retry_policy(no_retries());
                let (mut overloaded, mut missed) = (0u64, 0u64);
                for r in 0..REQUESTS {
                    // one client holds the gate shut now and then, long
                    // enough for deadlines to pass and the queue to fill
                    if c == 0 && r % 10 == 5 {
                        gated.close();
                        thread::sleep(Duration::from_millis(6));
                        gated.open();
                    }
                    match client.search(&SearchRequest::new(query.clone(), 3)) {
                        Ok(_) => {}
                        Err(ClimberError::Serve(ServeError::Overloaded)) => overloaded += 1,
                        Err(ClimberError::Serve(ServeError::DeadlineExceeded)) => missed += 1,
                        Err(other) => panic!("{other:?}"),
                    }
                }
                (overloaded, missed)
            })
        })
        .collect();
    let (mut overloaded, mut missed) = (0, 0);
    for h in clients {
        let (o, m) = h.join().unwrap();
        overloaded += o;
        missed += m;
    }
    // replies abandoned at their deadline still execute; wait them out
    wait_until("admitted == completed + internal", || {
        let s = server.stats();
        s.queue_depth == 0 && s.admitted == s.completed + s.internal
    });
    let stats = server.stats();
    assert_eq!(stats.internal, 0);
    assert_eq!(stats.rejected, overloaded);
    assert_eq!(stats.deadline_missed, missed);
    assert_eq!(
        stats.admitted + stats.rejected,
        (CLIENTS * REQUESTS) as u64,
        "a request was neither admitted nor refused"
    );
    server.shutdown();
}

/// Two header bytes, then silence: the connection is cut at the configured
/// `read_timeout`, and meanwhile it holds nothing but its own thread — the
/// server's only slot keeps serving other clients.
#[test]
fn a_half_frame_client_is_disconnected_and_never_holds_a_slot() {
    let climber = build_climber(200, 113);
    let recorder = Gated::opened(Arc::clone(&climber));
    let server = Server::start(
        Arc::clone(&recorder),
        "127.0.0.1:0",
        ServeConfig::default()
            .with_workers(1)
            .with_read_timeout(Some(Duration::from_millis(300))),
    )
    .unwrap();
    let mut stalled = TcpStream::connect(server.local_addr()).unwrap();
    stalled.write_all(&[0x10, 0x00]).unwrap();
    // while it stalls, the only slot is free for a well-behaved client
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    let req = SearchRequest::new(queries_of(&climber, 1).remove(0), 3);
    assert_eq!(client.search(&req).unwrap(), climber.search(&req));
    assert_eq!(recorder.threads(), ["climber-serve-conn"]);
    // the stalled one is answered (best effort) and cut, not kept
    stalled
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let mut rest = Vec::new();
    stalled
        .read_to_end(&mut rest)
        .expect("the server never hung up");
    let stats = server.stats();
    assert_eq!((stats.admitted, stats.completed, stats.rejected), (1, 1, 0));
    server.shutdown();
}
