//! End-to-end serving tests over real sockets: work-conserving
//! micro-batching, backpressure, clean shutdown, and the server/direct
//! equivalence guarantee.

mod common;

use climber_core::{ClimberError, SearchRequest, ServeError};
use climber_serve::{ServeClient, ServeConfig, Server};
use common::{build_climber, no_retries, poll_until, queries_of, wait_until, Gated};
use std::sync::Arc;
use std::thread;

#[test]
fn served_outcomes_are_bit_identical_to_direct_search() {
    let climber = build_climber(400, 11);
    let server =
        Server::start(Arc::clone(&climber), "127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.local_addr();

    // N concurrent clients, each issuing its own request, so whatever
    // cross-connection batches form are compared too.
    let queries = queries_of(&climber, 12);
    let handles: Vec<_> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let q = q.clone();
            thread::spawn(move || {
                let mut client = ServeClient::connect(addr).unwrap();
                let req = match i % 3 {
                    0 => SearchRequest::new(q, 10),
                    1 => SearchRequest::new(q, 5).exact(),
                    _ => SearchRequest::new(q, 20).adaptive(2).with_budget(4),
                };
                let outcome = client.search(&req).unwrap();
                (req, outcome)
            })
        })
        .collect();
    for h in handles {
        let (req, served) = h.join().unwrap();
        let direct = climber.search(&req);
        assert_eq!(served, direct, "served outcome diverged for {req:?}");
    }

    let stats = server.stats();
    assert_eq!(
        (stats.admitted, stats.completed, stats.internal),
        (12, 12, 0)
    );
    assert!(stats.p50_us > 0);
    server.shutdown();
}

#[test]
fn micro_batches_coalesce_concurrent_clients() {
    let climber = build_climber(300, 13);
    // One worker, held in the gate by whichever request reaches it first:
    // the other clients' requests pile up in the queue and must leave it
    // as multi-request batches.
    let gated = Gated::new(Arc::clone(&climber));
    let server = Server::start(
        Arc::clone(&gated),
        "127.0.0.1:0",
        ServeConfig::default().with_workers(1),
    )
    .unwrap();
    let addr = server.local_addr();
    let queries = queries_of(&climber, 10);
    let handles: Vec<_> = queries
        .into_iter()
        .map(|q| {
            thread::spawn(move || {
                let mut client = ServeClient::connect(addr).unwrap();
                client.search(&SearchRequest::new(q, 5)).unwrap()
            })
        })
        .collect();
    wait_until("all ten admitted", || server.stats().admitted == 10);
    gated.open();
    for h in handles {
        h.join().unwrap();
    }
    let stats = server.stats();
    assert_eq!(
        (stats.admitted, stats.completed, stats.internal),
        (10, 10, 0)
    );
    assert!(
        stats.mean_batch > 1.0,
        "no coalescing: mean batch occupancy {}",
        stats.mean_batch
    );
    server.shutdown();
}

#[test]
fn batches_form_from_worker_busy_time() {
    const N: usize = 8;
    let climber = build_climber(300, 47);
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
    // One request alone reaches the idle worker: a batch of one, at once.
    let first = search(queries.next().unwrap());
    gated.wait_until_holding_one();
    // N more arrive while the only worker is busy: they wait together...
    let rest: Vec<_> = queries.map(search).collect();
    wait_until("the rest are queued", || {
        server.stats().queue_depth == N as u64
    });
    // ... and leave together, as one batch, the moment it is free.
    gated.open();
    for h in std::iter::once(first).chain(rest) {
        let (req, served) = h.join().unwrap();
        assert_eq!(served, climber.search(&req), "diverged for {req:?}");
    }
    assert_eq!(gated.batches(), [1, N]);
    let stats = server.stats();
    assert_eq!(stats.batches, 2);
    let total = N as u64 + 1;
    assert_eq!(
        (stats.admitted, stats.completed, stats.internal),
        (total, total, 0)
    );
    server.shutdown();
}

#[test]
fn an_idle_server_adds_no_queueing_floor() {
    let climber = build_climber(300, 53);
    let server =
        Server::start(Arc::clone(&climber), "127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    let queries = queries_of(&climber, 10);
    for i in 0..200 {
        let req = SearchRequest::new(queries[i % queries.len()].clone(), 5);
        client.search(&req).unwrap();
    }
    // One closed-loop client never finds the workers busy, so a request
    // waits only for a worker to wake: microseconds, not a batching timer.
    let stats = client.stats().unwrap();
    assert_eq!(
        (stats.admitted, stats.completed, stats.internal),
        (200, 200, 0)
    );
    assert!(
        stats.queue_wait_p50_us < 1_000,
        "median queue wait {} us on an idle server",
        stats.queue_wait_p50_us
    );
    assert!(stats.queue_wait_p50_us <= stats.p50_us);
    server.shutdown();
}

#[test]
fn every_admitted_request_gets_exactly_one_reply() {
    const CLIENTS: usize = 64;
    const REQUESTS: usize = 20;
    let climber = build_climber(400, 59);
    let server = Server::start(
        Arc::clone(&climber),
        "127.0.0.1:0",
        ServeConfig::default().with_workers(2),
    )
    .unwrap();
    let addr = server.local_addr();
    let queries = Arc::new(queries_of(&climber, 16));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let queries = Arc::clone(&queries);
            thread::spawn(move || {
                let mut client = ServeClient::connect(addr).unwrap();
                // (query, k) differs between clients in flight together, so
                // a reply delivered to the wrong connection cannot match.
                (0..REQUESTS)
                    .map(|r| {
                        let q = queries[(c + r) % queries.len()].clone();
                        let req = SearchRequest::new(q, 1 + (c * REQUESTS + r) % 9);
                        let outcome = client.search(&req).unwrap();
                        (req, outcome)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    for h in handles {
        for (req, served) in h.join().unwrap() {
            assert_eq!(served, climber.search(&req), "wrong reply for {req:?}");
        }
    }
    let stats = server.stats();
    let total = (CLIENTS * REQUESTS) as u64;
    assert_eq!(
        (stats.admitted, stats.completed, stats.internal),
        (total, total, 0)
    );
    assert_eq!((stats.rejected, stats.queue_depth), (0, 0));
    server.shutdown();
}

#[test]
fn bad_requests_get_a_typed_response_not_a_dead_connection() {
    let climber = build_climber(200, 17);
    let server =
        Server::start(Arc::clone(&climber), "127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = ServeClient::connect(server.local_addr()).unwrap();

    let err = client
        .search(&SearchRequest::new(vec![1.0f32], 0))
        .unwrap_err();
    assert!(
        matches!(err, ClimberError::Serve(ServeError::BadRequest(_))),
        "{err:?}"
    );
    // the connection survives and serves a valid follow-up
    let q = queries_of(&climber, 1).remove(0);
    let ok = client.search(&SearchRequest::new(q, 3)).unwrap();
    assert_eq!(ok.results.len(), 3);
    let stats = server.stats();
    assert_eq!(stats.rejected, 1);
    assert_eq!((stats.admitted, stats.completed, stats.internal), (1, 1, 0));
    server.shutdown();
}

/// A query holding a NaN (either sign) or an infinity is a bad request,
/// answered before admission: it never reaches the executor, where it
/// would panic the batch into `Internal`.
#[test]
fn a_non_finite_query_is_a_bad_request_not_an_internal_error() {
    let climber = build_climber(200, 19);
    let server =
        Server::start(Arc::clone(&climber), "127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    let q = queries_of(&climber, 1).remove(0);
    let bad_values = [f32::NAN, f32::from_bits(0xFFC0_0000), f32::INFINITY];
    for (i, bad) in bad_values.into_iter().enumerate() {
        let mut query = q.clone();
        query[i * 7] = bad;
        for req in [
            SearchRequest::new(query.clone(), 5),
            SearchRequest::new(query, 5).adaptive(4),
        ] {
            let err = client.search(&req).unwrap_err();
            assert!(
                matches!(&err, ClimberError::Serve(ServeError::BadRequest(m)) if m.contains("finite")),
                "{req:?}: {err:?}"
            );
        }
    }
    let ok = client.search(&SearchRequest::new(q, 3)).unwrap();
    assert_eq!(ok.results.len(), 3);
    let stats = server.stats();
    assert_eq!(stats.rejected, 6);
    assert_eq!((stats.admitted, stats.completed, stats.internal), (1, 1, 0));
    server.shutdown();
}

#[test]
fn overload_rejects_with_backpressure_instead_of_hanging() {
    let climber = build_climber(200, 19);
    // A tiny queue behind one worker that is held in the gate: nothing
    // drains, so submissions accumulate and the bound must trip.
    let gated = Gated::new(Arc::clone(&climber));
    let server = Server::start(
        Arc::clone(&gated),
        "127.0.0.1:0",
        ServeConfig::default().with_workers(1).with_queue_cap(2),
    )
    .unwrap();
    let addr = server.local_addr();
    let q = queries_of(&climber, 1).remove(0);
    let park = || {
        let q = q.clone();
        thread::spawn(move || {
            let mut c = ServeClient::connect(addr).unwrap();
            c.search(&SearchRequest::new(q, 3)).map(|o| o.results.len())
        })
    };
    // One request occupies the worker, two more fill the queue...
    let mut parked = vec![park()];
    gated.wait_until_holding_one();
    parked.extend([park(), park()]);
    wait_until("the queue is full", || server.stats().queue_depth == 2);
    // ... so the next is refused with the typed overload response while
    // the worker is still held: the refusal waited for nothing.
    let mut c = ServeClient::connect(addr).unwrap();
    let err = c.search(&SearchRequest::new(q.clone(), 3)).unwrap_err();
    assert!(
        matches!(err, ClimberError::Serve(ServeError::Overloaded)),
        "{err:?}"
    );
    assert_eq!(gated.batches(), [1], "refused while nothing could drain");
    // the parked requests are still answered once the worker is released
    gated.open();
    for h in parked {
        assert_eq!(h.join().unwrap().unwrap(), 3);
    }
    let stats = server.stats();
    assert_eq!((stats.admitted, stats.completed, stats.internal), (3, 3, 0));
    assert_eq!(stats.rejected, 1);
    server.shutdown();
}

#[test]
fn shutdown_drains_in_flight_requests() {
    const QUEUED: usize = 5;
    let climber = build_climber(250, 23);
    // One worker held in the gate with one request, and a queue exactly as
    // deep as the requests parked behind it.
    let gated = Gated::new(Arc::clone(&climber));
    let server = Server::start(
        Arc::clone(&gated),
        "127.0.0.1:0",
        ServeConfig::default()
            .with_workers(1)
            .with_queue_cap(QUEUED),
    )
    .unwrap();
    let addr = server.local_addr();
    let mut queries = queries_of(&climber, QUEUED + 2).into_iter();
    let search = move |q: Vec<f32>| {
        thread::spawn(move || {
            let mut c = ServeClient::connect(addr).unwrap();
            c.search(&SearchRequest::new(q, 4)).map(|o| o.results.len())
        })
    };
    let mut handles = vec![search(queries.next().unwrap())];
    gated.wait_until_holding_one();
    let probe_query = queries.next().unwrap();
    handles.extend(queries.map(search));
    wait_until("the rest are queued", || {
        server.stats().queue_depth == QUEUED as u64
    });
    // The worker must stay held until the drain has begun, or the queue
    // would simply empty first. A probe on a connection opened beforehand
    // tells the two apart: the full queue refuses it as `Overloaded` until
    // shutdown flips the queue to draining, then as `ShuttingDown`.
    let mut probe = ServeClient::connect(addr)
        .unwrap()
        .with_retry_policy(no_retries());
    probe.ping().unwrap();
    let opener = {
        let gated = Arc::clone(&gated);
        thread::spawn(move || {
            let saw_draining = poll_until(|| {
                let err = probe
                    .search(&SearchRequest::new(probe_query.clone(), 4))
                    .unwrap_err();
                matches!(err, ClimberError::Serve(ServeError::ShuttingDown))
            });
            let held = gated.batches();
            // opened whatever was seen, or a failure here would leave
            // `shutdown` joining a worker nobody releases
            gated.open();
            (saw_draining, held)
        })
    };
    // Shutdown joins the worker, so it returns only after the held request
    // and the queued ones were executed and answered.
    server.shutdown();
    let (saw_draining, held) = opener.join().unwrap();
    assert!(saw_draining, "the queue never refused as shutting down");
    assert_eq!(held, [1], "nothing drained before shutdown");
    for h in handles {
        assert_eq!(h.join().unwrap().unwrap(), 4, "in-flight request dropped");
    }
    assert_eq!(gated.batches(), [1, QUEUED], "the drain is one batch");
}

#[test]
fn ping_and_stats_endpoints_respond() {
    let climber = build_climber(200, 29);
    let server =
        Server::start(Arc::clone(&climber), "127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    client.ping().unwrap();
    let q = queries_of(&climber, 1).remove(0);
    client.search(&SearchRequest::new(q, 2)).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!((stats.admitted, stats.completed, stats.internal), (1, 1, 0));
    assert!(stats.uptime_us > 0);
    assert!(stats.qps > 0.0);
    server.shutdown();
}
