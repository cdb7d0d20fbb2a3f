//! The TCP server: acceptor + per-connection handlers + a worker pool
//! draining the admission queue into the query executor.
//!
//! Threading model:
//!
//! * one **acceptor** thread blocks on `TcpListener::accept` and spawns a
//!   handler per connection;
//! * each **handler** reads frames and validates requests. A request that
//!   finds the [`AdmissionQueue`] empty and an execution slot free is
//!   **executed by the handler itself** and answered from the same thread:
//!   no queue hand-off, no completion channel, no other thread woken.
//!   Anything else is submitted to the queue and the handler writes the
//!   response its completion channel delivers — or the typed error (`bad
//!   request`, `overloaded`, `shutting down`) when the request never made
//!   it in. A server with a `request_deadline` queues every request: its
//!   handler must stay free to answer at the deadline;
//! * **workers** loop on [`AdmissionQueue::next_batch`] and feed each
//!   micro-batch to the backend's [`SearchBackend::search_many`], so
//!   concurrent requests from independent connections share partition
//!   opens and cluster decodes exactly like a hand-built batch would. A
//!   worker takes whatever is queued as soon as a slot is free, so batches
//!   are made of the requests that arrived while every slot was taken.
//!
//! Executions in flight — handlers' and workers' together — never exceed
//! `workers`. Wherever one runs, a backend panic is caught: its requests
//! are answered with a typed [`ServeError::Internal`], the slot is given
//! back and the thread goes on.
//!
//! The server is generic over [`SearchBackend`], so a single
//! [`Climber`](climber_core::Climber) and a
//! [`ShardedClimber`](climber_core::ShardedClimber) serve through the
//! identical wire surface — clients cannot tell (and need not care)
//! whether the index behind the port is sharded.
//!
//! [`shutdown`](Server::shutdown) is drain-clean: the acceptor stops, the
//! queue refuses new work, every admitted request is still executed and
//! answered, every open connection's read half is closed so that its
//! handler — and the backend handle it holds — goes away without waiting
//! for the client to hang up, and every thread the server started,
//! connection handlers included, is joined.

use crate::metrics::{ServeMetrics, StatsReport};
use crate::protocol::{bad_request, error_response, Framed, HealthReport, Request, Response};
use crate::queue::{AdmissionQueue, BatchPolicy, Pending};
use climber_core::{ClimberError, QueryOutcome, SearchBackend, SearchRequest, ServeError};
use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Server tuning knobs (see [`BatchPolicy`] for the queue semantics).
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// A worker takes at most this many requests per batch (default 64).
    pub max_batch: usize,
    /// Admission bound; beyond it submissions are refused (default 1024).
    pub queue_cap: usize,
    /// Executions in flight, and the threads that drain the queue; `0` =
    /// the machine's available parallelism (default).
    pub workers: usize,
    /// Per-request deadline: how long a connection handler waits for the
    /// batch engine before answering with a typed
    /// [`ServeError::DeadlineExceeded`]. `None` (default) waits forever.
    /// The batch still executes server-side; only the response is
    /// abandoned, so read-only searches stay safe to retry.
    pub request_deadline: Option<Duration>,
    /// Socket read timeout on accepted connections: an idle client is
    /// disconnected after this long without a frame. `None` (default)
    /// keeps idle connections open forever.
    pub read_timeout: Option<Duration>,
    /// Socket write timeout on accepted connections, bounding how long a
    /// stalled client can pin a handler thread mid-response (default 30 s).
    pub write_timeout: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_batch: 64,
            queue_cap: 1024,
            workers: 0,
            request_deadline: None,
            read_timeout: None,
            write_timeout: Some(Duration::from_secs(30)),
        }
    }
}

impl ServeConfig {
    /// Sets the micro-batch size cap.
    #[must_use]
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Sets the admission bound.
    #[must_use]
    pub fn with_queue_cap(mut self, queue_cap: usize) -> Self {
        self.queue_cap = queue_cap.max(1);
        self
    }

    /// Sets the execution slots and worker threads (`0` = available
    /// parallelism).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the per-request deadline (`None` = wait forever).
    #[must_use]
    pub fn with_request_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.request_deadline = deadline;
        self
    }

    /// Sets the socket read timeout on accepted connections.
    #[must_use]
    pub fn with_read_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// Sets the socket write timeout on accepted connections.
    #[must_use]
    pub fn with_write_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.write_timeout = timeout;
        self
    }

    fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            thread::available_parallelism().map_or(1, |n| n.get())
        }
    }
}

/// A running serving instance: owns the listener port, the worker pool,
/// and the admission queue. Dropping it (or calling
/// [`shutdown`](Self::shutdown)) drains and joins everything it owns.
pub struct Server {
    local_addr: SocketAddr,
    queue: Arc<AdmissionQueue>,
    metrics: Arc<ServeMetrics>,
    // Probes the backend's serve-phase I/O (block-cache counters included)
    // without the Server being generic over the backend type.
    io_probe: Arc<dyn Fn() -> climber_core::IoSnapshot + Send + Sync>,
    stop: Arc<AtomicBool>,
    connections: Arc<Connections>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// The connection handlers: what [`Server::shutdown`] ends and joins.
type Connections = Mutex<Handlers>;

#[derive(Default)]
struct Handlers {
    /// A clone of every open connection's stream, keyed by accept order:
    /// what `shutdown` closes to end handlers blocked on an idle client. A
    /// handler removes its entry when it exits, so the socket closes then.
    streams: HashMap<u64, TcpStream>,
    /// Every handler not yet joined. The acceptor drops those that have
    /// finished as it accepts; `shutdown` joins the rest.
    threads: Vec<JoinHandle<()>>,
}

/// The registry is only ever inserted into, removed from and iterated, so
/// it is intact even if a thread died holding the lock; `shutdown` also
/// runs from `Drop`, where a panic on poison could abort the process.
fn lock(connections: &Connections) -> MutexGuard<'_, Handlers> {
    connections.lock().unwrap_or_else(PoisonError::into_inner)
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds `addr` (use port 0 for an OS-assigned port) and starts
    /// serving `backend` — any [`SearchBackend`], i.e. a single
    /// [`Climber`](climber_core::Climber) or a whole
    /// [`ShardedClimber`](climber_core::ShardedClimber). The index is
    /// shared, read-only, across workers; updates through other handles
    /// are picked up per batch.
    pub fn start<B>(
        backend: Arc<B>,
        addr: impl ToSocketAddrs,
        config: ServeConfig,
    ) -> Result<Self, ClimberError>
    where
        B: SearchBackend + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let slots = config.resolved_workers();
        let queue = Arc::new(
            AdmissionQueue::new(BatchPolicy {
                max_batch: config.max_batch.max(1),
                queue_cap: config.queue_cap.max(1),
            })
            .with_slots(slots),
        );
        let metrics = Arc::new(ServeMetrics::new());
        let stop = Arc::new(AtomicBool::new(false));
        let connections = Arc::new(Connections::default());

        let workers = (0..slots)
            .map(|i| {
                let queue = Arc::clone(&queue);
                let metrics = Arc::clone(&metrics);
                let backend = Arc::clone(&backend);
                thread::Builder::new()
                    .name(format!("climber-serve-worker-{i}"))
                    .spawn(move || worker_loop(&*backend, &queue, &metrics))
                    .expect("spawn worker")
            })
            .collect();

        let acceptor = {
            let queue = Arc::clone(&queue);
            let metrics = Arc::clone(&metrics);
            let stop = Arc::clone(&stop);
            let connections = Arc::clone(&connections);
            let backend = Arc::clone(&backend);
            thread::Builder::new()
                .name("climber-serve-acceptor".into())
                .spawn(move || {
                    accept_loop(
                        &listener,
                        &backend,
                        &queue,
                        &metrics,
                        &connections,
                        &stop,
                        config,
                    );
                })
                .expect("spawn acceptor")
        };

        let io_probe: Arc<dyn Fn() -> climber_core::IoSnapshot + Send + Sync> = {
            let backend = Arc::clone(&backend);
            Arc::new(move || backend.io())
        };

        Ok(Self {
            local_addr,
            queue,
            metrics,
            io_probe,
            stop,
            connections,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (with the OS-assigned port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A snapshot of the serving metrics, same as the wire stats endpoint
    /// (backend block-cache counters included).
    pub fn stats(&self) -> StatsReport {
        self.metrics
            .report(self.queue.depth() as u64)
            .with_io(&(self.io_probe)())
    }

    /// Stops accepting, drains every admitted request, tells every open
    /// connection to end, and returns once every thread the server started
    /// — connection handlers included — is joined. In-flight requests are
    /// answered (a handler writing to a client that reads nothing holds
    /// this up to the write timeout); requests submitted after this point
    /// get a typed shutting-down response, or find the connection closed.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // The acceptor blocks in accept(); a throwaway connection wakes it
        // so it can observe the stop flag.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        self.queue.shutdown();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // The workers left an empty queue; what still holds a slot is a
        // handler executing its own request.
        self.queue.wait_idle();
        // Handlers block in `read` for as long as their client stays
        // connected, each holding the backend. Closing the read half ends
        // that wait with a clean EOF; a handler that is still writing a
        // reply finishes it first. The acceptor is joined, so no handler
        // is added after this; each is joined outside the lock, which it
        // takes to deregister.
        let threads = {
            let mut handlers = lock(&self.connections);
            for stream in handlers.streams.values() {
                let _ = stream.shutdown(Shutdown::Read);
            }
            std::mem::take(&mut handlers.threads)
        };
        for h in threads {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

/// Runs `reqs` as one batch on the calling thread, which took an execution
/// slot for it; the slot is given back on the way out, unwinding included.
/// `None` = the backend panicked, counted as [`ServeMetrics::on_internal`].
///
/// Handlers validate before admission, so `search_many` should never see a
/// request it must panic on; outcomes are bit-identical to per-request
/// `search` calls (the executor's equivalence guarantee, for one index and
/// for a shard set alike). If it panics anyway, the panic stops here: a
/// worker is a share of the pool's capacity (with the last one gone every
/// queued request would park forever) and a handler is a client's
/// connection. The backend is only read through `&B`, so no half-updated
/// state of ours is observed after the unwind.
fn execute<B: SearchBackend + ?Sized>(
    backend: &B,
    queue: &AdmissionQueue,
    metrics: &ServeMetrics,
    reqs: &[SearchRequest],
) -> Option<Vec<QueryOutcome>> {
    struct Slot<'a>(&'a AdmissionQueue);
    impl Drop for Slot<'_> {
        fn drop(&mut self) {
            self.0.release_slot();
        }
    }
    let _slot = Slot(queue);
    let outcomes = catch_unwind(AssertUnwindSafe(|| backend.search_many(reqs))).ok();
    metrics.on_batch(reqs.len());
    if outcomes.is_none() {
        metrics.on_internal(reqs.len());
    }
    outcomes
}

fn worker_loop<B: SearchBackend + ?Sized>(
    backend: &B,
    queue: &AdmissionQueue,
    metrics: &ServeMetrics,
) {
    // `None` = queue empty + shut down; every admitted request was part of
    // some earlier batch, so exiting here never strands a client.
    while let Some(batch) = queue.next_batch() {
        let dequeued = Instant::now();
        let mut reqs = Vec::with_capacity(batch.len());
        let mut completions: Vec<(mpsc::Sender<_>, Instant)> = Vec::with_capacity(batch.len());
        for p in batch {
            metrics.on_dequeued(dequeued.duration_since(p.enqueued));
            reqs.push(p.req);
            completions.push((p.tx, p.enqueued));
        }
        let Some(outcomes) = execute(backend, queue, metrics, &reqs) else {
            // Dropping the senders unanswered is the signal: each handler
            // sees its channel disconnect and answers `Internal`.
            continue;
        };
        for ((tx, enqueued), outcome) in completions.into_iter().zip(outcomes) {
            metrics.on_completed(enqueued.elapsed());
            // A dead receiver just means the client hung up mid-request
            // (or its handler gave up at the request deadline).
            let _ = tx.send(outcome);
        }
    }
}

/// How long the acceptor pauses after a failed `accept()` before retrying.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);

fn accept_loop<B: SearchBackend + 'static>(
    listener: &TcpListener,
    backend: &Arc<B>,
    queue: &Arc<AdmissionQueue>,
    metrics: &Arc<ServeMetrics>,
    connections: &Arc<Connections>,
    stop: &Arc<AtomicBool>,
    config: ServeConfig,
) {
    for id in 0u64.. {
        match listener.accept() {
            Ok((stream, _)) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                // Registered before the handler exists, so a `shutdown`
                // that has joined this thread sees every connection. One
                // that cannot be cloned is not served: nothing could end
                // its handler.
                let Ok(clone) = stream.try_clone() else {
                    continue;
                };
                let mut handlers = lock(connections);
                handlers.streams.insert(id, clone);
                let backend = Arc::clone(backend);
                let queue = Arc::clone(queue);
                let metrics = Arc::clone(metrics);
                let registry = Arc::clone(connections);
                // A handler exits on EOF — the client's, or the one
                // `shutdown` sends it — and a post-shutdown submit is
                // refused by the queue, so `shutdown` can join every one.
                let spawned = thread::Builder::new()
                    .name("climber-serve-conn".into())
                    .spawn(move || {
                        handle_connection(stream, &*backend, &queue, &metrics, config);
                        lock(&registry).streams.remove(&id);
                    });
                handlers.threads.retain(|h| !h.is_finished());
                match spawned {
                    Ok(handler) => handlers.threads.push(handler),
                    // no handler will: close the connection
                    Err(_) => drop(handlers.streams.remove(&id)),
                }
            }
            Err(_) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                // A persistent failure (fd exhaustion, EMFILE) fails again
                // at once: pause, or this loop spins on a core the workers
                // need. Short enough that `shutdown` is not held up.
                thread::sleep(ACCEPT_BACKOFF);
            }
        }
    }
}

fn handle_connection<B: SearchBackend + ?Sized>(
    stream: TcpStream,
    backend: &B,
    queue: &AdmissionQueue,
    metrics: &ServeMetrics,
    config: ServeConfig,
) {
    // Request/response frames are tiny; batching happens in the queue, not
    // in the socket buffer.
    let _ = stream.set_nodelay(true);
    // A stalled or idle peer must not pin this thread forever.
    let _ = stream.set_read_timeout(config.read_timeout);
    let _ = stream.set_write_timeout(config.write_timeout);
    let mut conn = Framed::new(stream);
    loop {
        let request = match conn.read_message::<Request>() {
            Ok(Some(req)) => req,
            // clean EOF: the client is done, or the server is
            Ok(None) => return,
            Err(e) => {
                // Best-effort typed answer, then drop the connection — a
                // torn frame leaves the stream unsynchronised.
                let _ = conn.write_message(&error_response(&e));
                return;
            }
        };
        let response = match request {
            Request::Ping => Response::Pong,
            Request::Stats => {
                Response::Stats(metrics.report(queue.depth() as u64).with_io(&backend.io()))
            }
            Request::Health => Response::Health(HealthReport {
                backend: backend.health(),
                queue_depth: queue.depth() as u64,
                cache_resident_bytes: backend.io().cache_resident_bytes,
            }),
            // The executor's own entry check, run before admission: a request
            // it would panic on (wrong query length included) is answered
            // here and never reaches the backend.
            Request::Search(req) => match req.validate_for(backend.series_len()) {
                Err(msg) => {
                    metrics.on_rejected();
                    bad_request(msg)
                }
                Ok(()) => match search(req, backend, queue, metrics, config.request_deadline) {
                    Ok(outcome) => Response::Outcome(outcome),
                    Err(e) => error_response(&e.into()),
                },
            },
        };
        if conn.write_message(&response).is_err() {
            return;
        }
    }
}

/// Answers one validated request on its handler's thread: executed right
/// here when it is alone — nothing queued, a slot free, no deadline to
/// watch — and through the queue and a worker's batch otherwise.
fn search<B: SearchBackend + ?Sized>(
    req: SearchRequest,
    backend: &B,
    queue: &AdmissionQueue,
    metrics: &ServeMetrics,
    deadline: Option<Duration>,
) -> Result<QueryOutcome, ServeError> {
    let enqueued = Instant::now();
    // A handler that executes cannot also answer at a deadline, so a
    // server that was given one queues every request.
    if deadline.is_none() && queue.try_take_slot() {
        metrics.on_admitted();
        metrics.on_dequeued(Duration::ZERO);
        let outcome = execute(backend, queue, metrics, std::slice::from_ref(&req))
            .and_then(|mut outcomes| outcomes.pop())
            .ok_or(ServeError::Internal)?;
        metrics.on_completed(enqueued.elapsed());
        return Ok(outcome);
    }
    let (tx, rx) = mpsc::channel();
    let pending = Pending { req, tx, enqueued };
    queue
        .submit(pending)
        .inspect_err(|_| metrics.on_rejected())?;
    metrics.on_admitted();
    match deadline {
        Some(deadline) => rx.recv_timeout(deadline).map_err(|e| match e {
            // The query executor ran past the deadline: abandon the
            // response (the batch still completes; its send just finds a
            // dead receiver).
            mpsc::RecvTimeoutError::Timeout => {
                metrics.on_deadline_missed();
                ServeError::DeadlineExceeded
            }
            mpsc::RecvTimeoutError::Disconnected => ServeError::Internal,
        }),
        // The worker dropped the sender without answering: the backend
        // panicked on this request's batch (shutdown drains, it never
        // drops an admitted request).
        None => rx.recv().map_err(|_| ServeError::Internal),
    }
}
