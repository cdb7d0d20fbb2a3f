//! Shared fixtures for the socket tests: a small index, a polling wait,
//! and a backend whose executions can be held in place.
//!
//! A request that finds a slot free is executed at once — by its own
//! handler when nothing is queued, by a worker otherwise — so the only way
//! to keep requests *in* the queue is to keep every slot taken. [`Gated`]
//! does that without a clock: its `search_many` blocks until the test
//! opens the gate. It also records what reached it: batch sizes, the name
//! of the thread each batch ran on, and the most executions it ever saw
//! inside at once.

#![allow(dead_code)] // each test binary uses its own subset

use climber_core::series::gen::Domain;
use climber_core::{
    BackendHealth, Climber, ClimberConfig, IoSnapshot, QueryOutcome, SearchBackend, SearchRequest,
};
use climber_serve::RetryPolicy;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

pub fn build_climber(n: usize, seed: u64) -> Arc<Climber> {
    let ds = Domain::RandomWalk.generate(n, seed);
    let cfg = ClimberConfig::default()
        .with_paa_segments(8)
        .with_pivots(32)
        .with_prefix_len(5)
        .with_capacity(60)
        .with_alpha(0.5)
        .with_epsilon(1)
        .with_seed(7)
        .with_workers(2);
    Arc::new(Climber::build_in_memory(&ds, cfg))
}

/// `n` stored records, spread over the partitions, to use as queries —
/// recovered from the store so tests need no dataset in scope.
pub fn queries_of(climber: &Climber, n: usize) -> Vec<Vec<f32>> {
    use climber_core::dfs::store::PartitionStore;
    let mut records = Vec::new();
    for pid in climber.store().ids() {
        let reader = climber.store().open(pid).unwrap();
        reader.for_each(|_, vals| records.push(vals.to_vec()));
        if records.len() >= n * 17 {
            break;
        }
    }
    records.into_iter().step_by(17).take(n).collect()
}

/// Polls `cond` until it holds; `false` if it still does not after 20 s.
pub fn poll_until(mut cond: impl FnMut() -> bool) -> bool {
    let t = Instant::now();
    while !cond() {
        if t.elapsed() > Duration::from_secs(20) {
            return false;
        }
        thread::sleep(Duration::from_millis(2));
    }
    true
}

/// Polls `cond` until it holds; panics with `what` if it never does.
pub fn wait_until(what: &str, cond: impl FnMut() -> bool) {
    assert!(poll_until(cond), "timed out: {what}");
}

/// A client policy that reports the first failure instead of replaying.
pub fn no_retries() -> RetryPolicy {
    RetryPolicy {
        max_retries: 0,
        base: Duration::from_millis(1),
        cap: Duration::from_millis(1),
    }
}

/// A backend whose `search_many` parks until [`open`](Self::open): with
/// one slot, the first execution pins it and everything submitted
/// meanwhile stays in the queue. Open, it only delegates — until a test
/// [`close`](Self::close)s it again.
pub struct Gated<B> {
    inner: Arc<B>,
    open: Mutex<bool>,
    opened: Condvar,
    /// The size of every batch that reached the backend and the name of
    /// the thread it ran on, in arrival order (recorded before parking, so
    /// a held batch is already listed).
    batches: Mutex<Vec<(usize, String)>>,
    inside: AtomicUsize,
    peak_inside: AtomicUsize,
}

impl<B: SearchBackend> Gated<B> {
    pub fn new(inner: Arc<B>) -> Arc<Self> {
        Arc::new(Self {
            inner,
            open: Mutex::new(false),
            opened: Condvar::new(),
            batches: Mutex::new(Vec::new()),
            inside: AtomicUsize::new(0),
            peak_inside: AtomicUsize::new(0),
        })
    }

    /// A gate that starts open: a pure recorder.
    pub fn opened(inner: Arc<B>) -> Arc<Self> {
        let gated = Self::new(inner);
        gated.open();
        gated
    }

    pub fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.opened.notify_all();
    }

    /// Executions that arrive from now on park again.
    pub fn close(&self) {
        *self.open.lock().unwrap() = false;
    }

    pub fn batches(&self) -> Vec<usize> {
        self.batches.lock().unwrap().iter().map(|b| b.0).collect()
    }

    /// The name of the thread each batch ran on, in arrival order.
    pub fn threads(&self) -> Vec<String> {
        let batches = self.batches.lock().unwrap();
        batches.iter().map(|b| b.1.clone()).collect()
    }

    /// The most `search_many` calls ever inside at the same moment.
    pub fn peak_in_flight(&self) -> usize {
        self.peak_inside.load(Ordering::SeqCst)
    }

    /// Blocks until the (one) slot sits in the gate with a batch of one:
    /// from here on, everything submitted stays queued.
    pub fn wait_until_holding_one(&self) {
        wait_until("the only slot holds the first request", || {
            self.batches() == [1]
        });
    }
}

impl<B: SearchBackend> SearchBackend for Gated<B> {
    fn search_many(&self, reqs: &[SearchRequest]) -> Vec<QueryOutcome> {
        let thread = thread::current().name().unwrap_or_default().to_owned();
        self.batches.lock().unwrap().push((reqs.len(), thread));
        let inside = self.inside.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak_inside.fetch_max(inside, Ordering::SeqCst);
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.opened.wait(open).unwrap();
        }
        drop(open);
        let outcomes = self.inner.search_many(reqs);
        self.inside.fetch_sub(1, Ordering::SeqCst);
        outcomes
    }

    fn series_len(&self) -> Option<usize> {
        self.inner.series_len()
    }

    fn health(&self) -> BackendHealth {
        self.inner.health()
    }

    fn io(&self) -> IoSnapshot {
        self.inner.io()
    }
}

/// Panics on any batch holding a request marked with this `k`.
pub const POISON_K: usize = 13;

/// A backend that panics on [`POISON_K`] and delegates otherwise.
pub struct PanicsOnPoison(pub Arc<Climber>);

impl SearchBackend for PanicsOnPoison {
    fn search_many(&self, reqs: &[SearchRequest]) -> Vec<QueryOutcome> {
        assert!(reqs.iter().all(|r| r.k != POISON_K), "poisoned request");
        self.0.search_many(reqs)
    }

    fn series_len(&self) -> Option<usize> {
        self.0.series_len()
    }
}
