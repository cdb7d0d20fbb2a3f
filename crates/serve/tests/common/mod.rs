//! Shared fixtures for the socket tests: a small index, a polling wait,
//! and a backend whose worker can be held in place.
//!
//! The admission queue hands a free worker whatever is queued at once, so
//! the only way to keep requests *in* the queue is to keep every worker
//! busy. [`Gated`] does that without a clock: its `search_many` blocks
//! until the test opens the gate.

#![allow(dead_code)] // each test binary uses its own subset

use climber_core::series::gen::Domain;
use climber_core::{
    BackendHealth, Climber, ClimberConfig, IoSnapshot, QueryOutcome, SearchBackend, SearchRequest,
};
use climber_serve::RetryPolicy;
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
/// one worker, the first batch pins it and everything submitted meanwhile
/// stays in the queue. Once open it stays open and only delegates.
pub struct Gated<B> {
    inner: Arc<B>,
    open: Mutex<bool>,
    opened: Condvar,
    /// The size of every batch that reached the backend, in arrival order
    /// (recorded before parking, so a held batch is already listed).
    batches: Mutex<Vec<usize>>,
}

impl<B: SearchBackend> Gated<B> {
    pub fn new(inner: Arc<B>) -> Arc<Self> {
        Arc::new(Self {
            inner,
            open: Mutex::new(false),
            opened: Condvar::new(),
            batches: Mutex::new(Vec::new()),
        })
    }

    pub fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.opened.notify_all();
    }

    pub fn batches(&self) -> Vec<usize> {
        self.batches.lock().unwrap().clone()
    }

    /// Blocks until the (one) worker sits in the gate with a batch of one:
    /// from here on, everything submitted stays queued.
    pub fn wait_until_holding_one(&self) {
        wait_until("the worker holds the first request", || {
            self.batches() == [1]
        });
    }
}

impl<B: SearchBackend> SearchBackend for Gated<B> {
    fn search_many(&self, reqs: &[SearchRequest]) -> Vec<QueryOutcome> {
        self.batches.lock().unwrap().push(reqs.len());
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.opened.wait(open).unwrap();
        }
        drop(open);
        self.inner.search_many(reqs)
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
