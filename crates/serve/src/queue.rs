//! The admission queue: where concurrent single requests become
//! micro-batches.
//!
//! ## State machine
//!
//! ```text
//!            submit()                  next_batch()
//! clients ─────────────▶ [ bounded VecDeque ] ─────────────▶ workers
//!             │                                   │
//!             │ queue full → Err(Overloaded)      │ flush when:
//!             │ draining   → Err(ShuttingDown)    │   a worker is free and the
//!             ▼                                   │   queue is non-empty
//!        (request never enqueued,                 │   | shutdown (drain rest)
//!         caller answers immediately)             ▼
//!                                      batch of ≤ max_batch Pendings
//! ```
//!
//! The queue is **work-conserving**: a worker that asks for a batch gets
//! whatever is queued (oldest first, up to `max_batch`) at once, and
//! blocks on the condvar only while the queue is empty. Nothing lingers
//! for company, so an idle server answers in engine + wire time. Batches
//! form from worker busy time instead: requests that arrive while every
//! worker is executing accumulate, and the first worker to finish drains
//! them together — coalescing happens exactly when there is something to
//! share. Shutdown flips a flag under the same lock: every
//! already-admitted request is still drained and answered, while new
//! submissions are refused with a typed error. Backpressure is the same
//! shape: a full queue *refuses* (never blocks) so an overloaded server
//! degrades into fast typed rejections instead of unbounded queueing or a
//! hang.

use climber_core::{QueryOutcome, SearchRequest, ServeError};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// How large a micro-batch may grow and how deep the queue may get.
#[derive(Debug, Clone, Copy)]
pub struct BatchPolicy {
    /// A worker takes at most this many requests per batch.
    pub max_batch: usize,
    /// Admission bound: a submit beyond this depth is refused.
    pub queue_cap: usize,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        Self {
            max_batch: 64,
            queue_cap: 1024,
        }
    }
}

/// One admitted request: what to run, where to send the answer, and when
/// it entered the queue (the latency clock).
#[derive(Debug)]
pub struct Pending {
    /// The validated request to execute.
    pub req: SearchRequest,
    /// Completion channel back to the connection handler.
    pub tx: mpsc::Sender<QueryOutcome>,
    /// Queue-entry time; `now - enqueued` is the served latency.
    pub enqueued: Instant,
}

#[derive(Debug, Default)]
struct Inner {
    queue: VecDeque<Pending>,
    shutdown: bool,
}

/// The bounded micro-batching queue between connection handlers and the
/// worker pool. All methods take `&self`; share it in an `Arc`.
#[derive(Debug)]
pub struct AdmissionQueue {
    inner: Mutex<Inner>,
    nonempty: Condvar,
    policy: BatchPolicy,
}

impl AdmissionQueue {
    /// An empty queue under the given policy.
    pub fn new(policy: BatchPolicy) -> Self {
        Self {
            inner: Mutex::new(Inner::default()),
            nonempty: Condvar::new(),
            policy,
        }
    }

    /// The flush/backpressure policy in force.
    pub fn policy(&self) -> &BatchPolicy {
        &self.policy
    }

    /// Current queue depth (requests admitted but not yet drained).
    pub fn depth(&self) -> usize {
        self.inner.lock().unwrap().queue.len()
    }

    /// Admits one request, or refuses it without blocking:
    /// [`ServeError::ShuttingDown`] while draining,
    /// [`ServeError::Overloaded`] when the bound is hit. On `Err` the
    /// request was **not** enqueued and no worker will ever see it.
    pub fn submit(&self, pending: Pending) -> Result<(), ServeError> {
        let mut inner = self.inner.lock().unwrap();
        if inner.shutdown {
            return Err(ServeError::ShuttingDown);
        }
        if inner.queue.len() >= self.policy.queue_cap {
            return Err(ServeError::Overloaded);
        }
        inner.queue.push_back(pending);
        drop(inner);
        self.nonempty.notify_one();
        Ok(())
    }

    /// Blocks while the queue is empty, then drains what is queued (oldest
    /// first, at most `max_batch`) without waiting for more. Returns `None`
    /// only when the queue is shut down **and** empty — the worker-exit
    /// signal; every admitted request is part of some returned batch first.
    pub fn next_batch(&self) -> Option<Vec<Pending>> {
        let mut inner = self.inner.lock().unwrap();
        while inner.queue.is_empty() {
            if inner.shutdown {
                return None;
            }
            inner = self.nonempty.wait(inner).unwrap();
        }
        let n = inner.queue.len().min(self.policy.max_batch);
        let batch: Vec<Pending> = inner.queue.drain(..n).collect();
        let more = !inner.queue.is_empty();
        drop(inner);
        if more {
            // leftovers beyond max_batch: hand them to a sibling
            self.nonempty.notify_one();
        }
        Some(batch)
    }

    /// Starts draining: new submissions are refused from this point, every
    /// already-admitted request is still batched out, and workers blocked
    /// in [`next_batch`](Self::next_batch) return `None` once the queue is
    /// empty.
    pub fn shutdown(&self) {
        self.inner.lock().unwrap().shutdown = true;
        self.nonempty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    fn pending(id: u64) -> (Pending, mpsc::Receiver<QueryOutcome>) {
        let (tx, rx) = mpsc::channel();
        let p = Pending {
            req: SearchRequest::new(vec![id as f32, 1.0], 1),
            tx,
            enqueued: Instant::now(),
        };
        (p, rx)
    }

    fn policy(max_batch: usize, cap: usize) -> BatchPolicy {
        BatchPolicy {
            max_batch,
            queue_cap: cap,
        }
    }

    #[test]
    fn full_batch_flushes_without_waiting_for_the_deadline() {
        let q = AdmissionQueue::new(policy(4, 100));
        for i in 0..4 {
            q.submit(pending(i).0).unwrap();
        }
        let batch = q.next_batch().expect("full batch ready");
        assert_eq!(batch.len(), 4);
    }

    #[test]
    fn partial_batch_is_handed_over_at_once() {
        let q = AdmissionQueue::new(policy(1000, 100));
        q.submit(pending(1).0).unwrap();
        q.submit(pending(2).0).unwrap();
        // No further notify and no timer exists to end a wait: a
        // `next_batch` that lingered for company would never return.
        let batch = q.next_batch().expect("partial batch");
        assert_eq!(batch.len(), 2, "partial batch drained together");
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn overload_refuses_without_blocking() {
        let q = AdmissionQueue::new(policy(64, 2));
        q.submit(pending(1).0).unwrap();
        q.submit(pending(2).0).unwrap();
        let err = q.submit(pending(3).0).unwrap_err();
        assert!(matches!(err, ServeError::Overloaded));
        assert_eq!(q.depth(), 2, "refused request must not be enqueued");
    }

    #[test]
    fn shutdown_drains_admitted_then_signals_exit() {
        let q = AdmissionQueue::new(policy(64, 100));
        q.submit(pending(1).0).unwrap();
        q.submit(pending(2).0).unwrap();
        q.shutdown();
        assert!(matches!(
            q.submit(pending(3).0).unwrap_err(),
            ServeError::ShuttingDown
        ));
        // admitted requests still come out once draining
        let batch = q.next_batch().expect("drain batch");
        assert_eq!(batch.len(), 2);
        assert!(q.next_batch().is_none(), "empty + shutdown = exit signal");
    }

    #[test]
    fn blocked_worker_wakes_on_shutdown() {
        let q = Arc::new(AdmissionQueue::new(policy(64, 100)));
        let q2 = Arc::clone(&q);
        let worker = thread::spawn(move || q2.next_batch());
        thread::sleep(Duration::from_millis(20));
        q.shutdown();
        assert!(worker.join().unwrap().is_none());
    }

    #[test]
    fn oversized_spike_splits_into_max_batch_chunks() {
        let q = AdmissionQueue::new(policy(3, 100));
        for i in 0..8 {
            q.submit(pending(i).0).unwrap();
        }
        let sizes: Vec<usize> = (0..3).map(|_| q.next_batch().unwrap().len()).collect();
        assert_eq!(sizes, vec![3, 3, 2]);
    }
}
