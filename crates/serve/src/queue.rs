//! The admission queue: where concurrent single requests become
//! micro-batches — and where a request that is alone skips the queue.
//!
//! ## State machine
//!
//! ```text
//!            try_take_slot()      queue empty, slot free, not draining
//! handler ──────────────────────────────────────────────────▶ runs it itself
//!    │
//!    │       submit()                  next_batch()
//!    └─────────────────▶ [ bounded VecDeque ] ─────────────▶ workers
//!             │                                   │
//!             │ queue full → Err(Overloaded)      │ flush when:
//!             │ draining   → Err(ShuttingDown)    │   a slot is free and the
//!             ▼                                   │   queue is non-empty
//!        (request never enqueued,                 │   | shutdown (drain rest)
//!         caller answers immediately)             ▼
//!                                      batch of ≤ max_batch Pendings
//!
//!        in flight ≤ slots: every execution — a handler's own request or a
//!        worker's batch — holds one slot and gives it back when it is done
//! ```
//!
//! The queue is **work-conserving**: a request that finds nothing queued
//! and a slot free is executed by the thread that read it, with no
//! hand-off at all; otherwise it is queued, and a worker that asks for a
//! batch gets whatever is queued (oldest first, up to `max_batch`) as soon
//! as a slot is free, blocking on the condvar only until then. Nothing
//! lingers for company, so an idle server answers in engine + wire time.
//! Batches form from busy time instead: requests that arrive while every
//! slot is taken accumulate, and the first slot given back lets a worker
//! drain them together — coalescing happens exactly when there is
//! something to share. The direct path requires an empty queue, so a
//! request never overtakes one admitted before it. Shutdown flips a flag
//! under the same lock: every already-admitted request is still drained
//! and answered, while new submissions are refused with a typed error.
//! Backpressure is the same shape: a full queue *refuses* (never blocks)
//! so an overloaded server degrades into fast typed rejections instead of
//! unbounded queueing or a hang.

use climber_core::{QueryOutcome, SearchRequest, ServeError};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
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
    /// Executions holding a slot right now.
    in_flight: usize,
    shutdown: bool,
}

/// The bounded micro-batching queue between connection handlers and the
/// worker pool, and the count of executions in flight. All methods take
/// `&self`; share it in an `Arc`.
#[derive(Debug)]
pub struct AdmissionQueue {
    inner: Mutex<Inner>,
    /// Workers wait here for "something queued and a slot free".
    work: Condvar,
    /// [`wait_idle`](Self::wait_idle) waits here for the last slot.
    idle: Condvar,
    policy: BatchPolicy,
    slots: usize,
}

impl AdmissionQueue {
    /// An empty queue under the given policy, with no bound on executions
    /// in flight beyond the threads that call
    /// [`next_batch`](Self::next_batch).
    pub fn new(policy: BatchPolicy) -> Self {
        Self {
            inner: Mutex::new(Inner::default()),
            work: Condvar::new(),
            idle: Condvar::new(),
            policy,
            slots: usize::MAX,
        }
    }

    /// Bounds executions in flight — handlers' own and workers' batches
    /// together — to `slots` (at least one).
    #[must_use]
    pub fn with_slots(mut self, slots: usize) -> Self {
        self.slots = slots.max(1);
        self
    }

    /// No critical section below can panic half-way through an update, so
    /// `Inner` is valid even behind a poisoned lock — and
    /// [`release_slot`](Self::release_slot) runs from a `Drop` during
    /// unwinding, where a second panic would abort the process.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The flush/backpressure policy in force.
    pub fn policy(&self) -> &BatchPolicy {
        &self.policy
    }

    /// Current queue depth (requests admitted but not yet drained).
    pub fn depth(&self) -> usize {
        self.lock().queue.len()
    }

    /// Admits one request, or refuses it without blocking:
    /// [`ServeError::ShuttingDown`] while draining,
    /// [`ServeError::Overloaded`] when the bound is hit. On `Err` the
    /// request was **not** enqueued and no worker will ever see it.
    pub fn submit(&self, pending: Pending) -> Result<(), ServeError> {
        let mut inner = self.lock();
        if inner.shutdown {
            return Err(ServeError::ShuttingDown);
        }
        if inner.queue.len() >= self.policy.queue_cap {
            return Err(ServeError::Overloaded);
        }
        inner.queue.push_back(pending);
        // With every slot taken no worker could act on a wake-up; the slot
        // that is given back next wakes one instead.
        let slot_free = inner.in_flight < self.slots;
        drop(inner);
        if slot_free {
            self.work.notify_one();
        }
        Ok(())
    }

    /// The direct path: takes an execution slot for the calling thread if
    /// nothing is queued (so nothing is overtaken), a slot is free and the
    /// queue is not draining. On `true` the caller executes its request
    /// itself and then calls [`release_slot`](Self::release_slot); on
    /// `false` it [`submit`](Self::submit)s as usual.
    pub fn try_take_slot(&self) -> bool {
        let mut inner = self.lock();
        let take = inner.queue.is_empty() && inner.in_flight < self.slots && !inner.shutdown;
        if take {
            inner.in_flight += 1;
        }
        take
    }

    /// Gives back the slot taken by [`try_take_slot`](Self::try_take_slot)
    /// or along with a [`next_batch`](Self::next_batch), waking one worker
    /// only if something is queued for it.
    pub fn release_slot(&self) {
        let mut inner = self.lock();
        inner.in_flight -= 1;
        let queued = !inner.queue.is_empty();
        let (draining, idle) = (inner.shutdown, inner.in_flight == 0);
        drop(inner);
        if draining {
            // Workers that woke to a non-empty queue with every slot taken
            // went back to waiting; whichever of them is not handed the
            // rest must still learn that the queue has emptied.
            self.work.notify_all();
            if idle {
                self.idle.notify_all();
            }
        } else if queued {
            self.work.notify_one();
        }
    }

    /// Blocks until something is queued **and** a slot is free, then takes
    /// the slot and drains what is queued (oldest first, at most
    /// `max_batch`) without waiting for more; the caller gives the slot
    /// back with [`release_slot`](Self::release_slot) once the batch has
    /// executed. Returns `None` only when the queue is shut down **and**
    /// empty — the worker-exit signal; every admitted request is part of
    /// some returned batch first.
    pub fn next_batch(&self) -> Option<Vec<Pending>> {
        let mut inner = self.lock();
        while inner.queue.is_empty() || inner.in_flight >= self.slots {
            if inner.shutdown && inner.queue.is_empty() {
                return None;
            }
            inner = self
                .work
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
        inner.in_flight += 1;
        let n = inner.queue.len().min(self.policy.max_batch);
        let batch: Vec<Pending> = inner.queue.drain(..n).collect();
        let more = !inner.queue.is_empty() && inner.in_flight < self.slots;
        drop(inner);
        if more {
            // leftovers beyond max_batch: hand them to a sibling
            self.work.notify_one();
        }
        Some(batch)
    }

    /// Starts draining: new submissions are refused from this point, every
    /// already-admitted request is still batched out, and workers blocked
    /// in [`next_batch`](Self::next_batch) return `None` once the queue is
    /// empty.
    pub fn shutdown(&self) {
        self.lock().shutdown = true;
        self.work.notify_all();
    }

    /// Blocks until no execution holds a slot. Meant for after
    /// [`shutdown`](Self::shutdown) and the workers' exit, when the only
    /// slots still out are handlers finishing their own requests.
    pub fn wait_idle(&self) {
        let mut inner = self.lock();
        while inner.in_flight > 0 {
            inner = self
                .idle
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
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

    #[test]
    fn a_slot_is_taken_directly_only_when_nothing_is_overtaken() {
        let q = AdmissionQueue::new(policy(64, 100)).with_slots(2);
        assert!(q.try_take_slot(), "idle: the caller executes");
        // something is queued: a direct execution would overtake it
        q.submit(pending(1).0).unwrap();
        assert!(!q.try_take_slot());
        assert_eq!(q.next_batch().expect("second slot").len(), 1);
        // queue empty again, but both slots are out
        assert!(!q.try_take_slot());
        q.release_slot();
        assert!(q.try_take_slot());
        q.release_slot();
        q.release_slot();
        q.shutdown();
        assert!(!q.try_take_slot(), "draining: refuse through submit");
    }

    #[test]
    fn a_batch_waits_for_a_slot_and_leaves_when_one_is_returned() {
        let q = Arc::new(AdmissionQueue::new(policy(64, 100)).with_slots(1));
        assert!(q.try_take_slot());
        let q2 = Arc::clone(&q);
        let worker = thread::spawn(move || q2.next_batch().map(|b| b.len()));
        for i in 0..3 {
            q.submit(pending(i).0).unwrap();
        }
        thread::sleep(Duration::from_millis(20));
        assert_eq!(q.depth(), 3, "drained with the only slot taken");
        q.release_slot();
        assert_eq!(worker.join().unwrap(), Some(3), "busy time made a batch");
    }

    #[test]
    fn a_drain_behind_taken_slots_lets_every_worker_exit() {
        let q = Arc::new(AdmissionQueue::new(policy(64, 100)).with_slots(1));
        assert!(q.try_take_slot());
        q.submit(pending(1).0).unwrap();
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut executed = 0;
                    while let Some(batch) = q.next_batch() {
                        executed += batch.len();
                        q.release_slot();
                    }
                    executed
                })
            })
            .collect();
        thread::sleep(Duration::from_millis(20));
        // Both workers wake to a non-empty queue and no slot, and wait on.
        q.shutdown();
        thread::sleep(Duration::from_millis(20));
        // One of them gets the request; the other must hear of the end too.
        q.release_slot();
        let executed: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
        assert_eq!(executed, 1);
        q.wait_idle();
    }

    #[test]
    fn wait_idle_returns_when_the_last_slot_does() {
        let q = Arc::new(AdmissionQueue::new(policy(64, 100)).with_slots(2));
        assert!(q.try_take_slot() && q.try_take_slot());
        q.shutdown();
        let q2 = Arc::clone(&q);
        let waiter = thread::spawn(move || q2.wait_idle());
        q.release_slot();
        thread::sleep(Duration::from_millis(20));
        assert!(!waiter.is_finished(), "one execution is still in flight");
        q.release_slot();
        waiter.join().unwrap();
    }
}
