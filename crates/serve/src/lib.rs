//! # climber-serve
//!
//! A micro-batching network serving layer over the CLIMBER index.
//!
//! The query executor ([`Climber::search_many`]) earns its candidate-sharing
//! win only when queries arrive *together* — but real traffic arrives one
//! request at a time, over many connections. This crate closes that gap
//! with a work-conserving admission queue: nothing is held back to wait
//! for company, a request that is alone is executed by the thread that
//! read it, and whatever piles up while every execution slot is taken is
//! executed as one batch.
//!
//! * [`protocol`] — a length-prefixed binary wire protocol carrying
//!   [`SearchRequest`]/[`QueryOutcome`] via the same `climber_dfs::format`
//!   codec the on-disk format uses: a served query is byte-for-byte the
//!   request a local caller would build. A connection's stream lives in a
//!   [`Framed`](protocol::Framed), through which a frame costs one `write`
//!   and normally one `read`;
//! * [`queue`] — the [`AdmissionQueue`]: a bounded queue plus a count of
//!   executions in flight. A handler whose request finds the queue empty
//!   and a slot free takes the slot and executes it itself; otherwise it
//!   submits, and a worker takes what is queued, up to `max_batch`
//!   requests, as soon as a slot is free — so an idle server adds no
//!   queueing delay and no thread hand-off, and a busy one batches by
//!   itself. A full queue rejects with a typed overload response —
//!   graceful degradation, never a hang;
//! * [`server`] — the TCP [`Server`]: acceptor thread, per-connection
//!   handlers, a worker pool feeding the query executor (a backend panic
//!   is answered as a typed internal error and the thread lives on), and
//!   a clean [`shutdown`](Server::shutdown) that drains every admitted
//!   request and then ends every open connection's handler;
//! * [`metrics`] — per-request queue-wait and latency percentiles plus
//!   QPS/queue-depth/batch-occupancy counters, served by the stats
//!   endpoint as a [`StatsReport`];
//! * [`client`] — a small blocking [`ServeClient`] for examples, tests,
//!   and the load generator.
//!
//! Everything is `std::net` + `std` synchronisation — no new external
//! dependencies. Batched outcomes are **bit-identical** to direct
//! [`Climber::search`] calls (the query executor's equivalence guarantee;
//! `tests/serving.rs` proves it end-to-end through real sockets).
//!
//! [`Climber::search`]: climber_core::Climber::search
//! [`Climber::search_many`]: climber_core::Climber::search_many
//! [`SearchRequest`]: climber_core::SearchRequest
//! [`QueryOutcome`]: climber_core::QueryOutcome
//! [`AdmissionQueue`]: queue::AdmissionQueue

#![warn(missing_docs)]

pub mod client;
pub mod metrics;
pub mod protocol;
pub mod queue;
pub mod server;

pub use client::{RetryPolicy, ServeClient};
pub use metrics::{ServeMetrics, StatsReport};
pub use protocol::HealthReport;
pub use queue::{AdmissionQueue, BatchPolicy};
pub use server::{ServeConfig, Server};
