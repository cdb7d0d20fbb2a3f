//! Serving metrics: counters, a queue-depth gauge, and two lock-free
//! log-linear histograms (queue wait and end-to-end latency) with
//! approximate percentiles.

use climber_core::IoSnapshot;
use climber_dfs::format::{ByteReader, Decode, Encode};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Sub-buckets per octave, as a power of two: each power-of-two range of
/// microseconds is cut into `2^SUB_BITS` = 8 equal slices, so a bucket is
/// at most 1/8 of its lower edge wide.
const SUB_BITS: usize = 3;
const SUB_BUCKETS: usize = 1 << SUB_BITS;
/// Octaves covered above the exact range `[0, 8)` µs: up to 2^40 µs
/// (~12 days), far beyond any request this server would keep alive.
const OCTAVES: usize = 37;
const BUCKETS: usize = SUB_BUCKETS * (OCTAVES + 1);

/// A lock-free log-linear histogram of microsecond durations.
///
/// Values below 8 µs get a bucket each; above that, every octave
/// `[2^e, 2^(e+1))` is split into [`SUB_BUCKETS`] equal slices. A
/// percentile reports its bucket's upper edge, so it overstates the true
/// value by at most 12.5 % — and recording stays one relaxed `fetch_add`.
#[derive(Debug)]
struct Histogram(Vec<AtomicU64>);

impl Histogram {
    fn new() -> Self {
        Self((0..BUCKETS).map(|_| AtomicU64::new(0)).collect())
    }

    fn bucket_of(us: u64) -> usize {
        if us < SUB_BUCKETS as u64 {
            return us as usize;
        }
        let octave = 63 - us.leading_zeros() as usize;
        let sub = (us >> (octave - SUB_BITS)) as usize & (SUB_BUCKETS - 1);
        ((octave - SUB_BITS + 1) * SUB_BUCKETS + sub).min(BUCKETS - 1)
    }

    /// The inclusive lower edge (µs) of bucket `i`; bucket `i`'s exclusive
    /// upper edge is `lower_edge(i + 1)`.
    fn lower_edge(i: usize) -> u64 {
        if i < SUB_BUCKETS {
            return i as u64;
        }
        ((SUB_BUCKETS + i % SUB_BUCKETS) as u64) << (i / SUB_BUCKETS - 1)
    }

    fn record(&self, d: Duration) {
        let us = u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        self.0[Self::bucket_of(us)].fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> Vec<u64> {
        self.0.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }

    /// The upper edge (µs) of the bucket holding percentile `q` (0–100) of
    /// a [`snapshot`](Self::snapshot); 0 when nothing was recorded, and 0
    /// for the first bucket — "under a microsecond" reads as no wait at
    /// all, which is what a request executed by its own handler records.
    fn percentile_us(counts: &[u64], q: f64) -> u64 {
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q / 100.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if i == 0 { 0 } else { Self::lower_edge(i + 1) };
            }
        }
        Self::lower_edge(counts.len())
    }
}

/// Lock-free serving metrics, shared by handlers and workers.
///
/// Counters are monotone relaxed atomics — each one is individually exact,
/// while a [`report`](Self::report) is a near-consistent snapshot (readers
/// never block the serving path). Two histograms time every admitted
/// request from the moment it entered the queue: until a worker took it
/// (the queue wait, measured where it happens) and until its answer was
/// ready (end to end). Percentiles are approximate: each observation lands
/// in one of 8 sub-buckets per octave and a percentile reports its
/// bucket's upper edge, so the error is at most 12.5 % — the right trade
/// for a hot path that must never take a lock.
#[derive(Debug)]
pub struct ServeMetrics {
    start: Instant,
    admitted: AtomicU64,
    rejected: AtomicU64,
    deadline_missed: AtomicU64,
    completed: AtomicU64,
    internal: AtomicU64,
    batches: AtomicU64,
    batched_requests: AtomicU64,
    queue_wait: Histogram,
    latency: Histogram,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeMetrics {
    /// Fresh metrics; uptime and QPS count from now.
    pub fn new() -> Self {
        Self {
            start: Instant::now(),
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            deadline_missed: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            internal: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched_requests: AtomicU64::new(0),
            queue_wait: Histogram::new(),
            latency: Histogram::new(),
        }
    }

    /// A request entered the admission queue.
    pub fn on_admitted(&self) {
        self.admitted.fetch_add(1, Ordering::Relaxed);
    }

    /// A request was refused (overload or shutdown).
    pub fn on_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// An admitted request's handler gave up waiting: its per-request
    /// deadline expired before the query executor answered.
    pub fn on_deadline_missed(&self) {
        self.deadline_missed.fetch_add(1, Ordering::Relaxed);
    }

    /// A worker took a request out of the queue `wait` after it entered.
    pub fn on_dequeued(&self, wait: Duration) {
        self.queue_wait.record(wait);
    }

    /// A micro-batch of `size` requests finished executing.
    pub fn on_batch(&self, size: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_requests
            .fetch_add(size as u64, Ordering::Relaxed);
    }

    /// A request completed with the given queue-entry→response latency.
    pub fn on_completed(&self, latency: Duration) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.latency.record(latency);
    }

    /// The backend panicked on a micro-batch: its `size` requests are
    /// answered `Internal`.
    pub fn on_internal(&self, size: usize) {
        self.internal.fetch_add(size as u64, Ordering::Relaxed);
    }

    /// Snapshots everything into a wire-encodable [`StatsReport`].
    /// `queue_depth` is sampled by the caller (the queue owns it).
    pub fn report(&self, queue_depth: u64) -> StatsReport {
        let waits = self.queue_wait.snapshot();
        let latencies = self.latency.snapshot();
        let completed = self.completed.load(Ordering::Relaxed);
        let batches = self.batches.load(Ordering::Relaxed);
        let batched = self.batched_requests.load(Ordering::Relaxed);
        let uptime = self.start.elapsed();
        StatsReport {
            uptime_us: uptime.as_micros() as u64,
            admitted: self.admitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            deadline_missed: self.deadline_missed.load(Ordering::Relaxed),
            completed,
            internal: self.internal.load(Ordering::Relaxed),
            batches,
            mean_batch: if batches == 0 {
                0.0
            } else {
                batched as f64 / batches as f64
            },
            queue_depth,
            qps: completed as f64 / uptime.as_secs_f64().max(1e-9),
            queue_wait_p50_us: Histogram::percentile_us(&waits, 50.0),
            queue_wait_p95_us: Histogram::percentile_us(&waits, 95.0),
            p50_us: Histogram::percentile_us(&latencies, 50.0),
            p95_us: Histogram::percentile_us(&latencies, 95.0),
            p99_us: Histogram::percentile_us(&latencies, 99.0),
            cache_hits: 0,
            cache_misses: 0,
            cache_evictions: 0,
            cache_resident_bytes: 0,
        }
    }
}

/// One snapshot of the serving metrics, served by the stats endpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsReport {
    /// Microseconds since the server started.
    pub uptime_us: u64,
    /// Requests accepted into the admission queue.
    pub admitted: u64,
    /// Requests refused with a typed overload/shutdown response.
    pub rejected: u64,
    /// Admitted requests whose handlers answered a typed
    /// deadline-exceeded error instead of waiting for the query executor.
    pub deadline_missed: u64,
    /// Requests a worker executed and answered.
    pub completed: u64,
    /// Requests answered with a typed internal error because the backend
    /// panicked on their batch; `admitted == completed + internal` once
    /// the queue is drained.
    pub internal: u64,
    /// Micro-batches executed.
    pub batches: u64,
    /// Mean requests per executed micro-batch (batch occupancy).
    pub mean_batch: f64,
    /// Queue depth at snapshot time.
    pub queue_depth: u64,
    /// Completed requests per second of uptime.
    pub qps: f64,
    /// Approximate median time (µs) a request sat in the admission queue,
    /// queue entry → taken by a worker.
    pub queue_wait_p50_us: u64,
    /// Approximate 95th-percentile queue wait (µs).
    pub queue_wait_p95_us: u64,
    /// Approximate median latency (µs), queue entry → response ready.
    pub p50_us: u64,
    /// Approximate 95th-percentile latency (µs).
    pub p95_us: u64,
    /// Approximate 99th-percentile latency (µs).
    pub p99_us: u64,
    /// Backend block-cache hits since the cache was created (0 when the
    /// backend serves without one).
    pub cache_hits: u64,
    /// Backend block-cache misses.
    pub cache_misses: u64,
    /// Blocks evicted by the backend's cache to stay in budget.
    pub cache_evictions: u64,
    /// Bytes currently charged against the cache's budget.
    pub cache_resident_bytes: u64,
}

impl StatsReport {
    /// Overlays the backend's block-cache counters (from
    /// [`climber_core::SearchBackend::io`]) onto this snapshot — the
    /// serving layer composes the two because the metrics object never
    /// sees the backend.
    #[must_use]
    pub fn with_io(mut self, io: &IoSnapshot) -> Self {
        self.cache_hits = io.cache_hits;
        self.cache_misses = io.cache_misses;
        self.cache_evictions = io.cache_evictions;
        self.cache_resident_bytes = io.cache_resident_bytes;
        self
    }
}

impl Encode for StatsReport {
    fn encode(&self, out: &mut Vec<u8>) {
        self.uptime_us.encode(out);
        self.admitted.encode(out);
        self.rejected.encode(out);
        self.deadline_missed.encode(out);
        self.completed.encode(out);
        self.internal.encode(out);
        self.batches.encode(out);
        self.mean_batch.encode(out);
        self.queue_depth.encode(out);
        self.qps.encode(out);
        self.queue_wait_p50_us.encode(out);
        self.queue_wait_p95_us.encode(out);
        self.p50_us.encode(out);
        self.p95_us.encode(out);
        self.p99_us.encode(out);
        self.cache_hits.encode(out);
        self.cache_misses.encode(out);
        self.cache_evictions.encode(out);
        self.cache_resident_bytes.encode(out);
    }
}

impl Decode for StatsReport {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, String> {
        Ok(Self {
            uptime_us: r.u64()?,
            admitted: r.u64()?,
            rejected: r.u64()?,
            deadline_missed: r.u64()?,
            completed: r.u64()?,
            internal: r.u64()?,
            batches: r.u64()?,
            mean_batch: r.f64()?,
            queue_depth: r.u64()?,
            qps: r.f64()?,
            queue_wait_p50_us: r.u64()?,
            queue_wait_p95_us: r.u64()?,
            p50_us: r.u64()?,
            p95_us: r.u64()?,
            p99_us: r.u64()?,
            cache_hits: r.u64()?,
            cache_misses: r.u64()?,
            cache_evictions: r.u64()?,
            cache_resident_bytes: r.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_batches_accumulate() {
        let m = ServeMetrics::new();
        for _ in 0..10 {
            m.on_admitted();
        }
        m.on_rejected();
        m.on_internal(1);
        m.on_batch(4);
        m.on_batch(6);
        for _ in 0..10 {
            m.on_completed(Duration::from_micros(100));
        }
        let r = m.report(3);
        assert_eq!(r.admitted, 10);
        assert_eq!(r.rejected, 1);
        assert_eq!(r.completed, 10);
        assert_eq!(r.internal, 1);
        assert_eq!(r.batches, 2);
        assert!((r.mean_batch - 5.0).abs() < 1e-9);
        assert_eq!(r.queue_depth, 3);
        assert!(r.qps > 0.0);
    }

    #[test]
    fn percentiles_bound_observations_within_2x() {
        let m = ServeMetrics::new();
        // 9 fast requests and one slow one
        for _ in 0..9 {
            m.on_dequeued(Duration::from_micros(3));
            m.on_completed(Duration::from_micros(100));
        }
        m.on_dequeued(Duration::from_millis(2));
        m.on_completed(Duration::from_millis(80));
        let r = m.report(0);
        // 100 µs lands in [96,104) → upper edge 104
        assert_eq!(r.p50_us, 104);
        // ranks 9.5 and 9.9 round up to the slow request: 80 ms lands in
        // [73.7,81.9) ms → upper edge 81920 µs
        assert_eq!(r.p95_us, 81_920);
        assert_eq!(r.p99_us, 81_920);
        // below 8 µs every value has its own bucket; 2000 µs lands in
        // [1920,2048)
        assert_eq!(r.queue_wait_p50_us, 4);
        assert_eq!(r.queue_wait_p95_us, 2_048);
    }

    #[test]
    fn bucket_edges_tile_the_range_within_an_eighth() {
        let mut prev = 0;
        for us in (0..5_000u64).chain([1 << 20, (1 << 33) + 12_345, u64::MAX]) {
            let i = Histogram::bucket_of(us);
            assert!(i >= prev, "buckets must be monotone in the value");
            prev = i;
            let (lo, hi) = (Histogram::lower_edge(i), Histogram::lower_edge(i + 1));
            if i < BUCKETS - 1 {
                assert!(lo <= us && us < hi, "{us} outside [{lo},{hi})");
            }
            assert!(hi - lo <= (lo / 8).max(1), "[{lo},{hi}) wider than 1/8");
        }
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let r = ServeMetrics::new().report(0);
        assert_eq!((r.p50_us, r.p95_us, r.p99_us), (0, 0, 0));
        assert_eq!((r.queue_wait_p50_us, r.queue_wait_p95_us), (0, 0));
        assert_eq!(r.mean_batch, 0.0);
    }

    #[test]
    fn report_roundtrips_through_the_codec() {
        let m = ServeMetrics::new();
        m.on_admitted();
        m.on_dequeued(Duration::from_micros(17));
        m.on_completed(Duration::from_micros(42));
        m.on_internal(1);
        m.on_batch(1);
        let r = m.report(7);
        let bytes = r.encode_vec();
        assert_eq!(StatsReport::decode_vec(&bytes).unwrap(), r);
        assert!(StatsReport::decode_vec(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn cache_overlay_fills_fields_and_survives_the_codec() {
        let io = IoSnapshot {
            cache_hits: 10,
            cache_misses: 4,
            cache_evictions: 2,
            cache_resident_bytes: 1 << 20,
            ..IoSnapshot::default()
        };
        let r = ServeMetrics::new().report(0).with_io(&io);
        assert_eq!(r.cache_hits, 10);
        assert_eq!(r.cache_misses, 4);
        assert_eq!(r.cache_evictions, 2);
        assert_eq!(r.cache_resident_bytes, 1 << 20);
        let back = StatsReport::decode_vec(&r.encode_vec()).unwrap();
        assert_eq!(back, r);
        // A cacheless backend reports the neutral defaults.
        let plain = ServeMetrics::new()
            .report(0)
            .with_io(&IoSnapshot::default());
        assert_eq!(plain.cache_hits + plain.cache_misses, 0);
    }
}
