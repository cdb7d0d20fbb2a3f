//! The traced run: per-layer metrics, measured from outside.
//!
//! `--trace 1` replays a fixed number of seeded requests single-threaded.
//! Around every call into a layer the ledger records a span (name, start,
//! end, parent span, request id) in memory and writes them all to
//! `ledger/out/<workload>.seed<s>.trace.json` at exit. A direct request's
//! root span is the timed `search`; its stages — signature, plan, opens,
//! views, kernel — are then re-timed in isolation on the same inputs,
//! using the plan the outcome carries, and hang under the root as its
//! children (their intervals follow the root's: they are replays, flagged
//! so in the file). The root's self time is what the stages do not
//! account for. Counts (cache hits, bytes read, records scanned) are taken
//! as deltas around the root span only, so the replays never pollute
//! them. Probes inside the program are a later change (ROADMAP item 5).
//!
//! End-to-end numbers never come from here: `trace.overhead_ratio`
//! compares the traced root spans with an untraced pass over the same
//! requests.

use crate::check::Checker;
use crate::ingest::{Ingest, OpKind};
use crate::inputs::{substream, Inputs, Rng};
use crate::report::{json_str, Row};
use crate::stats::{median, percentile_ns};
use crate::sut::{self, Client, Outcome, Request, Served, Sharded, Single, K};
use crate::workloads::{Ctx, Kind, Measured};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Every per-layer metric, in the order of the README's table. A traced
/// run prints all of them; one a workload does not exercise reads 0 with
/// zero samples.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("series.kernel_ns_per_record", "ns"),
    ("series.kernel_share", "ratio"),
    ("repr.paa_ns", "ns"),
    ("pivot.signature_ns", "ns"),
    ("index.signature_us", "us"),
    ("index.build_skeleton_s", "s"),
    ("index.build_conversion_s", "s"),
    ("index.build_redistribution_s", "s"),
    ("index.skeleton_bytes", "bytes"),
    ("query.plan_us", "us"),
    ("query.plan_partitions", "count"),
    ("query.plan_clusters", "count"),
    ("query.records_scanned_per_query", "count"),
    ("query.scan_self_us", "us"),
    ("query.batch_gain", "ratio"),
    ("query.batch_share_ratio", "ratio"),
    ("query.batch_speedup_2t", "ratio"),
    ("query.delta_tax", "ratio"),
    ("dfs.open_hit_us", "us"),
    ("dfs.open_miss_us", "us"),
    ("dfs.cache_hit_ratio", "ratio"),
    ("dfs.cache_evictions_per_query", "count"),
    ("dfs.bytes_read_per_query", "bytes"),
    ("dfs.view_us", "us"),
    ("dfs.resident_mb", "MB"),
    ("dfs.warmed_bytes", "bytes"),
    ("dfs.write_amp", "ratio"),
    ("dfs.partitions_rewritten_per_flush", "count"),
    ("core.append_us_per_record", "us"),
    ("core.delete_us", "us"),
    ("core.flush_ms", "ms"),
    ("core.save_s", "s"),
    ("core.open_s", "s"),
    ("core.scatter_overhead_us", "us"),
    ("core.shard_skew", "ratio"),
    ("serve.rtt_us", "us"),
    ("serve.server_us", "us"),
    ("serve.wire_us", "us"),
    ("serve.queue_wait_us", "us"),
    ("serve.mean_batch", "count"),
    ("serve.codec_us", "us"),
    ("serve.response_bytes", "bytes"),
    ("serve.rejected", "count"),
    ("serve.deadline_missed", "count"),
    ("serve.client_retries", "count"),
    ("trace.overhead_ratio", "ratio"),
];

// ---- spans -------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub request: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// True for a stage re-timed after its root, not nested inside it.
    pub replay: bool,
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn push(
        &mut self,
        name: &'static str,
        request: u32,
        parent: Option<u32>,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns: (start - self.epoch).as_nanos() as u64,
            end_ns: (end - self.epoch).as_nanos() as u64,
            replay: parent.is_some(),
        });
        id
    }

    /// Times `f` as one span; returns its value, duration and span id.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u32,
        parent: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> (T, u64, u32) {
        let start = Instant::now();
        let value = std::hint::black_box(f());
        let end = Instant::now();
        let id = self.push(name, request, parent, start, end);
        (value, (end - start).as_nanos() as u64, id)
    }

    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut s = String::with_capacity(self.spans.len() * 96 + 64);
        s.push_str("{\"unit\": \"ns\", \"spans\": [\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let _ = write!(
                s,
                "{{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": {}, \"start\": {}, \"end\": {}, \"replay\": {}}}{}",
                sp.id,
                sp.parent.map_or("null".to_string(), |p| p.to_string()),
                sp.request,
                json_str(sp.name),
                sp.start_ns,
                sp.end_ns,
                sp.replay,
                if i + 1 == self.spans.len() { "\n" } else { ",\n" }
            );
        }
        s.push_str("]}\n");
        std::fs::write(path, s)
    }
}

// ---- the layer table -----------------------------------------------------------

/// Per-layer rows by name; starts with every metric at 0 / 0 samples.
struct Layers(BTreeMap<&'static str, (f64, usize)>);

impl Layers {
    fn new() -> Self {
        Self(
            PER_LAYER
                .iter()
                .map(|(name, _)| (*name, (0.0, 0)))
                .collect(),
        )
    }

    fn set(&mut self, name: &'static str, value: f64, n_samples: usize) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not in the per-layer table"));
        *slot = (value, n_samples);
    }

    fn rows(&self) -> Vec<Row> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let (value, n) = self.0[name];
                Row::reading(name, unit, value, n)
            })
            .collect()
    }
}

fn median_u64(ns: &[u64]) -> f64 {
    let mut v = ns.to_vec();
    v.sort_unstable();
    percentile_ns(&v, 0.5)
}

// ---- tracing direct requests ---------------------------------------------------

/// Per-request stage timings of the direct path, accumulated.
#[derive(Default)]
struct DirectTrace {
    untraced_ns: Vec<u64>,
    root_ns: Vec<u64>,
    paa_ns: Vec<u64>,
    pivot_ns: Vec<u64>,
    signature_ns: Vec<u64>,
    plan_ns: Vec<u64>,
    view_ns: Vec<u64>,
    self_ns: Vec<f64>,
    kernel_ns: u64,
    kernel_records: u64,
    open_hit_ns: Vec<u64>,
    open_miss_ns: Vec<u64>,
    partitions: u64,
    clusters: u64,
    records_scanned: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    bytes_read: u64,
}

/// Whether an open between two counter readings missed the block cache.
/// An index opened without a cache moves neither counter: its opens read
/// the filesystem every time, so they count as misses.
fn open_missed(before: &sut::Io, after: &sut::Io) -> bool {
    after.cache_misses > before.cache_misses || after.cache_hits == before.cache_hits
}

impl DirectTrace {
    /// One request: the root `search`, then its stages replayed under it.
    fn request(&mut self, tr: &mut Tracer, index: &Single, req: &Request, no: u32) -> Outcome {
        let io0 = index.io();
        let (out, root_ns, root) = tr.time("query.search", no, None, || index.search(req));
        let io1 = index.io();
        self.root_ns.push(root_ns);
        self.hits += io1.cache_hits - io0.cache_hits;
        self.misses += io1.cache_misses - io0.cache_misses;
        self.evictions += io1.cache_evictions - io0.cache_evictions;
        self.bytes_read += io1.bytes_read - io0.bytes_read;
        self.records_scanned += out.records_scanned;

        let q = &req.query;
        let parent = Some(root);
        let (mut paa, mut scratch) = (Vec::new(), sut::Scratch::new());
        self.paa_ns.push(
            tr.time("repr.paa", no, parent, || index.stage_paa(q, &mut paa))
                .1,
        );
        self.pivot_ns.push(
            tr.time("pivot.signature", no, parent, || {
                index.stage_pivot_signature(q, &mut scratch)
            })
            .1,
        );
        let (sig, signature_ns, _) = tr.time("index.signature", no, parent, || {
            index.stage_index_signature(q)
        });
        let (_, plan_ns, _) = tr.time("query.plan", no, parent, || index.stage_plan(&sig, q));
        self.signature_ns.push(signature_ns);
        self.plan_ns.push(plan_ns);

        let cutoff = out.results.get(K - 1).map_or(f64::INFINITY, |r| r.1);
        let (mut open_ns, mut view_ns, mut kernel_ns) = (0u64, 0u64, 0u64);
        let mut views = Vec::new();
        for (partition, nodes) in sut::plan_reads(&out) {
            self.partitions += 1;
            self.clusters += nodes.len() as u64;
            let before = index.io();
            let (reader, ns, _) = tr.time("dfs.open", no, parent, || index.stage_open(partition));
            if open_missed(&before, &index.io()) {
                self.open_miss_ns.push(ns);
            } else {
                self.open_hit_ns.push(ns);
            }
            open_ns += ns;
            let Some(reader) = reader else { continue };
            views.clear();
            view_ns += tr
                .time("dfs.view", no, parent, || {
                    sut::stage_views(&reader, nodes, &mut views)
                })
                .1;
            let ((visited, _), ns, _) = tr.time("series.kernel", no, parent, || {
                sut::stage_kernel(&views, q, cutoff)
            });
            kernel_ns += ns;
            self.kernel_records += visited;
        }
        self.view_ns.push(view_ns);
        self.kernel_ns += kernel_ns;
        self.self_ns
            .push(root_ns as f64 - (signature_ns + plan_ns + open_ns + view_ns + kernel_ns) as f64);
        out
    }

    /// An untraced pass over the requests, then the traced pass, then the
    /// open probe: `probes` seeded partition opens, split by hit or miss.
    fn replay(
        tr: &mut Tracer,
        index: &Single,
        requests: &[&Request],
        probes: usize,
        seed: u64,
        checks: &mut Checker,
    ) -> Self {
        let mut t = Self::default();
        // page cache and allocator settle before either pass is timed
        for req in requests.iter().take(64) {
            std::hint::black_box(index.search(req));
        }
        let plain: Vec<Outcome> = requests
            .iter()
            .map(|req| {
                let sent = Instant::now();
                let out = index.search(req);
                t.untraced_ns.push(sent.elapsed().as_nanos() as u64);
                out
            })
            .collect();
        for (no, (req, plain)) in requests.iter().zip(&plain).enumerate() {
            let out = t.request(tr, index, req, no as u32);
            checks.attempted += 2;
            let _ = checks.shape("traced", &out) && checks.identical("traced", &out, plain);
        }
        let ids = index.partition_ids();
        let mut rng = Rng::new(substream(seed, 300));
        for _ in 0..probes.min(ids.len() * 8) {
            let partition = ids[rng.below(ids.len())];
            let before = index.io();
            let (_, ns, _) = tr.time("dfs.open.probe", u32::MAX, None, || {
                index.stage_open(partition)
            });
            if open_missed(&before, &index.io()) {
                t.open_miss_ns.push(ns);
            } else {
                t.open_hit_ns.push(ns);
            }
        }
        t
    }

    fn fill(&self, layers: &mut Layers, index: &Single) -> Vec<Row> {
        let n = self.root_ns.len();
        let per_query = |total: u64| total as f64 / n.max(1) as f64;
        let root_total: u64 = self.root_ns.iter().sum();
        layers.set(
            "series.kernel_ns_per_record",
            self.kernel_ns as f64 / self.kernel_records.max(1) as f64,
            self.kernel_records as usize,
        );
        layers.set(
            "series.kernel_share",
            self.kernel_ns as f64 / root_total.max(1) as f64,
            n,
        );
        layers.set("repr.paa_ns", median_u64(&self.paa_ns), n);
        layers.set("pivot.signature_ns", median_u64(&self.pivot_ns), n);
        layers.set(
            "index.signature_us",
            median_u64(&self.signature_ns) / 1e3,
            n,
        );
        layers.set("query.plan_us", median_u64(&self.plan_ns) / 1e3, n);
        layers.set("query.plan_partitions", per_query(self.partitions), n);
        layers.set("query.plan_clusters", per_query(self.clusters), n);
        layers.set(
            "query.records_scanned_per_query",
            per_query(self.records_scanned),
            n,
        );
        layers.set("query.scan_self_us", median(&self.self_ns) / 1e3, n);
        layers.set(
            "dfs.open_hit_us",
            median_u64(&self.open_hit_ns) / 1e3,
            self.open_hit_ns.len(),
        );
        layers.set(
            "dfs.open_miss_us",
            median_u64(&self.open_miss_ns) / 1e3,
            self.open_miss_ns.len(),
        );
        let lookups = self.hits + self.misses;
        layers.set(
            "dfs.cache_hit_ratio",
            if lookups == 0 {
                0.0
            } else {
                self.hits as f64 / lookups as f64
            },
            lookups as usize,
        );
        layers.set(
            "dfs.cache_evictions_per_query",
            per_query(self.evictions),
            n,
        );
        layers.set("dfs.bytes_read_per_query", per_query(self.bytes_read), n);
        layers.set("dfs.view_us", median_u64(&self.view_ns) / 1e3, n);
        layers.set(
            "dfs.resident_mb",
            index.io().cache_resident_bytes as f64 / 1e6,
            1,
        );
        layers.set("dfs.warmed_bytes", index.warmed_bytes as f64, 1);
        layers.set(
            "trace.overhead_ratio",
            median_u64(&self.root_ns) / median_u64(&self.untraced_ns).max(1.0),
            n,
        );
        let nonneg = self.self_ns.iter().filter(|&&s| s >= 0.0).count();
        vec![Row::reading(
            "query.scan_self_nonneg_share",
            "ratio",
            nonneg as f64 / n.max(1) as f64,
            n,
        )]
    }
}

// ---- the traced runs ---------------------------------------------------------------

/// The seeded request sequence a traced run replays.
fn draw(pool: &[Request], count: usize, seed: u64) -> Vec<&Request> {
    let mut rng = Rng::new(substream(seed, 100));
    (0..count).map(|_| &pool[rng.below(pool.len())]).collect()
}

fn timed<T>(f: impl FnOnce() -> Result<T, String>) -> Result<(T, f64), String> {
    let begun = Instant::now();
    let value = f()?;
    Ok((value, begun.elapsed().as_secs_f64()))
}

pub fn run(ctx: &Ctx) -> Result<Measured, String> {
    let mut checks = Checker::default();
    let mut layers = Layers::new();
    let mut tr = Tracer::new();
    let inputs = Inputs::generate(&ctx.scale, ctx.seed);
    let scale = &ctx.scale;
    let cfg = sut::index_config(scale.n, ctx.nproc);

    // One single index, built once; its report and a timed save and open
    // give the build-side layer metrics on every workload.
    let dir = ctx.scratch.sub("index");
    let build = sut::build_single(&inputs.data, &dir, cfg)?;
    layers.set("index.build_skeleton_s", build.skeleton_s, 1);
    layers.set("index.build_conversion_s", build.conversion_s, 1);
    layers.set("index.build_redistribution_s", build.redistribution_s, 1);
    layers.set("index.skeleton_bytes", build.skeleton_bytes as f64, 1);
    let (index, open_s) = timed(|| match ctx.kind {
        Kind::IngestMixed => Single::open_rw(&dir),
        Kind::DirectCold => Single::open_cached(&dir, scale.cold_cache_bytes),
        _ => Single::open_cached(&dir, scale.warm_cache_bytes),
    })?;
    let ((), save_s) = timed(|| index.save(&ctx.scratch.sub("saved")))?;
    let _ = std::fs::remove_dir_all(ctx.scratch.sub("saved"));
    layers.set("core.open_s", open_s, 1);
    layers.set("core.save_s", save_s, 1);

    let requests = draw(&inputs.pool, scale.traced_requests, ctx.seed);
    let mut info = Vec::new();
    match ctx.kind {
        Kind::DirectWarm | Kind::DirectCold => {
            let t = DirectTrace::replay(
                &mut tr,
                &index,
                &requests,
                scale.open_probes,
                ctx.seed,
                &mut checks,
            );
            info.extend(t.fill(&mut layers, &index));
        }
        Kind::ServeClosed => {
            let server = Served::start(&index)?;
            let served = trace_served(&mut tr, &server, &requests, &mut checks)?;
            let t = DirectTrace::replay(
                &mut tr,
                &index,
                &requests,
                scale.open_probes,
                ctx.seed,
                &mut checks,
            );
            info.extend(t.fill(&mut layers, &index));
            served.fill(&mut layers, &server.stats(), median_u64(&t.root_ns));
            server.shutdown();
        }
        Kind::BatchSharded => {
            let shard_dir = ctx.scratch.sub("shards");
            sut::build_sharded(&inputs.data, &shard_dir, cfg, scale.shards)?;
            let (set, open_s) = timed(|| Sharded::open_cached(&shard_dir, scale.warm_cache_bytes))?;
            layers.set("core.open_s", open_s, 1);
            trace_batches(
                &mut tr,
                &set,
                &index,
                &requests,
                scale.batch,
                &mut layers,
                &mut checks,
            )?;
            let t = DirectTrace::replay(
                &mut tr,
                &index,
                &requests,
                scale.open_probes,
                ctx.seed,
                &mut checks,
            );
            info.extend(t.fill(&mut layers, &index));
            layers.set("dfs.warmed_bytes", set.warmed_bytes as f64, 1);
            layers.set(
                "dfs.resident_mb",
                set.io().cache_resident_bytes as f64 / 1e6,
                1,
            );
        }
        Kind::IngestMixed => {
            trace_ingest(&mut tr, ctx, &index, &inputs.pool, &mut layers, &mut checks)?;
            // the read stages, on the index as the last flush left it
            let shorter = &requests[..requests.len().min(scale.traced_requests / 4)];
            let t = DirectTrace::replay(
                &mut tr,
                &index,
                shorter,
                scale.open_probes,
                ctx.seed,
                &mut checks,
            );
            info.extend(t.fill(&mut layers, &index));
        }
    }

    std::fs::create_dir_all(crate::report::out_dir()).map_err(|e| e.to_string())?;
    let path =
        crate::report::out_dir().join(format!("{}.seed{}.trace.json", ctx.kind.name(), ctx.seed));
    tr.write_json(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {} spans to {}", tr.spans.len(), path.display());
    info.push(Row::reading(
        "trace.spans",
        "count",
        tr.spans.len() as f64,
        1,
    ));
    Ok(Measured {
        rows: layers.rows(),
        info,
        checks,
    })
}

// ---- serve -------------------------------------------------------------------------

#[derive(Default)]
struct ServedTrace {
    sent: u64,
    rtt_ns: Vec<u64>,
    ping_ns: Vec<u64>,
    codec_ns: Vec<u64>,
    response_bytes: u64,
}

/// The requests through one client connection, one at a time, each
/// followed by a ping: an empty round trip is the wire, and what a search
/// takes beyond that and the engine is the admission queue and the codec.
fn trace_served(
    tr: &mut Tracer,
    server: &Served,
    requests: &[&Request],
    checks: &mut Checker,
) -> Result<ServedTrace, String> {
    let mut client = Client::connect(server.addr())?;
    let mut t = ServedTrace::default();
    for (no, req) in requests.iter().enumerate() {
        let no = no as u32;
        let (reply, rtt_ns, root) = tr.time("serve.rtt", no, None, || client.search(req));
        checks.attempted += 1;
        t.sent += 1;
        let out = match reply {
            Ok(out) => out,
            Err(why) => {
                checks.refused("served search", &why, 1);
                continue;
            }
        };
        checks.shape("served", &out);
        t.rtt_ns.push(rtt_ns);
        let (pong, ping_ns, _) = tr.time("serve.ping", no, Some(root), || client.ping());
        pong?;
        t.ping_ns.push(ping_ns);
        let messages = sut::wire_messages(req, &out);
        let (bytes, codec_ns, _) = tr.time("serve.codec", no, Some(root), || {
            sut::stage_codec(&messages)
        });
        t.codec_ns.push(codec_ns);
        t.response_bytes += bytes? as u64;
    }
    Ok(t)
}

impl ServedTrace {
    fn fill(&self, layers: &mut Layers, stats: &sut::ServeStats, engine_p50_ns: f64) {
        let n = self.rtt_ns.len();
        let rtt_us = median_u64(&self.rtt_ns) / 1e3;
        let wire_us = median_u64(&self.ping_ns) / 1e3;
        layers.set("serve.rtt_us", rtt_us, n);
        // the server's own histogram has power-of-two buckets: this reads
        // the upper edge of the median's bucket, good to a factor of two
        layers.set(
            "serve.server_us",
            stats.p50_us as f64,
            stats.completed as usize,
        );
        layers.set("serve.wire_us", wire_us, n);
        // what the serving layer adds beyond an empty round trip and the
        // engine: the admission queue's wait (and the codec)
        layers.set(
            "serve.queue_wait_us",
            rtt_us - wire_us - engine_p50_ns / 1e3,
            n,
        );
        layers.set("serve.mean_batch", stats.mean_batch, stats.batches as usize);
        layers.set("serve.codec_us", median_u64(&self.codec_ns) / 1e3, n);
        layers.set(
            "serve.response_bytes",
            self.response_bytes as f64 / n.max(1) as f64,
            n,
        );
        layers.set("serve.rejected", stats.rejected as f64, 1);
        layers.set("serve.deadline_missed", stats.deadline_missed as f64, 1);
        // a retried request is admitted twice
        layers.set(
            "serve.client_retries",
            stats.admitted.saturating_sub(self.sent) as f64,
            1,
        );
    }
}

// ---- batch + shards ----------------------------------------------------------------

/// The same batches four ways: sharded at one thread (the root), as
/// sequential searches, at two threads, and on the single index.
fn trace_batches(
    tr: &mut Tracer,
    set: &Sharded,
    single: &Single,
    requests: &[&Request],
    batch: usize,
    layers: &mut Layers,
    checks: &mut Checker,
) -> Result<(), String> {
    let (mut gain, mut share, mut speedup, mut overhead_us, mut skew) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (no, chunk) in requests.chunks(batch).enumerate() {
        let no = no as u32;
        let reqs: Vec<Request> = chunk.iter().map(|&r| r.clone()).collect();
        let io0 = set.io();
        let (outs, root_ns, root) =
            tr.time("query.search_many", no, None, || set.search_many(&reqs, 1));
        let opened = set.io().partitions_opened - io0.partitions_opened;
        let wanted: usize = outs.iter().map(|o| o.partitions_opened).sum();
        share.push(wanted as f64 / opened.max(1) as f64);

        let parent = Some(root);
        let (_, sequential_ns, _) = tr.time("query.search_sequential", no, parent, || {
            reqs.iter().map(|r| set.search(r)).collect::<Vec<_>>()
        });
        gain.push(sequential_ns as f64 / root_ns as f64);
        let (_, two_ns, _) = tr.time("query.search_many_2t", no, parent, || {
            set.search_many(&reqs, 2)
        });
        speedup.push(root_ns as f64 / two_ns as f64);
        let (direct, single_ns, _) = tr.time("core.single_search_many", no, parent, || {
            single.search_many(&reqs)
        });
        overhead_us.push((root_ns as f64 - single_ns as f64) / reqs.len() as f64 / 1e3);
        let (_, per_shard) = set.search_many_status(&reqs, 1)?;
        let mean = per_shard.iter().sum::<u64>() as f64 / per_shard.len().max(1) as f64;
        skew.push(per_shard.iter().copied().max().unwrap_or(0) as f64 / mean.max(1.0));

        checks.attempted += reqs.len() as u64;
        for (got, want) in outs.iter().zip(&direct) {
            let _ = checks.shape("sharded", got) && checks.identical("sharded", got, want);
        }
    }
    let n = gain.len();
    layers.set("query.batch_gain", median(&gain), n);
    layers.set("query.batch_share_ratio", median(&share), n);
    layers.set("query.batch_speedup_2t", median(&speedup), n);
    layers.set("core.scatter_overhead_us", median(&overhead_us), n);
    layers.set("core.shard_skew", median(&skew), n);
    Ok(())
}

// ---- ingest ------------------------------------------------------------------------

/// Two whole cycles with every write timed, and the same probe queries
/// timed with the delta full and again right after the flush.
fn trace_ingest(
    tr: &mut Tracer,
    ctx: &Ctx,
    index: &Single,
    pool: &[Request],
    layers: &mut Layers,
    checks: &mut Checker,
) -> Result<(), String> {
    let mut ingest = Ingest::new(index, pool, ctx.scale, ctx.seed);
    let probes = &pool[..pool.len().min(256)];
    let probe_p50 = |tr: &mut Tracer, name: &'static str, cycle: u32| {
        let ns: Vec<u64> = probes
            .iter()
            .map(|req| tr.time(name, cycle, None, || index.search(req)).1)
            .collect();
        median_u64(&ns)
    };
    let (mut append_ns, mut appended, mut delete_ns) = (0u64, 0u64, Vec::new());
    let (mut flush_ms, mut rewritten, mut amp, mut tax) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for cycle in 0..ctx.scale.traced_cycles as u32 {
        let rounds = ingest.rounds(None)?;
        for op in &rounds.ops {
            let name = match op.kind {
                OpKind::Append => "core.append_batch",
                OpKind::Delete => "core.delete",
                OpKind::Search => "query.search",
            };
            tr.push(
                name,
                cycle,
                None,
                op.start,
                op.start + std::time::Duration::from_nanos(op.ns),
            );
        }
        append_ns += rounds.latencies(OpKind::Append).iter().sum::<u64>();
        appended += rounds.appended.len() as u64;
        delete_ns.extend(rounds.latencies(OpKind::Delete));

        let pending_p50 = probe_p50(tr, "query.search.delta_pending", cycle);
        let written = index.io().bytes_written;
        let (flushed, _, _) = tr.time("core.flush", cycle, None, || ingest.flush());
        let (flush_s, flush) = flushed?;
        let flushed_p50 = probe_p50(tr, "query.search.flushed", cycle);
        tax.push(pending_p50 / flushed_p50.max(1.0));
        flush_ms.push(flush_s * 1e3);
        rewritten.push(flush.partitions_rewritten as f64);
        let user_bytes: usize = rounds.appended.iter().map(|v| v.len() * 4).sum();
        amp.push((index.io().bytes_written - written) as f64 / user_bytes.max(1) as f64);
        checks.attempted += 2 * probes.len() as u64;
    }
    ingest.final_probe();
    checks.merge(std::mem::take(&mut ingest.checks));
    let cycles = flush_ms.len();
    layers.set(
        "core.append_us_per_record",
        append_ns as f64 / appended.max(1) as f64 / 1e3,
        appended as usize,
    );
    layers.set(
        "core.delete_us",
        median_u64(&delete_ns) / 1e3,
        delete_ns.len(),
    );
    layers.set("core.flush_ms", median(&flush_ms), cycles);
    layers.set(
        "dfs.partitions_rewritten_per_flush",
        median(&rewritten),
        cycles,
    );
    layers.set("dfs.write_amp", median(&amp), cycles);
    layers.set("query.delta_tax", median(&tax), cycles);
    Ok(())
}
