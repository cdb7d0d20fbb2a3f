//! The system under test, as the ledger sees it.
//!
//! This is the ONLY file of the ledger that names items of the program.
//! It keeps to the unified surface the roadmap's facade diet preserves —
//! `SearchRequest` / `Climber::search` / `search_many`, `ShardedClimber`,
//! `Server` / `ServeClient`, `append_batch` / `delete` / `flush` / `save`,
//! `open_with_cache`, `open_rw` — plus the public stage functions the
//! traced run re-times. It never touches the `#[deprecated]` `knn*`
//! wrappers, `BatchRequest`, quantisation or compression knobs, so the
//! planned deletions cannot break the benchmark; a rename in the program
//! is a one-file fix here.

use climber_core::dfs::format::{Decode, Encode, PartitionReader};
use climber_core::dfs::page::ClusterView;
use climber_core::dfs::store::{DiskStore, PartitionStore};
use climber_core::pivot::signature::{DualSignature, SignatureScratch};
use climber_core::query::adaptive::plan_adaptive;
use climber_core::repr::paa::paa_into;
use climber_core::series::dataset::Dataset;
use climber_core::series::distance::{ed_early_abandon, sq_ed};
use climber_core::series::gen::{noisy_query_workload, Domain};
use climber_core::series::ground_truth::exact_knn_batch;
use climber_core::series::kernels;
use climber_core::{
    BuildOptions, CacheConfig, Climber, ClimberConfig, ClimberError, IoSnapshot, QueryOutcome,
    RecoveryPolicy, SearchRequest, ShardedClimber,
};
use climber_serve::protocol::{Request as WireRequest, Response as WireResponse};
use climber_serve::{ServeClient, ServeConfig, Server, StatsReport};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;

/// Answer size of every request.
pub const K: usize = 100;
/// Partition-cap multiplier of Adaptive-4X, the paper's default variant.
pub const ADAPTIVE_FACTOR: usize = 4;
/// Relative magnitude of the noise added to query series.
pub const QUERY_NOISE: f64 = 0.1;

pub type Request = SearchRequest;
pub type Outcome = QueryOutcome;
pub type Io = IoSnapshot;
pub type ServeStats = StatsReport;
pub type Signature = DualSignature;
pub type Scratch = SignatureScratch;
pub type Reader = PartitionReader;
pub type View = ClusterView;

fn err(e: ClimberError) -> String {
    e.to_string()
}

// ---- inputs ---------------------------------------------------------------

/// The raw series handed to the program; series `i` has id `i`.
pub struct Data(Dataset);

impl Data {
    /// `n` random-walk series of length 256, a pure function of `seed`.
    pub fn generate(n: usize, seed: u64) -> Self {
        Self(Domain::RandomWalk.generate(n, seed))
    }

    pub fn len(&self) -> usize {
        self.0.num_series()
    }

    pub fn get(&self, id: u64) -> Option<&[f32]> {
        ((id as usize) < self.len()).then(|| self.0.get(id))
    }

    /// Appends a series under the next id, as the index's appends do.
    pub fn push(&mut self, values: &[f32]) -> u64 {
        self.0.push(values)
    }

    /// Series `from..` as owned vectors (an append stream).
    pub fn to_vecs(&self) -> Vec<Vec<f32>> {
        self.0.iter().map(|(_, v)| v.to_vec()).collect()
    }

    /// `count` members perturbed with Gaussian noise.
    pub fn noisy_queries(&self, count: usize, seed: u64) -> Vec<Vec<f32>> {
        noisy_query_workload(&self.0, count, QUERY_NOISE, seed)
    }

    /// Exact `k` nearest neighbours of every query by full scan.
    pub fn brute_force(&self, queries: &[Vec<f32>], k: usize) -> Vec<Vec<(u64, f64)>> {
        exact_knn_batch(&self.0, queries, k)
    }
}

/// Squared Euclidean distance, the value every answer is checked against.
pub fn distance(a: &[f32], b: &[f32]) -> f64 {
    sq_ed(a, b)
}

/// The request every workload sends: 100-NN under Adaptive-4X.
pub fn request(query: &[f32]) -> Request {
    SearchRequest::new(query, K).adaptive(ADAPTIVE_FACTOR)
}

/// The distance-kernel tier this host dispatches to.
pub fn kernel_tier() -> &'static str {
    kernels::detect().name()
}

/// The experiment configuration at size `n` (the values of
/// `climber_bench::experiment_config`, written out so that an edit to
/// that crate cannot silently move the benchmark).
pub fn index_config(n: usize, threads: usize) -> ClimberConfig {
    let capacity = 1_000u64.min((n as u64 / 8).max(50));
    let partitions = (n as u64 / capacity).max(1);
    ClimberConfig::default()
        .with_paa_segments(16)
        .with_pivots(200)
        .with_prefix_len(10)
        .with_capacity(capacity)
        .with_alpha(0.25)
        .with_epsilon(2)
        .with_max_centroids((partitions / 3).clamp(4, 24) as usize)
        .with_seed(0xC11B)
        .with_workers(threads)
}

pub fn describe_config(cfg: &ClimberConfig) -> String {
    format!("{cfg:?}")
}

// ---- building -------------------------------------------------------------

/// What the program's `BuildReport` says about one build.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildTimes {
    pub skeleton_s: f64,
    pub conversion_s: f64,
    pub redistribution_s: f64,
    pub skeleton_bytes: usize,
}

/// Builds and seals a single index under `dir`; the built handle is
/// dropped, every workload reopens the directory the way it serves it.
pub fn build_single(ds: &Data, dir: &Path, cfg: ClimberConfig) -> Result<BuildTimes, String> {
    let options = BuildOptions::default().with_threads(cfg.workers);
    let built = Climber::build_on_disk_with(&ds.0, dir, cfg, options).map_err(err)?;
    let r = built
        .report()
        .ok_or("a fresh build carries no BuildReport")?;
    Ok(BuildTimes {
        skeleton_s: r.skeleton_secs,
        conversion_s: r.conversion_secs,
        redistribution_s: r.redistribution_secs,
        skeleton_bytes: r.skeleton_bytes,
    })
}

/// Builds and seals a `shards`-way shard set under `dir`.
pub fn build_sharded(
    ds: &Data,
    dir: &Path,
    cfg: ClimberConfig,
    shards: usize,
) -> Result<(), String> {
    let options = BuildOptions::default().with_threads(cfg.workers);
    ShardedClimber::build_on_disk_with(&ds.0, dir, cfg, options, shards)
        .map(drop)
        .map_err(err)
}

// ---- a single index -------------------------------------------------------

/// What one flush did, from the program's `MaintenanceReport`.
#[derive(Debug, Clone, Copy)]
pub struct FlushInfo {
    pub partitions_rewritten: usize,
    pub records_folded: u64,
}

/// One opened single index (shared with a server when one is started).
#[derive(Clone)]
pub struct Single {
    inner: Arc<Climber<DiskStore>>,
    /// Bytes the open's validation reads fed into the block cache.
    pub warmed_bytes: u64,
}

impl Single {
    /// Read path: strict open behind a block cache of `cache_bytes`.
    pub fn open_cached(dir: &Path, cache_bytes: usize) -> Result<Self, String> {
        let cache = CacheConfig::default().with_capacity_bytes(cache_bytes);
        let (c, report) =
            Climber::open_with_cache(dir, RecoveryPolicy::Strict, cache).map_err(err)?;
        Ok(Self {
            inner: Arc::new(c),
            warmed_bytes: report.warmed_bytes,
        })
    }

    /// Write path: the plain read-write open, no cache.
    pub fn open_rw(dir: &Path) -> Result<Self, String> {
        Ok(Self {
            inner: Arc::new(Climber::open_rw(dir).map_err(err)?),
            warmed_bytes: 0,
        })
    }

    pub fn search(&self, req: &Request) -> Outcome {
        self.inner.search(req)
    }

    pub fn search_many(&self, reqs: &[Request]) -> Vec<Outcome> {
        self.inner.search_many(reqs)
    }

    /// The program's serve-phase I/O and cache counters.
    pub fn io(&self) -> Io {
        self.inner.serve_io()
    }

    pub fn append_batch(&self, series: &[Vec<f32>]) -> Result<Vec<u64>, String> {
        self.inner.append_batch(series).map_err(err)
    }

    pub fn delete(&self, id: u64) -> Result<bool, String> {
        self.inner.delete(id).map_err(err)
    }

    pub fn flush(&self) -> Result<FlushInfo, String> {
        let r = self.inner.flush().map_err(err)?;
        Ok(FlushInfo {
            partitions_rewritten: r.partitions_rewritten,
            records_folded: r.records_folded,
        })
    }

    pub fn save(&self, dir: &Path) -> Result<(), String> {
        self.inner.save(dir).map(drop).map_err(err)
    }

    /// Ids of every stored partition (the traced run's open probe draws
    /// from them).
    pub fn partition_ids(&self) -> Vec<u32> {
        self.inner.store().ids()
    }

    // -- stage functions: the public pieces `search` is made of, timed in
    // -- isolation by the traced run on the inputs of a real request.

    /// repr: PAA of the query.
    pub fn stage_paa(&self, query: &[f32], out: &mut Vec<f64>) {
        out.clear();
        paa_into(query, self.inner.skeleton().paa_segments, out);
    }

    /// pivot: PAA + pivot-permutation prefix with reusable scratch.
    pub fn stage_pivot_signature(&self, query: &[f32], scratch: &mut Scratch) -> Signature {
        let sk = self.inner.skeleton();
        DualSignature::extract_with(query, &sk.pivots, sk.paa_segments, sk.prefix_len, scratch)
    }

    /// index: the skeleton's own signature extraction, as `search` calls it.
    pub fn stage_index_signature(&self, query: &[f32]) -> Signature {
        self.inner.skeleton().extract_signature(query)
    }

    /// query: the adaptive plan for an extracted signature.
    pub fn stage_plan(&self, sig: &Signature, query: &[f32]) -> usize {
        let plan = plan_adaptive(
            self.inner.skeleton(),
            sig,
            K,
            ADAPTIVE_FACTOR,
            tie_seed(query),
        );
        plan.num_partitions()
    }

    /// dfs: one partition open through the store (and its cache).
    pub fn stage_open(&self, partition: u32) -> Option<Reader> {
        self.inner.store().open(partition).ok()
    }
}

/// dfs: the zero-copy views of the planned clusters of one open partition.
pub fn stage_views(reader: &Reader, nodes: &[u64], out: &mut Vec<View>) {
    out.extend(nodes.iter().filter_map(|&n| reader.cluster_view(n)));
}

/// series: the early-abandoning kernel over every record of `views` at a
/// fixed cutoff. Returns `(records visited, records within the cutoff)`.
pub fn stage_kernel(views: &[View], query: &[f32], cutoff: f64) -> (u64, u64) {
    let mut within = 0u64;
    let mut visited = 0u64;
    for v in views {
        visited += v.for_each(|_, vals| {
            if ed_early_abandon(query, vals, cutoff).is_some() {
                within += 1;
            }
        });
    }
    (visited, within)
}

/// The per-query tie-break seed `search` derives (FNV-1a over the value
/// bits). Only `stage_plan` uses it, so that the re-timed plan walks the
/// same branches as the real one; a drift would change a timing slightly,
/// never an answer.
fn tie_seed(query: &[f32]) -> u64 {
    query.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
        (h ^ v.to_bits() as u64).wrapping_mul(0x100_0000_01b3)
    })
}

/// The physical reads of an executed plan: partition → clusters.
pub fn plan_reads(out: &Outcome) -> impl Iterator<Item = (u32, &[u64])> {
    out.plan
        .reads
        .iter()
        .map(|(&p, nodes)| (p, nodes.as_slice()))
}

// ---- a shard set ----------------------------------------------------------

pub struct Sharded {
    inner: ShardedClimber<DiskStore>,
    pub warmed_bytes: u64,
}

impl Sharded {
    pub fn open_cached(dir: &Path, cache_bytes: usize) -> Result<Self, String> {
        let cache = CacheConfig::default().with_capacity_bytes(cache_bytes);
        let (inner, report) =
            ShardedClimber::open_with_cache(dir, RecoveryPolicy::Strict, cache).map_err(err)?;
        Ok(Self {
            inner,
            warmed_bytes: report.warmed_bytes,
        })
    }

    pub fn search(&self, req: &Request) -> Outcome {
        self.inner.search(req)
    }

    pub fn search_many(&self, reqs: &[Request], threads: usize) -> Vec<Outcome> {
        self.inner.search_many_with_threads(reqs, threads)
    }

    /// `search_many` plus, per shard, the records it scanned; `Err` when
    /// any shard reports itself unhealthy.
    pub fn search_many_status(
        &self,
        reqs: &[Request],
        threads: usize,
    ) -> Result<(Vec<Outcome>, Vec<u64>), String> {
        let (out, status) = self.inner.search_many_with_status(reqs, threads);
        if let Some(bad) = status.iter().find(|s| !s.healthy) {
            return Err(format!("shard {} unhealthy", bad.shard));
        }
        Ok((out, status.iter().map(|s| s.records_scanned).collect()))
    }

    pub fn io(&self) -> Io {
        self.inner.serve_io()
    }
}

// ---- serving --------------------------------------------------------------

/// A server with the default `ServeConfig` over one index, on an
/// OS-assigned loopback port.
pub struct Served {
    server: Server,
}

impl Served {
    pub fn start(index: &Single) -> Result<Self, String> {
        let server = Server::start(
            Arc::clone(&index.inner),
            "127.0.0.1:0",
            ServeConfig::default(),
        )
        .map_err(err)?;
        Ok(Self { server })
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    pub fn stats(&self) -> ServeStats {
        self.server.stats()
    }

    /// Drains admitted requests and joins every server thread.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

pub fn describe_serve_config() -> String {
    format!("{:?}", ServeConfig::default())
}

pub struct Client(ServeClient);

impl Client {
    pub fn connect(addr: SocketAddr) -> Result<Self, String> {
        ServeClient::connect(addr).map(Self).map_err(err)
    }

    /// One empty round trip: the wire and the connection handler, no
    /// queue and no engine.
    pub fn ping(&mut self) -> Result<(), String> {
        self.0.ping().map_err(err)
    }

    /// One served search. Refusals (`Overloaded`, `DeadlineExceeded`) and
    /// transport failures all come back as `Err`.
    pub fn search(&mut self, req: &Request) -> Result<Outcome, String> {
        self.0.search(req).map_err(err)
    }
}

/// The two wire messages of one served search, as the protocol frames them.
pub struct WireMessages(WireRequest, WireResponse);

pub fn wire_messages(req: &Request, out: &Outcome) -> WireMessages {
    WireMessages(
        WireRequest::Search(req.clone()),
        WireResponse::Outcome(out.clone()),
    )
}

/// serve: one encode + decode of the request and of the response, the
/// codec work a served search adds at both ends. Returns the response's
/// encoded size.
pub fn stage_codec(messages: &WireMessages) -> Result<usize, String> {
    let request = messages.0.encode_vec();
    WireRequest::decode_vec(&request)?;
    let response = messages.1.encode_vec();
    WireResponse::decode_vec(&response)?;
    Ok(response.len())
}
