//! The five workloads, untraced: set-up, answer checks, measured window.
//!
//! Every loop is **closed** — analyst tools and batch jobs block on their
//! reply — and generated from this one process with at most `nproc`
//! threads. Why each workload exists is recorded in `BENCHMARK.json` and
//! the README; in short, each one puts a different layer on the blocking
//! path so a change to one layer has a workload that shows it and
//! workloads that must not move.

use crate::check::Checker;
use crate::inputs::{substream, Inputs, Rng, Scale};
use crate::report::{dir_bytes, release_free_heap, rss_mb, Row};
use crate::speed::{Reading, SpeedMeter};
use crate::stats::{Better, Sample, Sliced};
use crate::sut::{self, Client, Data, Outcome, Request, Served, Sharded, Single, K};
use std::path::{Path, PathBuf};
use std::time::Instant;

pub const NAMES: [&str; 5] = [
    "serve-closed",
    "direct-warm",
    "direct-cold",
    "batch-sharded",
    "ingest-mixed",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ServeClosed,
    DirectWarm,
    DirectCold,
    BatchSharded,
    IngestMixed,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::ServeClosed,
        Kind::DirectWarm,
        Kind::DirectCold,
        Kind::BatchSharded,
        Kind::IngestMixed,
    ];

    pub fn name(self) -> &'static str {
        NAMES[self as usize]
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// A directory under `ledger/out/` that lives as long as one run.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn create(root: &Path, tag: &str) -> Result<Self, String> {
        let dir = root.join(format!("{tag}.pid{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("scratch {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// A fresh, not yet existing sub-directory path.
    pub fn sub(&self, name: &str) -> PathBuf {
        let dir = self.0.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Prints how long the phase since the last call took (set-up cost is
/// most of a run outside its window; a human tuning `--seconds` wants it).
pub fn phase(name: &str, since: &mut Instant) {
    println!("  {name:<28} {:>7.2} s", since.elapsed().as_secs_f64());
    *since = Instant::now();
}

/// Everything one run needs to know.
pub struct Ctx {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: u64,
    pub scale: Scale,
    pub nproc: usize,
    pub scratch: ScratchDir,
}

/// What a run measured: the contract's metrics, informational extras,
/// and the tally of checks.
pub struct Measured {
    pub rows: Vec<Row>,
    pub info: Vec<Row>,
    pub checks: Checker,
}

// ---- the opened system ------------------------------------------------------

/// The opened system a workload sends requests to.
pub enum Target {
    Direct(Single),
    Sharded(Sharded),
    Served { index: Single, server: Served },
}

/// One thread's way of sending a call: `reqs` in, one outcome each out.
pub type Caller<'a> =
    Box<dyn FnMut(&[Request], &mut Vec<Outcome>) -> Result<(), String> + Send + 'a>;

impl Target {
    /// From nothing to ready: build, seal the directory, then the open
    /// this workload serves from. `setup_s` times exactly this plus the
    /// first answer.
    pub fn set_up(
        kind: Kind,
        data: &Data,
        dir: &Path,
        scale: &Scale,
        nproc: usize,
    ) -> Result<Self, String> {
        let cfg = sut::index_config(scale.n, nproc);
        match kind {
            Kind::BatchSharded => {
                sut::build_sharded(data, dir, cfg, scale.shards)?;
                Ok(Self::Sharded(Sharded::open_cached(
                    dir,
                    scale.warm_cache_bytes,
                )?))
            }
            Kind::IngestMixed => {
                sut::build_single(data, dir, cfg)?;
                Ok(Self::Direct(Single::open_rw(dir)?))
            }
            Kind::DirectCold => {
                sut::build_single(data, dir, cfg)?;
                Ok(Self::Direct(Single::open_cached(
                    dir,
                    scale.cold_cache_bytes,
                )?))
            }
            Kind::DirectWarm => {
                sut::build_single(data, dir, cfg)?;
                Ok(Self::Direct(Single::open_cached(
                    dir,
                    scale.warm_cache_bytes,
                )?))
            }
            Kind::ServeClosed => {
                sut::build_single(data, dir, cfg)?;
                let index = Single::open_cached(dir, scale.warm_cache_bytes)?;
                let server = Served::start(&index)?;
                Ok(Self::Served { index, server })
            }
        }
    }

    /// Requests per call: a batch on the sharded path, one elsewhere.
    pub fn batch(&self, scale: &Scale) -> usize {
        match self {
            Self::Sharded(_) => scale.batch,
            _ => 1,
        }
    }

    /// Concurrent callers: `nproc` connections to a server, one elsewhere.
    pub fn callers(&self, nproc: usize) -> usize {
        match self {
            Self::Served { .. } => nproc,
            _ => 1,
        }
    }

    pub fn caller(&self) -> Result<Caller<'_>, String> {
        Ok(match self {
            Self::Direct(index) => Box::new(move |reqs, out| {
                out.extend(reqs.iter().map(|r| index.search(r)));
                Ok(())
            }),
            // One worker on purpose: two busy threads on two shared vCPUs
            // measure the neighbours. Thread scaling is a layer metric.
            Self::Sharded(set) => Box::new(move |reqs, out| {
                out.extend(set.search_many(reqs, 1));
                Ok(())
            }),
            Self::Served { server, .. } => {
                let mut client = Client::connect(server.addr())?;
                Box::new(move |reqs, out| {
                    for r in reqs {
                        out.push(client.search(r)?);
                    }
                    Ok(())
                })
            }
        })
    }

    /// The single index whose direct `search` is the reference answer.
    pub fn direct(&self) -> Option<&Single> {
        match self {
            Self::Direct(index) | Self::Served { index, .. } => Some(index),
            Self::Sharded(_) => None,
        }
    }

    pub fn shut_down(self) {
        if let Self::Served { server, .. } = self {
            server.shutdown();
        }
    }
}

/// Runs `reps` full set-ups into fresh directories, each timed from
/// nothing to the first answer, and keeps the last one open.
pub fn timed_set_ups(
    ctx: &Ctx,
    inputs: &Inputs,
    checks: &mut Checker,
) -> Result<(Target, PathBuf, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut kept: Option<(Target, PathBuf)> = None;
    for rep in 0..ctx.scale.setup_reps {
        if let Some((old, old_dir)) = kept.take() {
            old.shut_down();
            let _ = std::fs::remove_dir_all(old_dir);
        }
        let dir = ctx.scratch.sub(&format!("index-{rep}"));
        let begun = Instant::now();
        let target = Target::set_up(ctx.kind, &inputs.data, &dir, &ctx.scale, ctx.nproc)?;
        let batch = target.batch(&ctx.scale);
        let mut first = Vec::new();
        target.caller()?(&inputs.pool[..batch], &mut first)?;
        times.push(begun.elapsed().as_secs_f64());
        checks.attempted += batch as u64;
        for out in &first {
            checks.shape("first answer", out);
        }
        kept = Some((target, dir));
    }
    let (target, dir) = kept.ok_or("setup_reps must be at least 1")?;
    Ok((target, dir, times))
}

/// `setup_s`: wall clock, not rescaled — a set-up is one call into the
/// program with nowhere to probe inside it (readings taken around it made
/// it three times noisier). Fixed work, one-sided noise, too few
/// repetitions for a quartile: the fastest repetition is the estimate.
pub fn setup_row(times: &[f64]) -> Row {
    let fastest = times.iter().copied().fold(f64::INFINITY, f64::min);
    Row::reading("setup_s", "s", fastest, times.len())
}

// ---- checks shared by the read-only workloads --------------------------------

/// Direct `Climber::search` over the pool: the answers served, sharded
/// and repeated calls must reproduce bit for bit.
fn reference_answers(ctx: &Ctx, target: &Target, inputs: &Inputs) -> Result<Vec<Outcome>, String> {
    let verified = &inputs.pool[..ctx.scale.verified];
    let run = |index: &Single| verified.iter().map(|r| index.search(r)).collect();
    if let Some(index) = target.direct() {
        return Ok(run(index));
    }
    let dir = ctx.scratch.sub("reference");
    sut::build_single(
        &inputs.data,
        &dir,
        sut::index_config(ctx.scale.n, ctx.nproc),
    )?;
    let answers = run(&Single::open_cached(&dir, ctx.scale.warm_cache_bytes)?);
    let _ = std::fs::remove_dir_all(dir);
    Ok(answers)
}

/// One pass over the referenced head of the pool through the workload's
/// own path, with the dataset still in memory: shape, recomputed
/// distances, self-hits, identity with the reference. Doubles as the
/// warm-up.
pub fn verify_pool(
    caller: &mut Caller<'_>,
    inputs: &Inputs,
    reference: &[Outcome],
    batch: usize,
    checks: &mut Checker,
) -> Result<(), String> {
    let mut out = Vec::with_capacity(batch);
    for (chunk_no, reqs) in inputs.pool[..reference.len()].chunks(batch).enumerate() {
        out.clear();
        caller(reqs, &mut out)?;
        for (j, (req, got)) in reqs.iter().zip(&out).enumerate() {
            let i = chunk_no * batch + j;
            checks.attempted += 1;
            let ok = checks.shape("pool", got)
                && checks.distances("pool", req, got, |id| inputs.data.get(id))
                && checks.identical("pool", got, &reference[i]);
            if let (true, Some(id)) = (ok, inputs.members[i]) {
                checks.self_hit(got, id);
            }
        }
    }
    Ok(())
}

/// Share of the exact answer's ids the approximate answer holds.
pub fn recall_of(approx: &Outcome, exact: &[(u64, f64)]) -> f64 {
    if exact.is_empty() {
        return 1.0;
    }
    let found = exact
        .iter()
        .filter(|(id, _)| approx.results.iter().any(|(a, _)| a == id))
        .count();
    found as f64 / exact.len() as f64
}

/// The least mean recall@100 a healthy index returns at this
/// configuration (0.2530 measured at seed 1).
pub const RECALL_FLOOR: f64 = 0.15;

/// Mean recall@k of the held-out queries, through the workload's path,
/// their distances recomputed from the data still in memory.
pub fn measure_recall(
    caller: &mut Caller<'_>,
    inputs: &Inputs,
    truth: &[Vec<(u64, f64)>],
    batch: usize,
    checks: &mut Checker,
) -> Result<f64, String> {
    let mut out = Vec::with_capacity(inputs.truth_queries.len());
    for reqs in inputs.truth_queries.chunks(batch) {
        caller(reqs, &mut out)?;
    }
    checks.attempted += out.len() as u64;
    let mut sum = 0.0;
    for ((req, got), exact) in inputs.truth_queries.iter().zip(&out).zip(truth) {
        let _ = checks.shape("truth", got)
            && checks.distances("truth", req, got, |id| inputs.data.get(id));
        sum += recall_of(got, exact);
    }
    let recall = sum / truth.len().max(1) as f64;
    if recall < RECALL_FLOOR {
        checks.wrong(format!(
            "recall@{K} {recall:.4} below the floor {RECALL_FLOOR}"
        ));
    }
    Ok(recall)
}

// ---- the measured window ---------------------------------------------------

struct Window {
    samples: Vec<Sample>,
    rss_peak_mb: f64,
    /// The machine as each slice saw it (from the first caller).
    readings: Vec<Reading>,
}

/// What the first caller does besides sending load: it carries the speed
/// meter, and at every slice boundary closes the meter's interval and
/// reads the resident set.
struct Boundaries<'a> {
    meter: &'a mut SpeedMeter,
    callers: usize,
    next_ns: u64,
    /// One per slice begun; the one cut at the window's first boundary
    /// covers the warm-up and is dropped.
    readings: Vec<Reading>,
    rss_peak_mb: f64,
}

impl Boundaries<'_> {
    fn after_call(&mut self, now_ns: u64) {
        self.meter.tick();
        while now_ns >= self.next_ns {
            self.readings.push(self.meter.cut(self.callers));
            self.rss_peak_mb = self.rss_peak_mb.max(rss_mb());
            self.next_ns += 1_000_000_000;
        }
    }
}

/// One closed-loop caller: draw, call, time, check, repeat until the
/// window is spent. Samples completing inside the warm-up are dropped.
#[allow(clippy::too_many_arguments)]
fn closed_loop_worker(
    mut caller: Caller<'_>,
    pool: &[Request],
    reference: &[Outcome],
    batch: usize,
    rng_seed: u64,
    started: Instant,
    warmup_ns: u64,
    end_ns: u64,
    mut boundaries: Option<Boundaries<'_>>,
) -> (Window, Checker) {
    let mut rng = Rng::new(rng_seed);
    let mut checks = Checker::default();
    let mut samples = Vec::with_capacity(1 << 18);
    let mut picked = Vec::with_capacity(batch);
    let mut owned: Vec<Request> = Vec::with_capacity(batch);
    let mut out = Vec::with_capacity(batch);
    let mut answered = 0u64;
    loop {
        picked.clear();
        picked.extend((0..batch).map(|_| rng.below(pool.len())));
        let reqs: &[Request] = if batch == 1 {
            std::slice::from_ref(&pool[picked[0]])
        } else {
            owned.clear();
            owned.extend(picked.iter().map(|&i| pool[i].clone()));
            &owned
        };
        out.clear();
        let sent_ns = started.elapsed().as_nanos() as u64;
        let reply = caller(reqs, &mut out);
        let done_ns = started.elapsed().as_nanos() as u64;
        checks.attempted += batch as u64;
        match reply {
            Err(why) => checks.refused("window", &why, batch as u64),
            Ok(()) => {
                for (got, &i) in out.iter().zip(&picked) {
                    checks.shape("window", got);
                    // Every answer is shape-checked. A 1-in-64 sample is
                    // compared bit for bit with the direct answer: every
                    // eighth answer, when its draw landed on the
                    // referenced eighth of the pool.
                    if answered.is_multiple_of(8) && i < reference.len() {
                        checks.identical("window", got, &reference[i]);
                    }
                    answered += 1;
                }
            }
        }
        if done_ns >= warmup_ns {
            samples.push(Sample {
                end_ns: done_ns - warmup_ns,
                latency_ns: done_ns - sent_ns,
                ops: batch as u32,
            });
        }
        if let Some(b) = boundaries.as_mut() {
            b.after_call(done_ns);
        }
        if done_ns >= end_ns {
            break;
        }
    }
    let (readings, rss_peak_mb) =
        boundaries.map_or((Vec::new(), 0.0), |b| (b.readings, b.rss_peak_mb));
    (
        Window {
            samples,
            rss_peak_mb,
            readings,
        },
        checks,
    )
}

fn closed_loop(
    ctx: &Ctx,
    target: &Target,
    pool: &[Request],
    reference: &[Outcome],
    meter: &mut SpeedMeter,
    checks: &mut Checker,
) -> Result<Window, String> {
    let batch = target.batch(&ctx.scale);
    let warmup_ns = match target {
        Target::Served { .. } => (ctx.scale.serve_warmup_s * 1e9) as u64,
        _ => 0, // the verification pass over the pool was the warm-up
    };
    let end_ns = warmup_ns + ctx.seconds * 1_000_000_000;
    let callers: Vec<Caller<'_>> = (0..target.callers(ctx.nproc))
        .map(|_| target.caller())
        .collect::<Result<_, _>>()?;
    let mut boundaries = Some(Boundaries {
        meter,
        callers: callers.len(),
        next_ns: warmup_ns,
        readings: Vec::new(),
        rss_peak_mb: 0.0,
    });
    let started = Instant::now();
    let joined: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = callers
            .into_iter()
            .enumerate()
            .map(|(t, caller)| {
                let seed = substream(ctx.seed, 100 + t as u64);
                let boundaries = boundaries.take(); // the first caller keeps them
                s.spawn(move || {
                    closed_loop_worker(
                        caller, pool, reference, batch, seed, started, warmup_ns, end_ns,
                        boundaries,
                    )
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut window = Window {
        samples: Vec::new(),
        rss_peak_mb: 0.0,
        readings: Vec::new(),
    };
    for worker in joined {
        let (w, c) = worker.map_err(|_| "a load-generator thread panicked")?;
        window.samples.extend(w.samples);
        window.rss_peak_mb = window.rss_peak_mb.max(w.rss_peak_mb);
        window.readings.extend(w.readings);
        checks.merge(c);
    }
    // the first cut closed the warm-up, the others one slice each
    window.readings.remove(0);
    let last = *window
        .readings
        .last()
        .ok_or("the window read no machine speed")?;
    window.readings.resize(ctx.seconds as usize, last);
    Ok(window)
}

fn served_stats(target: &Target) -> Option<sut::ServeStats> {
    match target {
        Target::Served { server, .. } => Some(server.stats()),
        _ => None,
    }
}

/// The three sliced rows every workload reports the same way — at
/// reference machine speed — and beside them the wall-clock readings and
/// what the speed meter saw.
pub fn sliced_rows(wall: Sliced, readings: &[Reading]) -> (Vec<Row>, Vec<Row>) {
    let n = wall.samples;
    // the callers spent a few per cent of each slice probing, not calling
    let busy: Vec<f64> = readings.iter().map(|r| 1.0 - r.probe_share).collect();
    let wall = wall.rates_per_busy_second(&busy);
    let factors: Vec<f64> = readings.iter().map(Reading::factor).collect();
    let at_ref = wall.at_reference_speed(&factors);
    let rows = vec![
        Row::quiet("qps", "1/s", &at_ref.rate, Better::Higher, n),
        Row::quiet("latency_p50_ms", "ms", &at_ref.p50_ms, Better::Lower, n),
        Row::quiet("latency_p95_ms", "ms", &at_ref.p95_ms, Better::Lower, n),
    ];
    let speeds: Vec<f64> = readings.iter().map(|r| r.speed).collect();
    let shares: Vec<f64> = readings.iter().map(|r| r.cpu_share).collect();
    let info = vec![
        Row::quiet("qps_wall", "1/s", &wall.rate, Better::Higher, n),
        Row::quiet("latency_p50_wall_ms", "ms", &wall.p50_ms, Better::Lower, n),
        Row::quiet("latency_p95_wall_ms", "ms", &wall.p95_ms, Better::Lower, n),
        Row::quiet(
            "machine.speed",
            "ratio",
            &speeds,
            Better::Higher,
            speeds.len(),
        ),
        Row::quiet(
            "machine.cpu_share",
            "ratio",
            &shares,
            Better::Higher,
            shares.len(),
        ),
        Row::reading(
            "window.min_slice_samples",
            "count",
            wall.min_slice_samples as f64,
            wall.rate.len(),
        ),
    ];
    (rows, info)
}

/// `serve-closed`, `direct-warm`, `direct-cold`, `batch-sharded`.
pub fn run_read_only(ctx: &Ctx) -> Result<Measured, String> {
    let mut checks = Checker::default();
    let mut clock = Instant::now();
    let mut meter = SpeedMeter::new();
    let inputs = Inputs::generate(&ctx.scale, ctx.seed);
    phase("generate inputs", &mut clock);
    let truth_vecs: Vec<Vec<f32>> = inputs
        .truth_queries
        .iter()
        .map(|r| r.query.clone())
        .collect();
    let truth = inputs.data.brute_force(&truth_vecs, K);
    phase("brute-force truth", &mut clock);

    let (target, dir, setup_times) = timed_set_ups(ctx, &inputs, &mut checks)?;
    phase("set-ups", &mut clock);
    let reference = reference_answers(ctx, &target, &inputs)?;
    let batch = target.batch(&ctx.scale);
    let recall = {
        let mut caller = target.caller()?;
        verify_pool(&mut caller, &inputs, &reference, batch, &mut checks)?;
        phase("reference + verification", &mut clock);
        let recall = measure_recall(&mut caller, &inputs, &truth, batch, &mut checks)?;
        phase("recall", &mut clock);
        recall
    };

    // Only the opened index stays: the raw data leaves before the window.
    let Inputs { data, pool, .. } = inputs;
    drop(data);
    release_free_heap();
    let before = served_stats(&target).map(|s| (s.admitted, checks.attempted));
    let window = closed_loop(ctx, &target, &pool, &reference, &mut meter, &mut checks)?;
    phase("window", &mut clock);

    let mut info = Vec::new();
    if let (Some(stats), Some((admitted, attempted))) = (served_stats(&target), before) {
        // A retried request is admitted twice: anything the server took in
        // beyond what the clients sent was a client retry.
        let retries = (stats.admitted - admitted).saturating_sub(checks.attempted - attempted);
        let refused = stats.rejected + stats.deadline_missed;
        checks.failed += retries;
        info.push(Row::reading(
            "serve.mean_batch",
            "count",
            stats.mean_batch,
            stats.batches as usize,
        ));
        info.push(Row::reading("serve.refused", "count", refused as f64, 1));
        info.push(Row::reading(
            "serve.client_retries",
            "count",
            retries as f64,
            1,
        ));
    }
    let disk = dir_bytes(&dir) as f64 / (ctx.scale.n as f64 * 1024.0);
    target.shut_down();

    let wall = Sliced::by_time(&window.samples, 1_000_000_000, ctx.seconds as usize);
    let (mut rows, sliced_info) = sliced_rows(wall, &window.readings);
    rows.insert(0, setup_row(&setup_times));
    rows.push(Row::reading("recall_at_k", "ratio", recall, truth.len()));
    rows.push(Row::reading(
        "rss_peak_mb",
        "MB",
        window.rss_peak_mb,
        ctx.seconds as usize,
    ));
    rows.push(Row::reading("disk_bytes_per_user_byte", "ratio", disk, 1));
    info.extend(sliced_info);
    Ok(Measured { rows, info, checks })
}
