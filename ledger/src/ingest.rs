//! `ingest-mixed`: writes beside reads on one read-write index.
//!
//! A cycle is `rounds` × [one `append_batch`, a few `delete`s, a run of
//! searches] and then one `flush()`. Every appended record, delete and
//! search counts as one operation; the flush rides inside the cycle's
//! wall time, so `qps` is whole cycles including it. Cycle 0 is the
//! warm-up; each later cycle is one slice of the noise rule.

use crate::check::Checker;
use crate::inputs::{substream, Inputs, Rng, Scale};
use crate::report::{dir_bytes, release_free_heap, rss_mb, Row};
use crate::speed::SpeedMeter;
use crate::stats::Sliced;
use crate::sut::{Data, FlushInfo, Outcome, Request, Single, K};
use crate::workloads::{self, Ctx, Measured, Target};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// One `append_batch` call.
    Append,
    Delete,
    Search,
}

/// One timed call into the index.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub kind: OpKind,
    pub start: Instant,
    pub ns: u64,
}

/// The rounds of one cycle (the flush is timed by the caller).
#[derive(Default)]
pub struct Rounds {
    pub wall_s: f64,
    pub ops: Vec<Op>,
    /// The series appended, in id order.
    pub appended: Vec<Vec<f32>>,
}

impl Rounds {
    pub fn latencies(&self, kind: OpKind) -> Vec<u64> {
        self.ops
            .iter()
            .filter(|op| op.kind == kind)
            .map(|op| op.ns)
            .collect()
    }
}

/// Times one call and logs it.
fn timed<T>(ops: &mut Vec<Op>, kind: OpKind, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let value = f();
    ops.push(Op {
        kind,
        start,
        ns: start.elapsed().as_nanos() as u64,
    });
    value
}

/// The state the load generator carries across cycles: which ids exist,
/// which are deleted, and which appended series to look for next.
pub struct Ingest<'a> {
    index: &'a Single,
    pool: &'a [Request],
    scale: Scale,
    seed: u64,
    rng: Rng,
    cycle: u64,
    /// The id the next appended series must receive.
    next_id: u64,
    deleted: Vec<bool>,
    pub deleted_ids: Vec<u64>,
    /// A series appended last cycle, now folded into a sealed partition,
    /// and whether it found itself while it was still in the delta.
    flushed_probe: Option<(u64, Request, bool)>,
    pub checks: Checker,
}

impl<'a> Ingest<'a> {
    pub fn new(index: &'a Single, pool: &'a [Request], scale: Scale, seed: u64) -> Self {
        Self {
            index,
            pool,
            scale,
            seed,
            rng: Rng::new(substream(seed, 200)),
            cycle: 0,
            next_id: scale.n as u64,
            deleted: vec![false; scale.n],
            deleted_ids: Vec::new(),
            flushed_probe: None,
            checks: Checker::default(),
        }
    }

    pub fn live_records(&self) -> u64 {
        self.next_id - self.deleted_ids.len() as u64
    }

    /// Shape, and no deleted id ever comes back.
    fn check_answer(&mut self, tag: &str, out: &Outcome) {
        self.checks.shape(tag, out);
        if let Some(&(id, _)) = out
            .results
            .iter()
            .find(|(id, _)| self.deleted.get(*id as usize).copied().unwrap_or(false))
        {
            self.checks
                .wrong(format!("{tag}: deleted id {id} returned"));
        }
    }

    /// One timed search, its answer checked.
    fn search(&mut self, req: &Request, ops: &mut Vec<Op>) -> Outcome {
        let out = timed(ops, OpKind::Search, || self.index.search(req));
        self.checks.attempted += 1;
        self.check_answer("search", &out);
        out
    }

    /// The rounds of one cycle: appends, deletes, searches. The series
    /// are generated before the clock starts. `meter`, when given, probes
    /// the machine speed between operations.
    pub fn rounds(&mut self, mut meter: Option<&mut SpeedMeter>) -> Result<Rounds, String> {
        let mut tick = move || {
            if let Some(m) = meter.as_mut() {
                m.tick();
            }
        };
        let s = self.scale;
        let stream = Data::generate(
            s.rounds * s.appends_per_round,
            substream(self.seed, 1_000 + self.cycle),
        )
        .to_vecs();
        let cycle_first_id = self.next_id;
        let mut r = Rounds::default();
        let begun = Instant::now();
        for batch in stream.chunks(s.appends_per_round) {
            let ids = timed(&mut r.ops, OpKind::Append, || {
                self.index.append_batch(batch)
            });
            tick();
            self.checks.attempted += batch.len() as u64;
            let expected = self.next_id..self.next_id + batch.len() as u64;
            match ids {
                Ok(ids) if ids.iter().copied().eq(expected.clone()) => {}
                Ok(ids) => self.checks.wrong(format!(
                    "append_batch assigned {ids:?}, expected {expected:?}"
                )),
                Err(why) => self
                    .checks
                    .refused("append_batch", &why, batch.len() as u64),
            }
            self.next_id = expected.end;
            self.deleted.resize(self.next_id as usize, false);

            for _ in 0..s.deletes_per_round {
                // victims predate this cycle, so the probes below stay live
                let id = loop {
                    let id = self.rng.below(cycle_first_id as usize) as u64;
                    let probed = self.flushed_probe.as_ref().is_some_and(|p| p.0 == id);
                    if !self.deleted[id as usize] && !probed {
                        break id;
                    }
                };
                let gone = timed(&mut r.ops, OpKind::Delete, || self.index.delete(id));
                self.checks.attempted += 1;
                match gone {
                    Ok(true) => {}
                    Ok(false) => self
                        .checks
                        .wrong(format!("delete({id}) found nothing to delete")),
                    Err(why) => self.checks.refused("delete", &why, 1),
                }
                self.deleted[id as usize] = true;
                self.deleted_ids.push(id);
            }

            // The first search of a round looks for the series just
            // appended (still in the delta); the second, once per cycle,
            // for one appended last cycle (since flushed): a flush must
            // not change whether a series finds itself.
            let (id, req) = (
                self.next_id - 1,
                crate::sut::request(&batch[batch.len() - 1]),
            );
            let out = self.search(&req, &mut r.ops);
            let just_appended = (id, req, self.checks.self_hit(&out, id));
            let mut done = 1;
            if let Some(probe) = self.flushed_probe.take() {
                self.probe_flushed(probe, &mut r.ops);
                done += 1;
            }
            let pool = self.pool;
            for _ in done..s.searches_per_round {
                let pick = self.rng.below(pool.len());
                self.search(&pool[pick], &mut r.ops);
                tick();
            }
            if self.next_id == cycle_first_id + stream.len() as u64 {
                self.flushed_probe = Some(just_appended);
            }
        }
        r.wall_s = begun.elapsed().as_secs_f64();
        r.appended = stream;
        self.cycle += 1;
        Ok(r)
    }

    /// The flush that closes a cycle, timed. It must fold exactly the
    /// records the cycle appended.
    pub fn flush(&mut self) -> Result<(f64, FlushInfo), String> {
        let sent = Instant::now();
        let info = self.index.flush()?;
        let flush_s = sent.elapsed().as_secs_f64();
        let appended = (self.scale.rounds * self.scale.appends_per_round) as u64;
        if info.records_folded != appended {
            self.checks.wrong(format!(
                "flush folded {} records, not the {appended} appended",
                info.records_folded
            ));
        }
        Ok((flush_s, info))
    }

    fn probe_flushed(
        &mut self,
        (id, req, found_in_delta): (u64, Request, bool),
        ops: &mut Vec<Op>,
    ) {
        let out = self.search(&req, ops);
        if self.checks.self_hit(&out, id) != found_in_delta {
            self.checks.wrong(format!(
                "series {id}: the flush changed whether it finds itself"
            ));
        }
    }

    /// After the last flush: the pending probe, once more.
    pub fn final_probe(&mut self) {
        if let Some(probe) = self.flushed_probe.take() {
            self.probe_flushed(probe, &mut Vec::new());
        }
    }
}

/// Brute-force truth over base ∪ appended − deleted, with `data` already
/// extended by the appended series.
pub fn live_truth(data: &Data, queries: &[Request], deleted: &[u64]) -> Vec<Vec<(u64, f64)>> {
    let vecs: Vec<Vec<f32>> = queries.iter().map(|r| r.query.clone()).collect();
    data.brute_force(&vecs, K + deleted.len())
        .into_iter()
        .map(|exact| {
            exact
                .into_iter()
                .filter(|(id, _)| !deleted.contains(id))
                .take(K)
                .collect()
        })
        .collect()
}

pub fn run(ctx: &Ctx) -> Result<Measured, String> {
    let mut checks = Checker::default();
    let mut meter = SpeedMeter::new();
    let mut inputs = Inputs::generate(&ctx.scale, ctx.seed);
    let (target, dir, setup_times) = workloads::timed_set_ups(ctx, &inputs, &mut checks)?;
    let Target::Direct(index) = &target else {
        return Err("ingest-mixed runs on a directly opened index".into());
    };

    // Reads are verified against the base data first (and warmed up).
    let reference: Vec<Outcome> = inputs.pool[..ctx.scale.verified]
        .iter()
        .map(|r| index.search(r))
        .collect();
    workloads::verify_pool(&mut target.caller()?, &inputs, &reference, 1, &mut checks)?;

    // Cycle 0, the warm-up: recall is taken at its end with the delta
    // still pending, against brute force over what is live right then.
    let pool = std::mem::take(&mut inputs.pool);
    let mut ingest = Ingest::new(index, &pool, ctx.scale, ctx.seed);
    let warmup = ingest.rounds(None)?;
    for series in &warmup.appended {
        inputs.data.push(series);
    }
    let truth = live_truth(&inputs.data, &inputs.truth_queries, &ingest.deleted_ids);
    let recall = workloads::measure_recall(&mut target.caller()?, &inputs, &truth, 1, &mut checks)?;
    ingest.flush()?;
    let Inputs { data, .. } = inputs;
    drop(data);
    release_free_heap();

    // The window: whole cycles until it is spent, the machine read over
    // each one.
    let mut readings = Vec::new();
    meter.cut(1);
    let mut sliced = Sliced {
        min_slice_samples: usize::MAX,
        ..Sliced::default()
    };
    let mut rss_peak_mb = rss_mb();
    let (mut flush_s, mut rewritten) = (Vec::new(), Vec::new());
    let window = Instant::now();
    let mut last_cycle_s = 0.0;
    while sliced.rate.len() < 3
        || window.elapsed().as_secs_f64() + last_cycle_s <= ctx.seconds as f64
    {
        let rounds = ingest.rounds(Some(&mut meter))?;
        let (flush_time, info) = ingest.flush()?;
        readings.push(meter.cut(1));
        last_cycle_s = rounds.wall_s + flush_time;
        sliced.push_slice(
            &mut rounds.latencies(OpKind::Search),
            ctx.scale.cycle_ops() as f64 / last_cycle_s,
        );
        flush_s.push(flush_time);
        rewritten.push(info.partitions_rewritten as f64);
        rss_peak_mb = rss_peak_mb.max(rss_mb());
    }
    ingest.final_probe();
    let disk = dir_bytes(&dir) as f64 / (ingest.live_records() as f64 * 1024.0);
    checks.merge(std::mem::take(&mut ingest.checks));
    target.shut_down();

    let cycles = readings.len();
    let (mut rows, mut info) = workloads::sliced_rows(sliced, &readings);
    rows.insert(0, workloads::setup_row(&setup_times));
    rows.push(Row::reading("recall_at_k", "ratio", recall, truth.len()));
    rows.push(Row::reading("rss_peak_mb", "MB", rss_peak_mb, cycles + 1));
    rows.push(Row::reading("disk_bytes_per_user_byte", "ratio", disk, 1));
    info.push(Row::reading(
        "core.flush_ms",
        "ms",
        crate::stats::median(&flush_s) * 1e3,
        flush_s.len(),
    ));
    info.push(Row::reading(
        "dfs.partitions_rewritten_per_flush",
        "count",
        crate::stats::median(&rewritten),
        rewritten.len(),
    ));
    Ok(Measured { rows, info, checks })
}
