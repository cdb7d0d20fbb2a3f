//! Machine speed: how fast is this box *right now*, and how much of a
//! timing was CPU at all?
//!
//! On a shared 2-vCPU VM the same code runs at different speeds from one
//! minute to the next. A long `direct-warm` window shows plateaus of about
//! 9 700, 7 000 and 5 000 requests/s, each lasting seconds to minutes,
//! with the steal counter flat — neighbours on the same core, invisible
//! from inside. Ten runs that straddle such a step differ by 40 %; no
//! estimator over a 15 s window sees through a plateau that outlasts it.
//!
//! So the load generator carries a [`SpeedMeter`]: between requests, every
//! few milliseconds, it runs a fixed reference loop of the ledger's own
//! for a fraction of a millisecond (no code of the program in it, so a
//! faster program cannot move it) and, at every slice boundary, reads the
//! process's CPU time. A slice then knows two things: the **speed** of the
//! machine while it ran (reference-loop rate ÷ [`REFERENCE_RATE`]) and the
//! **CPU share** of its wall time (CPU seconds ÷ caller-seconds). Timings
//! are reported **at reference speed**: the CPU share of a duration is
//! multiplied by the speed, the waiting share (timers, fsyncs) is left
//! alone — `factor = (1 − share) + share × speed`. A compute-bound
//! workload is rescaled in full, the timer-bound `serve-closed` hardly at
//! all. The wall-clock readings ride along as `*_wall` rows.
//!
//! The loop mimics a scan — random 1 KB records out of a buffer larger
//! than the caches, squared differences accumulated in `f64` lanes —
//! because interference hits memory-bound and compute-bound code
//! differently and the workloads are scans.

use crate::inputs::Rng;
use std::time::{Duration, Instant};

/// Rate (records/s) of the reference loop on the build box when quiet:
/// speed 1.0. Only ratios between runs on one machine matter, so any
/// constant would do; this one keeps reference-speed numbers close to
/// wall-clock numbers on a quiet box.
pub const REFERENCE_RATE: f64 = 2.3e6;

const RECORD: usize = 256;
/// 16 MB: several times the L2, resident for the whole run.
const RECORDS: usize = 16 * 1024;
/// A probe runs once this much time has passed since the last one …
const PROBE_EVERY: Duration = Duration::from_millis(8);
/// … for about this long: 5 % of the caller's time.
const PROBE_FOR: Duration = Duration::from_micros(400);

/// What one interval (a slice, a cycle, a set-up) knows about the machine.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    /// Reference-loop rate ÷ [`REFERENCE_RATE`]: 1.0 on a quiet box.
    pub speed: f64,
    /// Process CPU seconds ÷ (wall seconds × callers), at most 1.
    pub cpu_share: f64,
    /// Share of the callers' time the probes themselves took: load that
    /// was not generated, so a rate is per `1 − probe_share` of a second.
    pub probe_share: f64,
}

impl Reading {
    /// Multiplier that takes a wall-clock duration measured in this
    /// interval to reference speed (divide a rate by it): the CPU share
    /// of the time scales with the machine, the waiting share does not.
    pub fn factor(&self) -> f64 {
        (1.0 - self.cpu_share) + self.cpu_share * self.speed
    }
}

pub struct SpeedMeter {
    records: Vec<f32>,
    query: Vec<f32>,
    rng: Rng,
    last_probe: Instant,
    // accumulated since the last cut
    probed_records: u64,
    probed_ns: u64,
    cut_at: Instant,
    cut_cpu_s: f64,
}

impl SpeedMeter {
    pub fn new() -> Self {
        let mut rng = Rng::new(0xCA11_B8A7);
        let mut unit = || (rng.next_u64() >> 40) as f32 / (1u64 << 24) as f32;
        let records = (0..RECORD * RECORDS).map(|_| unit()).collect();
        let query = (0..RECORD).map(|_| unit()).collect();
        let now = Instant::now();
        Self {
            records,
            query,
            rng,
            last_probe: now,
            probed_records: 0,
            probed_ns: 0,
            cut_at: now,
            cut_cpu_s: process_cpu_seconds(),
        }
    }

    /// Called between requests: probes when one is due.
    #[inline]
    pub fn tick(&mut self) {
        if self.last_probe.elapsed() >= PROBE_EVERY {
            self.probe(PROBE_FOR);
        }
    }

    /// Runs the reference loop for about `budget`.
    pub fn probe(&mut self, budget: Duration) {
        let begun = Instant::now();
        let (mut done, mut sink) = (0u64, 0.0f64);
        while begun.elapsed() < budget {
            for _ in 0..16 {
                let at = self.rng.below(RECORDS) * RECORD;
                let mut lanes = [0.0f64; 8];
                for (q, x) in self
                    .query
                    .chunks_exact(8)
                    .zip(self.records[at..at + RECORD].chunks_exact(8))
                {
                    for lane in 0..8 {
                        let d = (q[lane] - x[lane]) as f64;
                        lanes[lane] += d * d;
                    }
                }
                sink += lanes.iter().sum::<f64>();
            }
            done += 16;
        }
        std::hint::black_box(sink);
        let end = Instant::now();
        self.probed_records += done;
        self.probed_ns += (end - begun).as_nanos() as u64;
        self.last_probe = end;
    }

    /// Closes the interval since the last cut and reads it. `callers` is
    /// how many load-generating threads the interval's wall time is
    /// multiplied by for the CPU share.
    pub fn cut(&mut self, callers: usize) -> Reading {
        if self.probed_ns == 0 {
            self.probe(PROBE_FOR);
        }
        let now = Instant::now();
        let cpu_s = process_cpu_seconds();
        let wall_s = (now - self.cut_at).as_secs_f64().max(1e-9);
        let caller_s = wall_s * callers as f64;
        let reading = Reading {
            speed: self.probed_records as f64 / (self.probed_ns as f64 / 1e9) / REFERENCE_RATE,
            cpu_share: ((cpu_s - self.cut_cpu_s) / caller_s).clamp(0.0, 1.0),
            probe_share: (self.probed_ns as f64 / 1e9 / caller_s).min(0.5),
        };
        self.probed_records = 0;
        self.probed_ns = 0;
        self.cut_at = now;
        self.cut_cpu_s = cpu_s;
        reading
    }
}

/// User + system CPU seconds of this process so far (`/proc/self/stat`,
/// fields 14 and 15, in clock ticks of 10 ms).
fn process_cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // the command name (field 2) may hold spaces: count from its closing ')'
    let Some(rest) = stat.rsplit_once(')').map(|(_, rest)| rest) else {
        return 0.0;
    };
    let ticks: f64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_the_cpu_share_of_a_duration_scales() {
        let at = |speed, cpu_share| Reading {
            speed,
            cpu_share,
            probe_share: 0.0,
        };
        // compute-bound on a machine at half speed: durations halve
        assert_eq!(at(0.5, 1.0).factor(), 0.5);
        // pure waiting: untouched
        assert_eq!(at(0.5, 0.0).factor(), 1.0);
        // 2 ms of timer + 1 ms of CPU that took 2 ms at half speed: 4 ms
        // of wall clock (half of it CPU) reads 3 ms at reference speed
        assert_eq!(4.0 * at(0.5, 0.5).factor(), 3.0);
        // a quiet machine changes nothing
        assert_eq!(at(1.0, 0.7).factor(), 1.0);
    }

    #[test]
    fn the_meter_reads_a_positive_speed_and_a_share() {
        let mut meter = SpeedMeter::new();
        meter.probe(Duration::from_millis(5));
        let r = meter.cut(1);
        assert!(r.speed > 0.0 && r.speed.is_finite());
        assert!((0.0..=1.0).contains(&r.cpu_share));
        assert!(r.probe_share > 0.0 && r.probe_share <= 0.5);
    }
}
