//! Estimators: percentiles, quartiles, and the noise rule.
//!
//! The noise on a shared 2-vCPU box is interference that only ever *slows*
//! the program: bursts of a second or two, and plateaus of 25 – 50 % that
//! last seconds to minutes. The plateaus are taken out first, slice by
//! slice, by the speed meter (see `speed.rs`): every slice is converted to
//! reference machine speed. What is left is bursty, so a measured window
//! is cut into slices, each slice yields its own rate / p50 / p95, and the
//! reported value is the **quiet quartile** across slices: the upper
//! quartile of slice rates, the lower quartile of slice latencies. A
//! burst spoils the slices it hits and leaves the quiet quartile where it
//! was; a real regression slows every slice and moves the quiet quartile
//! exactly as far as it moves the median. Every row still carries the
//! across-slice median, both quartiles and every slice value, so the
//! spread is on record next to the estimate.

/// Which way a metric improves — decides which quartile is the quiet one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// Linear-interpolated quantile (`q` in 0..=1) of an ascending slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// Nearest-rank percentile of an ascending sample of nanosecond timings.
pub fn percentile_ns(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted_ns.len() as f64).ceil() as usize).clamp(1, sorted_ns.len());
    sorted_ns[rank - 1] as f64
}

/// Across-slice summary of one metric.
#[derive(Debug, Clone, Default)]
pub struct Spread {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// The per-slice values, in time order.
    pub slices: Vec<f64>,
}

impl Spread {
    pub fn of(values: &[f64]) -> Self {
        let s = sorted(values);
        Self {
            median: quantile_sorted(&s, 0.5),
            q1: quantile_sorted(&s, 0.25),
            q3: quantile_sorted(&s, 0.75),
            slices: values.to_vec(),
        }
    }

    /// The quartile interference cannot reach.
    pub fn quiet(&self, better: Better) -> f64 {
        match better {
            Better::Higher => self.q3,
            Better::Lower => self.q1,
        }
    }
}

/// One completed operation inside a measured window.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Completion time, nanoseconds since the window opened.
    pub end_ns: u64,
    /// Latency as the caller saw it.
    pub latency_ns: u64,
    /// Operations this call completed (32 for a batch call, else 1).
    pub ops: u32,
}

/// Per-slice rate / p50 / p95 of a window of samples.
#[derive(Debug, Default)]
pub struct Sliced {
    pub rate: Vec<f64>,
    pub p50_ms: Vec<f64>,
    pub p95_ms: Vec<f64>,
    /// Latency samples in the thinnest slice (p95 needs >= 200 for ten
    /// samples beyond it).
    pub min_slice_samples: usize,
    pub samples: usize,
}

impl Sliced {
    /// Cuts `[0, slices * slice_ns)` into equal slices; samples completing
    /// after the window are dropped (the loop was already closing).
    pub fn by_time(samples: &[Sample], slice_ns: u64, slices: usize) -> Self {
        let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); slices];
        let mut ops = vec![0u64; slices];
        for s in samples {
            let i = (s.end_ns / slice_ns) as usize;
            if i < slices {
                buckets[i].push(s.latency_ns);
                ops[i] += s.ops as u64;
            }
        }
        let mut out = Self {
            min_slice_samples: usize::MAX,
            ..Self::default()
        };
        for (lat, n) in buckets.iter_mut().zip(ops) {
            out.push_slice(lat, n as f64 / (slice_ns as f64 / 1e9));
        }
        out
    }

    /// Rates per second of load actually generated: `busy[i]` is the share
    /// of slice `i` its callers spent calling (the rest went to probes).
    pub fn rates_per_busy_second(mut self, busy: &[f64]) -> Self {
        for (rate, share) in self.rate.iter_mut().zip(busy) {
            *rate /= share;
        }
        self
    }

    /// The same slices at reference machine speed: `factor[i]` multiplies
    /// the durations of slice `i` and divides its rate.
    pub fn at_reference_speed(&self, factor: &[f64]) -> Self {
        let scaled = |values: &[f64], times: bool| {
            values
                .iter()
                .zip(factor)
                .map(|(v, f)| if times { v * f } else { v / f })
                .collect()
        };
        Self {
            rate: scaled(&self.rate, false),
            p50_ms: scaled(&self.p50_ms, true),
            p95_ms: scaled(&self.p95_ms, true),
            min_slice_samples: self.min_slice_samples,
            samples: self.samples,
        }
    }

    /// Adds one slice from its latency samples and its already-known rate.
    pub fn push_slice(&mut self, latencies_ns: &mut [u64], rate: f64) {
        latencies_ns.sort_unstable();
        self.rate.push(rate);
        self.p50_ms.push(percentile_ns(latencies_ns, 0.50) / 1e6);
        self.p95_ms.push(percentile_ns(latencies_ns, 0.95) / 1e6);
        self.min_slice_samples = self.min_slice_samples.min(latencies_ns.len());
        self.samples += latencies_ns.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile_sorted(&v, 0.5), 3.0);
        assert_eq!(quantile_sorted(&v, 0.25), 2.0);
        assert_eq!(quantile_sorted(&v, 0.75), 4.0);
        assert_eq!(quantile_sorted(&[7.0], 0.25), 7.0);
        assert_eq!(quantile_sorted(&[1.0, 2.0], 0.5), 1.5);
    }

    #[test]
    fn quiet_quartile_ignores_a_burst() {
        // twelve quiet slices at 100/s, four spoiled by interference
        let mut rates = vec![100.0; 12];
        rates.extend([60.0, 55.0, 70.0, 40.0]);
        let s = Spread::of(&rates);
        assert_eq!(s.quiet(Better::Higher), 100.0);
        // a real 10 % regression moves it by 10 %
        let slower: Vec<f64> = rates.iter().map(|r| r * 0.9).collect();
        assert!((Spread::of(&slower).quiet(Better::Higher) - 90.0).abs() < 1e-9);
    }

    #[test]
    fn slices_cut_by_completion_time() {
        let samples: Vec<Sample> = (0..30)
            .map(|i| Sample {
                end_ns: i * 100_000_000,
                latency_ns: 1_000_000 + i,
                ops: 2,
            })
            .collect();
        let s = Sliced::by_time(&samples, 1_000_000_000, 2);
        assert_eq!(s.rate, vec![20.0, 20.0]);
        assert_eq!(s.samples, 20);
        let s = s.rates_per_busy_second(&[1.0, 0.5]);
        assert_eq!(s.rate, vec![20.0, 40.0]);
        let at_ref = s.at_reference_speed(&[0.5, 2.0]);
        assert_eq!(at_ref.rate, vec![40.0, 20.0]);
        assert_eq!(at_ref.p50_ms[0], s.p50_ms[0] * 0.5);
        assert_eq!(s.min_slice_samples, 10);
    }
}
