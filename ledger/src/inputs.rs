//! Inputs: everything a run feeds the program is a pure function of
//! `--seed` and the scale. The program receives only the generated data.

use crate::sut::{self, Data, Request};

/// SplitMix64: small, seedable, good enough to draw request indices.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias at these sizes is
    /// below 2^-40.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `(0, 1]`.
    fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Standard normal (Box-Muller).
    pub fn gauss(&mut self) -> f64 {
        (-2.0 * self.unit().ln()).sqrt() * (std::f64::consts::TAU * self.unit()).cos()
    }
}

/// Independent stream `lane` of a run's seed.
pub fn substream(seed: u64, lane: u64) -> u64 {
    Rng::new(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F)).next_u64()
}

/// Seed of the indexed dataset: the same 100 000 series on every run.
///
/// `--seed` drives everything sent *to* the index — the query pool, the
/// held-out truth queries, the order of requests, the appended series
/// and the delete victims — but not the data it is built over. The shape
/// of a CLIMBER index (group sizes, trie depth, partition fill) swings
/// with the data sample: across ten datasets at this size direct QPS
/// ranged 3 900 – 10 200 and recall 0.23 – 0.33, which no regression
/// bound can see through. One fixed dataset keeps the work per request
/// a property of the program.
pub const DATA_SEED: u64 = 2024;

/// Sizes of one run. `full` is what BENCHMARK.json measures; `smoke` is
/// the same code at a size a human or a CI lane waits for.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Indexed series.
    pub n: usize,
    /// Distinct queries requests are drawn from: enough that the mean
    /// and the tail of the work per request barely depend on the draw.
    pub pool: usize,
    /// Leading pool entries the verification pass sends through the
    /// workload's own path and keeps reference answers for.
    pub verified: usize,
    /// Every `member_stride`-th pool query is an exact dataset member.
    pub member_stride: usize,
    /// Held-out queries with brute-force truth, for recall: noisy copies
    /// of this many evenly spaced dataset members.
    pub truth: usize,
    /// Full set-ups per run; `setup_s` is the fastest.
    pub setup_reps: usize,
    /// Cache budget of the warm opens: everything resident.
    pub warm_cache_bytes: usize,
    /// Cache budget of `direct-cold`: a fraction of the partitions.
    pub cold_cache_bytes: usize,
    /// Shards of `batch-sharded`.
    pub shards: usize,
    /// Queries per `search_many` call on `batch-sharded`.
    pub batch: usize,
    /// Serve warm-up before the window, seconds.
    pub serve_warmup_s: f64,
    /// `ingest-mixed`: rounds per cycle, then one flush.
    pub rounds: usize,
    pub appends_per_round: usize,
    pub deletes_per_round: usize,
    pub searches_per_round: usize,
    /// Requests a traced run replays (ingest: `traced_cycles`).
    pub traced_requests: usize,
    pub traced_cycles: usize,
    /// Partition opens the traced run's open probe times.
    pub open_probes: usize,
}

impl Scale {
    pub fn full() -> Self {
        Self {
            n: 100_000,
            pool: 4_096,
            verified: 512,
            member_stride: 16,
            truth: 200,
            setup_reps: 3,
            warm_cache_bytes: 256 << 20,
            cold_cache_bytes: 16 << 20,
            shards: 2,
            batch: 32,
            serve_warmup_s: 2.0,
            rounds: 16,
            appends_per_round: 64,
            deletes_per_round: 4,
            searches_per_round: 32,
            traced_requests: 2_000,
            traced_cycles: 2,
            open_probes: 256,
        }
    }

    pub fn smoke() -> Self {
        Self {
            n: 5_000,
            pool: 512,
            verified: 128,
            truth: 50,
            setup_reps: 1,
            // the same 16 % of the data as at full size
            cold_cache_bytes: 800 << 10,
            serve_warmup_s: 0.3,
            rounds: 4,
            traced_requests: 300,
            open_probes: 64,
            ..Self::full()
        }
    }

    /// Operations in one ingest cycle (the flush rides along, uncounted).
    pub fn cycle_ops(&self) -> usize {
        self.rounds * (self.appends_per_round + self.deletes_per_round + self.searches_per_round)
    }
}

/// The generated inputs of one run.
pub struct Inputs {
    /// The indexed series. Dropped before the measured window opens.
    pub data: Data,
    /// The request pool. Entry `i` with `members[i] = Some(id)` carries
    /// dataset series `id` verbatim: its answer must lead with `(id, 0)`.
    pub pool: Vec<Request>,
    pub members: Vec<Option<u64>>,
    /// Held-out queries for recall (never sent inside the window). Their
    /// source members are the same evenly spaced ids on every run and
    /// only the noise follows the seed: recall is compared between
    /// programs, and a fresh sample of sources per run would add ten
    /// per cent of sampling noise that says nothing about either.
    pub truth_queries: Vec<Request>,
}

impl Inputs {
    pub fn generate(scale: &Scale, seed: u64) -> Self {
        let data = Data::generate(scale.n, DATA_SEED);
        let mut pick = Rng::new(substream(seed, 2));
        let mut members = vec![None; scale.pool];
        let pool = data
            .noisy_queries(scale.pool, substream(seed, 3))
            .into_iter()
            .enumerate()
            .map(|(i, noisy)| {
                if i % scale.member_stride == 0 {
                    let id = pick.below(scale.n) as u64;
                    members[i] = Some(id);
                    sut::request(data.get(id).expect("member id below n"))
                } else {
                    sut::request(&noisy)
                }
            })
            .collect();
        let mut noise = Rng::new(substream(seed, 4));
        let truth_queries = (0..scale.truth)
            .map(|i| {
                let member = data
                    .get((i * scale.n / scale.truth) as u64)
                    .expect("id below n");
                let noisy: Vec<f32> = member
                    .iter()
                    .map(|&v| (v as f64 + sut::QUERY_NOISE * noise.gauss()) as f32)
                    .collect();
                sut::request(&noisy)
            })
            .collect();
        Self {
            data,
            pool,
            members,
            truth_queries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let scale = Scale {
            n: 400,
            pool: 32,
            verified: 8,
            truth: 4,
            ..Scale::smoke()
        };
        let (a, b) = (Inputs::generate(&scale, 9), Inputs::generate(&scale, 9));
        assert_eq!(a.data.get(7), b.data.get(7));
        assert_eq!(a.pool, b.pool);
        assert_eq!(a.members, b.members);
        assert_eq!(a.truth_queries, b.truth_queries);
        let c = Inputs::generate(&scale, 10);
        assert_ne!(a.pool, c.pool);
        assert_eq!(a.members.iter().flatten().count(), 2);
    }
}
