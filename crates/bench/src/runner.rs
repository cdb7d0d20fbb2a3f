//! Experiment runner helpers: system construction, timed query sweeps and
//! recall measurement shared by all figure harnesses.

use climber_core::baselines::dpisax::{DpisaxConfig, DpisaxIndex};
use climber_core::baselines::tardis::{TardisConfig, TardisIndex};
use climber_core::dfs::store::{DiskStore, PartitionStore};
use climber_core::series::dataset::Dataset;
use climber_core::series::gen::{query_workload, Domain};
use climber_core::series::ground_truth::exact_knn;
use climber_core::series::recall::recall_of_results;
use climber_core::{BuildOptions, Climber, ClimberConfig};
use std::path::PathBuf;
use std::time::Instant;

/// One measured query sweep: mean recall, mean wall time, mean records
/// scanned, mean partitions opened.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sweep {
    /// Mean recall against the exact answer.
    pub recall: f64,
    /// Mean per-query wall-clock seconds.
    pub secs: f64,
    /// Mean records compared.
    pub records: f64,
    /// Mean partitions opened.
    pub partitions: f64,
}

/// Runs `run` over every query, comparing against the exact `truth`.
pub fn sweep<F>(ds: &Dataset, queries: &[u64], truth: &[Vec<(u64, f64)>], mut run: F) -> Sweep
where
    F: FnMut(&[f32]) -> (Vec<(u64, f64)>, u64, usize),
{
    let mut out = Sweep::default();
    let nq = queries.len() as f64;
    for (i, &qid) in queries.iter().enumerate() {
        let t = Instant::now();
        let (results, records, partitions) = run(ds.get(qid));
        out.secs += t.elapsed().as_secs_f64() / nq;
        out.recall += recall_of_results(&results, &truth[i]) / nq;
        out.records += records as f64 / nq;
        out.partitions += partitions as f64 / nq;
    }
    out
}

/// Generates the standard workload + ground truth for a dataset.
pub fn workload(
    ds: &Dataset,
    queries: usize,
    k: usize,
    seed: u64,
) -> (Vec<u64>, Vec<Vec<(u64, f64)>>) {
    let qs = query_workload(ds, queries, seed);
    let truth: Vec<Vec<(u64, f64)>> = qs.iter().map(|&q| exact_knn(ds, ds.get(q), k)).collect();
    (qs, truth)
}

/// A fully built CLIMBER system plus its build metrics.
pub struct BuiltClimber {
    /// The index (built in memory).
    pub climber: Climber<DiskStore>,
    /// Build wall time in seconds.
    pub build_secs: f64,
    /// Global index size in bytes.
    pub index_bytes: usize,
}

/// Builds CLIMBER with the experiment configuration.
pub fn build_climber(ds: &Dataset, config: ClimberConfig) -> BuiltClimber {
    build_climber_with(
        ds,
        config,
        BuildOptions::default().with_threads(config.workers),
    )
}

/// Builds CLIMBER with explicit [`BuildOptions`] (thread count / block
/// size) — the entry point of the sequential-vs-parallel build comparison
/// in `fig8_index`.
pub fn build_climber_with(
    ds: &Dataset,
    config: ClimberConfig,
    options: BuildOptions,
) -> BuiltClimber {
    let t = Instant::now();
    let climber = Climber::build_in_memory_with(ds, config, options);
    let build_secs = t.elapsed().as_secs_f64();
    let index_bytes = climber.global_index_bytes();
    BuiltClimber {
        climber,
        build_secs,
        index_bytes,
    }
}

/// A persisted-and-reopened CLIMBER index with its cold-start cost.
pub struct ColdOpen {
    /// The reopened, manifest-validated, read-only index.
    pub climber: Climber<DiskStore>,
    /// Wall time of `Climber::save` (partition copy + checksums + manifest).
    pub save_secs: f64,
    /// Wall time of `Climber::open` (manifest + checksum validation +
    /// skeleton decode) — the serve process's cold-start latency.
    pub open_secs: f64,
    /// The index directory (caller removes it when done).
    pub dir: PathBuf,
}

/// Saves `climber` into a scratch directory and times a cold
/// [`Climber::open`] — the build/serve process-separation path.
pub fn cold_open<S: PartitionStore>(climber: &Climber<S>, tag: &str) -> ColdOpen {
    let dir = std::env::temp_dir().join(format!("climber-bench-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let t = Instant::now();
    climber.save(&dir).expect("save index");
    let save_secs = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let reopened = Climber::open(&dir).expect("reopen index");
    let open_secs = t.elapsed().as_secs_f64();
    ColdOpen {
        climber: reopened,
        save_secs,
        open_secs,
        dir,
    }
}

/// A built DPiSAX system.
pub struct BuiltDpisax {
    /// The index.
    pub index: DpisaxIndex,
    /// Its partition store.
    pub store: DiskStore,
    /// Build wall time in seconds.
    pub build_secs: f64,
    /// Global partition-table size in bytes.
    pub index_bytes: usize,
}

/// Builds the DPiSAX baseline with a capacity matching CLIMBER's.
pub fn build_dpisax(ds: &Dataset, capacity: u64, seed: u64) -> BuiltDpisax {
    let store = DiskStore::in_memory();
    let t = Instant::now();
    let (index, stats) = DpisaxIndex::build(
        ds,
        &store,
        DpisaxConfig {
            segments: 16,
            max_bits: 8,
            capacity,
            alpha: 0.1,
            seed,
        },
    );
    BuiltDpisax {
        index,
        store,
        build_secs: t.elapsed().as_secs_f64(),
        index_bytes: stats.index_bytes,
    }
}

/// A built TARDIS system.
pub struct BuiltTardis {
    /// The index.
    pub index: TardisIndex,
    /// Its partition store.
    pub store: DiskStore,
    /// Build wall time in seconds.
    pub build_secs: f64,
    /// Global sigTree size in bytes.
    pub index_bytes: usize,
}

/// Builds the TARDIS baseline (short word, the sigTree preference).
pub fn build_tardis(ds: &Dataset, capacity: u64, seed: u64) -> BuiltTardis {
    let store = DiskStore::in_memory();
    let t = Instant::now();
    let (index, stats) = TardisIndex::build(
        ds,
        &store,
        TardisConfig {
            segments: 8,
            max_bits: 6,
            capacity,
            alpha: 0.1,
            seed,
        },
    );
    BuiltTardis {
        index,
        store,
        build_secs: t.elapsed().as_secs_f64(),
        index_bytes: stats.index_bytes,
    }
}

/// Generates the standard dataset for a domain at size `n`.
pub fn dataset(domain: Domain, n: usize) -> Dataset {
    domain.generate(n, crate::DATA_SEED)
}
