//! Property test: the paged block cache is **invisible**.
//!
//! Two contracts, checked independently:
//!
//! 1. **End-to-end equality.** A [`Climber`] and a [`ShardedClimber`]
//!    opened through [`Climber::open_with_cache`] answer every
//!    [`SearchRequest`] — all four `SearchMode`s, budgeted and not,
//!    single-request and batch paths — **bit-identically** to a
//!    cacheless baseline over a byte-identical directory: same
//!    neighbour ids, same distances, same `records_scanned`, same plan.
//!    The comparison runs cold (miss path), warm (hit path), with a
//!    pending delta, after flush and compaction (invalidation), and
//!    under a one-page budget that forces eviction on nearly every read.
//!
//! 2. **Crash consistency.** The flush protocol of a cached open is
//!    tortured with the same two-state invariant as
//!    `crash_consistency.rs` — frozen disk at every op, torn prefixes at
//!    every write — and the recovered directory must answer identically
//!    whether it is reopened with or without a cache.

use climber_core::dfs::fsio::{FaultFs, FsRef};
use climber_core::dfs::page::PAGE_SIZE;
use climber_core::dfs::store::{partition_file_name, DiskStore, PartitionStore};
use climber_core::series::gen::Domain;
use climber_core::{
    BlockCache, CacheConfig, Climber, ClimberConfig, ClimberError, OpenOptions, QueryOutcome,
    RecoveryPolicy, SearchRequest, ShardedClimber,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const DOMAINS: [Domain; 4] = [Domain::RandomWalk, Domain::Eeg, Domain::Dna, Domain::TexMex];

fn tmp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("climber-cacheq-{tag}-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn copy_dir(src: &Path, dst: &Path) {
    fs::remove_dir_all(dst).ok();
    fs::create_dir_all(dst).unwrap();
    for entry in fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let from = entry.path();
        let to = dst.join(entry.file_name());
        if from.is_dir() {
            copy_dir(&from, &to);
        } else {
            fs::copy(&from, &to).unwrap();
        }
    }
}

/// Every mode in the unified surface, budgeted and not, over `queries`.
fn requests(queries: &[Vec<f32>], k: usize) -> Vec<SearchRequest> {
    let mut reqs = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        reqs.push(SearchRequest::new(q.clone(), k));
        reqs.push(SearchRequest::new(q.clone(), k).exact());
        reqs.push(SearchRequest::new(q.clone(), k).smallest());
        reqs.push(
            SearchRequest::new(q.clone(), k)
                .adaptive(2)
                .with_budget(2 + i),
        );
        let short: Vec<f32> = q.iter().step_by(2).copied().collect();
        reqs.push(SearchRequest::new(short, k).resampled(2));
    }
    reqs
}

/// Runs the full request matrix against all three indexes and insists on
/// bit-identical outcomes, through single-request and batch paths.
fn assert_invisible(
    baseline: &Climber<DiskStore>,
    cached: &Climber<DiskStore>,
    sharded: &ShardedClimber<DiskStore>,
    reqs: &[SearchRequest],
    ctx: &str,
) -> Result<(), TestCaseError> {
    let want: Vec<_> = reqs.iter().map(|r| baseline.search(r)).collect();
    for (req, want) in reqs.iter().zip(&want) {
        prop_assert_eq!(
            &cached.search(req),
            want,
            "cache-on single index diverged ({})",
            ctx
        );
        prop_assert_eq!(
            &sharded.search(req),
            want,
            "cache-on sharded single-request path diverged ({})",
            ctx
        );
    }
    prop_assert_eq!(
        &sharded.search_many(reqs),
        &want,
        "cache-on sharded batch path diverged ({})",
        ctx
    );
    Ok(())
}

/// The budget charge of a partition image of `len` bytes: whole pages.
fn charge_of(len: usize) -> usize {
    len.div_ceil(PAGE_SIZE).max(1) * PAGE_SIZE
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Contract 1: the block cache changes where bytes come from, never
    /// what they decode to — across modes, shard counts, budgets,
    /// updates, and maintenance.
    #[test]
    fn block_cache_is_invisible(
        seed in 0u64..400,
        n in 120usize..170,
        k in 1usize..8,
        pick in 0usize..16,
        capacity in 40u64..80,
        tiny in any::<bool>(),
    ) {
        let domain = DOMAINS[pick % 4];
        let num_shards = 1 + pick % 3;
        let ds = domain.generate(n, seed);
        let extra = domain.generate(6, seed ^ 0xE17A);
        let config = ClimberConfig::default()
            .with_paa_segments(8)
            .with_pivots(24)
            .with_prefix_len(4)
            .with_capacity(capacity)
            .with_alpha(0.5)
            .with_epsilon(1)
            .with_seed(seed ^ 0x5EED)
            .with_workers(2);

        let root = tmp_root(&format!("eq-{seed}-{pick}"));
        let base_dir = root.join("base");
        let cached_dir = root.join("cached");
        let shard_dir = root.join("shards");
        drop(Climber::build_on_disk(&ds, &base_dir, config).unwrap());
        // Byte-identical directory for the cached open: equality below is
        // over the *same* committed bytes, not a re-build.
        copy_dir(&base_dir, &cached_dir);
        drop(ShardedClimber::build_on_disk(&ds, &shard_dir, config, num_shards).unwrap());

        let cache_bytes = if tiny { PAGE_SIZE } else { 256 << 20 };
        let cc = CacheConfig::default().with_capacity_bytes(cache_bytes);

        let baseline = Climber::open_rw(&base_dir).unwrap();
        let (cached, report) =
            Climber::open_with_cache(&cached_dir, RecoveryPolicy::Strict, cc).unwrap();
        prop_assert!(report.is_clean());
        let (sharded, sreport) =
            ShardedClimber::open_with_cache(&shard_dir, RecoveryPolicy::Strict, cc).unwrap();
        prop_assert!(sreport.is_clean());
        if !tiny {
            // A roomy budget must have been pre-warmed by the open's own
            // validation reads — and the report must say so.
            prop_assert!(report.warmed_bytes > 0, "cold open warmed nothing");
            prop_assert!(sreport.warmed_bytes > 0, "sharded cold open warmed nothing");
        }
        let block = cached.block_cache().expect("cached open must attach a cache");
        prop_assert!(sharded.block_cache().is_some());

        // How many partition images even fit the budget (a one-page
        // budget can only evict if at least two images are insertable).
        let insertable: BTreeSet<u32> = cached
            .store()
            .ids()
            .into_iter()
            .filter(|id| {
                let len = fs::metadata(cached_dir.join(partition_file_name(*id)))
                    .unwrap()
                    .len() as usize;
                charge_of(len) <= cache_bytes
            })
            .collect();

        let queries: Vec<Vec<f32>> = (0..3u64)
            .map(|i| {
                let mut q = ds.get((i * 41) % n as u64).to_vec();
                if i % 2 == 1 {
                    q[0] += 0.25;
                }
                q
            })
            .collect();
        let reqs = requests(&queries, k);

        // Cold pass populates through the miss path; the warm pass is
        // served from memory. Both bit-identical to the cacheless index.
        assert_invisible(&baseline, &cached, &sharded, &reqs, "cold cache")?;
        assert_invisible(&baseline, &cached, &sharded, &reqs, "warm cache")?;

        let stats = block.stats();
        prop_assert!(
            stats.hits + stats.misses > 0,
            "sealed reads never consulted the cache"
        );
        // A one-page budget cannot keep two images resident, so once the
        // requests touch two insertable partitions, one sealed read went
        // to disk and one image was evicted. (Requests that touch only the
        // one partition the open warmed are served from memory,
        // legitimately, with neither.)
        let mut touched = BTreeSet::new();
        for r in &reqs {
            touched.extend(baseline.search(r).plan.reads.iter().map(|(&pid, _)| pid));
        }
        touched.retain(|pid| insertable.contains(pid));
        if tiny {
            if touched.len() >= 2 {
                prop_assert!(stats.misses > 0, "tiny budget never missed: {stats:?}");
            }
        } else {
            // A roomy budget was fully warmed by the open, so reads hit.
            prop_assert!(stats.hits > 0, "warm pass never hit: {stats:?}");
        }
        prop_assert!(
            stats.resident_bytes <= cache_bytes as u64,
            "budget exceeded: {} resident > {} budget",
            stats.resident_bytes,
            cache_bytes
        );
        if tiny && touched.len() >= 2 {
            prop_assert!(stats.evictions > 0, "one-page budget never evicted: {stats:?}");
        }

        // serve_io overlays the very same counters (quiescent, so the
        // two snapshots must agree), and the sharded set overlays its
        // one shared cache exactly once.
        let io = cached.serve_io();
        prop_assert_eq!(io.cache_hits, block.stats().hits);
        prop_assert_eq!(io.cache_misses, block.stats().misses);
        prop_assert_eq!(io.cache_resident_bytes, block.stats().resident_bytes);
        let sblock = sharded.block_cache().unwrap();
        prop_assert_eq!(sharded.serve_io().cache_resident_bytes, sblock.stats().resident_bytes);

        // A delta segment bypasses the cache; equality must survive the
        // mixed sealed/unsealed state and the deletes-present state.
        for j in 0..3u64 {
            let vals = extra.get(j).to_vec();
            let a = baseline.append(&vals).unwrap();
            prop_assert_eq!(cached.append(&vals).unwrap(), a);
            prop_assert_eq!(sharded.append(&vals).unwrap(), a);
        }
        prop_assert!(baseline.delete(seed % n as u64).unwrap());
        prop_assert!(cached.delete(seed % n as u64).unwrap());
        prop_assert!(sharded.delete(seed % n as u64).unwrap());
        assert_invisible(&baseline, &cached, &sharded, &reqs, "with delta")?;

        // Flush rewrites the touched partitions and must drop their stale
        // cache entries.
        baseline.flush().unwrap();
        cached.flush().unwrap();
        sharded.flush().unwrap();
        assert_invisible(&baseline, &cached, &sharded, &reqs, "after flush")?;

        // Compaction rewrites partitions wholesale.
        baseline.compact().unwrap();
        cached.compact().unwrap();
        sharded.compact().unwrap();
        assert_invisible(&baseline, &cached, &sharded, &reqs, "after compaction")?;

        // Cold truth: a cacheless reopen of the cached directory answers
        // identically — the on-disk state the cached index maintained is
        // the canonical one.
        drop(cached);
        let reopened = Climber::open_rw(&cached_dir).unwrap();
        for req in &reqs {
            prop_assert_eq!(
                reopened.search(req),
                baseline.search(req),
                "cacheless reopen of the cache-maintained directory diverged"
            );
        }

        fs::remove_dir_all(&root).ok();
    }
}

// ---------------------------------------------------------------------
// Contract 2: crash torture of the flush protocol under a cached open,
// mirroring the harness in `crash_consistency.rs`.
// ---------------------------------------------------------------------

fn cfg() -> ClimberConfig {
    ClimberConfig::default()
        .with_paa_segments(8)
        .with_pivots(32)
        .with_prefix_len(5)
        .with_capacity(60)
        .with_alpha(0.5)
        .with_epsilon(1)
        .with_seed(99)
        .with_workers(2)
}

fn torture_cache_config() -> CacheConfig {
    CacheConfig::default().with_capacity_bytes(8 << 20)
}

/// A strict read-write open over `fs` with the torture cache.
fn torture_options(fs: FsRef) -> OpenOptions {
    OpenOptions {
        writable: true,
        policy: RecoveryPolicy::Strict,
        cache: Some(Arc::new(BlockCache::new(torture_cache_config()))),
        fs,
    }
}

/// A committed state's fingerprint: manifest generation plus the exact
/// answers to the probe set.
type Fingerprint = (u64, Vec<QueryOutcome>);

/// Recovers `dir` with the real filesystem and fingerprints the
/// committed state — **twice**: once through a plain writable open (the
/// canonical recovery) and once through a cached open of the same
/// directory. The two must agree, so a crash can never leave bytes
/// behind that only one read path accepts.
fn recovered_state(dir: &Path, probes: &[Vec<f32>]) -> Fingerprint {
    let c = Climber::open_rw(dir).unwrap_or_else(|e| {
        panic!("recovery open of {} failed: {e}", dir.display());
    });
    let answers: Vec<_> = probes
        .iter()
        .map(|q| c.search(&SearchRequest::new(q.clone(), 5)))
        .collect();
    let plain = (c.generation(), answers);
    drop(c);

    let (cc, _) = Climber::open_with_cache(dir, RecoveryPolicy::Strict, torture_cache_config())
        .unwrap_or_else(|e| panic!("cached recovery open of {} failed: {e}", dir.display()));
    let cached_answers: Vec<_> = probes
        .iter()
        .map(|q| cc.search(&SearchRequest::new(q.clone(), 5)))
        .collect();
    assert_eq!(
        plain,
        (cc.generation(), cached_answers),
        "cached reopen of the recovered directory diverged from the plain one"
    );
    plain
}

fn assert_no_droppings(dir: &Path) {
    for entry in fs::read_dir(dir).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        assert!(
            !name.contains(".tmp."),
            "temp dropping survived recovery: {name}"
        );
        assert!(
            !name.ends_with(".new"),
            "stray stage survived recovery: {name}"
        );
    }
}

/// The torture op: six appends and a flush, on an index opened behind a
/// block cache — every partition the fold touches is staged, committed
/// and invalidated under it.
fn op_append_flush(c: &Climber<DiskStore>) -> Result<(), ClimberError> {
    let extra = Domain::RandomWalk.generate(6, 33);
    for i in 0..6 {
        c.append(extra.get(i))?;
    }
    c.flush()?;
    Ok(())
}

struct Torture {
    root: PathBuf,
    probes: Vec<Vec<f32>>,
    state_a: Fingerprint,
    state_b: Fingerprint,
    op_count: u64,
    write_ops: Vec<u64>,
}

impl Torture {
    fn prepare() -> Self {
        let root = tmp_root("torture");
        let golden = root.join("A");
        let ds = Domain::RandomWalk.generate(140, 21);
        drop(Climber::build_on_disk(&ds, &golden, cfg()).unwrap());

        // Probes: background coverage plus the six appended series,
        // which answer exactly in state B and are absent in state A.
        let mut probes: Vec<Vec<f32>> = {
            let g = Domain::RandomWalk.generate(2, 555);
            (0..2).map(|i| g.get(i).to_vec()).collect()
        };
        let appended = Domain::RandomWalk.generate(6, 33);
        probes.extend((0..6).map(|i| appended.get(i).to_vec()));

        let state_a = recovered_state(&golden, &probes);

        // Fault-free dry run through a counting FaultFs to learn the
        // protocol's exact op count and its write-op indices.
        let dry = root.join("dry");
        copy_dir(&golden, &dry);
        let ff = FaultFs::over_std();
        let fsref: FsRef = ff.clone();
        let (c, _) = Climber::open_dir(&dry, &torture_options(fsref)).unwrap();
        ff.arm();
        op_append_flush(&c).expect("fault-free run of the cached flush");
        ff.disarm();
        drop(c);
        let op_count = ff.op_count();
        assert!(op_count > 0, "protocol performed no filesystem operations");
        let write_ops: Vec<u64> = ff
            .trace()
            .iter()
            .enumerate()
            .filter(|(_, (kind, _))| *kind == climber_core::dfs::fsio::FsOp::Write)
            .map(|(i, _)| i as u64)
            .collect();
        assert!(!write_ops.is_empty(), "a flush must write partition bytes");

        let state_b = recovered_state(&dry, &probes);
        assert_ne!(
            state_a, state_b,
            "the probe set must tell the committed states apart"
        );
        Self {
            root,
            probes,
            state_a,
            state_b,
            op_count,
            write_ops,
        }
    }

    fn crash_once(&self, crash_op: u64, torn_keep: Option<usize>) {
        let work = self.root.join("work");
        copy_dir(&self.root.join("A"), &work);
        let ff = FaultFs::over_std();
        let fsref: FsRef = ff.clone();
        let (c, _) = Climber::open_dir(&work, &torture_options(fsref))
            .expect("pre-crash open is fault-free");
        match torn_keep {
            Some(keep) => ff.torn_crash_at(crash_op, keep),
            None => ff.crash_at(crash_op),
        }
        ff.arm();
        let result = op_append_flush(&c);
        ff.disarm();
        drop(c);

        let got = recovered_state(&work, &self.probes);
        let label = format!("crash at op {crash_op} (torn: {torn_keep:?})");
        if got == self.state_a {
            assert!(
                result.is_err(),
                "{label}: op claimed success but its effects vanished (state A)"
            );
        } else if got != self.state_b {
            panic!(
                "{label}: third state — generation {} is neither A (gen {}) nor B (gen {})",
                got.0, self.state_a.0, self.state_b.0
            );
        }
        assert_no_droppings(&work);
    }

    fn cleanup(self) {
        fs::remove_dir_all(&self.root).ok();
    }
}

/// Exhaustive sweep: a pure crash at every op of the cached flush,
/// then a torn write (1 byte kept, and most-of-the-page kept) at every
/// write op. The recovered directory must be state A or state B — never
/// a third — under both the plain and the cached read path.
#[test]
fn cached_flush_survives_every_crash_point() {
    let t = Torture::prepare();
    for i in 0..t.op_count {
        t.crash_once(i, None);
    }
    let writes = t.write_ops.clone();
    for w in writes {
        for keep in [1, 4096] {
            t.crash_once(w, Some(keep));
        }
    }
    t.cleanup();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Random crash coordinates over the same protocol (cases pinned;
    /// `PROPTEST_CASES` widens it in the CI cache lane).
    #[test]
    fn random_cached_crash_never_yields_a_third_state(
        frac in 0.0f64..1.0,
        torn in any::<bool>(),
        keep in 1usize..256,
    ) {
        let t = Torture::prepare();
        let crash_op = ((t.op_count as f64 - 1.0) * frac).round() as u64;
        t.crash_once(crash_op, torn.then_some(keep));
        t.cleanup();
    }
}
