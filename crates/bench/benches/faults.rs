//! Faults & recovery costs: what resilience charges at the margins.
//!
//! Three questions, one on-disk 4-shard set:
//!
//! 1. **Cold-open recovery time** — how much slower is a quarantining
//!    open of a damaged set than a strict open of a healthy one?
//! 2. **Scrub throughput** — how fast does [`ShardedClimber::scrub`]
//!    re-verify every committed partition checksum (MB/s)?
//! 3. **Degraded QPS** — with 1 of 4 shards quarantined (dead slot), what
//!    fraction of healthy batch throughput does the set still serve?
//!
//! Emits `BENCH_faults.json`. Scale with `CLIMBER_N` / `CLIMBER_QUERIES`,
//! or pass `--quick` for the CI smoke scale. Under
//! `CLIMBER_BENCH_STRICT=1` degraded QPS must stay >= 0.8x healthy —
//! losing a quarter of the data must never cost more than a fifth of the
//! throughput (the dead shard is skipped, not waited on).

use climber_bench::runner::dataset;
use climber_bench::table::{f2, Table};
use climber_bench::{default_k, env_usize, experiment_config, QUERY_SEED};
use climber_core::series::gen::{query_workload, Domain};
use climber_core::{OpenOptions, RecoveryPolicy, SearchRequest, ShardedClimber};
use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::time::Instant;

const SHARDS: usize = 4;

/// Total committed partition bytes under a set directory (scrub reads
/// every one of them).
fn partition_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    for shard in 0..SHARDS {
        let sub = dir.join(format!("shard-{shard:03}"));
        let Ok(entries) = fs::read_dir(&sub) else {
            continue;
        };
        for entry in entries.filter_map(|e| e.ok()) {
            if entry.path().extension().is_some_and(|e| e == "clbp") {
                total += entry.metadata().map_or(0, |m| m.len());
            }
        }
    }
    total
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let n = if quick {
        4_000
    } else {
        env_usize("CLIMBER_N", 20_000)
    };
    let total = env_usize("CLIMBER_QUERIES", if quick { 256 } else { 512 });
    let k = default_k();
    let reps = if quick { 2 } else { 3 };
    println!("==========================================================================");
    println!("Faults — recovery open, scrub throughput, degraded vs healthy QPS");
    println!("workload: {total} batched requests, K={k}, Adaptive-4X, best of {reps}");
    println!(
        "scale: N={n}, {SHARDS} shards{} (CLIMBER_N / CLIMBER_QUERIES)",
        if quick { " [--quick]" } else { "" }
    );
    println!("==========================================================================");

    let ds = dataset(Domain::RandomWalk, n);
    let config = experiment_config(n);
    let dir = std::env::temp_dir().join(format!("climber-bench-faults-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();

    let t = Instant::now();
    let built = ShardedClimber::build_on_disk(&ds, &dir, config, SHARDS).unwrap();
    let build_secs = t.elapsed().as_secs_f64();
    drop(built);
    println!("built {SHARDS}-shard on-disk set in {build_secs:.2}s");

    let qids = query_workload(&ds, total, QUERY_SEED);
    let requests: Vec<SearchRequest> = qids
        .iter()
        .map(|&q| SearchRequest::new(ds.get(q), k).adaptive(4))
        .collect();
    let best = |run: &dyn Fn() -> f64| {
        (0..reps)
            .map(|_| run())
            .min_by(f64::total_cmp)
            .expect("reps >= 1")
    };

    // 1a. Strict cold open of the healthy set.
    let healthy_open_secs = best(&|| {
        let t = Instant::now();
        let set = ShardedClimber::open(&dir).unwrap();
        let secs = t.elapsed().as_secs_f64();
        drop(set);
        secs
    });
    println!("healthy strict open: {:.1} ms", healthy_open_secs * 1e3);

    // 2. Scrub throughput over the healthy set.
    let bytes = partition_bytes(&dir);
    let mut set = ShardedClimber::open_rw(&dir).unwrap();
    let scrub_secs = (0..reps)
        .map(|_| {
            let t = Instant::now();
            let report = set.scrub().unwrap();
            assert!(report.is_fully_healthy());
            t.elapsed().as_secs_f64()
        })
        .min_by(f64::total_cmp)
        .expect("reps >= 1");
    let scrub_mbps = bytes as f64 / 1e6 / scrub_secs;
    println!(
        "scrub: {:.1} MB of partitions in {:.1} ms -> {scrub_mbps:.1} MB/s",
        bytes as f64 / 1e6,
        scrub_secs * 1e3
    );

    // 3a. Healthy batch QPS.
    let healthy_secs = best(&|| {
        let t = Instant::now();
        let out = set.search_many(&requests);
        assert_eq!(out.len(), requests.len());
        t.elapsed().as_secs_f64()
    });
    let healthy_qps = total as f64 / healthy_secs;
    println!("healthy: {healthy_qps:.1} QPS");
    drop(set);

    // Quarantine shard 0 wholesale: destroy its manifest so the
    // recovering open leaves a dead slot (1 of 4 shards gone).
    let manifest = dir.join("shard-000").join(climber_core::MANIFEST_FILE);
    let manifest_bytes = fs::read(&manifest).unwrap();
    fs::remove_file(&manifest).unwrap();

    // 1b. Recovery cold open of the damaged set.
    let quarantining = OpenOptions {
        writable: true,
        policy: RecoveryPolicy::Quarantine,
        ..OpenOptions::default()
    };
    let recovery_open_secs = best(&|| {
        let t = Instant::now();
        let (set, report) = ShardedClimber::open_dir(&dir, &quarantining).unwrap();
        let secs = t.elapsed().as_secs_f64();
        assert_eq!(report.dead_shards, vec![0]);
        drop(set);
        secs
    });
    println!(
        "recovery open (1 dead shard): {:.1} ms",
        recovery_open_secs * 1e3
    );

    // 3b. Degraded batch QPS with the dead slot in place.
    let (degraded_set, _) = ShardedClimber::open_dir(&dir, &quarantining).unwrap();
    assert_eq!(degraded_set.health().dead_shards, 1);
    let degraded_secs = best(&|| {
        let t = Instant::now();
        let out = degraded_set.search_many(&requests);
        assert_eq!(out.len(), requests.len());
        t.elapsed().as_secs_f64()
    });
    let degraded_qps = total as f64 / degraded_secs;
    let ratio = degraded_qps / healthy_qps;
    println!("degraded (3/{SHARDS} shards): {degraded_qps:.1} QPS -> {ratio:.2}x healthy");
    drop(degraded_set);

    // Repair for good measure: the directory is left healthy behind us.
    fs::write(&manifest, &manifest_bytes).unwrap();

    let mut table = Table::new(vec!["metric", "value"]);
    table.row(vec!["build_s".into(), f2(build_secs)]);
    table.row(vec!["healthy_open_ms".into(), f2(healthy_open_secs * 1e3)]);
    table.row(vec![
        "recovery_open_ms".into(),
        f2(recovery_open_secs * 1e3),
    ]);
    table.row(vec!["scrub_mb_per_s".into(), f2(scrub_mbps)]);
    table.row(vec!["healthy_qps".into(), f2(healthy_qps)]);
    table.row(vec!["degraded_qps".into(), f2(degraded_qps)]);
    table.row(vec!["degraded_over_healthy".into(), f2(ratio)]);
    table.print();

    // BENCH_*.json record (consumed by tooling; schema kept flat).
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"bench\": \"faults\",\n  \"n\": {n},\n  \"queries\": {total},\n  \"k\": {k},\n  \"shards\": {SHARDS},\n"
    );
    let _ = writeln!(json, "  \"build_secs\": {build_secs:.4},");
    let _ = write!(
        json,
        "  \"healthy_open_secs\": {healthy_open_secs:.6},\n  \"recovery_open_secs\": {recovery_open_secs:.6},\n"
    );
    let _ = write!(
        json,
        "  \"scrub_bytes\": {bytes},\n  \"scrub_secs\": {scrub_secs:.6},\n  \"scrub_mb_per_s\": {scrub_mbps:.2},\n"
    );
    let _ = write!(
        json,
        "  \"healthy_qps\": {healthy_qps:.2},\n  \"degraded_qps\": {degraded_qps:.2},\n  \"degraded_over_healthy\": {ratio:.4}\n}}\n"
    );
    let path = "BENCH_faults.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }

    fs::remove_dir_all(&dir).ok();

    if std::env::var("CLIMBER_BENCH_STRICT").as_deref() == Ok("1") {
        assert!(
            ratio >= 0.8,
            "degraded QPS {degraded_qps:.1} is {ratio:.2}x healthy {healthy_qps:.1}, below the 0.8x floor"
        );
    }
}
