//! Figure 8(a)+(b): index construction time and global index size across
//! the four datasets for CLIMBER, DPiSAX and TARDIS (Dss builds nothing) —
//! plus, for CLIMBER, two costs the paper's build-once/query-many
//! deployment depends on: the persistence path (`save` — partition copy +
//! checksums + manifest — and cold `open`) and the **multi-core build
//! speedup** (sequential vs. N-thread construction of the *same*, bit-
//! identical index).
//!
//! Shape to reproduce: DPiSAX's construction is by far the slowest (its
//! split tree updates per record); CLIMBER is slightly slower than TARDIS
//! (pivot conversions cost more than iSAX words); every global index is
//! tiny (KBs here, MBs in the paper) and TARDIS's sigTree is the largest
//! of the three. Cold open must be orders of magnitude cheaper than the
//! build, and the parallel build must approach the paper's cluster-scaling
//! story on a single machine (Figure 10(a) splits the same three phases).
//!
//! Emits a `BENCH_fig8_index.json` record next to the printed table:
//! per-row `build_secs` is the N-thread build (matching the historical
//! default-workers semantics of this field), `build_seq_secs` the
//! 1-thread reference, with the thread count and aggregate
//! `build_speedup` at top level. Under `CLIMBER_BENCH_STRICT=1` the
//! harness *gates* the speedup: >= 1.5x with 4+ hardware threads (the CI
//! multi-core config), >= 1.2x on 2-3 threads (Amdahl headroom at smoke
//! scale), >= 1.0x (trivially met — the sequential build is reused) on
//! 1-core runners.
//!
//! Knobs: `CLIMBER_BUILD_THREADS` overrides the parallel thread count
//! (default: available parallelism).

use climber_bench::paper::{FIG8A_BUILD_MIN, FIG8B_INDEX_MB};
use climber_bench::runner::{
    build_climber_with, build_dpisax, build_tardis, cold_open, dataset, BuiltClimber,
};
use climber_bench::table::{f2, kib, Table};
use climber_bench::{banner, default_n, env_usize, experiment_config};
use climber_core::BuildOptions;
use climber_core::SearchRequest;
use std::fmt::Write as _;

struct ClimberRow {
    domain: &'static str,
    build_seq_secs: f64,
    build_par_secs: f64,
    save_secs: f64,
    open_secs: f64,
    index_bytes: usize,
}

fn main() {
    let n = default_n();
    let threads = env_usize(
        "CLIMBER_BUILD_THREADS",
        std::thread::available_parallelism()
            .map(|t| t.get())
            .unwrap_or(1),
    )
    .max(1);
    banner(
        "Figure 8(a)+(b) — construction time (sequential vs parallel), index size & cold-open",
        "paper: 200GB; shape: DPiSAX slowest build; global indexes tiny; cold open << build",
    );
    println!("parallel build threads: {threads} (CLIMBER_BUILD_THREADS)");

    let mut table = Table::new(vec![
        "dataset".to_string(),
        "system".to_string(),
        "build-1t(s)".to_string(),
        format!("build-{threads}t(s)"),
        "save(s)".to_string(),
        "cold-open(s)".to_string(),
        "paper-build(min)".to_string(),
        "index(KiB)".to_string(),
        "paper-index(MB)".to_string(),
    ]);
    let mut climber_rows: Vec<ClimberRow> = Vec::new();
    for ((domain, pa), pb) in climber_bench::FIGURE_DOMAINS
        .iter()
        .zip(FIG8A_BUILD_MIN.iter())
        .zip(FIG8B_INDEX_MB.iter())
    {
        let ds = dataset(*domain, n);
        let cap = experiment_config(n).capacity;

        // Sequential reference, then the N-thread build of the same
        // config. Determinism bar: the two skeletons must match bit for
        // bit — the speedup may never buy a different index.
        let seq = build_climber_with(
            &ds,
            experiment_config(n),
            BuildOptions::default().with_threads(1),
        );
        let build_seq_secs = seq.build_secs;
        let (c, build_par_secs): (BuiltClimber, f64) = if threads > 1 {
            let par = build_climber_with(
                &ds,
                experiment_config(n),
                BuildOptions::default().with_threads(threads),
            );
            assert_eq!(
                par.climber.skeleton().to_bytes(),
                seq.climber.skeleton().to_bytes(),
                "parallel build produced a different skeleton on {}",
                domain.name()
            );
            let secs = par.build_secs;
            (par, secs)
        } else {
            // 1-core runner: the "parallel" build *is* the sequential one.
            (seq, build_seq_secs)
        };

        let co = cold_open(&c.climber, &format!("fig8-{}", domain.name()));
        // The reopened index must answer like the built one.
        let probe = ds.get(0);
        assert_eq!(
            co.climber
                .search(&SearchRequest::new(probe, 10).exact())
                .results,
            c.climber
                .search(&SearchRequest::new(probe, 10).exact())
                .results,
            "reopened index diverged on {}",
            domain.name()
        );
        std::fs::remove_dir_all(&co.dir).ok();
        table.row(vec![
            domain.name().to_string(),
            "CLIMBER".into(),
            f2(build_seq_secs),
            f2(build_par_secs),
            f2(co.save_secs),
            f2(co.open_secs),
            f2(pa.1),
            kib(c.index_bytes),
            f2(pb.1),
        ]);
        climber_rows.push(ClimberRow {
            domain: domain.name(),
            build_seq_secs,
            build_par_secs,
            save_secs: co.save_secs,
            open_secs: co.open_secs,
            index_bytes: c.index_bytes,
        });

        let dp = build_dpisax(&ds, cap, 5);
        table.row(vec![
            domain.name().to_string(),
            "DPiSAX".into(),
            f2(dp.build_secs),
            "-".into(),
            "-".into(),
            "-".into(),
            f2(pa.2),
            kib(dp.index_bytes),
            f2(pb.2),
        ]);

        let td = build_tardis(&ds, cap, 7);
        table.row(vec![
            domain.name().to_string(),
            "TARDIS".into(),
            f2(td.build_secs),
            "-".into(),
            "-".into(),
            "-".into(),
            f2(pa.3),
            kib(td.index_bytes),
            f2(pb.3),
        ]);
    }
    table.print();

    // Aggregate speedup over the four datasets (total seq / total par);
    // exactly 1.0 on 1-core runs, where the build is reused.
    let total_seq: f64 = climber_rows.iter().map(|r| r.build_seq_secs).sum();
    let total_par: f64 = climber_rows.iter().map(|r| r.build_par_secs).sum();
    let build_speedup = if threads > 1 {
        total_seq / total_par.max(1e-9)
    } else {
        1.0
    };
    println!(
        "\nbuild speedup at {threads} threads: {build_speedup:.2}x \
         ({total_seq:.2}s sequential vs {total_par:.2}s parallel, bit-identical output)"
    );

    // BENCH_*.json record (consumed by tooling; schema kept flat).
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"bench\": \"fig8_index\",\n  \"n\": {n},\n  \"build_threads\": {threads},\n  \"build_speedup\": {build_speedup:.3},\n  \"rows\": ["
    );
    for (i, r) in climber_rows.iter().enumerate() {
        let _ = write!(
            json,
            "{}\n    {{\"dataset\": \"{}\", \"build_secs\": {:.4}, \"build_seq_secs\": {:.4}, \"save_secs\": {:.4}, \"cold_open_secs\": {:.4}, \"index_bytes\": {}}}",
            if i == 0 { "" } else { "," },
            r.domain,
            r.build_par_secs,
            r.build_seq_secs,
            r.save_secs,
            r.open_secs,
            r.index_bytes
        );
    }
    let _ = write!(json, "\n  ]\n}}\n");
    let path = "BENCH_fig8_index.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\ncould not write {path}: {e}"),
    }

    println!(
        "\nnote: the DPiSAX-like build here routes every record through the split tree\n\
         (the paper attributes DPiSAX's slowness to per-record structure updates);\n\
         absolute times are not comparable across 4 orders of magnitude of scale.\n\
         save/cold-open apply to CLIMBER's persisted deployment mode only."
    );

    if std::env::var("CLIMBER_BENCH_STRICT").as_deref() == Ok("1") {
        // Full target only with 4+ threads: at smoke scale the serial
        // phases (centroids, trie packing, shard merge) cap a 2-core
        // speedup well below its ideal 2.0x.
        let target = if threads >= 4 {
            1.5
        } else if threads > 1 {
            1.2
        } else {
            1.0
        };
        assert!(
            build_speedup >= target,
            "parallel build speedup {build_speedup:.2}x below the {target}x target at {threads} threads"
        );
        println!("strict gate passed: {build_speedup:.2}x >= {target}x");
    }
}
