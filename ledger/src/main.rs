//! The perf ledger: the repository's end-to-end + per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path ledger/Cargo.toml -- \
//!     --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! One invocation generates its inputs from the seed, sets the index up,
//! checks answers, prints every metric by name with unit and sample
//! count, and ends with the benchmark contract's one-line JSON. See
//! `README.md` beside this crate for the metric glossary.

mod check;
mod ingest;
mod inputs;
mod report;
mod speed;
mod stats;
mod sut;
mod trace;
mod workloads;

use inputs::Scale;
use report::{Provenance, RunResult};
use workloads::{Ctx, Kind, ScratchDir, NAMES};

const USAGE: &str = "usage: ledger --workload <serve-closed|direct-warm|direct-cold|batch-sharded|ingest-mixed> \
--seed <u64> --seconds <n> --trace <0|1> [--smoke]\n       ledger --smoke        (every workload, small, plus one traced run)";

struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    Kind::parse(&name)
                        .ok_or(format!("unknown workload {name}; one of {NAMES:?}"))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: u64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=120).contains(&s) {
                    return Err("--seconds must be between 1 and 120".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_none() && !args.smoke {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn run_one(
    kind: Kind,
    seed: u64,
    seconds: u64,
    traced: bool,
    smoke: bool,
) -> Result<RunResult, String> {
    let scale = if smoke { Scale::smoke() } else { Scale::full() };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let out_dir = report::out_dir();
    let scratch = ScratchDir::create(
        &out_dir.join("scratch"),
        &format!("{}.seed{seed}", kind.name()),
    )?;
    let provenance = Provenance {
        workload: kind.name().into(),
        seed,
        window_s: seconds,
        traced,
        smoke,
        git_sha: report::git_sha(),
        kernel_tier: sut::kernel_tier(),
        nproc,
        scratch_dir: scratch.path().display().to_string(),
        scratch_fs: report::filesystem_of(scratch.path()),
        index_config: sut::describe_config(&sut::index_config(scale.n, nproc)),
        serve_config: sut::describe_serve_config(),
        scale: format!("{scale:?}"),
    };
    println!(
        "ledger: {} seed {seed} window {seconds}s trace {} (N={}, nproc {nproc}, kernels {}, scratch on {})",
        kind.name(),
        traced as u8,
        scale.n,
        provenance.kernel_tier,
        provenance.scratch_fs,
    );
    let ctx = Ctx {
        kind,
        seed,
        seconds,
        scale,
        nproc,
        scratch,
    };
    let mut measured = match (traced, kind) {
        (true, _) => trace::run(&ctx)?,
        (false, Kind::IngestMixed) => ingest::run(&ctx)?,
        (false, _) => workloads::run_read_only(&ctx)?,
    };
    measured.checks.close();
    measured.info.push(report::Row::reading(
        "check.self_hit_share",
        "ratio",
        measured.checks.self_found as f64 / measured.checks.self_tried.max(1) as f64,
        measured.checks.self_tried as usize,
    ));
    drop(ctx); // removes the scratch directory
    let result = RunResult {
        provenance,
        rows: measured.rows,
        info: measured.info,
        checks: measured.checks,
    };
    report::print_table(&result);
    let file = out_dir.join(format!(
        "{}.seed{seed}{}.json",
        kind.name(),
        if traced { ".layers" } else { "" }
    ));
    std::fs::write(&file, report::full_json(&result))
        .map_err(|e| format!("{}: {e}", file.display()))?;
    println!("wrote {}", file.display());
    Ok(result)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(why) => {
            eprintln!("ledger: {why}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // the full-size default is BENCHMARK.json's `run_seconds`
    let seconds = args.seconds.unwrap_or(if args.smoke { 2 } else { 15 });
    // `--smoke` alone: all five workloads and one traced run, for humans
    // and CI. Otherwise exactly the one run the arguments name.
    let runs: Vec<(Kind, bool)> = match args.workload {
        Some(kind) => vec![(kind, args.trace)],
        None => Kind::ALL
            .into_iter()
            .map(|k| (k, false))
            .chain([(Kind::DirectWarm, true)])
            .collect(),
    };
    let mut all_correct = true;
    for (kind, traced) in runs {
        match run_one(kind, args.seed, seconds, traced, args.smoke) {
            Ok(result) => {
                all_correct &= result.correct();
                println!("{}", report::contract_line(&result));
            }
            Err(why) => {
                eprintln!("ledger: {} failed: {why}", kind.name());
                std::process::exit(1);
            }
        }
    }
    if !all_correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the code name the same workloads and metrics.
    #[test]
    fn benchmark_json_matches_the_code() {
        let json = include_str!("../../BENCHMARK.json");
        let declares = |name: &str, unit: &str| {
            json.split("\"name\": ").any(|rest| {
                rest.starts_with(&format!("\"{name}\","))
                    && rest[..rest.len().min(120)].contains(&format!("\"unit\": \"{unit}\""))
            })
        };
        for (name, unit) in trace::PER_LAYER {
            assert!(declares(name, unit), "per_layer lacks {name} ({unit})");
        }
        let end_to_end = [
            ("setup_s", "s"),
            ("qps", "1/s"),
            ("latency_p50_ms", "ms"),
            ("latency_p95_ms", "ms"),
            ("recall_at_k", "ratio"),
            ("rss_peak_mb", "MB"),
            ("disk_bytes_per_user_byte", "ratio"),
        ];
        for (name, unit) in end_to_end {
            assert!(declares(name, unit), "end_to_end lacks {name} ({unit})");
        }
        for name in NAMES {
            assert!(
                json.contains(&format!("\"name\": \"{name}\"")),
                "workloads lack {name}"
            );
        }
        assert_eq!(
            json.matches("\"unit\"").count(),
            trace::PER_LAYER.len() + end_to_end.len()
        );
    }
}
