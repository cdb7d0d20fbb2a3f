//! Result rows, provenance, and the JSON the ledger writes.
//!
//! Every run writes its full result (provenance + per-metric slice table)
//! to `ledger/out/` and ends standard output with the one-line JSON of
//! the benchmark contract.

use crate::check::Checker;
use crate::stats::{Better, Spread};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Row {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind `value` (requests, repetitions, or 1 for a reading).
    pub n_samples: usize,
    /// Across-slice median and quartiles, when the metric is sliced.
    pub spread: Option<Spread>,
}

impl Row {
    pub fn reading(name: &'static str, unit: &'static str, value: f64, n_samples: usize) -> Self {
        Self {
            name,
            unit,
            value,
            n_samples,
            spread: None,
        }
    }

    /// A sliced timing: the value is the quiet quartile across slices.
    pub fn quiet(
        name: &'static str,
        unit: &'static str,
        per_slice: &[f64],
        better: Better,
        n_samples: usize,
    ) -> Self {
        let spread = Spread::of(per_slice);
        Self {
            name,
            unit,
            value: spread.quiet(better),
            n_samples,
            spread: Some(spread),
        }
    }
}

/// Where and how a result was produced.
#[derive(Debug, Clone)]
pub struct Provenance {
    pub workload: String,
    pub seed: u64,
    pub window_s: u64,
    pub traced: bool,
    pub smoke: bool,
    pub git_sha: String,
    pub kernel_tier: &'static str,
    pub nproc: usize,
    pub scratch_dir: String,
    pub scratch_fs: String,
    pub index_config: String,
    pub serve_config: String,
    pub scale: String,
}

/// The outcome of one run, ready to print.
pub struct RunResult {
    pub provenance: Provenance,
    /// The contract's metrics: end-to-end untraced, per-layer traced.
    pub rows: Vec<Row>,
    /// Informational readings beside them (never in the contract line).
    pub info: Vec<Row>,
    pub checks: Checker,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.checks.wrong == 0
    }
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The contract's last line: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
pub fn contract_line(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .rows
        .iter()
        .map(|row| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(row.name),
                num(row.value),
                json_str(row.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct(),
        r.checks.attempted.max(1),
        r.checks.failed,
        metrics.join(", ")
    )
}

/// The full result file: provenance, verdict, per-metric slice table.
pub fn full_json(r: &RunResult) -> String {
    let p = &r.provenance;
    let mut s = String::from("{\n  \"provenance\": {\n");
    let fields: [(&str, String); 13] = [
        ("workload", json_str(&p.workload)),
        ("seed", p.seed.to_string()),
        ("window_s", p.window_s.to_string()),
        ("traced", p.traced.to_string()),
        ("smoke", p.smoke.to_string()),
        ("git_sha", json_str(&p.git_sha)),
        ("kernel_tier", json_str(p.kernel_tier)),
        ("nproc", p.nproc.to_string()),
        ("scratch_dir", json_str(&p.scratch_dir)),
        ("scratch_fs", json_str(&p.scratch_fs)),
        ("index_config", json_str(&p.index_config)),
        ("serve_config", json_str(&p.serve_config)),
        ("scale", json_str(&p.scale)),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("    {}: {}", json_str(k), v))
        .collect();
    s.push_str(&body.join(",\n"));
    let _ = write!(
        s,
        "\n  }},\n  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"violations\": [{}],\n  \"metrics\": [\n",
        r.correct(),
        r.checks.attempted,
        r.checks.failed,
        r.checks
            .violations
            .iter()
            .map(|v| json_str(v))
            .collect::<Vec<_>>()
            .join(", ")
    );
    s.push_str(&rows_json(&r.rows));
    s.push_str("\n  ],\n  \"info\": [\n");
    s.push_str(&rows_json(&r.info));
    s.push_str("\n  ]\n}\n");
    s
}

fn rows_json(rows: &[Row]) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|row| {
            let mut line = format!(
                "    {{\"name\": {}, \"unit\": {}, \"value\": {}, \"n_samples\": {}",
                json_str(row.name),
                json_str(row.unit),
                num(row.value),
                row.n_samples
            );
            if let Some(sp) = &row.spread {
                let slices: Vec<String> = sp.slices.iter().map(|&v| num(v)).collect();
                let _ = write!(
                    line,
                    ", \"median\": {}, \"q1\": {}, \"q3\": {}, \"slices\": [{}]",
                    num(sp.median),
                    num(sp.q1),
                    num(sp.q3),
                    slices.join(", ")
                );
            }
            line.push('}');
            line
        })
        .collect();
    rows.join(",\n")
}

/// The human-readable table: every metric by name, with unit and sample
/// count, and the slice spread where there is one.
pub fn print_table(r: &RunResult) {
    println!(
        "{:<36} {:>16} {:<8} {:>9}  across slices: median [q1 .. q3] (n)",
        "metric", "value", "unit", "samples"
    );
    for row in r.rows.iter().chain(&r.info) {
        let spread = row.spread.as_ref().map_or(String::new(), |sp| {
            format!(
                "  {:.6} [{:.6} .. {:.6}] ({})",
                sp.median,
                sp.q1,
                sp.q3,
                sp.slices.len()
            )
        });
        println!(
            "{:<36} {:>16.6} {:<8} {:>9}{}",
            row.name, row.value, row.unit, row.n_samples, spread
        );
    }
    for v in &r.checks.violations {
        println!("VIOLATION: {v}");
    }
}

// ---- the environment -------------------------------------------------------

/// `ledger/` as compiled: results and scratch space live under it, so a
/// run reads and writes only inside its own checkout.
pub fn ledger_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

pub fn out_dir() -> PathBuf {
    ledger_dir().join("out")
}

/// Commit of the checkout, or `unknown` outside a git work tree (the
/// benchmark driver's checkouts are plain directories).
pub fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(ledger_dir())
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type holding `path`, from the longest matching mount point.
pub fn filesystem_of(path: &Path) -> String {
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".into();
    };
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// Resident set size of this process in MB (`VmRSS`).
pub fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hands the allocator's free pages back to the OS, so that `rss_peak_mb`
/// is the opened index and the window's own allocations, not whatever the
/// harness's three set-ups and the dataset generator happened to leave
/// parked in which thread's arena (that varied by 10 % run to run).
pub fn release_free_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers and is safe to
        // call from any thread at any time; it only releases free memory.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Total bytes of regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
