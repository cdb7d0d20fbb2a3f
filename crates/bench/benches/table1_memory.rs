//! Table I: CLIMBER vs the in-memory engines (Odyssey-like exact,
//! HNSW standing in for ParlayANN) as data outgrows memory.
//!
//! The paper's cluster has ~850 GB usable memory; ParlayANN additionally
//! fits on a single node. ParlayANN hits X (cannot run) at 600 GB and
//! Odyssey at 1 TB while CLIMBER keeps serving from disk. Here the memory
//! budget is scaled so the same cliff appears inside the sweep: HNSW's X
//! arrives first (graph overhead on one node), Odyssey's second, CLIMBER
//! never.
//!
//! Shape to reproduce: Odyssey recall 1.0 and fastest queries while it
//! fits; HNSW slowest construction but sub-ms queries and ~0.9 recall;
//! CLIMBER the only system serving every size, with bounded query time
//! and gently declining recall.

use climber_bench::paper::{opt, TABLE1};
use climber_bench::runner::{build_climber, dataset, sweep, workload};
use climber_bench::table::{f3, Table};
use climber_bench::{banner, default_k, default_n, default_queries, experiment_config, QUERY_SEED};
use climber_core::baselines::hnsw::{HnswConfig, HnswIndex};
use climber_core::baselines::odyssey::{OdysseyConfig, OdysseyIndex};
use climber_core::series::gen::Domain;
use climber_core::SearchRequest;
use std::time::Instant;

fn main() {
    let base = default_n();
    let k = default_k();
    let nq = default_queries();
    banner(
        "Table I — CLIMBER vs in-memory systems (Odyssey, HNSW/ParlayANN)",
        "shape: in-memory engines win while data fits, then hit X; CLIMBER keeps serving",
    );

    // Sizes standing in for 200..1500 GB; memory budget scaled so the
    // cliffs land mid-sweep (HNSW first, Odyssey later), mirroring
    // ParlayANN's X at 600GB and Odyssey's at 1TB.
    let sizes: Vec<usize> = [2usize, 4, 6, 8, 10, 15]
        .iter()
        .map(|m| base * m / 4)
        .collect();
    let payload_per_series = 256 * 4; // RandomWalk record bytes
                                      // Budgets sit between consecutive sweep sizes so the X cells land at
                                      // the paper's positions: Odyssey X from the 5th size (1 TB analog),
                                      // HNSW X from the 3rd (600 GB analog, ParlayANN).
    let odyssey_budget = (sizes[3] * payload_per_series) as u64 * 9 / 8;
    let hnsw_budget = (sizes[1] * payload_per_series) as u64 * 3 / 2;

    let mut table = Table::new(vec![
        "N",
        "system",
        "I.C.T(s)",
        "Q.R.T(ms)",
        "recall",
        "paper(ICT,QRT,RR)",
    ]);
    let paper_sizes = [200u32, 400, 600, 800, 1000, 1500];
    for (i, &n) in sizes.iter().enumerate() {
        let ds = dataset(Domain::RandomWalk, n);
        let (queries, truth) = workload(&ds, nq, k, QUERY_SEED);
        let paper_size = paper_sizes[i];
        let paper_of = |system: &str| -> String {
            TABLE1
                .iter()
                .find(|&&(s, name, ..)| s == paper_size && name == system)
                .map(|&(_, _, ict, qrt, rr)| {
                    format!("{}, {}, {}", opt(ict, 0), opt(qrt, 1), opt(rr, 2))
                })
                .unwrap_or_else(|| "-".into())
        };

        // CLIMBER (always runs)
        let built = build_climber(&ds, experiment_config(n));
        let s = sweep(&ds, &queries, &truth, |q| {
            let o = built.climber.search(&SearchRequest::new(q, k).adaptive(4));
            (o.results, o.records_scanned, o.partitions_opened)
        });
        table.row(vec![
            n.to_string(),
            "CLIMBER".into(),
            format!("{:.2}", built.build_secs),
            format!("{:.2}", s.secs * 1000.0),
            f3(s.recall),
            paper_of("CLIMBER"),
        ]);

        // Odyssey-like exact engine under its budget
        let t = Instant::now();
        match OdysseyIndex::build(
            &ds,
            OdysseyConfig {
                memory_budget: Some(odyssey_budget),
                ..OdysseyConfig::default()
            },
        ) {
            Ok((ody, _)) => {
                let build = t.elapsed().as_secs_f64();
                let s = sweep(&ds, &queries, &truth, |q| {
                    let o = ody.query(&ds, q, k);
                    (o.results, o.records_scanned, o.partitions_opened)
                });
                table.row(vec![
                    n.to_string(),
                    "Odyssey".into(),
                    format!("{build:.2}"),
                    format!("{:.2}", s.secs * 1000.0),
                    f3(s.recall),
                    paper_of("Odyssey"),
                ]);
            }
            Err(_) => {
                table.row(vec![
                    n.to_string(),
                    "Odyssey".into(),
                    "X".into(),
                    "X".into(),
                    "X".into(),
                    paper_of("Odyssey"),
                ]);
            }
        }

        // HNSW under its (single-node) budget
        let t = Instant::now();
        match HnswIndex::build(
            &ds,
            HnswConfig {
                memory_budget: Some(hnsw_budget),
                ef_construction: 64,
                ..HnswConfig::default()
            },
        ) {
            Ok((hnsw, _)) => {
                let build = t.elapsed().as_secs_f64();
                let s = sweep(&ds, &queries, &truth, |q| {
                    let o = hnsw.query(&ds, q, k);
                    (o.results, o.records_scanned, o.partitions_opened)
                });
                table.row(vec![
                    n.to_string(),
                    "HNSW".into(),
                    format!("{build:.2}"),
                    format!("{:.2}", s.secs * 1000.0),
                    f3(s.recall),
                    paper_of("ParlayANN"),
                ]);
            }
            Err(_) => {
                table.row(vec![
                    n.to_string(),
                    "HNSW".into(),
                    "X".into(),
                    "X".into(),
                    "X".into(),
                    paper_of("ParlayANN"),
                ]);
            }
        }
    }
    table.print();
    println!(
        "\npaper column: Table I (I.C.T min, Q.R.T s, recall) at 200..1500GB; X = cannot run.\n\
         memory budgets here: HNSW {} MiB, Odyssey {} MiB (scaled to land the X cells mid-sweep).",
        hnsw_budget / (1 << 20),
        odyssey_budget / (1 << 20)
    );
}
