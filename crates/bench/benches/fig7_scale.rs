//! Figure 7(c)+(d): query execution time and recall as the dataset grows
//! (RandomWalk, K = 500 in the paper; sizes 200 GB - 1 TB).
//!
//! Repo scaling: dataset sizes are fractions/multiples of `CLIMBER_N`.
//! The shape to reproduce: all indexed systems stay near-flat in query
//! time while Dss grows linearly; recall declines gently with size for
//! CLIMBER and stays far above the iSAX systems throughout.

use climber_bench::paper::FIG7D_RECALL_VS_SIZE;
use climber_bench::runner::{build_climber, build_dpisax, build_tardis, dataset, sweep, workload};
use climber_bench::table::{f3, ms, Table};
use climber_bench::{banner, default_k, default_n, default_queries, experiment_config, QUERY_SEED};
use climber_core::baselines::dss::dss_query;
use climber_core::series::gen::Domain;
use climber_core::SearchRequest;

fn main() {
    let base = default_n();
    let k = default_k();
    let nq = default_queries();
    banner(
        "Figure 7(c)+(d) — query time & recall vs dataset size (RandomWalk)",
        "paper: 200GB-1TB; shape: index query time ~flat, Dss linear; CLIMBER recall decays gently, stays highest",
    );

    // Five sizes standing in for 200..1000 GB.
    let sizes: Vec<usize> = [2, 4, 6, 8, 10].iter().map(|m| base * m / 4).collect();
    let mut table = Table::new(vec![
        "N",
        "system",
        "time(ms)",
        "recall",
        "paper-recall@size",
    ]);
    for (i, &n) in sizes.iter().enumerate() {
        let ds = dataset(Domain::RandomWalk, n);
        let (queries, truth) = workload(&ds, nq, k, QUERY_SEED);
        let cap = experiment_config(n).capacity;
        let paper = FIG7D_RECALL_VS_SIZE[i];

        let built = build_climber(&ds, experiment_config(n));
        let s = sweep(&ds, &queries, &truth, |q| {
            let o = built.climber.search(&SearchRequest::new(q, k).adaptive(4));
            (o.results, o.records_scanned, o.partitions_opened)
        });
        table.row(vec![
            n.to_string(),
            "CLIMBER-4X".into(),
            ms(s.secs),
            f3(s.recall),
            f3(paper.1),
        ]);

        let dp = build_dpisax(&ds, cap, 5);
        let s = sweep(&ds, &queries, &truth, |q| {
            let o = dp.index.query(&dp.store, q, k);
            (o.results, o.records_scanned, o.partitions_opened)
        });
        table.row(vec![
            n.to_string(),
            "DPiSAX".into(),
            ms(s.secs),
            f3(s.recall),
            f3(paper.2),
        ]);

        let td = build_tardis(&ds, cap, 7);
        let s = sweep(&ds, &queries, &truth, |q| {
            let o = td.index.query(&td.store, q, k);
            (o.results, o.records_scanned, o.partitions_opened)
        });
        table.row(vec![
            n.to_string(),
            "TARDIS".into(),
            ms(s.secs),
            f3(s.recall),
            f3(paper.3),
        ]);

        let s = sweep(&ds, &queries, &truth, |q| {
            let o = dss_query(built.climber.store(), q, k);
            (o.results, o.records_scanned, o.partitions_opened)
        });
        table.row(vec![
            n.to_string(),
            "Dss (exact)".into(),
            ms(s.secs),
            f3(s.recall),
            "1.000".into(),
        ]);
    }
    table.print();
    println!("\npaper-recall column: Figure 7(d) values at 200..1000GB (read off the chart).");
}
