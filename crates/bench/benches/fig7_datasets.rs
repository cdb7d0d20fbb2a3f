//! Figure 7(a)+(b): query execution time and recall across the four
//! evaluation datasets for CLIMBER, DPiSAX, TARDIS and Dss.
//!
//! Paper setting: 200 GB per dataset, K = 500, 50 queries. Repo setting:
//! `CLIMBER_N` series per dataset (default 20 000), K = `CLIMBER_K`.
//! The shape to reproduce: Dss is orders of magnitude slower with recall
//! 1.0; the three indexes are in the same time ballpark; CLIMBER's recall
//! is 25-35+ points above DPiSAX and TARDIS on every dataset.

use climber_bench::paper::FIG7B_RECALL;
use climber_bench::runner::{build_climber, build_dpisax, build_tardis, dataset, sweep, workload};
use climber_bench::table::{f3, ms, Table};
use climber_bench::{banner, default_k, default_n, default_queries, experiment_config, QUERY_SEED};
use climber_core::baselines::dss::dss_query;
use climber_core::SearchRequest;

fn main() {
    let n = default_n();
    let k = default_k();
    let nq = default_queries();
    banner(
        "Figure 7(a)+(b) — query time & recall per dataset",
        "paper: 200GB/dataset, K=500; shape: Dss exact but ~70x slower; CLIMBER recall >> DPiSAX/TARDIS",
    );

    let mut table = Table::new(vec![
        "dataset",
        "system",
        "time(ms)",
        "recall",
        "paper-recall",
    ]);
    for (domain, paper) in climber_bench::FIGURE_DOMAINS
        .iter()
        .zip(FIG7B_RECALL.iter())
    {
        let ds = dataset(*domain, n);
        let (queries, truth) = workload(&ds, nq, k, QUERY_SEED);
        let cap = experiment_config(n).capacity;

        let built = build_climber(&ds, experiment_config(n));
        let s = sweep(&ds, &queries, &truth, |q| {
            let o = built.climber.search(&SearchRequest::new(q, k).adaptive(4));
            (o.results, o.records_scanned, o.partitions_opened)
        });
        table.row(vec![
            domain.name().to_string(),
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
            domain.name().to_string(),
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
            domain.name().to_string(),
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
            domain.name().to_string(),
            "Dss (exact)".into(),
            ms(s.secs),
            f3(s.recall),
            f3(paper.4),
        ]);
    }
    table.print();
    println!("\npaper-recall column: Figure 7(b) values at 200GB (read off the chart).");
}
