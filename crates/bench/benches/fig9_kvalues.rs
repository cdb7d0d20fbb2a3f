//! Figure 9(a)+(b): recall and query time as the answer size K grows
//! (RandomWalk; paper: 400 GB, K ∈ {50, 100, 500, 1000, 2000}).
//!
//! Shape to reproduce: (1) CLIMBER stays the most accurate approximate
//! system at every K; (2) the three CLIMBER variations coincide at small K
//! and the adaptive ones become more robust as K outgrows the target trie
//! node; (3) all approximate systems' times stay in the same ballpark
//! while Dss is orders of magnitude slower.

use climber_bench::paper::{FIG9A_RECALL_VS_K, FIG9B_TIME_VS_K};
use climber_bench::runner::{build_climber, build_dpisax, build_tardis, dataset, sweep, workload};
use climber_bench::table::{f3, ms, Table};
use climber_bench::{banner, default_n, default_queries, experiment_config, QUERY_SEED};
use climber_core::baselines::dss::dss_query;
use climber_core::series::gen::Domain;
use climber_core::SearchRequest;

fn main() {
    let n = default_n();
    let nq = default_queries();
    banner(
        "Figure 9(a)+(b) — recall & query time vs K",
        "paper: RandomWalk 400GB, K in {50,100,500,1000,2000}; shape: variants split as K grows",
    );

    // K values scaled to the dataset: the paper's 50..2000 on 400M series
    // stresses K beyond node capacity; here the same pressure happens at
    // K up to ~n/10.
    let ks: Vec<usize> = vec![50, 100, 500, 1000, 2000]
        .into_iter()
        .map(|k| k.min(n / 4))
        .collect();

    let ds = dataset(Domain::RandomWalk, n);
    let cfg = experiment_config(n);
    let built = build_climber(&ds, cfg);
    let dp = build_dpisax(&ds, cfg.capacity, 5);
    let td = build_tardis(&ds, cfg.capacity, 7);

    let mut table = Table::new(vec![
        "K",
        "system",
        "time(ms)",
        "recall",
        "paper-recall",
        "paper-time(s)",
    ]);
    for (i, &k) in ks.iter().enumerate() {
        let (queries, truth) = workload(&ds, nq, k, QUERY_SEED);
        let pa = FIG9A_RECALL_VS_K[i];
        let pb = FIG9B_TIME_VS_K[i];

        let s = sweep(&ds, &queries, &truth, |q| {
            let o = built.climber.search(&SearchRequest::new(q, k).exact());
            (o.results, o.records_scanned, o.partitions_opened)
        });
        table.row(vec![
            k.to_string(),
            "CLIMBER-kNN".into(),
            ms(s.secs),
            f3(s.recall),
            f3(pa.2),
            format!("{:.1}", pb.4),
        ]);

        for (name, factor, paper_recall, paper_time) in [
            ("Adaptive-2X", 2usize, pa.1, pb.3),
            ("Adaptive-4X", 4, pa.1, pb.2),
        ] {
            let s = sweep(&ds, &queries, &truth, |q| {
                let o = built
                    .climber
                    .search(&SearchRequest::new(q, k).adaptive(factor));
                (o.results, o.records_scanned, o.partitions_opened)
            });
            table.row(vec![
                k.to_string(),
                name.into(),
                ms(s.secs),
                f3(s.recall),
                f3(paper_recall),
                format!("{paper_time:.1}"),
            ]);
        }

        let s = sweep(&ds, &queries, &truth, |q| {
            let o = dp.index.query(&dp.store, q, k);
            (o.results, o.records_scanned, o.partitions_opened)
        });
        table.row(vec![
            k.to_string(),
            "DPiSAX".into(),
            ms(s.secs),
            f3(s.recall),
            f3(pa.3),
            format!("{:.1}", pb.6),
        ]);

        let s = sweep(&ds, &queries, &truth, |q| {
            let o = td.index.query(&td.store, q, k);
            (o.results, o.records_scanned, o.partitions_opened)
        });
        table.row(vec![
            k.to_string(),
            "TARDIS".into(),
            ms(s.secs),
            f3(s.recall),
            f3(pa.4),
            format!("{:.1}", pb.5),
        ]);

        let s = sweep(&ds, &queries, &truth, |q| {
            let o = dss_query(built.climber.store(), q, k);
            (o.results, o.records_scanned, o.partitions_opened)
        });
        table.row(vec![
            k.to_string(),
            "Dss (exact)".into(),
            ms(s.secs),
            f3(s.recall),
            "1.000".into(),
            format!("{:.0}", pb.1),
        ]);
    }
    table.print();
    println!("\npaper columns: Figure 9(a) recall (chart) and the Figure 9(b) time table.");
}
