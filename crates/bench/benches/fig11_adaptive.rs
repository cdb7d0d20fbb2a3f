//! Figure 11(a)+(b): the adaptive variants under K pressure, and the
//! OD-Smallest trade-off.
//!
//! (a) For each query, let m be the size of the trie node CLIMBER-kNN
//! lands on; sweep K ∈ {m, 2m, 4m, 8m, 10m} and measure the recall boost
//! of Adaptive-2X/4X over plain kNN. Shape: boost grows with K/m, tens of
//! percent at 10m.
//!
//! (b) On DNA and EEG, compare OD-Smallest (scan all OD-tied groups) to
//! the three variants: it reads multiples of the data for a <10-25%
//! relative recall improvement — the evidence that trie-narrowing pays.

use climber_bench::paper::{FIG11A_BOOST, FIG11B_DNA, FIG11B_EEG};
use climber_bench::runner::{build_climber, dataset};
use climber_bench::table::{f2, f3, Table};
use climber_bench::{banner, default_n, default_queries, experiment_config, QUERY_SEED};
use climber_core::series::gen::{query_workload, Domain};
use climber_core::series::ground_truth::exact_knn;
use climber_core::series::recall::recall_of_results;
use climber_core::SearchRequest;

fn main() {
    let n = default_n();
    let nq = default_queries();
    banner(
        "Figure 11(a)+(b) — adaptive variants & the OD-Smallest trade-off",
        "shape: adaptive boost grows with K/m; OD-Smallest reads multiples of the data for bounded recall gain",
    );

    // ---------------- (a) recall boost vs K/m ----------------
    println!("\n(a) adaptive recall boost vs K pressure (RandomWalk):");
    let ds = dataset(Domain::RandomWalk, n);
    let built = build_climber(&ds, experiment_config(n));
    let queries = query_workload(&ds, nq, QUERY_SEED);
    let multiples = [1usize, 2, 4, 8, 10];
    let mut ta = Table::new(vec![
        "K/m",
        "kNN-recall",
        "boost-2X(%)",
        "boost-4X(%)",
        "paper-2X(%)",
        "paper-4X(%)",
    ]);
    for (i, &mult) in multiples.iter().enumerate() {
        let (mut rk, mut r2, mut r4) = (0.0, 0.0, 0.0);
        for &qid in &queries {
            let probe = built
                .climber
                .search(&SearchRequest::new(ds.get(qid), 1).exact());
            let m = probe.plan.primary_node_size.max(1) as usize;
            let k = (m * mult).clamp(1, n / 2);
            let exact = exact_knn(&ds, ds.get(qid), k);
            let nqf = queries.len() as f64;
            rk += recall_of_results(
                &built
                    .climber
                    .search(&SearchRequest::new(ds.get(qid), k).exact())
                    .results,
                &exact,
            ) / nqf;
            r2 += recall_of_results(
                &built
                    .climber
                    .search(&SearchRequest::new(ds.get(qid), k).adaptive(2))
                    .results,
                &exact,
            ) / nqf;
            r4 += recall_of_results(
                &built
                    .climber
                    .search(&SearchRequest::new(ds.get(qid), k).adaptive(4))
                    .results,
                &exact,
            ) / nqf;
        }
        let boost = |r: f64| if rk > 0.0 { 100.0 * (r - rk) / rk } else { 0.0 };
        let paper = FIG11A_BOOST[i];
        ta.row(vec![
            format!("{mult}m"),
            f3(rk),
            f2(boost(r2)),
            f2(boost(r4)),
            f2(paper.1),
            f2(paper.2),
        ]);
    }
    ta.print();

    // ---------------- (b) OD-Smallest relative scores ----------------
    for (domain, paper) in [(Domain::Dna, FIG11B_DNA), (Domain::Eeg, FIG11B_EEG)] {
        println!(
            "\n(b) OD-Smallest / variant relative scores ({}):",
            domain.name()
        );
        let ds = dataset(domain, n);
        // Paper geometry: each group spans many partitions, so a full
        // group scan reads a large multiple of a one-node query. Use a
        // finer partition capacity (n/40) with few groups to recreate it.
        let cfg = experiment_config(n)
            .with_capacity((n as u64 / 40).max(50))
            .with_max_centroids(5);
        let built = build_climber(&ds, cfg);
        let queries = query_workload(&ds, nq, QUERY_SEED ^ 1);
        let k = climber_bench::default_k();

        // measure each variant + OD-Smallest
        let mut acc: Vec<(f64, f64)> = Vec::new(); // (records, recall) per variant
        let mut ods_records = 0.0;
        let mut ods_recall = 0.0;
        for (vi, factor) in [(0usize, 0usize), (1, 2), (2, 4)] {
            let (mut recs, mut rec) = (0.0, 0.0);
            for &qid in &queries {
                let exact = exact_knn(&ds, ds.get(qid), k);
                let out = if factor == 0 {
                    built
                        .climber
                        .search(&SearchRequest::new(ds.get(qid), k).exact())
                } else {
                    built
                        .climber
                        .search(&SearchRequest::new(ds.get(qid), k).adaptive(factor))
                };
                recs += out.records_scanned as f64 / queries.len() as f64;
                rec += recall_of_results(&out.results, &exact) / queries.len() as f64;
                if vi == 0 {
                    let o = built
                        .climber
                        .search(&SearchRequest::new(ds.get(qid), k).smallest());
                    ods_records += o.records_scanned as f64 / queries.len() as f64;
                    ods_recall += recall_of_results(&o.results, &exact) / queries.len() as f64;
                }
            }
            acc.push((recs, rec));
        }

        let mut tb = Table::new(vec![
            "variant",
            "access-ratio",
            "recall-ratio",
            "paper-access",
            "paper-recall",
        ]);
        for (i, name) in ["kNN", "Adapt-2X", "Adapt-4X"].iter().enumerate() {
            let (recs, rec) = acc[i];
            tb.row(vec![
                name.to_string(),
                f2(ods_records / recs.max(1.0)),
                f2(ods_recall / rec.max(1e-9)),
                f2(paper[i].1),
                f2(paper[i].2),
            ]);
        }
        tb.print();
    }
    println!("\npaper columns: Figure 11 values (charts; access/recall ratios of OD-Smallest over each variant).");
}
