//! Figure 10(a)+(b): impact of the number of pivots on (a) the three
//! construction phases and (b) query recall across datasets.
//!
//! Shape to reproduce: (a) skeleton building barely moves with the pivot
//! count (it runs on a sample and truncates to the prefix), while full-data
//! conversion and re-distribution grow with it; (b) recall peaks in a
//! mid-range band of pivots — too few pivots give coarse groups, too many
//! re-introduce the curse of dimensionality (paper: 150-250 sweet spot).

use climber_bench::paper::FIG10B_RECALL_VS_PIVOTS;
use climber_bench::runner::{dataset, sweep, workload};
use climber_bench::table::{f2, f3, Table};
use climber_bench::{banner, default_k, default_n, default_queries, experiment_config, QUERY_SEED};
use climber_core::dfs::store::DiskStore;
use climber_core::index::builder::IndexBuilder;
use climber_core::series::gen::Domain;
use climber_core::Climber;
use climber_core::SearchRequest;

fn main() {
    let n = default_n();
    let k = default_k();
    let nq = default_queries();
    banner(
        "Figure 10(a)+(b) — impact of the number of pivots",
        "paper: 200GB, K=500, pivots 50..350; shape: recall peaks mid-range; skeleton phase ~flat",
    );

    let pivot_counts = [50usize, 100, 150, 200, 250, 300, 350];

    // (a) construction phases on RandomWalk
    println!("\n(a) construction phases (RandomWalk):");
    let ds = dataset(Domain::RandomWalk, n);
    let mut ta = Table::new(vec![
        "pivots",
        "skeleton(s)",
        "conversion(s)",
        "redistribution(s)",
    ]);
    for &r in &pivot_counts {
        let cfg = experiment_config(n).with_pivots(r);
        let store = DiskStore::in_memory();
        let (_, report) = IndexBuilder::new(cfg).build(&ds, &store);
        ta.row(vec![
            r.to_string(),
            f2(report.skeleton_secs),
            f2(report.conversion_secs),
            f2(report.redistribution_secs),
        ]);
    }
    ta.print();

    // (b) recall per domain
    println!("\n(b) recall vs pivots:");
    let mut tb = Table::new(vec![
        "pivots",
        "RandomWalk",
        "TexMex",
        "EEG",
        "DNA",
        "paper-avg",
    ]);
    for (i, &r) in pivot_counts.iter().enumerate() {
        let mut cells = vec![r.to_string()];
        for domain in climber_bench::FIGURE_DOMAINS {
            let ds = dataset(domain, n);
            let cfg = experiment_config(n).with_pivots(r);
            let climber = Climber::build_in_memory(&ds, cfg);
            let (queries, truth) = workload(&ds, nq, k, QUERY_SEED);
            let s = sweep(&ds, &queries, &truth, |q| {
                let o = climber.search(&SearchRequest::new(q, k).adaptive(4));
                (o.results, o.records_scanned, o.partitions_opened)
            });
            cells.push(f3(s.recall));
        }
        cells.push(f3(FIG10B_RECALL_VS_PIVOTS[i].1));
        tb.row(cells);
    }
    tb.print();
    println!("\npaper-avg column: Figure 10(b), averaged over its four curves.");
}
