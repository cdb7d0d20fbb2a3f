//! Figure 12: impact of the prefix length m (paper: RandomWalk 400 GB,
//! K = 500, m ∈ {6..40}, everything reported relative to m = 10).
//!
//! Shape to reproduce: short prefixes (6-8) lose accuracy quickly; the
//! index size and construction time grow with m and the size growth
//! saturates; query time is flat until m gets large; recall peaks around
//! 10-20 then declines as the space over-fragments.

use climber_bench::paper::FIG12_PREFIX_RELATIVE;
use climber_bench::runner::{dataset, sweep, workload};
use climber_bench::table::{f2, Table};
use climber_bench::{banner, default_k, default_n, default_queries, experiment_config, QUERY_SEED};
use climber_core::dfs::store::MemStore;
use climber_core::index::builder::IndexBuilder;
use climber_core::series::gen::Domain;
use climber_core::Climber;
use climber_core::SearchRequest;
use climber_pivot::decay::DecayFunction;

fn main() {
    let n = default_n();
    let k = default_k();
    let nq = default_queries();
    banner(
        "Figure 12 — impact of the prefix length (relative to m = 10)",
        "paper shape: accuracy collapses below m=10, peaks 10-20, over-fragments at 25+; size/time grow with m",
    );
    // Optional decay ablation: CLIMBER_DECAY=linear switches Def. 9's decay.
    let decay = match std::env::var("CLIMBER_DECAY").as_deref() {
        Ok("linear") => DecayFunction::Linear,
        _ => DecayFunction::DEFAULT,
    };

    let prefixes = [6usize, 8, 10, 15, 20, 25, 30, 40];
    let ds = dataset(Domain::RandomWalk, n);
    let (queries, truth) = workload(&ds, nq, k, QUERY_SEED);

    struct Point {
        m: usize,
        index_bytes: f64,
        build_secs: f64,
        query_secs: f64,
        recall: f64,
    }
    let mut points = Vec::new();
    for &m in &prefixes {
        // The paper's index-size growth comes from the number of distinct
        // prefixes (groups + trie nodes) growing with m; leave the group
        // count to Algorithm 2's own stopping rules rather than the capped
        // geometry the other experiments use.
        let mut cfg = experiment_config(n).with_prefix_len(m).with_decay(decay);
        cfg.max_centroids = None;
        cfg.epsilon = (m / 5).max(1);
        let store = MemStore::new();
        let builder = IndexBuilder::new(cfg);
        let t = std::time::Instant::now();
        let (skeleton, report) = builder.build(&ds, &store);
        let build_secs = t.elapsed().as_secs_f64();
        let climber = Climber::from_parts(skeleton, store);
        let s = sweep(&ds, &queries, &truth, |q| {
            let o = climber.search(&SearchRequest::new(q, k).adaptive(4));
            (o.results, o.records_scanned, o.partitions_opened)
        });
        points.push(Point {
            m,
            index_bytes: report.skeleton_bytes as f64,
            build_secs,
            query_secs: s.secs,
            recall: s.recall,
        });
    }

    let reference = points
        .iter()
        .find(|p| p.m == 10)
        .expect("m=10 is in the sweep");
    let (rb, rt, rq, rr) = (
        reference.index_bytes,
        reference.build_secs,
        reference.query_secs,
        reference.recall,
    );
    println!(
        "\nreference point m=10: index {:.1} KiB, build {:.2}s, query {:.2}ms, recall {:.3}",
        rb / 1024.0,
        rt,
        rq * 1000.0,
        rr
    );
    let mut table = Table::new(vec![
        "prefix",
        "size-x",
        "build-x",
        "query-x",
        "recall-x",
        "paper(size,build,query,recall)",
    ]);
    for p in &points {
        let paper = FIG12_PREFIX_RELATIVE
            .iter()
            .find(|&&(m, ..)| m == p.m)
            .expect("paper row");
        table.row(vec![
            p.m.to_string(),
            f2(p.index_bytes / rb),
            f2(p.build_secs / rt),
            f2(p.query_secs / rq),
            f2(p.recall / rr.max(1e-9)),
            format!(
                "{:.2}, {:.2}, {:.2}, {:.2}",
                paper.1, paper.2, paper.3, paper.4
            ),
        ]);
    }
    table.print();
    println!("\n(paper reference at m=10: 2.5MB index, 91min build, 12.3s query, recall 0.71)");
}
