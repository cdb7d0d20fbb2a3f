//! Criterion microbenchmarks for the hot kernels: distance computation,
//! PAA, signature extraction, OD/WD, trie descent and the partition codec.
//! These are the per-record costs that dominate Step 4 of the build and
//! the refinement stage of every query.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use climber_core::dfs::format::{PartitionReader, PartitionWriter};
use climber_core::pivot::assignment::CentroidTable;
use climber_core::pivot::decay::DecayFunction;
use climber_core::pivot::distances::{overlap_distance, weight_distance};
use climber_core::pivot::pivots::PivotSet;
use climber_core::pivot::signature::{DualSignature, RankInsensitive, RankSensitive};
use climber_core::repr::isax::ISaxWord;
use climber_core::repr::paa::paa;
use climber_core::series::distance::{ed, ed_early_abandon, sq_ed};
use climber_core::series::gen::Domain;
use climber_core::SearchRequest;

fn bench_distances(c: &mut Criterion) {
    let ds = Domain::RandomWalk.generate(2, 1);
    let x = ds.get(0).to_vec();
    let y = ds.get(1).to_vec();
    let mut g = c.benchmark_group("distance");
    g.bench_function("sq_ed_256", |b| {
        b.iter(|| sq_ed(black_box(&x), black_box(&y)))
    });
    g.bench_function("ed_256", |b| b.iter(|| ed(black_box(&x), black_box(&y))));
    g.bench_function("ed_early_abandon_tight", |b| {
        b.iter(|| ed_early_abandon(black_box(&x), black_box(&y), 1.0))
    });
    g.finish();
}

fn bench_representations(c: &mut Criterion) {
    let ds = Domain::RandomWalk.generate(1, 2);
    let x = ds.get(0).to_vec();
    let mut g = c.benchmark_group("repr");
    g.bench_function("paa_256_to_16", |b| b.iter(|| paa(black_box(&x), 16)));
    g.bench_function("isax_word_16x8", |b| {
        b.iter(|| ISaxWord::from_series(black_box(&x), 16, 8))
    });
    g.finish();
}

fn bench_signatures(c: &mut Criterion) {
    let ds = Domain::RandomWalk.generate(300, 3);
    let pivots = PivotSet::select_random(&ds, 16, 200, 4);
    let x = ds.get(0).to_vec();
    let mut g = c.benchmark_group("signature");
    g.bench_function("dual_signature_r200_m10", |b| {
        b.iter(|| DualSignature::extract(black_box(&x), &pivots, 16, 10))
    });
    g.finish();
}

fn bench_metrics(c: &mut Criterion) {
    let a = RankInsensitive(vec![1, 5, 9, 13, 17, 21, 25, 29, 33, 37]);
    let bsig = RankInsensitive(vec![1, 4, 9, 14, 17, 22, 25, 30, 33, 38]);
    let x = RankSensitive(vec![9, 1, 17, 25, 33, 5, 13, 21, 29, 37]);
    // 24 centroids of m = 10 over P = 200 pivots, the ledger's shape.
    let centroids: Vec<RankInsensitive> = (0..24u16)
        .map(|i| RankInsensitive((0..10).map(|j| i * 8 + j).collect()))
        .collect();
    let table = CentroidTable::new(&centroids, 200, DecayFunction::DEFAULT, 10).unwrap();
    let mut g = c.benchmark_group("metrics");
    g.bench_function("overlap_distance_m10", |b| {
        b.iter(|| overlap_distance(black_box(&a), black_box(&bsig)))
    });
    g.bench_function("weight_distance_m10", |b| {
        b.iter(|| weight_distance(black_box(&x), black_box(&a), DecayFunction::DEFAULT))
    });
    g.bench_function("assign_group_24_centroids", |b| {
        b.iter(|| black_box(&table).assign(black_box(&x.0), 7))
    });
    g.finish();
}

fn bench_partition_codec(c: &mut Criterion) {
    let ds = Domain::RandomWalk.generate(1000, 5);
    let mut g = c.benchmark_group("partition");
    g.bench_function("encode_1000x256", |b| {
        b.iter_batched(
            || (),
            |_| {
                let mut w = PartitionWriter::new(1, 256);
                w.push_cluster(0, (0..1000u64).map(|i| (i, ds.get(i))));
                w.finish()
            },
            BatchSize::SmallInput,
        )
    });
    let mut w = PartitionWriter::new(1, 256);
    w.push_cluster(0, (0..1000u64).map(|i| (i, ds.get(i))));
    let bytes = w.finish();
    g.bench_function("decode_scan_1000x256", |b| {
        b.iter(|| {
            let r = PartitionReader::open(bytes.clone()).unwrap();
            let mut acc = 0.0f32;
            r.for_each(|_, vals| acc += vals[0]);
            acc
        })
    });
    g.finish();
}

fn bench_end_to_end_query(c: &mut Criterion) {
    use climber_core::{Climber, ClimberConfig};
    let ds = Domain::RandomWalk.generate(5_000, 6);
    let climber = Climber::build_in_memory(
        &ds,
        ClimberConfig::default()
            .with_paa_segments(16)
            .with_pivots(100)
            .with_prefix_len(10)
            .with_capacity(500)
            .with_alpha(0.2)
            .with_max_centroids(6)
            .with_seed(5),
    );
    let exact = SearchRequest::new(ds.get(99), 100).exact();
    let adaptive = exact.clone().adaptive(4);
    let mut g = c.benchmark_group("query");
    g.sample_size(20);
    g.bench_function("climber_knn_5k", |b| {
        b.iter(|| climber.search(black_box(&exact)))
    });
    g.bench_function("climber_adaptive4x_5k", |b| {
        b.iter(|| climber.search(black_box(&adaptive)))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_distances,
    bench_representations,
    bench_signatures,
    bench_metrics,
    bench_partition_codec,
    bench_end_to_end_query
);
criterion_main!(benches);
