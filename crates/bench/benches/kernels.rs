//! Per-record kernel microbench: dispatched SIMD vs forced scalar.
//!
//! Times the kernels the build and query hot loops are made of — `sq_ed`,
//! `ed_early_abandon`, `paa_into` and single-record signature extraction
//! (the last two are single-tier: their inputs are too short to vectorise
//! profitably) — once through the runtime-detected
//! dispatch path and once with the scalar reference pinned, and reports
//! the speedup. Because every tier is bit-identical, the two columns
//! measure the same work; only the instruction mix differs.
//!
//! Three columns per kernel: the dispatched path, the pinned scalar
//! *tier* (the 8-lane reference — which LLVM itself auto-vectorises to
//! SSE2 on x86-64, so it is a strong fallback, not a strawman), and for
//! `sq_ed` additionally the *naive* single-accumulator scalar baseline,
//! which floating-point non-associativity keeps genuinely scalar.
//!
//! One paired row follows the table: the scan's per-record step before and
//! after it scored records in place — `decode_into` + `ed_early_abandon`
//! against `ed_early_abandon_le` — over 1 000 records laid out back to
//! back as a cluster image, under the bound a full 100-NN heap would hold,
//! on every tier the host runs.
//!
//! A second, single-tier table closes the run: the kernels with nothing to
//! dispatch — OD and WD over m = 10 signatures, Algorithm 1's group
//! assignment against 24 centroids, the iSAX word, and the partition codec
//! encoding and scanning 1 000 records. These rows are not gated.
//!
//! Prints the detected CPU features in the header and records them in
//! `BENCH_kernels.json`. With `CLIMBER_BENCH_STRICT=1` the run asserts that
//! on AVX2 hosts `sq_ed` reaches >= 2x over the naive scalar baseline *and*
//! beats the scalar tier outright (the dependency chain of the pinned
//! per-lane summation order bounds the tier-vs-tier gap: one FP add per
//! lane per chunk is the latency floor for every bit-identical
//! implementation, so the tier-vs-tier ratio lands well under 2x by
//! construction). On hosts without AVX2 the gate relaxes to >= 1.0x over
//! the scalar tier and the relaxation reason is logged; and on every tier
//! scoring in place must be at least as fast as decoding first. `--quick`
//! shrinks the repetition count to the CI smoke cadence.

use climber_core::dfs::format::{PartitionReader, PartitionWriter};
use climber_core::pivot::assignment::CentroidTable;
use climber_core::pivot::decay::DecayFunction;
use climber_core::pivot::distances::{overlap_distance, weight_distance};
use climber_core::pivot::pivots::PivotSet;
use climber_core::pivot::signature::{
    DualSignature, RankInsensitive, RankSensitive, SignatureScratch,
};
use climber_core::repr::isax::ISaxWord;
use climber_core::repr::paa::paa_into;
use climber_core::series::gen::Domain;
use climber_core::series::kernels::{
    self, ed_early_abandon, ed_early_abandon_le, ed_early_abandon_with, sq_ed, sq_ed_with, Dispatch,
};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// One kernel measured both ways.
struct Row {
    kernel: &'static str,
    dispatched_ns: f64,
    scalar_ns: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.scalar_ns / self.dispatched_ns.max(1e-9)
    }
}

/// Best-of-`reps` nanoseconds per call for `iters` calls of `f`.
fn time_ns(reps: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm up caches and the dispatch cell outside the timed region
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_secs_f64() * 1e9 / iters as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Times `f` through the auto-dispatch path and again with the scalar
/// tier pinned via the forced-dispatch hook (the bench is
/// single-threaded, so pinning is race-free).
fn measure(kernel: &'static str, reps: usize, iters: usize, mut f: impl FnMut()) -> Row {
    let dispatched_ns = time_ns(reps, iters, &mut f);
    kernels::force(Some(Dispatch::Scalar));
    let scalar_ns = time_ns(reps, iters, &mut f);
    kernels::force(None);
    Row {
        kernel,
        dispatched_ns,
        scalar_ns,
    }
}

/// The naive textbook scalar loop: one running sum, strictly sequential.
/// Float addition is non-associative, so LLVM cannot vectorise this —
/// it is the honest "no SIMD, no lane trick" baseline the 2x gate
/// compares against.
#[inline(never)]
fn naive_sq_ed(x: &[f32], y: &[f32]) -> f64 {
    assert_eq!(x.len(), y.len());
    let mut acc = 0.0f64;
    for (a, b) in x.iter().zip(y.iter()) {
        let d = f64::from(*a) - f64::from(*b);
        acc += d * d;
    }
    acc
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (reps, iters) = if quick { (3, 2_000) } else { (7, 20_000) };

    let detected = kernels::detect();
    let features: Vec<&str> = Dispatch::available().iter().map(|d| d.name()).collect();
    println!("==========================================================================");
    println!("Kernels — dispatched SIMD vs forced scalar (ns/op, best of {reps})");
    println!(
        "cpu: dispatch={} available=[{}]{}",
        detected.name(),
        features.join(", "),
        if quick { " [--quick]" } else { "" }
    );
    println!("==========================================================================");

    let ds = Domain::RandomWalk.generate(300, 9);
    let x = ds.get(0).to_vec();
    let y = ds.get(1).to_vec();
    // The paper's default scale: 200 pivots in 16-segment PAA space,
    // prefix length 10 — the exact per-record cost of Step-4 conversion.
    let pivots = PivotSet::select_random(&ds, 16, 200, 4);
    let exact = sq_ed(&x, &y);

    // Sanity first: the two columns must be the same bits, or the timing
    // comparison is meaningless.
    assert_eq!(
        sq_ed(&x, &y).to_bits(),
        sq_ed_with(Dispatch::Scalar, &x, &y).to_bits(),
        "dispatched sq_ed disagrees with scalar — bit-identity broken"
    );
    assert_eq!(
        ed_early_abandon(&x, &y, exact * 0.5).map(f64::to_bits),
        ed_early_abandon_with(Dispatch::Scalar, &x, &y, exact * 0.5).map(f64::to_bits)
    );

    let mut rows = Vec::new();
    rows.push(measure("sq_ed_256", reps, iters, || {
        black_box(sq_ed(black_box(&x), black_box(&y)));
    }));
    rows.push(measure("ed_early_abandon_mid_bound", reps, iters, || {
        // A bound around half the true distance abandons mid-series —
        // the realistic refinement-stage mix of work and bail-out.
        black_box(ed_early_abandon(black_box(&x), black_box(&y), exact * 0.5));
    }));
    rows.push(measure("ed_early_abandon_loose_bound", reps, iters, || {
        black_box(ed_early_abandon(
            black_box(&x),
            black_box(&y),
            f64::INFINITY,
        ));
    }));
    let y_le: Vec<u8> = y.iter().flat_map(|v| v.to_le_bytes()).collect();
    rows.push(measure(
        "ed_early_abandon_le_mid_bound",
        reps,
        iters,
        || {
            black_box(ed_early_abandon_le(
                black_box(&x),
                black_box(&y_le),
                exact * 0.5,
            ));
        },
    ));
    rows.push(measure(
        "ed_early_abandon_le_no_abandon",
        reps,
        iters,
        || {
            black_box(ed_early_abandon_le(
                black_box(&x),
                black_box(&y_le),
                f64::INFINITY,
            ));
        },
    ));
    let mut arena: Vec<f64> = Vec::with_capacity(16);
    rows.push(measure("paa_into_256_to_16", reps, iters, || {
        arena.clear();
        paa_into(black_box(&x), 16, &mut arena);
        black_box(arena.last().copied());
    }));
    let mut scratch = SignatureScratch::new();
    rows.push(measure(
        "signature_extract_r200_m10",
        reps,
        iters / 10,
        || {
            black_box(DualSignature::extract_with(
                black_box(&x),
                &pivots,
                16,
                10,
                &mut scratch,
            ));
        },
    ));

    println!(
        "{:<30} {:>12} {:>12} {:>9}",
        "kernel", "dispatched", "scalar", "speedup"
    );
    for r in &rows {
        println!(
            "{:<30} {:>10.1}ns {:>10.1}ns {:>8.2}x",
            r.kernel,
            r.dispatched_ns,
            r.scalar_ns,
            r.speedup()
        );
    }

    let sq_ed_row = &rows[0];
    let vs_tier = sq_ed_row.speedup();
    let naive_ns = time_ns(reps, iters, || {
        black_box(naive_sq_ed(black_box(&x), black_box(&y)));
    });
    let vs_naive = naive_ns / sq_ed_row.dispatched_ns.max(1e-9);
    // The gate: on AVX2 hosts, >= 2x over the naive scalar baseline and
    // strictly ahead of the scalar tier. (The bit-identity contract pins
    // the per-lane summation order, so one FP add per lane per chunk is
    // a hard latency floor shared by every tier — the tier-vs-tier ratio
    // cannot reach 2x by construction; the naive baseline is the honest
    // "no SIMD" reference.) Without AVX2 the dispatched path *is* the
    // scalar tier, so the gate relaxes to tier parity and says why.
    let avx2 = detected == Dispatch::Avx2;
    let (gate, passed, reason) = if avx2 {
        (2.0, vs_naive >= 2.0 && vs_tier >= 1.0, None)
    } else {
        (
            1.0,
            vs_tier >= 1.0,
            Some(format!(
                "host dispatches {} (no AVX2) — gate relaxed to >= 1.0x vs the scalar tier",
                detected.name()
            )),
        )
    };
    if let Some(reason) = &reason {
        println!("\nnote: {reason}");
    }
    println!(
        "sq_ed: {:.1}ns dispatched | {:.1}ns scalar tier ({vs_tier:.2}x) | {naive_ns:.1}ns naive scalar ({vs_naive:.2}x; target >= {gate:.1}x)",
        sq_ed_row.dispatched_ns, sq_ed_row.scalar_ns
    );

    // The scan's per-record step, both ways, over a cluster image: 1 000
    // records back to back, so value bytes start wherever `8 + i * 1032`
    // lands. The bound is the one a full 100-NN heap holds once the
    // cluster has been seen — most records abandon early, as in a scan.
    let cluster = Domain::RandomWalk.generate(1_000, 11);
    let mut writer = PartitionWriter::new(0, cluster.series_len());
    writer.push_cluster(1, (0..1_000u64).map(|id| (id, cluster.get(id))));
    let image = writer.finish();
    let reader = PartitionReader::open(image.clone()).expect("a freshly written partition");
    let recs = reader.cluster_records(1).expect("the one cluster");
    let mut dists: Vec<f64> = (0..1_000).map(|id| sq_ed(&x, cluster.get(id))).collect();
    dists.sort_by(f64::total_cmp);
    let bound = dists[99];
    let mut record = vec![0.0f32; cluster.series_len()];
    let scan_iters = (iters / 1_000).max(2);
    println!(
        "\n{:<10} {:>18} {:>18} {:>9}",
        "tier", "decode + kernel", "in place", "ratio"
    );
    let mut in_place = Vec::new();
    for tier in Dispatch::available() {
        kernels::force(Some(tier));
        let decode_ns = time_ns(reps, scan_iters, || {
            for i in 0..recs.len() {
                recs.decode_into(i, &mut record);
                black_box(ed_early_abandon(black_box(&x), &record, bound));
            }
        }) / recs.len() as f64;
        let le_ns = time_ns(reps, scan_iters, || {
            for i in 0..recs.len() {
                black_box(ed_early_abandon_le(black_box(&x), recs.values_le(i), bound));
            }
        }) / recs.len() as f64;
        kernels::force(None);
        println!(
            "{:<10} {:>13.1}ns/rec {:>13.1}ns/rec {:>8.2}x",
            tier.name(),
            decode_ns,
            le_ns,
            decode_ns / le_ns.max(1e-9)
        );
        in_place.push((tier, decode_ns, le_ns));
    }

    // Single-tier rows. The signatures are m = 10 over P = 200 pivots and
    // the 24 centroids are the ledger's shape.
    let ri = RankInsensitive(vec![1, 5, 9, 13, 17, 21, 25, 29, 33, 37]);
    let ri_near = RankInsensitive(vec![1, 4, 9, 14, 17, 22, 25, 30, 33, 38]);
    let rs = RankSensitive(vec![9, 1, 17, 25, 33, 5, 13, 21, 29, 37]);
    let centroids: Vec<RankInsensitive> = (0..24u16)
        .map(|i| RankInsensitive((0..10).map(|j| i * 8 + j).collect()))
        .collect();
    let table = CentroidTable::new(&centroids, 200, DecayFunction::DEFAULT, 10)
        .expect("24 in-range centroids");
    let single = [
        (
            "overlap_distance_m10",
            time_ns(reps, iters, || {
                black_box(overlap_distance(black_box(&ri), black_box(&ri_near)));
            }),
        ),
        (
            "weight_distance_m10",
            time_ns(reps, iters, || {
                black_box(weight_distance(
                    black_box(&rs),
                    black_box(&ri),
                    DecayFunction::DEFAULT,
                ));
            }),
        ),
        (
            "assign_group_24_centroids",
            time_ns(reps, iters, || {
                black_box(black_box(&table).assign(black_box(&rs.0), 7));
            }),
        ),
        (
            "isax_word_16x8",
            time_ns(reps, iters, || {
                black_box(ISaxWord::from_series(black_box(&x), 16, 8));
            }),
        ),
        (
            "encode_1000x256",
            time_ns(reps, scan_iters, || {
                let mut w = PartitionWriter::new(1, cluster.series_len());
                w.push_cluster(0, (0..1_000u64).map(|id| (id, cluster.get(id))));
                black_box(w.finish());
            }),
        ),
        (
            "decode_scan_1000x256",
            time_ns(reps, scan_iters, || {
                let r = PartitionReader::open(image.clone()).expect("a valid image");
                let mut acc = 0.0f32;
                r.for_each(|_, vals| acc += vals[0]);
                black_box(acc);
            }),
        ),
    ];
    println!("\n{:<30} {:>12}", "single-tier", "ns/op");
    for (name, ns) in &single {
        println!("{name:<30} {ns:>10.1}ns");
    }

    // BENCH_*.json record (consumed by tooling; schema kept flat).
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"bench\": \"kernels\",\n  \"series_len\": {},\n  \"dispatch\": \"{}\",\n  \"cpu_features\": [{}],\n  \"rows\": [",
        x.len(),
        detected.name(),
        features
            .iter()
            .map(|f| format!("\"{f}\""))
            .collect::<Vec<_>>()
            .join(", ")
    );
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "{}\n    {{\"kernel\": \"{}\", \"dispatched_ns\": {:.2}, \"scalar_ns\": {:.2}, \"speedup\": {:.2}}}",
            if i == 0 { "" } else { "," },
            r.kernel,
            r.dispatched_ns,
            r.scalar_ns,
            r.speedup()
        );
    }
    let _ = write!(json, "\n  ],\n  \"scan_step\": [");
    for (i, (tier, decode_ns, le_ns)) in in_place.iter().enumerate() {
        let _ = write!(
            json,
            "{}\n    {{\"tier\": \"{}\", \"decode_then_kernel_ns\": {decode_ns:.2}, \"in_place_ns\": {le_ns:.2}}}",
            if i == 0 { "" } else { "," },
            tier.name()
        );
    }
    let _ = write!(
        json,
        "\n  ],\n  \"sq_ed_naive_scalar_ns\": {naive_ns:.2},\n  \"sq_ed_vs_naive\": {vs_naive:.2},\n  \"sq_ed_vs_scalar_tier\": {vs_tier:.2},\n  \"gate\": {gate:.1}\n}}\n"
    );
    let path = "BENCH_kernels.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }

    if std::env::var("CLIMBER_BENCH_STRICT").as_deref() == Ok("1") {
        assert!(
            passed,
            "sq_ed gate failed: {vs_naive:.2}x vs naive scalar, {vs_tier:.2}x vs scalar tier \
             (target >= {gate:.1}x, {})",
            reason
                .as_deref()
                .unwrap_or("AVX2 host: >= 2x vs naive and >= 1x vs tier")
        );
        for (tier, decode_ns, le_ns) in &in_place {
            assert!(
                le_ns <= decode_ns,
                "scoring in place ({le_ns:.1} ns/record) is slower than decoding first \
                 ({decode_ns:.1} ns/record) on the {} tier",
                tier.name()
            );
        }
    }
}
