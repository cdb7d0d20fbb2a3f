//! Property test: the AVX2 kernel tier is **bit-identical** to scalar.
//!
//! The contract behind `climber_series::kernels`: the AVX2 paths keep
//! one f64 accumulator per lane position and reduce them in the same
//! fixed pairwise order as the scalar reference, never contracting
//! through FMA. That makes the vectorised kernels drop-in replacements
//! whose results can be compared with `f64::to_bits` — not "close
//! enough", *equal* — over arbitrary finite inputs: negatives,
//! subnormals, huge magnitudes, misaligned subslices, and early-abandon
//! cutoffs that land exactly on a chunk-boundary partial sum. The scan's
//! entry, `ed_early_abandon_le`, reads a record's stored little-endian
//! bytes in place: it is held to the bits the `&[f32]` entry returns on
//! the decoded values, at every byte offset a page image can put a record.
//! The pivot-distance entry, `sq_dist_f64_rows`, is held to the bits of
//! `sq_dist_f64` row by row, NaN signs included: they decide signatures.
#![recursion_limit = "1024"]

use climber_series::kernels::{
    self, ed_early_abandon_le_with, ed_early_abandon_with, sq_dist_f64, sq_dist_f64_rows,
    sq_dist_f64_rows_with, sq_ed_with, sum_f32, Dispatch,
};
use proptest::prelude::*;

/// Maps a `(selector, magnitude)` pair onto a finite f32 that stresses a
/// specific numeric regime: plain values, exact zeros of both signs,
/// subnormals, and magnitudes large enough that squaring reorders badly
/// under any accumulation scheme other than the pinned one.
fn shape_f32(sel: u8, v: f32) -> f32 {
    match sel % 8 {
        0 => v,
        1 => -v,
        2 => 0.0,
        3 => -0.0,
        // Scaling a [0, 16) magnitude down to ~1e-41 lands in (or near)
        // the subnormal range of f32.
        4 => v * 1e-41,
        5 => -v * 1e-41,
        6 => v * 1e18,
        _ => f32::MIN_POSITIVE * f32::from(sel),
    }
}

/// A vector of "nasty" finite f32s of length `0..512`.
fn nasty_f32s() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec((any::<u8>(), 0f32..16.0), 0..512)
        .prop_map(|pairs| pairs.into_iter().map(|(s, v)| shape_f32(s, v)).collect())
}

/// Two equal-length nasty vectors plus a misalignment offset in `0..8`.
/// Slicing both sides at the offset guarantees the vector loads in the
/// SIMD paths routinely start off any 16/32-byte boundary.
fn nasty_pair() -> impl Strategy<Value = (Vec<f32>, Vec<f32>, usize)> {
    (
        prop::collection::vec(
            ((any::<u8>(), 0f32..16.0), (any::<u8>(), 0f32..16.0)),
            0..512,
        ),
        0usize..8,
    )
        .prop_map(|(pairs, off)| {
            let (xs, ys): (Vec<f32>, Vec<f32>) = pairs
                .into_iter()
                .map(|((sx, vx), (sy, vy))| (shape_f32(sx, vx), shape_f32(sy, vy)))
                .unzip();
            (xs, ys, off)
        })
}

/// Every tier the host can actually run, paired against the scalar
/// reference. On an AVX2 x86-64 host this exercises AVX2; elsewhere it
/// degenerates to scalar-vs-scalar (trivially true) so the suite stays
/// green on any architecture.
fn tiers() -> Vec<Dispatch> {
    Dispatch::available()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `sq_ed` is bit-identical across tiers on misaligned nasty slices.
    #[test]
    fn sq_ed_bitwise_equal_across_tiers(input in nasty_pair()) {
        let (xs, ys, off) = input;
        let start = off.min(xs.len());
        let (x, y) = (&xs[start..], &ys[start..]);
        let want = sq_ed_with(Dispatch::Scalar, x, y);
        for tier in tiers() {
            let got = sq_ed_with(tier, x, y);
            prop_assert_eq!(
                got.to_bits(), want.to_bits(),
                "sq_ed {} = {got:e} != scalar {want:e} (len {})", tier.name(), x.len()
            );
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `sum_f32` (PAA segment means) and `sq_dist_f64` (pivot-space
    /// distances) have one tier, but their summation order is part of the
    /// on-disk format: their bits decide signatures and so the partition
    /// layout. Pin both against the lane order spelled independently —
    /// element `i` of the chunked prefix goes to lane `i % 8` (`i % 4`),
    /// lanes combine pairwise, the tail is added sequentially.
    #[test]
    fn sum_f32_and_sq_dist_f64_keep_the_pinned_lane_order(
        vs in nasty_f32s(),
        off in 0usize..8,
    ) {
        // The nasty regimes are far enough apart that their f64 sums are
        // exact in any order; spreading magnitudes by position makes the
        // roundings — and so the order — show.
        const SPREAD: [f32; 5] = [1.0, 3.7e3, 9.1e6, 2.3e-4, 7.7e9];
        let v: Vec<f32> = vs[off.min(vs.len())..]
            .iter()
            .enumerate()
            .map(|(i, x)| x * SPREAD[i % 5])
            .collect();
        let v = &v[..];
        let body = v.len() / 8 * 8;
        let mut l = [0.0f64; 8];
        for (i, x) in v[..body].iter().enumerate() {
            l[i % 8] += f64::from(*x);
        }
        let mut want = ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]));
        for x in &v[body..] {
            want += f64::from(*x);
        }
        prop_assert_eq!(sum_f32(v).to_bits(), want.to_bits(), "sum_f32 (len {})", v.len());

        // Scaled so squares stay finite (|x| <= 1.6e19) and the small
        // side reaches f64 subnormals.
        let a: Vec<f64> = v.iter().map(|x| f64::from(*x) * 1e100).collect();
        let b: Vec<f64> = v.iter().rev().map(|x| f64::from(*x) * 1e-280).collect();
        let body = a.len() / 4 * 4;
        let mut l = [0.0f64; 4];
        for i in 0..body {
            let d = a[i] - b[i];
            l[i % 4] += d * d;
        }
        let mut want = (l[0] + l[2]) + (l[1] + l[3]);
        for i in body..a.len() {
            let d = a[i] - b[i];
            want += d * d;
        }
        prop_assert_eq!(sq_dist_f64(&a, &b).to_bits(), want.to_bits(), "sq_dist_f64 (len {})", a.len());
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `ed_early_abandon` agrees with scalar on *whether* it abandons and
    /// on the exact bits of the distance when it does not — for generic
    /// bounds spanning "always abandon" to "never abandon".
    #[test]
    fn ed_early_abandon_bitwise_equal_across_tiers(
        input in nasty_pair(),
        scale in 0f64..2.0,
    ) {
        let (xs, ys, off) = input;
        let start = off.min(xs.len());
        let (x, y) = (&xs[start..], &ys[start..]);
        let full = sq_ed_with(Dispatch::Scalar, x, y);
        let bounds = [0.0, full * scale, full, f64::INFINITY];
        for bound in bounds {
            let want = ed_early_abandon_with(Dispatch::Scalar, x, y, bound);
            for tier in tiers() {
                let got = ed_early_abandon_with(tier, x, y, bound);
                prop_assert_eq!(
                    got.map(f64::to_bits), want.map(f64::to_bits),
                    "ed_early_abandon {} bound {bound:e} (len {})", tier.name(), x.len()
                );
            }
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Early-abandon cutoffs placed **exactly on chunk-boundary partial
    /// sums**: the kernel checks the combined lanes after every second
    /// 8-wide chunk, so a bound equal to the partial sum at a 16-element
    /// boundary sits precisely on the `>` comparison's knife edge. A
    /// prefix of length 16·c has no tail, so the scalar `sq_ed` of that
    /// prefix *is* the partial the check compares against — every tier
    /// must make the same keep/abandon call on it, and on its nearest
    /// representable neighbours.
    #[test]
    fn ed_early_abandon_chunk_boundary_cutoffs(input in nasty_pair()) {
        let (xs, ys, _) = input;
        let (x, y) = (&xs[..], &ys[..]);
        let mut bounds = vec![f64::INFINITY];
        let mut c = 16;
        while c <= x.len() {
            let partial = sq_ed_with(Dispatch::Scalar, &x[..c], &y[..c]);
            bounds.push(partial);
            bounds.push(f64::from_bits(partial.to_bits().saturating_sub(1)));
            bounds.push(f64::from_bits(partial.to_bits() + 1));
            c += 16;
        }
        for bound in bounds {
            let want = ed_early_abandon_with(Dispatch::Scalar, x, y, bound);
            for tier in tiers() {
                let got = ed_early_abandon_with(tier, x, y, bound);
                prop_assert_eq!(
                    got.map(f64::to_bits), want.map(f64::to_bits),
                    "ed_early_abandon {} at boundary bound {bound:e} (len {})",
                    tier.name(), x.len()
                );
            }
        }
    }
}

/// The forced-dispatch hook pins the auto path to the requested tier and
/// releases it again. Because every tier is bit-identical (the properties
/// above), concurrently running tests observe no behavioural difference
/// while the pin is held — only this test inspects `current()`.
#[test]
fn force_pins_auto_dispatch_to_each_tier() {
    let detected = kernels::detect();
    let x: Vec<f32> = (0..97).map(|i| (i as f32).sin() * 3.0).collect();
    let y: Vec<f32> = (0..97).map(|i| (i as f32).cos() * 3.0).collect();
    let want = sq_ed_with(Dispatch::Scalar, &x, &y).to_bits();
    for tier in Dispatch::available() {
        kernels::force(Some(tier));
        assert_eq!(kernels::current(), tier);
        assert_eq!(
            kernels::sq_ed(&x, &y).to_bits(),
            want,
            "auto path forced to {} disagrees with scalar",
            tier.name()
        );
    }
    kernels::force(None);
    assert_eq!(kernels::current(), detected);
}

/// Deterministic readings for the in-place entry: the finite regimes of
/// [`shape_f32`] and, on the record side, what only a stored file can
/// hold — NaN and both infinities.
fn readings(len: usize, salt: u64, file_values: bool) -> Vec<f32> {
    (0..len as u64)
        .map(|i| {
            let h = (i + 1)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(salt.wrapping_mul(0xD1B5_4A32_D192_ED03));
            let (sel, v) = ((h >> 56) as u8, (h >> 20) as u32 as f32 / 2.7e8);
            match (file_values, sel % 11) {
                (true, 8) => f32::NAN,
                (true, 9) => f32::INFINITY,
                (true, 10) => f32::NEG_INFINITY,
                _ => shape_f32(sel, v),
            }
        })
        .collect()
}

/// NaN distances compare as one value: which NaN an `inf − inf` leaves in
/// a lane is the hardware's choice, not part of the contract.
fn bits(d: Option<f64>) -> Option<u64> {
    d.map(|d| if d.is_nan() { u64::MAX } else { d.to_bits() })
}

/// `ed_early_abandon_le_with` on every tier equals the scalar `&[f32]`
/// kernel on the decoded values — for every length around the chunk and
/// checkpoint boundaries, payloads including NaN, ±inf, subnormals and
/// −0.0, bounds on every knife edge (the exact distance must be kept:
/// strict `>`), and **every byte offset 0…31** of the record inside a
/// 32-byte-aligned buffer. In a cluster image the values of record `i`
/// start `8 + i·(8 + 4n)` bytes in: almost never aligned to anything.
#[test]
fn ed_early_abandon_le_matches_the_decoded_kernel_at_every_offset() {
    let lengths = (0..=40).chain([255, 256, 257]);
    for (len, salt) in lengths.flat_map(|len| (0..3).map(move |salt| (len, salt))) {
        let query = readings(len, salt, false);
        let record = readings(len, salt + 100, salt > 0);
        let exact = sq_ed_with(Dispatch::Scalar, &query, &record);
        let mut bounds = vec![
            f64::INFINITY,
            exact,
            f64::from_bits(exact.to_bits().saturating_sub(1)),
            0.0,
        ];
        for c in (16..=len).step_by(16) {
            bounds.push(sq_ed_with(Dispatch::Scalar, &query[..c], &record[..c]));
        }

        let mut backing = vec![0xA5u8; 4 * len + 96];
        let aligned = backing.as_ptr().align_offset(32);
        for offset in 0..32 {
            let at = aligned + offset;
            for (dst, v) in backing[at..].chunks_exact_mut(4).zip(&record) {
                dst.copy_from_slice(&v.to_le_bytes());
            }
            let record_le = &backing[at..at + 4 * len];
            for &bound in &bounds {
                let want = ed_early_abandon_with(Dispatch::Scalar, &query, &record, bound);
                if bound == exact && !exact.is_nan() {
                    assert_eq!(want, Some(exact), "strict >: the exact distance is kept");
                }
                for tier in tiers() {
                    let got = ed_early_abandon_le_with(tier, &query, record_le, bound);
                    assert_eq!(
                        bits(got),
                        bits(want),
                        "ed_early_abandon_le {} len {len} salt {salt} offset {offset} bound {bound:e}",
                        tier.name()
                    );
                }
            }
        }
    }
}

/// Bytes that are not exactly `4 · query.len()` long never reach a load:
/// every tier panics with the length message of the `&[f32]` entry.
#[test]
fn ed_early_abandon_le_refuses_wrong_length_bytes() {
    let query = [1.0f32; 40];
    let bytes = [0u8; 4 * 40 + 4];
    for tier in tiers() {
        for len in [0, 4 * 40 - 4, 4 * 40 - 1, 4 * 40 + 1, 4 * 40 + 4] {
            let panic = std::panic::catch_unwind(|| {
                ed_early_abandon_le_with(tier, &query, &bytes[..len], f64::INFINITY)
            })
            .expect_err("wrong-length bytes were scored");
            let message = panic.downcast_ref::<String>().expect("a formatted panic");
            assert!(
                message.contains("ED requires equal-length series"),
                "{message}"
            );
        }
    }
}

/// Deterministic pivot-space coordinates: plain values, and with `nasty`
/// also NaN of both signs, both infinities, f64 subnormals and zeros of
/// both signs — about one value in four.
fn coords(len: usize, salt: u64, nasty: bool) -> Vec<f64> {
    (0..len as u64)
        .map(|i| {
            let h = (i + 1)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(salt.wrapping_mul(0xD1B5_4A32_D192_ED03));
            let v = (h >> 11) as f64 / (1u64 << 53) as f64 * 40.0 - 20.0;
            match (nasty, (h >> 56) % 28) {
                (true, 0) => f64::NAN,
                (true, 1) => f64::from_bits(0xFFF8_0000_0000_0000), // negative NaN
                (true, 2) => f64::INFINITY,
                (true, 3) => f64::NEG_INFINITY,
                (true, 4) => v * 1e-310,
                (true, 5) => -0.0,
                (true, 6) => 0.0,
                _ => v,
            }
        })
        .collect()
}

/// The NaNs a distance from `point` to `row` can end in: the NaN inputs
/// themselves, and x86's default NaN (negative) wherever two infinities of
/// one sign cancel. Every input NaN here is quiet with an empty payload.
fn nan_sources(row: &[f64], point: &[f64]) -> Vec<u64> {
    let default_nan = f64::from_bits(0xFFF8_0000_0000_0000);
    let mut sources: Vec<u64> = row
        .iter()
        .zip(point)
        .flat_map(|(&a, &b)| {
            let cancels = a.is_infinite() && a == b;
            [a, b, if cancels { default_nan } else { 0.0 }]
        })
        .filter(|v| v.is_nan())
        .map(f64::to_bits)
        .collect();
    sources.sort_unstable();
    sources.dedup();
    sources
}

/// `sq_dist_f64_rows` on every tier, and its auto-dispatched entry, equal
/// `sq_dist_f64(row, point)` for every row to the bit — a NaN's sign
/// included, since `total_cmp` sorts the two NaNs to opposite ends of a
/// permutation. Every dimensionality 0…40 (the AVX2 tier's 4-lane chunks
/// and its sequential tail), row counts that leave 0, 1 and 3 rows past
/// the last group of four, and rows starting at every f64 offset of a
/// 32-byte line.
///
/// One exception, on which even two compilations of `sq_dist_f64`
/// disagree: where NaNs of both signs meet in one sum, which of them comes
/// out is the compiler's choice (it may swap an add's operands), so such a
/// row is only asked to be a NaN. A row whose NaNs all share one sign —
/// however many there are, from inputs or from `inf − inf` — is held to
/// the bit.
#[test]
fn sq_dist_f64_rows_matches_sq_dist_f64_per_row() {
    let mut held_nans = [0usize; 2];
    for dims in 0..=40usize {
        for r in [1usize, 3, 200] {
            for (salt, nasty) in [(0u64, false), (1, true), (2, true), (3, true)] {
                let point = coords(dims, salt, nasty);
                let backing = coords(r * dims + 4, salt + 100, nasty);
                for offset in 0..4 {
                    let rows = &backing[offset..offset + r * dims];
                    let want: Vec<u64> = (0..r)
                        .map(|i| {
                            let row = &rows[i * dims..(i + 1) * dims];
                            let d = sq_dist_f64(row, &point);
                            match nan_sources(row, &point).len() {
                                0 | 1 => {
                                    if d.is_nan() {
                                        held_nans[usize::from(d.is_sign_negative())] += 1;
                                    }
                                    d.to_bits()
                                }
                                _ => u64::MAX,
                            }
                        })
                        .collect();
                    let seen = |out: &[f64]| -> Vec<u64> {
                        out.iter()
                            .zip(&want)
                            .map(|(d, &w)| {
                                if w == u64::MAX && d.is_nan() {
                                    w
                                } else {
                                    d.to_bits()
                                }
                            })
                            .collect()
                    };
                    let mut out = vec![0.5; r];
                    sq_dist_f64_rows(rows, &point, &mut out);
                    assert_eq!(
                        seen(&out),
                        want,
                        "auto dims {dims} r {r} salt {salt} offset {offset}"
                    );
                    for tier in tiers() {
                        let mut out = vec![0.5; r];
                        sq_dist_f64_rows_with(tier, rows, &point, &mut out);
                        assert_eq!(
                            seen(&out),
                            want,
                            "{} dims {dims} r {r} salt {salt} offset {offset}",
                            tier.name()
                        );
                    }
                }
            }
        }
    }
    // Both signs of NaN reach the output and are held to the bit.
    assert!(held_nans.iter().all(|&n| n > 100), "{held_nans:?}");
}

/// Rows that are not exactly `out.len()` rows of `point.len()` values
/// never reach a load: every tier panics first.
#[test]
fn sq_dist_f64_rows_refuses_a_ragged_row_block() {
    let point = [1.0f64; 16];
    let rows = [0.0f64; 16 * 8 + 1];
    for tier in tiers() {
        for (len, slots) in [(16 * 8 + 1, 8), (16 * 8 - 1, 8), (16 * 8, 9), (16, 0)] {
            let panic = std::panic::catch_unwind(|| {
                sq_dist_f64_rows_with(tier, &rows[..len], &point, &mut [0.0; 9][..slots])
            })
            .expect_err("a ragged row block was scored");
            let message = panic.downcast_ref::<String>().expect("a formatted panic");
            assert!(message.contains("equal lengths"), "{message}");
        }
    }
}
