//! Runtime-dispatched SIMD distance kernels, bit-identical to scalar.
//!
//! This module holds the repo's only `unsafe` code: the AVX2 paths of the
//! two record-scoring loops, `sq_ed` and `ed_early_abandon`, and of the
//! pivot-distance loop [`sq_dist_f64_rows`], the byte view
//! behind [`ed_early_abandon_le`] (the same loop fed a record's stored
//! little-endian bytes, so a scan scores the page image in place) and the
//! [`prefetch`] hint, which asks for every cache line of a slice — the
//! scan's whole record, id included, a few records ahead. The contract
//! that makes them safe to dispatch freely is **bit-identity**: both tiers
//! reduce their lane accumulators in exactly the same pairwise order, and
//! neither uses fused multiply-add (FMA changes rounding). A query answered
//! on an AVX2 host is therefore byte-for-byte the query answered on a
//! scalar host — dispatch is a pure speed knob, never a semantics knob.
//!
//! [`sum_f32`] (PAA segment means) and [`sq_dist_f64`] (one pivot-space
//! distance) are plain safe functions with the same pinned lane order:
//! their inputs are 8–32 values long, where a vector tier over one input
//! measured at or below scalar. Their bits decide signatures and therefore
//! the on-disk layout, so the summation order is part of the format.
//! [`sq_dist_f64_rows`] is `sq_dist_f64` from one point to many rows at
//! once; its AVX2 tier runs four rows side by side, one row per register,
//! so each row keeps `sq_dist_f64`'s lanes and combine tree.
//!
//! ## Lane layout
//!
//! The f32 kernels accumulate in chunks of 8 with one `f64` accumulator per
//! lane, reduced as `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))`; the f64 kernel
//! uses chunks of 4 reduced as `(l0+l2)+(l1+l3)`. The AVX2 tier keeps lanes
//! 0-3 in one `__m256d` and lanes 4-7 in another; one `_mm256_add_pd` yields
//! `[l0+l4, l1+l5, l2+l6, l3+l7]` and the final scalar combine
//! `(s0+s2)+(s1+s3)` reproduces the reference tree. [`sq_dist_f64_rows`]
//! holds rows `A..D` in four `__m256d`; swapping 128-bit halves and one add
//! yield `[A0+A2, A1+A3, B0+B2, B1+B3]` (and the same for `C`, `D`), and a
//! horizontal add finishes each row's `(l0+l2)+(l1+l3)`.
//!
//! Tails shorter than a chunk are always summed sequentially after the
//! combine, identically on both tiers — in scalar code, except that
//! [`sq_dist_f64_rows`] adds each of its four rows' tail dims in one vector
//! op per dim, in the same order.
//!
//! ## Dispatch
//!
//! [`detect`] probes CPU features once (cached in an atomic); [`force`] is a
//! test hook that pins the auto-dispatched entry points to a specific tier.
//! Forcing is a process-global toggle, which is race-safe precisely because
//! tiers never disagree on results. An x86-64 host without AVX2 runs the
//! scalar tier (LLVM already vectorises its 8-lane loops to SSE2).
#![allow(unsafe_code)]

use std::sync::atomic::{AtomicU8, Ordering};

/// A kernel implementation tier. Ordered from most portable to fastest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Dispatch {
    /// Portable Rust, the reference implementation. Always available.
    Scalar,
    /// 256-bit AVX path (gated on `avx2` detection; x86-64 only).
    Avx2,
}

impl Dispatch {
    /// Human-readable feature name, as printed by benches and CI logs.
    pub fn name(self) -> &'static str {
        match self {
            Dispatch::Scalar => "scalar",
            Dispatch::Avx2 => "avx2",
        }
    }

    /// Every tier this host can execute, in ascending speed order.
    /// Always contains at least [`Dispatch::Scalar`].
    pub fn available() -> Vec<Dispatch> {
        let best = detect();
        [Dispatch::Scalar, Dispatch::Avx2]
            .into_iter()
            .filter(|t| *t <= best)
            .collect()
    }
}

const TIER_UNSET: u8 = 0;
const TIER_SCALAR: u8 = 1;
const TIER_AVX2: u8 = 2;

/// Cached result of CPU-feature probing (0 = not yet probed).
static DETECTED: AtomicU8 = AtomicU8::new(TIER_UNSET);
/// Test hook: a forced tier for the auto-dispatched entry points (0 = none).
static FORCED: AtomicU8 = AtomicU8::new(TIER_UNSET);

fn tier_of(code: u8) -> Dispatch {
    match code {
        TIER_AVX2 => Dispatch::Avx2,
        _ => Dispatch::Scalar,
    }
}

fn code_of(tier: Dispatch) -> u8 {
    match tier {
        Dispatch::Scalar => TIER_SCALAR,
        Dispatch::Avx2 => TIER_AVX2,
    }
}

/// The best tier this host supports, probed once and cached.
pub fn detect() -> Dispatch {
    let cached = DETECTED.load(Ordering::Relaxed);
    if cached != TIER_UNSET {
        return tier_of(cached);
    }
    #[cfg(target_arch = "x86_64")]
    let probed = if std::arch::is_x86_feature_detected!("avx2") {
        Dispatch::Avx2
    } else {
        Dispatch::Scalar
    };
    #[cfg(not(target_arch = "x86_64"))]
    let probed = Dispatch::Scalar;
    DETECTED.store(code_of(probed), Ordering::Relaxed);
    probed
}

/// Pins (`Some`) or releases (`None`) the tier used by the auto-dispatched
/// entry points. Test hook for exercising lower tiers on capable hosts.
///
/// # Panics
/// If the requested tier is not supported by this host (executing it would
/// be undefined behaviour, so the hook refuses).
pub fn force(tier: Option<Dispatch>) {
    match tier {
        None => FORCED.store(TIER_UNSET, Ordering::Relaxed),
        Some(t) => {
            assert!(
                t <= detect(),
                "cannot force {:?}: host only supports up to {:?}",
                t,
                detect()
            );
            FORCED.store(code_of(t), Ordering::Relaxed);
        }
    }
}

/// The tier the auto-dispatched entry points use right now: the forced tier
/// if one is pinned, otherwise the detected best.
pub fn current() -> Dispatch {
    let forced = FORCED.load(Ordering::Relaxed);
    if forced != TIER_UNSET {
        tier_of(forced)
    } else {
        detect()
    }
}

// ---------------------------------------------------------------------------
// Scalar reference implementations
// ---------------------------------------------------------------------------

/// Reduces the 8 lane accumulators in the fixed pairwise order shared by
/// every tier.
#[inline]
pub(crate) fn combine_lanes(l: &[f64; 8]) -> f64 {
    ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]))
}

/// Reduces the 4 lane accumulators of the f64 kernel in fixed order.
#[inline]
fn combine_lanes4(l: &[f64; 4]) -> f64 {
    (l[0] + l[2]) + (l[1] + l[3])
}

#[inline]
fn sq_ed_scalar(x: &[f32], y: &[f32]) -> f64 {
    let mut lanes = [0.0f64; 8];
    let mut xc = x.chunks_exact(8);
    let mut yc = y.chunks_exact(8);
    for (cx, cy) in (&mut xc).zip(&mut yc) {
        for i in 0..8 {
            let d = f64::from(cx[i]) - f64::from(cy[i]);
            lanes[i] += d * d;
        }
    }
    let mut acc = combine_lanes(&lanes);
    for (a, b) in xc.remainder().iter().zip(yc.remainder().iter()) {
        let d = f64::from(*a) - f64::from(*b);
        acc += d * d;
    }
    acc
}

/// One reading of the record side of the early-abandon kernel, as the
/// kernel finds it in memory: a host `f32`, or the four little-endian bytes
/// a partition image stores it as. Each tier's loop is written once over
/// this trait, so the `&[f32]` and `&[u8]` entries cannot drift apart, and
/// `f32::from_le_bytes` is exact — the loop sees the very `f32` a decode
/// would have produced, so it cannot change a bit of the result.
///
/// Private, with exactly these two impls: the AVX2 tier loads 8 readings
/// with one unaligned 256-bit load, which is the same 8 `f32`s only because
/// both types are 4 bytes with alignment ≤ 4 and x86-64 is little-endian.
trait Reading: Copy {
    fn get(self) -> f32;
}

impl Reading for f32 {
    #[inline(always)]
    fn get(self) -> f32 {
        self
    }
}

impl Reading for [u8; 4] {
    #[inline(always)]
    fn get(self) -> f32 {
        f32::from_le_bytes(self)
    }
}

/// The value bytes of an encoded record as its readings.
#[inline]
fn le_readings(bytes: &[u8]) -> &[[u8; 4]] {
    // SAFETY: `[u8; 4]` has alignment 1 and every bit pattern is valid; the
    // view covers the first `4 * (len / 4)` bytes of `bytes`, in bounds and
    // under the same borrow.
    unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast(), bytes.len() / 4) }
}

#[inline]
fn ed_early_abandon_scalar<R: Reading>(x: &[f32], y: &[R], sq_bound: f64) -> Option<f64> {
    let mut lanes = [0.0f64; 8];
    let mut xc = x.chunks_exact(8);
    let mut yc = y.chunks_exact(8);
    for (i, (cx, cy)) in (&mut xc).zip(&mut yc).enumerate() {
        for j in 0..8 {
            let d = f64::from(cx[j]) - f64::from(cy[j].get());
            lanes[j] += d * d;
        }
        // Check after every second 8-chunk (16 readings). Combining the
        // lanes for the check does not disturb their running values.
        if i % 2 == 1 && combine_lanes(&lanes) > sq_bound {
            return None;
        }
    }
    let mut acc = combine_lanes(&lanes);
    for (a, b) in xc.remainder().iter().zip(yc.remainder().iter()) {
        let d = f64::from(*a) - f64::from(b.get());
        acc += d * d;
    }
    if acc > sq_bound {
        return None;
    }
    Some(acc)
}

/// Sum of an f32 slice accumulated in f64 lanes — the segment-mean kernel
/// behind PAA extraction.
#[inline]
pub fn sum_f32(v: &[f32]) -> f64 {
    sum_readings(v)
}

/// [`sum_f32`] over readings given as stored little-endian bytes: the same
/// lanes in the same order, so the same bits as summing the decoded values.
///
/// # Panics
/// If `values_le` is not a whole number of `f32`s.
#[inline]
pub fn sum_f32_le(values_le: &[u8]) -> f64 {
    assert_eq!(values_le.len() % 4, 0, "readings are 4 bytes each");
    sum_readings(le_readings(values_le))
}

#[inline]
fn sum_readings<R: Reading>(v: &[R]) -> f64 {
    let mut lanes = [0.0f64; 8];
    let mut vc = v.chunks_exact(8);
    for c in &mut vc {
        for i in 0..8 {
            lanes[i] += f64::from(c[i].get());
        }
    }
    let mut acc = combine_lanes(&lanes);
    for a in vc.remainder() {
        acc += f64::from(a.get());
    }
    acc
}

/// Squared Euclidean distance between f64 points — the pivot-space kernel
/// behind signature extraction.
///
/// # Panics
/// If the slices differ in length.
#[inline]
pub fn sq_dist_f64(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "squared distance requires equal lengths");
    let mut lanes = [0.0f64; 4];
    let mut ac = a.chunks_exact(4);
    let mut bc = b.chunks_exact(4);
    for (ca, cb) in (&mut ac).zip(&mut bc) {
        for i in 0..4 {
            let d = ca[i] - cb[i];
            lanes[i] += d * d;
        }
    }
    let mut acc = combine_lanes4(&lanes);
    for (x, y) in ac.remainder().iter().zip(bc.remainder().iter()) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

/// [`sq_dist_f64`] from `point` to every row of the row-major `rows`, one
/// row per slot of `out`, the row as the first operand:
/// `sq_dist_f64(row, point)`.
fn sq_dist_f64_rows_scalar(rows: &[f64], point: &[f64], out: &mut [f64]) {
    if point.is_empty() {
        // Zero-length rows: every distance is the empty sum.
        out.fill(0.0);
        return;
    }
    for (row, d) in rows.chunks_exact(point.len()).zip(out) {
        *d = sq_dist_f64(row, point);
    }
}

// ---------------------------------------------------------------------------
// x86-64 AVX2 tier
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! AVX2 lanes. Every function here upholds the module's bit-identity
    //! contract: same lane layout, same combine tree, no FMA. Loads are all
    //! bounds-respecting: a 256-bit f32 load covers exactly one 8-chunk.

    use super::Reading;
    use core::arch::x86_64::*;

    /// Combines AVX2 accumulators `[l0..l3]` and `[l4..l7]` in the scalar
    /// reference order.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn combine_avx2(lo: __m256d, hi: __m256d) -> f64 {
        let s = _mm256_add_pd(lo, hi); // [l0+l4, l1+l5, l2+l6, l3+l7]
        let mut out = [0.0f64; 4];
        _mm256_storeu_pd(out.as_mut_ptr(), s);
        (out[0] + out[2]) + (out[1] + out[3])
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn sq_ed_avx2(x: &[f32], y: &[f32]) -> f64 {
        let n = x.len();
        let chunks = n / 8;
        let mut acc_lo = _mm256_setzero_pd();
        let mut acc_hi = _mm256_setzero_pd();
        for c in 0..chunks {
            let vx = _mm256_loadu_ps(x.as_ptr().add(c * 8));
            let vy = _mm256_loadu_ps(y.as_ptr().add(c * 8));
            let dlo = _mm256_sub_pd(
                _mm256_cvtps_pd(_mm256_castps256_ps128(vx)),
                _mm256_cvtps_pd(_mm256_castps256_ps128(vy)),
            );
            let dhi = _mm256_sub_pd(
                _mm256_cvtps_pd(_mm256_extractf128_ps(vx, 1)),
                _mm256_cvtps_pd(_mm256_extractf128_ps(vy, 1)),
            );
            acc_lo = _mm256_add_pd(acc_lo, _mm256_mul_pd(dlo, dlo));
            acc_hi = _mm256_add_pd(acc_hi, _mm256_mul_pd(dhi, dhi));
        }
        let mut acc = combine_avx2(acc_lo, acc_hi);
        for i in chunks * 8..n {
            let d = f64::from(*x.get_unchecked(i)) - f64::from(*y.get_unchecked(i));
            acc += d * d;
        }
        acc
    }

    /// # Safety
    /// The host supports AVX2 and `x.len() == y.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn ed_early_abandon_avx2<R: Reading>(
        x: &[f32],
        y: &[R],
        sq_bound: f64,
    ) -> Option<f64> {
        let n = x.len();
        let chunks = n / 8;
        let mut acc_lo = _mm256_setzero_pd();
        let mut acc_hi = _mm256_setzero_pd();
        for c in 0..chunks {
            let vx = _mm256_loadu_ps(x.as_ptr().add(c * 8));
            // Eight readings in one unaligned load: either `Reading` is 4
            // bytes of a little-endian f32 (see the trait), and an image
            // record's value bytes start at no particular alignment.
            let vy = _mm256_loadu_ps(y.as_ptr().add(c * 8).cast::<f32>());
            let dlo = _mm256_sub_pd(
                _mm256_cvtps_pd(_mm256_castps256_ps128(vx)),
                _mm256_cvtps_pd(_mm256_castps256_ps128(vy)),
            );
            let dhi = _mm256_sub_pd(
                _mm256_cvtps_pd(_mm256_extractf128_ps(vx, 1)),
                _mm256_cvtps_pd(_mm256_extractf128_ps(vy, 1)),
            );
            acc_lo = _mm256_add_pd(acc_lo, _mm256_mul_pd(dlo, dlo));
            acc_hi = _mm256_add_pd(acc_hi, _mm256_mul_pd(dhi, dhi));
            // Same cadence as scalar: every second chunk, strict >.
            if c % 2 == 1 && combine_avx2(acc_lo, acc_hi) > sq_bound {
                return None;
            }
        }
        let mut acc = combine_avx2(acc_lo, acc_hi);
        for i in chunks * 8..n {
            let d = f64::from(*x.get_unchecked(i)) - f64::from(y.get_unchecked(i).get());
            acc += d * d;
        }
        if acc > sq_bound {
            return None;
        }
        Some(acc)
    }

    /// Four rows at a time, one `__m256d` accumulator per row: lane `i` of
    /// row `A` sums dims `i, i+4, …` exactly as `sq_dist_f64`'s lane `i`
    /// does, the combine below is its `(l0+l2)+(l1+l3)` for four rows at
    /// once, and a row's tail dims are then added one at a time, in order.
    /// Rows past the last group of four go through `sq_dist_f64` itself.
    ///
    /// # Safety
    /// The host supports AVX2 and `rows.len() == point.len() * out.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn sq_dist_f64_rows_avx2(rows: &[f64], point: &[f64], out: &mut [f64]) {
        let w = point.len();
        let chunks = w / 4;
        let p = point.as_ptr();
        for q in 0..out.len() / 4 {
            let r0 = rows.as_ptr().add(4 * q * w);
            let (r1, r2, r3) = (r0.add(w), r0.add(2 * w), r0.add(3 * w));
            let mut a0 = _mm256_setzero_pd();
            let mut a1 = _mm256_setzero_pd();
            let mut a2 = _mm256_setzero_pd();
            let mut a3 = _mm256_setzero_pd();
            for c in 0..chunks {
                let vp = _mm256_loadu_pd(p.add(4 * c));
                let d0 = _mm256_sub_pd(_mm256_loadu_pd(r0.add(4 * c)), vp);
                let d1 = _mm256_sub_pd(_mm256_loadu_pd(r1.add(4 * c)), vp);
                let d2 = _mm256_sub_pd(_mm256_loadu_pd(r2.add(4 * c)), vp);
                let d3 = _mm256_sub_pd(_mm256_loadu_pd(r3.add(4 * c)), vp);
                a0 = _mm256_add_pd(a0, _mm256_mul_pd(d0, d0));
                a1 = _mm256_add_pd(a1, _mm256_mul_pd(d1, d1));
                a2 = _mm256_add_pd(a2, _mm256_mul_pd(d2, d2));
                a3 = _mm256_add_pd(a3, _mm256_mul_pd(d3, d3));
            }
            // [A0+A2, A1+A3, B0+B2, B1+B3] and the same for C, D ...
            let ab = _mm256_add_pd(
                _mm256_permute2f128_pd(a0, a1, 0x20),
                _mm256_permute2f128_pd(a0, a1, 0x31),
            );
            let cd = _mm256_add_pd(
                _mm256_permute2f128_pd(a2, a3, 0x20),
                _mm256_permute2f128_pd(a2, a3, 0x31),
            );
            // ... then [A, C, B, D], each (l0+l2)+(l1+l3), back in row order.
            let mut acc = _mm256_permute4x64_pd(_mm256_hadd_pd(ab, cd), 0b11_01_10_00);
            for t in chunks * 4..w {
                let vp = _mm256_set1_pd(*p.add(t));
                let v = _mm256_set_pd(*r3.add(t), *r2.add(t), *r1.add(t), *r0.add(t));
                let d = _mm256_sub_pd(v, vp);
                acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
            }
            _mm256_storeu_pd(out.as_mut_ptr().add(4 * q), acc);
        }
        for i in out.len() / 4 * 4..out.len() {
            out[i] = super::sq_dist_f64(&rows[i * w..(i + 1) * w], point);
        }
    }
}

// ---------------------------------------------------------------------------
// Tier-explicit entry points
// ---------------------------------------------------------------------------

/// [`sq_ed`] on an explicit tier.
///
/// # Panics
/// If the slices differ in length, or `tier` is unsupported on this host.
#[inline]
pub fn sq_ed_with(tier: Dispatch, x: &[f32], y: &[f32]) -> f64 {
    assert_eq!(x.len(), y.len(), "ED requires equal-length series");
    match tier {
        Dispatch::Scalar => sq_ed_scalar(x, y),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `force`/`current` only hand out host-supported tiers;
        // explicit callers are checked here before entering SIMD code.
        Dispatch::Avx2 => {
            assert_supported(tier);
            unsafe { x86::sq_ed_avx2(x, y) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        _ => unsupported(tier),
    }
}

/// [`ed_early_abandon`] on an explicit tier.
///
/// # Panics
/// If the slices differ in length, or `tier` is unsupported on this host.
#[inline]
pub fn ed_early_abandon_with(tier: Dispatch, x: &[f32], y: &[f32], sq_bound: f64) -> Option<f64> {
    ed_early_abandon_on(tier, x, y, sq_bound)
}

/// [`ed_early_abandon_le`] on an explicit tier.
///
/// # Panics
/// If `record_le` is not exactly `4 * query.len()` bytes, or `tier` is
/// unsupported on this host.
#[inline]
pub fn ed_early_abandon_le_with(
    tier: Dispatch,
    query: &[f32],
    record_le: &[u8],
    sq_bound: f64,
) -> Option<f64> {
    assert_eq!(
        4 * query.len(),
        record_le.len(),
        "ED requires equal-length series"
    );
    ed_early_abandon_on(tier, query, le_readings(record_le), sq_bound)
}

/// The one dispatch of the early-abandon loop, for either [`Reading`].
#[inline]
fn ed_early_abandon_on<R: Reading>(
    tier: Dispatch,
    x: &[f32],
    y: &[R],
    sq_bound: f64,
) -> Option<f64> {
    assert_eq!(x.len(), y.len(), "ED requires equal-length series");
    match tier {
        Dispatch::Scalar => ed_early_abandon_scalar(x, y, sq_bound),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `sq_ed_with` — the tier is checked against the host
        // before the AVX2 code runs, and the lengths were just asserted
        // equal, so every 8-reading load stays inside both slices.
        Dispatch::Avx2 => {
            assert_supported(tier);
            unsafe { x86::ed_early_abandon_avx2(x, y, sq_bound) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        _ => unsupported(tier),
    }
}

/// [`sq_dist_f64_rows`] on an explicit tier.
///
/// # Panics
/// If `rows` is not exactly `out.len()` rows of `point.len()` values, or
/// `tier` is unsupported on this host.
pub fn sq_dist_f64_rows_with(tier: Dispatch, rows: &[f64], point: &[f64], out: &mut [f64]) {
    assert_eq!(
        Some(rows.len()),
        point.len().checked_mul(out.len()),
        "squared distance requires equal lengths"
    );
    match tier {
        Dispatch::Scalar => sq_dist_f64_rows_scalar(rows, point, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the tier is checked against the host before the AVX2
        // code runs, and `rows` was just checked to hold exactly
        // `out.len()` rows of `point.len()` values, so every load of row
        // `i < out.len()` and of `point` stays inside its slice.
        Dispatch::Avx2 => {
            assert_supported(tier);
            unsafe { x86::sq_dist_f64_rows_avx2(rows, point, out) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        _ => unsupported(tier),
    }
}

#[inline]
fn assert_supported(tier: Dispatch) {
    assert!(
        tier <= detect(),
        "kernel tier {:?} not supported on this host (best: {:?})",
        tier,
        detect()
    );
}

#[cfg(not(target_arch = "x86_64"))]
fn unsupported(tier: Dispatch) -> ! {
    panic!("kernel tier {tier:?} not supported on this architecture")
}

// ---------------------------------------------------------------------------
// Auto-dispatched entry points
// ---------------------------------------------------------------------------

/// Below this length the auto-dispatched entry points route straight to
/// the scalar tier: the vector paths' fixed costs (dispatch load,
/// accumulator setup, lane combine) exceed their per-element win on
/// short inputs. Because the tiers are bit-identical, the cutoff is
/// unobservable in results.
const SIMD_MIN_LEN: usize = 32;

/// Squared Euclidean distance on the current tier.
#[inline]
pub fn sq_ed(x: &[f32], y: &[f32]) -> f64 {
    if x.len() < SIMD_MIN_LEN {
        sq_ed_with(Dispatch::Scalar, x, y)
    } else {
        sq_ed_with(current(), x, y)
    }
}

/// Early-abandoning squared Euclidean distance on the current tier.
#[inline]
pub fn ed_early_abandon(x: &[f32], y: &[f32], sq_bound: f64) -> Option<f64> {
    if x.len() < SIMD_MIN_LEN {
        ed_early_abandon_with(Dispatch::Scalar, x, y, sq_bound)
    } else {
        ed_early_abandon_with(current(), x, y, sq_bound)
    }
}

/// [`ed_early_abandon`] with the record given as its stored bytes —
/// `query.len()` little-endian `f32`s, at any alignment — so a scan scores
/// a page image in place instead of decoding it first. Returns the bits
/// `ed_early_abandon` returns on the decoded values.
///
/// # Panics
/// If `record_le` is not exactly `4 * query.len()` bytes.
#[inline]
pub fn ed_early_abandon_le(query: &[f32], record_le: &[u8], sq_bound: f64) -> Option<f64> {
    if query.len() < SIMD_MIN_LEN {
        ed_early_abandon_le_with(Dispatch::Scalar, query, record_le, sq_bound)
    } else {
        ed_early_abandon_le_with(current(), query, record_le, sq_bound)
    }
}

/// Squared distances from `point` to each row of the row-major `rows`
/// (`out.len()` rows of `point.len()` values) on the current tier: slot
/// `i` of `out` gets the bits of `sq_dist_f64(row_i, point)` — the
/// pivot-distance pass of signature extraction, all pivots in one call.
///
/// # Panics
/// If `rows` is not exactly `out.len()` rows of `point.len()` values.
#[inline]
pub fn sq_dist_f64_rows(rows: &[f64], point: &[f64], out: &mut [f64]) {
    sq_dist_f64_rows_with(current(), rows, point, out)
}

/// Hints the CPU to pull every 64-byte cache line `bytes` spans into every
/// cache level — the first line is the one holding `bytes[0]`, whatever
/// its alignment, so the hint fits a record of any length. A scan over
/// records far apart in memory strides in a pattern the hardware streamer
/// gives up on; asking for a whole record a few places ahead while the
/// current one is scored hides the DRAM miss of every line the kernel will
/// read, however far it gets before abandoning. Never reads, never faults;
/// a no-op off x86-64.
#[inline]
pub fn prefetch(bytes: &[u8]) {
    let head = bytes.as_ptr() as usize % 64;
    let first_line = bytes.as_ptr().wrapping_sub(head);
    for j in 0..line_count(head, bytes.len()) {
        let line = first_line.wrapping_add(64 * j);
        // SAFETY: SSE is part of the x86-64 baseline, and a prefetch is
        // only a hint: it never faults, whatever the address.
        #[cfg(target_arch = "x86_64")]
        unsafe {
            use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch::<_MM_HINT_T0>(line.cast());
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = line;
    }
}

/// How many 64-byte cache lines `len` bytes span when the first of them
/// sits `head` bytes into its line. None for an empty span. A count, not
/// an iterator of offsets: `prefetch` inlines into the scan loop, and the
/// iterator form cost the cache-hot scan (`direct-cold`) a few per cent.
#[inline]
fn line_count(head: usize, len: usize) -> usize {
    if len == 0 {
        0
    } else {
        (head + len).div_ceil(64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(len: usize, salt: u64) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let x = (i as u64).wrapping_mul(0x9E37_79B9).wrapping_add(salt);
                ((x % 1000) as f32 - 500.0) / 37.0
            })
            .collect()
    }

    #[test]
    fn detection_is_cached_and_consistent() {
        let first = detect();
        assert_eq!(detect(), first);
        assert!(Dispatch::available().contains(&Dispatch::Scalar));
        assert!(Dispatch::available().contains(&first));
    }

    #[test]
    fn every_available_tier_matches_scalar_bitwise() {
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 31, 64, 100, 255, 256] {
            let x = series(len, 1);
            let y = series(len, 2);
            let want = sq_ed_with(Dispatch::Scalar, &x, &y);
            for tier in Dispatch::available() {
                assert_eq!(
                    sq_ed_with(tier, &x, &y).to_bits(),
                    want.to_bits(),
                    "sq_ed {tier:?} len {len}"
                );
            }
        }
    }

    #[test]
    fn force_pins_and_releases_the_auto_path() {
        force(Some(Dispatch::Scalar));
        assert_eq!(current(), Dispatch::Scalar);
        force(None);
        assert_eq!(current(), detect());
    }

    #[test]
    fn prefetch_touches_every_line_a_span_covers_once() {
        for start in 0..64usize {
            for len in [0usize, 1, 64, 1_032] {
                let want = if len == 0 {
                    0
                } else {
                    (start + len - 1) / 64 - start / 64 + 1
                };
                assert_eq!(line_count(start, len), want, "start {start} len {len}");
                if len == 1_032 {
                    assert!(want == 17 || want == 18, "start {start}: {want} lines");
                }
            }
        }
        // Any slice, any alignment: only a hint, never a read.
        let bytes = [0u8; 200];
        for start in 0..64 {
            prefetch(&bytes[start..]);
        }
        prefetch(&[]);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn mismatched_lengths_panic() {
        sq_ed(&[1.0], &[1.0, 2.0]);
    }
}
