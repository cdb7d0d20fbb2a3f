//! Algorithm 1 on a [`CentroidTable`] against Algorithm 1 written out over
//! the Definition 7/11 reference metrics: the same assignment — the same
//! tie level and the same centroid — for every pivot count around the
//! 64-bit word edges, several prefix lengths, both decay functions and
//! random tie seeds, on centroid sets built to tie on OD and on WD.

use climber_pivot::assignment::{splitmix64, Assignment, CentroidTable};
use climber_pivot::decay::DecayFunction;
use climber_pivot::distances::{overlap_distance, weight_distance};
use climber_pivot::signature::{DualSignature, RankInsensitive, RankSensitive};
use proptest::prelude::*;

const PIVOT_COUNTS: [usize; 6] = [1, 63, 64, 65, 200, 257];

const DECAYS: [DecayFunction; 3] = [
    DecayFunction::DEFAULT,
    DecayFunction::Exponential { lambda: 0.9 },
    DecayFunction::Linear,
];

/// Algorithm 1 as the paper states it: OD to every centroid, the fall-back
/// when none overlaps, then WD among the OD-tied, then a seeded pick.
fn reference(
    centroids: &[RankInsensitive],
    sig: &DualSignature,
    decay: DecayFunction,
    tie_seed: u64,
) -> Assignment {
    let m = sig.len();
    let ods: Vec<usize> = centroids
        .iter()
        .map(|c| overlap_distance(c, &sig.insensitive))
        .collect();
    let best_od = *ods.iter().min().expect("non-empty centroid list");
    if best_od == m {
        return Assignment::Fallback;
    }
    let tied: Vec<usize> = (0..centroids.len())
        .filter(|&i| ods[i] == best_od)
        .collect();
    if tied.len() == 1 {
        return Assignment::ByOverlap(tied[0]);
    }
    let wds: Vec<f64> = tied
        .iter()
        .map(|&i| weight_distance(&sig.sensitive, &centroids[i], decay))
        .collect();
    let best_wd = wds.iter().cloned().fold(f64::INFINITY, f64::min);
    let wd_tied: Vec<usize> = tied
        .iter()
        .zip(wds.iter())
        .filter(|&(_, &wd)| wd <= best_wd + f64::EPSILON * best_wd.abs().max(1.0))
        .map(|(&i, _)| i)
        .collect();
    if wd_tied.len() == 1 {
        return Assignment::ByWeight(wd_tied[0]);
    }
    let pick = (splitmix64(tie_seed) % wd_tied.len() as u64) as usize;
    Assignment::ByRandom(wd_tied[pick])
}

/// A small deterministic generator for the case shapes.
struct Gen(u64);

impl Gen {
    fn below(&mut self, n: usize) -> usize {
        self.0 = splitmix64(self.0);
        (self.0 % n as u64) as usize
    }

    /// `k` distinct ids drawn from `pool`, in draw order.
    fn distinct(&mut self, pool: &[u16], k: usize) -> Vec<u16> {
        let mut pool = pool.to_vec();
        for i in 0..k {
            let j = i + self.below(pool.len() - i);
            pool.swap(i, j);
        }
        pool.truncate(k);
        pool
    }
}

/// One case over `p` pivots: a rank-sensitive prefix of length `m` and
/// 1–8 centroids of `m` ids. Each centroid takes its prefix hits from a
/// pool of two hit sets — so centroids share an overlap count (an OD tie)
/// and often the same hit positions (a WD tie) — or, now and then, a
/// fresh one or an exact copy of an earlier centroid; it fills up with
/// ids outside the prefix, or inside it when the pivots run out.
fn case(g: &mut Gen, p: usize) -> (RankSensitive, Vec<RankInsensitive>) {
    let all: Vec<u16> = (0..p as u16).collect();
    let m = 1 + g.below(p.min(12));
    let prefix = g.distinct(&all, m);
    let outside: Vec<u16> = all
        .iter()
        .copied()
        .filter(|id| !prefix.contains(id))
        .collect();
    let hit_sets: Vec<Vec<u16>> = (0..2)
        .map(|_| {
            let k = g.below(m + 1);
            g.distinct(&prefix, k)
        })
        .collect();
    let n = 1 + g.below(8);
    let mut centroids: Vec<RankInsensitive> = Vec::with_capacity(n);
    while centroids.len() < n {
        if !centroids.is_empty() && g.below(6) == 0 {
            let twin = centroids[g.below(centroids.len())].clone();
            centroids.push(twin);
            continue;
        }
        let mut ids = match g.below(5) {
            0 => {
                let k = g.below(m + 1);
                g.distinct(&prefix, k)
            }
            pick => hit_sets[pick % 2].clone(),
        };
        let need = m - ids.len();
        let mut fill = g.distinct(&outside, need.min(outside.len()));
        if fill.len() < need {
            let rest: Vec<u16> = prefix
                .iter()
                .copied()
                .filter(|id| !ids.contains(id))
                .collect();
            fill.extend(g.distinct(&rest, need - fill.len()));
        }
        ids.extend(fill);
        ids.sort_unstable();
        centroids.push(RankInsensitive(ids));
    }
    (RankSensitive(prefix), centroids)
}

/// Checks one case against the reference under every decay and a handful
/// of tie seeds; returns the table's assignments.
fn check(
    p: usize,
    prefix: &RankSensitive,
    centroids: &[RankInsensitive],
    seeds: &[u64],
) -> Vec<Assignment> {
    let sig = DualSignature::from_sensitive(prefix.clone());
    let mut out = Vec::new();
    for decay in DECAYS {
        let table = CentroidTable::new(centroids, p, decay, prefix.len()).unwrap();
        assert_eq!(table.len(), centroids.len());
        for (c, centroid) in centroids.iter().enumerate() {
            assert_eq!(
                table.od(c, &prefix.0),
                overlap_distance(centroid, &sig.insensitive)
            );
            assert_eq!(
                table.wd(c, &prefix.0).to_bits(),
                weight_distance(prefix, centroid, decay).to_bits(),
                "WD bits, centroid {c} of {centroids:?}, prefix {prefix:?}, {decay:?}"
            );
        }
        let min_od = centroids
            .iter()
            .map(|c| overlap_distance(c, &sig.insensitive))
            .min()
            .unwrap();
        assert_eq!(table.min_od(&prefix.0), min_od);
        for &seed in seeds {
            let got = table.assign(&prefix.0, seed);
            assert_eq!(
                got,
                reference(centroids, &sig, decay, seed),
                "p={p} prefix={prefix:?} centroids={centroids:?} {decay:?} seed={seed}"
            );
            out.push(got);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn table_assignment_equals_the_reference(shape in any::<u64>(), seed in any::<u64>()) {
        let mut g = Gen(shape);
        for p in PIVOT_COUNTS {
            for _ in 0..4 {
                let (prefix, centroids) = case(&mut g, p);
                let seeds = [seed, splitmix64(seed), seed ^ shape, g.below(1 << 20) as u64];
                check(p, &prefix, &centroids, &seeds);
            }
        }
    }
}

#[test]
fn the_cases_reach_every_tie_level_at_every_pivot_count() {
    for p in PIVOT_COUNTS {
        let mut seen = [0usize; 4];
        let mut g = Gen(p as u64);
        for case_seed in 0..300u64 {
            let (prefix, centroids) = case(&mut g, p);
            for a in check(p, &prefix, &centroids, &[case_seed]) {
                seen[match a {
                    Assignment::Fallback => 0,
                    Assignment::ByOverlap(_) => 1,
                    Assignment::ByWeight(_) => 2,
                    Assignment::ByRandom(_) => 3,
                }] += 1;
            }
        }
        // One pivot: every centroid is <0>, which the prefix <0> always
        // overlaps, and every tie is total.
        let reachable: &[usize] = if p == 1 { &[1, 3] } else { &[0, 1, 2, 3] };
        for &level in reachable {
            assert!(
                seen[level] > 0,
                "p={p}: tie level {level} never reached ({seen:?})"
            );
        }
    }
}

#[test]
fn an_empty_table_has_no_overlap() {
    let table = CentroidTable::new(&[], 200, DecayFunction::DEFAULT, 3).unwrap();
    assert!(table.is_empty());
    assert_eq!(table.min_od(&[5, 9, 1]), 3);
}
