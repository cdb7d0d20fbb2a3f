//! Property-based tests for the pivot-signature layer.

use climber_pivot::assignment::{Assignment, CentroidTable};
use climber_pivot::decay::DecayFunction;
use climber_pivot::distances::{kendall_tau, overlap_distance, spearman_footrule, weight_distance};
use climber_pivot::permutation::{pivot_permutation, pivot_permutation_prefix};
use climber_pivot::pivots::PivotSet;
use climber_pivot::signature::{DualSignature, RankInsensitive, RankSensitive};
use proptest::prelude::*;

/// Strategy: a rank-sensitive signature of length `m` over pivot ids < 30
/// (distinct ids, arbitrary order).
fn sensitive_sig(m: usize) -> impl Strategy<Value = RankSensitive> {
    Just(()).prop_perturb(move |_, mut rng| {
        use proptest::test_runner::RngAlgorithm;
        let _ = RngAlgorithm::ChaCha; // silence unused import lint paths
        let mut ids: Vec<u16> = (0..30).collect();
        // Fisher-Yates using proptest's rng
        for i in (1..ids.len()).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            ids.swap(i, j);
        }
        ids.truncate(m);
        RankSensitive(ids)
    })
}

fn insensitive_sig(m: usize) -> impl Strategy<Value = RankInsensitive> {
    sensitive_sig(m).prop_map(|s| s.to_insensitive())
}

proptest! {
    #[test]
    fn od_range_and_symmetry(a in insensitive_sig(8), b in insensitive_sig(8)) {
        let d1 = overlap_distance(&a, &b);
        let d2 = overlap_distance(&b, &a);
        prop_assert_eq!(d1, d2);
        prop_assert!(d1 <= 8);
    }

    #[test]
    fn od_identity(a in insensitive_sig(6)) {
        prop_assert_eq!(overlap_distance(&a, &a), 0);
    }

    #[test]
    fn od_triangle_inequality(
        a in insensitive_sig(8),
        b in insensitive_sig(8),
        c in insensitive_sig(8),
    ) {
        // OD is a set-difference metric: OD(a,c) <= OD(a,b) + OD(b,c).
        let ac = overlap_distance(&a, &c);
        let ab = overlap_distance(&a, &b);
        let bc = overlap_distance(&b, &c);
        prop_assert!(ac <= ab + bc, "ac={ac} ab={ab} bc={bc}");
    }

    #[test]
    fn wd_lies_between_zero_and_total_weight(
        x in sensitive_sig(8),
        c in insensitive_sig(8),
    ) {
        for decay in [DecayFunction::DEFAULT, DecayFunction::Linear] {
            let wd = weight_distance(&x, &c, decay);
            let tw = decay.total_weight(8);
            prop_assert!(wd >= -1e-12 && wd <= tw + 1e-12, "wd={wd} tw={tw}");
        }
    }

    #[test]
    fn wd_zero_iff_full_overlap(x in sensitive_sig(6)) {
        let c = x.to_insensitive();
        let wd = weight_distance(&x, &c, DecayFunction::DEFAULT);
        prop_assert!(wd.abs() < 1e-12);
    }

    #[test]
    fn wd_consistent_with_od_extremes(
        x in sensitive_sig(8),
        c in insensitive_sig(8),
    ) {
        // OD = m (no shared pivots) ⇔ WD = TW; OD = 0 ⇔ WD = 0.
        let od = overlap_distance(&x.to_insensitive(), &c);
        let wd = weight_distance(&x, &c, DecayFunction::DEFAULT);
        let tw = DecayFunction::DEFAULT.total_weight(8);
        if od == 8 {
            prop_assert!((wd - tw).abs() < 1e-12);
        }
        if od == 0 {
            prop_assert!(wd.abs() < 1e-12);
        }
    }

    #[test]
    fn footrule_and_kendall_are_symmetric_metetrics(
        a in sensitive_sig(6),
        b in sensitive_sig(6),
    ) {
        prop_assert_eq!(spearman_footrule(&a, &b), spearman_footrule(&b, &a));
        prop_assert_eq!(kendall_tau(&a, &b), kendall_tau(&b, &a));
        prop_assert_eq!(spearman_footrule(&a, &a), 0);
        prop_assert_eq!(kendall_tau(&a, &a), 0);
    }

    #[test]
    fn diaconis_graham_inequality(a in sensitive_sig(6), b in sensitive_sig(6)) {
        // K(a,b) <= F(a,b) <= 2 K(a,b)  (Diaconis-Graham), which also holds
        // for the induced top-m versions used here.
        let f = spearman_footrule(&a, &b);
        let k = kendall_tau(&a, &b);
        prop_assert!(k <= f, "K={k} F={f}");
        prop_assert!(f <= 2 * k, "K={k} F={f}");
    }

    #[test]
    fn assignment_is_deterministic_and_valid(
        x in sensitive_sig(6),
        c1 in insensitive_sig(6),
        c2 in insensitive_sig(6),
        c3 in insensitive_sig(6),
        seed in any::<u64>(),
    ) {
        let cs = vec![c1, c2, c3];
        let table = CentroidTable::new(&cs, 30, DecayFunction::DEFAULT, 6).unwrap();
        let a = table.assign(&x.0, seed);
        let b = table.assign(&x.0, seed);
        let sig = DualSignature::from_sensitive(x);
        prop_assert_eq!(a, b);
        if let Some(i) = a.centroid() {
            prop_assert!(i < cs.len());
            // The chosen centroid must achieve the minimum OD.
            let od_min = cs
                .iter()
                .map(|c| overlap_distance(c, &sig.insensitive))
                .min()
                .unwrap();
            prop_assert_eq!(overlap_distance(&cs[i], &sig.insensitive), od_min);
        } else {
            // Fallback only fires when nothing overlaps.
            for c in &cs {
                prop_assert_eq!(overlap_distance(c, &sig.insensitive), 6);
            }
        }
    }

    #[test]
    fn fallback_matches_definition(x in sensitive_sig(5), c in insensitive_sig(5)) {
        let table = CentroidTable::new([&c], 30, DecayFunction::DEFAULT, 5).unwrap();
        let a = table.assign(&x.0, 0);
        let sig = DualSignature::from_sensitive(x);
        let od = overlap_distance(&c, &sig.insensitive);
        if od == 5 {
            prop_assert_eq!(a, Assignment::Fallback);
        } else {
            prop_assert_eq!(a, Assignment::ByOverlap(0));
        }
    }

    #[test]
    fn prefix_matches_full_permutation_head(
        coords in prop::collection::vec(
            prop::collection::vec(-10.0f64..10.0, 3),
            5..40,
        ),
        q in prop::collection::vec(-10.0f64..10.0, 3),
        m_frac in 0.1f64..1.0,
    ) {
        let ps = PivotSet::from_points(coords);
        let m = ((ps.len() as f64 * m_frac) as usize).clamp(1, ps.len());
        let full = pivot_permutation(&ps, &q);
        let prefix = pivot_permutation_prefix(&ps, &q, m);
        prop_assert_eq!(&prefix[..], &full[..m]);
    }

    /// The keyed top-`m` selection is the head of the full
    /// `(distance, id)` sort, block edges included (up to 200 pivots, 64
    /// to a kernel call). Coordinates on a coarse grid and pivots copied
    /// from earlier ones make exact distance ties, which only the id may
    /// break; a point holding NaN of one sign makes every distance that
    /// NaN, so the prefix is the first `m` ids.
    #[test]
    fn keyed_selection_equals_the_full_sort(
        dims in 1usize..20,
        r in 1usize..200,
        seed in any::<u64>(),
        nan in 0u8..3,
    ) {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut coords: Vec<Vec<f64>> = Vec::with_capacity(r);
        for i in 0..r {
            let pivot = if i > 0 && rng.random::<f64>() < 0.3 {
                coords[rng.random_range(0..i)].clone()
            } else {
                (0..dims).map(|_| f64::from(rng.random_range(0u8..7)) - 3.0).collect()
            };
            coords.push(pivot);
        }
        let ps = PivotSet::from_points(coords);
        let mut q: Vec<f64> = (0..dims)
            .map(|_| f64::from(rng.random_range(0u8..13)) / 2.0 - 3.0)
            .collect();
        if nan > 0 {
            let value = if nan == 1 { f64::NAN } else { -f64::NAN };
            for _ in 0..rng.random_range(1..=dims) {
                q[rng.random_range(0..dims)] = value;
            }
        }
        let full = pivot_permutation(&ps, &q);
        for m in [1, rng.random_range(1..=r), r] {
            let prefix = pivot_permutation_prefix(&ps, &q, m);
            prop_assert_eq!(&prefix[..], &full[..m], "m {} of {}", m, r);
            if nan > 0 {
                prop_assert!(prefix.iter().copied().eq(0..m as u16));
            }
        }
    }

    #[test]
    fn dual_signature_invariants(
        coords in prop::collection::vec(
            prop::collection::vec(-10.0f64..10.0, 4),
            12..30,
        ),
        q in prop::collection::vec(-10.0f64..10.0, 4),
    ) {
        let ps = PivotSet::from_points(coords);
        let sig = DualSignature::extract_from_paa(&q, &ps, 8);
        // insensitive is the sorted sensitive
        let mut sorted = sig.sensitive.0.clone();
        sorted.sort_unstable();
        prop_assert_eq!(&sig.insensitive.0, &sorted);
        // no duplicates
        let mut dedup = sorted.clone();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), 8);
        // first sensitive pivot is a true nearest pivot
        let d0 = ps.sq_dist_to(sig.sensitive.0[0], &q);
        for (id, _) in ps.iter() {
            prop_assert!(d0 <= ps.sq_dist_to(id, &q) + 1e-12);
        }
    }
}
