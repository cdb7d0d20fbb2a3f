//! Property test: build → save → open is lossless.
//!
//! Across random datasets × configurations, a saved-and-reopened index
//! must carry a **bit-identical** `IndexSkeleton` (structural equality
//! *and* identical serialised bytes) and answer every query — exact,
//! adaptive, OD-Smallest, one request at a time and as whole batches —
//! with outcomes equal to the freshly built in-memory index down to
//! distances, counters, and plans.

use climber_core::series::gen::Domain;
use climber_core::{Climber, ClimberConfig, SearchMode, SearchRequest};
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("climber-rt-{tag}-{}", std::process::id()))
}

const MODES: [SearchMode; 3] = [
    SearchMode::Exact,
    SearchMode::Adaptive(4),
    SearchMode::Smallest,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn save_open_roundtrip_is_bit_identical(
        seed in 0u64..500,
        n in 150usize..350,
        capacity in 40u64..100,
        prefix_len in 3usize..6,
        domain_pick in 0usize..4,
        k in 1usize..20,
    ) {
        let domain = [Domain::RandomWalk, Domain::Eeg, Domain::Dna, Domain::TexMex][domain_pick];
        let ds = domain.generate(n, seed);
        let config = ClimberConfig::default()
            .with_paa_segments(8)
            .with_pivots(24)
            .with_prefix_len(prefix_len)
            .with_capacity(capacity)
            .with_alpha(0.5)
            .with_epsilon(1)
            .with_seed(seed ^ 0x5EED)
            .with_workers(2);
        let built = Climber::build_in_memory(&ds, config);

        let dir = tmp_dir(&format!("{seed}-{n}-{capacity}"));
        fs::remove_dir_all(&dir).ok();
        let manifest = built.save(&dir).unwrap();
        prop_assert_eq!(manifest.num_records, n as u64);

        let reopened = Climber::open(&dir).unwrap();

        // Bit-identical skeleton: structural equality and byte equality.
        prop_assert_eq!(reopened.skeleton(), built.skeleton());
        prop_assert_eq!(reopened.skeleton().to_bytes(), built.skeleton().to_bytes());
        // The exact build configuration came back through the manifest.
        prop_assert_eq!(reopened.config(), built.config());

        // Queries: dataset members and perturbed near-misses.
        let queries: Vec<Vec<f32>> = (0..6u64)
            .map(|i| {
                let mut q = ds.get((i * 37) % n as u64).to_vec();
                if i % 2 == 1 {
                    q[0] += 0.25;
                }
                q
            })
            .collect();

        for mode in MODES {
            let reqs: Vec<SearchRequest> = queries
                .iter()
                .map(|q| SearchRequest { mode, ..SearchRequest::new(&q[..], k) })
                .collect();
            // Per-request equality.
            for req in &reqs {
                prop_assert_eq!(
                    built.search(req),
                    reopened.search(req),
                    "sequential {:?} diverged after reopen", mode
                );
            }
            // Whole-batch equality under the partition-major scan.
            prop_assert_eq!(
                built.search_many(&reqs),
                reopened.search_many(&reqs),
                "batch {:?} diverged after reopen", mode
            );
        }

        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn double_save_is_deterministic(seed in 0u64..200) {
        let ds = Domain::RandomWalk.generate(160, seed);
        let config = ClimberConfig::default()
            .with_paa_segments(8)
            .with_pivots(16)
            .with_prefix_len(4)
            .with_capacity(50)
            .with_alpha(0.5)
            .with_epsilon(1)
            .with_seed(seed)
            .with_workers(2);
        let built = Climber::build_in_memory(&ds, config);
        let (d1, d2) = (tmp_dir(&format!("a{seed}")), tmp_dir(&format!("b{seed}")));
        fs::remove_dir_all(&d1).ok();
        fs::remove_dir_all(&d2).ok();
        let m1 = built.save(&d1).unwrap();
        let m2 = built.save(&d2).unwrap();
        // Same index → same manifest, including the dataset fingerprint.
        prop_assert_eq!(&m1, &m2);
        // And a reopened copy re-saves to the same fingerprint.
        let reopened = Climber::open(&d1).unwrap();
        let d3 = tmp_dir(&format!("c{seed}"));
        fs::remove_dir_all(&d3).ok();
        let m3 = reopened.save(&d3).unwrap();
        prop_assert_eq!(m1.fingerprint, m3.fingerprint);
        for d in [d1, d2, d3] {
            fs::remove_dir_all(&d).ok();
        }
    }
}
