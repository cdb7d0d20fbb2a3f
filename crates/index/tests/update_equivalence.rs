//! Property test: updates are equivalent to a rebuild.
//!
//! The segmented architecture's core guarantee: after **any**
//! interleaving of appends, deletes, flushes and compactions, every
//! query — exact, adaptive, OD-Smallest, one request at a time and
//! batched — answers exactly as an index whose sealed partitions
//! were produced by a from-scratch Step-4 conversion of the *surviving*
//! records under the same frozen skeleton (the CLIMBER++ contract:
//! pivots, centroids and tries never change; only data placement does).
//!
//! The reference index is built here by an independent, deliberately
//! naive routine — route each survivor with `IndexSkeleton::place`,
//! group by `(partition, node)`, seal with a [`PartitionWriter`] — so the
//! test does not share the flush/fold code path it is checking.
//!
//! The same equivalence is then pushed through persistence: save →
//! [`Climber::open`] (read-only, journal replayed) and
//! [`Climber::open_rw`] → flush → reopen.

use climber_core::dfs::format::PartitionWriter;
use climber_core::dfs::store::{MemStore, PartitionStore};
use climber_core::series::gen::Domain;
use climber_core::{Climber, ClimberConfig, IndexSkeleton, SearchMode, SearchRequest};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;

const MODES: [SearchMode; 3] = [
    SearchMode::Exact,
    SearchMode::Adaptive(4),
    SearchMode::Smallest,
];

fn tmp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("climber-upd-{tag}-{}", std::process::id()))
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// From-scratch conversion of `records` under `skeleton`: the
/// rebuild-reference the incremental index must match bit for bit.
fn rebuild_reference(
    skeleton: &IndexSkeleton,
    records: &BTreeMap<u64, Vec<f32>>,
) -> Climber<MemStore> {
    let series_len = records
        .values()
        .next()
        .map(Vec::len)
        .expect("reference needs at least one surviving record");
    let mut routed: BTreeMap<u32, BTreeMap<u64, Vec<u64>>> = BTreeMap::new();
    for (&id, vals) in records {
        let p = skeleton.place(vals, id);
        routed
            .entry(p.partition)
            .or_default()
            .entry(p.node)
            .or_default()
            .push(id);
    }
    let store = MemStore::new();
    for pid in skeleton.partition_ids() {
        // Group ids are irrelevant to query execution; 0 keeps the
        // reference independent of builder internals.
        let mut w = PartitionWriter::new(0, series_len);
        if let Some(clusters) = routed.get(&pid) {
            for (&node, ids) in clusters {
                w.push_cluster(node, ids.iter().map(|id| (*id, records[id].as_slice())));
            }
        }
        store.put(pid, w.finish(), || ()).unwrap();
    }
    Climber::from_parts(skeleton.clone(), store)
}

/// Asserts that `a` (the incremental index) and `b` (the rebuild) answer
/// identically — full outcomes (results, distances, scan counters, plan)
/// for every mode, one request at a time and as a batch.
fn assert_equivalent<SA: PartitionStore, SB: PartitionStore>(
    a: &Climber<SA>,
    b: &Climber<SB>,
    queries: &[Vec<f32>],
    k: usize,
    ctx: &str,
) -> Result<(), TestCaseError> {
    for mode in MODES {
        let reqs: Vec<SearchRequest> = queries
            .iter()
            .map(|q| SearchRequest {
                mode,
                ..SearchRequest::new(&q[..], k)
            })
            .collect();
        for req in &reqs {
            prop_assert_eq!(
                a.search(req),
                b.search(req),
                "sequential {:?} diverged ({})",
                mode,
                ctx
            );
        }
        prop_assert_eq!(
            a.search_many(&reqs),
            b.search_many(&reqs),
            "batch {:?} diverged ({})",
            mode,
            ctx
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn updates_equal_rebuild_of_survivors(
        seed in 0u64..400,
        n in 120usize..240,
        appends in 4usize..40,
        deletes in 2usize..30,
        capacity in 40u64..90,
        k in 1usize..14,
        domain_pick in 0usize..4,
        flush_every in 5usize..60,
    ) {
        let domain = [Domain::RandomWalk, Domain::Eeg, Domain::Dna, Domain::TexMex][domain_pick];
        let ds = domain.generate(n, seed);
        let extra = domain.generate(appends, seed ^ 0xE17A);
        let config = ClimberConfig::default()
            .with_paa_segments(8)
            .with_pivots(24)
            .with_prefix_len(4)
            .with_capacity(capacity)
            .with_alpha(0.5)
            .with_epsilon(1)
            .with_seed(seed ^ 0x5EED)
            .with_workers(2);
        let climber = Climber::build_in_memory(&ds, config);

        // The live set the incremental index must be equivalent to.
        let mut live: BTreeMap<u64, Vec<f32>> =
            (0..n as u64).map(|i| (i, ds.get(i).to_vec())).collect();

        // Deterministic interleaving of appends (singly and in batches),
        // deletes, and flush/compact folds at random points.
        let mut state = seed ^ 0xC11B;
        let (mut appended, mut deleted) = (0usize, 0usize);
        let mut op = 0usize;
        while appended < appends || deleted < deletes {
            let r = splitmix(&mut state);
            let do_append = if appended < appends && deleted < deletes {
                r % 2 == 0
            } else {
                appended < appends
            };
            if do_append {
                if r % 5 == 0 && appends - appended >= 3 {
                    // grouped routing pass
                    let batch: Vec<Vec<f32>> = (0..3)
                        .map(|j| extra.get((appended + j) as u64).to_vec())
                        .collect();
                    let ids = climber.append_batch(&batch).unwrap();
                    for (id, vals) in ids.into_iter().zip(batch) {
                        live.insert(id, vals);
                    }
                    appended += 3;
                } else {
                    let vals = extra.get(appended as u64).to_vec();
                    let id = climber.append(&vals).unwrap();
                    live.insert(id, vals);
                    appended += 1;
                }
            } else {
                let keys: Vec<u64> = live.keys().copied().collect();
                let id = keys[(r % keys.len() as u64) as usize];
                prop_assert!(climber.delete(id).unwrap());
                live.remove(&id);
                deleted += 1;
            }
            op += 1;
            if op % flush_every == 0 {
                if r % 3 == 0 {
                    climber.compact().unwrap();
                } else {
                    climber.flush().unwrap();
                }
            }
        }

        // Queries: survivors, deleted-record probes, and appended records.
        let queries: Vec<Vec<f32>> = (0..6u64)
            .map(|i| {
                let mut q = ds.get((i * 41) % n as u64).to_vec();
                if i % 2 == 1 {
                    q[0] += 0.25;
                }
                q
            })
            .chain(std::iter::once(extra.get(0).to_vec()))
            .collect();

        let reference = rebuild_reference(climber.skeleton(), &live);
        assert_equivalent(&climber, &reference, &queries, k, "in memory")?;

        // Persistence: the journal carries unfolded segments through a
        // save; a read-only open and a writable open both replay it.
        let dir = tmp_dir(&format!("{seed}-{n}"));
        fs::remove_dir_all(&dir).ok();
        climber.save(&dir).unwrap();
        let reopened_ro = Climber::open(&dir).unwrap();
        prop_assert!(!reopened_ro.is_writable());
        assert_equivalent(&reopened_ro, &reference, &queries, k, "reopened read-only")?;

        let reopened_rw = Climber::open_rw(&dir).unwrap();
        prop_assert!(reopened_rw.is_writable());
        assert_equivalent(&reopened_rw, &reference, &queries, k, "reopened writable")?;

        // Folding everything on the reopened index must change nothing —
        // and the re-sealed directory must cold-open to the same answers.
        reopened_rw.compact().unwrap();
        prop_assert!(reopened_rw.delta().is_empty());
        prop_assert!(reopened_rw.tombstones().is_empty());
        assert_equivalent(&reopened_rw, &reference, &queries, k, "after compaction")?;
        let cold = Climber::open(&dir).unwrap();
        assert_equivalent(&cold, &reference, &queries, k, "cold reopen after compaction")?;

        fs::remove_dir_all(&dir).ok();
    }
}
