//! Property test: the parallel build is bit-identical across thread
//! counts and block sizes.
//!
//! Building the same dataset with the same [`ClimberConfig`] under
//! [`BuildOptions`] of 1, 2 and 8 threads (and unrelated block sizes)
//! must produce a bit-identical serialised skeleton, byte-identical
//! partition payloads, and — for on-disk builds — byte-identical index
//! directories including the manifest (which carries no timestamps, so
//! equality is exact). This is the build-side counterpart of the batch
//! engine's equivalence suite and of `persistence_roundtrip.rs` next
//! door.

use climber_core::dfs::store::PartitionStore;
use climber_core::series::gen::Domain;
use climber_core::SearchRequest;
use climber_core::{BuildOptions, Climber, ClimberConfig};
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};

fn tmp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("climber-det-{tag}-{}", std::process::id()))
}

fn config(seed: u64, capacity: u64, prefix_len: usize) -> ClimberConfig {
    ClimberConfig::default()
        .with_paa_segments(8)
        .with_pivots(24)
        .with_prefix_len(prefix_len)
        .with_capacity(capacity)
        .with_alpha(0.5)
        .with_epsilon(1)
        .with_seed(seed ^ 0xD0_0D)
}

/// Every stored partition's raw bytes, ascending by id.
fn partition_bytes<S: PartitionStore>(climber: &Climber<S>) -> Vec<(u32, Vec<u8>)> {
    climber
        .store()
        .ids()
        .into_iter()
        .map(|pid| {
            let reader = climber.store().open(pid).expect("partition readable");
            (pid, reader.raw_bytes().to_vec())
        })
        .collect()
}

/// Byte contents of every file in an index directory, sorted by name.
fn dir_contents(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = fs::read_dir(dir)
        .expect("index dir readable")
        .map(|e| {
            let e = e.expect("dir entry");
            (
                e.file_name().to_string_lossy().into_owned(),
                fs::read(e.path()).expect("file readable"),
            )
        })
        .collect();
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn in_memory_build_is_bit_identical_across_threads(
        seed in 0u64..400,
        n in 150usize..320,
        capacity in 40u64..90,
        prefix_len in 3usize..6,
        block_size in 1usize..128,
        domain_pick in 0usize..4,
    ) {
        let domain = [Domain::RandomWalk, Domain::Eeg, Domain::Dna, Domain::TexMex][domain_pick];
        let ds = domain.generate(n, seed);
        let cfg = config(seed, capacity, prefix_len);

        let reference = Climber::build_in_memory_with(
            &ds,
            cfg,
            BuildOptions::default().with_threads(1).with_block_size(block_size),
        );
        let ref_skeleton = reference.skeleton().to_bytes();
        let ref_partitions = partition_bytes(&reference);

        for threads in [2usize, 8] {
            // A different block size on purpose: neither knob may leak
            // into the output.
            let built = Climber::build_in_memory_with(
                &ds,
                cfg,
                BuildOptions::default()
                    .with_threads(threads)
                    .with_block_size(block_size / 2 + 1),
            );
            prop_assert_eq!(
                &built.skeleton().to_bytes(),
                &ref_skeleton,
                "skeleton diverged at {} threads",
                threads
            );
            prop_assert_eq!(
                &partition_bytes(&built),
                &ref_partitions,
                "partition bytes diverged at {} threads",
                threads
            );
            prop_assert_eq!(built.report().unwrap().threads, threads);
        }
    }

    #[test]
    fn on_disk_build_directories_are_byte_identical(
        seed in 0u64..200,
        n in 150usize..280,
        capacity in 40u64..80,
    ) {
        let ds = Domain::RandomWalk.generate(n, seed);
        let cfg = config(seed, capacity, 4);

        let d1 = tmp_dir(&format!("a{seed}-{n}"));
        let d8 = tmp_dir(&format!("b{seed}-{n}"));
        fs::remove_dir_all(&d1).ok();
        fs::remove_dir_all(&d8).ok();

        let b1 = Climber::build_on_disk_with(
            &ds, &d1, cfg,
            BuildOptions::default().with_threads(1).with_block_size(19),
        ).expect("1-thread build");
        let b8 = Climber::build_on_disk_with(
            &ds, &d8, cfg,
            BuildOptions::default().with_threads(8).with_block_size(64),
        ).expect("8-thread build");

        // The whole directory — every partition file, the skeleton, and
        // the manifest — must match byte for byte.
        prop_assert_eq!(dir_contents(&d1), dir_contents(&d8));

        // And both reopen to indexes that answer identically.
        let r1 = Climber::open(&d1).expect("reopen 1-thread dir");
        let r8 = Climber::open(&d8).expect("reopen 8-thread dir");
        let q = ds.get(7);
        prop_assert_eq!(r1.search(&SearchRequest::new(q, 10).exact()), r8.search(&SearchRequest::new(q, 10).exact()));
        prop_assert_eq!(b1.search(&SearchRequest::new(q, 10).exact()), b8.search(&SearchRequest::new(q, 10).exact()));

        fs::remove_dir_all(&d1).ok();
        fs::remove_dir_all(&d8).ok();
    }
}
