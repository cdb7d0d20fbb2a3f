//! A fold leaves no thread behind.
//!
//! A flush and a compaction fold on the build's worker fan-out, and each
//! worker writes and fsyncs the files it built: the threads a fold starts
//! are scoped to it and gone once it returns. This counts the process's
//! threads (`/proc/self/task`) before an on-disk index's `flush()` and
//! `compact()` and again after them; the two counts are equal.

#![cfg(target_os = "linux")]

use climber_core::series::gen::Domain;
use climber_core::{Climber, ClimberConfig};
use std::thread;
use std::time::{Duration, Instant};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// The thread count once it holds still: a thread an operation joined may
/// stay listed for a moment while it exits. Waits at most 1 s.
fn settled_threads() -> usize {
    let deadline = Instant::now() + Duration::from_secs(1);
    let mut last = threads();
    loop {
        thread::sleep(Duration::from_millis(20));
        let now = threads();
        if now >= last || Instant::now() >= deadline {
            return now;
        }
        last = now;
    }
}

/// The thread count once it is down to `want`, or as it stands after 1 s.
fn threads_reaped_to(want: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(1);
    loop {
        let now = threads();
        if now <= want || Instant::now() >= deadline {
            return now;
        }
        thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn a_flush_and_a_compaction_leave_the_thread_count_as_they_found_it() {
    let dir = std::env::temp_dir().join(format!("climber-foldthreads-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cfg = ClimberConfig::default()
        .with_paa_segments(8)
        .with_pivots(32)
        .with_prefix_len(5)
        .with_capacity(150)
        .with_alpha(0.5)
        .with_epsilon(1)
        .with_seed(7)
        .with_workers(2);
    let built = Domain::RandomWalk.generate(1_500, 3);
    drop(Climber::build_on_disk(&built, &dir, cfg).unwrap());
    let index = Climber::open_rw(&dir).unwrap();
    let extra = Domain::RandomWalk.generate(200, 21);
    // Fresh series extend their partitions; copies of one built series
    // pass a quarter of its partition's base, which the flush rewrites.
    let mut appended: Vec<Vec<f32>> = (0..200).map(|i| extra.get(i).to_vec()).collect();
    appended.extend((0..60).map(|_| built.get(5).to_vec()));
    index.append_batch(&appended).unwrap();
    index.delete(7).unwrap();

    let before = settled_threads();
    let flushed = index.flush().unwrap();
    assert!(flushed.partitions_extended > 0, "{flushed:?}");
    assert!(flushed.partitions_rewritten > 0, "{flushed:?}");
    let compacted = index.compact().unwrap();
    assert!(compacted.partitions_rewritten > 0, "{compacted:?}");
    let after = threads_reaped_to(before);
    assert_eq!(after, before, "threads the fold started are still running");

    drop(index);
    std::fs::remove_dir_all(&dir).ok();
}
