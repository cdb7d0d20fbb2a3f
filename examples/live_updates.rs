//! Live updates on a CLIMBER index: append → delete → flush → reopen.
//!
//! Builds a disk-backed index, absorbs appends and deletes while serving
//! queries (O(record) appends into the delta segment, tombstoned
//! deletes), persists the pending updates as a journal, reopens the
//! directory *writable* with `Climber::open_rw`, folds everything into
//! the sealed partitions with `flush`/`compact`, and proves the answers
//! never changed across any of it.
//!
//! Run: `cargo run --release --example live_updates`

use climber_core::dfs::store::PartitionStore;
use climber_core::series::gen::Domain;
use climber_core::SearchRequest;
use climber_core::{Climber, ClimberConfig};

fn main() {
    let dir = std::env::temp_dir().join(format!("climber-live-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    // 1. batch-build the base index on disk, as usual
    let data = Domain::RandomWalk.generate(4_000, 7);
    let config = ClimberConfig::default()
        .with_pivots(64)
        .with_prefix_len(8)
        .with_capacity(250)
        .with_alpha(0.2);
    let climber = Climber::build_on_disk(&data, &dir, config).unwrap();
    println!(
        "built: {} series across {} partitions at {}",
        4_000,
        climber.store().len(),
        dir.display()
    );

    // 2. live traffic: appends route into the in-memory delta segment —
    //    no sealed partition is touched — and deletes tombstone ids
    let novel: Vec<f32> = data.get(100).iter().map(|v| v + 0.01).collect();
    let new_id = climber.append(&novel).unwrap();
    let more: Vec<Vec<f32>> = (0..64u64).map(|i| data.get(i * 31).to_vec()).collect();
    climber.append_batch(&more).unwrap();
    climber.delete(100).unwrap();
    println!(
        "ingested {} appends + 1 delete (delta={} tombstones={})",
        1 + more.len(),
        climber.delta().record_count(),
        climber.tombstones().len()
    );

    // queries merge the delta and filter tombstones transparently
    let answer = climber.search(&SearchRequest::new(&novel[..], 5).exact());
    assert_eq!(answer.results[0], (new_id, 0.0), "appended record served");
    assert!(answer.results.iter().all(|&(id, _)| id != 100));
    println!("query sees the new record and not the deleted one");

    // 3. persist: the manifest gains a journal of the pending updates
    climber.save(&dir).unwrap();
    drop(climber);

    // 4. reopen WRITABLE: the journal is replayed, ingest continues
    let reopened = Climber::open_rw(&dir).unwrap();
    assert_eq!(
        reopened
            .search(&SearchRequest::new(&novel[..], 5).exact())
            .results[0],
        (new_id, 0.0)
    );
    let before = reopened.search(&SearchRequest::new(&novel[..], 10).exact());

    // 5. fold: flush appends into the sealed partitions, compact purges
    //    tombstones; the directory is re-sealed at a new generation
    let report = reopened.compact().unwrap();
    println!(
        "compacted: {} partitions rewritten, {} records folded, {} purged -> generation {}",
        report.partitions_rewritten,
        report.records_folded,
        report.records_purged,
        report.generation
    );
    assert_eq!(
        before, // folding never changes answers
        reopened.search(&SearchRequest::new(&novel[..], 10).exact()),
        "fold changed query results"
    );

    // 6. a cold read-only open of the folded directory agrees
    let cold = Climber::open(&dir).unwrap();
    assert_eq!(
        cold.search(&SearchRequest::new(&novel[..], 10).exact())
            .results,
        before.results
    );
    println!("cold reopen agrees: generation {}", cold.generation());

    std::fs::remove_dir_all(&dir).ok();
}
