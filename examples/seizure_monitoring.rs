//! Seizure monitoring: a disk-backed CLIMBER index over an EEG archive.
//!
//! The scenario from the paper's introduction: an ECG/EEG device produces
//! ~1 GB of series per hour; a monitoring service wants to ask "which past
//! episodes looked like the last 640 ms of this channel?" without scanning
//! the archive. We build a *persistent* index (the paper's deployment mode:
//! disk partitions + a tiny in-memory skeleton), close it, reopen it — as a
//! long-running service would after a restart — and run similarity queries
//! on noisy probes.
//!
//! ```sh
//! cargo run --release --example seizure_monitoring
//! ```

use climber_core::series::gen::{noisy_query_workload, Domain};
use climber_core::series::ground_truth::exact_knn_serial;
use climber_core::series::recall::recall_of_results;
use climber_core::SearchRequest;
use climber_core::{Climber, ClimberConfig};
use std::time::Instant;

fn main() {
    let n = 8_000;
    println!("collecting {n} EEG episodes (256 samples @ 400 Hz each) ...");
    let archive = Domain::Eeg.generate(n, 2024);

    let dir = std::env::temp_dir().join("climber-eeg-archive");
    let config = ClimberConfig::default()
        .with_paa_segments(16)
        .with_pivots(150)
        .with_prefix_len(10)
        .with_capacity(400)
        .with_alpha(0.15)
        .with_max_centroids(8)
        .with_seed(11);

    let t = Instant::now();
    let built = Climber::build_on_disk(&archive, &dir, config).expect("disk build");
    println!(
        "archive indexed on disk in {:.2}s at {} ({} partitions)",
        t.elapsed().as_secs_f64(),
        dir.display(),
        built.report().unwrap().num_partitions
    );
    drop(built); // service restarts ...

    let service = Climber::open(&dir).expect("reopen index");
    println!(
        "index reopened; skeleton is {} bytes in memory",
        service.global_index_bytes()
    );

    // Probes: noisy versions of real episodes (a live channel never exactly
    // repeats an archived one).
    let k = 50;
    let probes = noisy_query_workload(&archive, 8, 0.05, 3);
    let mut mean_recall = 0.0;
    for (i, probe) in probes.iter().enumerate() {
        let t = Instant::now();
        let hits = service.search(&SearchRequest::new(&probe[..], k).adaptive(4));
        let exact = exact_knn_serial(&archive, probe, k);
        let r = recall_of_results(&hits.results, &exact);
        mean_recall += r / probes.len() as f64;
        println!(
            "  probe {i}: {} similar episodes in {:.1} ms ({} partitions read, recall {r:.2}); closest episode id {}",
            hits.results.len(),
            1000.0 * t.elapsed().as_secs_f64(),
            hits.partitions_opened,
            hits.results.first().map(|&(id, _)| id as i64).unwrap_or(-1),
        );
    }
    println!("mean recall over noisy probes: {mean_recall:.3}");
    std::fs::remove_dir_all(&dir).ok();
}
