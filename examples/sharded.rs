//! Sharded CLIMBER: scatter-gather over N shards, served unchanged.
//!
//! Builds the same dataset as one index and as a 3-shard
//! `ShardedClimber` on disk — the streaming build: every partition image
//! is split across the shards as it is written, and each shard sealed in
//! its own directory under the `SHARDS.clsm` super-manifest — proves the
//! sharded answers are bit-identical (the scatter-gather contract),
//! pushes live appends/deletes and a shard-set-wide flush through the
//! built set, cold-opens the directory, and finally serves the sharded
//! index over TCP through the exact same `Server::start` call a single
//! index uses — the serving layer is generic over `SearchBackend`, so
//! clients cannot tell the difference.
//!
//! Run: `cargo run --release --example sharded`

use climber_core::dfs::store::PartitionStore;
use climber_core::series::gen::Domain;
use climber_core::{Climber, ClimberConfig, SearchRequest, ShardedClimber};
use climber_serve::{ServeClient, ServeConfig, Server};
use std::sync::Arc;

fn main() {
    let dir = std::env::temp_dir().join(format!("climber-sharded-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    // 1. one dataset, two builds: a single index and a 3-shard set
    //    written to shard-000/, shard-001/, ... plus SHARDS.clsm
    let data = Domain::RandomWalk.generate(4_000, 7);
    let config = ClimberConfig::default()
        .with_pivots(64)
        .with_prefix_len(8)
        .with_capacity(250)
        .with_alpha(0.2);
    let single = Climber::build_in_memory(&data, config);
    let sharded = ShardedClimber::build_on_disk(&data, &dir, config, 3).unwrap();
    println!(
        "built {} shards under {} (router seed {:#x}); shard 0 holds {} partitions",
        sharded.num_shards(),
        dir.display(),
        sharded.router_seed(),
        sharded.shards()[0].store().len()
    );

    // 2. the scatter-gather contract: bit-identical outcomes — same
    //    neighbours, same distances, same scan accounting, same plan
    let reqs: Vec<SearchRequest> = (0..32u64)
        .map(|i| SearchRequest::new(data.get(i * 113), 10))
        .collect();
    assert_eq!(sharded.search_many(&reqs), single.search_many(&reqs));
    println!(
        "scatter-gather answers == single-index answers on {} requests",
        reqs.len()
    );

    // 3. live updates route by record id to exactly one shard
    let novel: Vec<f32> = data.get(100).iter().map(|v| v + 0.01).collect();
    let id = sharded.append(&novel).unwrap();
    sharded.delete(100).unwrap();
    println!("appended record {id} -> shard {}", sharded.shard_of(id));
    let answer = sharded.search(&SearchRequest::new(novel.clone(), 5));
    assert_eq!(answer.results[0], (id, 0.0), "appended record served");
    assert!(answer.results.iter().all(|&(rid, _)| rid != 100));

    // 4. fold every shard — each re-seals its directory, then the set its
    //    super-manifest — and cold-open the directory
    sharded.flush().unwrap();
    let cold = ShardedClimber::open(&dir).unwrap();
    assert_eq!(cold.generations(), sharded.generations());
    assert_eq!(
        cold.search(&SearchRequest::new(novel.clone(), 5)).results[0],
        (id, 0.0)
    );
    println!("cold reopen at generations {:?} agrees", cold.generations());

    // 5. serve the sharded set — the identical call a single index uses
    let server = Server::start(Arc::new(cold), "127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    let served = client.search(&SearchRequest::new(novel, 5)).unwrap();
    assert_eq!(served.results[0], (id, 0.0), "served == direct");
    println!("served over TCP at {}: same answer", server.local_addr());
    server.shutdown();

    std::fs::remove_dir_all(&dir).ok();
}
