//! Property-based tests for the partition format and the cluster's parallel map.

use bytes::Bytes;
use climber_dfs::cluster::Cluster;
use climber_dfs::format::{PartitionReader, PartitionWriter};
use climber_dfs::store::{MemStore, PartitionStore};
use proptest::prelude::*;

/// Cluster contents: `(trie node id, records)` with records `(id, values)`.
type Clusters = Vec<(u64, Vec<(u64, Vec<f32>)>)>;

/// Strategy: clusters of records — distinct node ids, each with up to 12
/// records of width `w`.
fn clusters(w: usize) -> impl Strategy<Value = Clusters> {
    prop::collection::btree_map(
        0u64..50,
        prop::collection::vec(
            (any::<u64>(), prop::collection::vec(-1e3f32..1e3, w)),
            0..12,
        ),
        0..6,
    )
    .prop_map(|m| m.into_iter().collect())
}

proptest! {
    #[test]
    fn partition_roundtrip_preserves_everything(cs in clusters(5), group in any::<u64>()) {
        let mut w = PartitionWriter::new(group, 5);
        for (node, recs) in &cs {
            w.push_cluster(*node, recs.iter().map(|(id, v)| (*id, v.as_slice())));
        }
        let bytes = w.finish();
        let r = PartitionReader::open(bytes).unwrap();
        prop_assert_eq!(r.group_id(), group);
        prop_assert_eq!(r.series_len(), 5);
        let want_total: u64 = cs.iter().map(|(_, recs)| recs.len() as u64).sum();
        prop_assert_eq!(r.record_count(), want_total);
        for (node, recs) in &cs {
            let mut got = Vec::new();
            let n = r.for_each_in_cluster(*node, |id, vals| got.push((id, vals.to_vec())));
            prop_assert_eq!(n as usize, recs.len());
            prop_assert_eq!(&got, recs);
        }
    }

    #[test]
    fn truncation_is_always_detected(cs in clusters(3), cut_frac in 0.01f64..0.999) {
        let mut w = PartitionWriter::new(0, 3);
        for (node, recs) in &cs {
            w.push_cluster(*node, recs.iter().map(|(id, v)| (*id, v.as_slice())));
        }
        let bytes = w.finish();
        let cut = ((bytes.len() as f64 * cut_frac) as usize).min(bytes.len() - 1);
        let truncated = bytes.slice(0..cut);
        prop_assert!(PartitionReader::open(truncated).is_err());
    }

    #[test]
    fn random_bytes_never_panic_the_reader(junk in prop::collection::vec(any::<u8>(), 0..400)) {
        // opening arbitrary bytes must return Err, never panic
        let _ = PartitionReader::open(Bytes::from(junk));
    }

    #[test]
    fn par_map_equals_serial_map(items in prop::collection::vec(any::<i64>(), 0..500)) {
        let c = Cluster::new(8);
        let par: Vec<i64> = c.par_map(items.clone(), |x| x.wrapping_mul(3) ^ 7);
        let ser: Vec<i64> = items.into_iter().map(|x| x.wrapping_mul(3) ^ 7).collect();
        prop_assert_eq!(par, ser);
    }

    #[test]
    fn store_read_cluster_returns_exact_records(cs in clusters(4)) {
        let store = MemStore::new();
        let mut w = PartitionWriter::new(9, 4);
        for (node, recs) in &cs {
            w.push_cluster(*node, recs.iter().map(|(id, v)| (*id, v.as_slice())));
        }
        store.put(0, w.finish(), || ()).unwrap();
        for (node, recs) in &cs {
            let mut out = Vec::new();
            let n = (store.open(0).unwrap())
                .for_each_in_cluster(*node, |id, vals| out.push((id, vals.to_vec())));
            prop_assert_eq!(n as usize, recs.len());
            prop_assert_eq!(&out, recs);
        }
    }
}
