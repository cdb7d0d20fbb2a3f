//! The one scan pipeline: every search is [`execute`] over N sources.
//!
//! CLIMBER-kNN, the Adaptive variants and OD-Smallest differ only in the
//! *plan* (§V–VI: which groups, partitions and trie-node clusters to
//! read); the record-level ED refinement under a best-so-far bound is one
//! algorithm. This module runs it once, for every query shape:
//!
//! ```text
//! validate → group by (mode, k, budget) → resample → plan once on the
//! shared skeleton → scan every source partition-major under one
//! SharedBound per query → gather → expand → QueryOutcome + SourceStatus
//! ```
//!
//! A [`Source`] is one record-disjoint place records live: a partition
//! store plus, optionally, its pending updates. One request over one
//! source is a plain search; N requests share every partition open and
//! cluster walk (each partition any plan selects is opened **once**, by
//! one read of the union of the clusters the plans name, each surviving
//! record visited **once**, in place in the cluster's bytes, and scored
//! against every query that selected its cluster); N sources are the
//! shards of a scatter-gather set, and a dead shard slot is `None`. All
//! of them run the same stages and the same `scan_cluster`.
//!
//! Outcomes are bit-identical across all of these shapes because a
//! [`TopK`]'s content depends only on which records it is offered, and
//! everything that withholds a record — early abandon against a bound
//! only full heaps publish, the PAA lower bound, the tombstone filter —
//! withholds only records provably outside the final
//! top-k; `records_scanned` counts the candidate stream, never the
//! offers. The arguments are spelled out once, in ARCHITECTURE.md ("Why
//! every shape returns the same bits").

pub(crate) use crate::plan::plan_group;
use crate::plan::{QueryOutcome, QueryPlan};
pub use crate::search::SeriesLen;
use crate::search::{SearchMode, SearchRequest};
use crate::updates::UpdateView;
use climber_dfs::format::{record_size, ClusterPick, ClusterRecords, TrieNodeId};
use climber_dfs::page::ClusterView;
use climber_dfs::segment::{DeltaView, TombstoneSet};
use climber_dfs::stats::IoStats;
use climber_dfs::store::{PartitionId, PartitionStore};
use climber_index::skeleton::IndexSkeleton;
use climber_repr::paa::{paa, paa_le_into};
use climber_series::distance::ed_early_abandon_le;
use climber_series::kernels::prefetch;
use climber_series::resample::resample_linear;
use climber_series::topk::{SharedBound, TopK};
use rayon::prelude::*;
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Segments of the shared PAA prefilter.
const PREFILTER_SEGMENTS: usize = 16;

/// Minimum queries sharing a cluster before its PAA signatures are worth
/// computing: below this the signature pass costs about what it saves.
const PREFILTER_MIN_QUERIES: usize = 4;

/// The scan prefetches every cache line of the record this many
/// places ahead, id included, while it scores the current one. Most
/// records are abandoned within a few lines, a stride the hardware
/// streamer does not follow, but about two in five candidates (the first
/// k, then every improvement) are scored to their last line. Tuned at
/// 1 032-byte records (256 values): on `direct-warm` 4 read best of 3, 4,
/// 6 and 8 (ARCHITECTURE, "Distance kernels").
const PREFETCH_AHEAD: usize = 4;

/// One record-disjoint place a search reads from: a partition store and
/// the updates pending against it.
#[derive(Debug)]
pub struct Source<'a, S: PartitionStore> {
    /// The sealed partitions.
    pub store: &'a S,
    /// Pending appends and deletes, merged into every cluster scan.
    pub updates: Option<UpdateView<'a>>,
}

impl<'a, S: PartitionStore> Source<'a, S> {
    /// The sealed partitions of `store` alone: no updates.
    pub fn sealed(store: &'a S) -> Self {
        Self {
            store,
            updates: None,
        }
    }
}

impl<S: PartitionStore> Clone for Source<'_, S> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<S: PartitionStore> Copy for Source<'_, S> {}

/// What one source contributed to (and withheld from) a call.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SourceStatus {
    /// Planned partitions that failed to open or to read a cluster
    /// (quarantined, deleted or truncated mid-flight): treated as empty,
    /// never a panic.
    pub failed_partitions: BTreeSet<PartitionId>,
    /// Records this source put into candidate streams (scan + expansion);
    /// sums across sources to the outcomes' `records_scanned`.
    pub records_scanned: u64,
}

/// Executes `reqs` against `sources` (see the [module docs](self)):
/// outcomes in request order, one [`SourceStatus`] per source slot. The
/// outcomes are bit-identical for any batch composition, thread count
/// (`0` = the machine's parallelism) and split of the same records over
/// sources. A single request always runs inline on the calling thread.
///
/// ```
/// use climber_dfs::store::DiskStore;
/// use climber_index::builder::IndexBuilder;
/// use climber_index::config::IndexConfig;
/// use climber_query::exec::{execute, Source};
/// use climber_query::SearchRequest;
/// use climber_series::gen::Domain;
///
/// let ds = Domain::RandomWalk.generate(400, 7);
/// let store = DiskStore::in_memory();
/// let cfg = IndexConfig::default().with_pivots(32).with_capacity(80);
/// let (skeleton, _) = IndexBuilder::new(cfg).build(&ds, &store);
///
/// let reqs: Vec<SearchRequest> = (0..8u64)
///     .map(|i| SearchRequest::new(ds.get(i * 50), 10))
///     .collect();
/// // One live source and one dead slot: the dead one contributes nothing.
/// let sources = [Some(Source::sealed(&store)), None];
/// let (many, status) = execute(&skeleton, &sources, Some(ds.series_len()), &reqs, 4);
/// assert_eq!(many.len(), 8);
/// assert!(status[0].failed_partitions.is_empty());
/// assert_eq!(
///     status[0].records_scanned,
///     many.iter().map(|o| o.records_scanned).sum::<u64>()
/// );
/// // Any batching of the same requests returns the same bits.
/// let (one, _) = execute(&skeleton, &sources, Some(ds.series_len()), &reqs[..1], 0);
/// assert_eq!(one[0], many[0]);
/// ```
///
/// # Panics
/// If a request fails [`SearchRequest::validate_for`] `series_len`.
pub fn execute<S: PartitionStore>(
    skeleton: &IndexSkeleton,
    sources: &[Option<Source<'_, S>>],
    series_len: Option<usize>,
    reqs: &[SearchRequest],
    threads: usize,
) -> (Vec<QueryOutcome>, Vec<SourceStatus>) {
    let mut statuses = vec![SourceStatus::default(); sources.len()];
    for req in reqs {
        if let Err(e) = req.validate_for(series_len) {
            panic!("{e}");
        }
    }
    // Requests of one shape share a plan stage and a scan. A resampled
    // query plans as Adaptive once it has been stretched. Linear scan:
    // batches are serving micro-batches and the key is a tiny Copy.
    type Shape = (SearchMode, usize, Option<u32>);
    let mut groups: Vec<(Shape, Vec<usize>)> = Vec::new();
    for (i, req) in reqs.iter().enumerate() {
        let mode = match req.mode {
            SearchMode::Resampled(f) => SearchMode::Adaptive(f),
            mode => mode,
        };
        let shape = (mode, req.k, req.budget);
        match groups.iter_mut().find(|(s, _)| *s == shape) {
            Some((_, members)) => members.push(i),
            None => groups.push((shape, vec![i])),
        }
    }
    // One request has nothing to share, and spawning workers for its one
    // or two partitions costs more than scanning them.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(if reqs.len() == 1 { 1 } else { threads })
        .build()
        .expect("building a pool cannot fail");
    let mut outcomes: Vec<Option<QueryOutcome>> = reqs.iter().map(|_| None).collect();
    pool.install(|| {
        for ((mode, k, budget), members) in groups {
            let queries: Vec<Cow<'_, [f32]>> = members
                .iter()
                .map(|&i| match (reqs[i].mode, series_len) {
                    (SearchMode::Resampled(_), Some(len)) => {
                        Cow::Owned(resample_linear(&reqs[i].query, len))
                    }
                    _ => Cow::Borrowed(&reqs[i].query[..]),
                })
                .collect();
            let plans = plan_group(skeleton, &queries, mode, k, budget);
            let expands = mode != SearchMode::Smallest;
            let group = scan_group(sources, &queries, plans, k, expands, &mut statuses);
            for (i, outcome) in members.into_iter().zip(group) {
                outcomes[i] = Some(outcome);
            }
        }
    });
    let outcomes = outcomes
        .into_iter()
        .map(|o| o.expect("every request belongs to exactly one group"))
        .collect();
    (outcomes, statuses)
}

/// What a group keeps per query across its partition tasks. A [`Lane`]
/// borrows nothing: it names its seat by index, so the lane vector can be
/// a per-thread buffer that outlives the call.
struct Seat<'a> {
    query: &'a [f32],
    /// The query's prefilter signature (empty when the group is too small
    /// for any cluster to be prefiltered): ~70 ns to compute, so signed
    /// inline rather than fanned out.
    paa: Vec<f64>,
    /// The bound every lane of the query polls.
    shared: SharedBound,
    /// The query's heap, handed from task to task.
    heap: Mutex<Option<TopK>>,
    /// Stream length charged by the tasks finished so far.
    scanned: AtomicU64,
}

/// One query's place at a partition scan: the heap it fills and the
/// stream length it is charged.
struct Lane {
    /// Index of the query (and its [`Seat`]) in the group.
    qi: usize,
    top: TopK,
    /// The heap's bound moved since it was last published.
    tightened: bool,
    scanned: u64,
}

/// Per-thread buffers of the scan, reused across calls: the lanes of the
/// partition task being run, its cluster views and the PAA signature of
/// the record being scored. After warm-up an inline search allocates
/// nothing per task, cluster or record (`tests/alloc_budget.rs`).
#[derive(Default)]
struct Scratch {
    lanes: Vec<Lane>,
    views: Vec<(TrieNodeId, ClusterView)>,
    paa: Vec<f64>,
    work: Vec<PartitionWork>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// What the plans of a group ask of one partition.
#[derive(Default)]
struct PartitionWork {
    pid: PartitionId,
    /// The queries whose plans read this partition (their lanes).
    qis: Vec<usize>,
    /// `(cluster, lane)` for every selection, sorted: each run of one
    /// cluster lists the lanes (positions in `qis`) interested in it.
    picks: Vec<(TrieNodeId, usize)>,
    /// The distinct clusters of `picks`, ascending: what the task reads.
    nodes: Vec<TrieNodeId>,
}

/// Scan, gather and expand for one planned group: the partition-major
/// pass over every live source, then per query the merge of its lanes'
/// heaps and the expansion fallback. Adds each source's share to
/// `statuses`.
pub(crate) fn scan_group<S: PartitionStore, Q: AsRef<[f32]> + Sync>(
    sources: &[Option<Source<'_, S>>],
    queries: &[Q],
    plans: Vec<QueryPlan>,
    k: usize,
    expands: bool,
    statuses: &mut [SourceStatus],
) -> Vec<QueryOutcome> {
    let nq = queries.len();
    assert_eq!(plans.len(), nq, "one plan per query");
    // A cluster is prefiltered only when four lanes share it, so a smaller
    // group signs nothing.
    let sign = |q: &[f32]| match nq >= PREFILTER_MIN_QUERIES {
        true => paa(q, PREFILTER_SEGMENTS.min(q.len())),
        false => Vec::new(),
    };
    let seats: Vec<Seat<'_>> = (queries.iter().map(AsRef::as_ref))
        .map(|query| Seat {
            query,
            paa: sign(query),
            shared: SharedBound::new(),
            heap: Mutex::new(None),
            scanned: AtomicU64::new(0),
        })
        .collect();
    let held = "no lane panics holding a heap";
    let lane = |qi: usize, top: Option<TopK>| Lane {
        qi,
        top: top.unwrap_or_else(|| TopK::new(k)),
        tightened: false,
        scanned: 0,
    };

    // Regroup the union of all plans by partition, then by cluster, into
    // the thread's pooled entries: their vectors keep their capacity.
    let mut pool = SCRATCH.with_borrow_mut(|s| std::mem::take(&mut s.work));
    let mut used = 0;
    for (qi, plan) in plans.iter().enumerate() {
        for (&pid, nodes) in plan.reads.iter() {
            let known = pool[..used].iter().position(|w| w.pid == pid);
            let wi = known.unwrap_or_else(|| {
                used += 1;
                pool.resize_with(pool.len().max(used), Default::default);
                let w = &mut pool[used - 1];
                w.pid = pid;
                w.qis.clear();
                w.picks.clear();
                used - 1
            });
            let w = &mut pool[wi];
            w.qis.push(qi);
            w.picks
                .extend(nodes.iter().map(|&node| (node, w.qis.len() - 1)));
        }
    }
    let work = &mut pool[..used];
    work.sort_unstable_by_key(|w| w.pid);
    for w in work.iter_mut() {
        w.picks.sort_unstable();
        w.nodes.clear();
        (w.nodes).extend(w.picks.chunk_by(|a, b| a.0 == b.0).map(|run| run[0].0));
    }
    let work = &*work;

    // Every (live source, partition) pair is one task; workers pull the
    // next one off a shared cursor, so skewed partition sizes balance. A
    // task reads the clusters its partition's picks name in one store
    // call, and its flag is set iff every one of them arrived. A query's
    // heap is handed from task to task: a lane takes it when no other lane
    // holds it (always, on one thread) and starts a fresh one otherwise;
    // whoever finds the slot occupied on return merges.
    let live: Vec<usize> = (0..sources.len())
        .filter(|&si| sources[si].is_some())
        .collect();
    let tasks = live.len() * work.len();
    let cursor = AtomicUsize::new(0);
    let source_scanned: Vec<AtomicU64> = sources.iter().map(|_| AtomicU64::new(0)).collect();
    let opened: Vec<AtomicBool> = (0..sources.len() * work.len())
        .map(|_| AtomicBool::new(false))
        .collect();
    let opened = |si: usize, pi: usize| &opened[si * work.len() + pi];
    let run_tasks = |Scratch {
                         lanes, views, paa, ..
                     }: &mut Scratch| loop {
        let task = cursor.fetch_add(1, Ordering::Relaxed);
        if task >= tasks {
            break;
        }
        let (si, pi) = (live[task / work.len()], task % work.len());
        let (src, pw) = (sources[si].as_ref().expect("live source"), &work[pi]);
        // One delta read section over every read of the partition: its
        // clusters and runs are one state (ARCHITECTURE, "Flush/compaction").
        let pending = src.updates.map(|u| (u.delta.read(), u.tombstones));
        // Vanished, quarantined, unreadable, or holding records of another
        // length than the queries (a file-supplied length never reaches
        // the kernel): treated as empty, and named in the status.
        let fits = |len: &usize| (pw.qis.iter()).all(|&qi| seats[qi].query.len() == *len);
        views.clear(); // a panicked task may have left its views behind
        let read = src
            .store
            .read_clusters(pw.pid, ClusterPick::Named(&pw.nodes), views);
        let Some(series_len) = read.ok().filter(fits) else {
            continue;
        };
        let take = |qi: usize| seats[qi].heap.lock().expect(held).take();
        lanes.clear(); // a panicked task may have left its lanes behind
        lanes.extend(pw.qis.iter().map(|&qi| lane(qi, take(qi))));
        let (stats, updates) = (src.store.stats(), pending.as_ref());
        for interested in pw.picks.chunk_by(|a, b| a.0 == b.0) {
            let cluster = (pw.pid, node_views(views, interested[0].0), series_len);
            scan_cluster(stats, updates, cluster, &seats, lanes, interested, paa);
        }
        // Views pin cached pages: none outlives its task.
        views.clear();
        drop(pending);
        let mut total = 0;
        for lane in lanes.drain(..) {
            let seat = &seats[lane.qi];
            total += lane.scanned;
            seat.scanned.fetch_add(lane.scanned, Ordering::Relaxed);
            let mut slot = seat.heap.lock().expect(held);
            let mut top = lane.top;
            if let Some(other) = slot.take() {
                top.merge(other);
                top.publish_bound(&seat.shared);
            }
            *slot = Some(top);
        }
        source_scanned[si].fetch_add(total, Ordering::Relaxed);
        opened(si, pi).store(true, Ordering::Relaxed);
    };
    let workers = rayon::current_num_threads().min(tasks);
    let worker = |_: usize| SCRATCH.with_borrow_mut(run_tasks);
    let _: Vec<()> = (0..workers).into_par_iter().map(worker).collect();

    // Gather, per query: a planned partition counts as opened when any
    // live source opened it; the expansion walks the plan's partitions in
    // ascending id (the order of `work`), and reads the rest of each
    // opened partition's clusters.
    let expand_failed: Mutex<Vec<(usize, PartitionId)>> = Mutex::new(Vec::new());
    let finish = |(qi, plan): (usize, QueryPlan)| {
        let any_opened = |(pid, _): &(&PartitionId, _)| {
            let pi = work.binary_search_by_key(*pid, |w| w.pid);
            let pi = pi.expect("every planned partition has work");
            (live.iter()).any(|&si| opened(si, pi).load(Ordering::Relaxed))
        };
        let partitions_opened = plan.reads.iter().filter(any_opened).count();
        let top = seats[qi].heap.lock().expect(held).take();
        let mut lanes = [lane(qi, top)];
        if expands && lanes[0].top.len() < k {
            let paa = &mut Vec::new(); // one lane: never prefiltered, never filled
            let rest = &mut Vec::new();
            for (pi, &PartitionWork { pid, .. }) in work.iter().enumerate() {
                let Some(planned) = plan.reads.get(pid) else {
                    continue;
                };
                for &si in &live {
                    if !opened(si, pi).load(Ordering::Relaxed) {
                        continue;
                    }
                    let src = sources[si].as_ref().expect("live source");
                    let pending = src.updates.map(|u| (u.delta.read(), u.tombstones));
                    rest.clear();
                    let read = src
                        .store
                        .read_clusters(pid, ClusterPick::Rest(planned), rest);
                    let Ok(series_len) = read else {
                        expand_failed.lock().expect(held).push((si, pid));
                        continue;
                    };
                    let before = lanes[0].scanned;
                    // Sealed clusters first, in storage order (a node's
                    // views from every image are adjacent), then delta-only
                    // nodes no image has seen.
                    let sealed = rest.chunk_by(|a, b| a.0 == b.0).map(|run| (run[0].0, run));
                    let unseen = (pending.iter().flat_map(|(delta, _)| delta.nodes_for(pid)))
                        .filter(|n| !planned.contains(n) && !rest.iter().any(|(m, _)| m == n))
                        .map(|node| (node, &[][..]));
                    let (stats, updates) = (src.store.stats(), pending.as_ref());
                    for (node, view) in sealed.chain(unseen) {
                        let only = &[(node, 0)];
                        let cluster = (pid, view, series_len);
                        scan_cluster(stats, updates, cluster, &seats, &mut lanes, only, paa);
                    }
                    source_scanned[si].fetch_add(lanes[0].scanned - before, Ordering::Relaxed);
                }
                if lanes[0].top.len() >= k {
                    break;
                }
            }
        }
        let [Lane {
            top,
            scanned: expanded,
            ..
        }] = lanes;
        QueryOutcome {
            results: top.into_sorted(),
            partitions_opened,
            records_scanned: seats[qi].scanned.load(Ordering::Relaxed) + expanded,
            plan,
        }
    };
    let items: Vec<_> = plans.into_iter().enumerate().collect();
    let outcomes = items.into_par_iter().map(finish).collect();

    for &si in &live {
        statuses[si].records_scanned += source_scanned[si].load(Ordering::Relaxed);
        let failed = (work.iter().enumerate())
            .filter(|&(pi, _)| !opened(si, pi).load(Ordering::Relaxed))
            .map(|(_, w)| w.pid);
        statuses[si].failed_partitions.extend(failed);
    }
    for (si, pid) in expand_failed.into_inner().expect(held) {
        statuses[si].failed_partitions.insert(pid);
    }
    SCRATCH.with_borrow_mut(|s| s.work = pool);
    outcomes
}

/// The views of `node` in `views`, where a store put them side by side
/// (its cluster in the base image, then in each extension): empty when no
/// image holds the node.
fn node_views(
    views: &[(TrieNodeId, ClusterView)],
    node: TrieNodeId,
) -> &[(TrieNodeId, ClusterView)] {
    let Some(at) = views.iter().position(|(n, _)| *n == node) else {
        return &[];
    };
    let len = views[at..].iter().take_while(|(n, _)| *n == node).count();
    &views[at..at + len]
}

/// Scans one `(partition, node)` cluster of one source for the lanes that
/// selected it (`interested`: one run of [`PartitionWork::picks`]) — the
/// paper's record-level refinement, written once. `cluster` is the
/// partition, the node's sealed records (one view per image holding the
/// node, base first; none when no image does) and the partition's series
/// length; `pending` is the source's delta, read section held by the
/// caller, and its deletes.
///
/// The candidate stream is the sealed cluster's records minus tombstoned
/// ids — the base image's, then each extension's, in file order: the
/// stream the same records folded into one base image would give — then
/// the delta cluster under the same key minus tombstoned ids;
/// its length is charged to every interested lane's `scanned`. Both runs
/// hold records in the one encoded layout and go through the one record
/// loop: each record is scored where it lies — never decoded, never
/// copied — by every interested lane while its lines are cache-hot:
/// `ed_early_abandon_le → TopK::offer → publish_bound`, behind the shared
/// PAA prefilter when enough lanes share the record to pay for its
/// signature. Per lane the records are visited in stream order. `stats`
/// is charged a full record per sealed candidate — what the partition
/// holds for it, whatever the kernel left unread.
fn scan_cluster(
    stats: &IoStats,
    pending: Option<&(DeltaView<'_>, &TombstoneSet)>,
    (pid, sealed, series_len): (PartitionId, &[(TrieNodeId, ClusterView)], usize),
    seats: &[Seat<'_>],
    lanes: &mut [Lane],
    interested: &[(TrieNodeId, usize)],
    paa: &mut Vec<f64>,
) {
    let node = interested[0].0;
    let segments = PREFILTER_SEGMENTS.min(series_len);
    let mut lanes = Scorer {
        seats,
        lanes,
        interested,
        paa,
        segments,
        scale: (series_len / segments) as f64,
        prefilter: interested.len() >= PREFILTER_MIN_QUERIES,
    };

    let tombstones = pending.map(|(_, t)| t.read());
    let deleted = |id: u64| tombstones.as_ref().is_some_and(|t| t.contains(id));
    let sealed: u64 = (sealed.iter())
        .map(|(_, view)| lanes.scan(view.records(), deleted))
        .sum();
    let pending = (pending.and_then(|(delta, _)| delta.run(pid, node)))
        .map_or(0, |recs| lanes.scan(recs, deleted));
    // The store is charged the sealed candidates; delta records never
    // came from it.
    let record_bytes = record_size(series_len) as u64;
    stats.on_read(sealed * record_bytes);
    stats.on_records_read(sealed);
    // One publication per cluster, not per kept offer: the shared bound
    // is an atomic other workers poll, and a stale one only costs them
    // early-abandon work.
    for &(_, l) in interested {
        let lane = &mut lanes.lanes[l];
        lane.scanned += sealed + pending;
        if std::mem::take(&mut lane.tightened) {
            lane.top.publish_bound(&seats[lane.qi].shared);
        }
    }
}

/// The lanes interested in one cluster, with the cluster-constant
/// geometry of the PAA lower bound (segments, and the `floor(n / w)`
/// weight that keeps it admissible for uneven splits).
struct Scorer<'s, 'q> {
    seats: &'s [Seat<'q>],
    lanes: &'s mut [Lane],
    interested: &'s [(TrieNodeId, usize)],
    paa: &'s mut Vec<f64>,
    segments: usize,
    scale: f64,
    prefilter: bool,
}

impl Scorer<'_, '_> {
    /// The record loop, over one run: every record whose id is not
    /// `deleted` is [scored](Self::score) where it lies, while the record
    /// [`PREFETCH_AHEAD`] places on is prefetched. Returns the run's
    /// candidates.
    #[inline(always)]
    fn scan(&mut self, recs: ClusterRecords<'_>, deleted: impl Fn(u64) -> bool) -> u64 {
        let mut counted = 0u64;
        for i in 0..recs.len() {
            if i + PREFETCH_AHEAD < recs.len() {
                prefetch(recs.record(i + PREFETCH_AHEAD));
            }
            let id = recs.id(i);
            if deleted(id) {
                continue;
            }
            counted += 1;
            self.score(id, recs.values_le(i));
        }
        counted
    }

    /// Scores one record — its values as stored, little-endian bytes
    /// borrowed from the run — against every interested lane: the only
    /// place a record meets the exact kernel.
    #[inline(always)]
    fn score(&mut self, id: u64, values: &[u8]) {
        if self.prefilter {
            self.paa.clear();
            paa_le_into(values, self.segments, self.paa);
        }
        for &(_, l) in self.interested {
            let lane = &mut self.lanes[l];
            let seat = &self.seats[lane.qi];
            let bound = lane.top.bound_with(&seat.shared);
            if self.prefilter && seat.paa.len() == self.segments && bound.is_finite() {
                let mut lb = 0.0f64;
                for (a, b) in seat.paa.iter().zip(self.paa.iter()) {
                    lb += (a - b) * (a - b);
                }
                if lb * self.scale > bound * (1.0 + 1e-9) {
                    continue;
                }
            }
            if let Some(d) = ed_early_abandon_le(seat.query, values, bound) {
                lane.tightened |= lane.top.offer(id, d);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{execute, plan_group, scan_group, SeriesLen, Source, SourceStatus};
    use crate::knn::{for_each_node_read, select_primary};
    use crate::plan::{query_seed, QueryOutcome, QueryPlan, Reads};
    use crate::search::{SearchMode, SearchRequest};
    use crate::updates::UpdateView;
    use climber_dfs::format::PartitionWriter;
    use climber_dfs::segment::{DeltaSegment, TombstoneSet};
    use climber_dfs::store::{DiskStore, PartitionStore};
    use climber_index::builder::IndexBuilder;
    use climber_index::config::IndexConfig;
    use climber_index::skeleton::IndexSkeleton;
    use climber_series::dataset::Dataset;
    use climber_series::distance::{ed_early_abandon, sq_ed};
    use climber_series::gen::{query_workload, Domain};
    use climber_series::ground_truth::exact_knn;
    use climber_series::recall::recall_of_results;
    use climber_series::topk::TopK;
    use std::collections::BTreeSet;

    /// A store with one partition: cluster 1 = records 0..4 near zero,
    /// cluster 2 = records 10..14 far away.
    fn toy_store() -> DiskStore {
        let store = DiskStore::in_memory();
        let mut w = PartitionWriter::new(0, 2);
        let near: Vec<(u64, Vec<f32>)> = (0..4).map(|i| (i, vec![i as f32 * 0.1, 0.0])).collect();
        let far: Vec<(u64, Vec<f32>)> = (10..14)
            .map(|i| (i, vec![100.0 + i as f32, 100.0]))
            .collect();
        w.push_cluster(1, near.iter().map(|(id, v)| (*id, v.as_slice())));
        w.push_cluster(2, far.iter().map(|(id, v)| (*id, v.as_slice())));
        store.put(0, w.finish(), || ()).unwrap();
        store
    }

    fn plan_for(clusters: &[u64]) -> QueryPlan {
        let mut p = QueryPlan::default();
        for &c in clusters {
            p.add_read(0, c);
        }
        p
    }

    /// One query, one plan, one source through scan → gather → expand.
    fn refine(
        store: &DiskStore,
        plan: &QueryPlan,
        query: &[f32],
        k: usize,
        expand: bool,
        updates: Option<UpdateView<'_>>,
    ) -> (QueryOutcome, SourceStatus) {
        let sources = [Some(Source {
            updates,
            ..Source::sealed(store)
        })];
        let mut status = [SourceStatus::default()];
        let plans = vec![plan.clone()];
        let mut out = scan_group(&sources, &[query], plans, k, expand, &mut status);
        let [status] = status;
        (out.pop().unwrap(), status)
    }

    #[test]
    fn refine_ranks_by_distance() {
        let (out, status) = refine(&toy_store(), &plan_for(&[1]), &[0.0, 0.0], 2, false, None);
        assert_eq!(out.results.len(), 2);
        assert_eq!((out.results[0].0, out.results[1].0), (0, 1));
        assert!((out.results[1].1 - sq_ed(&[0.0, 0.0], &[0.1, 0.0])).abs() < 1e-9);
        assert_eq!((out.records_scanned, out.partitions_opened), (4, 1));
        assert_eq!(status.records_scanned, 4);
    }

    #[test]
    fn expansion_fires_only_when_short_of_k() {
        let store = toy_store();
        // k=6 > 4 records in cluster 1 → expansion reads cluster 2 too.
        let (out, status) = refine(&store, &plan_for(&[1]), &[0.0, 0.0], 6, true, None);
        assert_eq!((out.results.len(), out.records_scanned), (6, 8));
        assert_eq!(
            status.records_scanned, 8,
            "expansion is charged to its source"
        );
        // without expansion we stop at 4
        let (out, _) = refine(&store, &plan_for(&[1]), &[0.0, 0.0], 6, false, None);
        assert_eq!(out.results.len(), 4);
    }

    #[test]
    fn expansion_not_used_when_k_satisfied() {
        let (out, _) = refine(&toy_store(), &plan_for(&[1]), &[0.0, 0.0], 3, true, None);
        assert_eq!(out.records_scanned, 4, "must not touch cluster 2");
    }

    #[test]
    fn missing_partition_is_tolerated() {
        let mut p = plan_for(&[1]);
        p.add_read(99, 1); // nonexistent partition
        let (out, status) = refine(&toy_store(), &p, &[0.0, 0.0], 2, true, None);
        assert_eq!((out.results.len(), out.partitions_opened), (2, 1));
        assert_eq!(
            status.failed_partitions.into_iter().collect::<Vec<_>>(),
            [99]
        );
    }

    #[test]
    fn missing_cluster_is_tolerated() {
        let (out, _) = refine(&toy_store(), &plan_for(&[42]), &[0.0, 0.0], 2, false, None);
        assert!(out.results.is_empty());
        assert_eq!(out.records_scanned, 0);
    }

    #[test]
    fn results_are_squared_distances_sorted() {
        let (out, _) = refine(
            &toy_store(),
            &plan_for(&[1, 2]),
            &[0.0, 0.0],
            8,
            false,
            None,
        );
        assert!(out.results.windows(2).all(|w| w[0].1 <= w[1].1));
        assert_eq!(out.results.len(), 8);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_rejected() {
        refine(&toy_store(), &plan_for(&[1]), &[0.0, 0.0], 0, false, None);
    }

    #[test]
    fn tombstoned_records_never_reach_topk() {
        let (delta, tombstones) = (DeltaSegment::new(), TombstoneSet::new());
        tombstones.delete(0); // the nearest record to the query
        let view = UpdateView {
            delta: &delta,
            tombstones: &tombstones,
        };
        let (out, _) = refine(
            &toy_store(),
            &plan_for(&[1]),
            &[0.0, 0.0],
            2,
            false,
            Some(view),
        );
        assert!(
            out.results.iter().all(|&(id, _)| id != 0),
            "{:?}",
            out.results
        );
        assert_eq!(out.results[0].0, 1, "survivors fill the answer");
        assert_eq!(out.records_scanned, 3, "scan counts survivors only");
    }

    #[test]
    fn delta_records_merge_into_planned_clusters() {
        let (store, delta, tombstones) = (toy_store(), DeltaSegment::new(), TombstoneSet::new());
        // route a new nearest record into (partition 0, cluster 1)
        delta.append(0, 1, 500, &[0.01, 0.0]);
        // ... and one into a cluster the sealed partition doesn't have
        delta.append(0, 77, 501, &[0.02, 0.0]);
        let view = Some(UpdateView {
            delta: &delta,
            tombstones: &tombstones,
        });
        let (out, _) = refine(&store, &plan_for(&[1]), &[0.0, 0.0], 2, false, view);
        assert_eq!(out.results[0].0, 0, "exact sealed match still first");
        assert_eq!(out.results[1].0, 500, "delta record ranks second");
        assert_eq!(out.records_scanned, 5, "4 sealed + 1 delta");

        // the delta-only cluster 77 is reachable via expansion
        let (out, _) = refine(&store, &plan_for(&[1]), &[0.0, 0.0], 10, true, view);
        assert!(out.results.iter().any(|&(id, _)| id == 501));
        assert_eq!(out.records_scanned, 10, "8 sealed + 2 delta");

        // a deleted delta record is filtered like any other
        tombstones.delete(500);
        let (out, _) = refine(&store, &plan_for(&[1]), &[0.0, 0.0], 2, false, view);
        assert_eq!(out.results[0].0, 0);
        assert_eq!(out.records_scanned, 4);
    }

    #[test]
    fn empty_update_view_matches_sealed_path_exactly() {
        let (store, delta, tombstones) = (toy_store(), DeltaSegment::new(), TombstoneSet::new());
        let view = UpdateView {
            delta: &delta,
            tombstones: &tombstones,
        };
        assert!(delta.is_empty() && tombstones.is_empty());
        for (k, expand) in [(2usize, false), (6, true), (8, false)] {
            let a = refine(&store, &plan_for(&[1]), &[0.1, 0.0], k, expand, None);
            let b = refine(&store, &plan_for(&[1]), &[0.1, 0.0], k, expand, Some(view));
            assert_eq!(a, b, "k={k} expand={expand}");
        }
    }

    #[test]
    fn scan_decoded_matches_per_record_visit() {
        // Block-wise scoring visits what a per-record visit would.
        let store = toy_store();
        let q = [0.3f32, 0.1];
        let (via_blocks, _) = refine(&store, &plan_for(&[1, 2]), &q, 3, false, None);
        let reader = store.open(0).unwrap();
        let mut via_visit = TopK::new(3);
        for node in [1u64, 2] {
            reader.for_each_in_cluster(node, |id, vals| {
                if let Some(d) = ed_early_abandon(&q, vals, via_visit.bound()) {
                    via_visit.offer(id, d);
                }
            });
        }
        assert_eq!(via_blocks.results, via_visit.into_sorted());
    }

    /// `reqs` through the executor over the sealed partitions of `store`.
    fn run(
        skeleton: &IndexSkeleton,
        store: &DiskStore,
        reqs: &[SearchRequest],
        threads: usize,
    ) -> Vec<QueryOutcome> {
        let sources = [Some(Source::sealed(store))];
        let series_len = SeriesLen::default().get(store);
        execute(skeleton, &sources, series_len, reqs, threads).0
    }

    /// One request, inline on the calling thread.
    fn search(skeleton: &IndexSkeleton, store: &DiskStore, req: &SearchRequest) -> QueryOutcome {
        run(skeleton, store, std::slice::from_ref(req), 0)
            .pop()
            .expect("one outcome per request")
    }

    /// An in-memory index of `n` series of `domain`: the data generated
    /// with `data_seed`, the index built with `seed`.
    fn build_seeded(
        domain: Domain,
        n: usize,
        data_seed: u64,
        seed: u64,
    ) -> (IndexSkeleton, DiskStore, Dataset) {
        let ds = domain.generate(n, data_seed);
        let store = DiskStore::in_memory();
        let cfg = IndexConfig::default()
            .with_paa_segments(8)
            .with_pivots(48)
            .with_prefix_len(6)
            .with_capacity(80)
            .with_alpha(0.4)
            .with_epsilon(1)
            .with_seed(seed)
            .with_workers(2);
        let (skeleton, _) = IndexBuilder::new(cfg).build(&ds, &store);
        (skeleton, store, ds)
    }

    fn build(domain: Domain, n: usize) -> (IndexSkeleton, DiskStore, Dataset) {
        build_seeded(domain, n, 91, 5)
    }

    /// The index the answer-quality tests below are calibrated on.
    fn build_engine(domain: Domain, n: usize) -> (IndexSkeleton, DiskStore, Dataset) {
        build_seeded(domain, n, 47, 21)
    }

    fn queries_of(ds: &Dataset, n: usize) -> Vec<Vec<f32>> {
        (0..n as u64)
            .map(|i| ds.get((i * 37) % ds.num_series() as u64).to_vec())
            .collect()
    }

    // The plan and multi-partition stages.

    #[test]
    fn plan_queries_matches_sequential_planning() {
        let (skeleton, store, ds) = build(Domain::RandomWalk, 400);
        let queries = queries_of(&ds, 8);
        let plans = plan_group(&skeleton, &queries, SearchMode::Exact, 10, None);
        for (q, plan) in queries.iter().zip(&plans) {
            let alone = search(&skeleton, &store, &SearchRequest::new(&q[..], 10).exact());
            assert_eq!(plan, &alone.plan);
        }
        // A budget truncates every plan of the group.
        let capped = plan_group(&skeleton, &queries, SearchMode::Smallest, 10, Some(1));
        assert!(capped.iter().all(|p| p.num_partitions() <= 1));
    }

    #[test]
    fn scan_shard_heaps_match_batch_outcomes() {
        // Queries whose planned scan already holds k candidates are
        // done: the expansion stage must leave them exactly alone.
        let (skeleton, store, ds) = build(Domain::RandomWalk, 500);
        let (queries, k) = (queries_of(&ds, 10), 8);
        let sources = [Some(Source::sealed(&store))];
        let plans = || plan_group(&skeleton, &queries, SearchMode::Adaptive(4), k, None);
        let mut status = [SourceStatus::default()];
        let planned = scan_group(&sources, &queries, plans(), k, false, &mut status);
        let full = scan_group(&sources, &queries, plans(), k, true, &mut status);
        assert!(planned.iter().any(|o| o.results.len() >= k));
        for (planned, full) in planned.iter().zip(&full) {
            if planned.results.len() >= k {
                assert_eq!(planned, full);
            }
        }
    }

    #[test]
    fn expand_shard_partition_reports_missing_partition() {
        let (_, store, _) = build(Domain::RandomWalk, 200);
        let pid = store.ids()[0];
        let reader = store.open(pid).unwrap();
        let q = vec![0.0f32; reader.series_len()];
        // A plan that selects no cluster of a real partition, and a
        // partition that does not exist.
        let plan = QueryPlan {
            reads: Reads(vec![(pid, Vec::new()), (9_999, Vec::new())]),
            ..QueryPlan::default()
        };
        let sources = [Some(Source::sealed(&store))];
        let mut status = [SourceStatus::default()];
        let k = reader.record_count() as usize + 1;
        let out = scan_group(&sources, &[q], vec![plan], k, true, &mut status);
        assert_eq!(
            out[0].records_scanned,
            reader.record_count(),
            "expansion reads it all"
        );
        assert_eq!(out[0].partitions_opened, 1);
        assert!(status[0].failed_partitions.contains(&9_999));
        assert!(!status[0].failed_partitions.contains(&pid));
    }

    #[test]
    fn partition_of_another_series_length_is_skipped_and_named() {
        let (skeleton, store, ds) = build(Domain::RandomWalk, 600);
        let req = (queries_of(&ds, 20).into_iter())
            .map(|q| SearchRequest::new(q, 50))
            .find(|req| search(&skeleton, &store, req).plan.num_partitions() >= 2)
            .expect("some plan reads two partitions");
        let plan = search(&skeleton, &store, &req).plan;
        let (&bad, _) = plan.reads.iter().next().unwrap();

        // The same partitions minus `bad`, and with `bad` re-encoded one
        // reading longer per record than the index (and the query).
        let (without, crafted) = (DiskStore::in_memory(), DiskStore::in_memory());
        for pid in store.ids() {
            let reader = store.open(pid).unwrap();
            if pid != bad {
                without.put(pid, reader.raw_bytes_owned(), || ()).unwrap();
                crafted.put(pid, reader.raw_bytes_owned(), || ()).unwrap();
                continue;
            }
            let mut w = PartitionWriter::new(reader.group_id(), reader.series_len() + 1);
            for (node, recs) in reader.clusters() {
                recs.for_each(|id, values| w.push_record(id, &[values, &[0.0]].concat()));
                w.seal_cluster(node);
            }
            crafted.put(pid, w.finish(), || ()).unwrap();
        }

        let reqs = std::slice::from_ref(&req);
        let over = |store| {
            execute(
                &skeleton,
                &[Some(Source::sealed(store))],
                Some(ds.series_len()),
                reqs,
                0,
            )
        };
        let (got, status) = over(&crafted);
        let (want, _) = over(&without);
        assert_eq!(status[0].failed_partitions, BTreeSet::from([bad]));
        assert!(!got[0].results.is_empty(), "the other partitions answer");
        assert_eq!(got, want, "a partition the scan refuses reads as absent");
    }

    // What a batch shares and refuses.

    #[test]
    fn batch_decodes_less_than_it_scans() {
        let (skeleton, store, ds) = build(Domain::TexMex, 500);
        // clustered data: many queries land in the same partitions
        let reqs: Vec<SearchRequest> = queries_of(&ds, 40)
            .into_iter()
            .map(|q| SearchRequest::new(q, 10))
            .collect();
        let before = store.stats().snapshot();
        let out = run(&skeleton, &store, &reqs, 0);
        let decoded = store.stats().snapshot().since(&before).records_read;
        let scanned: u64 = out.iter().map(|o| o.records_scanned).sum();
        assert!(decoded > 0);
        assert!(
            decoded < scanned,
            "no sharing: decoded {decoded} vs scanned {scanned}"
        );
    }

    #[test]
    fn empty_batch_is_empty() {
        let (skeleton, store, _) = build(Domain::RandomWalk, 200);
        let before = store.stats().snapshot();
        assert!(run(&skeleton, &store, &[], 0).is_empty());
        let io = store.stats().snapshot().since(&before);
        assert_eq!(io.records_read, 0);
    }

    #[test]
    #[should_panic(expected = "factor must be positive")]
    fn zero_factor_rejected() {
        let (skeleton, store, ds) = build(Domain::RandomWalk, 200);
        run(
            &skeleton,
            &store,
            &[SearchRequest::new(ds.get(0), 5).adaptive(0)],
            0,
        );
    }

    // Answer quality per planner, determinism, budgets.

    #[test]
    fn self_queries_find_themselves() {
        let (skeleton, store, ds) = build_engine(Domain::RandomWalk, 400);
        let mut found = 0;
        for qid in query_workload(&ds, 20, 1) {
            let out = search(
                &skeleton,
                &store,
                &SearchRequest::new(ds.get(qid), 10).exact(),
            );
            if out.results.iter().any(|&(id, d)| id == qid && d == 0.0) {
                found += 1;
            }
        }
        // The query IS an indexed record; CLIMBER's plan covers the node
        // the record was placed under whenever the primary group matches,
        // which is the overwhelming majority of self-queries.
        assert!(found >= 16, "only {found}/20 self-queries found themselves");
    }

    #[test]
    fn knn_returns_k_results_sorted() {
        let (skeleton, store, ds) = build_engine(Domain::Eeg, 300);
        let out = search(
            &skeleton,
            &store,
            &SearchRequest::new(ds.get(5), 25).exact(),
        );
        assert_eq!(out.results.len(), 25);
        for w in out.results.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn recall_beats_random_partition_guessing() {
        let (skeleton, store, ds) = build_engine(Domain::TexMex, 500);
        // k small relative to n: at 500 records the 20th "neighbour" is
        // already nearly random, so probe the regime the index is for.
        let k = 5;
        let mut total = 0.0;
        let mut scanned = 0u64;
        let queries = query_workload(&ds, 15, 2);
        for &qid in &queries {
            let out = search(
                &skeleton,
                &store,
                &SearchRequest::new(ds.get(qid), k).adaptive(4),
            );
            let exact = exact_knn(&ds, ds.get(qid), k);
            total += recall_of_results(&out.results, &exact);
            scanned += out.records_scanned;
        }
        let mean = total / queries.len() as f64;
        let frac = scanned as f64 / (queries.len() as f64 * 500.0);
        // Clustered SIFT-like data is CLIMBER's best case: recall must be
        // well above the fraction of data actually scanned.
        assert!(mean > 0.45, "mean recall {mean:.3} too low");
        assert!(
            mean > 1.5 * frac,
            "no locality lift: recall {mean:.3} vs scanned {frac:.3}"
        );
    }

    #[test]
    fn adaptive_recall_at_least_knn_recall_on_average() {
        let (skeleton, store, ds) = build_engine(Domain::RandomWalk, 500);
        let k = 120; // larger than most trie nodes → adaptive should help
        let queries = query_workload(&ds, 12, 3);
        let (mut r_knn, mut r_adp) = (0.0, 0.0);
        for &qid in &queries {
            let exact = exact_knn(&ds, ds.get(qid), k);
            r_knn += recall_of_results(
                &search(
                    &skeleton,
                    &store,
                    &SearchRequest::new(ds.get(qid), k).exact(),
                )
                .results,
                &exact,
            );
            r_adp += recall_of_results(
                &search(
                    &skeleton,
                    &store,
                    &SearchRequest::new(ds.get(qid), k).adaptive(4),
                )
                .results,
                &exact,
            );
        }
        assert!(
            r_adp >= r_knn - 1e-9,
            "adaptive {} worse than knn {}",
            r_adp,
            r_knn
        );
    }

    #[test]
    fn od_smallest_reads_most_and_recalls_most() {
        let (skeleton, store, ds) = build_engine(Domain::Dna, 400);
        let k = 50;
        let queries = query_workload(&ds, 10, 4);
        let (mut scan_knn, mut scan_ods) = (0u64, 0u64);
        let (mut rec_knn, mut rec_ods) = (0.0, 0.0);
        for &qid in &queries {
            let exact = exact_knn(&ds, ds.get(qid), k);
            let a = search(
                &skeleton,
                &store,
                &SearchRequest::new(ds.get(qid), k).exact(),
            );
            let b = search(
                &skeleton,
                &store,
                &SearchRequest::new(ds.get(qid), k).smallest(),
            );
            scan_knn += a.records_scanned;
            scan_ods += b.records_scanned;
            rec_knn += recall_of_results(&a.results, &exact);
            rec_ods += recall_of_results(&b.results, &exact);
        }
        assert!(
            scan_ods >= scan_knn,
            "OD-Smallest must scan at least as much"
        );
        assert!(
            rec_ods >= rec_knn - 1e-9,
            "OD-Smallest must recall at least as much"
        );
    }

    #[test]
    fn queries_are_deterministic() {
        let (skeleton, store, ds) = build_engine(Domain::Eeg, 200);
        let q = ds.get(9);
        assert_eq!(
            search(&skeleton, &store, &SearchRequest::new(q, 10).exact()),
            search(&skeleton, &store, &SearchRequest::new(q, 10).exact())
        );
        assert_eq!(
            search(&skeleton, &store, &SearchRequest::new(q, 50).adaptive(2)),
            search(&skeleton, &store, &SearchRequest::new(q, 50).adaptive(2))
        );
    }

    #[test]
    fn budget_caps_partitions_opened() {
        let (skeleton, store, ds) = build_engine(Domain::RandomWalk, 500);
        // find a query whose OD-Smallest plan spans several partitions
        let q = (0..50u64)
            .map(|i| ds.get(i * 7).to_vec())
            .find(|q| {
                search(
                    &skeleton,
                    &store,
                    &SearchRequest::new(q.clone(), 150).smallest(),
                )
                .plan
                .num_partitions()
                    > 1
            })
            .expect("some query must span several partitions");
        let capped = search(
            &skeleton,
            &store,
            &SearchRequest::new(q, 150).smallest().with_budget(1),
        );
        assert!(capped.partitions_opened <= 1);
        assert!(capped.plan.num_partitions() <= 1);
    }

    /// A budget of one keeps the plan's first partition: the first the
    /// primary node reads (for OD-Smallest, the primary group's root), on
    /// queries whose lowest-id planned partition is another one — for
    /// Adaptive-4X, some of them an expansion partition.
    #[test]
    fn a_budget_of_one_keeps_the_primary_nodes_partition() {
        let (skeleton, store, ds) = build_engine(Domain::RandomWalk, 500);
        for mode in [SearchMode::Adaptive(4), SearchMode::Smallest] {
            let (mut disagree, mut expansion) = (0, 0);
            for i in 0..ds.num_series() as u64 {
                let req = SearchRequest {
                    mode,
                    ..SearchRequest::new(ds.get(i), 150)
                };
                let full = search(&skeleton, &store, &req).plan;
                let node = match mode {
                    SearchMode::Smallest => 0,
                    _ => {
                        let sig = skeleton.extract_signature(&req.query);
                        select_primary(&skeleton, &sig, query_seed(&req.query)).node
                    }
                };
                let mut primary = Vec::new();
                for_each_node_read(&skeleton, full.primary_group, node, |pid, cluster, _| {
                    primary.push((pid, cluster));
                });
                let lowest = full.reads.iter().map(|(&pid, _)| pid).min().unwrap();
                if lowest == primary[0].0 {
                    continue;
                }
                disagree += 1;
                expansion += usize::from(primary.iter().all(|&(pid, _)| pid != lowest));
                let capped = search(&skeleton, &store, &req.with_budget(1)).plan;
                let kept: Vec<_> = capped.reads.iter().collect();
                let (&first, clusters) = full.reads.iter().next().unwrap();
                assert_eq!(kept, [(&first, clusters)], "{mode:?} query {i}");
                assert!(
                    clusters.iter().any(|&c| primary.contains(&(first, c))),
                    "{mode:?} query {i}: partition {first} holds no primary cluster"
                );
                assert_eq!(first, primary[0].0, "{mode:?} query {i}: plan order");
            }
            assert!(disagree > 0, "{mode:?}: rank and id order always agree");
            if mode != SearchMode::Smallest {
                assert!(
                    expansion > 0,
                    "{mode:?}: no expansion partition ranks first by id"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn search_rejects_zero_k() {
        let (skeleton, store, _) = build_engine(Domain::RandomWalk, 200);
        search(&skeleton, &store, &SearchRequest::new(vec![1.0f32], 0));
    }

    #[test]
    #[should_panic(expected = "budget must be positive")]
    fn search_rejects_a_zero_budget() {
        let (skeleton, store, ds) = build_engine(Domain::RandomWalk, 200);
        search(
            &skeleton,
            &store,
            &SearchRequest::new(ds.get(0), 5).with_budget(0),
        );
    }

    #[test]
    fn works_after_skeleton_roundtrip() {
        let (skeleton, store, ds) = build_engine(Domain::RandomWalk, 200);
        let restored = IndexSkeleton::from_bytes(&skeleton.to_bytes()).unwrap();
        let out = search(&restored, &store, &SearchRequest::new(ds.get(3), 5).exact());
        assert_eq!(out.results.len(), 5);
        assert_eq!(
            out,
            search(&skeleton, &store, &SearchRequest::new(ds.get(3), 5).exact())
        );
    }
}
