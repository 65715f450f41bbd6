//! Job-level reduction: parallel Darshan's shared-file reduction at
//! `MPI_Finalize`, as a log-depth k-ary tree.
//!
//! Each leaf is one rank's session; each inner node merges the partially
//! reduced record groups of its children with the one record-merge
//! operator, [`darshan_sim::reduce::Fold`] (counters sum, byte extrema
//! max, first timestamps min-nonzero, last timestamps max, the
//! order-sensitive cumulative times and access slots deferred and replayed
//! in rank order), and only the root materializes the final records. The
//! result does not depend on the tree shape, so a flat left fold is just a
//! one-level tree with `arity >= world size` (proptested against a flat
//! oracle in `tests/proptests_extensions.rs`). A lone session is a tree
//! with no combine level: its records, names, window and DXT order pass
//! through untouched, which keeps the `world_size == 1` job report
//! byte-identical to the single-process one.
//!
//! Two execution shapes step the same tree:
//!
//! * [`reduce_job_sessions_tree`] — host-side, fanning each tree level
//!   across OS threads (`std::thread::scope`), for callers that want the
//!   answer now;
//! * [`spawn_tree_reduce`] — a simrt *event task* that performs one tree
//!   level per poll and charges the level's modeled parallel cost
//!   (`max` over its combines, not their sum) as virtual time, so a
//!   simulated job's reduce wall time grows ~O(log N) while a flat fold's
//!   would grow O(N). The fleet bench gates on exactly this ratio.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use darshan_sim::reduce::FoldMap;
use darshan_sim::{DxtSegment, PosixRecord, StdioRecord};
use parking_lot::Mutex;
use simrt::{EventCx, EventHandle, EventPoll, Sim};

use crate::analysis::{analyze, per_file, SnapshotDiff};
use crate::job::{JobReport, RankSession};
use crate::report::TfDarshanReport;

/// Modeled virtual cost of one pairwise record-group merge (a few dozen
/// counter adds/maxes — the granule the tree parallelizes).
const MERGE_NS: u64 = 150;
/// Modeled per-combine overhead: one exchange between reduction peers
/// (matches the default [`mpi_sim::NetworkModel`] latency).
const COMBINE_BASE_NS: u64 = 2_000;

/// Shape of the reduction tree.
#[derive(Clone, Copy, Debug)]
pub struct TreeReduceConfig {
    /// Children per inner node (≥ 2). 2 is the classic binary reduction;
    /// wider trees trade depth for per-node work.
    pub arity: usize,
}

impl Default for TreeReduceConfig {
    fn default() -> Self {
        TreeReduceConfig { arity: 2 }
    }
}

/// What the tree did, and what it would cost on a simulated cluster.
#[derive(Clone, Debug, Default)]
pub struct TreeReduceStats {
    /// Leaves (contributing sessions).
    pub leaves: usize,
    /// Tree depth (combine levels; 0 for a single session).
    pub levels: u32,
    /// Pairwise group merges performed across the whole tree.
    pub pair_merges: u64,
    /// Modeled parallel reduce time: per level, the *slowest* combine
    /// (they run concurrently); levels sum. Grows ~O(log N). Zero for a
    /// single session, which has nothing to reduce.
    pub modeled: Duration,
    /// Modeled cost of a flat left fold over the same sessions (every
    /// merge serial). Grows O(N); the fleet bench reports both.
    pub modeled_flat: Duration,
}

/// One partially reduced subtree: per-rec-id folds plus the associative
/// session metadata (names first-wins in rank order, window min/max,
/// partial OR, DXT kept merge-sorted by completion time).
struct ReduceNode {
    posix: FoldMap<PosixRecord>,
    stdio: FoldMap<StdioRecord>,
    names: Arc<HashMap<u64, String>>,
    window: (f64, f64),
    partial: bool,
    dxt: Vec<(u64, DxtSegment)>,
}

fn dxt_key(e: &(u64, DxtSegment)) -> (f64, f64, u32) {
    (e.1.end, e.1.start, e.1.rank)
}

fn dxt_cmp(a: &(u64, DxtSegment), b: &(u64, DxtSegment)) -> std::cmp::Ordering {
    let (ae, as_, ar) = dxt_key(a);
    let (be, bs, br) = dxt_key(b);
    ae.total_cmp(&be).then(as_.total_cmp(&bs)).then(ar.cmp(&br))
}

impl ReduceNode {
    /// Leaf over one rank's session. When the leaf will be combined
    /// (`sort_dxt`), its DXT run is stable-sorted so inner nodes can merge
    /// sorted runs; ties keep session order, so the root holds the stable
    /// sort of the rank-ordered concatenation. A lone session keeps its
    /// own DXT order.
    fn leaf(s: &RankSession, sort_dxt: bool) -> ReduceNode {
        let mut dxt = s.dxt.clone();
        if sort_dxt {
            dxt.sort_by(dxt_cmp);
        }
        ReduceNode {
            posix: s.diff.posix.iter().cloned().collect(),
            stdio: s.diff.stdio.iter().cloned().collect(),
            names: s.diff.names.clone(),
            window: s.diff.window,
            partial: s.diff.partial,
            dxt,
        }
    }

    /// Records in this node (the leaf/combine work proxy for the cost
    /// model).
    fn weight(&self) -> u64 {
        (self.posix.len() + self.stdio.len()) as u64
    }

    /// Merge `right` (covering higher-ranked sessions) into `self`.
    /// Returns the number of pairwise group merges performed — the
    /// combine's modeled work.
    fn absorb(&mut self, right: ReduceNode) -> u64 {
        let merges = self.posix.absorb(right.posix) + self.stdio.absorb(right.stdio);
        let names = Arc::make_mut(&mut self.names);
        for (id, name) in right.names.iter() {
            names.entry(*id).or_insert_with(|| name.clone());
        }
        self.window.0 = self.window.0.min(right.window.0);
        self.window.1 = self.window.1.max(right.window.1);
        self.partial |= right.partial;
        // Merge the sorted DXT runs, left-first on ties: pairwise this is
        // a stable mergesort of the session-ordered concatenation.
        let left_dxt = std::mem::take(&mut self.dxt);
        self.dxt = merge_dxt(left_dxt, right.dxt);
        merges
    }
}

fn merge_dxt(
    left: Vec<(u64, DxtSegment)>,
    right: Vec<(u64, DxtSegment)>,
) -> Vec<(u64, DxtSegment)> {
    let mut out = Vec::with_capacity(left.len() + right.len());
    let mut right = right.into_iter().peekable();
    for l in left {
        while let Some(r) = right.next_if(|r| dxt_cmp(r, &l) == std::cmp::Ordering::Less) {
            out.push(r);
        }
        out.push(l);
    }
    out.extend(right);
    out
}

/// Split `items` into consecutive runs of `n` (the last may be shorter).
fn chunks<T>(items: Vec<T>, n: usize) -> Vec<Vec<T>> {
    let mut it = items.into_iter().peekable();
    let mut out = Vec::new();
    while it.peek().is_some() {
        out.push(it.by_ref().take(n).collect());
    }
    out
}

/// One tree level: fold `arity`-sized groups of adjacent nodes, left to
/// right, fanning the combines across OS threads when `parallel`. Returns
/// the next level plus this level's modeled parallel cost (`max` over
/// combines) and its total pairwise merges.
fn run_level(
    nodes: Vec<ReduceNode>,
    arity: usize,
    parallel: bool,
) -> (Vec<ReduceNode>, Duration, u64) {
    let fold_group = |group: Vec<ReduceNode>| -> (ReduceNode, u64) {
        let mut it = group.into_iter();
        let mut acc = it.next().expect("non-empty group");
        let merges = it.map(|right| acc.absorb(right)).sum();
        (acc, merges)
    };
    let groups = chunks(nodes, arity);
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8);
    let results: Vec<(ReduceNode, u64)> = if parallel && threads > 1 && groups.len() >= 4 {
        // Contiguous batches, one OS thread each — the combines are
        // independent, so the output is bit-identical to the serial walk.
        let per = groups.len().div_ceil(threads);
        let batches = chunks(groups, per);
        std::thread::scope(|scope| {
            let handles: Vec<_> = batches
                .into_iter()
                .map(|batch| {
                    scope.spawn(move || batch.into_iter().map(fold_group).collect::<Vec<_>>())
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("tree-reduce worker panicked"))
                .collect()
        })
    } else {
        groups.into_iter().map(fold_group).collect()
    };

    let mut level_merges = 0u64;
    let mut slowest = 0u64;
    for (_, m) in &results {
        level_merges += m;
        slowest = slowest.max(*m);
    }
    let cost = Duration::from_nanos(COMBINE_BASE_NS + MERGE_NS * slowest);
    let next = results.into_iter().map(|(n, _)| n).collect();
    (next, cost, level_merges)
}

/// A reduction in progress: the current tree level and the stats so far.
/// Both entries drive it the same way — build the leaves, step levels
/// until one node is left, finish the root — so the leaf cost, the level
/// cost and the flat-fold cost are each modeled here once.
struct Tree {
    nodes: Vec<ReduceNode>,
    stats: TreeReduceStats,
}

impl Tree {
    /// Build one leaf per session. Returns the tree and the leaf cost to
    /// charge — the heaviest leaf, since every rank builds its own leaf
    /// concurrently — or `None` for a lone session, which has nothing to
    /// reduce and costs nothing.
    fn new(sessions: &[RankSession]) -> (Tree, Option<Duration>) {
        let lone = sessions.len() == 1;
        let nodes: Vec<ReduceNode> = sessions
            .iter()
            .map(|s| ReduceNode::leaf(s, !lone))
            .collect();
        let mut stats = TreeReduceStats {
            leaves: nodes.len(),
            ..TreeReduceStats::default()
        };
        if lone {
            return (Tree { nodes, stats }, None);
        }
        let heaviest = nodes.iter().map(ReduceNode::weight).max().unwrap_or(0);
        let flat_weight: u64 = nodes.iter().map(ReduceNode::weight).sum();
        let cost = Duration::from_nanos(COMBINE_BASE_NS + MERGE_NS * heaviest);
        stats.modeled = cost;
        stats.modeled_flat =
            Duration::from_nanos(COMBINE_BASE_NS * nodes.len() as u64 + MERGE_NS * flat_weight);
        (Tree { nodes, stats }, Some(cost))
    }

    /// Combine one level. Returns its modeled cost, or `None` once only
    /// the root is left.
    fn step(&mut self, arity: usize, parallel: bool) -> Option<Duration> {
        if self.nodes.len() <= 1 {
            return None;
        }
        let (next, cost, merges) = run_level(std::mem::take(&mut self.nodes), arity, parallel);
        self.nodes = next;
        self.stats.levels += 1;
        self.stats.pair_merges += merges;
        self.stats.modeled += cost;
        Some(cost)
    }

    /// Materialize the root into the job report: finished records in
    /// rec-id order, `analyze`/`per_file` over the merged diff.
    fn finish(mut self, sessions: &[RankSession], world_size: u32) -> (JobReport, TreeReduceStats) {
        let root = self.nodes.pop().expect("root");
        let job_diff = SnapshotDiff {
            window: root.window,
            posix: root.posix.finish(),
            stdio: root.stdio.finish(),
            names: root.names,
            partial: root.partial,
        };
        let (io, stdio) = analyze(&job_diff, &root.dxt);
        let job = TfDarshanReport {
            window: job_diff.window,
            io,
            stdio,
            files: per_file(&job_diff),
            sanitizer: None,
            scheduler: None,
            explore: None,
        };
        let have: std::collections::HashSet<u32> = sessions.iter().map(|s| s.rank).collect();
        let report = JobReport {
            world_size,
            missing_ranks: (0..world_size).filter(|r| !have.contains(r)).collect(),
            job,
            per_rank: sessions.iter().map(|s| s.report()).collect(),
        };
        (report, self.stats)
    }
}

/// Reject input no tree can reduce, at the call site.
fn check_input(sessions: &[RankSession], config: &TreeReduceConfig) {
    assert!(
        !sessions.is_empty(),
        "job reduction needs at least one rank"
    );
    assert!(config.arity >= 2, "reduction tree needs arity >= 2");
}

/// Reduce per-rank sessions with a log-depth k-ary tree, each level's
/// combines fanned across OS threads. The result does not depend on
/// `config.arity` (proptested); a single session passes through
/// untouched, preserving the `world_size == 1` byte-identity invariant.
/// `world_size` is the job's true size — sessions may be fewer (the
/// report lists the missing ranks).
///
/// # Panics
///
/// If `sessions` is empty or `config.arity < 2`.
pub fn reduce_job_sessions_tree(
    sessions: &[RankSession],
    world_size: u32,
    config: &TreeReduceConfig,
) -> (JobReport, TreeReduceStats) {
    check_input(sessions, config);
    let (mut tree, _) = Tree::new(sessions);
    while tree.step(config.arity, true).is_some() {}
    tree.finish(sessions, world_size)
}

/// Handle to an in-flight [`spawn_tree_reduce`] event task; the outcome
/// appears after the simulation has run the task to completion.
pub struct TreeReduceHandle {
    slot: Arc<Mutex<Option<(JobReport, TreeReduceStats)>>>,
    handle: EventHandle,
}

impl TreeReduceHandle {
    /// The finished report and stats, once the task completed.
    pub fn take(&self) -> Option<(JobReport, TreeReduceStats)> {
        self.slot.lock().take()
    }

    /// The underlying event-task handle.
    pub fn event_handle(&self) -> &EventHandle {
        &self.handle
    }
}

/// Run the tree reduction as a simrt event task: one tree level per poll,
/// each level charging its modeled *parallel* cost (the slowest combine of
/// the level — combines of one level are independent and run concurrently
/// on a real cluster) as virtual time. A 1k-rank reduce is then ~10 level
/// charges on the calendar instead of 1k serial merges — the fleet bench's
/// reduce-time curve measures exactly this task. A single session finishes
/// on the first poll and charges nothing.
///
/// # Panics
///
/// Here, not inside a later poll, if `sessions` is empty or
/// `config.arity < 2`.
pub fn spawn_tree_reduce(
    sim: &Sim,
    sessions: Vec<RankSession>,
    world_size: u32,
    config: TreeReduceConfig,
) -> TreeReduceHandle {
    check_input(&sessions, &config);
    let slot: Arc<Mutex<Option<(JobReport, TreeReduceStats)>>> = Arc::new(Mutex::new(None));
    let out = slot.clone();
    let mut tree: Option<Tree> = None;
    let handle = sim.spawn_event("tree-reduce", move |_cx: &mut EventCx| {
        // Event-task polls run inline on the scheduler, so the host work
        // stays serial here while the *virtual* charge models each
        // level's combines running concurrently.
        let charge = match tree.as_mut() {
            Some(t) => t.step(config.arity, false),
            None => {
                let (t, leaf_cost) = Tree::new(&sessions);
                tree = Some(t);
                leaf_cost
            }
        };
        match charge {
            Some(cost) => EventPoll::Sleep(cost),
            None => {
                let t = tree.take().expect("leaves are built on the first poll");
                *out.lock() = Some(t.finish(&sessions, world_size));
                EventPoll::Done
            }
        }
    });
    TreeReduceHandle { slot, handle }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session(rank: u32) -> RankSession {
        let mut rec = PosixRecord::new(7);
        *rec.get_mut(darshan_sim::PosixCounter::POSIX_READS) = 3;
        let seg = |start: f64, end: f64| DxtSegment {
            op: darshan_sim::DxtOp::Read,
            offset: 0,
            length: 4096,
            start,
            end,
            rank,
        };
        RankSession {
            rank,
            diff: SnapshotDiff {
                window: (0.0, 1.0),
                posix: vec![rec],
                stdio: Vec::new(),
                names: Arc::new(HashMap::from([(7, "/data/a".to_string())])),
                partial: false,
            },
            // Deliberately not in completion order.
            dxt: vec![(7, seg(0.5, 0.9)), (7, seg(0.1, 0.2))],
        }
    }

    fn dxt_ends(node: &ReduceNode) -> Vec<f64> {
        node.dxt.iter().map(|(_, seg)| seg.end).collect()
    }

    #[test]
    fn only_leaves_that_get_combined_sort_their_dxt() {
        let (lone, _) = Tree::new(&[session(0)]);
        assert_eq!(dxt_ends(&lone.nodes[0]), [0.9, 0.2]);
        let (pair, _) = Tree::new(&[session(0), session(1)]);
        assert_eq!(dxt_ends(&pair.nodes[0]), [0.2, 0.9]);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn spawn_tree_reduce_rejects_no_sessions_at_the_call() {
        let sim = Sim::new();
        spawn_tree_reduce(&sim, Vec::new(), 4, TreeReduceConfig::default());
    }

    #[test]
    fn lone_session_event_task_finishes_on_the_first_poll_for_free() {
        let sim = Sim::new();
        let single = session(0).report();
        let handle = spawn_tree_reduce(&sim, vec![session(0)], 1, TreeReduceConfig::default());
        sim.run();
        assert_eq!(sim.now(), simrt::SimTime::ZERO);
        let (report, stats) = handle.take().expect("finished");
        assert_eq!((stats.leaves, stats.levels, stats.pair_merges), (1, 0, 0));
        assert_eq!(stats.modeled, Duration::ZERO);
        assert_eq!(stats.modeled_flat, Duration::ZERO);
        assert_eq!(report.job.to_json(), single.to_json());
    }

    #[test]
    fn event_task_and_host_entry_agree() {
        let sessions = || (0..5).map(session).collect::<Vec<_>>();
        let (host, host_stats) =
            reduce_job_sessions_tree(&sessions(), 6, &TreeReduceConfig::default());
        let sim = Sim::new();
        let handle = spawn_tree_reduce(&sim, sessions(), 6, TreeReduceConfig::default());
        sim.run();
        let (event, event_stats) = handle.take().expect("finished");
        assert_eq!(
            serde_json::to_string(&host).unwrap(),
            serde_json::to_string(&event).unwrap()
        );
        assert_eq!(host.missing_ranks, vec![5]);
        assert_eq!(host_stats.modeled, event_stats.modeled);
        assert_eq!(sim.now().as_nanos() as u128, event_stats.modeled.as_nanos());
    }
}
