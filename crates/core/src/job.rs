//! Rank as a first-class dimension: per-rank tf-Darshan sessions and the
//! job-level reduction.
//!
//! The paper's §III forward-compatibility argument ("if TensorFlow employs
//! MPI as a distributed strategy … one can employ the parallel version of
//! Darshan with the MPI module with a similar technique"), implemented:
//!
//! * [`RankCtx`] — one rank's view: its [`Process`] (with its own probe
//!   bus) plus an attached tf-Darshan session whose DXT segments are
//!   stamped with the rank;
//! * [`JobCtx`] — owns N `RankCtx`s over one shared [`StorageStack`] (the
//!   cluster's parallel filesystem) plus rank-group **shard buses**
//!   ([`DEFAULT_SHARD_RANKS`] ranks each): every rank's probe events are
//!   mirrored onto its shard so wide jobs stop serializing on one spine;
//!   consumers that need the strict job-wide op-completion order (the
//!   sanitizer) get a lazily-attached job-wide bus via
//!   [`JobCtx::job_bus`], while per-rank consumers keep reading the
//!   rank's own bus;
//! * [`JobReport`] — per-rank reports plus the job-level merge
//!   ([`crate::job_tree`]), using parallel Darshan's shared-file
//!   reduction semantics: records of files touched by several ranks merge
//!   (counters sum, extrema min/max, first timestamps min-nonzero, last
//!   timestamps max), records of rank-private files pass through
//!   **unchanged** — which makes the `world_size == 1` job report
//!   byte-identical to the single-process path.

use std::sync::Arc;

use darshan_sim::DxtSegment;
use mpi_sim::MpiWorld;
use posix_sim::{GotError, Process};
use probe::ProbeBus;
use serde::{Deserialize, Serialize};
use simrt::{EventHandle, EventTask, Sim};
use storage_sim::StorageStack;

use crate::analysis::{analyze, diff, per_file, SnapshotDiff};
use crate::report::TfDarshanReport;
use crate::wrapper::{TfDarshanConfig, TfDarshanWrapper};

/// One rank's profiling context: the rank's process, its own probe bus
/// (reachable via [`RankCtx::probe`]), and an attached tf-Darshan session
/// whose DXT segments carry this rank's id.
pub struct RankCtx {
    rank: u32,
    process: Arc<Process>,
    wrapper: Arc<TfDarshanWrapper>,
}

impl RankCtx {
    /// Wrap `process` as rank `rank` and install tf-Darshan into it. The
    /// Darshan runtime is configured with the rank so every DXT segment it
    /// records is rank-tagged.
    pub fn new(rank: u32, process: Arc<Process>, mut config: TfDarshanConfig) -> Self {
        config.darshan.rank = rank;
        let wrapper = TfDarshanWrapper::install(process.clone(), config);
        RankCtx {
            rank,
            process,
            wrapper,
        }
    }

    /// This rank.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// The rank's process.
    pub fn process(&self) -> &Arc<Process> {
        &self.process
    }

    /// The rank's own probe bus (sees only this rank's events).
    pub fn probe(&self) -> &ProbeBus {
        self.process.probe()
    }

    /// The rank's tf-Darshan wrapper.
    pub fn wrapper(&self) -> &Arc<TfDarshanWrapper> {
        &self.wrapper
    }

    /// The rank's last completed session (diff + window DXT), or `None`
    /// if no start/stop pair exists yet.
    pub fn session(&self) -> Option<RankSession> {
        let (start, stop) = self.wrapper.session_snapshots()?;
        Some(RankSession {
            rank: self.rank,
            diff: diff(&start, &stop),
            dxt: self.wrapper.session_dxt(),
        })
    }
}

/// One rank's extracted session: the per-rank snapshot diff plus the
/// window's (rank-tagged) DXT segments. Input to the job reduction.
pub struct RankSession {
    /// The contributing rank.
    pub rank: u32,
    /// Per-file counter deltas of the rank's window.
    pub diff: SnapshotDiff,
    /// DXT segments of the rank's window.
    pub dxt: Vec<(u64, DxtSegment)>,
}

impl RankSession {
    /// This rank's own report — exactly what the single-process tracer
    /// produces from the same diff and DXT.
    pub fn report(&self) -> TfDarshanReport {
        let (io, stdio) = analyze(&self.diff, &self.dxt);
        TfDarshanReport {
            window: self.diff.window,
            io,
            stdio,
            files: per_file(&self.diff),
            sanitizer: None,
            scheduler: None,
            explore: None,
        }
    }
}

/// The job view: per-rank reports plus the job-level merge.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct JobReport {
    /// The job's true world size — **not** the number of sessions that
    /// contributed. A rank that failed to produce a session no longer
    /// silently shrinks the reported world; it shows up in
    /// [`JobReport::missing_ranks`] instead.
    pub world_size: u32,
    /// Ranks in `0..world_size` that contributed no session (crashed
    /// before `mark_stop`, never attached, …). Empty for a complete job.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub missing_ranks: Vec<u32>,
    /// The job-level report over the merged records and the concatenated
    /// rank-tagged DXT timeline.
    pub job: TfDarshanReport,
    /// Per-rank reports, in rank order.
    pub per_rank: Vec<TfDarshanReport>,
}

/// Default ranks per probe-bus shard: one shard per "node" of a typical
/// cluster generation, and small enough that a shard-local consumer sees
/// 1/16th of a 1k-rank job's traffic.
pub const DEFAULT_SHARD_RANKS: usize = 64;

/// N ranks over one shared storage stack, with rank-group **shard buses**
/// and an on-demand job-wide bus.
///
/// Every rank's process mirrors its events onto its shard's [`ProbeBus`]
/// (ranks `[k·shard_ranks, (k+1)·shard_ranks)` share shard `k`), so
/// shard-local consumers — per-node dstat attribution, serve's live
/// gauges — register on one shard and never see (or slow down) the other
/// shards' sink snapshots. Consumers that need the strict job-wide
/// op-completion order (the sanitizer's happens-before analysis) call
/// [`JobCtx::job_bus`], which lazily attaches one more shared spine to
/// every rank: a job that never asks for it — the fleet-scale default —
/// pays nothing for it.
pub struct JobCtx {
    stack: StorageStack,
    shard_ranks: usize,
    shards: Vec<ProbeBus>,
    job_bus: std::sync::OnceLock<ProbeBus>,
    ranks: Vec<RankCtx>,
}

impl JobCtx {
    /// Create `world_size` ranks, each with its own fresh [`Process`] over
    /// the shared `stack`, tf-Darshan installed per rank, and the rank's
    /// shard bus attached to its process ([`DEFAULT_SHARD_RANKS`] ranks
    /// per shard).
    pub fn new(stack: &StorageStack, world_size: usize, config: &TfDarshanConfig) -> Self {
        assert!(world_size > 0);
        let processes = (0..world_size)
            .map(|_| Process::new(stack.clone()))
            .collect();
        Self::from_processes(stack.clone(), processes, config, DEFAULT_SHARD_RANKS)
    }

    /// [`JobCtx::new`] with an explicit shard width (ranks per shard bus).
    pub fn with_shard_ranks(
        stack: &StorageStack,
        world_size: usize,
        config: &TfDarshanConfig,
        shard_ranks: usize,
    ) -> Self {
        assert!(world_size > 0);
        let processes = (0..world_size)
            .map(|_| Process::new(stack.clone()))
            .collect();
        Self::from_processes(stack.clone(), processes, config, shard_ranks)
    }

    /// Wrap an existing [`MpiWorld`]'s rank processes — the path a
    /// distributed training job takes: `mpi-sim` owns the ranks and the
    /// collectives; the job context adds per-rank tf-Darshan sessions and
    /// the shard buses on top.
    pub fn over_world(world: &MpiWorld, config: &TfDarshanConfig) -> Self {
        let processes: Vec<Arc<Process>> = (0..world.size()).map(|r| world.process(r)).collect();
        let stack = processes[0].stack().clone();
        Self::from_processes(stack, processes, config, DEFAULT_SHARD_RANKS)
    }

    fn from_processes(
        stack: StorageStack,
        processes: Vec<Arc<Process>>,
        config: &TfDarshanConfig,
        shard_ranks: usize,
    ) -> Self {
        assert!(shard_ranks > 0, "shards need at least one rank");
        let shard_count = processes.len().div_ceil(shard_ranks);
        let shards: Vec<ProbeBus> = (0..shard_count).map(|_| ProbeBus::new()).collect();
        let ranks = processes
            .into_iter()
            .enumerate()
            .map(|(r, p)| {
                p.attach_shared_spine(&shards[r / shard_ranks]);
                RankCtx::new(r as u32, p, config.clone())
            })
            .collect();
        JobCtx {
            stack,
            shard_ranks,
            shards,
            job_bus: std::sync::OnceLock::new(),
            ranks,
        }
    }

    /// Number of ranks.
    pub fn world_size(&self) -> usize {
        self.ranks.len()
    }

    /// A rank's context.
    pub fn rank(&self, rank: usize) -> &RankCtx {
        &self.ranks[rank]
    }

    /// All ranks, rank order.
    pub fn ranks(&self) -> &[RankCtx] {
        &self.ranks
    }

    /// Ranks per shard bus.
    pub fn shard_ranks(&self) -> usize {
        self.shard_ranks
    }

    /// Number of shard buses.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Shard bus `shard` (events of ranks `shard·shard_ranks ..`).
    pub fn shard_bus(&self, shard: usize) -> &ProbeBus {
        &self.shards[shard]
    }

    /// The shard a rank's events land on.
    pub fn shard_of_rank(&self, rank: u32) -> usize {
        rank as usize / self.shard_ranks
    }

    /// Register one order-insensitive sink on **every shard bus** — the
    /// merge stage for job-wide consumers that fold commutative counters
    /// (dstat gauges, serve's live op/byte counters). The sink sees every
    /// rank's events, each shard's stream in op-completion order, with no
    /// ordering defined *across* shards — consumers that need the strict
    /// job-wide order use [`JobCtx::job_bus`] instead. Returns one
    /// `(shard, sink id)` pair per shard for
    /// [`JobCtx::detach_shard_merge`].
    pub fn attach_shard_merge(
        &self,
        sink: Arc<dyn probe::ProbeSink>,
    ) -> Vec<(usize, probe::SinkId)> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, bus)| (i, bus.register(sink.clone())))
            .collect()
    }

    /// Unregister a sink attached with [`JobCtx::attach_shard_merge`].
    pub fn detach_shard_merge(&self, ids: &[(usize, probe::SinkId)]) {
        for (shard, id) in ids {
            self.shards[*shard].unregister(*id);
        }
    }

    /// The job-wide bus: all ranks' I/O events (and, via
    /// `probe::SyncBridge`, the job's sync events) in one
    /// op-completion-ordered stream. Job-wide consumers must read this one
    /// bus — cross-bus ordering is not defined.
    ///
    /// Created (and attached to every rank's process as an additional
    /// shared spine) on first call: ranks only pay the job-wide mirroring
    /// when something actually consumes it. Call before the events you
    /// care about are emitted — typically before `sim.run()`.
    pub fn job_bus(&self) -> &ProbeBus {
        self.job_bus.get_or_init(|| {
            let bus = ProbeBus::new();
            for r in &self.ranks {
                r.process.attach_shared_spine(&bus);
            }
            bus
        })
    }

    /// The shared storage stack (the parallel filesystem).
    pub fn stack(&self) -> &StorageStack {
        &self.stack
    }

    /// Begin a job-wide profiling window: every rank attaches (first time)
    /// and takes its start snapshot.
    ///
    /// Marking is charged in virtual time (`snapshot_cost_per_record` per
    /// dirty record, on the calling task), so one caller marking all N
    /// ranks serializes O(N) snapshot work on its carrier. Fleet-scale
    /// drivers that already have one task per rank group should mark
    /// concurrently via [`JobCtx::mark_start_span`] instead.
    pub fn mark_start(&self) -> Result<(), GotError> {
        self.mark_start_span(0, self.ranks.len())
    }

    /// End the job-wide window with per-rank stop snapshots. Same O(N)
    /// caveat as [`JobCtx::mark_start`]; see [`JobCtx::mark_stop_span`].
    pub fn mark_stop(&self) {
        self.mark_stop_span(0, self.ranks.len());
    }

    /// [`JobCtx::mark_start`] for the rank span `lo..hi` only — in real
    /// darshan the window marks are collectives where every rank snapshots
    /// *its own* state concurrently, and this is the simulated shape: each
    /// node carrier marks the ranks it drives, so the per-rank snapshot
    /// cost parallelizes over carriers instead of serializing on one.
    pub fn mark_start_span(&self, lo: usize, hi: usize) -> Result<(), GotError> {
        for r in &self.ranks[lo..hi] {
            r.wrapper.mark_start()?;
        }
        Ok(())
    }

    /// [`JobCtx::mark_stop`] for the rank span `lo..hi` only.
    pub fn mark_stop_span(&self, lo: usize, hi: usize) {
        for r in &self.ranks[lo..hi] {
            r.wrapper.mark_stop();
        }
    }

    /// Extract every rank's session and reduce to the job view with the
    /// log-depth tree reduction. `None` until a start/stop pair exists on
    /// every rank.
    pub fn collect(&self) -> Option<JobReport> {
        self.collect_partial()
            .filter(|report| report.missing_ranks.is_empty())
    }

    /// [`JobCtx::collect`] that tolerates missing ranks: reduces whatever
    /// sessions exist (`None` only when no rank has one) and surfaces the
    /// sessionless ranks in [`JobReport::missing_ranks`].
    pub fn collect_partial(&self) -> Option<JobReport> {
        let sessions: Vec<RankSession> = self.ranks.iter().filter_map(|r| r.session()).collect();
        if sessions.is_empty() {
            return None;
        }
        let (report, _) = crate::job_tree::reduce_job_sessions_tree(
            &sessions,
            self.ranks.len() as u32,
            &crate::job_tree::TreeReduceConfig::default(),
        );
        Some(report)
    }

    /// Spawn one *event task* per rank as the rank's driver — the scalable
    /// path for wide jobs: each rank costs a run-calendar entry instead of
    /// a parked OS thread, so a 1k-rank job needs a 1k-entry heap, not 1k
    /// stacks. `f` builds rank `r`'s state machine from its id and
    /// process; the machine is polled inline by the scheduler and must use
    /// the poll-flavored sync/collective APIs (blocking calls from a poll
    /// panic). Ranks that genuinely need blocking POSIX code keep using
    /// carrier threads via `sim.spawn` — the two flavors interleave on one
    /// calendar with identical virtual-time semantics.
    pub fn spawn_rank_events<M, F>(&self, sim: &Sim, f: F) -> Vec<EventHandle>
    where
        M: EventTask + 'static,
        F: Fn(u32, Arc<Process>) -> M,
    {
        self.ranks
            .iter()
            .map(|r| sim.spawn_event(format!("rank{}", r.rank), f(r.rank, r.process.clone())))
            .collect()
    }

    /// Detach the job-wide bus (if one was created) from every rank's
    /// process; the shard buses, per-rank buses and sessions stay live.
    pub fn detach_job_bus(&self) {
        if let Some(bus) = self.job_bus.get() {
            for r in &self.ranks {
                r.process.detach_spine(bus);
            }
        }
    }

    /// Detach every shared spine — shard buses and the job-wide bus — from
    /// every rank's process (the per-rank buses and sessions stay live).
    pub fn detach_all_spines(&self) {
        for r in &self.ranks {
            r.process.detach_shared_spine();
        }
    }
}
