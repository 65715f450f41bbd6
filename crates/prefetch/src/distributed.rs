//! Rank-aware staging: one daemon per MPI rank, heat fused by allreduce,
//! one job-wide budget.
//!
//! The single-process [`crate::PrefetchDaemon`] run once per rank over a
//! shared fast tier has two failure modes (the ROADMAP's distributed
//! open item):
//!
//! 1. **Budget races** — N daemons each holding a local `budget/N` check
//!    the *global* staged-byte gauge, so a rank whose files are hot cannot
//!    use the headroom a rank with cold files leaves unused;
//! 2. **Duplicate staging** — ranks reading overlapping shards race to
//!    stage the same file.
//!
//! [`DistributedPrefetch`] fixes both with three invariants:
//!
//! * **Fused heat**: each rank's `HeatSink`-style heat vector is summed
//!   element-wise across ranks by an [`mpi_sim::SumAllreduce`] every
//!   fusion epoch, so every daemon ranks candidates by *job-wide* heat;
//! * **Ownership**: every file is owned by exactly one rank (stable hash
//!   of the path mod world size) — only the owner stages or evicts it;
//! * **One job budget**: a single `budget_bytes` is partitioned each epoch
//!   proportionally to the fused heat of each rank's owned files (equal
//!   split until heat exists), so hot ranks get the headroom cold ranks
//!   don't need, and the per-rank shares always sum to the job budget.
//!
//! Shutdown uses the collective's tolerant membership: a stopping daemon
//! `leave()`s the allreduce, which completes any round its peers are
//! blocked in — stopping ranks at different virtual times cannot deadlock
//! the simulation.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mpi_sim::{MpiWorld, SumAllreduce};
use parking_lot::Mutex;
use posix_sim::Process;
use probe::{EventKind, IoEvent, Origin, ProbeSink, SinkId};
use simrt::sync::Notify;
use storage_sim::FsError;

use crate::{fast_path, promote_timed, PrefetchConfig, PrefetchStats};

/// Distributed daemon configuration.
#[derive(Clone, Debug)]
pub struct DistributedConfig {
    /// Tier prefixes, watermarks, file-size cap and the **job-wide**
    /// `budget_bytes` (not per rank). The `policy`/`seed`/`tick` fields of
    /// the base config are ignored — the distributed daemon is reactive
    /// and paced by `fuse_interval`.
    pub base: PrefetchConfig,
    /// Virtual-time period between heat fusions (allreduce rounds).
    pub fuse_interval: Duration,
}

impl DistributedConfig {
    /// Defaults over the given tiers and job budget.
    pub fn new(src_prefix: &str, fast_prefix: &str, job_budget_bytes: u64) -> Self {
        DistributedConfig {
            base: PrefetchConfig::new(
                crate::Policy::Reactive,
                src_prefix,
                fast_prefix,
                job_budget_bytes,
            ),
            fuse_interval: Duration::from_millis(50),
        }
    }
}

/// Stable owner of `path` among `world_size` ranks (FNV-1a 64).
pub fn owner_rank(path: &str, world_size: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in path.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % world_size as u64) as usize
}

/// Per-rank daemon state shared between its sink, its thread and the
/// handle.
struct RankShared {
    /// Cumulative open count per file under `src_prefix` (this rank only).
    heat: Mutex<HashMap<String, u64>>,
    /// This rank's staged ledger: files it owns and has promoted, with
    /// their byte sizes. The global `staged_bytes()` gauge cannot bound a
    /// per-rank share — each daemon bounds its own ledger.
    ledger: Mutex<HashMap<String, u64>>,
    notify: Notify,
    promoted_files: AtomicU64,
    promoted_bytes: AtomicU64,
    evicted_files: AtomicU64,
    evicted_bytes: AtomicU64,
    observed_opens: AtomicU64,
    passes: AtomicU64,
    failed_promotions: AtomicU64,
    /// Fusion rounds this daemon completed.
    fusions: AtomicU64,
    /// Byte share of the job budget after the last fusion.
    last_share: AtomicU64,
}

impl RankShared {
    fn new() -> Arc<Self> {
        Arc::new(RankShared {
            heat: Mutex::new(HashMap::new()),
            ledger: Mutex::new(HashMap::new()),
            notify: Notify::new(),
            promoted_files: AtomicU64::new(0),
            promoted_bytes: AtomicU64::new(0),
            evicted_files: AtomicU64::new(0),
            evicted_bytes: AtomicU64::new(0),
            observed_opens: AtomicU64::new(0),
            passes: AtomicU64::new(0),
            failed_promotions: AtomicU64::new(0),
            fusions: AtomicU64::new(0),
            last_share: AtomicU64::new(0),
        })
    }

    fn stats(&self) -> PrefetchStats {
        PrefetchStats {
            promoted_files: self.promoted_files.load(Ordering::Relaxed),
            promoted_bytes: self.promoted_bytes.load(Ordering::Relaxed),
            evicted_files: self.evicted_files.load(Ordering::Relaxed),
            evicted_bytes: self.evicted_bytes.load(Ordering::Relaxed),
            observed_opens: self.observed_opens.load(Ordering::Relaxed),
            passes: self.passes.load(Ordering::Relaxed),
            failed_promotions: self.failed_promotions.load(Ordering::Relaxed),
        }
    }
}

/// The rank sink: folds this rank's application opens under the watched
/// prefix into the rank's heat vector. Spine contract: never blocks.
struct RankHeatSink {
    shared: Arc<RankShared>,
    src_prefix: String,
}

impl ProbeSink for RankHeatSink {
    fn on_events(&self, events: &[IoEvent]) {
        let mut poked = false;
        for ev in events {
            if ev.origin != Origin::App {
                continue;
            }
            if !matches!(ev.kind, EventKind::Open { .. }) {
                continue;
            }
            // Opens are rare; resolve the interned target only here.
            let resolved = ev.target.resolve();
            if !resolved.starts_with(self.src_prefix.as_str()) {
                continue;
            }
            self.shared.observed_opens.fetch_add(1, Ordering::Relaxed);
            *self
                .shared
                .heat
                .lock()
                .entry(resolved.to_string())
                .or_insert(0) += 1;
            poked = true;
        }
        if poked {
            self.shared.notify.notify_one();
        }
    }
}

/// Handle to the job's rank daemons.
pub struct DistributedPrefetch {
    stop: Arc<AtomicBool>,
    fused: SumAllreduce,
    ranks: Vec<RankHandle>,
}

struct RankHandle {
    shared: Arc<RankShared>,
    process: Arc<Process>,
    sink_id: SinkId,
    unregistered: AtomicBool,
}

impl DistributedPrefetch {
    /// Spawn one daemon per rank of `world`. Each daemon registers a heat
    /// sink on its rank's own probe bus, and all daemons share one
    /// [`SumAllreduce`] (over the world's network model) plus the single
    /// job-wide budget in `config.base.budget_bytes`.
    pub fn spawn(
        sim: &simrt::Sim,
        world: &MpiWorld,
        config: DistributedConfig,
    ) -> Arc<DistributedPrefetch> {
        let n = world.size();
        let stop = Arc::new(AtomicBool::new(false));
        let fused = SumAllreduce::new(world.net().clone(), n);
        let mut ranks = Vec::with_capacity(n);
        for rank in 0..n {
            let process = world.process(rank);
            let shared = RankShared::new();
            let sink = Arc::new(RankHeatSink {
                shared: shared.clone(),
                src_prefix: config.base.src_prefix.clone(),
            });
            let sink_id = process.probe().register(sink);
            ranks.push(RankHandle {
                shared: shared.clone(),
                process: process.clone(),
                sink_id,
                unregistered: AtomicBool::new(false),
            });
            let cfg = config.clone();
            let stop = stop.clone();
            let all = fused.clone();
            sim.spawn(format!("dprefetchd{rank}"), move || {
                rank_daemon_main(process, cfg, rank, n, all, stop, shared);
            });
        }
        Arc::new(DistributedPrefetch { stop, fused, ranks })
    }

    /// Stop every rank daemon and detach their sinks. Idempotent; safe
    /// from host or sim threads. Daemons blocked in a fusion round finish
    /// it (leavers complete pending rounds), then exit.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        for r in &self.ranks {
            r.shared.notify.notify_one();
            if !r.unregistered.swap(true, Ordering::SeqCst) {
                r.process.probe().unregister(r.sink_id);
            }
        }
    }

    /// One rank's counters.
    pub fn rank_stats(&self, rank: usize) -> PrefetchStats {
        self.ranks[rank].shared.stats()
    }

    /// Job-wide counters (sum over ranks).
    pub fn job_stats(&self) -> PrefetchStats {
        let mut total = PrefetchStats::default();
        for r in &self.ranks {
            let s = r.shared.stats();
            total.promoted_files += s.promoted_files;
            total.promoted_bytes += s.promoted_bytes;
            total.evicted_files += s.evicted_files;
            total.evicted_bytes += s.evicted_bytes;
            total.observed_opens += s.observed_opens;
            total.passes += s.passes;
            total.failed_promotions += s.failed_promotions;
        }
        total
    }

    /// One rank's budget share (bytes) after its last fusion round.
    pub fn rank_share(&self, rank: usize) -> u64 {
        self.ranks[rank].shared.last_share.load(Ordering::Relaxed)
    }

    /// Fusion rounds completed by rank 0 (all ranks fuse in lock-step).
    pub fn fusion_rounds(&self) -> u64 {
        self.ranks[0].shared.fusions.load(Ordering::Relaxed)
    }

    /// Daemons that have not left the heat collective yet.
    pub fn live_daemons(&self) -> usize {
        self.fused.live()
    }
}

impl Drop for DistributedPrefetch {
    fn drop(&mut self) {
        self.stop();
    }
}

/// This rank's budget share under fused heat: proportional to the fused
/// heat of the files it owns, equal split while no heat exists. Shares
/// never sum to more than the job budget.
fn budget_share(
    fused: &HashMap<String, u64>,
    rank: usize,
    world_size: usize,
    job_budget: u64,
) -> u64 {
    let mut total: u128 = 0;
    let mut owned: u128 = 0;
    for (path, heat) in fused {
        total += u128::from(*heat);
        if owner_rank(path, world_size) == rank {
            owned += u128::from(*heat);
        }
    }
    (u128::from(job_budget) * owned)
        .checked_div(total)
        .map_or(job_budget / world_size as u64, |v| v as u64)
}

/// One staging pass over this rank's owned files, bounded by its fused
/// budget share — computed here and returned for the stats gauge.
fn rank_step(
    process: &Arc<Process>,
    cfg: &PrefetchConfig,
    rank: usize,
    world_size: usize,
    fused: &HashMap<String, u64>,
    stop: &AtomicBool,
    shared: &RankShared,
) -> u64 {
    let share = budget_share(fused, rank, world_size, cfg.budget_bytes);
    shared.passes.fetch_add(1, Ordering::Relaxed);
    let stack = process.stack().clone();
    let high = (cfg.high_watermark * share as f64) as u64;
    let low = (cfg.low_watermark * share as f64) as u64;

    // Owned candidates, hottest first (ties broken by path for
    // determinism across runs).
    let mut owned: Vec<(&String, u64)> = fused
        .iter()
        .filter(|(p, _)| {
            p.starts_with(cfg.src_prefix.as_str()) && owner_rank(p, world_size) == rank
        })
        .map(|(p, h)| (p, *h))
        .collect();
    owned.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));

    // A shrunk share (heat moved to other ranks) evicts this rank's
    // coldest staged files down to the low watermark.
    let ledger_bytes = |shared: &RankShared| -> u64 { shared.ledger.lock().values().sum() };
    if ledger_bytes(shared) > high {
        let mut staged: Vec<(String, u64, u64)> = shared
            .ledger
            .lock()
            .iter()
            .map(|(p, b)| (p.clone(), *b, fused.get(p).copied().unwrap_or(0)))
            .collect();
        // Coldest first; ties broken by path, as for `owned` above.
        staged.sort_by(|a, b| a.2.cmp(&b.2).then_with(|| a.0.cmp(&b.0)));
        for (path, _, _) in staged {
            if ledger_bytes(shared) <= low {
                break;
            }
            if let Ok(freed) = stack.evict(&path) {
                shared.ledger.lock().remove(&path);
                shared.evicted_files.fetch_add(1, Ordering::Relaxed);
                shared.evicted_bytes.fetch_add(freed, Ordering::Relaxed);
            } else {
                shared.ledger.lock().remove(&path); // evicted elsewhere
            }
        }
    }

    for (path, _) in owned {
        if stop.load(Ordering::SeqCst) {
            return share;
        }
        if stack.is_staged(path) {
            continue;
        }
        let Some(dst) = fast_path(cfg, path) else {
            continue;
        };
        let Ok(fs) = stack.resolve(path) else {
            continue;
        };
        let Ok((size, _)) = fs.content_info(path) else {
            continue; // raced an unlink
        };
        if size > cfg.max_file_bytes {
            continue;
        }
        if ledger_bytes(shared) + size > high {
            break; // hottest-first order: nothing colder is worth a swap
        }
        match promote_timed(process, path, &dst) {
            Ok(bytes) => {
                shared.ledger.lock().insert(path.clone(), bytes);
                shared.promoted_files.fetch_add(1, Ordering::Relaxed);
                shared.promoted_bytes.fetch_add(bytes, Ordering::Relaxed);
            }
            Err(FsError::Exists) => {}
            Err(_) => {
                shared.failed_promotions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    share
}

fn rank_daemon_main(
    process: Arc<Process>,
    cfg: DistributedConfig,
    rank: usize,
    world_size: usize,
    all: SumAllreduce,
    stop: Arc<AtomicBool>,
    shared: Arc<RankShared>,
) {
    loop {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        // Fuse: contribute this rank's cumulative heat, get the job's.
        let local = shared.heat.lock().clone();
        let fused = all.allreduce(&local);
        shared.fusions.fetch_add(1, Ordering::Relaxed);
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let share = rank_step(
            &process, &cfg.base, rank, world_size, &fused, &stop, &shared,
        );
        shared.last_share.store(share, Ordering::Relaxed);
        if stop.load(Ordering::SeqCst) {
            break;
        }
        shared.notify.wait_timeout(cfg.fuse_interval);
    }
    all.leave();
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_sim::NetworkModel;
    use posix_sim::OpenFlags;
    use storage_sim::{
        Device, DeviceSpec, FileSystem, LocalFs, LocalFsParams, PageCache, StorageStack,
    };

    fn tiers() -> StorageStack {
        let cache = Arc::new(PageCache::new(1 << 30));
        let hdd = LocalFs::new(
            Device::new(DeviceSpec::hdd("hdd0")),
            cache.clone(),
            LocalFsParams::default(),
        );
        let optane = LocalFs::new(
            Device::new(DeviceSpec::optane("nvme0")),
            cache,
            LocalFsParams::default(),
        );
        let stack = StorageStack::new();
        stack.mount("/hdd", hdd as Arc<dyn FileSystem>);
        stack.mount("/fast", optane as Arc<dyn FileSystem>);
        stack
    }

    #[test]
    fn ownership_partitions_files() {
        let mut per_rank = [0usize; 4];
        for i in 0..1000 {
            per_rank[owner_rank(&format!("/hdd/f{i}"), 4)] += 1;
        }
        assert_eq!(per_rank.iter().sum::<usize>(), 1000);
        for (r, n) in per_rank.iter().enumerate() {
            assert!(*n > 150, "rank {r} owns a fair share, got {n}");
        }
        // Stable: same path, same owner.
        assert_eq!(owner_rank("/hdd/f7", 4), owner_rank("/hdd/f7", 4));
    }

    #[test]
    fn budget_shares_follow_heat_and_sum_to_budget() {
        let mut fused = HashMap::new();
        // All heat on rank-owned subsets.
        for i in 0..100u64 {
            fused.insert(format!("/hdd/f{i}"), 1 + i % 5);
        }
        let budget = 1_000_000u64;
        let shares: Vec<u64> = (0..4).map(|r| budget_share(&fused, r, 4, budget)).collect();
        assert!(shares.iter().sum::<u64>() <= budget);
        assert!(shares.iter().all(|s| *s > 0), "every owner gets heat share");
        // No heat → equal split.
        let empty = HashMap::new();
        assert_eq!(budget_share(&empty, 2, 4, budget), budget / 4);
    }

    #[test]
    fn daemons_stage_owned_hot_files_within_job_budget() {
        let stack = tiers();
        let files: Vec<String> = (0..24)
            .map(|i| {
                let p = format!("/hdd/f{i}");
                stack.create_synthetic(&p, 10_000, i).unwrap();
                p
            })
            .collect();
        let sim = simrt::Sim::new();
        let world = MpiWorld::new(&stack, 4, NetworkModel::default());
        // Budget fits ~12 of 24 files at the 0.9 watermark.
        let cfg = DistributedConfig {
            fuse_interval: Duration::from_millis(5),
            ..DistributedConfig::new("/hdd", "/fast", 135_000)
        };
        let daemon = DistributedPrefetch::spawn(&sim, &world, cfg);
        let d2 = daemon.clone();
        world.spawn_ranks(&sim, move |comm| {
            // Rank r reads its shard (round-robin) twice.
            let process = comm.process();
            for _epoch in 0..2 {
                for (i, f) in files.iter().enumerate() {
                    if i % comm.size() != comm.rank() {
                        continue;
                    }
                    let fd = process.open(f, OpenFlags::rdonly()).unwrap();
                    process.read(fd, 10_000, None).unwrap();
                    process.close(fd).unwrap();
                }
                simrt::sleep(Duration::from_millis(60));
            }
            if comm.rank() == 0 {
                simrt::sleep(Duration::from_millis(100));
                d2.stop();
            }
        });
        sim.run();
        let stats = daemon.job_stats();
        assert!(stats.observed_opens >= 24, "sinks saw all ranks' opens");
        assert!(stats.promoted_files >= 8, "staged: {stats:?}");
        assert!(
            stack.staged_bytes() <= (135_000f64 * 0.9) as u64,
            "job budget respected: {}",
            stack.staged_bytes()
        );
        assert!(daemon.fusion_rounds() >= 1);
        assert_eq!(daemon.live_daemons(), 0, "all daemons left cleanly");
        // No duplicate staging: every promotion lands a distinct staged
        // file, minus what share rebalancing evicted along the way.
        assert_eq!(
            stats.promoted_files - stats.evicted_files,
            stack.staged_files() as u64
        );
    }

    #[test]
    fn shrunk_share_evicts_equal_heat_files_in_path_order() {
        // Ten staged files, 100 kB in all, against a 100 kB share: the
        // 90 kB high watermark trips and eviction frees down to the 70 kB
        // low one — three files. The eight cold files tie on heat, so
        // only the path tie-break decides which three go, whatever order
        // the ledger's HashMap iterates in.
        for _ in 0..5 {
            let stack = tiers();
            let shared = RankShared::new();
            let mut fused = HashMap::new();
            let names = ["hot0", "hot1"]
                .into_iter()
                .map(|n| (n.to_string(), 9))
                .chain((0..8).map(|i| (format!("c{i}"), 1)));
            for (i, (name, heat)) in names.enumerate() {
                let path = format!("/hdd/{name}");
                stack.create_synthetic(&path, 10_000, i as u64).unwrap();
                fused.insert(path, heat);
            }
            let process = Process::new(stack.clone());
            let cfg = DistributedConfig::new("/hdd", "/fast", 100_000).base;
            let sim = simrt::Sim::new();
            let (fused2, shared2) = (fused.clone(), shared.clone());
            sim.spawn("dprefetchd0", move || {
                for path in fused2.keys() {
                    let dst = fast_path(&cfg, path).unwrap();
                    let bytes = process.stack().promote_untimed(path, &dst).unwrap();
                    shared2.ledger.lock().insert(path.clone(), bytes);
                }
                // Stop before the promotion pass: only eviction runs.
                let stop = AtomicBool::new(true);
                let share = rank_step(&process, &cfg, 0, 1, &fused2, &stop, &shared2);
                assert_eq!(share, 100_000);
            });
            sim.run();
            assert_eq!(shared.evicted_files.load(Ordering::Relaxed), 3);
            let mut evicted: Vec<&String> = fused.keys().filter(|p| !stack.is_staged(p)).collect();
            evicted.sort();
            assert_eq!(evicted, ["/hdd/c0", "/hdd/c1", "/hdd/c2"]);
        }
    }

    #[test]
    fn stop_with_daemons_mid_round_does_not_deadlock() {
        let stack = tiers();
        stack.create_synthetic("/hdd/x", 1000, 1).unwrap();
        let sim = simrt::Sim::new();
        let world = MpiWorld::new(&stack, 3, NetworkModel::default());
        let cfg = DistributedConfig {
            fuse_interval: Duration::from_millis(5),
            ..DistributedConfig::new("/hdd", "/fast", 1 << 20)
        };
        let daemon = DistributedPrefetch::spawn(&sim, &world, cfg);
        let d2 = daemon.clone();
        sim.spawn("stopper", move || {
            simrt::sleep(Duration::from_millis(17));
            d2.stop();
        });
        sim.run(); // must terminate
        assert_eq!(daemon.live_daemons(), 0);
    }
}
