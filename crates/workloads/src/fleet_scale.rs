//! The fleet-scale workload: the rank dimension at cluster size.
//!
//! The paper's distributed experiments stop at `world_size == 4`; NoPFS
//! (PAPERS.md) is the reference for what distributed ML I/O looks like at
//! real scale — per-node hierarchies, not flat all-to-all. This workload
//! drives every fleet refactor end to end at world sizes up to 4096:
//!
//! * **Node carriers** — ranks are grouped onto nodes
//!   ([`FleetConfig::ranks_per_node`] each); one carrier thread per node
//!   drives its ranks' [`posix_sim::Process`]es through a read epoch
//!   against the node-local SSD, so a 4096-rank job costs 64 OS threads,
//!   not 4096. Every rank reads its node's shared index file — a
//!   64-way shared record, the case parallel Darshan's reduction exists
//!   for — and a **bounded** set of node leaders ([`MANIFEST_READERS`])
//!   read the job manifest off the Lustre scratch. Bounding the
//!   manifest fan-in is itself a fleet refactor: with *every* leader
//!   hitting the shared MDS (13 ms service, 4 threads — the busy
//!   production defaults), metadata queueing grows O(nodes) and eats
//!   the linear scaling this workload exists to prove. Window marks
//!   are collectives too: each carrier start/stop-snapshots its own
//!   rank span (`JobCtx::mark_{start,stop}_span`) so the per-rank
//!   snapshot cost parallelizes over nodes.
//! * **Sharded buses** — the [`JobCtx`] attaches every rank to its
//!   rank-group shard bus; per-shard dstat columns attribute traffic per
//!   node group. The job-wide bus is only materialized when the run is
//!   sanitized ([`FleetConfig::sanitize`]), exercising the lazy
//!   `JobCtx::job_bus` path.
//! * **Tree reduction** — the per-rank sessions are reduced by the
//!   log-depth `spawn_tree_reduce` event task on the same calendar; its
//!   modeled virtual cost (and the flat O(N) cost it replaces) land in
//!   the outcome for the scaling bench and the perf gate.
//!
//! [`run_fleet_scale`] runs one configuration; CI runs it as
//! `gate -- fleet` (256 ranks, sanitized) and judges it with [`verdict`].

use std::sync::Arc;
use std::time::Duration;

use dstat_sim::Dstat;
use iosan::{IoSanitizer, SanitizerReport};
use parking_lot::Mutex;
use posix_sim::OpenFlags;
use simrt::sync::Barrier;
use simrt::{SchedStats, Sim};
use storage_sim::{
    Device, DeviceSpec, FileSystem, LocalFs, LocalFsParams, LustreFs, LustreParams, PageCache,
    StorageStack,
};
use tfdarshan::job_tree::{spawn_tree_reduce, TreeReduceConfig, TreeReduceHandle, TreeReduceStats};
use tfdarshan::{JobCtx, JobReport, TfDarshanConfig};

use crate::gate::{Gate, Verdict};

/// Shared manifest on the Lustre scratch.
pub const MANIFEST: &str = "/scratch/fleet/manifest.bin";
/// Manifest size (index of the whole dataset).
pub const MANIFEST_BYTES: u64 = 64 << 10;
/// Node leaders that read [`MANIFEST`] off Lustre (the first
/// `min(nodes, MANIFEST_READERS)` nodes). Bounded so shared-MDS
/// metadata pressure stays constant as the fleet grows; the rest of a
/// real fleet would receive the manifest over the interconnect
/// (NoPFS-style) rather than re-fetch it.
pub const MANIFEST_READERS: usize = 4;
/// Per-node shared index (`/node{n}/shared/index`) read by every rank
/// of the node: the many-contributor shared record of the reduction.
pub const NODE_INDEX_BYTES: u64 = 64 << 10;

/// Path of node `n`'s shared index file.
pub fn node_index_path(n: usize) -> String {
    format!("/node{n}/shared/index")
}

/// Fleet run shape.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Total ranks.
    pub world_size: usize,
    /// Ranks driven by one node carrier (and served by one node-local
    /// SSD). The fleet's parallelism axis: nodes run concurrently in
    /// virtual time, ranks within a node serialize on its carrier.
    pub ranks_per_node: usize,
    /// Bytes each rank reads from its private file.
    pub rank_file_bytes: u64,
    /// Ranks per `JobCtx` probe-bus shard.
    pub shard_ranks: usize,
    /// Install the sanitizer on the job-wide bus (forces the lazy
    /// `job_bus` attach on every rank).
    pub sanitize: bool,
    /// Sample per-shard dstat columns during the run.
    pub dstat: bool,
}

impl FleetConfig {
    /// Defaults for `world_size` ranks: 64 ranks/node, 256 KiB per rank,
    /// 64-rank shards, unsanitized, with dstat columns.
    pub fn new(world_size: usize) -> Self {
        FleetConfig {
            world_size,
            ranks_per_node: 64,
            rank_file_bytes: 256 << 10,
            shard_ranks: 64,
            sanitize: false,
            dstat: true,
        }
    }
}

/// What a fleet run produced.
pub struct FleetOutcome {
    /// Ranks that ran.
    pub world_size: usize,
    /// Node carriers (OS threads) that drove them.
    pub nodes: usize,
    /// Bytes the job read (from the merged job report).
    pub bytes_read: u64,
    /// Virtual seconds of the profiled I/O window.
    pub io_virtual_secs: f64,
    /// Aggregate read bandwidth over the window, MiB per virtual second.
    pub aggregate_read_mib_s: f64,
    /// The tree reduction's cost model: levels, pairwise merges, modeled
    /// virtual time, and the flat-merge time it replaces.
    pub reduce: TreeReduceStats,
    /// The merged job report.
    pub report: JobReport,
    /// Scheduler counters of the run.
    pub stats: SchedStats,
    /// Peak resident set (`VmHWM`) of this process in KiB, off procfs.
    pub peak_rss_kib: Option<u64>,
    /// Per-shard dstat read-byte totals over the run (shard order), when
    /// [`FleetConfig::dstat`] was set.
    pub shard_read_totals: Vec<u64>,
    /// Sanitizer verdict over the job-wide bus, when sanitized.
    pub sanitizer: Option<SanitizerReport>,
}

/// A numeric field of `/proc/self/status` (a count such as `Threads`, or
/// a size in KiB such as `VmHWM`), or `None` off procfs.
pub fn proc_status(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let mut lines = status.lines();
    let value = lines.find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))?;
    value.trim().trim_end_matches("kB").trim().parse().ok()
}

/// Peak resident set size (`VmHWM:`) in KiB from `/proc/self/status`.
pub fn peak_rss_kib() -> Option<u64> {
    proc_status("VmHWM")
}

/// Build the fleet cluster: one node-local SSD mount per node
/// (`/node{i}`), plus the shared Lustre scratch, on one mount table.
fn fleet_stack(nodes: usize) -> (StorageStack, Vec<Arc<Device>>) {
    let stack = StorageStack::new();
    let cache = Arc::new(PageCache::new(8 << 30));
    let mut devices = Vec::with_capacity(nodes);
    for n in 0..nodes {
        let fs = LocalFs::new(
            Device::new(DeviceSpec::sata_ssd(&format!("nssd{n}"))),
            cache.clone(),
            LocalFsParams::default(),
        );
        devices.push(fs.device().clone());
        stack.mount(format!("/node{n}"), fs as Arc<dyn FileSystem>);
    }
    let lustre = LustreFs::new(LustreParams::default(), cache);
    stack.mount("/scratch", lustre as Arc<dyn FileSystem>);
    (stack, devices)
}

/// Run one fleet configuration to completion (I/O epoch, then the tree
/// reduction, on one calendar).
pub fn run_fleet_scale(cfg: &FleetConfig) -> FleetOutcome {
    assert!(cfg.world_size > 0 && cfg.ranks_per_node > 0);
    let nodes = cfg.world_size.div_ceil(cfg.ranks_per_node);
    let sim = Sim::new();
    let (stack, devices) = fleet_stack(nodes);

    for r in 0..cfg.world_size {
        let node = r / cfg.ranks_per_node;
        stack
            .create_synthetic(
                &format!("/node{node}/r{r}/data"),
                cfg.rank_file_bytes,
                r as u64,
            )
            .unwrap();
    }
    for n in 0..nodes {
        stack
            .create_synthetic(&node_index_path(n), NODE_INDEX_BYTES, 1000 + n as u64)
            .unwrap();
    }
    stack.create_synthetic(MANIFEST, MANIFEST_BYTES, 7).unwrap();

    let job = Arc::new(JobCtx::with_shard_ranks(
        &stack,
        cfg.world_size,
        &TfDarshanConfig::default(),
        cfg.shard_ranks,
    ));
    let san = cfg
        .sanitize
        .then(|| IoSanitizer::install(&sim, job.job_bus()));
    let dstat = cfg.dstat.then(|| {
        let d = Arc::new(Dstat::spawn(&sim, devices, Duration::from_millis(10)));
        for s in 0..job.shard_count() {
            d.attach_shard_spine(s as u32, job.shard_bus(s));
        }
        d
    });

    let barrier = Arc::new(Barrier::new(nodes));
    let reduce_slot: Arc<Mutex<Option<TreeReduceHandle>>> = Arc::new(Mutex::new(None));
    for n in 0..nodes {
        let job = job.clone();
        let barrier = barrier.clone();
        let sim2 = sim.clone();
        let reduce_slot = reduce_slot.clone();
        let dstat = dstat.clone();
        let cfg = cfg.clone();
        sim.spawn(format!("node{n}"), move || {
            let lo = n * cfg.ranks_per_node;
            let hi = ((n + 1) * cfg.ranks_per_node).min(cfg.world_size);
            // Window marks are collectives: every carrier snapshots its
            // own rank span, so the per-rank snapshot cost parallelizes
            // over nodes instead of serializing on one carrier (the
            // flat-job shape, which stretched the measured window by
            // O(world_size)).
            job.mark_start_span(lo, hi)
                .expect("tf-darshan attached on every rank");
            barrier.wait();

            // Bounded manifest fan-in: only the first MANIFEST_READERS
            // node leaders hit the shared Lustre MDS, so the job's
            // metadata pressure on the scratch stays constant with node
            // count — and the manifest still merges as a cross-node,
            // cross-shard shared record at the root of the tree.
            if n < MANIFEST_READERS {
                let p = job.rank(lo).process();
                let fd = p.open(MANIFEST, OpenFlags::rdonly()).unwrap();
                p.read(fd, MANIFEST_BYTES, None).unwrap();
                p.close(fd).unwrap();
            }
            // Every rank reads the node's shared index (a
            // ranks_per_node-way shared record served at memory speed
            // after the first rank faults it in) and then its private
            // file off the node-local SSD. Ranks serialize on their
            // carrier — per-node virtual time is what a real node's I/O
            // subsystem would take — while the nodes run concurrently.
            let index = node_index_path(n);
            for r in lo..hi {
                let p = job.rank(r).process();
                let fd = p.open(&index, OpenFlags::rdonly()).unwrap();
                p.read(fd, NODE_INDEX_BYTES, None).unwrap();
                p.close(fd).unwrap();
                let path = format!("/node{n}/r{r}/data");
                let fd = p.open(&path, OpenFlags::rdonly()).unwrap();
                p.read(fd, cfg.rank_file_bytes, None).unwrap();
                p.close(fd).unwrap();
            }

            barrier.wait();
            job.mark_stop_span(lo, hi);
            barrier.wait();
            if n == 0 {
                if let Some(d) = &dstat {
                    d.stop();
                }
                // Reduce on the same calendar: the log-depth event task
                // starts where the I/O window ended.
                let sessions: Vec<_> = job
                    .ranks()
                    .iter()
                    .map(|r| r.session().expect("window closed on every rank"))
                    .collect();
                *reduce_slot.lock() = Some(spawn_tree_reduce(
                    &sim2,
                    sessions,
                    cfg.world_size as u32,
                    TreeReduceConfig::default(),
                ));
            }
        });
    }
    sim.run();

    let handle = reduce_slot
        .lock()
        .take()
        .expect("node 0 spawned the reduce");
    let (report, reduce) = handle.take().expect("reduce ran to completion");
    let (w0, w1) = report.job.window;
    let io_virtual_secs = (w1 - w0).max(f64::EPSILON);
    let bytes_read = report.job.io.bytes_read;
    let shard_read_totals = dstat
        .map(|d| {
            let samples = d.samples();
            (0..job.shard_count() as u32)
                .map(|s| samples.iter().map(|smp| smp.shard_read(s)).sum())
                .collect()
        })
        .unwrap_or_default();

    FleetOutcome {
        world_size: cfg.world_size,
        nodes,
        bytes_read,
        io_virtual_secs,
        aggregate_read_mib_s: bytes_read as f64 / (1024.0 * 1024.0) / io_virtual_secs,
        reduce,
        report,
        stats: sim.stats(),
        peak_rss_kib: peak_rss_kib(),
        shard_read_totals,
        sanitizer: san.map(|s| s.finalize()),
    }
}

/// Judge a sanitized fleet run: a clean sanitizer, no missing rank, every
/// rank read its node's index and its own file, each shared file merged
/// into one job record, shard columns attributed the traffic, and the
/// tree reduction cheaper than the flat merge.
pub fn verdict(out: &FleetOutcome) -> Verdict {
    let (report, ws, read) = (&out.report, out.world_size, out.bytes_read);
    let (tree, flat) = (out.reduce.modeled, out.reduce.modeled_flat);
    let mut v = Verdict::new(Gate::Fleet);
    let nodes = out.nodes;
    v.summary
        .push(format!("{ws} ranks on {nodes} nodes read {read} bytes"));
    v.summary
        .push(format!("tree reduce {tree:?}, flat {flat:?}"));
    match &out.sanitizer {
        Some(san) => v.check(san.is_clean(), san.render_ascii()),
        None => v.check(false, "the run was not sanitized"),
    }
    let ranks = (report.world_size as usize, report.per_rank.len());
    v.check(ranks == (ws, ws), format!("{ranks:?} ranks reported"));
    let missing = &report.missing_ranks;
    v.check(missing.is_empty(), format!("missing ranks: {missing:?}"));
    // Every rank read its node's whole index plus its private file, and
    // the job total is the sum of the ranks'.
    let per_rank = report.per_rank.iter().map(|r| r.io.bytes_read);
    let short = per_rank.clone().filter(|&b| b <= NODE_INDEX_BYTES).count();
    v.check(short == 0, format!("{short} rank(s) read no private data"));
    let sum: u64 = per_rank.sum();
    v.check(read == sum, format!("ranks read {sum} bytes"));
    // The manifest and each node's index: one merged job record each.
    let shared = std::iter::once(MANIFEST.to_string());
    for path in shared.chain((0..nodes).map(node_index_path)) {
        let n = report.job.files.iter().filter(|f| f.path == path).count();
        v.check(n == 1, format!("{path} is {n} job records"));
    }
    let shards = &out.shard_read_totals;
    let attributed = !shards.is_empty() && shards.iter().all(|&b| b > 0);
    v.check(attributed, format!("shard read columns {shards:?}"));
    v.check(tree < flat, "the tree reduce costs more than a flat merge");
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_gate_is_clean_at_128_ranks() {
        // CI runs the gate at 256 ranks; keep the in-tree test a notch
        // smaller so `cargo test` stays quick.
        let mut out = run_fleet_scale(&FleetConfig {
            sanitize: true,
            ..FleetConfig::new(128)
        });
        let v = verdict(&out);
        assert!(v.passed(), "{}", v.render());
        assert_eq!(out.nodes, 2);
        // Private bytes + per-rank index reads + both leaders' manifest.
        assert!(out.bytes_read >= 128 * ((256 << 10) + NODE_INDEX_BYTES) + 2 * MANIFEST_BYTES);
        // Shard columns attributed the traffic (64 ranks/shard -> 2).
        assert_eq!(out.shard_read_totals.len(), 2);

        // The same run with a rank reported missing fails.
        out.report.missing_ranks.push(7);
        let v = verdict(&out);
        assert_eq!(v.failures, ["missing ranks: [7]"]);
    }

    #[test]
    fn nodes_scale_bandwidth_and_reduce_stays_logarithmic() {
        let run = |ws: usize| {
            let cfg = FleetConfig {
                dstat: false,
                ..FleetConfig::new(ws)
            };
            run_fleet_scale(&cfg)
        };
        let at64 = run(64);
        let at256 = run(256);
        // 4x the nodes: at least 2.8x the aggregate bandwidth (0.7x
        // linear — the shared manifest and barrier cost the difference).
        let linear = at64.aggregate_read_mib_s * 4.0;
        assert!(
            at256.aggregate_read_mib_s >= 0.7 * linear,
            "64 ranks: {:.1} MiB/s, 256 ranks: {:.1} MiB/s (linear would be {:.1})",
            at64.aggregate_read_mib_s,
            at256.aggregate_read_mib_s,
            linear
        );
        // Tree reduce grows by levels, not leaves.
        assert!(at256.reduce.levels <= at64.reduce.levels + 2);
        assert!(at256.reduce.modeled < at256.reduce.modeled_flat);
    }
}
