//! The `fleet1024` workload: `workloads::fleet_scale` at 1024 ranks
//! (16 node carriers of 64 ranks, 64-rank bus shards, dstat off,
//! unsanitized), composed from the crates' public functions as
//! `run_fleet_scale` does it, so set-up and run are timed apart and the
//! window marks carry spans. `tests/fidelity.rs` proves the composition
//! gives `run_fleet_scale`'s virtual-time outputs.

use std::hint::black_box;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use parking_lot::Mutex;
use posix_sim::OpenFlags;
use probe::CountingSink;
use simrt::sync::Barrier;
use simrt::Sim;
use storage_sim::{
    Device, DeviceSpec, FileSystem, LocalFs, LocalFsParams, LustreFs, LustreParams, PageCache,
    StorageStack,
};
use tfdarshan::job_tree::{
    reduce_job_sessions_tree, spawn_tree_reduce, TreeReduceConfig, TreeReduceHandle,
};
use tfdarshan::{JobCtx, TfDarshanConfig};
use workloads::fleet_scale::NODE_INDEX_BYTES;
use workloads::fleet_scale::{node_index_path, MANIFEST, MANIFEST_BYTES, MANIFEST_READERS};
use workloads::{FleetConfig, FleetOutcome};

use crate::interpose;
use crate::trace::Trace;
use crate::LayerCounts;

/// The `fleet1024` configuration.
pub fn fleet1024() -> FleetConfig {
    FleetConfig {
        dstat: false,
        ..FleetConfig::new(1024)
    }
}

/// Host-side counts of one run that are not virtual-time outputs.
pub struct FleetCounts {
    /// POSIX calls the node carriers made (open, read, close).
    pub posix_calls: u64,
    /// Work left in each layer.
    pub layers: LayerCounts,
    /// Traced runs: the host-side tree reduction matched the event task's.
    pub shadow_reduce_matches: Option<bool>,
}

/// A fleet ready to run.
pub struct Prepared {
    cfg: FleetConfig,
    sim: Sim,
    stack: StorageStack,
    cache: Arc<PageCache>,
    job: Arc<JobCtx>,
    nodes: usize,
    reduce_slot: Arc<Mutex<Option<TreeReduceHandle>>>,
    counting: Vec<Arc<CountingSink>>,
}

/// One node-local SSD per node plus the shared Lustre scratch, as
/// `fleet_scale` mounts them.
fn fleet_stack(nodes: usize) -> (StorageStack, Arc<PageCache>) {
    let stack = StorageStack::new();
    let cache = Arc::new(PageCache::new(8 << 30));
    for n in 0..nodes {
        let fs = LocalFs::new(
            Device::new(DeviceSpec::sata_ssd(&format!("nssd{n}"))),
            cache.clone(),
            LocalFsParams::default(),
        );
        stack.mount(format!("/node{n}"), fs as Arc<dyn FileSystem>);
    }
    let lustre = LustreFs::new(LustreParams::default(), cache.clone());
    stack.mount("/scratch", lustre as Arc<dyn FileSystem>);
    (stack, cache)
}

/// Set-up: cluster, synthetic files, the job context (tf-Darshan
/// installed on every rank), and the node carriers spawned.
pub fn setup(cfg: &FleetConfig, trace: &Arc<Trace>) -> Prepared {
    assert!(
        !cfg.dstat && !cfg.sanitize,
        "fleet1024 runs without dstat and iosan"
    );
    let nodes = cfg.world_size.div_ceil(cfg.ranks_per_node);
    let sim = Sim::new();
    let (stack, cache) = trace.span("workloads.platform", || fleet_stack(nodes));
    trace.span("storage.synth_create", || {
        for r in 0..cfg.world_size {
            let node = r / cfg.ranks_per_node;
            stack
                .create_synthetic(
                    &format!("/node{node}/r{r}/data"),
                    cfg.rank_file_bytes,
                    r as u64,
                )
                .expect("fresh stack accepts rank files");
        }
        for n in 0..nodes {
            stack
                .create_synthetic(&node_index_path(n), NODE_INDEX_BYTES, 1000 + n as u64)
                .expect("fresh stack accepts node indexes");
        }
        stack
            .create_synthetic(MANIFEST, MANIFEST_BYTES, 7)
            .expect("fresh stack accepts the manifest");
    });
    let job = trace.span("tfdarshan.install", || {
        Arc::new(JobCtx::with_shard_ranks(
            &stack,
            cfg.world_size,
            &TfDarshanConfig::default(),
            cfg.shard_ranks,
        ))
    });
    let mut counting = Vec::new();
    if trace.is_on() {
        for r in job.ranks() {
            // Never removed: the fleet is discarded after its run.
            interpose::install(r.process(), trace);
        }
        for s in 0..job.shard_count() {
            let sink = Arc::new(CountingSink::new());
            job.shard_bus(s).register(sink.clone());
            counting.push(sink);
        }
    }

    let barrier = Arc::new(Barrier::new(nodes));
    let reduce_slot: Arc<Mutex<Option<TreeReduceHandle>>> = Arc::new(Mutex::new(None));
    for n in 0..nodes {
        let (job, barrier, sim2, slot) = (
            job.clone(),
            barrier.clone(),
            sim.clone(),
            reduce_slot.clone(),
        );
        let (cfg, trace) = (cfg.clone(), trace.clone());
        sim.spawn(format!("node{n}"), move || {
            let lo = n * cfg.ranks_per_node;
            let hi = ((n + 1) * cfg.ranks_per_node).min(cfg.world_size);
            trace
                .span("darshan.mark_span", || job.mark_start_span(lo, hi))
                .expect("tf-darshan attached on every rank");
            barrier.wait();
            if n < MANIFEST_READERS {
                let p = job.rank(lo).process();
                let fd = p
                    .open(MANIFEST, OpenFlags::rdonly())
                    .expect("manifest opens");
                p.read(fd, MANIFEST_BYTES, None).expect("manifest reads");
                p.close(fd).expect("manifest closes");
            }
            let index = node_index_path(n);
            for r in lo..hi {
                let p = job.rank(r).process();
                let fd = p.open(&index, OpenFlags::rdonly()).expect("index opens");
                p.read(fd, NODE_INDEX_BYTES, None).expect("index reads");
                p.close(fd).expect("index closes");
                let path = format!("/node{n}/r{r}/data");
                let fd = p.open(&path, OpenFlags::rdonly()).expect("rank file opens");
                p.read(fd, cfg.rank_file_bytes, None)
                    .expect("rank file reads");
                p.close(fd).expect("rank file closes");
            }
            barrier.wait();
            trace.span("darshan.mark_span", || job.mark_stop_span(lo, hi));
            barrier.wait();
            if n == 0 {
                let sessions: Vec<_> = job
                    .ranks()
                    .iter()
                    .map(|r| r.session().expect("window closed on every rank"))
                    .collect();
                *slot.lock() = Some(spawn_tree_reduce(
                    &sim2,
                    sessions,
                    cfg.world_size as u32,
                    TreeReduceConfig::default(),
                ));
            }
        });
    }
    Prepared {
        cfg: cfg.clone(),
        sim,
        stack,
        cache,
        job,
        nodes,
        reduce_slot,
        counting,
    }
}

/// A fleet after the measured phase, for reading its counts.
pub struct Finished {
    p: Prepared,
    report_json: String,
}

impl Finished {
    /// The run's host-side counts. Traced runs also time the job's tree
    /// reduction on the host: inside the run it executes as an event task,
    /// so it is re-run here over the same sessions (`job_tree.reduce`
    /// span) and checked to give the same report.
    pub fn counts(&self, trace: &Trace) -> FleetCounts {
        let p = &self.p;
        let mut layers = LayerCounts::of_run(&p.sim, &p.cache, &p.stack.devices());
        layers.probe_events = p
            .counting
            .iter()
            .map(|c| c.events.load(Ordering::Relaxed) as u64)
            .sum();
        for r in p.job.ranks() {
            if let Some((_, stop)) = r.wrapper().session_snapshots() {
                layers.darshan_records += (stop.posix.len() + stop.stdio.len()) as u64;
            }
            layers.dxt_segments += r.wrapper().session_dxt().len() as u64;
        }
        let shadow_reduce_matches = trace.is_on().then(|| {
            let sessions: Vec<_> = p
                .job
                .ranks()
                .iter()
                .map(|r| r.session().expect("window closed on every rank"))
                .collect();
            let (shadow, _) = trace.span("job_tree.reduce", || {
                reduce_job_sessions_tree(
                    &sessions,
                    p.cfg.world_size as u32,
                    &TreeReduceConfig::default(),
                )
            });
            serde_json::to_string(&shadow).expect("job report serializes") == self.report_json
        });
        FleetCounts {
            // Per rank: index open/read/close and data open/read/close;
            // per manifest reader: open/read/close.
            posix_calls: 6 * p.cfg.world_size as u64 + 3 * p.nodes.min(MANIFEST_READERS) as u64,
            layers,
            shadow_reduce_matches,
        }
    }
}

/// The measured phase: `Sim::run` (I/O epoch, window marks and the tree
/// reduction on one calendar), then the job report as JSON and ascii.
pub fn run(p: Prepared, trace: &Arc<Trace>) -> (FleetOutcome, Finished) {
    trace.span("simrt.run", || p.sim.run());
    let handle = p
        .reduce_slot
        .lock()
        .take()
        .expect("node 0 spawned the reduce");
    let (report, reduce) = handle.take().expect("reduce ran to completion");
    let report_json = trace.span("report.json", || {
        serde_json::to_string(&report).expect("job report serializes")
    });
    black_box(trace.span("report.ascii", || report.job.render_ascii()));
    let (w0, w1) = report.job.window;
    let io_virtual_secs = (w1 - w0).max(f64::EPSILON);
    let bytes_read = report.job.io.bytes_read;
    let out = FleetOutcome {
        world_size: p.cfg.world_size,
        nodes: p.nodes,
        bytes_read,
        io_virtual_secs,
        aggregate_read_mib_s: bytes_read as f64 / (1024.0 * 1024.0) / io_virtual_secs,
        reduce,
        report,
        stats: p.sim.stats(),
        peak_rss_kib: None,
        shard_read_totals: Vec::new(),
        sanitizer: None,
    };
    (out, Finished { p, report_json })
}
