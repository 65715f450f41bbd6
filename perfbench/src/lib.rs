//! Host-time benchmark of the tf-darshan workspace.
//!
//! One command runs four workloads through the crates' public functions,
//! times set-up apart from the measured run, checks every virtual-time
//! output against recorded expectations, and prints end-to-end metrics
//! (untraced runs) or per-layer metrics (traced runs). See `README.md`
//! in this directory for the workloads, the metrics and which layer
//! metric should move which end-to-end metric.

#![forbid(unsafe_code)]

use std::sync::Arc;

use storage_sim::{Device, PageCache};

pub mod fleet;
pub mod guard;
pub mod interpose;
pub mod runner;
pub mod serve;
pub mod trace;
pub mod train;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// ImageNet/AlexNet on Lustre, 28 map threads, full tf-Darshan export.
    Imagenet,
    /// Malware CNN on HDD + Optane staging, checkpoints, iosan and dstat.
    Malware,
    /// 1024 ranks on 16 node carriers, tree reduction.
    Fleet,
    /// 64 tenants of session diffs over TCP, `/metrics` scraped.
    Serve,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::Imagenet,
        Workload::Malware,
        Workload::Fleet,
        Workload::Serve,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Imagenet => "imagenet_tfd28",
            Workload::Malware => "malware_ckpt_san",
            Workload::Fleet => "fleet1024",
            Workload::Serve => "serve_ingest64",
        }
    }

    /// Parse a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Work a sim workload's run left in its layers, read after the measured
/// phase. None is a virtual-time output; each repeats exactly from run to
/// run.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerCounts {
    /// `simrt`: carrier context switches.
    pub switches: u64,
    /// `simrt`: sleeps that kept their carrier.
    pub fast_advances: u64,
    /// `simrt`: event-task polls.
    pub event_polls: u64,
    /// `simrt`: run-calendar high-water mark.
    pub peak_heap_depth: u64,
    /// `probe`: events seen by `CountingSink`s on the buses (traced runs).
    pub probe_events: u64,
    /// `darshan`: POSIX + STDIO records in the stop snapshots.
    pub darshan_records: u64,
    /// `darshan`: DXT segments of the profiled windows.
    pub dxt_segments: u64,
    /// `storage`: page-cache hit bytes.
    pub cache_hit_bytes: u64,
    /// `storage`: page-cache miss bytes.
    pub cache_miss_bytes: u64,
    /// `storage`: bytes the block devices read and wrote.
    pub device_bytes: u64,
}

impl LayerCounts {
    /// Scheduler, page-cache and device counts of a finished simulation.
    pub fn of_run(sim: &simrt::Sim, cache: &PageCache, devices: &[Arc<Device>]) -> Self {
        let s = sim.stats();
        let (hit, miss, _) = cache.stats();
        LayerCounts {
            switches: s.switches,
            fast_advances: s.fast_advances,
            event_polls: s.event_polls,
            peak_heap_depth: s.peak_heap_depth as u64,
            cache_hit_bytes: hit,
            cache_miss_bytes: miss,
            device_bytes: devices
                .iter()
                .map(|d| {
                    let c = d.snapshot();
                    c.bytes_read + c.bytes_written
                })
                .sum(),
            ..LayerCounts::default()
        }
    }

    /// The counts as `(per-layer metric, value)` pairs.
    pub fn metrics(&self) -> [(&'static str, f64); 10] {
        [
            ("simrt.switches", self.switches as f64),
            ("simrt.fast_advances", self.fast_advances as f64),
            ("simrt.event_polls", self.event_polls as f64),
            ("simrt.peak_heap_depth", self.peak_heap_depth as f64),
            ("probe.events", self.probe_events as f64),
            ("darshan.records", self.darshan_records as f64),
            ("darshan.dxt_segments", self.dxt_segments as f64),
            ("storage.cache_hit_bytes", self.cache_hit_bytes as f64),
            ("storage.cache_miss_bytes", self.cache_miss_bytes as f64),
            ("storage.device_bytes", self.device_bytes as f64),
        ]
    }
}
