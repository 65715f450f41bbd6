//! # workloads — the paper's evaluation workloads and experiment drivers
//!
//! Simulated platforms ([`platform`]: Greendog workstation, Kebnekaise
//! cluster node), synthetic datasets matched to Table II ([`dataset`]),
//! model/preprocessing cost models ([`models`]), and the experiment
//! drivers that benches, examples, and integration tests share
//! ([`experiments`]). The CI gates run through one harness ([`gate`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod distributed_ablation;
pub mod distributed_gate;
pub mod experiments;
pub mod explore_gate;
pub mod fleet_scale;
pub mod gate;
pub mod iosan_gate;
pub mod lmdb;
pub mod models;
pub mod platform;
pub mod prefetch_ablation;
pub mod sched_scale;
pub mod serve_gate;

pub use dataset::{GeneratedDataset, Scale};
pub use distributed_ablation::{DistMode, DistributedAblationConfig, DistributedRun};
pub use distributed_gate::{run_distributed_gate, DistributedGateOutcome};
pub use experiments::{profiler_options, run, Profiling, RunConfig, RunOutput, Workload};
pub use fleet_scale::{run_fleet_scale, FleetConfig, FleetOutcome};
pub use gate::{Gate, Verdict};
pub use platform::{greendog, kebnekaise, mounts, Machine};
pub use prefetch_ablation::{AblationConfig, AblationRun, StagingMode};
pub use sched_scale::{os_threads, run_sched_scale, SchedScaleOutcome};
pub use serve_gate::{run_serve_gate, ServeGateOutcome};
