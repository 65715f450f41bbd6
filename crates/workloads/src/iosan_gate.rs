//! The sanitizer gate: every example workload re-run under `iosan`.
//!
//! Each entry is one representative configuration of the paper's
//! evaluation runs — the two trainings, the two STREAM benchmarks, plus
//! the checkpointing and staging variants — executed with
//! [`RunConfig::sanitize`] on. A healthy tree produces **zero findings**
//! on every entry; CI runs it as `gate -- iosan` and fails on any.
//!
//! The gate is intentionally scaled down (same shapes, smaller datasets)
//! so the whole suite stays in CI-friendly territory while still
//! exercising the map/prefetch thread pools, the profiler sessions, the
//! checkpoint STDIO path, the staging migration, and the dstat daemon.

use iosan::SanitizerReport;
use tfsim::Parallelism;

use crate::dataset::Scale;
use crate::experiments::{run, Profiling, RunConfig, Workload};
use crate::gate::{Gate, Verdict};

/// Result of sanitizing one entry.
pub struct GateResult {
    /// Entry name.
    pub name: &'static str,
    /// The full sanitizer report.
    pub report: SanitizerReport,
}

/// The example-workload configurations the gate covers, by name.
pub fn entries() -> Vec<(&'static str, Workload, RunConfig)> {
    // ImageNet/AlexNet training on Kebnekaise under the full profiler.
    let mut imagenet = RunConfig::paper(Workload::ImageNet, Scale::of(0.02));
    imagenet.threads = Parallelism::Fixed(2);
    imagenet.steps = imagenet.steps.min(10);
    imagenet.profiling = Profiling::TfDarshan { full_export: true };

    // Malware training on Greendog with checkpoints every other step
    // (exercises the STDIO spill path and its stdio-internal origins).
    let mut malware = RunConfig::paper(Workload::Malware, Scale::of(0.05));
    malware.steps = 10;
    malware.checkpoint_every = Some(2);
    malware.profiling = Profiling::TfDarshan { full_export: true };

    // STREAM over the ImageNet subset with manual profiling windows.
    let mut stream_in = RunConfig::paper(Workload::StreamImageNet, Scale::of(0.04));
    stream_in.threads = Parallelism::Fixed(16);
    stream_in.profiling = Profiling::ManualWindows { every_steps: 5 };

    // STREAM over the Malware subset with dstat sampling in the background
    // (exercises the daemon task alongside the pool).
    let mut stream_mw = RunConfig::paper(Workload::StreamMalware, Scale::of(0.05));
    stream_mw.threads = Parallelism::Fixed(16);
    stream_mw.profiling = Profiling::ManualWindows { every_steps: 5 };
    stream_mw.dstat = true;

    // §V.B staging: migrate small files to Optane before the measured
    // phase, then train over the remapped dataset.
    let mut staged = RunConfig::paper(Workload::Malware, Scale::of(0.03));
    staged.steps = 10;
    staged.stage_below = Some(2 << 20);

    vec![
        ("imagenet-training-profiled", Workload::ImageNet, imagenet),
        ("malware-training-checkpointed", Workload::Malware, malware),
        (
            "stream-imagenet-manual-windows",
            Workload::StreamImageNet,
            stream_in,
        ),
        ("stream-malware-dstat", Workload::StreamMalware, stream_mw),
        ("malware-staged-small-files", Workload::Malware, staged),
    ]
}

/// Run every entry under the sanitizer.
pub fn run_gate() -> Vec<GateResult> {
    entries()
        .into_iter()
        .map(|(name, workload, mut cfg)| {
            cfg.sanitize = true;
            let report = run(workload, cfg).sanitizer;
            GateResult {
                name,
                report: report.expect("sanitized run yields a report"),
            }
        })
        .collect()
}

/// Judge the gate: every entry sanitized clean over a run that actually
/// reached the sanitizer.
pub fn verdict(results: &[GateResult]) -> Verdict {
    let mut v = Verdict::new(Gate::Iosan);
    v.check(!results.is_empty(), "no entries ran");
    for GateResult { name, report } in results {
        let (events, findings) = (report.events_analyzed, report.findings.len());
        v.summary
            .push(format!("{name}: {events} events, {findings} findings"));
        v.check(
            report.is_clean(),
            format!("{name}: {}", report.render_ascii()),
        );
        v.check(events > 1000, format!("{name}: only {events} events"));
    }
    v
}
