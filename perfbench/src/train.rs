//! The two training workloads, `imagenet_tfd28` and `malware_ckpt_san`,
//! composed from the crates' public functions so that set-up and run are
//! timed apart and every call into a layer can carry a span.
//!
//! The composition is `workloads::run` for the configurations below,
//! step for step; `tests/fidelity.rs` proves the two give the same
//! virtual-time outputs.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dstat_sim::Dstat;
use iosan::{IoSanitizer, SanitizerHandle};
use parking_lot::Mutex;
use probe::CountingSink;
use tfdarshan::{
    DarshanTracerFactory, SchedStatsReport, StagingPlan, TfDarshanConfig, TfDarshanWrapper,
};
use tfsim::{
    fit, Callback, Dataset, Element, FitResult, MapFn, ModelCheckpoint, ModelSpec, Parallelism,
    PipelineCtx, TensorBoardCallback, TfRuntime, XSpace,
};
use workloads::dataset::{self, Scale};
use workloads::{models, mounts, platform, profiler_options, Machine, Profiling, RunConfig};
use workloads::{RunOutput, Workload};

use crate::interpose;
use crate::trace::Trace;
use crate::LayerCounts;

/// `imagenet_tfd28`: ImageNet/AlexNet on Kebnekaise (Lustre), 28 map
/// threads, tf-Darshan with full export over the whole run (paper
/// Fig. 7b), at scale 0.025.
pub fn imagenet_tfd28() -> (Workload, RunConfig) {
    let w = Workload::ImageNet;
    let mut cfg = RunConfig::paper(w, Scale::of(0.025));
    cfg.threads = Parallelism::Fixed(28);
    cfg.profiling = Profiling::TfDarshan { full_export: true };
    (w, cfg)
}

/// `malware_ckpt_san`: Malware CNN on Greendog, 16 map threads, files
/// under 2 MiB staged to Optane (§V.B), a checkpoint every 5 steps,
/// tf-Darshan with full export, iosan and dstat on, at scale 0.3.
pub fn malware_ckpt_san() -> (Workload, RunConfig) {
    let w = Workload::Malware;
    let mut cfg = RunConfig::paper(w, Scale::of(0.3));
    cfg.threads = Parallelism::Fixed(16);
    cfg.profiling = Profiling::TfDarshan { full_export: true };
    cfg.checkpoint_every = Some(5);
    cfg.stage_below = Some(2 << 20);
    cfg.dstat = true;
    cfg.sanitize = true;
    (w, cfg)
}

/// Host-side counts of one run that are not virtual-time outputs.
pub struct RunCounts {
    /// `tfsim::ops::read_file` calls made by the map stage.
    pub read_files: u64,
    /// Of those, calls that returned a POSIX error.
    pub read_errors: u64,
    /// Work left in each layer.
    pub layers: LayerCounts,
}

/// A machine ready to run: everything `workloads::run` does before
/// `Sim::run`.
pub struct Prepared {
    m: Machine,
    dataset: (usize, u64, u64),
    san: Option<SanitizerHandle>,
    tfd: Arc<DarshanTracerFactory>,
    dstat: Option<Dstat>,
    staged: Option<StagingPlan>,
    slots: Slots,
    read_files: Arc<AtomicU64>,
    read_errors: Arc<AtomicU64>,
    counting: Option<Arc<CountingSink>>,
    timed_libc: Option<interpose::Installed>,
}

#[derive(Clone, Default)]
struct Slots {
    fit: Arc<Mutex<FitResult>>,
    space: Arc<Mutex<Option<XSpace>>>,
    wall: Arc<Mutex<Duration>>,
    checkpoints: Arc<Mutex<usize>>,
}

fn model_for(w: Workload, batch: usize) -> ModelSpec {
    match w {
        Workload::ImageNet => models::alexnet(batch, 2),
        Workload::Malware => models::malware_cnn(batch),
        _ => unreachable!("only the training workloads are composed here"),
    }
}

fn checkpoint_prefix(w: Workload) -> &'static str {
    match w {
        Workload::ImageNet => "/scratch/ckpt/model",
        _ => "/data/ssd/ckpt/model",
    }
}

/// The map stage: `tf.io.read_file` then the workload's decode cost,
/// as `models::{imagenet,malware}_capture`, with the read timed and its
/// errors counted instead of swallowed.
fn capture(
    w: Workload,
    trace: &Arc<Trace>,
    files: &Arc<AtomicU64>,
    errors: &Arc<AtomicU64>,
) -> MapFn {
    let (op, cost): (&'static str, fn(u64) -> Duration) = match w {
        Workload::ImageNet => ("DecodeJpeg+Resize", models::imagenet_decode_cost),
        _ => ("DecodeBytesAsImage", models::malware_decode_cost),
    };
    let (trace, files, errors) = (trace.clone(), files.clone(), errors.clone());
    Arc::new(move |ctx: &PipelineCtx, index, path: &str| {
        files.fetch_add(1, Ordering::Relaxed);
        let bytes = trace
            .span("tfsim.read_file", || tfsim::ops::read_file(&ctx.rt, path))
            .unwrap_or_else(|_| {
                errors.fetch_add(1, Ordering::Relaxed);
                0
            });
        tfsim::ops::compute(&ctx.rt, op, cost(bytes));
        Element { index, bytes }
    })
}

/// `ModelCheckpoint` with each save timed as `tfsim.checkpoint`.
struct TimedCheckpoint {
    inner: ModelCheckpoint,
    trace: Arc<Trace>,
}

impl Callback for TimedCheckpoint {
    fn on_step_end(&mut self, rt: &Arc<TfRuntime>, step: usize) {
        let before = self.inner.saved;
        let t0 = Instant::now();
        self.inner.on_step_end(rt, step);
        if self.inner.saved > before {
            self.trace.record("tfsim.checkpoint", t0, Instant::now());
        }
    }
}

/// Forwards the TensorBoard callback's trace into the output slot at
/// train end.
struct SpaceForward {
    from: Arc<Mutex<Option<XSpace>>>,
    to: Arc<Mutex<Option<XSpace>>>,
}

impl Callback for SpaceForward {
    fn on_train_end(&mut self, _rt: &Arc<TfRuntime>) {
        if let Some(s) = self.from.lock().take() {
            *self.to.lock() = Some(s);
        }
    }
}

/// Set-up: machine, dataset, caches dropped, sanitizer, tf-Darshan,
/// staging plan, dstat, and the main training thread spawned.
pub fn setup(w: Workload, cfg: RunConfig, trace: &Arc<Trace>) -> Prepared {
    assert!(matches!(cfg.profiling, Profiling::TfDarshan { .. }));
    assert!(cfg.stage_largest_budget.is_none());
    let m = trace.span("workloads.platform", || match w {
        Workload::ImageNet => platform::kebnekaise(),
        _ => platform::greendog(),
    });
    let mut ds = trace.span("storage.synth_create", || match w {
        Workload::ImageNet => dataset::imagenet(&m.stack, mounts::LUSTRE, cfg.scale),
        _ => dataset::malware(&m.stack, mounts::HDD, cfg.scale),
    });
    let dataset_summary = (ds.len(), ds.total_bytes(), ds.median_size());
    m.drop_caches();

    let san = cfg
        .sanitize
        .then(|| IoSanitizer::install(&m.sim, m.process.probe()));
    let full_export = matches!(cfg.profiling, Profiling::TfDarshan { full_export: true });
    let tfd = trace.span("tfdarshan.install", || {
        let wrapper = TfDarshanWrapper::install(
            m.process.clone(),
            TfDarshanConfig {
                full_export,
                ..Default::default()
            },
        );
        DarshanTracerFactory::register(&m.rt, wrapper)
    });

    let staged = cfg.stage_below.map(|threshold| {
        let activity: Vec<tfdarshan::FileActivity> = ds
            .files
            .iter()
            .zip(&ds.sizes)
            .map(|(p, &s)| tfdarshan::FileActivity {
                path: p.clone(),
                reads: 0,
                bytes_read: 0,
                apparent_size: s,
                read_time: 0.0,
            })
            .collect();
        tfdarshan::plan_by_threshold(&activity, threshold)
    });
    if let Some(plan) = &staged {
        let mapping: Vec<(String, String)> = plan
            .files
            .iter()
            .map(|(p, _)| (p.clone(), p.replace(mounts::HDD, mounts::OPTANE)))
            .collect();
        ds.remap(&mapping);
    }

    let dstat = cfg.dstat.then(|| {
        let d = Dstat::spawn(&m.sim, m.devices(), Duration::from_secs(1));
        d.attach_spine(m.process.probe());
        d
    });

    // Traced runs only: time the POSIX layer under tf-Darshan and count
    // the events on the process bus.
    let timed_libc = trace.is_on().then(|| interpose::install(&m.process, trace));
    let counting = trace.is_on().then(|| {
        let sink = Arc::new(CountingSink::new());
        m.process.probe().register(sink.clone());
        sink
    });

    let slots = Slots::default();
    let read_files = Arc::new(AtomicU64::new(0));
    let read_errors = Arc::new(AtomicU64::new(0));
    spawn_main(
        w,
        &cfg,
        &m,
        ds.files.clone(),
        &staged,
        &dstat,
        &slots,
        capture(w, trace, &read_files, &read_errors),
        trace,
    );
    Prepared {
        m,
        dataset: dataset_summary,
        san,
        tfd,
        dstat,
        staged,
        slots,
        read_files,
        read_errors,
        counting,
        timed_libc,
    }
}

#[allow(clippy::too_many_arguments)]
fn spawn_main(
    w: Workload,
    cfg: &RunConfig,
    m: &Machine,
    files: Vec<String>,
    staged: &Option<StagingPlan>,
    dstat: &Option<Dstat>,
    slots: &Slots,
    map: MapFn,
    trace: &Arc<Trace>,
) {
    let rt = m.rt.clone();
    let stack = m.stack.clone();
    let cfg = cfg.clone();
    let plan = staged.clone();
    let slots = slots.clone();
    let dstat_stop = dstat.as_ref().map(|d| d.stop_event());
    let model = model_for(w, cfg.batch);
    let trace = trace.clone();
    m.sim.spawn("main", move || {
        // Phase 0 (untimed in virtual time): stage small files to Optane.
        if let Some(plan) = &plan {
            tfdarshan::apply_staging(&stack, plan, mounts::HDD, mounts::OPTANE)
                .expect("staging succeeds");
        }
        let pipeline = Dataset::from_files(files)
            .map(map, cfg.threads)
            .batch(cfg.batch)
            .prefetch(cfg.prefetch);
        let t0 = simrt::now();

        let mut tb = TensorBoardCallback::profile_batch(0, cfg.steps - 1);
        tb.options = profiler_options();
        let mut forward = SpaceForward {
            from: tb.space.clone(),
            to: slots.space.clone(),
        };
        let mut ckpt = cfg.checkpoint_every.map(|every| TimedCheckpoint {
            inner: ModelCheckpoint::new(&model, every, checkpoint_prefix(w)),
            trace,
        });
        // Checkpoint before TensorBoard so the final checkpoint lands in
        // the profiling window (Keras callback ordering).
        let mut cbs: Vec<&mut dyn Callback> = Vec::new();
        if let Some(c) = ckpt.as_mut() {
            cbs.push(c);
        }
        cbs.push(&mut tb);
        cbs.push(&mut forward);
        let r = fit(&rt, &model, &pipeline, cfg.steps, &mut cbs);
        if let Some(c) = ckpt {
            *slots.checkpoints.lock() = c.inner.saved;
        }
        *slots.fit.lock() = r;
        *slots.wall.lock() = simrt::now() - t0;
        if let Some(stop) = dstat_stop {
            // One more sample interval so dstat records the tail.
            simrt::sleep(Duration::from_millis(1_100));
            stop.set();
        }
    });
}

/// A run's machine after the measured phase, for reading its counts.
pub struct Finished {
    m: Machine,
    tfd: Arc<DarshanTracerFactory>,
    read_files: Arc<AtomicU64>,
    read_errors: Arc<AtomicU64>,
    counting: Option<Arc<CountingSink>>,
}

impl Finished {
    /// The run's host-side counts.
    pub fn counts(&self) -> RunCounts {
        let mut layers = LayerCounts::of_run(&self.m.sim, &self.m.cache, &self.m.devices());
        layers.probe_events = self
            .counting
            .as_ref()
            .map_or(0, |c| c.events.load(Ordering::Relaxed) as u64);
        if let Some((_, stop)) = self.tfd.wrapper().session_snapshots() {
            layers.darshan_records = (stop.posix.len() + stop.stdio.len()) as u64;
            layers.dxt_segments = stop.dxt_segments as u64;
        }
        RunCounts {
            read_files: self.read_files.load(Ordering::Relaxed),
            read_errors: self.read_errors.load(Ordering::Relaxed),
            layers,
        }
    }
}

/// The measured phase: `Sim::run`, report extraction, the sanitizer's
/// end-of-run audits, and rendering the report as JSON and ascii.
pub fn run(p: Prepared, trace: &Arc<Trace>) -> (RunOutput, Finished) {
    let Prepared {
        m,
        dataset,
        san,
        tfd,
        dstat,
        staged,
        slots,
        read_files,
        read_errors,
        counting,
        timed_libc,
    } = p;
    trace.span("simrt.run", || m.sim.run());
    let scheduler = SchedStatsReport::from(m.sim.stats());

    let fit = slots.fit.lock().clone();
    let wall = *slots.wall.lock();
    let space = slots.space.lock().take();
    let checkpoints = *slots.checkpoints.lock();
    let mut report = tfd.last_report();
    if let Some(rep) = report.as_mut() {
        rep.scheduler = Some(scheduler);
    }
    let sanitizer = san.map(|handle| {
        // Symtab balance: detach tf-Darshan, then the timing interposer
        // under it, and audit that every symbol is back to libc.
        if tfd.wrapper().is_attached() {
            tfd.wrapper().detach().expect("detach succeeds");
        }
        if let Some(installed) = timed_libc {
            interpose::remove(&m.process, installed);
        }
        handle
            .sanitizer()
            .note_patched_symbols(&m.process.got().patched_symbols());
        if let Some(rep) = &report {
            handle
                .sanitizer()
                .audit_app_fold(rep.io.bytes_read + rep.io.bytes_written);
        }
        let r = trace.span("iosan.finalize", || handle.finalize());
        if let Some(rep) = report.as_mut() {
            rep.sanitizer = Some(r.summary());
        }
        r
    });
    if let Some(rep) = &report {
        black_box(trace.span("report.json", || rep.to_json()));
        black_box(trace.span("report.ascii", || rep.render_ascii()));
    }

    let dstat_devices = dstat
        .as_ref()
        .map(|d| d.device_names().to_vec())
        .unwrap_or_default();
    let out = RunOutput {
        fit,
        wall,
        report,
        space,
        bandwidth_points: Vec::new(),
        dstat_samples: dstat.map(|d| d.samples()).unwrap_or_default(),
        dstat_devices,
        dataset,
        staged,
        checkpoints,
        sanitizer,
        scheduler,
    };
    let finished = Finished {
        m,
        tfd,
        read_files,
        read_errors,
        counting,
    };
    (out, finished)
}
