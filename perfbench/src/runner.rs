//! Runs one workload for a fixed time and turns its iterations into the
//! benchmark's metrics.
//!
//! An *iteration* is one set-up plus one measured run. Iterations repeat
//! until `--seconds` is spent (at least [`MIN_ITERATIONS`]); end-to-end
//! timings are medians over them. With `--trace 1` iterations alternate
//! traced and untraced, starting traced: per-layer metrics come from the
//! traced ones, and the difference between the two medians of `run_s` is
//! printed as the tracing overhead.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::guard::{self, Fields};
use crate::serve::ServeRun;
use crate::trace::{median, quantile, CpuTimer, Trace};
use crate::{fleet, serve, train, Workload};

/// Fewest iterations a run makes, whatever `--seconds` says.
pub const MIN_ITERATIONS: usize = 3;

/// End-to-end metrics: `(name, unit)`.
///
/// `run_cpu_s` is the CPU time (user + system, all threads) of the
/// measured phase. Its wall time, `run_s`, is printed beside it but not
/// gated: on a small shared machine the carriers' handovers wait on CPU
/// wake-ups that other tenants' load stretches, so wall medians of the
/// oversubscribed workloads drift far more from run to run than CPU time.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("run_cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics: `(name, unit)`. Each is named after the crate (or
/// core module) whose calls it times or whose work it counts; `us` and
/// `ms` timings are host wall time per call, including any wait for a
/// simulated carrier's handover.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("simrt.switches", "count"),
    ("simrt.fast_advances", "count"),
    ("simrt.event_polls", "count"),
    ("simrt.peak_heap_depth", "count"),
    ("simrt.run_s", "s"),
    ("simrt.host_us_per_switch", "us"),
    ("tfsim.read_file_us.p50", "us"),
    ("tfsim.read_file_us.p99", "us"),
    ("tfsim.checkpoint_us", "us"),
    ("posix.open_us.p50", "us"),
    ("posix.open_us.p99", "us"),
    ("posix.read_us.p50", "us"),
    ("posix.read_us.p99", "us"),
    ("posix.ops", "count"),
    ("probe.events", "count"),
    ("storage.synth_create_s", "s"),
    ("storage.cache_hit_bytes", "bytes"),
    ("storage.cache_miss_bytes", "bytes"),
    ("storage.device_bytes", "bytes"),
    ("darshan.mark_span_us.p50", "us"),
    ("darshan.mark_span_us.p99", "us"),
    ("darshan.records", "count"),
    ("darshan.dxt_segments", "count"),
    ("job_tree.reduce_s", "s"),
    ("job_tree.levels", "count"),
    ("job_tree.pair_merges", "count"),
    ("report.json_s", "s"),
    ("report.ascii_s", "s"),
    ("iosan.finalize_s", "s"),
    ("iosan.findings", "count"),
    ("dstat.samples", "count"),
    ("wire.parse_us", "us"),
    ("serve.offer_us", "us"),
    ("serve.pump_us", "us"),
    ("serve.render_ms", "ms"),
    ("serve.dropped", "count"),
    ("serve.queued_peak", "msgs"),
    ("serve.ingest_diffs_per_s", "1/s"),
    ("serve.scrape_p50_ms", "ms"),
    ("serve.scrape_p99_ms", "ms"),
    ("serve.generator_lag_ms", "ms"),
    ("tfdarshan.install_s", "s"),
    ("workloads.platform_s", "s"),
];

/// Command-line options of one run.
#[derive(Clone, Debug)]
pub struct Options {
    /// Workload to run.
    pub workload: Workload,
    /// Seed of everything the benchmark generates itself.
    pub seed: u64,
    /// Time budget for the iterations.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Record this run's virtual-time outputs as the expectations.
    pub record: bool,
}

/// One metric value.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run reports.
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Operations attempted over all iterations.
    pub attempted: u64,
    /// Operations failed over all iterations.
    pub failed: u64,
    /// The metrics of this mode (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Human-readable report, printed before the JSON line.
    pub text: String,
}

#[derive(Default)]
struct Iteration {
    traced: bool,
    setup_s: f64,
    /// Wall seconds of the measured phase.
    run_s: f64,
    /// CPU seconds of the measured phase.
    run_cpu_s: f64,
    attempted: u64,
    failed: u64,
    moved: Vec<String>,
    counts: BTreeMap<&'static str, f64>,
    serve: Option<ServeRun>,
}

/// Expectations of a run: loaded from `expected/`, or taken from the
/// first iteration when recording.
struct Expectations {
    workload: Workload,
    record: bool,
    fields: Option<Fields>,
}

impl Expectations {
    fn check(&mut self, got: &Fields) -> Vec<String> {
        if self.record && self.fields.is_none() {
            let path = guard::record(self.workload.name(), got).expect("expected/ is writable");
            eprintln!("recorded {} fields to {}", got.len(), path.display());
            self.fields = Some(got.clone());
        }
        match &self.fields {
            Some(expected) => guard::moved(expected, got),
            None => vec![format!(
                "no expectations recorded in {}",
                guard::expected_path(self.workload.name()).display()
            )],
        }
    }
}

fn iterate(opts: &Options, trace: &Arc<Trace>, exp: &mut Expectations) -> Iteration {
    let posix_before = trace.count_prefix("posix.");
    let mut it = Iteration {
        traced: trace.is_on(),
        ..Iteration::default()
    };
    let c = &mut it.counts;
    match opts.workload {
        Workload::Imagenet | Workload::Malware => {
            let (w, cfg) = if opts.workload == Workload::Imagenet {
                train::imagenet_tfd28()
            } else {
                train::malware_ckpt_san()
            };
            let t = Instant::now();
            let prepared = train::setup(w, cfg, trace);
            it.setup_s = t.elapsed().as_secs_f64();
            let (t, cpu) = (Instant::now(), CpuTimer::start());
            let (out, finished) = train::run(prepared, trace);
            it.run_s = t.elapsed().as_secs_f64();
            it.run_cpu_s = cpu.elapsed_s();
            let n = finished.counts();
            let fields = guard::run_fields(&out);
            it.moved = exp.check(&fields);
            let findings = out
                .sanitizer
                .as_ref()
                .map_or(0, |s| s.findings.len() as u64);
            it.attempted = n.read_files + out.checkpoints as u64 + fields.len() as u64;
            it.failed = n.read_errors + it.moved.len() as u64 + findings;
            c.extend(n.layers.metrics());
            c.insert("iosan.findings", findings as f64);
            c.insert("dstat.samples", out.dstat_samples.len() as f64);
        }
        Workload::Fleet => {
            let cfg = fleet::fleet1024();
            let t = Instant::now();
            let prepared = fleet::setup(&cfg, trace);
            it.setup_s = t.elapsed().as_secs_f64();
            let (t, cpu) = (Instant::now(), CpuTimer::start());
            let (out, finished) = fleet::run(prepared, trace);
            it.run_s = t.elapsed().as_secs_f64();
            it.run_cpu_s = cpu.elapsed_s();
            let n = finished.counts(trace);
            let fields = guard::fleet_fields(&out);
            it.moved = exp.check(&fields);
            if n.shadow_reduce_matches == Some(false) {
                it.moved
                    .push("job_tree: host-side reduction differs from the event task's".into());
            }
            it.attempted = n.posix_calls + fields.len() as u64;
            it.failed = it.moved.len() as u64;
            c.extend(n.layers.metrics());
            c.insert("job_tree.levels", out.reduce.levels as f64);
            c.insert("job_tree.pair_merges", out.reduce.pair_merges as f64);
        }
        Workload::Serve => {
            let t = Instant::now();
            let prepared = serve::setup(opts.seed, trace).expect("loopback listeners bind");
            it.setup_s = t.elapsed().as_secs_f64();
            let r = serve::run(prepared).expect("loopback ingest connection works");
            it.run_s = r.run_s;
            it.run_cpu_s = r.run_cpu_s;
            it.attempted = r.attempted();
            it.failed = r.failed();
            it.moved = r.mismatched.clone();
            c.insert("serve.dropped", r.dropped as f64);
            it.serve = Some(r);
        }
    }
    let posix_ops = trace.count_prefix("posix.") - posix_before;
    it.counts.insert("posix.ops", posix_ops as f64);
    it
}

/// Run `opts.workload` for `opts.seconds` and compute its metrics.
pub fn run(opts: &Options) -> Outcome {
    let on = Arc::new(Trace::new(true));
    let off = Arc::new(Trace::new(false));
    let mut exp = Expectations {
        workload: opts.workload,
        record: opts.record,
        fields: if opts.record {
            None
        } else {
            guard::load_expected(opts.workload.name())
        },
    };
    let budget = Duration::from_secs(opts.seconds);
    let start = Instant::now();
    let mut last = Duration::ZERO;
    let mut iters: Vec<Iteration> = Vec::new();
    while iters.len() < MIN_ITERATIONS || start.elapsed() + last <= budget {
        let traced = opts.trace && iters.len().is_multiple_of(2);
        let t = Instant::now();
        iters.push(iterate(opts, if traced { &on } else { &off }, &mut exp));
        last = t.elapsed();
    }

    let attempted: u64 = iters.iter().map(|i| i.attempted).sum();
    let failed: u64 = iters.iter().map(|i| i.failed).sum();
    let mut text = format!(
        "perfbench {} seed={} seconds={} trace={} iterations={} ({} traced)\n",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        iters.len(),
        iters.iter().filter(|i| i.traced).count()
    );
    let moved: BTreeSet<&String> = iters.iter().flat_map(|i| &i.moved).collect();
    for m in moved {
        text.push_str(&format!("  MOVED {m}\n"));
    }
    text.push_str(&format!(
        "  failed_frac {:.6} ({failed} failed of {attempted} attempted)\n",
        failed as f64 / attempted.max(1) as f64
    ));
    let untraced: Vec<&Iteration> = iters.iter().filter(|i| !i.traced).collect();
    let traced: Vec<&Iteration> = iters.iter().filter(|i| i.traced).collect();
    let metrics = if opts.trace {
        per_layer(opts, &on, &traced, &untraced, &mut text)
    } else {
        end_to_end(&untraced, &mut text)
    };
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        text,
    }
}

fn end_to_end(iters: &[&Iteration], text: &mut String) -> Vec<Metric> {
    let setup: Vec<f64> = iters.iter().map(|i| i.setup_s).collect();
    let cpu: Vec<f64> = iters.iter().map(|i| i.run_cpu_s).collect();
    let wall: Vec<f64> = iters.iter().map(|i| i.run_s).collect();
    let rss_mib = workloads::fleet_scale::peak_rss_kib().unwrap_or(0) as f64 / 1024.0;
    let values = [median(&setup), median(&cpu), rss_mib];
    let metrics: Vec<Metric> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect();
    text.push_str("  end-to-end (untraced; timings are medians over iterations)\n");
    for m in &metrics {
        text.push_str(&format!(
            "    {:<14} {:>14.6} {}\n",
            m.name, m.value, m.unit
        ));
    }
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    text.push_str(&format!(
        "    run_s (wall) {:.6} s; per iteration: {}\n",
        median(&wall),
        list(&wall)
    ));
    text.push_str(&format!("    run_cpu_s per iteration: {}\n", list(&cpu)));
    if let Some(line) = serve_line(iters) {
        text.push_str(&line);
    }
    metrics
}

/// Serve's user-facing numbers over `iters`, or `None` for other
/// workloads: `(diffs/s, scrape p50, scrape p99, lag p99, scrapes)`.
fn serve_numbers(iters: &[&Iteration]) -> Option<(f64, f64, f64, f64, usize)> {
    let runs: Vec<&ServeRun> = iters.iter().filter_map(|i| i.serve.as_ref()).collect();
    if runs.is_empty() {
        return None;
    }
    let rates: Vec<f64> = runs.iter().map(|r| r.diffs as f64 / r.run_s).collect();
    let scrapes: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.scrape_ms.iter().copied())
        .collect();
    let lags: Vec<f64> = runs.iter().flat_map(|r| r.lag_ms.iter().copied()).collect();
    Some((
        median(&rates),
        quantile(&scrapes, 0.5),
        quantile(&scrapes, 0.99),
        quantile(&lags, 0.99),
        scrapes.len(),
    ))
}

fn serve_line(iters: &[&Iteration]) -> Option<String> {
    let (rate, p50, p99, lag, n) = serve_numbers(iters)?;
    Some(format!(
        "    serve: ingest {rate:.0} diffs/s, /metrics scrape p50 {p50:.3} ms p99 {p99:.3} ms over {n} scrapes (open loop, every {} ms), generator lag p99 {lag:.3} ms\n",
        serve::SCRAPE_EVERY.as_millis()
    ))
}

fn per_layer(
    opts: &Options,
    trace: &Trace,
    traced: &[&Iteration],
    untraced: &[&Iteration],
    text: &mut String,
) -> Vec<Metric> {
    // Counts come from the last traced iteration; they must repeat.
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    if let Some(last) = traced.last() {
        for (k, v) in &last.counts {
            values.insert(k, *v);
        }
        for it in traced {
            for (k, v) in &it.counts {
                if last.counts.get(k) != Some(v) {
                    text.push_str(&format!("  COUNT DIFFERS {k}: {v} vs {}\n", last.counts[k]));
                }
            }
        }
    }
    let us = |name: &str| trace.durations_us(name);
    let med_s = |name: &str| median(&us(name)) / 1e6;
    let simrt_run_s = med_s("simrt.run");
    values.insert("simrt.run_s", simrt_run_s);
    let switches = values.get("simrt.switches").copied().unwrap_or(0.0);
    values.insert(
        "simrt.host_us_per_switch",
        if switches > 0.0 {
            simrt_run_s * 1e6 / switches
        } else {
            0.0
        },
    );
    for (span, p50, p99) in [
        (
            "tfsim.read_file",
            "tfsim.read_file_us.p50",
            "tfsim.read_file_us.p99",
        ),
        ("posix.open", "posix.open_us.p50", "posix.open_us.p99"),
        ("posix.read", "posix.read_us.p50", "posix.read_us.p99"),
        (
            "darshan.mark_span",
            "darshan.mark_span_us.p50",
            "darshan.mark_span_us.p99",
        ),
    ] {
        let d = us(span);
        values.insert(p50, quantile(&d, 0.5));
        values.insert(p99, quantile(&d, 0.99));
    }
    values.insert("tfsim.checkpoint_us", median(&us("tfsim.checkpoint")));
    values.insert("storage.synth_create_s", med_s("storage.synth_create"));
    values.insert("job_tree.reduce_s", med_s("job_tree.reduce"));
    values.insert("report.json_s", med_s("report.json"));
    values.insert("report.ascii_s", med_s("report.ascii"));
    values.insert("iosan.finalize_s", med_s("iosan.finalize"));
    values.insert("wire.parse_us", median(&us("wire.parse")));
    values.insert("serve.offer_us", median(&us("serve.offer")));
    values.insert("serve.pump_us", median(&us("serve.pump")));
    values.insert("serve.render_ms", median(&us("serve.render")) / 1e3);
    values.insert("tfdarshan.install_s", med_s("tfdarshan.install"));
    values.insert("workloads.platform_s", med_s("workloads.platform"));
    if let Some((rate, p50, p99, lag, _)) = serve_numbers(traced) {
        values.insert("serve.ingest_diffs_per_s", rate);
        values.insert("serve.scrape_p50_ms", p50);
        values.insert("serve.scrape_p99_ms", p99);
        values.insert("serve.generator_lag_ms", lag);
        let peak = traced
            .iter()
            .filter_map(|i| i.serve.as_ref())
            .map(|r| r.queued_peak)
            .max()
            .unwrap_or(0);
        values.insert("serve.queued_peak", peak as f64);
    }

    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: values.get(name).copied().unwrap_or(0.0),
            unit,
        })
        .collect();
    text.push_str("  per-layer (traced; us/ms timings are host wall time per call and include waits for carrier handover)\n");
    for m in metrics.iter().filter(|m| m.value != 0.0) {
        text.push_str(&format!(
            "    {:<26} {:>16.6} {}\n",
            m.name, m.value, m.unit
        ));
    }
    if let Some(line) = serve_line(traced) {
        text.push_str(&line);
    }
    text.push_str("  spans: name, calls, total s, self s (self = total minus direct children)\n");
    for (name, (n, total_us, self_us)) in trace.layer_table() {
        text.push_str(&format!(
            "    {name:<22} {n:>9} {:>11.4} {:>11.4}\n",
            total_us / 1e6,
            self_us / 1e6
        ));
    }
    for (label, of) in [
        (
            "run_cpu_s",
            (|i: &&Iteration| i.run_cpu_s) as fn(&&Iteration) -> f64,
        ),
        ("run_s (wall)", |i: &&Iteration| i.run_s),
    ] {
        let t = median(&traced.iter().map(of).collect::<Vec<_>>());
        let u = median(&untraced.iter().map(of).collect::<Vec<_>>());
        if u > 0.0 {
            text.push_str(&format!(
                "  tracing overhead: {label} traced {t:.4} s vs untraced {u:.4} s ({:+.1}%)\n",
                (t / u - 1.0) * 100.0
            ));
        }
    }
    match write_trace(opts, trace) {
        Ok(path) => text.push_str(&format!("  spans written to {}\n", path.display())),
        Err(e) => text.push_str(&format!("  spans not written: {e}\n")),
    }
    metrics
}

/// Write the traced iterations' spans as a chrome trace under `out/`
/// (one file per workload, replaced by the next traced run).
fn write_trace(opts: &Options, trace: &Trace) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}.trace.json", opts.workload.name()));
    std::fs::write(&path, trace.chrome_json())?;
    Ok(path)
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn json_line(o: &Outcome) -> String {
    let mut metrics = serde_json::Map::new();
    for m in &o.metrics {
        metrics.insert(
            m.name.to_string(),
            serde_json::json!({"value": m.value, "unit": m.unit}),
        );
    }
    serde_json::to_string(&serde_json::json!({
        "correct": o.correct,
        "attempted": o.attempted,
        "failed": o.failed,
        "metrics": serde_json::Value::Object(metrics),
    }))
    .expect("result serializes")
}
