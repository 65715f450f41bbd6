//! The `serve_ingest64` workload: 64 tenants × 4 ranks of seeded
//! synthetic session diffs, 20 files each (the shape of
//! `ablation_serve_ingest`), sent as NDJSON over one TCP ingest
//! connection while one HTTP client scrapes `/metrics` on a fixed
//! schedule.
//!
//! The transport is the benchmark's own thin shell over the public
//! service API — `SessionDiffMsg::from_line`, `ServeService::offer`,
//! `pump` and `metrics`, and `serve::http` — shaped like `ServeDaemon`
//! (an ingest thread per connection, a pump thread on a 1 ms period, an
//! HTTP listener), so that each of those calls can carry a span.
//!
//! Load: the sender is a closed loop (it writes as fast as the socket
//! accepts); the scraper is an open loop, one scrape due every
//! [`SCRAPE_EVERY`] from the first diff sent, each timed from when it was
//! due. The generator uses two threads: the sender and the scraper.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rand::prelude::*;
use serve::http::{read_request, respond};
use serve::{http_get, AggregatorConfig, ServeService};
use tfdarshan::analysis::FileActivity;
use tfdarshan::wire::{SessionDiffMsg, WIRE_VERSION};
use tfdarshan::TfDarshanReport;

use crate::trace::{CpuTimer, Trace};

/// Tenants (jobs).
pub const TENANTS: usize = 64;
/// Ranks per tenant.
pub const RANKS: usize = 4;
/// Sessions each rank publishes per run.
pub const SESSIONS: usize = 24;
/// Files per session diff.
pub const FILES_PER_MSG: usize = 20;
/// Scrape schedule period.
pub const SCRAPE_EVERY: Duration = Duration::from_millis(8);
/// Pump-thread period (as `ServeConfig::default`).
const PUMP_EVERY: Duration = Duration::from_millis(1);
/// A run that has not accounted for every diff by then stops, and the
/// diffs still missing count as failed.
const GIVE_UP: Duration = Duration::from_secs(120);

/// Per-job totals the service must report exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JobTotals {
    /// Sessions applied.
    pub sessions: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
}

/// One run's inputs: NDJSON lines in send order and what they sum to.
pub struct Generated {
    /// Encoded messages.
    pub lines: Vec<String>,
    /// Expected totals per job id.
    pub expect: BTreeMap<String, JobTotals>,
}

fn job_id(t: usize) -> String {
    format!("train-{t:03}")
}

fn synth_msg(rng: &mut StdRng, tenant: usize, rank: usize, seq: u64) -> SessionDiffMsg {
    let job = job_id(tenant);
    let mut report = TfDarshanReport {
        window: (seq as f64, seq as f64 + 1.0),
        ..Default::default()
    };
    report.files = (0..FILES_PER_MSG)
        .map(|i| {
            let reads = rng.gen_range(1u64..9);
            FileActivity {
                path: format!(
                    "/data/{job}/shard-{:04}.tfrecord",
                    rng.gen_range(0usize..512) + i
                ),
                reads,
                bytes_read: reads * rng.gen_range(256u64 << 10..4 << 20),
                apparent_size: 128 << 20,
                read_time: rng.gen_range(0.001..0.05),
            }
        })
        .collect();
    report.io.reads = report.files.iter().map(|f| f.reads).sum();
    report.io.opens = FILES_PER_MSG as u64;
    report.io.bytes_read = report.files.iter().map(|f| f.bytes_read).sum();
    report.io.read_size_hist[6] = report.io.reads;
    if rng.gen_range(0u32..4) == 0 {
        report.io.writes = 1;
        report.io.bytes_written = rng.gen_range(1u64 << 20..64 << 20);
    }
    SessionDiffMsg {
        v: WIRE_VERSION,
        job,
        rank: rank as u32,
        seq,
        report,
    }
}

/// The seeded inputs: in every round each (tenant, rank) publishes its
/// next session, in a shuffled order, so per-rank sequence numbers stay
/// in order.
pub fn generate(seed: u64) -> Generated {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pairs: Vec<(usize, usize)> = (0..TENANTS)
        .flat_map(|t| (0..RANKS).map(move |r| (t, r)))
        .collect();
    let mut lines = Vec::with_capacity(TENANTS * RANKS * SESSIONS);
    let mut expect: BTreeMap<String, JobTotals> = BTreeMap::new();
    for seq in 0..SESSIONS as u64 {
        pairs.shuffle(&mut rng);
        for &(t, r) in &pairs {
            let msg = synth_msg(&mut rng, t, r, seq);
            let e = expect.entry(msg.job.clone()).or_default();
            e.sessions += 1;
            e.bytes_read += msg.report.io.bytes_read;
            e.bytes_written += msg.report.io.bytes_written;
            lines.push(msg.to_line());
        }
    }
    Generated { lines, expect }
}

/// The service plus its transport threads, listening on loopback.
pub struct Server {
    service: Arc<ServeService>,
    ingest_addr: SocketAddr,
    http_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    /// Set by the pump thread when every message is accounted for.
    done_at: Arc<Mutex<Option<Instant>>>,
    parse_errors: Arc<AtomicU64>,
    queued_peak: Arc<AtomicU64>,
    threads: Vec<JoinHandle<()>>,
}

/// A run ready to start: inputs generated and the server listening.
pub struct Prepared {
    input: Generated,
    server: Server,
}

/// Set-up: generate the inputs and start the server.
pub fn setup(seed: u64, trace: &Arc<Trace>) -> std::io::Result<Prepared> {
    let input = trace.span("serve.generate", || generate(seed));
    let server = trace.span("serve.start", || start(input.lines.len() as u64, trace))?;
    Ok(Prepared { input, server })
}

fn start(total: u64, trace: &Arc<Trace>) -> std::io::Result<Server> {
    let service = Arc::new(ServeService::new(AggregatorConfig::default()));
    let ingest = TcpListener::bind("127.0.0.1:0")?;
    let http = TcpListener::bind("127.0.0.1:0")?;
    let (ingest_addr, http_addr) = (ingest.local_addr()?, http.local_addr()?);
    let stop = Arc::new(AtomicBool::new(false));
    let done_at = Arc::new(Mutex::new(None));
    let parse_errors = Arc::new(AtomicU64::new(0));
    let queued_peak = Arc::new(AtomicU64::new(0));
    let mut threads = Vec::new();
    {
        // Ingest: one publisher connection, read to EOF.
        let (service, trace, parse_errors) = (service.clone(), trace.clone(), parse_errors.clone());
        threads.push(std::thread::spawn(move || {
            let Ok((stream, _)) = ingest.accept() else {
                return;
            };
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            while matches!(reader.read_line(&mut line), Ok(n) if n > 0) {
                match trace.span("wire.parse", || SessionDiffMsg::from_line(line.trim_end())) {
                    Ok(msg) => {
                        trace.span("serve.offer", || service.offer(msg));
                    }
                    Err(_) => {
                        parse_errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
                line.clear();
            }
        }));
    }
    {
        // Pump: bounded rounds on a fixed period; notes when every
        // message has been folded, dropped or rejected.
        let (service, trace, stop) = (service.clone(), trace.clone(), stop.clone());
        let (done_at, parse_errors, queued_peak) =
            (done_at.clone(), parse_errors.clone(), queued_peak.clone());
        threads.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                if trace.is_on() {
                    let queued = service.footprint().queued_msgs as u64;
                    queued_peak.fetch_max(queued, Ordering::Relaxed);
                }
                let t0 = Instant::now();
                if service.pump() > 0 {
                    trace.record("serve.pump", t0, Instant::now());
                }
                let f = service.fleet();
                let accounted =
                    f.ingested + f.dropped + f.wire_rejects + parse_errors.load(Ordering::Relaxed);
                if accounted >= total {
                    done_at.lock().get_or_insert_with(Instant::now);
                }
                // Host transport thread ticking in real time.
                std::thread::sleep(PUMP_EVERY);
            }
        }));
    }
    {
        // HTTP: one request per connection, answered on this thread.
        let (service, trace, stop) = (service.clone(), trace.clone(), stop.clone());
        threads.push(std::thread::spawn(move || {
            for stream in http.incoming() {
                if stop.load(Ordering::Acquire) {
                    return;
                }
                let Ok(mut stream) = stream else {
                    continue;
                };
                match read_request(&mut stream) {
                    Some(req) if req.method == "GET" && req.path == "/metrics" => {
                        let body = trace.span("serve.render", || service.metrics());
                        respond(&mut stream, 200, "text/plain; version=0.0.4", &body);
                    }
                    Some(_) => respond(&mut stream, 404, "text/plain", "not found\n"),
                    None => respond(&mut stream, 400, "text/plain", "bad request\n"),
                }
            }
        }));
    }
    Ok(Server {
        service,
        ingest_addr,
        http_addr,
        stop,
        done_at,
        parse_errors,
        queued_peak,
        threads,
    })
}

impl Server {
    fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loops (the ingest one only waits if no
        // publisher ever connected).
        let _ = TcpStream::connect(self.http_addr);
        let _ = TcpStream::connect(self.ingest_addr);
        for t in self.threads.drain(..) {
            t.join().expect("serve transport thread exits cleanly");
        }
    }
}

/// What one run measured.
#[derive(Default)]
pub struct ServeRun {
    /// Host seconds from the first diff sent to the last diff folded.
    pub run_s: f64,
    /// CPU seconds the process used over the same interval.
    pub run_cpu_s: f64,
    /// Diffs sent.
    pub diffs: u64,
    /// Scrape latencies (ms), each from when it was due.
    pub scrape_ms: Vec<f64>,
    /// How late each scrape started against its schedule (ms).
    pub lag_ms: Vec<f64>,
    /// Scrapes that did not return 200.
    pub bad_scrapes: u64,
    /// Diffs dropped by backpressure.
    pub dropped: u64,
    /// Diffs rejected for their wire version.
    pub wire_rejects: u64,
    /// NDJSON lines that failed to parse.
    pub parse_errors: u64,
    /// Sequence gaps the service saw.
    pub seq_gaps: u64,
    /// Diffs neither folded, dropped nor rejected when the run gave up.
    pub unaccounted: u64,
    /// Jobs whose totals differ from the inputs', named.
    pub mismatched: Vec<String>,
    /// Peak undrained queue depth (traced runs only).
    pub queued_peak: u64,
}

impl ServeRun {
    /// Failed operations: dropped, rejected or unparsable diffs, sequence
    /// gaps, non-200 scrapes and jobs whose totals are wrong.
    pub fn failed(&self) -> u64 {
        self.dropped
            + self.wire_rejects
            + self.parse_errors
            + self.seq_gaps
            + self.bad_scrapes
            + self.unaccounted
            + self.mismatched.len() as u64
    }

    /// Operations attempted: diffs sent and scrapes made.
    pub fn attempted(&self) -> u64 {
        self.diffs + self.scrape_ms.len() as u64
    }
}

/// The measured phase: send every diff while scraping on schedule, until
/// the pump has accounted for the last one; then check the totals.
pub fn run(p: Prepared) -> std::io::Result<ServeRun> {
    let Prepared { input, server } = p;
    let mut out = ServeRun {
        diffs: input.lines.len() as u64,
        ..ServeRun::default()
    };
    let stream = TcpStream::connect(server.ingest_addr)?;
    let (t0, cpu) = (Instant::now(), CpuTimer::start());
    let lines = input.lines;
    let sender = std::thread::spawn(move || -> std::io::Result<()> {
        let mut w = BufWriter::new(stream);
        for line in &lines {
            w.write_all(line.as_bytes())?;
            w.write_all(b"\n")?;
        }
        w.flush()
    });
    let mut k: u32 = 0;
    let done = loop {
        if let Some(at) = *server.done_at.lock() {
            break at;
        }
        if t0.elapsed() > GIVE_UP {
            break Instant::now();
        }
        let due = t0 + SCRAPE_EVERY * k;
        k += 1;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let started = Instant::now();
        let ok = matches!(http_get(server.http_addr, "/metrics"), Ok((200, _)));
        let end = Instant::now();
        out.lag_ms.push(ms(started - due));
        out.scrape_ms.push(ms(end - due));
        out.bad_scrapes += u64::from(!ok);
    };
    out.run_s = (done - t0).as_secs_f64();
    out.run_cpu_s = cpu.elapsed_s();
    sender.join().expect("sender thread exits cleanly")?;

    let fleet = server.service.fleet();
    out.dropped = fleet.dropped;
    out.wire_rejects = fleet.wire_rejects;
    out.parse_errors = server.parse_errors.load(Ordering::Relaxed);
    out.queued_peak = server.queued_peak.load(Ordering::Relaxed);
    let accounted = fleet.ingested + fleet.dropped + fleet.wire_rejects + out.parse_errors;
    out.unaccounted = out.diffs.saturating_sub(accounted);
    let jobs = server.service.jobs().jobs;
    out.seq_gaps = jobs.iter().map(|j| j.seq_gaps).sum();
    let got: BTreeMap<String, JobTotals> = jobs
        .iter()
        .map(|j| {
            let totals = JobTotals {
                sessions: j.sessions,
                bytes_read: j.bytes_read,
                bytes_written: j.bytes_written,
            };
            (j.job.clone(), totals)
        })
        .collect();
    out.mismatched = input
        .expect
        .iter()
        .filter(|(job, want)| got.get(*job) != Some(want))
        .map(|(job, want)| format!("{job}: want {want:?}, got {:?}", got.get(job)))
        .collect();
    server.shutdown();
    Ok(out)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
