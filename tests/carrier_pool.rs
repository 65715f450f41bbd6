//! Hygiene of the process-wide carrier-thread pool. Carrier tasks run on
//! pooled OS threads that outlive the simulations they carry, so a thread
//! must come back from every task — including one that panicked — with
//! nothing of the old simulation left on it: the same workload run twice
//! in one process must reproduce its probe stream, clock and scheduler
//! counters exactly, reuse the threads of the first run, and leave no
//! finished simulation reachable from an idle thread.
//!
//! The pool is shared by every test in this binary, so the tests take
//! one lock to run one at a time: thread counts and worker reuse are only
//! observable without concurrent simulations.

use std::sync::{Arc, Weak};
use std::time::Duration;

use parking_lot::Mutex;

use tf_darshan::posix::{OpenFlags, PrefetchOrigin};
use tf_darshan::probe::{CollectingSink, Origin, ProbeSink};
use tf_darshan::simrt::{self, SchedStats, SyncEvent, SyncObserver};
use tf_darshan::workloads::os_threads;
use tf_darshan::workloads::platform::greendog;

static SERIAL: Mutex<()> = Mutex::new(());

/// Carriers per run: as many as the 28 map threads of the ImageNet
/// workload, and more than a small host has cores.
const CARRIERS: usize = 32;

/// Blank out `pid: <n>`: process ids come from a global counter, so a
/// second run allocates different ones.
fn strip_pids(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(i) = rest.find("pid: ") {
        out.push_str(&rest[..i + 5]);
        rest = &rest[i + 5..];
        let end = rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len());
        out.push('#');
        rest = &rest[end..];
    }
    out.push_str(rest);
    out
}

struct Run {
    events: String,
    clock: u64,
    stats: SchedStats,
    /// The OS thread each carrier ran on, by carrier.
    threads: Vec<String>,
    /// The sink registered on the run's process bus, held weakly.
    sink: Weak<CollectingSink>,
}

/// `CARRIERS` carriers each reading their own file in paced rounds. The
/// machine and every handle are dropped before returning.
fn run_readers() -> Run {
    let m = greendog();
    for i in 0..CARRIERS {
        m.stack
            .create_synthetic(&format!("/data/hdd/pool/f{i}"), 64 << 10, i as u64)
            .unwrap();
    }
    let sink = Arc::new(CollectingSink::new());
    m.process
        .probe()
        .register(sink.clone() as Arc<dyn ProbeSink>);
    let handles: Vec<_> = (0..CARRIERS)
        .map(|i| {
            let process = m.process.clone();
            m.sim.spawn(format!("r{i}"), move || {
                let thread = thread_name();
                let fd = process
                    .open(&format!("/data/hdd/pool/f{i}"), OpenFlags::rdonly())
                    .unwrap();
                for r in 0..3u64 {
                    simrt::sleep(Duration::from_micros(100 + (i as u64 % 7) * 30));
                    process.pread(fd, r * 4096, 4096, None).unwrap();
                }
                process.close(fd).unwrap();
                thread
            })
        })
        .collect();
    m.sim.run();
    let threads = handles.into_iter().map(|h| h.join()).collect();
    let run = Run {
        events: strip_pids(&format!("{:?}", sink.snapshot())),
        clock: m.sim.now().as_nanos(),
        stats: m.sim.stats(),
        threads,
        sink: Arc::downgrade(&sink),
    };
    drop(sink);
    drop(m);
    run
}

#[test]
fn back_to_back_sims_reproduce_exactly_on_the_same_threads() {
    let _serial = SERIAL.lock();
    let first = run_readers();
    let threads_first = os_threads();
    let second = run_readers();
    let threads_second = os_threads();

    assert!(!first.events.is_empty());
    assert_eq!(first.events, second.events, "probe streams diverged");
    assert_eq!(first.clock, second.clock, "final clocks diverged");
    assert_eq!(first.stats, second.stats, "scheduler counters diverged");
    assert_eq!(first.stats.carrier_spawns as usize, CARRIERS);
    assert_eq!(
        first.threads, second.threads,
        "each carrier must run on the same pooled thread in both runs"
    );
    if let (Some(a), Some(b)) = (threads_first, threads_second) {
        assert!(
            b <= a,
            "the second run started threads of its own: {a} after the first run, {b} after the second"
        );
    }
}

#[test]
fn an_idle_worker_keeps_no_dropped_sim_alive() {
    let _serial = SERIAL.lock();
    let run = run_readers();
    assert!(
        run.sink.upgrade().is_none(),
        "a finished run's sink is still reachable after its sim and process were dropped"
    );
}

struct Quiet;

impl SyncObserver for Quiet {
    fn on_sync(&self, _ev: &SyncEvent) {}
}

fn thread_name() -> String {
    std::thread::current().name().unwrap_or("").to_string()
}

#[test]
fn a_worker_reused_after_a_panic_starts_clean() {
    let _serial = SERIAL.lock();

    // Run 1: "reader" streams a file through stdio while tagged as a
    // prefetch daemon, so both origin depths are raised on its thread when
    // "bad" panics and the poison unwinds it mid-read.
    let m = greendog();
    m.stack
        .create_synthetic("/data/hdd/pool/big", 64 << 20, 7)
        .unwrap();
    let observer: Arc<dyn SyncObserver> = Arc::new(Quiet);
    let sim_alive = Arc::downgrade(&observer);
    m.sim.set_sync_observer(observer);
    let process = m.process.clone();
    let reader_thread = Arc::new(Mutex::new(String::new()));
    let record = reader_thread.clone();
    let reader = m.sim.spawn("reader", move || {
        *record.lock() = thread_name();
        let _daemon = PrefetchOrigin::enter();
        let s = process.fopen("/data/hdd/pool/big", "r").unwrap();
        loop {
            if process.fread(s, 1 << 20, None).unwrap() == 0 {
                break;
            }
        }
    });
    let bad = m.sim.spawn("bad", || {
        simrt::sleep(Duration::from_micros(100));
        panic!("bad carrier");
    });
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| m.sim.run()));
    assert!(run.is_err(), "the panic propagates out of run()");
    let reader = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| reader.join()));
    assert!(reader.is_err(), "the reader was unwound by the poison");
    assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| bad.join())).is_err());
    drop(m);
    assert!(
        sim_alive.upgrade().is_none(),
        "a pooled thread still holds the poisoned sim"
    );

    // Run 2: its first carrier takes the lowest idle worker, which is the
    // one "reader" ran on; its I/O must be attributed to the application.
    let m = greendog();
    m.stack
        .create_synthetic("/data/hdd/pool/small", 64 << 10, 8)
        .unwrap();
    let sink = Arc::new(CollectingSink::new());
    m.process
        .probe()
        .register(sink.clone() as Arc<dyn ProbeSink>);
    let process = m.process.clone();
    let clean = m.sim.spawn("clean", move || {
        let fd = process
            .open("/data/hdd/pool/small", OpenFlags::rdonly())
            .unwrap();
        process.pread(fd, 0, 4096, None).unwrap();
        process.close(fd).unwrap();
        thread_name()
    });
    m.sim.run();
    assert_eq!(
        clean.join(),
        *reader_thread.lock(),
        "the lowest idle worker was reused"
    );
    let events = sink.snapshot();
    assert_eq!(events.len(), 3);
    assert!(
        events.iter().all(|e| e.origin == Origin::App),
        "stale origin depth on a reused worker: {:?}",
        events.iter().map(|e| e.origin).collect::<Vec<_>>()
    );
}
