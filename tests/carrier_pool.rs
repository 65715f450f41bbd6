//! Hygiene of coroutine carriers. Every carrier of a simulation runs on
//! the thread that calls `Sim::run`, so that thread must come back from
//! every run — including one that was poisoned — with nothing of the old
//! simulation left on it, and per-carrier state must follow its carrier
//! across switches rather than stay with the thread: the same workload run
//! twice reproduces its probe stream, clock and scheduler counters
//! exactly, no finished simulation stays reachable, and I/O is tagged with
//! the origin of the carrier that issued it.

use std::sync::{Arc, Weak};
use std::time::Duration;

use tf_darshan::posix::{OpenFlags, PrefetchOrigin};
use tf_darshan::probe::{CollectingSink, EventKind, IoEvent, Origin, ProbeSink};
use tf_darshan::simrt::{self, SchedStats, SyncEvent, SyncObserver, TaskId};
use tf_darshan::workloads::platform::greendog;

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

struct Quiet;

impl SyncObserver for Quiet {
    fn on_sync(&self, _ev: &SyncEvent) {}
}

struct Run {
    events: String,
    clock: u64,
    stats: SchedStats,
    /// The sink registered on the run's process bus, held weakly.
    sink: Weak<CollectingSink>,
    /// The run's sync observer, which only its sim holds.
    sim: Weak<dyn SyncObserver>,
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
    let observer: Arc<dyn SyncObserver> = Arc::new(Quiet);
    let sim = Arc::downgrade(&observer);
    m.sim.set_sync_observer(observer);
    for i in 0..CARRIERS {
        let process = m.process.clone();
        m.sim.spawn(format!("r{i}"), move || {
            let fd = process
                .open(&format!("/data/hdd/pool/f{i}"), OpenFlags::rdonly())
                .unwrap();
            for r in 0..3u64 {
                simrt::sleep(Duration::from_micros(100 + (i as u64 % 7) * 30));
                process.pread(fd, r * 4096, 4096, None).unwrap();
            }
            process.close(fd).unwrap();
        });
    }
    m.sim.run();
    let run = Run {
        events: strip_pids(&format!("{:?}", sink.snapshot())),
        clock: m.sim.now().as_nanos(),
        stats: m.sim.stats(),
        sink: Arc::downgrade(&sink),
        sim,
    };
    drop(sink);
    drop(m);
    run
}

#[test]
fn back_to_back_sims_reproduce_exactly() {
    let first = run_readers();
    let second = run_readers();

    assert!(!first.events.is_empty());
    assert_eq!(first.events, second.events, "probe streams diverged");
    assert_eq!(first.clock, second.clock, "final clocks diverged");
    assert_eq!(first.stats, second.stats, "scheduler counters diverged");
    assert_eq!(first.stats.carrier_spawns as usize, CARRIERS);
}

#[test]
fn a_finished_sim_is_not_kept_alive_by_the_host_thread() {
    let run = run_readers();
    assert!(
        run.sink.upgrade().is_none(),
        "a finished run's sink is still reachable after its sim and process were dropped"
    );
    assert!(
        run.sim.upgrade().is_none(),
        "a finished run's sim is still reachable after it was dropped"
    );
}

#[test]
fn a_sim_after_a_poisoned_one_starts_at_app_origin() {
    // Run 1: "reader" streams a file through stdio while tagged as a
    // prefetch daemon, so both origin depths are raised when "bad" panics
    // and the poison unwinds it mid-read.
    let m = greendog();
    m.stack
        .create_synthetic("/data/hdd/pool/big", 64 << 20, 7)
        .unwrap();
    let observer: Arc<dyn SyncObserver> = Arc::new(Quiet);
    let sim_alive = Arc::downgrade(&observer);
    m.sim.set_sync_observer(observer);
    let process = m.process.clone();
    let reader = m.sim.spawn("reader", move || {
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
        "the host thread still holds the poisoned sim"
    );

    // Run 2, on the same thread: its I/O must be attributed to the
    // application.
    let m = greendog();
    m.stack
        .create_synthetic("/data/hdd/pool/small", 64 << 10, 8)
        .unwrap();
    let sink = Arc::new(CollectingSink::new());
    m.process
        .probe()
        .register(sink.clone() as Arc<dyn ProbeSink>);
    let process = m.process.clone();
    m.sim.spawn("clean", move || {
        let fd = process
            .open("/data/hdd/pool/small", OpenFlags::rdonly())
            .unwrap();
        process.pread(fd, 0, 4096, None).unwrap();
        process.close(fd).unwrap();
    });
    m.sim.run();
    let events = sink.snapshot();
    assert_eq!(events.len(), 3);
    assert!(
        events.iter().all(|e| e.origin == Origin::App),
        "stale origin depth after a poisoned run: {:?}",
        events.iter().map(|e| e.origin).collect::<Vec<_>>()
    );
}

/// Descriptor reads of one task, in stream order.
fn reads_of(events: &[IoEvent], task: TaskId) -> Vec<&IoEvent> {
    events
        .iter()
        .filter(|e| e.task == task && matches!(e.kind, EventKind::Read { .. }))
        .collect()
}

#[test]
fn origin_tags_follow_their_carrier_across_switches() {
    // Three carriers on one thread, each file on its own device so their
    // reads overlap in virtual time: "daemon" holds a `PrefetchOrigin`
    // across a sleep, "stdio" refills its buffer (stdio-internal reads that
    // switch out mid-read), and "app" reads in between.
    let m = greendog();
    m.stack
        .create_synthetic("/data/hdd/origin/daemon", 1 << 20, 1)
        .unwrap();
    m.stack
        .create_synthetic("/data/hdd2/origin/stdio", 1 << 20, 2)
        .unwrap();
    m.stack
        .create_synthetic("/data/ssd/origin/app", 1 << 20, 3)
        .unwrap();
    let sink = Arc::new(CollectingSink::new());
    m.process
        .probe()
        .register(sink.clone() as Arc<dyn ProbeSink>);

    let process = m.process.clone();
    let daemon = m.sim.spawn("daemon", move || {
        let _daemon = PrefetchOrigin::enter();
        let fd = process
            .open("/data/hdd/origin/daemon", OpenFlags::rdonly())
            .unwrap();
        process.pread(fd, 0, 64 << 10, None).unwrap();
        simrt::sleep(Duration::from_millis(2));
        process.pread(fd, 64 << 10, 64 << 10, None).unwrap();
        process.close(fd).unwrap();
    });
    let process = m.process.clone();
    let stdio = m.sim.spawn("stdio", move || {
        let s = process.fopen("/data/hdd2/origin/stdio", "r").unwrap();
        for _ in 0..8 {
            process.fread(s, 6000, None).unwrap();
        }
        process.fclose(s).unwrap();
    });
    let process = m.process.clone();
    let app = m.sim.spawn("app", move || {
        let fd = process
            .open("/data/ssd/origin/app", OpenFlags::rdonly())
            .unwrap();
        for i in 0..100u64 {
            simrt::sleep(Duration::from_micros(100));
            process.pread(fd, i * 4096, 4096, None).unwrap();
        }
        process.close(fd).unwrap();
    });
    m.sim.run();
    let events = sink.snapshot();

    let (daemon, stdio, app) = (daemon.id(), stdio.id(), app.id());
    let origins = |task| {
        events
            .iter()
            .filter(|e| e.task == task)
            .map(|e| e.origin)
            .collect::<Vec<_>>()
    };
    assert!(
        origins(app).iter().all(|o| *o == Origin::App),
        "app I/O tagged by another carrier: {:?}",
        origins(app)
    );
    assert!(
        origins(daemon).iter().all(|o| *o == Origin::Prefetch),
        "daemon I/O lost its tag across the switch: {:?}",
        origins(daemon)
    );
    assert!(origins(stdio).contains(&Origin::StdioInternal));
    assert!(!origins(stdio).contains(&Origin::Prefetch));

    // The switches happened where they matter: an app read falls between
    // the daemon's two reads, and another inside one stdio-internal read.
    let daemon_reads = reads_of(&events, daemon);
    assert_eq!(daemon_reads.len(), 2);
    let app_reads = reads_of(&events, app);
    assert!(app_reads
        .iter()
        .any(|a| a.t0 >= daemon_reads[0].t1 && a.t1 <= daemon_reads[1].t0));
    let refills: Vec<_> = reads_of(&events, stdio)
        .into_iter()
        .filter(|e| e.origin == Origin::StdioInternal)
        .collect();
    assert!(refills.len() >= 2, "the stdio reads refilled its buffer");
    assert!(
        app_reads
            .iter()
            .any(|a| refills.iter().any(|r| r.t0 <= a.t0 && a.t1 <= r.t1)),
        "no app read completed during a stdio refill"
    );
}
