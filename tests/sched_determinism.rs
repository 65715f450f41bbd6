//! Determinism contract of the event-driven DES core: changing how a task
//! waits for a virtual instant must not change the simulation's
//! observable behavior. A `sleep` may take the fast path and never touch
//! the calendar, while a timed-out `Event::wait_timeout` always blocks
//! and is dispatched again; same workload, same virtual-time trace —
//! byte-identical probe event streams, identical Darshan counters,
//! identical final clock — whichever the pacing tasks use.
//!
//! Also pins the FIFO tie-break: tasks becoming runnable at the same
//! virtual instant run in spawn order whichever way they waited.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use tf_darshan::posix::OpenFlags;
use tf_darshan::probe::{CollectingSink, ProbeSink};
use tf_darshan::simrt::sync::{Event, Semaphore};
use tf_darshan::simrt::Sim;
use tf_darshan::tfdarshan::{TfDarshanConfig, TfDarshanWrapper};
use tf_darshan::workloads::platform::greendog;

const ROUNDS: usize = 3;

/// Blank out `pid: <n>` occurrences: process ids come from a global
/// counter, so the second run of a pair allocates different ones. The
/// trace contract is about *scheduling*, not id allocation.
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

/// Run the paced-I/O workload at `n` worker/pacer pairs. Pacers `sleep`
/// in the baseline; when `timed`, even-indexed pacers wait out a never-set
/// event instead. Returns the full probe event stream, the Darshan
/// session snapshots, and the final virtual clock.
fn run_trace(n: usize, timed: bool) -> (String, String, f64) {
    let m = greendog();
    for i in 0..n {
        m.stack
            .create_synthetic(&format!("/data/hdd/det/f{i}"), 64 << 10, i as u64)
            .unwrap();
    }
    let sink = Arc::new(CollectingSink::new());
    m.process
        .probe()
        .register(sink.clone() as Arc<dyn ProbeSink>);
    let wrapper = TfDarshanWrapper::install(m.process.clone(), TfDarshanConfig::default());

    let w2 = wrapper.clone();
    let process = m.process.clone();
    let sim2 = m.sim.clone();
    m.sim.spawn("main", move || {
        w2.mark_start().expect("tf-darshan attaches");
        let mut workers = Vec::new();
        for i in 0..n {
            let tickets = Arc::new(Semaphore::new(0));
            let d = Duration::from_micros(200 + (i as u64 % 13) * 50);
            {
                let tickets = tickets.clone();
                let process = process.clone();
                workers.push(sim2.spawn(format!("w{i}"), move || {
                    let path = format!("/data/hdd/det/f{i}");
                    for r in 0..ROUNDS {
                        tickets.acquire();
                        let fd = process.open(&path, OpenFlags::rdonly()).unwrap();
                        process
                            .pread(fd, (r as u64) * 4096, 4096 + (i as u64 % 7) * 512, None)
                            .unwrap();
                        process.close(fd).unwrap();
                    }
                }));
            }
            let timer = (timed && i % 2 == 0).then(Event::new);
            sim2.spawn(format!("p{i}"), move || {
                for _ in 0..ROUNDS {
                    match &timer {
                        Some(never) => assert!(!never.wait_timeout(d)),
                        None => tf_darshan::simrt::sleep(d),
                    }
                    tickets.release();
                }
            });
        }
        for w in workers {
            w.join();
        }
        w2.mark_stop();
    });
    m.sim.run();

    let events = strip_pids(&format!("{:?}", sink.snapshot()));
    let (start, stop) = wrapper.session_snapshots().expect("one session ran");
    let counters = strip_pids(&format!("{} -> {}", canon(&start), canon(&stop)));
    (events, counters, m.sim.now().as_secs_f64())
}

/// Render a Darshan snapshot deterministically: the record vectors are
/// sorted by record id already, but `names` and `dxt_watermarks` are
/// `HashMap`s whose Debug iteration order varies run to run — sort them.
fn canon(s: &tf_darshan::darshan::Snapshot) -> String {
    let names: std::collections::BTreeMap<_, _> = s.names.iter().collect();
    let marks: std::collections::BTreeMap<_, _> = s.dxt_watermarks.iter().collect();
    format!(
        "taken_at: {:?}, epoch: {:?}, posix: {:?}, stdio: {:?}, names: {:?}, \
         partial: {:?}/{:?}, dxt_segments: {:?}, dxt_watermarks: {:?}",
        s.taken_at,
        s.epoch,
        s.posix,
        s.stdio,
        names,
        s.posix_partial,
        s.stdio_partial,
        s.dxt_segments,
        marks,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn paced_runs_reproduce_the_trace_across_wait_kinds(n in 1usize..65) {
        let (ev_slept, ctr_slept, t_slept) = run_trace(n, false);
        let (ev_timed, ctr_timed, t_timed) = run_trace(n, true);
        prop_assert_eq!(ev_slept, ev_timed, "probe event streams diverged at n={}", n);
        prop_assert_eq!(ctr_slept, ctr_timed, "Darshan counters diverged at n={}", n);
        prop_assert_eq!(t_slept, t_timed, "final virtual clocks diverged at n={}", n);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn equal_time_wakeups_run_in_spawn_order_across_wait_kinds(
        k in 1usize..49,
        kinds in any::<u64>(),
    ) {
        // All k tasks become runnable again at t=1ms; the run order must
        // be the spawn order whatever mix of sleeps and timed-out waits
        // `kinds` selects.
        let sim = Sim::new();
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
        for i in 0..k {
            let order = order.clone();
            let timed = kinds >> (i % 64) & 1 == 1;
            sim.spawn(format!("t{i}"), move || {
                let d = Duration::from_millis(1);
                if timed {
                    assert!(!Event::new().wait_timeout(d));
                } else {
                    tf_darshan::simrt::sleep(d);
                }
                order.lock().push(i);
            });
        }
        sim.run();
        let got = order.lock().clone();
        prop_assert_eq!(got, (0..k).collect::<Vec<_>>());
    }
}
