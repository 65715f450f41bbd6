//! The scheduler scale workload: many simulated threads, no added OS thread.
//!
//! The event-driven DES core's contract is that simulated concurrency
//! costs run-calendar heap entries, not OS threads — 10k simulated
//! threads must not mean 10k stacks. This workload drives that contract
//! end to end: `sim_threads` stackless *event tasks* run a
//! sleep-then-barrier cadence (the shape of a wide rank fleet waiting on
//! collectives) while a small constant set of *carriers* does real POSIX
//! I/O through the probe spine — optionally under the `iosan`
//! sanitizer, which observes both flavors' sync edges on one stream.
//!
//! The outcome pairs the scheduler's own counters ([`simrt::SchedStats`])
//! with the process's OS-thread count read from `/proc/self/status`, so
//! [`verdict`] (CI's `gate -- scale`) and the `sched_scaling` bench can
//! assert the flat-overhead claim directly: `event_spawns == sim_threads`
//! while the run adds no OS thread — carriers are coroutines on the thread
//! in `Sim::run` — and at most [`MAX_OS_THREADS`].

use std::sync::Arc;
use std::time::Duration;

use iosan::{IoSanitizer, SanitizerReport};
use posix_sim::OpenFlags;
use simrt::sync::Barrier;
use simrt::{EventCx, EventPoll, SchedStats, SimTime};

use crate::fleet_scale::proc_status;
use crate::gate::{Gate, Verdict};
use crate::platform::greendog;

/// Carriers doing I/O in every run (the "real work").
pub const CARRIER_POOL: usize = 4;

/// Bytes each carrier reads per round.
const CARRIER_READ: u64 = 64 << 10;

/// OS threads a run may use: the ones it adds plus the host thread driving
/// it. Run alone, that bounds the process's peak thread count.
pub const MAX_OS_THREADS: usize = 64;

/// What the scale workload produced.
pub struct SchedScaleOutcome {
    /// Event tasks that were spawned (the simulated thread count).
    pub sim_threads: usize,
    /// Barrier rounds every participant crossed.
    pub rounds: usize,
    /// Scheduler counters of the run.
    pub stats: SchedStats,
    /// Highest `Threads:` value observed in `/proc/self/status` around the
    /// run (a process-wide proxy: includes harness threads, so compare
    /// against generous bounds, not exact counts). `None` off procfs.
    pub peak_os_threads: Option<usize>,
    /// The `Threads:` count just before the run, so `peak - base` is what
    /// this run added.
    pub base_os_threads: Option<usize>,
    /// Virtual time the run took.
    pub virtual_wall: SimTime,
    /// Sanitizer verdict over the probe spine, when sanitized.
    pub sanitizer: Option<SanitizerReport>,
}

/// Current OS-thread count of this process, from `/proc/self/status`.
pub fn os_threads() -> Option<usize> {
    proc_status("Threads").map(|n| n as usize)
}

/// Run `sim_threads` event tasks for `rounds` sleep+barrier rounds next
/// to the carrier I/O pool, optionally under the sanitizer.
pub fn run_sched_scale(sim_threads: usize, rounds: usize, sanitize: bool) -> SchedScaleOutcome {
    assert!(sim_threads > 0 && rounds > 0);
    let base = os_threads();
    let m = greendog();
    for c in 0..CARRIER_POOL {
        m.stack
            .create_synthetic(&format!("/data/hdd/scale/c{c}"), CARRIER_READ, c as u64)
            .unwrap();
    }
    let san = sanitize.then(|| IoSanitizer::install(&m.sim, m.process.probe()));

    let mut peak = base;
    let barrier = Arc::new(Barrier::new(sim_threads));
    for i in 0..sim_threads {
        let barrier = barrier.clone();
        let mut done = 0usize;
        let mut token: Option<u64> = None;
        let mut sleeping = true;
        // Deterministic per-task jitter so arrivals stagger instead of
        // landing on one calendar instant.
        let jitter = Duration::from_micros(100 + (i % 97) as u64 * 10);
        m.sim
            .spawn_event(format!("et{i}"), move |_cx: &mut EventCx| loop {
                if done == rounds {
                    return EventPoll::Done;
                }
                if sleeping {
                    sleeping = false;
                    return EventPoll::Sleep(jitter);
                }
                match barrier.poll_wait(&mut token) {
                    None => return EventPoll::Block { deadline: None },
                    Some(_) => {
                        done += 1;
                        sleeping = true;
                    }
                }
            });
    }
    let samples: Vec<_> = (0..CARRIER_POOL)
        .map(|c| {
            let process = m.process.clone();
            m.sim.spawn(format!("io{c}"), move || {
                // Sampled mid-run, with every task of the sim spawned.
                let seen = os_threads();
                let path = format!("/data/hdd/scale/c{c}");
                for _ in 0..rounds {
                    let fd = process.open(&path, OpenFlags::rdonly()).unwrap();
                    process.read(fd, CARRIER_READ, None).unwrap();
                    process.close(fd).unwrap();
                    simrt::sleep(Duration::from_millis(1));
                }
                seen
            })
        })
        .collect();
    m.sim.run();
    for seen in samples {
        peak = peak.max(seen.join());
    }
    peak = peak.max(os_threads());

    SchedScaleOutcome {
        sim_threads,
        rounds,
        stats: m.sim.stats(),
        peak_os_threads: peak,
        base_os_threads: base,
        virtual_wall: m.sim.now(),
        sanitizer: san.map(|s| s.finalize()),
    }
}

/// Judge a sanitized run: a clean sanitizer, every event task and every
/// carrier scheduled, and no OS thread per simulated one.
pub fn verdict(out: &SchedScaleOutcome) -> Verdict {
    let (s, n) = (&out.stats, out.sim_threads);
    let (events, live) = (s.event_spawns as usize, s.peak_live_tasks);
    let wall = out.virtual_wall.as_secs_f64();
    let mut v = Verdict::new(Gate::Scale);
    let rounds = out.rounds;
    v.summary
        .push(format!("{n} event tasks x {rounds} rounds: {s:?}"));
    match &out.sanitizer {
        Some(san) => v.check(san.is_clean(), san.render_ascii()),
        None => v.check(false, "the run was not sanitized"),
    }
    v.check(events == n, format!("{events} of {n} event tasks ran"));
    let carriers = s.carrier_spawns as usize;
    v.check(carriers == CARRIER_POOL, format!("{carriers} carriers ran"));
    v.check(live >= n, format!("only {live} tasks were ever live"));
    v.check(wall > 0.0, "no virtual time passed");
    if let (Some(base), Some(peak)) = (out.base_os_threads, out.peak_os_threads) {
        let added = peak.saturating_sub(base);
        v.summary
            .push(format!("OS threads: {base} before, {peak} peak"));
        v.check(added < MAX_OS_THREADS, format!("{added} OS threads added"));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_thousand_sim_threads_stay_on_a_constant_os_pool() {
        let mut out = run_sched_scale(2_000, 3, true);
        let v = verdict(&out);
        assert!(v.passed(), "{}", v.render());

        // The same run with one event task unaccounted for fails.
        out.stats.event_spawns -= 1;
        let v = verdict(&out);
        assert_eq!(v.failures, ["1999 of 2000 event tasks ran"]);
    }

    #[test]
    fn per_task_poll_cost_is_flat_across_scale() {
        // Polls per event task should not grow with the fleet size: each
        // task crosses the same number of barriers regardless of N.
        let small = run_sched_scale(100, 3, false);
        let big = run_sched_scale(1_000, 3, false);
        let per_small = small.stats.event_polls as f64 / 100.0;
        let per_big = big.stats.event_polls as f64 / 1_000.0;
        assert!(
            per_big < per_small * 2.0,
            "polls per task grew superlinearly: {per_small:.1} -> {per_big:.1}"
        );
    }
}
