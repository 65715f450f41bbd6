//! Ablation — scheduler scaling: simulated-thread count vs host cost.
//!
//! The event-driven DES core's claim is *flat per-task overhead*: going
//! from 100 to 10 000 simulated threads should scale host wall time and
//! memory roughly linearly in the task count (constant per task), while
//! the OS-thread count stays pinned at the small carrier pool. This bench
//! sweeps the `sched_scale` workload over a log axis and records, per
//! fleet size: host wall time, per-task wall time, resident set, peak OS
//! threads, and the scheduler's own counters.
//!
//! Acceptance: per-task wall time at 10 000 tasks within 8× of the
//! per-task wall time at 100 (allowing cache effects and heap growth —
//! "near-flat", not "bit-identical"), and OS threads bounded by a
//! constant far below the fleet size at every point.

use std::time::Instant;

use workloads::fleet_scale::proc_status;
use workloads::sched_scale::{os_threads, run_sched_scale, CARRIER_POOL};

const FLEETS: [usize; 5] = [100, 300, 1_000, 3_000, 10_000];
const ROUNDS: usize = 3;

struct Point {
    sim_threads: usize,
    wall_ms: f64,
    per_task_us: f64,
    rss_kib: Option<u64>,
    peak_os_threads: Option<usize>,
    switches: u64,
    event_polls: u64,
    peak_heap_depth: usize,
}

fn measure(sim_threads: usize) -> Point {
    let t = Instant::now();
    let out = run_sched_scale(sim_threads, ROUNDS, false);
    let wall = t.elapsed();
    assert_eq!(out.stats.event_spawns as usize, sim_threads);
    Point {
        sim_threads,
        wall_ms: wall.as_secs_f64() * 1e3,
        per_task_us: wall.as_secs_f64() * 1e6 / sim_threads as f64,
        rss_kib: proc_status("VmRSS"),
        peak_os_threads: out.peak_os_threads,
        switches: out.stats.switches,
        event_polls: out.stats.event_polls,
        peak_heap_depth: out.stats.peak_heap_depth,
    }
}

fn main() {
    bench::header(
        "Ablation",
        "Scheduler scaling: 100 -> 10k simulated threads, constant OS pool",
    );
    println!(
        "{ROUNDS} barrier rounds per task, {CARRIER_POOL} carrier I/O threads, log axis {} -> {}\n",
        FLEETS[0],
        FLEETS[FLEETS.len() - 1]
    );

    // Warm-up so allocator and file-system setup don't bill the first point.
    let _ = run_sched_scale(FLEETS[0], ROUNDS, false);

    let points: Vec<Point> = FLEETS.iter().map(|&n| measure(n)).collect();

    println!(
        "{:>10} {:>12} {:>14} {:>12} {:>10} {:>12} {:>12} {:>10}",
        "sim thr", "wall ms", "per-task us", "RSS MiB", "OS thr", "switches", "polls", "heap peak"
    );
    for p in &points {
        println!(
            "{:>10} {:>12.1} {:>14.2} {:>12} {:>10} {:>12} {:>12} {:>10}",
            p.sim_threads,
            p.wall_ms,
            p.per_task_us,
            p.rss_kib
                .map_or("n/a".to_string(), |k| format!("{:.1}", k as f64 / 1024.0)),
            p.peak_os_threads
                .map_or("n/a".to_string(), |t| t.to_string()),
            p.switches,
            p.event_polls,
            p.peak_heap_depth,
        );
    }

    bench::series(
        "per-task wall time (log task axis)",
        &points
            .iter()
            .map(|p| ((p.sim_threads as f64).log10(), p.per_task_us))
            .collect::<Vec<_>>(),
        "us/task at log10(N)",
    );

    let first = &points[0];
    let last = &points[points.len() - 1];
    let flat = last.per_task_us <= first.per_task_us * 8.0;
    bench::row(
        "per-task overhead 100 -> 10k",
        "near-flat (<= 8x)",
        &format!(
            "{:.2} -> {:.2} us ({:.1}x)",
            first.per_task_us,
            last.per_task_us,
            last.per_task_us / first.per_task_us.max(1e-9)
        ),
        flat,
    );
    let bounded = points
        .iter()
        .all(|p| p.peak_os_threads.is_none_or(|t| t < 64));
    bench::row(
        "OS threads at every fleet size",
        "constant pool",
        &points
            .last()
            .unwrap()
            .peak_os_threads
            .map_or("n/a".to_string(), |t| format!("{t} at 10k tasks")),
        bounded,
    );

    bench::save_json(
        "ablation_sched_scaling",
        &serde_json::json!({
            "rounds": ROUNDS,
            "carrier_pool": CARRIER_POOL,
            "host_os_threads_baseline": os_threads(),
            "points": points.iter().map(|p| serde_json::json!({
                "sim_threads": p.sim_threads,
                "wall_ms": p.wall_ms,
                "per_task_us": p.per_task_us,
                "rss_kib": p.rss_kib,
                "peak_os_threads": p.peak_os_threads,
                "switches": p.switches,
                "event_polls": p.event_polls,
                "peak_heap_depth": p.peak_heap_depth,
            })).collect::<Vec<_>>(),
            "per_task_flat": flat,
            "os_threads_bounded": bounded,
        }),
    );
    assert!(flat, "per-task overhead grew superlinearly");
    assert!(bounded, "OS-thread count scaled with the simulated fleet");
}
