//! Carriers are coroutines on the thread in `Sim::run`: a simulation
//! starts no OS thread, however many carriers it has. The only test in
//! this binary, so no other test's threads move the count it reads.

use std::time::Duration;

/// `Threads:` of this process, from `/proc/self/status`.
fn os_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is readable");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("status has a Threads: line")
}

#[test]
fn sixty_four_carriers_add_no_os_thread() {
    let before = os_threads();
    let sim = simrt::Sim::new();
    let peaks: Vec<_> = (0..64u64)
        .map(|i| {
            sim.spawn(format!("c{i}"), move || {
                let mut peak = 0;
                for _ in 0..4 {
                    simrt::sleep(Duration::from_micros(10 + i % 5));
                    peak = peak.max(os_threads());
                }
                peak
            })
        })
        .collect();
    sim.run();
    let peak = peaks
        .into_iter()
        .map(|h| h.join())
        .max()
        .expect("64 carriers");
    assert_eq!(sim.stats().carrier_spawns, 64);
    assert_eq!(peak, before, "carriers started OS threads");
    assert_eq!(os_threads(), before);
}
