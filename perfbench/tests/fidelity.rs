//! The benchmark measures the program the paper figures come from: its
//! compositions of `imagenet_tfd28`, `malware_ckpt_san` and `fleet1024`
//! give the same virtual-time outputs as `workloads::run` and
//! `run_fleet_scale` for the same configuration — and, untraced, the same
//! scheduler statistics, so the same simulated work ran.

use std::sync::Arc;

use perfbench::trace::Trace;
use perfbench::{fleet, guard, train};
use workloads::{run, run_fleet_scale, RunConfig, Workload};

fn same_training_run(w: Workload, cfg: RunConfig) {
    let reference = run(w, cfg.clone());
    let untraced = Arc::new(Trace::new(false));
    let (composed, _) = train::run(train::setup(w, cfg, &untraced), &untraced);
    assert_eq!(
        guard::moved(
            &guard::run_fields(&reference),
            &guard::run_fields(&composed)
        ),
        Vec::<String>::new()
    );
    assert_eq!(reference.scheduler, composed.scheduler);
}

#[test]
fn imagenet_tfd28_matches_workloads_run() {
    let (w, cfg) = train::imagenet_tfd28();
    same_training_run(w, cfg);
}

#[test]
fn malware_ckpt_san_matches_workloads_run() {
    let (w, cfg) = train::malware_ckpt_san();
    same_training_run(w, cfg);
}

#[test]
fn fleet1024_matches_run_fleet_scale() {
    let cfg = fleet::fleet1024();
    let reference = run_fleet_scale(&cfg);
    let untraced = Arc::new(Trace::new(false));
    let (composed, _) = fleet::run(fleet::setup(&cfg, &untraced), &untraced);
    assert_eq!(
        guard::moved(
            &guard::fleet_fields(&reference),
            &guard::fleet_fields(&composed)
        ),
        Vec::<String>::new()
    );
    assert_eq!(reference.stats.switches, composed.stats.switches);
    assert_eq!(reference.stats.event_polls, composed.stats.event_polls);
    assert_eq!(reference.stats.fast_advances, composed.stats.fast_advances);
}

#[test]
fn traced_runs_keep_virtual_time() {
    // The timing interposer and counting sinks add no virtual time: a
    // traced fleet run still matches the recorded expectations.
    let cfg = fleet::fleet1024();
    let traced = Arc::new(Trace::new(true));
    let (out, finished) = fleet::run(fleet::setup(&cfg, &traced), &traced);
    let counts = finished.counts(&traced);
    let expected = guard::load_expected("fleet1024").expect("fleet1024 expectations recorded");
    assert_eq!(
        guard::moved(&expected, &guard::fleet_fields(&out)),
        Vec::<String>::new()
    );
    assert_eq!(counts.shadow_reduce_matches, Some(true));
    assert_eq!(traced.count_prefix("posix."), counts.posix_calls as usize);
}
