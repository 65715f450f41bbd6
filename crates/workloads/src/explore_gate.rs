//! The exploration gate: schedule-space model checking in CI.
//!
//! Two small workloads over the real POSIX/storage stack:
//!
//! - **flag-guarded-racer** is seeded with an order-dependent bug: a racer
//!   only issues its *unlocked* overlapping write when it observes a
//!   publish flag still unset, and the FIFO schedule always runs the
//!   publisher first — so a plain sanitized run is silently clean. The
//!   gate FAILS unless bounded exploration surfaces the data race and the
//!   shrunk replay token reproduces it deterministically (two replays,
//!   identical canonical event streams and finding fingerprints).
//! - **locked-writers** is the cured variant (every conflicting write under
//!   one lock). The gate FAILS if *any* explored schedule produces a
//!   finding.
//!
//! Together they pin both directions: exploration finds what single-run
//! sanitizing cannot, and does not hallucinate findings on healthy code.

use std::sync::Arc;

use explore::{canonicalize, check, replay, ExploreConfig, ExploreReport, ReplayToken};
use iosan::Category;
use posix_sim::{OpenFlags, Process};
use probe::ProbeBus;
use simrt::Sim;
use storage_sim::{
    Device, DeviceSpec, FileSystem, LocalFs, LocalFsParams, PageCache, StorageStack, WritePayload,
};

use crate::gate::{Gate, Verdict};

fn rdwr_create() -> OpenFlags {
    OpenFlags {
        read: true,
        write: true,
        create: true,
        ..Default::default()
    }
}

/// The seeded bug. FIFO order: the publisher locks, writes, sets the flag;
/// the racer then sees the flag and takes the harmless read path. Only a
/// non-FIFO schedule lets the racer observe `false` and issue the unlocked
/// overlapping write that races with the publisher's locked one.
pub fn racy_workload(sim: &Sim) -> ProbeBus {
    flag_workload(sim, false)
}

/// The cured variant: the racer holds the lock across its write, so every
/// schedule is clean.
pub fn clean_workload(sim: &Sim) -> ProbeBus {
    flag_workload(sim, true)
}

fn flag_workload(sim: &Sim, cured: bool) -> ProbeBus {
    let fs = LocalFs::new(
        Device::new(DeviceSpec::sata_ssd("ssd0")),
        Arc::new(PageCache::new(1 << 30)),
        LocalFsParams::default(),
    );
    let stack = StorageStack::new();
    stack.mount("/data", fs as Arc<dyn FileSystem>);
    let p = Process::new(stack);
    let bus = p.probe().clone();
    let ready = Arc::new(simrt::sync::Mutex::named(false, Some("published")));
    {
        let (p, ready) = (p.clone(), ready.clone());
        sim.spawn("publisher", move || {
            simrt::sleep(std::time::Duration::from_millis(1));
            let fd = p.open("/data/shared.bin", rdwr_create()).unwrap();
            {
                let mut g = ready.lock();
                p.pwrite(fd, 0, WritePayload::Synthetic(4096)).unwrap();
                *g = true;
            }
            p.close(fd).unwrap();
        });
    }
    sim.spawn("racer", move || {
        simrt::sleep(std::time::Duration::from_millis(1));
        let fd = p.open("/data/shared.bin", rdwr_create()).unwrap();
        if cured {
            let _g = ready.lock();
            p.pwrite(fd, 0, WritePayload::Synthetic(4096)).unwrap();
        } else if *ready.lock() {
            // Happens-after the publisher's release: a clean read.
            p.pread(fd, 0, 4096, None).unwrap();
        } else {
            // The bug: an unlocked write overlapping the publisher's.
            p.pwrite(fd, 0, WritePayload::Synthetic(4096)).unwrap();
        }
        p.close(fd).unwrap();
    });
    bus
}

/// Outcome of one gate entry.
pub struct ExploreGateResult {
    /// Entry name.
    pub name: &'static str,
    /// The entry carries the seeded race, which exploration must find;
    /// otherwise no schedule may produce a finding.
    pub seeded: bool,
    /// The exploration report.
    pub report: ExploreReport,
    /// The single FIFO schedule was clean (the seeded bug must be
    /// invisible to a plain sanitized run).
    pub fifo_clean: bool,
    /// Every finding's shrunk token reproduced it on two independent
    /// replays with byte-identical canonical event streams (vacuously
    /// `true` without findings).
    pub replay_deterministic: bool,
}

/// CI exploration budget: small enough for the gate, large enough that the
/// seeded bug cannot hide.
pub fn gate_config() -> ExploreConfig {
    ExploreConfig {
        max_schedules: 64,
        ..ExploreConfig::default()
    }
}

/// Explore one entry: the seeded racer, or its cure.
pub fn run_entry(seeded: bool) -> ExploreGateResult {
    let (name, workload): (_, fn(&Sim) -> ProbeBus) = if seeded {
        ("flag-guarded-racer", racy_workload)
    } else {
        ("locked-writers", clean_workload)
    };
    let fifo = replay(workload, &ReplayToken::fifo());
    let report = check(&gate_config(), workload);
    let replay_deterministic = report.findings.iter().all(|f| {
        let (r1, r2) = (replay(workload, &f.token), replay(workload, &f.token));
        r1.fingerprints.contains(&f.fingerprint)
            && r2.fingerprints.contains(&f.fingerprint)
            && canonicalize(&r1.events) == canonicalize(&r2.events)
    });
    ExploreGateResult {
        name,
        seeded,
        report,
        fifo_clean: fifo.report.findings.is_empty(),
        replay_deterministic,
    }
}

/// Run the whole gate: the seeded entry, then the cured one.
pub fn run_gate() -> Vec<ExploreGateResult> {
    vec![run_entry(true), run_entry(false)]
}

/// Judge the gate: every entry hid from FIFO, explored more than one
/// schedule and replays its findings deterministically; the seeded race
/// was found and the cured workload stayed clean on every schedule.
pub fn verdict(results: &[ExploreGateResult]) -> Verdict {
    let mut v = Verdict::new(Gate::Explore);
    for r in results {
        let (name, report) = (r.name, &r.report);
        let summary = serde_json::to_string(&report.summary()).expect("summary serializes");
        v.summary.push(format!("{name}: {summary}"));
        // Each finding line carries the token `gate -- explore replay` takes.
        v.summary
            .extend(report.render_ascii().lines().map(String::from));
        v.check(r.fifo_clean, format!("{name}: FIFO shows a finding"));
        v.check(report.schedules_run > 1, format!("{name}: never branched"));
        v.check(r.replay_deterministic, format!("{name}: replay differs"));
        if r.seeded {
            let mut categories = report.findings.iter().map(|f| f.finding.category);
            let race = categories.any(|c| c == Category::DataRace);
            v.check(race, format!("{name}: the seeded race was missed"));
        } else {
            v.check(report.is_clean(), format!("{name}: findings when cured"));
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_entry_finds_and_replays_the_race() {
        let v = verdict(&[run_entry(true)]);
        assert!(v.passed(), "{}", v.render());
    }

    #[test]
    fn clean_entry_is_clean_on_every_schedule() {
        let v = verdict(&[run_entry(false)]);
        assert!(v.passed(), "{}", v.render());
    }
}
