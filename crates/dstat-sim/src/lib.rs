//! # dstat-sim — background disk-activity sampler
//!
//! The paper validates tf-Darshan's bandwidth numbers by "concurrently
//! running Dstat in the background to collect disk activities" (Figs. 3,
//! 4, 12). This crate is that background process: a simulated thread that
//! samples every device's transfer counters once per virtual second and
//! reports per-interval rates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use probe::{EventKind, IoEvent, ProbeBus, ProbeSink, SinkId};
use simrt::sync::Event;
use simrt::{Sim, SimTime};
use storage_sim::{CounterSnapshot, Device};

/// Running totals of application `read`/`write` syscall bytes, fed from the
/// process's probe spine. Folding is a pair of relaxed atomic adds, so it is
/// safe inside the context-switch flush path (never sleeps).
#[derive(Default)]
struct SyscallCounters {
    read_bytes: AtomicU64,
    write_bytes: AtomicU64,
}

impl ProbeSink for SyscallCounters {
    fn on_events(&self, events: &[IoEvent]) {
        let (mut r, mut w) = (0u64, 0u64);
        for ev in events {
            match ev.kind {
                EventKind::Read { len, .. } => r += len,
                EventKind::Write { len, .. } => w += len,
                _ => {}
            }
        }
        if r != 0 {
            self.read_bytes.fetch_add(r, Ordering::Relaxed);
        }
        if w != 0 {
            self.write_bytes.fetch_add(w, Ordering::Relaxed);
        }
    }
}

/// One sampling interval's disk activity.
#[derive(Clone, Debug)]
pub struct DstatSample {
    /// End of the sampling interval.
    pub t: SimTime,
    /// Bytes read during the interval, per device (same order as the
    /// device list given to [`Dstat::spawn`]).
    pub read_bytes: Vec<u64>,
    /// Bytes written during the interval, per device.
    pub write_bytes: Vec<u64>,
    /// Bytes moved through `read`-family syscalls during the interval
    /// (zero unless attached to a probe spine, see [`Dstat::attach_spine`]).
    /// Diffing this against the device columns separates page-cache hits
    /// from media traffic.
    pub sys_read_bytes: u64,
    /// Bytes moved through `write`-family syscalls during the interval.
    pub sys_write_bytes: u64,
    /// Per-rank syscall read bytes during the interval, one `(rank,
    /// bytes)` pair per spine attached via [`Dstat::attach_rank_spine`].
    /// In a distributed job the device columns aggregate every rank's
    /// traffic; these columns attribute it back to the rank that issued
    /// the syscalls.
    pub rank_read_bytes: Vec<(u32, u64)>,
    /// Per-rank syscall write bytes during the interval.
    pub rank_write_bytes: Vec<(u32, u64)>,
    /// Per-shard syscall read bytes during the interval, one `(shard,
    /// bytes)` pair per spine attached via [`Dstat::attach_shard_spine`].
    /// Fleet jobs attribute per rank *group* — [`MAX_RANK_COLUMNS`] caps
    /// the per-rank columns, shard columns stay O(N/64).
    pub shard_read_bytes: Vec<(u32, u64)>,
    /// Per-shard syscall write bytes during the interval.
    pub shard_write_bytes: Vec<(u32, u64)>,
}

impl DstatSample {
    /// Total read bytes across devices.
    pub fn total_read(&self) -> u64 {
        self.read_bytes.iter().sum()
    }

    /// Total written bytes across devices.
    pub fn total_write(&self) -> u64 {
        self.write_bytes.iter().sum()
    }

    /// Aggregate read rate in MiB/s given the sampling interval.
    pub fn read_mib_per_s(&self, interval: Duration) -> f64 {
        self.total_read() as f64 / (1024.0 * 1024.0) / interval.as_secs_f64()
    }

    /// This interval's syscall read bytes attributed to `rank` (zero if
    /// that rank's spine is not attached).
    pub fn rank_read(&self, rank: u32) -> u64 {
        self.rank_read_bytes
            .iter()
            .find(|(r, _)| *r == rank)
            .map_or(0, |(_, b)| *b)
    }

    /// This interval's syscall write bytes attributed to `rank`.
    pub fn rank_write(&self, rank: u32) -> u64 {
        self.rank_write_bytes
            .iter()
            .find(|(r, _)| *r == rank)
            .map_or(0, |(_, b)| *b)
    }

    /// This interval's syscall read bytes attributed to shard `shard`
    /// (zero if that shard's spine is not attached).
    pub fn shard_read(&self, shard: u32) -> u64 {
        self.shard_read_bytes
            .iter()
            .find(|(s, _)| *s == shard)
            .map_or(0, |(_, b)| *b)
    }

    /// This interval's syscall write bytes attributed to shard `shard`.
    pub fn shard_write(&self, shard: u32) -> u64 {
        self.shard_write_bytes
            .iter()
            .find(|(s, _)| *s == shard)
            .map_or(0, |(_, b)| *b)
    }
}

/// Cap on per-rank attribution columns. Past it, [`Dstat::attach_rank_spine`]
/// refuses (returns `false`): a 4096-rank job would otherwise pay 4096
/// column diffs per sampling tick and produce unreadably wide samples —
/// attribute per rank group with [`Dstat::attach_shard_spine`] instead.
pub const MAX_RANK_COLUMNS: usize = 64;

/// One attached attribution spine (a rank's bus or a shard's bus): its own
/// accumulator so the sampler can diff its traffic independently of the
/// aggregate spine. `key` is the rank or shard id.
struct KeyedSpine {
    key: u32,
    counters: Arc<SyscallCounters>,
    bus: ProbeBus,
    sink_id: SinkId,
}

/// One interval's syscall bytes per spine key, as `(key, bytes)`.
type KeyedBytes = Vec<(u32, u64)>;

/// The per-key `(read, write)` syscall byte deltas of `spines` since
/// `prev`, which advances to the current totals.
fn deltas(
    spines: &Mutex<Vec<KeyedSpine>>,
    prev: &mut HashMap<u32, (u64, u64)>,
) -> (KeyedBytes, KeyedBytes) {
    let (mut read, mut write) = (Vec::new(), Vec::new());
    for s in spines.lock().iter() {
        let r = s.counters.read_bytes.load(Ordering::Relaxed);
        let w = s.counters.write_bytes.load(Ordering::Relaxed);
        let p = prev.entry(s.key).or_insert((0, 0));
        read.push((s.key, r - p.0));
        write.push((s.key, w - p.1));
        *p = (r, w);
    }
    (read, write)
}

/// A running dstat instance.
pub struct Dstat {
    samples: Arc<Mutex<Vec<DstatSample>>>,
    stop: Arc<Event>,
    interval: Duration,
    names: Vec<String>,
    syscalls: Arc<SyscallCounters>,
    spine: Mutex<Option<(ProbeBus, SinkId)>>,
    rank_spines: Arc<Mutex<Vec<KeyedSpine>>>,
    shard_spines: Arc<Mutex<Vec<KeyedSpine>>>,
}

impl Dstat {
    /// Start sampling `devices` every `interval` on a background simulated
    /// thread. Call [`Dstat::stop`] before the simulation ends (a sampler
    /// never stops by itself, exactly like the real tool); the sampler
    /// ends at the stop instant, not at its next tick.
    pub fn spawn(sim: &Sim, devices: Vec<Arc<Device>>, interval: Duration) -> Dstat {
        assert!(!devices.is_empty(), "dstat needs at least one device");
        assert!(!interval.is_zero());
        let samples: Arc<Mutex<Vec<DstatSample>>> = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(Event::new());
        let names = devices.iter().map(|d| d.name().to_string()).collect();
        let syscalls: Arc<SyscallCounters> = Arc::new(SyscallCounters::default());
        let rank_spines: Arc<Mutex<Vec<KeyedSpine>>> = Arc::new(Mutex::new(Vec::new()));
        let shard_spines: Arc<Mutex<Vec<KeyedSpine>>> = Arc::new(Mutex::new(Vec::new()));
        {
            let samples = samples.clone();
            let stop = stop.clone();
            let syscalls = syscalls.clone();
            let rank_spines = rank_spines.clone();
            let shard_spines = shard_spines.clone();
            // Samples land at t = k·interval until stop is set.
            sim.spawn("dstat", move || {
                let mut prev: Vec<CounterSnapshot> = devices.iter().map(|d| d.snapshot()).collect();
                let mut prev_sys_r = syscalls.read_bytes.load(Ordering::Relaxed);
                let mut prev_sys_w = syscalls.write_bytes.load(Ordering::Relaxed);
                // Per-rank previous totals; a spine attached mid-run starts
                // from zero, so its first column covers everything it saw.
                let mut prev_rank: HashMap<u32, (u64, u64)> = HashMap::new();
                let mut prev_shard: HashMap<u32, (u64, u64)> = HashMap::new();
                while !stop.wait_timeout(interval) {
                    let cur: Vec<CounterSnapshot> = devices.iter().map(|d| d.snapshot()).collect();
                    // Emitting threads flushed their spine buffers when they
                    // descheduled (only one simulated thread runs at a time),
                    // so the accumulator is complete up to this instant.
                    let sys_r = syscalls.read_bytes.load(Ordering::Relaxed);
                    let sys_w = syscalls.write_bytes.load(Ordering::Relaxed);
                    let (rank_read_bytes, rank_write_bytes) = deltas(&rank_spines, &mut prev_rank);
                    let (shard_read_bytes, shard_write_bytes) =
                        deltas(&shard_spines, &mut prev_shard);
                    let sample = DstatSample {
                        t: simrt::now(),
                        read_bytes: cur
                            .iter()
                            .zip(&prev)
                            .map(|(c, p)| c.bytes_read - p.bytes_read)
                            .collect(),
                        write_bytes: cur
                            .iter()
                            .zip(&prev)
                            .map(|(c, p)| c.bytes_written - p.bytes_written)
                            .collect(),
                        sys_read_bytes: sys_r - prev_sys_r,
                        sys_write_bytes: sys_w - prev_sys_w,
                        rank_read_bytes,
                        rank_write_bytes,
                        shard_read_bytes,
                        shard_write_bytes,
                    };
                    prev = cur;
                    prev_sys_r = sys_r;
                    prev_sys_w = sys_w;
                    samples.lock().push(sample);
                }
            });
        }
        Dstat {
            samples,
            stop,
            interval,
            names,
            syscalls,
            spine: Mutex::new(None),
            rank_spines,
            shard_spines,
        }
    }

    /// Additionally sample syscall-level traffic from `bus` (the process's
    /// probe spine): each [`DstatSample`] then reports the interval's
    /// `read`/`write` syscall bytes alongside the device counters, without
    /// any lock on the per-syscall fast path.
    pub fn attach_spine(&self, bus: &ProbeBus) {
        let mut spine = self.spine.lock();
        if spine.is_none() {
            let id = bus.register(self.syscalls.clone());
            *spine = Some((bus.clone(), id));
        }
    }

    /// Additionally attribute syscall-level traffic to `rank`, sampled
    /// from that rank's own probe bus. Each [`DstatSample`] then carries a
    /// per-rank `(rank, bytes)` column next to the aggregate spine
    /// columns — the distributed analog of dstat's per-CPU breakdown.
    /// Attach at most one spine per rank; a duplicate rank is ignored.
    /// Returns `false` (and attaches nothing) once [`MAX_RANK_COLUMNS`]
    /// ranks are attached — fleet jobs attribute per rank group via
    /// [`Dstat::attach_shard_spine`] instead.
    pub fn attach_rank_spine(&self, rank: u32, bus: &ProbeBus) -> bool {
        let mut spines = self.rank_spines.lock();
        if spines.iter().any(|rs| rs.key == rank) {
            return true;
        }
        if spines.len() >= MAX_RANK_COLUMNS {
            return false;
        }
        let counters: Arc<SyscallCounters> = Arc::new(SyscallCounters::default());
        let sink_id = bus.register(counters.clone());
        spines.push(KeyedSpine {
            key: rank,
            counters,
            bus: bus.clone(),
            sink_id,
        });
        true
    }

    /// Additionally attribute syscall-level traffic to rank-group `shard`,
    /// sampled from the job's shard bus (`JobCtx::shard_bus`). The scalable
    /// attribution for fleet jobs: a 4096-rank job at 64 ranks/shard costs
    /// 64 columns, and each column's sink snapshot is shared only with
    /// that shard's ranks. Uncapped (shard count is already O(N/64));
    /// duplicate shard ids are ignored.
    pub fn attach_shard_spine(&self, shard: u32, bus: &ProbeBus) {
        let mut spines = self.shard_spines.lock();
        if spines.iter().any(|ss| ss.key == shard) {
            return;
        }
        let counters: Arc<SyscallCounters> = Arc::new(SyscallCounters::default());
        let sink_id = bus.register(counters.clone());
        spines.push(KeyedSpine {
            key: shard,
            counters,
            bus: bus.clone(),
            sink_id,
        });
    }

    /// Stop the sampler (must be called from a simulated thread).
    pub fn stop(&self) {
        self.stop.set();
        if let Some((bus, id)) = self.spine.lock().take() {
            bus.unregister(id);
        }
        for rs in self.rank_spines.lock().drain(..) {
            rs.bus.unregister(rs.sink_id);
        }
        for ss in self.shard_spines.lock().drain(..) {
            ss.bus.unregister(ss.sink_id);
        }
    }

    /// The stop event, for handing to another thread.
    pub fn stop_event(&self) -> Arc<Event> {
        self.stop.clone()
    }

    /// The sampling interval.
    pub fn interval(&self) -> Duration {
        self.interval
    }

    /// Sampled device names, in column order.
    pub fn device_names(&self) -> &[String] {
        &self.names
    }

    /// All samples collected so far.
    pub fn samples(&self) -> Vec<DstatSample> {
        self.samples.lock().clone()
    }

    /// Mean aggregate read bandwidth (MiB/s) over samples in `[from, to]`.
    pub fn mean_read_mib_per_s(&self, from: SimTime, to: SimTime) -> f64 {
        let samples = self.samples.lock();
        let in_range: Vec<&DstatSample> = samples
            .iter()
            .filter(|s| s.t >= from && s.t <= to)
            .collect();
        if in_range.is_empty() {
            return 0.0;
        }
        let bytes: u64 = in_range.iter().map(|s| s.total_read()).sum();
        let secs = in_range.len() as f64 * self.interval.as_secs_f64();
        bytes as f64 / (1024.0 * 1024.0) / secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage_sim::{DeviceSpec, Dir};

    #[test]
    fn samples_track_transfer_rates() {
        let sim = Sim::new();
        let dev = Device::new(DeviceSpec::optane("nvme0"));
        let dstat = Dstat::spawn(&sim, vec![dev.clone()], Duration::from_secs(1));
        let stop = dstat.stop.clone();
        sim.spawn("workload", move || {
            // ~100 MiB/s for 3 seconds: 10 MiB every ~0.1 s.
            for _ in 0..30 {
                dev.transfer(Dir::Read, 0, 10 << 20).unwrap();
                simrt::sleep(Duration::from_millis(95));
            }
            simrt::sleep(Duration::from_millis(500));
            stop.set();
        });
        sim.run();
        let samples = dstat.samples();
        assert!(samples.len() >= 3, "got {} samples", samples.len());
        let first = &samples[0];
        let mib = first.read_mib_per_s(Duration::from_secs(1));
        assert!(
            (80.0..=120.0).contains(&mib),
            "expected ~100 MiB/s, got {mib:.1}"
        );
        assert_eq!(first.total_write(), 0);
    }

    #[test]
    fn mean_bandwidth_over_window() {
        let sim = Sim::new();
        let dev = Device::new(DeviceSpec::optane("nvme0"));
        let dstat = Dstat::spawn(&sim, vec![dev.clone()], Duration::from_secs(1));
        let stop = dstat.stop.clone();
        sim.spawn("workload", move || {
            for _ in 0..4 {
                dev.transfer(Dir::Read, 0, 50 << 20).unwrap();
                simrt::sleep(Duration::from_millis(1000));
            }
            stop.set();
        });
        sim.run();
        let mean = dstat.mean_read_mib_per_s(SimTime::ZERO, SimTime::from_secs_f64(10.0));
        assert!((40.0..=60.0).contains(&mean), "got {mean:.1}");
    }

    #[test]
    fn spine_attachment_reports_syscall_bytes() {
        let sim = Sim::new();
        let bus = ProbeBus::new();
        let dev = Device::new(DeviceSpec::optane("nvme0"));
        let dstat = Dstat::spawn(&sim, vec![dev], Duration::from_secs(1));
        dstat.attach_spine(&bus);
        let stop = dstat.stop.clone();
        let bus2 = bus.clone();
        sim.spawn("workload", move || {
            // 1 MiB of syscall-level reads per 100 ms: all page-cache hits,
            // so the device columns stay at zero while the spine sees them.
            for _ in 0..25 {
                let t = simrt::now();
                bus2.emit(IoEvent {
                    task: simrt::current_task(),
                    pid: 0,
                    t0: t,
                    t1: t,
                    origin: probe::Origin::App,
                    target: probe::intern("/mnt/cached"),
                    kind: EventKind::Read {
                        fd: 3,
                        offset: 0,
                        len: 1 << 20,
                    },
                });
                simrt::sleep(Duration::from_millis(100));
            }
            stop.set();
        });
        sim.run();
        let samples = dstat.samples();
        assert!(samples.len() >= 2, "got {} samples", samples.len());
        assert_eq!(samples[0].sys_read_bytes, 10 << 20);
        assert_eq!(samples[0].sys_write_bytes, 0);
        assert_eq!(samples[0].total_read(), 0, "no media traffic");
    }

    #[test]
    fn rank_spines_attribute_traffic_per_rank() {
        let sim = Sim::new();
        let dev = Device::new(DeviceSpec::optane("nvme0"));
        let dstat = Dstat::spawn(&sim, vec![dev], Duration::from_secs(1));
        let buses: Vec<ProbeBus> = (0..2).map(|_| ProbeBus::new()).collect();
        dstat.attach_rank_spine(0, &buses[0]);
        dstat.attach_rank_spine(1, &buses[1]);
        let stop = dstat.stop.clone();
        let emit = |bus: &ProbeBus, len: u64| {
            let t = simrt::now();
            bus.emit(IoEvent {
                task: simrt::current_task(),
                pid: 0,
                t0: t,
                t1: t,
                origin: probe::Origin::App,
                target: probe::intern("/mnt/shard"),
                kind: EventKind::Read {
                    fd: 3,
                    offset: 0,
                    len,
                },
            });
        };
        sim.spawn("workload", move || {
            // Rank 0 reads 3 MiB/interval, rank 1 reads 1 MiB/interval.
            for _ in 0..25 {
                emit(&buses[0], 3 << 20);
                emit(&buses[1], 1 << 20);
                simrt::sleep(Duration::from_millis(100));
            }
            stop.set();
        });
        sim.run();
        let samples = dstat.samples();
        assert!(samples.len() >= 2, "got {} samples", samples.len());
        let s = &samples[0];
        assert_eq!(s.rank_read(0), 30 << 20);
        assert_eq!(s.rank_read(1), 10 << 20);
        assert_eq!(s.rank_write(0), 0);
        // Attribution is complete: rank columns sum to the aggregate
        // spine column once it is also attached... here it is not, so
        // the aggregate stays zero while rank columns carry the split.
        assert_eq!(s.sys_read_bytes, 0);
        assert_eq!(s.rank_read(7), 0, "unattached rank reads as zero");
    }

    #[test]
    fn shard_spines_attribute_traffic_per_rank_group() {
        let sim = Sim::new();
        let dev = Device::new(DeviceSpec::optane("nvme0"));
        let dstat = Dstat::spawn(&sim, vec![dev], Duration::from_secs(1));
        let buses: Vec<ProbeBus> = (0..2).map(|_| ProbeBus::new()).collect();
        dstat.attach_shard_spine(0, &buses[0]);
        dstat.attach_shard_spine(1, &buses[1]);
        dstat.attach_shard_spine(1, &buses[0]); // duplicate id: ignored
        let stop = dstat.stop.clone();
        let emit = |bus: &ProbeBus, len: u64| {
            let t = simrt::now();
            bus.emit(IoEvent {
                task: simrt::current_task(),
                pid: 0,
                t0: t,
                t1: t,
                origin: probe::Origin::App,
                target: probe::intern("/mnt/shard"),
                kind: EventKind::Write {
                    fd: 3,
                    offset: 0,
                    len,
                },
            });
        };
        sim.spawn("workload", move || {
            // Shard 0's ranks write 2 MiB/interval, shard 1's 1 MiB.
            for _ in 0..25 {
                emit(&buses[0], 2 << 20);
                emit(&buses[1], 1 << 20);
                simrt::sleep(Duration::from_millis(100));
            }
            stop.set();
        });
        sim.run();
        let samples = dstat.samples();
        assert!(samples.len() >= 2, "got {} samples", samples.len());
        let s = &samples[0];
        assert_eq!(s.shard_write(0), 20 << 20);
        assert_eq!(s.shard_write(1), 10 << 20);
        assert_eq!(s.shard_read(0), 0);
        assert_eq!(s.shard_read(9), 0, "unattached shard reads as zero");
    }

    #[test]
    fn rank_columns_cap_at_max() {
        let sim = Sim::new();
        let dev = Device::new(DeviceSpec::optane("nvme0"));
        let dstat = Dstat::spawn(&sim, vec![dev], Duration::from_secs(1));
        let bus = ProbeBus::new();
        for rank in 0..MAX_RANK_COLUMNS as u32 {
            assert!(dstat.attach_rank_spine(rank, &bus));
        }
        assert!(
            !dstat.attach_rank_spine(MAX_RANK_COLUMNS as u32, &bus),
            "column {MAX_RANK_COLUMNS} refused"
        );
        assert!(
            dstat.attach_rank_spine(3, &bus),
            "re-attaching an existing rank still reports attached"
        );
        let stop = dstat.stop.clone();
        sim.spawn("t", move || stop.set());
        sim.run();
    }

    #[test]
    fn stop_ends_sampler_promptly() {
        let sim = Sim::new();
        let dev = Device::new(DeviceSpec::hdd("hdd0"));
        let dstat = Dstat::spawn(&sim, vec![dev], Duration::from_secs(1));
        let stop = dstat.stop.clone();
        sim.spawn("main", move || {
            simrt::sleep(Duration::from_millis(2500));
            stop.set();
        });
        sim.run();
        assert!(sim.now() < SimTime::from_secs_f64(3.1));
        assert_eq!(dstat.samples().len(), 2);
    }

    #[test]
    fn stop_between_ticks_keeps_samples_and_final_clock() {
        // Three reads, each followed by 0.9 s idle, then stop at about
        // 2.71 s: two full intervals are sampled, and the run ends at the
        // stop, not at the 3 s tick. The figures match the earlier
        // stackless sampler's.
        let sim = Sim::new();
        let dev = Device::new(DeviceSpec::optane("nvme0"));
        let dstat = Dstat::spawn(&sim, vec![dev.clone()], Duration::from_secs(1));
        let stop = dstat.stop.clone();
        sim.spawn("main", move || {
            for mib in [8u64, 16, 4] {
                dev.transfer(Dir::Read, 0, mib << 20).unwrap();
                simrt::sleep(Duration::from_millis(900));
            }
            stop.set();
        });
        sim.run();
        let got: Vec<(u64, Vec<u64>, Vec<u64>)> = dstat
            .samples()
            .iter()
            .map(|s| (s.t.as_nanos(), s.read_bytes.clone(), s.write_bytes.clone()))
            .collect();
        assert_eq!(
            got,
            vec![
                (1_000_000_000, vec![24 << 20], vec![0]),
                (2_000_000_000, vec![4 << 20], vec![0]),
            ]
        );
        assert_eq!(sim.now().as_nanos(), 2_711_230_000);
    }
}
