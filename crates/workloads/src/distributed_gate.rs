//! The distributed gate: a 4-rank smoke workload run under the sanitizer.
//!
//! The single-process gate (`iosan_gate`) sweeps the paper's workload
//! shapes; this gate exercises the *distributed* spine instead — N ranks
//! over one Lustre scratch, profiled per rank by [`JobCtx`] and sanitized
//! job-wide on the shared job bus:
//!
//! 1. every rank `pwrite`s its disjoint region of one shared checkpoint
//!    file (parallel Darshan's shared-record case);
//! 2. a barrier — the collective's sync events are the cross-rank
//!    happens-before edge that makes phase 3 race-free;
//! 3. every rank reads the whole checkpoint back plus its private shard,
//!    then joins an allreduce (the gradient exchange).
//!
//! A healthy tree produces **zero findings** and a [`JobReport`] whose
//! shared checkpoint record merged across all ranks into exactly one.
//! CI runs it as `gate -- distributed`; [`verdict`] holds every check.

use std::sync::Arc;

use iosan::{IoSanitizer, SanitizerReport};
use mpi_sim::{MpiWorld, NetworkModel};
use posix_sim::OpenFlags;
use storage_sim::WritePayload;
use tfdarshan::{JobCtx, JobReport, TfDarshanConfig};

use crate::gate::{Gate, Verdict};
use crate::platform::kebnekaise;

/// Shared checkpoint path on the Lustre scratch.
pub const CKPT: &str = "/scratch/dgate/ckpt.bin";
/// Bytes each rank owns in the shared checkpoint.
pub const CHUNK: u64 = 128 << 10;
/// Private shard files per rank.
pub const SHARD_FILES: usize = 4;
/// Bytes per private shard file.
pub const SHARD_FILE_BYTES: u64 = 256 << 10;

/// What the gate produced: the job-level profile plus the sanitizer's
/// verdict over the job bus.
pub struct DistributedGateOutcome {
    /// Ranks that ran.
    pub world_size: usize,
    /// Per-rank sessions reduced to the job view.
    pub report: JobReport,
    /// Findings over the shared job bus (empty on a healthy tree).
    pub sanitizer: SanitizerReport,
}

/// Run the gate workload at `world_size` ranks on a fresh cluster node.
pub fn run_distributed_gate(world_size: usize) -> DistributedGateOutcome {
    assert!(world_size > 0);
    let m = kebnekaise();
    for r in 0..world_size {
        for i in 0..SHARD_FILES {
            let p = format!("/scratch/dgate/rank{r}/f{i}");
            m.stack
                .create_synthetic(&p, SHARD_FILE_BYTES, (r * 17 + i) as u64)
                .unwrap();
        }
    }
    m.stack
        .create_synthetic(CKPT, CHUNK * world_size as u64, 7)
        .unwrap();

    let world = MpiWorld::new(&m.stack, world_size, NetworkModel::default());
    let job = Arc::new(JobCtx::over_world(&world, &TfDarshanConfig::default()));
    let san = IoSanitizer::install(&m.sim, job.job_bus());

    let j2 = job.clone();
    world.spawn_ranks(&m.sim, move |comm| {
        let process = comm.process();
        if comm.rank() == 0 {
            j2.mark_start().expect("tf-darshan attaches on every rank");
        }
        comm.barrier();

        // Phase 1: disjoint writes into the shared checkpoint.
        let fd = process
            .open(
                CKPT,
                OpenFlags {
                    write: true,
                    ..Default::default()
                },
            )
            .unwrap();
        process
            .pwrite(
                fd,
                comm.rank() as u64 * CHUNK,
                WritePayload::Synthetic(CHUNK),
            )
            .unwrap();
        process.fsync(fd).unwrap();
        process.close(fd).unwrap();

        // The collective orders phase 1's writes before phase 2's reads
        // on every rank — without it the cross-rank read/write pairs on
        // the shared file would be genuine races.
        comm.barrier();

        // Phase 2: read the whole checkpoint back, then the private shard.
        let fd = process.open(CKPT, OpenFlags::rdonly()).unwrap();
        let mut off = 0u64;
        loop {
            let n = process.pread(fd, off, 64 << 10, None).unwrap();
            if n == 0 {
                break;
            }
            off += n;
        }
        process.close(fd).unwrap();
        for i in 0..SHARD_FILES {
            let p = format!("/scratch/dgate/rank{}/f{i}", comm.rank());
            let fd = process.open(&p, OpenFlags::rdonly()).unwrap();
            process.read(fd, SHARD_FILE_BYTES, None).unwrap();
            process.close(fd).unwrap();
        }
        comm.allreduce_bytes(1 << 20); // the gradient exchange

        comm.barrier();
        if comm.rank() == 0 {
            j2.mark_stop();
        }
    });
    m.sim.run();

    let report = job.collect().expect("every rank has a session");
    DistributedGateOutcome {
        world_size,
        report,
        sanitizer: san.finalize(),
    }
}

/// Judge the gate: a clean sanitizer, every rank reported and read its
/// whole share, and the shared checkpoint merged into exactly one job
/// record while every rank's own view keeps its slice.
pub fn verdict(out: &DistributedGateOutcome) -> Verdict {
    let (report, ws) = (&out.report, out.world_size);
    let read = report.job.io.bytes_read;
    let mut v = Verdict::new(Gate::Distributed);
    v.summary.push(format!("{ws} ranks read {read} bytes"));
    v.check(out.sanitizer.is_clean(), out.sanitizer.render_ascii());
    let ranks = (report.world_size as usize, report.per_rank.len());
    v.check(ranks == (ws, ws), format!("{ranks:?} ranks reported"));
    // Every rank read the whole checkpoint plus its shard.
    let want = ws as u64 * (CHUNK * ws as u64 + SHARD_FILES as u64 * SHARD_FILE_BYTES);
    v.check(read >= want, format!("read {read} of {want} bytes"));
    let ckpts = report.job.files.iter().filter(|f| f.path == CKPT).count();
    v.check(ckpts == 1, format!("the checkpoint is {ckpts} job records"));
    let per_rank = report.per_rank.iter();
    let sliced = per_rank.filter(|r| r.files.iter().any(|f| f.path == CKPT));
    let sliced = sliced.count();
    v.check(sliced == ws, format!("{sliced} ranks kept a slice"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_is_clean_and_merges_the_shared_checkpoint() {
        let mut out = run_distributed_gate(4);
        let v = verdict(&out);
        assert!(v.passed(), "{}", v.render());

        // The same run with the checkpoint split into two job records fails.
        let files = &mut out.report.job.files;
        files.extend(files.iter().find(|f| f.path == CKPT).cloned());
        let v = verdict(&out);
        assert_eq!(v.failures, ["the checkpoint is 2 job records"]);
    }
}
