//! Property tests for the extension subsystems: cross-rank reduction,
//! TFRecord packing, and the dynamic-parallelism knob.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use tf_darshan::darshan::{reduce_job, DxtOp, DxtSegment, PosixCounter as P, PosixRecord};
use tf_darshan::tfdarshan::{RankSession, SnapshotDiff};

fn arb_record(id: u64) -> impl Strategy<Value = PosixRecord> {
    (0i64..1000, 0i64..1_000_000, 0i64..1_000_000, 0i64..100).prop_map(
        move |(reads, bytes, max_byte, opens)| {
            let mut r = PosixRecord::new(id);
            *r.get_mut(P::POSIX_OPENS) = opens;
            *r.get_mut(P::POSIX_READS) = reads;
            *r.get_mut(P::POSIX_BYTES_READ) = bytes;
            *r.get_mut(P::POSIX_MAX_BYTE_READ) = max_byte;
            *r.get_mut(P::POSIX_SEQ_READS) = reads / 2;
            r
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Reduction is order-insensitive and grouping-insensitive for the
    /// additive and max counters (MPI reduce semantics).
    #[test]
    fn rank_reduction_is_associative_and_commutative(
        recs in prop::collection::vec(arb_record(42), 2..8),
        split in 1usize..7,
    ) {
        // One rank listing the same file repeatedly: `reduce_job` left-folds
        // the records into one.
        let merge = |recs: &[PosixRecord]| reduce_job(&[recs.to_vec()]).remove(0);
        let split = split.min(recs.len() - 1);
        let all_at_once = merge(&recs);
        // Merge in two groups, then merge the merged pair.
        let left = merge(&recs[..split]);
        let right = merge(&recs[split..]);
        let grouped = merge(&[left, right]);
        let mut rev = recs.clone();
        rev.reverse();
        let reversed = merge(&rev);
        for c in [
            P::POSIX_OPENS,
            P::POSIX_READS,
            P::POSIX_BYTES_READ,
            P::POSIX_MAX_BYTE_READ,
            P::POSIX_SEQ_READS,
        ] {
            prop_assert_eq!(all_at_once.get(c), grouped.get(c), "{} grouped", c.name());
            prop_assert_eq!(all_at_once.get(c), reversed.get(c), "{} reversed", c.name());
        }
    }

    /// Job reduction conserves additive totals across arbitrary rank
    /// partitions of the records.
    #[test]
    fn job_reduction_conserves_totals(
        files in prop::collection::vec(1u64..6, 1..24),
        ranks in 1usize..5,
    ) {
        // Build per-rank record lists: each entry is (rank, file) with a
        // deterministic payload derived from its index.
        let mut per_rank: Vec<Vec<PosixRecord>> = vec![Vec::new(); ranks];
        let mut expect_reads = 0i64;
        for (i, f) in files.iter().enumerate() {
            let mut r = PosixRecord::new(*f);
            *r.get_mut(P::POSIX_READS) = i as i64 + 1;
            *r.get_mut(P::POSIX_BYTES_READ) = (i as i64 + 1) * 100;
            expect_reads += i as i64 + 1;
            per_rank[i % ranks].push(r);
        }
        let job = reduce_job(&per_rank);
        let total_reads: i64 = job.iter().map(|r| r.get(P::POSIX_READS)).sum();
        let total_bytes: i64 = job.iter().map(|r| r.get(P::POSIX_BYTES_READ)).sum();
        prop_assert_eq!(total_reads, expect_reads);
        prop_assert_eq!(total_bytes, expect_reads * 100);
        // One record per distinct file id.
        let mut ids: Vec<u64> = files.clone();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(job.len(), ids.len());
    }

    /// TFRecord pack → read returns exactly the payload bytes, for any
    /// size mix and shard split.
    #[test]
    fn tfrecord_roundtrip_conserves_payload(
        sizes in prop::collection::vec(1u64..200_000, 1..30),
        shard_mb in 1u64..4,
    ) {
        use tf_darshan::storage::{Device, DeviceSpec, FileSystem, LocalFs, LocalFsParams,
                                  PageCache, StorageStack};
        use tf_darshan::tfsim::{TfRecordDataset, TfRuntime};

        let sim = simrt::Sim::new();
        let fs = LocalFs::new(
            Device::new(DeviceSpec::optane("nvme0")),
            Arc::new(PageCache::new(1 << 30)),
            LocalFsParams::default(),
        );
        let stack = StorageStack::new();
        stack.mount("/d", fs.clone() as Arc<dyn FileSystem>);
        let rt = TfRuntime::new(tf_darshan::posix::Process::new(stack), sim.clone(), 4);
        let sizes2 = sizes.clone();
        let h = sim.spawn("t", move || {
            // Source files.
            let files: Vec<String> = sizes2
                .iter()
                .enumerate()
                .map(|(i, &s)| {
                    let path = format!("/d/src/{i}");
                    fs.create_synthetic(&path, s, i as u64).unwrap();
                    path
                })
                .collect();
            let shards =
                tf_darshan::tfsim::pack_files(&rt, &files, shard_mb << 20, "/d/packed").unwrap();
            let n_records: usize = shards.iter().map(|s| s.len()).sum();
            let ds = TfRecordDataset::new(shards).batch(4);
            let mut it = ds.iterate(&rt);
            let mut bytes = 0u64;
            let mut count = 0usize;
            while let Some(b) = it.next() {
                bytes += b.bytes;
                count += b.len;
            }
            (n_records, count, bytes)
        });
        sim.run();
        let (n_records, count, bytes) = h.join();
        prop_assert_eq!(n_records, sizes.len());
        prop_assert_eq!(count, sizes.len());
        prop_assert_eq!(bytes, sizes.iter().sum::<u64>());
    }

    /// Dynamic parallelism: for any target sequence, every element is
    /// processed exactly once and concurrency never exceeds the max.
    #[test]
    fn dynamic_parallelism_is_safe_under_target_changes(
        targets in prop::collection::vec(1usize..6, 1..8),
        n_files in 8usize..40,
    ) {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use tf_darshan::tfsim::{Dataset, DynamicParallelism, Element, Parallelism, TfRuntime};

        let sim = simrt::Sim::new();
        let stack = tf_darshan::storage::StorageStack::new();
        let rt = TfRuntime::new(tf_darshan::posix::Process::new(stack), sim.clone(), 8);
        let ctl = DynamicParallelism::new(targets[0], 6);
        let peak = Arc::new(AtomicUsize::new(0));
        let cur = Arc::new(AtomicUsize::new(0));
        let done = Arc::new(AtomicUsize::new(0));
        {
            let (p2, c2, d2) = (peak.clone(), cur.clone(), done.clone());
            let map: tf_darshan::tfsim::MapFn = Arc::new(move |_ctx, index, _path| {
                let c = c2.fetch_add(1, Ordering::SeqCst) + 1;
                p2.fetch_max(c, Ordering::SeqCst);
                simrt::sleep(Duration::from_micros(50));
                c2.fetch_sub(1, Ordering::SeqCst);
                d2.fetch_add(1, Ordering::SeqCst);
                Element { index, bytes: 1 }
            });
            let ctl2 = ctl.clone();
            let targets2 = targets.clone();
            let files: Vec<String> = (0..n_files).map(|i| format!("/f{i}")).collect();
            sim.spawn("consumer", move || {
                let ds = Dataset::from_files(files)
                    .map(map, Parallelism::Dynamic(ctl2.clone()))
                    .batch(2);
                let mut it = ds.iterate(&rt);
                let mut i = 0;
                while it.next().is_some() {
                    // Retarget as batches arrive.
                    ctl2.set_target(targets2[i % targets2.len()]);
                    i += 1;
                }
            });
        }
        sim.run();
        prop_assert_eq!(done.load(std::sync::atomic::Ordering::SeqCst), n_files);
        prop_assert!(peak.load(std::sync::atomic::Ordering::SeqCst) <= 6);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Incremental extraction is lossless: an arbitrary interleaving of
    /// I/O and incremental `snapshot()` calls yields record blocks
    /// byte-identical (counters incl. histograms and ACCESS1..4,
    /// fcounters, names, DXT) to replaying the same ops on a fresh
    /// runtime and extracting once at the end — the dirty-set engine
    /// loses nothing and double-counts nothing.
    #[test]
    fn incremental_snapshots_equal_one_shot_extraction(
        ops in prop::collection::vec(
            (0usize..4, 0u8..6, 1u64..9_000, 1u64..500), 1..120),
    ) {
        use simrt::SimTime;
        use tf_darshan::darshan::{DarshanConfig, DarshanRuntime};

        let sim = simrt::Sim::new();
        let ops2 = ops.clone();
        let h = sim.spawn("t", move || {
            let mk = || {
                DarshanRuntime::new(DarshanConfig {
                    per_op_overhead: Duration::ZERO,
                    new_record_overhead: Duration::ZERO,
                    snapshot_cost_per_record: Duration::ZERO,
                    ..Default::default()
                })
            };
            let live = mk();
            let replay = mk();
            let t0 = SimTime::from_nanos(0);
            let mut ids = Vec::new();
            let mut sids = Vec::new();
            for f in 0..4 {
                let path = format!("/d/f{f}");
                ids.push((
                    live.posix_open(&path, t0, t0).unwrap(),
                    replay.posix_open(&path, t0, t0).unwrap(),
                ));
                let spath = format!("/d/s{f}");
                sids.push((
                    live.stdio_open(&spath, t0, t0).unwrap(),
                    replay.stdio_open(&spath, t0, t0).unwrap(),
                ));
            }
            let mut offs = [0u64; 4];
            for (i, (f, kind, len, dur_us)) in ops2.into_iter().enumerate() {
                // Synthetic timeline: monotonic starts, randomized
                // durations, so DXT end times arrive out of order too.
                let a = SimTime::from_nanos((i as u64 + 1) * 1_000_000);
                let b = SimTime::from_nanos((i as u64 + 1) * 1_000_000 + dur_us * 1_000);
                let (lid, rid) = ids[f];
                match kind {
                    0 | 1 => {
                        // Sequential reads with occasional back-jumps
                        // (exercises SEQ/CONSEC and the histograms).
                        let off = if kind == 0 { offs[f] } else { offs[f] / 2 };
                        live.posix_read(lid, off, len, a, b);
                        replay.posix_read(rid, off, len, a, b);
                        offs[f] = off + len;
                    }
                    2 => {
                        live.posix_write(lid, offs[f], len, a, b);
                        replay.posix_write(rid, offs[f], len, a, b);
                        offs[f] += len;
                    }
                    3 => {
                        live.posix_meta(lid, P::POSIX_STATS, a, b);
                        replay.posix_meta(rid, P::POSIX_STATS, a, b);
                    }
                    4 => {
                        let (ls, rs) = sids[f];
                        live.stdio_write(ls, offs[f], len, a, b);
                        replay.stdio_write(rs, offs[f], len, a, b);
                    }
                    _ => {
                        // Incremental extraction on the live runtime only.
                        live.snapshot();
                    }
                }
            }
            let dxt_live: Vec<_> = ids.iter().map(|&(l, _)| live.dxt_of(l)).collect();
            let dxt_replay: Vec<_> = ids.iter().map(|&(_, r)| replay.dxt_of(r)).collect();
            (live.snapshot(), replay.snapshot(), dxt_live, dxt_replay)
        });
        sim.run();
        let (live, one_shot, dxt_live, dxt_replay) = h.join();

        prop_assert_eq!(&*live.names, &*one_shot.names);
        prop_assert_eq!(live.posix.len(), one_shot.posix.len());
        for (l, r) in live.posix.iter().zip(one_shot.posix.iter()) {
            prop_assert_eq!(l.rec_id, r.rec_id);
            prop_assert_eq!(l.counters, r.counters);
            prop_assert_eq!(l.fcounters, r.fcounters);
        }
        prop_assert_eq!(live.stdio.len(), one_shot.stdio.len());
        for (l, r) in live.stdio.iter().zip(one_shot.stdio.iter()) {
            prop_assert_eq!(l.rec_id, r.rec_id);
            prop_assert_eq!(l.counters, r.counters);
            prop_assert_eq!(l.fcounters, r.fcounters);
        }
        prop_assert_eq!(live.dxt_segments, one_shot.dxt_segments);
        for (l, r) in dxt_live.iter().zip(dxt_replay.iter()) {
            prop_assert_eq!(l.len(), r.len());
            for (x, y) in l.iter().zip(r.iter()) {
                prop_assert_eq!(
                    (x.op, x.offset, x.length, x.start.to_bits(), x.end.to_bits()),
                    (y.op, y.offset, y.length, y.start.to_bits(), y.end.to_bits())
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Job-level reduction (PR 5): ws==1 byte-identity and shared-record merging
// ---------------------------------------------------------------------------

/// A record with at least one read, so it survives the per-file filter.
fn arb_active_record(id: u64) -> impl Strategy<Value = PosixRecord> {
    (1i64..1000, 1i64..1_000_000, 0i64..1_000_000, 1i64..100).prop_map(
        move |(reads, bytes, max_byte, opens)| {
            let mut r = PosixRecord::new(id);
            *r.get_mut(P::POSIX_OPENS) = opens;
            *r.get_mut(P::POSIX_READS) = reads;
            *r.get_mut(P::POSIX_BYTES_READ) = bytes;
            *r.get_mut(P::POSIX_MAX_BYTE_READ) = max_byte;
            *r.get_mut(P::POSIX_SEQ_READS) = reads / 2;
            r
        },
    )
}

fn arb_dxt(rank: u32) -> impl Strategy<Value = (u64, DxtSegment)> {
    (
        0u64..4,
        0u64..1_000_000,
        1u64..65536,
        0.0f64..1.0,
        0.0f64..1.0,
    )
        .prop_map(move |(rec, offset, length, t, d)| {
            let op = if length % 2 == 0 {
                DxtOp::Read
            } else {
                DxtOp::Write
            };
            (
                rec,
                DxtSegment {
                    op,
                    offset,
                    length,
                    start: t,
                    end: t + d,
                    rank,
                },
            )
        })
}

fn session_of(rank: u32, recs: Vec<PosixRecord>, dxt: Vec<(u64, DxtSegment)>) -> RankSession {
    let names = recs
        .iter()
        .map(|r| (r.rec_id, format!("/data/rec{}", r.rec_id)))
        .collect();
    RankSession {
        rank,
        diff: SnapshotDiff {
            window: (0.0, 2.0),
            posix: recs,
            stdio: Vec::new(),
            names: Arc::new(names),
            partial: false,
        },
        dxt,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The refactor is behaviour-preserving: reducing a single rank's
    /// session yields the single-process report byte for byte, for
    /// arbitrary record sets and DXT timelines.
    #[test]
    fn ws1_job_reduction_is_byte_identical(
        recs in prop::collection::vec(arb_active_record(0), 1..6),
        dxt in prop::collection::vec(arb_dxt(0), 0..12),
    ) {
        let recs: Vec<PosixRecord> = recs
            .into_iter()
            .enumerate()
            .map(|(i, mut r)| {
                r.rec_id = 100 + i as u64;
                r
            })
            .collect();
        let session = session_of(0, recs, dxt);
        let single = session.report();
        let (job, stats) = reduce_job_sessions_tree(&[session], 1, &TreeReduceConfig::default());
        prop_assert_eq!((stats.leaves, stats.levels, stats.pair_merges), (1, 0, 0));
        prop_assert_eq!(stats.modeled, Duration::ZERO);
        prop_assert_eq!(job.world_size, 1);
        prop_assert_eq!(&job.job.to_json(), &single.to_json());
        prop_assert_eq!(&job.per_rank[0].to_json(), &single.to_json());
    }

    /// Shared records merge with fold semantics: for a record id seen by
    /// every rank, the job view's per-file row carries the sums of the
    /// additive counters and the max of the byte extremum, exactly as a
    /// brute-force fold over the per-rank records computes them; private
    /// records pass through untouched.
    #[test]
    fn merged_shared_records_equal_brute_force_fold(
        shared in prop::collection::vec(arb_active_record(42), 2..5),
        private in arb_active_record(7),
        owner in 0u32..4,
    ) {
        let owner = owner.min(shared.len() as u32 - 1);
        let sessions: Vec<RankSession> = shared
            .iter()
            .enumerate()
            .map(|(r, rec)| {
                let mut recs = vec![rec.clone()];
                if r as u32 == owner {
                    let mut p = private.clone();
                    p.rec_id = 7;
                    recs.push(p);
                }
                recs.sort_by_key(|x| x.rec_id);
                session_of(r as u32, recs, Vec::new())
            })
            .collect();
        let (job, _) = reduce_job_sessions_tree(
            &sessions,
            sessions.len() as u32,
            &TreeReduceConfig::default(),
        );
        prop_assert_eq!(job.world_size as usize, sessions.len());

        let row = job
            .job
            .files
            .iter()
            .find(|f| f.path == "/data/rec42")
            .expect("shared record present once");
        let reads: i64 = shared.iter().map(|r| r.get(P::POSIX_READS)).sum();
        let bytes: i64 = shared.iter().map(|r| r.get(P::POSIX_BYTES_READ)).sum();
        let max_byte: i64 = shared.iter().map(|r| r.get(P::POSIX_MAX_BYTE_READ)).max().unwrap();
        prop_assert_eq!(row.reads, reads as u64, "reads sum across ranks");
        prop_assert_eq!(row.bytes_read, bytes as u64, "bytes sum across ranks");
        prop_assert_eq!(row.apparent_size, max_byte as u64 + 1, "extremum is the max");
        prop_assert_eq!(
            job.job.files.iter().filter(|f| f.path == "/data/rec42").count(),
            1,
            "one merged row, not one per rank"
        );

        // The private record reaches the job view unchanged.
        let prow = job
            .job
            .files
            .iter()
            .find(|f| f.path == "/data/rec7")
            .expect("private record present");
        prop_assert_eq!(prow.bytes_read, private.get(P::POSIX_BYTES_READ) as u64);
        // ... and only its owner's rank view has it.
        for (r, view) in job.per_rank.iter().enumerate() {
            prop_assert_eq!(
                view.files.iter().any(|f| f.path == "/data/rec7"),
                r as u32 == owner
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Tree reduction (PR 10): log-depth reduce ≡ flat reduce, byte for byte
// ---------------------------------------------------------------------------

use tf_darshan::darshan::reduce::{Fold, Reducible};
use tf_darshan::darshan::{
    PosixFCounter as FP, StdioCounter as S, StdioFCounter as SF, StdioRecord,
};
use tf_darshan::tfdarshan::{
    analyze, per_file, reduce_job_sessions_tree, JobReport, TfDarshanReport, TreeReduceConfig,
};

/// A record exercising every field class the reduction touches: additive
/// counters, byte extrema, the four common-access slots (the bounded
/// histogram whose eviction order makes naive pairwise merging
/// non-associative), timestamp pairs, and the order-sensitive cumulative
/// time floats.
fn arb_fleet_record(id: u64) -> impl Strategy<Value = PosixRecord> {
    (
        (1i64..1000, 1i64..1_000_000, 0i64..1_000_000, 1i64..100),
        prop::collection::vec((1i64..1_000_000, 1i64..50), 0..4),
        (
            0.001f64..100.0,
            0.0f64..2.0,
            0.0f64..2.0,
            0.0f64..2.0,
            0.0f64..0.5,
        ),
    )
        .prop_map(
            move |((reads, bytes, max_byte, opens), slots, (t0, rt, wt, mt, maxr))| {
                let mut r = PosixRecord::new(id);
                *r.get_mut(P::POSIX_OPENS) = opens;
                *r.get_mut(P::POSIX_READS) = reads;
                *r.get_mut(P::POSIX_BYTES_READ) = bytes;
                *r.get_mut(P::POSIX_MAX_BYTE_READ) = max_byte;
                *r.get_mut(P::POSIX_SEQ_READS) = reads / 2;
                let slot_c = [
                    (P::POSIX_ACCESS1_ACCESS, P::POSIX_ACCESS1_COUNT),
                    (P::POSIX_ACCESS2_ACCESS, P::POSIX_ACCESS2_COUNT),
                    (P::POSIX_ACCESS3_ACCESS, P::POSIX_ACCESS3_COUNT),
                    (P::POSIX_ACCESS4_ACCESS, P::POSIX_ACCESS4_COUNT),
                ];
                for (i, (sz, cnt)) in slots.iter().enumerate() {
                    *r.get_mut(slot_c[i].0) = *sz;
                    *r.get_mut(slot_c[i].1) = *cnt;
                }
                *r.fget_mut(FP::POSIX_F_OPEN_START_TIMESTAMP) = t0;
                *r.fget_mut(FP::POSIX_F_OPEN_END_TIMESTAMP) = t0 + 0.001;
                *r.fget_mut(FP::POSIX_F_READ_START_TIMESTAMP) = t0 + 0.01;
                *r.fget_mut(FP::POSIX_F_READ_END_TIMESTAMP) = t0 + 0.01 + rt;
                *r.fget_mut(FP::POSIX_F_READ_TIME) = rt;
                *r.fget_mut(FP::POSIX_F_WRITE_TIME) = wt;
                *r.fget_mut(FP::POSIX_F_META_TIME) = mt;
                *r.fget_mut(FP::POSIX_F_MAX_READ_TIME) = maxr;
                r
            },
        )
}

/// Fold `recs` up a balanced binary tree with the pairwise operators.
fn tree_fold<R: Reducible>(recs: &[R]) -> R {
    fn build<R: Reducible>(recs: &[R]) -> Fold<R> {
        if recs.len() == 1 {
            Fold::leaf(recs[0].clone())
        } else {
            let mid = recs.len() / 2;
            let mut left = build(&recs[..mid]);
            left.absorb(build(&recs[mid..]));
            left
        }
    }
    build(recs).finish()
}

/// A STDIO record with every counter set and, per timestamp pair, a
/// chance of a zero first timestamp (the min-nonzero rule).
fn arb_stdio_record(id: u64) -> impl Strategy<Value = StdioRecord> {
    (
        prop::collection::vec(0i64..1_000_000, S::COUNT),
        (0.0f64..100.0, 0.0f64..100.0, any::<bool>()),
        (0.0f64..2.0, 0.0f64..2.0, 0.0f64..2.0),
    )
        .prop_map(move |(counters, (open, close, zero_open), times)| {
            let mut r = StdioRecord::new(id);
            r.counters.copy_from_slice(&counters);
            let open = if zero_open { 0.0 } else { open };
            *r.fget_mut(SF::STDIO_F_OPEN_START_TIMESTAMP) = open;
            *r.fget_mut(SF::STDIO_F_OPEN_END_TIMESTAMP) = open + 0.001;
            *r.fget_mut(SF::STDIO_F_CLOSE_START_TIMESTAMP) = close;
            *r.fget_mut(SF::STDIO_F_CLOSE_END_TIMESTAMP) = close + 0.002;
            *r.fget_mut(SF::STDIO_F_READ_TIME) = times.0;
            *r.fget_mut(SF::STDIO_F_WRITE_TIME) = times.1;
            *r.fget_mut(SF::STDIO_F_META_TIME) = times.2;
            r
        })
}

// ---------------------------------------------------------------------------
// Flat reference reductions: test-only oracles for the pairwise folds.
// Each is the straightforward flat left fold the library once shipped;
// the production `Fold`/`FoldMap`/tree reductions must match them bit for
// bit.
// ---------------------------------------------------------------------------

/// Merge one file's POSIX records, in rank order, with a flat left fold.
fn flat_merge_posix(records: &[PosixRecord]) -> PosixRecord {
    let mut out = PosixRecord::new(records[0].rec_id);
    let slots = [
        (P::POSIX_ACCESS1_ACCESS, P::POSIX_ACCESS1_COUNT),
        (P::POSIX_ACCESS2_ACCESS, P::POSIX_ACCESS2_COUNT),
        (P::POSIX_ACCESS3_ACCESS, P::POSIX_ACCESS3_COUNT),
        (P::POSIX_ACCESS4_ACCESS, P::POSIX_ACCESS4_COUNT),
    ];
    for r in records {
        for c in P::ALL {
            let i = c as usize;
            if matches!(c, P::POSIX_MAX_BYTE_READ | P::POSIX_MAX_BYTE_WRITTEN) {
                out.counters[i] = out.counters[i].max(r.counters[i]);
            } else if !slots.iter().any(|&(a, n)| c == a || c == n) {
                out.counters[i] += r.counters[i];
            }
        }
        // Re-accumulate common access sizes one access at a time.
        for (a, cnt) in slots {
            for _ in 0..r.get(cnt).max(0) {
                out.access_sizes.add(r.get(a) as u64);
            }
        }
        for (start, end) in [
            (
                FP::POSIX_F_OPEN_START_TIMESTAMP,
                FP::POSIX_F_OPEN_END_TIMESTAMP,
            ),
            (
                FP::POSIX_F_READ_START_TIMESTAMP,
                FP::POSIX_F_READ_END_TIMESTAMP,
            ),
            (
                FP::POSIX_F_WRITE_START_TIMESTAMP,
                FP::POSIX_F_WRITE_END_TIMESTAMP,
            ),
            (
                FP::POSIX_F_CLOSE_START_TIMESTAMP,
                FP::POSIX_F_CLOSE_END_TIMESTAMP,
            ),
        ] {
            let s = r.fget(start);
            if s > 0.0 {
                let cur = out.fget(start);
                *out.fget_mut(start) = if cur == 0.0 { s } else { cur.min(s) };
            }
            *out.fget_mut(end) = out.fget(end).max(r.fget(end));
        }
        for t in [
            FP::POSIX_F_READ_TIME,
            FP::POSIX_F_WRITE_TIME,
            FP::POSIX_F_META_TIME,
        ] {
            *out.fget_mut(t) += r.fget(t);
        }
        for t in [FP::POSIX_F_MAX_READ_TIME, FP::POSIX_F_MAX_WRITE_TIME] {
            *out.fget_mut(t) = out.fget(t).max(r.fget(t));
        }
    }
    out.reduce_common_accesses();
    out
}

/// Merge one file's STDIO records, in rank order, with a flat left fold.
fn flat_merge_stdio(records: &[StdioRecord]) -> StdioRecord {
    let mut out = StdioRecord::new(records[0].rec_id);
    for r in records {
        for c in S::ALL {
            let i = c as usize;
            if matches!(c, S::STDIO_MAX_BYTE_READ | S::STDIO_MAX_BYTE_WRITTEN) {
                out.counters[i] = out.counters[i].max(r.counters[i]);
            } else {
                out.counters[i] += r.counters[i];
            }
        }
        for (start, end) in [
            (
                SF::STDIO_F_OPEN_START_TIMESTAMP,
                SF::STDIO_F_OPEN_END_TIMESTAMP,
            ),
            (
                SF::STDIO_F_CLOSE_START_TIMESTAMP,
                SF::STDIO_F_CLOSE_END_TIMESTAMP,
            ),
        ] {
            let s = r.fget(start);
            if s > 0.0 {
                let cur = out.fget(start);
                *out.fget_mut(start) = if cur == 0.0 { s } else { cur.min(s) };
            }
            *out.fget_mut(end) = out.fget(end).max(r.fget(end));
        }
        for t in [
            SF::STDIO_F_READ_TIME,
            SF::STDIO_F_WRITE_TIME,
            SF::STDIO_F_META_TIME,
        ] {
            *out.fget_mut(t) += r.fget(t);
        }
    }
    out
}

/// Group records by id in rank order: rank-private records pass through,
/// shared ones go through `merge`. Output in rec-id order.
fn flat_group<R: Clone>(
    records: impl IntoIterator<Item = R>,
    id: impl Fn(&R) -> u64,
    merge: impl Fn(&[R]) -> R,
) -> Vec<R> {
    let mut groups: std::collections::BTreeMap<u64, Vec<R>> = Default::default();
    for r in records {
        groups.entry(id(&r)).or_default().push(r);
    }
    groups
        .into_values()
        .map(|g| {
            if g.len() == 1 {
                g[0].clone()
            } else {
                merge(&g)
            }
        })
        .collect()
}

/// Reduce per-rank sessions to the job view in one flat pass.
fn flat_reduce_sessions(sessions: &[RankSession], world_size: u32) -> JobReport {
    let posix = flat_group(
        sessions.iter().flat_map(|s| s.diff.posix.iter().cloned()),
        |r| r.rec_id,
        flat_merge_posix,
    );
    let stdio = flat_group(
        sessions.iter().flat_map(|s| s.diff.stdio.iter().cloned()),
        |r| r.rec_id,
        flat_merge_stdio,
    );
    let mut names = std::collections::HashMap::new();
    for s in sessions {
        for (id, name) in s.diff.names.iter() {
            names.entry(*id).or_insert_with(|| name.clone());
        }
    }
    let job_diff = SnapshotDiff {
        window: (
            sessions
                .iter()
                .map(|s| s.diff.window.0)
                .fold(f64::INFINITY, f64::min),
            sessions
                .iter()
                .map(|s| s.diff.window.1)
                .fold(f64::NEG_INFINITY, f64::max),
        ),
        posix,
        stdio,
        names: Arc::new(names),
        partial: sessions.iter().any(|s| s.diff.partial),
    };
    // One timeline; several ranks interleave by completion time, a lone
    // rank keeps its own order.
    let mut dxt: Vec<(u64, DxtSegment)> = sessions
        .iter()
        .flat_map(|s| s.dxt.iter().copied())
        .collect();
    if sessions.len() > 1 {
        dxt.sort_by(|a, b| {
            a.1.end
                .total_cmp(&b.1.end)
                .then(a.1.start.total_cmp(&b.1.start))
                .then(a.1.rank.cmp(&b.1.rank))
        });
    }
    let (io, stdio) = analyze(&job_diff, &dxt);
    JobReport {
        world_size,
        missing_ranks: (0..world_size)
            .filter(|r| sessions.iter().all(|s| s.rank != *r))
            .collect(),
        job: TfDarshanReport {
            window: job_diff.window,
            io,
            stdio,
            files: per_file(&job_diff),
            sanitizer: None,
            scheduler: None,
            explore: None,
        },
        per_rank: sessions.iter().map(|s| s.report()).collect(),
    }
}

fn assert_posix_bitwise(a: &PosixRecord, b: &PosixRecord) {
    prop_assert_eq!(a.rec_id, b.rec_id);
    for c in P::ALL {
        prop_assert_eq!(a.get(c), b.get(c), "{} diverged", c.name());
    }
    for c in FP::ALL {
        prop_assert_eq!(
            a.fget(c).to_bits(),
            b.fget(c).to_bits(),
            "{} diverged: {} vs {}",
            c.name(),
            a.fget(c),
            b.fget(c)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The pairwise fold operators reproduce the flat group merge byte
    /// for byte — every integer counter equal, every float counter
    /// *bitwise* equal (the cumulative-time sums are replayed in rank
    /// order at the root, so even f64 non-associativity cannot show).
    #[test]
    fn pairwise_fold_equals_flat_merge_bitwise(
        recs in prop::collection::vec(arb_fleet_record(42), 1..9),
    ) {
        assert_posix_bitwise(&flat_merge_posix(&recs), &tree_fold(&recs));
    }

    /// The STDIO fold reproduces the flat STDIO merge byte for byte.
    #[test]
    fn stdio_pairwise_fold_equals_flat_merge_bitwise(
        recs in prop::collection::vec(arb_stdio_record(42), 1..9),
    ) {
        let flat = flat_merge_stdio(&recs);
        let tree = tree_fold(&recs);
        for c in S::ALL {
            prop_assert_eq!(flat.get(c), tree.get(c), "{} diverged", c.name());
        }
        for c in SF::ALL {
            prop_assert_eq!(
                flat.fget(c).to_bits(),
                tree.fget(c).to_bits(),
                "{} diverged: {} vs {}",
                c.name(),
                flat.fget(c),
                tree.fget(c)
            );
        }
    }

    /// `reduce_job`'s rank-ordered left fold equals the flat grouping
    /// byte for byte: shared files merge, rank-private singletons pass
    /// through, output in rec-id order.
    #[test]
    fn reduce_job_equals_flat_oracle(
        entries in prop::collection::vec((0usize..5, 0u64..10, arb_fleet_record(0)), 1..30),
    ) {
        let mut per_rank: Vec<Vec<PosixRecord>> = vec![Vec::new(); 5];
        for (rank, id, mut r) in entries {
            if per_rank[rank].iter().all(|x| x.rec_id != id) {
                r.rec_id = id;
                per_rank[rank].push(r);
            }
        }
        let flat = flat_group(per_rank.iter().flatten().cloned(), |r| r.rec_id, flat_merge_posix);
        let job = reduce_job(&per_rank);
        prop_assert_eq!(job.len(), flat.len());
        for (a, b) in flat.iter().zip(&job) {
            assert_posix_bitwise(a, b);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The log-depth job reduction is byte-identical to the flat one —
    /// identical serialized [`tf_darshan::tfdarshan::JobReport`]s (job
    /// view, per-rank views, names, DXT-derived analyses, world size,
    /// missing ranks) — for arbitrary shared/private record mixes at
    /// world sizes 1..=64, including the ws==1 passthrough.
    #[test]
    fn tree_job_reduction_is_byte_identical_to_flat(
        ws in 1usize..65,
        shared in arb_fleet_record(42),
        private in arb_fleet_record(0),
        dxt_per_rank in prop::collection::vec(arb_dxt(0), 0..6),
        arity in 2usize..5,
    ) {
        let sessions: Vec<RankSession> = (0..ws)
            .map(|r| {
                // Every rank touches the shared record (its own mutation of
                // it); odd ranks also carry a private record; rank-tagged
                // DXT segments ride along.
                let mut s = shared.clone();
                *s.get_mut(P::POSIX_READS) += r as i64;
                *s.fget_mut(FP::POSIX_F_READ_TIME) += r as f64 * 0.013;
                let mut recs = vec![s];
                if r % 2 == 1 {
                    let mut p = private.clone();
                    p.rec_id = 1000 + r as u64;
                    recs.push(p);
                }
                let dxt = dxt_per_rank
                    .iter()
                    .map(|(rec, seg)| (*rec, DxtSegment { rank: r as u32, ..*seg }))
                    .collect();
                session_of(r as u32, recs, dxt)
            })
            .collect();

        let flat = flat_reduce_sessions(&sessions, ws as u32);
        let (tree, stats) = reduce_job_sessions_tree(
            &sessions,
            ws as u32,
            &TreeReduceConfig { arity },
        );
        prop_assert_eq!(
            serde_json::to_string(&flat).unwrap(),
            serde_json::to_string(&tree).unwrap(),
            "tree reduce diverged from flat at ws={} arity={}", ws, arity
        );
        prop_assert_eq!(stats.leaves, ws);
        if ws > 1 {
            let expected_levels = (ws as f64).log(arity as f64).ceil() as u32;
            prop_assert!(
                stats.levels <= expected_levels + 1,
                "{} levels for ws={} arity={}", stats.levels, ws, arity
            );
        }
    }

    /// Missing ranks surface instead of silently shrinking the world:
    /// drop a subset of sessions, reduce with the true world size, and
    /// the report lists exactly the dropped ranks (identically for flat
    /// and tree).
    #[test]
    fn missing_ranks_are_surfaced_not_absorbed(
        ws in 2usize..17,
        drop_mask in prop::collection::vec(any::<bool>(), 16),
        rec in arb_fleet_record(42),
    ) {
        // Rank 0 always reports so the session set is never empty.
        let sessions: Vec<RankSession> = (0..ws)
            .filter(|r| *r == 0 || !drop_mask[*r])
            .map(|r| session_of(r as u32, vec![rec.clone()], Vec::new()))
            .collect();
        let expected_missing: Vec<u32> = (1..ws as u32)
            .filter(|r| drop_mask[*r as usize])
            .collect();

        let flat = flat_reduce_sessions(&sessions, ws as u32);
        let (tree, _) = reduce_job_sessions_tree(
            &sessions,
            ws as u32,
            &TreeReduceConfig::default(),
        );
        prop_assert_eq!(flat.world_size, ws as u32);
        prop_assert_eq!(&flat.missing_ranks, &expected_missing);
        prop_assert_eq!(
            serde_json::to_string(&flat).unwrap(),
            serde_json::to_string(&tree).unwrap()
        );
    }
}
