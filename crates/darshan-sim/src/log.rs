//! Darshan log file format: writer and parser.
//!
//! Real Darshan defers all statistics post-processing to shutdown, when it
//! reduces records and writes a compressed binary log that `darshan-parser`
//! reads offline. This module implements the analogous artifact so that the
//! "classic Darshan" workflow (Table I: *log analysis: post-execution*,
//! *output: Darshan log*) exists alongside tf-Darshan's in-situ path, and
//! so the ablation benches can compare the two.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic "DSIM" | version u32 | job_start f64 | job_end f64 | nprocs u32
//! names:  count u32, then per name: rec_id u64, len u32, utf8 bytes
//! posix:  partial u8, count u32, then per record:
//!         rec_id u64, counters [i64; N], fcounters [f64; M]
//! stdio:  partial u8, count u32, same shape
//! dxt:    count u32, then per file: rec_id u64, nsegs u32, then per seg:
//!         op u8, rank u32, offset u64, length u64, start f64, end f64
//! ```

use std::collections::HashMap;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::counters::{PosixCounter, PosixRecord, StdioCounter, StdioRecord};
use crate::counters::{PosixFCounter, StdioFCounter};
use crate::runtime::{DxtOp, DxtSegment};

const MAGIC: &[u8; 4] = b"DSIM";
const VERSION: u32 = 2;

/// Encoded sizes of the repeated items: a name entry without its bytes, a
/// POSIX and a STDIO record, a DXT file header, and one DXT segment.
const NAME_HEAD: usize = 8 + 4;
const POSIX_REC: usize = 8 + 8 * (PosixCounter::COUNT + PosixFCounter::COUNT);
const STDIO_REC: usize = 8 + 8 * (StdioCounter::COUNT + StdioFCounter::COUNT);
const DXT_HEAD: usize = 8 + 4;
const DXT_SEG: usize = 1 + 4 + 16 + 16;

/// A fully materialized Darshan log (what shutdown produces and the parser
/// returns).
#[derive(Clone, Debug, Default)]
pub struct DarshanLog {
    /// Job start, seconds (Darshan-relative zero).
    pub job_start: f64,
    /// Job end, seconds.
    pub job_end: f64,
    /// Number of processes (always 1 for non-MPI TensorFlow).
    pub nprocs: u32,
    /// Record-id → path.
    pub names: HashMap<u64, String>,
    /// POSIX records sorted by record id.
    pub posix: Vec<PosixRecord>,
    /// POSIX module ran out of memory.
    pub posix_partial: bool,
    /// STDIO records sorted by record id.
    pub stdio: Vec<StdioRecord>,
    /// STDIO module ran out of memory.
    pub stdio_partial: bool,
    /// DXT segments per record id.
    pub dxt: HashMap<u64, Vec<DxtSegment>>,
}

/// Errors from parsing a log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LogError {
    /// Wrong magic bytes.
    BadMagic,
    /// Unsupported version.
    BadVersion(u32),
    /// Truncated or corrupt payload.
    Truncated,
    /// Non-UTF-8 name record.
    BadName,
}

impl std::fmt::Display for LogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogError::BadMagic => write!(f, "not a Darshan-sim log (bad magic)"),
            LogError::BadVersion(v) => write!(f, "unsupported log version {v}"),
            LogError::Truncated => write!(f, "log truncated or corrupt"),
            LogError::BadName => write!(f, "malformed name record"),
        }
    }
}

impl DarshanLog {
    /// Serialize to bytes.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(4096);
        b.put_slice(MAGIC);
        b.put_u32_le(VERSION);
        b.put_f64_le(self.job_start);
        b.put_f64_le(self.job_end);
        b.put_u32_le(self.nprocs);

        let mut names: Vec<(&u64, &String)> = self.names.iter().collect();
        names.sort();
        b.put_u32_le(names.len() as u32);
        for (id, name) in names {
            b.put_u64_le(*id);
            b.put_u32_le(name.len() as u32);
            b.put_slice(name.as_bytes());
        }

        b.put_u8(self.posix_partial as u8);
        b.put_u32_le(self.posix.len() as u32);
        for r in &self.posix {
            b.put_u64_le(r.rec_id);
            for c in &r.counters {
                b.put_i64_le(*c);
            }
            for c in &r.fcounters {
                b.put_f64_le(*c);
            }
        }

        b.put_u8(self.stdio_partial as u8);
        b.put_u32_le(self.stdio.len() as u32);
        for r in &self.stdio {
            b.put_u64_le(r.rec_id);
            for c in &r.counters {
                b.put_i64_le(*c);
            }
            for c in &r.fcounters {
                b.put_f64_le(*c);
            }
        }

        let mut dxt: Vec<(&u64, &Vec<DxtSegment>)> = self.dxt.iter().collect();
        dxt.sort_by_key(|(id, _)| **id);
        b.put_u32_le(dxt.len() as u32);
        for (id, segs) in dxt {
            b.put_u64_le(*id);
            b.put_u32_le(segs.len() as u32);
            for s in segs {
                b.put_u8(match s.op {
                    DxtOp::Read => 0,
                    DxtOp::Write => 1,
                });
                b.put_u32_le(s.rank);
                b.put_u64_le(s.offset);
                b.put_u64_le(s.length);
                b.put_f64_le(s.start);
                b.put_f64_le(s.end);
            }
        }
        b.freeze()
    }

    /// Parse from bytes. Never trusts a count in the file for more than
    /// the remaining bytes can hold: a corrupt or hostile log fails with
    /// [`LogError::Truncated`] instead of allocating without a bound.
    pub fn decode(mut data: &[u8]) -> Result<DarshanLog, LogError> {
        fn need(data: &[u8], n: usize) -> Result<(), LogError> {
            if data.remaining() < n {
                Err(LogError::Truncated)
            } else {
                Ok(())
            }
        }
        /// Capacity for `count` items of at least `item` bytes each.
        fn cap(data: &[u8], count: usize, item: usize) -> usize {
            count.min(data.remaining() / item)
        }
        need(data, 8)?;
        let mut magic = [0u8; 4];
        data.copy_to_slice(&mut magic);
        if &magic != MAGIC {
            return Err(LogError::BadMagic);
        }
        let version = data.get_u32_le();
        if version != VERSION {
            return Err(LogError::BadVersion(version));
        }
        need(data, 20)?;
        let job_start = data.get_f64_le();
        let job_end = data.get_f64_le();
        let nprocs = data.get_u32_le();

        need(data, 4)?;
        let n_names = data.get_u32_le() as usize;
        let mut names = HashMap::with_capacity(cap(data, n_names, NAME_HEAD));
        for _ in 0..n_names {
            need(data, NAME_HEAD)?;
            let id = data.get_u64_le();
            let len = data.get_u32_le() as usize;
            need(data, len)?;
            let mut raw = vec![0u8; len];
            data.copy_to_slice(&mut raw);
            let name = String::from_utf8(raw).map_err(|_| LogError::BadName)?;
            names.insert(id, name);
        }

        need(data, 5)?;
        let posix_partial = data.get_u8() != 0;
        let n_posix = data.get_u32_le() as usize;
        let mut posix = Vec::with_capacity(cap(data, n_posix, POSIX_REC));
        for _ in 0..n_posix {
            need(data, POSIX_REC)?;
            let mut r = PosixRecord::new(data.get_u64_le());
            for c in r.counters.iter_mut() {
                *c = data.get_i64_le();
            }
            for c in r.fcounters.iter_mut() {
                *c = data.get_f64_le();
            }
            posix.push(r);
        }

        need(data, 5)?;
        let stdio_partial = data.get_u8() != 0;
        let n_stdio = data.get_u32_le() as usize;
        let mut stdio = Vec::with_capacity(cap(data, n_stdio, STDIO_REC));
        for _ in 0..n_stdio {
            need(data, STDIO_REC)?;
            let mut r = StdioRecord::new(data.get_u64_le());
            for c in r.counters.iter_mut() {
                *c = data.get_i64_le();
            }
            for c in r.fcounters.iter_mut() {
                *c = data.get_f64_le();
            }
            stdio.push(r);
        }

        need(data, 4)?;
        let n_dxt = data.get_u32_le() as usize;
        let mut dxt = HashMap::with_capacity(cap(data, n_dxt, DXT_HEAD));
        for _ in 0..n_dxt {
            need(data, DXT_HEAD)?;
            let id = data.get_u64_le();
            let nsegs = data.get_u32_le() as usize;
            let mut segs = Vec::with_capacity(cap(data, nsegs, DXT_SEG));
            for _ in 0..nsegs {
                need(data, DXT_SEG)?;
                let op = match data.get_u8() {
                    0 => DxtOp::Read,
                    _ => DxtOp::Write,
                };
                segs.push(DxtSegment {
                    op,
                    rank: data.get_u32_le(),
                    offset: data.get_u64_le(),
                    length: data.get_u64_le(),
                    start: data.get_f64_le(),
                    end: data.get_f64_le(),
                });
            }
            dxt.insert(id, segs);
        }

        Ok(DarshanLog {
            job_start,
            job_end,
            nprocs,
            names,
            posix,
            posix_partial,
            stdio,
            stdio_partial,
            dxt,
        })
    }

    /// Render a `darshan-parser`-style text summary (for humans/tests).
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "# darshan-sim log, nprocs={}", self.nprocs);
        let _ = writeln!(
            out,
            "# run time: {:.6}s, files (posix/stdio): {}/{}{}",
            self.job_end - self.job_start,
            self.posix.len(),
            self.stdio.len(),
            if self.posix_partial { " [PARTIAL]" } else { "" },
        );
        for r in &self.posix {
            let name = self
                .names
                .get(&r.rec_id)
                .map(String::as_str)
                .unwrap_or("<unknown>");
            for (i, c) in PosixCounter::ALL.iter().enumerate() {
                if r.counters[i] != 0 {
                    let _ = writeln!(out, "POSIX\t{name}\t{}\t{}", c.name(), r.counters[i]);
                }
            }
        }
        for r in &self.stdio {
            let name = self
                .names
                .get(&r.rec_id)
                .map(String::as_str)
                .unwrap_or("<unknown>");
            for (i, c) in StdioCounter::ALL.iter().enumerate() {
                if r.counters[i] != 0 {
                    let _ = writeln!(out, "STDIO\t{name}\t{}\t{}", c.name(), r.counters[i]);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::record_id;
    use proptest::prelude::*;

    fn sample_log() -> DarshanLog {
        let mut r = PosixRecord::new(record_id("/d/a"));
        *r.get_mut(PosixCounter::POSIX_OPENS) = 3;
        *r.get_mut(PosixCounter::POSIX_BYTES_READ) = 12345;
        *r.fget_mut(PosixFCounter::POSIX_F_READ_TIME) = 0.25;
        let mut s = StdioRecord::new(record_id("/d/ckpt"));
        *s.get_mut(StdioCounter::STDIO_WRITES) = 140;
        let mut names = HashMap::new();
        names.insert(record_id("/d/a"), "/d/a".to_string());
        names.insert(record_id("/d/ckpt"), "/d/ckpt".to_string());
        let mut dxt = HashMap::new();
        dxt.insert(
            record_id("/d/a"),
            vec![
                DxtSegment {
                    op: DxtOp::Read,
                    offset: 0,
                    length: 88_000,
                    start: 0.1,
                    end: 0.2,
                    rank: 0,
                },
                DxtSegment {
                    op: DxtOp::Read,
                    offset: 88_000,
                    length: 0,
                    start: 0.2,
                    end: 0.2001,
                    rank: 3,
                },
            ],
        );
        DarshanLog {
            job_start: 0.0,
            job_end: 17.5,
            nprocs: 1,
            names,
            posix: vec![r],
            posix_partial: false,
            stdio: vec![s],
            stdio_partial: true,
            dxt,
        }
    }

    #[test]
    fn roundtrip_identity() {
        let log = sample_log();
        let bytes = log.encode();
        let back = DarshanLog::decode(&bytes).unwrap();
        assert_eq!(back.job_end, 17.5);
        assert_eq!(back.nprocs, 1);
        assert_eq!(back.names, log.names);
        assert_eq!(back.posix.len(), 1);
        assert_eq!(back.posix[0].counters, log.posix[0].counters);
        assert_eq!(back.posix[0].fcounters, log.posix[0].fcounters);
        assert_eq!(back.stdio[0].counters, log.stdio[0].counters);
        assert!(back.stdio_partial);
        assert!(!back.posix_partial);
        let segs = &back.dxt[&record_id("/d/a")];
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].length, 88_000);
        assert_eq!(segs[1].length, 0, "zero-length read survives roundtrip");
        assert_eq!(segs[0].rank, 0);
        assert_eq!(segs[1].rank, 3, "rank tag survives roundtrip");
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(
            DarshanLog::decode(b"NOPE\x01\x00\x00\x00").unwrap_err(),
            LogError::BadMagic
        );
        assert_eq!(DarshanLog::decode(b"NO").unwrap_err(), LogError::Truncated);
    }

    #[test]
    fn truncation_detected() {
        let bytes = sample_log().encode();
        for cut in [3, 10, 50, bytes.len() - 1] {
            let r = DarshanLog::decode(&bytes[..cut]);
            assert!(r.is_err(), "cut at {cut} must fail");
        }
    }

    /// A valid header and empty name table, then a POSIX section that
    /// claims `u32::MAX` records and holds none.
    fn huge_count_log() -> Vec<u8> {
        let mut b = BytesMut::new();
        b.put_slice(MAGIC);
        b.put_u32_le(VERSION);
        b.put_f64_le(0.0);
        b.put_f64_le(1.0);
        b.put_u32_le(1);
        b.put_u32_le(0); // names
        b.put_u8(0); // posix_partial
        b.put_u32_le(u32::MAX); // posix records
        b.to_vec()
    }

    #[test]
    fn huge_record_count_is_truncated_not_allocated() {
        // Pre-allocating for the claimed count asked for 2.37 TB and
        // aborted the process.
        let log = huge_count_log();
        assert_eq!(log.len(), 37);
        assert_eq!(DarshanLog::decode(&log).unwrap_err(), LogError::Truncated);
    }

    proptest! {
        // Decoding a few hundred bytes takes microseconds: fuzz wide.
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn decode_never_panics_on_arbitrary_bytes(
            bytes in prop::collection::vec(any::<u8>(), 0..1024),
            valid_head in any::<bool>(),
        ) {
            // Half the cases get past the magic and version checks.
            let mut data = if valid_head { huge_count_log()[..8].to_vec() } else { Vec::new() };
            data.extend(bytes);
            let _ = DarshanLog::decode(&data);
        }

        #[test]
        fn decode_never_panics_on_truncated_logs(cut in 0usize..4096) {
            let bytes = sample_log().encode();
            let cut = cut % bytes.len();
            prop_assert_eq!(DarshanLog::decode(&bytes[..cut]).unwrap_err(), LogError::Truncated);
        }

        #[test]
        fn decode_never_panics_on_bit_flipped_logs(
            flips in prop::collection::vec((0usize..4096, 0u8..8), 1..8),
        ) {
            let mut bytes = sample_log().encode().to_vec();
            let len = bytes.len();
            for (at, bit) in flips {
                bytes[at % len] ^= 1 << bit;
            }
            let _ = DarshanLog::decode(&bytes);
        }
    }

    #[test]
    fn summary_mentions_counters() {
        let text = sample_log().summary();
        assert!(text.contains("POSIX_OPENS\t3"));
        assert!(text.contains("STDIO_WRITES\t140"));
        assert!(text.contains("/d/a"));
    }
}
