//! The stable wire schema of the live observability service.
//!
//! A training job streams its profiling output to the serve daemon as a
//! sequence of [`SessionDiffMsg`]s — one per completed profiling session
//! per rank. The payload is the session's [`TfDarshanReport`], i.e. the
//! *analyzed* O(changed) output of the incremental snapshot engine: the
//! per-file table only carries files with in-window activity, and every
//! integer counter is a window delta, so messages are additive — summing
//! the `io`/`stdio` counters of a job's messages reproduces the counters
//! of one report over the union window exactly (the diff-additivity
//! invariant `diff(a,c) = diff(a,b) + diff(b,c)` proven in
//! `analysis::tests::diff_additivity`).
//!
//! Messages travel as single-line JSON (NDJSON) over the daemon's ingest
//! socket, or in-process through `serve::ServeSink`. The schema is
//! versioned ([`WIRE_VERSION`]); the daemon rejects (and counts) any
//! message whose `v` it does not speak, so schema drift is loud instead of
//! silent. Fields added later must be `#[serde(default)]`-tolerant the
//! same way `TfDarshanReport.sanitizer`/`.scheduler` are.

use serde::{Deserialize, Serialize};

use crate::job::RankSession;
use crate::report::TfDarshanReport;

/// Version of the session-diff wire schema. Bump on any incompatible
/// change to [`SessionDiffMsg`] or the report types it embeds.
pub const WIRE_VERSION: u32 = 1;

/// One completed profiling session of one rank of one job, on the wire.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SessionDiffMsg {
    /// Wire schema version ([`WIRE_VERSION`]).
    pub v: u32,
    /// Job id — the multi-tenancy key. Job-supplied and untrusted: the
    /// daemon escapes it wherever it lands in markup or exposition text.
    pub job: String,
    /// Rank within the job that produced this session.
    pub rank: u32,
    /// Per-`(job, rank)` sequence number, starting at 0. Lets the
    /// aggregator spot gaps (sessions lost to backpressure upstream).
    pub seq: u64,
    /// The session's analyzed window: counters are in-window deltas,
    /// `files` holds only files with in-window activity.
    pub report: TfDarshanReport,
}

impl SessionDiffMsg {
    /// Wrap one rank's extracted session for job `job` as message `seq`.
    pub fn from_session(job: &str, seq: u64, session: &RankSession) -> Self {
        SessionDiffMsg {
            v: WIRE_VERSION,
            job: job.to_string(),
            rank: session.rank,
            seq,
            report: session.report(),
        }
    }

    /// Encode as one NDJSON line (no interior newlines — JSON string
    /// escaping keeps `\n` out of the payload), terminator not included.
    pub fn to_line(&self) -> String {
        serde_json::to_string(self).expect("wire message serializes")
    }

    /// Decode one NDJSON line.
    pub fn from_line(line: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{IoStats, StdioStats};
    use proptest::prelude::*;

    fn msg() -> SessionDiffMsg {
        let mut io = IoStats {
            window_secs: 2.0,
            reads: 10,
            bytes_read: 1 << 20,
            read_bandwidth_mibps: 0.5,
            ..Default::default()
        };
        io.read_size_hist[3] = 10;
        SessionDiffMsg {
            v: WIRE_VERSION,
            job: "job-a\nwith \"quotes\"".into(),
            rank: 3,
            seq: 7,
            report: TfDarshanReport {
                window: (1.0, 3.0),
                io,
                stdio: StdioStats::default(),
                files: vec![],
                sanitizer: None,
                scheduler: None,
                explore: None,
            },
        }
    }

    #[test]
    fn line_roundtrip_is_single_line_and_field_identical() {
        let m = msg();
        let line = m.to_line();
        assert!(!line.contains('\n'), "NDJSON payload must be one line");
        let back = SessionDiffMsg::from_line(&line).unwrap();
        assert_eq!(back.v, WIRE_VERSION);
        assert_eq!(back.job, m.job);
        assert_eq!(back.rank, 3);
        assert_eq!(back.seq, 7);
        assert_eq!(back.report.io.bytes_read, 1 << 20);
        assert_eq!(back.report.io.read_size_hist, m.report.io.read_size_hist);
        // Byte-stable: re-encoding the decoded message is identical.
        assert_eq!(back.to_line(), line);
    }

    #[test]
    fn garbage_and_truncated_lines_error() {
        assert!(SessionDiffMsg::from_line("not json").is_err());
        let line = msg().to_line();
        assert!(SessionDiffMsg::from_line(&line[..line.len() / 2]).is_err());
        assert!(SessionDiffMsg::from_line("{}").is_err(), "missing fields");
    }

    #[test]
    fn a_megabyte_of_open_brackets_errors_instead_of_overflowing_the_stack() {
        let flood = "[".repeat(1 << 20);
        // A freshly spawned thread has the default 2 MiB stack, as the
        // serve daemon's ingest threads do.
        std::thread::spawn(move || {
            assert!(serde_json::from_str::<serde_json::Value>(&flood).is_err());
            assert!(SessionDiffMsg::from_line(&flood).is_err());
        })
        .join()
        .expect("parsing returns instead of aborting");
    }

    /// JSON fragments that nest, close, and fill in random orders.
    const FRAGMENTS: [&str; 10] = [
        "[",
        "]",
        "{",
        "}",
        "{\"report\":",
        ",",
        ":",
        "1",
        "\"s\"",
        "null",
    ];

    proptest! {
        #[test]
        fn from_line_never_panics_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
            let _ = SessionDiffMsg::from_line(&String::from_utf8_lossy(&bytes));
        }

        #[test]
        fn from_line_never_panics_on_random_nestings(
            picks in prop::collection::vec(0..FRAGMENTS.len(), 0..1024),
            prefix in 0..2usize,
        ) {
            // Half the cases start inside a valid message's leading field.
            let mut line = ["", "{\"v\":1,\"job\":"][prefix].to_string();
            line.extend(picks.iter().map(|&i| FRAGMENTS[i]));
            let _ = SessionDiffMsg::from_line(&line);
        }
    }
}
