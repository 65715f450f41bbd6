//! The TensorBoard-style report: the textual/JSON equivalent of the
//! paper's extended Input-Pipeline Analysis panels (Figs. 6, 7, 9) —
//! POSIX bandwidth, operation counts, read-size distribution, file-size
//! distribution, access pattern, and the STDIO (checkpoint) view.

use serde::{Deserialize, Serialize};

use crate::analysis::{histogram_rows, FileActivity, IoStats, StdioStats};

/// Everything one profiling session learned from Darshan.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct TfDarshanReport {
    /// Darshan-relative window `[start, stop]` in seconds.
    pub window: (f64, f64),
    /// POSIX aggregates.
    pub io: IoStats,
    /// STDIO aggregates.
    pub stdio: StdioStats,
    /// Per-file activity table.
    pub files: Vec<FileActivity>,
    /// Summary of the iosan sanitizer run, when the job ran under the
    /// sanitizer (absent otherwise; old reports deserialize with `None`).
    #[serde(default)]
    #[serde(skip_serializing_if = "Option::is_none")]
    pub sanitizer: Option<iosan::SanitizerSummary>,
    /// Scheduler statistics of the simulation that produced this report
    /// (absent for reports built outside a full run; old reports
    /// deserialize with `None`).
    #[serde(default)]
    #[serde(skip_serializing_if = "Option::is_none")]
    pub scheduler: Option<SchedStatsReport>,
    /// Summary of a schedule-space exploration run (`crates/explore`), when
    /// the workload was model-checked rather than profiled once (absent
    /// otherwise; old reports deserialize with `None`).
    #[serde(default)]
    #[serde(skip_serializing_if = "Option::is_none")]
    pub explore: Option<ExploreSummary>,
}

/// Serializable mirror of [`simrt::SchedStats`]: what the discrete-event
/// scheduler did while producing the report — carrier context switches vs
/// inline event-task polls, task counts per flavor, and run-calendar
/// high-water marks. The scale experiments read these next to the I/O
/// counters to show what simulated concurrency costs the scheduler.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedStatsReport {
    /// Carrier dispatches: each is a switch onto a carrier's stack.
    pub switches: u64,
    /// Fast-path time advances (sleeps that kept the carrier).
    pub fast_advances: u64,
    /// Event-task polls (inline resumptions).
    pub event_polls: u64,
    /// Carrier tasks spawned over the simulation's lifetime.
    pub carrier_spawns: u64,
    /// Event tasks spawned over the simulation's lifetime.
    pub event_spawns: u64,
    /// High-water mark of the run calendar (valid + stale entries).
    pub peak_heap_depth: u64,
    /// High-water mark of concurrently live tasks.
    pub peak_live_tasks: u64,
    /// Lazy compactions of the run calendar.
    pub heap_compactions: u64,
    /// Decision points where an installed `SchedulePolicy` was consulted
    /// (0 for uncontrolled runs; old reports deserialize with 0).
    #[serde(default)]
    pub decision_points: u64,
    /// Schedules executed by an exploration harness (aggregated).
    #[serde(default)]
    pub schedules_run: u64,
    /// Schedules skipped by partial-order reduction.
    #[serde(default)]
    pub schedules_pruned: u64,
    /// Maximum non-FIFO picks any explored schedule used.
    #[serde(default)]
    pub max_preemptions_used: u64,
}

impl From<simrt::SchedStats> for SchedStatsReport {
    fn from(s: simrt::SchedStats) -> Self {
        SchedStatsReport {
            switches: s.switches,
            fast_advances: s.fast_advances,
            event_polls: s.event_polls,
            carrier_spawns: s.carrier_spawns,
            event_spawns: s.event_spawns,
            peak_heap_depth: s.peak_heap_depth as u64,
            peak_live_tasks: s.peak_live_tasks as u64,
            heap_compactions: s.heap_compactions,
            decision_points: s.decision_points,
            schedules_run: s.schedules_run,
            schedules_pruned: s.schedules_pruned,
            max_preemptions_used: s.max_preemptions_used,
        }
    }
}

/// Summary of one `explore::check` model-checking run, embedded in the job
/// report next to the sanitizer summary. The full per-finding detail
/// (replay tokens, deduplicated findings) lives in the `ExploreReport` the
/// explore crate returns; this is the at-a-glance view.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExploreSummary {
    /// Schedules actually executed.
    pub schedules_run: u64,
    /// Schedules skipped by partial-order reduction.
    pub schedules_pruned: u64,
    /// Decision points seen across all executed schedules.
    pub decision_points: u64,
    /// Maximum non-FIFO picks any executed schedule used.
    pub max_preemptions_used: u64,
    /// Distinct findings after fingerprint deduplication.
    pub distinct_findings: u64,
    /// Executed schedules on which at least one finding fired.
    pub schedules_with_findings: u64,
    /// True when the schedule budget ran out with unexplored branches left.
    pub budget_exhausted: bool,
    /// Sorted, deduplicated category names of the distinct findings.
    pub categories: Vec<String>,
}

impl TfDarshanReport {
    /// Serialize to pretty JSON (what the TensorBoard plugin would load).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// Parse back from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Render the panels as ASCII (the stand-in for the TensorBoard web
    /// UI screenshots in the paper's figures).
    pub fn render_ascii(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let io = &self.io;
        let _ = writeln!(out, "== tf-Darshan: Input-pipeline analysis extension ==");
        let _ = writeln!(
            out,
            "profiling window: {:.3}s .. {:.3}s ({:.3}s)",
            self.window.0, self.window.1, io.window_secs
        );
        if io.partial {
            let _ = writeln!(out, "!! Darshan ran out of record memory; data is partial");
        }
        let _ = writeln!(out, "\n-- POSIX bandwidth --");
        let _ = writeln!(
            out,
            "read:  {:>10.2} MiB/s  ({} bytes)",
            io.read_bandwidth_mibps, io.bytes_read
        );
        let _ = writeln!(
            out,
            "write: {:>10.2} MiB/s  ({} bytes)",
            io.write_bandwidth_mibps, io.bytes_written
        );
        let _ = writeln!(out, "\n-- POSIX operation counts --");
        let _ = writeln!(
            out,
            "opens {} | reads {} | writes {} | seeks {} | stats {}",
            io.opens, io.reads, io.writes, io.seeks, io.stats
        );
        let _ = writeln!(out, "files opened: {}", io.files_opened);
        let _ = writeln!(out, "\n-- POSIX access pattern --");
        let _ = writeln!(
            out,
            "sequential reads:  {:>8} ({:.1}%)",
            io.seq_reads,
            100.0 * io.seq_fraction()
        );
        let _ = writeln!(
            out,
            "consecutive reads: {:>8} ({:.1}%)",
            io.consec_reads,
            100.0 * io.consec_fraction()
        );
        let _ = writeln!(
            out,
            "zero-length reads: {:>8} ({:.1}%)",
            io.zero_reads,
            100.0 * io.zero_read_fraction()
        );
        let _ = writeln!(out, "\n-- POSIX read size distribution --");
        out.push_str(&render_hist(&io.read_size_hist));
        let _ = writeln!(out, "\n-- File size distribution (files read) --");
        out.push_str(&render_hist(&io.file_size_hist));
        if !io.common_read_sizes.is_empty() {
            let _ = writeln!(out, "\n-- Most common read sizes --");
            for (size, count) in &io.common_read_sizes {
                let _ = writeln!(out, "{size:>12} B × {count}");
            }
        }
        if self.stdio.opens + self.stdio.writes + self.stdio.reads > 0 {
            let _ = writeln!(out, "\n-- STDIO layer --");
            let _ = writeln!(
                out,
                "fopens {} | fwrites {} ({} bytes) | freads {} ({} bytes) | fflushes {}",
                self.stdio.opens,
                self.stdio.writes,
                self.stdio.bytes_written,
                self.stdio.reads,
                self.stdio.bytes_read,
                self.stdio.flushes
            );
        }
        if let Some(s) = &self.sanitizer {
            let _ = writeln!(out, "\n-- iosan sanitizer --");
            if s.findings == 0 {
                let _ = writeln!(out, "clean ({} events analyzed)", s.events_analyzed);
            } else {
                let _ = writeln!(
                    out,
                    "{} finding(s): {} error(s), {} warning(s) [{}] over {} events",
                    s.findings,
                    s.errors,
                    s.warnings,
                    s.categories.join(", "),
                    s.events_analyzed
                );
            }
        }
        if let Some(s) = &self.scheduler {
            let _ = writeln!(out, "\n-- scheduler --");
            let _ = writeln!(
                out,
                "tasks: {} carrier + {} event (peak live {}) | switches {} | fast advances {} | event polls {}",
                s.carrier_spawns,
                s.event_spawns,
                s.peak_live_tasks,
                s.switches,
                s.fast_advances,
                s.event_polls
            );
            let _ = writeln!(
                out,
                "run calendar: peak depth {} | compactions {}",
                s.peak_heap_depth, s.heap_compactions
            );
            if s.decision_points > 0 || s.schedules_run > 0 {
                let _ = writeln!(
                    out,
                    "exploration: {} decision point(s) | {} schedule(s) run | {} pruned | max preemptions {}",
                    s.decision_points, s.schedules_run, s.schedules_pruned, s.max_preemptions_used
                );
            }
        }
        if let Some(e) = &self.explore {
            let _ = writeln!(out, "\n-- schedule exploration --");
            let _ = writeln!(
                out,
                "{} schedule(s) run, {} pruned | {} decision point(s) | max preemptions {}{}",
                e.schedules_run,
                e.schedules_pruned,
                e.decision_points,
                e.max_preemptions_used,
                if e.budget_exhausted {
                    " | budget exhausted"
                } else {
                    ""
                }
            );
            if e.distinct_findings == 0 {
                let _ = writeln!(out, "verdict: clean on every explored schedule");
            } else {
                let _ = writeln!(
                    out,
                    "verdict: {} distinct finding(s) [{}] on {} schedule(s)",
                    e.distinct_findings,
                    e.categories.join(", "),
                    e.schedules_with_findings
                );
            }
        }
        out
    }
}

fn render_hist(hist: &[u64; 10]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let max = hist.iter().copied().max().unwrap_or(0).max(1);
    for (label, count) in histogram_rows(hist) {
        if count == 0 {
            continue;
        }
        let bar = "#".repeat(((count * 40) / max).max(1) as usize);
        let _ = writeln!(out, "{label:>9}: {count:>10} {bar}");
    }
    if out.is_empty() {
        out.push_str("  (no operations)\n");
    }
    out
}

/// Escape a string for safe interpolation into HTML markup, in both text
/// and attribute positions. File paths and job ids land in reports
/// verbatim from the workload, which becomes a real injection surface the
/// moment reports are *served* over HTTP instead of written to disk — so
/// everything job-supplied goes through here.
pub fn html_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#x27;"),
            _ => out.push(c),
        }
    }
    out
}

impl TfDarshanReport {
    /// Render a self-contained HTML page with the same panels — the
    /// stand-in for the modified TensorBoard Profile plugin's web view
    /// (tables and textual histograms; no external assets).
    pub fn render_html(&self) -> String {
        let io = &self.io;
        let esc = html_escape;
        let hist_pre =
            |hist: &[u64; 10]| -> String { esc(&super::report::render_hist_for_html(hist)) };
        let mut files_rows = String::new();
        for f in self.files.iter().take(50) {
            files_rows.push_str(&format!(
                "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{:.4}</td></tr>\n",
                esc(&f.path),
                f.reads,
                f.bytes_read,
                f.apparent_size,
                f.read_time
            ));
        }
        format!(
            r#"<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>tf-Darshan report</title>
<style>
 body {{ font-family: sans-serif; margin: 2em; }}
 table {{ border-collapse: collapse; margin: 1em 0; }}
 td, th {{ border: 1px solid #999; padding: 4px 10px; text-align: right; }}
 th {{ background: #eee; }} td:first-child {{ text-align: left; }}
 pre {{ background: #f6f6f6; padding: 1em; }}
 .warn {{ color: #a00; font-weight: bold; }}
</style></head><body>
<h1>tf-Darshan — Input-pipeline analysis extension</h1>
<p>profiling window: {:.3}s … {:.3}s ({:.3}s){}</p>
<h2>POSIX bandwidth</h2>
<table><tr><th></th><th>MiB/s</th><th>bytes</th></tr>
<tr><td>read</td><td>{:.2}</td><td>{}</td></tr>
<tr><td>write</td><td>{:.2}</td><td>{}</td></tr></table>
<h2>POSIX operation counts</h2>
<table><tr><th>opens</th><th>reads</th><th>writes</th><th>seeks</th><th>stats</th><th>files</th></tr>
<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr></table>
<h2>Access pattern</h2>
<table><tr><th>sequential reads</th><th>consecutive reads</th><th>zero-length reads</th></tr>
<tr><td>{} ({:.1}%)</td><td>{} ({:.1}%)</td><td>{} ({:.1}%)</td></tr></table>
<h2>POSIX read size distribution</h2><pre>{}</pre>
<h2>File size distribution</h2><pre>{}</pre>
<h2>Per-file activity (top 50)</h2>
<table><tr><th>file</th><th>reads</th><th>bytes read</th><th>size</th><th>read time (s)</th></tr>
{}</table>
</body></html>
"#,
            self.window.0,
            self.window.1,
            io.window_secs,
            if io.partial {
                r#" <span class="warn">— PARTIAL (Darshan record memory exhausted)</span>"#
            } else {
                ""
            },
            io.read_bandwidth_mibps,
            io.bytes_read,
            io.write_bandwidth_mibps,
            io.bytes_written,
            io.opens,
            io.reads,
            io.writes,
            io.seeks,
            io.stats,
            io.files_opened,
            io.seq_reads,
            100.0 * io.seq_fraction(),
            io.consec_reads,
            100.0 * io.consec_fraction(),
            io.zero_reads,
            100.0 * io.zero_read_fraction(),
            hist_pre(&io.read_size_hist),
            hist_pre(&io.file_size_hist),
            files_rows,
        )
    }
}

pub(crate) fn render_hist_for_html(hist: &[u64; 10]) -> String {
    render_hist(hist)
}

/// The TF-Profiler overview line tf-Darshan extends: combines the
/// TensorFlow-level step breakdown with Darshan's system-level numbers.
pub fn overview(input_bound_fraction: f64, io: &IoStats) -> String {
    format!(
        "step time breakdown: {:.1}% waiting for input data | POSIX read bandwidth {:.2} MiB/s over {} files",
        input_bound_fraction * 100.0,
        io.read_bandwidth_mibps,
        io.files_opened,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TfDarshanReport {
        let mut io = IoStats {
            window_secs: 10.0,
            opens: 100,
            reads: 200,
            zero_reads: 100,
            seq_reads: 200,
            consec_reads: 100,
            bytes_read: 100 * 88_000,
            read_bandwidth_mibps: 0.84,
            files_opened: 100,
            ..Default::default()
        };
        io.read_size_hist[0] = 100;
        io.read_size_hist[3] = 100;
        io.file_size_hist[3] = 100;
        io.common_read_sizes = vec![(88_000, 100), (0, 100)];
        TfDarshanReport {
            window: (0.0, 10.0),
            io,
            stdio: StdioStats {
                opens: 10,
                writes: 1400,
                bytes_written: 2_330_000_000,
                ..Default::default()
            },
            files: vec![],
            sanitizer: None,
            scheduler: None,
            explore: None,
        }
    }

    #[test]
    fn ascii_panels_contain_key_numbers() {
        let text = sample().render_ascii();
        assert!(text.contains("0.84 MiB/s"));
        assert!(text.contains("opens 100 | reads 200"));
        assert!(text.contains("zero-length reads:      100 (50.0%)"));
        assert!(text.contains("10K-100K"));
        assert!(text.contains("fwrites 1400"));
        assert!(text.contains("88000 B × 100"));
    }

    #[test]
    fn sanitizer_section_renders_and_roundtrips() {
        let mut r = sample();
        assert!(!r.render_ascii().contains("iosan sanitizer"));
        assert!(!r.to_json().contains("sanitizer"), "absent when None");
        r.sanitizer = Some(iosan::SanitizerSummary {
            findings: 2,
            errors: 1,
            warnings: 1,
            events_analyzed: 500,
            categories: vec!["data-race".into(), "fd-leak".into()],
        });
        let text = r.render_ascii();
        assert!(text.contains("iosan sanitizer"));
        assert!(text.contains("2 finding(s): 1 error(s), 1 warning(s) [data-race, fd-leak]"));
        let back = TfDarshanReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back.sanitizer, r.sanitizer);
        // Reports written before the sanitizer existed still parse.
        let old = sample().to_json();
        assert!(TfDarshanReport::from_json(&old)
            .unwrap()
            .sanitizer
            .is_none());
    }

    #[test]
    fn scheduler_section_renders_and_roundtrips() {
        let mut r = sample();
        assert!(!r.render_ascii().contains("-- scheduler --"));
        assert!(!r.to_json().contains("scheduler"), "absent when None");
        r.scheduler = Some(SchedStatsReport {
            switches: 42,
            fast_advances: 7,
            event_polls: 10_000,
            carrier_spawns: 4,
            event_spawns: 2_000,
            peak_heap_depth: 2_004,
            peak_live_tasks: 2_004,
            heap_compactions: 1,
            ..Default::default()
        });
        let text = r.render_ascii();
        assert!(text.contains("-- scheduler --"));
        assert!(text.contains("tasks: 4 carrier + 2000 event (peak live 2004)"));
        assert!(text.contains("peak depth 2004 | compactions 1"));
        assert!(
            !text.contains("exploration:"),
            "exploration line absent when all counters are zero"
        );
        let back = TfDarshanReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back.scheduler, r.scheduler);
        // Reports written before the scheduler stats existed still parse.
        let old = sample().to_json();
        assert!(TfDarshanReport::from_json(&old)
            .unwrap()
            .scheduler
            .is_none());
        // Reports written before the exploration counters were added to the
        // scheduler block still parse, with the new fields defaulting to 0.
        let pre_explore = r.to_json().replace("\"decision_points\": 0,", "");
        let back = TfDarshanReport::from_json(&pre_explore).unwrap();
        assert_eq!(back.scheduler.unwrap().decision_points, 0);
    }

    #[test]
    fn explore_section_renders_and_roundtrips() {
        let mut r = sample();
        assert!(!r.render_ascii().contains("-- schedule exploration --"));
        assert!(!r.to_json().contains("explore"), "absent when None");
        r.explore = Some(ExploreSummary {
            schedules_run: 37,
            schedules_pruned: 12,
            decision_points: 210,
            max_preemptions_used: 2,
            distinct_findings: 1,
            schedules_with_findings: 4,
            budget_exhausted: false,
            categories: vec!["data-race".into()],
        });
        let text = r.render_ascii();
        assert!(text.contains("-- schedule exploration --"));
        assert!(text.contains("37 schedule(s) run, 12 pruned"));
        assert!(text.contains("verdict: 1 distinct finding(s) [data-race] on 4 schedule(s)"));
        let back = TfDarshanReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back.explore, r.explore);
        // Scheduler exploration counters render when nonzero.
        r.scheduler = Some(SchedStatsReport {
            decision_points: 210,
            schedules_run: 37,
            schedules_pruned: 12,
            max_preemptions_used: 2,
            ..Default::default()
        });
        assert!(r
            .render_ascii()
            .contains("exploration: 210 decision point(s) | 37 schedule(s) run | 12 pruned"));
        // A clean exploration says so.
        r.explore.as_mut().unwrap().distinct_findings = 0;
        r.explore.as_mut().unwrap().categories.clear();
        assert!(r
            .render_ascii()
            .contains("verdict: clean on every explored schedule"));
    }

    #[test]
    fn json_roundtrip() {
        let r = sample();
        let back = TfDarshanReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back.io.reads, 200);
        assert_eq!(back.stdio.writes, 1400);
        assert_eq!(back.io.common_read_sizes, r.io.common_read_sizes);
    }

    #[test]
    fn html_report_contains_panels() {
        let html = sample().render_html();
        assert!(html.contains("<h1>tf-Darshan"));
        assert!(html.contains("0.84"));
        assert!(html.contains("zero-length reads"));
        assert!(html.contains("10K-100K"));
        assert!(!html.contains("PARTIAL"));
        let mut partial = sample();
        partial.io.partial = true;
        assert!(partial.render_html().contains("PARTIAL"));
    }

    #[test]
    fn html_report_escapes_job_supplied_paths() {
        let mut r = sample();
        r.files = vec![FileActivity {
            path: r#"/data/<script>alert("x")</script>&'"#.into(),
            reads: 1,
            bytes_read: 10,
            apparent_size: 10,
            read_time: 0.1,
        }];
        let html = r.render_html();
        assert!(!html.contains("<script>alert"));
        assert!(html.contains("&lt;script&gt;alert(&quot;x&quot;)&lt;/script&gt;&amp;&#x27;"));
        assert_eq!(
            html_escape(r#"<a href="x">&'b'</a>"#),
            "&lt;a href=&quot;x&quot;&gt;&amp;&#x27;b&#x27;&lt;/a&gt;"
        );
    }

    #[test]
    fn overview_line() {
        let s = overview(0.96, &sample().io);
        assert!(s.contains("96.0% waiting"));
        assert!(s.contains("100 files"));
    }
}
