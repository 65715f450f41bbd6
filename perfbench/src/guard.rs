//! The virtual-time guard: every virtual-time output of a workload,
//! flattened to named fields and compared with the values recorded in
//! `expected/<workload>.json`.
//!
//! A host-time change must leave every one of these fields unchanged. A
//! field is a leaf of the run's outputs (a Darshan or STDIO counter,
//! bytes, virtual wall time, bandwidth, a count), keyed by its dotted
//! path, with its value as exact text: integers in decimal and floats in
//! Rust's shortest round-trip form, so equal text means bit-equal values.
//! Bulky tables (per-file rows, per-rank reports, trace timelines) are
//! folded into a count plus an FNV-1a hash, which still names the table
//! that moved.
//!
//! Scheduler statistics (carrier switches, event polls) are *not*
//! guarded: they are host-side costs a performance change is allowed to
//! move.

use std::collections::BTreeMap;
use std::path::PathBuf;

use serde_json::Value;
use tfdarshan::{JobReport, TfDarshanReport, DXT_PLANE};
use tfsim::XSpace;
use workloads::{FleetOutcome, RunOutput};

/// Named virtual-time fields of one run.
pub type Fields = BTreeMap<String, String>;

/// FNV-1a 64 of `bytes`, as 16 hex digits.
pub fn fnv64(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

fn put(out: &mut Fields, key: impl Into<String>, value: impl ToString) {
    out.insert(key.into(), value.to_string());
}

fn put_f64(out: &mut Fields, key: impl Into<String>, value: f64) {
    out.insert(key.into(), format!("{value:?}"));
}

/// Flatten a JSON tree into `prefix.path` leaves.
fn flatten(prefix: &str, v: &Value, out: &mut Fields) {
    match v {
        Value::Object(map) => {
            for (k, child) in map {
                flatten(&format!("{prefix}.{k}"), child, out);
            }
        }
        Value::Array(items) => {
            for (i, child) in items.iter().enumerate() {
                flatten(&format!("{prefix}.{i}"), child, out);
            }
        }
        Value::Null => put(out, prefix, "null"),
        Value::Bool(b) => put(out, prefix, b),
        Value::Number(n) => put(out, prefix, n),
        Value::String(s) => put(out, prefix, s),
    }
}

/// A tf-Darshan report without its scheduler statistics, flattened; the
/// per-file table becomes a row count and a hash.
fn report_fields(prefix: &str, report: &TfDarshanReport, out: &mut Fields) {
    let mut r = report.clone();
    r.scheduler = None;
    let files = std::mem::take(&mut r.files);
    let files_json = serde_json::to_string(&files).expect("file table serializes");
    put(out, format!("{prefix}.files.count"), files.len());
    put(
        out,
        format!("{prefix}.files.fnv"),
        fnv64(files_json.as_bytes()),
    );
    flatten(
        prefix,
        &serde_json::to_value(&r).expect("report serializes"),
        out,
    );
}

/// Event counts per trace plane plus one hash over every event's name
/// and virtual timing.
fn space_fields(space: &XSpace, out: &mut Fields) {
    let mut text = String::new();
    for plane in &space.planes {
        let events: usize = plane.lines.iter().map(|l| l.events.len()).sum();
        put(out, format!("space.events.{}", plane.name), events);
        for line in &plane.lines {
            for e in &line.events {
                text.push_str(&format!(
                    "{}|{}|{}|{}|{}\n",
                    plane.name, line.name, e.name, e.start_ns, e.dur_ns
                ));
            }
        }
    }
    put(out, "space.fnv", fnv64(text.as_bytes()));
}

/// DXT segments in a trace's `/darshan:POSIX` plane.
fn dxt_segments(space: &XSpace) -> usize {
    space
        .planes
        .iter()
        .filter(|p| p.name == DXT_PLANE)
        .flat_map(|p| &p.lines)
        .map(|l| l.events.len())
        .sum()
}

/// Virtual-time fields of a single-process training run.
pub fn run_fields(o: &RunOutput) -> Fields {
    let mut out = Fields::new();
    put(&mut out, "dataset.files", o.dataset.0);
    put(&mut out, "dataset.bytes", o.dataset.1);
    put(&mut out, "dataset.median", o.dataset.2);
    put(&mut out, "fit.steps_run", o.fit.steps_run);
    put(&mut out, "fit.bytes_read", o.fit.bytes_read);
    put(&mut out, "fit.wall_ns", o.fit.wall.as_nanos());
    let wait: u128 = o.fit.steps.iter().map(|s| s.wait.as_nanos()).sum();
    let compute: u128 = o.fit.steps.iter().map(|s| s.compute.as_nanos()).sum();
    put(&mut out, "fit.wait_ns", wait);
    put(&mut out, "fit.compute_ns", compute);
    put(&mut out, "wall_ns", o.wall.as_nanos());
    put_f64(&mut out, "read_bandwidth_mibps", o.mean_read_mibps());
    put(&mut out, "checkpoints", o.checkpoints);
    if let Some(r) = &o.report {
        report_fields("report", r, &mut out);
    }
    if let Some(space) = &o.space {
        put(&mut out, "dxt.segments", dxt_segments(space));
        space_fields(space, &mut out);
    }
    if let Some(san) = &o.sanitizer {
        flatten(
            "sanitizer",
            &serde_json::to_value(san).expect("sanitizer report serializes"),
            &mut out,
        );
    }
    put(&mut out, "dstat.samples", o.dstat_samples.len());
    let mut dstat_text = o.dstat_devices.join(",");
    for s in &o.dstat_samples {
        dstat_text.push_str(&format!(
            "\n{:?}|{:?}|{:?}|{}|{}",
            s.t, s.read_bytes, s.write_bytes, s.sys_read_bytes, s.sys_write_bytes
        ));
    }
    put(&mut out, "dstat.fnv", fnv64(dstat_text.as_bytes()));
    if let Some(plan) = &o.staged {
        put(&mut out, "staged.files", plan.files.len());
        put(&mut out, "staged.bytes", plan.staged_bytes);
        put(&mut out, "staged.total_bytes", plan.total_bytes);
    }
    out
}

/// Virtual-time fields of a fleet run: the job-level merged report in
/// full, the per-rank reports as one hash, and the reduction's model.
pub fn fleet_fields(o: &FleetOutcome) -> Fields {
    let mut out = Fields::new();
    put(&mut out, "world_size", o.world_size);
    put(&mut out, "nodes", o.nodes);
    put(&mut out, "bytes_read", o.bytes_read);
    put_f64(&mut out, "io_virtual_secs", o.io_virtual_secs);
    put_f64(&mut out, "aggregate_read_mib_s", o.aggregate_read_mib_s);
    put(&mut out, "reduce.leaves", o.reduce.leaves);
    put(&mut out, "reduce.levels", o.reduce.levels);
    put(&mut out, "reduce.pair_merges", o.reduce.pair_merges);
    put(&mut out, "reduce.modeled_ns", o.reduce.modeled.as_nanos());
    put(
        &mut out,
        "reduce.modeled_flat_ns",
        o.reduce.modeled_flat.as_nanos(),
    );
    job_report_fields(&o.report, &mut out);
    out
}

fn job_report_fields(r: &JobReport, out: &mut Fields) {
    put(out, "report.world_size", r.world_size);
    put(
        out,
        "report.missing_ranks",
        format!("{:?}", r.missing_ranks),
    );
    report_fields("report.job", &r.job, out);
    let per_rank: Vec<TfDarshanReport> = r
        .per_rank
        .iter()
        .map(|p| TfDarshanReport {
            scheduler: None,
            ..p.clone()
        })
        .collect();
    let json = serde_json::to_string(&per_rank).expect("per-rank reports serialize");
    put(out, "report.per_rank.count", per_rank.len());
    put(out, "report.per_rank.fnv", fnv64(json.as_bytes()));
}

/// Where a workload's recorded expectations live.
pub fn expected_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("expected")
        .join(format!("{workload}.json"))
}

/// The recorded expectations of `workload`, if any were recorded.
pub fn load_expected(workload: &str) -> Option<Fields> {
    let text = std::fs::read_to_string(expected_path(workload)).ok()?;
    Some(serde_json::from_str(&text).expect("expected file is a JSON object of strings"))
}

/// Write `fields` as the expectations of `workload`.
pub fn record(workload: &str, fields: &Fields) -> std::io::Result<PathBuf> {
    let path = expected_path(workload);
    std::fs::create_dir_all(path.parent().expect("expected/ has a parent"))?;
    let text = serde_json::to_string_pretty(fields).expect("fields serialize");
    std::fs::write(&path, text + "\n")?;
    Ok(path)
}

/// Names of the fields that differ between `expected` and `got`: changed
/// values, fields that disappeared and fields that appeared.
pub fn moved(expected: &Fields, got: &Fields) -> Vec<String> {
    let mut out: Vec<String> = expected
        .iter()
        .filter(|(k, v)| got.get(*k) != Some(v))
        .map(|(k, v)| match got.get(k) {
            Some(now) => format!("{k}: {v} -> {now}"),
            None => format!("{k}: {v} -> (absent)"),
        })
        .collect();
    out.extend(
        got.keys()
            .filter(|k| !expected.contains_key(*k))
            .map(|k| format!("{k}: (absent) -> {}", got[k])),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moved_names_changed_missing_and_new_fields() {
        let mut a = Fields::new();
        put(&mut a, "x", 1);
        put(&mut a, "y", 2);
        let mut b = a.clone();
        assert!(moved(&a, &b).is_empty());
        put(&mut b, "x", 3);
        b.remove("y");
        put(&mut b, "z", 4);
        let m = moved(&a, &b);
        assert_eq!(m.len(), 3, "{m:?}");
        assert!(m[0].starts_with("x: 1 -> 3"));
    }

    #[test]
    fn floats_keep_every_bit() {
        let mut f = Fields::new();
        put_f64(&mut f, "a", 0.1 + 0.2);
        assert_eq!(f["a"], "0.30000000000000004");
        assert_eq!(fnv64(b""), "cbf29ce484222325");
    }
}
