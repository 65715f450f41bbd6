//! Host-time spans the benchmark records around its own calls into each
//! crate.
//!
//! A [`Trace`] is either off — [`Trace::span`] then only runs its closure,
//! so an untraced run pays one branch per call site — or on, in which case
//! every span (name, start, end, OS thread, and the span that was open on
//! the same thread when it started) is kept in memory and written out as a
//! chrome-trace file when the benchmark ends.
//!
//! Spans measure wall time on the host. A call made from a simulated
//! thread includes the time its carrier waited for the scheduler to hand
//! the CPU back, so per-call times of blocking layers are *latencies seen
//! by the caller*, not CPU time spent in the layer.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

use parking_lot::Mutex;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id (1-based).
    pub id: u32,
    /// Id of the span open on the same thread when this one started, or 0.
    pub parent: u32,
    /// Layer-qualified name, e.g. `posix.open`.
    pub name: &'static str,
    /// Small dense id of the OS thread that recorded it.
    pub tid: u32,
    /// Start, ns since the trace origin.
    pub start_ns: u64,
    /// End, ns since the trace origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

static NEXT_TID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static TID: u32 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// In-memory span recorder (see the module docs).
pub struct Trace {
    on: bool,
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Trace {
    /// A recorder that records (`on`) or only runs closures.
    pub fn new(on: bool) -> Self {
        Trace {
            on,
            origin: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// True when spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Run `f` inside a span named `name`.
    #[inline]
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied().unwrap_or(0);
            open.push(id);
            parent
        });
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        OPEN.with(|open| open.borrow_mut().pop());
        self.push(id, parent, name, start, end);
        out
    }

    /// Record an already-timed interval as a span with no children (for
    /// calls whose span is kept only for some outcomes).
    pub fn record(&self, name: &'static str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| open.borrow().last().copied().unwrap_or(0));
        self.push(id, parent, name, start, end);
    }

    fn push(&self, id: u32, parent: u32, name: &'static str, start: Instant, end: Instant) {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let span = Span {
            id,
            parent,
            name,
            tid: TID.with(|t| *t),
            start_ns: ns(start),
            end_ns: ns(end),
        };
        self.spans.lock().push(span);
    }

    /// Durations (µs) of every span named `name`, in record order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .collect()
    }

    /// Number of spans whose name starts with `prefix`.
    pub fn count_prefix(&self, prefix: &str) -> usize {
        self.spans
            .lock()
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .count()
    }

    /// Per-name totals: `(count, total µs, self µs)`, where self time is a
    /// span's duration minus the part its direct children cover.
    pub fn layer_table(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let spans = self.spans.lock();
        let mut child_us: BTreeMap<u32, f64> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            *child_us.entry(s.parent).or_default() += s.us();
        }
        let mut table: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for s in spans.iter() {
            let row = table.entry(s.name).or_default();
            let children = child_us.get(&s.id).copied().unwrap_or(0.0);
            row.0 += 1;
            row.1 += s.us();
            row.2 += (s.us() - children).max(0.0);
        }
        table
    }

    /// Every span as a chrome-trace (`chrome://tracing`, Perfetto) JSON
    /// document: complete events on one process, one lane per OS thread.
    pub fn chrome_json(&self) -> String {
        let spans = self.spans.lock();
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
                s.name,
                s.tid,
                s.start_ns as f64 / 1e3,
                s.us(),
                s.id,
                s.parent
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Measures the CPU time this process uses — user plus system, over all
/// its threads, live and exited — from `/proc/self/stat` (10 ms ticks).
/// Reads 0 where procfs is unavailable.
pub struct CpuTimer(u64);

impl CpuTimer {
    /// Start measuring.
    pub fn start() -> Self {
        CpuTimer(process_cpu_ticks())
    }

    /// CPU seconds used since [`CpuTimer::start`].
    pub fn elapsed_s(&self) -> f64 {
        process_cpu_ticks().saturating_sub(self.0) as f64 / 100.0
    }
}

fn process_cpu_ticks() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // Fields after the parenthesised command name start at `state`;
    // `utime` and `stime` are the 12th and 13th of them.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    ticks(11) + ticks(12)
}

/// The `q`-quantile (0..=1) of `values` by nearest rank; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_trace_records_nothing() {
        let t = Trace::new(false);
        assert_eq!(t.span("a", || 7), 7);
        assert!(t.layer_table().is_empty());
    }

    #[test]
    fn nested_spans_link_to_their_parent_and_self_time_excludes_children() {
        let t = Trace::new(true);
        t.span("outer", || {
            t.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let table = t.layer_table();
        let (n, total, self_us) = table["outer"];
        assert_eq!(n, 1);
        assert!(self_us < total, "outer self {self_us} vs total {total}");
        assert_eq!(table["inner"].0, 1);
        assert!(t.chrome_json().contains("\"parent\":1"));
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
