//! Quickstart for the live observability daemon: start a daemon, run
//! four concurrent simulated training jobs that stream their session
//! diffs to it, then scrape it exactly the way an operator would —
//! `/metrics` for Prometheus, `/jobs` for the tenant listing, and a live
//! per-job HTML report page.
//!
//! While this binary sleeps between scrapes you can curl the printed
//! endpoints yourself:
//!
//! ```text
//! cargo run --release --example serve_smoke
//! # in another shell, while it runs:
//! curl http://<printed addr>/metrics
//! curl http://<printed addr>/jobs
//! curl http://<printed addr>/jobs/train-0/html
//! ```

use std::sync::Arc;

use tf_darshan::serve::{LocalPublisher, Publisher, ServeConfig, ServeDaemon, TcpPublisher};
use tf_darshan::workloads::serve_gate::run_job;

fn main() {
    let daemon = ServeDaemon::start(ServeConfig::default()).expect("daemon binds");
    println!("serve daemon up:");
    println!("  http   http://{}", daemon.http_addr());
    println!("  ingest {} (NDJSON session diffs)", daemon.ingest_addr());

    // Four jobs on four host threads; two publish in-process, two over TCP.
    let handles: Vec<_> = (0..4usize)
        .map(|j| {
            let publisher: Arc<dyn Publisher> = if j % 2 == 0 {
                Arc::new(LocalPublisher::new(daemon.service()))
            } else {
                Arc::new(TcpPublisher::new(daemon.ingest_addr()))
            };
            // Three epochs over a small private dataset, one session diff
            // published per profiling window.
            std::thread::spawn(move || run_job(&format!("train-{j}"), j, 3, publisher))
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // Give the TCP path a beat to drain, then scrape like an operator.
    // simlint: allow(host-sleep)
    std::thread::sleep(std::time::Duration::from_millis(100));
    let (_, metrics) = daemon.get("/metrics").expect("scrape");
    println!("\n$ curl /metrics (per-job families)");
    for line in metrics
        .lines()
        .filter(|l| l.starts_with("tfdarshan_job_bytes_read_total") && !l.starts_with('#'))
    {
        println!("  {line}");
    }
    let (_, jobs) = daemon.get("/jobs").expect("listing");
    println!("\n$ curl /jobs\n{jobs}");
    let (status, page) = daemon.get("/jobs/train-0/html").expect("html");
    println!(
        "\n$ curl /jobs/train-0/html  -> {status}, {} bytes of live report",
        page.len()
    );

    daemon.shutdown();
    println!("\ndaemon stopped.");
}
