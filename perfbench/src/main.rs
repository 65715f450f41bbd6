//! `perfbench`: the host-time benchmark of the tf-darshan workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <imagenet_tfd28|malware_ckpt_san|fleet1024|serve_ingest64|all> \
//!     [--seed N] [--seconds N] [--trace 0|1] [--record]
//! ```
//!
//! One workload prints its report and, as the last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics` (end-to-end with
//! `--trace 0`, per-layer with `--trace 1`). `all` runs every workload
//! untraced and then traced, each in its own process so peak RSS is its
//! own. `--record` stores the run's virtual-time outputs as the
//! expectations the guard compares against.

use std::process::{Command, ExitCode};

use perfbench::runner::{self, Options};
use perfbench::Workload;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}|all> [--seed N] [--seconds N] [--trace 0|1] [--record]",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut record) = (1u64, 20u64, false, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--record" {
            record = true;
            continue;
        }
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Some(value.clone());
                true
            }
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            "--seconds" => value.parse().map(|v| seconds = v).is_ok(),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    trace = value == "1";
                    true
                }
                _ => false,
            },
            _ => return usage(&format!("unknown flag {flag}")),
        };
        if !ok {
            return usage(&format!("bad value {value:?} for {flag}"));
        }
    }
    let Some(name) = workload else {
        return usage("--workload is required");
    };
    if name == "all" {
        return run_all(seed, seconds);
    }
    let Some(workload) = Workload::from_name(&name) else {
        return usage(&format!("unknown workload {name:?}"));
    };
    let outcome = runner::run(&Options {
        workload,
        seed,
        seconds,
        trace,
        record,
    });
    print!("{}", outcome.text);
    println!("{}", runner::json_line(&outcome));
    ExitCode::SUCCESS
}

/// Every workload, untraced then traced, each in a child process.
fn run_all(seed: u64, seconds: u64) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut ok = true;
    for w in Workload::ALL {
        for trace in ["0", "1"] {
            let status = Command::new(&exe)
                .args(["--workload", w.name(), "--trace", trace])
                .args([
                    "--seed",
                    &seed.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                ])
                .status()
                .expect("child benchmark starts");
            ok &= status.success();
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
