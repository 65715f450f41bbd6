//! The CI gates, one binary: run the named gates (or `all`) at their CI
//! sizes, print each verdict, and exit 1 if any failed. The gates are
//! `iosan`, `distributed`, `fleet`, `serve`, `explore` and `scale`
//! (`workloads::gate`); `explore replay <token>` re-runs one schedule of
//! the seeded explore workload and exits 1 on a finding.
//!
//! ```text
//! cargo run --release --example gate -- all
//! cargo run --release --example gate -- fleet serve
//! cargo run --release --example gate -- explore replay rt1:0.0.0.0.1
//! ```

use std::process::ExitCode;

use tf_darshan::explore::{replay, ReplayToken};
use tf_darshan::workloads::{explore_gate, Gate};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let gates: Result<Vec<Gate>, String> = match args.as_slice() {
        [gate, cmd, token] if gate == "explore" && cmd == "replay" => match token.parse() {
            Ok(token) => return replay_seeded(&token),
            Err(_) => Err(format!("invalid replay token `{token}`")),
        },
        [all] if all == "all" => Ok(Gate::ALL.to_vec()),
        [] => Err("no gate named".into()),
        names => names.iter().map(|n| n.parse()).collect(),
    };
    let gates = match gates {
        Ok(gates) => gates,
        Err(e) => {
            eprintln!("{e}\nusage: gate <iosan|distributed|fleet|serve|explore|scale>... | all");
            eprintln!("       gate explore replay <token>");
            return ExitCode::from(2);
        }
    };
    let mut failed = Vec::new();
    for gate in gates {
        println!("running the {} gate ...", gate.name());
        let verdict = gate.run();
        println!("{}", verdict.render());
        if !verdict.passed() {
            failed.push(gate.name());
        }
    }
    if failed.is_empty() {
        println!("all gates passed");
        return ExitCode::SUCCESS;
    }
    println!("failed gates: {}", failed.join(", "));
    ExitCode::FAILURE
}

/// Re-run one schedule of the seeded explore workload; exit 1 on a finding.
fn replay_seeded(token: &ReplayToken) -> ExitCode {
    let out = replay(explore_gate::racy_workload, token);
    println!("replayed {} ({} events)", out.token, out.events.len());
    print!("{}", out.report.render_ascii());
    ExitCode::from(u8::from(!out.report.findings.is_empty()))
}
