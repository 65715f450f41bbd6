//! The CI gates behind one harness. Each gate module keeps its workload
//! and one `verdict(&outcome) -> Verdict` holding all of its checks;
//! [`Gate::run`] runs a gate at its CI size and unit tests call the same
//! `verdict` at smaller sizes, so both judge a run the same way.

use std::str::FromStr;

use crate::fleet_scale::{run_fleet_scale, FleetConfig};
use crate::{distributed_gate, explore_gate, fleet_scale, iosan_gate, sched_scale, serve_gate};

/// One CI gate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Gate {
    /// Every example workload under the I/O sanitizer.
    Iosan,
    /// A sanitized 4-rank job sharing one checkpoint.
    Distributed,
    /// A sanitized 256-rank job through the tree reduction.
    Fleet,
    /// Concurrent jobs streaming session diffs to one live daemon.
    Serve,
    /// Model checking of a seeded race and its cure.
    Explore,
    /// 2 000 simulated threads on a constant OS-thread pool.
    Scale,
}

impl Gate {
    /// Every gate, in the order `gate -- all` runs them.
    pub const ALL: [Gate; 6] = [
        Gate::Iosan,
        Gate::Distributed,
        Gate::Fleet,
        Gate::Serve,
        Gate::Explore,
        Gate::Scale,
    ];

    /// The gate's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Gate::Iosan => "iosan",
            Gate::Distributed => "distributed",
            Gate::Fleet => "fleet",
            Gate::Serve => "serve",
            Gate::Explore => "explore",
            Gate::Scale => "scale",
        }
    }

    /// Run the gate at its CI size and judge the outcome.
    pub fn run(self) -> Verdict {
        match self {
            Gate::Iosan => iosan_gate::verdict(&iosan_gate::run_gate()),
            Gate::Distributed => {
                distributed_gate::verdict(&distributed_gate::run_distributed_gate(4))
            }
            Gate::Fleet => fleet_scale::verdict(&run_fleet_scale(&FleetConfig {
                sanitize: true,
                ..FleetConfig::new(256)
            })),
            Gate::Serve => serve_gate::verdict(&serve_gate::run_serve_gate(6, 3)),
            Gate::Explore => explore_gate::verdict(&explore_gate::run_gate()),
            Gate::Scale => sched_scale::verdict(&sched_scale::run_sched_scale(2_000, 3, true)),
        }
    }
}

impl FromStr for Gate {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let found = Gate::ALL.into_iter().find(|g| g.name() == s);
        found.ok_or_else(|| format!("unknown gate `{s}`"))
    }
}

/// A gate's judgement of one run: what it saw and every failed check.
#[derive(Clone, Debug)]
pub struct Verdict {
    /// The gate that judged.
    pub gate: Gate,
    /// What the run did, one line each.
    pub summary: Vec<String>,
    /// Every failed check, one line each (empty on a pass).
    pub failures: Vec<String>,
}

impl Verdict {
    /// An empty (passing) verdict for `gate`.
    pub fn new(gate: Gate) -> Self {
        Verdict {
            gate,
            summary: Vec::new(),
            failures: Vec::new(),
        }
    }

    /// Record `failure` unless `ok` holds.
    pub fn check(&mut self, ok: bool, failure: impl Into<String>) {
        if !ok {
            self.failures.push(failure.into());
        }
    }

    /// Did every check hold?
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// The verdict as text: a heading, the summary, then each failure.
    pub fn render(&self) -> String {
        let status = if self.passed() { "PASS" } else { "FAIL" };
        let mut out = format!("== {} gate: {status} ==\n", self.gate.name());
        for line in &self.summary {
            out += &format!("  {line}\n");
        }
        for failure in &self.failures {
            out += &format!("  FAIL: {failure}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_names_parse_and_round_trip() {
        for g in Gate::ALL {
            assert_eq!(g.name().parse::<Gate>(), Ok(g));
        }
        assert!("all".parse::<Gate>().is_err());
        assert!("scale_smoke".parse::<Gate>().is_err());
    }

    #[test]
    fn a_failed_check_fails_the_verdict_and_renders() {
        let mut v = Verdict::new(Gate::Serve);
        v.summary.push("3 jobs".into());
        v.check(true, "a passing check records nothing");
        assert!(v.passed());
        assert!(v.render().starts_with("== serve gate: PASS =="));
        v.check(false, "bytes differ");
        assert!(!v.passed());
        assert_eq!(
            v.render(),
            "== serve gate: FAIL ==\n  3 jobs\n  FAIL: bytes differ\n"
        );
    }
}
