//! Data-carrying collectives with tolerant membership.
//!
//! The world [`crate::Comm`] collectives model *cost only* and require all
//! ranks to participate in every call — correct for an SPMD application,
//! deadlock-prone for background services whose members stop at different
//! virtual times (a prefetch daemon blocked in a barrier while a peer has
//! already shut down would hang the simulation). [`SumAllreduce`] is the
//! service-grade alternative: an element-wise sum allreduce over string-keyed
//! `u64` vectors whose membership can shrink mid-flight — a member that
//! leaves can complete a round its peers are already waiting on.

use std::collections::HashMap;
use std::sync::Arc;

use simrt::sleep;
use simrt::sync::{Condvar, Mutex};

use crate::comm::NetworkModel;

struct SumState {
    /// Members still participating; a round completes when `arrived == live`.
    live: usize,
    /// Completed-round counter (contributors wait for it to advance).
    round: u64,
    /// Contributions merged into `acc` this round.
    arrived: usize,
    /// Element-wise sum of this round's contributions.
    acc: HashMap<String, u64>,
    /// Result of the last completed round.
    result: Arc<HashMap<String, u64>>,
}

/// An element-wise sum allreduce over `HashMap<String, u64>` with tolerant
/// membership: created for `members` participants, each call to
/// [`SumAllreduce::allreduce`] contributes one vector and blocks (in virtual
/// time) until every *live* member has contributed, then all contributors
/// observe the identical fused vector. [`SumAllreduce::leave`] removes a
/// member permanently and, if the remaining members are all waiting,
/// completes the pending round — shutdown can never deadlock a peer.
///
/// Cost model: [`NetworkModel::ring_allreduce`] — the formula
/// [`crate::Comm::allreduce_bytes`] charges — applied to the serialized
/// size of the fused vector, charged to every contributor of the round.
/// Built on virtual-time primitives, so the wait also emits the
/// Signal/Wait sync events that give `iosan` cross-member happens-before
/// edges.
#[derive(Clone)]
pub struct SumAllreduce {
    net: NetworkModel,
    state: Arc<Mutex<SumState>>,
    cv: Arc<Condvar>,
}

impl SumAllreduce {
    /// A collective for `members` participants over interconnect `net`.
    pub fn new(net: NetworkModel, members: usize) -> Self {
        assert!(members > 0);
        SumAllreduce {
            net,
            state: Arc::new(Mutex::named(
                SumState {
                    live: members,
                    round: 0,
                    arrived: 0,
                    acc: HashMap::new(),
                    result: Arc::new(HashMap::new()),
                },
                Some("mpi:sum-allreduce"),
            )),
            cv: Arc::new(Condvar::named(Some("mpi:sum-allreduce"))),
        }
    }

    /// Members that have not left yet.
    pub fn live(&self) -> usize {
        self.state.lock().live
    }

    /// Contribute `local` to the current round and block (virtual time)
    /// until the round completes; returns the fused element-wise sum over
    /// all live members' contributions.
    pub fn allreduce(&self, local: &HashMap<String, u64>) -> Arc<HashMap<String, u64>> {
        let mut st = self.state.lock();
        for (k, v) in local {
            *st.acc.entry(k.clone()).or_insert(0) += *v;
        }
        st.arrived += 1;
        let my_round = st.round;
        let (result, peers) = if st.arrived >= st.live {
            (Self::complete_round(&mut st, &self.cv), st.live)
        } else {
            while st.round == my_round {
                st = self.cv.wait(st);
            }
            (st.result.clone(), st.live)
        };
        drop(st);
        self.charge(&result, peers);
        result
    }

    /// Leave the collective. If the remaining members are all blocked in
    /// the current round, the round completes now with their contributions.
    pub fn leave(&self) {
        let mut st = self.state.lock();
        if st.live == 0 {
            return;
        }
        st.live -= 1;
        if st.live > 0 && st.arrived >= st.live {
            Self::complete_round(&mut st, &self.cv);
        }
    }

    fn complete_round(st: &mut SumState, cv: &Condvar) -> Arc<HashMap<String, u64>> {
        st.result = Arc::new(std::mem::take(&mut st.acc));
        st.round += 1;
        st.arrived = 0;
        cv.notify_all();
        st.result.clone()
    }

    /// Charge the allreduce cost inline (carrier contributors).
    fn charge(&self, result: &HashMap<String, u64>, peers: usize) {
        if !simrt::on_sim_thread() {
            return;
        }
        let bytes: usize = result.keys().map(|k| k.len() + 8).sum();
        let cost = self.net.ring_allreduce(peers, bytes as u64);
        if !cost.is_zero() {
            sleep(cost);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrt::Sim;

    fn map(pairs: &[(&str, u64)]) -> HashMap<String, u64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn fuses_contributions_elementwise() {
        let sim = Sim::new();
        let all = SumAllreduce::new(NetworkModel::default(), 3);
        let results = Arc::new(parking_lot::Mutex::new(Vec::new()));
        for rank in 0..3u64 {
            let all = all.clone();
            let results = results.clone();
            sim.spawn(format!("m{rank}"), move || {
                let local = map(&[("shared", rank + 1), (&format!("own{rank}"), 10)]);
                let fused = all.allreduce(&local);
                results.lock().push(fused);
            });
        }
        sim.run();
        let results = results.lock();
        assert_eq!(results.len(), 3);
        for fused in results.iter() {
            assert_eq!(fused["shared"], 1 + 2 + 3);
            assert_eq!(fused["own0"], 10);
            assert_eq!(fused["own2"], 10);
            assert_eq!(fused.len(), 4);
        }
    }

    #[test]
    fn leave_completes_pending_round() {
        // Member 0 contributes and waits; member 1 leaves without ever
        // contributing. The round must complete with member 0's vector
        // alone instead of deadlocking the simulation.
        let sim = Sim::new();
        let all = SumAllreduce::new(NetworkModel::default(), 2);
        let got = Arc::new(parking_lot::Mutex::new(None));
        {
            let all = all.clone();
            let got = got.clone();
            sim.spawn("contributor", move || {
                *got.lock() = Some(all.allreduce(&map(&[("h", 7)])));
            });
        }
        {
            let all = all.clone();
            sim.spawn("leaver", move || {
                simrt::sleep(std::time::Duration::from_millis(5));
                all.leave();
            });
        }
        sim.run();
        let fused = got.lock().clone().expect("round completed");
        assert_eq!(fused["h"], 7);
        assert_eq!(all.live(), 1);
    }

    #[test]
    fn single_member_rounds_are_immediate() {
        let sim = Sim::new();
        let all = SumAllreduce::new(NetworkModel::default(), 1);
        sim.spawn("solo", move || {
            let f1 = all.allreduce(&map(&[("a", 1)]));
            assert_eq!(f1["a"], 1);
            // Rounds do not accumulate across calls.
            let f2 = all.allreduce(&map(&[("a", 2)]));
            assert_eq!(f2["a"], 2);
            assert_eq!(simrt::now().as_secs_f64(), 0.0, "n=1 costs nothing");
        });
        sim.run();
    }

    #[test]
    fn leave_during_fusion_ws8() {
        // Regression (fleet refactor): a member that leaves mid-round —
        // after some peers contributed, before the round completed — must
        // neither deadlock the seven waiters nor corrupt the partial sum.
        // The leaver never contributes; the fused vector is exactly the
        // seven live contributions.
        let sim = Sim::new();
        let all = SumAllreduce::new(NetworkModel::default(), 8);
        let results = Arc::new(parking_lot::Mutex::new(Vec::new()));
        for rank in 0..7u64 {
            let all = all.clone();
            let results = results.clone();
            sim.spawn(format!("m{rank}"), move || {
                // Stagger arrivals so the leave lands strictly between the
                // first and last contribution.
                simrt::sleep(std::time::Duration::from_millis(rank));
                let fused = all.allreduce(&map(&[("heat", 1 << rank)]));
                results.lock().push(fused);
            });
        }
        {
            let all = all.clone();
            sim.spawn("leaver", move || {
                simrt::sleep(std::time::Duration::from_millis(3));
                all.leave();
            });
        }
        sim.run();
        let results = results.lock();
        assert_eq!(results.len(), 7, "no waiter deadlocked");
        for fused in results.iter() {
            assert_eq!(fused["heat"], 0x7f, "sum of exactly the 7 live members");
            assert_eq!(fused.len(), 1);
        }
        assert_eq!(all.live(), 7);
    }

    #[test]
    fn charges_the_same_ring_cost_as_world_allreduce() {
        // Same member count, same bytes: the fused-vector round and the
        // world collective charge one formula, to the nanosecond.
        let fused_round = |members: usize, local: HashMap<String, u64>| {
            let sim = Sim::new();
            let all = SumAllreduce::new(NetworkModel::default(), members);
            for rank in 0..members {
                let (all, local) = (all.clone(), local.clone());
                sim.spawn(format!("m{rank}"), move || {
                    all.allreduce(&local);
                });
            }
            sim.run();
            sim.now()
        };
        let world_allreduce = |members: usize, bytes: u64| {
            let sim = Sim::new();
            let world = crate::MpiWorld::new(
                &storage_sim::StorageStack::new(),
                members,
                NetworkModel::default(),
            );
            world.spawn_ranks(&sim, move |comm| comm.allreduce_bytes(bytes));
            sim.run();
            sim.now()
        };
        for members in [2, 3, 7, 64] {
            for entries in [1usize, 13, 1000] {
                let local: HashMap<String, u64> =
                    (0..entries).map(|i| (format!("/hdd/f{i}"), 1)).collect();
                let bytes: usize = local.keys().map(|k| k.len() + 8).sum();
                let fused = fused_round(members, local);
                assert!(fused > simrt::SimTime::ZERO);
                assert_eq!(
                    fused,
                    world_allreduce(members, bytes as u64),
                    "{members} members, {bytes} bytes"
                );
            }
        }
    }

    #[test]
    fn cost_scales_with_vector_size() {
        let run = |entries: usize| {
            let sim = Sim::new();
            let all = SumAllreduce::new(NetworkModel::default(), 4);
            for rank in 0..4 {
                let all = all.clone();
                sim.spawn(format!("m{rank}"), move || {
                    let local: HashMap<String, u64> =
                        (0..entries).map(|i| (format!("file-{i:08}"), 1)).collect();
                    all.allreduce(&local);
                });
            }
            sim.run();
            sim.now().as_secs_f64()
        };
        assert!(run(10_000) > run(10), "bigger fused vector costs more");
    }
}
