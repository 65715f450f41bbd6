//! # simrt — deterministic virtual-time execution runtime
//!
//! The substrate under the entire tf-Darshan reproduction. Every other crate
//! (storage devices, POSIX layer, Darshan instrumentation, the TensorFlow-
//! like runtime) measures and advances time on this clock, so an experiment
//! that "runs for 500 training steps over 48 GB of data" completes in
//! milliseconds of host time with **bit-identical timestamps across runs**.
//!
//! ## Model
//!
//! * A [`Sim`] owns a virtual clock and a calendar of runnable tasks.
//! * [`Sim::spawn`] creates a simulated thread: a *carrier*, a stackful
//!   coroutine with a real stack of its own, so code reads like blocking
//!   POSIX. Exactly one simulated thread executes at any moment; control
//!   transfers on [`sleep`], [`yield_now`], or blocking in [`sync`]
//!   primitives, and a transfer is a register swap in user space.
//!   Interleaving is by (virtual time, FIFO sequence) — fully deterministic.
//!   Stacks are pooled and touched lazily, so tens of thousands of timers,
//!   samplers and barrier crossers cost a few KiB of resident stack each.
//! * [`Sim::run`] drives the calendar until all simulated threads finish,
//!   propagating panics and diagnosing virtual-time deadlocks. Every task
//!   of the sim runs on the thread that calls it; a simulation starts no
//!   OS thread.
//!
//! ## Example
//!
//! ```
//! use std::time::Duration;
//!
//! let sim = simrt::Sim::new();
//! let (tx, rx) = simrt::sync::channel::<u32>(Some(4));
//! sim.spawn("producer", move || {
//!     for i in 0..8 {
//!         simrt::sleep(Duration::from_millis(1)); // "work"
//!         tx.send(i).unwrap();
//!     }
//! });
//! sim.spawn("consumer", move || {
//!     let mut sum = 0;
//!     while let Some(v) = rx.recv() {
//!         sum += v;
//!     }
//!     assert_eq!(sum, 28);
//! });
//! sim.run();
//! assert_eq!(sim.now().as_nanos(), 8_000_000);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

#[allow(unsafe_code)]
mod coro;
mod sched;
pub mod sync;
mod time;

pub use sched::{
    block, current_task, current_task_name, emit_sync, new_sync_obj_id, now, on_sim_thread,
    set_context_switch_hook, set_task_word, set_wait_context, sleep, sleep_until, task_word,
    try_now, wake, yield_now, Candidate, DecisionPoint, JoinHandle, SchedStats, SchedulePolicy,
    Sim, SyncEvent, SyncObserver, SyncOp, TaskId, WakeReason,
};
pub use time::{dur, SimTime};
