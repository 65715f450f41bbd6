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
//! * [`Sim::spawn`] creates a *carrier* simulated thread, carried by a real
//!   OS thread, for code that must look like blocking POSIX. Exactly one
//!   simulated thread executes at any moment; control transfers on
//!   [`sleep`], [`yield_now`], or blocking in [`sync`] primitives.
//!   Interleaving is by (virtual time, FIFO sequence) — fully deterministic.
//! * [`Sim::spawn_event`] creates an *event task*: a stackless state machine
//!   ([`EventTask`]) resumed inline by the discrete-event loop — no OS
//!   thread, so tens of thousands of samplers, barrier crossers and
//!   reduction steps cost a heap entry each. Both flavors share one
//!   calendar, one id space, and identical ordering semantics.
//! * [`Sim::run`] drives the calendar until all simulated threads finish,
//!   propagating panics and diagnosing virtual-time deadlocks.
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

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pool;
mod sched;
pub mod sync;
mod time;

pub use sched::{
    block, current_task, current_task_name, emit_sync, new_sync_obj_id, now, on_sim_thread,
    set_context_switch_hook, set_wait_context, sleep, sleep_until, try_now, wake, yield_now,
    Candidate, DecisionPoint, EventCx, EventHandle, EventPoll, EventTask, JoinHandle, SchedStats,
    SchedulePolicy, Sim, SyncEvent, SyncObserver, SyncOp, TaskId, WakeReason,
};
pub use time::{dur, SimTime};
