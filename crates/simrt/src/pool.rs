//! The process-wide pool of carrier OS threads.
//!
//! [`Sim::spawn`](crate::Sim::spawn) hands each carrier task to an idle
//! pooled thread instead of starting a fresh one. Assignment is *stable*:
//! a spawn always takes the idle worker with the lowest index, and a
//! worker rejoins the idle set as soon as its task's user code is done.
//! A simulation that spawns its carriers in a fixed order therefore puts
//! logical carrier *i* on worker *i* in every run of the process.
//!
//! That stability is what keeps memory flat across repeated simulations.
//! glibc gives each thread its own malloc arena (up to eight per core) and
//! raises its mmap threshold dynamically, so the large collections a
//! carrier grows stay cached in the arena of the thread that grew them.
//! Fresh threads per run — or a LIFO pool that shuffles carriers across
//! threads — land each run's allocations in a different arena, and the
//! process's peak RSS climbs with the number of runs. Reusing the same
//! thread for the same carrier reuses the same arena.
//!
//! Workers never exit; the pool only grows, to the largest number of
//! carrier tasks that were ever busy at once.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

/// A unit of work for a pooled thread. It receives its worker's
/// [`Lease`] so it can hand the worker back before it has fully returned.
pub(crate) type Job = Box<dyn FnOnce(Lease) + Send>;

struct Worker {
    /// The job handed over by [`submit`], taken by the worker thread.
    job: Mutex<Option<Job>>,
    ready: Condvar,
}

struct Pool {
    workers: Vec<Arc<Worker>>,
    /// Indices of the workers free to take a job.
    idle: BTreeSet<usize>,
}

static POOL: Mutex<Pool> = Mutex::new(Pool {
    workers: Vec::new(),
    idle: BTreeSet::new(),
});

/// A worker's claim on its own slot in the pool. Releasing it (explicitly
/// with [`Lease::release`], or by dropping it) returns the worker to the
/// idle set. A job may release early, while it still finishes up: a job
/// handed over meanwhile waits in the worker's slot until this one
/// returns, so at most one job is ever queued per worker.
pub(crate) struct Lease {
    worker: Option<usize>,
}

impl Lease {
    /// Return the worker to the idle set now.
    pub(crate) fn release(&mut self) {
        if let Some(idx) = self.worker.take() {
            POOL.lock().idle.insert(idx);
        }
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        self.release();
    }
}

/// Run `job` on the idle pooled thread with the lowest index, starting a
/// new thread only when every worker is busy.
pub(crate) fn submit(job: Job) {
    let mut pool = POOL.lock();
    if let Some(idx) = pool.idle.pop_first() {
        let worker = Arc::clone(&pool.workers[idx]);
        drop(pool);
        *worker.job.lock() = Some(job);
        worker.ready.notify_one();
        return;
    }
    let idx = pool.workers.len();
    let worker = Arc::new(Worker {
        job: Mutex::new(Some(job)),
        ready: Condvar::new(),
    });
    pool.workers.push(Arc::clone(&worker));
    std::thread::Builder::new()
        .name(format!("simrt-carrier-{idx}"))
        .spawn(move || work(idx, &worker))
        .expect("failed to spawn carrier thread");
}

fn work(idx: usize, worker: &Worker) {
    loop {
        let job = {
            let mut slot = worker.job.lock();
            loop {
                if let Some(job) = slot.take() {
                    break job;
                }
                worker.ready.wait(&mut slot);
            }
        };
        let lease = Lease { worker: Some(idx) };
        // Carrier jobs catch their task's panics themselves; this only
        // keeps the worker alive should the scheduler's own bookkeeping
        // unwind. The lease is released either way.
        let _ = catch_unwind(AssertUnwindSafe(|| job(lease)));
    }
}
