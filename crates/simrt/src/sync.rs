//! Virtual-time synchronization primitives.
//!
//! All primitives here block in *virtual* time via [`crate::block`] /
//! [`crate::wake`]. Because the scheduler runs exactly one simulated thread
//! at a time, the classic check-then-block race cannot occur: registering in
//! a wait list and then descheduling is atomic with respect to all other
//! simulated threads.
//!
//! Internal state still lives behind `parking_lot::Mutex` because a
//! primitive is `Send + Sync` and may be touched from the host too — but
//! those locks are always uncontended.
//!
//! ## Event-task wait paths
//!
//! Event tasks ([`crate::Sim::spawn_event`]) have no stack to park and
//! must never call the blocking methods. Two primitives offer a
//! non-blocking twin for them: [`Event::poll_wait`] (dstat's sampler) and
//! [`Barrier::poll_wait`] (mixed-flavor barrier crossings). A poll either
//! completes the wait immediately or registers the calling task in the
//! wait list and returns "pending" — the event task then returns
//! [`crate::EventPoll::Block`] from its poll and retries when resumed.
//! Registration is idempotent (re-polling does not duplicate the entry),
//! the same [`SyncOp`] edges are emitted as on the blocking paths, and the
//! single-running-task invariant makes register-then-block atomic exactly
//! as it is for carriers. All waiting is wake- or timer-driven — there is
//! no busy-wait anywhere.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex as PlMutex;

use crate::sched::{
    block, current_task, emit_sync, new_sync_obj_id, on_sim_thread, set_wait_context, wake, SyncOp,
    TaskId, WakeReason,
};

/// Build the display label of a sync object: `"chan#3"` or `"chan#3 'batches'"`.
fn obj_label(kind: &str, id: u64, name: Option<&str>) -> Arc<str> {
    match name {
        Some(n) => Arc::from(format!("{kind}#{id} '{n}'").as_str()),
        None => Arc::from(format!("{kind}#{id}").as_str()),
    }
}

// ---------------------------------------------------------------------------
// Channel
// ---------------------------------------------------------------------------

/// Error returned by [`Sender::send`] when all receivers are gone or the
/// channel was closed.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

struct ChanState<T> {
    buf: VecDeque<T>,
    cap: Option<usize>,
    closed: bool,
    senders: usize,
    receivers: usize,
    recv_waiters: VecDeque<TaskId>,
    send_waiters: VecDeque<TaskId>,
}

struct ChanInner<T> {
    st: PlMutex<ChanState<T>>,
    id: u64,
    label: Arc<str>,
}

impl<T> ChanInner<T> {
    // The wake loops skip stale registrations (a waiter that already timed
    // out or was woken for another reason and has not yet purged itself):
    // `wake` returns false for anything not actually blocked, and stopping
    // there would silently drop the notification for the live waiter
    // behind it.
    fn wake_one_recv(st: &mut ChanState<T>) {
        while let Some(w) = st.recv_waiters.pop_front() {
            if wake(w) {
                break;
            }
        }
    }
    fn wake_one_send(st: &mut ChanState<T>) {
        while let Some(w) = st.send_waiters.pop_front() {
            if wake(w) {
                break;
            }
        }
    }
    fn wake_all(st: &mut ChanState<T>) {
        for w in st.recv_waiters.drain(..) {
            wake(w);
        }
        for w in st.send_waiters.drain(..) {
            wake(w);
        }
    }
}

/// Sending half of a virtual-time MPMC channel.
pub struct Sender<T> {
    inner: Arc<ChanInner<T>>,
}

/// Receiving half of a virtual-time MPMC channel.
pub struct Receiver<T> {
    inner: Arc<ChanInner<T>>,
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.inner.st.lock().senders += 1;
        Sender {
            inner: self.inner.clone(),
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.inner.st.lock().receivers += 1;
        Receiver {
            inner: self.inner.clone(),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.inner.st.lock();
        st.senders -= 1;
        if st.senders == 0 {
            // Receivers must observe end-of-stream; the release half of the
            // edge a receiver's `None` acquires.
            for w in st.recv_waiters.drain(..) {
                wake(w);
            }
            emit_sync(SyncOp::Signal, self.inner.id, &self.inner.label);
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut st = self.inner.st.lock();
        st.receivers -= 1;
        if st.receivers == 0 {
            for w in st.send_waiters.drain(..) {
                wake(w);
            }
        }
    }
}

/// Create a channel. `cap = None` means unbounded; `Some(n)` blocks senders
/// once `n` messages are queued (the back-pressure that makes `prefetch`
/// buffers and bounded pipeline queues behave like TensorFlow's).
pub fn channel<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
    channel_inner(cap, None)
}

/// [`channel`] with a human-readable name carried into sync events and
/// deadlock dumps.
pub fn channel_named<T>(cap: Option<usize>, name: &str) -> (Sender<T>, Receiver<T>) {
    channel_inner(cap, Some(name))
}

fn channel_inner<T>(cap: Option<usize>, name: Option<&str>) -> (Sender<T>, Receiver<T>) {
    let id = new_sync_obj_id();
    let inner = Arc::new(ChanInner {
        st: PlMutex::new(ChanState {
            buf: VecDeque::new(),
            cap,
            closed: false,
            senders: 1,
            receivers: 1,
            recv_waiters: VecDeque::new(),
            send_waiters: VecDeque::new(),
        }),
        id,
        label: obj_label("chan", id, name),
    });
    (
        Sender {
            inner: inner.clone(),
        },
        Receiver { inner },
    )
}

impl<T> Sender<T> {
    /// Send, blocking in virtual time while the channel is full.
    pub fn send(&self, v: T) -> Result<(), SendError<T>> {
        loop {
            {
                let mut st = self.inner.st.lock();
                if st.closed || st.receivers == 0 {
                    return Err(SendError(v));
                }
                let full = st.cap.map(|c| st.buf.len() >= c).unwrap_or(false);
                if !full {
                    st.buf.push_back(v);
                    ChanInner::wake_one_recv(&mut st);
                    emit_sync(SyncOp::Signal, self.inner.id, &self.inner.label);
                    return Ok(());
                }
                let me = current_task();
                st.send_waiters.push_back(me);
            }
            set_wait_context(format!("send on full {}", self.inner.label));
            block(None);
        }
    }

    /// Close the channel: receivers drain remaining messages then observe
    /// end-of-stream; further sends fail.
    pub fn close(&self) {
        let mut st = self.inner.st.lock();
        st.closed = true;
        ChanInner::wake_all(&mut st);
        emit_sync(SyncOp::Signal, self.inner.id, &self.inner.label);
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.inner.st.lock().buf.len()
    }

    /// True if no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Receiver<T> {
    /// Receive, blocking in virtual time. Returns `None` once the channel is
    /// closed (or all senders dropped) and drained.
    pub fn recv(&self) -> Option<T> {
        loop {
            {
                let mut st = self.inner.st.lock();
                if let Some(v) = st.buf.pop_front() {
                    ChanInner::wake_one_send(&mut st);
                    emit_sync(SyncOp::Wait, self.inner.id, &self.inner.label);
                    return Some(v);
                }
                if st.closed || st.senders == 0 {
                    // End-of-stream is ordered after the producers' last
                    // sends/close: record the acquire half of that edge.
                    emit_sync(SyncOp::Wait, self.inner.id, &self.inner.label);
                    return None;
                }
                let me = current_task();
                st.recv_waiters.push_back(me);
            }
            set_wait_context(format!("recv on {}", self.inner.label));
            block(None);
        }
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.inner.st.lock().buf.len()
    }

    /// True if no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---------------------------------------------------------------------------
// Semaphore
// ---------------------------------------------------------------------------

/// A counting semaphore on virtual time. The building block for modelling
/// capacity-limited resources (RPC slots, device queue depth, thread pools).
pub struct Semaphore {
    st: PlMutex<SemState>,
    id: u64,
    label: Arc<str>,
}

struct SemState {
    permits: usize,
    waiters: VecDeque<(TaskId, usize)>,
}

impl Semaphore {
    /// Create with `permits` initial permits.
    pub fn new(permits: usize) -> Self {
        Self::named(permits, None)
    }

    /// [`Semaphore::new`] with a name carried into sync events and deadlock
    /// dumps.
    pub fn named(permits: usize, name: Option<&str>) -> Self {
        let id = new_sync_obj_id();
        Semaphore {
            st: PlMutex::new(SemState {
                permits,
                waiters: VecDeque::new(),
            }),
            id,
            label: obj_label("sem", id, name),
        }
    }

    /// Acquire `n` permits, blocking in virtual time. FIFO-fair: a large
    /// request at the head is not starved by small requests behind it.
    pub fn acquire_many(&self, n: usize) {
        loop {
            {
                let mut st = self.st.lock();
                let first_in_line = st.waiters.front().map(|(t, _)| *t) == Some(current_task())
                    || st.waiters.is_empty();
                if first_in_line && st.permits >= n {
                    if !st.waiters.is_empty() {
                        st.waiters.pop_front();
                    }
                    st.permits -= n;
                    // Grant any further satisfiable head-of-line waiters.
                    Self::wake_head(&mut st);
                    emit_sync(SyncOp::Wait, self.id, &self.label);
                    return;
                }
                let me = current_task();
                if !st.waiters.iter().any(|(t, _)| *t == me) {
                    st.waiters.push_back((me, n));
                }
            }
            set_wait_context(format!("{} permit(s) of {}", n, self.label));
            block(None);
        }
    }

    /// Acquire one permit.
    pub fn acquire(&self) {
        self.acquire_many(1);
    }

    /// Release `n` permits.
    pub fn release_many(&self, n: usize) {
        let mut st = self.st.lock();
        st.permits += n;
        Self::wake_head(&mut st);
        emit_sync(SyncOp::Signal, self.id, &self.label);
    }

    /// Release one permit.
    pub fn release(&self) {
        self.release_many(1);
    }

    /// Currently available permits.
    pub fn available(&self) -> usize {
        self.st.lock().permits
    }

    fn wake_head(st: &mut SemState) {
        if let Some((t, need)) = st.waiters.front() {
            if st.permits >= *need {
                wake(*t);
            }
        }
    }
}

/// RAII guard over a [`Semaphore`] permit.
pub struct SemaphoreGuard<'a> {
    sem: &'a Semaphore,
    n: usize,
}

impl Semaphore {
    /// Acquire one permit, released when the guard drops.
    pub fn guard(&self) -> SemaphoreGuard<'_> {
        self.acquire();
        SemaphoreGuard { sem: self, n: 1 }
    }
}

impl Drop for SemaphoreGuard<'_> {
    fn drop(&mut self) {
        self.sem.release_many(self.n);
    }
}

// ---------------------------------------------------------------------------
// Event (one-shot) and Notify
// ---------------------------------------------------------------------------

/// A one-shot event: waiters block until `set` is called; once set, all
/// current and future waits return immediately.
pub struct Event {
    st: PlMutex<EventState>,
    id: u64,
    label: Arc<str>,
}

struct EventState {
    set: bool,
    waiters: Vec<TaskId>,
}

impl Default for Event {
    fn default() -> Self {
        Self::new()
    }
}

impl Event {
    /// Create an unset event.
    pub fn new() -> Self {
        let id = new_sync_obj_id();
        Event {
            st: PlMutex::new(EventState {
                set: false,
                waiters: Vec::new(),
            }),
            id,
            label: obj_label("event", id, None),
        }
    }

    /// Set the event, waking all waiters.
    pub fn set(&self) {
        let mut st = self.st.lock();
        st.set = true;
        for w in st.waiters.drain(..) {
            wake(w);
        }
        emit_sync(SyncOp::Signal, self.id, &self.label);
    }

    /// True if already set.
    pub fn is_set(&self) -> bool {
        self.st.lock().set
    }

    /// Block in virtual time until set.
    pub fn wait(&self) {
        loop {
            {
                let mut st = self.st.lock();
                if st.set {
                    emit_sync(SyncOp::Wait, self.id, &self.label);
                    return;
                }
                st.waiters.push(current_task());
            }
            set_wait_context(format!("{} to be set", self.label));
            block(None);
        }
    }

    /// Event-task wait path for [`Event::wait`]: returns true if set
    /// (emitting the acquire edge), false after registering the calling
    /// task as a waiter (the caller should block — with a deadline of its
    /// own choosing, if it wants one — and re-poll).
    pub fn poll_wait(&self) -> bool {
        {
            let mut st = self.st.lock();
            if st.set {
                emit_sync(SyncOp::Wait, self.id, &self.label);
                return true;
            }
            let me = current_task();
            if !st.waiters.contains(&me) {
                st.waiters.push(me);
            }
        }
        set_wait_context(format!("{} to be set", self.label));
        false
    }
}

/// A reusable wakeup latch (the daemon-thread analogue of tokio's
/// `Notify`): `notify_one` stores a permit and wakes one waiter; `wait` /
/// `wait_timeout` consume the permit. A permit stored while nobody waits is
/// consumed by the next wait, so a notification between "check work" and
/// "block" is never lost.
pub struct Notify {
    st: PlMutex<NotifyState>,
    id: u64,
    label: Arc<str>,
}

struct NotifyState {
    pending: bool,
    waiters: Vec<TaskId>,
}

impl Default for Notify {
    fn default() -> Self {
        Self::new()
    }
}

impl Notify {
    /// Create with no pending notification.
    pub fn new() -> Self {
        let id = new_sync_obj_id();
        Notify {
            st: PlMutex::new(NotifyState {
                pending: false,
                waiters: Vec::new(),
            }),
            id,
            label: obj_label("notify", id, None),
        }
    }

    /// Store a permit and wake one waiter (if any). Never blocks, so it is
    /// safe to call from probe sinks and from host threads.
    pub fn notify_one(&self) {
        let mut st = self.st.lock();
        st.pending = true;
        if let Some(w) = st.waiters.pop() {
            wake(w);
        }
        emit_sync(SyncOp::Signal, self.id, &self.label);
    }

    /// Block in virtual time until notified, consuming the permit.
    pub fn wait(&self) {
        loop {
            {
                let mut st = self.st.lock();
                if st.pending {
                    st.pending = false;
                    emit_sync(SyncOp::Wait, self.id, &self.label);
                    return;
                }
                st.waiters.push(current_task());
            }
            set_wait_context(format!("a permit on {}", self.label));
            block(None);
        }
    }

    /// Block until notified or until `timeout` elapses. Returns true (and
    /// consumes the permit) if notified.
    pub fn wait_timeout(&self, timeout: Duration) -> bool {
        let deadline = crate::sched::now() + timeout;
        loop {
            {
                let mut st = self.st.lock();
                if st.pending {
                    st.pending = false;
                    emit_sync(SyncOp::Wait, self.id, &self.label);
                    return true;
                }
                if crate::sched::now() >= deadline {
                    return false;
                }
                st.waiters.push(current_task());
            }
            set_wait_context(format!("a permit on {}", self.label));
            if block(Some(deadline)) == WakeReason::Timeout {
                let mut st = self.st.lock();
                let me = current_task();
                st.waiters.retain(|t| *t != me);
                if st.pending {
                    st.pending = false;
                    emit_sync(SyncOp::Wait, self.id, &self.label);
                    return true;
                }
                return false;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Barrier
// ---------------------------------------------------------------------------

/// A reusable barrier for `n` simulated threads (used by the data-parallel
/// trainer's gradient synchronization).
pub struct Barrier {
    st: PlMutex<BarrierState>,
    n: usize,
    id: u64,
    label: Arc<str>,
}

struct BarrierState {
    count: usize,
    generation: u64,
    waiters: Vec<TaskId>,
}

impl Barrier {
    /// Create a barrier for `n` participants. `n` must be positive.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "barrier needs at least one participant");
        let id = new_sync_obj_id();
        Barrier {
            st: PlMutex::new(BarrierState {
                count: 0,
                generation: 0,
                waiters: Vec::new(),
            }),
            n,
            id,
            label: obj_label("barrier", id, None),
        }
    }

    /// Wait for all `n` participants. Returns true for exactly one "leader"
    /// per generation.
    ///
    /// Every arrival signals and every departure waits, so all work before
    /// the barrier happens-before all work after it, for every pair of
    /// participants.
    pub fn wait(&self) -> bool {
        emit_sync(SyncOp::Signal, self.id, &self.label);
        let my_gen;
        {
            let mut st = self.st.lock();
            my_gen = st.generation;
            st.count += 1;
            if st.count == self.n {
                st.count = 0;
                st.generation += 1;
                for w in st.waiters.drain(..) {
                    wake(w);
                }
                emit_sync(SyncOp::Wait, self.id, &self.label);
                return true;
            }
            st.waiters.push(current_task());
            set_wait_context(format!(
                "{} ({} of {} arrived)",
                self.label, st.count, self.n
            ));
        }
        loop {
            block(None);
            let st = self.st.lock();
            if st.generation != my_gen {
                drop(st);
                emit_sync(SyncOp::Wait, self.id, &self.label);
                return false;
            }
        }
    }

    /// Event-task wait path for [`Barrier::wait`], driven through `token`
    /// (start each crossing with `None`):
    ///
    /// * first poll — records the arrival (emitting the release edge). If it
    ///   completes the barrier, all waiters wake and `Some(true)` elects the
    ///   caller leader; otherwise the caller is registered, `token` holds
    ///   the generation, and `None` says block and re-poll.
    /// * later polls — `Some(false)` once the generation advanced (the
    ///   acquire edge is emitted and `token` resets for reuse), `None` on a
    ///   spurious wake.
    pub fn poll_wait(&self, token: &mut Option<u64>) -> Option<bool> {
        match *token {
            None => {
                emit_sync(SyncOp::Signal, self.id, &self.label);
                let ctx;
                {
                    let mut st = self.st.lock();
                    let my_gen = st.generation;
                    st.count += 1;
                    if st.count == self.n {
                        st.count = 0;
                        st.generation += 1;
                        for w in st.waiters.drain(..) {
                            wake(w);
                        }
                        emit_sync(SyncOp::Wait, self.id, &self.label);
                        return Some(true);
                    }
                    st.waiters.push(current_task());
                    ctx = format!("{} ({} of {} arrived)", self.label, st.count, self.n);
                    *token = Some(my_gen);
                }
                set_wait_context(ctx);
                None
            }
            Some(my_gen) => {
                let mut st = self.st.lock();
                if st.generation != my_gen {
                    drop(st);
                    emit_sync(SyncOp::Wait, self.id, &self.label);
                    *token = None;
                    return Some(false);
                }
                // Spurious wake: still the same generation. Stay registered
                // (the leader's drain is the only dequeue) and block again.
                let me = current_task();
                if !st.waiters.contains(&me) {
                    st.waiters.push(me);
                }
                None
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Mutex and Condvar
// ---------------------------------------------------------------------------

/// A virtual-time mutual-exclusion lock.
///
/// Unlike the raw `parking_lot` locks used for internal state, this mutex
/// blocks contenders in *virtual* time (FIFO-fair) and emits
/// [`SyncOp::Acquire`]/[`SyncOp::Release`] events, which makes it visible to
/// lockset analysis: guarding file accesses with a `sync::Mutex` is what
/// tells `iosan` they cannot race.
///
/// Ownership is tracked separately from the data: `own` holds the
/// virtual-time holder/waiter protocol, `data` is a real lock that is only
/// ever taken by the current owner (or by host threads outside the
/// simulation), so it is uncontended by construction — no `unsafe` needed.
pub struct Mutex<T> {
    id: u64,
    label: Arc<str>,
    own: PlMutex<OwnState>,
    data: PlMutex<T>,
}

struct OwnState {
    holder: Option<TaskId>,
    waiters: VecDeque<TaskId>,
}

/// RAII guard over a locked [`Mutex`]. Releases (and emits the release
/// event) on drop.
pub struct MutexGuard<'a, T> {
    lock: &'a Mutex<T>,
    inner: Option<parking_lot::MutexGuard<'a, T>>,
    /// True when the guard holds the virtual-time ownership protocol (the
    /// caller was a simulated thread); host-side locking bypasses it.
    sim_owned: bool,
}

impl<T> Mutex<T> {
    /// Create an unlocked mutex.
    pub fn new(value: T) -> Self {
        Self::named(value, None)
    }

    /// [`Mutex::new`] with a name carried into sync events, race reports and
    /// deadlock dumps.
    pub fn named(value: T, name: Option<&str>) -> Self {
        let id = new_sync_obj_id();
        Mutex {
            id,
            label: obj_label("mutex", id, name),
            own: PlMutex::new(OwnState {
                holder: None,
                waiters: VecDeque::new(),
            }),
            data: PlMutex::new(value),
        }
    }

    /// The lock's sync-object id (as it appears in [`SyncOp::Acquire`] events).
    pub fn sync_id(&self) -> u64 {
        self.id
    }

    /// Acquire, blocking in virtual time. FIFO-fair among blocked waiters.
    ///
    /// Callable from host threads too (before/after `Sim::run`), where it
    /// degrades to a plain lock without the virtual-time protocol.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        if !on_sim_thread() {
            return MutexGuard {
                lock: self,
                inner: Some(self.data.lock()),
                sim_owned: false,
            };
        }
        let me = current_task();
        loop {
            {
                let mut st = self.own.lock();
                // Strict FIFO: a newcomer queues behind already-blocked
                // waiters even when the lock is momentarily free.
                let first_in_line = st.waiters.front() == Some(&me) || st.waiters.is_empty();
                if st.holder.is_none() && first_in_line {
                    if st.waiters.front() == Some(&me) {
                        st.waiters.pop_front();
                    }
                    st.holder = Some(me);
                    break;
                }
                if !st.waiters.contains(&me) {
                    st.waiters.push_back(me);
                }
                let holder = st.holder;
                drop(st);
                match holder {
                    Some(h) => set_wait_context(format!("{} held by {}", self.label, h)),
                    None => set_wait_context(format!("{} (queued)", self.label)),
                }
            }
            block(None);
        }
        emit_sync(SyncOp::Acquire, self.id, &self.label);
        MutexGuard {
            lock: self,
            inner: Some(self.data.lock()),
            sim_owned: true,
        }
    }
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard data present")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard data present")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the data lock first: the next owner takes it immediately
        // after winning the ownership protocol.
        drop(self.inner.take());
        if !self.sim_owned {
            return;
        }
        {
            let mut st = self.lock.own.lock();
            st.holder = None;
            if let Some(w) = st.waiters.front() {
                wake(*w);
            }
        }
        emit_sync(SyncOp::Release, self.lock.id, &self.lock.label);
    }
}

/// A virtual-time condition variable paired with [`Mutex`].
///
/// `wait` atomically releases the mutex and blocks (the single-running-thread
/// invariant makes the release-then-block sequence atomic with respect to
/// all other simulated threads), re-acquiring before returning. Standard
/// caveat applies: wake-ups may be spurious with respect to the predicate,
/// so always wait in a loop.
pub struct Condvar {
    id: u64,
    label: Arc<str>,
    waiters: PlMutex<Vec<TaskId>>,
}

impl Default for Condvar {
    fn default() -> Self {
        Self::new()
    }
}

impl Condvar {
    /// Create a condition variable.
    pub fn new() -> Self {
        Self::named(None)
    }

    /// [`Condvar::new`] with a name carried into sync events and deadlock
    /// dumps.
    pub fn named(name: Option<&str>) -> Self {
        let id = new_sync_obj_id();
        Condvar {
            id,
            label: obj_label("condvar", id, name),
            waiters: PlMutex::new(Vec::new()),
        }
    }

    /// Release `guard`'s mutex, block until notified, re-acquire, return the
    /// new guard.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let lock = guard.lock;
        self.waiters.lock().push(current_task());
        set_wait_context(format!("{} (released {})", self.label, lock.label));
        drop(guard); // emits the mutex Release
        block(None);
        emit_sync(SyncOp::Wait, self.id, &self.label);
        lock.lock() // emits the mutex Acquire
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        let mut w = self.waiters.lock();
        if let Some(t) = w.pop() {
            wake(t);
        }
        drop(w);
        emit_sync(SyncOp::Signal, self.id, &self.label);
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        let mut w = self.waiters.lock();
        for t in w.drain(..) {
            wake(t);
        }
        drop(w);
        emit_sync(SyncOp::Signal, self.id, &self.label);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{now, sleep, Sim};
    use crate::time::SimTime;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn unbounded_channel_delivers_in_order() {
        let sim = Sim::new();
        let (tx, rx) = channel::<u32>(None);
        sim.spawn("producer", move || {
            for i in 0..100 {
                sleep(Duration::from_micros(1));
                tx.send(i).unwrap();
            }
        });
        let got = Arc::new(PlMutex::new(Vec::new()));
        let got2 = got.clone();
        sim.spawn("consumer", move || {
            while let Some(v) = rx.recv() {
                got2.lock().push(v);
            }
        });
        sim.run();
        assert_eq!(*got.lock(), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn bounded_channel_applies_backpressure() {
        let sim = Sim::new();
        let (tx, rx) = channel::<u64>(Some(2));
        sim.spawn("producer", move || {
            for i in 0..5 {
                tx.send(i).unwrap();
            }
            // Producer does no sleeping; it can only finish once the slow
            // consumer has drained 3 items (5 sent - 2 buffered).
            assert!(now() >= SimTime::from_nanos(3_000));
        });
        sim.spawn("consumer", move || {
            for _ in 0..5 {
                sleep(Duration::from_micros(1));
                rx.recv().unwrap();
            }
        });
        sim.run();
    }

    #[test]
    fn recv_returns_none_when_senders_drop() {
        let sim = Sim::new();
        let (tx, rx) = channel::<u8>(None);
        sim.spawn("producer", move || {
            tx.send(1).unwrap();
            // tx dropped here
        });
        sim.spawn("consumer", move || {
            assert_eq!(rx.recv(), Some(1));
            assert_eq!(rx.recv(), None);
        });
        sim.run();
    }

    #[test]
    fn send_fails_after_close() {
        let sim = Sim::new();
        let (tx, rx) = channel::<u8>(None);
        sim.spawn("t", move || {
            tx.close();
            assert_eq!(tx.send(9), Err(SendError(9)));
            assert_eq!(rx.recv(), None);
        });
        sim.run();
    }

    #[test]
    fn semaphore_limits_concurrency() {
        let sim = Sim::new();
        let sem = Arc::new(Semaphore::new(2));
        let peak = Arc::new(AtomicUsize::new(0));
        let cur = Arc::new(AtomicUsize::new(0));
        for i in 0..6 {
            let (sem, peak, cur) = (sem.clone(), peak.clone(), cur.clone());
            sim.spawn(format!("w{i}"), move || {
                let _g = sem.guard();
                let c = cur.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(c, Ordering::SeqCst);
                sleep(Duration::from_millis(1));
                cur.fetch_sub(1, Ordering::SeqCst);
            });
        }
        sim.run();
        assert_eq!(peak.load(Ordering::SeqCst), 2);
        // 6 jobs, 2 at a time, 1 ms each → 3 ms.
        assert_eq!(sim.now(), SimTime::from_nanos(3_000_000));
    }

    #[test]
    fn semaphore_fifo_no_starvation() {
        let sim = Sim::new();
        let sem = Arc::new(Semaphore::new(2));
        let order = Arc::new(PlMutex::new(Vec::new()));
        // t0 takes both permits; t1 wants both; t2 wants one. FIFO fairness
        // means t1 must get its pair before t2 sneaks in.
        {
            let sem = sem.clone();
            sim.spawn("hog", move || {
                sem.acquire_many(2);
                sleep(Duration::from_millis(2));
                sem.release_many(2);
            });
        }
        for (name, want, delay_us) in [("pair", 2usize, 10u64), ("single", 1, 20)] {
            let sem = sem.clone();
            let order = order.clone();
            sim.spawn(name, move || {
                sleep(Duration::from_micros(delay_us));
                sem.acquire_many(want);
                order.lock().push(name);
                sem.release_many(want);
            });
        }
        sim.run();
        assert_eq!(*order.lock(), vec!["pair", "single"]);
    }

    #[test]
    fn event_wakes_all_waiters() {
        let sim = Sim::new();
        let ev = Arc::new(Event::new());
        let done = Arc::new(AtomicUsize::new(0));
        for i in 0..4 {
            let (ev, done) = (ev.clone(), done.clone());
            sim.spawn(format!("w{i}"), move || {
                ev.wait();
                assert_eq!(now(), SimTime::from_nanos(1_000_000));
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        {
            let ev = ev.clone();
            sim.spawn("setter", move || {
                sleep(Duration::from_millis(1));
                ev.set();
            });
        }
        sim.run();
        assert_eq!(done.load(Ordering::SeqCst), 4);
        assert!(ev.is_set());
    }

    #[test]
    fn barrier_synchronizes_and_elects_leader() {
        let sim = Sim::new();
        let bar = Arc::new(Barrier::new(3));
        let leaders = Arc::new(AtomicUsize::new(0));
        for i in 0..3 {
            let (bar, leaders) = (bar.clone(), leaders.clone());
            sim.spawn(format!("w{i}"), move || {
                sleep(Duration::from_millis(i as u64));
                if bar.wait() {
                    leaders.fetch_add(1, Ordering::SeqCst);
                }
                // All released at the last arrival (t = 2 ms).
                assert_eq!(now(), SimTime::from_nanos(2_000_000));
            });
        }
        sim.run();
        assert_eq!(leaders.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn notify_wakes_waiter_and_is_reusable() {
        let sim = Sim::new();
        let n = Arc::new(Notify::new());
        let rounds = Arc::new(AtomicUsize::new(0));
        let (n2, r2) = (n.clone(), rounds.clone());
        sim.spawn("daemon", move || {
            for _ in 0..3 {
                assert!(n2.wait_timeout(Duration::from_secs(10)));
                r2.fetch_add(1, Ordering::SeqCst);
            }
        });
        sim.spawn("poker", move || {
            for _ in 0..3 {
                sleep(Duration::from_millis(1));
                n.notify_one();
            }
        });
        sim.run();
        assert_eq!(rounds.load(Ordering::SeqCst), 3);
        assert!(
            sim.now() < SimTime::ZERO + Duration::from_secs(1),
            "no timeout was hit"
        );
    }

    #[test]
    fn mutex_provides_mutual_exclusion() {
        let sim = Sim::new();
        let m = Arc::new(Mutex::named(0u64, Some("counter")));
        let inside = Arc::new(AtomicUsize::new(0));
        for i in 0..4 {
            let (m, inside) = (m.clone(), inside.clone());
            sim.spawn(format!("w{i}"), move || {
                for _ in 0..5 {
                    let mut g = m.lock();
                    assert_eq!(inside.fetch_add(1, Ordering::SeqCst), 0, "exclusive");
                    sleep(Duration::from_micros(10));
                    *g += 1;
                    inside.fetch_sub(1, Ordering::SeqCst);
                    drop(g);
                    sleep(Duration::from_micros(1));
                }
            });
        }
        sim.run();
        assert_eq!(*m.lock(), 20);
    }

    #[test]
    fn mutex_host_side_lock_bypasses_ownership() {
        // Outside `Sim::run`, `lock()` is a plain lock: no holder is
        // recorded, so the simulated threads never queue behind it.
        let m = Mutex::new(1u32);
        {
            let mut g = m.lock();
            assert!(!g.sim_owned);
            assert!(m.own.lock().holder.is_none());
            *g += 1;
        }
        let sim = Sim::new();
        let m = Arc::new(m);
        let m2 = m.clone();
        sim.spawn("t", move || {
            let mut g = m2.lock();
            assert!(g.sim_owned);
            assert!(m2.own.lock().holder.is_some(), "held by the sim thread");
            *g += 1;
            drop(g);
            assert!(m2.own.lock().holder.is_none(), "released on drop");
        });
        sim.run();
        assert_eq!(*m.lock(), 3);
    }

    #[test]
    fn condvar_wakes_waiter_with_lock_reacquired() {
        let sim = Sim::new();
        let m = Arc::new(Mutex::new(false));
        let cv = Arc::new(Condvar::named(Some("ready")));
        let (m2, cv2) = (m.clone(), cv.clone());
        let seen_at = Arc::new(AtomicUsize::new(0));
        let seen = seen_at.clone();
        sim.spawn("waiter", move || {
            let mut g = m2.lock();
            while !*g {
                g = cv2.wait(g);
            }
            seen.store(now().as_nanos() as usize, Ordering::SeqCst);
        });
        sim.spawn("setter", move || {
            sleep(Duration::from_millis(3));
            *m.lock() = true;
            cv.notify_one();
        });
        sim.run();
        assert_eq!(seen_at.load(Ordering::SeqCst), 3_000_000);
    }

    #[test]
    #[should_panic(expected = "held by t0")]
    fn mutex_deadlock_names_holder() {
        let sim = Sim::new();
        let a = Arc::new(Mutex::named((), Some("A")));
        let b = Arc::new(Mutex::named((), Some("B")));
        let (a2, b2) = (a.clone(), b.clone());
        sim.spawn("left", move || {
            let _ga = a.lock();
            sleep(Duration::from_millis(1));
            let _gb = b.lock();
        });
        sim.spawn("right", move || {
            let _gb = b2.lock();
            sleep(Duration::from_millis(1));
            let _ga = a2.lock();
        });
        sim.run();
    }

    #[test]
    fn barrier_crossing_mixes_carriers_and_event_tasks() {
        use crate::sched::{EventCx, EventPoll};
        let sim = Sim::new();
        let bar = Arc::new(Barrier::new(4));
        let leaders = Arc::new(AtomicUsize::new(0));
        let released_at = Arc::new(PlMutex::new(Vec::new()));
        for i in 0..2u64 {
            let (bar, leaders, rel) = (bar.clone(), leaders.clone(), released_at.clone());
            sim.spawn(format!("c{i}"), move || {
                sleep(Duration::from_millis(i));
                if bar.wait() {
                    leaders.fetch_add(1, Ordering::SeqCst);
                }
                rel.lock().push(now().as_nanos());
            });
        }
        for i in 2..4u64 {
            let (bar, leaders, rel) = (bar.clone(), leaders.clone(), released_at.clone());
            let mut token = None;
            let mut slept = false;
            sim.spawn_event(format!("e{i}"), move |_cx: &mut EventCx| {
                if !slept {
                    slept = true;
                    return EventPoll::Sleep(Duration::from_millis(i));
                }
                match bar.poll_wait(&mut token) {
                    Some(is_leader) => {
                        if is_leader {
                            leaders.fetch_add(1, Ordering::SeqCst);
                        }
                        rel.lock().push(now().as_nanos());
                        EventPoll::Done
                    }
                    None => EventPoll::Block { deadline: None },
                }
            });
        }
        sim.run();
        assert_eq!(leaders.load(Ordering::SeqCst), 1);
        // Everyone is released at the last arrival (t = 3 ms).
        assert_eq!(*released_at.lock(), vec![3_000_000; 4]);
    }

    #[test]
    fn event_sampler_stops_on_event_poll_wait() {
        use crate::sched::{EventCx, EventPoll};
        let sim = Sim::new();
        let stop = Arc::new(Event::new());
        let samples = Arc::new(AtomicUsize::new(0));
        let (stop2, s2) = (stop.clone(), samples.clone());
        let mut first = true;
        sim.spawn_event("sampler", move |cx: &mut EventCx| {
            if stop2.poll_wait() {
                return EventPoll::Done;
            }
            if !first && cx.wake_reason() == WakeReason::Timeout {
                s2.fetch_add(1, Ordering::SeqCst);
            }
            first = false;
            EventPoll::Block {
                deadline: Some(cx.now() + Duration::from_millis(1)),
            }
        });
        sim.spawn("main", move || {
            sleep(Duration::from_millis(10) + Duration::from_micros(500));
            stop.set();
        });
        sim.run();
        assert_eq!(samples.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn notify_permit_outlives_the_notification() {
        // A permit stored while nobody waits is consumed by the next wait.
        let sim = Sim::new();
        let n = Arc::new(Notify::new());
        n.notify_one(); // host-side, before any waiter exists
        sim.spawn("t", move || {
            let t0 = now();
            assert!(n.wait_timeout(Duration::from_secs(1)));
            assert_eq!(now(), t0, "pending permit returns immediately");
            assert!(
                !n.wait_timeout(Duration::from_millis(2)),
                "permit was consumed; second wait times out"
            );
        });
        sim.run();
    }
}
