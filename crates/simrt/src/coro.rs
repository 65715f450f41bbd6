//! Stackful coroutines: what a carrier task runs on.
//!
//! Every carrier of a [`Sim`](crate::Sim) runs on the OS thread that calls
//! [`Sim::run`](crate::Sim::run), each on a stack of its own. Handing the
//! CPU from one carrier to the next is a swap of the callee-saved
//! registers in user space ([`swap`]), not a futex wake and an OS context
//! switch. This module is the only place in simrt that uses `unsafe`.
//!
//! * **Stacks.** [`STACK_SIZE`] bytes (the reserve of a std thread) of an
//!   anonymous `mmap`, with one `PROT_NONE` guard page below. A carrier
//!   gets its stack on its first dispatch and gives it back when its body
//!   returns; stacks are reused LIFO per host thread, so repeated
//!   simulations touch the same pages and RSS stays flat. A carrier that
//!   overruns its stack hits the guard page and the process dies of
//!   `SIGSEGV`: std's "has overflowed its stack" message only knows the
//!   guard pages of threads std created.
//! * **Panics** never unwind through the switch. The coroutine entry
//!   catches whatever its body raises and [`Coroutine::resume`] re-raises
//!   it on the resuming side.
//! * **Nesting.** [`suspend`] returns to whoever last resumed the running
//!   coroutine, so a carrier may itself drive a nested simulation.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::ffi::c_void;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::ptr;

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!("simrt's carrier context switch is implemented for x86-64 Linux only");

/// Usable stack of one carrier, the default reserve of a std thread.
const STACK_SIZE: usize = 2 << 20;

const PROT_NONE: i32 = 0;
const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;
const MAP_NORESERVE: i32 = 0x4000;
const MAP_STACK: i32 = 0x20000;
const SC_PAGESIZE: i32 = 30;

// std links libc on this target; these are its symbols.
unsafe extern "C" {
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
    fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
    fn sysconf(name: i32) -> i64;
}

/// One carrier stack: a private anonymous mapping whose lowest page is
/// the guard.
struct Stack {
    base: *mut c_void,
    len: usize,
}

impl Stack {
    fn new() -> Stack {
        // SAFETY: sysconf has no preconditions.
        let page = usize::try_from(unsafe { sysconf(SC_PAGESIZE) }).unwrap_or(4096);
        let len = STACK_SIZE + page;
        // SAFETY: a fresh anonymous mapping, not backed by a descriptor and
        // placed by the kernel; the result is checked before use.
        let base = unsafe {
            mmap(
                ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                -1,
                0,
            )
        };
        assert!(
            base as isize != -1,
            "mmap of a {len}-byte carrier stack failed: {}",
            std::io::Error::last_os_error()
        );
        let stack = Stack { base, len };
        // SAFETY: the lowest page of the mapping made above.
        let rc = unsafe { mprotect(base, page, PROT_NONE) };
        assert!(
            rc == 0,
            "mprotect of a carrier guard page failed: {}",
            std::io::Error::last_os_error()
        );
        stack
    }

    /// One past the highest usable byte; 16-byte aligned.
    fn top(&self) -> usize {
        self.base as usize + self.len
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: unmaps exactly the mapping this value owns; no coroutine
        // runs on it (a suspended coroutine's stack is leaked, never
        // dropped).
        unsafe { munmap(self.base, self.len) };
    }
}

thread_local! {
    /// Idle stacks of this host thread, reused last-in first-out.
    static POOL: RefCell<Vec<Stack>> = const { RefCell::new(Vec::new()) };
    /// The coroutine running on this thread right now, or null.
    static ACTIVE: Cell<*mut Frame> = const { Cell::new(ptr::null_mut()) };
}

fn take_stack() -> Stack {
    POOL.with(|p| p.borrow_mut().pop())
        .unwrap_or_else(Stack::new)
}

fn give_back(stack: Stack) {
    // During thread teardown the pool may be gone; the stack is then
    // simply unmapped.
    let _ = POOL.try_with(|p| p.borrow_mut().push(stack));
}

/// What a coroutine and its resumer share. Boxed, so its address is
/// stable while the [`Coroutine`] handle moves; accessed only through raw
/// pointers on both sides of the switch.
struct Frame {
    /// The coroutine's stack pointer while it is suspended.
    sp: usize,
    /// The resumer's stack pointer while the coroutine runs.
    back: usize,
    /// The body, until the coroutine first runs.
    body: Option<Box<dyn FnOnce()>>,
    /// Set once the body returned or panicked.
    done: bool,
    /// A panic that escaped the body, handed to the resumer.
    panic: Option<Box<dyn Any + Send>>,
}

/// A stackful coroutine running `body` on a pooled stack.
pub(crate) struct Coroutine {
    frame: *mut Frame,
    /// `None` once the body has finished and the stack went back to the
    /// pool.
    stack: Option<Stack>,
    started: bool,
}

impl Coroutine {
    /// Prepare `body` to run on a pooled stack; nothing runs until the
    /// first [`resume`](Coroutine::resume).
    pub(crate) fn new(body: Box<dyn FnOnce()>) -> Coroutine {
        let stack = take_stack();
        let frame = Box::into_raw(Box::new(Frame {
            sp: 0,
            back: 0,
            body: Some(body),
            done: false,
            panic: None,
        }));
        // The initial frame is what `swap` pops: the MXCSR and x87 control
        // word at their power-on defaults, then r15, r14, r13 (the frame),
        // r12 (the entry), rbx, rbp (zero ends frame-pointer walks), and
        // the return address `trampoline`. `ret` leaves rsp at the
        // 16-byte-aligned top, so `call r12` enters `entry` with
        // rsp ≡ 8 (mod 16), as the ABI requires.
        let top = stack.top();
        let words: [usize; 8] = [
            0x037F_0000_1F80,
            0,
            0,
            frame as usize,
            entry as *const () as usize,
            0,
            0,
            trampoline as *const () as usize,
        ];
        let sp = top - 8 * words.len();
        // SAFETY: the eight words lie at the top of the stack's writable
        // range, which nothing else uses yet.
        unsafe { ptr::copy_nonoverlapping(words.as_ptr(), sp as *mut usize, words.len()) };
        // SAFETY: `frame` came from `Box::into_raw` above.
        unsafe { (*frame).sp = sp };
        Coroutine {
            frame,
            stack: Some(stack),
            started: false,
        }
    }

    /// Run the coroutine until it [`suspend`]s or its body finishes.
    /// Returns true once the body has finished (its stack is then back in
    /// the pool). A panic that escaped the body is re-raised here.
    ///
    /// # Panics
    ///
    /// Panics when called on a coroutine that has already finished.
    pub(crate) fn resume(&mut self) -> bool {
        let frame = self.frame;
        // SAFETY: `frame` is live until `self` drops; the coroutine does
        // not run while it is read here.
        assert!(!unsafe { (*frame).done }, "resumed a finished coroutine");
        self.started = true;
        let outer = ACTIVE.replace(frame);
        // SAFETY: `sp` is the stack pointer the coroutine saved when it
        // last switched out (or the initial frame built by `new`), on a
        // stack `self` keeps mapped; the coroutine switches back through
        // `back`, which `swap` fills in before leaving this stack.
        unsafe { swap(&raw mut (*frame).back, (*frame).sp) };
        ACTIVE.set(outer);
        // SAFETY: the coroutine is switched out again; only this side
        // touches the frame now.
        let (done, panic) = unsafe { ((*frame).done, (*frame).panic.take()) };
        if done {
            if let Some(stack) = self.stack.take() {
                give_back(stack);
            }
        }
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
        done
    }
}

impl Drop for Coroutine {
    fn drop(&mut self) {
        // SAFETY: `frame` came from `Box::into_raw` and is still owned.
        let done = unsafe { (*self.frame).done };
        if self.started && !done {
            // Suspended mid-body: its frames still live on the stack and
            // may be pointed into, so stack and frame are leaked rather
            // than unmapped under them. The scheduler resumes every
            // carrier to completion, so only a carrier that swallows the
            // poison panic, or a run loop unwinding, leaves one here.
            std::mem::forget(self.stack.take());
            return;
        }
        // SAFETY: never started, or finished: no code runs on the stack
        // and nothing else refers to the frame.
        drop(unsafe { Box::from_raw(self.frame) });
        if let Some(stack) = self.stack.take() {
            give_back(stack);
        }
    }
}

/// Switch from the running coroutine back to the context that resumed it.
/// Returns when the coroutine is resumed again.
///
/// # Panics
///
/// Panics when the calling code is not running in a coroutine.
pub(crate) fn suspend() {
    let frame = ACTIVE.get();
    assert!(!frame.is_null(), "suspend() outside a coroutine");
    // SAFETY: `frame` belongs to the coroutine running on this stack, and
    // `back` is where its resumer saved its own stack pointer.
    unsafe { swap(&raw mut (*frame).sp, (*frame).back) };
}

/// First code a coroutine runs, entered from [`trampoline`] on its own
/// stack. Never returns: after the body, it switches back for the last
/// time. `extern "C"` makes any panic that escapes this function abort.
extern "C" fn entry(frame: *mut Frame) -> ! {
    // SAFETY: the resumer is switched out; the frame is this coroutine's.
    let body = unsafe { (*frame).body.take() }.expect("coroutine body present");
    let result = catch_unwind(AssertUnwindSafe(body));
    // SAFETY: as above.
    unsafe {
        (*frame).done = true;
        (*frame).panic = result.err();
        swap(&raw mut (*frame).sp, (*frame).back);
    }
    unreachable!("a finished coroutine was resumed");
}

/// Save the callee-saved registers, MXCSR and the x87 control word of the
/// running context on its stack, store its stack pointer through `save`,
/// and resume the context whose stack pointer is `to`.
///
/// # Safety
///
/// `to` must be a stack pointer saved by `swap` (or an initial frame laid
/// out by [`Coroutine::new`]) on a stack that is still mapped, and
/// `save` must be writable.
#[unsafe(naked)]
unsafe extern "sysv64" fn swap(save: *mut usize, to: usize) {
    core::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr dword ptr [rsp]",
        "fnstcw word ptr [rsp + 4]",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "ldmxcsr dword ptr [rsp]",
        "fldcw word ptr [rsp + 4]",
        "add rsp, 8",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

/// Where a new coroutine's first `swap` returns to: calls `entry(frame)`
/// with the pair its initial frame loaded into r12 and r13.
#[unsafe(naked)]
unsafe extern "sysv64" fn trampoline() {
    core::arch::naked_asm!("mov rdi, r13", "call r12", "ud2")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    #[test]
    fn resume_and_suspend_interleave() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let l = log.clone();
        let mut co = Coroutine::new(Box::new(move || {
            l.borrow_mut().push(1);
            suspend();
            l.borrow_mut().push(3);
        }));
        assert!(!co.resume());
        log.borrow_mut().push(2);
        assert!(co.resume());
        assert_eq!(*log.borrow(), vec![1, 2, 3]);
    }

    #[test]
    fn float_state_and_alignment_survive_switches() {
        let mut co = Coroutine::new(Box::new(|| {
            // The compiler places a 16-byte-aligned local by offset from
            // rsp, trusting the ABI's alignment at entry: a misaligned
            // entry shows up as a misaligned address.
            #[repr(align(16))]
            struct Aligned([u8; 16]);
            let probe = std::hint::black_box(Aligned([0; 16]));
            assert_eq!(probe.0.as_ptr() as usize % 16, 0);
            // f64 maths across switches checks the saved registers.
            let mut x = 1.5f64;
            for _ in 0..100 {
                x = (x * 1.000_001).sqrt() + 0.25;
                suspend();
            }
            assert!(x.is_finite());
        }));
        let mut n = 0;
        while !co.resume() {
            n += 1;
        }
        assert_eq!(n, 100);
    }

    #[test]
    fn panic_is_reraised_on_the_resumer() {
        let mut co = Coroutine::new(Box::new(|| panic!("inside the coroutine")));
        let err = catch_unwind(AssertUnwindSafe(|| co.resume())).expect_err("panic crosses");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"inside the coroutine"));
    }

    #[test]
    fn nested_coroutines_return_to_their_own_resumer() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let l = log.clone();
        let mut outer = Coroutine::new(Box::new(move || {
            let l2 = l.clone();
            let mut inner = Coroutine::new(Box::new(move || {
                l2.borrow_mut().push("inner-a");
                suspend();
                l2.borrow_mut().push("inner-b");
            }));
            inner.resume();
            l.borrow_mut().push("outer-a");
            suspend();
            inner.resume();
            l.borrow_mut().push("outer-b");
        }));
        outer.resume();
        log.borrow_mut().push("host");
        outer.resume();
        assert_eq!(
            *log.borrow(),
            vec!["inner-a", "outer-a", "host", "inner-b", "outer-b"]
        );
    }

    #[test]
    fn unstarted_coroutine_drops_its_body() {
        let alive = Rc::new(());
        let held = alive.clone();
        let co = Coroutine::new(Box::new(move || drop(held)));
        assert_eq!(Rc::strong_count(&alive), 2);
        drop(co);
        assert_eq!(Rc::strong_count(&alive), 1);
    }

    #[test]
    fn finished_stacks_are_reused() {
        let mut a = Coroutine::new(Box::new(|| {}));
        assert!(a.resume());
        let before = POOL.with(|p| p.borrow().len());
        let mut b = Coroutine::new(Box::new(|| {}));
        assert_eq!(POOL.with(|p| p.borrow().len()), before - 1);
        assert!(b.resume());
        assert_eq!(POOL.with(|p| p.borrow().len()), before);
    }
}
