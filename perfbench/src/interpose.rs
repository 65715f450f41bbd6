//! A timing interposer for the POSIX layer, installed through the same
//! GOT patching tf-Darshan itself uses (traced runs only).
//!
//! Every POSIX symbol of a process is redirected to [`TimedLibc`], which
//! records one `posix.*` span around the call and forwards it to the
//! binding it replaced. tf-Darshan attaches later, inside the run, so its
//! wrappers sit *above* this one and forward into it: `posix.*` spans are
//! the libc-level cost below tf-Darshan's instrumentation. Nothing here
//! charges virtual time, so the virtual-time guard holds in traced runs.

use std::sync::Arc;

use posix_sim::{Fd, LibcIo, MapId, OpenFlags, PosixResult, Process, Whence, POSIX_SYMBOLS};
use storage_sim::{Metadata, WritePayload};

use crate::trace::Trace;

/// Forwards every POSIX call to `next`, timing it.
pub struct TimedLibc {
    next: Arc<dyn LibcIo>,
    trace: Arc<Trace>,
}

/// Bindings replaced by [`install`], for [`remove`].
pub struct Installed(Vec<(&'static str, Arc<dyn LibcIo>)>);

/// Patch every POSIX symbol of `process` to a [`TimedLibc`].
pub fn install(process: &Process, trace: &Arc<Trace>) -> Installed {
    let got = process.got();
    let timed: Arc<dyn LibcIo> = Arc::new(TimedLibc {
        next: got.posix_sym("open"),
        trace: trace.clone(),
    });
    let saved = POSIX_SYMBOLS
        .iter()
        .map(|&sym| {
            let old = got
                .patch_posix(sym, timed.clone())
                .expect("POSIX_SYMBOLS names GOT slots");
            (sym, old)
        })
        .collect();
    Installed(saved)
}

/// Restore the bindings [`install`] replaced. Call only after every layer
/// that patched on top (tf-Darshan) has detached.
pub fn remove(process: &Process, installed: Installed) {
    for (sym, old) in installed.0 {
        process
            .got()
            .restore_posix(sym, old)
            .expect("POSIX_SYMBOLS names GOT slots");
    }
}

impl LibcIo for TimedLibc {
    fn open(&self, p: &Process, path: &str, flags: OpenFlags) -> PosixResult<Fd> {
        self.trace
            .span("posix.open", || self.next.open(p, path, flags))
    }
    fn close(&self, p: &Process, fd: Fd) -> PosixResult<()> {
        self.trace.span("posix.close", || self.next.close(p, fd))
    }
    fn read(&self, p: &Process, fd: Fd, len: u64, buf: Option<&mut [u8]>) -> PosixResult<u64> {
        self.trace
            .span("posix.read", || self.next.read(p, fd, len, buf))
    }
    fn pread(
        &self,
        p: &Process,
        fd: Fd,
        offset: u64,
        len: u64,
        buf: Option<&mut [u8]>,
    ) -> PosixResult<u64> {
        self.trace
            .span("posix.read", || self.next.pread(p, fd, offset, len, buf))
    }
    fn write(&self, p: &Process, fd: Fd, data: WritePayload<'_>) -> PosixResult<u64> {
        self.trace
            .span("posix.write", || self.next.write(p, fd, data))
    }
    fn pwrite(&self, p: &Process, fd: Fd, offset: u64, data: WritePayload<'_>) -> PosixResult<u64> {
        self.trace
            .span("posix.write", || self.next.pwrite(p, fd, offset, data))
    }
    fn lseek(&self, p: &Process, fd: Fd, offset: i64, whence: Whence) -> PosixResult<u64> {
        self.trace
            .span("posix.other", || self.next.lseek(p, fd, offset, whence))
    }
    fn stat(&self, p: &Process, path: &str) -> PosixResult<Metadata> {
        self.trace.span("posix.other", || self.next.stat(p, path))
    }
    fn fstat(&self, p: &Process, fd: Fd) -> PosixResult<Metadata> {
        self.trace.span("posix.other", || self.next.fstat(p, fd))
    }
    fn fsync(&self, p: &Process, fd: Fd) -> PosixResult<()> {
        self.trace.span("posix.other", || self.next.fsync(p, fd))
    }
    fn unlink(&self, p: &Process, path: &str) -> PosixResult<()> {
        self.trace.span("posix.other", || self.next.unlink(p, path))
    }
    fn rename(&self, p: &Process, from: &str, to: &str) -> PosixResult<()> {
        self.trace
            .span("posix.other", || self.next.rename(p, from, to))
    }
    fn mmap(&self, p: &Process, fd: Fd, offset: u64, len: u64) -> PosixResult<MapId> {
        self.trace
            .span("posix.other", || self.next.mmap(p, fd, offset, len))
    }
    fn munmap(&self, p: &Process, map: MapId) -> PosixResult<()> {
        self.trace.span("posix.other", || self.next.munmap(p, map))
    }
    fn msync(&self, p: &Process, map: MapId) -> PosixResult<()> {
        self.trace.span("posix.other", || self.next.msync(p, map))
    }
}
