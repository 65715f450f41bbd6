//! # mpi-sim — MPI substrate for distributed training
//!
//! The paper's §III forward-compatibility argument, implemented: "If
//! TensorFlow employs MPI as a distributed strategy for I/O in the future,
//! one can employ the parallel version of Darshan with the MPI module to
//! profile and instrumentation I/O activities with a similar technique."
//!
//! * [`comm`] — ranks as simulated processes over a shared parallel
//!   filesystem, with barrier/allreduce/bcast cost models (the gradient
//!   synchronization of data-parallel training);
//! * [`io`] — MPI-IO layered over POSIX (ROMIO's shape), interposable via
//!   a PMPI-style layer swap;
//! * [`mpiio_module`] — the parallel Darshan MPI-IO module: per-rank
//!   records with independent/collective op counters, plus the job-level
//!   reduction at `MPI_Finalize` (shared files merge across ranks —
//!   see also `darshan_sim::reduce` for the POSIX-module reduction).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collective;
pub mod comm;
pub mod io;
pub mod mpiio_module;

pub use collective::SumAllreduce;
pub use comm::{Comm, MpiWorld, NetworkModel};
pub use io::{DefaultMpiIo, MpiFile, MpiIoLayer};
pub use mpiio_module::{DarshanMpiio, MpiioRecord};
