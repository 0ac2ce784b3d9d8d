//! # mpcp-collectives — MPI collective algorithms as simulator schedules
//!
//! This crate implements the collective algorithm zoo the paper selects
//! over, as *schedule generators*: each algorithm compiles an instance
//! `(collective, message size, topology)` into one [`mpcp_simnet::Program`]
//! per rank, which the discrete-event simulator then executes.
//!
//! Implemented algorithm families (mirroring Open MPI 4.0.2 `coll/tuned`):
//!
//! * **Broadcast**: basic linear, chain (configurable chain count and
//!   segment size), pipeline, split-binary tree, binary tree, binomial
//!   tree, k-nomial tree, scatter + recursive-doubling allgather, scatter
//!   + ring allgather.
//! * **Allreduce**: basic linear (reduce+bcast), nonoverlapping (binomial
//!   reduce + binomial bcast), recursive doubling, ring, segmented ring,
//!   Rabenseifner (reduce-scatter + allgather), and k-nomial
//!   reduce+broadcast presets used by the simulated Intel MPI library.
//! * **Alltoall**: basic linear (nonblocking), pairwise exchange, Bruck,
//!   windowed linear-sync, spread.
//!
//! On top of the generators, [`library`] assembles two *simulated MPI
//! libraries* — "Open MPI 4.0.2" with the hard-coded threshold decision
//! rules, and "Intel MPI 2019" whose default logic is produced by an
//! `mpitune`-style exhaustive grid search — and [`verify`] provides
//! volume/structure invariants used by the test suite. [`memo`]
//! simulates each distinct schedule once per topology, for dataset
//! generation and the Intel tuning sweep alike.

#![forbid(unsafe_code)]

pub mod builder;
pub mod coll;
pub mod decision;
pub mod library;
pub mod memo;
pub mod registry;
pub mod schedules;
pub mod trees;
pub mod verify;

pub use coll::{AlgKind, AlgorithmConfig, Collective};
pub use decision::{DecisionLogic, IntelDecision, OpenMpiDecision};
pub use library::MpiLibrary;
pub use memo::MakespanMemo;
