//! `invector-core` — in-vector reduction: conflict-free SIMD vectorization
//! of associative irregular reductions.
//!
//! This crate implements the core contribution of *"Conflict-Free
//! Vectorization of Associative Irregular Applications with Recent SIMD
//! Architectural Advances"* (Jiang & Agrawal, CGO 2018): when an irregular
//! reduction (`target[idx[j]] op= vals[j]`) is vectorized, multiple SIMD
//! lanes may write the same location. Because the operator is associative,
//! the conflicting lanes can be **reduced inside the vector** first — after
//! which the surviving lanes hold distinct indices and scatter safely.
//!
//! * [`invec`] — Algorithms 1 and 2 of the paper plus the `invec_add` /
//!   `invec_min` / `invec_max` programming interface of §3.5.
//! * [`adaptive`] — the §3.4 policy choosing between the two algorithms.
//! * [`masking`] — the conflict-masking baseline (Figure 3) the paper
//!   compares against.
//! * [`accumulate`] — whole-stream drivers (serial / in-vector / adaptive).
//! * [`backend`] — backend dispatch: [`Backend`] is resolved once per run
//!   ([`backend::current`], or [`BackendChoice::resolve`] from a policy)
//!   and routes the hot loops onto the fused native
//!   AVX-512 drivers when the CPU has `avx512f`+`avx512cd`, falling back to
//!   the portable model otherwise — with bitwise-identical results either
//!   way. Every driver has a `_with(backend, …)` variant; the engine takes
//!   the choice through [`ExecPolicy::backend`](exec::ExecPolicy).
//! * [`exec`] — the execution engine: a persistent thread pool running any
//!   of the drivers across workers under an [`ExecPolicy`] (owner-computes
//!   or privatized partitioning) — the MIMD × SIMD composition the paper
//!   scopes out.
//! * [`rbk`] — `reduce_by_key` comparators for the Table 2 experiment.
//! * [`ops`] — the associative operators, [`stats`] — utilization and
//!   conflict-depth accounting.
//!
//! # Quick start
//!
//! ```
//! use invector_core::backend;
//! use invector_core::{invec_accumulate, invec_accumulate_with, ops::Sum};
//!
//! // Histogram 10 items into 3 bins, conflict-free.
//! let bins = [0, 1, 0, 2, 0, 1, 0, 0, 2, 0];
//! let weights = [1.0f32; 10];
//! let mut hist = vec![0.0f32; 3];
//! invec_accumulate::<f32, Sum>(&mut hist, &bins, &weights);
//! assert_eq!(hist, vec![6.0, 2.0, 2.0]);
//!
//! // Same stream on an explicit backend: `backend::current()` picks the
//! // native AVX-512 path when the CPU has one; results are bitwise equal.
//! let mut hist2 = vec![0.0f32; 3];
//! invec_accumulate_with::<f32, Sum>(backend::current(), &mut hist2, &bins, &weights);
//! assert_eq!(hist2, hist);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod accumulate;
pub mod adaptive;
pub mod backend;
pub mod exec;
pub mod invec;
pub mod masking;
pub mod ops;
pub mod rbk;
pub mod stats;
pub mod tune;

pub use accumulate::{
    adaptive_accumulate, adaptive_accumulate_n, adaptive_accumulate_with, invec_accumulate,
    invec_accumulate_n, invec_accumulate_with, native_invec_accumulate_f32, serial_accumulate,
    InvecStats,
};
pub use adaptive::AdaptiveReducer;
pub use backend::{Backend, BackendChoice};
pub use exec::{
    execute, execute_epoch, parallel_chunks, pool_initializations, EpochScratch, ExecPlan,
    ExecPolicy, ExecReport, ExecVariant, Partition, TaskCtx, TaskItems, WorkerReport,
};
pub use invec::{
    invec_add, invec_max, invec_min, reduce_alg1, reduce_alg1_arr, reduce_alg1_arr_with,
    reduce_alg1_with, reduce_alg2, reduce_alg2_arr, reduce_alg2_with, AuxArray, AuxArrays,
};
pub use masking::masked_accumulate;
pub use ops::ReduceOp;
pub use tune::{
    Controller, Decision, EpochPolicy, MetricFrame, PolicyHandle, PolicySchedule, PolicyTrace,
    TraceEntry, TuneConfig,
};
