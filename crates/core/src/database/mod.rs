//! The performance-power database (§IV-B2): profiling samples, quadratic
//! curve fitting, and the per-(configuration, workload) performance
//! projections that guide the [`Solver`](crate::solver).
//!
//! Lifecycle (Fig. 7 / Algorithm 1):
//!
//! 1. A workload arrives at a configuration with no entry → **training
//!    run**: execute with ample power under an `ondemand`-style governor,
//!    sample (power, perf) every 2 minutes for 10 minutes, fit
//!    `Perf = l + m·P + n·P²`, store.
//! 2. Every later epoch → look up the projection, let the solver pick the
//!    PAR, then **record the observed feedback** and refit with old + new
//!    samples.

mod fit;
mod model;
mod store;

pub use fit::{fit_quadratic, FitResult, Quadratic};
pub use model::PerfModel;
pub use store::{PerfDatabase, ProfileEntry, ProfileSample};
