//! The power-allocation Solver (§IV-B3 / Eq. 8).
//!
//! Given the predicted power supply `Power_t` and the database's
//! performance projections for every server group, the solver finds the
//! power allocation ratio (PAR) vector `(η, γ, δ, …)` with `Σ ≤ 1` that
//! maximizes total projected throughput. Unallocated supply charges the
//! battery.
//!
//! Two engines are provided:
//!
//! * [`solve_exact`] — subset enumeration, KKT water-filling and one
//!   closed-form free convex group, exact for quadratic fits that are
//!   non-negative on their envelope, for up to [`MAX_EXACT_GROUPS`]
//!   groups;
//! * [`solve_grid`] — hierarchical lattice search, shape-agnostic.
//!
//! [`solve`] answers with the exact engine up to [`MAX_EXACT_GROUPS`]
//! groups and with the grid above it. The grid also serves as the
//! controller's fallback rung when a policy's answer fails its soundness
//! gate.

mod cache;
mod exact;
mod grid;
mod problem;
mod scratch;

pub use cache::{
    FastPathStats, SharedSolveCache, SharedSolveStats, SolverFastPath,
    DEFAULT_SHARED_SOLVE_CAPACITY,
};
pub use exact::{solve_exact, solve_exact_with, MAX_EXACT_GROUPS};
pub use grid::{solve_grid, solve_grid_with, ShareLattice};
pub use problem::{Allocation, AllocationProblem, ServerGroup};
pub use scratch::SolverScratch;

use crate::error::CoreError;

/// Which engine produced an allocation — the label telemetry exports so
/// each run shows which engine answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveEngine {
    /// The exact KKT water-filling engine.
    Exact,
    /// The hierarchical grid-lattice search: problems over
    /// [`MAX_EXACT_GROUPS`] groups, and the controller's fallback rung.
    Grid,
    /// The even per-server split ([`solve_uniform`]).
    Uniform,
    /// GreenHetero-p's efficiency-ordered greedy fill.
    Greedy,
    /// The Manual policy's measured 10 % lattice search.
    Manual,
}

impl SolveEngine {
    /// The stable snake-case name used in telemetry schemas.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SolveEngine::Exact => "exact",
            SolveEngine::Grid => "grid",
            SolveEngine::Uniform => "uniform",
            SolveEngine::Greedy => "greedy",
            SolveEngine::Manual => "manual",
        }
    }
}

/// Solves the allocation problem with the engine its size calls for.
///
/// Runs the exact engine when the group count permits
/// (up to [`MAX_EXACT_GROUPS`]) and the grid engine above it.
///
/// # Errors
///
/// Currently never fails for valid problems (problem validation happens at
/// [`AllocationProblem::new`]); the `Result` is kept for future engines
/// that may reject exotic projections.
///
/// # Examples
///
/// ```
/// use greenhetero_core::database::{PerfModel, Quadratic};
/// use greenhetero_core::solver::{solve, AllocationProblem, ServerGroup};
/// use greenhetero_core::types::{ConfigId, PowerRange, Watts};
///
/// let fast = ServerGroup::new(
///     ConfigId::new(0),
///     1,
///     PerfModel::new(
///         Quadratic { l: 0.0, m: 50.0, n: -0.1 },
///         PowerRange::new(Watts::new(47.0), Watts::new(81.0))?,
///     ),
/// )?;
/// let slow = ServerGroup::new(
///     ConfigId::new(1),
///     1,
///     PerfModel::new(
///         Quadratic { l: 0.0, m: 20.0, n: -0.05 },
///         PowerRange::new(Watts::new(88.0), Watts::new(147.0))?,
///     ),
/// )?;
/// let alloc = solve(&AllocationProblem::new(vec![fast, slow], Watts::new(160.0))?)?;
/// // The efficient server is powered; total stays within budget.
/// assert!(alloc.per_server[0].value() >= 47.0);
/// # Ok::<(), greenhetero_core::error::CoreError>(())
/// ```
pub fn solve(problem: &AllocationProblem) -> Result<Allocation, CoreError> {
    solve_with_engine(problem).map(|(allocation, _)| allocation)
}

/// Like [`solve`], but also reports which engine answered — the hook
/// telemetry uses to count exact and grid answers.
///
/// # Errors
///
/// Same contract as [`solve`].
pub fn solve_with_engine(
    problem: &AllocationProblem,
) -> Result<(Allocation, SolveEngine), CoreError> {
    solve_with_engine_scratch(problem, &mut SolverScratch::new())
}

/// [`solve_with_engine`] with a caller-provided [`SolverScratch`], so
/// repeated solves (the controller's epoch loop, the fast path's memo
/// misses, benchmarks) reuse buffers instead of re-allocating them.
///
/// # Errors
///
/// Same contract as [`solve`].
pub fn solve_with_engine_scratch(
    problem: &AllocationProblem,
    scratch: &mut SolverScratch,
) -> Result<(Allocation, SolveEngine), CoreError> {
    let answer = if problem.groups().len() <= MAX_EXACT_GROUPS {
        (solve_exact_with(problem, scratch)?, SolveEngine::Exact)
    } else {
        (solve_grid_with(problem, scratch), SolveEngine::Grid)
    };
    audit_allocation(problem, &answer.0);
    Ok(answer)
}

/// The degenerate engine at the bottom of the fallback chain: an even
/// per-server split of the budget, ignoring the performance models
/// entirely. It cannot fail and never consults a (possibly poisoned)
/// projection, which is exactly what makes it a safe last resort — and it
/// is also what the Uniform baseline policy enforces by definition.
///
/// # Examples
///
/// ```
/// use greenhetero_core::database::{PerfModel, Quadratic};
/// use greenhetero_core::solver::{solve_uniform, AllocationProblem, ServerGroup};
/// use greenhetero_core::types::{ConfigId, PowerRange, Watts};
///
/// let g = ServerGroup::new(
///     ConfigId::new(0),
///     2,
///     PerfModel::new(
///         Quadratic { l: 0.0, m: 50.0, n: -0.1 },
///         PowerRange::new(Watts::new(47.0), Watts::new(81.0))?,
///     ),
/// )?;
/// let alloc = solve_uniform(&AllocationProblem::new(vec![g], Watts::new(120.0))?);
/// assert_eq!(alloc.per_server[0], Watts::new(60.0));
/// # Ok::<(), greenhetero_core::error::CoreError>(())
/// ```
#[must_use]
pub fn solve_uniform(problem: &AllocationProblem) -> Allocation {
    let total_servers: u32 = problem.groups().iter().map(|g| g.count).sum();
    let per_server = problem.budget() / f64::from(total_servers.max(1));
    let assignment = vec![per_server; problem.groups().len()];
    Allocation::from_assignment(problem, assignment)
}

/// Release-build sanity check of a solver answer, the gate of the
/// controller's fallback chain: `true` only when the allocation covers
/// every group with finite, non-negative watts inside the budget and a
/// finite projection. Unlike [`audit_allocation`] this never panics — a
/// `false` sends the controller down to the next engine.
#[must_use]
pub fn allocation_is_sound(problem: &AllocationProblem, allocation: &Allocation) -> bool {
    allocation.per_server.len() == problem.groups().len()
        && allocation
            .per_server
            .iter()
            .all(|p| p.value().is_finite() && p.value() >= 0.0)
        && problem.is_feasible(&allocation.per_server)
        && allocation.projected.value().is_finite()
}

/// Debug-build conservation audit of a solver answer: the allocation must
/// be budget-feasible, non-negative, and its PAR vector plus the surplus
/// share must account for exactly the whole budget.
pub fn audit_allocation(problem: &AllocationProblem, allocation: &Allocation) {
    debug_assert_eq!(
        allocation.per_server.len(),
        problem.groups().len(),
        "allocation must cover every group exactly once"
    );
    debug_assert!(
        problem.is_feasible(&allocation.per_server),
        "allocation exceeds the epoch budget: {:?} W against {:?}",
        problem.total_power(&allocation.per_server),
        problem.budget()
    );
    debug_assert!(
        allocation.per_server.iter().all(|p| p.value() >= 0.0),
        "per-server watts must be non-negative: {:?}",
        allocation.per_server
    );
    let used: f64 = allocation.shares.iter().map(|s| s.value()).sum();
    debug_assert!(
        used <= 1.0 + 1e-6,
        "PAR shares must sum to at most 1, got {used}"
    );
    debug_assert!(
        (used + allocation.surplus_share().value() - 1.0).abs() <= 1e-6,
        "PAR shares plus surplus must sum to 1: {used} + {}",
        allocation.surplus_share()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::{PerfModel, Quadratic};
    use crate::types::{ConfigId, PowerRange, Watts};

    fn group(id: u32, count: u32, idle: f64, peak: f64, q: Quadratic) -> ServerGroup {
        ServerGroup::new(
            ConfigId::new(id),
            count,
            PerfModel::new(
                q,
                PowerRange::new(Watts::new(idle), Watts::new(peak)).unwrap(),
            ),
        )
        .unwrap()
    }

    #[test]
    fn solve_answers_with_the_exact_engine_up_to_twelve_groups() {
        let a = group(
            0,
            2,
            88.0,
            147.0,
            Quadratic {
                l: -3000.0,
                m: 60.0,
                n: -0.12,
            },
        );
        let b = group(
            1,
            3,
            47.0,
            81.0,
            Quadratic {
                l: -1200.0,
                m: 50.0,
                n: -0.18,
            },
        );
        let c = group(
            2,
            1,
            58.0,
            79.0,
            Quadratic {
                l: -500.0,
                m: 30.0,
                n: -0.1,
            },
        );
        let p = AllocationProblem::new(vec![a, b, c], Watts::new(700.0)).unwrap();
        let (answer, engine) = solve_with_engine(&p).unwrap();
        assert_eq!(engine, SolveEngine::Exact);
        assert_eq!(answer, solve_exact(&p).unwrap());
        assert!(answer.projected >= solve_grid(&p).projected);
        assert!(p.is_feasible(&answer.per_server));
    }

    #[test]
    fn solve_uniform_splits_the_budget_evenly() {
        let a = group(
            0,
            2,
            88.0,
            147.0,
            Quadratic {
                l: -3000.0,
                m: 60.0,
                n: -0.12,
            },
        );
        let b = group(
            1,
            3,
            47.0,
            81.0,
            Quadratic {
                l: -1200.0,
                m: 50.0,
                n: -0.18,
            },
        );
        let p = AllocationProblem::new(vec![a, b], Watts::new(500.0)).unwrap();
        let alloc = solve_uniform(&p);
        assert_eq!(alloc.per_server, vec![Watts::new(100.0); 2]);
        assert!(p.is_feasible(&alloc.per_server));
        assert!(allocation_is_sound(&p, &alloc));
    }

    #[test]
    fn allocation_soundness_rejects_broken_answers() {
        let g = group(
            0,
            1,
            47.0,
            81.0,
            Quadratic {
                l: 0.0,
                m: 50.0,
                n: -0.1,
            },
        );
        let p = AllocationProblem::new(vec![g], Watts::new(100.0)).unwrap();
        let good = solve_uniform(&p);
        assert!(allocation_is_sound(&p, &good));

        // Wrong length.
        let mut broken = good.clone();
        broken.per_server.push(Watts::ZERO);
        assert!(!allocation_is_sound(&p, &broken));

        // Over budget.
        let mut broken = good.clone();
        broken.per_server[0] = Watts::new(500.0);
        assert!(!allocation_is_sound(&p, &broken));

        // Non-finite watts (constructible only through arithmetic).
        let mut broken = good.clone();
        broken.per_server[0] = Watts::new(1.0) * f64::NAN;
        assert!(!allocation_is_sound(&p, &broken));
    }

    #[test]
    fn solve_falls_back_to_grid_for_many_groups() {
        let groups: Vec<ServerGroup> = (0..(MAX_EXACT_GROUPS as u32 + 2))
            .map(|i| {
                group(
                    i,
                    1,
                    20.0,
                    60.0,
                    Quadratic {
                        l: 0.0,
                        m: 10.0 + f64::from(i),
                        n: -0.02,
                    },
                )
            })
            .collect();
        let p = AllocationProblem::new(groups, Watts::new(300.0)).unwrap();
        let (alloc, engine) = solve_with_engine(&p).unwrap();
        assert_eq!(engine, SolveEngine::Grid);
        assert_eq!(alloc, solve_grid(&p));
        assert!(p.is_feasible(&alloc.per_server));
        assert!(alloc.projected.value() > 0.0);
    }
}
