//! Grid-search allocation: the derivative-free engine for problems past
//! [`MAX_EXACT_GROUPS`](crate::solver::MAX_EXACT_GROUPS) groups and the
//! controller's fallback rung.
//!
//! Enumerates per-server power levels for every group over a lattice of
//! `{off} ∪ [idle, peak]` points, keeps the best feasible combination, and
//! refines the lattice around it. Works for any projection shape (including
//! convex mis-fits) and any group count, at the cost of resolution.
//!
//! The objective `Σᵢ Perfᵢ(ηᵢ·P)` is separable across groups, so each
//! level evaluates every group's throughput once per candidate into a
//! stack table, and the search adds table entries along its path instead
//! of re-evaluating the whole objective at every leaf. An exact bound
//! (the path's sum plus each remaining group's best entry) skips subtrees
//! that cannot beat the incumbent; DESIGN.md §17 shows why the answer is
//! bit-identical to scoring every leaf with
//! [`AllocationProblem::objective`].
//!
//! This is also the machinery behind the **Manual** policy of Table III,
//! which "statically tries all possible power allocations at a granularity
//! of 10 %": [`ShareLattice`] walks exactly that simplex, one point at a
//! time and allocation-free ([`enumerate_shares`] is the materializing
//! compatibility wrapper).
//!
//! The hot loops here are allocation-free by contract (lint rule GH006):
//! all working memory lives on the stack or in the caller-provided
//! [`SolverScratch`](crate::solver::SolverScratch).

use crate::solver::problem::{Allocation, AllocationProblem};
use crate::solver::scratch::SolverScratch;
use crate::types::{Ratio, Watts};

/// Number of lattice points per group per refinement level.
const POINTS_PER_LEVEL: usize = 16;

/// Most candidates one group has on one level: off, the lattice, the
/// concave vertex and the budget bound.
const MAX_CANDIDATES: usize = POINTS_PER_LEVEL + 3;

/// Refinement levels; each shrinks the search window around the incumbent.
const LEVELS: usize = 4;

/// Above this many groups the exhaustive lattice product (exponential in
/// the group count) is replaced by coordinate ascent.
const EXHAUSTIVE_MAX_GROUPS: usize = 5;

/// Coordinate-ascent passes for large problems.
const ASCENT_PASSES: usize = 24;

/// Hard ceiling on the share-lattice step count: granularities below
/// `1/MAX_SHARE_STEPS` are clamped rather than honored, because a
/// sub-permille granularity would request up to `u32::MAX` lattice steps
/// (the `f64 → u32` cast saturates) and never terminate.
const MAX_SHARE_STEPS: u32 = 1000;

/// Solves the allocation problem by hierarchical grid search.
///
/// Always succeeds (the all-off assignment is feasible for any budget).
/// Each level's window is `2 / (POINTS_PER_LEVEL − 1)` of the last one,
/// so the final lattice step is roughly `(peak − idle)·2³ / 15⁴` watts
/// per group (about 1/6,328 of the envelope).
///
/// This convenience wrapper allocates a fresh workspace per call; hot
/// callers should hold a [`SolverScratch`] and use [`solve_grid_with`].
///
/// # Examples
///
/// ```
/// use greenhetero_core::database::{PerfModel, Quadratic};
/// use greenhetero_core::solver::{solve_grid, AllocationProblem, ServerGroup};
/// use greenhetero_core::types::{ConfigId, PowerRange, Watts};
///
/// let g = ServerGroup::new(
///     ConfigId::new(0),
///     1,
///     PerfModel::new(
///         Quadratic { l: 0.0, m: 10.0, n: -0.02 },
///         PowerRange::new(Watts::new(50.0), Watts::new(100.0))?,
///     ),
/// )?;
/// let problem = AllocationProblem::new(vec![g], Watts::new(80.0))?;
/// let alloc = solve_grid(&problem);
/// assert!((alloc.per_server[0].value() - 80.0).abs() < 0.5);
/// # Ok::<(), greenhetero_core::error::CoreError>(())
/// ```
#[must_use]
pub fn solve_grid(problem: &AllocationProblem) -> Allocation {
    let mut scratch = SolverScratch::new();
    solve_grid_with(problem, &mut scratch)
}

/// [`solve_grid`] with a caller-owned workspace: after the first call has
/// sized the buffers, solving is allocation-free except for the returned
/// [`Allocation`].
#[must_use]
pub fn solve_grid_with(problem: &AllocationProblem, scratch: &mut SolverScratch) -> Allocation {
    let n = problem.groups().len();
    if n > EXHAUSTIVE_MAX_GROUPS {
        return solve_coordinate_ascent(problem, scratch);
    }

    scratch.prepare_grid(n);
    // Initial windows: the full productive envelope of each group.
    for (i, g) in problem.groups().iter().enumerate() {
        scratch.windows[i] = (
            g.model.range().idle().value(),
            g.model.range().peak().value(),
        );
    }
    refine(problem, scratch);
    Allocation::from_assignment(problem, scratch.best_assignment.clone())
}

/// The level loop: builds each level's candidate lattice into the
/// scratch buffers, searches it, and shrinks the windows around the
/// incumbent. Expects `scratch.windows` and `scratch.best_assignment` to
/// be initialized for `problem`.
fn refine(problem: &AllocationProblem, scratch: &mut SolverScratch) {
    let n = problem.groups().len();
    let mut best_value = problem.objective(&scratch.best_assignment).value();

    for level in 0..LEVELS {
        for (i, g) in problem.groups().iter().enumerate() {
            let (lo, hi) = scratch.windows[i];
            let pts = &mut scratch.candidates[i];
            pts.clear();
            // "Off" is only a candidate on the first level; later
            // levels refine around an incumbent that already decided
            // on/off per group.
            if level == 0 {
                pts.push(0.0);
            }
            let idle = g.model.range().idle().value();
            let peak = g.model.range().peak().value();
            let lo = lo.clamp(idle, peak);
            let hi = hi.clamp(idle, peak);
            if hi <= lo {
                pts.push(lo);
            } else {
                for k in 0..POINTS_PER_LEVEL {
                    let t = k as f64 / (POINTS_PER_LEVEL - 1) as f64;
                    pts.push(lo + t * (hi - lo));
                }
            }
            // A concave fit's vertex can sit between lattice points and
            // hold the only positive objective value — always include it.
            if let Some(v) = g.model.curve().vertex() {
                if g.model.curve().is_concave() && (idle..=peak).contains(&v) {
                    pts.push(v);
                }
            }
            // The budget-bounded per-server maximum: the feasible band
            // [idle, budget/count] can be narrower than a lattice step.
            let bound = problem.budget().value() / f64::from(g.count);
            if (idle..=peak).contains(&bound) {
                pts.push(bound);
            }
            debug_assert!(pts.len() <= MAX_CANDIDATES, "lattice row overflows");
        }

        let lattice = Lattice::new(problem, &scratch.candidates[..n]);
        let mut incumbent = Incumbent {
            assignment: &mut scratch.assignment,
            value: best_value,
            best: &mut scratch.best_assignment,
        };
        lattice.search(0, problem.budget().value(), 0.0, &mut incumbent);
        best_value = incumbent.value;

        // Shrink each window around the incumbent for the next level.
        let spent = problem.total_power(&scratch.best_assignment).value();
        for (i, g) in problem.groups().iter().enumerate() {
            let (lo, hi) = scratch.windows[i];
            let center = scratch.best_assignment[i].value();
            let idle = g.model.range().idle().value();
            let peak = g.model.range().peak().value();
            scratch.windows[i] = if center == 0.0 {
                // Group is off in the incumbent. Concentrate its next
                // window on what the residual budget could actually
                // afford — the feasible band is often narrower than a
                // full-envelope lattice step.
                let residual = (problem.budget().value() - spent) / f64::from(g.count);
                if residual >= idle {
                    (idle, residual.min(peak))
                } else {
                    (idle, peak)
                }
            } else {
                let half = (hi - lo) / (POINTS_PER_LEVEL - 1) as f64;
                (center - half, center + half)
            };
        }
    }
}

/// One level's lattice in separable form: each group's candidates, its
/// throughput at every candidate, and its best throughput.
struct Lattice<'a> {
    problem: &'a AllocationProblem,
    candidates: &'a [Vec<f64>],
    /// `values[i][k]` is group `i`'s throughput at `candidates[i][k]`.
    values: [[f64; MAX_CANDIDATES]; EXHAUSTIVE_MAX_GROUPS],
    /// `tops[i]` is the largest entry of row `i` of `values`.
    tops: [f64; EXHAUSTIVE_MAX_GROUPS],
}

/// The search's mutable state: the assignment on the current path and
/// the incumbent (first best leaf seen) with its objective value.
struct Incumbent<'a> {
    assignment: &'a mut [Watts],
    value: f64,
    best: &'a mut [Watts],
}

impl<'a> Lattice<'a> {
    /// Evaluates every group at every candidate, once per level.
    fn new(problem: &'a AllocationProblem, candidates: &'a [Vec<f64>]) -> Self {
        let mut values = [[0.0; MAX_CANDIDATES]; EXHAUSTIVE_MAX_GROUPS];
        let mut tops = [f64::NEG_INFINITY; EXHAUSTIVE_MAX_GROUPS];
        for (i, (g, pts)) in problem.groups().iter().zip(candidates).enumerate() {
            for (value, &p) in values[i].iter_mut().zip(pts) {
                *value = g.throughput(Watts::new(p)).value();
                tops[i] = tops[i].max(*value);
            }
        }
        Lattice {
            problem,
            candidates,
            values,
            tops,
        }
    }

    /// Visits the lattice below `depth` in candidate order, where
    /// `partial` is the path's objective so far: `0.0` plus each chosen
    /// entry, added in group order exactly as
    /// [`AllocationProblem::objective`] folds them, so a leaf's value is
    /// the bits `objective` would return for it. A subtree is skipped when
    /// even each remaining group's best entry, added in the same order,
    /// does not beat the incumbent: IEEE addition is monotone, so no leaf
    /// below could, and the strict `>` keeps the first best leaf.
    fn search(&self, depth: usize, budget_left: f64, partial: f64, incumbent: &mut Incumbent<'_>) {
        let n = self.candidates.len();
        let mut bound = partial;
        for &top in &self.tops[depth..n] {
            bound += top;
        }
        let may_beat = bound > incumbent.value;
        if !may_beat {
            return;
        }
        let count = f64::from(self.problem.groups()[depth].count);
        let values = &self.values[depth];
        let candidates = self.candidates[depth].iter().zip(values);
        if depth + 1 == n {
            // The last group: a flat scan, copying the path only when
            // the incumbent improves.
            for (&p, &value) in candidates {
                let cost = p * count;
                if cost > budget_left + 1e-9 {
                    continue;
                }
                let total = partial + value;
                if total > incumbent.value {
                    incumbent.value = total;
                    incumbent.assignment[depth] = Watts::new(p);
                    incumbent.best.copy_from_slice(incumbent.assignment);
                }
            }
            return;
        }
        for (&p, &value) in candidates {
            let cost = p * count;
            if cost > budget_left + 1e-9 {
                continue;
            }
            incumbent.assignment[depth] = Watts::new(p);
            self.search(depth + 1, budget_left - cost, partial + value, incumbent);
        }
    }
}

/// Round-robin single-group improvement for problems too large for the
/// exhaustive lattice: repeatedly re-optimizes one group's per-server power
/// over a lattice of `{off} ∪ [idle, peak]` points while the others stay
/// fixed, until a pass yields no improvement.
fn solve_coordinate_ascent(problem: &AllocationProblem, scratch: &mut SolverScratch) -> Allocation {
    let n = problem.groups().len();
    scratch.prepare_grid(n.max(1));
    let mut best_value = problem.objective(&scratch.assignment);

    // Visit groups in descending peak-efficiency order so the most
    // productive groups claim budget first (coordinate ascent cannot move
    // budget between groups in a single step).
    scratch.order.clear();
    scratch.order.extend(0..n);
    scratch.order.sort_by(|&a, &b| {
        let ea = problem.groups()[a].model.peak_efficiency();
        let eb = problem.groups()[b].model.peak_efficiency();
        eb.total_cmp(&ea)
    });

    for _ in 0..ASCENT_PASSES {
        let mut improved = false;
        for &g in &scratch.order {
            let group = &problem.groups()[g];
            let count = f64::from(group.count);
            let spent_elsewhere: f64 = scratch
                .assignment
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != g)
                .map(|(i, w)| w.value() * f64::from(problem.groups()[i].count))
                .sum();
            let available = (problem.budget().value() - spent_elsewhere) / count;
            if available <= 0.0 {
                continue;
            }
            let idle = group.model.range().idle().value();
            let peak = group.model.range().peak().value().min(available);
            let candidates = &mut scratch.candidates[0];
            candidates.clear();
            candidates.push(0.0);
            if peak >= idle {
                for k in 0..(POINTS_PER_LEVEL * 4) {
                    let t = k as f64 / (POINTS_PER_LEVEL * 4 - 1) as f64;
                    candidates.push(idle + t * (peak - idle));
                }
                if let Some(v) = group.model.curve().vertex() {
                    if group.model.curve().is_concave() && (idle..=peak).contains(&v) {
                        candidates.push(v);
                    }
                }
            }
            for &p in &scratch.candidates[0] {
                let old = scratch.assignment[g];
                scratch.assignment[g] = Watts::new(p);
                let value = problem.objective(&scratch.assignment);
                if value > best_value {
                    best_value = value;
                    improved = true;
                } else {
                    scratch.assignment[g] = old;
                }
            }
        }
        if !improved {
            break;
        }
    }
    Allocation::from_assignment(problem, scratch.assignment.clone())
}

/// A streaming walk of the `granularity`-step share simplex: every
/// `(η, γ, …)` vector with entries in `{0, 1/steps, …, 1}` summing to
/// exactly 1, visited in the same lexicographic order the old recursive
/// enumeration produced (callers keep the first best on ties, so order is
/// part of the contract). Unlike the materializing [`enumerate_shares`],
/// the lattice holds one point at a time — O(groups) memory for a lattice
/// that is combinatorial in size.
///
/// # Examples
///
/// ```
/// use greenhetero_core::solver::ShareLattice;
/// use greenhetero_core::types::Ratio;
///
/// let mut lattice = ShareLattice::new(2, Ratio::saturating(0.5));
/// let mut seen = 0;
/// while let Some(shares) = lattice.advance() {
///     assert!((shares.iter().map(|r| r.value()).sum::<f64>() - 1.0).abs() < 1e-9);
///     seen += 1;
/// }
/// assert_eq!(seen, 3); // (0,1), (0.5,0.5), (1,0)
/// ```
#[derive(Debug)]
pub struct ShareLattice {
    ticks: Vec<u32>,
    shares: Vec<Ratio>,
    steps: u32,
    started: bool,
    done: bool,
}

impl ShareLattice {
    /// Creates a lattice walker over `groups` share slots.
    ///
    /// Granularities below `1/1000` are clamped to 1000 steps: the old
    /// enumeration silently cast `1/granularity` to `u32` (saturating),
    /// so a denormal-small granularity requested ~4 billion steps and
    /// effectively hung. `Ratio` already rejects values above 1, so the
    /// step count is always at least 1.
    ///
    /// # Panics
    ///
    /// Panics if `granularity` is zero or `groups` is zero (an empty
    /// simplex has no points to walk).
    #[must_use]
    pub fn new(groups: usize, granularity: Ratio) -> Self {
        assert!(!granularity.is_zero(), "granularity must be in (0, 1]");
        assert!(groups > 0, "share lattice needs at least one group");
        let steps = (1.0 / granularity.value())
            .round()
            .clamp(1.0, f64::from(MAX_SHARE_STEPS)) as u32;
        // greenhetero-lint: allow(GH006) one-time constructor allocation, outside the walk
        let ticks = vec![0u32; groups];
        // greenhetero-lint: allow(GH006) one-time constructor allocation, outside the walk
        let shares = vec![Ratio::ZERO; groups];
        ShareLattice {
            ticks,
            shares,
            steps,
            started: false,
            done: false,
        }
    }

    /// The number of steps the granularity resolved (and clamped) to.
    #[must_use]
    pub fn steps(&self) -> u32 {
        self.steps
    }

    /// Advances to the next lattice point and returns its share vector,
    /// or `None` when the simplex is exhausted. The returned slice is
    /// borrowed from the walker and overwritten by the next call.
    pub fn advance(&mut self) -> Option<&[Ratio]> {
        if self.done {
            return None;
        }
        if self.started {
            if !self.step() {
                self.done = true;
                return None;
            }
        } else {
            self.started = true;
            let last = self.ticks.len() - 1;
            self.ticks[last] = self.steps;
        }
        for (share, &t) in self.shares.iter_mut().zip(&self.ticks) {
            *share = Ratio::saturating(f64::from(t) / f64::from(self.steps));
        }
        Some(&self.shares)
    }

    /// One step of the next-composition walk. The prefix `ticks[..last]`
    /// counts up lexicographically; `ticks[last]` always holds the
    /// remainder, replicating the recursion order of the old enumeration.
    fn step(&mut self) -> bool {
        let last = self.ticks.len() - 1;
        if last == 0 {
            // Single group: the one point (steps) was already emitted.
            return false;
        }
        if self.ticks[last] > 0 {
            // Remainder available: bump the innermost prefix slot.
            self.ticks[last] -= 1;
            self.ticks[last - 1] += 1;
            return true;
        }
        // Innermost loop exhausted: carry into the slot left of the
        // rightmost nonzero prefix entry and return the freed ticks to
        // the remainder.
        let Some(k) = (1..last).rev().find(|&j| self.ticks[j] > 0) else {
            return false;
        };
        let freed: u32 = self.ticks[k..last].iter().sum();
        self.ticks[k - 1] += 1;
        for t in &mut self.ticks[k..last] {
            *t = 0;
        }
        self.ticks[last] = freed - 1;
        true
    }
}

/// Enumerates all share vectors on the `granularity`-step simplex, e.g.
/// a granularity of 0.1 yields the Manual policy's 10 % lattice: every
/// `(η, γ, …)` with entries in `{0, 0.1, …, 1}` summing to exactly 1.
///
/// This is the materializing compatibility wrapper around
/// [`ShareLattice`]; hot paths should walk the lattice directly instead
/// of collecting a combinatorial number of vectors.
///
/// # Panics
///
/// Panics if `granularity` is zero or `groups` is zero; granularities
/// below `1/1000` are clamped (see [`ShareLattice::new`]).
#[must_use]
pub fn enumerate_shares(groups: usize, granularity: Ratio) -> Vec<Vec<Ratio>> {
    let mut lattice = ShareLattice::new(groups, granularity);
    // greenhetero-lint: allow(GH006) compat shim materializes the lattice for small callers
    let mut out = Vec::new();
    while let Some(shares) = lattice.advance() {
        // greenhetero-lint: allow(GH006) compat shim materializes the lattice for small callers
        out.push(shares.to_vec());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::{PerfModel, Quadratic};
    use crate::solver::problem::ServerGroup;
    use crate::solver::solve_exact;
    use crate::types::{ConfigId, PowerRange, Throughput};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

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

    /// The exhaustive grid engine (up to `EXHAUSTIVE_MAX_GROUPS` groups)
    /// before the separable kernel: the same level loop, searched by
    /// [`reference_search`], which scores every leaf with
    /// [`AllocationProblem::objective`].
    fn reference_solve_grid(problem: &AllocationProblem) -> Allocation {
        let mut scratch = SolverScratch::new();
        scratch.prepare_grid(problem.groups().len());
        for (i, g) in problem.groups().iter().enumerate() {
            scratch.windows[i] = (
                g.model.range().idle().value(),
                g.model.range().peak().value(),
            );
        }
        reference_refine(problem, &mut scratch);
        Allocation::from_assignment(problem, scratch.best_assignment.clone())
    }

    /// The level loop `refine` replaced.
    fn reference_refine(problem: &AllocationProblem, scratch: &mut SolverScratch) {
        let n = problem.groups().len();
        let mut best_value = problem.objective(&scratch.best_assignment);

        for level in 0..LEVELS {
            for (i, g) in problem.groups().iter().enumerate() {
                let (lo, hi) = scratch.windows[i];
                let pts = &mut scratch.candidates[i];
                pts.clear();
                if level == 0 {
                    pts.push(0.0);
                }
                let idle = g.model.range().idle().value();
                let peak = g.model.range().peak().value();
                let lo = lo.clamp(idle, peak);
                let hi = hi.clamp(idle, peak);
                if hi <= lo {
                    pts.push(lo);
                } else {
                    for k in 0..POINTS_PER_LEVEL {
                        let t = k as f64 / (POINTS_PER_LEVEL - 1) as f64;
                        pts.push(lo + t * (hi - lo));
                    }
                }
                if let Some(v) = g.model.curve().vertex() {
                    if g.model.curve().is_concave() && (idle..=peak).contains(&v) {
                        pts.push(v);
                    }
                }
                let bound = problem.budget().value() / f64::from(g.count);
                if (idle..=peak).contains(&bound) {
                    pts.push(bound);
                }
            }

            reference_search(
                problem,
                &scratch.candidates[..n],
                0,
                problem.budget().value(),
                &mut scratch.assignment,
                &mut best_value,
                &mut scratch.best_assignment,
            );

            let spent = problem.total_power(&scratch.best_assignment).value();
            for (i, g) in problem.groups().iter().enumerate() {
                let (lo, hi) = scratch.windows[i];
                let center = scratch.best_assignment[i].value();
                let idle = g.model.range().idle().value();
                let peak = g.model.range().peak().value();
                scratch.windows[i] = if center == 0.0 {
                    let residual = (problem.budget().value() - spent) / f64::from(g.count);
                    if residual >= idle {
                        (idle, residual.min(peak))
                    } else {
                        (idle, peak)
                    }
                } else {
                    let half = (hi - lo) / (POINTS_PER_LEVEL - 1) as f64;
                    (center - half, center + half)
                };
            }
        }
    }

    /// The recursive search `Lattice::search` replaced: the whole
    /// objective at every leaf, no bound.
    #[allow(clippy::too_many_arguments)]
    fn reference_search(
        problem: &AllocationProblem,
        candidates: &[Vec<f64>],
        depth: usize,
        budget_left: f64,
        assignment: &mut [Watts],
        best_value: &mut Throughput,
        best_assignment: &mut [Watts],
    ) {
        if depth == candidates.len() {
            let value = problem.objective(assignment);
            if value > *best_value {
                *best_value = value;
                best_assignment.copy_from_slice(assignment);
            }
            return;
        }
        let count = f64::from(problem.groups()[depth].count);
        for &p in &candidates[depth] {
            let cost = p * count;
            if cost > budget_left + 1e-9 {
                continue;
            }
            assignment[depth] = Watts::new(p);
            reference_search(
                problem,
                candidates,
                depth + 1,
                budget_left - cost,
                assignment,
                best_value,
                best_assignment,
            );
        }
        assignment[depth] = Watts::ZERO;
    }

    /// An allocation as raw bits: every per-server watt value, then the
    /// projected throughput.
    fn bits(allocation: &Allocation) -> (Vec<u64>, u64) {
        (
            allocation
                .per_server
                .iter()
                .map(|w| w.value().to_bits())
                .collect(),
            allocation.projected.value().to_bits(),
        )
    }

    /// Asserts that the grid engine returns the reference's bits for
    /// `problem`, through a reused workspace.
    fn assert_matches_reference(problem: &AllocationProblem, scratch: &mut SolverScratch) {
        let grid = solve_grid_with(problem, scratch);
        assert_eq!(
            bits(&grid),
            bits(&reference_solve_grid(problem)),
            "grid engine diverged on {problem:?}"
        );
    }

    /// A random problem of `groups` groups: counts 1–6; linear, convex
    /// and concave fits, with the vertex inside, below or above the
    /// range, some offset below zero over part of it; sometimes a copy of
    /// the previous group; budgets from zero to past the total peak.
    fn random_problem(rng: &mut StdRng, groups: usize) -> AllocationProblem {
        let mut list: Vec<ServerGroup> = Vec::with_capacity(groups);
        for i in 0..groups {
            if let Some(previous) = list.last() {
                if rng.random::<f64>() < 0.15 {
                    list.push(previous.clone());
                    continue;
                }
            }
            let idle = 20.0 + 130.0 * rng.random::<f64>();
            let peak = idle + 5.0 + 120.0 * rng.random::<f64>();
            let count = 1 + rng.random::<u32>() % 6;
            let q = match rng.random::<u32>() % 5 {
                0 => Quadratic {
                    l: -400.0 * rng.random::<f64>(),
                    m: 2.0 + 30.0 * rng.random::<f64>(),
                    n: 0.0,
                },
                1 => Quadratic {
                    l: -200.0 * rng.random::<f64>(),
                    m: 10.0 * rng.random::<f64>() - 2.0,
                    n: 0.001 + 0.05 * rng.random::<f64>(),
                },
                2 => {
                    // Vertex inside the range.
                    let v = idle + (peak - idle) * rng.random::<f64>();
                    let n = -(0.01 + 0.3 * rng.random::<f64>());
                    Quadratic {
                        l: -500.0 * rng.random::<f64>(),
                        m: -2.0 * n * v,
                        n,
                    }
                }
                3 => {
                    // Vertex below idle or above peak.
                    let v = if rng.random::<bool>() {
                        idle * rng.random::<f64>()
                    } else {
                        peak * (1.05 + rng.random::<f64>())
                    };
                    let n = -(0.005 + 0.1 * rng.random::<f64>());
                    Quadratic {
                        l: -100.0 * rng.random::<f64>(),
                        m: -2.0 * n * v,
                        n,
                    }
                }
                _ => Quadratic {
                    // Zero over the lower part of the range.
                    l: -3000.0 * rng.random::<f64>(),
                    m: 20.0 + 40.0 * rng.random::<f64>(),
                    n: -0.2 * rng.random::<f64>(),
                },
            };
            list.push(group(i as u32, count, idle, peak, q));
        }
        let peak: f64 = list.iter().map(|g| g.group_peak().value()).sum();
        let budget = match rng.random::<u32>() % 20 {
            0 => 0.0,
            1 => peak,
            2 => peak * (1.0 + rng.random::<f64>()),
            _ => peak * 1.1 * rng.random::<f64>(),
        };
        AllocationProblem::new(list, Watts::new(budget)).unwrap()
    }

    /// Checks `cases` random problems with group counts drawn from
    /// `groups`.
    fn sweep(seed: u64, cases: usize, groups: std::ops::RangeInclusive<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut scratch = SolverScratch::new();
        let span = groups.end() - groups.start() + 1;
        for _ in 0..cases {
            let groups = groups.start() + rng.random::<u32>() as usize % span;
            let p = random_problem(&mut rng, groups);
            assert_matches_reference(&p, &mut scratch);
        }
    }

    #[test]
    fn matches_exact_on_concave_two_group_problem() {
        let a = group(
            0,
            1,
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
            1,
            47.0,
            81.0,
            Quadratic {
                l: -1200.0,
                m: 50.0,
                n: -0.18,
            },
        );
        let p = AllocationProblem::new(vec![a, b], Watts::new(220.0)).unwrap();
        let exact = solve_exact(&p).unwrap();
        let grid = solve_grid(&p);
        let gap = (exact.projected.value() - grid.projected.value()).abs();
        assert!(
            gap <= exact.projected.value().abs() * 1e-3 + 1e-6,
            "grid {:?} vs exact {:?}",
            grid.projected,
            exact.projected
        );
    }

    #[test]
    fn handles_convex_misfits() {
        let a = group(
            0,
            1,
            40.0,
            120.0,
            Quadratic {
                l: 0.0,
                m: 1.0,
                n: 0.05,
            },
        );
        let b = group(
            1,
            1,
            40.0,
            120.0,
            Quadratic {
                l: 0.0,
                m: 10.0,
                n: -0.02,
            },
        );
        let p = AllocationProblem::new(vec![a, b], Watts::new(180.0)).unwrap();
        let alloc = solve_grid(&p);
        assert!(p.is_feasible(&alloc.per_server));
        assert!(alloc.projected.value() > 0.0);
    }

    #[test]
    fn respects_budget_with_many_groups() {
        let groups: Vec<ServerGroup> = (0..5)
            .map(|i| {
                group(
                    i,
                    2,
                    30.0 + f64::from(i) * 5.0,
                    90.0 + f64::from(i) * 10.0,
                    Quadratic {
                        l: 0.0,
                        m: 10.0 + f64::from(i),
                        n: -0.03,
                    },
                )
            })
            .collect();
        let p = AllocationProblem::new(groups, Watts::new(500.0)).unwrap();
        let alloc = solve_grid(&p);
        assert!(p.is_feasible(&alloc.per_server));
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh_solves() {
        let mut scratch = SolverScratch::new();
        for budget in [120.0, 180.0, 220.0, 150.0, 220.0] {
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
            let p = AllocationProblem::new(vec![a, b], Watts::new(budget)).unwrap();
            let fresh = solve_grid(&p);
            let reused = solve_grid_with(&p, &mut scratch);
            assert_eq!(fresh, reused, "budget {budget}");
        }
    }

    /// A concave curve with its vertex `-m / 2n` at `v`; exactly at `v`
    /// when `n` is -0.5.
    fn concave(v: f64, n: f64) -> Quadratic {
        Quadratic {
            l: 0.0,
            m: -2.0 * n * v,
            n,
        }
    }

    #[test]
    fn kernel_matches_reference_on_edge_cases() {
        let mut scratch = SolverScratch::new();
        let shapes = [
            Quadratic {
                l: -3000.0,
                m: 60.0,
                n: -0.12,
            },
            Quadratic {
                l: 0.0,
                m: 10.0,
                n: 0.0,
            },
            Quadratic {
                l: -50.0,
                m: 1.0,
                n: 0.05,
            },
            concave(100.0, -0.3),
        ];
        for groups in 1..=EXHAUSTIVE_MAX_GROUPS {
            // Five-group lattices are slow to score leaf by leaf in a
            // debug build: one count and two budgets here, the rest in
            // the ignored sweep.
            let five = groups == EXHAUSTIVE_MAX_GROUPS;
            for count in if five { 2..=2 } else { 1..=6 } {
                let list: Vec<ServerGroup> = (0..groups)
                    .map(|i| {
                        let idle = 40.0 + 10.0 * i as f64;
                        group(i as u32, count, idle, idle + 90.0, shapes[i % shapes.len()])
                    })
                    .collect();
                let total_peak: f64 = list.iter().map(|g| g.group_peak().value()).sum();
                let total_idle: f64 = list.iter().map(|g| g.group_idle().value()).sum();
                let budgets = [
                    0.0,
                    total_peak,
                    total_idle,
                    0.6 * total_peak,
                    2.0 * total_peak,
                ];
                let tested = if five { 2 } else { budgets.len() };
                for budget in budgets.into_iter().take(tested) {
                    let p = AllocationProblem::new(list.clone(), Watts::new(budget)).unwrap();
                    assert_matches_reference(&p, &mut scratch);
                }
            }
        }
    }

    #[test]
    fn kernel_matches_reference_at_the_budget_tolerance() {
        let mut scratch = SolverScratch::new();
        // One group whose vertex costs exactly `budget + 1e-9`: the
        // feasibility test admits it, and it is the best candidate.
        let edge = 150.0 + 1e-9;
        let p = AllocationProblem::new(
            vec![group(0, 1, 60.0, 160.0, concave(edge, -0.5))],
            Watts::new(150.0),
        )
        .unwrap();
        assert_matches_reference(&p, &mut scratch);
        assert_eq!(
            solve_grid(&p).per_server[0].value().to_bits(),
            edge.to_bits()
        );

        // The same edge after a subtraction: the first group's vertex
        // leaves exactly 150 W of a 250 W budget, and the second group's
        // vertex costs 150 W + 1e-9 (admitted) or one ulp more (not).
        for second in [edge, f64::from_bits(edge.to_bits() + 1)] {
            let p = AllocationProblem::new(
                vec![
                    group(0, 1, 50.0, 140.0, concave(100.0, -0.5)),
                    group(1, 1, 60.0, 160.0, concave(second, -0.5)),
                ],
                Watts::new(250.0),
            )
            .unwrap();
            assert_matches_reference(&p, &mut scratch);
            let took_vertex = solve_grid(&p).per_server[1].value().to_bits() == second.to_bits();
            assert_eq!(took_vertex, second.to_bits() == edge.to_bits());
        }
    }

    #[test]
    fn kernel_keeps_the_first_of_tied_groups() {
        let mut scratch = SolverScratch::new();
        let q = Quadratic {
            l: -2640.0,
            m: 50.0,
            n: -0.1,
        };
        for count in 1..=3 {
            for budget in [0.0, 70.0, 130.0, 180.0, 240.0, 400.0] {
                let twins = vec![
                    group(0, count, 60.0, 120.0, q),
                    group(1, count, 60.0, 120.0, q),
                ];
                let p =
                    AllocationProblem::new(twins, Watts::new(budget * f64::from(count))).unwrap();
                assert_matches_reference(&p, &mut scratch);
            }
        }
    }

    #[test]
    fn kernel_matches_reference_on_random_problems() {
        sweep(0x6772_6964, 300, 1..=4);
        sweep(
            0x6772_6965,
            6,
            EXHAUSTIVE_MAX_GROUPS..=EXHAUSTIVE_MAX_GROUPS,
        );
    }

    /// The long sweep; run it with
    /// `cargo test --release -p greenhetero-core --lib solver::grid -- --ignored`.
    #[test]
    #[ignore = "20,000 cases, about three minutes in release"]
    fn kernel_matches_reference_on_many_random_problems() {
        sweep(0x6772_6964_7377, 20_000, 1..=EXHAUSTIVE_MAX_GROUPS);
    }

    #[test]
    fn coordinate_ascent_handles_many_groups_quickly() {
        // 10 groups would be 13^10 lattice points exhaustively; the ascent
        // path must solve it in milliseconds and respect the budget.
        let groups: Vec<ServerGroup> = (0..10)
            .map(|i| {
                group(
                    i,
                    2,
                    25.0 + f64::from(i) * 3.0,
                    80.0 + f64::from(i) * 5.0,
                    Quadratic {
                        l: 0.0,
                        m: 8.0 + f64::from(i),
                        n: -0.02,
                    },
                )
            })
            .collect();
        let p = AllocationProblem::new(groups, Watts::new(600.0)).unwrap();
        let alloc = solve_grid(&p);
        assert!(p.is_feasible(&alloc.per_server));
        assert!(alloc.projected.value() > 0.0);
        // The steepest group should be powered.
        assert!(alloc.per_server[9].value() > 0.0);
    }

    #[test]
    fn ascent_matches_exhaustive_on_small_problem() {
        let a = group(
            0,
            1,
            50.0,
            150.0,
            Quadratic {
                l: 0.0,
                m: 20.0,
                n: -0.05,
            },
        );
        let b = group(
            1,
            1,
            40.0,
            120.0,
            Quadratic {
                l: 0.0,
                m: 15.0,
                n: -0.04,
            },
        );
        let p = AllocationProblem::new(vec![a, b], Watts::new(200.0)).unwrap();
        let exhaustive = solve_grid(&p);
        let ascent = super::solve_coordinate_ascent(&p, &mut SolverScratch::new());
        // Coordinate ascent is a heuristic (only used beyond the paper's
        // ≤3-group scope); it must land within a few percent and never
        // violate the budget.
        let gap = (exhaustive.projected.value() - ascent.projected.value()).abs();
        assert!(
            gap < 0.06 * exhaustive.projected.value() + 1e-6,
            "ascent {} vs exhaustive {}",
            ascent.projected.value(),
            exhaustive.projected.value()
        );
        assert!(p.is_feasible(&ascent.per_server));
    }

    #[test]
    fn zero_budget_yields_all_off() {
        let g = group(
            0,
            1,
            50.0,
            100.0,
            Quadratic {
                l: 0.0,
                m: 10.0,
                n: -0.02,
            },
        );
        let p = AllocationProblem::new(vec![g], Watts::ZERO).unwrap();
        let alloc = solve_grid(&p);
        assert_eq!(alloc.per_server[0], Watts::ZERO);
    }

    #[test]
    fn enumerate_shares_ten_percent_two_groups() {
        let shares = enumerate_shares(2, Ratio::saturating(0.1));
        // (0, 1), (0.1, 0.9), …, (1, 0): 11 lattice points.
        assert_eq!(shares.len(), 11);
        for s in &shares {
            let sum: f64 = s.iter().map(|r| r.value()).sum();
            assert!((sum - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn enumerate_shares_three_groups_counts() {
        let shares = enumerate_shares(3, Ratio::saturating(0.1));
        // Compositions of 10 into 3 parts: C(12, 2) = 66.
        assert_eq!(shares.len(), 66);
    }

    #[test]
    #[should_panic(expected = "granularity must be in (0, 1]")]
    fn enumerate_shares_rejects_zero_granularity() {
        let _ = enumerate_shares(2, Ratio::saturating(0.0));
    }

    #[test]
    #[should_panic(expected = "at least one group")]
    fn enumerate_shares_rejects_zero_groups() {
        // The old recursion underflowed `groups - 1` here; the contract is
        // now an explicit panic.
        let _ = enumerate_shares(0, Ratio::saturating(0.1));
    }

    #[test]
    fn lattice_streams_in_the_legacy_recursion_order() {
        let mut lattice = ShareLattice::new(3, Ratio::saturating(0.5));
        let mut seen = Vec::new();
        while let Some(shares) = lattice.advance() {
            seen.push(shares.to_vec());
        }
        let tick = |t: u32| Ratio::saturating(f64::from(t) / 2.0);
        let expect: Vec<Vec<Ratio>> = [
            [0, 0, 2],
            [0, 1, 1],
            [0, 2, 0],
            [1, 0, 1],
            [1, 1, 0],
            [2, 0, 0],
        ]
        .iter()
        .map(|row| row.iter().map(|&t| tick(t)).collect())
        .collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn lattice_clamps_denormal_granularity() {
        // A sub-permille granularity used to saturate the `as u32` cast to
        // ~4 billion steps; now it clamps to a bounded lattice.
        let lattice = ShareLattice::new(2, Ratio::saturating(1e-12));
        assert_eq!(lattice.steps(), 1000);
        let mut walker = ShareLattice::new(1, Ratio::saturating(1e-12));
        assert_eq!(walker.advance(), Some(&[Ratio::ONE][..]));
        assert_eq!(walker.advance(), None);
    }

    #[test]
    fn lattice_handles_single_group_and_full_granularity() {
        let mut one = ShareLattice::new(1, Ratio::saturating(0.1));
        assert_eq!(one.advance(), Some(&[Ratio::ONE][..]));
        assert_eq!(one.advance(), None);
        assert_eq!(one.advance(), None);

        let coarse = enumerate_shares(2, Ratio::ONE);
        assert_eq!(
            coarse,
            vec![vec![Ratio::ZERO, Ratio::ONE], vec![Ratio::ONE, Ratio::ZERO]]
        );
    }
}
