//! The reusable solver workspace.
//!
//! An engine runs on every solve the fast path cannot answer, and before
//! this workspace existed each call re-allocated its assignment vectors,
//! candidate lattices, and index scratch on the heap — dozens of
//! allocations per solve, thousands per simulated day. [`SolverScratch`] owns those
//! buffers instead: the first solve sizes them, every later solve reuses
//! them, and the hot loops in `grid.rs` / `exact.rs` stay allocation-free
//! (enforced by lint rule GH006). The only allocation left per solve is
//! the returned [`Allocation`](crate::solver::Allocation) itself, which
//! the caller owns.
//!
//! This module is deliberately the one place in the solver allowed to
//! allocate: constructors and `prepare_*` run outside the hot loops.

use crate::types::Watts;

/// Growable buffers shared by the solver engines across calls.
///
/// Holding one of these per controller (or per benchmark loop) turns the
/// per-solve heap churn into amortized-zero allocations. The buffers are
/// sized lazily by [`prepare_grid`](SolverScratch::prepare_grid) /
/// [`prepare_exact`](SolverScratch::prepare_exact); contents are
/// overwritten on every solve, so nothing persists between calls except
/// capacity.
#[derive(Debug, Default)]
pub struct SolverScratch {
    // --- grid engine ---
    /// Per-group search window `(lo, hi)` for the current lattice level.
    pub(crate) windows: Vec<(f64, f64)>,
    /// Per-group candidate power levels for the current lattice level.
    /// Inner vectors keep their capacity across levels and solves.
    pub(crate) candidates: Vec<Vec<f64>>,
    /// The in-progress lattice assignment the recursive search mutates.
    pub(crate) assignment: Vec<Watts>,
    /// The best assignment seen so far (the incumbent).
    pub(crate) best_assignment: Vec<Watts>,
    /// Group visit order for coordinate ascent.
    pub(crate) order: Vec<usize>,
    // --- exact engine ---
    /// Indices of groups powered on in the current subset.
    pub(crate) on: Vec<usize>,
    /// Indices of groups with convex fitted curves (`n > 0`).
    pub(crate) convex: Vec<usize>,
    /// The convex groups inside the current on-subset, pinned or freed.
    pub(crate) convex_on: Vec<usize>,
    /// The concave and linear groups inside the current on-subset: the
    /// groups `V(R)`'s pieces are built from and the water-fill sets.
    pub(crate) concave_on: Vec<usize>,
    /// The exact engine's in-progress assignment.
    pub(crate) exact_assignment: Vec<Watts>,
    /// The exact engine's incumbent.
    pub(crate) exact_best: Vec<Watts>,
}

impl SolverScratch {
    /// A workspace with empty buffers; the first solve sizes them.
    #[must_use]
    pub fn new() -> Self {
        SolverScratch::default()
    }

    /// Sizes the grid-engine buffers for an `n`-group problem and resets
    /// the assignment vectors to all-off.
    pub(crate) fn prepare_grid(&mut self, n: usize) {
        self.windows.clear();
        self.windows.resize(n, (0.0, 0.0));
        if self.candidates.len() < n {
            self.candidates.resize_with(n, Vec::default);
        }
        for pts in &mut self.candidates[..n] {
            pts.clear();
        }
        self.assignment.clear();
        self.assignment.resize(n, Watts::ZERO);
        self.best_assignment.clear();
        self.best_assignment.resize(n, Watts::ZERO);
    }

    /// Sizes the exact-engine buffers for an `n`-group problem and resets
    /// the assignment vectors to all-off.
    pub(crate) fn prepare_exact(&mut self, n: usize) {
        self.on.clear();
        self.convex.clear();
        self.convex_on.clear();
        self.concave_on.clear();
        self.exact_assignment.clear();
        self.exact_assignment.resize(n, Watts::ZERO);
        self.exact_best.clear();
        self.exact_best.resize(n, Watts::ZERO);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_resizes_and_zeroes() {
        let mut s = SolverScratch::new();
        s.prepare_grid(3);
        assert_eq!(s.assignment, vec![Watts::ZERO; 3]);
        assert_eq!(s.best_assignment.len(), 3);
        assert_eq!(s.candidates.len(), 3);
        s.candidates[2].push(1.0);
        s.assignment[0] = Watts::new(50.0);
        // Re-preparing for a smaller problem clears live contents but
        // keeps capacity.
        s.prepare_grid(2);
        assert_eq!(s.assignment, vec![Watts::ZERO; 2]);
        assert!(s.candidates[1].is_empty());
    }

    #[test]
    fn exact_buffers_reset() {
        let mut s = SolverScratch::new();
        s.prepare_exact(4);
        assert_eq!(s.exact_assignment.len(), 4);
        s.on.push(1);
        s.concave_on.push(2);
        s.prepare_exact(2);
        assert!(s.on.is_empty());
        assert!(s.concave_on.is_empty());
        assert_eq!(s.exact_best, vec![Watts::ZERO; 2]);
    }
}
