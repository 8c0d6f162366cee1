//! Exact allocation for piecewise-quadratic projections.
//!
//! The objective (Eq. 8) is separable but **not** concave globally: each
//! group contributes zero below its idle power (a fixed "power-on" cost),
//! a fitted quadratic between idle and peak, and a constant above peak.
//! The algorithm therefore:
//!
//! 1. enumerates which groups are powered **on** (2^G subsets — the paper
//!    bounds G at 3 per rack, we support up to [`MAX_EXACT_GROUPS`]);
//! 2. inside a subset, reserves every on-group's idle power and
//!    distributes the remainder by **water-filling** over the concave
//!    groups (KKT: equal marginal throughput per watt λ). Their
//!    water-filled value `V(R)` of the `R` watts left to them is piecewise
//!    quadratic; the pieces are built once per subset
//!    ([`concave_value_pieces`]), and the fill reads λ = `V'(R)` off the
//!    piece that holds `R` ([`water_fill`]);
//! 3. pins each convex fit (`n > 0`, which noisy profiles produce) to idle
//!    or its cap, every combination in turn;
//! 4. then frees one convex group at a time inside `[idle, cap]`, the
//!    others staying pinned. On each piece of `V` the free group's best
//!    power has a closed form ([`free_group_power`]).
//!
//! One free group is enough: at an optimum at most one strictly convex
//! group is interior, because moving watts between two interior convex
//! groups is convex in the amount moved, so one end of the move does at
//! least as well. The result is exact for quadratic and linear fits that
//! are non-negative on their envelope; DESIGN.md §18 records what it is
//! not claimed exact for. Problems with no convex fit never reach step 4,
//! so it cannot change their answers.
//!
//! The subset loop is allocation-free by contract (lint rule GH006): all
//! working memory lives on the stack or in the caller-provided
//! [`SolverScratch`](crate::solver::SolverScratch).

use crate::error::CoreError;
use crate::solver::problem::{Allocation, AllocationProblem, ServerGroup};
use crate::solver::scratch::SolverScratch;
use crate::types::{Throughput, Watts};

/// Largest group count the exact subset enumeration accepts; beyond this
/// the caller should use [`crate::solver::solve_grid`]. With no convex fit,
/// the 2^12 subsets of 12 groups take 1–3 ms in release on a 2-vCPU VM;
/// each convex fit doubles the masks of a subset.
pub const MAX_EXACT_GROUPS: usize = 12;

/// Most pieces `V(R)` has: each concave group adds at most two (two knots,
/// or a linear group's knot and its jump), plus the flat tail past the
/// point where every concave group sits at its cap.
const MAX_PIECES: usize = 2 * MAX_EXACT_GROUPS + 1;

/// Solves the allocation problem exactly (for quadratic fitted curves).
///
/// This convenience wrapper allocates a fresh workspace per call; hot
/// callers should hold a [`SolverScratch`] and use [`solve_exact_with`].
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] if the problem has more than
/// [`MAX_EXACT_GROUPS`] groups.
///
/// # Examples
///
/// ```
/// use greenhetero_core::database::{PerfModel, Quadratic};
/// use greenhetero_core::solver::{solve_exact, AllocationProblem, ServerGroup};
/// use greenhetero_core::types::{ConfigId, PowerRange, Watts};
///
/// // The §III-B case study: optimal PAR should land near 65 % for the
/// // Xeon group when 220 W is split across a Xeon and an i5.
/// let xeon = ServerGroup::new(
///     ConfigId::new(0),
///     1,
///     PerfModel::new(
///         Quadratic { l: -3000.0, m: 60.0, n: -0.12 },
///         PowerRange::new(Watts::new(88.0), Watts::new(147.0))?,
///     ),
/// )?;
/// let i5 = ServerGroup::new(
///     ConfigId::new(1),
///     1,
///     PerfModel::new(
///         Quadratic { l: -1200.0, m: 50.0, n: -0.18 },
///         PowerRange::new(Watts::new(47.0), Watts::new(81.0))?,
///     ),
/// )?;
/// let problem = AllocationProblem::new(vec![xeon, i5], Watts::new(220.0))?;
/// let alloc = solve_exact(&problem)?;
/// assert!(alloc.shares[0].value() > 0.5); // the Xeon earns the bigger share
/// # Ok::<(), greenhetero_core::error::CoreError>(())
/// ```
pub fn solve_exact(problem: &AllocationProblem) -> Result<Allocation, CoreError> {
    let mut scratch = SolverScratch::new();
    solve_exact_with(problem, &mut scratch)
}

/// [`solve_exact`] with a caller-owned workspace: after the first call has
/// sized the buffers, solving is allocation-free except for the returned
/// [`Allocation`].
///
/// # Errors
///
/// Same contract as [`solve_exact`].
pub fn solve_exact_with(
    problem: &AllocationProblem,
    scratch: &mut SolverScratch,
) -> Result<Allocation, CoreError> {
    let groups = problem.groups();
    if groups.len() > MAX_EXACT_GROUPS {
        return Err(CoreError::InvalidConfig {
            reason: format!(
                "exact solver supports at most {MAX_EXACT_GROUPS} groups, got {}",
                groups.len()
            ),
        });
    }

    let budget = problem.budget();
    scratch.prepare_exact(groups.len());
    if budget >= problem.total_peak() {
        return Ok(abundant(problem, scratch));
    }
    let mut best_value = problem.objective(&scratch.exact_best);

    for (i, g) in groups.iter().enumerate() {
        if !g.model.curve().is_concave() {
            scratch.convex.push(i);
        }
    }

    let mut pieces = [Piece::default(); MAX_PIECES];
    for subset in 1u32..(1u32 << groups.len()) {
        scratch.on.clear();
        for i in 0..groups.len() {
            if subset & (1 << i) != 0 {
                scratch.on.push(i);
            }
        }
        let base: Watts = scratch.on.iter().map(|&i| groups[i].group_idle()).sum();
        if base.value() > budget.value() + 1e-9 {
            continue;
        }

        // Split the subset into convex groups (pinned or freed below) and
        // concave groups (water-filled).
        scratch.convex_on.clear();
        scratch.concave_on.clear();
        for &i in &scratch.on {
            if scratch.convex.contains(&i) {
                scratch.convex_on.push(i);
            } else {
                scratch.concave_on.push(i);
            }
        }
        // `V(R)` depends only on the concave groups, so one build serves
        // every mask and every free group of this subset.
        let piece_count = concave_value_pieces(groups, &scratch.concave_on, &mut pieces);
        let pieces = &pieces[..piece_count];

        for convex_mask in 0u32..(1u32 << scratch.convex_on.len()) {
            // Every convex group pinned to idle or its best cap.
            let Some(spent) = pin(groups, scratch, convex_mask, budget) else {
                continue;
            };
            fill_and_keep(problem, scratch, spent, pieces, &mut best_value);

            // Free each convex group this mask pins at idle (its cap bit
            // would free the same problem again), at its best power.
            for pos in 0..scratch.convex_on.len() {
                if convex_mask & (1 << pos) != 0 {
                    continue;
                }
                let Some(spent) = pin(groups, scratch, convex_mask, budget) else {
                    continue;
                };
                let free = scratch.convex_on[pos];
                let group = &groups[free];
                let power = Watts::new(free_group_power(group, (budget - spent).value(), pieces));
                scratch.exact_assignment[free] = power;
                let spent = spent + (power - group.model.range().idle()) * f64::from(group.count);
                fill_and_keep(problem, scratch, spent, pieces, &mut best_value);
            }
        }
    }

    Ok(Allocation::from_assignment(
        problem,
        scratch.exact_best.clone(),
    ))
}

/// The answer when the budget covers every group at its peak. The groups
/// no longer compete for watts, so each takes the better of off and the
/// maximum of its fit over the envelope: the clamped vertex of a concave
/// fit, the better end of a linear or convex one (the peak on a tie).
fn abundant(problem: &AllocationProblem, scratch: &mut SolverScratch) -> Allocation {
    for (slot, g) in scratch.exact_assignment.iter_mut().zip(problem.groups()) {
        let range = g.model.range();
        let top = if g.model.curve().n < 0.0
            || g.model.eval(range.peak()) >= g.model.eval(range.idle())
        {
            best_power_cap(g)
        } else {
            range.idle()
        };
        *slot = if g.throughput(top) > Throughput::ZERO {
            top
        } else {
            Watts::ZERO
        };
    }
    Allocation::from_assignment(problem, scratch.exact_assignment.clone())
}

/// Assigns the on-groups of one convex mask: each convex group at its best
/// cap when its bit is set and at idle otherwise, every concave group at
/// idle. Returns the watts spent, or `None` when that overruns the budget.
fn pin(
    groups: &[ServerGroup],
    scratch: &mut SolverScratch,
    mask: u32,
    budget: Watts,
) -> Option<Watts> {
    scratch.exact_assignment.fill(Watts::ZERO);
    let mut spent = Watts::ZERO;
    for &i in &scratch.on {
        if let Some(pos) = scratch.convex_on.iter().position(|&c| c == i) {
            let p = if mask & (1 << pos) != 0 {
                best_power_cap(&groups[i])
            } else {
                groups[i].model.range().idle()
            };
            scratch.exact_assignment[i] = p;
            spent += p * f64::from(groups[i].count);
            if spent.value() > budget.value() + 1e-9 {
                return None;
            }
        } else {
            scratch.exact_assignment[i] = groups[i].model.range().idle();
            spent += groups[i].group_idle();
        }
    }
    (spent.value() <= budget.value() + 1e-9).then_some(spent)
}

/// Water-fills the concave groups with the budget `spent` leaves, and
/// makes the result the incumbent when it projects strictly more.
fn fill_and_keep(
    problem: &AllocationProblem,
    scratch: &mut SolverScratch,
    spent: Watts,
    pieces: &[Piece],
    best_value: &mut Throughput,
) {
    water_fill(
        problem.groups(),
        &scratch.concave_on,
        problem.budget() - spent,
        pieces,
        &mut scratch.exact_assignment,
    );
    debug_assert!(problem.is_feasible(&scratch.exact_assignment));
    let value = problem.objective(&scratch.exact_assignment);
    if value > *best_value {
        *best_value = value;
        scratch
            .exact_best
            .copy_from_slice(&scratch.exact_assignment);
    }
}

/// The per-server power where a group's projection is maximal: peak power,
/// or the quadratic's vertex when that lies inside the envelope (pushing
/// past the vertex of a concave fit would *reduce* projected throughput).
fn best_power_cap(group: &ServerGroup) -> Watts {
    let range = group.model.range();
    let curve = group.model.curve();
    match curve.vertex() {
        Some(v) if curve.n < 0.0 => range.clamp(Watts::new(
            v.clamp(range.idle().value(), range.peak().value()),
        )),
        _ => range.peak(),
    }
}

/// One piece of `V(R)`, the water-filled value of a subset's concave
/// groups given `R` watts above their idle floors. On `[start, end]` the
/// water level λ = `V'(R)` falls from `lambda` by `slope` per watt, so
/// `V(start + d) = value + lambda·d + slope·d²/2`.
#[derive(Debug, Clone, Copy, Default)]
struct Piece {
    start: f64,
    end: f64,
    value: f64,
    lambda: f64,
    slope: f64,
    /// The linear group that takes this piece's watts, for a jump piece.
    jump: Option<usize>,
}

/// Writes the pieces of `V(R)` for the concave groups in `active` into
/// `pieces` and returns how many there are. `V(0)` is taken as 0: only
/// differences in `V` matter to the free group.
///
/// The water level λ walks down from the top. A group with `n < 0` adds a
/// knot at its marginal at idle, where it starts taking watts, and one at
/// its marginal at its cap, where it stops; between knots the interior
/// groups' watts are linear in λ, so `V` is quadratic in `R`. A linear
/// group adds a jump at λ = `m`: it takes its whole span at that one
/// level, a piece on which `V` is linear. Only λ ≥ 0 is walked: a watt
/// no group's marginal pays for is left unallocated, so the last piece is
/// flat.
fn concave_value_pieces(
    groups: &[ServerGroup],
    active: &[usize],
    pieces: &mut [Piece; MAX_PIECES],
) -> usize {
    // A knot: its water level, the change in the count of interior
    // groups, the change in dR/dλ, the watts a linear group takes, and the
    // group.
    let mut knots = [(0.0f64, 0i32, 0.0f64, 0.0f64, 0usize); 2 * MAX_EXACT_GROUPS];
    let mut len = 0;
    for &i in active {
        let g = &groups[i];
        let curve = g.model.curve();
        let idle = g.model.range().idle().value();
        let cap = best_power_cap(g).value();
        let count = f64::from(g.count);
        if cap <= idle {
            continue;
        }
        if curve.n < 0.0 {
            let join = curve.derivative(idle);
            if join <= 0.0 {
                continue;
            }
            // While interior, p = (λ − m) / 2n, so R moves by count / 2n
            // per unit of λ.
            let rate = count / (2.0 * curve.n);
            knots[len] = (join, 1, rate, 0.0, i);
            knots[len + 1] = (curve.derivative(cap).max(0.0), -1, -rate, 0.0, i);
            len += 2;
        } else if curve.m > 0.0 {
            knots[len] = (curve.m, 0, 0.0, count * (cap - idle), i);
            len += 1;
        }
    }
    let knots = &mut knots[..len];
    knots.sort_unstable_by(|a, b| {
        b.0.total_cmp(&a.0)
            .then(a.1.cmp(&b.1))
            .then(a.2.total_cmp(&b.2))
            .then(a.3.total_cmp(&b.3))
            .then(a.4.cmp(&b.4))
    });

    let (mut r, mut v) = (0.0f64, 0.0f64);
    let (mut interior, mut rate) = (0i32, 0.0f64);
    let mut count = 0;
    for (k, &(lambda, d_interior, d_rate, jump, group)) in knots.iter().enumerate() {
        interior += d_interior;
        rate = if interior == 0 { 0.0 } else { rate + d_rate };
        if jump > 0.0 {
            pieces[count] = Piece {
                start: r,
                end: r + jump,
                value: v,
                lambda,
                slope: 0.0,
                jump: Some(group),
            };
            count += 1;
            r += jump;
            v += lambda * jump;
        }
        let next = knots.get(k + 1).map_or(0.0, |n| n.0);
        let width = rate * (next - lambda);
        if rate < 0.0 && width > 0.0 {
            pieces[count] = Piece {
                start: r,
                end: r + width,
                value: v,
                lambda,
                slope: 1.0 / rate,
                jump: None,
            };
            count += 1;
            r += width;
            v += 0.5 * (lambda + next) * width;
        }
    }
    pieces[count] = Piece {
        start: r,
        end: f64::INFINITY,
        value: v,
        lambda: 0.0,
        slope: 0.0,
        jump: None,
    };
    count + 1
}

/// The per-server power in `[idle, cap]` that maximizes a freed convex
/// group's throughput plus `V` of the watts it leaves the concave groups,
/// given `spare` watts above every on-group's idle floor.
///
/// On each piece of `V`, `count·f(p) + V(spare − count·(p − idle))` is
/// one quadratic in `p`. Its candidates are the piece's ends, clipped to
/// the envelope and to the point where the budget runs out, and its
/// stationary point where the quadratic is concave. Ties keep the first
/// candidate found.
fn free_group_power(group: &ServerGroup, spare: f64, pieces: &[Piece]) -> f64 {
    let curve = group.model.curve();
    let count = f64::from(group.count);
    let idle = group.model.range().idle().value();
    let top = best_power_cap(group)
        .value()
        .min(idle + spare.max(0.0) / count);
    // The free group's power when the concave groups hold `r` watts.
    let power_at = |r: f64| idle + (spare - r) / count;
    let (mut best_power, mut best_score) = (idle, f64::NEG_INFINITY);
    for piece in pieces {
        let lo = power_at(piece.end).max(idle);
        let hi = power_at(piece.start).min(top);
        if lo > hi {
            continue;
        }
        let score = |p: f64| {
            let d = spare - count * (p - idle) - piece.start;
            count * curve.eval(p) + piece.value + piece.lambda * d + 0.5 * piece.slope * d * d
        };
        let curvature = 2.0 * curve.n + piece.slope * count;
        let stationary = (curvature < 0.0)
            .then(|| {
                (piece.lambda + piece.slope * count * power_at(piece.start) - curve.m) / curvature
            })
            .filter(|p| (lo..=hi).contains(p));
        for p in [Some(hi), Some(lo), stationary].into_iter().flatten() {
            let s = score(p);
            if s > best_score {
                best_power = p;
                best_score = s;
            }
        }
    }
    best_power
}

/// Water-fills `remaining` watts over the concave groups in `active`,
/// starting from their idle assignment already present in `assignment`.
/// The piece of `V` that holds `remaining` gives the water level
/// λ = `V'(remaining)`: a group with `n < 0` takes the power where its
/// marginal is λ, clamped into `[idle, cap]`, and a linear group the part
/// of its jump that `remaining` reaches (its cap past the jump, idle
/// before it). Past every cap the flat tail gives λ = 0.
fn water_fill(
    groups: &[ServerGroup],
    active: &[usize],
    remaining: Watts,
    pieces: &[Piece],
    assignment: &mut [Watts],
) {
    let remaining = remaining.value();
    let Some(at) = pieces.iter().find(|p| remaining < p.end) else {
        return;
    };
    let lambda = at.lambda + at.slope * (remaining - at.start);
    for &i in active {
        let curve = groups[i].model.curve();
        if curve.n < 0.0 {
            // derivative m + 2np = λ  →  p = (λ − m) / (2n)
            let p = (lambda - curve.m) / (2.0 * curve.n);
            assignment[i] = Watts::new(p.clamp(
                groups[i].model.range().idle().value(),
                best_power_cap(&groups[i]).value(),
            ));
        }
    }
    for piece in pieces {
        let Some(i) = piece.jump else {
            continue;
        };
        if remaining >= piece.end {
            assignment[i] = best_power_cap(&groups[i]);
        } else if remaining > piece.start {
            let taken = (remaining - piece.start) / f64::from(groups[i].count);
            assignment[i] = Watts::new(groups[i].model.range().idle().value() + taken);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::{PerfModel, Quadratic};
    use crate::solver::solve_grid;
    use crate::types::{ConfigId, PowerRange};
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

    fn concave(m: f64, n: f64) -> Quadratic {
        assert!(n < 0.0);
        Quadratic { l: 0.0, m, n }
    }

    #[test]
    fn single_group_gets_everything_up_to_cap() {
        let g = group(0, 1, 50.0, 100.0, concave(10.0, -0.02));
        let p = AllocationProblem::new(vec![g], Watts::new(80.0)).unwrap();
        let alloc = solve_exact(&p).unwrap();
        assert!((alloc.per_server[0].value() - 80.0).abs() < 1e-6);
    }

    #[test]
    fn budget_below_idle_powers_nothing() {
        let g = group(0, 1, 50.0, 100.0, concave(10.0, -0.02));
        let p = AllocationProblem::new(vec![g], Watts::new(40.0)).unwrap();
        let alloc = solve_exact(&p).unwrap();
        assert_eq!(alloc.per_server[0], Watts::ZERO);
        assert_eq!(alloc.projected, Throughput::ZERO);
    }

    #[test]
    fn abundant_budget_caps_everyone_at_peak() {
        let a = group(0, 2, 50.0, 100.0, concave(10.0, -0.02));
        let b = group(1, 3, 40.0, 90.0, concave(8.0, -0.01));
        let p = AllocationProblem::new(vec![a, b], Watts::new(10_000.0)).unwrap();
        let alloc = solve_exact(&p).unwrap();
        assert!((alloc.per_server[0].value() - 100.0).abs() < 1e-9);
        assert!((alloc.per_server[1].value() - 90.0).abs() < 1e-9);
        // Surplus share is what remains for battery charging.
        assert!(alloc.surplus_share().value() > 0.9);
    }

    #[test]
    fn equal_groups_split_equally() {
        let q = concave(20.0, -0.05);
        let a = group(0, 1, 50.0, 150.0, q);
        let b = group(1, 1, 50.0, 150.0, q);
        let p = AllocationProblem::new(vec![a, b], Watts::new(200.0)).unwrap();
        let alloc = solve_exact(&p).unwrap();
        assert!(
            (alloc.per_server[0].value() - alloc.per_server[1].value()).abs() < 1e-6,
            "identical groups must get identical power: {:?}",
            alloc.per_server
        );
        assert!((alloc.per_server[0].value() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn water_filling_equalizes_marginals() {
        // Two concave groups with different slopes; at the optimum the
        // marginal throughput per watt must match (both interior).
        let a = group(0, 1, 20.0, 300.0, concave(30.0, -0.05));
        let b = group(1, 1, 20.0, 300.0, concave(20.0, -0.04));
        let p = AllocationProblem::new(vec![a, b], Watts::new(300.0)).unwrap();
        let alloc = solve_exact(&p).unwrap();
        let ma = p.groups()[0]
            .model
            .curve()
            .derivative(alloc.per_server[0].value());
        let mb = p.groups()[1]
            .model
            .curve()
            .derivative(alloc.per_server[1].value());
        assert!(
            (ma - mb).abs() < 1e-3,
            "marginals should equalize: {ma} vs {mb}"
        );
        // And the whole budget is used (both curves still rising).
        assert!((p.total_power(&alloc.per_server).value() - 300.0).abs() < 1e-3);
    }

    #[test]
    fn turning_a_server_off_can_be_optimal() {
        // Budget 130: powering both (idle 60 + 60) leaves only 10 W of
        // dynamic power. With a curve that delivers ~nothing at idle
        // (f(60) = 0), giving everything to one server wins.
        let q = Quadratic {
            l: -2640.0,
            m: 50.0,
            n: -0.1,
        };
        let a = group(0, 1, 60.0, 120.0, q);
        let b = group(1, 1, 60.0, 120.0, q);
        let p = AllocationProblem::new(vec![a, b], Watts::new(130.0)).unwrap();
        let alloc = solve_exact(&p).unwrap();
        let on_count = alloc.per_server.iter().filter(|w| w.value() > 0.0).count();
        assert_eq!(on_count, 1, "only one server should be powered");
        let winner: f64 = alloc.per_server.iter().map(|w| w.value()).sum();
        assert!((winner - 120.0).abs() < 1e-6);
    }

    #[test]
    fn never_allocates_past_the_vertex() {
        // Vertex at 80 W, inside [50, 120]: extra watts past 80 hurt the
        // projection, so they go unallocated (→ battery).
        let g = group(
            0,
            1,
            50.0,
            120.0,
            Quadratic {
                l: 0.0,
                m: 16.0,
                n: -0.1,
            },
        );
        let p = AllocationProblem::new(vec![g], Watts::new(500.0)).unwrap();
        let alloc = solve_exact(&p).unwrap();
        assert!((alloc.per_server[0].value() - 80.0).abs() < 1e-6);
    }

    #[test]
    fn linear_fit_groups_fill_by_slope_order() {
        let a = group(
            0,
            1,
            10.0,
            100.0,
            Quadratic {
                l: 0.0,
                m: 5.0,
                n: 0.0,
            },
        );
        let b = group(
            1,
            1,
            10.0,
            100.0,
            Quadratic {
                l: 0.0,
                m: 9.0,
                n: 0.0,
            },
        );
        let p = AllocationProblem::new(vec![a, b], Watts::new(130.0)).unwrap();
        let alloc = solve_exact(&p).unwrap();
        // Steeper group (b) saturates first; the rest goes to a.
        assert!((alloc.per_server[1].value() - 100.0).abs() < 1e-6);
        assert!((alloc.per_server[0].value() - 30.0).abs() < 1e-6);
    }

    #[test]
    fn convex_fit_does_not_crash_and_respects_budget() {
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
        let b = group(1, 1, 40.0, 120.0, concave(10.0, -0.02));
        let p = AllocationProblem::new(vec![a, b], Watts::new(180.0)).unwrap();
        let alloc = solve_exact(&p).unwrap();
        assert!(p.is_feasible(&alloc.per_server));
        assert!(alloc.projected.value() > 0.0);
    }

    #[test]
    fn multi_server_groups_share_per_type_power() {
        // 5 + 5 servers, as in the paper's runtime experiments.
        let a = group(0, 5, 88.0, 147.0, concave(40.0, -0.08));
        let b = group(1, 5, 47.0, 81.0, concave(55.0, -0.2));
        let p = AllocationProblem::new(vec![a, b], Watts::new(1000.0)).unwrap();
        let alloc = solve_exact(&p).unwrap();
        assert!(p.is_feasible(&alloc.per_server));
        // Both types powered at this budget.
        assert!(alloc.per_server[0].value() >= 88.0);
        assert!(alloc.per_server[1].value() >= 47.0);
    }

    #[test]
    fn too_many_groups_rejected() {
        let q = concave(10.0, -0.01);
        let groups: Vec<ServerGroup> = (0..(MAX_EXACT_GROUPS as u32 + 1))
            .map(|i| group(i, 1, 10.0, 50.0, q))
            .collect();
        let p = AllocationProblem::new(groups, Watts::new(100.0)).unwrap();
        assert!(matches!(
            solve_exact(&p),
            Err(CoreError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh_solves() {
        let mut scratch = SolverScratch::new();
        for budget in [130.0, 220.0, 1000.0, 130.0, 40.0] {
            let a = group(0, 2, 88.0, 147.0, concave(40.0, -0.08));
            let b = group(1, 3, 47.0, 81.0, concave(55.0, -0.2));
            let p = AllocationProblem::new(vec![a, b], Watts::new(budget)).unwrap();
            let fresh = solve_exact(&p).unwrap();
            let reused = solve_exact_with(&p, &mut scratch).unwrap();
            assert_eq!(fresh, reused, "budget {budget}");
        }
    }

    #[test]
    fn case_study_optimum_lands_near_sixty_five_percent() {
        // Calibrated to the paper's §III-B case study. Curves chosen so
        // each server's projection rises through its whole envelope.
        let xeon = group(
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
        let i5 = group(
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
        let p = AllocationProblem::new(vec![xeon, i5], Watts::new(220.0)).unwrap();
        let alloc = solve_exact(&p).unwrap();
        let par = alloc.shares[0].value();
        assert!(
            (0.55..=0.75).contains(&par),
            "PAR for the Xeon should be near 65%, got {par}"
        );
        // The optimum beats the uniform split.
        let uniform = p.objective(&[Watts::new(110.0), Watts::new(81.0)]);
        assert!(alloc.projected > uniform);
    }

    /// The engine without the free convex group: every convex fit pinned
    /// to idle or its cap, and the same fill. Problems with no convex fit
    /// must keep its bits.
    fn reference_solve_exact_with(
        problem: &AllocationProblem,
        scratch: &mut SolverScratch,
    ) -> Allocation {
        let groups = problem.groups();
        let budget = problem.budget();
        scratch.prepare_exact(groups.len());
        if budget >= problem.total_peak() {
            return abundant(problem, scratch);
        }
        let mut best_value = problem.objective(&scratch.exact_best);
        for (i, g) in groups.iter().enumerate() {
            if !g.model.curve().is_concave() {
                scratch.convex.push(i);
            }
        }
        for subset in 1u32..(1u32 << groups.len()) {
            scratch.on.clear();
            for i in 0..groups.len() {
                if subset & (1 << i) != 0 {
                    scratch.on.push(i);
                }
            }
            let base: Watts = scratch.on.iter().map(|&i| groups[i].group_idle()).sum();
            if base.value() > budget.value() + 1e-9 {
                continue;
            }
            scratch.convex_on.clear();
            for &i in &scratch.convex {
                if scratch.on.contains(&i) {
                    scratch.convex_on.push(i);
                }
            }
            for convex_mask in 0u32..(1u32 << scratch.convex_on.len()) {
                scratch.exact_assignment.fill(Watts::ZERO);
                let mut spent = Watts::ZERO;
                scratch.concave_on.clear();
                let mut feasible = true;
                for &i in &scratch.on {
                    if let Some(pos) = scratch.convex_on.iter().position(|&c| c == i) {
                        let p = if convex_mask & (1 << pos) != 0 {
                            best_power_cap(&groups[i])
                        } else {
                            groups[i].model.range().idle()
                        };
                        scratch.exact_assignment[i] = p;
                        spent += p * f64::from(groups[i].count);
                        if spent.value() > budget.value() + 1e-9 {
                            feasible = false;
                            break;
                        }
                    } else {
                        scratch.exact_assignment[i] = groups[i].model.range().idle();
                        spent += groups[i].group_idle();
                        scratch.concave_on.push(i);
                    }
                }
                if !feasible || spent.value() > budget.value() + 1e-9 {
                    continue;
                }
                let mut pieces = [Piece::default(); MAX_PIECES];
                let count = concave_value_pieces(groups, &scratch.concave_on, &mut pieces);
                water_fill(
                    groups,
                    &scratch.concave_on,
                    budget - spent,
                    &pieces[..count],
                    &mut scratch.exact_assignment,
                );
                let value = problem.objective(&scratch.exact_assignment);
                if value > best_value {
                    best_value = value;
                    scratch
                        .exact_best
                        .copy_from_slice(&scratch.exact_assignment);
                }
            }
        }
        Allocation::from_assignment(problem, scratch.exact_best.clone())
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

    /// `true` when the grid beats `exact` by more than rounding.
    fn grid_wins(problem: &AllocationProblem, exact: &Allocation) -> bool {
        let exact = exact.projected.value();
        solve_grid(problem).projected.value() > exact + 1e-9 * exact.abs().max(1.0)
    }

    /// A random envelope and count.
    fn envelope(rng: &mut StdRng) -> (f64, f64, u32) {
        let idle = 20.0 + 130.0 * rng.random::<f64>();
        let peak = idle + 5.0 + 120.0 * rng.random::<f64>();
        (idle, peak, 1 + rng.random::<u32>() % 6)
    }

    /// A random problem of `groups` groups with convex, concave and
    /// exactly linear (`n = 0`) fits mixed, every fit non-negative over
    /// its envelope, and a budget below the total peak.
    fn nonnegative_problem(rng: &mut StdRng, groups: usize) -> AllocationProblem {
        let list: Vec<ServerGroup> = (0..groups)
            .map(|i| {
                let (idle, peak, count) = envelope(rng);
                let (m, n) = match rng.random::<u32>() % 3 {
                    0 => (
                        10.0 * rng.random::<f64>() - 4.0,
                        0.001 + 0.05 * rng.random::<f64>(),
                    ),
                    1 => {
                        // The vertex below, inside or above the envelope.
                        let v = idle * rng.random::<f64>() + 1.2 * peak * rng.random::<f64>();
                        let n = -(0.005 + 0.2 * rng.random::<f64>());
                        (-2.0 * n * v, n)
                    }
                    _ => (30.0 * rng.random::<f64>() - 4.0, 0.0),
                };
                let raw = Quadratic { l: 0.0, m, n };
                let mut low = raw.eval(idle).min(raw.eval(peak));
                if let Some(v) = raw.vertex() {
                    if (idle..=peak).contains(&v) {
                        low = low.min(raw.eval(v));
                    }
                }
                // Lift the minimum over the envelope to a random floor.
                let l = 200.0 * rng.random::<f64>() * rng.random::<f64>() - low;
                group(i as u32, count, idle, peak, Quadratic { l, m, n })
            })
            .collect();
        let peak: f64 = list.iter().map(|g| g.group_peak().value()).sum();
        AllocationProblem::new(list, Watts::new(peak * rng.random::<f64>())).unwrap()
    }

    /// A random problem of `groups` groups with no convex fit: linear and
    /// concave fits with the vertex anywhere, some below zero over part of
    /// the envelope; budgets from zero to past the total peak.
    fn concave_problem(rng: &mut StdRng, groups: usize) -> AllocationProblem {
        let list: Vec<ServerGroup> = (0..groups)
            .map(|i| {
                let (idle, peak, count) = envelope(rng);
                let n = match rng.random::<u32>() % 4 {
                    0 => 0.0,
                    _ => -(0.005 + 0.2 * rng.random::<f64>()),
                };
                let v = 1.3 * peak * rng.random::<f64>();
                let m = if n == 0.0 {
                    2.0 + 30.0 * rng.random::<f64>()
                } else {
                    -2.0 * n * v
                };
                let l = 500.0 * rng.random::<f64>() - 1500.0 * rng.random::<f64>();
                group(i as u32, count, idle, peak, Quadratic { l, m, n })
            })
            .collect();
        let peak: f64 = list.iter().map(|g| g.group_peak().value()).sum();
        let budget = match rng.random::<u32>() % 10 {
            0 => peak * (1.0 + rng.random::<f64>()),
            _ => peak * rng.random::<f64>(),
        };
        AllocationProblem::new(list, Watts::new(budget)).unwrap()
    }

    /// `true` when the engine's answer at one watt past the total peak is
    /// worth less than `answer`, beyond rounding.
    fn more_budget_projects_less(problem: &AllocationProblem, answer: &Allocation) -> bool {
        let abundant = AllocationProblem::new(
            problem.groups().to_vec(),
            problem.total_peak() + Watts::new(1.0),
        )
        .unwrap();
        let top = solve_exact(&abundant).unwrap().projected.value();
        let answer = answer.projected.value();
        top < answer - 1e-9 * answer.abs().max(1.0)
    }

    /// Checks `cases` problems of each kind, 1–5 groups: every answer is
    /// feasible and worth no more than the answer at one watt past the
    /// total peak, the grid never beats the engine on non-negative
    /// quadratic and linear fits, and problems with no convex fit keep the
    /// reference's bits. Returns how many of the non-negative problems had
    /// a convex fit and how many an exactly linear one.
    fn sweep(seed: u64, cases: usize) -> (usize, usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut scratch = SolverScratch::new();
        let (mut with_convex, mut with_linear) = (0, 0);
        for _ in 0..cases {
            let groups = 1 + rng.random::<u32>() as usize % 5;
            let p = nonnegative_problem(&mut rng, groups);
            with_convex += usize::from(p.groups().iter().any(|g| !g.model.curve().is_concave()));
            with_linear += usize::from(p.groups().iter().any(|g| g.model.curve().n == 0.0));
            let exact = solve_exact_with(&p, &mut scratch).unwrap();
            assert!(p.is_feasible(&exact.per_server), "infeasible on {p:?}");
            assert!(!grid_wins(&p, &exact), "grid beat the engine on {p:?}");
            assert!(!more_budget_projects_less(&p, &exact), "on {p:?}");

            let groups = 1 + rng.random::<u32>() as usize % 5;
            let p = concave_problem(&mut rng, groups);
            let exact = solve_exact_with(&p, &mut scratch).unwrap();
            assert!(p.is_feasible(&exact.per_server), "infeasible on {p:?}");
            assert!(!more_budget_projects_less(&p, &exact), "on {p:?}");
            let reference = reference_solve_exact_with(&p, &mut SolverScratch::new());
            assert_eq!(bits(&exact), bits(&reference), "bits moved on {p:?}");
        }
        (with_convex, with_linear)
    }

    #[test]
    fn engine_is_exact_and_keeps_concave_bits_on_random_problems() {
        let (with_convex, with_linear) = sweep(0x6578_6163, 300);
        assert!(with_convex > 50 && with_linear > 50);
    }

    /// The release sweep CI runs:
    /// `cargo test --release -p greenhetero-core --lib solver::exact -- --ignored`.
    #[test]
    #[ignore = "20,000 cases of each kind, seconds in release"]
    fn engine_is_exact_and_keeps_concave_bits_on_many_random_problems() {
        let (with_convex, with_linear) = sweep(0x6578_6164, 20_000);
        assert!(with_convex > 5_000 && with_linear > 5_000);
    }

    /// The shapes of the tests below: group A is convex with marginal
    /// `1 + 0.02·p`, group B concave with marginal `12.6 − 0.1·q`.
    fn convex_a(id: u32) -> ServerGroup {
        group(
            id,
            1,
            40.0,
            120.0,
            Quadratic {
                l: 0.0,
                m: 1.0,
                n: 0.01,
            },
        )
    }

    fn concave_b(id: u32, peak: f64) -> ServerGroup {
        group(
            id,
            1,
            40.0,
            peak,
            Quadratic {
                l: 0.0,
                m: 12.6,
                n: -0.05,
            },
        )
    }

    fn assert_watts(alloc: &Allocation, expect: &[f64]) {
        for (got, want) in alloc.per_server.iter().zip(expect) {
            assert!(
                (got.value() - want).abs() < 1e-6,
                "got {:?}, want {expect:?}",
                alloc.per_server
            );
        }
    }

    #[test]
    fn interior_convex_optimum_beats_the_pinned_engine() {
        // At 180 W the marginals meet at A = 80 W, B = 100 W (2.6 each),
        // and the combined curve is concave there: 904 throughput. Pinned
        // to idle, A leaves B its cap and 20 W unspent (40, 120: 848);
        // pinned to its cap it starves B (120, 60: 840). The grid finds
        // the interior.
        let p = AllocationProblem::new(vec![convex_a(0), concave_b(1, 120.0)], Watts::new(180.0))
            .unwrap();
        let exact = solve_exact(&p).unwrap();
        assert_watts(&exact, &[80.0, 100.0]);
        assert!((exact.projected.value() - 904.0).abs() < 1e-6);
        let reference = reference_solve_exact_with(&p, &mut SolverScratch::new());
        assert!((reference.projected.value() - 848.0).abs() < 1e-6);
        assert!(grid_wins(&p, &reference));
        assert!(!grid_wins(&p, &exact));
    }

    #[test]
    fn free_group_takes_the_budgets_last_watt() {
        // A's marginal (5 + 0.02·p) beats B's (2 − 0.01·q) everywhere, but
        // B is worth 272 at idle: both stay on, and A takes every watt
        // left, stopping short of its cap at 100 W.
        let a = group(
            0,
            1,
            40.0,
            120.0,
            Quadratic {
                l: 0.0,
                m: 5.0,
                n: 0.01,
            },
        );
        let b = group(
            1,
            1,
            40.0,
            120.0,
            Quadratic {
                l: 200.0,
                m: 2.0,
                n: -0.005,
            },
        );
        let p = AllocationProblem::new(vec![a, b], Watts::new(140.0)).unwrap();
        let exact = solve_exact(&p).unwrap();
        assert_watts(&exact, &[100.0, 40.0]);
        assert!((p.total_power(&exact.per_server).value() - 140.0).abs() < 1e-9);
        assert!((exact.projected.value() - 872.0).abs() < 1e-6);
        // Pinned, A at idle leaves B the watts (216 + 350 = 566), so the
        // best the pinned engine finds is A alone at its cap: 744.
        let reference = reference_solve_exact_with(&p, &mut SolverScratch::new());
        assert!((reference.projected.value() - 744.0).abs() < 1e-6);
        assert!(!grid_wins(&p, &exact));
    }

    #[test]
    fn linear_group_is_a_jump_in_the_concave_value() {
        // A linear group L (m = 3, 80 W of span) is one jump piece: V
        // rises at slope 3 over [0, 80] W, then stays flat.
        let a = group(
            0,
            1,
            40.0,
            120.0,
            Quadratic {
                l: 40.0,
                m: -3.0,
                n: 0.05,
            },
        );
        let l = group(
            1,
            1,
            40.0,
            120.0,
            Quadratic {
                l: 100.0,
                m: 3.0,
                n: 0.0,
            },
        );
        let groups = [a, l];
        let mut pieces = [Piece::default(); MAX_PIECES];
        let count = concave_value_pieces(&groups, &[1], &mut pieces);
        assert_eq!(count, 2);
        let (jump, tail) = (pieces[0], pieces[1]);
        assert_eq!(
            (jump.start, jump.end, jump.lambda, jump.slope),
            (0.0, 80.0, 3.0, 0.0)
        );
        assert_eq!((tail.start, tail.value, tail.lambda), (80.0, 240.0, 0.0));
        assert!(tail.end.is_infinite());

        // With 70 W spare, A's convex curve is worth more over the whole
        // 70 W (315) than L's slope (210): A takes all of it and L stays
        // at idle, the jump piece's far end (315 + 220). Pinned, A at idle
        // left L the watts, and L alone at its cap was best (460).
        let p = AllocationProblem::new(groups.to_vec(), Watts::new(150.0)).unwrap();
        let exact = solve_exact(&p).unwrap();
        assert_watts(&exact, &[110.0, 40.0]);
        assert!((exact.projected.value() - 535.0).abs() < 1e-6);
        let reference = reference_solve_exact_with(&p, &mut SolverScratch::new());
        assert!((reference.projected.value() - 460.0).abs() < 1e-6);
        assert!(!grid_wins(&p, &exact));
    }

    #[test]
    fn linear_fit_at_the_margin_shares_the_water_level() {
        // C's marginal 13 − 0.1·p meets L's constant 5 at C = 80 W, so the
        // 110 W above the idle floors land on L's jump: C = 80, L = 110,
        // 720 + 550 = 1270. Filling C past the level and L with the rest
        // (130, 60) is worth 1145.
        let c = group(
            0,
            1,
            40.0,
            140.0,
            Quadratic {
                l: 0.0,
                m: 13.0,
                n: -0.05,
            },
        );
        let l = group(
            1,
            1,
            40.0,
            120.0,
            Quadratic {
                l: 0.0,
                m: 5.0,
                n: 0.0,
            },
        );
        let p = AllocationProblem::new(vec![c, l], Watts::new(190.0)).unwrap();
        let exact = solve_exact(&p).unwrap();
        assert_watts(&exact, &[80.0, 110.0]);
        assert!((exact.projected.value() - 1270.0).abs() < 1e-6);
        assert!(!grid_wins(&p, &exact));
    }

    #[test]
    fn more_budget_never_projects_less() {
        // A linear fit that falls with power is worth most at idle: 920 at
        // 40 W against 760 at its 120 W peak, whether the budget falls a
        // watt short of the peak or covers it many times over.
        let falling = group(
            0,
            1,
            40.0,
            120.0,
            Quadratic {
                l: 1000.0,
                m: -2.0,
                n: 0.0,
            },
        );
        for budget in [119.0, 1000.0] {
            let p = AllocationProblem::new(vec![falling.clone()], Watts::new(budget)).unwrap();
            let exact = solve_exact(&p).unwrap();
            assert_watts(&exact, &[40.0]);
            assert!(
                (exact.projected.value() - 920.0).abs() < 1e-9,
                "budget {budget}: {:?}",
                exact.projected
            );
            let reference = reference_solve_exact_with(&p, &mut SolverScratch::new());
            assert_eq!(bits(&exact), bits(&reference), "budget {budget}");
        }
    }

    #[test]
    fn vertex_capped_concave_group_stops_at_its_vertex() {
        // B's vertex (100 W) lies inside its envelope, so V goes flat at
        // 60 W. A's convex curve bottoms out at 80 W; its marginal at idle
        // is negative, so the 40 W B cannot use are left to the battery.
        let a = group(
            0,
            1,
            40.0,
            120.0,
            Quadratic {
                l: 400.0,
                m: -4.0,
                n: 0.025,
            },
        );
        let b = group(
            1,
            1,
            40.0,
            140.0,
            Quadratic {
                l: 0.0,
                m: 10.0,
                n: -0.05,
            },
        );
        let groups = [a, b];
        let mut pieces = [Piece::default(); MAX_PIECES];
        let count = concave_value_pieces(&groups, &[1], &mut pieces);
        assert_eq!(count, 2);
        assert!((pieces[0].end - 60.0).abs() < 1e-9);
        assert!((pieces[0].lambda - 6.0).abs() < 1e-12);
        assert!((pieces[0].slope + 0.1).abs() < 1e-12);
        let p = AllocationProblem::new(groups.to_vec(), Watts::new(180.0)).unwrap();
        let exact = solve_exact(&p).unwrap();
        assert_watts(&exact, &[40.0, 100.0]);
        assert!(exact.surplus_share().value() > 0.2);
        assert!(!grid_wins(&p, &exact));
    }

    #[test]
    fn two_convex_groups_only_one_free() {
        // C (20 W wide, marginal ≥ 20) is worth its cap whatever happens;
        // with C pinned there, A and B split the other 180 W as in the
        // interior test.
        let c = group(
            2,
            1,
            40.0,
            60.0,
            Quadratic {
                l: 0.0,
                m: 20.0,
                n: 0.05,
            },
        );
        let p =
            AllocationProblem::new(vec![convex_a(0), concave_b(1, 120.0), c], Watts::new(240.0))
                .unwrap();
        let exact = solve_exact(&p).unwrap();
        assert_watts(&exact, &[80.0, 100.0, 60.0]);
        assert!(!grid_wins(&p, &exact));

        // Two copies of A: at most one ends strictly inside its envelope.
        for budget in [200.0, 260.0, 300.0] {
            let p = AllocationProblem::new(
                vec![convex_a(0), convex_a(1), concave_b(2, 120.0)],
                Watts::new(budget),
            )
            .unwrap();
            let exact = solve_exact(&p).unwrap();
            let interior = exact.per_server[..2]
                .iter()
                .filter(|w| w.value() > 40.0 + 1e-6 && w.value() < 120.0 - 1e-6)
                .count();
            assert!(interior <= 1, "budget {budget}: {:?}", exact.per_server);
            assert!(!grid_wins(&p, &exact), "budget {budget}");
        }
    }
}
