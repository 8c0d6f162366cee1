//! Property-based tests of the core algorithms' invariants.

// Strategy helpers sit outside `#[test]` fns, where the
// allow-*-in-tests clippy knobs do not reach; panicking is fine here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use greenhetero_core::database::{
    fit_quadratic, FitResult, PerfDatabase, PerfModel, ProfileSample, Quadratic,
};
use greenhetero_core::enforcer::{PowerState, PowerStateSet, Spc};
use greenhetero_core::error::CoreError;
use greenhetero_core::metrics::{productive_power, EpuAccumulator};
use greenhetero_core::predictor::{
    sum_squared_error, train_holt, train_holt_from, HoltParams, HoltPredictor, Predictor,
    TrainOutcome,
};
use greenhetero_core::solver::{
    audit_allocation, solve, solve_exact, solve_grid, solve_with_engine, Allocation,
    AllocationProblem, ServerGroup, SharedSolveCache, SolverFastPath,
    DEFAULT_SHARED_SOLVE_CAPACITY,
};
use greenhetero_core::sources::{
    audit_plan, select_sources, BatteryView, ChargeSource, SourceInputs,
};
use greenhetero_core::types::{
    ConfigId, PowerRange, Ratio, SimTime, Throughput, Watts, WorkloadId,
};
use proptest::prelude::*;

/// Strategy: an arbitrary concave performance model (possibly
/// non-monotone over its envelope — adversarial for the engines).
fn arb_group(id: u32) -> impl Strategy<Value = ServerGroup> {
    (
        20.0..150.0f64,  // idle
        10.0..300.0f64,  // dynamic span
        5.0..80.0f64,    // slope m
        -0.2..-0.001f64, // curvature n (concave)
        1u32..6,         // count
    )
        .prop_map(move |(idle, span, m, n, count)| {
            let range = PowerRange::new(Watts::new(idle), Watts::new(idle + span)).unwrap();
            // Anchor l so the curve is ~0 at idle (realistic fits).
            let l = -(m * idle + n * idle * idle);
            ServerGroup::new(
                ConfigId::new(id),
                count,
                PerfModel::new(Quadratic { l, m, n }, range),
            )
            .unwrap()
        })
}

/// Strategy: a *monotone-increasing* concave model — what the database
/// actually produces, since training samples come from monotone ground
/// truth (the quadratic's vertex lies at or beyond peak power).
fn arb_monotone_group(id: u32) -> impl Strategy<Value = ServerGroup> {
    (
        20.0..150.0f64, // idle
        10.0..300.0f64, // dynamic span
        5.0..80.0f64,   // slope m
        0.05..0.95f64,  // vertex position factor (≥ 1/peak keeps it past peak)
        1u32..6,        // count
    )
        .prop_map(move |(idle, span, m, frac, count)| {
            let peak = idle + span;
            // n chosen so the vertex -m/(2n) sits beyond the peak:
            // |n| < m / (2·peak). `frac` scales how far inside that bound.
            let n = -(m / (2.0 * peak)) * frac;
            let l = -(m * idle + n * idle * idle);
            let range = PowerRange::new(Watts::new(idle), Watts::new(peak)).unwrap();
            ServerGroup::new(
                ConfigId::new(id),
                count,
                PerfModel::new(Quadratic { l, m, n }, range),
            )
            .unwrap()
        })
}

fn arb_monotone_problem() -> impl Strategy<Value = AllocationProblem> {
    (
        proptest::collection::vec(any::<u32>(), 1..4),
        0.0..3000.0f64,
    )
        .prop_flat_map(|(ids, budget)| {
            let groups: Vec<_> = ids
                .iter()
                .enumerate()
                .map(|(i, _)| arb_monotone_group(i as u32))
                .collect();
            (groups, Just(budget))
        })
        .prop_map(|(groups, budget)| AllocationProblem::new(groups, Watts::new(budget)).unwrap())
}

fn arb_problem() -> impl Strategy<Value = AllocationProblem> {
    (
        proptest::collection::vec(any::<u32>(), 1..4),
        0.0..3000.0f64,
    )
        .prop_flat_map(|(ids, budget)| {
            let groups: Vec<_> = ids
                .iter()
                .enumerate()
                .map(|(i, _)| arb_group(i as u32))
                .collect();
            (groups, Just(budget))
        })
        .prop_map(|(groups, budget)| AllocationProblem::new(groups, Watts::new(budget)).unwrap())
}

/// Strategy: a convex fit, a concave one with the vertex below, inside
/// or above the envelope, or an exactly linear one (`n = 0`), lifted so
/// its minimum over the envelope is a random non-negative floor.
fn arb_quadratic_group(id: u32) -> impl Strategy<Value = ServerGroup> {
    (
        20.0..150.0f64, // idle
        5.0..125.0f64,  // dynamic span
        0u8..3,         // shape: convex, concave or linear
        0.0..1.0f64,    // slope (convex, linear) or vertex position (concave)
        0.001..0.2f64,  // |n|
        0.0..200.0f64,  // floor over the envelope
        1u32..6,        // count
    )
        .prop_map(move |(idle, span, shape, t, curvature, floor, count)| {
            let peak = idle + span;
            let (m, n) = match shape {
                0 => (10.0 * t - 4.0, 0.25 * curvature),
                1 => (2.0 * curvature * 1.3 * peak * t, -curvature),
                _ => (30.0 * t - 4.0, 0.0),
            };
            let raw = Quadratic { l: 0.0, m, n };
            let mut low = raw.eval(idle).min(raw.eval(peak));
            if let Some(v) = raw.vertex().filter(|v| (idle..=peak).contains(v)) {
                low = low.min(raw.eval(v));
            }
            let range = PowerRange::new(Watts::new(idle), Watts::new(peak)).unwrap();
            ServerGroup::new(
                ConfigId::new(id),
                count,
                PerfModel::new(
                    Quadratic {
                        l: floor - low,
                        m,
                        n,
                    },
                    range,
                ),
            )
            .unwrap()
        })
}

/// Strategy: 1–5 groups with non-negative quadratic or linear fits and a
/// budget below their total peak.
fn arb_quadratic_problem() -> impl Strategy<Value = AllocationProblem> {
    (1usize..=5, 0.0..1.0f64)
        .prop_flat_map(|(len, share)| {
            let groups: Vec<_> = (0..len).map(|i| arb_quadratic_group(i as u32)).collect();
            (groups, Just(share))
        })
        .prop_map(|(groups, share)| {
            let peak: f64 = groups.iter().map(|g| g.group_peak().value()).sum();
            AllocationProblem::new(groups, Watts::new(peak * share)).unwrap()
        })
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

proptest! {
    /// The exact solver never exceeds the budget and never loses to the
    /// all-off assignment.
    #[test]
    fn solver_exact_feasible_and_nonnegative(p in arb_problem()) {
        let alloc = solve_exact(&p).unwrap();
        prop_assert!(p.is_feasible(&alloc.per_server));
        prop_assert!(alloc.projected.value() >= -1e-9);
        // Shares are ratios and sum to at most 1 (plus rounding).
        let total: f64 = alloc.shares.iter().map(|s| s.value()).sum();
        prop_assert!(total <= 1.0 + 1e-6);
    }

    /// On the monotone concave fits the database actually produces, the
    /// two engines agree closely and the KKT engine is never beaten.
    #[test]
    fn solver_engines_agree_on_monotone_fits(p in arb_monotone_problem()) {
        let exact = solve_exact(&p).unwrap();
        let grid = solve_grid(&p);
        let best = exact.projected.value().max(grid.projected.value());
        if best > 1.0 {
            let gap = (exact.projected.value() - grid.projected.value()).abs();
            prop_assert!(
                gap <= 0.08 * best + 20.0,
                "gap {gap} on best {best} (exact {:?} grid {:?})",
                exact.per_server, grid.per_server
            );
            // Exactness claim: the KKT engine is optimal for monotone
            // concave fits, so the lattice must never materially beat it.
            prop_assert!(
                grid.projected.value() <= exact.projected.value() + 0.001 * best + 1e-9,
                "grid {:?} beat exact {:?}",
                grid.projected, exact.projected
            );
        }
    }

    /// The exact engine is exact for quadratic and linear fits that are
    /// non-negative on their envelope: convex, concave and linear mixed,
    /// budgets below the total peak, every answer feasible, and the grid
    /// never beats it beyond rounding.
    #[test]
    fn exact_engine_never_loses_to_the_grid(p in arb_quadratic_problem()) {
        let exact = solve_exact(&p).unwrap();
        prop_assert!(p.is_feasible(&exact.per_server));
        let exact = exact.projected.value();
        let grid = solve_grid(&p).projected.value();
        prop_assert!(
            grid <= exact + 1e-9 * exact.abs().max(1.0),
            "grid {grid} beat exact {exact}"
        );
    }

    /// On arbitrary (possibly non-monotone) concave curves, where fits dip
    /// below zero and `eval` clips them, both engines stay feasible and
    /// `solve` is the exact engine's answer. Exactness is only claimed on
    /// non-negative fits (above), so no agreement with the grid is
    /// asserted here.
    #[test]
    fn solver_engines_feasible_on_adversarial_curves(p in arb_problem()) {
        let exact = solve_exact(&p).unwrap();
        let grid = solve_grid(&p);
        prop_assert!(p.is_feasible(&exact.per_server));
        prop_assert!(p.is_feasible(&grid.per_server));
        prop_assert_eq!(bits(&solve(&p).unwrap()), bits(&exact));
    }

    /// The combined solver dominates uniform allocation on projections.
    #[test]
    fn solver_beats_uniform_projection(p in arb_problem()) {
        let alloc = solve(&p).unwrap();
        let servers: u32 = p.groups().iter().map(|g| g.count).sum();
        let uniform = vec![p.budget() / f64::from(servers); p.groups().len()];
        prop_assert!(alloc.projected.value() >= p.objective(&uniform).value() - 1e-6);
    }

    /// Solver monotonicity: more budget never projects less throughput.
    #[test]
    fn solver_monotone_in_budget(p in arb_problem(), extra in 1.0..500.0f64) {
        let base = solve(&p).unwrap();
        let bigger = AllocationProblem::new(
            p.groups().to_vec(),
            p.budget() + Watts::new(extra),
        ).unwrap();
        let more = solve(&bigger).unwrap();
        prop_assert!(
            more.projected.value() >= base.projected.value() - 1e-6,
            "budget {} → {}, throughput {} → {}",
            p.budget(), bigger.budget(), base.projected.value(), more.projected.value()
        );
    }

    /// Quadratic fitting reproduces the generating curve on clean samples.
    #[test]
    fn fit_recovers_generating_quadratic(
        l in -2000.0..2000.0f64,
        m in -50.0..50.0f64,
        n in -0.2..0.2f64,
        x0 in 10.0..200.0f64,
        dx in 5.0..50.0f64,
    ) {
        let truth = Quadratic { l, m, n };
        let pts: Vec<(f64, f64)> =
            (0..6).map(|i| {
                let x = x0 + dx * f64::from(i);
                (x, truth.eval(x))
            }).collect();
        let fit = fit_quadratic(&pts).unwrap();
        // Evaluate agreement on the sampled interval.
        for i in 0..=10 {
            let x = x0 + dx * 5.0 * f64::from(i) / 10.0;
            let err = (fit.curve.eval(x) - truth.eval(x)).abs();
            let scale = truth.eval(x).abs().max(1.0);
            prop_assert!(err <= 1e-5 * scale, "at {x}: err {err}");
        }
    }

    /// EPU is always within [0, 1] no matter the recorded sequence.
    #[test]
    fn epu_stays_in_unit_interval(
        records in proptest::collection::vec((0.0..500.0f64, 0.0..500.0f64), 0..50)
    ) {
        let mut acc = EpuAccumulator::new();
        for (a, b) in records {
            let supplied = a.max(b);
            let productive = a.min(b);
            acc.record(Watts::new(productive), Watts::new(supplied));
        }
        let epu = acc.epu().value();
        prop_assert!((0.0..=1.0).contains(&epu));
    }

    /// Productive power is idempotent under clamping and bounded by both
    /// the allocation and the peak.
    #[test]
    fn productive_power_bounds(
        alloc in 0.0..500.0f64,
        idle in 1.0..200.0f64,
        span in 1.0..200.0f64,
    ) {
        let range = PowerRange::new(Watts::new(idle), Watts::new(idle + span)).unwrap();
        let p = productive_power(Watts::new(alloc), range);
        prop_assert!(p.value() <= alloc + 1e-9);
        prop_assert!(p.value() <= idle + span + 1e-9);
        prop_assert!(p.value() == 0.0 || p.value() >= idle - 1e-9);
    }

    /// Holt predictions are finite for any finite observation sequence and
    /// parameters.
    #[test]
    fn holt_is_numerically_stable(
        alpha in 0.0..=1.0f64,
        beta in 0.0..=1.0f64,
        series in proptest::collection::vec(-1e6..1e6f64, 1..200)
    ) {
        let mut p = HoltPredictor::new(alpha, beta).unwrap();
        for v in &series {
            p.observe(*v);
            prop_assert!(p.predict().unwrap().is_finite());
        }
    }

    /// Source selection conserves power and respects every budget.
    #[test]
    fn source_selection_invariants(
        renewable in 0.0..3000.0f64,
        demand in 0.0..3000.0f64,
        max_discharge in 0.0..3000.0f64,
        max_charge in 0.0..3000.0f64,
        needs in any::<bool>(),
        grid in 0.0..2000.0f64,
    ) {
        let plan = select_sources(&SourceInputs {
            predicted_renewable: Watts::new(renewable),
            predicted_demand: Watts::new(demand),
            battery: BatteryView {
                max_discharge: Watts::new(max_discharge),
                max_charge: Watts::new(max_charge),
                needs_recharge: needs,
            },
            grid_budget: Watts::new(grid),
            renewable_negligible: Watts::new(5.0),
        });
        // Battery constraints respected.
        prop_assert!(plan.battery_to_load.value() <= max_discharge + 1e-9);
        if let Some((_, w)) = plan.charge {
            prop_assert!(w.value() <= max_charge + 1e-9);
        }
        // No charge while discharging.
        if plan.battery_to_load > Watts::ZERO {
            prop_assert!(plan.charge.is_none());
        }
        // Grid stays within budget, including charging.
        prop_assert!(plan.grid_draw().value() <= grid + 1e-9);
        // Renewable routed to load never exceeds what is predicted.
        prop_assert!(plan.renewable_to_load.value() <= renewable + 1e-9);
        // The load budget never exceeds the demand by more than the
        // renewable surplus (Case A keeps the full feed on the bus).
        if plan.battery_to_load > Watts::ZERO || plan.grid_to_load > Watts::ZERO {
            prop_assert!(plan.budget().value() <= demand.max(0.0) + 1e-6);
        }
        // Renewable charging only draws from the surplus above demand
        // (in Case A the full feed is switched onto the bus, so
        // renewable_to_load itself equals the whole supply).
        if let Some((ChargeSource::Renewable, w)) = plan.charge {
            let surplus = (renewable - demand.max(0.0)).max(0.0);
            prop_assert!(w.value() <= surplus + 1e-6);
        }
    }

    /// The SPC never selects a state that draws more than the allocation.
    #[test]
    fn spc_respects_caps(
        base in 5.0..100.0f64,
        steps in 2usize..12,
        stride in 1.0..40.0f64,
        alloc in 0.0..600.0f64,
    ) {
        let states: Vec<PowerState> = (0..steps)
            .map(|i| PowerState {
                label: format!("s{i}"),
                power: Watts::new(base + stride * i as f64),
            })
            .collect();
        let set = PowerStateSet::new(states).unwrap();
        let cmd = Spc::new().command(Watts::new(alloc), &set);
        let chosen = set.states()[cmd.state_index].power;
        // Either it fits under the cap, or nothing fits and we are in the
        // lowest state.
        prop_assert!(
            chosen.value() <= alloc + 1e-9 || cmd.state_index == 0
        );
    }

    /// Every fast-path answer is `solve_with_engine`'s, bit for bit, on
    /// drifting budget sequences that also stand still: reuse and the
    /// shared cache only ever return what a solve would. A second fast
    /// path walks the sequence after the first, on the same shared cache.
    #[test]
    fn fast_path_answers_equal_solve_with_engine(
        p in arb_quadratic_problem(),
        steps in proptest::collection::vec((any::<bool>(), 0.98..1.02f64), 2..10),
    ) {
        let mut budgets = Vec::with_capacity(steps.len());
        let mut budget = p.budget().value();
        for (still, factor) in steps {
            if !still {
                budget *= factor;
            }
            budgets.push(budget);
        }
        let shared = Arc::new(SharedSolveCache::new(DEFAULT_SHARED_SOLVE_CAPACITY));
        let (mut hits_before_walk, mut reused) = (0, 0);
        for _walk in 0..2 {
            hits_before_walk = shared.stats().hits;
            let mut fast = SolverFastPath::default();
            fast.set_shared_cache(Some(Arc::clone(&shared)));
            for &budget in &budgets {
                let q = AllocationProblem::new(p.groups().to_vec(), Watts::new(budget)).unwrap();
                let (answer, engine) = fast.solve(&q).unwrap();
                let (expect, expect_engine) = solve_with_engine(&q).unwrap();
                prop_assert_eq!(bits(&answer), bits(&expect), "budget {}", budget);
                prop_assert_eq!(engine, expect_engine);
            }
            reused = fast.stats().warm_starts;
        }
        // The second walk revisits every budget: reuse or the shared
        // cache answers it.
        let second_hits = shared.stats().hits - hits_before_walk;
        prop_assert_eq!(second_hits + reused, budgets.len() as u64);
    }

    /// Ratio::saturating is the identity on [0, 1] and clamps elsewhere.
    #[test]
    fn ratio_saturating_clamps(v in -10.0..10.0f64) {
        let r = Ratio::saturating(v).value();
        prop_assert!((0.0..=1.0).contains(&r));
        if (0.0..=1.0).contains(&v) {
            prop_assert!((r - v).abs() < 1e-12);
        }
    }
}

// The runtime invariant-audit layer (`audit_allocation`, `audit_plan`) is
// built from `debug_assert!`s and runs inline in the hot paths of debug
// builds. These cases drive it across randomized inputs: the property is
// simply that no audit ever fires (panics), on top of the explicit bound
// checks re-stated here so release-mode test runs still verify something.
proptest! {
    /// No engine's answer ever trips the allocation audit: feasible,
    /// non-negative, and PAR shares + surplus accounting for the whole
    /// budget, across adversarial (non-monotone) fits and tight budgets.
    #[test]
    fn allocation_audit_never_fires(p in arb_problem()) {
        audit_allocation(&p, &solve_grid(&p));
        if let Ok(exact) = solve_exact(&p) {
            audit_allocation(&p, &exact);
        }
        let best = solve(&p).unwrap();
        audit_allocation(&p, &best);
        let used: f64 = best.shares.iter().map(|s| s.value()).sum();
        prop_assert!((used + best.surplus_share().value() - 1.0).abs() <= 1e-6);
    }

    /// The audit also holds on the well-behaved monotone fits the
    /// database actually produces (a distinct sampling regime: here the
    /// exact engine usually wins and budgets are often generous).
    #[test]
    fn allocation_audit_never_fires_on_monotone_fits(p in arb_monotone_problem()) {
        let best = solve(&p).unwrap();
        audit_allocation(&p, &best);
        prop_assert!(p.is_feasible(&best.per_server));
    }

    /// The source-plan audit never fires across randomized inputs,
    /// including adversarial negative predictions (a predictor can
    /// undershoot below zero before clamping).
    #[test]
    fn source_plan_audit_never_fires(
        renewable in -200.0..3000.0f64,
        demand in -200.0..3000.0f64,
        max_discharge in 0.0..3000.0f64,
        max_charge in 0.0..3000.0f64,
        needs in any::<bool>(),
        grid in 0.0..2000.0f64,
        negligible in 0.0..50.0f64,
    ) {
        let inputs = SourceInputs {
            predicted_renewable: Watts::new(renewable),
            predicted_demand: Watts::new(demand),
            battery: BatteryView {
                max_discharge: Watts::new(max_discharge),
                max_charge: Watts::new(max_charge),
                needs_recharge: needs,
            },
            grid_budget: Watts::new(grid),
            renewable_negligible: Watts::new(negligible),
        };
        let plan = select_sources(&inputs);
        audit_plan(&inputs, &plan);
        prop_assert!(plan.budget().value() >= 0.0);
    }
}

/// Escapes `s` the way a maximally-escaping JSON writer would: every
/// non-ASCII character (and every control/quote/backslash) becomes
/// `\uXXXX` UTF-16 code units — supplementary code points become
/// surrogate pairs. Exercises the decoder far beyond what our own
/// emitters produce.
fn escape_utf16(s: &str) -> String {
    let mut out = String::new();
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_ascii() && !c.is_ascii_control() => out.push(c),
            c => {
                let mut units = [0u16; 2];
                for unit in c.encode_utf16(&mut units) {
                    out.push_str(&format!("\\u{unit:04X}"));
                }
            }
        }
    }
    out
}

proptest! {
    /// JSONL string escapes round-trip: any Unicode string survives a
    /// strict UTF-16-escaping writer followed by `EventLine::parse`,
    /// including characters outside the BMP (surrogate pairs on the
    /// wire).
    #[test]
    fn jsonl_string_escapes_round_trip(
        points in proptest::collection::vec(any::<u32>(), 0..64)
    ) {
        use greenhetero_core::telemetry::EventLine;
        // Fold arbitrary u32s onto scalar values; the unassignable
        // surrogate gap maps to a supplementary-plane char so pairs
        // are exercised often.
        let s: String = points
            .into_iter()
            .map(|p| char::from_u32(p % 0x11_0000).unwrap_or('\u{1F600}'))
            .collect();
        let line = format!("{{\"s\":\"{}\"}}", escape_utf16(&s));
        let parsed = EventLine::parse(&line);
        prop_assert_eq!(
            parsed.as_ref().and_then(|e| e.text("s")),
            Some(s.as_str()),
            "line: {}",
            line
        );
    }
}

// ---------------------------------------------------------------------------
// The end-epoch kernels against their scalar and copy-and-sort references.
// ---------------------------------------------------------------------------

/// Scalar reference for one grid search of `train_holt`: every grid point
/// scored in turn with `sum_squared_error`, α-major with `+= step`
/// accumulation and clamping, the same regularizer, ties to the first
/// point (strict `<`).
fn reference_grid(
    history: &[f64],
    (alpha_lo, alpha_hi): (f64, f64),
    (beta_lo, beta_hi): (f64, f64),
    step: f64,
) -> TrainOutcome {
    let scale = history.iter().map(|v| v * v).sum::<f64>().max(1.0);
    let mut best = TrainOutcome {
        params: HoltParams {
            alpha: alpha_lo,
            beta: beta_lo,
        },
        sse: f64::INFINITY,
    };
    let mut best_score = f64::INFINITY;
    let mut alpha = alpha_lo;
    while alpha <= alpha_hi + 1e-12 {
        let mut beta = beta_lo;
        while beta <= beta_hi + 1e-12 {
            let (a, b) = (alpha.clamp(0.0, 1.0), beta.clamp(0.0, 1.0));
            let sse = sum_squared_error(HoltPredictor::new(a, b).unwrap(), history);
            let (da, db) = (a - HoltParams::DEFAULT.alpha, b - HoltParams::DEFAULT.beta);
            let score = sse + 1e-9 * scale * (da * da + db * db);
            if score < best_score {
                best_score = score;
                best = TrainOutcome {
                    params: HoltParams { alpha: a, beta: b },
                    sse,
                };
            }
            beta += step;
        }
        alpha += step;
    }
    best
}

/// Scalar reference for `train_holt`: the coarse grid, then the fine
/// window around its winner, clipped to `[0, 1]`.
fn reference_train(history: &[f64], step: f64) -> Result<TrainOutcome, CoreError> {
    if history.len() < 3 {
        return Err(CoreError::NoObservations);
    }
    let coarse = reference_grid(history, (0.0, 1.0), (0.0, 1.0), step);
    let window = |centre: f64| ((centre - step).max(0.0), (centre + step).min(1.0));
    let fine = reference_grid(
        history,
        window(coarse.params.alpha),
        window(coarse.params.beta),
        step / 10.0,
    );
    Ok(if fine.sse < coarse.sse { fine } else { coarse })
}

/// A training outcome as raw bits, so the comparison is bit for bit.
fn train_bits(outcome: Result<TrainOutcome, CoreError>) -> Result<[u64; 3], CoreError> {
    outcome.map(|o| {
        [
            o.params.alpha.to_bits(),
            o.params.beta.to_bits(),
            o.sse.to_bits(),
        ]
    })
}

/// Strategy: a predictor-lane history of length 0–200 in one of the
/// shapes the controller sees: a noisy level, a random walk, a diurnal
/// curve, an all-zero night, a constant (the demand lane at saturated
/// load), a sunrise, an alternating series, and night-shaped solar: an
/// exact `+0.0` night of 0–3 or 24–63 readings before a diurnal curve
/// with zero runs of its own, once more opened by a `−0.0`.
fn arb_history() -> impl Strategy<Value = Vec<f64>> {
    (
        0usize..9,
        0usize..201,
        proptest::collection::vec(-1.0..1.0f64, 200),
        0.0..2000.0f64,
        (any::<bool>(), 0usize..4, 24usize..64),
    )
        .prop_map(|(shape, len, noise, level, (short, dawn, dusk))| {
            let night = if short { dawn } else { dusk };
            let mut walk = level;
            let mut history: Vec<f64> = (0..len)
                .map(|i| {
                    let t = i as f64;
                    walk += 40.0 * noise[i];
                    match shape {
                        0 => level + 50.0 * noise[i],
                        1 => walk,
                        2 => {
                            (level * (t / 96.0 * std::f64::consts::TAU).sin()).max(0.0)
                                + 5.0 * noise[i]
                        }
                        3 => 0.0,
                        4 => level,
                        5 => (t - 30.0).max(0.0) * level / 50.0,
                        6 => level + if i % 2 == 0 { 15.0 } else { -15.0 },
                        _ if i < night => 0.0,
                        _ => {
                            let day = (t - night as f64) / 96.0 * std::f64::consts::TAU;
                            (level * day.sin()).max(0.0)
                        }
                    }
                })
                .collect();
            if let (8, Some(first)) = (shape, history.first_mut()) {
                *first = -0.0;
            }
            history
        })
}

/// Strategy: a training hint from `[−1, 2]²`, an exact point of the
/// default 0.05 grid (accumulated as the search accumulates it), or
/// non-finite coordinates.
fn arb_hint() -> impl Strategy<Value = HoltParams> {
    let on_grid = |k: u32| (0..k).fold(0.0, |v, _| v + 0.05);
    let non_finite = || proptest::sample::select(vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
    (
        0u32..3,
        (-1.0..2.0f64, -1.0..2.0f64),
        (0u32..21, 0u32..21),
        (non_finite(), non_finite()),
    )
        .prop_map(move |(kind, square, (i, j), odd)| {
            let (alpha, beta) = match kind {
                0 => square,
                1 => (on_grid(i), on_grid(j)),
                _ => odd,
            };
            HoltParams { alpha, beta }
        })
}

/// The copy-and-sort reference for `fit_quadratic`: distinct powers
/// counted on a sorted, `1e-9`-deduplicated copy, the normal equations
/// summed over a standardized copy.
fn reference_fit(points: &[(f64, f64)]) -> Result<FitResult, CoreError> {
    if points.len() < 2 {
        return Err(CoreError::InsufficientSamples {
            got: points.len(),
            need: 2,
        });
    }
    let mut xs: Vec<f64> = points.iter().map(|p| p.0).collect();
    xs.sort_by(f64::total_cmp);
    xs.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
    let n = points.len() as f64;
    let mu = points.iter().map(|p| p.0).sum::<f64>() / n;
    let var = points.iter().map(|p| (p.0 - mu).powi(2)).sum::<f64>() / n;
    let s = var.sqrt().max(1e-12);
    let std_pts: Vec<(f64, f64)> = points.iter().map(|&(x, y)| ((x - mu) / s, y)).collect();
    let destandardize = |a: f64, b: f64, c: f64| Quadratic {
        l: a - b * mu / s + c * mu * mu / (s * s),
        m: b / s - 2.0 * c * mu / (s * s),
        n: c / (s * s),
    };
    let curve = match xs.len() {
        1 => Quadratic {
            l: points.iter().map(|p| p.1).sum::<f64>() / n,
            m: 0.0,
            n: 0.0,
        },
        2 => {
            let sx: f64 = std_pts.iter().map(|p| p.0).sum();
            let sxx: f64 = std_pts.iter().map(|p| p.0 * p.0).sum();
            let sy: f64 = std_pts.iter().map(|p| p.1).sum();
            let sxy: f64 = std_pts.iter().map(|p| p.0 * p.1).sum();
            let det = n * sxx - sx * sx;
            if det.abs() < 1e-12 {
                return Err(CoreError::DegenerateFit);
            }
            destandardize((sy * sxx - sx * sxy) / det, (n * sxy - sx * sy) / det, 0.0)
        }
        _ => {
            let mut m = [[0.0f64; 3]; 3];
            let mut v = [0.0f64; 3];
            for &(q, y) in &std_pts {
                let basis = [1.0, q, q * q];
                for i in 0..3 {
                    for j in 0..3 {
                        m[i][j] += basis[i] * basis[j];
                    }
                    v[i] += basis[i] * y;
                }
            }
            let c = reference_solve_3x3(m, v).ok_or(CoreError::DegenerateFit)?;
            destandardize(c[0], c[1], c[2])
        }
    };
    let sse: f64 = points
        .iter()
        .map(|&(x, y)| {
            let r = curve.eval(x) - y;
            r * r
        })
        .sum();
    Ok(FitResult {
        curve,
        rmse: (sse / n).sqrt(),
        samples: points.len(),
    })
}

/// Gaussian elimination with partial pivoting, as the fit solves it.
fn reference_solve_3x3(mut m: [[f64; 3]; 3], mut v: [f64; 3]) -> Option<[f64; 3]> {
    for col in 0..3 {
        let pivot = (col..3)
            .max_by(|&a, &b| m[a][col].abs().total_cmp(&m[b][col].abs()))
            .unwrap_or(col);
        if m[pivot][col].abs() < 1e-12 {
            return None;
        }
        m.swap(col, pivot);
        v.swap(col, pivot);
        for row in (col + 1)..3 {
            let factor = m[row][col] / m[col][col];
            let pivot_row = m[col];
            for (k, p) in pivot_row.iter().enumerate().skip(col) {
                m[row][k] -= factor * p;
            }
            v[row] -= factor * v[col];
        }
    }
    let mut x = [0.0f64; 3];
    for row in (0..3).rev() {
        let mut acc = v[row];
        for k in (row + 1)..3 {
            acc -= m[row][k] * x[k];
        }
        x[row] = acc / m[row][row];
    }
    Some(x)
}

/// A fit result as raw bits, so the comparison is bit for bit.
fn fit_bits(fit: Result<FitResult, CoreError>) -> Result<[u64; 4], CoreError> {
    fit.map(|f| {
        [
            f.curve.l.to_bits(),
            f.curve.m.to_bits(),
            f.curve.n.to_bits(),
            f.rmse.to_bits(),
        ]
    })
}

/// Strategy: (power, throughput) samples on 1–4 base powers, each power
/// offset from its base by 0–4 ticks of 0.1–0.7 nW, so the `1e-9` dedup
/// chain both absorbs neighbours into one distinct power and splits
/// them into two or three.
fn arb_clustered_samples() -> impl Strategy<Value = Vec<(f64, f64)>> {
    (
        proptest::collection::vec(40.0..400.0f64, 1..5),
        0.1e-9..0.7e-9f64,
        proptest::collection::vec((0usize..4, 0u32..5, -5.0..5.0f64), 2..40),
        -0.02..0.0f64,
        0.5..5.0f64,
    )
        .prop_map(|(bases, tick, picks, n, m)| {
            picks
                .iter()
                .map(|&(base, ticks, noise)| {
                    let x = bases[base % bases.len()] + f64::from(ticks) * tick;
                    (x, m * x + n * x * x + noise)
                })
                .collect()
        })
}

/// Training (power, throughput) points, the (idle, peak) envelope, the
/// sample cap and the feedback points.
type RefitSequence = (Vec<(f64, f64)>, (f64, f64), usize, Vec<(f64, f64)>);

/// Strategy: a training run from [`arb_clustered_samples`], a power
/// envelope, a sample cap of 2–9, and 1–40 feedback samples. A feedback
/// power is a training power, or 0–4 ticks of 0.1–0.7 nW above one,
/// or (one in three) anywhere in 40–400 W, so refits see every
/// distinct-power count, near-singular clusters and evictions.
fn arb_refit_sequence() -> impl Strategy<Value = RefitSequence> {
    (
        arb_clustered_samples(),
        (30.0..250.0f64, 10.0..200.0f64),
        2usize..10,
        0.1e-9..0.7e-9f64,
        proptest::collection::vec((0u32..3, 0usize..64, 0u32..5, 40.0..400.0f64), 1..40),
    )
        .prop_map(|(training, (idle, span), cap, tick, picks)| {
            let feedback = picks
                .iter()
                .map(|&(kind, pick, ticks, anywhere)| {
                    let (x, y) = training[pick % training.len()];
                    match kind {
                        0 => (x, y + f64::from(ticks)),
                        1 => (x + f64::from(ticks) * tick, y - f64::from(ticks)),
                        _ => (anywhere, 2.0 * anywhere - 0.003 * anywhere * anywhere),
                    }
                })
                .collect();
            (training, (idle, idle + span), cap, feedback)
        })
}

/// `ProfileEntry::residual_sigma` as it was computed on every call: one
/// pass over the retained samples under the current model.
fn reference_sigma(samples: &[ProfileSample], model: &PerfModel) -> f64 {
    let n = samples.len() as f64;
    let mut sq_sum = 0.0;
    let mut abs_sum = 0.0;
    for s in samples {
        let residual = s.perf.value() - model.eval(s.power).value();
        sq_sum += residual * residual;
        abs_sum += s.perf.value().abs();
    }
    let rms = (sq_sum / n).sqrt();
    let floor = 0.02 * (abs_sum / n);
    rms.max(floor)
}

fn profile_samples(points: &[(f64, f64)], from: u64) -> Vec<ProfileSample> {
    points
        .iter()
        .enumerate()
        .map(|(i, &(p, y))| {
            ProfileSample::new(
                Watts::new(p),
                Throughput::new(y),
                SimTime::from_secs(from + i as u64 * 900),
            )
        })
        .collect()
}

proptest! {
    /// Every refit returns the copy-and-sort fit over the samples the
    /// entry retains, bit for bit; the model keeps that fit's curve, or
    /// the previous curve when the fit failed; and the stored residual
    /// sigma is the one a full pass over the retained samples under the
    /// current model gives.
    #[test]
    fn refits_match_reference_fit_and_sigma(
        (training, (idle, peak), cap, feedback) in arb_refit_sequence(),
    ) {
        let (c, w) = (ConfigId::new(0), WorkloadId::new(0));
        let range = PowerRange::new(Watts::new(idle), Watts::new(peak)).unwrap();
        let mut db = PerfDatabase::with_max_samples(cap);
        let trained = db.insert_training(c, w, range, &profile_samples(&training, 0));
        let trained = fit_bits(trained);
        prop_assert_eq!(&trained, &fit_bits(reference_fit(&training)));
        if trained.is_err() {
            return Ok(());
        }
        let entry = db.entry(c, w).unwrap();
        prop_assert_eq!(
            entry.residual_sigma().value().to_bits(),
            reference_sigma(entry.samples(), entry.model()).to_bits()
        );
        for sample in profile_samples(&feedback, 100_000) {
            let before = db.entry(c, w).unwrap();
            let (quarantined, previous) = (before.is_quarantined(), before.model().curve());
            let got = db.record_feedback(c, w, sample);
            if quarantined {
                prop_assert!(
                    matches!(got, Err(CoreError::ProfileMissing { .. })),
                    "a quarantined entry refuses feedback"
                );
                break;
            }
            let entry = db.entry(c, w).unwrap();
            let points: Vec<(f64, f64)> = entry
                .samples()
                .iter()
                .map(|s| (s.power.value(), s.perf.value()))
                .collect();
            let want = reference_fit(&points);
            let curve = want.as_ref().map_or(previous, |f| f.curve);
            let model = entry.model().curve();
            prop_assert_eq!(fit_bits(got), fit_bits(want));
            prop_assert_eq!(
                [model.l, model.m, model.n].map(f64::to_bits),
                [curve.l, curve.m, curve.n].map(f64::to_bits)
            );
            prop_assert_eq!(
                entry.residual_sigma().value().to_bits(),
                reference_sigma(entry.samples(), entry.model()).to_bits()
            );
        }
    }

    /// The lane-batched, pruned trainer returns the scalar search's
    /// (α, β, SSE) bit for bit from any hint, at every grid step and
    /// history shape and length; so does `train_holt`, which starts from
    /// the defaults.
    #[test]
    fn train_holt_matches_scalar_reference(
        history in arb_history(),
        step in proptest::sample::select(vec![0.03, 0.05, 0.1, 0.2, 1.0]),
        hint in arb_hint(),
    ) {
        let reference = train_bits(reference_train(&history, step));
        prop_assert_eq!(train_bits(train_holt_from(&history, step, hint)), reference);
        prop_assert_eq!(train_bits(train_holt(&history, step)), reference);
    }

    /// The in-place fit returns the copy-and-sort fit bit for bit, with
    /// 1, 2 and 3+ distinct powers inside and across the 1e-9 chain.
    #[test]
    fn fit_quadratic_matches_copy_and_sort_reference(pts in arb_clustered_samples()) {
        prop_assert_eq!(fit_bits(fit_quadratic(&pts)), fit_bits(reference_fit(&pts)));
    }
}

/// Fine windows clipped at 0 and at 1 (a coarse winner on the grid's
/// edge) also match the scalar reference bit for bit.
#[test]
fn train_holt_matches_scalar_reference_on_clipped_windows() {
    let walk: Vec<f64> = (0..120)
        .map(|i| 500.0 + 200.0 * (f64::from(i) * 0.9).sin() * (f64::from(i) * 0.05).cos())
        .scan(0.0, |acc, step| {
            *acc += step;
            Some(*acc)
        })
        .collect();
    // Noise around a level, with no initial trend: trend smoothing off
    // (β = 0) wins.
    let noisy_level: Vec<f64> = (0..120)
        .map(|i| {
            300.0
                + if i < 2 {
                    0.0
                } else {
                    40.0 * (f64::from(i) * 2.3).sin()
                }
        })
        .collect();
    let (mut low, mut high) = (0, 0);
    for history in [walk, noisy_level] {
        for step in [0.03, 0.05, 0.1, 0.2, 1.0] {
            // Step 1.0 clips every window; count the finer grids only.
            let coarse = reference_grid(&history, (0.0, 1.0), (0.0, 1.0), step);
            for v in [coarse.params.alpha, coarse.params.beta] {
                low += usize::from(step < 1.0 && v - step < 0.0);
                high += usize::from(step < 1.0 && v + step > 1.0);
            }
            assert_eq!(
                train_bits(train_holt(&history, step)),
                train_bits(reference_train(&history, step)),
                "step {step}"
            );
        }
    }
    assert!(
        low > 0 && high > 0,
        "windows clipped low {low}, high {high}"
    );
}
