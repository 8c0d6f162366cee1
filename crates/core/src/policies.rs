//! The five power-allocation policies of Table III.
//!
//! | Policy | Behaviour |
//! |---|---|
//! | `Uniform` | heterogeneity-oblivious equal watts per server (baseline) |
//! | `Manual` | tries every allocation on a 10 % PAR lattice and keeps the best *measured* one |
//! | `GreenHetero-p` | greedily fills servers in descending energy-efficiency order |
//! | `GreenHetero-a` | the Solver on a frozen database (no online refits) |
//! | `GreenHetero` | the Solver plus online database updates (Algorithm 1) |
//!
//! Policies are pure allocation strategies: the decision of *whether* the
//! database gets updated each epoch is exposed via
//! [`AllocationPolicy::updates_database`] and acted upon by the controller.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::CoreError;
use crate::solver::{
    solve_uniform, Allocation, AllocationProblem, ShareLattice, SolveEngine, SolverFastPath,
};
use crate::types::{Ratio, Throughput, Watts};

/// Measures the *actual* throughput of a per-server assignment by running
/// it on the real rack — how the paper's Manual policy evaluates its 10 %
/// lattice. Simulations implement this against ground truth; the
/// model-driven policies never need it.
pub trait AllocationOracle {
    /// Runs the assignment (one per-server wattage per group) and reports
    /// the measured total throughput.
    fn measure(&self, per_server: &[Watts]) -> Throughput;
}

impl<F: Fn(&[Watts]) -> Throughput> AllocationOracle for F {
    fn measure(&self, per_server: &[Watts]) -> Throughput {
        self(per_server)
    }
}

/// A power-allocation strategy: splits one epoch's budget across groups.
pub trait AllocationPolicy: fmt::Debug + Send {
    /// Which of the five named policies this is.
    fn kind(&self) -> PolicyKind;

    /// Computes the allocation for this epoch and names the engine that
    /// produced it.
    ///
    /// `oracle` is available only to measurement-driven policies (Manual);
    /// model-driven policies must not rely on it being present. `fast` is
    /// the caller's [`SolverFastPath`] (reuse of the last answer plus the
    /// allocation cache): the solver policies answer through it, bit for
    /// bit what a cold solve returns; the others ignore it.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    fn allocate(
        &self,
        problem: &AllocationProblem,
        oracle: Option<&dyn AllocationOracle>,
        fast: &mut SolverFastPath,
    ) -> Result<(Allocation, SolveEngine), CoreError>;

    /// `true` if the controller should keep refitting the database with
    /// epoch feedback while running this policy (only full GreenHetero).
    fn updates_database(&self) -> bool {
        false
    }
}

/// Identifies the five policies of Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PolicyKind {
    /// Equal watts to every server, ignoring heterogeneity.
    Uniform,
    /// Exhaustive 10 %-granularity search using measured results.
    Manual,
    /// Energy-efficiency-ordered greedy fill.
    GreenHeteroP,
    /// Solver without online database updates.
    GreenHeteroA,
    /// Full GreenHetero: solver + online database updates.
    GreenHetero,
}

impl PolicyKind {
    /// All five policies, in the paper's presentation order.
    pub const ALL: [PolicyKind; 5] = [
        PolicyKind::Uniform,
        PolicyKind::Manual,
        PolicyKind::GreenHeteroP,
        PolicyKind::GreenHeteroA,
        PolicyKind::GreenHetero,
    ];

    /// The display name used in the paper's figures.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Uniform => "Uniform",
            PolicyKind::Manual => "Manual",
            PolicyKind::GreenHeteroP => "GreenHetero-p",
            PolicyKind::GreenHeteroA => "GreenHetero-a",
            PolicyKind::GreenHetero => "GreenHetero",
        }
    }

    /// The Table III description.
    #[must_use]
    pub fn description(self) -> &'static str {
        match self {
            PolicyKind::Uniform => {
                "allocate power to each server uniformly without considering \
                 server heterogeneity and workload type"
            }
            PolicyKind::Manual => {
                "determine the near-optimal ratio by trying all possible power \
                 allocations at a granularity of 10%"
            }
            PolicyKind::GreenHeteroP => {
                "allocate power to the server based on the order of energy efficiency"
            }
            PolicyKind::GreenHeteroA => {
                "determine the power allocation ratio as GreenHetero without optimizations"
            }
            PolicyKind::GreenHetero => "determine the power allocation ratio adaptively at runtime",
        }
    }

    /// Instantiates the policy.
    #[must_use]
    pub fn build(self) -> Box<dyn AllocationPolicy> {
        match self {
            PolicyKind::Uniform => Box::new(Uniform),
            PolicyKind::Manual => Box::new(Manual),
            PolicyKind::GreenHeteroP => Box::new(GreenHeteroP),
            PolicyKind::GreenHeteroA => Box::new(GreenHeteroA),
            PolicyKind::GreenHetero => Box::new(GreenHetero),
        }
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The heterogeneity-oblivious baseline: every server gets the same watts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Uniform;

impl AllocationPolicy for Uniform {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Uniform
    }

    fn allocate(
        &self,
        problem: &AllocationProblem,
        _oracle: Option<&dyn AllocationOracle>,
        _fast: &mut SolverFastPath,
    ) -> Result<(Allocation, SolveEngine), CoreError> {
        Ok((solve_uniform(problem), SolveEngine::Uniform))
    }
}

/// The Manual policy's lattice step: the paper tries every allocation at
/// a granularity of 10 %.
const MANUAL_STEP: f64 = 0.1;

/// The Manual policy: exhaustively tries the 10 % PAR lattice, evaluating
/// each point with the oracle (measured throughput) when available, or the
/// database projections otherwise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Manual;

impl AllocationPolicy for Manual {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Manual
    }

    fn allocate(
        &self,
        problem: &AllocationProblem,
        oracle: Option<&dyn AllocationOracle>,
        _fast: &mut SolverFastPath,
    ) -> Result<(Allocation, SolveEngine), CoreError> {
        let mut best_assignment = vec![Watts::ZERO; problem.groups().len()];
        let mut best_value = evaluate(problem, oracle, &best_assignment);
        let mut assignment = best_assignment.clone();

        // Stream the lattice instead of materializing every point: two
        // buffers total, swapped on improvement, rather than one fresh
        // Vec per lattice point.
        let mut lattice = ShareLattice::new(problem.groups().len(), Ratio::saturating(MANUAL_STEP));
        while let Some(shares) = lattice.advance() {
            for ((slot, g), &s) in assignment.iter_mut().zip(problem.groups()).zip(shares) {
                *slot = problem.budget() * s / f64::from(g.count);
            }
            let value = evaluate(problem, oracle, &assignment);
            if value > best_value {
                best_value = value;
                std::mem::swap(&mut best_assignment, &mut assignment);
            }
        }
        Ok((
            Allocation::from_assignment(problem, best_assignment),
            SolveEngine::Manual,
        ))
    }
}

fn evaluate(
    problem: &AllocationProblem,
    oracle: Option<&dyn AllocationOracle>,
    assignment: &[Watts],
) -> Throughput {
    match oracle {
        Some(o) => o.measure(assignment),
        None => problem.objective(assignment),
    }
}

/// GreenHetero-p: fill the most energy-efficient group to its peak first,
/// then the next, until the budget runs out. The marginal group takes
/// whatever is left — possibly below its idle power, which is exactly the
/// pathology the paper observes on Streamcluster ("if the rest of the
/// power supply cannot support the other server to power on, the power
/// allocation will be unbalanced, further wasting").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GreenHeteroP;

impl AllocationPolicy for GreenHeteroP {
    fn kind(&self) -> PolicyKind {
        PolicyKind::GreenHeteroP
    }

    fn allocate(
        &self,
        problem: &AllocationProblem,
        _oracle: Option<&dyn AllocationOracle>,
        _fast: &mut SolverFastPath,
    ) -> Result<(Allocation, SolveEngine), CoreError> {
        let mut order: Vec<usize> = (0..problem.groups().len()).collect();
        order.sort_by(|&a, &b| {
            let ea = problem.groups()[a].model.peak_efficiency();
            let eb = problem.groups()[b].model.peak_efficiency();
            eb.total_cmp(&ea)
        });

        let mut assignment = vec![Watts::ZERO; problem.groups().len()];
        let mut left = problem.budget();
        for &i in &order {
            if left.is_zero() {
                break;
            }
            let g = &problem.groups()[i];
            let want = g.group_peak();
            let grant = want.min(left);
            assignment[i] = grant / f64::from(g.count);
            left -= grant;
        }
        Ok((
            Allocation::from_assignment(problem, assignment),
            SolveEngine::Greedy,
        ))
    }
}

/// GreenHetero-a: the Solver over whatever projections the database holds,
/// with no online refitting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GreenHeteroA;

impl AllocationPolicy for GreenHeteroA {
    fn kind(&self) -> PolicyKind {
        PolicyKind::GreenHeteroA
    }

    fn allocate(
        &self,
        problem: &AllocationProblem,
        _oracle: Option<&dyn AllocationOracle>,
        fast: &mut SolverFastPath,
    ) -> Result<(Allocation, SolveEngine), CoreError> {
        fast.solve(problem)
    }
}

/// Full GreenHetero: the Solver, with the controller refitting the
/// database from epoch feedback (Algorithm 1 lines 7–10). Refits change
/// the models, which the fast path's reuse check and memo keys see.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GreenHetero;

impl AllocationPolicy for GreenHetero {
    fn kind(&self) -> PolicyKind {
        PolicyKind::GreenHetero
    }

    fn allocate(
        &self,
        problem: &AllocationProblem,
        _oracle: Option<&dyn AllocationOracle>,
        fast: &mut SolverFastPath,
    ) -> Result<(Allocation, SolveEngine), CoreError> {
        fast.solve(problem)
    }

    fn updates_database(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::{PerfModel, Quadratic};
    use crate::solver::ServerGroup;
    use crate::types::{ConfigId, PowerRange};

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

    /// The case-study pair: a big Xeon group and an efficient i5 group
    /// (the i5's curve is tuned so its peak throughput-per-watt clearly
    /// beats the Xeon's, as measured in the paper's §III-B).
    fn case_study(budget: f64) -> AllocationProblem {
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
                m: 55.0,
                n: -0.18,
            },
        );
        AllocationProblem::new(vec![xeon, i5], Watts::new(budget)).unwrap()
    }

    /// One cold decision: a fresh fast path, the engine label dropped.
    fn decide(
        policy: &dyn AllocationPolicy,
        p: &AllocationProblem,
        oracle: Option<&dyn AllocationOracle>,
    ) -> Allocation {
        policy
            .allocate(p, oracle, &mut SolverFastPath::default())
            .unwrap()
            .0
    }

    #[test]
    fn uniform_gives_equal_watts_per_server() {
        let p = case_study(220.0);
        let alloc = decide(&Uniform, &p, None);
        assert_eq!(alloc.per_server[0], Watts::new(110.0));
        assert_eq!(alloc.per_server[1], Watts::new(110.0));
    }

    #[test]
    fn uniform_weights_by_server_count_not_group() {
        let a = group(
            0,
            3,
            10.0,
            100.0,
            Quadratic {
                l: 0.0,
                m: 1.0,
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
                m: 1.0,
                n: 0.0,
            },
        );
        let p = AllocationProblem::new(vec![a, b], Watts::new(400.0)).unwrap();
        let alloc = decide(&Uniform, &p, None);
        // 4 servers × 100 W each.
        assert_eq!(alloc.per_server[0], Watts::new(100.0));
        assert_eq!(alloc.per_server[1], Watts::new(100.0));
    }

    #[test]
    fn manual_beats_uniform_on_heterogeneous_pair() {
        let p = case_study(220.0);
        let manual = decide(&Manual, &p, None);
        let uniform = decide(&Uniform, &p, None);
        assert!(manual.projected > uniform.projected);
    }

    #[test]
    fn manual_uses_the_oracle_when_given() {
        let p = case_study(220.0);
        // An adversarial oracle that loves giving everything to group 1.
        let oracle =
            |per_server: &[Watts]| Throughput::new(per_server[1].value() - per_server[0].value());
        let alloc = decide(&Manual, &p, Some(&oracle));
        assert_eq!(alloc.per_server[0], Watts::ZERO);
        assert_eq!(alloc.per_server[1], Watts::new(220.0));
    }

    #[test]
    fn manual_lattice_is_coarser_than_solver() {
        let p = case_study(220.0);
        let manual = decide(&Manual, &p, None);
        let full = decide(&GreenHetero, &p, None);
        // The 10 % lattice can at best tie the continuous solver.
        assert!(full.projected >= manual.projected);
        // Manual shares land on the 10 % lattice.
        for s in &manual.shares {
            let ticks = s.value() * 10.0;
            assert!(
                (ticks - ticks.round()).abs() < 1e-6,
                "share {s} off-lattice"
            );
        }
    }

    #[test]
    fn greenhetero_p_fills_most_efficient_first() {
        let p = case_study(220.0);
        // The i5 has the better throughput-per-watt at peak here.
        let eff_xeon = p.groups()[0].model.peak_efficiency();
        let eff_i5 = p.groups()[1].model.peak_efficiency();
        assert!(eff_i5 > eff_xeon, "test premise: i5 more efficient");
        let alloc = decide(&GreenHeteroP, &p, None);
        // i5 runs at its peak; the Xeon takes the remainder.
        assert_eq!(alloc.per_server[1], Watts::new(81.0));
        assert_eq!(alloc.per_server[0], Watts::new(139.0));
    }

    #[test]
    fn greenhetero_p_can_strand_power_below_idle() {
        // Tight budget: after filling the efficient server, the rest cannot
        // power on the big one → stranded watts (the Streamcluster effect).
        let p = case_study(120.0);
        let alloc = decide(&GreenHeteroP, &p, None);
        assert_eq!(alloc.per_server[1], Watts::new(81.0));
        let leftover = alloc.per_server[0];
        assert!(
            leftover < Watts::new(88.0),
            "leftover {leftover} below Xeon idle"
        );
        // The full solver avoids the stranding.
        let full = decide(&GreenHetero, &p, None);
        assert!(full.projected > alloc.projected);
    }

    #[test]
    fn solver_policies_beat_or_match_everything_on_models() {
        for budget in [120.0, 180.0, 220.0, 300.0] {
            let p = case_study(budget);
            let full = decide(&GreenHetero, &p, None).projected;
            for kind in PolicyKind::ALL {
                let alloc = decide(kind.build().as_ref(), &p, None);
                assert!(
                    full.value() >= alloc.projected.value() - 1e-6,
                    "{kind} beat GreenHetero at budget {budget}"
                );
            }
        }
    }

    #[test]
    fn only_full_greenhetero_updates_database() {
        for kind in PolicyKind::ALL {
            let updates = kind.build().updates_database();
            assert_eq!(updates, kind == PolicyKind::GreenHetero, "{kind}");
        }
    }

    #[test]
    fn kinds_have_names_and_descriptions() {
        for kind in PolicyKind::ALL {
            assert!(!kind.name().is_empty());
            assert!(!kind.description().is_empty());
            assert_eq!(kind.build().kind(), kind);
        }
        assert_eq!(PolicyKind::GreenHeteroP.to_string(), "GreenHetero-p");
    }

    #[test]
    fn a_warm_fast_path_answers_like_a_cold_one_bit_for_bit() {
        let mut fast = SolverFastPath::default();
        for kind in PolicyKind::ALL {
            let policy = kind.build();
            for budget in [220.0, 224.0, 300.0, 220.0] {
                let p = case_study(budget);
                let cold = policy
                    .allocate(&p, None, &mut SolverFastPath::default())
                    .unwrap();
                let warm = policy.allocate(&p, None, &mut fast).unwrap();
                assert_eq!(cold, warm, "{kind} at {budget}");
            }
        }
        assert!(fast.stats().warm_starts > 0);
    }

    #[test]
    fn each_policy_names_its_engine() {
        let p = case_study(220.0);
        for (kind, engine) in [
            (PolicyKind::Uniform, "uniform"),
            (PolicyKind::Manual, "manual"),
            (PolicyKind::GreenHeteroP, "greedy"),
            (PolicyKind::GreenHeteroA, "exact"),
            (PolicyKind::GreenHetero, "exact"),
        ] {
            let (_, answered) = kind
                .build()
                .allocate(&p, None, &mut SolverFastPath::default())
                .unwrap();
            assert_eq!(answered.name(), engine, "{kind}");
        }
    }

    #[test]
    fn zero_budget_allocations_are_all_zero() {
        let p = case_study(0.0);
        for kind in PolicyKind::ALL {
            let alloc = decide(kind.build().as_ref(), &p, None);
            assert!(
                alloc.per_server.iter().all(|w| w.is_zero()),
                "{kind} allocated from an empty budget"
            );
        }
    }
}
