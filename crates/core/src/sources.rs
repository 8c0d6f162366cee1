//! Power-source selection (§IV-B1, Fig. 6): which mix of renewable power,
//! battery energy and grid power feeds the rack this epoch.
//!
//! Based on the predicted renewable supply `R` and rack demand `D`, the
//! scheduler distinguishes three cases:
//!
//! * **Case A** (`R ≥ D`) — renewable alone sustains the load; the surplus
//!   charges the battery.
//! * **Case B** (`0 < R < D`) — renewable is insufficient; the battery
//!   discharges to cover the shortfall, and the grid is the last resort
//!   once the battery hits its depth-of-discharge floor.
//! * **Case C** (`R ≈ 0`) — the battery carries the load alone; once
//!   drained to the DoD floor, the grid takes over *and* recharges the
//!   battery for the next shortage.
//!
//! Invariants enforced here (and property-tested):
//! * at most one source charges the battery at any time;
//! * the battery never discharges and charges in the same epoch;
//! * grid draw (load + charging) never exceeds the grid budget.

use serde::{Deserialize, Serialize};

use crate::types::Watts;

/// The three supply regimes of Fig. 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SupplyCase {
    /// Renewable supply covers the whole demand.
    A,
    /// Renewable is present but insufficient.
    B,
    /// Renewable is (essentially) unavailable.
    C,
}

impl std::fmt::Display for SupplyCase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SupplyCase::A => write!(f, "Case A (renewable sufficient)"),
            SupplyCase::B => write!(f, "Case B (renewable insufficient)"),
            SupplyCase::C => write!(f, "Case C (renewable unavailable)"),
        }
    }
}

/// Which source is charging the battery, when any is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChargeSource {
    /// Surplus renewable power charges the battery (Case A).
    Renewable,
    /// The grid recharges a drained battery (Case B/C fallback).
    Grid,
}

/// What the battery can do this epoch, as reported by the Monitor.
///
/// This is a *view*: the physical battery model lives in the
/// `greenhetero-power` crate and produces one of these each epoch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BatteryView {
    /// Maximum power the battery may discharge at, honoring both its
    /// C-rate limit and the energy remaining above the DoD floor over the
    /// epoch. Zero when the battery is at its floor.
    pub max_discharge: Watts,
    /// Maximum power the battery may accept, honoring its charge-rate
    /// limit and remaining headroom. Zero when full.
    pub max_charge: Watts,
    /// `true` once the battery has been drawn down to the DoD floor and
    /// should be recharged before the next shortage.
    pub needs_recharge: bool,
}

impl BatteryView {
    /// A view of a battery that can neither charge nor discharge (absent
    /// or disabled battery).
    #[must_use]
    pub fn inert() -> Self {
        BatteryView {
            max_discharge: Watts::ZERO,
            max_charge: Watts::ZERO,
            needs_recharge: false,
        }
    }
}

/// The source-selection decision for one epoch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SourcePlan {
    /// Which regime the epoch falls into.
    pub case: SupplyCase,
    /// Renewable watts routed to the servers.
    pub renewable_to_load: Watts,
    /// Battery discharge watts routed to the servers.
    pub battery_to_load: Watts,
    /// Grid watts routed to the servers.
    pub grid_to_load: Watts,
    /// Battery charging: the source and the wattage, if any.
    pub charge: Option<(ChargeSource, Watts)>,
    /// Renewable watts neither used by the load nor absorbed by the
    /// battery (curtailed).
    pub curtailed: Watts,
}

impl SourcePlan {
    /// Total power available for the server allocation this epoch — the
    /// `Power_t` the Solver splits.
    #[must_use]
    pub fn budget(&self) -> Watts {
        self.renewable_to_load + self.battery_to_load + self.grid_to_load
    }

    /// Total grid draw (load plus any grid charging).
    #[must_use]
    pub fn grid_draw(&self) -> Watts {
        let charging = match self.charge {
            Some((ChargeSource::Grid, w)) => w,
            _ => Watts::ZERO,
        };
        self.grid_to_load + charging
    }
}

/// Inputs to the source selection.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SourceInputs {
    /// Predicted renewable generation for the epoch (Eq. 4 output).
    pub predicted_renewable: Watts,
    /// Predicted rack power demand for the epoch.
    pub predicted_demand: Watts,
    /// What the battery can do.
    pub battery: BatteryView,
    /// Grid power budget (the paper caps it, e.g. at 1000 W).
    pub grid_budget: Watts,
    /// Threshold below which renewable counts as unavailable (Case C).
    pub renewable_negligible: Watts,
}

/// Selects the power sources for one epoch.
///
/// # Examples
///
/// ```
/// use greenhetero_core::sources::{select_sources, BatteryView, SourceInputs, SupplyCase};
/// use greenhetero_core::types::Watts;
///
/// // Midday: solar exceeds demand → Case A, surplus charges the battery.
/// let plan = select_sources(&SourceInputs {
///     predicted_renewable: Watts::new(1500.0),
///     predicted_demand: Watts::new(1000.0),
///     battery: BatteryView {
///         max_discharge: Watts::new(800.0),
///         max_charge: Watts::new(600.0),
///         needs_recharge: false,
///     },
///     grid_budget: Watts::new(1000.0),
///     renewable_negligible: Watts::new(5.0),
/// });
/// assert_eq!(plan.case, SupplyCase::A);
/// assert_eq!(plan.budget(), Watts::new(1500.0)); // full renewable on the bus
/// assert!(plan.charge.is_some());
/// ```
#[must_use]
pub fn select_sources(inputs: &SourceInputs) -> SourcePlan {
    let renewable = inputs.predicted_renewable.non_negative();
    let demand = inputs.predicted_demand.non_negative();

    let plan = if renewable >= demand && renewable > inputs.renewable_negligible {
        plan_case_a(renewable, demand, &inputs.battery)
    } else if renewable > inputs.renewable_negligible {
        plan_case_b(renewable, demand, inputs)
    } else {
        plan_case_c(demand, inputs)
    };
    audit_plan(inputs, &plan);
    plan
}

/// Debug-build audit of a source plan against the module invariants: every
/// draw non-negative, each source within its capability, grid draw (load
/// plus charging) within the grid budget, and the battery never charging
/// and discharging in the same epoch.
pub fn audit_plan(inputs: &SourceInputs, plan: &SourcePlan) {
    const EPS: f64 = 1e-6;
    debug_assert!(
        plan.renewable_to_load.value() >= 0.0
            && plan.battery_to_load.value() >= 0.0
            && plan.grid_to_load.value() >= 0.0
            && plan.curtailed.value() >= 0.0,
        "source draws must be non-negative: {plan:?}"
    );
    debug_assert!(
        plan.renewable_to_load.value() <= inputs.predicted_renewable.non_negative().value() + EPS,
        "renewable draw exceeds predicted generation: {plan:?}"
    );
    debug_assert!(
        plan.battery_to_load.value() <= inputs.battery.max_discharge.value() + EPS,
        "battery draw exceeds the bank's discharge capability: {plan:?}"
    );
    debug_assert!(
        plan.grid_draw().value() <= inputs.grid_budget.value() + EPS,
        "grid draw (load + charging) exceeds the grid budget: {plan:?}"
    );
    if let Some((_, w)) = plan.charge {
        debug_assert!(
            w.value() > 0.0 && w.value() <= inputs.battery.max_charge.value() + EPS,
            "battery charging must be positive and within the charge limit: {plan:?}"
        );
        debug_assert!(
            plan.battery_to_load.is_zero(),
            "the battery must not charge and discharge in the same epoch: {plan:?}"
        );
    }
}

fn plan_case_a(renewable: Watts, demand: Watts, battery: &BatteryView) -> SourcePlan {
    // The whole renewable output is switched onto the load bus: servers
    // draw what they need, the surplus charges the battery, and the
    // remainder is curtailed. Keeping the full supply available (rather
    // than capping at predicted demand) means no server is throttled when
    // power is abundant — the paper's Uniform matches GreenHetero there.
    let surplus = renewable - demand;
    let charge_w = surplus.min(battery.max_charge);
    SourcePlan {
        case: SupplyCase::A,
        renewable_to_load: renewable,
        battery_to_load: Watts::ZERO,
        grid_to_load: Watts::ZERO,
        charge: if charge_w > Watts::ZERO {
            Some((ChargeSource::Renewable, charge_w))
        } else {
            None
        },
        curtailed: surplus - charge_w,
    }
}

fn plan_case_b(renewable: Watts, demand: Watts, inputs: &SourceInputs) -> SourcePlan {
    let shortfall = demand - renewable;
    let from_battery = shortfall.min(inputs.battery.max_discharge);
    let still_short = shortfall - from_battery;
    let from_grid = still_short.min(inputs.grid_budget);

    // If the battery is exhausted (could not contribute) and needs a
    // recharge, spare grid capacity tops it up — one source at a time, and
    // never while the battery is discharging.
    let charge = if from_battery.is_zero() && inputs.battery.needs_recharge {
        let headroom = inputs.grid_budget.saturating_sub(from_grid);
        let w = headroom.min(inputs.battery.max_charge);
        if w > Watts::ZERO {
            Some((ChargeSource::Grid, w))
        } else {
            None
        }
    } else {
        None
    };

    SourcePlan {
        case: SupplyCase::B,
        renewable_to_load: renewable,
        battery_to_load: from_battery,
        grid_to_load: from_grid,
        charge,
        curtailed: Watts::ZERO,
    }
}

fn plan_case_c(demand: Watts, inputs: &SourceInputs) -> SourcePlan {
    let from_battery = demand.min(inputs.battery.max_discharge);
    let still_short = demand - from_battery;
    let from_grid = still_short.min(inputs.grid_budget);

    let charge = if from_battery.is_zero() && inputs.battery.needs_recharge {
        let headroom = inputs.grid_budget.saturating_sub(from_grid);
        let w = headroom.min(inputs.battery.max_charge);
        if w > Watts::ZERO {
            Some((ChargeSource::Grid, w))
        } else {
            None
        }
    } else {
        None
    };

    SourcePlan {
        case: SupplyCase::C,
        renewable_to_load: Watts::ZERO,
        battery_to_load: from_battery,
        grid_to_load: from_grid,
        charge,
        curtailed: Watts::ZERO,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn battery(discharge: f64, charge: f64, needs: bool) -> BatteryView {
        BatteryView {
            max_discharge: Watts::new(discharge),
            max_charge: Watts::new(charge),
            needs_recharge: needs,
        }
    }

    fn inputs(r: f64, d: f64, b: BatteryView, grid: f64) -> SourceInputs {
        SourceInputs {
            predicted_renewable: Watts::new(r),
            predicted_demand: Watts::new(d),
            battery: b,
            grid_budget: Watts::new(grid),
            renewable_negligible: Watts::new(5.0),
        }
    }

    #[test]
    fn case_a_surplus_charges_battery() {
        let plan = select_sources(&inputs(
            1500.0,
            1000.0,
            battery(800.0, 400.0, false),
            1000.0,
        ));
        assert_eq!(plan.case, SupplyCase::A);
        assert_eq!(plan.renewable_to_load, Watts::new(1500.0));
        assert_eq!(plan.battery_to_load, Watts::ZERO);
        assert_eq!(plan.grid_to_load, Watts::ZERO);
        assert_eq!(
            plan.charge,
            Some((ChargeSource::Renewable, Watts::new(400.0)))
        );
        assert_eq!(plan.curtailed, Watts::new(100.0));
        // The whole budget is green.
        assert_eq!(plan.renewable_to_load, plan.budget());
    }

    #[test]
    fn case_a_full_battery_curtails_everything() {
        let plan = select_sources(&inputs(1500.0, 1000.0, battery(800.0, 0.0, false), 1000.0));
        assert_eq!(plan.charge, None);
        assert_eq!(plan.curtailed, Watts::new(500.0));
    }

    #[test]
    fn case_b_battery_covers_shortfall() {
        let plan = select_sources(&inputs(600.0, 1000.0, battery(800.0, 400.0, false), 1000.0));
        assert_eq!(plan.case, SupplyCase::B);
        assert_eq!(plan.renewable_to_load, Watts::new(600.0));
        assert_eq!(plan.battery_to_load, Watts::new(400.0));
        assert_eq!(plan.grid_to_load, Watts::ZERO);
        assert_eq!(plan.charge, None);
        assert_eq!(plan.budget(), Watts::new(1000.0));
    }

    #[test]
    fn case_b_grid_is_last_resort() {
        // Battery can only give 100 W of a 400 W shortfall.
        let plan = select_sources(&inputs(600.0, 1000.0, battery(100.0, 400.0, false), 1000.0));
        assert_eq!(plan.renewable_to_load, Watts::new(600.0));
        assert_eq!(plan.battery_to_load, Watts::new(100.0));
        assert_eq!(plan.grid_to_load, Watts::new(300.0));
        assert_eq!(plan.charge, None);
        assert_eq!(plan.budget(), Watts::new(1000.0));
    }

    #[test]
    fn case_b_grid_budget_caps_supply() {
        let plan = select_sources(&inputs(600.0, 2000.0, battery(0.0, 400.0, false), 500.0));
        assert_eq!(plan.grid_to_load, Watts::new(500.0));
        assert_eq!(plan.budget(), Watts::new(1100.0)); // < demand: scarcity
    }

    #[test]
    fn case_b_no_simultaneous_charge_and_discharge() {
        let plan = select_sources(&inputs(600.0, 1000.0, battery(800.0, 400.0, true), 1000.0));
        assert!(plan.battery_to_load > Watts::ZERO);
        assert_eq!(plan.charge, None);
    }

    #[test]
    fn case_c_battery_alone() {
        let plan = select_sources(&inputs(0.0, 1000.0, battery(1200.0, 400.0, false), 1000.0));
        assert_eq!(plan.case, SupplyCase::C);
        assert_eq!(plan.battery_to_load, Watts::new(1000.0));
        assert_eq!(plan.grid_to_load, Watts::ZERO);
        assert_eq!(plan.renewable_to_load, Watts::ZERO);
    }

    #[test]
    fn case_c_drained_battery_grid_takes_over_and_charges() {
        // Battery at DoD floor: grid supplies the load and recharges.
        let plan = select_sources(&inputs(0.0, 800.0, battery(0.0, 300.0, true), 1000.0));
        assert_eq!(plan.grid_to_load, Watts::new(800.0));
        assert_eq!(plan.charge, Some((ChargeSource::Grid, Watts::new(200.0))));
        assert_eq!(plan.grid_draw(), Watts::new(1000.0));
        assert!(plan.grid_draw() <= Watts::new(1000.0));
    }

    #[test]
    fn case_c_grid_charging_respects_budget() {
        // Tight grid budget: load first, charging only with the leftovers.
        let plan = select_sources(&inputs(0.0, 950.0, battery(0.0, 300.0, true), 1000.0));
        assert_eq!(plan.grid_to_load, Watts::new(950.0));
        assert_eq!(plan.charge, Some((ChargeSource::Grid, Watts::new(50.0))));
    }

    #[test]
    fn tiny_renewable_counts_as_case_c() {
        let plan = select_sources(&inputs(3.0, 800.0, battery(1000.0, 300.0, false), 1000.0));
        assert_eq!(plan.case, SupplyCase::C);
    }

    #[test]
    fn negative_predictions_are_clamped() {
        let plan = select_sources(&inputs(-50.0, -10.0, battery(100.0, 100.0, false), 100.0));
        assert_eq!(plan.case, SupplyCase::C);
        assert_eq!(plan.budget(), Watts::ZERO);
    }

    #[test]
    fn inert_battery_view() {
        let b = BatteryView::inert();
        let plan = select_sources(&inputs(0.0, 500.0, b, 400.0));
        assert_eq!(plan.battery_to_load, Watts::ZERO);
        assert_eq!(plan.grid_to_load, Watts::new(400.0));
        assert_eq!(plan.charge, None);
    }

    #[test]
    fn zero_inputs_plan_no_green_power() {
        let plan = select_sources(&inputs(0.0, 0.0, BatteryView::inert(), 0.0));
        assert_eq!(plan.budget(), Watts::ZERO);
        assert_eq!(plan.renewable_to_load + plan.battery_to_load, Watts::ZERO);
    }

    #[test]
    fn display_cases() {
        assert!(format!("{}", SupplyCase::A).contains("sufficient"));
        assert!(format!("{}", SupplyCase::B).contains("insufficient"));
        assert!(format!("{}", SupplyCase::C).contains("unavailable"));
    }
}
