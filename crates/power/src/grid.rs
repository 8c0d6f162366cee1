//! The budget-capped utility grid feed.
//!
//! In the paper the grid is the last-resort source: when the batteries
//! drain out, the rack falls back to a grid budget (1000 W in the runtime
//! experiments, swept in Fig. 12) that is deliberately *under-provisioned*
//! relative to peak demand, because peak grid power carries extreme
//! utility charges (up to $13.61/kW, after Goiri et al., ASPLOS'13).

use greenhetero_core::error::CoreError;
use greenhetero_core::types::{SimDuration, WattHours, Watts};
use serde::{Deserialize, Serialize};

/// Tariff model for grid energy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GridTariff {
    /// Charge per kW of the billing period's **peak** draw.
    pub peak_price_per_kw: f64,
    /// Charge per kWh of energy consumed.
    pub energy_price_per_kwh: f64,
}

impl GridTariff {
    /// The tariff cited by the paper: $13.61/kW peak demand charge, plus a
    /// typical $0.10/kWh volumetric rate.
    #[must_use]
    pub fn paper() -> Self {
        GridTariff {
            peak_price_per_kw: 13.61,
            energy_price_per_kwh: 0.10,
        }
    }
}

/// A grid feed with a hard power budget and tariff accounting.
///
/// # Examples
///
/// ```
/// use greenhetero_power::grid::{GridFeed, GridTariff};
/// use greenhetero_core::types::{SimDuration, Watts};
///
/// let mut grid = GridFeed::new(Watts::new(1000.0), GridTariff::paper())?;
/// let drawn = grid.draw(Watts::new(1500.0), SimDuration::from_hours(1));
/// assert_eq!(drawn, Watts::new(1000.0)); // clamped to the budget
/// assert_eq!(grid.peak_draw(), Watts::new(1000.0));
/// # Ok::<(), greenhetero_core::error::CoreError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridFeed {
    budget: Watts,
    tariff: GridTariff,
    energy: WattHours,
    peak_draw: Watts,
}

impl GridFeed {
    /// Creates a feed with the given power budget.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for a negative budget.
    pub fn new(budget: Watts, tariff: GridTariff) -> Result<Self, CoreError> {
        if budget.value() < 0.0 {
            return Err(CoreError::InvalidConfig {
                reason: format!("grid budget must be non-negative, got {budget}"),
            });
        }
        Ok(GridFeed {
            budget,
            tariff,
            energy: WattHours::ZERO,
            peak_draw: Watts::ZERO,
        })
    }

    /// The power budget.
    #[must_use]
    pub fn budget(&self) -> Watts {
        self.budget
    }

    /// Changes the power budget mid-run — a utility brownout cutting the
    /// feed, or the cut being lifted. Negative values clamp to zero;
    /// billing accumulators are untouched (the utility still bills for
    /// what was drawn before the cut).
    pub fn set_budget(&mut self, budget: Watts) {
        self.budget = budget.non_negative();
    }

    /// Draws up to `power` for `duration`; returns the power actually
    /// granted (clamped to the budget) and records it for billing.
    #[must_use = "the granted power may be less than requested"]
    pub fn draw(&mut self, power: Watts, duration: SimDuration) -> Watts {
        if duration.is_zero() || power.value() <= 0.0 {
            return Watts::ZERO;
        }
        let granted = power.min(self.budget);
        self.energy += granted * duration;
        self.peak_draw = self.peak_draw.max(granted);
        granted
    }

    /// Total energy drawn so far.
    #[must_use]
    pub fn energy_drawn(&self) -> WattHours {
        self.energy
    }

    /// Highest power drawn so far (the demand-charge basis).
    #[must_use]
    pub fn peak_draw(&self) -> Watts {
        self.peak_draw
    }

    /// Total bill under the tariff: peak demand charge + volumetric energy.
    #[must_use]
    // greenhetero-lint: allow(GH002) monetary cost in tariff currency units; no newtype exists
    pub fn cost(&self) -> f64 {
        self.peak_draw.value() / 1000.0 * self.tariff.peak_price_per_kw
            + self.energy.as_kilowatt_hours() * self.tariff.energy_price_per_kwh
    }
}

#[cfg(test)]
// Tests compare results of exact literal arithmetic.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn rejects_negative_budget() {
        assert!(GridFeed::new(Watts::new(-1.0), GridTariff::paper()).is_err());
    }

    #[test]
    fn draw_clamps_to_budget() {
        let mut g = GridFeed::new(Watts::new(1000.0), GridTariff::paper()).unwrap();
        assert_eq!(
            g.draw(Watts::new(600.0), SimDuration::from_hours(1)),
            Watts::new(600.0)
        );
        assert_eq!(
            g.draw(Watts::new(1600.0), SimDuration::from_hours(1)),
            Watts::new(1000.0)
        );
        assert_eq!(g.energy_drawn(), WattHours::new(1600.0));
        assert_eq!(g.peak_draw(), Watts::new(1000.0));
    }

    #[test]
    fn zero_budget_grants_nothing() {
        let mut g = GridFeed::new(Watts::ZERO, GridTariff::paper()).unwrap();
        assert_eq!(
            g.draw(Watts::new(500.0), SimDuration::from_hours(1)),
            Watts::ZERO
        );
    }

    #[test]
    fn brownout_budget_cut_and_restore() {
        let mut g = GridFeed::new(Watts::new(1000.0), GridTariff::paper()).unwrap();
        let _ = g.draw(Watts::new(800.0), SimDuration::from_hours(1));
        g.set_budget(Watts::new(400.0));
        assert_eq!(
            g.draw(Watts::new(800.0), SimDuration::from_hours(1)),
            Watts::new(400.0)
        );
        // Billing memory survives the cut.
        assert_eq!(g.peak_draw(), Watts::new(800.0));
        g.set_budget(Watts::new(1000.0));
        assert_eq!(
            g.draw(Watts::new(800.0), SimDuration::from_hours(1)),
            Watts::new(800.0)
        );
        // Negative budgets clamp to zero.
        g.set_budget(Watts::new(100.0) - Watts::new(200.0));
        assert_eq!(g.budget(), Watts::ZERO);
    }

    #[test]
    fn billing() {
        let mut g = GridFeed::new(Watts::new(2000.0), GridTariff::paper()).unwrap();
        let _ = g.draw(Watts::new(1000.0), SimDuration::from_hours(10));
        // 1 kW peak → $13.61; 10 kWh → $1.00.
        assert!((g.cost() - (13.61 + 1.0)).abs() < 1e-9);
    }

    #[test]
    fn zero_duration_draw_is_noop() {
        let mut g = GridFeed::new(Watts::new(1000.0), GridTariff::paper()).unwrap();
        assert_eq!(g.draw(Watts::new(500.0), SimDuration::ZERO), Watts::ZERO);
        assert_eq!(g.energy_drawn(), WattHours::ZERO);
    }
}
