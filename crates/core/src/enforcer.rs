//! The Enforcer (§IV-A, §IV-B4): turning scheduler decisions into
//! actionable commands.
//!
//! The **Server Power Controller** ([`Spc`]) translates a per-server power
//! value into a concrete power state (a DVFS frequency level or a
//! low-power state) using the paper's linear mapping: "we set the minimum
//! and maximum values of the power range, and any value between the power
//! limits is linearly scaled to a position in the state set `S_N`". The
//! paper's other Enforcer component, the Power Source Controller, is the
//! PDU's source switch (`greenhetero_power::pdu::Pdu::dispatch`), which
//! applies a [`SourcePlan`](crate::sources::SourcePlan) directly.

use serde::{Deserialize, Serialize};

use crate::error::CoreError;
use crate::types::Watts;

/// One entry of a server's ordered power-state set `S_N`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerState {
    /// Human-readable label ("sleep", "1.2 GHz", …).
    pub label: String,
    /// Nominal full-utilization power draw in this state.
    pub power: Watts,
}

/// A server's ordered power-state set, from the lowest-power state to the
/// highest (low-power states first, then ascending DVFS levels).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerStateSet {
    states: Vec<PowerState>,
}

impl PowerStateSet {
    /// Creates a state set.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `states` is empty or not
    /// sorted by ascending power.
    pub fn new(states: Vec<PowerState>) -> Result<Self, CoreError> {
        if states.is_empty() {
            return Err(CoreError::InvalidConfig {
                reason: "power state set must not be empty".to_string(),
            });
        }
        if states.windows(2).any(|w| w[1].power < w[0].power) {
            return Err(CoreError::InvalidConfig {
                reason: "power states must be ordered from low to high power".to_string(),
            });
        }
        Ok(PowerStateSet { states })
    }

    /// The ordered states.
    #[must_use]
    pub fn states(&self) -> &[PowerState] {
        &self.states
    }

    /// Number of states.
    #[must_use]
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// `true` if the set is empty (never, by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The lowest-power state's draw.
    #[must_use]
    pub fn min_power(&self) -> Watts {
        self.states[0].power
    }

    /// The highest-power state's draw.
    #[must_use]
    pub fn max_power(&self) -> Watts {
        self.states[self.states.len() - 1].power
    }

    /// The paper's linear power→position mapping: scales `power` between
    /// the set's min and max draw into a state index.
    #[must_use]
    pub fn index_for_power(&self, power: Watts) -> usize {
        let lo = self.min_power().value();
        let hi = self.max_power().value();
        if self.states.len() == 1 || hi <= lo {
            return 0;
        }
        let t = ((power.value() - lo) / (hi - lo)).clamp(0.0, 1.0);
        // Linear scale to a position, rounding to the nearest state.
        (t * (self.states.len() - 1) as f64).round() as usize
    }

    /// The highest state whose draw does not exceed `cap` — a power-cap
    /// respecting variant used when an allocation must never be exceeded.
    /// Returns `None` when even the lowest state draws more than `cap`.
    #[must_use]
    pub fn highest_state_within(&self, cap: Watts) -> Option<usize> {
        self.states
            .iter()
            .rposition(|s| s.power.value() <= cap.value() + 1e-9)
    }
}

/// A command for one server: enter the state at `state_index`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpcCommand {
    /// Index into the server's [`PowerStateSet`].
    pub state_index: usize,
}

/// The Server Power Controller: maps allocations to state commands.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Spc {
    /// When `true` (the default), the SPC picks the highest state that fits
    /// under the allocation (never exceeding the power cap). When `false`,
    /// it uses the paper's plain linear scaling, which may round up.
    pub respect_cap: bool,
}

impl Spc {
    /// An SPC that never exceeds the allocated power.
    #[must_use]
    pub fn new() -> Self {
        Spc { respect_cap: true }
    }

    /// Produces the command for one server given its allocation.
    ///
    /// With `respect_cap`, a server whose allocation is below even the
    /// lowest state's draw is sent to state 0 (its lowest state) — the
    /// physical server cannot draw less without being off; the allocation
    /// layer treats such a server as unproductive anyway.
    #[must_use]
    pub fn command(&self, allocation: Watts, states: &PowerStateSet) -> SpcCommand {
        let idx = if self.respect_cap {
            states.highest_state_within(allocation).unwrap_or(0)
        } else {
            states.index_for_power(allocation)
        };
        SpcCommand { state_index: idx }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ladder() -> PowerStateSet {
        PowerStateSet::new(
            [
                ("sleep", 10.0),
                ("1.2 GHz", 60.0),
                ("1.4 GHz", 70.0),
                ("1.6 GHz", 82.0),
                ("1.8 GHz", 96.0),
                ("2.0 GHz", 112.0),
            ]
            .iter()
            .map(|(l, p)| PowerState {
                label: (*l).to_string(),
                power: Watts::new(*p),
            })
            .collect(),
        )
        .unwrap()
    }

    #[test]
    fn state_set_rejects_empty_and_unsorted() {
        assert!(PowerStateSet::new(vec![]).is_err());
        let unsorted = vec![
            PowerState {
                label: "hi".into(),
                power: Watts::new(100.0),
            },
            PowerState {
                label: "lo".into(),
                power: Watts::new(50.0),
            },
        ];
        assert!(PowerStateSet::new(unsorted).is_err());
    }

    #[test]
    fn linear_mapping_endpoints() {
        let s = ladder();
        assert_eq!(s.index_for_power(Watts::new(10.0)), 0);
        assert_eq!(s.index_for_power(Watts::new(112.0)), 5);
        assert_eq!(s.index_for_power(Watts::new(0.0)), 0); // below range clamps
        assert_eq!(s.index_for_power(Watts::new(500.0)), 5); // above range clamps
    }

    #[test]
    fn linear_mapping_midpoint() {
        let s = ladder();
        // Midpoint of [10, 112] is 61 → position 2.5 → rounds to index 3 (ties
        // round half away from zero); check we land adjacent to the middle.
        let idx = s.index_for_power(Watts::new(61.0));
        assert!(idx == 2 || idx == 3, "got {idx}");
    }

    #[test]
    fn cap_respecting_mapping_never_exceeds_allocation() {
        let s = ladder();
        let spc = Spc::new();
        for alloc in [10.0, 59.9, 60.0, 75.0, 95.0, 111.9, 112.0, 400.0] {
            let cmd = spc.command(Watts::new(alloc), &s);
            assert!(
                s.states()[cmd.state_index].power.value() <= alloc + 1e-9,
                "state {} draws more than allocation {alloc}",
                cmd.state_index
            );
        }
    }

    #[test]
    fn cap_below_lowest_state_goes_to_state_zero() {
        let s = ladder();
        let cmd = Spc::new().command(Watts::new(5.0), &s);
        assert_eq!(cmd.state_index, 0);
    }

    #[test]
    fn non_cap_mode_uses_linear_scaling() {
        let s = ladder();
        let spc = Spc { respect_cap: false };
        assert_eq!(spc.command(Watts::new(112.0), &s).state_index, 5);
    }

    #[test]
    fn single_state_set() {
        let s = PowerStateSet::new(vec![PowerState {
            label: "only".into(),
            power: Watts::new(42.0),
        }])
        .unwrap();
        assert_eq!(s.index_for_power(Watts::new(999.0)), 0);
        assert_eq!(s.highest_state_within(Watts::new(42.0)), Some(0));
        assert_eq!(s.highest_state_within(Watts::new(41.0)), None);
    }
}
