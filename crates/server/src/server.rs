//! A simulated server: a platform running a workload behind a DVFS ladder.
//!
//! The server responds to a power cap the way a RAPL-capped machine does:
//! [`SimServer::run_capped`] duty-cycles between adjacent DVFS states, so
//! its average draw realizes any cap in `[idle, peak]` exactly; a cap below
//! idle parks it in the off state. The highest state fitting under the cap
//! is only reported, as the sample's `state_index`. Training runs pin
//! individual states ([`SimServer::sample_at_state`]).

use serde::{Deserialize, Serialize};

use greenhetero_core::enforcer::{PowerStateSet, Spc};
use greenhetero_core::error::CoreError;
use greenhetero_core::types::{Ratio, ServerId, Throughput, Watts};

use crate::dvfs::{power_state_set, FrequencyLadder, Governor};
use crate::ground_truth::GroundTruth;
use crate::platform::PlatformKind;
use crate::workload::WorkloadKind;

/// One measurement of a running server.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServerSample {
    /// Power actually drawn.
    pub power: Watts,
    /// Throughput delivered.
    pub throughput: Throughput,
    /// The power-state index occupied.
    pub state_index: usize,
}

/// A simulated server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimServer {
    id: ServerId,
    truth: GroundTruth,
    states: PowerStateSet,
    governor: Governor,
}

impl SimServer {
    /// Creates a server of the given platform running the given workload.
    ///
    /// # Errors
    ///
    /// Propagates [`GroundTruth::new`] failures (CPU-only workload on the
    /// GPU platform).
    pub fn new(
        id: ServerId,
        platform: PlatformKind,
        workload: WorkloadKind,
    ) -> Result<Self, CoreError> {
        let truth = GroundTruth::new(platform, workload)?;
        let ladder = FrequencyLadder::for_platform(platform);
        let states = power_state_set(&truth, &ladder);
        Ok(SimServer {
            id,
            truth,
            states,
            governor: Governor::Ondemand,
        })
    }

    /// The server's identifier.
    #[must_use]
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// The hidden ground truth (tests and oracles may peek; the controller
    /// never does).
    #[must_use]
    pub fn truth(&self) -> &GroundTruth {
        &self.truth
    }

    /// The power-state set the enforcer maps allocations onto.
    #[must_use]
    pub fn states(&self) -> &PowerStateSet {
        &self.states
    }

    /// The active governor.
    #[must_use]
    pub fn governor(&self) -> Governor {
        self.governor
    }

    /// Switches governor (the SPC issues `Userspace` pins; training runs
    /// use `Ondemand`).
    pub fn set_governor(&mut self, governor: Governor) {
        self.governor = governor;
    }

    /// Runs the server for a sampling interval at the given offered-load
    /// intensity and reports what the monitor would see.
    #[must_use]
    pub fn run(&self, intensity: Ratio) -> ServerSample {
        let state_index = match self.governor {
            Governor::Userspace(idx) => idx.min(self.states.len() - 1),
            Governor::Performance => self.states.len() - 1,
            Governor::Ondemand => {
                // Lowest state meeting the current demand.
                let demand = self.truth.demand_at(intensity);
                self.states
                    .states()
                    .iter()
                    .position(|s| s.power >= demand)
                    .unwrap_or(self.states.len() - 1)
            }
        };
        self.sample_at_state(state_index, intensity)
    }

    /// Runs under a RAPL-style power cap: average draw follows the cap
    /// continuously (duty-cycling between adjacent DVFS states), so any
    /// allocation in `[idle, peak]` is realized exactly; below idle the
    /// server is off. The reported state index is the highest state fitting
    /// under the cap. Takes `&self`: one server serves every measurement
    /// of its group, whatever the cap.
    #[must_use]
    pub fn run_capped(&self, cap: Watts, intensity: Ratio) -> ServerSample {
        let state_index = Spc::new().command(cap, &self.states).state_index;
        if cap < self.truth.envelope().idle() {
            return ServerSample {
                power: Watts::ZERO,
                throughput: Throughput::ZERO,
                state_index: 0,
            };
        }
        let available = cap.min(self.truth.envelope().peak());
        ServerSample {
            power: self.truth.draw_at(available, intensity),
            throughput: self.truth.throughput_at(available, intensity),
            state_index,
        }
    }

    /// Measures the server pinned at `state_index` (used by training runs
    /// to sweep the ladder).
    ///
    /// # Panics
    ///
    /// Panics if `state_index` is out of range.
    #[must_use]
    pub fn sample_at_state(&self, state_index: usize, intensity: Ratio) -> ServerSample {
        assert!(state_index < self.states.len(), "state index out of range");
        let available = self.states.states()[state_index].power;
        let power = self.truth.draw_at(available, intensity);
        // Throughput follows the state's capacity (capped by offered load);
        // drawing less than the state's full power because demand is low
        // does not mean less work got done.
        let throughput = if power.is_zero() {
            Throughput::ZERO
        } else {
            self.truth.throughput_at(available, intensity)
        };
        ServerSample {
            power,
            throughput,
            state_index,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server() -> SimServer {
        SimServer::new(
            ServerId::new(0),
            PlatformKind::CoreI54460,
            WorkloadKind::SpecJbb,
        )
        .unwrap()
    }

    #[test]
    fn cap_between_states_is_drawn_exactly() {
        let s = server();
        let cap = Watts::new(70.0);
        let sample = s.run_capped(cap, Ratio::ONE);
        // Duty-cycling draws the cap itself, not the state below it; the
        // state index only reports the highest state fitting under it.
        assert_eq!(sample.power, cap);
        assert!(sample.throughput > Throughput::ZERO);
        let state = s.states().states()[sample.state_index].power;
        assert!(state <= cap && state < sample.power);
        assert!(s.states().states()[sample.state_index + 1].power > cap);
    }

    #[test]
    fn cap_below_idle_turns_server_off() {
        let s = server();
        let sample = s.run_capped(Watts::new(30.0), Ratio::ONE); // below the i5's 47 W idle
        assert_eq!(sample.power, Watts::ZERO);
        assert_eq!(sample.throughput, Throughput::ZERO);
        assert_eq!(sample.state_index, 0);
    }

    #[test]
    fn generous_cap_reaches_peak() {
        let s = server();
        let sample = s.run_capped(Watts::new(500.0), Ratio::ONE);
        assert!(sample
            .power
            .approx_eq(s.truth().envelope().peak(), Watts::new(1.0)));
        assert!(sample.throughput.value() >= 0.99 * s.truth().t_max().value());
    }

    #[test]
    fn ondemand_tracks_intensity() {
        let mut s = server();
        s.set_governor(Governor::Ondemand);
        let low = s.run(Ratio::saturating(0.2));
        let high = s.run(Ratio::ONE);
        assert!(low.power < high.power);
        assert!(low.throughput < high.throughput);
        // Low-intensity throughput is exactly the offered load.
        assert!(
            (low.throughput.value() - 0.2 * s.truth().t_max().value()).abs()
                < 0.05 * s.truth().t_max().value(),
            "ondemand must serve the offered load"
        );
    }

    #[test]
    fn performance_governor_pins_top_state() {
        let mut s = server();
        s.set_governor(Governor::Performance);
        let sample = s.run(Ratio::ONE);
        assert_eq!(sample.state_index, s.states().len() - 1);
    }

    #[test]
    fn state_sweep_yields_distinct_profile_points() {
        let s = server();
        let mut last_power = Watts::ZERO;
        let mut last_thr = Throughput::ZERO;
        for idx in 1..s.states().len() {
            let sample = s.sample_at_state(idx, Ratio::ONE);
            assert!(sample.power > last_power, "powers must be distinct");
            assert!(sample.throughput >= last_thr);
            last_power = sample.power;
            last_thr = sample.throughput;
        }
    }

    #[test]
    fn gpu_server_runs_rodinia() {
        let s = SimServer::new(
            ServerId::new(1),
            PlatformKind::TitanXp,
            WorkloadKind::SradV1,
        )
        .unwrap();
        let sample = s.sample_at_state(s.states().len() - 1, Ratio::ONE);
        assert!(sample.power > Watts::new(149.0));
        assert!(sample.throughput > Throughput::ZERO);
    }

    #[test]
    fn gpu_server_rejects_cpu_workload() {
        assert!(SimServer::new(
            ServerId::new(2),
            PlatformKind::TitanXp,
            WorkloadKind::SpecJbb
        )
        .is_err());
    }
}
