//! The discrete-time simulation engine: the paper's prototype, in silico.
//!
//! Each 15-minute epoch the engine (playing the roles of Monitor and
//! plant) feeds the controller the battery view and rack composition,
//! receives its decision, applies it to the simulated rack, dispatches the
//! physical power flows through the PDU, and reports the observations
//! back — exactly the loop of the paper's Fig. 4.

use std::sync::Arc;
use std::time::{Duration, Instant};

use greenhetero_core::controller::{
    Controller, EpochDecision, EpochResilience, GroupFeedback, RackSpec,
};
use greenhetero_core::database::{PerfDatabase, ProfileSample};
use greenhetero_core::error::CoreError;
use greenhetero_core::metrics::EpuAccumulator;
use greenhetero_core::policies::{AllocationOracle, PolicyKind};
use greenhetero_core::solver::SharedSolveCache;
use greenhetero_core::sources::ChargeSource;
use greenhetero_core::telemetry::{names, EpochEvent, Histogram, SpanRecord, Telemetry};
use greenhetero_core::types::{ConfigId, Ratio, SimTime, Throughput, WattHours, Watts, WorkloadId};
use greenhetero_power::battery::BatteryBank;
use greenhetero_power::gauges::FlowGauges;
use greenhetero_power::grid::GridFeed;
use greenhetero_power::meter::PowerMeter;
use greenhetero_power::pdu::{Pdu, PowerFlows};
use greenhetero_power::solar::synthesize_shared;
use greenhetero_power::trace::PowerTrace;
use greenhetero_server::rack::{Rack, RackMeasurement};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::report::{EpochRecord, RunReport};
use crate::scenario::Scenario;

/// A runnable simulation instance.
#[derive(Debug)]
pub struct Simulation {
    scenario: Scenario,
    controller: Controller,
    rack: Arc<Rack>,
    rack_spec: RackSpec,
    bank: BatteryBank,
    grid: GridFeed,
    pdu: Pdu,
    solar: Arc<PowerTrace>,
    /// Per-rack multiplier on the shared solar feed (`1.0` for solo
    /// runs — multiplying by exactly `1.0` is bit-transparent).
    solar_scale: f64,
    /// This instance's rack index within a fleet (`0` for solo runs).
    rack_id: u32,
    meter: PowerMeter,
    perf_rng: StdRng,
    time: SimTime,
    /// Scheduled battery string failures, with a fired flag per event.
    battery_faults: Vec<(SimTime, Ratio, bool)>,
    telemetry: Telemetry,
    flow_gauges: FlowGauges,
    epoch_wall_seconds: Arc<Histogram>,
    enforce_seconds: Arc<Histogram>,
    queue_wait_seconds: Arc<Histogram>,
}

impl Simulation {
    /// Builds a simulation from a scenario.
    ///
    /// # Errors
    ///
    /// Propagates scenario validation and construction failures.
    pub fn new(scenario: Scenario) -> Result<Self, CoreError> {
        scenario.validate()?;
        let rack = Arc::new(scenario.build_rack()?);
        // Solar memo hits/misses are process-global state (the same
        // scenario run twice is a miss then a hit), so they are never
        // recorded into the per-run registry — a ledger must be a pure
        // function of the scenario. `solar::cache_stats` has the totals.
        let (solar, _cache_hit) = synthesize_shared(&scenario.solar_config()?)?;
        let telemetry = scenario.telemetry.build()?;
        Simulation::with_substrate(scenario, rack, solar, 1.0, 0, telemetry, None)
    }

    /// Builds a simulation on a pre-built, possibly shared substrate: the
    /// fleet entry point. `solar_scale` multiplies the shared feed
    /// (`1.0` is bit-transparent), `rack_id` tags telemetry, and
    /// `profile_base` (when given) becomes the controller's shared
    /// read-through profiling database.
    ///
    /// The scenario must already be validated; the caller owns telemetry
    /// construction so a fleet can pair per-rack registries with one
    /// shared sink, and a serve daemon can host many sessions on one
    /// rack model and one solar trace.
    ///
    /// # Errors
    ///
    /// Propagates controller, bank, and grid construction failures.
    pub fn with_substrate(
        scenario: Scenario,
        rack: Arc<Rack>,
        solar: Arc<PowerTrace>,
        solar_scale: f64,
        rack_id: u32,
        telemetry: Telemetry,
        profile_base: Option<Arc<PerfDatabase>>,
    ) -> Result<Self, CoreError> {
        let rack_spec = rack.controller_spec()?;
        let mut controller = Controller::new(scenario.controller.clone(), scenario.policy)?;
        controller.set_telemetry(telemetry.clone());
        if let Some(base) = profile_base {
            controller.set_profile_base(base);
        }
        let flow_gauges = FlowGauges::register(telemetry.registry());
        let epoch_wall_seconds = telemetry.registry().histogram(names::EPOCH_WALL_SECONDS);
        let enforce_seconds = telemetry.registry().histogram(names::ENFORCE_SECONDS);
        let queue_wait_seconds = telemetry
            .registry()
            .histogram(names::RUNNER_QUEUE_WAIT_SECONDS);
        let bank = BatteryBank::new(scenario.battery)?;
        let grid = GridFeed::new(scenario.grid_budget, scenario.tariff)?;
        let meter = PowerMeter::new(scenario.meter_noise, scenario.seed ^ 0x4d45_5445);
        let perf_rng = StdRng::seed_from_u64(scenario.seed ^ 0x5045_5246);
        let battery_faults = scenario
            .faults
            .battery_failures()
            .into_iter()
            .map(|(at, surviving)| (at, surviving, false))
            .collect();
        Ok(Simulation {
            scenario,
            controller,
            rack,
            rack_spec,
            bank,
            grid,
            pdu: Pdu::new(),
            solar,
            solar_scale,
            rack_id,
            meter,
            perf_rng,
            time: SimTime::ZERO,
            battery_faults,
            telemetry,
            flow_gauges,
            epoch_wall_seconds,
            enforce_seconds,
            queue_wait_seconds,
        })
    }

    /// Attaches a cross-rack [`SharedSolveCache`] to the controller: racks
    /// (or serve sessions) on a shared substrate that face bit-identical
    /// allocation problems pay one cold solve per epoch and reuse the
    /// answer. Call before the first epoch is stepped. Purely an
    /// acceleration — all records, ledgers, and events are bit-identical
    /// with the cache attached, detached, or resized
    /// (`crates/sim/tests/fleet.rs` proves it).
    pub fn set_shared_solve_cache(&mut self, shared: Arc<SharedSolveCache>) {
        self.controller.set_shared_solve_cache(shared);
    }

    /// The scenario being simulated.
    #[must_use]
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The run's telemetry handle (shared with the controller).
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Records how long this run sat in a sweep runner's queue before a
    /// worker picked it up.
    pub fn note_queue_wait(&self, wait: Duration) {
        self.queue_wait_seconds.record_duration(wait);
    }

    /// Runs the full scenario and reports.
    ///
    /// # Errors
    ///
    /// Propagates controller failures (these indicate bugs, not expected
    /// run-time conditions).
    pub fn run(mut self) -> Result<RunReport, CoreError> {
        let epochs_total = self.epochs_total();
        let mut records = Vec::with_capacity(epochs_total as usize);
        let mut epu = EpuAccumulator::new();

        for _ in 0..epochs_total {
            records.push(self.step_epoch_record(&mut epu)?);
        }

        Ok(self.finish(records, epu))
    }

    /// How many epochs the scenario spans.
    pub(crate) fn epochs_total(&self) -> u64 {
        (self.scenario.days * 86_400) / self.controller.config().epoch_len.as_secs()
    }

    /// Aggregates stepped records into the final report, consuming the
    /// simulation. The lock-step fleet loop steps epochs itself and calls
    /// this at the end; [`Simulation::run`] is exactly step-all + finish.
    pub(crate) fn finish(self, records: Vec<EpochRecord>, epu: EpuAccumulator) -> RunReport {
        let epoch_len = self.controller.config().epoch_len;
        let mut unserved_energy = WattHours::ZERO;
        for e in &records {
            unserved_energy += e.unserved * epoch_len;
        }
        let degraded_epochs = records.iter().filter(|e| e.degraded).count() as u64;
        // Recovery latency: epochs from the last injected fault clearing to
        // the first subsequent non-degraded epoch.
        let recovery_latency_epochs = self.scenario.faults.last_clear().and_then(|clear| {
            let first = records.iter().position(|e| e.time >= clear)?;
            records[first..]
                .iter()
                .position(|e| !e.degraded)
                .map(|d| d as u64)
        });

        RunReport {
            epochs: records,
            epu,
            grid_energy: self.grid.energy_drawn(),
            grid_peak: self.grid.peak_draw(),
            grid_cost: self.grid.cost(),
            battery_cycles: self.bank.cycles(),
            unserved_energy,
            degraded_epochs,
            recovery_latency_epochs,
            ledger: self.telemetry.ledger(),
        }
    }

    /// Steps one epoch and returns its record. Batch runs and the stepper
    /// keep every record; fleet-scale callers fold each into streaming
    /// accumulators and drop it — O(racks) transient state instead of
    /// O(racks × epochs) resident record vectors.
    pub(crate) fn step_epoch_record(
        &mut self,
        epu: &mut EpuAccumulator,
    ) -> Result<EpochRecord, CoreError> {
        let epoch_started = Instant::now();
        let epoch_len = self.controller.config().epoch_len;
        let intensity = self.scenario.intensity.at(self.time);
        let faults = self
            .scenario
            .faults
            .state_at(self.time, self.rack.groups().len());

        // Battery string failures strike once, at their scheduled instant,
        // and the capacity loss persists for the rest of the run.
        for (at, surviving, fired) in &mut self.battery_faults {
            if !*fired && *at <= self.time {
                self.bank.derate(*surviving);
                *fired = true;
            }
        }

        // An inverter dropout takes the whole PV feed offline; a brownout
        // caps the utility feed. Both are invisible to the controller until
        // the epoch's observations come back — exactly like the plant.
        let actual_solar = if faults.solar_out {
            Watts::ZERO
        } else {
            self.solar.mean_over(self.time, epoch_len) * self.solar_scale
        };
        let grid_budget = self.scenario.grid_budget * faults.grid_factor;
        self.grid.set_budget(grid_budget);
        let view = self.bank.view(epoch_len);

        // Servers still up after injected crashes, per group.
        let online: Vec<u32> = self
            .rack
            .groups()
            .iter()
            .zip(&faults.crashed)
            .map(|(g, &c)| g.count.saturating_sub(c))
            .collect();
        let offline_servers: u32 = self
            .rack
            .groups()
            .iter()
            .zip(&online)
            .map(|(g, &o)| g.count - o)
            .sum();

        // The controller schedules over what the monitor reports as alive.
        let spec = RackSpec::new(
            self.rack_spec
                .groups
                .iter()
                .zip(&online)
                .map(|(g, &o)| {
                    let mut g = *g;
                    g.count = o;
                    g
                })
                .collect(),
        )?;

        // The Manual policy physically tries candidate allocations; other
        // policies are model-driven and get no oracle.
        let rack = &self.rack;
        let oracle_fn =
            |per_server: &[Watts]| rack.measured_throughput_active(per_server, &online, intensity);
        let oracle: Option<&dyn AllocationOracle> = if self.scenario.policy == PolicyKind::Manual {
            Some(&oracle_fn)
        } else {
            None
        };

        let decision = self
            .controller
            .begin_epoch(&spec, &view, grid_budget, oracle)?;

        let epoch_id = self.controller.epoch();
        // A training epoch runs the rack unconstrained: every group at its
        // workload peak, nothing shed, no PAR. Both kinds of epoch then
        // take one path to the plant.
        let training = matches!(decision, EpochDecision::Train { .. });
        let (plan, per_server, par, resilience) = match decision {
            EpochDecision::Train { pairs, plan } => {
                // A telemetry outage makes the sweeps unreadable: the
                // controller will simply ask again next epoch.
                if !faults.telemetry_out {
                    self.train(&pairs, intensity)?;
                }
                let full = self
                    .rack
                    .groups()
                    .iter()
                    .map(|g| g.server().truth().envelope().peak())
                    .collect();
                (plan, full, None, EpochResilience::nominal(online.len()))
            }
            EpochDecision::Run {
                plan,
                allocation,
                resilience,
            } => {
                let par = allocation.shares.first().copied();
                (plan, allocation.per_server, par, resilience)
            }
        };

        // Shed servers come out of the online population.
        let active: Vec<u32> = online
            .iter()
            .zip(&resilience.shed)
            .map(|(&o, &s)| o.saturating_sub(s))
            .collect();
        let enforce_started = Instant::now();
        let m = self.rack.measure_active(&per_server, &active, intensity);
        let flows = self.pdu.dispatch(
            &plan,
            actual_solar,
            m.total_power(),
            &mut self.bank,
            &mut self.grid,
            epoch_len,
        );
        let enforce = enforce_started.elapsed();
        // EPU (Eq. 1): of the power genuinely offered for compute (never
        // more than the surviving rack could demand), how much was
        // productively consumed.
        let demand = self.rack.demand_at_active(&online, intensity);
        let supplied = plan.budget().min(demand);
        epu.record(m.total_power().min(supplied), supplied);

        if faults.telemetry_out {
            // Meters dark: the controller holds its predictors and models,
            // only the epoch clock advances.
            self.controller.end_epoch_stale();
        } else {
            // A training epoch's samples already went in with its sweeps.
            let feedback = if training {
                Vec::new()
            } else {
                self.feedback(&m, &active)
            };
            self.controller.end_epoch(actual_solar, demand, &feedback);
        }

        let unserved = flows.unserved();
        let record = EpochRecord {
            epoch: epoch_id,
            time: self.time,
            training,
            case: plan.case,
            budget: plan.budget(),
            demand,
            solar: actual_solar,
            load: m.total_power(),
            battery_discharge: flows.from_battery,
            battery_charge: flows.charging,
            grid_load: flows.from_grid,
            grid_charge: if flows.charge_source == Some(ChargeSource::Grid) {
                flows.charging
            } else {
                Watts::ZERO
            },
            soc: self.bank.soc(),
            intensity,
            throughput: m.total_throughput(),
            par,
            unserved,
            shed_servers: resilience.shed_total(),
            offline_servers,
            degraded: resilience.is_degraded() || faults.telemetry_out || unserved.value() > 1e-6,
        };

        self.enforce_seconds.record_duration(enforce);
        let epoch_wall = epoch_started.elapsed();
        self.epoch_wall_seconds.record_duration(epoch_wall);
        self.flow_gauges.record(&flows, record.soc);
        if self.telemetry.sink_enabled() {
            self.emit_epoch_event(&record, &flows, enforce, epoch_wall);
        }

        self.time += epoch_len;
        Ok(record)
    }

    /// Runs the training sweep of each requested pair (Algorithm 1,
    /// lines 4–5): the ondemand governor with ample power, read through
    /// the meters, stored in the controller's database.
    fn train(
        &mut self,
        pairs: &[(ConfigId, WorkloadId)],
        intensity: Ratio,
    ) -> Result<(), CoreError> {
        let sample_count = self.controller.config().samples_per_training() as usize;
        for (config, workload) in pairs {
            let group_idx = self
                .rack
                .groups()
                .iter()
                .position(|g| g.platform.id() == *config && g.workload.id() == *workload)
                .ok_or_else(|| CoreError::InvalidConfig {
                    reason: format!("training requested for unknown pair {config}"),
                })?;
            let envelope = self.rack.groups()[group_idx].server().truth().envelope();
            let sweep = self.rack.training_sweep(group_idx, sample_count, intensity);
            let samples: Vec<ProfileSample> = sweep
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    ProfileSample::new(
                        self.meter.read(s.power),
                        noisy_perf(&mut self.perf_rng, self.scenario.perf_noise, s.throughput),
                        self.time + self.controller.config().sample_period * i as u64,
                    )
                })
                .collect();
            self.controller
                .complete_training(*config, *workload, envelope, &samples)?;
        }
        Ok(())
    }

    /// The monitor's feedback from a run epoch: one metered, noisy
    /// observation per group with live servers drawing at least idle
    /// power (a stranded, powered-off server is not a point of
    /// Perf = f(Power)).
    fn feedback(&mut self, m: &RackMeasurement, active: &[u32]) -> Vec<GroupFeedback> {
        let noise = self.scenario.perf_noise;
        self.rack
            .groups()
            .iter()
            .zip(m.groups.iter().zip(active))
            .filter(|(g, (gm, a))| {
                **a > 0 && gm.sample.power >= g.server().truth().envelope().idle()
            })
            .map(|(g, (gm, _))| GroupFeedback {
                config: g.platform.id(),
                workload: g.workload.id(),
                per_server_power: self.meter.read(gm.sample.power),
                per_server_perf: noisy_perf(&mut self.perf_rng, noise, gm.sample.throughput),
                at: self.time,
            })
            .collect()
    }

    /// Builds and sends the epoch's event (and the enforcement span).
    /// Only called when the sink is enabled — the disabled path never
    /// allocates.
    fn emit_epoch_event(
        &self,
        record: &EpochRecord,
        flows: &PowerFlows,
        enforce: Duration,
        epoch_wall: Duration,
    ) {
        let trace = self.controller.epoch_trace();
        let sink = self.telemetry.sink();
        sink.record_span(&SpanRecord::new("sim.enforce", record.epoch, enforce));
        sink.record_epoch(&EpochEvent {
            epoch: record.epoch,
            rack_id: self.rack_id,
            time: record.time,
            training: record.training,
            case: record.case,
            degrade: trace.degrade,
            engine: trace.engine,
            predict: trace.predict,
            sources: trace.select_sources,
            solve: trace.solve,
            enforce,
            epoch_wall,
            budget: record.budget,
            demand: record.demand,
            solar: record.solar,
            load: record.load,
            renewable_to_load: flows.from_renewable,
            battery_to_load: flows.from_battery,
            grid_to_load: flows.from_grid,
            charging: flows.charging,
            curtailed: flows.curtailed,
            unserved: record.unserved,
            soc: record.soc,
            intensity: record.intensity,
            throughput: record.throughput,
            shed: record.shed_servers,
            offline: record.offline_servers,
            rejected_feedback: trace.rejected_feedback,
            quarantines: trace.quarantines,
            cache_hits: trace.cache_hits,
            cache_misses: trace.cache_misses,
            cache_evicts: trace.cache_evictions,
            warm_starts: trace.warm_starts,
        });
    }
}

/// Applies relative gaussian noise of `sigma` to a throughput counter.
fn noisy_perf(rng: &mut StdRng, sigma: f64, value: Throughput) -> Throughput {
    if sigma <= 0.0 {
        return value;
    }
    let n = standard_normal(rng) * sigma;
    Throughput::new((value.value() * (1.0 + n)).max(0.0))
}

fn standard_normal(rng: &mut StdRng) -> f64 {
    loop {
        let u1: f64 = rng.random();
        let u2: f64 = rng.random();
        if u1 > f64::EPSILON {
            return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        }
    }
}

/// Convenience: build and run a scenario in one call.
///
/// # Errors
///
/// Propagates [`Simulation::new`] and [`Simulation::run`] failures.
pub fn run_scenario(scenario: Scenario) -> Result<RunReport, CoreError> {
    Simulation::new(scenario)?.run()
}

/// Drives a [`Simulation`] one epoch at a time, owning the record and
/// EPU accumulators that [`Simulation::run`] keeps on its stack.
///
/// This is the long-lived-session entry point: a serve daemon steps a
/// `Stepper` on its own cadence, reads each decision as it lands, and
/// can abandon the instance mid-run (e.g. after a panic) — rebuilding
/// from the same scenario and re-stepping to the old cursor reproduces
/// the abandoned state bit-for-bit, because stepping is deterministic.
/// `step-all + finish` remains byte-identical to [`Simulation::run`].
#[derive(Debug)]
pub struct Stepper {
    sim: Simulation,
    records: Vec<EpochRecord>,
    epu: EpuAccumulator,
    epochs_total: u64,
}

impl Stepper {
    /// Builds a stepper from a scenario.
    ///
    /// # Errors
    ///
    /// Propagates [`Simulation::new`] failures.
    pub fn new(scenario: Scenario) -> Result<Self, CoreError> {
        Ok(Stepper::from_simulation(Simulation::new(scenario)?))
    }

    /// Wraps an already-built simulation (e.g. one constructed on a
    /// shared substrate via [`Simulation::with_substrate`]).
    #[must_use]
    pub fn from_simulation(sim: Simulation) -> Self {
        let epochs_total = sim.epochs_total();
        Stepper {
            sim,
            records: Vec::with_capacity(epochs_total as usize),
            epu: EpuAccumulator::new(),
            epochs_total,
        }
    }

    /// Steps one epoch. Returns the freshly produced record, or `None`
    /// once the scenario's horizon has been reached.
    ///
    /// # Errors
    ///
    /// Propagates controller failures (bugs, not run-time conditions).
    pub fn step(&mut self) -> Result<Option<&EpochRecord>, CoreError> {
        if self.cursor() >= self.epochs_total {
            return Ok(None);
        }
        let record = self.sim.step_epoch_record(&mut self.epu)?;
        self.records.push(record);
        Ok(self.records.last())
    }

    /// Epochs stepped so far.
    #[must_use]
    pub fn cursor(&self) -> u64 {
        self.records.len() as u64
    }

    /// Epochs the scenario spans in total.
    #[must_use]
    pub fn epochs_total(&self) -> u64 {
        self.epochs_total
    }

    /// The records stepped so far, oldest first.
    #[must_use]
    pub fn records(&self) -> &[EpochRecord] {
        &self.records
    }

    /// The underlying simulation's scenario.
    #[must_use]
    pub fn scenario(&self) -> &Scenario {
        self.sim.scenario()
    }

    /// Consumes the stepper into a report over the epochs stepped so
    /// far. After a full run this is byte-identical to
    /// [`Simulation::run`] on the same scenario.
    #[must_use]
    pub fn finish(self) -> RunReport {
        self.sim.finish(self.records, self.epu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenhetero_core::sources::SupplyCase;

    fn quick_scenario(policy: PolicyKind) -> Scenario {
        Scenario {
            servers_per_type: 2,
            days: 1,
            ..Scenario::paper_runtime(policy)
        }
    }

    #[test]
    fn one_day_run_produces_96_epochs() {
        let report = run_scenario(quick_scenario(PolicyKind::GreenHetero)).unwrap();
        assert_eq!(report.epochs.len(), 96);
        // First epoch trains the database.
        assert!(report.epochs[0].training);
        assert!(!report.epochs[1].training);
    }

    #[test]
    // Exact float equality is the contract under test: the stepper must
    // reproduce the batch run bit for bit.
    #[allow(clippy::float_cmp)]
    fn stepper_matches_batch_run_bit_for_bit() {
        let batch = run_scenario(quick_scenario(PolicyKind::GreenHetero)).unwrap();
        let mut stepper = Stepper::new(quick_scenario(PolicyKind::GreenHetero)).unwrap();
        assert_eq!(stepper.epochs_total(), 96);
        let mut stepped = 0u64;
        while let Some(record) = stepper.step().unwrap() {
            assert_eq!(*record, batch.epochs[stepped as usize]);
            stepped += 1;
            assert_eq!(stepper.cursor(), stepped);
        }
        assert_eq!(stepper.cursor(), stepper.epochs_total());
        assert_eq!(stepped, 96);
        let report = stepper.finish();
        assert_eq!(report.epochs, batch.epochs);
        assert_eq!(report.grid_energy, batch.grid_energy);
        assert_eq!(report.grid_peak, batch.grid_peak);
        assert_eq!(report.grid_cost, batch.grid_cost);
        assert_eq!(report.unserved_energy, batch.unserved_energy);
        assert_eq!(report.degraded_epochs, batch.degraded_epochs);
    }

    #[test]
    fn stepper_rebuild_and_replay_resumes_mid_run() {
        // The serve daemon's crash-recovery path: abandon a stepper at an
        // arbitrary cursor, rebuild from the spec, replay to the cursor,
        // and continue — the tail must match an undisturbed run exactly.
        let mut undisturbed = Stepper::new(quick_scenario(PolicyKind::GreenHetero)).unwrap();
        while undisturbed.step().unwrap().is_some() {}
        let reference = undisturbed.finish();

        let mut first = Stepper::new(quick_scenario(PolicyKind::GreenHetero)).unwrap();
        for _ in 0..37 {
            first.step().unwrap().unwrap();
        }
        let cursor = first.cursor();
        drop(first); // "panic": the instance is lost

        let mut rebuilt = Stepper::new(quick_scenario(PolicyKind::GreenHetero)).unwrap();
        for _ in 0..cursor {
            rebuilt.step().unwrap().unwrap();
        }
        while rebuilt.step().unwrap().is_some() {}
        assert_eq!(rebuilt.finish().epochs, reference.epochs);
    }

    #[test]
    fn cases_follow_the_sun() {
        let report = run_scenario(quick_scenario(PolicyKind::GreenHetero)).unwrap();
        // Midnight epochs are Case C; midday epochs are Case A or B.
        let by_hour = |h: u64| &report.epochs[(h * 4) as usize];
        assert_eq!(by_hour(1).case, SupplyCase::C);
        assert_ne!(by_hour(12).case, SupplyCase::C);
    }

    #[test]
    fn battery_discharges_at_night_and_charges_by_day() {
        let report = run_scenario(quick_scenario(PolicyKind::GreenHetero)).unwrap();
        let night_discharge: f64 = report.epochs[..20]
            .iter()
            .map(|e| e.battery_discharge.value())
            .sum();
        assert!(night_discharge > 0.0, "battery should carry the night");
        let day_charge: f64 = report
            .epochs
            .iter()
            .filter(|e| e.case == SupplyCase::A)
            .map(|e| e.battery_charge.value())
            .sum();
        assert!(day_charge > 0.0, "surplus solar should charge the battery");
        assert!(report.battery_cycles > 0.0);
    }

    #[test]
    fn greenhetero_beats_uniform_on_the_paper_runtime() {
        let gh = run_scenario(quick_scenario(PolicyKind::GreenHetero)).unwrap();
        let uni = run_scenario(quick_scenario(PolicyKind::Uniform)).unwrap();
        let gain = gh.mean_throughput().value() / uni.mean_throughput().value();
        assert!(gain > 1.05, "expected a clear gain, got {gain:.3}x");
        // And better power utilization.
        assert!(gh.epu().value() >= uni.epu().value());
    }

    #[test]
    fn all_policies_run_to_completion() {
        for policy in PolicyKind::ALL {
            let report = run_scenario(quick_scenario(policy)).unwrap();
            assert_eq!(report.epochs.len(), 96, "{policy}");
            assert!(report.mean_throughput().value() > 0.0, "{policy}");
        }
    }

    #[test]
    fn deterministic_given_a_seed() {
        let a = run_scenario(quick_scenario(PolicyKind::GreenHetero)).unwrap();
        let b = run_scenario(quick_scenario(PolicyKind::GreenHetero)).unwrap();
        assert_eq!(a.epochs.len(), b.epochs.len());
        for (x, y) in a.epochs.iter().zip(&b.epochs) {
            assert_eq!(x.throughput, y.throughput);
            assert_eq!(x.budget, y.budget);
        }
    }

    #[test]
    fn grid_usage_respects_budget() {
        let scenario = quick_scenario(PolicyKind::GreenHetero);
        let budget = scenario.grid_budget;
        let report = run_scenario(scenario).unwrap();
        assert!(report.grid_peak <= budget);
        for e in &report.epochs {
            assert!(e.grid_load + e.grid_charge <= budget + Watts::new(1e-6));
        }
    }

    #[test]
    fn fault_free_runs_report_no_degradation() {
        let report = run_scenario(quick_scenario(PolicyKind::GreenHetero)).unwrap();
        assert_eq!(report.degraded_epochs, 0);
        // Dispatch arithmetic may leave sub-nanowatt-hour float residue.
        assert!(report.unserved_energy.value() < 1e-9);
        assert_eq!(report.recovery_latency_epochs, None);
        for e in &report.epochs {
            assert_eq!(e.shed_servers, 0);
            assert_eq!(e.offline_servers, 0);
            assert!(!e.degraded);
        }
    }
}
