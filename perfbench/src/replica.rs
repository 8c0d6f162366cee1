//! The traced replica of the engine's epoch step.
//!
//! `greenhetero_sim::engine::Simulation` steps a rack through one
//! epoch by calling into the controller, server and power layers. The
//! replica makes the same public calls, with the same arguments and in
//! the same order, so its records equal the program's bit for bit (the
//! trace phases check this against `run_sequential` and `run_scenario`
//! every time). With tracing on, it times each call and charges the
//! time to the layer it belongs to. Whatever the step does between
//! those calls is `engine.glue`, the whole minus its parts, so the parts
//! add up to the whole by construction.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use greenhetero_core::controller::{Controller, EpochDecision, GroupFeedback, RackSpec};
use greenhetero_core::database::{PerfDatabase, ProfileSample};
use greenhetero_core::error::CoreError;
use greenhetero_core::metrics::EpuAccumulator;
use greenhetero_core::policies::{AllocationOracle, PolicyKind};
use greenhetero_core::solver::SharedSolveCache;
use greenhetero_core::sources::ChargeSource;
use greenhetero_core::telemetry::{
    names, EpochEvent, Histogram, RunLedger, SpanRecord, Telemetry, TelemetrySink,
};
use greenhetero_core::types::{Ratio, SimTime, Throughput, Watts};
use greenhetero_power::battery::BatteryBank;
use greenhetero_power::gauges::FlowGauges;
use greenhetero_power::grid::GridFeed;
use greenhetero_power::meter::PowerMeter;
use greenhetero_power::pdu::{Pdu, PowerFlows};
use greenhetero_power::solar::synthesize_shared;
use greenhetero_power::trace::PowerTrace;
use greenhetero_server::rack::Rack;
use greenhetero_sim::fleet::{pretrain_database, FleetEpochRecord, FleetSpec, RackSummary};
use greenhetero_sim::report::EpochRecord;
use greenhetero_sim::scenario::{Scenario, TelemetrySpec};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The layers a rack-epoch's time is charged to, in report order.
#[derive(Debug, Clone, Copy)]
pub enum Layer {
    Predict,
    Sources,
    Solve,
    BeginOther,
    Train,
    EndEpoch,
    Measure,
    Plant,
    Dispatch,
    Meter,
    Emit,
    Whole,
}

/// Per-layer metric names, indexed by `Layer as usize`.
pub const LAYER_NAMES: [&str; 12] = [
    "controller.predict_us",
    "controller.sources_us",
    "controller.solve_us",
    "controller.begin_other_us",
    "controller.train_us",
    "controller.end_epoch_us",
    "server.measure_us",
    "power.plant_us",
    "power.dispatch_us",
    "power.meter_us",
    "telemetry.emit_us",
    "engine.rack_step_us",
];

/// In-memory span totals: nanoseconds per layer, written out once the
/// run ends. A disabled tracer reads no clock at all.
#[derive(Debug, Clone)]
pub struct Tracer {
    on: bool,
    ns: [u128; LAYER_NAMES.len()],
    pub rack_epochs: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            ns: [0; LAYER_NAMES.len()],
            rack_epochs: 0,
        }
    }

    fn start(&self) -> Option<Instant> {
        self.on.then(Instant::now)
    }

    fn stop(&mut self, layer: Layer, started: Option<Instant>) {
        if let Some(s) = started {
            self.add(layer, s.elapsed());
        }
    }

    fn add(&mut self, layer: Layer, took: Duration) {
        self.ns[layer as usize] += took.as_nanos();
    }

    fn sub(&mut self, layer: Layer, took: Duration) {
        let cell = &mut self.ns[layer as usize];
        *cell = cell.saturating_sub(took.as_nanos());
    }

    /// Self time per rack-epoch, µs, for every layer plus the glue
    /// remainder.
    pub fn per_rack_epoch_us(&self) -> Vec<(&'static str, f64)> {
        let n = self.rack_epochs.max(1) as f64;
        let us = |ns: u128| ns as f64 / 1e3 / n;
        let whole = self.ns[Layer::Whole as usize];
        let parts: u128 = self.ns[..Layer::Whole as usize].iter().sum();
        let mut out: Vec<(&'static str, f64)> = LAYER_NAMES
            .iter()
            .zip(&self.ns)
            .map(|(name, &ns)| (*name, us(ns)))
            .collect();
        out.push(("engine.glue_us", us(whole.saturating_sub(parts))));
        out
    }
}

/// Mirror of the fleet's private ordered event sink: buffers epoch
/// events by (epoch, rack) and forwards them in that order at each
/// epoch boundary; spans pass straight through.
#[derive(Debug)]
pub struct OrderedSink {
    inner: Telemetry,
    pending: Mutex<BTreeMap<(u64, u32), EpochEvent>>,
}

impl OrderedSink {
    pub fn new(inner: Telemetry) -> Self {
        OrderedSink {
            inner,
            pending: Mutex::new(BTreeMap::new()),
        }
    }

    fn flush_through(&self, epoch: u64) {
        let ready: Vec<EpochEvent> = {
            let mut pending = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
            let rest = pending.split_off(&(epoch + 1, 0));
            std::mem::replace(&mut *pending, rest)
                .into_values()
                .collect()
        };
        let sink = self.inner.sink();
        for event in &ready {
            sink.record_epoch(event);
        }
    }
}

impl TelemetrySink for OrderedSink {
    fn enabled(&self) -> bool {
        self.inner.sink_enabled()
    }

    fn record_span(&self, span: &SpanRecord) {
        self.inner.sink().record_span(span);
    }

    fn record_epoch(&self, event: &EpochEvent) {
        self.pending
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert((event.epoch.raw(), event.rack_id), event.clone());
    }
}

/// One rack's owned state, field for field what `Simulation` holds.
pub struct RackReplica {
    scenario: Scenario,
    controller: Controller,
    rack: Arc<Rack>,
    rack_spec: RackSpec,
    bank: BatteryBank,
    grid: GridFeed,
    pdu: Pdu,
    solar: Arc<PowerTrace>,
    solar_scale: f64,
    rack_id: u32,
    meter: PowerMeter,
    perf_rng: StdRng,
    time: SimTime,
    battery_faults: Vec<(SimTime, Ratio, bool)>,
    telemetry: Telemetry,
    flow_gauges: FlowGauges,
    epoch_wall_seconds: Arc<Histogram>,
    enforce_seconds: Arc<Histogram>,
    epu: EpuAccumulator,
}

impl RackReplica {
    /// Builds a rack on a pre-built substrate, as
    /// `Simulation::with_substrate` does.
    #[allow(clippy::too_many_arguments)]
    pub fn with_substrate(
        scenario: Scenario,
        rack: Arc<Rack>,
        solar: Arc<PowerTrace>,
        solar_scale: f64,
        rack_id: u32,
        telemetry: Telemetry,
        profile_base: Option<Arc<PerfDatabase>>,
        shared: Option<Arc<SharedSolveCache>>,
    ) -> Result<Self, CoreError> {
        let rack_spec = rack.controller_spec()?;
        let mut controller = Controller::new(scenario.controller.clone(), scenario.policy)?;
        controller.set_telemetry(telemetry.clone());
        if let Some(base) = profile_base {
            controller.set_profile_base(base);
        }
        if let Some(shared) = shared {
            controller.set_shared_solve_cache(shared);
        }
        let registry = telemetry.registry();
        let flow_gauges = FlowGauges::register(registry);
        let epoch_wall_seconds = registry.histogram(names::EPOCH_WALL_SECONDS);
        let enforce_seconds = registry.histogram(names::ENFORCE_SECONDS);
        let _queue_wait = registry.histogram(names::RUNNER_QUEUE_WAIT_SECONDS);
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
        Ok(RackReplica {
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
            epu: EpuAccumulator::new(),
        })
    }

    /// Builds a solo rack, as `Simulation::new` does.
    pub fn solo(scenario: Scenario) -> Result<Self, CoreError> {
        scenario.validate()?;
        let rack = Arc::new(scenario.build_rack()?);
        let (solar, _hit) = synthesize_shared(&scenario.solar_config()?)?;
        let telemetry = scenario.telemetry.build()?;
        RackReplica::with_substrate(scenario, rack, solar, 1.0, 0, telemetry, None, None)
    }

    pub fn epochs_total(&self) -> u64 {
        (self.scenario.days * 86_400) / self.controller.config().epoch_len.as_secs()
    }

    fn noisy_perf(&mut self, value: Throughput) -> Throughput {
        if self.scenario.perf_noise <= 0.0 {
            return value;
        }
        let n = standard_normal(&mut self.perf_rng) * self.scenario.perf_noise;
        Throughput::new((value.value() * (1.0 + n)).max(0.0))
    }

    /// One epoch, call for call the engine's `step_epoch_record`.
    pub fn step(&mut self, t: &mut Tracer) -> Result<EpochRecord, CoreError> {
        let whole = t.start();
        let epoch_started = Instant::now();
        let epoch_len = self.controller.config().epoch_len;

        let s = t.start();
        let intensity = self.scenario.intensity.at(self.time);
        let faults = self
            .scenario
            .faults
            .state_at(self.time, self.rack.groups().len());
        for (at, surviving, fired) in &mut self.battery_faults {
            if !*fired && *at <= self.time {
                self.bank.derate(*surviving);
                *fired = true;
            }
        }
        let actual_solar = if faults.solar_out {
            Watts::ZERO
        } else {
            self.solar.mean_over(self.time, epoch_len) * self.solar_scale
        };
        let grid_budget = self.scenario.grid_budget * faults.grid_factor;
        self.grid.set_budget(grid_budget);
        let view = self.bank.view(epoch_len);
        t.stop(Layer::Plant, s);

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

        // The Manual policy's oracle measures the rack from inside the
        // solve; its time is the server layer's, not the controller's.
        let oracle_ns = Cell::new(0u128);
        let traced = t.on;
        let rack = &self.rack;
        let oracle_online = online.clone();
        let oracle_fn = |per_server: &[Watts]| {
            let s = traced.then(Instant::now);
            let out = rack
                .measure_active(per_server, &oracle_online, intensity)
                .total_throughput();
            if let Some(s) = s {
                oracle_ns.set(oracle_ns.get() + s.elapsed().as_nanos());
            }
            out
        };
        let oracle: Option<&dyn AllocationOracle> = if self.scenario.policy == PolicyKind::Manual {
            Some(&oracle_fn)
        } else {
            None
        };

        let s = t.start();
        let decision = self
            .controller
            .begin_epoch(&spec, &view, grid_budget, oracle)?;
        let begin = s.map_or(Duration::ZERO, |s| s.elapsed());
        if t.on {
            let trace = self.controller.epoch_trace();
            let oracle_time = Duration::from_nanos(oracle_ns.get() as u64);
            t.add(Layer::Predict, trace.predict);
            t.add(Layer::Sources, trace.select_sources);
            t.add(Layer::Solve, trace.solve);
            t.sub(Layer::Solve, oracle_time);
            t.add(Layer::Measure, oracle_time);
            let phases = trace.predict + trace.select_sources + trace.solve;
            t.add(Layer::BeginOther, begin.saturating_sub(phases));
        }

        let epoch_id = self.controller.epoch();
        let (record, flows, enforce) = match decision {
            EpochDecision::Train { pairs, plan } => {
                if !faults.telemetry_out {
                    let sample_count = self.controller.config().samples_per_training() as usize;
                    for (config, workload) in &pairs {
                        let group_idx = self
                            .rack
                            .groups()
                            .iter()
                            .position(|g| {
                                g.platform.id() == *config && g.workload.id() == *workload
                            })
                            .ok_or_else(|| CoreError::InvalidConfig {
                                reason: format!("training requested for unknown pair {config}"),
                            })?;
                        let envelope = self.rack.groups()[group_idx].server().truth().envelope();
                        let s = t.start();
                        let sweep = self.rack.training_sweep(group_idx, sample_count, intensity);
                        t.stop(Layer::Measure, s);
                        let s = t.start();
                        let samples: Vec<ProfileSample> = sweep
                            .iter()
                            .enumerate()
                            .map(|(i, x)| {
                                ProfileSample::new(
                                    self.meter.read(x.power),
                                    self.noisy_perf(x.throughput),
                                    self.time + self.controller.config().sample_period * i as u64,
                                )
                            })
                            .collect();
                        t.stop(Layer::Meter, s);
                        let s = t.start();
                        self.controller
                            .complete_training(*config, *workload, envelope, &samples)?;
                        t.stop(Layer::Train, s);
                    }
                }
                let full: Vec<Watts> = self
                    .rack
                    .groups()
                    .iter()
                    .map(|g| g.server().truth().envelope().peak())
                    .collect();
                let enforce_started = Instant::now();
                let s = t.start();
                let m = self.rack.measure_active(&full, &online, intensity);
                t.stop(Layer::Measure, s);
                let s = t.start();
                let flows = self.pdu.dispatch(
                    &plan,
                    actual_solar,
                    m.total_power(),
                    &mut self.bank,
                    &mut self.grid,
                    epoch_len,
                );
                t.stop(Layer::Dispatch, s);
                let enforce = enforce_started.elapsed();
                let s = t.start();
                let demand = self.rack.demand_at_active(&online, intensity);
                t.stop(Layer::Measure, s);
                let supplied = plan.budget().min(demand);
                self.epu.record(m.total_power().min(supplied), supplied);
                let s = t.start();
                if faults.telemetry_out {
                    self.controller.end_epoch_stale();
                } else {
                    self.controller.end_epoch(actual_solar, demand, &[]);
                }
                t.stop(Layer::EndEpoch, s);
                let unserved = flows.unserved();
                let record = EpochRecord {
                    epoch: epoch_id,
                    time: self.time,
                    training: true,
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
                    par: None,
                    unserved,
                    shed_servers: 0,
                    offline_servers,
                    degraded: faults.telemetry_out || unserved.value() > 1e-6,
                };
                (record, flows, enforce)
            }
            EpochDecision::Run {
                plan,
                allocation,
                resilience,
            } => {
                let active: Vec<u32> = online
                    .iter()
                    .zip(&resilience.shed)
                    .map(|(&o, &s)| o.saturating_sub(s))
                    .collect();
                let enforce_started = Instant::now();
                let s = t.start();
                let m = self
                    .rack
                    .measure_active(&allocation.per_server, &active, intensity);
                t.stop(Layer::Measure, s);
                let s = t.start();
                let flows = self.pdu.dispatch(
                    &plan,
                    actual_solar,
                    m.total_power(),
                    &mut self.bank,
                    &mut self.grid,
                    epoch_len,
                );
                t.stop(Layer::Dispatch, s);
                let enforce = enforce_started.elapsed();
                let s = t.start();
                let demand = self.rack.demand_at_active(&online, intensity);
                t.stop(Layer::Measure, s);
                let supplied = plan.budget().min(demand);
                self.epu.record(m.total_power().min(supplied), supplied);

                if faults.telemetry_out {
                    let s = t.start();
                    self.controller.end_epoch_stale();
                    t.stop(Layer::EndEpoch, s);
                } else {
                    let raw: Vec<_> = self
                        .rack
                        .groups()
                        .iter()
                        .zip(m.groups.iter().zip(&active))
                        .filter(|(g, (gm, a))| {
                            **a > 0 && gm.sample.power >= g.server().truth().envelope().idle()
                        })
                        .map(|(g, (gm, _))| {
                            (
                                g.platform.id(),
                                g.workload.id(),
                                gm.sample.power,
                                gm.sample.throughput,
                            )
                        })
                        .collect();
                    let s = t.start();
                    let feedback: Vec<GroupFeedback> = raw
                        .into_iter()
                        .map(|(config, workload, power, perf)| GroupFeedback {
                            config,
                            workload,
                            per_server_power: self.meter.read(power),
                            per_server_perf: self.noisy_perf(perf),
                            at: self.time,
                        })
                        .collect();
                    t.stop(Layer::Meter, s);
                    let s = t.start();
                    self.controller.end_epoch(actual_solar, demand, &feedback);
                    t.stop(Layer::EndEpoch, s);
                }

                let unserved = flows.unserved();
                let record = EpochRecord {
                    epoch: epoch_id,
                    time: self.time,
                    training: false,
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
                    par: allocation.shares.first().copied(),
                    unserved,
                    shed_servers: resilience.shed_total(),
                    offline_servers,
                    degraded: resilience.is_degraded()
                        || faults.telemetry_out
                        || unserved.value() > 1e-6,
                };
                (record, flows, enforce)
            }
        };

        let s = t.start();
        self.enforce_seconds.record_duration(enforce);
        let epoch_wall = epoch_started.elapsed();
        self.epoch_wall_seconds.record_duration(epoch_wall);
        self.flow_gauges.record(&flows, record.soc);
        if self.telemetry.sink_enabled() {
            self.emit_epoch_event(&record, &flows, enforce, epoch_wall);
        }
        t.stop(Layer::Emit, s);

        self.time += epoch_len;
        t.stop(Layer::Whole, whole);
        t.rack_epochs += 1;
        Ok(record)
    }

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

/// The program's own solver, database and degradation counts, as
/// ratios per rack-epoch or per lookup.
pub fn ledger_metrics(
    ledger: &RunLedger,
    rack_epochs: u64,
    degraded: u64,
    shared_reuse: f64,
) -> Vec<(&'static str, f64)> {
    let count = |name: &str| ledger.counter(name).unwrap_or(0);
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let hits = count(names::SOLVER_CACHE_HIT);
    let lookups = hits + count(names::SOLVER_CACHE_MISS);
    let refits = ledger.histogram(names::REFIT_RMSE).map_or(0, |h| h.count);
    vec![
        ("solver.shared_reuse", shared_reuse),
        ("solver.local_hit_rate", ratio(hits, lookups)),
        (
            "solver.warm_share",
            ratio(count(names::SOLVER_WARM_START), rack_epochs),
        ),
        ("database.refits_per_rack_epoch", ratio(refits, rack_epochs)),
        ("controller.degraded_share", ratio(degraded, rack_epochs)),
        (
            "solver.grid_wins",
            (count(names::SOLVER_GRID_WINS) + count(names::SOLVER_CROSS_CHECK_GRID_WIN)) as f64,
        ),
    ]
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

/// Runs a solo scenario through the replica and returns its records.
pub fn run_solo(scenario: Scenario, t: &mut Tracer) -> Result<Vec<EpochRecord>, CoreError> {
    let mut rack = RackReplica::solo(scenario)?;
    (0..rack.epochs_total()).map(|_| rack.step(t)).collect()
}

/// A fleet rebuilt from public parts: the substrate `FleetSpec::run`
/// builds, and one replica per rack with the seed and solar scale the
/// program's report says that rack had.
pub struct FleetReplica {
    racks: Vec<RackReplica>,
    sink: Option<Arc<OrderedSink>>,
}

impl FleetReplica {
    pub fn build(spec: &FleetSpec, summaries: &[RackSummary]) -> Result<Self, CoreError> {
        spec.validate()?;
        let base = &spec.base;
        let rack = Arc::new(base.build_rack()?);
        let (solar, _hit) = synthesize_shared(&base.solar_config()?)?;
        let profile_base = if spec.pretrain {
            Some(Arc::new(pretrain_database(&rack, base)?))
        } else {
            None
        };
        let sink = match &base.telemetry {
            TelemetrySpec::Off => None,
            other => Some(Arc::new(OrderedSink::new(other.build()?))),
        };
        let cache = (spec.shared_solve_capacity > 0)
            .then(|| Arc::new(SharedSolveCache::new(spec.shared_solve_capacity)));
        let racks = summaries
            .iter()
            .map(|summary| {
                let mut scenario = base.clone();
                scenario.seed = summary.seed;
                scenario.telemetry = TelemetrySpec::Off;
                let telemetry = match &sink {
                    Some(sink) => Telemetry::with_sink(Arc::clone(sink) as Arc<dyn TelemetrySink>),
                    None => Telemetry::disabled(),
                };
                RackReplica::with_substrate(
                    scenario,
                    Arc::clone(&rack),
                    Arc::clone(&solar),
                    summary.solar_scale,
                    summary.rack_id,
                    telemetry,
                    profile_base.clone(),
                    cache.clone(),
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(FleetReplica { racks, sink })
    }

    /// Steps every rack once per epoch, in rack order, and folds the
    /// records into per-epoch fleet sums the way the program does.
    pub fn run(mut self, t: &mut Tracer) -> Result<Vec<FleetEpochRecord>, CoreError> {
        let epochs = self.racks.first().map_or(0, RackReplica::epochs_total);
        let n = self.racks.len();
        let mut out = Vec::with_capacity(epochs as usize);
        for e in 0..epochs {
            let mut sum: Option<FleetEpochRecord> = None;
            let mut soc_sum = 0.0;
            for rack in &mut self.racks {
                let rec = rack.step(t)?;
                soc_sum += rec.soc.value();
                let acc = sum.get_or_insert(FleetEpochRecord {
                    epoch: rec.epoch,
                    time: rec.time,
                    training_racks: 0,
                    degraded_racks: 0,
                    budget: Watts::ZERO,
                    demand: Watts::ZERO,
                    solar: Watts::ZERO,
                    load: Watts::ZERO,
                    battery_discharge: Watts::ZERO,
                    battery_charge: Watts::ZERO,
                    grid_load: Watts::ZERO,
                    grid_charge: Watts::ZERO,
                    unserved: Watts::ZERO,
                    throughput: Throughput::ZERO,
                    shed_servers: 0,
                    offline_servers: 0,
                    mean_soc: Ratio::ZERO,
                });
                acc.training_racks += u32::from(rec.training);
                acc.degraded_racks += u32::from(rec.degraded);
                acc.budget += rec.budget;
                acc.demand += rec.demand;
                acc.solar += rec.solar;
                acc.load += rec.load;
                acc.battery_discharge += rec.battery_discharge;
                acc.battery_charge += rec.battery_charge;
                acc.grid_load += rec.grid_load;
                acc.grid_charge += rec.grid_charge;
                acc.unserved += rec.unserved;
                acc.throughput += rec.throughput;
                acc.shed_servers += rec.shed_servers;
                acc.offline_servers += rec.offline_servers;
            }
            if let Some(sink) = &self.sink {
                sink.flush_through(e);
            }
            if let Some(mut acc) = sum {
                acc.mean_soc = Ratio::saturating(soc_sum / n as f64);
                out.push(acc);
            }
        }
        if let Some(sink) = &self.sink {
            sink.flush_through(u64::MAX - 1);
        }
        Ok(out)
    }
}
