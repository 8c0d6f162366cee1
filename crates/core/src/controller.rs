//! The GreenHetero controller: Monitor feedback → Scheduler → Enforcer,
//! epoch by epoch (Figs. 4–5, Algorithm 1).
//!
//! The controller is **plant-agnostic**: it never touches a physical (or
//! simulated) server, battery or PV array directly. Each epoch the caller
//! feeds it the rack composition and the monitor's view of the battery,
//! receives an [`EpochDecision`], applies it to the plant, and reports the
//! observations back via [`Controller::end_epoch`]. The `greenhetero-sim`
//! crate drives exactly this loop against the simulation substrates.

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::config::ControllerConfig;
use crate::database::{PerfDatabase, PerfModel, ProfileSample};
use crate::error::CoreError;
use crate::policies::{AllocationOracle, AllocationPolicy, PolicyKind};
use crate::predictor::{train_or_default, HoltParams, Predictor};
use crate::solver::{
    allocation_is_sound, solve_grid, solve_uniform, Allocation, AllocationProblem, ServerGroup,
    SharedSolveCache, SolveEngine, SolverFastPath,
};
use crate::sources::{select_sources, BatteryView, SourceInputs, SourcePlan};
use crate::telemetry::{names, Counter, Histogram, SpanRecord, Telemetry};
use crate::types::{ConfigId, EpochId, PowerRange, Ratio, SimTime, Throughput, Watts, WorkloadId};

/// Feedback whose residual against the fitted model exceeds this many
/// sigmas of the entry's historical scatter is discarded as an outlier.
const OUTLIER_SIGMAS: f64 = 5.0;

/// Feedback claiming more than this multiple of the envelope peak is a
/// meter glitch, not a server drawing power.
const FEEDBACK_POWER_SLACK: f64 = 1.25;

/// One homogeneous slice of the rack: `count` servers of one configuration
/// all running one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupSpec {
    /// The server configuration.
    pub config: ConfigId,
    /// The workload currently running on this group.
    pub workload: WorkloadId,
    /// Number of servers.
    pub count: u32,
    /// Productive power envelope of one server under this workload
    /// (idle power .. workload peak draw), as known to the Monitor.
    pub envelope: PowerRange,
}

/// The rack composition for one epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct RackSpec {
    /// The homogeneous groups making up the rack.
    pub groups: Vec<GroupSpec>,
}

impl RackSpec {
    /// Creates a rack spec.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyProblem`] for an empty rack.
    pub fn new(groups: Vec<GroupSpec>) -> Result<Self, CoreError> {
        if groups.is_empty() {
            return Err(CoreError::EmptyProblem);
        }
        Ok(RackSpec { groups })
    }

    /// Power needed to run every server at its workload peak — the upper
    /// bound on rack demand.
    #[must_use]
    pub fn peak_demand(&self) -> Watts {
        self.groups
            .iter()
            .map(|g| g.envelope.peak() * f64::from(g.count))
            .sum()
    }
}

/// Rung of the degradation ladder the controller landed on this epoch.
///
/// Ordered from best to worst; the controller reports the worst rung it
/// had to descend to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradeLevel {
    /// The configured policy solved the full problem.
    #[default]
    Nominal,
    /// The policy's answer failed (or was unsound) and a fallback engine
    /// (grid search, then uniform split) produced the allocation.
    FallbackSolve,
    /// The budget could not keep every server powered on: whole servers
    /// were shed (worst energy efficiency first) until idle demand fit.
    LoadShed,
    /// Nothing could be kept on — every server is powered off this epoch.
    SafeIdle,
}

impl DegradeLevel {
    /// The stable snake-case name used in telemetry schemas.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DegradeLevel::Nominal => "nominal",
            DegradeLevel::FallbackSolve => "fallback_solve",
            DegradeLevel::LoadShed => "load_shed",
            DegradeLevel::SafeIdle => "safe_idle",
        }
    }
}

/// How gracefully (or not) one epoch's decision was reached.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochResilience {
    /// The worst degradation rung reached.
    pub level: DegradeLevel,
    /// Servers deliberately powered off per rack group, in rack order
    /// (on top of any servers the caller already reported as crashed).
    pub shed: Vec<u32>,
}

impl EpochResilience {
    /// The fault-free resilience record for a rack of `groups` groups.
    #[must_use]
    pub fn nominal(groups: usize) -> Self {
        EpochResilience {
            level: DegradeLevel::Nominal,
            shed: vec![0; groups],
        }
    }

    /// Total servers shed across all groups.
    #[must_use]
    pub fn shed_total(&self) -> u32 {
        self.shed.iter().sum()
    }

    /// `true` when the epoch ran below [`DegradeLevel::Nominal`].
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.level != DegradeLevel::Nominal
    }
}

/// What the controller wants done this epoch.
#[derive(Debug, Clone, PartialEq)]
pub enum EpochDecision {
    /// One or more (configuration, workload) pairs have no database entry:
    /// run a **training run** for them with ample power (Algorithm 1,
    /// lines 3–5). The plan still selects power sources; the paper keeps
    /// battery and grid ready "to support the power demand during the
    /// training run".
    Train {
        /// The pairs to profile.
        pairs: Vec<(ConfigId, WorkloadId)>,
        /// Power-source selection for the epoch.
        plan: SourcePlan,
    },
    /// Normal epoch: enforce this allocation (Algorithm 1, lines 7–8).
    Run {
        /// Power-source selection for the epoch.
        plan: SourcePlan,
        /// The PAR decision to enforce (always one entry per rack group;
        /// shed or crashed-out groups get zero watts).
        allocation: Allocation,
        /// How the decision degraded, if at all.
        resilience: EpochResilience,
    },
}

/// Monitor feedback for one group after an epoch ran.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupFeedback {
    /// The server configuration observed.
    pub config: ConfigId,
    /// The workload observed.
    pub workload: WorkloadId,
    /// Measured per-server power draw.
    pub per_server_power: Watts,
    /// Measured per-server throughput.
    pub per_server_perf: Throughput,
    /// Timestamp of the measurement.
    pub at: SimTime,
}

/// What telemetry observed about the most recent epoch's decision: phase
/// wall times, the engine that produced the allocation, and the monitor
/// counts from feedback processing. The simulation engine reads this
/// after [`Controller::end_epoch`] to build the epoch's event record.
#[derive(Debug, Clone, Default)]
pub struct EpochTrace {
    /// Prediction-phase wall time.
    pub predict: Duration,
    /// Source-selection wall time.
    pub select_sources: Duration,
    /// Solve-phase wall time (zero for training / safe-idle epochs).
    pub solve: Duration,
    /// Which engine produced the allocation (`"exact"`, `"grid"`,
    /// `"uniform"`, `"greedy"`, `"manual"`, `"training"`, `"none"`).
    pub engine: &'static str,
    /// The degradation rung the decision landed on.
    pub degrade: DegradeLevel,
    /// Feedback samples the sanity gate rejected this epoch.
    pub rejected_feedback: u32,
    /// Profile entries quarantined this epoch.
    pub quarantines: u32,
    /// Successful database refits this epoch.
    pub refits: u32,
    /// Always 0: the fast path keeps no per-controller cache. The event
    /// schema still carries the field.
    pub cache_hits: u32,
    /// Solves reuse did not answer: a shared-cache hit or an engine run.
    pub cache_misses: u32,
    /// Always 0, like [`cache_hits`](Self::cache_hits).
    pub cache_evictions: u32,
    /// Solves answered by reusing the previous solve's answer this epoch.
    pub warm_starts: u32,
}

/// The controller's registered instrument handles, resolved once per
/// telemetry handle so the epoch loop never takes the registry lock.
#[derive(Debug)]
struct ControllerMetrics {
    degrade_to: [Arc<Counter>; 4],
    feedback_rejected: Arc<Counter>,
    profile_quarantined: Arc<Counter>,
    solver_exact_wins: Arc<Counter>,
    solver_grid_wins: Arc<Counter>,
    solver_cache_miss: Arc<Counter>,
    solver_warm_start: Arc<Counter>,
    training_runs: Arc<Counter>,
    predict_seconds: Arc<Histogram>,
    select_sources_seconds: Arc<Histogram>,
    solve_seconds: Arc<Histogram>,
    refit_rmse: Arc<Histogram>,
}

impl ControllerMetrics {
    fn new(telemetry: &Telemetry) -> Self {
        let r = telemetry.registry();
        // One exact engine leaves nothing to cross-check, and no
        // per-controller cache hits or evicts; these counters stay
        // registered, at 0, because run ledgers and dashboards read them.
        let _ = r.counter(names::SOLVER_CROSS_CHECK);
        let _ = r.counter(names::SOLVER_CROSS_CHECK_GRID_WIN);
        let _ = r.counter(names::SOLVER_CACHE_HIT);
        let _ = r.counter(names::SOLVER_CACHE_EVICT);
        ControllerMetrics {
            degrade_to: [
                r.counter(names::DEGRADE_TO_NOMINAL),
                r.counter(names::DEGRADE_TO_FALLBACK),
                r.counter(names::DEGRADE_TO_LOAD_SHED),
                r.counter(names::DEGRADE_TO_SAFE_IDLE),
            ],
            feedback_rejected: r.counter(names::FEEDBACK_REJECTED),
            profile_quarantined: r.counter(names::PROFILE_QUARANTINED),
            solver_exact_wins: r.counter(names::SOLVER_EXACT_WINS),
            solver_grid_wins: r.counter(names::SOLVER_GRID_WINS),
            solver_cache_miss: r.counter(names::SOLVER_CACHE_MISS),
            solver_warm_start: r.counter(names::SOLVER_WARM_START),
            training_runs: r.counter(names::TRAINING_RUNS),
            predict_seconds: r.histogram(names::PREDICT_SECONDS),
            select_sources_seconds: r.histogram(names::SELECT_SOURCES_SECONDS),
            solve_seconds: r.histogram(names::SOLVE_SECONDS),
            refit_rmse: r.histogram(names::REFIT_RMSE),
        }
    }

    fn degrade_counter(&self, level: DegradeLevel) -> &Counter {
        let index = match level {
            DegradeLevel::Nominal => 0,
            DegradeLevel::FallbackSolve => 1,
            DegradeLevel::LoadShed => 2,
            DegradeLevel::SafeIdle => 3,
        };
        &self.degrade_to[index]
    }
}

/// The GreenHetero controller (one per rack, matching the paper's
/// distributed rack-level deployment).
pub struct Controller {
    config: ControllerConfig,
    policy: Box<dyn AllocationPolicy>,
    db: PerfDatabase,
    renewable: PredictorLane,
    demand: PredictorLane,
    epoch: EpochId,
    telemetry: Telemetry,
    metrics: ControllerMetrics,
    trace: EpochTrace,
    last_level: DegradeLevel,
    fast: SolverFastPath,
}

impl fmt::Debug for Controller {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Controller")
            .field("policy", &self.policy.kind())
            .field("epoch", &self.epoch)
            .field("db_entries", &self.db.len())
            .finish_non_exhaustive()
    }
}

/// A predictor plus the history needed to periodically retrain it.
#[derive(Debug)]
struct PredictorLane {
    history: Vec<f64>,
    params: HoltParams,
    predictor: crate::predictor::HoltPredictor,
    epochs_since_train: u64,
}

impl PredictorLane {
    fn new() -> Self {
        let params = HoltParams::default();
        PredictorLane {
            history: Vec::new(),
            params,
            predictor: params.predictor(),
            epochs_since_train: 0,
        }
    }

    fn observe(&mut self, value: f64, cfg: &ControllerConfig, shared: Option<&SharedSolveCache>) {
        self.history.push(value);
        if self.history.len() > cfg.holt_history {
            let excess = self.history.len() - cfg.holt_history;
            self.history.drain(..excess);
        }
        self.predictor.observe(value);
        self.epochs_since_train += 1;
        if self.epochs_since_train >= cfg.holt_retrain_epochs {
            self.retrain(cfg, shared);
        }
    }

    /// Trains α/β on the history and replays it into a fresh predictor,
    /// or takes both from the shared cache when another lane already
    /// trained on the same bits.
    fn retrain(&mut self, cfg: &ControllerConfig, shared: Option<&SharedSolveCache>) {
        let step = cfg.holt_grid_step;
        let train = || {
            // The last answer is the search's hint: the history has moved
            // on by `holt_retrain_epochs` observations, so it is usually
            // near the new one, and the result does not depend on it.
            let params = train_or_default(&self.history, step, self.params);
            let mut fresh = params.predictor();
            for &v in &self.history {
                fresh.observe(v);
            }
            (params, fresh)
        };
        (self.params, self.predictor) = match shared {
            Some(cache) => cache.holt_training(&self.history, step, train),
            None => train(),
        };
        self.epochs_since_train = 0;
    }

    fn predict_or(&self, fallback: f64) -> f64 {
        self.predictor.predict().unwrap_or(fallback)
    }
}

impl Controller {
    /// Creates a controller running the given policy.
    ///
    /// # Errors
    ///
    /// Propagates [`ControllerConfig::validate`] failures.
    pub fn new(config: ControllerConfig, policy: PolicyKind) -> Result<Self, CoreError> {
        config.validate()?;
        let telemetry = Telemetry::default();
        let metrics = ControllerMetrics::new(&telemetry);
        Ok(Controller {
            config,
            policy: policy.build(),
            db: PerfDatabase::new(),
            renewable: PredictorLane::new(),
            demand: PredictorLane::new(),
            epoch: EpochId::FIRST,
            telemetry,
            metrics,
            trace: EpochTrace::default(),
            last_level: DegradeLevel::Nominal,
            fast: SolverFastPath::new(),
        })
    }

    /// Replaces the telemetry handle (default: a disabled one), re-resolving
    /// every instrument against the new registry.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.metrics = ControllerMetrics::new(&telemetry);
        self.telemetry = telemetry;
    }

    /// What telemetry observed about the most recent epoch (valid between
    /// a [`begin_epoch`]/[`end_epoch`] pair and the next [`begin_epoch`]).
    ///
    /// [`begin_epoch`]: Controller::begin_epoch
    /// [`end_epoch`]: Controller::end_epoch
    #[must_use]
    pub fn epoch_trace(&self) -> &EpochTrace {
        &self.trace
    }

    /// The policy being run.
    #[must_use]
    pub fn policy(&self) -> PolicyKind {
        self.policy.kind()
    }

    /// The performance-power database (read access for diagnostics).
    #[must_use]
    pub fn database(&self) -> &PerfDatabase {
        &self.db
    }

    /// Replaces the profiling database with a clone of a shared pretrained
    /// base (fleet runs share one curve store across thousands of
    /// controllers). The clone shares every entry with the base; this
    /// controller's own refits and retraining runs replace single
    /// entries (see [`PerfDatabase`]).
    pub fn set_profile_base(&mut self, base: Arc<PerfDatabase>) {
        self.db = PerfDatabase::clone(&base);
    }

    /// Attaches a cross-controller [`SharedSolveCache`]: racks (or serve
    /// sessions) facing bit-identical allocation problems pay one cold
    /// solve and reuse the answer, and predictor lanes retraining on
    /// bit-identical histories pay one Holt search. Purely an
    /// acceleration — every output of this controller, counters included,
    /// is bit-identical with the cache attached, detached, or resized.
    pub fn set_shared_solve_cache(&mut self, shared: Arc<SharedSolveCache>) {
        self.fast.set_shared_cache(Some(shared));
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// The epoch about to run (incremented by [`end_epoch`]).
    ///
    /// [`end_epoch`]: Controller::end_epoch
    #[must_use]
    pub fn epoch(&self) -> EpochId {
        self.epoch
    }

    /// The currently trained Holt parameters for (renewable, demand).
    #[must_use]
    pub fn predictor_params(&self) -> (HoltParams, HoltParams) {
        (self.renewable.params, self.demand.params)
    }

    /// Algorithm 1, top of the scheduling epoch: predict, select power
    /// sources, and either request training runs or produce an allocation.
    ///
    /// `oracle` is forwarded to measurement-driven policies (Manual); it is
    /// dropped for epochs where shedding or crashed-out groups change the
    /// problem shape, since a whole-rack measurement no longer matches.
    ///
    /// Recoverable trouble — a diverged predictor, an unsound policy
    /// answer, a budget below idle demand, even a rack with every server
    /// crashed — degrades the decision (see [`DegradeLevel`]) instead of
    /// failing; the [`EpochResilience`] attached to
    /// [`EpochDecision::Run`] says which rung was reached.
    ///
    /// # Errors
    ///
    /// Propagates database lookups and problem-construction failures that
    /// indicate caller bugs (an unknown pair slipping past the training
    /// check, a negative budget).
    pub fn begin_epoch(
        &mut self,
        rack: &RackSpec,
        battery: &BatteryView,
        grid_budget: Watts,
        oracle: Option<&dyn AllocationOracle>,
    ) -> Result<EpochDecision, CoreError> {
        self.trace = EpochTrace::default();
        let predict_started = Instant::now();
        // Prediction (Eqs. 2–4). Before any observation: assume no
        // renewable (conservative) and peak demand (ample). A non-finite
        // prediction (diverged predictor) falls back the same way.
        let raw_renewable = self.renewable.predict_or(0.0);
        let predicted_renewable = if raw_renewable.is_finite() {
            Watts::new(raw_renewable.max(0.0))
        } else {
            Watts::ZERO
        };
        let peak_demand = rack.peak_demand();
        let raw_demand = self.demand.predict_or(peak_demand.value());
        let predicted_demand = if raw_demand.is_finite() {
            Watts::new(raw_demand.clamp(0.0, peak_demand.value()))
        } else {
            peak_demand
        };
        self.trace.predict = predict_started.elapsed();
        self.metrics
            .predict_seconds
            .record_duration(self.trace.predict);

        let sources_started = Instant::now();
        let plan = select_sources(&SourceInputs {
            predicted_renewable,
            predicted_demand,
            battery: *battery,
            grid_budget,
            renewable_negligible: self.config.renewable_negligible,
        });
        self.trace.select_sources = sources_started.elapsed();
        self.metrics
            .select_sources_seconds
            .record_duration(self.trace.select_sources);

        // Algorithm 1 line 3: any *present* pair missing from the database?
        // (Groups crashed down to zero servers don't need a projection.)
        let missing: Vec<(ConfigId, WorkloadId)> = rack
            .groups
            .iter()
            .filter(|g| g.count > 0 && !self.db.contains(g.config, g.workload))
            .map(|g| (g.config, g.workload))
            .collect();
        if !missing.is_empty() {
            self.note_decision(DegradeLevel::Nominal, "training");
            self.metrics.training_runs.inc();
            return Ok(EpochDecision::Train {
                pairs: missing,
                plan,
            });
        }

        // Load shedding: when the plan budget cannot even keep the rack
        // idling, power off whole servers — least energy-efficient first —
        // until what remains fits.
        let mut active: Vec<u32> = rack.groups.iter().map(|g| g.count).collect();
        let mut shed = vec![0u32; rack.groups.len()];
        let mut level = DegradeLevel::Nominal;
        let idle_of = |active: &[u32]| -> Watts {
            rack.groups
                .iter()
                .zip(active)
                .map(|(g, &n)| g.envelope.idle() * f64::from(n))
                .sum()
        };
        if plan.budget() < idle_of(&active) {
            level = DegradeLevel::LoadShed;
            let mut order: Vec<usize> = (0..rack.groups.len()).filter(|&i| active[i] > 0).collect();
            order.sort_by(|&a, &b| {
                let eff = |i: usize| {
                    self.db
                        .model(rack.groups[i].config, rack.groups[i].workload)
                        .map(PerfModel::peak_efficiency)
                        .unwrap_or(0.0)
                };
                eff(a).total_cmp(&eff(b))
            });
            for &i in &order {
                while active[i] > 0 && plan.budget() < idle_of(&active) {
                    active[i] -= 1;
                    shed[i] += 1;
                }
            }
        }

        // Safe idle: nothing can stay on (all crashed, or budget below a
        // single idle draw). Still a decision, not an error.
        if active.iter().all(|&n| n == 0) {
            let groups = rack.groups.len();
            let allocation = Allocation {
                per_server: vec![Watts::ZERO; groups],
                shares: vec![Ratio::ZERO; groups],
                projected: Throughput::ZERO,
            };
            self.note_decision(DegradeLevel::SafeIdle, "none");
            return Ok(EpochDecision::Run {
                plan,
                allocation,
                resilience: EpochResilience {
                    level: DegradeLevel::SafeIdle,
                    shed,
                },
            });
        }

        // Lines 7–8: build the problem over the groups still powered and
        // solve. `map` translates problem indices back to rack indices.
        let mut map = Vec::with_capacity(rack.groups.len());
        let mut groups = Vec::with_capacity(rack.groups.len());
        for (i, g) in rack.groups.iter().enumerate() {
            if active[i] == 0 {
                continue;
            }
            let model = self.db.model(g.config, g.workload)?;
            groups.push(ServerGroup::new(g.config, active[i], *model)?);
            map.push(i);
        }
        let problem = AllocationProblem::new(groups, plan.budget())?;

        // A whole-rack oracle only matches a whole-rack problem.
        let effective_oracle = if map.len() == rack.groups.len() && shed.iter().all(|&s| s == 0) {
            oracle
        } else {
            None
        };

        // Fallback chain: policy → grid search → uniform split. Each
        // rung's answer is gated on soundness; the uniform split at the
        // bottom cannot fail.
        let solve_started = Instant::now();
        let (allocation, solve_level, engine) =
            match self
                .policy
                .allocate(&problem, effective_oracle, &mut self.fast)
            {
                Ok((a, engine)) if allocation_is_sound(&problem, &a) => {
                    (a, DegradeLevel::Nominal, engine)
                }
                _ => {
                    let grid = solve_grid(&problem);
                    if allocation_is_sound(&problem, &grid) {
                        (grid, DegradeLevel::FallbackSolve, SolveEngine::Grid)
                    } else {
                        (
                            solve_uniform(&problem),
                            DegradeLevel::FallbackSolve,
                            SolveEngine::Uniform,
                        )
                    }
                }
            };
        self.trace.solve = solve_started.elapsed();
        self.metrics.solve_seconds.record_duration(self.trace.solve);
        self.note_fast_path();
        // Policies are pluggable; re-audit the chosen answer against the
        // problem the controller actually posed.
        crate::solver::audit_allocation(&problem, &allocation);
        debug_assert!(
            plan.budget()
                <= predicted_renewable + battery.max_discharge + grid_budget + Watts::new(1e-6),
            "source plan budget exceeds what the sources can jointly supply"
        );
        let level = level.max(solve_level);
        self.note_decision(level, engine.name());

        // Expand back to one entry per rack group (zero for powered-off
        // groups) so enforcement stays positional.
        let mut per_server = vec![Watts::ZERO; rack.groups.len()];
        let mut shares = vec![Ratio::ZERO; rack.groups.len()];
        for (slot, &i) in map.iter().enumerate() {
            per_server[i] = allocation.per_server[slot];
            shares[i] = allocation.shares[slot];
        }
        Ok(EpochDecision::Run {
            plan,
            allocation: Allocation {
                per_server,
                shares,
                projected: allocation.projected,
            },
            resilience: EpochResilience { level, shed },
        })
    }

    /// Stores the samples of a completed training run (Algorithm 1,
    /// lines 4–5) for one (configuration, workload) pair.
    ///
    /// # Errors
    ///
    /// Propagates curve-fit failures (too few / degenerate samples).
    pub fn complete_training(
        &mut self,
        config: ConfigId,
        workload: WorkloadId,
        envelope: PowerRange,
        samples: &[ProfileSample],
    ) -> Result<(), CoreError> {
        self.db
            .insert_training(config, workload, envelope, samples)?;
        Ok(())
    }

    /// End of epoch: feed the monitor's observations back (Algorithm 1,
    /// lines 8–10) and advance the epoch counter.
    ///
    /// Observations are sanitized before use: non-finite renewable/demand
    /// readings are dropped (the predictors hold their last state), and
    /// feedback samples that are non-finite, negative, physically
    /// impossible, or >5σ off the fitted curve are rejected so a glitching
    /// meter cannot poison a refit.
    ///
    /// `feedback` entries for pairs without a database entry are ignored
    /// (they belong to a training run that reports via
    /// [`complete_training`]); database updates only happen under policies
    /// whose [`AllocationPolicy::updates_database`] is `true`.
    ///
    /// [`complete_training`]: Controller::complete_training
    pub fn end_epoch(
        &mut self,
        observed_renewable: Watts,
        observed_demand: Watts,
        feedback: &[GroupFeedback],
    ) {
        let shared = self.fast.shared_cache();
        let renewable = observed_renewable.value();
        if renewable.is_finite() {
            self.renewable
                .observe(renewable.max(0.0), &self.config, shared);
        }
        let demand = observed_demand.value();
        if demand.is_finite() {
            self.demand.observe(demand.max(0.0), &self.config, shared);
        }

        if self.policy.updates_database() {
            for fb in feedback {
                if !self.db.contains(fb.config, fb.workload) {
                    continue;
                }
                if !self.feedback_is_sane(fb) {
                    self.trace.rejected_feedback += 1;
                    self.metrics.feedback_rejected.inc();
                    continue;
                }
                let sample = ProfileSample::new(fb.per_server_power, fb.per_server_perf, fb.at);
                // A failed refit keeps the previous model; nothing to do.
                if let Ok(fit) = self.db.record_feedback(fb.config, fb.workload, sample) {
                    self.trace.refits += 1;
                    self.metrics.refit_rmse.record(fit.rmse);
                    // The divergence watchdog trips inside the Ok path: a
                    // transition shows up on the entry, not the result.
                    let now_quarantined = self
                        .db
                        .entry(fb.config, fb.workload)
                        .is_some_and(crate::database::ProfileEntry::is_quarantined);
                    if now_quarantined {
                        self.trace.quarantines += 1;
                        self.metrics.profile_quarantined.inc();
                    }
                }
            }
        }
        self.emit_phase_spans();
        self.epoch = self.epoch.next();
    }

    /// End of an epoch spent under a telemetry outage: no trustworthy
    /// observations exist, so the predictors hold their last value and
    /// the database stays untouched — only the epoch counter advances.
    pub fn end_epoch_stale(&mut self) {
        self.emit_phase_spans();
        self.epoch = self.epoch.next();
    }

    /// Drains the solver fast path's per-epoch counters into the trace
    /// and the telemetry registry.
    fn note_fast_path(&mut self) {
        let stats = self.fast.take_stats();
        let narrow = |v: u64| u32::try_from(v).unwrap_or(u32::MAX);
        self.trace.cache_misses = narrow(stats.cache_misses);
        self.trace.warm_starts = narrow(stats.warm_starts);
        self.metrics.solver_cache_miss.add(stats.cache_misses);
        self.metrics.solver_warm_start.add(stats.warm_starts);
    }

    /// Records the epoch's degradation rung and engine label, counting a
    /// degrade transition whenever the rung differs from the previous
    /// epoch's, and an engine win for the solver engines.
    fn note_decision(&mut self, level: DegradeLevel, engine: &'static str) {
        self.trace.degrade = level;
        self.trace.engine = engine;
        if level != self.last_level {
            self.metrics.degrade_counter(level).inc();
            self.last_level = level;
        }
        match engine {
            "exact" => self.metrics.solver_exact_wins.inc(),
            "grid" => self.metrics.solver_grid_wins.inc(),
            _ => {}
        }
    }

    /// Sends the epoch's phase timings to the sink (skipped entirely when
    /// the sink is disabled, keeping the hot path allocation-free).
    fn emit_phase_spans(&self) {
        if !self.telemetry.sink_enabled() {
            return;
        }
        let sink = self.telemetry.sink();
        sink.record_span(&SpanRecord::new(
            "controller.predict",
            self.epoch,
            self.trace.predict,
        ));
        sink.record_span(&SpanRecord::new(
            "controller.select_sources",
            self.epoch,
            self.trace.select_sources,
        ));
        sink.record_span(&SpanRecord::new(
            "controller.solve",
            self.epoch,
            self.trace.solve,
        ));
    }

    /// The monitor's plausibility gate for one feedback sample.
    fn feedback_is_sane(&self, fb: &GroupFeedback) -> bool {
        let power = fb.per_server_power.value();
        let perf = fb.per_server_perf.value();
        if !(power.is_finite() && perf.is_finite() && power >= 0.0 && perf >= 0.0) {
            return false;
        }
        let Some(entry) = self.db.entry(fb.config, fb.workload) else {
            return false;
        };
        if power > entry.model().range().peak().value() * FEEDBACK_POWER_SLACK {
            return false;
        }
        let residual = (perf - entry.model().eval(fb.per_server_power).value()).abs();
        residual <= OUTLIER_SIGMAS * entry.residual_sigma().value()
    }

    /// Direct read access to a projection (useful for reporting).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ProfileMissing`] when the pair is untrained.
    pub fn model(&self, config: ConfigId, workload: WorkloadId) -> Result<&PerfModel, CoreError> {
        self.db.model(config, workload)
    }
}

#[cfg(test)]
// Tests compare results of exact literal arithmetic.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::sources::SupplyCase;

    fn envelope(idle: f64, peak: f64) -> PowerRange {
        PowerRange::new(Watts::new(idle), Watts::new(peak)).unwrap()
    }

    fn rack() -> RackSpec {
        RackSpec::new(vec![
            GroupSpec {
                config: ConfigId::new(0),
                workload: WorkloadId::new(0),
                count: 1,
                envelope: envelope(88.0, 147.0),
            },
            GroupSpec {
                config: ConfigId::new(1),
                workload: WorkloadId::new(0),
                count: 1,
                envelope: envelope(47.0, 81.0),
            },
        ])
        .unwrap()
    }

    fn battery() -> BatteryView {
        BatteryView {
            max_discharge: Watts::new(500.0),
            max_charge: Watts::new(300.0),
            needs_recharge: false,
        }
    }

    fn training_samples(truth: impl Fn(f64) -> f64, powers: &[f64]) -> Vec<ProfileSample> {
        powers
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                ProfileSample::new(
                    Watts::new(p),
                    Throughput::new(truth(p)),
                    SimTime::from_secs(i as u64 * 120),
                )
            })
            .collect()
    }

    fn trained_controller(policy: PolicyKind) -> Controller {
        let mut c = Controller::new(ControllerConfig::default(), policy).unwrap();
        c.complete_training(
            ConfigId::new(0),
            WorkloadId::new(0),
            envelope(88.0, 147.0),
            &training_samples(
                |p| 60.0 * p - 0.12 * p * p - 3000.0,
                &[95.0, 108.0, 121.0, 134.0, 147.0],
            ),
        )
        .unwrap();
        c.complete_training(
            ConfigId::new(1),
            WorkloadId::new(0),
            envelope(47.0, 81.0),
            &training_samples(
                |p| 50.0 * p - 0.18 * p * p - 1200.0,
                &[52.0, 59.0, 66.0, 74.0, 81.0],
            ),
        )
        .unwrap();
        c
    }

    #[test]
    fn first_epoch_requests_training_for_unknown_pairs() {
        let mut c = Controller::new(ControllerConfig::default(), PolicyKind::GreenHetero).unwrap();
        let decision = c
            .begin_epoch(&rack(), &battery(), Watts::new(1000.0), None)
            .unwrap();
        match decision {
            EpochDecision::Train { pairs, .. } => {
                assert_eq!(pairs.len(), 2);
            }
            other => panic!("expected Train, got {other:?}"),
        }
    }

    #[test]
    fn trained_controller_produces_allocation() {
        let mut c = trained_controller(PolicyKind::GreenHetero);
        // Prime predictors with a known renewable level.
        for _ in 0..4 {
            c.end_epoch(Watts::new(220.0), Watts::new(228.0), &[]);
        }
        let decision = c
            .begin_epoch(&rack(), &battery(), Watts::ZERO, None)
            .unwrap();
        match decision {
            EpochDecision::Run {
                plan,
                allocation,
                resilience,
            } => {
                assert_eq!(plan.case, SupplyCase::B); // 220 predicted < 228 demand
                assert!(allocation.projected.value() > 0.0);
                // PAR near the case-study optimum (Xeon share ≈ 65 %).
                let par = allocation.shares[0].value();
                assert!((0.5..0.8).contains(&par), "par = {par}");
                assert!(!resilience.is_degraded());
            }
            other => panic!("expected Run, got {other:?}"),
        }
    }

    #[test]
    fn epoch_counter_advances_on_end_epoch() {
        let mut c = trained_controller(PolicyKind::Uniform);
        assert_eq!(c.epoch(), EpochId::FIRST);
        c.end_epoch(Watts::new(100.0), Watts::new(200.0), &[]);
        assert_eq!(c.epoch(), EpochId::new(1));
    }

    #[test]
    fn feedback_updates_database_only_for_full_greenhetero() {
        for (policy, expect_refit) in [
            (PolicyKind::GreenHetero, true),
            (PolicyKind::GreenHeteroA, false),
            (PolicyKind::Uniform, false),
        ] {
            let mut c = trained_controller(policy);
            let fb = GroupFeedback {
                config: ConfigId::new(0),
                workload: WorkloadId::new(0),
                per_server_power: Watts::new(120.0),
                per_server_perf: Throughput::new(2470.0),
                at: SimTime::from_secs(900),
            };
            c.end_epoch(Watts::new(200.0), Watts::new(228.0), &[fb]);
            let refits = c
                .database()
                .entry(ConfigId::new(0), WorkloadId::new(0))
                .unwrap()
                .refit_count();
            assert_eq!(refits > 0, expect_refit, "policy {policy:?}");
        }
    }

    #[test]
    fn feedback_for_untrained_pair_is_ignored() {
        let mut c = trained_controller(PolicyKind::GreenHetero);
        let fb = GroupFeedback {
            config: ConfigId::new(99),
            workload: WorkloadId::new(99),
            per_server_power: Watts::new(100.0),
            per_server_perf: Throughput::new(1.0),
            at: SimTime::ZERO,
        };
        c.end_epoch(Watts::new(200.0), Watts::new(228.0), &[fb]);
        assert_eq!(c.database().len(), 2);
    }

    #[test]
    fn predictors_retrain_after_interval() {
        let cfg = ControllerConfig {
            holt_retrain_epochs: 8,
            ..ControllerConfig::default()
        };
        let mut c = Controller::new(cfg, PolicyKind::GreenHetero).unwrap();
        let before = c.predictor_params().0;
        // Feed a strongly trending renewable series.
        for i in 0..10 {
            c.end_epoch(
                Watts::new(100.0 + 40.0 * f64::from(i)),
                Watts::new(500.0),
                &[],
            );
        }
        let after = c.predictor_params().0;
        // Retraining happened; the trend series wants a high alpha.
        assert!(after.alpha >= before.alpha || after.beta != before.beta);
    }

    /// A lane's retrain as raw bits: α and β, then the replayed
    /// predictor's level, trend and observation count.
    fn lane_bits(lane: &PredictorLane) -> (u64, u64, Option<u64>, Option<u64>, usize) {
        use crate::predictor::Predictor as _;
        let p = &lane.predictor;
        (
            lane.params.alpha.to_bits(),
            lane.params.beta.to_bits(),
            p.level().map(f64::to_bits),
            p.trend().map(f64::to_bits),
            p.len(),
        )
    }

    fn retrained(history: &[f64], shared: Option<&SharedSolveCache>) -> PredictorLane {
        let mut lane = PredictorLane::new();
        lane.history = history.to_vec();
        lane.retrain(&ControllerConfig::default(), shared);
        lane
    }

    #[test]
    fn signed_zero_histories_never_share_a_training() {
        // `−0.0 == 0.0`, but the search's night skip and the replay read
        // bit patterns, so each history is its own entry and every lane
        // gets the bits it would have trained alone.
        let dawn = |first: f64| {
            let mut history = vec![first, 0.0, 0.0];
            history.extend((1..40).map(|i| 25.0 * f64::from(i)));
            history
        };
        let pairs = [(vec![0.0], vec![-0.0]), (dawn(0.0), dawn(-0.0))];
        let shared = SharedSolveCache::new(crate::solver::DEFAULT_SHARED_SOLVE_CAPACITY);
        for (plus, minus) in &pairs {
            assert_eq!(plus, minus);
            for history in [plus, minus] {
                assert_eq!(
                    lane_bits(&retrained(history, Some(&shared))),
                    lane_bits(&retrained(history, None)),
                    "{history:?}"
                );
            }
        }
        let stats = shared.stats();
        assert_eq!((stats.training_hits, stats.training_misses), (0, 4));
        assert_eq!(shared.len(), 4);
        // One entry for a pair would hand one lane the wrong bits: a
        // one-reading history replays into a predictor whose level is the
        // reading, sign included.
        assert_ne!(
            lane_bits(&retrained(&[0.0], None)),
            lane_bits(&retrained(&[-0.0], None))
        );
    }

    #[test]
    fn abundant_renewable_gives_case_a_and_full_demand_budget() {
        let mut c = trained_controller(PolicyKind::GreenHetero);
        for _ in 0..4 {
            c.end_epoch(Watts::new(2000.0), Watts::new(228.0), &[]);
        }
        let decision = c
            .begin_epoch(&rack(), &battery(), Watts::new(1000.0), None)
            .unwrap();
        match decision {
            EpochDecision::Run {
                plan, allocation, ..
            } => {
                assert_eq!(plan.case, SupplyCase::A);
                // Case A puts the full renewable supply on the bus.
                assert!(plan.budget() >= Watts::new(228.0));
                // With an ample budget everyone approaches peak power.
                assert!(allocation.per_server[0] >= Watts::new(88.0));
                assert!(allocation.per_server[1] >= Watts::new(47.0));
            }
            other => panic!("expected Run, got {other:?}"),
        }
    }

    #[test]
    fn budget_below_idle_sheds_the_least_efficient_group() {
        // Inert battery, no renewable history, 100 W grid: the plan budget
        // (100 W) cannot cover the 135 W idle demand. The i5 group has the
        // lower peak efficiency under these fits, so it is shed first,
        // leaving the Xeon (88 W idle) running alone.
        let mut c = trained_controller(PolicyKind::GreenHetero);
        let xeon_eff = c
            .model(ConfigId::new(0), WorkloadId::new(0))
            .unwrap()
            .peak_efficiency();
        let i5_eff = c
            .model(ConfigId::new(1), WorkloadId::new(0))
            .unwrap()
            .peak_efficiency();
        assert!(xeon_eff > i5_eff, "test premise: Xeon fit more efficient");
        let decision = c
            .begin_epoch(&rack(), &BatteryView::inert(), Watts::new(100.0), None)
            .unwrap();
        match decision {
            EpochDecision::Run {
                allocation,
                resilience,
                ..
            } => {
                assert_eq!(resilience.level, DegradeLevel::LoadShed);
                assert_eq!(resilience.shed, vec![0, 1]);
                assert_eq!(resilience.shed_total(), 1);
                assert!(resilience.is_degraded());
                assert_eq!(allocation.per_server.len(), 2);
                assert!(allocation.per_server[0] >= Watts::new(88.0));
                assert_eq!(allocation.per_server[1], Watts::ZERO);
            }
            other => panic!("expected Run, got {other:?}"),
        }
    }

    #[test]
    fn hopeless_budget_degrades_to_safe_idle() {
        // 10 W cannot idle even a single server: everything is shed and
        // the decision is a zero allocation, not an error.
        let mut c = trained_controller(PolicyKind::GreenHetero);
        let decision = c
            .begin_epoch(&rack(), &BatteryView::inert(), Watts::new(10.0), None)
            .unwrap();
        match decision {
            EpochDecision::Run {
                allocation,
                resilience,
                ..
            } => {
                assert_eq!(resilience.level, DegradeLevel::SafeIdle);
                assert_eq!(resilience.shed_total(), 2);
                assert!(allocation.per_server.iter().all(|w| w.is_zero()));
                assert_eq!(allocation.projected, Throughput::ZERO);
            }
            other => panic!("expected Run, got {other:?}"),
        }
    }

    #[test]
    fn all_servers_crashed_degrades_to_safe_idle() {
        let mut c = trained_controller(PolicyKind::GreenHetero);
        let mut spec = rack();
        for g in &mut spec.groups {
            g.count = 0;
        }
        let decision = c
            .begin_epoch(&spec, &battery(), Watts::new(1000.0), None)
            .unwrap();
        match decision {
            EpochDecision::Run { resilience, .. } => {
                assert_eq!(resilience.level, DegradeLevel::SafeIdle);
                // Nothing was *shed* — the servers were already gone.
                assert_eq!(resilience.shed_total(), 0);
            }
            other => panic!("expected Run, got {other:?}"),
        }
    }

    #[test]
    fn crashed_out_group_is_skipped_not_retrained() {
        // Group 1 crashed to zero servers; its pair being untrained must
        // not trigger a training run for ghosts.
        let mut c = Controller::new(ControllerConfig::default(), PolicyKind::GreenHetero).unwrap();
        c.complete_training(
            ConfigId::new(0),
            WorkloadId::new(0),
            envelope(88.0, 147.0),
            &training_samples(
                |p| 60.0 * p - 0.12 * p * p - 3000.0,
                &[95.0, 108.0, 121.0, 134.0, 147.0],
            ),
        )
        .unwrap();
        let mut spec = rack();
        spec.groups[1].count = 0;
        let decision = c
            .begin_epoch(&spec, &battery(), Watts::new(1000.0), None)
            .unwrap();
        match decision {
            EpochDecision::Run { allocation, .. } => {
                assert_eq!(allocation.per_server.len(), 2);
                assert_eq!(allocation.per_server[1], Watts::ZERO);
                assert!(allocation.per_server[0] > Watts::ZERO);
            }
            other => panic!("expected Run, got {other:?}"),
        }
    }

    #[test]
    fn failing_policy_falls_back_to_a_sound_solve() {
        #[derive(Debug)]
        struct BrokenPolicy;
        impl AllocationPolicy for BrokenPolicy {
            fn kind(&self) -> PolicyKind {
                PolicyKind::Manual
            }
            fn allocate(
                &self,
                _problem: &AllocationProblem,
                _oracle: Option<&dyn AllocationOracle>,
                _fast: &mut SolverFastPath,
            ) -> Result<(Allocation, SolveEngine), CoreError> {
                Err(CoreError::EmptyProblem)
            }
        }
        let mut c = trained_controller(PolicyKind::GreenHetero);
        c.policy = Box::new(BrokenPolicy);
        let decision = c
            .begin_epoch(&rack(), &battery(), Watts::new(1000.0), None)
            .unwrap();
        match decision {
            EpochDecision::Run {
                allocation,
                resilience,
                ..
            } => {
                assert_eq!(resilience.level, DegradeLevel::FallbackSolve);
                assert!(allocation.projected.value() > 0.0);
            }
            other => panic!("expected Run, got {other:?}"),
        }
    }

    #[test]
    fn insane_feedback_never_reaches_the_database() {
        let base = |power: f64, perf: f64| GroupFeedback {
            config: ConfigId::new(0),
            workload: WorkloadId::new(0),
            per_server_power: Watts::new(power),
            per_server_perf: Throughput::new(perf),
            at: SimTime::from_secs(900),
        };
        let truth = |p: f64| 60.0 * p - 0.12 * p * p - 3000.0;
        let nan_power = GroupFeedback {
            per_server_power: Watts::new(1.0) * f64::NAN,
            ..base(120.0, truth(120.0))
        };
        let nan_perf = GroupFeedback {
            per_server_perf: Throughput::new(1.0) * f64::NAN,
            ..base(120.0, truth(120.0))
        };
        let negative_power = GroupFeedback {
            per_server_power: Watts::new(120.0) - Watts::new(240.0),
            ..base(120.0, truth(120.0))
        };
        let negative_perf = base(120.0, -50.0);
        let impossible_power = base(500.0, truth(147.0));
        let outlier_perf = base(120.0, truth(120.0) + 2000.0);
        for (name, fb) in [
            ("nan power", nan_power),
            ("nan perf", nan_perf),
            ("negative power", negative_power),
            ("negative perf", negative_perf),
            ("impossible power", impossible_power),
            (">5 sigma outlier", outlier_perf),
        ] {
            let mut c = trained_controller(PolicyKind::GreenHetero);
            c.end_epoch(Watts::new(200.0), Watts::new(228.0), &[fb]);
            let refits = c
                .database()
                .entry(ConfigId::new(0), WorkloadId::new(0))
                .unwrap()
                .refit_count();
            assert_eq!(refits, 0, "{name} must not trigger a refit");
        }
        // The control: an on-curve sample still refits.
        let mut c = trained_controller(PolicyKind::GreenHetero);
        c.end_epoch(
            Watts::new(200.0),
            Watts::new(228.0),
            &[base(120.0, truth(120.0))],
        );
        let refits = c
            .database()
            .entry(ConfigId::new(0), WorkloadId::new(0))
            .unwrap()
            .refit_count();
        assert_eq!(refits, 1, "sane feedback must refit");
    }

    #[test]
    fn non_finite_observations_hold_the_predictors() {
        let mut c = trained_controller(PolicyKind::GreenHetero);
        for _ in 0..4 {
            c.end_epoch(Watts::new(220.0), Watts::new(228.0), &[]);
        }
        let params_before = c.predictor_params();
        let nan = Watts::new(1.0) * f64::NAN;
        c.end_epoch(nan, nan, &[]);
        assert_eq!(c.predictor_params(), params_before);
        // begin_epoch still produces a finite plan.
        let decision = c
            .begin_epoch(&rack(), &battery(), Watts::new(1000.0), None)
            .unwrap();
        match decision {
            EpochDecision::Run { plan, .. } => {
                assert!(plan.budget().value().is_finite());
            }
            other => panic!("expected Run, got {other:?}"),
        }
    }

    #[test]
    fn stale_epoch_advances_the_clock_but_nothing_else() {
        let mut c = trained_controller(PolicyKind::GreenHetero);
        for _ in 0..4 {
            c.end_epoch(Watts::new(220.0), Watts::new(228.0), &[]);
        }
        let budget_before = match c
            .begin_epoch(&rack(), &battery(), Watts::ZERO, None)
            .unwrap()
        {
            EpochDecision::Run { plan, .. } => plan.budget(),
            other => panic!("expected Run, got {other:?}"),
        };
        let epoch_before = c.epoch();
        c.end_epoch_stale();
        c.end_epoch_stale();
        assert_eq!(c.epoch(), EpochId::new(epoch_before.raw() + 2));
        // Predictions held: the same plan comes out after the outage.
        let budget_after = match c
            .begin_epoch(&rack(), &battery(), Watts::ZERO, None)
            .unwrap()
        {
            EpochDecision::Run { plan, .. } => plan.budget(),
            other => panic!("expected Run, got {other:?}"),
        };
        assert_eq!(budget_before, budget_after);
    }

    #[test]
    fn rack_spec_validation_and_demand() {
        assert!(RackSpec::new(vec![]).is_err());
        let r = rack();
        assert_eq!(r.peak_demand(), Watts::new(228.0));
    }

    #[test]
    fn controller_debug_is_informative() {
        let c = trained_controller(PolicyKind::GreenHetero);
        let dbg = format!("{c:?}");
        assert!(dbg.contains("Controller"));
        assert!(dbg.contains("GreenHetero"));
    }

    #[test]
    fn invalid_config_rejected_at_construction() {
        let cfg = ControllerConfig {
            epoch_len: crate::types::SimDuration::ZERO,
            ..ControllerConfig::default()
        };
        assert!(Controller::new(cfg, PolicyKind::Uniform).is_err());
    }
}
