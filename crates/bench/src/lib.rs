//! Shared plumbing for the GreenHetero reproduction harnesses.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! and prints the corresponding rows/series. This library holds the one
//! computation behind each headline number — the figure binaries,
//! `all_experiments` and the paper-shape tests all call it — plus the
//! formatting helpers they share.

use greenhetero_core::metrics::{geometric_mean, EpuAccumulator};
use greenhetero_core::policies::PolicyKind;
use greenhetero_core::sources::SupplyCase;
use greenhetero_core::types::{Ratio, Watts};
use greenhetero_power::solar::SolarProfile;
use greenhetero_server::rack::{Combination, Rack};
use greenhetero_server::workload::WorkloadKind;
use greenhetero_sim::engine::run_scenario;
use greenhetero_sim::report::{EpochRecord, RunReport};
use greenhetero_sim::runner::{compare_policies, PolicyOutcome};
use greenhetero_sim::scenario::{Scenario, TelemetrySpec};

/// Fig. 3's case study (§III-B): SPECjbb on one E5-2620 (Server A) and
/// one i5-4460 (Server B) sharing a fixed 220 W green budget.
#[derive(Debug)]
pub struct CaseStudy {
    rack: Rack,
    budget: Watts,
}

/// The case study at one power allocation ratio.
#[derive(Debug, Clone, Copy)]
pub struct CasePoint {
    /// Effective power utilization of the 220 W budget.
    pub epu: f64,
    /// Rack throughput.
    pub throughput: f64,
}

/// Fig. 3's headline numbers, from a scan of PAR in 1 % steps.
#[derive(Debug, Clone, Copy)]
pub struct CaseSummary {
    /// The PAR (percent of the budget to Server A) with the highest
    /// throughput; the lowest such PAR on a tie.
    pub optimal_par: f64,
    /// Throughput at the optimum over throughput at the uniform 50 %.
    pub gain: f64,
    /// EPU at the uniform 50 % split.
    pub uniform_epu: f64,
    /// EPU at the optimum.
    pub optimum_epu: f64,
}

impl Default for CaseStudy {
    fn default() -> Self {
        CaseStudy {
            rack: Rack::combination(Combination::Comb1, 1, WorkloadKind::SpecJbb)
                .expect("Comb1 runs SPECjbb"),
            budget: Watts::new(220.0),
        }
    }
}

impl CaseStudy {
    /// Measures the rack with `par_percent` of the budget given to
    /// Server A and the rest to Server B.
    #[must_use]
    pub fn at(&self, par_percent: f64) -> CasePoint {
        let to_a = self.budget * Ratio::from_percent(par_percent);
        let m = self.rack.measure(&[to_a, self.budget - to_a], Ratio::ONE);
        let mut epu = EpuAccumulator::new();
        epu.record(m.total_power().min(self.budget), self.budget);
        CasePoint {
            epu: epu.epu().value(),
            throughput: m.total_throughput().value(),
        }
    }

    /// Scans PAR from 0 to 100 % in 1 % steps.
    #[must_use]
    pub fn summary(&self) -> CaseSummary {
        let uniform = self.at(50.0);
        let mut best = (0.0, self.at(0.0));
        for step in 1..=100 {
            let par = f64::from(step);
            let point = self.at(par);
            if point.throughput > best.1.throughput {
                best = (par, point);
            }
        }
        CaseSummary {
            optimal_par: best.0,
            gain: best.1.throughput / uniform.throughput,
            uniform_epu: uniform.epu,
            optimum_epu: best.1.epu,
        }
    }
}

/// The Figs. 8/11 runtime day: 24 h of SPECjbb on Comb1 ×5 with a 1 kW
/// grid, GreenHetero against Uniform under one solar trace.
#[derive(Debug)]
pub struct RuntimeDay {
    /// GreenHetero's run.
    pub greenhetero: RunReport,
    /// Uniform's run.
    pub uniform: RunReport,
}

/// The headline numbers of a [`RuntimeDay`].
#[derive(Debug, Clone, Copy)]
pub struct RuntimeSummary {
    /// GreenHetero's mean throughput over Uniform's while renewable power
    /// is insufficient: Cases B and C (Fig. 8).
    pub scarce_gain: f64,
    /// The same while renewable power is abundant: Case A (Fig. 8).
    pub abundant_gain: f64,
    /// The same during Cases A and B (Fig. 11).
    pub cases_ab_gain: f64,
    /// GreenHetero's mean PAR in percent; 0 when no epoch allocated.
    pub mean_par_percent: f64,
    /// The longest Case C stretch the battery carried, in hours.
    pub ride_through_h: f64,
    /// GreenHetero's battery cycles to the DoD limit.
    pub battery_cycles: f64,
    /// GreenHetero's grid energy in kWh.
    pub grid_kwh: f64,
}

impl RuntimeDay {
    /// Runs the day under `solar`.
    #[must_use]
    pub fn run(solar: SolarProfile) -> Self {
        RuntimeDay::with_telemetry(solar, TelemetrySpec::Off)
    }

    /// Runs the day under `solar`, exporting GreenHetero's per-epoch
    /// telemetry to `telemetry`.
    #[must_use]
    pub fn with_telemetry(solar: SolarProfile, telemetry: TelemetrySpec) -> Self {
        let day = |policy, telemetry| {
            run_scenario(Scenario {
                solar_profile: solar,
                telemetry,
                ..Scenario::paper_runtime(policy)
            })
            .expect("simulation runs")
        };
        RuntimeDay {
            greenhetero: day(PolicyKind::GreenHetero, telemetry),
            uniform: day(PolicyKind::Uniform, TelemetrySpec::Off),
        }
    }

    /// GreenHetero's mean throughput over Uniform's, on the steady epochs
    /// `keep` selects.
    fn gain_where(&self, keep: impl Fn(&EpochRecord) -> bool) -> f64 {
        self.greenhetero.mean_throughput_where(&keep).value()
            / self.uniform.mean_throughput_where(&keep).value().max(1e-9)
    }

    /// The day's headline numbers.
    #[must_use]
    pub fn summary(&self) -> RuntimeSummary {
        let gh = &self.greenhetero;
        let mut ride_through_h = 0.0f64;
        let mut streak = 0.0f64;
        for e in &gh.epochs {
            if e.case == SupplyCase::C && e.battery_discharge.value() > 0.0 {
                streak += 0.25;
                ride_through_h = ride_through_h.max(streak);
            } else {
                streak = 0.0;
            }
        }
        RuntimeSummary {
            scarce_gain: self.gain_where(|e| e.case != SupplyCase::A),
            abundant_gain: self.gain_where(|e| e.case == SupplyCase::A),
            cases_ab_gain: self.gain_where(|e| e.case != SupplyCase::C),
            mean_par_percent: gh.mean_par().map_or(0.0, Ratio::as_percent),
            ride_through_h,
            battery_cycles: gh.battery_cycles,
            grid_kwh: gh.grid_energy.as_kilowatt_hours(),
        }
    }
}

/// EPU over a run's scarce steady epochs, epoch by epoch (the paper's
/// insufficient-supply focus); the run's EPU when none was scarce.
#[must_use]
pub fn scarce_epu(report: &RunReport) -> f64 {
    let mut acc = EpuAccumulator::new();
    for e in report.epochs.iter().filter(|e| !e.training) {
        if RunReport::is_scarce(e) {
            acc.record(e.load.min(e.budget), e.budget);
        }
    }
    if acc.is_empty() {
        report.epu().value()
    } else {
        acc.epu().value()
    }
}

/// Several policies' runs of one scenario, Uniform (the paper's
/// normalization baseline) among them.
#[derive(Debug)]
pub struct Comparison(Vec<PolicyOutcome>);

impl Comparison {
    /// Runs `base` under each of `policies`, in parallel.
    #[must_use]
    pub fn run(base: &Scenario, policies: &[PolicyKind]) -> Self {
        Comparison(
            compare_policies(base, policies)
                .unwrap_or_else(|e| panic!("comparison failed for {}: {e}", base.workload)),
        )
    }

    /// `policy`'s run.
    #[must_use]
    pub fn report(&self, policy: PolicyKind) -> &RunReport {
        &self
            .0
            .iter()
            .find(|o| o.policy == policy)
            .unwrap_or_else(|| panic!("{policy} was not compared"))
            .report
    }

    /// `policy`'s mean scarce-epoch throughput over Uniform's (Figs. 9,
    /// 13 and 14).
    #[must_use]
    pub fn gain(&self, policy: PolicyKind) -> f64 {
        let baseline = self.report(PolicyKind::Uniform).mean_scarce_throughput();
        assert!(
            baseline.value() > 0.0,
            "Uniform produced zero scarce throughput; cannot normalize"
        );
        self.report(policy).mean_scarce_throughput().value() / baseline.value()
    }

    /// `policy`'s [`scarce_epu`] over Uniform's (Fig. 10).
    #[must_use]
    pub fn epu_gain(&self, policy: PolicyKind) -> f64 {
        let baseline = scarce_epu(self.report(PolicyKind::Uniform));
        assert!(
            baseline > 0.0,
            "Uniform produced zero scarce EPU; cannot normalize"
        );
        scarce_epu(self.report(policy)) / baseline
    }
}

/// GreenHetero's [`Comparison::gain`] on `base`, running only it and
/// Uniform.
#[must_use]
pub fn greenhetero_gain(base: &Scenario) -> f64 {
    Comparison::run(base, &[PolicyKind::Uniform, PolicyKind::GreenHetero])
        .gain(PolicyKind::GreenHetero)
}

/// The workload-study setting (Figs. 9/10) on another server combination
/// (Figs. 13/14).
#[must_use]
pub fn combination_study(combination: Combination, workload: WorkloadKind) -> Scenario {
    Scenario {
        combination,
        ..Scenario::workload_study(workload, PolicyKind::Uniform)
    }
}

/// Runs the Figs. 9/10 workload study: every Fig. 9 workload under every
/// policy in [`policy_order`], with the scarce-renewable setting.
#[must_use]
pub fn run_workload_study() -> Vec<(WorkloadKind, Comparison)> {
    WorkloadKind::FIG9_SET
        .iter()
        .map(|&workload| {
            let base = Scenario::workload_study(workload, PolicyKind::Uniform);
            (workload, Comparison::run(&base, &policy_order()))
        })
        .collect()
}

/// The geometric mean, best and worst of a workload sweep's gains.
#[derive(Debug, Clone, Copy)]
pub struct GainSpread {
    /// Geometric mean; 0 when a gain is not positive.
    pub geo_mean: f64,
    /// The first largest gain and its workload.
    pub best: (WorkloadKind, f64),
    /// The first smallest gain and its workload.
    pub worst: (WorkloadKind, f64),
}

impl GainSpread {
    /// Summarizes per-workload gains; `gains` must not be empty.
    #[must_use]
    pub fn of(gains: &[(WorkloadKind, f64)]) -> Self {
        let values: Vec<f64> = gains.iter().map(|&(_, g)| g).collect();
        let mut best = gains[0];
        let mut worst = gains[0];
        for &(workload, g) in &gains[1..] {
            if g > best.1 {
                best = (workload, g);
            }
            if g < worst.1 {
                worst = (workload, g);
            }
        }
        GainSpread {
            geo_mean: geometric_mean(&values).unwrap_or(0.0),
            best,
            worst,
        }
    }
}

/// Fig. 12 at one grid budget: mean throughput over night epochs (no sun,
/// battery at its DoD floor), when the grid budget is all there is.
#[derive(Debug, Clone, Copy)]
pub struct NightPoint {
    /// Uniform's mean night throughput.
    pub uniform: f64,
    /// GreenHetero's mean night throughput.
    pub greenhetero: f64,
    /// GreenHetero's grid bill for the day.
    pub grid_cost: f64,
}

impl NightPoint {
    /// Runs the paper's runtime day at `grid_budget`.
    #[must_use]
    pub fn at(grid_budget: Watts) -> Self {
        let base = Scenario {
            grid_budget,
            ..Scenario::paper_runtime(PolicyKind::Uniform)
        };
        let runs = Comparison::run(&base, &[PolicyKind::Uniform, PolicyKind::GreenHetero]);
        let night = |policy| {
            runs.report(policy)
                .mean_throughput_where(|e| {
                    e.solar.value() < 5.0 && e.battery_discharge.value() == 0.0
                })
                .value()
        };
        NightPoint {
            uniform: night(PolicyKind::Uniform),
            greenhetero: night(PolicyKind::GreenHetero),
            grid_cost: runs.report(PolicyKind::GreenHetero).grid_cost,
        }
    }

    /// GreenHetero's night throughput over Uniform's; infinite when
    /// Uniform served nothing.
    #[must_use]
    pub fn gain(&self) -> f64 {
        if self.uniform > 0.0 {
            self.greenhetero / self.uniform
        } else {
            f64::INFINITY
        }
    }
}

/// Prints a figure/table banner.
pub fn banner(id: &str, caption: &str) {
    println!("================================================================");
    println!("{id}: {caption}");
    println!("================================================================");
}

/// Prints a markdown-style table header and separator row.
pub fn table_header(columns: &[&str]) {
    println!("| {} |", columns.join(" | "));
    println!(
        "|{}|",
        columns
            .iter()
            .map(|c| "-".repeat(c.len() + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
}

/// Formats one markdown table row.
pub fn table_row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// The five policies in the paper's presentation order, with Uniform first
/// (it is the normalization baseline).
#[must_use]
pub fn policy_order() -> [PolicyKind; 5] {
    [
        PolicyKind::Uniform,
        PolicyKind::Manual,
        PolicyKind::GreenHeteroP,
        PolicyKind::GreenHeteroA,
        PolicyKind::GreenHetero,
    ]
}

/// Renders a compact horizontal bar for terminal "plots".
#[must_use]
pub fn bar(value: f64, scale: f64, width: usize) -> String {
    let filled = ((value / scale) * width as f64).round().max(0.0) as usize;
    "█".repeat(filled.min(width))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_scales() {
        assert_eq!(bar(5.0, 10.0, 10), "█████");
        assert_eq!(bar(0.0, 10.0, 10), "");
        assert_eq!(bar(20.0, 10.0, 10).chars().count(), 10);
    }

    #[test]
    fn policy_order_starts_with_uniform() {
        assert_eq!(policy_order()[0], PolicyKind::Uniform);
        assert_eq!(policy_order().len(), 5);
    }

    #[test]
    fn gain_spread_keeps_the_first_extremes() {
        use WorkloadKind::{Canneal, Cfd, Memcached, Vips};
        let s = GainSpread::of(&[(Vips, 2.0), (Cfd, 0.5), (Canneal, 2.0), (Memcached, 0.5)]);
        assert_eq!(s.best.0, Vips);
        assert_eq!(s.worst.0, Cfd);
        assert!((s.geo_mean - 1.0).abs() < 1e-12);
        assert!(GainSpread::of(&[(Vips, 2.0), (Cfd, 0.0)]).geo_mean.abs() < 1e-12);
    }
}
