//! The performance-power database (the paper's §IV-B2 "Database").
//!
//! Keyed by (server configuration, workload type), each entry holds the
//! profiling samples gathered so far and the quadratic [`PerfModel`] fitted
//! to them. Entries are created by a **training run** (the first time a
//! workload reaches a configuration, it executes with ample power while the
//! monitor records five 2-minute samples) and thereafter **updated online**
//! each epoch with the observed (power, performance) feedback
//! (Algorithm 1, lines 7–10).
//!
//! Entries sit behind `Arc`s, so a clone of a database shares every entry
//! with the original. Fleet runs pretrain one database and start each
//! rack's controller from a clone of it; a rack's first write to an entry
//! copies that one entry, so memory grows with how far racks diverge from
//! the shared curves, not with the fleet size.

use std::collections::BTreeMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::database::fit::{distinct_x_upto_3, fit_curve, FitResult};
use crate::database::model::PerfModel;
use crate::error::CoreError;
use crate::types::{ConfigId, PowerRange, SimTime, Throughput, Watts, WorkloadId};

/// One profiling observation: the power a server drew and the performance
/// it delivered.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProfileSample {
    /// Observed power draw.
    pub power: Watts,
    /// Observed throughput.
    pub perf: Throughput,
    /// When the sample was taken.
    pub at: SimTime,
}

impl ProfileSample {
    /// Creates a sample.
    #[must_use]
    pub fn new(power: Watts, perf: Throughput, at: SimTime) -> Self {
        ProfileSample { power, perf, at }
    }
}

/// A database entry: accumulated samples plus the current fitted model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileEntry {
    samples: Vec<ProfileSample>,
    model: PerfModel,
    refits: usize,
    training_len: usize,
    /// `true` when the training samples hold three pairwise-distinct
    /// finite powers. Training samples are never evicted, so every later
    /// sample set counts three as well, and a refit fits the quadratic
    /// without counting (DESIGN.md §16).
    three_powers: bool,
    /// Fit error of the original training run, the yardstick a refit is
    /// judged against (floored so a perfect fit doesn't make any later
    /// noise look divergent).
    baseline_rmse: f64,
    /// [`ProfileEntry::residual_sigma`], taken by the closing pass each
    /// time the samples or the model change.
    residual_sigma: f64,
    /// Consecutive refits whose error blew past the baseline.
    diverging_refits: u32,
    /// Set when refits diverged repeatedly: the model is no longer
    /// trusted and the pair should be retrained.
    quarantined: bool,
}

impl ProfileEntry {
    /// The current fitted performance projection.
    #[must_use]
    pub fn model(&self) -> &PerfModel {
        &self.model
    }

    /// All samples currently retained.
    #[must_use]
    pub fn samples(&self) -> &[ProfileSample] {
        &self.samples
    }

    /// How many times the model has been refitted since training.
    #[must_use]
    pub fn refit_count(&self) -> usize {
        self.refits
    }

    /// `true` once repeated divergent refits got this entry quarantined.
    #[must_use]
    pub fn is_quarantined(&self) -> bool {
        self.quarantined
    }

    /// The standard deviation of the model's residuals over the retained
    /// samples, floored at [`RESIDUAL_SIGMA_FLOOR`] of the mean absolute
    /// throughput — the monitor's yardstick for spotting outlier feedback.
    #[must_use]
    pub fn residual_sigma(&self) -> Throughput {
        Throughput::new(self.residual_sigma)
    }
}

/// What one pass over an entry's samples under its model yields.
struct ClosingPass {
    /// RMS residual against the raw fitted curve (the fit's RMSE).
    rmse: f64,
    /// RMS residual against the clamped model, floored.
    sigma: f64,
    mean_abs_perf: f64,
}

impl ClosingPass {
    /// Three left folds over `samples` in slice order: the squared
    /// residuals against `model`'s raw curve, the squared residuals
    /// against its clamped [`PerfModel::eval`], and `|perf|`. The folds
    /// start at `+0.0` where `Iterator::sum` starts at `−0.0`; no square
    /// and no absolute value is `−0.0`, so the start's sign never reaches
    /// a sum.
    fn over(samples: &[ProfileSample], model: &PerfModel) -> Self {
        let curve = model.curve();
        let (mut raw_sq, mut model_sq, mut abs_perf) = (0.0, 0.0, 0.0);
        for s in samples {
            let perf = s.perf.value();
            let r = curve.eval(s.power.value()) - perf;
            raw_sq += r * r;
            let residual = perf - model.eval(s.power).value();
            model_sq += residual * residual;
            abs_perf += perf.abs();
        }
        let n = samples.len() as f64;
        let mean_abs_perf = abs_perf / n;
        ClosingPass {
            rmse: (raw_sq / n).sqrt(),
            sigma: (model_sq / n)
                .sqrt()
                .max(RESIDUAL_SIGMA_FLOOR * mean_abs_perf),
            mean_abs_perf,
        }
    }
}

/// The performance-power database.
///
/// # Examples
///
/// ```
/// use greenhetero_core::database::{PerfDatabase, ProfileSample};
/// use greenhetero_core::types::*;
///
/// let mut db = PerfDatabase::new();
/// let (cfg, wl) = (ConfigId::new(0), WorkloadId::new(0));
/// let range = PowerRange::new(Watts::new(47.0), Watts::new(81.0))?;
/// assert!(!db.contains(cfg, wl)); // → Algorithm 1 would start a training run
///
/// let samples: Vec<ProfileSample> = [55.0, 62.0, 69.0, 75.0, 81.0]
///     .iter()
///     .enumerate()
///     .map(|(i, &p)| ProfileSample::new(
///         Watts::new(p),
///         Throughput::new(100.0 * p - 0.3 * p * p),
///         SimTime::from_secs(i as u64 * 120),
///     ))
///     .collect();
/// db.insert_training(cfg, wl, range, &samples)?;
/// let model = db.model(cfg, wl)?;
/// assert!(model.eval(Watts::new(81.0)) > model.eval(Watts::new(55.0)));
/// # Ok::<(), greenhetero_core::error::CoreError>(())
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PerfDatabase {
    // Ordered map on purpose: `iter()` feeds checkpoint/report paths, and a
    // hash map's seeded order would make those outputs differ across runs.
    entries: BTreeMap<(ConfigId, WorkloadId), Arc<ProfileEntry>>,
    max_samples: usize,
}

/// Default cap on retained samples per entry: the 5 training samples plus
/// roughly a day of 15-minute epoch feedback.
const DEFAULT_MAX_SAMPLES: usize = 128;

/// A refit counts as divergent when its error exceeds this multiple of the
/// training baseline. Generous on purpose: ordinary monitor noise (≈1 %)
/// must never trip it, only a fit being dragged off the curve.
const DIVERGENCE_FACTOR: f64 = 8.0;

/// Consecutive divergent refits before an entry is quarantined.
const QUARANTINE_STRIKES: u32 = 3;

/// Residual-sigma floor as a fraction of the mean absolute throughput,
/// so a near-perfect training fit still tolerates realistic noise.
const RESIDUAL_SIGMA_FLOOR: f64 = 0.02;

impl PerfDatabase {
    /// Creates an empty database with the default sample-retention cap.
    #[must_use]
    pub fn new() -> Self {
        Self::with_max_samples(DEFAULT_MAX_SAMPLES)
    }

    /// Creates an empty database retaining at most `max_samples` samples
    /// per (configuration, workload) entry. Older feedback samples are
    /// evicted first; training samples are kept as long as possible.
    ///
    /// # Panics
    ///
    /// Panics if `max_samples < 2` — a quadratic fit needs at least two
    /// points.
    #[must_use]
    pub fn with_max_samples(max_samples: usize) -> Self {
        assert!(max_samples >= 2, "max_samples must be at least 2");
        PerfDatabase {
            entries: BTreeMap::new(),
            max_samples,
        }
    }

    /// `true` if a *trusted* projection exists for this (configuration,
    /// workload) pair — Algorithm 1's `c & w == 0` check, inverted. A
    /// quarantined entry counts as missing, which is exactly what
    /// schedules its retraining run.
    #[must_use]
    pub fn contains(&self, config: ConfigId, workload: WorkloadId) -> bool {
        self.entries
            .get(&(config, workload))
            .is_some_and(|e| !e.quarantined)
    }

    /// Number of (configuration, workload) entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the database has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up the performance projection for a pair.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ProfileMissing`] when no training run has been
    /// performed for the pair yet.
    pub fn model(&self, config: ConfigId, workload: WorkloadId) -> Result<&PerfModel, CoreError> {
        self.entry(config, workload)
            .map(ProfileEntry::model)
            .ok_or(CoreError::ProfileMissing { config, workload })
    }

    /// Full entry access (samples, refit count) for diagnostics.
    #[must_use]
    pub fn entry(&self, config: ConfigId, workload: WorkloadId) -> Option<&ProfileEntry> {
        self.entries.get(&(config, workload)).map(Arc::as_ref)
    }

    /// Inserts the samples of a completed training run and fits the initial
    /// projection (Algorithm 1, lines 4–5). Replaces any existing entry,
    /// shared or not.
    ///
    /// `range` is the server's productive power envelope for this workload
    /// (idle power .. workload peak draw), which bounds the projection.
    ///
    /// # Errors
    ///
    /// Propagates fit errors: fewer than 2 samples, or degenerate samples.
    pub fn insert_training(
        &mut self,
        config: ConfigId,
        workload: WorkloadId,
        range: PowerRange,
        samples: &[ProfileSample],
    ) -> Result<FitResult, CoreError> {
        let distinct = distinct_x_upto_3(samples, power);
        let model = PerfModel::new(fit_curve(samples, point, distinct)?, range);
        let closing = ClosingPass::over(samples, &model);
        self.entries.insert(
            (config, workload),
            Arc::new(ProfileEntry {
                // greenhetero-lint: allow(GH006) one copy per training run, outside the per-epoch refit
                samples: samples.to_vec(),
                model,
                refits: 0,
                training_len: samples.len(),
                three_powers: distinct == 3 && samples.iter().all(|s| power(s).is_finite()),
                baseline_rmse: closing
                    .rmse
                    .max(RESIDUAL_SIGMA_FLOOR * closing.mean_abs_perf),
                residual_sigma: closing.sigma,
                diverging_refits: 0,
                quarantined: false,
            }),
        );
        Ok(FitResult {
            curve: model.curve(),
            rmse: closing.rmse,
            samples: samples.len(),
        })
    }

    /// Records epoch feedback and refits the projection with both the new
    /// and old profiling data (Algorithm 1, lines 8–10). An entry still
    /// shared with another database is copied first, and only that entry.
    ///
    /// The `GreenHetero-a` policy simply never calls this, which is exactly
    /// the "without optimizations" ablation of Table III.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ProfileMissing`] when the pair has no training
    /// entry or the entry is quarantined (a retraining run must replace it
    /// first), and propagates fit failures (the previous model is kept in
    /// that case).
    pub fn record_feedback(
        &mut self,
        config: ConfigId,
        workload: WorkloadId,
        sample: ProfileSample,
    ) -> Result<FitResult, CoreError> {
        let max_samples = self.max_samples;
        let entry = self
            .entries
            .get_mut(&(config, workload))
            .filter(|e| !e.quarantined)
            .ok_or(CoreError::ProfileMissing { config, workload })?;
        let entry = Arc::make_mut(entry);

        let len = entry.samples.len();
        if len == entry.samples.capacity() {
            // Double as `push` would, but never past the one sample over
            // the cap that the eviction below removes.
            entry
                .samples
                .reserve_exact(len.min((max_samples + 1).saturating_sub(len)).max(1));
        }
        entry.samples.push(sample);
        // Evict the oldest *feedback* sample once over cap; training
        // samples anchor the low/high-power ends of the fit.
        if entry.samples.len() > max_samples {
            let first_feedback = entry.training_len.min(entry.samples.len() - 1);
            entry.samples.remove(first_feedback);
        }

        let distinct = if entry.three_powers {
            3
        } else {
            distinct_x_upto_3(&entry.samples, power)
        };
        let curve = match fit_curve(&entry.samples, point, distinct) {
            Ok(curve) => curve,
            Err(err) => {
                // The previous model stays, and the next gate reads it
                // against the samples retained now.
                entry.residual_sigma = ClosingPass::over(&entry.samples, &entry.model).sigma;
                return Err(err);
            }
        };
        entry.model = PerfModel::new(curve, entry.model.range());
        let closing = ClosingPass::over(&entry.samples, &entry.model);
        entry.residual_sigma = closing.sigma;
        entry.refits += 1;
        // Divergence watchdog: a refit drifting far above the training
        // baseline means the samples no longer describe one curve. Three
        // strikes quarantine the entry so the scheduler retrains it.
        if closing.rmse > DIVERGENCE_FACTOR * entry.baseline_rmse {
            entry.diverging_refits += 1;
            if entry.diverging_refits >= QUARANTINE_STRIKES {
                entry.quarantined = true;
            }
        } else {
            entry.diverging_refits = 0;
        }
        Ok(FitResult {
            curve,
            rmse: closing.rmse,
            samples: entry.samples.len(),
        })
    }

    /// Iterates over all `((config, workload), entry)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&(ConfigId, WorkloadId), &ProfileEntry)> {
        self.entries
            .iter()
            .map(|(key, entry)| (key, entry.as_ref()))
    }
}

/// A sample's power, the `x` the fit counts distinct values of.
fn power(s: &ProfileSample) -> f64 {
    s.power.value()
}

/// A sample as the fit's `(power, perf)` point.
fn point(s: &ProfileSample) -> (f64, f64) {
    (s.power.value(), s.perf.value())
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    use super::*;
    use crate::database::fit::tests::{fit_bits, fit_reference};

    fn ids() -> (ConfigId, WorkloadId) {
        (ConfigId::new(1), WorkloadId::new(2))
    }

    fn range() -> PowerRange {
        PowerRange::new(Watts::new(47.0), Watts::new(81.0)).unwrap()
    }

    fn training_samples() -> Vec<ProfileSample> {
        // Ground truth: perf = 40p − 0.2p² (concave increasing on [47, 81]).
        [50.0, 58.0, 66.0, 74.0, 81.0]
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                ProfileSample::new(
                    Watts::new(p),
                    Throughput::new(40.0 * p - 0.2 * p * p),
                    SimTime::from_secs(i as u64 * 120),
                )
            })
            .collect()
    }

    #[test]
    fn missing_entry_reports_profile_missing() {
        let db = PerfDatabase::new();
        let (c, w) = ids();
        assert!(!db.contains(c, w));
        assert_eq!(
            db.model(c, w).unwrap_err(),
            CoreError::ProfileMissing {
                config: c,
                workload: w
            }
        );
    }

    #[test]
    fn training_run_creates_usable_model() {
        let mut db = PerfDatabase::new();
        let (c, w) = ids();
        let fit = db
            .insert_training(c, w, range(), &training_samples())
            .unwrap();
        assert!(fit.rmse < 1e-6);
        assert!(db.contains(c, w));
        assert_eq!(db.len(), 1);
        let m = db.model(c, w).unwrap();
        // Recovers the ground truth closely.
        assert!((m.curve().m - 40.0).abs() < 1e-5);
        assert!((m.curve().n + 0.2).abs() < 1e-7);
    }

    #[test]
    fn feedback_refits_and_counts() {
        let mut db = PerfDatabase::new();
        let (c, w) = ids();
        db.insert_training(c, w, range(), &training_samples())
            .unwrap();
        let s = ProfileSample::new(
            Watts::new(70.0),
            Throughput::new(40.0 * 70.0 - 0.2 * 70.0 * 70.0),
            SimTime::from_secs(900),
        );
        db.record_feedback(c, w, s).unwrap();
        let entry = db.entry(c, w).unwrap();
        assert_eq!(entry.refit_count(), 1);
        assert_eq!(entry.samples().len(), 6);
    }

    #[test]
    fn feedback_without_training_errors() {
        let mut db = PerfDatabase::new();
        let (c, w) = ids();
        let s = ProfileSample::new(Watts::new(60.0), Throughput::new(10.0), SimTime::ZERO);
        assert!(matches!(
            db.record_feedback(c, w, s),
            Err(CoreError::ProfileMissing { .. })
        ));
    }

    #[test]
    fn feedback_improves_a_biased_initial_fit() {
        // Train with samples only from a narrow power band, then feed
        // feedback across the full band: the refit model should project the
        // peak more accurately.
        let truth = |p: f64| 40.0 * p - 0.2 * p * p;
        let mut db = PerfDatabase::new();
        let (c, w) = ids();
        // Narrow, noisy training band near idle.
        let narrow: Vec<ProfileSample> = [48.0, 50.0, 52.0, 54.0, 56.0]
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let noise = if i % 2 == 0 { 30.0 } else { -30.0 };
                ProfileSample::new(
                    Watts::new(p),
                    Throughput::new(truth(p) + noise),
                    SimTime::from_secs(i as u64 * 120),
                )
            })
            .collect();
        db.insert_training(c, w, range(), &narrow).unwrap();
        let err_before =
            (db.model(c, w).unwrap().eval(Watts::new(81.0)).value() - truth(81.0)).abs();
        for (i, p) in [60.0, 66.0, 72.0, 78.0, 81.0].iter().enumerate() {
            db.record_feedback(
                c,
                w,
                ProfileSample::new(
                    Watts::new(*p),
                    Throughput::new(truth(*p)),
                    SimTime::from_secs(1000 + i as u64 * 900),
                ),
            )
            .unwrap();
        }
        let err_after =
            (db.model(c, w).unwrap().eval(Watts::new(81.0)).value() - truth(81.0)).abs();
        assert!(
            err_after < err_before,
            "refit should improve peak projection: before {err_before}, after {err_after}"
        );
    }

    #[test]
    fn sample_cap_evicts_feedback_not_training() {
        let mut db = PerfDatabase::with_max_samples(7);
        let (c, w) = ids();
        db.insert_training(c, w, range(), &training_samples())
            .unwrap();
        for i in 0u32..10 {
            let p = 50.0 + f64::from(i) * 3.0;
            db.record_feedback(
                c,
                w,
                ProfileSample::new(
                    Watts::new(p),
                    Throughput::new(40.0 * p - 0.2 * p * p),
                    SimTime::from_secs(1000 + u64::from(i)),
                ),
            )
            .unwrap();
        }
        let entry = db.entry(c, w).unwrap();
        assert_eq!(entry.samples().len(), 7);
        // The five training samples survive at the front.
        for (s, t) in entry.samples().iter().take(5).zip(training_samples()) {
            assert_eq!(s.power, t.power);
        }
    }

    #[test]
    #[should_panic(expected = "max_samples must be at least 2")]
    fn tiny_cap_panics() {
        let _ = PerfDatabase::with_max_samples(1);
    }

    #[test]
    fn divergent_refits_quarantine_the_entry() {
        let mut db = PerfDatabase::new();
        let (c, w) = ids();
        db.insert_training(c, w, range(), &training_samples())
            .unwrap();
        // Wildly inconsistent feedback: alternating ±2000 around the curve
        // drags every refit far past the divergence threshold.
        let mut strikes = 0;
        for i in 0u32..10 {
            let p = 55.0 + f64::from(i) * 2.0;
            let noise = if i % 2 == 0 { 2000.0 } else { -2000.0 };
            let s = ProfileSample::new(
                Watts::new(p),
                Throughput::new(40.0 * p - 0.2 * p * p + noise),
                SimTime::from_secs(1000 + u64::from(i) * 900),
            );
            match db.record_feedback(c, w, s) {
                Ok(_) => strikes += 1,
                Err(CoreError::ProfileMissing { .. }) => break,
                Err(other) => panic!("unexpected error: {other:?}"),
            }
        }
        assert_eq!(strikes, 3, "quarantine should trip on the third strike");
        let entry = db.entry(c, w).unwrap();
        assert!(entry.is_quarantined());
        // A quarantined pair reads as missing → Algorithm 1 retrains it.
        assert!(!db.contains(c, w));
        let s = ProfileSample::new(Watts::new(60.0), Throughput::new(1000.0), SimTime::ZERO);
        assert!(matches!(
            db.record_feedback(c, w, s),
            Err(CoreError::ProfileMissing { .. })
        ));
        // Retraining replaces the entry and clears the quarantine.
        db.insert_training(c, w, range(), &training_samples())
            .unwrap();
        assert!(db.contains(c, w));
        assert!(!db.entry(c, w).unwrap().is_quarantined());
    }

    #[test]
    fn consistent_feedback_never_quarantines() {
        let mut db = PerfDatabase::new();
        let (c, w) = ids();
        db.insert_training(c, w, range(), &training_samples())
            .unwrap();
        // Realistic 1 % monitor noise must never look divergent.
        for i in 0u32..50 {
            let p = 50.0 + f64::from(i % 11) * 3.0;
            let truth = 40.0 * p - 0.2 * p * p;
            let noise = truth * 0.01 * if i % 2 == 0 { 1.0 } else { -1.0 };
            db.record_feedback(
                c,
                w,
                ProfileSample::new(
                    Watts::new(p),
                    Throughput::new(truth + noise),
                    SimTime::from_secs(1000 + u64::from(i) * 900),
                ),
            )
            .unwrap();
        }
        assert!(db.contains(c, w));
        assert!(!db.entry(c, w).unwrap().is_quarantined());
    }

    #[test]
    fn residual_sigma_tracks_scatter() {
        let mut db = PerfDatabase::new();
        let (c, w) = ids();
        db.insert_training(c, w, range(), &training_samples())
            .unwrap();
        // A perfect fit still reports the floor, not zero.
        let sigma = db.entry(c, w).unwrap().residual_sigma();
        assert!(sigma.value() > 0.0);
    }

    fn feedback(p: f64, at: u64) -> ProfileSample {
        ProfileSample::new(
            Watts::new(p),
            Throughput::new(40.0 * p - 0.2 * p * p),
            SimTime::from_secs(at),
        )
    }

    fn trained(pairs: &[(ConfigId, WorkloadId)]) -> PerfDatabase {
        let mut db = PerfDatabase::new();
        for &(c, w) in pairs {
            db.insert_training(c, w, range(), &training_samples())
                .unwrap();
        }
        db
    }

    /// `true` when both databases hold the very same entry for the pair.
    fn shared(a: &PerfDatabase, b: &PerfDatabase, (c, w): (ConfigId, WorkloadId)) -> bool {
        std::ptr::eq(a.entry(c, w).unwrap(), b.entry(c, w).unwrap())
    }

    #[test]
    fn clones_of_one_database_diverge_independently() {
        let (c, w) = ids();
        let base = trained(&[(c, w)]);
        let mut a = base.clone();
        let mut b = base.clone();
        assert!(shared(&a, &base, (c, w)) && shared(&b, &base, (c, w)));
        a.record_feedback(c, w, feedback(62.0, 900)).unwrap();
        a.record_feedback(c, w, feedback(75.0, 1800)).unwrap();
        b.record_feedback(c, w, feedback(55.0, 900)).unwrap();
        assert_eq!(a.entry(c, w).map(ProfileEntry::refit_count), Some(2));
        assert_eq!(b.entry(c, w).map(ProfileEntry::refit_count), Some(1));
        assert_eq!(base.entry(c, w).map(ProfileEntry::refit_count), Some(0));
    }

    #[test]
    fn feedback_copies_only_the_entry_it_writes() {
        let (c, w) = ids();
        let untouched = (ConfigId::new(7), w);
        let base = trained(&[(c, w), untouched]);
        let mut rack = base.clone();
        rack.record_feedback(c, w, feedback(70.0, 900)).unwrap();
        assert!(!shared(&rack, &base, (c, w)));
        assert!(shared(&rack, &base, untouched));
        assert_eq!(rack.len(), 2);
    }

    #[test]
    fn rejected_feedback_copies_nothing() {
        let (c, w) = ids();
        let mut base = trained(&[(c, w)]);
        // Alternating ±2000 feedback quarantines the entry.
        for i in 0u32..10 {
            let p = 55.0 + f64::from(i) * 2.0;
            let noise = if i % 2 == 0 { 2000.0 } else { -2000.0 };
            let sample = ProfileSample::new(
                Watts::new(p),
                Throughput::new(40.0 * p - 0.2 * p * p + noise),
                SimTime::from_secs(1000 + u64::from(i) * 900),
            );
            if base.record_feedback(c, w, sample).is_err() {
                break;
            }
        }
        assert!(base.entry(c, w).is_some_and(ProfileEntry::is_quarantined));
        let mut rack = base.clone();
        let missing = (ConfigId::new(9), WorkloadId::new(9));
        for (config, workload) in [(c, w), missing] {
            assert!(matches!(
                rack.record_feedback(config, workload, feedback(60.0, 99_000)),
                Err(CoreError::ProfileMissing { .. })
            ));
        }
        assert!(shared(&rack, &base, (c, w)));
        assert_eq!(rack.len(), 1);
    }

    #[test]
    fn sample_capacity_doubles_up_to_one_past_the_cap() {
        let (c, w) = ids();
        let base = trained(&[(c, w)]);
        let mut rack = base.clone();
        for i in 0..300u32 {
            let p = 50.0 + f64::from(i % 30);
            rack.record_feedback(c, w, feedback(p, 900 + u64::from(i)))
                .unwrap();
            let samples = &rack.entry(c, w).unwrap().samples;
            let bound = (2 * samples.len()).min(DEFAULT_MAX_SAMPLES + 1);
            assert!(
                samples.capacity() <= bound,
                "after {} samples: capacity {} over {bound}",
                samples.len(),
                samples.capacity()
            );
        }
    }

    #[test]
    fn training_replaces_a_shared_entry() {
        let (c, w) = ids();
        let mut base = trained(&[(c, w)]);
        base.record_feedback(c, w, feedback(70.0, 900)).unwrap();
        let mut rack = base.clone();
        rack.insert_training(c, w, range(), &training_samples())
            .unwrap();
        assert!(!shared(&rack, &base, (c, w)));
        assert_eq!(rack.entry(c, w).map(ProfileEntry::refit_count), Some(0));
        assert_eq!(base.entry(c, w).map(ProfileEntry::refit_count), Some(1));
    }

    /// `ProfileEntry::residual_sigma` as it was computed on every call,
    /// over the retained samples under the current model.
    fn reference_sigma(entry: &ProfileEntry) -> f64 {
        let n = entry.samples().len() as f64;
        let mut sq_sum = 0.0;
        let mut abs_sum = 0.0;
        for s in entry.samples() {
            let residual = s.perf.value() - entry.model().eval(s.power).value();
            sq_sum += residual * residual;
            abs_sum += s.perf.value().abs();
        }
        let rms = (sq_sum / n).sqrt();
        let floor = RESIDUAL_SIGMA_FLOOR * (abs_sum / n);
        rms.max(floor)
    }

    /// Trains an entry on `training`, feeds it `feedback` under a cap of
    /// `cap` samples, and asserts after every call that the result is
    /// the copy-and-sort reference fit over the retained samples, that
    /// the model holds that fit's curve (or the previous one when the
    /// fit failed), and that the stored sigma is the reference sigma.
    fn check_refits(
        training: &[ProfileSample],
        range: PowerRange,
        cap: usize,
        feedback: &[ProfileSample],
    ) {
        let (c, w) = ids();
        let points =
            |samples: &[ProfileSample]| -> Vec<(f64, f64)> { samples.iter().map(point).collect() };
        let mut db = PerfDatabase::with_max_samples(cap);
        let trained = db.insert_training(c, w, range, training);
        assert_eq!(
            fit_bits(&trained),
            fit_bits(&fit_reference(&points(training)))
        );
        if trained.is_err() {
            return;
        }
        let entry = db.entry(c, w).unwrap();
        assert_eq!(
            entry.residual_sigma().value().to_bits(),
            reference_sigma(entry).to_bits()
        );
        for (i, &sample) in feedback.iter().enumerate() {
            let before = db.entry(c, w).unwrap();
            let (quarantined, previous) = (before.is_quarantined(), before.model().curve());
            let got = db.record_feedback(c, w, sample);
            if quarantined {
                assert!(matches!(got, Err(CoreError::ProfileMissing { .. })));
                return;
            }
            let entry = db.entry(c, w).unwrap();
            let want = fit_reference(&points(entry.samples()));
            let curve = want.as_ref().map_or(previous, |f| f.curve);
            let model = entry.model().curve();
            assert_eq!(
                (
                    fit_bits(&got),
                    [model.l, model.m, model.n].map(f64::to_bits),
                    entry.residual_sigma().value().to_bits(),
                ),
                (
                    fit_bits(&want),
                    [curve.l, curve.m, curve.n].map(f64::to_bits),
                    reference_sigma(entry).to_bits(),
                ),
                "feedback {i} of {feedback:?}, cap {cap}, training {training:?}"
            );
        }
    }

    #[test]
    fn failed_refit_keeps_the_model_and_refreshes_sigma() {
        // Two training powers fit a line. A feedback power 1.5 nW off one
        // of them makes three distinct powers, two of them so close that
        // the quadratic's normal equations are singular.
        let training: Vec<ProfileSample> = [100.0, 100.0, 200.0, 200.0]
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let perf = 3.0 * p + if i % 2 == 0 { 4.0 } else { -4.0 };
                ProfileSample::new(
                    Watts::new(p),
                    Throughput::new(perf),
                    SimTime::from_secs(i as u64 * 120),
                )
            })
            .collect();
        let range = PowerRange::new(Watts::new(90.0), Watts::new(210.0)).unwrap();
        let odd = ProfileSample::new(
            Watts::new(100.0 + 1.5e-9),
            Throughput::new(420.0),
            SimTime::from_secs(900),
        );
        let mut db = PerfDatabase::new();
        let (c, w) = ids();
        db.insert_training(c, w, range, &training).unwrap();
        let line = db.model(c, w).unwrap().curve();
        let sigma = db.entry(c, w).unwrap().residual_sigma();
        assert_eq!(db.record_feedback(c, w, odd), Err(CoreError::DegenerateFit));
        let entry = db.entry(c, w).unwrap();
        assert_eq!(entry.model().curve(), line);
        assert_eq!(entry.samples().len(), 5);
        assert_eq!(entry.refit_count(), 0);
        assert!(entry.residual_sigma() > sigma);
        check_refits(&training, range, 4, &[odd, odd, training[2]]);
    }

    /// Samples on one to four base powers in 40–400 W, each power 0–4
    /// ticks of 0.1–0.7 nW above its base, so the `1e-9` chain both
    /// merges and splits them; a quarter of them anywhere in 40–400 W
    /// when `spread` is set.
    fn random_samples(
        rng: &mut StdRng,
        len: usize,
        bases: &[f64],
        spread: bool,
    ) -> Vec<ProfileSample> {
        let tick = 0.1e-9 + 0.6e-9 * rng.random::<f64>();
        let (m, n) = (0.5 + 4.5 * rng.random::<f64>(), -0.02 * rng.random::<f64>());
        (0..len)
            .map(|i| {
                let pick = rng.random::<u32>() as usize;
                let p = if spread && pick.is_multiple_of(4) {
                    40.0 + 360.0 * rng.random::<f64>()
                } else {
                    bases[pick % bases.len()] + f64::from(rng.random::<u32>() % 5) * tick
                };
                let noise = 10.0 * rng.random::<f64>() - 5.0;
                ProfileSample::new(
                    Watts::new(p),
                    Throughput::new(m * p + n * p * p + noise),
                    SimTime::from_secs(i as u64 * 900),
                )
            })
            .collect()
    }

    /// The release sweep CI runs: 20,000 random training runs of 2–40
    /// samples, each fed 1–60 feedback samples (three in four clustered
    /// on the training powers) under a cap of 2–9 samples.
    #[test]
    #[ignore = "20,000 refit sequences; run in release"]
    fn refits_match_reference_on_random_sequences() {
        let mut rng = StdRng::seed_from_u64(0x05ee_df17);
        for _ in 0..20_000 {
            let bases: Vec<f64> = (0..1 + rng.random::<u32>() % 4)
                .map(|_| 40.0 + 360.0 * rng.random::<f64>())
                .collect();
            let training_len = 2 + rng.random::<u32>() as usize % 39;
            let training = random_samples(&mut rng, training_len, &bases, false);
            let feedback_len = 1 + rng.random::<u32>() as usize % 60;
            let feedback = random_samples(&mut rng, feedback_len, &bases, true);
            let idle = 30.0 + 220.0 * rng.random::<f64>();
            let peak = idle + 10.0 + 190.0 * rng.random::<f64>();
            let range = PowerRange::new(Watts::new(idle), Watts::new(peak)).unwrap();
            let cap = 2 + rng.random::<u32>() as usize % 8;
            check_refits(&training, range, cap, &feedback);
        }
    }

    #[test]
    fn iter_visits_all_entries() {
        let mut db = PerfDatabase::new();
        db.insert_training(
            ConfigId::new(0),
            WorkloadId::new(0),
            range(),
            &training_samples(),
        )
        .unwrap();
        db.insert_training(
            ConfigId::new(1),
            WorkloadId::new(0),
            range(),
            &training_samples(),
        )
        .unwrap();
        assert_eq!(db.iter().count(), 2);
    }
}
