//! Evaluation metrics, foremost the paper's **Effective Power Utilization**.
//!
//! EPU (Eq. 1 of the paper) is the fraction of the supplied green power that
//! is actually converted into workload throughput:
//!
//! ```text
//! EPU = Σ P_throughput / Σ P_supply
//! ```
//!
//! `P_throughput` counts only watts a server productively consumes: an
//! allocation below a server's idle power produces nothing (the server
//! cannot even run), and any allocation beyond the workload's peak draw is
//! wasted. A perfect allocation has EPU = 1.
//!
//! # Examples
//!
//! ```
//! use greenhetero_core::metrics::EpuAccumulator;
//! use greenhetero_core::types::{PowerRange, Watts};
//!
//! let range = PowerRange::new(Watts::new(47.0), Watts::new(81.0))?;
//! let mut epu = EpuAccumulator::new();
//! // 110 W offered, but the workload tops out at 81 W: 29 W are wasted.
//! epu.record_server(Watts::new(110.0), range);
//! assert!((epu.epu().value() - 81.0 / 110.0).abs() < 1e-12);
//! # Ok::<(), greenhetero_core::error::CoreError>(())
//! ```

use serde::{Deserialize, Serialize};

use crate::types::{PowerRange, Ratio, Throughput, Watts};

/// Computes the power a server productively consumes out of an allocation.
///
/// Implements the paper's §IV-B3 semantics:
/// * below `range.idle()` the server cannot operate → 0 productive watts;
/// * between idle and peak the whole allocation is productive;
/// * above `range.peak()` consumption saturates at peak and the excess is
///   wasted.
///
/// # Examples
///
/// ```
/// use greenhetero_core::metrics::productive_power;
/// use greenhetero_core::types::{PowerRange, Watts};
///
/// let r = PowerRange::new(Watts::new(50.0), Watts::new(100.0))?;
/// assert_eq!(productive_power(Watts::new(30.0), r), Watts::ZERO);
/// assert_eq!(productive_power(Watts::new(70.0), r), Watts::new(70.0));
/// assert_eq!(productive_power(Watts::new(150.0), r), Watts::new(100.0));
/// # Ok::<(), greenhetero_core::error::CoreError>(())
/// ```
#[must_use]
pub fn productive_power(allocated: Watts, range: PowerRange) -> Watts {
    if allocated < range.idle() {
        Watts::ZERO
    } else {
        allocated.min(range.peak())
    }
}

/// Incrementally accumulates EPU over servers and scheduling epochs.
///
/// Feed it either raw `(productive, supplied)` pairs via [`record`] or let
/// it derive the productive share from a server's allocation and power
/// envelope via [`record_server`].
///
/// [`record`]: EpuAccumulator::record
/// [`record_server`]: EpuAccumulator::record_server
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EpuAccumulator {
    productive: f64,
    supplied: f64,
}

impl EpuAccumulator {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one measurement of productive power against supplied power.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `productive` exceeds `supplied` by more than
    /// rounding error — that would mean a server created energy.
    pub fn record(&mut self, productive: Watts, supplied: Watts) {
        debug_assert!(
            productive.value() <= supplied.value() + 1e-9,
            "productive power {productive} exceeds supply {supplied}"
        );
        self.productive += productive.value().max(0.0);
        self.supplied += supplied.value().max(0.0);
    }

    /// Records one server's epoch: `allocated` watts offered to a server
    /// whose productive envelope is `range`.
    pub fn record_server(&mut self, allocated: Watts, range: PowerRange) {
        self.record(productive_power(allocated, range), allocated);
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &EpuAccumulator) {
        self.productive += other.productive;
        self.supplied += other.supplied;
    }

    /// Total productive watts recorded.
    #[must_use]
    pub fn productive(&self) -> Watts {
        Watts::new(self.productive)
    }

    /// Total supplied watts recorded.
    #[must_use]
    pub fn supplied(&self) -> Watts {
        Watts::new(self.supplied)
    }

    /// The effective power utilization so far.
    ///
    /// Returns [`Ratio::ZERO`] when nothing has been supplied (the metric is
    /// undefined; zero is the conservative reading).
    #[must_use]
    pub fn epu(&self) -> Ratio {
        if self.supplied <= 0.0 {
            Ratio::ZERO
        } else {
            Ratio::saturating(self.productive / self.supplied)
        }
    }

    /// `true` if no supply has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.supplied == 0.0
    }
}

/// Normalizes a series of throughputs to a baseline value, the presentation
/// used by the paper's Figures 3, 9, 10, 13 and 14 ("normalized to Uniform").
///
/// Returns `1.0` for entries when the baseline is zero *and* the entry is
/// zero; returns `f64::INFINITY`-avoiding large sentinel is **not** used —
/// a zero baseline with non-zero entries yields `None` instead, because no
/// meaningful normalization exists.
///
/// # Examples
///
/// ```
/// use greenhetero_core::metrics::normalized;
/// use greenhetero_core::types::Throughput;
///
/// let speedup = normalized(Throughput::new(150.0), Throughput::new(100.0));
/// assert_eq!(speedup, Some(1.5));
/// assert_eq!(normalized(Throughput::new(1.0), Throughput::ZERO), None);
/// assert_eq!(normalized(Throughput::ZERO, Throughput::ZERO), Some(1.0));
/// ```
#[must_use]
// greenhetero-lint: allow(GH002) normalized performance is a dimensionless speedup
pub fn normalized(value: Throughput, baseline: Throughput) -> Option<f64> {
    if baseline.value() > 0.0 {
        Some(value.value() / baseline.value())
    } else if value.value() == 0.0 {
        Some(1.0)
    } else {
        None
    }
}

/// Arithmetic mean of a slice; `None` when the slice is empty.
#[must_use]
// greenhetero-lint: allow(GH002) statistics over already-normalized dimensionless series
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// Geometric mean of a slice of positive values; `None` when the slice is
/// empty or contains an entry that is not `> 0.0` (zero of either sign, a
/// negative value or NaN). A `+∞` entry is positive and makes the mean
/// `+∞`.
///
/// Speedup ratios are conventionally aggregated with the geometric mean.
#[must_use]
// greenhetero-lint: allow(GH002) statistics over already-normalized dimensionless series
pub fn geometric_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || !values.iter().all(|v| *v > 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// Summary statistics over a series of per-epoch values.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SeriesSummary {
    /// Arithmetic mean.
    pub mean: f64,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
    /// Number of observations.
    pub count: usize,
}

impl SeriesSummary {
    /// Summarizes a non-empty series; `None` for an empty one.
    #[must_use]
    // greenhetero-lint: allow(GH002) statistics over already-normalized dimensionless series
    pub fn of(values: &[f64]) -> Option<Self> {
        let mean = mean(values)?;
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Some(SeriesSummary {
            mean,
            min,
            max,
            count: values.len(),
        })
    }
}

#[cfg(test)]
// Tests compare results of exact literal arithmetic.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn range(idle: f64, peak: f64) -> PowerRange {
        PowerRange::new(Watts::new(idle), Watts::new(peak)).unwrap()
    }

    #[test]
    fn productive_power_below_idle_is_zero() {
        assert_eq!(
            productive_power(Watts::new(46.9), range(47.0, 81.0)),
            Watts::ZERO
        );
    }

    #[test]
    fn productive_power_at_exact_idle_counts() {
        assert_eq!(
            productive_power(Watts::new(47.0), range(47.0, 81.0)),
            Watts::new(47.0)
        );
    }

    #[test]
    fn productive_power_saturates_at_peak() {
        assert_eq!(
            productive_power(Watts::new(200.0), range(47.0, 81.0)),
            Watts::new(81.0)
        );
    }

    #[test]
    fn epu_empty_is_zero() {
        let acc = EpuAccumulator::new();
        assert!(acc.is_empty());
        assert_eq!(acc.epu(), Ratio::ZERO);
    }

    #[test]
    fn epu_case_study_uniform_split() {
        // The paper's §III-B case study: 220 W split 50/50 between a dual
        // E5-2620 (idle 88, SPECjbb max 147) and an i5 (idle 47, max 81).
        // Uniform gives each 110 W; the i5 wastes 29 W → EPU ≈ 0.868.
        let mut acc = EpuAccumulator::new();
        acc.record_server(Watts::new(110.0), range(88.0, 147.0));
        acc.record_server(Watts::new(110.0), range(47.0, 81.0));
        assert!((acc.epu().value() - (110.0 + 81.0) / 220.0).abs() < 1e-12);
    }

    #[test]
    fn epu_case_study_optimal_split() {
        // PAR = 65% gives the Xeon 143 W (< 147 peak) and the i5 77 W
        // (< 81 peak): everything is productive, EPU = 1.
        let mut acc = EpuAccumulator::new();
        acc.record_server(Watts::new(143.0), range(88.0, 147.0));
        acc.record_server(Watts::new(77.0), range(47.0, 81.0));
        assert_eq!(acc.epu(), Ratio::ONE);
    }

    #[test]
    fn epu_all_power_to_one_server() {
        // PAR = 100%: the Xeon saturates at 147 W, the rest of the 220 W
        // supply is wasted.
        let mut acc = EpuAccumulator::new();
        acc.record_server(Watts::new(220.0), range(88.0, 147.0));
        acc.record_server(Watts::ZERO, range(47.0, 81.0));
        assert!((acc.epu().value() - 147.0 / 220.0).abs() < 1e-12);
    }

    #[test]
    fn epu_merge() {
        let mut a = EpuAccumulator::new();
        a.record(Watts::new(50.0), Watts::new(100.0));
        let mut b = EpuAccumulator::new();
        b.record(Watts::new(100.0), Watts::new(100.0));
        a.merge(&b);
        assert!((a.epu().value() - 0.75).abs() < 1e-12);
        assert_eq!(a.supplied(), Watts::new(200.0));
        assert_eq!(a.productive(), Watts::new(150.0));
    }

    #[test]
    fn normalized_handles_zero_baseline() {
        assert_eq!(normalized(Throughput::new(5.0), Throughput::ZERO), None);
        assert_eq!(normalized(Throughput::ZERO, Throughput::ZERO), Some(1.0));
        assert_eq!(
            normalized(Throughput::new(220.0), Throughput::new(100.0)),
            Some(2.2)
        );
    }

    #[test]
    fn mean_and_geometric_mean() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[2.0, 4.0]), Some(3.0));
        assert_eq!(geometric_mean(&[]), None);
        assert_eq!(geometric_mean(&[1.0, 0.0]), None);
        let gm = geometric_mean(&[2.0, 8.0]).unwrap();
        assert!((gm - 4.0).abs() < 1e-12);
    }

    #[test]
    fn geometric_mean_rejects_every_entry_not_above_zero() {
        assert_eq!(geometric_mean(&[2.0, f64::NAN]), None);
        assert_eq!(geometric_mean(&[f64::NAN]), None);
        assert_eq!(geometric_mean(&[2.0, -0.0]), None);
        assert_eq!(geometric_mean(&[2.0, -3.0]), None);
        assert_eq!(geometric_mean(&[2.0, f64::NEG_INFINITY]), None);
        // `+∞` is positive: the mean is `+∞`, not `None`.
        assert_eq!(geometric_mean(&[2.0, f64::INFINITY]), Some(f64::INFINITY));
    }

    #[test]
    fn series_summary() {
        let s = SeriesSummary::of(&[1.0, 3.0, 2.0]).unwrap();
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.count, 3);
        assert_eq!(SeriesSummary::of(&[]), None);
    }
}
