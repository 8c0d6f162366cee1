//! Fixed-interval power time series: the common currency of solar traces,
//! demand patterns and recorded experiment output.
//!
//! The paper replays NREL irradiance traces sampled **every 15 minutes over
//! one week**; [`PowerTrace`] models exactly that shape and adds CSV I/O so
//! real NREL exports can be substituted for the synthetic traces.

use std::io::{BufRead, BufReader, Read, Write};

use greenhetero_core::error::CoreError;
use greenhetero_core::types::{SimDuration, SimTime, Watts};
use serde::{Deserialize, Serialize};

/// A power value sampled at a fixed interval.
///
/// # Examples
///
/// ```
/// use greenhetero_power::trace::PowerTrace;
/// use greenhetero_core::types::{SimDuration, SimTime, Watts};
///
/// let trace = PowerTrace::new(
///     SimDuration::from_minutes(15),
///     vec![Watts::ZERO, Watts::new(100.0), Watts::new(300.0)],
/// )?;
/// assert_eq!(trace.duration(), SimDuration::from_minutes(45));
/// // Step semantics: a sample holds for its whole interval.
/// assert_eq!(trace.at(SimTime::from_secs(1000)), Watts::new(100.0));
/// # Ok::<(), greenhetero_core::error::CoreError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerTrace {
    interval: SimDuration,
    values: Vec<Watts>,
}

impl PowerTrace {
    /// Creates a trace.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `interval` is zero or
    /// `values` is empty.
    pub fn new(interval: SimDuration, values: Vec<Watts>) -> Result<Self, CoreError> {
        if interval.is_zero() {
            return Err(CoreError::InvalidConfig {
                reason: "trace interval must be non-zero".to_string(),
            });
        }
        if values.is_empty() {
            return Err(CoreError::InvalidConfig {
                reason: "trace must contain at least one sample".to_string(),
            });
        }
        Ok(PowerTrace { interval, values })
    }

    /// The sampling interval.
    #[must_use]
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if the trace has no samples (never, by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total covered duration (`len × interval`).
    #[must_use]
    pub fn duration(&self) -> SimDuration {
        self.interval * self.values.len() as u64
    }

    /// The samples.
    #[must_use]
    pub fn values(&self) -> &[Watts] {
        &self.values
    }

    /// The sample in force at time `t` (step semantics). Times beyond the
    /// end wrap around, so a one-week trace can drive month-long runs.
    #[must_use]
    pub fn at(&self, t: SimTime) -> Watts {
        let idx = (t.as_secs() / self.interval.as_secs()) as usize % self.values.len();
        self.values[idx]
    }

    /// Average power over `[start, start + len)` using step semantics —
    /// what an epoch of the simulation actually receives.
    #[must_use]
    pub fn mean_over(&self, start: SimTime, len: SimDuration) -> Watts {
        if len.is_zero() {
            return self.at(start);
        }
        // Walk the touched intervals, weighting by overlap.
        let step = self.interval.as_secs();
        let begin = start.as_secs();
        let end = begin + len.as_secs();
        let mut acc = 0.0f64;
        let mut t = begin;
        while t < end {
            let idx = ((t / step) as usize) % self.values.len();
            let interval_end = (t / step + 1) * step;
            let chunk = interval_end.min(end) - t;
            acc += self.values[idx].value() * chunk as f64;
            t = interval_end;
        }
        Watts::new(acc / len.as_secs() as f64)
    }

    /// Largest sample.
    #[must_use]
    pub fn max(&self) -> Watts {
        self.values
            .iter()
            .copied()
            .fold(Watts::new(f64::MIN), Watts::max)
    }

    /// Smallest sample.
    #[must_use]
    pub fn min(&self) -> Watts {
        self.values
            .iter()
            .copied()
            .fold(Watts::new(f64::MAX), Watts::min)
    }

    /// Arithmetic mean of all samples.
    #[must_use]
    pub fn mean(&self) -> Watts {
        let sum: f64 = self.values.iter().map(|w| w.value()).sum();
        Watts::new(sum / self.values.len() as f64)
    }

    /// Extracts the sub-trace for day `day` (zero-based). Wraps like
    /// [`at`](PowerTrace::at) if the trace is shorter.
    #[must_use]
    pub fn day(&self, day: u64) -> PowerTrace {
        let per_day = (86_400 / self.interval.as_secs()).max(1) as usize;
        let start = day as usize * per_day;
        let values = (0..per_day)
            .map(|i| self.values[(start + i) % self.values.len()])
            .collect();
        PowerTrace {
            interval: self.interval,
            values,
        }
    }

    /// Serializes as `seconds,watts` CSV rows with a header.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `writer`.
    pub fn write_csv<W: Write>(&self, mut writer: W) -> std::io::Result<()> {
        writeln!(writer, "seconds,watts")?;
        for (i, w) in self.values.iter().enumerate() {
            writeln!(
                writer,
                "{},{:.3}",
                i as u64 * self.interval.as_secs(),
                w.value()
            )?;
        }
        Ok(())
    }

    /// Parses the CSV format produced by [`write_csv`](PowerTrace::write_csv).
    /// The interval is inferred from the first two rows (or falls back to
    /// 15 minutes for a single-row file). Rows must be evenly spaced.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] on malformed rows, uneven
    /// spacing, non-finite watt values, or an empty file.
    pub fn read_csv<R: Read>(reader: R) -> Result<Self, CoreError> {
        let buf = BufReader::new(reader);
        let mut rows: Vec<(u64, f64)> = Vec::new();
        for (line_no, line) in buf.lines().enumerate() {
            let line = line.map_err(|e| CoreError::InvalidConfig {
                reason: format!("csv read error: {e}"),
            })?;
            let line = line.trim();
            if line.is_empty() || (line_no == 0 && line.starts_with("seconds")) {
                continue;
            }
            let mut parts = line.split(',');
            let (Some(sec), Some(watts)) = (parts.next(), parts.next()) else {
                return Err(CoreError::InvalidConfig {
                    reason: format!("csv row {line_no} has fewer than 2 columns"),
                });
            };
            let sec: u64 = sec.trim().parse().map_err(|_| CoreError::InvalidConfig {
                reason: format!("csv row {line_no}: bad seconds value {sec:?}"),
            })?;
            let watts: f64 = watts.trim().parse().map_err(|_| CoreError::InvalidConfig {
                reason: format!("csv row {line_no}: bad watts value {watts:?}"),
            })?;
            if !watts.is_finite() {
                return Err(CoreError::InvalidConfig {
                    reason: format!("csv row {line_no}: non-finite watts"),
                });
            }
            rows.push((sec, watts));
        }
        if rows.is_empty() {
            return Err(CoreError::InvalidConfig {
                reason: "csv contains no samples".to_string(),
            });
        }
        let interval = if rows.len() >= 2 {
            let step = rows[1].0 - rows[0].0;
            if step == 0 || rows.windows(2).any(|w| w[1].0 - w[0].0 != step) {
                return Err(CoreError::InvalidConfig {
                    reason: "csv rows are not evenly spaced".to_string(),
                });
            }
            SimDuration::from_secs(step)
        } else {
            SimDuration::from_minutes(15)
        };
        PowerTrace::new(
            interval,
            rows.into_iter().map(|(_, w)| Watts::new(w)).collect(),
        )
    }
}

/// The diurnal datacenter rack load pattern of the paper's Fig. 6, after
/// Wang et al., "Energy storage in datacenters" (SIGMETRICS'12): a morning
/// ramp, a daytime plateau with a midday bump, and a deep night trough.
///
/// `base` is the nightly minimum and `peak` the daytime maximum; the
/// returned multiplier trace can drive workload intensity directly.
///
/// # Examples
///
/// ```
/// use greenhetero_power::trace::demand_pattern;
/// use greenhetero_core::types::{SimDuration, SimTime, Watts};
///
/// let demand = demand_pattern(Watts::new(400.0), Watts::new(1000.0),
///                             SimDuration::from_minutes(15), 1);
/// assert!(demand.at(SimTime::from_hours(3)) < demand.at(SimTime::from_hours(14)));
/// ```
#[must_use]
#[allow(clippy::expect_used)]
pub fn demand_pattern(base: Watts, peak: Watts, interval: SimDuration, days: u64) -> PowerTrace {
    let samples_per_day = (86_400 / interval.as_secs()).max(1);
    let mut values = Vec::with_capacity((samples_per_day * days) as usize);
    for day in 0..days {
        for i in 0..samples_per_day {
            let hour = (i * interval.as_secs()) as f64 / 3600.0;
            values.push(base + (peak - base) * demand_shape(hour));
            let _ = day;
        }
    }
    // greenhetero-lint: allow(GH001) samples_per_day >= 1 makes the trace non-empty
    PowerTrace::new(interval, values).expect("non-empty by construction")
}

/// Normalized (0..=1) diurnal load shape: trough ~04:00, business-hours
/// plateau with a peak ~14:00, evening shoulder.
fn demand_shape(hour: f64) -> f64 {
    use std::f64::consts::PI;
    // Primary diurnal swing peaking in the early afternoon…
    let diurnal = 0.5 + 0.5 * ((hour - 14.0) / 24.0 * 2.0 * PI).cos();
    // …sharpened so the night trough is flatter and the day plateau wider.
    diurnal.powf(0.7)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> PowerTrace {
        PowerTrace::new(
            SimDuration::from_minutes(15),
            vec![
                Watts::new(0.0),
                Watts::new(100.0),
                Watts::new(300.0),
                Watts::new(200.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_validation() {
        assert!(PowerTrace::new(SimDuration::ZERO, vec![Watts::ZERO]).is_err());
        assert!(PowerTrace::new(SimDuration::from_secs(60), vec![]).is_err());
    }

    #[test]
    fn step_lookup_and_wrap() {
        let t = trace();
        assert_eq!(t.at(SimTime::ZERO), Watts::new(0.0));
        assert_eq!(t.at(SimTime::from_secs(899)), Watts::new(0.0));
        assert_eq!(t.at(SimTime::from_secs(900)), Watts::new(100.0));
        // Wraps after 60 minutes.
        assert_eq!(t.at(SimTime::from_secs(3600)), Watts::new(0.0));
        assert_eq!(t.at(SimTime::from_secs(3600 + 900)), Watts::new(100.0));
    }

    #[test]
    fn mean_over_spans_intervals() {
        let t = trace();
        // A 30-minute epoch across the first two samples averages them.
        let m = t.mean_over(SimTime::ZERO, SimDuration::from_minutes(30));
        assert!((m.value() - 50.0).abs() < 1e-9);
        // Offset by half an interval: 450 s of 0 W + 450 s of 100 W.
        let m2 = t.mean_over(SimTime::from_secs(450), SimDuration::from_minutes(15));
        assert!((m2.value() - 50.0).abs() < 1e-9);
        // Zero-length span degenerates to a point lookup.
        assert_eq!(
            t.mean_over(SimTime::from_secs(900), SimDuration::ZERO),
            Watts::new(100.0)
        );
    }

    #[test]
    fn stats() {
        let t = trace();
        assert_eq!(t.max(), Watts::new(300.0));
        assert_eq!(t.min(), Watts::new(0.0));
        assert_eq!(t.mean(), Watts::new(150.0));
        assert_eq!(t.duration(), SimDuration::from_minutes(60));
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn day_extraction_wraps() {
        // 15-min interval, 4 samples = 1 hour of data; a "day" view wraps it.
        let t = trace();
        let d = t.day(0);
        assert_eq!(d.len(), 96);
        assert_eq!(d.values()[0], Watts::new(0.0));
        assert_eq!(d.values()[4], Watts::new(0.0)); // wrapped
    }

    #[test]
    fn csv_round_trip() {
        let t = trace();
        let mut buf = Vec::new();
        t.write_csv(&mut buf).unwrap();
        let parsed = PowerTrace::read_csv(buf.as_slice()).unwrap();
        assert_eq!(parsed.interval(), t.interval());
        assert_eq!(parsed.len(), t.len());
        for (a, b) in parsed.values().iter().zip(t.values()) {
            assert!(a.abs_diff(*b) < Watts::new(1e-3));
        }
    }

    #[test]
    fn csv_rejects_malformed_input() {
        assert!(PowerTrace::read_csv("".as_bytes()).is_err());
        assert!(PowerTrace::read_csv("seconds,watts\n".as_bytes()).is_err());
        assert!(PowerTrace::read_csv("0,abc\n".as_bytes()).is_err());
        assert!(PowerTrace::read_csv("0,1\n900,2\n1000,3\n".as_bytes()).is_err()); // uneven
        assert!(PowerTrace::read_csv("0\n".as_bytes()).is_err()); // one column
    }

    #[test]
    fn csv_single_row_defaults_interval() {
        let t = PowerTrace::read_csv("0,42.0\n".as_bytes()).unwrap();
        assert_eq!(t.interval(), SimDuration::from_minutes(15));
        assert_eq!(t.values()[0], Watts::new(42.0));
    }

    #[test]
    fn demand_pattern_shape() {
        let d = demand_pattern(
            Watts::new(400.0),
            Watts::new(1000.0),
            SimDuration::from_minutes(15),
            2,
        );
        assert_eq!(d.len(), 192);
        // Bounded by [base, peak].
        assert!(d.min() >= Watts::new(400.0 - 1e-9));
        assert!(d.max() <= Watts::new(1000.0 + 1e-9));
        // Afternoon beats pre-dawn.
        assert!(d.at(SimTime::from_hours(14)) > d.at(SimTime::from_hours(4)));
        // Second day repeats the first.
        assert_eq!(d.at(SimTime::from_hours(14)), d.at(SimTime::from_hours(38)));
    }
}
