//! Training of the Holt smoothing parameters (the paper's Eq. 5).
//!
//! The paper obtains α and β "by training the past renewable power
//! generation records", minimizing the squared difference ΔD² between
//! predicted and observed values within the `[0, 1] × [0, 1]` constraint.
//! We implement this as a coarse grid search followed by a local grid
//! refinement around the best coarse cell — derivative-free, robust, and
//! fast enough to re-run every few hours of simulated time. Each grid is
//! scored a chunk of points at a time, all of them stepping through the
//! history together. A chunk is dropped as soon as all of its points fall
//! behind a bar set by a real grid point, and a leading night of zeros is
//! skipped; the result is the same bit for bit as scoring every point one
//! by one.

use serde::{Deserialize, Serialize};

use crate::error::CoreError;
use crate::predictor::HoltPredictor;

/// A trained (α, β) pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HoltParams {
    /// Level smoothing parameter.
    pub alpha: f64,
    /// Trend smoothing parameter.
    pub beta: f64,
}

impl HoltParams {
    /// Reasonable defaults for a diurnal power series when no history is
    /// available yet: responsive level, conservative trend.
    pub const DEFAULT: HoltParams = HoltParams {
        alpha: 0.8,
        beta: 0.2,
    };

    /// Builds a predictor from these parameters.
    ///
    /// # Panics
    ///
    /// Never panics for values produced by [`train_holt`]; panics if the
    /// fields were manually set outside `[0, 1]`.
    #[must_use]
    #[allow(clippy::expect_used)]
    pub fn predictor(self) -> HoltPredictor {
        HoltPredictor::new(self.alpha, self.beta)
            // greenhetero-lint: allow(GH001) documented panic contract on manually-built params
            .expect("HoltParams fields must lie in [0, 1]")
    }
}

impl Default for HoltParams {
    fn default() -> Self {
        HoltParams::DEFAULT
    }
}

/// Result of a training run: the chosen parameters and their training error.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainOutcome {
    /// The parameters minimizing the training SSE.
    pub params: HoltParams,
    /// Sum of squared one-step-ahead errors over the history (ΔD²).
    pub sse: f64,
}

/// Trains Holt parameters on `history` by two-level grid search.
///
/// `coarse_step` is the spacing of the first grid (the paper does not state
/// its granularity; `0.05` is a good default). A second grid with one tenth
/// of that spacing is searched around the best coarse point.
///
/// # Errors
///
/// * [`CoreError::NoObservations`] if `history` has fewer than 3 points —
///   a shorter series cannot score even one prediction meaningfully.
/// * [`CoreError::InvalidQuantity`] if `coarse_step` is not in `(0, 1]`.
///
/// # Examples
///
/// ```
/// use greenhetero_core::predictor::train_holt;
///
/// // A sine-like power curve: training finds parameters with low error.
/// let history: Vec<f64> = (0..96)
///     .map(|i| (1.0 - ((i as f64 / 96.0 - 0.5) * 3.0).powi(2)).max(0.0) * 1000.0)
///     .collect();
/// let outcome = train_holt(&history, 0.05)?;
/// assert!(outcome.sse.is_finite());
/// assert!((0.0..=1.0).contains(&outcome.params.alpha));
/// # Ok::<(), greenhetero_core::error::CoreError>(())
/// ```
// greenhetero-lint: allow(GH002) the predictor smooths an abstract series; units are the caller's
pub fn train_holt(history: &[f64], coarse_step: f64) -> Result<TrainOutcome, CoreError> {
    train_holt_from(history, coarse_step, HoltParams::DEFAULT)
}

/// [`train_holt`], with the search's bar taken from the grid point
/// nearest `hint`.
///
/// The result is the same bits for every hint, including ones outside
/// `[0, 1]`, NaN and infinities. A hint near the answer only makes the
/// search faster: the last answer on an overlapping history, as the
/// controller's predictor lanes pass, usually is.
///
/// # Errors
///
/// As [`train_holt`].
// greenhetero-lint: allow(GH002) the predictor smooths an abstract series; units are the caller's
pub fn train_holt_from(
    history: &[f64],
    coarse_step: f64,
    hint: HoltParams,
) -> Result<TrainOutcome, CoreError> {
    if history.len() < 3 {
        return Err(CoreError::NoObservations);
    }
    if !coarse_step.is_finite() || coarse_step <= 0.0 || coarse_step > 1.0 {
        return Err(CoreError::InvalidQuantity {
            quantity: "coarse_step",
            value: coarse_step,
        });
    }

    let coarse = grid_search(history, (0.0, 1.0), (0.0, 1.0), coarse_step, hint);
    let window = |centre: f64| {
        (
            (centre - coarse_step).max(0.0),
            (centre + coarse_step).min(1.0),
        )
    };
    let refined = grid_search(
        history,
        window(coarse.params.alpha),
        window(coarse.params.beta),
        coarse_step / 10.0,
        coarse.params,
    );
    Ok(if refined.sse < coarse.sse {
        refined
    } else {
        coarse
    })
}

/// Grid points scored together per pass over the history. A narrow chunk
/// can be dropped as soon as all of its points fall behind the bar; eight
/// lanes still fill four packed SSE2 registers per column.
const LANES: usize = 8;

/// Observations a chunk runs between two checks against the bar.
const CHECK_EVERY: usize = 8;

/// Scores the `alpha × beta` grid (inclusive ranges) and returns the
/// regularized arg-min.
///
/// The points are scored [`LANES`] at a time by [`score_chunk`], but the
/// result is bit-identical, for every `hint`, to scoring them one by one
/// with [`sum_squared_error`](crate::predictor::sum_squared_error):
///
/// * every lane performs the same IEEE operations as the scalar
///   recurrence;
/// * the arg-min is scanned in the scalar grid's order with the same
///   strict `<`, so ties still go to the first point;
/// * a chunk is dropped only once every lane's partial score exceeds the
///   bar, and the bar is always the exact score of a point on this grid:
///   first the grid point nearest `hint`, then the best score so far.
///   A lane's SSE only grows and IEEE addition is monotone, so a dropped
///   point scores above the grid's minimum and cannot be its first
///   minimum.
fn grid_search(
    history: &[f64],
    alpha: (f64, f64),
    beta: (f64, f64),
    step: f64,
    hint: HoltParams,
) -> TrainOutcome {
    // Degenerate histories (e.g. a night of all-zero solar readings) score
    // every (α, β) identically; a naive arg-min would then lock in α = 0,
    // which can never track the series again once it starts moving. A tiny
    // regularizer pulls ties toward the responsive defaults without
    // affecting genuinely informative histories.
    let scale = history.iter().map(|v| v * v).sum::<f64>().max(1.0);
    let weight = 1e-9 * scale;
    let start = Start::of(history);
    let mut points = GridPoints::new(alpha, beta, step);

    // The bar: the grid point nearest the hint, scored like any other.
    // No lane beats an infinite bar, so this chunk always completes.
    let mut bar = points.nearest(hint).map_or(f64::INFINITY, |point| {
        let chunk = Chunk::splat(point, weight);
        score_chunk(&start, &chunk, f64::INFINITY)
            .map_or(f64::INFINITY, |sse| sse[0] + chunk.regs[0])
    });

    let mut best = TrainOutcome {
        params: HoltParams {
            alpha: alpha.0,
            beta: beta.0,
        },
        sse: f64::INFINITY,
    };
    let mut best_score = f64::INFINITY;
    while let Some((chunk, len)) = Chunk::take(&mut points, weight) {
        let Some(sse) = score_chunk(&start, &chunk, bar) else {
            continue;
        };
        let lanes = chunk.alphas.iter().zip(&chunk.betas).zip(&chunk.regs);
        for (((&alpha, &beta), &reg), &lane_sse) in lanes.zip(&sse).take(len) {
            let score = lane_sse + reg;
            if score < best_score {
                best_score = score;
                best = TrainOutcome {
                    params: HoltParams { alpha, beta },
                    sse: lane_sse,
                };
            }
        }
        bar = bar.min(best_score);
    }
    best
}

/// The search grid in scoring order: α-major, each coordinate advanced by
/// repeated `+= step` from its lower end (not `lo + k·step`, whose
/// rounding differs) and clamped into `[0, 1]`, duplicates kept.
struct GridPoints {
    alpha: f64,
    beta: f64,
    alpha_end: f64,
    beta_lo: f64,
    beta_end: f64,
    step: f64,
}

impl GridPoints {
    fn new((alpha_lo, alpha_hi): (f64, f64), (beta_lo, beta_hi): (f64, f64), step: f64) -> Self {
        GridPoints {
            alpha: alpha_lo,
            beta: beta_lo,
            alpha_end: alpha_hi + 1e-12,
            beta_lo,
            beta_end: beta_hi + 1e-12,
            step,
        }
    }

    /// The point of the grid still to come nearest `hint` on each axis,
    /// or `None` when no point is left. Each axis is replayed with the
    /// scan's own `+= step` and clamp, so the point is one the scan
    /// scores; a NaN or infinite coordinate snaps to the axis's first
    /// value.
    fn nearest(&self, hint: HoltParams) -> Option<(f64, f64)> {
        let axis = |lo: f64, end: f64, target: f64| {
            let mut nearest: Option<f64> = None;
            let mut x = lo;
            while x <= end {
                let value = x.clamp(0.0, 1.0);
                if nearest.is_none_or(|n| (value - target).abs() < (n - target).abs()) {
                    nearest = Some(value);
                }
                x += self.step;
            }
            nearest
        };
        Some((
            axis(self.alpha, self.alpha_end, hint.alpha)?,
            axis(self.beta_lo, self.beta_end, hint.beta)?,
        ))
    }
}

impl Iterator for GridPoints {
    type Item = (f64, f64);

    fn next(&mut self) -> Option<(f64, f64)> {
        while self.alpha <= self.alpha_end {
            if self.beta <= self.beta_end {
                let point = (self.alpha.clamp(0.0, 1.0), self.beta.clamp(0.0, 1.0));
                self.beta += self.step;
                return Some(point);
            }
            self.alpha += self.step;
            self.beta = self.beta_lo;
        }
        None
    }
}

/// Up to [`LANES`] grid points, one stack column per quantity.
struct Chunk {
    alphas: [f64; LANES],
    betas: [f64; LANES],
    /// Each point's [`regularizer`].
    regs: [f64; LANES],
}

/// The regularizer `weight · ((α − α₀)² + (β − β₀)²)` around the
/// defaults, evaluated as the scalar search evaluates it.
fn regularizer(alpha: f64, beta: f64, weight: f64) -> f64 {
    let da = alpha - HoltParams::DEFAULT.alpha;
    let db = beta - HoltParams::DEFAULT.beta;
    weight * (da * da + db * db)
}

impl Chunk {
    /// Every lane set to `point`.
    fn splat((alpha, beta): (f64, f64), weight: f64) -> Self {
        Chunk {
            alphas: [alpha; LANES],
            betas: [beta; LANES],
            regs: [regularizer(alpha, beta, weight); LANES],
        }
    }

    /// The next chunk of `points` and how many of its lanes are real, or
    /// `None` when the grid is exhausted. A short chunk is padded with
    /// copies of its first point, so padding never keeps a chunk that
    /// its real points would drop.
    fn take(points: &mut GridPoints, weight: f64) -> Option<(Chunk, usize)> {
        let mut chunk = Chunk::splat(points.next()?, weight);
        let mut len = 1;
        for (alpha, beta) in points.by_ref().take(LANES - 1) {
            chunk.alphas[len] = alpha;
            chunk.betas[len] = beta;
            chunk.regs[len] = regularizer(alpha, beta, weight);
            len += 1;
        }
        Some((chunk, len))
    }
}

/// Where every lane's recurrence starts: the state all lanes share after
/// the opening observations, and the observations left to run.
struct Start<'h> {
    sse: f64,
    level: f64,
    trend: f64,
    rest: &'h [f64],
}

impl<'h> Start<'h> {
    fn of(history: &'h [f64]) -> Self {
        let night = history.iter().take_while(|v| v.to_bits() == 0).count();
        match history {
            // A night: after two or more `+0.0` readings, every lane is at
            // level `+0`, trend `+0` and SSE `+0`, whatever its α and β.
            // The warm-up gives `(+0 − +0)² = +0`, level `+0` and trend
            // `+0 − +0 = +0`; each further `+0` forecasts `+0 + +0`, adds
            // `+0` to the SSE and keeps both at `α·(+0) + (1 − α)·(+0)`
            // and `β·(+0 − +0) + (1 − β)·(+0)`, both `+0` for α, β in
            // `[0, 1]`. A `−0.0` is not bit pattern 0 and ends the night.
            _ if night >= 2 => Start {
                sse: 0.0,
                level: 0.0,
                trend: 0.0,
                rest: history.split_at(night).1,
            },
            // The first two observations only prime the level and trend
            // and are the same for every lane. The primed forecast is the
            // first observation itself; the scalar sum starts at +0.0,
            // and adding a square (never −0.0) to it is exact.
            [first, second, rest @ ..] => {
                let warmup = first - second;
                Start {
                    sse: warmup * warmup,
                    level: *second,
                    trend: second - first,
                    rest,
                }
            }
            // Fewer than two observations: nothing was ever forecast.
            _ => Start {
                sse: 0.0,
                level: 0.0,
                trend: 0.0,
                rest: &[],
            },
        }
    }
}

/// The one-step-ahead SSE of Holt's recurrence over the history for each
/// lane of `chunk`, or `None` once every lane's `sse + reg` exceeds `bar`
/// (checked before the first of `start.rest` and every [`CHECK_EVERY`]
/// observations after it).
///
/// The lanes step through the history together, so the loop over lanes
/// has no dependency chain and vectorizes. Per lane this is
/// [`sum_squared_error`](crate::predictor::sum_squared_error) of a
/// [`HoltPredictor`](crate::predictor::HoltPredictor), operation for
/// operation, from `start`'s shared state: `1 − α` and `1 − β` are
/// hoisted out of the loop (the same values the scalar code recomputes
/// each step), and the forecast `level + trend` (the scalar
/// `level + 1.0·trend`, the same value) feeds both the error and the
/// level update, as it does there.
fn score_chunk(start: &Start<'_>, chunk: &Chunk, bar: f64) -> Option<[f64; LANES]> {
    let Chunk {
        alphas,
        betas,
        regs,
    } = chunk;
    let mut sse = [start.sse; LANES];
    let mut level = [start.level; LANES];
    let mut trend = [start.trend; LANES];
    let keep_level = alphas.map(|a| 1.0 - a);
    let keep_trend = betas.map(|b| 1.0 - b);
    for block in start.rest.chunks(CHECK_EVERY) {
        if sse.iter().zip(regs).all(|(s, r)| s + r > bar) {
            return None;
        }
        for &observed in block {
            for i in 0..LANES {
                let forecast = level[i] + trend[i];
                let d = forecast - observed;
                sse[i] += d * d;
                let new_level = alphas[i] * observed + keep_level[i] * forecast;
                trend[i] = betas[i] * (new_level - level[i]) + keep_trend[i] * trend[i];
                level[i] = new_level;
            }
        }
    }
    Some(sse)
}

/// Trains on `history` from `hint` (see [`train_holt_from`]) but falls
/// back to [`HoltParams::DEFAULT`] when the history is too short to train —
/// the behaviour the scheduler wants during the first epochs of a run. The
/// result does not depend on `hint`.
#[must_use]
// greenhetero-lint: allow(GH002) the predictor smooths an abstract series; units are the caller's
pub fn train_or_default(history: &[f64], coarse_step: f64, hint: HoltParams) -> HoltParams {
    train_holt_from(history, coarse_step, hint)
        .map(|o| o.params)
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::sum_squared_error;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// The scalar search `grid_search` replaces: one `HoltPredictor` per
    /// grid point, scored in turn.
    fn grid_search_scalar(
        history: &[f64],
        alpha_lo: f64,
        alpha_hi: f64,
        beta_lo: f64,
        beta_hi: f64,
        step: f64,
    ) -> TrainOutcome {
        let scale = history.iter().map(|v| v * v).sum::<f64>().max(1.0);
        let regularizer = |a: f64, b: f64| {
            let da = a - HoltParams::DEFAULT.alpha;
            let db = b - HoltParams::DEFAULT.beta;
            1e-9 * scale * (da * da + db * db)
        };
        let mut best = TrainOutcome {
            params: HoltParams {
                alpha: alpha_lo,
                beta: beta_lo,
            },
            sse: f64::INFINITY,
        };
        let mut best_score = f64::INFINITY;
        let mut alpha = alpha_lo;
        while alpha <= alpha_hi + 1e-12 {
            let mut beta = beta_lo;
            while beta <= beta_hi + 1e-12 {
                let a = alpha.clamp(0.0, 1.0);
                let b = beta.clamp(0.0, 1.0);
                let sse = sum_squared_error(HoltPredictor::new(a, b).unwrap(), history);
                let score = sse + regularizer(a, b);
                if score < best_score {
                    best_score = score;
                    best = TrainOutcome {
                        params: HoltParams { alpha: a, beta: b },
                        sse,
                    };
                }
                beta += step;
            }
            alpha += step;
        }
        best
    }

    fn bits(o: TrainOutcome) -> (u64, u64, u64) {
        (
            o.params.alpha.to_bits(),
            o.params.beta.to_bits(),
            o.sse.to_bits(),
        )
    }

    /// The scalar `train_holt`: the coarse grid, then the fine window
    /// around its winner, each scored by `grid_search_scalar`.
    fn train_scalar(history: &[f64], step: f64) -> TrainOutcome {
        let coarse = grid_search_scalar(history, 0.0, 1.0, 0.0, 1.0, step);
        let (a, b) = (coarse.params.alpha, coarse.params.beta);
        let fine = grid_search_scalar(
            history,
            (a - step).max(0.0),
            (a + step).min(1.0),
            (b - step).max(0.0),
            (b + step).min(1.0),
            step / 10.0,
        );
        if fine.sse < coarse.sse {
            fine
        } else {
            coarse
        }
    }

    /// Hints on and off the grid, outside `[0, 1]`, and non-finite.
    const HINTS: [HoltParams; 6] = [
        HoltParams::DEFAULT,
        HoltParams {
            alpha: 0.0,
            beta: 1.0,
        },
        HoltParams {
            alpha: 0.37,
            beta: 0.61,
        },
        HoltParams {
            alpha: -0.5,
            beta: 1.7,
        },
        HoltParams {
            alpha: f64::NAN,
            beta: f64::NAN,
        },
        HoltParams {
            alpha: f64::INFINITY,
            beta: f64::NEG_INFINITY,
        },
    ];

    /// Asserts the pruned search equals the scalar one on `history` over
    /// a window, for every hint in [`HINTS`].
    fn assert_grid_matches(history: &[f64], window: (f64, f64, f64, f64), step: f64) {
        let (a_lo, a_hi, b_lo, b_hi) = window;
        let scalar = bits(grid_search_scalar(history, a_lo, a_hi, b_lo, b_hi, step));
        for hint in HINTS {
            assert_eq!(
                bits(grid_search(history, (a_lo, a_hi), (b_lo, b_hi), step, hint)),
                scalar,
                "len {}, step {step}, window {window:?}, hint {hint:?}",
                history.len()
            );
        }
    }

    #[test]
    fn lane_kernel_matches_scalar_reference() {
        // Lengths around the warm-up, the abandonment checks and the
        // chunk edges, steps whose grids end mid-chunk, windows clipped
        // at either end, and histories with ties (constant, all-zero)
        // and a sunrise.
        let windows = [
            (0.0, 1.0, 0.0, 1.0),
            (0.0, 0.1, 0.9, 1.0),
            (0.35, 0.45, 0.0, 0.05),
            (0.2, 0.2, 0.3, 0.3),
        ];
        for len in [0, 1, 2, 3, 4, 5, 9, 10, 11, 17, 64, 65, 96, 130] {
            let wavy: Vec<f64> = (0..len)
                .map(|i| 400.0 + 300.0 * (f64::from(i) * 0.37).sin() + f64::from(i % 7))
                .collect();
            let sunrise: Vec<f64> = (0..len)
                .map(|i| (f64::from(i) - 10.0).max(0.0) * 25.0)
                .collect();
            for history in [
                wavy,
                sunrise,
                vec![0.0; len as usize],
                vec![42.5; len as usize],
            ] {
                for step in [0.03, 0.05, 0.1, 0.2, 1.0, 0.005] {
                    for window in windows {
                        assert_grid_matches(&history, window, step);
                    }
                }
            }
        }
    }

    #[test]
    fn night_runs_of_every_length_match_scalar_reference() {
        // Leading `+0.0` runs of 0, 1, 2 and 3 readings and the whole
        // history, before a diurnal curve with zeros of its own inside;
        // and the same curves opened by `−0.0`, which is not skipped.
        let day = |i: usize| {
            let sun = 900.0 * ((i + 1) as f64 * 0.13).sin();
            if sun > 0.0 {
                sun + (i % 5) as f64
            } else {
                0.0
            }
        };
        for len in [3, 4, 10, 30, 96] {
            for night in [0, 1, 2, 3, len] {
                let mut history: Vec<f64> = (0..len)
                    .map(|i| if i < night { 0.0 } else { day(i) })
                    .collect();
                for opening in [0.0, -0.0] {
                    history[0] = if night > 0 { opening } else { history[0] };
                    for step in [0.05, 0.1, 1.0] {
                        assert_grid_matches(&history, (0.0, 1.0, 0.0, 1.0), step);
                        assert_grid_matches(&history, (0.75, 0.85, 0.15, 0.25), step / 10.0);
                        for hint in HINTS {
                            assert_eq!(
                                bits(train_holt_from(&history, step, hint).unwrap()),
                                bits(train_scalar(&history, step)),
                                "len {len}, night {night}, opening {opening}, hint {hint:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn chunk_edges_match_scalar_reference() {
        // Grids of one point, one short of a chunk, exactly one chunk,
        // one past it, and the full 21 × 21 coarse grid.
        let grids = [
            (1, (0.2, 0.2, 0.3, 0.3), 0.1),
            (7, (0.2, 0.2, 0.0, 0.6), 0.1),
            (8, (0.2, 0.2, 0.0, 0.7), 0.1),
            (9, (0.2, 0.4, 0.2, 0.4), 0.1),
            (441, (0.0, 1.0, 0.0, 1.0), 0.05),
        ];
        let histories: [Vec<f64>; 3] = [
            (0..50)
                .map(|i| 100.0 + (f64::from(i) * 0.7).sin() * 30.0 + f64::from(i))
                .collect(),
            (0..50).map(|i| if i < 20 { 0.0 } else { 7.0 }).collect(),
            vec![1300.0; 50],
        ];
        for (size, window, step) in grids {
            let (a_lo, a_hi, b_lo, b_hi) = window;
            assert_eq!(
                GridPoints::new((a_lo, a_hi), (b_lo, b_hi), step).count(),
                size,
                "{window:?} at {step}"
            );
            for history in &histories {
                assert_grid_matches(history, window, step);
            }
        }
    }

    #[test]
    fn nearest_point_is_on_the_grid() {
        let grid = || GridPoints::new((0.0, 1.0), (0.0, 1.0), 0.05);
        let points: Vec<(f64, f64)> = grid().collect();
        for hint in HINTS.into_iter().chain([HoltParams {
            alpha: 0.3,
            beta: 0.55,
        }]) {
            let nearest = grid().nearest(hint).unwrap();
            assert!(points.contains(&nearest), "{hint:?} -> {nearest:?}");
        }
        // The accumulated grid value, not the hint: 0.1 + 0.1 + 0.1 is
        // one ulp above 0.3.
        let nearest = GridPoints::new((0.0, 1.0), (0.0, 1.0), 0.1)
            .nearest(HoltParams {
                alpha: 0.3,
                beta: 0.3,
            })
            .unwrap();
        assert_eq!(nearest.0.to_bits(), 0.3f64.to_bits() + 1);
        assert_eq!(
            grid().nearest(HoltParams {
                alpha: f64::NAN,
                beta: f64::INFINITY,
            }),
            Some((0.0, 0.0))
        );
        assert_eq!(
            GridPoints::new((0.5, 0.4), (0.0, 1.0), 0.1).nearest(HoltParams::DEFAULT),
            None
        );
    }

    #[test]
    fn chunks_are_dropped_only_behind_the_bar() {
        let history: Vec<f64> = (0..40).map(|i| 50.0 * f64::from(i % 4)).collect();
        let start = Start::of(&history);
        let chunk = Chunk::take(&mut GridPoints::new((0.0, 0.0), (0.0, 0.7), 0.1), 1e-9)
            .unwrap()
            .0;
        let sse = score_chunk(&start, &chunk, f64::INFINITY).unwrap();
        let scores: Vec<f64> = sse.iter().zip(&chunk.regs).map(|(s, r)| s + r).collect();
        let lowest = scores.iter().copied().fold(f64::INFINITY, f64::min);
        // A bar at the chunk's own best score keeps it, bit for bit; a bar
        // below the warm-up error drops it; a NaN bar never drops.
        assert_eq!(score_chunk(&start, &chunk, lowest), Some(sse));
        assert_eq!(score_chunk(&start, &chunk, 1.0), None);
        assert_eq!(score_chunk(&start, &chunk, f64::NAN), Some(sse));
    }

    #[test]
    fn start_skips_a_night_of_positive_zeros_only() {
        let rest = |h: &[f64]| Start::of(h).rest.len();
        assert_eq!(rest(&[0.0, 0.0, 0.0, 5.0, 0.0]), 2);
        assert_eq!(rest(&[0.0; 6]), 0);
        // One zero is a warm-up like any other; `−0.0` ends the night.
        assert_eq!(rest(&[0.0, 5.0, 6.0]), 1);
        assert_eq!(rest(&[-0.0, 0.0, 0.0, 5.0]), 2);
        assert_eq!(rest(&[0.0, 0.0, -0.0, 5.0]), 2);
        assert_eq!(rest(&[]), 0);
        assert_eq!(rest(&[3.0]), 0);
    }

    /// A random history in the shapes the controller sees: noisy levels,
    /// walks, diurnal solar with nights of every length (a few opened by
    /// `−0.0`), constant demand, all-zero nights, sunrises and
    /// alternating noise, of length 3–200.
    fn random_history(rng: &mut StdRng) -> Vec<f64> {
        let len = 3 + rng.random::<u32>() as usize % 198;
        let level = 2000.0 * rng.random::<f64>();
        let shape = rng.random::<u32>() % 8;
        let night = match rng.random::<u32>() % 4 {
            0 => rng.random::<u32>() as usize % 4,
            _ => 24 + rng.random::<u32>() as usize % 40,
        };
        let mut walk = level;
        let mut history: Vec<f64> = (0..len)
            .map(|i| {
                let noise = 2.0 * rng.random::<f64>() - 1.0;
                let t = i as f64;
                walk += 40.0 * noise;
                match shape {
                    0 => level + 50.0 * noise,
                    1 => walk,
                    2 if i < night => 0.0,
                    2 => {
                        (level * ((t - night as f64) / 96.0 * std::f64::consts::TAU).sin()).max(0.0)
                    }
                    3 => 0.0,
                    4 => level,
                    5 => (t - 30.0).max(0.0) * level / 50.0,
                    6 => level + if i % 2 == 0 { 15.0 } else { -15.0 },
                    _ => (level * (t / 96.0 * std::f64::consts::TAU).sin()).max(0.0) + noise,
                }
            })
            .collect();
        if shape == 2 && rng.random::<u32>() % 8 == 0 {
            history[0] = -0.0;
        }
        history
    }

    /// The release sweep CI runs: 20,000 random histories, each trained
    /// from four hints (the defaults, the scalar answer, a random point of
    /// `[−1, 2]²` and a non-finite one) against the scalar search.
    #[test]
    #[ignore = "20,000 scalar searches; run in release"]
    fn pruned_training_matches_scalar_on_random_histories() {
        let mut rng = StdRng::seed_from_u64(0x6e17);
        for case in 0..20_000 {
            let history = random_history(&mut rng);
            let step = [0.03, 0.05, 0.05, 0.1, 0.2, 1.0][rng.random::<u32>() as usize % 6];
            let scalar = train_scalar(&history, step);
            let hints = [
                HoltParams::DEFAULT,
                scalar.params,
                HoltParams {
                    alpha: 3.0 * rng.random::<f64>() - 1.0,
                    beta: 3.0 * rng.random::<f64>() - 1.0,
                },
                HINTS[4 + case % 2],
            ];
            for hint in hints {
                assert_eq!(
                    bits(train_holt_from(&history, step, hint).unwrap()),
                    bits(scalar),
                    "case {case}, step {step}, hint {hint:?}, history {history:?}"
                );
            }
        }
    }

    #[test]
    fn rejects_short_history() {
        assert_eq!(train_holt(&[1.0, 2.0], 0.1), Err(CoreError::NoObservations));
    }

    #[test]
    fn rejects_bad_step() {
        let h = [1.0, 2.0, 3.0, 4.0];
        assert!(train_holt(&h, 0.0).is_err());
        assert!(train_holt(&h, 1.5).is_err());
        assert!(train_holt(&h, f64::NAN).is_err());
    }

    #[test]
    fn linear_series_is_tracked_exactly() {
        // Holt's trend initialization makes a noiseless linear ramp exactly
        // predictable for *every* (α, β), so the trained SSE must be ~0.
        // The only irreducible error is the warm-up prediction after a
        // single observation (it predicts 0 for the observed 10 → 100).
        let history: Vec<f64> = (0..60).map(|i| 10.0 * f64::from(i)).collect();
        let outcome = train_holt(&history, 0.1).unwrap();
        assert!(outcome.sse <= 100.0 + 1e-9, "sse = {}", outcome.sse);
    }

    #[test]
    fn training_beats_a_fixed_midpoint_choice() {
        // A bent ramp (slope change halfway): the trained parameters must
        // do at least as well as an arbitrary fixed pick.
        let history: Vec<f64> = (0..80)
            .map(|i| {
                if i < 40 {
                    5.0 * f64::from(i)
                } else {
                    200.0 + 25.0 * f64::from(i - 40)
                }
            })
            .collect();
        let outcome = train_holt(&history, 0.05).unwrap();
        let fixed =
            crate::predictor::sum_squared_error(HoltPredictor::new(0.5, 0.5).unwrap(), &history);
        assert!(outcome.sse <= fixed + 1e-9, "{} vs {}", outcome.sse, fixed);
    }

    #[test]
    fn noisy_constant_training_beats_full_responsiveness() {
        // Alternating noise around a constant: chasing every observation
        // (α = β = 1) is the worst thing to do; training must beat it.
        let history: Vec<f64> = (0..80)
            .map(|i| 200.0 + if i % 2 == 0 { 15.0 } else { -15.0 })
            .collect();
        let outcome = train_holt(&history, 0.05).unwrap();
        let chasing =
            crate::predictor::sum_squared_error(HoltPredictor::new(1.0, 1.0).unwrap(), &history);
        assert!(outcome.sse < chasing, "{} vs {}", outcome.sse, chasing);
    }

    #[test]
    fn refinement_never_worse_than_coarse() {
        let history: Vec<f64> = (0..50)
            .map(|i| 100.0 + (f64::from(i) * 0.7).sin() * 30.0 + f64::from(i))
            .collect();
        let coarse_only = grid_search(&history, (0.0, 1.0), (0.0, 1.0), 0.1, HoltParams::DEFAULT);
        let trained = train_holt(&history, 0.1).unwrap();
        assert!(trained.sse <= coarse_only.sse + 1e-12);
    }

    #[test]
    fn trained_params_are_valid_for_predictor_construction() {
        let history: Vec<f64> = (0..30).map(|i| (f64::from(i) * 0.3).cos() * 50.0).collect();
        let outcome = train_holt(&history, 0.2).unwrap();
        let _ = outcome.params.predictor(); // must not panic
    }

    #[test]
    fn degenerate_history_keeps_responsive_defaults() {
        // An all-zero (night-time solar) history scores every (α, β)
        // identically; training must not lock in α = 0.
        let history = vec![0.0; 24];
        let outcome = train_holt(&history, 0.05).unwrap();
        assert!(
            (outcome.params.alpha - HoltParams::DEFAULT.alpha).abs() < 0.11,
            "{:?}",
            outcome.params
        );
        // And the trained predictor still tracks a sunrise afterwards.
        use crate::predictor::Predictor as _;
        let mut p = outcome.params.predictor();
        for v in [0.0, 0.0, 100.0, 300.0, 600.0] {
            p.observe(v);
        }
        assert!(p.predict().unwrap() > 400.0);
    }

    #[test]
    fn train_or_default_falls_back() {
        let hint = HoltParams {
            alpha: 0.1,
            beta: 0.9,
        };
        assert_eq!(train_or_default(&[1.0], 0.1, hint), HoltParams::DEFAULT);
        // A trainable history yields *some* valid parameters, whatever the
        // hint.
        let history: Vec<f64> = (0..30).map(|i| (f64::from(i) * 0.4).sin() * 50.0).collect();
        let trained = train_or_default(&history, 0.1, hint);
        assert!((0.0..=1.0).contains(&trained.alpha));
        assert!((0.0..=1.0).contains(&trained.beta));
        assert_eq!(trained, train_holt(&history, 0.1).unwrap().params);
    }
}
