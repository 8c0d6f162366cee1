//! Output lines, statistics and process facts shared by every phase.

use std::fmt::Write as _;
use std::io::Write as _;

/// One flat JSON object, printed as a single stdout line. `run.py`
/// reads these lines as they arrive, so a phase that is killed at its
/// deadline still leaves every line it finished.
pub struct Line(String);

impl Line {
    pub fn new(kind: &str) -> Self {
        Line(format!("{{\"kind\":\"{kind}\""))
    }

    pub fn num(mut self, key: &str, value: f64) -> Self {
        // JSON has no NaN or infinity; a metric that cannot be computed
        // is reported as 0 and explained by the phase's other fields.
        let value = if value.is_finite() { value } else { 0.0 };
        let _ = write!(self.0, ",\"{key}\":{value:?}");
        self
    }

    pub fn int(mut self, key: &str, value: u64) -> Self {
        let _ = write!(self.0, ",\"{key}\":{value}");
        self
    }

    pub fn text(mut self, key: &str, value: &str) -> Self {
        let escaped: String = value
            .chars()
            .map(|c| match c {
                '"' | '\\' => format!("\\{c}"),
                c if c.is_control() => format!("\\u{:04x}", u32::from(c)),
                c => c.to_string(),
            })
            .collect();
        let _ = write!(self.0, ",\"{key}\":\"{escaped}\"");
        self
    }

    pub fn emit(mut self) {
        self.0.push('}');
        let mut out = std::io::stdout().lock();
        let _ = writeln!(out, "{}", self.0);
        let _ = out.flush();
    }
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set size of this process (`VmHWM`), in kB.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// FNV-1a over `bytes`: a stable digest for comparing program outputs
/// across processes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Sizes of the reference kernel's four parts.
const PACE_FLOATS: usize = 2_048;
const PACE_FLOAT_ROUNDS: u32 = 120;
const PACE_MAP_KEYS: u64 = 24_000;
const PACE_RECORDS: u32 = 20_000;
const PACE_SORTED: usize = 131_072;
/// Seconds one pass of the reference kernel takes on the reference
/// machine (a 2-vCPU Xeon VM at 2.1 GHz) when it is not disturbed.
const PACE_NOMINAL_S: f64 = 0.0115;

/// The reference kernel: fixed work shaped like the program's own,
/// written here and calling nothing of the program, so no change to the
/// program changes it. Branchy floating-point arithmetic over an array,
/// an ordered map built and searched, records formatted into a string,
/// and a sort. Shared-host slowdowns hit such work and the program
/// alike; a tight arithmetic chain or a memory walk misses most of them.
fn pace_kernel() -> u64 {
    let mut rng = 0x853c_49e6_748f_ea9b_u64;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let floats: Vec<f64> = (0..PACE_FLOATS).map(|i| i as f64 * 1e-3).collect();
    let mut acc = 0.0;
    for round in 0..PACE_FLOAT_ROUNDS {
        let scale = 1.0 + f64::from(round) * 1e-6;
        for (i, x) in floats.iter().enumerate() {
            let y = x * scale;
            acc += if i % 3 == 0 { y * y - 1.0 } else { (y + 2.0) / (y + 1.0) };
        }
    }
    let mut map = std::collections::BTreeMap::new();
    for i in 0..PACE_MAP_KEYS {
        map.insert(next() % (PACE_MAP_KEYS * 8), i);
    }
    let found: u64 = (0..PACE_MAP_KEYS)
        .filter_map(|_| map.get(&(next() % (PACE_MAP_KEYS * 8))))
        .sum();
    let mut text = String::new();
    for i in 0..PACE_RECORDS {
        let _ = write!(text, "{{\"k\":{i},\"v\":{:?}}}", acc * f64::from(i));
    }
    let mut sorted: Vec<u64> = (0..PACE_SORTED).map(|_| next()).collect();
    sorted.sort_unstable();
    std::hint::black_box(found ^ text.len() as u64 ^ sorted[PACE_SORTED / 2] ^ acc.to_bits())
}

/// The machine's speed now, against the reference machine's: the
/// reference kernel's nominal time over the time one pass of it takes.
/// The host this benchmark runs on is shared, and its speed drifts by
/// tens of percent over seconds and minutes whatever runs on it; a
/// single-threaded timed piece is rescaled by the pace measured beside
/// it, so the drift leaves its figures.
pub fn pace() -> f64 {
    let started = std::time::Instant::now();
    pace_kernel();
    PACE_NOMINAL_S / started.elapsed().as_secs_f64()
}

/// Set-ups are repeated for at least this long and this many times, in
/// batches with the pace taken between them; the first few are warm-up
/// (cold heap and caches), left out of the quartile.
const SETUP_WINDOW: std::time::Duration = std::time::Duration::from_secs(2);
const SETUP_BATCH: std::time::Duration = std::time::Duration::from_millis(50);
const SETUP_MIN_REPS: usize = 20;
const SETUP_WARMUP: usize = 5;

/// Runs `once`, which returns the seconds its set-up took, for the
/// set-up window and prints the lower quartile after warm-up, each
/// set-up's time rescaled to the reference pace by the mean of the paces
/// taken before and after its batch. The lower quartile, not the median:
/// the shared host only ever slows a set-up down, and more than the
/// pace shows.
pub fn setup_line(mut once: impl FnMut() -> Result<f64, String>) -> Result<(), String> {
    let started = std::time::Instant::now();
    let mut secs = Vec::new();
    let mut before = pace();
    while secs.len() < SETUP_MIN_REPS || started.elapsed() < SETUP_WINDOW {
        let batch = std::time::Instant::now();
        let mut took = Vec::new();
        while took.is_empty() || batch.elapsed() < SETUP_BATCH {
            took.push(once()?);
        }
        let after = pace();
        let speed = (before + after) / 2.0;
        secs.extend(took.iter().map(|t| t * speed));
        before = after;
    }
    Line::new("setup")
        .num("setup_s", quantile(&secs[SETUP_WARMUP..], 0.25))
        .int("reps", secs.len() as u64)
        .emit();
    Ok(())
}

/// The machine's parallelism: the width of the runs outside the timed
/// windows, which run one worker.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Seeds derived from the benchmark seed, one per input that needs its
/// own stream (SplitMix64 step).
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
