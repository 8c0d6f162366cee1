//! The solver fast path: reuse of the last answer, then the fleet's
//! shared cache (DESIGN.md §11), which also memoizes Holt trainings
//! (DESIGN.md §14).
//!
//! Fleets pose the same problem on many racks, and the solver's answer is
//! a pure function of the problem, so [`SolverFastPath`] skips engine
//! calls in two layers:
//!
//! 1. **Reuse** — a problem bit-identical to the previous solve's returns
//!    the previous allocation outright. Under GreenHetero this rarely
//!    applies: every run epoch refits each fed-back group's curve, so
//!    consecutive problems almost never match (the benchmark's
//!    `solver.warm_share` reads 0 on `fleet_homog` and 0.078 on
//!    `fleet_diverse`). It answers policies that leave the database
//!    alone, and epochs whose inputs repeat;
//! 2. **Shared cache** — when one is attached, a [`SharedSolveCache`]
//!    answers problems another controller already solved. It is a
//!    sharded, thread-safe store keyed by a digest of the group layout and
//!    the budget; a hit revalidates the stored problem bit for bit against
//!    the live one and falls back to a solve on any mismatch. Racks in a
//!    fleet that face bit-identical problems — common once noise is low
//!    and models converge — pay one solve and N bit-identical reuses per
//!    epoch (DESIGN.md §14). This layer, not reuse, is what dedups a
//!    fleet's solves.
//!
//! Anything else runs the engine. Every layer returns the bits
//! [`solve_with_engine`](crate::solver::solve_with_engine) computes for
//! the same problem, and every counter is a pure function of the *problem
//! sequence* — never of shared-cache occupancy — which is why seeded runs
//! are bit-identical with the shared cache on, off or resized
//! (`crates/sim/tests/fleet.rs` proves it).
//!
//! The same cache holds the controllers' Holt trainings. A predictor
//! lane's retrain (the α/β search of Eq. 5, then a replay of the history)
//! is a pure function of its history and grid step: the search returns
//! the same bits for every hint. Racks of a fleet share a solar trace and
//! an intensity profile, so most of their lanes train on histories
//! another lane already trained on; each distinct history is searched
//! once, keyed by its values' bits, and every other lane takes the stored
//! parameters and predictor.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::error::CoreError;
use crate::predictor::{HoltParams, HoltPredictor};
use crate::solver::problem::{Allocation, AllocationProblem};
use crate::solver::scratch::SolverScratch;
use crate::solver::{solve_with_engine_scratch, SolveEngine};

/// Monotone counters the fast path accumulates; the controller drains
/// them into telemetry once per epoch via
/// [`take_stats`](SolverFastPath::take_stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FastPathStats {
    /// Solves reuse did not answer: a shared-cache hit or an engine run.
    pub cache_misses: u64,
    /// Solves answered by reusing the previous solve's answer.
    pub warm_starts: u64,
}

impl FastPathStats {
    fn minus(self, earlier: FastPathStats) -> FastPathStats {
        FastPathStats {
            cache_misses: self.cache_misses - earlier.cache_misses,
            warm_starts: self.warm_starts - earlier.warm_starts,
        }
    }
}

/// The previous solve, kept for reuse and overwritten in place.
#[derive(Debug)]
struct LastSolve {
    problem: AllocationProblem,
    allocation: Allocation,
    engine: SolveEngine,
}

/// Default capacity (entries) of a fleet- or daemon-wide
/// [`SharedSolveCache`].
pub const DEFAULT_SHARED_SOLVE_CAPACITY: usize = 1024;

/// Most Holt trainings a [`SharedSolveCache`] keeps, and fewer when its
/// capacity is smaller. A fleet's lanes train in lock-step, so only the
/// histories of the current retrain epoch repeat; a `run_all` batch at one
/// worker needs a cell's histories (about 16) to outlive its five runs.
/// Each entry holds a whole history, up to 1.5 kB at the default
/// `holt_history` of 192.
const TRAINING_CAPACITY: usize = 64;

/// Shard count of a [`SharedSolveCache`]; lookups lock only the shard
/// selected by the key's digest, so racks working on different layouts
/// never contend.
const SHARED_SHARDS: usize = 16;

/// One cached answer. The digest narrows a lookup; the full key, compared
/// in full, authorizes reuse.
#[derive(Debug)]
struct Slot<K, V> {
    digest: u64,
    stamp: u64,
    key: K,
    value: V,
}

/// One shard's entries of one kind, bounded by evicting the least
/// recently used one (the lowest stamp of the cache-wide clock).
#[derive(Debug)]
struct Lru<K, V>(Vec<Slot<K, V>>);

impl<K, V> Default for Lru<K, V> {
    fn default() -> Self {
        Lru(Vec::new())
    }
}

impl<K, V: Clone> Lru<K, V> {
    /// The value under `digest` whose entry `valid` accepts, restamped as
    /// just used. `Err(true)` when entries under the digest all failed
    /// `valid` (a digest collision), `Err(false)` when there was none.
    fn get(
        &mut self,
        digest: u64,
        clock: &AtomicU64,
        valid: impl Fn(&K, &V) -> bool,
    ) -> Result<V, bool> {
        let mut collided = false;
        for slot in &mut self.0 {
            if slot.digest == digest {
                if valid(&slot.key, &slot.value) {
                    slot.stamp = tick(clock);
                    return Ok(slot.value.clone());
                }
                collided = true;
            }
        }
        Err(collided)
    }

    /// Publishes the entry `make` builds, evicting the least recently used
    /// entry when `capacity` are held. If another controller raced us to
    /// the same key (`same`), the existing entry is kept — the answers are
    /// bit-identical by construction — and only its stamp refreshes.
    /// Returns whether an entry was inserted and whether one was evicted.
    fn put(
        &mut self,
        capacity: usize,
        digest: u64,
        clock: &AtomicU64,
        same: impl Fn(&K) -> bool,
        make: impl FnOnce() -> (K, V),
    ) -> (bool, bool) {
        if let Some(existing) = self
            .0
            .iter_mut()
            .find(|s| s.digest == digest && same(&s.key))
        {
            existing.stamp = tick(clock);
            return (false, false);
        }
        let victim = if self.0.len() >= capacity {
            let oldest = self.0.iter().enumerate().min_by_key(|(_, s)| s.stamp);
            oldest.map(|(i, _)| i)
        } else {
            None
        };
        if let Some(victim) = victim {
            self.0.swap_remove(victim);
        }
        let (key, value) = make();
        self.0.push(Slot {
            digest,
            stamp: tick(clock),
            key,
            value,
        });
        (true, victim.is_some())
    }
}

/// The shard a key's digest selects.
fn shard_index(digest: u64) -> usize {
    (digest as usize) % SHARED_SHARDS
}

/// The next stamp of the cache-wide LRU clock.
fn tick(clock: &AtomicU64) -> u64 {
    clock.fetch_add(1, Ordering::Relaxed) + 1
}

/// A trained history: the grid step's bits and every value's bits, so
/// that `+0.0` and `−0.0` readings are different keys, as they are to
/// the search.
#[derive(Debug)]
struct TrainingKey {
    step: u64,
    history: Box<[u64]>,
}

impl TrainingKey {
    fn matches(&self, history: &[f64], step: f64) -> bool {
        self.step == step.to_bits()
            && self.history.len() == history.len()
            && self
                .history
                .iter()
                .zip(history)
                .all(|(&k, v)| k == v.to_bits())
    }
}

/// A retrained lane: the trained parameters and the predictor replayed
/// over the history.
type Trained = (HoltParams, HoltPredictor);

/// One shard: both kinds of entry under one lock.
#[derive(Debug, Default)]
struct Shard {
    solves: Lru<AllocationProblem, (Allocation, SolveEngine)>,
    trainings: Lru<TrainingKey, Trained>,
}

/// Snapshot of a [`SharedSolveCache`]'s lifetime counters.
///
/// These are *scheduling-dependent provenance*: which rack pays the one
/// cold solve or training (and which ones reuse it) depends on thread
/// interleaving, so these counters must never feed per-rack ledgers, JSONL
/// events, or any byte-compared artifact — they belong next to fields like
/// `FleetReport::workers`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedSolveStats {
    /// Lookups that returned a revalidated stored allocation.
    pub hits: u64,
    /// Lookups that found no entry under the key.
    pub misses: u64,
    /// Lookups that found the key but failed full-equality revalidation
    /// (a digest collision).
    pub revalidation_misses: u64,
    /// Solves published into the cache.
    pub insertions: u64,
    /// Solve entries displaced by per-shard LRU eviction.
    pub evictions: u64,
    /// Holt retrains answered by a stored training of the same history.
    pub training_hits: u64,
    /// Holt retrains that ran the search (and published it).
    pub training_misses: u64,
}

impl SharedSolveStats {
    /// Fraction of solve lookups answered from the cache; 0 when no
    /// lookups have happened. For a homogeneous N-rack fleet this
    /// approaches (N − 1)/N: one rack pays each cold solve, the rest reuse
    /// it. Trainings do not count.
    #[must_use]
    // greenhetero-lint: allow(GH002) dimensionless counter ratio for bench snapshots, not a physical quantity
    pub fn reuse_rate(&self) -> f64 {
        let lookups = self.hits + self.misses + self.revalidation_misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

/// A thread-safe cache shared across controllers — the fleet-wide
/// batched-solve substrate. Solves are keyed by a digest over configs,
/// counts, model fingerprints and the budget, and revalidated by full
/// problem equality on every hit, so a hit is bit-identical to the engine
/// call it replaces. Holt trainings are keyed by a digest of the history
/// and grid step and revalidated bit for bit.
///
/// Attaching or resizing this cache never changes any controller's output:
/// it only substitutes bit-identical answers for redundant engine calls
/// and searches. Its counters are scheduling-dependent (see
/// [`SharedSolveStats`]) and are surfaced only as run provenance and
/// daemon metrics.
#[derive(Debug)]
pub struct SharedSolveCache {
    shards: [Mutex<Shard>; SHARED_SHARDS],
    shard_capacity: usize,
    training_shard_capacity: usize,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    revalidation_misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    training_hits: AtomicU64,
    training_misses: AtomicU64,
}

impl SharedSolveCache {
    /// A cache holding roughly `capacity` solves (rounded up to fill the
    /// fixed shard count; a capacity below 1 is clamped to 1 per shard)
    /// and at most `min(capacity, 64)` Holt trainings, rounded the same
    /// way.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let per_shard = |entries: usize| entries.div_ceil(SHARED_SHARDS).max(1);
        SharedSolveCache {
            shards: std::array::from_fn(|_| Mutex::default()),
            shard_capacity: per_shard(capacity),
            training_shard_capacity: per_shard(capacity.min(TRAINING_CAPACITY)),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            revalidation_misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            training_hits: AtomicU64::new(0),
            training_misses: AtomicU64::new(0),
        }
    }

    /// Entries currently held across all shards, solves and trainings.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let shard = s.lock().unwrap_or_else(PoisonError::into_inner);
                shard.solves.0.len() + shard.trainings.0.len()
            })
            .sum()
    }

    /// `true` when no shard holds an entry.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime counter snapshot (relaxed loads; exact once quiescent).
    #[must_use]
    pub fn stats(&self) -> SharedSolveStats {
        SharedSolveStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            revalidation_misses: self.revalidation_misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            training_hits: self.training_hits.load(Ordering::Relaxed),
            training_misses: self.training_misses.load(Ordering::Relaxed),
        }
    }

    fn shard(&self, digest: u64) -> MutexGuard<'_, Shard> {
        self.shards[shard_index(digest)]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns the stored answer for `problem` if one exists and survives
    /// full-equality + feasibility revalidation.
    fn lookup(
        &self,
        digest: u64,
        problem: &AllocationProblem,
    ) -> Option<(Allocation, SolveEngine)> {
        let valid = |stored: &AllocationProblem, (allocation, _): &(Allocation, SolveEngine)| {
            stored == problem && stored.is_feasible(&allocation.per_server)
        };
        let found = self.shard(digest).solves.get(digest, &self.clock, valid);
        let counter = match found {
            Ok(_) => &self.hits,
            Err(true) => &self.revalidation_misses,
            Err(false) => &self.misses,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found.ok()
    }

    /// Publishes a freshly computed answer (see [`Lru::put`]).
    fn insert(
        &self,
        digest: u64,
        problem: &AllocationProblem,
        allocation: &Allocation,
        engine: SolveEngine,
    ) {
        let (inserted, evicted) = self.shard(digest).solves.put(
            self.shard_capacity,
            digest,
            &self.clock,
            |stored| stored == problem,
            || (problem.clone(), (allocation.clone(), engine)),
        );
        if inserted {
            self.insertions.fetch_add(1, Ordering::Relaxed);
        }
        if evicted {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The lane retrain of `history` at grid step `step`: the stored one
    /// when a lane already trained on these bits, else `train`'s, which
    /// runs outside the lock and is then published. `train` must be a pure
    /// function of `history` and `step`, so either answer is the same
    /// bits.
    pub(crate) fn holt_training(
        &self,
        history: &[f64],
        step: f64,
        train: impl FnOnce() -> Trained,
    ) -> Trained {
        let digest = training_digest(history, step);
        let found = self
            .shard(digest)
            .trainings
            .get(digest, &self.clock, |key, _| key.matches(history, step));
        if let Ok(trained) = found {
            self.training_hits.fetch_add(1, Ordering::Relaxed);
            return trained;
        }
        self.training_misses.fetch_add(1, Ordering::Relaxed);
        let trained = train();
        self.shard(digest).trainings.put(
            self.training_shard_capacity,
            digest,
            &self.clock,
            |key| key.matches(history, step),
            || {
                let key = TrainingKey {
                    step: step.to_bits(),
                    history: history.iter().map(|v| v.to_bits()).collect(),
                };
                (key, trained.clone())
            },
        );
        trained
    }
}

/// The stateful solver front-end the controller holds across epochs.
#[derive(Debug, Default)]
pub struct SolverFastPath {
    scratch: SolverScratch,
    last: Option<LastSolve>,
    shared: Option<Arc<SharedSolveCache>>,
    stats: FastPathStats,
    taken: FastPathStats,
}

impl SolverFastPath {
    /// A fast path with no previous solve and no shared cache.
    #[must_use]
    pub fn new() -> Self {
        SolverFastPath::default()
    }

    /// Attaches (or detaches, with `None`) a cross-controller
    /// [`SharedSolveCache`]. Purely an acceleration: every answer returned
    /// through the shared layer is bit-identical to the engine call it
    /// replaces, and the counters evolve exactly as if the shared layer
    /// were absent.
    pub fn set_shared_cache(&mut self, shared: Option<Arc<SharedSolveCache>>) {
        self.shared = shared;
    }

    /// The attached shared cache, if any.
    pub(crate) fn shared_cache(&self) -> Option<&SharedSolveCache> {
        self.shared.as_deref()
    }

    /// Lifetime counters (never reset).
    #[must_use]
    pub fn stats(&self) -> FastPathStats {
        self.stats
    }

    /// Counters accumulated since the previous `take_stats` call — the
    /// per-epoch deltas the controller exports.
    pub fn take_stats(&mut self) -> FastPathStats {
        let delta = self.stats.minus(self.taken);
        self.taken = self.stats;
        delta
    }

    /// Solves `problem` through the fast path. The returned allocation is
    /// always bit-identical to
    /// [`solve_with_engine`](crate::solver::solve_with_engine)'s answer:
    /// reuse needs the previous problem to equal this one bit for bit, and
    /// shared-cache hits are revalidated bit-for-bit before reuse.
    ///
    /// # Errors
    ///
    /// Same contract as [`crate::solver::solve`].
    pub fn solve(
        &mut self,
        problem: &AllocationProblem,
    ) -> Result<(Allocation, SolveEngine), CoreError> {
        if let Some(last) = &self.last {
            if last.problem == *problem {
                // Nothing moved: the previous answer is this epoch's
                // answer, bit for bit.
                self.stats.warm_starts += 1;
                return Ok((last.allocation.clone(), last.engine));
            }
        }
        self.stats.cache_misses += 1;
        let (allocation, engine) = self.shared_or_engine(problem)?;
        match &mut self.last {
            Some(last) => {
                last.problem.clone_from(problem);
                last.allocation.clone_from(&allocation);
                last.engine = engine;
            }
            None => {
                self.last = Some(LastSolve {
                    problem: problem.clone(),
                    allocation: allocation.clone(),
                    engine,
                });
            }
        }
        Ok((allocation, engine))
    }

    /// The shared cache's answer when one is attached and holds the
    /// problem, else an engine run, published to the shared cache.
    fn shared_or_engine(
        &mut self,
        problem: &AllocationProblem,
    ) -> Result<(Allocation, SolveEngine), CoreError> {
        let Some(shared) = &self.shared else {
            return solve_with_engine_scratch(problem, &mut self.scratch);
        };
        let digest = problem_digest(problem);
        if let Some(hit) = shared.lookup(digest, problem) {
            return Ok(hit);
        }
        let answer = solve_with_engine_scratch(problem, &mut self.scratch)?;
        shared.insert(digest, problem, &answer.0, answer.1);
        Ok(answer)
    }
}

/// FNV's xor-and-multiply, one step per 8-byte word. [`finish`] folds the
/// high half into the low one twice around a multiply, so the low bits
/// the shard index reads depend on every bit of every word.
///
/// [`finish`]: Digest::finish
#[derive(Clone, Copy)]
struct Digest(u64);

impl Digest {
    const START: Digest = Digest(0xcbf2_9ce4_8422_2325);

    fn word(self, word: u64) -> Digest {
        Digest((self.0 ^ word).wrapping_mul(0x0000_0100_0000_01b3))
    }

    fn finish(self) -> u64 {
        let hash = self.word(self.0 >> 32).0;
        hash ^ (hash >> 32)
    }
}

/// Digest of the problem: group count, per group (config, count, model
/// fingerprint), then the budget's bits. Equal problems have equal
/// digests: adding `0.0` turns a `-0.0` budget into `+0.0`, the two
/// budgets `==` cannot tell apart.
fn problem_digest(problem: &AllocationProblem) -> u64 {
    let mut digest = Digest::START.word(problem.groups().len() as u64);
    for g in problem.groups() {
        digest = digest
            .word(u64::from(g.config.raw()))
            .word(u64::from(g.count))
            .word(g.model.fingerprint());
    }
    digest
        .word((problem.budget().value() + 0.0).to_bits())
        .finish()
}

/// Digest of a training key: the history's length, the grid step's bits,
/// then every value's bits. Unlike the budget, a zero keeps its sign: the
/// search tells a `−0.0` reading from a `+0.0` one.
fn training_digest(history: &[f64], step: f64) -> u64 {
    history
        .iter()
        .fold(
            Digest::START
                .word(history.len() as u64)
                .word(step.to_bits()),
            |digest, v| digest.word(v.to_bits()),
        )
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::{PerfModel, Quadratic};
    use crate::predictor::{train_or_default, Predictor as _};
    use crate::solver::{solve_with_engine, ServerGroup};
    use crate::types::{ConfigId, PowerRange, Watts};

    fn group(id: u32, count: u32, idle: f64, peak: f64, m: f64, n: f64) -> ServerGroup {
        ServerGroup::new(
            ConfigId::new(id),
            count,
            PerfModel::new(
                Quadratic { l: 0.0, m, n },
                PowerRange::new(Watts::new(idle), Watts::new(peak)).unwrap(),
            ),
        )
        .unwrap()
    }

    fn problem(budget: f64) -> AllocationProblem {
        let a = group(0, 2, 88.0, 147.0, 60.0, -0.12);
        let b = group(1, 3, 47.0, 81.0, 50.0, -0.18);
        AllocationProblem::new(vec![a, b], Watts::new(budget)).unwrap()
    }

    #[test]
    fn identical_problem_is_reused_bit_for_bit() {
        let mut fast = SolverFastPath::default();
        let p = problem(500.0);
        let (first, e1) = fast.solve(&p).unwrap();
        let (second, e2) = fast.solve(&p).unwrap();
        assert_eq!(first, second);
        assert_eq!(e1, e2);
        assert_eq!(fast.stats().warm_starts, 1);
        // The classic cold answer matches too.
        let (cold, _) = solve_with_engine(&p).unwrap();
        assert_eq!(first, cold);
    }

    #[test]
    fn budget_moves_and_model_drift_miss_reuse() {
        let mut fast = SolverFastPath::default();
        fast.solve(&problem(500.0)).unwrap();
        fast.solve(&problem(500.5)).unwrap(); // a 0.1 % move is a new problem
        assert_eq!(fast.stats().warm_starts, 0);
        assert_eq!(fast.stats().cache_misses, 2);

        // Refit one model: fingerprint changes, reuse misses.
        let drifted = AllocationProblem::new(
            vec![
                group(0, 2, 88.0, 147.0, 60.5, -0.12),
                group(1, 3, 47.0, 81.0, 50.0, -0.18),
            ],
            Watts::new(800.0),
        )
        .unwrap();
        fast.solve(&drifted).unwrap();
        assert_eq!(fast.stats().warm_starts, 0);
    }

    #[test]
    fn take_stats_returns_per_interval_deltas() {
        let mut fast = SolverFastPath::default();
        fast.solve(&problem(500.0)).unwrap();
        let d1 = fast.take_stats();
        assert_eq!(d1.cache_misses, 1);
        fast.solve(&problem(500.0)).unwrap();
        let d2 = fast.take_stats();
        assert_eq!(d2.cache_misses, 0);
        assert_eq!(d2.warm_starts, 1);
        assert_eq!(fast.stats().cache_misses, 1);
    }

    /// Two fast paths on one shared cache, the way a fleet's racks share
    /// solves.
    fn sharing_pair() -> (Arc<SharedSolveCache>, SolverFastPath, SolverFastPath) {
        let shared = Arc::new(SharedSolveCache::new(64));
        let mut first = SolverFastPath::default();
        first.set_shared_cache(Some(Arc::clone(&shared)));
        let mut second = SolverFastPath::default();
        second.set_shared_cache(Some(Arc::clone(&shared)));
        (shared, first, second)
    }

    #[test]
    fn equal_budgets_share_a_key_and_others_do_not() {
        assert_eq!(
            problem_digest(&problem(0.0)),
            problem_digest(&problem(-0.0))
        );
        assert_ne!(
            problem_digest(&problem(500.0)),
            problem_digest(&problem(500.5))
        );
        // A budget a hair away is a different problem: a miss, not a hit.
        let (shared, mut first, mut second) = sharing_pair();
        for budget in [0.0, 500.0] {
            first.solve(&problem(budget)).unwrap();
        }
        for budget in [-0.0, 500.0 + 1e-9] {
            second.solve(&problem(budget)).unwrap();
        }
        assert_eq!(shared.stats().hits, 1);
        assert_eq!(shared.stats().misses, 3);
    }

    #[test]
    fn whole_watt_budgets_spread_over_every_shard() {
        // Whole-watt budgets differ only in their high bits; the digest's
        // closing fold still spreads them over the shards.
        let mut per_shard = [0u32; SHARED_SHARDS];
        for budget in 0..512u32 {
            per_shard[shard_index(problem_digest(&problem(f64::from(budget))))] += 1;
        }
        assert!(per_shard.iter().all(|&n| n >= 16), "{per_shard:?}");
    }

    /// An allocation as raw bits: every per-server watt value, then the
    /// projected throughput.
    fn bits(a: &Allocation) -> (Vec<u64>, u64) {
        let watts = a.per_server.iter().map(|w| w.value().to_bits()).collect();
        (watts, a.projected.value().to_bits())
    }

    #[test]
    fn every_answer_is_solve_with_engine_bit_for_bit() {
        // Two groups (the exact engine) and one past MAX_EXACT_GROUPS
        // (the grid), each over budgets that drift, repeat and revisit,
        // walked by one fast path and then by a second one that reads
        // the first one's solves from the shared cache.
        let many: Vec<ServerGroup> = (0..=crate::solver::MAX_EXACT_GROUPS as u32)
            .map(|i| group(i, 1, 20.0, 60.0, 10.0 + f64::from(i), -0.02))
            .collect();
        let layouts = [problem(0.0).groups().to_vec(), many];
        for groups in layouts {
            let (shared, mut first, mut second) = sharing_pair();
            let mut walks = 0;
            for fast in [&mut first, &mut second] {
                for budget in [300.0, 306.0, 306.0, 500.0, 300.0, 306.0, 120.0] {
                    let p = AllocationProblem::new(groups.clone(), Watts::new(budget)).unwrap();
                    let (answer, engine) = fast.solve(&p).unwrap();
                    let (expect, expect_engine) = solve_with_engine(&p).unwrap();
                    assert_eq!(bits(&answer), bits(&expect), "budget {budget}");
                    assert_eq!(engine, expect_engine, "budget {budget}");
                }
                walks += 1;
                assert_eq!(fast.stats().warm_starts, 1, "walk {walks}");
            }
            // The first walk revisits 300 and 306 once each; the second
            // finds all six of its non-reused solves in the shared cache.
            assert_eq!(shared.stats().hits, 2 + 6);
            assert_eq!(shared.stats().insertions, 4);
        }
    }

    /// Runs the same problem sequence through two fast paths and asserts
    /// every answer and every *local* counter is bit-identical.
    fn assert_sequence_identical(budgets: &[f64], a: &mut SolverFastPath, b: &mut SolverFastPath) {
        for &budget in budgets {
            let p = problem(budget);
            let (alloc_a, engine_a) = a.solve(&p).unwrap();
            let (alloc_b, engine_b) = b.solve(&p).unwrap();
            assert_eq!(alloc_a, alloc_b, "budget {budget}");
            assert_eq!(engine_a, engine_b, "budget {budget}");
        }
        assert_eq!(a.stats(), b.stats(), "local counters diverged");
    }

    #[test]
    fn shared_cache_never_changes_answers_or_local_counters() {
        let budgets = [500.0, 505.0, 800.0, 500.0, 505.0, 200.0, 800.0, 201.0];
        let shared = Arc::new(SharedSolveCache::new(64));
        let mut with_shared = SolverFastPath::default();
        with_shared.set_shared_cache(Some(Arc::clone(&shared)));
        let mut without = SolverFastPath::default();
        assert_sequence_identical(&budgets, &mut with_shared, &mut without);
        assert!(
            shared.stats().insertions > 0,
            "shared cache never populated"
        );
    }

    #[test]
    fn second_controller_reuses_the_first_ones_solves() {
        let budgets = [500.0, 505.0, 800.0, 200.0];
        let (shared, mut first, mut second) = sharing_pair();
        let mut reference = SolverFastPath::default();

        for &b in &budgets {
            first.solve(&problem(b)).unwrap();
        }
        let after_first = shared.stats();
        // The second controller walks the same sequence: every engine call
        // it would have made is answered from the shared cache, and its
        // answers still match a cache-less reference bit for bit.
        assert_sequence_identical(&budgets, &mut second, &mut reference);
        let after_second = shared.stats();
        assert_eq!(
            after_second.insertions, after_first.insertions,
            "second controller should not have inserted anything new"
        );
        assert!(
            after_second.hits > after_first.hits,
            "second controller never hit the shared cache"
        );
    }

    #[test]
    fn shared_cache_revalidates_and_evicts() {
        let shared = SharedSolveCache::new(1); // 1 entry per shard
        let p1 = problem(500.0);
        let p2 = problem(800.0);
        let (a1, e1) = solve_with_engine(&p1).unwrap();
        let digest = problem_digest(&p1);
        shared.insert(digest, &p1, &a1, e1);
        assert_eq!(shared.len(), 1);

        // A colliding digest over different problem bits → revalidation
        // miss.
        assert!(shared.lookup(digest, &p2).is_none());
        // Another digest → plain miss, not a revalidation miss.
        assert!(shared.lookup(problem_digest(&p2), &p2).is_none());
        let stats = shared.stats();
        assert_eq!(stats.revalidation_misses, 1);
        assert_eq!(stats.misses, 1);

        // True hit returns the stored bits.
        let (hit, engine) = shared.lookup(digest, &p1).expect("revalidated hit");
        assert_eq!(hit, a1);
        assert_eq!(engine, e1);

        // A second insert into the same (full) shard evicts the first.
        let (a2, e2) = solve_with_engine(&p2).unwrap();
        shared.insert(digest, &p2, &a2, e2);
        assert_eq!(shared.stats().evictions, 1);
        assert!(shared.lookup(digest, &p1).is_none());
    }

    #[test]
    fn shared_insert_deduplicates_racing_publishers() {
        let shared = SharedSolveCache::new(64);
        let p = problem(500.0);
        let (a, e) = solve_with_engine(&p).unwrap();
        let digest = problem_digest(&p);
        shared.insert(digest, &p, &a, e);
        shared.insert(digest, &p, &a, e);
        assert_eq!(shared.len(), 1);
        assert_eq!(shared.stats().insertions, 1);
    }

    /// A lane's retrain, as the controller runs it.
    fn train(history: &[f64]) -> Trained {
        let params = train_or_default(history, 0.05, HoltParams::DEFAULT);
        let mut predictor = params.predictor();
        for &v in history {
            predictor.observe(v);
        }
        (params, predictor)
    }

    fn day(len: usize, scale: f64) -> Vec<f64> {
        (0..len)
            .map(|i| (scale * (i as f64 * 0.2).sin()).max(0.0))
            .collect()
    }

    #[test]
    fn racing_trainings_of_one_history_leave_one_entry() {
        // Both lanes miss before either publishes: each waits in its
        // search until the other has entered its own.
        let shared = SharedSolveCache::new(DEFAULT_SHARED_SOLVE_CAPACITY);
        let history = day(96, 800.0);
        let both_searching = std::sync::Barrier::new(2);
        let answers: Vec<Trained> = std::thread::scope(|scope| {
            let lanes: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        shared.holt_training(&history, 0.05, || {
                            both_searching.wait();
                            train(&history)
                        })
                    })
                })
                .collect();
            lanes.into_iter().map(|l| l.join().unwrap()).collect()
        });
        assert_eq!(answers[0], answers[1]);
        assert_eq!(shared.len(), 1);
        let stats = shared.stats();
        assert_eq!((stats.training_hits, stats.training_misses), (0, 2));
        // A third lane takes the entry without searching.
        let third = shared.holt_training(&history, 0.05, || unreachable!("stored"));
        assert_eq!(third, answers[0]);
        assert_eq!(shared.stats().training_hits, 1);
        assert_eq!(shared.stats().insertions, 0, "solves count apart");
    }

    #[test]
    fn trainings_are_keyed_by_history_and_step() {
        let shared = SharedSolveCache::new(DEFAULT_SHARED_SOLVE_CAPACITY);
        let history = day(50, 500.0);
        let mut longer = history.clone();
        longer.push(1.0);
        let mut nudged = history.clone();
        nudged[7] = f64::from_bits(nudged[7].to_bits() + 1);
        for (h, step) in [(&history, 0.05), (&history, 0.1), (&longer, 0.05)] {
            shared.holt_training(h, step, || train(h));
        }
        shared.holt_training(&nudged, 0.05, || train(&nudged));
        assert_eq!(shared.stats().training_misses, 4);
        assert_eq!(shared.stats().training_hits, 0);
        shared.holt_training(&history, 0.1, || unreachable!("stored"));
        assert_eq!(shared.stats().training_hits, 1);
        assert_ne!(
            training_digest(&history, 0.05),
            training_digest(&nudged, 0.05)
        );
    }

    #[test]
    fn trainings_stay_within_min_of_capacity_and_64() {
        // 300 distinct histories fill every shard: 4 trainings each at
        // the default capacity, 1 each at capacity 3.
        for (capacity, most) in [(DEFAULT_SHARED_SOLVE_CAPACITY, 64), (3, SHARED_SHARDS)] {
            let shared = SharedSolveCache::new(capacity);
            for i in 0..300 {
                let history = day(12, 100.0 + f64::from(i));
                shared.holt_training(&history, 0.05, || train(&history));
            }
            assert_eq!(shared.len(), most, "capacity {capacity}");
            assert_eq!(shared.stats().training_misses, 300);
        }
    }

    #[test]
    fn shared_reuse_rate_reflects_hits() {
        let mut stats = SharedSolveStats::default();
        assert!(stats.reuse_rate().abs() < f64::EPSILON);
        stats.hits = 9;
        stats.misses = 1;
        assert!((stats.reuse_rate() - 0.9).abs() < 1e-12);
    }
}
