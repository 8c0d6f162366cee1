//! The solver fast path: reuse of the last answer, then the fleet's
//! shared solve cache (DESIGN.md §11).
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

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::error::CoreError;
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

/// Shard count of a [`SharedSolveCache`]; lookups lock only the shard
/// selected by the group digest, so racks working on different layouts
/// never contend.
const SHARED_SHARDS: usize = 16;

/// One shared solve. The full problem is kept: the digest narrows the
/// lookup, bit-for-bit equality authorizes reuse.
#[derive(Debug)]
struct SharedEntry {
    digest: u64,
    problem: AllocationProblem,
    allocation: Allocation,
    engine: SolveEngine,
    stamp: u64,
}

/// Snapshot of a [`SharedSolveCache`]'s lifetime counters.
///
/// These are *scheduling-dependent provenance*: which rack pays the one
/// cold solve (and which ones reuse it) depends on thread interleaving, so
/// these counters must never feed per-rack ledgers, JSONL events, or any
/// byte-compared artifact — they belong next to fields like
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
    /// Entries displaced by per-shard LRU eviction.
    pub evictions: u64,
}

impl SharedSolveStats {
    /// Fraction of lookups answered from the cache; 0 when no lookups
    /// have happened. For a homogeneous N-rack fleet this approaches
    /// (N − 1)/N: one rack pays each cold solve, the rest reuse it.
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

/// A thread-safe solve cache shared across controllers — the fleet-wide
/// batched-solve substrate. Keyed by a digest over configs, counts, model
/// fingerprints and the budget, and revalidated by full problem equality
/// on every hit, so a hit is bit-identical to the engine call it
/// replaces.
///
/// Attaching or resizing this cache never changes any controller's output:
/// it only substitutes bit-identical answers for redundant engine calls.
/// Its counters are scheduling-dependent (see [`SharedSolveStats`]) and
/// are surfaced only as run provenance and daemon metrics.
#[derive(Debug)]
pub struct SharedSolveCache {
    shards: Vec<Mutex<Vec<SharedEntry>>>,
    shard_capacity: usize,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    revalidation_misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl SharedSolveCache {
    /// A cache holding roughly `capacity` entries (rounded up to fill the
    /// fixed shard count; a capacity below 1 is clamped to 1 per shard).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let shard_capacity = capacity.div_ceil(SHARED_SHARDS).max(1);
        SharedSolveCache {
            shards: (0..SHARED_SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
            shard_capacity,
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            revalidation_misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Total entry capacity across shards.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.shard_capacity * self.shards.len()
    }

    /// Entries currently held across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).len())
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
        }
    }

    fn shard(&self, digest: u64) -> &Mutex<Vec<SharedEntry>> {
        &self.shards[(digest as usize) % self.shards.len()]
    }

    fn next_stamp(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Returns the stored answer for `problem` if one exists and survives
    /// full-equality + feasibility revalidation.
    fn lookup(
        &self,
        digest: u64,
        problem: &AllocationProblem,
    ) -> Option<(Allocation, SolveEngine)> {
        let mut entries = self
            .shard(digest)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let mut collided = false;
        for e in entries.iter_mut() {
            if e.digest == digest {
                if e.problem == *problem && e.problem.is_feasible(&e.allocation.per_server) {
                    e.stamp = self.next_stamp();
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Some((e.allocation.clone(), e.engine));
                }
                collided = true;
            }
        }
        drop(entries);
        if collided {
            self.revalidation_misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        None
    }

    /// Publishes a freshly computed answer. If another controller raced us
    /// to the same problem the existing entry is kept (the answers are
    /// bit-identical by construction) and only its stamp refreshes.
    fn insert(
        &self,
        digest: u64,
        problem: &AllocationProblem,
        allocation: &Allocation,
        engine: SolveEngine,
    ) {
        let mut entries = self
            .shard(digest)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(existing) = entries
            .iter_mut()
            .find(|e| e.digest == digest && e.problem == *problem)
        {
            existing.stamp = self.next_stamp();
            return;
        }
        if entries.len() >= self.shard_capacity {
            if let Some(victim) = entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(i, _)| i)
            {
                entries.swap_remove(victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        let stamp = self.next_stamp();
        entries.push(SharedEntry {
            digest,
            problem: problem.clone(),
            allocation: allocation.clone(),
            engine,
            stamp,
        });
        self.insertions.fetch_add(1, Ordering::Relaxed);
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

/// Digest of the problem: group count, per group (config, count, model
/// fingerprint), then the budget's bits, one FNV xor-and-multiply per
/// 8-byte word. A last step folds the high half into the low one twice
/// around a multiply, so the low bits the shard index reads depend on
/// every bit of every word. Equal problems have equal digests: adding
/// `0.0` turns a `-0.0` budget into `+0.0`, the two budgets `==` cannot
/// tell apart.
fn problem_digest(problem: &AllocationProblem) -> u64 {
    let mix = |hash: u64, word: u64| (hash ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    let mut hash = mix(0xcbf2_9ce4_8422_2325, problem.groups().len() as u64);
    for g in problem.groups() {
        hash = mix(hash, u64::from(g.config.raw()));
        hash = mix(hash, u64::from(g.count));
        hash = mix(hash, g.model.fingerprint());
    }
    hash = mix(hash, (problem.budget().value() + 0.0).to_bits());
    hash = mix(hash, hash >> 32);
    hash ^ (hash >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::{PerfModel, Quadratic};
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
        let shared = SharedSolveCache::new(SHARED_SHARDS);
        let mut per_shard = [0u32; SHARED_SHARDS];
        for budget in 0..512u32 {
            let shard = shared.shard(problem_digest(&problem(f64::from(budget))));
            let index = shared.shards.iter().position(|s| std::ptr::eq(s, shard));
            per_shard[index.unwrap()] += 1;
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

    #[test]
    fn shared_reuse_rate_reflects_hits() {
        let mut stats = SharedSolveStats::default();
        assert!(stats.reuse_rate().abs() < f64::EPSILON);
        stats.hits = 9;
        stats.misses = 1;
        assert!((stats.reuse_rate() - 0.9).abs() < 1e-12);
    }
}
