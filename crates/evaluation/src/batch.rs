//! Sharded batch evaluation across snapshots with a warm fusion core.
//!
//! The longitudinal experiments (Figure 8's accuracy-over-time, Table 9,
//! Figure 12's efficiency story) fuse every collection day from scratch: the
//! per-(day, method) fan-out of [`ParallelRunner`] pays a full
//! `FusionProblem` CSR rebuild plus fresh `VotePlane`/trust-accumulator
//! allocations for each task. [`BatchRunner`] instead splits the requested
//! days into **contiguous per-worker shards** and gives each shard one
//! [`ProblemBuilder`] that re-fills its CSR vectors in place day over day
//! plus one [`FusionScratch`] reused by all sixteen methods, so a shard
//! fuses N days against one warm cache with near-zero steady-state
//! allocation.
//!
//! Fusion is deterministic and the builder and scratch re-shape every buffer
//! before its first read, so the batch rows are **bit-identical** to
//! [`crate::parallel::evaluate_days_sequential`] and to
//! [`ParallelRunner::evaluate_days`](crate::parallel::ParallelRunner::evaluate_days)
//! on the same selection;
//! `tests/batch_equivalence.rs` pins this across seeds, scales, and both
//! copy-detection paths, in debug and release.
//!
//! # Shard-size heuristic
//!
//! Days are weighted by their item count ([`datamodel::Snapshot::num_items`])
//! and [`shard_plan`] cuts the day sequence into at most
//! `min(max_shards, num_days)` contiguous ranges of roughly equal total
//! weight, so a month whose snapshots grow over time still balances. Shards
//! are contiguous and concatenated in order, which means re-ordering workers
//! can never re-order the output rows — a regression suite pins the exact
//! plan for known inputs.
//!
//! [`ParallelRunner`]: crate::parallel::ParallelRunner

use crate::chunk_policy::ChunkPolicy;
use crate::parallel::DayEvaluation;
use crate::runner::{copy_report_to_dense, evaluate_method_core, MethodEvaluation};
use copydetect::known_copying;
use datamodel::{Collection, CollectionDay};
use fusion::{all_methods, FusionMethod, FusionScratch, MethodCategory, ProblemBuilder};
use rayon::prelude::*;
use serde::Serialize;
use std::ops::Range;
use std::time::{Duration, Instant};

/// Evaluate `methods` on one collection day (the Table-7 row set),
/// re-filling `builder` from the day's snapshot first and running every
/// method on the shared `scratch`. `day_index` is the position of the day
/// within the evaluated selection, mirroring
/// [`crate::parallel::evaluate_days_sequential`]. `intra_day_chunks` lets
/// each method run parallelize within the day (see [`fusion::chunking`];
/// `0` = sequential, and any value yields bit-identical rows).
fn evaluate_day(
    builder: &mut ProblemBuilder,
    scratch: &mut FusionScratch,
    day: &CollectionDay,
    day_index: usize,
    methods: &[(MethodCategory, Box<dyn FusionMethod>)],
    use_known_copying: bool,
    intra_day_chunks: usize,
) -> DayEvaluation {
    let problem = builder.prepare(&day.snapshot);
    let sampled = crate::metrics::sampled_trust(&day.snapshot, &day.gold, problem, 0.8);
    let known = use_known_copying
        .then(|| copy_report_to_dense(&known_copying(day.snapshot.schema()), problem));
    let rows: Vec<MethodEvaluation> = methods
        .iter()
        .map(|(category, method)| {
            evaluate_method_core(
                &day.snapshot,
                &day.gold,
                problem,
                &sampled,
                known.as_ref(),
                *category,
                method.as_ref(),
                scratch,
                intra_day_chunks,
            )
        })
        .collect();
    DayEvaluation {
        day_index,
        day: day.snapshot.day(),
        rows,
    }
}

/// Cut `weights.len()` days into at most `max_shards` **contiguous** ranges
/// of roughly equal total weight (weights are per-day item counts in the
/// batch runner). Every range is non-empty, the ranges cover `0..len` in
/// order, and the plan is a pure function of its inputs — re-ordering workers
/// can never re-order the concatenated results.
///
/// Fewer days than `max_shards` yields one single-day shard per day;
/// `max_shards == 0` is treated as 1.
pub fn shard_plan(weights: &[usize], max_shards: usize) -> Vec<Range<usize>> {
    let num_days = weights.len();
    if num_days == 0 {
        return Vec::new();
    }
    let num_shards = max_shards.clamp(1, num_days);
    let total: usize = weights.iter().sum();
    let mut plan = Vec::with_capacity(num_shards);
    let mut start = 0usize;
    let mut cum = 0usize;
    for (i, &w) in weights.iter().enumerate() {
        cum += w;
        let closed = plan.len();
        if closed + 1 == num_shards {
            // Last shard takes everything that remains.
            break;
        }
        let days_left_after = num_days - (i + 1);
        let shards_left_after = num_shards - closed - 1;
        // Close the shard once it reaches its cumulative fair share of the
        // weight, or as soon as the remaining days are only just enough to
        // give every remaining shard one day.
        let fair_share = (closed + 1) * total / num_shards;
        if cum >= fair_share || days_left_after == shards_left_after {
            plan.push(start..i + 1);
            start = i + 1;
        }
    }
    plan.push(start..num_days);
    debug_assert_eq!(plan.len(), num_shards);
    plan
}

/// Batch evaluation runner: contiguous day shards, one warm
/// [`ProblemBuilder`] + [`FusionScratch`] per shard.
///
/// Prefer this over [`ParallelRunner`] when evaluating many days (the
/// Figure-8 / Table-9 style sweeps): each worker amortizes problem
/// construction and method scratch over its whole day range. For a single
/// day on a many-core machine the per-(day, method) fan-out of
/// [`ParallelRunner`] exposes more parallelism.
///
/// [`ParallelRunner`]: crate::parallel::ParallelRunner
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchRunner {
    use_known_copying: bool,
    num_shards: Option<usize>,
}

/// Result of a sharded batch evaluation.
#[derive(Debug, Clone, Serialize)]
pub struct BatchEvaluation {
    /// Per-day method rows, in the order the days were requested
    /// (bit-identical to [`crate::parallel::evaluate_days_sequential`] on
    /// the same selection).
    pub days: Vec<DayEvaluation>,
    /// Wall-clock time of the whole batch (shard fan-out included).
    pub wall_clock: Duration,
    /// Summed per-shard processing time — what one worker would spend
    /// running every shard back to back (problem refills, trust sampling,
    /// and both method runs included).
    pub total_shard_time: Duration,
    /// Number of contiguous day shards the plan produced.
    pub num_shards: usize,
    /// Worker threads available to the fan-out.
    pub threads: usize,
    /// Fusion kernel backend the run dispatched to (`"avx2+fma"` /
    /// `"scalar"`); see [`crate::ParallelEvaluation::kernel_backend`].
    pub kernel_backend: String,
}

impl BatchRunner {
    /// A runner with the standard options (no oracle copying knowledge,
    /// shard count = worker threads).
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed the planted/claimed copy groups (Table 5) to the oracle
    /// with-trust runs of copy-aware methods, as Table 7 does.
    pub fn with_known_copying(mut self) -> Self {
        self.use_known_copying = true;
        self
    }

    /// Override the maximum shard count (defaults to the worker-thread
    /// count). The effective count never exceeds the number of days.
    pub fn with_num_shards(mut self, num_shards: usize) -> Self {
        self.num_shards = Some(num_shards);
        self
    }

    /// Evaluate every day of a collection; see
    /// [`evaluate_days`](Self::evaluate_days).
    pub fn evaluate_collection(&self, collection: &Collection) -> BatchEvaluation {
        let indices: Vec<usize> = (0..collection.num_days()).collect();
        self.evaluate_days(collection, &indices)
    }

    /// Evaluate the sixteen registry methods on the selected days: shard the
    /// selection contiguously ([`shard_plan`], weighted by day item counts),
    /// fan the shards across the pool, and fuse each shard's days against
    /// its own warm builder and scratch. Rows come back in request order.
    ///
    /// # Panics
    ///
    /// Panics if any index in `day_indices` is out of range for the
    /// collection (mirroring [`Collection::day`]).
    pub fn evaluate_days(
        &self,
        collection: &Collection,
        day_indices: &[usize],
    ) -> BatchEvaluation {
        let start = Instant::now();
        let methods = all_methods();
        let weights: Vec<usize> = day_indices
            .iter()
            .map(|&i| collection.day(i).snapshot.num_items())
            .collect();
        let max_shards = self.num_shards.unwrap_or_else(rayon::current_num_threads);
        let plan = shard_plan(&weights, max_shards);
        let num_shards = plan.len();
        // With fewer shards than worker threads (few big days), hand the
        // spare threads to each method run as intra-day chunks; a saturated
        // shard fan-out keeps every run sequential. Either way the rows are
        // bit-identical — the policy only moves time around.
        let policy = ChunkPolicy::from_pool();
        let use_known = self.use_known_copying;

        let shard_outputs: Vec<(Vec<DayEvaluation>, Duration)> = plan
            .into_par_iter()
            .map(|range| {
                let shard_start = Instant::now();
                let mut builder = ProblemBuilder::new();
                let mut scratch = FusionScratch::new();
                let days: Vec<DayEvaluation> = range
                    .map(|k| {
                        let day = collection.day(day_indices[k]);
                        let chunks = policy
                            .intra_day_chunks(num_shards, day.snapshot.num_items());
                        evaluate_day(&mut builder, &mut scratch, day, k, &methods, use_known, chunks)
                    })
                    .collect();
                (days, shard_start.elapsed())
            })
            .collect();

        let mut days = Vec::with_capacity(day_indices.len());
        let mut total_shard_time = Duration::ZERO;
        for (shard_days, elapsed) in shard_outputs {
            days.extend(shard_days);
            total_shard_time += elapsed;
        }

        BatchEvaluation {
            days,
            wall_clock: start.elapsed(),
            total_shard_time,
            num_shards,
            threads: rayon::current_num_threads(),
            kernel_backend: fusion::kernels::backend_name().to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::{evaluate_days_sequential, same_results};
    use datagen::{generate, stock_config};
    use fusion::{FusionOptions, FusionProblem};

    #[test]
    fn shard_plan_is_deterministic_and_contiguous() {
        // Equal weights: the plan splits as evenly as possible, in order.
        assert_eq!(
            shard_plan(&[100, 100, 100, 100, 100], 4),
            vec![0..2, 2..3, 3..4, 4..5]
        );
        // The exact plan for a known skewed input is pinned: re-ordering
        // workers must never re-order (or re-shape) the shards.
        assert_eq!(shard_plan(&[10, 10, 10, 1000, 10], 3), vec![0..3, 3..4, 4..5]);
        // Pure function: same input, same plan.
        assert_eq!(
            shard_plan(&[10, 10, 10, 1000, 10], 3),
            shard_plan(&[10, 10, 10, 1000, 10], 3)
        );
    }

    #[test]
    fn shard_plan_boundary_cases() {
        // One day: one shard regardless of the requested count.
        assert_eq!(shard_plan(&[42], 8), vec![0..1]);
        // Fewer days than shards: one single-day shard per day.
        assert_eq!(shard_plan(&[5, 5], 7), vec![0..1, 1..2]);
        // days % shards != 0: still exactly `shards` contiguous ranges.
        let plan = shard_plan(&[1, 1, 1, 1, 1, 1, 1], 3);
        assert_eq!(plan.len(), 3);
        assert_eq!(plan.first().unwrap().start, 0);
        assert_eq!(plan.last().unwrap().end, 7);
        for w in plan.windows(2) {
            assert_eq!(w[0].end, w[1].start, "shards must be contiguous");
            assert!(!w[0].is_empty() && !w[1].is_empty());
        }
        // Degenerate shard counts.
        assert_eq!(shard_plan(&[3, 3, 3], 0), vec![0..3]);
        assert_eq!(shard_plan(&[], 4), Vec::<Range<usize>>::new());
        // All-zero weights still produce a covering plan.
        assert_eq!(shard_plan(&[0, 0, 0, 0], 2), vec![0..1, 1..4]);
    }

    #[test]
    fn batch_matches_sequential_rows_bit_identically() {
        let domain = generate(&stock_config(36).scaled(0.01, 0.15));
        let indices: Vec<usize> = (0..domain.collection.num_days()).collect();
        let sequential = evaluate_days_sequential(&domain.collection, &indices, false);
        for shards in [1usize, 2, indices.len(), indices.len() + 3] {
            let batch = BatchRunner::new()
                .with_num_shards(shards)
                .evaluate_days(&domain.collection, &indices);
            assert_eq!(batch.days.len(), sequential.len());
            assert!(batch.num_shards <= indices.len().max(1));
            for (b, s) in batch.days.iter().zip(&sequential) {
                assert_eq!(b.day_index, s.day_index);
                assert_eq!(b.day, s.day);
                assert!(
                    same_results(&b.rows, &s.rows),
                    "batch rows diverged on day {} with {shards} shards",
                    b.day
                );
            }
        }
    }

    #[test]
    fn batch_oracle_path_matches_sequential() {
        let domain = generate(&stock_config(37).scaled(0.01, 0.1));
        let indices: Vec<usize> = (0..domain.collection.num_days()).collect();
        let batch = BatchRunner::new()
            .with_known_copying()
            .evaluate_days(&domain.collection, &indices);
        let sequential = evaluate_days_sequential(&domain.collection, &indices, true);
        for (b, s) in batch.days.iter().zip(&sequential) {
            assert!(same_results(&b.rows, &s.rows), "oracle path diverged");
        }
        assert!(batch.wall_clock >= Duration::ZERO);
        assert!(batch.total_shard_time >= Duration::ZERO);
        assert!(batch.threads >= 1);
    }

    #[test]
    fn arena_run_matches_cold_run() {
        let domain = generate(&stock_config(38).scaled(0.01, 0.1));
        let mut builder = ProblemBuilder::new();
        let mut scratch = FusionScratch::new();
        // Warm the builder on a later day, then fuse the reference day: the
        // warm run must equal a cold run on a fresh problem.
        let last = domain.collection.day(domain.collection.num_days() - 1);
        builder.prepare(&last.snapshot);
        let reference = domain.collection.reference_day();
        let problem = builder.prepare(&reference.snapshot);
        let cold_problem = FusionProblem::from_snapshot(&reference.snapshot);
        assert_eq!(*problem, cold_problem);
        let options = FusionOptions::standard();
        for (_, method) in all_methods() {
            let warm = method.run_with_scratch(problem, &options, &mut scratch);
            let cold = method.run(&cold_problem, &options);
            assert_eq!(warm.selection, cold.selection, "{} selection", warm.method);
            assert_eq!(
                warm.trust.overall, cold.trust.overall,
                "{} trust",
                warm.method
            );
            assert_eq!(warm.rounds, cold.rounds, "{} rounds", warm.method);
        }
    }
}
