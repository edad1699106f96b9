//! Multi-day evaluation: fan the sixteen registry methods — and any number
//! of collection days — across CPU cores.
//!
//! The sequential [`runner`](crate::runner) evaluates methods one at a time;
//! on the paper's workload that is dominated by a few expensive methods (the
//! per-attribute ACCU variants and ACCUCOPY take orders of magnitude longer
//! than VOTE, see Figure 12). [`evaluate_days`] runs each (day, method) pair
//! as one task on a dynamically scheduled pool, so the cheap methods fill the
//! cores while the expensive ones run, no worker idles on a last day while
//! another still has methods queued, and a multi-day evaluation (Table 7,
//! Figure 12) scales with the number of snapshots. It is the crate's one
//! multi-day runner.
//!
//! Every method run is deterministic (no randomness at fusion time), so the
//! fan-out produces **identical** rows to the sequential reference,
//! [`evaluate_prepared_sequential`] over [`prepare_contexts`] — selected
//! values, precision, trust, rounds — except for the measured `elapsed`
//! wall-clock field, which is timing noise by nature. [`same_results`]
//! encodes that equivalence; `tests/batch_equivalence.rs` pins it across
//! seeds, scales, day selections, both copy paths and pool sizes.

use crate::chunk_policy::intra_day_chunks;
use crate::runner::{
    evaluate_all_methods, evaluate_method_with_chunks, EvaluationContext, MethodEvaluation,
};
use copydetect::known_copying;
use datamodel::{Collection, CollectionDay};
use fusion::all_methods;
use rayon::prelude::*;
use serde::Serialize;
use std::time::{Duration, Instant};

/// All sixteen Table-7 rows for one collection day.
#[derive(Debug, Clone, Serialize)]
pub struct DayEvaluation {
    /// Index of the day within the evaluated selection.
    pub day_index: usize,
    /// The snapshot's own day stamp.
    pub day: u32,
    /// One row per registry method, in Table-7 order.
    pub rows: Vec<MethodEvaluation>,
}

/// Result of a parallel multi-snapshot evaluation, with the timing evidence
/// for the Figure-12 efficiency discussion.
#[derive(Debug, Clone, Serialize)]
pub struct ParallelEvaluation {
    /// Per-day method rows, in the order the days were requested.
    pub days: Vec<DayEvaluation>,
    /// Wall-clock time of the whole fan-out (context preparation included).
    pub wall_clock: Duration,
    /// Sum of the full per-(day, method) task times — both the without-trust
    /// and with-trust runs plus the metrics, i.e. what a sequential runner
    /// would spend inside the evaluations alone (context preparation
    /// excluded).
    pub total_method_time: Duration,
    /// Worker threads the fan-out ran on.
    pub threads: usize,
    /// Fusion kernel backend the run dispatched to (`"avx2+fma"` /
    /// `"scalar"`), recorded so timing evidence from machines with
    /// different vector units is never compared as like-for-like.
    pub kernel_backend: String,
}

impl ParallelEvaluation {
    /// Ratio of summed per-task time to wall-clock time; > 1 means the
    /// fan-out beat a sequential run (upper-bounded by `threads`). For a
    /// measured — rather than estimated — baseline, time
    /// [`evaluate_prepared_sequential`] on the same selection.
    pub fn speedup(&self) -> f64 {
        let wall = self.wall_clock.as_secs_f64();
        if wall <= 0.0 {
            return 1.0;
        }
        self.total_method_time.as_secs_f64() / wall
    }
}

/// Evaluate the sixteen registry methods on the selected days of a
/// collection, fanning all (day, method) pairs across the pool at once so
/// expensive methods on one day overlap cheap methods on another. Rows come
/// back in request order; a day selected twice is evaluated twice.
///
/// With `use_known_copying`, the planted/claimed copy groups (Table 5) are
/// fed to the oracle with-trust runs of copy-aware methods, as Table 7 does.
///
/// # Panics
///
/// Panics if any index in `day_indices` is out of range for the collection
/// (mirroring [`Collection::day`]).
pub fn evaluate_days(
    collection: &Collection,
    day_indices: &[usize],
    use_known_copying: bool,
) -> ParallelEvaluation {
    let start = Instant::now();

    // Phase 1: prepare one context per requested day, in parallel.
    // (FusionProblem preparation and trust sampling are themselves
    // non-trivial on paper-scale snapshots.)
    let days: Vec<&CollectionDay> = day_indices.iter().map(|&i| collection.day(i)).collect();
    let contexts: Vec<EvaluationContext<'_>> = days
        .par_iter()
        .map(|day| prepare_context(day, use_known_copying))
        .collect();

    // Phase 2: one task per (day, method) pair. Method index rides along so
    // the rows can be reassembled in Table-7 order per day. The method
    // objects are built once and shared (`FusionMethod` is `Send + Sync`).
    // Each task is timed as a whole — a method evaluation runs the method
    // twice (without and with input trust) plus the metrics, and all of that
    // is work a sequential runner would pay for, so only the full task time
    // gives an honest speedup numerator.
    let methods = all_methods();
    let tasks: Vec<(usize, usize)> = (0..contexts.len())
        .flat_map(|day| (0..methods.len()).map(move |method| (day, method)))
        .collect();
    // Spare threads (pool wider than the task list — one huge day on a
    // many-core box) go to intra-day chunking; the usual many-task case
    // keeps every run sequential. Bit-identical either way.
    let threads = rayon::current_num_threads();
    let num_tasks = tasks.len();
    let evaluated: Vec<(usize, MethodEvaluation, Duration)> = tasks
        .into_par_iter()
        .map(|(day, method_index)| {
            let task_start = Instant::now();
            let (category, method) = &methods[method_index];
            let context = &contexts[day];
            let chunks = intra_day_chunks(threads, num_tasks, context.problem.num_items());
            let row = evaluate_method_with_chunks(context, *category, method.as_ref(), chunks);
            (day, row, task_start.elapsed())
        })
        .collect();

    // Reassemble: rows arrive ordered by task index (day-major), so a stable
    // pass per day suffices.
    let mut day_rows: Vec<Vec<MethodEvaluation>> =
        (0..contexts.len()).map(|_| Vec::new()).collect();
    let mut total_method_time = Duration::ZERO;
    for (day, row, task_time) in evaluated {
        total_method_time += task_time;
        day_rows[day].push(row);
    }

    let days = day_rows
        .into_iter()
        .zip(days)
        .enumerate()
        .map(|(day_index, (rows, day))| DayEvaluation {
            day_index,
            day: day.snapshot.day(),
            rows,
        })
        .collect();

    ParallelEvaluation {
        days,
        wall_clock: start.elapsed(),
        total_method_time,
        threads,
        kernel_backend: fusion::kernels::backend_name().to_string(),
    }
}

/// True when two evaluations of the same context agree on everything a
/// deterministic method controls (name, category, precision, recall, trust
/// statistics, rounds) — i.e. everything except the measured `elapsed`.
pub fn same_results(a: &[MethodEvaluation], b: &[MethodEvaluation]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.method == y.method
                && x.category == y.category
                && x.precision_without_trust == y.precision_without_trust
                && x.recall_without_trust == y.recall_without_trust
                && x.precision_with_trust == y.precision_with_trust
                && x.trust_deviation == y.trust_deviation
                && x.trust_difference == y.trust_difference
                && x.rounds == y.rounds
        })
}

/// One day's evaluation context, with the oracle copy report attached when
/// `use_known_copying` is set.
fn prepare_context(day: &CollectionDay, use_known_copying: bool) -> EvaluationContext<'_> {
    let context = EvaluationContext::new(&day.snapshot, &day.gold);
    if use_known_copying {
        let report = known_copying(day.snapshot.schema());
        context.with_known_copying(&report)
    } else {
        context
    }
}

/// Build one evaluation context per selected day, sequentially — the
/// preparation half of the sequential reference, split out so repeated
/// timing runs (`exp_fig12_efficiency --repeats`) can pay for
/// `FusionProblem` preparation once and re-time only the method evaluations.
pub fn prepare_contexts<'c>(
    collection: &'c Collection,
    day_indices: &[usize],
    use_known_copying: bool,
) -> Vec<EvaluationContext<'c>> {
    day_indices
        .iter()
        .map(|&i| prepare_context(collection.day(i), use_known_copying))
        .collect()
}

/// Evaluate prepared contexts sequentially, one [`DayEvaluation`] per
/// context, in order: the sequential reference [`evaluate_days`] is pinned
/// against, and the pass Figure 12 takes its uncontended per-method timings
/// from.
pub fn evaluate_prepared_sequential(contexts: &[EvaluationContext<'_>]) -> Vec<DayEvaluation> {
    contexts
        .iter()
        .enumerate()
        .map(|(day_index, context)| DayEvaluation {
            day_index,
            day: context.snapshot.day(),
            rows: evaluate_all_methods(context),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{generate, stock_config};

    /// The sequential reference rows for a selection.
    fn sequential(
        collection: &Collection,
        day_indices: &[usize],
        use_known_copying: bool,
    ) -> Vec<DayEvaluation> {
        evaluate_prepared_sequential(&prepare_contexts(
            collection,
            day_indices,
            use_known_copying,
        ))
    }

    #[test]
    fn parallel_matches_sequential_on_one_context() {
        let domain = generate(&stock_config(31).scaled(0.015, 0.1));
        let reference = domain.collection.reference_day_index();
        let day = domain.collection.day(reference);
        let context = EvaluationContext::new(&day.snapshot, &day.gold);
        let sequential = evaluate_all_methods(&context);
        let parallel = evaluate_days(&domain.collection, &[reference], false);
        let rows = &parallel.days[0].rows;
        assert_eq!(rows.len(), 16);
        assert!(
            same_results(&sequential, rows),
            "parallel rows diverged from sequential rows"
        );
        // Table-7 order is preserved.
        assert_eq!(rows[0].method, "Vote");
        assert_eq!(rows[15].method, "AccuCopy");
    }

    #[test]
    fn multi_day_fanout_covers_every_day_and_method() {
        let domain = generate(&stock_config(32).scaled(0.01, 0.2));
        let indices: Vec<usize> = (0..domain.collection.num_days()).collect();
        let report = evaluate_days(&domain.collection, &indices, false);
        assert_eq!(report.days.len(), domain.collection.num_days());
        for (i, day) in report.days.iter().enumerate() {
            assert_eq!(day.day_index, i);
            assert_eq!(day.rows.len(), 16);
            assert_eq!(day.rows[0].method, "Vote");
        }
        assert!(report.threads >= 1);
        assert!(report.total_method_time >= Duration::ZERO);
        assert!(report.speedup() > 0.0);
        assert!(
            report.kernel_backend == "avx2+fma" || report.kernel_backend == "scalar",
            "unexpected kernel backend {:?}",
            report.kernel_backend
        );
    }

    #[test]
    fn multi_day_fanout_matches_sequential_baseline() {
        let domain = generate(&stock_config(33).scaled(0.01, 0.15));
        let indices: Vec<usize> = (0..domain.collection.num_days()).collect();
        let parallel = evaluate_days(&domain.collection, &indices, true);
        let sequential = sequential(&domain.collection, &indices, true);
        assert_eq!(parallel.days.len(), sequential.len());
        for (p, s) in parallel.days.iter().zip(&sequential) {
            assert_eq!(p.day, s.day);
            assert!(
                same_results(&p.rows, &s.rows),
                "day {} diverged",
                p.day_index
            );
        }
    }

    #[test]
    fn with_known_copying_applies_to_single_context_evaluation() {
        let domain = generate(&stock_config(35).scaled(0.015, 0.1));
        let reference = domain.collection.reference_day_index();
        let day = domain.collection.day(reference);

        // The runner's oracle flag must behave exactly like a context that
        // was enriched with the oracle upfront.
        let from_runner = evaluate_days(&domain.collection, &[reference], true);

        let report = copydetect::known_copying(day.snapshot.schema());
        let enriched = EvaluationContext::new(&day.snapshot, &day.gold).with_known_copying(&report);
        let from_context = evaluate_all_methods(&enriched);

        assert!(
            same_results(&from_runner.days[0].rows, &from_context),
            "runner-level known copying diverged from context-level oracle"
        );
    }

    #[test]
    fn prepared_split_matches_one_shot_sequential() {
        let domain = generate(&stock_config(36).scaled(0.01, 0.15));
        let indices: Vec<usize> = (0..domain.collection.num_days()).collect();
        let one_shot = sequential(&domain.collection, &indices, true);
        let contexts = prepare_contexts(&domain.collection, &indices, true);
        // Re-evaluating the same prepared contexts twice must keep producing
        // the one-shot rows (the --repeats pattern).
        for _ in 0..2 {
            let split = evaluate_prepared_sequential(&contexts);
            assert_eq!(split.len(), one_shot.len());
            for (a, b) in split.iter().zip(&one_shot) {
                assert_eq!(a.day, b.day);
                assert!(same_results(&a.rows, &b.rows));
            }
        }
    }
}
