//! Precision over the full collection period (Table 9): average, minimum,
//! and standard deviation of every method's daily precision.
//!
//! Each collection day is one task on the dynamically scheduled pool: the
//! task prepares the day's [`FusionProblem`] cold and runs the sixteen
//! standard methods on it through one shared [`FusionScratch`], so at most
//! one problem per worker thread is alive at a time, and the per-day
//! precision vectors are gathered back in day order.
//!
//! Only the standard (without-trust) runs enter Table 9, so the oracle copy
//! groups are never read. The days are prepared cold rather than through a
//! day-over-day [`fusion::DeltaEngine`]: generated days drift enough that
//! nearly every day would fall back to a full re-preparation, and a warm
//! engine serializes the days that this function fans across workers.

use crate::metrics::precision_recall;
use datamodel::{Collection, CollectionDay};
use fusion::{all_methods, FusionOptions, FusionProblem, FusionScratch};
use rayon::prelude::*;
use serde::Serialize;

/// Table-9 row for one method.
#[derive(Debug, Clone, Serialize)]
pub struct MethodOverTime {
    /// Method name.
    pub method: String,
    /// Category label.
    pub category: String,
    /// Daily precision values (one per collection day).
    pub daily_precision: Vec<f64>,
    /// Average precision over the period.
    pub average: f64,
    /// Minimum precision over the period.
    pub minimum: f64,
    /// Standard deviation of the daily precision.
    pub deviation: f64,
}

/// Run every method on every day of a collection and summarize. The rows
/// are bit-identical to a per-day `FusionProblem::from_snapshot` +
/// `method.run` loop at any thread count.
pub fn evaluate_over_time(collection: &Collection) -> Vec<MethodOverTime> {
    let mut rows = method_rows();

    // One task per day; each inner vector is one day's per-method
    // precisions, returned in day order.
    let methods = all_methods();
    let options = FusionOptions::standard();
    let days: Vec<&CollectionDay> = collection.days().collect();
    let per_day: Vec<Vec<f64>> = days
        .par_iter()
        .map(|day| {
            let problem = FusionProblem::from_snapshot(&day.snapshot);
            let mut scratch = FusionScratch::new();
            methods
                .iter()
                .map(|(_, method)| {
                    let result = method.run_with_scratch(&problem, &options, &mut scratch);
                    precision_recall(&day.snapshot, &day.gold, &result).precision
                })
                .collect()
        })
        .collect();
    for day_precisions in per_day {
        for (row, precision) in rows.iter_mut().zip(day_precisions) {
            row.daily_precision.push(precision);
        }
    }

    summarize(&mut rows);
    rows
}

fn method_rows() -> Vec<MethodOverTime> {
    all_methods()
        .iter()
        .map(|(category, method)| MethodOverTime {
            method: method.name(),
            category: category.label().to_string(),
            daily_precision: Vec::new(),
            average: 0.0,
            minimum: 0.0,
            deviation: 0.0,
        })
        .collect()
}

fn summarize(rows: &mut [MethodOverTime]) {
    for row in rows {
        row.average = datamodel::mean(&row.daily_precision);
        row.minimum = row
            .daily_precision
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min)
            .min(1.0);
        if !row.minimum.is_finite() {
            row.minimum = 0.0;
        }
        row.deviation = datamodel::stddev(&row.daily_precision);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{generate, stock_config};

    #[test]
    fn over_time_rows_cover_every_method_and_day() {
        let domain = generate(&stock_config(71).scaled(0.01, 0.15));
        let rows = evaluate_over_time(&domain.collection);
        assert_eq!(rows.len(), 16);
        for row in &rows {
            assert_eq!(row.daily_precision.len(), domain.collection.num_days());
            assert!(row.minimum <= row.average + 1e-12);
            assert!(row.average >= 0.0 && row.average <= 1.0);
            assert!(row.deviation >= 0.0);
        }
    }

    #[test]
    fn rows_match_a_cold_per_day_loop_at_one_and_two_threads() {
        let domain = generate(&stock_config(72).scaled(0.008, 0.12));
        let collection = &domain.collection;
        let options = FusionOptions::standard();
        let methods = all_methods();
        let mut cold: Vec<Vec<f64>> = vec![Vec::new(); methods.len()];
        for day in collection.days() {
            let problem = FusionProblem::from_snapshot(&day.snapshot);
            for ((_, method), column) in methods.iter().zip(cold.iter_mut()) {
                let result = method.run(&problem, &options);
                column.push(precision_recall(&day.snapshot, &day.gold, &result).precision);
            }
        }

        // The rayon stand-in sizes its pool from the environment per call.
        let saved = std::env::var("RAYON_NUM_THREADS").ok();
        for threads in [1usize, 2] {
            std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
            let rows = evaluate_over_time(collection);
            assert_eq!(rows.len(), cold.len());
            for (row, column) in rows.iter().zip(&cold) {
                let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&row.daily_precision),
                    bits(column),
                    "{} at {threads} threads",
                    row.method
                );
            }
        }
        match saved {
            Some(value) => std::env::set_var("RAYON_NUM_THREADS", value),
            None => std::env::remove_var("RAYON_NUM_THREADS"),
        }
    }
}
