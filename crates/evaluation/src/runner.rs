//! Running fusion methods over a snapshot and collecting the Table-7
//! measurements: precision with and without input trust, trustworthiness
//! deviation and difference, execution time.
//!
//! An [`EvaluationContext`] is prepared once per snapshot and every method
//! row is computed from it. [`crate::parallel::evaluate_days`] fans these
//! rows across days and methods; [`evaluate_all_methods`] is the sequential
//! per-context reference.

use crate::metrics::{precision_recall, sampled_trust, trust_deviation_and_difference};
use copydetect::CopyReport;
use datamodel::{GoldStandard, Snapshot};
use fusion::{
    all_methods, method_by_name, CopyMatrix, FusionMethod, FusionOptions, FusionProblem,
    FusionResult, FusionScratch, MethodCategory,
};
use serde::Serialize;
use std::time::Duration;

/// Everything needed to evaluate methods on one snapshot: the borrowed
/// snapshot and gold standard plus what is prepared from them once and
/// shared by every method run.
pub struct EvaluationContext<'a> {
    /// The observation table.
    pub snapshot: &'a Snapshot,
    /// The gold standard precision is measured against.
    pub gold: &'a GoldStandard,
    /// The prepared fusion problem (built once, shared by all methods).
    pub problem: FusionProblem,
    /// Sampled source trust (accuracy against the gold standard), used for
    /// the "with trust" runs and for trust deviation/difference.
    pub sampled_trust: Vec<f64>,
    /// Known copy probabilities (dense source-index pairs) used by copy-aware
    /// methods in the oracle runs; typically derived from the planted or
    /// claimed copy groups (Table 5).
    pub known_copying: Option<CopyMatrix>,
}

impl<'a> EvaluationContext<'a> {
    /// Build a context from a snapshot and gold standard.
    pub fn new(snapshot: &'a Snapshot, gold: &'a GoldStandard) -> Self {
        let problem = FusionProblem::from_snapshot(snapshot);
        let sampled_trust = sampled_trust(snapshot, gold, &problem, 0.8);
        Self {
            snapshot,
            gold,
            problem,
            sampled_trust,
            known_copying: None,
        }
    }

    /// Attach known copying information (used by the oracle runs of
    /// copy-aware methods).
    pub fn with_known_copying(mut self, report: &CopyReport) -> Self {
        self.known_copying = Some(copy_report_to_dense(report, &self.problem));
        self
    }
}

/// Convert a [`CopyReport`] (source-id keyed) into the dense source-index
/// matrix the fusion options expect.
pub fn copy_report_to_dense(report: &CopyReport, problem: &FusionProblem) -> CopyMatrix {
    let mut matrix = CopyMatrix::new(problem.num_sources());
    for ((a, b), p) in report.pairs() {
        if let (Some(i), Some(j)) = (problem.source_index(*a), problem.source_index(*b)) {
            matrix.set(i, j, *p);
        }
    }
    matrix
}

/// Table-7 row for one method.
#[derive(Debug, Clone, Serialize)]
pub struct MethodEvaluation {
    /// Method name (paper spelling).
    pub method: String,
    /// Category label (Table 6).
    pub category: String,
    /// Precision when the method estimates trust itself ("prec w/o. trust").
    pub precision_without_trust: f64,
    /// Recall of the same run (equals precision when all items are output).
    pub recall_without_trust: f64,
    /// Precision when the sampled trust is given as input ("prec w. trust").
    pub precision_with_trust: f64,
    /// Trustworthiness deviation (Equation 4) of the without-trust run.
    pub trust_deviation: f64,
    /// Mean computed trust minus mean sampled trust.
    pub trust_difference: f64,
    /// Number of iterative rounds of the without-trust run.
    pub rounds: usize,
    /// Execution time of the without-trust run.
    pub elapsed: Duration,
}

/// Evaluate a single method on a context. `category` is only used for the
/// report label. Runs sequentially; use [`evaluate_method_with_chunks`] to
/// let one method parallelize within the day.
pub fn evaluate_method(
    context: &EvaluationContext<'_>,
    category: MethodCategory,
    method: &dyn FusionMethod,
) -> MethodEvaluation {
    evaluate_method_with_chunks(context, category, method, 0)
}

/// [`evaluate_method`] with an explicit intra-day chunk count (see
/// [`fusion::chunking`]), forwarded to both the without-trust and the
/// with-trust run; `0` keeps the method sequential. Chunked rows are
/// bit-identical to sequential rows, so callers choose the count purely on
/// performance grounds, as [`crate::parallel::evaluate_days`] does from its
/// task count.
pub fn evaluate_method_with_chunks(
    context: &EvaluationContext<'_>,
    category: MethodCategory,
    method: &dyn FusionMethod,
    intra_day_chunks: usize,
) -> MethodEvaluation {
    let mut scratch = FusionScratch::new();
    let standard = FusionOptions::standard().with_intra_day_chunks(intra_day_chunks);
    let without = method.run_with_scratch(&context.problem, &standard, &mut scratch);
    let pr_without = precision_recall(context.snapshot, context.gold, &without);
    let (deviation, difference) =
        trust_deviation_and_difference(&without.trust.overall, &context.sampled_trust);

    let mut with_opts = FusionOptions::standard()
        .with_intra_day_chunks(intra_day_chunks)
        .with_input_trust(context.sampled_trust.clone());
    if let Some(known) = &context.known_copying {
        with_opts = with_opts.with_known_copying(known.clone());
    }
    let with = method.run_with_scratch(&context.problem, &with_opts, &mut scratch);
    let pr_with = precision_recall(context.snapshot, context.gold, &with);

    MethodEvaluation {
        method: method.name(),
        category: category.label().to_string(),
        precision_without_trust: pr_without.precision,
        recall_without_trust: pr_without.recall,
        precision_with_trust: pr_with.precision,
        trust_deviation: deviation,
        trust_difference: difference,
        rounds: without.rounds,
        elapsed: without.elapsed,
    }
}

/// Evaluate all sixteen paper methods on a context, in Table-7 order.
pub fn evaluate_all_methods(context: &EvaluationContext<'_>) -> Vec<MethodEvaluation> {
    all_methods()
        .into_iter()
        .map(|(category, method)| evaluate_method(context, category, method.as_ref()))
        .collect()
}

/// Run one named method (paper spelling) without input trust and return the
/// raw fusion result; convenience for the comparison and error-analysis
/// experiments.
pub fn run_named_method(
    context: &EvaluationContext<'_>,
    name: &str,
    options: &FusionOptions,
) -> Option<FusionResult> {
    let method = method_by_name(name)?;
    Some(method.run(&context.problem, options))
}

#[cfg(test)]
mod tests {
    use super::*;
    use copydetect::known_copying;
    use datagen::{generate, stock_config};
    use fusion::MethodCategory;

    #[test]
    fn evaluation_produces_all_sixteen_rows() {
        let domain = generate(&stock_config(21).scaled(0.015, 0.1));
        let day = domain.collection.reference_day();
        let context = EvaluationContext::new(&day.snapshot, &day.gold);
        let rows = evaluate_all_methods(&context);
        assert_eq!(rows.len(), 16);
        for row in &rows {
            assert!(row.precision_without_trust >= 0.0 && row.precision_without_trust <= 1.0);
            assert!(row.precision_with_trust >= 0.0 && row.precision_with_trust <= 1.0);
            assert!(row.recall_without_trust <= row.precision_without_trust + 1e-9);
            assert!(row.trust_deviation >= 0.0);
        }
        // The baseline row is VOTE and needs no iteration.
        assert_eq!(rows[0].method, "Vote");
        assert_eq!(rows[0].rounds, 0);
    }

    #[test]
    fn oracle_trust_never_hurts_much_and_usually_helps() {
        let domain = generate(&stock_config(22).scaled(0.015, 0.1));
        let day = domain.collection.reference_day();
        let report = known_copying(day.snapshot.schema());
        let context = EvaluationContext::new(&day.snapshot, &day.gold).with_known_copying(&report);
        let rows = evaluate_all_methods(&context);
        let helped = rows
            .iter()
            .filter(|r| r.method != "Vote")
            .filter(|r| r.precision_with_trust >= r.precision_without_trust - 0.02)
            .count();
        // The paper observes that giving sampled trustworthiness improves the
        // results for (almost) all methods.
        assert!(
            helped >= 12,
            "only {helped} methods kept or improved precision with oracle trust"
        );
    }

    #[test]
    fn single_method_evaluation_matches_registry_run() {
        let domain = generate(&stock_config(23).scaled(0.01, 0.1));
        let day = domain.collection.reference_day();
        let context = EvaluationContext::new(&day.snapshot, &day.gold);
        let accu = fusion::method_by_name("AccuPr").unwrap();
        let row = evaluate_method(&context, MethodCategory::Bayesian, accu.as_ref());
        assert_eq!(row.method, "AccuPr");
        assert_eq!(row.category, "Bayesian based");
        let direct = run_named_method(&context, "AccuPr", &FusionOptions::standard()).unwrap();
        let pr = precision_recall(context.snapshot, context.gold, &direct);
        assert!((pr.precision - row.precision_without_trust).abs() < 1e-9);
    }

    #[test]
    fn copy_report_conversion_uses_dense_indices() {
        let domain = generate(&stock_config(24).scaled(0.01, 0.1));
        let day = domain.collection.reference_day();
        let report = known_copying(day.snapshot.schema());
        let problem = FusionProblem::from_snapshot(&day.snapshot);
        let dense = copy_report_to_dense(&report, &problem);
        assert!(dense.num_scored() > 0);
        assert_eq!(dense.num_sources(), problem.num_sources());
        for ((a, b), p) in dense.pairs() {
            assert!(a < b);
            assert!(b < problem.num_sources());
            assert!(p > 0.99);
        }
    }
}
