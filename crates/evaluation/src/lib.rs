//! Evaluation harness for the fusion experiments (Section 4 of the paper).
//!
//! * [`metrics`] — precision/recall against a gold standard, trustworthiness
//!   deviation (Equation 4) and difference;
//! * [`runner`] — run one or all fusion methods on a snapshot with and
//!   without sampled trust (Table 7, Figure 12);
//! * [`compare`] — pairwise method comparison: errors fixed / introduced
//!   (Table 8);
//! * [`incremental`] — recall as sources are added in recall order
//!   (Figure 9), each prefix prepared cold into one reused problem builder;
//! * [`delta_usage`] — aggregated [`fusion::DeltaEngine`] activity
//!   (fall-backs, cache hits, dirty fractions) for the online service and
//!   Figure 12's delta sweep;
//! * [`parallel`] — the one multi-day runner, [`evaluate_days`]: a
//!   dynamically scheduled (day, method) fan-out across CPU cores (Table 7,
//!   Figure 12), rows bit-identical to the sequential reference; when the
//!   tasks are fewer than the pool's threads, the spare threads go to
//!   intra-day [`fusion::chunking`] within each method run;
//! * [`breakdown`] — precision vs. dominance factor (Figure 10);
//! * [`errors`] — error analysis of a method's mistakes (Figure 11);
//! * [`over_time`] — precision over all collection days (Table 9), one
//!   pool task per day;
//! * [`scenario`] — golden-metrics rows for the adversarial stress
//!   scenarios (per-method precision + copy-detection hit rates).

pub mod breakdown;
mod chunk_policy;
pub mod compare;
pub mod delta_usage;
pub mod errors;
pub mod incremental;
pub mod metrics;
pub mod over_time;
pub mod parallel;
pub mod runner;
pub mod scenario;

pub use breakdown::{precision_by_dominance, DominancePrecisionPoint};
pub use compare::{compare_methods, MethodComparison, PAPER_METHOD_PAIRS};
pub use delta_usage::DeltaUsage;
pub use errors::{analyze_errors, ErrorAnalysis, ErrorCause};
pub use incremental::{incremental_recall, IncrementalPoint, IncrementalSeries};
pub use metrics::{
    precision_recall, sampled_trust, trust_deviation_and_difference, PrecisionRecall,
};
pub use over_time::{evaluate_over_time, MethodOverTime};
pub use parallel::{
    evaluate_days, evaluate_prepared_sequential, prepare_contexts, same_results, DayEvaluation,
    ParallelEvaluation,
};
pub use runner::{
    copy_report_to_dense, evaluate_all_methods, evaluate_method, evaluate_method_with_chunks,
    EvaluationContext, MethodEvaluation,
};
pub use scenario::{
    evaluate_scenario_day, render_golden_table, ScenarioMethodRow, ScenarioOutcome,
};
