//! Output checks: every checked operation counts as attempted, every wrong
//! output as failed.

use fusion::FusionResult;
use service::ApplyOutcome;

/// Failure counter shared by every workload.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
    first_failures: Vec<String>,
}

/// Failure descriptions kept for the report.
const KEPT_FAILURES: usize = 8;

impl Checks {
    /// Count one checked operation; when `ok` is false, count it as failed
    /// and keep its description (built lazily).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first_failures.len() < KEPT_FAILURES {
                self.first_failures.push(what());
            }
        }
    }

    /// Fold another counter into this one.
    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = KEPT_FAILURES.saturating_sub(self.first_failures.len());
        self.first_failures
            .extend(other.first_failures.into_iter().take(room));
    }

    /// Operations checked.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations whose output was wrong.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// The first few failures, described.
    pub fn first_failures(&self) -> &[String] {
        &self.first_failures
    }
}

/// The outcome an ingested operation must get.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expected {
    /// A fresh claim upsert or retraction.
    Applied,
    /// A planted re-delivery of an operation already applied.
    Duplicate,
    /// The day's closing seal.
    Sealed,
}

/// Whether `outcome` is what `expected` asks for.
pub fn outcome_matches(expected: Expected, outcome: &ApplyOutcome) -> bool {
    matches!(
        (expected, outcome),
        (Expected::Applied, ApplyOutcome::Applied)
            | (Expected::Duplicate, ApplyOutcome::Duplicate)
            | (Expected::Sealed, ApplyOutcome::Sealed(_))
    )
}

/// Whether two fusion results agree bit for bit in selection and overall
/// trust.
pub fn same_bits(a: &FusionResult, b: &FusionResult) -> bool {
    a.selection == b.selection && same_trust(&a.trust.overall, &b.trust.overall)
}

/// Whether two trust vectors agree bit for bit.
pub fn same_trust(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrong_expected_outcome_is_counted() {
        let mut checks = Checks::default();
        checks.check(
            outcome_matches(Expected::Applied, &ApplyOutcome::Applied),
            || "fresh".into(),
        );
        checks.check(
            outcome_matches(Expected::Duplicate, &ApplyOutcome::Duplicate),
            || "dup".into(),
        );
        // A re-delivery that the service applied a second time is a failure.
        checks.check(
            outcome_matches(Expected::Duplicate, &ApplyOutcome::Applied),
            || "re-delivery applied twice".into(),
        );
        checks.check(
            outcome_matches(Expected::Applied, &ApplyOutcome::Stale),
            || "stale".into(),
        );
        checks.check(
            outcome_matches(
                Expected::Applied,
                &ApplyOutcome::Rejected("bad attr".into()),
            ),
            || "rejected".into(),
        );
        checks.check(
            outcome_matches(Expected::Sealed, &ApplyOutcome::Duplicate),
            || "seal was a duplicate".into(),
        );
        assert_eq!(checks.attempted(), 6);
        assert_eq!(checks.failed(), 4);
        assert_eq!(checks.first_failures()[0], "re-delivery applied twice");
    }

    #[test]
    fn merge_adds_counts_and_caps_descriptions() {
        let mut a = Checks::default();
        let mut b = Checks::default();
        for i in 0..20 {
            b.check(false, || format!("failure {i}"));
        }
        a.check(true, || unreachable!());
        a.merge(b);
        assert_eq!(a.attempted(), 21);
        assert_eq!(a.failed(), 20);
        assert_eq!(a.first_failures().len(), KEPT_FAILURES);
    }

    #[test]
    fn trust_bits_compare_exactly() {
        assert!(same_trust(&[0.1, 0.2], &[0.1, 0.2]));
        assert!(!same_trust(&[0.1, 0.2], &[0.1, 0.2 + f64::EPSILON]));
        assert!(!same_trust(&[0.1], &[0.1, 0.2]));
        assert!(!same_trust(&[0.0], &[-0.0]));
    }
}
