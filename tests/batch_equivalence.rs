//! Equivalence harness for multi-day evaluation.
//!
//! The (day, method) fan-out's whole contract is that scheduling changes
//! nothing but the wall clock: `evaluate_days` rows must be
//! **bit-identical** to the cold sequential reference
//! (`evaluate_prepared_sequential` over `prepare_contexts`) on the same day
//! selection — across seeds, scales, day counts, request orders (sparse,
//! out-of-order, duplicate and one-day selections), both the detected and
//! the oracle (known-copying) paths, and pool sizes 1, 2 and 3. CI runs this
//! suite in debug and `--release`, because the float-identical claims must
//! hold under optimization too.

use datagen::{flight_config, generate, stock_config, GeneratedDomain};
use evaluation::{evaluate_days, evaluate_prepared_sequential, prepare_contexts, same_results};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

/// Serializes the tests' in-process `RAYON_NUM_THREADS` changes, so every
/// test restores exactly the value it found.
static POOL_SIZE: Mutex<()> = Mutex::new(());

/// Holds [`POOL_SIZE`] and restores the saved `RAYON_NUM_THREADS` on drop,
/// also when an assertion unwinds.
struct PoolSizeGuard {
    saved: Option<String>,
    _lock: MutexGuard<'static, ()>,
}

impl PoolSizeGuard {
    fn acquire() -> Self {
        let lock = POOL_SIZE
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        Self {
            saved: std::env::var("RAYON_NUM_THREADS").ok(),
            _lock: lock,
        }
    }
}

impl Drop for PoolSizeGuard {
    fn drop(&mut self) {
        match &self.saved {
            Some(value) => std::env::set_var("RAYON_NUM_THREADS", value),
            None => std::env::remove_var("RAYON_NUM_THREADS"),
        }
    }
}

/// Assert that the fan-out reproduces the sequential reference on
/// `selection` (request order, duplicates included) for one copy path,
/// under pool sizes 1, 2 and 3. The rayon stand-in sizes its pool from the
/// environment per call, so an in-process `set_var` takes effect for the
/// evaluation that follows.
fn assert_matches_sequential(
    domain: &GeneratedDomain,
    selection: &[usize],
    use_known_copying: bool,
) {
    let reference = evaluate_prepared_sequential(&prepare_contexts(
        &domain.collection,
        selection,
        use_known_copying,
    ));
    assert_eq!(reference.len(), selection.len());

    let _pool = PoolSizeGuard::acquire();
    for threads in [1usize, 2, 3] {
        std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
        let fanout = evaluate_days(&domain.collection, selection, use_known_copying);
        assert_eq!(fanout.threads, threads);
        assert_eq!(
            fanout.days.len(),
            selection.len(),
            "{threads} thread(s): day count"
        );
        for (position, (s, g)) in reference.iter().zip(&fanout.days).enumerate() {
            assert_eq!(
                g.day_index, position,
                "{threads} thread(s): day order changed"
            );
            assert_eq!(s.day, g.day, "{threads} thread(s): day stamps diverged");
            assert_eq!(g.rows.len(), 16, "{threads} thread(s): row count");
            assert!(
                same_results(&s.rows, &g.rows),
                "{threads} thread(s): rows diverged from sequential on day {} \
                 (position {position}, known_copying={use_known_copying})",
                s.day
            );
        }
    }
}

/// Every day of `domain`, in order, on both copy paths.
fn assert_all_days(domain: &GeneratedDomain) {
    let indices: Vec<usize> = (0..domain.collection.num_days()).collect();
    assert_matches_sequential(domain, &indices, false);
    assert_matches_sequential(domain, &indices, true);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Random small collections (seed, scale, day count): fan-out ==
    /// sequential bit-identically on both copy paths and every pool size.
    #[test]
    fn random_collections_agree_across_runners(
        seed in 0u64..10_000,
        scale in 0.004f64..0.012,
        days in 0.05f64..0.25,
    ) {
        let domain = generate(&stock_config(seed).scaled(scale, days));
        prop_assert!(domain.collection.num_days() >= 1);
        assert_all_days(&domain);
    }
}

/// The acceptance fixtures: seeded Stock and Flight domains, both copy
/// paths. These are the exact domains the golden Table-7 suite
/// (`tests/equivalence.rs`) pins, so a divergence here triangulates
/// immediately.
#[test]
fn seeded_stock_fixture_agrees_across_runners() {
    assert_all_days(&generate(&stock_config(2012).scaled(0.02, 0.1)));
}

#[test]
fn seeded_flight_fixture_agrees_across_runners() {
    assert_all_days(&generate(&flight_config(2012).scaled(0.1, 0.06)));
}

/// Selection shapes: a single day, a day requested twice, and an
/// out-of-order selection with a repeat — each must come back as the
/// sequential rows in request order, one entry per requested position.
#[test]
fn one_day_duplicate_and_out_of_order_selections_keep_every_row() {
    let domain = generate(&stock_config(77).scaled(0.008, 0.25));
    let num_days = domain.collection.num_days();
    assert!(num_days >= 2, "fixture needs a multi-day collection");
    let reference = domain.collection.reference_day_index();

    assert_matches_sequential(&domain, &[reference], false);
    assert_matches_sequential(&domain, &[reference, reference], true);
    assert_matches_sequential(&domain, &[num_days - 1, 0, num_days - 1, 1], false);
}

/// A sparse subset selection (not starting at day 0) keeps request order.
#[test]
fn sparse_day_selections_keep_request_order() {
    let domain = generate(&stock_config(78).scaled(0.008, 0.3));
    let num_days = domain.collection.num_days();
    assert!(num_days >= 3);
    let selection = vec![num_days - 1, 0, num_days / 2];
    assert_matches_sequential(&domain, &selection, false);
    assert_matches_sequential(&domain, &selection, true);
}
