//! Criterion guard and micro-benchmark for multi-day evaluation: the
//! dynamically scheduled (day, method) fan-out of `evaluate_days` vs the
//! sequential reference, the same fan-out on the dispatched vs the scalar
//! fusion kernels, plus the cost of a warm in-place problem refill vs a cold
//! preparation.
//!
//! The correctness guard (fan-out rows == sequential rows) runs before any
//! timing, so the timing comparison can never silently compare different
//! computations.

use criterion::{criterion_group, criterion_main, Criterion};
use datagen::{generate, stock_config};
use evaluation::{evaluate_days, evaluate_prepared_sequential, prepare_contexts, same_results};
use fusion::kernels::{self, Backend};
use fusion::{FusionProblem, ProblemBuilder};

fn bench_sequential_vs_fanout(c: &mut Criterion) {
    let stock = generate(&stock_config(2012).scaled(0.02, 0.2));
    let day_indices: Vec<usize> = (0..stock.collection.num_days()).collect();
    let sequential_pass =
        || evaluate_prepared_sequential(&prepare_contexts(&stock.collection, &day_indices, false));

    // Correctness guard first: the fan-out must agree bit-identically with
    // the sequential reference.
    let sequential = sequential_pass();
    let fanout = evaluate_days(&stock.collection, &day_indices, false);
    for (s, f) in sequential.iter().zip(&fanout.days) {
        assert!(
            same_results(&s.rows, &f.rows),
            "fan-out diverged from sequential on day {} of the guard collection",
            s.day
        );
    }

    let mut group = c.benchmark_group("multi_day");
    group.bench_function("sequential_multi_day", |b| b.iter(sequential_pass));
    group.bench_function("parallel_multi_day", |b| {
        b.iter(|| evaluate_days(&stock.collection, &day_indices, false))
    });
    // End-to-end kernel comparison: the same multi-day evaluation with the
    // dispatched SIMD kernels vs the scalar fallback pinned — the
    // whole-pipeline view of the kernel keep/drop gate (`vote_plane` has
    // the per-kernel view).
    let dispatched = kernels::backend();
    group.bench_function(
        format!("parallel_multi_day/kernel_{}", kernels::backend_name()),
        |b| {
            kernels::force_backend(dispatched);
            b.iter(|| evaluate_days(&stock.collection, &day_indices, false))
        },
    );
    group.bench_function("parallel_multi_day/kernel_scalar", |b| {
        kernels::force_backend(Backend::Scalar);
        b.iter(|| evaluate_days(&stock.collection, &day_indices, false));
        kernels::force_backend(dispatched);
    });
    group.finish();
}

fn bench_builder_refill(c: &mut Criterion) {
    let stock = generate(&stock_config(2012).scaled(0.03, 0.1));
    let snapshot = stock.reference_snapshot();

    let mut group = c.benchmark_group("problem_refill");
    group.bench_function("cold_from_snapshot", |b| {
        b.iter(|| FusionProblem::from_snapshot(snapshot))
    });
    group.bench_function("warm_builder_refill", |b| {
        let mut builder = ProblemBuilder::new();
        builder.prepare(snapshot);
        b.iter(|| builder.prepare(snapshot).num_claims())
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(std::time::Duration::from_millis(500)).measurement_time(std::time::Duration::from_secs(2));
    targets = bench_sequential_vs_fanout, bench_builder_refill
}
criterion_main!(benches);
