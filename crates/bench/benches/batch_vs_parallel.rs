//! Criterion guard and micro-benchmark for the sharded batch runner: the
//! multi-day evaluation through the warm `BatchRunner` vs the
//! per-(day, method) `ParallelRunner` fan-out vs the sequential baseline,
//! plus the cost of a warm in-place problem refill vs a cold preparation.
//!
//! The correctness guard (batch rows == parallel rows == sequential rows)
//! runs before any timing, so the timing comparison can never silently
//! compare different computations.

use criterion::{criterion_group, criterion_main, Criterion};
use datagen::{generate, stock_config};
use evaluation::{evaluate_days_sequential, same_results, BatchRunner, ParallelRunner};
use fusion::kernels::{self, Backend};
use fusion::{FusionProblem, ProblemBuilder};

fn bench_batch_vs_parallel(c: &mut Criterion) {
    let stock = generate(&stock_config(2012).scaled(0.02, 0.2));
    let day_indices: Vec<usize> = (0..stock.collection.num_days()).collect();

    // Correctness guard first: all three runners must agree bit-identically.
    let sequential = evaluate_days_sequential(&stock.collection, &day_indices, false);
    let parallel = ParallelRunner::new().evaluate_days(&stock.collection, &day_indices);
    let batch = BatchRunner::new().evaluate_days(&stock.collection, &day_indices);
    for ((s, p), b) in sequential.iter().zip(&parallel.days).zip(&batch.days) {
        assert!(
            same_results(&s.rows, &p.rows) && same_results(&s.rows, &b.rows),
            "runners diverged on day {} of the guard collection",
            s.day
        );
    }

    let mut group = c.benchmark_group("batch_vs_parallel");
    group.bench_function("sequential_multi_day", |b| {
        b.iter(|| evaluate_days_sequential(&stock.collection, &day_indices, false))
    });
    group.bench_function("parallel_multi_day", |b| {
        let runner = ParallelRunner::new();
        b.iter(|| runner.evaluate_days(&stock.collection, &day_indices))
    });
    group.bench_function("batch_multi_day", |b| {
        let runner = BatchRunner::new();
        b.iter(|| runner.evaluate_days(&stock.collection, &day_indices))
    });
    // End-to-end kernel comparison: the same batch evaluation with the
    // dispatched SIMD kernels vs the scalar fallback pinned — the
    // whole-pipeline view of the ISSUE-6 keep/drop gate (`vote_plane` has
    // the per-kernel view).
    let dispatched = kernels::backend();
    group.bench_function(
        format!("batch_multi_day/kernel_{}", kernels::backend_name()),
        |b| {
            kernels::force_backend(dispatched);
            let runner = BatchRunner::new();
            b.iter(|| runner.evaluate_days(&stock.collection, &day_indices))
        },
    );
    group.bench_function("batch_multi_day/kernel_scalar", |b| {
        kernels::force_backend(Backend::Scalar);
        let runner = BatchRunner::new();
        b.iter(|| runner.evaluate_days(&stock.collection, &day_indices));
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
    targets = bench_batch_vs_parallel, bench_builder_refill
}
criterion_main!(benches);
