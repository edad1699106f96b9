//! Criterion micro-benchmarks of the fusion methods (the cost side of
//! Figure 12): per-method end-to-end fusion time on a reduced Stock and
//! Flight snapshot, the cost of problem preparation, and the sequential
//! vs. parallel evaluation-runner guard.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datagen::{flight_config, generate, stock_config};
use evaluation::{evaluate_days, evaluate_prepared_sequential, prepare_contexts, same_results};
use fusion::{all_methods, FusionOptions, FusionProblem};

fn bench_methods(c: &mut Criterion) {
    let stock = generate(&stock_config(2012).scaled(0.03, 0.1));
    let flight = generate(&flight_config(2012).scaled(0.03, 0.1));
    let stock_problem = FusionProblem::from_snapshot(stock.reference_snapshot());
    let flight_problem = FusionProblem::from_snapshot(flight.reference_snapshot());
    let options = FusionOptions::standard();

    let mut group = c.benchmark_group("fusion_methods");
    for (domain, problem) in [("stock", &stock_problem), ("flight", &flight_problem)] {
        for (_, method) in all_methods() {
            group.bench_with_input(
                BenchmarkId::new(method.name(), domain),
                problem,
                |b, problem| b.iter(|| method.run(problem, &options)),
            );
        }
    }
    group.finish();
}

fn bench_preparation(c: &mut Criterion) {
    let stock = generate(&stock_config(2012).scaled(0.03, 0.1));
    c.bench_function("problem_preparation_stock", |b| {
        b.iter(|| FusionProblem::from_snapshot(stock.reference_snapshot()))
    });
}

/// Guard: the (day, method) fan-out must produce the same rows as the
/// sequential reference on the same seeded snapshot — and this bench shows
/// what the fan-out buys in wall-clock on a one-day selection. Both passes
/// prepare the day and evaluate all sixteen methods with and without
/// sampled trust.
fn bench_runners(c: &mut Criterion) {
    let stock = generate(&stock_config(2012).scaled(0.03, 0.1));
    let reference = [stock.collection.reference_day_index()];
    let sequential_pass =
        || evaluate_prepared_sequential(&prepare_contexts(&stock.collection, &reference, false));

    // Correctness guard first: a timing comparison of two runners is only
    // meaningful if they compute the same thing.
    let sequential = sequential_pass();
    let parallel = evaluate_days(&stock.collection, &reference, false);
    assert!(
        same_results(&sequential[0].rows, &parallel.days[0].rows),
        "fan-out diverged from the sequential reference on the guard snapshot"
    );

    let mut group = c.benchmark_group("evaluation_runner");
    group.bench_function("sequential_16_methods", |b| b.iter(sequential_pass));
    group.bench_function("parallel_16_methods", |b| {
        b.iter(|| evaluate_days(&stock.collection, &reference, false))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(std::time::Duration::from_millis(500)).measurement_time(std::time::Duration::from_secs(2));
    targets = bench_methods, bench_preparation, bench_runners
}
criterion_main!(benches);
