//! `batch_stock`: the paper's Table-7 / Figure-12 evaluation job.
//!
//! One job fuses every day of a generated Stock collection with all sixteen
//! methods, once without and once with sampled trust, and scores each run
//! against the day's gold standard. Jobs cycle through [`WORLDS`]
//! collections. Days are handed to [`WORKERS`] (at most [`crate::threads`])
//! workers from a shared counter; each worker keeps one
//! warm [`ProblemBuilder`] and [`FusionScratch`] across days and jobs. The
//! benchmark calls the layers' public functions itself, so its shape does
//! not depend on any of the repository's runners.

use crate::check::{same_bits, Checks};
use crate::stats::Distribution;
use crate::trace::{self, Recorder, Span};
use crate::{cpu, repeated_setup, threads, world_seed, Args, Outcome, WORLDS};
use datagen::{generate, stock_config};
use datamodel::CollectionDay;
use evaluation::{precision_recall, sampled_trust};
use fusion::{
    all_methods, FusionMethod, FusionOptions, FusionProblem, FusionResult, FusionScratch,
    ProblemBuilder,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Stock objects relative to the paper's 1000: 60 objects, 960 items a day.
pub const OBJECT_SCALE: f64 = 0.06;
/// Stock days relative to the paper's 21: 5 days.
pub const DAY_SCALE: f64 = 0.25;
/// Workers the days are handed to. The machine these sizes were chosen on
/// has two vCPUs sharing one core: with two busy workers, job walls moved
/// by up to a third between runs of the same input, with one by ~5%.
pub const WORKERS: usize = 1;
/// Trust given to sources without a gold-covered claim (the value the
/// repository's evaluation runners use).
const TRUST_FALLBACK: f64 = 0.8;

/// One method's two runs on one day.
struct MethodRun {
    plain: FusionResult,
    trusted: FusionResult,
    precision: f64,
    precision_trust: f64,
}

/// One day's rows, when they were complete relative to the job start, and
/// the worker's CPU time spent on them.
struct DayRun {
    day: usize,
    done: Duration,
    cpu: Duration,
    methods: Vec<MethodRun>,
}

struct Job {
    wall: Duration,
    days: Vec<DayRun>,
    busy: Vec<Duration>,
}

/// A worker's warm state, kept across days and jobs.
struct Worker {
    builder: ProblemBuilder,
    scratch: FusionScratch,
    rec: Recorder,
}

impl Worker {
    /// Take days from `next` until none are left; return their rows and the
    /// time this worker was busy.
    fn work(
        &mut self,
        next: &AtomicUsize,
        days: &[&CollectionDay],
        methods: &[Box<dyn FusionMethod>],
        started: Instant,
        job: u32,
    ) -> (Vec<DayRun>, Duration) {
        let Worker {
            builder,
            scratch,
            rec,
        } = self;
        let began = Instant::now();
        let worker_span = rec.open(0, "bench", "worker", job);
        let mut out = Vec::new();
        loop {
            let d = next.fetch_add(1, Ordering::Relaxed);
            let Some(day) = days.get(d) else { break };
            let tag = d as u32;
            let cpu_before = cpu::thread();
            let day_span = rec.open(worker_span.id(), "bench", "day", tag);
            let parent = day_span.id();

            let open = rec.open(parent, "fusion.problem", "prepare", tag);
            let problem = builder.prepare(&day.snapshot);
            rec.close(open);
            let open = rec.open(parent, "evaluation", "sampled_trust", tag);
            let sampled = sampled_trust(&day.snapshot, &day.gold, problem, TRUST_FALLBACK);
            rec.close(open);

            let standard = FusionOptions::standard();
            let with_trust = FusionOptions::standard().with_input_trust(sampled);
            let mut runs = Vec::with_capacity(methods.len());
            for (m, method) in methods.iter().enumerate() {
                let m = m as u32;
                let open = rec.open(parent, "fusion.methods", "run", m);
                let plain = method.run_with_scratch(problem, &standard, scratch);
                rec.close(open);
                let open = rec.open(parent, "evaluation", "precision_recall", m);
                let precision = precision_recall(&day.snapshot, &day.gold, &plain).precision;
                rec.close(open);
                let open = rec.open(parent, "fusion.methods", "run_trust", m);
                let trusted = method.run_with_scratch(problem, &with_trust, scratch);
                rec.close(open);
                let open = rec.open(parent, "evaluation", "precision_recall", m);
                let precision_trust =
                    precision_recall(&day.snapshot, &day.gold, &trusted).precision;
                rec.close(open);
                runs.push(MethodRun {
                    plain,
                    trusted,
                    precision,
                    precision_trust,
                });
            }
            rec.close(day_span);
            out.push(DayRun {
                day: d,
                done: started.elapsed(),
                cpu: cpu::thread() - cpu_before,
                methods: runs,
            });
        }
        rec.close(worker_span);
        (out, began.elapsed())
    }
}

fn run_job(
    workers: &mut [Worker],
    days: &[&CollectionDay],
    methods: &[Box<dyn FusionMethod>],
    job: u32,
) -> Job {
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let per_worker: Vec<(Vec<DayRun>, Duration)> = std::thread::scope(|s| {
        let handles: Vec<_> = workers
            .iter_mut()
            .map(|w| s.spawn(|| w.work(&next, days, methods, started, job)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("batch worker panicked"))
            .collect()
    });
    let wall = started.elapsed();
    let mut out = Job {
        wall,
        days: Vec::new(),
        busy: Vec::new(),
    };
    for (rows, busy) in per_worker {
        out.days.extend(rows);
        out.busy.push(busy);
    }
    out.days.sort_by_key(|d| d.day);
    out
}

/// Cold reference results per day and method: a fresh
/// `FusionProblem::from_snapshot` and `FusionMethod::run`, without and with
/// sampled trust. Computed before the measured window.
fn reference(
    days: &[&CollectionDay],
    methods: &[Box<dyn FusionMethod>],
) -> Vec<Vec<(FusionResult, FusionResult)>> {
    let next = AtomicUsize::new(0);
    let mut out: Vec<(usize, Vec<(FusionResult, FusionResult)>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads().min(days.len()))
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let d = next.fetch_add(1, Ordering::Relaxed);
                        let Some(day) = days.get(d) else { break mine };
                        let problem = FusionProblem::from_snapshot(&day.snapshot);
                        let sampled =
                            sampled_trust(&day.snapshot, &day.gold, &problem, TRUST_FALLBACK);
                        let with_trust = FusionOptions::standard().with_input_trust(sampled);
                        let rows = methods
                            .iter()
                            .map(|m| {
                                (
                                    m.run(&problem, &FusionOptions::standard()),
                                    m.run(&problem, &with_trust),
                                )
                            })
                            .collect();
                        mine.push((d, rows));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference worker panicked"))
            .collect()
    });
    out.sort_by_key(|(d, _)| *d);
    out.into_iter().map(|(_, rows)| rows).collect()
}

fn check_job(
    checks: &mut Checks,
    job: &Job,
    reference: &[Vec<(FusionResult, FusionResult)>],
    methods: &[Box<dyn FusionMethod>],
) {
    checks.check(job.days.len() == reference.len(), || {
        format!(
            "job evaluated {} of {} days",
            job.days.len(),
            reference.len()
        )
    });
    for day in &job.days {
        for ((run, (plain, trusted)), method) in
            day.methods.iter().zip(&reference[day.day]).zip(methods)
        {
            checks.check(same_bits(&run.plain, plain), || {
                format!(
                    "day {} {}: differs from the cold reference without trust",
                    day.day,
                    method.name()
                )
            });
            checks.check(same_bits(&run.trusted, trusted), || {
                format!(
                    "day {} {}: differs from the cold reference with sampled trust",
                    day.day,
                    method.name()
                )
            });
        }
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    sum / n.max(1) as f64
}

/// One generated collection with its cold reference results.
struct World {
    days: Vec<CollectionDay>,
    reference: Vec<Vec<(FusionResult, FusionResult)>>,
}

/// Run `batch_stock`.
pub fn run(args: &Args) -> Outcome {
    let (collections, setup_s) = repeated_setup(|| {
        (0..WORLDS)
            .map(|i| {
                generate(&stock_config(world_seed(args.seed, i)).scaled(OBJECT_SCALE, DAY_SCALE))
                    .collection
            })
            .collect::<Vec<_>>()
    });
    let methods: Vec<Box<dyn FusionMethod>> = all_methods().into_iter().map(|(_, m)| m).collect();
    let worlds: Vec<World> = collections
        .into_iter()
        .map(|c| {
            let days: Vec<CollectionDay> = c.days().cloned().collect();
            let reference = reference(&days.iter().collect::<Vec<_>>(), &methods);
            World { days, reference }
        })
        .collect();

    let epoch = Instant::now();
    let mut workers: Vec<Worker> = (0..WORKERS)
        .map(|i| Worker {
            builder: ProblemBuilder::new(),
            scratch: FusionScratch::new(),
            rec: Recorder::new(epoch, i as u16 + 1, false),
        })
        .collect();
    let mut checks = Checks::default();
    let (mut day_cpu_ms, mut visible_ms) = (Vec::new(), Vec::new());
    let (mut traced_walls, mut untraced_walls) = (Vec::new(), Vec::new());
    let mut traced_busy = Duration::ZERO;
    let mut last_jobs: Vec<Option<Job>> = (0..WORLDS).map(|_| None).collect();
    let window_start = Instant::now();
    let mut job_index = 0u64;
    // Jobs cycle through the worlds and the window closes only after whole
    // cycles, so every world weighs the same. A traced run alternates
    // traced and untraced cycles, so the tracing overhead is measured on
    // the same work in the same process.
    while window_start.elapsed() < args.window()
        || !job_index.is_multiple_of(WORLDS)
        || untraced_walls.is_empty()
    {
        let world = (job_index % WORLDS) as usize;
        let traced = args.trace && (job_index / WORLDS).is_multiple_of(2);
        for w in &mut workers {
            w.rec.set_enabled(traced);
        }
        let days: Vec<&CollectionDay> = worlds[world].days.iter().collect();
        let job = run_job(&mut workers, &days, &methods, job_index as u32);
        check_job(&mut checks, &job, &worlds[world].reference, &methods);
        day_cpu_ms.extend(job.days.iter().map(|d| d.cpu.as_secs_f64() * 1e3));
        visible_ms.extend(job.days.iter().map(|d| d.done.as_secs_f64() * 1e3));
        if traced {
            traced_walls.push(job.wall.as_secs_f64());
            traced_busy += job.busy.iter().sum::<Duration>();
        } else {
            untraced_walls.push(job.wall.as_secs_f64());
        }
        last_jobs[world] = Some(job);
        job_index += 1;
    }
    let last: Vec<Job> = last_jobs
        .into_iter()
        .map(|j| j.expect("every world ran"))
        .collect();
    let spans: Vec<Span> = workers.iter_mut().flat_map(|w| w.rec.take()).collect();

    let mut out = Outcome {
        checks,
        spans,
        ..Outcome::default()
    };
    let v = &mut out.values;
    let all_runs = || {
        last.iter()
            .flat_map(|j| j.days.iter())
            .flat_map(|d| d.methods.iter())
    };
    v.insert("setup_s".into(), setup_s);
    let day_cpu = Distribution::new(day_cpu_ms);
    v.insert("day_cpu_ms_p50".into(), day_cpu.median());
    v.insert("day_cpu_ms_p90".into(), day_cpu.percentile(90.0));
    let visible = Distribution::new(visible_ms);
    v.insert("bench.visible_ms_p50".into(), visible.median());
    v.insert("bench.visible_ms_p90".into(), visible.percentile(90.0));
    v.insert(
        "precision_mean".into(),
        mean(all_runs().map(|r| r.precision)),
    );
    v.insert(
        "evaluation.precision_trust_mean".into(),
        mean(all_runs().map(|r| r.precision_trust)),
    );
    for (m, method) in methods.iter().enumerate() {
        let rounds: usize = last
            .iter()
            .flat_map(|j| j.days.iter())
            .map(|d| d.methods[m].plain.rounds + d.methods[m].trusted.rounds)
            .sum();
        v.insert(
            format!("fusion.methods.{}.rounds", method.name()),
            rounds as f64 / WORLDS as f64,
        );
    }
    let walls = Distribution::new(untraced_walls);
    out.notes.push(format!(
        "{WORLDS} worlds of {} days x {} methods x 2 runs; {job_index} jobs on {WORKERS} worker(s)",
        worlds[0].days.len(),
        methods.len(),
    ));
    out.notes.push(format!(
        "day_cpu_ms (worker CPU time for a day's rows): {}",
        day_cpu.describe("ms", 90.0)
    ));
    out.notes.push(format!(
        "visible_ms (wall time from job start to a day's rows): {}",
        visible.describe("ms", 90.0)
    ));
    out.notes.push(format!(
        "batch_wall_s (untraced jobs): {}",
        walls.describe("s", 90.0)
    ));

    if args.trace {
        let jobs = traced_walls.len() as f64;
        let per_job = |d: Duration| d.as_secs_f64() / jobs;
        let spans = &out.spans;
        let (run, _) = trace::total(spans, "fusion.methods", "run");
        let (trust_run, _) = trace::total(spans, "fusion.methods", "run_trust");
        let (prepare, prepare_calls) = trace::total(spans, "fusion.problem", "prepare");
        let (sampled, _) = trace::total(spans, "evaluation", "sampled_trust");
        let (scoring, _) = trace::total(spans, "evaluation", "precision_recall");
        v.insert("fusion.methods.run_s".into(), per_job(run));
        v.insert("fusion.methods.trust_run_s".into(), per_job(trust_run));
        for (m, method) in methods.iter().enumerate() {
            let time: Duration = spans
                .iter()
                .filter(|s| s.layer == "fusion.methods" && s.tag == m as u32)
                .map(Span::duration)
                .sum();
            v.insert(
                format!("fusion.methods.{}.run_s", method.name()),
                per_job(time),
            );
        }
        v.insert("fusion.problem.prepare_s".into(), per_job(prepare));
        v.insert(
            "fusion.problem.prepare_calls".into(),
            prepare_calls as f64 / jobs,
        );
        v.insert("evaluation.sampled_trust_s".into(), per_job(sampled));
        v.insert("evaluation.precision_recall_s".into(), per_job(scoring));
        let self_time = trace::self_time_by_layer(spans);
        let wall: f64 = traced_walls.iter().sum::<f64>() / jobs;
        let busy = per_job(traced_busy);
        v.insert(
            "bench.self_s".into(),
            per_job(self_time.get("bench").copied().unwrap_or_default()),
        );
        v.insert("bench.wall_s".into(), wall);
        v.insert("bench.busy_s".into(), busy);
        v.insert(
            "bench.worker_idle_s".into(),
            wall * workers.len() as f64 - busy,
        );
        v.insert("bench.workers".into(), workers.len() as f64);
        v.insert("bench.units".into(), jobs);
        let overhead = Distribution::new(traced_walls).median() / walls.median() - 1.0;
        v.insert("bench.trace_overhead_frac".into(), overhead);
        let layers: f64 = self_time.values().map(Duration::as_secs_f64).sum::<f64>() / jobs;
        out.notes.push(format!(
            "per traced job: workers x wall = {:.4} s; busy {busy:.4} s (layer self times {layers:.4} s) + idle {:.4} s",
            wall * workers.len() as f64,
            wall * workers.len() as f64 - busy
        ));
        out.notes.push(format!(
            "tracing overhead (median traced / untraced job wall - 1): {overhead:+.4}"
        ));
    }
    out
}
