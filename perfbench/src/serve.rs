//! `serve_stock` and `ingest_flight`: the online [`FusionService`] under an
//! open-loop day feed and an open-loop reader.
//!
//! The process serves [`WORLDS`] tenants, each a [`FusionService`] over its
//! own generated world. Set-up turns every tenant's days into operation
//! batches, bulk-loads each tenant's day 0 and seals it cold. In the
//! measured window a producer (this thread) sends batch `k`, closed by its
//! `SealDay`, at `start + (k - 1) * day_period` whatever the services are
//! doing; batches go to the tenants in turn. One ingest thread owns the
//! services and applies batches in arrival order; one reader thread calls
//! [`service::ServiceReader::answer`] on a random tenant every
//! `READ_PERIOD`. A day is visible when `apply(SealDay)` returns `Sealed`,
//! which is when the new state is published. The ingest thread's CPU time
//! from taking a batch to its publication is the day's CPU cost.

use crate::check::{outcome_matches, same_trust, Checks, Expected};
use crate::sched::{self, OpenLoop, Slot};
use crate::stats::Distribution;
use crate::trace::{self, Recorder, Span};
use crate::{cpu, repeated_setup, world_seed, Args, Outcome, WORLDS};
use datagen::{flight_config, generate, mutation_stream, stock_config};
use datamodel::{GoldStandard, ItemId, Snapshot, SnapshotBuilder, ToleranceContext};
use fusion::{method_by_name, FusionOptions, FusionProblem};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use service::{
    day_ops, diff_ops, shuffle, ApplyOutcome, FusionService, Operation, SealReport, ServiceConfig,
    ServiceReader, ServiceStats,
};
use std::collections::{BTreeSet, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// One service workload's shape.
#[derive(Debug)]
pub struct ServeSpec {
    /// Methods the service materializes; `None` keeps the default (all
    /// sixteen).
    pub methods: Option<&'static [&'static str]>,
    /// Builds the day feed from the seed for a given number of timed days.
    pub feed: fn(u64, usize) -> Feed,
    /// Interval between day batches.
    pub day_period: Duration,
}

/// All sixteen methods in exact delta mode, over planted 5%-dirty days of a
/// Stock world: fusion dominates every seal.
pub const SERVE_STOCK: ServeSpec = ServeSpec {
    methods: None,
    feed: stock_feed,
    day_period: Duration::from_millis(250),
};

/// Vote only, over the Flight collection's real day-to-day churn with
/// shuffled, partly re-delivered batches: ingest and full re-preparation
/// dominate every day.
pub const INGEST_FLIGHT: ServeSpec = ServeSpec {
    methods: Some(&["Vote"]),
    feed: flight_feed,
    day_period: Duration::from_millis(125),
};

/// Stock objects relative to the paper's 1000 for `serve_stock`: 40 objects,
/// 640 items.
const STOCK_OBJECT_SCALE: f64 = 0.04;
/// Share of items `mutation_stream` changes per `serve_stock` day.
const STOCK_DIRTY_FRACTION: f64 = 0.05;
/// Days generated per `mutation_stream` call, so only one chunk of
/// snapshots is alive at a time.
const STREAM_CHUNK: usize = 8;
/// Flight objects relative to the paper's 1200 for `ingest_flight`.
const FLIGHT_OBJECT_SCALE: f64 = 0.25;
/// Flight days relative to the paper's 31; the feed cycles through them.
const FLIGHT_DAY_SCALE: f64 = 0.25;
/// Re-delivered copies per fresh operation in an `ingest_flight` batch.
const REDELIVERY_FRACTION: f64 = 0.25;
/// Interval between reads, the same for both service workloads.
const READ_PERIOD: Duration = Duration::from_micros(500);
/// Distinct reads the reader cycles through.
const QUERIES: usize = 4096;
/// Delay between the end of set-up and the first scheduled day, so every
/// thread is running when the schedule starts.
const LEAD: Duration = Duration::from_millis(20);

/// One day's operations with the outcome each must get; sequence numbers
/// are relative to the day's base.
#[derive(Debug, Clone, Default)]
pub struct Template {
    ops: Vec<(Operation, Expected)>,
}

impl Template {
    /// Every operation fresh, in the given order.
    pub fn fresh(ops: Vec<Operation>) -> Self {
        Self {
            ops: ops.into_iter().map(|op| (op, Expected::Applied)).collect(),
        }
    }

    /// `ops` plus a re-delivered copy of `fraction` of them, all shuffled
    /// with `seed`. Whichever copy arrives first must be applied, the other
    /// dropped as a duplicate.
    pub fn with_redeliveries(ops: Vec<Operation>, fraction: f64, seed: u64) -> Self {
        let mut picks: Vec<usize> = (0..ops.len()).collect();
        shuffle(&mut picks, seed);
        picks.truncate((ops.len() as f64 * fraction).round() as usize);
        let mut all: Vec<Operation> = picks.iter().map(|&i| ops[i].clone()).collect();
        all.extend(ops);
        shuffle(&mut all, seed ^ 0x5eed);
        let mut seen = HashSet::with_capacity(all.len());
        let ops = all
            .into_iter()
            .map(|op| {
                let expected = if seen.insert(op.seq) {
                    Expected::Applied
                } else {
                    Expected::Duplicate
                };
                (op, expected)
            })
            .collect();
        Self { ops }
    }

    /// Operations in the template.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the day changes nothing.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// A service workload's inputs.
#[derive(Debug)]
pub struct Feed {
    /// Bulk-loaded and sealed cold during set-up.
    pub day0: Snapshot,
    /// Timed day `k` (from 1) applies `templates[(k - 1) % len]`.
    pub templates: Vec<Template>,
    /// The claims the ledger holds after the last timed day.
    pub final_day: Snapshot,
    /// Gold standard of the last timed day.
    pub final_gold: GoldStandard,
    /// Items every sealed day serves.
    pub items: Vec<ItemId>,
}

/// `serve_stock`'s feed: a one-day Stock world, then `days` planted
/// 5%-dirty successors.
pub fn stock_feed(seed: u64, days: usize) -> Feed {
    let domain = generate(&stock_config(seed).scaled(STOCK_OBJECT_SCALE, 0.05));
    let day = domain.collection.reference_day();
    let mut templates = Vec::with_capacity(days);
    let mut last = day.snapshot.clone();
    while templates.len() < days {
        let chunk = STREAM_CHUNK.min(days - templates.len());
        let chunk_seed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ templates.len() as u64;
        let mut stream = mutation_stream(&last, chunk, STOCK_DIRTY_FRACTION, chunk_seed);
        templates.extend(
            stream
                .days
                .windows(2)
                .map(|w| Template::fresh(diff_ops(&w[0], &w[1], 0))),
        );
        last = stream.days.pop().expect("a stream holds its base");
    }
    Feed {
        items: day.snapshot.item_ids().collect(),
        day0: day.snapshot.clone(),
        templates,
        final_day: last,
        final_gold: day.gold.clone(),
    }
}

/// `ingest_flight`'s feed: a Flight collection whose consecutive days (and
/// the last back to the first) become shuffled batches with re-deliveries.
pub fn flight_feed(seed: u64, days: usize) -> Feed {
    let domain = generate(&flight_config(seed).scaled(FLIGHT_OBJECT_SCALE, FLIGHT_DAY_SCALE));
    let c = &domain.collection;
    let cycle = c.num_days();
    let templates = (0..cycle)
        .map(|i| {
            let ops = diff_ops(&c.day(i).snapshot, &c.day((i + 1) % cycle).snapshot, 0);
            Template::with_redeliveries(ops, REDELIVERY_FRACTION, seed ^ i as u64)
        })
        .collect();
    let mut items: BTreeSet<ItemId> = c.day(0).snapshot.item_ids().collect();
    for day in c.days() {
        let present: BTreeSet<ItemId> = day.snapshot.item_ids().collect();
        items.retain(|i| present.contains(i));
    }
    let last = c.day(days % cycle);
    Feed {
        day0: c.day(0).snapshot.clone(),
        templates,
        final_day: last.snapshot.clone(),
        final_gold: last.gold.clone(),
        items: items.into_iter().collect(),
    }
}

/// One tenant's inputs and its sequence-number stride between days.
struct Tenant {
    feed: Feed,
    stride: u64,
}

/// Batch `k` (from 1) goes to tenant `(k - 1) % WORLDS` as that tenant's
/// day `(k - 1) / WORLDS + 1`.
fn route(k: u64) -> (usize, u64) {
    (((k - 1) % WORLDS) as usize, (k - 1) / WORLDS + 1)
}

/// Timed days tenant `t` gets out of `total`.
fn tenant_days(total: u64, t: u64) -> u64 {
    (total + WORLDS - 1 - t) / WORLDS
}

/// Everything set-up builds: the tenants, their services holding sealed
/// day 0, and the configured method names.
struct Prepared {
    tenants: Vec<Tenant>,
    services: Vec<FusionService>,
    methods: Vec<String>,
    checks: Checks,
}

fn prepare(spec: &ServeSpec, seed: u64, days: u64) -> Prepared {
    let config = match spec.methods {
        Some(names) => ServiceConfig {
            methods: names.iter().map(|n| n.to_string()).collect(),
            ..ServiceConfig::default()
        },
        None => ServiceConfig::default(),
    };
    let mut checks = Checks::default();
    let (mut tenants, mut services) = (Vec::new(), Vec::new());
    for t in 0..WORLDS {
        let feed = (spec.feed)(world_seed(seed, t), tenant_days(days, t) as usize);
        let mut service = FusionService::with_config(feed.day0.schema_arc(), config.clone());
        let load = day_ops(&feed.day0, 0);
        let longest = feed.templates.iter().map(Template::len).max().unwrap_or(0);
        let stride = (load.len().max(longest) + 1) as u64;
        for op in load {
            let outcome = service.apply(op);
            checks.check(outcome_matches(Expected::Applied, &outcome), || {
                format!("tenant {t} day 0 load: {outcome:?}")
            });
        }
        let outcome = service.apply(Operation::seal(stride - 1, 0));
        checks.check(outcome_matches(Expected::Sealed, &outcome), || {
            format!("tenant {t} day 0 seal: {outcome:?}")
        });
        tenants.push(Tenant { feed, stride });
        services.push(service);
    }
    Prepared {
        tenants,
        services,
        methods: config.methods,
        checks,
    }
}

/// A tenant's day `d` (from 1): its template shifted to the day's sequence
/// range, then the seal.
fn batch(feed: &Feed, stride: u64, d: u64) -> Vec<(Operation, Expected)> {
    let template = &feed.templates[(d as usize - 1) % feed.templates.len()];
    let base = d * stride;
    let mut out = Vec::with_capacity(template.len() + 1);
    out.extend(template.ops.iter().map(|(op, e)| {
        (
            Operation {
                seq: base + op.seq,
                kind: op.kind.clone(),
            },
            *e,
        )
    }));
    out.push((
        Operation::seal(base + stride - 1, d as u32),
        Expected::Sealed,
    ));
    out
}

/// What the ingest thread measured for one day.
struct DayRecord {
    queue: Duration,
    visible: Duration,
    cpu: Duration,
    ingest: Duration,
    seal: Duration,
    ops: usize,
    report: Option<SealReport>,
}

struct IngestRun {
    services: Vec<FusionService>,
    days: Vec<DayRecord>,
    checks: Checks,
    rec: Recorder,
    idle: Duration,
    end: Instant,
}

/// A batch on its way to the ingest thread: its index, its tenant, and
/// its operations.
type Message = (u64, usize, Vec<(Operation, Expected)>);

/// The ingest thread: apply each batch as it arrives.
fn ingest(
    mut services: Vec<FusionService>,
    rx: mpsc::Receiver<Message>,
    start: Instant,
    period: Duration,
    mut rec: Recorder,
) -> IngestRun {
    let mut days = Vec::new();
    let mut checks = Checks::default();
    let mut idle = Duration::ZERO;
    loop {
        let waiting = Instant::now();
        let Ok((k, tenant, batch)) = rx.recv() else {
            break;
        };
        let service = &mut services[tenant];
        let dequeued = Instant::now();
        let cpu_before = cpu::thread();
        idle += dequeued.saturating_duration_since(waiting.max(start));
        let ops = batch.len() - 1;
        let mut batch = batch.into_iter();
        for (op, expected) in batch.by_ref().take(ops) {
            let outcome = service.apply(op);
            checks.check(outcome_matches(expected, &outcome), || {
                format!("day {k}: expected {expected:?}, got {outcome:?}")
            });
        }
        let ingested = Instant::now();
        let (seal, _) = batch.next().expect("a batch ends with its seal");
        let outcome = service.apply(seal);
        let sealed = Instant::now();
        let cpu = cpu::thread() - cpu_before;

        let due = sched::due(start, period, k - 1);
        let report = match outcome {
            ApplyOutcome::Sealed(report) => Some(report),
            _ => None,
        };
        checks.check(report.is_some(), || {
            format!("day {k}: seal was not applied")
        });
        let day_span = rec.open(0, "bench", "day", k as u32);
        let open = rec.open(day_span.id(), "service", "apply", k as u32);
        rec.record_at(open, dequeued, ingested);
        let seal_span = rec.open(day_span.id(), "service", "apply_seal", k as u32);
        if let Some(r) = &report {
            // The seal's inner split comes from its report; the placement of
            // these two spans inside the seal is nominal, their lengths exact.
            let open = rec.open(seal_span.id(), "fusion.delta", "prepare_delta", k as u32);
            rec.record_at(open, ingested, ingested + r.advance.prepare);
            let open = rec.open(seal_span.id(), "fusion.delta", "run", k as u32);
            rec.record_at(
                open,
                ingested + r.advance.prepare,
                ingested + r.advance.prepare + r.fuse,
            );
        }
        rec.record_at(seal_span, ingested, sealed);
        rec.record_at(day_span, dequeued, sealed);
        days.push(DayRecord {
            queue: dequeued.saturating_duration_since(due),
            visible: sealed.saturating_duration_since(due),
            cpu,
            ingest: ingested - dequeued,
            seal: sealed - ingested,
            ops,
            report,
        });
    }
    IngestRun {
        services,
        days,
        checks,
        rec,
        idle,
        end: Instant::now(),
    }
}

/// The reader thread's result.
struct ReadRun {
    rec: Recorder,
    checks: Checks,
    sched: OpenLoop,
}

/// Every query is for an item its tenant serves on every day, so every
/// read must answer.
fn read(
    readers: &[ServiceReader],
    queries: &[Query],
    methods: &[String],
    stop: &AtomicBool,
    mut sched: OpenLoop,
    mut rec: Recorder,
) -> ReadRun {
    let mut checks = Checks::default();
    while !stop.load(Ordering::Relaxed) {
        match sched.poll(Instant::now()) {
            Slot::Wait(d) => std::thread::sleep(d),
            Slot::Fire { index, .. } => {
                let Query {
                    tenant,
                    method: m,
                    item,
                } = queries[index as usize % queries.len()];
                let open = rec.open(0, "service", "answer", m as u32);
                let answer = readers[tenant].answer(&methods[m], item);
                rec.close(open);
                checks.check(
                    answer.is_some_and(|a| a.item == item && !a.sources.is_empty()),
                    || {
                        format!(
                            "read {index}: tenant {tenant} {} {item:?} did not answer",
                            methods[m]
                        )
                    },
                );
            }
        }
    }
    ReadRun { rec, checks, sched }
}

/// The service's pinned tolerance: what it computes when sealing day 0.
fn pinned_tolerance(day0: &Snapshot) -> ToleranceContext {
    ledger(day0)
        .materialize(day0.schema_arc(), None, &BTreeSet::new())
        .tolerance()
        .clone()
}

fn ledger(snapshot: &Snapshot) -> SnapshotBuilder {
    let mut b = SnapshotBuilder::new(snapshot.day());
    for (item, obs) in snapshot.items() {
        for o in obs {
            b.add(o.source, item.object, item.attr, o.value.clone());
        }
    }
    b
}

/// Compare the final published state with a cold batch run of every
/// configured method on the same claims, and measure the served answers'
/// precision against the day's gold standard.
fn final_check(
    checks: &mut Checks,
    service: &FusionService,
    feed: &Feed,
    methods: &[String],
    day: u64,
) -> f64 {
    let state = service.reader().state();
    checks.check(state.day() == Some(day as u32), || {
        format!("final state serves day {:?}, not {day}", state.day())
    });
    let tolerance = pinned_tolerance(&feed.day0);
    let sealed = ledger(&feed.final_day).materialize(
        feed.day0.schema_arc(),
        Some(&tolerance),
        &BTreeSet::new(),
    );
    let problem = FusionProblem::from_snapshot(&sealed);
    let mut precision = 0.0;
    for name in methods {
        let cold = method_by_name(name)
            .expect("configured methods are registered")
            .run(&problem, &FusionOptions::standard());
        let selection: Vec<u32> = cold.selection.iter().map(|&s| s as u32).collect();
        let same = state.selection(name) == Some(selection.as_slice())
            && state
                .trust_vector(name)
                .is_some_and(|t| same_trust(t, &cold.trust.overall));
        checks.check(same, || {
            format!("{name}: final served day differs from the cold batch run")
        });

        let (mut judged, mut correct) = (0usize, 0usize);
        for (item, truth) in feed.final_gold.iter() {
            if let Some(answer) = state.answer(name, *item) {
                judged += 1;
                let tol = sealed.tolerance().tolerance(item.attr);
                correct +=
                    usize::from(truth.matches(&answer.value, tol) || answer.value.subsumes(truth));
            }
        }
        precision += correct as f64 / judged.max(1) as f64;
    }
    precision / methods.len() as f64
}

/// One read: which tenant, method and item.
#[derive(Debug, Clone, Copy)]
struct Query {
    tenant: usize,
    method: usize,
    item: ItemId,
}

fn queries(seed: u64, tenants: &[Tenant], methods: usize) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0ead_cafe);
    (0..QUERIES)
        .map(|_| {
            let tenant = rng.gen_range(0..tenants.len());
            let items = &tenants[tenant].feed.items;
            assert!(
                !items.is_empty(),
                "tenant {tenant} serves no item on every day"
            );
            Query {
                tenant,
                method: rng.gen_range(0..methods),
                item: items[rng.gen_range(0..items.len())],
            }
        })
        .collect()
}

/// Median of each tenant's samples, given every sample in batch order
/// (batch `k` goes to tenant `(k - 1) % WORLDS`).
fn per_world_medians(samples: impl Iterator<Item = f64>) -> String {
    let mut by_world = vec![Vec::new(); WORLDS as usize];
    for (i, sample) in samples.enumerate() {
        by_world[i % WORLDS as usize].push(sample);
    }
    let medians: Vec<String> = by_world
        .into_iter()
        .map(|w| format!("{:.2}", Distribution::new(w).median()))
        .collect();
    medians.join(", ")
}

fn stats_delta(after: &ServiceStats, before: &ServiceStats) -> [(&'static str, usize); 4] {
    [
        (
            "service.ops_applied",
            after.ops_applied - before.ops_applied,
        ),
        (
            "service.ops_duplicate",
            after.ops_duplicate - before.ops_duplicate,
        ),
        ("service.ops_stale", after.ops_stale - before.ops_stale),
        (
            "service.ops_rejected",
            after.ops_rejected - before.ops_rejected,
        ),
    ]
}

/// Run one service workload.
pub fn run(args: &Args, spec: &ServeSpec) -> Outcome {
    let days = (args.window().as_nanos() / spec.day_period.as_nanos()).max(1) as u64;
    let (prepared, setup_s) = repeated_setup(|| prepare(spec, args.seed, days));
    let Prepared {
        tenants,
        services,
        methods,
        mut checks,
    } = prepared;
    let queries = queries(args.seed, &tenants, methods.len());
    let before: Vec<ServiceStats> = services.iter().map(FusionService::stats).collect();
    let readers: Vec<ServiceReader> = services.iter().map(FusionService::reader).collect();
    let stop = AtomicBool::new(false);
    let epoch = Instant::now();
    let start = epoch + LEAD;
    let (tx, rx) = mpsc::channel::<Message>();
    let mut producer_late = Duration::ZERO;

    let (ingested, read) = std::thread::scope(|s| {
        let ingest_rec = Recorder::new(epoch, 1, args.trace);
        let ingest = s.spawn(move || ingest(services, rx, start, spec.day_period, ingest_rec));
        let read_rec = Recorder::new(epoch, 2, args.trace);
        let reading = s.spawn(|| {
            read(
                &readers,
                &queries,
                &methods,
                &stop,
                OpenLoop::new(start, READ_PERIOD),
                read_rec,
            )
        });
        for k in 1..=days {
            let (tenant, day) = route(k);
            let next = batch(&tenants[tenant].feed, tenants[tenant].stride, day);
            let due = sched::due(start, spec.day_period, k - 1);
            sched::sleep_until(due);
            producer_late = producer_late.max(Instant::now().saturating_duration_since(due));
            tx.send((k, tenant, next)).expect("ingest thread alive");
        }
        drop(tx);
        let ingested = ingest.join().expect("ingest thread panicked");
        stop.store(true, Ordering::Relaxed);
        let read = reading.join().expect("reader thread panicked");
        (ingested, read)
    });

    let IngestRun {
        services,
        days: records,
        checks: ingest_checks,
        mut rec,
        idle,
        end,
    } = ingested;
    checks.merge(ingest_checks);
    let ReadRun {
        rec: mut read_rec,
        checks: read_checks,
        sched: read_sched,
    } = read;
    checks.merge(read_checks);
    checks.check(records.len() as u64 == days, || {
        format!("{} of {days} days ingested", records.len())
    });
    let mut precision = 0.0;
    for (t, (tenant, service)) in tenants.iter().zip(&services).enumerate() {
        precision += final_check(
            &mut checks,
            service,
            &tenant.feed,
            &methods,
            tenant_days(days, t as u64),
        );
    }
    let precision = precision / tenants.len() as f64;

    let mut spans = rec.take();
    spans.extend(read_rec.take());
    let secs = |d: Duration| d.as_secs_f64();
    let sum = |f: fn(&DayRecord) -> Duration| records.iter().map(f).sum::<Duration>();
    let reports = || records.iter().filter_map(|r| r.report.as_ref());
    let day_cpu = Distribution::new(records.iter().map(|r| secs(r.cpu) * 1e3).collect());
    let visible = Distribution::new(records.iter().map(|r| secs(r.visible) * 1e3).collect());
    let queue = Distribution::new(records.iter().map(|r| secs(r.queue) * 1e3).collect());
    let reads: Vec<&Span> = spans.iter().filter(|s| s.call == "answer").collect();
    let read_us = Distribution::new(reads.iter().map(|s| secs(s.duration()) * 1e6).collect());
    let (ingest_s, seal_s) = (sum(|r| r.ingest), sum(|r| r.seal));
    let prepare_s: Duration = reports().map(|r| r.advance.prepare).sum();
    let fuse_s: Duration = reports().map(|r| r.fuse).sum();
    let wall = end.saturating_duration_since(start);
    let ops: usize = records.iter().map(|r| r.ops).sum();

    let mut out = Outcome {
        checks,
        ..Outcome::default()
    };
    let v = &mut out.values;
    v.insert("setup_s".into(), setup_s);
    v.insert("day_cpu_ms_p50".into(), day_cpu.median());
    v.insert("day_cpu_ms_p90".into(), day_cpu.percentile(90.0));
    v.insert("bench.visible_ms_p50".into(), visible.median());
    v.insert("bench.visible_ms_p90".into(), visible.percentile(90.0));
    v.insert("precision_mean".into(), precision);
    v.insert("fusion.delta.prepare_s".into(), secs(prepare_s));
    v.insert("fusion.delta.run_s".into(), secs(fuse_s));
    v.insert(
        "fusion.delta.full_refreshes".into(),
        reports().filter(|r| r.advance.full_refresh).count() as f64,
    );
    let dirty: Vec<f64> = reports().map(|r| r.advance.dirty_fraction).collect();
    v.insert(
        "fusion.delta.dirty_fraction_mean".into(),
        dirty.iter().sum::<f64>() / dirty.len().max(1) as f64,
    );
    v.insert("service.ingest_s".into(), secs(ingest_s));
    v.insert(
        "service.ingest_ops_per_s".into(),
        ops as f64 / secs(ingest_s).max(f64::MIN_POSITIVE),
    );
    for (service, before) in services.iter().zip(&before) {
        for (name, count) in stats_delta(&service.stats(), before) {
            *v.entry(name.into()).or_default() += count as f64;
        }
    }
    v.insert("service.seals".into(), reports().count() as f64);
    v.insert("service.seal_s".into(), secs(seal_s));
    v.insert(
        "service.seal_other_s".into(),
        secs(seal_s) - secs(prepare_s) - secs(fuse_s),
    );
    v.insert("service.queue_ms_p50".into(), queue.median());
    v.insert("service.idle_s".into(), secs(idle));
    v.insert("service.read_calls".into(), read_sched.fired() as f64);
    v.insert("service.read_busy_s".into(), read_us.sum() / 1e6);
    v.insert("service.read_us_p50".into(), read_us.median());
    v.insert("service.read_us_p99".into(), read_us.percentile(99.0));
    v.insert("bench.wall_s".into(), secs(wall));
    v.insert("bench.busy_s".into(), secs(ingest_s + seal_s));
    v.insert(
        "bench.self_s".into(),
        secs(wall) - secs(ingest_s + seal_s) - secs(idle),
    );
    v.insert("bench.workers".into(), 1.0);
    v.insert("bench.units".into(), records.len() as f64);
    v.insert(
        "bench.producer_late_ms_max".into(),
        secs(producer_late) * 1e3,
    );
    v.insert(
        "bench.reader_late_ms_max".into(),
        secs(read_sched.late_max()) * 1e3,
    );
    v.insert("bench.reads_skipped".into(), read_sched.skipped() as f64);
    // The schedule fixes the wall, so tracing cannot show as a longer run:
    // the overhead is the recorded spans' measured cost over the busy time.
    let span_cost = trace::span_cost(100_000);
    let busy = secs(ingest_s + seal_s) + read_us.sum() / 1e6;
    v.insert(
        "bench.trace_overhead_frac".into(),
        spans.len() as f64 * secs(span_cost) / busy.max(f64::MIN_POSITIVE),
    );

    out.notes.push(format!(
        "{} tenants; {} days of {} ops on average every {:?}, reads every {:?}, methods: {}",
        tenants.len(),
        records.len(),
        ops / records.len().max(1),
        spec.day_period,
        READ_PERIOD,
        methods.len()
    ));
    out.notes.push(format!(
        "day_cpu_ms (ingest thread CPU time from taking a day to publishing it): {}",
        day_cpu.describe("ms", 90.0)
    ));
    out.notes.push(format!(
        "day_cpu_ms median per tenant: {}",
        per_world_medians(records.iter().map(|r| secs(r.cpu) * 1e3))
    ));
    out.notes.push(format!(
        "visible_ms (wall time from scheduled send to published): {}",
        visible.describe("ms", 90.0)
    ));
    out.notes.push(format!(
        "queue_ms (scheduled send to ingest start): {}",
        queue.describe("ms", 90.0)
    ));
    out.notes.push(format!(
        "reads: {} fired, {} skipped, generator late by at most {:.3} ms",
        read_sched.fired(),
        read_sched.skipped(),
        secs(read_sched.late_max()) * 1e3
    ));
    if args.trace {
        out.notes.push(format!(
            "read_us (one ServiceReader::answer call): {}",
            read_us.describe("us", 99.0)
        ));
        out.notes.push(format!(
            "ingest thread: wall {:.4} s = ingest {:.4} s + seal {:.4} s + idle {:.4} s + bench {:.6} s",
            secs(wall),
            secs(ingest_s),
            secs(seal_s),
            secs(idle),
            secs(wall) - secs(ingest_s + seal_s) - secs(idle)
        ));
        out.notes.push(format!(
            "tracing overhead: {} spans x {:?} each",
            spans.len(),
            span_cost
        ));
    }
    out.spans = spans;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use datamodel::{AttrId, ObjectId, SourceId, Value};

    fn ops(n: u64) -> Vec<Operation> {
        (0..n)
            .map(|i| {
                Operation::upsert(
                    i,
                    SourceId(i as u32),
                    ObjectId(0),
                    AttrId(0),
                    Value::number(i as f64),
                )
            })
            .collect()
    }

    #[test]
    fn redeliveries_expect_one_applied_copy_per_operation() {
        let t = Template::with_redeliveries(ops(100), 0.25, 9);
        assert_eq!(t.len(), 125);
        let mut applied: Vec<u64> = t
            .ops
            .iter()
            .filter(|(_, e)| *e == Expected::Applied)
            .map(|(op, _)| op.seq)
            .collect();
        applied.sort_unstable();
        assert_eq!(applied, (0..100).collect::<Vec<_>>());
        assert_eq!(
            t.ops
                .iter()
                .filter(|(_, e)| *e == Expected::Duplicate)
                .count(),
            25
        );
        // Shuffled: not in sequence order.
        assert!(t.ops.windows(2).any(|w| w[0].0.seq > w[1].0.seq));
    }

    #[test]
    fn days_go_to_the_tenants_in_turn() {
        assert_eq!(route(1), (0, 1));
        assert_eq!(route(WORLDS), (WORLDS as usize - 1, 1));
        assert_eq!(route(WORLDS + 1), (0, 2));
        for total in [1, 5, 120, 121] {
            let counted: u64 = (0..WORLDS).map(|t| tenant_days(total, t)).sum();
            assert_eq!(counted, total);
            let last = (1..=total)
                .filter(|&k| route(k).0 == 0)
                .map(|k| route(k).1)
                .max();
            assert_eq!(last, Some(tenant_days(total, 0)));
        }
    }

    #[test]
    fn batches_shift_sequences_and_end_with_the_seal() {
        let feed = Feed {
            day0: SnapshotBuilder::new(0)
                .build(std::sync::Arc::new(datamodel::DomainSchema::new("t"))),
            templates: vec![Template::fresh(ops(3)), Template::fresh(ops(2))],
            final_day: SnapshotBuilder::new(0)
                .build(std::sync::Arc::new(datamodel::DomainSchema::new("t"))),
            final_gold: GoldStandard::new(),
            items: Vec::new(),
        };
        let b1 = batch(&feed, 10, 1);
        let b3 = batch(&feed, 10, 3);
        assert_eq!(
            b1.iter().map(|(op, _)| op.seq).collect::<Vec<_>>(),
            vec![10, 11, 12, 19]
        );
        assert_eq!(
            b3.iter().map(|(op, _)| op.seq).collect::<Vec<_>>(),
            vec![30, 31, 32, 39]
        );
        assert_eq!(b1.last().unwrap().1, Expected::Sealed);
        assert_eq!(batch(&feed, 10, 2).len(), 3);
    }
}
