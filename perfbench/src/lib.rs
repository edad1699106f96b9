//! End-to-end and per-layer benchmark of the fusion system.
//!
//! `perfbench --workload W --seed N --seconds S --trace 0|1` generates the
//! workload's inputs from the seed, sets up several times (reporting the
//! median set-up CPU time), measures for `S` seconds, checks every output,
//! and prints one JSON result line last. See `README.md` next to this crate for
//! the workloads, the metrics, and which layer each metric splits out.

pub mod batch;
pub mod check;
pub mod cpu;
pub mod report;
pub mod sched;
pub mod serve;
pub mod stats;
pub mod trace;

use check::Checks;
use report::{Kind, Values};
use std::path::Path;
use std::time::Duration;

/// Times each workload sets itself up; the median is `setup_s`.
pub const SETUP_REPEATS: usize = 5;

/// Independently generated worlds every run measures. Iteration counts,
/// and so run times and precision, differ from world to world; pooling
/// several worlds per run keeps the spread between seeds small. The count
/// is odd so that the median of the pooled samples falls inside the middle
/// world's samples, not on the edge between two worlds.
pub const WORLDS: u64 = 5;

/// Seed of world `i` of a run with seed `seed`; distinct seeds never share
/// a world.
pub fn world_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(WORLDS).wrapping_add(i)
}

/// Where traced runs write their spans, relative to the repository root
/// the benchmark runs from.
pub const TRACE_DIR: &str = "perfbench/traces";

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Table-7 evaluation job over a Stock collection.
    BatchStock,
    /// All sixteen methods served online over a slowly changing Stock world.
    ServeStock,
    /// Vote served online over the Flight collection's day-to-day churn.
    IngestFlight,
}

impl Workload {
    /// Every workload, in declaration order.
    pub const ALL: [Workload; 3] = [
        Workload::BatchStock,
        Workload::ServeStock,
        Workload::IngestFlight,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchStock => "batch_stock",
            Workload::ServeStock => "serve_stock",
            Workload::IngestFlight => "ingest_flight",
        }
    }

    fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: u64,
    /// Record spans and report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

impl Args {
    /// Parse `--workload W --seed N --seconds S --trace 0|1`.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: not a whole number: {value}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(value).ok_or_else(|| {
                        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                        format!("unknown workload {value:?} (one of {})", names.join(", "))
                    })?)
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?.max(1)),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    })
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }

    /// The measured window.
    pub fn window(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }
}

/// What one workload run hands back for reporting.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Measured metric values by name.
    pub values: Values,
    /// Output checks.
    pub checks: Checks,
    /// Recorded spans (traced runs only).
    pub spans: Vec<trace::Span>,
    /// Lines for the human-readable part of the report.
    pub notes: Vec<String>,
}

/// Threads the benchmark may keep busy: the machine's available parallelism.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run `setup` [`SETUP_REPEATS`] times, dropping each result before the
/// next is built, and return the last result with the median set-up time:
/// the CPU time the process spent on one set-up, in seconds.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let started = cpu::process();
        last = Some(setup());
        times.push((cpu::process() - started).as_secs_f64());
    }
    (
        last.expect("at least one set-up"),
        stats::Distribution::new(times).median(),
    )
}

/// The run's stamp: seed, thread budget, kernel backend and CPU features.
pub fn stamp(args: &Args) -> String {
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"available_parallelism\":{},\"kernel_backend\":\"{}\",\"cpu_features\":\"{}\"}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        threads(),
        fusion::kernels::backend_name(),
        fusion::kernels::detected_cpu_features()
    )
}

/// Run the benchmark described by `args`, print the report, and return the
/// result line (already printed last).
pub fn run(args: &Args) -> String {
    let stamp = stamp(args);
    println!("perfbench {stamp}");
    let ticks = report::CpuTicks::read();
    let mut outcome = match args.workload {
        Workload::BatchStock => batch::run(args),
        Workload::ServeStock => serve::run(args, &serve::SERVE_STOCK),
        Workload::IngestFlight => serve::run(args, &serve::INGEST_FLIGHT),
    };
    // A busy host steals CPU from this machine and slows every timing; the
    // share stolen during the run is reported so noisy runs can be told apart.
    if let (Some(before), Some(after)) = (ticks, report::CpuTicks::read()) {
        let steal = after.steal_since(&before);
        outcome.values.insert("bench.cpu_steal_frac".into(), steal);
        outcome.notes.push(format!(
            "CPU time stolen by the host during the run: {:.1}%",
            steal * 100.0
        ));
    }
    let rss = report::peak_rss_mb();
    outcome
        .checks
        .check(rss.is_some(), || "peak RSS unavailable".into());
    outcome
        .values
        .insert("peak_rss_mb".into(), rss.unwrap_or(0.0));
    if args.trace {
        outcome
            .values
            .insert("bench.spans".into(), outcome.spans.len() as f64);
        let dir = Path::new(TRACE_DIR);
        let path = dir.join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|f| trace::write_spans(std::io::BufWriter::new(f), &stamp, &outcome.spans));
        match written {
            Ok(()) => outcome
                .notes
                .push(format!("spans written to {}", path.display())),
            Err(e) => outcome
                .checks
                .check(false, || format!("writing {}: {e}", path.display())),
        }
    }

    let kind = if args.trace {
        Kind::PerLayer
    } else {
        Kind::EndToEnd
    };
    let metrics = report::select(&outcome.values, kind);
    for (spec, value) in &metrics {
        outcome
            .checks
            .check(value.is_finite(), || format!("{} is not finite", spec.name));
    }
    for note in &outcome.notes {
        println!("  {note}");
    }
    for (spec, value) in &metrics {
        println!("  {:<40} {value:>16.6} {}", spec.name, spec.unit);
    }
    let (attempted, failed) = (outcome.checks.attempted(), outcome.checks.failed());
    println!(
        "  checks: {attempted} attempted, {failed} failed (failed_frac {:.6})",
        failed as f64 / attempted.max(1) as f64
    );
    for failure in outcome.checks.first_failures() {
        println!("  FAILED: {failure}");
    }
    let line = report::result_line(attempted, failed, &metrics);
    println!("{line}");
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = Args::parse(&argv(
            "--workload serve_stock --seed 7 --seconds 30 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::ServeStock);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 30, true));
        assert_eq!(a.window(), Duration::from_secs(30));
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(Args::parse(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(Args::parse(&argv(
            "--workload batch_stock --seed 1 --seconds 1 --trace 2"
        ))
        .is_err());
        assert!(Args::parse(&argv(
            "--workload batch_stock --seed x --seconds 1 --trace 0"
        ))
        .is_err());
        assert!(Args::parse(&argv("--workload batch_stock --seconds 1 --trace 0")).is_err());
        assert!(Args::parse(&argv("--workload batch_stock --seed 1 --seconds 1 --trace")).is_err());
        assert!(Args::parse(&argv("--bogus 1")).is_err());
    }

    #[test]
    fn repeated_setup_reports_the_median() {
        let mut calls = 0;
        let (last, secs) = repeated_setup(|| {
            calls += 1;
            calls
        });
        assert_eq!(last, SETUP_REPEATS);
        assert!(secs >= 0.0);
    }
}
