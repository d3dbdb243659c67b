//! perfbench — the repository benchmark.
//!
//! Drives one named workload through the layers' public functions only
//! (`moc_runtime::{LiveCluster, PipelinedSession}`,
//! `moc_protocol::harness::run_cluster`, `moc_monitor::OnlineMonitor`,
//! `moc_checker::conditions::check_with_relation`, `moc_audit::audit`),
//! checks the run's output, and prints one JSON result line:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the result carries the end-to-end metrics, measured
//! with no per-call timing. With `--trace 1` the workload runs twice, once
//! untraced and once with a span around every public call, and the result
//! carries the per-layer metrics, including the tracing overhead (the
//! end-to-end difference between the two passes). See `README.md`.

mod live;
mod measure;
mod replay;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use moc_protocol::{MlinOverSequencer, MscOverSequencer};

/// The end-to-end metrics every untraced run prints, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run prints, with their units. A
/// layer the workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("runtime.invoke_block_us.p50", "us"),
    ("runtime.invoke_block_us.p99", "us"),
    ("runtime.replica_latency_us.p50", "us"),
    ("runtime.replica_latency_us.p99", "us"),
    ("runtime.handoff_us.p50", "us"),
    ("runtime.queue_residency_us_per_op", "us"),
    ("runtime.peak_depth", "count"),
    ("runtime.out_of_order_frac", "ratio"),
    ("runtime.replica_cpu_us_per_op", "us"),
    ("runtime.network_cpu_us_per_op", "us"),
    ("runtime.start_ms", "ms"),
    ("runtime.latency_p999_us", "us"),
    ("abcast.batch_occupancy", "items/batch"),
    ("abcast.stamps_per_op", "stamps/op"),
    ("link.frames_per_op", "frames/op"),
    ("link.acks_per_frame", "acks/frame"),
    ("link.retransmissions", "count"),
    ("link.useful_frac", "ratio"),
    ("protocol.query_msgs_per_query", "msgs/query"),
    ("protocol.query_values_per_query", "values/query"),
    ("protocol.update_msgs_per_update", "msgs/update"),
    ("monitor.on_complete_us.p50", "us"),
    ("monitor.on_complete_us.p99", "us"),
    ("monitor.on_complete_us.max", "us"),
    ("monitor.flush_ms", "ms"),
    ("monitor.windows_checked", "count"),
    ("monitor.peak_live_nodes", "count"),
    ("monitor.peak_window", "count"),
    ("monitor.retired_frac", "ratio"),
    ("monitor.force_dropped", "count"),
    ("monitor.skipped", "count"),
    ("monitor.check_errors", "count"),
    ("monitor.sentinel_cpu_us_per_op", "us"),
    ("monitor.catchup_ms", "ms"),
    ("checker.window_check_us.p50", "us"),
    ("checker.window_check_us.p99", "us"),
    ("checker.ww_check_ms", "ms"),
    ("audit.cert_us.p50", "us"),
    ("audit.cert_us.p99", "us"),
    ("audit.total_ms", "ms"),
    ("sim.generate_ms", "ms"),
    ("failed_ops_frac", "ratio"),
    ("unverified_frac", "ratio"),
    ("verify_events_per_s", "events/s"),
    ("latency_samples", "count"),
    ("trace.overhead_frac", "ratio"),
    ("host.cpus", "count"),
    ("host.steal_frac", "ratio"),
];

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &[
    "msc-write-pipelined",
    "mlin-read-monitored",
    "msc-sentinel-replay",
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Seed every input of the run is derived from.
    pub seed: u64,
    /// Length of the timed phase of one pass.
    pub seconds: f64,
    /// Whether to add the traced pass and print per-layer metrics.
    pub trace: bool,
    /// Shrinks every input to a few operations (used by the tests).
    pub tiny: bool,
    /// Negative control: doctors one read's provenance in the replayed
    /// history, so the output check must fail.
    pub doctor: bool,
    /// Ablation: runs a monitored live workload without its sentinel.
    pub no_sentinel: bool,
    /// Overrides the m-ops per process of each replayed history.
    pub history_ops: Option<usize>,
    /// Directory a traced run writes its spans to.
    pub trace_dir: Option<PathBuf>,
}

impl Args {
    /// Writes a traced pass's spans to
    /// `<trace-dir>/<workload>-seed<seed>.tsv`, when a directory was given.
    pub fn write_trace(&self, trace: &measure::Trace) {
        let Some(dir) = &self.trace_dir else {
            return;
        };
        let path = dir.join(format!("{}-seed{}.tsv", self.workload, self.seed));
        if let Err(e) = trace.write_tsv(&path) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        tiny: false,
        doctor: false,
        no_sentinel: false,
        history_ops: None,
        trace_dir: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .map_err(|_| "--seconds needs a number".to_string())?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--trace-dir" => args.trace_dir = Some(PathBuf::from(value()?)),
            "--tiny" => args.tiny = true,
            "--doctor" => args.doctor = true,
            "--no-sentinel" => args.no_sentinel = true,
            "--history-ops" => {
                let n: usize = value()?
                    .parse()
                    .map_err(|_| "--history-ops needs a whole number".to_string())?;
                args.history_ops = Some(n.max(1));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, not {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(args)
}

/// What one pass (untraced or traced) of a workload measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Operations attempted (m-ops issued, or m-ops replayed).
    pub attempted: u64,
    /// Operations with no reply, refused, or in a unit of work whose
    /// output check failed.
    pub failed: u64,
    /// Why the output check failed, one line per failure.
    pub failures: Vec<String>,
    /// Median set-up time of the pass's set-ups.
    pub setup_s: f64,
    /// Completed (or verified) m-ops per second of timed phase.
    pub ops_per_s: f64,
    /// Latency median, in µs.
    pub latency_p50_us: f64,
    /// Latency 99th percentile, in µs.
    pub latency_p99_us: f64,
    /// Samples behind the latency percentiles.
    pub latency_samples: u64,
    /// Completions the sentinel settled without a certificate, as a share
    /// of completions it saw (0 without a sentinel).
    pub unverified_frac: f64,
    /// Invoke and complete events the sentinel verified per second (0
    /// without a sentinel).
    pub verify_events_per_s: f64,
    /// Per-layer metrics (traced pass only).
    pub layers: BTreeMap<&'static str, f64>,
}

impl Pass {
    fn failed_ops_frac(&self) -> f64 {
        measure::ratio(self.failed as f64, self.attempted as f64)
    }
}

/// Operations issued so far, published for the watchdog.
pub static PROGRESS: AtomicU64 = AtomicU64::new(0);

/// Set once a result line has been printed, by `main` or the watchdog.
static PRINTED: Mutex<bool> = Mutex::new(false);

fn run_pass(args: &Args, traced: bool) -> Pass {
    match args.workload.as_str() {
        "msc-write-pipelined" => {
            live::run::<MscOverSequencer>(&live::LiveSpec::msc_write_pipelined(args), args, traced)
        }
        "mlin-read-monitored" => {
            live::run::<MlinOverSequencer>(&live::LiveSpec::mlin_read_monitored(args), args, traced)
        }
        _ => replay::run(&replay::ReplaySpec::msc_sentinel_replay(args), args, traced),
    }
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) {
    let mut printed = PRINTED.lock().expect("result lock poisoned");
    if *printed {
        return;
    }
    *printed = true;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
}

/// Bounds the whole run: `invoke` has no deadline, so a hung cluster would
/// otherwise stall forever. When the budget runs out, everything attempted
/// so far counts as failed and the process exits with the result printed.
/// The thread is never joined; it dies with the process.
fn arm_watchdog(budget: Duration, trace: bool) {
    let names = if trace { PER_LAYER } else { END_TO_END };
    std::thread::Builder::new()
        .name("watchdog".into())
        .spawn(move || {
            std::thread::sleep(budget);
            eprintln!("perfbench: watchdog fired after {budget:?}; the run hung");
            let attempted = PROGRESS.load(Ordering::Relaxed).max(1);
            let zeros: Vec<(&str, f64, &str)> = names.iter().map(|&(n, u)| (n, 0.0, u)).collect();
            print_result(false, attempted, attempted, &zeros);
            std::process::exit(0);
        })
        .expect("spawn watchdog thread");
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let passes = if args.trace { 2.0 } else { 1.0 };
    arm_watchdog(
        Duration::from_secs_f64(passes * (2.0 * args.seconds + 30.0)),
        args.trace,
    );

    let steal_start = measure::host_steal_ticks();
    let plain = run_pass(&args, false);
    let traced = args.trace.then(|| run_pass(&args, true));
    let peak_rss_mb = measure::peak_rss_mb();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let steal_end = measure::host_steal_ticks();
    let steal_frac = measure::ratio(
        steal_end.0.saturating_sub(steal_start.0) as f64,
        steal_end.1.saturating_sub(steal_start.1) as f64,
    );

    let mut attempted = plain.attempted;
    let mut failed = plain.failed;
    let mut failures = plain.failures.clone();
    let mut overhead = None;
    if let Some(t) = &traced {
        attempted += t.attempted;
        failed += t.failed;
        failures.extend(t.failures.iter().cloned());
        overhead = Some(measure::ratio(
            plain.ops_per_s - t.ops_per_s,
            plain.ops_per_s,
        ));
    }
    for f in &failures {
        eprintln!("perfbench: output check failed: {f}");
    }
    let correct = failures.is_empty() && failed == 0;

    let stamp_overhead = overhead.map_or("null".to_string(), json_num);
    println!(
        "{{\"perfbench\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"cpus\": {cpus}, \"steal_frac\": {}, \"failed_ops_frac\": {}, \"unverified_frac\": {}, \
         \"verify_events_per_s\": {}, \"latency_samples\": {}, \"overhead_frac\": {stamp_overhead}}}}}",
        args.workload,
        args.seed,
        json_num(args.seconds),
        u8::from(args.trace),
        json_num(steal_frac),
        json_num(plain.failed_ops_frac()),
        json_num(plain.unverified_frac),
        json_num(plain.verify_events_per_s),
        plain.latency_samples,
    );

    let metrics: Vec<(&str, f64, &str)> = match &traced {
        None => {
            let values = [
                plain.setup_s,
                plain.ops_per_s,
                plain.latency_p50_us,
                plain.latency_p99_us,
                peak_rss_mb,
            ];
            END_TO_END
                .iter()
                .zip(values)
                .map(|(&(n, u), v)| (n, v, u))
                .collect()
        }
        Some(t) => {
            debug_assert!(
                t.layers
                    .keys()
                    .all(|k| PER_LAYER.iter().any(|&(n, _)| n == *k)),
                "a workload filled a per-layer metric that PER_LAYER does not list"
            );
            let mut layers = t.layers.clone();
            layers.insert("failed_ops_frac", t.failed_ops_frac());
            layers.insert("unverified_frac", t.unverified_frac);
            layers.insert("verify_events_per_s", t.verify_events_per_s);
            layers.insert("latency_samples", t.latency_samples as f64);
            layers.insert("trace.overhead_frac", overhead.unwrap_or(0.0));
            layers.insert("host.cpus", cpus as f64);
            layers.insert("host.steal_frac", steal_frac);
            PER_LAYER
                .iter()
                .map(|&(n, u)| (n, layers.get(n).copied().unwrap_or(0.0), u))
                .collect()
        }
    };
    print_result(correct, attempted, failed, &metrics);
}
