//! The two live workloads: a [`LiveCluster`] of OS threads, driven
//! closed-loop by two client threads through [`PipelinedSession`]s.
//!
//! A pass is a sequence of rounds, run until their timed phases add up to
//! `--seconds`. Each round sets up a fresh cluster (programs, op scripts,
//! cluster start), has every client issue a fixed script closed-loop,
//! shuts the cluster down and checks its output. The end-to-end figures
//! are medians over rounds, so one slow round does not move them, and
//! memory stays bounded by one round's history.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use moc_abcast::{BatchConfig, BatchStats, LinkStats};
use moc_checker::{check, Condition, Strategy};
use moc_core::{ObjectId, ProcessId, Program, Value};
use moc_monitor::{MonitorConfig, MonitorMode, MonitorRunSummary, MonitorStats};
use moc_protocol::{ReplicaMetrics, ReplicaProtocol};
use moc_runtime::{LiveCluster, PipelineMetrics, RuntimeConfig, RuntimeReport};
use moc_workload::skew::{KeyPicker, KeySkew, SkewRng};
use moc_workload::{query_program, write_program};

use crate::measure::{median, percentile, ratio, thread_cpu_us, Trace};
use crate::{Args, Pass, PROGRESS};

/// Configuration of a live workload.
#[derive(Debug, Clone, Copy)]
pub struct LiveSpec {
    /// Processes, each driven by one client thread.
    pub clients: usize,
    /// Pipeline window of every client session (1 = blocking).
    pub window: usize,
    /// Group-commit batching of the ordering layer.
    pub batching: Option<BatchConfig>,
    /// Size of the object universe.
    pub num_objects: usize,
    /// Key popularity.
    pub skew: KeySkew,
    /// Share of ops that are writes; the rest are queries.
    pub update_fraction: f64,
    /// Distinct objects each op touches.
    pub span: usize,
    /// Condition of the attached online sentinel, if any.
    pub monitor: Option<Condition>,
    /// Ops each client issues per round.
    pub script_len: usize,
}

impl LiveSpec {
    /// Figure 4 (m-SC) with pipelined clients and group commit: 90%
    /// single-key writes, 10% single-key reads, uniform over 64 objects.
    pub fn msc_write_pipelined(args: &Args) -> Self {
        LiveSpec {
            clients: 2,
            window: 16,
            batching: Some(BatchConfig {
                max_batch: 16,
                max_delay_ns: 100_000,
            }),
            num_objects: 64,
            skew: KeySkew::Uniform,
            update_fraction: 0.9,
            span: 1,
            monitor: None,
            script_len: if args.tiny { 64 } else { 25_000 },
        }
    }

    /// Figure 6 (m-lin) with blocking clients and the m-lin sentinel
    /// attached: 80% two-object queries, 20% two-object writes, zipfian
    /// 0.99 over 64 objects, no batching.
    pub fn mlin_read_monitored(args: &Args) -> Self {
        LiveSpec {
            clients: 2,
            window: 1,
            batching: None,
            num_objects: 64,
            skew: KeySkew::Zipfian { theta: 0.99 },
            update_fraction: 0.2,
            span: 2,
            monitor: (!args.no_sentinel).then_some(Condition::MLinearizability),
            script_len: if args.tiny { 64 } else { 3_000 },
        }
    }
}

type Op = (Arc<Program>, Vec<Value>);

/// Builds client `client`'s op script for one round: a pure function of
/// `(spec, seed, round, client)`. Programs are shared through `cache`.
fn build_script(
    spec: &LiveSpec,
    seed: u64,
    round: usize,
    client: usize,
    cache: &mut BTreeMap<(bool, Vec<u32>), Arc<Program>>,
) -> Vec<Op> {
    let round_seed = seed ^ (round as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut keys = KeyPicker::new(spec.skew, spec.num_objects, round_seed, client);
    let mut class = SkewRng::new(round_seed ^ 0xc1a5_55ed ^ ((client as u64) << 17));
    (0..spec.script_len)
        .map(|i| {
            let mut objs: Vec<u32> = Vec::with_capacity(spec.span);
            while objs.len() < spec.span {
                let k = keys.next_key();
                if !objs.contains(&k) {
                    objs.push(k);
                }
            }
            objs.sort_unstable();
            let write = class.next_f64() < spec.update_fraction;
            let program = cache
                .entry((write, objs.clone()))
                .or_insert_with(|| {
                    let ids: Vec<ObjectId> = objs.iter().map(|&k| ObjectId::new(k)).collect();
                    if write {
                        write_program(&ids)
                    } else {
                        query_program(&ids)
                    }
                })
                .clone();
            let args = if write {
                vec![i as Value + 1; spec.span]
            } else {
                Vec::new()
            };
            (program, args)
        })
        .collect()
}

/// What one client thread saw during a round.
#[derive(Default)]
struct ClientOut {
    sent: u64,
    replies: u64,
    refused: u64,
    fifo_violation: Option<String>,
    /// Client-observed latency of every reply (ns).
    lat: Vec<u64>,
    /// Replica-stamped latency of every reply (traced only, ns).
    replica_lat: Vec<u64>,
    /// Client-observed minus replica-stamped latency (traced only, ns).
    handoff: Vec<u64>,
    trace: Option<Trace>,
}

impl ClientOut {
    fn reply(
        &mut self,
        process: ProcessId,
        r: &moc_runtime::Reply,
        sent_at: Instant,
        now: Instant,
    ) {
        let expected = self.replies as u32;
        if self.fifo_violation.is_none() && (r.id.process != process || r.id.seq != expected) {
            self.fifo_violation = Some(format!(
                "process {process}: reply {:?} arrived where seq {expected} was due",
                r.id
            ));
        }
        self.replies += 1;
        let observed = now.saturating_duration_since(sent_at).as_nanos() as u64;
        self.lat.push(observed);
        if self.trace.is_some() {
            let stamped = r.responded_at.as_nanos() - r.invoked_at.as_nanos();
            self.replica_lat.push(stamped);
            self.handoff.push(observed.saturating_sub(stamped));
        }
    }
}

/// Closed loop of one client: issue the script through a pipelined
/// session, then drain. A reply's latency runs from
/// the return of the `invoke` call that handed its op to the replica to
/// the return of the `invoke`/`drain` call that returned the reply.
#[allow(clippy::too_many_arguments)]
fn client_loop<R>(
    cluster: &LiveCluster<R>,
    client: usize,
    window: usize,
    script: &[Op],
    barrier: &Barrier,
    trace: Option<Trace>,
) -> ClientOut
where
    R: ReplicaProtocol + Send + 'static,
    R::Msg: Send + 'static,
{
    let process = ProcessId::new(client as u32);
    let mut out = ClientOut {
        trace,
        ..ClientOut::default()
    };
    let mut session = cluster.pipelined(process, window);
    let mut sent_at: VecDeque<Instant> = VecDeque::with_capacity(window + 1);
    barrier.wait();
    for (i, (program, args)) in script.iter().enumerate() {
        let start = out.trace.is_some().then(Instant::now);
        let result = session.invoke(program.clone(), args.clone());
        let now = Instant::now();
        if let (Some(t), Some(start)) = (out.trace.as_mut(), start) {
            t.record("runtime.invoke", client as u32, start, now);
        }
        match result {
            Ok(retired) => {
                out.sent += 1;
                if let Some(r) = retired {
                    let s = sent_at
                        .pop_front()
                        .expect("a reply implies an outstanding op");
                    out.reply(process, &r, s, now);
                }
                sent_at.push_back(now);
            }
            Err(_quarantined) => {
                out.refused += 1;
                break;
            }
        }
        if i % 256 == 255 {
            PROGRESS.fetch_add(256, Ordering::Relaxed);
        }
    }
    let start = Instant::now();
    let rest = session.drain();
    let now = Instant::now();
    if let Some(t) = out.trace.as_mut() {
        t.record("runtime.drain", client as u32, start, now);
    }
    for r in &rest {
        let s = sent_at
            .pop_front()
            .expect("a reply implies an outstanding op");
        out.reply(process, r, s, now);
    }
    out
}

/// Counters summed over the rounds of a traced pass.
#[derive(Default)]
struct Totals {
    ops: u64,
    queries: u64,
    updates: u64,
    link: LinkStats,
    batch: BatchStats,
    pipeline: PipelineMetrics,
    replica: ReplicaMetrics,
    monitor: MonitorStats,
    replica_cpu_us: u64,
    network_cpu_us: u64,
    sentinel_cpu_us: u64,
    catchup_ms: Vec<f64>,
    replica_lat: Vec<u64>,
    handoff: Vec<u64>,
}

impl Totals {
    fn add_report(&mut self, report: &RuntimeReport) {
        self.link = self.link.merge(&report.total_link_stats());
        self.batch.merge(report.total_batch_stats());
        self.pipeline = self.pipeline.merge(&report.total_pipeline());
        for m in &report.replica_metrics {
            self.replica.update_msgs_sent += m.update_msgs_sent;
            self.replica.query_msgs_sent += m.query_msgs_sent;
            self.replica.query_values_sent += m.query_values_sent;
        }
    }

    fn add_monitor(&mut self, s: &MonitorStats) {
        let m = &mut self.monitor;
        m.invocations += s.invocations;
        m.completions += s.completions;
        m.windows_checked += s.windows_checked;
        m.retired += s.retired;
        m.force_dropped += s.force_dropped;
        m.skipped += s.skipped;
        m.check_errors += s.check_errors;
        m.peak_live_nodes = m.peak_live_nodes.max(s.peak_live_nodes);
        m.peak_window = m.peak_window.max(s.peak_window);
    }
}

/// Checks a shut-down round: every invocation answered exactly once in
/// FIFO order, the history complete, no reply dropped, and — with a
/// sentinel — no violation and every rolling certificate audited.
fn check_round(
    outs: &[ClientOut],
    report: &RuntimeReport,
    monitor: Option<&MonitorRunSummary>,
    expect_monitor: bool,
    trace: &mut Option<Trace>,
    round: u32,
) -> Result<(), String> {
    for out in outs {
        if let Some(v) = &out.fifo_violation {
            return Err(v.clone());
        }
        if out.replies != out.sent {
            return Err(format!(
                "{} of {} ops got no reply",
                out.sent - out.replies,
                out.sent
            ));
        }
    }
    let sent: u64 = outs.iter().map(|o| o.sent).sum();
    if report.history.len() as u64 != sent {
        return Err(format!(
            "history holds {} records for {sent} answered ops",
            report.history.len()
        ));
    }
    for (p, out) in outs.iter().enumerate() {
        let seqs: Vec<u32> = report
            .history
            .by_process(ProcessId::new(p as u32))
            .iter()
            .map(|&idx| report.history.record(idx).id.seq)
            .collect();
        if seqs.len() as u64 != out.sent || seqs.iter().enumerate().any(|(k, &s)| s != k as u32) {
            return Err(format!(
                "process {p}: recorded seqs are not 0..{}",
                out.sent
            ));
        }
    }
    let dropped = report.total_pipeline().dropped_replies;
    if dropped != 0 {
        return Err(format!("{dropped} replies dropped"));
    }
    match (monitor, expect_monitor) {
        (None, true) => return Err("the sentinel left no summary".into()),
        (Some(m), _) => {
            if let Some(v) = &m.violation {
                return Err(format!("sentinel violation: {}", v.detail));
            }
            for c in &m.certs {
                let verdict = match trace.as_mut() {
                    Some(t) => t.time("audit.audit", round, || {
                        moc_audit::audit(&c.window, &c.cert_text)
                    }),
                    None => moc_audit::audit(&c.window, &c.cert_text),
                };
                if let Err(e) = verdict {
                    return Err(format!("rolling cert v{} failed audit: {e}", c.version));
                }
            }
        }
        (None, false) => {}
    }
    Ok(())
}

/// Runs one pass of a live workload.
pub fn run<R>(spec: &LiveSpec, args: &Args, traced: bool) -> Pass
where
    R: ReplicaProtocol + Send + 'static,
    R::Msg: Send + 'static,
{
    let budget = Duration::from_secs_f64(args.seconds);
    let mut pass = Pass::default();
    let mut trace = traced.then(Trace::new);
    let mut totals = Totals::default();
    let mut setups = Vec::new();
    // Per-round throughput and latency percentiles (µs).
    let (mut rates, mut p50s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
    let mut all_lat: Vec<u64> = Vec::new();
    let mut timed = Duration::ZERO;
    let mut unverified = 0u64;
    let mut sentinel_completions = 0u64;
    let mut sentinel_events = 0u64;

    let mut round = 0usize;
    while timed < budget {
        let r32 = round as u32;
        // Set-up: programs, op scripts, cluster start.
        let setup_start = Instant::now();
        let mut cache = BTreeMap::new();
        let scripts: Vec<Vec<Op>> = (0..spec.clients)
            .map(|c| build_script(spec, args.seed, round, c, &mut cache))
            .collect();
        let mut cfg = RuntimeConfig::new(spec.num_objects);
        if let Some(b) = spec.batching {
            cfg = cfg.with_batching(b);
        }
        let start_cluster = || match spec.monitor {
            Some(cond) => {
                LiveCluster::<R>::start_with_monitor(spec.clients, cfg, MonitorConfig::new(cond))
            }
            None => LiveCluster::<R>::start(spec.clients, cfg),
        };
        let cluster = match trace.as_mut() {
            Some(t) => t.time("runtime.start", r32, start_cluster),
            None => start_cluster(),
        };
        setups.push(setup_start.elapsed().as_secs_f64());

        // Timed phase: every client issues its script, closed loop.
        let barrier = Barrier::new(spec.clients + 1);
        let (outs, elapsed) = std::thread::scope(|s| {
            let handles: Vec<_> = scripts
                .iter()
                .enumerate()
                .map(|(c, script)| {
                    let child = trace.as_ref().map(Trace::child);
                    let (cluster, barrier) = (&cluster, &barrier);
                    std::thread::Builder::new()
                        .name(format!("client-{c}"))
                        .spawn_scoped(s, move || {
                            client_loop(cluster, c, spec.window, script, barrier, child)
                        })
                        .expect("spawn client thread")
                })
                .collect();
            barrier.wait();
            let t0 = Instant::now();
            let outs: Vec<Result<ClientOut, String>> = handles
                .into_iter()
                .map(|h| h.join().map_err(|_| "a client thread panicked".to_string()))
                .collect();
            (outs, t0.elapsed())
        });
        timed += elapsed;

        let cpu = traced.then(|| thread_cpu_us(&["replica-", "network", "sentinel"]));
        let shutdown_start = Instant::now();
        let shut = catch_unwind(AssertUnwindSafe(|| cluster.shutdown_with_monitor()));
        let catchup = shutdown_start.elapsed();

        let mut round_outs = Vec::new();
        let mut round_failure = None;
        for o in outs {
            match o {
                Ok(o) => round_outs.push(o),
                Err(e) => round_failure = Some(e),
            }
        }
        let attempted: u64 = round_outs.iter().map(|o| o.sent + o.refused).sum();
        let refused: u64 = round_outs.iter().map(|o| o.refused).sum();
        pass.attempted += attempted;
        let verdict = match (&round_failure, &shut) {
            (Some(e), _) => Err(e.clone()),
            (None, Err(_)) => Err("cluster shutdown panicked".to_string()),
            (None, Ok((report, monitor))) => check_round(
                &round_outs,
                report,
                monitor.as_ref(),
                spec.monitor.is_some(),
                &mut trace,
                r32,
            ),
        };
        match verdict {
            Ok(()) => pass.failed += refused,
            Err(e) => {
                pass.failed += attempted.max(1);
                pass.failures.push(format!("round {round}: {e}"));
            }
        }

        let mut lat: Vec<u64> = Vec::new();
        for o in &mut round_outs {
            lat.append(&mut o.lat);
            if let (Some(t), Some(ct)) = (trace.as_mut(), o.trace.take()) {
                t.merge(ct);
            }
        }
        lat.sort_unstable();
        rates.push(ratio(lat.len() as f64, elapsed.as_secs_f64()));
        p50s.push(percentile(&lat, 50.0) as f64 / 1e3);
        p99s.push(percentile(&lat, 99.0) as f64 / 1e3);
        pass.latency_samples += lat.len() as u64;
        if traced {
            all_lat.extend_from_slice(&lat);
        }
        if let Ok((report, monitor)) = &shut {
            if let Some(m) = monitor {
                if let MonitorMode::Degraded { dropped_prefix } = m.mode {
                    unverified += dropped_prefix;
                }
                sentinel_completions += m.stats.completions;
                sentinel_events += m.stats.invocations + m.stats.completions;
            }
            if traced {
                totals.add_report(report);
                totals.ops += report.history.len() as u64;
                for rec in report.history.records() {
                    if rec.ops.iter().any(|op| op.kind == moc_core::OpKind::Write) {
                        totals.updates += 1;
                    } else {
                        totals.queries += 1;
                    }
                }
                if let Some(m) = monitor {
                    totals.add_monitor(&m.stats);
                    let t = trace.as_mut().expect("a traced pass has a trace");
                    for c in &m.certs {
                        t.time("checker.check", r32, || {
                            check(&c.window, c.condition, Strategy::Auto)
                        })
                        .ok();
                    }
                }
            }
        }
        if let Some(cpu) = cpu {
            totals.replica_cpu_us += cpu[0];
            totals.network_cpu_us += cpu[1];
            totals.sentinel_cpu_us += cpu[2];
            totals.catchup_ms.push(catchup.as_secs_f64() * 1e3);
            for o in &mut round_outs {
                totals.replica_lat.append(&mut o.replica_lat);
                totals.handoff.append(&mut o.handoff);
            }
        }
        round += 1;
    }

    pass.setup_s = median(&setups);
    pass.ops_per_s = median(&rates);
    pass.latency_p50_us = median(&p50s);
    pass.latency_p99_us = median(&p99s);
    pass.unverified_frac = ratio(unverified as f64, sentinel_completions as f64);
    pass.verify_events_per_s = ratio(sentinel_events as f64, timed.as_secs_f64());

    if let Some(t) = trace {
        all_lat.sort_unstable();
        layers(&mut pass, &t, &mut totals, &all_lat);
        args.write_trace(&t);
    }
    pass
}

/// Fills the per-layer metrics of a traced live pass.
fn layers(pass: &mut Pass, t: &Trace, totals: &mut Totals, lat: &[u64]) {
    let us = |ns: u64| ns as f64 / 1e3;
    let ops = totals.ops as f64;
    let block = t.durations("runtime.invoke");
    totals.replica_lat.sort_unstable();
    totals.handoff.sort_unstable();
    let window_checks = t.durations("checker.check");
    let audits = t.durations("audit.audit");
    let start_ms: Vec<f64> = t
        .durations("runtime.start")
        .iter()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    let l = &mut pass.layers;
    l.insert("runtime.invoke_block_us.p50", us(percentile(&block, 50.0)));
    l.insert("runtime.invoke_block_us.p99", us(percentile(&block, 99.0)));
    l.insert(
        "runtime.replica_latency_us.p50",
        us(percentile(&totals.replica_lat, 50.0)),
    );
    l.insert(
        "runtime.replica_latency_us.p99",
        us(percentile(&totals.replica_lat, 99.0)),
    );
    l.insert(
        "runtime.handoff_us.p50",
        us(percentile(&totals.handoff, 50.0)),
    );
    let p = &totals.pipeline;
    l.insert(
        "runtime.queue_residency_us_per_op",
        ratio(p.queue_residency_ns as f64 / 1e3, p.invocations as f64),
    );
    l.insert("runtime.peak_depth", p.peak_depth as f64);
    l.insert(
        "runtime.out_of_order_frac",
        ratio(p.out_of_order_completions as f64, p.retired as f64),
    );
    l.insert(
        "runtime.replica_cpu_us_per_op",
        ratio(totals.replica_cpu_us as f64, ops),
    );
    l.insert(
        "runtime.network_cpu_us_per_op",
        ratio(totals.network_cpu_us as f64, ops),
    );
    l.insert("runtime.start_ms", median(&start_ms));
    l.insert("runtime.latency_p999_us", us(percentile(lat, 99.9)));
    l.insert("abcast.batch_occupancy", totals.batch.occupancy());
    l.insert(
        "abcast.stamps_per_op",
        ratio(totals.batch.items_stamped as f64, ops),
    );
    let k = &totals.link;
    l.insert("link.frames_per_op", ratio(k.data_sent as f64, ops));
    l.insert(
        "link.acks_per_frame",
        ratio(k.acks_sent as f64, k.data_sent as f64),
    );
    l.insert("link.retransmissions", k.retransmissions as f64);
    l.insert(
        "link.useful_frac",
        ratio(k.delivered as f64, (k.data_sent + k.retransmissions) as f64),
    );
    let r = &totals.replica;
    let queries = totals.queries as f64;
    l.insert(
        "protocol.query_msgs_per_query",
        ratio(r.query_msgs_sent as f64, queries),
    );
    l.insert(
        "protocol.query_values_per_query",
        ratio(r.query_values_sent as f64, queries),
    );
    l.insert(
        "protocol.update_msgs_per_update",
        ratio(r.update_msgs_sent as f64, totals.updates as f64),
    );
    let m = &totals.monitor;
    l.insert("monitor.windows_checked", m.windows_checked as f64);
    l.insert("monitor.peak_live_nodes", m.peak_live_nodes as f64);
    l.insert("monitor.peak_window", m.peak_window as f64);
    l.insert(
        "monitor.retired_frac",
        ratio(m.retired as f64, m.completions as f64),
    );
    l.insert("monitor.force_dropped", m.force_dropped as f64);
    l.insert("monitor.skipped", m.skipped as f64);
    l.insert("monitor.check_errors", m.check_errors as f64);
    l.insert(
        "monitor.sentinel_cpu_us_per_op",
        ratio(totals.sentinel_cpu_us as f64, ops),
    );
    l.insert("monitor.catchup_ms", median(&totals.catchup_ms));
    l.insert(
        "checker.window_check_us.p50",
        us(percentile(&window_checks, 50.0)),
    );
    l.insert(
        "checker.window_check_us.p99",
        us(percentile(&window_checks, 99.0)),
    );
    l.insert("audit.cert_us.p50", us(percentile(&audits, 50.0)));
    l.insert("audit.cert_us.p99", us(percentile(&audits, 99.0)));
    l.insert(
        "audit.total_ms",
        median(&t.sums_by_parent("audit.audit")) / 1e6,
    );
}
