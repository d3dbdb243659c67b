//! The sentinel-replay workload: no live cluster. Set-up runs the seeded
//! simulator over the Figure 4 protocol to produce a pool of histories;
//! the timed phase feeds each history through an m-SC [`OnlineMonitor`]
//! in `moc_monitor::replay` order and audits every rolling certificate.
//! The output check then decides each history under Theorem 7 with the
//! simulator's `~ww` order.

use std::collections::BTreeSet;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use moc_checker::conditions::check_with_relation;
use moc_checker::{check, Condition, Strategy};
use moc_core::constraints::Constraint;
use moc_core::history::MOpIdx;
use moc_core::relations::{process_order, reads_from, Relation};
use moc_core::{CompletedOp, History, MOpId, OpKind};
use moc_monitor::{MonitorConfig, MonitorMode, MonitorStats, OnlineMonitor, RollingCert};
use moc_protocol::harness::{run_cluster, ClusterConfig};
use moc_protocol::MscOverSequencer;
use moc_workload::{scripts, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::measure::{median, percentile, ratio, Trace};
use crate::{Args, Pass, PROGRESS};

/// Configuration of the replay workload.
#[derive(Debug, Clone, Copy)]
pub struct ReplaySpec {
    /// Client scripts handed to the simulator.
    pub workload: WorkloadSpec,
    /// Distinct histories generated per pass.
    pub pool: usize,
}

impl ReplaySpec {
    /// 4 processes, programs over up to 3 of 16 objects, 50% updates.
    pub fn msc_sentinel_replay(args: &Args) -> Self {
        ReplaySpec {
            workload: WorkloadSpec {
                processes: 4,
                ops_per_process: args.history_ops.unwrap_or(if args.tiny { 8 } else { 100 }),
                num_objects: 16,
                update_fraction: 0.5,
                max_span: 3,
                ..WorkloadSpec::default()
            },
            pool: if args.tiny { 2 } else { 64 },
        }
    }
}

/// One generated history, ready to replay.
struct Prepared {
    history: History,
    /// The simulator's broadcast order of updates.
    update_order: Vec<MOpId>,
    /// `(time, is_invocation, record)` in `moc_monitor::replay` order.
    events: Vec<(u64, bool, usize)>,
}

/// Stream events in `moc_monitor::replay` order: by event time, responses
/// before invocations at equal times, ties broken by m-op id.
fn replay_order(h: &History) -> Vec<(u64, bool, usize)> {
    let mut events: Vec<(u64, u8, usize)> = Vec::with_capacity(2 * h.len());
    for (i, rec) in h.records().iter().enumerate() {
        events.push((rec.invoked_at.as_nanos(), 1, i));
        events.push((rec.responded_at.as_nanos(), 0, i));
    }
    events.sort_unstable_by_key(|&(t, k, i)| (t, k, h.records()[i].id));
    events.into_iter().map(|(t, k, i)| (t, k == 1, i)).collect()
}

/// `~p ∪ ~rf ∪ ~ww`: the m-SC base relation plus the broadcast order.
fn ww_relation(h: &History, update_order: &[MOpId]) -> Relation {
    let mut rel = process_order(h).union(&reads_from(h));
    for pair in update_order.windows(2) {
        if let (Some(a), Some(b)) = (h.idx_of(pair[0]), h.idx_of(pair[1])) {
            rel.add(a, b);
        }
    }
    rel
}

/// Negative control: the first read of an object its own process already
/// wrote is re-pointed at the initial value. Process order puts the write
/// first, so no legal order exists and the history is not m-SC.
fn doctor(h: &History) -> Option<History> {
    let mut records = h.records().to_vec();
    let mut order: Vec<usize> = (0..records.len()).collect();
    order.sort_by_key(|&i| records[i].id);
    let mut written = BTreeSet::new();
    for i in order {
        let process = records[i].id.process;
        let target = records[i].ops.iter().position(|op| {
            op.kind == OpKind::Read
                && op.writer != MOpId::INITIAL
                && written.contains(&(process, op.object))
        });
        if let Some(k) = target {
            let object = records[i].ops[k].object;
            records[i].ops[k] = CompletedOp::read(object, 0, MOpId::INITIAL, 0);
            return History::new(h.num_objects(), records).ok();
        }
        for op in records[i].ops.iter().filter(|op| op.kind == OpKind::Write) {
            written.insert((process, op.object));
        }
    }
    None
}

/// What one replay of one history measured.
struct ReplayOut {
    mops: u64,
    elapsed: Duration,
    /// Completion-to-certificate latency of every certified m-op (ns).
    lat: Vec<u64>,
    unverified: u64,
    stats: MonitorStats,
    failure: Option<String>,
    certs: Vec<RollingCert>,
}

/// Feeds `p` through a fresh m-SC sentinel, flushes, and audits every
/// rolling certificate. Only the feed, flush and audits are timed.
fn replay_once(p: &Prepared, trace: &mut Option<Trace>, parent: u32) -> ReplayOut {
    let recs = p.history.records();
    let cfg = MonitorConfig::new(Condition::MSequentialConsistency);
    let mut mon = OnlineMonitor::new(p.history.num_objects(), cfg);
    let mut done_at = vec![Duration::ZERO; recs.len()];
    let mut emitted: Vec<Duration> = Vec::new();
    let mut last = 0u64;
    let start = Instant::now();
    for &(t, invoke, i) in &p.events {
        last = t;
        if invoke {
            mon.on_invoke(recs[i].id, t);
            continue;
        }
        let before = Instant::now();
        done_at[i] = before - start;
        mon.on_complete(recs[i].clone(), t);
        let certs = mon.certs().len();
        if let Some(tr) = trace.as_mut() {
            tr.record("monitor.on_complete", parent, before, Instant::now());
        }
        if certs > emitted.len() {
            emitted.resize(certs, start.elapsed());
        }
    }
    let before = Instant::now();
    mon.flush(last + 1);
    if let Some(tr) = trace.as_mut() {
        tr.record("monitor.flush", parent, before, Instant::now());
    }
    emitted.resize(mon.certs().len(), start.elapsed());
    let summary = mon.into_summary();
    let mut failure = summary
        .violation
        .as_ref()
        .map(|v| format!("sentinel violation: {}", v.detail));
    for c in &summary.certs {
        let verdict = match trace.as_mut() {
            Some(tr) => tr.time("audit.audit", parent, || {
                moc_audit::audit(&c.window, &c.cert_text)
            }),
            None => moc_audit::audit(&c.window, &c.cert_text),
        };
        if let (Err(e), None) = (verdict, &failure) {
            failure = Some(format!("rolling cert v{} failed audit: {e}", c.version));
        }
    }
    let elapsed = start.elapsed();

    // An m-op is certified by the first certificate whose window holds it
    // (re-synthesized retired writers are not new coverage).
    let mut certified = vec![false; recs.len()];
    let mut lat = Vec::with_capacity(recs.len());
    for (c, at) in summary.certs.iter().zip(&emitted) {
        for r in c.window.records().iter().filter(|r| r.label != "retired") {
            if let Some(MOpIdx(i)) = p.history.idx_of(r.id) {
                if !certified[i] {
                    certified[i] = true;
                    lat.push(at.saturating_sub(done_at[i]).as_nanos() as u64);
                }
            }
        }
    }
    let unverified = match summary.mode {
        MonitorMode::Healthy => 0,
        MonitorMode::Degraded { dropped_prefix } => dropped_prefix,
    };
    ReplayOut {
        mops: summary.stats.completions,
        elapsed,
        lat,
        unverified,
        stats: summary.stats,
        failure,
        certs: summary.certs,
    }
}

/// Runs one pass of the replay workload.
pub fn run(spec: &ReplaySpec, args: &Args, traced: bool) -> Pass {
    let mut pass = Pass::default();
    let mut trace = traced.then(Trace::new);

    // Set-up: generate the pool of histories (one simulator run each).
    let mut setups = Vec::new();
    let mut pool = Vec::with_capacity(spec.pool);
    for k in 0..spec.pool {
        let seed = args.seed ^ (k as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let start = Instant::now();
        let script = scripts(&spec.workload, &mut StdRng::seed_from_u64(seed));
        let config = ClusterConfig::new(spec.workload.num_objects, seed);
        let report = match trace.as_mut() {
            Some(t) => t.time("sim.run_cluster", k as u32, || {
                run_cluster::<MscOverSequencer>(&config, script)
            }),
            None => run_cluster::<MscOverSequencer>(&config, script),
        };
        let mut history = report.history;
        if args.doctor && k == 0 {
            history = doctor(&history).expect("the history has a read to doctor");
        }
        let events = replay_order(&history);
        setups.push(start.elapsed().as_secs_f64());
        pool.push(Prepared {
            history,
            update_order: report.update_order,
            events,
        });
    }

    // Timed phase: replay the pool cyclically until the time is up.
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut outs: Vec<(usize, ReplayOut)> = Vec::new();
    loop {
        let k = outs.len() % pool.len();
        let mut out = replay_once(&pool[k], &mut trace, outs.len() as u32);
        PROGRESS.fetch_add(out.mops, Ordering::Relaxed);
        // Only a traced pass re-checks certificates, once per history.
        if !traced || outs.len() >= pool.len() {
            out.certs = Vec::new();
        }
        outs.push((k, out));
        if Instant::now() >= deadline {
            break;
        }
    }

    // Output check: every replayed history is m-SC under Theorem 7 with
    // the simulator's `~ww` order.
    let mut ww_ok: Vec<Option<Result<(), String>>> = vec![None; pool.len()];
    for &(k, _) in &outs {
        if ww_ok[k].is_some() {
            continue;
        }
        let p = &pool[k];
        let decide = || {
            let rel = ww_relation(&p.history, &p.update_order);
            let cond = Condition::MSequentialConsistency;
            match check_with_relation(&p.history, cond, &rel, Strategy::Constraint(Constraint::Ww))
            {
                Ok(r) if r.satisfied => Ok(()),
                Ok(r) => Err(format!(
                    "history {k} is not m-SC: {}",
                    r.reason.unwrap_or_default()
                )),
                Err(e) => Err(format!("history {k}: Theorem 7 check failed: {e}")),
            }
        };
        ww_ok[k] = Some(match trace.as_mut() {
            Some(t) => t.time("checker.check_with_relation", k as u32, decide),
            None => decide(),
        });
    }

    let mut lat: Vec<u64> = Vec::new();
    let mut rates = Vec::new();
    let mut elapsed = Duration::ZERO;
    let mut unverified = 0u64;
    let mut completions = 0u64;
    let mut events = 0u64;
    let mut stats = MonitorStats::default();
    for (k, out) in &mut outs {
        pass.attempted += out.mops;
        let failure = out
            .failure
            .clone()
            .or_else(|| ww_ok[*k].clone().and_then(Result::err));
        if let Some(f) = failure {
            pass.failed += out.mops;
            pass.failures.push(f);
        }
        elapsed += out.elapsed;
        rates.push(ratio(out.mops as f64, out.elapsed.as_secs_f64()));
        lat.append(&mut out.lat);
        unverified += out.unverified;
        completions += out.stats.completions;
        events += out.stats.invocations + out.stats.completions;
        stats.windows_checked += out.stats.windows_checked;
        stats.retired += out.stats.retired;
        stats.force_dropped += out.stats.force_dropped;
        stats.skipped += out.stats.skipped;
        stats.check_errors += out.stats.check_errors;
        stats.peak_live_nodes = stats.peak_live_nodes.max(out.stats.peak_live_nodes);
        stats.peak_window = stats.peak_window.max(out.stats.peak_window);
    }
    pass.failures.dedup();
    lat.sort_unstable();
    pass.setup_s = median(&setups);
    pass.ops_per_s = median(&rates);
    pass.latency_p50_us = percentile(&lat, 50.0) as f64 / 1e3;
    pass.latency_p99_us = percentile(&lat, 99.0) as f64 / 1e3;
    pass.latency_samples = lat.len() as u64;
    pass.unverified_frac = ratio(unverified as f64, completions as f64);
    pass.verify_events_per_s = ratio(events as f64, elapsed.as_secs_f64());

    if let Some(mut t) = trace {
        // Re-check each distinct history's certificate windows once.
        for (k, out) in &outs {
            for c in &out.certs {
                t.time("checker.check", *k as u32, || {
                    check(&c.window, c.condition, Strategy::Auto)
                })
                .ok();
            }
        }
        let us = |ns: u64| ns as f64 / 1e3;
        let on_complete = t.durations("monitor.on_complete");
        let window_checks = t.durations("checker.check");
        let audits = t.durations("audit.audit");
        let ms = |name: &str| median(&t.sums_by_parent(name)) / 1e6;
        let l = &mut pass.layers;
        l.insert(
            "monitor.on_complete_us.p50",
            us(percentile(&on_complete, 50.0)),
        );
        l.insert(
            "monitor.on_complete_us.p99",
            us(percentile(&on_complete, 99.0)),
        );
        l.insert(
            "monitor.on_complete_us.max",
            us(on_complete.last().copied().unwrap_or(0)),
        );
        l.insert("monitor.flush_ms", ms("monitor.flush"));
        l.insert("monitor.windows_checked", stats.windows_checked as f64);
        l.insert("monitor.peak_live_nodes", stats.peak_live_nodes as f64);
        l.insert("monitor.peak_window", stats.peak_window as f64);
        l.insert(
            "monitor.retired_frac",
            ratio(stats.retired as f64, completions as f64),
        );
        l.insert("monitor.force_dropped", stats.force_dropped as f64);
        l.insert("monitor.skipped", stats.skipped as f64);
        l.insert("monitor.check_errors", stats.check_errors as f64);
        l.insert(
            "checker.window_check_us.p50",
            us(percentile(&window_checks, 50.0)),
        );
        l.insert(
            "checker.window_check_us.p99",
            us(percentile(&window_checks, 99.0)),
        );
        l.insert("checker.ww_check_ms", ms("checker.check_with_relation"));
        l.insert("audit.cert_us.p50", us(percentile(&audits, 50.0)));
        l.insert("audit.cert_us.p99", us(percentile(&audits, 99.0)));
        l.insert("audit.total_ms", ms("audit.audit"));
        l.insert("sim.generate_ms", ms("sim.run_cluster"));
        args.write_trace(&t);
    }
    pass
}
