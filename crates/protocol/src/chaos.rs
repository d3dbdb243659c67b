//! Chaos harness: hosts protocol replicas on the fault-injecting
//! simulator, with the [`moc_abcast::ReliableLink`] sublayer between the
//! replicas and the wire.
//!
//! This is [`crate::harness`] hardened for hostile networks. The stack is
//!
//! ```text
//!   client script  →  replica protocol (msc / mlin / aggregate)
//!                  →  reliable link (seq/ack/retransmit/dedup/rejoin)
//!                  →  moc-sim network with a FaultPlan (drop/dup/
//!                     partition/crash)
//! ```
//!
//! The link re-establishes the paper's reliable-reordering-channel
//! contract, so the Theorem 15/20 guarantees must survive any
//! *recoverable* fault plan (all partitions heal, all crashes restart,
//! drop probability < 1): the recorded history must still check out as
//! m-sequentially consistent / m-linearizable. The chaos conformance
//! suite sweeps seeds × plans and verifies exactly that, auditing every
//! certificate independently.
//!
//! Unlike the fair-weather harness, nothing here panics on protocol
//! misbehavior: a sabotaged link ([`moc_abcast::LinkConfig::sabotaged`])
//! is *expected* to corrupt executions, and the interesting output is the
//! anomaly tally plus a history the checker can refute. Orphaned
//! completions, unfinished scripts, delivery-log divergence and
//! non-quiescence are all recorded in [`ChaosAnomalies`] instead of
//! tripping asserts.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use moc_abcast::{Abcast, LinkMsg, OrderingConfig, Outbox, ReliableLink};
pub use moc_abcast::{LinkConfig, LinkStats};
use moc_core::history::History;
use moc_core::ids::{MOpId, ProcessId};
use moc_core::mop::{EventTime, MOpClass, MOpRecord};
use moc_monitor::OnlineMonitor;
pub use moc_monitor::{MonitorConfig, MonitorRunSummary};
use moc_sim::{Context, FaultPlan, NetworkConfig, Node, RunStats, TimerId, World};

use crate::harness::{ClientScript, OpSpec};
use crate::{channel_logs, MOperation, ReplicaMetrics, ReplicaProtocol};

/// Configuration of a chaos run: the cluster, the fault plan, and the
/// link-layer tuning.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Size of the shared-object universe.
    pub num_objects: usize,
    /// Network delay model.
    pub network: NetworkConfig,
    /// The fault schedule (deterministic per `(seed, faults)`).
    pub faults: FaultPlan,
    /// Reliable-link tuning (or [`LinkConfig::sabotaged`]).
    pub link: LinkConfig,
    /// Simulator seed.
    pub seed: u64,
    /// Event budget; exceeding it sets [`ChaosAnomalies::stalled`] rather
    /// than panicking (a plan that never lets the run quiesce is data,
    /// not a crash).
    pub max_events: u64,
    /// The ordering configuration every replica's broadcast is built
    /// with: failover timeouts, shard partition, commute plan, batching.
    /// Each backend reads only the fields it uses.
    pub ordering: OrderingConfig,
    /// When set, an [`OnlineMonitor`] sentinel rides along: every
    /// invocation and completion is streamed into it as it happens (in
    /// simulated time), and the run report carries the rolling
    /// certificates, verdict timeline and any latched violation.
    pub monitor: Option<MonitorConfig>,
}

impl ChaosConfig {
    /// A config with default network, benign faults and default link.
    pub fn new(num_objects: usize, seed: u64) -> Self {
        ChaosConfig {
            num_objects,
            network: NetworkConfig::default(),
            faults: FaultPlan::default(),
            link: LinkConfig::default(),
            seed,
            max_events: 20_000_000,
            ordering: OrderingConfig::default(),
            monitor: None,
        }
    }

    /// Overrides the network model.
    pub fn with_network(mut self, network: NetworkConfig) -> Self {
        self.network = network;
        self
    }

    /// Installs a fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Overrides the link configuration.
    pub fn with_link(mut self, link: LinkConfig) -> Self {
        self.link = link;
        self
    }

    /// Overrides the event budget. Negative controls that crash the fixed
    /// sequencer *expect* a stall; a small budget keeps them fast.
    pub fn with_max_events(mut self, max_events: u64) -> Self {
        self.max_events = max_events;
        self
    }

    /// Sets the failover suspicion timeouts (base and cap of the
    /// exponential backoff) of every replica's broadcast.
    pub fn with_failover_timeouts(mut self, base_ns: u64, max_ns: u64) -> Self {
        self.ordering.failover = Some((base_ns, max_ns));
        self
    }

    /// Builds every replica's broadcast over a shard partition (see
    /// [`OrderingConfig::shard_plan`]).
    pub fn with_shard_plan(mut self, plan: moc_core::shard::ShardPlan) -> Self {
        self.ordering.shard_plan = Some(plan);
        self
    }

    /// Builds every replica's broadcast with a commute certificate's
    /// delivery plan (see [`OrderingConfig::commute_plan`]).
    pub fn with_commute_plan(mut self, plan: moc_core::commute::CommutePlan) -> Self {
        self.ordering.commute_plan = Some(plan);
        self
    }

    /// Builds every replica's broadcast with group-commit batching (see
    /// [`OrderingConfig::batch`]).
    pub fn with_batching(mut self, cfg: moc_abcast::BatchConfig) -> Self {
        self.ordering.batch = cfg;
        self
    }

    /// Attaches an online consistency sentinel to the run (see
    /// [`ChaosRunReport::monitor`]).
    pub fn with_monitor(mut self, monitor: MonitorConfig) -> Self {
        self.monitor = Some(monitor);
        self
    }
}

/// Irregularities observed during a chaos run. All zero/false on a
/// healthy stack with a recoverable plan; a sabotaged link is expected to
/// light these up.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosAnomalies {
    /// Completions that did not match the client's inflight m-operation
    /// (e.g. double application of a duplicated broadcast frame).
    pub orphan_completions: u64,
    /// Scripted m-operations that never finished (still queued or
    /// inflight at the end of the run).
    pub unfinished_ops: u64,
    /// Replicas disagreed on the atomic-broadcast delivery order (for
    /// sharded broadcasts: on some channel's order).
    pub delivery_divergence: bool,
    /// Replica object stores did not converge at the end of the run. On
    /// a quiescent run with every update delivered everywhere, stores
    /// must agree; divergence is how a *mis-sharded* partition (two
    /// conflicting writers routed to different shard channels) surfaces
    /// even when every individual channel's order is agreed.
    pub store_divergence: bool,
    /// Entries on a replica-private read-only fast-path channel that
    /// violated its contract: issued by another process, never completed
    /// at the owning replica, or — the dangerous case — containing a
    /// write that bypassed the agreed order. The private channel is
    /// excluded from [`ChaosAnomalies::delivery_divergence`] (its
    /// contents legitimately differ per replica), so this counter is
    /// what keeps a misbehaving commute fast path from slipping past
    /// the harness.
    pub fast_path_violations: u64,
    /// The run exhausted its event budget before quiescing.
    pub stalled: bool,
}

impl ChaosAnomalies {
    /// Whether the run completed with no irregularities.
    pub fn is_clean(&self) -> bool {
        *self == ChaosAnomalies::default()
    }
}

/// The outcome of a chaos run: the (attempted) history plus metrics and
/// the anomaly tally.
#[derive(Debug, Clone)]
pub struct ChaosRunReport {
    /// Short name of the protocol that ran.
    pub protocol: &'static str,
    /// The recorded history, or the validation error if the run produced
    /// structurally invalid records (possible — and itself evidence —
    /// under a sabotaged link).
    pub history: Result<History, String>,
    /// Response time of every completed m-operation, by class (ns).
    pub latencies: Vec<(MOpClass, u64)>,
    /// Per-replica protocol message counters.
    pub replica_metrics: Vec<ReplicaMetrics>,
    /// Per-replica link counters (retransmissions, dedup discards, …).
    pub link_stats: Vec<LinkStats>,
    /// Simulator counters, including fault counters (drops, duplicates,
    /// crashes).
    pub sim: RunStats,
    /// Replica 0's atomic-broadcast delivery order.
    pub update_order: Vec<MOpId>,
    /// Replica 0's delivery order split by ordering channel (trailing
    /// empty channels trimmed; see [`crate::channel_logs`]). One entry —
    /// the whole log — for single-order broadcasts.
    pub channel_logs: Vec<Vec<MOpId>>,
    /// Per-replica logs of the replica-private read-only fast-path
    /// channel (empty when no broadcast arms one). These legitimately
    /// differ across replicas; the harness verifies each entry's
    /// contract instead of comparing them (see
    /// [`ChaosAnomalies::fast_path_violations`]).
    pub private_fast_logs: Vec<Vec<MOpId>>,
    /// Irregularities observed during the run.
    pub anomalies: ChaosAnomalies,
    /// Per-replica broadcast transcripts (view changes, failover events).
    /// Empty vectors for static broadcasts; deterministic per seed, so
    /// replays must produce identical transcripts.
    pub view_transcripts: Vec<Vec<String>>,
    /// Per-replica count of deliveries the broadcast applied through a
    /// commute fast path (all zero without a commute plan configured).
    pub commute_fast_applied: Vec<u64>,
    /// Per-replica group-commit counters from the broadcast (all zero
    /// without batching configured).
    pub batch_stats: Vec<moc_abcast::BatchStats>,
    /// The online sentinel's run summary — rolling certificates, verdict
    /// timeline, and any latched violation with its detection latency —
    /// when [`ChaosConfig::monitor`] was set. `None` otherwise.
    pub monitor: Option<MonitorRunSummary>,
}

impl ChaosRunReport {
    /// The history fingerprint (replay identity), when the history is
    /// valid.
    pub fn fingerprint(&self) -> Option<u64> {
        self.history.as_ref().ok().map(moc_core::codec::fingerprint)
    }

    /// The p-th percentile (0..=100) response time for `class`.
    pub fn percentile_latency(&self, class: MOpClass, p: f64) -> Option<u64> {
        let mut xs: Vec<u64> = self
            .latencies
            .iter()
            .filter(|(c, _)| *c == class)
            .map(|&(_, l)| l)
            .collect();
        if xs.is_empty() {
            return None;
        }
        xs.sort_unstable();
        let rank = ((p / 100.0) * (xs.len() - 1) as f64).round() as usize;
        Some(xs[rank.min(xs.len() - 1)])
    }

    /// Aggregated group-commit counters across all replicas.
    pub fn total_batch_stats(&self) -> moc_abcast::BatchStats {
        let mut t = moc_abcast::BatchStats::default();
        for s in &self.batch_stats {
            t.merge(*s);
        }
        t
    }

    /// Aggregated link counters across all replicas.
    pub fn total_link_stats(&self) -> LinkStats {
        self.link_stats
            .iter()
            .fold(LinkStats::default(), |t, s| t.merge(s))
    }

    /// The relation `~p ∪ ~rf ∪ ~ww` over the recorded history (see
    /// [`crate::harness::RunReport::ww_relation`]). `None` when the
    /// history is invalid.
    pub fn ww_relation(&self) -> Option<moc_core::relations::Relation> {
        use moc_core::relations::{process_order, reads_from};
        let h = self.history.as_ref().ok()?;
        let mut rel = process_order(h).union(&reads_from(h));
        for pair in self.update_order.windows(2) {
            if let (Some(a), Some(b)) = (h.idx_of(pair[0]), h.idx_of(pair[1])) {
                rel.add(a, b);
            }
        }
        Some(rel)
    }
}

/// A replica + scripted client + reliable-link endpoint, hosted as one
/// fault-tolerant simulator node.
struct ChaosNode<R: ReplicaProtocol> {
    me: ProcessId,
    n: usize,
    replica: R,
    link: ReliableLink<R::Msg>,
    script: VecDeque<OpSpec>,
    think_ns: u64,
    start_delay_ns: u64,
    next_seq: u32,
    inflight: Option<(MOpId, u64)>,
    records: Vec<MOpRecord>,
    latencies: Vec<(MOpClass, u64)>,
    /// The currently armed think timer; any other timer is a link tick.
    think_timer: Option<TimerId>,
    /// The earliest link deadline a tick timer is armed for.
    tick_deadline: Option<u64>,
    orphan_completions: u64,
    /// The run-wide online sentinel, shared by every node (the simulator
    /// is single-threaded, so a `Rc<RefCell<..>>` suffices).
    monitor: Option<Rc<RefCell<OnlineMonitor>>>,
}

impl<R: ReplicaProtocol> ChaosNode<R> {
    /// Frames the replica's outbox through the link and hands the wire
    /// traffic to the simulator.
    fn relay(&mut self, out: &mut Outbox<R::Msg>, ctx: &mut Context<'_, LinkMsg<R::Msg>>) {
        let now = ctx.now().as_nanos();
        let mut wire = Vec::new();
        for (to, m) in out.drain() {
            self.link.send(to, m, now, &mut wire);
        }
        for (to, f) in wire {
            ctx.send(to, f);
        }
    }

    /// Arms a tick timer for the earliest pending deadline — link
    /// retransmission or broadcast failover suspicion, whichever comes
    /// first — unless one at least as early is already armed. Superseded
    /// timers still fire and run a (harmless, idempotent) early tick.
    fn arm_tick(&mut self, ctx: &mut Context<'_, LinkMsg<R::Msg>>) {
        let deadlines = [
            self.link.next_deadline(),
            self.replica.ordering().next_deadline(),
        ];
        let Some(d) = deadlines.into_iter().flatten().min() else {
            return;
        };
        if self.tick_deadline.is_none_or(|armed| armed > d) {
            let delay = d.saturating_sub(ctx.now().as_nanos()).max(1);
            ctx.set_timer(delay);
            self.tick_deadline = Some(d);
        }
    }

    fn invoke_next(&mut self, ctx: &mut Context<'_, LinkMsg<R::Msg>>) {
        if self.inflight.is_some() {
            // A stale think timer (e.g. re-armed across a crash window):
            // the previous m-operation is still being recovered.
            return;
        }
        let Some(spec) = self.script.pop_front() else {
            return;
        };
        let id = MOpId::new(self.me, self.next_seq);
        self.next_seq += 1;
        self.inflight = Some((id, ctx.now().as_nanos()));
        if let Some(m) = &self.monitor {
            m.borrow_mut().on_invoke(id, ctx.now().as_nanos());
        }
        let mop = MOperation::new(id, spec.program, spec.args);
        let mut out = Outbox::new(self.n);
        self.replica.invoke(mop, &mut out);
        self.relay(&mut out, ctx);
        self.drain(ctx);
        self.arm_tick(ctx);
    }

    fn drain(&mut self, ctx: &mut Context<'_, LinkMsg<R::Msg>>) {
        for c in self.replica.drain_completions() {
            match self.inflight {
                Some((id, invoked_ns)) if c.id == id => {
                    self.inflight = None;
                    let now = ctx.now().as_nanos();
                    let record = MOpRecord {
                        id,
                        invoked_at: EventTime::from_nanos(invoked_ns),
                        responded_at: EventTime::from_nanos(now),
                        ops: c.ops,
                        outputs: c.outputs,
                        treated_as: c.treated_as,
                        label: c.label,
                    };
                    if let Some(m) = &self.monitor {
                        m.borrow_mut().on_complete(record.clone(), now);
                    }
                    self.latencies.push((record.treated_as, now - invoked_ns));
                    self.records.push(record);
                    if !self.script.is_empty() {
                        self.think_timer = Some(ctx.set_timer(self.think_ns.max(1)));
                    }
                }
                // A completion with no (or the wrong) inflight op: a
                // duplicated broadcast frame was applied twice. Tally it;
                // the history keeps the first completion only.
                _ => self.orphan_completions += 1,
            }
        }
    }
}

impl<R: ReplicaProtocol> Node for ChaosNode<R> {
    type Msg = LinkMsg<R::Msg>;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        if !self.script.is_empty() {
            self.think_timer = Some(ctx.set_timer(self.start_delay_ns.max(1)));
        }
    }

    fn on_message(&mut self, from: ProcessId, frame: Self::Msg, ctx: &mut Context<'_, Self::Msg>) {
        let now = ctx.now().as_nanos();
        let mut wire = Vec::new();
        let ready = self.link.on_wire(from, frame, now, &mut wire);
        for (to, f) in wire {
            ctx.send(to, f);
        }
        for m in ready {
            let mut out = Outbox::new(self.n);
            self.replica.on_message(from, m, &mut out);
            self.relay(&mut out, ctx);
        }
        self.drain(ctx);
        self.arm_tick(ctx);
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut Context<'_, Self::Msg>) {
        if self.think_timer == Some(timer) {
            self.think_timer = None;
            self.invoke_next(ctx);
        } else {
            // A link/abcast tick (possibly superseded or early — both
            // on_tick hooks only act on deadlines that are actually due).
            self.tick_deadline = None;
            let now = ctx.now().as_nanos();
            let mut wire = Vec::new();
            self.link.on_tick(now, &mut wire);
            for (to, f) in wire {
                ctx.send(to, f);
            }
            // A due suspicion timer can start or escalate a view change,
            // and a completed change can release buffered deliveries.
            let mut out = Outbox::new(self.n);
            self.replica.on_tick(now, &mut out);
            self.relay(&mut out, ctx);
            self.drain(ctx);
            self.arm_tick(ctx);
        }
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        // Timers armed before the outage were suppressed with it; the
        // link's rejoin handshake recovers in-flight protocol traffic.
        let now = ctx.now().as_nanos();
        let mut wire = Vec::new();
        self.link.on_restart(now, &mut wire);
        for (to, f) in wire {
            ctx.send(to, f);
        }
        // Let the broadcast react to its own outage: a restarted fixed
        // sequencer fail-stops, a view-based one resyncs its suspicion
        // clock and catches up as a follower.
        let mut out = Outbox::new(self.n);
        self.replica.on_restart(now, &mut out);
        self.relay(&mut out, ctx);
        self.drain(ctx);
        self.think_timer = None;
        self.tick_deadline = None;
        self.arm_tick(ctx);
        if self.inflight.is_none() && !self.script.is_empty() {
            self.think_timer = Some(ctx.set_timer(self.think_ns.max(1)));
        }
    }
}

/// Splits one replica's channel logs into the shared (wire-agreed)
/// channels and the log of its private read-only fast-path channel, if
/// the broadcast arms one.
fn split_private_channel<R: ReplicaProtocol>(node: &ChaosNode<R>) -> (Vec<Vec<MOpId>>, Vec<MOpId>) {
    let mut logs = channel_logs(&node.replica);
    let mut private_log = Vec::new();
    if let Some(c) = node.replica.ordering().private_channel() {
        let c = c as usize;
        if c < logs.len() {
            private_log = std::mem::take(&mut logs[c]);
            while logs.last().is_some_and(|l| l.is_empty()) {
                logs.pop();
            }
        }
    }
    (logs, private_log)
}

/// Verifies one replica's private fast-path channel log against its
/// contract: every entry must have been issued by the owning replica
/// itself and must correspond to a completed m-operation that performed
/// no writes (a write applied outside the agreed order is exactly the
/// corruption the fast path must never introduce). Returns the number of
/// violating entries.
fn private_channel_violations(me: ProcessId, log: &[MOpId], records: &[MOpRecord]) -> u64 {
    log.iter()
        .map(|id| {
            if id.process != me {
                return 1;
            }
            match records.iter().find(|r| r.id == *id) {
                None => 1,
                Some(r) => u64::from(
                    r.ops
                        .iter()
                        .any(|op| op.kind == moc_core::op::OpKind::Write),
                ),
            }
        })
        .sum()
}

/// Runs protocol `R` over `scripts` (one per process) on the
/// fault-injecting simulator with the reliable link in between, and
/// reports everything observed. Never panics on protocol misbehavior —
/// see [`ChaosAnomalies`].
pub fn run_chaos_cluster<R: ReplicaProtocol + 'static>(
    config: &ChaosConfig,
    scripts: Vec<ClientScript>,
) -> ChaosRunReport {
    let n = scripts.len();
    assert!(n > 0, "need at least one process");
    let sentinel = config
        .monitor
        .clone()
        .map(|mc| Rc::new(RefCell::new(OnlineMonitor::new(config.num_objects, mc))));
    let nodes: Vec<ChaosNode<R>> = scripts
        .into_iter()
        .enumerate()
        .map(|(p, script)| ChaosNode {
            me: ProcessId::new(p as u32),
            n,
            replica: R::new(
                ProcessId::new(p as u32),
                n,
                config.num_objects,
                &config.ordering,
            ),
            link: ReliableLink::new(ProcessId::new(p as u32), n, config.link),
            script: script.ops.into(),
            think_ns: script.think_ns,
            start_delay_ns: script.start_delay_ns,
            next_seq: 0,
            inflight: None,
            records: Vec::new(),
            latencies: Vec::new(),
            think_timer: None,
            tick_deadline: None,
            orphan_completions: 0,
            monitor: sentinel.clone(),
        })
        .collect();
    let mut world = World::with_faults(nodes, config.network, config.faults.clone(), config.seed);
    let mut events = 0u64;
    let mut stalled = true;
    while events < config.max_events {
        if !world.step() {
            stalled = false;
            break;
        }
        events += 1;
    }
    let sim = world.stats();
    let nodes = world.into_nodes();

    let mut anomalies = ChaosAnomalies {
        stalled,
        ..ChaosAnomalies::default()
    };
    let update_order: Vec<MOpId> = nodes[0].replica.delivery_log().to_vec();
    // Agreement is per ordering channel: single-order broadcasts report
    // one channel (the whole log, so this is the old whole-log check);
    // sharded broadcasts may legitimately interleave commuting channels
    // differently per replica, but each channel's log must be identical.
    // The replica-private read-only fast-path channel is split off first:
    // its contents never cross the wire and legitimately differ per
    // replica, so it is verified entry-by-entry instead of compared.
    let (reference_channels, _) = split_private_channel(&nodes[0]);
    let mut private_fast_logs = Vec::with_capacity(nodes.len());
    for node in &nodes {
        let (shared, private_log) = split_private_channel(node);
        if shared != reference_channels {
            anomalies.delivery_divergence = true;
        }
        anomalies.fast_path_violations +=
            private_channel_violations(node.me, &private_log, &node.records);
        private_fast_logs.push(private_log);
        if node.replica.store() != nodes[0].replica.store() {
            anomalies.store_divergence = true;
        }
    }
    let mut records = Vec::new();
    let mut latencies = Vec::new();
    let mut replica_metrics = Vec::new();
    let mut link_stats = Vec::new();
    let mut view_transcripts = Vec::new();
    let mut commute_fast_applied = Vec::new();
    let mut batch_stats = Vec::new();
    let mut end_ns = 0u64;
    for node in nodes {
        anomalies.orphan_completions += node.orphan_completions;
        anomalies.unfinished_ops += node.script.len() as u64 + u64::from(node.inflight.is_some());
        for r in &node.records {
            end_ns = end_ns.max(r.responded_at.as_nanos());
        }
        records.extend(node.records);
        latencies.extend(node.latencies);
        replica_metrics.push(node.replica.metrics());
        link_stats.push(node.link.stats());
        let ordering = node.replica.ordering();
        view_transcripts.push(ordering.transcript());
        commute_fast_applied.push(ordering.commute_fast_applied());
        batch_stats.push(ordering.batch_stats());
    }
    let history = History::new(config.num_objects, records).map_err(|e| e.to_string());
    // All node clones of the sentinel were dropped when the nodes were
    // consumed above, so the unwrap cannot fail.
    let monitor = sentinel.map(|m| {
        let mut mon = Rc::try_unwrap(m)
            .unwrap_or_else(|_| unreachable!("nodes consumed"))
            .into_inner();
        mon.flush(end_ns + 1);
        mon.into_summary()
    });
    ChaosRunReport {
        protocol: R::protocol_name(),
        history,
        latencies,
        replica_metrics,
        link_stats,
        sim,
        update_order,
        channel_logs: reference_channels,
        private_fast_logs,
        anomalies,
        view_transcripts,
        commute_fast_applied,
        batch_stats,
        monitor,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MlinOverSequencer, MscOverSequencer, MscOverSharded, MscOverView};
    use moc_core::ids::ObjectId;
    use moc_core::program::{reg, ProgramBuilder};
    use moc_sim::DelayModel;
    use std::sync::Arc;

    fn write_x() -> Arc<moc_core::program::Program> {
        let mut b = ProgramBuilder::new("wx");
        b.write(ObjectId::new(0), moc_core::program::arg(0))
            .ret(vec![]);
        Arc::new(b.build().unwrap())
    }

    fn read_x() -> Arc<moc_core::program::Program> {
        let mut b = ProgramBuilder::new("rx");
        b.read(ObjectId::new(0), 0).ret(vec![reg(0)]);
        Arc::new(b.build().unwrap())
    }

    fn scripts() -> Vec<ClientScript> {
        vec![
            ClientScript::new(vec![
                OpSpec::new(write_x(), vec![5]),
                OpSpec::new(read_x(), vec![]),
            ]),
            ClientScript::new(vec![
                OpSpec::new(read_x(), vec![]),
                OpSpec::new(write_x(), vec![9]),
            ]),
            ClientScript::new(vec![OpSpec::new(read_x(), vec![])]),
        ]
    }

    #[test]
    fn benign_chaos_run_matches_fair_weather_expectations() {
        let cfg = ChaosConfig::new(1, 11);
        let report = run_chaos_cluster::<MscOverSequencer>(&cfg, scripts());
        assert!(report.anomalies.is_clean(), "{:?}", report.anomalies);
        let h = report.history.as_ref().expect("valid history");
        assert_eq!(h.len(), 5);
        assert_eq!(report.sim.messages_dropped, 0);
        assert!(report.total_link_stats().retransmissions == 0);
    }

    #[test]
    fn msc_completes_under_drops_and_duplicates() {
        let cfg = ChaosConfig::new(1, 23)
            .with_network(NetworkConfig::with_delay(DelayModel::Uniform {
                lo: 50,
                hi: 2_000,
            }))
            .with_faults(FaultPlan::lossy(0.25).with_dup(0.15))
            .with_link(LinkConfig {
                rto_ns: 10_000,
                max_rto_ns: 160_000,
                ..LinkConfig::default()
            });
        let report = run_chaos_cluster::<MscOverSequencer>(&cfg, scripts());
        assert!(report.anomalies.is_clean(), "{:?}", report.anomalies);
        let h = report.history.as_ref().expect("valid history");
        assert_eq!(h.len(), 5, "every scripted op completed despite faults");
        assert!(report.sim.messages_dropped > 0, "the plan actually dropped");
        assert!(
            report.total_link_stats().retransmissions > 0,
            "losses were recovered by retransmission"
        );
    }

    #[test]
    fn mlin_completes_across_a_crash_window() {
        let cfg = ChaosConfig::new(1, 5)
            .with_network(NetworkConfig::fifo(1_000))
            .with_faults(FaultPlan::default().with_crash(ProcessId::new(2), 3_000, 500_000))
            .with_link(LinkConfig {
                rto_ns: 20_000,
                max_rto_ns: 320_000,
                ..LinkConfig::default()
            });
        let report = run_chaos_cluster::<MlinOverSequencer>(&cfg, scripts());
        assert!(report.anomalies.is_clean(), "{:?}", report.anomalies);
        let h = report.history.as_ref().expect("valid history");
        assert_eq!(h.len(), 5);
        assert_eq!(report.sim.crashes, 1);
        assert_eq!(report.sim.restarts, 1);
        let link = report.total_link_stats();
        assert!(
            link.rejoins > 0,
            "the crashed replica ran the rejoin handshake"
        );
    }

    #[test]
    fn chaos_runs_are_deterministic() {
        let mk = || {
            let cfg = ChaosConfig::new(1, 77).with_faults(FaultPlan::lossy(0.2).with_dup(0.1));
            run_chaos_cluster::<MscOverSequencer>(&cfg, scripts())
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.sim, b.sim);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert!(a.fingerprint().is_some());
        assert_eq!(a.latencies, b.latencies);
    }

    /// Like [`scripts`], but paced so the second round of updates is
    /// still in flight when a crash at ~5µs lands.
    fn slow_scripts() -> Vec<ClientScript> {
        scripts()
            .into_iter()
            .map(|s| s.with_think_time(10_000))
            .collect()
    }

    #[test]
    fn view_abcast_survives_a_leader_crash() {
        // Crash the initial leader (P0) mid-run. The survivors must
        // suspect it, install view 1 under P1, re-propose anything
        // unordered, and finish every scripted op; P0 rejoins through
        // the link handshake and catches up as a follower.
        let cfg = ChaosConfig::new(1, 13)
            .with_network(NetworkConfig::fifo(1_000))
            .with_faults(FaultPlan::default().with_crash(ProcessId::new(0), 5_000, 600_000))
            .with_link(LinkConfig {
                rto_ns: 20_000,
                max_rto_ns: 320_000,
                ..LinkConfig::default()
            });
        let report = run_chaos_cluster::<MscOverView>(&cfg, slow_scripts());
        assert!(report.anomalies.is_clean(), "{:?}", report.anomalies);
        let h = report.history.as_ref().expect("valid history");
        assert_eq!(h.len(), 5, "every scripted op completed across failover");
        let survivors_changed_view = report.view_transcripts[1..].iter().all(|t| {
            t.iter()
                .any(|line| line.contains("install v1") || line.contains("adopt v1"))
        });
        assert!(
            survivors_changed_view,
            "survivors moved to view 1: {:?}",
            report.view_transcripts
        );
    }

    #[test]
    fn crashed_fixed_sequencer_is_detected_not_silent() {
        // The same crash under the fixed sequencer: the restarted
        // sequencer fail-stops instead of restamping from a stale
        // counter, so the run surfaces unfinished updates rather than a
        // silently forked order.
        let cfg = ChaosConfig::new(1, 13)
            .with_network(NetworkConfig::fifo(1_000))
            .with_faults(FaultPlan::default().with_crash(ProcessId::new(0), 5_000, 600_000))
            .with_link(LinkConfig {
                rto_ns: 20_000,
                max_rto_ns: 320_000,
                ..LinkConfig::default()
            });
        let report = run_chaos_cluster::<MscOverSequencer>(&cfg, slow_scripts());
        assert!(
            !report.anomalies.is_clean(),
            "a dead coordinator must be detectable: {:?}",
            report.anomalies
        );
        assert!(report.anomalies.unfinished_ops > 0 || report.anomalies.stalled);
        assert!(
            report.view_transcripts[0]
                .iter()
                .any(|line| line.contains("halted")),
            "the restarted sequencer recorded its fail-stop: {:?}",
            report.view_transcripts
        );
        assert!(
            !report.anomalies.delivery_divergence,
            "fail-stop prevents order corruption"
        );
    }

    #[test]
    fn sabotaged_link_surfaces_anomalies() {
        // With dedup off, duplicated frames reach the protocol; somewhere
        // in this seed range a duplicate Submit double-applies an update.
        let mut saw_orphans = false;
        for seed in 0..40 {
            let cfg = ChaosConfig::new(1, seed)
                .with_network(NetworkConfig::with_delay(DelayModel::Uniform {
                    lo: 50,
                    hi: 5_000,
                }))
                .with_faults(FaultPlan::default().with_dup(0.5))
                .with_link(LinkConfig::sabotaged());
            let report = run_chaos_cluster::<MscOverSequencer>(&cfg, scripts());
            if report.anomalies.orphan_completions > 0 {
                saw_orphans = true;
                break;
            }
        }
        assert!(saw_orphans, "sabotage never produced a double application");
    }

    /// Contract check for the private fast-path channel, in isolation: a
    /// foreign id, a never-completed id, and a write-carrying entry are
    /// each one violation; a locally completed read-only entry is none.
    #[test]
    fn private_channel_contract_flags_foreign_missing_and_writing_entries() {
        use moc_core::op::CompletedOp;
        let me = ProcessId::new(1);
        let x = ObjectId::new(0);
        let mk_rec = |id: MOpId, ops: Vec<CompletedOp>| MOpRecord {
            id,
            invoked_at: EventTime::from_nanos(0),
            responded_at: EventTime::from_nanos(1),
            ops,
            outputs: vec![],
            treated_as: MOpClass::Query,
            label: "t".to_string(),
        };
        let mine_ro = MOpId::new(me, 0);
        let mine_w = MOpId::new(me, 1);
        let foreign = MOpId::new(ProcessId::new(2), 0);
        let missing = MOpId::new(me, 9);
        let records = vec![
            mk_rec(mine_ro, vec![CompletedOp::read(x, 0, MOpId::INITIAL, 0)]),
            mk_rec(mine_w, vec![CompletedOp::write(x, 5, mine_w, 1)]),
        ];
        assert_eq!(private_channel_violations(me, &[mine_ro], &records), 0);
        assert_eq!(
            private_channel_violations(me, &[foreign], &records),
            1,
            "an entry issued elsewhere cannot be a local self-delivery"
        );
        assert_eq!(
            private_channel_violations(me, &[missing], &records),
            1,
            "an entry with no completion record is unaccounted for"
        );
        assert_eq!(
            private_channel_violations(me, &[mine_w], &records),
            1,
            "a write smuggled past the agreed order is the critical case"
        );
        assert_eq!(
            private_channel_violations(me, &[mine_ro, foreign, mine_w], &records),
            2
        );
    }

    /// Live exercise of the private-channel verification: the aggregate
    /// baseline over the conflict-sharded broadcast *broadcasts its
    /// queries*, so with a certified commute plan installed they take the
    /// replica-private read-only fast path. The harness must treat those
    /// replica-local logs as legitimate (no divergence false-positive)
    /// while still verifying every entry's read-only contract.
    #[test]
    fn aggregate_fast_path_queries_are_verified_not_flagged() {
        use crate::AggregateOverSharded;
        let write_y = || {
            let mut b = ProgramBuilder::new("wy");
            b.write(ObjectId::new(1), moc_core::program::arg(0))
                .ret(vec![]);
            Arc::new(b.build().unwrap())
        };
        let read_y = || {
            let mut b = ProgramBuilder::new("ry");
            b.read(ObjectId::new(1), 0).ret(vec![reg(0)]);
            Arc::new(b.build().unwrap())
        };
        let programs = [write_x(), write_y(), read_x(), read_y()];
        let refs: Vec<&moc_core::program::Program> = programs.iter().map(|p| p.as_ref()).collect();
        let shard_plan = moc_core::shard::ShardPlan::new(vec![0, 1]).unwrap();
        let analysis = moc_analyze::commute_set(&refs, 2);
        let commute_plan = analysis.cert.delivery_plan(&shard_plan);
        let scripts = vec![
            ClientScript::new(vec![
                OpSpec::new(write_x(), vec![5]),
                OpSpec::new(read_y(), vec![]),
            ]),
            ClientScript::new(vec![
                OpSpec::new(write_y(), vec![7]),
                OpSpec::new(read_x(), vec![]),
            ]),
            ClientScript::new(vec![
                OpSpec::new(read_x(), vec![]),
                OpSpec::new(read_y(), vec![]),
            ]),
        ];
        let cfg = ChaosConfig::new(2, 41)
            .with_shard_plan(shard_plan)
            .with_commute_plan(commute_plan);
        let report = run_chaos_cluster::<AggregateOverSharded>(&cfg, scripts);
        assert!(report.anomalies.is_clean(), "{:?}", report.anomalies);
        let h = report.history.as_ref().expect("valid history");
        assert_eq!(h.len(), 6, "every scripted op completed");
        assert!(
            report.commute_fast_applied.iter().sum::<u64>() >= 4,
            "every broadcast query should self-deliver: {:?}",
            report.commute_fast_applied
        );
        let private_entries: usize = report.private_fast_logs.iter().map(|l| l.len()).sum();
        assert!(
            private_entries >= 4,
            "private logs must surface the fast-path deliveries: {:?}",
            report.private_fast_logs
        );
        for (p, log) in report.private_fast_logs.iter().enumerate() {
            assert!(
                log.iter().all(|id| id.process.index() == p),
                "replica {p} private log must be self-issued: {log:?}"
            );
        }
    }

    /// The online sentinel rides along on a faulty-but-recoverable run:
    /// the stream must stay clean (no latched violation), emit at least
    /// one rolling certificate, and its verdict timeline must cover the
    /// whole run (every completion was ingested).
    #[test]
    fn monitored_chaos_run_reports_clean_timeline() {
        use moc_checker::Condition;
        let cfg = ChaosConfig::new(1, 23)
            .with_network(NetworkConfig::with_delay(DelayModel::Uniform {
                lo: 50,
                hi: 2_000,
            }))
            .with_faults(FaultPlan::lossy(0.25).with_dup(0.15))
            .with_link(LinkConfig {
                rto_ns: 10_000,
                max_rto_ns: 160_000,
                ..LinkConfig::default()
            })
            .with_monitor(MonitorConfig::new(Condition::MSequentialConsistency).with_window(2));
        let report = run_chaos_cluster::<MscOverSequencer>(&cfg, scripts());
        assert!(report.anomalies.is_clean(), "{:?}", report.anomalies);
        let summary = report.monitor.as_ref().expect("sentinel attached");
        assert!(
            summary.violation.is_none(),
            "clean run latched: {:?}",
            summary.violation
        );
        assert_eq!(summary.stats.completions, 5, "every completion streamed");
        assert_eq!(summary.stats.invocations, 5);
        assert!(
            !summary.certs.is_empty(),
            "quiescence points must emit rolling certificates"
        );
        assert!(summary.certs.iter().all(|c| c.admissible));
        // Monitored and unmonitored runs are the same execution: the
        // sentinel only observes.
        let bare = run_chaos_cluster::<MscOverSequencer>(
            &ChaosConfig {
                monitor: None,
                ..cfg.clone()
            },
            scripts(),
        );
        assert_eq!(report.fingerprint(), bare.fingerprint());
    }

    /// Three clients, two writes each: an update burst that gives the
    /// group-commit window something to group.
    fn update_scripts() -> Vec<ClientScript> {
        (0..3i64)
            .map(|p| {
                ClientScript::new(vec![
                    OpSpec::new(write_x(), vec![p * 10 + 1]),
                    OpSpec::new(write_x(), vec![p * 10 + 2]),
                ])
            })
            .collect()
    }

    /// The monitored conformance sweep with group-commit batching on:
    /// every backend must finish every scripted op with a clean anomaly
    /// tally, a violation-free sentinel timeline, admissible rolling
    /// certificates, and batches that actually group (occupancy > 1).
    #[test]
    fn monitored_chaos_sweep_passes_with_batching_enabled() {
        use moc_checker::Condition;
        // The 5µs group-commit window exceeds the 50ns..2µs network
        // spread, so the initial burst of submissions lands in one batch.
        let batch = moc_abcast::BatchConfig {
            max_batch: 4,
            max_delay_ns: 5_000,
        };
        let cfg_for = |seed: u64| {
            ChaosConfig::new(1, seed)
                .with_network(NetworkConfig::with_delay(DelayModel::Uniform {
                    lo: 50,
                    hi: 2_000,
                }))
                .with_faults(FaultPlan::lossy(0.15).with_dup(0.1))
                .with_link(LinkConfig {
                    rto_ns: 10_000,
                    max_rto_ns: 160_000,
                    ..LinkConfig::default()
                })
                .with_batching(batch)
                .with_monitor(MonitorConfig::new(Condition::MSequentialConsistency).with_window(2))
        };
        let check = |report: &ChaosRunReport| {
            assert!(
                report.anomalies.is_clean(),
                "{}: {:?}",
                report.protocol,
                report.anomalies
            );
            let h = report.history.as_ref().expect("valid history");
            assert_eq!(
                h.len(),
                6,
                "{}: every scripted op completed",
                report.protocol
            );
            let summary = report.monitor.as_ref().expect("sentinel attached");
            assert!(
                summary.violation.is_none(),
                "{}: clean run latched: {:?}",
                report.protocol,
                summary.violation
            );
            assert_eq!(summary.stats.completions, 6);
            assert!(summary.certs.iter().all(|c| c.admissible));
            let stats = report.total_batch_stats();
            assert_eq!(stats.items_stamped, 6, "{}: {stats:?}", report.protocol);
            assert!(
                stats.occupancy() > 1.0,
                "{}: batches must group: {:?}",
                report.protocol,
                stats
            );
        };
        for seed in [23u64, 51, 87] {
            check(&run_chaos_cluster::<MscOverSequencer>(
                &cfg_for(seed),
                update_scripts(),
            ));
            check(&run_chaos_cluster::<MscOverView>(
                &cfg_for(seed),
                update_scripts(),
            ));
        }
        // The sharded backend batches per ordering channel.
        for seed in [23u64, 51] {
            let cfg = ChaosConfig::new(1, seed)
                .with_batching(batch)
                .with_shard_plan(moc_core::shard::ShardPlan::new(vec![0]).unwrap())
                .with_monitor(MonitorConfig::new(Condition::MSequentialConsistency).with_window(2));
            let report = run_chaos_cluster::<MscOverSharded>(&cfg, update_scripts());
            assert!(report.anomalies.is_clean(), "{:?}", report.anomalies);
            let h = report.history.as_ref().expect("valid history");
            assert_eq!(h.len(), 6);
            let summary = report.monitor.as_ref().expect("sentinel attached");
            assert!(summary.violation.is_none(), "{:?}", summary.violation);
            assert!(summary.certs.iter().all(|c| c.admissible));
            let stats = report.total_batch_stats();
            assert_eq!(stats.items_stamped, 6, "{stats:?}");
            assert!(stats.occupancy() > 1.0, "{stats:?}");
        }
    }
}
