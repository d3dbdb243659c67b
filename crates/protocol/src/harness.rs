//! Simulation harness: hosts protocol replicas on `moc-sim`, drives
//! scripted clients, and emits validated histories plus metrics.
//!
//! Each process is a replica with a co-located client (the paper's model:
//! processes are sequential and manipulate objects through m-operations,
//! alternately issuing an invocation and receiving the response). The
//! client issues the next m-operation of its script only after the previous
//! one responded, optionally after a think-time delay.
//!
//! Invocation and response events are stamped with virtual time, so the
//! resulting [`History`] carries the exact real-time order `~t` needed to
//! check m-linearizability.

use std::collections::VecDeque;
use std::sync::Arc;

use moc_abcast::{OrderingConfig, Outbox};
use moc_core::history::History;
use moc_core::ids::{MOpId, ProcessId};
use moc_core::mop::{EventTime, MOpClass, MOpRecord};
use moc_core::program::Program;
use moc_core::value::Value;
use moc_sim::{Context, NetworkConfig, Node, RunStats, TimerId, World};

use crate::{channel_logs, MOperation, ReplicaMetrics, ReplicaProtocol};

/// One m-operation of a client script.
#[derive(Debug, Clone)]
pub struct OpSpec {
    /// The program to invoke.
    pub program: Arc<Program>,
    /// Its arguments.
    pub args: Vec<Value>,
}

impl OpSpec {
    /// Creates an op spec.
    pub fn new(program: Arc<Program>, args: Vec<Value>) -> Self {
        OpSpec { program, args }
    }
}

/// The sequence of m-operations one process will issue.
#[derive(Debug, Clone, Default)]
pub struct ClientScript {
    /// Operations in issue order.
    pub ops: Vec<OpSpec>,
    /// Virtual-time delay before the first invocation (ns).
    pub start_delay_ns: u64,
    /// Think time between a response and the next invocation (ns).
    pub think_ns: u64,
}

impl ClientScript {
    /// A script issuing `ops` back-to-back.
    pub fn new(ops: Vec<OpSpec>) -> Self {
        ClientScript {
            ops,
            start_delay_ns: 1,
            think_ns: 1,
        }
    }

    /// Sets the start delay.
    pub fn starting_at(mut self, ns: u64) -> Self {
        self.start_delay_ns = ns;
        self
    }

    /// Sets the think time.
    pub fn with_think_time(mut self, ns: u64) -> Self {
        self.think_ns = ns;
        self
    }
}

/// Cluster-level configuration for a harness run.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Size of the shared-object universe.
    pub num_objects: usize,
    /// Network delay model.
    pub network: NetworkConfig,
    /// Simulator seed (runs are deterministic per seed).
    pub seed: u64,
    /// Safety bound on simulator events.
    pub max_events: u64,
}

impl ClusterConfig {
    /// A config with the default network and a generous event bound.
    pub fn new(num_objects: usize, seed: u64) -> Self {
        ClusterConfig {
            num_objects,
            network: NetworkConfig::default(),
            seed,
            max_events: 20_000_000,
        }
    }

    /// Overrides the network model.
    pub fn with_network(mut self, network: NetworkConfig) -> Self {
        self.network = network;
        self
    }
}

/// The outcome of a harness run: the recorded history plus metrics.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Short name of the protocol that ran.
    pub protocol: &'static str,
    /// The validated execution history (one record per completed
    /// m-operation, with real invocation/response times).
    pub history: History,
    /// Response time of every completed m-operation, by class (ns).
    pub latencies: Vec<(MOpClass, u64)>,
    /// Per-replica message counters.
    pub replica_metrics: Vec<ReplicaMetrics>,
    /// Simulator counters (total messages, events, virtual duration).
    pub sim: RunStats,
    /// The agreed atomic-broadcast delivery order of update m-operations
    /// (the protocol's `~ww` order), identical at every replica.
    pub update_order: Vec<MOpId>,
    /// Each replica's object store at quiescence. Once every broadcast has
    /// been delivered everywhere, all stores must agree (replica
    /// convergence) — asserted by the Theorem 15/20 tests.
    pub final_stores: Vec<crate::store::ReplicaStore>,
}

impl RunReport {
    /// Mean response time over completed m-operations of `class`, in
    /// nanoseconds; `None` if none completed.
    pub fn mean_latency(&self, class: MOpClass) -> Option<f64> {
        let xs: Vec<u64> = self
            .latencies
            .iter()
            .filter(|(c, _)| *c == class)
            .map(|&(_, l)| l)
            .collect();
        if xs.is_empty() {
            return None;
        }
        Some(xs.iter().sum::<u64>() as f64 / xs.len() as f64)
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

    /// Total network messages sent during the run.
    pub fn total_messages(&self) -> u64 {
        self.sim.messages_sent
    }

    /// The relation `~p ∪ ~rf ∪ ~ww` over the recorded history: the base
    /// m-sequential-consistency relation extended with the broadcast order.
    /// By construction it satisfies the WW-constraint, so Theorem 7's
    /// polynomial checker applies to it.
    pub fn ww_relation(&self) -> moc_core::relations::Relation {
        use moc_core::relations::{process_order, reads_from};
        let mut rel = process_order(&self.history).union(&reads_from(&self.history));
        for pair in self.update_order.windows(2) {
            if let (Some(a), Some(b)) = (self.history.idx_of(pair[0]), self.history.idx_of(pair[1]))
            {
                rel.add(a, b);
            }
        }
        rel
    }
}

/// A replica plus its scripted client, hosted as one simulator node.
struct ProtoNode<R: ReplicaProtocol> {
    me: ProcessId,
    n: usize,
    replica: R,
    script: VecDeque<OpSpec>,
    think_ns: u64,
    start_delay_ns: u64,
    next_seq: u32,
    inflight: Option<(MOpId, u64)>,
    records: Vec<MOpRecord>,
    latencies: Vec<(MOpClass, u64)>,
}

impl<R: ReplicaProtocol> ProtoNode<R> {
    fn relay(&mut self, out: &mut Outbox<R::Msg>, ctx: &mut Context<'_, R::Msg>) {
        for (to, m) in out.drain() {
            ctx.send(to, m);
        }
    }

    fn invoke_next(&mut self, ctx: &mut Context<'_, R::Msg>) {
        let Some(spec) = self.script.pop_front() else {
            return;
        };
        let id = MOpId::new(self.me, self.next_seq);
        self.next_seq += 1;
        debug_assert!(self.inflight.is_none(), "processes are sequential");
        self.inflight = Some((id, ctx.now().as_nanos()));
        let mop = MOperation::new(id, spec.program, spec.args);
        let mut out = Outbox::new(self.n);
        self.replica.invoke(mop, &mut out);
        self.relay(&mut out, ctx);
        self.drain(ctx);
    }

    fn drain(&mut self, ctx: &mut Context<'_, R::Msg>) {
        for c in self.replica.drain_completions() {
            let (id, invoked_ns) = self
                .inflight
                .take()
                .expect("completion without an inflight m-operation");
            assert_eq!(c.id, id, "completions must match the inflight op");
            let now = ctx.now().as_nanos();
            self.records.push(MOpRecord {
                id,
                invoked_at: EventTime::from_nanos(invoked_ns),
                responded_at: EventTime::from_nanos(now),
                ops: c.ops,
                outputs: c.outputs,
                treated_as: c.treated_as,
                label: c.label,
            });
            self.latencies.push((c.treated_as, now - invoked_ns));
            if !self.script.is_empty() {
                ctx.set_timer(self.think_ns.max(1));
            }
        }
    }
}

impl<R: ReplicaProtocol> Node for ProtoNode<R> {
    type Msg = R::Msg;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        if !self.script.is_empty() {
            ctx.set_timer(self.start_delay_ns.max(1));
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: Self::Msg, ctx: &mut Context<'_, Self::Msg>) {
        let mut out = Outbox::new(self.n);
        self.replica.on_message(from, msg, &mut out);
        self.relay(&mut out, ctx);
        self.drain(ctx);
    }

    fn on_timer(&mut self, _timer: TimerId, ctx: &mut Context<'_, Self::Msg>) {
        self.invoke_next(ctx);
    }
}

/// Runs protocol `R` over the given client scripts (one per process; the
/// cluster size is `scripts.len()`) and returns the recorded history and
/// metrics.
///
/// # Panics
///
/// Panics if the simulation exceeds `config.max_events` (a liveness bug) or
/// if the recorded history fails validation (a safety bug in the replica
/// implementation) — both indicate defects in this crate, not user error.
pub fn run_cluster<R: ReplicaProtocol + 'static>(
    config: &ClusterConfig,
    scripts: Vec<ClientScript>,
) -> RunReport {
    let n = scripts.len();
    assert!(n > 0, "need at least one process");
    let nodes: Vec<ProtoNode<R>> = scripts
        .into_iter()
        .enumerate()
        .map(|(p, script)| ProtoNode {
            me: ProcessId::new(p as u32),
            n,
            replica: R::new(
                ProcessId::new(p as u32),
                n,
                config.num_objects,
                &OrderingConfig::default(),
            ),
            script: script.ops.into(),
            think_ns: script.think_ns,
            start_delay_ns: script.start_delay_ns,
            next_seq: 0,
            inflight: None,
            records: Vec::new(),
            latencies: Vec::new(),
        })
        .collect();
    let mut world = World::new(nodes, config.network, config.seed);
    let sim = world.run_until_quiescent(config.max_events);
    let nodes = world.into_nodes();

    let mut records = Vec::new();
    let mut latencies = Vec::new();
    let mut replica_metrics = Vec::new();
    let update_order: Vec<MOpId> = nodes[0].replica.delivery_log().to_vec();
    // Agreement is asserted per ordering channel: for single-order
    // broadcasts this is the whole delivery log; a sharded broadcast may
    // interleave commuting channels differently per replica, but every
    // channel's own log must be identical everywhere.
    let reference_channels = channel_logs(&nodes[0].replica);
    for node in &nodes {
        assert_eq!(
            channel_logs(&node.replica),
            reference_channels,
            "replicas disagree on a channel's broadcast order"
        );
    }
    let mut final_stores = Vec::new();
    for node in nodes {
        assert!(
            node.script.is_empty() && node.inflight.is_none(),
            "client script did not finish: protocol lost an operation"
        );
        records.extend(node.records);
        latencies.extend(node.latencies);
        replica_metrics.push(node.replica.metrics());
        final_stores.push(node.replica.store().clone());
    }
    let history =
        History::new(config.num_objects, records).expect("protocol produced an invalid history");
    RunReport {
        protocol: R::protocol_name(),
        history,
        latencies,
        replica_metrics,
        sim,
        update_order,
        final_stores,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MlinOverSequencer, MscOverSequencer};
    use moc_core::ids::ObjectId;
    use moc_core::program::{imm, reg, ProgramBuilder};
    use moc_sim::DelayModel;

    fn write_x() -> Arc<Program> {
        let mut b = ProgramBuilder::new("wx");
        b.write(ObjectId::new(0), moc_core::program::arg(0))
            .ret(vec![]);
        Arc::new(b.build().unwrap())
    }

    fn read_x() -> Arc<Program> {
        let mut b = ProgramBuilder::new("rx");
        b.read(ObjectId::new(0), 0).ret(vec![reg(0)]);
        Arc::new(b.build().unwrap())
    }

    fn inc_x() -> Arc<Program> {
        let mut b = ProgramBuilder::new("inc");
        b.read(ObjectId::new(0), 0)
            .add(0, reg(0), imm(1))
            .write(ObjectId::new(0), reg(0))
            .ret(vec![reg(0)]);
        Arc::new(b.build().unwrap())
    }

    #[test]
    fn msc_cluster_runs_and_records() {
        let config = ClusterConfig::new(1, 7);
        let scripts = vec![
            ClientScript::new(vec![
                OpSpec::new(write_x(), vec![5]),
                OpSpec::new(read_x(), vec![]),
            ]),
            ClientScript::new(vec![OpSpec::new(read_x(), vec![])]),
        ];
        let report = run_cluster::<MscOverSequencer>(&config, scripts);
        assert_eq!(report.protocol, "msc");
        assert_eq!(report.history.len(), 3);
        assert_eq!(report.latencies.len(), 3);
        assert!(report.mean_latency(MOpClass::Update).is_some());
        assert!(report.mean_latency(MOpClass::Query).is_some());
        assert!(report.total_messages() > 0);
        // msc queries are local: query latency is (essentially) zero.
        assert_eq!(report.percentile_latency(MOpClass::Query, 100.0), Some(0));
    }

    #[test]
    fn mlin_queries_cost_a_round_trip() {
        let config = ClusterConfig::new(1, 7)
            .with_network(NetworkConfig::with_delay(DelayModel::Fixed(1_000)));
        let scripts = vec![
            ClientScript::new(vec![OpSpec::new(read_x(), vec![])]),
            ClientScript::new(vec![]),
        ];
        let report = run_cluster::<MlinOverSequencer>(&config, scripts);
        let q = report.mean_latency(MOpClass::Query).unwrap();
        assert!(q >= 2_000.0, "round trip over 1000ns links, got {q}");
    }

    #[test]
    fn concurrent_increments_serialize() {
        // 4 processes increment x 5 times each; the final value must be 20
        // on every replica (increments re-execute deterministically in the
        // agreed order, so none is lost).
        let config = ClusterConfig::new(1, 3);
        let scripts = (0..4)
            .map(|_| ClientScript::new(vec![OpSpec::new(inc_x(), vec![]); 5]))
            .collect();
        let report = run_cluster::<MscOverSequencer>(&config, scripts);
        let finals: Vec<i64> = report
            .history
            .records()
            .iter()
            .filter(|r| r.label == "inc")
            .flat_map(|r| r.outputs.clone())
            .collect();
        assert_eq!(finals.len(), 20);
        let max = finals.iter().max().unwrap();
        assert_eq!(*max, 20, "no increment lost");
        // All outputs distinct: each increment saw a distinct state.
        let mut sorted = finals.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 20);
    }

    #[test]
    fn determinism_across_runs() {
        let mk = || {
            let config = ClusterConfig::new(2, 99);
            let scripts = vec![
                ClientScript::new(vec![OpSpec::new(inc_x(), vec![]); 3]),
                ClientScript::new(vec![OpSpec::new(read_x(), vec![]); 3]),
            ];
            run_cluster::<MlinOverSequencer>(&config, scripts)
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.history.records(), b.history.records());
        assert_eq!(a.latencies, b.latencies);
    }
}
