//! Simulation harness: runs scripted clients against protocol replicas
//! on `moc-sim`, and emits validated histories plus metrics.
//!
//! Each process is a replica with a co-located client (the paper's model:
//! processes are sequential and manipulate objects through m-operations,
//! alternately issuing an invocation and receiving the response). The
//! client issues the next m-operation of its script only after the previous
//! one responded, optionally after a think-time delay. [`run_cluster`] is
//! the [`crate::chaos`] run with a benign plan and [`Direct`] channels in
//! place of the reliable link, so no link acks touch its message counts.
//!
//! Invocation and response events are stamped with virtual time, so the
//! resulting [`History`] carries the exact real-time order `~t` needed to
//! check m-linearizability.

use std::sync::Arc;

use moc_abcast::Direct;
use moc_core::history::History;
use moc_core::ids::MOpId;
use moc_core::mop::MOpClass;
use moc_core::program::Program;
use moc_core::relations::{process_order, reads_from, Relation};
use moc_core::value::Value;
use moc_sim::{NetworkConfig, RunStats};

use crate::chaos::{run_hosted, ChaosConfig};
use crate::{ReplicaMetrics, ReplicaProtocol};

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
        let xs = of_class(&self.latencies, class);
        (!xs.is_empty()).then(|| xs.iter().sum::<u64>() as f64 / xs.len() as f64)
    }

    /// The p-th percentile (0..=100) response time for `class`.
    pub fn percentile_latency(&self, class: MOpClass, p: f64) -> Option<u64> {
        percentile(&self.latencies, class, p)
    }

    /// Total network messages sent during the run.
    pub fn total_messages(&self) -> u64 {
        self.sim.messages_sent
    }

    /// The relation `~p ∪ ~rf ∪ ~ww` over the recorded history: the base
    /// m-sequential-consistency relation extended with the broadcast order.
    /// By construction it satisfies the WW-constraint, so Theorem 7's
    /// polynomial checker applies to it.
    pub fn ww_relation(&self) -> Relation {
        ww_relation(&self.history, &self.update_order)
    }
}

/// The p-th percentile (0..=100) of the `class` entries of `latencies`.
pub(crate) fn percentile(latencies: &[(MOpClass, u64)], class: MOpClass, p: f64) -> Option<u64> {
    let mut xs = of_class(latencies, class);
    if xs.is_empty() {
        return None;
    }
    xs.sort_unstable();
    let rank = ((p / 100.0) * (xs.len() - 1) as f64).round() as usize;
    Some(xs[rank.min(xs.len() - 1)])
}

/// The latencies of class `class`.
fn of_class(latencies: &[(MOpClass, u64)], class: MOpClass) -> Vec<u64> {
    latencies
        .iter()
        .filter_map(|&(c, l)| (c == class).then_some(l))
        .collect()
}

/// `~p ∪ ~rf` over `h`, extended with the broadcast order `update_order`
/// of a protocol run: the `~ww` the WW-constraint check needs.
pub fn ww_relation(h: &History, update_order: &[MOpId]) -> Relation {
    let mut rel = process_order(h).union(&reads_from(h));
    for pair in update_order.windows(2) {
        if let (Some(a), Some(b)) = (h.idx_of(pair[0]), h.idx_of(pair[1])) {
            rel.add(a, b);
        }
    }
    rel
}

/// Runs protocol `R` over the given client scripts (one per process; the
/// cluster size is `scripts.len()`) and returns the recorded history and
/// metrics. Replicas talk over [`Direct`] channels: the simulator's
/// network is reliable here, so no link sublayer is needed.
///
/// # Panics
///
/// Panics if the simulation exceeds `config.max_events` (a liveness bug),
/// or if the replicas disagree or the recorded history fails validation
/// (safety bugs in the replica implementation) — all defects in this
/// crate, not user error.
pub fn run_cluster<R: ReplicaProtocol + 'static>(
    config: &ClusterConfig,
    scripts: Vec<ClientScript>,
) -> RunReport {
    let chaos = ChaosConfig::new(config.num_objects, config.seed)
        .with_network(config.network)
        .with_max_events(config.max_events);
    let (report, final_stores) = run_hosted::<R, _>(&chaos, scripts, |_| Direct);
    // Covers quiescence within the event bound, per-channel agreement on
    // the broadcast order, no lost or duplicated completion, and store
    // convergence.
    assert!(
        report.anomalies.is_clean(),
        "protocol misbehaved on a reliable network: {:?}",
        report.anomalies
    );
    let history = report
        .history
        .expect("protocol produced an invalid history");
    RunReport {
        protocol: report.protocol,
        history,
        latencies: report.latencies,
        replica_metrics: report.replica_metrics,
        sim: report.sim,
        update_order: report.update_order,
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
