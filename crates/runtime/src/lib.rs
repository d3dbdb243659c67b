//! # moc-runtime
//!
//! A live, thread-based cluster hosting the consistency-protocol replicas
//! of `moc-protocol` — the same state machines that run on the
//! deterministic simulator, here driven by OS threads, crossbeam channels
//! and wall-clock time.
//!
//! Topology: one replica thread per process, plus a network thread that
//! routes every message and (optionally) applies randomized delivery
//! delays, reordering messages exactly as the paper's asynchronous channel
//! model allows. Clients block on [`LiveCluster::invoke`]; per-process
//! locks enforce the model's sequential-process rule (one outstanding
//! m-operation per process).
//!
//! Invocation and response events are stamped with nanoseconds since the
//! cluster epoch, so the history assembled at
//! [`LiveCluster::shutdown`] carries a genuine real-time order `~t` and
//! can be checked for m-linearizability.
//!
//! ```
//! use std::sync::Arc;
//! use moc_core::ids::ProcessId;
//! use moc_core::program::{imm, reg, ProgramBuilder};
//! use moc_protocol::MlinOverSequencer;
//! use moc_runtime::{LiveCluster, RuntimeConfig};
//!
//! let cluster: LiveCluster<MlinOverSequencer> =
//!     LiveCluster::start(2, RuntimeConfig::new(1));
//! let mut b = ProgramBuilder::new("wx");
//! b.write(moc_core::ids::ObjectId::new(0), imm(7)).ret(vec![]);
//! let wx = Arc::new(b.build()?);
//! let mut b = ProgramBuilder::new("rx");
//! b.read(moc_core::ids::ObjectId::new(0), 0).ret(vec![reg(0)]);
//! let rx = Arc::new(b.build()?);
//!
//! cluster.invoke(ProcessId::new(0), wx, vec![]);
//! let reply = cluster.invoke(ProcessId::new(1), rx, vec![]);
//! assert_eq!(reply.outputs, vec![7]);
//! let report = cluster.shutdown();
//! assert_eq!(report.history.len(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use moc_abcast::{Abcast, LinkConfig, LinkMsg, OrderingConfig, ReliableLink};
use moc_core::history::History;
use moc_core::ids::{MOpId, ProcessId};
use moc_core::mop::{EventTime, MOpClass, MOpRecord};
use moc_core::program::Program;
use moc_core::value::Value;
use moc_monitor::OnlineMonitor;
pub use moc_monitor::{MonitorConfig, MonitorRunSummary};
pub use moc_protocol::PipelineMetrics;
use moc_protocol::{HostEvent, HostOut, ReplicaHost, ReplicaProtocol};
use moc_sim::DelayModel;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Salt mixed into the seed for the network thread's fault sampler, so
/// enabling faults does not perturb the delay stream (mirrors the
/// simulator's convention).
const FAULT_SEED_SALT: u64 = 0x6d6f_635f_6368_616f;

/// Configuration for a live cluster.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Size of the shared-object universe.
    pub num_objects: usize,
    /// Artificial delivery delay injected by the network thread. `None`
    /// routes messages immediately (still asynchronously).
    pub artificial_delay: Option<DelayModel>,
    /// Seed for the delay sampler.
    pub seed: u64,
    /// Probability the network thread silently discards a routed message
    /// (loopback exempt). The reliable-link sublayer recovers the loss.
    pub drop_prob: f64,
    /// Probability a routed message is delivered twice, with independent
    /// delays (loopback exempt).
    pub dup_prob: f64,
    /// Reliable-link tuning. Wall-clock defaults (2ms base RTO, 50ms cap)
    /// absorb OS scheduling jitter; spurious retransmissions are made
    /// harmless by receive-side dedup.
    pub link: LinkConfig,
    /// The ordering configuration every replica's broadcast is built
    /// with. The simulator-scale failover defaults baked into the
    /// broadcast (tens of microseconds) would suspect a coordinator on
    /// every OS scheduling hiccup, so [`RuntimeConfig::new`] sets
    /// wall-clock failover timeouts (20ms base, 500ms cap). False
    /// suspicions are safe but churn views. Private so the wall-clock
    /// failover cannot be lost: only [`RuntimeConfig::with_batching`]
    /// and [`RuntimeConfig::with_failover_timeouts`] write it.
    pub(crate) ordering: OrderingConfig,
}

impl RuntimeConfig {
    /// A config with immediate routing and a fault-free network.
    pub fn new(num_objects: usize) -> Self {
        RuntimeConfig {
            num_objects,
            artificial_delay: None,
            seed: 0,
            drop_prob: 0.0,
            dup_prob: 0.0,
            link: LinkConfig {
                rto_ns: 2_000_000,
                max_rto_ns: 50_000_000,
                ..LinkConfig::default()
            },
            ordering: OrderingConfig {
                failover: Some((20_000_000, 500_000_000)),
                ..OrderingConfig::default()
            },
        }
    }

    /// Enables group-commit batching on every replica's broadcast: pending
    /// submissions accumulate until `cfg.max_batch` items or
    /// `cfg.max_delay_ns` elapse, then stamp as one ordering frame.
    pub fn with_batching(mut self, cfg: moc_abcast::BatchConfig) -> Self {
        self.ordering.batch = cfg;
        self
    }

    /// Overrides the failover suspicion timeouts (base and backoff cap).
    pub fn with_failover_timeouts(mut self, base_ns: u64, max_ns: u64) -> Self {
        assert!(base_ns > 0 && base_ns <= max_ns, "need 0 < base <= max");
        self.ordering.failover = Some((base_ns, max_ns));
        self
    }

    /// Injects randomized per-message delays (microsecond scale) so the
    /// network visibly reorders messages.
    pub fn with_artificial_delay(mut self, delay: DelayModel) -> Self {
        self.artificial_delay = Some(delay);
        self
    }

    /// Makes the network thread drop and/or duplicate messages with the
    /// given probabilities. The reliable link masks both.
    pub fn with_faults(mut self, drop_prob: f64, dup_prob: f64) -> Self {
        assert!((0.0..1.0).contains(&drop_prob), "drop_prob in [0, 1)");
        assert!((0.0..=1.0).contains(&dup_prob), "dup_prob in [0, 1]");
        self.drop_prob = drop_prob;
        self.dup_prob = dup_prob;
        self
    }

    /// Overrides the reliable-link tuning (e.g. [`LinkConfig::sabotaged`]
    /// to study what the faults do to an unprotected stack).
    pub fn with_link(mut self, link: LinkConfig) -> Self {
        self.link = link;
        self
    }
}

/// The response of a completed m-operation.
#[derive(Debug, Clone)]
pub struct Reply {
    /// The m-operation's identity.
    pub id: MOpId,
    /// Program outputs.
    pub outputs: Vec<Value>,
    /// Protocol classification.
    pub treated_as: MOpClass,
    /// Invocation event (ns since cluster epoch).
    pub invoked_at: EventTime,
    /// Response event (ns since cluster epoch).
    pub responded_at: EventTime,
}

/// Everything a finished cluster leaves behind.
#[derive(Debug)]
pub struct RuntimeReport {
    /// The recorded, validated history.
    pub history: History,
    /// Per-replica message metrics.
    pub replica_metrics: Vec<moc_protocol::ReplicaMetrics>,
    /// Per-replica reliable-link transport counters.
    pub link_stats: Vec<moc_abcast::LinkStats>,
    /// Per-replica invocation-pipeline counters.
    pub pipeline: Vec<PipelineMetrics>,
    /// Per-replica broadcast group-commit counters (all zero unless the
    /// cluster ran with [`RuntimeConfig::with_batching`]).
    pub batch_stats: Vec<moc_abcast::BatchStats>,
}

impl RuntimeReport {
    /// Cluster-wide transport counters (sum over replicas).
    pub fn total_link_stats(&self) -> moc_abcast::LinkStats {
        self.link_stats
            .iter()
            .fold(moc_abcast::LinkStats::default(), |a, s| a.merge(s))
    }

    /// Cluster-wide pipeline counters (sums; peak depth is the max).
    pub fn total_pipeline(&self) -> PipelineMetrics {
        self.pipeline
            .iter()
            .fold(PipelineMetrics::default(), |a, p| a.merge(p))
    }

    /// Cluster-wide group-commit counters (sum over replicas).
    pub fn total_batch_stats(&self) -> moc_abcast::BatchStats {
        let mut total = moc_abcast::BatchStats::default();
        for b in &self.batch_stats {
            total.merge(*b);
        }
        total
    }
}

/// Rejection returned by [`LiveCluster::try_invoke`] once the online
/// sentinel has quarantined a process: the containment hook fail-stops
/// further traffic from the offending replica (mirroring the fixed
/// sequencer's halt-on-restart negative control) instead of letting a
/// detected inconsistency spread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quarantined {
    /// The process whose traffic is fenced off.
    pub process: ProcessId,
}

impl std::fmt::Display for Quarantined {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "process {} is quarantined by the consistency sentinel",
            self.process
        )
    }
}

impl std::error::Error for Quarantined {}

enum Input<M> {
    Net {
        from: ProcessId,
        msg: M,
    },
    Invoke {
        program: Arc<Program>,
        args: Vec<Value>,
        reply: Sender<Reply>,
    },
    Shutdown,
}

enum NetCmd<M> {
    Route {
        from: ProcessId,
        to: ProcessId,
        msg: M,
    },
    Shutdown,
}

/// A running cluster of `n` replica threads plus a network thread.
///
/// Replicas talk through the [`ReliableLink`] sublayer: every wire frame
/// is a [`LinkMsg`], so the protocol state machines see exactly-once,
/// per-sender-FIFO channels even when the network thread is configured
/// to drop or duplicate messages.
pub struct LiveCluster<R: ReplicaProtocol> {
    inputs: Vec<Sender<Input<LinkMsg<R::Msg>>>>,
    net_tx: Sender<NetCmd<LinkMsg<R::Msg>>>,
    replica_handles: Vec<JoinHandle<ReplicaExit<R>>>,
    net_handle: JoinHandle<()>,
    invoke_locks: Vec<Mutex<()>>,
    num_objects: usize,
    /// Per-process containment flags, set by the sentinel thread when a
    /// violation latches. All-false without a monitor attached.
    quarantine: Arc<Vec<AtomicBool>>,
    monitor_tx: Option<Sender<HostEvent>>,
    monitor_handle: Option<JoinHandle<MonitorRunSummary>>,
}

/// A finished replica thread's host, records and dropped-reply count.
type ReplicaExit<R> = (
    ReplicaHost<R, ReliableLink<<R as ReplicaProtocol>::Msg>>,
    Vec<MOpRecord>,
    u64,
);

impl<R> LiveCluster<R>
where
    R: ReplicaProtocol + Send + 'static,
    R::Msg: Send + 'static,
{
    /// Spawns `n` replica threads and the network thread.
    pub fn start(n: usize, config: RuntimeConfig) -> Self {
        Self::start_inner(n, config, None)
    }

    /// Like [`LiveCluster::start`], but with an online consistency
    /// sentinel riding along: a dedicated monitor thread is fed every
    /// invocation and completion event from the replica threads, checks
    /// windows incrementally, and — on a latched violation — quarantines
    /// the culprit process so [`LiveCluster::try_invoke`] refuses its
    /// further traffic. Retrieve the verdicts and rolling certificates
    /// with [`LiveCluster::shutdown_with_monitor`].
    pub fn start_with_monitor(n: usize, config: RuntimeConfig, monitor: MonitorConfig) -> Self {
        Self::start_inner(n, config, Some(monitor))
    }

    fn start_inner(n: usize, config: RuntimeConfig, monitor: Option<MonitorConfig>) -> Self {
        assert!(n > 0, "need at least one process");
        let epoch = Instant::now();
        let (net_tx, net_rx) = unbounded::<NetCmd<LinkMsg<R::Msg>>>();
        let mut inputs = Vec::with_capacity(n);
        let mut replica_handles = Vec::with_capacity(n);
        let quarantine: Arc<Vec<AtomicBool>> =
            Arc::new((0..n).map(|_| AtomicBool::new(false)).collect());

        let (monitor_tx, monitor_handle) = match monitor {
            None => (None, None),
            Some(mcfg) => {
                let (tx, rx) = unbounded::<HostEvent>();
                let flags = Arc::clone(&quarantine);
                let num_objects = config.num_objects;
                let handle = std::thread::Builder::new()
                    .name("sentinel".into())
                    .spawn(move || monitor_main(num_objects, mcfg, rx, flags))
                    .expect("spawn sentinel thread");
                (Some(tx), Some(handle))
            }
        };

        for p in 0..n {
            let me = ProcessId::new(p as u32);
            let (tx, rx) = unbounded::<Input<LinkMsg<R::Msg>>>();
            inputs.push(tx);
            let net_tx = net_tx.clone();
            let sentinel = monitor_tx.clone();
            let replica = R::new(me, n, config.num_objects, &config.ordering);
            let host = ReplicaHost::new(me, n, replica, ReliableLink::new(me, n, config.link));
            replica_handles.push(
                std::thread::Builder::new()
                    .name(format!("replica-{p}"))
                    .spawn(move || replica_main(me, host, epoch, rx, net_tx, sentinel))
                    .expect("spawn replica thread"),
            );
        }

        let node_inputs = inputs.clone();
        let faults = NetFaults {
            delay: config.artificial_delay,
            drop_prob: config.drop_prob,
            dup_prob: config.dup_prob,
            seed: config.seed,
        };
        let net_handle = std::thread::Builder::new()
            .name("network".into())
            .spawn(move || network_main::<LinkMsg<R::Msg>>(net_rx, node_inputs, faults))
            .expect("spawn network thread");

        LiveCluster {
            inputs,
            net_tx,
            replica_handles,
            net_handle,
            invoke_locks: (0..n).map(|_| Mutex::new(())).collect(),
            num_objects: config.num_objects,
            quarantine,
            monitor_tx,
            monitor_handle,
        }
    }

    /// Number of processes.
    pub fn num_processes(&self) -> usize {
        self.inputs.len()
    }

    /// Invokes `program(args)` as the next m-operation of `process`,
    /// blocking until its response event. Concurrent callers targeting the
    /// same process are serialized (processes are sequential threads of
    /// control in the model).
    ///
    /// # Panics
    ///
    /// Panics if the cluster is shutting down underneath the call, or if
    /// the sentinel has quarantined `process` (use
    /// [`LiveCluster::try_invoke`] to handle containment gracefully).
    pub fn invoke(&self, process: ProcessId, program: Arc<Program>, args: Vec<Value>) -> Reply {
        self.try_invoke(process, program, args)
            .expect("process not quarantined")
    }

    /// Like [`LiveCluster::invoke`], but refuses — instead of panicking —
    /// when the online sentinel has quarantined `process` after latching
    /// a consistency violation it attributes to that replica.
    pub fn try_invoke(
        &self,
        process: ProcessId,
        program: Arc<Program>,
        args: Vec<Value>,
    ) -> Result<Reply, Quarantined> {
        let _guard = self.invoke_locks[process.index()].lock();
        if self.quarantined(process) {
            return Err(Quarantined { process });
        }
        let (reply_tx, reply_rx) = bounded(1);
        self.inputs[process.index()]
            .send(Input::Invoke {
                program,
                args,
                reply: reply_tx,
            })
            .expect("replica thread alive");
        Ok(reply_rx.recv().expect("replica answers every invocation"))
    }

    /// Opens a pipelined invocation session for `process`: up to `window`
    /// m-operations may be in flight before
    /// [`PipelinedSession::invoke`] blocks. The session holds the
    /// process's invocation lock, so it is the process's sole thread of
    /// control until dropped; the replica preserves program order and
    /// read-your-writes (a query drains the pipeline before running).
    pub fn pipelined(&self, process: ProcessId, window: usize) -> PipelinedSession<'_, R> {
        assert!(window >= 1, "window must be at least 1");
        let guard = self.invoke_locks[process.index()].lock();
        PipelinedSession {
            cluster: self,
            process,
            window,
            outstanding: VecDeque::new(),
            _guard: guard,
        }
    }

    /// Whether the sentinel has fenced off `process` (always `false`
    /// without a monitor attached).
    pub fn quarantined(&self, process: ProcessId) -> bool {
        self.quarantine[process.index()].load(Ordering::SeqCst)
    }

    /// Stops the cluster: flushes in-flight messages, joins all threads and
    /// assembles the recorded history.
    pub fn shutdown(self) -> RuntimeReport {
        self.shutdown_with_monitor().0
    }

    /// Like [`LiveCluster::shutdown`], additionally returning the
    /// sentinel's run summary — rolling certificates, verdict timeline,
    /// any latched violation — when the cluster was started with
    /// [`LiveCluster::start_with_monitor`] (`None` otherwise).
    pub fn shutdown_with_monitor(self) -> (RuntimeReport, Option<MonitorRunSummary>) {
        // The network flushes its delay queue, then tells the replicas to
        // exit; anything a replica sends after that is dropped.
        self.net_tx
            .send(NetCmd::Shutdown)
            .expect("network thread alive");
        self.net_handle.join().expect("network thread panicked");
        for tx in &self.inputs {
            let _ = tx.send(Input::Shutdown);
        }
        // Hosts drop once their counters are read, before the history is built.
        let mut records = Vec::new();
        let mut replica_metrics = Vec::new();
        let mut link_stats = Vec::new();
        let mut pipeline = Vec::new();
        let mut batch_stats = Vec::new();
        for h in self.replica_handles {
            let (host, recs, dropped_replies) = h.join().expect("replica thread panicked");
            records.extend(recs);
            replica_metrics.push(host.replica().metrics());
            link_stats.push(host.link_stats());
            pipeline.push(PipelineMetrics {
                dropped_replies,
                ..host.pipeline()
            });
            batch_stats.push(host.replica().ordering().batch_stats());
        }
        // Every replica-held sender is gone once the threads are joined;
        // dropping ours disconnects the sentinel, which flushes and exits.
        drop(self.monitor_tx);
        let monitor = self
            .monitor_handle
            .map(|h| h.join().expect("sentinel thread panicked"));
        let history =
            History::new(self.num_objects, records).expect("runtime produced an invalid history");
        let report = RuntimeReport {
            history,
            replica_metrics,
            link_stats,
            pipeline,
            batch_stats,
        };
        (report, monitor)
    }
}

/// A window of in-flight invocations for one process, created by
/// [`LiveCluster::pipelined`]. Replaces the one-at-a-time blocking
/// [`LiveCluster::invoke`] discipline with a bounded pipeline: new
/// invocations are sent without waiting for earlier replies until
/// `window` are outstanding, then each further invocation retires (and
/// returns) the oldest reply first.
///
/// Replies always come back in invocation order. Dropping the session
/// drains any outstanding replies, so no invocation is abandoned.
pub struct PipelinedSession<'a, R: ReplicaProtocol> {
    cluster: &'a LiveCluster<R>,
    process: ProcessId,
    window: usize,
    outstanding: VecDeque<Receiver<Reply>>,
    _guard: parking_lot::MutexGuard<'a, ()>,
}

impl<R> PipelinedSession<'_, R>
where
    R: ReplicaProtocol + Send + 'static,
    R::Msg: Send + 'static,
{
    /// Sends `program(args)` as the process's next m-operation without
    /// waiting for its reply. If the window was full, first blocks for —
    /// and returns — the oldest outstanding reply. Refuses (leaving the
    /// pipeline intact) once the sentinel has quarantined the process.
    pub fn invoke(
        &mut self,
        program: Arc<Program>,
        args: Vec<Value>,
    ) -> Result<Option<Reply>, Quarantined> {
        if self.cluster.quarantined(self.process) {
            return Err(Quarantined {
                process: self.process,
            });
        }
        let retired = if self.outstanding.len() >= self.window {
            let rx = self.outstanding.pop_front().expect("window is full");
            Some(rx.recv().expect("replica answers every invocation"))
        } else {
            None
        };
        let (reply_tx, reply_rx) = bounded(1);
        self.cluster.inputs[self.process.index()]
            .send(Input::Invoke {
                program,
                args,
                reply: reply_tx,
            })
            .expect("replica thread alive");
        self.outstanding.push_back(reply_rx);
        Ok(retired)
    }

    /// Number of invocations currently awaiting replies.
    pub fn in_flight(&self) -> usize {
        self.outstanding.len()
    }

    /// Blocks for every outstanding reply, in invocation order.
    pub fn drain(&mut self) -> Vec<Reply> {
        self.outstanding
            .drain(..)
            .map(|rx| rx.recv().expect("replica answers every invocation"))
            .collect()
    }
}

impl<R: ReplicaProtocol> Drop for PipelinedSession<'_, R> {
    fn drop(&mut self) {
        for rx in self.outstanding.drain(..) {
            let _ = rx.recv();
        }
    }
}

/// The sentinel thread: drains the event stream into an
/// [`OnlineMonitor`], and sets the containment flag of the culprit
/// process (all processes when the violation has no attributable
/// culprit) the moment a violation latches. Exits — flushing a final
/// window — when every event sender is gone.
fn monitor_main(
    num_objects: usize,
    cfg: MonitorConfig,
    rx: Receiver<HostEvent>,
    quarantine: Arc<Vec<AtomicBool>>,
) -> MonitorRunSummary {
    let mut mon = OnlineMonitor::new(num_objects, cfg);
    let mut last_ns = 0u64;
    let mut contained = false;
    while let Ok(ev) = rx.recv() {
        last_ns = last_ns.max(ev.feed(&mut mon));
        if contained {
            continue;
        }
        if let Some(v) = mon.violation() {
            contained = true;
            match v.culprit {
                Some(p) if p.index() < quarantine.len() => {
                    quarantine[p.index()].store(true, Ordering::SeqCst);
                }
                _ => {
                    for flag in quarantine.iter() {
                        flag.store(true, Ordering::SeqCst);
                    }
                }
            }
        }
    }
    mon.flush(last_ns + 1);
    mon.into_summary()
}

/// A replica thread: steps the host on each input and routes its output —
/// frames to the network, events to the sentinel, replies to clients.
fn replica_main<R: ReplicaProtocol>(
    me: ProcessId,
    mut host: ReplicaHost<R, ReliableLink<R::Msg>>,
    epoch: Instant,
    rx: Receiver<Input<LinkMsg<R::Msg>>>,
    net_tx: Sender<NetCmd<LinkMsg<R::Msg>>>,
    sentinel: Option<Sender<HostEvent>>,
) -> ReplicaExit<R> {
    // One FIFO retirement per invocation: replies queue in invocation order.
    let mut replies: VecDeque<Sender<Reply>> = VecDeque::new();
    let mut records = Vec::new();
    let mut dropped_replies = 0;
    // Reused across inputs: the host's frame and event buffers.
    let mut out = HostOut::default();
    // One clock read per input; deadline waits count from the latest one.
    let mut now = 0u64;

    loop {
        let timeout = match host.next_deadline() {
            Some(d) => Duration::from_nanos(d.saturating_sub(now)),
            None => Duration::from_secs(3600),
        };
        let input = rx.recv_timeout(timeout);
        now = epoch.elapsed().as_nanos() as u64;
        match input {
            Ok(Input::Net { from, msg }) => host.on_frame(from, msg, now, &mut out),
            Ok(Input::Invoke {
                program,
                args,
                reply,
            }) => {
                replies.push_back(reply);
                host.invoke(program, args, now, &mut out);
            }
            Ok(Input::Shutdown) | Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => host.on_tick(now, &mut out),
        }
        for ev in out.events.drain(..) {
            if let Some(tx) = &sentinel {
                let _ = tx.send(ev.clone());
            }
            // Orphans only reach the sentinel: no client waits for them.
            if let HostEvent::Completed { record, invoked_ns } = ev {
                let reply = Reply {
                    id: record.id,
                    outputs: record.outputs.clone(),
                    treated_as: record.treated_as,
                    invoked_at: EventTime::from_nanos(invoked_ns),
                    responded_at: EventTime::from_nanos(now),
                };
                records.push(record);
                let tx = replies.pop_front().expect("one reply per invocation");
                if tx.send(reply).is_err() {
                    dropped_replies += 1;
                }
            }
        }
        // After shutdown began the network may be gone — those messages
        // have no waiting client, so dropping them is safe.
        for (to, frame) in out.frames.drain(..) {
            let _ = net_tx.send(NetCmd::Route {
                from: me,
                to,
                msg: frame,
            });
        }
    }
    (host, records, dropped_replies)
}

/// Fault knobs for the network thread, mirroring the simulator's
/// [`moc_sim::FaultPlan`] probabilities (schedules such as partitions
/// and crashes stay simulator-only, where virtual time makes them
/// reproducible).
struct NetFaults {
    delay: Option<DelayModel>,
    drop_prob: f64,
    dup_prob: f64,
    seed: u64,
}

fn network_main<M: Send + Clone>(
    rx: Receiver<NetCmd<M>>,
    nodes: Vec<Sender<Input<M>>>,
    faults: NetFaults,
) {
    let NetFaults {
        delay,
        drop_prob,
        dup_prob,
        seed,
    } = faults;
    let mut rng = StdRng::seed_from_u64(seed);
    // Fault decisions draw from their own stream so turning them on does
    // not perturb the delay sampler.
    let mut fault_rng = StdRng::seed_from_u64(seed ^ FAULT_SEED_SALT);
    // Delay queue ordered by deadline; seq breaks ties FIFO.
    let mut heap: BinaryHeap<Reverse<(Instant, u64)>> = BinaryHeap::new();
    let mut payloads: std::collections::HashMap<u64, (ProcessId, ProcessId, M)> =
        std::collections::HashMap::new();
    let mut next_id = 0u64;

    let forward = |nodes: &[Sender<Input<M>>], from: ProcessId, to: ProcessId, msg: M| {
        let _ = nodes[to.index()].send(Input::Net { from, msg });
    };

    loop {
        // Flush everything due.
        let now = Instant::now();
        while let Some(Reverse((deadline, id))) = heap.peek().copied() {
            if deadline > now {
                break;
            }
            heap.pop();
            let (from, to, msg) = payloads.remove(&id).expect("payload exists");
            forward(&nodes, from, to, msg);
        }
        // Wait for the next command or the next deadline.
        let timeout = heap
            .peek()
            .map(|Reverse((deadline, _))| deadline.saturating_duration_since(Instant::now()))
            .unwrap_or(Duration::from_secs(3600));
        match rx.recv_timeout(timeout) {
            Ok(NetCmd::Route { from, to, msg }) => {
                // Loopback is a process talking to itself: exempt from
                // faults, exactly as in the simulator.
                let remote = from != to;
                if remote && drop_prob > 0.0 && fault_rng.gen_bool(drop_prob) {
                    continue;
                }
                // Duplication is the only path that clones the payload;
                // the primary copy moves.
                let dup = if remote && dup_prob > 0.0 && fault_rng.gen_bool(dup_prob) {
                    Some(msg.clone())
                } else {
                    None
                };
                for m in dup.into_iter().chain(std::iter::once(msg)) {
                    match delay {
                        None => forward(&nodes, from, to, m),
                        Some(model) => {
                            let d = Duration::from_nanos(model.sample(&mut rng));
                            let id = next_id;
                            next_id += 1;
                            heap.push(Reverse((Instant::now() + d, id)));
                            payloads.insert(id, (from, to, m));
                        }
                    }
                }
            }
            Ok(NetCmd::Shutdown) => {
                // Flush the remaining queue immediately, preserving the
                // scheduled order.
                let mut rest: Vec<_> = heap.into_sorted_vec();
                rest.reverse(); // into_sorted_vec on Reverse yields descending deadlines
                rest.sort_by_key(|Reverse(k)| *k);
                for Reverse((_, id)) in rest {
                    let (from, to, msg) = payloads.remove(&id).expect("payload exists");
                    forward(&nodes, from, to, msg);
                }
                return;
            }
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moc_checker::conditions::{check, Condition, Strategy};
    use moc_core::ids::ObjectId;
    use moc_core::program::{imm, reg, ProgramBuilder};
    use moc_protocol::{MlinOverSequencer, MscOverIsis, MscOverSequencer};

    fn wx(val: i64) -> Arc<Program> {
        let mut b = ProgramBuilder::new("wx");
        b.write(ObjectId::new(0), imm(val)).ret(vec![]);
        Arc::new(b.build().unwrap())
    }

    fn rx() -> Arc<Program> {
        let mut b = ProgramBuilder::new("rx");
        b.read(ObjectId::new(0), 0).ret(vec![reg(0)]);
        Arc::new(b.build().unwrap())
    }

    fn inc() -> Arc<Program> {
        let mut b = ProgramBuilder::new("inc");
        b.read(ObjectId::new(0), 0)
            .add(0, reg(0), imm(1))
            .write(ObjectId::new(0), reg(0))
            .ret(vec![reg(0)]);
        Arc::new(b.build().unwrap())
    }

    #[test]
    fn write_then_read_roundtrip() {
        let cluster: LiveCluster<MlinOverSequencer> = LiveCluster::start(3, RuntimeConfig::new(1));
        cluster.invoke(ProcessId::new(0), wx(9), vec![]);
        let r = cluster.invoke(ProcessId::new(2), rx(), vec![]);
        assert_eq!(r.outputs, vec![9], "mlin query after update must see it");
        let report = cluster.shutdown();
        assert_eq!(report.history.len(), 2);
        let lin = check(&report.history, Condition::MLinearizability, Strategy::Auto).unwrap();
        assert!(lin.satisfied);
    }

    #[test]
    fn concurrent_clients_preserve_increments() {
        let cluster: LiveCluster<MscOverSequencer> = LiveCluster::start(
            4,
            RuntimeConfig::new(1).with_artificial_delay(DelayModel::Uniform {
                lo: 1_000,
                hi: 200_000,
            }),
        );
        let cluster = Arc::new(cluster);
        let mut joins = Vec::new();
        for p in 0..4u32 {
            let c = Arc::clone(&cluster);
            joins.push(std::thread::spawn(move || {
                for _ in 0..5 {
                    c.invoke(ProcessId::new(p), inc(), vec![]);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let final_value = cluster.invoke(ProcessId::new(0), rx(), vec![]).outputs[0];
        // msc query reads the local copy; process 0 has applied every
        // delivered update... but some may still be in flight. Give the
        // cluster a moment to converge, then re-read.
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut v = final_value;
        while v != 20 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
            v = cluster.invoke(ProcessId::new(0), rx(), vec![]).outputs[0];
        }
        assert_eq!(v, 20, "all 20 increments must land");

        let cluster = Arc::try_unwrap(cluster).unwrap_or_else(|_| panic!("refs remain"));
        let report = cluster.shutdown();
        let sc = check(
            &report.history,
            Condition::MSequentialConsistency,
            Strategy::Auto,
        )
        .unwrap();
        assert!(sc.satisfied, "Theorem 15 on the live runtime");
    }

    #[test]
    fn single_process_cluster_works() {
        let cluster: LiveCluster<MlinOverSequencer> = LiveCluster::start(1, RuntimeConfig::new(1));
        cluster.invoke(ProcessId::new(0), wx(3), vec![]);
        let r = cluster.invoke(ProcessId::new(0), rx(), vec![]);
        assert_eq!(r.outputs, vec![3]);
        assert!(r.invoked_at <= r.responded_at);
        let report = cluster.shutdown();
        assert_eq!(report.history.len(), 2);
    }

    #[test]
    fn heavy_delay_reordering_stays_consistent() {
        // Millisecond-scale random delays: messages overtake each other
        // constantly; the history must still check out.
        let cluster: LiveCluster<MlinOverSequencer> = LiveCluster::start(
            3,
            RuntimeConfig::new(2)
                .with_artificial_delay(DelayModel::Exponential { mean: 1_000_000 }),
        );
        let cluster = Arc::new(cluster);
        let mut joins = Vec::new();
        for p in 0..3u32 {
            let c = Arc::clone(&cluster);
            joins.push(std::thread::spawn(move || {
                for i in 0..4 {
                    if i % 2 == 0 {
                        c.invoke(ProcessId::new(p), wx(p as i64 * 10 + i), vec![]);
                    } else {
                        c.invoke(ProcessId::new(p), rx(), vec![]);
                    }
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let cluster = Arc::try_unwrap(cluster).unwrap_or_else(|_| panic!("refs remain"));
        let report = cluster.shutdown();
        assert_eq!(report.history.len(), 12);
        let lin = check(&report.history, Condition::MLinearizability, Strategy::Auto).unwrap();
        assert!(lin.satisfied, "{:?}", lin.reason);
    }

    #[test]
    fn replies_carry_monotone_event_times_per_process() {
        let cluster: LiveCluster<MscOverSequencer> = LiveCluster::start(2, RuntimeConfig::new(1));
        let p = ProcessId::new(0);
        let r1 = cluster.invoke(p, wx(1), vec![]);
        let r2 = cluster.invoke(p, wx(2), vec![]);
        assert!(r1.responded_at <= r2.invoked_at, "process order in time");
        assert_eq!(r1.id.seq, 0);
        assert_eq!(r2.id.seq, 1);
        cluster.shutdown();
    }

    #[test]
    fn reliable_link_masks_drops_and_duplicates_live() {
        // A 20% drop / 10% dup network: the link's retransmissions and
        // dedup must keep every invocation completing and the history
        // m-linearizable.
        let cluster: LiveCluster<MlinOverSequencer> = LiveCluster::start(
            3,
            RuntimeConfig::new(1)
                .with_artificial_delay(DelayModel::Uniform {
                    lo: 1_000,
                    hi: 100_000,
                })
                .with_faults(0.2, 0.1)
                .with_link(LinkConfig {
                    rto_ns: 1_000_000,
                    max_rto_ns: 20_000_000,
                    ..LinkConfig::default()
                }),
        );
        let cluster = Arc::new(cluster);
        let mut joins = Vec::new();
        for p in 0..3u32 {
            let c = Arc::clone(&cluster);
            joins.push(std::thread::spawn(move || {
                for i in 0..4 {
                    if i % 2 == 0 {
                        c.invoke(ProcessId::new(p), wx(p as i64 * 10 + i), vec![]);
                    } else {
                        c.invoke(ProcessId::new(p), rx(), vec![]);
                    }
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let cluster = Arc::try_unwrap(cluster).unwrap_or_else(|_| panic!("refs remain"));
        let report = cluster.shutdown();
        assert_eq!(report.history.len(), 12, "every invocation completed");
        let lin = check(&report.history, Condition::MLinearizability, Strategy::Auto).unwrap();
        assert!(lin.satisfied, "{:?}", lin.reason);
    }

    #[test]
    fn view_backend_works_live() {
        // The view-based broadcast on real threads and wall-clock
        // suspicion timers: no crash occurs, so view 0 must stay stable
        // (wall-clock timeouts absorb scheduling jitter) and the history
        // must be m-linearizable.
        let cluster: LiveCluster<moc_protocol::MlinOverView> = LiveCluster::start(
            3,
            RuntimeConfig::new(1).with_artificial_delay(DelayModel::Uniform {
                lo: 1_000,
                hi: 100_000,
            }),
        );
        let cluster = Arc::new(cluster);
        let mut joins = Vec::new();
        for p in 0..3u32 {
            let c = Arc::clone(&cluster);
            joins.push(std::thread::spawn(move || {
                for i in 0..4 {
                    if i % 2 == 0 {
                        c.invoke(ProcessId::new(p), wx(p as i64 * 10 + i), vec![]);
                    } else {
                        c.invoke(ProcessId::new(p), rx(), vec![]);
                    }
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let cluster = Arc::try_unwrap(cluster).unwrap_or_else(|_| panic!("refs remain"));
        let report = cluster.shutdown();
        assert_eq!(report.history.len(), 12, "every invocation completed");
        let lin = check(&report.history, Condition::MLinearizability, Strategy::Auto).unwrap();
        assert!(lin.satisfied, "{:?}", lin.reason);
    }

    #[test]
    fn monitored_cluster_emits_rolling_certs() {
        let cluster: LiveCluster<MlinOverSequencer> = LiveCluster::start_with_monitor(
            2,
            RuntimeConfig::new(1),
            MonitorConfig::new(Condition::MLinearizability).with_window(2),
        );
        for i in 0..4 {
            cluster.invoke(ProcessId::new(i % 2), wx(i as i64), vec![]);
            cluster.invoke(ProcessId::new((i + 1) % 2), rx(), vec![]);
        }
        assert!(!cluster.quarantined(ProcessId::new(0)));
        let (report, monitor) = cluster.shutdown_with_monitor();
        assert_eq!(report.history.len(), 8, "every invocation completed");
        let summary = monitor.expect("sentinel attached");
        assert!(summary.violation.is_none(), "{:?}", summary.violation);
        assert_eq!(summary.stats.completions, 8, "every completion streamed");
        assert!(
            !summary.certs.is_empty(),
            "quiescence points must emit rolling certificates"
        );
        for cert in &summary.certs {
            assert!(cert.admissible);
            let batch = check(&cert.window, Condition::MLinearizability, Strategy::Auto).unwrap();
            assert!(batch.satisfied, "streaming and batch verdicts agree");
        }
    }

    /// The sentinel thread end-to-end on a poisoned event stream: the
    /// classic store-buffering outcome (both m-operations read the
    /// initial value even though both writes happened) is inadmissible
    /// under m-SC, so the violation must latch and the containment flag
    /// of the attributed culprit must be set.
    #[test]
    fn sentinel_latches_violation_and_quarantines_culprit() {
        use moc_core::op::CompletedOp;
        let (tx, rx) = unbounded::<HostEvent>();
        let flags: Arc<Vec<AtomicBool>> =
            Arc::new((0..2).map(|_| AtomicBool::new(false)).collect());
        let cfg = MonitorConfig::new(Condition::MSequentialConsistency).with_window(1);
        let handle = {
            let flags = Arc::clone(&flags);
            std::thread::spawn(move || monitor_main(2, cfg, rx, flags))
        };
        let x = ObjectId::new(0);
        let y = ObjectId::new(1);
        let a_id = MOpId::new(ProcessId::new(0), 0);
        let b_id = MOpId::new(ProcessId::new(1), 0);
        let mk = |id: MOpId, ops: Vec<CompletedOp>| MOpRecord {
            id,
            invoked_at: EventTime::from_nanos(0),
            responded_at: EventTime::from_nanos(10),
            ops,
            outputs: vec![],
            treated_as: MOpClass::Update,
            label: "sb".to_string(),
        };
        let a = mk(
            a_id,
            vec![
                CompletedOp::write(x, 1, a_id, 1),
                CompletedOp::read(y, 0, MOpId::INITIAL, 0),
            ],
        );
        let b = mk(
            b_id,
            vec![
                CompletedOp::write(y, 1, b_id, 1),
                CompletedOp::read(x, 0, MOpId::INITIAL, 0),
            ],
        );
        tx.send(HostEvent::Invoked { id: a_id, at_ns: 0 }).unwrap();
        tx.send(HostEvent::Invoked { id: b_id, at_ns: 0 }).unwrap();
        tx.send(HostEvent::Completed {
            record: a,
            invoked_ns: 0,
        })
        .unwrap();
        tx.send(HostEvent::Completed {
            record: b,
            invoked_ns: 0,
        })
        .unwrap();
        drop(tx);
        let summary = handle.join().unwrap();
        let v = summary.violation.as_ref().expect("violation latched");
        assert!(
            flags.iter().any(|f| f.load(Ordering::SeqCst)),
            "containment flag set"
        );
        if let Some(p) = v.culprit {
            assert!(flags[p.index()].load(Ordering::SeqCst), "culprit fenced");
        }
    }

    /// The containment hook at the invocation boundary: a quarantined
    /// process's traffic is refused while the rest of the cluster keeps
    /// operating.
    #[test]
    fn quarantined_process_is_fenced() {
        let cluster: LiveCluster<MscOverSequencer> = LiveCluster::start_with_monitor(
            2,
            RuntimeConfig::new(1),
            MonitorConfig::new(Condition::MSequentialConsistency),
        );
        cluster.invoke(ProcessId::new(0), wx(1), vec![]);
        // Containment decision, as the sentinel thread would make it.
        cluster.quarantine[1].store(true, Ordering::SeqCst);
        let err = cluster
            .try_invoke(ProcessId::new(1), wx(2), vec![])
            .unwrap_err();
        assert_eq!(
            err,
            Quarantined {
                process: ProcessId::new(1)
            }
        );
        assert!(cluster.quarantined(ProcessId::new(1)));
        assert!(
            cluster.try_invoke(ProcessId::new(0), rx(), vec![]).is_ok(),
            "unaffected processes keep working"
        );
        let (report, monitor) = cluster.shutdown_with_monitor();
        assert_eq!(report.history.len(), 2, "the fenced invocation never ran");
        assert!(monitor.expect("sentinel attached").violation.is_none());
    }

    /// A pipelined session keeps several updates in flight at once: the
    /// replica's peak depth must exceed one, every reply must come back
    /// in invocation order with true (overlapping) wall-clock times, and
    /// the recorded history must still be sequential per process and
    /// m-sequentially consistent.
    #[test]
    fn pipelined_updates_overlap_and_stay_consistent() {
        let cluster: LiveCluster<MscOverSequencer> = LiveCluster::start(2, RuntimeConfig::new(1));
        let p = ProcessId::new(1);
        let mut replies = Vec::new();
        {
            let mut session = cluster.pipelined(p, 8);
            for i in 0..8 {
                if let Some(r) = session.invoke(wx(i), vec![]).unwrap() {
                    replies.push(r);
                }
            }
            assert!(session.in_flight() > 0, "window admits without blocking");
            replies.extend(session.drain());
        }
        assert_eq!(replies.len(), 8, "every pipelined invocation replied");
        for (i, r) in replies.iter().enumerate() {
            assert_eq!(r.id.seq, i as u32, "replies retire in invocation order");
            assert!(r.invoked_at <= r.responded_at);
        }
        let report = cluster.shutdown();
        assert_eq!(report.history.len(), 8);
        let pipe = report.total_pipeline();
        assert_eq!(pipe.invocations, 8);
        assert_eq!(pipe.retired, 8);
        assert!(pipe.peak_depth > 1, "updates overlapped: {pipe:?}");
        assert_eq!(pipe.dropped_replies, 0);
        let sc = check(
            &report.history,
            Condition::MSequentialConsistency,
            Strategy::Auto,
        )
        .unwrap();
        assert!(sc.satisfied, "{:?}", sc.reason);
    }

    /// The admission gate: a query entering a pipeline of the process's
    /// own updates waits for them to apply, so it observes its own writes
    /// even on the local-query msc protocol.
    #[test]
    fn pipelined_query_reads_own_writes() {
        let cluster: LiveCluster<MscOverSequencer> = LiveCluster::start(2, RuntimeConfig::new(1));
        let p = ProcessId::new(1);
        let mut session = cluster.pipelined(p, 4);
        session.invoke(wx(41), vec![]).unwrap();
        session.invoke(wx(42), vec![]).unwrap();
        session.invoke(rx(), vec![]).unwrap();
        let replies = session.drain();
        assert_eq!(replies.len(), 3);
        assert_eq!(
            replies[2].outputs,
            vec![42],
            "query gated behind the process's pending updates"
        );
        drop(session);
        let report = cluster.shutdown();
        assert_eq!(report.history.len(), 3);
    }

    /// Batching and pipelining together, with the sentinel attached: a
    /// burst of pipelined updates group-commits into multi-item ordering
    /// frames (occupancy above one), the monitor sees no violation, and
    /// the final history checks out.
    #[test]
    fn batched_pipelined_cluster_stays_clean_under_monitor() {
        let cluster: LiveCluster<MscOverSequencer> = LiveCluster::start_with_monitor(
            3,
            RuntimeConfig::new(1).with_batching(moc_abcast::BatchConfig {
                max_batch: 4,
                max_delay_ns: 50_000_000,
            }),
            MonitorConfig::new(Condition::MSequentialConsistency).with_window(2),
        );
        let cluster = Arc::new(cluster);
        let mut joins = Vec::new();
        for p in 1..3u32 {
            let c = Arc::clone(&cluster);
            joins.push(std::thread::spawn(move || {
                let mut session = c.pipelined(ProcessId::new(p), 4);
                for i in 0..6 {
                    session.invoke(wx(p as i64 * 100 + i), vec![]).unwrap();
                }
                session.drain();
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let cluster = Arc::try_unwrap(cluster).unwrap_or_else(|_| panic!("refs remain"));
        let (report, monitor) = cluster.shutdown_with_monitor();
        assert_eq!(report.history.len(), 12, "every invocation completed");
        let summary = monitor.expect("sentinel attached");
        assert!(summary.violation.is_none(), "{:?}", summary.violation);
        assert_eq!(summary.stats.completions, 12);
        let batch = report.total_batch_stats();
        assert_eq!(batch.items_stamped, 12, "every update went through a batch");
        assert!(
            batch.occupancy() > 1.0,
            "pipelined burst group-commits: {batch:?}"
        );
        assert_eq!(report.total_pipeline().dropped_replies, 0);
        let sc = check(
            &report.history,
            Condition::MSequentialConsistency,
            Strategy::Auto,
        )
        .unwrap();
        assert!(sc.satisfied, "{:?}", sc.reason);
    }

    #[test]
    fn isis_backend_works_live() {
        let cluster: LiveCluster<MscOverIsis> = LiveCluster::start(3, RuntimeConfig::new(2));
        for i in 0..5 {
            cluster.invoke(ProcessId::new((i % 3) as u32), wx(i as i64), vec![]);
        }
        let report = cluster.shutdown();
        assert_eq!(report.history.len(), 5);
        assert!(report.replica_metrics.iter().any(|m| m.updates_applied > 0));
    }
}
