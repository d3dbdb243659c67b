//! The replica host: one IO-free state machine running a
//! [`ReplicaProtocol`] replica for its co-located client.
//!
//! The paper's processes are sequential (Section 2). A host keeps that
//! discipline over a replica with several invocations in flight: it
//! allocates ids, admits through a read-your-writes gate, retires strictly
//! FIFO and clamps recorded times, framing sends through a [`Transport`].
//! Every input takes the current time and writes frames and [`HostEvent`]s
//! into a caller-owned [`HostOut`]. The simulator node, the thread runtime
//! and the model checker are thin adapters around it.

use std::collections::VecDeque;
use std::sync::Arc;

use moc_abcast::{Abcast, LinkStats, Outbox, Transport, Wire};
use moc_core::ids::{MOpId, ProcessId};
use moc_core::mop::{EventTime, MOpRecord};
use moc_core::program::Program;
use moc_core::value::Value;
use moc_monitor::OnlineMonitor;

use crate::{Completion, MOperation, ReplicaProtocol};

/// Counters describing a host's invocation pipeline: how deep the
/// in-flight window got, how long admissions waited behind the
/// read-your-writes gate, and what went unclaimed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineMetrics {
    /// Invocations accepted.
    pub invocations: u64,
    /// Invocations retired (response recorded).
    pub retired: u64,
    /// Peak of admitted-but-unretired plus gate-queued invocations.
    pub peak_depth: u64,
    /// Completions that arrived while an earlier invocation of the same
    /// process was unretired (retired strictly FIFO via the stash).
    pub out_of_order_completions: u64,
    /// Total time invocations spent queued behind the admission gate
    /// before reaching the protocol.
    pub queue_residency_ns: u64,
    /// Replies whose client had gone away by retirement, counted by the
    /// runtime, which owns the reply channels. A healthy run drops none.
    pub dropped_replies: u64,
    /// Completions that matched no unretired invocation, or repeated
    /// one: a double-applied broadcast frame. Never retired.
    pub orphan_completions: u64,
}

impl PipelineMetrics {
    /// Combines counters from two replicas: sums, except `peak_depth`,
    /// which takes the max.
    pub fn merge(&self, other: &PipelineMetrics) -> PipelineMetrics {
        PipelineMetrics {
            invocations: self.invocations + other.invocations,
            retired: self.retired + other.retired,
            peak_depth: self.peak_depth.max(other.peak_depth),
            out_of_order_completions: self.out_of_order_completions
                + other.out_of_order_completions,
            queue_residency_ns: self.queue_residency_ns + other.queue_residency_ns,
            dropped_replies: self.dropped_replies + other.dropped_replies,
            orphan_completions: self.orphan_completions + other.orphan_completions,
        }
    }
}

/// What a host step reports besides its wire frames, in the order it
/// happened.
#[derive(Debug, Clone)]
pub enum HostEvent {
    /// An m-operation was invoked.
    Invoked {
        /// The id the host allocated.
        id: MOpId,
        /// The invocation time.
        at_ns: u64,
    },
    /// The oldest unretired m-operation retired. Retirements come in
    /// invocation order, one per invocation.
    Completed {
        /// The history record, with clamped times.
        record: MOpRecord,
        /// The true (unclamped) invocation time.
        invoked_ns: u64,
    },
    /// A completion that matched no unretired invocation, stamped with
    /// the current time. It is tallied and never retired.
    Orphan(MOpRecord),
}

impl HostEvent {
    /// Feeds the event to an online sentinel and returns its time. An
    /// orphan is fed as a completion: a re-completion of a settled id
    /// latches the sentinel's duplicate-completion violation.
    pub fn feed(self, monitor: &mut OnlineMonitor) -> u64 {
        match self {
            HostEvent::Invoked { id, at_ns } => {
                monitor.on_invoke(id, at_ns);
                at_ns
            }
            HostEvent::Completed { record, .. } | HostEvent::Orphan(record) => {
                let at_ns = record.responded_at.as_nanos();
                monitor.on_complete(record, at_ns);
                at_ns
            }
        }
    }
}

/// Caller-owned output of host steps: drain both buffers after each step.
#[derive(Debug)]
pub struct HostOut<F> {
    /// Wire frames to send, in order.
    pub frames: Wire<F>,
    /// Events, in order.
    pub events: Vec<HostEvent>,
}

impl<F> Default for HostOut<F> {
    fn default() -> Self {
        HostOut {
            frames: Vec::new(),
            events: Vec::new(),
        }
    }
}

/// An admitted invocation awaiting retirement.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    id: MOpId,
    invoked_ns: u64,
    update: bool,
}

/// One replica, its transport and its client's invocation pipeline.
#[derive(Debug, Clone)]
pub struct ReplicaHost<R: ReplicaProtocol, W> {
    me: ProcessId,
    replica: R,
    transport: W,
    next_seq: u32,
    /// Invocations the gate has not let through yet, with their times.
    admission: VecDeque<(MOperation, u64)>,
    /// Admitted invocations in invocation (FIFO) order.
    pending: VecDeque<InFlight>,
    /// Completions waiting for every earlier invocation to retire.
    stash: Vec<Completion>,
    /// The latest recorded response time.
    last_retired: u64,
    metrics: PipelineMetrics,
    out: Outbox<R::Msg>,
    ready: Vec<R::Msg>,
}

impl<R, W> ReplicaHost<R, W>
where
    R: ReplicaProtocol,
    W: Transport<R::Msg>,
{
    /// Hosts `replica` for process `me` of `n`, over `transport`.
    pub fn new(me: ProcessId, n: usize, replica: R, transport: W) -> Self {
        ReplicaHost {
            me,
            replica,
            transport,
            next_seq: 0,
            admission: VecDeque::new(),
            pending: VecDeque::new(),
            stash: Vec::new(),
            last_retired: 0,
            metrics: PipelineMetrics::default(),
            out: Outbox::new(n),
            ready: Vec::new(),
        }
    }

    /// The hosted replica.
    pub fn replica(&self) -> &R {
        &self.replica
    }

    /// Transport counters.
    pub fn link_stats(&self) -> LinkStats {
        self.transport.stats()
    }

    /// Pipeline counters.
    pub fn pipeline(&self) -> PipelineMetrics {
        self.metrics
    }

    /// Invocations not yet retired (admitted or queued at the gate).
    pub fn in_flight(&self) -> usize {
        self.pending.len() + self.admission.len()
    }

    /// The earliest time [`ReplicaHost::on_tick`] has work: a transport
    /// retransmission, a failover suspicion or a group-commit flush.
    pub fn next_deadline(&self) -> Option<u64> {
        let deadlines = [
            self.transport.next_deadline(),
            self.replica.ordering().next_deadline(),
        ];
        deadlines.into_iter().flatten().min()
    }

    /// The client invokes `program(args)` as its next m-operation.
    pub fn invoke(
        &mut self,
        program: Arc<Program>,
        args: Vec<Value>,
        now_ns: u64,
        out: &mut HostOut<W::Frame>,
    ) {
        let id = MOpId::new(self.me, self.next_seq);
        self.next_seq += 1;
        out.events.push(HostEvent::Invoked { id, at_ns: now_ns });
        self.admission
            .push_back((MOperation::new(id, program, args), now_ns));
        self.metrics.invocations += 1;
        self.metrics.peak_depth = self.metrics.peak_depth.max(self.in_flight() as u64);
        self.settle(now_ns, out);
    }

    /// A wire frame from `from` arrives.
    pub fn on_frame(
        &mut self,
        from: ProcessId,
        frame: W::Frame,
        now_ns: u64,
        out: &mut HostOut<W::Frame>,
    ) {
        self.transport
            .receive(from, frame, now_ns, &mut out.frames, &mut self.ready);
        for m in self.ready.drain(..) {
            self.replica.on_message(from, m, &mut self.out);
        }
        self.settle(now_ns, out);
    }

    /// Time passed: fires the transport's and the broadcast's due timers.
    pub fn on_tick(&mut self, now_ns: u64, out: &mut HostOut<W::Frame>) {
        self.transport.on_tick(now_ns, &mut out.frames);
        self.replica.on_tick(now_ns, &mut self.out);
        self.settle(now_ns, out);
    }

    /// The process restarted after a crash window: the transport rejoins,
    /// then the broadcast reacts to its own outage.
    pub fn on_restart(&mut self, now_ns: u64, out: &mut HostOut<W::Frame>) {
        self.transport.on_restart(now_ns, &mut out.frames);
        self.replica.on_restart(now_ns, &mut self.out);
        self.settle(now_ns, out);
    }

    /// Retires completions and admits queued invocations until neither
    /// makes progress, then frames the replica's sends. Admission can
    /// complete synchronously (a local query) and retirement can open the
    /// gate, so the two interleave to a fixpoint.
    fn settle(&mut self, now_ns: u64, out: &mut HostOut<W::Frame>) {
        loop {
            let mut progress = false;
            let front = self.pending.front().map(|p| p.id);
            for c in self.replica.drain_completions() {
                progress = true;
                let unretired = self.pending.iter().any(|p| p.id == c.id)
                    && !self.stash.iter().any(|s| s.id == c.id);
                if !unretired {
                    self.metrics.orphan_completions += 1;
                    out.events
                        .push(HostEvent::Orphan(record(c, now_ns, now_ns)));
                    continue;
                }
                if front != Some(c.id) {
                    self.metrics.out_of_order_completions += 1;
                }
                self.stash.push(c);
                self.retire(now_ns, out);
            }
            progress |= self.admit(now_ns);
            if !progress {
                break;
            }
        }
        for (to, m) in self.out.drain() {
            self.transport.send(to, m, now_ns, &mut out.frames);
        }
    }

    /// Retires the oldest invocations whose completions are stashed.
    fn retire(&mut self, now_ns: u64, out: &mut HostOut<W::Frame>) {
        while let Some(front) = self.pending.front() {
            let Some(i) = self.stash.iter().position(|c| c.id == front.id) else {
                break;
            };
            let c = self.stash.swap_remove(i);
            let p = self.pending.pop_front().expect("front exists");
            // Pipelined invocations overlap in real time, but the model's
            // processes are sequential: the recorded interval starts no
            // earlier than the previous retirement.
            let invoked = p.invoked_ns.max(self.last_retired);
            let responded = now_ns.max(invoked);
            self.last_retired = responded;
            self.metrics.retired += 1;
            out.events.push(HostEvent::Completed {
                record: record(c, invoked, responded),
                invoked_ns: p.invoked_ns,
            });
        }
    }

    /// The read-your-writes gate: admits queued invocations while the
    /// pipeline is empty or the head and everything in flight are
    /// updates. A query waits for the pipeline to drain, so it observes
    /// every earlier update of its own process. Returns whether it
    /// admitted anything.
    fn admit(&mut self, now_ns: u64) -> bool {
        let mut admitted = false;
        while let Some((head, _)) = self.admission.front() {
            let update = head.is_update();
            if !self.pending.iter().all(|p| p.update && update) {
                break;
            }
            let (mop, invoked_ns) = self.admission.pop_front().expect("head exists");
            admitted = true;
            self.metrics.queue_residency_ns += now_ns.saturating_sub(invoked_ns);
            self.pending.push_back(InFlight {
                id: mop.id,
                invoked_ns,
                update,
            });
            self.replica.invoke(mop, &mut self.out);
        }
        admitted
    }
}

/// The history record of completion `c` over `[invoked, responded]`.
fn record(c: Completion, invoked_ns: u64, responded_ns: u64) -> MOpRecord {
    MOpRecord {
        id: c.id,
        invoked_at: EventTime::from_nanos(invoked_ns),
        responded_at: EventTime::from_nanos(responded_ns),
        ops: c.ops,
        outputs: c.outputs,
        treated_as: c.treated_as,
        label: c.label,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MscOverSequencer, MscOverSharded};
    use moc_abcast::{Direct, OrderingConfig};
    use moc_core::ids::ObjectId;
    use moc_core::program::{imm, reg, ProgramBuilder};

    fn write(object: u32, value: i64) -> Arc<Program> {
        let mut b = ProgramBuilder::new(format!("w{object}"));
        b.write(ObjectId::new(object), imm(value)).ret(vec![]);
        Arc::new(b.build().unwrap())
    }

    fn read(object: u32) -> Arc<Program> {
        let mut b = ProgramBuilder::new(format!("r{object}"));
        b.read(ObjectId::new(object), 0).ret(vec![reg(0)]);
        Arc::new(b.build().unwrap())
    }

    /// Hosts wired by hand over [`Direct`] channels: the test is the
    /// network and picks every delivery.
    struct Net<R: ReplicaProtocol> {
        hosts: Vec<ReplicaHost<R, Direct>>,
        /// In-flight frames as `(from, to, msg)`.
        wire: Vec<(ProcessId, ProcessId, R::Msg)>,
        /// Every event so far, tagged with its host.
        events: Vec<(usize, HostEvent)>,
    }

    impl<R: ReplicaProtocol> Net<R> {
        fn new(n: usize, num_objects: usize, ordering: &OrderingConfig) -> Self {
            let hosts = (0..n)
                .map(|p| {
                    let me = ProcessId::new(p as u32);
                    ReplicaHost::new(me, n, R::new(me, n, num_objects, ordering), Direct)
                })
                .collect();
            Net {
                hosts,
                wire: Vec::new(),
                events: Vec::new(),
            }
        }

        fn step(
            &mut self,
            p: usize,
            f: impl FnOnce(&mut ReplicaHost<R, Direct>, &mut HostOut<R::Msg>),
        ) {
            let mut out = HostOut::default();
            f(&mut self.hosts[p], &mut out);
            let from = ProcessId::new(p as u32);
            self.wire
                .extend(out.frames.into_iter().map(|(to, m)| (from, to, m)));
            self.events.extend(out.events.into_iter().map(|e| (p, e)));
        }

        fn invoke(&mut self, p: usize, program: Arc<Program>, now: u64) {
            self.step(p, |h, out| h.invoke(program, vec![], now, out));
        }

        /// Delivers the first in-flight frame `pick` accepts; `false` if
        /// there is none.
        fn deliver_where(&mut self, now: u64, pick: impl Fn(ProcessId, ProcessId) -> bool) -> bool {
            let Some(i) = self.wire.iter().position(|(f, t, _)| pick(*f, *t)) else {
                return false;
            };
            let (from, to, msg) = self.wire.remove(i);
            self.step(to.index(), |h, out| h.on_frame(from, msg, now, out));
            true
        }

        /// Delivers everything, oldest frame first.
        fn quiesce(&mut self, now: u64) {
            while self.deliver_where(now, |_, _| true) {}
        }

        /// The records host `p` retired, in order.
        fn retired(&self, p: usize) -> Vec<&MOpRecord> {
            self.events
                .iter()
                .filter_map(|(q, e)| match e {
                    HostEvent::Completed { record, .. } if *q == p => Some(record),
                    _ => None,
                })
                .collect()
        }
    }

    /// Two pipelined updates on different shards: shard 1 is sequenced
    /// by P0 itself, so the second update completes first. It must wait
    /// in the stash and retire after the first, in invocation order.
    #[test]
    fn out_of_order_completion_waits_in_the_stash() {
        let ordering = OrderingConfig {
            shard_plan: Some(moc_core::shard::ShardPlan::new(vec![0, 1]).unwrap()),
            ..OrderingConfig::default()
        };
        let mut net = Net::<MscOverSharded>::new(2, 2, &ordering);
        net.invoke(0, write(0, 1), 10);
        net.invoke(0, write(1, 2), 20);
        assert_eq!(net.hosts[0].in_flight(), 2, "both updates admitted");
        // Only P0's self-traffic: shard 1's item orders and applies.
        let p0 = ProcessId::new(0);
        while net.deliver_where(30, |_, to| to == p0) {}
        assert!(
            net.retired(0).is_empty(),
            "the later op must not retire first"
        );
        assert_eq!(net.hosts[0].pipeline().out_of_order_completions, 1);
        net.quiesce(40);
        let ids: Vec<u32> = net.retired(0).iter().map(|r| r.id.seq).collect();
        assert_eq!(ids, vec![0, 1], "FIFO retirement");
        assert_eq!(net.hosts[0].in_flight(), 0);
        assert_eq!(net.hosts[0].pipeline().retired, 2);
    }

    /// A query behind a pending update of its own process waits at the
    /// gate until the update retires, then reads the process's write.
    #[test]
    fn query_waits_at_the_gate_for_pending_updates() {
        let mut net = Net::<MscOverSequencer>::new(2, 1, &OrderingConfig::default());
        net.invoke(1, write(0, 7), 10);
        net.invoke(1, read(0), 20);
        assert_eq!(net.hosts[1].in_flight(), 2);
        assert!(
            net.retired(1).is_empty(),
            "the local query was not admitted"
        );
        net.quiesce(50);
        let retired = net.retired(1);
        assert_eq!(retired.len(), 2);
        assert_eq!(retired[1].outputs, vec![7], "read-your-writes");
        let p = net.hosts[1].pipeline();
        assert_eq!(p.queue_residency_ns, 30, "the query queued from 20 to 50");
        assert_eq!(p.peak_depth, 2);
    }

    /// Pipelined updates overlap in real time, but their recorded
    /// intervals are clamped to follow one another; the true invocation
    /// time is still reported.
    #[test]
    fn overlapping_pipelined_intervals_are_clamped() {
        let mut net = Net::<MscOverSequencer>::new(2, 1, &OrderingConfig::default());
        net.invoke(1, write(0, 1), 10);
        net.invoke(1, write(0, 2), 20);
        let mut now = 100;
        while net.deliver_where(now, |_, _| true) {
            now += 100;
        }
        let retired = net.retired(1);
        assert_eq!(retired.len(), 2);
        assert_eq!(retired[0].invoked_at.as_nanos(), 10);
        assert!(retired[0].responded_at.as_nanos() > 20, "the two overlap");
        assert_eq!(
            retired[1].invoked_at, retired[0].responded_at,
            "the second interval starts where the first ended"
        );
        assert!(retired[1].responded_at >= retired[1].invoked_at);
        let true_invocation = net.events.iter().find_map(|(_, e)| match e {
            HostEvent::Completed { record, invoked_ns } if record.id.seq == 1 => Some(*invoked_ns),
            _ => None,
        });
        assert_eq!(true_invocation, Some(20));
    }

    /// A duplicated submission is stamped twice, so the update completes
    /// twice at its issuer. The second completion is an orphan: tallied
    /// and reported, never retired.
    #[test]
    fn duplicate_completion_is_an_orphan() {
        let mut net = Net::<MscOverSequencer>::new(2, 1, &OrderingConfig::default());
        net.invoke(1, write(0, 3), 10);
        let submit = net.wire[0].clone();
        net.wire.push(submit);
        net.quiesce(20);
        assert_eq!(net.retired(1).len(), 1);
        let orphans: Vec<&MOpRecord> = net
            .events
            .iter()
            .filter_map(|(_, e)| match e {
                HostEvent::Orphan(r) => Some(r),
                _ => None,
            })
            .collect();
        assert_eq!(orphans.len(), 1);
        assert_eq!(orphans[0].id, net.retired(1)[0].id);
        let p = net.hosts[1].pipeline();
        assert_eq!((p.retired, p.orphan_completions), (1, 1));
        assert_eq!(net.hosts[1].in_flight(), 0);
    }
}
