//! Figure 4: the m-sequential-consistency protocol.
//!
//! Three actions, each local and atomic:
//!
//! * **A1** — on invocation of a (potentially) update m-operation,
//!   atomically broadcast it to all processes.
//! * **A2** — on delivery of an atomic broadcast, apply the m-operation to
//!   the local copy, bumping `ts[x]` for every written `x`; if this replica
//!   issued it, generate the response.
//! * **A3** — on invocation of a query m-operation, apply it to the local
//!   copy immediately and respond.
//!
//! Theorem 15: all executions are m-sequentially consistent. The protocol
//! is an extension of Attiya & Welch's sequentially consistent
//! implementation to operations spanning multiple objects.

use std::collections::VecDeque;

use moc_abcast::{Abcast, OrderingConfig, Outbox};
use moc_core::ids::ProcessId;
use moc_core::mop::MOpClass;

use crate::store::ReplicaStore;
use crate::{Completion, MOperation, ProtocolMsg, ReplicaMetrics, ReplicaProtocol};

/// One process's replica running the Figure 4 protocol over atomic
/// broadcast implementation `A`.
#[derive(Debug, Clone)]
pub struct MscReplica<A: Abcast<MOperation>> {
    me: ProcessId,
    n: usize,
    store: ReplicaStore,
    abcast: A,
    completions: VecDeque<Completion>,
    delivery_log: Vec<moc_core::ids::MOpId>,
    metrics: ReplicaMetrics,
}

impl<A: Abcast<MOperation>> MscReplica<A> {
    /// Relays buffered abcast sends into the protocol outbox, then applies
    /// any deliveries (action A2).
    fn pump_abcast(
        &mut self,
        ab_out: &mut Outbox<A::Msg>,
        out: &mut Outbox<ProtocolMsg<A::Msg>>,
        class: MOpClass,
    ) {
        for (to, m) in ab_out.drain() {
            match class {
                MOpClass::Update => self.metrics.update_msgs_sent += 1,
                MOpClass::Query => self.metrics.query_msgs_sent += 1,
            }
            out.send(to, ProtocolMsg::Abcast(m));
        }
        for d in self.abcast.drain_delivered() {
            self.delivery_log.push(d.item.id);
            let rec = self.store.apply(&d.item);
            self.metrics.updates_applied += 1;
            if d.item.id.process == self.me {
                self.completions.push_back(Completion {
                    id: d.item.id,
                    outputs: rec.outputs,
                    ops: rec.ops,
                    treated_as: MOpClass::Update,
                    label: d.item.program.name().to_string(),
                });
            }
        }
    }
}

impl<A: Abcast<MOperation>> ReplicaProtocol for MscReplica<A> {
    type Msg = ProtocolMsg<A::Msg>;
    type Ordering = A;

    fn new(me: ProcessId, n: usize, num_objects: usize, ordering: &OrderingConfig) -> Self {
        MscReplica {
            me,
            n,
            store: ReplicaStore::new(num_objects),
            abcast: A::new(me, n, ordering),
            completions: VecDeque::new(),
            delivery_log: Vec::new(),
            metrics: ReplicaMetrics::default(),
        }
    }

    fn protocol_name() -> &'static str {
        "msc"
    }

    fn invoke(&mut self, mop: MOperation, out: &mut Outbox<Self::Msg>) {
        if mop.is_update() {
            // A1: atomically broadcast.
            let mut ab_out = Outbox::new(self.n);
            self.abcast.broadcast(mop, &mut ab_out);
            self.pump_abcast(&mut ab_out, out, MOpClass::Update);
        } else {
            // A3: query runs against the local copy, responding at once.
            let rec = self.store.apply(&mop);
            self.metrics.queries_completed += 1;
            self.completions.push_back(Completion {
                id: mop.id,
                outputs: rec.outputs,
                ops: rec.ops,
                treated_as: MOpClass::Query,
                label: mop.program.name().to_string(),
            });
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: Self::Msg, out: &mut Outbox<Self::Msg>) {
        match msg {
            ProtocolMsg::Abcast(am) => {
                let mut ab_out = Outbox::new(self.n);
                self.abcast.on_message(from, am, &mut ab_out);
                self.pump_abcast(&mut ab_out, out, MOpClass::Update);
            }
            other => {
                debug_assert!(
                    false,
                    "msc replica received a non-abcast message: {other:?}"
                );
            }
        }
    }

    fn drain_completions(&mut self) -> Vec<Completion> {
        self.completions.drain(..).collect()
    }

    fn store(&self) -> &ReplicaStore {
        &self.store
    }

    fn metrics(&self) -> ReplicaMetrics {
        self.metrics
    }

    fn delivery_log(&self) -> &[moc_core::ids::MOpId] {
        &self.delivery_log
    }

    fn ordering(&self) -> &A {
        &self.abcast
    }

    fn on_tick(&mut self, now_ns: u64, out: &mut Outbox<Self::Msg>) {
        let mut ab_out = Outbox::new(self.n);
        self.abcast.on_tick(now_ns, &mut ab_out);
        // Ticks can complete a view change, which can release deliveries.
        self.pump_abcast(&mut ab_out, out, MOpClass::Update);
    }

    fn on_restart(&mut self, now_ns: u64, out: &mut Outbox<Self::Msg>) {
        let mut ab_out = Outbox::new(self.n);
        self.abcast.on_restart(now_ns, &mut ab_out);
        self.pump_abcast(&mut ab_out, out, MOpClass::Update);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moc_abcast::SequencerAbcast;
    use moc_core::ids::{MOpId, ObjectId};
    use moc_core::program::{reg, ProgramBuilder};
    use std::sync::Arc;

    type Replica = MscReplica<SequencerAbcast<MOperation>>;

    fn pid(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn write_x(val: i64) -> MOperation {
        let mut b = ProgramBuilder::new("wx");
        b.write(ObjectId::new(0), moc_core::program::imm(val))
            .ret(vec![]);
        MOperation::new(MOpId::new(pid(1), 0), Arc::new(b.build().unwrap()), vec![])
    }

    fn read_x(p: u32, seq: u32) -> MOperation {
        let mut b = ProgramBuilder::new("rx");
        b.read(ObjectId::new(0), 0).ret(vec![reg(0)]);
        MOperation::new(
            MOpId::new(pid(p), seq),
            Arc::new(b.build().unwrap()),
            vec![],
        )
    }

    /// Queries complete synchronously against the local copy (A3), even
    /// before any update arrives — the stale-read behaviour that makes
    /// this protocol m-sequentially consistent but not m-linearizable.
    #[test]
    fn queries_are_local_and_immediate() {
        let mut r = Replica::new(pid(1), 2, 1, &OrderingConfig::default());
        let mut out = Outbox::new(2);
        r.invoke(read_x(1, 0), &mut out);
        assert!(out.is_empty(), "no messages for a query");
        let done = r.drain_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].outputs, vec![0]);
        assert_eq!(done[0].treated_as, MOpClass::Query);
        assert_eq!(r.metrics().queries_completed, 1);
        assert_eq!(r.metrics().query_msgs_sent, 0);
    }

    /// Updates respond only once their broadcast is delivered back (A2).
    #[test]
    fn updates_complete_at_own_delivery() {
        let mut r = Replica::new(pid(1), 2, 1, &OrderingConfig::default());
        let mut out = Outbox::new(2);
        r.invoke(write_x(5), &mut out);
        // Submit went to the sequencer; nothing completed yet.
        assert_eq!(out.len(), 1);
        assert!(r.drain_completions().is_empty());

        // Simulate the sequencer (process 0) ordering the submission.
        let mut seq = Replica::new(pid(0), 2, 1, &OrderingConfig::default());
        let submissions = out.drain();
        let mut seq_out = Outbox::new(2);
        let ProtocolMsg::Abcast(am) = submissions[0].1.clone() else {
            panic!("expected abcast submit");
        };
        seq.on_message(pid(1), ProtocolMsg::Abcast(am), &mut seq_out);
        let ordered = seq_out.drain();
        assert_eq!(ordered.len(), 2, "Ordered fans out to both");

        // Deliver the ordered copy back to P1: now it completes.
        let mut out2 = Outbox::new(2);
        for (to, m) in ordered {
            if to == pid(1) {
                r.on_message(pid(0), m, &mut out2);
            }
        }
        let done = r.drain_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].treated_as, MOpClass::Update);
        assert_eq!(r.store().get(ObjectId::new(0)).value, 5);
        assert_eq!(r.store().ts().as_slice(), &[1]);
        assert_eq!(r.metrics().updates_applied, 1);
    }
}
