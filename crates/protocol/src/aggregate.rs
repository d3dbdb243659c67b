//! The aggregate-object baseline.
//!
//! The introduction warns against modeling multi-methods "by defining an
//! aggregate object that represents the state of all objects": it forces
//! every access — queries included — through the single object's
//! serialization point, losing locality and concurrency. This replica makes
//! that strawman concrete so the benchmarks can quantify the loss: *every*
//! m-operation is atomically broadcast and applied at delivery, exactly as
//! if the whole store were one concurrent object.
//!
//! The result is trivially m-linearizable (all operations share one total
//! order consistent with real time), but a query now costs a full broadcast
//! round and is applied by all `n` replicas, instead of costing zero
//! messages (Figure 4) or one round of `2n` point-to-point messages
//! (Figure 6).

use std::collections::VecDeque;

use moc_abcast::{Abcast, OrderingConfig, Outbox};
use moc_core::ids::ProcessId;

use crate::store::ReplicaStore;
use crate::{Completion, MOperation, ProtocolMsg, ReplicaMetrics, ReplicaProtocol};

/// One process's replica of the aggregate-object baseline over atomic
/// broadcast implementation `A`.
#[derive(Debug, Clone)]
pub struct AggregateReplica<A: Abcast<MOperation>> {
    me: ProcessId,
    n: usize,
    store: ReplicaStore,
    abcast: A,
    completions: VecDeque<Completion>,
    delivery_log: Vec<moc_core::ids::MOpId>,
    metrics: ReplicaMetrics,
}

impl<A: Abcast<MOperation>> AggregateReplica<A> {
    fn pump_abcast(
        &mut self,
        ab_out: &mut Outbox<A::Msg>,
        out: &mut Outbox<ProtocolMsg<A::Msg>>,
        from_update: bool,
    ) {
        for (to, m) in ab_out.drain() {
            if from_update {
                self.metrics.update_msgs_sent += 1;
            } else {
                self.metrics.query_msgs_sent += 1;
            }
            out.send(to, ProtocolMsg::Abcast(m));
        }
        for d in self.abcast.drain_delivered() {
            self.delivery_log.push(d.item.id);
            let class = d.item.class();
            let rec = self.store.apply(&d.item);
            match class {
                moc_core::mop::MOpClass::Update => self.metrics.updates_applied += 1,
                moc_core::mop::MOpClass::Query => self.metrics.queries_completed += 1,
            }
            if d.item.id.process == self.me {
                self.completions.push_back(Completion {
                    id: d.item.id,
                    outputs: rec.outputs,
                    ops: rec.ops,
                    treated_as: class,
                    label: d.item.program.name().to_string(),
                });
            }
        }
    }
}

impl<A: Abcast<MOperation>> ReplicaProtocol for AggregateReplica<A> {
    type Msg = ProtocolMsg<A::Msg>;
    type Ordering = A;

    fn new(me: ProcessId, n: usize, num_objects: usize, ordering: &OrderingConfig) -> Self {
        AggregateReplica {
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
        "aggregate"
    }

    fn invoke(&mut self, mop: MOperation, out: &mut Outbox<Self::Msg>) {
        // Everything — update or query — goes through the total order.
        let from_update = mop.is_update();
        let mut ab_out = Outbox::new(self.n);
        self.abcast.broadcast(mop, &mut ab_out);
        self.pump_abcast(&mut ab_out, out, from_update);
    }

    fn on_message(&mut self, from: ProcessId, msg: Self::Msg, out: &mut Outbox<Self::Msg>) {
        match msg {
            ProtocolMsg::Abcast(am) => {
                let mut ab_out = Outbox::new(self.n);
                self.abcast.on_message(from, am, &mut ab_out);
                self.pump_abcast(&mut ab_out, out, true);
            }
            other => {
                debug_assert!(
                    false,
                    "aggregate replica received a non-abcast message: {other:?}"
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
        self.pump_abcast(&mut ab_out, out, true);
    }

    fn on_restart(&mut self, now_ns: u64, out: &mut Outbox<Self::Msg>) {
        let mut ab_out = Outbox::new(self.n);
        self.abcast.on_restart(now_ns, &mut ab_out);
        self.pump_abcast(&mut ab_out, out, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moc_abcast::SequencerAbcast;
    use moc_core::ids::{MOpId, ObjectId};
    use moc_core::program::{reg, ProgramBuilder};
    use std::sync::Arc;

    type Replica = AggregateReplica<SequencerAbcast<MOperation>>;

    #[test]
    fn even_queries_are_broadcast() {
        let mut b = ProgramBuilder::new("rx");
        b.read(ObjectId::new(0), 0).ret(vec![reg(0)]);
        let q = MOperation::new(
            MOpId::new(ProcessId::new(1), 0),
            Arc::new(b.build().unwrap()),
            vec![],
        );
        let mut r = Replica::new(ProcessId::new(1), 2, 1, &OrderingConfig::default());
        let mut out = Outbox::new(2);
        r.invoke(q, &mut out);
        assert_eq!(out.len(), 1, "query submitted to the sequencer");
        assert!(
            r.drain_completions().is_empty(),
            "query must wait for the total order"
        );
        assert_eq!(r.metrics().query_msgs_sent, 1);
    }
}
