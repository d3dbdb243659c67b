//! Figure 6: the m-linearizability protocol.
//!
//! Updates follow Figure 4 (A1/A2: atomic broadcast, apply at delivery).
//! Queries must not read stale values, so (A3) the issuing process sends a
//! "query" to all processes; (A4) each answers with its copy of the shared
//! objects and its `myts`; (A5) the issuer keeps the response with the
//! maximal timestamp; and (A6) once all `n` responses arrived, the query
//! executes against the retained snapshot and responds.
//!
//! Theorem 20: all executions are m-linearizable. Unlike the Attiya–Welch
//! linearizable implementation, no clock synchronization or message-delay
//! bound is assumed — the protocol is correct in a fully asynchronous
//! system.
//!
//! The paper notes (end of Section 5.2) that responders may send only the
//! objects the query touches; [`QueryScope::Relevant`] enables that
//! optimization, [`QueryScope::Full`] matches the pseudocode verbatim.

use std::collections::{HashMap, VecDeque};

use moc_abcast::{Abcast, OrderingConfig, Outbox};
use moc_core::ids::{ObjectId, ProcessId, QueryId};
use moc_core::mop::MOpClass;
use moc_core::value::Versioned;
use moc_core::vv::VersionVector;

use crate::store::ReplicaStore;
use crate::{Completion, MOperation, ProtocolMsg, ReplicaMetrics, ReplicaProtocol};

/// How much state a "query response" (action A4) carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryScope {
    /// The whole object array, as in the Figure 6 pseudocode.
    #[default]
    Full,
    /// Only the objects the query's program references — the optimization
    /// the paper points out is "easy to verify" correct.
    Relevant,
}

#[derive(Debug, Clone)]
struct PendingQuery {
    mop: MOperation,
    /// Best snapshot so far (`othX`, `othts`); `None` until the first
    /// response.
    best: Option<(Vec<(ObjectId, Versioned)>, VersionVector)>,
    responses: usize,
}

/// One process's replica running the Figure 6 protocol over atomic
/// broadcast implementation `A`.
#[derive(Debug, Clone)]
pub struct MlinReplica<A: Abcast<MOperation>> {
    me: ProcessId,
    n: usize,
    store: ReplicaStore,
    abcast: A,
    completions: VecDeque<Completion>,
    delivery_log: Vec<moc_core::ids::MOpId>,
    pending: HashMap<QueryId, PendingQuery>,
    next_query: u64,
    scope: QueryScope,
    metrics: ReplicaMetrics,
}

impl<A: Abcast<MOperation>> MlinReplica<A> {
    /// Switches the query-response payload policy (default
    /// [`QueryScope::Full`]).
    pub fn set_query_scope(&mut self, scope: QueryScope) {
        self.scope = scope;
    }

    /// Number of query rounds currently awaiting responses.
    pub fn pending_queries(&self) -> usize {
        self.pending.len()
    }

    fn pump_abcast(&mut self, ab_out: &mut Outbox<A::Msg>, out: &mut Outbox<ProtocolMsg<A::Msg>>) {
        for (to, m) in ab_out.drain() {
            self.metrics.update_msgs_sent += 1;
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

    /// A6: all responses received — run the query on the retained snapshot.
    fn finish_query(&mut self, qid: QueryId) {
        let pq = self.pending.remove(&qid).expect("pending query exists");
        let (state, ts) = pq
            .best
            .expect("n >= 1 responses implies a snapshot was retained");
        let mut snapshot = ReplicaStore::from_snapshot(self.store.num_objects(), &state, ts);
        let rec = snapshot.apply(&pq.mop);
        debug_assert!(
            rec.ops.iter().all(|op| op.is_read()),
            "query m-operations must not write"
        );
        self.metrics.queries_completed += 1;
        self.completions.push_back(Completion {
            id: pq.mop.id,
            outputs: rec.outputs,
            ops: rec.ops,
            treated_as: MOpClass::Query,
            label: pq.mop.program.name().to_string(),
        });
    }
}

impl<A: Abcast<MOperation>> ReplicaProtocol for MlinReplica<A> {
    type Msg = ProtocolMsg<A::Msg>;
    type Ordering = A;

    fn new(me: ProcessId, n: usize, num_objects: usize, ordering: &OrderingConfig) -> Self {
        MlinReplica {
            me,
            n,
            store: ReplicaStore::new(num_objects),
            abcast: A::new(me, n, ordering),
            completions: VecDeque::new(),
            delivery_log: Vec::new(),
            pending: HashMap::new(),
            next_query: 0,
            scope: QueryScope::default(),
            metrics: ReplicaMetrics::default(),
        }
    }

    fn protocol_name() -> &'static str {
        "mlin"
    }

    fn invoke(&mut self, mop: MOperation, out: &mut Outbox<Self::Msg>) {
        if mop.is_update() {
            // A1: atomically broadcast.
            let mut ab_out = Outbox::new(self.n);
            self.abcast.broadcast(mop, &mut ab_out);
            self.pump_abcast(&mut ab_out, out);
        } else {
            // A3: othts := 0; send "query" to all processes.
            let qid = QueryId::new(self.me, self.next_query);
            self.next_query += 1;
            self.pending.insert(
                qid,
                PendingQuery {
                    mop,
                    best: None,
                    responses: 0,
                },
            );
            let objects = match self.scope {
                QueryScope::Full => None,
                QueryScope::Relevant => Some(
                    self.pending[&qid]
                        .mop
                        .program
                        .referenced_objects()
                        .into_iter()
                        .collect::<Vec<_>>(),
                ),
            };
            self.metrics.query_msgs_sent += self.n as u64;
            for p in 0..self.n {
                out.send(
                    ProcessId::new(p as u32),
                    ProtocolMsg::Query {
                        qid,
                        objects: objects.clone(),
                    },
                );
            }
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: Self::Msg, out: &mut Outbox<Self::Msg>) {
        match msg {
            ProtocolMsg::Abcast(am) => {
                let mut ab_out = Outbox::new(self.n);
                self.abcast.on_message(from, am, &mut ab_out);
                self.pump_abcast(&mut ab_out, out);
            }
            ProtocolMsg::Query { qid, objects } => {
                // A4: answer with ⟨myX, myts⟩, projected to the requested
                // objects when the issuer asked for a subset.
                let state = match objects {
                    None => self.store.snapshot_full(),
                    Some(objs) => self.store.snapshot_of(&objs),
                };
                self.metrics.query_msgs_sent += 1;
                self.metrics.query_values_sent += state.len() as u64;
                out.send(
                    from,
                    ProtocolMsg::QueryResponse {
                        qid,
                        state,
                        ts: self.store.ts().clone(),
                    },
                );
            }
            ProtocolMsg::QueryResponse { qid, state, ts } => {
                let Some(pq) = self.pending.get_mut(&qid) else {
                    // A response for a query we no longer (or never) track.
                    // Over the paper's reliable channels this cannot
                    // happen; under an imperfect link (dedup disabled —
                    // the chaos suite's sabotage mode) late or duplicated
                    // responses do arrive, and dropping them silently is
                    // the robust choice.
                    return;
                };
                // A5: keep the maximal-timestamp response. Replica states
                // are prefixes of one total broadcast order, so timestamps
                // are totally ordered componentwise.
                let replace = match &pq.best {
                    None => true,
                    Some((_, best_ts)) => best_ts.lt(&ts),
                };
                if replace {
                    pq.best = Some((state, ts));
                }
                pq.responses += 1;
                if pq.responses == self.n {
                    self.finish_query(qid);
                }
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
        self.pump_abcast(&mut ab_out, out);
    }

    fn on_restart(&mut self, now_ns: u64, out: &mut Outbox<Self::Msg>) {
        let mut ab_out = Outbox::new(self.n);
        self.abcast.on_restart(now_ns, &mut ab_out);
        self.pump_abcast(&mut ab_out, out);
    }
}

/// [`MlinReplica`] with [`QueryScope::Relevant`] baked in at construction,
/// so it can be used wherever a [`ReplicaProtocol`] type is expected (the
/// harness constructs replicas itself).
#[derive(Debug, Clone)]
pub struct MlinRelevant<A: Abcast<MOperation>>(MlinReplica<A>);

impl<A: Abcast<MOperation>> ReplicaProtocol for MlinRelevant<A> {
    type Msg = ProtocolMsg<A::Msg>;
    type Ordering = A;

    fn new(me: ProcessId, n: usize, num_objects: usize, ordering: &OrderingConfig) -> Self {
        let mut inner = MlinReplica::new(me, n, num_objects, ordering);
        inner.set_query_scope(QueryScope::Relevant);
        MlinRelevant(inner)
    }

    fn protocol_name() -> &'static str {
        "mlin-relevant"
    }

    fn invoke(&mut self, mop: MOperation, out: &mut Outbox<Self::Msg>) {
        self.0.invoke(mop, out);
    }

    fn on_message(&mut self, from: ProcessId, msg: Self::Msg, out: &mut Outbox<Self::Msg>) {
        self.0.on_message(from, msg, out);
    }

    fn drain_completions(&mut self) -> Vec<Completion> {
        self.0.drain_completions()
    }

    fn store(&self) -> &ReplicaStore {
        self.0.store()
    }

    fn metrics(&self) -> ReplicaMetrics {
        self.0.metrics()
    }

    fn delivery_log(&self) -> &[moc_core::ids::MOpId] {
        self.0.delivery_log()
    }

    fn ordering(&self) -> &A {
        self.0.ordering()
    }

    fn on_tick(&mut self, now_ns: u64, out: &mut Outbox<Self::Msg>) {
        self.0.on_tick(now_ns, out);
    }

    fn on_restart(&mut self, now_ns: u64, out: &mut Outbox<Self::Msg>) {
        self.0.on_restart(now_ns, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moc_abcast::SequencerAbcast;
    use moc_core::ids::MOpId;
    use moc_core::program::{imm, reg, ProgramBuilder};
    use std::sync::Arc;

    type Replica = MlinReplica<SequencerAbcast<MOperation>>;

    fn pid(i: u32) -> ProcessId {
        ProcessId::new(i)
    }
    fn oid(i: u32) -> ObjectId {
        ObjectId::new(i)
    }

    fn read_x(p: u32, seq: u32) -> MOperation {
        let mut b = ProgramBuilder::new("rx");
        b.read(oid(0), 0).ret(vec![reg(0)]);
        MOperation::new(
            MOpId::new(pid(p), seq),
            Arc::new(b.build().unwrap()),
            vec![],
        )
    }

    /// A query fans out n "query" messages and completes only after all n
    /// responses, reading from the freshest snapshot.
    #[test]
    fn query_waits_for_all_responses_and_takes_max() {
        let n = 3;
        let mut r = Replica::new(pid(1), n, 1, &OrderingConfig::default());
        let mut out = Outbox::new(n);
        r.invoke(read_x(1, 0), &mut out);
        let queries = out.drain();
        assert_eq!(queries.len(), 3, "query to all processes, self included");
        assert_eq!(r.pending_queries(), 1);

        let qid = match &queries[0].1 {
            ProtocolMsg::Query { qid, objects } => {
                assert!(objects.is_none(), "Full scope requests everything");
                *qid
            }
            other => panic!("expected query, got {other:?}"),
        };

        // Fabricate three responses with increasing freshness; deliver the
        // freshest in the middle to exercise the max rule.
        let writer = MOpId::new(pid(2), 0);
        let respond = |ver: u64, val: i64| ProtocolMsg::QueryResponse {
            qid,
            state: vec![(
                oid(0),
                if ver == 0 {
                    Versioned::INITIAL
                } else {
                    Versioned::new(val, ver, writer)
                },
            )],
            ts: VersionVector::from_entries(vec![ver]),
        };
        let mut sink = Outbox::new(n);
        r.on_message(pid(0), respond(0, 0), &mut sink);
        assert!(r.drain_completions().is_empty());
        r.on_message(pid(2), respond(2, 42), &mut sink);
        assert!(r.drain_completions().is_empty(), "still one response short");
        r.on_message(pid(1), respond(1, 17), &mut sink);
        let done = r.drain_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].outputs, vec![42], "freshest snapshot wins");
        assert_eq!(done[0].treated_as, MOpClass::Query);
        assert_eq!(done[0].ops[0].writer, writer);
        assert_eq!(done[0].ops[0].version, 2);
        assert_eq!(r.pending_queries(), 0);
    }

    /// Responders answer queries from their current copy (A4).
    #[test]
    fn query_response_carries_store_and_ts() {
        let n = 2;
        let mut r = Replica::new(pid(0), n, 2, &OrderingConfig::default());
        let qid = QueryId::new(pid(1), 0);
        let mut out = Outbox::new(n);
        r.on_message(pid(1), ProtocolMsg::Query { qid, objects: None }, &mut out);
        let msgs = out.drain();
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].0, pid(1), "response goes back to the asker");
        match &msgs[0].1 {
            ProtocolMsg::QueryResponse { qid: q, state, ts } => {
                assert_eq!(*q, qid);
                assert_eq!(state.len(), 2);
                assert_eq!(ts.as_slice(), &[0, 0]);
            }
            other => panic!("expected response, got {other:?}"),
        }
    }

    /// Under `Relevant` scope the issuer keeps only the objects the query
    /// references.
    #[test]
    fn relevant_scope_filters_snapshot() {
        let n = 1;
        let mut r = Replica::new(pid(0), n, 3, &OrderingConfig::default());
        r.set_query_scope(QueryScope::Relevant);
        let mut out = Outbox::new(n);
        r.invoke(read_x(0, 0), &mut out);
        // Self-response loop: deliver the query to ourselves and the
        // response back.
        let msgs = out.drain();
        let mut out2 = Outbox::new(n);
        for (_, m) in msgs {
            r.on_message(pid(0), m, &mut out2);
        }
        for (_, m) in out2.drain() {
            r.on_message(pid(0), m, &mut out2_sink());
        }
        let done = r.drain_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].outputs, vec![0]);
    }

    fn out2_sink() -> Outbox<ProtocolMsg<<SequencerAbcast<MOperation> as Abcast<MOperation>>::Msg>>
    {
        Outbox::new(1)
    }

    /// Updates write a single program through abcast exactly as in msc.
    #[test]
    fn updates_are_broadcast() {
        let n = 2;
        let mut r = Replica::new(pid(1), n, 1, &OrderingConfig::default());
        let mut b = ProgramBuilder::new("wx");
        b.write(oid(0), imm(9)).ret(vec![]);
        let m = MOperation::new(MOpId::new(pid(1), 0), Arc::new(b.build().unwrap()), vec![]);
        let mut out = Outbox::new(n);
        r.invoke(m, &mut out);
        assert_eq!(out.len(), 1, "submit to sequencer");
        assert_eq!(r.metrics().update_msgs_sent, 1);
        assert!(r.drain_completions().is_empty());
    }
}
