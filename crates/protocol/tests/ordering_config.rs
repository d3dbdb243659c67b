//! The ordering configuration reaches the broadcast of every replica
//! kind.
//!
//! Each replica builds its broadcast from the [`OrderingConfig`] it is
//! constructed with. This suite builds the m-SC, m-lin, m-lin-relevant
//! and aggregate replicas over the conflict-sharded broadcast with a
//! 2-shard plan and batching, and checks through
//! [`ReplicaProtocol::ordering`] that both took effect: the plan routes a
//! single-shard update onto its shard channel, and the stamping sequencer
//! holds the stamped item for the group-commit window instead of fanning
//! it out at once.

use std::sync::Arc;

use moc_abcast::{
    Abcast, BatchConfig, BatchStats, OrderingConfig, Outbox, ShardedAbcast, ShardedMsg,
};
use moc_core::ids::{MOpId, ObjectId, ProcessId};
use moc_core::program::{imm, ProgramBuilder};
use moc_core::shard::ShardPlan;
use moc_protocol::mlin::MlinRelevant;
use moc_protocol::{
    AggregateReplica, MOperation, MlinReplica, MscReplica, ProtocolMsg, ReplicaProtocol,
};

type Sharded = ShardedAbcast<MOperation>;

fn assert_config_reaches<R>()
where
    R: ReplicaProtocol<Ordering = Sharded, Msg = ProtocolMsg<ShardedMsg<MOperation>>>,
{
    let name = R::protocol_name();
    let plan = ShardPlan::new(vec![0, 0, 1, 1]).unwrap();
    let cfg = OrderingConfig {
        shard_plan: Some(plan.clone()),
        batch: BatchConfig {
            max_batch: 4,
            max_delay_ns: 1_000,
        },
        ..OrderingConfig::default()
    };
    // With one process, that process sequences every channel, so its own
    // submission comes straight back to it.
    let me = ProcessId::new(0);
    let mut r = R::new(me, 1, 4, &cfg);
    assert_eq!(r.ordering().plan(), Some(&plan), "{name}: plan dropped");
    assert_eq!(r.ordering().num_channels(), 3, "{name}: 2 shards + global");

    let mut b = ProgramBuilder::new("w0");
    b.write(ObjectId::new(0), imm(1)).ret(vec![]);
    let write = MOperation::new(MOpId::new(me, 0), Arc::new(b.build().unwrap()), vec![]);
    let mut out = Outbox::new(1);
    r.invoke(write, &mut out);
    let submit = match out.drain().as_slice() {
        [(to, ProtocolMsg::Abcast(m))] if *to == me => m.clone(),
        other => panic!("{name}: expected one submission, got {other:?}"),
    };
    assert_eq!(submit.channel, 0, "{name}: object 0 routes to shard 0");

    r.on_message(me, ProtocolMsg::Abcast(submit), &mut out);
    assert!(out.is_empty(), "{name}: batching off, the stamp fanned out");
    assert_eq!(
        r.ordering().batch_stats(),
        BatchStats {
            items_stamped: 1,
            batches_flushed: 0
        },
        "{name}"
    );
    assert!(
        r.ordering().next_deadline().is_some(),
        "{name}: no flush deadline for the partial batch"
    );
}

#[test]
fn msc_replica_builds_its_broadcast_from_the_config() {
    assert_config_reaches::<MscReplica<Sharded>>();
}

#[test]
fn mlin_replica_builds_its_broadcast_from_the_config() {
    assert_config_reaches::<MlinReplica<Sharded>>();
}

#[test]
fn mlin_relevant_replica_builds_its_broadcast_from_the_config() {
    assert_config_reaches::<MlinRelevant<Sharded>>();
}

#[test]
fn aggregate_replica_builds_its_broadcast_from_the_config() {
    assert_config_reaches::<AggregateReplica<Sharded>>();
}
