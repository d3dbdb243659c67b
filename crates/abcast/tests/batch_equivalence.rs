//! Batched-vs-unbatched equivalence: group-commit batching is a pure
//! wire-framing optimization, so for any submission pattern, duplication
//! pattern and batch size, each backend must deliver exactly what the
//! batch-size-1 protocol delivers at the same seed.
//!
//! The harness keeps per-(from,to) FIFO queues but classifies traffic
//! into *submission* frames (whose arrival order at the sequencer decides
//! the stamp order) and *ordering* frames (stamped fan-out, acks). The
//! submission schedule is driven identically across the two runs, while
//! ordering frames may be duplicated and arrive in whatever interleaving
//! batching produces — none of which may change what gets delivered:
//!
//! * `SequencerAbcast` and `ViewAbcast` have a single ordering channel,
//!   so the full delivered sequence must be byte-identical.
//! * `ShardedAbcast` agrees on *per-channel* orders and on the position
//!   of every conflicting pair (via barriers); commuting cross-channel
//!   interleavings are licensed to differ. So the per-channel delivered
//!   projections, every conflicting pair's relative order, and the final
//!   last-writer-wins store state must be identical across batch sizes.

use std::collections::VecDeque;

use moc_abcast::sequencer::SequencerMsg;
use moc_abcast::{
    Abcast, BatchConfig, OrderingConfig, Outbox, SequencerAbcast, ShardedAbcast, ShardedMsg,
    ViewAbcast, ViewMsg,
};
use moc_core::ids::{ObjectId, ProcessId};
use moc_core::shard::{Footprinted, ShardPlan};
use proptest::prelude::*;

/// A payload with an explicit (write-everything) object footprint.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Item {
    id: u64,
    objs: Vec<u32>,
}

impl Footprinted for Item {
    fn footprint(&self) -> Vec<ObjectId> {
        self.objs.iter().map(|&o| ObjectId::new(o)).collect()
    }

    fn write_footprint(&self) -> Vec<ObjectId> {
        self.objs.iter().map(|&o| ObjectId::new(o)).collect()
    }
}

fn pid(i: usize) -> ProcessId {
    ProcessId::new(i as u32)
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `cfg` with group-commit batching switched on.
fn batched(cfg: &OrderingConfig, max_batch: usize, max_delay_ns: u64) -> OrderingConfig {
    OrderingConfig {
        batch: BatchConfig {
            max_batch,
            max_delay_ns,
        },
        ..cfg.clone()
    }
}

/// One delivered record: (channel, origin, item id).
type Rec = (u32, u32, u64);

struct Outcome {
    /// Per-process delivered sequence.
    seqs: Vec<Vec<Rec>>,
}

/// Drives `n` endpoints to quiescence over a deterministic dual-class
/// network, injecting `waves` of submissions with full settles between
/// waves, advancing virtual time only to flush pending batch windows.
fn run_cluster<A: Abcast<Item>>(
    n: usize,
    waves: &[Vec<(usize, Item)>],
    cfg: &OrderingConfig,
    dup_seed: u64,
    is_submission: &dyn Fn(&A::Msg) -> bool,
) -> Outcome
where
    A::Msg: Clone,
{
    let mut nodes: Vec<A> = (0..n).map(|p| A::new(pid(p), n, cfg)).collect();
    let mut subq: Vec<Vec<VecDeque<A::Msg>>> = (0..n)
        .map(|_| (0..n).map(|_| VecDeque::new()).collect())
        .collect();
    let mut ordq: Vec<Vec<VecDeque<A::Msg>>> = (0..n)
        .map(|_| (0..n).map(|_| VecDeque::new()).collect())
        .collect();
    let mut now = 0u64;
    let mut dup_ctr = 0u64;

    macro_rules! route {
        ($from:expr, $out:expr) => {
            for (dst, msg) in $out.drain() {
                if is_submission(&msg) {
                    subq[$from][dst.index()].push_back(msg);
                } else {
                    ordq[$from][dst.index()].push_back(msg);
                }
            }
        };
    }

    for wave in waves {
        for (p, item) in wave {
            let mut out = Outbox::new(n);
            nodes[*p].broadcast(item.clone(), &mut out);
            route!(*p, out);
        }
        // Settle to quiescence: submissions first in a fixed scan order
        // (identical across batch sizes — the stamp order), then ordering
        // frames with seed-driven duplication, then ticks to flush any
        // pending batch window. Repeat until nothing moves and no
        // deadline pends.
        let mut ticks = 0u32;
        loop {
            let mut progress = false;
            for from in 0..n {
                for to in 0..n {
                    loop {
                        let Some(m) = subq[from][to].pop_front() else {
                            break;
                        };
                        let mut out = Outbox::new(n);
                        nodes[to].on_message(pid(from), m, &mut out);
                        route!(to, out);
                        progress = true;
                    }
                }
            }
            if progress {
                continue; // deliveries may have enqueued fresh submissions
            }
            for from in 0..n {
                for to in 0..n {
                    loop {
                        let Some(m) = ordq[from][to].pop_front() else {
                            break;
                        };
                        let dup = splitmix64(
                            dup_seed ^ ((from as u64) << 32) ^ ((to as u64) << 16) ^ dup_ctr,
                        )
                        .is_multiple_of(4);
                        dup_ctr += 1;
                        let mut out = Outbox::new(n);
                        nodes[to].on_message(pid(from), m.clone(), &mut out);
                        route!(to, out);
                        if dup {
                            let mut out = Outbox::new(n);
                            nodes[to].on_message(pid(from), m, &mut out);
                            route!(to, out);
                        }
                        progress = true;
                    }
                }
            }
            if progress {
                continue;
            }
            let Some(deadline) = nodes.iter().filter_map(|nd| nd.next_deadline()).min() else {
                break;
            };
            now = now.max(deadline).max(now + 1);
            for (p, node) in nodes.iter_mut().enumerate() {
                let mut out = Outbox::new(n);
                node.on_tick(now, &mut out);
                route!(p, out);
            }
            ticks += 1;
            assert!(ticks < 10_000, "tick livelock");
        }
    }

    let seqs = nodes
        .iter_mut()
        .map(|node| {
            let channels = node.delivery_channels();
            node.drain_delivered()
                .into_iter()
                .enumerate()
                .map(|(i, d)| {
                    let ch = channels.as_ref().map_or(0, |c| c[i]);
                    (ch, d.origin.as_u32(), d.item.id)
                })
                .collect()
        })
        .collect();
    Outcome { seqs }
}

/// Builds the submission waves from the raw proptest choices: each entry
/// is (origin % n, footprint choice), ids globally unique.
fn build_waves(n: usize, raw: &[Vec<(usize, u32)>]) -> (Vec<Vec<(usize, Item)>>, Vec<Item>) {
    let mut id = 0u64;
    let mut all = Vec::new();
    let waves = raw
        .iter()
        .map(|wave| {
            wave.iter()
                .map(|&(origin, choice)| {
                    // 0..=3: single-object (routes to a shard under the
                    // test plan); 4..=5: cross-shard (routes global).
                    let objs = match choice % 6 {
                        c @ 0..=3 => vec![c],
                        4 => vec![0, 2],
                        _ => vec![1, 3],
                    };
                    let item = Item { id, objs };
                    id += 1;
                    all.push(item.clone());
                    (origin % n, item)
                })
                .collect()
        })
        .collect();
    (waves, all)
}

fn total(raw: &[Vec<(usize, u32)>]) -> usize {
    raw.iter().map(|w| w.len()).sum()
}

/// Splits a delivered sequence into per-channel projections.
fn per_channel(seq: &[Rec]) -> Vec<Vec<Rec>> {
    let max_ch = seq.iter().map(|r| r.0).max().unwrap_or(0) as usize;
    let mut by = vec![Vec::new(); max_ch + 1];
    for r in seq {
        by[r.0 as usize].push(*r);
    }
    by
}

/// Last-writer-wins register store over a delivered sequence.
fn store_state(seq: &[Rec], items: &[Item]) -> Vec<Option<u64>> {
    let mut store = vec![None; 8];
    for r in seq {
        for &o in &items[r.2 as usize].objs {
            store[o as usize] = Some(r.2);
        }
    }
    store
}

/// Relative order of every conflicting pair in a delivered sequence.
fn conflict_orders(seq: &[Rec], items: &[Item]) -> Vec<(u64, u64)> {
    let mut pos = vec![usize::MAX; items.len()];
    for (i, r) in seq.iter().enumerate() {
        pos[r.2 as usize] = i;
    }
    let mut out = Vec::new();
    for a in 0..items.len() {
        for b in (a + 1)..items.len() {
            let conflict = items[a].objs.iter().any(|o| items[b].objs.contains(o));
            if conflict {
                let (first, second) = if pos[a] < pos[b] {
                    (a as u64, b as u64)
                } else {
                    (b as u64, a as u64)
                };
                out.push((first, second));
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn sequencer_batched_order_is_byte_identical(
        n in 1usize..5,
        raw in prop::collection::vec(
            prop::collection::vec((0usize..8, 0u32..6), 1..6), 1..4),
        max_batch in 2usize..7,
        max_delay_ns in 0u64..2_000,
        dup_seed in any::<u64>(),
    ) {
        let (waves, _) = build_waves(n, &raw);
        let cfg = OrderingConfig::default();
        let class = |m: &SequencerMsg<Item>| matches!(m, SequencerMsg::Submit { .. });
        let base = run_cluster::<SequencerAbcast<Item>>(
            n, &waves, &cfg, dup_seed, &class);
        let batched = run_cluster::<SequencerAbcast<Item>>(
            n, &waves, &batched(&cfg, max_batch, max_delay_ns), dup_seed, &class);
        for p in 0..n {
            prop_assert_eq!(base.seqs[p].len(), total(&raw), "validity at P{}", p);
            prop_assert_eq!(&base.seqs[p], &batched.seqs[p],
                "delivered order diverged at P{}", p);
        }
    }

    #[test]
    fn view_batched_order_is_byte_identical(
        n in 1usize..5,
        raw in prop::collection::vec(
            prop::collection::vec((0usize..8, 0u32..6), 1..6), 1..4),
        max_batch in 2usize..7,
        max_delay_ns in 0u64..2_000,
        dup_seed in any::<u64>(),
    ) {
        let (waves, _) = build_waves(n, &raw);
        // Push crash suspicion far out of the virtual horizon: this suite
        // isolates batching; failover interplay belongs to the chaos sweep.
        let cfg = OrderingConfig {
            failover: Some((1 << 40, 1 << 41)),
            ..OrderingConfig::default()
        };
        let class = |m: &ViewMsg<Item>| matches!(m, ViewMsg::Submit { .. });
        let base = run_cluster::<ViewAbcast<Item>>(
            n, &waves, &cfg, dup_seed, &class);
        let batched = run_cluster::<ViewAbcast<Item>>(
            n, &waves, &batched(&cfg, max_batch, max_delay_ns), dup_seed, &class);
        for p in 0..n {
            prop_assert_eq!(base.seqs[p].len(), total(&raw), "validity at P{}", p);
            prop_assert_eq!(&base.seqs[p], &batched.seqs[p],
                "delivered order diverged at P{}", p);
        }
    }

    #[test]
    fn sharded_batched_channels_and_store_are_identical(
        n in 2usize..5,
        raw in prop::collection::vec(
            prop::collection::vec((0usize..8, 0u32..6), 1..6), 1..4),
        max_batch in 2usize..7,
        max_delay_ns in 0u64..2_000,
        dup_seed in any::<u64>(),
    ) {
        let (waves, items) = build_waves(n, &raw);
        let cfg = OrderingConfig {
            shard_plan: Some(ShardPlan::new(vec![0, 0, 1, 1]).unwrap()),
            ..OrderingConfig::default()
        };
        let class = |m: &ShardedMsg<Item>| matches!(m.msg, SequencerMsg::Submit { .. });
        let base = run_cluster::<ShardedAbcast<Item>>(
            n, &waves, &cfg, dup_seed, &class);
        let batched = run_cluster::<ShardedAbcast<Item>>(
            n, &waves, &batched(&cfg, max_batch, max_delay_ns), dup_seed, &class);
        for p in 0..n {
            prop_assert_eq!(base.seqs[p].len(), total(&raw), "validity at P{}", p);
            prop_assert_eq!(batched.seqs[p].len(), total(&raw), "validity at P{}", p);
            // Per-channel projections are the agreed orders: byte-identical.
            prop_assert_eq!(per_channel(&base.seqs[p]), per_channel(&batched.seqs[p]),
                "a channel order diverged at P{}", p);
            // Every conflicting pair keeps its agreed relative order.
            prop_assert_eq!(conflict_orders(&base.seqs[p], &items),
                conflict_orders(&batched.seqs[p], &items),
                "a conflicting pair flipped at P{}", p);
            // And the final store state is identical across runs (and, by
            // the same comparison chain, across replicas).
            prop_assert_eq!(store_state(&base.seqs[p], &items),
                store_state(&batched.seqs[p], &items),
                "final store state diverged at P{}", p);
        }
    }
}
