//! Property tests for the view-based failover broadcast in isolation:
//! under an arbitrary adversarial schedule of message deliveries, timer
//! ticks, leader crashes and restarts — over the per-pair exactly-once
//! FIFO channel the reliable-link sublayer establishes (a crash *delays*
//! frames, it never loses them) — the handshake must preserve the three
//! broadcast properties across any number of view changes:
//!
//! * **no forked order** — all processes deliver the identical sequence;
//! * **no lost submission** — every broadcast item is delivered (items
//!   orphaned by a crashed leader are re-proposed in the new view);
//! * **exactly-once** — re-proposal never duplicates a delivery.
//!
//! Mirrors `link_proptests.rs`: actions are interpreted as a schedule,
//! then a bounded recovery phase (everyone up, deliver all, tick past the
//! suspicion cap) must converge.

use std::collections::VecDeque;

use moc_abcast::{Abcast, OrderingConfig, Outbox, ViewAbcast, ViewMsg};
use moc_core::ids::ProcessId;
use proptest::prelude::*;

/// Distinct payload values: origin and per-origin index.
fn encode(origin: usize, i: u64) -> u64 {
    (origin as u64 + 1) * 1_000_000 + i
}

struct Cluster {
    nodes: Vec<ViewAbcast<u64>>,
    /// Per-(from, to) FIFO queues: the reliable-link channel contract.
    queues: Vec<Vec<VecDeque<ViewMsg<u64>>>>,
    down: Option<usize>,
    /// delivered[p]: (origin, item) sequence surfaced at process p.
    delivered: Vec<Vec<(u32, u64)>>,
    sent: Vec<u64>,
    now: u64,
}

impl Cluster {
    fn new(n: usize) -> Self {
        // Fast suspicion so short schedules exercise failover.
        let cfg = OrderingConfig {
            failover: Some((1_000, 8_000)),
            ..OrderingConfig::default()
        };
        let nodes: Vec<ViewAbcast<u64>> = (0..n)
            .map(|p| ViewAbcast::new(ProcessId::new(p as u32), n, &cfg))
            .collect();
        Cluster {
            nodes,
            queues: (0..n)
                .map(|_| (0..n).map(|_| VecDeque::new()).collect())
                .collect(),
            down: None,
            delivered: vec![Vec::new(); n],
            sent: vec![0; n],
            now: 0,
        }
    }

    fn n(&self) -> usize {
        self.nodes.len()
    }

    fn route(&mut self, from: usize, out: &mut Outbox<ViewMsg<u64>>) {
        for (to, m) in out.drain() {
            self.queues[from][to.index()].push_back(m);
        }
    }

    fn drain_node(&mut self, p: usize) {
        let me = ProcessId::new(p as u32);
        for d in self.nodes[p].drain_delivered() {
            // The Abcast contract: the k-th local delivery is global_seq k.
            assert_eq!(
                d.global_seq,
                self.delivered[p].len() as u64,
                "P{p}: global_seq must count local deliveries"
            );
            assert!(
                d.origin != me || d.item == encode(p, 0) || d.item >= encode(p, 0),
                "sanity"
            );
            self.delivered[p].push((d.origin.as_u32(), d.item));
        }
    }

    /// Delivers the head of one (from, to) pair queue, if any.
    fn deliver_one(&mut self, pick: usize) {
        let n = self.n();
        let pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|f| (0..n).map(move |t| (f, t)))
            .filter(|&(f, t)| !self.queues[f][t].is_empty() && Some(t) != self.down)
            .collect();
        if pairs.is_empty() {
            return;
        }
        let (from, to) = pairs[pick % pairs.len()];
        let msg = self.queues[from][to].pop_front().unwrap();
        let mut out = Outbox::new(n);
        self.nodes[to].on_message(ProcessId::new(from as u32), msg, &mut out);
        self.route(to, &mut out);
        self.drain_node(to);
    }

    fn tick_all(&mut self) {
        let n = self.n();
        for p in 0..n {
            if Some(p) == self.down {
                continue;
            }
            let mut out = Outbox::new(n);
            self.nodes[p].on_tick(self.now, &mut out);
            self.route(p, &mut out);
            self.drain_node(p);
        }
    }

    fn submit(&mut self, p: usize) {
        if Some(p) == self.down {
            return;
        }
        let val = encode(p, self.sent[p]);
        self.sent[p] += 1;
        let mut out = Outbox::new(self.n());
        self.nodes[p].broadcast(val, &mut out);
        self.route(p, &mut out);
        self.drain_node(p);
    }

    /// Crashes process `p` (single-failure discipline: no-op if someone
    /// is already down). In-flight frames stay queued — the link layer
    /// retransmits across crashes, so at this layer a crash only delays.
    fn crash(&mut self, p: usize) {
        if self.down.is_none() {
            self.down = Some(p);
        }
    }

    /// The current leader as the maximally-progressed process sees it.
    fn apparent_leader(&self) -> usize {
        let v = self.nodes.iter().map(|a| a.view()).max().unwrap_or(0);
        (v % self.n() as u64) as usize
    }

    fn restart(&mut self) {
        let Some(p) = self.down.take() else { return };
        let mut out = Outbox::new(self.n());
        self.nodes[p].on_restart(self.now, &mut out);
        self.route(p, &mut out);
        self.drain_node(p);
    }

    fn queued(&self) -> usize {
        self.queues
            .iter()
            .flat_map(|row| row.iter())
            .map(|q| q.len())
            .sum()
    }
}

/// Interprets `actions` as an adversarial schedule, recovers, and checks
/// the broadcast properties.
fn run_schedule(n: usize, actions: &[(u8, u32)]) {
    let mut c = Cluster::new(n);

    for &(kind, pick) in actions {
        c.now += 500;
        match kind % 12 {
            // Deliver in-flight frames (most common action).
            0..=4 => c.deliver_one(pick as usize),
            // Suspicion / arming timers fire.
            5 | 6 => c.tick_all(),
            // Crash the apparent leader — the interesting fault.
            7 => {
                let l = c.apparent_leader();
                c.crash(l);
            }
            // Crash an arbitrary process.
            8 => c.crash(pick as usize % n),
            // Restart whoever is down.
            9 => c.restart(),
            // A fresh broadcast enters the system.
            _ => c.submit(pick as usize % n),
        }
    }

    recover_and_check(c);
}

/// Recovery phase shared by every schedule runner: everyone restarts;
/// deliver everything and keep ticking past the suspicion cap until all
/// submissions are delivered everywhere (bounded rounds), then check the
/// three broadcast properties.
fn recover_and_check(mut c: Cluster) {
    let n = c.n();
    c.restart();
    let total: u64 = c.sent.iter().sum();
    let mut converged = false;
    for _ in 0..400 {
        if c.queued() == 0 && c.delivered.iter().all(|d| d.len() as u64 == total) {
            converged = true;
            break;
        }
        for _ in 0..10_000 {
            if c.queued() == 0 {
                break;
            }
            c.deliver_one(0);
        }
        c.now += 1_000_000; // past the suspicion cap: every deadline due
        c.tick_all();
    }
    assert!(
        converged,
        "failover failed to converge: delivered {:?} of {total}, {} queued",
        c.delivered.iter().map(|d| d.len()).collect::<Vec<_>>(),
        c.queued()
    );

    // Total order: identical delivery sequences everywhere.
    let reference = &c.delivered[0];
    for (p, d) in c.delivered.iter().enumerate().skip(1) {
        assert_eq!(d, reference, "P{p} forked from P0");
    }
    // Validity + integrity: exactly the submitted multiset, exactly once.
    let mut items: Vec<u64> = reference.iter().map(|&(_, i)| i).collect();
    items.sort_unstable();
    let mut expect: Vec<u64> = (0..n)
        .flat_map(|p| (0..c.sent[p]).map(move |i| encode(p, i)))
        .collect();
    expect.sort_unstable();
    assert_eq!(items, expect, "lost or duplicated submissions");
    // Per-origin FIFO: re-proposal across views must not reorder one
    // origin's submissions.
    for p in 0..n {
        let per: Vec<u64> = reference
            .iter()
            .filter(|&&(o, _)| o as usize == p)
            .map(|&(_, i)| i)
            .collect();
        let mut sorted = per.clone();
        sorted.sort_unstable();
        assert_eq!(per, sorted, "P{p}'s submissions reordered across views");
    }
}

/// Crashes the *incoming* leader mid view-change handshake: the initial
/// leader dies, survivors open the change toward the next view, and after
/// only a prefix of the handshake frames (ViewChange/Collect/NewView) has
/// been delivered, the leader that change is trying to install dies too.
/// The eventual recovery must still yield no-fork/no-loss/exactly-once —
/// the handshake state the dead incoming leader collected must not be
/// able to fork or swallow submissions.
fn run_incoming_leader_crash(n: usize, seed_submits: usize, partial: usize, post: &[(u8, u32)]) {
    let mut c = Cluster::new(n);
    // Seed traffic so the handshake has unordered state to merge.
    for i in 0..seed_submits {
        c.submit(i % n);
    }
    // Crash the initial leader; tick past suspicion so survivors start
    // the view change (handshake frames are now in flight).
    let old = c.apparent_leader();
    c.crash(old);
    for _ in 0..16 {
        c.now += 1_000;
        c.tick_all();
    }
    // Free the single-failure budget: the old leader restarts (it will
    // catch up as a follower) while handshake frames are still queued.
    c.restart();
    // Deliver only a prefix of the in-flight handshake...
    for i in 0..partial {
        c.deliver_one(i);
    }
    // ...then kill the leader the in-flight change is trying to install.
    let v = c.nodes.iter().map(|a| a.view()).max().unwrap_or(0);
    let incoming = if (v % n as u64) as usize == old {
        ((v + 1) % n as u64) as usize
    } else {
        (v % n as u64) as usize
    };
    c.crash(incoming);
    // A few more adversarial steps with the incoming leader dead.
    for &(kind, pick) in post {
        c.now += 500;
        match kind % 8 {
            0..=4 => c.deliver_one(pick as usize),
            5 | 6 => c.tick_all(),
            _ => c.submit(pick as usize % n),
        }
    }
    recover_and_check(c);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn view_change_survives_arbitrary_schedules(
        n in 2usize..5,
        actions in proptest::collection::vec((any::<u8>(), any::<u32>()), 0..400),
    ) {
        run_schedule(n, &actions);
    }

    /// Crash-heavy bias: mostly leader crashes, restarts and ticks, so
    /// nearly every delivery crosses at least one view change.
    #[test]
    fn view_change_survives_repeated_leader_crashes(
        n in 2usize..4,
        actions in proptest::collection::vec(
            prop_oneof![
                Just(0u8), Just(0u8), Just(0u8),
                Just(5u8), Just(5u8),
                Just(7u8), Just(9u8), Just(10u8),
            ].prop_flat_map(|k| (Just(k), any::<u32>())),
            0..300,
        ),
    ) {
        run_schedule(n, &actions);
    }

    /// The incoming leader dies mid-handshake (see
    /// [`run_incoming_leader_crash`]).
    #[test]
    fn incoming_leader_crash_mid_handshake_preserves_order(
        n in 3usize..5,
        seed_submits in 1usize..5,
        partial in 0usize..12,
        post in proptest::collection::vec((any::<u8>(), any::<u32>()), 0..60),
    ) {
        run_incoming_leader_crash(n, seed_submits, partial, &post);
    }
}
