//! Property tests for the reliable-link sublayer in isolation: under an
//! arbitrary adversarial schedule of deliveries, drops, duplications,
//! reorderings, retransmission ticks and crash-restarts, every payload
//! handed to `send` must reach its destination **exactly once** and in
//! **per-sender FIFO order** — the channel contract the Section 5
//! protocols (and both abcast implementations) are proven against.

use moc_abcast::{LinkConfig, LinkMsg, ReliableLink, Transport};
use moc_core::ids::ProcessId;
use proptest::prelude::*;

/// An in-flight wire frame: (from, to, msg).
type Frame = (ProcessId, ProcessId, LinkMsg<u64>);

/// Distinct, stream-ordered payload values.
fn encode(sender: usize, receiver: usize, i: u64) -> u64 {
    (sender as u64 + 1) * 1_000_000 + (receiver as u64 + 1) * 10_000 + i
}

/// Interprets `actions` as an adversarial network schedule over `n`
/// link endpoints, then runs a bounded recovery phase (deliver all +
/// tick) and asserts the exactly-once FIFO contract.
fn run_schedule(n: usize, actions: &[(u8, u32)]) {
    let cfg = LinkConfig {
        rto_ns: 1_000,
        max_rto_ns: 8_000,
        ..LinkConfig::default()
    };
    let mut links: Vec<ReliableLink<u64>> = (0..n)
        .map(|p| ReliableLink::new(ProcessId::new(p as u32), n, cfg))
        .collect();
    let mut inflight: Vec<Frame> = Vec::new();
    // delivered[receiver][sender]: payloads surfaced, in order.
    let mut delivered: Vec<Vec<Vec<u64>>> = vec![vec![Vec::new(); n]; n];
    // sent[sender][receiver]: how many payloads entered the stream.
    let mut sent: Vec<Vec<u64>> = vec![vec![0; n]; n];
    let mut now: u64 = 0;

    for &(kind, pick) in actions {
        now += 500;
        match kind % 10 {
            // Deliver an arbitrary in-flight frame (arbitrary order).
            0..=2 => {
                if inflight.is_empty() {
                    continue;
                }
                let idx = pick as usize % inflight.len();
                let (from, to, msg) = inflight.swap_remove(idx);
                let mut wire = Vec::new();
                let got = links[to.index()].on_wire(from, msg, now, &mut wire);
                delivered[to.index()][from.index()].extend(got);
                for (dest, m) in wire {
                    inflight.push((to, dest, m));
                }
            }
            // The network eats a frame.
            3 => {
                if !inflight.is_empty() {
                    let idx = pick as usize % inflight.len();
                    inflight.swap_remove(idx);
                }
            }
            // The network duplicates a frame.
            4 => {
                if !inflight.is_empty() {
                    let idx = pick as usize % inflight.len();
                    let f = inflight[idx].clone();
                    inflight.push(f);
                }
            }
            // Retransmission timers fire everywhere.
            5 => {
                for (i, l) in links.iter_mut().enumerate() {
                    let mut wire = Vec::new();
                    l.on_tick(now, &mut wire);
                    for (dest, m) in wire {
                        inflight.push((ProcessId::new(i as u32), dest, m));
                    }
                }
            }
            // A process crashes and restarts: everything addressed to it
            // is lost, then its rejoin handshake runs.
            6 => {
                let p = pick as usize % n;
                inflight.retain(|&(_, to, _)| to.index() != p);
                let mut wire = Vec::new();
                links[p].on_restart(now, &mut wire);
                for (dest, m) in wire {
                    inflight.push((ProcessId::new(p as u32), dest, m));
                }
            }
            // A fresh payload enters some stream.
            _ => {
                let s = pick as usize % n;
                let r = (s + 1 + (pick as usize / n) % (n - 1)) % n;
                let val = encode(s, r, sent[s][r]);
                sent[s][r] += 1;
                let mut wire = Vec::new();
                links[s].send(ProcessId::new(r as u32), val, now, &mut wire);
                for (dest, m) in wire {
                    inflight.push((ProcessId::new(s as u32), dest, m));
                }
            }
        }
    }

    // Recovery: the fault schedule is over; deliver everything and keep
    // ticking until all streams drain. Must converge quickly.
    let mut converged = false;
    for _ in 0..1_000 {
        if inflight.is_empty() && links.iter().all(|l| l.unacked() == 0) {
            converged = true;
            break;
        }
        for (from, to, msg) in std::mem::take(&mut inflight) {
            let mut wire = Vec::new();
            let got = links[to.index()].on_wire(from, msg, now, &mut wire);
            delivered[to.index()][from.index()].extend(got);
            for (dest, m) in wire {
                inflight.push((to, dest, m));
            }
        }
        now += 10_000; // past the rto cap: every pending timer is due
        for (i, l) in links.iter_mut().enumerate() {
            let mut wire = Vec::new();
            l.on_tick(now, &mut wire);
            for (dest, m) in wire {
                inflight.push((ProcessId::new(i as u32), dest, m));
            }
        }
    }
    assert!(converged, "link failed to drain after the fault schedule");

    for r in 0..n {
        for s in 0..n {
            let expect: Vec<u64> = (0..sent[s][r]).map(|i| encode(s, r, i)).collect();
            assert_eq!(
                delivered[r][s], expect,
                "exactly-once per-sender FIFO from P{s} to P{r}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn link_survives_arbitrary_drop_dup_reorder_schedules(
        n in 2usize..5,
        actions in proptest::collection::vec((any::<u8>(), any::<u32>()), 0..400),
    ) {
        run_schedule(n, &actions);
    }

    /// Heavier loss bias: mostly drops and ticks, so almost every payload
    /// must be recovered by retransmission.
    #[test]
    fn link_recovers_under_heavy_loss(
        n in 2usize..4,
        actions in proptest::collection::vec(
            prop_oneof![Just(3u8), Just(3u8), Just(5u8), Just(7u8)].prop_flat_map(|k| {
                (Just(k), any::<u32>())
            }),
            0..300,
        ),
    ) {
        run_schedule(n, &actions);
    }
}
