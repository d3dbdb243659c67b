//! # moc-mc
//!
//! Exhaustive schedule exploration — a small model checker for the
//! Mittal–Garg protocols.
//!
//! The randomized simulator (`moc-sim`) samples schedules; this crate
//! *enumerates* them. For a small configuration (a few processes, a couple
//! of m-operations each), [`explore`] walks **every** interleaving of
//! client invocations and message deliveries the asynchronous reordering
//! network permits, records the resulting history of each complete
//! schedule, and checks it against a consistency condition.
//!
//! This upgrades the Theorem 15/20 validation from "holds on sampled
//! seeds" to "holds on all schedules" for the explored configurations —
//! and, run with the *wrong* condition, it finds counterexample schedules:
//! asking for m-linearizability of the Figure 4 (m-sequential-consistency)
//! protocol produces the stale-local-query interleaving the paper's
//! distinction hinges on.
//!
//! Exploration branches over:
//! * delivering any in-flight message (the network may reorder anything);
//! * invoking the next scripted m-operation of any idle process.
//!
//! Virtual time grows with every exploration step, a valid real-time axis
//! for `~t` because it linearizes the actual event order of the schedule.
//! Each process is a [`ReplicaHost`] over [`Direct`] channels, cloned at
//! every branch; the explorer itself is the network.

use moc_abcast::{Direct, OrderingConfig};
use moc_checker::conditions::{check_with_relation, Condition, Strategy};
use moc_core::constraints::Constraint;
use moc_core::history::History;
use moc_core::ids::ProcessId;
use moc_core::mop::MOpRecord;
use moc_core::relations::{process_order, reads_from, real_time, Relation};
use moc_protocol::harness::ww_relation;
use moc_protocol::{HostEvent, HostOut, OpSpec, ReplicaHost, ReplicaProtocol};

/// Virtual time per exploration step.
const STEP_NS: u64 = 10;

/// Limits for an exploration run.
#[derive(Debug, Clone, Copy)]
pub struct ExploreLimits {
    /// Stop after this many complete schedules (guards combinatorial
    /// blowup; exceeded ⇒ `truncated` in the result).
    pub max_schedules: u64,
    /// Hard cap on events within one schedule (a protocol that exceeds it
    /// is livelocked — reported as a violation).
    pub max_depth: usize,
    /// Duplicate-delivery budget per schedule. The default (0) explores
    /// the paper's reliable reordering channels; a positive budget lets
    /// the explorer also deliver up to this many in-flight messages a
    /// second time, modelling a faulty network *without* the
    /// reliable-link sublayer — and finding the schedules it breaks.
    pub max_duplicates: u32,
    /// Leader-crash budget per schedule. The default (0) explores only
    /// crash-free schedules; a budget of 1 lets the explorer fail-stop
    /// the initial coordinator (P0) at every possible point. A schedule
    /// in which a *live* process's operation can never complete — even
    /// after arbitrary time passes (suspicion timers fire at network
    /// quiescence) — is reported as a liveness violation.
    pub max_leader_crashes: u32,
}

impl Default for ExploreLimits {
    fn default() -> Self {
        ExploreLimits {
            max_schedules: 200_000,
            max_depth: 10_000,
            max_duplicates: 0,
            max_leader_crashes: 0,
        }
    }
}

/// A counterexample schedule found by exploration.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The recorded history that fails the condition.
    pub history: History,
    /// The checker's explanation, if any.
    pub reason: Option<String>,
}

/// The outcome of an exploration.
#[derive(Debug)]
pub struct ExploreResult {
    /// Complete schedules explored.
    pub schedules: u64,
    /// Histories that violated the condition (empty = the condition holds
    /// on every explored schedule).
    pub violations: Vec<Violation>,
    /// Whether `max_schedules` stopped the exploration early.
    pub truncated: bool,
}

impl ExploreResult {
    /// Whether the condition held on every explored schedule.
    pub fn holds(&self) -> bool {
        self.violations.is_empty()
    }
}

#[derive(Clone)]
struct Envelope<M> {
    from: ProcessId,
    to: ProcessId,
    msg: M,
}

/// One node of the exploration tree. Cloned at every branch.
#[derive(Clone)]
struct State<R: ReplicaProtocol + Clone> {
    hosts: Vec<ReplicaHost<R, Direct>>,
    inflight: Vec<Envelope<R::Msg>>,
    script_pos: Vec<usize>,
    records: Vec<MOpRecord>,
    duplicates_used: u32,
    /// The fail-stopped process, if a leader-crash move was taken. It
    /// never acts again; messages addressed to it vanish.
    crashed: Option<usize>,
    /// Virtual time: advances by [`STEP_NS`] per move and by a
    /// millisecond per quiescent-time tick round.
    clock_ns: u64,
}

impl<R: ReplicaProtocol + Clone> State<R> {
    /// Collects what host `p`'s step produced: frames to live processes
    /// go in flight, retirements are recorded. Returns whether anything
    /// happened.
    fn absorb(&mut self, p: usize, out: &mut HostOut<R::Msg>) -> bool {
        let mut progressed = !out.events.is_empty();
        let from = ProcessId::new(p as u32);
        for (to, msg) in out.frames.drain(..) {
            if self.crashed != Some(to.index()) {
                self.inflight.push(Envelope { from, to, msg });
                progressed = true;
            }
        }
        for ev in out.events.drain(..) {
            if let HostEvent::Completed { record, .. } = ev {
                self.records.push(record);
            }
        }
        progressed
    }
}

#[derive(Debug, Clone, Copy)]
enum Move {
    Deliver(usize),
    /// Deliver a *copy* of an in-flight message, leaving the original in
    /// flight: the network duplicated it.
    Duplicate(usize),
    Invoke(usize),
    /// Fail-stop the initial coordinator (P0): it never acts again and
    /// every in-flight message addressed to it is lost.
    CrashLeader,
}

struct Explorer<'a, R: ReplicaProtocol + Clone> {
    scripts: &'a [Vec<OpSpec>],
    num_objects: usize,
    condition: Condition,
    limits: ExploreLimits,
    schedules: u64,
    violations: Vec<Violation>,
    truncated: bool,
    _protocol: std::marker::PhantomData<R>,
}

/// Explores every schedule of protocol `R` over the given scripts and
/// checks each complete schedule's history against `condition`.
///
/// The per-schedule check uses the polynomial Theorem 7 path when the
/// history satisfies the WW-constraint under the condition's relation plus
/// the protocol's broadcast order, falling back to the bounded search.
pub fn explore<R: ReplicaProtocol + Clone + 'static>(
    num_objects: usize,
    scripts: Vec<Vec<OpSpec>>,
    condition: Condition,
    limits: ExploreLimits,
) -> ExploreResult
where
    R::Msg: Clone,
{
    let n = scripts.len();
    let state = State {
        hosts: (0..n)
            .map(|p| {
                let me = ProcessId::new(p as u32);
                let replica = R::new(me, n, num_objects, &OrderingConfig::default());
                ReplicaHost::new(me, n, replica, Direct)
            })
            .collect(),
        inflight: Vec::new(),
        script_pos: vec![0; n],
        records: Vec::new(),
        duplicates_used: 0,
        crashed: None,
        clock_ns: 0,
    };
    let mut explorer = Explorer::<R> {
        scripts: &scripts,
        num_objects,
        condition,
        limits,
        schedules: 0,
        violations: Vec::new(),
        truncated: false,
        _protocol: std::marker::PhantomData,
    };
    explorer.dfs(state, 0);
    ExploreResult {
        schedules: explorer.schedules,
        violations: explorer.violations,
        truncated: explorer.truncated,
    }
}

impl<R: ReplicaProtocol + Clone> Explorer<'_, R> {
    fn moves(&self, s: &State<R>) -> Vec<Move> {
        let mut moves: Vec<Move> = (0..s.inflight.len()).map(Move::Deliver).collect();
        if s.duplicates_used < self.limits.max_duplicates {
            moves.extend((0..s.inflight.len()).map(Move::Duplicate));
        }
        let idle = |p: &usize| {
            s.crashed != Some(*p)
                && s.hosts[*p].in_flight() == 0
                && s.script_pos[*p] < self.scripts[*p].len()
        };
        moves.extend((0..s.hosts.len()).filter(idle).map(Move::Invoke));
        if s.crashed.is_none() && self.limits.max_leader_crashes > 0 {
            moves.push(Move::CrashLeader);
        }
        moves
    }

    fn apply(&self, s: &mut State<R>, mv: Move) {
        s.clock_ns += STEP_NS;
        let now = s.clock_ns;
        let mut out = HostOut::default();
        let acting = match mv {
            Move::Deliver(i) => {
                let env = s.inflight.swap_remove(i);
                s.hosts[env.to.index()].on_frame(env.from, env.msg, now, &mut out);
                env.to.index()
            }
            Move::Duplicate(i) => {
                s.duplicates_used += 1;
                let env = s.inflight[i].clone();
                s.hosts[env.to.index()].on_frame(env.from, env.msg, now, &mut out);
                env.to.index()
            }
            Move::Invoke(p) => {
                let spec = &self.scripts[p][s.script_pos[p]];
                s.script_pos[p] += 1;
                s.hosts[p].invoke(spec.program.clone(), spec.args.clone(), now, &mut out);
                p
            }
            Move::CrashLeader => {
                s.crashed = Some(0);
                s.inflight.retain(|env| env.to.index() != 0);
                return;
            }
        };
        s.absorb(acting, &mut out);
    }

    /// Lets virtual time pass at network quiescence: ticks every live
    /// host with an ever-advancing clock, so suspicion timers fire and
    /// view changes run. Returns `true` as soon as a round emits messages
    /// or completes an operation; `false` if the system stays silent —
    /// genuine lack of progress.
    fn tick_until_progress(&self, s: &mut State<R>) -> bool {
        const ROUNDS: u32 = 32;
        const TICK_NS: u64 = 1_000_000;
        let mut out = HostOut::default();
        for _ in 0..ROUNDS {
            s.clock_ns += TICK_NS;
            let now = s.clock_ns;
            let mut progressed = false;
            let crashed = s.crashed;
            for p in (0..s.hosts.len()).filter(|&p| crashed != Some(p)) {
                s.hosts[p].on_tick(now, &mut out);
                progressed |= s.absorb(p, &mut out);
            }
            if progressed {
                return true;
            }
        }
        false
    }

    /// Whether some process that is still alive has an operation waiting
    /// for a response.
    fn live_pending(s: &State<R>) -> bool {
        s.hosts
            .iter()
            .enumerate()
            .any(|(p, h)| h.in_flight() > 0 && s.crashed != Some(p))
    }

    fn dfs(&mut self, s: State<R>, depth: usize) {
        if self.schedules >= self.limits.max_schedules {
            self.truncated = true;
            return;
        }
        if depth > self.limits.max_depth {
            // Livelock: report as a violation with whatever was recorded.
            let history =
                History::new(self.num_objects, s.records).expect("partial history is well-formed");
            self.violations.push(Violation {
                history,
                reason: Some("schedule exceeded the depth bound (livelock?)".into()),
            });
            return;
        }
        let moves = self.moves(&s);
        if moves.is_empty() {
            if Self::live_pending(&s) {
                // The network is quiescent but a live process is still
                // waiting. Let time pass: suspicion timers may start a
                // view change that unblocks it.
                let mut next = s;
                if self.tick_until_progress(&mut next) {
                    self.dfs(next, depth + 1);
                } else {
                    let history = History::new(self.num_objects, next.records)
                        .expect("partial history is well-formed");
                    self.violations.push(Violation {
                        history,
                        reason: Some(
                            "liveness: a live process's operation can never complete \
                             (crashed coordinator with no failover?)"
                                .into(),
                        ),
                    });
                }
                return;
            }
            self.finish_schedule(s);
            return;
        }
        for mv in moves {
            let mut next = s.clone();
            self.apply(&mut next, mv);
            self.dfs(next, depth + 1);
            if self.truncated {
                return;
            }
        }
    }

    fn finish_schedule(&mut self, s: State<R>) {
        self.schedules += 1;
        debug_assert!(
            !Self::live_pending(&s),
            "quiescent schedule left a live operation pending"
        );
        let history =
            History::new(self.num_objects, s.records).expect("schedule produced a valid history");
        let delivery_log = s.hosts[0].replica().delivery_log();
        let rel =
            base_relation(&history, self.condition).union(&ww_relation(&history, delivery_log));
        let verdict = check_with_relation(
            &history,
            self.condition,
            &rel,
            Strategy::Constraint(Constraint::Ww),
        )
        .or_else(|_| {
            // Not under WW with the hint (shouldn't happen for these
            // protocols) — fall back to the plain relation and search.
            check_with_relation(
                &history,
                self.condition,
                &base_relation(&history, self.condition),
                Strategy::Auto,
            )
        });
        match verdict {
            Ok(report) if report.satisfied => {}
            Ok(report) => self.violations.push(Violation {
                history,
                reason: report.reason,
            }),
            Err(e) => self.violations.push(Violation {
                history,
                reason: Some(format!("checker error: {e}")),
            }),
        }
    }
}

fn base_relation(h: &History, condition: Condition) -> Relation {
    let base = process_order(h).union(&reads_from(h));
    match condition {
        Condition::MSequentialConsistency => base,
        Condition::MLinearizability => base.union(&real_time(h)),
        Condition::MNormality => base.union(&moc_core::relations::object_order(h)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moc_core::ids::ObjectId;
    use moc_core::program::{imm, reg, ProgramBuilder};
    use moc_protocol::{MlinOverSequencer, MscOverSequencer};
    use std::sync::Arc;

    fn wx(v: i64) -> OpSpec {
        let mut b = ProgramBuilder::new(format!("w{v}"));
        b.write(ObjectId::new(0), imm(v)).ret(vec![]);
        OpSpec::new(Arc::new(b.build().unwrap()), vec![])
    }

    fn rx() -> OpSpec {
        let mut b = ProgramBuilder::new("rx");
        b.read(ObjectId::new(0), 0).ret(vec![reg(0)]);
        OpSpec::new(Arc::new(b.build().unwrap()), vec![])
    }

    /// Theorem 15, exhaustively: every schedule of one writer + one
    /// reader-then-writer pair of processes is m-sequentially consistent.
    #[test]
    fn msc_exhaustive_theorem15() {
        let result = explore::<MscOverSequencer>(
            1,
            vec![vec![wx(1), rx()], vec![wx(2), rx()]],
            Condition::MSequentialConsistency,
            ExploreLimits::default(),
        );
        assert!(!result.truncated);
        assert!(result.schedules > 10, "expected many interleavings");
        assert!(
            result.holds(),
            "Theorem 15 violated on {} of {} schedules",
            result.violations.len(),
            result.schedules
        );
    }

    /// The model checker *finds* the non-linearizable schedule of the
    /// Figure 4 protocol: a local query reading a stale value after a
    /// remote update responded.
    #[test]
    fn msc_is_not_linearizable_and_mc_finds_it() {
        let result = explore::<MscOverSequencer>(
            1,
            vec![vec![wx(1)], vec![rx()]],
            Condition::MLinearizability,
            ExploreLimits::default(),
        );
        assert!(!result.truncated);
        assert!(
            !result.holds(),
            "some interleaving must show the stale local query"
        );
        // The counterexample: the query responded 0 after w(x)1 responded.
        let v = &result.violations[0];
        assert!(v.history.len() == 2);
    }

    /// Theorem 20, exhaustively: every schedule of the Figure 6 protocol
    /// is m-linearizable — including the query round-trip interleavings.
    #[test]
    fn mlin_exhaustive_theorem20() {
        let result = explore::<MlinOverSequencer>(
            1,
            vec![vec![wx(1)], vec![rx()]],
            Condition::MLinearizability,
            ExploreLimits::default(),
        );
        assert!(!result.truncated);
        assert!(result.schedules > 10);
        assert!(
            result.holds(),
            "Theorem 20 violated on {} of {} schedules",
            result.violations.len(),
            result.schedules
        );
    }

    /// Exhaustive multi-object atomicity: two-object writes and a snapshot
    /// reader never observe a torn pair, under any interleaving.
    #[test]
    fn mlin_exhaustive_no_torn_snapshots() {
        let wpair = |v: i64| {
            let mut b = ProgramBuilder::new(format!("wp{v}"));
            b.write(ObjectId::new(0), imm(v))
                .write(ObjectId::new(1), imm(v))
                .ret(vec![]);
            OpSpec::new(Arc::new(b.build().unwrap()), vec![])
        };
        let rpair = {
            let mut b = ProgramBuilder::new("rp");
            b.read(ObjectId::new(0), 0)
                .read(ObjectId::new(1), 1)
                .ret(vec![reg(0), reg(1)]);
            OpSpec::new(Arc::new(b.build().unwrap()), vec![])
        };
        let result = explore::<MlinOverSequencer>(
            2,
            vec![vec![wpair(7)], vec![rpair]],
            Condition::MLinearizability,
            ExploreLimits::default(),
        );
        assert!(result.holds());
        assert!(!result.truncated);
    }

    /// Without the reliable-link sublayer, a single duplicated message
    /// breaks the Figure 4 protocol: a duplicate `Submit` re-stamps an
    /// old write after a newer one from the same process, and the
    /// explorer finds a schedule whose history the checker refutes. This
    /// is exactly the failure mode the link's receive-side dedup exists
    /// to prevent (the chaos suite shows the protected stack surviving
    /// the same fault).
    #[test]
    fn one_duplicate_without_link_protection_breaks_msc() {
        let result = explore::<MscOverSequencer>(
            1,
            vec![vec![wx(1), wx(2)], vec![rx(), rx()]],
            Condition::MSequentialConsistency,
            ExploreLimits {
                max_schedules: 100_000,
                max_duplicates: 1,
                ..ExploreLimits::default()
            },
        );
        assert!(
            !result.violations.is_empty(),
            "a duplicated broadcast frame must produce a refutable schedule \
             ({} schedules explored)",
            result.schedules
        );
    }

    /// A zero duplicate budget leaves the exploration exactly as before:
    /// the paper's reliable channels, under which Theorem 15 holds on
    /// every schedule.
    #[test]
    fn zero_duplicate_budget_preserves_theorem15() {
        let result = explore::<MscOverSequencer>(
            1,
            vec![vec![wx(1), wx(2)], vec![rx(), rx()]],
            Condition::MSequentialConsistency,
            ExploreLimits::default(),
        );
        assert!(result.holds(), "{} violations", result.violations.len());
    }

    /// Tentpole liveness pair, negative half: under a leader-crash move
    /// the fixed-sequencer stack loses liveness — some schedule crashes
    /// P0 with an update still unordered, no amount of time recovers it,
    /// and the explorer reports the liveness violation.
    #[test]
    fn leader_crash_violates_liveness_under_the_fixed_sequencer() {
        let result = explore::<MscOverSequencer>(
            1,
            vec![vec![wx(1)], vec![wx(2)], vec![]],
            Condition::MSequentialConsistency,
            ExploreLimits {
                max_leader_crashes: 1,
                ..ExploreLimits::default()
            },
        );
        assert!(!result.truncated);
        assert!(
            !result.holds(),
            "crashing the fixed sequencer must strand some update"
        );
        assert!(
            result
                .violations
                .iter()
                .any(|v| v.reason.as_deref().is_some_and(|r| r.contains("liveness"))),
            "the violation must be a liveness report: {:?}",
            result
                .violations
                .iter()
                .map(|v| &v.reason)
                .collect::<Vec<_>>()
        );
    }

    /// Tentpole liveness pair, positive half: the view-based broadcast
    /// survives the same move at every crash point — suspicion timers
    /// fire at quiescence, view 1 installs under P1, unordered updates
    /// are re-proposed, and every schedule both completes and stays
    /// m-sequentially consistent.
    #[test]
    fn leader_crash_is_masked_by_view_failover() {
        let result = explore::<moc_protocol::MscOverView>(
            1,
            vec![vec![wx(1)], vec![wx(2)], vec![]],
            Condition::MSequentialConsistency,
            ExploreLimits {
                max_leader_crashes: 1,
                ..ExploreLimits::default()
            },
        );
        assert!(
            result.holds(),
            "failover must preserve liveness and safety: {:?}",
            result
                .violations
                .iter()
                .map(|v| &v.reason)
                .collect::<Vec<_>>()
        );
        assert!(result.schedules > 10, "expected many crash interleavings");
    }

    /// The schedule cap is honoured.
    #[test]
    fn truncation_is_reported() {
        let result = explore::<MscOverSequencer>(
            1,
            vec![vec![wx(1), wx(2)], vec![wx(3), wx(4)]],
            Condition::MSequentialConsistency,
            ExploreLimits {
                max_schedules: 3,
                ..ExploreLimits::default()
            },
        );
        assert!(result.truncated);
        assert!(result.schedules <= 3);
    }
}
