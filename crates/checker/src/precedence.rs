//! History-level precedence-graph analysis: the logical read-write
//! precedence `~rw` (D 4.11) and the extended relation `~H+` (D 4.12)
//! materialized over *any* history, with SCC condensation, forced-edge
//! derivation, and the statically-pruned admissibility search built on top.
//!
//! The paper uses `~rw` only on constraint-satisfying histories (where
//! Theorem 7 collapses admissibility to legality). This module applies the
//! same machinery to arbitrary histories:
//!
//! * Every pair in the saturated closure is a **forced edge** — ordered the
//!   same way in *every* legal linearization. The saturation iterates D 4.11
//!   to a fixpoint: each new `~rw` edge can order more `(β, γ)` pairs, which
//!   in turn force more `~rw` edges. One iteration is exactly the paper's
//!   `~H+`; the fixpoint is a sound superset.
//! * A cycle in the saturated graph is a **polynomial refutation**: the
//!   history is not admissible, and the cycle (with each `~rw` edge's
//!   interference justification) is an independently checkable core — the
//!   negative counterpart of a witness schedule.
//! * When the graph is acyclic, the search exploits it three ways: forced
//!   edges become extra precedence constraints (pruning interleavings),
//!   m-operations that neither share an object nor are `~H+`-related split
//!   into **independent components** searched separately (turning a product
//!   state space into a sum), and elements forced before everything else in
//!   their component are **peeled** as a fixed prefix without search.

use std::collections::HashSet;

use moc_core::history::{History, MOpIdx};
use moc_core::ids::ObjectId;
use moc_core::relations::{object_order, real_time, Relation};

use crate::admissible::{SearchLimits, SearchOutcome, SearchStats};
use crate::conditions::Condition;
use crate::engine::{self, ComponentPlan, SearchProblem};

/// Why an edge is in the precedence graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EdgeKind {
    /// An edge of a caller-supplied relation (provenance unknown).
    Base,
    /// Process order `~p`: same process, consecutive sequence numbers.
    Process,
    /// Reads-from `~rf`: the target reads some object from the source.
    ReadsFrom,
    /// Real-time order `~t` (m-linearizability only).
    RealTime,
    /// Object order `~x` (m-normality only).
    ObjectOrder,
    /// Logical read-write precedence `~rw` (D 4.11): the source reads `obj`
    /// from `beta` (`None` = the initial m-operation) and the target also
    /// writes `obj`, with `beta` already ordered before the target.
    ReadWrite {
        /// The m-operation read from (`None` = initial).
        beta: Option<MOpIdx>,
        /// The object whose version would be overwritten.
        obj: ObjectId,
    },
}

/// A directed edge of the precedence graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edge {
    /// Source m-operation.
    pub from: MOpIdx,
    /// Target m-operation.
    pub to: MOpIdx,
    /// Why the edge holds.
    pub kind: EdgeKind,
}

/// The saturated precedence graph of a history: base relation edges plus
/// all `~rw` edges derivable by iterating D 4.11 to a fixpoint.
#[derive(Debug, Clone)]
pub struct PrecedenceGraph {
    n: usize,
    edges: Vec<Edge>,
    /// Number of leading base (`~H`) edges in `edges`; the rest are `~rw`.
    base_edges: usize,
    /// Transitive closure of the direct edge set — the fixpoint `~H+`.
    /// Every pair in here is forced in every legal linearization.
    closed: Relation,
}

impl PrecedenceGraph {
    /// Builds and saturates the graph for a condition's base relation
    /// (process order and reads-from, plus real-time for m-linearizability
    /// or object order for m-normality). Edges carry auditable reasons.
    pub fn for_condition(h: &History, condition: Condition) -> Self {
        let mut edges = Vec::new();
        for p in h.processes() {
            let idxs = h.by_process(p);
            for w in idxs.windows(2) {
                edges.push(Edge {
                    from: w[0],
                    to: w[1],
                    kind: EdgeKind::Process,
                });
            }
        }
        for (alpha, _) in h.iter() {
            for &(_, writer) in h.read_sources(alpha) {
                if let Some(beta) = writer {
                    if beta != alpha {
                        edges.push(Edge {
                            from: beta,
                            to: alpha,
                            kind: EdgeKind::ReadsFrom,
                        });
                    }
                }
            }
        }
        match condition {
            Condition::MSequentialConsistency => {}
            Condition::MLinearizability => {
                for (a, b) in real_time(h).edges() {
                    edges.push(Edge {
                        from: a,
                        to: b,
                        kind: EdgeKind::RealTime,
                    });
                }
            }
            Condition::MNormality => {
                for (a, b) in object_order(h).edges() {
                    edges.push(Edge {
                        from: a,
                        to: b,
                        kind: EdgeKind::ObjectOrder,
                    });
                }
            }
        }
        Self::saturate(h, edges)
    }

    /// Builds and saturates the graph from an arbitrary base relation
    /// (edges carry no reasons — use [`PrecedenceGraph::for_condition`]
    /// when an auditable refutation core may be needed).
    pub fn from_relation(h: &History, relation: &Relation) -> Self {
        let edges = relation
            .edges()
            .map(|(from, to)| Edge {
                from,
                to,
                kind: EdgeKind::Base,
            })
            .collect();
        Self::saturate(h, edges)
    }

    fn saturate(h: &History, base: Vec<Edge>) -> Self {
        let n = h.len();
        let mut direct = Relation::new(n);
        let mut edges = Vec::new();
        for e in base {
            if e.from == e.to {
                // A reflexive base edge is already a (degenerate) cycle;
                // keep it so cycle detection reports it.
                direct.add(e.from, e.to);
                edges.push(e);
                continue;
            }
            if !direct.contains(e.from, e.to) {
                direct.add(e.from, e.to);
                edges.push(e);
            }
        }
        let base_edges = edges.len();

        // Fixpoint: each round closes the graph and adds every ~rw edge
        // whose premise β ~ γ now holds. Terminates because each round adds
        // at least one of at most n² edges.
        let mut closed = direct.transitive_closure();
        loop {
            let mut added = false;
            for (alpha, _) in h.iter() {
                for &(obj, writer) in h.read_sources(alpha) {
                    for &gamma in h.writers_of(obj) {
                        if gamma == alpha || Some(gamma) == writer {
                            continue;
                        }
                        if direct.contains(alpha, gamma) {
                            continue;
                        }
                        let premise = match writer {
                            None => true,
                            Some(beta) => closed.contains(beta, gamma),
                        };
                        if premise {
                            direct.add(alpha, gamma);
                            edges.push(Edge {
                                from: alpha,
                                to: gamma,
                                kind: EdgeKind::ReadWrite { beta: writer, obj },
                            });
                            added = true;
                        }
                    }
                }
            }
            if !added {
                break;
            }
            closed = direct.transitive_closure();
        }
        PrecedenceGraph {
            n,
            edges,
            base_edges,
            closed,
        }
    }

    /// Number of m-operations the graph ranges over.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the graph ranges over zero m-operations.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// All edges: base edges first, then the derived `~rw` edges in
    /// derivation order (an edge's premise is justified by strictly
    /// earlier edges).
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Number of `~rw` edges the saturation derived — orderings forced in
    /// every legal linearization beyond the base relation.
    pub fn forced_edge_count(&self) -> usize {
        self.edges.len() - self.base_edges
    }

    /// The fixpoint closure `~H+`: contains `(i, j)` iff `i` precedes `j`
    /// in every legal linearization derivable from the base relation.
    pub fn closed(&self) -> &Relation {
        &self.closed
    }

    /// Tarjan SCC condensation of the direct edge graph. Components are in
    /// topological order; a component with more than one member (or a
    /// self-loop) certifies that no legal linearization exists.
    pub fn condensation(&self) -> Condensation {
        let succs = self.adjacency();
        let mut comps = tarjan_scc(&succs);
        comps.reverse(); // Tarjan emits reverse-topological.
        let mut comp_of = vec![0usize; self.n];
        for (c, members) in comps.iter().enumerate() {
            for &v in members {
                comp_of[v as usize] = c;
            }
        }
        Condensation {
            comp_of,
            members: comps
                .into_iter()
                .map(|ms| ms.into_iter().map(|v| v as usize).collect())
                .collect(),
        }
    }

    fn adjacency(&self) -> Vec<Vec<u32>> {
        let mut succs = vec![Vec::new(); self.n];
        for e in &self.edges {
            succs[e.from.0].push(e.to.0 as u32);
        }
        succs
    }

    /// An inadmissibility core: a cycle of the saturated graph as edge ids
    /// into [`PrecedenceGraph::edges`], or `None` if the graph is acyclic.
    pub fn find_cycle_edges(&self) -> Option<Vec<usize>> {
        // Self-loops first (degenerate base cycles).
        if let Some(eid) = self.edges.iter().position(|e| e.from == e.to) {
            return Some(vec![eid]);
        }
        let cond = self.condensation();
        let comp = cond.members.iter().find(|ms| ms.len() > 1)?;
        // BFS inside the SCC from its first member back to itself.
        let start = comp[0];
        let in_comp = |v: usize| cond.comp_of[v] == cond.comp_of[start];
        let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); self.n];
        for (eid, e) in self.edges.iter().enumerate() {
            if in_comp(e.from.0) && in_comp(e.to.0) {
                adj[e.from.0].push((e.to.0, eid));
            }
        }
        let mut parent: Vec<Option<(usize, usize)>> = vec![None; self.n];
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for &(v, eid) in &adj[u] {
                if v == start {
                    // Unwind start -> ... -> u, then close with eid.
                    let mut rev = vec![eid];
                    let mut cur = u;
                    while cur != start {
                        let (p, pe) = parent[cur].expect("BFS parent");
                        rev.push(pe);
                        cur = p;
                    }
                    rev.reverse();
                    return Some(rev);
                }
                if parent[v].is_none() && v != start {
                    parent[v] = Some((u, eid));
                    queue.push_back(v);
                }
            }
        }
        unreachable!("a multi-member SCC always closes a cycle through any member")
    }

    /// A self-contained refutation core: the cycle plus, for every `~rw`
    /// edge involved, a justification path showing its premise `β ~ γ`
    /// using only strictly earlier edges. Returns `None` when the graph is
    /// acyclic.
    pub fn cycle_proof(&self) -> Option<CycleProof> {
        let cycle = self.find_cycle_edges()?;
        // Adjacency with edge ids, for premise-path reconstruction.
        let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); self.n];
        for (eid, e) in self.edges.iter().enumerate() {
            adj[e.from.0].push((e.to.0, eid));
        }

        // Collect every edge the proof depends on, resolving each ~rw
        // edge's premise to a path over strictly earlier edges.
        let mut needed: Vec<usize> = Vec::new();
        let mut seen: HashSet<usize> = HashSet::new();
        let mut vias: Vec<Option<Vec<usize>>> = vec![None; self.edges.len()];
        let mut work: Vec<usize> = cycle.clone();
        while let Some(eid) = work.pop() {
            if !seen.insert(eid) {
                continue;
            }
            needed.push(eid);
            if let EdgeKind::ReadWrite {
                beta: Some(beta), ..
            } = self.edges[eid].kind
            {
                let gamma = self.edges[eid].to;
                let path = bfs_path(&adj, beta.0, gamma.0, eid)
                    .expect("premise held over earlier edges at derivation time");
                work.extend(path.iter().copied());
                vias[eid] = Some(path);
            }
        }
        needed.sort_unstable();
        let slot: std::collections::HashMap<usize, usize> = needed
            .iter()
            .enumerate()
            .map(|(slot, &eid)| (eid, slot))
            .collect();
        let edges = needed
            .iter()
            .map(|&eid| CycleProofEdge {
                edge: self.edges[eid].clone(),
                via: vias[eid]
                    .as_deref()
                    .unwrap_or(&[])
                    .iter()
                    .map(|dep| slot[dep])
                    .collect(),
            })
            .collect();
        Some(CycleProof {
            edges,
            cycle: cycle.into_iter().map(|eid| slot[&eid]).collect(),
        })
    }

    /// Partitions the m-operations into *independent components*: two
    /// m-operations interact when they are related by any direct edge or
    /// touch a common object. Distinct components share no ordering
    /// constraints and no legality coupling, so admissibility decomposes
    /// into one search per component.
    pub fn interaction_components(&self, h: &History) -> Vec<Vec<usize>> {
        let mut uf = UnionFind::new(self.n);
        for e in &self.edges {
            uf.union(e.from.0, e.to.0);
        }
        let mut toucher: Vec<Option<usize>> = vec![None; h.num_objects()];
        for (idx, _) in h.iter() {
            for obj in h.objects(idx) {
                match toucher[obj.index()] {
                    Some(first) => {
                        uf.union(first, idx.0);
                    }
                    None => toucher[obj.index()] = Some(idx.0),
                }
            }
        }
        let mut by_root: std::collections::BTreeMap<usize, Vec<usize>> =
            std::collections::BTreeMap::new();
        for v in 0..self.n {
            by_root.entry(uf.find(v)).or_default().push(v);
        }
        // BTreeMap keyed by root ≠ sorted by min member; normalize.
        let mut comps: Vec<Vec<usize>> = by_root.into_values().collect();
        comps.sort_by_key(|ms| ms[0]);
        comps
    }
}

/// SCC condensation of a [`PrecedenceGraph`].
#[derive(Debug, Clone)]
pub struct Condensation {
    /// Component id of each m-operation (ids follow topological order).
    pub comp_of: Vec<usize>,
    /// Members of each component, in topological order of the condensation
    /// DAG. All singletons iff the graph is acyclic (no self-loops).
    pub members: Vec<Vec<usize>>,
}

/// One edge of a [`CycleProof`], with its premise justification.
#[derive(Debug, Clone)]
pub struct CycleProofEdge {
    /// The edge itself.
    pub edge: Edge,
    /// For a `~rw` edge with a non-initial `beta`: indices (into
    /// [`CycleProof::edges`], all strictly smaller than this edge's own
    /// index) forming a path `beta → … → gamma` that justifies the premise.
    /// Empty for base edges and initial-`beta` `~rw` edges.
    pub via: Vec<usize>,
}

/// A polynomial refutation core: an explicit `~H+` cycle together with the
/// justification edges its `~rw` members depend on.
#[derive(Debug, Clone)]
pub struct CycleProof {
    /// All edges the proof mentions, in dependency order.
    pub edges: Vec<CycleProofEdge>,
    /// Indices into `edges` forming the cycle (each edge's target is the
    /// next edge's source, wrapping around).
    pub cycle: Vec<usize>,
}

/// BFS for a path `from → … → to` using only edges with id < `max_edge`,
/// returned as edge ids. `None` if unreachable under that restriction.
fn bfs_path(
    adj: &[Vec<(usize, usize)>],
    from: usize,
    to: usize,
    max_edge: usize,
) -> Option<Vec<usize>> {
    if from == to {
        return Some(Vec::new());
    }
    let mut parent: Vec<Option<(usize, usize)>> = vec![None; adj.len()];
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(from);
    while let Some(u) = queue.pop_front() {
        for &(v, eid) in &adj[u] {
            if eid >= max_edge || parent[v].is_some() || v == from {
                continue;
            }
            parent[v] = Some((u, eid));
            if v == to {
                let mut rev = Vec::new();
                let mut cur = v;
                while cur != from {
                    let (p, pe) = parent[cur].unwrap();
                    rev.push(pe);
                    cur = p;
                }
                rev.reverse();
                return Some(rev);
            }
            queue.push_back(v);
        }
    }
    None
}

/// Tarjan's strongly-connected components over an adjacency list, iterative
/// (no recursion), components emitted in reverse topological order.
///
/// This is the workspace's one shared cycle-detection kernel: the
/// admissibility search, the condensation and the refutation-core
/// extraction all go through it.
pub fn tarjan_scc(succs: &[Vec<u32>]) -> Vec<Vec<u32>> {
    let n = succs.len();
    const UNSET: u32 = u32::MAX;
    let mut index = vec![UNSET; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0u32;
    let mut comps = Vec::new();

    // Explicit DFS frames: (vertex, next successor position).
    let mut frames: Vec<(u32, usize)> = Vec::new();
    for root in 0..n as u32 {
        if index[root as usize] != UNSET {
            continue;
        }
        frames.push((root, 0));
        index[root as usize] = next_index;
        lowlink[root as usize] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root as usize] = true;

        while let Some(&mut (v, ref mut pos)) = frames.last_mut() {
            if let Some(&w) = succs[v as usize].get(*pos) {
                *pos += 1;
                if index[w as usize] == UNSET {
                    index[w as usize] = next_index;
                    lowlink[w as usize] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w as usize] = true;
                    frames.push((w, 0));
                } else if on_stack[w as usize] {
                    lowlink[v as usize] = lowlink[v as usize].min(index[w as usize]);
                }
            } else {
                frames.pop();
                if let Some(&mut (parent, _)) = frames.last_mut() {
                    lowlink[parent as usize] = lowlink[parent as usize].min(lowlink[v as usize]);
                }
                if lowlink[v as usize] == index[v as usize] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack");
                        on_stack[w as usize] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    comps.push(comp);
                }
            }
        }
    }
    comps
}

/// Whether the digraph given as an adjacency list contains a cycle
/// (including self-loops). The shared kernel behind the searches'
/// up-front acyclicity guard.
pub fn adjacency_has_cycle(succs: &[Vec<u32>]) -> bool {
    if succs
        .iter()
        .enumerate()
        .any(|(v, ws)| ws.iter().any(|&w| w as usize == v))
    {
        return true;
    }
    tarjan_scc(succs).iter().any(|c| c.len() > 1)
}

struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, v: usize) -> usize {
        let mut root = v;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        let mut cur = v;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[rb.max(ra)] = rb.min(ra);
        }
    }
}

/// The statically-pruned admissibility search: saturates the precedence
/// graph over `relation`, refutes on a `~H+` cycle, then searches each
/// independent component separately with forced-prefix peeling. Returns the
/// same verdict as [`crate::admissible::find_legal_extension`] on every
/// input (witnesses may differ; both are valid).
pub fn find_legal_extension_pruned(
    h: &History,
    relation: &Relation,
    limits: SearchLimits,
) -> (SearchOutcome, SearchStats) {
    let graph = PrecedenceGraph::from_relation(h, relation);
    pruned_search(h, &graph, limits)
}

/// Like [`find_legal_extension_pruned`], but over a pre-built graph (so
/// callers that also need certificates saturate only once).
///
/// Execution is delegated to the parallel engine: each
/// interaction component is peeled to its forced prefix, its branch
/// frontier (the legal first moves) becomes work-stealable tasks, and the
/// deterministic fold over (component, branch) results yields the same
/// verdict, canonical witness and statistics at every
/// [`SearchLimits::threads`] setting.
pub fn pruned_search(
    h: &History,
    graph: &PrecedenceGraph,
    limits: SearchLimits,
) -> (SearchOutcome, SearchStats) {
    let n = h.len();
    let mut stats = SearchStats {
        forced_edges: graph.forced_edge_count() as u64,
        ..SearchStats::default()
    };
    if n == 0 {
        return (SearchOutcome::Admissible(Vec::new()), stats);
    }
    if graph.find_cycle_edges().is_some() {
        // A ~H+ cycle refutes admissibility outright (every legal
        // linearization would have to respect all forced edges).
        return (SearchOutcome::NotAdmissible, stats);
    }

    let edges: Vec<(u32, u32)> = graph
        .edges()
        .iter()
        .map(|e| (e.from.0 as u32, e.to.0 as u32))
        .collect();
    let problem = SearchProblem::new(h, &edges);

    let comps = graph.interaction_components(h);
    stats.components = comps.len() as u64;

    // Compile each component: peel the forced prefix, then enumerate the
    // branch frontier. Objects never span components, so each component's
    // last-writer state is independent of the others.
    let mut plans = Vec::with_capacity(comps.len());
    for comp in &comps {
        let mut remaining: Vec<usize> = comp.clone();
        let mut peeled_order: Vec<u32> = Vec::new();
        let mut last_writer: Vec<u32> = vec![engine::NONE; h.num_objects()];
        let mut refuted = false;

        // Forced-prefix peeling: an element ordered (in ~H+) before every
        // other remaining member must come next in every witness — schedule
        // it without search, or refute if its reads cannot be legal.
        while let Some(pos) = remaining.iter().position(|&u| {
            remaining
                .iter()
                .all(|&v| v == u || graph.closed.contains(MOpIdx(u), MOpIdx(v)))
        }) {
            let u = remaining.swap_remove(pos);
            if !problem
                .read_reqs
                .row(u)
                .iter()
                .all(|&(obj, w)| last_writer[obj as usize] == w)
            {
                refuted = true;
                break;
            }
            for &o in problem.write_sets.row(u) {
                last_writer[o as usize] = u as u32;
            }
            peeled_order.push(u as u32);
            if remaining.is_empty() {
                break;
            }
        }
        remaining.sort_unstable();
        let members: Vec<u32> = remaining.iter().map(|&u| u as u32).collect();
        let peeled = peeled_order.len() as u64;
        plans.push(ComponentPlan::build(
            &problem,
            peeled_order,
            members,
            refuted,
            peeled,
        ));
    }

    let (outcome, engine_stats) = engine::execute(&problem, &plans, limits);
    stats.nodes = engine_stats.nodes;
    stats.memo_hits = engine_stats.memo_hits;
    stats.memo_peak = engine_stats.memo_peak;
    stats.memo_saturated = engine_stats.memo_saturated;
    stats.symmetry_skips = engine_stats.symmetry_skips;
    stats.peeled = engine_stats.peeled;
    (outcome, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admissible::find_legal_extension;
    use moc_core::history::HistoryBuilder;
    use moc_core::ids::ProcessId;
    use moc_core::legality::sequence_witnesses_admissibility;
    use moc_core::relations::{process_order, reads_from};

    fn pid(i: u32) -> ProcessId {
        ProcessId::new(i)
    }
    fn oid(i: u32) -> ObjectId {
        ObjectId::new(i)
    }
    fn m(i: usize) -> MOpIdx {
        MOpIdx(i)
    }

    /// Figure 2's H1 (α, β on P1; γ, δ on P2; WW edges α<γ<δ).
    fn figure2() -> (History, Relation) {
        let x = oid(0);
        let y = oid(1);
        let mut b = HistoryBuilder::new(2);
        let alpha = b.mop(pid(1)).at(0, 10).read_init(x).write(y, 2).finish();
        b.mop(pid(1)).at(20, 60).read_from(y, 2, alpha).finish();
        b.mop(pid(2)).at(15, 25).write(x, 1).finish();
        b.mop(pid(2)).at(30, 40).write(y, 3).finish();
        let h = b.build().unwrap();
        let mut rel = process_order(&h).union(&reads_from(&h));
        rel.add(m(0), m(2));
        rel.add(m(2), m(3));
        (h, rel)
    }

    /// The classic SC litmus: its ~H+ fixpoint is cyclic.
    fn litmus() -> (History, Relation) {
        let x = oid(0);
        let y = oid(1);
        let mut b = HistoryBuilder::new(2);
        b.mop(pid(0)).at(0, 10).write(x, 1).finish();
        b.mop(pid(0)).at(20, 30).read_init(y).finish();
        b.mop(pid(1)).at(0, 10).write(y, 1).finish();
        b.mop(pid(1)).at(20, 30).read_init(x).finish();
        let h = b.build().unwrap();
        let rel = process_order(&h).union(&reads_from(&h));
        (h, rel)
    }

    #[test]
    fn figure2_derives_the_figure3_forced_edge() {
        let (h, rel) = figure2();
        let g = PrecedenceGraph::from_relation(&h, &rel);
        // β ~rw δ: δ writes y, which β reads from α, and α ~H δ.
        assert!(g.closed().contains(m(1), m(3)));
        assert!(g.forced_edge_count() >= 1);
        assert!(g.find_cycle_edges().is_none());
        let cond = g.condensation();
        assert!(cond.members.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn litmus_cycle_is_refuted_without_search() {
        let (h, rel) = litmus();
        let g = PrecedenceGraph::from_relation(&h, &rel);
        let cycle = g.find_cycle_edges().expect("litmus has a ~H+ cycle");
        assert!(cycle.len() >= 2);
        // The cycle is a closed walk over the graph's edges.
        for (k, &eid) in cycle.iter().enumerate() {
            let next = cycle[(k + 1) % cycle.len()];
            assert_eq!(g.edges()[eid].to, g.edges()[next].from);
        }
        let (out, stats) = pruned_search(&h, &g, SearchLimits::default());
        assert_eq!(out, SearchOutcome::NotAdmissible);
        assert_eq!(stats.nodes, 0, "refuted statically");
    }

    #[test]
    fn cycle_proof_justifies_rw_premises() {
        let (h, rel) = litmus();
        let g = PrecedenceGraph::from_relation(&h, &rel);
        let proof = g.cycle_proof().expect("cyclic");
        assert!(!proof.cycle.is_empty());
        for (slot, pe) in proof.edges.iter().enumerate() {
            for &dep in &pe.via {
                assert!(dep < slot, "justification must precede its use");
            }
            if let EdgeKind::ReadWrite {
                beta: Some(beta), ..
            } = pe.edge.kind
            {
                // The via path must chain beta -> ... -> gamma.
                let mut cur = beta;
                for &dep in &pe.via {
                    assert_eq!(proof.edges[dep].edge.from, cur);
                    cur = proof.edges[dep].edge.to;
                }
                assert_eq!(cur, pe.edge.to);
            }
        }
    }

    #[test]
    fn components_split_object_disjoint_subhistories() {
        // Two disjoint copies of a write/read pair.
        let mut b = HistoryBuilder::new(2);
        let w0 = b.mop(pid(0)).at(0, 10).write(oid(0), 1).finish();
        b.mop(pid(1)).at(20, 30).read_from(oid(0), 1, w0).finish();
        let w1 = b.mop(pid(2)).at(0, 10).write(oid(1), 5).finish();
        b.mop(pid(3)).at(20, 30).read_from(oid(1), 5, w1).finish();
        let h = b.build().unwrap();
        let rel = process_order(&h).union(&reads_from(&h));
        let g = PrecedenceGraph::from_relation(&h, &rel);
        let comps = g.interaction_components(&h);
        assert_eq!(comps, vec![vec![0, 1], vec![2, 3]]);
        let (out, stats) = pruned_search(&h, &g, SearchLimits::default());
        let w = out.witness().expect("admissible").to_vec();
        assert!(sequence_witnesses_admissibility(&h, &rel, &w));
        assert_eq!(stats.components, 2);
        // Everything is forced here: both components peel completely.
        assert_eq!(stats.peeled as usize, 4);
        assert_eq!(stats.nodes, 0);
    }

    #[test]
    fn pruned_agrees_with_naive_on_figure2_and_litmus() {
        for (h, rel) in [figure2(), litmus()] {
            let (naive, _) = find_legal_extension(&h, &rel, SearchLimits::default());
            let (pruned, _) = find_legal_extension_pruned(&h, &rel, SearchLimits::default());
            assert_eq!(naive.is_admissible(), pruned.is_admissible());
            if let Some(w) = pruned.witness() {
                assert!(sequence_witnesses_admissibility(&h, &rel, w));
            }
        }
    }

    #[test]
    fn tarjan_finds_components_and_cycles() {
        // 0 -> 1 -> 2 -> 0 cycle, 3 isolated, 4 -> 3 edge.
        let succs = vec![vec![1], vec![2], vec![0], vec![], vec![3u32]];
        let comps = tarjan_scc(&succs);
        assert!(comps.contains(&vec![0, 1, 2]));
        assert!(adjacency_has_cycle(&succs));
        let dag = vec![vec![1], vec![2], vec![], vec![2u32]];
        assert!(!adjacency_has_cycle(&dag));
        assert!(adjacency_has_cycle(&[vec![0u32]])); // self-loop
    }

    #[test]
    fn empty_history_is_trivially_admissible() {
        let h = HistoryBuilder::new(1).build().unwrap();
        let (out, _) = find_legal_extension_pruned(&h, &Relation::new(0), SearchLimits::default());
        assert_eq!(out, SearchOutcome::Admissible(vec![]));
    }
}
