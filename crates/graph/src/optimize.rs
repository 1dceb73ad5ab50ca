//! Static workflow optimizations: *naive assignment* and *staging*.
//!
//! These are the two static optimizations from the authors' prior work
//! ([13, 14] in the paper, summarised in §2.2) that the optimization module
//! applies to the *abstract* workflow before mapping, so they compose with
//! every enactment engine:
//!
//! * **Naive assignment** analyses execution logs (an [`ExecutionProfile`])
//!   and consolidates interconnected PEs whose communication time surpasses
//!   their execution time — fusing them removes the channel between them.
//! * **Staging** clusters consecutive operations that do not require data
//!   shuffling, purely from the graph's shape: a chain link is fusable when
//!   the downstream PE has a single predecessor and the connection's
//!   grouping neither pins instances (group-by / global) nor broadcasts.
//!
//! Both produce a [`Clustering`]: a partition of PEs into fusion groups that
//! mappings may execute inside a single worker without inter-worker traffic.

use crate::graph::WorkflowGraph;
use crate::node::PeId;
use std::collections::HashMap;
use std::time::Duration;

/// Measured (or estimated) costs from previous executions of a workflow.
#[derive(Debug, Clone, Default)]
pub struct ExecutionProfile {
    /// Mean per-item execution time of each PE.
    pub exec_time: HashMap<PeId, Duration>,
    /// Mean per-item communication time of each connection, keyed by
    /// (producer, consumer).
    pub comm_time: HashMap<(PeId, PeId), Duration>,
}

impl ExecutionProfile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a PE's mean execution time (builder style).
    pub fn with_exec(mut self, pe: PeId, t: Duration) -> Self {
        self.exec_time.insert(pe, t);
        self
    }

    /// Records a connection's mean communication time (builder style).
    pub fn with_comm(mut self, from: PeId, to: PeId, t: Duration) -> Self {
        self.comm_time.insert((from, to), t);
        self
    }
}

/// A partition of the workflow's PEs into fusion groups: a placement runs
/// the members of a cluster on one worker.
///
/// Every PE appears in exactly one cluster; clusters are listed in
/// topological order of their first member.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clustering {
    /// Fusion groups; each inner vector is in topological order.
    pub clusters: Vec<Vec<PeId>>,
}

impl Clustering {
    /// No fusion: every PE a cluster of its own, in topological order.
    pub fn singletons(graph: &WorkflowGraph) -> Self {
        clusters_from_dsu(graph, &mut Dsu::new(graph.pe_count()))
    }

    /// The same clusters in dataflow order: members in topological order,
    /// and every connection between two clusters running forward, so the
    /// flattened list is a topological order of the PEs. Among the clusters
    /// ready at a step, the one whose first member comes first is taken, so
    /// [`staging`] and [`singletons`](Self::singletons) come back unchanged.
    ///
    /// `None` when the clusters do not partition the PEs, or when they form
    /// a cycle: a connection leaves a cluster and a path comes back into it
    /// (a→b→c plus a→c with {a, c} fused), which no placement runs in order.
    pub fn in_dataflow_order(&self, graph: &WorkflowGraph) -> Option<Self> {
        let members: usize = self.clusters.iter().map(Vec::len).sum();
        let covered = graph.pe_ids().all(|pe| self.cluster_of(pe).is_some());
        if !covered || members != graph.pe_count() || self.clusters.iter().any(Vec::is_empty) {
            return None;
        }
        let mut position = vec![0; graph.pe_count()];
        for (i, pe) in graph.topological_order().ok()?.into_iter().enumerate() {
            position[pe.0] = i;
        }
        let mut sorted = self.clone();
        for members in &mut sorted.clusters {
            members.sort_by_key(|pe| position[pe.0]);
        }
        sorted
            .clusters
            .sort_by_key(|members| position[members[0].0]);
        let of = |pe| sorted.cluster_of(pe).expect("the clusters cover every PE");
        let crossing: Vec<(usize, usize)> = graph
            .connections()
            .iter()
            .map(|c| (of(c.from_pe), of(c.to_pe)))
            .filter(|(from, to)| from != to)
            .collect();
        let mut left: Vec<usize> = (0..sorted.len()).collect();
        let mut clusters = Vec::with_capacity(left.len());
        while !left.is_empty() {
            // The first cluster left that no cluster left feeds.
            let fed = |i| {
                crossing
                    .iter()
                    .any(|&(from, to)| to == i && left.contains(&from))
            };
            let next = left.remove(left.iter().position(|&i| !fed(i))?);
            clusters.push(sorted.clusters[next].clone());
        }
        Some(Self { clusters })
    }

    /// The cluster index containing `pe`.
    pub fn cluster_of(&self, pe: PeId) -> Option<usize> {
        self.clusters.iter().position(|c| c.contains(&pe))
    }

    /// True if two PEs were fused into the same cluster.
    pub fn fused(&self, a: PeId, b: PeId) -> bool {
        match (self.cluster_of(a), self.cluster_of(b)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }

    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// True if there are no clusters.
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }
}

/// Union-find over PE indices.
struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
        }
    }
    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }
    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[rb] = ra;
        }
    }
}

fn clusters_from_dsu(graph: &WorkflowGraph, dsu: &mut Dsu) -> Clustering {
    let order = graph
        .topological_order()
        .unwrap_or_else(|_| graph.pe_ids().collect());
    let mut by_root: HashMap<usize, Vec<PeId>> = HashMap::new();
    let mut roots_in_order = Vec::new();
    for id in order {
        let root = dsu.find(id.0);
        let entry = by_root.entry(root).or_default();
        if entry.is_empty() {
            roots_in_order.push(root);
        }
        entry.push(id);
    }
    Clustering {
        clusters: roots_in_order
            .into_iter()
            .map(|r| {
                by_root
                    .remove(&r)
                    .expect("every recorded root owns a cluster")
            })
            .collect(),
    }
}

/// *Naive assignment*: fuse every connected pair whose communication time
/// exceeds the combined mean execution time of its endpoints.
///
/// Pairs missing from the profile are left unfused (no evidence, no fusion).
pub fn naive_assignment(graph: &WorkflowGraph, profile: &ExecutionProfile) -> Clustering {
    let mut dsu = Dsu::new(graph.pe_count());
    for c in graph.connections() {
        let comm = match profile.comm_time.get(&(c.from_pe, c.to_pe)) {
            Some(t) => *t,
            None => continue,
        };
        let exec = profile
            .exec_time
            .get(&c.from_pe)
            .copied()
            .unwrap_or_default()
            .max(profile.exec_time.get(&c.to_pe).copied().unwrap_or_default());
        if comm > exec {
            dsu.union(c.from_pe.0, c.to_pe.0);
        }
    }
    clusters_from_dsu(graph, &mut dsu)
}

/// *Staging*: fuse pipeline links that require no data shuffling.
///
/// A connection `u → v` is fused when `v` has exactly one predecessor, `u`
/// has exactly one successor, and the grouping neither pins instances nor
/// broadcasts. This collapses straight-line pipeline segments into stages
/// while keeping fan-in/fan-out and grouping boundaries intact.
///
/// Source PEs always form their own stage: a source's "operation" is
/// generating the whole stream, and fusing it with consumers would collapse
/// the stream into a single unit of work, destroying data parallelism.
pub fn staging(graph: &WorkflowGraph) -> Clustering {
    let mut dsu = Dsu::new(graph.pe_count());
    for c in graph.connections() {
        let from_is_source = graph
            .pe(c.from_pe)
            .map(|s| s.kind() == crate::node::PeKind::Source)
            .unwrap_or(false);
        let single_pred = graph.predecessors(c.to_pe).len() == 1;
        let single_succ = graph.successors(c.from_pe).len() == 1;
        let no_shuffle_needed = !c.grouping.requires_affinity() && !c.grouping.is_broadcast();
        if !from_is_source && single_pred && single_succ && no_shuffle_needed {
            dsu.union(c.from_pe.0, c.to_pe.0);
        }
    }
    clusters_from_dsu(graph, &mut dsu)
}

/// The critical path: the source-to-sink chain maximising summed per-item
/// cost (PE execution + edge communication), from an [`ExecutionProfile`].
///
/// This is the lower bound on per-item latency no amount of added
/// parallelism can beat, and the chain the fusion optimizations should
/// target first. PEs or edges missing from the profile cost zero.
pub fn critical_path(graph: &WorkflowGraph, profile: &ExecutionProfile) -> (Vec<PeId>, Duration) {
    let Ok(order) = graph.topological_order() else {
        return (vec![], Duration::ZERO);
    };
    let mut best: HashMap<PeId, (Duration, Option<PeId>)> = HashMap::new();
    for &id in &order {
        let own = profile.exec_time.get(&id).copied().unwrap_or_default();
        let mut incoming_best: (Duration, Option<PeId>) = (Duration::ZERO, None);
        for pred in graph.predecessors(id) {
            let upstream = best.get(&pred).map(|(d, _)| *d).unwrap_or_default();
            let comm = profile
                .comm_time
                .get(&(pred, id))
                .copied()
                .unwrap_or_default();
            let via = upstream + comm;
            if via > incoming_best.0 {
                incoming_best = (via, Some(pred));
            }
        }
        best.insert(id, (incoming_best.0 + own, incoming_best.1));
    }
    // Deterministic maximum: scan in topological order with >=, so among
    // equal-cost endpoints the furthest-downstream PE (e.g. the sink after
    // a free final hop) wins.
    let mut end_total: Option<(PeId, Duration)> = None;
    for &id in &order {
        let d = best[&id].0;
        if end_total.map(|(_, t)| d >= t).unwrap_or(true) {
            end_total = Some((id, d));
        }
    }
    let Some((end, total)) = end_total else {
        return (vec![], Duration::ZERO);
    };
    let mut path = vec![end];
    let mut cursor = end;
    while let Some(&(_, Some(prev))) = best.get(&cursor) {
        path.push(prev);
        cursor = prev;
    }
    path.reverse();
    (path, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grouping::Grouping;
    use crate::node::PeSpec;

    fn pipeline(n: usize) -> WorkflowGraph {
        let mut g = WorkflowGraph::new("p");
        let mut prev = g.add_pe(PeSpec::source("pe0", "out"));
        for i in 1..n {
            let pe = if i == n - 1 {
                g.add_pe(PeSpec::sink(format!("pe{i}"), "in"))
            } else {
                g.add_pe(PeSpec::transform(format!("pe{i}"), "in", "out"))
            };
            g.connect(prev, "out", pe, "in", Grouping::Shuffle).unwrap();
            prev = pe;
        }
        g
    }

    #[test]
    fn staging_fuses_straight_pipeline_after_the_source() {
        let g = pipeline(5);
        let c = staging(&g);
        assert_eq!(c.len(), 2, "source stage + fused body");
        assert_eq!(c.clusters[0], vec![PeId(0)], "the source stands alone");
        assert_eq!(c.clusters[1].len(), 4);
    }

    #[test]
    fn staging_breaks_at_group_by() {
        let mut g = WorkflowGraph::new("t");
        let s = g.add_pe(PeSpec::source("s", "out"));
        let a = g.add_pe(PeSpec::transform("a", "in", "out"));
        let a2 = g.add_pe(PeSpec::transform("a2", "in", "out"));
        let b = g.add_pe(PeSpec::sink("b", "in"));
        g.connect(s, "out", a, "in", Grouping::Shuffle).unwrap();
        g.connect(a, "out", a2, "in", Grouping::Shuffle).unwrap();
        g.connect(a2, "out", b, "in", Grouping::group_by("k"))
            .unwrap();
        let c = staging(&g);
        assert!(!c.fused(s, a), "sources stand alone");
        assert!(c.fused(a, a2), "transform chain fuses");
        assert!(!c.fused(a2, b), "group-by boundary");
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn dataflow_order_keeps_staging_and_singletons() {
        let g = pipeline(5);
        for c in [staging(&g), Clustering::singletons(&g)] {
            assert_eq!(c.in_dataflow_order(&g), Some(c.clone()));
        }
        let all: Vec<PeId> = g.topological_order().unwrap();
        assert_eq!(Clustering::singletons(&g).clusters.concat(), all);
    }

    #[test]
    fn dataflow_order_puts_a_feeding_cluster_first() {
        // s → w, s → u → v with {w, v} fused: {u} feeds that cluster, so it
        // comes first, whatever the order it was listed in.
        let mut g = WorkflowGraph::new("t");
        let s = g.add_pe(PeSpec::source("s", "out"));
        let w = g.add_pe(PeSpec::sink("w", "in"));
        let u = g.add_pe(PeSpec::transform("u", "in", "out"));
        let v = g.add_pe(PeSpec::sink("v", "in"));
        g.connect(s, "out", w, "in", Grouping::Shuffle).unwrap();
        g.connect(s, "out", u, "in", Grouping::Shuffle).unwrap();
        g.connect(u, "out", v, "in", Grouping::Shuffle).unwrap();
        let given = Clustering {
            clusters: vec![vec![v, w], vec![u], vec![s]],
        };
        let ordered = given.in_dataflow_order(&g).unwrap();
        assert_eq!(ordered.clusters[..2], [vec![s], vec![u]]);
        let mut fused = ordered.clusters[2].clone();
        fused.sort();
        assert_eq!(fused, [w, v]);
    }

    #[test]
    fn dataflow_order_rejects_a_cycle_and_a_non_partition() {
        // a → b → c plus a → c: {a, c} both feeds and follows b.
        let mut g = WorkflowGraph::new("t");
        let a = g.add_pe(PeSpec::source("a", "out"));
        let b = g.add_pe(PeSpec::transform("b", "in", "out"));
        let c = g.add_pe(PeSpec::sink("c", "in"));
        g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
        g.connect(b, "out", c, "in", Grouping::Shuffle).unwrap();
        g.connect(a, "out", c, "in", Grouping::Shuffle).unwrap();
        let rejected = [
            vec![vec![a, c], vec![b]],
            vec![vec![a, b]],
            vec![vec![a, b], vec![b, c]],
            vec![vec![a, b, c], vec![]],
        ];
        for clusters in rejected {
            let c = Clustering { clusters };
            assert_eq!(c.in_dataflow_order(&g), None, "{c:?}");
        }
    }

    #[test]
    fn staging_never_fuses_a_source() {
        let g = pipeline(2);
        let c = staging(&g);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn staging_breaks_at_fan_out() {
        let mut g = WorkflowGraph::new("t");
        let s = g.add_pe(PeSpec::source("s", "out"));
        let l = g.add_pe(PeSpec::sink("l", "in"));
        let r = g.add_pe(PeSpec::sink("r", "in"));
        g.connect(s, "out", l, "in", Grouping::Shuffle).unwrap();
        g.connect(s, "out", r, "in", Grouping::Shuffle).unwrap();
        let c = staging(&g);
        assert_eq!(c.len(), 3, "fan-out must not be fused");
    }

    #[test]
    fn staging_breaks_at_fan_in() {
        let mut g = WorkflowGraph::new("t");
        let a = g.add_pe(PeSpec::source("a", "out"));
        let b = g.add_pe(PeSpec::source("b", "out"));
        let k = g.add_pe(PeSpec::sink("k", "in"));
        g.connect(a, "out", k, "in", Grouping::Shuffle).unwrap();
        g.connect(b, "out", k, "in", Grouping::Shuffle).unwrap();
        let c = staging(&g);
        assert_eq!(c.len(), 3, "fan-in must not be fused");
    }

    #[test]
    fn naive_assignment_fuses_comm_dominated_links() {
        let g = pipeline(3);
        let (a, b, c) = (PeId(0), PeId(1), PeId(2));
        let profile = ExecutionProfile::new()
            .with_exec(a, Duration::from_millis(1))
            .with_exec(b, Duration::from_millis(1))
            .with_exec(c, Duration::from_millis(100))
            .with_comm(a, b, Duration::from_millis(50)) // comm >> exec: fuse
            .with_comm(b, c, Duration::from_millis(50)); // comm < exec(c): keep
        let clustering = naive_assignment(&g, &profile);
        assert!(clustering.fused(a, b));
        assert!(!clustering.fused(b, c));
    }

    #[test]
    fn naive_assignment_without_profile_fuses_nothing() {
        let g = pipeline(4);
        let c = naive_assignment(&g, &ExecutionProfile::new());
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn clustering_covers_every_pe_exactly_once() {
        let g = pipeline(6);
        let c = staging(&g);
        let mut all: Vec<PeId> = c.clusters.iter().flatten().copied().collect();
        all.sort();
        let expected: Vec<PeId> = g.pe_ids().collect();
        assert_eq!(all, expected);
    }

    #[test]
    fn critical_path_follows_the_expensive_branch() {
        // s → (cheap, costly) → k: the path must run through `costly`.
        let mut g = WorkflowGraph::new("t");
        let s = g.add_pe(PeSpec::source("s", "out"));
        let cheap = g.add_pe(PeSpec::transform("cheap", "in", "out"));
        let costly = g.add_pe(PeSpec::transform("costly", "in", "out"));
        let k = g.add_pe(PeSpec::sink("k", "in"));
        g.connect(s, "out", cheap, "in", Grouping::Shuffle).unwrap();
        g.connect(s, "out", costly, "in", Grouping::Shuffle)
            .unwrap();
        g.connect(cheap, "out", k, "in", Grouping::Shuffle).unwrap();
        g.connect(costly, "out", k, "in", Grouping::Shuffle)
            .unwrap();
        let profile = ExecutionProfile::new()
            .with_exec(s, Duration::from_millis(1))
            .with_exec(cheap, Duration::from_millis(1))
            .with_exec(costly, Duration::from_millis(50))
            .with_exec(k, Duration::from_millis(2));
        let (path, total) = critical_path(&g, &profile);
        assert_eq!(path, vec![s, costly, k]);
        assert_eq!(total, Duration::from_millis(53));
    }

    #[test]
    fn critical_path_counts_communication() {
        // Two parallel 2-hop paths with equal exec; the fat edge decides.
        let mut g = WorkflowGraph::new("t");
        let s = g.add_pe(PeSpec::source("s", "out"));
        let a = g.add_pe(PeSpec::transform("a", "in", "out"));
        let b = g.add_pe(PeSpec::transform("b", "in", "out"));
        let k = g.add_pe(PeSpec::sink("k", "in"));
        g.connect(s, "out", a, "in", Grouping::Shuffle).unwrap();
        g.connect(s, "out", b, "in", Grouping::Shuffle).unwrap();
        g.connect(a, "out", k, "in", Grouping::Shuffle).unwrap();
        g.connect(b, "out", k, "in", Grouping::Shuffle).unwrap();
        let profile = ExecutionProfile::new()
            .with_comm(s, a, Duration::from_millis(1))
            .with_comm(s, b, Duration::from_millis(30));
        let (path, total) = critical_path(&g, &profile);
        assert_eq!(path, vec![s, b, k]);
        assert_eq!(total, Duration::from_millis(30));
    }

    #[test]
    fn critical_path_of_empty_graph() {
        let g = WorkflowGraph::new("t");
        let (path, total) = critical_path(&g, &ExecutionProfile::new());
        assert!(path.is_empty());
        assert_eq!(total, Duration::ZERO);
    }

    #[test]
    fn cluster_of_unknown_pe_is_none() {
        let g = pipeline(2);
        let c = staging(&g);
        assert_eq!(c.cluster_of(PeId(99)), None);
        assert!(!c.fused(PeId(0), PeId(99)));
    }
}
