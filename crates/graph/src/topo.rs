//! Topological utilities over workflow graphs.
//!
//! Mappings need a deterministic topological order (static `multi` assigns
//! instances in that order) and stage layering (the `staging` optimization
//! clusters PEs by shuffle-free layers).

use crate::graph::WorkflowGraph;
use crate::node::PeId;
use crate::validate::GraphError;

impl WorkflowGraph {
    /// Kahn's algorithm with a smallest-id tie-break — the one pass behind
    /// [`topological_order`](Self::topological_order) and the analyzer's
    /// cycle rule. Returns the order, and (in id order) the PEs it could
    /// not reach: those on or behind a cycle. Indegrees count one per
    /// connection and are decremented one per connection, so parallel edges
    /// between the same pair balance.
    pub(crate) fn kahn(&self) -> (Vec<PeId>, Vec<PeId>) {
        let n = self.pe_count();
        let mut indegree = vec![0usize; n];
        for c in self.connections() {
            indegree[c.to_pe.0] += 1;
        }
        // Min-heap by id for determinism.
        let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<usize>> = self
            .pe_ids()
            .filter(|id| indegree[id.0] == 0)
            .map(|id| std::cmp::Reverse(id.0))
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(std::cmp::Reverse(i)) = ready.pop() {
            let id = PeId(i);
            order.push(id);
            for c in self.connections().iter().filter(|c| c.from_pe == id) {
                indegree[c.to_pe.0] -= 1;
                if indegree[c.to_pe.0] == 0 {
                    ready.push(std::cmp::Reverse(c.to_pe.0));
                }
            }
        }
        let stuck = self.pe_ids().filter(|id| indegree[id.0] > 0).collect();
        (order, stuck)
    }

    /// Deterministic topological order (see [`kahn`](Self::kahn)). Errors
    /// if the graph has a cycle, naming the first PE stuck on or behind it.
    pub fn topological_order(&self) -> Result<Vec<PeId>, GraphError> {
        let (order, stuck) = self.kahn();
        match stuck.first().and_then(|&id| self.pe(id)) {
            Some(pe) => Err(GraphError::Cycle(pe.name.clone())),
            None => Ok(order),
        }
    }

    /// Groups PEs into dependency layers: layer 0 contains the sources,
    /// layer k the PEs all of whose predecessors are in layers < k and at
    /// least one is in layer k-1 (longest-path layering).
    pub fn layers(&self) -> Result<Vec<Vec<PeId>>, GraphError> {
        let order = self.topological_order()?;
        let mut depth = vec![0usize; self.pe_count()];
        for &id in &order {
            for pred in self.predecessors(id) {
                depth[id.0] = depth[id.0].max(depth[pred.0] + 1);
            }
        }
        let max = depth.iter().copied().max().unwrap_or(0);
        let mut layers = vec![Vec::new(); if self.pe_count() == 0 { 0 } else { max + 1 }];
        for &id in &order {
            layers[depth[id.0]].push(id);
        }
        Ok(layers)
    }

    /// Longest path length (in edges) from any source to `pe`.
    pub fn depth_of(&self, pe: PeId) -> Result<usize, GraphError> {
        let order = self.topological_order()?;
        let mut depth = vec![0usize; self.pe_count()];
        for &id in &order {
            for pred in self.predecessors(id) {
                depth[id.0] = depth[id.0].max(depth[pred.0] + 1);
            }
        }
        Ok(depth[pe.0])
    }

    /// All PEs reachable from `start` (excluding `start` itself unless it is
    /// on a path back to itself, which a DAG forbids).
    pub fn descendants(&self, start: PeId) -> Vec<PeId> {
        let mut seen = vec![false; self.pe_count()];
        let mut stack = self.successors(start);
        let mut out = Vec::new();
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut seen[id.0], true) {
                continue;
            }
            out.push(id);
            stack.extend(self.successors(id));
        }
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grouping::Grouping;
    use crate::node::PeSpec;

    fn diamond() -> (WorkflowGraph, [PeId; 4]) {
        let mut g = WorkflowGraph::new("t");
        let s = g.add_pe(PeSpec::source("s", "out"));
        let l = g.add_pe(PeSpec::transform("l", "in", "out"));
        let r = g.add_pe(PeSpec::transform("r", "in", "out"));
        let k = g.add_pe(PeSpec::sink("k", "in"));
        g.connect(s, "out", l, "in", Grouping::Shuffle).unwrap();
        g.connect(s, "out", r, "in", Grouping::Shuffle).unwrap();
        g.connect(l, "out", k, "in", Grouping::Shuffle).unwrap();
        g.connect(r, "out", k, "in", Grouping::Shuffle).unwrap();
        (g, [s, l, r, k])
    }

    #[test]
    fn topo_order_respects_edges() {
        let (g, [s, l, r, k]) = diamond();
        let order = g.topological_order().unwrap();
        let pos = |id: PeId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(s) < pos(l));
        assert!(pos(s) < pos(r));
        assert!(pos(l) < pos(k));
        assert!(pos(r) < pos(k));
    }

    #[test]
    fn topo_order_is_deterministic() {
        let (g, _) = diamond();
        assert_eq!(
            g.topological_order().unwrap(),
            g.topological_order().unwrap()
        );
    }

    #[test]
    fn layers_of_diamond() {
        let (g, [s, l, r, k]) = diamond();
        let layers = g.layers().unwrap();
        assert_eq!(layers, vec![vec![s], vec![l, r], vec![k]]);
    }

    #[test]
    fn depth_uses_longest_path() {
        // s -> a -> k and s -> k directly: k's depth must be 2.
        let mut g = WorkflowGraph::new("t");
        let s = g.add_pe(PeSpec::source("s", "out"));
        let a = g.add_pe(PeSpec::transform("a", "in", "out"));
        let k = g.add_pe(PeSpec::sink("k", "in"));
        g.connect(s, "out", a, "in", Grouping::Shuffle).unwrap();
        g.connect(s, "out", k, "in", Grouping::Shuffle).unwrap();
        g.connect(a, "out", k, "in", Grouping::Shuffle).unwrap();
        assert_eq!(g.depth_of(k).unwrap(), 2);
    }

    #[test]
    fn descendants_of_source_cover_graph() {
        let (g, [s, l, r, k]) = diamond();
        assert_eq!(g.descendants(s), vec![l, r, k]);
        assert_eq!(g.descendants(k), vec![]);
    }

    #[test]
    fn empty_graph_has_empty_order() {
        let g = WorkflowGraph::new("t");
        assert!(g.topological_order().unwrap().is_empty());
        assert!(g.layers().unwrap().is_empty());
    }
}
