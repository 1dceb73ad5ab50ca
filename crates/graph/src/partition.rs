//! Static instance allocation (abstract → concrete workflow).
//!
//! The static `multi` mapping pre-assigns PE instances to processes. The
//! paper's Figure 1 describes the native allocation rule: the source PE is
//! exclusively assigned one process, and each remaining PE receives
//! ⌊(P − 1) / (N − 1)⌋ instances, where P is the process count and N the PE
//! count — possibly leaving processes idle (the inefficiency that motivates
//! the auto-scaling work). PEs may also pin an explicit instance count (the
//! sentiment workflow pins `happy State` to 4 and `top 3 happiest` to 2);
//! pinned PEs take their processes off the top before the remainder is
//! divided.
//!
//! The allocation is over a [`Clustering`] (§2.2's staging or naive
//! assignment), which counts each cluster as one PE: an instance of a
//! cluster is one process that runs every member. Figure 1's plan is the
//! one over [`Clustering::singletons`].

use crate::graph::WorkflowGraph;
use crate::node::{PeId, PeKind};
use crate::optimize::Clustering;

/// A concrete instance of a PE: the pair (PE id, instance index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstanceId {
    /// The PE this instance executes.
    pub pe: PeId,
    /// Index within the PE's instance set, `0..instances(pe)`.
    pub index: usize,
}

impl std::fmt::Display for InstanceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}#{}", self.pe, self.index)
    }
}

/// How one PE's instances map onto processes.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceAllocation {
    /// The PE being allocated.
    pub pe: PeId,
    /// Number of instances created for the PE.
    pub instances: usize,
    /// Process index for each instance (`processes[i]` hosts instance `i`).
    pub processes: Vec<usize>,
}

/// A full static deployment plan: every PE's instances assigned to processes.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionPlan {
    /// Total processes the plan was built for.
    pub num_processes: usize,
    /// Per-PE allocations, in PE-id order.
    pub allocations: Vec<InstanceAllocation>,
}

/// Errors from static partitioning.
#[derive(Debug, Clone, PartialEq)]
pub enum PartitionError {
    /// Fewer processes than the plan's minimum (one per instance).
    NotEnoughProcesses {
        /// Processes required (sum of instance counts).
        required: usize,
        /// Processes available.
        available: usize,
    },
    /// The graph is empty.
    EmptyGraph,
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::NotEnoughProcesses {
                required,
                available,
            } => write!(
                f,
                "static mapping needs at least {required} processes, got {available}"
            ),
            PartitionError::EmptyGraph => write!(f, "cannot partition an empty workflow"),
        }
    }
}

impl std::error::Error for PartitionError {}

impl PartitionPlan {
    /// Instance count for a PE.
    pub fn instances_of(&self, pe: PeId) -> usize {
        self.allocations.get(pe.0).map(|a| a.instances).unwrap_or(0)
    }

    /// Process hosting a particular instance.
    pub fn process_of(&self, inst: InstanceId) -> Option<usize> {
        self.allocations
            .get(inst.pe.0)?
            .processes
            .get(inst.index)
            .copied()
    }

    /// All instances in the plan, in (pe, index) order.
    pub fn instances(&self) -> Vec<InstanceId> {
        self.allocations
            .iter()
            .flat_map(|a| (0..a.instances).map(move |i| InstanceId { pe: a.pe, index: i }))
            .collect()
    }

    /// Total number of instances across all PEs.
    pub fn total_instances(&self) -> usize {
        self.allocations.iter().map(|a| a.instances).sum()
    }

    /// Number of processes actually used (distinct process indices).
    pub fn processes_used(&self) -> usize {
        let mut used: Vec<usize> = self
            .allocations
            .iter()
            .flat_map(|a| a.processes.iter().copied())
            .collect();
        used.sort_unstable();
        used.dedup();
        used.len()
    }

    /// Number of processes left idle by the plan.
    pub fn idle_processes(&self) -> usize {
        self.num_processes.saturating_sub(self.processes_used())
    }
}

/// The minimum process count the static mapping accepts for `graph`:
/// one process per instance, where unpinned PEs need at least one instance.
///
/// The paper notes this constraint explicitly: the seismic workflow's 9 PEs
/// force `multi` to start at 12 processes in their sweep, and the sentiment
/// workflow's pinned instances (4 + 2 + 8 singletons) force a minimum of 14.
pub fn minimum_processes(graph: &WorkflowGraph) -> usize {
    graph.pes().map(|(_, pe)| pe.instances.unwrap_or(1)).sum()
}

/// Builds the native static allocation of `clustering` for `num_processes`
/// processes.
///
/// Rules, mirroring dispel4py's Multiprocessing mapping, with a cluster
/// counted as one PE:
/// 1. A cluster with a member that requests `instances` gets exactly that
///    many, each on its own process.
/// 2. Every other cluster that holds a source gets exactly 1 instance.
/// 3. Remaining processes are divided evenly (floor) among the remaining
///    clusters; any remainder stays idle (Figure 1's two unused cores).
///
/// Processes are assigned cluster by cluster, in `clustering`'s order; every
/// member of a cluster is allocated the cluster's instances and processes.
/// `clustering` must partition the graph's PEs, as
/// [`Clustering::in_dataflow_order`] checks.
pub fn partition(
    graph: &WorkflowGraph,
    clustering: &Clustering,
    num_processes: usize,
) -> Result<PartitionPlan, PartitionError> {
    if graph.pe_count() == 0 {
        return Err(PartitionError::EmptyGraph);
    }
    // Pass 1: decide instance counts. Sources are single-instance unless
    // explicitly pinned: several instances would replay the stream once per
    // instance.
    let counts: Vec<Option<usize>> = clustering
        .clusters
        .iter()
        .map(|members| {
            let specs: Vec<_> = members.iter().filter_map(|&pe| graph.pe(pe)).collect();
            let pinned = specs.iter().filter_map(|spec| spec.instances).max();
            let source = specs.iter().any(|spec| spec.kind() == PeKind::Source);
            pinned.or(source.then_some(1))
        })
        .collect();
    let fixed: usize = counts.iter().flatten().sum();
    let flexible = counts.iter().filter(|count| count.is_none()).count();
    let required = fixed + flexible;
    if num_processes < required {
        return Err(PartitionError::NotEnoughProcesses {
            required,
            available: num_processes,
        });
    }
    let share = match flexible {
        0 => 0,
        n => ((num_processes - fixed) / n).max(1),
    };

    // Pass 2: assign processes cluster by cluster.
    let mut allocations: Vec<InstanceAllocation> = graph
        .pe_ids()
        .map(|pe| InstanceAllocation {
            pe,
            instances: 0,
            processes: Vec::new(),
        })
        .collect();
    let mut next_proc = 0usize;
    for (count, members) in counts.into_iter().zip(&clustering.clusters) {
        let n = count.unwrap_or(share);
        let processes: Vec<usize> = (next_proc..next_proc + n).collect();
        next_proc += n;
        for pe in members {
            allocations[pe.0].instances = n;
            allocations[pe.0].processes = processes.clone();
        }
    }

    Ok(PartitionPlan {
        num_processes,
        allocations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grouping::Grouping;
    use crate::node::PeSpec;

    /// The Figure 1 example: 4 PEs (1 source + 3 others) on 12 cores →
    /// source gets 1, others get ⌊11/3⌋ = 3 each, 2 cores idle.
    fn figure1_graph() -> WorkflowGraph {
        let mut g = WorkflowGraph::new("fig1");
        let s = g.add_pe(PeSpec::source("src", "out"));
        let a = g.add_pe(PeSpec::transform("a", "in", "out"));
        let b = g.add_pe(PeSpec::transform("b", "in", "out"));
        let k = g.add_pe(PeSpec::sink("k", "in"));
        g.connect(s, "out", a, "in", Grouping::Shuffle).unwrap();
        g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
        g.connect(b, "out", k, "in", Grouping::Shuffle).unwrap();
        g
    }

    #[test]
    fn figure1_allocation_matches_paper() {
        let g = figure1_graph();
        let plan = partition(&g, &Clustering::singletons(&g), 12).unwrap();
        assert_eq!(plan.instances_of(PeId(0)), 1, "source gets one process");
        for pe in 1..4 {
            assert_eq!(plan.instances_of(PeId(pe)), 3, "⌊(12-1)/3⌋ = 3");
        }
        assert_eq!(plan.total_instances(), 10);
        assert_eq!(
            plan.idle_processes(),
            2,
            "two cores left idle as in Figure 1"
        );
    }

    #[test]
    fn minimum_is_one_per_pe_without_pins() {
        let g = figure1_graph();
        assert_eq!(minimum_processes(&g), 4);
        assert!(partition(&g, &Clustering::singletons(&g), 3).is_err());
        partition(&g, &Clustering::singletons(&g), 4).unwrap();
    }

    #[test]
    fn pinned_instances_respected() {
        let mut g = WorkflowGraph::new("t");
        let s = g.add_pe(PeSpec::source("s", "out"));
        let grp = g.add_pe(
            PeSpec::transform("grp", "in", "out")
                .stateful()
                .with_instances(4),
        );
        let top = g.add_pe(PeSpec::sink("top", "in").stateful().with_instances(2));
        g.connect(s, "out", grp, "in", Grouping::group_by("k"))
            .unwrap();
        g.connect(grp, "out", top, "in", Grouping::Global).unwrap();
        assert_eq!(minimum_processes(&g), 7);
        let plan = partition(&g, &Clustering::singletons(&g), 8).unwrap();
        assert_eq!(plan.instances_of(grp), 4);
        assert_eq!(plan.instances_of(top), 2);
        assert_eq!(plan.instances_of(s), 1);
    }

    #[test]
    fn a_cluster_counts_as_one_pe() {
        // {src}, {a, b, k} on 4 processes: the source's one, and 3 for the
        // body, each running all three members.
        let g = figure1_graph();
        let ids: Vec<PeId> = g.pe_ids().collect();
        let clustering = Clustering {
            clusters: vec![vec![ids[0]], ids[1..].to_vec()],
        };
        assert!(partition(&g, &clustering, 1).is_err());
        let plan = partition(&g, &clustering, 4).unwrap();
        assert_eq!(plan.instances_of(ids[0]), 1);
        for &pe in &ids[1..] {
            assert_eq!(plan.allocations[pe.0].processes, [1, 2, 3]);
        }
        assert_eq!(plan.idle_processes(), 0);
    }

    #[test]
    fn each_instance_gets_unique_process() {
        let g = figure1_graph();
        let plan = partition(&g, &Clustering::singletons(&g), 12).unwrap();
        let mut procs: Vec<usize> = plan
            .instances()
            .iter()
            .map(|&i| plan.process_of(i).unwrap())
            .collect();
        procs.sort_unstable();
        let before = procs.len();
        procs.dedup();
        assert_eq!(before, procs.len(), "no two instances share a process");
    }

    #[test]
    fn exact_minimum_leaves_nothing_idle() {
        let g = figure1_graph();
        let plan = partition(&g, &Clustering::singletons(&g), 4).unwrap();
        assert_eq!(plan.total_instances(), 4);
        assert_eq!(plan.idle_processes(), 0);
    }

    #[test]
    fn empty_graph_rejected() {
        let g = WorkflowGraph::new("t");
        assert_eq!(
            partition(&g, &Clustering::singletons(&g), 4).unwrap_err(),
            PartitionError::EmptyGraph
        );
    }

    #[test]
    fn instances_listing_is_dense() {
        let g = figure1_graph();
        let plan = partition(&g, &Clustering::singletons(&g), 12).unwrap();
        let insts = plan.instances();
        assert_eq!(insts.len(), plan.total_instances());
        assert_eq!(
            insts[0],
            InstanceId {
                pe: PeId(0),
                index: 0
            }
        );
    }
}
