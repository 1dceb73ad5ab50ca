//! Property-based tests over random workflow DAGs.
//!
//! Runs on the in-repo seeded harness (`d4py_sync::prop`): every case is
//! deterministic, and a failing case prints the seed to replay it.

use d4py_graph::optimize::Clustering;
use d4py_graph::{partition, Grouping, PeId, PeSpec, WorkflowGraph};
use d4py_sync::prop::{for_all, Gen};

/// Builds a random layered DAG: `n` PEs where PE i may feed PE j only if
/// i < j (guaranteeing acyclicity), every non-source has at least one
/// input edge, and every edge carries a random grouping.
fn gen_dag(g: &mut Gen) -> WorkflowGraph {
    let n = g.usize_in(2..12);
    let mut wg = WorkflowGraph::new("random");
    let pick_grouping = |g: &mut Gen| match g.usize_in(0..4) {
        0 => Grouping::Shuffle,
        1 => Grouping::group_by("k"),
        2 => Grouping::Global,
        _ => Grouping::OneToAll,
    };
    // Node 0 is always a pure source.
    let first = wg.add_pe(PeSpec::source("pe0", "out"));
    let mut ids = vec![first];
    for j in 1..n {
        let spec = if j == n - 1 {
            PeSpec::sink(format!("pe{j}"), "in")
        } else {
            PeSpec::transform(format!("pe{j}"), "in", "out")
        };
        let id = wg.add_pe(spec);
        ids.push(id);
    }
    for j in 1..n {
        // For each PE j ≥ 1, pick a non-empty set of predecessors < j,
        // restricted to PEs that actually have an output port.
        let mut used = Vec::new();
        for _ in 0..g.usize_in(1..3) {
            let candidates: Vec<usize> = (0..j).filter(|&i| i < n - 1).collect();
            if candidates.is_empty() {
                continue;
            }
            let i = *g.pick(&candidates);
            if used.contains(&i) {
                continue;
            }
            used.push(i);
            let grouping = pick_grouping(g);
            wg.connect(ids[i], "out", ids[j], "in", grouping).unwrap();
        }
        if used.is_empty() {
            wg.connect(ids[0], "out", ids[j], "in", Grouping::Shuffle)
                .unwrap();
        }
    }
    wg
}

#[test]
fn random_dags_validate() {
    for_all(|g| {
        let dag = gen_dag(g);
        assert!(dag.validate().is_ok(), "{:?}", dag.validate());
    });
}

#[test]
fn topological_order_respects_every_edge() {
    for_all(|g| {
        let dag = gen_dag(g);
        let order = dag.topological_order().unwrap();
        assert_eq!(order.len(), dag.pe_count());
        let pos = |id: PeId| order.iter().position(|&x| x == id).unwrap();
        for c in dag.connections() {
            assert!(pos(c.from_pe) < pos(c.to_pe));
        }
    });
}

#[test]
fn layers_partition_the_graph() {
    for_all(|g| {
        let dag = gen_dag(g);
        let layers = dag.layers().unwrap();
        let mut all: Vec<PeId> = layers.iter().flatten().copied().collect();
        all.sort();
        let expected: Vec<PeId> = dag.pe_ids().collect();
        assert_eq!(all, expected);
        // Every PE sits strictly below all of its successors' layers.
        for c in dag.connections() {
            let lf = layers.iter().position(|l| l.contains(&c.from_pe)).unwrap();
            let lt = layers.iter().position(|l| l.contains(&c.to_pe)).unwrap();
            assert!(lf < lt);
        }
    });
}

#[test]
fn partition_covers_every_pe_at_minimum_processes() {
    for_all(|g| {
        let dag = gen_dag(g);
        let needed = partition::minimum_processes(&dag);
        let plan = partition::partition(&dag, &Clustering::singletons(&dag), needed).unwrap();
        for pe in dag.pe_ids() {
            assert!(plan.instances_of(pe) >= 1);
        }
        assert_eq!(plan.total_instances(), needed);
        assert_eq!(plan.idle_processes(), 0);
    });
}

#[test]
fn partition_never_oversubscribes() {
    for_all(|g| {
        let dag = gen_dag(g);
        let extra = g.usize_in(0..20);
        let workers = partition::minimum_processes(&dag) + extra;
        let plan = partition::partition(&dag, &Clustering::singletons(&dag), workers).unwrap();
        // No process hosts two instances.
        let mut procs: Vec<usize> = plan
            .instances()
            .iter()
            .map(|&i| plan.process_of(i).unwrap())
            .collect();
        let before = procs.len();
        procs.sort_unstable();
        procs.dedup();
        assert_eq!(before, procs.len());
        assert!(plan.processes_used() <= workers);
    });
}

#[test]
fn staging_clusters_partition_the_pes() {
    for_all(|g| {
        let dag = gen_dag(g);
        let clustering = d4py_graph::optimize::staging(&dag);
        let mut all: Vec<PeId> = clustering.clusters.iter().flatten().copied().collect();
        let before = all.len();
        all.sort();
        all.dedup();
        assert_eq!(before, all.len(), "a PE appeared in two clusters");
        assert_eq!(all.len(), dag.pe_count());
        // Affinity edges are never fused.
        for c in dag.connections() {
            if c.grouping.requires_affinity() {
                assert!(!clustering.fused(c.from_pe, c.to_pe));
            }
        }
    });
}

#[test]
fn dot_export_mentions_every_pe() {
    for_all(|g| {
        let dag = gen_dag(g);
        let dot = dag.to_dot();
        for (_, pe) in dag.pes() {
            assert!(dot.contains(&pe.name));
        }
    });
}

#[test]
fn stateful_and_stateless_partition_cleanly() {
    for_all(|g| {
        let dag = gen_dag(g);
        let stateful = dag.stateful_pes();
        let stateless = dag.stateless_pes();
        assert_eq!(stateful.len() + stateless.len(), dag.pe_count());
        for pe in stateful {
            assert!(dag.is_effectively_stateful(pe));
        }
    });
}
