//! Golden diagnostics: one fixture per rule code, pinning the exact
//! code, severity, and message the analyzer emits. These are the contract
//! for downstream consumers (`repro check --json`, CI gating, waivers) —
//! any wording change must be deliberate and show up here.

use d4py_graph::analyze::{AnalysisContext, Diagnostic, Placement, Severity};
use d4py_graph::{Grouping, PeSpec, PortDecl, WorkflowGraph};

/// Analyzes under the strictest context and returns the findings matching
/// `code`, asserting there is at least one.
fn findings(g: &WorkflowGraph, code: &str) -> Vec<Diagnostic> {
    let diags = g.analyze(&AnalysisContext::full());
    let hits: Vec<Diagnostic> = diags
        .findings
        .iter()
        .filter(|d| d.code == code)
        .cloned()
        .collect();
    assert!(
        !hits.is_empty(),
        "expected {code} to fire; got:\n{}",
        diags.render()
    );
    hits
}

fn linear() -> WorkflowGraph {
    let mut g = WorkflowGraph::new("golden");
    let a = g.add_pe(PeSpec::source("a", "out"));
    let b = g.add_pe(PeSpec::sink("b", "in"));
    g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
    g
}

#[test]
fn d4py001_duplicate_pe_name() {
    let mut g = linear();
    g.add_pe(PeSpec::source("a", "out"));
    let hits = findings(&g, "D4PY001");
    assert_eq!(hits[0].severity, Severity::Error);
    assert_eq!(hits[0].pe.as_deref(), Some("a"));
    assert_eq!(
        hits[0].message,
        "duplicate PE name 'a' (first declared as PE0)"
    );
}

#[test]
fn d4py002_isolated_pe() {
    let mut g = linear();
    g.add_pe(PeSpec::new("island", vec![]));
    let hits = findings(&g, "D4PY002");
    assert_eq!(hits[0].severity, Severity::Error);
    assert_eq!(hits[0].pe.as_deref(), Some("island"));
    assert_eq!(hits[0].message, "PE 'island' declares no ports");
}

#[test]
fn d4py003_no_source() {
    let mut g = WorkflowGraph::new("golden");
    let a = g.add_pe(PeSpec::transform("a", "in", "out"));
    let b = g.add_pe(PeSpec::transform("b", "in", "out"));
    g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
    g.connect(b, "out", a, "in", Grouping::Shuffle).unwrap();
    let hits = findings(&g, "D4PY003");
    assert_eq!(hits[0].severity, Severity::Error);
    assert_eq!(hits[0].pe, None);
    assert_eq!(hits[0].message, "workflow has no source PE");
}

#[test]
fn d4py004_cycle() {
    let mut g = WorkflowGraph::new("golden");
    let s = g.add_pe(PeSpec::source("s", "out"));
    let a = g.add_pe(PeSpec::transform("a", "in", "out").with_port(PortDecl::input("loop")));
    let b = g.add_pe(PeSpec::transform("b", "in", "out"));
    g.connect(s, "out", a, "in", Grouping::Shuffle).unwrap();
    g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
    g.connect(b, "out", a, "loop", Grouping::Shuffle).unwrap();
    let hits = findings(&g, "D4PY004");
    assert_eq!(hits[0].severity, Severity::Error);
    assert_eq!(hits[0].pe, None, "cycles are graph-level");
    assert_eq!(hits[0].message, "workflow contains a cycle through: a, b");
}

#[test]
fn d4py005_unreachable() {
    let mut g = linear();
    g.add_pe(PeSpec::sink("orphan", "in"));
    let hits = findings(&g, "D4PY005");
    assert_eq!(hits[0].severity, Severity::Error);
    assert_eq!(hits[0].pe.as_deref(), Some("orphan"));
    assert_eq!(
        hits[0].message,
        "PE 'orphan' is not reachable from any source"
    );
}

#[test]
fn d4py006_dangling_input() {
    let mut g = WorkflowGraph::new("golden");
    let a = g.add_pe(PeSpec::source("a", "out"));
    let b = g.add_pe(PeSpec::sink("b", "in").with_port(PortDecl::input("extra")));
    g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
    let hits = findings(&g, "D4PY006");
    assert_eq!(hits[0].severity, Severity::Error);
    assert_eq!(hits[0].pe.as_deref(), Some("b"));
    assert_eq!(hits[0].port.as_deref(), Some("extra"));
    assert_eq!(
        hits[0].message,
        "input port 'extra' of PE 'b' has no incoming connection"
    );
}

#[test]
fn d4py007_zero_instances() {
    let mut g = linear();
    g.pe_mut(d4py_graph::PeId(0)).unwrap().instances = Some(0);
    let hits = findings(&g, "D4PY007");
    assert_eq!(hits[0].severity, Severity::Error);
    assert_eq!(hits[0].pe.as_deref(), Some("a"));
    assert_eq!(hits[0].message, "PE 'a' requests zero instances");
}

#[test]
fn d4py008_stale_port_reference() {
    let mut g = linear();
    // connect() validated the ports, but a later mutation renames the
    // source's output — the stored connection now dangles.
    g.pe_mut(d4py_graph::PeId(0)).unwrap().ports[0].name = "renamed".to_string();
    let hits = findings(&g, "D4PY008");
    assert_eq!(hits[0].severity, Severity::Error);
    assert_eq!(hits[0].pe.as_deref(), Some("a"));
    assert_eq!(hits[0].port.as_deref(), Some("out"));
    assert_eq!(
        hits[0].message,
        "connection references missing output port 'out' on PE 'a'"
    );
}

#[test]
fn d4py101_stateful_multi_instance_under_shuffle() {
    let mut g = WorkflowGraph::new("golden");
    let a = g.add_pe(PeSpec::source("a", "out"));
    let b = g.add_pe(PeSpec::sink("b", "in").stateful().with_instances(4));
    g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
    let hits = findings(&g, "D4PY101");
    assert_eq!(hits[0].severity, Severity::Error);
    assert_eq!(hits[0].pe.as_deref(), Some("b"));
    assert_eq!(hits[0].port.as_deref(), Some("in"));
    assert_eq!(
        hits[0].message,
        "stateful PE 'b' runs 4 instances but input port 'in' is shuffle-routed"
    );
    // Keyed routing fixes it.
    let mut g = WorkflowGraph::new("golden");
    let a = g.add_pe(PeSpec::source("a", "out"));
    let b = g.add_pe(PeSpec::sink("b", "in").stateful().with_instances(4));
    g.connect(a, "out", b, "in", Grouping::group_by("key"))
        .unwrap();
    assert!(!g.analyze(&AnalysisContext::full()).has_errors());
}

#[test]
fn d4py102_stateful_fused_behind_unkeyed_entry() {
    // s → t1 → t2(stateful) → k, all shuffle: staging fuses {t1, t2} and
    // the stage entry (s→t1) carries no key.
    let mut g = WorkflowGraph::new("golden");
    let s = g.add_pe(PeSpec::source("s", "out"));
    let t1 = g.add_pe(PeSpec::transform("t1", "in", "out"));
    let t2 = g.add_pe(PeSpec::transform("t2", "in", "out").stateful());
    let k = g.add_pe(PeSpec::sink("k", "in"));
    g.connect(s, "out", t1, "in", Grouping::Shuffle).unwrap();
    g.connect(t1, "out", t2, "in", Grouping::Shuffle).unwrap();
    g.connect(t2, "out", k, "in", Grouping::Shuffle).unwrap();
    let hits = findings(&g, "D4PY102");
    assert_eq!(hits[0].severity, Severity::Error);
    assert_eq!(hits[0].pe.as_deref(), Some("t2"));
    assert_eq!(
        hits[0].message,
        "stateful PE 't2' is fused into a stage whose entry grouping is not keyed"
    );
    // Gated off when the deployment does not fuse.
    let no_fusion = AnalysisContext {
        workers: None,
        placement: Placement::Sequential,
    };
    assert!(!g
        .analyze(&no_fusion)
        .findings
        .iter()
        .any(|d| d.code == "D4PY102"));
}

#[test]
fn d4py103_autoscaling_over_unkeyed_stateful() {
    let mut g = WorkflowGraph::new("golden");
    let a = g.add_pe(PeSpec::source("a", "out"));
    let b = g.add_pe(PeSpec::sink("b", "in").stateful());
    g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
    let hits = findings(&g, "D4PY103");
    assert_eq!(hits[0].severity, Severity::Error);
    assert_eq!(hits[0].pe.as_deref(), Some("b"));
    assert_eq!(
        hits[0].message,
        "autoscaling over stateful PE 'b' without a keyed input grouping"
    );
    // Global routing satisfies the rule, and the gate disables it.
    let mut keyed = WorkflowGraph::new("golden");
    let a = keyed.add_pe(PeSpec::source("a", "out"));
    let b = keyed.add_pe(PeSpec::sink("b", "in").stateful());
    keyed.connect(a, "out", b, "in", Grouping::Global).unwrap();
    assert!(!keyed.analyze(&AnalysisContext::full()).has_errors());
    assert!(!g
        .analyze(&AnalysisContext::preflight(4, false))
        .has_errors());
}

#[test]
fn d4py104_undeclared_group_by_key() {
    let mut g = WorkflowGraph::new("golden");
    let a = g.add_pe(PeSpec::source("a", "out").with_output_fields("out", ["key", "weight"]));
    let b = g.add_pe(PeSpec::sink("b", "in").stateful());
    g.connect(a, "out", b, "in", Grouping::group_by("state"))
        .unwrap();
    let hits = findings(&g, "D4PY104");
    assert_eq!(hits[0].severity, Severity::Error);
    assert_eq!(hits[0].pe.as_deref(), Some("b"));
    assert_eq!(hits[0].port.as_deref(), Some("in"));
    assert_eq!(
        hits[0].message,
        "group-by key 'state' is not declared by upstream port 'a.out'"
    );
    // A declared key passes; an undeclared field list is not checked.
    let mut ok = WorkflowGraph::new("golden");
    let a = ok.add_pe(PeSpec::source("a", "out").with_output_fields("out", ["key"]));
    let b = ok.add_pe(PeSpec::sink("b", "in").stateful());
    ok.connect(a, "out", b, "in", Grouping::group_by("key"))
        .unwrap();
    assert!(!ok.analyze(&AnalysisContext::full()).has_errors());
    let mut unknown = WorkflowGraph::new("golden");
    let a = unknown.add_pe(PeSpec::source("a", "out"));
    let b = unknown.add_pe(PeSpec::sink("b", "in").stateful());
    unknown
        .connect(a, "out", b, "in", Grouping::group_by("anything"))
        .unwrap();
    assert!(!unknown.analyze(&AnalysisContext::full()).has_errors());
}

#[test]
fn d4py201_fan_in_into_stateful_sink() {
    let mut g = WorkflowGraph::new("golden");
    let s = g.add_pe(PeSpec::source("s", "out"));
    let l = g.add_pe(PeSpec::transform("l", "in", "out"));
    let r = g.add_pe(PeSpec::transform("r", "in", "out"));
    let k = g.add_pe(PeSpec::sink("k", "in").stateful());
    g.connect(s, "out", l, "in", Grouping::Shuffle).unwrap();
    g.connect(s, "out", r, "in", Grouping::Shuffle).unwrap();
    g.connect(l, "out", k, "in", Grouping::Global).unwrap();
    g.connect(r, "out", k, "in", Grouping::Global).unwrap();
    let hits = findings(&g, "D4PY201");
    assert_eq!(hits[0].severity, Severity::Warning);
    assert_eq!(hits[0].pe.as_deref(), Some("k"));
    assert_eq!(
        hits[0].message,
        "stateful sink 'k' merges 2 upstream branches; arrival order across branches is nondeterministic"
    );
}

#[test]
fn d4py202_dead_output_port() {
    let mut g = linear();
    g.pe_mut(d4py_graph::PeId(0))
        .unwrap()
        .ports
        .push(PortDecl::output("debug"));
    let hits = findings(&g, "D4PY202");
    assert_eq!(hits[0].severity, Severity::Warning);
    assert_eq!(hits[0].pe.as_deref(), Some("a"));
    assert_eq!(hits[0].port.as_deref(), Some("debug"));
    assert_eq!(
        hits[0].message,
        "output port 'debug' of PE 'a' is never connected"
    );
}

#[test]
fn d4py301_instance_oversubscription() {
    let mut g = WorkflowGraph::new("golden");
    let a = g.add_pe(PeSpec::source("a", "out").with_instances(3));
    let b = g.add_pe(PeSpec::sink("b", "in").with_instances(3));
    g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
    let diags = g.analyze(&AnalysisContext::preflight(4, false));
    let hits: Vec<&Diagnostic> = diags
        .findings
        .iter()
        .filter(|d| d.code == "D4PY301")
        .collect();
    assert_eq!(hits.len(), 1, "{}", diags.render());
    assert_eq!(hits[0].severity, Severity::Info);
    assert_eq!(hits[0].pe, None);
    assert_eq!(
        hits[0].message,
        "explicit instance requests total 6 but only 4 worker(s) are configured"
    );
    // Fits → silent; unknown worker count → rule skipped.
    assert!(g
        .analyze(&AnalysisContext::preflight(8, false))
        .findings
        .is_empty());
    assert!(!g
        .analyze(&AnalysisContext::full())
        .findings
        .iter()
        .any(|d| d.code == "D4PY301"));
}

#[test]
fn three_violations_reported_in_one_pass() {
    // Acceptance criterion: a graph seeded with 3 distinct rule violations
    // yields 3 diagnostics, not 1 (validate() would stop at the first).
    let mut g = WorkflowGraph::new("golden");
    let a = g.add_pe(PeSpec::source("a", "out"));
    // Violation 1 (D4PY101): stateful ×4 under Shuffle.
    let b = g.add_pe(
        PeSpec::transform("b", "in", "out")
            .stateful()
            .with_instances(4),
    );
    // Violation 2 (D4PY006): dangling input port.
    let c = g.add_pe(PeSpec::sink("c", "in").with_port(PortDecl::input("extra")));
    g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
    g.connect(b, "out", c, "in", Grouping::Shuffle).unwrap();
    // Violation 3 (D4PY002): isolated PE.
    g.add_pe(PeSpec::new("island", vec![]));

    assert!(
        g.validate().is_err(),
        "validate sees only the first problem"
    );
    let diags = g.analyze(&AnalysisContext::preflight(8, false));
    let codes: Vec<&str> = diags.errors().map(|d| d.code).collect();
    assert!(codes.contains(&"D4PY101"), "{codes:?}");
    assert!(codes.contains(&"D4PY006"), "{codes:?}");
    assert!(codes.contains(&"D4PY002"), "{codes:?}");
    assert!(codes.len() >= 3);
}

#[test]
fn waiver_is_per_pe_and_counted() {
    let mut g = linear();
    g.pe_mut(d4py_graph::PeId(0))
        .unwrap()
        .ports
        .push(PortDecl::output("debug"));
    let noisy = g.analyze(&AnalysisContext::full());
    assert_eq!(noisy.count(Severity::Warning), 1);

    let mut g = WorkflowGraph::new("golden");
    let a = g.add_pe(
        PeSpec::source("a", "out")
            .with_port(PortDecl::output("debug"))
            .allow("D4PY202"),
    );
    let b = g.add_pe(PeSpec::sink("b", "in"));
    g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
    let waived = g.analyze(&AnalysisContext::full());
    assert!(waived.findings.is_empty(), "{}", waived.render());
    assert_eq!(waived.waived, 1);
}

/// The findings of `code` under `placement` on `workers`, asserting there
/// is at least one and that each is an error with a fix.
fn placed(g: &WorkflowGraph, workers: usize, placement: Placement, code: &str) -> Vec<Diagnostic> {
    let diags = g.analyze(&AnalysisContext::placed(workers, placement));
    let hits: Vec<Diagnostic> = diags
        .findings
        .iter()
        .filter(|d| d.code == code)
        .cloned()
        .collect();
    assert!(
        !hits.is_empty(),
        "expected {code}; got:\n{}",
        diags.render()
    );
    for d in &hits {
        assert_eq!(d.severity, Severity::Error);
        assert!(d.help.is_some(), "{code} says how to fix it");
    }
    hits
}

fn refuses(g: &WorkflowGraph, workers: usize, placement: Placement) -> bool {
    g.analyze(&AnalysisContext::placed(workers, placement))
        .has_errors()
}

/// a → b over `grouping`, b as given.
fn pair(b: PeSpec, grouping: Grouping) -> WorkflowGraph {
    let mut g = WorkflowGraph::new("golden");
    let a = g.add_pe(PeSpec::source("a", "out"));
    let b = g.add_pe(b);
    g.connect(a, "out", b, "in", grouping).unwrap();
    g
}

/// a → b → c, b → c over `into_c`.
fn chain3(c: PeSpec, into_c: Grouping) -> WorkflowGraph {
    let mut g = WorkflowGraph::new("golden");
    let a = g.add_pe(PeSpec::source("a", "out"));
    let b = g.add_pe(PeSpec::transform("b", "in", "out"));
    let c = g.add_pe(c);
    g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
    g.connect(b, "out", c, "in", into_c).unwrap();
    g
}

fn clusters(ids: &[&[usize]]) -> Placement {
    let clusters = ids
        .iter()
        .map(|c| c.iter().map(|&i| d4py_graph::PeId(i)).collect())
        .collect();
    Placement::Static(d4py_graph::optimize::Clustering { clusters })
}

const POOL: Placement = Placement::Pool { autoscaling: false };

#[test]
fn d4py401_pool_over_a_stateful_pe() {
    // A waiver does not lift a placement rule.
    let g = pair(
        PeSpec::sink("b", "in").stateful().allow("D4PY401"),
        Grouping::Shuffle,
    );
    let hits = placed(&g, 2, POOL, "D4PY401");
    assert_eq!(hits[0].pe.as_deref(), Some("b"));
    assert_eq!(
        hits[0].message,
        "PE 'b' is stateful or fed by a group-by/global grouping, which a dynamic pool cannot place"
    );
    // A group-by edge makes a stateless PE effectively stateful.
    let keyed = pair(PeSpec::sink("b", "in"), Grouping::group_by("k"));
    assert_eq!(placed(&keyed, 2, POOL, "D4PY401").len(), 1);
    assert!(!refuses(&g, 2, Placement::Sequential));
    assert!(!refuses(&g, 2, Placement::Hybrid));
}

#[test]
fn d4py402_pool_over_a_broadcast() {
    let g = pair(PeSpec::sink("b", "in"), Grouping::OneToAll);
    let hits = placed(&g, 2, POOL, "D4PY402");
    assert_eq!(hits[0].pe.as_deref(), Some("b"));
    assert_eq!(hits[0].port.as_deref(), Some("in"));
    assert_eq!(
        hits[0].message,
        "connection into 'b' uses one-to-all broadcast, which a dynamic pool cannot route"
    );
    assert!(!refuses(&g, 2, clusters(&[&[0], &[1]])));
}

#[test]
fn d4py411_hybrid_broadcast_into_a_stateless_pe() {
    let g = pair(PeSpec::sink("b", "in"), Grouping::OneToAll);
    let hits = placed(&g, 4, Placement::Hybrid, "D4PY411");
    assert_eq!(hits[0].pe.as_deref(), Some("b"));
    assert_eq!(
        hits[0].message,
        "one-to-all into stateless PE 'b' cannot be routed dynamically"
    );
    let pinned = pair(PeSpec::sink("b", "in").stateful(), Grouping::OneToAll);
    assert!(!refuses(&pinned, 4, Placement::Hybrid));
}

#[test]
fn d4py412_hybrid_workers_below_pins_plus_pool() {
    let b = PeSpec::sink("b", "in").stateful().with_instances(3);
    let g = pair(b, Grouping::group_by("k"));
    let hits = placed(&g, 3, Placement::Hybrid, "D4PY412");
    assert_eq!(hits[0].pe, None);
    assert_eq!(
        hits[0].message,
        "3 stateful instances plus 1 stateless pool require ≥ 4 workers, got 3"
    );
    assert!(!refuses(&g, 4, Placement::Hybrid));
}

#[test]
fn d4py421_static_clusters_not_a_partition_or_cyclic() {
    let hits = placed(&linear(), 4, clusters(&[&[0]]), "D4PY421");
    assert_eq!(
        hits[0].message,
        "the clusters must partition the PEs and form no cycle"
    );
    // a → b → c plus a → c, with {a, c} fused.
    let mut g = chain3(PeSpec::sink("c", "in"), Grouping::Shuffle);
    let (a, c) = (d4py_graph::PeId(0), d4py_graph::PeId(2));
    g.connect(a, "out", c, "in", Grouping::Shuffle).unwrap();
    placed(&g, 4, clusters(&[&[0, 2], &[1]]), "D4PY421");
}

#[test]
fn d4py422_static_pinned_member_of_a_cluster() {
    let g = chain3(PeSpec::sink("c", "in").with_instances(2), Grouping::Shuffle);
    let hits = placed(&g, 8, clusters(&[&[0], &[1, 2]]), "D4PY422");
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].pe.as_deref(), Some("c"));
    assert_eq!(
        hits[0].message,
        "PE 'c' pins an instance count and cannot share a cluster"
    );
    assert!(!refuses(&g, 8, clusters(&[&[0], &[1], &[2]])));
}

#[test]
fn d4py423_static_keyed_edge_inside_a_cluster() {
    for grouping in [
        Grouping::group_by("k"),
        Grouping::Global,
        Grouping::OneToAll,
    ] {
        let g = chain3(PeSpec::sink("c", "in"), grouping);
        let hits = placed(&g, 8, clusters(&[&[0], &[1, 2]]), "D4PY423");
        assert_eq!(hits[0].pe.as_deref(), Some("c"));
        assert_eq!(hits[0].port.as_deref(), Some("in"));
        assert_eq!(
            hits[0].message,
            "PE 'c' takes a keyed or broadcast edge in its cluster"
        );
    }
}

#[test]
fn d4py424_static_outside_input_into_a_source_cluster() {
    let mut g = WorkflowGraph::new("golden");
    let s1 = g.add_pe(PeSpec::source("s1", "out"));
    let s2 = g.add_pe(PeSpec::source("s2", "out"));
    let j = g.add_pe(PeSpec::sink("j", "in"));
    g.connect(s1, "out", j, "in", Grouping::Shuffle).unwrap();
    g.connect(s2, "out", j, "in", Grouping::Shuffle).unwrap();
    let hits = placed(&g, 8, clusters(&[&[0, 2], &[1]]), "D4PY424");
    assert_eq!(hits[0].pe.as_deref(), Some("j"));
    assert_eq!(
        hits[0].message,
        "PE 'j' takes outside input into a cluster with a source"
    );
}

#[test]
fn d4py425_static_workers_below_the_partition() {
    let g = linear();
    let hits = placed(&g, 1, clusters(&[&[0], &[1]]), "D4PY425");
    assert_eq!(hits[0].pe, None);
    assert_eq!(
        hits[0].message,
        "static mapping needs at least 2 processes, got 1"
    );
    assert!(!refuses(&g, 2, clusters(&[&[0], &[1]])));
    // One cluster holding the source needs one worker.
    assert!(!refuses(&g, 1, clusters(&[&[0, 1]])));
}
