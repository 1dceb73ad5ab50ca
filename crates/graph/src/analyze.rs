//! Multi-diagnostic static analysis of abstract workflows.
//!
//! This module is the repo's one graph checker. [`WorkflowGraph::analyze`]
//! walks the graph once and gathers *every* finding as a rule-coded
//! [`Diagnostic`], so a workflow with three distinct mistakes reports three
//! diagnostics, not one; [`WorkflowGraph::validate`] is its structural
//! rules, stopped at the first error. Every mapping runs it pre-flight
//! under its own [`Placement`] (aborting on errors, folding warnings into
//! `RunReport::warnings`), so whether mapping M may run graph G on N
//! workers is decided here and nowhere else; `repro check` renders it for
//! every built-in workflow.
//!
//! # Rule catalog
//!
//! Structural rules (the `validate()` set, errors):
//!
//! * `D4PY001` — duplicate PE name
//! * `D4PY002` — PE declares no ports
//! * `D4PY003` — workflow has no source PE
//! * `D4PY004` — directed cycle
//! * `D4PY005` — PE unreachable from any source
//! * `D4PY006` — input port with no incoming connection
//! * `D4PY007` — explicit zero-instance request
//! * `D4PY008` — connection references a port that no longer exists
//!
//! Semantic rules grounded in the paper's stateful/grouping contract:
//!
//! * `D4PY101` (error) — stateful PE with ≥2 instances fed by a shuffle
//!   grouping: state partitions nondeterministically across instances.
//! * `D4PY102` (error) — a declared-stateful PE placed in a multi-PE
//!   cluster whose entry grouping is not keyed: it is called by whichever
//!   instance of the cluster the entry's routing picked, which destroys its
//!   key partitioning. [`Placement::Audit`] checks the [`staging`]
//!   clustering, [`Placement::Static`] the clustering it places.
//! * `D4PY103` (error, [`Placement::Audit`] and an autoscaled
//!   [`Placement::Pool`]) — autoscaling over a declared-stateful PE
//!   without a keyed input grouping: scaling events re-route items across
//!   instances mid-run.
//! * `D4PY104` (error) — a `Grouping::GroupBy` key that the upstream
//!   output port's declared fields do not contain (skipped when the port
//!   declares no fields).
//! * `D4PY201` (warning) — fan-in merge into an order-sensitive stateful
//!   sink: arrival order across branches is nondeterministic.
//! * `D4PY202` (warning) — output port never connected (dead port).
//! * `D4PY301` (info) — explicit instance requests exceed the configured
//!   worker count (oversubscription; instances will time-share workers).
//!
//! Placement rules: the refusals of the [`Placement`] a mapping runs the
//! workflow on, all errors. They are the only reason a mapping refuses a
//! graph, and none can be waived.
//!
//! * `D4PY401` (pool) — a PE that is stateful or fed by a group-by/global
//!   grouping: §2.2's "dynamic scheduling exclusively manages stateless
//!   PEs and lacks support for grouping".
//! * `D4PY402` (pool) — a one-to-all edge, which a shared queue cannot
//!   deliver to every instance.
//! * `D4PY411` (hybrid) — a one-to-all edge into a PE that is not
//!   effectively stateful, so it has no pinned instances to deliver to.
//! * `D4PY412` (hybrid) — fewer workers than the pinned instances plus
//!   one for a non-empty stateless pool.
//! * `D4PY421` (static) — the clusters do not partition the PEs, or they
//!   form a cycle ([`Clustering::in_dataflow_order`] is `None`).
//! * `D4PY422` (static) — a PE that pins its instance count in a
//!   multi-member cluster.
//! * `D4PY423` (static) — a keyed, global or one-to-all edge inside a
//!   cluster, whose hop is a call on the worker that made it.
//! * `D4PY424` (static) — input from outside into a cluster that holds a
//!   source: that cluster's worker waits for credit, so nobody would pop
//!   the input (DESIGN §5, bounded sources).
//! * `D4PY425` (static) — fewer workers than
//!   [`partition`](crate::partition::partition) needs for the clustering,
//!   by the check it makes itself.
//!
//! # Waivers
//!
//! PE-attributed findings can be waived `#[allow]`-style on the spec:
//! `PeSpec::sink("debug", "in").allow("D4PY202")`. Waived findings are
//! counted ([`Diagnostics::waived`]) but not reported. Graph-level
//! findings (`D4PY003`, `D4PY004`, `D4PY301`) and the placement rules
//! cannot be waived.

use crate::graph::WorkflowGraph;
use crate::grouping::Grouping;
use crate::node::{PeId, PeKind};
use crate::optimize::{staging, Clustering};
use crate::port::PortDirection;
use std::collections::HashMap;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The workflow must not run: the stateful/grouping contract or the
    /// graph structure is violated.
    Error,
    /// The workflow may run but a result-affecting hazard exists.
    Warning,
    /// Advisory only (e.g. resource oversubscription).
    Info,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Severity::Error => write!(f, "error"),
            Severity::Warning => write!(f, "warning"),
            Severity::Info => write!(f, "info"),
        }
    }
}

/// One rule finding, attributed as precisely as the rule allows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule code (`D4PY001`…); the contract for waivers, docs, and
    /// machine consumers.
    pub code: &'static str,
    /// Error / warning / info.
    pub severity: Severity,
    /// Name of the PE the finding is attributed to, if any.
    pub pe: Option<String>,
    /// Port on that PE, if the finding is port-precise.
    pub port: Option<String>,
    /// Human-readable statement of the problem.
    pub message: String,
    /// Suggested fix, when the rule has one.
    pub help: Option<String>,
}

/// Everything [`WorkflowGraph::analyze`] found, plus render helpers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostics {
    /// Name of the analyzed workflow.
    pub workflow: String,
    /// All non-waived findings, errors first, then by code.
    pub findings: Vec<Diagnostic>,
    /// Findings suppressed by per-PE waivers.
    pub waived: usize,
}

/// Where a mapping runs each PE instance: the deployment the placement
/// rules check a workflow against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Placement {
    /// No placement chosen: the audit of [`AnalysisContext::full`]. It
    /// reports the hazards of staging (`D4PY102` over [`staging`]) and of
    /// autoscaling (`D4PY103`), and no placement's refusals.
    Audit,
    /// `simple`: one instance of every PE on one thread. No rule of its own.
    Sequential,
    /// The pool of the `dyn_*` mappings: every worker pops the global queue
    /// (`D4PY401`, `D4PY402`; `D4PY103` when it autoscales).
    Pool {
        /// Whether an auto-scaler changes the active pool mid-run.
        autoscaling: bool,
    },
    /// The `hybrid_*` mappings: each instance of an effectively stateful PE
    /// pinned to a worker of its own beside a stateless pool (`D4PY411`,
    /// `D4PY412`).
    Hybrid,
    /// `multi`: each instance of a cluster pinned to a worker of its own
    /// (plain `multi` places [`Clustering::singletons`]): `D4PY102` over
    /// the clustering and `D4PY421`–`D4PY425`.
    Static(Clustering),
}

/// What the analyzer may assume about the deployment. Rules that depend on
/// the enactment configuration are gated here so engine pre-flight checks
/// only what that engine will actually do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisContext {
    /// Configured worker count, when known (`None` skips `D4PY301` and the
    /// worker-count rules `D4PY412` and `D4PY425`).
    pub workers: Option<usize>,
    /// The placement whose rules apply.
    pub placement: Placement,
}

impl AnalysisContext {
    /// Context for a pre-flight check at `workers` that places nothing of
    /// its own: the placement-independent rules ([`Placement::Sequential`]),
    /// or, with `autoscaling`, those of the one placement that autoscales,
    /// the autoscaled [`Placement::Pool`].
    pub fn preflight(workers: usize, autoscaling: bool) -> Self {
        let placement = if autoscaling {
            Placement::Pool { autoscaling }
        } else {
            Placement::Sequential
        };
        Self::placed(workers, placement)
    }

    /// The context of a mapping's pre-flight: `placement` on `workers`.
    pub fn placed(workers: usize, placement: Placement) -> Self {
        Self {
            workers: Some(workers),
            placement,
        }
    }

    /// The strictest audit: the staging and autoscaling rules enabled
    /// ([`Placement::Audit`]), worker count unknown. This is what
    /// `repro check` runs.
    pub fn full() -> Self {
        Self {
            workers: None,
            placement: Placement::Audit,
        }
    }
}

impl Diagnostics {
    /// True if any finding is error-severity.
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// Number of findings at `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.findings
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// The error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.findings
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Renders all findings rustc-style, one block per finding, with a
    /// trailing per-severity summary line.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for d in &self.findings {
            let _ = writeln!(out, "{}[{}]: {}", d.severity, d.code, d.message);
            let mut site = format!("workflow '{}'", self.workflow);
            if let Some(pe) = &d.pe {
                let _ = write!(site, ", PE '{pe}'");
            }
            if let Some(port) = &d.port {
                let _ = write!(site, ", port '{port}'");
            }
            let _ = writeln!(out, "  --> {site}");
            if let Some(help) = &d.help {
                let _ = writeln!(out, "  = help: {help}");
            }
        }
        let _ = writeln!(
            out,
            "workflow '{}': {} error(s), {} warning(s), {} info ({} waived)",
            self.workflow,
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info),
            self.waived
        );
        out
    }

    /// Machine-readable JSON object (hand-rolled; the workspace is
    /// serde-free by design).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workflow\":{},\"errors\":{},\"warnings\":{},\"info\":{},\"waived\":{},\"findings\":[",
            json_str(&self.workflow),
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info),
            self.waived
        );
        for (i, d) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"code\":{},\"severity\":{},\"pe\":{},\"port\":{},\"message\":{},\"help\":{}}}",
                json_str(d.code),
                json_str(&d.severity.to_string()),
                json_opt(d.pe.as_deref()),
                json_opt(d.port.as_deref()),
                json_str(&d.message),
                json_opt(d.help.as_deref()),
            );
        }
        out.push_str("]}");
        out
    }
}

/// JSON string literal with escaping for the characters that matter.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_opt(s: Option<&str>) -> String {
    match s {
        Some(s) => json_str(s),
        None => "null".to_string(),
    }
}

/// Accumulator that applies per-PE waivers at emission time.
struct Sink<'g> {
    graph: &'g WorkflowGraph,
    findings: Vec<Diagnostic>,
    waived: usize,
    /// `validate()` reports structural errors whether or not they are waived.
    honour_waivers: bool,
}

/// The fix each placement rule suggests.
const PLACEMENT_FIXES: [(&str, &str); 9] = [
    ("D4PY401", "run the workflow under a hybrid mapping, which pins the PE's instances, or under multi"),
    ("D4PY402", "mark the PE stateful and run a hybrid mapping, or run multi"),
    ("D4PY411", "mark the PE stateful to pin its instances"),
    ("D4PY412", "run with more workers, or pin fewer instances"),
    ("D4PY421", "list every PE in exactly one cluster, and fuse no two PEs that a path through another cluster joins"),
    ("D4PY422", "give the PE a cluster of its own, or drop its instance request"),
    ("D4PY423", "end the cluster before the PE, so the edge is routed between clusters"),
    ("D4PY424", "keep the source's cluster free of outside input: its worker waits for credit, so nobody would pop that input"),
    ("D4PY425", "run with more workers, or fuse more PEs into one cluster"),
];

impl Sink<'_> {
    fn emit(
        &mut self,
        code: &'static str,
        severity: Severity,
        pe: Option<PeId>,
        port: Option<&str>,
        message: String,
        help: Option<&str>,
    ) {
        let spec = pe.and_then(|id| self.graph.pe(id));
        // A placement rule says the mapping cannot run the graph at all: no
        // waiver lifts it.
        let waivable = !code.starts_with("D4PY4");
        if let Some(spec) = spec {
            if self.honour_waivers && waivable && spec.waives(code) {
                self.waived += 1;
                return;
            }
        }
        self.findings.push(Diagnostic {
            code,
            severity,
            pe: spec.map(|s| s.name.clone()),
            port: port.map(str::to_string),
            message,
            help: help.map(str::to_string),
        });
    }

    /// A placement rule's finding, an error with the rule's fix.
    fn refuse(
        &mut self,
        code: &'static str,
        pe: Option<PeId>,
        port: Option<&str>,
        message: String,
    ) {
        let fix = PLACEMENT_FIXES.iter().find(|(rule, _)| *rule == code);
        let help = fix.map(|(_, fix)| *fix);
        self.emit(code, Severity::Error, pe, port, message, help);
    }
}

impl WorkflowGraph {
    /// Runs every diagnostic rule and returns all findings.
    ///
    /// Unlike [`WorkflowGraph::validate`] this never stops early; a graph
    /// seeded with three distinct violations yields three diagnostics in
    /// one pass. See the module docs for the rule catalog.
    pub fn analyze(&self, ctx: &AnalysisContext) -> Diagnostics {
        let mut sink = Sink {
            graph: self,
            findings: Vec::new(),
            waived: 0,
            honour_waivers: true,
        };

        self.rule_duplicate_names(&mut sink);
        self.rule_shapes(&mut sink);
        self.rule_cycle(&mut sink);
        self.rule_reachability(&mut sink);
        self.rule_dangling_inputs(&mut sink);
        self.rule_stale_port_refs(&mut sink);
        self.rule_stateful_shuffle(&mut sink);
        match &ctx.placement {
            Placement::Audit => {
                self.rule_fusion_legality(&staging(self), &mut sink);
                self.rule_autoscale_stateful(&mut sink);
            }
            Placement::Sequential => {}
            Placement::Pool { autoscaling } => {
                self.rule_pool(&mut sink);
                if *autoscaling {
                    self.rule_autoscale_stateful(&mut sink);
                }
            }
            Placement::Hybrid => self.rule_hybrid(ctx.workers, &mut sink),
            Placement::Static(clustering) => self.rule_static(clustering, ctx.workers, &mut sink),
        }
        self.rule_group_by_fields(&mut sink);
        self.rule_fan_in_stateful_sink(&mut sink);
        self.rule_dead_outputs(&mut sink);
        if let Some(workers) = ctx.workers {
            self.rule_oversubscription(&mut sink, workers);
        }

        let mut findings = sink.findings;
        findings.sort_by(|a, b| {
            (a.severity, a.code, &a.pe, &a.port).cmp(&(b.severity, b.code, &b.pe, &b.port))
        });
        Diagnostics {
            workflow: self.name().to_string(),
            findings,
            waived: sink.waived,
        }
    }

    /// The finding behind [`WorkflowGraph::validate`]: the first one the
    /// structural rules make, run in `validate()`'s documented order
    /// (names → shapes → cycle → reachability → dangling inputs), waivers
    /// ignored.
    pub(crate) fn first_structural_error(&self) -> Option<Diagnostic> {
        let mut sink = Sink {
            graph: self,
            findings: Vec::new(),
            waived: 0,
            honour_waivers: false,
        };
        let rules: [fn(&Self, &mut Sink); 5] = [
            Self::rule_duplicate_names,
            Self::rule_shapes,
            Self::rule_cycle,
            Self::rule_reachability,
            Self::rule_dangling_inputs,
        ];
        for rule in rules {
            rule(self, &mut sink);
            if !sink.findings.is_empty() {
                return Some(sink.findings.swap_remove(0));
            }
        }
        None
    }

    /// D4PY001: duplicate PE names (one finding per extra occurrence, so
    /// each offending PE can waive or fix independently).
    fn rule_duplicate_names(&self, sink: &mut Sink) {
        let mut seen: HashMap<&str, PeId> = HashMap::new();
        for (id, pe) in self.pes() {
            if let Some(&first) = seen.get(pe.name.as_str()) {
                sink.emit(
                    "D4PY001",
                    Severity::Error,
                    Some(id),
                    None,
                    format!(
                        "duplicate PE name '{}' (first declared as {first})",
                        pe.name
                    ),
                    Some("rename so every PE is uniquely addressable"),
                );
            } else {
                seen.insert(pe.name.as_str(), id);
            }
        }
    }

    /// D4PY002 (no ports), D4PY007 (zero instances), D4PY003 (no source).
    fn rule_shapes(&self, sink: &mut Sink) {
        for (id, pe) in self.pes() {
            if pe.kind() == PeKind::Isolated {
                sink.emit(
                    "D4PY002",
                    Severity::Error,
                    Some(id),
                    None,
                    format!("PE '{}' declares no ports", pe.name),
                    Some("declare at least one input or output port"),
                );
            }
            if pe.instances == Some(0) {
                sink.emit(
                    "D4PY007",
                    Severity::Error,
                    Some(id),
                    None,
                    format!("PE '{}' requests zero instances", pe.name),
                    Some("request at least one instance, or None to let the partitioner decide"),
                );
            }
        }
        if self.pe_count() > 0 && self.sources().is_empty() {
            sink.emit(
                "D4PY003",
                Severity::Error,
                None,
                None,
                "workflow has no source PE".to_string(),
                Some("at least one PE must have no incoming connections"),
            );
        }
    }

    /// D4PY004: the PEs Kahn's pass leaves over are on (or behind) a cycle.
    /// One graph-level finding naming every involved PE — a cycle is a
    /// property of the edge set, not of any single node, so it cannot be
    /// waived per-PE.
    fn rule_cycle(&self, sink: &mut Sink) {
        let (_, stuck) = self.kahn();
        if !stuck.is_empty() {
            let names: Vec<&str> = stuck
                .iter()
                .filter_map(|&id| self.pe(id))
                .map(|pe| pe.name.as_str())
                .collect();
            sink.emit(
                "D4PY004",
                Severity::Error,
                None,
                None,
                format!("workflow contains a cycle through: {}", names.join(", ")),
                Some("remove the back-edge; workflows must be acyclic"),
            );
        }
    }

    /// D4PY005: every PE must be reachable from a true stream producer.
    fn rule_reachability(&self, sink: &mut Sink) {
        let mut reachable = vec![false; self.pe_count()];
        let mut stack: Vec<PeId> = self
            .pes()
            .filter(|(_, pe)| pe.kind() == PeKind::Source)
            .map(|(id, _)| id)
            .collect();
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut reachable[id.0], true) {
                continue;
            }
            stack.extend(self.successors(id));
        }
        for (id, pe) in self.pes() {
            // Port-less PEs already report D4PY002; repeating "unreachable"
            // for them is noise.
            if !reachable[id.0] && pe.kind() != PeKind::Isolated {
                sink.emit(
                    "D4PY005",
                    Severity::Error,
                    Some(id),
                    None,
                    format!("PE '{}' is not reachable from any source", pe.name),
                    Some("connect it downstream of a source, or remove it"),
                );
            }
        }
    }

    /// D4PY006: an input port with nothing feeding it never fires.
    fn rule_dangling_inputs(&self, sink: &mut Sink) {
        for (id, pe) in self.pes() {
            for port in pe.inputs() {
                let fed = self.incoming(id).any(|(_, c)| c.to_port == port.name);
                if !fed {
                    sink.emit(
                        "D4PY006",
                        Severity::Error,
                        Some(id),
                        Some(&port.name),
                        format!(
                            "input port '{}' of PE '{}' has no incoming connection",
                            port.name, pe.name
                        ),
                        Some("connect a producer, or remove the port"),
                    );
                }
            }
        }
    }

    /// D4PY008: `connect()` validates ports at insertion time, but
    /// `pe_mut` can rename or drop ports afterwards — re-check every
    /// connection endpoint against the current declarations.
    fn rule_stale_port_refs(&self, sink: &mut Sink) {
        for c in self.connections() {
            if let Some(from) = self.pe(c.from_pe) {
                if from.port(&c.from_port, PortDirection::Output).is_none() {
                    sink.emit(
                        "D4PY008",
                        Severity::Error,
                        Some(c.from_pe),
                        Some(&c.from_port),
                        format!(
                            "connection references missing output port '{}' on PE '{}'",
                            c.from_port, from.name
                        ),
                        Some("the port was removed or renamed after the connection was made"),
                    );
                }
            }
            if let Some(to) = self.pe(c.to_pe) {
                if to.port(&c.to_port, PortDirection::Input).is_none() {
                    sink.emit(
                        "D4PY008",
                        Severity::Error,
                        Some(c.to_pe),
                        Some(&c.to_port),
                        format!(
                            "connection references missing input port '{}' on PE '{}'",
                            c.to_port, to.name
                        ),
                        Some("the port was removed or renamed after the connection was made"),
                    );
                }
            }
        }
    }

    /// D4PY101: the paper's core contract — a stateful PE with parallel
    /// instances needs keyed routing, or its state partitions by whatever
    /// instance happened to receive each item.
    fn rule_stateful_shuffle(&self, sink: &mut Sink) {
        for (id, pe) in self.pes() {
            let instances = pe.instances.unwrap_or(1);
            if !pe.stateful || instances < 2 {
                continue;
            }
            for (_, c) in self.incoming(id) {
                if c.grouping == Grouping::Shuffle {
                    sink.emit(
                        "D4PY101",
                        Severity::Error,
                        Some(id),
                        Some(&c.to_port),
                        format!(
                            "stateful PE '{}' runs {} instances but input port '{}' \
                             is shuffle-routed",
                            pe.name, instances, c.to_port
                        ),
                        Some(
                            "use a group-by or global grouping so state partitioning \
                             is deterministic",
                        ),
                    );
                }
            }
        }
    }

    /// D4PY102: a declared-stateful PE downstream inside a multi-PE
    /// cluster inherits the routing of the cluster's entry. If no entry
    /// grouping is keyed, the clustering has silently destroyed the PE's
    /// key partitioning.
    fn rule_fusion_legality(&self, clustering: &Clustering, sink: &mut Sink) {
        for cluster in &clustering.clusters {
            if cluster.len() < 2 {
                continue;
            }
            let keyed_entry = self.connections().iter().any(|c| {
                !cluster.contains(&c.from_pe)
                    && cluster.contains(&c.to_pe)
                    && c.grouping.requires_affinity()
            });
            if keyed_entry {
                continue;
            }
            // cluster[0] is the cluster's head (members are in topological
            // order); its own incoming edge is unchanged by the clustering,
            // so only downstream members report.
            for &member in &cluster[1..] {
                let Some(pe) = self.pe(member) else { continue };
                if pe.stateful {
                    sink.emit(
                        "D4PY102",
                        Severity::Error,
                        Some(member),
                        None,
                        format!(
                            "stateful PE '{}' is fused into a stage whose entry \
                             grouping is not keyed",
                            pe.name
                        ),
                        Some(
                            "keep the stateful PE as its own stage or feed the fused \
                             stage through a keyed grouping",
                        ),
                    );
                }
            }
        }
    }

    /// D4PY103: autoscaling re-routes queued items when instances come and
    /// go; a stateful PE survives that only under keyed routing.
    fn rule_autoscale_stateful(&self, sink: &mut Sink) {
        for (id, pe) in self.pes() {
            if !pe.stateful {
                continue;
            }
            let keyed = self
                .incoming(id)
                .any(|(_, c)| c.grouping.requires_affinity());
            if !keyed {
                sink.emit(
                    "D4PY103",
                    Severity::Error,
                    Some(id),
                    None,
                    format!(
                        "autoscaling over stateful PE '{}' without a keyed input grouping",
                        pe.name
                    ),
                    Some(
                        "route its input with group_by(...)/global, or disable \
                         autoscaling for this workflow",
                    ),
                );
            }
        }
    }

    /// D4PY401, D4PY402: a pool worker runs whichever task it pops, so a
    /// PE whose instances must keep their state or their keys, or one that
    /// must see every item of a broadcast, has no instance to run on.
    fn rule_pool(&self, sink: &mut Sink) {
        for pe in self.stateful_pes() {
            let name = self.name_of(pe);
            let message = format!(
                "PE '{name}' is stateful or fed by a group-by/global grouping, which a dynamic pool cannot place"
            );
            sink.refuse("D4PY401", Some(pe), None, message);
        }
        let broadcasts = self
            .connections()
            .iter()
            .filter(|c| c.grouping.is_broadcast());
        for c in broadcasts {
            let name = self.name_of(c.to_pe);
            let message = format!(
                "connection into '{name}' uses one-to-all broadcast, which a dynamic pool cannot route"
            );
            sink.refuse("D4PY402", Some(c.to_pe), Some(&c.to_port), message);
        }
    }

    /// D4PY411, D4PY412: the hybrid placement pins every instance of an
    /// effectively stateful PE to a worker of its own, and the rest of the
    /// workers pop the global queue.
    fn rule_hybrid(&self, workers: Option<usize>, sink: &mut Sink) {
        for c in self.connections() {
            if c.grouping.is_broadcast() && !self.is_effectively_stateful(c.to_pe) {
                let name = self.name_of(c.to_pe);
                let message =
                    format!("one-to-all into stateless PE '{name}' cannot be routed dynamically");
                sink.refuse("D4PY411", Some(c.to_pe), Some(&c.to_port), message);
            }
        }
        let Some(workers) = workers else { return };
        let stateful = self.stateful_pes();
        let instances = |pe: &PeId| self.pe(*pe).and_then(|s| s.instances).unwrap_or(1);
        let pinned: usize = stateful.iter().map(instances).sum();
        let pool = usize::from(self.pe_count() > stateful.len());
        let need = pinned + pool;
        if workers < need {
            let message = format!(
                "{pinned} stateful instances plus {pool} stateless pool require ≥ {need} workers, got {workers}"
            );
            sink.refuse("D4PY412", None, None, message);
        }
    }

    /// D4PY421–D4PY425 and D4PY102 over `clustering`: each instance of a
    /// cluster is one worker, which calls the hops inside the cluster
    /// itself.
    fn rule_static(&self, clustering: &Clustering, workers: Option<usize>, sink: &mut Sink) {
        let Some(clustering) = clustering.in_dataflow_order(self) else {
            let message = "the clusters must partition the PEs and form no cycle".to_string();
            return sink.refuse("D4PY421", None, None, message);
        };
        let cluster = |pe| &clustering.clusters[clustering.cluster_of(pe).expect("a partition")];
        let is_source = |pe: &PeId| self.pe(*pe).is_some_and(|s| s.kind() == PeKind::Source);
        let pins = |pe| cluster(pe).len() > 1 && self.pe(pe).is_some_and(|s| s.instances.is_some());
        let mut reported = vec![false; self.pe_count()];
        for c in self.connections() {
            for pe in [c.from_pe, c.to_pe] {
                if pins(pe) && !std::mem::replace(&mut reported[pe.0], true) {
                    let name = self.name_of(pe);
                    let message =
                        format!("PE '{name}' pins an instance count and cannot share a cluster");
                    sink.refuse("D4PY422", Some(pe), None, message);
                }
            }
            let (from, to) = (cluster(c.from_pe), cluster(c.to_pe));
            let name = self.name_of(c.to_pe);
            let at = (Some(c.to_pe), Some(c.to_port.as_str()));
            if from == to && (c.grouping.requires_affinity() || c.grouping.is_broadcast()) {
                let message = format!("PE '{name}' takes a keyed or broadcast edge in its cluster");
                sink.refuse("D4PY423", at.0, at.1, message);
            } else if from != to && to.iter().any(is_source) {
                let message =
                    format!("PE '{name}' takes outside input into a cluster with a source");
                sink.refuse("D4PY424", at.0, at.1, message);
            }
        }
        self.rule_fusion_legality(&clustering, sink);
        let Some(workers) = workers else { return };
        if let Err(e) = crate::partition::instance_counts(self, &clustering, workers) {
            sink.refuse("D4PY425", None, None, e.to_string());
        }
    }

    fn name_of(&self, pe: PeId) -> &str {
        self.pe(pe).map_or("?", |spec| spec.name.as_str())
    }

    /// D4PY104: a group-by key the producing port does not declare routes
    /// every item by a missing field (one bucket). Only checked when the
    /// producer declares fields — an empty declaration means "unknown".
    fn rule_group_by_fields(&self, sink: &mut Sink) {
        for c in self.connections() {
            let Grouping::GroupBy(keys) = &c.grouping else {
                continue;
            };
            let Some(from) = self.pe(c.from_pe) else {
                continue;
            };
            let Some(port) = from.port(&c.from_port, PortDirection::Output) else {
                continue;
            };
            if port.fields.is_empty() {
                continue;
            }
            for key in keys {
                if !port.fields.contains(key) {
                    sink.emit(
                        "D4PY104",
                        Severity::Error,
                        Some(c.to_pe),
                        Some(&c.to_port),
                        format!(
                            "group-by key '{}' is not declared by upstream port '{}.{}'",
                            key, from.name, c.from_port
                        ),
                        Some(
                            "declare the field with with_output_fields(...) on the \
                             producer, or fix the grouping key",
                        ),
                    );
                }
            }
        }
    }

    /// D4PY201: branches merging into an order-sensitive stateful sink
    /// arrive in nondeterministic relative order.
    fn rule_fan_in_stateful_sink(&self, sink: &mut Sink) {
        for (id, pe) in self.pes() {
            if self.outgoing(id).next().is_some() {
                continue; // not a graph sink
            }
            let order_sensitive = pe.stateful
                || self
                    .incoming(id)
                    .any(|(_, c)| c.grouping == Grouping::Global);
            let preds = self.predecessors(id);
            if order_sensitive && preds.len() >= 2 {
                sink.emit(
                    "D4PY201",
                    Severity::Warning,
                    Some(id),
                    None,
                    format!(
                        "stateful sink '{}' merges {} upstream branches; arrival \
                         order across branches is nondeterministic",
                        pe.name,
                        preds.len()
                    ),
                    Some("make the sink order-insensitive or merge through a keyed aggregator"),
                );
            }
        }
    }

    /// D4PY202: a declared output port nothing consumes — usually a
    /// renamed connection or a forgotten branch.
    fn rule_dead_outputs(&self, sink: &mut Sink) {
        for (id, pe) in self.pes() {
            for port in pe.outputs() {
                if self.outgoing_from_port(id, &port.name).next().is_none() {
                    sink.emit(
                        "D4PY202",
                        Severity::Warning,
                        Some(id),
                        Some(&port.name),
                        format!(
                            "output port '{}' of PE '{}' is never connected",
                            port.name, pe.name
                        ),
                        Some("connect a consumer, or remove the port"),
                    );
                }
            }
        }
    }

    /// D4PY301: more explicitly requested instances than workers is legal
    /// (instances time-share), but worth knowing when sizing a run.
    fn rule_oversubscription(&self, sink: &mut Sink, workers: usize) {
        let requested: usize = self.pes().filter_map(|(_, pe)| pe.instances).sum();
        if workers > 0 && requested > workers {
            sink.emit(
                "D4PY301",
                Severity::Info,
                None,
                None,
                format!(
                    "explicit instance requests total {requested} but only \
                     {workers} worker(s) are configured"
                ),
                Some("instances beyond the worker count time-share workers"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::PeSpec;

    fn linear() -> WorkflowGraph {
        let mut g = WorkflowGraph::new("t");
        let a = g.add_pe(PeSpec::source("a", "out"));
        let b = g.add_pe(PeSpec::sink("b", "in"));
        g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
        g
    }

    #[test]
    fn clean_graph_has_no_findings() {
        let d = linear().analyze(&AnalysisContext::full());
        assert!(d.findings.is_empty(), "{}", d.render());
        assert!(!d.has_errors());
        assert_eq!(d.waived, 0);
    }

    #[test]
    fn render_contains_code_and_site() {
        let mut g = linear();
        g.add_pe(PeSpec::new("island", vec![]));
        let d = g.analyze(&AnalysisContext::full());
        let text = d.render();
        assert!(text.contains("error[D4PY002]"), "{text}");
        assert!(text.contains("PE 'island'"), "{text}");
        assert!(text.contains("1 error(s)"), "{text}");
    }

    #[test]
    fn json_escapes_and_counts() {
        let mut g = WorkflowGraph::new("q\"uote");
        g.add_pe(PeSpec::new("island", vec![]));
        let d = g.analyze(&AnalysisContext::full());
        let json = d.to_json();
        assert!(json.contains("\"workflow\":\"q\\\"uote\""), "{json}");
        assert!(json.contains("\"code\":\"D4PY002\""), "{json}");
        assert!(json.contains("\"severity\":\"error\""), "{json}");
    }

    #[test]
    fn waiver_suppresses_and_counts() {
        let mut g = WorkflowGraph::new("t");
        let a = g.add_pe(PeSpec::source("a", "out").allow("D4PY202"));
        let b = g.add_pe(PeSpec::sink("b", "in").with_port(crate::port::PortDecl::output("debug")));
        g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
        // a.out is connected; b.debug is dead but... b doesn't waive it.
        let d = g.analyze(&AnalysisContext::full());
        assert_eq!(d.count(Severity::Warning), 1, "{}", d.render());
        // Waive on the offending PE instead.
        let mut g = WorkflowGraph::new("t");
        let a = g.add_pe(PeSpec::source("a", "out"));
        let b = g.add_pe(
            PeSpec::sink("b", "in")
                .with_port(crate::port::PortDecl::output("debug"))
                .allow("D4PY202"),
        );
        g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
        let d = g.analyze(&AnalysisContext::full());
        assert!(d.findings.is_empty(), "{}", d.render());
        assert_eq!(d.waived, 1);
    }

    #[test]
    fn context_gates_fusion_and_autoscaling_rules() {
        // source → t1 → stateful t2 → sink, all shuffle: staging fuses
        // {t1, t2} with an unkeyed entry (D4PY102), and autoscaling over
        // stateful t2 without keyed input is D4PY103.
        let mut g = WorkflowGraph::new("t");
        let s = g.add_pe(PeSpec::source("s", "out"));
        let t1 = g.add_pe(PeSpec::transform("t1", "in", "out"));
        let t2 = g.add_pe(PeSpec::transform("t2", "in", "out").stateful());
        let k = g.add_pe(PeSpec::sink("k", "in"));
        g.connect(s, "out", t1, "in", Grouping::Shuffle).unwrap();
        g.connect(t1, "out", t2, "in", Grouping::Shuffle).unwrap();
        g.connect(t2, "out", k, "in", Grouping::Shuffle).unwrap();

        let full = g.analyze(&AnalysisContext::full());
        let codes: Vec<&str> = full.findings.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"D4PY102"), "{codes:?}");
        assert!(codes.contains(&"D4PY103"), "{codes:?}");

        let pre = g.analyze(&AnalysisContext::preflight(4, false));
        assert!(pre.findings.is_empty(), "{}", pre.render());

        // The same rule over a placed clustering: {t2, k} has the unkeyed
        // entry t1 → t2 but t2 heads it; {t1, t2} puts t2 behind it.
        let check = |clusters: Vec<Vec<PeId>>| {
            let placement = Placement::Static(Clustering { clusters });
            g.analyze(&AnalysisContext::placed(4, placement)).findings
        };
        assert!(check(vec![vec![s], vec![t1], vec![t2, k]]).is_empty());
        let found = check(vec![vec![s], vec![t1, t2], vec![k]]);
        let found: Vec<_> = found.iter().map(|d| (d.code, d.pe.as_deref())).collect();
        assert_eq!(found, [("D4PY102", Some("t2"))]);
    }
}
