//! Grouping-aware routing of emitted items to PE instances.
//!
//! When a producer emits on an output port, every connection from that port
//! must deliver the item to one (or all) instances of the consumer PE. The
//! [`Router`] implements dispel4py's grouping semantics:
//!
//! * `Shuffle` — round-robin over instances (per-router counter per
//!   connection, so a single producer balances evenly);
//! * `GroupBy(fields)` — stable hash of the extracted key, modulo instances;
//! * `Global` — always instance 0;
//! * `OneToAll` — every instance.
//!
//! Which connections an emission travels is read from a [`RouteTable`],
//! compiled once per run from the graph by every mapping.

use crate::value::Value;
use d4py_graph::{Connection, ConnectionId, Grouping, PeId, WorkflowGraph};

/// The delivery target(s) for one item on one connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Route {
    /// Deliver to a single instance.
    One(usize),
    /// Broadcast to all instances.
    All,
}

/// Stateful router: owns the round-robin counters for shuffle connections.
///
/// Each producer-side entity (a worker or a static instance) owns its own
/// `Router`; counters are per connection, indexed by its id and grown on
/// first use.
#[derive(Debug, Default)]
pub struct Router {
    rr: Vec<usize>,
}

impl Router {
    /// Creates a router with fresh round-robin state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Picks the target instance(s) for `value` on connection `conn` with
    /// `grouping`, among `instances` consumer instances.
    ///
    /// `instances` must be ≥ 1.
    pub fn route(
        &mut self,
        conn: ConnectionId,
        grouping: &Grouping,
        value: &Value,
        instances: usize,
    ) -> Route {
        debug_assert!(instances >= 1, "consumer must have at least one instance");
        match grouping {
            Grouping::Shuffle => {
                if self.rr.len() <= conn.0 {
                    self.rr.resize(conn.0 + 1, 0);
                }
                let counter = &mut self.rr[conn.0];
                let target = *counter % instances;
                *counter = counter.wrapping_add(1);
                Route::One(target)
            }
            Grouping::GroupBy(fields) => {
                let key = value.group_key(fields);
                Route::One((key.routing_hash() % instances as u64) as usize)
            }
            Grouping::Global => Route::One(0),
            Grouping::OneToAll => Route::All,
        }
    }
}

/// The value for one more edge: a copy, or the original on the last one.
pub(crate) fn hand_over(value: &mut Option<Value>, last: bool) -> Value {
    match last {
        true => value.take(),
        false => value.clone(),
    }
    .expect("moved only on the last edge")
}

/// One connection as a mapping routes over it.
#[derive(Debug)]
pub(crate) struct Edge {
    pub id: ConnectionId,
    pub to_pe: PeId,
    pub to_port: String,
    pub grouping: Grouping,
    /// The dynamic-family engine calls the target in the emitting call's
    /// worker, without a queue trip (DESIGN.md §5, "staged hops").
    pub inline: bool,
}

/// Every PE's outgoing connections, per output port: what an emission
/// travels, looked up by `(PE, port)` instead of a scan of the graph's
/// connections per emission. A port is found by name once, as its index in
/// the PE's row ([`port_of`](Self::port_of)); the edges are then read by
/// that index ([`edges_at`](Self::edges_at)).
#[derive(Debug)]
pub(crate) struct RouteTable {
    /// Per PE: its connected output ports, each with its edges in
    /// connection order.
    ports: Vec<Vec<(String, Vec<Edge>)>>,
}

impl RouteTable {
    /// The table of `graph`, no edge inline.
    pub(crate) fn new(graph: &WorkflowGraph) -> Self {
        Self::with_inline(graph, |_| false)
    }

    /// The table of `graph`, with the connections `inline` selects marked.
    pub(crate) fn with_inline(graph: &WorkflowGraph, inline: impl Fn(&Connection) -> bool) -> Self {
        let mut ports: Vec<Vec<(String, Vec<Edge>)>> = graph.pe_ids().map(|_| Vec::new()).collect();
        for (i, c) in graph.connections().iter().enumerate() {
            let edge = Edge {
                id: ConnectionId(i),
                to_pe: c.to_pe,
                to_port: c.to_port.clone(),
                grouping: c.grouping.clone(),
                inline: inline(c),
            };
            let from = &mut ports[c.from_pe.0];
            match from.iter_mut().find(|(port, _)| *port == c.from_port) {
                Some((_, edges)) => edges.push(edge),
                None => from.push((c.from_port.clone(), vec![edge])),
            }
        }
        Self { ports }
    }

    /// The index of `port` in the row of `pe`; `None` when the port is not
    /// connected.
    pub(crate) fn port_of(&self, pe: PeId, port: &str) -> Option<usize> {
        self.ports[pe.0].iter().position(|(p, _)| p == port)
    }

    /// The edges of the port [`port_of`](Self::port_of) gave as `port`, in
    /// connection order; never empty.
    pub(crate) fn edges_at(&self, pe: PeId, port: usize) -> &[Edge] {
        &self.ports[pe.0][port].1
    }

    /// The edges an emission on `port` of `pe` travels, in connection
    /// order; empty when the port is not connected.
    pub(crate) fn edges(&self, pe: PeId, port: &str) -> &[Edge] {
        self.port_of(pe, port).map_or(&[], |i| self.edges_at(pe, i))
    }

    /// True if `pe` has a connected output port: what it emits on any
    /// other port goes nowhere.
    pub(crate) fn has_outgoing(&self, pe: PeId) -> bool {
        !self.ports[pe.0].is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C0: ConnectionId = ConnectionId(0);
    const C1: ConnectionId = ConnectionId(1);

    #[test]
    fn shuffle_round_robins_per_connection() {
        let mut r = Router::new();
        let targets: Vec<Route> = (0..6)
            .map(|_| r.route(C0, &Grouping::Shuffle, &Value::Null, 3))
            .collect();
        assert_eq!(
            targets,
            vec![
                Route::One(0),
                Route::One(1),
                Route::One(2),
                Route::One(0),
                Route::One(1),
                Route::One(2)
            ]
        );
    }

    #[test]
    fn shuffle_counters_are_independent_per_connection() {
        let mut r = Router::new();
        assert_eq!(
            r.route(C0, &Grouping::Shuffle, &Value::Null, 2),
            Route::One(0)
        );
        assert_eq!(
            r.route(C1, &Grouping::Shuffle, &Value::Null, 2),
            Route::One(0)
        );
        assert_eq!(
            r.route(C0, &Grouping::Shuffle, &Value::Null, 2),
            Route::One(1)
        );
    }

    #[test]
    fn group_by_is_sticky() {
        let mut r = Router::new();
        let g = Grouping::group_by("state");
        let tx = Value::map([("state", "TX")]);
        let first = r.route(C0, &g, &tx, 4);
        for _ in 0..10 {
            assert_eq!(r.route(C0, &g, &tx, 4), first);
        }
    }

    #[test]
    fn group_by_distributes_across_instances() {
        let mut r = Router::new();
        let g = Grouping::group_by("state");
        let states = ["TX", "CA", "NY", "WA", "OH", "FL", "MA", "IL", "GA", "PA"];
        let mut seen = std::collections::HashSet::new();
        for s in states {
            if let Route::One(i) = r.route(C0, &g, &Value::map([("state", s)]), 4) {
                seen.insert(i);
            }
        }
        assert!(
            seen.len() >= 2,
            "10 distinct keys should hit ≥2 of 4 instances"
        );
    }

    #[test]
    fn group_by_ignores_other_fields() {
        let mut r = Router::new();
        let g = Grouping::group_by("state");
        let a = Value::map([("state", Value::Str("TX".into())), ("score", Value::Int(1))]);
        let b = Value::map([
            ("state", Value::Str("TX".into())),
            ("score", Value::Int(99)),
        ]);
        assert_eq!(r.route(C0, &g, &a, 4), r.route(C0, &g, &b, 4));
    }

    #[test]
    fn global_always_routes_to_zero() {
        let mut r = Router::new();
        for i in 0..5 {
            assert_eq!(
                r.route(C0, &Grouping::Global, &Value::Int(i), 7),
                Route::One(0)
            );
        }
    }

    #[test]
    fn one_to_all_broadcasts() {
        let mut r = Router::new();
        assert_eq!(
            r.route(C0, &Grouping::OneToAll, &Value::Null, 3),
            Route::All
        );
    }

    #[test]
    fn single_instance_always_zero() {
        let mut r = Router::new();
        for g in [Grouping::Shuffle, Grouping::group_by("k"), Grouping::Global] {
            assert_eq!(
                r.route(C0, &g, &Value::map([("k", 9i64)]), 1),
                Route::One(0)
            );
        }
    }

    #[test]
    fn route_table_lists_a_ports_edges_in_connection_order() {
        use d4py_graph::PeSpec;
        let mut g = WorkflowGraph::new("t");
        let s = g.add_pe(PeSpec::source("s", "out"));
        let a = g.add_pe(PeSpec::sink("a", "in"));
        let b = g.add_pe(PeSpec::sink("b", "in"));
        g.connect(s, "out", b, "in", Grouping::Shuffle).unwrap();
        g.connect(s, "out", a, "in", Grouping::Global).unwrap();
        let table = RouteTable::with_inline(&g, |c| c.to_pe == a);
        let edges = table.edges(s, "out");
        let shape: Vec<_> = edges.iter().map(|e| (e.id, e.to_pe, e.inline)).collect();
        assert_eq!(
            shape,
            [(ConnectionId(0), b, false), (ConnectionId(1), a, true)]
        );
        assert!(table.edges(s, "other").is_empty());
        assert!(table.has_outgoing(s));
        assert!(!table.has_outgoing(a));
    }

    #[test]
    fn route_table_resolves_a_port_to_its_index_in_the_row() {
        use d4py_graph::{PeSpec, PortDecl};
        let mut g = WorkflowGraph::new("t");
        let ports = ["a", "b", "c"].map(PortDecl::output).to_vec();
        let s = g.add_pe(PeSpec::new("s", ports));
        let x = g.add_pe(PeSpec::sink("x", "in"));
        g.connect(s, "b", x, "in", Grouping::Shuffle).unwrap();
        g.connect(s, "a", x, "in", Grouping::Shuffle).unwrap();
        g.connect(s, "b", x, "in", Grouping::Global).unwrap();
        let table = RouteTable::new(&g);
        let (a, b) = (table.port_of(s, "a"), table.port_of(s, "b"));
        assert_eq!((b, a), (Some(0), Some(1)), "rows follow first connection");
        assert_eq!(table.port_of(s, "c"), None, "declared, not connected");
        assert_eq!(table.port_of(x, "in"), None);
        let ids = |port| {
            table
                .edges_at(s, port)
                .iter()
                .map(|e| e.id)
                .collect::<Vec<_>>()
        };
        assert_eq!(ids(0), [ConnectionId(0), ConnectionId(2)]);
        assert_eq!(ids(1), [ConnectionId(1)]);
    }
}
