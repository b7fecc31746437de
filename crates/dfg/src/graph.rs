//! The data flow graph representation.

use crate::{DfgError, Opcode};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a node within a [`Dfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index into the node vector.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of an edge within a [`Dfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// Index into the edge vector.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A single operation in the data flow graph.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Node {
    /// The operation this node performs.
    pub opcode: Opcode,
    /// Whether the node has a distance-1 dependence on itself
    /// (e.g. an accumulator). Mirrors feature (8) of §3.2.1.
    pub has_self_cycle: bool,
}

/// A data dependence between two operations.
///
/// `dist == 0` is an ordinary intra-iteration dependence; `dist >= 1` is a
/// loop-carried dependence crossing `dist` iterations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Edge {
    /// Producer node.
    pub src: NodeId,
    /// Consumer node.
    pub dst: NodeId,
    /// Inter-iteration dependence distance.
    pub dist: u32,
}

/// An immutable, validated data flow graph.
///
/// Construct with [`DfgBuilder`]. Forward (distance-0) edges are
/// guaranteed to be acyclic, so a topological order always exists.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dfg {
    name: String,
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    preds: Vec<Vec<EdgeId>>,
    succs: Vec<Vec<EdgeId>>,
    topo: Vec<NodeId>,
}

impl Dfg {
    /// Kernel name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of operations.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of dependences (including loop-carried back edges).
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Access a node.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Access an edge.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.index()]
    }

    /// Iterate over all node ids in id order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterate over all edges.
    pub fn edges(&self) -> impl Iterator<Item = &Edge> + '_ {
        self.edges.iter()
    }

    /// Edges entering `id` (both forward and loop-carried).
    pub fn in_edges(&self, id: NodeId) -> impl Iterator<Item = &Edge> + '_ {
        self.preds[id.index()].iter().map(move |e| &self.edges[e.index()])
    }

    /// Edges leaving `id` (both forward and loop-carried).
    pub fn out_edges(&self, id: NodeId) -> impl Iterator<Item = &Edge> + '_ {
        self.succs[id.index()].iter().map(move |e| &self.edges[e.index()])
    }

    /// In-degree counting all edges (feature (5) of §3.2.1).
    #[must_use]
    pub fn in_degree(&self, id: NodeId) -> usize {
        self.preds[id.index()].len()
    }

    /// Out-degree counting all edges (feature (6) of §3.2.1).
    #[must_use]
    pub fn out_degree(&self, id: NodeId) -> usize {
        self.succs[id.index()].len()
    }

    /// Topological order over forward (distance-0) edges.
    ///
    /// Doubles as the scheduling order of §3.2.1, feature (2).
    #[must_use]
    pub fn topological_order(&self) -> &[NodeId] {
        &self.topo
    }

    /// Position of each node in the topological order.
    #[must_use]
    pub fn topological_rank(&self) -> Vec<usize> {
        let mut rank = vec![0usize; self.node_count()];
        for (i, &n) in self.topo.iter().enumerate() {
            rank[n.index()] = i;
        }
        rank
    }

    /// Number of nodes per functional class.
    #[must_use]
    pub fn class_counts(&self) -> [usize; 3] {
        let mut counts = [0usize; 3];
        for n in &self.nodes {
            counts[n.opcode.class().index()] += 1;
        }
        counts
    }

    /// The maximum dependence distance over all edges (0 for pure DAGs).
    #[must_use]
    pub fn max_dist(&self) -> u32 {
        self.edges.iter().map(|e| e.dist).max().unwrap_or(0)
    }
}

/// Incremental builder for [`Dfg`].
#[derive(Debug, Clone)]
pub struct DfgBuilder {
    name: String,
    nodes: Vec<Node>,
    edges: Vec<Edge>,
}

impl DfgBuilder {
    /// Start building a DFG with the given kernel name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        DfgBuilder { name: name.into(), nodes: Vec::new(), edges: Vec::new() }
    }

    /// Add an operation node; returns its id.
    pub fn node(&mut self, opcode: Opcode) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { opcode, has_self_cycle: false });
        id
    }

    /// Number of nodes added so far.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges added so far.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Add an intra-iteration dependence `src -> dst`.
    ///
    /// # Errors
    /// Returns [`DfgError::UnknownNode`] for out-of-range ids and
    /// [`DfgError::DuplicateEdge`] if the edge already exists.
    pub fn edge(&mut self, src: NodeId, dst: NodeId) -> Result<EdgeId, DfgError> {
        self.push_edge(src, dst, 0)
    }

    /// Add a loop-carried dependence `src -> dst` crossing `dist`
    /// iterations.
    ///
    /// # Errors
    /// Returns [`DfgError::ZeroDistanceBackEdge`] if `dist == 0`,
    /// otherwise the same errors as [`DfgBuilder::edge`].
    pub fn back_edge(&mut self, src: NodeId, dst: NodeId, dist: u32) -> Result<EdgeId, DfgError> {
        if dist == 0 {
            return Err(DfgError::ZeroDistanceBackEdge { src: src.0, dst: dst.0 });
        }
        self.push_edge(src, dst, dist)
    }

    /// True if the directed edge `src -> dst` (any distance) exists.
    #[must_use]
    pub fn has_edge(&self, src: NodeId, dst: NodeId) -> bool {
        self.edges.iter().any(|e| e.src == src && e.dst == dst)
    }

    fn push_edge(&mut self, src: NodeId, dst: NodeId, dist: u32) -> Result<EdgeId, DfgError> {
        for id in [src, dst] {
            if id.index() >= self.nodes.len() {
                return Err(DfgError::UnknownNode(id.0));
            }
        }
        if self.has_edge(src, dst) {
            return Err(DfgError::DuplicateEdge { src: src.0, dst: dst.0 });
        }
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Edge { src, dst, dist });
        Ok(id)
    }

    /// Validate and freeze the graph.
    ///
    /// # Errors
    /// Returns [`DfgError::Empty`] for a node-less graph and
    /// [`DfgError::ForwardCycle`] if the distance-0 edges contain a cycle.
    pub fn finish(mut self) -> Result<Dfg, DfgError> {
        if self.nodes.is_empty() {
            return Err(DfgError::Empty);
        }
        let n = self.nodes.len();
        let mut preds: Vec<Vec<EdgeId>> = vec![Vec::new(); n];
        let mut succs: Vec<Vec<EdgeId>> = vec![Vec::new(); n];
        for (i, e) in self.edges.iter().enumerate() {
            let id = EdgeId(i as u32);
            succs[e.src.index()].push(id);
            preds[e.dst.index()].push(id);
            if e.src == e.dst && e.dist > 0 {
                self.nodes[e.src.index()].has_self_cycle = true;
            }
        }
        // Kahn's algorithm over forward edges only.
        let mut indeg: Vec<usize> = vec![0; n];
        for e in &self.edges {
            if e.dist == 0 {
                indeg[e.dst.index()] += 1;
            }
        }
        let mut queue: Vec<NodeId> =
            (0..n as u32).map(NodeId).filter(|id| indeg[id.index()] == 0).collect();
        let mut topo = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            topo.push(u);
            for &eid in &succs[u.index()] {
                let e = self.edges[eid.index()];
                if e.dist == 0 {
                    indeg[e.dst.index()] -= 1;
                    if indeg[e.dst.index()] == 0 {
                        queue.push(e.dst);
                    }
                }
            }
        }
        if topo.len() != n {
            return Err(DfgError::ForwardCycle);
        }
        Ok(Dfg { name: self.name, nodes: self.nodes, edges: self.edges, preds, succs, topo })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Dfg {
        let mut b = DfgBuilder::new("diamond");
        let a = b.node(Opcode::Load);
        let l = b.node(Opcode::Add);
        let r = b.node(Opcode::Mul);
        let s = b.node(Opcode::Store);
        b.edge(a, l).unwrap();
        b.edge(a, r).unwrap();
        b.edge(l, s).unwrap();
        b.edge(r, s).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn builds_and_counts() {
        let g = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.in_degree(NodeId(3)), 2);
        assert_eq!(g.out_degree(NodeId(0)), 2);
        assert_eq!(g.in_degree(NodeId(0)), 0);
    }

    #[test]
    fn topological_order_respects_forward_edges() {
        let g = diamond();
        let rank = g.topological_rank();
        for e in g.edges() {
            if e.dist == 0 {
                assert!(rank[e.src.index()] < rank[e.dst.index()]);
            }
        }
    }

    #[test]
    fn forward_cycle_rejected() {
        let mut b = DfgBuilder::new("cyc");
        let a = b.node(Opcode::Add);
        let c = b.node(Opcode::Add);
        b.edge(a, c).unwrap();
        b.edge(c, a).unwrap();
        assert_eq!(b.finish().unwrap_err(), DfgError::ForwardCycle);
    }

    #[test]
    fn back_edge_cycle_allowed_and_marks_self_cycle() {
        let mut b = DfgBuilder::new("acc");
        let a = b.node(Opcode::Add);
        b.back_edge(a, a, 1).unwrap();
        let g = b.finish().unwrap();
        assert!(g.node(NodeId(0)).has_self_cycle);
        assert_eq!(g.max_dist(), 1);
    }

    #[test]
    fn zero_distance_back_edge_rejected() {
        let mut b = DfgBuilder::new("bad");
        let a = b.node(Opcode::Add);
        assert!(matches!(
            b.back_edge(a, a, 0),
            Err(DfgError::ZeroDistanceBackEdge { .. })
        ));
    }

    #[test]
    fn duplicate_edge_rejected() {
        let mut b = DfgBuilder::new("dup");
        let a = b.node(Opcode::Add);
        let c = b.node(Opcode::Add);
        b.edge(a, c).unwrap();
        assert!(matches!(b.edge(a, c), Err(DfgError::DuplicateEdge { .. })));
    }

    #[test]
    fn unknown_node_rejected() {
        let mut b = DfgBuilder::new("oops");
        let a = b.node(Opcode::Add);
        assert!(matches!(b.edge(a, NodeId(7)), Err(DfgError::UnknownNode(7))));
    }

    #[test]
    fn empty_graph_rejected() {
        assert_eq!(DfgBuilder::new("nil").finish().unwrap_err(), DfgError::Empty);
    }

    #[test]
    fn class_counts_sum_to_node_count() {
        let g = diamond();
        let counts = g.class_counts();
        assert_eq!(counts.iter().sum::<usize>(), g.node_count());
    }
}
