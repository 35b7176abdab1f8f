//! A small labeled directed multigraph.
//!
//! Vertices are dense indices ([`NodeId`]); edges carry an arbitrary
//! label. Parallel edges and self-loops are allowed — dependence graphs
//! need both (a clause can have several differently-labeled edges to
//! another clause, and self-cyclic edges arise when inner loops are
//! collapsed to single entities, §8.2).

use std::fmt;

/// A dense vertex index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A dense edge index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub usize);

/// One labeled edge.
#[derive(Debug, Clone, PartialEq)]
pub struct Edge<L> {
    pub src: NodeId,
    pub dst: NodeId,
    pub label: L,
}

/// A labeled directed multigraph with dense vertex ids.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DiGraph<L> {
    node_count: usize,
    edges: Vec<Edge<L>>,
    /// Outgoing edge ids per node.
    out_adj: Vec<Vec<EdgeId>>,
    /// Incoming edge ids per node.
    in_adj: Vec<Vec<EdgeId>>,
}

impl<L> DiGraph<L> {
    /// An empty graph.
    pub fn new() -> DiGraph<L> {
        DiGraph {
            node_count: 0,
            edges: Vec::new(),
            out_adj: Vec::new(),
            in_adj: Vec::new(),
        }
    }

    /// A graph with `n` vertices and no edges.
    pub fn with_nodes(n: usize) -> DiGraph<L> {
        let mut g = DiGraph::new();
        for _ in 0..n {
            g.add_node();
        }
        g
    }

    /// Add a vertex, returning its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.node_count);
        self.node_count += 1;
        self.out_adj.push(Vec::new());
        self.in_adj.push(Vec::new());
        id
    }

    /// Add a labeled edge.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, label: L) -> EdgeId {
        assert!(
            src.0 < self.node_count && dst.0 < self.node_count,
            "node out of range"
        );
        let id = EdgeId(self.edges.len());
        self.edges.push(Edge { src, dst, label });
        self.out_adj[src.0].push(id);
        self.in_adj[dst.0].push(id);
        id
    }

    /// Number of vertices.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// All vertex ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_count).map(NodeId)
    }

    /// All edges.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &Edge<L>)> {
        self.edges.iter().enumerate().map(|(i, e)| (EdgeId(i), e))
    }

    /// The edge with the given id.
    pub fn edge(&self, id: EdgeId) -> &Edge<L> {
        &self.edges[id.0]
    }

    /// Outgoing edges of `n`.
    pub fn out_edges(&self, n: NodeId) -> impl Iterator<Item = (EdgeId, &Edge<L>)> {
        self.out_adj[n.0]
            .iter()
            .map(move |&id| (id, &self.edges[id.0]))
    }

    /// Incoming edges of `n`.
    pub fn in_edges(&self, n: NodeId) -> impl Iterator<Item = (EdgeId, &Edge<L>)> {
        self.in_adj[n.0]
            .iter()
            .map(move |&id| (id, &self.edges[id.0]))
    }

    /// Successor vertices of `n` (with multiplicity).
    pub fn successors(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out_edges(n).map(|(_, e)| e.dst)
    }

    /// In-degree of `n`.
    pub fn in_degree(&self, n: NodeId) -> usize {
        self.in_adj[n.0].len()
    }

    /// Out-degree of `n`.
    pub fn out_degree(&self, n: NodeId) -> usize {
        self.out_adj[n.0].len()
    }

    /// Build a new graph with the same vertices, keeping only edges for
    /// which `keep` returns `true`.
    pub fn filter_edges(&self, mut keep: impl FnMut(&Edge<L>) -> bool) -> DiGraph<L>
    where
        L: Clone,
    {
        let mut g = DiGraph::with_nodes(self.node_count);
        for (_, e) in self.edges() {
            if keep(e) {
                g.add_edge(e.src, e.dst, e.label.clone());
            }
        }
        g
    }

    /// The node set reachable from `starts` (including the starts).
    pub fn reachable_from(&self, starts: &[NodeId]) -> Vec<bool> {
        let mut seen = vec![false; self.node_count];
        let mut stack: Vec<NodeId> = starts.to_vec();
        for s in starts {
            seen[s.0] = true;
        }
        while let Some(n) = stack.pop() {
            for m in self.successors(n) {
                if !seen[m.0] {
                    seen[m.0] = true;
                    stack.push(m);
                }
            }
        }
        seen
    }

    /// `true` if any directed path leads from `a` to `b`.
    pub fn has_path(&self, a: NodeId, b: NodeId) -> bool {
        self.reachable_from(&[a])[b.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DiGraph<&'static str> {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
        let mut g = DiGraph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1), "a");
        g.add_edge(NodeId(0), NodeId(2), "b");
        g.add_edge(NodeId(1), NodeId(3), "c");
        g.add_edge(NodeId(2), NodeId(3), "d");
        g
    }

    #[test]
    fn degrees_and_adjacency() {
        let g = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.out_degree(NodeId(0)), 2);
        assert_eq!(g.in_degree(NodeId(3)), 2);
        let succ: Vec<_> = g.successors(NodeId(0)).collect();
        assert_eq!(succ, vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn parallel_edges_and_self_loops() {
        let mut g = DiGraph::with_nodes(2);
        g.add_edge(NodeId(0), NodeId(1), 1);
        g.add_edge(NodeId(0), NodeId(1), 2);
        g.add_edge(NodeId(1), NodeId(1), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.out_degree(NodeId(0)), 2);
        assert_eq!(g.out_degree(NodeId(1)), 1);
        assert_eq!(g.in_degree(NodeId(1)), 3);
    }

    #[test]
    fn reachability() {
        let g = diamond();
        assert!(g.has_path(NodeId(0), NodeId(3)));
        assert!(!g.has_path(NodeId(3), NodeId(0)));
        assert!(
            g.has_path(NodeId(1), NodeId(1)),
            "trivially reachable from self"
        );
        let seen = g.reachable_from(&[NodeId(1)]);
        assert_eq!(seen, vec![false, true, false, true]);
    }

    #[test]
    fn filter_edges_keeps_nodes() {
        let g = diamond();
        let f = g.filter_edges(|e| e.label == "a");
        assert_eq!(f.node_count(), 4);
        assert_eq!(f.edge_count(), 1);
    }
}
