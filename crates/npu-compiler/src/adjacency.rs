//! Per-node neighbour lists in compressed sparse row (CSR) form.

use serde::{Deserialize, Serialize};

/// Per-node neighbour lists in compressed sparse row (CSR) form: node
/// `k`'s list is `edges[starts[k]..starts[k + 1]]`.
///
/// One `starts` vector and one `edges` vector hold every list, so a graph
/// of any size is two allocations, a clone copies two buffers, and
/// appending another graph ([`Adjacency::extend_shifted`]) is a linear
/// copy instead of one `Vec` per node. [`crate::CompiledGraph`] stores its
/// producer edges this way, and its anchor-space view
/// ([`crate::CompiledGraph::anchor_producers`]) is the one producer store
/// a prepared simulator and every result it returns share.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Adjacency {
    /// `starts[k]..starts[k + 1]`: node `k`'s range of `edges`. Starts at
    /// 0 and holds one entry more than there are nodes.
    starts: Vec<usize>,
    edges: Vec<usize>,
}

impl Default for Adjacency {
    fn default() -> Self {
        Adjacency { starts: vec![0], edges: Vec::new() }
    }
}

impl Adjacency {
    /// An adjacency with no nodes.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// Whether there are no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of edges over all nodes.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Node `k`'s neighbour list; empty when `k` is not a node.
    #[must_use]
    pub fn of(&self, k: usize) -> &[usize] {
        if k < self.len() {
            &self.edges[self.starts[k]..self.starts[k + 1]]
        } else {
            &[]
        }
    }

    /// Appends a node whose neighbour list is `edges`.
    pub fn push(&mut self, edges: impl IntoIterator<Item = usize>) {
        self.edges.extend(edges);
        self.starts.push(self.edges.len());
    }

    /// Appends every node of `other`, adding `offset` to each of its edges
    /// — the id shift of appending one graph's nodes after another's.
    pub fn extend_shifted(&mut self, other: &Adjacency, offset: usize) {
        let base = self.edges.len();
        self.starts.extend(other.starts[1..].iter().map(|&start| start + base));
        self.edges.extend(other.edges.iter().map(|&edge| edge + offset));
    }

    /// Reserves room for `nodes` more nodes carrying `edges` more edges.
    pub fn reserve(&mut self, nodes: usize, edges: usize) {
        self.starts.reserve(nodes);
        self.edges.reserve(edges);
    }
}

impl From<Vec<Vec<usize>>> for Adjacency {
    /// Flattens one neighbour list per node, in node order.
    fn from(lists: Vec<Vec<usize>>) -> Self {
        let mut adjacency = Adjacency::new();
        adjacency.reserve(lists.len(), lists.iter().map(Vec::len).sum());
        for list in lists {
            adjacency.push(list);
        }
        adjacency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_of_round_trip_every_list() {
        let mut adjacency = Adjacency::new();
        assert!(adjacency.is_empty());
        adjacency.push([]);
        adjacency.push([0]);
        adjacency.push(vec![0, 1]);
        assert_eq!(adjacency.len(), 3);
        assert_eq!(adjacency.num_edges(), 3);
        assert_eq!(adjacency.of(0), &[] as &[usize]);
        assert_eq!(adjacency.of(1), &[0]);
        assert_eq!(adjacency.of(2), &[0, 1]);
    }

    #[test]
    fn of_is_empty_out_of_range() {
        let adjacency = Adjacency::from(vec![vec![], vec![0]]);
        assert_eq!(adjacency.of(2), &[] as &[usize]);
        assert_eq!(adjacency.of(usize::MAX), &[] as &[usize]);
        assert_eq!(Adjacency::new().of(0), &[] as &[usize]);
    }

    #[test]
    fn from_nested_lists_equals_pushing_them() {
        let lists = vec![vec![], vec![0], vec![], vec![1, 2]];
        let mut pushed = Adjacency::new();
        for list in &lists {
            pushed.push(list.iter().copied());
        }
        let flattened = Adjacency::from(lists.clone());
        assert_eq!(flattened, pushed);
        for (k, list) in lists.iter().enumerate() {
            assert_eq!(flattened.of(k), list.as_slice());
        }
    }

    #[test]
    fn extend_shifted_appends_nodes_and_shifts_edges() {
        let mut combined = Adjacency::from(vec![vec![], vec![0]]);
        combined.extend_shifted(&Adjacency::from(vec![vec![], vec![0], vec![0, 1]]), 2);
        combined.extend_shifted(&Adjacency::new(), 5);
        assert_eq!(combined, Adjacency::from(vec![vec![], vec![0], vec![], vec![2], vec![2, 3]]));
    }
}
