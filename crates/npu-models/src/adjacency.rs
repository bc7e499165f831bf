//! Per-node neighbour lists in compressed sparse row (CSR) form.

use serde::{Deserialize, Serialize};

/// Per-node neighbour lists in compressed sparse row (CSR) form: node
/// `k`'s list is `edges[starts[k]..starts[k + 1]]`.
///
/// This is the one edge store of every DAG in the workspace: an
/// [`crate::OperatorGraph`]'s producer lists, a compiled graph's, and the
/// phase graph the timeline engine schedules each hold one, and every
/// reverse (consumer) list is built by [`Adjacency::transpose`] or
/// [`Adjacency::from_edges`]. One `starts` vector and one `edges` vector
/// hold every list, so a graph of any size is two allocations, a clone
/// copies two buffers, and appending another graph
/// ([`Adjacency::extend_shifted`]) is a linear copy instead of one `Vec`
/// per node.
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
    #[inline]
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
    #[inline]
    #[must_use]
    pub fn of(&self, k: usize) -> &[usize] {
        if k < self.len() {
            &self.edges[self.starts[k]..self.starts[k + 1]]
        } else {
            &[]
        }
    }

    /// Builds the lists of `num_nodes` nodes from `(node, neighbour)`
    /// pairs by a stable counting sort: each node's list holds its
    /// neighbours in the order their pairs arrive, and a node no pair
    /// names gets an empty list. The pairs are walked twice (count, then
    /// fill), hence the `Clone` bound.
    ///
    /// # Panics
    ///
    /// Panics if a pair's node is not below `num_nodes`.
    #[must_use]
    pub fn from_edges<I>(num_nodes: usize, pairs: I) -> Self
    where
        I: IntoIterator<Item = (usize, usize)>,
        I::IntoIter: Clone,
    {
        let pairs = pairs.into_iter();
        let mut starts = vec![0usize; num_nodes + 1];
        for (node, _) in pairs.clone() {
            assert!(node < num_nodes, "edge from node {node} in a {num_nodes}-node adjacency");
            starts[node + 1] += 1;
        }
        for k in 0..num_nodes {
            starts[k + 1] += starts[k];
        }
        let mut cursor = starts.clone();
        let mut edges = vec![0usize; starts[num_nodes]];
        for (node, neighbour) in pairs {
            edges[cursor[node]] = neighbour;
            cursor[node] += 1;
        }
        Adjacency { starts, edges }
    }

    /// The reverse lists: node `k`'s list holds, ascending, every node
    /// whose list names `k`. A neighbour that is not a node (`>= len()`)
    /// has no list to land in and is dropped.
    #[must_use]
    pub fn transpose(&self) -> Adjacency {
        let n = self.len();
        let reversed =
            (0..n).flat_map(|k| self.of(k).iter().filter(move |&&p| p < n).map(move |&p| (p, k)));
        Adjacency::from_edges(n, reversed)
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
    fn from_edges_keeps_arrival_order_and_empty_nodes() {
        let adjacency = Adjacency::from_edges(5, [(3, 9), (1, 4), (3, 2), (1, 0), (3, 2)]);
        assert_eq!(
            adjacency,
            Adjacency::from(vec![vec![], vec![4, 0], vec![], vec![9, 2, 2], vec![]])
        );
        assert_eq!(Adjacency::from_edges(2, []), Adjacency::from(vec![vec![], vec![]]));
        assert_eq!(Adjacency::from_edges(0, []), Adjacency::new());
    }

    #[test]
    fn transpose_lists_ascend_and_drop_out_of_range_neighbours() {
        let producers = Adjacency::from(vec![vec![], vec![0], vec![1, 0], vec![7, 2, 0], vec![]]);
        let consumers = producers.transpose();
        assert_eq!(
            consumers,
            Adjacency::from(vec![vec![1, 2, 3], vec![2], vec![3], vec![], vec![]])
        );
        assert_eq!(consumers.num_edges(), producers.num_edges() - 1, "edge to 7 dropped");
        assert_eq!(Adjacency::new().transpose(), Adjacency::new());
    }

    #[test]
    fn extend_shifted_appends_nodes_and_shifts_edges() {
        let mut combined = Adjacency::from(vec![vec![], vec![0]]);
        combined.extend_shifted(&Adjacency::from(vec![vec![], vec![0], vec![0, 1]]), 2);
        combined.extend_shifted(&Adjacency::new(), 5);
        assert_eq!(combined, Adjacency::from(vec![vec![], vec![0], vec![], vec![2], vec![2, 3]]));
    }
}
