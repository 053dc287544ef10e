//! Compressed sparse row adjacency.

use std::sync::Arc;

/// CSR adjacency over `n` source nodes.
///
/// Neighbour lists are sorted and deduplicated. `offsets` and `members` are
/// reference-counted so propagation layers can share them with the autodiff
/// tape's `segment_mean` op without copying.
#[derive(Clone, Debug)]
pub struct Csr {
    offsets: Arc<Vec<usize>>,
    members: Arc<Vec<u32>>,
}

impl Csr {
    /// Builds a CSR from an edge list `(src, dst)` over `n_src` source
    /// nodes. Edges are sorted per source and duplicates removed.
    pub fn from_edges(n_src: usize, edges: &[(u32, u32)]) -> Self {
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n_src];
        for &(s, d) in edges {
            assert!(
                (s as usize) < n_src,
                "source {s} out of bounds (n_src = {n_src})"
            );
            adj[s as usize].push(d);
        }
        Self::from_adj(adj)
    }

    /// Builds a CSR from per-node adjacency lists (sorted + deduped here).
    pub(crate) fn from_adj(mut adj: Vec<Vec<u32>>) -> Self {
        let mut offsets = Vec::with_capacity(adj.len() + 1);
        offsets.push(0usize);
        let mut members = Vec::new();
        for list in adj.iter_mut() {
            list.sort_unstable();
            list.dedup();
            members.extend_from_slice(list);
            offsets.push(members.len());
        }
        Self {
            offsets: Arc::new(offsets),
            members: Arc::new(members),
        }
    }

    /// An empty CSR with `n_src` sources and no edges.
    pub fn empty(n_src: usize) -> Self {
        Self {
            offsets: Arc::new(vec![0; n_src + 1]),
            members: Arc::new(Vec::new()),
        }
    }

    /// Number of source nodes.
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of (deduplicated) edges.
    #[inline]
    pub fn n_edges(&self) -> usize {
        self.members.len()
    }

    /// Sorted neighbour list of node `u`.
    #[inline]
    pub fn neighbors(&self, u: u32) -> &[u32] {
        let u = u as usize;
        &self.members[self.offsets[u]..self.offsets[u + 1]]
    }

    /// Out-degree of node `u`.
    #[inline]
    pub fn degree(&self, u: u32) -> usize {
        let u = u as usize;
        self.offsets[u + 1] - self.offsets[u]
    }

    /// Whether edge `(u, v)` exists (binary search on the sorted list).
    pub fn contains(&self, u: u32, v: u32) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Shared handle to the offsets array (for `Tape::segment_mean`).
    pub fn offsets(&self) -> Arc<Vec<usize>> {
        Arc::clone(&self.offsets)
    }

    /// Shared handle to the members array (for `Tape::segment_mean`).
    pub fn members(&self) -> Arc<Vec<u32>> {
        Arc::clone(&self.members)
    }

    /// Borrowed `(offsets, members)` views for direct (non-tape) CSR
    /// aggregation — e.g. `gb_tensor::kernels::segment_mean`, whose inner
    /// loops block to the shared `kernels::DOT_LANES` lane width. Avoids
    /// the refcount round-trip of the `Arc` accessors on hot paths.
    pub fn segments(&self) -> (&[usize], &[u32]) {
        (&self.offsets, &self.members)
    }

    /// Reverses the graph: produces the CSR of incoming edges over
    /// `n_dst` destination nodes.
    pub fn reversed(&self, n_dst: usize) -> Csr {
        let mut edges = Vec::with_capacity(self.n_edges());
        for u in 0..self.n_nodes() as u32 {
            for &v in self.neighbors(u) {
                assert!(
                    (v as usize) < n_dst,
                    "dst {v} out of bounds (n_dst = {n_dst})"
                );
                edges.push((v, u));
            }
        }
        Csr::from_edges(n_dst, &edges)
    }

    /// Iterates all `(src, dst)` edges.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.n_nodes() as u32).flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_edges_sorts_and_dedups() {
        let csr = Csr::from_edges(3, &[(0, 5), (0, 1), (0, 5), (2, 0)]);
        assert_eq!(csr.neighbors(0), &[1, 5]);
        assert_eq!(csr.neighbors(1), &[] as &[u32]);
        assert_eq!(csr.neighbors(2), &[0]);
        assert_eq!(csr.n_edges(), 3);
        assert_eq!(csr.degree(0), 2);
    }

    #[test]
    fn contains_uses_sorted_lists() {
        let csr = Csr::from_edges(2, &[(0, 9), (0, 3), (0, 7)]);
        assert!(csr.contains(0, 7));
        assert!(!csr.contains(0, 5));
        assert!(!csr.contains(1, 7));
    }

    #[test]
    fn reversed_flips_edges() {
        let csr = Csr::from_edges(3, &[(0, 1), (2, 1), (2, 0)]);
        let rev = csr.reversed(2);
        assert_eq!(rev.neighbors(0), &[2]);
        assert_eq!(rev.neighbors(1), &[0, 2]);
    }

    #[test]
    fn reversed_twice_is_identity_on_edge_set() {
        let csr = Csr::from_edges(4, &[(0, 3), (1, 2), (3, 0), (3, 1)]);
        let back = csr.reversed(4).reversed(4);
        let mut a: Vec<_> = csr.edges().collect();
        let mut b: Vec<_> = back.edges().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn degree_stats() {
        let csr = Csr::from_edges(4, &[(0, 1), (0, 2), (1, 0)]);
        let degrees: Vec<usize> = (0..4).map(|u| csr.degree(u)).collect();
        assert_eq!(degrees, vec![2, 1, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn from_edges_checks_bounds() {
        let _ = Csr::from_edges(2, &[(2, 0)]);
    }

    #[test]
    fn empty_graph() {
        let csr = Csr::empty(5);
        assert_eq!(csr.n_nodes(), 5);
        assert_eq!(csr.n_edges(), 0);
        assert_eq!(csr.neighbors(4), &[] as &[u32]);
    }

    #[test]
    fn edges_iterator_yields_all() {
        let csr = Csr::from_edges(3, &[(1, 0), (1, 2), (0, 2)]);
        let edges: Vec<_> = csr.edges().collect();
        assert_eq!(edges, vec![(0, 2), (1, 0), (1, 2)]);
    }
}
