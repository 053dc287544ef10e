//! The symmetric online social network `S`.

use crate::csr::Csr;

/// Symmetric friendship graph (`S` in the paper, a `P x P` binary matrix).
///
/// Used by the prediction function (Eq. 9) to average friends' participant-
/// view scores, by the failed-group loss (Eq. 10) to push friends away from
/// the failed item, and by the social baselines (SocialMF, DiffNet).
#[derive(Clone, Debug)]
pub struct SocialGraph {
    adj: Csr,
}

impl SocialGraph {
    /// Builds the graph from undirected friend pairs; each pair is inserted
    /// in both directions, self-loops are dropped.
    pub fn from_pairs(n_users: usize, pairs: &[(u32, u32)]) -> Self {
        let mut edges = Vec::with_capacity(pairs.len() * 2);
        for &(a, b) in pairs {
            assert!(
                (a as usize) < n_users && (b as usize) < n_users,
                "user out of bounds"
            );
            if a != b {
                edges.push((a, b));
                edges.push((b, a));
            }
        }
        Self {
            adj: Csr::from_edges(n_users, &edges),
        }
    }

    /// Graph with no friendships.
    pub fn empty(n_users: usize) -> Self {
        Self {
            adj: Csr::empty(n_users),
        }
    }

    /// Number of users.
    pub fn n_users(&self) -> usize {
        self.adj.n_nodes()
    }

    /// Number of undirected friendships.
    pub fn n_friendships(&self) -> usize {
        self.adj.n_edges() / 2
    }

    /// Sorted friend list of `user`.
    pub fn friends(&self, user: u32) -> &[u32] {
        self.adj.neighbors(user)
    }

    /// Number of friends of `user`.
    pub fn degree(&self, user: u32) -> usize {
        self.adj.degree(user)
    }

    /// Whether `a` and `b` are friends (`S_ab = 1`).
    pub fn are_friends(&self, a: u32, b: u32) -> bool {
        self.adj.contains(a, b)
    }

    /// Underlying CSR (symmetric adjacency).
    pub fn csr(&self) -> &Csr {
        &self.adj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetry_enforced() {
        let s = SocialGraph::from_pairs(3, &[(0, 1)]);
        assert!(s.are_friends(0, 1));
        assert!(s.are_friends(1, 0));
        assert!(!s.are_friends(0, 2));
        assert_eq!(s.n_friendships(), 1);
    }

    #[test]
    fn self_loops_dropped() {
        let s = SocialGraph::from_pairs(2, &[(1, 1), (0, 1)]);
        assert_eq!(s.friends(1), &[0]);
        assert!(!s.are_friends(1, 1));
    }

    #[test]
    fn duplicate_pairs_collapse() {
        let s = SocialGraph::from_pairs(3, &[(0, 1), (1, 0), (0, 1)]);
        assert_eq!(s.n_friendships(), 1);
        assert_eq!(s.degree(0), 1);
    }
}
