//! Bipartite user–item interaction views (`Gi` and `Gp`).

use crate::csr::Csr;

/// A user–item interaction graph with adjacency in both directions.
///
/// One `Bipartite` instance holds one *view* in the paper's sense: the
/// initiator view `Gi` stores initiator–item edges, the participant view
/// `Gp` stores participant–item edges. Both directions are needed because
/// the in-view propagation (Eqs. 1–2) aggregates items into users *and*
/// users into items.
#[derive(Clone, Debug)]
pub struct Bipartite {
    user_to_item: Csr,
    item_to_user: Csr,
    n_users: usize,
    n_items: usize,
}

impl Bipartite {
    /// Builds the view from `(user, item)` interaction pairs.
    pub fn from_interactions(n_users: usize, n_items: usize, pairs: &[(u32, u32)]) -> Self {
        for &(u, i) in pairs {
            assert!((u as usize) < n_users, "user {u} out of bounds");
            assert!((i as usize) < n_items, "item {i} out of bounds");
        }
        let user_to_item = Csr::from_edges(n_users, pairs);
        let item_to_user = user_to_item.reversed(n_items);
        Self {
            user_to_item,
            item_to_user,
            n_users,
            n_items,
        }
    }

    /// View with no interactions.
    pub fn empty(n_users: usize, n_items: usize) -> Self {
        Self {
            user_to_item: Csr::empty(n_users),
            item_to_user: Csr::empty(n_items),
            n_users,
            n_items,
        }
    }

    /// Number of users.
    pub fn n_users(&self) -> usize {
        self.n_users
    }

    /// Number of items.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Number of unique user–item edges.
    pub fn n_interactions(&self) -> usize {
        self.user_to_item.n_edges()
    }

    /// Items interacted by `user` (the `N(m)` of Eqs. 1–2), sorted.
    pub fn items_of(&self, user: u32) -> &[u32] {
        self.user_to_item.neighbors(user)
    }

    /// User→item CSR (drives `u <- mean(v)` aggregation).
    pub fn user_to_item(&self) -> &Csr {
        &self.user_to_item
    }

    /// Item→user CSR (drives `v <- mean(u)` aggregation).
    pub fn item_to_user(&self) -> &Csr {
        &self.item_to_user
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_directions_consistent() {
        let b = Bipartite::from_interactions(3, 2, &[(0, 1), (2, 1), (2, 0)]);
        assert_eq!(b.items_of(0), &[1]);
        assert_eq!(b.items_of(2), &[0, 1]);
        assert_eq!(b.item_to_user().neighbors(1), &[0, 2]);
        assert_eq!(b.item_to_user().neighbors(0), &[2]);
        assert_eq!(b.n_interactions(), 3);
    }

    #[test]
    fn duplicate_interactions_collapse() {
        let b = Bipartite::from_interactions(2, 2, &[(0, 0), (0, 0), (0, 0)]);
        assert_eq!(b.n_interactions(), 1);
        assert_eq!(b.item_to_user().neighbors(0), &[0]);
    }

    #[test]
    fn has_interaction_matches_edges() {
        let b = Bipartite::from_interactions(2, 3, &[(1, 2), (0, 0)]);
        assert!(b.user_to_item().contains(1, 2));
        assert!(!b.user_to_item().contains(1, 0));
    }

    #[test]
    #[should_panic(expected = "item 5 out of bounds")]
    fn bounds_checked() {
        let _ = Bipartite::from_interactions(2, 3, &[(1, 5)]);
    }
}
