//! The group-buying dataset container.

use crate::behavior::GroupBehavior;
use crate::stats::DatasetStats;
use gb_graph::{HeteroBuilder, HeteroGraphs, SocialGraph};
use std::sync::Arc;

/// A complete group-buying dataset: behaviors `B`, social relations `S`,
/// and the per-item group-size thresholds `t_n` (Sec. II).
///
/// The social graph and its pairs are shared, not copied, by the datasets
/// [`Dataset::with_behaviors`] derives.
#[derive(Clone, Debug)]
pub struct Dataset {
    n_users: usize,
    n_items: usize,
    behaviors: Vec<GroupBehavior>,
    social_pairs: Arc<[(u32, u32)]>,
    social: Arc<SocialGraph>,
    item_thresholds: Vec<u32>,
}

impl Dataset {
    /// Assembles a dataset, building the social graph from undirected
    /// friend pairs.
    ///
    /// # Panics
    /// Panics if any id is out of bounds, `item_thresholds.len() !=
    /// n_items`, or a behavior's participants are not friends-consistent
    /// in size (participants must be distinct from the initiator).
    pub fn new(
        n_users: usize,
        n_items: usize,
        behaviors: Vec<GroupBehavior>,
        social_pairs: Vec<(u32, u32)>,
        item_thresholds: Vec<u32>,
    ) -> Self {
        assert_eq!(
            item_thresholds.len(),
            n_items,
            "one threshold per item required"
        );
        check_behaviors(n_users, n_items, &behaviors);
        let social = Arc::new(SocialGraph::from_pairs(n_users, &social_pairs));
        Self {
            n_users,
            n_items,
            behaviors,
            social_pairs: social_pairs.into(),
            social,
            item_thresholds,
        }
    }

    /// Number of users `P`.
    pub fn n_users(&self) -> usize {
        self.n_users
    }

    /// Number of items `Q`.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// All behaviors `B`.
    pub fn behaviors(&self) -> &[GroupBehavior] {
        &self.behaviors
    }

    /// The social network `S`.
    pub fn social(&self) -> &SocialGraph {
        &self.social
    }

    /// Raw undirected friendship pairs (for serialization).
    pub fn social_pairs(&self) -> &[(u32, u32)] {
        &self.social_pairs
    }

    /// The per-item group-size thresholds `t_n`.
    pub fn item_thresholds(&self) -> &[u32] {
        &self.item_thresholds
    }

    /// Threshold of `item`.
    pub fn threshold(&self, item: u32) -> u32 {
        self.item_thresholds[item as usize]
    }

    /// Whether behavior `b` clinched (`|Mp| >= t_n`).
    pub fn is_successful(&self, b: &GroupBehavior) -> bool {
        b.is_successful(self.threshold(b.item))
    }

    /// Iterates the successful part `B+` of the behaviors.
    pub fn successful(&self) -> impl Iterator<Item = &GroupBehavior> {
        self.behaviors.iter().filter(move |b| self.is_successful(b))
    }

    /// Iterates the failed part `B-` of the behaviors.
    pub fn failed(&self) -> impl Iterator<Item = &GroupBehavior> {
        self.behaviors
            .iter()
            .filter(move |b| !self.is_successful(b))
    }

    /// Builds the directed heterogeneous graphs `G = {Gi, Gp, Gs}` from the
    /// behaviors (Sec. III-A).
    pub fn build_hetero(&self) -> HeteroGraphs {
        let mut builder = HeteroBuilder::new(self.n_users, self.n_items);
        for b in &self.behaviors {
            builder.add_behavior(b.initiator, b.item, &b.participants);
        }
        builder.build()
    }

    /// Per-user sorted lists of items interacted with in *any* role —
    /// the exclusion set for negative sampling and test-candidate sampling.
    pub fn interacted_items(&self) -> Vec<Vec<u32>> {
        let mut sets: Vec<Vec<u32>> = vec![Vec::new(); self.n_users];
        for b in &self.behaviors {
            sets[b.initiator as usize].push(b.item);
            for &p in &b.participants {
                sets[p as usize].push(b.item);
            }
        }
        for s in &mut sets {
            s.sort_unstable();
            s.dedup();
        }
        sets
    }

    /// Table II-style statistics.
    pub fn stats(&self) -> DatasetStats {
        DatasetStats::compute(self)
    }

    /// Returns a copy with a different behavior set (used by the splitter
    /// and by every streaming tick), sharing this dataset's social graph.
    ///
    /// # Panics
    /// Panics on an out-of-bounds id or an initiator among its own
    /// participants, as [`Dataset::new`] does.
    pub fn with_behaviors(&self, behaviors: Vec<GroupBehavior>) -> Dataset {
        check_behaviors(self.n_users, self.n_items, &behaviors);
        Dataset {
            n_users: self.n_users,
            n_items: self.n_items,
            behaviors,
            social_pairs: Arc::clone(&self.social_pairs),
            social: Arc::clone(&self.social),
            item_thresholds: self.item_thresholds.clone(),
        }
    }
}

/// Panics unless every id of `behaviors` is in bounds and no initiator is
/// among its own participants.
fn check_behaviors(n_users: usize, n_items: usize, behaviors: &[GroupBehavior]) {
    for b in behaviors {
        assert!((b.initiator as usize) < n_users, "initiator out of bounds");
        assert!((b.item as usize) < n_items, "item out of bounds");
        for &p in &b.participants {
            assert!((p as usize) < n_users, "participant out of bounds");
            assert_ne!(p, b.initiator, "initiator cannot participate in own group");
        }
    }
}

#[cfg(test)]
pub(crate) mod test_fixtures {
    use super::*;

    /// A small hand-written dataset used across the crate's tests:
    /// 6 users, 4 items; user 0-1-2 a friend triangle, 3-4 friends, 5 loner.
    pub fn tiny() -> Dataset {
        let behaviors = vec![
            GroupBehavior::new(0, 0, vec![1, 2]), // success (t=1)
            GroupBehavior::new(0, 1, vec![]),     // failed  (t=1)
            GroupBehavior::new(1, 2, vec![0]),    // success
            GroupBehavior::new(3, 1, vec![4]),    // success
            GroupBehavior::new(3, 3, vec![]),     // failed
            GroupBehavior::new(5, 2, vec![]),     // failed
        ];
        Dataset::new(
            6,
            4,
            behaviors,
            vec![(0, 1), (1, 2), (0, 2), (3, 4)],
            vec![1, 1, 1, 2],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::test_fixtures::tiny;
    use super::*;

    #[test]
    fn success_failure_partition() {
        let d = tiny();
        assert_eq!(d.successful().count(), 3);
        assert_eq!(d.failed().count(), 3);
        assert_eq!(d.behaviors().len(), 6);
    }

    #[test]
    fn hetero_graph_matches_behaviors() {
        let d = tiny();
        let g = d.build_hetero();
        assert_eq!(g.initiator.items_of(0), &[0, 1]);
        assert_eq!(g.participant.items_of(2), &[0]);
        assert_eq!(g.share.outgoing(0), &[1, 2]);
        assert_eq!(g.share.incoming(4), &[3]);
    }

    #[test]
    fn interacted_items_cover_both_roles() {
        let d = tiny();
        let sets = d.interacted_items();
        assert_eq!(sets[0], vec![0, 1, 2]); // initiator of 0,1; participant of 2
        assert_eq!(sets[4], vec![1]); // participant only
        assert_eq!(sets[5], vec![2]);
    }

    #[test]
    fn with_behaviors_shares_the_social_graph_and_replaces_the_behaviors() {
        let d = tiny();
        let kept = d.behaviors()[1..3].to_vec();
        let derived = d.with_behaviors(kept.clone());
        assert!(std::ptr::eq(d.social(), derived.social()));
        assert!(std::ptr::eq(d.social_pairs(), derived.social_pairs()));
        assert_eq!(derived.behaviors(), &kept[..]);
        assert_eq!(d.behaviors().len(), 6, "the source keeps its behaviors");
        assert_eq!(derived.item_thresholds(), d.item_thresholds());
    }

    #[test]
    #[should_panic(expected = "own group")]
    fn with_behaviors_rejects_an_initiator_among_its_participants() {
        tiny().with_behaviors(vec![GroupBehavior::new(2, 0, vec![2])]);
    }

    #[test]
    #[should_panic(expected = "own group")]
    fn initiator_not_allowed_as_participant() {
        Dataset::new(
            2,
            1,
            vec![GroupBehavior::new(0, 0, vec![0])],
            vec![],
            vec![1],
        );
    }

    #[test]
    #[should_panic(expected = "one threshold per item")]
    fn thresholds_must_match_items() {
        Dataset::new(2, 3, vec![], vec![], vec![1]);
    }
}
