//! The group-buying behavior record.

use serde::{Deserialize, Serialize};

/// One group-buying behavior `b = ⟨mi, n, Mp⟩` (Sec. II of the paper).
///
/// `initiator` launched a group for `item` and shared it to their social
/// network; `participants` are the friends who joined. Whether the group
/// *clinched* is determined against the item's threshold `t_n`, which lives
/// on the [`crate::Dataset`] — the paper notes the threshold is set by the
/// service provider per item and "cannot be directly modeled".
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroupBehavior {
    /// The user `mi` who launched the group.
    pub initiator: u32,
    /// The target item `n`.
    pub item: u32,
    /// The participant set `Mp` (friends of the initiator who joined).
    pub participants: Vec<u32>,
}

impl GroupBehavior {
    /// Creates a behavior record.
    pub fn new(initiator: u32, item: u32, participants: Vec<u32>) -> Self {
        Self {
            initiator,
            item,
            participants,
        }
    }

    /// Whether the group clinched given the item's threshold `t_n`
    /// (`|Mp| >= t_n`, Sec. II).
    pub fn is_successful(&self, threshold: u32) -> bool {
        self.participants.len() >= threshold as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn success_is_threshold_relative() {
        let b = GroupBehavior::new(0, 1, vec![2, 3]);
        assert!(b.is_successful(1));
        assert!(b.is_successful(2));
        assert!(!b.is_successful(3));
    }

    #[test]
    fn empty_group_fails_any_positive_threshold() {
        let b = GroupBehavior::new(0, 1, vec![]);
        assert!(!b.is_successful(1));
        assert!(b.is_successful(0));
    }

    #[test]
    fn serde_roundtrip() {
        let b = GroupBehavior::new(7, 9, vec![1, 2, 3]);
        let json = serde_json::to_string(&b).unwrap();
        let back: GroupBehavior = serde_json::from_str(&json).unwrap();
        assert_eq!(b, back);
    }
}
