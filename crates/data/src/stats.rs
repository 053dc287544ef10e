//! Table II-style dataset statistics.

use crate::dataset::Dataset;
use std::fmt;

/// Summary statistics of a group-buying dataset, mirroring Table II of the
/// paper plus a few shape diagnostics used to validate the synthetic
/// generator against the Beibei proportions.
#[derive(Clone, Debug, PartialEq)]
pub struct DatasetStats {
    /// Number of users `P`.
    pub n_users: usize,
    /// Number of items `Q`.
    pub n_items: usize,
    /// Number of undirected social relations.
    pub n_social: usize,
    /// Total group-buying behaviors `|B|`.
    pub n_behaviors: usize,
    /// Successful behaviors `|B+|`.
    pub n_successful: usize,
    /// Failed behaviors `|B-|`.
    pub n_failed: usize,
    /// Mean friends per user.
    pub mean_friends: f64,
    /// Mean behaviors per user.
    pub behaviors_per_user: f64,
    /// Mean participants per behavior.
    pub mean_participants: f64,
    /// Mean participants of successful behaviors.
    pub mean_participants_successful: f64,
}

impl DatasetStats {
    /// Computes the statistics of `d`.
    pub(crate) fn compute(d: &Dataset) -> Self {
        let n_behaviors = d.behaviors().len();
        let n_successful = d.successful().count();
        let total_parts: usize = d.behaviors().iter().map(|b| b.participants.len()).sum();
        let succ_parts: usize = d.successful().map(|b| b.participants.len()).sum();
        Self {
            n_users: d.n_users(),
            n_items: d.n_items(),
            n_social: d.social().n_friendships(),
            n_behaviors,
            n_successful,
            n_failed: n_behaviors - n_successful,
            mean_friends: 2.0 * d.social().n_friendships() as f64 / d.n_users().max(1) as f64,
            behaviors_per_user: n_behaviors as f64 / d.n_users().max(1) as f64,
            mean_participants: total_parts as f64 / n_behaviors.max(1) as f64,
            mean_participants_successful: succ_parts as f64 / n_successful.max(1) as f64,
        }
    }

    /// Fraction of behaviors that clinched.
    pub fn success_ratio(&self) -> f64 {
        if self.n_behaviors == 0 {
            0.0
        } else {
            self.n_successful as f64 / self.n_behaviors as f64
        }
    }
}

impl fmt::Display for DatasetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "#Users                  {}", self.n_users)?;
        writeln!(f, "#Items                  {}", self.n_items)?;
        writeln!(f, "#Social Interactions    {}", self.n_social)?;
        writeln!(
            f,
            "#Group-buying Behaviors {}   #Successful {}   #Failed {}",
            self.n_behaviors, self.n_successful, self.n_failed
        )?;
        writeln!(f, "success ratio           {:.3}", self.success_ratio())?;
        writeln!(f, "mean friends/user       {:.2}", self.mean_friends)?;
        writeln!(f, "behaviors/user          {:.2}", self.behaviors_per_user)?;
        write!(
            f,
            "participants/behavior   {:.2} (successful: {:.2})",
            self.mean_participants, self.mean_participants_successful
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::GroupBehavior;

    fn dataset() -> Dataset {
        Dataset::new(
            4,
            2,
            vec![
                GroupBehavior::new(0, 0, vec![1]),
                GroupBehavior::new(0, 1, vec![]),
                GroupBehavior::new(2, 0, vec![1, 3]),
            ],
            vec![(0, 1), (2, 1), (2, 3)],
            vec![1, 1],
        )
    }

    #[test]
    fn counts_are_exact() {
        let s = dataset().stats();
        assert_eq!(s.n_users, 4);
        assert_eq!(s.n_items, 2);
        assert_eq!(s.n_social, 3);
        assert_eq!(s.n_behaviors, 3);
        assert_eq!(s.n_successful, 2);
        assert_eq!(s.n_failed, 1);
        assert!((s.success_ratio() - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.mean_friends - 1.5).abs() < 1e-12);
        assert!((s.mean_participants - 1.0).abs() < 1e-12);
        assert!((s.mean_participants_successful - 1.5).abs() < 1e-12);
    }

    #[test]
    fn display_contains_table2_fields() {
        let text = dataset().stats().to_string();
        assert!(text.contains("#Users"));
        assert!(text.contains("#Group-buying Behaviors"));
        assert!(text.contains("#Successful"));
        assert!(text.contains("#Failed"));
    }
}
