//! Plain-text dataset loader compatible with the authors' released data
//! layout (<https://github.com/Sweetnow/group-buying-recommendation>).
//!
//! The release ships whitespace/comma-delimited text files; this module
//! reads the equivalent structure so the real Beibei dump can be swapped
//! in for the synthetic workload without touching any other code:
//!
//! * `behaviors.txt` — one behavior per line:
//!   `initiator<TAB>item<TAB>participant,participant,...`
//!   (the participant field may be empty for failed solo launches);
//! * `social.txt` — one undirected friendship per line: `user<TAB>user`;
//! * `thresholds.txt` — optional, one `item<TAB>t_n` per line; items
//!   without an entry default to a threshold of 1.
//!
//! Ids must be contiguous `0..n`; the loader infers `n_users`/`n_items`
//! from the maximum id seen.

use crate::behavior::GroupBehavior;
use crate::dataset::Dataset;
use std::io::{BufRead, BufReader, Read};
use std::path::Path;

/// Parses the behaviors file.
pub(crate) fn parse_behaviors<R: Read>(r: R) -> std::io::Result<Vec<GroupBehavior>> {
    let mut out = Vec::new();
    for (lineno, line) in BufReader::new(r).lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split('\t');
        let initiator = parse_id(fields.next(), "initiator", lineno)?;
        let item = parse_id(fields.next(), "item", lineno)?;
        let participants = match fields.next() {
            None | Some("") => Vec::new(),
            Some(list) => list
                .split(',')
                .filter(|t| !t.trim().is_empty())
                .map(|t| {
                    t.trim().parse::<u32>().map_err(|e| {
                        std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            format!("line {}: bad participant `{t}`: {e}", lineno + 1),
                        )
                    })
                })
                .collect::<Result<_, _>>()?,
        };
        out.push(GroupBehavior::new(initiator, item, participants));
    }
    Ok(out)
}

/// Parses the social file into undirected pairs.
pub(crate) fn parse_social<R: Read>(r: R) -> std::io::Result<Vec<(u32, u32)>> {
    let mut out = Vec::new();
    for (lineno, line) in BufReader::new(r).lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split('\t');
        let a = parse_id(fields.next(), "user", lineno)?;
        let b = parse_id(fields.next(), "friend", lineno)?;
        out.push((a, b));
    }
    Ok(out)
}

/// Parses the optional thresholds file into `(item, t_n)` pairs.
pub(crate) fn parse_thresholds<R: Read>(r: R) -> std::io::Result<Vec<(u32, u32)>> {
    let mut out = Vec::new();
    for (lineno, line) in BufReader::new(r).lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split('\t');
        let item = parse_id(fields.next(), "item", lineno)?;
        let t = parse_id(fields.next(), "threshold", lineno)?;
        out.push((item, t));
    }
    Ok(out)
}

/// Loads a dataset directory (`behaviors.txt`, `social.txt`, optional
/// `thresholds.txt`).
// lint:allow(pub-needs-caller): reads the authors' released data, input from outside the program
pub fn load_dir(dir: impl AsRef<Path>) -> std::io::Result<Dataset> {
    let dir = dir.as_ref();
    let behaviors = parse_behaviors(std::fs::File::open(dir.join("behaviors.txt"))?)?;
    let social = parse_social(std::fs::File::open(dir.join("social.txt"))?)?;
    let thresholds_path = dir.join("thresholds.txt");
    let thresholds = if thresholds_path.exists() {
        parse_thresholds(std::fs::File::open(thresholds_path)?)?
    } else {
        Vec::new()
    };
    assemble(behaviors, social, thresholds)
}

/// Assembles a [`Dataset`] from parsed parts, inferring universe sizes.
pub(crate) fn assemble(
    behaviors: Vec<GroupBehavior>,
    social: Vec<(u32, u32)>,
    thresholds: Vec<(u32, u32)>,
) -> std::io::Result<Dataset> {
    let mut max_user = 0u32;
    let mut max_item = 0u32;
    for b in &behaviors {
        max_user = max_user.max(b.initiator);
        max_item = max_item.max(b.item);
        for &p in &b.participants {
            max_user = max_user.max(p);
        }
    }
    for &(a, b) in &social {
        max_user = max_user.max(a).max(b);
    }
    for &(i, _) in &thresholds {
        max_item = max_item.max(i);
    }
    let n_users = max_user as usize + 1;
    let n_items = max_item as usize + 1;
    let mut item_thresholds = vec![1u32; n_items];
    for (i, t) in thresholds {
        item_thresholds[i as usize] = t;
    }
    Ok(Dataset::new(
        n_users,
        n_items,
        behaviors,
        social,
        item_thresholds,
    ))
}

fn parse_id(field: Option<&str>, what: &str, lineno: usize) -> std::io::Result<u32> {
    field
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("line {}: missing {what}", lineno + 1),
            )
        })?
        .trim()
        .parse::<u32>()
        .map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("line {}: bad {what}: {e}", lineno + 1),
            )
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEHAVIORS: &str = "# header comment\n0\t1\t2,3\n1\t0\t\n2\t1\n";
    const SOCIAL: &str = "0\t2\n0\t3\n1\t2\n";
    const THRESHOLDS: &str = "1\t2\n0\t1\n";

    #[test]
    fn parses_behaviors_with_and_without_participants() {
        let b = parse_behaviors(BEHAVIORS.as_bytes()).unwrap();
        assert_eq!(b.len(), 3);
        assert_eq!(b[0], GroupBehavior::new(0, 1, vec![2, 3]));
        assert_eq!(b[1], GroupBehavior::new(1, 0, vec![]));
        assert_eq!(b[2], GroupBehavior::new(2, 1, vec![]));
    }

    #[test]
    fn assembles_full_dataset() {
        let d = assemble(
            parse_behaviors(BEHAVIORS.as_bytes()).unwrap(),
            parse_social(SOCIAL.as_bytes()).unwrap(),
            parse_thresholds(THRESHOLDS.as_bytes()).unwrap(),
        )
        .unwrap();
        assert_eq!(d.n_users(), 4);
        assert_eq!(d.n_items(), 2);
        assert_eq!(d.threshold(1), 2);
        assert_eq!(d.threshold(0), 1);
        assert!(d.social().are_friends(0, 2));
        // behavior 0: 2 participants >= t=2 -> success
        assert!(d.is_successful(&d.behaviors()[0]));
        // behavior 2: 0 participants < t=2 -> failed
        assert!(!d.is_successful(&d.behaviors()[2]));
    }

    #[test]
    fn directory_roundtrip() {
        let dir = std::env::temp_dir().join("gb_data_text_test");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("behaviors.txt"), BEHAVIORS).unwrap();
        std::fs::write(dir.join("social.txt"), SOCIAL).unwrap();
        std::fs::write(dir.join("thresholds.txt"), THRESHOLDS).unwrap();
        let d = load_dir(&dir).unwrap();
        assert_eq!(d.behaviors().len(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_thresholds_default_to_one() {
        let d = assemble(
            parse_behaviors(BEHAVIORS.as_bytes()).unwrap(),
            vec![],
            vec![],
        )
        .unwrap();
        assert!(d.item_thresholds().iter().all(|&t| t == 1));
    }

    #[test]
    fn malformed_lines_are_errors() {
        assert!(parse_behaviors("x\t1\t\n".as_bytes()).is_err());
        assert!(parse_social("0\n".as_bytes()).is_err());
        assert!(parse_thresholds("0\tx\n".as_bytes()).is_err());
    }
}
