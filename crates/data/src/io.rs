//! JSON (de)serialization of datasets: [`write_json`] and [`read_json`]
//! round-trip behaviors, social pairs and thresholds exactly.

use crate::behavior::GroupBehavior;
use crate::dataset::Dataset;
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};

/// Plain-data mirror of [`Dataset`] used for serialization (the social
/// graph is rebuilt from pairs on load).
#[derive(Serialize, Deserialize)]
struct DatasetFile {
    n_users: usize,
    n_items: usize,
    behaviors: Vec<GroupBehavior>,
    social_pairs: Vec<(u32, u32)>,
    item_thresholds: Vec<u32>,
}

impl From<&Dataset> for DatasetFile {
    fn from(d: &Dataset) -> Self {
        Self {
            n_users: d.n_users(),
            n_items: d.n_items(),
            behaviors: d.behaviors().to_vec(),
            social_pairs: d.social_pairs().to_vec(),
            item_thresholds: d.item_thresholds().to_vec(),
        }
    }
}

impl From<DatasetFile> for Dataset {
    fn from(f: DatasetFile) -> Self {
        Dataset::new(
            f.n_users,
            f.n_items,
            f.behaviors,
            f.social_pairs,
            f.item_thresholds,
        )
    }
}

/// Serializes a dataset as JSON into any writer.
pub fn write_json<W: Write>(dataset: &Dataset, writer: W) -> serde_json::Result<()> {
    serde_json::to_writer(writer, &DatasetFile::from(dataset))
}

/// Deserializes a dataset from JSON.
pub fn read_json<R: Read>(reader: R) -> serde_json::Result<Dataset> {
    let file: DatasetFile = serde_json::from_reader(reader)?;
    Ok(file.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{generate, SynthConfig};

    #[test]
    fn json_roundtrip_preserves_everything() {
        let d = generate(&SynthConfig::tiny());
        let mut buf = Vec::new();
        write_json(&d, &mut buf).unwrap();
        let back = read_json(buf.as_slice()).unwrap();
        assert_eq!(d.n_users(), back.n_users());
        assert_eq!(d.n_items(), back.n_items());
        assert_eq!(d.behaviors(), back.behaviors());
        assert_eq!(d.social_pairs(), back.social_pairs());
        assert_eq!(d.item_thresholds(), back.item_thresholds());
        // Derived structure identical too.
        assert_eq!(d.stats(), back.stats());
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(read_json("not json".as_bytes()).is_err());
    }
}
