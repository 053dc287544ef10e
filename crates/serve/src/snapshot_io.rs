//! Load-side tests of the snapshot file, through the crate's public
//! save/open functions: what `open_mmap_snapshot_heap` — the open that
//! reads and checks every byte — gives back for a good file, and what
//! both opens refuse. The mapped open's own cases (zero copy, keep-alive,
//! serving a poisoned payload) are in `mmap`'s tests.

#[cfg(test)]
mod tests {
    use crate::{open_mmap_snapshot, open_mmap_snapshot_heap, save_mmap_snapshot};
    use gb_models::EmbeddingSnapshot;
    use gb_tensor::Matrix;
    use std::io::ErrorKind;
    use std::path::{Path, PathBuf};

    /// Bytes per section descriptor, and the descriptors' start (the
    /// layout in `mmap`'s module doc).
    const DESC_BYTES: usize = 32;
    const DESCS_AT: usize = 16;

    fn snapshot() -> EmbeddingSnapshot {
        EmbeddingSnapshot::new(
            0.375,
            Matrix::from_fn(5, 3, |r, c| (r as f32 + 1.0) / (c as f32 + 2.0)),
            Matrix::from_fn(9, 3, |r, c| ((r * 3 + c) as f32 * 0.77).sin()),
            // -0.0 on the diagonal: `==` would not tell it from 0.0.
            Matrix::from_fn(5, 4, |r, c| (r as f32 - c as f32) * -1e-3),
            Matrix::from_fn(9, 4, |r, c| (r as f32 * c as f32).sqrt()),
        )
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("gb_serve_snapshot_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// Every table's raw bits, plus α's.
    fn bits(snap: &EmbeddingSnapshot) -> (u32, [Vec<u32>; 4]) {
        let table = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect();
        (
            snap.alpha().to_bits(),
            [
                table(snap.user_own()),
                table(snap.item_own()),
                table(snap.user_social()),
                table(snap.item_social()),
            ],
        )
    }

    /// Writes `bytes` to `path` and checks that both opens refuse it as
    /// `InvalidData` with a message containing `why`.
    fn assert_both_refuse(path: &Path, bytes: &[u8], why: &str) {
        std::fs::write(path, bytes).unwrap();
        for err in [
            open_mmap_snapshot(path).unwrap_err(),
            open_mmap_snapshot_heap(path).unwrap_err(),
        ] {
            assert_eq!(err.kind(), ErrorKind::InvalidData);
            assert!(err.to_string().contains(why), "{err}");
        }
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        let snap = snapshot();
        let path = tmp("roundtrip.gbsn2");
        save_mmap_snapshot(&snap, &path).unwrap();
        let back = open_mmap_snapshot_heap(&path).unwrap();
        assert!(bits(&back) == bits(&snap), "heap open differs");
        assert_eq!((back.n_users(), back.n_items()), (5, 9));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn social_free_snapshot_roundtrips() {
        let snap = EmbeddingSnapshot::without_social(
            Matrix::from_fn(4, 2, |r, c| (r + c) as f32),
            Matrix::from_fn(6, 2, |r, c| (r * c) as f32),
        );
        let path = tmp("social_free.gbsn2");
        save_mmap_snapshot(&snap, &path).unwrap();
        let back = open_mmap_snapshot_heap(&path).unwrap();
        assert_eq!(back, snap);
        assert_eq!(
            (back.user_social().cols(), back.item_social().rows()),
            (0, 6)
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_roundtrip() {
        // Saving what either open returned writes the same bytes again:
        // open and save are inverses on files, not only on tables.
        let first = tmp("first.gbsn2");
        let again = tmp("again.gbsn2");
        save_mmap_snapshot(&snapshot(), &first).unwrap();
        let bytes = std::fs::read(&first).unwrap();
        for back in [
            open_mmap_snapshot_heap(&first).unwrap(),
            open_mmap_snapshot(&first).unwrap(),
        ] {
            save_mmap_snapshot(&back, &again).unwrap();
            assert!(std::fs::read(&again).unwrap() == bytes);
        }
        std::fs::remove_file(&first).ok();
        std::fs::remove_file(&again).ok();
    }

    #[test]
    fn bad_magic_rejected() {
        let path = tmp("magic.gbsn2");
        save_mmap_snapshot(&snapshot(), &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] = b'X';
        assert_both_refuse(&path, &bytes, "magic");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn future_version_rejected() {
        let path = tmp("version.gbsn2");
        save_mmap_snapshot(&snapshot(), &path).unwrap();
        let good = std::fs::read(&path).unwrap();
        for version in [3u32, 99, u32::MAX] {
            let mut bytes = good.clone();
            bytes[4..8].copy_from_slice(&version.to_le_bytes());
            assert_both_refuse(&path, &bytes, "version");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_finite_values_rejected_at_load() {
        // NaN and ±∞ at the first and at the last float of each section:
        // the heap open scans every table to its end and names the one
        // it refuses, while the mapped open stays a trusted O(1) open.
        let path = tmp("non_finite.gbsn2");
        save_mmap_snapshot(&snapshot(), &path).unwrap();
        let good = std::fs::read(&path).unwrap();
        let field = |section: usize, k: usize| {
            let at = DESCS_AT + section * DESC_BYTES + 8 * k;
            u64::from_le_bytes(good[at..at + 8].try_into().unwrap()) as usize
        };
        let names = ["user_own", "item_own", "user_social", "item_social"];
        for (section, name) in names.into_iter().enumerate() {
            let (rows, cols, off) = (field(section, 0), field(section, 1), field(section, 2));
            for at in [off, off + 4 * (rows * cols - 1)] {
                for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                    let mut bytes = good.clone();
                    bytes[at..at + 4].copy_from_slice(&poison.to_le_bytes());
                    std::fs::write(&path, &bytes).unwrap();
                    let err = open_mmap_snapshot_heap(&path).unwrap_err();
                    assert_eq!(err.kind(), ErrorKind::InvalidData);
                    let msg = err.to_string();
                    assert!(msg.contains("non-finite") && msg.contains(name), "{msg}");
                    assert!(open_mmap_snapshot(&path).is_ok(), "{name} {poison}");
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_rejected() {
        let path = tmp("truncated.gbsn2");
        save_mmap_snapshot(&snapshot(), &path).unwrap();
        let full = std::fs::read(&path).unwrap();
        for keep in [0, 3, 8, 100, full.len() - 5, full.len() - 1] {
            std::fs::write(&path, &full[..keep]).unwrap();
            assert!(
                open_mmap_snapshot_heap(&path).is_err(),
                "truncation to {keep} bytes must be rejected"
            );
        }
        std::fs::remove_file(&path).ok();
    }
}
