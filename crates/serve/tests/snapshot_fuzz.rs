//! Fuzz/roundtrip property tests for the snapshot file at small shapes:
//! generated snapshots (including 0-user/0-item edges and awkward finite
//! bit patterns) survive save → open bit-identically through both opens,
//! every prefix of a file is refused, and a file with any one byte
//! corrupted opens to `Err` or to a sound snapshot — never a panic.

use gb_models::EmbeddingSnapshot;
use gb_serve::{open_mmap_snapshot, open_mmap_snapshot_heap, save_mmap_snapshot};
use gb_tensor::Matrix;
use proptest::prelude::*;
use std::path::PathBuf;

/// A unique temp path per test case (proptest shrinks rerun cases; the
/// discriminator keeps reruns from racing each other's files).
fn tmp(name: &str, case: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gb_serve_snapshot_fuzz_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}_{case}.gbsn2"))
}

/// Deterministic "awkward finite f32" generator: an LCG stream spiked
/// with exactly-representable extremes (signed zeros, max/min magnitude,
/// subnormal neighborhood). NaN/Inf are excluded — `EmbeddingSnapshot`
/// rejects non-finite tables by contract.
fn awkward(seed: u64, k: usize) -> f32 {
    const SPIKES: [f32; 10] = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        f32::MAX,
        f32::MIN,
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        1.1754942e-38, // largest subnormal
        -3.4e38,
    ];
    let x = seed
        .wrapping_add(k as u64)
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    if x.is_multiple_of(17) {
        SPIKES[(x >> 32) as usize % SPIKES.len()]
    } else {
        ((x >> 33) as i32 % 2_000_001) as f32 * 1e-3
    }
}

/// A snapshot of `awkward` values, in table order.
fn build(
    seed: u64,
    alpha: f32,
    (n_users, n_items, d_own, d_social): (usize, usize, usize, usize),
) -> EmbeddingSnapshot {
    let mut k = 0usize;
    let mut next = |_: usize, _: usize| {
        k += 1;
        awkward(seed, k)
    };
    EmbeddingSnapshot::new(
        alpha,
        Matrix::from_fn(n_users, d_own, &mut next),
        Matrix::from_fn(n_items, d_own, &mut next),
        Matrix::from_fn(n_users, d_social, &mut next),
        Matrix::from_fn(n_items, d_social, &mut next),
    )
}

/// Every table's raw bits, plus α's: equality here is bit identity,
/// which `==` on floats is not (it equates the two zeros).
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

/// The shape invariants every opened snapshot must hold.
fn is_sound(snap: &EmbeddingSnapshot) -> bool {
    snap.user_own().rows() == snap.user_social().rows()
        && snap.item_own().rows() == snap.item_social().rows()
        && snap.user_own().cols() == snap.item_own().cols()
        && snap.user_social().cols() == snap.item_social().cols()
        && (0.0..=1.0).contains(&snap.alpha())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generated_snapshots_roundtrip_bit_identically(
        seed in 0u64..1 << 48,
        alpha in 0.0f32..=1.0,
        dims in (0usize..=6, 0usize..=7, 0usize..=5, 0usize..=4),
    ) {
        let snap = build(seed, alpha, dims);
        let path = tmp("roundtrip", seed);
        save_mmap_snapshot(&snap, &path).unwrap();
        let mapped = open_mmap_snapshot(&path).unwrap();
        let heaped = open_mmap_snapshot_heap(&path).unwrap();
        std::fs::remove_file(&path).ok();
        prop_assert!(bits(&mapped) == bits(&snap), "mapped load differs");
        prop_assert!(bits(&heaped) == bits(&snap), "heap load differs");
        prop_assert_eq!((heaped.n_users(), heaped.n_items()), (dims.0, dims.1));
    }

    #[test]
    fn corrupted_streams_never_panic(
        seed in 0u64..1 << 48,
        pos_frac in 0.0f32..1.0,
        flip in 1u8..=255,
    ) {
        let snap = build(seed, 0.25, (3, 4, 3, 2));
        let path = tmp("flip", seed);
        save_mmap_snapshot(&snap, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let pos = ((bytes.len() as f32 * pos_frac) as usize).min(bytes.len() - 1);
        bytes[pos] ^= flip;
        std::fs::write(&path, &bytes).unwrap();
        // A flipped byte may still open (payload bits are arbitrary
        // floats) — the contract is Err or Ok, never a panic, and an Ok
        // is structurally sound; the heap open's Ok is also all finite.
        if let Ok(mapped) = open_mmap_snapshot(&path) {
            prop_assert!(is_sound(&mapped));
        }
        if let Ok(heaped) = open_mmap_snapshot_heap(&path) {
            prop_assert!(is_sound(&heaped));
            let tables = [heaped.user_own(), heaped.item_own(), heaped.user_social(), heaped.item_social()];
            prop_assert!(tables.iter().all(|t| !t.has_non_finite()));
        }
        std::fs::remove_file(&path).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every prefix of the file, not a sampled cut: each one is refused
    /// by both opens.
    #[test]
    fn truncated_streams_error_instead_of_panicking(
        seed in 0u64..1 << 48,
        dims in (1usize..=3, 1usize..=4, 0usize..=3, 0usize..=2),
    ) {
        let snap = build(seed, 0.5, dims);
        let path = tmp("trunc", seed);
        save_mmap_snapshot(&snap, &path).unwrap();
        let full = std::fs::read(&path).unwrap();
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            prop_assert!(
                open_mmap_snapshot(&path).is_err() && open_mmap_snapshot_heap(&path).is_err(),
                "truncation at {} of {} must be an error",
                cut,
                full.len()
            );
        }
        std::fs::remove_file(&path).ok();
    }
}
