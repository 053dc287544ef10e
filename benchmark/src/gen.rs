//! Seeded inputs: every table, filter and user sequence a workload sees
//! is a pure function of `--seed`.

use gb_models::EmbeddingSnapshot;
use gb_tensor::{init, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An independent generator per `(seed, stream)`, so adding a draw to
/// one input never shifts another.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Unclustered Xavier tables: `d` own + `d` social columns, α = 0.6.
pub fn xavier_snapshot(seed: u64, n_users: usize, n_items: usize, d: usize) -> EmbeddingSnapshot {
    let mut rng = rng(seed, 1);
    EmbeddingSnapshot::new(
        0.6,
        init::xavier_uniform(n_users, d, &mut rng),
        init::xavier_uniform(n_items, d, &mut rng),
        init::xavier_uniform(n_users, d, &mut rng),
        init::xavier_uniform(n_items, d, &mut rng),
    )
}

/// Items drawn around `n_cats` category centres (centre + 8 % noise),
/// users unclustered — a catalogue an inverted-file index can exploit.
pub fn clustered_snapshot(
    seed: u64,
    n_users: usize,
    n_items: usize,
    d: usize,
    n_cats: usize,
) -> EmbeddingSnapshot {
    let mut rng = rng(seed, 2);
    let items = |rng: &mut StdRng| {
        let centres = init::xavier_uniform(n_cats, d, rng);
        let noise = init::xavier_uniform(n_items, d, rng);
        Matrix::from_fn(n_items, d, |r, c| {
            centres.get(r % n_cats, c) + 0.08 * noise.get(r, c)
        })
    };
    let item_own = items(&mut rng);
    let item_social = items(&mut rng);
    EmbeddingSnapshot::new(
        0.6,
        init::xavier_uniform(n_users, d, &mut rng),
        item_own,
        init::xavier_uniform(n_users, d, &mut rng),
        item_social,
    )
}

/// `per_user` seen items (with repeats) for every user.
pub fn seen_rows(seed: u64, n_users: usize, n_items: usize, per_user: usize) -> Vec<Vec<u32>> {
    let mut rng = rng(seed, 3);
    (0..n_users)
        .map(|_| {
            (0..per_user)
                .map(|_| rng.gen_range(0..n_items as u32))
                .collect()
        })
        .collect()
}

/// `n` distinct-ish users to check replies for, drawn uniformly.
pub fn check_users(seed: u64, n_users: usize, n: usize) -> Vec<u32> {
    let mut rng = rng(seed, 4);
    (0..n).map(|_| rng.gen_range(0..n_users as u32)).collect()
}
