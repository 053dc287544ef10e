//! Exact t-SNE (van der Maaten & Hinton \[41\]) for the embedding
//! visualization of Fig. 6.
//!
//! The paper projects 1000 sampled users and 1000 sampled items (in both
//! views) to 2-D. At that scale the exact O(n²) algorithm — the one
//! Barnes–Hut approximates — is fast enough and has no approximation
//! parameters to tune, so this is the faithful substrate choice.

use gb_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Gradient-descent learning rate (typical: 100–200).
const LEARNING_RATE: f64 = 150.0;

/// Iterations of early exaggeration (P scaled by 12).
const EXAGGERATION_ITERS: usize = 80;

/// t-SNE hyper-parameters.
#[derive(Clone, Debug)]
pub struct TsneConfig {
    /// Target perplexity of the conditional distributions (typical: 30).
    pub perplexity: f64,
    /// Gradient-descent iterations.
    pub n_iter: usize,
    /// RNG seed for the initial layout.
    pub seed: u64,
}

impl Default for TsneConfig {
    fn default() -> Self {
        Self {
            perplexity: 30.0,
            n_iter: 350,
            seed: 42,
        }
    }
}

/// Embeds the rows of `x` into 2-D.
///
/// Returns an `n x 2` matrix of coordinates. Deterministic per config.
pub fn tsne(x: &Matrix, cfg: &TsneConfig) -> Matrix {
    let n = x.rows();
    assert!(n >= 4, "t-SNE needs at least 4 points");
    let p = joint_probabilities(x, cfg.perplexity);

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut y: Vec<[f64; 2]> = (0..n)
        .map(|_| [rng.gen_range(-1e-2..1e-2), rng.gen_range(-1e-2..1e-2)])
        .collect();
    let mut velocity = vec![[0.0f64; 2]; n];
    let mut gains = vec![[1.0f64; 2]; n];

    for iter in 0..cfg.n_iter {
        let exaggeration = if iter < EXAGGERATION_ITERS { 12.0 } else { 1.0 };
        let momentum = if iter < EXAGGERATION_ITERS { 0.5 } else { 0.8 };

        // Student-t affinities in the embedding.
        let mut q_num = vec![0.0f64; n * n];
        let mut q_sum = 0.0f64;
        for i in 0..n {
            for j in (i + 1)..n {
                let dx = y[i][0] - y[j][0];
                let dy = y[i][1] - y[j][1];
                let num = 1.0 / (1.0 + dx * dx + dy * dy);
                q_num[i * n + j] = num;
                q_num[j * n + i] = num;
                q_sum += 2.0 * num;
            }
        }
        let q_sum = q_sum.max(1e-12);

        // Gradient: 4 Σ_j (p_ij - q_ij) * num_ij * (y_i - y_j).
        for i in 0..n {
            let mut grad = [0.0f64; 2];
            for j in 0..n {
                if i == j {
                    continue;
                }
                let num = q_num[i * n + j];
                let q = (num / q_sum).max(1e-12);
                let mult = (exaggeration * p[i * n + j] - q) * num;
                grad[0] += mult * (y[i][0] - y[j][0]);
                grad[1] += mult * (y[i][1] - y[j][1]);
            }
            for d in 0..2 {
                let g = 4.0 * grad[d];
                // Adaptive gains as in the reference implementation.
                if (g > 0.0) == (velocity[i][d] > 0.0) {
                    gains[i][d] = (gains[i][d] * 0.8).max(0.01);
                } else {
                    gains[i][d] += 0.2;
                }
                velocity[i][d] = momentum * velocity[i][d] - LEARNING_RATE * gains[i][d] * g;
            }
        }
        for i in 0..n {
            y[i][0] += velocity[i][0];
            y[i][1] += velocity[i][1];
        }

        // Center the embedding to remove drift.
        let (mut cx, mut cy) = (0.0, 0.0);
        for p in &y {
            cx += p[0];
            cy += p[1];
        }
        cx /= n as f64;
        cy /= n as f64;
        for p in &mut y {
            p[0] -= cx;
            p[1] -= cy;
        }
    }

    Matrix::from_fn(n, 2, |r, c| y[r][c] as f32)
}

/// Symmetrized joint probabilities `P` with per-point bandwidths found by
/// binary search to match the target perplexity.
fn joint_probabilities(x: &Matrix, perplexity: f64) -> Vec<f64> {
    let n = x.rows();
    let target_entropy = perplexity.ln();

    // Pairwise squared distances.
    let mut d2 = vec![0.0f64; n * n];
    for i in 0..n {
        for j in (i + 1)..n {
            let mut acc = 0.0f64;
            for (a, b) in x.row(i).iter().zip(x.row(j)) {
                let diff = (*a - *b) as f64;
                acc += diff * diff;
            }
            d2[i * n + j] = acc;
            d2[j * n + i] = acc;
        }
    }

    let mut p = vec![0.0f64; n * n];
    let mut row = vec![0.0f64; n];
    for i in 0..n {
        // Binary search beta = 1/(2σ²) for the target entropy.
        let (mut beta, mut beta_min, mut beta_max) = (1.0f64, 0.0f64, f64::INFINITY);
        for _ in 0..64 {
            let mut sum = 0.0f64;
            for j in 0..n {
                row[j] = if j == i {
                    0.0
                } else {
                    (-beta * d2[i * n + j]).exp()
                };
                sum += row[j];
            }
            let sum = sum.max(1e-300);
            // Shannon entropy of the conditional distribution.
            let mut entropy = 0.0f64;
            for &rj in row.iter().take(n) {
                if rj > 0.0 {
                    let pj = rj / sum;
                    entropy -= pj * pj.ln();
                }
            }
            let diff = entropy - target_entropy;
            if diff.abs() < 1e-5 {
                break;
            }
            if diff > 0.0 {
                beta_min = beta;
                beta = if beta_max.is_finite() {
                    0.5 * (beta + beta_max)
                } else {
                    beta * 2.0
                };
            } else {
                beta_max = beta;
                beta = 0.5 * (beta + beta_min);
            }
        }
        let mut sum = 0.0f64;
        for j in 0..n {
            row[j] = if j == i {
                0.0
            } else {
                (-beta * d2[i * n + j]).exp()
            };
            sum += row[j];
        }
        let sum = sum.max(1e-300);
        for j in 0..n {
            p[i * n + j] = row[j] / sum;
        }
    }

    // Symmetrize and normalize: P_ij = (P_j|i + P_i|j) / (2n).
    let mut joint = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..n {
            joint[i * n + j] = ((p[i * n + j] + p[j * n + i]) / (2.0 * n as f64)).max(1e-12);
        }
    }
    joint
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clustered_input(per_cluster: usize) -> (Matrix, Vec<usize>) {
        // Three well-separated clusters in 8-D.
        let n = per_cluster * 3;
        let mut labels = Vec::with_capacity(n);
        let m = Matrix::from_fn(n, 8, |r, c| {
            let cluster = r / per_cluster;
            let base = match cluster {
                0 => {
                    if c == 0 {
                        10.0
                    } else {
                        0.0
                    }
                }
                1 => {
                    if c == 1 {
                        10.0
                    } else {
                        0.0
                    }
                }
                _ => {
                    if c == 2 {
                        10.0
                    } else {
                        0.0
                    }
                }
            };
            // Deterministic small jitter.
            base + 0.1 * ((r * 31 + c * 17) % 7) as f32 / 7.0
        });
        for r in 0..n {
            labels.push(r / per_cluster);
        }
        (m, labels)
    }

    #[test]
    fn joint_probabilities_are_symmetric_and_normalized() {
        let (x, _) = clustered_input(5);
        let n = x.rows();
        let p = joint_probabilities(&x, 5.0);
        let total: f64 = p.iter().sum();
        assert!((total - 1.0).abs() < 1e-3, "sum P = {total}");
        for i in 0..n {
            for j in 0..n {
                assert!((p[i * n + j] - p[j * n + i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn clusters_stay_separated_in_2d() {
        let (x, labels) = clustered_input(8);
        let cfg = TsneConfig {
            n_iter: 400,
            perplexity: 5.0,
            ..TsneConfig::default()
        };
        let y = tsne(&x, &cfg);

        // Mean intra-cluster vs inter-cluster distance in the embedding.
        let dist = |a: usize, b: usize| {
            let dx = y.get(a, 0) - y.get(b, 0);
            let dy = y.get(a, 1) - y.get(b, 1);
            (dx * dx + dy * dy).sqrt()
        };
        let (mut intra, mut intra_n, mut inter, mut inter_n) = (0.0f32, 0, 0.0f32, 0);
        for a in 0..y.rows() {
            for b in (a + 1)..y.rows() {
                if labels[a] == labels[b] {
                    intra += dist(a, b);
                    intra_n += 1;
                } else {
                    inter += dist(a, b);
                    inter_n += 1;
                }
            }
        }
        let intra = intra / intra_n as f32;
        let inter = inter / inter_n as f32;
        assert!(
            inter > 2.0 * intra,
            "clusters not separated: intra = {intra}, inter = {inter}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let (x, _) = clustered_input(4);
        let cfg = TsneConfig {
            n_iter: 50,
            perplexity: 4.0,
            ..TsneConfig::default()
        };
        let a = tsne(&x, &cfg);
        let b = tsne(&x, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn output_is_centered() {
        let (x, _) = clustered_input(4);
        let cfg = TsneConfig {
            n_iter: 30,
            perplexity: 4.0,
            ..TsneConfig::default()
        };
        let y = tsne(&x, &cfg);
        let mean_x: f32 = (0..y.rows()).map(|r| y.get(r, 0)).sum::<f32>() / y.rows() as f32;
        let mean_y: f32 = (0..y.rows()).map(|r| y.get(r, 1)).sum::<f32>() / y.rows() as f32;
        assert!(mean_x.abs() < 1e-3 && mean_y.abs() < 1e-3);
    }
}
