//! Parameter initialization.
//!
//! The paper initializes all parameters with Xavier (Glorot) initialization
//! \[39\]. Both the uniform and the normal variants are provided; the
//! reproduction uses the uniform variant, matching the common
//! PyTorch/DGL default used by the authors' released code.

use crate::Matrix;
use rand::distributions::{Distribution, Uniform};
use rand::Rng;

/// Xavier/Glorot *uniform* initialization: `U(-a, a)` with
/// `a = sqrt(6 / (fan_in + fan_out))`.
pub fn xavier_uniform(rows: usize, cols: usize, rng: &mut impl Rng) -> Matrix {
    let bound = (6.0 / (rows + cols) as f32).sqrt();
    let dist = Uniform::new_inclusive(-bound, bound);
    Matrix::from_fn(rows, cols, |_, _| dist.sample(rng))
}

/// Xavier/Glorot *normal* initialization: `N(0, 2 / (fan_in + fan_out))`.
pub fn xavier_normal(rows: usize, cols: usize, rng: &mut impl Rng) -> Matrix {
    let std = (2.0 / (rows + cols) as f32).sqrt();
    Matrix::from_fn(rows, cols, |_, _| {
        // Box-Muller transform; rand's StandardNormal lives in rand_distr,
        // which is not on the approved crate list, so we roll our own.
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        std * (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
    })
}

/// Small uniform init `U(-scale, scale)`, used for embedding pre-training
/// sanity baselines and tests.
pub fn uniform(rows: usize, cols: usize, scale: f32, rng: &mut impl Rng) -> Matrix {
    let dist = Uniform::new_inclusive(-scale, scale);
    Matrix::from_fn(rows, cols, |_, _| dist.sample(rng))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn xavier_uniform_respects_bound() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = xavier_uniform(64, 32, &mut rng);
        let bound = (6.0 / 96.0_f32).sqrt();
        assert!(m.as_slice().iter().all(|v| v.abs() <= bound + 1e-6));
        // Not all identical (degenerate RNG would break training).
        assert!(m.max_abs() > 0.0);
    }

    #[test]
    fn xavier_uniform_is_seed_deterministic() {
        let a = xavier_uniform(8, 8, &mut StdRng::seed_from_u64(42));
        let b = xavier_uniform(8, 8, &mut StdRng::seed_from_u64(42));
        assert_eq!(a, b);
    }

    #[test]
    fn xavier_normal_std_close_to_theory() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = xavier_normal(128, 128, &mut rng);
        let target_std = (2.0 / 256.0_f32).sqrt();
        let mean = m.mean();
        let var: f32 = m
            .as_slice()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f32>()
            / m.len() as f32;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!(
            (var.sqrt() - target_std).abs() < 0.2 * target_std,
            "std {} vs target {}",
            var.sqrt(),
            target_std
        );
    }

    #[test]
    fn uniform_scale() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = uniform(16, 16, 0.01, &mut rng);
        assert!(m.max_abs() <= 0.01 + 1e-9);
    }
}
