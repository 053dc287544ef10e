//! Parameter initialization.
//!
//! The paper initializes all parameters with Xavier (Glorot) initialization
//! \[39\]. The reproduction uses the uniform variant, matching the common
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
    fn uniform_scale() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = uniform(16, 16, 0.01, &mut rng);
        assert!(m.max_abs() <= 0.01 + 1e-9);
    }
}
