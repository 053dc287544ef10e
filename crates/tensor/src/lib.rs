//! # gb-tensor
//!
//! Dense `f32` matrix kernels used throughout the GBGCN reproduction.
//!
//! The paper's models are small (embedding size d = 32, two propagation
//! layers), so a straightforward row-major dense matrix with cache-friendly
//! loops is the right substrate: no BLAS dependency, fully deterministic,
//! easy to verify. Every kernel used by the autodiff tape lives in
//! [`kernels`]; parameter initialization (Xavier) lives in [`init`].
//!
//! ## Layout
//!
//! [`Matrix`] is row-major: element `(r, c)` lives at `data[r * cols + c]`.
//! Row views are contiguous slices, which is what the gather/scatter and
//! segment-mean kernels in the GCN propagation layers iterate over.

pub mod init;
pub mod kernels;
pub mod kmeans;
pub mod matrix;
mod simd;

pub use matrix::Matrix;

/// Convenience alias for shape `(rows, cols)` pairs.
pub type Shape = (usize, usize);
