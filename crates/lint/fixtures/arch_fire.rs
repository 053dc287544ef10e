//! Must-fire fixture for `arch-intrinsics-confined`.

use core::arch::x86_64::__m256;

pub fn vector_bytes() -> usize {
    std::mem::size_of::<__m256>() + std::mem::size_of::<std::arch::x86_64::__m128>()
}

#[cfg(test)]
mod tests {
    use std::arch::x86_64::*;
}
