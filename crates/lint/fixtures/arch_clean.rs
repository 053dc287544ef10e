//! Must-not-fire fixture for `arch-intrinsics-confined`.

// core::arch::x86_64 in a comment is fine
use std::arch::asm;

pub fn describe() -> &'static str {
    "std::arch::x86_64::_mm256_fmadd_ps in a string"
}

pub mod arch {
    pub fn name() -> &'static str {
        r#"core::arch in a raw string"#
    }
}

pub fn local_arch_module() -> &'static str {
    self::arch::name()
}
