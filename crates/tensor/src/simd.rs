//! Eight `f32` lanes behind one set of elementwise operations.
//!
//! [`Lane8`] is what an elementwise kernel is written against, once:
//! [`Avx2`] holds the lanes in a `__m256` wherever the build enables AVX2
//! (the workspace default, see `.cargo/config.toml`), [`Portable`] in a
//! `[f32; 8]` everywhere else, and [`Native`] names whichever the build
//! runs. Each portable operation reproduces its intrinsic's result bit for
//! bit — including which operand a `min` returns for a NaN or a pair of
//! zeros, and what the bit-level operations do to a NaN's payload — so a
//! kernel over `Lane8` gives the same bits on both. On an AVX2 build the
//! portable form is compiled for the tests only, as the oracle the
//! intrinsics are held to.
//!
//! Every operation acts on each lane alone, and none fuses a multiply
//! with an add: a lane's result is a function of that lane's inputs and
//! of nothing else. The set is what `kernels::tanh_inplace` needs.

/// Lanes per vector.
pub(crate) const LANES: usize = 8;

/// The magic-number bias of [`Lane8::exp2i`]: `1.5 * 2^23`. For
/// `|v| < 2^22`, `v + EXP2I_BIAS` lies in `[2^23, 2^24)` where floats are
/// one apart, so the sum is `v` rounded to the nearest integer (ties to
/// even) and that integer sits in the sum's low mantissa bits.
pub(crate) const EXP2I_BIAS: f32 = 12_582_912.0;

/// Eight `f32` lanes; see the module docs. All operations are lanewise.
pub(crate) trait Lane8: Copy {
    /// The eight floats of `src`, lane `l` from `src[l]`.
    fn loadu(src: &[f32; LANES]) -> Self;
    /// Writes lane `l` to `dst[l]`.
    fn storeu(self, dst: &mut [f32; LANES]);
    /// `v` in every lane.
    fn splat(v: f32) -> Self;
    fn add(self, o: Self) -> Self;
    fn sub(self, o: Self) -> Self;
    fn mul(self, o: Self) -> Self;
    fn div(self, o: Self) -> Self;
    /// `self` where `self < o`, else `o`: `o` when either is NaN and when
    /// both are zeros of either sign (`minps`, not `f32::min`).
    fn min(self, o: Self) -> Self;
    /// Sign bit cleared; every other bit, a NaN's payload included, kept.
    fn abs(self) -> Self;
    /// `self`'s magnitude bits under `sign`'s sign bit.
    fn copysign(self, sign: Self) -> Self;
    /// `a` where `self < o` (false when either is NaN), else `b`.
    fn select_lt(self, o: Self, a: Self, b: Self) -> Self;
    /// `2^n` for `self = n + EXP2I_BIAS` with integer `-127 < n < 128`,
    /// built from bits: `(bits + 127) << 23`, the biased exponent of `2^n`
    /// moved into place and everything above it shifted out. Other inputs
    /// give that same integer expression's bits, whatever float they spell.
    fn exp2i(self) -> Self;
}

#[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
pub(crate) use avx2::Avx2;

#[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
mod avx2 {
    use super::{Lane8, LANES};
    use core::arch::x86_64::*;

    /// [`Lane8`] in one 256-bit register.
    #[derive(Clone, Copy)]
    pub(crate) struct Avx2(__m256);

    /// The sign bit of every lane.
    #[inline(always)]
    fn sign_mask() -> __m256 {
        // SAFETY: builds a register from a constant; AVX is enabled for
        // this build (the `cfg` on the module).
        unsafe { _mm256_set1_ps(-0.0) }
    }

    impl Lane8 for Avx2 {
        #[inline(always)]
        fn loadu(src: &[f32; LANES]) -> Self {
            // SAFETY: `src` is eight readable floats, `loadu` has no
            // alignment requirement, and AVX is enabled for this build.
            Self(unsafe { _mm256_loadu_ps(src.as_ptr()) })
        }

        #[inline(always)]
        fn storeu(self, dst: &mut [f32; LANES]) {
            // SAFETY: `dst` is eight writable floats, `storeu` has no
            // alignment requirement, and AVX is enabled for this build.
            unsafe { _mm256_storeu_ps(dst.as_mut_ptr(), self.0) }
        }

        #[inline(always)]
        fn splat(v: f32) -> Self {
            // SAFETY: register-only; AVX is enabled for this build.
            Self(unsafe { _mm256_set1_ps(v) })
        }

        #[inline(always)]
        fn add(self, o: Self) -> Self {
            // SAFETY: register-only; AVX is enabled for this build.
            Self(unsafe { _mm256_add_ps(self.0, o.0) })
        }

        #[inline(always)]
        fn sub(self, o: Self) -> Self {
            // SAFETY: register-only; AVX is enabled for this build.
            Self(unsafe { _mm256_sub_ps(self.0, o.0) })
        }

        #[inline(always)]
        fn mul(self, o: Self) -> Self {
            // SAFETY: register-only; AVX is enabled for this build.
            Self(unsafe { _mm256_mul_ps(self.0, o.0) })
        }

        #[inline(always)]
        fn div(self, o: Self) -> Self {
            // SAFETY: register-only; AVX is enabled for this build.
            Self(unsafe { _mm256_div_ps(self.0, o.0) })
        }

        #[inline(always)]
        fn min(self, o: Self) -> Self {
            // SAFETY: register-only; AVX is enabled for this build.
            Self(unsafe { _mm256_min_ps(self.0, o.0) })
        }

        #[inline(always)]
        fn abs(self) -> Self {
            // SAFETY: register-only; AVX is enabled for this build.
            Self(unsafe { _mm256_andnot_ps(sign_mask(), self.0) })
        }

        #[inline(always)]
        fn copysign(self, sign: Self) -> Self {
            // SAFETY: register-only; AVX is enabled for this build.
            Self(unsafe {
                _mm256_or_ps(
                    _mm256_andnot_ps(sign_mask(), self.0),
                    _mm256_and_ps(sign_mask(), sign.0),
                )
            })
        }

        #[inline(always)]
        fn select_lt(self, o: Self, a: Self, b: Self) -> Self {
            // SAFETY: register-only; AVX is enabled for this build.
            Self(unsafe { _mm256_blendv_ps(b.0, a.0, _mm256_cmp_ps::<_CMP_LT_OQ>(self.0, o.0)) })
        }

        #[inline(always)]
        fn exp2i(self) -> Self {
            // SAFETY: register-only (the casts reinterpret, they convert
            // nothing); AVX2 is enabled for this build.
            Self(unsafe {
                _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
                    _mm256_castps_si256(self.0),
                    _mm256_set1_epi32(127),
                )))
            })
        }
    }
}

#[cfg(any(test, not(all(target_arch = "x86_64", target_feature = "avx2"))))]
pub(crate) use portable::Portable;

#[cfg(any(test, not(all(target_arch = "x86_64", target_feature = "avx2"))))]
mod portable {
    use super::{Lane8, LANES};

    const SIGN: u32 = 0x8000_0000;

    /// [`Lane8`] in an array: the whole of it on builds without AVX2, and
    /// the oracle the tests compare `Avx2` against on builds with it.
    #[derive(Clone, Copy)]
    pub(crate) struct Portable([f32; LANES]);

    impl Portable {
        #[inline(always)]
        fn zip(self, o: Self, f: impl Fn(f32, f32) -> f32) -> Self {
            Self(core::array::from_fn(|l| f(self.0[l], o.0[l])))
        }
    }

    impl Lane8 for Portable {
        #[inline(always)]
        fn loadu(src: &[f32; LANES]) -> Self {
            Self(*src)
        }

        #[inline(always)]
        fn storeu(self, dst: &mut [f32; LANES]) {
            *dst = self.0;
        }

        #[inline(always)]
        fn splat(v: f32) -> Self {
            Self([v; LANES])
        }

        #[inline(always)]
        fn add(self, o: Self) -> Self {
            self.zip(o, |a, b| a + b)
        }

        #[inline(always)]
        fn sub(self, o: Self) -> Self {
            self.zip(o, |a, b| a - b)
        }

        #[inline(always)]
        fn mul(self, o: Self) -> Self {
            self.zip(o, |a, b| a * b)
        }

        #[inline(always)]
        fn div(self, o: Self) -> Self {
            self.zip(o, |a, b| a / b)
        }

        #[inline(always)]
        fn min(self, o: Self) -> Self {
            self.zip(o, |a, b| if a < b { a } else { b })
        }

        #[inline(always)]
        fn abs(self) -> Self {
            Self(self.0.map(|a| f32::from_bits(a.to_bits() & !SIGN)))
        }

        #[inline(always)]
        fn copysign(self, sign: Self) -> Self {
            self.zip(sign, |a, s| {
                f32::from_bits((a.to_bits() & !SIGN) | (s.to_bits() & SIGN))
            })
        }

        #[inline(always)]
        fn select_lt(self, o: Self, a: Self, b: Self) -> Self {
            Self(core::array::from_fn(|l| {
                if self.0[l] < o.0[l] {
                    a.0[l]
                } else {
                    b.0[l]
                }
            }))
        }

        #[inline(always)]
        fn exp2i(self) -> Self {
            Self(
                self.0
                    .map(|a| f32::from_bits(a.to_bits().wrapping_add(127) << 23)),
            )
        }
    }
}

/// The [`Lane8`] this build computes with.
#[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
pub(crate) type Native = Avx2;

/// The [`Lane8`] this build computes with.
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx2")))]
pub(crate) type Native = Portable;

#[cfg(test)]
mod tests {
    use super::*;

    fn out<L: Lane8>(v: L) -> [f32; LANES] {
        let mut o = [0.0; LANES];
        v.storeu(&mut o);
        o
    }

    fn bits(v: [f32; LANES]) -> [u32; LANES] {
        v.map(f32::to_bits)
    }

    /// Which operand `min` returns when the comparison cannot decide is
    /// part of the contract: a NaN propagates from the *second* operand
    /// only, and of two zeros the second wins whatever the signs.
    fn min_returns_its_second_operand<L: Lane8>() {
        let min = |a: f32, b: f32| out(L::splat(a).min(L::splat(b)))[0];
        assert!(min(1.0, f32::NAN).is_nan());
        assert_eq!(min(f32::NAN, 1.0), 1.0);
        assert_eq!(min(0.0, -0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(min(-0.0, 0.0).to_bits(), 0);
        assert_eq!(min(-3.0, 2.0), -3.0);
    }

    fn exp2i_spells_every_normal_power_of_two<L: Lane8>() {
        for n in -126..=127 {
            let got = out(L::splat(n as f32).add(L::splat(EXP2I_BIAS)).exp2i());
            assert_eq!(bits(got), [2.0f32.powi(n).to_bits(); LANES], "2^{n}");
        }
    }

    fn bit_ops_keep_every_other_bit<L: Lane8>() {
        let nan = f32::from_bits(0xFFC1_2345);
        assert_eq!(out(L::splat(nan).abs())[0].to_bits(), 0x7FC1_2345);
        assert_eq!(out(L::splat(-0.0).abs())[0].to_bits(), 0);
        let cs = |a: f32, s: f32| out(L::splat(a).copysign(L::splat(s)))[0].to_bits();
        assert_eq!(cs(0.0, -1.0), (-0.0f32).to_bits());
        assert_eq!(cs(-2.5, 0.0), 2.5f32.to_bits());
        assert_eq!(cs(1.0, nan), (-1.0f32).to_bits());
        let lt = |a: f32, b: f32| {
            out(L::splat(a).select_lt(L::splat(b), L::splat(1.0), L::splat(2.0)))[0]
        };
        assert_eq!(lt(0.5, 0.625), 1.0);
        assert_eq!(lt(0.625, 0.625), 2.0);
        assert_eq!(lt(f32::NAN, 0.625), 2.0);
        assert_eq!(lt(-0.0, 0.0), 2.0);
    }

    #[test]
    fn each_form_keeps_the_lane_contract() {
        min_returns_its_second_operand::<Portable>();
        exp2i_spells_every_normal_power_of_two::<Portable>();
        bit_ops_keep_every_other_bit::<Portable>();
        #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
        {
            min_returns_its_second_operand::<Avx2>();
            exp2i_spells_every_normal_power_of_two::<Avx2>();
            bit_ops_keep_every_other_bit::<Avx2>();
        }
    }

    /// Every ordered pair of these, through every operation, on both
    /// forms: signed zeros, subnormals, NaNs of both signs and with a
    /// payload, infinities, 1e30 magnitudes (products overflow), ordinary
    /// values and `exp2i` arguments.
    #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
    #[test]
    fn avx2_equals_portable_bitwise_on_every_op() {
        let v = [
            0.0,
            -0.0,
            1.0e-40,
            -1.0e-40,
            f32::MIN_POSITIVE,
            f32::NAN,
            f32::from_bits(0xFFC0_0000),
            f32::from_bits(0x7FC1_2345),
            f32::INFINITY,
            f32::NEG_INFINITY,
            1.0e30,
            -1.0e30,
            0.625,
            -1.5,
            EXP2I_BIAS + 3.0,
            EXP2I_BIAS - 126.0,
        ];
        for &a in &v {
            for &b in &v {
                let (pa, pb) = (Portable::splat(a), Portable::splat(b));
                let (va, vb) = (Avx2::splat(a), Avx2::splat(b));
                // Two NaNs into one arithmetic op: which payload survives
                // is the operand order's business on x86, and the compiler
                // may commute the scalar form. Everything else is bitwise.
                let check = |name: &str, p: Portable, x: Avx2, arith: bool| {
                    let (p, x) = (out(p), out(x));
                    if arith && a.is_nan() && b.is_nan() {
                        assert!(p[0].is_nan() && x[0].is_nan(), "{name}({a:e}, {b:e})");
                    } else {
                        assert_eq!(bits(p), bits(x), "{name}({a:e}, {b:e})");
                    }
                };
                check("splat", pa, va, false);
                check("add", pa.add(pb), va.add(vb), true);
                check("sub", pa.sub(pb), va.sub(vb), true);
                check("mul", pa.mul(pb), va.mul(vb), true);
                check("div", pa.div(pb), va.div(vb), true);
                check("min", pa.min(pb), va.min(vb), false);
                check("abs", pa.abs(), va.abs(), false);
                check("copysign", pa.copysign(pb), va.copysign(vb), false);
                check(
                    "select_lt",
                    pa.select_lt(pb, pa, pb),
                    va.select_lt(vb, va, vb),
                    false,
                );
                check("exp2i", pa.exp2i(), va.exp2i(), false);
            }
        }
        // Lanes keep their places through a load and a store.
        let ramp: [f32; LANES] = core::array::from_fn(|l| l as f32 - 3.5);
        assert_eq!(bits(out(Avx2::loadu(&ramp))), bits(ramp));
        assert_eq!(bits(out(Portable::loadu(&ramp))), bits(ramp));
    }
}
