//! Eight `f32` lanes behind one set of operations.
//!
//! [`Lane8`] is what every vector kernel in `kernels` is written against,
//! once — the lane reduction under `dot`, the fused Eq. 9 blend tile, the
//! `matmul` / `matmul_tn` output tile, the `segment_mean` strips and
//! `tanh_inplace` — and this file is the only one in the workspace that
//! names a `core::arch` intrinsic (`gb-lint`'s `arch-intrinsics-confined`):
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
//! No operation fuses a multiply with an add. Every one but two acts on
//! each lane alone — a lane's result is a function of that lane's inputs
//! and of nothing else. [`Lane8::reduce_blend`] combines lanes in a single
//! fixed tree, [`reduce_lanes`]; [`Lane8::all_lt`] folds eight comparisons
//! into one `bool`, which a kernel may branch on but never computes with.

/// Lanes per vector.
pub(crate) const LANES: usize = 8;

/// The magic-number bias of [`Lane8::exp2i`]: `1.5 * 2^23`. For
/// `|v| < 2^22`, `v + EXP2I_BIAS` lies in `[2^23, 2^24)` where floats are
/// one apart, so the sum is `v` rounded to the nearest integer (ties to
/// even) and that integer sits in the sum's low mantissa bits.
pub(crate) const EXP2I_BIAS: f32 = 12_582_912.0;

/// Fixed pairwise reduction of eight lane accumulators. One tree for every
/// caller: changing this changes every blocked dot product in the
/// workspace at once, which is exactly the point — there is a single
/// summation order to reason about.
#[inline(always)]
pub(crate) fn reduce_lanes(l: &[f32; LANES]) -> f32 {
    ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]))
}

/// Eight `f32` lanes; see the module docs. All operations but
/// [`Lane8::reduce_blend`] and [`Lane8::all_lt`] are lanewise.
pub(crate) trait Lane8: Copy {
    /// The eight floats at `src`, lane `l` from `src.add(l)`.
    ///
    /// # Safety
    /// `src` must be valid for reading eight `f32`s. No alignment beyond
    /// an `f32`'s is required.
    unsafe fn loadu_ptr(src: *const f32) -> Self;
    /// Writes lane `l` to `dst.add(l)`.
    ///
    /// # Safety
    /// `dst` must be valid for writing eight `f32`s. No alignment beyond
    /// an `f32`'s is required.
    unsafe fn storeu_ptr(self, dst: *mut f32);
    /// The eight floats of `src`, lane `l` from `src[l]`.
    #[inline(always)]
    fn loadu(src: &[f32; LANES]) -> Self {
        // SAFETY: a `&[f32; 8]` is eight readable floats.
        unsafe { Self::loadu_ptr(src.as_ptr()) }
    }
    /// Writes lane `l` to `dst[l]`.
    #[inline(always)]
    fn storeu(self, dst: &mut [f32; LANES]) {
        // SAFETY: a `&mut [f32; 8]` is eight writable floats.
        unsafe { self.storeu_ptr(dst.as_mut_ptr()) }
    }
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
    /// Whether `self < o` in every lane — the comparison of
    /// [`Lane8::select_lt`], so a NaN lane makes it false.
    fn all_lt(self, o: Self) -> bool;
    /// `2^n` for `self = n + EXP2I_BIAS` with integer `-127 < n < 128`,
    /// built from bits: `(bits + 127) << 23`, the biased exponent of `2^n`
    /// moved into place and everything above it shifted out. Other inputs
    /// give that same integer expression's bits, whatever float they spell.
    fn exp2i(self) -> Self;
    /// Reduces four `own` and four `social` lane accumulators and blends
    /// the sums: `out[t] = (1-alpha) * r(own[t]) + alpha * r(social[t])`
    /// with `r` = [`reduce_lanes`], both products rounded before the add.
    fn reduce_blend(own: [Self; 4], social: [Self; 4], alpha: f32, out: &mut [f32; 4]);
}

#[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
pub(crate) use avx2::Avx2;

#[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
mod avx2 {
    use super::Lane8;
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
        /// # Safety
        /// As [`Lane8::loadu_ptr`]: eight readable floats at `src`.
        #[inline(always)]
        unsafe fn loadu_ptr(src: *const f32) -> Self {
            // SAFETY: the caller vouches for eight readable floats,
            // `loadu` has no alignment requirement, and AVX is enabled for
            // this build.
            Self(unsafe { _mm256_loadu_ps(src) })
        }

        /// # Safety
        /// As [`Lane8::storeu_ptr`]: eight writable floats at `dst`.
        #[inline(always)]
        unsafe fn storeu_ptr(self, dst: *mut f32) {
            // SAFETY: the caller vouches for eight writable floats,
            // `storeu` has no alignment requirement, and AVX is enabled
            // for this build.
            unsafe { _mm256_storeu_ps(dst, self.0) }
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
        fn all_lt(self, o: Self) -> bool {
            // SAFETY: register-only; AVX is enabled for this build.
            unsafe { _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_LT_OQ>(self.0, o.0)) == 0xff }
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

        /// All eight sums at once: the halves of each own/social pair are
        /// folded (`l + (l+4)`), the four items' folded quads transposed
        /// inside each 128-bit half, and the columns added as
        /// `(c0 + c2) + (c1 + c3)` — which is
        /// `((l0+l4)+(l2+l6))+((l1+l5)+(l3+l7))`, `reduce_lanes`. Blend and
        /// store are 4 wide.
        #[inline(always)]
        fn reduce_blend(o: [Self; 4], s: [Self; 4], alpha: f32, out: &mut [f32; 4]) {
            // SAFETY: everything up to the store is register arithmetic
            // and AVX is enabled for this build; the store writes the four
            // floats of `out`, with no alignment requirement.
            unsafe {
                // h[t] = [o[t].lo + o[t].hi | s[t].lo + s[t].hi]
                let fold = |o: Self, s: Self| {
                    _mm256_add_ps(
                        _mm256_permute2f128_ps::<0x20>(o.0, s.0),
                        _mm256_permute2f128_ps::<0x31>(o.0, s.0),
                    )
                };
                let h = [
                    fold(o[0], s[0]),
                    fold(o[1], s[1]),
                    fold(o[2], s[2]),
                    fold(o[3], s[3]),
                ];
                // 4x4 transpose inside each 128-bit half: c[q] holds
                // element `q` of the four items' folded quads.
                let t0 = _mm256_unpacklo_ps(h[0], h[1]);
                let t1 = _mm256_unpackhi_ps(h[0], h[1]);
                let t2 = _mm256_unpacklo_ps(h[2], h[3]);
                let t3 = _mm256_unpackhi_ps(h[2], h[3]);
                let c0 = _mm256_shuffle_ps::<0x44>(t0, t2);
                let c1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
                let c2 = _mm256_shuffle_ps::<0x44>(t1, t3);
                let c3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
                // [own·item0..3 | social·item0..3]
                let dots = _mm256_add_ps(_mm256_add_ps(c0, c2), _mm256_add_ps(c1, c3));
                let blended = _mm_add_ps(
                    _mm_mul_ps(_mm_set1_ps(1.0 - alpha), _mm256_castps256_ps128(dots)),
                    _mm_mul_ps(_mm_set1_ps(alpha), _mm256_extractf128_ps::<1>(dots)),
                );
                _mm_storeu_ps(out.as_mut_ptr(), blended);
            }
        }
    }
}

#[cfg(any(test, not(all(target_arch = "x86_64", target_feature = "avx2"))))]
pub(crate) use portable::Portable;

#[cfg(any(test, not(all(target_arch = "x86_64", target_feature = "avx2"))))]
mod portable {
    use super::{reduce_lanes, Lane8, LANES};

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
        /// # Safety
        /// As [`Lane8::loadu_ptr`]: eight readable floats at `src`.
        #[inline(always)]
        unsafe fn loadu_ptr(src: *const f32) -> Self {
            // SAFETY: the caller vouches for eight readable floats, and an
            // array of `f32` is aligned like one `f32`.
            Self(unsafe { src.cast::<[f32; LANES]>().read() })
        }

        /// # Safety
        /// As [`Lane8::storeu_ptr`]: eight writable floats at `dst`.
        #[inline(always)]
        unsafe fn storeu_ptr(self, dst: *mut f32) {
            // SAFETY: the caller vouches for eight writable floats, and an
            // array of `f32` is aligned like one `f32`.
            unsafe { dst.cast::<[f32; LANES]>().write(self.0) }
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
        fn all_lt(self, o: Self) -> bool {
            (0..LANES).all(|l| self.0[l] < o.0[l])
        }

        #[inline(always)]
        fn exp2i(self) -> Self {
            Self(
                self.0
                    .map(|a| f32::from_bits(a.to_bits().wrapping_add(127) << 23)),
            )
        }

        #[inline(always)]
        fn reduce_blend(o: [Self; 4], s: [Self; 4], alpha: f32, out: &mut [f32; 4]) {
            for t in 0..4 {
                out[t] = (1.0 - alpha) * reduce_lanes(&o[t].0) + alpha * reduce_lanes(&s[t].0);
            }
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

    /// `all_lt` is `select_lt`'s comparison in every lane at once: one
    /// lane that fails it — equal, greater, NaN, or a zero against a zero —
    /// makes the whole vector fail, wherever that lane sits.
    fn all_lt_needs_every_lane<L: Lane8>() {
        let all = |v: [f32; LANES], o: f32| L::loadu(&v).all_lt(L::splat(o));
        assert!(all([0.5; LANES], 0.625));
        assert!(all([-f32::INFINITY; LANES], f32::MIN));
        assert!(!all([-0.0; LANES], 0.0));
        for l in 0..LANES {
            for bad in [0.625, 7.0, f32::NAN, f32::INFINITY] {
                let mut v = [0.5; LANES];
                v[l] = bad;
                assert!(!all(v, 0.625), "lane {l} = {bad}");
            }
        }
        assert!(!L::splat(0.5).all_lt(L::splat(f32::NAN)));
    }

    /// Four stored accumulator vectors: one side of a `reduce_blend`.
    type Accs = [[f32; LANES]; 4];

    /// `(own, social)` accumulators for `reduce_blend`: lanes drawn from
    /// signed zeros, subnormals, infinities (`1e30 * 1e30` overflowed),
    /// 3e38 magnitudes (whose sums overflow, and whose infinities cancel to
    /// NaN) and ordinary values; then ordinary values with a single payload
    /// NaN placed in each lane of each of the eight vectors in turn.
    fn blend_cases() -> Vec<(Accs, Accs)> {
        let huge = std::hint::black_box(1.0e30f32) * 1.0e30;
        let pool = [
            0.0, -0.0, 1.0e-40, -1.0e-40, 3.0e38, -3.0e38, huge, -huge, 0.625, -1.5, 7.0, 1.0e-3,
        ];
        let mut state = 1u32;
        let mut accs = |from: &[f32]| -> Accs {
            [(); 4].map(|()| {
                [(); LANES].map(|()| {
                    state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                    from[(state >> 8) as usize % from.len()]
                })
            })
        };
        let mut cases: Vec<_> = (0..64).map(|_| (accs(&pool), accs(&pool))).collect();
        for at in 0..2 * 4 * LANES {
            let (mut own, mut social) = (accs(&pool[8..]), accs(&pool[8..]));
            let side = if at < 4 * LANES {
                &mut own
            } else {
                &mut social
            };
            side[at / LANES % 4][at % LANES] = f32::from_bits(0x7FC1_2345);
            cases.push((own, social));
        }
        cases
    }

    fn reduce_blend_of<L: Lane8>((own, social): &(Accs, Accs), alpha: f32) -> [f32; 4] {
        let mut got = [0.0; 4];
        let load = |side: &Accs| side.map(|v| L::loadu(&v));
        L::reduce_blend(load(own), load(social), alpha, &mut got);
        got
    }

    /// Bitwise, with any NaN equal to any NaN: infinities that cancel make
    /// a NaN whose sign is the instruction's (or the constant folder's).
    fn same_bits(a: [f32; 4], b: [f32; 4]) -> bool {
        (0..4).all(|t| a[t].to_bits() == b[t].to_bits() || (a[t].is_nan() && b[t].is_nan()))
    }

    fn reduce_blend_is_the_scalar_blend_of_the_reduced_lanes<L: Lane8>() {
        for (i, case) in blend_cases().iter().enumerate() {
            for alpha in [0.6f32, 1.0] {
                let want: [f32; 4] = core::array::from_fn(|t| {
                    (1.0 - alpha) * reduce_lanes(&case.0[t]) + alpha * reduce_lanes(&case.1[t])
                });
                let got = reduce_blend_of::<L>(case, alpha);
                assert!(
                    same_bits(got, want),
                    "case {i} alpha {alpha}: {got:?} vs {want:?}"
                );
            }
        }
    }

    /// A ramp moved through the pointer forms at every offset `0..8` of a
    /// longer buffer: exactly floats `at .. at + 8` are read and written,
    /// lane `l` at `at + l`.
    fn pointer_forms_move_eight_floats_at_any_offset<L: Lane8>() {
        let ramp: [f32; 2 * LANES] = core::array::from_fn(|i| i as f32 - 3.5);
        for at in 0..LANES {
            let mut buf = [0.0f32; 2 * LANES];
            // SAFETY: `at + 8 <= 15`, inside both sixteen-float buffers.
            unsafe { L::loadu_ptr(ramp.as_ptr().add(at)).storeu_ptr(buf.as_mut_ptr().add(at)) };
            let want: [f32; 2 * LANES] = core::array::from_fn(|i| {
                if (at..at + LANES).contains(&i) {
                    ramp[i]
                } else {
                    0.0
                }
            });
            assert_eq!(buf.map(f32::to_bits), want.map(f32::to_bits), "offset {at}");
        }
    }

    fn keeps_the_lane_contract<L: Lane8>() {
        min_returns_its_second_operand::<L>();
        exp2i_spells_every_normal_power_of_two::<L>();
        bit_ops_keep_every_other_bit::<L>();
        all_lt_needs_every_lane::<L>();
        reduce_blend_is_the_scalar_blend_of_the_reduced_lanes::<L>();
        pointer_forms_move_eight_floats_at_any_offset::<L>();
    }

    #[test]
    fn each_form_keeps_the_lane_contract() {
        keeps_the_lane_contract::<Portable>();
        #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
        keeps_the_lane_contract::<Avx2>();
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
                assert_eq!(pa.all_lt(pb), va.all_lt(vb), "all_lt({a:e}, {b:e})");
                // `a` in one lane, `-∞` (below every `b` but `-∞` and NaN)
                // in the other seven.
                for l in 0..LANES {
                    let mut lanes = [-f32::INFINITY; LANES];
                    lanes[l] = a;
                    assert_eq!(
                        Portable::loadu(&lanes).all_lt(pb),
                        Avx2::loadu(&lanes).all_lt(vb),
                        "all_lt({a:e} in lane {l}, {b:e})"
                    );
                }
            }
        }
        // Lanes keep their places through a load and a store (the pointer
        // forms at every offset: `each_form_keeps_the_lane_contract`).
        let ramp: [f32; LANES] = core::array::from_fn(|l| l as f32 - 3.5);
        assert_eq!(bits(out(Avx2::loadu(&ramp))), bits(ramp));
        assert_eq!(bits(out(Portable::loadu(&ramp))), bits(ramp));
        // The one cross-lane op (each form is also held to its scalar
        // definition in `each_form_keeps_the_lane_contract`).
        for (i, case) in blend_cases().iter().enumerate() {
            for alpha in [0.6f32, 1.0] {
                let (x, p) = (
                    reduce_blend_of::<Avx2>(case, alpha),
                    reduce_blend_of::<Portable>(case, alpha),
                );
                assert!(same_bits(x, p), "case {i} alpha {alpha}: {x:?} vs {p:?}");
            }
        }
    }
}
