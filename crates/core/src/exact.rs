//! Exact (superaccumulator) summation of `f32` samples.
//!
//! The statistics reduction sums per-voxel `f32` concentrations into run
//! totals. Plain `f64` accumulation is *order dependent* — re-associating the
//! sum across a different rank/device partition perturbs the result by ULPs —
//! which would make the recovery protocol's "bitwise identical `TimeSeries`"
//! guarantee impossible: recovery re-partitions the domain across survivors.
//!
//! [`ExactSum`] sidesteps rounding entirely: every `f32` is a rational with a
//! 24-bit significand and an exponent in `[-149, 104]`, so the sum of any
//! realistic number of them fits exactly in a 320-bit fixed-point register
//! (bit 0 = 2⁻¹⁴⁹, top value bit ≤ 2¹²⁸·2⁴³ headroom ≈ 8·10¹² additions of
//! `f32::MAX` before overflow). Addition of limbs is associative and
//! commutative, so **any** partition, reduction-tree shape or replay order
//! produces bit-identical totals — the serial reference, the CPU executor and
//! the GPU executor all agree exactly, before and after a recovery.
//!
//! Per-voxel sweeps add through a [`BinnedSum`], which defers the carry work:
//! one `u64` of mantissa sum per biased exponent, folded into an [`ExactSum`]
//! once per sweep. Integer addition is exact, so the fold has the same limbs
//! as adding every sample with [`ExactSum::add_f32`].

use std::ops::AddAssign;

/// Number of 64-bit limbs: 320 bits spans `[2⁻¹⁴⁹, 2¹⁷¹)`.
const LIMBS: usize = 5;

/// A fixed-point superaccumulator for non-negative finite `f32` values.
///
/// Little-endian limbs; bit 0 of limb 0 has weight 2⁻¹⁴⁹ (the smallest
/// subnormal `f32`), so every `f32` embeds exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExactSum {
    limbs: [u64; LIMBS],
}

impl ExactSum {
    pub const fn zero() -> Self {
        ExactSum { limbs: [0; LIMBS] }
    }

    /// True if no non-zero value has been added.
    pub fn is_zero(&self) -> bool {
        self.limbs == [0; LIMBS]
    }

    /// Add one sample exactly. The model's concentration fields are clamped
    /// non-negative, so only non-negative finite inputs are supported
    /// (debug-asserted; negative/NaN inputs indicate a model bug upstream).
    pub fn add_f32(&mut self, v: f32) {
        debug_assert!(
            v.is_finite() && v >= 0.0,
            "ExactSum supports non-negative finite samples, got {v}"
        );
        let bits = v.to_bits();
        let exp = ((bits >> 23) & 0xFF) as i32;
        let frac = bits & 0x7F_FFFF;
        let (mant, e) = if exp == 0 {
            if frac == 0 {
                return; // ±0 contributes nothing
            }
            (frac as u64, -149) // subnormal: frac · 2⁻¹⁴⁹
        } else {
            ((frac | 0x80_0000) as u64, exp - 150) // normal: (2²³+frac) · 2^(exp−150)
        };
        // Weight of the mantissa's bit 0 relative to the register's bit 0.
        let p = (e + 149) as u32;
        self.add_wide((p / 64) as usize, (mant as u128) << (p % 64));
    }

    /// Add `wide` at limb offset `limb`, propagating carries upward.
    fn add_wide(&mut self, limb: usize, wide: u128) {
        let mut i = limb;
        let mut rem = wide;
        while rem != 0 {
            assert!(i < LIMBS, "ExactSum overflow (≫10¹² f32::MAX additions)");
            let (sum, carry) = self.limbs[i].overflowing_add(rem as u64);
            self.limbs[i] = sum;
            rem = (rem >> 64) + carry as u128;
            i += 1;
        }
    }

    /// Round the exact total to the nearest `f64` (deterministic for a given
    /// exact value — independent of how the total was assembled).
    pub fn to_f64(&self) -> f64 {
        // High-to-low cascade: each fold is exact until the value exceeds
        // 2⁵³, after which rounding depends only on the exact prefix value.
        let mut acc = 0.0f64;
        for limb in self.limbs.iter().rev() {
            acc = acc * 18_446_744_073_709_551_616.0 + *limb as f64; // ·2⁶⁴
        }
        acc * 2f64.powi(-149)
    }
}

/// Non-zero samples a [`BinnedSum`] takes before it folds its bins: each adds
/// less than 2²⁴ to one `u64` bin, so 2⁴⁰ of them cannot overflow it.
const BIN_SAMPLES: u64 = 1 << 40;

/// An exact accumulator at one integer add per sample (Neal's small
/// superaccumulator): bin `e` sums the 24-bit mantissas of the samples whose
/// biased `f32` exponent is `e`, and [`BinnedSum::sum`] shifts each non-zero
/// bin into an [`ExactSum`]. Bit 0 of bin `e` weighs 2^(max(e, 1) − 150):
/// subnormals (`e` = 0) share bin 1's scale, exactly as in
/// [`ExactSum::add_f32`]. Like that reference, the sign bit is ignored and
/// exponent 255 is treated as a normal exponent, so the total has the same
/// limbs for every input. After 2⁴⁰ non-zero samples the bins fold into the
/// running total, so no bin can overflow.
#[derive(Debug)]
pub struct BinnedSum {
    bins: [u64; 256],
    /// Non-zero samples the bins may still take before they must fold.
    left: u64,
    folded: ExactSum,
}

impl Default for BinnedSum {
    fn default() -> Self {
        Self::new()
    }
}

impl BinnedSum {
    pub const fn new() -> Self {
        BinnedSum {
            bins: [0; 256],
            left: BIN_SAMPLES,
            folded: ExactSum::zero(),
        }
    }

    /// Add one sample exactly. ±0 is skipped by a branch: a long run of
    /// zeros added into bin 0 would chain every add through one store.
    #[inline]
    pub fn add(&mut self, v: f32) {
        let bits = v.to_bits() & 0x7FFF_FFFF;
        if bits == 0 {
            return;
        }
        let exp = bits >> 23;
        let mant = (bits & 0x7F_FFFF) | (u32::from(exp != 0) << 23);
        self.bins[exp as usize] += u64::from(mant);
        self.left -= 1;
        if self.left == 0 {
            self.fold();
        }
    }

    /// Move the bins into the running total and empty them.
    #[cold]
    fn fold(&mut self) {
        self.folded = self.sum();
        self.bins = [0; 256];
        self.left = BIN_SAMPLES;
    }

    /// The exact total of every sample added so far.
    pub fn sum(&self) -> ExactSum {
        let mut total = self.folded;
        for (exp, &bin) in self.bins.iter().enumerate() {
            if bin != 0 {
                // Weight of the bin's bit 0 relative to the register's bit 0.
                let p = exp.max(1) - 1;
                total.add_wide(p / 64, u128::from(bin) << (p % 64));
            }
        }
        total
    }
}

impl AddAssign for ExactSum {
    /// Merge two accumulators (the reduction combine). Limb-wise addition
    /// with carry: exactly associative and commutative.
    fn add_assign(&mut self, o: ExactSum) {
        let mut carry = 0u128;
        for i in 0..LIMBS {
            let s = self.limbs[i] as u128 + o.limbs[i] as u128 + carry;
            self.limbs[i] = s as u64;
            carry = s >> 64;
        }
        assert!(carry == 0, "ExactSum overflow in merge");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix(mut x: u64) -> u64 {
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58476d1ce4e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d049bb133111eb);
        x ^ (x >> 31)
    }

    fn sample_values(n: usize, seed: u64) -> Vec<f32> {
        (0..n)
            .map(|i| {
                // Mix magnitudes wildly: uniform mantissa, exponent spread
                // over ~60 binades, plus exact zeros and subnormals.
                let u = mix(seed ^ (i as u64).wrapping_mul(0x9e3779b97f4a7c15));
                match u % 7 {
                    0 => 0.0,
                    1 => f32::from_bits((u % 0x7F_FFFF) as u32 + 1), // subnormal
                    _ => {
                        let m = (u >> 8) as f32 / (1u64 << 56) as f32 + 0.5;
                        let e = ((u >> 3) % 61) as i32 - 30;
                        m * 2f32.powi(e)
                    }
                }
            })
            .collect()
    }

    #[test]
    fn embeds_single_values_exactly() {
        for v in [
            0.0f32,
            1.0,
            0.5,
            3.25,
            f32::MAX,
            f32::MIN_POSITIVE,
            f32::from_bits(1), // smallest subnormal
            1e-38,
            6.1e4,
        ] {
            let mut s = ExactSum::zero();
            s.add_f32(v);
            assert_eq!(s.to_f64(), v as f64, "exact embed of {v}");
        }
    }

    #[test]
    fn order_and_grouping_invariant() {
        let vals = sample_values(4096, 42);
        // Straight left-to-right.
        let mut a = ExactSum::zero();
        for &v in &vals {
            a.add_f32(v);
        }
        // Reversed.
        let mut b = ExactSum::zero();
        for &v in vals.iter().rev() {
            b.add_f32(v);
        }
        // Blocked into 7 uneven partial sums, merged pairwise like a
        // reduction tree.
        let mut parts: Vec<ExactSum> = vals
            .chunks(vals.len() / 7 + 1)
            .map(|c| {
                let mut s = ExactSum::zero();
                for &v in c {
                    s.add_f32(v);
                }
                s
            })
            .collect();
        while parts.len() > 1 {
            let hi = parts.split_off(parts.len().div_ceil(2));
            for (i, h) in hi.into_iter().enumerate() {
                parts[i] += h;
            }
        }
        assert_eq!(a, b);
        assert_eq!(a, parts[0]);
        assert_eq!(a.to_f64().to_bits(), parts[0].to_f64().to_bits());
    }

    #[test]
    fn agrees_with_naive_f64_within_ulps() {
        let vals = sample_values(10_000, 7);
        let naive: f64 = vals.iter().map(|&v| v as f64).sum();
        let mut s = ExactSum::zero();
        for &v in &vals {
            s.add_f32(v);
        }
        let exact = s.to_f64();
        let rel = (exact - naive).abs() / naive.abs().max(1e-300);
        assert!(rel < 1e-11, "exact {exact} vs naive {naive} (rel {rel})");
    }

    #[test]
    fn small_integer_sums_are_exact() {
        let mut s = ExactSum::zero();
        for _ in 0..1000 {
            s.add_f32(1.5);
        }
        assert_eq!(s.to_f64(), 1500.0);
    }

    #[test]
    fn merge_is_commutative() {
        let vals = sample_values(512, 9);
        let (lo, hi) = vals.split_at(200);
        let mk = |vs: &[f32]| {
            let mut s = ExactSum::zero();
            for &v in vs {
                s.add_f32(v);
            }
            s
        };
        let mut ab = mk(lo);
        ab += mk(hi);
        let mut ba = mk(hi);
        ba += mk(lo);
        assert_eq!(ab, ba);
    }

    /// The per-sample reference: `add_f32` over every sample.
    fn looped(vals: &[f32]) -> ExactSum {
        let mut s = ExactSum::zero();
        for &v in vals {
            s.add_f32(v);
        }
        s
    }

    fn binned(vals: &[f32]) -> ExactSum {
        let mut b = BinnedSum::new();
        for &v in vals {
            b.add(v);
        }
        b.sum()
    }

    #[test]
    fn binned_sum_matches_the_loop_on_edge_values() {
        let edges = [
            0.0f32,
            -0.0,
            f32::from_bits(1),         // smallest subnormal
            f32::from_bits(0x7F_FFFF), // largest subnormal
            f32::from_bits(3),
            f32::MIN_POSITIVE,
            f32::from_bits(0x0080_0001), // bin 1, odd mantissa
            1.0,
            f32::MAX,
        ];
        for &v in &edges {
            assert_eq!(binned(&[v]), looped(&[v]), "{v:e}");
        }
        // Every pair, and many copies of each, so subnormals carry into bin
        // 1's scale and `f32::MAX` into the top limb.
        for &a in &edges {
            for &b in &edges {
                assert_eq!(binned(&[a, b]), looped(&[a, b]), "{a:e} + {b:e}");
            }
            let run = vec![a; 1000];
            assert_eq!(binned(&run), looped(&run), "1000 × {a:e}");
        }
    }

    #[test]
    fn binned_sum_matches_the_loop_on_long_runs_of_one_exponent() {
        // 2²⁰ samples in [1, 2) (biased exponent 127), then the same count of
        // the largest mantissa at the top exponent, then subnormals.
        let ones: Vec<f32> = (0..1u32 << 20)
            .map(|i| f32::from_bits(0x3F80_0000 | (i.wrapping_mul(2_654_435_761) & 0x7F_FFFF)))
            .collect();
        assert_eq!(binned(&ones), looped(&ones));
        let tops = vec![f32::MAX; 1 << 20];
        assert_eq!(binned(&tops), looped(&tops));
        let subs: Vec<f32> = (1..=1u32 << 16).map(|i| f32::from_bits(i << 7)).collect();
        assert_eq!(binned(&subs), looped(&subs));
    }

    #[test]
    fn binned_parts_merge_to_the_loop() {
        let vals = sample_values(100_000, 2024);
        let whole = looped(&vals);
        assert_eq!(binned(&vals), whole);
        // Seeded cut points split the samples into uneven accumulators.
        for seed in 0..8u64 {
            let mut cuts: Vec<usize> = (0..1 + seed as usize)
                .map(|k| (mix(seed * 31 + k as u64) % vals.len() as u64) as usize)
                .collect();
            cuts.extend([0, vals.len()]);
            cuts.sort_unstable();
            let mut merged = ExactSum::zero();
            for w in cuts.windows(2) {
                merged += binned(&vals[w[0]..w[1]]);
            }
            assert_eq!(merged, whole, "seed {seed}, cuts {cuts:?}");
        }
    }

    #[test]
    fn binned_sum_follows_add_f32_outside_its_contract() {
        // `add_f32` debug-asserts non-negative finite samples; in release it
        // drops the sign bit and treats exponent 255 as a normal exponent.
        // That behaviour is rebuilt here from in-contract samples of equal
        // weight: −x weighs x, and exponent 255 weighs twice exponent 254.
        let neg = -3.25f32;
        assert_eq!(binned(&[neg, 1.0]), looped(&[3.25, 1.0]));
        for bits in [0x7F80_0000u32, 0x7FC0_0001, 0xFF80_0000] {
            let half = f32::from_bits((bits & 0x807F_FFFF) | 254 << 23).abs();
            assert_eq!(
                binned(&[f32::from_bits(bits), 1.0]),
                looped(&[half, half, 1.0]),
                "bits {bits:#x}"
            );
            if !cfg!(debug_assertions) {
                assert_eq!(
                    binned(&[f32::from_bits(bits)]),
                    looped(&[f32::from_bits(bits)])
                );
            }
        }
        if !cfg!(debug_assertions) {
            assert_eq!(binned(&[neg]), looped(&[neg]));
        }
    }

    #[test]
    fn binned_sum_folds_before_a_bin_can_overflow() {
        // Bins preloaded as if 2⁴⁰ − 1 samples of the largest mantissa at
        // exponent 100 had been added; 2¹⁷ more would overflow the `u64` bin
        // (it holds 2⁴⁰ + 2¹⁶ of them) unless the guard folds it first.
        let top = f32::from_bits(100 << 23 | 0x7F_FFFF);
        let mut b = BinnedSum::new();
        b.bins[100] = (BIN_SAMPLES - 1) * 0xFF_FFFF;
        b.left = 1;
        let more = 1usize << 17;
        for _ in 0..more {
            b.add(top);
        }
        // Reference: the preloaded bin is 2⁴⁰·top − top, one sample at
        // exponent 140 with the same mantissa minus one `top`.
        let mut reference = looped(&vec![top; more - 1]);
        reference.add_f32(f32::from_bits(140 << 23 | 0x7F_FFFF));
        assert_eq!(b.sum(), reference);
        assert_eq!(b.left, BIN_SAMPLES - (more as u64 - 1));
    }

    #[test]
    fn overflow_headroom_is_ample() {
        // A worst-case realistic run: 10⁹ voxels of 10⁶ each stays far from
        // the 2¹⁷¹ register ceiling.
        let mut s = ExactSum::zero();
        for _ in 0..1_000 {
            s.add_f32(1e6);
        }
        let mut total = ExactSum::zero();
        for _ in 0..1_000 {
            total += s;
        }
        assert!((total.to_f64() - 1e12).abs() < 1.0);
    }
}
