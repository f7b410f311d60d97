//! Counter-based deterministic random numbers.
//!
//! All SIMCoV stochasticity is produced by stateless hashing of
//! `(seed, stream, step, id, draw#)`. Unlike a sequential PRNG, the value of
//! any draw is independent of *which rank or device computes it* and of the
//! order in which voxels are processed — the property the SIMCoV-GPU paper
//! needed for its staged, deterministic T-cell movement (§4.1) and for the
//! one-wave bid tiebreak (§3.1). This lets two devices independently compute
//! identical tiebreak outcomes for a shared boundary voxel.
//!
//! The mixer is the 64-bit finalizer from SplitMix64 / MurmurHash3 applied to
//! a multi-word key folded with distinct odd constants; it passes the usual
//! per-bit avalanche smoke tests (see the tests below) and is far cheaper
//! than cryptographic counters, matching the paper's "large range of
//! integers" bid generation where genuine ties are negligibly unlikely.
//!
//! The fold is a chain, so its `(seed, stream, step)` prefix is one value per
//! step: [`StepKey`] folds it once and [`StepKey::rng`] folds only the id.
//! [`CounterRng::new`] is that pair, so a hoisted key draws exactly what an
//! unhoisted one does; a test pins every draw to a CRC taken before the split.

/// Independent named stochastic streams. Using distinct streams for distinct
/// model decisions guarantees that, e.g., an infection draw can never be
/// correlated with a movement draw at the same `(step, voxel)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u64)]
pub enum Stream {
    /// Which voxel an extravasation trial lands on.
    ExtravVoxel = 1,
    /// Whether the trial succeeds given the local chemokine level.
    ExtravProb = 2,
    /// Tissue-residence lifetime of a newly extravasated T cell.
    TCellLife = 3,
    /// T-cell action selection (bind-candidate choice, move direction).
    TCellAction = 4,
    /// The 64-bit movement/binding bid ("large range of integers", §3.1).
    TCellBid = 5,
    /// Healthy→incubating infection draw.
    Infection = 6,
    /// Poisson incubation period at infection time.
    IncubationPeriod = 7,
    /// Poisson expressing period at expression time.
    ExpressingPeriod = 8,
    /// Poisson apoptosis period at binding time.
    ApoptosisPeriod = 9,
    /// Binding probability draw.
    BindProb = 10,
    /// FOI placement (random / CT-lesion seeding).
    FoiPlacement = 11,
}

#[inline(always)]
fn splitmix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58476d1ce4e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d049bb133111eb);
    x ^= x >> 31;
    x
}

/// The `(seed, stream, step)` prefix of a [`CounterRng`] key, folded once.
#[derive(Debug, Clone, Copy)]
pub struct StepKey(u64);

impl StepKey {
    #[inline]
    pub fn new(seed: u64, stream: Stream, step: u64) -> Self {
        // Fold the key words through the mixer with distinct odd constants so
        // no two (stream, step, id) triples collide in practice.
        let mut h = splitmix(seed ^ 0x9e3779b97f4a7c15);
        h = splitmix(h ^ (stream as u64).wrapping_mul(0xd1b54a32d192ed03));
        StepKey(splitmix(h ^ step.wrapping_mul(0x8cb92ba72f3d8dd7)))
    }

    /// The generator for entity `id` (global voxel index, trial index, ...).
    #[inline]
    pub fn rng(self, id: u64) -> CounterRng {
        CounterRng {
            base: splitmix(self.0 ^ id.wrapping_mul(0xaef17502108ef2d9)),
            draw: 0,
        }
    }
}

/// A stateless counter RNG keyed on `(seed, stream, step, id)`. Multiple
/// draws under one key are obtained by bumping an internal draw counter, so
/// a `CounterRng` value is cheap and `Copy`-free but fully deterministic.
#[derive(Debug, Clone)]
pub struct CounterRng {
    base: u64,
    draw: u64,
}

impl CounterRng {
    /// Key a stream for a given simulation step and entity id (global voxel
    /// index, trial index, ...).
    #[inline]
    pub fn new(seed: u64, stream: Stream, step: u64, id: u64) -> Self {
        StepKey::new(seed, stream, step).rng(id)
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let v = splitmix(self.base ^ self.draw.wrapping_mul(0x2545f4914f6cdd1d));
        self.draw = self.draw.wrapping_add(1);
        v
    }

    /// Uniform double in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)` via Lemire's widening-multiply method
    /// (without the rejection step: the bias for n ≪ 2⁶⁴ is < n/2⁶⁴ and
    /// irrelevant for simulation purposes, while keeping the draw count
    /// fixed — important for reproducibility across executors).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        (((self.next_u64() as u128) * (n as u128)) >> 64) as u64
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Poisson-distributed sample with the given mean, by Knuth's product
    /// method for small means and a clamped Gaussian approximation (via
    /// Box–Muller) for large means. SIMCoV draws epithelial state periods
    /// (means of order 10²–10³ steps) from Poisson distributions; the
    /// Gaussian tail behaviour is indistinguishable at those means. Always
    /// returns at least 1 so a state never lasts zero steps.
    pub fn poisson(&mut self, mean: f64) -> u32 {
        debug_assert!(mean >= 0.0);
        if mean <= 0.0 {
            return 1;
        }
        if mean < 30.0 {
            // Knuth: multiply uniforms until below e^-mean.
            let l = (-mean).exp();
            let mut k = 0u32;
            let mut p = 1.0f64;
            loop {
                p *= self.next_f64();
                if p <= l || k > 10_000 {
                    break;
                }
                k += 1;
            }
            k.max(1)
        } else {
            // Gaussian approximation: N(mean, mean), rounded, clamped at 1.
            let u1 = self.next_f64().max(f64::MIN_POSITIVE);
            let u2 = self.next_f64();
            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            let v = mean + mean.sqrt() * z;
            v.round().max(1.0) as u32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = CounterRng::new(42, Stream::TCellBid, 7, 1234);
        let mut b = CounterRng::new(42, Stream::TCellBid, 7, 1234);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn distinct_streams_differ() {
        let mut a = CounterRng::new(42, Stream::TCellBid, 7, 1234);
        let mut b = CounterRng::new(42, Stream::TCellAction, 7, 1234);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn distinct_ids_and_steps_differ() {
        let mut a = CounterRng::new(42, Stream::Infection, 7, 1);
        let mut b = CounterRng::new(42, Stream::Infection, 7, 2);
        let mut c = CounterRng::new(42, Stream::Infection, 8, 1);
        let x = a.next_u64();
        assert_ne!(x, b.next_u64());
        assert_ne!(x, c.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = CounterRng::new(1, Stream::ExtravProb, 0, 0);
        for _ in 0..1000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn below_in_range_and_roughly_uniform() {
        let mut r = CounterRng::new(3, Stream::ExtravVoxel, 0, 0);
        let n = 10u64;
        let mut counts = [0u32; 10];
        for _ in 0..10_000 {
            let v = r.below(n);
            assert!(v < n);
            counts[v as usize] += 1;
        }
        for &c in &counts {
            // Expected 1000 ± a few sigma.
            assert!((700..1300).contains(&c), "bucket count {c} out of range");
        }
    }

    #[test]
    fn poisson_mean_small() {
        let mut r = CounterRng::new(5, Stream::IncubationPeriod, 0, 0);
        let mean = 8.0;
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| r.poisson(mean) as u64).sum();
        let emp = sum as f64 / n as f64;
        assert!((emp - mean).abs() < 0.2, "empirical mean {emp}");
    }

    #[test]
    fn poisson_mean_large() {
        let mut r = CounterRng::new(5, Stream::ExpressingPeriod, 0, 0);
        let mean = 900.0;
        let n = 5_000;
        let sum: u64 = (0..n).map(|_| r.poisson(mean) as u64).sum();
        let emp = sum as f64 / n as f64;
        assert!((emp - mean).abs() < 5.0, "empirical mean {emp}");
    }

    #[test]
    fn poisson_never_zero() {
        let mut r = CounterRng::new(5, Stream::ApoptosisPeriod, 0, 0);
        for _ in 0..1000 {
            assert!(r.poisson(0.5) >= 1);
            assert!(r.poisson(100.0) >= 1);
        }
    }

    #[test]
    fn avalanche_smoke() {
        // Flipping one bit of the id should flip ~half the output bits.
        let mut total = 0u32;
        let samples = 256;
        for i in 0..samples {
            let a = CounterRng::new(9, Stream::TCellBid, 3, i).next_u64();
            let b = CounterRng::new(9, Stream::TCellBid, 3, i ^ 1).next_u64();
            total += (a ^ b).count_ones();
        }
        let avg = total as f64 / samples as f64;
        assert!((24.0..40.0).contains(&avg), "avalanche average {avg}");
    }

    const STREAMS: [Stream; 11] = [
        Stream::ExtravVoxel,
        Stream::ExtravProb,
        Stream::TCellLife,
        Stream::TCellAction,
        Stream::TCellBid,
        Stream::Infection,
        Stream::IncubationPeriod,
        Stream::ExpressingPeriod,
        Stream::ApoptosisPeriod,
        Stream::BindProb,
        Stream::FoiPlacement,
    ];

    /// Every `(seed, stream, step, id)` key of the pin sweep: all streams,
    /// the step and id edges, and seeded ids.
    fn pin_keys() -> Vec<(u64, Stream, u64, u64)> {
        let mut seeded = CounterRng::new(0x5EED, Stream::TCellBid, 0, 0);
        let mut ids = vec![0, 1, u64::from(u32::MAX), u64::MAX];
        ids.extend((0..8).map(|_| seeded.next_u64()));
        let mut keys = Vec::new();
        for seed in [0, 2024, u64::MAX] {
            for stream in STREAMS {
                for step in [0, 1, 517, u64::MAX] {
                    keys.extend(ids.iter().map(|&id| (seed, stream, step, id)));
                }
            }
        }
        keys
    }

    /// The outputs of every draw method under one key, in a fixed order.
    fn draws(mut r: CounterRng) -> Vec<u64> {
        vec![
            r.next_u64(),
            r.below(7),
            r.below(u64::MAX),
            r.next_f64().to_bits(),
            u64::from(r.poisson(8.0)),
            u64::from(r.poisson(480.0)),
            r.next_u64(),
        ]
    }

    /// The draw values are part of every recorded trajectory: this CRC was
    /// captured before the key fold was split into `StepKey`, so any change
    /// to a single value fails here first.
    #[test]
    fn draws_are_pinned() {
        let mut crc = pgas::Crc64::new();
        for (seed, stream, step, id) in pin_keys() {
            for v in draws(CounterRng::new(seed, stream, step, id)) {
                crc.write_u64(v);
            }
        }
        assert_eq!(crc.finish(), 0xaeca_91f7_dccd_1733);
    }

    #[test]
    fn a_hoisted_step_key_draws_what_counter_rng_new_draws() {
        for (seed, stream, step, id) in pin_keys() {
            let key = StepKey::new(seed, stream, step);
            assert_eq!(
                draws(key.rng(id)),
                draws(CounterRng::new(seed, stream, step, id)),
                "{seed} {stream:?} {step} {id}"
            );
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = CounterRng::new(11, Stream::BindProb, 0, 0);
        for _ in 0..100 {
            assert!(!r.chance(0.0));
            assert!(r.chance(1.0 + 1e-9));
        }
    }
}
