//! Property-style tests over randomized configurations: model invariants
//! that must hold for *every* parameter draw, plus cross-executor equality
//! as a property. Randomness comes from the workspace's own deterministic
//! [`CounterRng`] (no external property-testing dependency), so every case
//! is reproducible from its printed case index.

use simcov_repro::simcov_core::epithelial::EpiState;
use simcov_repro::simcov_core::exact::ExactSum;
use simcov_repro::simcov_core::foi::FoiPattern;
use simcov_repro::simcov_core::grid::GridDims;
use simcov_repro::simcov_core::params::SimParams;
use simcov_repro::simcov_core::rng::{CounterRng, Stream};
use simcov_repro::simcov_core::serial::SerialSim;
use simcov_repro::simcov_core::world::World;
use simcov_repro::simcov_cpu::{CpuSim, CpuSimConfig};
use simcov_repro::simcov_driver::Simulation;
use simcov_repro::simcov_gpu::{GpuKnobs, GpuSim, GpuSimConfig, GpuVariant};

const CASES: u64 = 12;

/// Deterministic per-case draw helper over `[lo, hi)`.
struct Draw(CounterRng);

impl Draw {
    fn new(suite: u64, case: u64) -> Self {
        Draw(CounterRng::new(
            0x1b5a_11a7 ^ suite,
            Stream::FoiPlacement,
            case,
            0,
        ))
    }
    fn int(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.0.below(hi - lo)
    }
    fn f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.0.next_f64() * (hi - lo)
    }
    fn f32(&mut self, lo: f32, hi: f32) -> f32 {
        self.f64(lo as f64, hi as f64) as f32
    }
}

/// A randomized small-but-meaningful configuration (the counterpart of the
/// old proptest `arb_params` strategy).
fn arb_params(d: &mut Draw) -> SimParams {
    let x = d.int(12, 28) as u32;
    let y = d.int(12, 28) as u32;
    let steps = d.int(30, 90);
    let foi = d.int(0, 5) as u32;
    let seed = d.0.next_u64();
    let mut p = SimParams::test_config(GridDims::new2d(x, y), steps, foi, seed);
    p.infectivity = d.f64(0.0, 0.01);
    p.virion_diffusion = d.f32(0.0, 0.5);
    p.virion_clearance = d.f32(0.0, 0.05);
    p
}

#[test]
fn serial_invariants_hold() {
    for case in 0..CASES {
        let p = arb_params(&mut Draw::new(1, case));
        let mut sim = SerialSim::new(p.clone());
        let nvox = p.dims.nvoxels() as u64;
        let n_airway = sim.world.count_epi(EpiState::Airway);
        for _ in 0..p.steps {
            sim.advance_step();
            let s = *sim.last_stats().unwrap();
            // Epithelial conservation: states partition the tissue.
            assert_eq!(
                s.epi_healthy
                    + s.epi_incubating
                    + s.epi_expressing
                    + s.epi_apoptotic
                    + s.epi_dead
                    + n_airway,
                nvox,
                "case {case}"
            );
            // Concentration bounds.
            assert!(s.virions >= 0.0, "case {case}");
            assert!(s.chemokine >= 0.0, "case {case}");
            assert!(
                s.chemokine <= nvox as f64,
                "case {case}: chemokine capped at 1/voxel"
            );
            // Tissue T cells can never exceed voxels (one per voxel).
            assert!(s.tcells_tissue <= nvox, "case {case}");
            // Per-voxel invariants.
            for v in 0..p.dims.nvoxels() {
                let c = sim.world.chemokine.get(v);
                assert!((0.0..=1.0).contains(&c), "case {case}");
                assert!(sim.world.virions.get(v) >= 0.0, "case {case}");
                assert!(
                    !sim.world.tcells[v].is_fresh(),
                    "case {case}: fresh cleared at step end"
                );
            }
        }
    }
}

#[test]
fn executors_agree_on_random_configs() {
    for case in 0..CASES {
        let mut d = Draw::new(2, case);
        let p = arb_params(&mut d);
        let ranks = d.int(2, 6) as usize;
        let devices = d.int(2, 6) as usize;
        let world = World::seeded(&p, FoiPattern::UniformLattice);
        let mut serial = SerialSim::from_world(p.clone(), world.clone());
        serial.run();
        let mut cpu = CpuSim::from_world(CpuSimConfig::new(p.clone(), ranks), world.clone())
            .expect("valid config");
        cpu.run().expect("healthy run");
        let mut gpu = GpuSim::from_world(
            GpuSimConfig::new(p, devices).with_exec(GpuKnobs {
                variant: GpuVariant::Combined,
                ..GpuKnobs::default()
            }),
            world,
        )
        .expect("valid config");
        gpu.run().expect("healthy run");
        assert!(
            serial.world.first_difference(&cpu.gather_world()).is_none(),
            "case {case}: cpu diverged ({ranks} ranks)"
        );
        assert!(
            serial.world.first_difference(&gpu.gather_world()).is_none(),
            "case {case}: gpu diverged ({devices} devices)"
        );
    }
}

#[test]
fn dead_cells_never_resurrect() {
    for case in 0..CASES {
        let p = arb_params(&mut Draw::new(3, case));
        let mut sim = SerialSim::new(p.clone());
        let mut dead_prev = 0u64;
        for _ in 0..p.steps {
            sim.advance_step();
            let dead = sim.last_stats().unwrap().epi_dead;
            assert!(
                dead >= dead_prev,
                "case {case}: dead count must be monotone"
            );
            dead_prev = dead;
        }
    }
}

#[test]
fn quiescent_stays_quiescent() {
    for case in 0..CASES {
        let mut d = Draw::new(4, case);
        let x = d.int(12, 24) as u32;
        let y = d.int(12, 24) as u32;
        let steps = d.int(20, 60);
        let seed = d.0.next_u64();
        // No FOI + no T-cell generation ⇒ nothing ever happens, and the
        // active-list executors must do (almost) no work.
        let mut p = SimParams::test_config(GridDims::new2d(x, y), steps, 0, seed);
        p.tcell_generation_rate = 0.0;
        let mut cpu = CpuSim::new(CpuSimConfig::new(p.clone(), 4)).expect("valid config");
        cpu.run().expect("healthy run");
        let s = cpu.last_stats().unwrap();
        assert_eq!(s.epi_healthy, p.dims.nvoxels() as u64, "case {case}");
        assert_eq!(s.virions, 0.0, "case {case}");
        assert_eq!(
            cpu.total_counters().update.elements,
            0,
            "case {case}: no active voxels, no work"
        );
    }
}

// ---------------------------------------------------------------------------
// Exact-summation properties. The bitwise reproducibility of every executor
// rests on `core::exact::ExactSum` being a true monoid over f32 samples:
// order- and partition-independent, with `zero()` as the neutral element.
// These seeded property tests exercise it over adversarial cohorts — random
// exponents across the whole f32 range, subnormals, and huge/tiny mixtures
// where naive f32 (and even f64) accumulation loses the small addends.

/// A random non-negative finite f32 with a uniformly random bit pattern:
/// exponents spread over the full range, including subnormals.
fn arb_sample(rng: &mut CounterRng) -> f32 {
    let bits = (rng.next_u64() as u32) & 0x7FFF_FFFF;
    let v = f32::from_bits(bits);
    if v.is_finite() {
        v
    } else {
        // Demote the inf/NaN exponent to a subnormal with the same fraction.
        f32::from_bits(bits & 0x007F_FFFF)
    }
}

/// An adversarial cohort: random-bit samples plus a cancellation-heavy tail
/// of huge values interleaved with tiny and subnormal ones.
fn arb_cohort(d: &mut Draw, len: usize) -> Vec<f32> {
    let mut v: Vec<f32> = (0..len).map(|_| arb_sample(&mut d.0)).collect();
    for k in 0..len / 4 {
        v.push(2.0e38 * (1.0 + (k % 3) as f32 * 0.1)); // ≤ 2.4e38, still finite
        v.push(f32::from_bits(1 + k as u32)); // smallest subnormals
        v.push(1.0e-38);
    }
    v
}

fn seeded_shuffle<T>(v: &mut [T], rng: &mut CounterRng) {
    for i in (1..v.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
}

fn exact_of(values: &[f32]) -> ExactSum {
    let mut s = ExactSum::zero();
    for &v in values {
        s.add_f32(v);
    }
    s
}

/// Any permutation of the cohort accumulates to the same exact value (same
/// limbs, same rounded f64 bits).
#[test]
fn exact_sum_is_permutation_invariant() {
    for case in 0..CASES {
        let mut d = Draw::new(10, case);
        let n = d.int(64, 512) as usize;
        let cohort = arb_cohort(&mut d, n);
        let reference = exact_of(&cohort);
        for round in 0..4u64 {
            let mut permuted = cohort.clone();
            seeded_shuffle(&mut permuted, &mut d.0);
            let s = exact_of(&permuted);
            assert_eq!(s, reference, "case {case} round {round}: limbs differ");
            assert_eq!(
                s.to_f64().to_bits(),
                reference.to_f64().to_bits(),
                "case {case} round {round}: rounded totals differ"
            );
        }
    }
}

/// `zero()` is neutral: merging it anywhere changes nothing, an empty sum
/// reports zero, and adding literal zeros leaves the accumulator untouched.
#[test]
fn exact_sum_zero_is_neutral() {
    assert!(ExactSum::zero().is_zero());
    assert_eq!(ExactSum::zero().to_f64(), 0.0);
    for case in 0..CASES {
        let mut d = Draw::new(11, case);
        let n = d.int(16, 128) as usize;
        let cohort = arb_cohort(&mut d, n);
        let reference = exact_of(&cohort);

        let mut left = ExactSum::zero();
        left += reference;
        let mut right = reference;
        right += ExactSum::zero();
        assert_eq!(left, reference, "case {case}: zero += s");
        assert_eq!(right, reference, "case {case}: s += zero");

        let mut with_zeros = ExactSum::zero();
        for (k, &v) in cohort.iter().enumerate() {
            if k % 3 == 0 {
                with_zeros.add_f32(0.0);
            }
            with_zeros.add_f32(v);
        }
        assert_eq!(with_zeros, reference, "case {case}: interleaved zeros");
    }
}

/// Merge is associative over random partitions: folding the same cohort's
/// blocks left-to-right, right-to-left, or as a balanced tree yields the
/// same exact value as straight accumulation.
#[test]
fn exact_sum_merge_is_associative_over_partitions() {
    for case in 0..CASES {
        let mut d = Draw::new(12, case);
        let n = d.int(96, 384) as usize;
        let cohort = arb_cohort(&mut d, n);
        let reference = exact_of(&cohort);

        // Random partition into 3..=9 contiguous blocks.
        let n_blocks = d.int(3, 10) as usize;
        let mut partials: Vec<ExactSum> = Vec::new();
        let mut start = 0usize;
        for b in 0..n_blocks {
            let end = if b == n_blocks - 1 {
                cohort.len()
            } else {
                let remaining = cohort.len() - start;
                start + d.int(0, remaining as u64 / 2 + 1) as usize
            };
            partials.push(exact_of(&cohort[start..end]));
            start = end;
        }

        let mut fold_left = ExactSum::zero();
        for &p in &partials {
            fold_left += p;
        }
        let mut fold_right = ExactSum::zero();
        for &p in partials.iter().rev() {
            fold_right += p;
        }
        let mut tree = partials.clone();
        while tree.len() > 1 {
            let mut next = Vec::new();
            for pair in tree.chunks(2) {
                let mut m = pair[0];
                if let Some(&b) = pair.get(1) {
                    m += b;
                }
                next.push(m);
            }
            tree = next;
        }

        assert_eq!(fold_left, reference, "case {case}: left fold");
        assert_eq!(fold_right, reference, "case {case}: right fold");
        assert_eq!(tree[0], reference, "case {case}: tree merge");
    }
}

/// Witness that the order-invariance property is not vacuous: on a classic
/// absorption cohort (one 2²⁴ plus 255 ones) a plain f32 running sum gives
/// different answers forward vs reversed, while the exact accumulator
/// agrees with itself — and with the true total — in both orders.
#[test]
fn exact_sum_beats_naive_f32_on_reordering() {
    let mut cohort = vec![16_777_216.0f32]; // 2^24: spacing 2, so +1.0 is lost
    cohort.resize(256, 1.0);
    let reversed: Vec<f32> = cohort.iter().rev().copied().collect();

    let naive_fwd: f32 = cohort.iter().sum();
    let naive_rev: f32 = reversed.iter().sum();
    assert_ne!(
        naive_fwd.to_bits(),
        naive_rev.to_bits(),
        "cohort too tame: naive f32 summation never noticed the reorder"
    );

    let exact_fwd = exact_of(&cohort);
    assert_eq!(exact_fwd, exact_of(&reversed), "exact sum reordered");
    assert_eq!(exact_fwd.to_f64(), 16_777_216.0 + 255.0);
}

/// Voxel indices are 32-bit in the extravasation trial table; a grid past
/// that is refused by name at construction, before anything is allocated.
#[test]
fn oversized_grid_is_a_typed_config_error() {
    use simcov_repro::simcov_driver::ConfigError;
    let p = SimParams {
        dims: GridDims::new2d(65_536, 65_536),
        ..SimParams::default()
    };
    match CpuSim::new(CpuSimConfig::new(p.clone(), 4)) {
        Err(ConfigError::InvalidParams(why)) => assert!(why.contains("dims"), "{why}"),
        other => panic!("expected InvalidParams, got {:?}", other.map(|_| ())),
    }
    match GpuSim::new(GpuSimConfig::new(p, 4)) {
        Err(ConfigError::InvalidParams(why)) => assert!(why.contains("dims"), "{why}"),
        other => panic!("expected InvalidParams, got {:?}", other.map(|_| ())),
    }
}
