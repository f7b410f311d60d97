//! Wide-lane (SIMD-shaped) stencil kernels with a scalar tail.
//!
//! The diffusion inner loop is the hottest kernel in every executor. The SoA
//! layout ([`crate::soa`]) makes it vectorization-ready; this module supplies
//! the fixed-width chunked form. A run's full chunks are diffused in blocks
//! of [`BLOCK`] voxels, one field at a time: [`LANES`] consecutive voxels
//! are gathered per chunk with one accumulator per lane, the neighbor-delta
//! loop on the *outside* and the lane loop on the *inside* — the shape LLVM
//! autovectorizes into packed loads/adds today and `std::simd` can replace
//! verbatim once it stabilizes. The per-voxel update then runs as one loop
//! over the block's sums, so its flush-to-zero select stays a packed
//! compare-and-mask instead of a branch per lane, and only then are the
//! results handed out voxel by voxel. A scalar tail (the existing
//! [`StencilDeltas::sum2`] path) covers the run's remainder shorter than a
//! chunk, so a short run pays for no block.
//!
//! ## Bitwise reproducibility
//!
//! Lane `l` of a chunk based at voxel `i` accumulates `field[i + l + d]` for
//! each delta `d` in [`StencilDeltas::deltas`] order, starting from +0.0 —
//! exactly the additions, in exactly the order, that the scalar
//! `sum2(i + l, ..)` performs for that field.
//! Lanes never mix: there is no horizontal reduction, so widening the chunk
//! cannot reassociate any f32 sum. The per-voxel diffusion update then calls
//! the same [`diffuse_voxel`] scalar function. The wide path is therefore
//! *structurally* bit-identical to the scalar oracle — a property the
//! differential suite (`tests/simd_differential.rs`, cases of the
//! equivalence harness `tests/equivalence/mod.rs` and ranges of its seeded
//! shape generator) enforces over adversarial shapes, and the unit tests
//! below enforce per-chunk.
//!
//! [`StencilDeltas::sum2`]: crate::soa::StencilDeltas::sum2
//! [`StencilDeltas::deltas`]: crate::soa::StencilDeltas::deltas

use crate::diffusion::{diffuse_voxel, DiffuseCoeffs};
use crate::fields::Field;
use crate::soa::StencilDeltas;

/// Fixed chunk width of the wide kernels, in f32 lanes. Eight lanes fill one
/// AVX2 register (256 bit) and two NEON registers; the chunked loop shape
/// vectorizes on narrower ISAs too (the compiler splits the lane loop).
pub const LANES: usize = 8;

/// Voxels [`diffuse_interior_run`] diffuses per block. A block's sums, then
/// its results, live in two stack buffers of the block's width; the chunks
/// left over after the whole blocks form one narrower block, so a short run
/// never zeroes buffers it does not fill.
pub const BLOCK: usize = 4 * LANES;

/// Which diffusion kernel an executor runs. The trajectories are bitwise
/// identical by construction; `Scalar` is kept alive as the differential
/// oracle the wide path is tested against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelMode {
    /// Per-voxel gather via [`StencilDeltas::sum2`] — the reference path.
    ///
    /// [`StencilDeltas::sum2`]: crate::soa::StencilDeltas::sum2
    Scalar,
    /// Fixed-width chunked gather over [`LANES`] voxels with a scalar tail.
    #[default]
    Wide,
}

impl KernelMode {
    pub fn name(&self) -> &'static str {
        match self {
            KernelMode::Scalar => "scalar",
            KernelMode::Wide => "wide",
        }
    }
}

/// Gather-sum one field over the Moore neighborhoods of [`LANES`]
/// consecutive voxels starting at `base`, one accumulator per lane.
///
/// The caller guarantees every voxel `base..base + LANES` is interior (its
/// whole neighborhood resolves by constant deltas within the box). Deltas
/// iterate on the outside so each lane receives its additions in
/// offset-table order — the canonical rounding order of the scalar path.
#[inline]
pub fn gather_lanes(st: &StencilDeltas, base: usize, f: &[f32]) -> [f32; LANES] {
    let mut s = [0.0f32; LANES];
    for &d in st.deltas() {
        let u = (base as isize + d) as usize;
        let r: &[f32; LANES] = f[u..u + LANES].try_into().expect("LANES cells");
        for l in 0..LANES {
            s[l] += r[l];
        }
    }
    s
}

/// Neighborhood sums of the `sums.len()` interior voxels from `base`, a
/// multiple of [`LANES`], by [`gather_lanes`] chunks.
#[inline]
fn gather_block(st: &StencilDeltas, base: usize, f: &[f32], sums: &mut [f32]) {
    for (k, out) in sums.chunks_exact_mut(LANES).enumerate() {
        out.copy_from_slice(&gather_lanes(st, base + k * LANES, f));
    }
}

/// Diffuse the `N` interior voxels from `base` (`N` a multiple of
/// [`LANES`]): both fields' sums by [`gather_block`], the update over each
/// field's block, then `emit` per voxel in ascending order.
#[inline]
fn diffuse_block<const N: usize>(
    st: &StencilDeltas,
    base: usize,
    virions: &Field,
    chem: &Field,
    vc: DiffuseCoeffs,
    cc: DiffuseCoeffs,
    emit: &mut impl FnMut(usize, f32, f32),
) {
    let n_valid = st.len();
    let update = |own: &[f32], sums: &mut [f32; N], k: DiffuseCoeffs| {
        for (s, &v) in sums.iter_mut().zip(own) {
            *s = diffuse_voxel(v, *s, n_valid, k.d, k.decay, k.min);
        }
    };
    let (mut nv, mut nc) = ([0.0f32; N], [0.0f32; N]);
    gather_block(st, base, &virions.data, &mut nv);
    gather_block(st, base, &chem.data, &mut nc);
    update(&virions.data[base..base + N], &mut nv, vc);
    update(&chem.data[base..base + N], &mut nc, cc);
    for (k, (&v, &c)) in nv.iter().zip(nc.iter()).enumerate() {
        emit(base + k, v, c);
    }
}

/// Diffuse a run of `len` consecutive *interior* voxels starting at linear
/// index `base`: the full [`LANES`] chunks [`BLOCK`] voxels at a time, then
/// the leftover chunks as one narrower block (each field's sums via
/// [`gather_lanes`], then the update over the block), and the `< LANES`
/// remainder through the scalar [`StencilDeltas::sum2`] path.
/// `emit(i, new_virions, new_chem)` is called once per voxel in ascending
/// index order, so staged write-back buffers keep their scalar-path order.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn diffuse_interior_run(
    st: &StencilDeltas,
    base: usize,
    len: usize,
    virions: &Field,
    chem: &Field,
    vc: DiffuseCoeffs,
    cc: DiffuseCoeffs,
    mut emit: impl FnMut(usize, f32, f32),
) {
    let n_valid = st.len();
    let chunked = base + len - len % LANES;
    let mut i = base;
    while i + BLOCK <= chunked {
        diffuse_block::<BLOCK>(st, i, virions, chem, vc, cc, &mut emit);
        i += BLOCK;
    }
    // The 0–3 chunks after the whole blocks, as one block of their width.
    match (chunked - i) / LANES {
        0 => {}
        1 => diffuse_block::<LANES>(st, i, virions, chem, vc, cc, &mut emit),
        2 => diffuse_block::<{ 2 * LANES }>(st, i, virions, chem, vc, cc, &mut emit),
        _ => diffuse_block::<{ 3 * LANES }>(st, i, virions, chem, vc, cc, &mut emit),
    }
    for i in chunked..base + len {
        let (vs, cs) = st.sum2(i, virions, chem);
        let nv = diffuse_voxel(virions.data[i], vs, n_valid, vc.d, vc.decay, vc.min);
        let nc = diffuse_voxel(chem.data[i], cs, n_valid, cc.d, cc.decay, cc.min);
        emit(i, nv, nc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridDims;

    fn coeffs(d: f32, decay: f32, min: f32) -> DiffuseCoeffs {
        DiffuseCoeffs { d, decay, min }
    }

    /// Order-sensitive fill: values spanning many magnitudes so any
    /// reassociation of the f32 sums changes the bits.
    fn adversarial_fields(n: usize, seed: u64) -> (Field, Field) {
        let mut a = Field::zeros(n);
        let mut b = Field::zeros(n);
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        for v in 0..n {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (s >> 40) as f32 / (1u64 << 24) as f32;
            // Mix huge, tiny and denormal-adjacent magnitudes.
            let scale = match v % 4 {
                0 => 1.0e7,
                1 => 1.0,
                2 => 1.0e-30,
                _ => 1.0e-38,
            };
            a.set(v, u * scale + 1.0e-41);
            b.set(v, (1.0 - u) * scale);
        }
        (a, b)
    }

    #[test]
    fn wide_gather_matches_scalar_bitwise() {
        for dims in [GridDims::new2d(32, 8), GridDims::new3d(12, 5, 4)] {
            let st = StencilDeltas::for_grid(dims);
            let (a, b) = adversarial_fields(dims.nvoxels(), 7);
            let nx = dims.x as usize;
            // Every full-width interior chunk of every interior row.
            for v in 0..dims.nvoxels() {
                let c = dims.coord(v);
                let x = c.x as usize;
                if !st.is_interior(c)
                    || x + LANES + 1 > nx
                    || !st.is_interior(dims.coord(v + LANES - 1))
                {
                    continue;
                }
                let sa = gather_lanes(&st, v, &a.data);
                let sb = gather_lanes(&st, v, &b.data);
                for l in 0..LANES {
                    let (ea, eb) = st.sum2(v + l, &a, &b);
                    assert_eq!(sa[l].to_bits(), ea.to_bits(), "lane {l} at {v}");
                    assert_eq!(sb[l].to_bits(), eb.to_bits(), "lane {l} at {v}");
                }
            }
        }
    }

    #[test]
    fn interior_run_matches_scalar_for_every_length() {
        // Lengths straddling the chunk width and the block: 0, 1, LANES-1,
        // LANES, LANES+1, 2*LANES+3, BLOCK-1, BLOCK, BLOCK+LANES+3,
        // 2*BLOCK+5 — the tail, chunk and block boundaries must all agree.
        let dims = GridDims::new2d(2 * BLOCK as u32 + 32, 5);
        let st = StencilDeltas::for_grid(dims);
        let (a, b) = adversarial_fields(dims.nvoxels(), 3);
        let vc = coeffs(0.15, 0.004, 1.0e-10);
        let cc = coeffs(0.6, 0.02, 1.0e-6);
        let row = dims.x as usize; // y = 1 row start
        for len in [
            0usize,
            1,
            LANES - 1,
            LANES,
            LANES + 1,
            2 * LANES + 3,
            BLOCK - 1,
            BLOCK,
            BLOCK + LANES + 3,
            2 * BLOCK + 5,
        ] {
            let base = row + 1;
            let mut got: Vec<(usize, u32, u32)> = Vec::new();
            diffuse_interior_run(&st, base, len, &a, &b, vc, cc, |i, nv, nc| {
                got.push((i, nv.to_bits(), nc.to_bits()));
            });
            assert_eq!(got.len(), len);
            for (k, &(i, nv, nc)) in got.iter().enumerate() {
                assert_eq!(i, base + k, "emit order must be ascending");
                let (vs, cs) = st.sum2(i, &a, &b);
                let ev = diffuse_voxel(a.data[i], vs, st.len(), vc.d, vc.decay, vc.min);
                let ec = diffuse_voxel(b.data[i], cs, st.len(), cc.d, cc.decay, cc.min);
                assert_eq!(nv, ev.to_bits(), "virions at {i} (len {len})");
                assert_eq!(nc, ec.to_bits(), "chem at {i} (len {len})");
            }
        }
    }

    #[test]
    fn denormal_adjacent_values_survive_the_wide_path() {
        // Sums landing in the subnormal range must round identically.
        let dims = GridDims::new2d(LANES as u32 + 4, 3);
        let st = StencilDeltas::for_grid(dims);
        let n = dims.nvoxels();
        let mut a = Field::zeros(n);
        let mut b = Field::zeros(n);
        for v in 0..n {
            a.set(v, f32::from_bits(1 + (v as u32 % 7))); // smallest subnormals
            b.set(v, 1.0e-38 * (v as f32 + 1.0));
        }
        let vc = coeffs(0.9, 0.0, 0.0);
        let cc = coeffs(0.9, 0.0, 0.0);
        let base = dims.x as usize + 1;
        diffuse_interior_run(&st, base, LANES, &a, &b, vc, cc, |i, nv, nc| {
            let (vs, cs) = st.sum2(i, &a, &b);
            let ev = diffuse_voxel(a.data[i], vs, st.len(), vc.d, vc.decay, vc.min);
            let ec = diffuse_voxel(b.data[i], cs, st.len(), cc.d, cc.decay, cc.min);
            assert_eq!(nv.to_bits(), ev.to_bits());
            assert_eq!(nc.to_bits(), ec.to_bits());
        });
    }

    #[test]
    fn kernel_mode_default_and_names() {
        assert_eq!(KernelMode::default(), KernelMode::Wide);
        assert_eq!(KernelMode::Wide.name(), "wide");
        assert_eq!(KernelMode::Scalar.name(), "scalar");
    }
}
