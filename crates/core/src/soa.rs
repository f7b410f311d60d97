//! Structure-of-arrays voxel storage and constant-stride stencil geometry.
//!
//! Every executor keeps its voxel state as parallel flat arrays — the SoA
//! layout the paper's GPU port relies on for coalesced access (§3.2). This
//! module gives that layout a single shared type, [`VoxelSoA`], plus the
//! geometry that makes stencil sweeps over it cheap: [`StencilDeltas`]
//! turns the Moore neighbor-offset table into constant linear-index deltas
//! for any row-major box, so interior voxels gather their whole
//! neighborhood with pointer arithmetic instead of per-neighbor coordinate
//! construction and bounds checks.
//!
//! ## Bitwise reproducibility
//!
//! The delta table is derived from [`GridDims::neighbor_offsets`] and
//! preserves its order exactly. For an *interior* voxel (every Moore
//! neighbor inside the global grid) the fast path visits the same `f32`
//! values in the same order as the bounds-checked path, so the accumulated
//! sums — and therefore the whole trajectory — are bit-identical. Only
//! voxels on the global-grid surface take the slow path.

use crate::epithelial::EpiCells;
use crate::fields::Field;
use crate::grid::{Coord, GridDims};
use crate::tcell::TCellSlot;

/// Unified SoA voxel state over an executor-local index space (the full
/// grid for the serial executor, a row-major halo box for `simcov-cpu` and
/// `simcov-gpu`).
#[derive(Debug, Clone)]
pub struct VoxelSoA {
    pub epi: EpiCells,
    pub tcells: Vec<TCellSlot>,
    pub virions: Field,
    pub chem: Field,
}

impl VoxelSoA {
    /// All-airway (inert) storage of `n` voxels — the neutral fill for
    /// halo-box and padded-tile cells before initialization.
    pub fn airway(n: usize) -> Self {
        VoxelSoA {
            epi: EpiCells::airway(n),
            tcells: vec![TCellSlot::EMPTY; n],
            virions: Field::zeros(n),
            chem: Field::zeros(n),
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.epi.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.epi.is_empty()
    }
}

/// Precomputed linear-index deltas of the Moore neighborhood over a
/// row-major box with strides `(1, sx, sx * sy)`.
///
/// For the k-th entry `(dx, dy, dz)` of [`GridDims::neighbor_offsets`],
/// `deltas()[k] == (dz * sy + dy) * sx + dx`, so `index + deltas()[k]`
/// addresses the same cell as re-deriving the neighbor coordinate — valid
/// whenever voxel and neighbor both live in the box.
#[derive(Debug, Clone)]
pub struct StencilDeltas {
    dims: GridDims,
    deltas: [isize; 26],
    n: usize,
}

impl StencilDeltas {
    /// Deltas for a row-major box with x-extent `sx` and y-extent `sy`
    /// (e.g. a halo box, or a tile's padded cube).
    pub fn for_strides(dims: GridDims, sx: usize, sy: usize) -> Self {
        let offs = dims.neighbor_offsets();
        let mut deltas = [0isize; 26];
        for (k, &(dx, dy, dz)) in offs.iter().enumerate() {
            deltas[k] = ((dz * sy as i64 + dy) * sx as i64 + dx) as isize;
        }
        StencilDeltas {
            dims,
            deltas,
            n: offs.len(),
        }
    }

    /// Deltas for the global grid itself (the serial executor's layout).
    pub fn for_grid(dims: GridDims) -> Self {
        Self::for_strides(dims, dims.x as usize, dims.y as usize)
    }

    /// The delta table, in [`GridDims::neighbor_offsets`] order.
    #[inline]
    pub fn deltas(&self) -> &[isize] {
        &self.deltas[..self.n]
    }

    /// Number of Moore neighbors (8 in 2D, 26 in 3D).
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Is every Moore neighbor of `c` inside the global grid? Interior
    /// voxels may take the branch-free delta path; surface voxels must use
    /// the bounds-checked path (and a smaller `n_valid`).
    #[inline]
    pub fn is_interior(&self, c: Coord) -> bool {
        let d = self.dims;
        let z_ok = if d.is_2d() {
            true
        } else {
            c.z >= 1 && c.z + 1 < d.z as i64
        };
        c.x >= 1 && c.x + 1 < d.x as i64 && c.y >= 1 && c.y + 1 < d.y as i64 && z_ok
    }

    /// Gather-sum two fields over the full neighborhood of linear index
    /// `i`, accumulating in offset-table order (the canonical rounding
    /// order). The caller guarantees `i` maps to an interior voxel whose
    /// neighbors all live in the same box.
    #[inline]
    pub fn sum2(&self, i: usize, a: &Field, b: &Field) -> (f32, f32) {
        let mut sa = 0.0f32;
        let mut sb = 0.0f32;
        for &d in self.deltas() {
            let u = (i as isize + d) as usize;
            sa += a.get(u);
            sb += b.get(u);
        }
        (sa, sb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soa_airway_is_inert() {
        let s = VoxelSoA::airway(10);
        assert_eq!(s.len(), 10);
        assert!(!s.is_empty());
        assert_eq!(s.virions.sum(), 0.0);
        assert_eq!(s.chem.sum(), 0.0);
        assert!(s.tcells.iter().all(|t| !t.occupied()));
    }

    #[test]
    fn grid_deltas_match_checked_index_2d() {
        let dims = GridDims::new2d(7, 5);
        let st = StencilDeltas::for_grid(dims);
        assert_eq!(st.len(), 8);
        for v in 0..dims.nvoxels() {
            let c = dims.coord(v);
            if !st.is_interior(c) {
                continue;
            }
            for (k, &(dx, dy, dz)) in dims.neighbor_offsets().iter().enumerate() {
                let expect = dims.checked_index(c.offset(dx, dy, dz)).unwrap();
                assert_eq!((v as isize + st.deltas()[k]) as usize, expect);
            }
        }
    }

    #[test]
    fn grid_deltas_match_checked_index_3d() {
        let dims = GridDims::new3d(5, 4, 6);
        let st = StencilDeltas::for_grid(dims);
        assert_eq!(st.len(), 26);
        for v in 0..dims.nvoxels() {
            let c = dims.coord(v);
            if !st.is_interior(c) {
                continue;
            }
            for (k, &(dx, dy, dz)) in dims.neighbor_offsets().iter().enumerate() {
                let expect = dims.checked_index(c.offset(dx, dy, dz)).unwrap();
                assert_eq!((v as isize + st.deltas()[k]) as usize, expect);
            }
        }
    }

    #[test]
    fn interior_iff_full_neighbor_count() {
        for dims in [GridDims::new2d(6, 9), GridDims::new3d(4, 5, 6)] {
            let st = StencilDeltas::for_grid(dims);
            for c in dims.iter_coords().collect::<Vec<_>>() {
                let full = dims.n_valid_neighbors(c) == dims.n_neighbors();
                assert_eq!(st.is_interior(c), full, "mismatch at {c:?} in {dims:?}");
            }
        }
    }

    #[test]
    fn sum2_matches_checked_order() {
        // The gather must reproduce the bounds-checked accumulation order
        // bitwise, including with values chosen to make f32 addition
        // order-sensitive.
        let dims = GridDims::new2d(5, 5);
        let st = StencilDeltas::for_grid(dims);
        let mut a = Field::zeros(dims.nvoxels());
        let mut b = Field::zeros(dims.nvoxels());
        for v in 0..dims.nvoxels() {
            a.set(v, (v as f32 * 0.37 + 1.0e-3).exp());
            b.set(v, 1.0e7 / (v as f32 + 1.0) - (v as f32).sqrt());
        }
        for v in 0..dims.nvoxels() {
            let c = dims.coord(v);
            if !st.is_interior(c) {
                continue;
            }
            let mut sa = 0.0f32;
            let mut sb = 0.0f32;
            for &(dx, dy, dz) in dims.neighbor_offsets() {
                let u = dims.checked_index(c.offset(dx, dy, dz)).unwrap();
                sa += a.get(u);
                sb += b.get(u);
            }
            let (fa, fb) = st.sum2(v, &a, &b);
            assert_eq!(fa.to_bits(), sa.to_bits());
            assert_eq!(fb.to_bits(), sb.to_bits());
        }
    }

    #[test]
    fn box_strides_match_halo_local() {
        use crate::decomp::{Partition, Strategy};
        use crate::halo::HaloBox;
        let dims = GridDims::new2d(8, 8);
        let p = Partition::new(dims, 4, Strategy::Blocks);
        let hb = HaloBox::new(dims, *p.sub(0));
        let (sx, sy, _) = hb.size();
        let st = StencilDeltas::for_strides(dims, sx, sy);
        for c in hb.core.iter_coords() {
            if !st.is_interior(c) {
                continue;
            }
            let li = hb.local(c);
            for (k, &(dx, dy, dz)) in dims.neighbor_offsets().iter().enumerate() {
                let q = c.offset(dx, dy, dz);
                assert_eq!((li as isize + st.deltas()[k]) as usize, hb.local(q));
            }
        }
    }
}
