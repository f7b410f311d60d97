//! Voxel grid geometry: dimensions, coordinates, index math and Moore
//! neighborhoods for 2D (8 neighbors) and 3D (26 neighbors) grids.
//!
//! Every voxel is identified by a *global* linear index (`usize`) in row-major
//! order `(z, y, x)` — x fastest. All stochastic draws are keyed on global
//! indices so partitioned executors agree with the serial reference.

/// A signed voxel coordinate. Signed so neighbor arithmetic can go one step
/// out of bounds before being rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Coord {
    pub x: i64,
    pub y: i64,
    pub z: i64,
}

impl Coord {
    #[inline]
    pub const fn new(x: i64, y: i64, z: i64) -> Self {
        Coord { x, y, z }
    }

    /// Component-wise addition of a neighbor offset.
    #[inline]
    pub const fn offset(self, dx: i64, dy: i64, dz: i64) -> Self {
        Coord::new(self.x + dx, self.y + dy, self.z + dz)
    }

    /// Chebyshev (L∞) distance — the metric of Moore neighborhoods.
    #[inline]
    pub fn chebyshev(self, other: Coord) -> i64 {
        (self.x - other.x)
            .abs()
            .max((self.y - other.y).abs())
            .max((self.z - other.z).abs())
    }
}

/// Grid dimensions. 2D simulations use `z == 1` (the paper's evaluation is
/// entirely 2D; 3D is supported throughout).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GridDims {
    pub x: u32,
    pub y: u32,
    pub z: u32,
}

/// The 26 Moore-neighborhood offsets of a 3D grid, ordered deterministically
/// (z-major, then y, then x; the zero offset is excluded). The first 8 entries
/// with `dz == 0` are exactly the 2D Moore neighborhood, in the same order —
/// this prefix property is what [`GridDims::neighbor_offsets`] relies on.
pub const MOORE_3D: [(i64, i64, i64); 26] = moore_offsets();

const fn moore_offsets() -> [(i64, i64, i64); 26] {
    let mut out = [(0i64, 0i64, 0i64); 26];
    let mut i = 0;
    // dz == 0 plane first so the 2D neighborhood is a prefix.
    let mut dy = -1i64;
    while dy <= 1 {
        let mut dx = -1i64;
        while dx <= 1 {
            if !(dx == 0 && dy == 0) {
                out[i] = (dx, dy, 0);
                i += 1;
            }
            dx += 1;
        }
        dy += 1;
    }
    let mut dz = -1i64;
    while dz <= 1 {
        if dz != 0 {
            let mut dy2 = -1i64;
            while dy2 <= 1 {
                let mut dx2 = -1i64;
                while dx2 <= 1 {
                    out[i] = (dx2, dy2, dz);
                    i += 1;
                    dx2 += 1;
                }
                dy2 += 1;
            }
        }
        dz += 1;
    }
    out
}

impl GridDims {
    pub const fn new2d(x: u32, y: u32) -> Self {
        GridDims { x, y, z: 1 }
    }

    pub const fn new3d(x: u32, y: u32, z: u32) -> Self {
        GridDims { x, y, z }
    }

    #[inline]
    pub const fn is_2d(&self) -> bool {
        self.z == 1
    }

    /// Total number of voxels.
    #[inline]
    pub const fn nvoxels(&self) -> usize {
        self.x as usize * self.y as usize * self.z as usize
    }

    /// [`nvoxels`](Self::nvoxels), or `None` where the product overflows —
    /// what validation of outside dims computes before anything else
    /// multiplies them.
    pub fn checked_nvoxels(&self) -> Option<usize> {
        (self.x as usize)
            .checked_mul(self.y as usize)?
            .checked_mul(self.z as usize)
    }

    /// The deterministic neighbor-offset table for this dimensionality:
    /// 8 offsets for 2D grids, 26 for 3D.
    #[inline]
    pub fn neighbor_offsets(&self) -> &'static [(i64, i64, i64)] {
        if self.is_2d() {
            &MOORE_3D[..8]
        } else {
            &MOORE_3D[..]
        }
    }

    /// Number of Moore neighbors for this dimensionality.
    #[inline]
    pub fn n_neighbors(&self) -> usize {
        if self.is_2d() {
            8
        } else {
            26
        }
    }

    #[inline]
    pub fn in_bounds(&self, c: Coord) -> bool {
        c.x >= 0
            && c.y >= 0
            && c.z >= 0
            && (c.x as u64) < self.x as u64
            && (c.y as u64) < self.y as u64
            && (c.z as u64) < self.z as u64
    }

    /// Linear index of an in-bounds coordinate (row-major, x fastest).
    #[inline]
    pub fn index(&self, c: Coord) -> usize {
        debug_assert!(self.in_bounds(c), "coordinate {c:?} out of bounds {self:?}");
        (c.z as usize * self.y as usize + c.y as usize) * self.x as usize + c.x as usize
    }

    /// Linear index, or `None` if out of bounds.
    #[inline]
    pub fn checked_index(&self, c: Coord) -> Option<usize> {
        if self.in_bounds(c) {
            Some(self.index(c))
        } else {
            None
        }
    }

    /// Inverse of [`GridDims::index`].
    #[inline]
    pub fn coord(&self, idx: usize) -> Coord {
        debug_assert!(idx < self.nvoxels());
        let xy = self.x as usize * self.y as usize;
        let z = idx / xy;
        let rem = idx % xy;
        let y = rem / self.x as usize;
        let x = rem % self.x as usize;
        Coord::new(x as i64, y as i64, z as i64)
    }

    /// Iterate the in-bounds Moore neighbors of `c` as linear indices, in the
    /// deterministic offset-table order.
    pub fn neighbors(&self, c: Coord) -> impl Iterator<Item = usize> + '_ {
        self.neighbor_offsets()
            .iter()
            .filter_map(move |&(dx, dy, dz)| self.checked_index(c.offset(dx, dy, dz)))
    }

    /// Iterate all coordinates in index order.
    pub fn iter_coords(&self) -> impl Iterator<Item = Coord> + '_ {
        (0..self.nvoxels()).map(move |i| self.coord(i))
    }

    /// Number of in-bounds Moore neighbors of `c` (boundary voxels have
    /// fewer). Used for zero-flux diffusion normalization.
    pub fn n_valid_neighbors(&self, c: Coord) -> usize {
        self.neighbor_offsets()
            .iter()
            .filter(|&&(dx, dy, dz)| self.in_bounds(c.offset(dx, dy, dz)))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip_2d() {
        let d = GridDims::new2d(7, 5);
        for i in 0..d.nvoxels() {
            assert_eq!(d.index(d.coord(i)), i);
        }
    }

    #[test]
    fn index_roundtrip_3d() {
        let d = GridDims::new3d(4, 3, 5);
        assert_eq!(d.nvoxels(), 60);
        for i in 0..d.nvoxels() {
            assert_eq!(d.index(d.coord(i)), i);
        }
    }

    #[test]
    fn moore_2d_is_prefix_of_3d() {
        for off in &MOORE_3D[..8] {
            assert_eq!(off.2, 0, "2D prefix must have dz == 0");
        }
        // All 26 offsets are distinct and non-zero.
        let mut seen = std::collections::HashSet::new();
        for off in MOORE_3D {
            assert_ne!(off, (0, 0, 0));
            assert!(seen.insert(off));
        }
    }

    #[test]
    fn neighbor_counts() {
        let d2 = GridDims::new2d(10, 10);
        // interior
        assert_eq!(d2.neighbors(Coord::new(5, 5, 0)).count(), 8);
        // corner
        assert_eq!(d2.neighbors(Coord::new(0, 0, 0)).count(), 3);
        // edge
        assert_eq!(d2.neighbors(Coord::new(5, 0, 0)).count(), 5);

        let d3 = GridDims::new3d(10, 10, 10);
        assert_eq!(d3.neighbors(Coord::new(5, 5, 5)).count(), 26);
        assert_eq!(d3.neighbors(Coord::new(0, 0, 0)).count(), 7);
    }

    #[test]
    fn n_valid_neighbors_matches_iterator() {
        let d = GridDims::new2d(4, 4);
        for c in d.iter_coords().collect::<Vec<_>>() {
            assert_eq!(d.n_valid_neighbors(c), d.neighbors(c).count());
        }
    }

    #[test]
    fn in_bounds_rejects_negative_and_large() {
        let d = GridDims::new2d(3, 3);
        assert!(!d.in_bounds(Coord::new(-1, 0, 0)));
        assert!(!d.in_bounds(Coord::new(0, 3, 0)));
        assert!(!d.in_bounds(Coord::new(0, 0, 1)));
        assert!(d.in_bounds(Coord::new(2, 2, 0)));
    }

    #[test]
    fn chebyshev_distance() {
        let a = Coord::new(0, 0, 0);
        assert_eq!(a.chebyshev(Coord::new(1, 1, 0)), 1);
        assert_eq!(a.chebyshev(Coord::new(-3, 2, 1)), 3);
    }
}
