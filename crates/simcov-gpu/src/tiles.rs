//! Memory tiling (§3.2, Fig. 3).
//!
//! A device's halo box is carved into fixed-size tiles; each tile's voxels
//! are stored contiguously (the zig-zag order of Fig. 3), which gives the
//! data locality the paper credits for faster updates *and* faster
//! reductions. Tiles are tracked active/inactive; kernels visit only active
//! tiles. A periodic check kernel (period ≤ tile side) sweeps the space,
//! reactivates tiles containing activity, and activates a one-tile-thick
//! buffer around them — safe because nothing in SIMCoV moves faster than
//! one voxel per step. Tiles holding an in-grid ghost voxel (halo data lands
//! there every step, whatever the check found) are always active, and so is
//! the one-tile buffer around each of them: a ghost tile's core part can be
//! one voxel thick, so activity arriving through the halo can cross it in
//! two steps, long before the next check. Ghosts outside the grid receive
//! nothing and force nothing.

use simcov_core::grid::{Coord, GridDims};
use simcov_core::halo::HaloBox;
use simcov_core::unit_grid::{grid_box, GridBox, Layout};

/// The three global boxes every sweep of a device step is clipped against
/// ([`TileSpan::clip`]): core, in-bounds and global-interior cells of a tile
/// are each one box, so no inner loop tests a coordinate.
#[derive(Debug, Clone, Copy)]
pub struct SweepBoxes {
    /// The owned region.
    pub core: GridBox,
    /// The whole grid.
    pub grid: GridBox,
    /// Voxels whose Moore neighbors are all in the grid.
    pub interior: GridBox,
}

impl SweepBoxes {
    pub fn new(dims: GridDims, layout: &TileLayout) -> Self {
        let grid = grid_box(dims);
        let gz = i64::from(!dims.is_2d());
        SweepBoxes {
            core: layout.core_box(),
            grid,
            interior: (grid.0.offset(1, 1, gz), grid.1.offset(-1, -1, -gz)),
        }
    }
}

/// Tile-major storage layout over a halo box.
#[derive(Debug, Clone)]
pub struct TileLayout {
    pub hb: HaloBox,
    /// Tile side in voxels (x and y; z too for 3D boxes).
    pub tile: usize,
    tiles_x: usize,
    tiles_y: usize,
    tiles_z: usize,
    tile_volume: usize,
}

impl TileLayout {
    pub fn new(hb: HaloBox, tile: usize) -> Self {
        assert!(tile >= 1);
        let (sx, sy, sz) = hb.size();
        let tz = if sz == 1 { 1 } else { tile };
        TileLayout {
            hb,
            tile,
            tiles_x: sx.div_ceil(tile),
            tiles_y: sy.div_ceil(tile),
            tiles_z: sz.div_ceil(tz),
            tile_volume: tile * tile * tz,
        }
    }

    /// The owned region as a box.
    #[inline]
    pub fn core_box(&self) -> GridBox {
        (self.hb.core.lo, self.hb.core.hi)
    }

    /// A flat box (2D grid): one z layer, no z ghost, no z apron.
    #[inline]
    fn flat(&self) -> bool {
        self.hb.size().2 == 1
    }

    #[inline]
    fn tz(&self) -> usize {
        if self.flat() {
            1
        } else {
            self.tile
        }
    }

    /// Number of tiles.
    #[inline]
    pub fn n_tiles(&self) -> usize {
        self.tiles_x * self.tiles_y * self.tiles_z
    }

    /// Padded storage length (tiles × tile volume).
    #[inline]
    pub fn len(&self) -> usize {
        self.n_tiles() * self.tile_volume
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Storage index of a covered global coordinate: tile-major, row-major
    /// within the tile (the zig-zag order of Fig. 3).
    #[inline]
    pub fn local(&self, c: Coord) -> usize {
        debug_assert!(self.hb.covers(c), "{c:?} outside {:?}", self.hb);
        let x = (c.x - self.hb.lo.x) as usize;
        let y = (c.y - self.hb.lo.y) as usize;
        let z = (c.z - self.hb.lo.z) as usize;
        let tz = self.tz();
        let (tx, ox) = (x / self.tile, x % self.tile);
        let (ty, oy) = (y / self.tile, y % self.tile);
        let (tzi, oz) = (z / tz, z % tz);
        let tile_idx = (tzi * self.tiles_y + ty) * self.tiles_x + tx;
        tile_idx * self.tile_volume + (oz * self.tile + oy) * self.tile + ox
    }

    /// Global coordinate of a storage index (inverse of [`TileLayout::local`]).
    /// Must only be called for indices of real (non-padding) cells.
    #[inline]
    pub fn coord_of(&self, idx: usize) -> Coord {
        debug_assert!(idx < self.len());
        let tz = self.tz();
        let tile_idx = idx / self.tile_volume;
        let off = idx % self.tile_volume;
        let ox = off % self.tile;
        let oy = (off / self.tile) % self.tile;
        let oz = off / (self.tile * self.tile);
        let tx = tile_idx % self.tiles_x;
        let ty = (tile_idx / self.tiles_x) % self.tiles_y;
        let tzi = tile_idx / (self.tiles_x * self.tiles_y);
        Coord::new(
            self.hb.lo.x + (tx * self.tile + ox) as i64,
            self.hb.lo.y + (ty * self.tile + oy) as i64,
            self.hb.lo.z + (tzi * tz + oz) as i64,
        )
    }

    /// The valid (non-padded) extent of a tile: storage base, global
    /// origin, per-axis voxel counts and within-tile strides. Nested loops
    /// over a span visit the tile's cells in storage order without per-cell
    /// division — the blocked form the update kernels use.
    pub fn tile_span(&self, tile_idx: usize) -> TileSpan {
        let tx = tile_idx % self.tiles_x;
        let ty = (tile_idx / self.tiles_x) % self.tiles_y;
        let tzi = tile_idx / (self.tiles_x * self.tiles_y);
        let tz = self.tz();
        let (sx, sy, sz) = self.hb.size();
        let x0 = tx * self.tile;
        let y0 = ty * self.tile;
        let z0 = tzi * tz;
        TileSpan {
            base: tile_idx * self.tile_volume,
            origin: Coord::new(
                self.hb.lo.x + x0 as i64,
                self.hb.lo.y + y0 as i64,
                self.hb.lo.z + z0 as i64,
            ),
            nx: self.tile.min(sx - x0),
            ny: self.tile.min(sy - y0),
            nz: tz.min(sz - z0),
            sy_stride: self.tile,
            sz_stride: self.tile * self.tile,
        }
    }

    /// Chebyshev-adjacent tiles (the one-tile activation buffer).
    pub fn tile_neighbors(&self, tile_idx: usize) -> Vec<usize> {
        let tx = (tile_idx % self.tiles_x) as i64;
        let ty = ((tile_idx / self.tiles_x) % self.tiles_y) as i64;
        let tz = (tile_idx / (self.tiles_x * self.tiles_y)) as i64;
        let mut out = Vec::new();
        for dz in -1i64..=1 {
            for dy in -1i64..=1 {
                for dx in -1i64..=1 {
                    if dx == 0 && dy == 0 && dz == 0 {
                        continue;
                    }
                    let (qx, qy, qz) = (tx + dx, ty + dy, tz + dz);
                    if qx >= 0
                        && qy >= 0
                        && qz >= 0
                        && (qx as usize) < self.tiles_x
                        && (qy as usize) < self.tiles_y
                        && (qz as usize) < self.tiles_z
                    {
                        out.push(
                            (qz as usize * self.tiles_y + qy as usize) * self.tiles_x + qx as usize,
                        );
                    }
                }
            }
        }
        out
    }

    /// Does this tile hold a ghost (non-core) voxel inside the global box
    /// `grid`, i.e. one that receives halo data? A box test: the tile's
    /// in-grid extent is not its core extent.
    pub fn contains_ghost(&self, tile_idx: usize, grid: GridBox) -> bool {
        let span = self.tile_span(tile_idx);
        span.clip(self.core_box()).volume() != span.clip(grid).volume()
    }

    /// Core cells on a face of the core box (the cells a neighbor holds as
    /// ghosts) as `(storage index, coordinate)`, in tile-major storage order.
    /// Built from the faces: a tile whose core cells all lie inside the core
    /// shrunk by one voxel is skipped whole.
    pub fn boundary_cells(&self) -> Vec<(usize, Coord)> {
        let core = self.core_box();
        let gz = i64::from(!self.flat());
        let inner = (core.0.offset(1, 1, gz), core.1.offset(-1, -1, -gz));
        let mut out = Vec::new();
        for t in 0..self.n_tiles() {
            let span = self.tile_span(t);
            let cb = span.clip(core);
            if span.clip(inner) == cb {
                continue;
            }
            for (oy, oz, row) in span.rows(cb) {
                for ox in cb.x0..cb.x1 {
                    let c = span.origin.offset(ox as i64, oy as i64, oz as i64);
                    if self.hb.is_boundary(c) {
                        out.push((row + ox - cb.x0, c));
                    }
                }
            }
        }
        out
    }

    /// Cells of the apron scratch block: side `tile + 2` along x and y, and
    /// along z too unless the box is flat (2D grids have no z apron).
    pub fn block_len(&self) -> usize {
        let b = self.tile + 2;
        let bz = if self.flat() { 1 } else { self.tile + 2 };
        b * b * bz
    }

    /// Block index of the cell at tile offsets `(ox, oy, oz)`, each in
    /// `-1..=tile`: the block is row-major with side `tile + 2` and offset
    /// `-1` (the low apron) at block coordinate 0.
    #[inline]
    pub fn block_index(&self, ox: i64, oy: i64, oz: i64) -> usize {
        let b = self.tile as i64 + 2;
        let bz = if self.flat() { 0 } else { oz + 1 };
        ((bz * b + oy + 1) * b + ox + 1) as usize
    }

    /// Enumerate the row segments that stage the core sub-box `cb` of a tile
    /// plus its one-voxel apron into the scratch block — the shared-memory
    /// idiom: gather a tile with its halo once, then run the stencil over
    /// resident data. `put(dst, src, len)` is called per segment: block cells
    /// `dst..dst + len` take storage cells `src..src + len`, or `+0.0` when
    /// `src` is `None` (apron cells outside the global grid).
    ///
    /// `cb` must lie inside the core box, so every cell of `cb` ± 1 is
    /// covered by the halo box (storage exists) and `cb` itself is in bounds.
    /// Only apron offsets `-1` and `tile` leave the tile, and they land on
    /// the last / first row of the adjacent tile — no division per cell.
    pub fn apron_segments(
        &self,
        tile_idx: usize,
        cb: TileBox,
        dims: GridDims,
        mut put: impl FnMut(usize, Option<usize>, usize),
    ) {
        if cb.volume() == 0 {
            return;
        }
        let origin = self.tile_span(tile_idx).origin;
        // (tile step, in-tile offset) of apron offset `a` in `-1..=side`.
        let split = |a: i64, side: usize| -> (isize, usize) {
            if a < 0 {
                (-1, side - 1)
            } else if a as usize == side {
                (1, 0)
            } else {
                (0, a as usize)
            }
        };
        let (tile, tz) = (self.tile, self.tz());
        let cell = |ax: i64, row_tile: isize, row_off: usize| -> usize {
            let (dtx, ox) = split(ax, tile);
            (row_tile + dtx) as usize * self.tile_volume + row_off + ox
        };
        let n = cb.nx();
        let (az0, az1) = if self.flat() {
            (0, 1)
        } else {
            (cb.z0 as i64 - 1, cb.z1 as i64 + 1)
        };
        for az in az0..az1 {
            for ay in cb.y0 as i64 - 1..cb.y1 as i64 + 1 {
                let dst = self.block_index(cb.x0 as i64 - 1, ay, az);
                let row = Coord::new(origin.x + cb.x0 as i64, origin.y + ay, origin.z + az);
                if !dims.in_bounds(row) {
                    put(dst, None, n + 2);
                    continue;
                }
                let (dty, oy) = split(ay, tile);
                let (dtz, oz) = split(az, tz);
                let row_tile =
                    tile_idx as isize + (dtz * self.tiles_y as isize + dty) * self.tiles_x as isize;
                let row_off = (oz * tile + oy) * tile;
                let left = (row.x > 0).then(|| cell(cb.x0 as i64 - 1, row_tile, row_off));
                let right = (row.x + (n as i64) < dims.x as i64)
                    .then(|| cell(cb.x1 as i64, row_tile, row_off));
                put(dst, left, 1);
                put(dst + 1, Some(cell(cb.x0 as i64, row_tile, row_off)), n);
                put(dst + 1 + n, right, 1);
            }
        }
    }
}

impl Layout for TileLayout {
    fn halo(&self) -> &HaloBox {
        &self.hb
    }

    fn storage_len(&self) -> usize {
        self.len()
    }

    #[inline]
    fn local(&self, c: Coord) -> usize {
        TileLayout::local(self, c)
    }

    /// Tile by tile, each tile's rows clipped to `b`.
    fn rows(&self, b: GridBox, mut row: impl FnMut(Coord, usize, usize)) {
        for t in 0..self.n_tiles() {
            let span = self.tile_span(t);
            let cb = span.clip(b);
            for (oy, oz, li) in span.rows(cb) {
                row(
                    span.origin.offset(cb.x0 as i64, oy as i64, oz as i64),
                    li,
                    cb.nx(),
                );
            }
        }
    }
}

/// An axis-aligned sub-box of one tile in tile offsets: the cells
/// `(ox, oy, oz)` with `x0 <= ox < x1`, `y0 <= oy < y1`, `z0 <= oz < z1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileBox {
    pub x0: usize,
    pub x1: usize,
    pub y0: usize,
    pub y1: usize,
    pub z0: usize,
    pub z1: usize,
}

impl TileBox {
    /// Cells per x-row.
    #[inline]
    pub fn nx(&self) -> usize {
        self.x1 - self.x0
    }

    /// Number of cells (0 when any axis is empty).
    #[inline]
    pub fn volume(&self) -> usize {
        self.nx() * (self.y1 - self.y0) * (self.z1 - self.z0)
    }

    /// Is every cell of `other` a cell of this box?
    #[inline]
    pub fn contains(&self, other: TileBox) -> bool {
        other.volume() == 0
            || (self.x0 <= other.x0
                && other.x1 <= self.x1
                && self.y0 <= other.y0
                && other.y1 <= self.y1
                && self.z0 <= other.z0
                && other.z1 <= self.z1)
    }
}

/// The valid (non-padded) extent of one tile (see [`TileLayout::tile_span`]).
///
/// The cell at tile offsets `(ox, oy, oz)` has storage index
/// `base + oz * sz_stride + oy * sy_stride + ox` and global coordinate
/// `origin + (ox, oy, oz)`; valid offsets are `ox < nx`, `oy < ny`,
/// `oz < nz`.
#[derive(Debug, Clone, Copy)]
pub struct TileSpan {
    pub base: usize,
    pub origin: Coord,
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    pub sy_stride: usize,
    pub sz_stride: usize,
}

impl TileSpan {
    /// Number of valid cells.
    #[inline]
    pub fn volume(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// The part of this tile inside the global box `[lo, hi)`, in tile
    /// offsets. Core, in-bounds and global-interior cells of a tile are all
    /// such boxes, so a sweep clips once per tile and then walks row
    /// segments instead of testing every voxel.
    pub fn clip(&self, (lo, hi): GridBox) -> TileBox {
        let axis = |o: i64, n: usize, lo: i64, hi: i64| {
            let a = (lo - o).clamp(0, n as i64) as usize;
            let b = (hi - o).clamp(0, n as i64) as usize;
            (a, b.max(a))
        };
        let (x0, x1) = axis(self.origin.x, self.nx, lo.x, hi.x);
        let (y0, y1) = axis(self.origin.y, self.ny, lo.y, hi.y);
        let (z0, z1) = axis(self.origin.z, self.nz, lo.z, hi.z);
        TileBox {
            x0,
            x1,
            y0,
            y1,
            z0,
            z1,
        }
    }

    /// The x-rows of sub-box `b` in storage order: `(oy, oz, index)` with
    /// `index` the storage index of the row's first cell `(b.x0, oy, oz)`;
    /// each row holds `b.nx()` contiguous cells. An empty box has no
    /// rows.
    pub fn rows(self, b: TileBox) -> impl Iterator<Item = (usize, usize, usize)> {
        let zs = if b.volume() == 0 { 0..0 } else { b.z0..b.z1 };
        zs.flat_map(move |oz| {
            (b.y0..b.y1).map(move |oy| {
                (
                    oy,
                    oz,
                    self.base + oz * self.sz_stride + oy * self.sy_stride + b.x0,
                )
            })
        })
    }
}

/// Active-tile tracking with the periodic check schedule.
#[derive(Debug, Clone)]
pub struct TileTracker {
    pub active: Vec<bool>,
    always_active: Vec<bool>,
    /// Steps between activity sweeps; must be ≤ tile side.
    pub check_period: u64,
}

impl TileTracker {
    /// Build a tracker; tiles holding a ghost inside `grid`, and the
    /// one-tile buffer around each, are permanently active.
    pub fn new(layout: &TileLayout, grid: GridBox, check_period: u64) -> Self {
        assert!(
            check_period >= 1 && check_period <= layout.tile as u64,
            "check period {} must be in [1, tile side {}]",
            check_period,
            layout.tile
        );
        let mut always = vec![false; layout.n_tiles()];
        for t in 0..layout.n_tiles() {
            if layout.contains_ghost(t, grid) {
                always[t] = true;
                for n in layout.tile_neighbors(t) {
                    always[n] = true;
                }
            }
        }
        TileTracker {
            active: always.clone(),
            always_active: always,
            check_period,
        }
    }

    /// Is a check due at this step? (Step 0 always checks to capture the
    /// initial condition.)
    #[inline]
    pub fn check_due(&self, step: u64) -> bool {
        step.is_multiple_of(self.check_period)
    }

    /// Apply sweep results: `found[t]` says tile `t` contains activity.
    /// Activates found tiles plus a one-tile buffer, plus permanent tiles.
    pub fn apply_check(&mut self, layout: &TileLayout, found: &[bool]) {
        assert_eq!(found.len(), layout.n_tiles());
        for a in self.active.iter_mut() {
            *a = false;
        }
        for (t, &f) in found.iter().enumerate() {
            if f {
                self.active[t] = true;
                for n in layout.tile_neighbors(t) {
                    self.active[n] = true;
                }
            }
        }
        for (t, &a) in self.always_active.iter().enumerate() {
            if a {
                self.active[t] = true;
            }
        }
    }

    pub fn n_active(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcov_core::decomp::{Partition, Strategy};
    use simcov_core::grid::GridDims;

    /// Per-cell reference forms of the tile geometry.
    impl TileLayout {
        /// Tile index containing a covered global coordinate.
        #[inline]
        fn tile_of(&self, c: Coord) -> usize {
            debug_assert!(self.hb.covers(c));
            let lx = (c.x - self.hb.lo.x) as usize / self.tile;
            let ly = (c.y - self.hb.lo.y) as usize / self.tile;
            let lz = (c.z - self.hb.lo.z) as usize / self.tz();
            (lz * self.tiles_y + ly) * self.tiles_x + lx
        }

        /// Iterate the in-box global coordinates of a tile together with their
        /// storage indices, in storage order. Padded cells are skipped. This is
        /// the per-cell reference enumeration the blocked forms (`tile_span`,
        /// `TileSpan::clip` + `TileSpan::rows`, `apron_segments`) are tested
        /// against.
        fn tile_coords(&self, tile_idx: usize) -> impl Iterator<Item = (usize, Coord)> + '_ {
            let tx = tile_idx % self.tiles_x;
            let ty = (tile_idx / self.tiles_x) % self.tiles_y;
            let tzi = tile_idx / (self.tiles_x * self.tiles_y);
            let tz = self.tz();
            let base = tile_idx * self.tile_volume;
            let (sx, sy, sz) = self.hb.size();
            (0..tz).flat_map(move |oz| {
                (0..self.tile).flat_map(move |oy| {
                    (0..self.tile).filter_map(move |ox| {
                        let x = tx * self.tile + ox;
                        let y = ty * self.tile + oy;
                        let z = tzi * tz + oz;
                        if x < sx && y < sy && z < sz {
                            Some((
                                base + (oz * self.tile + oy) * self.tile + ox,
                                Coord::new(
                                    self.hb.lo.x + x as i64,
                                    self.hb.lo.y + y as i64,
                                    self.hb.lo.z + z as i64,
                                ),
                            ))
                        } else {
                            None
                        }
                    })
                })
            })
        }
    }

    fn layout_2d(grid: u32, ranks: usize, rank: usize, tile: usize) -> TileLayout {
        let dims = GridDims::new2d(grid, grid);
        let p = Partition::new(dims, ranks, Strategy::Blocks);
        TileLayout::new(HaloBox::new(dims, *p.sub(rank)), tile)
    }

    /// The global box of a `side`² grid.
    fn square(side: i64) -> GridBox {
        (Coord::new(0, 0, 0), Coord::new(side, side, 1))
    }

    /// Tracker invariant: every tile within one tile of a tile holding an
    /// in-grid ghost is active.
    fn assert_ghost_buffers_active(l: &TileLayout, grid: GridBox, tracker: &TileTracker) {
        for t in (0..l.n_tiles()).filter(|&t| l.contains_ghost(t, grid)) {
            assert!(tracker.active[t], "ghost tile {t} in {l:?}");
            for n in l.tile_neighbors(t) {
                assert!(
                    tracker.active[n],
                    "buffer tile {n} of ghost tile {t} in {l:?}"
                );
            }
        }
    }

    #[test]
    fn local_indices_unique_and_in_range() {
        let l = layout_2d(16, 4, 0, 3);
        let mut seen = std::collections::HashSet::new();
        let (sx, sy, _) = l.hb.size();
        for y in 0..sy {
            for x in 0..sx {
                let c = Coord::new(l.hb.lo.x + x as i64, l.hb.lo.y + y as i64, 0);
                let idx = l.local(c);
                assert!(idx < l.len());
                assert!(seen.insert(idx), "duplicate index {idx} for {c:?}");
            }
        }
    }

    #[test]
    fn tile_coords_cover_box_exactly_once() {
        let l = layout_2d(16, 4, 1, 3);
        let mut seen = std::collections::HashSet::new();
        for t in 0..l.n_tiles() {
            for (idx, c) in l.tile_coords(t) {
                assert!(l.hb.covers(c));
                assert_eq!(l.local(c), idx);
                assert_eq!(l.tile_of(c), t);
                assert!(seen.insert(idx));
            }
        }
        let (sx, sy, sz) = l.hb.size();
        assert_eq!(seen.len(), sx * sy * sz);
    }

    #[test]
    fn tile_contiguity() {
        // Voxels of one tile occupy a contiguous index range (the locality
        // property the paper exploits).
        let l = layout_2d(32, 4, 0, 4);
        for t in 0..l.n_tiles() {
            let idxs: Vec<usize> = l.tile_coords(t).map(|(i, _)| i).collect();
            if idxs.is_empty() {
                continue;
            }
            let min = *idxs.iter().min().unwrap();
            let max = *idxs.iter().max().unwrap();
            assert!(min >= t * l.tile_volume);
            assert!(max < (t + 1) * l.tile_volume);
        }
    }

    #[test]
    fn in_grid_ghost_tiles_and_their_buffer_always_active() {
        let l = layout_2d(32, 4, 0, 4);
        let grid = square(32);
        let tracker = TileTracker::new(&l, grid, 4);
        // Exactly the tiles holding a ghost inside the grid (rank 0's high
        // x and y faces) and their one-tile buffer; the ghosts at x = -1 and
        // y = -1 lie outside the grid and force nothing.
        for (t, &active) in tracker.active.iter().enumerate() {
            let near_ghost = std::iter::once(t)
                .chain(l.tile_neighbors(t))
                .any(|u| l.contains_ghost(u, grid));
            assert_eq!(active, near_ghost, "tile {t}");
        }
        assert!(
            !tracker.active[0],
            "the corner tile only holds out-of-grid ghosts"
        );
        assert!(tracker.n_active() > 0);
        // A single rank's ghost ring lies wholly outside the grid.
        let l = layout_2d(32, 1, 0, 4);
        assert_eq!(TileTracker::new(&l, grid, 4).n_active(), 0);
    }

    #[test]
    fn ghost_buffers_stay_active_after_every_check() {
        for (dims, l) in ragged_layouts() {
            let grid = (
                Coord::new(0, 0, 0),
                Coord::new(dims.x as i64, dims.y as i64, dims.z as i64),
            );
            let mut tracker = TileTracker::new(&l, grid, 1);
            assert_ghost_buffers_active(&l, grid, &tracker);
            for pattern in 0..3 {
                let found: Vec<bool> = (0..l.n_tiles()).map(|t| (t + pattern) % 3 == 0).collect();
                tracker.apply_check(&l, &found);
                assert_ghost_buffers_active(&l, grid, &tracker);
            }
        }
    }

    #[test]
    fn apply_check_dilates_by_one_tile() {
        let l = layout_2d(33, 1, 0, 5);
        let grid = square(33);
        let mut tracker = TileTracker::new(&l, grid, 5);
        let mut found = vec![false; l.n_tiles()];
        // Activate a single interior tile.
        let interior = (0..l.n_tiles())
            .find(|&t| !l.contains_ghost(t, grid) && l.tile_neighbors(t).len() == 8)
            .expect("interior tile");
        found[interior] = true;
        tracker.apply_check(&l, &found);
        assert!(tracker.active[interior]);
        for n in l.tile_neighbors(interior) {
            assert!(tracker.active[n], "buffer tile {n} must be active");
        }
        // Re-checking with no activity deactivates all but permanent tiles.
        tracker.apply_check(&l, &vec![false; l.n_tiles()]);
        assert!(!tracker.active[interior]);
    }

    #[test]
    #[should_panic]
    fn check_period_cannot_exceed_tile_side() {
        let l = layout_2d(16, 1, 0, 4);
        TileTracker::new(&l, square(16), 5);
    }

    #[test]
    fn layout_3d() {
        let dims = GridDims::new3d(12, 12, 12);
        let p = Partition::new(dims, 8, Strategy::Blocks);
        let l = TileLayout::new(HaloBox::new(dims, *p.sub(0)), 4);
        let mut seen = std::collections::HashSet::new();
        for t in 0..l.n_tiles() {
            for (idx, c) in l.tile_coords(t) {
                assert_eq!(l.local(c), idx);
                assert!(seen.insert(idx));
            }
        }
        let (sx, sy, sz) = l.hb.size();
        assert_eq!(seen.len(), sx * sy * sz);
        assert_eq!((sx, sy, sz), (8, 8, 8));
    }

    #[test]
    fn coord_of_inverts_local() {
        for (grid, ranks, rank, tile) in [(16u32, 4usize, 0usize, 3usize), (33, 1, 0, 5)] {
            let l = layout_2d(grid, ranks, rank, tile);
            for t in 0..l.n_tiles() {
                for (idx, c) in l.tile_coords(t) {
                    assert_eq!(l.coord_of(idx), c);
                }
            }
        }
        // 3D.
        let dims = GridDims::new3d(10, 10, 10);
        let p = Partition::new(dims, 2, Strategy::Blocks);
        let l = TileLayout::new(HaloBox::new(dims, *p.sub(0)), 3);
        for t in 0..l.n_tiles() {
            for (idx, c) in l.tile_coords(t) {
                assert_eq!(l.coord_of(idx), c);
            }
        }
    }

    #[test]
    fn tile_span_matches_tile_coords() {
        // The blocked loop form must visit exactly the same (index, coord)
        // sequence as the iterator form, including on edge tiles with
        // padding and in 3D.
        let mut layouts = vec![layout_2d(16, 4, 0, 3), layout_2d(33, 1, 0, 5)];
        let dims = GridDims::new3d(10, 10, 10);
        let p = Partition::new(dims, 2, Strategy::Blocks);
        layouts.push(TileLayout::new(HaloBox::new(dims, *p.sub(0)), 3));
        for l in &layouts {
            for t in 0..l.n_tiles() {
                let span = l.tile_span(t);
                let mut from_span = Vec::new();
                for oz in 0..span.nz {
                    for oy in 0..span.ny {
                        let row = span.base + oz * span.sz_stride + oy * span.sy_stride;
                        for ox in 0..span.nx {
                            from_span.push((
                                row + ox,
                                span.origin.offset(ox as i64, oy as i64, oz as i64),
                            ));
                        }
                    }
                }
                let from_iter: Vec<_> = l.tile_coords(t).collect();
                assert_eq!(from_span, from_iter, "tile {t}");
            }
        }
    }

    /// 2D and 3D layouts whose subdomain sides are not multiples of the tile
    /// side, for tile sides 1, 3, 8 and 16 (larger than the subdomain), on
    /// every rank (corner, edge and interior subdomains).
    fn ragged_layouts() -> Vec<(GridDims, TileLayout)> {
        let mut out = Vec::new();
        for (dims, ranks) in [
            (GridDims::new2d(13, 11), 4),
            (GridDims::new2d(29, 31), 9),
            (GridDims::new3d(7, 9, 5), 2),
            (GridDims::new3d(11, 10, 13), 8),
        ] {
            let p = Partition::new(dims, ranks, Strategy::Blocks);
            for rank in 0..ranks {
                for tile in [1usize, 3, 8, 16] {
                    let hb = HaloBox::new(dims, *p.sub(rank));
                    out.push((dims, TileLayout::new(hb, tile)));
                }
            }
        }
        out
    }

    #[test]
    fn clipped_boxes_enumerate_core_and_in_bounds_cells() {
        for (dims, l) in ragged_layouts() {
            let grid_hi = Coord::new(dims.x as i64, dims.y as i64, dims.z as i64);
            for t in 0..l.n_tiles() {
                let span = l.tile_span(t);
                let cells = |b: TileBox| -> Vec<(usize, Coord)> {
                    span.rows(b)
                        .flat_map(|(oy, oz, row)| {
                            (b.x0..b.x1).map(move |ox| {
                                (
                                    row + ox - b.x0,
                                    span.origin.offset(ox as i64, oy as i64, oz as i64),
                                )
                            })
                        })
                        .collect()
                };
                let cb = span.clip(l.core_box());
                let core: Vec<_> = l.tile_coords(t).filter(|(_, c)| l.hb.is_core(*c)).collect();
                assert_eq!(cells(cb), core, "core box of tile {t} in {l:?}");
                assert_eq!(cb.volume(), core.len());
                let grid = (Coord::new(0, 0, 0), grid_hi);
                let gb = span.clip(grid);
                let inb: Vec<_> = l
                    .tile_coords(t)
                    .filter(|(_, c)| dims.in_bounds(*c))
                    .collect();
                assert_eq!(l.contains_ghost(t, grid), core.len() != inb.len());
                assert_eq!(cells(gb), inb, "in-bounds box of tile {t} in {l:?}");
                assert!(gb.contains(cb), "core cells are in bounds");
            }
        }
    }

    #[test]
    fn apron_gather_is_the_checked_gather() {
        for (dims, l) in ragged_layouts() {
            // Every storage cell distinct and non-zero — including padding
            // and ghost cells outside the grid, which the gather must not
            // read.
            let src: Vec<f32> = (0..l.len()).map(|i| i as f32 + 1.0).collect();
            for t in 0..l.n_tiles() {
                let span = l.tile_span(t);
                let cb = span.clip(l.core_box());
                let mut block = vec![f32::NAN; l.block_len()];
                l.apron_segments(t, cb, dims, |dst, s, n| match s {
                    Some(s) => block[dst..dst + n].copy_from_slice(&src[s..s + n]),
                    None => block[dst..dst + n].fill(0.0),
                });
                let dz = if dims.is_2d() { 0 } else { 1 };
                for (oy, oz, _) in span.rows(cb) {
                    for ox in cb.x0..cb.x1 {
                        let (ox, oy, oz) = (ox as i64, oy as i64, oz as i64);
                        let c = span.origin.offset(ox, oy, oz);
                        for z in -dz..=dz {
                            for y in -1..=1 {
                                for x in -1..=1 {
                                    let q = c.offset(x, y, z);
                                    let want = if dims.in_bounds(q) {
                                        src[l.local(q)]
                                    } else {
                                        0.0
                                    };
                                    let got = block[l.block_index(ox + x, oy + y, oz + z)];
                                    assert_eq!(
                                        got.to_bits(),
                                        want.to_bits(),
                                        "tile {t} cell {c:?} neighbor {q:?} in {l:?}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn check_due_schedule() {
        let l = layout_2d(16, 1, 0, 4);
        let t = TileTracker::new(&l, square(16), 4);
        assert!(t.check_due(0));
        assert!(!t.check_due(1));
        assert!(t.check_due(4));
        assert!(t.check_due(8));
    }
}
