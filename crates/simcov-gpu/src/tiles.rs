//! Memory tiling (§3.2, Fig. 3).
//!
//! A device's halo box is carved into fixed-size tiles. The tiling is a
//! logical index over the box's row-major storage (the same storage a CPU
//! rank keeps): a tile is a span of rows with the halo box's strides, and
//! its coalesced access is what the device's counters charge, not an order
//! the host keeps. Tiles are tracked active/inactive; kernels visit only
//! active tiles, walking maximal x-runs of consecutive work tiles
//! ([`TileLayout::work_rows`]). A periodic check kernel (period ≤ tile side)
//! sweeps the space, reactivates tiles containing activity, and activates a
//! one-tile-thick buffer around them — safe because nothing in SIMCoV moves
//! faster than one voxel per step. Tiles holding an in-grid ghost voxel
//! (halo data lands there every step, whatever the check found) are always
//! active, and so is the one-tile buffer around each of them: a ghost
//! tile's core part can be one voxel thick, so activity arriving through
//! the halo can cross it in two steps, long before the next check. Ghosts
//! outside the grid receive nothing and force nothing.

use simcov_core::grid::{Coord, GridDims};
use simcov_core::halo::HaloBox;
use simcov_core::unit_grid::{grid_box, GridBox};

/// The three global boxes every sweep of a device step is clipped against
/// ([`TileLayout::work_rows`], [`TileSpan::clip`]): core, in-bounds and
/// global-interior cells are each one box, so no inner loop tests a
/// coordinate.
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

/// The tiling of a row-major halo box.
#[derive(Debug, Clone)]
pub struct TileLayout {
    pub hb: HaloBox,
    /// Tile side in voxels (x and y; z too for 3D boxes).
    pub tile: usize,
    tiles_x: usize,
    tiles_y: usize,
    tiles_z: usize,
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
        }
    }

    /// The owned region as a box.
    #[inline]
    pub fn core_box(&self) -> GridBox {
        (self.hb.core.lo, self.hb.core.hi)
    }

    /// Tile side along z: 1 for a flat box (2D grid), else the tile side.
    #[inline]
    fn tz(&self) -> usize {
        if self.hb.size().2 == 1 {
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

    /// Cells of a full tile: what a device kernel launched per tile covers,
    /// edge tiles included.
    #[inline]
    pub fn tile_volume(&self) -> usize {
        self.tile * self.tile * self.tz()
    }

    /// The valid extent of a tile: storage index of its first cell, global
    /// origin, per-axis voxel counts and the halo box's row-major strides.
    /// Nested loops over a span visit the tile's cells in storage order
    /// without per-cell division.
    pub fn tile_span(&self, tile_idx: usize) -> TileSpan {
        let tx = tile_idx % self.tiles_x;
        let ty = (tile_idx / self.tiles_x) % self.tiles_y;
        let tzi = tile_idx / (self.tiles_x * self.tiles_y);
        let (sx, sy, sz) = self.hb.size();
        let (x0, y0, z0) = (tx * self.tile, ty * self.tile, tzi * self.tz());
        TileSpan {
            base: (z0 * sy + y0) * sx + x0,
            origin: self.hb.lo.offset(x0 as i64, y0 as i64, z0 as i64),
            nx: self.tile.min(sx - x0),
            ny: self.tile.min(sy - y0),
            nz: self.tz().min(sz - z0),
            sy_stride: sx,
            sz_stride: sx * sy,
        }
    }

    /// Call `row(start, index, len)` for every x-row segment of the work
    /// tiles (`work(tile)`) inside the global box `b`, in ascending storage
    /// order: `len` contiguous cells from storage `index`, holding the
    /// voxels from global `start` along x. Consecutive work tiles of a tile
    /// row merge into one run, so a segment ends only where the box or the
    /// work set does.
    pub fn work_rows(
        &self,
        work: impl Fn(usize) -> bool,
        (lo, hi): GridBox,
        mut row: impl FnMut(Coord, usize, usize),
    ) {
        let hb = &self.hb;
        let (x0, x1) = (lo.x.max(hb.lo.x) - hb.lo.x, hi.x.min(hb.hi.x) - hb.lo.x);
        if x0 >= x1 {
            return;
        }
        let (x0, x1) = (x0 as usize, x1 as usize);
        let (t0, t1) = (x0 / self.tile, (x1 - 1) / self.tile + 1);
        let tz = self.tz();
        for z in lo.z.max(hb.lo.z)..hi.z.min(hb.hi.z) {
            for y in lo.y.max(hb.lo.y)..hi.y.min(hb.hi.y) {
                let (ly, lz) = ((y - hb.lo.y) as usize, (z - hb.lo.z) as usize);
                let first = (lz / tz * self.tiles_y + ly / self.tile) * self.tiles_x;
                let base = hb.local(Coord::new(hb.lo.x, y, z));
                let mut t = t0;
                while t < t1 {
                    if !work(first + t) {
                        t += 1;
                        continue;
                    }
                    let a = (t * self.tile).max(x0);
                    while t < t1 && work(first + t) {
                        t += 1;
                    }
                    let b = (t * self.tile).min(x1);
                    row(Coord::new(hb.lo.x + a as i64, y, z), base + a, b - a);
                }
            }
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
    /// ghosts) as `(storage index, coordinate)`, tile by tile. Built from
    /// the faces: a tile whose core cells all lie inside the core shrunk by
    /// one voxel is skipped whole.
    pub fn boundary_cells(&self) -> Vec<(usize, Coord)> {
        let core = self.core_box();
        let gz = i64::from(self.hb.size().2 > 1);
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
}

/// The valid extent of one tile (see [`TileLayout::tile_span`]).
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
    /// such boxes, so a per-tile sweep clips once and then walks row
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

    /// The update kernels' work set: the active tiles, or every tile when
    /// `tiling` is off.
    pub fn work(&self, tiling: bool) -> impl Fn(usize) -> bool + '_ {
        move |t| !tiling || self.active[t]
    }

    pub fn n_active(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgas::SplitMix64;
    use simcov_core::decomp::{Partition, Strategy};
    use simcov_core::grid::GridDims;

    /// Per-cell reference form of the tile geometry: the tile containing a
    /// covered global coordinate.
    fn tile_of(l: &TileLayout, c: Coord) -> usize {
        assert!(l.hb.covers(c));
        let lx = (c.x - l.hb.lo.x) as usize / l.tile;
        let ly = (c.y - l.hb.lo.y) as usize / l.tile;
        let lz = (c.z - l.hb.lo.z) as usize / l.tz();
        (lz * l.tiles_y + ly) * l.tiles_x + lx
    }

    /// The halo box's cells `(storage index, coordinate)` that `keep`
    /// admits, in storage order: the reference the blocked forms are
    /// tested against.
    fn cells_where(l: &TileLayout, keep: impl Fn(Coord) -> bool) -> Vec<(usize, Coord)> {
        (0..l.hb.len())
            .map(|li| (li, l.hb.global(li)))
            .filter(|&(_, c)| keep(c))
            .collect()
    }

    fn contains((lo, hi): GridBox, c: Coord) -> bool {
        (lo.x..hi.x).contains(&c.x) && (lo.y..hi.y).contains(&c.y) && (lo.z..hi.z).contains(&c.z)
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

    /// The cells of sub-box `b` of a tile span, in the span's row order.
    fn span_cells(span: TileSpan, b: TileBox) -> Vec<(usize, Coord)> {
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
    fn tile_spans_partition_the_halo_box() {
        for (_, l) in ragged_layouts() {
            let mut seen = vec![false; l.hb.len()];
            for t in 0..l.n_tiles() {
                let span = l.tile_span(t);
                let all = span.clip((l.hb.lo, l.hb.hi));
                assert_eq!(all.volume(), span.volume());
                let cells = span_cells(span, all);
                let want = cells_where(&l, |c| tile_of(&l, c) == t);
                assert_eq!(cells, want, "tile {t} in {l:?}");
                for (li, _) in cells {
                    assert!(!std::mem::replace(&mut seen[li], true));
                }
            }
            assert!(seen.iter().all(|&s| s), "{l:?}");
        }
    }

    #[test]
    fn clipped_boxes_enumerate_core_and_in_bounds_cells() {
        for (dims, l) in ragged_layouts() {
            let grid = grid_box(dims);
            for t in 0..l.n_tiles() {
                let span = l.tile_span(t);
                let in_tile = |c: Coord| tile_of(&l, c) == t;
                let core = cells_where(&l, |c| in_tile(c) && l.hb.is_core(c));
                assert_eq!(span_cells(span, span.clip(l.core_box())), core);
                let inb = cells_where(&l, |c| in_tile(c) && dims.in_bounds(c));
                assert_eq!(span_cells(span, span.clip(grid)), inb);
                assert_eq!(l.contains_ghost(t, grid), core.len() != inb.len());
            }
        }
    }

    #[test]
    fn work_rows_enumerate_the_work_cells_of_each_box_once_in_order() {
        let mut rng = SplitMix64::new(2024);
        for (dims, l) in ragged_layouts() {
            let boxes = SweepBoxes::new(dims, &l);
            let mut sets = vec![vec![true; l.n_tiles()], vec![false; l.n_tiles()]];
            for density in [0.2, 0.5, 0.8] {
                sets.push((0..l.n_tiles()).map(|_| rng.next_f64() < density).collect());
            }
            for work in &sets {
                for b in [boxes.core, boxes.grid, boxes.interior] {
                    let mut got = Vec::new();
                    let mut last: Option<(Coord, usize)> = None;
                    l.work_rows(
                        |t| work[t],
                        b,
                        |start, li, len| {
                            assert!(len > 0);
                            assert_eq!(l.hb.local(start), li);
                            // Runs are maximal: two on one row never touch.
                            if let Some((end, _)) =
                                last.filter(|(e, _)| (e.y, e.z) == (start.y, start.z))
                            {
                                assert!(end.x < start.x, "{end:?} touches {start:?} in {l:?}");
                            }
                            last = Some((start.offset(len as i64, 0, 0), li + len));
                            got.extend((0..len).map(|k| (li + k, start.offset(k as i64, 0, 0))));
                        },
                    );
                    let want = cells_where(&l, |c| contains(b, c) && work[tile_of(&l, c)]);
                    assert_eq!(got, want, "box {b:?} in {l:?}");
                }
            }
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
            let grid = grid_box(dims);
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
    fn check_due_schedule() {
        let l = layout_2d(16, 1, 0, 4);
        let t = TileTracker::new(&l, square(16), 4);
        assert!(t.check_due(0));
        assert!(!t.check_due(1));
        assert!(t.check_due(4));
        assert!(t.check_due(8));
    }
}
