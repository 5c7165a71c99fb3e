//! The uniform spatial grid that indexes node positions for the radio.
//!
//! Every broadcast used to scan all node slots — O(n) per frame, O(n²) per
//! HELLO interval network-wide — which capped scenarios at a few dozen
//! nodes. The [`SpatialGrid`] hashes positions into square cells at least
//! as large as the radio's maximum propagation range, so any receiver that
//! could possibly hear a frame lies in the 3×3 cell neighborhood of the
//! transmitter. Positions are stored *inline* in the cell buckets: a
//! range query walks nine contiguous arrays and never touches the node
//! slots, which is what makes the query fast in practice (the slot array
//! is orders of magnitude larger than a neighborhood).
//!
//! The engine keeps the index current incrementally: nodes enter on
//! `add_node` / `revive`, leave on `kill`, and migrate on `set_position`
//! and mobility ticks.
//!
//! ## Determinism contract
//!
//! The grid changes *which* slots are inspected, never the order of RNG
//! draws: callers sort the gathered candidates ascending by node index
//! before judging them, and the radio draws randomness only for
//! candidates within positive-probability range. Everything the distance
//! cull rejects has delivery probability zero — the linear scan would
//! have judged it without drawing — so a grid-indexed run is
//! byte-identical (logs and stats) to a linear-scan run of the same
//! `(seed, config)`; the `grid_equivalence` suite pins this down.

use crate::mobility::{Arena, Position};

/// Sentinel for "this node is not currently indexed" (dead nodes).
const NOT_IN_GRID: u32 = u32::MAX;

/// Cap on cells per axis, so a huge arena with a short radio range does
/// not allocate millions of mostly-empty cells. Cells only ever grow past
/// the radio range (preserving the 3×3 cover property), never shrink
/// below it.
const MAX_CELLS_PER_AXIS: usize = 128;

/// One indexed node: its slot index and its current position, kept
/// inline so range queries stay within the bucket's cache lines.
#[derive(Debug, Clone, Copy)]
struct GridEntry {
    index: u32,
    pos: Position,
}

/// A uniform grid hash over node positions.
///
/// Cell side length is `max(range, arena_side / MAX_CELLS_PER_AXIS)` per
/// axis; because cells are never smaller than the radio range, two nodes
/// within range of each other always occupy the same or adjacent cells.
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    cell_w: f64,
    cell_h: f64,
    cols: usize,
    rows: usize,
    /// Entries per cell, in arbitrary order (queries sort their output).
    cells: Vec<Vec<GridEntry>>,
    /// Cell of each node, or [`NOT_IN_GRID`].
    node_cell: Vec<u32>,
}

impl SpatialGrid {
    /// Builds an empty grid covering `arena` with cells sized for `range`
    /// (the radio's maximum propagation range, in metres).
    ///
    /// A non-positive or non-finite `range` degenerates to arena-sized
    /// cells (a 2×2 grid, since the far border rounds into its own
    /// cell), so every query walks every node — the linear scan in
    /// disguise, still correct.
    pub fn new(arena: &Arena, range: f64) -> Self {
        let axis = |extent: f64| -> (f64, usize) {
            let floor = extent / MAX_CELLS_PER_AXIS as f64;
            let cell = if range.is_finite() && range > 0.0 { range.max(floor) } else { extent };
            // Positions are clamped to [0, extent], so the largest index a
            // query can produce is floor(extent / cell).
            let count = (extent / cell).floor() as usize + 1;
            (cell, count)
        };
        let (cell_w, cols) = axis(arena.width);
        let (cell_h, rows) = axis(arena.height);
        SpatialGrid {
            cell_w,
            cell_h,
            cols,
            rows,
            cells: vec![Vec::new(); cols * rows],
            node_cell: Vec::new(),
        }
    }

    /// Number of cells along the horizontal axis.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of cells along the vertical axis.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of nodes currently indexed.
    pub fn indexed(&self) -> usize {
        self.node_cell.iter().filter(|&&c| c != NOT_IN_GRID).count()
    }

    /// `true` when node `index` is currently in the grid.
    pub fn contains(&self, index: u32) -> bool {
        self.node_cell.get(index as usize).is_some_and(|&c| c != NOT_IN_GRID)
    }

    /// The linear cell index `pos` falls in (clamped to the grid).
    fn cell_of(&self, pos: Position) -> usize {
        let col = ((pos.x / self.cell_w) as usize).min(self.cols - 1);
        let row = ((pos.y / self.cell_h) as usize).min(self.rows - 1);
        row * self.cols + col
    }

    /// Registers a new node slot without placing it in any cell.
    ///
    /// Slots must be registered in index order; `index` must equal the
    /// number of slots registered so far.
    pub fn register_slot(&mut self, index: u32) {
        debug_assert_eq!(index as usize, self.node_cell.len(), "slots registered out of order");
        self.node_cell.push(NOT_IN_GRID);
    }

    /// Places a registered node at `pos`. No-op if it is already indexed.
    pub fn insert(&mut self, index: u32, pos: Position) {
        if self.node_cell[index as usize] != NOT_IN_GRID {
            return;
        }
        let cell = self.cell_of(pos);
        self.cells[cell].push(GridEntry { index, pos });
        self.node_cell[index as usize] = cell as u32;
    }

    /// Removes a node from the index (a dead node neither transmits nor
    /// receives, so broadcasts need not consider it). No-op if absent.
    pub fn remove(&mut self, index: u32) {
        let cell = self.node_cell[index as usize];
        if cell == NOT_IN_GRID {
            return;
        }
        let bucket = &mut self.cells[cell as usize];
        let at = bucket.iter().position(|e| e.index == index).expect("grid cell lost a node");
        bucket.swap_remove(at);
        self.node_cell[index as usize] = NOT_IN_GRID;
    }

    /// Migrates an indexed node to `pos`, moving it between cells when it
    /// crossed a border. No-op for unindexed (dead) nodes.
    pub fn update(&mut self, index: u32, pos: Position) {
        let old = self.node_cell[index as usize];
        if old == NOT_IN_GRID {
            return;
        }
        let new = self.cell_of(pos);
        let bucket = &mut self.cells[old as usize];
        let at = bucket.iter().position(|e| e.index == index).expect("grid cell lost a node");
        if new as u32 == old {
            bucket[at].pos = pos;
            return;
        }
        bucket.swap_remove(at);
        self.cells[new].push(GridEntry { index, pos });
        self.node_cell[index as usize] = new as u32;
    }

    /// Appends to `out` the index of every indexed node within `range`
    /// metres of `pos` (inclusive), by walking the 3×3 cell neighborhood.
    /// `range` must not exceed the radio range the grid was sized for, or
    /// receivers beyond the neighborhood would be missed.
    ///
    /// Order is unspecified; callers needing determinism must sort
    /// (ascending node index matches the linear scan).
    pub fn gather_within(&self, pos: Position, range: f64, out: &mut Vec<u32>) {
        debug_assert!(
            !(range.is_finite() && range > 0.0)
                || (range <= self.cell_w + 1e-9 && range <= self.cell_h + 1e-9),
            "query range {range} exceeds the grid cell size ({} x {})",
            self.cell_w,
            self.cell_h
        );
        let center = self.cell_of(pos);
        let col = center % self.cols;
        let row = center / self.cols;
        let col_lo = col.saturating_sub(1);
        let col_hi = (col + 1).min(self.cols - 1);
        let row_lo = row.saturating_sub(1);
        let row_hi = (row + 1).min(self.rows - 1);
        for r in row_lo..=row_hi {
            for c in col_lo..=col_hi {
                for e in &self.cells[r * self.cols + c] {
                    if pos.distance(&e.pos) <= range {
                        out.push(e.index);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RANGE: f64 = 100.0;

    fn grid(w: f64, h: f64, range: f64) -> SpatialGrid {
        SpatialGrid::new(&Arena::new(w, h), range)
    }

    fn gathered(g: &SpatialGrid, pos: Position) -> Vec<u32> {
        let mut out = Vec::new();
        g.gather_within(pos, RANGE, &mut out);
        out.sort_unstable();
        out
    }

    #[test]
    fn cell_counts_cover_the_arena() {
        let g = grid(1000.0, 500.0, 250.0);
        assert_eq!(g.cols(), 5); // floor(1000/250)+1: x == 1000.0 maps in-bounds
        assert_eq!(g.rows(), 3);
    }

    #[test]
    fn degenerate_range_collapses_to_one_cell() {
        for bad in [0.0, -5.0, f64::INFINITY, f64::NAN] {
            let g = grid(100.0, 100.0, bad);
            assert_eq!((g.cols(), g.rows()), (2, 2), "range {bad}");
        }
    }

    #[test]
    fn huge_arena_is_capped() {
        let g = grid(1_000_000.0, 1_000_000.0, 10.0);
        assert!(g.cols() <= MAX_CELLS_PER_AXIS + 1);
        assert!(g.rows() <= MAX_CELLS_PER_AXIS + 1);
        // The cap grows cells, never shrinks them below the range.
        assert!(g.cell_w >= 10.0 && g.cell_h >= 10.0);
    }

    #[test]
    fn neighbors_within_range_are_always_gathered() {
        // Nodes at distance exactly `range` must be found, including
        // across cell borders and at arena corners.
        let g0 = grid(1000.0, 1000.0, RANGE);
        let cases = [
            (Position::new(99.9, 0.0), Position::new(199.9, 0.0)), // border straddle
            (Position::new(0.0, 0.0), Position::new(100.0, 0.0)),  // exactly range
            (Position::new(1000.0, 1000.0), Position::new(900.0, 1000.0)), // far corner
            (Position::new(500.0, 500.0), Position::new(429.3, 429.3)), // diagonal
        ];
        for (i, (a, b)) in cases.iter().enumerate() {
            let mut g = g0.clone();
            g.register_slot(0);
            g.register_slot(1);
            g.insert(0, *a);
            g.insert(1, *b);
            assert!(a.distance(b) <= RANGE + 1e-9, "case {i} badly constructed");
            assert!(gathered(&g, *a).contains(&1), "case {i}: b not gathered from a");
            assert!(gathered(&g, *b).contains(&0), "case {i}: a not gathered from b");
        }
    }

    #[test]
    fn out_of_range_nodes_are_culled() {
        let mut g = grid(1000.0, 1000.0, RANGE);
        g.register_slot(0);
        g.register_slot(1);
        g.insert(0, Position::new(50.0, 50.0));
        // Same 3×3 neighborhood, but beyond the range: must be culled.
        g.insert(1, Position::new(50.0 + RANGE + 1.0, 50.0));
        assert_eq!(gathered(&g, Position::new(50.0, 50.0)), vec![0]);
    }

    #[test]
    fn remove_and_reinsert_round_trips() {
        let mut g = grid(300.0, 300.0, RANGE);
        g.register_slot(0);
        g.register_slot(1);
        g.insert(0, Position::new(10.0, 10.0));
        g.insert(1, Position::new(20.0, 20.0));
        assert_eq!(g.indexed(), 2);
        g.remove(0);
        assert!(!g.contains(0));
        assert_eq!(gathered(&g, Position::new(10.0, 10.0)), vec![1]);
        g.remove(0); // double-remove is a no-op
        g.insert(0, Position::new(250.0, 250.0));
        assert!(g.contains(0));
        assert_eq!(gathered(&g, Position::new(250.0, 250.0)), vec![0]);
        g.insert(0, Position::new(10.0, 10.0)); // double-insert is a no-op
        assert_eq!(gathered(&g, Position::new(250.0, 250.0)), vec![0]);
    }

    #[test]
    fn update_moves_nodes_across_cell_borders() {
        let mut g = grid(1000.0, 1000.0, RANGE);
        g.register_slot(0);
        g.insert(0, Position::new(50.0, 50.0));
        // Wander far away: the old neighborhood must forget it, the new
        // one must know it.
        g.update(0, Position::new(950.0, 950.0));
        assert!(gathered(&g, Position::new(50.0, 50.0)).is_empty());
        assert_eq!(gathered(&g, Position::new(950.0, 950.0)), vec![0]);
        // In-cell movement must refresh the stored position too.
        g.update(0, Position::new(901.0, 901.0));
        assert_eq!(gathered(&g, Position::new(850.0, 850.0)), vec![0]);
        assert!(gathered(&g, Position::new(1000.0, 1000.0)).is_empty());
        // Updating a removed node is a no-op.
        g.remove(0);
        g.update(0, Position::new(10.0, 10.0));
        assert!(!g.contains(0));
    }

    #[test]
    fn gather_never_duplicates() {
        let mut g = grid(500.0, 500.0, RANGE);
        for i in 0..50u32 {
            g.register_slot(i);
            g.insert(i, Position::new(f64::from(i) * 10.0, f64::from(i % 7) * 70.0));
        }
        for i in 0..50u32 {
            let mut out = Vec::new();
            g.gather_within(
                Position::new(f64::from(i) * 10.0, f64::from(i % 7) * 70.0),
                RANGE,
                &mut out,
            );
            let before = out.len();
            out.sort_unstable();
            out.dedup();
            assert_eq!(out.len(), before, "gather produced duplicates");
        }
    }

    #[test]
    fn positions_on_the_far_border_are_in_bounds() {
        let mut g = grid(1000.0, 1000.0, 250.0);
        g.register_slot(0);
        g.insert(0, Position::new(1000.0, 1000.0));
        let mut out = Vec::new();
        g.gather_within(Position::new(1000.0, 1000.0), 250.0, &mut out);
        assert_eq!(out, vec![0]);
        out.clear();
        g.gather_within(Position::new(800.0, 800.0), 250.0, &mut out);
        assert!(out.is_empty()); // distance ≈ 283 m > 250 m: culled
        out.clear();
        g.gather_within(Position::new(850.0, 850.0), 250.0, &mut out);
        assert_eq!(out, vec![0]); // distance ≈ 212 m
    }
}
