package intersection

import (
	"fmt"

	"crossroads/internal/geom"
)

// TileGrid divides the conflict box into N x N square tiles. The AIM
// baseline reserves (tile, time-step) pairs: a request is granted only if
// every tile its simulated trajectory touches is free at the corresponding
// step. This mirrors Dresner & Stone's reservation grid.
type TileGrid struct {
	box  geom.AABB
	n    int
	side float64 // tile side length
}

// NewTileGrid builds an n x n grid over the box. n must be positive.
func NewTileGrid(box geom.AABB, n int) (*TileGrid, error) {
	if n <= 0 {
		return nil, fmt.Errorf("intersection: tile grid size %d must be positive", n)
	}
	if box.Width() <= 0 || box.Height() <= 0 {
		return nil, fmt.Errorf("intersection: degenerate box %+v", box)
	}
	return &TileGrid{box: box, n: n, side: box.Width() / float64(n)}, nil
}

// N returns the grid dimension.
func (g *TileGrid) N() int { return g.n }

// NumTiles returns n*n.
func (g *TileGrid) NumTiles() int { return g.n * g.n }

// TileAABB returns the bounds of tile (i, j); i is the column (X), j the
// row (Y), both 0-based from the box minimum corner.
func (g *TileGrid) TileAABB(i, j int) geom.AABB {
	min := geom.V(g.box.Min.X+float64(i)*g.side, g.box.Min.Y+float64(j)*g.side)
	return geom.AABB{Min: min, Max: min.Add(geom.V(g.side, g.side))}
}

// TileIndex flattens (i, j) into a single index.
func (g *TileGrid) TileIndex(i, j int) int { return j*g.n + i }

// TilesFor returns the flattened indices of every tile whose area overlaps
// the oriented rectangle. Rectangles outside the box return nothing.
func (g *TileGrid) TilesFor(r geom.Rect) []int {
	bb := r.AABB()
	if !bb.Overlaps(g.box) {
		return nil
	}
	iLo := clampIdx(int((bb.Min.X-g.box.Min.X)/g.side), g.n)
	iHi := clampIdx(int((bb.Max.X-g.box.Min.X)/g.side), g.n)
	jLo := clampIdx(int((bb.Min.Y-g.box.Min.Y)/g.side), g.n)
	jHi := clampIdx(int((bb.Max.Y-g.box.Min.Y)/g.side), g.n)
	pr := r.Prepare()
	var out []int
	for j := jLo; j <= jHi; j++ {
		for i := iLo; i <= iHi; i++ {
			tile := g.TileAABB(i, j)
			// Convert tile to a Rect for the SAT test.
			tileRect := geom.NewRect(tile.Center(), tile.Width(), tile.Height(), 0).Prepare()
			if pr.Overlaps(&tileRect) {
				out = append(out, g.TileIndex(i, j))
			}
		}
	}
	return out
}

func clampIdx(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// Reservations tracks which (tile, step) pairs are held and by whom. Time
// is discretized by the owner (AIM scheduler) into fixed steps.
type Reservations struct {
	grid *TileGrid
	// held maps step -> tile -> owner id.
	held map[int64]map[int]int64
}

// NewReservations creates an empty reservation set over the grid.
func NewReservations(grid *TileGrid) *Reservations {
	return &Reservations{grid: grid, held: make(map[int64]map[int]int64)}
}

// Available reports whether every (tile, step) pair is free.
func (r *Reservations) Available(steps map[int64][]int) bool {
	for step, tiles := range steps {
		row := r.held[step]
		if row == nil {
			continue
		}
		for _, tl := range tiles {
			if _, taken := row[tl]; taken {
				return false
			}
		}
	}
	return true
}

// Reserve claims the pairs for owner. It does not re-check availability;
// call Available first.
func (r *Reservations) Reserve(owner int64, steps map[int64][]int) {
	for step, tiles := range steps {
		row := r.held[step]
		if row == nil {
			row = make(map[int]int64)
			r.held[step] = row
		}
		for _, tl := range tiles {
			row[tl] = owner
		}
	}
}

// Release frees every pair held by owner.
func (r *Reservations) Release(owner int64) {
	for step, row := range r.held {
		for tl, o := range row {
			if o == owner {
				delete(row, tl)
			}
		}
		if len(row) == 0 {
			delete(r.held, step)
		}
	}
}

// PruneBefore discards reservations at steps strictly before minStep,
// bounding memory in long runs.
func (r *Reservations) PruneBefore(minStep int64) {
	for step := range r.held {
		if step < minStep {
			delete(r.held, step)
		}
	}
}

// HeldPairs returns the total number of (tile, step) pairs currently held.
func (r *Reservations) HeldPairs() int {
	n := 0
	for _, row := range r.held {
		n += len(row)
	}
	return n
}
