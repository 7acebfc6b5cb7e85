package intersection

import (
	"fmt"
	"math"
	"sync"

	"crossroads/internal/geom"
)

// ConflictZone describes where two movements' swept footprints can overlap:
// while vehicle A's center is within [AStart, AEnd] on movement A's path and
// vehicle B's center is within [BStart, BEnd] on movement B's, their
// (buffer-inflated) footprints may collide. The velocity-transaction IMs
// keep these zones mutually exclusive in time.
type ConflictZone struct {
	AStart, AEnd float64
	BStart, BEnd float64
}

// Swapped returns the zone from B's perspective.
func (z ConflictZone) Swapped() ConflictZone {
	return ConflictZone{AStart: z.BStart, AEnd: z.BEnd, BStart: z.AStart, BEnd: z.AEnd}
}

// movementPair is a canonical (ordered) pair key.
type movementPair struct{ a, b MovementID }

// ConflictTable caches, for every pair of movements, whether they conflict
// inside the box and over which arc-length intervals. It is computed once
// per (vehicle footprint, buffer) configuration — the paper's IMs differ
// exactly in how much buffer they must add, so each IM builds its own table.
type ConflictTable struct {
	zones  map[movementPair]ConflictZone
	vehLen float64
	vehWid float64
}

// BuildConflictTable samples every pair of movements through the box using
// footprints of the given dimensions (vehicle body already inflated by the
// caller's safety buffer) and SAT rectangle-overlap tests at arc-length
// resolution ds. Every distinct pair is considered — including pairs from
// the same approach lane, whose shared corridor inside the box must be
// serialized just like a crossing conflict.
//
// A pair's zone is the four extreme samples of the brute-force sweep (every
// A sample against every B sample), found without the sweep: each
// movement's samples are prepared once per table and bucketed in a grid,
// and each extreme is the first overlapping sample of a scan from its end
// (see zoneOf).
func BuildConflictTable(x *Intersection, vehLen, vehWid, ds float64) (*ConflictTable, error) {
	if vehLen <= 0 || vehWid <= 0 {
		return nil, fmt.Errorf("intersection: footprint %vx%v must be positive", vehLen, vehWid)
	}
	if ds <= 0 {
		ds = 0.05
	}
	t := &ConflictTable{
		zones:  make(map[movementPair]ConflictZone),
		vehLen: vehLen,
		vehWid: vehWid,
	}
	ids := x.MovementIDs()
	sampled := make([]*sampledMovement, len(ids))
	for i, id := range ids {
		sampled[i] = sampleMovement(x.Movement(id), vehLen, vehWid, ds)
	}
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			if zone, ok := zoneOf(sampled[i], sampled[j], ds); ok {
				t.zones[movementPair{ids[i], ids[j]}] = zone
			}
		}
	}
	return t, nil
}

// tableCache memoizes conflict tables by their full build input. The
// geometry is a pure function of the intersection Config, and a built table
// is immutable, so one instance can be shared across schedulers, runs, and
// goroutines. Experiment sweeps construct the same few (config, footprint)
// combinations hundreds of times; without the cache the table build
// dominates whole-run cost. The cache is unbounded, but distinct keys are
// as rare as distinct experiment geometries.
var tableCache sync.Map // tableCacheKey -> *tableEntry

type tableCacheKey struct {
	cfg            Config
	vehLen, vehWid float64
	ds             float64
}

// tableEntry is one key's build, run once: goroutines that ask for a key
// at the same time wait for the first one's build instead of repeating it.
type tableEntry struct {
	once  sync.Once
	table *ConflictTable
	err   error
}

// CachedConflictTable returns BuildConflictTable's result for x's geometry
// and the given footprint, memoized process-wide and built once per key.
// Schedulers use this instead of rebuilding: two intersections with equal
// Configs have identical geometry, and the returned table must not be
// mutated.
func CachedConflictTable(x *Intersection, vehLen, vehWid, ds float64) (*ConflictTable, error) {
	if ds <= 0 {
		ds = 0.05 // normalize before keying, mirroring BuildConflictTable
	}
	key := tableCacheKey{cfg: x.Config(), vehLen: vehLen, vehWid: vehWid, ds: ds}
	v, ok := tableCache.Load(key)
	if !ok {
		v, _ = tableCache.LoadOrStore(key, new(tableEntry))
	}
	e := v.(*tableEntry)
	e.once.Do(func() { e.table, e.err = BuildConflictTable(x, vehLen, vehWid, ds) })
	return e.table, e.err
}

// sampledMovement is one movement's footprints at evenly spaced arc
// lengths over its box crossing, expanded by half the footprint diagonal
// so bumper overlaps just outside the box edge are caught. The samples
// depend only on the movement and the footprint, so a table prepares
// each movement once and reuses it for all of the movement's pairs.
type sampledMovement struct {
	length float64 // the movement's path length
	s      []float64
	rects  []geom.Prepared
	grid   sampleGrid
}

func sampleMovement(m *Movement, vehLen, vehWid, ds float64) *sampledMovement {
	margin := math.Hypot(vehLen, vehWid) / 2
	lo := math.Max(0, m.EnterS-margin)
	hi := math.Min(m.Length, m.ExitS+margin)
	n := int(math.Ceil((hi-lo)/ds)) + 1
	sm := &sampledMovement{
		length: m.Length,
		s:      make([]float64, n+1),
		rects:  make([]geom.Prepared, n+1),
	}
	for i := 0; i <= n; i++ {
		s := lo + (hi-lo)*float64(i)/float64(n)
		p := m.Path.PoseAt(s)
		sm.s[i] = s
		sm.rects[i] = geom.NewRect(p.Pos, vehLen, vehWid, p.Heading).Prepare()
	}
	sm.grid = newSampleGrid(sm.rects)
	return sm
}

// sampleGrid buckets a movement's sample centers in uniform square cells
// a little wider than reach, the sum of two footprints' bounding radii.
// Samples in cells that are not neighbours of a query's cell differ from
// it by more than reach along x or y, and hypot(dx, dy) >= max(|dx|, |dy|)
// holds in floating point, so their bounding circles are disjoint: the
// broad phase drops only pairs the circle test would reject anyway.
type sampleGrid struct {
	origin geom.Vec2
	cell   float64
	nx, ny int
	// The samples of cell (ix, iy) are idx[start[c]:start[c+1]] with
	// c = iy*nx + ix, in ascending sample order.
	start []int32
	idx   []int32
}

// maxGridCells bounds a sample grid's cells per side.
const maxGridCells = 64

func newSampleGrid(rects []geom.Prepared) sampleGrid {
	lo, hi := rects[0].Center(), rects[0].Center()
	for i := range rects {
		c := rects[i].Center()
		lo.X, lo.Y = math.Min(lo.X, c.X), math.Min(lo.Y, c.Y)
		hi.X, hi.Y = math.Max(hi.X, c.X), math.Max(hi.Y, c.Y)
	}
	// Any cell wider than reach keeps the broad phase exact; the span
	// bound keeps tiny footprints from allocating a huge grid.
	reach := 2 * rects[0].Radius()
	span := math.Max(hi.X-lo.X, hi.Y-lo.Y)
	g := sampleGrid{origin: lo, cell: math.Max(reach*(1+1e-6), span/maxGridCells)}
	g.nx = int((hi.X-lo.X)/g.cell) + 1
	g.ny = int((hi.Y-lo.Y)/g.cell) + 1
	cellOf := make([]int32, len(rects))
	g.start = make([]int32, g.nx*g.ny+1)
	for i := range rects {
		c := rects[i].Center()
		ix := int((c.X - g.origin.X) / g.cell)
		iy := int((c.Y - g.origin.Y) / g.cell)
		cellOf[i] = int32(iy*g.nx + ix)
		g.start[cellOf[i]+1]++
	}
	for c := 1; c < len(g.start); c++ {
		g.start[c] += g.start[c-1]
	}
	g.idx = make([]int32, len(rects))
	fill := append([]int32(nil), g.start[:len(g.start)-1]...)
	for i, c := range cellOf {
		g.idx[fill[c]] = int32(i)
		fill[c]++
	}
	return g
}

// overlapsAny reports whether r overlaps any of m's samples, testing only
// the samples in the 3x3 cells around r's center.
func (m *sampledMovement) overlapsAny(r *geom.Prepared) bool {
	g := &m.grid
	c := r.Center()
	fx := math.Floor((c.X - g.origin.X) / g.cell)
	fy := math.Floor((c.Y - g.origin.Y) / g.cell)
	if !(fx >= -1 && fx <= float64(g.nx) && fy >= -1 && fy <= float64(g.ny)) {
		return false
	}
	ix, iy := int(fx), int(fy)
	for y := max(iy-1, 0); y <= min(iy+1, g.ny-1); y++ {
		row := y * g.nx
		lo, hi := row+max(ix-1, 0), row+min(ix+1, g.nx-1)
		if lo > hi {
			continue
		}
		for _, k := range g.idx[g.start[lo]:g.start[hi+1]] {
			if r.Overlaps(&m.rects[k]) {
				return true
			}
		}
	}
	return false
}

// firstOverlap returns the index of the first sample of a, in ascending
// order or (when reverse) descending, that overlaps any sample of b, or -1.
func firstOverlap(a, b *sampledMovement, reverse bool) int {
	n := len(a.rects)
	for k := 0; k < n; k++ {
		i := k
		if reverse {
			i = n - 1 - k
		}
		if b.overlapsAny(&a.rects[i]) {
			return i
		}
	}
	return -1
}

// zoneOf returns the bounding arc-length intervals over which a's and b's
// footprints overlap. A zone is four extremes: AStart is the first A
// sample in ascending arc length that overlaps any B sample, AEnd the
// first in descending arc length, and B's two mirror them. Each scan stops
// at its first hit, so samples between the extremes are never tested, and
// the zone equals the one a full all-pairs sweep would bound.
func zoneOf(a, b *sampledMovement, ds float64) (ConflictZone, bool) {
	aFirst := firstOverlap(a, b, false)
	if aFirst < 0 {
		return ConflictZone{}, false
	}
	aLast := firstOverlap(a, b, true)
	bFirst := firstOverlap(b, a, false)
	bLast := firstOverlap(b, a, true)
	// Pad by one sample step: the true extremes lie within ds of the
	// sampled ones.
	return ConflictZone{
		AStart: math.Max(0, a.s[aFirst]-ds),
		AEnd:   math.Min(a.length, a.s[aLast]+ds),
		BStart: math.Max(0, b.s[bFirst]-ds),
		BEnd:   math.Min(b.length, b.s[bLast]+ds),
	}, true
}

// Zone returns the conflict zone between movements a and b from a's
// perspective, and whether they conflict at all.
func (t *ConflictTable) Zone(a, b MovementID) (ConflictZone, bool) {
	if z, ok := t.zones[movementPair{a, b}]; ok {
		return z, true
	}
	if z, ok := t.zones[movementPair{b, a}]; ok {
		return z.Swapped(), true
	}
	return ConflictZone{}, false
}

// Conflicts reports whether two movements have any conflict zone.
func (t *ConflictTable) Conflicts(a, b MovementID) bool {
	_, ok := t.Zone(a, b)
	return ok
}

// NumZones returns the number of conflicting movement pairs.
func (t *ConflictTable) NumZones() int { return len(t.zones) }

// Footprint returns the (length, width) the table was built with.
func (t *ConflictTable) Footprint() (vehLen, vehWid float64) { return t.vehLen, t.vehWid }
