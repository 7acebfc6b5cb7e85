package im

import (
	"math"

	"crossroads/internal/geom"
	"crossroads/internal/intersection"
)

// The tile-occupancy model shared by the tile-reservation policies (AIM,
// after Dresner & Stone, and dot, after Lu & Kim): a crossing claims every
// (tile, time step) its inflated footprint touches, and same-exit-lane
// crossings must additionally stay separated on the exit road, beyond the
// tile grid.

// ExitCrossing records when and how fast a granted crossing leaves the
// box, for the exit-merge separation rule.
type ExitCrossing struct {
	Exit    intersection.Approach
	Lane    int
	Time    float64
	Speed   float64
	PlanLen float64
}

// ExitOf returns the exit crossing of cross over movement m for a
// footprint planLen long.
func ExitOf(m *intersection.Movement, cross Reservation, planLen float64) ExitCrossing {
	return ExitCrossing{
		Exit:    m.Exit,
		Lane:    m.ID.Lane,
		Time:    cross.TimeAtArc(m.InsideLen()),
		Speed:   cross.SpeedAtArc(m.InsideLen()),
		PlanLen: planLen,
	}
}

// ExitSeparated reports whether two same-exit-lane crossings are ordered
// with enough margin: their exit-point passages must not overlap, and
// when the later one is faster it additionally needs the catch-up time
// over the exit road.
func ExitSeparated(a, b ExitCrossing, exitLen float64) bool {
	first, second := a, b
	if b.Time < a.Time {
		first, second = b, a
	}
	margin := (first.PlanLen/first.Speed + second.PlanLen/second.Speed) / 2
	if second.Speed > first.Speed {
		margin += exitLen * (1/first.Speed - 1/second.Speed)
	}
	return second.Time-first.Time >= margin
}

// TileFootprint simulates the crossing cross over movement m: the
// footprint's center moves from just before the entry to just past the
// exit, sampled every step seconds. It returns the (step -> tiles)
// occupancy map and the number of trajectory samples evaluated (the
// computation-cost driver).
func TileFootprint(grid *intersection.TileGrid, m *intersection.Movement, cross Reservation, planLen, planWid, step float64) (map[int64][]int, int) {
	arcStart := -planLen / 2
	arcEnd := m.InsideLen() + planLen/2
	steps := make(map[int64][]int)
	n := 0
	tEnd := cross.TimeAtArc(arcEnd)
	for t := cross.TimeAtArc(arcStart); t <= tEnd; t += step {
		arc := cross.ArcAtTime(t)
		pose := m.Path.PoseAt(m.EnterS + arc)
		rect := geom.NewRect(pose.Pos, planLen, planWid, pose.Heading)
		tiles := grid.TilesFor(rect)
		n++
		if len(tiles) == 0 {
			continue
		}
		k := int64(math.Floor(t / step))
		// Claim one step of slack on both sides: the vehicle occupies
		// these tiles somewhere within [t, t+step) and its true passage
		// may deviate by up to a step (tracking tolerance before the
		// agents' time-lag re-request triggers).
		for d := int64(-1); d <= 2; d++ {
			steps[k+d] = appendUnique(steps[k+d], tiles)
		}
	}
	return steps, n
}

func appendUnique(dst []int, src []int) []int {
	for _, v := range src {
		found := false
		for _, d := range dst {
			if d == v {
				found = true
				break
			}
		}
		if !found {
			dst = append(dst, v)
		}
	}
	return dst
}
