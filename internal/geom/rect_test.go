package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAABBContains(t *testing.T) {
	b := AABB{Min: V(0, 0), Max: V(2, 3)}
	if !b.Contains(V(1, 1)) {
		t.Error("interior point not contained")
	}
	if !b.Contains(V(0, 0)) || !b.Contains(V(2, 3)) {
		t.Error("boundary points should be contained")
	}
	if b.Contains(V(-0.1, 1)) || b.Contains(V(1, 3.1)) {
		t.Error("exterior point contained")
	}
}

func TestAABBOverlaps(t *testing.T) {
	a := AABB{Min: V(0, 0), Max: V(2, 2)}
	cases := []struct {
		b    AABB
		want bool
	}{
		{AABB{V(1, 1), V(3, 3)}, true},
		{AABB{V(2, 2), V(3, 3)}, true}, // touching corner counts
		{AABB{V(2.1, 0), V(3, 2)}, false},
		{AABB{V(0, -3), V(2, -0.1)}, false},
		{AABB{V(-1, -1), V(5, 5)}, true}, // containment
	}
	for i, c := range cases {
		if got := a.Overlaps(c.b); got != c.want {
			t.Errorf("case %d: Overlaps = %v, want %v", i, got, c.want)
		}
		if got := c.b.Overlaps(a); got != c.want {
			t.Errorf("case %d: Overlaps not symmetric", i)
		}
	}
}

func TestAABBExpandAndDims(t *testing.T) {
	b := AABB{Min: V(1, 1), Max: V(3, 5)}
	e := b.Expand(0.5)
	if e.Min != V(0.5, 0.5) || e.Max != V(3.5, 5.5) {
		t.Errorf("Expand = %v", e)
	}
	if b.Width() != 2 || b.Height() != 4 {
		t.Errorf("dims = %v x %v", b.Width(), b.Height())
	}
	if b.Center() != V(2, 3) {
		t.Errorf("Center = %v", b.Center())
	}
}

func TestRectCorners(t *testing.T) {
	r := NewRect(V(0, 0), 4, 2, 0)
	c := r.Corners()
	want := [4]Vec2{V(2, 1), V(-2, 1), V(-2, -1), V(2, -1)}
	for i := range c {
		if !c[i].ApproxEq(want[i], 1e-12) {
			t.Errorf("corner %d = %v, want %v", i, c[i], want[i])
		}
	}
	// Rotated 90deg: length now along Y.
	r90 := NewRect(V(0, 0), 4, 2, math.Pi/2)
	bb := r90.AABB()
	if !almostEq(bb.Width(), 2, 1e-9) || !almostEq(bb.Height(), 4, 1e-9) {
		t.Errorf("rotated AABB = %v", bb)
	}
}

func TestRectContainsPoint(t *testing.T) {
	r := NewRect(V(1, 1), 2, 1, math.Pi/4)
	if !r.ContainsPoint(V(1, 1)) {
		t.Error("center not contained")
	}
	// Point along heading at distance 0.9 (inside half-length 1).
	p := V(1, 1).Add(Heading(math.Pi / 4).Scale(0.9))
	if !r.ContainsPoint(p) {
		t.Error("point along heading not contained")
	}
	// Point along heading at distance 1.1 (outside).
	p = V(1, 1).Add(Heading(math.Pi / 4).Scale(1.1))
	if r.ContainsPoint(p) {
		t.Error("exterior point contained")
	}
}

func TestRectInflate(t *testing.T) {
	r := NewRect(V(0, 0), 2, 1, 0)
	inf := r.Inflate(0.5, 0.25)
	if inf.HalfL != 1.5 || inf.HalfW != 0.75 {
		t.Errorf("Inflate = %+v", inf)
	}
	if r.HalfL != 1 {
		t.Error("Inflate mutated receiver")
	}
	if !almostEq(inf.Area(), 4*1.5*0.75, 1e-12) {
		t.Errorf("Area = %v", inf.Area())
	}
}

func TestRectIntersectsAligned(t *testing.T) {
	a := NewRect(V(0, 0), 2, 1, 0)
	b := NewRect(V(1.5, 0), 2, 1, 0) // overlaps: gap would need >2
	if !a.Intersects(b) {
		t.Error("overlapping aligned rects not detected")
	}
	c := NewRect(V(2.5, 0), 2, 1, 0) // touching at x=1 vs x=1.5 edge... centers 2.5 apart, half lengths 1+1=2 < 2.5
	if a.Intersects(c) {
		t.Error("separated aligned rects reported intersecting")
	}
	d := NewRect(V(2.0, 0), 2, 1, 0) // exactly touching edges
	if !a.Intersects(d) {
		t.Error("touching rects should intersect")
	}
}

func TestRectIntersectsRotated(t *testing.T) {
	// A cross shape: both pass through origin.
	a := NewRect(V(0, 0), 4, 0.5, 0)
	b := NewRect(V(0, 0), 4, 0.5, math.Pi/2)
	if !a.Intersects(b) {
		t.Error("crossing rects not detected")
	}
	// Diamond vs square that only AABB-overlap but don't truly intersect:
	// square at origin, small rect rotated 45deg placed near the corner.
	sq := NewRect(V(0, 0), 2, 2, 0)
	diag := NewRect(V(1.6, 1.6), 1.2, 0.2, math.Pi/4)
	if sq.AABB().Overlaps(diag.AABB()) == false {
		t.Skip("test geometry no longer exercises the AABB-overlap case")
	}
	if sq.Intersects(diag) {
		t.Error("SAT should separate diagonal rect near corner")
	}
}

func TestRectIntersectsSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		a := NewRect(V(rng.Float64()*4-2, rng.Float64()*4-2), rng.Float64()*2+0.1, rng.Float64()+0.1, rng.Float64()*2*math.Pi)
		b := NewRect(V(rng.Float64()*4-2, rng.Float64()*4-2), rng.Float64()*2+0.1, rng.Float64()+0.1, rng.Float64()*2*math.Pi)
		if a.Intersects(b) != b.Intersects(a) {
			t.Fatalf("Intersects not symmetric for %+v vs %+v", a, b)
		}
	}
}

func TestRectIntersectsSelfAndContained(t *testing.T) {
	f := func(cx, cy, hl, hw, th float64) bool {
		if math.IsNaN(cx+cy+hl+hw+th) || math.IsInf(cx+cy+hl+hw+th, 0) {
			return true
		}
		cx = math.Mod(cx, 100)
		cy = math.Mod(cy, 100)
		hl = math.Abs(math.Mod(hl, 10)) + 0.01
		hw = math.Abs(math.Mod(hw, 10)) + 0.01
		r := Rect{Center: V(cx, cy), HalfL: hl, HalfW: hw, Heading: math.Mod(th, math.Pi)}
		// A rect always intersects itself, and contains its center.
		return r.Intersects(r) && r.ContainsPoint(r.Center)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRectDistantNeverIntersects(t *testing.T) {
	f := func(th1, th2 float64) bool {
		a := NewRect(V(0, 0), 2, 1, math.Mod(th1, math.Pi))
		b := NewRect(V(10, 10), 2, 1, math.Mod(th2, math.Pi))
		return !a.Intersects(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSegmentIntersectBasic(t *testing.T) {
	s1 := Segment{V(0, 0), V(2, 2)}
	s2 := Segment{V(0, 2), V(2, 0)}
	p, ts, us, ok := s1.Intersect(s2)
	if !ok {
		t.Fatal("crossing segments not detected")
	}
	if !p.ApproxEq(V(1, 1), 1e-9) {
		t.Errorf("intersection point = %v, want (1,1)", p)
	}
	if !almostEq(ts, 0.5, 1e-9) || !almostEq(us, 0.5, 1e-9) {
		t.Errorf("params = %v, %v, want 0.5, 0.5", ts, us)
	}
}

func TestSegmentIntersectMiss(t *testing.T) {
	s1 := Segment{V(0, 0), V(1, 0)}
	s2 := Segment{V(0, 1), V(1, 1)}
	if _, _, _, ok := s1.Intersect(s2); ok {
		t.Error("parallel non-collinear segments reported intersecting")
	}
	s3 := Segment{V(2, -1), V(2, 1)}
	if _, _, _, ok := s1.Intersect(s3); ok {
		t.Error("segments that would cross only if extended reported intersecting")
	}
}

func TestSegmentIntersectCollinear(t *testing.T) {
	s1 := Segment{V(0, 0), V(4, 0)}
	s2 := Segment{V(2, 0), V(6, 0)}
	p, _, _, ok := s1.Intersect(s2)
	if !ok {
		t.Fatal("overlapping collinear segments not detected")
	}
	if p.Y != 0 || p.X < 2 || p.X > 4 {
		t.Errorf("collinear overlap point = %v, want within [2,4]x{0}", p)
	}
	s3 := Segment{V(5, 0), V(6, 0)}
	if _, _, _, ok := s1.Intersect(s3); ok {
		t.Error("disjoint collinear segments reported intersecting")
	}
}

func TestSegmentEndpointTouch(t *testing.T) {
	s1 := Segment{V(0, 0), V(1, 0)}
	s2 := Segment{V(1, 0), V(1, 5)}
	p, _, _, ok := s1.Intersect(s2)
	if !ok {
		t.Fatal("endpoint touch not detected")
	}
	if !p.ApproxEq(V(1, 0), 1e-9) {
		t.Errorf("touch point = %v", p)
	}
}

func TestSegmentDistToPoint(t *testing.T) {
	s := Segment{V(0, 0), V(10, 0)}
	if d := s.DistToPoint(V(5, 3)); !almostEq(d, 3, 1e-12) {
		t.Errorf("perpendicular dist = %v, want 3", d)
	}
	if d := s.DistToPoint(V(-4, 3)); !almostEq(d, 5, 1e-12) {
		t.Errorf("endpoint dist = %v, want 5", d)
	}
	if d := s.DistToPoint(V(13, 4)); !almostEq(d, 5, 1e-12) {
		t.Errorf("far endpoint dist = %v, want 5", d)
	}
	pt := Segment{V(1, 1), V(1, 1)}
	if d := pt.DistToPoint(V(4, 5)); !almostEq(d, 5, 1e-12) {
		t.Errorf("degenerate segment dist = %v, want 5", d)
	}
}

func TestSegmentLengthAndPointAt(t *testing.T) {
	s := Segment{V(0, 0), V(3, 4)}
	if s.Length() != 5 {
		t.Errorf("Length = %v", s.Length())
	}
	if !s.PointAt(0.5).ApproxEq(V(1.5, 2), 1e-12) {
		t.Errorf("PointAt(0.5) = %v", s.PointAt(0.5))
	}
}

// intersectsBefore is Rect.Intersects as it was before the prepared form:
// Hypot bounding-circle reject, then per-call corners, axes and SAT. The
// prepared form must agree with it on every pair.
func intersectsBefore(r, o Rect) bool {
	if r.Center.Dist(o.Center) > math.Hypot(r.HalfL, r.HalfW)+math.Hypot(o.HalfL, o.HalfW) {
		return false
	}
	corners := func(r Rect) []Vec2 {
		f := Heading(r.Heading).Scale(r.HalfL)
		s := Heading(r.Heading).Perp().Scale(r.HalfW)
		return []Vec2{r.Center.Add(f).Add(s), r.Center.Sub(f).Add(s), r.Center.Sub(f).Sub(s), r.Center.Add(f).Sub(s)}
	}
	extent := func(pts []Vec2, ax Vec2) (lo, hi float64) {
		lo, hi = math.Inf(1), math.Inf(-1)
		for _, p := range pts {
			d := p.Dot(ax)
			if d < lo {
				lo = d
			}
			if d > hi {
				hi = d
			}
		}
		return lo, hi
	}
	rc, oc := corners(r), corners(o)
	for _, ax := range []Vec2{Heading(r.Heading), Heading(r.Heading).Perp(), Heading(o.Heading), Heading(o.Heading).Perp()} {
		rmin, rmax := extent(rc, ax)
		omin, omax := extent(oc, ax)
		if rmax < omin-Eps || omax < rmin-Eps {
			return false
		}
	}
	return true
}

// TestPreparedOverlapsMatchesIntersects checks the prepared-form overlap
// and Rect.Intersects against the pre-prepared implementation on random
// pairs, on pairs whose centers sit at the bounding-circle reach (where the
// squared-distance pre-check hands over to Hypot), and on pairs touching
// edge to edge or corner to corner, exactly and within a few Eps.
func TestPreparedOverlapsMatchesIntersects(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randRect := func(c Vec2) Rect {
		return NewRect(c, rng.Float64()*5+0.01, rng.Float64()*2+0.01, rng.Float64()*4*math.Pi-2*math.Pi)
	}
	var pairs [][2]Rect
	for i := 0; i < 20000; i++ {
		a := randRect(V(rng.Float64()*20-10, rng.Float64()*20-10))
		pairs = append(pairs, [2]Rect{a, randRect(V(rng.Float64()*20-10, rng.Float64()*20-10))})

		// Centers at the circle reach, nudged by a few ulps either way.
		b := randRect(Vec2{})
		reach := math.Hypot(a.HalfL, a.HalfW) + math.Hypot(b.HalfL, b.HalfW)
		d := reach * (1 + float64(rng.Intn(9)-4)*1e-16)
		b.Center = a.Center.Add(Heading(rng.Float64() * 2 * math.Pi).Scale(d))
		pairs = append(pairs, [2]Rect{a, b})

		// Edge to edge along a's heading axis or its perpendicular, with
		// a gap of a few Eps either side of zero; corner to corner for
		// aligned rectangles.
		gap := float64(rng.Intn(7)-3) * Eps
		c := randRect(Vec2{})
		c.Heading = a.Heading
		along := Heading(a.Heading).Scale(a.HalfL + c.HalfL + gap)
		across := Heading(a.Heading).Perp().Scale(a.HalfW + c.HalfW + gap)
		for _, off := range []Vec2{along, across, along.Neg(), along.Add(across)} {
			c.Center = a.Center.Add(off)
			pairs = append(pairs, [2]Rect{a, c})
		}
	}
	touching := 0
	for _, p := range pairs {
		a, b := p[0], p[1]
		want := intersectsBefore(a, b)
		pa, pb := a.Prepare(), b.Prepare()
		if got := pa.Overlaps(&pb); got != want {
			t.Fatalf("Prepared.Overlaps(%+v, %+v) = %v, want %v", a, b, got, want)
		}
		if got := a.Intersects(b); got != want {
			t.Fatalf("Intersects(%+v, %+v) = %v, want %v", a, b, got, want)
		}
		if want {
			touching++
		}
	}
	if touching < len(pairs)/4 || touching > 3*len(pairs)/4 {
		t.Errorf("%d of %d pairs overlap: the cases no longer straddle the boundary", touching, len(pairs))
	}
}

// TestCirclesMeetMatchesHypot checks the squared-distance bounding-circle
// test against the Hypot comparison it replaces, at distances within a few
// ulps of the reach (where d² and Hypot round differently), at random
// distances, and on tiny, huge, infinite and NaN inputs.
func TestCirclesMeetMatchesHypot(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	check := func(a, b Vec2, reach float64) {
		t.Helper()
		want := !(math.Hypot(a.X-b.X, a.Y-b.Y) > reach)
		if got := circlesMeet(a, b, reach); got != want {
			t.Fatalf("circlesMeet(%v, %v, %v) = %v, want %v", a, b, reach, got, want)
		}
	}
	for i := 0; i < 200000; i++ {
		a := V(rng.Float64()*40-20, rng.Float64()*40-20)
		reach := rng.Float64()*12 + 1e-3
		d := reach * (1 + float64(rng.Intn(41)-20)*1e-16)
		if i%4 == 0 {
			d = rng.Float64() * 2 * reach
		}
		check(a, a.Add(Heading(rng.Float64()*2*math.Pi).Scale(d)), reach)
	}
	inf, nan := math.Inf(1), math.NaN()
	for _, c := range []struct {
		a, b  Vec2
		reach float64
	}{
		{V(0, 0), V(3e-160, 0), 2e-160},
		{V(0, 0), V(1e-160, 0), 2e-160},
		{V(0, 0), V(1e200, 1e200), 1e150},
		{V(0, 0), V(1e160, 0), 2e160},
		{V(0, 0), V(3e160, 0), 2e160},
		{V(0, 0), V(inf, 0), 5},
		{V(0, 0), V(inf, 0), inf},
		{V(0, 0), V(3, 4), inf},
		{V(0, 0), V(nan, 0), 5},
		{V(0, 0), V(3, 4), nan},
		{V(0, 0), V(0, 0), 0},
	} {
		check(c.a, c.b, c.reach)
	}
}
