package geom

import "math"

// AABB is an axis-aligned bounding box.
type AABB struct {
	Min, Max Vec2
}

// Contains reports whether p lies inside the box (inclusive).
func (b AABB) Contains(p Vec2) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X && p.Y >= b.Min.Y && p.Y <= b.Max.Y
}

// Overlaps reports whether two boxes intersect (inclusive of touching).
func (b AABB) Overlaps(o AABB) bool {
	return b.Min.X <= o.Max.X && o.Min.X <= b.Max.X &&
		b.Min.Y <= o.Max.Y && o.Min.Y <= b.Max.Y
}

// Expand returns the box grown by m on every side.
func (b AABB) Expand(m float64) AABB {
	return AABB{Min: V(b.Min.X-m, b.Min.Y-m), Max: V(b.Max.X+m, b.Max.Y+m)}
}

// Width returns the X extent of the box.
func (b AABB) Width() float64 { return b.Max.X - b.Min.X }

// Height returns the Y extent of the box.
func (b AABB) Height() float64 { return b.Max.Y - b.Min.Y }

// Center returns the midpoint of the box.
func (b AABB) Center() Vec2 { return b.Min.Add(b.Max).Scale(0.5) }

// Rect is an oriented rectangle: the footprint of a vehicle (optionally
// inflated by its safety buffer). HalfL extends along the heading, HalfW
// perpendicular to it.
type Rect struct {
	Center  Vec2
	HalfL   float64 // half-length along the heading axis
	HalfW   float64 // half-width perpendicular to the heading axis
	Heading float64 // radians CCW from +X
}

// NewRect builds an oriented rectangle from a center pose and full
// dimensions.
func NewRect(center Vec2, length, width, heading float64) Rect {
	return Rect{Center: center, HalfL: length / 2, HalfW: width / 2, Heading: heading}
}

// Inflate returns the rectangle grown by dl on each end (front and rear) and
// dw on each side. This is how safety buffers are applied to a footprint.
func (r Rect) Inflate(dl, dw float64) Rect {
	r.HalfL += dl
	r.HalfW += dw
	return r
}

// Corners returns the four corners in CCW order starting from front-left.
func (r Rect) Corners() [4]Vec2 { return r.corners(Heading(r.Heading)) }

// corners is Corners for the precomputed heading axis h.
func (r Rect) corners(h Vec2) [4]Vec2 {
	f := h.Scale(r.HalfL)
	s := h.Perp().Scale(r.HalfW)
	return [4]Vec2{
		r.Center.Add(f).Add(s), // front-left
		r.Center.Sub(f).Add(s), // rear-left
		r.Center.Sub(f).Sub(s), // rear-right
		r.Center.Add(f).Sub(s), // front-right
	}
}

// AABB returns the axis-aligned bounding box of the rectangle.
func (r Rect) AABB() AABB {
	c := r.Corners()
	min, max := c[0], c[0]
	for _, p := range c[1:] {
		min.X = math.Min(min.X, p.X)
		min.Y = math.Min(min.Y, p.Y)
		max.X = math.Max(max.X, p.X)
		max.Y = math.Max(max.Y, p.Y)
	}
	return AABB{Min: min, Max: max}
}

// ContainsPoint reports whether p lies inside the rectangle (inclusive).
func (r Rect) ContainsPoint(p Vec2) bool {
	d := p.Sub(r.Center).Rotate(-r.Heading)
	return math.Abs(d.X) <= r.HalfL+Eps && math.Abs(d.Y) <= r.HalfW+Eps
}

// Area returns the rectangle's area.
func (r Rect) Area() float64 { return 4 * r.HalfL * r.HalfW }

// Intersects reports whether two oriented rectangles overlap, using the
// separating-axis theorem. Touching edges count as intersecting. It is
// Prepared.Overlaps on freshly prepared rectangles, except that the
// bounding-circle reject runs first so far-apart pairs skip the trig.
func (r Rect) Intersects(o Rect) bool {
	if !circlesMeet(r.Center, o.Center, math.Hypot(r.HalfL, r.HalfW)+math.Hypot(o.HalfL, o.HalfW)) {
		return false
	}
	return !separatedRects(&r, &o)
}

// separatedRects is the SAT half of Intersects, kept out of line so the
// common bounding-circle reject does not pay for two Prepared frames.
//
//go:noinline
func separatedRects(r, o *Rect) bool {
	pr, po := r.Prepare(), o.Prepare()
	return pr.separated(&po)
}

// Prepared is a Rect with everything the overlap test needs computed once:
// the bounding-circle radius, the heading axis and its perpendicular, the
// corners, and the corners' extent on the rectangle's own two axes. A
// caller testing one rectangle against many prepares it once; the answers
// are bit-identical to Rect.Intersects.
type Prepared struct {
	center  Vec2
	radius  float64
	axes    [2]Vec2
	corners [4]Vec2
	extent  [2][2]float64 // [axis]{min, max} of corners projected on axes
}

// Prepare computes r's prepared form.
func (r Rect) Prepare() (p Prepared) {
	h := Heading(r.Heading)
	p.center = r.Center
	p.radius = math.Hypot(r.HalfL, r.HalfW)
	p.axes = [2]Vec2{h, h.Perp()}
	p.corners = r.corners(h)
	for k := range p.axes {
		p.extent[k][0], p.extent[k][1] = projectExtent(&p.corners, p.axes[k])
	}
	return p
}

// Center returns the rectangle's center.
func (p *Prepared) Center() Vec2 { return p.center }

// Radius returns the bounding-circle radius, hypot(HalfL, HalfW).
func (p *Prepared) Radius() float64 { return p.radius }

// Overlaps reports whether the two prepared rectangles intersect: the
// bounding-circle reject, then the separating-axis test on p's heading
// axes and then o's, each with the Eps touching tolerance.
func (p *Prepared) Overlaps(o *Prepared) bool {
	return circlesMeet(p.center, o.center, p.radius+o.radius) && !p.separated(o)
}

// separated reports whether one of the four candidate axes separates the
// rectangles. A rectangle's extent on its own axes is precomputed, so each
// axis projects only the other rectangle's corners.
func (p *Prepared) separated(o *Prepared) bool {
	for k := range p.axes {
		omin, omax := projectExtent(&o.corners, p.axes[k])
		if p.extent[k][1] < omin-Eps || omax < p.extent[k][0]-Eps {
			return true
		}
	}
	for k := range o.axes {
		pmin, pmax := projectExtent(&p.corners, o.axes[k])
		if pmax < o.extent[k][0]-Eps || o.extent[k][1] < pmin-Eps {
			return true
		}
	}
	return false
}

// circleBand is the relative half-width of the band around reach² inside
// which circlesMeet falls back to Hypot. Both d² and Hypot are within a few
// ulps of exact, so outside the band their verdicts provably agree.
const circleBand = 1e-9

// minBandReach2 is the smallest reach² the squared test is trusted at;
// below it squares lose precision to underflow and Hypot decides alone.
const minBandReach2 = 1e-200

// circlesMeet reports !(hypot(a-b) > reach), the bounding-circle test. The
// squared distance settles every pair clear of the band around reach²
// without calling Hypot; what the squares cannot settle (a NaN, or both
// infinite) falls through to Hypot.
func circlesMeet(a, b Vec2, reach float64) bool {
	dx, dy := a.X-b.X, a.Y-b.Y
	d2 := dx*dx + dy*dy
	r2 := reach * reach
	if r2 >= minBandReach2 {
		if d2 > r2*(1+circleBand) {
			return false
		}
		if d2 < r2*(1-circleBand) {
			return true
		}
	}
	return !(math.Hypot(dx, dy) > reach)
}

// projectExtent returns the min/max projection of the corners onto axis ax.
func projectExtent(pts *[4]Vec2, ax Vec2) (min, max float64) {
	min, max = math.Inf(1), math.Inf(-1)
	d0, d1, d2, d3 := pts[0].Dot(ax), pts[1].Dot(ax), pts[2].Dot(ax), pts[3].Dot(ax)
	if d0 < min {
		min = d0
	}
	if d0 > max {
		max = d0
	}
	if d1 < min {
		min = d1
	}
	if d1 > max {
		max = d1
	}
	if d2 < min {
		min = d2
	}
	if d2 > max {
		max = d2
	}
	if d3 < min {
		min = d3
	}
	if d3 > max {
		max = d3
	}
	return min, max
}

// Segment is a directed line segment from A to B.
type Segment struct {
	A, B Vec2
}

// Length returns the segment length.
func (s Segment) Length() float64 { return s.A.Dist(s.B) }

// PointAt returns the point at parameter t in [0,1] along the segment.
func (s Segment) PointAt(t float64) Vec2 { return s.A.Lerp(s.B, t) }

// Intersect reports whether two segments intersect and, if they do and are
// not collinear, the intersection point and the parameters along each
// segment. Collinear-overlapping segments report ok=true with the midpoint
// of the overlap.
func (s Segment) Intersect(o Segment) (p Vec2, t, u float64, ok bool) {
	r := s.B.Sub(s.A)
	d := o.B.Sub(o.A)
	denom := r.Cross(d)
	diff := o.A.Sub(s.A)
	if math.Abs(denom) < Eps {
		// Parallel. Check collinearity.
		if math.Abs(diff.Cross(r)) > Eps {
			return Vec2{}, 0, 0, false
		}
		// Collinear: project o's endpoints onto s.
		rlen2 := r.NormSq()
		if rlen2 < Eps {
			// s is a point.
			if o.A.Dist(s.A) < Eps || onSegment(o, s.A) {
				return s.A, 0, 0, true
			}
			return Vec2{}, 0, 0, false
		}
		t0 := diff.Dot(r) / rlen2
		t1 := o.B.Sub(s.A).Dot(r) / rlen2
		if t0 > t1 {
			t0, t1 = t1, t0
		}
		lo := math.Max(0, t0)
		hi := math.Min(1, t1)
		if lo > hi {
			return Vec2{}, 0, 0, false
		}
		tm := (lo + hi) / 2
		return s.PointAt(tm), tm, 0, true
	}
	t = diff.Cross(d) / denom
	u = diff.Cross(r) / denom
	if t < -Eps || t > 1+Eps || u < -Eps || u > 1+Eps {
		return Vec2{}, 0, 0, false
	}
	return s.PointAt(t), t, u, true
}

// onSegment reports whether p lies on segment s (assumes collinearity has
// been established by the caller).
func onSegment(s Segment, p Vec2) bool {
	return p.X >= math.Min(s.A.X, s.B.X)-Eps && p.X <= math.Max(s.A.X, s.B.X)+Eps &&
		p.Y >= math.Min(s.A.Y, s.B.Y)-Eps && p.Y <= math.Max(s.A.Y, s.B.Y)+Eps
}

// DistToPoint returns the distance from p to the closest point on the
// segment.
func (s Segment) DistToPoint(p Vec2) float64 {
	r := s.B.Sub(s.A)
	l2 := r.NormSq()
	if l2 < Eps {
		return p.Dist(s.A)
	}
	t := Clamp(p.Sub(s.A).Dot(r)/l2, 0, 1)
	return p.Dist(s.PointAt(t))
}
