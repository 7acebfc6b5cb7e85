package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// tailLadder is the set of percentiles a timing may be reported at,
// highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// rank returns the 1-based nearest rank of percentile p in n samples.
func rank(n int, p float64) int {
	// The tolerance keeps float error from pushing an exact rank (99.9%
	// of 10000) up by one.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// reportablePercentile returns the highest percentile, no higher than
// want, that has at least ten samples beyond it among n. A median is
// always reported, so 50 is the floor even when fewer samples exist.
func reportablePercentile(n int, want float64) float64 {
	for _, p := range tailLadder {
		if p > want {
			continue
		}
		if n-rank(n, p) >= 10 {
			return p
		}
	}
	return 50
}

// quantile returns the nearest-rank percentile p of xs (0 when empty).
// xs is sorted in place.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), p)-1]
}

// tail is one reported timing percentile: the percentile actually used,
// its value, and how many samples it came from.
type tail struct {
	P     float64
	Value float64
	N     int
}

// tailOf reports xs at the highest percentile up to want that has ten
// samples beyond it.
func tailOf(xs []float64, want float64) tail {
	p := reportablePercentile(len(xs), want)
	return tail{P: p, Value: quantile(xs, p), N: len(xs)}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// interval is a closed-open span of host time.
type interval struct{ start, end time.Time }

// selfTime is a span's duration minus the part of it that its children
// cover. Children may overlap each other or stick out of the span; only
// the union of their parts inside the span is subtracted.
func selfTime(span interval, children []interval) time.Duration {
	total := span.end.Sub(span.start)
	if total <= 0 {
		return 0
	}
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start.Before(span.start) {
			c.start = span.start
		}
		if c.end.After(span.end) {
			c.end = span.end
		}
		if c.end.After(c.start) {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start.Before(clipped[j].start) })
	var covered time.Duration
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case !c.start.After(cur.end):
			if c.end.After(cur.end) {
				cur.end = c.end
			}
		default:
			covered += cur.end.Sub(cur.start)
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.end.Sub(cur.start)
	}
	return total - covered
}

// span is one timed section of the benchmark's own code around a call
// into a layer. Spans of one request share its vehicle ID as Key.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Key    int64  `json:"key,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog is the
// untraced run: every method is a no-op.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// add records a span and returns its ID (0 when untraced), for use as a
// child's parent.
func (l *spanLog) add(key int64, name string, parent int, iv interval) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Key: key, Name: name,
		Start: iv.start.Sub(l.epoch).Nanoseconds(), End: iv.end.Sub(l.epoch).Nanoseconds(),
	})
	return id
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
