package signalized

import (
	"math/rand"
	"testing"

	"crossroads/internal/intersection"
)

func TestAlignArrival(t *testing.T) {
	// Green 8 s + all-red 2 s per approach: East is green on [0, 8] of each
	// 40 s cycle, North on [10, 18], West on [20, 28], South on [30, 38].
	p := &planner{green: 8, phase: 10, cycle: 40}
	east := intersection.MovementID{Approach: intersection.East, Turn: intersection.Straight}
	north := intersection.MovementID{Approach: intersection.North, Turn: intersection.Left}
	for _, tc := range []struct {
		name       string
		m          intersection.MovementID
		t          float64
		start, end float64
	}{
		{"inside green", east, 3, 0, 8},
		{"green end", east, 8, 0, 8},
		{"inside all-red", east, 9, 40, 48},
		{"in another approach's phase", east, 15, 40, 48},
		{"own phase", north, 15, 10, 18},
		{"before own phase", north, 5, 10, 18},
		{"later cycle", north, 93, 90, 98},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, e := p.AlignArrival(tc.m, tc.t)
			if s != tc.start || e != tc.end {
				t.Errorf("AlignArrival(%v) = [%v, %v], want [%v, %v]", tc.t, s, e, tc.start, tc.end)
			}
		})
	}
}

func TestNewRejectsBadPlan(t *testing.T) {
	x, err := intersection.New(intersection.ScaleModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name          string
		green, allRed float64
		ok            bool
	}{
		{"default", 8, 2, true},
		{"no clearance", 8, 0, true},
		{"zero green", 0, 2, false},
		{"negative green", -1, 2, false},
		{"negative all-red", 8, -0.5, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Green, cfg.AllRed = tc.green, tc.allRed
			_, err := New(x, cfg, rand.New(rand.NewSource(1)))
			if (err == nil) != tc.ok {
				t.Errorf("New(green=%v, allred=%v) err = %v, want ok=%v", tc.green, tc.allRed, err, tc.ok)
			}
		})
	}
}
