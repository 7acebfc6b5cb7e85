package dot

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"crossroads/internal/im"
	"crossroads/internal/intersection"
	"crossroads/internal/kinematics"
)

func newSched(t *testing.T) *Scheduler {
	t.Helper()
	x, err := intersection.New(intersection.ScaleModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Cost.Jitter = 0
	s, err := New(x, cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func req(id int64, a intersection.Approach, turn intersection.Turn, tt, dt, vc float64) im.Request {
	return im.Request{
		VehicleID: id, Seq: 1,
		Movement:     intersection.MovementID{Approach: a, Lane: 0, Turn: turn},
		CurrentSpeed: vc, DistToEntry: dt, TransmitTime: tt,
		Params: kinematics.ScaleModelParams(),
	}
}

func TestDOTExitMergeConflictStops(t *testing.T) {
	s := newSched(t)
	// Eastbound straight and northbound right both exit east on lane 0.
	lead, _ := s.HandleRequest(0.05, req(1, intersection.East, intersection.Straight, 0.04, 3.0, 3.0))
	if lead.Kind != im.RespTimed {
		t.Fatalf("leader response = %+v", lead)
	}
	// Free the leader's tiles: only its exit crossing still constrains
	// the merging vehicle, which is too close and fast to wait out the
	// exit-road separation.
	s.res.Release(1)
	merging := req(2, intersection.North, intersection.Right, 0.60, 1.5, 3.0)
	resp, _ := s.HandleRequest(0.61, merging)
	if resp.Kind != im.RespVelocity || resp.TargetSpeed != 0 {
		t.Fatalf("exit-merge conflict granted: %+v", resp)
	}
	// With the leader gone the same request is granted.
	s.HandleExit(1.0, 1)
	if resp, _ := s.HandleRequest(0.61, merging); resp.Kind != im.RespTimed {
		t.Errorf("unconflicted merge not granted: %+v", resp)
	}
}

func TestDOTCommittedPushesOverlappedGrant(t *testing.T) {
	s := newSched(t)
	north, _ := s.HandleRequest(0.05, req(1, intersection.North, intersection.Straight, 0.04, 3.0, 3.0))
	if north.Kind != im.RespTimed {
		t.Fatalf("north response = %+v", north)
	}
	// A committed east vehicle's truthful crossing lands on the north
	// grant's tiles: it is booked anyway and the north grant is revised.
	east := req(2, intersection.East, intersection.Straight, 0.20, 0.3, 3.0)
	east.Committed = true
	const now = 0.22
	resp, _ := s.HandleRequest(now, east)
	if resp.Kind != im.RespTimed {
		t.Fatalf("committed response = %+v", resp)
	}
	pushes := s.TakePushes()
	if len(pushes) != 1 || pushes[0].VehicleID != 1 {
		t.Fatalf("pushes = %+v, want one revision of vehicle 1", pushes)
	}
	got := pushes[0].Resp
	wantTE := now + s.cfg.Spec.WorstRTD
	if got.Kind != im.RespTimed || math.Abs(got.ExecuteAt-wantTE) > 1e-12 {
		t.Errorf("revision executes at %v, want now+WorstRTD = %v", got.ExecuteAt, wantTE)
	}
	if got.ArriveAt <= north.ArriveAt {
		t.Errorf("revised ToA %v not after the original %v", got.ArriveAt, north.ArriveAt)
	}
	g := s.grants[1]
	if g.res.ToA != got.ArriveAt {
		t.Errorf("grant ToA %v, pushed %v", g.res.ToA, got.ArriveAt)
	}
	if stepsOverlap(g.steps, s.grants[2].steps) {
		t.Error("revised footprint still overlaps the committed crossing")
	}
}

func TestDOTUnmovableVictimKeepsTiles(t *testing.T) {
	for _, tc := range []struct {
		name string
		// dt is the victim's distance to the entry when it requests at
		// 5.04; causeTT is when the committed cause transmits.
		dt, causeTT float64
	}{
		// The revision would execute after the victim entered the box.
		{"inside-box", 0.5, 5.19},
		// The victim can still dip, but no slot within its no-dwell reach
		// clears the committed crossing.
		{"no-slot-in-reach", 1.5, 5.3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newSched(t)
			victim, _ := s.HandleRequest(5.05, req(1, intersection.North, intersection.Straight, 5.04, tc.dt, 3.0))
			if victim.Kind != im.RespTimed {
				t.Fatalf("victim response = %+v", victim)
			}
			before := s.grants[1]
			steps := before.steps
			cause := req(2, intersection.East, intersection.Straight, tc.causeTT, 0.3, 3.0)
			cause.Committed = true
			s.HandleRequest(tc.causeTT+0.01, cause)
			if !stepsOverlap(steps, s.grants[2].steps) {
				t.Fatal("test setup: committed crossing does not overlap the victim")
			}
			if pushes := s.TakePushes(); len(pushes) != 0 {
				t.Errorf("unmovable victim revised: %+v", pushes)
			}
			after := s.grants[1]
			if after != before || !reflect.DeepEqual(after.steps, steps) || after.res.ToA != victim.ArriveAt {
				t.Errorf("victim grant changed: %+v", after)
			}
			// The victim still holds its tiles outside the overlap:
			// releasing it frees pairs.
			held := s.HeldPairs()
			s.HandleExit(6.0, 1)
			if s.HeldPairs() >= held {
				t.Errorf("victim held no tiles: %d pairs before release, %d after", held, s.HeldPairs())
			}
		})
	}
}
