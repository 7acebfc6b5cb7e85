package auction

import (
	"math/rand"
	"testing"

	"crossroads/internal/im"
	"crossroads/internal/intersection"
	"crossroads/internal/kinematics"
)

func newSched(t *testing.T, emergency int64) *im.VTCore {
	t.Helper()
	x, err := intersection.New(intersection.ScaleModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Core.Cost.Jitter = 0
	cfg.Emergency = emergency
	s, err := New(x, cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func req(id int64, a intersection.Approach, tt, dt, vc float64, prio int) im.Request {
	return im.Request{
		VehicleID: id, Seq: 1,
		Movement:     intersection.MovementID{Approach: a, Lane: 0, Turn: intersection.Straight},
		CurrentSpeed: vc, DistToEntry: dt, TransmitTime: tt,
		Params:   kinematics.ScaleModelParams(),
		Priority: prio,
	}
}

func TestBid(t *testing.T) {
	for _, tc := range []struct {
		name      string
		emergency int64
		id        int64
		priority  int
		want      int64
	}{
		{"declared priority wins", 16, 5, 3, 3},
		{"declared priority beats promotion", 16, 32, 1, 1},
		{"untagged multiple promoted", 16, 32, 0, 2},
		{"untagged non-multiple", 16, 33, 0, 0},
		{"promotion disabled", 0, 32, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := &planner{emergency: tc.emergency}
			if got := p.Bid(im.Request{VehicleID: tc.id, Priority: tc.priority}); got != tc.want {
				t.Errorf("Bid = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestNewRejectsNegativeEmergency(t *testing.T) {
	x, err := intersection.New(intersection.ScaleModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Emergency = -1
	if _, err := New(x, cfg, rand.New(rand.NewSource(1))); err == nil {
		t.Error("negative Emergency accepted")
	}
}

// TestPreemption books a low-bid crossing, then sends a conflicting
// high-bid request: the bidder must land earlier than the same request
// gets without a bid, and the displaced vehicle must receive a revision
// that moves it behind the bidder.
func TestPreemption(t *testing.T) {
	run := func(prio int) (im.Response, []im.Push) {
		s := newSched(t, 0)
		low, _ := s.HandleRequest(0.05, req(1, intersection.East, 0.04, 3.0, 3.0, 0))
		if low.Kind != im.RespTimed {
			t.Fatalf("low-bid response = %v", low.Kind)
		}
		s.TakePushes()
		high, _ := s.HandleRequest(0.08, req(2, intersection.North, 0.07, 3.0, 3.0, prio))
		if high.Kind != im.RespTimed {
			t.Fatalf("bidder response = %v", high.Kind)
		}
		return high, s.TakePushes()
	}
	plain, plainPushes := run(0)
	won, pushes := run(2)
	if len(plainPushes) != 0 {
		t.Errorf("bidless request displaced grants: %+v", plainPushes)
	}
	if won.ArriveAt >= plain.ArriveAt {
		t.Errorf("bidder ToA %v not earlier than bidless %v", won.ArriveAt, plain.ArriveAt)
	}
	if len(pushes) != 1 || pushes[0].VehicleID != 1 {
		t.Fatalf("pushes = %+v, want one revision for vehicle 1", pushes)
	}
	if rev := pushes[0].Resp; rev.Kind != im.RespTimed || rev.ArriveAt <= won.ArriveAt {
		t.Errorf("revision %+v does not yield to the bidder's ToA %v", rev, won.ArriveAt)
	}
}
