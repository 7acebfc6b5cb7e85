package im

import (
	"math"
	"testing"

	"crossroads/internal/kinematics"
)

func TestNewAnchorDeadReckonsToTE(t *testing.T) {
	p := kinematics.ScaleModelParams()
	a := NewAnchor(Request{TransmitTime: 1, DistToEntry: 2, CurrentSpeed: 4, Params: p}, 1.15)
	// VC clamps to MaxSpeed; DE = DT - VC*(TE-TT).
	if a.TE != 1.15 || a.VC != 3 || math.Abs(a.DE-(2-3*0.15)) > 1e-12 {
		t.Errorf("anchor = %+v", a)
	}
	// Past the entry by TE: DE floors at 0.
	if a := NewAnchor(Request{TransmitTime: 1, DistToEntry: 0.1, CurrentSpeed: 3, Params: p}, 1.15); a.DE != 0 {
		t.Errorf("DE = %v, want 0", a.DE)
	}
}

func TestAnchorEarliestFloorsSpeed(t *testing.T) {
	a := Anchor{TE: 2, DE: 0, VC: 0, Params: kinematics.ScaleModelParams()}
	toa, v := a.Earliest(0.1)
	if toa != 2 || v != 0.1 {
		t.Errorf("Earliest = (%v, %v), want (2, 0.1)", toa, v)
	}
}

func TestAnchorLatest(t *testing.T) {
	p := kinematics.ScaleModelParams()
	const lip = 0.6
	// Far out and slow: can still stop behind the lip.
	far := Anchor{TE: 1, DE: 3, VC: 1, Params: p}
	if got, ok := far.Latest(lip, 0.1); !math.IsInf(got, 1) || !ok {
		t.Errorf("stop-capable Latest = (%v, %v), want (+Inf, true)", got, ok)
	}
	// Close in at full speed: the no-dwell dip bound.
	near := Anchor{TE: 1, DE: 1.05, VC: 3, Params: p}
	eta, okDip := kinematics.LatestNoDwell(near.DE, near.VC, 0.1, p)
	if !okDip {
		t.Fatal("test setup: no dip")
	}
	if got, ok := near.Latest(lip, 0.1); !ok || got != near.TE+eta {
		t.Errorf("Latest = (%v, %v), want (%v, true)", got, ok, near.TE+eta)
	}
	// No dip at all (a vehicle that cannot brake): TE, not ok.
	stuck := near
	stuck.Params.MaxDecel = 0
	if got, ok := stuck.Latest(lip, 0.1); ok || got != stuck.TE {
		t.Errorf("no-dip Latest = (%v, %v), want (%v, false)", got, ok, stuck.TE)
	}
}

func TestAnchorVerify(t *testing.T) {
	p := kinematics.ScaleModelParams()
	// Stopping from 3 m/s takes 1.5 m: from DE = 2 the dwell sits 0.5 m
	// before the entry.
	a := Anchor{TE: 0, DE: 2, VC: 3, Params: p}
	if a.Verify(10, 0.6) {
		t.Error("dwell 0.5 m out accepted with a 0.6 m lip")
	}
	if !a.Verify(10, 0.4) {
		t.Error("dwell 0.5 m out rejected with a 0.4 m lip")
	}
	// Too close to stop: a slot beyond the deepest dip is unreachable.
	tight := Anchor{TE: 0, DE: 1, VC: 3, Params: p}
	if tight.Verify(10, 0) {
		t.Error("unreachable slot accepted")
	}
	// Already standing inside the lip: dwelling where it stands is fine.
	standing := Anchor{TE: 0, DE: 0.3, VC: 0, Params: p}
	if !standing.Verify(10, 0.6) {
		t.Error("dwell at the plan start rejected")
	}
	// The earliest slot never dwells.
	earliest, _ := a.Earliest(0.1)
	if !a.Verify(earliest, 10) {
		t.Error("earliest slot rejected")
	}
}

func TestAnchorPlanAtRecordsApproach(t *testing.T) {
	p := kinematics.ScaleModelParams()
	a := Anchor{TE: 1, DE: 2, VC: 3, Params: p}
	earliest, vEarliest := a.Earliest(0.1)
	fast := a.PlanAt(earliest, earliest, vEarliest, 0.1)
	if fast.EntrySpeed != vEarliest || fast.ApproachDist != a.DE {
		t.Errorf("earliest plan = %+v", fast)
	}
	late := a.PlanAt(earliest+1, earliest, vEarliest, 0.1)
	if late.EntrySpeed >= vEarliest || late.EntrySpeed < 0.1 {
		t.Errorf("delayed entry speed %v, want in [0.1, %v)", late.EntrySpeed, vEarliest)
	}
	if rem, _, ok := late.StateAt(a.TE); !ok || math.Abs(rem-a.DE) > 1e-9 {
		t.Errorf("approach state at TE = (%v, %v), want DE %v", rem, ok, a.DE)
	}
	if got := a.Grant(earliest+1, late); got.Kind != RespTimed || got.ExecuteAt != a.TE || got.ArriveAt != earliest+1 || got.TargetSpeed != late.EntrySpeed {
		t.Errorf("grant = %+v", got)
	}
}
