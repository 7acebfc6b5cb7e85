package im

import (
	"math"

	"crossroads/internal/kinematics"
)

// Anchor is the time-sensitive planning state of the paper's Chapter 6:
// the command executes at TE, when the vehicle — having held VC since
// transmitting — is deterministically DE meters from the box entry. Every
// timed scheduler (crossroads and the policies built on it, batch, dot)
// and every revision plans from an Anchor, so the rule that maps a
// candidate arrival time to an approach plan exists once.
type Anchor struct {
	TE, DE, VC float64
	Params     kinematics.Params
}

// NewAnchor anchors a request at the caller's execution time te (TT +
// WC-RTD, plus the window for batch): VC is the reported speed clamped to
// [0, MaxSpeed] and DE = DT - VC*(te - TT), floored at 0.
func NewAnchor(req Request, te float64) Anchor {
	vc := math.Min(math.Max(req.CurrentSpeed, 0), req.Params.MaxSpeed)
	de := math.Max(req.DistToEntry-vc*(te-req.TransmitTime), 0)
	return Anchor{TE: te, DE: de, VC: vc, Params: req.Params}
}

// Earliest returns the earliest reachable arrival (the max-acceleration
// EToA after TE) and its arrival speed floored at vFloor.
func (a Anchor) Earliest(vFloor float64) (toa, vArr float64) {
	eta, v, _ := kinematics.EarliestArrival(a.TE, a.DE, a.VC, a.Params)
	return a.TE + eta, math.Max(v, vFloor)
}

// Latest returns the latest arrival the vehicle can safely realize. It is
// +Inf while the vehicle can still stop behind the conflict-zone lip (it
// may wait at the stop line forever). Past that point there is no safe
// waiting position, so the bound is the deepest no-dwell dip floored at
// vFloor; when not even that dip fits, Latest returns TE and ok=false.
func (a Anchor) Latest(lip, vFloor float64) (latest float64, ok bool) {
	if a.Params.StoppingDistance(a.VC) < a.DE-lip {
		return math.Inf(1), true
	}
	eta, ok := kinematics.LatestNoDwell(a.DE, a.VC, vFloor, a.Params)
	if !ok {
		return a.TE, false
	}
	return a.TE + eta, true
}

// PlanAt builds the crossing plan for arrival toa (Algorithm 7): arrive
// at toa at the approach plan's entry speed — the earliest arrival's
// vEarliest, or the dip's arrival speed floored at vFloor for a later
// slot — then accelerate to top speed through the box. The approach is
// recorded so the IM can revise the grant later.
func (a Anchor) PlanAt(toa, earliest, vEarliest, vFloor float64) CrossingPlan {
	vArr := vEarliest
	prof, err := kinematics.PlanArrival(a.TE, a.DE, a.VC, toa, a.Params)
	if err != nil {
		_, _, prof = kinematics.EarliestArrival(a.TE, a.DE, a.VC, a.Params)
	} else if toa > earliest+1e-6 {
		vArr = math.Max(prof.VelocityAt(prof.TimeAtDistance(a.DE)), vFloor)
	}
	plan := AccelPlan(toa, vArr, a.Params.MaxSpeed, a.Params.MaxAccel)
	plan.Approach = prof
	plan.ApproachDist = a.DE
	return plan
}

// Verify reports whether the approach to toa is realizable: the plan must
// actually reach toa (a slot later than the deepest dip is not), and it
// must not dwell or crawl inside the lip. Earliest-arrival slots, which
// PlanArrival cannot undercut, never dwell and always pass.
func (a Anchor) Verify(toa, lip float64) bool {
	prof, err := kinematics.PlanArrival(a.TE, a.DE, a.VC, toa, a.Params)
	if err != nil {
		return true
	}
	if math.Abs(prof.TimeAtDistance(a.DE)-toa) > 0.05 {
		return false
	}
	return kinematics.DwellClear(prof, a.DE, lip)
}

// Grant is the timed wire response commanding plan: execute at TE, arrive
// at toa.
func (a Anchor) Grant(toa float64, plan CrossingPlan) Response {
	return Response{
		Kind:        RespTimed,
		TargetSpeed: plan.EntrySpeed,
		ExecuteAt:   a.TE,
		ArriveAt:    toa,
	}
}
