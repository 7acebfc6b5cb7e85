package im

import "testing"

func TestExitSeparated(t *testing.T) {
	a := ExitCrossing{Time: 10, Speed: 3, PlanLen: 0.724}
	b := ExitCrossing{Time: 10.1, Speed: 3, PlanLen: 0.724}
	if ExitSeparated(a, b, 1.5) {
		t.Error("0.1 s apart at 3 m/s should not be separated")
	}
	c := ExitCrossing{Time: 12, Speed: 3, PlanLen: 0.724}
	if !ExitSeparated(a, c, 1.5) {
		t.Error("2 s apart should be separated")
	}
	// Faster follower needs the catch-up margin.
	fast := ExitCrossing{Time: 10.4, Speed: 3, PlanLen: 0.724}
	slowLead := ExitCrossing{Time: 10, Speed: 0.8, PlanLen: 0.724}
	if ExitSeparated(slowLead, fast, 1.5) {
		t.Error("fast follower behind slow leader should need more margin")
	}
}
