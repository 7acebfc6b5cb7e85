package sim

// Closed-loop fault-injection tests: graceful degradation under a total
// partition, full recovery after an IM stall, and the deep-oversaturation
// AIM tail regression.

import (
	"math/rand"
	"testing"

	"crossroads/internal/fault"
	"crossroads/internal/intersection"
	"crossroads/internal/kinematics"
	"crossroads/internal/safety"
	"crossroads/internal/topology"
	"crossroads/internal/trace"
	"crossroads/internal/traffic"
	"crossroads/internal/vehicle"
)

func faultWorkload(t *testing.T, n int, seed int64) []traffic.Arrival {
	t.Helper()
	arr, err := traffic.Poisson(traffic.PoissonConfig{
		Rate: 0.4, NumVehicles: n, LanesPerRoad: 1,
		Mix: traffic.DefaultTurnMix(), Params: kinematics.ScaleModelParams(),
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return arr
}

// TestTotalPartitionFailsafe cuts every vehicle off from the IM for the
// whole run: nobody can be granted, so every vehicle must end standing in a
// failsafe stop short of the box — no collisions, nobody stranded mid-
// intersection, and the trace must show the fault window and the failsafes.
func TestTotalPartitionFailsafe(t *testing.T) {
	arr := faultWorkload(t, 12, 1)
	rec := trace.NewFull()
	res, err := Run(Config{
		Policy: vehicle.PolicyCrossroads,
		Seed:   1,
		Faults: &fault.Schedule{Windows: []fault.Window{
			{Kind: fault.Partition, Start: 0, Duration: 1e6, From: "veh*", To: "im*"},
		}},
		MaxSimTime: 60,
		Trace:      rec,
	}, arr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Collisions != 0 {
		t.Errorf("collisions = %d under total partition", res.Summary.Collisions)
	}
	if res.Incomplete != len(arr) {
		t.Errorf("Incomplete = %d, want all %d (nobody can be granted)", res.Incomplete, len(arr))
	}
	if res.FailsafeStopped != res.Incomplete {
		t.Errorf("FailsafeStopped = %d of %d incomplete: the rest did not degrade gracefully",
			res.FailsafeStopped, res.Incomplete)
	}
	if res.Stranded != 0 {
		t.Errorf("Stranded = %d, want 0", res.Stranded)
	}
	var sawBegin, sawFailsafe bool
	for _, e := range rec.Events() {
		switch e.Kind {
		case trace.KindFaultBegin:
			sawBegin = true
		case trace.KindVehFailsafe:
			sawFailsafe = true
		}
	}
	if !sawBegin {
		t.Error("trace missing fault.begin")
	}
	if !sawFailsafe {
		t.Error("trace missing veh.failsafe")
	}
}

// TestStallRecovery freezes the IM mid-rush; after recovery the buffered
// queue drains and the whole fleet must still complete with zero safety
// events.
func TestStallRecovery(t *testing.T) {
	arr := faultWorkload(t, 20, 2)
	for _, pol := range []vehicle.Policy{vehicle.PolicyCrossroads, vehicle.PolicyBatch} {
		res, err := Run(Config{
			Policy: pol,
			Seed:   2,
			Faults: &fault.Schedule{Windows: []fault.Window{
				{Kind: fault.Stall, Start: 4, Duration: 4, Node: 0},
			}},
		}, arr)
		if err != nil {
			t.Fatal(err)
		}
		if res.Summary.Collisions != 0 || res.Summary.BufferViolations != 0 {
			t.Errorf("%v: coll=%d buf=%d after stall recovery",
				pol, res.Summary.Collisions, res.Summary.BufferViolations)
		}
		if res.Incomplete != 0 {
			t.Errorf("%v: %d vehicles never completed after the stall healed", pol, res.Incomplete)
		}
	}
}

// TestFaultsOffIsByteIdenticalToNil pins that an empty (but non-nil)
// schedule still runs and that a nil schedule matches the pre-fault
// behavior exactly — the golden trace test covers the byte-level contract;
// this covers the summary-level one cheaply across policies.
func TestFaultsOffIsByteIdenticalToNil(t *testing.T) {
	arr := faultWorkload(t, 10, 3)
	clean, err := Run(Config{Policy: vehicle.PolicyCrossroads, Seed: 3}, arr)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Run(Config{Policy: vehicle.PolicyCrossroads, Seed: 3}, arr)
	if err != nil {
		t.Fatal(err)
	}
	// SchedulerWall is real wall-clock time and legitimately varies.
	clean.Summary.SchedulerWall = 0
	again.Summary.SchedulerWall = 0
	if clean.Summary != again.Summary {
		t.Errorf("identical configs diverge: %+v vs %+v", clean.Summary, again.Summary)
	}
}

// TestAIMDeepOversaturationTail is the grazing-tail regression: at rate 1.0
// with 80 full-scale vehicles AIM's yes/no protocol historically keeps rare
// grazes (the paper's QB-IM criticism) — the bound is <= 1 collision per
// seed and a fully completed fleet. A regression above that bound means the
// stale-response or confirm logic broke.
func TestAIMDeepOversaturationTail(t *testing.T) {
	if testing.Short() {
		t.Skip("deep-oversaturation sweep")
	}
	params := kinematics.FullScaleParams()
	for seed := int64(1); seed <= 3; seed++ {
		arr, err := traffic.Poisson(traffic.PoissonConfig{
			Rate: 1.0, NumVehicles: 80, LanesPerRoad: 1,
			Mix: traffic.DefaultTurnMix(), Params: params,
		}, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{
			Policy:       vehicle.PolicyAIM,
			Seed:         seed,
			Intersection: intersection.FullScaleConfig(),
			Spec:         safety.FullScaleSpec(),
		}, arr)
		if err != nil {
			t.Fatal(err)
		}
		if res.Summary.Collisions > 1 {
			t.Errorf("seed %d: AIM collisions = %d, tail bound is 1", seed, res.Summary.Collisions)
		}
		if res.Incomplete != 0 {
			t.Errorf("seed %d: %d vehicles incomplete", seed, res.Incomplete)
		}
	}
}

// TestStallOnInnerNodeBothKernels stalls node 2 of a 2x2 grid — not the
// classic node 0 — under both event kernels. The window's edges must be
// traced exactly once each, tagged with the stalled node and stamped at the
// window edges, and the fleet must recover with zero collisions and nobody
// stranded.
func TestStallOnInnerNodeBothKernels(t *testing.T) {
	grid22, err := topology.Grid(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	topo := grid22.WithSegmentLen(0.8)
	arr := topoWorkload(t, topo, 16, 4)
	stall := fault.Window{Kind: fault.Stall, Start: 3, Duration: 4, Node: 2}
	for _, k := range []Kernel{KernelSerial, KernelParallel} {
		t.Run(k.String(), func(t *testing.T) {
			rec := trace.NewFull()
			cfg, err := NewConfig(
				WithTopology(topo),
				WithPolicy(vehicle.PolicyCrossroads),
				WithSeed(4),
				WithFaults(&fault.Schedule{Windows: []fault.Window{stall}}),
				WithKernel(k),
				WithTrace(rec),
			)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(cfg, arr)
			if err != nil {
				t.Fatal(err)
			}
			if res.Kernel != k.String() {
				t.Fatalf("ran on the %s kernel, want %s", res.Kernel, k)
			}
			edges := map[string][]trace.Event{}
			var stalledGrants, laterGrants int
			for _, e := range rec.Events() {
				switch {
				case e.Kind == trace.KindFaultBegin || e.Kind == trace.KindFaultEnd:
					edges[e.Kind] = append(edges[e.Kind], e)
				case e.Kind == trace.KindIMGrant && e.Node == 2 && e.T > stall.Start && e.T < stall.End():
					stalledGrants++
				case e.Kind == trace.KindIMGrant && e.Node == 2 && e.T >= stall.End():
					laterGrants++
				}
			}
			if stalledGrants != 0 || laterGrants == 0 {
				t.Errorf("node 2 granted %d times inside the stall and %d times after it; want none, then some",
					stalledGrants, laterGrants)
			}
			for kind, at := range map[string]float64{
				trace.KindFaultBegin: stall.Start,
				trace.KindFaultEnd:   stall.End(),
			} {
				evs := edges[kind]
				if len(evs) != 1 {
					t.Fatalf("%s traced %d times, want once", kind, len(evs))
				}
				if e := evs[0]; e.Node != 2 || e.T != at || e.Detail != fault.Stall.String() {
					t.Errorf("%s = {Node:%d T:%v Detail:%q}, want {Node:2 T:%v Detail:%q}",
						kind, e.Node, e.T, e.Detail, at, fault.Stall.String())
				}
			}
			if res.Summary.Collisions != 0 || res.Stranded != 0 {
				t.Errorf("after the node-2 stall: %d collisions, %d stranded",
					res.Summary.Collisions, res.Stranded)
			}
		})
	}
}
