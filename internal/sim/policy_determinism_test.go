package sim

import (
	"reflect"
	"strings"
	"testing"

	"crossroads/internal/plant"
	"crossroads/internal/topology"
	"crossroads/internal/trace"
	"crossroads/internal/vehicle"
)

// TestNewPoliciesDeterministicAcrossWorkers pins each of the new policy
// families — dot, signalized, auction — bit-identical across parallel-kernel
// worker counts on a 2x2 grid, the same contract the crossroads policy
// carries in TestParallelKernelDeterministicAcrossWorkers. A policy that
// consults map-iteration order or wall time in its scheduling path fails
// here before it can corrupt a sweep.
func TestNewPoliciesDeterministicAcrossWorkers(t *testing.T) {
	grid22, err := topology.Grid(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	topo := grid22.WithSegmentLen(0.8)
	arr := topoWorkload(t, topo, 14, 23)
	params := map[string]string{
		"dot.grid":          "10",
		"auction.emergency": "4",
		"signalized.green":  "6",
	}
	for _, pol := range []vehicle.Policy{vehicle.PolicyDOT, vehicle.PolicySignalized, vehicle.PolicyAuction} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			t.Parallel()
			run := func(workers int) (Result, []trace.Event) {
				rec := trace.NewFull()
				cfg, err := NewConfig(
					WithTopology(topo),
					WithPolicy(pol),
					WithPolicyParams(params),
					WithSeed(23),
					WithNoise(plant.TestbedNoise()),
					WithKernel(KernelParallel),
					WithKernelWorkers(workers),
					WithTrace(rec),
				)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Run(cfg, arr)
				if err != nil {
					t.Fatal(err)
				}
				evs := append([]trace.Event(nil), rec.Events()...)
				trace.CanonicalizeWall(evs)
				res.Summary.SchedulerWall = 0
				for k := range res.PerNode {
					res.PerNode[k].SchedulerWall = 0
				}
				return res, evs
			}
			want, wantEvs := run(1)
			if want.Summary.Collisions != 0 || want.Stranded != 0 {
				t.Fatalf("policy %v reference run: %d collisions, %d stranded",
					pol, want.Summary.Collisions, want.Stranded)
			}
			for _, workers := range []int{2, 4} {
				got, gotEvs := run(workers)
				if len(got.Vehicles) != len(want.Vehicles) {
					t.Fatalf("workers=%d: %d vehicles, want %d", workers, len(got.Vehicles), len(want.Vehicles))
				}
				for i := range want.Vehicles {
					if got.Vehicles[i] != want.Vehicles[i] {
						t.Fatalf("workers=%d: vehicle record %d differs:\n got %+v\nwant %+v",
							workers, i, got.Vehicles[i], want.Vehicles[i])
					}
				}
				if got.Summary != want.Summary {
					t.Errorf("workers=%d: summary differs:\n got %+v\nwant %+v", workers, got.Summary, want.Summary)
				}
				if got.Network != want.Network {
					t.Errorf("workers=%d: network stats differ:\n got %+v\nwant %+v", workers, got.Network, want.Network)
				}
				if len(gotEvs) != len(wantEvs) {
					t.Fatalf("workers=%d: trace length %d, want %d", workers, len(gotEvs), len(wantEvs))
				}
				for i := range wantEvs {
					if gotEvs[i] != wantEvs[i] {
						t.Fatalf("workers=%d: trace event %d differs:\n got %+v\nwant %+v",
							workers, i, gotEvs[i], wantEvs[i])
					}
				}
			}
		})
	}
}

// TestPolicyParamsReachBothKernels pins that Config.PolicyParams reaches
// the scheduler under either event kernel: an unknown knob under the
// running policy's namespace fails Run, and a known knob changes the run.
func TestPolicyParamsReachBothKernels(t *testing.T) {
	grid22, err := topology.Grid(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	topo := grid22.WithSegmentLen(0.8)
	arr := topoWorkload(t, topo, 14, 23)
	for _, k := range []Kernel{KernelSerial, KernelParallel} {
		t.Run(k.String(), func(t *testing.T) {
			run := func(pol vehicle.Policy, params map[string]string) (Result, error) {
				cfg, err := NewConfig(
					WithTopology(topo),
					WithPolicy(pol),
					WithPolicyParams(params),
					WithSeed(23),
					WithKernel(k),
				)
				if err != nil {
					t.Fatal(err)
				}
				return Run(cfg, arr)
			}
			if _, err := run(vehicle.PolicyDOT, map[string]string{"dot.bogus": "1"}); err == nil ||
				!strings.Contains(err.Error(), "bogus") {
				t.Errorf("unknown knob dot.bogus: err = %v, want an error naming it", err)
			}
			def, err := run(vehicle.PolicySignalized, nil)
			if err != nil {
				t.Fatal(err)
			}
			tuned, err := run(vehicle.PolicySignalized, map[string]string{"signalized.green": "3"})
			if err != nil {
				t.Fatal(err)
			}
			if tuned.Kernel != k.String() {
				t.Fatalf("ran on the %s kernel, want %s", tuned.Kernel, k)
			}
			if reflect.DeepEqual(def.Vehicles, tuned.Vehicles) {
				t.Error("signalized.green=3 left every journey unchanged: the knob never reached the scheduler")
			}
		})
	}
}
