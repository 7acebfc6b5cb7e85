// Benchmark harness regenerating every table and figure in the paper's
// evaluation (see DESIGN.md's per-experiment index):
//
//	E1 BenchmarkCalibrateElong       — §3.1 / Fig. 3.1 control-error bound
//	E2 BenchmarkCalibrateSync        — §3.2 clock-sync residual
//	E3 BenchmarkCalibrateRTD         — Ch. 4 worst-case round-trip delay
//	E4 BenchmarkScaleModelScenarios  — §7.1 / Fig. 7.1 wait-time comparison
//	E6 BenchmarkOverheadComparison   — §7.2 compute/network overhead
//	A1 BenchmarkAblationNoRTDBuffer  — safety without the RTD buffer
//	A2 BenchmarkAblationBufferSweep  — throughput vs RTD-buffer length
//
// Custom b.ReportMetric values carry the reproduced quantities (throughput,
// ratios, millimeters, milliseconds) so `go test -bench . -benchmem`
// prints the paper's numbers next to the runtime cost of producing them.
// Every iteration runs the same fixed seed (the experiment's command-line
// default where it has one), so the reported quantity does not depend on
// how many iterations ran.
//
// E5 and E7 (Fig. 7.2 and its headline ratios) are printed by
// `go run ./cmd/crossroads-sim -summary`. The end-to-end timings (the flow
// sweep, the grid, the server) are defined once, by the repository
// benchmark (BENCHMARK.json, perfbench/); the micro-benchmarks below and
// in the packages time single layers.
package crossroads

import (
	"math/rand"
	"testing"

	"crossroads/internal/calib"
	"crossroads/internal/core"
	"crossroads/internal/im"
	"crossroads/internal/intersection"
	"crossroads/internal/kinematics"
	"crossroads/internal/network"
	"crossroads/internal/safety"
	"crossroads/internal/scale"
	"crossroads/internal/sim"
	"crossroads/internal/sweep"
	"crossroads/internal/traffic"
	"crossroads/internal/vehicle"
)

// E1: the Fig. 3.1 longitudinal control-error estimation. Paper: worst
// |Elong| = 75 mm over 20 trials per worst-case speed pair.
func BenchmarkCalibrateElong(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		res, err := calib.MeasureElong(calib.DefaultElongConfig())
		if err != nil {
			b.Fatal(err)
		}
		worst = res.WorstAbs
	}
	b.ReportMetric(worst*1000, "worst-Elong-mm")
}

// E2: the §3.2 clock-synchronization residual. Paper: 1 ms bound, 3 mm
// buffer at 3 m/s.
func BenchmarkCalibrateSync(b *testing.B) {
	var res calib.SyncResult
	for i := 0; i < b.N; i++ {
		res = calib.MeasureSync(50, 8, 1) // calibrate's default sync seed
	}
	b.ReportMetric(res.WorstResidual*1000, "worst-residual-ms")
	b.ReportMetric(res.BufferAt(3)*1000, "sync-buffer-mm")
}

// E3: the Ch. 4 worst-case RTD measurement — 10 trials of four simultaneous
// arrivals at calibrate's default RTD seed. Paper: 135 ms compute + 15 ms
// network, bounded at 150 ms.
func BenchmarkCalibrateRTD(b *testing.B) {
	var res calib.RTDResult
	for i := 0; i < b.N; i++ {
		r, err := calib.MeasureRTD(10, 1, 1, func(x *intersection.Intersection, rng *rand.Rand) (im.Scheduler, error) {
			return core.New(x, core.DefaultConfig(), rng)
		})
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(res.WorstRTD*1000, "worst-RTD-ms")
	b.ReportMetric(res.MeanRTD*1000, "mean-RTD-ms")
}

// E4: the §7.1 / Fig. 7.1 scale-model experiment — ten scenarios under
// VT-IM and Crossroads at scale-model's default seed. Paper: 1.24x (worst case) to 1.08x (best case)
// lower wait, ~24% on average.
func BenchmarkScaleModelScenarios(b *testing.B) {
	var res scale.Result
	for i := 0; i < b.N; i++ {
		r, err := scale.Run(scale.Config{Repetitions: 3, Seed: 1, Noisy: true})
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	sp := res.Speedup(0, 1)
	b.ReportMetric(sp[0], "worst-case-ratio")
	b.ReportMetric(sp[len(sp)-1], "best-case-ratio")
	b.ReportMetric(res.AverageWait(0)/res.AverageWait(1), "avg-ratio")
}

// E6: the compute/network overhead comparison. Paper: AIM costs up to ~16x
// the computation and up to ~20x the traffic of the velocity-transaction
// designs. One reduced sweep at rate 0.6, 80 vehicles, crossroads-sim's
// default seed.
func BenchmarkOverheadComparison(b *testing.B) {
	var res sweep.Result
	for i := 0; i < b.N; i++ {
		r, err := sweep.Run(sweep.Config{Rates: []float64{0.6}, NumVehicles: 80, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	byName := map[string]sweep.Cell{}
	for _, c := range res.Cells[0] {
		byName[c.Policy] = c
	}
	aim, cr := byName["aim"], byName["crossroads"]
	if cr.SchedulerSimDelay > 0 {
		b.ReportMetric(aim.SchedulerSimDelay/cr.SchedulerSimDelay, "aim-compute-ratio")
	}
	if cr.Messages > 0 {
		b.ReportMetric(float64(aim.Messages)/float64(cr.Messages), "aim-msg-ratio")
	}
	b.ReportMetric(aim.MeanRetries, "aim-retries-per-veh")
}

// A1: the safety ablation — VT-IM without its RTD buffer under worst-case
// in-spec delays accumulates buffer violations; with the buffer it is
// clean. The reported metric is violations per 80-vehicle run.
func BenchmarkAblationNoRTDBuffer(b *testing.B) {
	violations := 0.0
	runs := 0
	for i := 0; i < b.N; i++ {
		for seed := int64(1); seed <= 3; seed++ {
			arr, err := traffic.Poisson(traffic.PoissonConfig{
				Rate: 1.2, NumVehicles: 80, LanesPerRoad: 1,
				Mix: traffic.DefaultTurnMix(), Params: kinematics.ScaleModelParams(),
			}, rand.New(rand.NewSource(seed)))
			if err != nil {
				b.Fatal(err)
			}
			res, err := sim.Run(sim.Config{
				Policy:        vehicle.PolicyVTIM,
				Seed:          seed,
				OmitRTDBuffer: true,
				Delay:         network.ConstantDelay{D: 0.015},
				Cost:          im.CostModel{RequestBase: 0.033, PerReservation: 0.0003},
			}, arr)
			if err != nil {
				b.Fatal(err)
			}
			violations += float64(res.Summary.BufferViolations + res.Summary.Collisions)
			runs++
		}
	}
	b.ReportMetric(violations/float64(runs), "violations-per-run")
}

// A2: throughput versus the provisioned RTD buffer — the design-space sweep
// motivating Crossroads: every extra 100 ms of WC-RTD budget costs VT-IM
// throughput, while Crossroads is flat by construction.
func BenchmarkAblationBufferSweep(b *testing.B) {
	for _, wcRTD := range []float64{0.05, 0.15, 0.30} {
		wcRTD := wcRTD
		b.Run(formatMs(wcRTD), func(b *testing.B) {
			var tput float64
			for i := 0; i < b.N; i++ {
				arr, err := traffic.Poisson(traffic.PoissonConfig{
					Rate: 0.6, NumVehicles: 60, LanesPerRoad: 1,
					Mix: traffic.DefaultTurnMix(), Params: kinematics.ScaleModelParams(),
				}, rand.New(rand.NewSource(7)))
				if err != nil {
					b.Fatal(err)
				}
				spec := safety.TestbedSpec()
				spec.WorstRTD = wcRTD
				res, err := sim.Run(sim.Config{
					Policy: vehicle.PolicyVTIM,
					Seed:   7,
					Spec:   spec,
				}, arr)
				if err != nil {
					b.Fatal(err)
				}
				tput = res.Summary.Throughput
			}
			b.ReportMetric(tput, "vtim-tput")
		})
	}
}

func formatMs(s float64) string {
	switch s {
	case 0.05:
		return "rtd50ms"
	case 0.15:
		return "rtd150ms"
	case 0.30:
		return "rtd300ms"
	default:
		return "rtd"
	}
}

// Micro-benchmarks: the costs behind the simulated computation model.

// BenchmarkBookEarliestFeasible exercises the reservation-book hot path:
// repeated feasibility queries against a standing ledger of bookings. The
// book caches entry/exit intervals and padded conflict-zone occupancy per
// reservation, so each query costs one pass over the ToA-sorted ledger
// with no sorting and no per-reservation recomputation.
func BenchmarkBookEarliestFeasible(b *testing.B) {
	x, err := intersection.New(intersection.ScaleModelConfig())
	if err != nil {
		b.Fatal(err)
	}
	table, err := intersection.BuildConflictTable(x, 0.724, 0.452, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	book := im.NewBook(x, table, 0.05, 0.156)
	moves := x.Movements()
	// A standing ledger of 36 reservations spread over the movements,
	// spaced tightly enough that queries walk real conflicts.
	for i := 0; i < 36; i++ {
		m := moves[i%len(moves)]
		if err := book.Add(im.Reservation{
			VehicleID: int64(i + 1),
			Seniority: int64(i),
			Movement:  m.ID,
			ToA:       1 + 0.5*float64(i),
			Plan:      im.ConstantPlan(3),
			PlanLen:   m.Path.Length(),
		}); err != nil {
			b.Fatal(err)
		}
	}
	query := moves[0]
	plan := func(float64) im.CrossingPlan { return im.ConstantPlan(3) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := book.EarliestFeasible(1000, 1000, query.ID, query.Path.Length(), 2, plan); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSchedulerCrossroadsRequest(b *testing.B) {
	x, err := intersection.New(intersection.ScaleModelConfig())
	if err != nil {
		b.Fatal(err)
	}
	sched, err := core.New(x, core.DefaultConfig(), rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	params := kinematics.ScaleModelParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := int64(i%16 + 1)
		now := float64(i) * 0.1
		sched.HandleRequest(now, im.Request{
			VehicleID: id, Seq: i,
			Movement:     intersection.MovementID{Approach: intersection.Approach(i % 4), Lane: 0, Turn: intersection.Straight},
			CurrentSpeed: 3, DistToEntry: 3, TransmitTime: now - 0.01,
			Params: params,
		})
		if i%16 == 15 {
			for v := int64(1); v <= 16; v++ {
				sched.HandleExit(now, v)
			}
		}
	}
}

// BenchmarkConflictTableBuild times one cold conflict-table build: the
// scale-model table, and the two full-scale tables every flow sweep pays
// for at set-up, with the footprints Crossroads (core.Config.VTConfig) and
// VT-IM (vtim.New: the sensing plus RTD buffers) plan with.
func BenchmarkConflictTableBuild(b *testing.B) {
	full := kinematics.FullScaleParams()
	crCfg := core.DefaultConfig()
	crCfg.Spec, crCfg.RefLength, crCfg.RefWidth = safety.FullScaleSpec(), full.Length, full.Width
	vt := crCfg.VTConfig()
	crLen, crWid := vt.Buffers.InflatedDims(vt.RefLength, vt.RefWidth)
	vtLen, vtWid := safety.FullScaleSpec().ForVTIM().InflatedDims(full.Length, full.Width)
	for _, c := range []struct {
		name     string
		cfg      intersection.Config
		len, wid float64
		ds       float64
	}{
		{"scale-model", intersection.ScaleModelConfig(), 0.724, 0.452, 0.05},
		{"full-scale/crossroads", intersection.FullScaleConfig(), crLen, crWid, vt.TableStep},
		{"full-scale/vt-im", intersection.FullScaleConfig(), vtLen, vtWid, vt.TableStep},
	} {
		b.Run(c.name, func(b *testing.B) {
			x, err := intersection.New(c.cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := intersection.BuildConflictTable(x, c.len, c.wid, c.ds); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
