package sim

import (
	"math/rand"
	"testing"

	"crossroads/internal/des"
	"crossroads/internal/intersection"
	"crossroads/internal/kinematics"
	"crossroads/internal/safety"
	"crossroads/internal/traffic"
	"crossroads/internal/vehicle"
)

// BenchmarkCheckCollisions times the collision oracle alone: one
// checkCollisions pass, which every physics step pays, over a full-scale
// crossroads world at 1.0 car/lane/s (the flow sweep's saturated regime)
// frozen half-way through its arrivals.
func BenchmarkCheckCollisions(b *testing.B) {
	params := kinematics.FullScaleParams()
	arr, err := traffic.Poisson(traffic.PoissonConfig{
		Rate: 1.0, NumVehicles: 160, LanesPerRoad: 1,
		Mix: traffic.DefaultTurnMix(), Params: params,
	}, rand.New(rand.NewSource(42)))
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := NewConfig(
		WithPolicy(vehicle.PolicyCrossroads),
		WithSeed(42),
		WithIntersection(intersection.FullScaleConfig()),
		WithSpec(safety.FullScaleSpec()),
	)
	if err != nil {
		b.Fatal(err)
	}
	s, err := resolve(cfg, arr)
	if err != nil {
		b.Fatal(err)
	}
	w, err := newWorld(s, des.New(), nil, 0)
	if err != nil {
		b.Fatal(err)
	}
	// The first half of world.run: spawns and the physics ticker, run up
	// to the middle arrival.
	for _, a := range w.arrivals {
		w.sim.At(a.Time, func() { w.spawn(a) })
	}
	dt := w.cfg.PhysicsDt
	w.sim.Ticker(w.arrivals[0].Time, dt, func() bool { w.step(dt); return true })
	w.sim.RunUntil(arr[len(arr)/2].Time)
	col := w.nodes[0].col
	collisions, bufviols := col.Collisions, col.BufferViolations

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.checkCollisions()
	}
	b.StopTimer()
	// Overlaps count on their rising edge, so re-checking a frozen world
	// must add none.
	if col.Collisions != collisions || col.BufferViolations != bufviols {
		b.Fatalf("re-checking a frozen world counted %d collisions, %d buffer violations",
			col.Collisions-collisions, col.BufferViolations-bufviols)
	}
	if len(w.active) < 10 {
		b.Fatalf("only %d active vehicles; the oracle would time an empty world", len(w.active))
	}
	b.ReportMetric(float64(len(w.active)), "vehicles")
}
