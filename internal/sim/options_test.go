package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"crossroads/internal/intersection"
	"crossroads/internal/safety"
	"crossroads/internal/traffic"
	"crossroads/internal/vehicle"
)

// TestNewConfigSetsFields proves every option lands on its Config field.
func TestNewConfigSetsFields(t *testing.T) {
	rec := intersection.FullScaleConfig()
	cfg, err := NewConfig(
		WithPolicy(vehicle.PolicyVTIM),
		WithSeed(99),
		WithIntersection(rec),
		WithSpec(safety.FullScaleSpec()),
		WithLossProb(0.1),
		WithPhysicsDt(0.02),
		WithMaxSimTime(45),
		WithClockError(0.5, 40),
		WithOmitRTDBuffer(),
		WithCollisionEvery(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	want := Config{
		Policy:           vehicle.PolicyVTIM,
		Seed:             99,
		Intersection:     rec,
		Spec:             safety.FullScaleSpec(),
		LossProb:         0.1,
		PhysicsDt:        0.02,
		MaxSimTime:       45,
		ClockMaxOffset:   0.5,
		ClockMaxDriftPPM: 40,
		OmitRTDBuffer:    true,
		CollisionEvery:   4,
	}
	if !reflect.DeepEqual(cfg, want) {
		t.Fatalf("NewConfig mismatch:\n got %+v\nwant %+v", cfg, want)
	}
}

// TestNewConfigRejectsContradictions proves Validate runs at construction.
func TestNewConfigRejectsContradictions(t *testing.T) {
	_, err := NewConfig(WithPolicy(vehicle.PolicyCrossroads), WithOmitRTDBuffer())
	if err == nil {
		t.Fatal("NewConfig accepted the crossroads RTD ablation")
	}
	_, err = NewConfig(WithDESTrace())
	if err == nil {
		t.Fatal("NewConfig accepted TraceDES without a recorder")
	}
}

// TestNewConfigRunEquivalence proves a NewConfig-built run is bit-identical
// to a struct-literal run with the same knobs.
func TestNewConfigRunEquivalence(t *testing.T) {
	arrivals, err := traffic.ScaleScenario(1, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := NewConfig(WithPolicy(vehicle.PolicyCrossroads), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(cfg, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(Config{Policy: vehicle.PolicyCrossroads, Seed: 7}, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	// SchedulerWall is measured wall-clock time; everything else must be
	// bit-identical.
	got.Summary.SchedulerWall = 0
	want.Summary.SchedulerWall = 0
	for i := range got.PerNode {
		got.PerNode[i].SchedulerWall = 0
		want.PerNode[i].SchedulerWall = 0
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("NewConfig run diverges from struct-literal run:\n got %+v\nwant %+v", got.Summary, want.Summary)
	}
}
