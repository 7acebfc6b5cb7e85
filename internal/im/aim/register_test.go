package aim

import (
	"math/rand"
	"strings"
	"testing"

	"crossroads/internal/im"
	"crossroads/internal/intersection"
	"crossroads/internal/safety"
)

// TestAIMParams pins "aim.grid" and "aim.step" as AIM's tuning path: the
// registry factory must hand them to the scheduler, and a lawless value or
// an unknown knob must fail construction with an error naming the knob.
func TestAIMParams(t *testing.T) {
	x, err := intersection.New(intersection.ScaleModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	build := func(params map[string]string) (*Scheduler, error) {
		opts := im.PolicyOptions{Spec: safety.TestbedSpec(), Cost: im.TestbedCostModel(), Params: params}
		s, err := im.NewScheduler(PolicyName, x, opts, rand.New(rand.NewSource(1)))
		if err != nil {
			return nil, err
		}
		return s.(*Scheduler), nil
	}

	t.Run("defaults", func(t *testing.T) {
		s, err := build(nil)
		if err != nil {
			t.Fatal(err)
		}
		def := DefaultConfig()
		if s.grid.N() != def.GridN || s.cfg.TimeStep != def.TimeStep {
			t.Errorf("grid %d step %v, want defaults %d %v", s.grid.N(), s.cfg.TimeStep, def.GridN, def.TimeStep)
		}
	})
	t.Run("tuned", func(t *testing.T) {
		s, err := build(map[string]string{"aim.grid": "16", "aim.step": "0.1"})
		if err != nil {
			t.Fatal(err)
		}
		if s.grid.N() != 16 || s.cfg.TimeStep != 0.1 {
			t.Errorf("grid %d step %v, want 16 0.1", s.grid.N(), s.cfg.TimeStep)
		}
	})
	for _, tc := range []struct {
		name   string
		params map[string]string
		knob   string // substring the error must carry
	}{
		{"zero_grid", map[string]string{"aim.grid": "0"}, "grid"},
		{"negative_grid", map[string]string{"aim.grid": "-4"}, "grid"},
		{"negative_step", map[string]string{"aim.step": "-0.1"}, "step"},
		{"malformed_grid", map[string]string{"aim.grid": "fine"}, "aim.grid"},
		{"unknown_knob", map[string]string{"aim.bogus": "1"}, "aim.bogus"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := build(tc.params)
			if err == nil {
				t.Fatalf("%v accepted", tc.params)
			}
			if !strings.Contains(strings.ToLower(err.Error()), tc.knob) {
				t.Errorf("error %q does not name %q", err, tc.knob)
			}
		})
	}
}
