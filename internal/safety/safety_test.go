package safety

import (
	"math"
	"testing"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestTestbedSpecMatchesPaper(t *testing.T) {
	s := TestbedSpec()
	if err := s.Validate(); err != nil {
		t.Fatalf("testbed spec invalid: %v", err)
	}
	// Paper §3.2: sync buffer 3 mm at 1 ms and 3 m/s.
	if !almostEq(s.SyncBuffer(), 0.003, 1e-12) {
		t.Errorf("SyncBuffer = %v, want 0.003", s.SyncBuffer())
	}
	// Paper §3.2: total Elong = +-78 mm.
	if !almostEq(s.SensingBuffer(), 0.078, 1e-12) {
		t.Errorf("SensingBuffer = %v, want 0.078", s.SensingBuffer())
	}
	// Paper Ch.4: 150 ms at 3 m/s = 0.45 m RTD buffer.
	if !almostEq(s.RTDBuffer(), 0.45, 1e-12) {
		t.Errorf("RTDBuffer = %v, want 0.45", s.RTDBuffer())
	}
}

func TestPolicyBuffers(t *testing.T) {
	s := TestbedSpec()
	vt := s.ForVTIM()
	cr := s.ForCrossroads()
	aim := s.ForAIM()
	if !almostEq(vt.Long, 0.078+0.45, 1e-12) {
		t.Errorf("VT-IM long buffer = %v, want 0.528", vt.Long)
	}
	if !almostEq(cr.Long, 0.078, 1e-12) {
		t.Errorf("Crossroads long buffer = %v, want 0.078", cr.Long)
	}
	if aim.Long != cr.Long {
		t.Errorf("AIM and Crossroads buffers should match: %v vs %v", aim.Long, cr.Long)
	}
	if vt.Long <= cr.Long {
		t.Error("VT-IM buffer must exceed Crossroads buffer")
	}
}

func TestInflatedDims(t *testing.T) {
	b := Buffers{Long: 0.078, Lat: 0.01}
	l, w := b.InflatedDims(0.568, 0.296)
	if !almostEq(l, 0.568+0.156, 1e-12) {
		t.Errorf("planLen = %v", l)
	}
	if !almostEq(w, 0.296+0.02, 1e-12) {
		t.Errorf("planWid = %v", w)
	}
	// Zero buffers are identity.
	l0, w0 := (Buffers{}).InflatedDims(1, 2)
	if l0 != 1 || w0 != 2 {
		t.Errorf("zero buffers changed dims: %v, %v", l0, w0)
	}
}

func TestValidate(t *testing.T) {
	bad := []Spec{
		{SensingError: -1, MaxSpeed: 1},
		{SyncError: -1, MaxSpeed: 1},
		{WorstRTD: -1, MaxSpeed: 1},
		{MaxSpeed: 0},
		{MaxSpeed: 1, LateralError: -0.1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d validated: %+v", i, s)
		}
	}
	good := Spec{MaxSpeed: 3}
	if err := good.Validate(); err != nil {
		t.Errorf("minimal spec rejected: %v", err)
	}
}

func TestBufferScalesWithRTD(t *testing.T) {
	// The ablation benches sweep the RTD buffer; the arithmetic must be
	// linear in WorstRTD.
	s := TestbedSpec()
	s.WorstRTD = 0.3
	if !almostEq(s.RTDBuffer(), 0.9, 1e-12) {
		t.Errorf("RTDBuffer = %v, want 0.9", s.RTDBuffer())
	}
	if !almostEq(s.ForVTIM().Long, 0.078+0.9, 1e-12) {
		t.Errorf("VT-IM buffer = %v", s.ForVTIM().Long)
	}
	// Crossroads is unaffected by RTD.
	if !almostEq(s.ForCrossroads().Long, 0.078, 1e-12) {
		t.Errorf("Crossroads buffer changed with RTD: %v", s.ForCrossroads().Long)
	}
}

func TestLipIsStopLinePlusHalfBody(t *testing.T) {
	s := TestbedSpec()
	// Width/2 + both sensing buffers + 5 cm slack, then half the body.
	if got, want := s.StopLineOffset(0.296), 0.296/2+2*s.SensingBuffer()+0.05; got != want {
		t.Errorf("StopLineOffset = %v, want %v", got, want)
	}
	if got, want := s.Lip(0.568, 0.296), 0.296/2+2*s.SensingBuffer()+0.05+0.568/2; got != want {
		t.Errorf("Lip = %v, want %v", got, want)
	}
}
