package main

import (
	"strings"
	"testing"
	"time"
)

// TestResultsDeadlineCut pins the open-loop accounting fix: a grant whose
// reply lands after the run deadline is still counted as a grant, but its
// latency — which would measure the drain grace period, not steady-state
// service — must not enter the histogram. It is reported as late instead.
func TestResultsDeadlineCut(t *testing.T) {
	var r results
	dl := time.Now()
	r.setDeadline(dl)

	r.observeAt(0.010, dl.Add(-time.Second))
	r.observeAt(0.020, dl.Add(-time.Millisecond))
	r.observeAt(5.0, dl.Add(time.Millisecond)) // arrived late: huge latency
	r.observeAt(7.0, dl.Add(2*time.Second))

	if r.grants != 4 {
		t.Fatalf("grants = %d, want 4 (late replies are still grants)", r.grants)
	}
	if r.late != 2 {
		t.Fatalf("late = %d, want 2", r.late)
	}
	if len(r.samples) != 2 {
		t.Fatalf("samples = %d, want 2 (late replies must not be sampled)", len(r.samples))
	}
	_, _, p99, max, ok := r.percentiles()
	if !ok {
		t.Fatal("percentiles() not ok with 2 samples")
	}
	if p99 >= 1 || max >= 1 {
		t.Fatalf("p99=%v max=%v skewed by a late reply's latency", p99, max)
	}
}

// TestResultsNoDeadline keeps the zero-value behavior: without a deadline
// every grant is sampled.
func TestResultsNoDeadline(t *testing.T) {
	var r results
	r.observeAt(0.010, time.Now().Add(time.Hour))
	if r.grants != 1 || r.late != 0 || len(r.samples) != 1 {
		t.Fatalf("grants=%d late=%d samples=%d, want 1/0/1", r.grants, r.late, len(r.samples))
	}
}

// TestResultsReportShowsLate checks the report surfaces the late counter
// separately from the sampled percentiles.
func TestResultsReportShowsLate(t *testing.T) {
	var r results
	dl := time.Now()
	r.setDeadline(dl)
	r.observeAt(0.010, dl.Add(-time.Second))
	r.observeAt(9.0, dl.Add(time.Second))

	var sb strings.Builder
	r.report(&sb, 10*time.Second)
	out := sb.String()
	if !strings.Contains(out, "late_replies=1") {
		t.Fatalf("report does not name the late reply:\n%s", out)
	}
	if strings.Contains(out, "9000.000ms") {
		t.Fatalf("report's percentiles include the late reply:\n%s", out)
	}
}

// TestResultsReportLateCut checks the deadline cut carries through to the
// reported numbers: ten on-time replies and one late one give 11 grants,
// 10 samples, and a tail the late reply does not reach.
func TestResultsReportLateCut(t *testing.T) {
	var r results
	dl := time.Now()
	r.setDeadline(dl)
	for i := 0; i < 10; i++ {
		r.observeAt(0.002, dl.Add(-time.Second))
	}
	r.observeAt(4.0, dl.Add(time.Second))

	if len(r.samples) != 10 {
		t.Fatalf("samples = %d, want the 10 on-time replies", len(r.samples))
	}
	if _, _, p99, max, _ := r.percentiles(); p99 >= 1 || max >= 1 {
		t.Fatalf("p99=%v max=%v skewed by the late reply", p99, max)
	}
	var sb strings.Builder
	r.report(&sb, 10*time.Second)
	out := sb.String()
	if !strings.Contains(out, "grants=11 ") || !strings.Contains(out, "late_replies=1") {
		t.Fatalf("report does not count 11 grants with 1 late reply:\n%s", out)
	}
	if strings.Contains(out, "4000.000ms") {
		t.Fatalf("report's percentiles include the late reply:\n%s", out)
	}
}
