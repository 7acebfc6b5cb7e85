package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"crossroads/internal/trace"
)

func TestReportablePercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		p    float64
	}{
		{1000, 99, 99}, // rank 990: exactly ten beyond
		{999, 99, 95},  // rank 990 leaves nine, so fall back
		{200, 99, 95},  // rank 190: ten beyond
		{10000, 99.9, 99.9},
		{10000, 99, 99}, // never above the percentile asked for
		{20, 99, 50},    // the median has ten beyond
		{5, 99, 50},     // the median is always reported
	}
	for _, c := range cases {
		if got := reportablePercentile(c.n, c.want); got != c.p {
			t.Errorf("reportablePercentile(%d, %g) = %g, want %g", c.n, c.want, got, c.p)
		}
	}
}

func TestTailOf(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // reversed: tailOf must sort
	}
	got := tailOf(xs, 99)
	if got != (tail{P: 99, Value: 990, N: 1000}) {
		t.Errorf("tailOf = %+v, want p99 = 990 of 1000", got)
	}
	if got := tailOf(xs[:999], 99); got.P != 95 || got.N != 999 {
		t.Errorf("tailOf(999 samples) = %+v, want p95", got)
	}
}

func TestSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	iv := func(a, b int) interval { return interval{at(a), at(b)} }
	span := iv(0, 100)
	cases := []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"no children", nil, 100 * time.Millisecond},
		{"disjoint", []interval{iv(10, 20), iv(40, 45)}, 85 * time.Millisecond},
		{"overlapping children count once", []interval{iv(10, 20), iv(15, 30)}, 80 * time.Millisecond},
		{"children clipped to the span", []interval{iv(-5, 5), iv(90, 120)}, 85 * time.Millisecond},
		{"child outside the span", []interval{iv(150, 160)}, 100 * time.Millisecond},
		{"fully covered", []interval{iv(0, 60), iv(50, 100)}, 0},
		{"unsorted", []interval{iv(70, 80), iv(10, 20), iv(75, 90)}, 70 * time.Millisecond},
	}
	for _, c := range cases {
		if got := selfTime(span, c.children); got != c.want {
			t.Errorf("%s: selfTime = %v, want %v", c.name, got, c.want)
		}
	}
}

// fakeClock is a clock that moves only when the code under test sleeps or
// a test step stalls it.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time          { return c.now }
func (c *fakeClock) Sleep(d time.Duration)   { c.now = c.now.Add(d) }
func (c *fakeClock) stall(d time.Duration)   { c.now = c.now.Add(d) }
func (c *fakeClock) since(t time.Time) int64 { return c.now.Sub(t).Milliseconds() }

// TestOpenLoopTimesFromDueAfterStall stalls the sender for 45 ms while it
// sends batch 2. The batches that fell due meanwhile go out at once, late,
// and a reply that comes back instantly is still charged the stall: the
// latency runs from the due time, not from the send.
func TestOpenLoopTimesFromDueAfterStall(t *testing.T) {
	clock := &fakeClock{now: time.Unix(100, 0)}
	loop := openLoop{
		start: clock.now, period: 10 * time.Millisecond, batches: 8,
		now: clock.Now, sleep: clock.Sleep,
	}
	var fromDue, fromSend []int64
	lags, err := loop.run(func(k int, due time.Time) error {
		sentAt := clock.Now()
		if k == 2 {
			clock.stall(45 * time.Millisecond)
		}
		// The reply arrives the moment the send returns.
		fromDue = append(fromDue, clock.since(due))
		fromSend = append(fromSend, clock.since(sentAt))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Batch 2 is due at 20 ms and the clock reaches 65 ms sending it, so
	// batches 3..6 (due 30..60 ms) go out at 65 ms and batch 7 (due 70 ms)
	// is on time again.
	wantLags := []time.Duration{0, 0, 0, 35, 25, 15, 5, 0}
	for i := range wantLags {
		wantLags[i] *= time.Millisecond
	}
	if !reflect.DeepEqual(lags, wantLags) {
		t.Errorf("lags = %v, want %v", lags, wantLags)
	}
	if want := []int64{0, 0, 45, 35, 25, 15, 5, 0}; !reflect.DeepEqual(fromDue, want) {
		t.Errorf("latency from due = %v ms, want %v", fromDue, want)
	}
	if want := []int64{0, 0, 45, 0, 0, 0, 0, 0}; !reflect.DeepEqual(fromSend, want) {
		t.Errorf("latency from send = %v ms, want %v (the stall hides in it)", fromSend, want)
	}
}

func TestGrantLatencies(t *testing.T) {
	events := []trace.Event{
		{Kind: trace.KindMsgSend, T: 1.00, MsgKind: "request", From: "veh-1", To: "im"},
		{Kind: trace.KindMsgSend, T: 1.01, MsgKind: "request", From: "veh-2", To: "im"},
		// A retransmission before the reply keeps the first send time.
		{Kind: trace.KindMsgSend, T: 1.02, MsgKind: "request", From: "veh-1", To: "im"},
		{Kind: trace.KindMsgDeliver, T: 1.05, MsgKind: "response", From: "im", To: "veh-1"},
		{Kind: trace.KindMsgDeliver, T: 1.06, MsgKind: "reject", From: "im", To: "veh-2"},
		// A reply with no request outstanding (a revision) is not a grant
		// latency.
		{Kind: trace.KindMsgDeliver, T: 1.07, MsgKind: "response", From: "im", To: "veh-1"},
		{Kind: trace.KindMsgDeliver, T: 1.08, MsgKind: "ack", From: "im", To: "veh-2"},
	}
	got := grantLatencies(events)
	want := []float64{0.05, 0.05}
	if len(got) != len(want) {
		t.Fatalf("grantLatencies = %v, want %v", got, want)
	}
	for i := range want {
		if d := got[i] - want[i]; d > 1e-12 || d < -1e-12 {
			t.Errorf("latency %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, which the
// benchmark's runner reads, in step with the names and units this program
// reports.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q: program has %v", w.Name, workloadNames())
		}
	}
	check := func(table string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", table, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), program has %s (%s)",
					table, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
