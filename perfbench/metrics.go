package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"strconv"

	"crossroads/internal/trace"
	"crossroads/internal/vehicle"
)

// metricDef names a metric and its unit. BENCHMARK.json lists the same
// names and units; TestBenchmarkJSONMatchesTables keeps them in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of the untraced run, reported by every
// workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"ns_per_crossing", "ns"},
	{"alloc_mb", "MB"},
	{"mean_wait_s", "s"},
	{"grants_per_s", "1/s"},
	{"grant_p50_ms", "ms"},
	{"grant_p99_ms", "ms"},
}

// perLayer are the metrics of the traced run, one group per layer.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"fail_share", "ratio"},
		{"intersection.table_build_s", "s"},
		{"intersection.tables_built", "count"},
		{"im.decide_s", "s"},
	}
	for _, p := range vehicle.AllPolicies() {
		defs = append(defs, metricDef{"im.decide_s." + p.String(), "s"})
	}
	return append(defs, []metricDef{
		{"im.decide_calls", "count"},
		{"im.decide_us_p99", "us"},
		{"im.grant_yield", "ratio"},
		{"im.queue_hw", "count"},
		{"des.events", "count"},
		{"des.handler_s", "s"},
		{"des.kernel_self_s", "s"},
		{"des.parallel_speedup", "ratio"},
		{"sim.world_s", "s"},
		{"sim.collisions", "count"},
		{"sim.bufviols", "count"},
		{"sim.incomplete", "count"},
		{"network.msgs", "count"},
		{"network.bytes", "bytes"},
		{"vehicle.retries_per_vehicle", "ratio"},
		{"protocol.encode_ns", "ns"},
		{"protocol.decode_ns", "ns"},
		{"protocol.frames", "count"},
		{"server.service_us_p50", "us"},
		{"server.service_us_p99", "us"},
		{"server.frames_in", "count"},
		{"server.frames_out", "count"},
		{"server.shed", "count"},
		{"server.protocol_errors", "count"},
		{"gen.lag_ms_p99", "ms"},
		{"gen.backlog", "count"},
		{"trace.overhead", "ratio"},
	}...)
}()

func metricUnit(name string) (string, bool) {
	for _, tbl := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range tbl {
			if m.name == name {
				return m.unit, true
			}
		}
	}
	return "", false
}

// eventHasher digests trace events field by field.
type eventHasher struct {
	h   hash.Hash64
	buf []byte
}

func newEventHasher() *eventHasher { return &eventHasher{h: fnv.New64a()} }

func (e *eventHasher) add(ev trace.Event) {
	b := e.buf[:0]
	for _, s := range []string{ev.Kind, ev.MsgKind, ev.From, ev.To, ev.Detail, ev.Run} {
		b = append(b, s...)
		b = append(b, 0)
	}
	for _, f := range []float64{ev.T, ev.Latency, ev.Value} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	for _, n := range []int64{ev.WallNs, ev.Vehicle, int64(ev.Node), ev.Other, int64(ev.Seq), int64(ev.Bytes), int64(ev.Queue)} {
		b = binary.LittleEndian.AppendUint64(b, uint64(n))
	}
	e.buf = b
	e.h.Write(b)
}

func (e *eventHasher) sum() string { return strconv.FormatUint(e.h.Sum64(), 16) }
