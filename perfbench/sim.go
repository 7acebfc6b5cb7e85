package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"crossroads/internal/im"
	"crossroads/internal/intersection"
	"crossroads/internal/kinematics"
	"crossroads/internal/metrics"
	"crossroads/internal/safety"
	"crossroads/internal/sim"
	"crossroads/internal/sweep"
	"crossroads/internal/topology"
	"crossroads/internal/trace"
	"crossroads/internal/traffic"
	"crossroads/internal/vehicle"
)

// simVehicles is the routed fleet of every simulated cell (paper: 160).
const simVehicles = 160

// simSpec is a simulated workload: either a single-intersection flow
// sweep (rates × policies, through sweep.Run) or one routed run over a
// grid topology (through sweep.RunTopology).
type simSpec struct {
	name     string
	policies []vehicle.Policy
	scale    bool
	// rates makes the workload a sweep over a single intersection.
	rates []float64
	// gridN and gridRate make it a gridN×gridN topology run instead.
	gridN    int
	gridRate float64
	segLen   float64
	// seeds is how many independent inputs one pass runs: the run's seed
	// and seeds-1 more drawn from it. Workloads whose outcome swings with
	// the seed run several, so one run's figures are a steady average.
	seeds int
}

// flowSweep is Fig. 7.2: the experiment this repository's users wait on.
// Its time goes to the IM and the collision oracle.
var flowSweep = simSpec{
	name:     "flow-sweep",
	policies: []vehicle.Policy{vehicle.PolicyVTIM, vehicle.PolicyAIM, vehicle.PolicyCrossroads},
	rates:    sweep.PaperRates(),
	// The mean wait moves by about a tenth from seed to seed; four seeds
	// halve that. The first is the run's seed, so seed 42 still shows the
	// known rate-0.40 collision.
	seeds: 4,
}

// policySaturated runs the four extension policies at saturation; dot
// dominates it, so a dot change shows here and not on flow-sweep.
var policySaturated = simSpec{
	name:     "policy-saturated",
	policies: []vehicle.Policy{vehicle.PolicyBatch, vehicle.PolicyDOT, vehicle.PolicySignalized, vehicle.PolicyAuction},
	rates:    []float64{1.0},
	// dot does not always collapse at saturation (about one seed in
	// eight it finishes in a tenth of the time), so one seed alone is not
	// a steady figure; four are not either, which is why BENCHMARK.json
	// leaves this workload out.
	seeds: 4,
}

// gridWorkload spreads light traffic over 100 near-empty IM shards, so its
// time goes to the event kernel, the network and the vehicle agents
// rather than to the IM: the inverse of flow-sweep.
var gridWorkload = simSpec{
	name:     "grid",
	policies: []vehicle.Policy{vehicle.PolicyCrossroads},
	scale:    true,
	gridN:    10,
	gridRate: 0.3,
	segLen:   0.8,
	// 160 light-traffic journeys give a mean wait that moves by half from
	// seed to seed; 25 inputs average that out.
	seeds: 25,
}

func (s simSpec) workload() workload {
	return workload{setup: s.setup, measure: s.measure, traced: s.traced}
}

func (s simSpec) geometry() (intersection.Config, kinematics.Params, safety.Spec) {
	if s.scale {
		return intersection.ScaleModelConfig(), kinematics.ScaleModelParams(), safety.TestbedSpec()
	}
	return intersection.FullScaleConfig(), kinematics.FullScaleParams(), safety.FullScaleSpec()
}

func (s simSpec) topology() (*topology.Topology, error) {
	t, err := topology.Grid(s.gridN, s.gridN)
	if err != nil {
		return nil, err
	}
	return t.WithSegmentLen(s.segLen), nil
}

// setup is the first construction of every scheduler the workload uses,
// with the options the simulator passes (the reference footprint is the
// stock vehicle every arrival uses). A second construction right after
// each first one splits memo fills from per-instance cost.
func (s simSpec) setup(o options) (setupSample, error) {
	icfg, params, spec := s.geometry()
	start := time.Now()
	x, err := intersection.New(icfg)
	if err != nil {
		return setupSample{}, err
	}
	opts := im.PolicyOptions{
		Spec: spec, Cost: im.TestbedCostModel(),
		RefLength: params.Length, RefWidth: params.Width,
	}
	cold := make([]time.Duration, len(s.policies))
	for i, p := range s.policies {
		t0 := time.Now()
		if _, err := im.NewScheduler(p.String(), x, opts, rand.New(rand.NewSource(o.seed+2))); err != nil {
			return setupSample{}, err
		}
		cold[i] = time.Since(t0)
	}
	out := setupSample{Seconds: elapsedSince(start)}
	for i, p := range s.policies {
		t0 := time.Now()
		if _, err := im.NewScheduler(p.String(), x, opts, rand.New(rand.NewSource(o.seed+2))); err != nil {
			return setupSample{}, err
		}
		warm := time.Since(t0)
		// A first construction at least a millisecond and twice slower
		// than the second filled a memo (the conflict table).
		if cold[i]-warm > time.Millisecond && cold[i] > 2*warm {
			out.TableBuildSeconds += (cold[i] - warm).Seconds()
			out.TablesBuilt++
		}
	}
	return out, nil
}

// cellStat is one simulated cell's outcome in the workload's terms.
type cellStat struct {
	label      string
	vehicles   int
	completed  int
	crossings  int
	meanWait   float64
	collisions int
	bufviols   int
	incomplete int
	messages   int
	bytes      int
	retries    float64 // mean per vehicle
	imCalls    int
}

// failures counts the cell's vehicles that collided, broke the buffer
// contract, or never completed. The simulator reports events, so one
// vehicle can count twice; the count is capped at the fleet.
func (c cellStat) failures() int {
	n := c.collisions + c.bufviols + c.incomplete
	if n > c.vehicles {
		n = c.vehicles
	}
	return n
}

// passOut is one pass over the workload: the program's own results per
// seed (raw, compared across repeats) and the cells derived from them.
type passOut struct {
	raw    []any
	cells  []cellStat
	traces []*trace.Recorder
}

func (s simSpec) sweepConfig(seed int64, rates []float64, pols []vehicle.Policy, rec, des bool) sweep.Config {
	return sweep.Config{
		Rates: rates, NumVehicles: simVehicles, Policies: pols,
		Seed: seed, ScaleModel: s.scale, Workers: 1, TraceFull: rec, TraceDES: des,
	}
}

func (s simSpec) topoConfig(seed int64, pols []vehicle.Policy, rec, des bool) (sweep.TopoConfig, error) {
	topo, err := s.topology()
	if err != nil {
		return sweep.TopoConfig{}, err
	}
	return sweep.TopoConfig{
		Topology: topo, Rate: s.gridRate, NumVehicles: simVehicles,
		Policies: pols, Seed: seed, ScaleModel: s.scale,
		Workers: 1, Kernel: sim.KernelSerial, TraceFull: rec, TraceDES: des,
	}, nil
}

func sweepCells(res sweep.Result, seed int64) []cellStat {
	var out []cellStat
	for _, row := range res.Cells {
		for _, c := range row {
			out = append(out, cellStat{
				label:    fmt.Sprintf("seed=%d/rate=%g/%s", seed, c.Rate, c.Policy),
				vehicles: simVehicles, completed: simVehicles - c.Incomplete,
				crossings: simVehicles - c.Incomplete, meanWait: c.MeanWait,
				collisions: c.Collisions, bufviols: c.BufferViolations, incomplete: c.Incomplete,
				messages: c.Messages, bytes: c.Bytes, retries: c.MeanRetries,
				imCalls: c.SchedulerInvocations,
			})
		}
	}
	return out
}

func topoCells(res sweep.TopoResult, seed int64) []cellStat {
	var out []cellStat
	for _, c := range res.Cells {
		crossings := 0
		for _, n := range c.PerNode {
			crossings += n.Completed
		}
		j := c.Journey
		out = append(out, cellStat{
			label:    fmt.Sprintf("seed=%d/%s/%s", seed, res.Topology, c.Policy),
			vehicles: simVehicles, completed: j.Completed, crossings: crossings,
			meanWait: j.MeanWait, collisions: j.Collisions, bufviols: j.BufferViolations,
			incomplete: c.Incomplete, messages: j.Messages, bytes: j.Bytes,
			retries: j.MeanRetries, imCalls: j.SchedulerInvocations,
		})
	}
	return out
}

// cellRun is one cell of the workload run on its own, fully traced.
type cellRun struct {
	policy vehicle.Policy
	run    func() (passOut, error)
}

// cellRuns lists one seed's cells in pass order. Cells depend only on
// (seed, rate, policy), so each equals its cell in a whole pass.
func (s simSpec) cellRuns(seed int64) []cellRun {
	var out []cellRun
	if s.gridN > 0 {
		for _, p := range s.policies {
			p := p
			out = append(out, cellRun{p, func() (passOut, error) {
				return s.runTopology(seed, []vehicle.Policy{p}, true, true)
			}})
		}
		return out
	}
	for _, r := range s.rates {
		for _, p := range s.policies {
			r, p := r, p
			out = append(out, cellRun{p, func() (passOut, error) {
				return s.runSweep(s.sweepConfig(seed, []float64{r}, []vehicle.Policy{p}, true, true))
			}})
		}
	}
	return out
}

// subSeeds returns the seeds of one pass: the run's own seed first, so
// seed 42 reproduces the command-line experiments, then draws from it.
func (s simSpec) subSeeds(seed int64) []int64 {
	out := []int64{seed}
	rng := rand.New(rand.NewSource(seed))
	for len(out) < s.seeds {
		out = append(out, rng.Int63n(1<<31))
	}
	return out
}

// pass runs the workload once over the given seeds, as its users run it:
// per seed, one serial sweep over every rate and policy, or one topology
// run.
func (s simSpec) pass(seeds []int64, rec bool) (passOut, error) {
	var out passOut
	for _, sd := range seeds {
		var part passOut
		var err error
		if s.gridN > 0 {
			part, err = s.runTopology(sd, s.policies, rec, false)
		} else {
			part, err = s.runSweep(s.sweepConfig(sd, s.rates, s.policies, rec, false))
		}
		if err != nil {
			return passOut{}, err
		}
		out.raw = append(out.raw, part.raw...)
		out.cells = append(out.cells, part.cells...)
		out.traces = append(out.traces, part.traces...)
	}
	return out, nil
}

// cellTails reports a per-cell percentile of xs as the median over cells, the
// way serve reports per-window percentiles; the note names the
// percentile actually taken.
func cellTails(cells [][]float64, want float64) (float64, string) {
	var vals []float64
	n := 0
	for _, xs := range cells {
		if len(xs) == 0 {
			continue
		}
		t := tailOf(xs, want)
		vals = append(vals, t.Value)
		if n == 0 || t.N < n {
			n = t.N
		}
	}
	return median(vals), fmt.Sprintf("median over %d cells of each cell's p%g; fewest samples %d (p%g)",
		len(vals), want, n, reportablePercentile(n, want))
}

func (s simSpec) runSweep(cfg sweep.Config) (passOut, error) {
	res, err := sweep.Run(cfg)
	if err != nil {
		return passOut{}, err
	}
	out := passOut{raw: []any{res.Cells}, cells: sweepCells(res, cfg.Seed)}
	for _, row := range res.Traces {
		out.traces = append(out.traces, row...)
	}
	return out, nil
}

func (s simSpec) runTopology(seed int64, pols []vehicle.Policy, rec, des bool) (passOut, error) {
	cfg, err := s.topoConfig(seed, pols, rec, des)
	if err != nil {
		return passOut{}, err
	}
	res, err := sweep.RunTopology(cfg)
	if err != nil {
		return passOut{}, err
	}
	return passOut{raw: []any{hostTimeFree(res.Cells)}, cells: topoCells(res, seed), traces: res.Traces}, nil
}

// checkCells is the output check every pass gets: every vehicle either
// completed or is counted incomplete.
func checkCells(rep *report, cells []cellStat) {
	for _, c := range cells {
		if c.completed+c.incomplete != c.vehicles {
			rep.problem("%s: %d completed + %d incomplete != %d vehicles",
				c.label, c.completed, c.incomplete, c.vehicles)
		}
	}
}

// measure is the untraced run: cold set-up, then whole passes over the
// workload until the time budget is spent, then the run's own seed once
// more with the event trace on.
func (s simSpec) measure(o options, rep *report) error {
	first, err := s.setup(o)
	if err != nil {
		return err
	}
	setupS, setupN, err := medianSetup(o, s.name, first)
	if err != nil {
		return err
	}

	seeds := s.subSeeds(o.seed)
	var walls, allocs []float64
	var ref passOut
	start := time.Now()
	for i := 0; i == 0 || elapsedSince(start) < o.seconds; i++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		out, err := s.pass(seeds, false)
		wall := elapsedSince(t0)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return err
		}
		walls = append(walls, wall)
		allocs = append(allocs, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
		if i == 0 {
			ref = out
			checkCells(rep, out.cells)
		} else if !reflect.DeepEqual(ref.raw, out.raw) {
			rep.problem("pass %d of seed %d differs from pass 0", i, o.seed)
		}
	}

	// The run's own seed once more with the event trace on, outside the
	// timed section: simulated grant latencies are the same traced or
	// not, and the repeat must reproduce the untraced cells exactly.
	tracedPass, err := s.pass(seeds[:1], true)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(ref.raw[0], tracedPass.raw[0]) {
		rep.problem("traced repeat of seed %d differs from the untraced pass", o.seed)
	}
	var lat [][]float64
	for _, rec := range tracedPass.traces {
		lat = append(lat, grantLatencies(rec.Events()))
	}

	var crossings, completed, calls, attempted, failed int
	var waitSum float64
	for _, c := range ref.cells {
		crossings += c.crossings
		completed += c.completed
		calls += c.imCalls
		waitSum += c.meanWait * float64(c.completed)
		attempted += c.vehicles
		failed += c.failures()
	}
	if crossings == 0 || completed == 0 {
		return fmt.Errorf("%s: no vehicle completed", s.name)
	}
	wall := median(walls)
	rep.attempted, rep.failed = attempted, failed
	rep.set("setup_s", setupS, fmt.Sprintf("median of %d cold set-ups", setupN))
	rep.set("wall_s", wall, fmt.Sprintf("median of %d passes", len(walls)))
	rep.set("ns_per_crossing", wall*1e9/float64(crossings), fmt.Sprintf("%d vehicle-crossings per pass", crossings))
	rep.set("alloc_mb", median(allocs), "")
	rep.set("mean_wait_s", waitSum/float64(completed), "simulated")
	rep.set("grants_per_s", float64(calls)/wall, fmt.Sprintf("%d IM replies per pass", calls))
	p50, note50 := cellTails(lat, 50)
	p99, note99 := cellTails(lat, 99)
	rep.set("grant_p50_ms", p50*1e3, "simulated; "+note50)
	rep.set("grant_p99_ms", p99*1e3, "simulated; "+note99)
	return nil
}

// grantLatencies pairs each vehicle's request with the next IM reply
// delivered to that vehicle and returns the simulated delays (s): the
// round trip a vehicle waits before it knows its execution time.
func grantLatencies(events []trace.Event) []float64 {
	pending := map[string]float64{}
	var out []float64
	for _, ev := range events {
		switch {
		case ev.Kind == trace.KindMsgSend && ev.MsgKind == "request":
			if _, waiting := pending[ev.From]; !waiting {
				pending[ev.From] = ev.T
			}
		case ev.Kind == trace.KindMsgDeliver && (ev.MsgKind == "response" || ev.MsgKind == "accept" || ev.MsgKind == "reject"):
			if t0, waiting := pending[ev.To]; waiting {
				out = append(out, ev.T-t0)
				delete(pending, ev.To)
			}
		}
	}
	return out
}

// layerCounts accumulates the per-layer view of traced cells.
type layerCounts struct {
	decideNs     map[string]int64
	decideUs     []float64
	decideCalls  int
	grants       int
	queueHW      int
	desEvents    int
	handlerNs    int64
	kernelSelfNs int64
}

// absorb folds one traced cell into the counts; cellWall is the host time
// of the single-cell run that produced it.
func (l *layerCounts) absorb(rec *trace.Recorder, cellWall time.Duration, policy string) {
	var handler int64
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case trace.KindDESEvent:
			l.desEvents++
			handler += ev.WallNs
		case trace.KindIMGrant, trace.KindIMStop, trace.KindIMReject:
			l.decideCalls++
			l.decideNs[policy] += ev.WallNs
			l.decideUs = append(l.decideUs, float64(ev.WallNs)/1e3)
			if ev.Kind == trace.KindIMGrant {
				l.grants++
			}
		}
	}
	l.handlerNs += handler
	l.kernelSelfNs += cellWall.Nanoseconds() - handler
	if hw := rec.Summary().IMQueueHighWater; hw > l.queueHW {
		l.queueHW = hw
	}
}

// traceHash is a digest of a canonicalized event stream, so two traced
// repeats can be compared without holding both in memory.
func traceHash(events []trace.Event) string {
	h := newEventHasher()
	for _, ev := range trace.CanonicalizeWall(events) {
		h.add(ev)
	}
	return h.sum()
}

// traced is the per-layer run: one untraced pass for the tracing-overhead
// base, then every cell on its own with the full event trace and the
// kernel firehose on, twice, so repeats are compared trace for trace.
func (s simSpec) traced(o options, rep *report) error {
	first, err := s.setup(o)
	if err != nil {
		return err
	}
	t0 := time.Now()
	base, err := s.pass(s.subSeeds(o.seed), false)
	if err != nil {
		return err
	}
	untracedWall := time.Since(t0)
	checkCells(rep, base.cells)

	spans := newSpanLog()
	l := layerCounts{decideNs: map[string]int64{}}
	var tracedWall time.Duration
	i := 0
	for k, sd := range s.subSeeds(o.seed) {
		for _, c := range s.cellRuns(sd) {
			// The first seed's cells run twice, and their traces must
			// match.
			runs := 1
			if k == 0 {
				runs = 2
			}
			var hashes []string
			for n := 0; n < runs; n++ {
				c0 := time.Now()
				out, err := c.run()
				cw := time.Since(c0)
				if err != nil {
					return err
				}
				if len(out.cells) != 1 || len(out.traces) != 1 {
					return fmt.Errorf("single-cell run gave %d cells", len(out.cells))
				}
				if out.cells[0] != base.cells[i] {
					rep.problem("%s: traced cell differs from the untraced pass", base.cells[i].label)
				}
				if n == 0 {
					tracedWall += cw
					spans.add(0, "cell "+out.cells[0].label, 0, interval{c0, c0.Add(cw)})
					l.absorb(out.traces[0], cw, c.policy.String())
				}
				hashes = append(hashes, traceHash(out.traces[0].Events()))
			}
			if len(hashes) == 2 && hashes[0] != hashes[1] {
				rep.problem("%s: repeated traces differ after CanonicalizeWall", base.cells[i].label)
			}
			i++
		}
	}
	if err := spans.write(filepath.Join(o.outDir, fmt.Sprintf("spans-%s-%d.jsonl", s.name, o.seed))); err != nil {
		return err
	}

	var speedup float64
	if s.gridN > 0 {
		if speedup, err = s.parallelSpeedup(o.seed); err != nil {
			return err
		}
	}

	var attempted, failed, coll, bv, inc, msgs, bytes int
	var retries, vehicles float64
	for _, c := range base.cells {
		attempted += c.vehicles
		failed += c.failures()
		coll += c.collisions
		bv += c.bufviols
		inc += c.incomplete
		msgs += c.messages
		bytes += c.bytes
		retries += c.retries * float64(c.vehicles)
		vehicles += float64(c.vehicles)
	}
	rep.attempted, rep.failed = attempted, failed
	var decideNs int64
	for _, ns := range l.decideNs {
		decideNs += ns
	}
	rep.set("fail_share", float64(failed)/float64(attempted), fmt.Sprintf("%d of %d vehicles", failed, attempted))
	rep.set("intersection.table_build_s", first.TableBuildSeconds, "")
	rep.set("intersection.tables_built", float64(first.TablesBuilt), "")
	rep.set("im.decide_s", float64(decideNs)/1e9, "")
	for _, p := range vehicle.AllPolicies() {
		rep.set("im.decide_s."+p.String(), float64(l.decideNs[p.String()])/1e9, "")
	}
	rep.set("im.decide_calls", float64(l.decideCalls), "")
	rep.setTail("im.decide_us_p99", tailOf(l.decideUs, 99), 1)
	rep.set("im.grant_yield", ratio(float64(l.grants), float64(l.decideCalls)), "grants per IM call")
	rep.set("im.queue_hw", float64(l.queueHW), "")
	rep.set("des.events", float64(l.desEvents), "")
	rep.set("des.handler_s", float64(l.handlerNs)/1e9, "")
	rep.set("des.kernel_self_s", float64(l.kernelSelfNs)/1e9, "cell time minus handler time")
	rep.set("des.parallel_speedup", speedup, parallelNote(s))
	rep.set("sim.world_s", float64(l.handlerNs-decideNs)/1e9, "handler time minus IM decide time")
	rep.set("sim.collisions", float64(coll), "")
	rep.set("sim.bufviols", float64(bv), "")
	rep.set("sim.incomplete", float64(inc), "")
	rep.set("network.msgs", float64(msgs), "")
	rep.set("network.bytes", float64(bytes), "")
	rep.set("vehicle.retries_per_vehicle", ratio(retries, vehicles), "")
	rep.set("trace.overhead", ratio(tracedWall.Seconds(), untracedWall.Seconds()), "traced ÷ untraced wall time")
	rep.fillIdle()
	return nil
}

func parallelNote(s simSpec) string {
	if s.gridN > 0 {
		return "serial ÷ parallel kernel at 2 workers"
	}
	return "measured on grid only"
}

// parallelSpeedup times the serial and the parallel event kernel (2
// workers) on identical inputs, median of three runs each.
func (s simSpec) parallelSpeedup(seed int64) (float64, error) {
	topo, err := s.topology()
	if err != nil {
		return 0, err
	}
	icfg, params, spec := s.geometry()
	arrivals, err := traffic.PoissonRoutes(traffic.PoissonConfig{
		Rate: s.gridRate, NumVehicles: simVehicles, LanesPerRoad: 1,
		Mix: traffic.DefaultTurnMix(), Params: params,
	}, topo, 0, rand.New(rand.NewSource(seed)))
	if err != nil {
		return 0, err
	}
	timeKernel := func(extra ...sim.Option) (float64, error) {
		cfg, err := sim.NewConfig(append([]sim.Option{
			sim.WithTopology(topo), sim.WithPolicy(s.policies[0]), sim.WithSeed(seed),
			sim.WithIntersection(icfg), sim.WithSpec(spec),
		}, extra...)...)
		if err != nil {
			return 0, err
		}
		var xs []float64
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			if _, err := sim.Run(cfg, arrivals); err != nil {
				return 0, err
			}
			xs = append(xs, elapsedSince(t0))
		}
		return median(xs), nil
	}
	serial, err := timeKernel(sim.WithKernel(sim.KernelSerial))
	if err != nil {
		return 0, err
	}
	par, err := timeKernel(sim.WithKernel(sim.KernelParallel), sim.WithKernelWorkers(2), sim.WithKernelStrict())
	if err != nil {
		return 0, err
	}
	return serial / par, nil
}

func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(a/b) {
		return 0
	}
	return a / b
}

// hostTimeFree copies topology cells with the scheduler's host-time
// counter zeroed, the one field that differs between repeats of a seed.
func hostTimeFree(cells []sweep.TopoCell) []sweep.TopoCell {
	out := make([]sweep.TopoCell, len(cells))
	for i, c := range cells {
		c.Journey.SchedulerWall = 0
		c.PerNode = append([]metrics.Summary(nil), c.PerNode...)
		for k := range c.PerNode {
			c.PerNode[k].SchedulerWall = 0
		}
		out[i] = c
	}
	return out
}
