package sim

import (
	"math"
	"sort"
	"sync/atomic"

	"crossroads/internal/des"
	"crossroads/internal/im"
	"crossroads/internal/metrics"
	"crossroads/internal/network"
	"crossroads/internal/trace"
	"crossroads/internal/traffic"
)

// pworld orchestrates a run on the conservative node-sharded parallel
// kernel (DESIGN.md §13). Each topology node becomes one shard: a serial
// `world` scoped to that node, with its own event queue, V2I network, IM
// server, RNG streams, and trace recorder, executing concurrently inside
// the kernel's lookahead windows. Everything that crosses a shard line —
// vehicle hops and V2I traffic chasing a hopped vehicle — goes through the
// kernel's barrier exchange, so each shard's goroutine only ever touches
// its own state and the run is deterministic at any worker count.
//
// The lookahead is SegmentLen/maxFleetSpeed: no vehicle can traverse an
// inter-node segment faster than at its top speed, so every hop lands at
// least one lookahead after it departs. V2I messages carry no such
// guarantee; the rare cross-shard ones (exit retransmissions to a previous
// node, which arise only under fault injection) are clamped to the barrier
// closing their window — a documented divergence from the serial kernel,
// still fully deterministic.
type pworld struct {
	cfg      Config
	arrivals []traffic.Arrival

	par    *des.Parallel
	shards []*world
	// imShard maps each IM endpoint name to its owning shard, for routing
	// V2I traffic sent to a remote node's IM. Read-only after construction.
	imShard map[string]int
	// jcol is the journey-level collector. Its per-vehicle records are
	// pre-created for every arrival (in arrival order) before the shards
	// start, so runtime lookups are pure map reads and each record is only
	// ever written by the shard currently carrying its vehicle.
	jcol *metrics.Collector
	// recs holds the per-shard trace recorders (nil when cfg.Trace is nil);
	// they are merged deterministically into cfg.Trace after the run.
	recs []*trace.Recorder

	// remaining counts journeys not yet absorbed. Shards decrement it (from
	// their own goroutines, hence atomic) as vehicles leave the roadway; it
	// is *read* only by the kernel's barrier hook, single-threaded between
	// windows, so the transition to zero is observed at a deterministic
	// barrier regardless of worker count.
	remaining atomic.Int64
	// fleetDone is set by the barrier hook once remaining hits zero. The
	// per-shard physics tickers poll it and stop, letting the shard queues
	// drain and the run end as soon as trailing network events finish —
	// the parallel analogue of the serial kernel's conditional ticker.
	// Written between windows, read inside them: the window goroutine
	// spawn/join edges order those accesses.
	fleetDone bool
}

// shardRouter chases V2I messages whose destination endpoint is not
// registered on shard idx: remote IMs resolve through the static endpoint
// map, hopped-away vehicles through the shard's departed map. Accepted
// messages travel through the kernel's barrier exchange and are delivered
// on the destination shard's network at max(send time, barrier).
type shardRouter struct {
	pw  *pworld
	idx int
}

func (r *shardRouter) Route(msg network.Message, detail string) bool {
	dst, ok := r.pw.imShard[msg.To]
	if !ok {
		dst, ok = r.pw.shards[r.idx].departed[msg.To]
		if !ok {
			return false // never lived here: undeliverable on this shard
		}
	}
	if dst == r.idx {
		return false
	}
	t := r.pw.shards[r.idx].sim.Now()
	pw := r.pw
	pw.par.ScheduleAt(r.idx, dst, t, func() {
		pw.shards[dst].net.DeliverRouted(msg, detail)
	})
	return true
}

// hop moves a vehicle from src's shard to the next node on its route. It
// runs on src's goroutine, inside beginTransit: the agent detaches from
// src's kernel and network here (cancelling every timer handle into src's
// event pool, which must never be touched cross-shard), and the arrival is
// handed to the kernel's barrier exchange. eta >= lookahead by
// construction, so the arrival executes at its exact serial-kernel time.
func (pw *pworld) hop(src *world, v *vehState) {
	dst := int(v.legs[v.leg+1].Node)
	v.agent.PrepareHop()
	src.departed[v.agent.Endpoint()] = dst
	pw.par.ScheduleAt(src.shardIdx, dst, v.legArrive, func() {
		pw.shards[dst].enterLeg(v)
	})
}

// newPWorld builds the sharded world. The caller (Run) has already
// established that the topology is multi-node with a positive segment
// length.
func newPWorld(s *setup) (*pworld, error) {
	numNodes := s.cfg.Topology.NumNodes()
	// The conservative lookahead: a vehicle at top speed still needs
	// SegmentLen/cruise seconds to cross between nodes, so every hop
	// scheduled at departure+eta is at least one lookahead in the future.
	lookahead := s.cfg.Topology.SegmentLen() / s.cruise
	if s.coord != nil {
		// IM↔IM digests ride the same barrier-exchange outboxes as every
		// other cross-shard message (shardRouter resolves remote IM
		// endpoints through imShard). The effective period is raised to at
		// least the lookahead window: a digest can then be clamped at most
		// one barrier forward, and the conservative synchronization regime
		// is untouched — shards never need to see each other inside a
		// window.
		s.coord.Period = math.Max(s.coord.Period, lookahead)
	}

	pw := &pworld{
		cfg:      s.cfg,
		arrivals: s.arrivals,
		par:      des.NewParallel(numNodes, lookahead, s.cfg.KernelWorkers),
		shards:   make([]*world, numNodes),
		imShard:  make(map[string]int, numNodes),
		jcol:     metrics.NewCollector(),
		recs:     make([]*trace.Recorder, numNodes),
	}
	for k := 0; k < numNodes; k++ {
		pw.imShard[im.NodeEndpoint(k)] = k
	}
	// Journey records exist for every arrival, in arrival order, before any
	// shard runs: the collector map is then never mutated concurrently, and
	// Records()/Summarize() order is independent of shard interleaving.
	for _, a := range s.arrivals {
		pw.jcol.Vehicle(a.ID)
	}

	// Every shard draws node k's streams of the layout. The IM stream is
	// exactly the serial kernel's per-node stream, so both kernels drive
	// identical scheduler decisions; the vehicle-facing streams are
	// shard-local by necessity (vehicles draw in shard arrival order),
	// which is why the exact-equivalence regime disables clock error and
	// noise.
	for k := 0; k < numNodes; k++ {
		w, err := newWorld(s, pw.par.Shard(k), pw, k)
		if err != nil {
			return nil, err
		}
		w.departed = make(map[string]int)
		w.net.SetRouter(&shardRouter{pw: pw, idx: k})
		pw.shards[k] = w
	}
	return pw, nil
}

func (pw *pworld) run() (Result, error) {
	for _, a := range pw.arrivals {
		sh := pw.shards[a.Node]
		sh.sim.At(a.Time, func() { sh.spawn(a) })
	}
	dt := pw.cfg.PhysicsDt
	// Every shard runs its physics ticker on the same grid as the serial
	// kernel's single ticker. A shard cannot know on its own whether the
	// *fleet* is done (a hop could still be inbound), so the tickers run
	// until the barrier hook — single-threaded between windows, hence
	// deterministic at any worker count — observes the journey count hit
	// zero; then they stop, the queues drain trailing network events, and
	// RunUntil ends without grinding empty windows out to the horizon.
	pw.remaining.Store(int64(len(pw.arrivals)))
	pw.par.SetBarrierHook(func() {
		if pw.remaining.Load() == 0 {
			pw.fleetDone = true
		}
	})
	for _, sh := range pw.shards {
		sh.sim.Ticker(pw.arrivals[0].Time, dt, func() bool {
			sh.step(dt)
			return !pw.fleetDone
		})
	}
	pw.par.RunUntil(runHorizon(&pw.cfg, pw.arrivals))

	var st network.Stats
	nodes := make([]worldNode, len(pw.shards))
	for k, sh := range pw.shards {
		st.Add(sh.net.TotalStats())
		nodes[k] = sh.nodes[k]
	}
	res := result(KernelParallel, pw.jcol, nodes, st)
	for _, sh := range pw.shards {
		res.countUnfinished(sh.born)
	}
	pw.mergeTraces()
	return res, nil
}

// mergeTraces folds the per-shard recorders into the caller's recorder in
// deterministic order: ascending time, ties broken by shard index, with
// each shard's own emission order preserved (stable sort). The result is
// identical at any worker count.
func (pw *pworld) mergeTraces() {
	if pw.cfg.Trace == nil {
		return
	}
	type tagged struct {
		ev    trace.Event
		shard int
	}
	var all []tagged
	for k, rec := range pw.recs {
		if rec == nil {
			continue
		}
		for _, ev := range rec.Events() {
			all = append(all, tagged{ev: ev, shard: k})
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].ev.T != all[j].ev.T {
			return all[i].ev.T < all[j].ev.T
		}
		return all[i].shard < all[j].shard
	})
	// The caller's recorder must not restamp merged events: its injected
	// clock (if any) reflects no meaningful "now" after the run.
	pw.cfg.Trace.Now = nil
	for _, t := range all {
		pw.cfg.Trace.Emit(t.ev)
	}
}
