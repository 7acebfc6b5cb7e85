// loadgen drives a crossroads-serve instance with realistic request
// streams and reports grant-latency statistics.
//
// Closed-loop mode keeps a fixed number of connections each cycling one
// vehicle at a time (request → grant → exit → ack), so offered load tracks
// service rate — the classic saturation probe. Open-loop mode replays a
// Poisson arrival stream (internal/traffic) against the wall clock
// regardless of how fast the server answers, the way real traffic arrives.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"crossroads/internal/intersection"
	"crossroads/internal/kinematics"
	"crossroads/internal/protocol"
	"crossroads/internal/trace"
	"crossroads/internal/traffic"
)

func main() {
	var (
		addr     = flag.String("addr", "", "server address: host:port, or a Unix socket path (contains '/')")
		mode     = flag.String("mode", "closed", "closed (fixed concurrency) or open (Poisson arrivals)")
		grid     = flag.String("grid", "", "drive routed multi-leg journeys across an RxC sharded server (e.g. 2x2) over protocol v2, open loop; overrides -mode")
		conns    = flag.Int("conns", 4, "number of connections")
		rate     = flag.Float64("rate", 0.5, "open loop: arrivals per second per entry lane")
		duration = flag.Duration("duration", 30*time.Second, "how long to generate load")
		seed     = flag.Int64("seed", 1, "workload RNG seed")
	)
	flag.Parse()
	if *addr == "" {
		fatalf("-addr is required")
	}
	var res results
	var err error
	switch {
	case *grid != "":
		err = runGrid(*addr, *conns, *grid, *rate, *duration, *seed, &res)
	case *mode == "closed":
		err = runClosed(*addr, *conns, *duration, *seed, &res)
	case *mode == "open":
		err = runOpen(*addr, *conns, *rate, *duration, *seed, &res)
	default:
		fatalf("unknown mode %q", *mode)
	}
	if err != nil {
		fatalf("%v", err)
	}
	res.report(os.Stdout, *duration)
	if res.decodeErrs > 0 || res.protoErrs > 0 || res.dropped > 0 {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "loadgen: "+format+"\n", args...)
	os.Exit(1)
}

// dial connects to a TCP address or Unix socket path.
func dial(addr string) (net.Conn, error) {
	if strings.Contains(addr, "/") || strings.HasPrefix(addr, "unix:") {
		return net.Dial("unix", strings.TrimPrefix(addr, "unix:"))
	}
	return net.Dial("tcp", addr)
}

// results aggregates across workers; all fields are guarded by mu.
type results struct {
	mu         sync.Mutex
	grants     int
	rejects    int
	exits      int
	journeys   int // completed multi-leg routes (grid mode)
	decodeErrs int
	protoErrs  int
	dropped    int // connections that died mid-run
	late       int // grants past the run deadline: counted, never sampled
	samples    []float64
	// deadline cuts the latency histogram: a grant observed after it is
	// still a grant, but its latency would measure the drain grace period
	// rather than steady-state service, so it lands in late instead of
	// samples. Zero means no cutoff.
	deadline time.Time
}

func (r *results) setDeadline(t time.Time) {
	r.mu.Lock()
	r.deadline = t
	r.mu.Unlock()
}

// observeAt records a grant whose reply arrived at the given wall time.
func (r *results) observeAt(lat float64, at time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.grants++
	if !r.deadline.IsZero() && at.After(r.deadline) {
		r.late++
		return
	}
	r.samples = append(r.samples, lat)
}

func (r *results) count(field *int) {
	r.mu.Lock()
	*field++
	r.mu.Unlock()
}

// percentiles returns (p50, p90, p99, max) over the recorded samples.
// Callers must hold mu. ok is false when nothing was sampled.
func (r *results) percentiles() (p50, p90, p99, max float64, ok bool) {
	if len(r.samples) == 0 {
		return 0, 0, 0, 0, false
	}
	sorted := append([]float64(nil), r.samples...)
	sort.Float64s(sorted)
	pct := func(p float64) float64 {
		i := int(p * float64(len(sorted)-1))
		return sorted[i]
	}
	return pct(0.50), pct(0.90), pct(0.99), sorted[len(sorted)-1], true
}

func (r *results) report(w io.Writer, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fmt.Fprintf(w, "loadgen: grants=%d rejects=%d exits=%d decode_errors=%d protocol_errors=%d dropped_conns=%d late_replies=%d\n",
		r.grants, r.rejects, r.exits, r.decodeErrs, r.protoErrs, r.dropped, r.late)
	if r.journeys > 0 {
		fmt.Fprintf(w, "loadgen: journeys completed=%d\n", r.journeys)
	}
	fmt.Fprintf(w, "loadgen: sustained %.1f req/s over %s\n",
		float64(r.grants)/d.Seconds(), d)
	p50, p90, p99, max, ok := r.percentiles()
	if !ok {
		return
	}
	fmt.Fprintf(w, "loadgen: grant latency p50=%.3fms p90=%.3fms p99=%.3fms max=%.3fms\n",
		p50*1000, p90*1000, p99*1000, max*1000)
	h := trace.Histogram{
		Bounds: []float64{0.0001, 0.0002, 0.0005, 0.001, 0.002, 0.005, 0.010, 0.020, 0.050, 0.100},
	}
	h.Counts = make([]int, len(h.Bounds)+1)
	for _, s := range r.samples {
		h.Observe(s)
	}
	fmt.Fprintf(w, "loadgen: grant latency histogram:\n%s", h.Render("  "))
}

// geometryWorld resolves the served geometry into the client-side facts a
// vehicle needs: movements, entry distances, the stock vehicle.
type geometryWorld struct {
	x      *intersection.Intersection
	params kinematics.Params
	ids    []intersection.MovementID
}

func newGeometryWorld(g protocol.Geometry) (*geometryWorld, error) {
	cfg := intersection.ScaleModelConfig()
	params := kinematics.ScaleModelParams()
	if g == protocol.GeometryFullScale {
		cfg = intersection.FullScaleConfig()
		params = kinematics.FullScaleParams()
	}
	x, err := intersection.New(cfg)
	if err != nil {
		return nil, err
	}
	return &geometryWorld{x: x, params: params, ids: x.MovementIDs()}, nil
}

// session is one protocol connection with a synchronized clock estimate.
type session struct {
	nc       net.Conn
	r        *protocol.Reader
	w        *protocol.Writer
	wmu      sync.Mutex // open-loop and grid modes write from two goroutines
	batchSeq uint32     // guarded by wmu: v2 Batch frame sequence (grid mode)
	geo      *geometryWorld
	offset   float64   // serverClock - localClock
	epoch    time.Time // local clock zero
}

func (s *session) localNow() float64  { return time.Since(s.epoch).Seconds() }
func (s *session) serverNow() float64 { return s.localNow() + s.offset }
func (s *session) send(f protocol.Frame) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return s.w.WriteFrame(f)
}

// connect dials, handshakes, and runs one NTP exchange to estimate the
// server-clock offset. The Hello pins protocol v1: closed and open mode
// speak the bare-frame protocol (and double as a live v1-compat check
// against sharded servers); grid mode negotiates v2 via connectGrid.
func connect(addr string, clock protocol.ClockMode, label string) (*session, protocol.Welcome, error) {
	nc, err := dial(addr)
	if err != nil {
		return nil, protocol.Welcome{}, err
	}
	s := &session{nc: nc, r: protocol.NewReader(nc), w: protocol.NewWriter(nc), epoch: time.Now()}
	if err := s.send(protocol.Hello{
		MinVersion: protocol.Version1, MaxVersion: protocol.Version1,
		Clock: clock, Client: label,
	}); err != nil {
		nc.Close()
		return nil, protocol.Welcome{}, err
	}
	f, err := s.r.ReadFrame()
	if err != nil {
		nc.Close()
		return nil, protocol.Welcome{}, err
	}
	welcome, ok := f.(protocol.Welcome)
	if !ok {
		nc.Close()
		return nil, protocol.Welcome{}, fmt.Errorf("handshake refused: %#v", f)
	}
	geo, err := newGeometryWorld(welcome.Geometry)
	if err != nil {
		nc.Close()
		return nil, protocol.Welcome{}, err
	}
	s.geo = geo
	// One NTP exchange: offset = ((T2-T1)+(T3-T4))/2.
	t1 := s.localNow()
	if err := s.send(protocol.Sync{VehicleID: 0, T1: t1}); err != nil {
		nc.Close()
		return nil, protocol.Welcome{}, err
	}
	rf, err := s.r.ReadFrame()
	if err != nil {
		nc.Close()
		return nil, protocol.Welcome{}, err
	}
	t4 := s.localNow()
	sr, ok := rf.(protocol.SyncReply)
	if !ok {
		nc.Close()
		return nil, protocol.Welcome{}, fmt.Errorf("expected sync reply, got %#v", rf)
	}
	s.offset = ((sr.T2 - t1) + (sr.T3 - t4)) / 2
	return s, welcome, nil
}

// buildRequest assembles a crossing request for one vehicle on a movement.
func (s *session) buildRequest(id int64, seq uint32, mid intersection.MovementID, speed float64) protocol.Request {
	m := s.geo.x.Movement(mid)
	now := s.serverNow()
	p := s.geo.params
	return protocol.Request{
		VehicleID:    id,
		Seq:          seq,
		Approach:     uint8(mid.Approach),
		Lane:         uint8(mid.Lane),
		Turn:         uint8(mid.Turn),
		CurrentSpeed: speed,
		DistToEntry:  m.EnterS,
		TransmitTime: now,
		ProposedToA:  now + m.EnterS/speed,
		CrossSpeed:   speed,
		MaxSpeed:     p.MaxSpeed,
		MaxAccel:     p.MaxAccel,
		MaxDecel:     p.MaxDecel,
		Length:       p.Length,
		Width:        p.Width,
		Wheelbase:    p.Wheelbase,
	}
}

// runClosed runs n workers, each cycling request→grant→exit→ack as fast as
// the server grants.
func runClosed(addr string, n int, d time.Duration, seed int64, res *results) error {
	deadline := time.Now().Add(d)
	res.setDeadline(deadline)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := closedWorker(addr, i, deadline, seed+int64(i), res); err != nil {
				errs <- err
				res.mu.Lock()
				res.dropped++
				res.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		return fmt.Errorf("worker failed: %w", err)
	default:
		return nil
	}
}

func closedWorker(addr string, worker int, deadline time.Time, seed int64, res *results) error {
	s, _, err := connect(addr, protocol.ClockWall, fmt.Sprintf("loadgen-closed-%d", worker))
	if err != nil {
		return err
	}
	defer s.nc.Close()
	s.nc.SetDeadline(deadline.Add(10 * time.Second))
	rng := rand.New(rand.NewSource(seed))
	counter := int64(0)
	speed := s.geo.params.MaxSpeed
	for time.Now().Before(deadline) {
		counter++
		id := int64(worker+1)*10_000_000 + counter
		mid := s.geo.ids[rng.Intn(len(s.geo.ids))]
		var grant protocol.Grant
		granted := false
		req := s.buildRequest(id, 1, mid, speed)
		for try := 0; try < 8; try++ {
			t0 := time.Now()
			if err := s.send(req); err != nil {
				return err
			}
			f, err := s.r.ReadFrame()
			if err != nil {
				res.mu.Lock()
				res.decodeErrs++
				res.mu.Unlock()
				return err
			}
			g, ok := f.(protocol.Grant)
			if !ok {
				if e, isErr := f.(protocol.Error); isErr {
					res.mu.Lock()
					res.protoErrs++
					res.mu.Unlock()
					return fmt.Errorf("server error %d: %s", e.Code, e.Msg)
				}
				continue // unsolicited revision or stray frame; keep reading
			}
			if g.VehicleID != id {
				continue // revision for an earlier vehicle of this conn
			}
			if g.RespKind == uint8(3) { // reject (AIM): propose a later slot
				res.mu.Lock()
				res.rejects++
				res.mu.Unlock()
				req.Seq++
				req.ProposedToA += 0.25
				req.TransmitTime = s.serverNow()
				continue
			}
			res.observeAt(time.Since(t0).Seconds(), time.Now())
			grant, granted = g, true
			break
		}
		if !granted {
			continue
		}
		exitAt := grant.ArriveAt
		if exitAt <= 0 {
			exitAt = s.serverNow()
		}
		if err := s.send(protocol.Exit{VehicleID: id, ExitTimestamp: exitAt}); err != nil {
			return err
		}
		for {
			f, err := s.r.ReadFrame()
			if err != nil {
				return err
			}
			if a, ok := f.(protocol.Ack); ok && a.VehicleID == id {
				res.mu.Lock()
				res.exits++
				res.mu.Unlock()
				break
			}
		}
	}
	s.send(protocol.Bye{Reason: "loadgen done"})
	return nil
}

// runOpen replays a Poisson arrival stream against the wall clock across n
// connections, recording grant latency per vehicle as replies come back.
func runOpen(addr string, n int, rate float64, d time.Duration, seed int64, res *results) error {
	// Size the fleet to the expected arrivals over the run, generated with
	// the same machinery the DES harness uses.
	geoProbe, welcome, err := connect(addr, protocol.ClockWall, "loadgen-open-probe")
	if err != nil {
		return err
	}
	geoProbe.send(protocol.Bye{Reason: "probe done"})
	geoProbe.nc.Close()
	lanes := geoProbe.geo.x.Config().LanesPerRoad
	_ = welcome
	fleet := int(rate*float64(4*lanes)*d.Seconds() + 0.5)
	if fleet < 1 {
		fleet = 1
	}
	arrivals, err := traffic.Poisson(traffic.PoissonConfig{
		Rate:         rate,
		NumVehicles:  fleet,
		LanesPerRoad: lanes,
		Mix:          traffic.DefaultTurnMix(),
		Params:       geoProbe.geo.params,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		return err
	}

	sessions := make([]*session, n)
	inflight := make([]map[int64]time.Time, n)
	var inflightMu sync.Mutex
	for i := range sessions {
		s, _, err := connect(addr, protocol.ClockWall, fmt.Sprintf("loadgen-open-%d", i))
		if err != nil {
			return err
		}
		defer s.nc.Close()
		s.nc.SetDeadline(time.Now().Add(d + 15*time.Second))
		sessions[i] = s
		inflight[i] = make(map[int64]time.Time)
	}

	var wg sync.WaitGroup
	for i, s := range sessions {
		i, s := i, s
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				f, err := s.r.ReadFrame()
				if err != nil {
					return // deadline or close ends the reader
				}
				switch v := f.(type) {
				case protocol.Grant:
					inflightMu.Lock()
					t0, ok := inflight[i][v.VehicleID]
					delete(inflight[i], v.VehicleID)
					inflightMu.Unlock()
					if ok {
						res.observeAt(time.Since(t0).Seconds(), time.Now())
						exitAt := v.ArriveAt
						if exitAt <= 0 {
							exitAt = s.serverNow()
						}
						s.send(protocol.Exit{VehicleID: v.VehicleID, ExitTimestamp: exitAt})
					}
				case protocol.Ack:
					res.mu.Lock()
					res.exits++
					res.mu.Unlock()
				case protocol.Error:
					res.mu.Lock()
					res.protoErrs++
					res.mu.Unlock()
					return
				}
			}
		}()
	}

	start := time.Now()
	res.setDeadline(start.Add(d))
	for k, a := range arrivals {
		at := start.Add(time.Duration(a.Time * float64(time.Second)))
		if at.After(start.Add(d)) {
			break
		}
		time.Sleep(time.Until(at))
		i := k % n
		s := sessions[i]
		req := s.buildRequest(a.ID+1, 1, a.Movement, a.Speed)
		inflightMu.Lock()
		inflight[i][a.ID+1] = time.Now()
		inflightMu.Unlock()
		if err := s.send(req); err != nil {
			res.mu.Lock()
			res.dropped++
			res.mu.Unlock()
			break
		}
	}
	// Grace period for in-flight replies, then close everything down.
	time.Sleep(500 * time.Millisecond)
	for _, s := range sessions {
		s.send(protocol.Bye{Reason: "loadgen done"})
		s.nc.Close()
	}
	wg.Wait()
	return nil
}
