package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"crossroads/internal/im"
	"crossroads/internal/intersection"
	"crossroads/internal/kinematics"
	"crossroads/internal/protocol"
	"crossroads/internal/server"
	"crossroads/internal/topology"
)

// The serve workload: an in-process server (crossroads, scale-model
// geometry, 2x2 shards) on a Unix socket. Its closed phase cycles two v1
// connections request→grant→exit→ack against node 0; its open phase sends
// node-tagged v2 batches across all four shards on a fixed schedule. Exits
// go out as grants arrive, so reservation books stay shallow and the
// workload isolates wire and shard-executive cost: no DES physics, no
// collision oracle.
const (
	servePolicy = "crossroads"
	serveGridN  = 2
	serveSegLen = 3.0
	closedConns = 2
	// openPeriod is the open phase's batch interval; each batch carries
	// openRate × openPeriod requests.
	openPeriod = 5 * time.Millisecond
	// closedShare is the closed phase's part of the time budget; the open
	// phase gets the rest.
	closedShare = 0.4
	// replyGrace is how long a phase waits for outstanding replies after
	// its schedule ends before counting them unanswered.
	replyGrace = 2 * time.Second
	// Rates and latencies are reported as the median over fixed windows
	// of a phase, so a scheduling hiccup on the shared host moves one
	// window and not the run's figure.
	closedWindow = 500 * time.Millisecond
	openWindow   = 500 * time.Millisecond
)

func serveWorkload() workload {
	return workload{setup: serveSetup, measure: serveMeasure, traced: serveTraced}
}

// served is a running server plus the v1 connection whose Welcome ended
// its set-up.
type served struct {
	srv   *server.Server
	sock  string
	first *client
	setup time.Duration
}

// startServed is the serve set-up: server.New → ListenUnix → Start → the
// first client's Welcome.
func startServed(o options) (*served, error) {
	topo, err := topology.Grid(serveGridN, serveGridN)
	if err != nil {
		return nil, err
	}
	sock := filepath.Join(o.outDir, fmt.Sprintf("serve-%d.sock", os.Getpid()))
	t0 := time.Now()
	srv, err := server.New(server.Config{
		Policy: servePolicy, Geometry: protocol.GeometryScaleModel,
		Topology: topo.WithSegmentLen(serveSegLen), Clock: protocol.ClockWall, Seed: o.seed,
	})
	if err != nil {
		return nil, err
	}
	if _, err := srv.ListenUnix(sock); err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	s := &served{srv: srv, sock: sock}
	c, err := dialClient(sock, protocol.Version1, "perfbench-closed-0")
	if err != nil {
		s.stop()
		return nil, err
	}
	s.setup = time.Since(t0)
	s.first = c
	return s, nil
}

func (s *served) stop() error {
	if s.first != nil {
		s.first.close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if rmErr := os.Remove(s.sock); rmErr != nil && !errors.Is(rmErr, os.ErrNotExist) && err == nil {
		err = rmErr
	}
	return err
}

func serveSetup(o options) (setupSample, error) {
	s, err := startServed(o)
	if err != nil {
		return setupSample{}, err
	}
	sample := setupSample{Seconds: s.setup.Seconds()}
	return sample, s.stop()
}

// client is one protocol connection. The benchmark frames and decodes
// itself (protocol.Append / protocol.Decode) so the codec can be timed
// apart from the socket; the handshake uses protocol.Writer and Reader.
type client struct {
	nc     net.Conn
	br     *bufio.Reader
	epoch  time.Time
	offset float64 // server clock − local clock (s)

	// timed makes send and recv time the codec; untraced runs leave it
	// off.
	timed bool

	wmu      sync.Mutex // the open phase writes from two goroutines
	wbuf     []byte     // guarded by wmu
	batchSeq uint32     // guarded by wmu
	encNs    int64      // guarded by wmu
	encodes  int        // guarded by wmu

	rbuf    []byte
	decNs   int64 // owned by the reading goroutine
	decodes int
}

// dialClient connects and completes the Hello/Welcome handshake (and, on
// v2, reads the Topo advertisement).
func dialClient(sock string, maxVersion uint16, label string) (*client, error) {
	nc, err := net.Dial("unix", sock)
	if err != nil {
		return nil, err
	}
	c := &client{nc: nc, epoch: time.Now()}
	if err := protocol.NewWriter(nc).WriteFrame(protocol.Hello{
		MinVersion: protocol.Version1, MaxVersion: maxVersion,
		Clock: protocol.ClockWall, Client: label,
	}); err != nil {
		nc.Close()
		return nil, err
	}
	r := protocol.NewReader(nc)
	f, err := r.ReadFrame()
	if err != nil {
		nc.Close()
		return nil, err
	}
	w, ok := f.(protocol.Welcome)
	if !ok || w.Version != maxVersion {
		nc.Close()
		return nil, fmt.Errorf("handshake: got %#v", f)
	}
	if maxVersion >= protocol.Version2 {
		if f, err = r.ReadFrame(); err != nil {
			nc.Close()
			return nil, err
		}
		if _, ok := f.(protocol.Topo); !ok {
			nc.Close()
			return nil, fmt.Errorf("handshake: expected topology, got %#v", f)
		}
	}
	// protocol.Reader reads exactly one frame at a time, so buffering may
	// start here without losing bytes.
	c.br = bufio.NewReaderSize(nc, 64<<10)
	return c, nil
}

func (c *client) localNow() float64  { return time.Since(c.epoch).Seconds() }
func (c *client) serverNow() float64 { return c.localNow() + c.offset }

// sync runs one NTP exchange against node 0 to estimate the server clock.
func (c *client) sync(v2 bool) error {
	t1 := c.localNow()
	var err error
	if v2 {
		_, err = c.sendBatch([]protocol.BatchItem{{Node: 0, F: protocol.Sync{T1: t1}}})
	} else {
		_, err = c.send(protocol.Sync{T1: t1})
	}
	if err != nil {
		return err
	}
	for {
		f, _, err := c.recv()
		if err != nil {
			return err
		}
		sr, ok := f.(protocol.SyncReply)
		if br, isBatch := f.(protocol.BatchReply); isBatch && len(br.Items) > 0 {
			sr, ok = br.Items[0].F.(protocol.SyncReply)
		}
		if ok {
			c.offset = ((sr.T2 - t1) + (sr.T3 - c.localNow())) / 2
			return nil
		}
	}
}

// send encodes and writes one frame, returning the encode interval.
func (c *client) send(f protocol.Frame) (interval, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.writeLocked(f)
}

// sendBatch sends items as one v2 Batch frame with the next sequence
// number.
func (c *client) sendBatch(items []protocol.BatchItem) (interval, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.batchSeq++
	return c.writeLocked(protocol.Batch{Seq: c.batchSeq, Items: items})
}

func (c *client) writeLocked(f protocol.Frame) (interval, error) {
	var iv interval
	if c.timed {
		iv.start = time.Now()
	}
	b, err := protocol.Append(c.wbuf[:0], f)
	if err != nil {
		return iv, err
	}
	if c.timed {
		iv.end = time.Now()
		c.encNs += iv.end.Sub(iv.start).Nanoseconds()
		c.encodes++
	}
	c.wbuf = b
	_, err = c.nc.Write(b)
	return iv, err
}

// recv reads and decodes one frame, returning the decode interval.
func (c *client) recv() (protocol.Frame, interval, error) {
	var iv interval
	var hdr [4]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		return nil, iv, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > protocol.MaxFrameSize {
		return nil, iv, protocol.ErrFrameTooLarge
	}
	if cap(c.rbuf) < 4+n {
		c.rbuf = make([]byte, 4+n)
	}
	buf := c.rbuf[:4+n]
	copy(buf, hdr[:])
	if _, err := io.ReadFull(c.br, buf[4:]); err != nil {
		return nil, iv, err
	}
	if c.timed {
		iv.start = time.Now()
	}
	f, _, err := protocol.Decode(buf)
	if c.timed {
		iv.end = time.Now()
		c.decNs += iv.end.Sub(iv.start).Nanoseconds()
		c.decodes++
	}
	return f, iv, err
}

func (c *client) close() {
	c.send(protocol.Bye{Reason: "perfbench done"}) // best effort: the socket closes next
	c.nc.Close()
}

// geometry is the client-side view of the served intersection.
type geometry struct {
	x      *intersection.Intersection
	params kinematics.Params
	ids    []intersection.MovementID
}

func scaleGeometry() (geometry, error) {
	x, err := intersection.New(intersection.ScaleModelConfig())
	if err != nil {
		return geometry{}, err
	}
	return geometry{x: x, params: kinematics.ScaleModelParams(), ids: x.MovementIDs()}, nil
}

// request builds a crossing request for a stock vehicle at full speed on
// the movement's transmission line, stamped with the server clock.
func (g geometry) request(c *client, id int64, mid intersection.MovementID) protocol.Request {
	m := g.x.Movement(mid)
	now := c.serverNow()
	v := g.params.MaxSpeed
	return protocol.Request{
		VehicleID: id, Seq: 1,
		Approach: uint8(mid.Approach), Lane: uint8(mid.Lane), Turn: uint8(mid.Turn),
		CurrentSpeed: v, DistToEntry: m.EnterS, TransmitTime: now,
		ProposedToA: now + m.EnterS/v, CrossSpeed: v,
		MaxSpeed: g.params.MaxSpeed, MaxAccel: g.params.MaxAccel, MaxDecel: g.params.MaxDecel,
		Length: g.params.Length, Width: g.params.Width, Wheelbase: g.params.Wheelbase,
	}
}

// tally accumulates one serve run's outcomes across goroutines.
type tally struct {
	mu         sync.Mutex
	attempted  int
	refused    int
	late       int
	unanswered int
	errored    int
	orderViols int
	closedOK   int         // closed-phase cycles completed
	closedAt   []time.Time // when each of them completed
	grantLat   []dueSample // open-phase grant latency, timed from the due time
	service    []float64
	waits      []float64
}

// dueSample is one open-phase latency and the due time it ran from.
type dueSample struct {
	due time.Time
	lat float64
}

// grant checks one reply to req, received at server-clock time at, and
// returns whether the vehicle was granted in time.
func (t *tally) grant(req protocol.Request, g protocol.Grant, at float64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	resp := g.Response()
	switch {
	// A reject, or a velocity reply that stops the vehicle (the threshold
	// the IM's own trace uses for im.stop), refuses the crossing.
	case resp.Kind == im.RespReject || (resp.Kind == im.RespVelocity && resp.TargetSpeed <= 0.01):
		t.refused++
		return false
	case resp.Kind != im.RespTimed:
		return true
	}
	if !(g.ArriveAt >= g.ExecuteAt && g.ExecuteAt >= req.TransmitTime) {
		t.orderViols++
	}
	// The wait the IM imposed: granted arrival versus arriving unimpeded.
	t.waits = append(t.waits, math.Max(0, g.ArriveAt-(req.TransmitTime+req.DistToEntry/req.CurrentSpeed)))
	if at > g.ExecuteAt {
		t.late++
		return false
	}
	return true
}

func (t *tally) add(field *int, n int) {
	t.mu.Lock()
	*field += n
	t.mu.Unlock()
}

// nextVehicle numbers every request's vehicle. It is process-wide because
// one server outlives several tallies (the traced run's untraced closed
// phase, then its traced phases), and a reused vehicle ID would reach the
// IM as a returning vehicle.
var nextVehicle atomic.Int64

// closedPhase cycles each connection request→grant→exit→ack until the
// deadline and returns the phase's start and host time.
func closedPhase(conns []*client, geo geometry, seed int64, d time.Duration, t *tally, spans *spanLog) (time.Time, time.Duration, error) {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	errs := make([]error, len(conns))
	for i, c := range conns {
		i, c := i, c
		wg.Add(1)
		go func() {
			defer wg.Done()
			if errs[i] = c.nc.SetDeadline(deadline.Add(replyGrace)); errs[i] != nil {
				return
			}
			closedWorker(c, geo, rand.New(rand.NewSource(seed+int64(i))), deadline, t, spans)
			errs[i] = c.nc.SetDeadline(time.Time{})
		}()
	}
	wg.Wait()
	return start, time.Since(start), errors.Join(errs...)
}

// closedWorker runs one connection's cycles. A failed send or read ends
// the connection's phase; the request in flight is counted as failed.
func closedWorker(c *client, geo geometry, rng *rand.Rand, deadline time.Time, t *tally, spans *spanLog) {
	for time.Now().Before(deadline) {
		id := nextVehicle.Add(1)
		req := geo.request(c, id, geo.ids[rng.Intn(len(geo.ids))])
		t.add(&t.attempted, 1)
		t0 := time.Now()
		enc, err := c.send(req)
		if err != nil {
			t.lost(err)
			return
		}
		g, dec, err := awaitGrant(c, id)
		if err != nil {
			t.lost(err)
			return
		}
		t1 := time.Now()
		ok := t.grant(req, g, c.serverNow())
		if spans != nil {
			root := interval{t0, t1}
			t.mu.Lock()
			t.service = append(t.service, selfTime(root, []interval{enc, dec}).Seconds())
			t.mu.Unlock()
			p := spans.add(id, "closed.request", 0, root)
			spans.add(id, "protocol.encode", p, enc)
			spans.add(id, "protocol.decode", p, dec)
		}
		exitAt := g.ArriveAt
		if exitAt <= 0 {
			exitAt = c.serverNow()
		}
		if _, err := c.send(protocol.Exit{VehicleID: id, ExitTimestamp: exitAt}); err == nil {
			err = awaitAck(c, id)
		}
		if err != nil {
			if ok { // a refused or late grant already counts as failed
				t.lost(err)
			}
			return
		}
		if ok {
			done := time.Now()
			t.mu.Lock()
			t.closedOK++
			t.closedAt = append(t.closedAt, done)
			t.mu.Unlock()
		}
	}
}

// lost counts a request whose cycle broke off: unanswered when the reply
// deadline passed, errored when the connection failed or the server sent
// an Error frame.
func (t *tally) lost(err error) {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.add(&t.unanswered, 1)
	} else {
		t.add(&t.errored, 1)
	}
}

// awaitGrant reads v1 frames until the reply to vehicle id arrives;
// replies to other vehicles (revisions) are skipped.
func awaitGrant(c *client, id int64) (protocol.Grant, interval, error) {
	for {
		f, dec, err := c.recv()
		if err != nil {
			return protocol.Grant{}, dec, err
		}
		switch v := f.(type) {
		case protocol.Grant:
			if v.VehicleID == id {
				return v, dec, nil
			}
		case protocol.Error:
			return protocol.Grant{}, dec, fmt.Errorf("server error %d: %s", v.Code, v.Msg)
		}
	}
}

func awaitAck(c *client, id int64) error {
	for {
		f, _, err := c.recv()
		if err != nil {
			return err
		}
		switch v := f.(type) {
		case protocol.Ack:
			if v.VehicleID == id {
				return nil
			}
		case protocol.Error:
			return fmt.Errorf("server error %d: %s", v.Code, v.Msg)
		}
	}
}

// openLoop sends batch k at its due time start + k·period, or as soon
// after as it can: a stalled sender catches up by sending the overdue
// batches back to back, never by shifting the schedule. now and sleep are
// fields so tests can stall the clock.
type openLoop struct {
	start   time.Time
	period  time.Duration
	batches int
	now     func() time.Time
	sleep   func(time.Duration)
}

// run calls send for every batch and returns how late each went out.
func (l openLoop) run(send func(k int, due time.Time) error) ([]time.Duration, error) {
	lags := make([]time.Duration, 0, l.batches)
	for k := 0; k < l.batches; k++ {
		due := l.start.Add(time.Duration(k) * l.period)
		if wait := due.Sub(l.now()); wait > 0 {
			l.sleep(wait)
		}
		lags = append(lags, l.now().Sub(due))
		if err := send(k, due); err != nil {
			return lags, err
		}
	}
	return lags, nil
}

// openReq is one open-phase request awaiting its grant and ack.
type openReq struct {
	req  protocol.Request
	node uint32
	due  time.Time
	sent interval // encode interval of its batch (traced runs)
	done bool     // a reply arrived
	ok   bool     // the reply granted the crossing in time
}

// openResult is what the open phase reports besides the tally.
type openResult struct {
	lags    []time.Duration
	backlog int
}

// openPhase sends rate requests per second for d as node-tagged v2
// batches, timing each request from its due time to its reply.
func openPhase(c *client, geo geometry, seed int64, rate float64, d time.Duration, t *tally, spans *spanLog) openResult {
	perBatch := int(math.Round(rate * openPeriod.Seconds()))
	if perBatch < 1 {
		perBatch = 1
	}
	loop := openLoop{
		start: time.Now().Add(openPeriod), period: openPeriod,
		batches: int(d / openPeriod), now: time.Now, sleep: time.Sleep,
	}
	rng := rand.New(rand.NewSource(seed + closedConns))
	end := loop.start.Add(time.Duration(loop.batches) * loop.period)
	// The deadline is only a backstop: the phase closes the connection
	// itself once the replies are in or the grace period is over.
	_ = c.nc.SetDeadline(end.Add(replyGrace + time.Second))

	var mu sync.Mutex
	pending := map[int64]*openReq{}
	outstanding := 0 // requests without a reply, plus exits without an ack
	readErr := make(chan error, 1)
	go func() { readErr <- openReader(c, &mu, pending, &outstanding, t, spans) }()

	lags, sendErr := loop.run(func(k int, due time.Time) error {
		items := make([]protocol.BatchItem, perBatch)
		reqs := make([]*openReq, perBatch)
		for j := range items {
			node := uint32((k*perBatch + j) % (serveGridN * serveGridN))
			r := geo.request(c, nextVehicle.Add(1), geo.ids[rng.Intn(len(geo.ids))])
			items[j] = protocol.BatchItem{Node: node, F: r}
			reqs[j] = &openReq{req: r, node: node, due: due}
		}
		mu.Lock()
		for _, r := range reqs {
			pending[r.req.VehicleID] = r
		}
		outstanding += len(reqs)
		mu.Unlock()
		t.add(&t.attempted, len(reqs))
		enc, err := c.sendBatch(items)
		if spans != nil {
			mu.Lock()
			for _, r := range reqs {
				r.sent = enc
			}
			mu.Unlock()
		}
		return err
	})
	res := openResult{lags: lags}
	if wait := time.Until(end); wait > 0 {
		time.Sleep(wait)
	}
	mu.Lock()
	for _, r := range pending {
		if !r.done {
			res.backlog++
		}
	}
	mu.Unlock()
	for graceEnd := time.Now().Add(replyGrace); time.Now().Before(graceEnd); time.Sleep(time.Millisecond) {
		mu.Lock()
		n := outstanding
		mu.Unlock()
		if n == 0 {
			break
		}
	}
	c.nc.Close()
	readErrV := <-readErr
	// Whatever is still pending never got its reply, or got a grant
	// whose exit was never acknowledged.
	unanswered := 0
	for _, r := range pending {
		if !r.done || r.ok {
			unanswered++
		}
	}
	t.add(&t.unanswered, unanswered)
	// A broken connection ends the phase early; what it left pending is
	// counted unanswered above, and the break itself as an error.
	if sendErr != nil || (readErrV != nil && !errors.Is(readErrV, net.ErrClosed) && !errors.Is(readErrV, os.ErrDeadlineExceeded)) {
		t.add(&t.errored, 1)
	}
	return res
}

// openReader handles the open phase's replies: it times each grant from
// its request's due time and answers it with an exit.
func openReader(c *client, mu *sync.Mutex, pending map[int64]*openReq, outstanding *int, t *tally, spans *spanLog) error {
	for {
		f, dec, err := c.recv()
		if err != nil {
			return err
		}
		recvAt := time.Now()
		at := c.serverNow()
		switch v := f.(type) {
		case protocol.BatchReply:
			var exits []protocol.BatchItem
			mu.Lock()
			for _, it := range v.Items {
				switch g := it.F.(type) {
				case protocol.Grant:
					r := pending[g.VehicleID]
					if r == nil || r.done {
						continue // a revision of an earlier grant
					}
					r.done = true
					*outstanding-- // the grant; the exit's ack is still owed
					r.ok = t.grant(r.req, g, at)
					t.mu.Lock()
					t.grantLat = append(t.grantLat, dueSample{r.due, recvAt.Sub(r.due).Seconds()})
					t.mu.Unlock()
					if spans != nil {
						p := spans.add(g.VehicleID, "open.request", 0, interval{r.due, recvAt})
						spans.add(g.VehicleID, "gen.lag", p, interval{r.due, r.sent.start})
						spans.add(g.VehicleID, "protocol.encode", p, r.sent)
						spans.add(g.VehicleID, "protocol.decode", p, dec)
					}
					exitAt := g.ArriveAt
					if exitAt <= 0 {
						exitAt = at
					}
					*outstanding++
					exits = append(exits, protocol.BatchItem{Node: r.node,
						F: protocol.Exit{VehicleID: g.VehicleID, ExitTimestamp: exitAt}})
				case protocol.Ack:
					if _, ok := pending[g.VehicleID]; ok {
						delete(pending, g.VehicleID)
						*outstanding--
					}
				}
			}
			mu.Unlock()
			if len(exits) > 0 {
				if _, err := c.sendBatch(exits); err != nil {
					return err
				}
			}
		case protocol.Error:
			return fmt.Errorf("server error %d: %s", v.Code, v.Msg)
		}
	}
}

// conns are one run's client connections, handshaken and clock-synced:
// the closed phase's v1 connections (the set-up's first one among them)
// and the open phase's v2 connection.
type conns struct {
	closed []*client
	open   *client
}

func connect(s *served) (conns, error) {
	cs := conns{closed: []*client{s.first}}
	for i := 1; i < closedConns; i++ {
		c, err := dialClient(s.sock, protocol.Version1, fmt.Sprintf("perfbench-closed-%d", i))
		if err != nil {
			cs.close()
			return conns{}, err
		}
		cs.closed = append(cs.closed, c)
	}
	oc, err := dialClient(s.sock, protocol.Version2, "perfbench-open")
	if err != nil {
		cs.close()
		return conns{}, err
	}
	cs.open = oc
	for _, c := range cs.all() {
		if err := c.sync(c == oc); err != nil {
			cs.close()
			return conns{}, err
		}
	}
	return cs, nil
}

func (cs conns) all() []*client {
	out := append([]*client(nil), cs.closed...)
	if cs.open != nil {
		out = append(out, cs.open)
	}
	return out
}

// close closes every connection but the set-up's, which served.stop
// closes.
func (cs conns) close() {
	for _, c := range cs.all()[1:] {
		c.close()
	}
}

// serveRun is one pass over both phases.
type serveRun struct {
	closedStart time.Time
	closedWall  time.Duration
	open        openResult
	wall        time.Duration
	allocMB     float64
	stats       server.Stats
}

func runPhases(o options, s *served, cs conns, t *tally, spans *spanLog) (serveRun, error) {
	geo, err := scaleGeometry()
	if err != nil {
		return serveRun{}, err
	}
	closedDur, openDur := phaseDurations(o)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	var run serveRun
	run.closedStart, run.closedWall, err = closedPhase(cs.closed, geo, o.seed, closedDur, t, spans)
	if err != nil {
		return run, fmt.Errorf("closed phase: %w", err)
	}
	run.open = openPhase(cs.open, geo, o.seed, o.openRate, openDur, t, spans)
	run.wall = time.Since(t0)
	runtime.ReadMemStats(&m1)
	run.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	run.stats = s.srv.Stats()
	return run, nil
}

// check applies the serve output checks.
func (t *tally) check(rep *report, st server.Stats) {
	if t.orderViols > 0 {
		rep.problem("%d grants violate ArriveAt >= ExecuteAt >= TransmitTime", t.orderViols)
	}
	if st.ProtocolErrors > 0 || t.errored > 0 {
		rep.problem("%d server-side protocol errors, %d client-side errors", st.ProtocolErrors, t.errored)
	}
}

func (t *tally) failed() int { return t.refused + t.late + t.unanswered + t.errored }

func phaseDurations(o options) (time.Duration, time.Duration) {
	total := time.Duration(o.seconds * float64(time.Second))
	closed := time.Duration(float64(total) * closedShare)
	return closed, total - closed
}

func serveMeasure(o options, rep *report) error {
	s, err := startServed(o)
	if err != nil {
		return err
	}
	setupS, setupN, err := medianSetup(o, "serve", setupSample{Seconds: s.setup.Seconds()})
	if err != nil {
		s.stop()
		return err
	}
	var t tally
	cs, err := connect(s)
	var run serveRun
	if err == nil {
		run, err = runPhases(o, s, cs, &t, nil)
		cs.close()
	}
	if stopErr := s.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return err
	}
	t.check(rep, run.stats)
	if t.closedOK == 0 || len(t.grantLat) == 0 {
		return fmt.Errorf("serve: no grants")
	}
	rate := median(windowRates(t.closedAt, run.closedStart, closedWindow, int(run.closedWall/closedWindow)))
	p50, p99 := windowTails(t.grantLat, openWindow)
	served := t.attempted - t.failed()
	rep.attempted, rep.failed = t.attempted, t.failed()
	rep.set("setup_s", setupS, fmt.Sprintf("median of %d cold set-ups", setupN))
	rep.set("wall_s", run.wall.Seconds(), "closed + open phase")
	rep.set("ns_per_crossing", 1e9/rate, fmt.Sprintf("closed phase, %d conns", closedConns))
	rep.set("alloc_mb", run.allocMB*1e4/float64(served), fmt.Sprintf("per 10^4 requests; %d served", served))
	rep.set("mean_wait_s", mean(t.waits), "granted arrival minus unimpeded arrival")
	rep.set("grants_per_s", rate, fmt.Sprintf("closed phase, median of %v windows", closedWindow))
	rep.set("grant_p50_ms", median(p50)*1e3, fmt.Sprintf("median over %d windows of %v", len(p50), openWindow))
	rep.set("grant_p99_ms", median(p99)*1e3, fmt.Sprintf("median over %d windows of %v; %s", len(p99), openWindow, windowNote(t.grantLat, openWindow)))
	return nil
}

// windowRates counts events per window of width w from start and returns
// each window's rate (1/s).
func windowRates(at []time.Time, start time.Time, w time.Duration, n int) []float64 {
	if n < 1 {
		n = 1
	}
	counts := make([]float64, n)
	for _, t := range at {
		if k := int(t.Sub(start) / w); k >= 0 && k < n {
			counts[k]++
		}
	}
	for k := range counts {
		counts[k] /= w.Seconds()
	}
	return counts
}

// windowGroups splits latency samples by the window their due time falls
// in.
func windowGroups(xs []dueSample, w time.Duration) [][]float64 {
	if len(xs) == 0 {
		return nil
	}
	first := xs[0].due
	for _, x := range xs {
		if x.due.Before(first) {
			first = x.due
		}
	}
	var groups [][]float64
	for _, x := range xs {
		k := int(x.due.Sub(first) / w)
		for len(groups) <= k {
			groups = append(groups, nil)
		}
		groups[k] = append(groups[k], x.lat)
	}
	return groups
}

// windowTails returns each window's median and 99th-percentile latency
// (the highest percentile up to 99 with ten samples beyond it).
func windowTails(xs []dueSample, w time.Duration) (p50, p99 []float64) {
	for _, g := range windowGroups(xs, w) {
		if len(g) == 0 {
			continue
		}
		p50 = append(p50, tailOf(g, 50).Value)
		p99 = append(p99, tailOf(g, 99).Value)
	}
	return p50, p99
}

// windowNote names the percentile the windows' tails were taken at.
func windowNote(xs []dueSample, w time.Duration) string {
	n := len(xs)
	for _, g := range windowGroups(xs, w) {
		if len(g) > 0 && len(g) < n {
			n = len(g)
		}
	}
	return fmt.Sprintf("p%g of at least %d samples", reportablePercentile(n, 99), n)
}

func serveTraced(o options, rep *report) error {
	// Warm the conflict-table memo the server's schedulers use, measuring
	// the build; server.New then constructs warm.
	table, err := gridWorkload.setup(o)
	if err != nil {
		return err
	}
	s, err := startServed(o)
	if err != nil {
		return err
	}
	geo, err := scaleGeometry()
	if err != nil {
		s.stop()
		return err
	}
	cs, err := connect(s)
	if err != nil {
		s.stop()
		return err
	}
	// A closed phase untraced, then both phases traced: the two closed
	// phases give the tracing overhead.
	var base tally
	closedDur, _ := phaseDurations(o)
	_, baseWall, err := closedPhase(cs.closed, geo, o.seed, closedDur, &base, nil)
	spans := newSpanLog()
	var t tally
	var run serveRun
	if err == nil {
		for _, c := range cs.all() {
			c.timed = true
		}
		run, err = runPhases(o, s, cs, &t, spans)
	}
	cs.close()
	if stopErr := s.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return err
	}
	t.check(rep, run.stats)
	if err := spans.write(filepath.Join(o.outDir, fmt.Sprintf("spans-serve-%d.jsonl", o.seed))); err != nil {
		return err
	}

	var encNs, decNs int64
	var encodes, decodes int
	for _, c := range cs.all() {
		encNs += c.encNs
		decNs += c.decNs
		encodes += c.encodes
		decodes += c.decodes
	}
	lagMs := make([]float64, len(run.open.lags))
	for i, l := range run.open.lags {
		lagMs[i] = float64(l) / 1e6
	}
	rep.attempted, rep.failed = t.attempted, t.failed()
	rep.set("fail_share", ratio(float64(t.failed()), float64(t.attempted)),
		fmt.Sprintf("%d of %d requests", t.failed(), t.attempted))
	rep.set("intersection.table_build_s", table.TableBuildSeconds, "")
	rep.set("intersection.tables_built", float64(table.TablesBuilt), "")
	rep.set("protocol.encode_ns", ratio(float64(encNs), float64(encodes)), "client side, per frame")
	rep.set("protocol.decode_ns", ratio(float64(decNs), float64(decodes)), "client side, per frame")
	rep.set("protocol.frames", float64(encodes+decodes), "encoded + decoded")
	rep.setTail("server.service_us_p50", tailOf(t.service, 50), 1e6)
	rep.setTail("server.service_us_p99", tailOf(t.service, 99), 1e6)
	rep.set("server.frames_in", float64(run.stats.FramesIn), "")
	rep.set("server.frames_out", float64(run.stats.FramesOut), "")
	rep.set("server.shed", float64(run.stats.Shed), "")
	rep.set("server.protocol_errors", float64(run.stats.ProtocolErrors), "")
	rep.setTail("gen.lag_ms_p99", tailOf(lagMs, 99), 1)
	rep.set("gen.backlog", float64(run.open.backlog), "requests outstanding at open-phase end")
	rep.set("trace.overhead", ratio(run.closedWall.Seconds()/float64(t.closedOK), baseWall.Seconds()/float64(base.closedOK)),
		"traced ÷ untraced time per closed cycle")
	rep.fillIdle()
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
