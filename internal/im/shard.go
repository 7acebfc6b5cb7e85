package im

import (
	"math/rand"
	"strconv"

	"crossroads/internal/des"
	"crossroads/internal/intersection"
	"crossroads/internal/metrics"
	"crossroads/internal/network"
	"crossroads/internal/topology"
)

// This file is the one definition of how a topology node's IM shard is
// assembled — its network address, its RNG streams, its scheduler and
// server, and its place on the coordination plane. The serial simulation
// kernel, the parallel kernel and the sharded server all build their
// shards here, so a grant is the same decision wherever the IM runs.

// NodeEndpoint returns the network address of a topology node's IM shard.
// Node 0 keeps the historic bare "im" name so single-intersection traces
// and tests are unchanged by the topology refactor.
func NodeEndpoint(node int) string {
	if node == 0 {
		return EndpointName
	}
	return EndpointName + strconv.Itoa(node)
}

// Stream names one base stream of the per-node RNG layout. Every
// stochastic concern draws from its own stream, so a lossy or faulted run
// samples exactly the same delays, jitter and noise as its clean twin.
type Stream int64

// The base streams of the layout.
const (
	StreamNet   Stream = 1 // network delay samples
	StreamIM    Stream = 2 // scheduler jitter
	StreamClock Stream = 3 // vehicle clock errors
	StreamPlant Stream = 4 // plant disturbance
	StreamLoss  Stream = 5 // message-loss coins
	StreamFault Stream = 6 // fault-injector decisions
)

// NodeStream returns base stream b of topology node k, seeded
// Seed + b + 1000k. Node 0's streams are the classic single-intersection
// layout; a world that shares one stream across its nodes (the serial
// kernel's network, clocks and plants) draws node 0's.
func NodeStream(seed int64, b Stream, node int) *rand.Rand {
	return rand.New(rand.NewSource(seed + int64(b) + 1000*int64(node)))
}

// NewNode builds a topology node's IM shard on kernel sim and network net:
// a scheduler of the named policy drawing from the node's IM stream, served
// at NodeEndpoint(node). col may be nil to skip metrics accounting.
func NewNode(sim *des.Simulator, net *network.Network, policy string, x *intersection.Intersection,
	opts PolicyOptions, seed int64, node int, col *metrics.Collector) (*Server, error) {
	sched, err := NewScheduler(policy, x, opts, NodeStream(seed, StreamIM, node))
	if err != nil {
		return nil, err
	}
	return NewServerAt(sim, net, sched, col, NodeEndpoint(node), node), nil
}

// TopologyCoordConfig derives a topology's coordination settings: the
// digest period (0 keeps the default) and the segment transit estimate.
// Transit from granted box entry at one node to box entry at the next —
// entry→despawn upstream, the inter-node segment, then line→entry
// downstream — sums to one full straight-movement path plus the segment,
// covered at the fleet's cruise speed.
func TopologyCoordConfig(x *intersection.Intersection, segmentLen, cruise, period float64) CoordConfig {
	cfg := DefaultCoordConfig()
	if period > 0 {
		cfg.Period = period
	}
	m := x.Movement(intersection.MovementID{Approach: intersection.East, Lane: 0, Turn: intersection.Straight})
	if m != nil && cruise > 0 {
		cfg.SegmentTransit = (m.Length + segmentLen) / cruise
	}
	return cfg
}

// EnableTopologyCoordination arms the coordination plane with the server's
// topology neighbors: every adjacent IM is a broadcast peer (grid
// adjacency is symmetric), and each exit direction maps to the neighbor it
// feeds.
func (s *Server) EnableTopologyCoordination(cfg CoordConfig, topo *topology.Topology) {
	var peers []CoordPeer
	downstream := make(map[intersection.Approach]CoordPeer)
	for _, e := range topo.OutEdges(topology.NodeID(s.node)) {
		p := CoordPeer{Node: int(e.To), Endpoint: NodeEndpoint(int(e.To))}
		peers = append(peers, p)
		downstream[e.Dir] = p
	}
	s.EnableCoordination(cfg, peers, downstream)
}
