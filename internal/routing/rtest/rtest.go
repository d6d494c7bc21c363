// Package rtest provides a shared in-memory world harness for routing
// protocol tests: nodes on a radio channel with static or scripted
// mobility, application packet injection, and a per-destination
// successor-graph cycle checker (the loop-freedom invariant).
package rtest

import (
	"fmt"

	"slr/internal/geo"
	"slr/internal/loopcheck"
	"slr/internal/metrics"
	"slr/internal/mobility"
	"slr/internal/netstack"
	"slr/internal/radio"
	"slr/internal/sim"
)

// World is a small simulated network for protocol tests.
type World struct {
	Sim   *sim.Simulator
	Ch    *radio.Channel
	Nodes []*netstack.Node
	MX    *metrics.Collector
	uid   uint64
}

// Factory builds a protocol instance for a node.
type Factory func(id netstack.NodeID) netstack.Protocol

// New builds a world with one node per position and starts every
// protocol. Nodes are static unless models is non-nil, in which case
// models[i] overrides position i.
func New(seed int64, rangeM float64, f Factory, positions []geo.Point, models []mobility.Model) *World {
	w := NewStopped(seed, rangeM, f, positions, models)
	w.StartAll()
	return w
}

// NewStopped builds a world like New but does not start the protocols, so
// tests can observe the before-Start contract (no control traffic) or
// exercise Start explicitly.
func NewStopped(seed int64, rangeM float64, f Factory, positions []geo.Point, models []mobility.Model) *World {
	s := sim.New(seed)
	p := radio.DefaultParams()
	p.Range = rangeM
	ch := radio.NewChannel(s, p)
	mx := metrics.NewCollector()
	w := &World{Sim: s, Ch: ch, MX: mx}
	for i, pos := range positions {
		id := netstack.NodeID(i)
		n := netstack.NewNode(s, ch, id, f(id), mx)
		var m mobility.Model = &mobility.Static{At: pos}
		if models != nil && models[i] != nil {
			m = models[i]
		}
		ch.Register(id, m, n.Mac())
		w.Nodes = append(w.Nodes, n)
	}
	return w
}

// StartAll starts every node's protocol.
func (w *World) StartAll() {
	for _, n := range w.Nodes {
		n.Start()
	}
}

// Chain returns n positions spaced `gap` meters apart on a line.
func Chain(n int, gap float64) []geo.Point {
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{X: float64(i) * gap}
	}
	return pts
}

// Grid returns rows x cols positions spaced `gap` meters apart.
func Grid(rows, cols int, gap float64) []geo.Point {
	pts := make([]geo.Point, 0, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			pts = append(pts, geo.Point{X: float64(c) * gap, Y: float64(r) * gap})
		}
	}
	return pts
}

// Send originates one application packet from src to dst.
func (w *World) Send(src, dst int) {
	w.uid++
	w.Nodes[src].SendData(&netstack.DataPacket{
		UID:     w.uid,
		Src:     netstack.NodeID(src),
		Dst:     netstack.NodeID(dst),
		Size:    512,
		TTL:     netstack.DefaultTTL,
		Created: w.Sim.Now(),
	})
}

// CheckLoopFree verifies that, for every destination, the union of all
// nodes' successor sets forms an acyclic graph — the paper's loop-freedom
// at every instant. It returns an error naming the destination on failure.
func (w *World) CheckLoopFree() error {
	protos := make([]netstack.Protocol, len(w.Nodes))
	for i, n := range w.Nodes {
		protos[i] = n.Protocol()
	}
	for dst := range w.Nodes {
		if cyc := loopcheck.FindCycle(loopcheck.Adjacency(protos, netstack.NodeID(dst))); cyc != nil {
			return fmt.Errorf("destination %d: routing loop %v at t=%v", dst, cyc, w.Sim.Now())
		}
	}
	return nil
}
