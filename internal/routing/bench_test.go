package routing_test

import (
	"testing"
	"time"

	"slr/internal/geo"
	"slr/internal/mobility"
	"slr/internal/netstack"
	"slr/internal/routing"
	"slr/internal/routing/rtest"
	"slr/internal/sim"
)

// BenchmarkControlPlane runs each protocol's control plane on the
// in-memory rtest world: 25 nodes in random-waypoint motion (pause 0, up
// to 20 m/s), 6 simulated seconds per op from a cold start. Data is a
// single packet per node at 3 s, to a node across the network, so the
// on-demand protocols run route discovery; without it their control plane
// would be idle. Control transmissions per op are reported beside the
// time. It measures work inside the routing layer, together with the
// kernel, MAC and radio that carry it; performance claims come from
// slrbench.
func BenchmarkControlPlane(b *testing.B) {
	const (
		nodes = 25
		span  = 6 * time.Second
	)
	terrain := geo.Terrain{Width: 1000, Height: 400}
	for _, name := range routing.Protocols() {
		b.Run(name, func(b *testing.B) {
			factory := func(netstack.NodeID) netstack.Protocol {
				p, err := routing.Build(routing.Spec{Name: name})
				if err != nil {
					b.Fatal(err)
				}
				return p
			}
			var ctrl uint64
			for i := 0; i < b.N; i++ {
				seed := int64(i%8 + 1)
				rng := sim.New(seed).Rand()
				models := make([]mobility.Model, nodes)
				for j := range models {
					models[j] = mobility.NewWaypoint(terrain, rng, 1, 20, 0)
				}
				w := rtest.New(seed, 250, factory, make([]geo.Point, nodes), models)
				w.Sim.At(3*time.Second, func() {
					for src := 0; src < nodes; src++ {
						w.Send(src, (src+nodes/2)%nodes)
					}
				})
				w.Sim.RunUntil(span)
				ctrl += w.MX.ControlTx
			}
			b.ReportMetric(float64(ctrl)/float64(b.N), "ctrl-tx/op")
		})
	}
}
